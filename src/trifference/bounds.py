"""Upper bounds on trifferent code size and the density-transfer calculus.

Everything a report needs: the classical 2*(3/2)^n pruning bound, the
computer-search constant 0.6937 (valid from n = 10), Zarankiewicz edge bounds
a la Kovari-Sos-Turan and Hylten-Cavallius, and the transfer that turns any
bound on r-bounded codes into a bound on unrestricted ones.  Values are kept
in log2 alongside the linear form so the comparisons stay finite at n = 10^9.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import Code, _require_trifferent

__all__ = [
    "BoundEntry",
    "BoundReport",
    "DeficitEstimate",
    "zarankiewicz_bound",
    "zarankiewicz_edge_bound",
    "elias_bound",
    "elias_bound_log2",
    "kurz_bound",
    "kurz_bound_log2",
    "tb_upper",
    "tb_upper_detail",
    "rho_b",
    "transfer_bound",
    "transfer_bound_log2",
    "r3_transfer_log2",
    "crossover_n0",
    "deficit",
    "deficit_upper",
    "rate",
    "bound_report",
]

LOG2_3 = math.log2(3.0)
KURZ_CONSTANT = 0.6937
KURZ_MIN_N = 10
R3_THRESHOLD = 2**21  # one more shared pair would force two equal codewords

DEFAULT_CROSSOVER_GRID = tuple(10**k for k in range(1, 10))


def zarankiewicz_bound(u: int, v: int, s: int, t: int) -> float:
    """Real upper bound on edges of a K_{s,t}-free bipartite graph on u x v.

    (t-1)^(1/s) * (u-s+1) * v^(1-1/s) + (s-1) * v; the edge count itself is
    the largest integer strictly below this value.
    """
    if s < 1 or u < s:
        raise ValueError(f"need u >= s >= 1, got u={u}, s={s}")
    if v < 1 or t < 1:
        raise ValueError(f"need v >= 1 and t >= 1, got v={v}, t={t}")
    return (
        (t - 1) ** (1.0 / s) * (u - s + 1) * float(v) ** (1.0 - 1.0 / s)
        + (s - 1) * float(v)
    )


def zarankiewicz_edge_bound(u: int, v: int, s: int, t: int) -> int:
    """Largest integer strictly below the real Zarankiewicz bound."""
    return math.ceil(zarankiewicz_bound(u, v, s, t)) - 1


def _pow_three_halves(n: int) -> float:
    # exact integer 3^n scaled by 2^-n keeps every bit while it fits a double
    if n <= 512:
        return math.ldexp(float(3**n), -n)
    return 1.5**n


def elias_bound(n: int) -> float:
    """2 * (3/2)^n, the pruning upper bound valid at every length."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2.0 * _pow_three_halves(n)


def elias_bound_log2(n: int) -> float:
    if n < 1:
        raise ValueError("n must be positive")
    return 1.0 + n * (LOG2_3 - 1.0)


def kurz_bound(n: int) -> float | None:
    """0.6937 * (3/2)^n, valid for n >= 10; None below that."""
    if n < KURZ_MIN_N:
        return None
    return KURZ_CONSTANT * _pow_three_halves(n)


def kurz_bound_log2(n: int) -> float | None:
    if n < KURZ_MIN_N:
        return None
    return math.log2(KURZ_CONSTANT) + n * (LOG2_3 - 1.0)


def tb_upper(n: int, r: int) -> float:
    """Upper bound on the largest r-bounded trifferent code, r in {0, 1, 2, 3}."""
    return tb_upper_detail(n, r)[0]


def tb_upper_detail(n: int, r: int) -> tuple[float, str]:
    """The bound together with which branch produced it.

    r = 0 and r = 1 are exact (2 and 2n); r = 2 and r = 3 take the minimum of
    the trivial two-per-support count and the Zarankiewicz bound on the
    derived graph, rescaled by how many codewords an edge can account for.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if r == 0:
        return 2.0, "exact"
    if r == 1:
        return (1.0, "exact") if n == 1 else (2.0 * n, "exact")
    if r == 2:
        if n < 2:
            return 0.0, "empty"
        trivial = 2.0 * math.comb(n, 2)
        half = math.ceil(n / 2)
        if half >= 3:
            # random balanced split keeps >= 1/2 of edges in expectation, and
            # each surviving edge came from at most 2 codewords
            kst = 4.0 * zarankiewicz_bound(half, n - half, 3, 9)
            if kst < trivial:
                return kst, "kst"
        return trivial, "trivial"
    if r == 3:
        if n < 3:
            return 0.0, "empty"
        trivial = 2.0 * math.comb(n, 3)
        if n >= 5:
            kst = 2.0 * zarankiewicz_bound(n, math.comb(n, 2), 5, R3_THRESHOLD)
            if kst < trivial:
                return kst, "kst"
        return trivial, "trivial"
    raise ValueError(f"tb_upper supports r in {{0, 1, 2, 3}}, got r={r}")


def rho_b(n: int, r: int, tb_value: float) -> float:
    """Density of an r-bounded code of size tb_value inside its layer: 2^(r-n) * tb / C(n,r)."""
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    if not 0 < tb_value < math.inf:
        raise ValueError("tb_value must be positive and finite")
    return math.ldexp(tb_value / math.comb(n, r), r - n)


def transfer_bound(n: int, r: int, tb_value: float) -> float:
    """Upper bound on the unrestricted maximum from a bound on the r-layer.

    A random shift lands the expected fraction of any trifferent code inside
    the r-layer, so T(n) <= 2^(r-n) * tb / C(n,r) * 3^n.  With r = 0 and
    tb = 2 this reproduces elias_bound(n) bit for bit.
    """
    return rho_b(n, r, tb_value) * float(3**n)


def transfer_bound_log2(n: int, r: int, tb_value: float) -> float:
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    if not 0 < tb_value < math.inf:
        raise ValueError("tb_value must be positive and finite")
    return (
        math.log2(tb_value) + (r - n) - math.log2(math.comb(n, r)) + n * LOG2_3
    )


def r3_transfer_log2(n: int) -> float:
    """log2 of the r=3 transfer with the Zarankiewicz-or-trivial layer bound."""
    return transfer_bound_log2(n, 3, tb_upper(n, 3))


def crossover_n0(grid=DEFAULT_CROSSOVER_GRID) -> int | None:
    """Smallest grid point from which the r=3 transfer stays below elias_bound."""
    best = None
    for n in sorted(grid):
        if n < 3:
            continue
        if r3_transfer_log2(n) < elias_bound_log2(n):
            if best is None:
                best = n
        else:
            best = None
    return best


class DeficitEstimate(NamedTuple):
    """delta = r - log(tb) / log(n); direction is inherited from the tb flag.

    A lower bound on the layer maximum makes delta an upper estimate of the
    true deficit and vice versa.
    """

    n: int
    r: int
    tb_value: float
    tb_kind: str
    delta: float

    @property
    def delta_kind(self) -> str:
        return {"exact": "exact", "lower": "upper", "upper": "lower"}[self.tb_kind]


def deficit(n: int, r: int, tb_value: float, tb_kind: str = "exact") -> DeficitEstimate:
    if n < 2:
        raise ValueError("deficit needs n >= 2 (log n must be positive)")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not 0 < tb_value < math.inf:
        raise ValueError("tb_value must be positive and finite")
    if tb_kind not in ("exact", "lower", "upper"):
        raise ValueError(f"tb_kind must be exact/lower/upper, got {tb_kind!r}")
    delta = r - math.log(tb_value) / math.log(n)
    return DeficitEstimate(n=n, r=r, tb_value=tb_value, tb_kind=tb_kind, delta=delta)


def deficit_upper(r: int) -> float:
    """r - r^alpha with alpha = 1 - log_3(2), for r a power of 3.

    Each recursion level triples r while the guaranteed code size cubes, and
    chasing that balance down to r = 1 gives the exponent alpha.
    """
    if r < 1:
        raise ValueError("r must be positive")
    k = r
    while k % 3 == 0:
        k //= 3
    if k != 1:
        raise ValueError(f"deficit_upper needs a power of 3, got {r}")
    alpha = 1.0 - math.log(2.0) / math.log(3.0)
    return r - r**alpha


def rate(code: Code) -> float | None:
    """(1/n) * log2(|C| / 2); zero at two codewords, not applicable below."""
    if len(code) < 2:
        return None
    return math.log2(len(code) / 2.0) / code.n


class BoundEntry(NamedTuple):
    name: str
    value: float | None
    log2_value: float | None
    valid: bool
    provenance: str


class BoundReport(NamedTuple):
    """All applicable upper bounds at one length, plus rates of supplied codes."""

    n: int
    entries: tuple[BoundEntry, ...]
    best: str
    crossover: int | None
    rates: tuple

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "entries": [e._asdict() for e in self.entries],
            "best": self.best,
            "crossover_N0": self.crossover,
            "rates": [{"label": label, "rate": value} for label, value in self.rates],
        }


def _double_or_none(compute) -> float | None:
    """compute(), or None where it overflows a double: it raises or comes out infinite."""
    try:
        value = compute()
    except OverflowError:
        return None
    return None if value == math.inf else value


def bound_report(n: int, exact_tb: dict | None = None, codes=None) -> BoundReport:
    """Assemble every bound we can defend at length n and pick the smallest.

    exact_tb maps (n, r) to exactly searched layer maxima; matching entries
    get their own transfer lines and win ties against formula bounds.  codes
    maps labels to Code objects and only contributes rate lines; each code
    is verified first, and one that is not trifferent raises
    NotTrifferentError, since its rate would bound nothing.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for label, code in (codes or {}).items():
        _require_trifferent(code, label)
    entries = []

    # every entry comes from here: valid when it has a log2 value, its value
    # linear() or else read off the log2 form, null on overflow
    def add(name, log2_value, provenance, linear=None):
        value = None
        if log2_value is not None:
            value = _double_or_none(linear or (lambda: 2.0**log2_value))
        entries.append(BoundEntry(name, value, log2_value, log2_value is not None, provenance))

    add(
        "elias",
        elias_bound_log2(n),
        "pruning bound 2*(3/2)^n (Elias 1988), all n",
        lambda: elias_bound(n),
    )
    add(
        "kurz",
        kurz_bound_log2(n),
        "computer-assisted constant 0.6937*(3/2)^n (Kurz 2024), n >= 10",
        lambda: kurz_bound(n),
    )
    sources = []
    for r in (2, 3):
        tb, branch = tb_upper_detail(n, r)
        provenance = (
            f"shift transfer from the r={r} layer bound ({branch} branch, "
            "Kovari-Sos-Turan edge count)"
        )
        if n < r:
            provenance = f"r={r} layer is empty below n={r}"
        sources.append((f"kst-r{r}-transfer", r, tb, provenance))
    exact = sorted(
        (r, size)
        for (tn, r), size in (exact_tb or {}).items()
        if tn == n and r is not None and r <= n
    )
    sources += [
        (
            f"exact-r{r}-transfer",
            r,
            size,
            f"shift transfer from the exactly searched r={r} layer maximum {size}",
        )
        for r, size in exact
    ]
    for label, r, tb, provenance in sources:
        # past length 512 the value is read off its log2 form
        add(
            label,
            transfer_bound_log2(n, r, tb) if r <= n else None,
            provenance,
            (lambda: transfer_bound(n, r, tb)) if n <= 512 else None,
        )
    best = min(
        (e for e in entries if e.valid),
        key=lambda e: (e.log2_value, 0 if e.name.startswith("exact") else 1, e.name),
    )
    return BoundReport(
        n=n,
        entries=tuple(entries),
        best=best.name,
        crossover=crossover_n0(),
        rates=tuple((label, rate(code)) for label, code in (codes or {}).items()),
    )
