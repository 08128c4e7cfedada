"""Explicit trifferent code families: 1-bounded pairs, affine tripling, recursion."""

from __future__ import annotations

import math
from random import Random
from typing import NamedTuple

from .core import Code, _Frozen, _require_trifferent

__all__ = [
    "AffineLine",
    "AffineIncidence",
    "one_bounded",
    "affine_plane",
    "fpf_permutation",
    "triple_construction",
    "recursive_construction",
]

def one_bounded(n: int) -> Code:
    """Largest 1-bounded trifferent code: two words per coordinate, size 2n.

    u_i has its 2 at coordinate i, 1 on every later coordinate, 0 before;
    v_i mirrors it (1 before, 0 after).  Any triple contains two words u/v
    sharing some coordinate i or three distinct 2-coordinates i < j < k, and
    in both cases one coordinate sees 0, 1 and 2.  For n = 1 the two words
    coincide, so the code is the single word "2".
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return Code.from_strings(["2"], comments=("# construction=one-bounded n=1",))
    words = []
    for i in range(n):
        u = "".join("2" if j == i else ("1" if j > i else "0") for j in range(n))
        v = "".join("2" if j == i else ("1" if j < i else "0") for j in range(n))
        words.extend([u, v])
    return Code.from_strings(
        words, n=n, comments=(f"# construction=one-bounded n={n}",)
    )


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


class AffineLine(_Frozen):
    """A line of the affine plane over F_q: y = m*x + c, or x = c when m is None.

    A plain class rather than a tuple, so that a line never equals a point.
    """

    _fields = ("m", "c")

    def __init__(self, m: int | None, c: int):
        d = self.__dict__
        d["m"] = m
        d["c"] = c


class AffineIncidence(NamedTuple):
    """Points, lines, and point-line flags of the affine plane over F_q (q prime).

    Each line carries one fixed-point-free permutation sigma of its q points:
    by default the cyclic shift by one in the line's canonical point order
    (non-vertical lines sorted by x, verticals by y); with sigma_seed set, a
    seeded random derangement per line, recorded for reproducibility.
    """

    q: int
    points: tuple[tuple[int, int], ...]
    lines: tuple[AffineLine, ...]
    line_points: dict
    sigma: dict
    flags: tuple
    sigma_seed: int | None

    def lines_through(self, p: tuple[int, int]) -> tuple[AffineLine, ...]:
        return tuple(ln for ln in self.lines if p in self.line_points[ln])


def _derangement(items: list, rng: Random) -> dict:
    # rejection sampling; expected ~e attempts
    while True:
        perm = items[:]
        rng.shuffle(perm)
        if all(a != b for a, b in zip(items, perm)):
            return dict(zip(items, perm))


def affine_plane(q: int, sigma_seed: int | None = None) -> AffineIncidence:
    """The affine plane AG(2, q) for prime q, with q^2 + q lines of q points each."""
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    points = tuple((x, y) for x in range(q) for y in range(q))
    lines = tuple(
        [AffineLine(m, c) for m in range(q) for c in range(q)]
        + [AffineLine(None, c) for c in range(q)]
    )
    line_points = {}
    for ln in lines:
        if ln.m is None:
            pts = tuple((ln.c, y) for y in range(q))  # sorted by y
        else:
            pts = tuple((x, (ln.m * x + ln.c) % q) for x in range(q))  # sorted by x
        line_points[ln] = pts
    rng = Random(sigma_seed) if sigma_seed is not None else None
    sigma = {}
    for ln in lines:
        pts = line_points[ln]
        if rng is None:
            sigma[ln] = {pts[i]: pts[(i + 1) % q] for i in range(q)}
        else:
            sigma[ln] = _derangement(list(pts), rng)
    flags = tuple((p, ln) for ln in lines for p in line_points[ln])
    return AffineIncidence(
        q=q,
        points=points,
        lines=lines,
        line_points=line_points,
        sigma=sigma,
        flags=flags,
        sigma_seed=sigma_seed,
    )


def fpf_permutation(plane: AffineIncidence, line: AffineLine) -> dict:
    """The fixed-point-free permutation attached to one line of the plane."""
    try:
        return plane.sigma[line]
    except KeyError:
        raise ValueError(f"line {line} does not belong to this plane") from None


def triple_construction(
    q: int, base: Code, sigma_seed: int | None = None
) -> Code:
    """Blow an r-bounded trifferent code up to a 3r-bounded one of size q^3 + q^2.

    One output word per point-line flag (p, l) of the affine plane over F_q:
    the concatenation of phi(p), psi(l), and phi(sigma_l(p)), where phi
    enumerates the first q^2 base codewords over the points and psi the first
    q^2 + q over the lines.  Each of the three blocks resolves the triples
    whose flags collide in the other two, which is where the fixed-point-free
    sigma earns its keep.
    """
    plane = affine_plane(q, sigma_seed=sigma_seed)
    need = q * q + q
    if len(base) < need:
        raise ValueError(
            f"base code has {len(base)} codewords; q={q} needs at least {need}"
        )
    if base.r_bound is None:
        raise ValueError("base code must be exactly r-bounded")
    _require_trifferent(base, "base code")
    strings = base.strings()
    phi = {p: strings[i] for i, p in enumerate(plane.points)}
    psi = {ln: strings[i] for i, ln in enumerate(plane.lines)}
    words = [phi[p] + psi[ln] + phi[plane.sigma[ln][p]] for p, ln in plane.flags]
    sigma_note = "cyclic" if sigma_seed is None else f"random seed={sigma_seed}"
    comments = (
        f"# construction=triple q={q} sigma={sigma_note}",
        f"# base: n={base.n} size={len(base)} r={base.r_bound}",
    )
    # distinct flags give distinct words, which Code checks
    return Code.from_strings(words, n=3 * base.n, comments=comments)


def recursive_construction(t: int, target_size: int) -> Code:
    """A 3^t-bounded trifferent code with at least target_size codewords.

    Depth 0 is the 1-bounded pair family; each deeper level picks the
    smallest prime q with q^3 + q^2 >= target_size and triples a recursively
    built base of size q^2 + q.  Block length therefore grows by a factor of
    3 per level while the guaranteed size roughly cubes.
    """
    if t < 0:
        raise ValueError("recursion depth must be nonnegative")
    if target_size < 1:
        raise ValueError("target size must be positive")
    if t == 0:
        return one_bounded(max(1, math.ceil(target_size / 2)))
    q = 2
    while q**3 + q**2 < target_size:
        q += 1
        while not _is_prime(q):
            q += 1
    base = recursive_construction(t - 1, q * q + q)
    code = triple_construction(q, base)
    comments = code.comments + (
        f"# recursive: t={t} target={target_size} q={q}",
    )
    return Code(code.n, code.codewords, comments=comments)
