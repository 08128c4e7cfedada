"""Ternary codewords held as bitplanes, trifference checks, and code transforms.

A code C over {0,1,2} is trifferent when every triple of distinct codewords
has a coordinate at which the three words take all three symbols.  Codewords
carry one integer bitmask per symbol.  The bulk kernels (the triple scan and
shift sampling) instead multiply 0/1 symbol planes as float32 matrices.  They
stay exact: every product term is 0 or 1, so each partial sum is an integer
no larger than the number of terms, which is kept below 2**24 (see _planes).
numpy is imported inside the kernels that use it, and fractions inside shift
sampling, so a command that never scans (a bound, prune, project or graph)
starts without them.  Codes with few triples are verified by mask arithmetic
alone, and a verification split over worker processes, which take the rows
of the scan round-robin, loads numpy only in the workers.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from random import Random
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

__all__ = [
    "Codeword",
    "Code",
    "VerificationResult",
    "ShiftSampleStats",
    "TriffParseError",
    "NotTrifferentError",
    "OracleDisagreementError",
    "TRIFFERENT",
    "NOT_TRIFFERENT",
    "is_trifferent_triple",
    "naive_trifferent_triple",
    "verify_trifferent",
    "count_A_r",
    "add_codewords",
    "shift",
    "shift_density_sample",
    "prune",
    "project",
    "best_project",
    "support_multiplicities",
    "parse_triff",
    "format_triff",
    "read_triff",
    "write_triff",
]

TRIFFERENT = "trifferent"
NOT_TRIFFERENT = "not_trifferent"

# str.translate tables mapping a ternary string to the binary indicator
# string of one symbol plane.
_PLANE_TABLES = (
    str.maketrans("012", "100"),
    str.maketrans("012", "010"),
    str.maketrans("012", "001"),
)


class TriffParseError(ValueError):
    """Malformed .triff input.  Carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class NotTrifferentError(ValueError):
    """Raised when an operation requires a trifferent code but the input is not one."""


class OracleDisagreementError(RuntimeError):
    """A search's result contradicts the exhaustive oracle's optimum.

    Defined here, and re-exported by search, so that the CLI can catch it
    without importing search on every command.
    """


class _Frozen:
    """Base of the immutable plain classes: __init__ fills __dict__ directly.

    Instances of one class are equal, and hash alike, when their _fields
    are; __repr__ shows those fields.  Assigning or deleting an attribute
    raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Codeword(_Frozen):
    """A length-n word over {0,1,2} stored as one bitmask per symbol.

    Bit i of mask_s is set iff coordinate i holds symbol s.  The three masks
    partition the coordinate set; this is validated at construction so that
    downstream mask arithmetic never has to re-check it.  The word also keeps
    its string, which Code sorts by.
    """

    _fields = ("n", "mask0", "mask1", "mask2")

    def __init__(self, n: int, mask0: int, mask1: int, mask2: int):
        if n < 1:
            raise ValueError("codeword length must be positive")
        if min(mask0, mask1, mask2) < 0:
            raise ValueError("bitplanes must be nonnegative")
        full = (1 << n) - 1
        if (mask0 | mask1 | mask2) != full or (mask0 + mask1 + mask2) != full:
            # equality of OR and sum forces pairwise disjointness
            raise ValueError("bitplanes must partition the coordinate set")
        d = self.__dict__
        d["n"] = n
        d["mask0"] = mask0
        d["mask1"] = mask1
        d["mask2"] = mask2
        # read each mask's binary digits as hex digits, so that one sum puts
        # symbol s in hex digit i; base 16, unlike base 10, has no digit limit
        digits = int(format(mask1, "b"), 16) + 2 * int(format(mask2, "b"), 16)
        d["string"] = format(digits, f"0{n}x")[::-1]

    # spelled out, as triple checks compare words often
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.mask0 == other.mask0
            and self.mask1 == other.mask1
            and self.mask2 == other.mask2
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask0, self.mask1, self.mask2))

    @classmethod
    def from_string(cls, s: str) -> "Codeword":
        if not s:
            raise ValueError("codeword string must be nonempty")
        if s.strip("012"):  # any other symbol survives the strip
            raise ValueError(f"invalid symbols in codeword {s!r}")
        rev = s[::-1]  # bit i of each mask is coordinate i (leftmost char)
        # the planes of a string over 012 partition its coordinates, so
        # __init__'s checks are skipped
        word = cls.__new__(cls)
        word.__dict__.update(
            n=len(s),
            mask0=int(rev.translate(_PLANE_TABLES[0]), 2),
            mask1=int(rev.translate(_PLANE_TABLES[1]), 2),
            mask2=int(rev.translate(_PLANE_TABLES[2]), 2),
            string=s,
        )
        return word

    def __str__(self) -> str:
        return self.string

    def symbol(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate {i} out of range for length {self.n}")
        return ((self.mask1 >> i) & 1) + 2 * ((self.mask2 >> i) & 1)

    @property
    def count_twos(self) -> int:
        return self.mask2.bit_count()

    def two_locations(self) -> tuple[int, ...]:
        """Sorted coordinates where the word has symbol 2."""
        locs = []
        m = self.mask2
        while m:
            lsb = m & -m
            locs.append(lsb.bit_length() - 1)
            m ^= lsb
        return tuple(locs)


class Code(_Frozen):
    """A duplicate-free set of equal-length codewords, stored lexicographically.

    r_bound is derived at construction: it is set to r exactly when every
    codeword has r twos, and is None otherwise (including the empty code).
    Comment lines (leading '#') survive .triff round trips.
    """

    _fields = ("n", "codewords", "comments", "r_bound")

    def __init__(self, n: int, codewords, comments=()):
        if n < 1:
            raise ValueError("block length must be positive")
        words = sorted(codewords, key=lambda w: w.string)
        for w in words:
            if w.n != n:
                raise ValueError(f"codeword {w} has length {w.n}, expected {n}")
        for a, b in zip(words, words[1:]):
            if a == b:
                raise ValueError(f"duplicate codeword {a}")
        comments = tuple(comments)
        for c in comments:
            if not c.startswith("#"):
                raise ValueError("comment lines must start with '#'")
        two_counts = {w.count_twos for w in words}
        d = self.__dict__
        d["n"] = n
        d["codewords"] = tuple(words)
        d["comments"] = comments
        d["r_bound"] = two_counts.pop() if len(two_counts) == 1 else None

    @classmethod
    def from_strings(cls, strings, n: int | None = None, comments=()) -> "Code":
        words = [Codeword.from_string(s) for s in strings]
        if n is None:
            if not words:
                raise ValueError("cannot infer block length from an empty code")
            n = words[0].n
        return cls(n=n, codewords=tuple(words), comments=tuple(comments))

    def __len__(self) -> int:
        return len(self.codewords)

    def __iter__(self):
        return iter(self.codewords)

    def strings(self) -> tuple[str, ...]:
        return tuple(w.string for w in self.codewords)


class VerificationResult(NamedTuple):
    """Outcome of verify_trifferent; witness is the lex-smallest violating triple."""

    status: str
    witness: tuple[int, int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.status == TRIFFERENT


def _check_triple_args(x: Codeword, y: Codeword, z: Codeword) -> None:
    if not (x.n == y.n == z.n):
        raise ValueError("codewords in a triple must share one length")
    if x == y or y == z or x == z:
        raise ValueError("triple check requires three distinct codewords")


def is_trifferent_triple(x: Codeword, y: Codeword, z: Codeword) -> bool:
    """True iff some coordinate sees all three symbols across x, y, z.

    Pure mask arithmetic: OR over the six symbol assignments of the
    coordinatewise AND of the matching bitplanes.
    """
    _check_triple_args(x, y, z)
    return _separated(x, y, z)


def _separated(x: Codeword, y: Codeword, z: Codeword) -> bool:
    """is_trifferent_triple without its argument checks, for words known valid."""
    acc = (
        x.mask0 & ((y.mask1 & z.mask2) | (y.mask2 & z.mask1))
        | x.mask1 & ((y.mask0 & z.mask2) | (y.mask2 & z.mask0))
        | x.mask2 & ((y.mask0 & z.mask1) | (y.mask1 & z.mask0))
    )
    return acc != 0


def naive_trifferent_triple(x: Codeword, y: Codeword, z: Codeword) -> bool:
    """Reference check walking coordinates symbol by symbol.

    Kept deliberately independent of the bitplane path; the two must agree
    on every input.
    """
    _check_triple_args(x, y, z)
    return any(
        a != b and b != c and a != c
        for a, b, c in zip(x.string, y.string, z.string)
    )


def _symbol_matrix(strings, n: int) -> np.ndarray:
    """Words over 012, each n long, as a uint8 matrix of symbols, one row each.

    A string may hold several words back to back.
    """
    import numpy as np

    flat = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8)
    return flat.reshape(-1, n) - ord("0")


def _planes(U: np.ndarray, targets) -> np.ndarray:
    """The 0/1 matrix [U == t_0 | U == t_1 | ...], one n-column plane per target.

    A target is a symbol or a row of per-coordinate symbols.  Products of
    these planes are integer counts; float32 keeps every partial sum exact
    while the number of summed terms stays below 2**24.
    """
    import numpy as np

    rows, n = U.shape
    dtype = np.float32 if n * len(targets) < 2**24 else np.float64
    out = np.empty((rows, n * len(targets)), dtype=dtype)
    for t, target in enumerate(targets):
        np.equal(U, target, out=out[:, t * n : (t + 1) * n])
    return out


def _scan_rows(
    U: np.ndarray, first: int, step: int, block: int = 128
) -> tuple[int, int, int] | None:
    """Lex-smallest violating triple (i, j, k) with i in range(first, m - 2, step), else None.

    For fixed i, let E and F mark where each later word holds U_i + 1 and
    U_i + 2 (mod 3).  Then N = E F^T + F E^T counts, for each pair (j, k),
    the coordinates at which i, j and k show all three symbols, and (i, j, k)
    violates trifference exactly when N[j, k] = 0.  N is symmetric, so it is
    built [E F] [F E]^T in row blocks that start at the diagonal and cover
    the upper triangle.  Rows and blocks go in order, so the first zero found
    above the diagonal is the lex-smallest witness.
    """
    import numpy as np

    m = U.shape[0]
    for i in range(first, m - 2, step):
        later = U[i + 1 :]
        up1, up2 = (U[i] + 1) % 3, (U[i] + 2) % 3
        ef, fe = _planes(later, (up1, up2)), _planes(later, (up2, up1))
        for a in range(0, len(later), block):
            sep = ef[a : a + block] @ fe[a:].T  # N[a + s, a + t]
            np.fill_diagonal(sep, 1)  # j = k is not a triple
            if sep.min() == 0:
                # a zero below the diagonal mirrors one above it in this block
                bad = np.triu(sep == 0, 1)
                s, t = divmod(int(np.argmax(bad)), bad.shape[1])
                return (i, i + 1 + a + s, i + 1 + a + t)
    return None


# Starting a worker process costs tens of milliseconds, and each worker pays
# its own numpy import (about 50 ms), so each must get at least this much
# scan work (word pairs times coordinates, on the order of 0.1 s of
# scanning); below that, fewer processes finish sooner.
_MIN_PROCESS_WORK = 2 * 10**9

# Codes with at most this many triples are checked one triple at a time by
# _separated, under 1 us each against 50 ms or more to import
# numpy for the scan.  The 30- and 36-word base codes that the affine triple
# construction uses for q = 5 fall under it.
_MAX_PYTHON_TRIPLES = 10**4


def _scan_parts(m: int, n: int, workers: int, cpus: int) -> int:
    """How many processes share the scan of the rows i in [0, m - 2).

    Part p scans rows p, p + parts, p + 2 parts, ...  Row i costs
    (m - 1 - i)^2 * n, so this round-robin deal gives every part the mean
    share to within the first row's cost; the total is
    ((m - 1) m (2m - 1) / 6 - 1) * n.  There are at most
    min(workers, cpus, m - 2) parts, and one unless each gets _MIN_PROCESS_WORK.
    """
    work = (m - 1) * m * (2 * m - 1) // 6 - 1
    return max(1, min(workers, cpus, m - 2, work * n // _MIN_PROCESS_WORK))


def _pin_blas_threads() -> None:
    """Run the OpenBLAS that numpy loaded with one thread in this process.

    Each worker process already owns a core; BLAS threads on top of the
    workers would only oversubscribe them.  A worker forked from a process
    without numpy sets OPENBLAS_NUM_THREADS instead (_start_scan_worker);
    this is for one forked after numpy was loaded, when that variable comes
    too late.  Best effort: where the loaded libraries cannot be listed,
    BLAS keeps its default.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's bundled OpenBLAS, then a system OpenBLAS
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_num_threads = getattr(lib, name)
                set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
                set_num_threads(1)
                break


def _start_scan_worker() -> None:
    """Give this worker process one BLAS thread, before or after numpy loads."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if "numpy" in sys.modules:
        _pin_blas_threads()


def _scan_words(words: str, n: int, first: int, step: int) -> tuple[int, int, int] | None:
    """_scan_rows over the words joined in one string, each n long."""
    return _scan_rows(_symbol_matrix([words], n), first, step)


def verify_trifferent(code: Code, workers: int = 1) -> VerificationResult:
    """Check every codeword triple; codes of size at most 2 pass vacuously.

    A code with at most _MAX_PYTHON_TRIPLES triples is checked triple by
    triple.  Larger ones are scanned with one matrix product per word (see
    _scan_rows), so memory stays O(m*n + m^2) for m words of length n.  With
    workers > 1 the rows are dealt round-robin to at most min(workers, cpu
    count) processes (_scan_parts); small scans stay in this process.  Each
    path yields the first witness of each part, and the smallest of them is
    the lexicographically smallest violating index triple into the sorted
    codeword list, whatever the path or the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    m = len(code)
    if math.comb(m, 3) <= _MAX_PYTHON_TRIPLES:
        # a Code's words share one length and are distinct, so the per-triple
        # argument checks are skipped
        w = code.codewords
        triples = itertools.combinations(range(m), 3)
        found = [next((t for t in triples if not _separated(w[t[0]], w[t[1]], w[t[2]])), None)]
    else:
        joined = "".join(code.strings())
        parts = _scan_parts(m, code.n, workers, os.cpu_count() or 1)
        if parts == 1:
            found = [_scan_words(joined, code.n, 0, 1)]
        else:
            # the pool's modules cost every CLI start ~15 ms, so import on use
            from concurrent.futures import ProcessPoolExecutor

            # the workers build their own symbol matrices, so that this process
            # never loads numpy, whose idle BLAS threads would spin on their cores
            with ProcessPoolExecutor(max_workers=parts, initializer=_start_scan_worker) as pool:
                scans = [pool.submit(_scan_words, joined, code.n, p, parts) for p in range(parts)]
                found = [scan.result() for scan in scans]
    witness = min((t for t in found if t is not None), default=None)
    return VerificationResult(TRIFFERENT if witness is None else NOT_TRIFFERENT, witness)


def count_A_r(n: int, r: int) -> int:
    """Size of the layer of length-n words with exactly r twos: C(n,r) * 2^(n-r)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    return math.comb(n, r) * 2 ** (n - r)


def add_codewords(x: Codeword, v: Codeword) -> Codeword:
    """Coordinatewise sum mod 3, expressed as bitplane shuffles."""
    if x.n != v.n:
        raise ValueError("length mismatch in codeword addition")
    return Codeword(
        n=x.n,
        mask0=(x.mask0 & v.mask0) | (x.mask1 & v.mask2) | (x.mask2 & v.mask1),
        mask1=(x.mask0 & v.mask1) | (x.mask1 & v.mask0) | (x.mask2 & v.mask2),
        mask2=(x.mask0 & v.mask2) | (x.mask1 & v.mask1) | (x.mask2 & v.mask0),
    )


def shift(code: Code, v: Codeword) -> Code:
    """Translate every codeword by v (mod 3).  Preserves size and trifference."""
    if v.n != code.n:
        raise ValueError("shift vector length must match the block length")
    return Code(code.n, tuple(add_codewords(x, v) for x in code))


# Shift vectors are counted in blocks of this many rows, which bounds the
# count matrix at |C| x _SHIFT_BLOCK.
_SHIFT_BLOCK = 1024


def _sampled_shifts(n: int, trials: int, rng: Random):
    """Seeded shift vectors as uint8 symbol blocks, drawn in trial order."""
    for done in range(0, trials, _SHIFT_BLOCK):
        k = min(_SHIFT_BLOCK, trials - done)
        # one call of k * n draws yields exactly what k calls of n draws do
        yield _symbol_matrix(["".join(rng.choices("012", k=k * n))], n)


def _all_shifts(n: int):
    """All 3^n shift vectors as uint8 symbol blocks of at most 3^7 rows."""
    import numpy as np

    t = min(n, 7)
    tails = np.array(list(itertools.product(range(3), repeat=t)), dtype=np.uint8)
    for head in itertools.product(range(3), repeat=n - t):
        heads = np.broadcast_to(np.array(head, dtype=np.uint8), (len(tails), n - t))
        yield np.hstack((heads, tails))


class ShiftSampleStats(NamedTuple):
    """Counts of |(C+v) ∩ A_r| over sampled (or all) shift vectors v.

    max_count is a certified lower bound on the largest r-bounded trifferent
    code of this length, because each intersection is itself one.
    """

    n: int
    r: int
    code_size: int
    trials: int
    seed: int | None
    exhaustive: bool
    mean_fraction: Fraction
    max_count: int
    expectation: Fraction

    @property
    def mean(self) -> float:
        return float(self.mean_fraction)


def shift_density_sample(
    code: Code,
    r: int,
    trials: int = 10000,
    seed: int | None = None,
    exhaustive: bool = False,
) -> ShiftSampleStats:
    """Sample shifts v and count codewords of C+v with exactly r twos.

    The exact expectation over a uniform v is count_A_r(n, r) * |C| / 3^n;
    exhaustive mode averages over all 3^n shifts and reproduces it exactly.
    Requires a trifferent input and, in sampling mode, an explicit seed.
    """
    from fractions import Fraction

    import numpy as np

    n = code.n
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    result = verify_trifferent(code)
    if not result.ok:
        raise NotTrifferentError(
            f"input is not trifferent (witness {result.witness})"
        )
    expectation = Fraction(count_A_r(n, r) * len(code), 3**n)
    if exhaustive:
        trials, seed, shifts = 3**n, None, _all_shifts(n)
    else:
        if trials < 1:
            raise ValueError("trials must be positive")
        if seed is None:
            raise ValueError("sampling mode requires an explicit seed")
        shifts = _sampled_shifts(n, trials, Random(seed))
    X = _planes(_symbol_matrix(code.strings(), n), (0, 1, 2))
    total = 0
    max_count = 0
    for V in shifts:
        # x + v holds a 2 where (x, v) is (0, 2), (1, 1) or (2, 0)
        twos = X @ _planes(V, (2, 1, 0)).T
        counts = np.count_nonzero(twos == r, axis=0)
        total += int(counts.sum())
        max_count = max(max_count, int(counts.max()))
    return ShiftSampleStats(
        n=n,
        r=r,
        code_size=len(code),
        trials=trials,
        seed=seed,
        exhaustive=bool(exhaustive),
        mean_fraction=Fraction(total, trials),
        max_count=max_count,
        expectation=expectation,
    )


def prune(code: Code) -> list[Code]:
    """Coordinate-by-coordinate pruning chain C_0 ⊇ C_1 ⊇ ... ⊇ C_n.

    Step k deletes every codeword whose symbol at coordinate k-1 occurs least
    often there (ties broken toward the smallest symbol), so each step keeps
    at least |C| - floor(|C|/3) codewords.  A trifferent input always ends
    with at most 2 codewords; ending larger proves the input was not
    trifferent and raises NotTrifferentError.
    """
    chain = [Code(code.n, code.codewords)]
    current = list(code.codewords)
    for coord in range(code.n):
        counts = [0, 0, 0]
        for w in current:
            counts[w.symbol(coord)] += 1
        least = counts.index(min(counts))  # index() takes the smallest symbol on ties
        current = [w for w in current if w.symbol(coord) != least]
        chain.append(Code(code.n, tuple(current)))
    if len(current) > 2:
        raise NotTrifferentError(
            f"pruning left {len(current)} codewords; a trifferent code ends with at most 2"
        )
    return chain


def project(code: Code, i: int) -> Code:
    """Keep codewords with symbol 2 at coordinate i, then delete coordinate i.

    The input must be exactly r-bounded for some r >= 1; the output is then
    (r-1)-bounded with block length n-1.
    """
    if code.r_bound is None:
        raise ValueError("projection requires an exactly r-bounded code")
    if code.r_bound == 0:
        raise ValueError("cannot project a 0-bounded code (no symbol 2 anywhere)")
    if code.n == 1:
        raise ValueError("cannot project a code of block length 1")
    if not 0 <= i < code.n:
        raise ValueError(f"coordinate {i} out of range for length {code.n}")
    low = (1 << i) - 1
    words = []
    for w in code:
        if not (w.mask2 >> i) & 1:
            continue
        words.append(
            Codeword(
                n=code.n - 1,
                mask0=(w.mask0 & low) | ((w.mask0 >> (i + 1)) << i),
                mask1=(w.mask1 & low) | ((w.mask1 >> (i + 1)) << i),
                mask2=(w.mask2 & low) | ((w.mask2 >> (i + 1)) << i),
            )
        )
    return Code(code.n - 1, tuple(words))


def best_project(code: Code) -> int:
    """Coordinate whose projection keeps the most codewords (smallest on ties).

    Summed over all coordinates the kept sizes equal r * |C|, so the best
    coordinate keeps at least r/n * |C| codewords.
    """
    if code.r_bound is None:
        raise ValueError("projection requires an exactly r-bounded code")
    if code.r_bound == 0:
        raise ValueError("cannot project a 0-bounded code (no symbol 2 anywhere)")
    counts = [0] * code.n
    for w in code:
        for i in w.two_locations():
            counts[i] += 1
    best = 0
    for i in range(1, code.n):
        if counts[i] > counts[best]:
            best = i
    return best


def support_multiplicities(code: Code) -> dict[tuple[int, ...], int]:
    """How many codewords share each exact set of 2-locations.

    In a trifferent code no value exceeds 2: three codewords with the same
    2-set would need a separating coordinate outside it, where only symbols
    0 and 1 remain.
    """
    out: dict[tuple[int, ...], int] = {}
    for w in code:
        key = w.two_locations()
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# .triff file format
#
#   n=<int>         first line, block length
#   r=<int>         optional, before any codeword: every word has exactly r twos
#   # ...           comment lines, preserved on round trip
#   <codeword>      one word over 012 per line, no duplicates
#
# A trailing newline is required.  Parse errors carry 1-based line numbers.
# ---------------------------------------------------------------------------


def format_triff(code: Code) -> str:
    lines = [f"n={code.n}"]
    if code.r_bound is not None:
        lines.append(f"r={code.r_bound}")
    lines.extend(code.comments)
    lines.extend(w.string for w in code)
    return "\n".join(lines) + "\n"


def parse_triff(text: str) -> Code:
    if not text:
        raise TriffParseError(1, "empty input")
    if not text.endswith("\n"):
        raise TriffParseError(text.count("\n") + 1, "missing trailing newline")
    lines = text.split("\n")[:-1]
    first = lines[0]
    if not first.startswith("n=") or not first[2:].isdigit():
        raise TriffParseError(1, "first line must be 'n=<int>'")
    n = int(first[2:])
    if n < 1:
        raise TriffParseError(1, "block length must be positive")
    r_declared: int | None = None
    comments: list[str] = []
    words: list[Codeword] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            comments.append(line)
            continue
        if not line:
            raise TriffParseError(lineno, "blank line")
        if line.startswith("n="):
            raise TriffParseError(lineno, "duplicate n= line")
        if line.startswith("r="):
            if words:
                raise TriffParseError(lineno, "r= must precede all codewords")
            if r_declared is not None:
                raise TriffParseError(lineno, "duplicate r= line")
            if not line[2:].isdigit():
                raise TriffParseError(lineno, "r= must carry a nonnegative integer")
            r_declared = int(line[2:])
            if r_declared > n:
                raise TriffParseError(lineno, f"r={r_declared} exceeds block length {n}")
            continue
        if len(line) != n:
            raise TriffParseError(
                lineno, f"expected {n} symbols, got {len(line)}"
            )
        try:
            w = Codeword.from_string(line)
        except ValueError:
            raise TriffParseError(lineno, "codeword symbols must be 0, 1, or 2") from None
        if line in seen:
            raise TriffParseError(lineno, f"duplicate codeword {line}")
        seen.add(line)
        if r_declared is not None and w.count_twos != r_declared:
            raise TriffParseError(
                lineno,
                f"codeword has {w.count_twos} twos but the file declares r={r_declared}",
            )
        words.append(w)
    return Code(n, tuple(words), comments=tuple(comments))


def read_triff(path) -> Code:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_triff(fh.read())


def write_triff(code: Code, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_triff(code))
