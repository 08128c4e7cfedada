"""Ternary codewords held as strings, trifference checks, and code transforms.

A code C over {0,1,2} is trifferent when every triple of distinct codewords
has a coordinate at which the three words take all three symbols.  A
codeword is its string over 012: words compare and hash by it, Code sorts
by it, the transforms (prune, project) and the constructions slice and join
strings and build codes through Code.from_strings, and the kernels below
read the codes' joined strings.

The verifier's triple scan (_scan_stars) works on big-int bitsets: a
separating coordinate needs one word of the triple on that coordinate's
rarest symbol, so each pair of words is checked at those coordinates only.
That suits every code this package constructs, whose rarest symbols are
rare.  One plan (_scan_plan) picks the number of processes from the code's
size, how often its words hold each coordinate's rarest symbol, and the
CPUs at hand.  verify_trifferent scans every row in one process, or deals
the rows round-robin to processes forked as the search forks (_fork,
_stop).  It forks only for a scan long enough to repay the second process,
so codes the size of the q = 7 code, and early violations in them, are
scanned in one process whatever --workers says.

Shift sampling counts on big ints too: each word owns a few bits of one
integer per coordinate and symbol, and sums of those integers, precomputed
for blocks of three coordinates, count the twos of every shifted word at
once (shift_density_sample).  fractions and struct are imported inside
shift sampling, so every other command starts without them.

Sampled shift vectors are drawn from the Mersenne Twister 64 bits per
symbol at a time.  One byte table turns the top byte of each draw into its
symbol, and the two bytes in 256 that straddle 1/3 or 2/3 are resolved
exactly, giving exactly the symbols, and leaving the generator in exactly
the state, of one random.choices draw per symbol (_sampled_shifts).
"""

from __future__ import annotations

import itertools
import marshal
import math
import os
from functools import reduce
from operator import add, getitem, or_
from random import Random
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

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

# The six columns (a, b, c) that show all three symbols.
_ORDERINGS = frozenset(itertools.permutations("012"))

# A bytes.translate table from the sum of the bytes of two symbols a and b
# ("0" + "0" is 96, "2" + "2" is 100) to the byte of (a + b) mod 3.
_SUM_MOD_3 = bytes.maketrans(bytes(range(96, 101)), b"01201")

# Maps the bytes of "0", "1" and "2" to 0, 1 and 2, so that a word's bytes
# index per-coordinate tables by symbol.
_SYMBOL_BYTES = bytes.maketrans(b"012", b"\x00\x01\x02")


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, in increasing order."""
    bits = []
    while mask:
        lsb = mask & -mask
        bits.append(lsb.bit_length() - 1)
        mask ^= lsb
    return bits


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
    """A length-n word over {0,1,2}, held as its string.

    Coordinate i holds the symbol string[i].  Two words are equal, and hash
    alike, when their strings are.  Words are built by from_string, which
    rejects any other symbol.
    """

    _fields = ("n", "string")

    # the string fixes n, so it alone decides equality
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.string == other.string

    def __hash__(self) -> int:
        return hash(self.string)

    @classmethod
    def from_string(cls, s: str) -> "Codeword":
        if not s:
            raise ValueError("codeword string must be nonempty")
        if s.strip("012"):  # any other symbol survives the strip
            raise ValueError(f"invalid symbols in codeword {s!r}")
        word = cls.__new__(cls)
        word.__dict__.update(n=len(s), string=s)
        return word

    def __str__(self) -> str:
        return self.string

    def symbol(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate {i} out of range for length {self.n}")
        return int(self.string[i])

    @property
    def count_twos(self) -> int:
        return self.string.count("2")

    def two_locations(self) -> tuple[int, ...]:
        """Sorted coordinates where the word has symbol 2."""
        return tuple(i for i, s in enumerate(self.string) if s == "2")


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

    def _subcode(self, words) -> "Code":
        """The code of `words`, a sublist of self.codewords in their order.

        Such words are sorted, distinct and of length n already, so the sort
        and the checks of __init__ are skipped, and r_bound is self's unless
        self has none.  The subcode has no comments.
        """
        r_bound = self.r_bound if words else None
        if r_bound is None and words:
            two_counts = {w.count_twos for w in words}
            r_bound = two_counts.pop() if len(two_counts) == 1 else None
        code = Code.__new__(Code)
        code.__dict__.update(n=self.n, codewords=tuple(words), comments=(), r_bound=r_bound)
        return code

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
    if x.string == y.string or y.string == z.string or x.string == z.string:
        raise ValueError("triple check requires three distinct codewords")


def is_trifferent_triple(x: Codeword, y: Codeword, z: Codeword) -> bool:
    """True iff some coordinate sees all three symbols across x, y, z.

    Each column (x_i, y_i, z_i) is looked up among the six orderings of
    012.
    """
    _check_triple_args(x, y, z)
    return not _ORDERINGS.isdisjoint(zip(x.string, y.string, z.string))


def naive_trifferent_triple(x: Codeword, y: Codeword, z: Codeword) -> bool:
    """Reference check walking coordinates symbol by symbol.

    Compares the symbols pairwise, kept deliberately independent of
    is_trifferent_triple's lookup; the two must agree on every input.
    """
    _check_triple_args(x, y, z)
    return any(
        a != b and b != c and a != c
        for a, b, c in zip(x.string, y.string, z.string)
    )


def _column_counts(words: str, n: int):
    """For each coordinate, how many of the words hold 0, 1 and 2 there.

    The words are joined in one string, each n long.
    """
    m = len(words) // n
    for c in range(n):
        column = words[c::n]
        zeros, ones = column.count("0"), column.count("1")
        yield zeros, ones, m - zeros - ones


def _scan_stars(
    words: str, n: int, rows: range, few: int | None = None
) -> tuple[int, int, int] | None:
    """Lex-smallest violating triple (i, j, k) with i in rows, else None.

    The words are joined in one string, each n long, and rows is an
    increasing range of row indices.  The scan works on big-int bitsets.

    Let s*(c) be the rarest symbol at coordinate c (the smallest on ties),
    and call c a star of word u when u holds s*(c) there.  Z_u is the set of
    u's stars, and A_u and B_u are the coordinates where u holds the smaller
    and the larger of the two other symbols.  Three words show all three
    symbols at c exactly when one of them has a star there and the other two
    hold the two other symbols.  So a triple i < j < k is separated at c in
    one of two ways:

    - c is a star of i, and j and k hold the two other symbols.  j's symbol
      b at c then names k's: thirds[c][b] is the plane of the words holding
      3 - s*(c) - b there (0 when b = s*(c)).  The same holds with i and j
      swapped.  The OR of these over Z_i and Z_j is every k separated from
      (i, j) at a star of i or j: search._pair_compat_masks's formula on
      those coordinates only, |Z_i| + |Z_j| lookups.
    - c is a star of k, and i and j hold the two other symbols there: Z_k
      meets D = (A_i & B_j) | (B_i & A_j).

    Each k > j that the first bitset misses is tested against D.  Up to
    `few` of them are tested one by one; more are tested at once through
    byte tables, where tables[b][x] ORs the star planes of the coordinates
    8b + t for the bits t of x, so that one lookup per byte of D gives every
    word with a star in D.  By default `few` is 2 plus half the bytes of D,
    about where the two tests cost the same.  The tables take about 4 m n
    bytes for m words.

    The pairs make (m - 1) * sum_u |Z_u| lookups in all, so the scan is
    fastest when stars are rare.  An r-bounded code of m words holds at most
    r * m of them, as no coordinate's rarest symbol is more common there
    than 2; a random code holds nearly n / 3 per word.  Rows, pairs and
    candidates go in order, so the first unseparated triple found is the
    lex-smallest with i in rows.
    """
    m = len(words) // n
    if not rows:
        return None
    symbols = words.encode("ascii").translate(_SYMBOL_BYTES)
    word = [symbols[u : u + n] for u in range(0, m * n, n)]
    thirds, star_planes = [], []
    rare = [0, 0, 0]  # rare[s]: the coordinates whose rarest symbol is s
    for c, counts in enumerate(_column_counts(words, n)):
        star = counts.index(min(counts))
        rare[star] |= 1 << c
        column = words[c::n][::-1]  # bit u is word u
        planes = [int(column.translate(table), 2) for table in _PLANE_TABLES]
        star_planes.append(planes[star])
        thirds.append([planes[3 - star - b] if b != star else 0 for b in range(3)])
    r0, r1, r2 = rare
    Z, A, B = [], [], []
    for u in range(0, m * n, n):
        reverse = words[u : u + n][::-1]  # bit c is coordinate c
        m0, m1, m2 = (int(reverse.translate(table), 2) for table in _PLANE_TABLES)
        Z.append((m0 & r0) | (m1 & r1) | (m2 & r2))
        A.append((m1 & r0) | (m0 & (r1 | r2)))
        B.append((m2 & (r0 | r1)) | (m1 & r2))
    anchors = [_set_bits(z) for z in Z]
    width = (n + 7) // 8
    star_planes += [0] * (8 * width - n)
    tables = []
    for b in range(0, 8 * width, 8):
        table = [0]
        for plane in star_planes[b : b + 8]:
            table += [x | plane for x in table]
        tables.append(table)
    if few is None:
        few = 2 + width // 2
    everyone = (1 << m) - 1
    through = [(2 << j) - 1 for j in range(m)]  # the words 0..j
    for i in rows:
        A_i, B_i = A[i], B[i]
        # k's separated from (i, j) at a star c of j, given i's symbol at c
        third_of_i = list(map(getitem, thirds, word[i]))
        own = [(c, thirds[c]) for c in anchors[i]]
        for j in range(i + 1, m - 1):
            separated = through[j]
            word_j = word[j]
            for c, third in own:
                separated |= third[word_j[c]]
            for c in anchors[j]:
                separated |= third_of_i[c]
            if separated == everyone:
                continue
            rest = everyone ^ separated
            D = (A_i & B[j]) | (B_i & A[j])
            if rest.bit_count() <= few:
                for k in _set_bits(rest):
                    if not Z[k] & D:
                        return (i, j, k)
            else:
                rest &= ~reduce(or_, map(getitem, tables, D.to_bytes(width, "little")))
                if rest:
                    return (i, j, (rest & -rest).bit_length() - 1)
    return None


# The star scan's costs per pair of words and per star lookup (a little
# more as the bitsets widen), in work units fitted to full scans of
# constructed and random codes (16 to 1,452 words, 8 to 200 coordinates) on
# a 2-vCPU Xeon, where the scan runs at 13-14 ps per unit.
_STAR_PAIR_WORK = 57_000
_STAR_LOOKUP_WORK = 3_300

# The work, in units, at which a second process breaks even on a shared
# 2-vCPU Xeon: it builds its own bitsets and tables and competes for the
# CPUs, so the q = 7 code and planted violations in it (about 1.5 times
# this) scan no faster in two processes, and 500-word q = 11 subsets (about
# 2.5 times) do.  work // _MIN_PROCESS_WORK processes share a scan.
_MIN_PROCESS_WORK = 4 * 10**9


def _usable_cpus() -> int:
    """The CPUs this process may run on, which taskset can make fewer than the machine has."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fork(k: int):
    """Fork k - 1 children: (p, pipe, []) in child p, (0, None, children) in the parent.

    children is the parent's (pid, pipe) per child, in order, and only the
    parent reads a child's pipe, so its death breaks every child's next
    write.  Where os.fork is missing, or os.pipe or os.fork fails, the
    children made so far are killed and the parent goes on alone, with no
    children.
    """
    children: list = []
    for p in range(1, k if hasattr(os, "fork") else 1):
        ends = ()
        try:
            ends = read_end, write_end = os.pipe()
            pid = os.fork()
        except OSError:  # no file or process to spare
            for end in ends:
                os.close(end)
            _stop(children)
            break
        if pid == 0:
            os.close(read_end)
            for _, pipe in children:
                pipe.close()
            return p, open(write_end, "wb"), []
        os.close(write_end)
        children.append((pid, open(read_end, "rb")))
    return 0, None, children


def _stop(children: list) -> None:
    """Kill and reap every child that _fork made, and close its pipe."""
    if not children:
        return
    import signal  # costs every start ~1 ms, so import on use

    for pid, pipe in children:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pipe.close()
    children.clear()


def _scan_plan(m: int, stars: int, workers: int, cpus: int) -> int:
    """How many processes scan m words that hold `stars` stars in all.

    Row i costs m - 1 - i pairs, so dealing the rows round-robin gives every
    part the mean share of the work to within the first row's cost.  There
    are at most min(workers, cpus, m - 2) parts, and one unless each gets
    _MIN_PROCESS_WORK of the work, the break-even of a second process: the
    q = 7 code and codes of its size scan in one process, a 500-word subset
    of the q = 11 code in two.
    """
    # |Z_i| + |Z_j| summed over the pairs i < j is (m - 1) * stars
    work = m * (m - 1) // 2 * _STAR_PAIR_WORK + (m - 1) * stars * (_STAR_LOOKUP_WORK + m)
    return max(1, min(workers, cpus, m - 2, work // _MIN_PROCESS_WORK))


def verify_trifferent(code: Code, workers: int = 1) -> VerificationResult:
    """Check every codeword triple; codes of size at most 2 pass vacuously.

    _scan_plan picks how many processes share the star scan (_scan_stars):
    at most one per CPU this process may run on, and only one for a small
    scan.  Memory stays at O(m*n + m^2) bits for m words of length n.  One
    process scans every row; of k processes, process p scans rows p, p + k,
    p + 2k, ...  The parent is process 0, and forks the others (_fork), which
    each send their first witness, or None, down a pipe.  It scans the rows
    of a child that died itself, and all of them when it could not fork.
    The smallest witness is the lexicographically smallest violating index
    triple into the sorted codeword list, whatever the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    m, n = len(code), code.n
    joined = "".join(code.strings())
    parts = _scan_plan(m, sum(map(min, _column_counts(joined, n))), workers, _usable_cpus())
    me, to_parent, children = _fork(parts)
    if me:  # a child never returns to the caller
        try:
            to_parent.write(marshal.dumps(_scan_stars(joined, n, range(me, m - 2, parts))))
            to_parent.close()
        finally:
            os._exit(0)
    parts = len(children) + 1
    try:
        found = [_scan_stars(joined, n, range(0, m - 2, parts))]
        for p, (_, pipe) in enumerate(children, 1):
            try:
                found.append(marshal.load(pipe))
            except (EOFError, ValueError):  # the child died
                found.append(_scan_stars(joined, n, range(p, m - 2, parts)))
    finally:
        _stop(children)
    witness = min((t for t in found if t is not None), default=None)
    return VerificationResult(TRIFFERENT if witness is None else NOT_TRIFFERENT, witness)


def _require_trifferent(code: Code, what: str) -> None:
    """Raise NotTrifferentError, naming code as `what`, unless code is trifferent."""
    result = verify_trifferent(code)
    if not result.ok:
        raise NotTrifferentError(f"{what} is not trifferent (witness {result.witness})")


def count_A_r(n: int, r: int) -> int:
    """Size of the layer of length-n words with exactly r twos: C(n,r) * 2^(n-r)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    return math.comb(n, r) * 2 ** (n - r)


def add_codewords(x: Codeword, v: Codeword) -> Codeword:
    """Coordinatewise sum mod 3."""
    if x.n != v.n:
        raise ValueError("length mismatch in codeword addition")
    sums = bytes(map(add, x.string.encode(), v.string.encode()))
    return Codeword.from_string(sums.translate(_SUM_MOD_3).decode())


def shift(code: Code, v: Codeword) -> Code:
    """Translate every codeword by v (mod 3).  Preserves size and trifference."""
    if v.n != code.n:
        raise ValueError("shift vector length must match the block length")
    return Code(code.n, tuple(add_codewords(x, v) for x in code))


# The symbol floor(3 * random()) for each top byte t of a draw's first output,
# which puts random() in [t/256, (t+1)/256); 3 marks the bytes 0x55 and 0xAA,
# whose ranges hold 1/3 and 2/3.
_TOP_BYTE_SYMBOLS = bytes(3 if t in (0x55, 0xAA) else 3 * t // 256 for t in range(256))
# The one N at which floor(N * 2**-53 * 3.0) exceeds (3 * N) >> 53: 3 * N is
# then 2**54 - 1, which needs 54 bits, and a float64 rounds it to 2**54.
_ROUNDS_UP = (2**54 - 1) // 3


def _sampled_shifts(n: int, trials: int, rng: Random):
    """Seeded shift vectors as bytes of symbols 0/1/2, at most 128 rows at a time.

    The symbols are exactly those of rng.choices("012", k=trials * n), and
    rng is left in the same state.  choices draws each symbol as
    floor(random() * 3.0), and random() takes the next two 32-bit outputs a
    and b of the Mersenne Twister and returns N * 2**-53 with
    N = (a >> 5) * 2**26 + (b >> 6).  rng.getrandbits(64 * t) takes the same
    2t outputs in the same order and puts the first in the least significant
    32 bits, so its little-endian bytes are a and b of each of t symbols in
    turn, and byte 3 of each 8 is the top byte of a, which is the top byte
    of N.  That byte fixes the symbol except at 0x55 and 0xAA, where the
    symbol is computed from N itself.
    """
    import struct

    for done in range(0, trials, 128):
        t = min(128, trials - done) * n
        draws = rng.getrandbits(64 * t).to_bytes(8 * t, "little")
        symbols = draws[3::8].translate(_TOP_BYTE_SYMBOLS)
        at = symbols.find(3)
        if at >= 0:
            symbols = bytearray(symbols)
            while at >= 0:
                a, b = struct.unpack_from("<2I", draws, 8 * at)
                N = (a >> 5) << 26 | b >> 6
                symbols[at] = 2 if N == _ROUNDS_UP else 3 * N >> 53
                at = symbols.find(3, at + 1)
        yield bytes(symbols)


def _all_shifts(n: int):
    """All 3^n shift vectors in lexicographic order, as bytes of at most 3^7 rows."""
    t = min(n, 7)
    tails = [bytes(tail) for tail in itertools.product(range(3), repeat=t)]
    for head in itertools.product(range(3), repeat=n - t):
        yield b"".join(map(bytes(head).__add__, tails))


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
    import struct
    from fractions import Fraction

    n = code.n
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    _require_trifferent(code, "input")
    expectation = Fraction(count_A_r(n, r) * len(code), 3**n)
    if exhaustive:
        trials, seed, shifts = 3**n, None, _all_shifts(n)
    else:
        if trials < 1:
            raise ValueError("trials must be positive")
        if seed is None:
            raise ValueError("sampling mode requires an explicit seed")
        shifts = _sampled_shifts(n, trials, Random(seed))
    m = len(code)
    # Word u owns the w bits from w * u in each plane, the fields holding
    # counts up to n with the top bit clear.  int() turns each base-2**d
    # digit of a string into d bits, so w is a multiple of d.
    w, d = min((-(-(n.bit_length() + 1) // d) * d, d) for d in (3, 4))
    field = "0" * (w // d - 1)
    spread = [str.maketrans({t: field + "01"[t == s] for t in "012"}) for s in "012"]
    words = "".join(code.strings())
    # planes[c][s]: the words holding s at c, word 0 in the lowest field
    planes = [[int(words[c::n][::-1].translate(t) or "0", 2**d) for t in spread] for c in range(n)]
    # x + v holds a 2 at c where x holds (2 - v_c) mod 3, so one sum of
    # planes counts the twos of every word; sum them ahead for every pattern
    # of each block of three coordinates
    blocks = [range(c, min(c + 3, n)) for c in range(0, n, 3)]
    tables = [
        {
            bytes(v): sum(planes[c][(2 - s) % 3] for c, s in zip(block, v))
            for v in itertools.product(range(3), repeat=len(block))
        }
        for block in blocks
    ]
    row = "".join(f"{len(block)}s" for block in blocks)
    # XOR zeroes the fields equal to r; adding 2**(w-1) - 1 then sets the
    # top bit of every field but those
    ones = ((1 << w * m) - 1) // ((1 << w) - 1)
    rs, low, tops = r * ones, ((1 << w - 1) - 1) * ones, (1 << w - 1) * ones
    total = 0
    max_count = 0
    for rows in shifts:
        misses = [
            (((sum(map(dict.__getitem__, tables, keys)) ^ rs) + low) & tops).bit_count()
            for keys in struct.iter_unpack(row, rows)
        ]
        total += m * len(misses) - sum(misses)
        max_count = max(max_count, m - min(misses))
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
    chain = [code._subcode(code.codewords)]
    current = list(code.codewords)
    for coord in range(code.n):
        column = "".join([w.string[coord] for w in current])
        counts = [column.count(s) for s in "012"]
        least = "012"[counts.index(min(counts))]  # index() takes the smallest symbol on ties
        current = [w for w, s in zip(current, column) if s != least]
        chain.append(chain[-1]._subcode(current))
    if len(current) > 2:
        raise NotTrifferentError(
            f"pruning left {len(current)} codewords; a trifferent code ends with at most 2"
        )
    return chain


def _require_projectable(code: Code) -> None:
    """Raise unless every word of code has the same number r >= 1 of twos."""
    if code.r_bound is None:
        raise ValueError("projection requires an exactly r-bounded code")
    if code.r_bound == 0:
        raise ValueError("cannot project a 0-bounded code (no symbol 2 anywhere)")


def project(code: Code, i: int) -> Code:
    """Keep codewords with symbol 2 at coordinate i, then delete coordinate i.

    The input must be exactly r-bounded for some r >= 1; the output is then
    (r-1)-bounded with block length n-1.
    """
    _require_projectable(code)
    if code.n == 1:
        raise ValueError("cannot project a code of block length 1")
    if not 0 <= i < code.n:
        raise ValueError(f"coordinate {i} out of range for length {code.n}")
    kept = [s[:i] + s[i + 1 :] for s in code.strings() if s[i] == "2"]
    return Code.from_strings(kept, n=code.n - 1)


def best_project(code: Code) -> int:
    """Coordinate whose projection keeps the most codewords (smallest on ties).

    Summed over all coordinates the kept sizes equal r * |C|, so the best
    coordinate keeps at least r/n * |C| codewords.
    """
    _require_projectable(code)
    joined = "".join(code.strings())
    counts = [joined[c :: code.n].count("2") for c in range(code.n)]
    return counts.index(max(counts))


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


def _is_digits(text: str) -> bool:
    """Whether text is a nonempty run of ASCII digits, which int() reads as written.

    str.isdigit alone also accepts digits such as '²', which int() rejects,
    and '٣', which it reads as 3.
    """
    return text.isascii() and text.isdigit()


def parse_triff(text: str) -> Code:
    if not text:
        raise TriffParseError(1, "empty input")
    if not text.endswith("\n"):
        raise TriffParseError(text.count("\n") + 1, "missing trailing newline")
    lines = text.split("\n")[:-1]
    first = lines[0]
    if not first.startswith("n=") or not _is_digits(first[2:]):
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
            if not _is_digits(line[2:]):
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
