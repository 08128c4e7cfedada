"""The verifier's two triple-scan kernels against a brute-force reference, its kernel choice, and its round-robin split."""

import contextlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trifference import core
from trifference.cli import run
from trifference.constructions import one_bounded, recursive_construction, triple_construction
from trifference.core import (
    Code,
    _column_counts,
    _scan_parts,
    _scan_plan,
    _scan_rows,
    _scan_stars,
    _scan_words,
    _symbol_matrix,
    naive_trifferent_triple,
    verify_trifferent,
    write_triff,
)


def brute_witness(code: Code):
    """Lex-smallest violating index triple by the coordinate-walking check."""
    for t in itertools.combinations(range(len(code)), 3):
        if not naive_trifferent_triple(*(code.codewords[i] for i in t)):
            return t
    return None


@st.composite
def small_codes(draw):
    # lengths on both sides of 64; a binary prefix leaves the last coordinate
    # as the only one that can separate a triple
    n = draw(st.integers(1, 70))
    prefix = draw(st.sampled_from(["01", "012"]))
    words = draw(
        st.lists(
            st.tuples(st.text(prefix, min_size=n - 1, max_size=n - 1), st.sampled_from("012")),
            max_size=12,
        ).map(lambda pairs: sorted({a + b for a, b in pairs}))
    )
    return Code.from_strings(words, n=n)


@settings(max_examples=300, deadline=None)
@given(small_codes(), st.integers(1, 4), st.integers(1, 4))
def test_row_scan_matches_brute_force(code, block, step):
    # rows dealt round-robin over any number of parts, as workers get them,
    # give one witness
    m = len(code)
    if m <= 2:
        return
    U = _symbol_matrix(code.strings(), code.n)
    found = {first: _scan_rows(U, first, step, block) for first in range(step)}
    assert all(w[0] % step == first for first, w in found.items() if w)
    assert min(filter(None, found.values()), default=None) == brute_witness(code)


@st.composite
def tied_codes(draw):
    # every coordinate shows all three symbols, the two rarest often equally
    # often, so that the rarest symbol is chosen by the tie rule
    m = draw(st.integers(3, 12))
    n = draw(st.integers(1, 10))
    rng = draw(st.randoms(use_true_random=False))
    columns = []
    for _ in range(n):
        rare = rng.randint(1, m // 3)
        counts = [rare, rare, m - 2 * rare]
        rng.shuffle(counts)
        column = [s for s, count in zip("012", counts) for _ in range(count)]
        rng.shuffle(column)
        columns.append(column)
    return Code.from_strings(sorted({"".join(w) for w in zip(*columns)}), n=n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_codes(), tied_codes()), st.integers(1, 4), st.sampled_from([0, None, 10**9]))
def test_star_scan_matches_brute_force(code, step, few):
    # few = 0 tests every candidate through the byte tables, 10**9 one by one
    words = "".join(code.strings())
    found = {first: _scan_stars(words, code.n, first, step, few) for first in range(step)}
    assert all(w[0] % step == first for first, w in found.items() if w)
    assert min(filter(None, found.values()), default=None) == brute_witness(code)


@contextlib.contextmanager
def forced(kernel):
    """verify_trifferent scans with this kernel, and splits even the smallest scan."""
    with mock.patch.object(core, "_scan_plan", lambda m, n, stars: (kernel, m)), mock.patch.object(
        core, "_MIN_PROCESS_WORK", 1
    ):
        yield


@settings(max_examples=20, deadline=None)
@given(small_codes())
def test_verify_matches_brute_force_for_any_worker_count(code):
    want = brute_witness(code)
    for kernel in (_scan_stars, _scan_words):
        with forced(kernel):
            for workers in (1, 2, 3):
                assert verify_trifferent(code, workers=workers).witness == want


@st.composite
def random_codes(draw):
    # 3 to 48 words; a binary prefix leaves few codes trifferent, a ternary
    # one of length 60 most
    n = draw(st.integers(4, 70))
    prefix = draw(st.sampled_from(["01", "012"]))
    rng = draw(st.randoms(use_true_random=False))
    size = draw(st.integers(3, 48))
    words = {
        "".join(rng.choice(prefix) for _ in range(n - 1)) + rng.choice("012")
        for _ in range(size)
    }
    return Code.from_strings(sorted(words), n=n)


@settings(max_examples=40, deadline=None)
@given(random_codes())
@example(one_bounded(20))  # trifferent
@example(one_bounded(21))
@example(Code.from_strings([*one_bounded(21).strings(), "1" * 21]))  # not trifferent
def test_star_kernel_matches_the_blas_scan(code):
    scan = _scan_rows(_symbol_matrix(code.strings(), code.n), 0, 1)
    assert _scan_stars("".join(code.strings()), code.n, 0, 1) == scan
    result = verify_trifferent(code)  # the kernel _scan_plan picks
    assert result.witness == scan
    assert result.ok == (scan is None)
    assert verify_trifferent(code, workers=2) == result
    for kernel in (_scan_stars, _scan_words):
        with forced(kernel):
            for workers in (1, 2):
                assert verify_trifferent(code, workers=workers) == result


def dense_code(m: int, n: int, seed: int) -> Code:
    """m distinct seeded random words of length n: each symbol about a third of each column."""
    rng = random.Random(seed)
    words: set = set()
    while len(words) < m:
        words.add("".join(rng.choice("012") for _ in range(n)))
    return Code.from_strings(sorted(words))


def test_dense_code_gives_one_witness_through_both_kernels():
    code = dense_code(200, 50, 14)
    want = _scan_rows(_symbol_matrix(code.strings(), code.n), 0, 1)
    assert want is not None and want[0] > 10  # not the first rows
    assert _scan_plan(200, 50, sum(map(min, _column_counts("".join(code.strings()), 50))))[0] is _scan_words
    for kernel in (_scan_stars, _scan_words):
        with forced(kernel):
            for workers in (1, 2, 3):
                assert verify_trifferent(code, workers=workers).witness == want


def test_only_the_last_coordinate_separates():
    assert verify_trifferent(Code.from_strings(["0" * 70, "0" * 69 + "1", "1" * 69 + "2"])).ok
    bad = Code.from_strings(["0" * 70, "0" * 69 + "1", "1" * 70])
    assert verify_trifferent(bad).witness == (0, 1, 2)


def plant_violation(code: Code, frac: float, rng: random.Random):
    """Add a word so that the first violating triple is (a, a+1, last), a = frac * |code|.

    New leading coordinates give the first a words distinct binary prefixes
    that each hold a 0, the rest all ones, and the new word all twos; its tail
    mixes the words at ranks a and a+1, so nothing separates those three.
    """
    strings = [w.string for w in code.codewords]
    a = int(frac * len(strings))
    k = a.bit_length()
    z = "".join(rng.choice(pair) for pair in zip(strings[a], strings[a + 1]))
    planted = Code.from_strings(
        [format(i, f"0{k}b") + s for i, s in enumerate(strings[:a])]
        + ["1" * k + s for s in strings[a:]]
        + ["2" * k + z]
    )
    return planted, (a, a + 1, len(strings))


@pytest.mark.parametrize("frac", [0.1, 0.6])
def test_planted_violation_keeps_its_witness(frac, monkeypatch):
    monkeypatch.setattr(core, "_MIN_PROCESS_WORK", 1)
    base = triple_construction(5, one_bounded(15))
    planted, witness = plant_violation(base, frac, random.Random(3))
    for workers in (1, 2):
        assert verify_trifferent(planted, workers=workers).witness == witness
    assert not naive_trifferent_triple(*(planted.codewords[i] for i in witness))


def row_work(m, rows):
    return sum((m - 1 - i) ** 2 for i in rows)


def plan_of(code: Code):
    return _scan_plan(len(code), code.n, sum(map(min, _column_counts("".join(code.strings()), code.n))))[0]


def test_constructed_codes_take_the_star_kernel():
    for n in range(1, 121):
        assert plan_of(one_bounded(n)) is _scan_stars
    for q in (2, 3, 5, 7, 11):
        code = triple_construction(q, one_bounded((q * q + q + 1) // 2))
        assert plan_of(code) is _scan_stars
        words = random.Random(q).sample(code.strings(), len(code) // 3)
        assert plan_of(Code.from_strings(words)) is _scan_stars
    for t, target in itertools.product((1, 2, 3), (10, 30, 100, 400)):
        assert plan_of(recursive_construction(t, target)) is _scan_stars


@pytest.mark.parametrize("m", [200, 300, 500])
def test_dense_codes_of_200_words_take_blas(m):
    for n in (10, 30, 100, 198):
        assert plan_of(dense_code(m, n, m + n)) is _scan_words


class TestScanPlan:
    def test_split_by_triple_count(self):
        # each part's rows hold the mean share of the work to within the first
        # row's work, and the shares add up to the closed form
        for m, parts in [(500, 2), (500, 3), (1452, 4), (5, 3), (41, 7)]:
            shares = [row_work(m, range(p, m - 2, parts)) for p in range(parts)]
            assert sum(shares) == row_work(m, range(m - 2)) == (m - 1) * m * (2 * m - 1) // 6 - 1
            assert all(abs(parts * s - sum(shares)) <= parts * (m - 1) ** 2 for s in shares)
        assert _scan_parts(500, 198, 2, 2) == 2

    def test_pool_is_capped_by_cpus_and_rows(self):
        assert _scan_parts(500, 198, 1000, 2) == 2
        assert _scan_parts(500, 198, 3, 64) == 3
        assert _scan_parts(5, 10**9, 1000, 64) == 3
        assert _scan_parts(3, 10**9, 4, 4) == 1
        assert _scan_parts(40, 10**9, 1, 8) == 1

    def test_small_scans_stay_serial(self):
        # the q = 7 triple code with a planted word: ~0.1 s of scanning
        assert _scan_parts(393, 88, 2, 2) == 1
        assert _scan_parts(500, 198, 64, 64) == 4

    @pytest.mark.parametrize("n", [84, 198])
    def test_plan_matches_the_numpy_plan(self, n):
        np = pytest.importorskip("numpy")

        def numpy_plan(m, workers, cpus):
            # the contiguous split by work as first written, with cumsum and
            # searchsorted
            rows = m - 2
            work = np.concatenate(([0], np.cumsum((m - 1 - np.arange(rows)) ** 2)))
            parts = max(1, min(workers, cpus, rows, int(work[-1]) * n // core._MIN_PROCESS_WORK))
            cuts = np.searchsorted(work, [work[-1] * t // parts for t in range(1, parts)])
            bounds = sorted({0, rows, *(int(c) for c in cuts)})
            return list(zip(bounds, bounds[1:]))

        for m in [*range(3, 1453, 13), 393, 500, 1452]:
            for workers, cpus in itertools.product(range(1, 5), repeat=2):
                assert _scan_parts(m, n, workers, cpus) == len(numpy_plan(m, workers, cpus))

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError):
            verify_trifferent(one_bounded(3), workers=0)

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_cli_rejects_bad_worker_counts(self, tmp_path, value):
        path = tmp_path / "c.triff"
        write_triff(one_bounded(3), path)
        assert run(["verify", str(path), "--workers", value]) == 2
