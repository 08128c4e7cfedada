"""The verifier's star scan against a brute-force reference, its process plan, and its round-robin split."""

import contextlib
import errno
import itertools
import json
import marshal
import os
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
    _scan_plan,
    _scan_stars,
    naive_trifferent_triple,
    verify_trifferent,
    write_triff,
)

from test_search import _no_child_left


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
    words, m = "".join(code.strings()), len(code)
    found = {first: _scan_stars(words, code.n, range(first, m - 2, step), few) for first in range(step)}
    assert all(w[0] % step == first for first, w in found.items() if w)
    assert min(filter(None, found.values()), default=None) == brute_witness(code)


@contextlib.contextmanager
def forced():
    """verify_trifferent splits even the smallest scan over its workers."""
    with mock.patch.object(core, "_scan_plan", lambda m, stars, workers, cpus: max(1, min(workers, m - 2))):
        yield


@settings(max_examples=20, deadline=None)
@given(small_codes())
def test_verify_matches_brute_force_for_any_worker_count(code):
    want = brute_witness(code)
    with forced():
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
def test_star_kernel_matches_brute_force_on_larger_codes(code):
    want = brute_witness(code)
    assert _scan_stars("".join(code.strings()), code.n, range(len(code) - 2)) == want
    result = verify_trifferent(code)
    assert result.witness == want
    assert result.ok == (want is None)
    assert verify_trifferent(code, workers=2) == result
    with forced():
        for workers in (1, 2):
            assert verify_trifferent(code, workers=workers) == result


def dense_code(m: int, n: int, seed: int) -> Code:
    """m distinct seeded random words of length n: each symbol about a third of each column."""
    rng = random.Random(seed)
    words: set = set()
    while len(words) < m:
        words.add("".join(rng.choice("012") for _ in range(n)))
    return Code.from_strings(sorted(words))


def stars_of(code: Code) -> int:
    """How many stars the words of code hold in all, as _scan_plan counts them."""
    return sum(map(min, _column_counts("".join(code.strings()), code.n)))


def parts_of(code: Code, workers: int = 1, cpus: int = 1) -> int:
    """How many processes verify_trifferent scans code in."""
    return _scan_plan(len(code), stars_of(code), workers, cpus)


def test_dense_codes_give_one_witness_at_every_worker_count():
    # the witnesses that an earlier BLAS triple scan gave these codes; the
    # trifferent one is the dense code CI verifies
    for code, want in [(dense_code(200, 50, 14), (11, 48, 171)), (dense_code(200, 100, 7), None)]:
        with forced():
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


def row_work(m, rows, power):
    """Pairs (power 1) or triples, about (power 2), that the rows start."""
    return sum((m - 1 - i) ** power for i in rows)


def test_constructed_codes_hold_few_stars():
    # the star scan's lookups grow with the stars, and an r-bounded code
    # holds at most r of them per word on average, where a random code holds
    # nearly n / 3
    for n in range(1, 121):
        assert stars_of(one_bounded(n)) <= 2 * n
    for q in (2, 3, 5, 7, 11):
        code = triple_construction(q, one_bounded((q * q + q + 1) // 2))
        assert stars_of(code) <= 3 * len(code)
        words = random.Random(q).sample(code.strings(), len(code) // 3)
        assert stars_of(Code.from_strings(words)) <= 3 * len(words)
    for t, target in itertools.product((1, 2, 3), (10, 30, 100, 400)):
        code = recursive_construction(t, target)
        assert stars_of(code) <= 3**t * len(code)
    assert stars_of(dense_code(200, 100, 7)) > 25 * 200


class TestScanPlan:
    def test_split_by_triple_count(self):
        # each part's rows start the mean share of the pairs _scan_plan counts,
        # and of the triples behind them, to within the first row's, and the
        # shares add up to the closed forms
        closed = {1: lambda m: m * (m - 1) // 2 - 1, 2: lambda m: (m - 1) * m * (2 * m - 1) // 6 - 1}
        for (m, parts), power in itertools.product([(500, 2), (500, 3), (1452, 4), (5, 3), (41, 7)], (1, 2)):
            shares = [row_work(m, range(p, m - 2, parts), power) for p in range(parts)]
            assert sum(shares) == row_work(m, range(m - 2), power) == closed[power](m)
            assert all(abs(parts * s - sum(shares)) <= parts * (m - 1) ** power for s in shares)
        # 500 dense words of length 198 hold up to 198 * 166 stars
        assert _scan_plan(500, 198 * 166, 2, 2) == 2

    def test_parts_are_capped_by_cpus_and_rows(self):
        assert _scan_plan(500, 198 * 166, 1000, 2) == 2
        assert _scan_plan(500, 198 * 166, 3, 64) == 3
        assert _scan_plan(5, 10**9, 1000, 64) == 3
        assert _scan_plan(3, 10**9, 4, 4) == 1
        assert _scan_plan(40, 13 * 10**9, 1, 8) == 1
        q11 = triple_construction(11, one_bounded(66))
        assert parts_of(q11, 64, 64) == 22

    def test_parts_are_capped_by_the_cpus_this_process_may_run_on(self, monkeypatch):
        # as under taskset -c 0 on a machine of 64 CPUs
        forked = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(core, "_MIN_PROCESS_WORK", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        code = Code.from_strings([*one_bounded(21).strings(), "1" * 21])
        want = verify_trifferent(code)
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert verify_trifferent(code, workers=2) == want
        assert len(forked) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert verify_trifferent(code, workers=2) == want
        # without sched_getaffinity the machine's count is all there is
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert verify_trifferent(code, workers=2) == want
        assert len(forked) == 1

    def test_small_scans_stay_serial(self):
        # less than 2 * _MIN_PROCESS_WORK of work
        small = [one_bounded(66), one_bounded(120), triple_construction(5, one_bounded(15))]
        for code in [*small, dense_code(200, 50, 14), dense_code(200, 100, 7)]:
            assert parts_of(code, 64, 64) == 1

    def test_only_the_benchmark_subset_repays_a_second_process(self):
        # the codes perfbench verifies: the q = 7 code and planted violations
        # in it (about 1.5 times _MIN_PROCESS_WORK of the star kernel's work)
        # scan in one process, 500-word q = 11 subsets (about 2.5 times) in two
        q7 = triple_construction(7, one_bounded(28))
        q11 = triple_construction(11, one_bounded(66))
        subsets = [Code(q11.n, tuple(random.Random(seed).sample(q11.codewords, 500))) for seed in (1, 2)]
        planted = [
            plant_violation(q7, frac, random.Random(seed))[0]
            for seed, frac in itertools.product((1, 2), (0.1, 0.6))
        ]
        assert {(len(code), code.n) for code in planted} == {(393, 90), (393, 92)}
        for code in subsets:
            assert parts_of(code, 2, 2) == 2
        for code in [q7, *planted]:
            assert parts_of(code, 2, 2) == 1
        for code in [q7, *planted, *subsets]:
            assert parts_of(code, 2, 1) == parts_of(code, 1, 2) == 1

    def test_early_violation_forks_no_child(self, tmp_path, monkeypatch, capsys):
        # perfbench's planted-early code at --workers 2 on two CPUs
        def no_fork():
            raise AssertionError("forked a child")

        q7 = triple_construction(7, one_bounded(28))
        planted, witness = plant_violation(q7, 0.1, random.Random(1))
        write_triff(planted, tmp_path / "planted-early.triff")
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "planted-early.triff", "--workers", "2", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["witness"] == list(witness)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError):
            verify_trifferent(one_bounded(3), workers=0)

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_cli_rejects_bad_worker_counts(self, tmp_path, value):
        path = tmp_path / "c.triff"
        write_triff(one_bounded(3), path)
        assert run(["verify", str(path), "--workers", value]) == 2


def child_scanned_codes():
    """Codes whose witnesses lie in the rows of child 1 of 2 and of each child of 3, and a trifferent one."""
    base = triple_construction(5, one_bounded(15))
    planted = [plant_violation(base, frac, random.Random(3)) for frac in (0.61, 0.634)]
    assert [(witness[0] % 2, witness[0] % 3) for _, witness in planted] == [(1, 1), (1, 2)]
    return [*planted, (base, None)]


def test_a_dead_child_costs_time_not_the_result(monkeypatch):
    codes = child_scanned_codes()

    def die(value):
        raise RuntimeError("child died")

    monkeypatch.setattr(marshal, "dumps", die)  # each child dies before it sends its witness
    with forced():
        for (code, want), workers in itertools.product(codes, (2, 3)):
            assert verify_trifferent(code, workers=workers).witness == want
    _no_child_left()


def test_a_failed_fork_scans_in_one_process(monkeypatch):
    codes = child_scanned_codes()
    tried = []
    fork = os.fork

    def second_fails():
        # the first child of a three-process scan is made, the second is not
        tried.append(1)
        if len(tried) % 2 == 0:
            raise OSError("no process to spare")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    with forced():
        for code, want in codes:
            assert verify_trifferent(code, workers=3).witness == want
        assert tried == [1] * 6
        _no_child_left()
        monkeypatch.delattr(os, "fork")
        for code, want in codes:
            assert verify_trifferent(code, workers=2).witness == want


def test_a_failed_pipe_scans_in_one_process(monkeypatch):
    codes = child_scanned_codes()
    made = []
    pipe = os.pipe

    def second_fails():
        # the first child of a three-process scan is made, the second has no pipe
        made.append(1)
        if len(made) % 2 == 0:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", second_fails)
    with forced():
        for code, want in codes:
            assert verify_trifferent(code, workers=3).witness == want
            _no_child_left()
    assert made == [1] * 6


def test_no_child_outlives_a_verify(monkeypatch):
    _no_child_left()
    (code, want), *_ = child_scanned_codes()
    scan = core._scan_stars

    def interrupted_parent(words, n, rows, few=None):
        if rows.start == 0:
            raise KeyboardInterrupt
        return scan(words, n, rows, few)

    def interrupted(pipe):
        raise KeyboardInterrupt

    with forced():
        assert verify_trifferent(code, workers=3).witness == want
        _no_child_left()
        for target, name, stub in ((core, "_scan_stars", interrupted_parent), (marshal, "load", interrupted)):
            with monkeypatch.context() as patch:
                patch.setattr(target, name, stub)
                with pytest.raises(KeyboardInterrupt):
                    verify_trifferent(code, workers=3)
            _no_child_left()
