import errno
import hashlib
import json
import marshal
import os
import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAYER_PAIRS
from trifference import search
from trifference.core import (
    Codeword,
    NotTrifferentError,
    naive_trifferent_triple,
    verify_trifferent,
)
from trifference.search import (
    LOWER_BOUND,
    OPTIMAL,
    _pair_compat_masks,
    a_r_universe,
    certificate_to_json,
    enumerate_bad_triples,
    full_universe,
    load_results_table,
    max_r_bounded,
    max_trifferent,
    oracle_max,
    record_certificate,
    save_results_table,
)


class TestUniverses:
    def test_full_universe_is_lexicographic(self):
        words = [w.string for w in full_universe(2)]
        assert words == sorted(words)
        assert len(words) == 9

    def test_layer_universe_counts(self):
        for n, r in ((2, 1), (4, 2), (5, 0), (5, 5)):
            layer = a_r_universe(n, r)
            assert len(layer) == comb(n, r) * 2 ** (n - r)
            assert all(w.count_twos == r for w in layer)

    def test_layer_universe_sorted(self):
        words = [w.string for w in a_r_universe(3, 1)]
        assert words == sorted(words)

    def test_layer_universe_is_the_filtered_full_universe(self):
        for n in range(1, 7):
            full = full_universe(n)
            for r in range(n + 1):
                assert a_r_universe(n, r) == [w for w in full if w.count_twos == r]


class TestBadTriples:
    def test_all_binary_triple_is_bad(self):
        from trifference.core import Codeword

        uni = tuple(Codeword.from_string(s) for s in ("00", "01", "10"))
        inst = enumerate_bad_triples(uni)
        assert inst.bad_count == 1

    def test_one_bounded_has_none(self):
        from trifference.constructions import one_bounded

        inst = enumerate_bad_triples(tuple(one_bounded(3)))
        assert inst.bad_count == 0

    def test_tiny_universe_has_no_triples(self):
        inst = enumerate_bad_triples(full_universe(1)[:2])
        assert inst.bad_count == 0


@st.composite
def universes(draw):
    # a prefix over one symbol leaves words that differ only in the last
    # coordinate; a binary one leaves it the only coordinate that separates
    n = draw(st.integers(1, 12))
    prefix = draw(st.sampled_from(["0", "01", "012"]))
    pairs = draw(
        st.lists(
            st.tuples(st.text(prefix, min_size=n - 1, max_size=n - 1), st.sampled_from("012")),
            min_size=1,
            max_size=14,
        )
    )
    # duplicate-free, in the drawn order
    return [Codeword.from_string(s) for s in dict.fromkeys(a + b for a, b in pairs)]


@settings(max_examples=200, deadline=None)
@given(universes())
def test_pair_masks_match_the_naive_triple_check(universe):
    m = len(universe)
    want = [
        [
            sum(
                1 << w
                for w in range(m)
                if len({i, j, w}) == 3
                and naive_trifferent_triple(universe[i], universe[j], universe[w])
            )
            for j in range(m)
        ]
        for i in range(m)
    ]
    assert _pair_compat_masks(universe) == want


def test_certificate_rejects_a_code_that_fails_the_triple_check(monkeypatch):
    def every_pair_compatible(universe):
        m = len(universe)
        return [[((1 << m) - 1) & ~(1 << i | 1 << j) for j in range(m)] for i in range(m)]

    monkeypatch.setattr("trifference.search._pair_compat_masks", every_pair_compatible)
    # the error names the lex-smallest violating triple
    with pytest.raises(NotTrifferentError, match="not trifferent: 00, 01, 10$"):
        max_trifferent(2)


@pytest.mark.parametrize(
    "solve, size, nodes, status",
    [
        (lambda: max_r_bounded(6, 1), 12, 6511, OPTIMAL),
        (lambda: max_r_bounded(5, 2), 10, 3118, OPTIMAL),
        (lambda: max_r_bounded(4, 1), 8, 31, OPTIMAL),
        (lambda: max_trifferent(4), 9, 3697, OPTIMAL),
        (lambda: max_trifferent(5, cap=5, budget=200_000), 10, 200_001, LOWER_BOUND),
        (lambda: max_r_bounded(4, 1, bound="size"), 8, 192, OPTIMAL),
        (lambda: max_r_bounded(5, 2, bound="size"), 10, 8346, OPTIMAL),
        (lambda: max_trifferent(3, bound="support"), 6, 71, OPTIMAL),
        (lambda: max_trifferent(4, bound="support"), 9, 3421, OPTIMAL),
        (lambda: max_trifferent(4, bound="support", symmetry=False), 9, 45557, OPTIMAL),
    ],
    ids=[
        "max-r-6-1",
        "max-r-5-2",
        "max-r-4-1",
        "max-4",
        "max-5-budget",
        "max-r-4-1-size",
        "max-r-5-2-size",
        "max-3-support",
        "max-4-support",
        "max-4-support-no-symmetry",
    ],
)
def test_search_tree_is_pinned(solve, size, nodes, status):
    # node counts move whenever a prune decision does
    cert = solve()
    assert (cert.best_size, cert.nodes_explored, cert.status) == (size, nodes, status)


class TestOracle:
    def test_alphabet(self):
        assert oracle_max(enumerate_bad_triples(full_universe(1))) == 3

    def test_empty(self):
        assert oracle_max(enumerate_bad_triples(())) == 0

    def test_cap_guard(self):
        inst = enumerate_bad_triples(a_r_universe(4, 1))
        with pytest.raises(ValueError):
            oracle_max(inst, cap=30)
        assert oracle_max(inst, cap=32) == 8

    def test_matches_engine_on_the_single_two_layer(self):
        inst = enumerate_bad_triples(a_r_universe(2, 1))
        assert oracle_max(inst) == max_r_bounded(2, 1).best_size == 4


class TestMaxTrifferent:
    def test_tiny_lengths_with_oracle(self):
        sizes = {}
        for n in (1, 2, 3):
            cert = max_trifferent(n, oracle_check=True, oracle_cap=30)
            assert cert.status == OPTIMAL
            assert cert.oracle_checked
            sizes[n] = cert.best_size
        assert sizes == {1: 3, 2: 4, 3: 6}

    def test_reported_code_is_real(self):
        cert = max_trifferent(3)
        assert len(cert.best_code) == cert.best_size
        assert verify_trifferent(cert.best_code).ok

    def test_lexicographically_smallest_optimum(self):
        cert = max_trifferent(2)
        assert [w.string for w in cert.best_code] == ["00", "01", "12", "22"]

    def test_budget_yields_lower_bound(self):
        cert = max_trifferent(3, budget=5)
        assert cert.status == LOWER_BOUND
        assert cert.best_size <= 6
        assert verify_trifferent(cert.best_code).ok

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be a positive node count"):
            max_trifferent(3, budget=budget)

    def test_symmetry_setting_changes_nodes_not_answer(self):
        free = max_trifferent(3, symmetry=False)
        pinned = max_trifferent(3, symmetry=True)
        assert free.best_size == pinned.best_size
        assert free.nodes_explored > pinned.nodes_explored
        assert free.config_hash != pinned.config_hash

    def test_same_config_same_certificate(self):
        a = max_trifferent(3)
        b = max_trifferent(3)
        assert a == b
        assert certificate_to_json(a) == certificate_to_json(b)


class TestMaxRBounded:
    def test_binary_layer_shortcut(self):
        cert = max_r_bounded(50, 0)
        assert cert.best_size == 2
        assert cert.status == OPTIMAL
        assert cert.nodes_explored == 0
        assert verify_trifferent(cert.best_code).ok

    def test_binary_layer_oracle_agrees(self):
        cert = max_r_bounded(3, 0, oracle_check=True)
        assert cert.best_size == 2
        assert cert.oracle_checked

    def test_full_two_layer_is_a_singleton(self):
        assert max_r_bounded(3, 3).best_size == 1

    def test_single_two_layer(self, exact_layers):
        for n in (2, 3, 4, 5, 6):
            assert exact_layers[(n, 1)] == 2 * n

    def test_bound_choice_does_not_change_the_answer(self):
        a = max_r_bounded(4, 2, bound="size")
        b = max_r_bounded(4, 2, bound="support")
        assert a.best_size == b.best_size == 6
        assert a.config_hash != b.config_hash
        assert a.nodes_explored >= b.nodes_explored

    def test_binary_layer_past_the_decimal_digit_limit(self):
        # 2^14284 has 4300 digits, the most Python writes in decimal by
        # default; the config keeps that size in decimal and 2^14285 in hex
        assert max_r_bounded(14_284, 0).config_hash == "97f6b81c2476e492"
        cert = max_r_bounded(20_000, 0)
        assert cert.best_size == 2
        assert cert.config_hash == "7338fa3d74e2d2a9"
        with pytest.raises(ValueError) as err:
            max_r_bounded(14_000, 0, oracle_check=True)
        assert str(err.value) == "oracle universe size at least 2^14000 exceeds cap 30"

    @pytest.mark.parametrize("r", [0, 2, 4])
    def test_budget_below_one_rejected(self, r):
        # r = 0 and r = n answer without a search, and still check the budget
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget must be a positive node count"):
                max_r_bounded(4, r, budget=budget)

    def test_certificate_json_shape(self):
        blob = certificate_to_json(max_r_bounded(3, 2))
        assert blob["schema"] == 1
        assert blob["status"] == OPTIMAL
        assert blob["best_size"] == 4
        assert blob["best_code_triff"].startswith("n=3\nr=2\n")
        json.dumps(blob)


GUARD_CASES = {
    "max-7": (lambda: max_trifferent(7), "refused"),
    "max-r-7-2-cap-5": (lambda: max_r_bounded(7, 2, cap=5), "refused"),
    "max-10**9": (lambda: max_trifferent(10**9), "refused"),
    "max-5": (lambda: max_trifferent(5), "searched"),
    "max-6": (lambda: max_trifferent(6), "searched"),
    "max-r-7-2": (lambda: max_r_bounded(7, 2), "searched"),
    "max-r-7-2-cap-10**9": (lambda: max_r_bounded(7, 2, cap=10**9), "searched"),
    # 14 words, longer than the cap but fewer than 3^5
    "max-r-7-6-cap-5": (lambda: max_r_bounded(7, 6, cap=5), "searched"),
    "max-r-50-0": (lambda: max_r_bounded(50, 0), "answered"),
}


@pytest.mark.parametrize("solve, outcome", GUARD_CASES.values(), ids=GUARD_CASES)
def test_one_size_guard_for_both_modes(monkeypatch, solve, outcome):
    # the engine takes on no universe larger than {0,1,2}^cap, and a refused
    # run builds nothing
    built = []

    class Searched(Exception):
        pass

    def engine(*args):
        raise Searched

    monkeypatch.setattr(search, "_branch_and_bound", engine)
    monkeypatch.setattr(search, "full_universe", lambda *args: built.append(args))
    monkeypatch.setattr(search, "a_r_universe", lambda *args: built.append(args))
    if outcome == "refused":
        with pytest.raises(ValueError) as err:
            solve()
        assert re.fullmatch(
            r"the universe has more words than \{0,1,2\}\^\d+; pass a larger cap explicitly",
            str(err.value),
        )
        assert built == []
    elif outcome == "searched":
        with pytest.raises(Searched):
            solve()
        assert len(built) == 1
    else:
        assert solve().best_size == 2
        assert built == []


class TestResultsTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.json"
        table = {}
        record_certificate(table, max_trifferent(2))
        record_certificate(table, max_r_bounded(3, 1))
        save_results_table(path, table)
        back = load_results_table(path)
        assert back[(2, None)] == 4
        assert back[(3, 1)] == 6

    def test_conflicting_value_rejected(self):
        table = {(2, None): 5}
        with pytest.raises(ValueError):
            record_certificate(table, max_trifferent(2))

    @pytest.mark.parametrize(
        "entries",
        [
            [{"n": 5, "size": 10}],
            [{"n": 5, "r": 2}],
            [{"r": 2, "size": 10}],
            [{"n": 0, "r": None, "size": 1}],
            [{"n": 5, "r": 6, "size": 1}],
            [{"n": 5, "r": -1, "size": 1}],
            [{"n": 5, "r": 2.0, "size": 10}],
            [{"n": True, "r": None, "size": 3}],
            [{"n": 5, "r": 2, "size": -1}],
            [{"n": 5, "r": 2, "size": "10"}],
            [[5, 2, 10]],
            [{"n": 3, "r": 1, "size": 6}, {"n": 3, "r": 1, "size": 6}],
        ],
    )
    def test_malformed_table_rejected(self, tmp_path, entries):
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"schema": 1, "entries": entries}))
        with pytest.raises(ValueError):
            load_results_table(path)

    @pytest.mark.parametrize(
        "entry",
        [
            {"n": 3, "r": None, "size": 28},  # 27 words in {0,1,2}^3
            {"n": 5, "r": 2, "size": 81},  # C(5,2) * 2^3 = 80 words
            {"n": 2, "r": 2, "size": 2},  # the one word 22
            {"n": 5, "r": 2, "size": 1},  # any two words of a layer are trifferent
            {"n": 4, "r": None, "size": 0},
            {"n": 2, "r": 2, "size": 0},
        ],
        ids=["above-full", "above-layer", "above-one-word", "below-layer", "below-full", "below-one-word"],
    )
    def test_size_outside_min_two_and_the_universe_rejected(self, tmp_path, entry):
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"schema": 1, "entries": [entry]}))
        with pytest.raises(ValueError, match="no largest code"):
            load_results_table(path)

    def test_sizes_at_the_limits_load(self, tmp_path):
        entries = [
            {"n": 3, "r": None, "size": 27},
            {"n": 5, "r": 2, "size": 80},
            {"n": 5, "r": 5, "size": 1},  # the one word 22222
            {"n": 10**9, "r": None, "size": 2},  # no 3^n is computed
        ]
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"schema": 1, "entries": entries}))
        assert sorted(load_results_table(path).values()) == [1, 2, 27, 80]

    def test_failed_write_keeps_the_old_table(self, tmp_path):
        path = tmp_path / "results.json"
        save_results_table(path, {(3, 1): 6})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_results_table(path, {(3, 1): 6, (4, 1): object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]

    def test_lower_bounds_not_recorded(self):
        table = {}
        cert = max_trifferent(3, budget=5)
        record_certificate(table, cert)
        assert table == {}


# certificate_to_json of each run, byte for byte: a change to the config
# hash, the node count or the code shows here
PINNED_CERTIFICATES = [
    (
        lambda: max_trifferent(1), 1, None, 3, "optimal", 3, False, "4f0f13b14c1d5c12",
        "n=1\n0\n1\n2\n",
    ),
    (
        lambda: max_trifferent(2), 2, None, 4, "optimal", 8, False, "618d32995b702b02",
        "n=2\n00\n01\n12\n22\n",
    ),
    (
        lambda: max_trifferent(3), 3, None, 6, "optimal", 71, False, "041227839bf7dee9",
        "n=3\n000\n011\n102\n121\n212\n220\n",
    ),
    (
        lambda: max_trifferent(4), 4, None, 9, "optimal", 3697, False, "1f4a62c6c0fb9fb9",
        "n=4\n0000\n0111\n0222\n1012\n1120\n1201\n2021\n2102\n2210\n",
    ),
    (
        lambda: max_trifferent(3, symmetry=False), 3, None, 6, "optimal", 421, False,
        "ae125ab6108b7ecb", "n=3\n000\n011\n102\n121\n212\n220\n",
    ),
    (
        lambda: max_trifferent(3, bound="support"), 3, None, 6, "optimal", 71, False,
        "8ed1338bfc2728b1", "n=3\n000\n011\n102\n121\n212\n220\n",
    ),
    (
        lambda: max_trifferent(3, oracle_check=True), 3, None, 6, "optimal", 71, True,
        "2b673b3b9958ad4a", "n=3\n000\n011\n102\n121\n212\n220\n",
    ),
    (
        lambda: max_trifferent(5, cap=5, budget=20_000), 5, None, 10, "lower-bound", 20_001,
        False, "16e6d53b00405d37",
        "n=5\n00000\n00001\n01112\n02222\n10122\n11202\n12012\n20212\n21022\n22102\n",
    ),
    (
        lambda: max_r_bounded(4, 0, oracle_check=True), 4, 0, 2, "optimal", 0, True,
        "15d46b1c3fcf0a43", "n=4\nr=0\n0000\n0001\n",
    ),
    (
        lambda: max_r_bounded(4, 4), 4, 4, 1, "optimal", 0, False, "710610f6562deab8",
        "n=4\nr=4\n2222\n",
    ),
    (
        lambda: max_r_bounded(5, 2), 5, 2, 10, "optimal", 3118, False, "0c136564fd06aa17",
        "n=5\nr=2\n00022\n00202\n01122\n02120\n10212\n12121\n20210\n21211\n22011\n22101\n",
    ),
    (
        lambda: max_r_bounded(6, 1), 6, 1, 12, "optimal", 6511, False, "ae183bc27e5ddc2d",
        "n=6\nr=1\n000002\n000020\n000201\n002010\n020101\n111112\n111121\n111210\n"
        "112101\n121010\n201010\n210101\n",
    ),
    (
        lambda: max_r_bounded(4, 2, bound="size"), 4, 2, 6, "optimal", 54, False,
        "16df471934230a06", "n=4\nr=2\n0022\n0122\n0202\n1212\n2210\n2211\n",
    ),
    (
        lambda: max_r_bounded(4, 1, symmetry=False), 4, 1, 8, "optimal", 124, False,
        "af9f9e48f3784292", "n=4\nr=1\n0002\n0020\n0201\n1112\n1121\n1210\n2010\n2101\n",
    ),
]


@pytest.mark.parametrize(
    "solve, n, r, size, status, nodes, oracle, config_hash, triff",
    PINNED_CERTIFICATES,
    ids=[
        "max-1", "max-2", "max-3", "max-4", "max-3-no-symmetry", "max-3-support",
        "max-3-oracle", "max-5-budget", "max-r-4-0-oracle", "max-r-4-4", "max-r-5-2",
        "max-r-6-1", "max-r-4-2-size", "max-r-4-1-no-symmetry",
    ],
)
def test_certificate_json_is_pinned(solve, n, r, size, status, nodes, oracle, config_hash, triff):
    blob = json.dumps(certificate_to_json(solve()), sort_keys=True)
    assert blob == json.dumps(
        {
            "schema": 1,
            "n": n,
            "r": r,
            "best_size": size,
            "status": status,
            "nodes_explored": nodes,
            "oracle_checked": oracle,
            "config_hash": config_hash,
            "best_code_triff": triff,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize(
    "solve",
    [
        lambda: max_trifferent(2, bound="bogus"),
        lambda: max_r_bounded(4, 2, bound="bogus"),
        lambda: max_r_bounded(4, 0, bound="bogus"),  # answered without a search
        lambda: max_r_bounded(4, 4, bound="bogus"),
    ],
    ids=["max", "max-r", "max-r-binary", "max-r-all-twos"],
)
def test_unknown_bound_rule_rejected_on_every_path(solve):
    with pytest.raises(ValueError, match="unknown bound rule 'bogus'"):
        solve()


# ---------------------------------------------------------------------------
# Processes: past a fork, the search deals its depth-3 subtrees round-robin to
# forked children, and no certificate depends on how many there are.
# ---------------------------------------------------------------------------


@pytest.fixture
def cpus(monkeypatch):
    """Fork at the first subtree; cpus(k) runs the searches in k processes."""
    monkeypatch.setattr(search, "_MIN_FORK_WORK", 0)
    return lambda k: monkeypatch.setattr(search, "_usable_cpus", lambda: k)


def _blob(cert) -> str:
    return json.dumps(certificate_to_json(cert), sort_keys=True)


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# With the fork at the first subtree, the budget runs out inside a child's
# subtree at 77,777 nodes in 2 processes, and in 3 at 1,000 nodes and at the
# 200,000 of the digest test below.
SOLVES = {
    **{
        f"max-r-{n}-{r}": (lambda n=n, r=r: max_r_bounded(n, r))
        for n, r in LAYER_PAIRS
        if (n, r) != (6, 3)
    },
    "max-r-4-1-no-symmetry": lambda: max_r_bounded(4, 1, symmetry=False),
    "max-r-5-2-no-symmetry": lambda: max_r_bounded(5, 2, symmetry=False),
    "max-r-5-2-size": lambda: max_r_bounded(5, 2, bound="size"),
    "max-3": lambda: max_trifferent(3),
    "max-4": lambda: max_trifferent(4),
    "max-3-no-symmetry": lambda: max_trifferent(3, symmetry=False),
    "max-4-no-symmetry": lambda: max_trifferent(4, symmetry=False),
    "max-4-support": lambda: max_trifferent(4, bound="support"),
    "max-5-budget-1000": lambda: max_trifferent(5, cap=5, budget=1_000),
    "max-5-budget-77777": lambda: max_trifferent(5, cap=5, budget=77_777),
}


@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
def test_certificate_is_the_same_in_any_number_of_processes(cpus, solve):
    cpus(1)
    want = _blob(solve())
    for k in (2, 3):
        cpus(k)
        assert _blob(solve()) == want
    _no_child_left()


# sha256 of each certificate's JSON as one process printed it; these runs
# take seconds, so the test does not repeat them in one process
@pytest.mark.parametrize(
    "solve, digest",
    [
        (
            lambda: max_r_bounded(6, 3),
            "639beead193eefbffa0b35d40a26f16d7621cb7f02c731dd8c5adfe918f44ff2",
        ),
        (
            lambda: max_r_bounded(6, 1, bound="size"),
            "36f90b17fddb1747052b64fc2261d057c7737f1b9ae722f9684be90306bee5da",
        ),
        (
            lambda: max_trifferent(5, cap=5, budget=200_000),
            "1cc899654b6bf899626ee8659485671316931f82cef1795a90effd882dc2cfe3",
        ),
    ],
    ids=["max-r-6-3", "max-r-6-1-size", "max-5-budget-200000"],
)
def test_long_runs_print_the_one_process_certificate(cpus, solve, digest):
    for k in (2, 3):
        cpus(k)
        assert hashlib.sha256(_blob(solve()).encode()).hexdigest() == digest


def test_a_stale_result_is_searched_again(cpus, monkeypatch):
    # the n = 4 incumbent grows after the first fork, so the parent finds a
    # child's result made under a smaller one, kills the children and forks again
    cpus(1)
    want = _blob(max_trifferent(4))
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    cpus(2)
    assert _blob(max_trifferent(4)) == want
    assert len(forked) > 1


def test_a_dead_child_costs_time_not_the_result(cpus, monkeypatch):
    cpus(1)
    want = _blob(max_trifferent(4))

    def die(value):
        raise RuntimeError("child died")

    monkeypatch.setattr(marshal, "dumps", die)  # each child dies at its first result
    cpus(2)
    assert _blob(max_trifferent(4)) == want
    _no_child_left()


def test_no_child_outlives_a_search(cpus, monkeypatch):
    cpus(3)
    _no_child_left()
    assert max_trifferent(4).status == OPTIMAL
    _no_child_left()
    assert max_trifferent(5, cap=5, budget=5_000).status == LOWER_BOUND
    _no_child_left()

    def interrupted(pipe):
        raise KeyboardInterrupt

    monkeypatch.setattr(marshal, "load", interrupted)
    with pytest.raises(KeyboardInterrupt):
        max_trifferent(4)
    _no_child_left()


def test_a_failed_pipe_searches_in_one_process(cpus, monkeypatch):
    # the first child of a three-process search is made, the second has no
    # pipe; the first is killed and the parent searches alone
    cpus(1)
    want = _blob(max_trifferent(4))
    made = []
    pipe = os.pipe

    def second_fails():
        made.append(1)
        if len(made) % 2 == 0:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", second_fails)
    cpus(3)
    assert _blob(max_trifferent(4)) == want
    assert made == [1, 1]
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists a child's files in /proc")
def test_only_the_parent_reads_a_childs_pipe(cpus, monkeypatch):
    # no child holds a sibling's pipe open, so a parent killed outright
    # breaks every child's next write, and no child outlives it for long
    cpus(3)
    made, pids, held = [], [], {}
    pipe, fork, load = os.pipe, os.fork, marshal.load

    def recorded_pipe():
        ends = pipe()
        made.append(os.fstat(ends[0]).st_ino)
        return ends

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def load_then_look(file):
        result = load(file)  # the child has sent a result, so it is past its set-up
        k = made.index(os.fstat(file.fileno()).st_ino)
        if k not in held:
            fds = f"/proc/{pids[k]}/fd"
            links = {os.readlink(f"{fds}/{fd}") for fd in os.listdir(fds)}
            held[k] = [i for i, ino in enumerate(made) if f"pipe:[{ino}]" in links]
        return result

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(marshal, "load", load_then_look)
    max_trifferent(5, cap=5, budget=20_000)
    assert held == {k: [k] for k in held}
    assert any(k % 2 for k in held)  # a second child, forked after a sibling
    _no_child_left()


def test_small_searches_never_fork(monkeypatch):
    # a fork that fails leaves the search in one process, with the same result
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    want = _blob(max_r_bounded(6, 1))
    tried = []

    def failed_fork():
        tried.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", failed_fork)
    for solve in (
        lambda: max_trifferent(3),
        lambda: max_trifferent(4),
        lambda: max_r_bounded(4, 1),
        lambda: max_r_bounded(5, 2),
    ):
        solve()
    assert not tried
    assert _blob(max_r_bounded(6, 1)) == want
    assert tried == [1]
