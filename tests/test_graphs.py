import hashlib
import itertools
import random
import tracemalloc

import pytest

from trifference.core import Code, Codeword, project, best_project
from trifference.constructions import one_bounded, triple_construction
from trifference.graphs import (
    KstWitness,
    bipartite_graph,
    build_graph_r2,
    build_graph_r3,
    contains_kst,
    edge_list_text,
    graph_summary,
    random_bipartition_check,
    simple_graph,
    witness_is_valid,
)


def code_of(*strings: str) -> Code:
    return Code(len(strings[0]), tuple(Codeword.from_string(s) for s in strings))


class TestBuildR2:
    def test_edges_read_off_the_two_locations(self):
        g = build_graph_r2(code_of("22000", "20200"))
        assert set(g.edges) == {(0, 1), (0, 2)}

    def test_shared_support_accumulates_annotations(self):
        g = build_graph_r2(code_of("22000", "22111"))
        assert set(g.edges) == {(0, 1)}
        assert len(g.edges[(0, 1)]) == 2

    def test_projected_construction_builds(self):
        c = triple_construction(2, one_bounded(3))
        p = project(c, best_project(c))
        g = build_graph_r2(p)
        assert 2 * g.edge_count >= len(p)  # each edge covers at most 2 codewords

    def test_wrong_layer_rejected(self):
        with pytest.raises(ValueError):
            build_graph_r2(one_bounded(3))


class TestBuildR3:
    def test_single_codeword(self):
        g = build_graph_r3(code_of("22200"))
        assert set(g.edges) == {(0, (1, 2))}

    def test_q2_instance_edge_budget(self, triple_codes):
        g = build_graph_r3(triple_codes[2])
        assert 6 <= g.edge_count <= 12
        assert all(len(origins) <= 2 for origins in g.edges.values())

    def test_q3_instance_edge_count(self, triple_codes):
        g = build_graph_r3(triple_codes[3])
        assert g.edge_count >= 18


class TestContainsKst:
    def test_complete_bipartite_is_its_own_witness(self):
        edges = {(i, 10 + j) for i in range(3) for j in range(9)}
        g = simple_graph(19, edges)
        w = contains_kst(g, 3, 9)
        assert w is not None and witness_is_valid(g, w)

    def test_edgeless(self):
        g = simple_graph(5, {})
        assert contains_kst(g, 1, 1) is None

    def test_star_degree_threshold(self):
        star = simple_graph(6, {(0, i) for i in range(1, 6)})
        assert contains_kst(star, 1, 5) is not None
        assert contains_kst(star, 1, 6) is None

    def test_planted_simple_instances_always_found(self):
        rng = random.Random(602)
        for _ in range(8):
            n = 26
            left = rng.sample(range(n), 3)
            right = rng.sample([v for v in range(n) if v not in left], 9)
            edges = {(min(a, b), max(a, b)) for a in left for b in right}
            edges |= {
                tuple(sorted(rng.sample(range(n), 2))) for _ in range(40)
            }
            g = simple_graph(n, edges)
            w = contains_kst(g, 3, 9)
            assert w is not None and witness_is_valid(g, w)

    def test_planted_bipartite_instances_always_found(self):
        rng = random.Random(603)
        pairs = list(itertools.combinations(range(11), 2))
        for _ in range(8):
            left = rng.sample(range(11), 5)
            right = rng.sample(pairs, 7)
            edges = {(i, jk) for i in left for jk in right}
            edges |= {(rng.randrange(11), rng.choice(pairs)) for _ in range(60)}
            g = bipartite_graph(11, edges)
            w = contains_kst(g, 5, 7)
            assert w is not None and witness_is_valid(g, w)

    def test_witness_names_a_right_vertex_in_either_order(self):
        g = bipartite_graph(4, {(0, (3, 1))})
        assert witness_is_valid(g, KstWitness(left=(0,), right=((3, 1),)))
        assert witness_is_valid(g, KstWitness(left=(0,), right=((1, 3),)))

    @pytest.mark.parametrize(
        "left, right",
        [
            ((4,), ((1, 3),)),  # left vertex out of range
            ((0,), ((1, 4),)),  # right index out of range
            ((0,), ((2, 2),)),  # a pair with a repeated index
            ((0, 0), ((1, 3),)),  # a left vertex named twice
            ((0,), ((1, 3), (3, 1))),  # a right vertex named twice
        ],
    )
    def test_bad_bipartite_witness_is_invalid(self, left, right):
        g = bipartite_graph(4, {(0, (1, 3)), (1, (2, 3))})
        assert not witness_is_valid(g, KstWitness(left=left, right=right))

    @pytest.mark.parametrize("left, right", [((0,), (0,)), ((0,), (5,)), ((0, 0), (1,)), ((0,), (1, 1))])
    def test_bad_simple_witness_is_invalid(self, left, right):
        g = simple_graph(5, {(0, 1)})
        assert witness_is_valid(g, KstWitness(left=(1,), right=(0,)))
        assert not witness_is_valid(g, KstWitness(left=left, right=right))

    def test_free_graph_reports_none(self):
        c = triple_construction(2, one_bounded(3))
        p = project(c, best_project(c))
        assert contains_kst(build_graph_r2(p), 3, 9) is None


class TestBipartition:
    def test_two_vertices_always_split(self):
        g = simple_graph(2, {(0, 1)})
        st = random_bipartition_check(g, exhaustive=True)
        assert st.mean_crossing_fraction == 1.0
        assert st.expected_edge_crossing == 1.0

    def test_four_vertices_single_edge(self):
        g = simple_graph(4, {(0, 1)})
        st = random_bipartition_check(g, exhaustive=True)
        assert st.mean_crossing_fraction == pytest.approx(2 / 3)
        assert st.expected_edge_crossing == pytest.approx(2 / 3)

    def test_empty_graph_not_applicable(self):
        st = random_bipartition_check(simple_graph(3, {}), exhaustive=True)
        assert not st.applicable

    def test_empty_graph_checks_the_mode_first(self):
        g = simple_graph(3, {})
        with pytest.raises(ValueError, match="explicit seed"):
            random_bipartition_check(g)
        with pytest.raises(ValueError, match="trials must be positive"):
            random_bipartition_check(g, seed=1, trials=0)
        assert random_bipartition_check(g, seed=1, exhaustive=True).seed is None
        st = random_bipartition_check(g, seed=1, trials=5)
        assert (st.seed, st.trials) == (1, 0)

    def test_sampled_mean_is_near_the_expectation(self):
        c = triple_construction(2, one_bounded(3))
        p = project(c, best_project(c))
        g = build_graph_r2(p)
        st = random_bipartition_check(g, seed=11, trials=4000)
        assert st.mean_crossing_fraction == pytest.approx(
            st.expected_edge_crossing, rel=0.1
        )

    def test_sampling_needs_seed(self):
        with pytest.raises(ValueError):
            random_bipartition_check(simple_graph(4, {(0, 1)}), trials=5)

    def test_exhaustive_check_holds_one_side_at_a_time(self):
        # C(16, 8) = 12,870 sides: a list of their crossing fractions alone
        # takes about 400 kB
        g = simple_graph(16, {(i, (i + 1) % 16) for i in range(16)})
        tracemalloc.start()
        try:
            st = random_bipartition_check(g, exhaustive=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        fractions = [
            sum((u in side) != (v in side) for u, v in g.edges) / 16
            for side in map(set, itertools.combinations(range(16), 8))
        ]
        assert st.trials == len(fractions) == 12870
        assert st.mean_crossing_fraction == sum(fractions) / len(fractions)


class TestSummaries:
    def test_edge_list_text(self):
        g = simple_graph(4, {(2, 3), (0, 1)})
        assert edge_list_text(g) == "0 1\n2 3\n"
        b = bipartite_graph(4, {(0, (1, 3))})
        assert edge_list_text(b) == "0 1,3\n"

    def test_summary_shape(self, triple_codes):
        g = build_graph_r3(triple_codes[2])
        s = graph_summary(g)
        assert s["schema"] == 1
        assert s["kind"] == "bipartite"
        assert s["edge_count"] == g.edge_count
        assert s["freeness"][0]["free"] is True
        assert sum(s["multiplicity_histogram"].values()) == g.edge_count


def test_q3_graphs_are_pinned(triple_codes):
    # the projected q = 3 triple code gives a simple graph, the code itself
    # a bipartite one
    c = triple_codes[3]
    p = project(c, best_project(c))
    g = build_graph_r2(p)
    assert graph_summary(g) == {
        "schema": 1,
        "kind": "simple",
        "n_left": 17,
        "n_right": None,
        "edge_count": 8,
        "multiplicity_histogram": {"1": 8},
        "freeness": [{"s": 3, "t": 9, "free": True}],
    }
    assert edge_list_text(g) == "5 12\n5 15\n7 16\n8 13\n8 14\n8 15\n10 14\n10 15\n"
    assert contains_kst(g, 2, 2) == ((8, 10), (14, 15))
    assert contains_kst(g, 1, 3) == ((8,), (13, 14, 15))
    assert contains_kst(g, 2, 3) is None

    b = build_graph_r3(c)
    assert graph_summary(b) == {
        "schema": 1,
        "kind": "bipartite",
        "n_left": 18,
        "n_right": 25,
        "edge_count": 35,
        "multiplicity_histogram": {"1": 34, "2": 1},
        "freeness": [{"s": 5, "t": 2**21, "free": True}],
    }
    text = edge_list_text(b)
    assert text.startswith("1 6,17\n1 8,14\n1 8,16\n1 10,15\n2 6,13\n")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ce544c20236687c4976310978206eaf079a8abdeed3e9adef607839737015587"
    )
    assert contains_kst(b, 2, 2) == ((3, 5), ((6, 14), (8, 13)))
    assert contains_kst(b, 2, 3) == ((3, 5), ((6, 14), (8, 13), (10, 17)))
    assert contains_kst(b, 3, 9) is None
