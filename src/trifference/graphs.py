"""Graphs derived from the 2-locations of bounded trifferent codes.

A 2-bounded code induces a simple graph on coordinates (one edge per word's
pair of twos); a 3-bounded code induces a bipartite graph between coordinates
and coordinate pairs.  Trifference caps the forbidden complete bipartite
subgraphs these can contain, which is what the bounds module cashes in.
"""

from __future__ import annotations

import itertools
import math
from random import Random
from typing import NamedTuple

from .core import Code, _Frozen, _set_bits

__all__ = [
    "DerivedGraph",
    "KstWitness",
    "BipartitionStats",
    "simple_graph",
    "bipartite_graph",
    "build_graph_r2",
    "build_graph_r3",
    "contains_kst",
    "witness_is_valid",
    "random_bipartition_check",
    "edge_list_text",
    "graph_summary",
]

SIMPLE = "simple"
BIPARTITE = "bipartite"


class DerivedGraph(_Frozen):
    """Vertices 0..n-1 on the left; edges annotated with originating codeword indices.

    Simple graphs key edges as (i, j) with i < j.  Bipartite graphs key them
    as (i, (j, k)) with j < k; right vertices exist only as far as edges
    mention them.  Synthetic graphs may carry empty annotation tuples.
    Graphs compare by identity.
    """

    _fields = ("kind", "n", "edges")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, kind: str, n: int, edges: dict):
        d = self.__dict__
        d["kind"] = kind
        d["n"] = n
        d["edges"] = edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def right_vertices(self) -> list:
        if self.kind != BIPARTITE:
            raise ValueError("only bipartite graphs have a right side")
        return sorted({right for (_, right) in self.edges})


def _edge_key(kind: str, n: int, u, v) -> tuple:
    """Validate edge (u, v) of a graph of this kind and return its table key."""
    if kind == SIMPLE:
        a, b = u, v
        if a == b:
            raise ValueError("loops are not allowed")
    else:
        a, b = v
        if a == b:
            raise ValueError("right vertices are 2-subsets, got a repeated index")
    if not (0 <= u < n and 0 <= a < n and 0 <= b < n):
        raise ValueError(f"edge ({u}, {v}) out of range")
    pair = (a, b) if a < b else (b, a)
    return pair if kind == SIMPLE else (u, pair)


def _graph(kind: str, n: int, pairs) -> DerivedGraph:
    """A graph from (edge, origins) pairs; an edge given twice joins its origins."""
    table: dict = {}
    for (u, v), origins in pairs:
        key = _edge_key(kind, n, u, v)
        table[key] = table.get(key, ()) + tuple(origins)
    return DerivedGraph(kind=kind, n=n, edges=table)


def _with_origins(edges):
    return edges.items() if isinstance(edges, dict) else ((e, ()) for e in edges)


def simple_graph(n: int, edges) -> DerivedGraph:
    """Build a simple graph from (i, j) pairs; origins default to empty."""
    return _graph(SIMPLE, n, _with_origins(edges))


def bipartite_graph(n: int, edges) -> DerivedGraph:
    """Build a bipartite graph from (i, (j, k)) pairs between [n] and 2-subsets of [n]."""
    return _graph(BIPARTITE, n, _with_origins(edges))


def _code_graph(code: Code, r: int) -> DerivedGraph:
    """One edge per codeword, from its smallest 2-location to the other r - 1."""
    if code.r_bound != r:
        raise ValueError(f"build_graph_r{r} requires an exactly {r}-bounded code")
    kind = SIMPLE if r == 2 else BIPARTITE
    pairs = []
    for idx, w in enumerate(code):
        first, *rest = w.two_locations()
        pairs.append(((first, rest[0] if kind == SIMPLE else tuple(rest)), (idx,)))
    return _graph(kind, code.n, pairs)


def build_graph_r2(code: Code) -> DerivedGraph:
    """One edge per codeword, joining its two 2-locations.

    Two codewords may share an edge; a third sharing it would break
    trifference, so annotation multiplicity stays at most 2 on verified codes.
    """
    return _code_graph(code, 2)


def build_graph_r3(code: Code) -> DerivedGraph:
    """One edge per codeword: smallest 2-location against the pair of the other two."""
    return _code_graph(code, 3)


class KstWitness(NamedTuple):
    """A complete bipartite K_{s,t}: every left vertex adjacent to every right vertex."""

    left: tuple
    right: tuple


def contains_kst(g: DerivedGraph, s: int, t: int) -> KstWitness | None:
    """Search for K_{s,t}; left sets are enumerated lexicographically.

    For each s-subset of left vertices the common neighborhood is a bitset
    intersection; the witness keeps the first t common neighbors.  Simple
    graphs treat 'left' as any s vertices and 'right' as t common neighbors,
    which catches the subgraph in either orientation.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    labels = range(g.n) if g.kind == SIMPLE else g.right_vertices()
    index = {label: pos for pos, label in enumerate(labels)}
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << index[v]
        if g.kind == SIMPLE:
            nbr[v] |= 1 << u
    candidates = [v for v in range(g.n) if nbr[v].bit_count() >= t]
    for left in itertools.combinations(candidates, s):
        common = nbr[left[0]]
        for v in left[1:]:
            common &= nbr[v]
            if common.bit_count() < t:
                break
        else:
            if common.bit_count() >= t:
                right = tuple(labels[pos] for pos in _set_bits(common)[:t])
                witness = KstWitness(left=left, right=right)
                if not witness_is_valid(g, witness):
                    raise RuntimeError("detector produced an invalid witness")
                return witness
    return None


def witness_is_valid(g: DerivedGraph, witness: KstWitness) -> bool:
    """Re-check every claimed edge directly against the edge table.

    Each edge is keyed as the graph keys it (_edge_key), so a bipartite right
    vertex may name its pair in either order.  A witness with a vertex out of
    range or named twice, or with a repeated index in a pair, is invalid.
    """
    try:
        keys = {_edge_key(g.kind, g.n, u, v) for u in witness.left for v in witness.right}
    except ValueError:
        return False
    return len(keys) == len(witness.left) * len(witness.right) and keys <= g.edges.keys()


class BipartitionStats(NamedTuple):
    """Edge-crossing fractions of random (or all) balanced vertex bipartitions."""

    n: int
    edge_count: int
    trials: int
    seed: int | None
    exhaustive: bool
    mean_crossing_fraction: float | None
    expected_edge_crossing: float | None

    @property
    def applicable(self) -> bool:
        return self.mean_crossing_fraction is not None


def random_bipartition_check(
    g: DerivedGraph,
    seed: int | None = None,
    trials: int = 1000,
    exhaustive: bool = False,
) -> BipartitionStats:
    """Average fraction of edges crossing a balanced random bipartition.

    A uniformly random pair of distinct vertices is split with probability
    2*ceil(n/2)*floor(n/2) / (n*(n-1)), slightly above 1/2, and the sampled
    means sit near that.  Graphs without edges yield a not-applicable result,
    once the mode's arguments have been checked as on any other graph.
    """
    if g.kind != SIMPLE:
        raise ValueError("bipartition check applies to simple graphs only")
    if not exhaustive:
        if seed is None:
            raise ValueError("sampling mode requires an explicit seed")
        if trials < 1:
            raise ValueError("trials must be positive")
    n = g.n
    edges = list(g.edges)
    half = math.ceil(n / 2)

    def crossing_fraction(side_a: set) -> float:
        crossing = sum(1 for (u, v) in edges if (u in side_a) != (v in side_a))
        return crossing / len(edges)

    if not edges:
        trials, sides = 0, ()
    elif exhaustive:
        trials = math.comb(n, half)
        sides = itertools.combinations(range(n), half)
    else:
        rng = Random(seed)
        sides = (rng.sample(range(n), half) for _ in range(trials))
    # a running sum, in the order the sides come, holds one side at a time
    total = sum(crossing_fraction(set(side)) for side in sides)
    return BipartitionStats(
        n=n,
        edge_count=len(edges),
        trials=trials,
        seed=None if exhaustive else seed,
        exhaustive=exhaustive,
        mean_crossing_fraction=total / trials if edges else None,
        expected_edge_crossing=2 * half * (n - half) / (n * (n - 1)) if edges else None,
    )


def edge_list_text(g: DerivedGraph) -> str:
    """One edge per line: 'u v' for simple graphs, 'u j,k' for bipartite ones."""
    return "".join(
        f"{u} {v}\n" if g.kind == SIMPLE else f"{u} {v[0]},{v[1]}\n"
        for u, v in sorted(g.edges)
    )


def graph_summary(g: DerivedGraph) -> dict:
    """JSON-ready counts, annotation histogram, and K_{s,t}-freeness results."""
    s, t = (3, 9) if g.kind == SIMPLE else (5, 2**21)
    histogram: dict = {}
    for origins in g.edges.values():
        histogram[len(origins)] = histogram.get(len(origins), 0) + 1
    freeness = [{"s": s, "t": t, "free": contains_kst(g, s, t) is None}]
    return {
        "schema": 1,
        "kind": g.kind,
        "n_left": g.n,
        "n_right": len(g.right_vertices()) if g.kind == BIPARTITE else None,
        "edge_count": g.edge_count,
        "multiplicity_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "freeness": freeness,
    }
