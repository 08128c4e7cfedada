"""Release gates: one test per acceptance item, each printing a PASS/FAIL line.

These are end-to-end checks over the public API with fixed tolerances and
runtime budgets.  Run with plain `pytest tests/test_acceptance.py -v`; the
  [acceptance] ...: PASS
lines bypass output capture so they always land in the terminal.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from math import comb

import mpmath as mp

from trifference.bounds import (
    crossover_n0,
    elias_bound,
    elias_bound_log2,
    r3_transfer_log2,
    tb_upper_detail,
    transfer_bound,
    zarankiewicz_bound,
)
from trifference.constructions import one_bounded, recursive_construction
from trifference.core import (
    best_project,
    Code,
    project,
    prune,
    shift_density_sample,
    verify_trifferent,
)
from trifference.graphs import (
    bipartite_graph,
    build_graph_r2,
    contains_kst,
    simple_graph,
    witness_is_valid,
)
from trifference.search import (
    a_r_universe,
    enumerate_bad_triples,
    full_universe,
    max_r_bounded,
    max_trifferent,
    oracle_max,
)

mp.mp.dps = 40


def _report(capsys, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] {label}: {tag}{suffix}", flush=True)


def test_01_one_bounded_family_and_layer_maxima(capsys):
    problems = []
    t0 = time.perf_counter()
    for n in range(2, 65):
        code = one_bounded(n)
        if len(code) != 2 * n:
            problems.append(f"size at n={n}: {len(code)}")
        if not verify_trifferent(code).ok:
            problems.append(f"not trifferent at n={n}")
    family_dt = time.perf_counter() - t0
    if family_dt >= 10.0:
        problems.append(f"family verification took {family_dt:.1f}s")
    for n in range(2, 7):
        cert = max_r_bounded(n, 1, oracle_check=n <= 4, oracle_cap=32)
        if cert.best_size != 2 * n or cert.status != "optimal":
            problems.append(f"layer maximum at n={n}: {cert.best_size} ({cert.status})")
        if (n <= 4) != cert.oracle_checked:
            problems.append(f"oracle flag at n={n}")
    _report(
        capsys,
        "1 single-two family, certified 2n layer maxima",
        not problems,
        f"64 lengths in {family_dt:.2f}s",
    )
    assert not problems, problems


def test_02_affine_triple_and_recursive(capsys, triple_codes):
    problems = []
    shapes = {2: (9, 12), 3: (18, 36), 5: (45, 150)}
    timings = {}
    for q, (length, size) in shapes.items():
        code = triple_codes[q]
        if (code.n, len(code), code.r_bound) != (length, size, 3):
            problems.append(f"shape at q={q}: {(code.n, len(code), code.r_bound)}")
        t0 = time.perf_counter()
        if not verify_trifferent(code).ok:
            problems.append(f"q={q} not trifferent")
        timings[q] = time.perf_counter() - t0
    if timings[2] + timings[3] >= 5.0:
        problems.append(f"q in {{2,3}} verification took {timings[2] + timings[3]:.1f}s")
    if timings[5] >= 120.0:
        problems.append(f"q=5 verification took {timings[5]:.1f}s")
    deep = recursive_construction(2, 12)
    if deep.r_bound != 9 or not verify_trifferent(deep).ok:
        problems.append("depth-2 recursion broken")
    _report(
        capsys,
        "2 affine triple codes (q=2,3,5) and depth-2 recursion",
        not problems,
        f"q=5 verified in {timings[5]:.2f}s",
    )
    assert not problems, problems


def test_03_transfer_consistency(capsys, exact_unrestricted, exact_layers):
    problems = []
    pairs = 0
    for (n, r), tb in sorted(exact_layers.items()):
        if n not in exact_unrestricted:
            continue
        pairs += 1
        bound = transfer_bound(n, r, tb)
        if exact_unrestricted[n] > bound:
            problems.append(f"T({n}) = {exact_unrestricted[n]} > transfer {bound} at r={r}")
    for n in range(1, 65):
        if transfer_bound(n, 0, 2) != elias_bound(n):
            problems.append(f"binary-layer transfer differs from the pruning bound at n={n}")
    _report(
        capsys,
        "3 exact transfer inequality and the r=0 identity",
        not problems,
        f"{pairs} exact (n, r) pairs, identity to n=64",
    )
    assert not problems, problems


def test_04_shift_identity(capsys):
    problems = []
    instances = [
        ("one_bounded(2), r=1", one_bounded(2), 1),
        ("one_bounded(3), r=1", one_bounded(3), 1),
        ("searched n=3 optimum, r=0", max_trifferent(3).best_code, 0),
        ("searched (4,2) layer optimum, r=2", max_r_bounded(4, 2).best_code, 2),
        ("one_bounded(6), r=1", one_bounded(6), 1),
    ]
    for label, code, r in instances:
        st = shift_density_sample(code, r, exhaustive=True)
        if st.mean_fraction != st.expectation:
            problems.append(f"exhaustive mean mismatch for {label}")
        if st.expectation != Fraction(
            comb(code.n, r) * 2 ** (code.n - r) * len(code), 3**code.n
        ):
            problems.append(f"expectation formula broken for {label}")
    mc = shift_density_sample(one_bounded(6), 1, trials=10**5, seed=20260819)
    rel = abs(mc.mean - float(mc.expectation)) / float(mc.expectation)
    if rel >= 0.05:
        problems.append(f"Monte-Carlo off by {rel:.2%}")
    _report(
        capsys,
        "4 exhaustive shift identity, sampled within 5%",
        not problems,
        f"5 exact instances, sampled rel. error {rel:.3%}",
    )
    assert not problems, problems


def test_05_kst_pipeline(capsys, triple_codes):
    problems = []

    def z_reference(u, v, s, t):
        one = mp.mpf(1)
        return (
            mp.power(t - 1, one / s) * (u - s + 1) * mp.power(v, 1 - one / s)
            + (s - 1) * v
        )

    grid = [
        (4, 4, 1, 2), (9, 9, 3, 9), (3, 3, 3, 9), (10, 10, 2, 2),
        (50, 40, 3, 9), (100, 100, 3, 9), (7, 11, 2, 5), (500, 1000, 3, 9),
        (1000, 499500, 5, 2**21), (12, 66, 5, 2**21), (5, 10, 5, 2**21),
        (10**6, 10**6, 3, 9), (31623, 31622, 3, 9), (17, 29, 4, 100),
        (64, 64, 6, 64), (128, 256, 2, 3), (9, 9, 9, 9), (2, 2, 1, 3),
        (300, 200, 3, 9), (10**6, 999500000, 5, 2**21),
    ]
    for u, v, s, t in grid:
        ref = z_reference(u, v, s, t)
        mine = zarankiewicz_bound(u, v, s, t)
        if abs(mp.mpf(mine) - ref) / ref >= 1e-9:
            problems.append(f"grid point ({u},{v},{s},{t}) off the reference")
    if abs(zarankiewicz_bound(9, 9, 3, 9) - 78.574481952911152058) > 1e-9 * 78.57:
        problems.append("pinned value drifted")

    two_bounded = []
    for q, code in triple_codes.items():
        p = project(code, best_project(code))
        two_bounded.append((f"projected q={q}", p))
    for n in (3, 4, 5):
        two_bounded.append((f"searched (n={n}, r=2)", max_r_bounded(n, 2).best_code))
    free_checked = 0
    for label, code in two_bounded:
        if len(code) == 0 or code.r_bound != 2:
            problems.append(f"{label} is not a 2-bounded code")
            continue
        if contains_kst(build_graph_r2(code), 3, 9) is not None:
            problems.append(f"{label} contains a forbidden K_{{3,9}}")
        free_checked += 1

    rng = random.Random(1905)
    for trial in range(6):
        n = 24
        left = rng.sample(range(n), 3)
        right = rng.sample([v for v in range(n) if v not in left], 9)
        edges = {(min(a, b), max(a, b)) for a in left for b in right}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(50)}
        w = contains_kst(simple_graph(n, edges), 3, 9)
        if w is None:
            problems.append(f"planted K_{{3,9}} missed (trial {trial})")
    pairs = list(itertools.combinations(range(10), 2))
    for trial in range(6):
        left = rng.sample(range(10), 5)
        right = rng.sample(pairs, 7)
        edges = {(i, jk) for i in left for jk in right}
        edges |= {(rng.randrange(10), rng.choice(pairs)) for _ in range(40)}
        g = bipartite_graph(10, edges)
        w = contains_kst(g, 5, 7)
        if w is None or not witness_is_valid(g, w):
            problems.append(f"planted K_{{5,7}} missed (trial {trial})")
    _report(
        capsys,
        "5 edge-count oracle at 1e-9, freeness, planted detection",
        not problems,
        f"20 grid points, {free_checked} graphs certified free, 12 planted instances",
    )
    assert not problems, problems


def test_06_transfer_beats_pruning_asymptotically(capsys):
    problems = []
    grid = [10**k for k in range(1, 10)]
    n0 = crossover_n0(grid)
    if n0 != 10**7:
        problems.append(f"crossover moved: {n0}")
    for n in grid:
        if n >= (n0 or grid[-1]) and r3_transfer_log2(n) >= elias_bound_log2(n):
            problems.append(f"not below the pruning bound at n={n}")
    ideal = -0.4 * math.log2(10)
    checked = 0
    for a, b in zip(grid, grid[1:]):
        if tb_upper_detail(a, 3)[1] != "kst" or tb_upper_detail(b, 3)[1] != "kst":
            continue
        ra = r3_transfer_log2(a) - elias_bound_log2(a)
        rb = r3_transfer_log2(b) - elias_bound_log2(b)
        slope = rb - ra
        if abs(slope - ideal) > 0.1 * abs(ideal):
            problems.append(f"decade {a}->{b} slope {slope:.4f} vs {ideal:.4f}")
        checked += 1
    if checked < 3:
        problems.append(f"only {checked} usable decades")
    _report(
        capsys,
        "6 crossover recorded, n^(-2/5) decay per decade",
        not problems,
        f"N0 = {n0}, {checked} decade slopes within 10%",
    )
    assert not problems, problems


def test_07_prune_project_corollary(capsys, exact_layers, triple_codes):
    problems = []
    bases = [
        one_bounded(8),
        one_bounded(16),
        triple_codes[2],
        triple_codes[3],
        recursive_construction(2, 12),
    ]
    rng = random.Random(77007)
    chains = 0
    for base in bases:
        for _ in range(20):
            k = rng.randint(3, len(base))
            sub = Code(base.n, tuple(rng.sample(base.codewords, k)))
            chain = prune(sub)
            if len(chain[-1]) > 2:
                problems.append(f"chain ended at {len(chain[-1])}")
            for before, after in zip(chain, chain[1:]):
                if len(after) < len(before) - len(before) // 3:
                    problems.append("retention inequality violated")
            chains += 1
    projected = 0
    for code in list(triple_codes.values()) + [recursive_construction(2, 12)]:
        p = project(code, best_project(code))
        if not verify_trifferent(p).ok or p.r_bound != code.r_bound - 1:
            problems.append(f"projection of the r={code.r_bound} code misbehaves")
        projected += 1
    corollary_pairs = 0
    for (n, rr), size in sorted(exact_layers.items()):
        prev = exact_layers.get((n - 1, rr - 1))
        if prev is None or rr < 1:
            continue
        if size > n / rr * prev:
            problems.append(f"corrected factor fails at (n={n}, r+1={rr})")
        if rr >= 2 and size > n / (rr - 1) * prev:
            problems.append(f"weaker factor fails at (n={n}, r+1={rr})")
        corollary_pairs += 1
    _report(
        capsys,
        "7 pruning chains, projections, projection inequality",
        not problems,
        f"{chains} chains, {projected} projections, {corollary_pairs} exact pairs",
    )
    assert not problems, problems


def test_08_engine_matches_oracle_everywhere(capsys):
    problems = []
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        cert = max_trifferent(n, oracle_check=True, oracle_cap=81)
        oracle = oracle_max(enumerate_bad_triples(full_universe(n)), cap=81)
        if cert.best_size != oracle:
            problems.append(f"unrestricted n={n}: engine {cert.best_size} oracle {oracle}")
    layers = 0
    for n in range(1, 7):
        for r in range(0, n + 1):
            if comb(n, r) * 2 ** (n - r) > 81:
                continue
            cert = max_r_bounded(n, r)
            oracle = oracle_max(enumerate_bad_triples(a_r_universe(n, r)), cap=81)
            if cert.best_size != oracle:
                problems.append(f"layer ({n},{r}): engine {cert.best_size} oracle {oracle}")
            layers += 1
    dt = time.perf_counter() - t0
    if dt >= 300.0:
        problems.append(f"equivalence sweep took {dt:.0f}s")
    _report(
        capsys,
        "8 branch-and-bound equals the exhaustive oracle",
        not problems,
        f"4 unrestricted + {layers} layer instances in {dt:.1f}s",
    )
    assert not problems, problems
