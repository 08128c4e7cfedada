"""Span recording around the trifference layers, and the per-layer metrics.

``Tracer.install`` replaces every function listed in a layer module's
``__all__`` (and every name that sibling modules imported from it) with a
wrapper that records a span: name, start, end, parent span and run id.
``cli.run`` is the root span of each CLI command.  Spans stay in memory
until the traced run has ended, when ``run.py`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass

LAYERS = ("core", "constructions", "graphs", "bounds", "search")
# Per-triple and per-word helpers: a span on each call would cost more than the call.
UNTRACED = {"is_trifferent_triple", "naive_trifferent_triple", "add_codewords", "count_A_r"}


def _work(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Counts recorded with a span, read from the call's arguments and result."""
    if name == "core.parse_triff":
        return {"bytes": len(args[0])}
    if name == "core.verify_trifferent":
        return {
            "words": len(args[0]),
            "workers": kwargs.get("workers", args[1] if len(args) > 1 else 1),
            "witness": result.witness,
        }
    if name == "core.shift_density_sample":
        return {"trials": result.trials}
    if name in ("constructions.one_bounded", "constructions.triple_construction",
                "constructions.recursive_construction", "search.full_universe",
                "search.a_r_universe"):
        return {"words": len(result)}
    if name == "search.enumerate_bad_triples":
        return {"bad": result.bad_count}
    if name in ("search.max_trifferent", "search.max_r_bounded"):
        return {"nodes": result.nodes_explored, "optimal": result.status == "optimal"}
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    work: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.work = _work(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        cli = importlib.import_module("trifference.cli")
        package = importlib.import_module("trifference")
        modules = [importlib.import_module(f"trifference.{layer}") for layer in LAYERS]
        targets = [(layer, mod, name) for layer, mod in zip(LAYERS, modules) for name in mod.__all__]
        targets.append(("cli", cli, "run"))
        for layer, mod, name in targets:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn) or name in UNTRACED:
                continue
            traced = self._wrap(f"{layer}.{name}", fn)
            for holder in (package, cli, *modules):
                for attr in [a for a, v in vars(holder).items() if v is fn]:
                    self._patched.append((holder, attr, fn))
                    setattr(holder, attr, traced)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()


def _triples_scanned(m: int, witness) -> int:
    """C(m, 3) for an accepted code, else the lexicographic rank of the witness."""
    if witness is None:
        return math.comb(m, 3)
    i, j, k = witness
    before_i = math.comb(m, 3) - math.comb(m - i, 3)
    before_j = math.comb(m - i - 1, 2) - math.comb(m - j, 2)
    return before_i + before_j + (k - j)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from the spans of one traced pass."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def of(*names):
        return [(i, s) for i, s in enumerate(spans) if s.name in names]

    def outer(*names):
        """Spans of these names with no ancestor of these names: (seconds, calls)."""
        keep = []
        for i, s in of(*names):
            p = s.parent
            while p is not None and spans[p].name not in names:
                p = spans[p].parent
            if p is None:
                keep.append(s)
        return sum(s.end - s.start for s in keep), len(keep)

    def work(picked, key):
        """Sum of a recorded count; calls that raised recorded none."""
        return sum(s.work[key] for _, s in picked if s.work)

    def self_time(picked):
        return sum(s.end - s.start - child_time[i] for i, s in picked)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}

    def timed(metric, seconds_calls):
        seconds, calls = seconds_calls
        out[f"{metric}.s"] = (seconds, "s")
        out[f"{metric}.calls"] = (calls, "count")
        return seconds

    def timed_self(metric, picked):
        seconds = self_time(picked)
        out[f"{metric}.self_s"] = (seconds, "s")
        out[f"{metric}.calls"] = (len(picked), "count")
        return seconds

    timed_self("cli.run", of("cli.run"))

    parse_s = timed("core.parse_triff", outer("core.parse_triff"))
    parse_kb = work(of("core.parse_triff"), "bytes") / 1000
    out["core.parse_triff.kb_per_s"] = (ratio(parse_kb, parse_s), "kB/s")
    timed("core.format_triff", outer("core.format_triff"))

    # a call that raised recorded no counts and is left out
    verify = [(i, s) for i, s in of("core.verify_trifferent") if s.work]
    verify_s = timed_self("core.verify_trifferent", verify)
    triples = sum(_triples_scanned(s.work["words"], s.work["witness"]) for _, s in verify)
    out["core.verify_trifferent.triples"] = (triples, "count")
    out["core.verify_trifferent.triples_per_s"] = (ratio(triples, verify_s), "1/s")
    # serial over two-worker self time, on code sizes verified both ways
    sizes = {s.work["words"] for _, s in verify if s.work["workers"] <= 1} & {
        s.work["words"] for _, s in verify if s.work["workers"] >= 2
    }
    serial = self_time([(i, s) for i, s in verify if s.work["words"] in sizes and s.work["workers"] <= 1])
    parallel = self_time([(i, s) for i, s in verify if s.work["words"] in sizes and s.work["workers"] >= 2])
    out["core.verify_trifferent.speedup_w2"] = (ratio(serial, parallel), "1")
    rejected = [(i, s) for i, s in verify if s.work["witness"] is not None]
    out["core.verify_trifferent.reject_s"] = (self_time(rejected), "s")
    out["core.verify_trifferent.reject_calls"] = (len(rejected), "count")

    shift = of("core.shift_density_sample")
    shift_s = timed_self("core.shift_density_sample", shift)
    trials = work(shift, "trials")
    out["core.shift_density_sample.trials_per_s"] = (ratio(trials, shift_s), "1/s")
    timed("core.prune", outer("core.prune"))
    timed("core.project", outer("core.project", "core.best_project"))

    timed_self("constructions.triple_construction", of("constructions.triple_construction"))
    timed("constructions.recursive_construction", outer("constructions.recursive_construction"))
    families = ("constructions.one_bounded", "constructions.triple_construction",
                "constructions.recursive_construction")
    built = [
        (i, s) for i, s in of(*families)
        if s.parent is None or spans[s.parent].name not in families
    ]
    out["constructions.words_per_s"] = (
        ratio(work(built, "words"), sum(s.end - s.start for _, s in built)), "1/s"
    )

    timed("graphs.build", outer("graphs.build_graph_r2", "graphs.build_graph_r3"))
    timed("graphs.contains_kst", outer("graphs.contains_kst"))
    timed("graphs.random_bipartition_check", outer("graphs.random_bipartition_check"))

    timed("bounds.bound_report", outer("bounds.bound_report", "bounds.crossover_n0"))

    timed("search.universe", outer("search.full_universe", "search.a_r_universe"))
    out["search.universe.words"] = (work(of("search.full_universe", "search.a_r_universe"), "words"), "count")
    solve = of("search.max_trifferent", "search.max_r_bounded")
    solve_s = timed_self("search.solve", solve)
    nodes = work(solve, "nodes")
    out["search.nodes"] = (nodes, "count")
    out["search.nodes_per_s"] = (ratio(nodes, solve_s), "1/s")
    timed("search.oracle", outer("search.enumerate_bad_triples", "search.oracle_max"))
    out["search.bad_triples"] = (work(of("search.enumerate_bad_triples"), "bad"), "count")
    timed("search.table", outer("search.load_results_table", "search.save_results_table"))
    out["search.certified_ratio"] = (ratio(work(solve, "optimal"), len(solve)), "1")
    return out
