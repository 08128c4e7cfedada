"""Command-line front end: construct, verify, search, bound, graph, and transforms.

Exit codes: 0 on success, 1 when a verification finds a violating triple
(the witness is printed) or a search disagrees with its oracle cross-check,
2 on usage or input errors.  Stochastic subcommands demand an explicit --seed
and echo it, so identical argv means identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# the parser reads search's defaults; the other layers are imported by the
# handlers that use them, so each command loads only what it runs
from . import core, search

SCHEMA = 1


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args) -> dict:
    skip = {"func"}
    return {
        k: (str(v) if not isinstance(v, (int, float, bool, str, type(None))) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def _write_code(code: core.Code, args) -> None:
    config_comment = "# config: " + json.dumps(_config(args), sort_keys=True)
    code = core.Code(
        code.n, code.codewords, comments=code.comments + (config_comment,)
    )
    text = core.format_triff(code)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args) -> int:
    from . import constructions

    if args.family == "one-bounded":
        code = constructions.one_bounded(args.n)
    elif args.family == "triple":
        if args.base:
            base = core.read_triff(args.base)
        else:
            base = constructions.one_bounded(
                max(1, math.ceil((args.q * args.q + args.q) / 2))
            )
        code = constructions.triple_construction(
            args.q, base, sigma_seed=args.sigma_seed
        )
    else:
        code = constructions.recursive_construction(args.t, args.target)
    _write_code(code, args)
    return 0


def _cmd_verify(args) -> int:
    code = core.read_triff(args.code)
    result = core.verify_trifferent(code, workers=args.workers)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "config": _config(args),
                "n": code.n,
                "size": len(code),
                "status": result.status,
                "witness": list(result.witness) if result.witness else None,
            },
            args,
        )
    else:
        print(f"# config: {json.dumps(_config(args), sort_keys=True)}")
        print(f"n={code.n} size={len(code)} status={result.status}")
        if result.witness:
            i, j, k = result.witness
            words = code.codewords
            print(f"witness: indices ({i}, {j}, {k})")
            print(f"  {words[i].string}")
            print(f"  {words[j].string}")
            print(f"  {words[k].string}")
    return 0 if result.ok else 1


def _cmd_search(args) -> int:
    if args.mode == "max":
        cert = search.max_trifferent(
            args.n,
            budget=args.budget,
            cap=args.cap,
            symmetry=not args.no_symmetry,
            bound=args.bound or "size",
            oracle_check=args.oracle,
            oracle_cap=args.oracle_cap,
        )
    else:
        cert = search.max_r_bounded(
            args.n,
            args.r,
            budget=args.budget,
            universe_cap=args.universe_cap,
            symmetry=not args.no_symmetry,
            bound=args.bound or "support",
            oracle_check=args.oracle,
            oracle_cap=args.oracle_cap,
        )
    if args.table:
        try:
            table = search.load_results_table(args.table)
        except FileNotFoundError:
            table = {}
        search.record_certificate(table, cert)
        search.save_results_table(args.table, table)
    payload = search.certificate_to_json(cert)
    payload["config"] = _config(args)
    _emit(payload, args)
    return 0


def _cmd_bound(args) -> int:
    from . import bounds

    if args.what == "zarankiewicz":
        value = bounds.zarankiewicz_bound(args.u, args.v, args.s, args.t)
        _emit(
            {
                "schema": SCHEMA,
                "config": _config(args),
                "value": value,
                "edge_bound": bounds.zarankiewicz_edge_bound(
                    args.u, args.v, args.s, args.t
                ),
            },
            args,
        )
        return 0
    if args.what == "transfer":
        try:
            value = bounds.transfer_bound(args.n, args.r, args.tb)
        except OverflowError:
            value = None
        _emit(
            {
                "schema": SCHEMA,
                "config": _config(args),
                "value": value,
                "log2_value": bounds.transfer_bound_log2(args.n, args.r, args.tb),
            },
            args,
        )
        return 0
    if args.what == "deficit":
        if args.tb is not None:
            if args.n is None:
                raise ValueError("deficit with --tb needs --n")
            est = bounds.deficit(args.n, args.r, args.tb, tb_kind=args.kind)
            payload = {
                "schema": SCHEMA,
                "config": _config(args),
                "delta": est.delta,
                "delta_kind": est.delta_kind,
            }
        else:
            payload = {
                "schema": SCHEMA,
                "config": _config(args),
                "delta_upper": bounds.deficit_upper(args.r),
            }
        _emit(payload, args)
        return 0
    # report
    exact = search.load_results_table(args.exact_table) if args.exact_table else None
    codes = {}
    for path in args.code or []:
        codes[path] = core.read_triff(path)
    report = bounds.bound_report(args.n, exact_tb=exact, codes=codes)
    payload = report.to_json()
    payload["config"] = _config(args)
    _emit(payload, args)
    return 0


def _load_graph(args):
    """The graphs.DerivedGraph of args.code; kind auto picks it from the code's r."""
    from . import graphs

    code = core.read_triff(args.code)
    kind = args.kind
    if kind == "auto":
        if code.r_bound == 2:
            kind = "r2"
        elif code.r_bound == 3:
            kind = "r3"
        else:
            raise ValueError(
                "graph kind cannot be inferred; the code is neither 2- nor 3-bounded"
            )
    if kind == "r2":
        return graphs.build_graph_r2(code)
    return graphs.build_graph_r3(code)


def _cmd_graph(args) -> int:
    from . import graphs

    g = _load_graph(args)
    if args.action == "build":
        if args.edges:
            with open(args.edges, "w", encoding="utf-8") as fh:
                fh.write(graphs.edge_list_text(g))
        payload = graphs.graph_summary(g)
        payload["config"] = _config(args)
        _emit(payload, args)
        return 0
    if args.action == "kst-check":
        witness = graphs.contains_kst(g, args.s, args.t)
        _emit(
            {
                "schema": SCHEMA,
                "config": _config(args),
                "s": args.s,
                "t": args.t,
                "free": witness is None,
                "witness": None
                if witness is None
                else {
                    "left": list(witness.left),
                    "right": [list(x) if isinstance(x, tuple) else x for x in witness.right],
                },
            },
            args,
        )
        return 0
    stats = graphs.random_bipartition_check(
        g, seed=args.seed, trials=args.trials, exhaustive=args.exhaustive
    )
    _emit(
        {
            "schema": SCHEMA,
            "config": _config(args),
            "n": stats.n,
            "edge_count": stats.edge_count,
            "trials": stats.trials,
            "seed": stats.seed,
            "exhaustive": stats.exhaustive,
            "mean_crossing_fraction": stats.mean_crossing_fraction,
            "expected_edge_crossing": stats.expected_edge_crossing,
        },
        args,
    )
    return 0


def _cmd_sample_shift(args) -> int:
    code = core.read_triff(args.code)
    stats = core.shift_density_sample(
        code, args.r, trials=args.trials, seed=args.seed, exhaustive=args.exhaustive
    )
    _emit(
        {
            "schema": SCHEMA,
            "config": _config(args),
            "n": stats.n,
            "r": stats.r,
            "code_size": stats.code_size,
            "trials": stats.trials,
            "seed": stats.seed,
            "exhaustive": stats.exhaustive,
            "mean": stats.mean,
            "mean_fraction": str(stats.mean_fraction),
            "max_count": stats.max_count,
            "expectation": str(stats.expectation),
            "expectation_float": float(stats.expectation),
        },
        args,
    )
    return 0


def _cmd_prune(args) -> int:
    code = core.read_triff(args.code)
    chain = core.prune(code)
    _emit(
        {
            "schema": SCHEMA,
            "config": _config(args),
            "sizes": [len(c) for c in chain],
            "final_size": len(chain[-1]),
            "final_code": [w.string for w in chain[-1]],
        },
        args,
    )
    return 0


def _cmd_project(args) -> int:
    code = core.read_triff(args.code)
    i = core.best_project(code) if args.best else args.i
    if i is None:
        raise ValueError("pass --i INDEX or --best")
    projected = core.project(code, i)
    projected = core.Code(
        projected.n,
        projected.codewords,
        comments=(f"# projected coordinate={i} from n={code.n} size={len(code)}",),
    )
    _write_code(projected, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifference",
        description="Trifferent code constructions, verification, search, and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a .triff code")
    fam = p.add_subparsers(dest="family", required=True)
    f = fam.add_parser("one-bounded")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("-o", "--output")
    f.set_defaults(func=_cmd_construct)
    f = fam.add_parser("triple")
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--base", help="base .triff code (default: a 1-bounded family)")
    f.add_argument("--sigma-seed", type=int, default=None)
    f.add_argument("-o", "--output")
    f.set_defaults(func=_cmd_construct)
    f = fam.add_parser("recursive")
    f.add_argument("--t", type=int, required=True)
    f.add_argument("--target", type=int, required=True)
    f.add_argument("-o", "--output")
    f.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check trifference, exit 1 with a witness on failure")
    p.add_argument("code")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exact maximum code search")
    mode = p.add_subparsers(dest="mode", required=True)
    m = mode.add_parser("max")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--budget", type=int, default=None)
    m.add_argument("--cap", type=int, default=search.DEFAULT_N_CAP)
    m.add_argument("--no-symmetry", action="store_true")
    m.add_argument("--bound", choices=["size", "support"], default=None)
    m.add_argument("--oracle", action="store_true")
    m.add_argument("--oracle-cap", type=int, default=search.DEFAULT_ORACLE_CAP)
    m.add_argument("--table", help="results table JSON to update")
    m.add_argument("-o", "--output")
    m.set_defaults(func=_cmd_search)
    m = mode.add_parser("max-r")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--r", type=int, required=True)
    m.add_argument("--budget", type=int, default=None)
    m.add_argument("--universe-cap", type=int, default=search.DEFAULT_UNIVERSE_CAP)
    m.add_argument("--no-symmetry", action="store_true")
    m.add_argument("--bound", choices=["size", "support"], default=None)
    m.add_argument("--oracle", action="store_true")
    m.add_argument("--oracle-cap", type=int, default=search.DEFAULT_ORACLE_CAP)
    m.add_argument("--table", help="results table JSON to update")
    m.add_argument("-o", "--output")
    m.set_defaults(func=_cmd_search)

    p = sub.add_parser("bound", help="bounds and reports")
    what = p.add_subparsers(dest="what", required=True)
    w = what.add_parser("report")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--exact-table", help="results table JSON from search runs")
    w.add_argument("--code", action="append", help="rate line for this .triff file")
    w.add_argument("-o", "--output")
    w.set_defaults(func=_cmd_bound)
    w = what.add_parser("zarankiewicz")
    w.add_argument("--u", type=int, required=True)
    w.add_argument("--v", type=int, required=True)
    w.add_argument("--s", type=int, required=True)
    w.add_argument("--t", type=int, required=True)
    w.add_argument("-o", "--output")
    w.set_defaults(func=_cmd_bound)
    w = what.add_parser("transfer")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--r", type=int, required=True)
    w.add_argument("--tb", type=float, required=True)
    w.add_argument("-o", "--output")
    w.set_defaults(func=_cmd_bound)
    w = what.add_parser("deficit")
    w.add_argument("--r", type=int, required=True)
    w.add_argument("--n", type=int, default=None)
    w.add_argument("--tb", type=float, default=None)
    w.add_argument("--kind", choices=["exact", "lower", "upper"], default="exact")
    w.add_argument("-o", "--output")
    w.set_defaults(func=_cmd_bound)

    p = sub.add_parser("graph", help="derived graphs and forbidden-subgraph checks")
    action = p.add_subparsers(dest="action", required=True)
    a = action.add_parser("build")
    a.add_argument("code")
    a.add_argument("--kind", choices=["auto", "r2", "r3"], default="auto")
    a.add_argument("--edges", help="write the edge list to this file")
    a.add_argument("-o", "--output")
    a.set_defaults(func=_cmd_graph)
    a = action.add_parser("kst-check")
    a.add_argument("code")
    a.add_argument("--kind", choices=["auto", "r2", "r3"], default="auto")
    a.add_argument("--s", type=int, required=True)
    a.add_argument("--t", type=int, required=True)
    a.add_argument("-o", "--output")
    a.set_defaults(func=_cmd_graph)
    a = action.add_parser("bipartition")
    a.add_argument("code")
    a.add_argument("--kind", choices=["auto", "r2", "r3"], default="auto")
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--trials", type=int, default=1000)
    a.add_argument("--exhaustive", action="store_true")
    a.add_argument("-o", "--output")
    a.set_defaults(func=_cmd_graph)

    p = sub.add_parser("sample-shift", help="density of shifted codes in the r-layer")
    p.add_argument("code")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_sample_shift)

    p = sub.add_parser("prune", help="coordinate pruning chain sizes")
    p.add_argument("code")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("project", help="restrict to 2-at-i codewords, drop coordinate i")
    p.add_argument("code")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--best", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_project)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except search.OracleDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
