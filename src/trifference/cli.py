"""Command-line front end: construct, verify, search, bound, graph, and transforms.

Exit codes: 0 on success, 1 when a verification finds a violating triple
(the witness is printed) or a search disagrees with its oracle cross-check,
2 on usage or input errors.  Stochastic subcommands demand an explicit --seed
and echo it, so identical argv means identical output.

Each handler returns (body, exit_code) and writes nothing; run renders the
body once (_render) and writes it to -o or stdout.  A command that also
writes a side file (search --table, graph build --edges) returns a third
item, a function that writes it, which run calls only once the output is
written, so a failed -o leaves every side file as it was.
"""

from __future__ import annotations

import argparse
import json
import sys

# the other layers are imported by the handlers that use them, so each
# command loads only what it runs
from . import core

SCHEMA = 1


def _int(text: str) -> int:
    """int(text) under the .triff parser's digit rule, after an optional leading '-'."""
    if not core._is_digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not core._is_digits(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _float(text: str) -> float:
    try:
        return float(text.encode("ascii"))  # float() of a str also reads digits such as '٨'
    except ValueError:  # UnicodeEncodeError among them
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _config(args) -> dict:
    skip = {"func"}
    return {
        k: (str(v) if not isinstance(v, (int, float, bool, str, type(None))) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def _render(body, args) -> str:
    """The text of a handler's body: JSON for a dict, .triff for a Code, else text lines.

    Each form carries the resolved configuration: a "config" key, a trailing
    "# config:" comment, or a leading "# config:" line.
    """
    if isinstance(body, dict):
        payload = {"schema": SCHEMA, **body, "config": _config(args)}
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    config_line = "# config: " + json.dumps(_config(args), sort_keys=True)
    if isinstance(body, core.Code):
        return core.format_triff(
            core.Code(body.n, body.codewords, comments=body.comments + (config_line,))
        )
    return "\n".join([config_line, *body]) + "\n"


def _cmd_construct(args):
    from . import constructions

    if args.family == "one-bounded":
        code = constructions.one_bounded(args.n)
    elif args.family == "triple":
        base = core.read_triff(args.base) if args.base else None
        code = constructions.triple_construction(
            args.q, base, sigma_seed=args.sigma_seed
        )
    else:
        code = constructions.recursive_construction(args.t, args.target)
    return code, 0


def _cmd_verify(args):
    code = core.read_triff(args.code)
    result = core.verify_trifferent(code, workers=args.workers)
    exit_code = 0 if result.ok else 1
    if args.json:
        witness = list(result.witness) if result.witness else None
        body = {"n": code.n, "size": len(code), "status": result.status, "witness": witness}
        return body, exit_code
    lines = [f"n={code.n} size={len(code)} status={result.status}"]
    if result.witness:
        i, j, k = result.witness
        lines.append(f"witness: indices ({i}, {j}, {k})")
        lines += [f"  {code.codewords[x].string}" for x in result.witness]
    return lines, exit_code


def _cmd_search(args):
    from . import search

    # the parser leaves the caps None, so that it needs no search import;
    # they are filled in here, before the config echo reads them
    for name, default in (("cap", search.DEFAULT_CAP), ("oracle_cap", search.DEFAULT_ORACLE_CAP)):
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.mode == "max":
        solve, own = search.max_trifferent, {}
    else:
        solve, own = search.max_r_bounded, {"r": args.r}
    if args.bound:  # unset, each search keeps its own default rule
        own["bound"] = args.bound
    cert = solve(
        args.n,
        budget=args.budget,
        cap=args.cap,
        symmetry=not args.no_symmetry,
        oracle_check=args.oracle,
        oracle_cap=args.oracle_cap,
        **own,
    )
    body = search.certificate_to_json(cert)
    if not args.table:
        return body, 0
    try:
        table = search.load_results_table(args.table)
    except FileNotFoundError:
        table = {}
    search.record_certificate(table, cert)
    return body, 0, lambda: search.save_results_table(args.table, table)


def _cmd_bound(args):
    from . import bounds

    if args.what == "zarankiewicz":
        return {
            "value": bounds.zarankiewicz_bound(args.u, args.v, args.s, args.t),
            "edge_bound": bounds.zarankiewicz_edge_bound(args.u, args.v, args.s, args.t),
        }, 0
    if args.what == "transfer":
        entry = bounds._transfer_entry("transfer", args.n, args.r, args.tb)
        return {"value": entry.value, "log2_value": entry.log2_value}, 0
    if args.what == "deficit":
        if args.tb is None:
            return {"delta_upper": bounds.deficit_upper(args.r)}, 0
        if args.n is None:
            raise ValueError("deficit with --tb needs --n")
        est = bounds.deficit(args.n, args.r, args.tb, tb_kind=args.kind)
        return {"delta": est.delta, "delta_kind": est.delta_kind}, 0
    # report
    exact = None
    if args.exact_table:
        from . import search

        exact = search.load_results_table(args.exact_table)
    codes = {path: core.read_triff(path) for path in args.code or []}
    return bounds.bound_report(args.n, exact_tb=exact, codes=codes).to_json(), 0


def _load_graph(args):
    """The graphs.DerivedGraph of args.code; kind auto takes r from the code."""
    from . import graphs

    code = core.read_triff(args.code)
    r = code.r_bound if args.kind == "auto" else int(args.kind[1:])
    if r not in (2, 3):
        raise ValueError(
            "graph kind cannot be inferred; the code is neither 2- nor 3-bounded"
        )
    return graphs.build_graph_r2(code) if r == 2 else graphs.build_graph_r3(code)


def _cmd_graph(args):
    from . import graphs

    g = _load_graph(args)
    if args.action == "build":
        if not args.edges:
            return graphs.graph_summary(g), 0
        edges = graphs.edge_list_text(g)

        def write_edges():
            with open(args.edges, "w", encoding="utf-8") as fh:
                fh.write(edges)

        return graphs.graph_summary(g), 0, write_edges
    if args.action == "kst-check":
        witness = graphs.contains_kst(g, args.s, args.t)
        body = {"s": args.s, "t": args.t, "free": witness is None, "witness": None}
        if witness is not None:
            right = [list(x) if isinstance(x, tuple) else x for x in witness.right]
            body["witness"] = {"left": list(witness.left), "right": right}
        return body, 0
    stats = graphs.random_bipartition_check(
        g, seed=args.seed, trials=args.trials, exhaustive=args.exhaustive
    )
    return stats._asdict(), 0


def _cmd_sample_shift(args):
    code = core.read_triff(args.code)
    stats = core.shift_density_sample(
        code, args.r, trials=args.trials, seed=args.seed, exhaustive=args.exhaustive
    )
    return {
        **stats._asdict(),
        "mean": stats.mean,
        "mean_fraction": str(stats.mean_fraction),
        "expectation": str(stats.expectation),
        "expectation_float": float(stats.expectation),
    }, 0


def _cmd_prune(args):
    chain = core.prune(core.read_triff(args.code))
    return {
        "sizes": [len(c) for c in chain],
        "final_size": len(chain[-1]),
        "final_code": [w.string for w in chain[-1]],
    }, 0


def _cmd_project(args):
    code = core.read_triff(args.code)
    i = core.best_project(code) if args.best else args.i
    if i is None:
        raise ValueError("pass --i INDEX or --best")
    projected = core.project(code, i)
    comment = f"# projected coordinate={i} from n={code.n} size={len(code)}"
    return core.Code(projected.n, projected.codewords, comments=(comment,)), 0


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command, or, given argv, of the one command argv runs.

    Every command is listed with its help text, but with argv only the
    command named by its first token that does not start with "-" gets its
    arguments and sub-commands.  The top level's only option, -h, takes no
    value, so argparse takes that token for the command, unless an earlier
    one such as "--" or "-5" counts as positional; no command name starts
    with "-", so parsing then fails at the top level before it reads any
    command's parser.  Either parser thus prints the same help, errors and
    results for argv.
    """
    parser = argparse.ArgumentParser(
        prog="trifference",
        description="Trifferent code constructions, verification, search, and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = None if argv is None else next((t for t in argv if not t.startswith("-")), None)
    leaves = []

    def leaf(subparsers, name, func, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        leaves.append(p)
        return p

    def command(name, help_text, func=None):
        """The command's parser, a leaf if func is given, or None if argv runs another."""
        if argv is not None and name != named:
            sub.add_parser(name, help=help_text)
            return None
        return leaf(sub, name, func, help=help_text) if func else sub.add_parser(name, help=help_text)

    if p := command("construct", "emit a .triff code"):
        fam = p.add_subparsers(dest="family", required=True)
        f = leaf(fam, "one-bounded", _cmd_construct)
        f.add_argument("--n", type=_int, required=True)
        f = leaf(fam, "triple", _cmd_construct)
        f.add_argument("--q", type=_int, required=True)
        f.add_argument("--base", help="base .triff code (default: a 1-bounded family)")
        f.add_argument("--sigma-seed", type=_int, default=None)
        f = leaf(fam, "recursive", _cmd_construct)
        f.add_argument("--t", type=_int, required=True)
        f.add_argument("--target", type=_int, required=True)

    if p := command("verify", "check trifference, exit 1 with a witness on failure", _cmd_verify):
        p.add_argument("code")
        p.add_argument("--workers", type=_positive_int, default=1)
        p.add_argument("--json", action="store_true")

    if p := command("search", "exact maximum code search"):
        mode = p.add_subparsers(dest="mode", required=True)
        m_max = leaf(mode, "max", _cmd_search)
        m_max.add_argument("--n", type=_int, required=True)
        m_max.add_argument("--budget", type=_positive_int, default=None)
        m_r = leaf(mode, "max-r", _cmd_search)
        m_r.add_argument("--n", type=_int, required=True)
        m_r.add_argument("--r", type=_int, required=True)
        m_r.add_argument("--budget", type=_positive_int, default=None)
        for m in (m_max, m_r):
            m.add_argument("--cap", type=_positive_int, default=None)
            m.add_argument("--no-symmetry", action="store_true")
            m.add_argument("--bound", choices=["size", "support"], default=None)
            m.add_argument("--oracle", action="store_true")
            m.add_argument("--oracle-cap", type=_positive_int, default=None)
            m.add_argument("--table", help="results table JSON to update")

    if p := command("bound", "bounds and reports"):
        what = p.add_subparsers(dest="what", required=True)
        w = leaf(what, "report", _cmd_bound)
        w.add_argument("--n", type=_int, required=True)
        w.add_argument("--exact-table", help="results table JSON from search runs")
        w.add_argument("--code", action="append", help="rate line for this .triff file")
        w = leaf(what, "zarankiewicz", _cmd_bound)
        for name in ("--u", "--v", "--s", "--t"):
            w.add_argument(name, type=_int, required=True)
        w = leaf(what, "transfer", _cmd_bound)
        w.add_argument("--n", type=_int, required=True)
        w.add_argument("--r", type=_int, required=True)
        w.add_argument("--tb", type=_float, required=True)
        w = leaf(what, "deficit", _cmd_bound)
        w.add_argument("--r", type=_int, required=True)
        w.add_argument("--n", type=_int, default=None)
        w.add_argument("--tb", type=_float, default=None)
        w.add_argument("--kind", choices=["exact", "lower", "upper"], default="exact")

    if p := command("graph", "derived graphs and forbidden-subgraph checks"):
        action = p.add_subparsers(dest="action", required=True)
        graph_input = argparse.ArgumentParser(add_help=False)
        graph_input.add_argument("code")
        graph_input.add_argument("--kind", choices=["auto", "r2", "r3"], default="auto")
        a = leaf(action, "build", _cmd_graph, parents=[graph_input])
        a.add_argument("--edges", help="write the edge list to this file")
        a = leaf(action, "kst-check", _cmd_graph, parents=[graph_input])
        a.add_argument("--s", type=_int, required=True)
        a.add_argument("--t", type=_int, required=True)
        a = leaf(action, "bipartition", _cmd_graph, parents=[graph_input])
        a.add_argument("--seed", type=_int, default=None)
        a.add_argument("--trials", type=_int, default=1000)
        a.add_argument("--exhaustive", action="store_true")

    if p := command("sample-shift", "density of shifted codes in the r-layer", _cmd_sample_shift):
        p.add_argument("code")
        p.add_argument("--r", type=_int, required=True)
        p.add_argument("--trials", type=_int, default=10000)
        p.add_argument("--seed", type=_int, default=None)
        p.add_argument("--exhaustive", action="store_true")

    if p := command("prune", "coordinate pruning chain sizes", _cmd_prune):
        p.add_argument("code")

    if p := command("project", "restrict to 2-at-i codewords, drop coordinate i", _cmd_project):
        p.add_argument("code")
        p.add_argument("--i", type=_int, default=None)
        p.add_argument("--best", action="store_true")

    # last, so every usage line ends with it
    for p in leaves:
        p.add_argument("-o", "--output")
    return parser


def run(argv=None) -> int:
    """Parse argv, run its handler, write the rendered body to -o or stdout, then side files."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        body, exit_code, *side_files = args.func(args)
        text = _render(body, args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        for write in side_files:
            write()
        return exit_code
    except core.OracleDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
