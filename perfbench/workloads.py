"""Workloads of the benchmark: seeded inputs, fixed CLI argv lists, output checks.

Every workload is a fixed list of ``trifference`` CLI commands run in one
working directory.  ``build_inputs`` makes the inputs from the seed with the library
itself; the program under test only ever sees the generated ``.triff`` files
and the argv lists.  Each command names a check kind; ``observe`` turns a
command's exit code and output into the fields that are compared with the
values frozen in ``expected.json`` (see ``run.py --freeze``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from trifference import constructions, core, search


@dataclass(frozen=True)
class Cmd:
    id: str
    argv: tuple[str, ...]
    # "stdout": exit code and stdout digest (plus digests of `files`);
    # "code": like "stdout", and the written file verifies and keeps its size;
    # "search": certificate fields, the emitted code verifies, and its size
    #   matches the oracle optimum where set-up computed one;
    # "search-budgeted": the emitted code verifies and has best_size words;
    # "witness": exit 1 with the planted witness, re-checked naively.
    kind: str
    files: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    why: str
    commands: tuple[Cmd, ...]
    # (seed, workdir) -> reference values for the checks, keyed by input file
    # name (planted witnesses) or by command id (oracle optima)
    build_inputs: Callable[[int, Path], dict]
    # files removed before every pass, so each pass starts from the same state
    reset: tuple[str, ...] = ()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def triple_code(q: int) -> core.Code:
    """The affine triple code for prime q, built exactly as `construct triple` does."""
    base = constructions.one_bounded(-(-(q * q + q) // 2))
    return constructions.triple_construction(q, base)


# ---------------------------------------------------------------------------
# verify-search: the two heavy kernels, a full triple scan and exact search.
# They share one workload so that a run can last long enough to average out
# the minute-scale drift of a shared host's speed.
# ---------------------------------------------------------------------------

SUBSET_WORDS = 500

# The exhaustive oracle can run on these instances: command id -> (n, r), r
# None for the full universe.  Set-up computes their optima with the library,
# and every pass's certificate must match them.
ORACLE_REFERENCES = {"max-r-4-1-oracle": (4, 1), "max-3-oracle": (3, None)}


def _verify_search_inputs(seed: int, workdir: Path) -> dict:
    q11 = triple_code(11)
    words = random.Random(seed).sample(q11.codewords, SUBSET_WORDS)
    core.write_triff(core.Code(q11.n, tuple(words)), workdir / "q11-subset.triff")
    core.write_triff(triple_code(7), workdir / "q7.triff")
    refs = {}
    for cmd_id, (n, r) in ORACLE_REFERENCES.items():
        universe = search.full_universe(n) if r is None else search.a_r_universe(n, r)
        refs[cmd_id] = search.oracle_max(search.enumerate_bad_triples(universe), cap=32)
    return refs


VERIFY_SEARCH = Workload(
    name="verify-search",
    why=(
        "A full triple scan in core.verify_trifferent on a seeded 500-word "
        "q=11 subset (workers 1/2 expose parallel balance; the m^2*n-byte diff "
        "temporary sets peak RSS) and the q=7 code; then exact branch-and-bound "
        "and pair masks: (6,1) is time to certify, the budgeted T(5) isolates "
        "per-node speed, and the results table is written then read by bounds. "
        "The searched instances are fixed; the seed picks the subset."
    ),
    commands=(
        Cmd("verify-subset-w1", ("verify", "q11-subset.triff", "--workers", "1"), "stdout"),
        Cmd("verify-subset-w2", ("verify", "q11-subset.triff", "--workers", "2"), "stdout"),
        Cmd("verify-q7", ("verify", "q7.triff"), "stdout"),
        Cmd("max-r-6-1", ("search", "max-r", "--n", "6", "--r", "1", "--table", "results.json"), "search"),
        Cmd("max-r-5-2", ("search", "max-r", "--n", "5", "--r", "2", "--table", "results.json"), "search"),
        Cmd(
            "max-r-4-1-oracle",
            ("search", "max-r", "--n", "4", "--r", "1", "--oracle", "--oracle-cap", "32",
             "--table", "results.json"),
            "search",
        ),
        Cmd("max-4", ("search", "max", "--n", "4"), "search"),
        Cmd("max-3-oracle", ("search", "max", "--n", "3", "--oracle"), "search"),
        Cmd(
            "max-5-budget",
            ("search", "max", "--n", "5", "--cap", "5", "--budget", "200000"),
            "search-budgeted",
        ),
        Cmd("report-6-table", ("bound", "report", "--n", "6", "--exact-table", "results.json"), "stdout"),
    ),
    build_inputs=_verify_search_inputs,
    reset=("results.json",),
)


# ---------------------------------------------------------------------------
# toolchain: short chained commands; startup, parse/format, early-exit verify.
# ---------------------------------------------------------------------------

# The planted violations sit at these fractions of the sorted code's ranks,
# so the scan length before the witness is the same for every seed.
PLANT_FRACTIONS = {"planted-early.triff": 0.1, "planted-late.triff": 0.6}


def plant_violation(code: core.Code, frac: float, rng: random.Random) -> tuple[core.Code, tuple]:
    """Add a word so that the first violating triple is (a, a+1, last), a = frac * |code|.

    k new leading coordinates keep every other triple separated: the first a
    words get distinct binary prefixes that each hold a 0, the rest get all
    ones, and the new word gets all twos.  Its tail mixes, at random, the words
    x, y at ranks a and a+1, so (x, y, new) is separated nowhere; any other
    violation also pairs the new word with two all-ones words, which sort at
    rank a or later.  Returns the code and its witness.
    """
    strings = [w.string for w in code.codewords]
    a = int(frac * len(strings))
    k = a.bit_length()  # the prefixes 0..a-1 fit in k bits and none is all ones
    x, y = strings[a], strings[a + 1]
    z = "".join(rng.choice(pair) for pair in zip(x, y))
    planted = core.Code.from_strings(
        [format(i, f"0{k}b") + s for i, s in enumerate(strings[:a])]
        + ["1" * k + s for s in strings[a:]]
        + ["2" * k + z]
    )
    return planted, (a, a + 1, len(strings))


def _toolchain_inputs(seed: int, workdir: Path) -> dict:
    q7 = triple_code(7)
    core.write_triff(q7, workdir / "q7.triff")
    rng = random.Random(seed)
    witnesses = {}
    for name, frac in PLANT_FRACTIONS.items():
        planted, witness = plant_violation(q7, frac, rng)
        core.write_triff(planted, workdir / name)
        witnesses[name] = witness
    return witnesses


def _verify_planted(name: str) -> tuple[Cmd, Cmd]:
    stem = name.removesuffix(".triff")
    return tuple(
        Cmd(f"verify-{stem}-w{w}", ("verify", name, "--workers", str(w)), "witness")
        for w in (1, 2)
    )


TOOLCHAIN = Workload(
    name="toolchain",
    why=(
        "About 15 short chained commands: interpreter start, numpy import, "
        "parse/format and per-word Python loops dominate, with writes beside "
        "reads and a verifier that must exit early on a planted violation."
    ),
    commands=(
        Cmd("construct-one-bounded", ("construct", "one-bounded", "--n", "12", "-o", "ob12.triff"), "code", ("ob12.triff",)),
        Cmd(
            "construct-triple",
            ("construct", "triple", "--q", "5", "--sigma-seed", "3", "-o", "t5.triff"),
            "code",
            ("t5.triff",),
        ),
        Cmd(
            "construct-recursive",
            ("construct", "recursive", "--t", "2", "--target", "100", "-o", "rec.triff"),
            "code",
            ("rec.triff",),
        ),
        Cmd("prune", ("prune", "t5.triff"), "stdout"),
        Cmd("project-best", ("project", "t5.triff", "--best", "-o", "t5p.triff"), "code", ("t5p.triff",)),
        Cmd("graph-build", ("graph", "build", "t5p.triff", "--edges", "t5p.edges"), "stdout", ("t5p.edges",)),
        Cmd("graph-kst", ("graph", "kst-check", "t5p.triff", "--s", "3", "--t", "9"), "stdout"),
        Cmd(
            "graph-bipartition",
            ("graph", "bipartition", "t5p.triff", "--seed", "7", "--trials", "2000"),
            "stdout",
        ),
        Cmd(
            "sample-shift",
            ("sample-shift", "q7.triff", "--r", "3", "--trials", "10000", "--seed", "11"),
            "stdout",
        ),
        Cmd(
            "bound-report-codes",
            ("bound", "report", "--n", "1000000000", "--code", "q7.triff", "--code", "rec.triff"),
            "stdout",
        ),
        Cmd("bound-zarankiewicz", ("bound", "zarankiewicz", "--u", "9", "--v", "9", "--s", "3", "--t", "9"), "stdout"),
        *(c for name in PLANT_FRACTIONS for c in _verify_planted(name)),
    ),
    build_inputs=_toolchain_inputs,
)

WORKLOADS = {w.name: w for w in (VERIFY_SEARCH, TOOLCHAIN)}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

_WITNESS = re.compile(r"^witness: indices \((\d+), (\d+), (\d+)\)$", re.M)


def _verified_size(text: str) -> int | None:
    """Size of the code in `text` when the library verifies it, else None."""
    code = core.parse_triff(text)
    return len(code) if core.verify_trifferent(code).ok else None


def observe(cmd: Cmd, rc: int, stdout: str, workdir: Path, refs: dict) -> tuple[dict, list[str]]:
    """Fields to compare with the frozen ones, and problems found by library re-checks."""
    fields: dict = {"rc": rc}
    problems: list[str] = []
    if cmd.kind in ("stdout", "code"):
        fields["stdout_sha256"] = _sha256(stdout.encode())
        for name in cmd.files:
            fields[f"sha256:{name}"] = _sha256((workdir / name).read_bytes())
        if cmd.kind == "code":
            fields["size"] = _verified_size((workdir / cmd.files[0]).read_text())
    elif cmd.kind in ("search", "search-budgeted"):
        cert = json.loads(stdout)
        size = _verified_size(cert["best_code_triff"])
        if size != cert["best_size"]:
            problems.append(f"best code verifies as {size}, certificate says {cert['best_size']}")
        if cmd.id in refs and refs[cmd.id] != cert["best_size"]:
            problems.append(f"oracle gives {refs[cmd.id]}, certificate says {cert['best_size']}")
        if cmd.kind == "search":
            for key in ("best_size", "status", "nodes_explored", "oracle_checked", "best_code_triff"):
                fields[key] = cert[key]
    elif cmd.kind == "witness":
        match = _WITNESS.search(stdout)
        witness = tuple(map(int, match.groups())) if match else None
        planted = core.read_triff(workdir / cmd.argv[1])
        if witness != refs[cmd.argv[1]]:
            problems.append(f"witness {witness}, planted {refs[cmd.argv[1]]}")
        elif core.naive_trifferent_triple(*(planted.codewords[i] for i in witness)):
            problems.append(f"witness {witness} is trifferent by the naive check")
    else:
        raise ValueError(f"unknown check kind {cmd.kind}")
    return fields, problems
