"""Start-up cost: the modules a fresh interpreter loads to import the package or run a command.

Each check runs in a new interpreter, because this test process has long
since imported every layer.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import trifference
from trifference.constructions import one_bounded, triple_construction
from trifference.core import Code, write_triff

from test_verify import dense_code, parts_of, plant_violation

SRC = str(Path(trifference.__file__).resolve().parents[1])
WATCHED = (
    "numpy",
    "numpy.random",
    "concurrent.futures",
    "multiprocessing",
    "ctypes",
    "hashlib",
    "fractions",
    "dataclasses",
    "inspect",
    "trifference.bounds",
    "trifference.constructions",
    "trifference.graphs",
    "trifference.search",
)


def fresh(script: str, cwd) -> dict:
    """Run script in a new interpreter; it leaves a dict in `out`, printed as JSON."""
    probe = script + "\nimport json, sys\nprint(json.dumps(out))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(argvs, cwd) -> dict:
    """Exit codes of cli.run on each argv, and which WATCHED modules were then loaded."""
    return fresh(
        "import sys\n"
        "from trifference import cli\n"
        f"rcs = [cli.run(argv) for argv in {argvs!r}]\n"
        f"out = {{'rcs': rcs, 'loaded': [m for m in {WATCHED!r} if m in sys.modules]}}",
        cwd,
    )


def test_importing_the_cli_loads_no_numpy_and_no_unused_layer(tmp_path):
    out = fresh(
        "import sys, trifference, trifference.cli\n"
        f"out = [m for m in {WATCHED!r} if m in sys.modules]",
        tmp_path,
    )
    assert out == []


def test_commands_that_never_scan_run_without_numpy(tmp_path):
    write_triff(one_bounded(4), tmp_path / "c.triff")
    out = loaded_after(
        [
            ["bound", "zarankiewicz", "--u", "9", "--v", "9", "--s", "3", "--t", "9"],
            ["prune", "c.triff"],
        ],
        tmp_path,
    )
    assert out == {"rcs": [0, 0], "loaded": ["trifference.bounds"]}


def test_short_commands_run_without_dataclasses_inspect_or_search(tmp_path):
    write_triff(one_bounded(4), tmp_path / "c.triff")
    (tmp_path / "r2.triff").write_text("n=4\nr=2\n2200\n2020\n0202\n")
    out = loaded_after(
        [
            ["prune", "c.triff"],
            ["construct", "one-bounded", "--n", "5"],
            ["graph", "kst-check", "r2.triff", "--s", "1", "--t", "2"],
            ["bound", "zarankiewicz", "--u", "9", "--v", "9", "--s", "3", "--t", "9"],
        ],
        tmp_path,
    )
    assert out == {
        "rcs": [0, 0, 0, 0],
        "loaded": ["trifference.bounds", "trifference.constructions", "trifference.graphs"],
    }


def test_graph_and_bound_commands_load_only_their_own_layer(tmp_path):
    # the layers' forbidden K_{s,t} table lives in core, which both import
    (tmp_path / "r2.triff").write_text("n=4\nr=2\n2200\n2020\n0202\n")
    out = loaded_after(
        [
            ["graph", "build", "r2.triff"],
            ["graph", "kst-check", "r2.triff", "--s", "3", "--t", "9"],
        ],
        tmp_path,
    )
    assert out["rcs"] == [0, 0]
    assert "trifference.bounds" not in out["loaded"]
    out = loaded_after(
        [["bound", "zarankiewicz", "--u", "9", "--v", "9", "--s", "3", "--t", "9"]], tmp_path
    )
    assert out["rcs"] == [0]
    assert "trifference.graphs" not in out["loaded"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "max", "--n", "3"],
        ["bound", "report", "--n", "4", "--exact-table", "t.json"],
    ],
    ids=" ".join,
)
def test_commands_that_search_load_search(tmp_path, argv):
    (tmp_path / "t.json").write_text('{"schema": 1, "entries": [{"n": 4, "r": 1, "size": 8}]}')
    out = loaded_after([argv], tmp_path)
    assert out["rcs"] == [0]
    assert "trifference.search" in out["loaded"]


def test_search_runs_without_numpy(tmp_path):
    out = loaded_after(
        [
            ["search", "max", "--n", "3", "--oracle"],
            ["search", "max-r", "--n", "4", "--r", "1", "--table", "t.json"],
        ],
        tmp_path,
    )
    assert out["rcs"] == [0, 0]
    assert "numpy" not in out["loaded"]


def test_star_code_verifies_without_numpy(tmp_path):
    # the 150-word q = 5 triple code: 3 stars per word, the star kernel's kind
    write_triff(triple_construction(5, one_bounded(15)), tmp_path / "c.triff")
    out = loaded_after([["verify", "c.triff"]], tmp_path)
    assert out == {"rcs": [0], "loaded": []}


def test_dense_code_verifies_without_numpy(tmp_path):
    # the 200 random words of length 100 that CI verifies: nearly n/3 stars
    # per word
    write_triff(dense_code(200, 100, 7), tmp_path / "c.triff")
    out = loaded_after([["verify", "c.triff"], ["verify", "c.triff", "--workers", "2"]], tmp_path)
    assert out == {"rcs": [0, 0], "loaded": []}


def test_benchmark_codes_verify_with_numpy_blocked(tmp_path):
    # the codes both benchmark workloads verify, and one command of each
    # kind that reads or writes a code; a numpy that cannot be imported
    # shows that neither this process nor a forked one loads it
    q7 = triple_construction(7, one_bounded(28))
    q11 = triple_construction(11, one_bounded(66))
    write_triff(q7, tmp_path / "q7.triff")
    write_triff(Code.from_strings(random.Random(0).sample(q11.strings(), 500)), tmp_path / "q11-subset.triff")
    for name, frac in (("early", 0.1), ("late", 0.6)):
        write_triff(plant_violation(q7, frac, random.Random(1))[0], tmp_path / f"planted-{name}.triff")
    (tmp_path / "blocked").mkdir()
    (tmp_path / "blocked" / "numpy.py").write_text("raise ImportError('numpy is blocked')\n")
    argvs = [
        ["verify", name, "--workers", workers]
        for name in ("q7.triff", "q11-subset.triff", "planted-early.triff", "planted-late.triff")
        for workers in ("1", "2")
    ] + [
        ["construct", "triple", "--q", "5", "-o", "t5.triff"],
        ["construct", "recursive", "--t", "2", "--target", "100"],
        ["prune", "t5.triff"],
        ["project", "t5.triff", "--best", "-o", "t5p.triff"],
        ["graph", "build", "t5p.triff", "--edges", "t5p.edges"],
        ["bound", "report", "--n", "1000", "--code", "q7.triff"],
        ["sample-shift", "q7.triff", "--r", "3", "--trials", "300", "--seed", "11"],
    ]
    script = f"from trifference import cli\nimport sys\nsys.exit(sum(cli.run(a) for a in {argvs!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path / "blocked"), SRC])),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr  # each planted code exits 1 twice
    assert proc.stdout.count("status=trifferent") == 4
    assert "blocked" not in proc.stderr


def test_small_codes_verify_without_numpy(tmp_path):
    # the triple construction checks its 30- and 36-word base codes
    write_triff(one_bounded(4), tmp_path / "c.triff")
    out = loaded_after(
        [
            ["verify", "c.triff"],
            ["construct", "triple", "--q", "5"],
            ["construct", "recursive", "--t", "2", "--target", "100"],
        ],
        tmp_path,
    )
    assert out["rcs"] == [0, 0, 0]
    assert "numpy" not in out["loaded"]


def test_sample_shift_loads_no_numpy(tmp_path):
    write_triff(triple_construction(5, one_bounded(15)), tmp_path / "c.triff")
    write_triff(one_bounded(6), tmp_path / "ob.triff")
    out = loaded_after(
        [
            ["sample-shift", "c.triff", "--r", "3", "--trials", "300", "--seed", "5"],
            ["sample-shift", "ob.triff", "--r", "1", "--exhaustive"],
        ],
        tmp_path,
    )
    assert out == {"rcs": [0, 0], "loaded": ["fractions"]}


def test_early_violation_loads_no_watched_module(tmp_path):
    # a planted q = 7 code is too short a scan to repay a second process
    q7 = triple_construction(7, one_bounded(28))
    write_triff(plant_violation(q7, 0.1, random.Random(1))[0], tmp_path / "planted.triff")
    out = loaded_after([["verify", "planted.triff", "--workers", "2"]], tmp_path)
    assert out == {"rcs": [1], "loaded": []}


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1) < 2,
    reason="fans out only on 2 or more CPUs",
)
def test_verify_fan_out_parent_loads_no_numpy(tmp_path):
    # the benchmark's subset size: the scan splits over two processes
    words = random.Random(0).sample(triple_construction(11, one_bounded(66)).strings(), 500)
    code = Code.from_strings(words)
    write_triff(code, tmp_path / "c.triff")
    assert parts_of(code, 2, 2) == 2
    out = loaded_after([["verify", "c.triff", "--workers", "2"]], tmp_path)
    assert out == {"rcs": [0], "loaded": []}


def test_star_import_binds_every_public_name_to_its_module(tmp_path):
    out = fresh(
        "import sys\n"
        "import trifference\n"
        "layers = sorted(m for m in ('bounds', 'constructions', 'core', 'graphs', 'search')\n"
        "                if getattr(trifference, m).__name__ == f'trifference.{m}')\n"
        "from trifference import *\n"
        "names = trifference.__all__\n"
        "out = {\n"
        "    'layers': layers,\n"
        "    'unbound': [n for n in names if n not in globals()],\n"
        "    'foreign': [\n"
        "        n for n in names if n != '__version__'\n"
        "        and not (globals()[n].__module__.startswith('trifference.')\n"
        "                 and getattr(sys.modules[globals()[n].__module__], n) is globals()[n])\n"
        "    ],\n"
        "    'undir': sorted(set(names) - set(dir(trifference))),\n"
        "    'version': __version__,\n"
        "}",
        tmp_path,
    )
    assert out == {
        "layers": ["bounds", "constructions", "core", "graphs", "search"],
        "unbound": [],
        "foreign": [],
        "undir": [],
        "version": trifference.__version__,
    }
