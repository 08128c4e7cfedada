"""Benchmark of the trifference CLI: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload toolchain --seed 1 --seconds 50 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  ``--trace 0`` runs the workload's CLI commands as child
processes, one at a time, in passes until ``--seconds`` have gone by, and
reports wall_s (the sum of the commands' median times) and setup_s, both
scaled to a reference speed of the host, and peak_rss_mb.  ``--trace 1`` runs the same argv
lists in this process through ``cli.run``, in alternating untraced and
traced passes (spans around every layer function), and reports the per-layer
metrics.  Every output
is checked against ``expected.json``; the last line of stdout is the result
object.  ``--freeze`` rewrites ``expected.json`` from the current code and
``--self-check`` shows that a wrong expected value makes the check fail.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# The shared host's speed drifts by up to 1.5x over minutes, which no length
# of run averages out.  The untraced run therefore times a fixed reference
# workload in this process after every command, and scales its times by
# REFERENCE_S over the reference's median time in the run: they read as on a
# host where the reference takes REFERENCE_S seconds.
REFERENCE_S = 0.1
# One round of the traced run: untraced and traced passes alternate, so that
# a drift of the host's speed weighs on both alike.
TRACE_ROUND = (False, True, True, False)


def reference_s() -> float:
    """Seconds taken by the fixed reference workload.

    A pure-Python integer loop and a run of small numpy calls: the two kinds
    of work the CLI's time goes to.
    """
    import numpy

    v = numpy.arange(64)
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) & 0xFFFFFFFFFFFF
    for i in range(20_000):
        (v == i).any()
    return time.perf_counter() - start


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Python in a child process, in the work directory, importing the package from src/."""
    return subprocess.run(
        [sys.executable, *argv], cwd=WORK, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True,
    )


def cli_in_child(argv) -> tuple[int, str]:
    proc = run_child(["-m", "trifference.cli", *argv])
    return proc.returncode, proc.stdout


def cli_in_process(argv) -> tuple[int, str]:
    from trifference import cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(WORK)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(list(argv))
    finally:
        os.chdir(cwd)
    return rc, out.getvalue()


def environment(seed: int) -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}-{kind}"] = size
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    source = b"".join(p.read_bytes() for p in sorted((SRC / "trifference").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "source_sha256": hashlib.sha256(source).hexdigest(),
        "seed": seed,
    }


def warm_up() -> None:
    """One untimed child that imports the CLI: compiles bytecode, warms the file cache."""
    WORK.mkdir(exist_ok=True)
    run_child(["-c", "import trifference.cli"]).check_returncode()


def setup(workload, seed: int) -> tuple[float, dict]:
    """Build the inputs in an emptied work directory.

    Returns the seconds spent building the inputs and the checks' reference
    values.
    """
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    start = time.perf_counter()
    refs = workload.build_inputs(seed, WORK)
    return time.perf_counter() - start, refs


def run_pass(workload, runner, fits=None, reference=None) -> tuple[float, list[float], list[tuple[int, str]]]:
    """Run the workload's commands in order; returns (wall seconds, per-command seconds, outputs).

    With `fits`, the pass stops before the first command i for which
    fits(i) is false.  With `reference`, a list, the reference workload is
    timed after every command and appended to it, outside the pass's time.
    """
    for name in workload.reset:
        (WORK / name).unlink(missing_ok=True)
    times, outputs = [], []
    start = time.perf_counter()
    for i, cmd in enumerate(workload.commands):
        if fits is not None and not fits(i):
            break
        t = time.perf_counter()
        outputs.append(runner(cmd.argv))
        times.append(time.perf_counter() - t)
        if reference is not None:
            t = time.perf_counter()
            reference.append(reference_s())
            start += time.perf_counter() - t
    return time.perf_counter() - start, times, outputs


def check_pass(workload, outputs, refs, expected: dict) -> list[str]:
    """Problems found in one pass's outputs, one line per failed command."""
    from workloads import observe

    failures = []
    for cmd, (rc, stdout) in zip(workload.commands, outputs):
        try:
            fields, problems = observe(cmd, rc, stdout, WORK, refs)
        except (ValueError, KeyError, OSError, TypeError) as exc:
            fields, problems = {"rc": rc}, [f"output unreadable: {exc!r}"]
        want = expected.get(cmd.id, {})
        problems += [
            f"{key}: got {str(fields.get(key))[:60]!r}, expected {str(want.get(key))[:60]!r}"
            for key in sorted(set(fields) | set(want))
            if fields.get(key) != want.get(key)
        ]
        if problems:
            failures.append(f"{cmd.id}: " + "; ".join(problems))
    return failures


def measure(workload, seed: int, seconds: float, expected: dict):
    """Untraced run: set-up and a timed pass of child processes, repeated for `seconds`.

    A fresh set-up precedes every pass, so the set-up samples span the run as
    the pass samples do; at least SETUP_REPEATS set-ups are made.  After the
    first whole pass, a command starts only while that brings the run's end
    nearer to `seconds` (by its median time so far), so the run fills
    `seconds` whatever a pass takes and the last pass may be cut short.
    wall_s sums each command's median time: the time of one typical pass.
    wall_s and setup_s are scaled to the reference speed (see REFERENCE_S).
    """
    warm_up()
    samples = [[] for _ in workload.commands]
    setups, walls, reference, failures, attempted = [], [], [], [], 0
    start = time.perf_counter()

    def fits(i: int) -> bool:
        if len(samples[-1]) == 0:  # the first pass always runs whole
            return True
        return time.perf_counter() - start + statistics.median(samples[i]) / 2 < seconds

    while fits(0):
        setup_s, refs = setup(workload, seed)
        setups.append(setup_s)
        wall, times, outputs = run_pass(workload, cli_in_child, fits, reference)
        for i, t in enumerate(times):
            samples[i].append(t)
        if len(outputs) == len(workload.commands):
            walls.append(wall)
        attempted += len(outputs)
        failures += check_pass(workload, outputs, refs, expected)
        if len(outputs) < len(workload.commands):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup(workload, seed)[0])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for cmd, (rc, stdout) in zip(workload.commands, outputs):
        if cmd.kind == "search-budgeted" and rc == 0:
            print(f"{cmd.id}: status {json.loads(stdout)['status']} (reported, not gated)")
    print(f"run seconds: {time.perf_counter() - start:.3f}; "
          f"whole passes: {len(walls)}; pass seconds: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"set-ups: {len(setups)}; set-up seconds: {' '.join(f'{s:.3f}' for s in setups)}")
    for cmd, times in zip(workload.commands, samples):
        print(f"  {cmd.id:<24} median {statistics.median(times):8.3f} s of {len(times)}")
    wall = sum(statistics.median(times) for times in samples)
    scale = REFERENCE_S / statistics.median(reference)
    print(f"reference: median {statistics.median(reference):.4f} s of {len(reference)}; "
          f"scale {scale:.4f}; unscaled wall {wall:.3f} s, set-up {statistics.median(setups):.4f} s")
    metrics = {
        "wall_s": (wall * scale, "s"),
        "setup_s": (statistics.median(setups) * scale, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return metrics, attempted, failures


def measure_traced(workload, seed: int, seconds: float, expected: dict):
    """Traced run: the same argv lists in process, in rounds of TRACE_ROUND for `seconds`.

    Per-layer metrics are the medians over the traced passes; the tracing
    overhead is the summed traced time over the summed untraced time.
    """
    from tracing import Tracer, layer_metrics

    warm_up()
    _, refs = setup(workload, seed)
    child_s = {"pass": [], "import trifference.cli": []}
    for _ in range(IMPORT_REPEATS):
        for code, times in child_s.items():
            t = time.perf_counter()
            run_child(["-c", code]).check_returncode()
            times.append(time.perf_counter() - t)

    walls = {False: [], True: []}
    tracers, failures, attempted = [], [], 0
    start, round_s = time.perf_counter(), 0.0
    # like the untraced run, start a round only while that brings the run's
    # end nearer to `seconds`
    while not tracers or time.perf_counter() - start + round_s / 2 < seconds:
        round_start = time.perf_counter()
        for traced in TRACE_ROUND:
            if not traced:
                wall, _, outputs = run_pass(workload, cli_in_process)
            else:
                tracer = Tracer()
                tracers.append(tracer)

                def traced_runner(argv, tracer=tracer):
                    tracer.run += 1
                    return cli_in_process(argv)

                tracer.install()
                try:
                    wall, _, outputs = run_pass(workload, traced_runner)
                finally:
                    tracer.uninstall()
            walls[traced].append(wall)
            attempted += len(outputs)
            failures += check_pass(workload, outputs, refs, expected)
        round_s = time.perf_counter() - round_start
    with open(WORK / f"spans-{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump([[vars(span) for span in tracer.spans] for tracer in tracers], fh)
    print(f"untraced pass seconds: {' '.join(f'{w:.3f}' for w in walls[False])}")
    print(f"traced pass seconds:   {' '.join(f'{w:.3f}' for w in walls[True])}")

    import_s = statistics.median(child_s["import trifference.cli"]) - statistics.median(child_s["pass"])
    metrics = {"cli.import_s": (import_s, "s")}
    per_pass = [layer_metrics(tracer.spans) for tracer in tracers]
    for name, (_, unit) in per_pass[0].items():
        middle = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (middle(m[name][0] for m in per_pass), unit)
    metrics["trace.untraced_s"] = (statistics.median(walls[False]), "s")
    metrics["trace.traced_s"] = (statistics.median(walls[True]), "s")
    metrics["trace.overhead_ratio"] = (sum(walls[True]) / sum(walls[False]), "1")
    return metrics, attempted, failures


def freeze(workloads) -> int:
    """Write expected.json from one pass of the current code, seed 0.

    A command whose output fails a library re-check, such as an optimum that
    differs from the oracle's, is not frozen.
    """
    from workloads import observe

    frozen = {}
    warm_up()
    for workload in workloads.values():
        _, refs = setup(workload, 0)
        _, _, outputs = run_pass(workload, cli_in_child)
        frozen[workload.name] = {}
        for cmd, (rc, stdout) in zip(workload.commands, outputs):
            fields, problems = observe(cmd, rc, stdout, WORK, refs)
            if problems:
                print(f"cannot freeze {workload.name}/{cmd.id}: {problems}", file=sys.stderr)
                return 1
            frozen[workload.name][cmd.id] = fields
    EXPECTED.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED.name}")
    return 0


def self_check(workload, expected: dict) -> int:
    """One pass with a deliberately wrong expected value; it must be counted as failed."""
    first = workload.commands[0].id
    wrong = dict(expected, **{first: dict(expected[first], rc=expected[first]["rc"] + 1)})
    warm_up()
    refs = setup(workload, 0)[1]
    _, _, outputs = run_pass(workload, cli_in_child)
    right = check_pass(workload, outputs, refs, expected)
    broken = check_pass(workload, outputs, refs, wrong)
    n = len(outputs)
    print(f"right expectations: failed_ratio = {len(right) / n:g}; "
          f"wrong rc for {first}: failed_ratio = {len(broken) / n:g}")
    for line in broken:
        print(f"  {line}")
    return 0 if not right and broken else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="rewrite expected.json from the current code")
    parser.add_argument("--self-check", action="store_true", help="show that a wrong expectation fails")
    args = parser.parse_args()

    if not (SRC / "trifference" / "cli.py").is_file():
        print(f"error: no trifference sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.freeze:
        return freeze(WORKLOADS)
    if args.workload == "all":
        # one child per workload, so that each reports its own children's peak RSS
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        flags += ["--self-check"] * args.self_check
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode
            for name in WORKLOADS
        )
    if args.workload not in WORKLOADS:
        print(f"error: workload must be one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload.name]
    if args.self_check:
        return self_check(workload, expected)

    print(f"workload {workload.name}: {workload.why}")
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        metrics, attempted, failures = measure_traced(workload, args.seed, args.seconds, expected)
    else:
        metrics, attempted, failures = measure(workload, args.seed, args.seconds, expected)
    for line in failures:
        print(f"FAILED {line}")
    print(f"failed_ratio = {len(failures) / attempted:g} (1)")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} ({unit})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
