"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload toolchain --seeds 1-10 --seconds 50

Each run is an untraced ``run.py`` (``--trace 0``) in a child
process.  For every metric this prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, the spread that
BENCHMARK.json's bounds are meant to cover.  ``--json FILE`` also writes the
values and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", default="50")
    parser.add_argument("--json", help="write the values and summary to this file")
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {shown}", flush=True)

    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": first["unit"]}
        print(f"{name:<40} median {median:12.6g} {first['unit']:<6} q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    if args.json:
        Path(args.json).write_text(
            json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                        "results": results, "summary": summary}, indent=1) + "\n",
            encoding="utf-8",
        )
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
