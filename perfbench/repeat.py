"""Run the benchmark once per seed and summarize each metric's spread.

    python3 perfbench/repeat.py --workload cold-mix --seeds 1-10 --seconds 15

Runs are sequential, each in its own process. For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound in
``BENCHMARK.json``. The raw results go to
``perfbench/results/repeat-<workload>-trace<0|1>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs, bounds):
    rows = []
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        rows.append((name, median, q1, q3, spread, bounds.get(name)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        run = json.loads(lines[-1])
        run["seed"] = seed
        run["report"] = json.loads(lines[-2])
        runs.append(run)
        print(f"seed {seed}: correct={run['correct']} attempted={run['attempted']} "
              f"failed={run['failed']}", flush=True)
    path = HERE / "results" / f"repeat-{args.workload}-trace{args.trace}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} bound")
    for name, median, q1, q3, spread, bound in summarize(runs, bounds):
        print(f"{name:44s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
              f"{'' if bound is None else bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
