"""bergmanlab benchmark: time-to-verdict on three workloads.

    python3 perfbench/run.py --workload carleson-suite --seed 1 --seconds 15 --trace 0

Drives the public bergmanlab API in one process, as a closed loop with one
client and one request in flight, on the package under ``src/`` of this
checkout (run it from the checkout root; nothing needs installing). See
``workloads.py`` for what each workload sends and why.

With ``--trace 0`` it times the requests untraced and prints the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` it runs the same
requests with every layer wrapped (``tracer.py``), writes the spans to
``perfbench/results/``, and prints the per-layer metrics together with the
tracing overhead, for which it starts one untraced run as a child process.

Every result is checked (``workloads.check``). The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with provenance, latency percentiles, every failure with its cause, and
a digest of the results; a traced run checks it against its untraced child.
Failures of requests that reproduce a known defect of the code under test
count in ``failed`` but leave ``correct`` true; any other failure, or a
result that differs when repeated, makes it false.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import warm

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3            # fresh-process set-ups per run, this one included
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["carleson-suite", "operator-suite", "cold-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def setup_sample():
    """Set-up seconds of one fresh process (import plus warm), measured inside it."""
    out = subprocess.run([sys.executable, str(HERE / "warm.py")], capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def untraced_run(args):
    """The report of an untraced child run of the same requests."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-2])


def results_digest(results):
    """SHA-256 of the results' JSON bytes, in request order."""
    return hashlib.sha256(json.dumps([result for result, _ in results]).encode()).hexdigest()


def run_requests(workloads, requests, tracer=None):
    """Send the requests one at a time.

    Returns (results, latencies, wall seconds, CPU use of this process).

    A request that raises is recorded with its traceback and the loop goes on.
    """
    results, latencies = [], []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    t_start = time.perf_counter()
    for request in requests:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workloads.execute(request)
            else:
                with tracer.request(request.id):
                    result = workloads.execute(request)
            error = None
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            result, error = None, traceback.format_exc()
        latencies.append(time.perf_counter() - t0)
        results.append((result, error))
    wall = time.perf_counter() - t_start
    end = resource.getrusage(resource.RUSAGE_SELF)
    cpu = {"user_s": end.ru_utime - usage.ru_utime, "sys_s": end.ru_stime - usage.ru_stime,
           "minor_faults": end.ru_minflt - usage.ru_minflt}
    return results, latencies, wall, cpu


def failures_of(workloads, requests, results):
    failures = []
    for request, (result, error) in zip(requests, results):
        causes = [f"raised: {error.strip().splitlines()[-1]}"] if error else \
            workloads.check(request, result)
        if causes:
            failures.append({"request": request.id, "causes": causes,
                             "known_defect": request.known_defect,
                             "traceback": error})
    return failures


def repeat_mismatches(workloads, requests, results, latencies):
    """Requests whose result bytes change when sent again in the same process.

    Requests sent twice in the run are compared, and the quickest request of
    each kind is sent once more.
    """
    seen, mismatches = {}, []
    for request, (result, _) in zip(requests, results):
        key = json.dumps([request.kind, request.params])
        text = json.dumps(result)
        if seen.setdefault(key, text) != text:
            mismatches.append(request.id)
    quickest = {}
    for i, request in enumerate(requests):
        j = quickest.setdefault(request.kind, i)
        if latencies[i] < latencies[j]:
            quickest[request.kind] = i
    for i in quickest.values():
        again = run_requests(workloads, [requests[i]])[0]
        if json.dumps(again[0][0]) != json.dumps(results[i][0]):
            mismatches.append(requests[i].id)
    return mismatches


def percentiles(samples):
    """Median plus the highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"samples": n, "p50": statistics.median(samples)}
    top = int(100 * (n - 10) / n) if n > 10 else 0
    if top > 50:
        out[f"p{top}"] = statistics.quantiles(samples, n=100, method="inclusive")[top - 1]
    return out


def provenance(args, passes):
    import numpy
    import scipy

    src = warm.SRC / "bergmanlab"
    files = sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (warm.ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(warm.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_py_lines": sum(len(p.read_text().splitlines()) for p in files if p.suffix == ".py"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in warm.THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": args.trace,
    }


def metric_specs():
    with open(warm.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(warm.THREAD_ENV)
    try:
        setup_s = [warm.timed_warm()]
    except warm.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_specs()

    import tracer as tracing
    import workloads

    passes = workloads.passes_for(args.workload, args.seconds)
    requests = workloads.requests(args.workload, args.seed, passes)
    values = {}
    if args.trace:
        untraced = untraced_run(args)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, latencies, wall, cpu = run_requests(workloads, requests, tracer)
        finally:
            tracer.uninstall()
        values.update(tracer.layer_values())
        span_cost = tracing.span_cost_s()
        values.update({
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced["wall_s"],
            "trace.overhead_s": wall - untraced["wall_s"],
            "trace.span_cost_s": span_cost * values["trace.spans"],
        })
        tracer.write_spans(HERE / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        specs = per_layer
    else:
        setup_s += [setup_sample() for _ in range(SETUP_SAMPLES - 1)]
        results, latencies, wall, cpu = run_requests(workloads, requests)
        values.update({
            "setup_s": statistics.median(setup_s),
            "requests_per_s": len(requests) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        specs = end_to_end

    failures = failures_of(workloads, requests, results)
    mismatches = repeat_mismatches(workloads, requests, results, latencies)
    digest = results_digest(results)
    if args.trace and untraced["results_sha256"] != digest:
        mismatches.append("traced results differ from an untraced run of the same seed")
    unexpected = [f for f in failures if f["known_defect"] is None]
    report = {
        "report": "perfbench",
        "provenance": provenance(args, passes),
        "wall_s": wall,
        "cpu": cpu,
        "setup_s_samples": setup_s,
        "request_latency_s": percentiles(latencies),
        "latency_by_request_s": {r.id: t for r, t in zip(requests, latencies)},
        "results_sha256": digest,
        "ops_failed_frac": len(failures) / len(requests),
        "failures": [{k: v for k, v in f.items() if v is not None} for f in failures],
        "unrepeatable": mismatches,
    }
    print(json.dumps(report))
    result = {
        "correct": not unexpected and not mismatches,
        "attempted": len(requests),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
