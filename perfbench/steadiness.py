"""Steadiness mode: run a workload N times and summarise every metric.

Each run is a fresh ``run.py`` process with its own seed, exactly as a
benchmark harness would start it.  For every metric the summary gives the
median, the quartiles (``statistics.quantiles(values, n=4)``), the range
and the spread -- the distance between the quartiles as a share of the
median -- beside the bound ``BENCHMARK.json`` sets, flagging a spread above
a third of it.  Exact per-layer counts must read the same in every run.
"""

import json
import subprocess
import sys
import time

import procs
from sampling import quartiles

RUN_TIMEOUT = 600.0


def main(args):
    spec = _spec()
    bounds = {metric["name"]: metric["bound"] for metric in spec.get("end_to_end", ())}
    names = ([args.workload] if args.workload
             else [workload["name"] for workload in spec.get("workloads", ())])
    status = 0
    for name in names:
        results = []
        for seed in range(args.seed, args.seed + args.repeat):
            started = time.perf_counter()
            result = _run(name, seed, args.seconds, args.trace)
            print("{} seed={} took {:.1f}s correct={}".format(
                name, seed, time.perf_counter() - started, result["correct"]),
                flush=True)
            results.append(result)
        status |= _summarise(name, results, bounds, args.trace)
    return status


def _run(name, seed, seconds, trace):
    argv = [procs.PYTHON, str(procs.ROOT / "perfbench" / "run.py"),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=procs.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("{} failed ({}):\n{}{}".format(
            " ".join(argv), done.returncode, done.stdout[-3000:], done.stderr[-3000:]))
    return json.loads(lines[-1])


def _summarise(name, results, bounds, trace):
    import layers

    exact = {metric for metric, unit, _, _ in layers.PER_LAYER
             if unit == layers.COUNT and metric not in layers.OBSERVED_COUNTS}
    status = 0 if all(result["correct"] for result in results) else 1
    print("\n{} over {} runs{}".format(name, len(results),
                                       "" if status == 0 else "  (SOME RUNS NOT CORRECT)"))
    print("  {:<26} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}".format(
        "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for metric in results[0]["metrics"]:
        values = [result["metrics"][metric]["value"] for result in results]
        q1, mid, q3 = quartiles(values)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(metric)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3"
        if metric in exact and len(set(values)) != 1:
            flag, status = "  COUNT DRIFT", 1
        print("  {:<26} {:>12.6g} {:>12.6g} {:>12.6g} {:>12.6g} {:>12.6g} {:>8.2%} {:>6}{}".format(
            metric, mid, q1, q3, min(values), max(values), spread,
            "" if bound is None else "{:g}".format(bound), flag))
    sys.stdout.flush()
    return status


def _spec():
    try:
        with open(procs.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}
