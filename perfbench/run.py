"""The repository's benchmark: four workloads, end-to-end and per-layer.

Run one workload::

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the same workload with spans around every call into a layer (plus a
sweep over the layers the workload does not reach) and reports per-layer
metrics instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Traced runs also write
their spans as Chrome Trace Event JSON under ``.perfbench/``.

Check steadiness (each workload N times, one seed each)::

    python3 perfbench/run.py --repeat 10 --workload cli-small --seconds 30

See ``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

import argparse
import json
import os
import shutil
import sys

import procs

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: The verify workloads check that child spans cover their requests.
VERIFY_COVERAGE = 0.9


def _workloads():
    import cli_small
    import service_loop
    import verify_loop

    return {
        "cli-small": (cli_small.setup, cli_small.run_workload, cli_small.teardown, None),
        "verify-large": (verify_loop.setup, verify_loop.make_workload(0),
                         verify_loop.teardown, VERIFY_COVERAGE),
        "verify-sharded": (verify_loop.setup, verify_loop.make_workload(2),
                           verify_loop.teardown, VERIFY_COVERAGE),
        "service-campaign": (service_loop.setup, service_loop.run_workload,
                             service_loop.teardown, None),
    }


WORKLOAD_NAMES = ("cli-small", "verify-large", "verify-sharded", "service-campaign")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="steadiness mode: run the workload (those of "
                             "BENCHMARK.json when none is named) N times with "
                             "seeds --seed.. and print each metric's median, "
                             "quartiles and range")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat:
        import steadiness
        return steadiness.main(args)
    if not (procs.SRC / "repro" / "workcraft" / "cli.py").is_file():
        print("perfbench: no repro package under {}; run from a checkout of the "
              "repository".format(procs.SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if args.setup_probe:
        return _setup_probe(args.setup_probe)
    if not args.workload:
        parser.error("--workload is required")
    return _run_once(args)


def _setup_probe(name):
    """Set *name* up from scratch in this fresh process, say READY, clean up."""
    from context import Run

    setup, _, teardown, _ = _workloads()[name]
    directory = _workdir(name + "-probe")
    try:
        state = setup(Run(name, 0, 0, False), directory)
        print("READY", flush=True)
        teardown(state)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def _workdir(label):
    directory = procs.OUT / "{}-{}".format(label, os.getpid())
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _run_once(args):
    from context import Run

    name = args.workload
    setup, run_workload, teardown, coverage = _workloads()[name]
    setup_samples = []
    if not args.trace:
        probe = [procs.PYTHON, os.path.abspath(__file__), "--setup-probe", name]
        setup_samples = [procs.timed_until_ready(probe) for _ in range(SETUP_SAMPLES)]
    directory = _workdir(name)
    try:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        state = setup(run, directory)
        try:
            outcome = run_workload(run, state)
        finally:
            teardown(state)
        if args.trace:
            import layers

            layers.sweep(run, directory)
            metrics = layers.per_layer(run, outcome, coverage)
            trace_path = procs.OUT / "trace-{}-seed{}.json".format(name, args.seed)
            run.tracer.write_chrome(trace_path)
            notes = {"chrome_trace": str(trace_path.relative_to(procs.ROOT))}
        else:
            from sampling import end_to_end

            metrics, notes = end_to_end(run.requests, outcome["latency_class"],
                                        outcome["throughput"], setup_samples,
                                        outcome["peak_rss_kb"])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    _report(run, metrics, notes)
    return 0


def _report(run, metrics, notes):
    print("perfbench {} seed={} seconds={:g} trace={}".format(
        run.workload, run.seed, run.seconds, int(run.traced)))
    for name, (value, unit) in metrics.items():
        print("  {:<26} {:>14.6g} {}".format(name, value, unit))
    for key, value in sorted({**notes, **run.health}.items()):
        print("  # {} = {}".format(key, value))
    for problem in run.problems:
        print("  ! {}".format(problem))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.requests.attempted,
        "failed": run.requests.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
