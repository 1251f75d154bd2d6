"""``cli-small``: fresh ``repro-dfs verify`` processes on small models.

A closed loop with one client.  Each round runs four invocations in a
seeded order -- ``--example conditional``, ``--example ring`` and two JSON
model files written at set-up (the 2-stage OPE pipeline, and the 3-stage
pipeline with a hole at stage 2, whose deadlock makes ``verify`` exit 1)
-- plus one ``python3 -c pass`` at a seeded slot, which keeps the
interpreter's own start apart from the repository's.  Rounds run whole,
so every run sees the same mix.

The traced run swaps half the invocations for a child that times its own
``import repro.workcraft.cli`` and in-process ``cli.main([...])``.
"""

from oracle import MODELS, check_cli
from procs import PYTHON, ChildFailed, python_pass, run_child
from sampling import closed_loop, median

FILE_MODELS = ("ope2s_p1", "ope3s_p1_hole2")
CHILD_TIMEOUT = 60.0
MIN_SAMPLES = 11
_MARK = "PERFBENCH-SPANS"
#: A ``repro-dfs verify`` that reports when its import and its verb ran.
TRACED_CLI = (
    "import contextlib, io, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import repro.workcraft.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "buffer = io.StringIO()\n"
    "with contextlib.redirect_stdout(buffer):\n"
    "    code = cli.main(['verify'] + sys.argv[1:])\n"
    "t2 = time.perf_counter()\n"
    "sys.stdout.write(buffer.getvalue())\n"
    "print('" + _MARK + " %r %r %r' % (t0, t1, t2))\n"
    "sys.exit(code)\n")


def setup(run, directory):
    from repro.campaign.jobs import build_pipeline_model
    from repro.dfs.serialization import dfs_to_json

    requests = [(MODELS["conditional"], ["--example", "conditional"]),
                (MODELS["ring"], ["--example", "ring"])]
    for key in FILE_MODELS:
        path = directory / (key + ".json")
        dfs_to_json(build_pipeline_model(**MODELS[key].kwargs), str(path))
        requests.append((MODELS[key], [str(path)]))
    return requests


def teardown(state):
    pass


def invoke(run, model, args, traced, cls="cli"):
    """One invocation; returns its peak RSS in KiB."""
    try:
        return _invoke(run, model, args, traced, cls)
    except ChildFailed as error:
        run.record(cls, CHILD_TIMEOUT, [str(error)])
        return 0


def _invoke(run, model, args, traced, cls):
    if not traced:
        code, output, started, ended, maxrss = run_child(
            [PYTHON, "-m", "repro.workcraft.cli", "verify"] + args, CHILD_TIMEOUT)
        run.record(cls, ended - started, check_cli(model, code, output), model.states)
        return maxrss
    tracer = run.tracer
    with tracer.request(cls) as request:
        code, output, started, ended, maxrss = run_child(
            [PYTHON, "-c", TRACED_CLI] + args, CHILD_TIMEOUT)
        report, _, marks = output.rpartition(_MARK)
        try:
            t0, t1, t2 = (float(mark) for mark in marks.split())
        except ValueError:
            run.record(cls, ended - started, ["no timings in {!r}".format(output[-500:])])
            return maxrss
        tracer.add("process.spawn", started, t0)
        tracer.add("cli.import", t0, t1)
        tracer.add("cli.verb", t1, t2)
        tracer.add("process.exit", t2, ended)
    run.record(cls, request["end"] - request["start"], check_cli(model, code, report),
               model.states)
    return maxrss


def interpreter_probe(run):
    if run.traced:
        with run.tracer.request("cli-probe",
                                name="interpreter.startup"):
            return python_pass()
    return python_pass()


def rounds(run, requests):
    while True:
        order = list(requests)
        run.rng.shuffle(order)
        yield order, run.rng.randrange(len(order) + 1)


def run_workload(run, requests):
    peak = [0]
    interpreter = []
    parity = [0]

    def one_round(item):
        order, probe_slot = item
        for index, (model, args) in enumerate(order):
            if index == probe_slot:
                interpreter.append(interpreter_probe(run))
            traced = run.traced and (parity[0] + index) % 2 == 0
            cls = "cli" if traced or not run.traced else "cli-plain"
            peak[0] = max(peak[0], invoke(run, model, args, traced, cls))
        if probe_slot == len(order):
            interpreter.append(interpreter_probe(run))
        parity[0] += 1
        return len(order)

    closed_loop(rounds(run, requests), one_round, run.seconds, MIN_SAMPLES)
    records = run.requests.records
    busy = sum(record["latency"] for record in records)
    run.health["interpreter_start_p50_s"] = median(interpreter)
    run.health["invocation_p50_s"] = median(record["latency"] for record in records)
    return {"latency_class": "cli",
            "throughput": {"jobs": len(records), "jobs_s": busy,
                           "states": sum(record["states"] for record in records),
                           "states_s": busy},
            "peak_rss_kb": peak[0],
            "overhead": ("cli", "cli-plain"),
            "layer_classes": {"cli", "cli-probe"}}
