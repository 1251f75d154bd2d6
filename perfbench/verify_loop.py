"""``verify-large`` and ``verify-sharded``: ``Verifier.verify_all`` in-process.

A closed loop with one client builds an OPE pipeline model and runs all
five properties on it, ``engine="auto"`` (the batch engine), with
``workers=0`` or ``workers=2``.  The first request of a run verifies the
4-stage prefix-2 pipeline (855,252 states), so the run's peak RSS is that
graph on a fresh heap; every later request verifies the 3-stage prefix-1
pipeline (191,052 states).  Latency metrics cover the 191k requests only,
so they never pool two model sizes; ``states_per_s`` covers every request.

The traced run calls the layers one by one -- build, translate, compile,
explore, each checker -- each in its own span, and alternates traced and
plain requests of the 191k model to measure the tracing overhead.
"""

import itertools
import resource
import time

from oracle import ALL_PROPERTIES, MODELS, check_results

MAX_STATES = 1_000_000
MID = MODELS["ope3s_p1"]
BIG = MODELS["ope4s_p2"]
#: Latency samples a run needs: the tail needs more than ten.
MIN_SAMPLES = 11
#: Per-layer metrics read from the exploration stats, by engine.
PHASES = {"batch": ("fire", "dedup", "probe", "admit", "edges"),
          "sharded": ("wait", "admit", "merge")}
EXCHANGE_COUNTS = ("foreign_refs", "chunk_messages", "memo_hits")


def setup(run, directory):
    # The imports the requests need (NumPy through the batch engine
    # included) are the set-up here; models are built inside each request.
    import repro.campaign.jobs  # noqa: F401
    import repro.parallel.sharded  # noqa: F401
    import repro.petri.batch  # noqa: F401
    import repro.verification.verifier  # noqa: F401
    return None


def teardown(state):
    pass


def plan():
    yield BIG
    while True:
        yield MID


def plain_request(model, workers):
    """The user's call; returns ``(seconds, problems)``."""
    from repro.campaign.jobs import build_pipeline_model
    from repro.verification.verifier import Verifier

    started = time.perf_counter()
    dfs = build_pipeline_model(**model.kwargs)
    summary = Verifier(dfs, max_states=MAX_STATES, workers=workers).verify_all()
    elapsed = time.perf_counter() - started
    problems = check_results(model, summary.state_count, summary.truncated,
                             summary.results, summary.exploration)
    return elapsed, problems + _engine_problems(summary.exploration, workers)


def traced_request(run, model, workers, cls):
    """The same flow, layer by layer, each call in a span.

    ``petri.compile`` is timed as a call of its own: the engine compiles
    the net again inside ``reachability.explore``.  Returns ``(seconds,
    problems, exploration, graph)``.
    """
    from repro.campaign.jobs import build_pipeline_model
    from repro.dfs.translation import to_petri_net
    from repro.petri.compiled import CompiledNet
    from repro.verification.verifier import Verifier

    tracer = run.tracer
    with tracer.request(cls) as request:
        with tracer.span("dfs.build"):
            dfs = build_pipeline_model(**model.kwargs)
        with tracer.span("dfs.translate"):
            net = to_petri_net(dfs)
        with tracer.span("petri.compile"):
            CompiledNet.compile(net)
        verifier = Verifier(dfs, max_states=MAX_STATES, net=net, workers=workers)
        with tracer.span("reachability.explore"):
            graph = verifier.graph
        results = []
        for prop in ALL_PROPERTIES:
            with tracer.span("checkers." + prop):
                results.append(getattr(verifier, verifier.PROPERTY_CHECKS[prop])())
    exploration = verifier.context.exploration
    problems = check_results(model, len(graph), graph.truncated, results, exploration)
    problems += _engine_problems(exploration, workers)
    return request["end"] - request["start"], problems, exploration, graph


def record_layers(run, exploration, graph):
    """Engine phases as per-request samples, work counts as exact counts."""
    engine = exploration["engine"]
    for phase in PHASES[engine]:
        run.sample("{}.{}_s".format(engine, phase), exploration["phases"][phase])
    if engine == "batch":
        for key in ("states", "edges", "levels"):
            run.count("batch." + key, exploration[key])
    else:
        for key in EXCHANGE_COUNTS:
            run.count("sharded." + key, graph.exchange_stats[key])


def _engine_problems(exploration, workers):
    expected = "sharded" if workers > 1 else "batch"
    engine = (exploration or {}).get("engine")
    return [] if engine == expected else ["engine {!r} (expected {})".format(
        engine, expected)]


def make_workload(workers):
    def run_workload(run, state):
        from sampling import closed_loop

        traced_turn = itertools.cycle((True, False) if run.rng.random() < 0.5
                                      else (False, True))

        def one(model):
            cls = "mid" if model is MID else "big"
            started = time.perf_counter()
            try:
                if run.traced and (model is BIG or next(traced_turn)):
                    elapsed, problems, exploration, graph = traced_request(
                        run, model, workers, cls)
                    if model is MID and not problems:
                        record_layers(run, exploration, graph)
                else:
                    elapsed, problems = plain_request(model, workers)
                    if run.traced:
                        cls += "-plain"
            except Exception as error:  # a request that raises is a failed request
                elapsed = time.perf_counter() - started
                problems = ["{}: {}".format(type(error).__name__, error)]
            run.record(cls, elapsed, problems, model.states)
            return 1 if model is MID else 0

        closed_loop(plan(), one, run.seconds, MIN_SAMPLES)
        records = run.requests.records
        busy = sum(record["latency"] for record in records)
        return {"latency_class": "mid",
                "throughput": {"jobs": len(records), "jobs_s": busy,
                               "states": sum(r["states"] for r in records),
                               "states_s": busy},
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "overhead": ("mid", "mid-plain"),
                "layer_classes": {"mid"}}

    return run_workload
