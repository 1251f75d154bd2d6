"""Per-layer metrics of the traced run, and the sweep that completes them.

Each metric names the layer of ``src/repro`` it times and where its value
comes from: the self time of a span the benchmark wraps around a call into
that layer, an engine phase read from the public ``exploration`` stats, or
an exact count.  A workload's own requests supply the layers on its path;
the sweep supplies every other layer from a short, fixed set of calls on
small inputs, so each traced run reports every metric.  The value of a
timing is the median over its samples.
"""

from oracle import MODELS, check_verdict
from sampling import median

S, COUNT, RATIO = "s", "count", "ratio"

#: ``(metric, unit, better, span name or None)``; ``None`` = a sample/count.
PER_LAYER = (
    ("interpreter.startup_s", S, "lower", "interpreter.startup"),
    ("cli.import_s", S, "lower", "cli.import"),
    ("cli.verb_s", S, "lower", "cli.verb"),
    ("dfs.build_s", S, "lower", "dfs.build"),
    ("dfs.translate_s", S, "lower", "dfs.translate"),
    ("petri.compile_s", S, "lower", "petri.compile"),
    ("reachability.explore_s", S, "lower", "reachability.explore"),
    ("batch.fire_s", S, "lower", None),
    ("batch.dedup_s", S, "lower", None),
    ("batch.probe_s", S, "lower", None),
    ("batch.admit_s", S, "lower", None),
    ("batch.edges_s", S, "lower", None),
    ("batch.states", COUNT, "lower", None),
    ("batch.edges", COUNT, "lower", None),
    ("batch.levels", COUNT, "lower", None),
    ("sharded.wait_s", S, "lower", None),
    ("sharded.admit_s", S, "lower", None),
    ("sharded.merge_s", S, "lower", None),
    ("sharded.foreign_refs", COUNT, "lower", None),
    ("sharded.chunk_messages", COUNT, "lower", None),
    ("sharded.memo_hits", COUNT, "higher", None),
    ("checkers.safeness_s", S, "lower", "checkers.safeness"),
    ("checkers.deadlock_s", S, "lower", "checkers.deadlock"),
    ("checkers.mismatch_s", S, "lower", "checkers.mismatch"),
    ("checkers.exclusion_s", S, "lower", "checkers.exclusion"),
    ("checkers.persistence_s", S, "lower", "checkers.persistence"),
    ("fingerprint.key_s", S, "lower", "fingerprint.key"),
    ("cache.get_s", S, "lower", "cache.get"),
    ("cache.put_s", S, "lower", "cache.put"),
    ("jobs.run_s", S, "lower", "jobs.run"),
    ("scheduler.queue_wait_s", S, "lower", "scheduler.queue_wait"),
    ("scheduler.run_s", S, "lower", "scheduler.run"),
    ("service.healthz_s", S, "lower", "service.healthz"),
    ("scheduler.cache_hits", COUNT, "higher", None),
    ("scheduler.completed", COUNT, "higher", None),
    ("service.rejected", COUNT, "lower", None),
    ("generator.idle_polls", COUNT, "lower", None),
    ("trace.overhead", RATIO, "lower", None),
    ("trace.coverage", RATIO, "higher", None),
)

#: Counts that depend on timing rather than on the inputs alone.
OBSERVED_COUNTS = ("generator.idle_polls", "service.rejected")

SWEEP_JOB_REPS = 2
SWEEP_CLI_REPS = 3
SWEEP_MODEL = MODELS["ope2s_p1"]
#: The sweep's sharded request only supplies ``sharded.*``; its spans
#: would otherwise mix a second engine into the explore and checker layers.
SHARDED_SWEEP = "sweep-sharded"


def sweep(run, directory):
    """Time every layer the workload's own requests did not reach."""
    import cli_small
    import service_loop
    import verify_loop

    tracer = run.tracer
    _sweep_jobs(run, directory)
    for workers, cls in ((0, "sweep"), (2, SHARDED_SWEEP)):
        engine = "sharded" if workers else "batch"
        need_layers = engine + ".admit_s" not in run.samples
        need_spans = not workers and not tracer.self_times(
            "reachability.explore", exclude=(SHARDED_SWEEP,))
        if need_layers or need_spans:
            elapsed, problems, exploration, graph = verify_loop.traced_request(
                run, SWEEP_MODEL, workers, cls)
            run.record("sweep", elapsed, problems, SWEEP_MODEL.states)
            if need_layers and not problems:
                verify_loop.record_layers(run, exploration, graph)
    if not tracer.self_times("cli.import"):
        model = MODELS["conditional"]
        for _ in range(SWEEP_CLI_REPS):
            cli_small.interpreter_probe(run)
            cli_small.invoke(run, model, ["--example", "conditional"], True, "sweep")
    if not tracer.self_times("scheduler.run"):
        service_dir = directory / "sweep-service"
        service_dir.mkdir()
        daemon = service_loop.setup(run, service_dir)
        try:
            service_loop.run_workload(run.sharing(seconds=0), daemon, record_batch=False)
        finally:
            service_loop.teardown(daemon)


def _sweep_jobs(run, directory):
    """The per-job layers of a campaign job, in-process, on the service catalog."""
    from repro.campaign.cache import ResultCache, net_fingerprint, options_digest
    from repro.dfs.translation import to_petri_net
    from repro.petri.compiled import CompiledNet
    from service_loop import catalog_jobs

    tracer = run.tracer
    cache = ResultCache(str(directory / "sweep-cache"))
    for rep in range(SWEEP_JOB_REPS):
        for model, job in catalog_jobs("sweep{}".format(rep)):
            if job.max_witnesses != 2:
                continue
            with tracer.request("sweep", name="job") as request:
                with tracer.span("dfs.build"):
                    dfs = job.build_model()
                with tracer.span("dfs.translate"):
                    net = to_petri_net(dfs)
                with tracer.span("petri.compile"):
                    CompiledNet.compile(net)
                with tracer.span("fingerprint.key"):
                    key = cache.key(net_fingerprint(net), options_digest(job.options()))
                with tracer.span("jobs.run"):
                    result = job.run(cache=None)
                with tracer.span("cache.put"):
                    cache.put(key, result["verdict"])
                with tracer.span("cache.get"):
                    cached = cache.get(key)
            problems = check_verdict(model, result["verdict"],
                                     exploration=result.get("exploration"))
            if cached != result["verdict"]:
                problems.append("cache returned a different verdict")
            run.record("sweep", request["end"] - request["start"], problems, model.states)


def per_layer(run, outcome, require_coverage):
    """Every per-layer metric: ``{name: (value, unit)}``."""
    tracer = run.tracer
    own = outcome["layer_classes"]
    metrics = {}
    for name, unit, _, span in PER_LAYER:
        if span is not None:
            values = (tracer.self_times(span, own)
                      or tracer.self_times(span, exclude=(SHARDED_SWEEP,)))
            metrics[name] = (median(values), unit)
        elif unit == COUNT:
            metrics[name] = (run.counts[name], unit)
        elif unit == S:
            metrics[name] = (median(run.samples[name]), unit)
    traced_cls, plain_cls = outcome["overhead"]
    metrics["trace.overhead"] = (
        median(run.requests.latencies(traced_cls))
        / median(run.requests.latencies(plain_cls)) - 1.0, RATIO)
    coverage = _coverage(tracer, own)
    metrics["trace.coverage"] = (coverage, RATIO)
    if require_coverage and coverage < require_coverage:
        run.fail("child spans cover only {:.1%} of a request".format(coverage))
    return metrics


def _coverage(tracer, classes):
    """The lowest share of a request its child spans cover."""
    def requests(of):
        return [span for span in tracer.spans
                if span["parent"] is None and tracer.children(span)
                and (of is None or tracer.request_class.get(span["request"]) in of)]

    roots = requests(classes) or requests(None)
    return min(tracer.coverage(span) for span in roots)
