"""``service-campaign``: a ``repro-dfs serve`` daemon driven over HTTP.

The daemon runs ``--jobs 2 --port 0`` on a fresh cache directory.  One
client (``ServiceClient``, one connection at a time) runs rounds; each
round is a new tenant replaying the catalog -- 21 jobs over eleven small
models, with ``max_witnesses`` settings that give every job its own cache
key -- in a seeded order, with the default properties (no persistence):

* cold phase: up to ``WINDOW`` jobs in flight, the oldest polled every
  100 ms.  A poll that finds the pool with a free worker and nothing
  queued while jobs are still waiting to be sent is an idle poll;
* warm phase: every finished job is submitted again under the same
  tenant, and the content-addressed cache answers it at submit time.

Latency metrics cover warm submissions only.  ``jobs_per_s`` and
``states_per_s`` come from the daemon's own ticket timestamps, so the
client's 100 ms poll step never enters them.
"""

import collections
import contextlib
import itertools
import time

from oracle import MODELS, check_verdict
from procs import Daemon
from sampling import closed_loop

JOBS = 2
MAX_DEPTH = 64
#: Cold jobs in flight: deeper than the jobs two workers finish in one
#: poll interval, well below ``MAX_DEPTH``.
WINDOW = 24
POLL_S = 0.1
MIN_SAMPLES = 11
#: The catalog: model key -> ``max_witnesses`` settings, one job each.  The
#: OPE pipelines, the subject of the paper, run three settings and the small
#: examples one, so the median warm latency sits among the pipelines instead
#: of in the gap between the two families.
CATALOG = {
    "conditional": (2,), "conditional-2": (2,), "conditional-3": (2,),
    "ring": (2,), "ring-6": (2,), "ring-5x2": (2,),
    "ope2s_p1": (1, 2, 3), "ope2s_p1_hole2": (1, 2, 3), "ope3s_p1_hole2": (1, 2, 3),
    "ope3s_p2": (1, 2, 3), "ope3s_p2_hole3": (1, 2, 3),
}
PHASES = ("fire", "dedup", "probe", "admit", "edges")


def catalog_jobs(prefix):
    from repro.campaign.jobs import VerificationJob

    jobs = []
    for key, settings in CATALOG.items():
        model = MODELS[key]
        for witnesses in settings:
            job = VerificationJob("{}-{}-w{}".format(prefix, key, witnesses),
                                  model.factory, model.kwargs,
                                  max_witnesses=witnesses)
            jobs.append((model, job))
    return jobs


def setup(run, directory):
    from repro.service.client import ServiceClient

    daemon = Daemon(directory / "cache", directory / "daemon.log",
                    jobs=JOBS, max_depth=MAX_DEPTH)
    try:
        client = ServiceClient(daemon.wait_address())
        deadline = time.perf_counter() + 60.0
        while client.healthz().get("status") != "ok":
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never reported healthy")
            time.sleep(0.01)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def teardown(daemon):
    daemon.stop()


class _Round:
    def __init__(self, run, url, index):
        from repro.service.client import ServiceClient

        self.run = run
        self.client = ServiceClient(url, tenant="seed{}-round{}".format(run.seed, index))
        self.jobs = catalog_jobs("r{}".format(index))
        run.rng.shuffle(self.jobs)
        self.finished = []
        self.idle_polls = 0
        self.rejected = 0

    def cold(self):
        """Submit every job with a window in flight; return the ticket records."""
        from repro.service.client import ServiceBusy

        run = self.run
        pending = collections.deque(self.jobs)
        inflight = collections.deque()
        tickets = []
        while pending or inflight:
            while pending and len(inflight) < WINDOW:
                model, job = pending.popleft()
                sent = time.perf_counter()
                try:
                    ticket = self.client.submit(job.to_dict())
                except ServiceBusy as busy:
                    self.rejected += 1
                    run.record("cold", time.perf_counter() - sent, ["429: {}".format(busy)])
                    continue
                inflight.append((model, job, ticket["id"], sent))
            model, job, ticket_id, sent = inflight[0]
            record = self.client.job(ticket_id)
            if record.get("status") == "done":
                inflight.popleft()
                result = record.get("result") or {}
                problems = _result_problems(model, result, "miss")
                run.record("cold", time.perf_counter() - sent, problems, model.states)
                if not problems:
                    self.finished.append((model, job, result))
                    tickets.append(record)
                continue
            stats = self.client.stats()
            if pending and stats["queued"] == 0 and stats["running"] < JOBS:
                self.idle_polls += 1
            time.sleep(POLL_S)
        return tickets

    def warm(self):
        run = self.run
        order = list(self.finished)
        run.rng.shuffle(order)
        for model, job, _ in order:
            traced = run.traced and run.rng.random() < 0.5
            span = (run.tracer.request("warm", name="service.submit")
                    if traced else contextlib.nullcontext())
            problems = []
            with span:
                sent = time.perf_counter()
                try:
                    record = self.client.submit(job.to_dict())
                except Exception as error:  # an error or a 429 is a failed request
                    record, problems = {}, ["{}: {}".format(type(error).__name__, error)]
                elapsed = time.perf_counter() - sent
            if not problems and record.get("status") != "done":
                problems = ["warm submission not answered at submit time"]
            if not problems:
                problems = _result_problems(model, record.get("result") or {}, "hit")
            cls = "warm" if traced or not run.traced else "warm-plain"
            run.record(cls, elapsed, problems, model.states)
        return len(order)


def _result_problems(model, result, cache):
    if result.get("status") != "ok":
        return ["job {}: {}".format(result.get("status"),
                                    (result.get("error") or "")[-300:])]
    problems = check_verdict(model, result.get("verdict"),
                             exploration=result.get("exploration"))
    if result.get("cache") != cache:
        problems.append("cache {!r} (expected {})".format(result.get("cache"), cache))
    return problems


def run_workload(run, daemon, record_batch=True):
    """Run rounds until the clock runs out; *record_batch* keeps the cold
    jobs' engine phases as this run's ``batch.*`` layer values."""
    from repro.service.client import ServiceClient

    offset = time.time() - time.perf_counter()
    totals = {"jobs": 0, "jobs_s": 0.0, "states": 0, "states_s": 0.0}
    health = {"idle_polls": 0, "rejected_429": 0, "rounds": 0}
    probe = ServiceClient(daemon.url)

    def one_round(index):
        current = _Round(run, daemon.url, index)
        if run.traced:
            with run.tracer.request("probe", name="service.healthz"):
                probe.healthz()
        tickets = current.cold()
        samples = current.warm()
        health["idle_polls"] += current.idle_polls
        health["rejected_429"] += current.rejected
        health["rounds"] += 1
        if tickets:
            totals["jobs"] += len(tickets)
            totals["jobs_s"] += (max(t["finished"] for t in tickets)
                                 - min(t["submitted"] for t in tickets))
            totals["states"] += sum(result["verdict"]["state_count"]
                                    for _, _, result in current.finished)
            totals["states_s"] += sum(t["finished"] - t["started"] for t in tickets)
        if run.traced:
            _record_layers(run, tickets, current.finished, offset, record_batch)
        return samples

    closed_loop(itertools.count(), one_round, run.seconds, MIN_SAMPLES)
    if run.traced:
        stats = probe.stats()
        rounds = health["rounds"]
        run.count("scheduler.cache_hits", stats["cache_hits"] / rounds)
        run.count("scheduler.completed", stats["completed"] / rounds)
        run.count("service.rejected", sum(stats["rejected"].values()))
        run.count("generator.idle_polls", health["idle_polls"])
    daemon.stop()
    run.health.update(health)
    return {"latency_class": "warm", "throughput": totals,
            "peak_rss_kb": daemon.maxrss_kb,
            "overhead": ("warm", "warm-plain"),
            "layer_classes": {"warm", "cold", "probe"}}


def _record_layers(run, tickets, finished, offset, record_batch):
    """Ticket timestamps as spans; engine phases and per-round work counts."""
    tracer = run.tracer
    for track, ticket in enumerate(tickets):
        request = tracer.declare("cold")
        started = ticket["started"] - offset
        tracer.add("scheduler.queue_wait", ticket["submitted"] - offset, started,
                   request=request, track=2 + track % JOBS)
        tracer.add("scheduler.run", started, ticket["finished"] - offset,
                   request=request, track=2 + track % JOBS)
    if not record_batch:
        return
    totals = collections.Counter()
    for _, _, result in finished:
        exploration = result["exploration"]
        for phase in PHASES:
            run.sample("batch.{}_s".format(phase), exploration["phases"][phase])
        for key in ("states", "edges", "levels"):
            totals[key] += exploration[key]
    for key, value in totals.items():
        run.count("batch." + key, value)
