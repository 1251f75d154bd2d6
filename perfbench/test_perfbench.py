"""Tests of the benchmark's own guards, oracle and spans.

Run with ``python3 -m pytest perfbench``.  The workload loops run here
against a fake clock and fake requests, so no model is verified and no
process is started.
"""

import sys
import time

import pytest

import cli_small
import oracle
import procs
import sampling
import service_loop
import verify_loop
from context import Run
from spans import Tracer

sys.path.insert(0, str(procs.SRC))


# -- the tail helper ---------------------------------------------------------


def test_tail_refuses_ten_samples_or_fewer():
    for count in range(11):
        with pytest.raises(sampling.TooFewSamples):
            sampling.tail(range(count))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert sampling.tail(range(11)) == (0, 100.0 / 11, 11)
    value, percentile, count = sampling.tail(range(100))
    assert (value, percentile, count) == (89, 90.0, 100)
    assert sum(1 for sample in range(100) if sample > value) == 10


# -- no latency metric pools warm and cold requests --------------------------


def _requests(warm, cold):
    requests = sampling.Requests()
    for latency in warm:
        requests.add("warm", latency, True)
    for latency in cold:
        requests.add("cold", latency, True)
    return requests


def test_latencies_take_one_class():
    requests = _requests([0.001] * 3, [0.5] * 2)
    assert requests.latencies("warm") == [0.001] * 3
    with pytest.raises(sampling.MixedClasses):
        requests.latencies(("warm", "cold"))


def test_cold_requests_never_move_warm_latency_metrics():
    throughput = {"jobs": 1, "jobs_s": 1.0, "states": 1, "states_s": 1.0}
    warm = [0.001 * (1 + index % 7) for index in range(40)]
    alone, _ = sampling.end_to_end(_requests(warm, []), "warm", throughput, [1.0], 1024)
    mixed, _ = sampling.end_to_end(_requests(warm, [9.0] * 40), "warm", throughput,
                                   [1.0], 1024)
    for name in ("latency_p50_s", "latency_tail_s"):
        assert alone[name] == mixed[name]


# -- no metric is set by the load schedule -----------------------------------


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(time, "perf_counter", fake)
    monkeypatch.setattr(time, "time", fake)
    monkeypatch.setattr(time, "sleep", fake.advance)
    return fake


def _verify_metrics(monkeypatch, clock, slowness):
    def fake_request(model, workers):
        cost = slowness * model.states / 250000.0
        clock.advance(cost)
        return cost, []

    monkeypatch.setattr(verify_loop, "plain_request", fake_request)
    run = Run("verify-large", 7, 25.0, False)
    outcome = verify_loop.make_workload(0)(run, None)
    return sampling.end_to_end(run.requests, outcome["latency_class"],
                               outcome["throughput"], [0.4 * slowness],
                               outcome["peak_rss_kb"])[0]


def _cli_metrics(monkeypatch, clock, slowness):
    def fake_invoke(run, model, args, traced, cls="cli"):
        cost = slowness * (0.3 + model.states / 100000.0)
        clock.advance(cost)
        run.record(cls, cost, [], model.states)
        return 50000

    def fake_probe(run):
        clock.advance(0.02 * slowness)
        return 0.02 * slowness

    monkeypatch.setattr(cli_small, "invoke", fake_invoke)
    monkeypatch.setattr(cli_small, "interpreter_probe", fake_probe)
    run = Run("cli-small", 7, 25.0, False)
    requests = [(oracle.MODELS[key], []) for key in
                ("conditional", "ring", "ope2s_p1", "ope3s_p1_hole2")]
    outcome = cli_small.run_workload(run, requests)
    return sampling.end_to_end(run.requests, outcome["latency_class"],
                               outcome["throughput"], [0.3 * slowness],
                               outcome["peak_rss_kb"])[0]


def _service_metrics(monkeypatch, clock, slowness):
    class FakeRound:
        def __init__(self, run, url, index):
            self.run = run
            self.idle_polls = self.rejected = 0
            self.finished = []

        def cold(self):
            tickets = []
            for key in service_loop.CATALOG:
                model = oracle.MODELS[key]
                submitted = clock()
                clock.advance(slowness * 0.01)
                started = clock()
                clock.advance(slowness * (0.02 + model.states / 200000.0))
                tickets.append({"submitted": submitted, "started": started,
                                "finished": clock()})
                self.finished.append((model, None,
                                      {"verdict": {"state_count": model.states}}))
                self.run.record("cold", clock() - submitted, [], model.states)
            return tickets

        def warm(self):
            for model, _, _ in self.finished:
                clock.advance(slowness * 0.003)
                self.run.record("warm", slowness * 0.003, [], model.states)
            return len(self.finished)

    class FakeDaemon:
        url = "http://127.0.0.1:9"
        maxrss_kb = 60000

        def stop(self):
            pass

    monkeypatch.setattr(service_loop, "_Round", FakeRound)
    run = Run("service-campaign", 7, 25.0, False)
    outcome = service_loop.run_workload(run, FakeDaemon())
    return sampling.end_to_end(run.requests, outcome["latency_class"],
                               outcome["throughput"], [0.7 * slowness],
                               outcome["peak_rss_kb"])[0]


@pytest.mark.parametrize("measure", [_verify_metrics, _cli_metrics, _service_metrics])
def test_every_timing_metric_follows_the_system(monkeypatch, clock, measure):
    fast = measure(monkeypatch, clock, 1.0)
    slow = measure(monkeypatch, clock, 2.0)
    assert sampling.schedule_fixed(fast, slow, 2.0) == []


def test_a_wall_clock_total_is_flagged():
    fast = {"wall_s": (25.3, "s"), "latency_p50_s": (0.1, "s"), "jobs_per_s": (10.0, "jobs/s")}
    slow = {"wall_s": (25.9, "s"), "latency_p50_s": (0.2, "s"), "jobs_per_s": (5.0, "jobs/s")}
    assert sampling.schedule_fixed(fast, slow, 2.0) == ["wall_s"]


# -- the oracle --------------------------------------------------------------

HOLE_REPORT = """Verification of 'ope3s_p1_hole2' (1904 reachable states)
  [OK  ] 1-safeness [exhaustive] -- net is 1-bounded
  [FAIL] deadlock freedom [exhaustive] -- 1 reachable deadlock state(s)
         counterexample: {'marked': {}}
  [OK  ] control-token mismatch -- no node is guarded by two or more control registers
  [OK  ] token-value exclusion [exhaustive] -- no reachable bad state
  [OK  ] persistence [exhaustive] -- all transitions persistent
"""


def test_cli_oracle_accepts_the_expected_report():
    assert oracle.check_cli(oracle.MODELS["ope3s_p1_hole2"], 1, HOLE_REPORT) == []


def test_cli_oracle_rejects_drift():
    model = oracle.MODELS["ope3s_p1_hole2"]
    assert oracle.check_cli(model, 0, HOLE_REPORT)
    assert oracle.check_cli(model, 1, HOLE_REPORT.replace("1904", "1905"))
    assert oracle.check_cli(model, 1, HOLE_REPORT.replace("[FAIL]", "[OK  ]"))
    no_witness = HOLE_REPORT.replace("         counterexample: {'marked': {}}\n", "")
    assert oracle.check_cli(model, 1, no_witness)


def test_verdict_oracle_checks_counts_and_witnesses():
    model = oracle.MODELS["ope3s_p1_hole2"]
    verdict = {"state_count": 1904, "truncated": False, "passed": False,
               "properties": [{"property": prop, "holds": prop != "deadlock",
                               "trace": ["t1"] if prop == "deadlock" else None}
                              for prop in oracle.JOB_PROPERTIES]}
    exploration = {"states": 1904, "edges": 7808, "levels": 26}
    assert oracle.check_verdict(model, verdict, exploration=exploration) == []
    assert oracle.check_verdict(model, verdict, exploration=dict(exploration, edges=7807))
    verdict["properties"][1]["trace"] = None
    assert oracle.check_verdict(model, verdict, exploration=exploration)


# -- spans -------------------------------------------------------------------


def test_self_time_and_coverage():
    tracer = Tracer()
    root = tracer.add("request", 0.0, 10.0, request=tracer.declare("x"))
    tracer.add("a", 1.0, 4.0, request=root["request"])["parent"] = root["id"]
    tracer.add("b", 3.0, 6.0, request=root["request"])["parent"] = root["id"]
    assert tracer.self_time(root) == pytest.approx(5.0)
    assert tracer.coverage(root) == pytest.approx(0.5)
    events = tracer.chrome_events()
    assert [event["ph"] for event in events] == ["X"] * 3
    assert events[1]["args"]["parent"] == root["id"]
