"""Tests of the parallel subsystem: sharded BFS, supervisor, racing, caches.

The central contract under test is *bit-identity*: the sharded explorer must
produce exactly the graph the sequential engine produces (states in
discovery order, packed edges, parents, frontier, truncation), racing
portfolios must never contradict sequential ones, and warm semiflow-cache
hits must equal cold derivations element for element.
"""

import os
import threading
import time

import pytest

from repro.campaign.jobs import VerificationJob, build_pipeline_model
from repro.campaign.scenario import ScenarioSpec, generate_scenarios
from repro.dfs.examples import conditional_comp_dfs, linear_pipeline, token_ring
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError, VerificationError
from repro.parallel.context import mp_context, start_method
from repro.parallel.sharded import explore_sharded, shard_of
from repro.parallel.supervisor import (
    SupervisorPool,
    TaskOutcome,
    run_supervised,
)
from repro.petri.compiled import CompiledNet, explore_compiled
from repro.petri.fingerprint import net_fingerprint, options_digest
from repro.petri.invariants import (
    InvariantBudgetExceeded,
    SemiflowCache,
    compute_semiflows,
    compute_semiflows_cached,
)
from repro.petri.reachability import build_reachability_graph
from repro.verification.verifier import Verifier


def _example_models():
    return [
        ("conditional", conditional_comp_dfs()),
        ("ring", token_ring()),
        ("linear", linear_pipeline()),
        ("ope2", build_pipeline_model(2, static_prefix=1)),
        ("ope3-hole2", build_pipeline_model(3, static_prefix=1, holes=[2])),
    ]


def _assert_identical(sequential, sharded, tag):
    assert sharded._mask_states == sequential._mask_states, tag
    assert sharded._mask_edges == sequential._mask_edges, tag
    assert sharded._parents == sequential._parents, tag
    assert sharded._frontier_indices == sequential._frontier_indices, tag
    assert sharded.truncated == sequential.truncated, tag


# -- sharded exploration ------------------------------------------------------


class TestShardedExploration:
    def test_bit_identical_across_example_family(self):
        """Same states, edges, parents, frontier -- including truncation."""
        for name, dfs in _example_models():
            compiled = CompiledNet.compile(to_petri_net(dfs))
            for max_states in (1, 2, 7, 50, 1000, 200000):
                sequential = explore_compiled(compiled, max_states=max_states)
                for workers in (1, 2, 3):
                    sharded = explore_sharded(compiled, max_states=max_states,
                                              workers=workers)
                    _assert_identical(sequential, sharded,
                                      "{} max_states={} workers={}".format(
                                          name, max_states, workers))

    def test_graph_level_queries_match(self):
        """Deadlocks, traces and frontier agree through the public API."""
        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        compiled = CompiledNet.compile(to_petri_net(dfs))
        sequential = explore_compiled(compiled, max_states=200000)
        sharded = explore_sharded(compiled, max_states=200000, workers=2)
        assert sharded.deadlocks() == sequential.deadlocks()
        assert sharded.edge_count() == sequential.edge_count()
        assert len(sharded) == len(sequential)
        for deadlock in sequential.deadlocks():
            assert sharded.trace_to(deadlock) == sequential.trace_to(deadlock)

    def test_truncated_frontier_is_exact(self):
        dfs = build_pipeline_model(2, static_prefix=1)
        compiled = CompiledNet.compile(to_petri_net(dfs))
        sequential = explore_compiled(compiled, max_states=100)
        sharded = explore_sharded(compiled, max_states=100, workers=2)
        assert sequential.truncated and sharded.truncated
        assert sharded.frontier == sequential.frontier

    def test_verifier_workers_verdicts_bit_identical(self):
        """A workers>1 verifier produces the same summary as a sequential one."""
        dfs = build_pipeline_model(2, static_prefix=1)
        sequential = Verifier(dfs, max_states=500).verify_all(
            include_persistence=True)
        sharded = Verifier(dfs, max_states=500, workers=2).verify_all(
            include_persistence=True)
        for left, right in zip(sequential.results, sharded.results):
            assert left.holds == right.holds
            assert left.details == right.details
            assert left.witnesses == right.witnesses

    def test_build_reachability_graph_workers_parameter(self):
        net = to_petri_net(token_ring())
        sequential = build_reachability_graph(net, max_states=30)
        sharded = build_reachability_graph(net, max_states=30, workers=2)
        _assert_identical(sequential, sharded, "build_reachability_graph")

    def test_rejects_bad_worker_counts(self):
        compiled = CompiledNet.compile(to_petri_net(token_ring()))
        with pytest.raises(VerificationError):
            explore_sharded(compiled, workers=-2)
        with pytest.raises(VerificationError):
            explore_sharded(compiled, workers=1000)

    def test_shard_partition_is_deterministic(self):
        states = [0, 1, 7, 1 << 100, (1 << 180) - 1]
        assert [shard_of(s, 3) for s in states] == [shard_of(s, 3)
                                                    for s in states]


class TestExchangeProtocol:
    """Chunked streaming, the resolution memo, and the worker backends."""

    def test_tiny_chunks_stay_bit_identical(self):
        """Many chunks per level exercise the streamed relay/final markers."""
        dfs = build_pipeline_model(2, static_prefix=1)
        compiled = CompiledNet.compile(to_petri_net(dfs))
        sequential = explore_compiled(compiled, max_states=2000)
        for chunk_states in (1, 3, 17):
            sharded = explore_sharded(compiled, max_states=2000, workers=3,
                                      chunk_states=chunk_states)
            _assert_identical(sequential, sharded,
                              "chunk_states={}".format(chunk_states))

    def test_memo_on_off_and_disabled_stay_bit_identical(self):
        for name, dfs in _example_models():
            compiled = CompiledNet.compile(to_petri_net(dfs))
            sequential = explore_compiled(compiled, max_states=5000)
            for memo_size in (0, 2, 65536):
                sharded = explore_sharded(compiled, max_states=5000,
                                          workers=2, memo_size=memo_size)
                _assert_identical(sequential, sharded,
                                  "{} memo_size={}".format(name, memo_size))

    def test_both_backends_stay_bit_identical(self):
        """The pure-int and (when available) NumPy workers interchange."""
        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        compiled = CompiledNet.compile(to_petri_net(dfs))
        for max_states in (50, 5000):
            sequential = explore_compiled(compiled, max_states=max_states)
            for batch in (False, None):
                sharded = explore_sharded(compiled, max_states=max_states,
                                          workers=2, batch=batch)
                _assert_identical(sequential, sharded,
                                  "batch={} max_states={}".format(
                                      batch, max_states))

    def test_exchange_stats_are_attached_and_consistent(self):
        dfs = build_pipeline_model(2, static_prefix=1)
        compiled = CompiledNet.compile(to_petri_net(dfs))
        with_memo = explore_sharded(compiled, max_states=5000, workers=2)
        without = explore_sharded(compiled, max_states=5000, workers=2,
                                  memo_size=0, batch=False)
        for stats in (with_memo.exchange_stats, without.exchange_stats):
            assert set(stats) == {"memo_hits", "foreign_refs", "levels",
                                  "chunk_messages"}
            assert stats["levels"] > 0
            assert stats["chunk_messages"] >= stats["levels"]
            assert stats["memo_hits"] <= stats["foreign_refs"]
        # Both backends route the same successors across shards.
        assert with_memo.exchange_stats["foreign_refs"] == \
            without.exchange_stats["foreign_refs"]
        assert without.exchange_stats["memo_hits"] == 0

    def test_memo_hits_on_reconvergent_graph(self):
        """Cross-level re-references must be answered from the memo."""
        compiled = CompiledNet.compile(
            to_petri_net(token_ring(registers=5, tokens=2)))
        sequential = explore_compiled(compiled)
        for batch in (False, None):
            sharded = explore_sharded(compiled, workers=3, batch=batch)
            _assert_identical(sequential, sharded,
                              "memo batch={}".format(batch))
            assert sharded.exchange_stats["memo_hits"] > 0

    def test_bounded_memo_keeps_hot_entries(self):
        """A tight bound must not evict the entries that actually get hit.

        The frequency/depth-aware eviction policy protects hit entries and
        old (shallow) entries, so even a memo a fraction of the working
        set's size retains most of the unbounded hit count -- where FIFO
        eviction used to flush hot shallow states every level.  The graph
        itself must stay bit-identical: the bound only affects hit rate.
        """
        compiled = CompiledNet.compile(
            to_petri_net(token_ring(registers=5, tokens=2)))
        sequential = explore_compiled(compiled)
        for batch in (False, None):
            ceiling = explore_sharded(
                compiled, workers=3, batch=batch).exchange_stats["memo_hits"]
            bounded = explore_sharded(compiled, workers=3, batch=batch,
                                      memo_size=64)
            _assert_identical(sequential, bounded,
                              "bounded memo batch={}".format(batch))
            hits = bounded.exchange_stats["memo_hits"]
            assert hits > 0
            assert hits >= ceiling // 2, \
                "batch={}: {} of {} ceiling hits survive a 64-entry " \
                "bound".format(batch, hits, ceiling)

    def test_default_memo_bound_reaches_pipeline_ceiling(self):
        """The stock 65536 bound must attain the family's analytic ceiling.

        On the depth-3 pipeline at three workers the cross-shard working
        set overflows the default bound (~191k states), and an unbounded
        memo answers exactly 1216 re-references.  The eviction policy has
        to deliver that same count under the bound -- and identically on
        both worker backends.
        """
        dfs = build_pipeline_model(3, static_prefix=1)
        compiled = CompiledNet.compile(to_petri_net(dfs))
        hits = {}
        for batch in (False, None):
            sharded = explore_sharded(compiled, max_states=200000, workers=3,
                                      batch=batch, memo_size=65536)
            hits[batch] = sharded.exchange_stats["memo_hits"]
        assert hits[False] == hits[None], hits
        assert hits[False] >= 1200, hits


# -- the supervised pool ------------------------------------------------------


def _quick_task(value):
    return value * 2


def _slow_task(seconds):
    time.sleep(seconds)
    return "done"


def _failing_task():
    raise RuntimeError("boom")


def _crashing_task():
    os._exit(17)


def _gated_task(release):
    release.wait()
    return "released"


class TestSupervisor:
    def test_runs_tasks_and_returns_payloads_in_order(self):
        outcomes = run_supervised(
            [("a", _quick_task, (1,)), ("b", _quick_task, (2,))],
            parallelism=2)
        assert [outcome.task_id for outcome in outcomes] == ["a", "b"]
        assert [outcome.payload for outcome in outcomes] == [2, 4]
        assert all(outcome.ok for outcome in outcomes)

    def test_error_timeout_and_crash_containment(self):
        outcomes = run_supervised(
            [("err", _failing_task, ()),
             ("slow", _slow_task, (60,)),
             ("dead", _crashing_task, ())],
            parallelism=3, timeout=1.5)
        by_id = {outcome.task_id: outcome for outcome in outcomes}
        assert by_id["err"].status == "error"
        assert "boom" in by_id["err"].error
        assert by_id["slow"].status == "timeout"
        assert by_id["dead"].status == "crashed"
        assert "exit code 17" in by_id["dead"].error

    def test_stop_when_cancels_the_losers(self):
        outcomes = run_supervised(
            [("fast", _quick_task, (21,)), ("slow", _slow_task, (60,))],
            parallelism=2,
            stop_when=lambda outcome: outcome.ok and outcome.payload == 42)
        by_id = {outcome.task_id: outcome for outcome in outcomes}
        assert by_id["fast"].payload == 42
        assert by_id["slow"].status == "cancelled"

    def test_inline_mode_honours_stop_when(self):
        outcomes = run_supervised(
            [("first", _quick_task, (21,)), ("second", _quick_task, (5,))],
            parallelism=0,
            stop_when=lambda outcome: outcome.ok and outcome.payload == 42)
        assert outcomes[0].payload == 42
        assert outcomes[1].status == "cancelled"

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            run_supervised([("x", _quick_task, (1,)), ("x", _quick_task, (2,))],
                           parallelism=0)

    def test_pool_never_runs_more_than_its_parallelism(self):
        pool = SupervisorPool(parallelism=2, timeout=120)
        release = pool.context.Event()
        all_submitted = threading.Event()
        two_running = threading.Event()
        all_done = threading.Event()
        running_at_start = []
        outcomes = []

        def on_start(task_id):
            # The supervision thread calls this right after a task joins
            # the active set; the first call holds the thread until every
            # task is queued, so the next dispatch pass sees all of them.
            all_submitted.wait(60)
            running_at_start.append(pool.running)
            if len(running_at_start) == 2:
                two_running.set()

        def on_outcome(outcome):
            outcomes.append(outcome)
            if len(outcomes) == 10:
                all_done.set()

        try:
            for index in range(10):
                pool.submit("task-{}".format(index), _gated_task, (release,),
                            on_start=on_start, on_outcome=on_outcome)
            all_submitted.set()
            assert two_running.wait(60)
            release.set()
            assert all_done.wait(120)
        finally:
            release.set()
            pool.shutdown()
        assert max(running_at_start) <= 2, running_at_start
        assert len(running_at_start) == 10
        assert [outcome.status for outcome in outcomes] == ["ok"] * 10

    def test_outcome_repr_and_start_method(self):
        assert "cancelled" in repr(TaskOutcome("t", "cancelled"))
        assert start_method() in ("fork", "spawn", "forkserver")
        assert mp_context().get_start_method() == start_method()


# -- the racing portfolio -----------------------------------------------------


class TestRacingPortfolio:
    def test_race_never_contradicts_rotation(self):
        """Across the example family, racing and rotation verdicts agree."""
        for name, dfs in _example_models():
            rotation = Verifier(dfs, max_states=50000, checker="portfolio")
            racing = Verifier(
                dfs, max_states=50000, checker="portfolio",
                checker_options={"portfolio": {"race": True}})
            for check in ("verify_deadlock_freedom", "verify_safeness",
                          "verify_value_mutual_exclusion"):
                left = getattr(rotation, check)()
                right = getattr(racing, check)()
                assert left.holds == right.holds, (name, check)

    def test_race_finds_the_injected_hole_deadlock(self):
        holey = build_pipeline_model(4, static_prefix=1, holes=[3])
        result = Verifier(
            holey, max_states=50000, checker="portfolio",
            checker_options={"portfolio": {"race": True}},
        ).verify_deadlock_freedom()
        assert result.holds is False
        assert result.witnesses[0]["trace"]
        assert "won the race" in result.details

    def test_race_cancels_losers(self):
        """A conclusive winner reports the fate of every other member."""
        holey = build_pipeline_model(4, static_prefix=1, holes=[3])
        result = Verifier(
            holey, max_states=2000000, checker="portfolio",
            checker_options={"portfolio": {
                "race": True,
                "walk": {"walks": 64, "steps": 4096},
            }},
        ).verify_deadlock_freedom()
        assert result.holds is False
        # The exhaustive engine cannot finish >2M states before the walker
        # finds the hole; the race must have put it out of its misery.
        assert "exhaustive cancelled" in result.details


# -- the semiflow cache -------------------------------------------------------


class TestSemiflowCache:
    def test_warm_hit_is_bit_identical_to_cold(self, tmp_path):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1))
        cache = SemiflowCache(str(tmp_path))
        cold = compute_semiflows_cached(net, cache=cache)
        assert len(cache) == 1
        warm = compute_semiflows_cached(net, cache=cache)
        direct = compute_semiflows(net)
        assert warm == cold == direct
        assert [s.to_payload() for s in warm] == [s.to_payload() for s in direct]

    def test_cache_accepts_directory_path(self, tmp_path):
        net = to_petri_net(token_ring())
        first = compute_semiflows_cached(net, cache=str(tmp_path))
        second = compute_semiflows_cached(net, cache=str(tmp_path))
        assert first == second

    def test_budget_exceeded_is_cached_and_replayed(self, tmp_path):
        net = to_petri_net(build_pipeline_model(2, static_prefix=1))
        cache = SemiflowCache(str(tmp_path))
        with pytest.raises(InvariantBudgetExceeded):
            compute_semiflows_cached(net, max_rows=1, cache=cache)
        assert len(cache) == 1  # the blow-up is remembered...
        with pytest.raises(InvariantBudgetExceeded):
            compute_semiflows_cached(net, max_rows=1, cache=cache)
        # ...and a different budget is a different cache entry.
        basis = compute_semiflows_cached(net, max_rows=20000, cache=cache)
        assert basis and len(cache) == 2

    def test_verifier_threads_the_cache_through(self, tmp_path):
        dfs = build_pipeline_model(2, static_prefix=1)
        cached = Verifier(dfs, checker="inductive",
                          semiflow_cache=str(tmp_path))
        summary = cached.verify_properties(("safeness", "exclusion"))
        assert summary.passed
        assert len(SemiflowCache(str(tmp_path))) == 1
        plain = Verifier(dfs, checker="inductive")
        warm = Verifier(dfs, checker="inductive",
                        semiflow_cache=str(tmp_path))
        left = plain.verify_properties(("safeness", "exclusion"))
        right = warm.verify_properties(("safeness", "exclusion"))
        for a, b in zip(left.results, right.results):
            assert a.holds == b.holds
            assert a.details == b.details

    def test_campaign_job_populates_semiflow_namespace(self, tmp_path):
        job = VerificationJob("j1", "pipeline",
                              kwargs={"stages": 2, "static_prefix": 1},
                              properties=("safeness", "exclusion"),
                              checker="inductive")
        cold = job.run(cache=str(tmp_path))
        semiflow_dir = tmp_path / "semiflows"
        assert semiflow_dir.is_dir() and len(SemiflowCache(str(semiflow_dir))) == 1
        warm = job.run(cache=str(tmp_path))
        assert warm["cache"] == "hit"
        assert warm["verdict"] == cold["verdict"]


# -- workers stay out of the cache identity ----------------------------------


class TestWorkersCacheIdentity:
    def test_workers_not_in_options_digest(self):
        base = dict(factory="pipeline", kwargs={"stages": 2, "static_prefix": 1})
        sequential = VerificationJob("a", workers=0, **base)
        sharded = VerificationJob("b", workers=4, **base)
        assert options_digest(sequential.options()) == \
            options_digest(sharded.options())

    def test_sharded_job_verdict_equals_sequential(self, tmp_path):
        """workers=N must answer from the cache entry a workers=0 run wrote."""
        base = dict(factory="pipeline",
                    kwargs={"stages": 2, "static_prefix": 1},
                    properties=("safeness", "deadlock"), max_states=500)
        cold = VerificationJob("a", workers=0, **base).run(cache=str(tmp_path))
        warm = VerificationJob("b", workers=2, **base).run(cache=str(tmp_path))
        assert warm["cache"] == "hit"
        assert warm["verdict"] == cold["verdict"]
        # And computed cold with workers, the verdict is byte-equal too.
        fresh = VerificationJob("c", workers=2, **base).run()
        assert fresh["verdict"] == cold["verdict"]

    def test_scenario_spec_threads_workers(self):
        jobs, _ = generate_scenarios(ScenarioSpec(depths=(2,), workers=3))
        assert jobs and all(job.workers == 3 for job in jobs)

    def test_fingerprint_reexports_stay_stable(self):
        net = to_petri_net(token_ring())
        from repro.campaign.cache import net_fingerprint as campaign_fingerprint
        assert campaign_fingerprint(net) == net_fingerprint(net)


# -- counterexample-guided walk restarts -------------------------------------


class TestWalkRestarts:
    def test_restarting_walker_still_finds_the_hole(self):
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        result = Verifier(
            holey, checker="walk",
            checker_options={"walk": {"walks": 16, "steps": 256,
                                      "restarts": 4}},
        ).verify_deadlock_freedom()
        assert result.holds is False
        assert result.witnesses[0]["trace"]

    def test_restart_traces_replay_to_the_witness(self):
        """Witness traces from restarted walks must actually reach the state."""
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        verifier = Verifier(
            holey, checker="walk",
            checker_options={"walk": {"walks": 16, "steps": 256,
                                      "restarts": 4}})
        result = verifier.verify_deadlock_freedom()
        compiled = CompiledNet.compile(verifier.net)
        for witness in result.witnesses:
            state = compiled.encode(verifier.net.initial_marking())
            for name in witness["trace"]:
                index = compiled.transition_index[name]
                assert compiled.is_enabled(index, state)
                state = compiled.fire(index, state)
            assert compiled.decode(state) == witness["marking"]

    def test_deterministic_per_seed(self):
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])

        def run(seed):
            return Verifier(
                holey, checker="walk",
                checker_options={"walk": {"walks": 8, "steps": 128,
                                          "restarts": 4, "seed": seed}},
            ).verify_deadlock_freedom()

        first, second = run(0xBEEF), run(0xBEEF)
        assert first.holds == second.holds
        assert [w["trace"] for w in first.witnesses] == \
            [w["trace"] for w in second.witnesses]

    def test_restarts_zero_restores_prerestart_behaviour(self):
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        result = Verifier(
            holey, checker="walk",
            checker_options={"walk": {"walks": 16, "steps": 256,
                                      "restarts": 0}},
        ).verify_deadlock_freedom()
        assert result.holds is False
