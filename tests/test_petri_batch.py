"""Tests for the array-native batch exploration engine (repro.petri.batch).

The differential tests are the contract of the engine: on every model of
the example family the batch explorer must produce a graph bit-identical to
``explore_compiled`` -- same states in the same discovery order, same
packed edges, same parents (hence traces), same frontier and truncation --
and the columnar fast paths must answer every property/Reach query with
the same verdicts and witnesses as the pure-int graph.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.petri.batch import numpy_available as _numpy_available

#: REPRO_NO_NUMPY disables the engine even with NumPy installed; these
#: tests then skip exactly like on a machine without the extra.
pytestmark = pytest.mark.skipif(
    not _numpy_available(), reason="batch engine disabled (REPRO_NO_NUMPY)")

from repro.campaign.jobs import build_pipeline_model
from repro.dfs.examples import (
    conditional_comp_dfs,
    conditional_comp_sdfs,
    linear_pipeline,
    token_ring,
)
from repro.dfs.translation import to_petri_net
from repro.exceptions import CompilationError, SafenessOverflowError
from repro.petri.batch import (
    ColumnarReachabilityGraph,
    WordTables,
    dedup_rows,
    explore_batch,
    int_to_words,
    merge_sorted_index,
    numpy_available,
    shard_rows,
    words_to_int,
)
from repro.petri.compiled import (
    CompiledNet,
    explore_compiled,
    scan_enabled_mask,
)
from repro.petri.net import PetriNet
from repro.petri.properties import (
    check_boundedness,
    check_deadlock,
    check_mutual_exclusion,
    check_persistence,
)
from repro.petri.reachability import build_reachability_graph
from repro.petri.storage import SpillConfig
from repro.reach.evaluator import find_witnesses, holds_somewhere


EXAMPLE_MODELS = [
    pytest.param(lambda: conditional_comp_dfs(comp_stages=1), id="conditional-dfs-1"),
    pytest.param(lambda: conditional_comp_dfs(comp_stages=2), id="conditional-dfs-2"),
    pytest.param(lambda: conditional_comp_sdfs(comp_stages=1), id="conditional-sdfs"),
    pytest.param(lambda: linear_pipeline(stages=3), id="linear-pipeline"),
    pytest.param(lambda: token_ring(registers=4, tokens=1), id="token-ring-4-1"),
    pytest.param(lambda: token_ring(registers=5, tokens=2), id="token-ring-5-2"),
    pytest.param(lambda: build_pipeline_model(2, static_prefix=1), id="ope2"),
    pytest.param(lambda: build_pipeline_model(3, static_prefix=1, holes=[2]),
                 id="ope3-hole2"),
]


def both_graphs(net, max_states=200000):
    compiled = CompiledNet.compile(net)
    sequential = explore_compiled(compiled, max_states=max_states)
    batch = explore_batch(compiled, max_states=max_states)
    assert isinstance(batch, ColumnarReachabilityGraph)
    return sequential, batch


def assert_identical(sequential, batch, tag=""):
    assert batch._mask_states == sequential._mask_states, tag
    assert batch._mask_edges == sequential._mask_edges, tag
    assert batch._parents == sequential._parents, tag
    assert batch._frontier_indices == sequential._frontier_indices, tag
    assert batch.truncated == sequential.truncated, tag


class TestDifferentialExamples:
    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_bit_identical_graphs(self, model):
        net = to_petri_net(model())
        sequential, batch = both_graphs(net)
        assert_identical(sequential, batch)
        assert len(batch) == len(sequential)
        assert batch.edge_count() == sequential.edge_count()
        assert batch.deadlocks() == sequential.deadlocks()
        assert batch.states == sequential.states

    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_truncation_parity(self, model):
        net = to_petri_net(model())
        for max_states in (1, 2, 5, 17, 100):
            sequential, batch = both_graphs(net, max_states=max_states)
            assert_identical(sequential, batch, "max_states={}".format(max_states))
            assert batch.frontier == sequential.frontier
            assert batch.deadlocks() == sequential.deadlocks()

    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_traces_and_membership(self, model):
        net = to_petri_net(model())
        sequential, batch = both_graphs(net)
        for marking in sequential.states:
            assert marking in batch
            assert batch.trace_to(marking) == sequential.trace_to(marking)
            assert batch.enabled(marking) == sequential.enabled(marking)
            assert batch.is_expanded(marking) == sequential.is_expanded(marking)

    def test_property_verdicts_identical(self):
        net = to_petri_net(conditional_comp_dfs(comp_stages=2))
        sequential, batch = both_graphs(net)
        for check in (check_deadlock, check_persistence):
            left, right = check(sequential), check(batch)
            assert left.holds == right.holds
            assert left.details == right.details
            assert [w["marking"] for w in left.witnesses] == \
                [w["marking"] for w in right.witnesses]
        assert check_boundedness(sequential, bound=1).holds == \
            check_boundedness(batch, bound=1).holds

    def test_persistence_witnesses_identical_on_hazard(self):
        net = PetriNet("hazard")
        net.add_place("g", tokens=1)
        net.add_place("g_done")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("kill")
        net.add_transition("observe")
        net.add_arc("g", "kill")
        net.add_arc("kill", "g_done")
        net.add_arc("p", "observe")
        net.add_arc("observe", "q")
        net.add_read_arc("g", "observe")
        sequential, batch = both_graphs(net)
        left = check_persistence(sequential)
        right = check_persistence(batch)
        assert left.holds is False and right.holds is False
        assert left.details == right.details
        strip = lambda ws: [{k: w[k] for k in ("marking", "fired", "disabled")}
                            for w in ws]
        assert strip(left.witnesses) == strip(right.witnesses)

    def test_mutual_exclusion_vectorised_path(self):
        net = to_petri_net(conditional_comp_dfs(comp_stages=1))
        sequential, batch = both_graphs(net)
        assert batch.count_and_collect_required is not None
        for pair in [("Mt_ctrl_1", "Mf_ctrl_1"), ("M_in_1", "M_out_1"),
                     ("M_in_1", "M_in_0")]:
            left = check_mutual_exclusion(sequential, *pair)
            right = check_mutual_exclusion(batch, *pair)
            assert left.holds == right.holds
            assert left.details == right.details
            assert [w["marking"] for w in left.witnesses] == \
                [w["marking"] for w in right.witnesses]

    def test_reach_witnesses_identical(self):
        net = to_petri_net(conditional_comp_dfs(comp_stages=1))
        sequential, batch = both_graphs(net)
        for expression in ['$"M_in_1"', '$"M_r1_1" & $"Mf_ctrl_1"',
                           'tokens(M_ctrl_1) >= 1 -> !$"C_cond_1"',
                           '!$"M_in_1" | $"M_out_1"']:
            left = find_witnesses(expression, sequential)
            right = find_witnesses(expression, batch)
            assert [w["marking"] for w in left] == [w["marking"] for w in right]
            assert [len(w["trace"]) for w in left] == \
                [len(w["trace"]) for w in right]
            assert holds_somewhere(expression, sequential) == \
                holds_somewhere(expression, batch)

    def test_overflow_detected_like_sequential(self):
        net = PetriNet("overflow")
        net.add_place("p", tokens=1)
        net.add_place("q", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        compiled = CompiledNet.compile(net)
        with pytest.raises(SafenessOverflowError):
            explore_batch(compiled)


def random_safe_net(seed):
    """A seeded 1-safe net with read arcs and consume/produce self-loops.

    Places form 2-4 cyclic components holding one token each.  Every place
    has a step transition to the next place of its component; extra
    transitions move the tokens of one or two components at once, possibly
    back to the place they came from (a self-loop).  Any transition may
    also read places of components it does not move.  Each component keeps
    exactly one token, so the net is 1-safe by construction.
    """
    rng = random.Random(seed)
    net = PetriNet("random-{}".format(seed))
    components = []
    for c in range(rng.randint(2, 4)):
        size = rng.randint(2, 4)
        marked = rng.randrange(size)
        names = ["c{}_{}".format(c, i) for i in range(size)]
        for i, name in enumerate(names):
            net.add_place(name, tokens=int(i == marked))
        components.append(names)
    moves = [[(c, i, (i + 1) % len(names))]
             for c, names in enumerate(components) for i in range(len(names))]
    for _ in range(rng.randint(2, 5)):
        moved = rng.sample(range(len(components)), rng.randint(1, 2))
        moves.append([(c, rng.randrange(len(components[c])),
                       rng.randrange(len(components[c]))) for c in moved])
    for t, move in enumerate(moves):
        name = "t{}".format(t)
        net.add_transition(name)
        for c, source, target in move:
            net.add_arc(components[c][source], name)
            net.add_arc(name, components[c][target])
        moved = {c for c, _, _ in move}
        others = [place for c, names in enumerate(components)
                  if c not in moved for place in names]
        if others and rng.random() < 0.4:
            net.add_read_arc(rng.choice(others), name)
    return net


PERSISTENCE_NETS = EXAMPLE_MODELS + [
    pytest.param(lambda seed=seed: random_safe_net(seed),
                 id="random-{}".format(seed))
    for seed in range(40)
]


class TestPersistenceScanDifferential:
    """The O(edges) columnar scan against the compiled engine's pair loop.

    The compiled scan fires every (state, t1, t2) pair on real successor
    states, so it is an independent oracle for the static disable table.
    """

    @staticmethod
    def _net(model):
        built = model()
        return built if isinstance(built, PetriNet) else to_petri_net(built)

    @staticmethod
    def _assert_same_scans(sequential, batch, tag):
        for allow_conflicts in (True, False):
            for max_witnesses in (5, 1000):
                expected = sequential.persistence_scan(
                    allow_conflicts=allow_conflicts,
                    max_witnesses=max_witnesses)
                actual = batch.persistence_scan(
                    allow_conflicts=allow_conflicts,
                    max_witnesses=max_witnesses)
                assert actual == expected, (tag, allow_conflicts,
                                            max_witnesses)

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("model", PERSISTENCE_NETS)
    def test_counts_and_witnesses_match_compiled(self, model, block,
                                                 monkeypatch):
        import repro.petri.batch as batch_module
        if block is not None:
            monkeypatch.setattr(batch_module, "_SCAN_BLOCK", block)
        compiled = CompiledNet.compile(self._net(model))
        for max_states in (1, 2, 5, 17, 100, 200000):
            sequential = explore_compiled(compiled, max_states=max_states)
            batch = explore_batch(compiled, max_states=max_states)
            self._assert_same_scans(sequential, batch,
                                    "max_states={}".format(max_states))

    def test_generated_family_has_violations(self):
        """The generated nets must exercise the violating path too."""
        violating = sum(
            1 for seed in range(40)
            if explore_batch(CompiledNet.compile(random_safe_net(seed)))
            .persistence_scan()[0])
        assert violating >= 10

    def test_spilled_graph(self, tmp_path, monkeypatch):
        import repro.petri.batch as batch_module
        monkeypatch.setattr(batch_module, "_SCAN_BLOCK", 3)
        compiled = CompiledNet.compile(
            to_petri_net(token_ring(registers=5, tokens=2)))
        sequential = explore_compiled(compiled)
        spilled = explore_batch(compiled, spill=SpillConfig(str(tmp_path), 64))
        try:
            assert spilled.exploration_stats["spill"]["spilled"]
            assert sequential.persistence_scan()[0] > 0
            self._assert_same_scans(sequential, spilled, "spilled")
        finally:
            spilled.close()


def wide_net():
    """A net that reaches every case of the byte lookup tables.

    130 places make three state words and 140 transitions two transition
    words.  Every tenth transition has an empty preset.  No transition
    reads places 8-15 or 64-71, so those row bytes get no table.  Presets
    mix consumed places, read arcs and consume/produce self-loops, and may
    span several state words.
    """
    rng = random.Random(7)
    net = PetriNet("wide")
    for p in range(130):
        net.add_place("p{}".format(p), tokens=int(p % 3 == 0))
    readable = ["p{}".format(p) for p in range(130)
                if not (8 <= p < 16 or 64 <= p < 72)]
    for t in range(140):
        name = "t{}".format(t)
        net.add_transition(name)
        produced = {"p{}".format(rng.randrange(130))}
        preset = [] if t % 10 == 0 else rng.sample(readable,
                                                   rng.randint(1, 5))
        for place in preset:
            kind = rng.random()
            if kind < 0.3:
                net.add_read_arc(place, name)
            else:
                net.add_arc(place, name)
                if kind < 0.5:
                    produced.add(place)  # consume/produce self-loop
        for place in sorted(produced):
            net.add_arc(name, place)
    return net


def assert_enabled_like_compiled(compiled, states):
    """``enabled_matrix`` row by row against the pure-int full scan."""
    tables = WordTables(compiled)
    rows = tables.encode_rows(states)
    enabled = tables.enabled_matrix(rows)
    transitions = len(compiled.transition_names)
    assert enabled.dtype == bool and enabled.shape == (len(states),
                                                       transitions)
    for state, row in zip(states, enabled):
        mask = scan_enabled_mask(compiled.need, state)
        assert row.tolist() == [bool(mask >> t & 1)
                                for t in range(transitions)], hex(state)
    # Strided input rows answer like their contiguous copy.
    assert (tables.enabled_matrix(rows[::2]) == enabled[::2]).all()
    assert tables.enabled_matrix(rows[:0]).shape == (0, transitions)


class TestEnabledMatrix:
    """The lookup-table enabledness against ``scan_enabled_mask``."""

    def test_wide_net_every_table_case(self):
        compiled = CompiledNet.compile(wide_net())
        tables = WordTables(compiled)
        # The cases the net is built to reach.
        assert tables.words == 3
        assert len(compiled.transition_names) > 64
        assert 0 in compiled.need
        assert set(range(8 * tables.words)) - set(tables.byte_positions)
        assert any(need & ~consume
                   for need, consume in zip(compiled.need, compiled.consume))
        assert any(consume & produce for consume, produce
                   in zip(compiled.consume, compiled.produce))
        rng = random.Random(3)
        places = len(compiled.place_names)
        states = [0, (1 << places) - 1]
        states += [rng.getrandbits(places) for _ in range(200)]
        for need in compiled.need:
            # Exactly enabled, one needed place short, and with extras.
            states.append(need)
            if need:
                states.append(need & ~(1 << rng.choice(
                    [bit for bit in range(places) if need >> bit & 1])))
            states.append(need | rng.getrandbits(places))
        assert_enabled_like_compiled(compiled, states)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_safe_nets(self, seed):
        compiled = CompiledNet.compile(random_safe_net(seed))
        sequential = explore_compiled(compiled)
        rng = random.Random(seed)
        places = len(compiled.place_names)
        states = list(sequential._mask_states)
        states += [rng.getrandbits(places) for _ in range(50)]
        assert_enabled_like_compiled(compiled, states)
        assert_identical(sequential, explore_batch(compiled))


class TestEngineSelection:
    def test_auto_prefers_batch_when_numpy_present(self):
        net = to_petri_net(linear_pipeline(stages=1))
        graph = build_reachability_graph(net)
        assert isinstance(graph, ColumnarReachabilityGraph)

    def test_forced_batch_engine(self):
        net = to_petri_net(token_ring())
        graph = build_reachability_graph(net, engine="batch")
        assert isinstance(graph, ColumnarReachabilityGraph)

    def test_no_numpy_env_falls_back_to_compiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert not numpy_available()
        net = to_petri_net(token_ring())
        graph = build_reachability_graph(net)
        assert not isinstance(graph, ColumnarReachabilityGraph)
        with pytest.raises(CompilationError):
            build_reachability_graph(net, engine="batch")

    def test_forced_batch_without_numpy_raises_even_sharded(self, monkeypatch):
        """workers>1 must not soften the engine=\"batch\" contract."""
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        net = to_petri_net(token_ring())
        with pytest.raises(CompilationError):
            build_reachability_graph(net, engine="batch", workers=2)

    def test_engine_choice_binds_the_sharded_backend(self, monkeypatch):
        """engine=\"compiled\" forces pure-int shard workers, \"batch\" the
        vectorised ones; either way the graph is the sequential one."""
        calls = {}

        def fake_sharded(compiled, marking, max_states, workers, batch,
                         spill=None, checkpoint=None):
            calls["batch"] = batch
            from repro.petri.compiled import explore_compiled
            return explore_compiled(compiled, marking, max_states=max_states)

        import repro.parallel.sharded as sharded_module
        monkeypatch.setattr(sharded_module, "explore_sharded", fake_sharded)
        net = to_petri_net(token_ring())
        reference = build_reachability_graph(net, engine="compiled")
        for engine, expected in (("compiled", False), ("batch", True),
                                 ("auto", None)):
            graph = build_reachability_graph(net, engine=engine, workers=2)
            assert calls["batch"] is expected, engine
            assert graph._mask_states == reference._mask_states

    def test_batch_falls_back_to_explicit_on_unsafe_net(self):
        net = PetriNet("unsafe")
        net.add_place("src", tokens=2)
        net.add_place("sink")
        net.add_transition("move")
        net.add_arc("src", "move")
        net.add_arc("move", "sink")
        graph = build_reachability_graph(net)
        assert not isinstance(graph, ColumnarReachabilityGraph)
        assert len(graph) == 3


class TestPrimitives:
    def test_int_word_roundtrip(self):
        for words in (1, 2, 4):
            for value in (0, 1, (1 << 64) - 1, 1 << 64, (1 << (64 * words)) - 1):
                value %= 1 << (64 * words)
                assert words_to_int(int_to_words(value, words)) == value

    def test_shard_rows_matches_python_hash(self):
        from repro.parallel.sharded import shard_of
        rng = np.random.default_rng(11)
        for words in (1, 2, 3, 5):
            rows = rng.integers(0, 1 << 64, size=(512, words), dtype=np.uint64)
            rows[0] = 0
            rows[1] = (1 << 64) - 1
            # Multiples of the hash prime are the edge case of the reduction.
            prime_words = int_to_words(((1 << 61) - 1) * 3, words)
            rows[2] = prime_words
            states = [words_to_int(row) for row in rows]
            for workers in (1, 2, 3, 7, 127):
                assert shard_rows(rows, workers).tolist() == \
                    [shard_of(state, workers) for state in states]

    def test_dedup_rows_groups_and_min_provenance(self):
        rows = np.asarray([[3], [1], [3], [2], [1]], dtype=np.uint64)
        hashes = rows[:, 0]
        provenance = np.asarray([50, 40, 10, 30, 20], dtype=np.int64)
        order, group_of, group_rows, _, group_prov = dedup_rows(
            rows, hashes, provenance, 1)
        by_state = {int(state): int(prov)
                    for (state,), prov in zip(group_rows, group_prov)}
        assert by_state == {1: 20, 2: 30, 3: 10}
        # Every occurrence maps back to its group.
        targets = np.empty(len(order), dtype=np.int64)
        targets[order] = group_rows[group_of, 0]
        assert targets.tolist() == rows[:, 0].tolist()

    def test_merge_sorted_index(self):
        keys = np.asarray([2, 5, 9], dtype=np.uint64)
        idx = np.asarray([0, 1, 2], dtype=np.int64)
        merged_keys, merged_idx = merge_sorted_index(
            keys, idx, np.asarray([7, 1, 5], dtype=np.uint64),
            np.asarray([3, 4, 5], dtype=np.int64))
        assert merged_keys.tolist() == [1, 2, 5, 5, 7, 9]
        assert sorted(merged_idx.tolist()) == [0, 1, 2, 3, 4, 5]

    def test_hash_collisions_stay_exact(self, monkeypatch):
        """Force every row hash equal: dedup and probes must stay exact.

        Only meaningful on multi-word nets -- single-word rows are their
        own (collision-free) hash by construction.
        """
        net = to_petri_net(build_pipeline_model(3, static_prefix=1))
        compiled = CompiledNet.compile(net)
        assert WordTables(compiled).words >= 2
        # Bounded: with every hash colliding the probes degrade to linear
        # scans, which is exactly the (slow but exact) path under test.
        sequential = explore_compiled(compiled, max_states=2000)
        monkeypatch.setattr(
            WordTables, "hash_rows",
            lambda self, rows: np.zeros(len(rows), dtype=np.uint64))
        batch = explore_batch(compiled, max_states=2000)
        assert_identical(sequential, batch, "degenerate hash")

    def test_multi_word_net_spans_words(self):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1))
        compiled = CompiledNet.compile(net)
        tables = WordTables(compiled)
        assert tables.words >= 2
        graph = explore_batch(compiled, max_states=5000)
        assert graph.tables.words == tables.words
        sequential = explore_compiled(compiled, max_states=5000)
        assert_identical(sequential, graph)
