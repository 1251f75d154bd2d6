"""Array-native exploration core: whole-frontier batch expansion on NumPy.

The compiled engine of :mod:`repro.petri.compiled` already reduced firing to
integer bit operations, but its loop still fires one transition of one state
per Python bytecode iteration.  This module escapes the interpreter the way
bulk engines do: the *entire BFS frontier* is expanded per step.

* Markings are rows of a ``uint64`` matrix -- nets wider than 64 places span
  multiple words (place ``i`` lives in word ``i // 64``, bit ``i % 64``).
* The per-transition ``need`` / ``consume`` / ``produce`` bitmasks of the
  compiled net are precompiled into ``(transitions, words)`` arrays, and
  the ``need`` masks further into one 256-entry lookup table per byte
  position of a state row they touch.
* One level of BFS is: enabledness recomputed from the level's rows (one
  table gather per row byte, ANDed over bytes), a bulk mask-and-or firing,
  a sort for intra-level dedup, and a ``searchsorted`` probe against the
  sorted table of known states.  No enabled set is carried from parent to
  child, so a level needs nothing but its rows.
* New states are admitted in **provenance order** (``parent << 16 |
  transition``, minimised over all discoverers) up to ``max_states`` --
  exactly the order the sequential BFS first reaches each state, which makes
  the resulting graph **bit-identical** to :func:`explore_compiled`: same
  states in the same discovery order, same packed ``t | target << 16`` edge
  lists, same parents (hence traces), same frontier and truncation.

The result is a :class:`ColumnarReachabilityGraph`: the state table, packed
edges (CSR layout), parents and frontier all stay NumPy arrays, so the
mask-level scans of :mod:`repro.petri.properties` and
:mod:`repro.reach.evaluator` become vectorised compares over the state table
instead of per-state Python loops.  Marking-level APIs decode on demand,
like the compiled graph.

NumPy is an **optional extra** (``pip install repro-dfs[fast]``): when it is
missing, :func:`numpy_available` is false, ``build_reachability_graph``
silently keeps using the pure-int engine, and this module stays importable.
The pure-int engine remains the single source of truth for semantics; this
engine must match it bit for bit (see ``tests/test_petri_batch.py``).
"""

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
    _np = None

from repro.exceptions import (
    CompilationError,
    ConfigurationError,
    SafenessOverflowError,
)
from repro.petri.compiled import (
    CompiledNet,
    CompiledReachabilityGraph,
    iter_bits,
)
from repro.petri.reachability import ReachabilityGraph
from repro.utils import faults as _faults

#: Cap (in edges) on one state-aligned block of the persistence scan.
_SCAN_BLOCK = 1 << 20

_WORD_MASK = (1 << 64) - 1

#: Odd 64-bit mixing constants of the row hash (splitmix64 / murmur3
#: finalisation family).  The hash only pre-filters the exact row compare,
#: so its quality affects speed, never correctness.
_HASH_MULTIPLIERS = (
    0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0xD6E8FEB86659FD93,
)


def numpy_available():
    """``True`` when the optional NumPy extra is importable.

    Setting ``REPRO_NO_NUMPY`` in the environment reports NumPy as absent
    even when it is installed, so the pure-Python fallback path can be
    exercised (by the differential tests and the no-NumPy CI job) without
    uninstalling the extra.
    """
    import os
    return _np is not None and not os.environ.get("REPRO_NO_NUMPY")


def _require_numpy():
    if not numpy_available():
        raise CompilationError(
            "the batch exploration engine requires the optional NumPy "
            "extra (pip install numpy, and REPRO_NO_NUMPY unset); the "
            "pure-int engines remain available")


def int_to_words(value, words):
    """Split an int bitmask into *words* little-endian 64-bit words."""
    return [(value >> (64 * w)) & _WORD_MASK for w in range(words)]


def words_to_int(row):
    """Inverse of :func:`int_to_words` for one row of word values."""
    state = 0
    for w, word in enumerate(row):
        state |= int(word) << (64 * w)
    return state


class WordTables:
    """Per-transition bitmask tables of a compiled net as uint64 matrices."""

    __slots__ = ("compiled", "words", "need", "consume", "keep", "produce",
                 "fire_tab", "byte_positions", "byte_tables")

    def __init__(self, compiled):
        _require_numpy()
        self.compiled = compiled
        self._build(compiled.need, compiled.consume, compiled.produce,
                    len(compiled.place_names))

    @classmethod
    def from_raw(cls, need, consume, produce, place_count):
        """Build tables from raw mask lists (no :class:`CompiledNet`).

        Used by the sharded batch workers, which carry only the picklable
        table slice of the compiled net.  ``word_bit_of`` is unavailable on
        tables built this way (``compiled`` is ``None``).
        """
        _require_numpy()
        self = cls.__new__(cls)
        self.compiled = None
        self._build(need, consume, produce, place_count)
        return self

    def _build(self, need_masks, consume_masks, produce_masks, place_count):
        self.words = max(1, (place_count + 63) // 64)
        transition_count = len(need_masks)
        shape = (transition_count, self.words)
        self.need = _np.zeros(shape, dtype=_np.uint64)
        self.consume = _np.zeros(shape, dtype=_np.uint64)
        self.produce = _np.zeros(shape, dtype=_np.uint64)
        for index in range(transition_count):
            self.need[index] = int_to_words(need_masks[index], self.words)
            self.consume[index] = int_to_words(consume_masks[index],
                                               self.words)
            self.produce[index] = int_to_words(produce_masks[index],
                                               self.words)
        self.keep = ~self.consume
        # keep and produce side by side, so the firing loop pays one fancy
        # gather per edge batch instead of two.
        self.fire_tab = _np.concatenate([self.keep, self.produce], axis=1)
        # Enabledness lookup tables, one per byte position of a state row
        # that holds a need bit: bit ``t`` of ``byte_tables[k][tw, v]``
        # (transition word ``tw = t // 64``) is set when byte value ``v``
        # holds every need bit ``t`` has in byte ``byte_positions[k]``.
        # Stored transposed, so each lookup is a 1-D gather over 256
        # entries.
        need_bytes = _row_bytes(self.need)
        self.byte_positions = _np.flatnonzero(
            need_bytes.any(axis=0)).tolist()
        values = _np.arange(256, dtype=_np.uint8)[:, None]
        self.byte_tables = []
        for position in self.byte_positions:
            needed = need_bytes[:, position]
            self.byte_tables.append(_np.ascontiguousarray(
                _pack_bits((values & needed) == needed).T))

    def encode_rows(self, states):
        """Pack an iterable of int states into a ``(n, words)`` matrix."""
        rows = _np.empty((len(states), self.words), dtype=_np.uint64)
        for position, state in enumerate(states):
            rows[position] = int_to_words(state, self.words)
        return rows

    def hash_rows(self, rows):
        """A 64-bit mix of every state row; a pre-filter, not an identity.

        Single-word states are their own (collision-free) key.  Wider rows
        xor per-word products by distinct odd constants -- collisions are
        handled exactly by the callers (run scans, adjacent-row compares),
        so hash quality only affects speed.
        """
        if self.words == 1:
            return rows[:, 0]
        mixed = rows[:, 0] * _np.uint64(_HASH_MULTIPLIERS[0])
        for w in range(1, self.words):
            multiplier = _HASH_MULTIPLIERS[w % len(_HASH_MULTIPLIERS)]
            mixed = mixed ^ rows[:, w] * _np.uint64(multiplier)
        return mixed

    def enabled_matrix(self, rows):
        """Full-scan enabledness of *rows*: a ``(n, transitions)`` matrix.

        Per transition word, the AND over the lookup tables of the row
        bytes they cover; transitions with an empty preset stay enabled.
        """
        transition_count = len(self.need)
        packed = _np.empty((len(rows), -(-transition_count // 64)),
                           dtype="<u8")
        row_bytes = _row_bytes(rows)
        hit = _np.empty(len(rows), dtype=_np.uint64)
        for tw in range(packed.shape[1]):
            word = _np.full(len(rows), _WORD_MASK, dtype=_np.uint64)
            for position, table in zip(self.byte_positions,
                                       self.byte_tables):
                _np.take(table[tw], row_bytes[:, position], out=hit)
                word &= hit
            packed[:, tw] = word
        return _np.unpackbits(packed.view(_np.uint8), axis=1,
                              count=transition_count,
                              bitorder="little").view(bool)

    def word_bit_of(self, place):
        """``(word index, single-bit uint64)`` of *place*, or ``None``."""
        mask = self.compiled.mask_of(place)
        if not mask:
            return None
        bit = mask.bit_length() - 1
        return bit // 64, _np.uint64(1 << (bit % 64))

    def disables(self, allow_conflicts):
        """Packed "firing ``t1`` disables ``t2``" sets over transitions.

        Row ``t1`` of the ``(transitions, transition words)`` uint64 table
        has bit ``t2`` set when ``need[t2] & consume[t1] & ~produce[t1]`` is
        nonzero.  On a 1-safe net fired as ``(s & ~consume) | produce``
        every ``t2`` enabled at ``s`` has ``need[t2]`` inside ``s``, so that
        test decides, for every state enabling both, whether ``t2`` is
        still enabled after ``t1`` -- it depends on the pair alone.  The
        diagonal is clear, and with *allow_conflicts* so are pairs that
        consume a common place.
        """
        lost = _place_flags(self.consume & ~self.produce)
        hits = lost @ _place_flags(self.need).T > 0
        if allow_conflicts:
            consume = _place_flags(self.consume)
            hits &= consume @ consume.T == 0
        _np.fill_diagonal(hits, False)
        return _pack_bits(hits)


#: Set bits per byte value: the popcount table of the persistence scan.
_POPCOUNT8 = _np.asarray([bin(b).count("1") for b in range(256)],
                         dtype=_np.uint8) if _np is not None else None


def _place_flags(masks):
    """Unpack ``(n, words)`` uint64 place masks into a 0/1 float32 matrix.

    Float, so that products of two such matrices count shared places.
    """
    return _np.unpackbits(_row_bytes(masks), axis=1,
                          bitorder="little").astype(_np.float32)


def _row_bytes(words):
    """The ``(n, 8 * words)`` little-endian byte view of uint64 rows."""
    words = _np.ascontiguousarray(words, dtype="<u8")
    return words.view(_np.uint8).reshape(len(words), 8 * words.shape[1])


def _pack_bits(flags):
    """Pack a ``(n, m)`` bool matrix into ``(n, ceil(m / 64))`` uint64 words.

    Column ``j`` becomes bit ``j % 64`` of word ``j // 64``.
    """
    padded = _np.zeros((len(flags), -(-flags.shape[1] // 64) * 64),
                       dtype=bool)
    padded[:, :flags.shape[1]] = flags
    return _np.packbits(padded, axis=1, bitorder="little").view(
        "<u8").astype(_np.uint64)


def _group_arange(counts):
    """``concatenate([arange(c) for c in counts])`` without the Python loop."""
    total = int(counts.sum())
    starts = _np.cumsum(counts) - counts
    return _np.arange(total, dtype=_np.int64) - _np.repeat(starts, counts)


def fire_enabled_flags(tables, rows, flat):
    """Fire every enabled (state, transition) pair; report overflows.

    The non-raising core of :func:`fire_enabled`: returns ``(source_local,
    transition, successor, overflowed)`` where *overflowed* is a bool
    vector marking the pairs whose firing would put a second token into a
    place (their *successor* rows hold the over-merged words and must not
    be used as states).  The walk swarm consumes the flags directly -- an
    overflow retires one walk, or answers the safeness query, instead of
    aborting the whole batch.
    """
    word_count = tables.words
    transition_count = len(tables.need)
    source_local = flat // transition_count
    transition = flat - source_local * transition_count
    gathered = tables.fire_tab[transition]
    remainder = rows[source_local] & gathered[:, :word_count]
    produced = gathered[:, word_count:]
    overflowed = remainder[:, 0] & produced[:, 0]
    for w in range(1, word_count):
        overflowed = overflowed | (remainder[:, w] & produced[:, w])
    return source_local, transition, remainder | produced, overflowed != 0


def overflow_place(tables, rows, source_local, transition, position):
    """The place index spilled by overflowing pair *position* (re-derived)."""
    gathered = tables.fire_tab[int(transition[position])]
    remainder = rows[int(source_local[position])] & gathered[:tables.words]
    produced = gathered[tables.words:]
    return next(iter_bits(words_to_int(remainder & produced)))


def fire_enabled(tables, rows, flat):
    """Fire every enabled (state, transition) pair of a frontier slice.

    *flat* is the flat index vector of the slice's enabled matrix (as from
    ``np.flatnonzero``).  Returns ``(source_local, transition, successor)``.
    A 1-safeness violation raises
    :class:`~repro.exceptions.SafenessOverflowError` carrying the first
    offender *in expansion order* as **integer indices** (transition index,
    place index); callers holding name tables re-raise with names.  Shared
    by :func:`explore_batch` and the sharded batch workers so the firing
    and overflow semantics cannot diverge.
    """
    source_local, transition, successor, overflowed = fire_enabled_flags(
        tables, rows, flat)
    if overflowed.any():
        position = int(_np.argmax(overflowed))
        raise SafenessOverflowError(
            int(transition[position]),
            overflow_place(tables, rows, source_local, transition, position))
    return source_local, transition, successor


def dedup_rows(successor, hashes, provenance, word_count):
    """Group duplicate successor rows, keeping each group's min provenance.

    Returns ``(order, group_of_sorted, group_rows, group_hashes,
    group_provenance)`` where *order* sorts the inputs so that equal rows
    are adjacent, ``group_of_sorted[i]`` is the dedup-group of the sorted
    position ``i``, and the ``group_*`` arrays hold one entry per distinct
    row -- its provenance being the minimum over the group, i.e. the edge
    over which the sequential BFS first discovers that state.  Rows are
    sorted by their 64-bit hashes; when two distinct multi-word rows
    collide in the hash (practically never), they are re-sorted on their
    full words instead.
    """
    order = _np.argsort(hashes)  # non-stable: reduceat takes the group min
    ordered_hashes = hashes[order]
    head = _np.ones(len(order), dtype=bool)
    head[1:] = ordered_hashes[1:] != ordered_hashes[:-1]
    # Single-word rows are their own hash: equal key *is* equal row.  Wider
    # rows are compared only where the hashes matched: gathering two rows
    # per duplicate beats gathering the whole sorted matrix.
    if word_count > 1:
        duplicate_positions = _np.flatnonzero(~head)
        if (successor[order[duplicate_positions - 1]]
                != successor[order[duplicate_positions]]).any():
            order = _np.lexsort(tuple(successor[:, w]
                                      for w in range(word_count)))
            ordered_rows = successor[order]
            head[1:] = (ordered_rows[1:] != ordered_rows[:-1]).any(axis=1)
    head_positions = _np.where(head)[0]
    group_rows = successor[order[head_positions]]
    group_of_sorted = _np.cumsum(head) - 1
    group_provenance = _np.minimum.reduceat(provenance[order],
                                            head_positions)
    group_hashes = hashes[order[head_positions]]
    return order, group_of_sorted, group_rows, group_hashes, group_provenance


def merge_sorted_index(keys, idx, new_keys, new_idx):
    """Merge (unsorted) new entries into a sorted ``(keys, idx)`` pair.

    One fused placement pass instead of two ``np.insert`` copies; returns
    the merged ``(keys, idx)`` arrays.
    """
    order = _np.argsort(new_keys)
    new_keys = new_keys[order]
    insert_at = _np.searchsorted(keys, new_keys)
    merged_size = len(keys) + len(new_keys)
    new_slots = insert_at + _np.arange(len(new_keys))
    old_slots = _np.ones(merged_size, dtype=bool)
    old_slots[new_slots] = False
    merged_keys = _np.empty(merged_size, dtype=keys.dtype)
    merged_idx = _np.empty(merged_size, dtype=idx.dtype)
    merged_keys[new_slots] = new_keys
    merged_idx[new_slots] = new_idx[order]
    merged_keys[old_slots] = keys
    merged_idx[old_slots] = idx
    return merged_keys, merged_idx


#: ``2**61 - 1``, the Mersenne prime CPython reduces int hashes by.
_HASH_MODULUS = (1 << 61) - 1


def _mod_hash_prime(values):
    """``values % (2**61 - 1)`` for a uint64 vector, in uint64 arithmetic."""
    prime = _np.uint64(_HASH_MODULUS)
    shift = _np.uint64(61)
    values = (values & prime) + (values >> shift)
    values = (values & prime) + (values >> shift)
    return _np.where(values == prime, _np.uint64(0), values)


def shard_rows(rows, workers):
    """Vectorised :func:`repro.parallel.sharded.shard_of` over state rows.

    Python's int hash is the value modulo ``2**61 - 1``; with little-endian
    64-bit words that is a Horner evaluation in base ``2**64 === 8`` (mod
    the prime), so the whole partition reduces to shifts and masked adds --
    exactly matching ``hash(state) % workers`` bit for bit.
    """
    word_count = rows.shape[1]
    acc = _mod_hash_prime(rows[:, word_count - 1])
    for w in range(word_count - 2, -1, -1):
        acc = _mod_hash_prime(
            _mod_hash_prime(acc << _np.uint64(3)) + _mod_hash_prime(rows[:, w]))
    return (acc % _np.uint64(workers)).astype(_np.int64)


class ColumnarReachabilityGraph(CompiledReachabilityGraph):
    """Reachability graph stored columnar: NumPy arrays, not Python lists.

    * ``_words`` -- the ``(states, words)`` uint64 state table;
    * ``_edge_data`` / ``_edge_offsets`` -- packed ``t | target << 16`` edges
      in one flat int64 array with CSR-style per-state offsets;
    * ``_parents_arr`` -- packed ``parent << 16 | transition`` BFS parents
      (``-1`` for the initial state);
    * ``_frontier_arr`` -- sorted indices of partially-expanded states;
    * ``_sorted_keys`` / ``_sorted_idx`` -- the byte-key index used for
      O(log n) marking lookup without materialising Python ints.

    The full marking-level :class:`~repro.petri.reachability.ReachabilityGraph`
    API is preserved -- markings decode on demand, and the list-based mirrors
    (``_mask_states`` and friends) materialise lazily so differential tests
    and mixed-engine callers can still compare graphs field by field.
    """

    one_safe = True

    #: Cap (in entries) on the lazily materialised Python list mirrors.
    #: The mirrors exist for differential tests and mixed-engine callers;
    #: past the cap they would clone a multi-million-row (possibly
    #: disk-backed) columnar table into Python objects, so crossing it
    #: raises an actionable error instead.  Set to ``None`` to opt in.
    mirror_limit = 1 << 22

    def __init__(self, compiled, tables, initial_state):
        ReachabilityGraph.__init__(self, compiled.net,
                                   compiled.decode(initial_state))
        self.compiled = compiled
        self.tables = tables
        self._decoded = {}
        self._all_decoded = None
        self._materialized = False
        # Columnar storage (filled by explore_batch).
        self._words = None
        self._edge_data = None
        self._edge_offsets = None
        self._parents_arr = None
        self._frontier_arr = None
        self._hash_keys = None      # sorted row hashes of every state
        self._hash_idx = None       # state index per sorted hash
        #: The spill pool backing the arrays (``None`` for plain RAM
        #: arrays); kept alive so unlinked memmap files outlive the graph.
        self._spill_pool = None
        #: Structured per-phase counters of the exploration that built this
        #: graph (see :func:`explore_batch` / ``explore_sharded``).
        self.exploration_stats = None
        # Lazy list-based mirrors of the arrays.
        self._list_states = None
        self._list_edges = None
        self._list_parents = None
        self._frontier_set = None

    def close(self):
        """Release spill-file handles early (safe at any time).

        Spill files are unlinked at creation, so this only drops file
        descriptors -- arrays already mapped stay valid, and the disk
        space is reclaimed once they are garbage collected.
        """
        if self._spill_pool is not None:
            self._spill_pool.close()

    # -- list-based mirrors (lazy; differential tests, explicit fallbacks) ----

    def _check_mirror(self, kind, entries):
        if self.mirror_limit is not None and entries > self.mirror_limit:
            raise ConfigurationError(
                "materialising the {} list mirror would create {:,} Python "
                "objects from the columnar graph{}; use the vectorised "
                "array API (graph._words / _edge_data / matching_rows) or "
                "set graph.mirror_limit = None to opt in (current cap: "
                "{:,} entries)".format(
                    kind, entries,
                    " (disk-backed)" if self._spill_pool is not None
                    and self._spill_pool.spilled else "",
                    self.mirror_limit))

    @property
    def _mask_states(self):
        if self._list_states is None:
            self._check_mirror("state", len(self))
            ints = _np.zeros(len(self), dtype=object)
            for w in range(self.tables.words):
                ints |= self._words[:, w].astype(object) << (64 * w)
            self._list_states = ints.tolist()
        return self._list_states

    @property
    def _mask_edges(self):
        if self._list_edges is None:
            self._check_mirror("edge", int(len(self._edge_data)))
            data = self._edge_data.tolist()
            offsets = self._edge_offsets.tolist()
            self._list_edges = [data[offsets[i]:offsets[i + 1]]
                                for i in range(len(self))]
        return self._list_edges

    @property
    def _parents(self):
        if self._list_parents is None:
            self._check_mirror("parent", len(self))
            self._list_parents = [None if parent < 0 else parent
                                  for parent in self._parents_arr.tolist()]
        return self._list_parents

    @property
    def _frontier_indices(self):
        if self._frontier_set is None:
            self._frontier_set = set(self._frontier_arr.tolist())
        return self._frontier_set

    # -- decoding -------------------------------------------------------------

    def _state_int(self, index):
        return words_to_int(self._words[index])

    def _marking_at(self, index):
        marking = self._decoded.get(index)
        if marking is None:
            marking = self.compiled.decode(self._state_int(index))
            self._decoded[index] = marking
        return marking

    def _index_of(self, marking):
        try:
            state = self.compiled.encode(marking)
        except CompilationError:
            return None
        row = self.tables.encode_rows([state])
        key = self.tables.hash_rows(row)[0]
        keys = self._hash_keys
        position = int(_np.searchsorted(keys, key))
        # Hashes only pre-filter: scan the (almost always length-one) run of
        # equal hashes and compare the actual rows.
        while position < len(keys) and keys[position] == key:
            index = int(self._hash_idx[position])
            if bool((self._words[index] == row[0]).all()):
                return index
            position += 1
        return None

    # -- ReachabilityGraph API ------------------------------------------------

    def __len__(self):
        return int(self._words.shape[0])

    @property
    def states(self):
        if self._all_decoded is None:
            self._all_decoded = [self._marking_at(i) for i in range(len(self))]
        return list(self._all_decoded)

    def enabled(self, marking):
        index = self._index_of(marking)
        if index is None:
            raise KeyError(marking)
        names = self.compiled.transition_names
        low = int(self._edge_offsets[index])
        high = int(self._edge_offsets[index + 1])
        return sorted({names[int(packed) & 0xFFFF]
                       for packed in self._edge_data[low:high]})

    @property
    def frontier(self):
        return {self._marking_at(int(i)) for i in self._frontier_arr}

    def is_expanded(self, marking):
        index = self._index_of(marking)
        if index is None:
            return False
        position = int(_np.searchsorted(self._frontier_arr, index))
        return not (position < len(self._frontier_arr)
                    and int(self._frontier_arr[position]) == index)

    def deadlocks(self):
        degrees = _np.diff(self._edge_offsets)
        dead = _np.where(degrees == 0)[0]
        if len(self._frontier_arr):
            dead = dead[~_np.isin(dead, self._frontier_arr)]
        return [self._marking_at(int(i)) for i in dead]

    def edge_count(self):
        return int(len(self._edge_data))

    def trace_to(self, target):
        index = self._index_of(target)
        if index is None:
            from repro.exceptions import VerificationError
            raise VerificationError(
                "marking is not reachable: {!r}".format(target))
        trace = []
        names = self.compiled.transition_names
        parents = self._parents_arr
        while parents[index] >= 0:
            packed = int(parents[index])
            trace.append(names[packed & 0xFFFF])
            index = packed >> 16
        trace.reverse()
        return trace

    # -- vectorised fast paths ------------------------------------------------

    def word_bit_of(self, place):
        """``(word, bit)`` of *place* in the state table (``None`` unknown)."""
        return self.tables.word_bit_of(place)

    def matching_rows(self, row_predicate):
        """Indices of states whose rows satisfy a vectorised predicate.

        *row_predicate* receives the whole ``(states, words)`` uint64 table
        and returns a boolean vector; this is the bulk counterpart of
        :meth:`scan_masks` used by the Reach evaluator.
        """
        flags = row_predicate(self._words)
        return _np.where(flags)[0]

    def scan_rows(self, row_predicate, limit=None):
        """Yield markings matched by a vectorised predicate, discovery order."""
        matches = self.matching_rows(row_predicate)
        if limit is not None:
            matches = matches[:limit]
        for index in matches:
            yield self._marking_at(int(index))

    def count_and_collect_rows(self, row_predicate, max_witnesses):
        """Vectorised ``(count, markings)`` over the whole state table."""
        matches = self.matching_rows(row_predicate)
        return len(matches), [self._marking_at(int(i))
                              for i in matches[:max_witnesses]]

    def count_and_collect_required(self, required_mask, max_witnesses):
        """States containing every place of an int *required_mask*.

        The all-places-marked scan (mutual exclusion and friends) as one
        compare per word over the state table.
        """
        required = self.tables.encode_rows([required_mask])[0]

        def matches(words):
            flags = _np.ones(len(words), dtype=bool)
            for w in range(self.tables.words):
                flags &= (words[:, w] & required[w]) == required[w]
            return flags

        return self.count_and_collect_rows(matches, max_witnesses)

    def persistence_scan(self, allow_conflicts=True, max_witnesses=5):
        """The persistence scan of the compiled graph, in O(edges).

        Identical contract and witness order: states in discovery order, the
        fired/disabled pair loops in edge order, frontier states skipped.
        Whether firing ``t1`` disables ``t2`` is decided once per transition
        pair (:meth:`WordTables.disables`), so each edge ``(s, t1)`` only
        counts the bits of ``disables[t1]`` that are also in the set of
        transitions enabled at ``s`` (the OR of ``s``'s edge bits).  Edges
        are walked in state-aligned blocks of at most ``_SCAN_BLOCK``, which
        bounds the transient memory and reads spilled edge data in order.
        """
        disables = self.tables.disables(allow_conflicts)
        transition_bit = _pack_bits(_np.eye(len(disables), dtype=bool))
        data = self._edge_data
        offsets = self._edge_offsets
        skipped = _np.zeros(len(self), dtype=bool)
        skipped[self._frontier_arr] = True
        violations = 0
        hits = []
        first = 0
        while first < len(self):
            low = int(offsets[first])
            stop = int(_np.searchsorted(offsets, low + _SCAN_BLOCK,
                                        side="right")) - 1
            stop = min(max(stop, first + 1), len(self))
            high = int(offsets[stop])
            degree = _np.diff(offsets[first:stop + 1])
            nonempty = degree > 0
            starts = offsets[first:stop][nonempty] - low
            transition = _np.asarray(data[low:high]) & 0xFFFF
            hit = _np.zeros(high - low, dtype=bool)
            for w in range(disables.shape[1] if high > low else 0):
                # Transitions enabled per state: the OR of its edge bits.
                enabled = _np.bitwise_or.reduceat(
                    transition_bit[:, w][transition], starts)
                enabled[skipped[first:stop][nonempty]] = 0
                lost = (_np.repeat(enabled, degree[nonempty])
                        & disables[:, w][transition])
                flags = lost != 0
                violations += int(_POPCOUNT8[lost[flags].view(_np.uint8)]
                                  .sum())
                hit |= flags
            if len(hits) < max_witnesses:
                hits.extend((low + _np.where(hit)[0][:max_witnesses])
                            .tolist())
            first = stop
        return violations, self._persistence_witnesses(
            disables, hits, max_witnesses)

    def _persistence_witnesses(self, disables, edges, max_witnesses):
        """Witness dicts of the violating *edges*, in the compiled order."""
        names = self.compiled.transition_names
        data = self._edge_data
        offsets = self._edge_offsets
        witnesses = []
        for edge in edges:
            state = int(_np.searchsorted(offsets, edge, side="right")) - 1
            fired = int(data[edge]) & 0xFFFF
            for packed in data[offsets[state]:offsets[state + 1]].tolist():
                other = packed & 0xFFFF
                if int(disables[fired, other >> 6]) >> (other & 63) & 1:
                    if len(witnesses) == max_witnesses:
                        return witnesses
                    witnesses.append({
                        "marking": self._marking_at(state),
                        "fired": names[fired],
                        "disabled": names[other],
                    })
        return witnesses


def compile_row_predicate(expression, word_bit_of):
    """Compile a Reach AST into a vectorised predicate over state tables.

    The columnar counterpart of
    :func:`repro.reach.evaluator.compile_mask_predicate`: the returned
    callable receives the whole ``(states, words)`` uint64 table and
    returns a boolean vector.  *word_bit_of* maps a place name to its
    ``(word, single-bit)`` pair or ``None`` for unknown places (which hold
    zero tokens, matching marking semantics on 1-safe states).  Returns
    ``None`` for AST node kinds this compiler does not know, in which case
    callers fall back to the mask- or marking-level evaluators.
    """
    from repro.reach import ast as _ast

    if isinstance(expression, _ast.Constant):
        value = bool(expression.value)
        return lambda words: _np.full(len(words), value, dtype=bool)
    if isinstance(expression, _ast.Marked):
        position = word_bit_of(expression.place)
        if position is None:
            return lambda words: _np.zeros(len(words), dtype=bool)
        word, bit = position
        return lambda words: (words[:, word] & bit) != 0
    if isinstance(expression, _ast.Compare):
        position = word_bit_of(expression.place)
        operator = _ast.Compare._OPERATORS[expression.operator]
        value = expression.value
        if position is None:
            outcome = bool(operator(0, value))
            return lambda words: _np.full(len(words), outcome, dtype=bool)
        word, bit = position
        def compare(words):
            tokens = ((words[:, word] & bit) != 0).astype(_np.int64)
            return operator(tokens, value)
        return compare
    if isinstance(expression, _ast.Not):
        operand = compile_row_predicate(expression.operand, word_bit_of)
        if operand is None:
            return None
        return lambda words: ~operand(words)
    if isinstance(expression, (_ast.And, _ast.Or, _ast.Implies)):
        left = compile_row_predicate(expression.left, word_bit_of)
        right = compile_row_predicate(expression.right, word_bit_of)
        if left is None or right is None:
            return None
        if isinstance(expression, _ast.And):
            return lambda words: left(words) & right(words)
        if isinstance(expression, _ast.Or):
            return lambda words: left(words) | right(words)
        return lambda words: ~left(words) | right(words)
    return None


def _probe_rows(hash_keys, hash_idx, words_buffer, rows, hashes, word_count):
    """Resolve candidate *rows* against the sorted hash index.

    Returns an int64 vector of global state indices (``-1`` for unknown
    rows).  The hash is only a pre-filter: every hit is verified by an exact
    row compare, and runs of colliding hashes are scanned to the end, so the
    result is exact whatever the hash quality.
    """
    targets = _np.full(len(rows), -1, dtype=_np.int64)
    table_size = len(hash_keys)
    position = _np.searchsorted(hash_keys, hashes)
    open_rows = _np.arange(len(rows), dtype=_np.int64)
    while len(open_rows):
        in_range = position < table_size
        open_rows = open_rows[in_range]
        if not len(open_rows):
            break
        position = position[in_range]
        candidate = hash_keys[position] == hashes[open_rows]
        open_rows = open_rows[candidate]
        if not len(open_rows):
            break
        position = position[candidate]
        indices = hash_idx[position]
        matches = _np.ones(len(open_rows), dtype=bool)
        for w in range(word_count):
            matches &= words_buffer[indices, w] == rows[open_rows, w]
        targets[open_rows[matches]] = indices[matches]
        # A hash hit with a different row is a collision: step down the run.
        open_rows = open_rows[~matches]
        position = position[~matches] + 1
    return targets


def checkpoint_identity(compiled, initial_state, max_states):
    """The identity digest a checkpoint must match to be resumable.

    Shared by the batch engine and the sharded coordinator (their on-disk
    layouts are bit-identical at every level boundary, so either's
    checkpoint resumes under the batch engine).
    """
    from repro.utils.diskcache import digest

    return digest({
        "places": list(compiled.place_names),
        "transitions": list(compiled.transition_names),
        "initial": str(initial_state),
        "max_states": int(max_states),
    })


#: ``(dtype string, columns)`` of every checkpointed store; the manifest
#: and :meth:`Checkpoint.resume` agree on this layout.
def _checkpoint_specs(word_count):
    return {
        "words": ("<u8", word_count),
        "parents": ("<i8", 0),
        "edges": ("<i8", 0),
        "counts": ("<i8", 0),
        "frontier": ("<i8", 0),
    }


def explore_batch(compiled, marking=None, max_states=200000, spill=None,
                  checkpoint=None):
    """Whole-frontier breadth-first exploration on NumPy arrays.

    Returns a :class:`ColumnarReachabilityGraph` bit-identical to
    ``explore_compiled(compiled, marking, max_states)`` -- same discovery
    order, packed edges, parents, frontier and truncation -- built one BFS
    level per step instead of one transition per step.  Each level's
    enabled matrix is recomputed from its rows with the byte lookup tables
    of :meth:`WordTables.enabled_matrix`; unlike the sequential engine's
    incremental watch-list masks, nothing is inherited from the parents.

    Every array is built in a :class:`~repro.petri.storage.ArrayStore`:
    in RAM they grow geometrically (an uninitialised buffer plus a copy of
    the used rows, never a ``np.concatenate`` of zeroed capacity); once
    the *spill* budget (a :class:`~repro.petri.storage.SpillConfig`, or
    ``None`` to consult ``REPRO_SPILL_DIR`` / ``REPRO_SPILL_BYTES``) is
    exceeded, they move onto unlinked ``np.memmap`` files and the RAM
    working set stays frontier-sized.  Raises
    :class:`~repro.exceptions.CompilationError` when NumPy is
    unavailable, so ``engine="auto"`` callers fall through to the pure-int
    engines.

    With *checkpoint* set to a directory the stores live at named paths
    under it and a per-level manifest
    (:class:`~repro.petri.storage.Checkpoint`) is atomically replaced
    after every completed BFS level.  A later call pointing at the same
    directory resumes from the last complete level (verifying the stores'
    chained CRCs first; any damage degrades to a fresh run), and the
    resumed graph is bit-identical to an uninterrupted one.  A run that
    finishes removes the directory's manifest and store files.
    """
    _require_numpy()
    import os

    from repro.petri.storage import (
        ArrayStore,
        Checkpoint,
        SortedIndexStore,
        SpillConfig,
        SpillPool,
    )
    if not isinstance(compiled, CompiledNet):
        compiled = CompiledNet.compile(compiled)
    tables = WordTables(compiled)
    initial = marking if marking is not None else compiled.net.initial_marking()
    initial_state = compiled.encode(initial)
    graph = ColumnarReachabilityGraph(compiled, tables, initial_state)

    word_count = tables.words
    transition_names = compiled.transition_names
    place_names = compiled.place_names

    from time import perf_counter

    #: Per-phase second counters, reported as ``exploration_stats``
    #: ``phases``: fire (enabled scan + firing), dedup (sort + grouping),
    #: probe (global lookup), admit (admission + index merge), edges.
    timing = {"fire": 0.0, "dedup": 0.0, "probe": 0.0, "admit": 0.0,
              "edges": 0.0}

    if spill is None:
        spill = SpillConfig.resolve()
    pool = SpillPool(spill, label="batch",
                     named_dir=checkpoint if checkpoint else None)
    level = tables.encode_rows([initial_state])
    total = 1
    truncated = False
    levels = 0
    checkpointer = None
    resumed_from = None
    identity = None
    restored = None
    if checkpoint:
        identity = checkpoint_identity(compiled, initial_state, max_states)
        manifest = Checkpoint.load(checkpoint)
        if manifest is not None:
            try:
                checkpointer, restored = Checkpoint.resume(
                    checkpoint, pool, _checkpoint_specs(word_count),
                    identity, manifest)
            except ConfigurationError:
                # Damaged or foreign checkpoint: degrade to a fresh run
                # (the diskcache rule -- corrupt entries are misses).
                checkpointer, restored = None, None
                from repro.petri.storage import MANIFEST_NAME
                try:
                    os.remove(os.path.join(checkpoint, MANIFEST_NAME))
                except OSError:
                    pass

    if restored is not None:
        words = restored["words"]
        parents = restored["parents"]
        edges = restored["edges"]
        counts = restored["counts"]
        frontier = restored["frontier"]
        progress = manifest["progress"]
        total = int(progress["total"])
        truncated = bool(progress["truncated"])
        levels = int(progress["levels"])
        level_start = int(progress["level_start"])
        resumed_from = levels
        # The level about to expand is the tail of the state table; the
        # sorted hash index is derived state, recomputed rather than
        # checkpointed.
        level = _np.ascontiguousarray(words.data[level_start:total])
        index = SortedIndexStore(pool, "hash", _np.uint64, _np.int64)
        index.merge(tables.hash_rows(words.data),
                    _np.arange(total, dtype=_np.int64))
    else:
        # The graph's columnar arrays, behind the spill pool.  The state
        # table doubles as the exact-match side of the hash probe.
        words = ArrayStore(pool, "words", _np.uint64, columns=word_count)
        parents = ArrayStore(pool, "parents", _np.int64)
        edges = ArrayStore(pool, "edges", _np.int64)
        counts = ArrayStore(pool, "counts", _np.int64)
        frontier = ArrayStore(pool, "frontier", _np.int64)
        index = SortedIndexStore(pool, "hash", _np.uint64, _np.int64)

    try:
        if restored is None:
            words.append(level)
            parents.append(_np.full(1, -1, dtype=_np.int64))
            index.merge(tables.hash_rows(level),
                        _np.zeros(1, dtype=_np.int64))
            if checkpoint:
                checkpointer = Checkpoint(
                    checkpoint,
                    {"words": words, "parents": parents, "edges": edges,
                     "counts": counts, "frontier": frontier},
                    identity)

        while len(level):
            levels += 1
            level_start = total - len(level)
            phase_started = perf_counter()
            flat = _np.flatnonzero(tables.enabled_matrix(level))
            if not len(flat):
                break
            try:
                source_local, transition, successor = fire_enabled(
                    tables, level, flat)
            except SafenessOverflowError as overflow:
                # Report the first offender in expansion order, exactly as
                # the sequential engine would have -- by name at this level.
                raise SafenessOverflowError(
                    transition_names[overflow.transition],
                    place_names[overflow.place]) from None
            source = source_local + level_start
            hashes = tables.hash_rows(successor)
            provenance = (source << 16) | transition
            timing["fire"] += perf_counter() - phase_started
            phase_started = perf_counter()

            # Intra-level dedup of *all* successors first, so the (more
            # expensive) probe against the global state table only runs once
            # per distinct successor.  A sort on the row hashes makes equal
            # rows adjacent; each group's provenance is the minimum over its
            # members -- the edge over which the sequential BFS first
            # discovers that state.
            (order, group_of_sorted, group_rows, group_hashes,
             group_provenance) = dedup_rows(successor, hashes, provenance,
                                            word_count)
            timing["dedup"] += perf_counter() - phase_started
            phase_started = perf_counter()

            # Resolve the distinct successors against the globally known
            # states (exact, hash-accelerated), then admit the unknown ones
            # in provenance order up to the state budget.
            group_target = _probe_rows(index.keys, index.idx, words.data,
                                       group_rows, group_hashes, word_count)
            pool.note_read(len(group_rows) * word_count * 8)
            fresh_groups = _np.where(group_target < 0)[0]
            timing["probe"] += perf_counter() - phase_started
            phase_started = perf_counter()
            admitted_rows = None
            if len(fresh_groups):
                admission = _np.argsort(group_provenance[fresh_groups])
                capacity = max(0, max_states - total)
                admitted = fresh_groups[admission[:capacity]]
                if len(admitted) < len(fresh_groups):
                    truncated = True
                group_target[admitted] = total + _np.arange(len(admitted))
                admitted_provenance = group_provenance[admitted]
                admitted_rows = group_rows[admitted]
                parents.append(admitted_provenance)
                words.append(admitted_rows)
                total += len(admitted)
                # Merge the admitted hashes into the sorted hash index (one
                # fused placement pass into the index's spare buffer).
                if len(admitted):
                    index.merge(group_hashes[admitted],
                                group_target[admitted])

            timing["admit"] += perf_counter() - phase_started
            phase_started = perf_counter()
            # Resolve every edge through its dedup group.
            targets = _np.empty(len(order), dtype=_np.int64)
            targets[order] = group_target[group_of_sorted]
            if (group_target >= 0).all():
                # Nothing was rejected: every edge survives (common case).
                edges.append(transition | (targets << 16))
                counts.append(_np.bincount(source_local,
                                           minlength=len(level)))
            else:
                kept = targets >= 0
                edges.append(transition[kept] | (targets[kept] << 16))
                counts.append(_np.bincount(source_local[kept],
                                           minlength=len(level)))
                frontier.append(_np.unique(source[~kept]))
            timing["edges"] += perf_counter() - phase_started
            # Stream the completed level out of memory: spilled stores drop
            # their resident pages, so RSS tracks the frontier, not the graph.
            pool.drop_resident()
            # Fault point of the crash-recovery tier: firing here leaves the
            # level's rows appended but unmanifested, exactly the torn state
            # a mid-level SIGKILL produces.
            if _faults.trigger("kill_worker", "level"):
                import signal
                os.kill(os.getpid(), signal.SIGKILL)
            next_rows = len(admitted_rows) if admitted_rows is not None else 0
            if checkpointer is not None:
                checkpointer.record_level({
                    "levels": levels,
                    "total": total,
                    "truncated": truncated,
                    "level_start": total - next_rows,
                })
            if next_rows:
                level = admitted_rows
            else:
                level = _np.empty((0, word_count), dtype=_np.uint64)

        graph._words = words.trim()
        graph._parents_arr = parents.trim()
        graph._edge_data = edges.trim()
        # States admitted on the last level expand to nothing enabled;
        # their (empty) count rows are still owed to the CSR offsets.
        counted = len(counts)
        offsets = ArrayStore(pool, "offsets", _np.int64)
        offsets.set_length(total + 1)
        offsets_view = offsets.data
        offsets_view[0] = 0
        if counted:
            _np.cumsum(counts.data, out=offsets_view[1:counted + 1])
        if counted < total:
            offsets_view[counted + 1:] = offsets_view[counted]
        counts.release()
        graph._edge_offsets = offsets.trim()
        graph._frontier_arr = frontier.trim()
        graph._hash_keys, graph._hash_idx = index.finalize()
        if checkpointer is not None:
            # The run completed: nothing is left to resume from.  The live
            # memmap views survive the unlink (the kernel keeps the inodes
            # until the handles close), so the graph stays fully usable.
            checkpointer.discard()
            pool.discard_checkpoint_files()
    except BaseException:
        # Exploration died mid-flight: release every store (and spill-file
        # handle) now instead of waiting for garbage collection.  Named
        # checkpoint files are deliberately left behind -- they are the
        # resumable state.
        pool.close()
        raise
    graph.truncated = truncated
    graph._spill_pool = pool
    graph.exploration_stats = {
        "engine": "batch",
        "levels": levels,
        "states": total,
        "edges": int(len(graph._edge_data)),
        "phases": dict(timing),
        "spill": pool.stats(),
        "checkpoint": {"directory": str(checkpoint) if checkpoint else None,
                       "resumed_from_level": resumed_from},
    }
    return graph
