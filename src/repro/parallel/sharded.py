"""Sharded frontier-partitioned BFS over the compiled bitmask relation.

The sequential explorers (:func:`repro.petri.compiled.explore_compiled` and
the array-native :func:`repro.petri.batch.explore_batch`) are bounded by one
core: every enabled-set update, every firing and -- the real limiter at
scale -- every dedup probe of the ever-growing state index runs in one
process.  This module distributes all three across shard workers while
keeping the resulting graph **bit-identical**: same states in the same
discovery order, same packed edge lists, same BFS parents (hence traces),
same frontier and truncation behaviour, so every property verdict computed
on a sharded graph equals the sequential one exactly.

Architecture
------------

* **Workers own hash-partitioned shards of the state space.**  A state
  belongs to the worker ``hash(state) % workers`` (Python's int hash, so the
  partition is reproducible).  Each worker keeps the index of *its* states
  only -- dedup, the memory hog of explicit exploration, is thereby both
  parallelised and partitioned.  Workers expand **vectorised** whenever the
  optional NumPy extra is importable (:class:`_BatchShardWorker`, built on
  the primitives of :mod:`repro.petri.batch`, including a vectorised
  :func:`shard_of` over whole successor batches); without NumPy the
  pure-int backend (:class:`_IntShardWorker`) runs the same level
  protocol and produces identical graphs.  All workers of one run use one
  backend, because the relayed successor records differ: the pure-int
  record carries the parent's enabled mask for its watch-list update, the
  NumPy record does not.
* **Cross-shard successors stream in chunks within a level.**  Expanding a
  level, a worker resolves own-shard successors against its local index and
  ships every foreign successor to that successor's owner.  Instead of one
  batch per level, the outboxes are flushed every ``chunk_states`` expanded
  states (relayed by the coordinator, which never parses them), and between
  flushes the worker drains and resolves whatever inbound chunks have
  already arrived -- so inbound-batch resolution overlaps expansion instead
  of serialising behind the level barrier.  The last chunk of a level
  carries a *final* marker; a worker's level is done when its own expansion
  is finished and every peer's final chunk has been resolved.
* **A bounded requester-side memo short-circuits re-converging edges.**
  After each level the coordinator feeds every worker the final global
  indices its shipped foreign states resolved to (``_MSG_MEMO``); the
  worker keeps a bounded memo of those resolutions and, on the next
  encounter of a memoised state, emits the final packed edge directly --
  no outbox entry, no owner-side probe, no resolution-stream slot.  Only
  admitted states enter the memo, so a hit is exactly the edge the owner
  would have answered and the graph stays bit-identical.  The bound is
  **frequency/depth-aware**: re-convergent edges overwhelmingly target
  early-discovered states, so eviction removes the newest zero-hit entries
  first and spares both older entries and entries that have already
  produced a hit (plain FIFO measurably starved the memo -- 2 hits on the
  3-stage pipeline family where ~1216 are attainable within the default
  bound).  The policy only affects hit rate, never edges.  Hit counters
  are aggregated into ``graph.exchange_stats``.
* **The coordinator replays only admissions, not edges.**  New states are
  admitted in the exact order the sequential BFS would discover them: every
  candidate carries its provenance ``parent_index << 16 | transition``, the
  minimum over all discoverers, and candidates are admitted in sorted
  provenance order up to ``max_states`` -- which reproduces sequential
  discovery order, truncation, frontier and parent pointers bit for bit.
  Edge lists arrive as packed 64-bit streams (the graph's own edge format)
  parsed at C speed; the coordinator's per-edge Python work is a single
  append for resolved edges.

A 1-safeness overflow detected by a worker aborts the exploration with the
same :class:`~repro.exceptions.SafenessOverflowError` the sequential engine
raises (under ``engine="auto"`` the caller then falls back to the explicit
explorer, exactly as before).
"""

import os
import threading
from array import array
from collections import deque
from multiprocessing.connection import wait as connection_wait

from repro.exceptions import SafenessOverflowError, VerificationError
from repro.parallel.context import mp_context
from repro.utils import faults as _faults
from repro.petri.compiled import (
    CompiledNet,
    CompiledReachabilityGraph,
    expand_watch_pairs,
    iter_bits,
    scan_enabled_mask,
)

#: Sentinel transition index: "compute the enabled mask with a full scan"
#: (used for the initial state, which has no parent to update from).
_FULL_SCAN = 0xFFFF

#: Message type prefixes (coordinator -> worker).
_MSG_SEED = 0x53        # "S": level-0 seed (initial state)
_MSG_ASSIGN = 0x41      # "A": admission assignments for the previous level
_MSG_RELAY = 0x52       # "R": relayed successor chunk from another shard
_MSG_MEMO = 0x4D        # "M": resolutions of last level's shipped states
_MSG_QUIT = 0x51        # "Q": shutdown

#: Worker -> coordinator message prefixes.
_MSG_CHUNK = 0x43       # "C": per-destination successor chunk (+final flag)
_MSG_REPORT = 0x45      # "E": edge stream + resolutions + candidates
_MSG_OVERFLOW = 0x56    # "V": 1-safeness overflow (transition, place)

#: Default bound of the requester-side resolution memo (entries per worker).
_DEFAULT_MEMO = 1 << 16

#: Default expansion chunk (states per outbox flush); REPRO_SHARD_CHUNK
#: overrides it, letting tests force many small chunks per level.
_DEFAULT_CHUNK = 2048


def _pack_sections(sections):
    """Concatenate byte *sections* with 4-byte little-endian length headers."""
    out = bytearray()
    for section in sections:
        out += len(section).to_bytes(4, "little")
        out += section
    return bytes(out)


def _unpack_sections(buf, offset=0):
    """Inverse of :func:`_pack_sections` (returns a list of memory slices)."""
    sections = []
    end = len(buf)
    while offset < end:
        length = int.from_bytes(buf[offset:offset + 4], "little")
        offset += 4
        sections.append(buf[offset:offset + length])
        offset += length
    return sections


def shard_of(state, workers):
    """The shard (worker index) owning an integer state, by hash partition.

    ``hash`` of a Python int is deterministic (no ``PYTHONHASHSEED``
    dependence), so the partition -- and with it the exact batch layout of
    the exchange -- is reproducible run to run.  The batch workers compute
    the same partition vectorised with
    :func:`repro.petri.batch.shard_rows`.
    """
    return hash(state) % workers


def _state_row_width(place_count):
    """Bytes of one state on the wire: whole little-endian 64-bit words.

    Both worker backends and the coordinator derive the width from this one
    helper, so the pure-int and NumPy backends stay wire-compatible (the
    batch workers serialise state rows with ``ndarray.tobytes``, which
    emits whole words).
    """
    return 8 * max(1, (place_count + 63) // 64)


class _ShardTables:
    """The picklable slice of a :class:`CompiledNet` a shard worker needs."""

    __slots__ = ("consume", "produce", "need", "affected",
                 "place_count", "transition_count")

    def __init__(self, compiled):
        self.consume = list(compiled.consume)
        self.produce = list(compiled.produce)
        self.need = list(compiled.need)
        self.affected = list(compiled.affected)
        self.place_count = len(compiled.place_names)
        self.transition_count = len(compiled.transition_names)


class _ShardWorkerBase:
    """Shared level protocol of both worker backends.

    Subclasses provide the expansion/resolution machinery through the
    ``_seed`` / ``_apply_assignments`` / ``_begin_level`` /
    ``_expansion_size`` / ``_expand_chunk`` / ``_resolve_inbound`` /
    ``_apply_memo`` / ``_report`` hooks; this base class owns the message
    loop, the chunked flush/drain cycle and the final-marker accounting.
    """

    def __init__(self, connection, tables, worker_id, workers, memo_size,
                 chunk_states):
        self.connection = connection
        self.tables = tables
        self.worker_id = worker_id
        self.workers = workers
        self.memo_size = memo_size
        self.chunk_states = max(1, int(chunk_states))
        self.row_width = _state_row_width(tables.place_count)
        self.shipped_history = deque()
        self.finals_received = 0
        self.level_memo_hits = 0
        self.level_foreign = 0

    def run(self):
        connection = self.connection
        while True:
            message = connection.recv_bytes()
            kind = message[0]
            if kind == _MSG_QUIT:
                return
            if kind == _MSG_MEMO:
                self._apply_memo(memoryview(message)[1:])
                continue
            if kind == _MSG_SEED:
                self._seed(int.from_bytes(message[1:], "little"))
            elif kind == _MSG_ASSIGN:
                self._apply_assignments(memoryview(message)[1:])
            else:
                raise VerificationError(
                    "shard worker received unexpected message {!r}".format(kind))
            try:
                report = self._expand_and_exchange()
            except SafenessOverflowError as overflow:
                connection.send_bytes(
                    bytes([_MSG_OVERFLOW])
                    + int(overflow.transition).to_bytes(2, "little")
                    + int(overflow.place).to_bytes(2, "little"))
                return
            if report is None:
                return  # the coordinator shut the exploration down mid-level
            connection.send_bytes(report)

    def _expand_and_exchange(self):
        self.finals_received = 0
        self.level_memo_hits = 0
        self.level_foreign = 0
        self._begin_level()
        connection = self.connection
        total = self._expansion_size()
        chunk_states = self.chunk_states
        start = 0
        while start < total:
            stop = min(total, start + chunk_states)
            outboxes = self._expand_chunk(start, stop)
            final = 1 if stop >= total else 0
            connection.send_bytes(bytes([_MSG_CHUNK, final])
                                  + _pack_sections(outboxes))
            start = stop
            # Overlap: resolve whatever inbound chunks already arrived
            # before expanding the next slice of our own frontier.
            if not self._drain_inbound(block=False):
                return None
        if total == 0:
            connection.send_bytes(bytes([_MSG_CHUNK, 1])
                                  + _pack_sections([b""] * self.workers))
        if not self._drain_inbound(block=True):
            return None
        if self.memo_size and self.shipped:
            self.shipped_history.append(self.shipped)
            self.shipped = []
        return self._report()

    def _drain_inbound(self, block):
        """Resolve queued relays; ``False`` when the coordinator quit."""
        connection = self.connection
        while True:
            if block:
                if self.finals_received >= self.workers - 1:
                    return True
            elif not connection.poll(0):
                return True
            message = connection.recv_bytes()
            kind = message[0]
            if kind == _MSG_QUIT:
                # The coordinator aborted the level (e.g. another shard hit
                # a 1-safeness overflow); exit quietly instead of waiting
                # for relays that will never come.
                return False
            if kind == _MSG_MEMO:
                self._apply_memo(memoryview(message)[1:])
            elif kind == _MSG_RELAY:
                payload = memoryview(message)[3:]
                if len(payload):
                    self._resolve_inbound(message[1], payload)
                if message[2]:
                    self.finals_received += 1
            else:
                raise VerificationError(
                    "shard worker expected a relay, got {!r}".format(kind))


class _IntShardWorker(_ShardWorkerBase):
    """One shard on the pure-int backend: the no-NumPy fallback.

    Per level the worker expands the states admitted to its shard (in global
    discovery order), emits one packed edge stream, chunked successor
    batches per foreign shard, one resolution stream per requesting shard,
    and the list of its newly discovered (pending) states with
    min-provenance -- see the module docstring for how the coordinator
    stitches these together.  A relay record is the successor's row, the
    parent's enabled mask (``mask_width`` bytes) and the provenance, all
    little-endian.
    """

    def __init__(self, connection, tables, worker_id, workers, memo_size,
                 chunk_states):
        super().__init__(connection, tables, worker_id, workers, memo_size,
                         chunk_states)
        self.pairs = expand_watch_pairs(tables.need, tables.affected)
        self.mask_width = (tables.transition_count + 7) // 8
        self.local_index = {}   # own-shard state -> global index
        self.pending = {}       # own-shard state -> pending id (this level)
        self.records = []       # pending id -> (state, parent_mask, transition)
        self.provenance = []    # pending id -> min provenance
        self.expansion = []     # (global index, state, parent_mask, transition)
        self.memo = {}          # foreign state -> global index (depth-ordered)
        self.memo_hot = set()   # memo entries that have produced a hit
        self.shipped = []       # foreign states shipped this level, in order

    def _seed(self, state):
        self.local_index[state] = 0
        self.expansion = [(0, state, 0, _FULL_SCAN)]

    def _apply_assignments(self, payload):
        """Admission results for last level's pendings; queue the admitted."""
        assigned = array("q")
        assigned.frombytes(payload)
        records = self.records
        local_index = self.local_index
        expansion = []
        expansion_append = expansion.append
        for pending_id, index in enumerate(assigned):
            if index < 0:
                continue  # rejected: the state bound was hit first
            state, parent_mask, transition = records[pending_id]
            local_index[state] = index
            expansion_append((index, state, parent_mask, transition))
        expansion.sort()  # expand in global discovery order
        self.expansion = expansion
        self.pending = {}
        self.records = []
        self.provenance = []

    def _apply_memo(self, payload):
        resolutions = array("q")
        resolutions.frombytes(payload)
        shipped = self.shipped_history.popleft()
        memo = self.memo
        for state, index in zip(shipped, resolutions):
            if index >= 0:
                memo[state] = index  # re-resolutions keep their depth slot
        excess = len(memo) - self.memo_size
        if excess > 0:
            # Frequency/depth-aware eviction: walk the newest entries first
            # and spare anything that has already produced a hit -- long
            # -range re-convergences target early-discovered states, so the
            # oldest entries are the ones worth keeping.
            hot = self.memo_hot
            victims = []
            for state in reversed(memo):
                if state not in hot:
                    victims.append(state)
                    if len(victims) == excess:
                        break
            for state in victims:
                del memo[state]
            excess = len(memo) - self.memo_size
            if excess > 0:  # every entry is hot: drop the newest of those
                victims = [state for _, state in zip(range(excess),
                                                     reversed(memo))]
                for state in victims:
                    del memo[state]
                    hot.discard(state)

    def _begin_level(self):
        self.counts = array("H")
        self.edges = array("q")
        self.resolutions = [array("q") for _ in range(self.workers)]
        self.shipped = []

    def _expansion_size(self):
        return len(self.expansion)

    def _expand_chunk(self, start, stop):
        tables = self.tables
        consume = tables.consume
        produce = tables.produce
        need = tables.need
        pairs = self.pairs
        row_width = self.row_width
        mask_width = self.mask_width
        worker_id = self.worker_id
        workers = self.workers
        local_index_get = self.local_index.get
        pending = self.pending
        pending_get = pending.get
        records = self.records
        records_append = records.append
        provenance_list = self.provenance
        provenance_append = provenance_list.append
        counts_append = self.counts.append
        edges_append = self.edges.append
        own_resolutions_append = self.resolutions[worker_id].append
        memo_get = self.memo.get
        hot_add = self.memo_hot.add
        memo_enabled = self.memo_size > 0
        shipped_append = self.shipped.append
        outboxes = [bytearray() for _ in range(workers)]
        foreign = 0
        memo_hits = 0

        for current, state, parent_mask, transition in self.expansion[start:stop]:
            if transition == _FULL_SCAN:
                mask = scan_enabled_mask(need, state)
            else:
                watch, touched = pairs[transition]
                mask = parent_mask & ~touched
                for bit, other_need in watch:
                    if (state & other_need) == other_need:
                        mask |= bit
            mask_bytes = None
            provenance_base = current << 16
            edge_count = 0
            remaining = mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                index = low.bit_length() - 1
                remainder = state & ~consume[index]
                produced = produce[index]
                overflow = remainder & produced
                if overflow:
                    raise SafenessOverflowError(index, next(iter_bits(overflow)))
                successor = remainder | produced
                edge_count += 1
                owner = hash(successor) % workers
                if owner == worker_id:
                    resolved = local_index_get(successor)
                    if resolved is not None:
                        # Known own-shard state: a direct, final packed edge.
                        edges_append(index | (resolved << 16))
                        continue
                    # New own-shard state: a reference into this shard's own
                    # resolution stream (min-provenance kept for admission).
                    pending_id = pending_get(successor)
                    if pending_id is None:
                        pending_id = len(records)
                        pending[successor] = pending_id
                        records_append((successor, mask, index))
                        provenance_append(provenance_base | index)
                    elif provenance_base | index < provenance_list[pending_id]:
                        provenance_list[pending_id] = provenance_base | index
                    edges_append(-(index | (worker_id << 16)) - 1)
                    own_resolutions_append(-pending_id - 1)
                else:
                    # Foreign successor: answer from the resolution memo when
                    # possible, otherwise ship it to its owner and emit a
                    # reference the coordinator fills from the owner's
                    # resolution stream for this shard.  The record carries
                    # no separate transition -- the provenance's low 16 bits
                    # are the transition already.
                    foreign += 1
                    if memo_enabled:
                        cached = memo_get(successor)
                        if cached is not None:
                            hot_add(successor)  # a hit protects the entry
                            memo_hits += 1
                            edges_append(index | (cached << 16))
                            continue
                        shipped_append(successor)
                    if mask_bytes is None:
                        mask_bytes = mask.to_bytes(mask_width, "little")
                    outbox = outboxes[owner]
                    outbox += successor.to_bytes(row_width, "little")
                    outbox += mask_bytes
                    outbox += (provenance_base | index).to_bytes(8, "little")
                    edges_append(-(index | (owner << 16)) - 1)
            counts_append(edge_count)
        self.level_foreign += foreign
        self.level_memo_hits += memo_hits
        return outboxes

    def _resolve_inbound(self, requester, batch):
        from_bytes = int.from_bytes
        row_width = self.row_width
        mask_width = self.mask_width
        local_index_get = self.local_index.get
        pending = self.pending
        pending_get = pending.get
        records = self.records
        records_append = records.append
        provenance_list = self.provenance
        provenance_append = provenance_list.append
        stream_append = self.resolutions[requester].append
        position = 0
        end = len(batch)
        while position < end:
            state_end = position + row_width
            state = from_bytes(batch[position:state_end], "little")
            mask_end = state_end + mask_width
            position = mask_end + 8
            resolved = local_index_get(state)
            if resolved is not None:
                stream_append(resolved)
                continue
            pending_id = pending_get(state)
            provenance = from_bytes(batch[mask_end:position], "little")
            if pending_id is None:
                pending_id = len(records)
                pending[state] = pending_id
                parent_mask = from_bytes(batch[state_end:mask_end], "little")
                records_append((state, parent_mask, provenance & 0xFFFF))
                provenance_append(provenance)
            elif provenance < provenance_list[pending_id]:
                provenance_list[pending_id] = provenance
            stream_append(-pending_id - 1)

    def _report(self):
        candidate_states = bytearray()
        row_width = self.row_width
        for state, _, _ in self.records:
            candidate_states += state.to_bytes(row_width, "little")
        candidate_provenance = array("Q", self.provenance)
        stats = array("Q", [self.level_memo_hits, self.level_foreign])
        return bytes([_MSG_REPORT]) + _pack_sections(
            [self.counts.tobytes(), self.edges.tobytes()]
            + [stream.tobytes() for stream in self.resolutions]
            + [candidate_provenance.tobytes(), candidate_states,
               stats.tobytes()])


class _BatchShardWorker(_ShardWorkerBase):
    """One shard on the NumPy backend: whole-chunk vectorised expansion.

    The same level protocol as :class:`_IntShardWorker`, produced with
    the array primitives of :mod:`repro.petri.batch`: lookup-table
    enabledness and broadcast firing over the chunk, vectorised
    :func:`shard_of` routing, sort-based dedup of new own-shard states,
    hash-probed local/pending/memo indices, and ``tobytes`` serialisation
    of outboxes, edge streams and candidates.  A relay record is the
    successor's row words followed by its provenance, all little-endian
    uint64; no enabled mask travels, since every chunk's enabledness is
    computed from its rows.
    """

    def __init__(self, connection, tables, worker_id, workers, memo_size,
                 chunk_states):
        super().__init__(connection, tables, worker_id, workers, memo_size,
                         chunk_states)
        import numpy
        from repro.petri import batch
        self._n = numpy
        self._b = batch
        self.word_tables = batch.WordTables.from_raw(
            tables.need, tables.consume, tables.produce, tables.place_count)
        words = self.word_tables.words
        self.words = words
        self.local_rows = numpy.zeros((256, words), dtype=numpy.uint64)
        self.local_global = numpy.zeros(256, dtype=numpy.int64)
        self.local_count = 0
        self.local_keys = numpy.empty(0, dtype=numpy.uint64)
        self.local_pos = numpy.empty(0, dtype=numpy.int64)
        self.exp_rows = numpy.empty((0, words), dtype=numpy.uint64)
        self.exp_global = numpy.empty(0, dtype=numpy.int64)
        self.memo_rows = numpy.empty((0, words), dtype=numpy.uint64)
        self.memo_idx = numpy.empty(0, dtype=numpy.int64)
        self.memo_hashes = numpy.empty(0, dtype=numpy.uint64)
        self.memo_hits = numpy.empty(0, dtype=numpy.int64)
        self.memo_keys = numpy.empty(0, dtype=numpy.uint64)
        self.memo_pos = numpy.empty(0, dtype=numpy.int64)
        self.shipped = []       # per-chunk row matrices shipped this level
        self._reset_pending()

    # -- stores ---------------------------------------------------------------

    def _reset_pending(self):
        n = self._n
        words = self.words
        self.pend_rows = n.zeros((64, words), dtype=n.uint64)
        self.pend_prov = n.zeros(64, dtype=n.int64)
        self.pend_count = 0
        self.pend_keys = n.empty(0, dtype=n.uint64)
        self.pend_pos = n.empty(0, dtype=n.int64)

    def _insert_local(self, rows, global_indices):
        n = self._n
        count = self.local_count
        needed = count + len(rows)
        while needed > len(self.local_rows):
            self.local_rows = n.concatenate(
                [self.local_rows, n.zeros_like(self.local_rows)])
            self.local_global = n.concatenate(
                [self.local_global, n.zeros_like(self.local_global)])
        self.local_rows[count:needed] = rows
        self.local_global[count:needed] = global_indices
        self.local_keys, self.local_pos = self._b.merge_sorted_index(
            self.local_keys, self.local_pos,
            self.word_tables.hash_rows(rows),
            n.arange(count, needed, dtype=n.int64))
        self.local_count = needed

    def _append_pending(self, rows, hashes, provenance):
        n = self._n
        count = self.pend_count
        needed = count + len(rows)
        while needed > len(self.pend_rows):
            self.pend_rows = n.concatenate(
                [self.pend_rows, n.zeros_like(self.pend_rows)])
            self.pend_prov = n.concatenate(
                [self.pend_prov, n.zeros_like(self.pend_prov)])
        identifiers = n.arange(count, needed, dtype=n.int64)
        self.pend_rows[count:needed] = rows
        self.pend_prov[count:needed] = provenance
        self.pend_keys, self.pend_pos = self._b.merge_sorted_index(
            self.pend_keys, self.pend_pos, hashes, identifiers)
        self.pend_count = needed
        return identifiers

    # -- protocol hooks -------------------------------------------------------

    def _seed(self, state):
        n = self._n
        row = n.asarray([self._b.int_to_words(state, self.words)],
                        dtype=n.uint64)
        self._insert_local(row, n.zeros(1, dtype=n.int64))
        self.exp_rows = row
        self.exp_global = n.zeros(1, dtype=n.int64)

    def _apply_assignments(self, payload):
        n = self._n
        assigned = n.frombuffer(bytes(payload), dtype="<i8")
        admitted = n.flatnonzero(assigned >= 0)
        admitted = admitted[n.argsort(assigned[admitted])]
        self.exp_global = assigned[admitted].astype(n.int64)
        self.exp_rows = n.ascontiguousarray(
            self.pend_rows[:self.pend_count][admitted])
        if len(admitted):
            self._insert_local(self.exp_rows, self.exp_global)
        self._reset_pending()

    def _apply_memo(self, payload):
        n = self._n
        b = self._b
        resolved = n.frombuffer(bytes(payload), dtype="<i8")
        chunks = self.shipped_history.popleft()
        rows = chunks[0] if len(chunks) == 1 else n.concatenate(chunks)
        admitted = resolved >= 0
        if not admitted.any():
            return
        rows = rows[admitted]
        indices = resolved[admitted].astype(n.int64)
        hashes = self.word_tables.hash_rows(rows)
        # Duplicate shipments of one state resolve identically; keep one.
        _, _, group_rows, group_hashes, group_idx = b.dedup_rows(
            rows, hashes, indices, self.words)
        slot = b._probe_rows(self.memo_keys, self.memo_pos, self.memo_rows,
                             group_rows, group_hashes)
        fresh = slot < 0
        if not fresh.any():
            return
        previous = len(self.memo_rows)
        self.memo_rows = n.concatenate([self.memo_rows, group_rows[fresh]])
        self.memo_idx = n.concatenate([self.memo_idx, group_idx[fresh]])
        self.memo_hashes = n.concatenate([self.memo_hashes,
                                          group_hashes[fresh]])
        self.memo_hits = n.concatenate(
            [self.memo_hits,
             n.zeros(int(fresh.sum()), dtype=n.int64)])
        if len(self.memo_rows) > self.memo_size:
            # Frequency/depth-aware bound (mirrors the int backend): a
            # stable sort by descending hit count puts proven entries
            # first and, within equal counts, the oldest first -- so the
            # evictees are exactly the newest zero-hit rows.  Survivors
            # keep their insertion (depth) order.  Slot positions shift,
            # so the sorted index is rebuilt -- only on eviction; the
            # steady state below merges incrementally.
            order = n.argsort(-self.memo_hits, kind="stable")
            keep = n.sort(order[:self.memo_size])
            self.memo_rows = self.memo_rows[keep]
            self.memo_idx = self.memo_idx[keep]
            self.memo_hashes = self.memo_hashes[keep]
            self.memo_hits = self.memo_hits[keep]
            position = n.argsort(self.memo_hashes)
            self.memo_keys = self.memo_hashes[position]
            self.memo_pos = position.astype(n.int64)
        else:
            self.memo_keys, self.memo_pos = b.merge_sorted_index(
                self.memo_keys, self.memo_pos, group_hashes[fresh],
                n.arange(previous, len(self.memo_rows), dtype=n.int64))

    def _begin_level(self):
        self.count_chunks = []
        self.edge_chunks = []
        self.stream_chunks = [[] for _ in range(self.workers)]
        self.shipped = []

    def _expansion_size(self):
        return len(self.exp_global)

    def _expand_chunk(self, start, stop):
        n = self._n
        b = self._b
        tables = self.word_tables
        words = self.words
        workers = self.workers
        worker_id = self.worker_id
        transition_count = self.tables.transition_count
        rows = self.exp_rows[start:stop]
        global_indices = self.exp_global[start:stop]
        outboxes = [b""] * workers
        # The batch engine's overflow check: raises SafenessOverflowError
        # with integer indices, which is exactly this worker's overflow
        # wire format.
        flat = n.flatnonzero(tables.safe_enabled_matrix(rows))
        source_local = flat // transition_count
        transition = flat - source_local * transition_count
        self.count_chunks.append(
            n.bincount(source_local, minlength=stop - start))
        if not len(flat):
            return outboxes
        successor = b.fire_rows(rows, tables.fire_tab, source_local,
                                transition)
        provenance = (global_indices[source_local] << 16) | transition
        owner = b.shard_rows(successor, workers)
        edge_values = n.empty(len(flat), dtype=n.int64)

        own_positions = n.flatnonzero(owner == worker_id)
        if len(own_positions):
            own_rows = successor[own_positions]
            own_hashes = tables.hash_rows(own_rows)
            local_hit = b._probe_rows(self.local_keys, self.local_pos,
                                      self.local_rows, own_rows, own_hashes)
            known = local_hit >= 0
            known_positions = own_positions[known]
            edge_values[known_positions] = (
                transition[known_positions]
                | (self.local_global[local_hit[known]] << 16))
            unknown_positions = own_positions[~known]
            if len(unknown_positions):
                (order, group_of_sorted, group_rows, group_hashes,
                 group_prov) = b.dedup_rows(
                    own_rows[~known], own_hashes[~known],
                    provenance[unknown_positions], words)
                group_pending = b._probe_rows(
                    self.pend_keys, self.pend_pos, self.pend_rows,
                    group_rows, group_hashes)
                hit = group_pending >= 0
                if hit.any():
                    identifiers = group_pending[hit]
                    self.pend_prov[identifiers] = n.minimum(
                        self.pend_prov[identifiers], group_prov[hit])
                fresh = n.flatnonzero(~hit)
                if len(fresh):
                    group_pending[fresh] = self._append_pending(
                        group_rows[fresh], group_hashes[fresh],
                        group_prov[fresh])
                occurrence = n.empty(len(unknown_positions), dtype=n.int64)
                occurrence[order] = group_pending[group_of_sorted]
                self.stream_chunks[worker_id].append(-occurrence - 1)
                edge_values[unknown_positions] = -(
                    transition[unknown_positions] | (worker_id << 16)) - 1

        foreign_positions = n.flatnonzero(owner != worker_id)
        if len(foreign_positions):
            self.level_foreign += len(foreign_positions)
            foreign_rows = successor[foreign_positions]
            foreign_hashes = tables.hash_rows(foreign_rows)
            if self.memo_size:
                slot = b._probe_rows(self.memo_keys, self.memo_pos,
                                     self.memo_rows, foreign_rows,
                                     foreign_hashes)
                hit = slot >= 0
            else:
                hit = n.zeros(len(foreign_positions), dtype=bool)
            hit_positions = foreign_positions[hit]
            if len(hit_positions):
                self.level_memo_hits += len(hit_positions)
                n.add.at(self.memo_hits, slot[hit], 1)  # protect on eviction
                edge_values[hit_positions] = (
                    transition[hit_positions]
                    | (self.memo_idx[slot[hit]] << 16))
            miss_positions = foreign_positions[~hit]
            if len(miss_positions):
                miss_owner = owner[miss_positions]
                edge_values[miss_positions] = -(
                    transition[miss_positions] | (miss_owner << 16)) - 1
                miss_rows = foreign_rows[~hit]
                if self.memo_size:
                    self.shipped.append(miss_rows)
                # Relay records: the row's words, then its provenance.
                record = n.empty((len(miss_positions), words + 1),
                                 dtype="<u8")
                record[:, :words] = miss_rows
                record[:, words] = provenance[miss_positions]
                dest_order = n.argsort(miss_owner, kind="stable")
                sorted_owner = miss_owner[dest_order]
                bounds = n.searchsorted(
                    sorted_owner, n.arange(workers + 1, dtype=n.int64))
                for destination in n.unique(sorted_owner).tolist():
                    members = dest_order[bounds[destination]:
                                         bounds[destination + 1]]
                    outboxes[destination] = record[members].tobytes()
        self.edge_chunks.append(edge_values)
        return outboxes

    def _resolve_inbound(self, requester, payload):
        n = self._n
        b = self._b
        words = self.words
        record = n.frombuffer(bytes(payload), dtype="<u8").reshape(
            -1, words + 1)
        count = len(record)
        rows = record[:, :words].astype(n.uint64)
        provenance = record[:, words].astype(n.int64)
        hashes = self.word_tables.hash_rows(rows)
        stream = n.empty(count, dtype=n.int64)
        local_hit = b._probe_rows(self.local_keys, self.local_pos,
                                  self.local_rows, rows, hashes)
        known = local_hit >= 0
        stream[known] = self.local_global[local_hit[known]]
        unknown = n.flatnonzero(~known)
        if len(unknown):
            unknown_rows = rows[unknown]
            unknown_hashes = hashes[unknown]
            (order, group_of_sorted, group_rows, group_hashes,
             group_prov) = b.dedup_rows(unknown_rows, unknown_hashes,
                                        provenance[unknown], words)
            group_pending = b._probe_rows(
                self.pend_keys, self.pend_pos, self.pend_rows,
                group_rows, group_hashes)
            hit = group_pending >= 0
            if hit.any():
                identifiers = group_pending[hit]
                self.pend_prov[identifiers] = n.minimum(
                    self.pend_prov[identifiers], group_prov[hit])
            fresh = n.flatnonzero(~hit)
            if len(fresh):
                group_pending[fresh] = self._append_pending(
                    group_rows[fresh], group_hashes[fresh], group_prov[fresh])
            occurrence = n.empty(len(unknown), dtype=n.int64)
            occurrence[order] = group_pending[group_of_sorted]
            stream[unknown] = -occurrence - 1
        self.stream_chunks[requester].append(stream)

    def _report(self):
        n = self._n
        counts = (n.concatenate(self.count_chunks)
                  if self.count_chunks else n.empty(0, dtype=n.int64))
        edges = (n.concatenate(self.edge_chunks)
                 if self.edge_chunks else n.empty(0, dtype=n.int64))
        streams = []
        for chunks in self.stream_chunks:
            if chunks:
                streams.append(n.concatenate(chunks).astype(
                    "<i8", copy=False).tobytes())
            else:
                streams.append(b"")
        candidate_provenance = self.pend_prov[:self.pend_count].astype("<u8")
        candidate_states = n.ascontiguousarray(
            self.pend_rows[:self.pend_count].astype(
                "<u8", copy=False)).tobytes()
        stats = array("Q", [self.level_memo_hits, self.level_foreign])
        return bytes([_MSG_REPORT]) + _pack_sections(
            [counts.astype("<u2").tobytes(),
             edges.astype("<i8", copy=False).tobytes()]
            + streams
            + [candidate_provenance.tobytes(), candidate_states,
               stats.tobytes()])


def _shard_worker_main(connection, tables, worker_id, workers, memo_size,
                       chunk_states, batch, inherited):
    # A forked worker holds copies of the coordinator's pipe ends; closed
    # here, the coordinator's death reads as EOF instead of a pipe kept
    # open by the workers themselves.
    for end in inherited:
        end.close()
    try:
        worker_class = _IntShardWorker
        if batch is not False:
            try:
                from repro.petri.batch import numpy_available
                if numpy_available():
                    worker_class = _BatchShardWorker
            except ImportError:  # pragma: no cover - defensive
                pass
        worker_class(connection, tables, worker_id, workers, memo_size,
                     chunk_states).run()
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        connection.close()


class _Sender:
    """A dispatch thread: keeps coordinator receives deadlock-free.

    Pipes have finite OS buffers; if the coordinator blocked sending to a
    worker that is itself blocked sending its report back, both sides would
    wait forever.  Routing every outbound message through one thread lets
    the coordinator's main loop keep draining inbound traffic while a send
    backpressures.
    """

    def __init__(self, connections):
        self.connections = connections
        self.queue = []
        self.lock = threading.Lock()
        self.ready = threading.Event()
        self.closed = False
        self.error = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def send(self, worker, payload):
        with self.lock:
            self.queue.append((worker, payload))
            self.ready.set()

    def close(self):
        with self.lock:
            self.closed = True
            self.ready.set()
        self.thread.join(timeout=10.0)

    def _run(self):
        while True:
            self.ready.wait()
            with self.lock:
                batch, self.queue = self.queue, []
                if not batch and self.closed:
                    return
                self.ready.clear()
            for worker, payload in batch:
                try:
                    self.connections[worker].send_bytes(payload)
                except (BrokenPipeError, OSError) as error:
                    self.error = error
                    return


def explore_sharded(compiled, marking=None, max_states=200000, workers=None,
                    memo_size=None, chunk_states=None, batch=None,
                    spill=None, checkpoint=None):
    """Breadth-first exploration sharded across worker processes.

    Returns a graph bit-identical to ``explore_compiled(compiled, marking,
    max_states)`` -- see the module docstring for how.  With the NumPy
    extra importable the coordinator merges the workers' report streams
    **directly into columnar arrays** (a
    :class:`~repro.petri.batch.ColumnarReachabilityGraph`, spillable to
    disk through *spill* -- a :class:`~repro.petri.storage.SpillConfig`,
    or ``None`` to consult ``REPRO_SPILL_DIR`` / ``REPRO_SPILL_BYTES``);
    without NumPy it accumulates the Python-list
    :class:`~repro.petri.compiled.CompiledReachabilityGraph` exactly as
    before.  *workers* defaults to the CPU count.  *memo_size* bounds the
    per-worker requester-side resolution memo (default 65536 entries; 0
    disables it), *chunk_states* sets the intra-level streaming chunk
    (default 2048 expanded states per flush, overridable with
    ``REPRO_SHARD_CHUNK``), and *batch* selects the worker backend:
    ``None`` (default) uses the vectorised NumPy backend whenever the
    extra is importable in the workers, ``False`` forces the pure-int
    backend.  Exchange/memo counters are attached to the result as
    ``graph.exchange_stats``; per-phase timings and spill counters as
    ``graph.exploration_stats``.

    With *checkpoint* set to a directory (and the NumPy merger active) the
    coordinator keeps its columnar stores at named paths there and writes
    the same per-level :class:`~repro.petri.storage.Checkpoint` manifest
    as ``explore_batch`` after every merged level -- the two engines'
    on-disk layouts are bit-identical at level boundaries, so a sharded
    run killed mid-level is resumed by the *batch* engine (see
    ``build_reachability_graph(resume=...)``).  The coordinator itself
    always starts fresh: any stale manifest under the directory is
    superseded.
    """
    if not isinstance(compiled, CompiledNet):
        compiled = CompiledNet.compile(compiled)
    workers = int(workers) if workers else (os.cpu_count() or 1)
    if workers < 1:
        raise VerificationError(
            "sharded exploration needs at least one worker, got {}".format(
                workers))
    if workers > 127:
        raise VerificationError(
            "sharded exploration supports at most 127 workers")
    if memo_size is None:
        memo_size = _DEFAULT_MEMO
    memo_size = max(0, int(memo_size))
    if chunk_states is None:
        chunk_states = int(os.environ.get("REPRO_SHARD_CHUNK",
                                          _DEFAULT_CHUNK))
    initial = marking if marking is not None else compiled.net.initial_marking()
    initial_state = compiled.encode(initial)

    context = mp_context()
    forked = context.get_start_method() == "fork"
    tables = _ShardTables(compiled)
    connections = []
    processes = []
    for worker_id in range(workers):
        parent_end, child_end = context.Pipe()
        inherited = connections + [parent_end] if forked else []
        process = context.Process(
            target=_shard_worker_main,
            args=(child_end, tables, worker_id, workers, memo_size,
                  chunk_states, batch, inherited), daemon=True)
        process.start()
        child_end.close()
        connections.append(parent_end)
        processes.append(process)
    sender = _Sender(connections)
    completed = False
    try:
        graph = _drive(compiled, initial_state, max_states, workers,
                       connections, sender, memo_size, spill, checkpoint)
        completed = True
        return graph
    finally:
        if not completed:
            # Abort path (overflow, worker death, any mid-level error):
            # workers may be blocked writing into full pipes, and the sender
            # thread may be blocked writing towards them -- a blocking QUIT
            # from here would deadlock.  Kill the workers first; the broken
            # pipes then unblock the sender thread too.
            for process in processes:
                process.terminate()
        sender.close()
        for connection in connections:
            try:
                connection.send_bytes(bytes([_MSG_QUIT]))
            except (BrokenPipeError, OSError):
                pass
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for connection in connections:
            connection.close()


def _recv(connections, worker):
    try:
        return connections[worker].recv_bytes()
    except (EOFError, OSError):
        raise VerificationError(
            "sharded exploration worker {} died mid-level".format(worker))


class _ListMerger:
    """Coordinator admission/merge state on Python lists (no NumPy).

    Accumulates the classic :class:`CompiledReachabilityGraph` one edge
    list at a time, exactly as the pre-columnar coordinator did -- the
    fallback when the NumPy extra is unavailable.
    """

    def __init__(self, compiled, initial_state, max_states, workers,
                 memo_size, spill=None, checkpoint=None):
        self.workers = workers
        self.max_states = max_states
        self.memo_size = memo_size
        self.row_width = _state_row_width(len(compiled.place_names))
        self.graph = CompiledReachabilityGraph(compiled, initial_state)
        self.truncated = False
        # The initial state's edge list is not pre-created: edge lists are
        # appended by the merge phase in discovery order, starting with the
        # initial state itself when level 0's expansion is merged.
        self.graph._mask_states.append(initial_state)
        self.graph._parents.append(None)
        self.owner_seq = []
        self.next_owner_seq = []
        self.assignments = []

    def seed(self, owner):
        self.owner_seq = [owner]

    def record_checkpoint(self, levels):
        """Checkpointing needs the columnar merger; a no-op on lists."""

    def load_reports(self, reports):
        workers = self.workers
        counts = {}
        edge_streams = {}
        resolution_streams = {}
        candidates = []
        pending_counts = [0] * workers
        for worker, sections in reports.items():
            counts[worker] = array("H")
            counts[worker].frombytes(sections[0])
            edge_streams[worker] = array("q")
            edge_streams[worker].frombytes(sections[1])
            streams = []
            for requester in range(workers):
                stream = array("q")
                stream.frombytes(sections[2 + requester])
                streams.append(stream)
            resolution_streams[worker] = streams
            provenance = array("Q")
            provenance.frombytes(sections[2 + workers])
            pending_counts[worker] = len(provenance)
            for pending_id, value in enumerate(provenance):
                candidates.append((value, worker, pending_id))
        self.counts = counts
        self.edge_streams = edge_streams
        self.resolution_streams = resolution_streams
        self.candidates = candidates
        self.pending_counts = pending_counts
        self.candidate_states = {worker: reports[worker][3 + workers]
                                 for worker in reports}

    def admit(self):
        # Sorting by provenance reproduces the exact order the sequential
        # BFS first reaches each new state, so indices, parents and the
        # truncation cut-off all match bit for bit.  The provenance int
        # *is* the packed parent pointer the graph stores.
        states = self.graph._mask_states
        states_append = states.append
        parents_append = self.graph._parents.append
        from_bytes = int.from_bytes
        row_width = self.row_width
        candidate_states = self.candidate_states
        candidates = self.candidates
        candidates.sort()
        rejected = array("q", [-1])
        assignments = [rejected * self.pending_counts[worker]
                       for worker in range(self.workers)]
        next_owner_seq = []
        next_owner_append = next_owner_seq.append
        index = len(states)
        for provenance, worker, pending_id in candidates:
            if index >= self.max_states:
                self.truncated = True
                break
            assignments[worker][pending_id] = index
            index += 1
            encoded = candidate_states[worker]
            states_append(from_bytes(
                encoded[pending_id * row_width:
                        (pending_id + 1) * row_width], "little"))
            parents_append(provenance)
            next_owner_append(worker)
        self.assignments = assignments
        self.next_owner_seq = next_owner_seq
        return len(next_owner_seq)

    def assignment_payload(self, worker):
        return self.assignments[worker].tobytes()

    def merge(self):
        # Merge the edge streams in global discovery order, consuming each
        # shard's resolution streams to finalise references.  Edge lists
        # are created here, not at admission: states are merged in exactly
        # the order they were admitted, so plain appends keep ``edges``
        # aligned with ``states``.  While consuming foreign references the
        # coordinator records their final resolutions per requester -- the
        # memo feedback returned to the caller (one payload per worker;
        # empty payloads are not sent).
        workers = self.workers
        graph = self.graph
        edges = graph._mask_edges
        edges_append = edges.append
        frontier_add = graph._frontier_indices.add
        counts = self.counts
        edge_streams = self.edge_streams
        resolution_streams = self.resolution_streams
        assignments = self.assignments
        positions = {worker: 0 for worker in counts}
        edge_cursors = {worker: 0 for worker in counts}
        requester_cursors = [[0] * workers for _ in range(workers)]
        requester_streams = [
            [resolution_streams[owner][worker] for owner in range(workers)]
            for worker in range(workers)
        ]
        feedback = ([array("q") for _ in range(workers)]
                    if self.memo_size else None)
        for worker in self.owner_seq:
            position = positions[worker]
            edge_count = counts[worker][position]
            positions[worker] = position + 1
            cursor = edge_cursors[worker]
            chunk_end = cursor + edge_count
            chunk = edge_streams[worker][cursor:chunk_end]
            edge_cursors[worker] = chunk_end
            cursors = requester_cursors[worker]
            streams = requester_streams[worker]
            current_edges = []
            current_edges_append = current_edges.append
            complete = True
            for value in chunk:
                if value >= 0:
                    current_edges_append(value)
                    continue
                key = -value - 1
                owner = key >> 16
                offset = cursors[owner]
                cursors[owner] = offset + 1
                resolved = streams[owner][offset]
                if resolved < 0:
                    resolved = assignments[owner][-resolved - 1]
                    if resolved < 0:
                        complete = False
                        if feedback is not None and owner != worker:
                            feedback[worker].append(-1)
                        continue
                if feedback is not None and owner != worker:
                    feedback[worker].append(resolved)
                current_edges_append((key & 0xFFFF) | (resolved << 16))
            if not complete:
                frontier_add(len(edges))
            edges_append(current_edges)
        if feedback is None:
            return None
        return [payload.tobytes() for payload in feedback]

    def advance(self):
        self.owner_seq = self.next_owner_seq

    def finish(self, exchange_stats, timing):
        graph = self.graph
        graph.truncated = self.truncated
        graph.exchange_stats = exchange_stats
        graph.exploration_stats = {
            "engine": "sharded",
            "levels": exchange_stats["levels"],
            "states": len(graph._mask_states),
            "edges": sum(len(edge_list) for edge_list in graph._mask_edges),
            "phases": dict(timing),
            "spill": {"enabled": False, "spilled": False,
                      "budget_bytes": None, "directory": None,
                      "write_bytes": 0, "read_bytes": 0, "files": 0},
        }
        return graph

    def abort(self):
        pass


class _ColumnarMerger:
    """Coordinator admission/merge directly into columnar spillable arrays.

    Builds the same :class:`~repro.petri.batch.ColumnarReachabilityGraph`
    as ``explore_batch`` straight out of the workers' report streams,
    instead of accumulating Python lists: admission is one provenance
    argsort (bit-identical to the sequential discovery order -- each
    candidate's provenance is its packed first-discovery edge, unique
    within a level), and the per-state merge becomes one vectorised
    resolve + scatter per reporting worker.  Every array lives in an
    :class:`~repro.petri.storage.ArrayStore` behind one
    :class:`~repro.petri.storage.SpillPool`, so sharded graphs larger
    than the spill budget stream onto disk exactly like batch ones.
    """

    def __init__(self, compiled, initial_state, max_states, workers,
                 memo_size, spill=None, checkpoint=None):
        import numpy
        from repro.petri.batch import (
            ColumnarReachabilityGraph,
            WordTables,
            _group_arange,
            checkpoint_identity,
        )
        from repro.petri.storage import (
            ArrayStore,
            Checkpoint,
            MANIFEST_NAME,
            SpillConfig,
            SpillPool,
        )
        self._np = numpy
        self._group_arange = _group_arange
        self._array_store = ArrayStore
        self.workers = workers
        self.max_states = max_states
        self.memo_size = memo_size
        self.tables = WordTables(compiled)
        self.word_count = self.tables.words
        self.graph = ColumnarReachabilityGraph(compiled, self.tables,
                                               initial_state)
        if spill is None:
            spill = SpillConfig.resolve()
        self.checkpoint_dir = str(checkpoint) if checkpoint else None
        self.pool = SpillPool(spill, label="sharded",
                              named_dir=self.checkpoint_dir)
        if self.checkpoint_dir is not None:
            # The coordinator always starts fresh: a stale manifest (from
            # an older run of any identity) must not outlive the stores it
            # described, which the fresh ArrayStores truncate below.
            try:
                os.remove(os.path.join(self.checkpoint_dir, MANIFEST_NAME))
            except OSError:
                pass
        self.words = ArrayStore(self.pool, "words", numpy.uint64,
                                columns=self.word_count)
        self.parents = ArrayStore(self.pool, "parents", numpy.int64)
        self.edges = ArrayStore(self.pool, "edges", numpy.int64)
        self.counts_store = ArrayStore(self.pool, "counts", numpy.int64)
        self.frontier = ArrayStore(self.pool, "frontier", numpy.int64)
        self.checkpointer = None
        if self.checkpoint_dir is not None:
            self.checkpointer = Checkpoint(
                self.checkpoint_dir,
                {"words": self.words, "parents": self.parents,
                 "edges": self.edges, "counts": self.counts_store,
                 "frontier": self.frontier},
                checkpoint_identity(compiled, initial_state, max_states))
        self.truncated = False
        self.total = 1
        self.words.append(self.tables.encode_rows([initial_state]))
        self.parents.append(numpy.full(1, -1, dtype=numpy.int64))
        self.owner_seq = numpy.empty(0, dtype=numpy.int64)
        self.next_owner_seq = self.owner_seq
        #: Global index of the first state of ``owner_seq``'s level.
        self.merge_base = 0
        self.next_merge_base = 1
        self.assignments = []

    def seed(self, owner):
        self.owner_seq = self._np.full(1, owner, dtype=self._np.int64)
        self.merge_base = 0

    def load_reports(self, reports):
        np = self._np
        workers = self.workers
        self.counts = {}
        self.edge_streams = {}
        self.resolution_streams = {}
        self.cand_provenance = {}
        self.cand_rows = {}
        for worker, sections in reports.items():
            self.counts[worker] = np.frombuffer(
                bytes(sections[0]), dtype="<u2").astype(np.int64)
            self.edge_streams[worker] = np.frombuffer(
                bytes(sections[1]), dtype="<i8")
            self.resolution_streams[worker] = [
                np.frombuffer(bytes(sections[2 + requester]), dtype="<i8")
                for requester in range(workers)]
            # Provenance fits in int64 (parent index << 16 | transition),
            # and sorting signed matches unsigned on non-negative values.
            self.cand_provenance[worker] = np.frombuffer(
                bytes(sections[2 + workers]), dtype="<u8").astype(np.int64)
            self.cand_rows[worker] = np.frombuffer(
                bytes(sections[3 + workers]),
                dtype="<u8").reshape(-1, self.word_count).astype(np.uint64)

    def admit(self):
        np = self._np
        base = self.total
        parts_provenance = []
        parts_worker = []
        parts_pending = []
        for worker in range(self.workers):
            provenance = self.cand_provenance.get(worker)
            if provenance is None or not len(provenance):
                continue
            parts_provenance.append(provenance)
            parts_worker.append(np.full(len(provenance), worker,
                                        dtype=np.int64))
            parts_pending.append(np.arange(len(provenance), dtype=np.int64))
        if not parts_provenance:
            self.assignments = [np.empty(0, dtype=np.int64)
                                for _ in range(self.workers)]
            self.next_owner_seq = np.empty(0, dtype=np.int64)
            self.next_merge_base = base
            return 0
        provenance_all = np.concatenate(parts_provenance)
        worker_all = np.concatenate(parts_worker)
        pending_all = np.concatenate(parts_pending)
        # Provenance values are unique across the level (one candidate per
        # first-discovery edge), so this argsort reproduces both the
        # sequential BFS discovery order and the list merger's
        # (provenance, worker, pending) tuple sort; ``stable`` keeps the
        # tuple tie-break exact even if a duplicate ever slipped through.
        order = np.argsort(provenance_all, kind="stable")
        capacity = max(0, self.max_states - base)
        if len(order) > capacity:
            self.truncated = True
            order = order[:capacity]
        admitted_worker = worker_all[order]
        admitted_pending = pending_all[order]
        self.parents.append(provenance_all[order])
        rows = np.empty((len(order), self.word_count), dtype=np.uint64)
        global_index = base + np.arange(len(order), dtype=np.int64)
        assignments = []
        for worker in range(self.workers):
            pending_count = len(self.cand_provenance.get(worker, ()))
            assignment = np.full(pending_count, -1, dtype=np.int64)
            mine = np.flatnonzero(admitted_worker == worker)
            if len(mine):
                assignment[admitted_pending[mine]] = global_index[mine]
                rows[mine] = self.cand_rows[worker][admitted_pending[mine]]
            assignments.append(assignment)
        self.words.append(rows)
        self.total = base + len(order)
        self.assignments = assignments
        self.next_owner_seq = admitted_worker
        self.next_merge_base = base
        return int(len(order))

    def assignment_payload(self, worker):
        return self.assignments[worker].tobytes()

    def merge(self):
        # The vectorised phase-4: per reporting worker, resolve its
        # negative references through the owners' resolution streams
        # (consumed strictly front-to-back -- the FIFO pipes and in-order
        # expansion guarantee stream order matches reference order), drop
        # rejected edges (their sources join the frontier), then scatter
        # each worker's kept edges into the level's global discovery-order
        # slots in one fancy-indexed assignment.
        np = self._np
        owner_arr = self.owner_seq
        level_size = len(owner_arr)
        level_counts = np.zeros(level_size, dtype=np.int64)
        worker_positions = {}
        worker_edges = {}
        feedback = [b""] * self.workers if self.memo_size else None
        frontier_parts = []
        for worker, stream in self.edge_streams.items():
            positions = np.flatnonzero(owner_arr == worker)
            if not len(positions):
                continue
            counts = self.counts[worker]
            negatives = np.flatnonzero(stream < 0)
            if len(negatives):
                keys = -stream[negatives] - 1
                ref_owner = keys >> 16
                resolved = np.empty(len(keys), dtype=np.int64)
                for owner in np.unique(ref_owner).tolist():
                    refs = ref_owner == owner
                    ref_count = int(refs.sum())
                    stream_o = self.resolution_streams[owner][worker]
                    if ref_count > len(stream_o):
                        raise VerificationError(
                            "sharded exploration shard {} resolved fewer "
                            "references than worker {} issued".format(
                                owner, worker))
                    values = stream_o[:ref_count].astype(np.int64)
                    pending = values < 0
                    if pending.any():
                        values[pending] = self.assignments[owner][
                            -values[pending] - 1]
                    resolved[refs] = values
                if feedback is not None:
                    foreign = ref_owner != worker
                    if foreign.any():
                        feedback[worker] = resolved[foreign].tobytes()
                filled = stream.astype(np.int64)  # writable copy
                filled[negatives] = (keys & 0xFFFF) | (resolved << 16)
                rejected = resolved < 0
                if rejected.any():
                    keep = np.ones(len(stream), dtype=bool)
                    keep[negatives[rejected]] = False
                    segment = np.repeat(
                        np.arange(len(counts), dtype=np.int64), counts)
                    dropped = np.bincount(segment[negatives[rejected]],
                                          minlength=len(counts))
                    counts = counts - dropped
                    frontier_parts.append(
                        self.merge_base + positions[np.flatnonzero(dropped)])
                    filled = filled[keep]
            else:
                filled = stream
            level_counts[positions] = counts
            worker_positions[worker] = (positions, counts)
            worker_edges[worker] = filled
        level_offsets = np.zeros(level_size + 1, dtype=np.int64)
        np.cumsum(level_counts, out=level_offsets[1:])
        level_edges = np.empty(int(level_offsets[-1]), dtype=np.int64)
        for worker, (positions, counts) in worker_positions.items():
            source = worker_edges[worker]
            if not len(source):
                continue
            destination = (np.repeat(level_offsets[positions], counts)
                           + self._group_arange(counts))
            level_edges[destination] = source
        self.edges.append(level_edges)
        self.counts_store.append(level_counts)
        if frontier_parts:
            self.frontier.append(np.sort(np.concatenate(frontier_parts)))
        return feedback

    def advance(self):
        self.owner_seq = self.next_owner_seq
        self.merge_base = self.next_merge_base
        # Stream the merged level out of memory (see SpillPool.drop_resident).
        self.pool.drop_resident()

    def record_checkpoint(self, levels):
        """Manifest the just-merged level (the same layout as batch)."""
        if self.checkpointer is None:
            return
        self.checkpointer.record_level({
            "levels": int(levels),
            "total": int(self.total),
            "truncated": bool(self.truncated),
            "level_start": int(self.merge_base),
        })

    def finish(self, exchange_stats, timing):
        np = self._np
        graph = self.graph
        pool = self.pool
        total = self.total
        graph._words = self.words.trim()
        graph._parents_arr = self.parents.trim()
        graph._edge_data = self.edges.trim()
        # Every admitted state is merged by the following level's merge
        # (the final, empty-admission level included), so the counts store
        # covers all states; the CSR offsets are one cumulative sum.
        counted = len(self.counts_store)
        offsets = self._array_store(pool, "offsets", np.int64)
        offsets.set_length(total + 1)
        offsets_view = offsets.data
        offsets_view[0] = 0
        if counted:
            np.cumsum(self.counts_store.data, out=offsets_view[1:counted + 1])
        if counted < total:
            offsets_view[counted + 1:] = offsets_view[counted]
        self.counts_store.release()
        graph._edge_offsets = offsets.trim()
        graph._frontier_arr = self.frontier.trim()
        # The key index only accelerates lookups (it is not part of the
        # bit-identical contract), so it is built once here rather than
        # merged level by level: key every stored row in chunks, then one
        # argsort -- the same index the batch engine builds, so one lookup
        # serves both.  The argsort's O(states) temporaries are the only
        # above-frontier RAM this path allocates.
        tables = self.tables
        keys_store = self._array_store(pool, "sorted-keys", np.uint64)
        keys_store.set_length(total)
        keys_view = keys_store.data
        chunk = 1 << 16
        words_view = graph._words
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            keys_view[start:stop] = tables.key_hashes(
                tables.key_rows(words_view[start:stop]))
        order = np.argsort(keys_view, kind="stable").astype(np.int64)
        keys_view[:] = keys_view[order]
        idx_store = self._array_store(pool, "sorted-idx", np.int64)
        idx_store.append(order)
        graph._sorted_keys = keys_store.trim()
        graph._sorted_idx = idx_store.trim()
        graph.truncated = self.truncated
        graph._spill_pool = pool
        if self.checkpointer is not None:
            # Completed: nothing left to resume from, nothing left on disk.
            self.checkpointer.discard()
            pool.discard_checkpoint_files()
        graph.exchange_stats = exchange_stats
        graph.exploration_stats = {
            "engine": "sharded",
            "levels": exchange_stats["levels"],
            "states": total,
            "edges": int(len(graph._edge_data)),
            "phases": dict(timing),
            "spill": pool.stats(),
            "checkpoint": {"directory": self.checkpoint_dir,
                           "resumed_from_level": None},
        }
        return graph

    def abort(self):
        self.pool.close()


def _drive(compiled, initial_state, max_states, workers, connections, sender,
           memo_size, spill=None, checkpoint=None):
    from time import perf_counter

    #: Per-phase second counters, attached as ``exploration_stats``
    #: ``phases``: wait (receiving/relaying), admit (phase 2), merge
    #: (phase 4).
    timing = {"wait": 0.0, "admit": 0.0, "merge": 0.0}

    place_names = compiled.place_names
    transition_names = compiled.transition_names
    row_width = _state_row_width(len(place_names))

    merger_class = _ListMerger
    try:
        from repro.petri.batch import numpy_available
        if numpy_available():
            merger_class = _ColumnarMerger
    except ImportError:  # pragma: no cover - batch always importable
        pass
    merger = merger_class(compiled, initial_state, max_states, workers,
                          memo_size, spill, checkpoint)
    exchange_stats = {"memo_hits": 0, "foreign_refs": 0, "levels": 0,
                      "chunk_messages": 0}

    try:
        # Level 0: seed the owning shard; everyone else gets empty
        # assignments.
        owner = shard_of(initial_state, workers)
        merger.seed(owner)
        sender.send(owner, bytes([_MSG_SEED])
                    + initial_state.to_bytes(row_width, "little"))
        for worker in range(workers):
            if worker != owner:
                sender.send(worker, bytes([_MSG_ASSIGN]))

        while True:
            exchange_stats["levels"] += 1
            # Phase 1: collect successor chunks as workers expand, relaying
            # each chunk to the shard that owns its states as soon as it
            # arrives (the workers resolve them while still expanding).
            phase_started = perf_counter()
            waiting = set(range(workers))
            reports = {}
            while waiting:
                for connection in connection_wait(
                        [connections[w] for w in waiting], timeout=1.0):
                    worker = connections.index(connection)
                    message = _recv(connections, worker)
                    kind = message[0]
                    if kind == _MSG_OVERFLOW:
                        raise SafenessOverflowError(
                            transition_names[message[1] | (message[2] << 8)],
                            place_names[message[3] | (message[4] << 8)])
                    if kind == _MSG_CHUNK:
                        exchange_stats["chunk_messages"] += 1
                        final = message[1]
                        batches = _unpack_sections(memoryview(message), 2)
                        for destination in range(workers):
                            if destination == worker:
                                continue
                            payload = batches[destination]
                            # Empty non-final chunks carry no information;
                            # the final marker must reach every peer
                            # regardless.
                            if final or len(payload):
                                sender.send(destination,
                                            bytes([_MSG_RELAY, worker, final])
                                            + bytes(payload))
                    elif kind == _MSG_REPORT:
                        reports[worker] = _unpack_sections(
                            memoryview(message), 1)
                        waiting.discard(worker)
                    else:
                        raise VerificationError(
                            "coordinator received unexpected message "
                            "{!r}".format(kind))
                if sender.error is not None:
                    raise VerificationError(
                        "sharded exploration dispatch failed: {}".format(
                            sender.error))
            for worker, sections in reports.items():
                report_stats = array("Q")
                report_stats.frombytes(sections[4 + workers])
                exchange_stats["memo_hits"] += report_stats[0]
                exchange_stats["foreign_refs"] += report_stats[1]
            merger.load_reports(reports)
            timing["wait"] += perf_counter() - phase_started
            phase_started = perf_counter()

            # Phase 2: admission (provenance-sorted; see the mergers).
            admitted = merger.admit()
            timing["admit"] += perf_counter() - phase_started

            # Phase 3: broadcast the assignments immediately -- the workers
            # start expanding the next level while the coordinator is still
            # merging this level's edge streams below.  When nothing was
            # admitted the exploration is over; the workers are left
            # waiting for assignments and the caller's shutdown message is
            # the next thing they see (the final merge below still runs).
            finished = not admitted
            if not finished:
                for worker in range(workers):
                    sender.send(worker, bytes([_MSG_ASSIGN])
                                + merger.assignment_payload(worker))
            phase_started = perf_counter()

            # Phase 4: merge the level's edge streams into the graph.  The
            # memo feedback pairs positionally with each worker's shipped
            # list; workers only push a shipped list when it is non-empty,
            # so empty feedback is not sent (and none is after the final
            # level).
            feedback = merger.merge()
            if feedback is not None and not finished:
                for worker in range(workers):
                    payload = feedback[worker]
                    if len(payload):
                        sender.send(worker, bytes([_MSG_MEMO]) + payload)
            timing["merge"] += perf_counter() - phase_started
            if finished:
                break
            merger.advance()
            # Fault point of the crash-recovery tier: firing here leaves
            # the merged level's rows on disk but unmanifested, the torn
            # state a mid-level SIGKILL of the coordinator produces.
            if _faults.trigger("kill_worker", "level"):
                import signal
                os.kill(os.getpid(), signal.SIGKILL)
            merger.record_checkpoint(exchange_stats["levels"])

        return merger.finish(exchange_stats, timing)
    except BaseException:
        # Exploration died mid-level: release the merger's stores (and
        # spill-file handles) now instead of waiting for collection.
        merger.abort()
        raise
