"""The vectorized datapath engine behind the ``ovs-vec`` backend.

Three pieces, each a drop-in specialisation of its reference class:

* :class:`VecSubtable` — a :class:`~repro.ovs.tss.Subtable` that lazily
  maintains a columnar mirror of its packed-entry dict: the packed mask
  as one lane row plus the entries' masked-key lane rows (and the entry
  objects in matching order).  Mutations just mark the mirror dirty;
  the next vectorized scan rebuilds it once, so bulk installs and
  evictions pay one rebuild, not one per entry.

* :class:`VecTupleSpaceSearch` — a :class:`~repro.ovs.tss.
  TupleSpaceSearch` whose :meth:`lookup_batch` resolves the whole burst
  subtable-major in NumPy.  Every megaflow entry (in scan order)
  becomes one *column* of a dense lane-major mirror; the scan walks the
  columns in blocks, computing per (key, column) a single ``uint64``
  fingerprint — the masked key's lanes combined with odd-multiplier
  mixing — and compares it against the column's precomputed entry
  fingerprint.  One ``argmax`` per block claims each key's first
  fingerprint match, an exact lane-by-lane check at the claimed column
  confirms it, and the (astronomically rare) fingerprint collision
  falls back to reference dict probes over just that block's
  subtables, so the answer is always exact.  Resolved keys drop out of
  later blocks exactly where the reference scan would have stopped
  probing.  Each distinct key of a call is scanned once — up to
  ``SCAN_WINDOW`` distinct keys per call, which bounds the scan's
  ``(keys × BLOCK)`` scratch arrays however many duplicates the burst
  carries.  Crediting, accounting, the prefix contract and ranked
  auto-re-sort boundaries then replay the reference consume loop
  folded per distinct key (credits and ``_account`` are pure
  addition, and the ranked burst cap guarantees a resort can only fire
  on the final consumed lookup), so results are bit-identical to the
  scalar scan; the folded hits ride along on the returned
  :class:`BurstResults` for aggregate-only callers.
  Configurations the packed mirror cannot serve (staged lookup, the
  per-scan-resorting ``"hits"`` order, tuple key mode), bursts too
  small to amortise the NumPy overhead, and tuple spaces holding many
  entries per subtable all fall back to the inherited implementation —
  same results either way.

* :class:`VecSwitch` — an :class:`~repro.ovs.switch.OvsSwitch` whose
  batch pipeline fronts the EMC with a vectorized membership probe over
  a columnar exact-match store (:class:`VecEmcStore`).  The probe is a
  conservative superset of the cache's residents, so a negative proves
  a miss: those keys skip the per-key Python probe entirely (paying
  only the lookup-counter tick a certain miss would), while possible
  residents take the reference path.  Everything that *mutates* —
  upcalls, revalidator sweeps, install guards, EMC inserts and their
  RNG draws — is replayed through the inherited reference code on the
  gathered misses, which is what keeps the engine byte-for-byte
  identical to ``ovs``.  When the EMC cannot store (insertion
  probability 0) there is nothing to probe: the burst takes the
  inherited pipeline as one run, whose aggregate-only mode books each
  distinct key's hits once — a tick that replays a covert lap several
  times scans and books each covert key once.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.ovs.microflow import MicroflowCache
from repro.ovs.switch import BatchResult, OvsSwitch
from repro.ovs.tss import (
    BurstResults,
    Subtable,
    TssLookupResult,
    TupleSpaceSearch,
)
from repro.vec import require_numpy
from repro.vec.columnar import LaneCodec

np = require_numpy("the ovs-vec datapath engine")

#: odd multiplier (the golden-ratio constant) mixing the lanes of the
#: scan fingerprint: plain XOR folding cancels when two lanes carry the
#: same difference pattern — which the covert stream's correlated field
#: counters produce *structurally* — while multiplied lanes only
#: collide with hash probability (and the exact re-check keeps even
#: that harmless)
_FOLD_MULT = 0x9E3779B97F4A7C15


class VecSubtable(Subtable):
    """A subtable carrying a lazily-rebuilt columnar mirror.

    ``vec_lanes`` holds every entry's masked key as one ``(n, lanes)``
    ``uint64`` row, ``vec_entries`` the entry objects in that order and
    ``vec_mask`` the packed mask as one lane row.  ``vec_dirty`` is
    flipped by every mutation; the scan rebuilds on first use after.
    """

    __slots__ = ("vec_lanes", "vec_entries", "vec_mask", "vec_dirty")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vec_lanes = None
        self.vec_entries: list = []
        self.vec_mask = None
        self.vec_dirty = True

    def insert(self, masked_values, entry) -> None:
        super().insert(masked_values, entry)
        self.vec_dirty = True

    def remove(self, masked_values) -> None:
        super().remove(masked_values)
        self.vec_dirty = True

    def vec_mirror(self, codec: LaneCodec):
        """The (entry_lanes, entries, mask_row) mirror, rebuilt if stale."""
        if self.vec_dirty or self.vec_lanes is None:
            self.vec_lanes = codec.encode_ints(list(self.entries_packed))
            self.vec_entries = list(self.entries_packed.values())
            assert self.packed_mask is not None
            self.vec_mask = codec.encode_int(self.packed_mask)
            self.vec_dirty = False
        return self.vec_lanes, self.vec_entries, self.vec_mask


class VecTupleSpaceSearch(TupleSpaceSearch):
    """Tuple space search with a NumPy-columnar burst lookup."""

    subtable_cls = VecSubtable

    #: below this many keys the scalar scan wins on constant factors
    #: (also keeps ranked resort-capped stubs off the dense path);
    #: results are identical either way
    VEC_MIN_BATCH = 16
    #: average entries per subtable above which the dense mirror is not
    #: built (the burst falls back to the scalar scan).  The attack
    #: regime this engine accelerates is the opposite corner: thousands
    #: of subtables with a handful of megaflows each
    DENSE_MAX_ENTRIES = 4
    #: entry columns scanned per block — small enough that every
    #: per-lane pass stays on a cache-friendly contiguous buffer
    BLOCK = 96
    #: distinct keys one dense scan resolves at most: it bounds the
    #: ``(keys × BLOCK)`` scratch arrays however many duplicates a
    #: burst carries
    SCAN_WINDOW = 1024

    def __init__(
        self,
        space: FieldSpace,
        staged: bool = False,
        scan_order: str = "insertion",
        key_mode: str = "packed",
        resort_interval: int = 0,
        codec: LaneCodec | None = None,
    ) -> None:
        super().__init__(
            space,
            staged=staged,
            scan_order=scan_order,
            key_mode=key_mode,
            resort_interval=resort_interval,
        )
        self.codec = codec or LaneCodec(space)
        #: (table ids, ...columnar arrays) — see :meth:`_dense_mirror`
        self._dense_cache = None

    # -- the dense entry-column mirror --------------------------------------

    def _dense_mirror(self, tables):
        """Dense lane-major arrays over ``tables``' entries in scan order.

        Every entry becomes one column ``c``: ``mask_T[l, c]`` is lane
        ``l`` of its subtable's mask, ``ent_T[l, c]`` lane ``l`` of the
        entry's masked key, ``fent[c]`` the mixed fingerprint of the
        entry's lanes (the scan's comparison target), ``entry_flat[c]``
        the entry object and ``sub_of[c]`` the index of its subtable in
        ``tables``.  A key matches at most one entry per subtable (the
        reference keys its dict by masked value), so the first matching
        column is also the first matching subtable.  ``fold_lanes``
        lists the lanes some mask actually constrains — all-wildcarded
        lanes contribute nothing to any masked key, so the fingerprint
        skips them (the exact per-lane confirmation still checks
        everything) — and ``mults[i]`` the mixing multiplier applied to
        ``fold_lanes[i]``.  Returns ``None`` when entries average more
        than ``DENSE_MAX_ENTRIES`` per subtable.  Cached until a
        subtable mutates or the scan order changes.
        """
        ids = tuple(map(id, tables))
        cache = self._dense_cache
        if (
            cache is not None
            and cache[0] == ids
            and not any(table.vec_dirty for table in tables)
        ):
            return cache[1:]
        n_cols = sum(len(table.entries_packed) for table in tables)
        if n_cols > self.DENSE_MAX_ENTRIES * len(tables):
            self._dense_cache = None
            return None
        codec = self.codec
        n_lanes = codec.lanes
        mask_t = np.empty((n_lanes, n_cols), dtype=np.uint64)
        ent_t = np.empty((n_lanes, n_cols), dtype=np.uint64)
        entry_flat: list = []
        sub_of: list[int] = []
        col = 0
        for s, table in enumerate(tables):
            entry_lanes, entries, mask_row = table.vec_mirror(codec)
            count = len(entries)
            if not count:
                continue
            mask_t[:, col:col + count] = mask_row[:, None]
            ent_t[:, col:col + count] = entry_lanes.T
            entry_flat.extend(entries)
            sub_of.extend([s] * count)
            col += count
        fold_lanes = [l for l in range(n_lanes) if mask_t[l].any()] or [0]
        mults = np.array(
            [pow(_FOLD_MULT, i, 1 << 64) for i in range(len(fold_lanes))],
            dtype=np.uint64,
        )
        fent = ent_t[fold_lanes[0]].copy()
        for i, lane in enumerate(fold_lanes[1:], start=1):
            fent ^= ent_t[lane] * mults[i]
        self._dense_cache = (
            ids, mask_t, ent_t, fent, fold_lanes, mults, entry_flat, sub_of,
            n_cols,
        )
        return self._dense_cache[1:]

    # -- the vectorized burst lookup ----------------------------------------

    def _scratch(self, rows: int):
        """The per-block work arrays of one dense scan: the fingerprint
        accumulator, a lane buffer and the match flags, one row per
        distinct key (so never more than ``SCAN_WINDOW`` rows)."""
        shape = (rows, self.BLOCK)
        return (np.empty(shape, dtype=np.uint64),
                np.empty(shape, dtype=np.uint64),
                np.empty(shape, dtype=bool))

    def lookup_batch(self, keys: Sequence[FlowKey]) -> list[TssLookupResult]:
        """The reference burst contract (prefix of leading hits plus the
        first miss, accounting applied in key order), resolved
        column-major in fingerprint blocks instead of one dict probe
        per key per subtable.  One call scans at most ``SCAN_WINDOW``
        distinct keys (raw keys on the scalar fallback); the prefix
        contract hands the rest back to the caller."""
        window = self.SCAN_WINDOW
        if (
            self.staged
            or self.scan_order == "hits"
            or self.key_mode != "packed"
            or len(keys) < self.VEC_MIN_BATCH
        ):
            # paths the packed columnar mirror cannot serve, or bursts
            # too small to win; the reference handles them (same results)
            return super().lookup_batch(keys[:window])
        limit = len(keys)
        if self.scan_order == "ranked":
            tables = self._ranked_tables()
            if self.resort_interval:
                # identical burst capping to the reference: stop where a
                # sequential caller would hit the auto-re-sort
                limit = min(
                    limit, self.resort_interval - self._lookups_since_resort
                )
        else:
            tables = list(self._subtables.values())
        n_tables = len(tables)
        if not n_tables or limit < self.VEC_MIN_BATCH:
            return super().lookup_batch(keys[:window])
        dense = self._dense_mirror(tables)
        if dense is None:
            return super().lookup_batch(keys[:window])
        mask_t, ent_t, fent, fold_lanes, mults, entry_flat, sub_of, n_cols = \
            dense

        codec = self.codec
        # burst dedup: the scan is pure (all mutation happens in the
        # consume step below), so identical keys in one burst — elephant
        # flows, a covert lap replayed several times per tick — are
        # scanned once and their result shared.  Distinct keys are
        # numbered in first-seen order, a window of raw keys at a time
        # until the scan window overflows; the prefix stops before the
        # first key past it
        uniq: dict[int, int] = {}
        rep: list[int] = []
        for at in range(0, limit, window):
            rep += [uniq.setdefault(key.packed, len(uniq))
                    for key in keys[at:min(at + window, limit)]]
            if len(uniq) > window:
                limit = rep.index(window)
                del rep[limit:]
                break
        uniq_packed = list(uniq)[:window]
        n_uniq = len(uniq_packed)
        lanes = codec.encode_ints(uniq_packed)  # (n_uniq, L)
        n_lanes = codec.lanes
        block = self.BLOCK
        ar = np.arange(n_uniq, dtype=np.intp)
        pending = ar
        u_entry: list = [None] * n_uniq
        u_table: list = [None] * n_uniq
        u_depth = [0] * n_uniq
        fold, buf, eqb = self._scratch(n_uniq)
        for start in range(0, n_cols, block):
            if pending.size == 0:
                break
            width = min(block, n_cols - start)
            stop = start + width
            sub = lanes[pending]  # (P, L)
            n_pending = pending.size
            x = fold[:n_pending, :width]
            b = buf[:n_pending, :width]
            eq = eqb[:n_pending, :width]
            # fingerprint of the masked key per (key, column): lanes
            # are AND-ed with the column's mask, mixed and XOR-combined
            lane0 = fold_lanes[0]
            np.bitwise_and(sub[:, lane0, None], mask_t[lane0, None,
                                                       start:stop], out=x)
            for i, lane in enumerate(fold_lanes[1:], start=1):
                np.bitwise_and(sub[:, lane, None],
                               mask_t[lane, None, start:stop], out=b)
                b *= mults[i]
                np.bitwise_xor(x, b, out=x)
            np.equal(x, fent[None, start:stop], out=eq)
            # claim each key's first fingerprint match in this block,
            # confirm it exactly; no-claim rows have argmax 0 and fail
            # the eq gather, staying pending for the next block
            cols = np.argmax(eq, axis=1)
            claimed = np.nonzero(eq[ar[:n_pending], cols])[0]
            matched = np.zeros(n_pending, dtype=bool)
            if claimed.size:
                at = cols[claimed] + start
                ok = (sub[claimed, 0] & mask_t[0, at]) == ent_t[0, at]
                for lane in range(1, n_lanes):
                    ok &= (
                        sub[claimed, lane] & mask_t[lane, at]
                    ) == ent_t[lane, at]
                good = claimed[ok]
                if good.size:
                    matched[good] = True
                    for u, c in zip(pending[good].tolist(),
                                    (cols[good] + start).tolist()):
                        s = sub_of[c]
                        u_entry[u] = entry_flat[c]
                        u_table[u] = tables[s]
                        u_depth[u] = s + 1
                bad = claimed[~ok]
                if bad.size:
                    # fingerprint collision at the claimed column (it
                    # may shadow a real later match): resolve those few
                    # keys exactly with reference dict probes over this
                    # block's subtables.  A match found in a subtable
                    # straddling the block edge is still this key's
                    # first match — earlier blocks proved everything
                    # before `start` missed (fingerprints never miss a
                    # real match), and any entry of a matching subtable
                    # yields the same (entry, depth)
                    for row in bad.tolist():
                        u = int(pending[row])
                        packed = uniq_packed[u]
                        for s in range(sub_of[start], sub_of[stop - 1] + 1):
                            table = tables[s]
                            entry = table.entries_packed.get(
                                packed & table.packed_mask
                            )
                            if entry is not None:
                                u_entry[u] = entry
                                u_table[u] = table
                                u_depth[u] = s + 1
                                matched[row] = True
                                break
                pending = pending[~matched]
        # consume the leading hits (plus the first miss) in key order.
        # In first-seen numbering the lowest-numbered distinct key
        # without an entry (the scan leaves them pending in ascending
        # order) is the first miss, and the keys before its first
        # occurrence are exactly the distinct keys numbered below it —
        # all hits.  Everything the reference applies per key is
        # addition (hit credits, touches, _account's sums), so it folds
        # per distinct key; per-key order only matters for the ranked
        # auto-resort tick, and the limit cap above guarantees the burst
        # cannot cross a resort boundary before its final consumed
        # lookup — applying the summed tick afterwards fires the same
        # resort at the same lookup count as the reference's per-key
        # calls
        n_hit_keys = int(pending[0]) if pending.size else n_uniq
        n_hits = rep.index(n_hit_keys) if pending.size else limit
        counts = np.bincount(
            np.array(rep[:n_hits], dtype=np.intp), minlength=n_hit_keys
        ).tolist()
        shared: list[TssLookupResult] = []
        hits: list[tuple[TssLookupResult, int]] = []
        scanned = 0
        for u in range(n_hit_keys):
            depth = u_depth[u]
            count = counts[u]
            result = TssLookupResult(u_entry[u], depth, depth)
            shared.append(result)
            hits.append((result, count))
            u_table[u].credit_hits(count)
            scanned += depth * count
        results = BurstResults(map(shared.__getitem__, rep[:n_hits]))
        results.hits = hits
        if n_hits < limit:
            results.append(TssLookupResult(None, n_tables, n_tables))
            scanned += n_tables
        consumed = len(results)
        self.total_lookups += consumed
        self.total_tuples_scanned += scanned
        self.total_hash_probes += scanned
        if self.scan_order == "ranked" and self.resort_interval:
            self._lookups_since_resort += consumed
            if self._lookups_since_resort >= self.resort_interval:
                self.resort()
        return results


class VecEmcStore:
    """A columnar, conservatively-superset mirror of the EMC residents.

    The batch pipeline needs one question answered per key: *could* this
    key be in the exact-match cache?  The store keeps a sorted
    fingerprint array of every key known to have been a resident (the
    base), plus a small overlay set of keys inserted since the base was
    built.  Deletions (evictions, stale purges, flushes) are never
    tracked — they only shrink the cache, so the store stays a superset
    and a negative probe *proves* absence.  Fingerprint collisions are
    harmless for the same reason: they can only turn a certain miss
    into a "maybe", never the reverse.  The base is refolded from the
    live cache when the overlay or the staleness bloat grows past
    bounds, keeping the probe tight without hooking every eviction
    path.
    """

    __slots__ = ("codec", "_fps", "_base_count", "overlay")

    #: overlay entries / stale-bloat slack tolerated before a refold
    REFOLD_SLACK = 64

    def __init__(self, codec: LaneCodec) -> None:
        self.codec = codec
        self._fps = np.empty(0, dtype=np.uint64)
        self._base_count = 0
        #: keys inserted since the base was built (checked per key in
        #: the batch loop — membership here means "possibly resident")
        self.overlay: set[FlowKey] = set()

    def note_insert(self, key: FlowKey) -> None:
        """Record a *stored* EMC insert — supersets never miss one."""
        self.overlay.add(key)

    def reset(self) -> None:
        """Forget everything (the cache was flushed)."""
        self._fps = np.empty(0, dtype=np.uint64)
        self._base_count = 0
        self.overlay.clear()

    def refresh(self, microflow: MicroflowCache) -> None:
        """Refold the base from the live cache when the overlay or the
        deletion bloat has grown past the slack bound."""
        slack = self.REFOLD_SLACK
        if (
            len(self.overlay) <= slack
            and self._base_count <= microflow.occupancy + slack
        ):
            return
        packed = [
            slot.key.packed
            for bucket in microflow._sets
            for slot in bucket
        ]
        fps = self.codec.fold(self.codec.encode_ints(packed))
        fps.sort()
        self._fps = fps
        self._base_count = len(packed)
        self.overlay.clear()

    @property
    def empty(self) -> bool:
        """True when no key can possibly be resident (base and overlay
        both empty) — the caller may skip the probe outright."""
        return self._fps.shape[0] == 0 and not self.overlay

    def probe(self, lanes) -> "np.ndarray":
        """Vectorized maybe-resident probe for a whole batch of key rows
        (the overlay is consulted separately, per key, by the caller)."""
        fps = self._fps
        if fps.shape[0] == 0:
            return np.zeros(lanes.shape[0], dtype=bool)
        query = self.codec.fold(lanes)
        pos = np.searchsorted(fps, query)
        np.minimum(pos, fps.shape[0] - 1, out=pos)
        return fps[pos] == query


class VecSwitch(OvsSwitch):
    """An :class:`OvsSwitch` running the columnar vectorized fast path.

    State, statistics, RNG draws and slow-path behaviour are the
    reference implementation's own — the subclass only changes *how*
    lookups are computed, never what they observe or mutate:

    * the megaflow TSS is swapped (empty, at construction) for a
      :class:`VecTupleSpaceSearch`, so every burst that reaches the
      megaflow layer — including through inherited code paths like
      :meth:`~repro.ovs.switch.OvsSwitch._flush_run` — scans
      column-wise;
    * :meth:`process_batch` pre-probes the EMC vectorized and skips the
      per-key Python probe for keys the store proves absent;
    * keys that miss are gathered into runs and drained through the
      inherited :meth:`~repro.ovs.switch.OvsSwitch._flush_run`, in key
      order.  When the EMC cannot store (:attr:`~repro.ovs.microflow.
      MicroflowCache.can_store`) there is nothing to probe: the burst
      takes the inherited pipeline as one run, each distinct key is
      scanned once per ``SCAN_WINDOW``, and in aggregate-only mode the
      hit bookkeeping — entry touches, subtable credits, switch and
      batch counters — is applied once per distinct key with its
      count.
    """

    #: bursts below this size take the inherited scalar pipeline (the
    #: vectorized probe cannot amortise its setup); results identical
    VEC_MIN_BATCH = 8
    #: no raw-key cap on a chunk: the columnar scan bounds each call at
    #: ``VecTupleSpaceSearch.SCAN_WINDOW`` distinct keys (raw keys on
    #: its scalar fallback) and returns the prefix it resolved, so the
    #: window only ramps back up after an upcall
    MAX_BATCH_WINDOW = sys.maxsize

    def __init__(self, space: FieldSpace = OVS_FIELDS, name: str = "ovs-vec",
                 **kwargs) -> None:
        super().__init__(space=space, name=name, **kwargs)
        codec = LaneCodec(space)
        self._codec = codec
        # swap the (still empty) TSS for the columnar subclass with the
        # same configuration; MegaflowCache reaches it via .tss, so the
        # slow path and revalidator see the swap transparently
        tss = self.megaflow.tss
        self.megaflow.tss = VecTupleSpaceSearch(
            space,
            staged=tss.staged,
            scan_order=tss.scan_order,
            key_mode=tss.key_mode,
            resort_interval=tss.resort_interval,
            codec=codec,
        )
        self._emc_store = VecEmcStore(codec)

    # -- EMC bookkeeping ----------------------------------------------------

    def _note_emc_insert(self, key) -> None:
        # the base pipeline fires this hook exactly when the microflow
        # cache *stored* the key (probabilistic-insertion rejects never
        # create a slot), so the overlay tracks precisely the residents
        # added since the last refold — tight enough that an insertion
        # probability of zero keeps the store empty and every burst on
        # the proven-miss bulk path
        self._emc_store.note_insert(key)

    def invalidate_caches(self) -> None:
        super().invalidate_caches()
        self._emc_store.reset()

    # -- the vectorized batch pipeline --------------------------------------

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = True) -> BatchResult:
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        microflow = self.microflow
        if len(keys) < self.VEC_MIN_BATCH or not microflow.can_store:
            # the inherited pipeline (which still scans the TSS through
            # the vectorized subclass) is cheaper for tiny bursts, and
            # an EMC that cannot store needs no probe at all
            return super().process_batch(keys, now=now, materialize=materialize)
        now = self._advance(now)
        self.revalidator.maybe_sweep(now)
        store = self._emc_store
        store.refresh(microflow)
        overlay = store.overlay
        batch = BatchResult()
        run: list[FlowKey] = []
        run_set: set[FlowKey] = set()
        # a provably-empty store answers every probe "no" — skip even
        # the batch encode (the cold-cache state)
        maybe = None if store.empty else store.probe(
            self._codec.encode_keys(keys)
        )
        if maybe is None or (not overlay and not maybe.any()):
            # the whole burst is proven absent from the EMC (the common
            # shape of a cold covert lap): no key pays a per-key cache
            # probe, runs split only at repeated keys (the EMC could
            # have stored them meanwhile), and the per-packet counter
            # ticks are deferred to one bulk add each — nothing reads
            # them mid-batch, so the exit state is bit-identical to the
            # per-key loop
            certain_misses = 0
            for key in keys:
                # the truthiness guard spares the key hash while the
                # overlay stays empty (it can only gain keys here when
                # a flush's insert actually stores one)
                possible = bool(overlay) and key in overlay
                if run and (
                    key in run_set or (possible and microflow.contains(key))
                ):
                    self._flush_run(run, batch, now, materialize)
                    run.clear()
                    run_set.clear()
                    # the flush may have installed this very key (every
                    # insert lands in the overlay, so the re-check
                    # restores the superset guarantee)
                    possible = possible or (
                        bool(overlay) and key in overlay
                    )
                if possible:
                    entry = microflow.lookup(key, now)
                else:
                    certain_misses += 1
                    entry = None
                if entry is not None:
                    self._finish_microflow_hit(entry, now, batch, materialize)
                else:
                    run.append(key)
                    run_set.add(key)
            self.stats.packets += len(keys)
            microflow.lookups += certain_misses
            if run:
                self._flush_run(run, batch, now, materialize)
            return batch
        # mixed burst: one vectorized flag conversion, then the
        # reference per-key resolve (possible residents must probe the
        # real cache — LRU touches and stale purges are stateful)
        flags = maybe.tolist()
        for i, key in enumerate(keys):
            # the probe is a superset of the residents: a negative
            # proves the key has no slot, live or stale (the overlay
            # catches keys inserted since the probe's snapshot)
            possible = flags[i] or key in overlay
            if run and (
                key in run_set or (possible and microflow.contains(key))
            ):
                self._flush_run(run, batch, now, materialize)
                run.clear()
                run_set.clear()
                # the flush may have inserted this very key (every
                # insert lands in the overlay, so re-checking it is
                # enough to restore the superset guarantee)
                possible = possible or key in overlay
            self.stats.packets += 1
            if possible:
                entry = microflow.lookup(key, now)
            else:
                # a proven miss: the reference lookup would tick the
                # counter, match nothing and mutate nothing
                microflow.lookups += 1
                entry = None
            if entry is not None:
                self._finish_microflow_hit(entry, now, batch, materialize)
            else:
                run.append(key)
                run_set.add(key)
        if run:
            self._flush_run(run, batch, now, materialize)
        return batch

    def __repr__(self) -> str:
        return (
            f"VecSwitch({self.name}: {len(self.table)} rules, "
            f"{self.mask_count} masks, {self.megaflow_count} megaflows, "
            f"{self._codec.lanes} lanes)"
        )
