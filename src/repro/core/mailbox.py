"""The YGM mailbox: the paper's central abstraction (Section IV).

A :class:`Mailbox` is created with a receive callback and a message
capacity.  User code queues messages with ``send`` / ``send_bcast`` (or
the vectorized ``send_batch``); when the mailbox is full the rank enters
its *communication context* -- it flushes all coalescing buffers along the
routing scheme's next hops and processes every packet that has already
arrived (delivering to the callback, forwarding intermediary traffic) --
then drops back into computation, regardless of what other ranks are
doing.  ``wait_empty`` runs the termination-detection protocol until all
ranks are globally quiescent.

Conventions:

* methods that can block or take simulated time are generators -- drive
  them with ``yield from`` inside the rank program;
* receive callbacks are plain functions; to emit messages from inside a
  callback use the nonblocking ``post`` / ``post_bcast`` (the surrounding
  communication context flushes them).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

import numpy as np

from ..mpi.envelope import HEADER_BYTES, Packet
from ..mpi.sizes import payload_nbytes, payload_nbytes_many
from ..serde import RecordSpec
from .coalescing import (
    BatchEntry,
    BcastEntry,
    CoalescingBuffer,
    ListPool,
    P2PColumns,
)
from .config import MailboxConfig
from .stats import MailboxStats
from .termination import TerminationDetector


class Mailbox:
    """An asynchronous mailbox over a routing scheme.

    Created through :meth:`repro.core.context.YgmContext.mailbox`; all
    ranks must create their mailboxes in the same order (like MPI
    communicator construction).
    """

    def __init__(
        self,
        ctx,  # YgmContext
        recv: Optional[Callable[[Any], None]] = None,
        recv_batch: Optional[Callable[[np.ndarray], None]] = None,
        recv_bcast: Optional[Callable[[Any], None]] = None,
        config: Optional[MailboxConfig] = None,
        mailbox_id: int = 0,
    ):
        if recv is None and recv_batch is None and recv_bcast is None:
            raise ValueError("a mailbox needs at least one receive callback")
        self.ctx = ctx
        self.comm = ctx.comm
        self.rank = ctx.rank
        self.scheme = ctx.scheme
        self.config = config or MailboxConfig()
        self.recv = recv
        self.recv_batch = recv_batch
        self.recv_bcast = recv_bcast if recv_bcast is not None else recv
        self.stats = MailboxStats()

        self._app_kind = ("ygm", mailbox_id, "app")
        self._term_kind = ("ygm", mailbox_id, "term")
        inbox = ctx.world.inboxes[ctx.world_rank]
        self._app_store = inbox.subscribe(self.comm.ctx, self._app_kind)
        self._term_store = inbox.subscribe(self.comm.ctx, self._term_kind)

        self._buffers: Dict[int, CoalescingBuffer] = {}
        #: The causal profiler (:mod:`repro.trace.profile`) when the
        #: installed tracer has ``profile=True``, else ``None``.  Cached
        #: here so every lineage hook on the hot path is a single
        #: attribute load plus an identity check -- the same cost shape
        #: as the event-trace hooks.
        tracer = ctx.sim.tracer
        self._prof = tracer.lineage if tracer is not None else None
        #: Recycles handled packets' entry lists into fresh buffers.
        self._pool = ListPool()
        #: In-network combining algebra (``None`` = pure re-binning).
        self._combiner = self.config.combiner
        self._queued = 0  # messages across all buffers
        self._pending_handle_cost = 0.0
        #: Forwards deferred while a mixed columnar run delivers (see
        #: :meth:`_handle_packet`): the run's columns plus the indices
        #: of not-yet-binned forwards.  Any post from inside a receive
        #: callback flushes them first, preserving buffer order.
        self._deferred_cols = None
        self._deferred_idx: List[int] = []
        self._lane = f"rank {ctx.world_rank}"  # trace lane label
        #: Completed quiescence epochs (wait_empty/test_empty returning done).
        self._epoch = 0
        self._term = TerminationDetector(
            rank=self.rank,
            size=self.comm.size,
            get_counts=lambda: (self.stats.entries_sent, self.stats.entries_received),
            send=self._send_term,
        )

    # ------------------------------------------------------------------ sends
    def post(self, dest: int, payload: Any, nbytes: Optional[int] = None) -> None:
        """Queue a point-to-point message without entering communication.

        Safe to call from receive callbacks.  Messages to self are
        delivered immediately (they never touch the transport).
        """
        if self._deferred_idx:
            self._flush_deferred()
        if not 0 <= dest < self.comm.size:
            raise ValueError(f"destination {dest} out of range [0, {self.comm.size})")
        self.stats.app_messages_sent += 1
        prof = self._prof
        if dest == self.rank:
            if prof is not None:
                self._deliver_p2p(
                    payload,
                    prof.new_message(self.rank, dest, self.ctx.sim.now),
                )
            else:
                self._deliver_p2p(payload)
            return
        size = payload_nbytes(payload, nbytes)
        hop = self.scheme.next_hop(self.rank, dest)
        lid = None
        if prof is not None:
            t = self.ctx.sim.now
            lid = prof.new_message(self.rank, dest, t)
            prof.enqueue(lid, self.rank, hop, t)
        # The message joins the buffer's open columnar run; no
        # per-message entry object exists.
        self._buffer_for(hop).add_p2p(dest, payload, size, lid)
        self._queued += 1

    def send(self, dest: int, payload: Any, nbytes: Optional[int] = None) -> Generator:
        """Queue a message; enter the communication context if full."""
        self.post(dest, payload, nbytes=nbytes)
        yield from self._maybe_communicate()

    def post_many(
        self,
        dests,
        payloads,
        nbytes=None,
    ) -> None:
        """Queue many scalar messages at once (a vectorized ``post``).

        ``dests[i]`` is the destination rank of ``payloads[i]`` (a
        sequence of arbitrary payload values); ``nbytes`` optionally
        supplies the wire sizes (one int for all, or a parallel array).
        Unlike ``post_batch`` this does not require fixed-width records:
        the payloads ride the pipeline as an object column and only
        materialise per message at the receive callback.  Self-addressed
        messages are delivered immediately, in index order, before the
        remainder is binned by next hop.
        """
        if self._deferred_idx:
            self._flush_deferred()
        dests = np.asarray(dests, dtype=np.int64)
        n = len(dests)
        if n != len(payloads):
            raise ValueError(
                f"dests ({n}) and payloads ({len(payloads)}) lengths differ"
            )
        if n == 0:
            return
        if dests.min() < 0 or dests.max() >= self.comm.size:
            raise ValueError(f"destination rank out of range [0, {self.comm.size})")
        self.stats.app_messages_sent += n
        sizes = payload_nbytes_many(payloads, nbytes)
        # ``fromiter`` with object dtype stores the caller's exact
        # objects (no str/array conversion) in one C loop.
        cols = np.fromiter(payloads, dtype=object, count=n)
        prof = self._prof
        lins = None
        if prof is not None:
            lins = prof.new_batch(self.rank, dests, self.ctx.sim.now)
        here = dests == self.rank
        if here.any():
            self._deliver_p2p_run(cols[here], None if lins is None else lins[here])
            keep = ~here
            dests = dests[keep]
            cols = cols[keep]
            sizes = sizes[keep]
            if lins is not None:
                lins = lins[keep]
            if len(dests) == 0:
                return
        self._bin_columns(dests, cols, sizes, lins, at_injection=True)

    def send_many(self, dests, payloads, nbytes=None) -> Generator:
        """Vectorized scalar send; may enter the communication context."""
        self.post_many(dests, payloads, nbytes=nbytes)
        yield from self._maybe_communicate()

    def post_bcast(self, payload: Any, nbytes: Optional[int] = None) -> None:
        """Queue a broadcast to every other rank (callback-safe)."""
        if self._deferred_idx:
            self._flush_deferred()
        self.stats.bcasts_initiated += 1
        size = payload_nbytes(payload, nbytes)
        prof = self._prof
        for target in self.scheme.bcast_targets(self.rank, self.rank):
            if prof is not None:
                t = self.ctx.sim.now
                lid = prof.new_message(self.rank, target, t, kind="bcast")
                prof.enqueue(lid, self.rank, target, t)
                self._buffer_for(target).add(
                    BcastEntry(self.rank, payload, size, lid)
                )
            else:
                self._buffer_for(target).add(BcastEntry(self.rank, payload, size))
            self._queued += 1

    def send_bcast(self, payload: Any, nbytes: Optional[int] = None) -> Generator:
        """Broadcast to all other ranks (paper's SEND_BCAST)."""
        self.post_bcast(payload, nbytes=nbytes)
        yield from self._maybe_communicate()

    def post_batch(self, dests: np.ndarray, batch: np.ndarray, spec: Optional[RecordSpec] = None) -> None:
        """Queue a batch of fixed-width records, binned by next hop.

        ``dests[i]`` is the destination rank of record ``batch[i]``.
        This is the vectorized fast path (cf. mpi4py's buffer methods):
        per-message Python overhead is eliminated and intermediaries
        re-bin with NumPy.
        """
        if self._deferred_idx:
            self._flush_deferred()
        if spec is not None:
            spec.validate(batch)
        dests = np.asarray(dests, dtype=np.int64)
        if dests.shape != (len(batch),):
            raise ValueError("dests and batch must be equal-length 1-D arrays")
        if len(dests) == 0:
            return
        if dests.min() < 0 or dests.max() >= self.comm.size:
            raise ValueError("destination rank out of range in batch")
        self.stats.app_messages_sent += len(dests)
        prof = self._prof
        lins = None
        if prof is not None:
            lins = prof.new_batch(self.rank, dests, self.ctx.sim.now)
        self._bin_batch(dests, batch, at_injection=True, lins=lins)

    def send_batch(self, dests: np.ndarray, batch: np.ndarray, spec: Optional[RecordSpec] = None) -> Generator:
        """Vectorized send; may enter the communication context."""
        self.post_batch(dests, batch, spec=spec)
        yield from self._maybe_communicate()

    # -------------------------------------------------------------- internals
    def _buffer_for(self, hop: int) -> CoalescingBuffer:
        buf = self._buffers.get(hop)
        if buf is None:
            buf = CoalescingBuffer(hop, pool=self._pool)
            self._buffers[hop] = buf
        return buf

    def _bin_batch(
        self,
        dests: np.ndarray,
        batch: np.ndarray,
        at_injection: bool,
        lins: Optional[np.ndarray] = None,
    ) -> None:
        """Deliver self-addressed records, bin the rest by next hop.

        ``at_injection`` distinguishes freshly posted batches from batches
        re-binned at a routing intermediary: only the latter count toward
        ``stats.entries_forwarded``.  ``lins`` is the parallel lineage-id
        array when the causal profiler is enabled; it is masked, reordered
        and sliced in lock-step with ``dests``.

        When the mailbox has a :class:`~repro.core.routing.combiner.
        Combiner`, equal-``(dest, key)`` records collapse here -- at
        injection and again at every forwarding hop -- *before* they are
        counted as forwarded or queued for re-transmission (in-network
        combining).  Merged-away records end their lineage at this rank;
        they are tallied in ``stats.entries_combined``.
        """
        here = dests == self.rank
        if here.any():
            self._deliver_batch(batch[here], None if lins is None else lins[here])
            dests = dests[~here]
            batch = batch[~here]
            if lins is not None:
                lins = lins[~here]
            if len(dests) == 0:
                return
        comb = self._combiner
        if comb is not None and len(dests) > 1:
            dests, batch, lins, eliminated = comb.combine(dests, batch, lins)
            self.stats.entries_combined += eliminated
        if not at_injection:
            self.stats.entries_forwarded += len(dests)
        hops, order, starts, ends = self.scheme.bin_by_hop(self.rank, dests)
        if order is not None:
            dests = dests[order]
            batch = batch[order]
            if lins is not None:
                lins = lins[order]
        for s, e in zip(starts.tolist(), ends.tolist()):
            hop = int(hops[s])
            seg_lins = None if lins is None else lins[s:e]
            if seg_lins is not None:
                self._prof.enqueue_batch(seg_lins, self.rank, hop, self.ctx.sim.now)
            entry = BatchEntry(dests[s:e], batch[s:e], seg_lins)
            self._buffer_for(hop).add(entry)
            self._queued += entry.count

    def _bin_columns(
        self,
        dests: np.ndarray,
        payloads: np.ndarray,
        sizes: np.ndarray,
        lins: Optional[np.ndarray],
        at_injection: bool,
    ) -> None:
        """Bin a columnar scalar-message run by next hop.

        The struct-of-arrays twin of :meth:`_bin_batch`: the whole run is
        regrouped with one vectorized routing call plus one stable sort
        (skipped when all destinations share a hop); no per-message
        Python objects are created.  ``at_injection`` has the same
        meaning as in :meth:`_bin_batch`.
        """
        if not at_injection:
            self.stats.entries_forwarded += len(dests)
        hops, order, starts, ends = self.scheme.bin_by_hop(self.rank, dests)
        if order is not None:
            dests = dests[order]
            payloads = payloads[order]
            sizes = sizes[order]
            if lins is not None:
                lins = lins[order]
        prof = self._prof
        for s, e in zip(starts.tolist(), ends.tolist()):
            hop = int(hops[s])
            seg_lins = None if lins is None else lins[s:e]
            if seg_lins is not None:
                prof.enqueue_batch(seg_lins, self.rank, hop, self.ctx.sim.now)
            self._buffer_for(hop).add_columns(
                P2PColumns(dests[s:e], payloads[s:e], sizes[s:e], seg_lins)
            )
            self._queued += e - s

    def _maybe_communicate(self) -> Generator:
        if self._queued >= self.config.capacity:
            yield from self.flush()
            yield from self.progress()

    # --------------------------------------------------------------- flushing
    @property
    def queued(self) -> int:
        """Messages currently buffered (not yet flushed)."""
        return self._queued

    @property
    def has_incoming(self) -> bool:
        return len(self._app_store) > 0

    def flush(self) -> Generator:
        """Send every nonempty coalescing buffer along its next hop."""
        if self._queued == 0:
            return
        tracer = self.ctx.sim.tracer
        trace = tracer is not None and tracer.wants("mailbox")
        started = self.ctx.sim.now
        messages = self._queued
        self.stats.flushes += 1
        compute = self.ctx.machine.config.compute
        prof = self._prof
        # Per-message packing cost, charged in bulk.
        pack_cost = self._queued * compute.per_message_queue
        if pack_cost > 0:
            yield self.ctx.sim.timeout(pack_cost)
            if prof is not None:
                prof.span(self.ctx.world_rank, "serialize", started, self.ctx.sim.now)
        # Deterministic hop order.
        packets = 0
        for hop in sorted(self._buffers):
            buf = self._buffers[hop]
            if not buf:
                continue
            entries, nbytes, count = buf.take()
            self._queued -= count
            if self._combiner is not None and len(entries) > 1:
                entries, nbytes, count = self._merge_batch_entries(
                    entries, nbytes, count
                )
            packets += 1
            yield from self._send_packet(hop, entries, nbytes, count, pack_cost)
        if trace:
            tracer.complete(
                started, self.ctx.sim.now - started, "mailbox", "flush",
                self._lane, messages=messages, packets=packets,
            )

    def _merge_batch_entries(self, entries: List[Any], nbytes: int, count: int):
        """Combine across a buffer's batch entries at flush time.

        Records binned by *separate* ``post_batch`` calls (or separate
        forwarded packets) land in separate :class:`BatchEntry` chunks of
        the same coalescing buffer; per-chunk combining in
        :meth:`_bin_batch` cannot see across them.  One more combining
        pass over the whole buffer catches those duplicates just before
        the packet goes out.  Only applies when every entry is a batch
        chunk of one record dtype (the invariable case for a combined
        mailbox); the post-merge ``(entries, nbytes, count)`` keep
        ``entries_sent == entries_received`` balanced because
        :meth:`_send_packet` sees only the merged view.
        """
        first = entries[0]
        if first.kind != "batch":
            return entries, nbytes, count
        dtype = first.batch.dtype
        for entry in entries[1:]:
            if entry.kind != "batch" or entry.batch.dtype != dtype:
                return entries, nbytes, count
        dests = np.concatenate([e.dests for e in entries])
        batch = np.concatenate([e.batch for e in entries])
        lins = None
        if all(e.lins is not None for e in entries):
            lins = np.concatenate([e.lins for e in entries])
        dests, batch, lins, eliminated = self._combiner.combine(dests, batch, lins)
        if eliminated == 0:
            return entries, nbytes, count
        self.stats.entries_combined += eliminated
        merged = BatchEntry(dests, batch, lins)
        return [merged], merged.wire_bytes, merged.count

    def _send_packet(
        self, hop: int, entries: List[Any], nbytes: int, count: int,
        serialize: float = 0.0,
    ) -> Generator:
        self.stats.entries_sent += count
        dst_w = self.comm.world_rank_of(hop)
        local = self.ctx.machine.same_node(self.ctx.world_rank, dst_w)
        if local:
            self.stats.local_packets_sent += 1
            self.stats.local_bytes_sent += nbytes
        else:
            self.stats.remote_packets_sent += 1
            self.stats.remote_bytes_sent += nbytes
        prof = self._prof
        pid = None
        if prof is not None:
            pid = prof.packet_out(
                self.ctx.world_rank, dst_w, nbytes + HEADER_BYTES, count,
                self.ctx.sim.now, serialize, entries,
            )
        if local and self.scheme.free_local_hops:
            # Hybrid MPI+threads model (Section VII): on-node hand-off is a
            # pointer exchange -- no copy cost, immediate delivery.
            pkt = Packet(
                src=self.ctx.world_rank, dst=dst_w, ctx=self.comm.ctx,
                kind=self._app_kind, tag=0, payload=entries,
                nbytes=nbytes + HEADER_BYTES, lin=pid,
            )
            if pid is not None:
                prof.packet_free_local(pid, self.ctx.sim.now)
            self.ctx.world.inboxes[dst_w].deliver(pkt)
            return
        if pid is None:
            yield from self.comm.send(
                hop, entries, tag=0, nbytes=nbytes, kind=self._app_kind
            )
        else:
            t0 = self.ctx.sim.now
            yield from self.comm.send(
                hop, entries, tag=0, nbytes=nbytes, kind=self._app_kind, lin=pid
            )
            prof.span(self.ctx.world_rank, "nic", t0, self.ctx.sim.now)

    # -------------------------------------------------------------- receiving
    def progress(self) -> Generator:
        """Process all already-arrived packets; returns packets handled.

        Forwarded (intermediary) traffic generated while processing is
        flushed before returning, so a rank sitting in its communication
        context keeps the routes moving.
        """
        handled = 0
        while True:
            pkt = self._app_store.try_get()
            if pkt is None:
                break
            yield from self._handle_packet(pkt)
            handled += 1
        self._drain_term()
        if handled and self._queued:
            # Forwarding may have enqueued follow-on packets.
            yield from self.flush()
        yield from self._charge_pending_handles()
        return handled

    def _handle_packet(self, pkt: Packet) -> Generator:
        forwarded_before = self.stats.entries_forwarded
        stats = self.stats
        rank = self.rank
        prof = self._prof
        for entry in pkt.payload:
            kind = entry.kind
            if kind == "p2p_cols":
                stats.entries_received += entry.count
                dests = entry.dests
                here = dests == rank
                if here.all():
                    # Terminal hop for the whole run (the common case on
                    # every scheme's last hop): deliver in column order.
                    self._deliver_p2p_run(entry.payloads, entry.lins)
                elif not here.any():
                    # Pure intermediary: re-bin the whole run vectorized.
                    self._bin_columns(
                        dests, entry.payloads, entry.nbytes, entry.lins,
                        at_injection=False,
                    )
                else:
                    self._handle_mixed_run(entry, here)
            elif kind == "batch":
                # Forwarding is accounted inside _bin_batch (counting the
                # re-binned records directly); inferring it from delivery
                # deltas would mis-count when a receive callback posts
                # additional self-addressed messages.
                self.stats.entries_received += entry.count
                self._bin_batch(
                    entry.dests, entry.batch, at_injection=False,
                    lins=entry.lins,
                )
            elif kind == "bcast":
                self.stats.entries_received += 1
                self._deliver_bcast(entry.payload, entry.lin)
                for target in self.scheme.bcast_targets(self.rank, entry.origin):
                    child = None
                    if prof is not None:
                        t = self.ctx.sim.now
                        child = prof.new_message(
                            rank, target, t, kind="bcast", parent=entry.lin
                        )
                        prof.enqueue(child, rank, target, t)
                    self._buffer_for(target).add(
                        BcastEntry(entry.origin, entry.payload, entry.nbytes, child)
                    )
                    self._queued += 1
                    self.stats.entries_forwarded += 1
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown entry kind {kind!r}")
        # The packet's entry list is dead from here on; recycle it into
        # this mailbox's coalescing buffers.
        self._pool.put(pkt.payload)
        forwarded = self.stats.entries_forwarded - forwarded_before
        if forwarded:
            tracer = self.ctx.sim.tracer
            if tracer is not None and tracer.wants("mailbox"):
                tracer.instant(
                    self.ctx.sim.now, "mailbox", "forward", self._lane,
                    entries=forwarded,
                )
        yield from self._charge_pending_handles()

    def _handle_mixed_run(self, entry: P2PColumns, here: np.ndarray) -> None:
        """Handle a columnar run mixing terminal deliveries and forwards.

        Deliveries run per message (the handler boundary); forwards are
        *deferred* -- only their column indices accumulate -- and re-bin
        in one vectorized call afterwards.  The deferral is what keeps
        the interleaving bit-identical to the frozen per-entry reference
        (``tests/core/reference_object_mailbox.py``): a receive
        callback may post follow-on messages whose buffer position
        depends on the deliver-vs-forward order, so every ``post*``
        entry point first flushes the forwards deferred *so far*
        (:meth:`_flush_deferred`), landing them in the buffers before
        the callback's own message exactly as a per-entry walk would.
        When callbacks post nothing -- the common case -- the whole
        forward set is binned once at the end.
        """
        recv = self.recv
        if recv is None:
            raise RuntimeError("mailbox has no scalar receive callback")
        plist = entry.payloads.tolist()  # the objects themselves, unboxed once
        lins = entry.lins
        n_here = int(here.sum())
        self.stats.app_messages_delivered += n_here
        self._pending_handle_cost += (
            n_here * self.ctx.machine.config.compute.per_message_handle
        )
        self._deferred_cols = entry
        idx = self._deferred_idx
        append = idx.append
        prof = self._prof
        if prof is None or lins is None:
            for i, h in enumerate(here.tolist()):
                if h:
                    recv(plist[i])
                else:
                    append(i)
        else:
            # Callbacks are plain functions (no yields): simulated time
            # cannot advance inside the loop.
            now = self.ctx.sim.now
            rank = self.rank
            llist = lins.tolist()
            prev = prof.cause
            try:
                for i, h in enumerate(here.tolist()):
                    if h:
                        lin = llist[i]
                        prof.delivered(lin, rank, now)
                        prof.cause = lin
                        recv(plist[i])
                    else:
                        append(i)
            finally:
                prof.cause = prev
        self._flush_deferred()
        self._deferred_cols = None

    def _flush_deferred(self) -> None:
        """Re-bin the forwards deferred by :meth:`_handle_mixed_run`."""
        idx = self._deferred_idx
        if not idx:
            return
        entry = self._deferred_cols
        take = np.asarray(idx, dtype=np.int64)
        idx.clear()
        lins = entry.lins
        self._bin_columns(
            entry.dests[take],
            entry.payloads[take],
            entry.nbytes[take],
            None if lins is None else lins[take],
            at_injection=False,
        )

    def _deliver_p2p(self, payload: Any, lin=None) -> None:
        self.stats.app_messages_delivered += 1
        self._pending_handle_cost += self.ctx.machine.config.compute.per_message_handle
        if self.recv is None:
            raise RuntimeError("mailbox has no scalar receive callback")
        prof = self._prof
        if prof is None or lin is None:
            self.recv(payload)
            return
        # Messages posted from inside the callback are caused by this one.
        prof.delivered(lin, self.rank, self.ctx.sim.now)
        prev, prof.cause = prof.cause, lin
        try:
            self.recv(payload)
        finally:
            prof.cause = prev

    def _deliver_p2p_run(
        self, payloads: np.ndarray, lins: Optional[np.ndarray] = None
    ) -> None:
        """Deliver a columnar run of scalar messages (handler boundary).

        Stats and handler cost accrue in bulk; the receive callback (and
        the per-message causal bookkeeping, identical to
        :meth:`_deliver_p2p`) still runs once per message -- this is
        where the columns materialise back into Python values.
        """
        n = len(payloads)
        if n == 0:
            return
        self.stats.app_messages_delivered += n
        self._pending_handle_cost += (
            n * self.ctx.machine.config.compute.per_message_handle
        )
        recv = self.recv
        if recv is None:
            raise RuntimeError("mailbox has no scalar receive callback")
        prof = self._prof
        # ``tolist`` hands back the column's objects unchanged; looping a
        # plain list beats per-element ndarray indexing.
        plist = payloads.tolist() if isinstance(payloads, np.ndarray) else payloads
        if prof is None or lins is None:
            for payload in plist:
                recv(payload)
            return
        # Callbacks are plain functions (no yields), so simulated time
        # cannot advance inside the loop.
        now = self.ctx.sim.now
        rank = self.rank
        prev = prof.cause
        try:
            for payload, lin in zip(plist, lins.tolist()):
                prof.delivered(lin, rank, now)
                prof.cause = lin
                recv(payload)
        finally:
            prof.cause = prev

    def _deliver_batch(self, batch: np.ndarray, lins: Optional[np.ndarray] = None) -> None:
        n = len(batch)
        if n == 0:
            return
        self.stats.app_messages_delivered += n
        self._pending_handle_cost += (
            n * self.ctx.machine.config.compute.per_message_handle
        )
        prof = self._prof
        if prof is not None and lins is not None:
            prof.delivered_batch(lins, self.rank, self.ctx.sim.now)
            # A whole batch is handled by one callback invocation; charge
            # follow-on messages to its first member (the causal DAG keeps
            # one representative edge rather than a fan-in of n).
            prev, prof.cause = prof.cause, int(lins[0])
        else:
            prof = None
        try:
            if self.recv_batch is not None:
                self.recv_batch(batch)
            elif self.recv is not None:
                for item in batch:
                    self.recv(item)
            else:
                raise RuntimeError("mailbox has no batch receive callback")
        finally:
            if prof is not None:
                prof.cause = prev

    def _deliver_bcast(self, payload: Any, lin=None) -> None:
        self.stats.bcast_deliveries += 1
        self._pending_handle_cost += self.ctx.machine.config.compute.per_message_handle
        if self.recv_bcast is None:
            raise RuntimeError("mailbox has no broadcast receive callback")
        prof = self._prof
        if prof is None or lin is None:
            self.recv_bcast(payload)
            return
        prof.delivered(lin, self.rank, self.ctx.sim.now)
        prev, prof.cause = prof.cause, lin
        try:
            self.recv_bcast(payload)
        finally:
            prof.cause = prev

    def _charge_pending_handles(self) -> Generator:
        if self._pending_handle_cost > 0:
            cost, self._pending_handle_cost = self._pending_handle_cost, 0.0
            t0 = self.ctx.sim.now
            yield self.ctx.sim.timeout(cost)
            if self._prof is not None:
                self._prof.span(self.ctx.world_rank, "handler", t0, self.ctx.sim.now)

    # ------------------------------------------------------------ termination
    def _send_term(self, dest: int, payload, tag) -> Generator:
        yield from self.comm.send(dest, payload, tag=tag, kind=self._term_kind)

    def _drain_term(self) -> None:
        while True:
            pkt = self._term_store.try_get()
            if pkt is None:
                return
            self._term.on_packet(pkt.tag, pkt.payload)

    def _advance_term(self) -> Generator:
        """Drive the detector; trace any rounds completed by this call."""
        rounds_before = self._term.rounds_completed
        t0 = self.ctx.sim.now
        progressed = yield from self._term.advance()
        if self._prof is not None:
            self._prof.span(self.ctx.world_rank, "term", t0, self.ctx.sim.now)
        completed = self._term.rounds_completed - rounds_before
        if completed:
            tracer = self.ctx.sim.tracer
            if tracer is not None and tracer.wants("mailbox"):
                tracer.instant(
                    self.ctx.sim.now, "mailbox", "term_round", self._lane,
                    completed=completed, epoch_rounds=self._term.rounds_completed,
                )
        return progressed

    def wait_empty(self) -> Generator:
        """Block until global quiescence (paper's WAIT_EMPTY).

        Flushes everything, keeps processing and forwarding application
        traffic, and participates in termination-detection rounds until
        the protocol declares the whole job quiescent.
        """
        if self._term.done:
            self._term.reset()
        while True:
            yield from self.flush()
            handled = yield from self.progress()
            if handled or self._queued:
                continue
            self._drain_term()
            progressed = yield from self._advance_term()
            if self._term.done:
                self.stats.term_rounds += self._term.rounds_completed
                self._trace_quiescent()
                return
            if progressed:
                continue
            yield from self._wait_any_traffic()

    def test_empty(self) -> Generator:
        """Nonblocking completion poll (paper's TEST_EMPTY).

        Flushes, processes available traffic, advances the termination
        protocol as far as possible without waiting, and returns whether
        global quiescence has been detected.  Like :meth:`wait_empty`,
        a call after a completed epoch re-arms the detector and begins a
        fresh quiescence epoch.
        """
        if self._term.done:
            self._term.reset()
        yield from self.flush()
        yield from self.progress()
        self._drain_term()
        yield from self._advance_term()
        if self._term.done:
            self.stats.term_rounds += self._term.rounds_completed
            self._trace_quiescent()
        return self._term.done

    @property
    def term_totals(self):
        """Agreed global ``(sent, received)`` of the last quiescence epoch."""
        return self._term.last_totals

    @property
    def term_contribution(self):
        """This rank's own ``(sent, received)`` sample from the agreed round.

        Partition-composable: summed over every rank of the world (in any
        grouping -- e.g. per PDES partition) it reproduces
        :attr:`term_totals` exactly, which is how the parallel engine
        audits global quiescence without a global detector instance.
        """
        return self._term.last_contribution

    def _trace_quiescent(self) -> None:
        """Record the completion of a quiescence epoch.

        ``term_sent``/``term_received`` are the *protocol's* agreed
        global totals (identical on every rank of the epoch, unlike the
        raw per-rank counters, which keep moving as soon as any rank
        exits the epoch and starts the next phase).
        :class:`repro.check.InvariantChecker` uses the snapshot to prove
        the termination detector never declared quiet while messages
        were still queued or in flight.
        """
        self._epoch += 1
        tracer = self.ctx.sim.tracer
        if tracer is not None and tracer.wants("mailbox"):
            totals = self._term.last_totals or (0, 0)
            tracer.instant(
                self.ctx.sim.now, "mailbox", "quiescent", self._lane,
                mailbox=self._app_kind[1],
                epoch=self._epoch,
                rank=self.rank,
                size=self.comm.size,
                term_sent=totals[0],
                term_received=totals[1],
                entries_sent=self.stats.entries_sent,
                entries_received=self.stats.entries_received,
                queued=self._queued,
            )

    def _wait_any_traffic(self) -> Generator:
        get_app = self._app_store.get()
        get_term = self._term_store.get()
        blocked_at = self.ctx.sim.now
        yield self.ctx.sim.any_of([get_app, get_term])
        idle = self.ctx.sim.now - blocked_at
        self.stats.idle_time += idle
        if self._prof is not None:
            self._prof.span(self.ctx.world_rank, "idle", blocked_at, self.ctx.sim.now)
        tracer = self.ctx.sim.tracer
        if tracer is not None and tracer.wants("mailbox"):
            tracer.complete(blocked_at, idle, "mailbox", "idle", self._lane)
        if get_app.triggered:
            yield from self._handle_packet(get_app.value)
        else:
            get_app.cancel()
        if get_term.triggered:
            pkt = get_term.value
            self._term.on_packet(pkt.tag, pkt.payload)
        else:
            get_term.cancel()
