"""Frozen one-object-per-message mailbox: the columnar path's test oracle.

Before the mailbox went columnar, every scalar point-to-point message
rode the pipeline as one :class:`P2PEntry` object -- built in ``post``,
appended to the coalescing buffer, shipped in the packet's entry list and
re-appended unchanged at every forwarding hop.  The library now always
builds columnar runs (:class:`~repro.core.coalescing.P2PColumns`); this
module keeps the object path, verbatim, as the reference the columnar
differentials (``tests/core/test_columnar.py``) diff against, in the same
spirit as ``tests/serde/reference_packer.py`` for the serde packer.

:class:`ReferenceObjectMailbox` overrides only ``post``, ``post_many``
and ``_handle_packet``; swap it in for a run with :func:`installed`,
which monkeypatches the class :class:`~repro.core.context.YgmContext`
constructs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Generator, Optional

import numpy as np
import pytest

from repro.core import context
from repro.core.coalescing import ENTRY_HEADER_BYTES, BcastEntry
from repro.core.mailbox import Mailbox
from repro.mpi.envelope import Packet
from repro.mpi.sizes import payload_nbytes, payload_nbytes_many


class P2PEntry:
    """One buffered point-to-point message.

    ``lin`` is the message's lineage id when the causal profiler is
    enabled (:mod:`repro.trace.profile`), ``None`` otherwise; it rides
    along through forwarding hops at no simulated cost.
    """

    __slots__ = ("dest", "payload", "nbytes", "lin")
    kind = "p2p"

    def __init__(self, dest: int, payload: Any, nbytes: int, lin=None):
        self.dest = dest
        self.payload = payload
        self.nbytes = nbytes
        self.lin = lin

    @property
    def count(self) -> int:
        return 1

    @property
    def wire_bytes(self) -> int:
        return self.nbytes + ENTRY_HEADER_BYTES


class ReferenceObjectMailbox(Mailbox):
    """A :class:`~repro.core.mailbox.Mailbox` on the object path."""

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
        self._buffer_for(hop).add(P2PEntry(dest, payload, size, lid))
        self._queued += 1

    def post_many(self, dests, payloads, nbytes=None) -> None:
        """Queue many scalar messages: semantically a loop of ``post``."""
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
        # Reference (one-object-per-message) path: semantically a
        # loop of ``post``; sizes resolve identically either way.
        sizes = payload_nbytes_many(payloads, nbytes)
        for i in range(n):
            self.post(int(dests[i]), payloads[i], nbytes=int(sizes[i]))

    def _handle_packet(self, pkt: Packet) -> Generator:
        forwarded_before = self.stats.entries_forwarded
        stats = self.stats
        rank = self.rank
        prof = self._prof
        for entry in pkt.payload:
            kind = entry.kind
            if kind == "p2p":
                stats.entries_received += 1
                if entry.dest == rank:
                    self._deliver_p2p(entry.payload, entry.lin)
                else:
                    stats.entries_forwarded += 1
                    hop = self.scheme.next_hop(rank, entry.dest)
                    if prof is not None and entry.lin is not None:
                        prof.enqueue(entry.lin, rank, hop, self.ctx.sim.now)
                    self._buffer_for(hop).add(entry)
                    self._queued += 1
            elif kind == "p2p_cols":
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


@contextmanager
def installed():
    """Run every mailbox created inside the block on the object path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context, "Mailbox", ReferenceObjectMailbox)
        yield

