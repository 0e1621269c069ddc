"""Columnar <-> object boundary equivalence (the PR 6 tentpole pin).

The struct-of-arrays mailbox must be invisible to everything above the
coalescing layer: identical delivered values *and delivery order*,
identical stats and simulated time, and per-message wire sizes
byte-identical to the frozen reference packer.  These tests run the
same workloads through the library mailbox and the frozen
one-object-per-message reference (``reference_object_mailbox.py``)
across every registered routing scheme and diff the results exactly.
"""

import pickle

import numpy as np
import pytest

from repro import YgmWorld
from repro.core.coalescing import (
    ENTRY_HEADER_BYTES,
    BcastEntry,
    CoalescingBuffer,
    P2PColumns,
)
from repro.core.routing import SCHEMES
from repro.machine import small
from repro.mpi.sizes import payload_nbytes_many
from repro.serde import packed_size_many
from tests.core import reference_object_mailbox
from tests.serde import reference_packer

ALL_SCHEMES = list(SCHEMES)

#: A deterministic mixed-payload stream: ints (the vectorized-size fast
#: path), plus strings/tuples/floats/None (the per-element fallback).
def _payloads(n, salt=0):
    out = []
    for i in range(n):
        k = (i + salt) % 6
        if k in (0, 1, 2):
            out.append((i * 2654435761 + salt) % (1 << 40) - (i % 3) * 7)
        elif k == 3:
            out.append(f"m{i}")
        elif k == 4:
            out.append((i, float(i) / 3.0))
        else:
            out.append(None)
    return out


# ------------------------------------------------------------ unit: columns
def test_p2p_columns_accounting():
    dests = np.array([3, 1, 2], dtype=np.int64)
    payloads = np.empty(3, dtype=object)
    payloads[:] = [10, "x", None]
    sizes = np.array([2, 3, 1], dtype=np.int64)
    cols = P2PColumns(dests, payloads, sizes)
    assert cols.kind == "p2p_cols"
    assert cols.count == 3
    assert cols.wire_bytes == 6 + 3 * ENTRY_HEADER_BYTES
    assert cols.lins is None
    with pytest.raises(ValueError, match="lengths differ"):
        P2PColumns(dests, payloads[:2], sizes)


def test_columns_pickle_as_contiguous_buffers():
    """The column layout is what a PDES engine would ship cross-process."""
    buf = CoalescingBuffer(hop=0)
    for i in range(5):
        buf.add_p2p(dest=i % 3, payload=i * 7, nbytes=2)
    entries, nbytes, count = buf.take()
    (cols,) = entries
    assert cols.dests.flags["C_CONTIGUOUS"]
    assert cols.nbytes.flags["C_CONTIGUOUS"]
    clone = pickle.loads(pickle.dumps(cols))
    assert clone.dests.tolist() == cols.dests.tolist()
    assert clone.payloads.tolist() == cols.payloads.tolist()
    assert clone.nbytes.tolist() == cols.nbytes.tolist()


def test_buffer_closes_runs_in_call_order():
    """Scalar runs and whole entries interleave in exact add order."""
    buf = CoalescingBuffer(hop=1)
    buf.add_p2p(0, "a", 2)
    buf.add_p2p(2, "b", 3)
    bc = BcastEntry(origin=0, payload="B", nbytes=4)
    buf.add(bc)
    buf.add_p2p(1, "c", 5)
    entries, nbytes, count = buf.take()
    assert [e.kind for e in entries] == ["p2p_cols", "bcast", "p2p_cols"]
    assert entries[0].payloads.tolist() == ["a", "b"]
    assert entries[2].payloads.tolist() == ["c"]
    assert count == 4
    assert nbytes == (2 + 3 + 4 + 5) + 4 * ENTRY_HEADER_BYTES
    # The drained buffer starts a fresh run.
    buf.add_p2p(0, "d", 1)
    entries2, _, count2 = buf.take()
    assert count2 == 1 and entries2[0].payloads.tolist() == ["d"]


# ------------------------------------------------- wire-byte equivalence
def test_message_sizes_match_frozen_reference_packer():
    payloads = _payloads(64) + [
        0, -1, 2**63 - 1, -(2**63), 2**200, -(2**200), True, False, 127, 128,
    ]
    sizes = payload_nbytes_many(payloads)
    expected = [len(reference_packer.pack(p)) for p in payloads]
    assert sizes.tolist() == expected
    ints = [p for p in payloads if type(p) is int]
    assert packed_size_many(ints).tolist() == [
        len(reference_packer.pack(p)) for p in ints
    ]


# ----------------------------------------------- end-to-end equivalence
def _scalar_workload(msgs, capacity, with_self, with_chain, with_bcast):
    """Scalar sends with optional callback-posted children and bcasts."""

    def rank_main(ctx):
        got = []
        mb_box = []

        def on_recv(v):
            got.append(v)
            if with_chain and isinstance(v, tuple) and v[0] == "ping":
                # Children posted from inside a delivery callback.
                mb_box[0].post((v[1] + 1) % ctx.nranks, ("pong", v[1]))

        mb = ctx.mailbox(recv=on_recv, capacity=capacity)
        mb_box.append(mb)
        n = ctx.nranks
        rank = ctx.rank
        payloads = _payloads(msgs, salt=rank)
        for i, p in enumerate(payloads):
            lo = 0 if with_self else 1
            dest = (rank + lo + i % (n - lo)) % n
            yield from mb.send(dest, p)
        if with_chain and rank == 0:
            yield from mb.send((rank + 1) % n, ("ping", rank))
        if with_bcast:
            yield from mb.send_bcast(("news", rank))
        yield from mb.wait_empty()
        return got

    return rank_main


def _run(scheme, columnar, rank_main, nodes=3, cores=2, seed=0):
    """Run on the library mailbox, or with ``columnar=False`` on the
    frozen object-path reference."""
    world = YgmWorld(
        small(nodes=nodes, cores_per_node=cores),
        scheme=scheme,
        seed=seed,
        mailbox_capacity=2**14,
    )
    if columnar:
        return world.run(rank_main)
    with reference_object_mailbox.installed():
        return world.run(rank_main)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_columnar_and_object_paths_bit_identical(scheme):
    """Same values, same delivery order, same stats, same simulated time."""
    rank_main = _scalar_workload(
        msgs=40, capacity=8, with_self=True, with_chain=True, with_bcast=True
    )
    a = _run(scheme, True, rank_main)
    b = _run(scheme, False, rank_main)
    assert a.values == b.values  # exact per-rank order, not just multisets
    assert a.elapsed == b.elapsed
    assert a.finish_times == b.finish_times
    assert a.mailbox_stats == b.mailbox_stats
    assert a.per_rank_stats == b.per_rank_stats
    assert a.transport == b.transport


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("size", ["empty", "singleton", "max_capacity"])
def test_post_many_boundary_batches(scheme, size):
    """post_many at the boundary shapes, vs the object reference path."""
    capacity = 16

    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=capacity)
        n = {"empty": 0, "singleton": 1, "max_capacity": capacity}[size]
        payloads = _payloads(n, salt=ctx.rank)
        dests = [(ctx.rank + 1 + i) % ctx.nranks for i in range(n)]
        yield from mb.send_many(dests, payloads)
        yield from mb.wait_empty()
        return got

    a = _run(scheme, True, rank_main)
    b = _run(scheme, False, rank_main)
    assert a.values == b.values
    assert a.elapsed == b.elapsed
    assert a.mailbox_stats == b.mailbox_stats
    total = sum(len(v) for v in a.values)
    expected = {"empty": 0, "singleton": 1, "max_capacity": capacity}[size] * 6
    assert total == expected


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_post_many_agrees_with_scalar_post_loop(scheme):
    """send_many and a loop of send produce the same deliveries.

    Without self-addressed destinations the order is exact; the columnar
    injection bins stably, so each hop's column holds the same message
    sequence the scalar loop would have appended.
    """
    msgs = 30

    def many_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=2**14)
        payloads = _payloads(msgs, salt=ctx.rank)
        dests = [(ctx.rank + 1 + i % (ctx.nranks - 1)) % ctx.nranks for i in range(msgs)]
        yield from mb.send_many(dests, payloads)
        yield from mb.wait_empty()
        return got

    def loop_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=2**14)
        payloads = _payloads(msgs, salt=ctx.rank)
        for i, p in enumerate(payloads):
            dest = (ctx.rank + 1 + i % (ctx.nranks - 1)) % ctx.nranks
            yield from mb.send(dest, p)
        yield from mb.wait_empty()
        return got

    a = _run(scheme, True, many_main)
    b = _run(scheme, True, loop_main)
    assert a.values == b.values


def test_reference_run_uses_the_object_path():
    """The differentials above are not vacuous: ``_run(..., False)``
    really builds the frozen reference mailbox."""

    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda v: None)
        yield from mb.wait_empty()
        return type(mb)

    ref = reference_object_mailbox.ReferenceObjectMailbox
    assert set(_run("nlnr", False, rank_main).values) == {ref}
    assert ref not in _run("nlnr", True, rank_main).values


def test_post_many_delivers_self_messages_in_index_order():
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=2**14)
        if ctx.rank == 0:
            yield from mb.send_many([0, 1, 0, 0], ["s0", "r", "s1", "s2"])
        yield from mb.wait_empty()
        return got

    res = _run("noroute", True, rank_main, nodes=2, cores=1)
    assert res.values[0] == ["s0", "s1", "s2"]
    assert res.values[1] == ["r"]


def test_post_many_validates_input():
    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda v: None)
        with pytest.raises(ValueError, match="out of range"):
            mb.post_many([ctx.nranks + 1], ["x"])
        with pytest.raises(ValueError, match="lengths differ"):
            mb.post_many([0, 1], ["x"])
        yield from mb.wait_empty()
        return True

    assert all(_run("nlnr", True, rank_main).values)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_columnar_runs_under_debug_pool(scheme, monkeypatch):
    """End-to-end aliasing audit: the whole pipeline under a poisoning
    ListPool (REPRO_DEBUG_POOL) -- any entry list recycled while still
    referenced would raise at the first touch."""
    monkeypatch.setenv("REPRO_DEBUG_POOL", "1")
    rank_main = _scalar_workload(
        msgs=24, capacity=6, with_self=True, with_chain=True, with_bcast=True
    )
    res = _run(scheme, True, rank_main, nodes=2, cores=2)
    assert sum(len(v) for v in res.values) > 0


def test_columnar_lineage_stays_aligned():
    """With the causal profiler on, every injected message's lineage id
    is delivered exactly once and packet membership covers the columns."""
    from repro.trace import Tracer

    tracer = Tracer(categories=(), profile=True)
    rank_main = _scalar_workload(
        msgs=20, capacity=8, with_self=True, with_chain=True, with_bcast=False
    )
    world = YgmWorld(
        small(nodes=2, cores_per_node=2),
        scheme="nlnr",
        seed=0,
        mailbox_capacity=2**14,
        tracer=tracer,
    )
    world.run(rank_main)
    prof = tracer.lineage
    injected = {lid for lid, *_ in prof.msgs}
    injected.update(
        lid0 + i
        for lid0, _src, dests, _t, _parent in prof.batch_msgs
        for i in range(len(dests))
    )
    delivered = [lid for lid, _rank, _t in prof.deliveries]
    for lids, _rank, _t in prof.batch_deliveries:
        delivered.extend(np.asarray(lids).tolist())
    assert sorted(delivered) == sorted(injected)  # each exactly once
    # Every non-self message appears in at least one packet's membership.
    member_lids = set()
    for members in prof.pkt_members:
        for m in members:
            if isinstance(m, (int, np.integer)):
                member_lids.add(int(m))
            else:
                member_lids.update(np.asarray(m).tolist())
    assert member_lids <= injected


def test_profiled_columnar_run_is_unperturbed():
    """Profiling must not change results or timing of the columnar path."""
    rank_main = _scalar_workload(
        msgs=24, capacity=8, with_self=True, with_chain=True, with_bcast=True
    )

    def run(tracer):
        world = YgmWorld(
            small(nodes=2, cores_per_node=2),
            scheme="node_remote",
            seed=0,
            mailbox_capacity=2**14,
            tracer=tracer,
        )
        return world.run(rank_main)

    from repro.trace import Tracer

    plain = run(None)
    profiled = run(Tracer(categories=(), profile=True))
    assert plain.values == profiled.values
    assert plain.elapsed == profiled.elapsed
