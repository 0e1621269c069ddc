"""Coalesced batches survive the worker transport (satellite: serialization).

Cross-partition packets are shipped between processes as serde-encoded
batches through shared-memory rings.  Two layers of proof: the batch
entry types round-trip through pickle field-for-field (including the
columnar struct-of-arrays runs and the frozen reference's per-message
entry), and whole runs are bit-identical to serial: a mixed-traffic
workload (scalar p2p + reentrant echo + broadcast + fixed-width record
batches), and traffic whose payloads are instances of a class serde
has never seen, which cross inside the codec's pickled envelope.  (The
ring codec itself is exercised in depth by test_wire.py.)
"""

import pickle

import numpy as np
import pytest

from repro.check.fuzz import quiescence_rank_main
from repro.core.coalescing import BatchEntry, BcastEntry, P2PColumns
from repro.core.context import YgmWorld
from repro.pdes import PdesWorld, assert_equivalent
from tests.core.reference_object_mailbox import P2PEntry


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_p2p_entry_roundtrips():
    e = roundtrip(P2PEntry(dest=5, payload=("x", 3), nbytes=17, lin=9))
    assert (e.kind, e.dest, e.payload, e.nbytes, e.lin) == (
        "p2p", 5, ("x", 3), 17, 9,
    )


def test_bcast_entry_roundtrips():
    e = roundtrip(BcastEntry(origin=2, payload=b"abc", nbytes=3))
    assert (e.kind, e.origin, e.payload, e.nbytes, e.lin) == (
        "bcast", 2, b"abc", 3, None,
    )


def test_batch_entry_roundtrips():
    dtype = np.dtype([("u", np.int64), ("v", np.int64)])
    batch = np.array([(1, 2), (3, 4)], dtype=dtype)
    dests = np.array([6, 7], dtype=np.int64)
    e = roundtrip(BatchEntry(dests, batch))
    assert e.kind == "batch"
    np.testing.assert_array_equal(e.dests, dests)
    np.testing.assert_array_equal(e.batch, batch)
    assert e.batch.dtype == dtype
    assert e.lins is None


def test_p2p_columns_roundtrip_preserves_all_columns_and_derived_fields():
    cols = P2PColumns(
        dests=np.array([1, 2, 3], dtype=np.int64),
        payloads=np.array([("a", 1), None, 42], dtype=object),
        nbytes=np.array([4, 1, 9], dtype=np.int64),
        lins=np.array([10, 11, 12], dtype=np.int64),
    )
    back = roundtrip(cols)
    assert back.kind == "p2p_cols"
    np.testing.assert_array_equal(back.dests, cols.dests)
    assert list(back.payloads) == list(cols.payloads)
    np.testing.assert_array_equal(back.nbytes, cols.nbytes)
    np.testing.assert_array_equal(back.lins, cols.lins)
    assert back.count == 3
    assert back.wire_bytes == cols.wire_bytes


def test_mixed_traffic_crosses_the_transport_bit_identically():
    rank_main = quiescence_rank_main()
    serial = YgmWorld(4, scheme="nlnr", seed=3, cores_per_node=2).run(rank_main)
    engine = PdesWorld(4, scheme="nlnr", seed=3, cores_per_node=2, workers=2)
    parallel = engine.run(rank_main)
    assert_equivalent(parallel, serial)
    # Real batches crossed the transport; the equivalence was not vacuous.
    assert engine.exported_packets > 0


class Unregistered:
    """A payload class serde has never seen (so it cannot size it
    either: senders pass ``nbytes``)."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is Unregistered and other.value == self.value

    def __repr__(self):
        return f"Unregistered({self.value!r})"


def opaque_traffic(ctx):
    got = []
    mb = ctx.mailbox(recv=got.append)
    n = ctx.nranks
    for i in range(6):
        dest = (ctx.rank * 3 + i * 5 + 1) % n
        yield from mb.send(dest, Unregistered((ctx.rank, i)), nbytes=24)
        yield from mb.send(dest, (i, Unregistered(ctx.rank)), nbytes=32)
    yield from mb.send_bcast(Unregistered(("bcast", ctx.rank)), nbytes=16)
    yield from mb.wait_empty()
    return got


@pytest.mark.parametrize("workers", [2, 4])
def test_unregistered_payloads_cross_partitions_bit_identically(workers):
    serial = YgmWorld(8, scheme="nlnr", seed=1, cores_per_node=2).run(
        opaque_traffic
    )
    engine = PdesWorld(8, scheme="nlnr", seed=1, cores_per_node=2, workers=workers)
    parallel = engine.run(opaque_traffic)
    assert_equivalent(parallel, serial)
    assert engine.exported_packets > 0
    assert Unregistered(("bcast", 0)) in parallel.values[1]
