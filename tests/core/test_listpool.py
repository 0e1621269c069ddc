"""Tests for the coalescing-buffer list pool (flush-path allocation reuse)."""

from repro.core.coalescing import CoalescingBuffer, ListPool
from tests.core.reference_object_mailbox import P2PEntry


def _entry(dest=0, nbytes=4):
    return P2PEntry(dest, payload=None, nbytes=nbytes)


def test_pool_recycles_lists():
    pool = ListPool()
    lst = pool.get()
    lst.extend([1, 2, 3])
    pool.put(lst)
    again = pool.get()
    assert again is lst
    assert again == []  # cleared on return


def test_pool_rejects_non_lists_and_respects_capacity():
    pool = ListPool(capacity=2)
    pool.put((1, 2))  # tuples are packet payloads too; never pooled
    pool.put("nope")
    assert len(pool) == 0
    for _ in range(5):
        pool.put([])
    assert len(pool) == 2


def test_buffer_take_draws_replacement_from_pool():
    pool = ListPool()
    recycled = [1, 2]
    pool.put(recycled)
    buf = CoalescingBuffer(hop=3, pool=pool)
    first = buf.entries
    assert first is recycled  # construction drew from the pool
    buf.add(_entry())
    entries, nbytes, count = buf.take()
    assert entries is first and count == 1 and nbytes == entries[0].wire_bytes
    assert buf.entries is not first and buf.entries == []
    assert buf.nbytes == 0 and buf.count == 0


def test_buffer_without_pool_allocates_fresh_lists():
    buf = CoalescingBuffer(hop=0)
    buf.add(_entry())
    entries, _, _ = buf.take()
    assert entries and buf.entries == [] and buf.entries is not entries


def test_pooled_round_trip_preserves_contents():
    # A flush/handle cycle through the pool never leaks entries between
    # packets: each get() starts empty even after heavy churn.
    pool = ListPool(capacity=4)
    buf = CoalescingBuffer(hop=1, pool=pool)
    seen = []
    for round_no in range(10):
        for i in range(round_no + 1):
            buf.add(_entry(dest=i))
        entries, _, count = buf.take()
        assert count == round_no + 1
        assert [e.dest for e in entries] == list(range(round_no + 1))
        seen.append(len(entries))
        pool.put(entries)  # what Mailbox._handle_packet does
    assert seen == [n + 1 for n in range(10)]


# ------------------------------------------------------------- debug poison
def test_debug_pool_poisons_recycled_lists():
    """A stale reference that touches a recycled entry must fail loudly.

    This is the aliasing hazard of the pooled flush path: a handler (or
    a profiler hook) keeping the entries list beyond ``pool.put`` would
    silently observe cleared -- or worse, refilled -- entries.  In debug
    mode every recycled slot raises on attribute access instead.
    """
    import pytest

    pool = ListPool(debug=True)
    entries = pool.get()
    entries.append(_entry(dest=1))
    leaked = entries  # a reference that outlives the recycle
    pool.put(entries)
    assert len(leaked) == 1  # length survives; contents are poisoned
    with pytest.raises(RuntimeError, match="use-after-recycle"):
        leaked[0].kind  # the first touch a packet handler would make
    with pytest.raises(RuntimeError, match="use-after-recycle"):
        leaked[0].payload


def test_debug_pool_detects_double_recycle():
    import pytest

    pool = ListPool(debug=True)
    lst = [_entry()]
    pool.put(lst)
    with pytest.raises(RuntimeError, match="double recycle"):
        pool.put(lst)


def test_debug_pool_reissues_clean_lists():
    """Poison never leaks back into circulation through get()."""
    pool = ListPool(debug=True)
    lst = [_entry(), _entry()]
    pool.put(lst)
    again = pool.get()
    assert again is lst and again == []


def test_debug_pool_env_toggle(monkeypatch):
    monkeypatch.setenv("REPRO_DEBUG_POOL", "1")
    assert ListPool().debug
    monkeypatch.delenv("REPRO_DEBUG_POOL")
    assert not ListPool().debug


def test_default_pool_still_clears_on_return():
    # Production mode is unchanged: cleared lists, silent aliasing kept
    # impossible by the mailbox's discipline (audited in PR 6), checked
    # cheaply here.
    pool = ListPool()
    lst = [_entry()]
    pool.put(lst)
    assert lst == [] and pool.get() is lst
