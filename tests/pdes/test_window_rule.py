"""The window rule is one pure function of the round headers.

Every worker evaluates :func:`repro.pdes.worker.window_rule` on the same
headers, so the function alone decides the horizons and the adaptive K.
These properties pin it down: K = 1 is the classic common horizon,
batched horizons never pass the conservative bound, completed partitions
never pin anyone, the result is a deterministic function of the header
order (also after a round trip through the shared segment), and the
per-producer arrival minima give exactly what the flattened import lists
would.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdes import RingError, ShmTransport
from repro.pdes.rings import RoundHeader
from repro.pdes.worker import PartitionRuntime, window_rule

L = 1.5e-6
INF = math.inf

instants = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)


@st.composite
def exchanges(draw, max_parts=6):
    """Round headers of one exchange, plus the import lists behind them:
    ``imports[q][p]`` lists the arrival instants ``q`` exported to ``p``."""
    n = draw(st.integers(1, max_parts))
    imports = [
        [draw(st.lists(instants, max_size=3)) for _p in range(n)]
        for _q in range(n)
    ]
    headers = [
        RoundHeader(
            seq=draw(st.integers(1, 9)),
            next_t=draw(st.one_of(instants, st.just(INF))),
            remaining=draw(st.integers(0, 3)),
            done_at=INF,
            now=0.0,
            steps=0,
            exports=sum(len(a) for a in imports[q]),
            spills=draw(st.integers(0, 1)),
            arrivals=tuple(min(a, default=INF) for a in imports[q]),
        )
        for q in range(n)
    ]
    return headers, imports


def earliest(headers):
    """``e_p`` of every active partition that has something pending."""
    out = {}
    for p, h in enumerate(headers):
        if h.remaining > 0:
            e = min([h.next_t] + [q.arrivals[p] for q in headers])
            if e < INF:
                out[p] = e
    return out


@given(exchanges(), st.integers(1, 512))
def test_k1_gives_every_partition_the_common_horizon(ex, k):
    headers, _ = ex
    k_next, t_min, base, horizons = window_rule(headers, L, 1, adapt=False)
    assert k_next == 1
    if horizons is None:
        assert earliest(headers) == {}
        return
    assert t_min == min(earliest(headers).values())
    expected = INF if len(headers) == 1 else t_min + L
    assert base == expected
    assert horizons == [expected] * len(headers)


@given(exchanges(), st.integers(1, 512))
def test_horizons_never_pass_the_conservative_bound(ex, k):
    headers, _ = ex
    _k, t_min, base, horizons = window_rule(headers, L, k, adapt=False)
    if horizons is None or len(headers) == 1:
        return
    e = earliest(headers)
    for p, h_p in enumerate(horizons):
        a_p = min((v for q, v in e.items() if q != p), default=INF)
        assert h_p <= a_p + L
        assert h_p >= t_min + L  # batching never shrinks a window


@given(exchanges(), st.data())
def test_completed_partitions_never_pin_the_horizon(ex, data):
    headers, _ = ex
    done = [p for p, h in enumerate(headers) if h.remaining == 0]
    if not done:
        return
    # Rewrite everything a completed partition could be waiting on: its
    # own next event and every arrival headed its way.
    noise = st.one_of(instants, st.just(INF))
    moved = []
    for h in headers:
        arrivals = list(h.arrivals)
        for p in done:
            arrivals[p] = data.draw(noise)
        moved.append(h._replace(arrivals=tuple(arrivals)))
    for p in done:
        moved[p] = moved[p]._replace(next_t=data.draw(noise))
    k = data.draw(st.integers(1, 512))
    assert window_rule(moved, L, k, False) == window_rule(headers, L, k, False)


@settings(max_examples=30)
@given(exchanges(), st.integers(1, 512), st.booleans())
def test_rule_is_deterministic_through_the_shared_segment(ex, k, adapt):
    headers, _ = ex
    n = len(headers)
    first = window_rule(headers, L, k, adapt)
    assert repr(window_rule(list(headers), L, k, adapt)) == repr(first)
    seg = ShmTransport(n, ring_bytes=4096, with_rings=False)
    try:
        for p, h in enumerate(headers):
            seg.publish(p, (h.seq, *h[1:8], *h.arrivals))
        back = [seg.header(p, h.seq) for p, h in enumerate(headers)]
    finally:
        seg.close()
        seg.unlink()
    assert back == headers
    assert repr(window_rule(back, L, k, adapt)) == repr(first)


def test_stale_round_header_is_refused_naming_its_partition():
    # Exchange 3 reads the odd-parity slots; partition 1's still holds
    # its header of exchange 1, so the rule must not run on it.
    seg = ShmTransport(2, ring_bytes=4096, with_rings=False)
    try:
        fields = (INF, 1, INF, 0.0, 0, 0, 0, INF, INF)
        seg.publish(0, (3, *fields))
        seg.publish(1, (1, *fields))
        runtime = SimpleNamespace(segment=seg, nparts=2, part=0, seq=3)
        with pytest.raises(RingError, match="partition 1's round header is "
                           "from exchange 1, expected 3"):
            PartitionRuntime.next_window(runtime)
    finally:
        seg.close()
        seg.unlink()


@given(exchanges(), st.integers(1, 512))
def test_per_producer_minima_equal_the_flattened_import_lists(ex, k):
    headers, imports = ex
    n = len(headers)
    # The driver-mediated rule this function replaces: e_p from the
    # concatenated import list of p plus its next event.
    nxt = {}
    for p, h in enumerate(headers):
        if h.remaining <= 0:
            continue
        cands = [t for q in range(n) for t in imports[q][p]]
        if h.next_t < INF:
            cands.append(h.next_t)
        if cands:
            nxt[p] = min(cands)
    _k, t_min, base, horizons = window_rule(headers, L, k, adapt=False)
    if not nxt:
        assert horizons is None
        return
    assert t_min == min(nxt.values())
    if n == 1 or k == 1:
        assert horizons == [base] * n
        return
    for p in range(n):
        if p not in nxt:
            assert horizons[p] == base
            continue
        a_p = min((e for q, e in nxt.items() if q != p), default=INF)
        assert horizons[p] == min(a_p + L, nxt[p] + k * L)


@given(exchanges(), st.integers(1, 512))
def test_adaptive_k_follows_spills_then_traffic(ex, k):
    headers, _ = ex
    k_next = window_rule(headers, L, k, adapt=True)[0]
    if any(h.spills for h in headers):
        assert k_next == 1
    elif not any(h.exports for h in headers):
        assert k_next == min(2 * k, 512)
    else:
        assert k_next == max(1, k // 2)
    assert window_rule(headers, L, k, adapt=False)[0] == k
