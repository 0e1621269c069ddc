"""Flight-recorder battery: non-perturbation, zero disabled cost,
attribution schema, clock alignment and ring telemetry.

The recorder's contract has two halves.  *On*, it may only read
simulated state: a flight-recorded run must stay bit-identical to the
serial oracle across partition counts.  *Off*, the
worker window path may pay exactly one cached-attribute check and the
per-event pump loop must not mention the recorder at all -- enforced
structurally (bytecode inspection) rather than by timing, so the test
is deterministic on any host.
"""

import dis
import json
import tracemalloc

import pytest

from repro.core.config import MailboxConfig
from repro.core.context import YgmWorld
from repro.core.routing import get_scheme
from repro.machine import bench_machine
from repro.pdes import (
    DRIVER_PHASES,
    WORKER_PHASES,
    FlightSpec,
    NodePartition,
    PdesWorld,
    ShmTransport,
    assert_equivalent,
    estimate_offset,
)
from repro.pdes.rings import PeerLinks, recv_batch
from repro.pdes.worker import PartitionRuntime, WorkerSpec
from repro.trace import Tracer
from repro.trace.pdes_report import (
    MIN_COVERAGE,
    AttributionError,
    render_html,
    validate,
    write_report,
)


def chatter(ctx):
    got = []
    mb = ctx.mailbox(recv=lambda m: got.append(m))
    n = ctx.nranks
    for i in range(25):
        yield from mb.send((ctx.rank * 5 + i * 3) % n, (ctx.rank, i))
    yield from mb.wait_empty()
    return sorted(got)


def _serial():
    return YgmWorld(8, scheme="nlnr", seed=1, cores_per_node=2).run(chatter)


def _flight_world(workers, **kw):
    return PdesWorld(
        8, scheme="nlnr", seed=1, cores_per_node=2, workers=workers,
        flight=True, **kw,
    )


# -- non-perturbation ---------------------------------------------------------
@pytest.mark.parametrize("workers", [2, 4])
def test_recording_is_bit_identical_to_serial(workers):
    serial = _serial()
    engine = _flight_world(workers)
    parallel = engine.run(chatter)
    assert_equivalent(parallel, serial)
    log = engine.flight_log
    assert log is not None
    assert len(log.workers) == workers
    assert len(log.offsets) == workers
    # Every worker recorded spans in every phase bucket.
    for p in range(workers):
        phases = {s[0] for s in log.aligned_spans(p)}
        assert phases == set(WORKER_PHASES)
    assert {s[0] for s in log.driver.spans} == set(DRIVER_PHASES)


# -- zero cost when disabled --------------------------------------------------
#: Everything the worker runs once per window.
WINDOW_PATH = (
    PartitionRuntime.run_windows,
    PartitionRuntime.import_batches,
    recv_batch,
    PartitionRuntime.inject,
    PartitionRuntime.advance,
    PartitionRuntime.pump,
    PartitionRuntime.serialize_exports,
    PartitionRuntime.push_exports,
    PartitionRuntime.signal_peers,
    PartitionRuntime.wait_peers,
    PartitionRuntime.next_window,
    PartitionRuntime._log_window,
    PeerLinks.post,
    PeerLinks.gather,
    PeerLinks._take,
    PeerLinks._flush,
    PeerLinks._parse,
)


def _runtime(flight):
    spec = WorkerSpec(
        part=0, partition=NodePartition(8, 2, 1),
        machine_config=bench_machine(8, cores_per_node=2),
        scheme=get_scheme("nlnr", 8, 2), seed=1,
        default_config=MailboxConfig(), rank_main=chatter,
        segment=ShmTransport(1), pipes={}, flight=flight,
    )
    runtime = PartitionRuntime(spec)
    spec.segment.close()
    spec.segment.unlink()
    return runtime


def test_disabled_window_path_is_one_attribute_check():
    """The recorder is resolved once per worker, at construction, where
    it may wrap the window phases; the window loop and every phase it
    runs name neither the recorder nor any clock, and a recorder-free
    runtime runs its own bound methods -- zero checks per window."""
    for fn in WINDOW_PATH:
        names = fn.__code__.co_names
        for forbidden in ("flight", "instrument", "perf_counter"):
            assert forbidden not in names, (fn.__qualname__, forbidden)
    wraps = [
        ins
        for ins in dis.get_instructions(PartitionRuntime.__init__)
        if ins.opname.startswith("LOAD") and ins.argval == "instrument"
    ]
    assert len(wraps) == 1
    bare = _runtime(flight=None)
    assert all(phase.__self__ is bare for phase in bare.phases)
    recorded = _runtime(flight=FlightSpec(categories=()))
    assert not any(
        getattr(phase, "__self__", None) is recorded
        for phase in recorded.phases
    )


def test_disabled_run_allocates_nothing_from_flight_module():
    serial = _serial()
    tracemalloc.start()
    try:
        engine = PdesWorld(
            8, scheme="nlnr", seed=1, cores_per_node=2, workers=2
        )
        parallel = engine.run(chatter)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert_equivalent(parallel, serial)
    assert engine.flight_log is None
    flight_allocs = snap.filter_traces(
        [tracemalloc.Filter(True, "*pdes/flight.py")]
    ).statistics("filename")
    assert flight_allocs == []


# -- clock alignment ----------------------------------------------------------
def test_offset_estimator_uses_the_min_rtt_probe():
    # Worker clock runs 5.0s ahead.  Probe 1 has a symmetric 0.1s RTT;
    # probe 2 is contaminated by 0.4s of scheduling noise.
    probes = [
        (0.0, 5.05, 0.1),
        (1.0, 6.1, 1.4),
    ]
    assert estimate_offset(probes) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        estimate_offset([])


def test_clock_offsets_are_small_on_a_shared_monotonic_clock():
    engine = _flight_world(2)
    engine.run(chatter)
    # Linux perf_counter is system-wide CLOCK_MONOTONIC: the handshake
    # estimate must come out far below a millisecond.
    for off in engine.flight_log.offsets:
        assert abs(off) < 0.1


# -- attribution document -----------------------------------------------------
def test_attribution_validates_and_tiles_the_wall_clock(tmp_path):
    engine = _flight_world(4)
    engine.run(chatter)
    doc = engine.flight_log.attribution()
    validate(doc)  # raises on schema/coverage violations
    assert doc["driver"]["coverage"] >= MIN_COVERAGE
    for w in doc["workers"]:
        assert w["coverage"] >= MIN_COVERAGE
        assert set(w["buckets"]) == set(WORKER_PHASES)
        assert w["ring"]["exports"]["pushes"] > 0
    assert set(doc["driver"]["buckets"]) == set(DRIVER_PHASES)
    se = doc["serial_equivalent"]
    assert 0.0 <= se["fraction"] <= 1.0
    assert se["compute_s"] == pytest.approx(
        sum(w["buckets"]["compute"] for w in doc["workers"])
    )
    assert doc["rounds"], "per-round ring telemetry series missing"
    assert doc["meta"]["workers"] == 4
    # The JSON document round-trips.
    html_path = tmp_path / "attr.html"
    json_path = tmp_path / "attr.json"
    write_report(doc, str(html_path), str(json_path))
    assert json.loads(json_path.read_text())["schema"] == doc["schema"]


def test_validation_rejects_malformed_documents():
    engine = _flight_world(2)
    engine.run(chatter)
    doc = engine.flight_log.attribution()
    bad = dict(doc, schema=999)
    with pytest.raises(AttributionError, match="schema"):
        validate(bad)
    bad = json.loads(json.dumps(doc))
    bad["workers"][0]["coverage"] = 0.5
    with pytest.raises(AttributionError, match="tile only"):
        validate(bad)
    bad = json.loads(json.dumps(doc))
    del bad["workers"][0]["buckets"]["compute"]
    with pytest.raises(AttributionError, match="buckets"):
        validate(bad)
    # Two workers computing in parallel can sum to more than the wall
    # clock, never to more than two walls.
    parallel = json.loads(json.dumps(doc))
    parallel["serial_equivalent"]["fraction"] = 1.5
    validate(parallel)
    parallel["serial_equivalent"]["fraction"] = 2.5
    with pytest.raises(AttributionError, match="serial-equivalent"):
        validate(parallel)


def test_report_html_is_self_contained(tmp_path):
    engine = _flight_world(2)
    engine.run(chatter)
    html = render_html(engine.flight_log.attribution())
    # Self-contained: no external fetches of any kind.
    assert "src=" not in html
    assert "href=" not in html
    assert html.count("<") > 50
    assert "Serial-equivalent fraction" in html


# -- merged chrome trace ------------------------------------------------------
def test_chrome_merge_has_one_process_group_per_worker(tmp_path):
    tracer = Tracer()
    engine = PdesWorld(
        8, scheme="nlnr", seed=1, cores_per_node=2, workers=2,
        flight=True, tracer=tracer,
    )
    engine.run(chatter)
    path = tmp_path / "trace.json"
    tracer.export_chrome(
        str(path), extra_events=engine.flight_log.to_chrome_events()
    )
    doc = json.loads(path.read_text())
    names = {
        e["pid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert names[100] == "pdes driver (wall clock)"
    assert names[101] == "pdes worker 0 (wall clock)"
    assert names[102] == "pdes worker 1 (wall clock)"
    spans = [
        e for e in doc["traceEvents"] if e.get("cat") == "pdes-flight"
        and e.get("ph") == "X"
    ]
    assert {e["name"] for e in spans if e["pid"] == 100} == set(DRIVER_PHASES)
    assert {e["name"] for e in spans if e["pid"] == 101} == set(WORKER_PHASES)
    # Worker simulated-time events were merged into the rank lanes too.
    assert any(
        e.get("pid") == 1 and e.get("cat") in ("mailbox", "mpi")
        for e in doc["traceEvents"]
    )


# -- ring telemetry -----------------------------------------------------------
def test_ring_stats_count_pushes_pops_highwater_and_spills():
    shm = ShmTransport(2, ring_bytes=4096)
    ring = shm.ring(0, 1)
    try:
        payload = b"x" * 100
        assert ring.try_push(payload) is not None
        st = ring.stats
        assert st.pushes == 1
        assert st.bytes_pushed == 116  # 16-byte record header + payload
        assert st.high_water == 116
        # A push that cannot fit is refused and counted as a spill.
        assert ring.try_push(b"y" * 8000) is None
        assert st.spills == 1
        assert ring.refusals == 1  # the shared counter agrees
        assert st.pushes == 1
        view = ring.begin_pop()
        assert bytes(view) == payload
        view.release()
        ring.commit_pop()
        assert st.pops == 1
        assert st.bytes_popped == 116
        assert ring.used == 0
        assert st.high_water == 116  # peak, not current
    finally:
        shm.close()
        shm.unlink()


def test_ring_stats_survive_the_run():
    engine = _flight_world(2)
    engine.run(chatter)
    stats = engine.ring_stats
    assert stats is not None
    assert len(stats["to_worker"]) == 2
    assert sum(s["pushes"] for s in stats["to_worker"]) > 0
    assert sum(s["pops"] for s in stats["from_worker"]) > 0


def test_stall_note_names_the_congested_ring():
    engine = PdesWorld(
        8, scheme="nlnr", seed=1, cores_per_node=2, workers=3
    )
    shm = ShmTransport(3, ring_bytes=4096)
    engine._rings = shm
    try:
        # Prime partition 1's import ring from partition 0 with an
        # undrained record and three refused pushes, as a mid-window
        # stall would leave it.
        ring = shm.ring(0, 1)
        assert ring.try_push(b"z" * 64) is not None
        for _ in range(3):
            assert ring.try_push(b"y" * 8000) is None
        note = engine._ring_note([1])
        assert "partition 1 import ring from partition 0" in note
        assert "3 spill(s)" in note
        assert "4096" in note
        # The producer's side names the same ring as undelivered.
        assert "partition 0 export ring to partition 1: 80 byte(s)" in (
            engine._ring_note([0])
        )
        # A quiet partition contributes nothing.
        assert engine._ring_note([2]) == ""
    finally:
        engine._rings = None
        shm.close()
        shm.unlink()
