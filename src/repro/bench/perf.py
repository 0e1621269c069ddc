"""Wall-clock performance harness: ``python -m repro.bench --perf``.

The figure harnesses report *simulated* seconds; this module measures the
*host* wall clock of the DES stack itself, so successive PRs can track
(and defend) the speed of the reproduction.  It runs

* **microbenchmarks** -- kernel event-dispatch throughput (events/sec),
  mailbox end-to-end message throughput (messages/sec), and serde packing
  bandwidth (MB/s), and
* **macrobenchmarks** -- the fig6 degree-counting and fig7
  connected-components workloads end-to-end at two machine scales
  (wall seconds, lower is better),

each repeated several times, and writes a schema-versioned
``BENCH_perf.json`` (median + IQR per benchmark, host fingerprint) so
runs are comparable across commits.  Pass a previous report via
``--perf-baseline`` to embed its medians and per-benchmark speedups in
the new report.

Timing is inherently noisy; nothing here fails on a slow run (the CI
``perf-smoke`` job only guards against harness errors).  Compare medians
across runs on the same host, not absolute numbers across hosts.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Bump when the JSON layout changes shape (consumers should check it).
SCHEMA_VERSION = 1

#: Default number of repeats per benchmark (median/IQR need >= 5).
DEFAULT_REPEATS = 5


# ------------------------------------------------------------- statistics
def median_iqr(values: List[float]) -> Tuple[float, float]:
    """Median and interquartile range (linear interpolation)."""
    xs = sorted(values)
    n = len(xs)

    def quantile(q: float) -> float:
        if n == 1:
            return xs[0]
        pos = q * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    return quantile(0.5), quantile(0.75) - quantile(0.25)


def host_fingerprint() -> Dict[str, Any]:
    """Enough host identity to know when two reports are comparable."""
    info: Dict[str, Any] = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


# ---------------------------------------------------------- microbenchmarks
def bench_kernel_events(smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """Kernel dispatch throughput: scheduled-callback chains (events/sec)."""
    from ..sim import Simulator

    n = 20_000 if smoke else 200_000
    chains = 64
    sim = Simulator()
    done = [0]

    def tick() -> None:
        done[0] += 1
        if done[0] < n:
            sim.schedule(1e-6, tick)

    for i in range(chains):
        sim.schedule(1e-9 * i, tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return sim.steps / wall, {"events": sim.steps, "chains": chains}


def bench_kernel_processes(smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """Kernel throughput under generator processes yielding timeouts."""
    from ..sim import Simulator

    nprocs = 64
    rounds = 50 if smoke else 1500
    sim = Simulator()

    def worker(sim, jitter):
        for _ in range(rounds):
            yield sim.timeout(1e-6 + jitter)

    for i in range(nprocs):
        sim.process(worker(sim, 1e-9 * i))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return sim.steps / wall, {"events": sim.steps, "processes": nprocs}


def bench_mailbox(smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """End-to-end mailbox throughput on the columnar path (messages/sec).

    The same machine shape and message count as ``mailbox_scalar_send``,
    but injected through ``send_many`` in application-sized chunks so
    messages ride the struct-of-arrays pipeline end to end.  The pair
    records the columnar speedup in the perf trajectory; the perf gate
    (``--perf-gate``) enforces a floor on their ratio.
    """
    from ..core import YgmWorld
    from ..machine import bench_machine

    nodes, cores = (2, 2) if smoke else (2, 4)
    msgs = 500 if smoke else 4000
    chunk = 1024  # one coalescing-buffer capacity per send_many call
    machine = bench_machine(nodes, cores_per_node=cores)
    nranks = nodes * cores

    # Inputs are precomputed so the timed region measures the pipeline,
    # not the benchmark's own chunk construction.
    chunks = {
        rank: [
            (
                [
                    (rank + 1 + i % (nranks - 1)) % nranks
                    for i in range(lo, min(lo + chunk, msgs))
                ],
                list(range(lo, min(lo + chunk, msgs))),
            )
            for lo in range(0, msgs, chunk)
        ]
        for rank in range(nranks)
    }

    def rank_main(ctx):
        received = [0]

        def on_recv(_v):
            received[0] += 1

        mb = ctx.mailbox(recv=on_recv)
        for dests, payloads in chunks[ctx.rank]:
            yield from mb.send_many(dests, payloads)
        yield from mb.wait_empty()
        return received[0]

    world = YgmWorld(machine, scheme="node_local", seed=0, mailbox_capacity=1024)
    t0 = time.perf_counter()
    world.run(rank_main)
    wall = time.perf_counter() - t0
    return (msgs * nranks) / wall, {
        "ranks": nranks,
        "messages": msgs * nranks,
        "chunk": chunk,
    }


def bench_mailbox_scalar(smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """End-to-end mailbox throughput (scalar sends, messages/sec).

    The pre-PR-6 workload, unchanged: one ``send`` call per message.
    Scalar posts still join columnar runs inside the buffer, so this
    tracks the per-call overhead the batched API amortises away.
    """
    from ..core import YgmWorld
    from ..machine import bench_machine

    nodes, cores = (2, 2) if smoke else (2, 4)
    msgs = 500 if smoke else 4000
    machine = bench_machine(nodes, cores_per_node=cores)
    nranks = nodes * cores

    def rank_main(ctx):
        received = [0]

        def on_recv(_v):
            received[0] += 1

        mb = ctx.mailbox(recv=on_recv)
        n = ctx.nranks
        rank = ctx.rank
        for i in range(msgs):
            yield from mb.send((rank + 1 + i % (n - 1)) % n, i)
        yield from mb.wait_empty()
        return received[0]

    world = YgmWorld(machine, scheme="node_local", seed=0, mailbox_capacity=1024)
    t0 = time.perf_counter()
    world.run(rank_main)
    wall = time.perf_counter() - t0
    return (msgs * nranks) / wall, {"ranks": nranks, "messages": msgs * nranks}


def _payload_stream(n: int, seed: int = 7) -> List[Any]:
    """A seeded stream of small mixed payloads (the scalar-send shapes)."""
    import random

    rng = random.Random(seed)
    out: List[Any] = []
    for i in range(n):
        k = i % 8
        if k == 0:
            out.append(rng.getrandbits(rng.choice((6, 13, 27, 48))))
        elif k == 1:
            out.append(-rng.getrandbits(20))
        elif k == 2:
            out.append(rng.random())
        elif k == 3:
            out.append((rng.getrandbits(32), rng.getrandbits(16), rng.random()))
        elif k == 4:
            out.append("v" * rng.randrange(1, 24))
        elif k == 5:
            out.append([rng.getrandbits(10) for _ in range(rng.randrange(5))])
        elif k == 6:
            out.append({"k": rng.getrandbits(16), "w": rng.random()})
        else:
            out.append(rng.choice((None, True, False)))
    return out


def bench_packer_small(smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """Serde bandwidth on small mixed payloads (pack + unpack, MB/s)."""
    from .. import serde

    n = 2_000 if smoke else 30_000
    objs = _payload_stream(n)
    pack_many = getattr(serde, "pack_many", None)
    unpack_many = getattr(serde, "unpack_many", None)
    t0 = time.perf_counter()
    if pack_many is not None:
        blob = bytes(pack_many(objs))
    else:  # pre-batching fallback: the same job, one object at a time
        blob = b"".join(serde.pack(o) for o in objs)
    if unpack_many is not None:
        out = unpack_many(blob)
    else:
        out = [serde.unpack(serde.pack(o)) for o in objs]
    wall = time.perf_counter() - t0
    assert len(out) == n
    mb = 2 * len(blob) / 1e6  # packed once, unpacked once
    return mb / wall, {"objects": n, "stream_bytes": len(blob)}


def bench_packer_records(smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """Serde bandwidth on structured record batches (pack + unpack, MB/s)."""
    import numpy as np

    from ..serde import RecordSpec, pack, unpack

    spec = RecordSpec("edge", [("src", "u8"), ("dst", "u8"), ("w", "f4")])
    rng = np.random.default_rng(11)
    batches = []
    nbatches = 20 if smoke else 200
    for _ in range(nbatches):
        n = int(rng.integers(64, 512))
        batch = spec.zeros(n)
        batch["src"] = rng.integers(0, 2**40, n)
        batch["dst"] = rng.integers(0, 2**40, n)
        batch["w"] = rng.standard_normal(n).astype("f4")
        batches.append(batch)
    t0 = time.perf_counter()
    total = 0
    for batch in batches:
        blob = pack(batch)
        total += len(blob)
        unpack(blob)
    wall = time.perf_counter() - t0
    return 2 * total / 1e6 / wall, {"batches": nbatches, "stream_bytes": total}


def _transport_exports(nmsgs: int, npackets: int) -> List[tuple]:
    """A representative window export batch: columnar app packets.

    The shape the PDES engine actually ships -- ``P2PColumns`` runs of
    int payloads inside mailbox app packets -- so the transport bench
    measures the real wire format, not a synthetic blob.  Runs are kept
    short (8 messages per packet): high-fanout traffic spreads each
    flush across many destinations, so per-destination columnar runs
    are small at the Quartz-scale node counts the engine targets, and
    per-packet overhead -- not bulk bandwidth -- is what buried PR 7's
    pipe+pickle transport.
    """
    import numpy as np

    from ..core.coalescing import P2PColumns
    from ..mpi.envelope import Packet

    per = nmsgs // npackets
    exports = []
    for i in range(npackets):
        dests = (np.arange(per, dtype=np.int64) * 7 + i) % 16
        payloads = np.empty(per, dtype=object)
        payloads[:] = [(j * 31 + i) for j in range(per)]
        nbytes = np.full(per, 12, dtype=np.int64)
        cols = P2PColumns(dests, payloads, nbytes)
        pkt = Packet(
            src=i % 16, dst=(i + 1) % 16, ctx=0, kind=("ygm", 1, "app"),
            tag=0, payload=[cols], nbytes=cols.wire_bytes,
        )
        exports.append((1e-3 * (i + 1), pkt.src, pkt.dst, pkt.nbytes, pkt))
    return exports


def bench_pdes_transport(smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """PDES export transport round-trip throughput (messages/sec).

    Isolates what used to be buried inside ``pdes_speedup``: the cost of
    moving one window's export batch to another process and back.  A
    forked echo child runs both transports over the same batch of
    columnar app packets -- the legacy path (the whole batch pickled
    through a ``multiprocessing.Pipe``) and the shm path (a tiny
    descriptor on the pipe, the serde-encoded bytes through the
    :mod:`repro.pdes.rings` SPSC rings).  The value is the ring path's
    messages/sec; ``params["ring_vs_pipe"]`` carries the ratio the perf
    gate enforces a floor on.
    """
    import multiprocessing

    from ..pdes.rings import ShmTransport, recv_batch, send_batch

    nmsgs = 2048 if smoke else 16384
    npackets = max(1, nmsgs // 8)
    rounds = 30 if smoke else 60
    exports = _transport_exports(nmsgs, npackets)
    ctx = multiprocessing.get_context("fork")

    class _Harness:
        """One echo child on one transport, timed in segments."""

        def __init__(self, use_rings: bool):
            self.rings = ShmTransport(2) if use_rings else None
            self.parent, child = ctx.Pipe()
            rings = self.rings
            parent = self.parent

            def echo() -> None:
                parent.close()
                gc.disable()  # mirror the parent's clocked sections
                scratch = bytearray()
                try:
                    while True:
                        msg = child.recv()
                        if msg is None:
                            return
                        if rings is None:
                            child.send(msg)
                        else:
                            batch = recv_batch(rings.ring(0, 1), msg)
                            child.send(
                                send_batch(rings.ring(1, 0), batch, scratch)
                            )
                except EOFError:
                    return
                finally:
                    if rings is not None:
                        rings.close()
                    child.close()

            self.proc = ctx.Process(target=echo, daemon=True)
            self.proc.start()
            child.close()
            self.scratch = bytearray()

        def round_trip(self) -> int:
            if self.rings is None:
                self.parent.send(exports)
                return len(self.parent.recv())
            self.parent.send(
                send_batch(self.rings.ring(0, 1), exports, self.scratch)
            )
            return len(recv_batch(self.rings.ring(1, 0), self.parent.recv()))

        def segment(self, seg: int) -> float:
            t0 = time.perf_counter()
            for _ in range(seg):
                self.round_trip()
            return (time.perf_counter() - t0) / seg

        def stop(self) -> None:
            try:
                self.parent.send(None)
                self.proc.join(10.0)
            except (BrokenPipeError, OSError):
                pass
            finally:
                if self.proc.is_alive():
                    self.proc.terminate()
                self.parent.close()
                if self.rings is not None:
                    self.rings.close()
                    self.rings.unlink()

    # Both transports run interleaved, segment by segment, and each
    # keeps its best segment: on a busy (or single-core) host the two
    # paths must see the same machine conditions or scheduler drift
    # between the runs swamps the ratio; the per-segment minimum sheds
    # hiccups and GC passes.
    pipe_h = _Harness(use_rings=False)
    ring_h = _Harness(use_rings=True)
    seg = max(1, rounds // 10)
    pipe_best = math.inf
    ring_best = math.inf
    gc_was_on = gc.isenabled()
    try:
        assert pipe_h.round_trip() == npackets  # warmup outside the clock
        assert ring_h.round_trip() == npackets
        gc.disable()
        done = 0
        while done < rounds:
            pipe_best = min(pipe_best, pipe_h.segment(seg))
            ring_best = min(ring_best, ring_h.segment(seg))
            done += seg
    finally:
        if gc_was_on:
            gc.enable()
        pipe_h.stop()
        ring_h.stop()
    return nmsgs / ring_best, {
        "messages": nmsgs,
        "packets": npackets,
        "rounds": rounds,
        "pipe_msgs_per_sec": nmsgs / pipe_best,
        "ring_vs_pipe": pipe_best / ring_best,
    }


def bench_pdes_e2e(smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """Serial/parallel wall-clock ratio of one partitioned run (x).

    The same degree-counting scenario runs once serially
    (:class:`~repro.core.YgmWorld`) and once partitioned across two
    worker processes (:class:`~repro.pdes.PdesWorld`); the value is
    serial wall / parallel wall, so > 1 means partitioning paid off.
    On a host with a single free core expect ~1.0x or below (fork and
    barrier overhead with no parallel hardware to win it back); the
    entry tracks the trajectory -- barrier cost, now that
    ``pdes_transport`` isolates transport cost -- and nothing gates on
    it.
    """
    from ..apps import make_degree_counting
    from ..core import YgmWorld
    from ..graph import er_stream
    from ..machine import bench_machine
    from ..pdes import PdesWorld

    nodes, cores = (2, 2) if smoke else (4, 2)
    edges_per_rank = 200 if smoke else 1500
    machine = bench_machine(nodes, cores_per_node=cores)
    stream = er_stream(
        num_vertices=256, edges_per_rank=edges_per_rank, seed=5
    )

    def make():
        return make_degree_counting(stream, batch_size=64)

    t0 = time.perf_counter()
    YgmWorld(machine, scheme="nlnr", seed=0, mailbox_capacity=256).run(make())
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    PdesWorld(
        machine, scheme="nlnr", seed=0, mailbox_capacity=256, workers=2
    ).run(make())
    parallel = time.perf_counter() - t0
    return serial / parallel, {
        "workload": "degree_count",
        "nodes": nodes,
        "cores_per_node": cores,
        "edges_per_rank": edges_per_rank,
        "workers": 2,
        "serial_seconds": serial,
        "parallel_seconds": parallel,
    }


def _bench_combining(app: str, smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """Host wall-clock speedup from in-network combining (x, off/on).

    One fig6/fig7-representative panel runs twice under ``nlnr`` --
    combining off, then on -- and the value is wall(off) / wall(on):
    merged records are records the simulator never has to forward, so
    the reduction shows up directly as host time.  The params carry the
    simulated-traffic reductions (``forwarded_reduction``,
    ``wire_reduction``), which are deterministic and self-normalising
    (both runs in the same cell); the perf gate enforces the >= 25%
    floor on them.
    """
    from ..apps import make_connected_components, make_degree_counting
    from ..core import YgmWorld
    from ..graph import er_stream, rmat_stream
    from ..machine import bench_machine

    nodes, cores = (2, 2) if smoke else (4, 4)
    capacity = 2**8
    machine = bench_machine(nodes, cores_per_node=cores)
    if app == "degree_count":
        # Fig6 shape with a concentrated key space: a fixed edge budget
        # over few vertices, so per-destination windows are duplicate-rich.
        edges_per_rank = 512 if smoke else 4096
        num_vertices = 16 * nodes * cores
        stream = er_stream(
            num_vertices=num_vertices, edges_per_rank=edges_per_rank, seed=5
        )

        def make(combining):
            return make_degree_counting(
                stream, batch_size=1024, capacity=capacity,
                combining=combining,
            )

    else:
        # Fig7's RMAT workload; only extreme hubs are delegated so label
        # updates ride the combinable point-to-point mailbox.
        edges_per_rank = 512 if smoke else 2048
        scale = 8 if smoke else 10
        stream = rmat_stream(scale, edges_per_rank, seed=5)
        mean_degree = (
            2.0 * edges_per_rank * nodes * cores / stream.num_vertices
        )

        def make(combining):
            return make_connected_components(
                stream,
                delegate_threshold=16.0 * mean_degree,
                batch_size=1024,
                capacity=capacity,
                combining=combining,
            )

    def run(combining):
        world = YgmWorld(
            machine, scheme="nlnr", seed=0, mailbox_capacity=capacity
        )
        t0 = time.perf_counter()
        res = world.run(make(combining))
        return time.perf_counter() - t0, res.mailbox_stats

    wall_off, stats_off = run(False)
    wall_on, stats_on = run(True)
    return wall_off / wall_on, {
        "workload": app,
        "scheme": "nlnr",
        "nodes": nodes,
        "cores_per_node": cores,
        "edges_per_rank": edges_per_rank,
        "entries_combined": stats_on.entries_combined,
        "forwarded_reduction": 1.0
        - (
            stats_on.entries_forwarded / stats_off.entries_forwarded
            if stats_off.entries_forwarded
            else 1.0
        ),
        "wire_reduction": 1.0
        - (
            stats_on.remote_bytes_sent / stats_off.remote_bytes_sent
            if stats_off.remote_bytes_sent
            else 1.0
        ),
        "wall_off_seconds": wall_off,
        "wall_on_seconds": wall_on,
    }


# ---------------------------------------------------------- macrobenchmarks
def _macro_sweep(nodes: int, smoke: bool):
    from .harness import SweepConfig

    return SweepConfig(
        cores_per_node=2 if smoke else 4,
        node_counts=(nodes,),
        mailbox_capacity=2**12,
        seed=0,
    )


def _bench_sweep_fig6(jobs: Optional[int], smoke: bool) -> Tuple[float, Dict[str, Any]]:
    """The fig6a weak-scaling *sweep* end-to-end (the `--fig 6a` macro).

    ``jobs=None`` is the serial driver path; otherwise the cells fan out
    over a ``jobs``-worker pool with the cache disabled, so the entry
    measures compute + pool overhead, never disk hits.  The
    serial/parallel entry pair records the sweep speedup in the perf
    trajectory (acceptance: >= 3x on >= 4 free cores).
    """
    from ..exec import Pool
    from . import fig6
    from .harness import SweepConfig

    sweep = SweepConfig(
        cores_per_node=2 if smoke else 4,
        node_counts=(1, 2) if smoke else (1, 2, 4, 8),
        mailbox_capacity=2**12,
        seed=0,
    )
    pool = Pool(jobs=jobs, cache=None) if jobs is not None else None
    t0 = time.perf_counter()
    fig6.run_weak(sweep, pool=pool)
    wall = time.perf_counter() - t0
    return wall, {
        "workload": "fig6a weak sweep",
        "node_counts": list(sweep.node_counts),
        "jobs": pool.jobs if pool is not None else 1,
    }


def _bench_fig6(nodes: int, smoke: bool) -> Tuple[float, Dict[str, Any]]:
    from . import fig6

    t0 = time.perf_counter()
    fig6.run_weak(_macro_sweep(nodes, smoke))
    wall = time.perf_counter() - t0
    return wall, {"nodes": nodes, "workload": "fig6a degree weak"}


def _bench_fig7(nodes: int, smoke: bool) -> Tuple[float, Dict[str, Any]]:
    from . import fig7

    t0 = time.perf_counter()
    fig7.run_weak(_macro_sweep(nodes, smoke))
    wall = time.perf_counter() - t0
    return wall, {"nodes": nodes, "workload": "fig7a cc weak"}


# ----------------------------------------------------------------- registry
@dataclass(frozen=True)
class BenchSpec:
    name: str
    unit: str
    higher_is_better: bool
    fn: Callable[[bool], Tuple[float, Dict[str, Any]]]
    #: Whether repeats may run in isolated pool workers (``--jobs``).
    #: Benchmarks that drive a pool themselves must stay in-parent so
    #: worker processes are not nested.
    isolate: bool = True


def _sweep_parallel_jobs() -> int:
    from ..exec import default_jobs

    return default_jobs()


BENCHMARKS: List[BenchSpec] = [
    BenchSpec("kernel_events", "events/sec", True, bench_kernel_events),
    BenchSpec("kernel_processes", "events/sec", True, bench_kernel_processes),
    BenchSpec("mailbox_messages", "messages/sec", True, bench_mailbox),
    BenchSpec("mailbox_scalar_send", "messages/sec", True, bench_mailbox_scalar),
    BenchSpec("packer_small", "MB/s", True, bench_packer_small),
    BenchSpec("packer_records", "MB/s", True, bench_packer_records),
    BenchSpec("fig6_degree_small", "seconds", False, lambda s: _bench_fig6(2 if s else 4, s)),
    BenchSpec("fig6_degree_large", "seconds", False, lambda s: _bench_fig6(4 if s else 8, s)),
    BenchSpec("fig7_cc_small", "seconds", False, lambda s: _bench_fig7(2 if s else 4, s)),
    BenchSpec("fig7_cc_large", "seconds", False, lambda s: _bench_fig7(4 if s else 8, s)),
    BenchSpec(
        "combining_degree", "x", True,
        lambda s: _bench_combining("degree_count", s),
    ),
    BenchSpec(
        "combining_cc", "x", True,
        lambda s: _bench_combining("connected_components", s),
    ),
    # These two fork their own children (echo process / partition
    # workers); keep them in-parent so pool workers are not nested.
    BenchSpec(
        "pdes_transport", "messages/sec", True, bench_pdes_transport,
        isolate=False,
    ),
    BenchSpec("pdes_e2e", "x", True, bench_pdes_e2e, isolate=False),
    BenchSpec(
        "sweep_fig6_serial", "seconds", False,
        lambda s: _bench_sweep_fig6(None, s), isolate=False,
    ),
    BenchSpec(
        "sweep_fig6_parallel", "seconds", False,
        lambda s: _bench_sweep_fig6(_sweep_parallel_jobs(), s), isolate=False,
    ),
]


# ---------------------------------------------------------------- execution
def perf_cell(*, name: str, smoke: bool, repeat: int) -> dict:
    """One isolated repeat of one benchmark (a pool-worker cell).

    ``repeat`` only distinguishes the jobs; timing cells are never
    cached, and a fresh worker per repeat keeps allocator and cache
    state from bleeding between repeats.
    """
    spec = {s.name: s for s in BENCHMARKS}[name]
    value, params = spec.fn(smoke)
    return {"value": value, "params": params}


def run_benchmark(
    spec: BenchSpec, repeats: int, smoke: bool, pool=None
) -> Dict[str, Any]:
    values: List[float] = []
    params: Dict[str, Any] = {}
    if pool is not None and pool.jobs > 1 and spec.isolate:
        from ..exec import Job

        cells = pool.run(
            [
                Job(
                    fn="repro.bench.perf:perf_cell",
                    kwargs=dict(name=spec.name, smoke=smoke, repeat=r),
                    label=f"perf {spec.name} #{r}",
                    cacheable=False,
                )
                for r in range(repeats)
            ]
        )
        values = [c["value"] for c in cells]
        params = cells[-1]["params"] if cells else {}
    else:
        for _ in range(repeats):
            value, params = spec.fn(smoke)
            values.append(value)
    median, iqr = median_iqr(values)
    return {
        "unit": spec.unit,
        "higher_is_better": spec.higher_is_better,
        "median": median,
        "iqr": iqr,
        "values": values,
        "params": params,
    }


def load_baseline(path: str) -> Optional[Dict[str, Any]]:
    """Read a previous BENCH_perf.json to compare against; None if absent."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"baseline {path} has schema_version {doc.get('schema_version')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    return doc


def speedup(entry: Dict[str, Any], base_median: float) -> Optional[float]:
    """Direction-aware improvement ratio (>1 means this run is faster)."""
    if not base_median or not entry["median"]:
        return None
    if entry["higher_is_better"]:
        return entry["median"] / base_median
    return base_median / entry["median"]


def run_perf(
    out_path: str = "BENCH_perf.json",
    repeats: int = DEFAULT_REPEATS,
    smoke: bool = False,
    baseline_path: Optional[str] = None,
    only: Optional[List[str]] = None,
    pool=None,
) -> int:
    """Run the suite, print a summary table and write ``out_path``."""
    from .report import Table

    if smoke:
        repeats = 1
    specs = BENCHMARKS
    if only:
        unknown = set(only) - {s.name for s in BENCHMARKS}
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"known: {[s.name for s in BENCHMARKS]}"
            )
        specs = [s for s in BENCHMARKS if s.name in only]

    baseline = load_baseline(baseline_path) if baseline_path else None
    base_benchmarks = (baseline or {}).get("benchmarks", {})
    host = host_fingerprint()

    results: Dict[str, Dict[str, Any]] = {}
    speedups: Dict[str, float] = {}
    table = Table(
        title=f"perf harness ({'smoke, ' if smoke else ''}{repeats} repeat(s), "
        "median over repeats)",
        columns=["benchmark", "unit", "median", "iqr", "vs_baseline"],
    )
    for spec in specs:
        entry = run_benchmark(spec, repeats, smoke, pool=pool)
        results[spec.name] = entry
        ratio = None
        base = base_benchmarks.get(spec.name)
        if base:
            if spec.name == "pdes_e2e" and (host.get("cpu_count") or 0) <= 1:
                # The serial/parallel ratio on a single-CPU host is pure
                # fork-and-barrier noise (no parallel hardware to win
                # back the overhead), so a baseline comparison would
                # only report scheduler jitter.  See EXPERIMENTS.md.
                print(
                    "# pdes_e2e: baseline comparison skipped on a "
                    "single-CPU host (ratio is scheduling noise)"
                )
            else:
                ratio = speedup(entry, base.get("median"))
                if ratio is not None:
                    speedups[spec.name] = ratio
        table.add(
            benchmark=spec.name,
            unit=spec.unit,
            median=entry["median"],
            iqr=entry["iqr"],
            vs_baseline=f"{ratio:.2f}x" if ratio is not None else None,
        )

    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "host": host,
        "benchmarks": results,
    }
    if baseline is not None:
        doc["baseline"] = {
            "path": baseline_path,
            "created": baseline.get("created"),
            "benchmarks": {
                name: {"median": b.get("median"), "unit": b.get("unit")}
                for name, b in base_benchmarks.items()
            },
        }
        doc["speedups"] = speedups

    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    print(table.render())
    print(f"# wrote {out_path}")
    return 0


# --------------------------------------------------------------- perf gate
#: The columnar mailbox bench must beat the scalar-send bench by at
#: least this factor.  The measured ratio is far higher (see
#: BENCH_perf.json); the floor only has to catch the columnar path
#: silently falling off (e.g. a refactor reverting to per-message
#: objects), while staying robust to CI timing noise.
GATE_MIN_COLUMNAR_RATIO = 1.3

#: Minimum fraction of the committed baseline median the fresh
#: ``mailbox_messages`` run must reach when host class and mode match
#: (the ISSUE's ">20% below baseline fails" rule).
GATE_BASELINE_FRACTION = 0.8

#: The shm ring transport must beat the pipe+pickle path by at least
#: this factor in ``pdes_transport`` -- self-normalising (both modes
#: measured in the same run), so it holds on any host and in smoke
#: mode.  The measured ratio is far higher (see BENCH_perf.json); the
#: floor catches the ring path silently degrading to pickling costs.
GATE_MIN_RING_RATIO = 1.5

#: In-network combining must eliminate at least this fraction of
#: forwarded entries *and* remote wire bytes on the representative
#: ``combining_degree`` / ``combining_cc`` panels (the PR 9 acceptance
#: bar).  The reductions are simulated-traffic counters from paired
#: off/on runs in one cell -- deterministic and host-independent -- so
#: the floor is tight without being timing-sensitive.
GATE_MIN_COMBINING_REDUCTION = 0.25

#: Host-fingerprint keys that define a comparable "host class": medians
#: from different CPUs are not comparable and the gate skips them.
_HOST_CLASS_KEYS = ("machine", "cpu_model", "cpu_count", "implementation")


def host_class(fingerprint: Dict[str, Any]) -> Tuple:
    return tuple(fingerprint.get(k) for k in _HOST_CLASS_KEYS)


def run_gate(
    report_path: str,
    baseline_path: Optional[str] = None,
    min_ratio: float = GATE_MIN_COLUMNAR_RATIO,
    fraction: float = GATE_BASELINE_FRACTION,
    min_ring_ratio: float = GATE_MIN_RING_RATIO,
    min_combining_reduction: float = GATE_MIN_COMBINING_REDUCTION,
) -> int:
    """Regression-gate a perf report: ``python -m repro.bench --perf-gate``.

    Four checks, printed and summed into the exit code:

    1. **Columnar ratio floor** (always): ``mailbox_messages`` must be at
       least ``min_ratio`` x ``mailbox_scalar_send`` from the *same*
       report -- self-normalising, so it holds on any host and in smoke
       mode.
    2. **Ring ratio floor** (when ``pdes_transport`` is present): the
       shm ring transport must hold ``min_ring_ratio`` x over the
       pipe+pickle path measured in the same run.
    3. **Combining reduction floor** (when the ``combining_*`` entries
       are present): in-network combining must cut forwarded entries and
       remote wire bytes by >= ``min_combining_reduction`` on both
       representative panels (simulated counters, host-independent).
    4. **Baseline floor** (when comparable): if ``baseline_path`` is
       given and its host class *and* mode match the report's, the fresh
       ``mailbox_messages`` median must be >= ``fraction`` of the
       baseline median.  Mismatched hosts or modes are reported and
       skipped -- absolute medians only compare within a host class.
    """
    report = load_baseline(report_path)
    if report is None:
        print(f"perf gate: FAIL -- report {report_path} not found")
        return 1
    benchmarks = report.get("benchmarks", {})
    failures: List[str] = []
    checks: List[str] = []

    columnar = benchmarks.get("mailbox_messages", {}).get("median")
    scalar = benchmarks.get("mailbox_scalar_send", {}).get("median")
    if not columnar or not scalar:
        failures.append(
            "ratio check needs both mailbox_messages and mailbox_scalar_send "
            f"in {report_path} (run without --perf-only, or include both)"
        )
    else:
        ratio = columnar / scalar
        line = (
            f"columnar/scalar ratio {ratio:.2f}x (floor {min_ratio:.2f}x): "
            f"{columnar:,.0f} vs {scalar:,.0f} messages/sec"
        )
        if ratio < min_ratio:
            failures.append(line)
        else:
            checks.append(line)

    ring = benchmarks.get("pdes_transport", {}).get("params", {})
    ring_ratio = ring.get("ring_vs_pipe")
    if ring_ratio is None:
        checks.append(
            "ring check skipped: no pdes_transport entry in the report "
            "(run without --perf-only, or include it)"
        )
    else:
        line = (
            f"pdes ring/pipe ratio {ring_ratio:.2f}x "
            f"(floor {min_ring_ratio:.2f}x)"
        )
        if ring_ratio < min_ring_ratio:
            failures.append(line)
        else:
            checks.append(line)

    for name in ("combining_degree", "combining_cc"):
        params = benchmarks.get(name, {}).get("params", {})
        fwd_red = params.get("forwarded_reduction")
        wire_red = params.get("wire_reduction")
        if fwd_red is None or wire_red is None:
            checks.append(
                f"combining check skipped: no {name} entry in the report "
                "(run without --perf-only, or include it)"
            )
            continue
        line = (
            f"{name} reductions fwd {fwd_red:.0%} / wire {wire_red:.0%} "
            f"(floor {min_combining_reduction:.0%})"
        )
        if min(fwd_red, wire_red) < min_combining_reduction:
            failures.append(line)
        else:
            checks.append(line)

    baseline = load_baseline(baseline_path) if baseline_path else None
    if baseline is not None:
        same_host = host_class(baseline.get("host", {})) == host_class(
            report.get("host", {})
        )
        same_mode = baseline.get("mode") == report.get("mode")
        base_med = baseline.get("benchmarks", {}).get(
            "mailbox_messages", {}
        ).get("median")
        if not same_host or not same_mode:
            why = "host class" if not same_host else "mode"
            checks.append(
                f"baseline check skipped: {why} differs from {baseline_path} "
                "(absolute medians are not comparable)"
            )
        elif columnar and base_med:
            frac = columnar / base_med
            line = (
                f"mailbox_messages at {frac:.2f}x of baseline median "
                f"{base_med:,.0f} (floor {fraction:.2f}x)"
            )
            if frac < fraction:
                failures.append(line)
            else:
                checks.append(line)

    for line in checks:
        print(f"perf gate: ok   -- {line}")
    for line in failures:
        print(f"perf gate: FAIL -- {line}")
    print(f"perf gate: {'FAIL' if failures else 'PASS'} ({report_path})")
    return 1 if failures else 0
