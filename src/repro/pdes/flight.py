"""The PDES flight recorder: cross-process telemetry for one run.

The serial ``repro.trace`` layer stops at the fork boundary: a worker's
tracer lives and dies inside the worker process.  The flight recorder
closes that blind spot.  When enabled (``PdesWorld(flight=True)``):

* every **worker** buffers per-window *phase spans* on its own monotonic
  clock, one cause per bucket (:data:`WORKER_PHASES`): ``import-drain``
  (fetching the batches peers announced + injection), ``compute`` (the
  unchanged serial kernel pumping events), ``export-serialize`` (the
  columnar wire encode),
  ``ring-push`` (the SPSC pushes), ``peer-signal`` (storing the round
  header and writing the peer frames), ``barrier-wait`` (waiting for
  every peer's frame) and ``horizon`` (the window rule) -- plus
  per-exchange ring telemetry (byte volumes, occupancy, spills from the
  always-on :class:`~repro.pdes.rings.RingStats`) and a full in-worker
  :class:`~repro.trace.Tracer` over the simulated stack
  (mailbox/transport/NIC events on the *simulated* clock, kernel
  progress samples on the worker's wall clock);
* the **driver** records ``start`` (releasing the workers) and
  ``fan-in`` (waiting for their results): it does no per-window work,
  so its fan-in spans the whole run;
* worker buffers are streamed back **out of band**: they ride the
  control pipe piggybacked on the final ``REP_RESULT`` message, never
  through the data rings, so recording cannot perturb the export plane;
* worker clocks are aligned by a **handshake**: after ``REP_READY`` the
  driver ping-pongs :data:`~repro.pdes.worker.CMD_CLOCK` probes and
  keeps the minimum-RTT midpoint estimate (:func:`estimate_offset`);
  the merged :class:`FlightLog` maps every worker timestamp onto the
  driver's clock.

The merger emits one unified Chrome trace (one process-group per worker
plus one for the driver, all on the host wall-clock axis, alongside the
usual simulated-time groups), a per-exchange ring telemetry series, and
the schema-versioned overhead **attribution** document rendered by
:mod:`repro.trace.pdes_report` (CLI:
``python -m repro.bench pdes --attribute``).

Cost discipline (same as PR 1's tracer): with recording off the window
loop runs no recorder code at all -- the worker checks ``flight`` once
at construction and only then wraps its phases
(:meth:`WorkerFlight.instrument`) -- and the per-event pump loop is
untouched; recording on only *reads* simulated state and appends to
process-local buffers, so the run stays bit-identical
(``tests/pdes/test_flight.py`` enforces both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Tuple

from .rings import merge_stats

#: Worker wall-clock phase buckets, in the order of
#: ``PartitionRuntime.phases``.  Together they tile a worker's window
#: loop (the attribution report asserts >= 95% coverage; the remainder
#: is loop bookkeeping between clock reads).
WORKER_PHASES = (
    "import-drain",
    "compute",
    "export-serialize",
    "ring-push",
    "peer-signal",
    "barrier-wait",
    "horizon",
)

#: Driver wall-clock phase buckets: releasing the workers, then waiting
#: for their results (the driver does no per-window work).
DRIVER_PHASES = ("start", "fan-in")

#: Clock-handshake probes per worker; the minimum-RTT probe wins.
CLOCK_PROBES = 5

#: Default in-worker tracer categories.  ``exec`` and ``pdes`` are
#: driver-side categories; kernel/process are too chatty to ship by
#: default.
WORKER_TRACE_CATEGORIES = ("app", "mailbox", "mpi", "resource")

#: Chrome pid values of the flight recorder's host wall-clock process
#: groups.  Kept clear of repro.trace.chrome's PID_* (1..4): the merged
#: trace carries both domains side by side.
PID_FLIGHT_DRIVER = 100
PID_FLIGHT_WORKER0 = 101


@dataclass(frozen=True)
class FlightSpec:
    """What a worker should record (inherited across the fork)."""

    #: Trace categories enabled on the in-worker tracer; ``()`` records
    #: only phase spans and kernel progress samples.
    categories: Tuple[str, ...] = WORKER_TRACE_CATEGORIES


def estimate_offset(probes: List[Tuple[float, float, float]]) -> float:
    """Estimate a worker clock's offset from handshake probes.

    Each probe is ``(t_send, t_worker, t_recv)``: driver clock at send,
    worker clock inside the echo, driver clock at receipt.  The probe
    with the smallest round trip is the least contaminated by
    scheduling noise; assuming its delay is symmetric, the worker clock
    read happened at driver instant ``(t_send + t_recv) / 2``, so::

        offset = t_worker - (t_send + t_recv) / 2
        t_driver = t_worker - offset

    (On Linux ``perf_counter`` is system-wide ``CLOCK_MONOTONIC`` and
    offsets come out near zero; the handshake keeps the merge honest on
    platforms where each process gets its own epoch.)
    """
    if not probes:
        raise ValueError("no clock probes")
    t_send, t_worker, t_recv = min(probes, key=lambda p: p[2] - p[0])
    return t_worker - (t_send + t_recv) / 2.0


class WorkerFlight:
    """A worker's buffered recorder (lives in the worker process).

    Appends ``(phase, t_start, dur, round)`` span tuples -- worker
    monotonic clock -- and one ring-telemetry row per exchange to plain
    lists.  Nothing here touches the data rings or the simulation; the
    buffers ship back with the final ``REP_RESULT``.
    """

    __slots__ = ("part", "spans", "rows", "round", "tracer", "t0")

    def __init__(self, part: int, tracer=None):
        self.part = part
        self.spans: List[Tuple[str, float, float, int]] = []
        self.rows: List[dict] = []
        #: Window exchange the next spans belong to (exchange 0 is the
        #: report-only one: no horizon yet).
        self.round = 0
        #: The in-worker :class:`~repro.trace.Tracer`, or ``None``.
        self.tracer = tracer
        self.t0 = perf_counter()

    def instrument(self, runtime, phases: tuple) -> tuple:
        """Wrap ``runtime``'s window phases (in :data:`WORKER_PHASES`
        order) with span timing: the only place the loop meets a clock.
        Each span starts with its own clock read, so what the buckets
        miss (loop overhead, the wrapper, the samples taken between
        spans) stays visible as lost coverage."""
        pc = perf_counter
        spans = self.spans
        sim = runtime.sim
        samples = self.tracer.progress_samples if self.tracer else None
        seg, part, peers = runtime.segment, runtime.part, runtime.peers
        out_rings = [seg.ring(part, q) for q in peers]
        in_rings = [seg.ring(q, part) for q in peers]
        to = [seg.ring(part, q) for q in range(runtime.nparts)]

        def sample_progress():
            # One progress sample per window: small workers may never hit
            # the kernel's sampling stride, and the rank_group metrics
            # rows need >= 2 samples per worker.
            samples.append((sim.now, sim.steps, pc()))

        prev = [0, 0, 0, 0]  # exported, spilled, bytes pushed, popped

        def sample_rings():
            pushed = sum(r.stats.bytes_pushed for r in out_rings)
            popped = sum(r.stats.bytes_popped for r in in_rings)
            exported, spilled = runtime.exported_packets, runtime.spilled_batches
            self.rows.append({
                "round": self.round,
                "t": pc(),
                "k": runtime.k,
                "exports": exported - prev[0],
                "spills": spilled - prev[1],
                "export_bytes": pushed - prev[2],
                "import_bytes": popped - prev[3],
                "occupancy": sum(r.used for r in out_rings),
                # Cumulative refused pushes per destination partition.
                "spilled_to": [r.stats.spills if r else 0 for r in to],
            })
            prev[:] = exported, spilled, pushed, popped
            self.round += 1

        def timed(name, fn, after):
            def run():
                t0 = pc()
                out = fn()
                spans.append((name, t0, pc() - t0, self.round))
                if after is not None:
                    after()
                return out

            return run

        after = [None] * len(phases)
        after[1] = sample_progress if samples is not None else None
        after[-1] = sample_rings
        return tuple(map(timed, WORKER_PHASES, phases, after))

    def snapshot(self, runtime) -> dict:
        """Everything the driver-side merger needs, all picklable."""
        tracer = self.tracer
        ends = runtime.ring_endpoints()
        ring = {"exports": None, "imports": None}
        if ends is not None:
            for name, side in (("exports", 0), ("imports", 1)):
                ring[name] = merge_stats(
                    [st for key, st in ends.items() if key[side] == self.part]
                )
        return {
            "part": self.part,
            "t0": self.t0,
            "spans": list(self.spans),
            "rows": list(self.rows),
            "steps": runtime.sim.steps,
            "ring": ring,
            "progress": list(tracer.progress_samples) if tracer else [],
            "trace_events": (
                [tuple(ev) for ev in tracer.events] if tracer else []
            ),
        }


class DriverFlight:
    """The driver's span buffer."""

    __slots__ = ("spans", "t_start", "t_end")

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.t_start = perf_counter()
        self.t_end = self.t_start

    def span(self, phase: str, t_start: float, dur: float, rnd: int) -> None:
        self.spans.append((phase, t_start, dur, rnd))


@dataclass
class FlightLog:
    """The merged, clock-aligned record of one flight-recorded run."""

    driver: DriverFlight
    #: Per-partition snapshots (see :meth:`WorkerFlight.snapshot`).
    workers: List[dict]
    #: Per-partition clock offsets from :func:`estimate_offset`
    #: (``t_driver = t_worker - offset``).
    offsets: List[float]
    #: Engine facts for the report (workers, rounds, counters, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- clock alignment ---------------------------------------------------
    def aligned_spans(self, part: int) -> List[Tuple[str, float, float, int]]:
        """A worker's spans mapped onto the driver clock."""
        off = self.offsets[part]
        return [
            (phase, t - off, dur, rnd)
            for phase, t, dur, rnd in self.workers[part]["spans"]
        ]

    def rounds(self) -> List[dict]:
        """Per-exchange ring telemetry merged across workers: global
        ``k``/``exports``/``spills``, summed byte volumes, each worker's
        undrained export bytes, and ``t`` -- when the last worker
        finished the exchange, in seconds since the flight epoch."""
        out = []
        for rows in zip(*(snap["rows"] for snap in self.workers)):
            row = {key: rows[0][key] for key in ("round", "k", "exports", "spills")}
            row["t"] = max(
                r["t"] - self.offsets[p] for p, r in enumerate(rows)
            ) - self.driver.t_start
            for key in ("export_bytes", "import_bytes"):
                row[key] = sum(r[key] for r in rows)
            row["occupancy"] = [r["occupancy"] for r in rows]
            out.append(row)
        return out

    # -- attribution -------------------------------------------------------
    @staticmethod
    def _tile(spans, phases) -> dict:
        """Bucket totals + coverage of one process's span list."""
        buckets = {p: 0.0 for p in phases}
        if not spans:
            return {"span_s": 0.0, "buckets": buckets, "coverage": 0.0}
        t0 = min(s[1] for s in spans)
        t1 = max(s[1] + s[2] for s in spans)
        for phase, _t, dur, _rnd in spans:
            buckets[phase] = buckets.get(phase, 0.0) + dur
        span = t1 - t0
        total = sum(buckets.values())
        return {
            "span_s": span,
            "buckets": buckets,
            "coverage": (total / span) if span > 0 else 1.0,
        }

    def attribution(self) -> dict:
        """The schema-versioned overhead-attribution document.

        Tiles each worker's and the driver's wall clock into the named
        phase buckets and states the measured *serial-equivalent
        fraction*: the share of the run's wall-clock span that went to
        ``compute`` -- event processing a serial run would also have
        done -- summed across workers.  Everything above it is the
        partitioning overhead (serialization, ring traffic, peer
        signalling, waiting for peers); with fewer cores than workers
        the fraction is bounded by ``cores / nworkers`` plus
        timeslicing, which the report makes visible instead of leaving
        to folklore.
        """
        from ..trace.pdes_report import SCHEMA

        drv = self._tile(self.driver.spans, DRIVER_PHASES)
        wall = self.driver.t_end - self.driver.t_start
        workers = []
        compute_total = 0.0
        for snap in self.workers:
            p = snap["part"]
            tile = self._tile(self.aligned_spans(p), WORKER_PHASES)
            tile.update(
                part=p,
                steps=snap["steps"],
                clock_offset_s=self.offsets[p],
                ring=snap["ring"],
            )
            compute_total += tile["buckets"]["compute"]
            workers.append(tile)
        return {
            "schema": SCHEMA,
            "kind": "pdes-attribution",
            "meta": dict(self.meta),
            "driver": {**drv, "wall_s": wall},
            "workers": workers,
            "rounds": self.rounds(),
            "serial_equivalent": {
                "compute_s": compute_total,
                "wall_s": wall,
                "fraction": (compute_total / wall) if wall > 0 else 0.0,
            },
        }

    # -- chrome export -----------------------------------------------------
    def to_chrome_events(self) -> List[dict]:
        """Host wall-clock process groups: the driver plus one per worker.

        Timestamps are microseconds since the driver's flight epoch
        (``DriverFlight.t_start``), so the groups interleave correctly
        after clock alignment.  Appended to the simulated-time groups of
        :func:`repro.trace.chrome.to_chrome_events` this is the one
        unified trace the report links.
        """
        t0 = self.driver.t_start
        out: List[dict] = [
            _meta(PID_FLIGHT_DRIVER, "pdes driver (wall clock)"),
            _meta(PID_FLIGHT_DRIVER, "phases", tid=0, kind="thread_name"),
        ]
        for phase, t, dur, rnd in self.driver.spans:
            out.append(_span(PID_FLIGHT_DRIVER, phase, t - t0, dur, rnd))
        for row in self.rounds():
            out.append({
                "name": "ring export bytes", "cat": "pdes-flight", "ph": "C",
                "ts": row["t"] * 1e6, "pid": PID_FLIGHT_DRIVER,
                "tid": 0, "args": {"value": row["export_bytes"]},
            })
        for snap in self.workers:
            p = snap["part"]
            pid = PID_FLIGHT_WORKER0 + p
            out.append(_meta(pid, f"pdes worker {p} (wall clock)"))
            out.append(_meta(pid, "phases", tid=0, kind="thread_name"))
            for phase, t, dur, rnd in self.aligned_spans(p):
                out.append(_span(pid, phase, t - t0, dur, rnd))
        return out

    def merge_into_tracer(self, tracer) -> None:
        """Fold worker telemetry into a driver-side tracer.

        Worker *simulated-time* trace events join the tracer's memory
        sink (rank/NIC lanes are partition-disjoint, so this rebuilds
        the serial-style timeline); worker kernel progress samples land
        in ``tracer.worker_progress`` under a ``worker<p>`` label so the
        metrics table can tell the processes' wall-clock columns apart
        (the ``rank_group`` column).
        """
        from ..trace.tracer import TraceEvent

        for snap in self.workers:
            label = f"worker{snap['part']}"
            # Always set the key, even with no samples: the metrics row
            # shape (one bin set per worker) must not depend on how far
            # a worker happened to get.
            tracer.worker_progress[label] = list(snap["progress"])
            for ev in snap["trace_events"]:
                tracer._record(TraceEvent(*ev))


def _meta(pid: int, name: str, tid: int = 0, kind: str = "process_name") -> dict:
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def _span(pid: int, phase: str, t_rel: float, dur: float, rnd: int) -> dict:
    return {
        "name": phase, "cat": "pdes-flight", "ph": "X",
        "ts": t_rel * 1e6, "dur": dur * 1e6, "pid": pid, "tid": 0,
        "args": {"round": rnd},
    }
