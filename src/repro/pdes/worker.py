"""The per-partition worker of the parallel DES engine.

Each worker is a forked OS process owning one :class:`NodePartition`
block of the simulated machine.  It builds the *full* serial stack -- a
fresh :class:`~repro.mpi.world.World` with the complete machine shape
and inboxes for every rank -- but launches rank programs only for its
owned ranks and installs the machine's ``on_remote_export`` hook, so:

* all intra-partition simulation (local transfers, NIC contention,
  mailbox routing, same-node fast paths) runs through the unchanged
  serial kernel;
* a packet bound for a foreign rank is captured at its packet-on-wire
  instant and shipped to the owning partition instead of being
  simulated in flight; that partition replays the arrival at the
  bit-identical timestamp via
  :meth:`~repro.machine.topology.Machine.inject_arrival`.

The workers run the window protocol of :mod:`repro.pdes.engine` among
themselves.  Each *exchange* (one per window) is seven phases, the
flight recorder's buckets:

1. ``import-drain`` -- fetch the batches peers announced last exchange
   (a ring record or spilled bytes) and inject them with this
   partition's own re-entering exports;
2. ``compute`` -- pump the serial kernel up to this window's horizon;
3. ``export-serialize`` -- per destination, note the earliest arrival
   and encode the window's exports;
4. ``ring-push`` -- push each encoded batch into its peer's ring;
5. ``peer-signal`` -- store the round header, then frame every peer
   (the write is the memory fence, see :mod:`repro.pdes.rings`);
6. ``barrier-wait`` -- wait for every peer's frame of this exchange;
7. ``horizon`` -- apply :func:`window_rule` to all headers: the same
   pure function of the same inputs everywhere, so every worker agrees
   on the next horizons, K, the drain and the stop.

Forking -- not spawning -- matters: rank programs are closures that
never need to be pickled; only per-window packet batches cross between
processes.
"""

from __future__ import annotations

import heapq
import math
import os
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..core.config import MailboxConfig
from ..core.context import YgmContext
from ..core.stats import aggregate
from ..mpi import World
from ..sim.errors import DeadlockError
from .rings import (
    DESC_NONE, PeerLinks, PeerLost, RingError, encode_exports, push_encoded,
    recv_batch,
)

#: Verbs of the driver<->worker control pipe.
CMD_CLOCK = "clock"  # flight recorder: echo perf_counter for clock alignment
CMD_START = "start"
REP_READY = "ready"
REP_CLOCK = "clock"
REP_RESULT = "result"
REP_DEADLOCK = "deadlock"
REP_ERROR = "error"

_INF = math.inf
#: How long a waiting worker sweeps its pipes before it sleeps (seconds).
#: On pdes_cc (2 workers) this covers the 99th percentile of per-window
#: waits (1.7-7.7 ms); a longer wait pays one wakeup (~0.1 ms) on top.
SPIN_SECONDS = 0.01


@dataclass
class WorkerSpec:
    """Everything a forked worker needs (inherited, never pickled)."""

    part: int
    partition: Any  # NodePartition
    machine_config: Any
    scheme: Any  # resolved RoutingScheme object
    seed: int
    default_config: MailboxConfig
    rank_main: Any
    tiebreaker: Any = None
    segment: Any = None  # the run's ShmTransport, shared via fork
    pipes: Any = None  # (src, dst) -> (read fd, write fd) per peer pipe
    window_batch: int = 0  # K; 0 = adaptive
    #: Log window/barrier/complete trace records for the driver to replay.
    log_windows: bool = False
    #: A :class:`~repro.pdes.flight.FlightSpec`, or ``None`` (the
    #: default): flight recording off, zero-cost on the worker hot path.
    flight: Any = None


def window_rule(headers, lookahead: float, k: int, adapt: bool):
    """The next window from one exchange's round headers.

    ``headers``: every partition's :class:`~repro.pdes.rings.RoundHeader`
    in partition order; ``k``: the window-batch factor they ran with.
    With ``adapt`` K first moves: 1 after a spill, doubled (cap 512)
    after an export-free exchange, halved (floor 1) after an exporting
    one.  Each *active* partition's earliest activity ``e_p`` -- next
    event or earliest arrival anyone just exported to it -- gives ``H_p
    = min(A_p + L, e_p + K*L)``; the others get ``t_min + L``.  Returns
    ``(k, t_min, base, horizons)``, ``horizons = None`` on deadlock.
    """
    if adapt:
        # Volume-driven K: double after an export-free exchange (quiet
        # phase -- barriers are pure overhead), halve after an exporting
        # one, collapse to 1 the moment a batch outgrew its ring.  Chatty
        # phases run at the provably-tight single window while quiet
        # phases collapse barriers ~K-fold.
        if any(h.spills for h in headers):
            k = 1
        elif not any(h.exports for h in headers):
            k = min(k * 2, 512)
        else:
            k = max(1, k // 2)
    nparts = len(headers)
    # Earliest activity e_p per *active* partition: its next local event
    # or earliest arrival anyone just exported to it.  Completed
    # partitions are frozen at their finish instant -- their leftovers
    # are post-completion chains that cannot export (a packet's wire
    # instant never trails its sender's finish), so they are deferred to
    # the final drain rather than allowed to pin the horizon forever.
    nxt: Dict[int, float] = {}
    for p, h in enumerate(headers):
        if h.remaining > 0:
            e_p = min(h.next_t, min(q.arrivals[p] for q in headers))
            if e_p != _INF:
                nxt[p] = e_p
    if not nxt:
        return k, None, None, None
    t_min = min(nxt.values())
    base = _INF if nparts == 1 else t_min + lookahead
    if nparts == 1 or k <= 1:
        return k, t_min, base, [base] * nparts
    # Batched per-partition horizons: everything below min(A_p + L, e_p +
    # K*L) is provably independent of this exchange's other windows
    # *given* the workers' dynamic first-export clamp (see the engine
    # docstring for the two-hop reflection argument).  K = 1 reduces
    # exactly to the common base horizon.
    horizons = []
    for p in range(nparts):
        e_p = nxt.get(p)
        if e_p is None:
            horizons.append(base)
            continue
        a_p = min((e for q, e in nxt.items() if q != p), default=_INF)
        horizons.append(min(a_p + lookahead, e_p + k * lookahead))
    return k, t_min, base, horizons


class CausalityError(RuntimeError):
    """An imported packet arrived behind the partition's clock.

    This cannot happen for conforming runs (the window protocol bounds
    every import below by the horizon); it indicates a protocol bug and
    is raised loudly instead of silently corrupting the timeline.
    """


class PartitionRuntime:
    """One partition's simulation state inside a worker process."""

    def __init__(self, spec: WorkerSpec):
        self.part = part = spec.part
        self.partition = spec.partition
        self.nparts = nparts = spec.partition.nparts
        #: While injecting an imported arrival, the wire instant the
        #: serial run would have pushed it at (see the tiebreaker below).
        self._push_override: Optional[float] = None
        if nparts > 1:
            tiebreaker = self._make_push_order_tiebreaker(spec.tiebreaker)
        else:
            tiebreaker = spec.tiebreaker
        #: The :class:`~repro.pdes.flight.WorkerFlight` buffer, or
        #: ``None``.  Checked once, at the end of construction, to wrap
        #: the window phases: disabled is the default and then the loop
        #: runs no flight-recorder code at all (asserted by
        #: tests/pdes/test_flight.py).
        self.flight = None
        flight_tracer = None
        if spec.flight is not None:
            from ..trace import Tracer
            from .flight import WorkerFlight

            # In-worker tracer: simulated-time events + kernel progress
            # samples, buffered locally and shipped with the result.
            # Tracer hooks only *read* simulated state, so the run stays
            # bit-identical (the flight differentials enforce it).
            flight_tracer = Tracer(categories=spec.flight.categories)
            self.flight = WorkerFlight(part, flight_tracer)
        self.world = World(
            spec.machine_config, seed=spec.seed, tracer=flight_tracer,
            tiebreaker=tiebreaker,
        )
        self.sim = self.world.sim
        self.machine = self.world.machine
        self.net = spec.machine_config.net
        self.owned: List[int] = list(spec.partition.ranks_of(part))
        self._owned_nodes = set(spec.partition.nodes_of(part))

        # -- the mesh: per destination partition, this window's exports
        # (local wire order), their encoding and then descriptor --
        self.peers = [q for q in range(nparts) if q != part]
        self.segment = spec.segment
        # Spin only with a core per worker.  With more workers than cores
        # a spinning waiter holds the core a peer needs to finish its
        # window: pdes_cc at 3 and 4 workers on 2 cores ran 3.6-5.0x
        # slower spinning than blocking (EXPERIMENTS.md, "Parallel DES").
        cores = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))
        spin_s = SPIN_SECONDS if nparts <= len(cores(0)) else 0.0
        self.links = PeerLinks(part, spec.pipes, spin_s)
        self._outbox: List[List[tuple]] = [[] for _ in range(nparts)]
        self._scratch = [bytearray() for _ in range(nparts)]
        self._batches: List[Any] = [None] * nparts
        self._arrivals = [_INF] * nparts
        self._self_imports: List[tuple] = []
        self._descs: Dict[int, tuple] = {}  # peer -> last announced batch
        self._n_exports = self._n_spills = 0

        # -- window state: identical in every worker (same rule, headers) --
        self.lookahead = lookahead = self.net.min_wire_latency
        self.adaptive = spec.window_batch == 0
        self.k = spec.window_batch or 1
        self.horizon: Optional[float] = None  # exchange 0 only reports
        self.drain = False
        self.t_final = self.next_t = None
        self.seq = 0  # exchanges published (the header seq)
        self.rounds = self.exported_packets = self.spilled_batches = 0
        self.max_window_batch = 1
        self.verdict: Optional[tuple] = None  # (blocked, latest): deadlock
        self.log: Optional[List[tuple]] = [] if spec.log_windows else None
        self._window: Optional[tuple] = None

        #: Live pump limit for the current window.  :meth:`pump` seeds it
        #: with the window's horizon; the exporter hook *tightens* it as
        #: packets hit the wire (see below), which is what makes the
        #: batched per-partition horizons safe.
        self._limit: float = math.inf
        outbox = self._outbox
        reflect = 2.0 * lookahead
        owner_of_rank = spec.partition.owner_of_rank

        def exporter(t_wire, src, dst, nbytes, packet):
            owner = owner_of_rank(dst)
            outbox[owner].append((t_wire, src, dst, nbytes, packet))
            # Dynamic clamp: once this partition has influenced the
            # outside world (first export at wire instant w), nothing it
            # does beyond w + 2L is safe -- another partition may react
            # to that export and send something back arriving as early
            # as w + 2L.  An export whose destination we own ourselves
            # re-enters at w + L exactly, so it clamps a full L tighter.
            # Under the common horizon H = t_min + L both bounds are
            # >= H (w >= t_min), i.e. the clamp is provably inert at
            # window_batch=1 and only bites when the window rule hands
            # out batched (> t_min + L) horizons.
            limit = t_wire + (lookahead if owner == part else reflect)
            if limit < self._limit:
                self._limit = limit
            return True

        # Every inter-node packet -- cross-partition or not -- leaves via
        # the export hook and re-enters through :meth:`inject`, so all
        # remote arrivals at one timestamp are sequenced under the single
        # canonical key ``(t_arr, t_wire, src)``.  Exporting only the
        # cross-partition subset would interleave window-injected
        # arrivals with natively-simulated ones and break the serial
        # delivery order whenever two sources' packets land on the same
        # rank at the same instant (routine in rank-symmetric apps).  In
        # single-partition mode there is no window exchange to re-inject
        # at, so the native in-flight path runs untouched (exactly the
        # serial kernel).
        if nparts > 1:
            self.machine.on_remote_export = exporter

        # -- launch owned rank programs (same wrapping as YgmWorld.run +
        # World.run, restricted to the owned ranks in world-rank order so
        # partition-relative startup order matches the serial run) --
        self.contexts: List[YgmContext] = []
        self.finish_times: Dict[int, float] = {}
        self.remaining = len(self.owned)
        world = self.world
        rank_main = spec.rank_main
        scheme = spec.scheme
        # Each forked worker owns a private copy of the scheme object;
        # adaptive schemes read *this* worker's machine (they only ever
        # consult the sending node's NIC, which the owning partition
        # simulates natively -- see repro.core.routing.adaptive).
        scheme.bind_machine(self.machine)
        default_config = spec.default_config

        def make_wrapper(r: int):
            def wrapper():
                ctx = YgmContext(world.make_context(r), scheme, default_config)
                self.contexts.append(ctx)
                value = yield from rank_main(ctx)
                self.finish_times[r] = world.sim.now
                return value

            return wrapper()

        self.procs = dict(
            zip(
                self.owned,
                world.sim.process_batch(
                    (make_wrapper(r) for r in self.owned),
                    names=[f"rank{r}" for r in self.owned],
                ),
            )
        )

        #: Instant the last owned rank program completed (succeeded *or*
        #: failed -- the serial stop rule counts both), None while live.
        self.done_at: Optional[float] = None

        def finished(_ev) -> None:
            self.remaining -= 1
            if self.remaining == 0:
                self.done_at = self.sim.now

        for p in self.procs.values():
            p.attach(finished)

        self.phases = (
            self.import_batches, self.advance, self.serialize_exports,
            self.push_exports, self.signal_peers, self.wait_peers,
            self.next_window,
        )
        if self.flight is not None:
            self.phases = self.flight.instrument(self, self.phases)

    def _make_push_order_tiebreaker(self, user):
        """Order same-timestamp events by *push time* -- the serial order.

        The serial kernel breaks timestamp ties by sequence number,
        i.e. by heap-push order; and since pushes happen at the
        simulator's (nondecreasing) current time, that order is exactly
        ``(push time, push index)``.  A partitioned run can reproduce
        the push times: native pushes use the local clock (matching
        serial, because intra-partition event order is preserved), and
        an injected arrival uses the wire instant its serial push
        (``_in_flight``'s timeout) would have happened at.  Keying the
        heap this way restores the serial interleaving of an import
        against local events pushed *after* its wire instant but landing
        on the same timestamp -- the one tie the window's injection
        sequence numbers get backwards.  (In a serial-equivalent run the
        key is provably inert: push time is nondecreasing in push index,
        so sorting by it never reorders.)  A user tiebreaker (schedule
        fuzzing) still scrambles within each push instant.
        """

        def tiebreaker(at, seq):
            push_time = self._push_override
            if push_time is None:
                push_time = self.world.sim._now
            if user is not None:
                return (push_time, user(at, seq))
            return push_time

        return tiebreaker

    # -- stepping ----------------------------------------------------------
    def inject(self, imports: List[tuple]) -> None:
        """Enqueue imported packet arrivals at their exact timestamps.

        Injection order is wire order: a *stable* sort by ``t_wire``.
        :meth:`import_batches` hands over each partition's exports in
        that partition's local wire order (which the engine provably
        preserves), concatenated in partition order -- so after the
        stable sort, same-instant packets from one partition keep their
        exact serial order, and the only tie resolved arbitrarily (by
        partition index) is the exact-same-float-instant collision
        *across* partitions, which serial resolves by an unknowable
        global heap artifact.  Each arrival is pushed under its wire
        instant via the push-order tiebreaker, and ``t_arr`` is computed
        with the identical memoised ``remote_delay`` expression the
        serial in-flight path uses, so both the timestamp and its tie
        rank are reproduced.
        """
        if not imports:
            return
        costs = self.net.packet_costs
        imports = sorted(imports, key=lambda e: e[0])
        machine = self.machine
        inboxes = self.world.inboxes
        now = self.sim.now
        try:
            for t_wire, src, dst, nbytes, packet in imports:
                if t_wire + costs(nbytes)[1] < now:
                    raise CausalityError(
                        f"partition {self.part}: import {src}->{dst} arrives "
                        f"at t={t_wire + costs(nbytes)[1]!r}, behind local "
                        f"clock t={now!r}"
                    )
                self._push_override = t_wire
                machine.inject_arrival(
                    t_wire, src, dst, nbytes, packet, inboxes[dst].deliver
                )
        finally:
            self._push_override = None

    def pump(self, limit: float) -> Optional[float]:
        """Process events strictly below ``limit``, stopping at completion.

        The serial :meth:`~repro.sim.kernel.Simulator.run_until_complete`
        stop rule, windowed: the event that finishes the last owned rank
        program ends the pump mid-window.  The same simulated timestamp
        is then flushed (``run_until_complete`` would keep popping those
        events while *other* partitions' ranks are still live), so any
        packet already committed to the wire at the finish instant still
        exports instead of being stranded in a frozen heap.
        """
        sim = self.sim
        heap = sim._heap
        pop = heapq.heappop
        self._limit = limit
        while heap and heap[0][0] < self._limit:
            if self.remaining <= 0 and heap[0][0] != sim._now:
                break
            item = pop(heap)
            sim._now = item[0]
            sim._steps += 1
            if sim.tracer is not None:
                sim._trace_step(sim.tracer, item[-1])
            item[-1]._process()
        if not heap and self.remaining > 0 and limit == math.inf:
            # Single-partition mode mirrors the serial deadlock check; in
            # windowed mode an empty heap just means "waiting for
            # imports" and the window rule rules on global deadlock.
            raise DeadlockError(self.sim._live_processes, self.sim.now)
        return heap[0][0] if heap else None

    # -- the window loop ---------------------------------------------------
    def run_windows(self) -> None:
        """Run exchanges until the window rule says stop (or deadlock)."""
        drain_imports, compute, serialize, push, signal, wait, rule = (
            self.phases
        )
        go = True
        while go:
            drain_imports()
            compute()
            serialize()
            push()
            signal()
            wait()
            go = rule()

    def import_batches(self) -> None:
        imports: List[tuple] = []
        for q in range(self.nparts):
            if q == self.part:
                imports += self._self_imports
            else:
                imports += recv_batch(
                    self.segment.ring(q, self.part),
                    self._descs.get(q, DESC_NONE),
                )
        self.inject(imports)

    def advance(self) -> None:
        horizon, heap = self.horizon, self.sim._heap
        # Exchange 0 only reports (no horizon yet): it learns t_min.
        if horizon is None or (self.remaining <= 0 and not self.drain):
            self.next_t = heap[0][0] if heap else None
        elif self.drain:
            self.next_t = self.sim.run_window(horizon)
        else:
            self.next_t = self.pump(horizon)

    def serialize_exports(self) -> None:
        """Group this window's exports per destination and encode them."""
        costs = self.net.packet_costs
        outbox = self._outbox
        n = 0
        for q, batch in enumerate(outbox):
            n += len(batch)
            # The serial in-flight path's arrival expression.
            self._arrivals[q] = min(
                (e[0] + costs(e[3])[1] for e in batch), default=_INF
            )
            if batch:
                outbox[q] = []
            if q == self.part:
                self._self_imports = batch
            else:
                self._batches[q] = encode_exports(batch, self._scratch[q])
        self._n_exports = n

    def push_exports(self) -> None:
        """Push every encoded batch into the ring towards its partition."""
        spills = 0
        for q in self.peers:
            desc = push_encoded(
                self.segment.ring(self.part, q), self._scratch[q],
                self._batches[q],
            )
            if desc[0] == "spill":
                spills += 1
            self._batches[q] = desc
        self._n_spills = spills

    def signal_peers(self) -> None:
        """Publish this exchange's round header, then frame every peer."""
        self.seq += 1
        next_t, done_at = self.next_t, self.done_at
        self.segment.publish(self.part, (
            self.seq, _INF if next_t is None else next_t, self.remaining,
            _INF if done_at is None else done_at, self.sim.now,
            self.sim.steps, self._n_exports, self._n_spills, *self._arrivals,
        ))
        for q in self.peers:
            self.links.post(q, self._batches[q])

    def wait_peers(self) -> None:
        self._descs = self.links.gather()

    def next_window(self) -> bool:
        """Apply the window rule to this exchange's headers; False = stop."""
        headers = [self.segment.header(q, self.seq) for q in range(self.nparts)]
        for q, h in enumerate(headers):
            if h.seq != self.seq:
                raise RingError(
                    f"partition {self.part}: partition {q}'s round header is "
                    f"from exchange {h.seq}, expected {self.seq}"
                )
        exports = sum(h.exports for h in headers)
        self.exported_packets += exports
        self.spilled_batches += sum(h.spills for h in headers)
        if self.drain:
            # Serial keeps popping events until the globally last rank
            # finishes; the drain replays that tail.
            if exports == 0 and not any(h.next_t < self.t_final for h in headers):
                if self.log is not None:
                    self.log.append((
                        self.t_final, "complete", "pdes driver",
                        {"rounds": self.rounds, "exported": self.exported_packets},
                    ))
                return False
        else:
            if self._window is not None:
                self._log_window(headers, exports)
            if sum(h.remaining for h in headers) == 0:
                self.drain = True
                self.t_final = self.horizon = max(h.done_at for h in headers)
            else:
                k, t_min, base, horizons = window_rule(
                    headers, self.lookahead, self.k,
                    self.adaptive and self.nparts > 1 and self.seq > 1,
                )
                if horizons is None:
                    self.verdict = (
                        sum(h.remaining for h in headers),
                        max(h.now for h in headers),
                    )
                    return False
                self.k = k
                self.horizon = horizons[self.part]
                self.max_window_batch = max(self.max_window_batch, k)
                if self.log is not None:
                    active = sum(1 for h in headers if h.remaining > 0)
                    self._window = (t_min, base, k, active)
        self.rounds += 1
        return True

    def _log_window(self, headers, exports: int) -> None:
        t_min, base, k, active = self._window
        rnd = self.rounds
        self.log.append((
            t_min, "window", "pdes driver",
            {"round": rnd, "horizon": base, "batch": k, "active": active,
             "exports": exports},
        ))
        for p, h in enumerate(headers):
            self.log.append((
                h.now, "barrier", f"partition {p}",
                {"round": rnd, "next_t": None if h.next_t == _INF else h.next_t,
                 "remaining": h.remaining, "steps": h.steps},
            ))

    def ring_endpoints(self) -> Optional[dict]:
        """This process's RingStats per ring ``(src, dst)`` it produces
        into or consumes (``None`` with one partition: no rings)."""
        seg, part = self.segment, self.part
        rings = [(part, q) for q in self.peers] + [(q, part) for q in self.peers]
        if not rings:
            return None
        return {key: seg.ring(*key).stats.as_dict() for key in rings}

    # -- result assembly ---------------------------------------------------
    def result(self) -> tuple:
        """Per-rank outcome of this partition, all picklable."""
        contexts = sorted(self.contexts, key=lambda c: c.world_rank)
        per_rank_stats = {
            ctx.world_rank: aggregate(mb.stats for mb in ctx.mailboxes)
            for ctx in contexts
        }
        term = {
            ctx.world_rank: [
                (mb._app_kind[1], mb.term_totals, mb.term_contribution)
                for mb in ctx.mailboxes
            ]
            for ctx in contexts
        }
        values = {
            r: (p.value if p.triggered else None) for r, p in self.procs.items()
        }
        transport = {
            "tx_busy": {
                n: self.machine.nic_tx[n].busy_time for n in self._owned_nodes
            },
            "rx_busy": {
                n: self.machine.nic_rx[n].busy_time for n in self._owned_nodes
            },
            "remote_packets": self.machine.remote_packets,
            "remote_bytes": self.machine.remote_bytes,
            "local_packets": self.machine.local_packets,
            "local_bytes": self.machine.local_bytes,
        }
        return (
            REP_RESULT,
            self.part,
            {
                "values": values,
                "done_at": self.done_at,
                "finish_times": dict(self.finish_times),
                "per_rank_stats": per_rank_stats,
                "term": term,
                "transport": transport,
                "steps": self.sim.steps,
                "rounds": self.rounds,
                "exported_packets": self.exported_packets,
                "spilled_batches": self.spilled_batches,
                "max_window_batch": self.max_window_batch,
                "ring": self.ring_endpoints(),
                "log": self.log,
                # Flight telemetry rides the control pipe with the final
                # result -- out of band, never through the data rings.
                "flight": (
                    self.flight.snapshot(self)
                    if self.flight is not None
                    else None
                ),
            },
        )


def worker_main(conn, spec: WorkerSpec) -> None:
    """Forked-process entry point: build the partition, run the windows.

    The control pipe carries only the start handshake (plus the flight
    recorder's clock probes) and the final reply: the result, the
    deadlock verdict, or the traceback of an internal error.
    """
    runtime = None
    try:
        runtime = PartitionRuntime(spec)
        conn.send((REP_READY, spec.part))
        while (cmd := conn.recv()[0]) != CMD_START:
            if cmd != CMD_CLOCK:
                raise ValueError(f"unknown PDES command {cmd!r}")
            conn.send((REP_CLOCK, spec.part, perf_counter()))
        runtime.run_windows()
        if runtime.verdict is not None:
            conn.send((REP_DEADLOCK, spec.part, *runtime.verdict))
        else:
            conn.send(runtime.result())
    except PeerLost:
        # A peer died mid-exchange.  Its own exit (or error report) is
        # what the driver must see, so wait silently to be torn down.
        try:
            conn.recv()
        except (EOFError, OSError):
            pass
    except EOFError:
        return  # driver went away; nothing to report to
    except BaseException:
        try:
            conn.send((REP_ERROR, spec.part, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        if runtime is not None:
            runtime.links.close()
        try:
            spec.segment.close()
        except BufferError:  # pragma: no cover - leaked view; best effort
            pass
        try:
            conn.close()
        except OSError:
            pass
