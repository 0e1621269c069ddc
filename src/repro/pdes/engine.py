"""The conservative parallel-DES engine (peer-to-peer window protocol).

One big simulation, partitioned by node across forked worker processes
(:mod:`repro.pdes.worker`), each running the unchanged serial kernel
over its node block.  The workers advance in *windows* and decide every
window among themselves:

1. at the end of a window each partition sends its exported packets
   straight to the workers owning their destination ranks and publishes
   a round header: next event, live ranks, and per destination the
   earliest arrival among those packets;
2. every worker applies the same pure rule to all headers
   (:func:`~repro.pdes.worker.window_rule`): partition ``p``'s earliest
   activity ``e_p`` gives ``H_p = min(A_p + L, e_p + K*L)``, with
   ``A_p`` the minimum ``e_q`` over the other active partitions, ``L``
   the lookahead (:attr:`~repro.machine.netmodel.NetworkModel.
   min_wire_latency`) and ``K`` the window-batch factor (``K = 1``: the
   common horizon ``t_min + L``; ``window_batch=0``, the default, adapts
   it to the traffic);
3. each partition injects its imports at bit-identical arrival
   timestamps and processes every event strictly below ``H_p``,
   *dynamically clamped* by its export hook: after the partition's first
   export of the window at wire instant ``w`` it stops at ``w + 2L``
   (the earliest instant the outside world's reaction to that export
   could arrive back), and after its first export *to itself* at
   ``w_s`` it stops at ``w_s + L`` (such a packet re-enters directly).
   Any import generated this window by another partition arrives at
   ``>= A_p + L >= H_p``; chains that pass through this partition's own
   influence arrive ``>= w + 2L`` (or ``w_s + L``) -- so nothing a
   partition processes can precede an import it has yet to see
   (conservative synchronisation, no rollback), while a partition with
   no nearby neighbours or no outbound traffic runs up to ``K`` windows
   between exchanges.  With ``window_batch=0`` ``K`` doubles after an
   export-free exchange and halves (to a floor of 1) after one that
   exported, so chatty phases run at the provably-tight single window
   while quiet phases collapse exchanges ~``K``-fold.

Batches move through :mod:`repro.pdes.rings`: shared-memory SPSC rings
per worker pair in the :mod:`repro.pdes.wire` format, and a per-pair
pipe carrying one frame per window that announces the batch and wakes
the peer.  Every payload takes this one path: a value the serde codec
refuses crosses as a pickled envelope inside the wire format.

The driver is off the per-window path: it forks and releases the
workers, supervises them -- a stall (no new round header within
``window_timeout``) names the partitions furthest behind and the
congested rings, a crash the traceback or the dead worker's undelivered
batches, a deadlock is the workers' common verdict -- and assembles the
results.  A partition whose ranks all completed freezes at that instant
(the serial ``run_until_complete`` rule); once all have, the events
below ``T_final = max(local finishes)`` are drained, per-rank results
merge into a :class:`~repro.core.context.YgmResult`, and per-mailbox
quiescence contributions are audited against the agreed totals.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from time import perf_counter
from typing import Any, Callable, Dict, Generator, List, Optional, Union

from ..core.config import MailboxConfig
from ..core.context import YgmResult
from ..core.routing import RoutingScheme, get_scheme
from ..core.stats import aggregate
from ..machine import MachineConfig, bench_machine
from ..sim.errors import DeadlockError
from .partition import NodePartition
from .rings import (
    DEFAULT_RING_BYTES, RingError, ShmTransport, close_fds, merge_stats,
    open_pipes,
)
from .wire import decode_batch
from .worker import (
    CMD_CLOCK,
    CMD_START,
    REP_CLOCK,
    REP_DEADLOCK,
    REP_ERROR,
    REP_READY,
    REP_RESULT,
    WorkerSpec,
    worker_main,
)


class PdesError(RuntimeError):
    """A protocol failure in the parallel engine (not a simulation error)."""


class PdesStallError(PdesError):
    """Partitions stopped publishing round headers within the timeout.

    ``stalled`` lists the partitions furthest behind (by the per-worker
    round counters in the headers); ``detail`` names the congested
    ring(s) from their occupancy and refusal counters, so a stall
    verdict says *where* the traffic was sitting, not just who went
    quiet.
    """

    def __init__(
        self, stalled: List[int], timeout: float, round_no: int,
        detail: str = "",
    ):
        self.stalled = stalled
        super().__init__(
            f"PDES partition(s) {stalled} stalled: no new round header "
            f"within {timeout:.1f}s (window round {round_no}); workers killed"
            + detail
        )


class PdesWorld:
    """A :class:`~repro.core.YgmWorld` lookalike running the simulation
    partitioned across ``workers`` processes.

    The result is bit-identical to the serial ``YgmWorld.run`` -- same
    values, timestamps, delivery orders and statistics -- which the
    ``tests/pdes`` conformance battery enforces across every app,
    routing scheme and partition count.
    """

    def __init__(
        self,
        machine: Union[MachineConfig, int],
        scheme: Union[str, RoutingScheme] = "nlnr",
        seed: int = 0,
        mailbox_capacity: int = MailboxConfig().capacity,
        cores_per_node: int = 8,
        tracer=None,
        tiebreaker=None,
        workers: int = 2,
        window_timeout: float = 120.0,
        transport: str = "shm",
        window_batch: Optional[int] = None,
        ring_bytes: Optional[int] = None,
        flight: Any = False,
    ):
        if isinstance(machine, int):
            machine = bench_machine(nodes=machine, cores_per_node=cores_per_node)
        self.machine_config = machine
        self.tracer = tracer
        self.tiebreaker = tiebreaker
        self.seed = seed
        if isinstance(scheme, str):
            scheme = get_scheme(scheme, machine.nodes, machine.cores_per_node)
        elif (scheme.nodes, scheme.cores) != (machine.nodes, machine.cores_per_node):
            raise ValueError("routing scheme shape does not match the machine")
        self.scheme = scheme
        self.default_config = MailboxConfig(capacity=mailbox_capacity)
        self.partition = NodePartition(
            machine.nodes, machine.cores_per_node, workers
        )
        self.lookahead = machine.net.min_wire_latency
        if not self.lookahead > 0.0:
            raise PdesError(
                f"conservative lookahead must be positive, got "
                f"{self.lookahead!r} (NetworkModel.min_wire_latency); a "
                "zero-latency interconnect admits no parallel window"
            )
        self.window_timeout = window_timeout
        # ``transport`` names the one export plane; it stays a keyword
        # only so callers that spell it out keep working.
        if transport != "shm":
            raise PdesError(
                f"unknown PDES transport {transport!r} (the shared-memory "
                "ring mesh, 'shm', is the only one)"
            )
        if window_batch is None:
            window_batch = _env_int("PDES_WINDOW_BATCH", 0)
        if window_batch < 0:
            raise PdesError(
                f"window_batch must be >= 0 (0 selects the adaptive "
                f"policy), got {window_batch}"
            )
        #: Window-batch factor K; 0 = adaptive, 1 = the common horizon,
        #: k > 1 = up to k lookahead windows per exchange.
        self.window_batch = window_batch
        if ring_bytes is None:
            ring_bytes = _env_int("PDES_RING_BYTES", DEFAULT_RING_BYTES)
        self.ring_bytes = ring_bytes
        #: Flight-recorder spec (:class:`~repro.pdes.flight.FlightSpec`)
        #: or ``None``.  ``flight=True`` selects the default spec; off by
        #: default, in which case workers run the bare window loop and no
        #: flight-recorder code executes anywhere on the window path.
        self.flight_spec = None
        if flight:
            from .flight import FlightSpec

            self.flight_spec = (
                flight if isinstance(flight, FlightSpec) else FlightSpec()
            )
        #: The merged :class:`~repro.pdes.flight.FlightLog` of the last
        #: flight-recorded :meth:`run`, or ``None``.
        self.flight_log = None
        #: The run's shared segment (round headers + ring mesh).
        self._rings: Optional[ShmTransport] = None
        if tracer is not None:
            tracer.bind(
                nodes=machine.nodes, cores_per_node=machine.cores_per_node
            )
        #: :class:`~repro.pdes.rings.RingStats` dicts of the last run
        #: (``{"to_worker": [...], "from_worker": [...]}``, see
        #: :func:`_ring_stats`), gathered from the worker results so they
        #: stay readable post-run; ``None`` before the first run or with
        #: one worker.
        self.ring_stats: Optional[dict] = None
        #: Window-protocol counters of the last :meth:`run` (diagnostics).
        self.rounds = 0
        self.exported_packets = 0
        self.spilled_batches = 0
        self.max_window_batch = 1

    @property
    def nranks(self) -> int:
        return self.machine_config.nranks

    @property
    def nworkers(self) -> int:
        return self.partition.nparts

    # -- worker management -------------------------------------------------
    def _spawn(self, rank_main) -> tuple:
        ctx = multiprocessing.get_context("fork")
        conns, procs = [], []
        # Segment and pipes must exist before the fork: workers inherit
        # the one mapping (nothing is pickled, nothing re-attaches by
        # name), so only the driver's resource tracker registers it and
        # the single unlink in run()'s finally leaves it quiet.
        self._rings = ShmTransport(self.nworkers, self.ring_bytes)
        pipes = open_pipes(self.nworkers)
        log_windows = self.tracer is not None and self.tracer.wants("pdes")
        try:
            for p in range(self.nworkers):
                parent, child = ctx.Pipe()
                spec = WorkerSpec(
                    part=p,
                    partition=self.partition,
                    machine_config=self.machine_config,
                    scheme=self.scheme,
                    seed=self.seed,
                    default_config=self.default_config,
                    rank_main=rank_main,
                    tiebreaker=self.tiebreaker,
                    segment=self._rings,
                    pipes=pipes,
                    window_batch=self.window_batch,
                    log_windows=log_windows and p == 0,
                    flight=self.flight_spec,
                )
                proc = ctx.Process(
                    target=worker_main, args=(child, spec), daemon=True,
                    name=f"pdes-part{p}",
                )
                proc.start()
                child.close()
                conns.append(parent)
                procs.append(proc)
        except BaseException:
            self._kill(procs)
            self._teardown_rings()
            raise
        finally:
            # Only workers keep pipe ends: a dead peer must read as EOF.
            close_fds(fd for pair in pipes.values() for fd in pair)
        return conns, procs

    def _teardown_rings(self) -> None:
        rings, self._rings = self._rings, None
        if rings is None:
            return
        try:
            rings.close()
        except BufferError:  # pragma: no cover - leaked view; best effort
            pass
        finally:
            rings.unlink()

    def _kill(self, procs) -> None:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()

    def _recv(self, conns, procs, expect: str, round_no: int) -> List[tuple]:
        """One reply per worker, stall-, error- and deadlock-checked.

        Waits on all outstanding pipes at once and drains whichever are
        ready, so a crash is attributed to the partition that truly
        failed, not to whichever pipe came first in the polling order.
        The stall clock restarts whenever a worker publishes a new round
        header, so ``window_timeout`` bounds one window, not the run;
        when it fires, the partitions whose last header is oldest are
        named (``round_no``: the round to report before any header).
        """
        replies: List[Optional[tuple]] = [None] * len(conns)
        part_of = {id(conn): p for p, conn in enumerate(conns)}
        pending = set(range(len(conns)))
        deadline = time.monotonic() + self.window_timeout
        seqs = self._rings.progress()
        eof: List[int] = []
        grace: Optional[float] = None
        while pending:
            budget = deadline - time.monotonic()
            if grace is not None:
                budget = min(budget, grace - time.monotonic())
            ready = (
                multiprocessing.connection.wait(
                    [conns[p] for p in pending], timeout=budget
                )
                if budget > 0
                else []
            )
            if not ready:
                if eof:
                    break  # grace expired: report the silent deaths
                now = self._rings.progress()
                if now != seqs:  # the mesh still moves: restart the clock
                    seqs, deadline = now, time.monotonic() + self.window_timeout
                    continue
                low = min(seqs[p] for p in pending)
                stalled = sorted(p for p in pending if seqs[p] == low)
                detail = self._ring_note(stalled)
                self._kill(procs)
                raise PdesStallError(
                    stalled, self.window_timeout, max(low, round_no), detail
                )
            errors = []
            for conn in ready:
                p = part_of[id(conn)]
                try:
                    msg = conn.recv()
                except EOFError:
                    eof.append(p)
                    pending.discard(p)
                    continue
                if msg[0] == REP_ERROR:
                    errors.append(msg)
                elif msg[0] == REP_DEADLOCK:
                    self._kill(procs)
                    raise DeadlockError(msg[2], msg[3])
                elif msg[0] != expect:
                    self._kill(procs)
                    raise PdesError(
                        f"PDES partition {p}: expected {expect!r} reply, "
                        f"got {msg[0]!r}"
                    )
                replies[p] = msg
                pending.discard(p)
            if errors:
                # A real traceback always beats a bare EOF: name the
                # partition that actually failed, even if a sibling's
                # pipe collapsed first in the polling order.
                self._kill(procs)
                raise PdesError(
                    f"PDES partition {errors[0][1]} failed:\n{errors[0][2]}"
                )
            if eof and grace is None:
                # A worker died without a traceback.  Give its siblings
                # a short grace window: when the true failure is a crash
                # elsewhere (the usual cascade), its REP_ERROR is already
                # in flight and must win the attribution.
                grace = time.monotonic() + 1.0
        if eof:
            parts = sorted(eof)
            last = max(max(self._rings.progress()[p] for p in parts), round_no)
            self._kill(procs)
            raise PdesError(
                f"PDES partition(s) {parts} exited without a report "
                f"(window round {last})" + self._ring_note(parts, drain=True)
            ) from None
        return replies  # type: ignore[return-value]

    def _ring_note(self, parts: List[int], drain: bool = False) -> str:
        """Name the rings where ``parts``' traffic sits: congested import
        and export rings (a stall, read before the kill), or with
        ``drain`` the batches dead partitions left behind, drained and
        counted (never injected: their window never completed)."""
        mesh = self._rings.mesh
        notes = []
        for p in parts:
            peers = [q for q in range(self.nworkers) if q != p]
            if drain:
                notes.append(_drain_note(p, [mesh[p][q] for q in peers]))
                continue
            for q in peers:
                imp, exp = mesh[q][p], mesh[p][q]
                if imp.used or imp.refusals:
                    notes.append(
                        f"; partition {p} import ring from partition {q}: "
                        f"{imp.used} byte(s) unread of {imp.capacity} "
                        f"({imp.refusals} spill(s))"
                    )
                if exp.used:
                    notes.append(
                        f"; partition {p} export ring to partition {q}: "
                        f"{exp.used} byte(s) undelivered of {exp.capacity}"
                    )
        return "".join(notes)

    def _clock_sync(self, conns, procs) -> List[float]:
        """Handshake-estimate every worker's monotonic-clock offset.

        Flight recording only.  Ping-pongs ``CMD_CLOCK`` echoes on the
        control pipe (:data:`~repro.pdes.flight.CLOCK_PROBES` round
        trips per worker) and keeps the minimum-RTT midpoint estimate
        (:func:`~repro.pdes.flight.estimate_offset`), so the merger can
        map worker span timestamps onto the driver's clock.
        """
        from .flight import CLOCK_PROBES, estimate_offset

        offsets = []
        for p, conn in enumerate(conns):
            probes = []
            for _ in range(CLOCK_PROBES):
                t_send = perf_counter()
                conn.send((CMD_CLOCK,))
                if not conn.poll(self.window_timeout):
                    self._kill(procs)
                    raise PdesStallError([p], self.window_timeout, 0)
                rep = conn.recv()
                t_recv = perf_counter()
                if rep[0] != REP_CLOCK:
                    self._kill(procs)
                    raise PdesError(
                        f"PDES partition {p}: expected clock echo, "
                        f"got {rep[0]!r}"
                    )
                probes.append((t_send, rep[2], t_recv))
            offsets.append(estimate_offset(probes))
        return offsets

    # -- the run -------------------------------------------------------------
    def run(self, rank_main: Callable[..., Generator]) -> YgmResult:
        """Run ``rank_main(ctx)`` on every rank, partitioned; returns the
        same :class:`YgmResult` the serial ``YgmWorld.run`` would."""
        self.flight_log = self.ring_stats = None
        conns, procs = self._spawn(rank_main)
        fl = None
        offsets: List[float] = []
        try:
            self._recv(conns, procs, REP_READY, round_no=0)
            if self.flight_spec is not None:
                from .flight import DriverFlight

                offsets = self._clock_sync(conns, procs)
                fl = DriverFlight()
            for conn in conns:
                conn.send((CMD_START,))
            if fl is not None:
                t_go = perf_counter()
                fl.span("start", fl.t_start, t_go - fl.t_start, 0)
                t_wait = perf_counter()
            # The whole run happens here, among the workers.
            parts = [rep[2] for rep in self._recv(conns, procs, REP_RESULT, 0)]
            if fl is not None:
                fl.t_end = perf_counter()
                fl.span("fan-in", t_wait, fl.t_end - t_wait, 0)
        finally:
            self._kill(procs)
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass
            # Exactly one unlink, on every exit path -- normal, error,
            # stall kill, KeyboardInterrupt -- so no segment outlives
            # the run and the resource tracker stays quiet.
            self._teardown_rings()

        # Same rule, same headers: partition 0's window counters stand for all.
        first = parts[0]
        self.rounds = first["rounds"]
        self.exported_packets = first["exported_packets"]
        self.spilled_batches = first["spilled_batches"]
        self.max_window_batch = first["max_window_batch"]
        self.ring_stats = _ring_stats([part["ring"] for part in parts])
        for ts, name, track, args in first["log"] or ():
            self.tracer.instant(ts, "pdes", name, track, **args)
        result = self._assemble(parts)
        if fl is not None:
            from .flight import FlightLog

            self.flight_log = FlightLog(
                driver=fl,
                workers=[part["flight"] for part in parts],
                offsets=offsets,
                meta={
                    "workers": self.nworkers,
                    "rounds": self.rounds,
                    "lookahead": self.lookahead,
                    "window_batch": self.window_batch,
                    "max_window_batch": self.max_window_batch,
                    "exported_packets": self.exported_packets,
                    "spilled_batches": self.spilled_batches,
                    "nodes": self.machine_config.nodes,
                    "cores_per_node": self.machine_config.cores_per_node,
                    "elapsed_sim": result.elapsed,
                },
            )
            if self.tracer is not None:
                # Worker simulated-time events + progress samples join
                # the driver tracer (rank/NIC lanes are partition-
                # disjoint): metrics and Chrome exports then cover the
                # whole run, with per-process wall-clock rows tagged by
                # the rank_group column.
                self.flight_log.merge_into_tracer(self.tracer)
        return result

    # -- result assembly ---------------------------------------------------
    def _assemble(self, parts: List[dict]) -> YgmResult:
        nranks = self.nranks
        nodes = self.machine_config.nodes
        values: List[Any] = [None] * nranks
        finish_times: List[float] = [float("nan")] * nranks
        per_rank: List[Any] = [None] * nranks
        tx_busy: Dict[int, float] = {}
        rx_busy: Dict[int, float] = {}
        counters = {
            "remote_packets": 0, "remote_bytes": 0,
            "local_packets": 0, "local_bytes": 0,
        }
        term: Dict[int, list] = {}
        for part in parts:
            for r, v in part["values"].items():
                values[r] = v
            for r, t in part["finish_times"].items():
                finish_times[r] = t
            for r, stats in part["per_rank_stats"].items():
                per_rank[r] = stats
            term.update(part["term"])
            tx_busy.update(part["transport"]["tx_busy"])
            rx_busy.update(part["transport"]["rx_busy"])
            for key in counters:
                counters[key] += part["transport"][key]
        missing = [r for r in range(nranks) if per_rank[r] is None]
        if missing:
            raise PdesError(f"no partition reported ranks {missing}")
        # Serial elapsed is sim.now at the stop instant: the completion
        # event (success or failure) of the globally last rank.  Each
        # partition records exactly that instant locally as ``done_at``,
        # so the global stop is their max.  For all-success runs this
        # equals max(finish_times); unlike it, it stays finite when a
        # rank program died (its finish_time is NaN, as in serial).
        elapsed = max(part["done_at"] for part in parts)
        self._audit_term(term)
        # Same node-order float summation as Machine.nic_utilisation.
        transport = {
            "tx_busy": sum(tx_busy[n] for n in range(nodes)),
            "rx_busy": sum(rx_busy[n] for n in range(nodes)),
            **counters,
        }
        return YgmResult(
            values=values,
            elapsed=elapsed,
            finish_times=finish_times,
            transport=transport,
            per_rank_stats=per_rank,
            mailbox_stats=aggregate(per_rank),
        )

    def _audit_term(self, term: Dict[int, list]) -> None:
        """Check the partition-composable quiescence identity.

        For every mailbox id: the agreed global ``last_totals`` (same on
        every rank that completed the epoch) must equal the sum of the
        per-rank ``last_contribution`` samples collected from the
        partitions.  A mismatch means a partition lost or double-counted
        cross-partition traffic.
        """
        by_mailbox: Dict[int, Dict[str, Any]] = {}
        for rank, entries in term.items():
            for mailbox_id, totals, contribution in entries:
                if totals is None or contribution is None:
                    continue
                slot = by_mailbox.setdefault(
                    mailbox_id, {"totals": totals, "sent": 0, "recv": 0}
                )
                if slot["totals"] != totals:
                    raise PdesError(
                        f"mailbox {mailbox_id}: partitions disagree on "
                        f"quiescence totals ({slot['totals']} vs {totals} "
                        f"at rank {rank})"
                    )
                slot["sent"] += contribution[0]
                slot["recv"] += contribution[1]
        for mailbox_id, slot in by_mailbox.items():
            if (slot["sent"], slot["recv"]) != tuple(slot["totals"]):
                raise PdesError(
                    f"mailbox {mailbox_id}: quiescence totals are not "
                    f"partition-composable: sum of per-rank contributions "
                    f"({slot['sent']}, {slot['recv']}) != agreed totals "
                    f"{tuple(slot['totals'])}"
                )


def _env_int(name: str, default: int) -> int:
    """An integer setting from the environment; a malformed value is a
    :class:`PdesError` naming the variable."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise PdesError(f"{name}={raw!r} is not an integer") from None


def _drain_note(p: int, rings) -> str:
    """Drain and count what dead partition ``p`` left in its rings."""
    batches = msgs = 0
    for ring in rings:
        ring.resync()  # a third-party reader takes the consumer position
        while True:
            try:
                data = ring.begin_pop()
            except RingError:
                break
            try:
                msgs += len(decode_batch(data))
            except Exception:  # truncated by the crash mid-encode
                return f"; partition {p} left a corrupt batch in its export ring"
            finally:
                if type(data) is memoryview:
                    data.release()
            batches += 1
            ring.commit_pop()
    if batches:
        return (
            f"; partition {p} left {batches} undelivered export batch(es) "
            f"({msgs} message(s)) in its rings"
        )
    left = sum(ring.used for ring in rings)
    if left:
        return (
            f"; partition {p} left {left} unread byte(s) (partial batch) in "
            f"its export ring"
        )
    return ""


def _ring_stats(ends: List[Optional[dict]]) -> Optional[dict]:
    """Per-worker views of every ring endpoint's counters:
    ``from_worker[p]`` merges both ends of the rings ``p`` produces
    into, ``to_worker[p]`` both ends of the rings it consumes."""
    if any(end is None for end in ends):
        return None
    flat = [(key, st) for end in ends for key, st in end.items()]
    return {
        name: [
            merge_stats([st for key, st in flat if key[side] == p])
            for p in range(len(ends))
        ]
        for name, side in (("from_worker", 0), ("to_worker", 1))
    }


def run_pdes(
    rank_main: Callable[..., Generator],
    machine: Union[MachineConfig, int],
    scheme: Union[str, RoutingScheme] = "nlnr",
    workers: int = 2,
    **kwargs,
) -> YgmResult:
    """One-call convenience wrapper around :class:`PdesWorld`."""
    return PdesWorld(machine, scheme=scheme, workers=workers, **kwargs).run(
        rank_main
    )
