"""Measure one workload in this (fresh) process; ``run.py`` starts it.

Usage: ``python3 simbench/measure.py --workload W --seed N --seconds S
--trace 0|1`` with ``src`` on ``PYTHONPATH``.  Prints one JSON document
as its last stdout line: timings, failures, the run manifest and, with
``--trace 1``, the per-layer metrics.

A *pass* builds the workload's worlds (set-up), then runs its cells one
after another (the timed window), then checks them (untimed).  Passes
repeat until ``--seconds`` is used up; timings are medians over passes.
With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Pass:
    """One build + timed run + record of every cell of a workload.

    Only the facts needed later are kept (records, walls, layer numbers);
    the worlds are dropped with the pass, so memory does not grow with
    the number of passes.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.build_s = 0.0
        self.wall_s = 0.0
        self.cells: list = []
        self.cell_walls: list = []
        self.results: list = []
        self.records: list = []
        self.errors: list = []
        self.engines: list = []
        self.layer: dict = {}
        self.workers: list = []
        self.calls: dict = {}
        self.metrics: dict = {}


def run_pass(cells_of, seed: int, trace=None, keep: bool = False) -> Pass:
    """Build and run every cell once; ``keep`` retains the results."""
    from layers import PROGRAM
    from workloads import cell_record

    p = Pass(traced=trace is not None)
    read_fd = write_fd = None
    if trace is not None:
        trace.reset()
        trace.install()
    try:
        t0 = perf_counter()
        p.cells = cells = cells_of(seed)
        flight = False
        if trace is not None and any(c.pdes_workers for c in cells):
            from repro.pdes.flight import FlightSpec

            read_fd, write_fd = os.pipe()
            trace.install_worker_export(write_fd)
            flight = FlightSpec(categories=())
        p.engines = [c.world(flight=flight) for c in cells]
        mains = [c.make() for c in cells]
        if trace is not None:
            mains = [trace.wrap(m, PROGRAM) for m in mains]
        p.build_s = perf_counter() - t0
        gc.collect()
        t_start = perf_counter()
        for world, main in zip(p.engines, mains):
            t_cell = perf_counter()
            try:
                res = world.run(main)
                err = None
            except Exception:  # a failed cell is counted, never re-run
                res, err = None, traceback.format_exc(limit=8)
            p.cell_walls.append(perf_counter() - t_cell)
            p.results.append(res)
            p.errors.append(err)
        p.wall_s = perf_counter() - t_start
        if trace is not None:
            p.layer = trace.snapshot()
    finally:
        if trace is not None:
            trace.uninstall()
        if write_fd is not None:
            os.close(write_fd)
            with os.fdopen(read_fd) as f:
                p.workers = [json.loads(line) for line in f if line.strip()]
    for cell, world, res in zip(cells, p.engines, p.results):
        events = None if cell.pdes_workers else world.world.sim.steps
        p.records.append(None if res is None else cell_record(cell, res, events))
    if trace is not None:
        merged = _merge_layer(p)
        p.calls = merged["calls"]
        p.metrics = layer_metrics(p, merged)
    p.engines = []
    if not keep:
        p.results = []
    return p


def _merge_layer(p: Pass) -> dict:
    calls, self_s = dict(p.layer.get("calls", {})), dict(p.layer.get("self_s", {}))
    for w in p.workers:
        for k, v in w["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in w["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
    return {"calls": calls, "self_s": self_s}


def layer_metrics(p: Pass, merged: dict) -> dict:
    """Per-layer numbers of one traced pass (see BENCHMARK.json)."""
    from repro.core.stats import aggregate

    calls, selfs = merged["calls"], merged["self_s"]

    def c(key):
        return calls.get(key, 0)

    def s(key):
        return selfs.get(key, 0.0)

    ok = [r for r in p.results if r is not None]
    stats = aggregate(r.mailbox_stats for r in ok)
    wall = p.wall_s
    if p.workers:
        events = 0
        for eng in p.engines:
            events += sum(w["steps"] for w in eng.flight_log.workers)
    else:
        events = sum(w.world.sim.steps for w in p.engines)
    nic_busy = sum(r.transport["tx_busy"] + r.transport["rx_busy"] for r in ok)
    nic_cap = sum(
        2 * cell.machine.nodes * r.elapsed for cell, r in zip(p.cells, p.results)
        if r is not None
    )
    packets = stats.local_packets_sent + stats.remote_packets_sent
    msgs = max(1, stats.app_messages_sent)
    m = {
        "sim.events": events,
        "sim.self_s": s("sim"),
        "sim.ns_per_event": s("sim") / max(1, events) * 1e9,
        "machine.calls": c("machine"),
        "machine.s": s("machine"),
        "machine.remote_packets": sum(r.transport["remote_packets"] for r in ok),
        "machine.local_packets": sum(r.transport["local_packets"] for r in ok),
        "machine.nic_busy_frac": nic_busy / nic_cap if nic_cap else 0.0,
        "mpi.calls": c("mpi"),
        "mpi.s": s("mpi"),
        "mailbox.post_calls": c("mailbox.post"),
        "mailbox.post_s": s("mailbox.post"),
        "mailbox.flush_calls": c("mailbox.flush"),
        "mailbox.flush_s": s("mailbox.flush"),
        "mailbox.progress_calls": c("mailbox.progress"),
        "mailbox.progress_s": s("mailbox.progress"),
        "mailbox.wait_s": s("mailbox.wait"),
        "mailbox.msgs_per_packet": stats.entries_sent / packets if packets else 0.0,
        "routing.calls": c("routing"),
        "routing.s": s("routing") + s("routing.scalar"),
        "routing.scalar_calls": c("routing.scalar"),
        "routing.forwarded_per_msg": stats.entries_forwarded / msgs,
        "combiner.calls": c("combiner"),
        "combiner.share": s("combiner") / wall,
        "combiner.merge_ratio": stats.entries_combined / msgs,
        "termination.rounds": stats.term_rounds,
        "termination.calls": c("termination"),
        "termination.s": s("termination"),
        "serde.calls": c("serde"),
        "serde.s": s("serde"),
        "graph.calls": c("graph"),
        "graph.s": s("graph"),
        "apps.handler_calls": c("apps.handler"),
        "apps.handler_s": s("apps.handler"),
        "apps.program_s": s("apps.program"),
    }
    m.update(_pdes_metrics(p, wall))
    if p.workers:
        # Driver wall not covered by the flight recorder's driver buckets.
        att = [e.flight_log.attribution()["driver"] for e in p.engines]
        covered = sum(sum(d["buckets"].values()) for d in att)
        span = sum(d["wall_s"] for d in att)
        m["trace.unattributed_frac"] = (span - covered) / span
    else:
        m["trace.unattributed_frac"] = (wall - p.layer["top_s"]) / wall
    return m


#: Unit of every per-layer metric; ``fraction`` is a share in [0, 1].
LAYER_UNITS = {
    "sim.events": "count", "sim.self_s": "s", "sim.ns_per_event": "ns",
    "machine.calls": "count", "machine.s": "s",
    "machine.remote_packets": "count", "machine.local_packets": "count",
    "machine.nic_busy_frac": "fraction",
    "mpi.calls": "count", "mpi.s": "s",
    "mailbox.post_calls": "count", "mailbox.post_s": "s",
    "mailbox.flush_calls": "count", "mailbox.flush_s": "s",
    "mailbox.progress_calls": "count", "mailbox.progress_s": "s",
    "mailbox.wait_s": "s", "mailbox.msgs_per_packet": "ratio",
    "routing.calls": "count", "routing.s": "s",
    "routing.scalar_calls": "count",
    "routing.forwarded_per_msg": "ratio",
    "combiner.calls": "count", "combiner.share": "fraction",
    "combiner.merge_ratio": "fraction",
    "termination.rounds": "count", "termination.calls": "count",
    "termination.s": "s",
    "serde.calls": "count", "serde.s": "s",
    "graph.calls": "count", "graph.s": "s",
    "apps.handler_calls": "count", "apps.handler_s": "s",
    "apps.program_s": "s",
    "pdes.rounds": "count", "pdes.exported_packets": "count",
    "pdes.spills": "count", "pdes.ring_bytes": "B",
    "pdes.wire_share": "fraction", "pdes.worker_compute_share": "fraction",
    "pdes.barrier_wait_share": "fraction",
    "pdes.driver_fan_in_share": "fraction", "pdes.serial_equiv": "fraction",
    "pdes.vs_serial": "x",
    "trace.unattributed_frac": "fraction", "trace.overhead_frac": "fraction",
}

PDES_KEYS = (
    "pdes.rounds", "pdes.exported_packets", "pdes.spills", "pdes.ring_bytes",
    "pdes.wire_share", "pdes.worker_compute_share", "pdes.barrier_wait_share",
    "pdes.driver_fan_in_share", "pdes.serial_equiv",
)


def _pdes_metrics(p: Pass, wall: float) -> dict:
    m = dict.fromkeys(PDES_KEYS, 0)
    if not p.workers:
        return m
    drv_wire = p.layer["self_s"].get("pdes.wire", 0.0)
    worker_span = compute = barrier = fan_in = drv_wall = 0.0
    equiv = []
    for eng in p.engines:
        m["pdes.rounds"] += eng.rounds
        m["pdes.exported_packets"] += eng.exported_packets
        m["pdes.spills"] += eng.spilled_batches
        rs = eng.ring_stats or {"to_worker": [], "from_worker": []}
        m["pdes.ring_bytes"] += sum(r["bytes_popped"] for r in rs["from_worker"])
        m["pdes.ring_bytes"] += sum(r["bytes_pushed"] for r in rs["to_worker"])
        att = eng.flight_log.attribution()
        for w in att["workers"]:
            worker_span += w["span_s"]
            compute += w["buckets"]["compute"]
            barrier += w["buckets"]["barrier-wait"]
        fan_in += att["driver"]["buckets"]["fan-in"]
        drv_wall += att["driver"]["wall_s"]
        equiv.append(att["serial_equivalent"]["fraction"])
    m["pdes.wire_share"] = drv_wire / wall
    m["pdes.worker_compute_share"] = compute / worker_span
    m["pdes.barrier_wait_share"] = barrier / worker_span
    m["pdes.driver_fan_in_share"] = fan_in / drv_wall
    m["pdes.serial_equiv"] = statistics.fmean(equiv)
    return m


# -- checks (never inside a timed window) --------------------------------------
_COMPARED = ("sim", "output", "events", "idle_time", "app_messages")


def check(seed: int, passes, golden: dict, bad: list, failures: list):
    """Run every correctness check; return the serial wall of PDES cells.

    ``bad[i]`` collects the indices of the passes in which cell ``i``
    failed.  A cell whose output or digests are wrong fails on every pass.
    """
    from repro.check.fuzz import results_equal

    ncells = len(bad)
    first = passes[0]
    refs: dict = {}  # cells of one workload share their input stream
    for i in range(ncells):
        label = first.cells[i].label
        for k, p in enumerate(passes):
            if p.errors[i] is not None:
                bad[i].add(k)
                failures.append(f"{label} pass {k}: raised\n{p.errors[i]}")
        base = next((p.records[i] for p in passes if p.records[i]), None)
        if base is None:
            continue
        for k, p in enumerate(passes):
            rec = p.records[i]
            if rec is None:
                continue
            diff = [f for f in _COMPARED if rec[f] != base[f]]
            if diff:
                bad[i].add(k)
                failures.append(f"{label} pass {k}: {diff} differ from pass 0")
        cell = first.cells[i]
        res = first.results[i]
        if res is None:
            bad[i].update(range(len(passes)))
            continue
        key = (cell.app, cell.stream, cell.machine.nranks)
        if key not in refs:
            refs[key] = cell.reference()
        if not results_equal(cell.gather(res.values), refs[key]):
            bad[i].update(range(len(passes)))
            failures.append(f"{label}: output differs from sequential reference")
        gold = golden.get(str(seed), {}).get(label)
        if gold is not None:
            keys = _COMPARED if not cell.pdes_workers else ("sim", "output", "app_messages")
            diff = [f for f in keys if gold[f] != base[f]]
            if diff:
                bad[i].update(range(len(passes)))
                failures.append(f"{label}: {diff} differ from golden.json")
    serial_wall = 0.0
    for i, cell in enumerate(first.cells):
        if not cell.pdes_workers:
            continue
        res = first.results[i]
        if res is None:
            continue
        wall, diff = _serial_equivalence(cell, res)
        serial_wall += wall
        if diff:
            bad[i].update(range(len(passes)))
            failures.append(f"{cell.label}: partitioned run != serial run: {diff}")
    return serial_wall


def _serial_equivalence(cell, parallel) -> tuple:
    """Run ``cell`` serially; compare it with the partitioned result."""
    from repro.check.fuzz import results_equal
    from repro.pdes import ConformanceError, assert_equivalent
    from workloads import cell_record

    world = cell.serial_world()
    main = cell.make()
    gc.collect()
    t0 = perf_counter()
    serial = world.run(main)
    wall = perf_counter() - t0
    ser = cell_record(cell, serial, None)
    par = cell_record(cell, parallel, None)
    diff = [f for f in ("sim", "output", "app_messages") if ser[f] != par[f]]
    try:
        assert_equivalent(
            parallel, serial,
            values_equal=lambda a, b: results_equal(cell.gather(a), cell.gather(b)),
        )
    except ConformanceError as exc:
        diff.append(str(exc))
    return wall, diff


def trace_self_check(wl, passes, bad: list, failures: list) -> None:
    """A traced pass fails if a wrapper that should fire stayed silent or
    if tracing moved a digest (:func:`check` compares every pass's
    record with pass 0's, so that part is already done)."""
    for k, p in enumerate(passes):
        silent = [b for b in wl.exercises if p.traced and p.calls.get(b, 0) == 0]
        if silent:
            failures.append(f"traced pass {k}: no calls in {silent}")
            for cell_bad in bad:
                cell_bad.add(k)


def manifest(wl, seed: int, args) -> dict:
    from repro.exec import code_fingerprint

    return {
        "workload": wl.name,
        "seed": seed,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in wl.config.items()},
        "seconds": args.seconds,
        "trace": args.trace,
        "code_fingerprint": code_fingerprint(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import repro  # noqa: F401  (timed: part of set-up)

    import_s = perf_counter() - t0
    import workloads
    from layers import LayerTrace

    wl = workloads.WORKLOADS[args.workload]
    with open(os.path.join(os.path.dirname(__file__), "golden.json")) as f:
        golden = json.load(f).get(wl.name, {})

    trace = LayerTrace() if args.trace else None
    passes = []
    deadline = perf_counter() + args.seconds
    while True:
        t_pass = perf_counter()
        passes.append(run_pass(wl.build, args.seed, keep=not passes))
        if trace is not None:
            passes.append(run_pass(wl.build, args.seed, trace))
        if perf_counter() + (perf_counter() - t_pass) > deadline:
            break
    peak_rss = _peak_rss_mb()

    failures: list = []
    bad = [set() for _ in passes[0].cells]
    serial_wall = check(args.seed, passes, golden, bad, failures)
    plain = [p for p in passes if not p.traced]
    wall = statistics.median(p.wall_s for p in plain)
    doc = {
        "manifest": manifest(wl, args.seed, args),
        "import_s": import_s,
        "build_s": statistics.median(p.build_s for p in plain),
        "wall_s": wall,
        "app_messages": sum(r["app_messages"] for r in plain[0].records if r),
        "peak_rss_mb": peak_rss,
        "passes": [
            {"traced": p.traced, "build_s": p.build_s, "wall_s": p.wall_s,
             "cell_walls": p.cell_walls}
            for p in passes
        ],
    }
    if trace is not None:
        trace_self_check(wl, passes, bad, failures)
        traced = [p for p in passes if p.traced]
        per_pass = [p.metrics for p in traced]
        layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layer["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced) / wall - 1.0
        )
        layer["pdes.vs_serial"] = serial_wall / wall if serial_wall else 0.0
        doc["layer"] = {k: {"value": layer[k], "unit": u} for k, u in LAYER_UNITS.items()}
    doc.update(
        attempted=len(bad) * len(passes),
        failed=sum(len(b) for b in bad),
        failures=failures,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
