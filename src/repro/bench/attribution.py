"""Flight-recorded PDES attribution mode behind ``repro.bench pdes``.

Runs one representative partitioned configuration of a figure workload
with the flight recorder on (:mod:`repro.pdes.flight`), then writes the
overhead-attribution report pair (JSON + self-contained HTML, rendered
by :mod:`repro.trace.pdes_report`) and the merged Chrome trace: the
usual simulated-time process groups plus one host wall-clock group per
worker and one for the driver.

The run itself is bit-identical to a serial run of the same
configuration (the recorder only reads state; ``tests/pdes/test_flight``
enforces it), so the summary row matches what an untraced serial run
would print -- only the *telemetry* is new.
"""

from __future__ import annotations

from typing import Optional

from ..trace import Tracer
from .harness import SweepConfig, schemes_for
from .report import Table
from .tracing import _workload


def run_attribution(
    fig: str,
    sweep: SweepConfig,
    html_path: str,
    json_path: str,
    trace_path: Optional[str] = None,
    workers: int = 4,
) -> Table:
    """Run ``fig``'s workload partitioned + flight-recorded; write reports."""
    from ..pdes import PdesWorld
    from ..trace.pdes_report import write_report

    if workers < 2:
        raise ValueError(
            f"--attribute needs >= 2 PDES workers, got {workers}"
        )
    # Smallest sweep preset that gives every worker at least one node
    # (the partition is by node) and has remote traffic.
    floor = max(2, workers)
    candidates = [n for n in sweep.node_counts if n >= floor]
    nodes = min(candidates) if candidates else max(sweep.node_counts)
    workers = min(workers, nodes)
    schemes = schemes_for(nodes, sweep.cores_per_node)
    scheme = "nlnr" if "nlnr" in schemes else schemes[-1]

    tracer = Tracer()
    world = PdesWorld(
        sweep.machine(nodes),
        scheme=scheme,
        seed=sweep.seed,
        mailbox_capacity=sweep.mailbox_capacity,
        tracer=tracer,
        workers=workers,
        flight=True,
    )
    res = world.run(_workload(fig, sweep, nodes))
    tracer.close()
    log = world.flight_log
    doc = log.attribution()
    write_report(doc, html_path, json_path)
    if trace_path:
        tracer.export_chrome(trace_path, extra_events=log.to_chrome_events())

    se = doc["serial_equivalent"]
    table = Table(
        title=f"PDES attribution: fig {fig}, {nodes} nodes x "
        f"{sweep.cores_per_node} cores, {workers} workers, "
        f"scheme {scheme}",
        columns=[
            "seconds", "rounds", "exported_packets", "spilled_batches",
            "wall_s", "serial_equiv",
        ],
    )
    table.add(
        seconds=res.elapsed,
        rounds=world.rounds,
        exported_packets=world.exported_packets,
        spilled_batches=world.spilled_batches,
        wall_s=se["wall_s"],
        serial_equiv=se["fraction"],
    )
    table.note(f"attribution report written to {html_path} (+ {json_path})")
    worst = min(
        [doc["driver"]["coverage"]] + [w["coverage"] for w in doc["workers"]]
    )
    table.note(
        f"phase buckets tile >= {worst:.1%} of every process's span; "
        f"serial-equivalent compute {se['compute_s']:.3f}s of "
        f"{se['wall_s']:.3f}s wall"
    )
    if trace_path:
        table.note(
            f"merged Chrome trace (simulated + per-worker wall clock) "
            f"written to {trace_path}"
        )
    return table
