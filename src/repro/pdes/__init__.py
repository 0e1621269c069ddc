"""Parallel discrete-event simulation of one YGM run.

Partitions the simulated machine's nodes across forked worker
processes, which advance with a conservative peer-to-peer window
protocol (lookahead = the network model's minimum wire latency), and
reassembles a result bit-identical to the serial
:class:`~repro.core.YgmWorld`.
See :mod:`repro.pdes.engine` for the protocol and EXPERIMENTS.md
("Parallel DES") for the derivation and the conformance battery.

``PdesWorld(flight=True)`` enables the cross-process flight recorder
(:mod:`repro.pdes.flight`): per-worker phase spans, clock-aligned and
merged with driver spans and ring telemetry into the overhead
attribution report (``python -m repro.bench pdes --attribute``).
"""

from .conformance import ConformanceError, assert_equivalent
from .engine import PdesError, PdesStallError, PdesWorld, run_pdes
from .flight import (
    DRIVER_PHASES,
    WORKER_PHASES,
    DriverFlight,
    FlightLog,
    FlightSpec,
    WorkerFlight,
    estimate_offset,
)
from .partition import NodePartition
from .rings import RingError, RingStats, ShmTransport, SpscRing
from .wire import WireError, decode_batch, encode_batch
from .worker import CausalityError

__all__ = [
    "PdesWorld",
    "run_pdes",
    "NodePartition",
    "PdesError",
    "PdesStallError",
    "CausalityError",
    "ConformanceError",
    "DRIVER_PHASES",
    "DriverFlight",
    "FlightLog",
    "FlightSpec",
    "RingError",
    "RingStats",
    "ShmTransport",
    "SpscRing",
    "WORKER_PHASES",
    "WireError",
    "WorkerFlight",
    "assert_equivalent",
    "decode_batch",
    "encode_batch",
    "estimate_offset",
]
