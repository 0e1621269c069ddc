"""The benchmark's workloads: seeded YGM simulation cells and their checks.

A workload is a fixed sequence of *cells*; a cell is one whole simulation
(one app on one machine under one routing scheme).  Every input is built
from the run's ``--seed``; the program receives only those inputs.

Correctness of a cell is checked three ways, none of them inside a timed
window:

* the gathered app output equals the sequential reference
  (:mod:`repro.check.sequential`) exactly;
* the simulated statistics digest (see :func:`sim_digest`) and the
  kernel event count equal the digests stored in ``golden.json`` when
  the seed has stored digests;
* a partitioned (PDES) cell equals the serial run of the same cell: same
  digests, and :func:`repro.pdes.assert_equivalent` on the full results.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.connected_components import (
    gather_global_labels,
    make_connected_components,
)
from repro.apps.degree_count import gather_global_degrees, make_degree_counting
from repro.check import sequential
from repro.check.oracle import canonical_digest
from repro.core import EXTENDED_SCHEMES, PAPER_SCHEMES, YgmWorld
from repro.graph import (
    GRAPH500_PARAMS,
    EdgeStream,
    er_stream,
    rmat_stream,
    scaled_delegate_threshold,
)
from repro.machine import MachineConfig, bench_machine

#: The seed a plain run uses, and the seed held out from tuning.  Both
#: have stored golden digests.
DEFAULT_SEED = 0
HELDOUT_SEED = 7919

PDES_WORKERS = 2


def graph_seed(seed: int, scheme: str) -> int:
    """Each cell gets its own graph, so a pass averages over several
    inputs; a cell's graph depends only on the run seed and its scheme,
    so ``pdes_cc`` partitions exactly ``cc_fig7``'s simulations."""
    return seed * len(EXTENDED_SCHEMES) + EXTENDED_SCHEMES.index(scheme)


@dataclass
class Cell:
    """One simulation of a workload, rebuilt identically on every pass."""

    label: str
    app: str  # "degree" | "cc"
    scheme: str
    machine: MachineConfig
    capacity: int
    stream: EdgeStream
    make: Callable[[], Callable]
    seed: int
    pdes_workers: int = 0

    def world(self, flight=False):
        """A fresh single-use world for this cell (partitioned if PDES)."""
        if not self.pdes_workers:
            return self.serial_world()
        from repro.pdes import PdesWorld

        return PdesWorld(
            self.machine, scheme=self.scheme, seed=self.seed,
            mailbox_capacity=self.capacity, workers=self.pdes_workers,
            transport="shm", window_timeout=60.0, flight=flight,
        )

    def serial_world(self) -> YgmWorld:
        return YgmWorld(
            self.machine, scheme=self.scheme, seed=self.seed,
            mailbox_capacity=self.capacity,
        )

    def gather(self, values):
        n = self.stream.num_vertices
        nranks = self.machine.nranks
        if self.app == "degree":
            return gather_global_degrees(values, n, nranks)
        return gather_global_labels(values, n, nranks)

    def reference(self):
        nranks = self.machine.nranks
        if self.app == "degree":
            return sequential.ref_degrees(self.stream, nranks)
        return sequential.ref_connected_components(self.stream, nranks)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], List[Cell]]
    #: Layer buckets the traced run must see called at least once.
    exercises: Tuple[str, ...]
    config: Dict[str, object] = field(default_factory=dict)


# -- degree counting (fig 6a shape) -------------------------------------------
def _degree_cells(
    seed: int, *, nodes: int, cores: int, schemes, edges_per_rank: int,
    verts_per_rank: int, batch_size: int, capacity: int, combining: bool,
) -> List[Cell]:
    machine = bench_machine(nodes, cores_per_node=cores)
    cells = []
    for scheme in schemes:
        stream = er_stream(
            num_vertices=verts_per_rank * machine.nranks,
            edges_per_rank=edges_per_rank,
            seed=graph_seed(seed, scheme),
        )
        cells.append(Cell(
            label=scheme, app="degree", scheme=scheme, machine=machine,
            capacity=capacity, stream=stream, seed=seed,
            make=partial(
                make_degree_counting, stream, batch_size=batch_size,
                capacity=capacity, combining=combining,
            ),
        ))
    return cells


# -- connected components (fig 7a shape) ---------------------------------------
def _cc_cells(
    seed: int, *, nodes: int, cores: int, schemes, verts_per_node_log2: int,
    edges_per_node_log2: int, delegate_fraction: float, batch_size: int,
    capacity: int, pdes_workers: int = 0,
) -> List[Cell]:
    machine = bench_machine(nodes, cores_per_node=cores)
    scale = verts_per_node_log2 + int(math.log2(nodes))
    total_edges = (1 << edges_per_node_log2) * nodes
    a, b = GRAPH500_PARAMS[0], GRAPH500_PARAMS[1]
    threshold = scaled_delegate_threshold(
        scale, total_edges, a, b, fraction=delegate_fraction
    )
    cells = []
    for scheme in schemes:
        stream = rmat_stream(
            scale, total_edges // machine.nranks, seed=graph_seed(seed, scheme)
        )
        cells.append(Cell(
            label=scheme, app="cc", scheme=scheme, machine=machine,
            capacity=capacity, stream=stream, seed=seed,
            pdes_workers=pdes_workers,
            make=partial(
                make_connected_components, stream,
                delegate_threshold=threshold, batch_size=batch_size,
                capacity=capacity,
            ),
        ))
    return cells


DEGREE_FIG6 = dict(
    nodes=32, cores=4, schemes=PAPER_SCHEMES, edges_per_rank=2**12,
    verts_per_rank=2**10, batch_size=2**12, capacity=2**12, combining=False,
)
CC_FIG7 = dict(
    nodes=8, cores=4, schemes=PAPER_SCHEMES, verts_per_node_log2=9,
    edges_per_node_log2=12, delegate_fraction=0.05, batch_size=2**12,
    capacity=2**12,
)
DEGREE_COMBINE = dict(
    nodes=16, cores=4, schemes=("node_aware", "adaptive"), edges_per_rank=2**12,
    verts_per_rank=16, batch_size=2**10, capacity=2**8, combining=True,
)
PDES_CC = dict(CC_FIG7, schemes=("node_remote", "nlnr"), pdes_workers=PDES_WORKERS)

#: Buckets every workload drives (see layers.TARGETS).
_COMMON = (
    "sim", "machine", "mpi", "mailbox.post", "mailbox.flush",
    "mailbox.progress", "mailbox.wait", "routing", "termination", "serde",
    "graph", "apps.handler", "apps.program",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "degree_fig6",
            "bulk post_batch degree counting under the four paper schemes: "
            "time goes to mailbox, coalescing, routing re-bin and transmit",
            lambda seed: _degree_cells(seed, **DEGREE_FIG6),
            _COMMON,
            DEGREE_FIG6,
        ),
        Workload(
            "cc_fig7",
            "RMAT connected components with delegates: scalar posts from "
            "callbacks, broadcasts, many termination epochs",
            lambda seed: _cc_cells(seed, **CC_FIG7),
            _COMMON + ("routing.scalar",),
            CC_FIG7,
        ),
        Workload(
            "degree_combine",
            "duplicate-rich degree counting with combining on under "
            "node_aware and adaptive: the only combiner workload",
            lambda seed: _degree_cells(seed, **DEGREE_COMBINE),
            _COMMON + ("combiner",),
            DEGREE_COMBINE,
        ),
        Workload(
            "pdes_cc",
            "the cc_fig7 node_remote and nlnr cells partitioned over two "
            "PDES workers with shm rings: the only driver/worker/ring/wire "
            "workload",
            lambda seed: _cc_cells(seed, **PDES_CC),
            _COMMON + ("routing.scalar", "pdes.wire"),
            PDES_CC,
        ),
    )
}


# -- digests -------------------------------------------------------------------
def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _stats_doc(stats) -> dict:
    d = stats.as_dict()
    d.pop("idle_time")
    return d


def sim_digest(res) -> str:
    """Digest of a run's simulated statistics, bit-exact.

    Covers ``elapsed``, per-rank finish times, the per-rank and aggregated
    :class:`~repro.core.MailboxStats` and the transport counters.  The one
    field left out is ``idle_time``: partitioned runs may sum its
    intervals in another order (the ulp carve-out of
    :mod:`repro.pdes.conformance`), so it is compared on its own.
    """
    return _sha({
        "elapsed": res.elapsed,
        "finish_times": res.finish_times,
        "per_rank": [_stats_doc(s) for s in res.per_rank_stats],
        "stats": _stats_doc(res.mailbox_stats),
        "transport": res.transport,
    })


def cell_record(cell: Cell, res, events: Optional[int]) -> dict:
    """The comparable facts of one cell run (no host times)."""
    return {
        "sim": sim_digest(res),
        "output": canonical_digest(cell.gather(res.values)),
        "events": events,
        "idle_time": repr(res.mailbox_stats.idle_time),
        "app_messages": res.mailbox_stats.app_messages_sent,
    }
