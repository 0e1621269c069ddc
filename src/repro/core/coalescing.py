"""Message coalescing: per-next-hop aggregation buffers (Section IV-A).

When sending many small messages, per-message metadata would dominate the
wire; YGM therefore bundles all messages sharing a next hop into one
packet.  Each buffered *entry* is a columnar run of scalar messages, one
broadcast copy, or a whole batch of fixed-width records; a flush turns a
buffer into a single transport packet.

Every message is charged :data:`ENTRY_HEADER_BYTES` of wire overhead on top
of its payload -- identical for the scalar and the batch path, so routing
schemes are compared on equal terms.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Tuple

import numpy as np

#: Per-message wire overhead inside a coalesced packet (destination rank,
#: length/type word).
ENTRY_HEADER_BYTES = 8


class BcastEntry:
    """One buffered broadcast copy (still fanning out)."""

    __slots__ = ("origin", "payload", "nbytes", "lin")
    kind = "bcast"

    def __init__(self, origin: int, payload: Any, nbytes: int, lin=None):
        self.origin = origin
        self.payload = payload
        self.nbytes = nbytes
        self.lin = lin

    @property
    def count(self) -> int:
        return 1

    @property
    def wire_bytes(self) -> int:
        return self.nbytes + ENTRY_HEADER_BYTES


class BatchEntry:
    """A batch of fixed-width record messages sharing a next hop.

    ``dests`` carries the final destination rank of each record --
    intermediaries re-bin on it; ``batch`` is the structured payload
    array (same length).  ``lins`` is the parallel lineage-id array when
    the causal profiler is enabled, ``None`` otherwise.
    """

    __slots__ = ("dests", "batch", "lins")
    kind = "batch"

    def __init__(self, dests: np.ndarray, batch: np.ndarray, lins=None):
        if len(dests) != len(batch):
            raise ValueError(
                f"dests ({len(dests)}) and batch ({len(batch)}) lengths differ"
            )
        self.dests = dests
        self.batch = batch
        self.lins = lins

    @property
    def count(self) -> int:
        return len(self.batch)

    @property
    def wire_bytes(self) -> int:
        return self.count * (self.batch.dtype.itemsize + ENTRY_HEADER_BYTES)


class P2PColumns:
    """A run of point-to-point messages in struct-of-arrays layout.

    The mailbox's one layout for scalar messages: one NumPy array per
    field instead of one Python object per message.
    ``dests[i]`` is the final destination rank of message ``i``,
    ``payloads[i]`` its payload (an object column -- payloads stay
    arbitrary Python values until a handler boundary), ``nbytes[i]`` its
    wire size, and ``lins`` the parallel lineage-id column when the
    causal profiler is enabled (``None`` otherwise).

    All columns are plain contiguous ndarrays, so the PDES wire codec
    (:mod:`repro.pdes.wire`) ships a whole run between worker processes
    as raw int64/float64 runs without touching individual messages.
    """

    __slots__ = ("dests", "payloads", "nbytes", "lins", "count", "wire_bytes")
    kind = "p2p_cols"

    def __init__(
        self,
        dests: np.ndarray,
        payloads: np.ndarray,
        nbytes: np.ndarray,
        lins: Optional[np.ndarray] = None,
    ):
        n = len(dests)
        if not (n == len(payloads) == len(nbytes)):
            raise ValueError(
                f"column lengths differ: dests {n}, "
                f"payloads {len(payloads)}, nbytes {len(nbytes)}"
            )
        self.dests = dests
        self.payloads = payloads
        self.nbytes = nbytes
        self.lins = lins
        self.count = n
        # Precomputed: the flush path reads it once per run, and columns
        # are immutable after construction.
        self.wire_bytes = int(nbytes.sum()) + n * ENTRY_HEADER_BYTES


class _PoisonEntry:
    """Sentinel filling recycled lists in ListPool debug mode.

    Any attribute access (``.kind``, ``.payload``, iteration through a
    handler loop) raises immediately, converting a silent use-after-
    recycle corruption into a loud failure at the exact access site.
    """

    __slots__ = ()

    def __getattr__(self, name):
        raise RuntimeError(
            "use-after-recycle: this entry list was already returned to "
            "the ListPool (a reference escaped a handler or profiler hook)"
        )

    def __repr__(self) -> str:
        return "<poisoned entry>"


_POISON = _PoisonEntry()


class ListPool:
    """A bounded free list of entry lists (buffer pooling).

    Every flush hands its entry list to a packet and replaces it with a
    fresh one; every handled packet discards its list.  Recycling the
    handled lists back into the buffers avoids reallocating (and
    regrowing) a list per packet on the mailbox hot path.  Lists are
    cleared on return, so pooling is invisible to correctness; the bound
    caps memory retained after a traffic burst.

    Debug mode (``debug=True``, or the ``REPRO_DEBUG_POOL`` environment
    variable) hardens the pool against aliasing bugs: returned lists are
    filled with poison sentinels instead of being cleared, so a stale
    reference that reads an entry after recycling raises instead of
    silently observing an empty (or refilled) list, and returning the
    same list twice is detected and raises.
    """

    __slots__ = ("_free", "capacity", "debug")

    def __init__(self, capacity: int = 64, debug: Optional[bool] = None):
        self._free: List[list] = []
        self.capacity = capacity
        if debug is None:
            debug = bool(os.environ.get("REPRO_DEBUG_POOL"))
        self.debug = debug

    def get(self) -> list:
        """A fresh (empty) list, recycled when one is available."""
        if not self._free:
            return []
        lst = self._free.pop()
        if self.debug:
            lst.clear()  # drop the poison only once the list is reissued
        return lst

    def put(self, lst: Any) -> None:
        """Return ``lst`` to the pool (ignored unless it is a plain list)."""
        if type(lst) is not list:
            return
        if self.debug:
            if lst and lst[0] is _POISON:
                raise RuntimeError(
                    "double recycle: this list was already returned to the pool"
                )
            lst[:] = [_POISON] * len(lst)
            if len(self._free) < self.capacity:
                self._free.append(lst)
            return
        if len(self._free) < self.capacity:
            lst.clear()
            self._free.append(lst)

    def __len__(self) -> int:
        return len(self._free)


class CoalescingBuffer:
    """Aggregation buffer for one next hop.

    Besides whole entries (:meth:`add`), the buffer accumulates scalar
    point-to-point messages into an open *columnar run* (:meth:`add_p2p`):
    consecutive scalars are appended to plain per-field Python lists and
    materialised as one :class:`P2PColumns` entry only when the run is
    interrupted (a non-scalar entry arrives) or the buffer is drained.
    Entry order -- and therefore packet content order -- is exactly the
    order of the ``add*`` calls.
    """

    __slots__ = (
        "hop", "entries", "nbytes", "count", "_pool",
        "_run_dests", "_run_payloads", "_run_nbytes", "_run_lins",
    )

    def __init__(self, hop: int, pool: "ListPool | None" = None):
        self.hop = hop
        self._pool = pool
        self.entries: List[Any] = [] if pool is None else pool.get()
        self.nbytes = 0  # wire bytes including per-entry headers
        self.count = 0  # messages
        self._run_dests: List[int] = []
        self._run_payloads: List[Any] = []
        self._run_nbytes: List[int] = []
        self._run_lins: List[Any] = []

    def add(self, entry) -> None:
        if self._run_dests:
            self._close_run()
        self.entries.append(entry)
        self.nbytes += entry.wire_bytes
        self.count += entry.count

    def add_p2p(self, dest: int, payload: Any, nbytes: int, lin=None) -> None:
        """Append one scalar message to the open columnar run."""
        self._run_dests.append(dest)
        self._run_payloads.append(payload)
        self._run_nbytes.append(nbytes)
        self._run_lins.append(lin)
        self.nbytes += nbytes + ENTRY_HEADER_BYTES
        self.count += 1

    def add_columns(self, cols: P2PColumns) -> None:
        """Append a pre-built columnar run (intermediary re-binning)."""
        if self._run_dests:
            self._close_run()
        self.entries.append(cols)
        self.nbytes += cols.wire_bytes
        self.count += cols.count

    def _close_run(self) -> None:
        n = len(self._run_dests)
        dests = np.array(self._run_dests, dtype=np.int64)
        payloads = np.fromiter(self._run_payloads, dtype=object, count=n)
        sizes = np.array(self._run_nbytes, dtype=np.int64)
        # A mailbox either profiles every message or none, so the run's
        # lineage column is all-ints or all-None.
        lins = None
        if self._run_lins[0] is not None:
            lins = np.array(self._run_lins, dtype=np.int64)
        self.entries.append(P2PColumns(dests, payloads, sizes, lins))
        self._run_dests.clear()
        self._run_payloads.clear()
        self._run_nbytes.clear()
        self._run_lins.clear()

    def take(self) -> Tuple[List[Any], int, int]:
        """Drain the buffer; returns ``(entries, wire_bytes, messages)``.

        Ownership of the entries list transfers to the caller; the
        replacement comes from the pool when one is attached.
        """
        if self._run_dests:
            self._close_run()
        out = (self.entries, self.nbytes, self.count)
        self.entries = [] if self._pool is None else self._pool.get()
        self.nbytes = 0
        self.count = 0
        return out

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0
