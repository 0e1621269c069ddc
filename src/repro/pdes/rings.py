"""The PDES data plane: a worker-to-worker ring mesh over shared memory.

Workers exchange every window's exports directly, with no process in
between.  One :class:`multiprocessing.shared_memory.SharedMemory`
segment per run (:class:`ShmTransport`) holds one fixed-size **round
header** per worker (:class:`RoundHeader`: the facts the window rule
needs), double-buffered by exchange parity so a fast worker's next
header never overwrites one a slow peer is still reading, and one **SPSC
ring** per ordered worker pair carrying export batches in the
:mod:`repro.pdes.wire` format, one ``memcpy`` in and one out.  Each ring slot is::

    [ tail u64 | pad | head u64 | pad | spills u64 | pad | data[capacity] ]
      ^0               ^64              ^128               ^192

``tail``/``head`` are *monotonic* byte counters (they never wrap; the
data offset is ``counter % capacity``), each alone on its own cache
line: the producer writes only ``tail`` (and ``spills``, its refused
pushes, readable post mortem by any process), the consumer only
``head``, so the single-producer/single-consumer discipline needs no
locks.  Records are framed ``[seq u64][len u64][payload]`` with modular
wrap-around copies.  ``seq`` is a per-ring monotonic sequence number
carried redundantly in the announcing frame; the consumer fences on it
(:class:`RingError` on mismatch), so a desynchronised ring -- a lost
record, a double pop, a stray producer -- fails loudly instead of
silently mispairing batches with windows.

**Signalling** (:class:`PeerLinks`): each ordered pair also has a pipe.
At the end of a window the producer pushes its ring records, stores its
round header, and only *then* writes one small frame per peer naming the
batch (none, a ring record's ``seq``, or the bytes inline when the batch
outgrew the ring: a *spill*; bytes cross a pipe as one plain buffer
copy -- still no object pickling).  That pipe write is a system call and
acts as the memory fence: a consumer reads a peer's header and records
only after the frame arrived, which on CPython (single 8-byte aligned
writes under the buffer protocol) is sufficient ordering.  Writes are
non-blocking and flushed from the
same wait loop that collects frames, so peers spilling megabytes at each
other in one round cannot deadlock on full pipe buffers.

The driver creates segment and pipes *before* forking; workers inherit
them (only the driver's ``resource_tracker`` knows the segment, unlinked
once in the driver's ``finally``) and close the pipe ends they do not
own, so a dead peer reads as end-of-file.
"""

from __future__ import annotations

import math
import os
import secrets
import select
import struct
from multiprocessing import shared_memory
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .wire import decode_batch, encode_batch

#: Default per-ring capacity (bytes); ``PdesWorld`` takes another from
#: ``ring_bytes=`` or the ``PDES_RING_BYTES`` environment variable.
DEFAULT_RING_BYTES = 1 << 20

#: Slot geometry: tail, head and spill counters on separate cache lines.
_TAIL_OFF = 0
_HEAD_OFF = 64
_SPILL_OFF = 128
_DATA_OFF = 192
_REC_HDR = 16  # [seq u64][len u64]


class RingError(RuntimeError):
    """A ring protocol violation (desync, truncation, bad descriptor)."""


class RingStats:
    """Cheap always-on counters of one ring endpoint (this process's side).

    Pure integer bumps on the *batch* path (once per window record, never
    per message), so they stay on even without the flight recorder and
    are readable post-run (``PdesWorld.ring_stats``).  Producer-side
    fields (``pushes``/``bytes_pushed``/``high_water``/``spills``) are
    maintained by whichever process produces into the ring; consumer-side
    fields (``pops``/``bytes_popped``/``fence_errors``) by the consumer,
    so the two endpoints of a ring merge field-wise (:func:`merge_stats`).
    ``high_water`` is the peak occupancy in bytes observed just after a
    push; ``spills`` counts pushes refused for lack of space (the caller
    then takes the spill path -- this ring never blocks, so congestion
    shows up as spills, not waits).
    """

    __slots__ = (
        "pushes",
        "pops",
        "bytes_pushed",
        "bytes_popped",
        "high_water",
        "spills",
        "fence_errors",
    )

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.bytes_pushed = 0
        self.bytes_popped = 0
        self.high_water = 0
        self.spills = 0
        self.fence_errors = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"RingStats({body})"


class SpscRing:
    """One single-producer/single-consumer ring inside a shared slot.

    Either side of a ring uses the same class; roles are fixed by
    position in the mesh (worker ``src`` produces into ring ``src ->
    dst``, worker ``dst`` consumes it), and the local
    ``_push_seq``/``_pop_seq`` counters -- process-private, both
    starting at the fork point's zero -- enforce it.
    """

    def __init__(self, buf: memoryview, capacity: int):
        self._buf = buf
        self._data = buf[_DATA_OFF:_DATA_OFF + capacity]
        self.capacity = capacity
        self._push_seq = 0
        self._pop_seq = 0
        self._consumed: Optional[int] = None
        #: Always-on endpoint counters (see :class:`RingStats`).  Updated
        #: with plain integer bumps only -- the push/pop fast path takes
        #: no clock reads and no recorder calls (enforced by
        #: ``tools/hotpath_lint.py``).
        self.stats = RingStats()

    # -- shared counters ---------------------------------------------------
    def _load(self, off: int) -> int:
        return int.from_bytes(self._buf[off:off + 8], "little")

    def _store(self, off: int, value: int) -> None:
        self._buf[off:off + 8] = value.to_bytes(8, "little")

    @property
    def used(self) -> int:
        return self._load(_TAIL_OFF) - self._load(_HEAD_OFF)

    @property
    def refusals(self) -> int:
        """Pushes refused for space, as seen by *any* process."""
        return self._load(_SPILL_OFF)

    # -- modular data copies -----------------------------------------------
    def _write(self, pos: int, data) -> None:
        cap = self.capacity
        off = pos % cap
        n = len(data)
        if off + n <= cap:
            self._data[off:off + n] = data
        else:
            first = cap - off
            self._data[off:] = data[:first]
            self._data[:n - first] = data[first:]

    def _read(self, pos: int, n: int) -> bytes:
        cap = self.capacity
        off = pos % cap
        first = min(n, cap - off)
        if first == n:
            return bytes(self._data[off:off + n])
        return bytes(self._data[off:off + first]) + bytes(
            self._data[:n - first]
        )

    # -- producer side -----------------------------------------------------
    def try_push(self, payload) -> Optional[int]:
        """Frame and write one record; returns its sequence number, or
        ``None`` when the ring lacks space (caller takes the spill
        path -- blocking here could deadlock against the barrier)."""
        stats = self.stats
        need = _REC_HDR + len(payload)
        tail = self._load(_TAIL_OFF)
        used = tail - self._load(_HEAD_OFF)
        if need > self.capacity - used:
            stats.spills += 1
            self._store(_SPILL_OFF, self._load(_SPILL_OFF) + 1)
            return None
        seq = self._push_seq
        self._write(
            tail,
            seq.to_bytes(8, "little") + len(payload).to_bytes(8, "little"),
        )
        self._write(tail + _REC_HDR, payload)
        self._store(_TAIL_OFF, tail + need)
        self._push_seq = seq + 1
        stats.pushes += 1
        stats.bytes_pushed += need
        if used + need > stats.high_water:
            stats.high_water = used + need
        return seq

    # -- consumer side -----------------------------------------------------
    def begin_pop(self):
        """Read the next record's payload without consuming it.

        Returns a zero-copy memoryview into the ring when the payload is
        contiguous, a bytes copy when it wraps; either way the bytes are
        only valid until :meth:`commit_pop`.
        """
        tail = self._load(_TAIL_OFF)
        head = self._load(_HEAD_OFF)
        if tail - head < _REC_HDR:
            raise RingError("ring empty: no record to pop")
        hdr = self._read(head, _REC_HDR)
        seq = int.from_bytes(hdr[:8], "little")
        length = int.from_bytes(hdr[8:], "little")
        if seq != self._pop_seq:
            self.stats.fence_errors += 1
            raise RingError(
                f"ring sequence fence broken: expected record "
                f"{self._pop_seq}, found {seq}"
            )
        if tail - head < _REC_HDR + length:
            self.stats.fence_errors += 1
            raise RingError(
                f"ring record {seq} truncated: framed {length} bytes, "
                f"only {tail - head - _REC_HDR} present"
            )
        cap = self.capacity
        off = (head + _REC_HDR) % cap
        self._consumed = _REC_HDR + length
        if off + length <= cap:
            return self._data[off:off + length]
        return self._read(head + _REC_HDR, length)

    def commit_pop(self) -> None:
        """Consume the record returned by the last :meth:`begin_pop`."""
        if self._consumed is None:
            raise RingError("commit_pop without begin_pop")
        self._store(_HEAD_OFF, self._load(_HEAD_OFF) + self._consumed)
        self._pop_seq += 1
        stats = self.stats
        stats.pops += 1
        stats.bytes_popped += self._consumed
        self._consumed = None

    def resync(self) -> None:
        """Adopt the head record's sequence number: a post-mortem reader
        takes over the consumer position without having seen the
        records consumed before it."""
        if self.used >= _REC_HDR:
            head = self._read(self._load(_HEAD_OFF), 8)
            self._pop_seq = int.from_bytes(head, "little")

    def release(self) -> None:
        """Drop the memoryviews so the segment can be closed."""
        self._data.release()
        self._buf.release()


class RoundHeader(NamedTuple):
    """One worker's facts at the end of exchange ``seq`` (1-based; 0 in
    a slot never written): next pending event (``inf``: none), live
    ranks, completion instant (``inf`` while live), clock, kernel steps,
    this exchange's exported packets and ring spills, and per
    destination partition the earliest arrival among those exports."""

    seq: int
    next_t: float
    remaining: int
    done_at: float
    now: float
    steps: int
    exports: int
    spills: int
    arrivals: Tuple[float, ...]


class ShmTransport:
    """The run's shared segment: round headers plus the ring mesh.

    Every process holds its own :class:`SpscRing` objects over the one
    inherited mapping; only the driver calls :meth:`unlink`, every
    process calls :meth:`close`.
    """

    def __init__(self, nworkers: int, ring_bytes: int = DEFAULT_RING_BYTES):
        if ring_bytes < 4096:
            raise ValueError(f"ring_bytes too small: {ring_bytes}")
        self.ring_bytes = ring_bytes
        self.nworkers = n = nworkers
        # seq, next_t, remaining, done_at, now, steps, exports, spills,
        # then one arrival per destination partition.
        self._hdr = struct.Struct(f"<qdqddqqq{n}d")
        self._hslot = -(-self._hdr.size // 64) * 64
        rslot = _DATA_OFF + ring_bytes
        nrings = n * (n - 1)
        hbytes = 2 * n * self._hslot
        self.name = f"repro_pdes_{os.getpid()}_{secrets.token_hex(4)}"
        self._shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=hbytes + nrings * rslot
        )
        buf = self._shm.buf
        self._headers = buf[:hbytes]
        #: ``mesh[src][dst]``: the ring from ``src`` to ``dst`` (``None``
        #: on the diagonal).
        self.mesh: List[List[Optional[SpscRing]]] = [[None] * n for _ in range(n)]
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        for i, (src, dst) in enumerate(pairs):
            off = hbytes + i * rslot
            self.mesh[src][dst] = SpscRing(buf[off:off + rslot], ring_bytes)
        self._closed = False
        self._unlinked = False

    def ring(self, src: int, dst: int) -> Optional[SpscRing]:
        return self.mesh[src][dst]

    def rings(self) -> List[SpscRing]:
        return [r for row in self.mesh for r in row if r is not None]

    # -- round headers -----------------------------------------------------
    def publish(self, part: int, fields: tuple) -> None:
        """Store ``part``'s header (``fields[0]`` is its seq) in the
        slot of that exchange's parity."""
        off = (2 * part + fields[0] % 2) * self._hslot
        self._hdr.pack_into(self._headers, off, *fields)

    def header(self, part: int, seq: int) -> RoundHeader:
        off = (2 * part + seq % 2) * self._hslot
        vals = self._hdr.unpack_from(self._headers, off)
        return RoundHeader(*vals[:8], vals[8:])

    def progress(self) -> List[int]:
        """Each worker's last published exchange number (0: none yet)."""
        return [
            max(self.header(p, 0).seq, self.header(p, 1).seq)
            for p in range(self.nworkers)
        ]

    def close(self) -> None:
        """Unmap this process's view (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for ring in self.rings():
            ring.release()
        self._headers.release()
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment name (driver only, idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def merge_stats(stats: List[dict]) -> dict:
    """Field-wise merge of :meth:`RingStats.as_dict` snapshots: counts
    add up, ``high_water`` keeps the peak."""
    out = RingStats().as_dict()
    for d in stats:
        for key, value in d.items():
            out[key] = max(out[key], value) if key == "high_water" else out[key] + value
    return out


# -- peer signalling ---------------------------------------------------------
#: Peer frame header ``(tag, payload bytes)``: a tag ``>= 0`` names a
#: ring record by its seq, :data:`_FRAME_NONE` announces no batch and
#: :data:`_FRAME_SPILL` carries the batch bytes inline.
_FRAME = struct.Struct("<qq")
_FRAME_NONE = -1
_FRAME_SPILL = -2


class PeerLost(RingError):
    """A peer's pipe broke or hit end-of-file (args: the peer): it is gone."""


def open_pipes(n: int) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """One ``os.pipe()`` per ordered worker pair, keyed ``(src, dst)``."""
    return {(s, d): os.pipe() for s in range(n) for d in range(n) if s != d}


def close_fds(fds) -> None:
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


class PeerLinks:
    """One worker's frame pipes: one out to and one in from every peer.

    Keeps its ends of the ``(part, q)`` and ``(q, part)`` pipes (non-
    blocking) and closes every other inherited end.  Each exchange posts
    and gathers one frame per peer (early frames wait in a buffer).  A
    reader sweeps its pipes for ``spin_s`` seconds before it sleeps: a
    pipe write wakes a sleeper *synchronously*, pulling it onto the
    writer's core, so two workers on two cores would timeshare one.
    """

    def __init__(self, part: int, pipes: Dict, spin_s: float = 0.0):
        self._tx: Dict[int, int] = {}
        self._rx: Dict[int, int] = {}
        for (src, dst), (r, w) in pipes.items():
            keep = w if src == part else r if dst == part else None
            if src == part:
                self._tx[dst] = w
            elif dst == part:
                self._rx[src] = r
            for fd in (r, w):
                if fd != keep:
                    os.close(fd)
        self._tx_of = {fd: q for q, fd in self._tx.items()}
        self._rx_of = {fd: q for q, fd in self._rx.items()}
        for fd in (*self._tx_of, *self._rx_of):
            os.set_blocking(fd, False)
        self._out = {q: bytearray() for q in self._tx}
        self._in = {q: bytearray() for q in self._rx}
        #: Sweeps a waiting reader makes before it sleeps: ``spin_s``
        #: seconds' worth, timed once here so the wait reads no clock.
        self.spin = self._sweeps_in(spin_s) if spin_s > 0 and self._rx else 0

    def _sweeps_in(self, seconds: float) -> int:
        """How many sweeps of every in-pipe take ``seconds`` here.

        Runs before the first exchange: no peer posts before the
        driver's start, so every read finds its pipe empty, as nearly
        all sweeps of a real wait do.  The fastest of a few trials
        discounts preemption.
        """
        got: Dict[int, tuple] = {}
        best = math.inf
        for _ in range(8):
            t0 = perf_counter()
            for _ in range(32):
                for q in self._rx:
                    self._take(q, got)
            best = min(best, (perf_counter() - t0) / 32)
        if got:
            raise RingError(f"frames from {sorted(got)} before the start")
        return int(seconds / best) if best > 0 else 0

    def post(self, dst: int, desc) -> None:
        """Announce this exchange's batch for ``dst`` (a batch descriptor,
        see :func:`send_batch`): send what the pipe takes now, queue the
        rest for :meth:`gather`."""
        out = self._out[dst]
        if desc[0] == "spill":
            out += _FRAME.pack(_FRAME_SPILL, len(desc[1]))
            out += desc[1]
        else:
            out += _FRAME.pack(desc[1] if desc[0] == "ring" else _FRAME_NONE, 0)
        self._flush(dst)

    def _flush(self, q: int) -> None:
        out = self._out[q]
        try:
            del out[:os.write(self._tx[q], out)]
        except BlockingIOError:
            pass
        except BrokenPipeError:
            raise PeerLost(q) from None

    def gather(self) -> Dict[int, tuple]:
        """Block until every peer's next frame is in and every queued
        byte is out; returns the peers' batch descriptors."""
        got = {q: d for q in self._rx if (d := self._parse(q)) is not None}
        spin = self.spin
        while len(got) < len(self._rx) or any(self._out.values()):
            missing = [q for q in self._rx if q not in got]
            if spin and not any(self._out.values()):
                spin -= 1  # a reader still awake costs its peer no wakeup
                for q in missing:
                    self._take(q, got)
                continue
            poller = select.poll()
            for q in missing:
                poller.register(self._rx[q], select.POLLIN)
            for q, out in self._out.items():
                if out:
                    poller.register(self._tx[q], select.POLLOUT)
            for fd, _event in poller.poll():
                if fd in self._tx_of:
                    self._flush(self._tx_of[fd])
                else:
                    self._take(self._rx_of[fd], got)
        return got

    def _take(self, q: int, got: Dict[int, tuple]) -> None:
        try:
            data = os.read(self._rx[q], 1 << 16)
        except BlockingIOError:
            return
        if not data:
            raise PeerLost(q)
        self._in[q] += data
        if (desc := self._parse(q)) is not None:
            got[q] = desc

    def _parse(self, q: int):
        buf = self._in[q]
        if len(buf) < _FRAME.size:
            return None
        tag, n = _FRAME.unpack_from(buf)
        end = _FRAME.size + n
        if len(buf) < end:
            return None
        if tag == _FRAME_SPILL:
            desc = ("spill", bytes(buf[_FRAME.size:end]))
        else:
            desc = DESC_NONE if tag == _FRAME_NONE else ("ring", tag)
        del buf[:end]
        return desc

    def close(self) -> None:
        close_fds([*self._tx_of, *self._rx_of])


# -- batch descriptors -------------------------------------------------------
#: Batch descriptors (what a peer frame announces) naming where a
#: batch's bytes live.
DESC_NONE = ("none",)


def encode_exports(exports: List[tuple], scratch: bytearray) -> bool:
    """Serialize ``exports`` into ``scratch``; the encode half of
    :func:`send_batch`.  Returns whether there is anything to push."""
    if not exports:
        return False
    del scratch[:]
    encode_batch(exports, scratch)
    return True


def push_encoded(ring: SpscRing, scratch: bytearray, nonempty: bool):
    """Push an :func:`encode_exports` blob; the ring half of
    :func:`send_batch`.  Returns the batch descriptor."""
    if not nonempty:
        return DESC_NONE
    seq = ring.try_push(scratch)
    if seq is None:
        return ("spill", bytes(scratch))
    return ("ring", seq)


def send_batch(ring: SpscRing, exports: List[tuple], scratch: bytearray):
    """Encode ``exports`` into ``ring``; returns the batch descriptor.

    ``("none",)`` for an empty batch, ``("ring", seq)`` for the fast
    path, ``("spill", blob)`` when the batch outgrows the ring's free
    space (the encoded bytes then ride the peer frame itself).
    """
    return push_encoded(ring, scratch, encode_exports(exports, scratch))


def recv_batch(ring: SpscRing, desc) -> List[tuple]:
    """Decode the batch named by a :func:`send_batch` descriptor."""
    tag = desc[0]
    if tag == "none":
        return []
    if tag == "spill":
        return decode_batch(desc[1])
    if tag != "ring":
        raise RingError(f"unknown batch descriptor {desc!r}")
    data = ring.begin_pop()
    if desc[1] != ring._pop_seq:
        raise RingError(
            f"batch descriptor names record {desc[1]}, ring is at "
            f"{ring._pop_seq}"
        )
    try:
        exports = decode_batch(data)
    finally:
        if type(data) is memoryview:
            data.release()
    ring.commit_pop()
    return exports
