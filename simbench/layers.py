"""Per-layer spans recorded from outside the program.

:class:`LayerTrace` wraps the public entry points of every ``repro``
layer (module functions and class methods) for the duration of a traced
pass and restores the originals afterwards.  Nothing under ``src/``
knows about it.

* A module function is replaced at **every binding site**: each loaded
  ``repro.*`` module whose globals hold the original object (``from
  ..serde import packed_size`` copies the reference, so patching only
  ``repro.serde.packer`` would miss the call sites).
* A method is replaced in every class ``__dict__`` that defines it
  (subclass overrides included), so instances created after
  :meth:`LayerTrace.install` resolve to the wrapper.
* Generator functions (``flush``, ``progress``, ``transmit``, ...) are
  timed **per resume**: each ``send``/``throw`` into the wrapped
  generator is one span, so simulated blocking never counts as host time.

A span's *self time* is its duration minus the time covered by the spans
it encloses.  Spans nest on one stack per process, which is sound because
every resume of a wrapped generator returns before its caller's resume
does (the kernel drives processes one at a time).  The kernel entry
points are spans of their own (bucket ``sim``), so the kernel's self time
is the event loop minus everything wrapped beneath it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: ``(bucket, "module:Owner.attr" | "module:function")``.  A class target
#: is also patched in every subclass that overrides the attribute.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("sim", "repro.sim.kernel:Simulator.run"),
    ("sim", "repro.sim.kernel:Simulator.run_until_complete"),
    ("sim", "repro.sim.kernel:Simulator.run_window"),
    ("sim", "repro.pdes.worker:PartitionRuntime.pump"),
    *(
        ("machine", f"repro.machine.topology:Machine.{name}")
        for name in (
            "transmit", "transmit_local", "transmit_remote", "inject_arrival",
            "_in_flight", "_arrive",
        )
    ),
    *(
        ("mpi", f"repro.mpi.comm:Comm.{name}")
        for name in (
            "send", "isend", "recv", "irecv", "probe", "barrier", "bcast",
            "reduce", "allreduce", "gather", "allgather", "scatter",
            "alltoall", "alltoallv", "reduce_scatter", "split", "dup",
        )
    ),
    ("mpi", "repro.mpi.matching:Inbox.deliver"),
    *(
        ("mailbox.post", f"repro.core.mailbox:Mailbox.{name}")
        for name in ("post", "post_many", "post_bcast", "post_batch")
    ),
    ("mailbox.flush", "repro.core.mailbox:Mailbox.flush"),
    ("mailbox.progress", "repro.core.mailbox:Mailbox.progress"),
    ("mailbox.progress", "repro.core.mailbox:Mailbox._handle_packet"),
    *(
        ("mailbox.wait", f"repro.core.mailbox:Mailbox.{name}")
        for name in (
            "wait_empty", "test_empty", "send", "send_many", "send_bcast",
            "send_batch",
        )
    ),
    ("routing", "repro.core.routing.base:RoutingScheme.bin_by_hop"),
    ("routing", "repro.core.routing.base:RoutingScheme.next_hop_vec"),
    ("routing.scalar", "repro.core.routing.base:RoutingScheme.next_hop"),
    ("combiner", "repro.core.routing.combiner:Combiner.combine"),
    ("termination", "repro.core.termination:TerminationDetector.advance"),
    ("termination", "repro.core.termination:TerminationDetector.on_packet"),
    *(
        ("serde", f"repro.serde.packer:{name}")
        for name in (
            "pack", "pack_into", "pack_many", "unpack", "unpack_from",
            "unpack_many", "packed_size", "packed_size_many",
            "int64_packed_sizes",
        )
    ),
    ("graph", "repro.graph.generators:EdgeStream.batches"),
    ("graph", "repro.graph.generators:EdgeStream.all_edges"),
    ("pdes.wire", "repro.pdes.wire:encode_batch"),
    ("pdes.wire", "repro.pdes.wire:decode_batch"),
)

#: Buckets filled by wrappers the benchmark applies itself: receive
#: callbacks (through ``YgmContext.mailbox``) and rank-program bodies.
HANDLER = "apps.handler"
PROGRAM = "apps.program"


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _import_all_subclass_modules() -> None:
    # Subclass overrides only exist once their modules are imported.
    importlib.import_module("repro.core.routing")
    importlib.import_module("repro.pdes")


class LayerTrace:
    """Call counts and self times per bucket, for one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Total duration of spans with no enclosing span.
        self.top_s = 0.0
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- accounting --------------------------------------------------------
    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.top_s = 0.0
        self._stack.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "top_s": self.top_s,
        }

    def _close(self, frame: List[float], t0: float, key: str) -> None:
        dur = perf_counter() - t0
        stack = self._stack
        stack.pop()
        self.self_s[key] += dur - frame[0]
        if stack:
            stack[-1][0] += dur
        else:
            self.top_s += dur

    # -- wrappers ----------------------------------------------------------
    def wrap(self, fn: Callable, key: str) -> Callable:
        """A wrapper counting calls of ``fn`` and timing them into ``key``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(fn, key)
        stack, calls, close = self._stack, self.calls, self._close

        def timed(*args, **kwargs):
            calls[key] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, t0, key)

        timed.__wrapped__ = fn
        return timed

    def _wrap_gen(self, fn: Callable, key: str) -> Callable:
        stack, calls, close = self._stack, self.calls, self._close

        def drive(gen):
            value = None
            exc = None
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    close(frame, t0, key)
                    return stop.value
                except BaseException:
                    close(frame, t0, key)
                    raise
                close(frame, t0, key)
                exc = None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # forwarded into the callee
                    exc, value = err, None

        def timed(*args, **kwargs):
            calls[key] += 1
            return drive(fn(*args, **kwargs))

        timed.__wrapped__ = fn
        return timed

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("layer trace already installed")
        _import_all_subclass_modules()
        for key, target in TARGETS:
            mod_name, qual = target.split(":")
            mod = importlib.import_module(mod_name)
            if "." in qual:
                cls_name, attr = qual.split(".")
                for cls in _subclasses(getattr(mod, cls_name)):
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self.wrap(cls.__dict__[attr], key))
                continue
            original = getattr(mod, qual)
            wrapper = self.wrap(original, key)
            for name, module in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        self._patch_mailbox_factory()

    def _patch_mailbox_factory(self) -> None:
        """Receive callbacks are app code: wrap them as mailboxes are made."""
        from repro.core.context import YgmContext

        factory = YgmContext.__dict__["mailbox"]
        wrap = self.wrap

        def mailbox(ctx, recv=None, recv_batch=None, recv_bcast=None, **kw):
            return factory(
                ctx,
                recv=None if recv is None else wrap(recv, HANDLER),
                recv_batch=None if recv_batch is None else wrap(recv_batch, HANDLER),
                recv_bcast=None if recv_bcast is None else wrap(recv_bcast, HANDLER),
                **kw,
            )

        self._patch(YgmContext, "mailbox", mailbox)

    def install_worker_export(self, fd: int) -> None:
        """Make forked PDES workers report their own spans on pipe ``fd``.

        Workers inherit the installed wrappers across the fork.  Each one
        starts from empty counters and writes one JSON line with its
        snapshot just before building its final result, while the driver
        is still waiting for that result (afterwards it may be killed).
        """
        from repro.pdes import engine, worker

        main = engine.__dict__["worker_main"]
        result = worker.PartitionRuntime.__dict__["result"]
        trace = self

        def worker_main(conn, spec):
            trace.reset()
            return main(conn, spec)

        def result_and_export(runtime):
            line = json.dumps({"part": runtime.part, **trace.snapshot()})
            # One write shorter than PIPE_BUF: workers' lines never interleave.
            os.write(fd, (line + "\n").encode())
            return result(runtime)

        self._patch(engine, "worker_main", worker_main)
        self._patch(worker.PartitionRuntime, "result", result_and_export)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
