#!/usr/bin/env python
"""Hot-path lint: no per-message entry objects in the columnar fast path.

PR 6 moved the injection -> coalescing -> packet -> delivery pipeline to
struct-of-arrays columns (``P2PColumns``); per-message ``P2PEntry`` /
``BcastEntry`` objects are only allowed at *handler boundaries* -- the
object-path fallback in ``Mailbox.post``, broadcast injection in
``Mailbox.post_bcast``, and broadcast re-forwarding in
``Mailbox._handle_packet``.  Anywhere else in the mailbox or coalescing
layers, constructing one silently reintroduces the per-message
allocation cost the columnar refactor removed -- results stay correct,
so only this lint catches the regression.

PR 8 added a second rule for the PDES export path: the shared-memory
ring transport (``repro.pdes.rings`` / ``wire`` / ``worker`` /
``engine``) moves export batches through the serde-based columnar wire
codec, and ``pickle`` must never reappear there -- no ``import pickle``
and no ``pickle.dumps`` / ``pickle.loads`` calls.  (Pickling
*implicitly* through ``Connection.send`` is fine; an explicit
``pickle`` use in these modules means someone put a Python-object
serializer back on the hot path.)  The pickler classes count too
(``ForkingPickler`` / ``Pickler`` / ``Unpickler``, imported or used),
except at the sites listed in ``PICKLE_ALLOWED_SITES``: the pipe
transport pickles each batch once in the worker's serialize phase and
unpickles it once in its import phase, openly.  Results stay
bit-identical either way, so again only this lint catches it.

PR 9 added a third rule for the in-network combining pass
(``repro.core.routing.combiner``): the group-by must stay vectorized --
one ``lexsort``, one adjacent-equality scan, one ``reduceat`` per
reduced field.  The only Python loops allowed there iterate over the
combiner's *field lists* (``key_fields`` / ``reduce_fields``, a handful
of names), never over records; a ``for``/``while``/comprehension over
anything else is a per-record loop sneaking back onto the re-bin path.

PR 10 added a fourth rule for the ring fast path: the flight recorder
(``repro.pdes.flight``) records per *window*, never per ring operation,
so ``SpscRing.try_push`` / ``begin_pop`` / ``commit_pop`` must stay
free of clock reads and recorder calls -- no ``perf_counter`` /
``monotonic`` / ``time`` and no ``span`` / ``instant`` / ``record`` /
``counter`` / ``progress``.  The always-on :class:`RingStats` integer
bumps are the only telemetry allowed there; a timing call on that path
taxes every batch whether or not anyone is recording.

The window protocol runs in the workers (a peer-to-peer ring mesh), so
rule 4 also covers the whole *mesh exchange* -- header
publish/read, peer frames (post/gather), ring push/pop, the window rule
and the worker's exchange phases -- and a fifth rule keeps that
exchange free of Python-object serialization: no ``dumps``/``loads``
(``ForkingPickler`` included) and no ``Connection.send``/``recv``,
which pickle implicitly.  The pipe transport pickles its batches only
in the worker's serialize and import phases, never on the exchange.

Usage::

    python tools/hotpath_lint.py [--root PATH]

Exits 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Entry classes that must not be built per-message on the fast path.
FORBIDDEN = {"P2PEntry", "BcastEntry"}

#: Files that make up the batch fast path, relative to the repo root.
HOT_FILES = (
    "src/repro/core/mailbox.py",
    "src/repro/core/coalescing.py",
)

#: ``(file, qualname)`` sites where per-message objects are legitimate:
#: the handler-boundary fallbacks of the object path.
ALLOWED_SITES = {
    ("src/repro/core/mailbox.py", "Mailbox.post"),
    ("src/repro/core/mailbox.py", "Mailbox.post_bcast"),
    ("src/repro/core/mailbox.py", "Mailbox._handle_packet"),
}

#: PDES export-path files where ``pickle`` must never appear (the ring
#: transport serializes through :mod:`repro.pdes.wire` instead).
PICKLE_FREE_FILES = (
    "src/repro/pdes/rings.py",
    "src/repro/pdes/wire.py",
    "src/repro/pdes/worker.py",
    "src/repro/pdes/engine.py",
)

#: ``(file, qualname, use)`` sites where a pickler is legitimate in a
#: :data:`PICKLE_FREE_FILES` module: the pipe transport's one pickle per
#: batch (serialize phase), one unpickle per batch (import phase) and
#: the import they need.
PICKLE_ALLOWED_SITES = {
    ("src/repro/pdes/worker.py", "<module>",
     "from multiprocessing.reduction import ForkingPickler"),
    ("src/repro/pdes/worker.py", "PartitionRuntime.serialize_exports",
     "ForkingPickler.dumps"),
    ("src/repro/pdes/worker.py", "PartitionRuntime._fetch",
     "ForkingPickler.loads"),
}

#: Files whose loops may only iterate per-*field*, never per-record.
VECTORIZED_FILES = ("src/repro/core/routing/combiner.py",)

#: The ring fast path and the mesh exchange, per file: functions that
#: must stay clock/recorder-free (rule 4) and serialization-free (rule 5).
MESH_EXCHANGE = {
    "src/repro/pdes/rings.py": {
        "SpscRing.try_push",
        "SpscRing.begin_pop",
        "SpscRing.commit_pop",
        "ShmTransport.publish",
        "ShmTransport.header",
        "PeerLinks.post",
        "PeerLinks.gather",
        "PeerLinks._take",
        "PeerLinks._flush",
        "PeerLinks._parse",
        "push_encoded",
        "recv_batch",
    },
    "src/repro/pdes/worker.py": {
        "window_rule",
        "PartitionRuntime.run_windows",
        "PartitionRuntime.push_exports",
        "PartitionRuntime.signal_peers",
        "PartitionRuntime.wait_peers",
        "PartitionRuntime.next_window",
    },
}
RING_FILES = tuple(MESH_EXCHANGE)

#: Calls that serialize Python objects (rule 5): pickler entry points
#: and ``Connection.send``/``recv``, which pickle implicitly.
EXCHANGE_PICKLE_CALLS = {
    "dumps", "loads", "dump", "load", "ForkingPickler", "Pickler",
    "Unpickler", "send", "recv",
}

#: Calls forbidden inside the ring fast path: clock reads and flight/
#: tracer recording verbs.  Matched by callee name, so both ``time()``
#: and ``time.monotonic()`` trip it.
RING_FORBIDDEN_CALLS = {
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "thread_time",
    "monotonic",
    "monotonic_ns",
    "time",
    "time_ns",
    "clock_gettime",
    "span",
    "instant",
    "complete",
    "counter",
    "record",
    "progress",
}


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class _HotPathVisitor(ast.NodeVisitor):
    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in FORBIDDEN:
            qualname = ".".join(self.stack) or "<module>"
            if (self.relpath, qualname) not in ALLOWED_SITES:
                self.violations.append(
                    (self.relpath, node.lineno, qualname, name)
                )
        self.generic_visit(node)


class _PickleVisitor(ast.NodeVisitor):
    """Flags any route to a pickler: pickle modules (imports and
    attribute use) and the pickler classes (imports and any use),
    outside :data:`PICKLE_ALLOWED_SITES`."""

    _MODULES = {"pickle", "cPickle", "_pickle"}
    _PICKLERS = {"ForkingPickler", "Pickler", "Unpickler"}

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def _flag(self, node, what: str) -> None:
        qualname = ".".join(self.stack) or "<module>"
        if (self.relpath, qualname, what) not in PICKLE_ALLOWED_SITES:
            self.violations.append((self.relpath, node.lineno, qualname, what))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] in self._MODULES:
                self._flag(node, f"import {alias.name}")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] in self._MODULES:
            self._flag(node, f"from {node.module} import ...")
            return
        for alias in node.names:
            if alias.name in self._PICKLERS:
                self._flag(node, f"from {node.module} import {alias.name}")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name) and (
            value.id in self._MODULES or value.id in self._PICKLERS
        ):
            self._flag(node, f"{value.id}.{node.attr}")
            return  # the name itself is this use
        if node.attr in self._PICKLERS:
            self._flag(node, node.attr)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self._PICKLERS:
            self._flag(node, node.id)


class _VectorizedVisitor(ast.NodeVisitor):
    """Flags per-record Python loops in the combining pass.

    A loop's iterable is fine when it bottoms out in one of the
    combiner's field lists (``key_fields`` / ``reduce_fields``), possibly
    through a dict view (``.items()``/``.keys()``/``.values()``) or an
    order-only wrapper (``reversed``/``sorted``/``enumerate``/``tuple``/
    ``list``).  Everything else -- and any ``while`` -- is per-record.
    """

    _FIELD_ATTRS = {"key_fields", "reduce_fields"}
    _DICT_VIEWS = {"items", "keys", "values"}
    _WRAPPERS = {"reversed", "sorted", "enumerate", "tuple", "list"}

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def _iter_allowed(self, node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in self._FIELD_ATTRS
        if isinstance(node, ast.Name):
            return node.id in self._FIELD_ATTRS
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._DICT_VIEWS:
                return self._iter_allowed(func.value)
            if isinstance(func, ast.Name) and func.id in self._WRAPPERS and node.args:
                return self._iter_allowed(node.args[0])
        return False

    def _flag(self, node, what: str) -> None:
        qualname = ".".join(self.stack) or "<module>"
        self.violations.append((self.relpath, node.lineno, qualname, what))

    def _check_loop(self, node, kind: str) -> None:
        if not self._iter_allowed(node.iter):
            self._flag(node, f"per-record {kind}")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node, "for loop")

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_loop(node, "for loop")

    def visit_While(self, node: ast.While) -> None:
        self._flag(node, "per-record while loop")
        self.generic_visit(node)

    def _check_comp(self, node, kind: str) -> None:
        for gen in node.generators:
            if not self._iter_allowed(gen.iter):
                self._flag(node, f"per-record {kind}")
                break
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node, "comprehension")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comp(node, "comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comp(node, "comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comp(node, "comprehension")


class _RingFastPathVisitor(ast.NodeVisitor):
    """Flags clock reads, recorder calls and object serialization inside
    the ring fast path and the mesh exchange."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.guarded = MESH_EXCHANGE.get(relpath, set())
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        qualname = ".".join(self.stack) or "<module>"
        if qualname in self.guarded:
            if name in RING_FORBIDDEN_CALLS:
                self.violations.append(
                    (self.relpath, node.lineno, qualname, f"ring-hot {name}")
                )
            elif name in EXCHANGE_PICKLE_CALLS:
                self.violations.append(
                    (self.relpath, node.lineno, qualname,
                     f"exchange pickle {name}")
                )
        self.generic_visit(node)


def lint_file(path: Path, relpath: str) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _HotPathVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint_pickle_free(path: Path, relpath: str) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _PickleVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint_vectorized(path: Path, relpath: str) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _VectorizedVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint_ring_fast_path(
    path: Path, relpath: str
) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _RingFastPathVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint(root: Path) -> list[tuple[str, int, str, str]]:
    violations = []
    for rel in HOT_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_file(path, rel))
    for rel in PICKLE_FREE_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_pickle_free(path, rel))
    for rel in VECTORIZED_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_vectorized(path, rel))
    for rel in RING_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_ring_fast_path(path, rel))
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: this script's parent's parent)",
    )
    args = parser.parse_args(argv)
    violations = lint(Path(args.root))
    for relpath, lineno, qualname, name in violations:
        if name.startswith("per-record"):
            print(
                f"{relpath}:{lineno}: {name} in {qualname} -- the combining "
                f"pass must stay vectorized (lexsort + reduceat); Python "
                f"loops there may only iterate over the combiner's field "
                f"lists, never over records",
                file=sys.stderr,
            )
        elif name.startswith("ring-hot "):
            print(
                f"{relpath}:{lineno}: {name[len('ring-hot '):]}() called in "
                f"{qualname} -- the ring push/pop fast path and the mesh "
                f"exchange must stay free of clock reads and recorder calls "
                f"(the flight recorder wraps whole phases from outside; "
                f"RingStats integer bumps are the only telemetry allowed "
                f"here)",
                file=sys.stderr,
            )
        elif name.startswith("exchange pickle "):
            print(
                f"{relpath}:{lineno}: {name[len('exchange pickle '):]}() "
                f"called in {qualname} -- the mesh exchange (headers, peer "
                f"frames, ring push/pop) moves bytes only; the pipe "
                f"transport pickles in the serialize/import phases",
                file=sys.stderr,
            )
        elif "pickle" in name.lower():
            print(
                f"{relpath}:{lineno}: {name} in {qualname} -- the PDES "
                f"export path must stay pickle-free (encode through "
                f"repro.pdes.wire; the pipe transport pickles only at "
                f"PICKLE_ALLOWED_SITES)",
                file=sys.stderr,
            )
        else:
            print(
                f"{relpath}:{lineno}: {name}() constructed in {qualname} -- "
                f"the columnar fast path must not allocate per-message entry "
                f"objects (allowed only at handler boundaries: "
                f"{', '.join(sorted(q for _, q in ALLOWED_SITES))})",
                file=sys.stderr,
            )
    if not violations:
        nfiles = (
            len(HOT_FILES) + len(PICKLE_FREE_FILES) + len(VECTORIZED_FILES)
            + len(RING_FILES)
        )
        print(f"hotpath lint: OK ({nfiles} files)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
