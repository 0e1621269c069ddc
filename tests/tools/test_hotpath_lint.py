"""The hot-path lint guards the columnar pipeline against regressions."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import hotpath_lint  # noqa: E402


def test_current_tree_is_clean():
    assert hotpath_lint.lint(REPO) == []


def test_cli_exits_zero_on_clean_tree():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "hotpath_lint.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout


def _write_tree(tmp_path, mailbox_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "mailbox.py").write_text(mailbox_src)
    return root


def test_flags_entry_construction_outside_allowlist(tmp_path):
    root = _write_tree(
        tmp_path,
        "class Mailbox:\n"
        "    def post(self, dest):\n"
        "        e = BcastEntry(dest, None, 0)\n"  # violation: scalar post
        "    def post_bcast(self, payload):\n"
        "        e = BcastEntry(0, payload, 0)\n"  # allowed boundary
        "    def _bin_columns(self, dests):\n"
        "        return [BcastEntry(d, None, 0) for d in dests]\n"  # violation
        "    def _handle_packet(self, pkt):\n"
        "        b = BcastEntry(0, None, 0)\n"  # allowed boundary
        "        def helper():\n"
        "            return BcastEntry(1, None, 0)\n",  # nested scope: violation
    )
    violations = hotpath_lint.lint(root)
    sites = [(qual, name) for _f, _line, qual, name in violations]
    assert ("Mailbox.post", "BcastEntry") in sites
    assert ("Mailbox._bin_columns", "BcastEntry") in sites
    assert ("Mailbox._handle_packet.helper", "BcastEntry") in sites
    assert len(violations) == 3


def test_attribute_qualified_construction_is_caught(tmp_path):
    root = _write_tree(
        tmp_path,
        "from repro.core import coalescing\n"
        "def flush():\n"
        "    return coalescing.BcastEntry(0, None, 0)\n",
    )
    ((_f, _line, qual, name),) = hotpath_lint.lint(root)
    assert (qual, name) == ("flush", "BcastEntry")


def _write_pdes_tree(tmp_path, src, name="wire.py"):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "pdes"
    pkg.mkdir(parents=True)
    (pkg / name).write_text(src)
    return root


def test_flags_pickle_import_in_pdes_export_path(tmp_path):
    # wire.py may import pickle for its envelope; the engine may not.
    root = _write_pdes_tree(tmp_path, "import pickle\n", name="engine.py")
    ((_f, _line, qual, what),) = hotpath_lint.lint(root)
    assert (qual, what) == ("<module>", "import pickle")


def test_flags_pickle_dumps_call_in_pdes_export_path(tmp_path):
    root = _write_pdes_tree(
        tmp_path,
        "def encode_batch(exports, out):\n"
        "    out += pickle.dumps(exports)\n",
    )
    ((_f, _line, qual, what),) = hotpath_lint.lint(root)
    assert (qual, what) == ("encode_batch", "pickle.dumps")


def test_flags_from_pickle_import_and_cpickle_alias(tmp_path):
    root = _write_pdes_tree(
        tmp_path,
        "from pickle import dumps\nimport _pickle as fast\n",
    )
    whats = sorted(what for _f, _line, _q, what in hotpath_lint.lint(root))
    assert whats == ["from pickle import ...", "import _pickle"]


def test_pickle_rule_ignores_files_outside_export_path(tmp_path):
    # engine of another package: pickle is fine elsewhere in the tree
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "exec"
    pkg.mkdir(parents=True)
    (pkg / "pool.py").write_text("import pickle\n")
    assert hotpath_lint.lint(root) == []


def test_cli_reports_pickle_violation(tmp_path):
    root = _write_pdes_tree(tmp_path, "import pickle\n", name="engine.py")
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "pickle-free" in proc.stderr


def test_cli_reports_violations_and_exits_nonzero(tmp_path):
    root = _write_tree(
        tmp_path,
        "def rebin():\n    return BcastEntry(0, None, 0)\n",
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "BcastEntry() constructed in rebin" in proc.stderr


def _write_combiner_tree(tmp_path, combiner_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "core" / "routing"
    pkg.mkdir(parents=True)
    (pkg / "combiner.py").write_text(combiner_src)
    return root


def test_field_iteration_in_combiner_is_allowed(tmp_path):
    root = _write_combiner_tree(
        tmp_path,
        "class Combiner:\n"
        "    def combine(self, dests, batch):\n"
        "        cols = [batch[f] for f in reversed(self.key_fields)]\n"
        "        for f in self.key_fields:\n"
        "            pass\n"
        "        for f, op in self.reduce_fields.items():\n"
        "            pass\n",
    )
    assert hotpath_lint.lint(root) == []


def test_flags_per_record_loop_in_combiner(tmp_path):
    root = _write_combiner_tree(
        tmp_path,
        "class Combiner:\n"
        "    def combine(self, dests, batch):\n"
        "        out = []\n"
        "        for d, rec in zip(dests, batch):\n"  # violation: per-record
        "            out.append((d, rec))\n"
        "        return out\n",
    )
    ((_f, _line, qual, what),) = hotpath_lint.lint(root)
    assert qual == "Combiner.combine"
    assert what == "per-record for loop"


def test_flags_per_record_comprehension_and_while(tmp_path):
    root = _write_combiner_tree(
        tmp_path,
        "def merge(dests, batch):\n"
        "    keys = [tuple(r) for r in batch]\n"  # violation
        "    i = 0\n"
        "    while i < len(dests):\n"  # violation
        "        i += 1\n",
    )
    whats = sorted(what for _f, _line, _q, what in hotpath_lint.lint(root))
    assert whats == ["per-record comprehension", "per-record while loop"]


def _write_rings_tree(tmp_path, rings_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "pdes"
    pkg.mkdir(parents=True)
    (pkg / "rings.py").write_text(rings_src)
    return root


def test_flags_clock_read_in_ring_fast_path(tmp_path):
    root = _write_rings_tree(
        tmp_path,
        "from time import perf_counter\n"
        "class SpscRing:\n"
        "    def try_push(self, payload):\n"
        "        t0 = perf_counter()\n"  # violation: clock on the fast path
        "        return 0\n"
        "    def begin_pop(self):\n"
        "        self.tracer.record(1)\n"  # violation: recorder call
        "    def commit_pop(self):\n"
        "        self.stats.pops += 1\n",  # counter bump: allowed
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("SpscRing.begin_pop", "ring-hot record"),
        ("SpscRing.try_push", "ring-hot perf_counter"),
    ]


def test_ring_rule_ignores_slow_paths_and_other_classes(tmp_path):
    root = _write_rings_tree(
        tmp_path,
        "from time import perf_counter\n"
        "class SpscRing:\n"
        "    def release(self):\n"
        "        return perf_counter()\n"  # not a fast-path method
        "def send_batch(ring, exports, scratch):\n"
        "    return perf_counter()\n",  # module-level helper: fine
    )
    assert hotpath_lint.lint(root) == []


def test_cli_reports_ring_violation(tmp_path):
    root = _write_rings_tree(
        tmp_path,
        "import time\n"
        "class SpscRing:\n"
        "    def commit_pop(self):\n"
        "        self.t = time.monotonic()\n",
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "ring push/pop fast path" in proc.stderr


def test_cli_reports_combining_violation(tmp_path):
    root = _write_combiner_tree(
        tmp_path,
        "def merge(dests):\n"
        "    for d in dests:\n"
        "        pass\n",
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "must stay vectorized" in proc.stderr


def _write_worker_tree(tmp_path, worker_src, rings_src="class SpscRing:\n    pass\n"):
    root = _write_rings_tree(tmp_path, rings_src)
    (root / "src" / "repro" / "pdes" / "worker.py").write_text(worker_src)
    return root


def test_flags_clock_and_recorder_in_mesh_exchange(tmp_path):
    root = _write_worker_tree(
        tmp_path,
        "from time import perf_counter\n"
        "def window_rule(headers, lookahead, k, adapt):\n"
        "    return perf_counter()\n"  # violation: the rule is pure
        "class PartitionRuntime:\n"
        "    def signal_peers(self):\n"
        "        self.t = perf_counter()\n"  # violation: header publish
        "    def wait_peers(self):\n"
        "        self.flight.span('barrier-wait', 0, 0)\n"  # violation
        "    def result(self):\n"
        "        return perf_counter()\n",  # not on the exchange: fine
        "import time\n"
        "class PeerLinks:\n"
        "    def gather(self):\n"
        "        return time.monotonic()\n"  # violation: peer wait
        "class ShmTransport:\n"
        "    def publish(self, part, fields):\n"
        "        self.rec.record(part)\n",  # violation: header publish
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("PartitionRuntime.signal_peers", "ring-hot perf_counter"),
        ("PartitionRuntime.wait_peers", "ring-hot span"),
        ("PeerLinks.gather", "ring-hot monotonic"),
        ("ShmTransport.publish", "ring-hot record"),
        ("window_rule", "ring-hot perf_counter"),
    ]


def test_flags_object_serialization_on_the_exchange_only(tmp_path):
    root = _write_worker_tree(
        tmp_path,
        "from multiprocessing.reduction import ForkingPickler\n"
        "class PartitionRuntime:\n"
        "    def serialize_exports(self):\n"
        "        return ForkingPickler.dumps([])\n"  # file-level pickle rule
        "    def push_exports(self):\n"
        "        return ForkingPickler.dumps([])\n"  # violation
        "    def next_window(self):\n"
        "        self.conn.send(self.headers)\n",  # violation: pickles
        "class PeerLinks:\n"
        "    def post(self, dst, desc):\n"
        "        import pickle\n"  # file-level pickle rule
        "        return pickle.loads(desc)\n",  # + exchange rule
    )
    found = sorted(
        (f.rsplit("/", 1)[-1], qual, what)
        for f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert found == [
        ("rings.py", "PeerLinks.post", "exchange pickle loads"),
        ("rings.py", "PeerLinks.post", "import pickle"),
        ("rings.py", "PeerLinks.post", "pickle.loads"),
        ("worker.py", "<module>",
         "from multiprocessing.reduction import ForkingPickler"),
        ("worker.py", "PartitionRuntime.next_window", "exchange pickle send"),
        ("worker.py", "PartitionRuntime.push_exports", "ForkingPickler.dumps"),
        ("worker.py", "PartitionRuntime.push_exports", "exchange pickle dumps"),
        ("worker.py", "PartitionRuntime.serialize_exports",
         "ForkingPickler.dumps"),
    ]


def test_pickler_classes_flagged_outside_the_allowed_sites(tmp_path):
    root = _write_worker_tree(
        tmp_path,
        "from multiprocessing.reduction import ForkingPickler\n"
        "class PartitionRuntime:\n"
        "    def _fetch(self, q, desc):\n"
        "        return ForkingPickler.loads(desc[1])\n"
        "    def result(self):\n"
        "        return ForkingPickler.dumps(self.log)\n",
        "",
    )
    (root / "src" / "repro" / "pdes" / "wire.py").write_text(
        "import pickle\n"  # allowed: the envelope's import
        "def _pack_obj(out, obj):\n"
        "    out += pickle.dumps(obj)\n"  # allowed: the envelope dump
        "def _unpack_obj(buf, pos):\n"
        "    return pickle.loads(buf), pos\n"  # allowed: the envelope load
        "def encode_batch(exports, out):\n"
        "    out += pickle.dumps(exports)\n"  # not listed
    )
    (root / "src" / "repro" / "pdes" / "engine.py").write_text(
        "from multiprocessing import reduction\n"
        "from pickle import Pickler\n"
        "def spawn(buf):\n"
        "    return reduction.ForkingPickler(buf)\n"
    )
    found = sorted(
        (f.rsplit("/", 1)[-1], qual, what)
        for f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert found == [
        ("engine.py", "<module>", "from pickle import ..."),
        ("engine.py", "spawn", "ForkingPickler"),
        ("wire.py", "encode_batch", "pickle.dumps"),
        ("worker.py", "<module>",
         "from multiprocessing.reduction import ForkingPickler"),
        ("worker.py", "PartitionRuntime._fetch", "ForkingPickler.loads"),
        ("worker.py", "PartitionRuntime.result", "ForkingPickler.dumps"),
    ]


def test_cli_reports_exchange_pickle_violation(tmp_path):
    root = _write_worker_tree(
        tmp_path,
        "class PartitionRuntime:\n"
        "    def wait_peers(self):\n"
        "        return self.conn.recv()\n",
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "hotpath_lint.py"),
         "--root", str(root)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "mesh exchange" in proc.stderr and "moves bytes only" in proc.stderr
