"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 simbench/run.py --workload cc_fig7 --seed 0 --seconds 20 --trace 0

Run from the repository root.  The measurement happens in a fresh child
interpreter (``measure.py``) so that every run starts cold and its peak
RSS is its own; this script only times ``import repro`` in a few more
fresh interpreters (the import half of ``setup_s``), waits for every
process it started, and prints the result as the last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see BENCHMARK.json and README.md).  The line before it
is the run manifest.  Exits 2 without a result when the source tree or
the workload is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("degree_fig6", "cc_fig7", "degree_combine", "pdes_cc")
#: Fresh interpreters timing ``import repro``; the measuring child is one more.
IMPORT_PROBES = 2
#: Hard limit for the whole run, below the 180 s the benchmark promises.
BUDGET_S = 170.0

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "msgs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _fail(msg: str) -> int:
    print(f"simbench: error: {msg}", file=sys.stderr)
    return 2


def _run(cmd, env, timeout: float) -> str:
    """Run ``cmd`` in its own process group; return its stdout.

    Waits until every process of the group has exited (PDES workers and
    the multiprocessing resource tracker included), killing stragglers
    once the timeout is spent.
    """
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True,
        text=True,
    )
    deadline = time.monotonic() + timeout
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
            time.sleep(0.02)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {WORKLOADS}")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC / 'repro'}")

    t_start = time.monotonic()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    if not args.trace:
        for _ in range(IMPORT_PROBES):
            out = _run([sys.executable, "-c", _IMPORT_PROBE], env, 30.0)
            imports.append(float(out.split()[-1]))
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        out = _run(cmd, env, BUDGET_S - (time.monotonic() - t_start))
        doc = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"simbench: measurement failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    for line in doc["failures"]:
        print(f"simbench: FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics = doc["layer"]
    else:
        imports.append(doc["import_s"])
        values = {
            "wall_s": doc["wall_s"],
            "msgs_per_s": doc["app_messages"] / doc["wall_s"],
            "setup_s": statistics.median(imports) + doc["build_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    manifest = dict(doc["manifest"], import_s=imports, passes=doc["passes"])
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": doc["failed"] == 0 and not doc["failures"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
