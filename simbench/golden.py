"""Regenerate ``golden.json``: serial digests for the two pinned seeds.

    PYTHONPATH=src python3 simbench/golden.py

Every cell of every workload runs once, serially, for
:data:`workloads.DEFAULT_SEED` and :data:`workloads.HELDOUT_SEED`, and
its :func:`workloads.cell_record` is stored.  A partitioned cell is run
serially too, so its golden entry *is* the serial digest it must match.
Only regenerate after a change that is meant to alter simulated results.
"""

from __future__ import annotations

import json
import os

import workloads


def main() -> None:
    golden: dict = {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
            entries = golden.setdefault(name, {}).setdefault(str(seed), {})
            for cell in wl.build(seed):
                world = cell.serial_world()
                res = world.run(cell.make())
                entries[cell.label] = workloads.cell_record(
                    cell, res, world.world.sim.steps
                )
                print(name, seed, cell.label, entries[cell.label]["events"])
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
