"""Set-up probe: one fresh process's cost up to the first simulation step.

Imports ``repro``, builds the first cell of a workload's pass (its cluster,
VMs, workloads and telemetry) and, at the first ``Environment.run`` call,
prints ``time.monotonic()`` and exits.  The parent, which read the same
system-wide clock just before starting this process, takes the difference
as the set-up time.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent


def main(workload: str, seed: int) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from cells import cells_for, make_observability, run_cell

    from repro.simkernel.core import Environment

    def first_run(env, until=None):
        sys.stdout.write(f"{time.monotonic()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    Environment.run = first_run  # type: ignore[method-assign]
    run_cell(cells_for(workload, seed)[0], make_observability(workload))
    sys.exit("the first cell never reached Environment.run")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
