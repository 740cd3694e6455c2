"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-btb2 --seed 1 --seconds 20 --trace 0

Prints one human-readable line per metric, then, as the last line of
standard output, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the workload untraced and traced and
reports the per-layer metrics.  A results file with the run manifest
goes to ``perfbench/results/``.  Exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import fleet_btb1, run_btb2, serve_tenants  # noqa: E402
from perfbench.harness import (  # noqa: E402
    human_lines,
    output_metrics,
    write_results,
)

WORKLOADS = {
    "run-btb2": run_btb2.run,
    "fleet-btb1": fleet_btb1.run,
    "serve-tenants": serve_tenants.run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    result = WORKLOADS[args.workload](
        args.seed, args.seconds, trace, "small" if args.small else "full")
    path = write_results(args.workload, args.seed, trace, result,
                         vars(args))
    for line in human_lines(result, trace):
        print(line)
    print(f"results: {path.relative_to(ROOT)}")
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": output_metrics(result, trace)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
