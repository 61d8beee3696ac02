"""End-to-end benchmark of the leakage-estimation service.

Usage::

    python3 e2ebench/run.py --workload cold_corners --seed 1 \\
        --seconds 25 --trace 0

Runs one seeded workload (or ``all`` three in turn) for ``--seconds``
seconds through the service's public entry points, checks the outputs,
and prints a diagnostics line followed by the result line
``{"correct", "attempted", "failed", "metrics"}``; for a single
workload that result is the last line of standard output. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer ones. See ``README.md``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

WORKLOADS = ("cold_corners", "serve_hot", "explore_mixed")


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload and print its diagnostics and result lines."""
    module = __import__(name)
    steal, total = harness.cpu_jiffies()
    attempted, failed, values, diagnostics = module.run(seed, seconds, trace)
    steal_after, total_after = harness.cpu_jiffies()
    diagnostics["host_steal_share"] = (
        (steal_after - steal) / max(1, total_after - total))
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    metrics = {metric: harness.metric(values.get(metric, 0.0), unit)
               for metric, unit in units.items()}
    harness.emit({"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}, diagnostics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    harness.require_program()
    # A SIGTERM unwinds like an exception, so every ``finally`` runs and
    # the server process tree is stopped.
    signal.signal(signal.SIGTERM, _terminate)
    harness.confine_temp_files()
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            run_workload(name, args.seed, args.seconds, bool(args.trace))
    finally:
        harness.clear_temp_files()
    return 0


if __name__ == "__main__":
    sys.exit(main())
