"""Run ``python -m repro <args>`` with its temporary files in the checkout.

Usage::

    python3 e2ebench/launch.py serve --port 0 --worker-mode process

The benchmark reads and writes only inside its checkout. The process
worker pool keeps each worker's heartbeat in a ``multiprocessing``
shared value, and ``multiprocessing`` backs shared values with a file
it creates in ``/dev/shm``. Here that file goes to ``TMPDIR`` instead,
which the harness points at ``e2ebench/.tmp``; the program itself is
unchanged.
"""

from __future__ import annotations

import multiprocessing.heap
import os
import runpy
import sys

if __name__ == "__main__":
    multiprocessing.heap.Arena._dir_candidates = []
    # The module search path of ``python -m``: the working directory
    # first, not this script's directory.
    sys.path[0] = os.getcwd()
    sys.argv[0] = "repro"
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
