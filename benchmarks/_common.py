"""Shared benchmark-harness helpers.

Every benchmark regenerates one of the paper's tables or figures and
emits it both to stdout and to ``benchmarks/results/<name>.txt`` so the
harness output survives pytest's capture. Benchmarks that track a
performance trajectory additionally persist machine-readable results as
``BENCH_<name>.json`` at the repository root via :func:`emit_json`.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Any, Dict, Optional

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    banner = f"\n{'=' * 72}\n{text}\n{'=' * 72}"
    print(banner)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")


def git_revision() -> Optional[str]:
    """Current git commit hash, or ``None`` outside a work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def stage_summary(trace: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Compact per-stage breakdown of a trace for JSON payloads.

    Keeps the trajectory files small: per stage only the self time, the
    total wall time, and the call count (plus the worker-process flag
    when set).
    """
    if not trace:
        return {}
    summary: Dict[str, Any] = {}
    for stage, entry in sorted(trace.get("stages", {}).items()):
        row = {
            "self_s": entry["self_s"],
            "wall_s": entry["wall_s"],
            "count": entry["count"],
        }
        if entry.get("remote"):
            row["remote"] = True
        summary[stage] = row
    return summary


def emit_json(name: str, payload: Dict[str, Any]) -> str:
    """Persist machine-readable results as ``BENCH_<name>.json``.

    The file lands at the repository root so successive runs (one per
    PR) form a performance trajectory that is easy to diff. The payload
    is augmented with the bench name and the current git revision.
    """
    record: Dict[str, Any] = {"bench": name, "git_rev": git_revision()}
    record.update(payload)
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    return path
