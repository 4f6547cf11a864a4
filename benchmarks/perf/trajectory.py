"""Trajectory files shared by the ``benchmarks/perf`` scripts.

Every bench script appends one JSON record per run to a list in
``benchmarks/results/BENCH_<name>.json``, so throughput is tracked as
a trajectory across commits.  This module owns that file format: the
record header, the tolerant loader, the atomic append, and the
``--small [--million] [--out F]`` command line the scripts share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

__all__ = ["RESULTS_DIR", "load", "append", "main"]

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def load(path: Path) -> list:
    """The recorded trajectory at ``path`` (empty if absent/corrupt)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        return data if isinstance(data, list) else []
    except (OSError, ValueError):
        return []


def append(path: Path, workload: str, fields: dict) -> dict:
    """Append one record to the trajectory at ``path``; return it.

    The record is the header (UTC timestamp, workload, ``cpu_count``,
    python version) followed by ``fields``.  The file is rewritten
    through a temporary file and ``os.replace``, so a crash mid-write
    leaves the previous trajectory intact.
    """
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    record.update(fields)
    trajectory = load(path)
    trajectory.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return record


def main(
    run: Callable[[str, Optional[Path]], dict],
    description: str,
    rungs: Sequence[str] = ("small",),
) -> None:
    """Command line of a bench script: pick a workload, run, print.

    Each name in ``rungs`` becomes a ``--<name>`` flag selecting that
    workload instead of ``paper``; ``--out`` redirects the record from
    the script's committed trajectory file.
    """
    parser = argparse.ArgumentParser(description=description)
    choice = parser.add_mutually_exclusive_group()
    for rung in rungs:
        choice.add_argument(
            f"--{rung}",
            dest="workload",
            action="store_const",
            const=rung,
            default="paper",
            help=f"run the {rung} workload instead of paper",
        )
    parser.add_argument(
        "--out", type=Path, default=None, help="trajectory file path"
    )
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.out), indent=2))
