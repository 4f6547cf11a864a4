"""Federation benchmark: control-plane bids/sec across site counts.

Runs the ``federation`` sweep (see
:mod:`repro.experiments.federation`) and appends one record to
``benchmarks/results/BENCH_federation.json`` so aggregate bids/sec,
create p95 latency and the 4-site speedup are tracked as a trajectory
across commits.  Each record carries the determinism recheck: the
largest grid's merged-trace fingerprint must agree between 1 shard
and one-shard-per-site, and reproduce across repeats.

Run::

    PYTHONPATH=src python -m benchmarks.perf.federation_bench          # paper sweep
    PYTHONPATH=src python -m benchmarks.perf.federation_bench --small  # CI smoke
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from benchmarks.perf import trajectory
from repro.experiments.federation import run_federation

__all__ = [
    "FEDERATION_BENCH_PATH",
    "run_federation_bench",
]

FEDERATION_BENCH_PATH = trajectory.RESULTS_DIR / "BENCH_federation.json"

PAPER_SEED = 2004


def run_federation_bench(
    workload: str = "paper", out: Optional[Path] = None
) -> dict:
    """Run the sweep; append the record to the trajectory file."""
    if workload == "small":
        result = run_federation(
            seed=PAPER_SEED,
            site_counts=(1, 4),
            cross_fractions=(0.0, 0.2),
            plants_per_site=4,
            requests_per_site=40,
            determinism_requests=16,
        )
    else:
        result = run_federation(
            seed=PAPER_SEED,
            site_counts=(1, 4, 16),
            cross_fractions=(0.0, 0.1, 0.3),
            plants_per_site=8,
            requests_per_site=160,
        )
    record = trajectory.append(
        out or FEDERATION_BENCH_PATH, workload, result.to_record()
    )
    print(result.render())
    return record


if __name__ == "__main__":
    trajectory.main(run_federation_bench, __doc__)
