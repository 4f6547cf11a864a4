"""Matching-throughput benchmark: naive vs. indexed vs. memoized.

Measures golden-image selection throughput (bids/sec) against
warehouse size for the three matching paths:

* **naive** — brute-force :func:`~repro.core.matching.select_golden`
  over every image (the pre-index reference; still what the
  equivalence tests compare against);
* **indexed** — the warehouse's
  :class:`~repro.core.matchindex.MatchIndex` queried directly
  (bucketed hardware/os rejection + per-profile DAG tests, no memo);
* **memoized** — the full :meth:`~repro.plant.warehouse.VMWarehouse.
  select` path with the per-request memo, the way plants bid.

Each invocation verifies all three paths select the same winner, then
appends one record to ``benchmarks/results/BENCH_matching.json``.

Run::

    PYTHONPATH=src python -m benchmarks.perf.matching_bench          # 10 → 1000
    PYTHONPATH=src python -m benchmarks.perf.matching_bench --small  # CI smoke
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.perf import trajectory
from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.matching import select_golden
from repro.core.spec import HardwareSpec
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.workloads.requests import MANDRAKE_OS

__all__ = [
    "MATCH_BENCH_PATH",
    "PAPER_SIZES",
    "SMALL_SIZES",
    "build_matching_workload",
    "measure_matching",
    "run_matching_bench",
]

MATCH_BENCH_PATH = trajectory.RESULTS_DIR / "BENCH_matching.json"

#: Warehouse sizes of the full sweep (ISSUE 2 acceptance: ≥5x @ 1000).
PAPER_SIZES: Tuple[int, ...] = (10, 100, 1000)
#: Scaled-down sweep for CI smoke runs.
SMALL_SIZES: Tuple[int, ...] = (10, 50, 200)

PAPER_SEED = 2004
#: Length of the master configuration chain the images prefix.
CHAIN_LEN = 12
#: Distinct request DAGs rotated through per measurement (so the
#: memoized path exercises the memo table, not a single entry).
N_REQUEST_DAGS = 8


def _chain_actions(n: int = CHAIN_LEN) -> List[Action]:
    return [
        Action(f"step{i:02d}", command=f"configure --stage {i}")
        for i in range(n)
    ]


def build_matching_workload(
    n_images: int, seed: int = PAPER_SEED
) -> Tuple[VMWarehouse, List[ConfigDAG], HardwareSpec, str]:
    """A warehouse of ``n_images`` plus rotating request DAGs.

    Images are prefixes of a master configuration chain at varying
    depths (profiles repeat, as clone-and-publish sites produce), with
    ~25% "noise" images that differ in OS, memory or vm-type and are
    rejected by the index's bucket key alone.
    """
    rng = random.Random(seed)
    steps = _chain_actions()
    images: List[GoldenImage] = []
    for i in range(n_images):
        roll = rng.random()
        os_name, memory, vm_type = MANDRAKE_OS, 64, "vmware"
        if roll < 0.10:
            os_name = "windows-xp"
        elif roll < 0.18:
            memory = 512
        elif roll < 0.25:
            vm_type = "uml"
        depth = rng.randrange(0, CHAIN_LEN + 1)
        images.append(
            GoldenImage(
                image_id=f"img-{i:05d}",
                vm_type=vm_type,
                os=os_name,
                hardware=HardwareSpec(memory_mb=memory),
                performed=tuple(steps[:depth]),
                memory_state_mb=float(memory),
            )
        )
    warehouse = VMWarehouse(images)
    dags = []
    for k in range(N_REQUEST_DAGS):
        # Chains of the full master sequence plus a request-specific
        # tail action, so each request DAG has a distinct fingerprint.
        tail = Action(f"request-tail-{k}", command=f"finalize --req {k}")
        dags.append(ConfigDAG.from_sequence(steps + [tail]))
    return warehouse, dags, HardwareSpec(memory_mb=64), MANDRAKE_OS


def _throughput(fn, dags: List[ConfigDAG], bids: int) -> float:
    t0 = time.perf_counter()
    for i in range(bids):
        fn(dags[i % len(dags)])
    wall = time.perf_counter() - t0
    return bids / wall if wall > 0 else float("inf")


def measure_matching(
    n_images: int,
    seed: int = PAPER_SEED,
    naive_bids: Optional[int] = None,
    fast_bids: Optional[int] = None,
) -> Dict[str, float]:
    """Bids/sec for all three paths over one warehouse size."""
    warehouse, dags, hardware, os_name = build_matching_workload(
        n_images, seed
    )
    if naive_bids is None:
        naive_bids = max(5, min(400, 20000 // n_images))
    if fast_bids is None:
        fast_bids = 2000

    # Same winner on every path (spot equivalence, belt-and-braces on
    # top of tests/test_matchindex.py).
    for dag in dags:
        brute, brute_result, _ = select_golden(
            warehouse.images("vmware"), dag, hardware, os_name, "vmware"
        )
        indexed, indexed_result = warehouse._index.select(
            dag, hardware, os_name, "vmware"
        )
        memoized, memo_result = warehouse.select(
            dag, hardware, os_name, "vmware"
        )
        brute_id = brute.image_id if brute else None
        assert (indexed.image_id if indexed else None) == brute_id
        assert (memoized.image_id if memoized else None) == brute_id
        if brute_result is not None:
            assert indexed_result.residual == brute_result.residual
            assert memo_result.residual == brute_result.residual

    naive = _throughput(
        lambda dag: select_golden(
            warehouse.images("vmware"), dag, hardware, os_name, "vmware"
        ),
        dags,
        naive_bids,
    )
    indexed = _throughput(
        lambda dag: warehouse._index.select(
            dag, hardware, os_name, "vmware"
        ),
        dags,
        fast_bids,
    )
    memoized = _throughput(
        lambda dag: warehouse.select(dag, hardware, os_name, "vmware"),
        dags,
        fast_bids,
    )
    return {
        "images": n_images,
        "naive_bids_per_sec": round(naive, 1),
        "indexed_bids_per_sec": round(indexed, 1),
        "memoized_bids_per_sec": round(memoized, 1),
        "indexed_speedup": round(indexed / naive, 2) if naive else None,
        "memoized_speedup": round(memoized / naive, 2) if naive else None,
    }


def run_matching_bench(
    workload: str = "paper", out: Optional[Path] = None
) -> dict:
    """Sweep warehouse sizes; append the record to the trajectory."""
    sizes = SMALL_SIZES if workload == "small" else PAPER_SIZES
    points = [measure_matching(n) for n in sizes]
    return trajectory.append(
        out or MATCH_BENCH_PATH,
        workload,
        {
            "points": points,
            "speedup_at_max_size": points[-1]["memoized_speedup"],
        },
    )


if __name__ == "__main__":
    trajectory.main(run_matching_bench, __doc__)
