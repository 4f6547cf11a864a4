"""Perf smoke for the federated control plane: scaling + determinism.

Same philosophy as :mod:`benchmarks.perf.test_kernel_smoke`: same-run
assertions are relative (multi-site vs single-site in the same
process on the same host) with flake-safe thresholds; absolute
numbers are only checked against the recorded trajectory, and skipped
when no trajectory exists yet.
"""

from __future__ import annotations

import pytest

from benchmarks.perf import trajectory
from benchmarks.perf.federation_bench import FEDERATION_BENCH_PATH
from repro.experiments.federation import percentile, run_federation

#: Small same-run sweep: 4 sites, one worker per site, few enough
#: requests to finish in seconds on a loaded CI runner.
_SMOKE = dict(
    seed=7,
    site_counts=(1, 4),
    cross_fractions=(0.0, 0.2),
    plants_per_site=4,
    requests_per_site=24,
    determinism_requests=12,
    deadline_s=180.0,
)


@pytest.fixture(scope="module")
def smoke_sweep():
    return run_federation(**_SMOKE)


def test_federated_bids_scale_with_sites(smoke_sweep):
    """Aggregate bids/sec must scale with the site count.

    The acceptance record (paper workload) shows >=2x at 4 sites; the
    smoke workload is smaller so per-shard CPU measurements are
    noisier — 1.5x is the flake-safe floor.  Bids/sec sums each
    shard's site-local bids over its own CPU-seconds, so the bound
    holds even on a single-core runner.
    """
    speedup = smoke_sweep.bids_speedup(4, 0.0)
    assert speedup >= 1.5, (
        f"4-site aggregate bid rate only {speedup:.2f}x the "
        f"single-site control plane at smoke scale"
    )


def test_federation_run_is_deterministic(smoke_sweep):
    """Merged-trace fingerprints must agree across shard counts and
    reproduce across repeats of the same (seed, partition)."""
    assert smoke_sweep.determinism.ok, (
        smoke_sweep.determinism.report_line()
    )


def test_cross_site_traffic_actually_crosses(smoke_sweep):
    """The cross-fraction sweep must exercise the spill-over path —
    spills sent, acknowledged, and completed within the deadline —
    while the zero-fraction run stays entirely site-local."""
    crossing = smoke_sweep.point(4, 0.2)
    assert crossing.spills_sent > 0
    assert crossing.spilled_ok > 0
    assert crossing.spill_timeout == 0
    local_only = smoke_sweep.point(4, 0.0)
    assert local_only.spills_sent == 0
    assert local_only.created == 4 * _SMOKE["requests_per_site"]


def test_percentile_helper():
    assert percentile([], 95.0) == 0.0
    assert percentile([3.0], 95.0) == 3.0
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 95.0) == 95
    # Nearest rank is ceil(q/100 * n): halves round up, never to even.
    assert percentile([1, 2, 3, 4, 5], 50.0) == 3
    assert percentile(range(1, 10), 50.0) == 5
    assert percentile([5, 1, 3], 50.0) == 3
    assert percentile([1, 2, 3, 4, 5, 6, 7], 95.0) == 7


def test_federation_regression_vs_trajectory(smoke_sweep):
    """Recorded sweeps must keep meeting the acceptance bar.

    Every recorded run must have passed its determinism recheck,
    paper-workload records must hold the 2x 4-site bids/sec speedup
    from the acceptance criteria, and the same-run single-site bid
    rate must stay within 2x of the recorded best.
    """
    records = trajectory.load(FEDERATION_BENCH_PATH)
    if not records:
        pytest.skip("no recorded federation-bench trajectory")
    for rec in records:
        assert rec["deterministic"] is True, (
            f"recorded sweep at {rec.get('timestamp')} failed its "
            f"determinism recheck"
        )
    paper = [rec for rec in records if rec.get("workload") == "paper"]
    if paper:
        latest = paper[-1]
        assert latest["bids_speedups"]["4x0"] >= 2.0
    best = max(
        (
            point["agg_bids_per_sec"]
            for rec in records
            for point in rec.get("points", [])
            if point.get("sites") == 1 and point.get("cross_fraction") == 0.0
        ),
        default=0.0,
    )
    if best:
        bps = smoke_sweep.point(1, 0.0).agg_bids_per_sec
        assert bps > best / 2.0, (
            f"single-site control plane {bps:.0f} bids/s is <half "
            f"the recorded best ({best:.0f} bids/s)"
        )


def test_latest_recorded_sweep_passes_the_bench_gate():
    """The newest recorded sweep (in CI, the one ``federation_bench
    --small`` has just appended) must hold the bench gate: determinism
    recheck passed, >=1.5x 4-site bids/sec speedup, at least one
    completed spill at 4 sites, and no failed request or timed-out
    spill at any point."""
    records = trajectory.load(FEDERATION_BENCH_PATH)
    if not records:
        pytest.skip("no recorded federation-bench trajectory")
    latest = records[-1]
    assert latest["deterministic"] is True, "determinism recheck failed"
    speedup = latest["bids_speedups"]["4x0"]
    assert speedup >= 1.5, (
        f"4-site bids/sec speedup {speedup}x below 1.5x floor"
    )
    crossing = [
        p
        for p in latest["points"]
        if p["sites"] == 4 and p["cross_fraction"] > 0
    ]
    assert any(p["spilled_ok"] > 0 for p in crossing), (
        "no cross-site spill-over completed at 4 sites"
    )
    bad = [
        (p["sites"], p["cross_fraction"])
        for p in latest["points"]
        if p["failed"] or p["spill_timeout"]
    ]
    assert not bad, f"requests failed or spills timed out at {bad}"
