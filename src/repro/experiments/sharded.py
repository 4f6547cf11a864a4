"""Shared pieces of the sharded sweeps.

``kernelbench``, ``federation``, ``megaload`` and ``megachaos`` all run
a :class:`~repro.sim.shard.ShardedTestbed` scenario at several shard
counts and hold it to the same contract: the merged-trace fingerprint
(and, for the streaming-summary scenarios, the merged
``WorkloadSummary.state_signature()``) is identical at every shard
count and reproduces on a repeat of the largest one.  This module owns
that recheck, its verdict and its report line, plus the per-run
numbers the drivers derive from a :class:`ShardRunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from repro.sim.shard import ShardedTestbed

__all__ = [
    "DeterminismCheck",
    "recheck_determinism",
    "shard_cpu_s",
    "agg_site_rate",
    "merged_summaries",
]


def _short(values: Dict[int, str]) -> Dict[int, str]:
    return {k: v[:16] for k, v in values.items()}


@dataclass(frozen=True)
class DeterminismCheck:
    """Outcome of :func:`recheck_determinism`."""

    #: shard count -> merged-trace fingerprint.
    fingerprints: Dict[int, str] = field(default_factory=dict)
    #: Fingerprint of the repeated run at the largest shard count.
    repeat_fingerprint: str = ""
    #: shard count -> merged summary signature (empty unless recorded).
    signatures: Dict[int, str] = field(default_factory=dict)
    repeat_signature: str = ""
    #: Most trace events any one run's bounded tracers dropped.
    trace_dropped: int = 0

    @property
    def ok(self) -> bool:
        """Every shard count agrees and the repeat reproduced exactly."""
        fps = set(self.fingerprints.values())
        if len(fps) != 1 or self.repeat_fingerprint not in fps:
            return False
        if not self.signatures:
            return True
        sigs = set(self.signatures.values())
        return len(sigs) == 1 and self.repeat_signature in sigs

    @property
    def fingerprint(self) -> str:
        """The fingerprint of the smallest shard count ("" if none)."""
        return next(iter(self.fingerprints.values()), "")

    def report_line(self) -> str:
        if self.ok:
            what = f"merged-trace fingerprint {self.fingerprint[:16]}"
            if self.signatures:
                sig = next(iter(self.signatures.values()))
                what += f" and summary signature {sig[:16]}"
            return (
                f"determinism: {what} identical at shard counts "
                f"{sorted(self.fingerprints)} and across repeats"
            )
        line = (
            f"determinism: FAILED — fingerprints "
            f"{_short(self.fingerprints)} "
            f"repeat {self.repeat_fingerprint[:16]}"
        )
        if self.signatures:
            line += (
                f"; signatures {_short(self.signatures)} "
                f"repeat {self.repeat_signature[:16]}"
            )
        return line


def recheck_determinism(
    scenario: str,
    seed: int,
    sites: int,
    shard_counts: Iterable[int],
    params: Dict[str, Any],
    deadline_s: Optional[float],
    trace_capacity: Optional[int] = None,
    signatures: bool = False,
) -> DeterminismCheck:
    """Run ``scenario`` at each shard count, then repeat the largest.

    Every run collects fingerprints under the same ``trace_capacity``;
    with ``signatures`` each also records its merged summary signature
    (scenarios that ship ``summary_state`` in their site stats).
    """
    fingerprints: Dict[int, str] = {}
    sigs: Dict[int, str] = {}
    dropped = 0

    def run(shards: int):
        nonlocal dropped
        result = ShardedTestbed(
            seed=seed, sites=sites, shards=shards, scenario=scenario
        ).run(
            params=params,
            collect="fingerprint",
            deadline_s=deadline_s,
            trace_capacity=trace_capacity,
        )
        dropped = max(dropped, result.trace_dropped)
        sig = merged_summaries(result).state_signature() if signatures else ""
        return result.fingerprint(), sig

    counts = sorted(set(shard_counts))
    for shards in counts:
        fingerprints[shards], sig = run(shards)
        if signatures:
            sigs[shards] = sig
    repeat_fp, repeat_sig = run(counts[-1]) if counts else ("", "")
    return DeterminismCheck(
        fingerprints=fingerprints,
        repeat_fingerprint=repeat_fp,
        signatures=sigs,
        repeat_signature=repeat_sig,
        trace_dropped=dropped,
    )


def shard_cpu_s(run) -> float:
    """CPU-seconds summed over the run's shard workers."""
    return sum(s["cpu_s"] for s in run.shard_results)


def agg_site_rate(run, stat: str) -> float:
    """Sum over shards of (its sites' ``stat`` / its CPU-seconds)."""
    per_site = {
        r["site"]: int(r["stats"].get(stat, 0)) for r in run.site_results
    }
    total = 0.0
    for s in run.shard_results:
        if s["cpu_s"] > 0:
            total += sum(per_site[site] for site in s["sites"]) / s["cpu_s"]
    return total


def merged_summaries(run):
    """The run's per-site ``WorkloadSummary`` states merged per shard."""
    from repro.workloads.megaload import merge_site_summaries

    partition = dict(enumerate(run.partition))
    return merge_site_summaries(
        run.site_results, group_of=lambda site: partition[site]
    )
