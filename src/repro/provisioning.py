"""Provisioning-throughput feature switches.

The paper's clone-time breakdown (Section 5, Tables 2-3) shows the
NFS transfer of the golden machine's suspended state dominating
creation time, and warm NFS caches cutting it dramatically.  Three
optional mechanisms model (and go beyond) that effect under heavy
concurrent traffic:

* **host-side golden-state cache** — each
  :class:`~repro.sim.host.PhysicalHost` keeps an LRU replica of
  recently cloned per-clone state on its local disk, bounded by
  ``host_cache_mb``; repeat clones of a cached image skip the shared
  NFS link and pay only local-copy latency (the warm-cache effect);
* **in-flight transfer coalescing** — concurrent clones of the same
  image onto the same host share one
  :class:`~repro.sim.network.FairShareLink` transfer instead of N
  contending flows;
* **adaptive speculative pools** — each plant pre-creates clones
  sized to its observed arrival rate and serves requests by extending
  a pooled VM, quoting a discounted bid when one is available (see
  :class:`~repro.plant.speculative.AdaptiveSpeculativePool`);
* **peer distribution trees** — golden-image delivery becomes a k-ary
  broadcast tree over per-host cluster uplinks instead of N pulls on
  the one warehouse link, optionally with popularity-driven proactive
  replica placement (see :mod:`repro.distribution`).

Everything defaults to **off**: a testbed built without an explicit
:class:`ProvisioningConfig` (or with the default one) reproduces the
seed golden trajectories bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProvisioningConfig", "FULL_PROVISIONING"]


@dataclass(frozen=True)
class ProvisioningConfig:
    """Switches of the provisioning-throughput layer.

    The mechanisms' own tunables (pool sizing, peer bandwidth,
    placement period, ...) keep the defaults of the classes that
    implement them: :class:`~repro.plant.speculative.AdaptiveSpeculativePool`,
    :class:`~repro.distribution.DistributionPlanner` and
    :class:`~repro.distribution.ReplicaPlacer`.
    """

    #: Host golden-state cache budget (MB); 0 disables the cache.
    host_cache_mb: float = 0.0
    #: Share in-flight warehouse transfers per (host, image)?
    coalesce_transfers: bool = False
    #: Attach an adaptive speculative pool manager to every plant?
    speculative_pools: bool = False
    #: Deliver LINK clone state over peer broadcast trees?
    distribution_tree: bool = False
    #: Concurrent peer serves per source host (1 = chained, 2 = binary).
    tree_fanout: int = 2
    #: Run the popularity-driven replica placement daemon?
    replica_placement: bool = False

    def __post_init__(self) -> None:
        if self.host_cache_mb < 0:
            raise ValueError("host_cache_mb must be non-negative")
        if self.tree_fanout < 1:
            raise ValueError("tree_fanout must be at least 1")
        if self.replica_placement and not self.distribution_tree:
            raise ValueError(
                "replica_placement requires distribution_tree (the "
                "placer pushes state through the tree planner)"
            )


#: Everything on, with a cache budget that comfortably holds the
#: paper warehouse's per-clone state (three images, ≤ 272 MB each).
FULL_PROVISIONING = ProvisioningConfig(
    host_cache_mb=1024.0,
    coalesce_transfers=True,
    speculative_pools=True,
    distribution_tree=True,
    replica_placement=True,
)
