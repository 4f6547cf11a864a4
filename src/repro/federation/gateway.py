"""A site's federation gateway: the spill decision and fault state.

The federation's placement rule (§3.1's broker tree, stretched over
sites): a request entering a site is first bid out *inside* that site
only.  It leaves the site in exactly two cases —

* the local site **declines** outright (no rack broker bids: every
  plant is full or down), or
* the local site is **saturated**: its best local bid exceeds the
  gateway's ``spill_threshold`` (creation-cost bids grow with queue
  depth, so a high bid *is* the saturation signal).

The spill itself rides the shard ring of
:mod:`repro.federation.scenario`; the gateway holds what that path and
the :class:`~repro.faults.injector.FaultInjector` share: the spill
decision, the gateway's name, and the two fault windows.  Keeping
discovery site-local first is what makes the control plane shard: the
common-case request never leaves its site's kernel shard, and only
spill-overs cross :class:`~repro.sim.network.BoundaryLink`\\ s.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.shop.bidding import Bid
from repro.sim.kernel import Environment

__all__ = ["FederationGateway"]


class FederationGateway:
    """One site's entry point into the federated grid."""

    def __init__(self, site: int, spill_threshold: Optional[float] = None):
        if spill_threshold is not None and spill_threshold < 0:
            raise ValueError("spill_threshold must be non-negative")
        self.site = site
        #: Spill when the best local bid exceeds this cost (None =
        #: spill only when the local site declines outright).
        self.spill_threshold = spill_threshold
        #: The name fault plans target (``gateway-hang``).
        self.name = f"site{site}-gateway"
        #: Absolute simulated times this gateway is unavailable:
        #: ``down_until`` (site blackout — inbound spills are dropped)
        #: and ``hang_until`` (gateway hang — inbound spills stall).
        #: Both heal by clock comparison; the fault injector only ever
        #: raises them.
        self.down_until = 0.0
        self.hang_until = 0.0

    def should_spill(self, local_bids: Sequence[Bid]) -> bool:
        """Spill when the site declines or its best bid is saturated."""
        if not local_bids:
            return True
        if self.spill_threshold is None:
            return False
        return min(bid.cost for bid in local_bids) > self.spill_threshold

    def place(self, env: Environment) -> Generator:
        """Admit one inbound spilled request; True when this site may
        create it.

        A dark site refuses it (the spill is dropped and the source's
        bounded ack wait times out, exactly as for a dead WAN peer).
        A hung gateway stalls it until the hang ends, then refuses it
        if the site went dark in the meantime.
        """
        if self.hang_until > env.now and self.down_until <= env.now:
            yield env.timeout(self.hang_until - env.now)
        return self.down_until <= env.now

    def __repr__(self) -> str:
        return (
            f"<FederationGateway site={self.site} "
            f"spill_threshold={self.spill_threshold}>"
        )
