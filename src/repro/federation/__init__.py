"""Federated multi-site control plane.

The paper's §3.1 architecture scales plant selection "directly, or
indirectly through VMBrokers"; this package builds the *indirect*
story at grid scale: an N-site grid where every site owns its own
VMShop, warehouse replica, cluster and vnet address block, sites are
federated through the existing :class:`~repro.shop.broker.VMBroker`
tree, and each site runs in its own kernel shard —

* :mod:`repro.federation.addressing` — hierarchical vnet allocation
  (site prefix → subnet block → host range) so guest addresses stay
  globally unique past the flat ``192.168/16`` ceiling;
* :mod:`repro.federation.site` — one site's wiring: rack-level broker
  hierarchy in front of the site shop, the site's subnet block, and
  the spill-over gateway;
* :mod:`repro.federation.gateway` — the site-local-first spill
  decision (``spill_threshold``) and the gateway's fault windows;
* :mod:`repro.federation.admission` — overload admission control
  (load shedding, pool preemption) at a site gateway;
* :mod:`repro.federation.scenario` — the ``federation`` shard
  scenario: one site per kernel :class:`~repro.sim.kernel.Environment`
  on the shard runner, spilled creates crossing a ring of
  :class:`~repro.sim.network.BoundaryLink`\\ s with lookahead, retried
  with backoff and falling back to the home site.
"""

from repro.federation.addressing import (
    HierarchicalAddressPlan,
    SubnetBlock,
)
from repro.federation.admission import AdmissionController
from repro.federation.gateway import FederationGateway
from repro.federation.site import FederatedSite, build_federated_site

__all__ = [
    "AdmissionController",
    "HierarchicalAddressPlan",
    "SubnetBlock",
    "FederationGateway",
    "FederatedSite",
    "build_federated_site",
]
