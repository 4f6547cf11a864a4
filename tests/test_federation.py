"""Federated multi-site control plane: addressing, sites, spill-over.

Pins the federation contracts:

* **hierarchical vnet allocation** — site blocks are disjoint pure
  functions of ``(sites, base_octet, subnets_per_site)``, exhaust with
  :class:`VNetError`, reuse released subnets FIFO, and reject foreign
  or double releases;
* **determinism across shard counts** — the ``federation`` scenario's
  merged-trace fingerprint is identical at 1, 2 and 4 shards, and the
  classic single-site testbed is untouched by the federation plumbing;
* **request accounting** — every arrival ends created or failed, also
  when the spill ring and the local fallback both give up.

Plus the site wiring: rack brokers in front of the shop, site-prefixed
names, disjoint subnet blocks, and the gateway's spill decision.
"""

from __future__ import annotations

import pytest

from repro.core.errors import VNetError
from repro.faults.plan import SITE_BLACKOUT, FaultEvent, FaultPlan
from repro.federation.addressing import (
    ADDRESSES_PER_SUBNET,
    HierarchicalAddressPlan,
    SubnetBlock,
)
from repro.federation.gateway import FederationGateway
from repro.federation.site import build_federated_site
from repro.shop.bidding import Bid
from repro.sim.cluster import build_testbed, run_process
from repro.sim.kernel import Environment
from repro.sim.shard import ShardedTestbed
from repro.workloads.requests import experiment_request


# ---------------------------------------------------------------------------
# Hierarchical vnet allocation
# ---------------------------------------------------------------------------


class TestSubnetBlock:
    def test_sequential_allocation_format(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=4)
        assert block.allocate_many(4) == [
            "10.0.0", "10.0.1", "10.0.2", "10.0.3"
        ]

    def test_index_arithmetic_crosses_octet_boundary(self):
        block = SubnetBlock(site=1, base_octet=10, start=255, count=2)
        assert block.allocate_many(2) == ["10.0.255", "10.1.0"]

    def test_exhaustion_raises(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=3)
        block.allocate_many(3)
        assert block.remaining == 0
        with pytest.raises(VNetError, match="exhausted"):
            block.allocate()

    def test_release_reuse_is_fifo(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=3)
        a, b, c = block.allocate_many(3)
        block.release(b)
        block.release(a)
        # Released subnets come back in release order, before any
        # (here impossible) cursor advance.
        assert block.allocate() == b
        assert block.allocate() == a
        assert block.allocated == 3

    def test_double_release_rejected(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=2)
        sub = block.allocate()
        block.release(sub)
        with pytest.raises(VNetError, match="twice"):
            block.release(sub)

    def test_never_allocated_release_rejected(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=8)
        block.allocate()
        with pytest.raises(VNetError, match="never allocated"):
            block.release("10.0.5")

    def test_foreign_subnet_release_rejected(self):
        plan = HierarchicalAddressPlan(4, subnets_per_site=16)
        site0, site1 = plan.block(0), plan.block(1)
        stolen = site1.allocate()
        assert stolen not in site0
        with pytest.raises(VNetError, match="another site"):
            site0.release(stolen)

    def test_malformed_subnet_rejected(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=2)
        for bad in ("192.168.0", "10.0", "10.x.0", "10.999.0"):
            with pytest.raises(VNetError):
                block.release(bad)
            assert bad not in block


class TestHierarchicalAddressPlan:
    def test_site_blocks_are_disjoint(self):
        plan = HierarchicalAddressPlan(4, subnets_per_site=32)
        seen = set()
        for site in range(4):
            subnets = set(plan.block(site).allocate_many(32))
            assert len(subnets) == 32
            assert not (subnets & seen)
            seen |= subnets

    def test_plan_is_pure_function_of_inputs(self):
        """Two independent plan instances (two forked workers) derive
        the same block for the same site."""
        first = HierarchicalAddressPlan(8).block(5)
        second = HierarchicalAddressPlan(8).block(5)
        assert first.allocate_many(10) == second.allocate_many(10)

    def test_sixteen_sites_pass_the_million_address_rung(self):
        plan = HierarchicalAddressPlan(16)
        assert plan.subnets_per_site == 4096
        assert plan.site_capacity == 4096 * ADDRESSES_PER_SUBNET
        assert plan.site_capacity > 1_000_000
        assert plan.total_capacity == 16 * plan.site_capacity

    def test_site_of_reverse_lookup(self):
        plan = HierarchicalAddressPlan(4, subnets_per_site=256)
        for site in (0, 1, 3):
            sub = plan.block(site).allocate()
            assert plan.site_of(sub) == site
            assert plan.site_of(sub + ".17") == site  # full guest IP
        with pytest.raises(VNetError, match="outside"):
            plan.site_of("10.255.255")  # past site 3's block

    def test_exhaustion_is_per_site(self):
        plan = HierarchicalAddressPlan(2, subnets_per_site=2)
        plan.block(0).allocate_many(2)
        with pytest.raises(VNetError):
            plan.block(0).allocate()
        # Site 1's block is untouched by site 0 running dry.
        assert plan.block(1).allocate() == "10.0.2"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalAddressPlan(0)
        with pytest.raises(ValueError):
            HierarchicalAddressPlan(4, base_octet=0)
        with pytest.raises(ValueError):
            HierarchicalAddressPlan(4, subnets_per_site=65536)
        with pytest.raises(ValueError):
            HierarchicalAddressPlan(2).block(2)


# ---------------------------------------------------------------------------
# Site wiring and the spill decision
# ---------------------------------------------------------------------------


def _bid(cost: float) -> Bid:
    return Bid(bidder_name=f"b{cost}", cost=cost, bidder=object())


class TestFederatedGrid:
    def test_sites_share_one_kernel_with_disjoint_state(self):
        env = Environment()
        plan = HierarchicalAddressPlan(2)
        sites = [
            build_federated_site(
                s, 2, seed=3, n_plants=2, rack_size=2, plan=plan, env=env
            )
            for s in range(2)
        ]
        assert sites[0].bed.env is sites[1].bed.env is env
        # Each site publishes site-prefixed names in its own registry.
        for s, fsite in enumerate(sites):
            assert f"site{s}-plant0" in fsite.bed.registry
            assert f"site{s}-vmshop" in fsite.bed.registry
            assert f"site{1 - s}-plant0" not in fsite.bed.registry
        # Each site's pools draw from its own subnet block.
        pools0, pools1 = (
            {
                net.subnet
                for p in fsite.bed.plants
                for net in p.network_pool.networks
            }
            for fsite in sites
        )
        assert pools0 and pools1 and not (pools0 & pools1)

    def test_rack_brokers_front_the_shop(self):
        site = build_federated_site(0, 1, seed=3, n_plants=4, rack_size=2)
        assert [r.name for r in site.racks] == ["site0-rack0", "site0-rack1"]
        # The shop bids against the broker tier, not plants directly.
        assert site.shop.bidders == site.racks
        ad = run_process(
            site.bed.env, site.shop.create(experiment_request(32))
        )
        assert str(ad["vmid"]).startswith("site0-vmshop-vm-")

    def test_gateway_spills_when_local_site_declines(self):
        """No plant anywhere can host a 4 GB guest: every site
        declines, so every request rides the ring, the neighbour
        declines too, and each request is counted failed once."""
        params = {
            "plants": 1,
            "rack_size": 1,
            "memory_mb": 4096,
            "requests": 3,
            "cross_fraction": 0.0,
        }
        run = ShardedTestbed(
            seed=3, sites=2, shards=1, scenario="federation"
        ).run(params=params, deadline_s=None)
        stats = run.combined_stats()
        assert stats["spill_declined"] == stats["spills_sent"] == 6
        assert stats["spill_failed"] == 6 and stats["spilled_ok"] == 0
        assert stats["created"] == 0 and stats["failed"] == 6

    def test_should_spill_threshold(self):
        gw = FederationGateway(0, spill_threshold=50.0)
        assert gw.should_spill([])  # decline: no bids at all
        assert not gw.should_spill([_bid(10.0), _bid(60.0)])
        assert gw.should_spill([_bid(51.0)])  # saturated
        # No threshold configured: never spill while the site bids.
        gw_free = FederationGateway(0)
        assert not gw_free.should_spill([_bid(1e9)])
        assert gw_free.should_spill([])
        with pytest.raises(ValueError, match="non-negative"):
            FederationGateway(0, spill_threshold=-1.0)
        # The site builder hands its threshold to the gateway.
        site = build_federated_site(
            1, 2, seed=3, n_plants=1, rack_size=1, spill_threshold=50.0
        )
        assert site.gateway.spill_threshold == 50.0
        assert site.gateway.name == "site1-gateway"


# ---------------------------------------------------------------------------
# Determinism across shard counts; classic testbed untouched
# ---------------------------------------------------------------------------


class TestFederationDeterminism:
    def test_fingerprint_identical_at_1_2_4_shards(self):
        params = {"plants": 2, "requests": 10, "cross_fraction": 0.3}
        runs = {}
        for shards in (1, 2, 4):
            plan = ShardedTestbed(
                seed=13, sites=4, shards=shards, scenario="federation"
            )
            runs[shards] = plan.run(
                params=params, collect="fingerprint", deadline_s=120.0
            )
        fps = {s: r.fingerprint() for s, r in runs.items()}
        assert len(set(fps.values())) == 1, fps
        events = {s: r.total_events for s, r in runs.items()}
        assert len(set(events.values())) == 1, events
        stats = runs[4].combined_stats()
        assert stats["created"] == 4 * 10
        assert stats["failed"] == 0 and stats["spill_timeout"] == 0

    def test_classic_testbed_is_untouched_by_federation_plumbing(self):
        """Default ``build_testbed`` must keep the golden-trace shape:
        unprefixed names, plants bidding directly, no rack tier."""
        bed = build_testbed(seed=1, n_plants=2)
        assert bed.racks == []
        assert "plant0" in bed.registry and "vmshop" in bed.registry
        assert bed.shop.bidders == bed.plants
        with pytest.raises(ValueError):
            build_testbed(seed=1, n_plants=2, rack_size=0)


class TestFederationAccounting:
    @pytest.mark.parametrize(
        "bad",
        [
            {"spill_deadline_s": 0.0},
            {"spill_attempts": 0},
            {"spill_backoff_s": -1.0},
        ],
    )
    def test_bad_spill_params_rejected(self, bad):
        plan = ShardedTestbed(seed=1, sites=2, shards=1, scenario="federation")
        with pytest.raises(ValueError, match=next(iter(bad))):
            plan.run(params=bad)


    def test_failed_spills_are_counted_once_per_request(self):
        """Site 1 is dark for the whole run and every request is
        cross-site: site 1's own arrivals fail fast, and each of site
        0's requests times out both spill rounds and must be counted
        failed exactly once (not zero times, not once per round)."""
        plan = FaultPlan(
            [
                FaultEvent(
                    at=0.0, kind=SITE_BLACKOUT, target="site1",
                    duration=1e6, site=1,
                )
            ]
        )
        params = {
            "plants": 2,
            "requests": 10,
            "cross_fraction": 1.0,
            "spill_attempts": 2,
            "spill_deadline_s": 60.0,
            "fault_plan": plan.to_records(),
        }
        run = ShardedTestbed(
            seed=5, sites=2, shards=1, scenario="federation"
        ).run(params=params, deadline_s=None)
        stats = run.combined_stats()
        assert stats["created"] == 0
        assert stats["spill_timeout"] == 2 * 10
        assert stats["failed"] == 20
