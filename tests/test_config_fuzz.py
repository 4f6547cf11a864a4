"""Config fuzzer: random recovery x provisioning combinations.

Hypothesis draws every :class:`~repro.faults.recovery.RecoveryPolicy`
and :class:`~repro.provisioning.ProvisioningConfig` knob, a clone
failure probability and an optional host crash, and runs a 3-plant,
12-request Poisson workload under the combination.  Whatever the
knobs, a run must

* account for every request: ``ok + failed == arrivals``;
* leave nothing behind once the speculative pools shut down
  (:func:`~repro.faults.audit.leak_report` all zero);
* be a pure function of its inputs: the same seed twice gives the
  same outcome list.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.faults.audit import leak_report
from repro.faults.injector import FaultInjector
from repro.faults.plan import HOST_CRASH, FaultEvent, FaultPlan
from repro.faults.recovery import RecoveryPolicy
from repro.provisioning import ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.workloads.requests import poisson_arrivals, request_stream

REQUESTS = 12

recovery_policies = st.builds(
    RecoveryPolicy,
    create_deadline_s=st.none() | st.floats(20.0, 300.0),
    max_attempts=st.integers(1, 4),
    backoff_base_s=st.floats(0.0, 30.0),
    bid_deadline_s=st.none() | st.floats(1.0, 20.0),
    quarantine_threshold=st.integers(0, 3),
    quarantine_s=st.floats(10.0, 400.0),
)


@st.composite
def provisioning_configs(draw) -> ProvisioningConfig:
    tree = draw(st.booleans())
    return ProvisioningConfig(
        host_cache_mb=draw(st.sampled_from([0.0, 128.0, 1024.0])),
        coalesce_transfers=draw(st.booleans()),
        speculative_pools=draw(st.booleans()),
        distribution_tree=tree,
        tree_fanout=draw(st.integers(1, 3)),
        replica_placement=tree and draw(st.booleans()),
    )


#: ``None`` or ``(at, duration)`` of a crash of plant1's host.
host_crashes = st.none() | st.tuples(
    st.floats(0.0, 200.0), st.floats(1.0, 120.0)
)


def _run(policy, prov, clone_failure_prob, crash, seed):
    """One workload; returns ``(outcomes, leaks)``."""
    bed = build_testbed(
        seed=seed,
        n_plants=3,
        recovery=policy,
        provisioning=prov,
        clone_failure_prob=clone_failure_prob,
    )
    if crash is not None:
        at, duration = crash
        event = FaultEvent(
            at=at, kind=HOST_CRASH, target="plant1", duration=duration
        )
        FaultInjector(bed, FaultPlan([event])).start()
    if bed.placer is not None:
        bed.placer.start()
    times = poisson_arrivals(bed.rng, 0.1, REQUESTS, stream="fuzz")
    outcomes = []

    def one(idx, at, request):
        yield bed.env.timeout(at)
        start = bed.env.now
        try:
            ad = yield from bed.shop.create(request)
        except ReproError:
            outcomes.append((idx, "fail", bed.env.now - start))
            return
        outcomes.append((idx, "ok", bed.env.now - start))
        yield bed.env.timeout(30.0)
        try:
            yield from bed.shop.destroy(str(ad["vmid"]))
        except ReproError:
            pass  # crash-killed underneath us mid-hold

    def client():
        procs = [
            bed.env.process(one(idx, at, request))
            for idx, (at, request) in enumerate(
                zip(times, request_stream(32, REQUESTS))
            )
        ]
        yield bed.env.all_of(procs)
        if bed.placer is not None:
            bed.placer.stop()
        for pool in bed.pools:
            yield from pool.shutdown()

    bed.run(client())
    return sorted(outcomes), leak_report(bed)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    policy=recovery_policies,
    prov=provisioning_configs(),
    clone_failure_prob=st.sampled_from([0.0, 0.1, 0.3]),
    crash=host_crashes,
    seed=st.integers(0, 2**16),
)
def test_any_config_conserves_requests_and_leaks_nothing(
    policy, prov, clone_failure_prob, crash, seed
):
    outcomes, leaks = _run(policy, prov, clone_failure_prob, crash, seed)
    ok = sum(1 for _, status, _ in outcomes if status == "ok")
    failed = sum(1 for _, status, _ in outcomes if status == "fail")
    assert ok + failed == REQUESTS
    assert sorted(idx for idx, _, _ in outcomes) == list(range(REQUESTS))
    assert all(v == 0 for v in leaks.values()), leaks
    again, _ = _run(policy, prov, clone_failure_prob, crash, seed)
    assert repr(again) == repr(outcomes)
