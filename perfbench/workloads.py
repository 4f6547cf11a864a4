"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload has three steps, timed separately by ``rep.py``:

* ``setup(seed, shards)`` builds every input up to the first simulated
  arrival (testbeds, the shard plan, the fault plan, request lists);
* ``run(state)`` is the simulated workload itself;
* ``outcome(state, raw, timer)`` reads the simulated results, checks
  them and returns plain data (no wall-clock numbers except the
  per-create walls the timer took).

Everything in an outcome except ``create_wall`` and ``shards`` is a
pure function of the seed, so two runs at one seed must agree on its
``signature`` and ``counters`` — the repeat check in ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from typing import Any, Dict, List

from repro import CreateRequest, HardwareSpec, NetworkSpec, SoftwareSpec
from repro import build_testbed, invigo_workspace_dag
from repro.core.errors import ReproError
from repro.experiments.runner import PAPER_RUNS, run_creation_experiment
from repro.faults.audit import leak_report
from repro.faults.plan import grid_fault_plan
from repro.plant.warehouse import GoldenImage
from repro.sim.shard import ShardedTestbed
from repro.workloads.invigo import invigo_cached_prefix
from repro.workloads.megaload import (
    merge_site_summaries,
    sites_trace_signature,
)

#: Golden hash of the paper creation suite at seed 2004 (the same
#: digest the determinism tests pin as ``SUITE_FP``).
SUITE_FP = "4419f05b1e2d6032e877b636535242e0e2838c0a68083691788f6be5ebc8e583"
GOLDEN_SEED = 2004


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``nan`` when empty)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def bed_counters(bed) -> Dict[str, Any]:
    """Simulated work one testbed did, for the per-layer table."""
    records = bed.clone_records()
    stats = bed.warehouse.match_stats
    return {
        "events": bed.env.executed_events,
        "copy_s": [r.copy_time for r in records],
        "resume_s": [r.resume_time for r in records],
        "copy_sources": dict(Counter(r.copy_source for r in records)),
        "mb_served": float(bed.nfs.mb_served),
        "select_queries": stats["queries"],
        "select_hits": stats["memo_hits"],
        "bid_rounds": bed.shop.collector.collections,
        "bids": bed.shop.collector.bids_collected,
    }


def merge_counters(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    total: Dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, list):
                total.setdefault(key, []).extend(value)
            elif isinstance(value, dict):
                into = total.setdefault(key, {})
                for k, v in value.items():
                    into[k] = into.get(k, 0) + v
            else:
                total[key] = total.get(key, 0) + value
    return total


def _outcome(attempted, ok, failed, shed, p50, p95, signature,
             checks, create_wall, counters, **extra) -> Dict[str, Any]:
    out = {
        "attempted": attempted,
        "ok": ok,
        "failed": failed,
        "shed": shed,
        "sim_p50_s": p50,
        "sim_p95_s": p95,
        "signature": signature,
        "checks": checks,
        "create_wall": create_wall,
        "counters": counters,
        "ledger": {},
        "shards": [],
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# paper_seq: the paper's Section 4.2 creation suite, one client, closed loop
# ---------------------------------------------------------------------------


def suite_fingerprint(runs) -> str:
    """Hash of one creation suite, byte-compatible with ``SUITE_FP``."""
    h = hashlib.sha256()
    for memory in sorted(runs):
        run = runs[memory]
        for s in run.samples:
            h.update(
                repr(
                    (s.index, s.memory_mb, s.ok, s.latency, s.vmid,
                     s.plant, s.error)
                ).encode()
            )
        h.update(
            repr(
                [
                    (r.vmid, r.started_at, r.copy_time, r.resume_time,
                     r.total_time, r.pressure, r.host_vms_before)
                    for r in run.clone_records()
                ]
            ).encode()
        )
    return h.hexdigest()


class PaperSeq:
    """The 32/64/256 MB suite, repeated over consecutive seeds."""

    name = "paper_seq"
    suites = 4

    def setup(self, seed: int, shards: int):
        # The same testbeds run_creation_suite builds, made up front so
        # that their construction is set-up, not workload.
        return [
            (
                seed + k,
                {
                    memory: (
                        count,
                        failure_prob,
                        build_testbed(
                            seed=seed + k + memory,
                            n_plants=8,
                            vm_types=("vmware",),
                            clone_failure_prob=failure_prob,
                        ),
                    )
                    for memory, (count, failure_prob) in PAPER_RUNS.items()
                },
            )
            for k in range(self.suites)
        ]

    def patches(self, timer):
        return []

    def run(self, state):
        return [
            {
                memory: run_creation_experiment(
                    memory,
                    count,
                    seed=suite_seed + memory,
                    failure_prob=failure_prob,
                    testbed=bed,
                )
                for memory, (count, failure_prob, bed) in beds.items()
            }
            for suite_seed, beds in state
        ]

    def outcome(self, state, raw, timer, golden: str = SUITE_FP):
        fps = [suite_fingerprint(runs) for runs in raw]
        runs = [run for suite in raw for run in suite.values()]
        planned = [
            count for _, beds in state for count, _, _ in beds.values()
        ]
        checks = {
            "accounting": all(
                len(run.samples) == count
                and len(run.successes) + len(run.failures) == count
                for run, count in zip(runs, planned)
            ),
        }
        if state[0][0] == GOLDEN_SEED:
            checks["golden_suite_fp"] = fps[0] == golden
        ok = sum(len(run.successes) for run in runs)
        failed = sum(len(run.failures) for run in runs)
        latencies = [lat for run in runs for lat in run.creation_latencies]
        return _outcome(
            sum(planned), ok, failed, 0,
            quantile(latencies, 0.50), quantile(latencies, 0.95),
            _digest(fps), checks, timer.take(),
            merge_counters(
                [bed_counters(bed) for _, beds in state
                 for _, _, bed in beds.values()]
            ),
        )


# ---------------------------------------------------------------------------
# invigo_churn: open-loop In-VIGO workspaces, little sharing between requests
# ---------------------------------------------------------------------------

REDHAT_OS = "linux-redhat-8.0"


class InvigoChurn:
    """Poisson In-VIGO workspace churn: create, query, hold, destroy."""

    name = "invigo_churn"
    requests = 2000
    rate_per_s = 0.1
    hold_s = 240.0
    domains = 16
    population = 1_000_000
    #: One host-only network per domain on every plant.  With the
    #: paper's four, the sticky switch assignment locks a domain out
    #: for good once every plant has pinned four others, and the run
    #: measures that lock-out instead of the request path.
    networks_per_plant = 16

    def setup(self, seed: int, shards: int):
        rnd = random.Random(seed)
        image = GoldenImage(
            image_id="invigo-workspace",
            vm_type="vmware",
            os=REDHAT_OS,
            hardware=HardwareSpec(memory_mb=32, disk_gb=4.0),
            performed=tuple(invigo_cached_prefix()),
            memory_state_mb=32.0,
        )
        bed = build_testbed(
            seed=seed,
            memory_sizes=(),
            extra_images=[image],
            networks_per_plant=self.networks_per_plant,
        )
        arrivals = []
        at = 0.0
        for _ in range(self.requests):
            at += rnd.expovariate(self.rate_per_s)
            user = rnd.randrange(self.population)
            arrivals.append(
                (
                    at,
                    CreateRequest(
                        hardware=HardwareSpec(memory_mb=32),
                        software=SoftwareSpec(
                            os=REDHAT_OS,
                            dag=invigo_workspace_dag(f"user{user:07d}"),
                        ),
                        network=NetworkSpec(
                            domain=f"vo{user % self.domains:02d}.grid"
                        ),
                        client_id=f"user{user:07d}",
                        vm_type="vmware",
                    ),
                )
            )
        return bed, arrivals

    def patches(self, timer):
        return []

    def run(self, state):
        bed, arrivals = state
        env, shop, hold_s = bed.env, bed.shop, self.hold_s
        results: List[tuple] = []

        def user(index, at, request):
            yield env.timeout(at - env.now)
            start = env.now
            try:
                ad = yield from shop.create(request)
            except ReproError as exc:
                results.append((index, False, math.nan, "", "", 0, str(exc)))
                return
            latency = env.now - start
            vmid = str(ad["vmid"])
            yield from shop.query(vmid)
            yield env.timeout(hold_s)
            yield from shop.destroy(vmid)
            results.append(
                (index, True, latency, vmid, str(ad["plant"]),
                 int(ad["actions_executed"]), "")
            )

        def clients():
            yield env.all_of(
                [env.process(user(i, at, req))
                 for i, (at, req) in enumerate(arrivals)]
            )

        bed.run(clients())
        return sorted(results)

    def outcome(self, state, raw, timer):
        bed, arrivals = state
        ok = sum(1 for r in raw if r[1])
        failed = len(raw) - ok
        checks = {
            "accounting": len(raw) == len(arrivals) == ok + failed,
            "leak_free": not any(leak_report(bed).values()),
        }
        latencies = [r[2] for r in raw if r[1]]
        return _outcome(
            len(arrivals), ok, failed, 0,
            quantile(latencies, 0.50), quantile(latencies, 0.95),
            _digest((raw, bed.env.executed_events)), checks, timer.take(),
            bed_counters(bed),
        )


# ---------------------------------------------------------------------------
# grid_flash_chaos: the megachaos admission rung, sharded
# ---------------------------------------------------------------------------

#: Tenant priority tiers of the megachaos admission rung.
PRIORITIES = {"interactive": 0, "batch": 1, "crowd": 2}


class GridFlashChaos:
    """Four federated sites, a flash crowd and a site blackout, with
    failover and admission control on; run at two consecutive seeds so
    that one repetition averages over two traces."""

    name = "grid_flash_chaos"
    sites = 4
    requests_per_site = 600
    seeds = 2

    def setup(self, seed: int, shards: int):
        return [self._rung(seed + k, shards) for k in range(self.seeds)]

    def _rung(self, seed: int, shards: int):
        """The admission rung of run_megachaos at this size."""
        plan = grid_fault_plan(
            seed,
            self.sites,
            self.requests_per_site / 2.0 + 6 * 60.0,
            plants_per_site=8,
            mttr_s=60.0,
            blackout_sites=(1,),
            blackout_at=110.0,
            blackout_s=60.0,
        )
        params = {
            "requests": self.requests_per_site,
            "spill_deadline_s": 120.0,
            "memory_mb": 64,
            "interactive_fraction": 0.4,
            "batch_fraction": 0.3,
            "fault_plan": plan.to_records(),
            "spill_attempts": 3,
            "spill_backoff_s": 20.0,
            "local_fallback": True,
            "reroute_on_blackout": True,
            "shed_depth": 240,
            "preempt_depth": 160,
            "priorities": dict(PRIORITIES),
        }
        bed = ShardedTestbed(
            seed=seed, sites=self.sites, shards=shards, scenario="megaload"
        )
        return bed, params

    def patches(self, timer):
        """Ship each site's create walls and layer counters home in its
        stats (shard workers are forked, so they inherit the patch)."""

        def make(collect):
            def collect_with_probe(scenario, handle):
                stats = collect(scenario, handle)
                stats["perfbench"] = {
                    "create_wall": timer.take(handle.env),
                    "counters": bed_counters(handle.fsite.bed),
                }
                return stats

            return collect_with_probe

        return [("repro.workloads.megaload", "MegaLoadScenario.collect", make)]

    def run(self, state):
        runs = []
        for bed, params in state:
            result = bed.run(params=params, collect=None, deadline_s=150.0)
            partition = dict(enumerate(result.partition))
            merged = merge_site_summaries(
                result.site_results, group_of=lambda site: partition[site]
            )
            runs.append((result, merged))
        return runs

    def outcome(self, state, raw, timer):
        checks: Dict[str, bool] = {}
        signatures, probes, ledger, shards = [], [], Counter(), {}
        arrivals = 0
        for result, merged in raw:
            stats = result.combined_stats()
            arrivals += int(stats["arrivals"])
            served = sum(merged.total(k) for k in ("ok", "failed", "shed"))
            run_checks = {
                "accounting": int(stats["arrivals"]) == served,
                "leak_free": not any(
                    v for k, v in stats.items() if k.startswith("leak_")
                ),
            }
            if result.shards > 1:
                sent = {
                    (src, dst): n
                    for src, s in enumerate(result.shard_results)
                    for dst, n in s["sent"].items()
                }
                recv = {
                    (src, dst): n
                    for dst, s in enumerate(result.shard_results)
                    for src, n in s["recv"].items()
                }
                run_checks["ring_sent_eq_recv"] = sent == recv
            for name, ok in run_checks.items():
                checks[name] = checks.get(name, True) and ok
            signatures.append(
                (
                    merged.state_signature(),
                    sites_trace_signature(result.site_results),
                    json.dumps(stats, sort_keys=True),
                )
            )
            probes += [r["stats"]["perfbench"] for r in result.site_results]
            ledger.update(
                spill_retries=int(stats["spill_retries"]),
                spill_failed=int(stats["spill_failed"]),
                spill_timeout=int(stats["spill_timeout"]),
                local_fallbacks=int(stats["local_fallbacks"]),
                faults_injected=int(stats["faults_applied"]),
            )
            # Per shard, summed over the runs.
            for index, s in enumerate(result.shard_results):
                into = shards.setdefault(
                    index, {"wall_s": 0.0, "cpu_s": 0.0, "sent": 0, "recv": 0}
                )
                into["wall_s"] += s["wall_s"]
                into["cpu_s"] += s["cpu_s"]
                into["sent"] += sum(s["sent"].values())
                into["recv"] += sum(s["recv"].values())
        total = raw[0][1]
        for _, merged in raw[1:]:
            total.merge(merged)
        overall = total.overall()
        return _outcome(
            arrivals, total.total("ok"), total.total("failed"),
            total.total("shed"),
            overall.quantile(0.50), overall.quantile(0.95),
            _digest(signatures), checks,
            [x for p in probes for x in p["create_wall"]],
            merge_counters([p["counters"] for p in probes]),
            ledger=dict(ledger),
            shards=[shards[i] for i in sorted(shards)],
        )


WORKLOADS = {w.name: w for w in (PaperSeq(), InvigoChurn(), GridFlashChaos())}
