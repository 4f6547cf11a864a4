"""The VMPlants request-path benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Runs one workload (or all three) from the root of a checkout, checks
the simulated results, and prints every metric by name and unit.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (machine block, per-repetition numbers, checks).
A failed check makes the run an error: the result says
``"correct": false`` and the exit code is 1.

With ``--trace 0`` the run repeats the workload at one seed, each time
in a fresh process, until ``--seconds`` have passed (at least three
times), and reports medians of the end-to-end metrics.  With
``--trace 1`` it runs the workload untraced and then traced, and
reports the per-layer table.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Shard workers of each workload's end-to-end run (at most nproc = 2).
SHARDS = {"paper_seq": 1, "invigo_churn": 1, "grid_flash_chaos": 2}
MIN_REPS = 3
REP_TIMEOUT_S = 150.0
#: Stop starting repetitions once this much of the run has passed.
RUN_BUDGET_S = 120.0

#: name -> (unit, better); shown with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "vm_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "create_wall_p50_ms": ("ms", "lower"),
    "create_wall_p99_ms": ("ms", "lower"),
    "sim_create_p50_s": ("sim_s", "lower"),
    "sim_create_p95_s": ("sim_s", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

#: ``CloneRecord.copy_source`` values.
COPY_SOURCES = (
    "nfs", "coalesced", "host-cache", "line-cache", "peer", "local")


def _per_layer():
    table = {}
    for layer in LAYERS:
        table[f"{layer}.calls"] = ("count", "lower")
        table[f"{layer}.self_s"] = ("s", "lower")
        table[f"{layer}.share"] = ("ratio", "lower")
    table.update({
        "sim.kernel.self_s": ("s", "lower"),
        "sim.kernel.share": ("ratio", "lower"),
        "sim.kernel.events": ("count", "lower"),
        "sim.kernel.events_per_s": ("1/s", "higher"),
        "shop.bidding.bids_per_round": ("count", "higher"),
        "plant.warehouse.misses_per_create": ("ratio", "lower"),
        "plant.config.actions_per_create": ("count", "lower"),
    })
    for source in COPY_SOURCES:
        table[f"sim.hypervisor.clones.{source}"] = ("count", "lower")
    table.update({
        "sim.hypervisor.copy_p50_s": ("sim_s", "lower"),
        "sim.hypervisor.resume_p50_s": ("sim_s", "lower"),
        "sim.storage.mb_served": ("MB", "lower"),
        "federation.gateway.spill_retries": ("count", "lower"),
        "federation.gateway.spill_failures": ("count", "lower"),
        "federation.gateway.spill_timeouts": ("count", "lower"),
        "federation.gateway.local_fallbacks": ("count", "lower"),
        "federation.admission.shed": ("count", "lower"),
        "faults.injected": ("count", "lower"),
        "sim.shard.wait_s": ("s", "lower"),
        "sim.shard.records_sent": ("count", "lower"),
        "sim.shard.records_recv": ("count", "lower"),
        "sim.shard.cpu_imbalance": ("ratio", "lower"),
        "trace.overhead": ("ratio", "lower"),
        "trace.spans": ("count", "lower"),
    })
    return table


#: name -> (unit, better); shown with --trace 1.
PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """A repetition could not run (as opposed to a failed check)."""


# ---------------------------------------------------------------------------
# Machine block
# ---------------------------------------------------------------------------


def calibration_score(loops: int = 200_000, repeats: int = 5) -> float:
    """Millions of iterations per second of a fixed pure-Python loop
    (best of ``repeats``): divide a wall time by it to compare machines."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return loops / best / 1e6


def machine_block() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "calibration_mloops_per_s": calibration_score(),
    }


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def run_rep(workload: str, seed: int, shards: int, mode: str,
            spans_file: Path = None) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
           str(shards), mode]
    if spans_file is not None:
        cmd.append(str(spans_file))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} repetition timed out")
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} {mode} repetition failed "
            f"(exit {proc.returncode}):\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def simulated(rep: dict) -> dict:
    """The part of a repetition that must be identical at one seed."""
    out = rep["outcome"]
    keep = ("attempted", "ok", "failed", "shed", "sim_p50_s", "sim_p95_s",
            "signature", "counters", "ledger")
    return {k: out[k] for k in keep}


def check(reps) -> dict:
    """Every repetition's own checks, plus agreement between them."""
    checks = {}
    for rep in reps:
        for name, ok in rep["outcome"]["checks"].items():
            checks[name] = checks.get(name, True) and ok
    first = simulated(reps[0])
    checks["repeat_identical"] = all(simulated(r) == first for r in reps)
    return checks


def end_to_end(reps) -> dict:
    out = reps[0]["outcome"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "vm_per_s": statistics.median(
            r["outcome"]["ok"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        # Every repetition makes 1000 creates or more, so its p99 has
        # ten or more samples beyond it.
        "create_wall_p50_ms": 1e3 * statistics.median(
            r["outcome"]["create_wall_p50_s"] for r in reps),
        "create_wall_p99_ms": 1e3 * statistics.median(
            r["outcome"]["create_wall_p99_s"] for r in reps),
        "sim_create_p50_s": out["sim_p50_s"],
        "sim_create_p95_s": out["sim_p95_s"],
        "ok_ratio": out["ok"] / out["attempted"],
    }


def shard_metrics(rep: dict) -> dict:
    """Sync cost of a sharded repetition (all zero for one process)."""
    shards = rep["outcome"]["shards"]
    if len(shards) < 2:
        return {"sim.shard.wait_s": 0.0, "sim.shard.records_sent": 0,
                "sim.shard.records_recv": 0, "sim.shard.cpu_imbalance": 0.0}
    cpus = [s["cpu_s"] for s in shards]
    return {
        "sim.shard.wait_s": sum(s["wall_s"] - s["cpu_s"] for s in shards),
        "sim.shard.records_sent": sum(s["sent"] for s in shards),
        "sim.shard.records_recv": sum(s["recv"] for s in shards),
        "sim.shard.cpu_imbalance": max(cpus) / statistics.mean(cpus),
    }


def per_layer(traced: dict, base: dict, sharded: dict) -> dict:
    """The per-layer table of one traced repetition.

    ``base`` is the untraced repetition at the same shard count (for
    the tracing overhead and the kernel's event rate), ``sharded`` the
    untraced end-to-end repetition (for the shard sync numbers).
    """
    layers = traced["layers"]
    out = traced["outcome"]
    counters, ledger = out["counters"], out["ledger"]
    busy = traced["wall_s"]
    creates = max(1, out["creates"])
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layers["calls"].get(layer, 0)
        metrics[f"{layer}.self_s"] = layers["self_s"].get(layer, 0.0)
        metrics[f"{layer}.share"] = metrics[f"{layer}.self_s"] / busy
    kernel_s = busy - sum(layers["self_s"].values())
    rounds = counters["bid_rounds"]
    metrics.update({
        "sim.kernel.self_s": kernel_s,
        "sim.kernel.share": kernel_s / busy,
        "sim.kernel.events": counters["events"],
        "sim.kernel.events_per_s": counters["events"] / base["wall_s"],
        "shop.bidding.bids_per_round": counters["bids"] / rounds
        if rounds else 0.0,
        "plant.warehouse.misses_per_create": (
            counters["select_queries"] - counters["select_hits"]) / creates,
        "plant.config.actions_per_create":
            layers["units"].get("plant.config", 0) / creates,
    })
    for source in COPY_SOURCES:
        metrics[f"sim.hypervisor.clones.{source}"] = (
            counters["copy_sources"].get(source, 0))
    metrics.update({
        "sim.hypervisor.copy_p50_s": counters["copy_p50_s"],
        "sim.hypervisor.resume_p50_s": counters["resume_p50_s"],
        "sim.storage.mb_served": counters["mb_served"],
        "federation.gateway.spill_retries": ledger.get("spill_retries", 0),
        "federation.gateway.spill_failures": ledger.get("spill_failed", 0),
        "federation.gateway.spill_timeouts": ledger.get("spill_timeout", 0),
        "federation.gateway.local_fallbacks": ledger.get(
            "local_fallbacks", 0),
        "federation.admission.shed": out["shed"],
        "faults.injected": ledger.get("faults_injected", 0),
        "trace.overhead": traced["wall_s"] / base["wall_s"] - 1.0,
        "trace.spans": layers["spans"],
    })
    metrics.update(shard_metrics(sharded))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the repetitions; returns (record, metrics)."""
    shards = SHARDS[workload]
    start = time.perf_counter()

    def more(done: int) -> bool:
        elapsed = time.perf_counter() - start
        return elapsed < RUN_BUDGET_S and (
            done < (MIN_REPS if not trace else 1) or elapsed < seconds)

    reps, rows = [], []
    if not trace:
        while more(len(reps)):
            reps.append(run_rep(workload, seed, shards, "plain"))
        rows = [end_to_end([r]) for r in reps]
        metrics = end_to_end(reps)
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        while more(len(rows)):
            sharded = run_rep(workload, seed, shards, "plain")
            base = (sharded if shards == 1
                    else run_rep(workload, seed, 1, "plain"))
            spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
            traced = run_rep(workload, seed, 1, "traced",
                             None if rows else spans)
            reps += [sharded, traced] + ([base] if shards > 1 else [])
            rows.append(per_layer(traced, base, sharded))
        metrics = {name: statistics.median(row[name] for row in rows)
                   for name in PER_LAYER}
    checks = check(reps)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "machine": machine_block(),
        "repetitions": len(rows),
        "create_samples_per_rep": reps[0]["outcome"]["creates"],
        # Per repetition: every repetition simulates the same requests
        # (checked), so these do not grow with how many fit in the run.
        "attempted": reps[0]["outcome"]["attempted"],
        "failed": reps[0]["outcome"]["failed"] + reps[0]["outcome"]["shed"],
        "checks": checks,
        "simulated": simulated(reps[0]),
        "per_repetition": rows,
    }
    return record, metrics


def report(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    record, metrics = measure(workload, seed, seconds, trace)
    checks = record["checks"]
    table = PER_LAYER if trace else END_TO_END
    correct = all(checks.values())
    print(f"# {workload} seed={seed} trace={int(trace)} "
          f"repetitions={record['repetitions']} "
          f"checks={'ok' if correct else checks}")
    for name, (unit, _) in table.items():
        print(f"{name:<40} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in table.items()
        },
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(SHARDS) + ["all"])
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Byte-compile once, so that set-up times an import from cached
    # bytecode, as every run after a user's first one does.
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(tree, quiet=2)
    names = sorted(SHARDS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        try:
            correct &= report(name, args.seed, args.seconds,
                              bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
