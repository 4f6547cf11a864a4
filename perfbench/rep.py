"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED SHARDS {plain,traced} [SPANS_FILE]

Prints one JSON object: the set-up and workload wall seconds, the CPU
seconds of this process and its shard workers during the workload,
the peak RSS of any of them, and a summary of the simulated outcome.
A ``traced`` repetition also reports the per-layer self times and
writes its spans, one JSON object a line, to ``SPANS_FILE``.

``run.py`` starts every repetition in a new process so that each one
pays the import of ``repro`` and sees no state left by another.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def summarize(outcome: dict) -> dict:
    """The outcome with its sample lists reduced to counts and quantiles."""
    from workloads import quantile

    counters = outcome["counters"]
    copy_s, resume_s = counters.pop("copy_s"), counters.pop("resume_s")
    counters["clones"] = len(copy_s)
    counters["copy_p50_s"] = quantile(copy_s, 0.50)
    counters["resume_p50_s"] = quantile(resume_s, 0.50)
    walls = outcome.pop("create_wall")
    cuts = statistics.quantiles(walls, n=100)
    outcome["creates"] = len(walls)
    outcome["create_wall_p50_s"] = cuts[49]
    outcome["create_wall_p99_s"] = cuts[98]
    return outcome


def main(argv) -> int:
    workload, seed, shards, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    if mode not in ("plain", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro
    import workloads
    from layers import CreateTimer, SpanTracer, layer_patches, patched

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[workload]
    state = wl.setup(seed, shards)
    setup_s = time.perf_counter() - t0

    timer = CreateTimer()
    tracer = SpanTracer() if mode == "traced" else None
    replacements = [("repro.shop.vmshop", "VMShop.create", timer.wrap)]
    replacements += wl.patches(timer)
    if tracer is not None:
        replacements += layer_patches(tracer)
    with patched(replacements):
        cpu0, children0 = time.process_time(), _children_cpu_s()
        w0 = time.perf_counter()
        raw = wl.run(state)
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - cpu0 + _children_cpu_s() - children0
    outcome = wl.outcome(state, raw, timer)

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "outcome": summarize(outcome),
    }
    if tracer is not None:
        out["layers"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "units": tracer.units,
            "spans": len(tracer.spans),
        }
        if len(argv) > 4:
            with open(argv[4], "w") as fh:
                for record in tracer.records():
                    fh.write(json.dumps(record) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
