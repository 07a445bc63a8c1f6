"""One benchmark pass in a fresh process.

Each pass runs in its own interpreter (a subprocess), so it starts from
the same process-global state every time (id generators, caches,
``perf.counters``) — which is what lets the same seed reproduce the same
digest — and so its peak RSS belongs to that pass alone.

Modes:

* ``timed`` — the workload untraced: the end-to-end numbers;
* ``traced`` — the workload with every layer wrapper installed: the
  per-layer numbers and the wrapper/``perf.counters`` cross-check.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Optional


def peak_rss_kb() -> int:
    """This process's peak resident set, in KiB.

    ``VmHWM`` is per address space, so it excludes the parent's memory
    that ``ru_maxrss`` carries across the spawn's exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def calibration_ns_per_op(loops: int = 200_000, repeats: int = 5) -> float:
    """A fixed pure-Python loop's ns per iteration (median of ``repeats``).

    The host's current speed: recorded with every result so runs on hosts
    of different speed can be compared, and taken just before and just
    after each pass's work to express its host seconds at a reference
    speed (see ``run.host_metrics``).
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc = (acc + i * i) & 0xFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e9 / loops


def run_pass(workload: str, seed: int, mode: str,
             overrides: Optional[dict] = None,
             spans_path: Optional[str] = None) -> dict:
    """Run one pass in this process and return its plain-data result."""
    from perfbench import layers, workloads
    from perfbench.tracing import Tracer
    from repro.obs.metrics import REGISTRY
    from repro.perf.counters import counters

    params = workloads.params_for(workload, overrides)
    runner = workloads.RUNNERS[workload]
    ns_before = calibration_ns_per_op()
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        layers.install(tracer)
    run = runner(workload, seed, params, tracer=tracer)
    ns_after = calibration_ns_per_op()
    result = run.result(counters.snapshot(), params["slo_limit_s"])
    result["rss_kb"] = peak_rss_kb()
    result["host_ns_per_op"] = math.sqrt(ns_before * ns_after)
    if tracer is None:
        return result
    result["stats"] = layers.stats_of(tracer)
    result["problems"].extend(
        f"wrapper/perf.counters mismatch: {problem}"
        for problem in layers.cross_check(result["stats"],
                                          result["counters"]))
    result["caches"] = layers.cache_hit_rates(REGISTRY.snapshot())
    result["spans"] = len(tracer.spans)
    if spans_path:
        tracer.write_spans(spans_path)
    tracer.uninstall()
    return result


def main(argv: list[str]) -> int:
    """``passes.py WORKLOAD SEED MODE OVERRIDES_JSON SPANS_PATH``.

    Prints the pass result as one JSON line; a failure exits non-zero
    with the traceback on stderr.
    """
    workload, seed, mode, overrides, spans_path = argv
    result = run_pass(workload, int(seed), mode, json.loads(overrides),
                      spans_path or None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main(sys.argv[1:]))
