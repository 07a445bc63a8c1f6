"""The repository benchmark: Bento workloads through the real repro stack.

    python3 perfbench/run.py --workload session-churn --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # each in turn

One run repeats whole simulation passes of one workload, each in a fresh
process, until ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``) of passes have been measured.  With ``--trace 0`` it
prints the end-to-end metrics of ``BENCHMARK.json``: host metrics are
medians over the passes of host seconds at a reference host speed (see
:func:`host_metrics`); simulated-clock metrics are a pure function of
the seed, and every pass must reproduce the same digest of simulated
outcomes.  With ``--trace 1`` it alternates untraced and traced passes
and prints the per-layer metrics (traced passes wrap each layer's public
functions from outside ``src/``; see ``tracing.py``).

Every run checks the program's outputs and exits 1 if any check fails.
The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
where ``attempted``/``failed`` count sessions over the measured passes
(``failed / attempted`` is the run's ``failed_frac``).  A fuller record
(machine fingerprint, every pass's host metrics, its raw wall seconds
and the calibration loop's ns/op taken around it) goes to
``.perfbench_out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers  # noqa: E402
from perfbench.passes import calibration_ns_per_op  # noqa: E402
from perfbench.workloads import MB, PARAMS, params_for  # noqa: E402

OUT_DIR = ".perfbench_out"
#: Hard cap on one pass process; a run must end within 180 s.
PASS_TIMEOUT_S = 120.0
MIN_TIMED_PASSES = 2
#: Host metrics are the seconds a host whose calibration loop takes this
#: many ns per iteration would have taken.
REFERENCE_NS_PER_OP = 100.0


# -- one pass in a fresh process ----------------------------------------------

def spawn_pass(workload: str, seed: int, mode: str,
               overrides: dict | None = None,
               spans_path: str | None = None) -> dict:
    """Run one pass in a fresh interpreter; raise if it failed."""
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "passes.py"), workload,
         str(seed), mode, json.dumps(overrides), spans_path or ""],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(
            f"{workload} {mode} pass exceeded {PASS_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} pass failed "
                           f"(exit {proc.returncode}):\n{err[-4000:]}")
    return json.loads(out.splitlines()[-1])


# -- metrics ------------------------------------------------------------------

def host_metrics(result: dict) -> dict:
    """Host-clock metrics of one pass, at the reference host speed.

    On a shared 2-vCPU Xeon VM the host's speed swings by up to 1.7x for
    minutes at a time (the calibration loop reads 70-140 ns/op), which
    moves raw wall seconds more than any bound; so host seconds are scaled
    by ``REFERENCE_NS_PER_OP`` over the loop's ns/op taken around the pass.
    """
    scale = REFERENCE_NS_PER_OP / result["host_ns_per_op"]
    run_s = result["run_s"] * scale
    return {
        "setup_s": result["setup_s"] * scale,
        "run_s": run_s,
        "sessions_per_s": result["completed"] / run_s,
        "payload_MBps": result["delivered_bytes"] / MB / run_s,
        "peak_rss_MB": result["rss_kb"] * 1024 / MB,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- machine fingerprint ------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    ref_file = ROOT / ".git" / name
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> dict:
    """Where this result was measured."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpu_model": cpu,
        "nproc": usable,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "calibration_ns_per_op": calibration_ns_per_op(),
    }


# -- one workload run ---------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None,
                 min_passes: int = MIN_TIMED_PASSES) -> dict:
    """Measure one workload; returns the run record (see module doc)."""
    params = params_for(workload, overrides)
    problems: list[str] = []
    timed: list[dict] = []
    traced: list[dict] = []
    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR,
                                  f"{workload}-seed{seed}-spans.jsonl")
    start = time.perf_counter()
    while True:
        timed.append(spawn_pass(workload, seed, "timed", overrides))
        if trace:
            traced.append(spawn_pass(workload, seed, "traced", overrides,
                                     spans_path))
        elapsed = time.perf_counter() - start
        if len(timed) >= min_passes and elapsed >= seconds:
            break
        # Stop early rather than overrun the run's time limit.
        if elapsed * (len(timed) + 1) / len(timed) > 150.0:
            break

    digests = {r["digest"] for r in timed + traced}
    if len(timed + traced) < 2:
        problems.append("one pass only: the same-seed digest was not repeated")
    if len(digests) != 1:
        problems.append(f"same-seed passes disagree: {len(digests)} digests")
    for result in timed + traced:
        problems.extend(result["problems"])

    sim = timed[0]["sim"]
    hosts = [host_metrics(r) for r in timed]
    end_to_end = {key: statistics.median(h[key] for h in hosts)
                  for key in hosts[0]}
    end_to_end.update({k: v for k, v in sim.items() if k != "samples"})

    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["attempted"] - r["completed"] for r in timed)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "params": params,
        "passes": len(timed),
        "problems": sorted(set(problems)),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "sim_samples": sim["samples"],
        "end_to_end": end_to_end,
        "host_passes": hosts,
        "pass_host_ns_per_op": [r["host_ns_per_op"] for r in timed],
        "pass_wall_s": [{"setup_s": r["setup_s"], "run_s": r["run_s"]}
                        for r in timed],
    }
    if trace:
        per_pass = [layers.layer_metrics(
            r["stats"], r["counters"], r["caches"],
            untraced_run_s=end_to_end["run_s"],
            traced_run_s=host_metrics(r)["run_s"]) for r in traced]
        record["per_layer"] = {key: statistics.median(p[key] for p in per_pass)
                               for key in per_pass[0]}
        record["spans"] = traced[-1]["spans"]
    return record


def result_line(record: dict, metric_specs: list[dict]) -> dict:
    """The contract's last-line JSON for one run record."""
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in metric_specs},
    }


def print_report(record: dict, metric_specs: list[dict]) -> None:
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} passes={record['passes']}")
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    for spec in metric_specs:
        name = spec["name"]
        line = f"  {name:44s} {values[name]:>16.6g} {spec['unit']}"
        if name.startswith("sim_session_p"):
            line += f"  (n={record['sim_samples']})"
        print(line)
    if not record["trace"]:
        print(f"  {'failed_frac':44s} {record['failed_frac']:>16.6g} frac"
              f"  ({record['failed']}/{record['attempted']})")
        wall = statistics.median(p["run_s"] for p in record["pass_wall_s"])
        ns = statistics.median(record["pass_host_ns_per_op"])
        print(f"  {'run_s (raw wall)':44s} {wall:>16.6g} s"
              f"  (calibration {ns:.4g} ns/op)")
    for problem in record["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: workloads.json default)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of passes to measure per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = benchmark_spec()
        import repro  # noqa: F401 - fail early without the program's source
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot load the benchmark or the program: {exc}",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(names)} or all")
    seed = PARAMS["seeds"]["default"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    machine = fingerprint()
    print("machine: " + json.dumps(machine, sort_keys=True))

    records = []
    for workload in (names if args.workload == "all" else [args.workload]):
        try:
            record = run_workload(workload, seed, seconds,
                                  bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        record["machine"] = machine
        records.append(record)
        print_report(record, metric_specs)
        os.makedirs(OUT_DIR, exist_ok=True)
        out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace"
                                    f"{args.trace}.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)

    lines = [result_line(r, metric_specs) for r in records]
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}/{name}": value
                        for r, line in zip(records, lines)
                        for name, value in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
