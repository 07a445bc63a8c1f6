"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Tiny variants of every workload must finish in seconds and print every
metric ``BENCHMARK.json`` names, with its unit; the tracer's self-time
arithmetic is pinned on synthetic nested spans with a fake clock.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench import layers
from perfbench.run import (REFERENCE_NS_PER_OP, ROOT, benchmark_spec,
                           host_metrics, result_line, run_workload)
from perfbench.tracing import Tracer

#: Parameter overrides that shrink each workload to a fraction of a second.
TINY = {
    "session-churn": {"clients": 4, "sessions_per_client": 3},
    "bulk-transfer": {"clients": 2, "sessions_per_client": 2,
                      "payload_bytes": [20000, 30000]},
    "qos-overload": {"duration_s": 20.0, "tenants": [
        {"name": "api", "priority": "interactive", "ops_per_session": 2,
         "hold_s": 4.0, "arrivals": {"kind": "burst", "burst_at_s": 2.0,
                                     "burst_duration_s": 6.0,
                                     "burst_arrivals": 16}},
        {"name": "batch", "priority": "bulk", "ops_per_session": 2,
         "hold_s": 4.0, "arrivals": {"kind": "poisson",
                                     "rate_per_s": 0.3}}]},
}

SPEC = benchmark_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_every_workload_has_tiny_params():
    assert sorted(TINY) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    record = run_workload(workload, seed=5, seconds=0.0, trace=trace,
                          overrides=TINY[workload], min_passes=2)
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    line = result_line(record, specs)
    assert line["correct"], record["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(s["name"] for s in specs)
    for spec in specs:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for spec in specs:
            assert line["metrics"][spec["name"]]["value"] > 0, spec["name"]


def test_traced_planes_read_zero_where_off():
    record = run_workload("session-churn", seed=5, seconds=0.0, trace=True,
                          overrides=TINY["session-churn"], min_passes=1)
    values = record["per_layer"]
    assert values["tor.ntor.handshakes"] > 0
    assert values["core.client.invoke.calls"] == 12
    for name, value in values.items():
        if name.startswith("qos.admission."):
            assert value == 0, name


def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_time_of_nested_frames():
    now, clock = _fake_clock()
    tracer = Tracer(clock=clock)

    def inner():
        now[0] += 2.0

    inner_w = tracer.frame(inner, "inner")

    def outer():
        now[0] += 1.0
        inner_w()
        inner_w()
        now[0] += 3.0

    tracer.frame(outer, "outer")()
    stats = layers.stats_of(tracer)
    assert stats["outer"]["self_s"] == 4.0
    assert stats["inner"] == {"calls": 2, "self_s": 4.0, "sim_s": 0.0,
                              "failed": 0, "units": 0}


def test_generator_op_yielding_across_other_tasks():
    """Two ops interleave; idle time and the other task's work are excluded."""
    now, clock = _fake_clock()
    tracer = Tracer(clock=clock)
    tracer.sim = sim = SimpleNamespace(now=0.0)

    def leaf():
        now[0] += 0.5

    leaf_w = tracer.frame(leaf, "leaf", span=True)

    def body(work):
        now[0] += work
        yield "first"
        now[0] += work
        leaf_w()
        yield "second"
        now[0] += work
        return work

    op_a = tracer.op(body, "op_a")
    op_b = tracer.op(body, "op_b")

    def task_a():
        return (yield from op_a(1.0))

    gen_a = tracer.session(task_a(), trace_id=7)
    assert next(gen_a) == "first"          # A: 1.0 busy
    now[0] += 100.0                        # nobody running
    sim.now = 2.0
    gen_b = op_b(10.0)
    assert next(gen_b) == "first"          # B: 10.0 busy
    sim.now = 3.0
    assert gen_a.send(None) == "second"    # A: 1.0 + leaf 0.5
    now[0] += 100.0
    assert gen_b.send(None) == "second"    # B: 10.0 + leaf 0.5
    sim.now = 5.0
    with pytest.raises(StopIteration) as done_a:
        gen_a.send(None)                   # A: 1.0
    assert done_a.value.value == 1.0
    sim.now = 9.0
    with pytest.raises(StopIteration):
        gen_b.send(None)                   # B: 10.0

    stats = layers.stats_of(tracer)
    assert stats["op_a"]["self_s"] == 3.0
    assert stats["op_b"]["self_s"] == 30.0
    assert stats["leaf"]["calls"] == 2 and stats["leaf"]["self_s"] == 1.0
    assert stats["bench.session"]["self_s"] == 0.0
    assert stats["op_a"]["sim_s"] == 5.0    # 0.0 -> 5.0
    assert stats["op_b"]["sim_s"] == 7.0    # 2.0 -> 9.0
    spans = {span[0]: span for span in tracer.spans}
    root, span_a, span_b = tracer.spans[0], tracer.spans[1], tracer.spans[2]
    assert (root[1], root[2], root[3]) == ("bench.session", None, 7)
    assert (span_a[1], span_a[2], span_a[3]) == ("op_a", root[0], 7)
    assert (span_b[1], span_b[2], span_b[3]) == ("op_b", None, None)
    leaves = [s for s in spans.values() if s[1] == "leaf"]
    assert [(s[2], s[3]) for s in leaves] == [(span_a[0], 7),
                                              (span_b[0], None)]


def test_failed_op_is_counted_and_closed():
    now, clock = _fake_clock()
    tracer = Tracer(clock=clock)

    def body():
        yield "wait"
        raise ValueError("boom")

    gen = tracer.op(body, "op")()
    next(gen)
    with pytest.raises(ValueError):
        gen.send(None)
    assert tracer.stats["op"].failed == 1
    assert tracer.spans[0][8] is False


def test_patch_reaches_import_bound_names_and_uninstalls():
    from repro.core import messages
    from repro.util import serialization

    original = serialization.canonical_encode
    tracer = Tracer()
    tracer.patch(serialization, "canonical_encode",
                 lambda f: tracer.frame(f, "encode"))
    try:
        assert messages.canonical_encode is not original
        messages.encode_message(messages.POLICY_QUERY)
        assert tracer.stats["encode"].calls == 1
    finally:
        tracer.uninstall()
    assert messages.canonical_encode is original
    assert serialization.canonical_encode is original


def test_cross_check_reports_missed_calls():
    stats = {"tor.layercrypto": {"calls": 3, "self_s": 0.0, "sim_s": 0.0,
                                 "failed": 0, "units": 5}}
    problems = layers.cross_check(stats, {"cells_crypted": 6})
    assert any("cells_crypted=6" in p for p in problems)


def test_benchmark_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark present, exit non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_layer_table_names_every_per_layer_metric():
    from perfbench.workloads import PARAMS

    rows = PARAMS["layer_table"]["rows"]
    tabled = [name for row in rows for name in row["per_layer"]]
    assert sorted(tabled) == sorted(s["name"] for s in SPEC["per_layer"])
    end_to_end = {s["name"] for s in SPEC["end_to_end"]}
    for row in rows:
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) | set(row["not_on"]) <= set(WORKLOADS)


def test_benchmark_json_shape():
    import re

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert name.match(entry["name"]) and entry["name"] not in seen
            seen.add(entry["name"])
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def test_qos_sessions_past_their_deadline_fail_without_a_wrong_output():
    """Give-ups count in failed_frac and as SLO misses, not as problems."""
    overrides = dict(TINY["qos-overload"], qos_slots=1, qos_queue_depth=1,
                     deadline_s=4.0)
    record = run_workload("qos-overload", seed=5, seconds=0.0, trace=False,
                          overrides=overrides, min_passes=2)
    assert not record["problems"], record["problems"]
    assert 0 < record["failed"] < record["attempted"]
    assert record["end_to_end"]["sim_slo_frac"] < 1.0


def test_a_single_pass_fails_the_repeat_check():
    record = run_workload("session-churn", seed=5, seconds=0.0, trace=False,
                          overrides=TINY["session-churn"], min_passes=1)
    assert any("digest was not repeated" in p for p in record["problems"])


def test_host_seconds_are_scaled_to_the_reference_speed():
    metrics = host_metrics({
        "setup_s": 0.5, "run_s": 2.0, "completed": 10,
        "delivered_bytes": 4e6, "rss_kb": 1000,
        "host_ns_per_op": 2 * REFERENCE_NS_PER_OP})
    assert metrics["setup_s"] == 0.25 and metrics["run_s"] == 1.0
    assert metrics["sessions_per_s"] == 10.0
    assert metrics["payload_MBps"] == 4.0
