"""End-to-end workload runs: SLO reports, replay identity, plane mixing.

These drive :func:`repro.workload.run_workload` against real (small)
Bento deployments.  The cross-plane case is the repo's first test with
qos + chaos + migrate all enabled at once; it asserts the two properties
plane composition could break — every actor finishes (no interaction
deadlock) and the admission accounting drains back to idle (no counter
leaks).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.obs.export import events_to_jsonl
from repro.obs.metrics import REGISTRY
from repro.obs.span import EventLog
from repro.util.serialization import canonical_encode
from repro.workload import (ArrivalSpec, PlanesSpec, SloSpec, TenantSpec,
                            WorkloadSpec, build_report, generate,
                            render_report, run_workload)
from repro.workload.slo import resolve_metric


def _tiny_qos_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="tiny-qos", seed=11, duration_s=60.0, n_relays=6,
        bento_fraction=0.5,
        tenants=(
            TenantSpec(name="api", function="kvstore",
                       priority="interactive", ops_per_session=2,
                       deadline_s=30.0,
                       arrivals=ArrivalSpec(kind="poisson",
                                            rate_per_s=0.15)),
        ),
        planes=PlanesSpec(qos=True, qos_slots=2, qos_queue_depth=2),
        slos=(
            SloSpec(name="goodput", metric="sessions.goodput", op=">=",
                    threshold=0.5),
            SloSpec(name="no-deadlock", metric="sim.all_finished",
                    op="==", threshold=1.0),
            # chaos is off: this must be skipped, not failed.
            SloSpec(name="recovery", metric="chaos.recovery_p99",
                    op="<=", threshold=60.0),
        ))


def _cross_plane_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="tiny-cross", seed=23, duration_s=120.0, n_relays=8,
        bento_fraction=0.5,
        tenants=(
            TenantSpec(name="probe", function="kvstore", shared=True,
                       priority="interactive",
                       arrivals=ArrivalSpec(kind="poisson",
                                            rate_per_s=0.1)),
            TenantSpec(name="api", function="kvstore",
                       priority="interactive", deadline_s=60.0,
                       arrivals=ArrivalSpec(kind="poisson",
                                            rate_per_s=0.08)),
        ),
        planes=PlanesSpec(qos=True, qos_slots=4, qos_queue_depth=4,
                          chaos=True, chaos_link_cuts=1,
                          chaos_latency_spikes=1,
                          chaos_mean_downtime_s=8.0,
                          chaos_crash_at_s=80.0,
                          migrate=True, migrate_drain_at_s=40.0))


class TestWorkloadRun:
    def test_smoke_run_report_and_slo_semantics(self):
        spec = _tiny_qos_spec()
        report = build_report(spec, run_workload(spec))
        assert report["passed"]
        by_name = {s["name"]: s for s in report["slos"]}
        assert by_name["goodput"]["status"] == "pass"
        assert by_name["no-deadlock"]["status"] == "pass"
        # The chaos SLO must be skipped (plane off → section is None),
        # never silently passed or failed.
        assert by_name["recovery"]["status"] == "skipped"
        metrics = report["metrics"]
        assert metrics["sessions"]["total"] > 0
        assert metrics["qos"]["admitted"] > 0
        assert metrics["chaos"] is None and metrics["migrate"] is None
        assert metrics["tenants"]["api"]["latency"]["p99"] > 0.0
        # The rendering never crashes and names the verdict.
        assert "verdict" in render_report(report)

    def test_slo_typo_is_a_failure_not_a_skip(self):
        spec = _tiny_qos_spec()
        bad = WorkloadSpec.from_dict({
            **spec.to_dict(),
            "slos": [{"name": "typo", "metric": "sessions.goodputt",
                      "op": ">=", "threshold": 0.5}]})
        report = build_report(bad, run_workload(bad))
        assert not report["passed"]
        assert report["slos"][0]["status"] == "fail"
        assert "not found" in report["slos"][0]["detail"]

    def test_replay_is_bit_identical(self):
        spec = _tiny_qos_spec()

        def one() -> tuple[str, bytes]:
            log = EventLog()
            result = run_workload(spec, trace_log=log)
            report = build_report(spec, result)
            jsonl = events_to_jsonl(log)
            return (hashlib.sha256(jsonl.encode("utf-8")).hexdigest(),
                    canonical_encode(report))

        first_digest, first_report = one()
        second_digest, second_report = one()
        assert first_digest == second_digest
        assert first_report == second_report

    def test_runner_rejects_foreign_workload(self):
        spec = _tiny_qos_spec()
        other = WorkloadSpec.from_dict({**spec.to_dict(), "seed": 12})
        with pytest.raises(Exception, match="different spec"):
            run_workload(spec, workload=generate(other))


class TestCrossPlane:
    """qos + chaos + migrate enabled together: the plane-mixing case."""

    def test_no_deadlocks_and_no_counter_leaks(self):
        spec = _cross_plane_spec()
        result = run_workload(spec)
        # 1. No plane-interaction deadlock: every actor reached its end.
        assert result["all_finished"], result["unfinished"]
        counters = result["counters"]
        # 2. Migration accounting balances.
        assert counters["migrations_started"] == \
            counters["migrations_completed"] + counters["migrations_failed"]
        assert counters["migrations_completed"] >= 1
        # 3. The drain beat the crash: state survived with no redeploys.
        assert result["probe"]["state_preserved"]
        assert result["probe"]["redeploys"] == 0
        # 4. The chaos plane actually fired.
        assert counters["faults_injected"] >= 2
        assert counters["node_crashes"] >= 1
        # 5. Admission accounting drained back to idle: every box's slot
        #    gauge is back at capacity and no queue entry leaked.  A
        #    session that died mid-fault without releasing its slot (or a
        #    migration that double-released one) shows up here.  Scope to
        #    this run's boxes — the registry zeroes in place, so gauges
        #    from an earlier test's network survive as stale zero keys.
        snapshot = REGISTRY.snapshot()
        assert result["boxes"]
        for box in result["boxes"]:
            slot_key = f'qos_slots_free{{box="{box}"}}'
            assert snapshot[slot_key] == spec.planes.qos_slots, \
                f"{slot_key} = {snapshot[slot_key]}, slot leaked " \
                f"(capacity {spec.planes.qos_slots})"
            queue_key = f'qos_queue_depth{{box="{box}"}}'
            assert snapshot[queue_key] == 0, \
                f"{queue_key} = {snapshot[queue_key]}, queue entry leaked"

    def test_cross_plane_replay_is_bit_identical(self):
        spec = _cross_plane_spec()
        first = run_workload(spec)
        second = run_workload(spec)
        assert canonical_encode(first) == canonical_encode(second)


class TestDdosUnderBurst:
    """ddos_defense.py driven by a generated burst arrival process."""

    def _spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            name="tiny-ddos", seed=31, duration_s=120.0, n_relays=8,
            bento_fraction=0.5,
            tenants=(
                TenantSpec(name="guard", function="ddos_defense",
                           payload_bytes=5_000, attack_fraction=0.5,
                           pow_difficulty=5, deadline_s=120.0,
                           arrivals=ArrivalSpec(kind="burst",
                                                burst_at_s=30.0,
                                                burst_duration_s=40.0,
                                                burst_arrivals=10)),
            ))

    def test_burst_mixes_attacks_and_honest_clients(self):
        spec = self._spec()
        load = generate(spec)
        kinds = {e.kind for e in load.events}
        assert kinds == {"session", "attack"}

    def test_defense_filters_the_generated_burst(self):
        spec = self._spec()
        result = run_workload(spec)
        report = build_report(spec, result)
        records = result["tenants"]["guard"]["records"]
        attacks = [r for r in records if r["kind"] == "attack"]
        honest = [r for r in records if r["kind"] == "session"]
        assert attacks and honest
        # Every no-PoW introduction is burned at the intro point; every
        # honest client solves the puzzle and gets the exact content.
        assert all(r["outcome"] == "rejected" for r in attacks)
        assert all(r["outcome"] == "ok" for r in honest)
        found, rate = resolve_metric(report["metrics"],
                                     "ddos.guard.rejection_rate")
        assert found and rate == 1.0
        # The function's own DONE stats agree with the client view.
        stats = result["service_stats"]["guard"]
        assert stats["accepted"] == len(honest)
        assert stats["rejected"] >= len(attacks)


class TestWorkloadCli:
    def test_workload_report_runs_a_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(_tiny_qos_spec().to_json(), encoding="utf-8")
        out_dir = tmp_path / "artifacts"
        assert main(["workload-report", "--spec", str(spec_path),
                     "--workload-out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "verdict        : PASS" in stdout
        for artifact in ("spec.json", "report.json", "events.jsonl"):
            assert (out_dir / artifact).exists()
        written = json.loads((out_dir / "report.json").read_text())
        assert written["report"]["passed"]
        jsonl = (out_dir / "events.jsonl").read_text()
        assert written["events_jsonl_sha256"] == \
            hashlib.sha256(jsonl.encode("utf-8")).hexdigest()

    def test_workload_report_unknown_preset_exits_2(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["workload-report", "--preset", "nope"])
        assert exc.value.code == 2
