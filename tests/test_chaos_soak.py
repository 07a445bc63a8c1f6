"""The chaos-soak acceptance scenario: end-to-end recovery under faults,
and bit-for-bit determinism of the whole run — plus cache coherence of
the scale plane's control-plane caches across crash/restart."""

from __future__ import annotations

import pytest

from repro.chaos import check_soak, run_chaos_soak
from repro.core import BentoClient, BentoServer, FunctionManifest
from repro.enclave.attestation import IntelAttestationService
from repro.netsim.faults import FaultPlane
from repro.tor import TorTestNetwork


@pytest.fixture(scope="module")
def soak_results():
    """Two full runs with the same seed (module-scoped: the soak is the
    most expensive test in the suite)."""
    return run_chaos_soak(seed=2021), run_chaos_soak(seed=2021)


class TestChaosSoak:
    def test_deterministic_across_runs(self, soak_results):
        first, second = soak_results
        assert first == second

    def test_all_invariants_hold(self, soak_results):
        result, _ = soak_results
        assert check_soak(result) == []

    def test_enough_faults_were_injected(self, soak_results):
        result, _ = soak_results
        assert result["faults_injected"] >= 10
        assert result["counters"]["node_crashes"] >= 3
        assert result["counters"]["links_cut"] >= 1
        assert result["counters"]["latency_spikes"] >= 1

    def test_every_client_request_recovered(self, soak_results):
        result, _ = soak_results
        assert result["requests_attempted"] >= 6
        assert result["requests_recovered"] == result["requests_attempted"]

    def test_shard_reconstruction_bit_identical(self, soak_results):
        result, _ = soak_results
        assert result["shard_ok"]

    def test_loadbalancer_replica_respawned(self, soak_results):
        result, _ = soak_results
        assert result["replicas_lost"] >= 1
        assert result["counters"]["replicas_respawned"] >= 1
        assert result["lb_events"].get("respawn", 0) >= 1

    def test_recovery_machinery_was_exercised(self, soak_results):
        result, _ = soak_results
        counters = result["counters"]
        assert counters["conns_torn_down"] >= 1
        assert counters["retries"] >= 1
        assert counters["orphans_reaped"] >= 1

    def test_check_soak_flags_violations(self):
        bad = {"faults_injected": 3, "requests_attempted": 6,
               "requests_recovered": 4, "shard_ok": False,
               "counters": {"replicas_respawned": 0}}
        problems = check_soak(bad)
        assert len(problems) == 4


CODE = "def noop():\n    yield from ()\n    return 'ok'\n"


class TestCacheInvalidationUnderChaos:
    """Crashing a box or churning the directory mid-run must never let a
    stale cache entry (image/manifest verdict, verified consensus) leak
    into the post-restart world."""

    def _run_session(self, thread, client, box_descriptor, manifest):
        session = yield from client.connect(thread, box_descriptor)
        yield from session.request_image(thread, "python", verify="none")
        yield from session.load_function(thread, CODE, manifest)
        assert (yield from session.invoke(thread, [])) == "ok"
        yield from session.shutdown(thread)
        session.close()

    def test_box_crash_clears_server_caches(self):
        net = TorTestNetwork(n_relays=6, seed="cache-chaos",
                             fast_crypto=True, bento_fraction=0.34)
        ias = IntelAttestationService(net.sim.rng.fork("ias"))
        box = net.bento_boxes()[0]
        server = BentoServer(box, net.authority, ias=ias)
        faults = FaultPlane(net.network)
        client = BentoClient(net.create_client("user"), ias=ias)
        manifest = FunctionManifest.create("noop", "noop", set())

        def first_sessions(thread):
            descriptor = client.discover_boxes()[0]
            yield from self._run_session(thread, client, descriptor, manifest)
            yield from self._run_session(thread, client, descriptor, manifest)

        net.sim.run_until_done(net.sim.spawn(first_sessions))
        # Two identical sessions primed both server caches.
        assert server._image_cache and server._manifest_cache

        faults.crash_node(box.node.name)
        # Fate-sharing: a crashed box keeps nothing, caches included.
        assert not server._image_cache and not server._manifest_cache

        faults.restart_node(box.node.name)

        def after_restart(thread):
            descriptor = client.discover_boxes()[0]
            yield from self._run_session(thread, client, descriptor, manifest)

        net.sim.run_until_done(net.sim.spawn(after_restart))
        # The restarted box rebuilt its verdicts from scratch.
        assert "python" in server._image_cache
        assert len(server._manifest_cache) == 1

    def test_directory_churn_mid_run_invalidates_client_consensus(self):
        net = TorTestNetwork(n_relays=6, seed="cache-churn",
                             fast_crypto=True, bento_fraction=0.34)
        ias = IntelAttestationService(net.sim.rng.fork("ias"))
        box = net.bento_boxes()[0]
        BentoServer(box, net.authority, ias=ias)
        client = BentoClient(net.create_client("user"), ias=ias)
        manifest = FunctionManifest.create("noop", "noop", set())

        def flow(thread):
            descriptor = client.discover_boxes()[0]
            yield from self._run_session(thread, client, descriptor, manifest)
            before = client.tor.consensus()
            # Mid-run churn: a (non-Bento) relay drops out of the
            # directory, as after an unrecovered crash.
            gone = net.relays[0].fingerprint
            net.authority.unregister_relay(gone)
            after = client.tor.consensus()
            assert after is not before
            assert all(r.identity_fp != gone for r in after.routers)
            # Sessions keep working against the post-churn consensus.
            descriptor = client.discover_boxes()[0]
            yield from self._run_session(thread, client, descriptor, manifest)

        net.sim.run_until_done(net.sim.spawn(flow))
