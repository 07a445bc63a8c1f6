"""Tor-layer failure recovery: guard-connection death, relay crashes,
avoid-list steering, and circuit rebuilds with backoff."""

from __future__ import annotations

import pytest

from repro.netsim.faults import FaultPlane
from repro.netsim.simulator import Sleep
from repro.perf.counters import counters as _perf
from repro.tor.cell import RelayCommand
from repro.tor.circuit import CircuitDestroyed
from repro.tor.client import TorError
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


@pytest.fixture()
def faulty_net():
    net = TorTestNetwork(n_relays=9, seed="tor-faults")
    net.plane = FaultPlane(net.network)
    _perf.reset()
    return net


class TestGuardConnectionClosed:
    """Circuit behavior when the guard TCP connection dies under it."""

    def detached_circuit(self, net, thread):
        """A circuit whose close-notification is unhooked, so a send can
        race the connection's death (the _send_cell handler's case)."""
        client = net.create_client()
        circuit = yield from client.build_circuit(thread)
        circuit.conn.endpoint_of(client.node).on_close = None
        return circuit

    def test_send_on_dead_connection_destroys_circuit(self, faulty_net):
        def main(thread):
            circuit = yield from self.detached_circuit(faulty_net, thread)
            stream = circuit._stream_cls(circuit, 99)
            circuit.streams[99] = stream
            circuit.conn.close()
            assert not circuit.destroyed
            with pytest.raises(CircuitDestroyed, match="guard connection"):
                # The first send after the death notices it.
                circuit.send_relay(RelayCommand.DATA, 99, b"x")
            assert circuit.destroyed
            assert stream.closed

        run_thread(faulty_net, main)

    def test_close_swallows_dead_connection(self, faulty_net):
        def main(thread):
            circuit = yield from self.detached_circuit(faulty_net, thread)
            circuit.conn.close()
            circuit.close()  # DESTROY cannot be sent; must not raise
            assert circuit.destroyed

        run_thread(faulty_net, main)

    def test_close_notification_tears_down(self, faulty_net):
        def main(thread):
            client = faulty_net.create_client()
            circuit = yield from client.build_circuit(thread)
            circuit.conn.close()  # on_close wired: teardown is immediate
            assert circuit.destroyed
            assert circuit not in client.circuits

        run_thread(faulty_net, main)


class TestRelayCrash:
    def test_crashed_relay_destroys_circuits_through_it(self, faulty_net):
        def main(thread):
            client = faulty_net.create_client()
            circuit = yield from client.build_circuit(thread)
            middle = circuit.path[1]
            faulty_net.plane.crash_node(
                faulty_net.network.node_at(middle.address).name)
            # The guard's connection toward the middle died; the DESTROY
            # (or the dead guard link itself) must reach the client.
            deadline = faulty_net.sim.now + 5.0
            while not circuit.destroyed and faulty_net.sim.now < deadline:
                yield Sleep(0.1)
            assert circuit.destroyed

        run_thread(faulty_net, main)


class TestAvoidList:
    def test_failed_relay_excluded_from_new_paths(self, faulty_net):
        client = faulty_net.create_client()
        victim = client.consensus().routers[3]
        client.note_relay_failure(victim.identity_fp)

        def main(thread):
            for _ in range(4):
                circuit = yield from client.build_circuit(thread)
                assert victim.identity_fp not in [
                    r.identity_fp for r in circuit.path]
                circuit.close()

        run_thread(faulty_net, main)

    def test_avoid_list_expires(self, faulty_net):
        client = faulty_net.create_client()
        client.note_relay_failure("aa" * 10)
        assert "aa" * 10 in client.avoided_relays()
        faulty_net.sim.now = faulty_net.sim.now + client.FAILED_RELAY_TTL + 1
        assert client.avoided_relays() == set()


class TestBuildWithRetry:
    def test_retry_succeeds_after_transient_failure(self, faulty_net):
        client = faulty_net.create_client()
        real_build = client.build_circuit
        calls = {"n": 0}

        def flaky_build(thread, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TorError("transient: induced by test")
            return (yield from real_build(thread, **kwargs))

        client.build_circuit = flaky_build

        def main(thread):
            t0 = faulty_net.sim.now
            circuit = yield from client.build_circuit_with_retry(thread, attempts=3,
                                                                 backoff_s=0.5)
            assert calls["n"] == 2
            assert faulty_net.sim.now > t0  # backoff slept
            assert _perf.circuits_rebuilt == 1
            circuit.close()

        run_thread(faulty_net, main)

    def test_retry_exhaustion_raises(self, faulty_net):
        client = faulty_net.create_client()

        def always_fail(thread, **kwargs):
            raise TorError("permanently broken")

        client.build_circuit = always_fail

        def main(thread):
            with pytest.raises(TorError, match="after 2 attempts"):
                yield from client.build_circuit_with_retry(thread, attempts=2,
                                                           backoff_s=0.1)

        run_thread(faulty_net, main)
