"""Tor stream edge cases and the TorTestNetwork factory."""

import pytest

from repro.netsim.bytestream import StreamClosed
from repro.tor.descriptor import FLAG_BENTO, FLAG_GUARD
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


class TestTestNetwork:
    def test_flag_distribution(self):
        net = TorTestNetwork(n_relays=12, seed="flags", bento_fraction=0.25,
                             exit_fraction=0.5, guard_fraction=0.34)
        consensus = net.authority.consensus()
        guards = consensus.relays_with_flag(FLAG_GUARD)
        bentos = consensus.relays_with_flag(FLAG_BENTO)
        exits = net.exit_relays()
        assert len(guards) == 4
        assert len(bentos) == 3 == len(net.bento_boxes())
        assert len(exits) == 6

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            TorTestNetwork(n_relays=2)

    def test_same_seed_same_network(self):
        a = TorTestNetwork(n_relays=6, seed="det")
        b = TorTestNetwork(n_relays=6, seed="det")
        fps_a = [r.fingerprint for r in a.relays]
        fps_b = [r.fingerprint for r in b.relays]
        assert fps_a == fps_b

    def test_different_seed_different_keys(self):
        a = TorTestNetwork(n_relays=6, seed="one")
        b = TorTestNetwork(n_relays=6, seed="two")
        assert a.relays[0].fingerprint != b.relays[0].fingerprint

    def test_client_factory_names(self):
        net = TorTestNetwork(n_relays=4, seed="cf")
        c1 = net.create_client()
        c2 = net.create_client("named")
        assert c1.node.name == "client1"
        assert c2.node.name == "named"

    def test_web_server_reachable(self):
        net = TorTestNetwork(n_relays=4, seed="web")
        net.create_web_server("h.example", {"/": b"hi"})
        assert net.network.resolve("h.example")


class TestStreamEdgeCases:
    @pytest.fixture()
    def net(self):
        net = TorTestNetwork(n_relays=9, seed="stream-edges")
        net.create_web_server("edge.example", {"/": b"body"})
        return net

    def test_send_after_close_raises(self, net):
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread,
                                                      exit_to=("edge.example", 443))
            stream = yield from circuit.open_stream(thread, "edge.example", 443)
            stream.close()
            with pytest.raises(StreamClosed):
                stream.send(b"late")
            circuit.close()

        run_thread(net, main)

    def test_recv_returns_eof_after_remote_end(self, net):
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread,
                                                      exit_to=("edge.example", 443))
            stream = yield from circuit.open_stream(thread, "edge.example", 443)
            # Ask the server something malformed so it drops the
            # connection -> END arrives -> recv yields EOF.
            stream.send(b"\x00\x00\x00\x02ok")   # bogus frame content
            while True:
                data = yield from stream.recv(thread, timeout=30.0)
                if data == b"":
                    break
            circuit.close()
            return True

        assert run_thread(net, main)

    def test_circuit_close_ends_streams(self, net):
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread,
                                                      exit_to=("edge.example", 443))
            stream = yield from circuit.open_stream(thread, "edge.example", 443)
            circuit.close()
            assert (yield from stream.recv(thread, timeout=5.0)) == b""
            assert stream.closed

        run_thread(net, main)

    def test_empty_send_is_noop(self, net):
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread,
                                                      exit_to=("edge.example", 443))
            stream = yield from circuit.open_stream(thread, "edge.example", 443)
            before = circuit.cells_sent
            stream.send(b"")
            assert circuit.cells_sent == before
            circuit.close()

        run_thread(net, main)


class TestImages:
    def test_registry(self):
        from repro.core.errors import ImageUnavailable
        from repro.core.images import (
            IMAGE_PYTHON,
            IMAGE_PYTHON_OP_SGX,
            image_by_name,
            known_measurement,
        )

        assert image_by_name("python") is IMAGE_PYTHON
        assert image_by_name("python-op-sgx") is IMAGE_PYTHON_OP_SGX
        with pytest.raises(ImageUnavailable):
            image_by_name("alpine")

        assert IMAGE_PYTHON.measurement is None
        assert known_measurement("python-op-sgx") == \
            IMAGE_PYTHON_OP_SGX.enclave_image.measurement
        with pytest.raises(ImageUnavailable):
            known_measurement("python")

    def test_enclave_image_measurement_is_stable(self):
        """Clients hard-code this expectation; it must not drift within a
        version."""
        from repro.core.images import IMAGE_PYTHON_OP_SGX

        first = IMAGE_PYTHON_OP_SGX.measurement
        second = IMAGE_PYTHON_OP_SGX.enclave_image.measurement
        assert first == second and len(first) == 64
