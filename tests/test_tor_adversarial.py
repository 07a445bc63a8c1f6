"""Adversarial and malformed-input behavior of the Tor substrate."""

import pytest

from repro.netsim.bytestream import FramedStream
from repro.netsim.http import fetch
from repro.netsim.simulator import Sleep, Wait
from repro.tor.cell import CELL_SIZE, Cell, CellCommand
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


@pytest.fixture()
def net():
    net = TorTestNetwork(n_relays=9, seed="adversarial")
    net.create_web_server("site.example", {"/": b"legit"})
    return net


class TestMalformedCells:
    def test_garbage_relay_payload_destroys_circuit(self, net):
        """A client injecting garbage gets its circuit torn down: no hop
        recognizes the cell and the last hop has nowhere to forward."""
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            circuit.conn.send(client.node,
                              Cell(circuit.circ_id, CellCommand.RELAY,
                                   b"\xAA" * 509),
                              size=CELL_SIZE)
            yield Sleep(3.0)
            return circuit.destroyed

        assert run_thread(net, main) is True

    def test_stray_cell_for_unknown_circuit_ignored(self, net):
        """Relays drop cells for circuits they do not know (no crash)."""
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            # A cell with a bogus circuit id on a live connection.
            circuit.conn.send(client.node,
                              Cell(99999, CellCommand.RELAY, b"\x00" * 509),
                              size=CELL_SIZE)
            yield Sleep(2.0)
            # The real circuit still works.
            stream = yield from circuit.open_stream(thread, "site.example", 443)
            framed = FramedStream(stream)
            body = (yield from fetch(thread, framed, "/")).body
            circuit.close()
            return body

        assert run_thread(net, main) == b"legit"

    def test_non_cell_traffic_to_orport_ignored(self, net):
        client_node = net.create_node("scanner")

        def main(thread):
            relay = net.relays[0]
            conn = yield from net.network.connect_blocking(
                thread, client_node, relay.node.address, relay.or_port)
            conn.send(client_node, b"GET / HTTP/1.1\r\n\r\n")
            yield Sleep(2.0)
            return relay.active_circuit_count

        assert run_thread(net, main) == 0


class TestTamperingOnPath:
    def test_modified_cell_fails_digest_downstream(self, net):
        """Flipping bits in a relayed cell breaks the onion digest at the
        endpoint: the data never reaches the application intact."""
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(
                thread, exit_to=("site.example", 443))
            # Tamper with the guard's forwarding: wrap its send so the
            # next forward cell is corrupted once.
            guard = next(r for r in net.relays
                         if r.nickname == circuit.path[0].nickname)
            original = guard._send_cell
            state = {"corrupted": False}

            def corrupting(conn, cell):
                if (not state["corrupted"]
                        and cell.command == CellCommand.RELAY):
                    state["corrupted"] = True
                    cell = Cell(cell.circ_id, cell.command,
                                bytes(b ^ 0x01 for b in cell.payload))
                original(conn, cell)

            guard._send_cell = corrupting
            try:
                with pytest.raises(Exception):
                    stream = yield from circuit.open_stream(thread, "site.example",
                                                            443, timeout=15.0)
            finally:
                guard._send_cell = original
            return True

        assert run_thread(net, main)


class TestHsAbuse:
    def test_unknown_rendezvous_cookie_destroys(self, net):
        """RENDEZVOUS1 with a cookie nobody established tears the sending
        circuit down (protocol error at the rendezvous point)."""
        from repro.tor.cell import RelayCommand
        from repro.util.serialization import canonical_encode

        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            circuit.send_relay(RelayCommand.RENDEZVOUS1, 0, canonical_encode(
                {"cookie": b"never-established!!", "blob": b"x"}))
            yield Sleep(3.0)
            return circuit.destroyed

        assert run_thread(net, main) is True

    def test_introduce_to_unknown_service_acked_negative(self, net):
        from repro.tor.cell import RelayCommand
        from repro.util.serialization import canonical_decode, canonical_encode

        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            ack = circuit.expect_control(RelayCommand.INTRODUCE_ACK)
            circuit.send_relay(RelayCommand.INTRODUCE1, 0, canonical_encode(
                {"service": "nosuch.onion", "blob": b""}))
            info = yield Wait(ack, timeout=30.0)
            circuit.close()
            return canonical_decode(info["data"])["status"]

        assert run_thread(net, main) == "no-such-service"

    def test_forged_introduce_blob_ignored_by_service(self, net):
        """A service silently drops INTRODUCE2 blobs it cannot decrypt
        (garbage or encrypted to the wrong key)."""
        from repro.tor.cell import RelayCommand
        from repro.tor.hidden_service import HiddenService
        from repro.util.serialization import canonical_encode

        host = net.create_client("victim-host")
        box = {}

        def host_main(thread):
            service = HiddenService(host, lambda *a: None)
            yield from service.establish(thread, n_intro=1)
            box["service"] = service

        run_thread(net, host_main, name="host")
        service = box["service"]

        attacker = net.create_client("attacker")

        def attack(thread):
            intro_fp = service.intro_points[0].identity_fp
            intro_relay = attacker.consensus().find(intro_fp)
            circuit = yield from attacker.build_circuit(thread, final_hop=intro_relay)
            ack = circuit.expect_control(RelayCommand.INTRODUCE_ACK)
            circuit.send_relay(RelayCommand.INTRODUCE1, 0, canonical_encode({
                "service": str(service.onion_address),
                "blob": b"\xde\xad" * 50,
            }))
            yield Wait(ack, timeout=30.0)
            yield Sleep(5.0)
            circuit.close()

        run_thread(net, attack, name="attacker")
        assert service.rendezvous_circuits == []
        assert service.accepted_count == 0
