"""White-box relay tests: drive a Relay with hand-built cells."""

import pytest

from repro.netsim.connection import Connection
from repro.netsim.simulator import Sleep
from repro.tor import ntor
from repro.tor.cell import CELL_SIZE, Cell, CellCommand, RelayCellPayload, RelayCommand
from repro.tor.layercrypto import BACKWARD, FORWARD, HopCrypto
from repro.tor.testnet import TorTestNetwork
from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_decode, canonical_encode


@pytest.fixture()
def rig():
    """One relay plus a raw connection into it, with a completed
    first-hop handshake."""
    net = TorTestNetwork(n_relays=4, seed="relay-unit")
    relay = net.relays[0]
    probe = net.create_node("probe")
    received: list[Cell] = []
    state = {}

    def main(thread):
        conn = yield from net.network.connect_blocking(
            thread, probe, relay.node.address, relay.or_port)
        conn.endpoint_of(probe).on_message = (
            lambda _c, payload, _s: received.append(payload))
        client_state = ntor.NtorClientState(
            DeterministicRandom("probe"), relay.fingerprint)
        conn.send(probe, Cell(7, CellCommand.CREATE, client_state.onionskin),
                  size=CELL_SIZE)
        yield Sleep(2.0)
        created = received.pop(0)
        assert created.command == CellCommand.CREATED
        keys = client_state.finish(created.payload[:ntor.REPLY_LEN])
        state["conn"] = conn
        state["crypto"] = HopCrypto(keys)

    net.sim.run_until_done(net.sim.spawn(main))
    net.received = received
    net.relay = relay
    net.probe = probe
    net.conn = state["conn"]
    net.crypto = state["crypto"]
    return net


def _send_relay(net, command, stream_id, data, circ_id=7):
    cell = RelayCellPayload(command=command, stream_id=stream_id, data=data)
    payload = net.crypto.seal_payload(cell, FORWARD)
    payload = net.crypto.crypt_forward(payload)

    def main(thread):
        net.conn.send(net.probe, Cell(circ_id, CellCommand.RELAY, payload),
                      size=CELL_SIZE)
        yield Sleep(3.0)

    net.sim.run_until_done(net.sim.spawn(main))


def _open_reply(net, cell):
    payload = net.crypto.crypt_backward(cell.payload)
    return net.crypto.open_payload(payload, BACKWARD)


class TestRelayStateMachine:
    def test_create_installs_circuit(self, rig):
        assert rig.relay.active_circuit_count == 1

    def test_drop_is_silent(self, rig):
        _send_relay(rig, RelayCommand.DROP, 0, b"")
        assert rig.received == []
        assert rig.relay.active_circuit_count == 1

    def test_establish_intro_registers(self, rig):
        _send_relay(rig, RelayCommand.ESTABLISH_INTRO, 0,
                    canonical_encode({"auth": "svc.onion"}))
        reply = _open_reply(rig, rig.received.pop(0))
        assert reply.command == RelayCommand.INTRO_ESTABLISHED
        assert "svc.onion" in rig.relay._intro_circuits

    def test_establish_rendezvous_and_unknown_cookie(self, rig):
        _send_relay(rig, RelayCommand.ESTABLISH_RENDEZVOUS, 0,
                    canonical_encode({"cookie": b"C" * 20}))
        reply = _open_reply(rig, rig.received.pop(0))
        assert reply.command == RelayCommand.RENDEZVOUS_ESTABLISHED
        assert b"C" * 20 in rig.relay._rend_waiting

    def test_begin_to_refused_port_ends_stream(self, rig):
        _send_relay(rig, RelayCommand.BEGIN, 5,
                    canonical_encode({"host": rig.relays[1].node.address,
                                      "port": 59999}))
        reply = _open_reply(rig, rig.received.pop(0))
        assert reply.command == RelayCommand.END
        assert reply.stream_id == 5
        reason = canonical_decode(reply.data)["reason"]
        # This relay's test policy accepts everything, so the failure is
        # the refused connection, not policy.
        assert reason in ("connect-refused", "exit-policy")

    def test_data_for_unknown_stream_dropped(self, rig):
        _send_relay(rig, RelayCommand.DATA, 42, b"to nobody")
        assert rig.received == []   # silently dropped, circuit intact
        assert rig.relay.active_circuit_count == 1

    def test_destroy_cleans_up(self, rig):
        def main(thread):
            rig.conn.send(rig.probe, Cell(7, CellCommand.DESTROY, b""),
                          size=CELL_SIZE)
            yield Sleep(2.0)

        rig.sim.run_until_done(rig.sim.spawn(main))
        assert rig.relay.active_circuit_count == 0

    def test_conn_close_destroys_circuits(self, rig):
        def main(thread):
            rig.conn.close()
            yield Sleep(2.0)

        rig.sim.run_until_done(rig.sim.spawn(main))
        assert rig.relay.active_circuit_count == 0

    def test_sendme_replenishes_circuit_window(self, rig):
        entry, _side = rig.relay._routes[
            next(iter(rig.relay._routes))]
        entry.package_window = 0
        _send_relay(rig, RelayCommand.SENDME, 0, b"")
        assert entry.package_window == 100
