"""Equivalence and harness tests for the hot-path optimizations.

The batched keystream, the batched layer crypto, and the coalesced bulk
transfer are all pure optimizations: every one must be byte- and
float-identical to the straightforward implementation it replaced.  The
golden hashes below were captured from the pre-optimization code and
frozen; the coalescing tests compare the fast path against the chunked
path directly (toggled via :data:`repro.netsim.connection.COALESCE`).
"""

import hashlib

import pytest

import repro.netsim.connection as connection_mod
from repro.crypto.stream import StreamCipher, stream_xor
from repro.netsim.connection import Connection, LoopbackConnection
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.perf.counters import counters
from repro.perf.report import render_report
from repro.perf.timing import reset_sections, section_times, timed_section
from repro.tor.cell import RelayCellPayload, RelayCommand
from repro.tor.layercrypto import BACKWARD, FORWARD, HopCrypto
from repro.tor.ntor import CircuitKeys


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenKeystream:
    """Frozen vectors from the pre-batching StreamCipher."""

    LENGTHS = (1, 31, 32, 33, 100, 509, 0, 4096)
    DIGESTS = (
        "aa7225e7d5b0a2552bbb58880b3ec00c286995b801a7aeb69281e76a8b4908de",
        "24d891f173928bd2ba55fe5d771ed23196602df7d9ae61821808916f3119f749",
        "6a5233cf3cbadbe888f2d4c58afd86a8fe059800b327f95986b44e6aafcee9f0",
        "f48a3b18bcdca0e74c10eb8410117fd77aedefcf8df9995424f7192c85796b2a",
        "6d89f4540a193579fafe3689d1b2e4ea0dba16b0d5b7ebc1568d4a51b72be6d5",
        "9b0a31b975deec80f6f2568a65d0798138078def2fe24349569b14fc54b2e179",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ec777d387997e893cada243a5bc9403d6220c160467cc961618bdeb211767058",
    )
    CAT = "8424dd62dcfc7e64a98e770894c42602dd202f48bbc445ee0013d263acee6c37"

    def test_incremental_reads_match_frozen_vectors(self):
        cipher = StreamCipher(b"golden-key-0123456789abcdef", b"nonce-A")
        parts = [cipher.keystream(n) for n in self.LENGTHS]
        for n, part, digest in zip(self.LENGTHS, parts, self.DIGESTS):
            assert len(part) == n
            assert _sha(part) == digest
        assert _sha(b"".join(parts)) == self.CAT

    def test_one_shot_read_equals_incremental(self):
        incremental = StreamCipher(b"golden-key-0123456789abcdef", b"nonce-A")
        parts = b"".join(incremental.keystream(n) for n in self.LENGTHS)
        oneshot = StreamCipher(b"golden-key-0123456789abcdef", b"nonce-A")
        assert oneshot.keystream(sum(self.LENGTHS)) == parts

    def test_process_matches_frozen_vector(self):
        cipher = StreamCipher(b"k" * 16, b"n2")
        messages = [bytes(range(i % 256)) * 3 for i in (5, 97, 200)]
        out = b"".join(cipher.process(m) for m in messages)
        assert _sha(out) == (
            "6bc0aadcfebc6b4e46d7787e759509fcc2e406d9d9b268d1957532bd8fa89572")

    def test_process_many_equals_sequential_process(self):
        messages = [bytes([i]) * (50 + 37 * i) for i in range(9)]
        sequential = StreamCipher(b"pm-key-16-bytes!", b"pm-nonce")
        batched = StreamCipher(b"pm-key-16-bytes!", b"pm-nonce")
        expect = [sequential.process(m) for m in messages]
        assert batched.process_many(messages) == expect
        # Both ciphers sit at the same stream position afterwards.
        assert sequential.keystream(64) == batched.keystream(64)

    def test_stream_xor_frozen_vector(self):
        out = stream_xor(b"key-material-16b", b"iv", b"hello bento" * 50)
        assert _sha(out) == (
            "bd8d641d32019a6d4615ac62157607775be1d9c0836857ff5fbb69b2a7c6400a")


def _mkkeys(tag: bytes) -> CircuitKeys:
    digest = lambda s: hashlib.sha256(tag + s).digest()  # noqa: E731
    return CircuitKeys(kf=digest(b"kf"), kb=digest(b"kb"),
                       df=digest(b"df"), db=digest(b"db"))


class TestGoldenLayerCrypto:
    """Frozen wire bytes for five forward/backward rounds through one hop."""

    DIGESTS = {
        False: "b57b252b5cfa8dcc9213acc5fca8e4a550e6802eff3b92a83e68b0718d009006",
        True: "a1ccf225587ebf8ec066c95714f4e685eb413635a1aeec2d47d4cb1a31ea30a6",
    }

    @pytest.mark.parametrize("fast", [False, True])
    def test_wire_bytes_match_frozen_vectors(self, fast):
        sender = HopCrypto(_mkkeys(b"hop"), fast=fast)
        relay = HopCrypto(_mkkeys(b"hop"), fast=fast)
        wire = []
        for i in range(5):
            cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=7,
                                    data=bytes([i]) * (100 + i))
            fwd = sender.crypt_forward(sender.seal_payload(cell, FORWARD))
            wire.append(fwd)
            opened = relay.open_payload(relay.crypt_forward(fwd), FORWARD)
            assert opened is not None and opened.data == cell.data
            reply = relay.seal_payload(RelayCellPayload(
                command=RelayCommand.DATA, stream_id=7, data=b"r" * 40),
                BACKWARD)
            bwd = relay.crypt_backward(reply)
            wire.append(bwd)
            assert sender.open_payload(
                sender.crypt_backward(bwd), BACKWARD) is not None
        assert _sha(b"".join(wire)) == self.DIGESTS[fast]

    @pytest.mark.parametrize("fast", [False, True])
    def test_crypt_many_equals_sequential(self, fast):
        one_by_one = HopCrypto(_mkkeys(b"many"), fast=fast)
        batched = HopCrypto(_mkkeys(b"many"), fast=fast)
        payloads = [bytes([i]) * 509 for i in range(7)]
        expect_f = [one_by_one.crypt_forward(p) for p in payloads]
        assert batched.crypt_forward_many(list(payloads)) == expect_f
        expect_b = [one_by_one.crypt_backward(p) for p in payloads]
        assert batched.crypt_backward_many(list(payloads)) == expect_b


def _two_node_net():
    sim = Simulator(seed=5)
    net = Network(sim, min_latency_s=0.02, max_latency_s=0.02)
    a = net.create_node("a", up_bytes_per_s=100_000.0,
                        down_bytes_per_s=100_000.0)
    b = net.create_node("b", up_bytes_per_s=80_000.0,
                        down_bytes_per_s=80_000.0)
    return sim, net, a, b


def _trace_single_flow(coalesce, monkeypatch):
    """One 100 KB message a->b; returns every observable timing."""
    monkeypatch.setattr(connection_mod, "COALESCE", coalesce)
    sim, net, a, b = _two_node_net()
    conn = Connection(sim, a, b, latency_s=0.02)
    trace = {"taps_up": [], "taps_down": [], "sent": None, "delivered": None}
    a.uplink.add_tap(lambda t, size: trace["taps_up"].append((t, size)))
    b.downlink.add_tap(lambda t, size: trace["taps_down"].append((t, size)))

    def on_message(_conn, payload, size):
        trace["delivered"] = (sim.now, len(payload), size)

    conn.endpoint_of(b).on_message = on_message
    conn.send(a, b"m" * 100_000,
              on_sent=lambda: trace.__setitem__("sent", sim.now))
    sim.run()
    trace["busy_up"] = a.uplink._busy_until
    trace["busy_down"] = b.downlink._busy_until
    trace["bytes_up"] = a.uplink.bytes_total
    trace["end"] = sim.now
    return trace


def _trace_contended(coalesce, monkeypatch):
    """Bulk a->b preempted mid-flight by a second flow a->c."""
    monkeypatch.setattr(connection_mod, "COALESCE", coalesce)
    sim, net, a, b = _two_node_net()
    c = net.create_node("c", up_bytes_per_s=80_000.0,
                        down_bytes_per_s=80_000.0)
    conn_ab = Connection(sim, a, b, latency_s=0.02)
    conn_ac = Connection(sim, a, c, latency_s=0.015)
    delivered = {}
    for name, node, conn in (("b", b, conn_ab), ("c", c, conn_ac)):
        conn.endpoint_of(node).on_message = (
            lambda _c, payload, size, name=name:
                delivered.__setitem__(name, (sim.now, size)))
    taps = []
    a.uplink.add_tap(lambda t, size: taps.append((t, size)))
    conn_ab.send(a, b"m" * 100_000)
    # Lands mid-transfer on a's uplink: forces a preemption when coalesced.
    sim.schedule(0.3, conn_ac.send, a, b"n" * 50_000)
    sim.run()
    return {"delivered": delivered, "taps": sorted(taps), "end": sim.now}


class TestCoalescingEquivalence:
    def test_uncontended_transfer_is_bit_identical(self, monkeypatch):
        chunked = _trace_single_flow(False, monkeypatch)
        coalesced = _trace_single_flow(True, monkeypatch)
        assert coalesced == chunked
        assert chunked["delivered"] is not None
        # 100 KB in 4 KiB chunks: many tap records either way.
        assert len(chunked["taps_up"]) > 10

    def test_coalesced_path_actually_engaged(self, monkeypatch):
        counters.reset()
        _trace_single_flow(True, monkeypatch)
        assert counters.bulk_grants == 1
        assert counters.chunks_coalesced > 10
        counters.reset()
        _trace_single_flow(False, monkeypatch)
        assert counters.bulk_grants == 0

    def test_preempted_transfer_is_bit_identical(self, monkeypatch):
        chunked = _trace_contended(False, monkeypatch)
        counters.reset()
        coalesced = _trace_contended(True, monkeypatch)
        assert counters.bulk_preemptions >= 1
        assert coalesced == chunked

    def test_small_messages_never_coalesce(self, monkeypatch):
        monkeypatch.setattr(connection_mod, "COALESCE", True)
        sim, net, a, b = _two_node_net()
        conn = Connection(sim, a, b, latency_s=0.02)
        got = []
        conn.endpoint_of(b).on_message = (
            lambda _c, payload, size: got.append(payload))
        counters.reset()
        conn.send(a, b"cell" * 100)   # 400 B < DEFAULT_CHUNK
        sim.run()
        assert got == [b"cell" * 100]
        assert counters.bulk_grants == 0


class TestConnectionQueues:
    def test_receive_order_fifo(self):
        sim, net, a, b = _two_node_net()
        conn = Connection(sim, a, b, latency_s=0.02)
        seen = []

        def receiver(thread):
            for _ in range(3):
                seen.append((yield from conn.receive(b, thread)))

        sim.spawn(receiver)
        for i in range(3):
            conn.send(a, b"msg%d" % i)
        sim.run()
        sim.check_failures()
        assert seen == [b"msg0", b"msg1", b"msg2"]

    def test_send_rejects_sizeless_non_bytes(self):
        sim, net, a, b = _two_node_net()
        conn = Connection(sim, a, b, latency_s=0.02)
        with pytest.raises(TypeError):
            conn.send(a, {"not": "bytes"})
        conn.send(a, {"not": "bytes"}, size=512)   # explicit size is fine

    def test_loopback_rejects_sizeless_non_bytes(self):
        sim = Simulator(seed=3)
        net = Network(sim)
        node = net.create_node("solo")
        side_a, side_b = LoopbackConnection.create(sim, node)
        with pytest.raises(TypeError):
            side_a.send(node, ("tuple", "payload"))
        got = []
        side_b._endpoint.on_message = (
            lambda _c, payload, size: got.append((payload, size)))
        side_a.send(node, ("tuple", "payload"), size=64)
        side_a.send(node, b"raw")
        sim.run()
        assert got == [(("tuple", "payload"), 64), (b"raw", 3)]


class TestSimulatorHeapCompaction:
    def test_cancelled_backlog_is_compacted(self):
        sim = Simulator(seed=7)
        events = [sim.schedule(1000.0 + i, lambda: None) for i in range(200)]
        for event in events:
            event.cancel()
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        counters.reset()
        sim.run(until=1.0)
        assert fired == [0.5]
        assert counters.heap_compactions >= 1
        assert len(sim._heap) == 0   # garbage gone, not merely skipped

    def test_compaction_preserves_order(self):
        sim = Simulator(seed=7)
        doomed = [sim.schedule(50.0 + i, lambda: None) for i in range(100)]
        fired = []
        for delay in (3.0, 1.0, 2.0):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        for event in doomed:
            event.cancel()
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]


class TestPerfHarness:
    def test_counters_track_a_run(self):
        counters.reset()
        sim, net, a, b = _two_node_net()
        conn = Connection(sim, a, b, latency_s=0.02)
        conn.endpoint_of(b).on_message = lambda _c, _p, _s: None
        conn.send(a, b"x" * 50_000)
        sim.run()
        snapshot = counters.snapshot()
        assert snapshot["events_processed"] > 0
        assert snapshot["events_scheduled"] > 0
        # Coalesced chunks bypass Interface.transmit; together the two
        # counters see every chunk exactly once.
        assert snapshot["chunks_transmitted"] + snapshot["chunks_coalesced"] > 1
        counters.reset()
        assert counters.snapshot()["events_processed"] == 0

    def test_keystream_counters(self):
        counters.reset()
        StreamCipher(b"count-key-16byte", b"count-nonce").keystream(10_000)
        assert counters.keystream_bytes >= 10_000
        assert counters.hash_calls > 0

    def test_timed_sections_accumulate(self):
        reset_sections()
        with timed_section("unit-test-section"):
            pass
        with timed_section("unit-test-section"):
            pass
        assert section_times["unit-test-section"] >= 0.0
        reset_sections()
        assert "unit-test-section" not in section_times

    def test_render_report_lists_all_counters(self):
        counters.reset()
        text = render_report()
        assert "events_processed" in text
        assert "chunks_coalesced" in text

    def test_cli_perf_report_scenario(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "perf-report" in capsys.readouterr().out.split()
        assert main(["perf-report", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "events_processed" in out
        assert "cells_crypted" in out
