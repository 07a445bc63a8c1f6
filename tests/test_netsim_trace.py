"""Trace recording: the adversary's vantage point."""

import pytest

from repro.netsim.network import Network
from repro.netsim.simulator import Simulator, Sleep
from repro.netsim.trace import INCOMING, OUTGOING, TraceRecorder


@pytest.fixture()
def wired():
    sim = Simulator(seed=5)
    net = Network(sim)
    a = net.create_node("a")
    b = net.create_node("b")
    b.listen(80, lambda conn: None)
    recorder = TraceRecorder(a)
    return sim, net, a, b, recorder


def _send(sim, net, a, b, sizes):
    def main(thread):
        conn = yield from net.connect_blocking(thread, a, b.address, 80)
        for size in sizes:
            conn.send(a, b"x" * size)

    sim.run_until_done(sim.spawn(main))


class TestTraceRecorder:
    def test_outgoing_recorded(self, wired):
        sim, net, a, b, recorder = wired
        _send(sim, net, a, b, [100, 200])
        out = [r for r in recorder.records if r.direction == OUTGOING]
        assert [r.size for r in out] == [100, 200]

    def test_incoming_recorded(self, wired):
        sim, net, a, b, recorder = wired

        def main(thread):
            conn = yield from net.connect_blocking(thread, a, b.address, 80)
            conn.send(b, b"y" * 333)     # peer talks back
            yield Sleep(1.0)

        sim.run_until_done(sim.spawn(main))
        incoming = [r for r in recorder.records if r.direction == INCOMING]
        assert [r.size for r in incoming] == [333]

    def test_total_bytes_by_direction(self, wired):
        sim, net, a, b, recorder = wired
        _send(sim, net, a, b, [50, 50])
        assert recorder.total_bytes(OUTGOING) == 100
        assert recorder.total_bytes(INCOMING) == 0
        assert recorder.total_bytes() == 100

    def test_mark_cut_segments(self, wired):
        sim, net, a, b, recorder = wired
        _send(sim, net, a, b, [10])
        recorder.mark()
        _send(sim, net, a, b, [20, 30])
        segment = recorder.cut()
        assert [r.size for r in segment if r.direction == OUTGOING] == [20, 30]
        # A second cut with no new traffic is empty.
        assert recorder.cut() == []

    def test_cut_is_time_sorted(self, wired):
        sim, net, a, b, recorder = wired
        _send(sim, net, a, b, [10, 20, 30])
        times = [r.time for r in recorder.cut()]
        assert times == sorted(times)

    def test_bytes_in_windows(self, wired):
        sim, net, a, b, recorder = wired

        def main(thread):
            conn = yield from net.connect_blocking(thread, a, b.address, 80)
            conn.send(b, b"1" * 1000)
            yield Sleep(5.0)
            conn.send(b, b"2" * 3000)
            yield Sleep(5.0)

        sim.run_until_done(sim.spawn(main))
        buckets = dict(recorder.bytes_in_windows(5.0, direction=INCOMING))
        assert buckets[0.0] == 1000
        assert buckets[5.0] == 3000

    def test_windows_reject_bad_width(self, wired):
        _sim, _net, _a, _b, recorder = wired
        with pytest.raises(ValueError):
            recorder.bytes_in_windows(0)

    def test_chunked_messages_appear_as_multiple_records(self, wired):
        sim, net, a, b, recorder = wired
        _send(sim, net, a, b, [10_000])      # > 4096-byte chunks
        out = [r for r in recorder.records if r.direction == OUTGOING]
        assert len(out) == 3                  # 4096 + 4096 + 1808
        assert sum(r.size for r in out) == 10_000
