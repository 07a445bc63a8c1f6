"""FaultPlane unit tests: crashes, link cuts, latency spikes, determinism.

Also pins the Connection.close() drain-then-raise contract the fault plane
relies on: queued messages stay readable after close; receive raises
ConnectionClosed only once the queue is empty.
"""

from __future__ import annotations

import pytest

from repro.netsim.connection import ConnectionClosed
from repro.netsim.faults import FaultPlane
from repro.netsim.network import Network, NetworkError
from repro.netsim.simulator import Simulator
from repro.perf.counters import counters as _perf


@pytest.fixture()
def world():
    """A 3-node network with a listener on every node, plus its FaultPlane."""
    sim = Simulator(seed="faults")
    net = Network(sim)
    for name in ("a", "b", "c"):
        node = net.create_node(name)
        node.listen(9, lambda conn: None)
    plane = FaultPlane(net)
    _perf.reset()
    return sim, net, plane


def dial(sim, net, frm, to):
    """Dial ``to``:9 from ``frm`` and run the handshake to completion."""
    future = net.connect(net.node(frm), net.node(to).address, 9)
    sim.run()
    return future


class TestNodeCrash:
    def test_crash_aborts_connections_and_refuses_dials(self, world):
        sim, net, plane = world
        conn = dial(sim, net, "a", "b").result()
        plane.crash_node("b")
        assert conn.closed
        assert not plane.node_alive("b")
        failed = dial(sim, net, "a", "b")
        with pytest.raises(NetworkError, match="b is down"):
            failed.result()
        assert _perf.node_crashes == 1
        assert _perf.conns_torn_down == 1
        assert plane.log[0][1:] == ("crash", "b")

    def test_crash_wakes_blocked_receiver(self, world):
        sim, net, plane = world
        conn = dial(sim, net, "a", "b").result()
        outcome = {}

        def receiver(thread):
            try:
                yield from conn.receive(net.node("a"), thread)
            except ConnectionClosed:
                outcome["raised"] = True

        thread = sim.spawn(receiver)
        sim.schedule(1.0, plane.crash_node, "b")
        sim.run_until_done(thread)
        assert outcome == {"raised": True}

    def test_restart_restores_listeners_and_notifies(self, world):
        sim, net, plane = world
        events = []
        net.node("b").add_crash_listener(lambda n: events.append("crash"))
        net.node("b").add_restart_listener(lambda n: events.append("restart"))
        plane.crash_node("b", down_for_s=5.0)
        assert net.node("b").listener_for(9) is None
        sim.run()
        assert plane.node_alive("b")
        assert net.node("b").listener_for(9) is not None
        assert events == ["crash", "restart"]
        assert _perf.node_restarts == 1
        assert dial(sim, net, "a", "b").result() is not None

    def test_crash_dead_node_is_noop(self, world):
        sim, net, plane = world
        plane.crash_node("b")
        plane.crash_node("b")
        assert _perf.node_crashes == 1
        assert len(plane.log) == 1


class TestLinkFaults:
    def test_cut_aborts_pair_connections_only(self, world):
        sim, net, plane = world
        ab = dial(sim, net, "a", "b").result()
        ac = dial(sim, net, "a", "c").result()
        plane.cut_link("a", "b")
        assert ab.closed
        assert not ac.closed
        assert not plane.link_up("a", "b")
        with pytest.raises(NetworkError, match="is cut"):
            dial(sim, net, "b", "a").result()

    def test_heal_restores_dialing(self, world):
        sim, net, plane = world
        plane.cut_link("a", "b", down_for_s=3.0)
        sim.run()
        assert plane.link_up("a", "b")
        assert dial(sim, net, "a", "b").result() is not None
        assert _perf.links_cut == 1
        assert _perf.links_healed == 1

    def test_partition_cuts_every_cross_link(self, world):
        sim, net, plane = world
        plane.partition(["a"], ["b", "c"])
        assert not plane.link_up("a", "b")
        assert not plane.link_up("a", "c")
        assert plane.link_up("b", "c")
        assert _perf.links_cut == 2


class TestLatencySpike:
    def test_spike_applies_and_clears(self, world):
        sim, net, plane = world
        conn = dial(sim, net, "a", "b").result()
        base = conn.latency
        plane.spike_latency("a", "b", 0.5, duration_s=10.0)
        assert conn.latency == pytest.approx(base + 0.5)
        # New dials during the spike inherit the raised latency model.
        assert net.latency(net.node("a"), net.node("b")) == \
            pytest.approx(base + 0.5)
        sim.run()
        assert conn.latency == pytest.approx(base)
        assert net.latency(net.node("a"), net.node("b")) == pytest.approx(base)
        kinds = [kind for _t, kind, _d in plane.log]
        assert kinds == ["spike", "spike-clear"]
        assert _perf.latency_spikes == 1


class TestScheduleDeterminism:
    def make_plan(self, seed):
        sim = Simulator(seed=seed)
        net = Network(sim)
        for name in ("a", "b", "c", "d"):
            net.create_node(name).listen(9, lambda conn: None)
        plane = FaultPlane(net)
        plan = plane.schedule_random(
            node_names=["a", "b", "c", "d"], start_s=1.0, end_s=50.0,
            n_crashes=2, n_link_cuts=2, n_latency_spikes=2)
        sim.run()
        return plan, list(plane.log)

    def test_same_seed_same_schedule_and_log(self):
        _perf.reset()
        plan1, log1 = self.make_plan("chaos")
        plan2, log2 = self.make_plan("chaos")
        assert plan1 == plan2
        assert log1 == log2
        assert len(plan1) == 6

    def test_different_seed_differs(self):
        _perf.reset()
        plan1, _ = self.make_plan("chaos")
        plan2, _ = self.make_plan("other")
        assert plan1 != plan2


class TestSpikeEdgeCases:
    def test_spike_during_inflight_coalesced_transfer(self, world):
        """A spike landing mid-bulk-transfer must not corrupt delivery or
        leave the latency model raised after it clears."""
        sim, net, plane = world
        conn = dial(sim, net, "a", "b").result()
        base = conn.latency
        payload = bytes(1_000_000)
        conn.send(net.node("a"), payload)
        assert net.node("a").uplink._bulk is not None  # coalesced path taken
        sim.schedule(0.01, plane.spike_latency, "a", "b", 0.5, 2.0)
        got = []

        def receiver(thread):
            got.append((yield from conn.receive(net.node("b"), thread)))

        sim.run_until_done(sim.spawn(receiver))
        assert got == [payload]
        sim.run()  # let the spike expire
        assert conn.latency == pytest.approx(base)
        assert net.latency(net.node("a"), net.node("b")) == pytest.approx(base)
        kinds = [kind for _t, kind, _d in plane.log]
        assert kinds == ["spike", "spike-clear"]

    def test_spike_clears_after_connection_closed(self, world):
        """The scheduled clear must skip closed connections but still
        restore the pair's latency model."""
        sim, net, plane = world
        conn = dial(sim, net, "a", "b").result()
        base = net.latency(net.node("a"), net.node("b"))
        plane.spike_latency("a", "b", 0.5, duration_s=5.0)
        conn.close()
        sim.run()
        assert net.latency(net.node("a"), net.node("b")) == pytest.approx(base)
        kinds = [kind for _t, kind, _d in plane.log]
        assert kinds == ["spike", "spike-clear"]

    def test_manual_heal_before_scheduled_heal(self, world):
        """Healing a link before its scheduled heal expires must heal once;
        the later scheduled heal is a no-op."""
        sim, net, plane = world
        plane.cut_link("a", "b", down_for_s=10.0)
        sim.schedule(2.0, plane.heal_link, "a", "b")
        sim.run()
        assert plane.link_up("a", "b")
        assert _perf.links_healed == 1
        kinds = [kind for _t, kind, _d in plane.log]
        assert kinds == ["cut", "heal"]
        assert dial(sim, net, "a", "b").result() is not None


class TestTraceRecorderCrash:
    """Regression: a crashed host's packet-trace taps must come off.

    Before the fix, a TraceRecorder on a crashed node kept recording
    traffic after the node restarted — an observer process that somehow
    survived the host dying.
    """

    def test_crash_detaches_recorder(self, world):
        from repro.netsim.trace import TraceRecorder

        sim, net, plane = world
        recorder = TraceRecorder(net.node("b"))
        conn = dial(sim, net, "a", "b").result()
        conn.send(net.node("a"), b"x" * 2000)
        sim.run()
        before = len(recorder.records)
        assert before > 0
        plane.crash_node("b", down_for_s=5.0)
        assert recorder.detached
        assert recorder not in net.node("b").trace_recorders
        assert recorder._tap_out not in net.node("b").uplink._taps
        assert recorder._tap_in not in net.node("b").downlink._taps
        sim.run()  # restart happens
        conn2 = dial(sim, net, "a", "b").result()
        conn2.send(net.node("a"), b"y" * 2000)
        sim.run()
        # A dead host records nothing, even after it comes back up...
        assert len(recorder.records) == before
        # ...but what it captured before the crash stays readable.
        assert recorder.total_bytes() > 0

    def test_detach_is_idempotent_and_manual(self, world):
        from repro.netsim.trace import TraceRecorder

        sim, net, plane = world
        recorder = TraceRecorder(net.node("a"))
        recorder.detach()
        recorder.detach()
        assert net.node("a").uplink._taps == []
        assert net.node("a").trace_recorders == []

    def test_fresh_recorder_after_restart_works(self, world):
        from repro.netsim.trace import TraceRecorder

        sim, net, plane = world
        plane.crash_node("b", down_for_s=1.0)
        sim.run()
        recorder = TraceRecorder(net.node("b"))
        conn = dial(sim, net, "a", "b").result()
        conn.send(net.node("a"), b"z" * 2000)
        sim.run()
        assert recorder.total_bytes() > 0


class TestFaultObservability:
    def test_fault_spans_open_and_close(self, world):
        from repro.obs.metrics import REGISTRY
        from repro.obs.span import TRACER

        sim, net, plane = world
        log = TRACER.attach()
        try:
            plane.crash_node("b", down_for_s=5.0)
            plane.cut_link("a", "c", down_for_s=5.0)
            plane.spike_latency("a", "b", 0.1, duration_s=5.0)
            sim.run()
        finally:
            TRACER.detach()
        by_name = {span.name: span for span in log.spans}
        assert by_name["fault.node_down"].attrs["restarted"] is True
        assert by_name["fault.link_down"].attrs["healed"] is True
        assert by_name["fault.latency_spike"].attrs["cleared"] is True
        assert log.open_spans() == []
        assert REGISTRY.counter("faults_injected",
                                {"kind": "crash"}).value == 1
        assert REGISTRY.counter("faults_injected",
                                {"kind": "cut"}).value == 1
        assert REGISTRY.counter("faults_injected",
                                {"kind": "spike"}).value == 1

    def test_permanent_crash_leaves_span_open(self, world):
        from repro.obs.span import TRACER

        sim, net, plane = world
        log = TRACER.attach()
        try:
            plane.crash_node("b")
            sim.run()
        finally:
            TRACER.detach()
        down = next(s for s in log.spans if s.name == "fault.node_down")
        assert down.open
        assert down.attrs["node"] == "b"


class TestCloseSemantics:
    """The documented drain-then-raise contract of Connection.close()."""

    def test_queued_messages_survive_close(self, world):
        sim, net, plane = world
        conn = dial(sim, net, "a", "b").result()
        conn.send(net.node("b"), b"first")
        conn.send(net.node("b"), b"second")
        sim.run()  # both messages delivered into a's queue
        conn.close()
        got = []

        def receiver(thread):
            got.append((yield from conn.receive(net.node("a"), thread)))
            got.append((yield from conn.receive(net.node("a"), thread)))
            with pytest.raises(ConnectionClosed):
                yield from conn.receive(net.node("a"), thread)

        sim.run_until_done(sim.spawn(receiver))
        assert got == [b"first", b"second"]

    def test_in_flight_messages_dropped_at_delivery(self, world):
        sim, net, plane = world
        conn = dial(sim, net, "a", "b").result()
        conn.send(net.node("b"), b"late")
        conn.close()  # closes before the wire delivers
        sim.run()

        def receiver(thread):
            with pytest.raises(ConnectionClosed):
                yield from conn.receive(net.node("a"), thread)

        sim.run_until_done(sim.spawn(receiver))

    def test_send_on_closed_raises(self, world):
        sim, net, plane = world
        conn = dial(sim, net, "a", "b").result()
        conn.close()
        with pytest.raises(ConnectionClosed):
            conn.send(net.node("a"), b"x")
