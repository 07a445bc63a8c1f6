"""The discrete-event core: event ordering and futures."""

import pytest

from repro.netsim.simulator import Future, SimulationError, Simulator


class TestEventOrdering:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, "late")
        sim.schedule(1.0, seen.append, "early")
        sim.run()
        assert seen == ["early", "late"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(1.0, seen.append, i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(3.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.5]

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "no")
        event.cancel()
        sim.run()
        assert seen == []

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=2.0)
        assert seen == ["a"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_clamps_to_now(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, lambda: None))
        sim.run()   # must not raise

    def test_runaway_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)


class TestFuture:
    def test_resolve_then_result(self):
        sim = Simulator()
        future = Future(sim)
        future.resolve(42)
        assert future.result() == 42

    def test_reject_raises(self):
        sim = Simulator()
        future = Future(sim)
        future.reject(ValueError("boom"))
        with pytest.raises(ValueError):
            future.result()

    def test_double_resolve_rejected(self):
        sim = Simulator()
        future = Future(sim)
        future.resolve(1)
        with pytest.raises(SimulationError):
            future.resolve(2)

    def test_result_before_done_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Future(sim).result()

    def test_callback_runs_via_event_queue(self):
        sim = Simulator()
        future = Future(sim)
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        future.resolve("x")
        assert seen == []          # not synchronous
        sim.run()
        assert seen == ["x"]

    def test_callback_after_done(self):
        sim = Simulator()
        future = Future(sim)
        future.resolve(1)
        seen = []
        future.add_done_callback(lambda f: seen.append(True))
        sim.run()
        assert seen == [True]

