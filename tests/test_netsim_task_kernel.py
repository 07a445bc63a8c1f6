"""The actor kernel: suspension protocol, failures, replay parity.

The contract under test is the one DESIGN.md §11 states: actors are
:class:`SimTask` generators multiplexed onto the event loop, with fixed
simulated timestamps, wake-up ordering and timeout semantics.  The
corpus test at the bottom replays programs whose traces were recorded on
the retired OS-thread kernel and requires identical results.
"""

import json
from pathlib import Path

import pytest

from repro.netsim.simulator import (
    Future,
    Join,
    SimTask,
    SimTimeoutError,
    SimulationError,
    Simulator,
    Sleep,
    Wait,
)
from repro.perf.counters import counters


class TestSimTaskKernel:
    def test_generator_spawn_creates_task_not_thread(self):
        sim = Simulator()

        def actor(task):
            yield Sleep(1.0)
            return "done"

        handle = sim.spawn(actor, name="t")
        assert isinstance(handle, SimTask)
        sim.run_until_done(handle)
        assert handle.result == "done"

    def test_sleep_advances_virtual_time(self):
        sim = Simulator()
        seen = []

        def actor(task):
            yield Sleep(2.5)
            seen.append(sim.now)
            yield Sleep(0.5)
            seen.append(sim.now)

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert seen == [2.5, 3.0]

    def test_wait_returns_future_value(self):
        sim = Simulator()
        future = Future(sim)
        sim.schedule(3.0, future.resolve, 42)
        out = {}

        def actor(task):
            out["value"] = yield Wait(future)
            out["at"] = sim.now

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert out == {"value": 42, "at": 3.0}

    def test_wait_timeout_raises_at_deadline(self):
        sim = Simulator()
        future = Future(sim)    # never resolved
        out = {}

        def actor(task):
            try:
                yield Wait(future, timeout=2.0)
            except SimTimeoutError:
                out["at"] = sim.now

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert out["at"] == 2.0

    def test_wait_rejected_future_raises_in_task(self):
        sim = Simulator()
        future = Future(sim)
        sim.schedule(1.0, future.reject, RuntimeError("boom"))
        out = {}

        def actor(task):
            try:
                yield Wait(future)
            except RuntimeError as exc:
                out["error"] = str(exc)

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert out["error"] == "boom"

    def test_join_returns_other_tasks_result(self):
        sim = Simulator()

        def child(task):
            yield Sleep(2.0)
            return "payload"

        def parent(task):
            value = yield Join(child_handle)
            return (value, sim.now)

        child_handle = sim.spawn(child, name="child")
        parent_handle = sim.spawn(parent, name="parent")
        sim.run_until_done(parent_handle)
        assert parent_handle.result == ("payload", 2.0)

    def test_nested_yield_from_composes(self):
        sim = Simulator()

        def inner(task):
            yield Sleep(1.0)
            return sim.now

        def outer(task):
            first = yield from inner(task)
            second = yield from inner(task)
            return (first, second)

        handle = sim.spawn(outer, name="outer")
        sim.run_until_done(handle)
        assert handle.result == (1.0, 2.0)

    def test_spawn_passes_extra_args(self):
        sim = Simulator()

        def actor(task, base, scale=1):
            yield Sleep(0.0)
            return base * scale

        handle = sim.spawn(actor, 7, name="t")
        sim.run_until_done(handle)
        assert handle.result == 7

    def test_bad_yield_surfaces_simulation_error(self):
        sim = Simulator()

        def actor(task):
            yield "not a request"

        handle = sim.spawn(actor, name="t")
        with pytest.raises(SimulationError):
            sim.run_until_done(handle)

    def test_exception_surfaces_via_run_until_done(self):
        sim = Simulator()

        def actor(task):
            yield Sleep(1.0)
            raise ValueError("task died")

        with pytest.raises(ValueError, match="task died"):
            sim.run_until_done(sim.spawn(actor, name="t"))

    def test_spawn_counters(self):
        sim = Simulator()
        counters.reset()

        def task_actor(task):
            yield Sleep(1.0)

        sim.spawn(task_actor, name="a")
        sim.run()
        snap = counters.snapshot()
        assert snap["tasks_spawned"] == 1
        assert snap["task_switches"] >= 2    # start + one wake

    def test_tasks_and_threads_interleave_by_time(self):
        sim = Simulator()
        order = []

        def task_actor(task):
            for _ in range(3):
                yield Sleep(2.0)
                order.append(("task", sim.now))

        def thread_actor(thread):
            for _ in range(3):
                yield Sleep(1.5)
                order.append(("thread", sim.now))

        sim.spawn(task_actor, name="a")
        sim.spawn(thread_actor, name="b")
        sim.run()
        assert order == [("thread", 1.5), ("task", 2.0), ("thread", 3.0),
                         ("task", 4.0), ("thread", 4.5), ("task", 6.0)]

    def test_spawn_delay(self):
        sim = Simulator()
        times = []

        def actor(task):
            times.append(sim.now)
            yield Sleep(0.0)

        sim.spawn(actor, delay=4.0)
        sim.run()
        assert times == [4.0]

    def test_check_failures(self):
        sim = Simulator()

        def actor(task):
            yield Sleep(0.0)
            raise ValueError("hidden")

        sim.spawn(actor)
        sim.run()
        with pytest.raises(ValueError):
            sim.check_failures()

    def test_determinism_across_runs(self):
        def build_and_run():
            sim = Simulator(seed=99)
            trace = []

            def actor(task, name):
                for _ in range(3):
                    yield Sleep(sim.rng.uniform(0.1, 1.0))
                    trace.append((name, round(sim.now, 9)))

            sim.spawn(actor, "a")
            sim.spawn(actor, "b")
            sim.run()
            return trace

        assert build_and_run() == build_and_run()

    def test_callable_raising_before_first_yield_fails_the_actor(self):
        sim = Simulator()
        handle = sim.spawn(lambda t: 1 / 0, name="t")
        sim.run()       # the failure stays on the actor
        assert handle.finished
        assert isinstance(handle.exception, ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            sim.run_until_done(handle)
        with pytest.raises(ZeroDivisionError):
            sim.check_failures()


class TestStaleWakeRegression:
    """A future that loses the race against its timeout must not wake a
    *later* wait when it finally resolves (the stale-callback leak)."""

    def _program_events(self, sim, first, second):
        # first: waited with a 1s timeout, resolves late at t=2.0 (the
        # stale callback).  second: the wait the actor moves on to; it
        # must run its full course to t=4.0.
        sim.schedule(2.0, first.resolve, "late")
        sim.schedule(4.0, second.resolve, "on-time")

    def test_task_ignores_stale_wake(self):
        sim = Simulator()
        first, second = Future(sim), Future(sim)
        self._program_events(sim, first, second)
        out = {}

        def actor(task):
            try:
                yield Wait(first, timeout=1.0)
            except SimTimeoutError:
                out["timed_out_at"] = sim.now
            out["value"] = yield Wait(second, timeout=10.0)
            out["resumed_at"] = sim.now

        sim.run_until_done(sim.spawn(actor, name="t"))
        # The stale t=2.0 callback fired mid-second-wait; a leak would
        # resume the actor then (with first's value, or crash).
        assert out == {"timed_out_at": 1.0, "value": "on-time",
                       "resumed_at": 4.0}

    def test_abandoned_wait_timer_cannot_fire_next_wait(self):
        # The first wait's timer outlives it (deadline t=5.0); the future
        # resolves first.  When t=5.0 arrives the actor is in a *new*
        # wait — the old deadline must not cut it short.
        sim = Simulator()
        first, second = Future(sim), Future(sim)
        sim.schedule(1.0, first.resolve, "fast")
        sim.schedule(8.0, second.resolve, "slow")
        out = {}

        def actor(task):
            out["first"] = yield Wait(first, timeout=5.0)
            out["second"] = yield Wait(second, timeout=20.0)
            out["at"] = sim.now

        sim.run_until_done(sim.spawn(actor, name="t"))
        assert out == {"first": "fast", "second": "slow", "at": 8.0}


class TestMaxEventsExactBound:
    def test_run_stops_before_event_over_budget(self):
        sim = Simulator()
        ran = []
        for i in range(5):
            sim.schedule(float(i), ran.append, i)
        with pytest.raises(SimulationError):
            sim.run(max_events=4)
        assert ran == [0, 1, 2, 3]    # event 5 never executed

    def test_run_within_budget_completes(self):
        sim = Simulator()
        ran = []
        for i in range(4):
            sim.schedule(float(i), ran.append, i)
        sim.run(max_events=4)
        assert ran == [0, 1, 2, 3]


# -- replay parity with the retired thread kernel ----------------------------

N_FUTURES = 4
CORPUS = Path(__file__).parent / "data" / "kernel_parity_corpus.json"


class _Ctx:
    def __init__(self, sim):
        self.sim = sim
        self.trace = []
        self.futures = [Future(sim) for _ in range(N_FUTURES)]


def _make_task_fn(ctx, program, name):
    """An actor interpreting ``program``: a list of ``[kind, ...]`` ops."""
    def fn(task):
        for index, op in enumerate(program):
            kind = op[0]
            if kind == "sleep":
                yield Sleep(op[1])
                ctx.trace.append((ctx.sim.now, name, index, "slept"))
            elif kind == "wait":
                try:
                    value = yield Wait(ctx.futures[op[1]], timeout=op[2])
                    outcome = ("ok", value)
                except SimTimeoutError:
                    outcome = ("timeout",)
                ctx.trace.append((ctx.sim.now, name, index, "wait", outcome))
            elif kind == "spawn":
                child = f"{name}.{index}"
                ctx.sim.spawn(_make_task_fn(ctx, op[1], child), name=child)
                ctx.trace.append((ctx.sim.now, name, index, "spawned"))
            elif kind == "log":
                ctx.trace.append((ctx.sim.now, name, index, "log", op[1]))
            elif kind == "resolve":
                future = ctx.futures[op[1]]
                if not future.done:
                    future.resolve(op[2])
                ctx.trace.append((ctx.sim.now, name, index, "resolve", op[1]))
    return fn


def _run_programs(programs):
    sim = Simulator()
    ctx = _Ctx(sim)
    counters.reset()
    for root, program in enumerate(programs):
        name = f"actor{root}"
        sim.spawn(_make_task_fn(ctx, program, name), name=name)
    sim.run()
    sim.check_failures()
    return ctx.trace, sim.now, counters.snapshot()["events_processed"]


class TestKernelParityCorpus:
    def test_corpus_replays_identically(self):
        """Replay 200 recorded programs; each must match its recorded run.

        The corpus holds 200 distinct programs drawn with hypothesis
        (seed 2021) from a grammar of sleep/log/resolve/wait ops plus one
        level of spawned children, over up to three root actors sharing
        four futures; every wait carries a timeout.  Each entry's
        ``trace``, ``now`` and ``events_processed`` were recorded by
        running the program on the retired OS-thread actor kernel at
        commit 9b115dff4dae, the last commit that had it.
        """
        corpus = json.loads(CORPUS.read_text())
        assert len(corpus) == 200
        for entry in corpus:
            trace, now, events = _run_programs(entry["programs"])
            assert json.loads(json.dumps(trace)) == entry["trace"], entry
            assert now == entry["now"], entry
            assert events == entry["events_processed"], entry
