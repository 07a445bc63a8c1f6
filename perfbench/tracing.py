"""Per-layer tracing installed from outside the program.

The benchmark's traced run replaces the public functions of each layer
with timing wrappers (class attributes, and every module-level name a
function was imported under), so nothing inside ``src/`` knows it is
being traced.  Two kinds of wrapper exist:

* a *frame* wrapper around a plain function: counts calls and adds the
  call's duration to the function's stat, minus the time of wrapped
  calls nested inside it (self time);
* an *op* wrapper around a blocking generator operation: the returned
  generator is driven by a proxy that times every resume (busy time,
  again minus nested wrapped calls) and records the simulated span from
  the call to the generator's end (``sim_s``).

Both push a frame on one stack of *currently executing* frames.  The
simulator runs one task at a time and a suspended task has no frames on
the stack, so the stack's top is always the caller of the next wrapped
call — even when generator operations of many tasks interleave.

Hot per-cell and per-event functions only accumulate into their
:class:`Stat`; coarse boundaries (session ops, circuit builds, ntor
handshakes, attestation, admission) also record a span with a parent and
a per-session trace id.  Spans stay in memory until :meth:`write_spans`.
"""

from __future__ import annotations

import json
import sys
import time
from types import GeneratorType
from typing import Any, Callable, Optional


class Stat:
    """Accumulated cost of one layer function (or group of functions)."""

    __slots__ = ("calls", "self_s", "sim_s", "failed", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.sim_s = 0.0
        self.failed = 0
        self.units = 0


class Tracer:
    """Wrapper installer plus the frame stack and span store they share."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []
        self.sim: Any = None          # anything with ``.now``; set per run
        self._stack: list[list] = []  # [child_s, span-or-None] per frame
        self._patches: list[tuple[Any, str, Any]] = []
        self._t0 = clock()

    # -- stats and spans ---------------------------------------------------

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def reset(self) -> None:
        """Zero every stat in place (wrappers keep their stat objects)."""
        for stat in self.stats.values():
            stat.__init__()
        self.spans.clear()

    def _sim_now(self) -> Optional[float]:
        return self.sim.now if self.sim is not None else None

    def _open_span(self, name: str, trace_id: Any = None) -> list:
        parent = None
        for frame in reversed(self._stack):
            if frame[1] is not None:
                parent = frame[1]
                break
        if trace_id is None and parent is not None:
            trace_id = parent[3]
        span = [len(self.spans), name,
                parent[0] if parent is not None else None, trace_id,
                self.clock() - self._t0, None, self._sim_now(), None, None]
        self.spans.append(span)
        return span

    def _close_span(self, span: list, ok: bool) -> float:
        span[5] = self.clock() - self._t0
        end = self._sim_now()
        span[7] = end
        span[8] = ok
        if end is None or span[6] is None:
            return 0.0
        return end - span[6]

    # -- wrappers ----------------------------------------------------------

    def frame(self, fn: Callable, name: str, *, span: bool = False,
              units: Optional[Callable] = None,
              before: Optional[Callable] = None) -> Callable:
        """Wrap a plain function; see the module docstring.

        ``units(args, result, state)`` adds to the stat's unit count after
        a successful call, where ``state = before(args)`` was taken just
        before it (for counts only visible as a before/after difference).
        """
        stat = self.stat(name)
        stack = self._stack
        clock = self.clock
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, tracer._open_span(name) if span else None]
            state = before(args) if before is not None else None
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not ok:
                    stat.failed += 1
                if frame[1] is not None:
                    stat.sim_s += tracer._close_span(frame[1], ok)
            if units is not None:
                stat.units += units(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, fn: Callable, name: str, *,
           on_result: Optional[Callable] = None,
           on_error: Optional[Callable] = None) -> Callable:
        """Wrap a blocking generator operation; see the module docstring.

        ``on_result(result)`` / ``on_error(exc)`` run when the operation
        ends, for counts that depend on the outcome.
        """
        stat = self.stat(name)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stat.calls += 1
            record = tracer._open_span(name)
            frame = [0.0, record]
            try:
                gen = tracer._resume(frame, stat, lambda: fn(*args, **kwargs))
            except BaseException as error:
                tracer._end_op(stat, record, False, None, error, on_result,
                               on_error)
                raise
            if not isinstance(gen, GeneratorType):
                # Ran to completion inline (no actor to suspend on).
                tracer._end_op(stat, record, True, gen, None, on_result,
                               on_error)
                return gen
            return tracer._drive(gen, stat, frame, on_result, on_error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _resume(self, frame: list, stat: Stat, step: Callable) -> Any:
        """Run one slice of an op with ``frame`` on the stack."""
        stack = self._stack
        frame[0] = 0.0
        stack.append(frame)
        start = self.clock()
        try:
            return step()
        finally:
            elapsed = self.clock() - start
            stack.pop()
            stat.self_s += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    def _end_op(self, stat: Stat, record: list, ok: bool,
                result: Any, error: Optional[BaseException],
                on_result: Optional[Callable],
                on_error: Optional[Callable]) -> None:
        if not ok:
            stat.failed += 1
        stat.sim_s += self._close_span(record, ok)
        if ok and on_result is not None:
            on_result(result)
        if not ok and on_error is not None:
            on_error(error)

    def _drive(self, gen: GeneratorType, stat: Stat, frame: list,
               on_result: Optional[Callable],
               on_error: Optional[Callable]):
        """``yield from gen`` with every resume timed as a frame."""
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            try:
                if exc is not None:
                    error, exc = exc, None
                    request = self._resume(frame, stat,
                                           lambda: gen.throw(error))
                else:
                    sent, value = value, None
                    request = self._resume(frame, stat,
                                           lambda: gen.send(sent))
            except StopIteration as stop:
                self._end_op(stat, frame[1], True, stop.value, None,
                             on_result, on_error)
                return stop.value
            except BaseException as error:
                self._end_op(stat, frame[1], False, None, error,
                             on_result, on_error)
                raise
            try:
                value = yield request
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as error:  # noqa: BLE001 - rethrown into gen
                exc = error

    def session(self, gen: GeneratorType, trace_id: Any) -> GeneratorType:
        """Drive a benchmark session generator as the root span of a trace."""
        stat = self.stat("bench.session")
        stat.calls += 1
        record = self._open_span("bench.session", trace_id=trace_id)
        return self._drive(gen, stat, [0.0, record], None, None)

    # -- installation --------------------------------------------------------

    def patch(self, owner: Any, attr: str, wrapper_for: Callable) -> None:
        """Replace ``owner.attr`` (a class or module attribute).

        Staticmethods and classmethods are unwrapped, wrapped, and
        re-wrapped.  Module-level functions are also replaced under every
        name any loaded ``repro`` module imported them as, so call sites
        bound at import see the wrapper too.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(wrapper_for(raw.__func__))
        else:
            wrapped = wrapper_for(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, key, raw))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        keys = ("id", "name", "parent", "trace", "host_start_s",
                "host_end_s", "sim_start_s", "sim_end_s", "ok")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
