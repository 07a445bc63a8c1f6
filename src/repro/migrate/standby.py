"""Warm standbys: periodic checkpoint shipping with bounded state lag.

A :class:`WarmStandby` is a pre-provisioned clone of a primary function
on another box: same code, same manifest, state refreshed by shipping
checkpoints every ``max_state_lag_s``.  On primary crash the owner (or
the chaos plane's recovery path) **promotes** the standby — it starts
running from the last shipped state immediately, skipping provisioning,
code upload, and state rebuild, which is exactly the recovery-time gap
``bench_migrate.py`` measures against cold respawn.

The shipped state is at most ``max_state_lag_s`` old (plus transfer
time): that is the durability contract, and :meth:`state_lag_s` exposes
the instantaneous lag for monitoring.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import BentoError
from repro.netsim.simulator import Actor, Sleep
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.perf.counters import counters as _perf


class WarmStandby:
    """One standby replica of a checkpointable function."""

    def __init__(self, client, code: str, manifest,
                 max_state_lag_s: float = 30.0, direct: bool = True) -> None:
        self.client = client
        self.code = code
        self.manifest = manifest
        self.max_state_lag_s = max_state_lag_s
        self.direct = direct
        self.session = None
        self.seq = 0
        self.last_sync_at: Optional[float] = None
        self.promoted = False

    def provision(self, thread: Actor, exclude: tuple = (),
                  timeout: float = 240.0) -> str:
        """Stand the clone up on a slack-rich box (excluding the primary's);
        returns the standby box's fingerprint."""
        box = self.client.pick_box_by_slack(exclude=tuple(exclude))
        if self.direct:
            self.session = yield from self.client.connect_direct(
                thread, box, timeout=timeout)
        else:
            self.session = yield from self.client.connect(thread, box,
                                                          timeout=timeout)
        yield from self.session.request_image(thread, self.manifest.image,
                                              timeout=timeout)
        yield from self.session.load_function(thread, self.code,
                                              self.manifest, timeout=timeout)
        log = _obs.log
        if log is not None:
            log.instant("migrate.standby_up", self.client.sim.now,
                        track=self.client.tor.node.name, box=box.nickname)
        return box.identity_fp

    def sync(self, thread: Actor, primary_session,
             timeout: float = 240.0) -> int:
        """Ship one checkpoint from the primary; returns the new seq."""
        if self.session is None:
            raise BentoError("standby not provisioned")
        cp_wire = yield from primary_session.checkpoint_function(
            thread, seq=self.seq + 1, timeout=timeout)
        yield from self.session.restore_function(thread, cp_wire,
                                                 start=False, timeout=timeout)
        self.seq = int(cp_wire.get("seq", self.seq + 1))
        self.last_sync_at = self.client.sim.now
        return self.seq

    def promote(self, thread: Actor,
                adopt_invocation: Optional[str] = None,
                adopt_shutdown: Optional[str] = None,
                timeout: float = 240.0):
        """The primary is gone: start the standby from its staged state.

        Optionally adopts the dead primary's token pair so capability
        holders keep working.  Returns the standby's (now primary)
        session.
        """
        if self.session is None:
            raise BentoError("standby not provisioned")
        if self.last_sync_at is None:
            raise BentoError("standby never synced; nothing to promote")
        yield from self.session.restore_function(
            thread, None, start=True,
            adopt_invocation=adopt_invocation,
            adopt_shutdown=adopt_shutdown, timeout=timeout)
        self.promoted = True
        _perf.standby_promotions += 1
        _metrics.counter("standby_promotions").value += 1
        log = _obs.log
        if log is not None:
            log.instant("migrate.standby_promoted", self.client.sim.now,
                        track=self.client.tor.node.name,
                        lag_s=self.state_lag_s(self.client.sim.now))
        return self.session

    def state_lag_s(self, now: float) -> float:
        """How stale the standby's state is right now."""
        if self.last_sync_at is None:
            return float("inf")
        return max(0.0, now - self.last_sync_at)

    def run(self, thread: Actor, primary_session) -> None:
        """Ship checkpoints every ``max_state_lag_s`` until promotion or a
        primary failure (which ends the loop; the owner then promotes)."""
        while not self.promoted:
            yield Sleep(self.max_state_lag_s)
            if self.promoted:
                break
            try:
                yield from self.sync(thread, primary_session)
            except Exception:
                break  # primary unreachable: stop shipping, await promote
