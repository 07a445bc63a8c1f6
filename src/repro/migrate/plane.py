"""Drain-then-migrate: moving a live function to another box.

The drain protocol (DESIGN.md §12):

1. **quiesce** — mark the instance draining.  Its ``recv()`` stays parked
   (new client messages queue in the inbox without waking it), so the
   function's state freezes at a message boundary.
2. **checkpoint** — snapshot state + files + queued inbox; inside a
   conclave, also seal the snapshot to local FS Protect (crash insurance
   with rollback detection).
3. **transfer** — pick a destination by serving-plane slack
   (:func:`repro.qos.placement.rank_boxes`), provision + load the same
   code there, and RESTORE over the (attested, end-to-end sealed when
   enclaved) session — adopting the source's token pair so every
   capability holder keeps working.
4. **cut over** — forward any messages that arrived mid-transfer, record
   a ``moved`` tombstone answering stale requests with the destination's
   fingerprint, and kill the local instance gracefully.  Clients chasing
   the tombstone see a bounded pause (retarget + reconnect), never an
   error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.migrate.checkpoint import (
    MigrationError,
    checkpoint_instance,
    store_local_checkpoint,
)
from repro.netsim.simulator import Actor, Sleep
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.perf.counters import counters as _perf


@dataclass(frozen=True)
class MigrationConfig:
    """Knobs for the migration plane (all deterministic)."""

    direct: bool = True            # dial destinations directly (own infra)
    quiesce_poll_s: float = 0.25   # how often to check for the recv() park
    quiesce_timeout_s: float = 60.0
    transfer_timeout_s: float = 240.0
    shed_by_migration: bool = True  # QoS hook: migrate bulk instead of refusing
    min_shed_interval_s: float = 60.0
    max_dest_attempts: int = 3


class MigrationPlane:
    """Per-server driver for drains and shed-by-migration."""

    def __init__(self, server, config: Optional[MigrationConfig] = None) -> None:
        self.server = server
        self.config = config or MigrationConfig()
        # A dedicated fork: plane-off runs never draw from it, so enabling
        # the plane cannot perturb the server's own randomness stream.
        self.rng = server.rng.fork("migrate")
        self._drain_ids = itertools.count(1)
        self._draining = 0
        self._last_shed_at: Optional[float] = None

    # -- draining ----------------------------------------------------------

    def drain(self, thread: Actor, instance,
              dest_fp: Optional[str] = None) -> Optional[str]:
        """Drain ``instance`` to another box; returns the destination
        fingerprint, or None if the drain failed (instance keeps running)."""
        return (yield from self._drain(thread, instance, dest_fp))

    def request_drain(self, instance, dest_fp: Optional[str] = None) -> None:
        """Fire-and-forget drain in its own actor (event-handler safe)."""
        def _actor(task):
            try:
                yield from self._drain(task, instance, dest_fp)
            except Exception:
                pass  # failures are already counted and spanned

        self.server.sim.spawn(
            _actor, name=f"drain:{self.server.relay.nickname}")

    def _drain(self, thread: Actor, instance, dest_fp: Optional[str]):
        server = self.server
        sim = server.sim
        started_at = sim.now
        _perf.migrations_started += 1
        _metrics.counter("migrations_started",
                         {"box": server.relay.nickname}).value += 1
        log = _obs.log
        span = log.begin_span(
            "migrate.drain", sim.now, track=server.relay.nickname,
            instance=instance.instance_id) if log is not None else None
        self._draining += 1

        def fail(why: str):
            _perf.migrations_failed += 1
            _metrics.counter("migrations_failed",
                             {"box": server.relay.nickname}).value += 1
            instance.draining = False
            self._draining -= 1
            if span is not None:
                span.end(sim.now, ok=False, error=why)
            return None

        if instance.terminated:
            return fail("instance already terminated")
        if instance.draining:
            return fail("already draining")
        if not instance.checkpointable:
            return fail("not checkpointable")
        runtime = instance.runtime

        # 1. Quiesce: freeze state at a message boundary.
        instance.draining = True
        deadline = sim.now + self.config.quiesce_timeout_s
        while (runtime.running and instance.api._recv_waiter is None
               and not instance.terminated):
            if sim.now >= deadline:
                return fail("quiesce timeout")
            yield Sleep(self.config.quiesce_poll_s)
        if instance.terminated:
            return fail("instance died while quiescing")

        # 2. Checkpoint (and persist sealed-at-rest inside a conclave).
        try:
            cp = checkpoint_instance(instance)
            if instance.conclave is not None:
                store_local_checkpoint(instance, cp)
        except MigrationError as exc:
            return fail(f"checkpoint failed: {exc}")
        shipped_inbox = len(cp.inbox)

        # 3. Transfer to a slack-rich destination.
        from repro.core.client import RETRYABLE_ERRORS, BentoClient
        from repro.qos.placement import rank_boxes

        drain_id = next(self._drain_ids)
        client = BentoClient(server.tor_client, server.ias,
                             rng=self.rng.fork(f"drain{drain_id}"))
        boxes = [b for b in client.discover_boxes()
                 if b.identity_fp != server.relay.fingerprint]
        if dest_fp is not None:
            boxes = [b for b in boxes if b.identity_fp == dest_fp]
        if not boxes:
            return fail("no destination box available")
        ranked = rank_boxes(boxes, server.directory.load_table())

        session = None
        dest = None
        for box in ranked[:self.config.max_dest_attempts]:
            try:
                session = yield from self._transfer(thread, client, box,
                                                    instance, cp)
            except RETRYABLE_ERRORS:
                session = None
            if session is not None:
                dest = box
                break
        if session is None:
            return fail("every destination attempt failed")

        # 4. Cut over: chase stragglers, tombstone, tear down locally.
        for payload, _peer in instance.api._inbox[shipped_inbox:]:
            session.send_message(payload)
        old = instance.tokens
        server._moved[old.invocation] = dest.identity_fp
        server._moved[old.shutdown] = dest.identity_fp
        # Tell every still-connected client where the function went *now*:
        # a parked next_output() raises FunctionMoved immediately and the
        # retry path retargets, instead of waiting out its own timeout.
        from repro.core import messages
        for peer in instance._peer_order:
            if not peer.closed:
                try:
                    peer.send_frame(messages.error_message(
                        "moved", detail="function migrated",
                        box_fp=dest.identity_fp))
                except Exception:
                    pass
        instance.kill("migrated", graceful=True)
        session.close()
        self._draining -= 1
        recovery_s = sim.now - started_at
        _perf.migrations_completed += 1
        _metrics.counter("migrations_completed",
                         {"box": server.relay.nickname}).value += 1
        _metrics.histogram("migration_recovery_s",
                           {"mode": "drain"}).observe(recovery_s)
        if span is not None:
            span.end(sim.now, ok=True, dest=dest.nickname,
                     recovery_s=recovery_s)
        return dest.identity_fp

    def _transfer(self, thread: Actor, client, box, instance, cp):
        """Provision + load + restore on one candidate box.

        Returns the (token-adopted) session, with the restored entry
        already running when the source was running.
        """
        timeout = self.config.transfer_timeout_s
        if self.config.direct:
            session = yield from client.connect_direct(thread, box,
                                                       timeout=timeout)
        else:
            session = yield from client.connect(thread, box, timeout=timeout)
        yield from session.request_image(thread, instance.image.name,
                                         timeout=timeout)
        yield from session.load_function(thread, instance.runtime.code,
                                         instance.manifest, timeout=timeout)
        yield from session.restore_function(
            thread, cp.to_wire(), start=instance.runtime.running,
            adopt_invocation=instance.tokens.invocation,
            adopt_shutdown=instance.tokens.shutdown, timeout=timeout)
        return session

    # -- QoS hook: shed by migrating, not refusing -------------------------

    def maybe_shed(self) -> bool:
        """Called by the serving plane on a shedding rising edge: move one
        bulk tenant to a slack-rich box instead of refusing work here.
        Rate-limited; returns True when a drain was kicked off."""
        if not self.config.shed_by_migration or self._draining:
            return False
        now = self.server.sim.now
        if (self._last_shed_at is not None
                and now - self._last_shed_at < self.config.min_shed_interval_s):
            return False
        victim = self._pick_shed_victim()
        if victim is None:
            return False
        self._last_shed_at = now
        log = _obs.log
        if log is not None:
            log.instant("migrate.shed", now,
                        track=self.server.relay.nickname,
                        instance=victim.instance_id)
        self.request_drain(victim)
        return True

    def _pick_shed_victim(self):
        """The migratable bulk instance with the smallest id (stable)."""
        candidates = []
        for instance in self.server._by_invocation.values():
            if instance.terminated or instance.draining:
                continue
            if not instance.checkpointable:
                continue
            manifest = instance.manifest
            if manifest is not None and getattr(manifest, "priority",
                                                "bulk") == "interactive":
                continue  # never shed interactive tenants by force
            candidates.append(instance)
        if not candidates:
            return None
        return min(candidates,
                   key=lambda i: (len(i.instance_id), i.instance_id))
