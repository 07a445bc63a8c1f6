"""Admission control: price work before it touches a container.

Two gates, matching the two points where a Bento request commits server
resources:

* **Slot admission** (at ``request_image``): caps how many containers run
  concurrently.  When all slots are busy the request parks in a bounded,
  priority-ordered queue; when the queue is full the request is refused
  with a structured ``retry_after`` the client's retry loop honors.  An
  interactive arrival finding the queue full may evict the youngest
  queued bulk entry instead of being turned away.

* **Manifest pricing** (at ``load_function``): charges the manifest's
  declared memory/disk ask against a ledger cgroup sized to the box's
  capacity, atomically via :meth:`~repro.sandbox.cgroups.CGroup.charge_many`
  — either the whole ask is reserved or none of it is.

The ledger is a *standalone* cgroup, deliberately not parented under the
server's root group: the real per-container charges still land on the
real hierarchy downstream, and parenting the ledger there would count
every byte twice.  The ledger is the promise; the container cgroup is
the fulfilment.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import ServerBusy
from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor, Future, SimTimeoutError, Wait
from repro.sandbox.cgroups import CGroup, ResourceExceeded


class _Waiter:
    """One parked slot request."""

    __slots__ = ("key", "priority", "seq", "future", "enqueued_at")

    def __init__(self, key: object, priority: str, seq: int,
                 future: Future, enqueued_at: float) -> None:
        self.key = key
        self.priority = priority
        self.seq = seq
        self.future = future
        self.enqueued_at = enqueued_at


class AdmissionController:
    """Slots, a bounded priority queue, and the resource ledger."""

    def __init__(self, sim, slots: int, queue_depth: int,
                 queue_timeout_s: float, base_retry_after_s: float,
                 capacity_memory: int, capacity_disk: int,
                 on_evict=None) -> None:
        if slots <= 0:
            raise ValueError("admission needs at least one slot")
        self._sim = sim
        self._on_evict = on_evict
        self.slots = slots
        self.queue_depth = queue_depth
        self.queue_timeout_s = queue_timeout_s
        self.base_retry_after_s = base_retry_after_s
        self.ledger = CGroup("qos-ledger", memory=capacity_memory,
                             disk=capacity_disk)
        self._held: set = set()              # keys holding a slot
        self._priced: dict = {}              # key -> charges dict on ledger
        self._queue: list[_Waiter] = []      # kept in wake order
        self._seq = 0

    # -- introspection ------------------------------------------------------

    @property
    def slots_free(self) -> int:
        """Slots not currently held by an admitted request."""
        return max(0, self.slots - len(self._held))

    @property
    def queue_len(self) -> int:
        """How many requests are parked waiting for a slot."""
        return len(self._queue)

    def retry_after(self) -> float:
        """The backoff hint for a refused request.

        Scales with how oversubscribed the box is: an empty queue quotes
        the base interval, a deep queue quotes proportionally more, so
        rejected clients spread their retries instead of stampeding.
        """
        return self.base_retry_after_s * (
            1.0 + len(self._queue) / max(1, self.slots))

    # -- slot admission -----------------------------------------------------

    def _wake_rank(self, waiter: _Waiter) -> tuple:
        # Interactive wakes before bulk; FIFO within a class.
        return (0 if waiter.priority == "interactive" else 1, waiter.seq)

    def try_admit(self, key: object) -> bool:
        """Take a slot if one is free right now (no queueing)."""
        if len(self._held) >= self.slots:
            return False
        self._held.add(key)
        return True

    def admit(self, thread: Actor, key: object,
              priority: str = "bulk") -> float:
        """Block until ``key`` holds a slot; returns the queued duration.

        Raises :class:`ServerBusy` (with ``retry_after``) when the queue
        is full or the wait times out.  The caller owns the slot until it
        calls :meth:`release`.
        """
        if self.try_admit(key):
            return 0.0
        if len(self._queue) >= self.queue_depth:
            evicted = self._evict_for(priority)
            if evicted is None:
                raise ServerBusy("admission queue full",
                                 retry_after=self.retry_after())
        waiter = _Waiter(key, priority, self._seq, Future(self._sim),
                         self._sim.now)
        self._seq += 1
        self._queue.append(waiter)
        self._queue.sort(key=self._wake_rank)
        try:
            yield Wait(waiter.future, self.queue_timeout_s)
        except SimTimeoutError:
            if waiter in self._queue:
                self._queue.remove(waiter)
            raise ServerBusy("timed out waiting for an admission slot",
                             retry_after=self.retry_after()) from None
        return self._sim.now - waiter.enqueued_at

    def _evict_for(self, priority: str) -> Optional[_Waiter]:
        """Make room for an interactive arrival by shedding queued bulk.

        Returns the evicted waiter (its future is rejected with a
        ``retry_after``), or None when nothing may be evicted — the queue
        is all-interactive, or the arrival is itself bulk.
        """
        if priority != "interactive":
            return None
        bulk = [w for w in self._queue if w.priority != "interactive"]
        if not bulk:
            return None
        victim = max(bulk, key=lambda w: w.seq)   # youngest bulk entry
        self._queue.remove(victim)
        victim.future.reject(ServerBusy(
            "displaced from admission queue by interactive work",
            retry_after=self.retry_after()))
        if self._on_evict is not None:
            self._on_evict(victim)
        return victim

    def release(self, key: object) -> Optional[_Waiter]:
        """Free ``key``'s slot and hand it to the best queued waiter.

        The slot transfers directly to the woken waiter (it is marked
        held *before* the future resolves), so a burst of simultaneous
        releases can never over-admit.  Returns the woken waiter, if any.
        """
        self._held.discard(key)
        self.unprice(key)
        while self._queue and len(self._held) < self.slots:
            waiter = self._queue.pop(0)
            if waiter.future.done:
                continue        # timed out or evicted in the same instant
            self._held.add(waiter.key)
            waiter.future.resolve(None)
            return waiter
        return None

    def holds_slot(self, key: object) -> bool:
        """Whether ``key`` currently holds an admission slot."""
        return key in self._held

    # -- manifest pricing ---------------------------------------------------

    def price(self, key: object, manifest: FunctionManifest) -> None:
        """Reserve the manifest's declared ask on the ledger, atomically.

        Raises :class:`ServerBusy` when the box cannot honor the ask
        right now (the reservation would overcommit capacity).  Repricing
        the same key (function reload on one instance) releases the old
        reservation first.
        """
        self.unprice(key)
        charges = {"memory": manifest.memory_bytes,
                   "disk": manifest.disk_bytes}
        try:
            self.ledger.charge_many(charges)
        except ResourceExceeded as exc:
            raise ServerBusy(
                f"capacity exhausted: {exc.resource} ask of {exc.requested} "
                f"exceeds remaining headroom",
                retry_after=self.retry_after()) from exc
        self._priced[key] = charges

    def unprice(self, key: object) -> None:
        """Return a key's priced reservation to the ledger, if any."""
        charges = self._priced.pop(key, None)
        if charges:
            for resource, amount in charges.items():
                if amount:
                    self.ledger.charge(resource, -amount)
