"""The serving plane: admission → schedule → shed → place.

:class:`ServingPlane` sits between :class:`~repro.core.server.BentoServer`
and the sandbox/netsim layers and owns every quality-of-service decision
the box makes:

* ``REQUEST_IMAGE`` passes through **slot admission** (bounded queue,
  priority wake order, structured ``retry_after`` refusals) and — under
  shed pressure — a hashcash **client puzzle**;
* ``LOAD_FUNCTION`` **prices** the manifest's declared ask against a
  capacity ledger, atomically;
* running instances are **scheduled**: cpu milliseconds and network bytes
  drain through weighted-fair queues (interactive outweighs bulk) plus a
  per-flow token bucket, with pacing applied at the API gate — never on
  the per-byte transfer path;
* load is **advertised** through the directory after every admission
  change so slack-aware clients place new work on the emptiest box.

Everything is driven by simulated time and the server's forked RNG, so a
fixed seed replays bit-identically; with the plane absent (the default)
no code path below ever runs and behavior is byte-for-byte the same as
before this module existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import PuzzleRequired, ServerBusy
from repro.core.manifest import PRIORITY_CLASSES
from repro.functions.ddos_defense import AdmissionPuzzle
from repro.netsim.simulator import Actor, Sleep
from repro.obs.metrics import REGISTRY as _metrics
from repro.perf.counters import counters as _perf
from repro.qos.admission import AdmissionController
from repro.qos.scheduler import FairQueue, TokenBucket
from repro.qos.shedding import LoadShedder

#: Fair-share weights per priority class (interactive : bulk = 4 : 1).
CLASS_WEIGHTS = {"interactive": 4.0, "bulk": 1.0}


@dataclass(frozen=True)
class QosConfig:
    """Knobs for one box's serving plane.

    ``slots`` defaults to the node policy's ``max_containers``;
    memory/disk capacity default to the policy totals.  Rates are per
    simulated second.
    """

    slots: Optional[int] = None
    queue_depth: int = 8
    queue_timeout_s: float = 60.0
    base_retry_after_s: float = 2.0
    cpu_rate_ms: float = 4000.0          # shared cpu-ms drained per second
    cpu_burst_ms: float = 50.0           # per-flow call budget before pacing
    net_rate_bytes: float = 4 * 1024 * 1024  # shared egress bytes per second
    net_burst_bytes: float = 256 * 1024  # per-charge allowance before pacing
    client_net_rate: Optional[float] = None  # per-flow token-bucket cap
    shed_high_watermark: float = 0.75
    shed_low_watermark: float = 0.25
    puzzle_difficulty: int = 8           # 0 disables admission puzzles
    advertise: bool = True               # publish load via the directory


class ServingPlane:
    """One box's admission controller, fair scheduler, and load shedder."""

    def __init__(self, server, config: Optional[QosConfig] = None) -> None:
        self.server = server
        self.config = config or QosConfig()
        policy = server.policy
        slots = self.config.slots or policy.max_containers
        self.admission = AdmissionController(
            server.sim, slots=slots,
            queue_depth=self.config.queue_depth,
            queue_timeout_s=self.config.queue_timeout_s,
            base_retry_after_s=self.config.base_retry_after_s,
            capacity_memory=policy.max_total_memory,
            capacity_disk=policy.max_total_disk,
            on_evict=self._count_shed)
        self.shedder = LoadShedder(
            high_watermark=self.config.shed_high_watermark,
            low_watermark=self.config.shed_low_watermark,
            puzzle_difficulty=self.config.puzzle_difficulty)
        self.cpu_queue = FairQueue(rate=self.config.cpu_rate_ms,
                                   burst=self.config.cpu_burst_ms)
        self.net_queue = FairQueue(rate=self.config.net_rate_bytes,
                                   burst=self.config.net_burst_bytes)
        # The plane's own RNG fork: puzzle challenges draw from here, so
        # enabling the plane never perturbs the server's other streams.
        self.rng = server.rng.fork("qos")
        self._puzzles: dict = {}         # connection -> outstanding puzzle
        self._buckets: dict = {}         # flow key -> per-client TokenBucket
        self._key_seq = 0                # admission keys, unique per plane
        nick = server.relay.nickname
        self._m_admitted = _metrics.counter("qos_admitted", {"box": nick})
        self._m_rejected = _metrics.counter("qos_rejected", {"box": nick})
        self._m_shed = _metrics.counter("qos_shed", {"box": nick})
        self._m_queue_depth = _metrics.gauge("qos_queue_depth", {"box": nick})
        self._m_slots_free = _metrics.gauge("qos_slots_free", {"box": nick})
        self._h_wait = {
            cls: _metrics.histogram("qos_queue_wait_s", {"class": cls})
            for cls in PRIORITY_CLASSES}
        self._advertise()   # make the box discoverable as idle from birth

    # -- admission ---------------------------------------------------------

    def admit_request(self, thread: Actor, conn, message: dict) -> object:
        """Gate one ``request_image``; returns the admission key.

        The caller must hand the key to :meth:`attach_instance` once the
        container exists, or :meth:`release` it if setup fails.  Raises
        :class:`ServerBusy` or :class:`PuzzleRequired`.
        """
        priority = message.get("priority", "bulk")
        if priority not in PRIORITY_CLASSES:
            priority = "bulk"
        self._require_puzzle(conn, message)
        if self.shedder.refuses(priority):
            self._count_shed()
            self._m_rejected.value += 1
            _perf.qos_rejected += 1
            self._advertise()
            raise ServerBusy("shedding load: bulk admissions suspended",
                             retry_after=self.admission.retry_after())
        self._key_seq += 1
        key = ("adm", self._key_seq)
        try:
            waited = yield from self.admission.admit(thread, key, priority)
        except ServerBusy:
            self._m_rejected.value += 1
            _perf.qos_rejected += 1
            self._after_queue_change()
            raise
        self._h_wait[priority].observe(waited)
        self._m_admitted.value += 1
        _perf.qos_admitted += 1
        self._after_queue_change()
        return key

    def attach_instance(self, key: object, instance) -> None:
        """Bind an admission slot to the instance it produced."""
        instance.qos_key = key

    def release(self, key: object) -> None:
        """Free a slot (instance died, or setup failed before one existed).

        Any waiter the freed slot wakes resumes inside its own
        :meth:`admit_request` call, which does that request's accounting
        — nothing to count here beyond the queue-state refresh.
        """
        self.admission.release(key)
        self.admission.unprice(key)
        self.cpu_queue.unregister(key, self.server.sim.now)
        self.net_queue.unregister(key, self.server.sim.now)
        self._buckets.pop(key, None)
        self._after_queue_change()

    def price_manifest(self, instance, manifest) -> None:
        """Reserve the manifest's declared ask; register its flows."""
        key = getattr(instance, "qos_key", None)
        if key is None:
            return
        try:
            self.admission.price(key, manifest)
        except ServerBusy:
            self._m_rejected.value += 1
            _perf.qos_rejected += 1
            raise
        now = self.server.sim.now
        weight = CLASS_WEIGHTS.get(manifest.priority, 1.0)
        self.cpu_queue.register(key, weight, now)
        self.net_queue.register(key, weight, now)
        if self.config.client_net_rate:
            self._buckets[key] = TokenBucket(self.config.client_net_rate)
        self._advertise()

    # -- puzzles -----------------------------------------------------------

    def _require_puzzle(self, conn, message: dict) -> None:
        """Demand (and verify) a proof of work while shedding."""
        if not self.shedder.demands_puzzle():
            return
        outstanding = self._puzzles.get(conn)
        if outstanding is not None:
            challenge = bytes.fromhex(str(message.get("pow_challenge", "")))
            nonce = message.get("pow_nonce")
            if isinstance(nonce, int) and outstanding.check(challenge, nonce):
                del self._puzzles[conn]
                return
        puzzle = AdmissionPuzzle.issue(self.rng,
                                       self.shedder.puzzle_difficulty)
        self._puzzles[conn] = puzzle
        self._m_rejected.value += 1
        _perf.qos_rejected += 1
        raise PuzzleRequired("admission requires proof of work",
                             challenge=puzzle.challenge,
                             difficulty=puzzle.difficulty_bits)

    # -- scheduling --------------------------------------------------------

    def charge_cpu(self, thread: Optional[Actor], instance,
                   cost_ms: float) -> None:
        """Meter cpu milliseconds; sleep out any fair-share pacing delay."""
        key = getattr(instance, "qos_key", None)
        if key is None or cost_ms <= 0:
            return
        delay = self.cpu_queue.charge(key, cost_ms, self.server.sim.now)
        yield from self._pace(thread, delay)

    def charge_net(self, thread: Optional[Actor], instance,
                   nbytes: int) -> None:
        """Meter egress/ingress bytes through the fair queue + bucket."""
        key = getattr(instance, "qos_key", None)
        if key is None or nbytes <= 0:
            return
        now = self.server.sim.now
        delay = self.net_queue.charge(key, float(nbytes), now)
        bucket = self._buckets.get(key)
        if bucket is not None:
            delay = max(delay, bucket.reserve(float(nbytes), now))
        yield from self._pace(thread, delay)

    def _pace(self, thread: Optional[Actor], delay: float):
        if delay > 0 and thread is not None:
            _perf.qos_throttles += 1
            yield Sleep(delay)

    # -- shedding & advertisement ------------------------------------------

    def _count_shed(self, _waiter=None) -> None:
        self._m_shed.value += 1
        _perf.qos_shed += 1

    def _after_queue_change(self) -> None:
        """Re-evaluate shed state and re-advertise after any transition."""
        was_shedding = self.shedder.shedding
        self.shedder.update(self.admission.queue_len,
                            self.admission.queue_depth)
        if (self.shedder.shedding and not was_shedding
                and getattr(self.server, "migrate", None) is not None):
            # Shedding just engaged: with the migration plane on, try to
            # *move* a bulk tenant to a slack-rich box instead of only
            # refusing new work here.
            self.server.migrate.maybe_shed()
        self._m_queue_depth.set(self.admission.queue_len)
        self._m_slots_free.set(self.admission.slots_free)
        self._advertise()

    def load_report(self) -> dict:
        """What this box tells the directory about itself."""
        return {
            "slots_free": self.admission.slots_free,
            "slots": self.admission.slots,
            "queue_len": self.admission.queue_len,
            "queue_depth": self.admission.queue_depth,
            "shedding": self.shedder.shedding,
            "mem_free": self.admission.ledger.headroom("memory"),
            "asof": self.server.sim.now,
        }

    def _advertise(self) -> None:
        if not self.config.advertise:
            return
        self.server.directory.advertise_load(
            self.server.relay.fingerprint, self.load_report())
