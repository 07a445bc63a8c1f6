"""The Tor client (onion proxy): builds circuits, opens streams, and runs
the client side of the hidden-service rendezvous protocol.

All public methods that involve network round trips take the calling
actor and block in simulated time.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.crypto.aead import AeadKey
from repro.netsim.connection import ConnectionClosed
from repro.netsim.network import Network, NetworkError
from repro.netsim.node import Node
from repro.netsim.simulator import Actor, Future, Sleep, SimTimeoutError, Wait
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.perf.counters import counters as _perf
from repro.tor import ntor
from repro.tor.cell import RelayCommand
from repro.tor.circuit import HS_CLIENT, Circuit, CircuitDestroyed
from repro.tor.descriptor import RelayDescriptor
from repro.tor.directory import Consensus, DirectoryAuthority
from repro.tor.layercrypto import HopCrypto
from repro.tor.path import PathSelector
from repro.tor.stream import TorStream
from repro.util.bytesutil import int_to_bytes
from repro.util.errors import ReproError
from repro.util.serialization import canonical_decode, canonical_encode


class TorError(ReproError):
    """Raised for circuit-construction and rendezvous failures."""


# Cached metric handles: one registry probe at import, an attribute add
# per observation afterwards (the registry resets these in place).
_HIST_CIRCUIT_BUILD = _metrics.histogram("circuit_build_s")
_HIST_HS_RENDEZVOUS = _metrics.histogram("hs_rendezvous_s")
_CTR_BUILD_OK = _metrics.counter("circuit_builds", {"outcome": "ok"})
_CTR_BUILD_FAIL = _metrics.counter("circuit_builds", {"outcome": "error"})
_HIT_CONSENSUS = _metrics.counter("cache_hits", {"layer": "consensus"})
_MISS_CONSENSUS = _metrics.counter("cache_misses", {"layer": "consensus"})
_HIT_DESCRIPTOR = _metrics.counter("cache_hits", {"layer": "descriptor"})
_MISS_DESCRIPTOR = _metrics.counter("cache_misses", {"layer": "descriptor"})


class TorClient:
    """An onion proxy bound to one simulator node."""

    #: How long (sim-seconds) a relay stays on the avoid list after a
    #: build failure implicated it.  Long enough to steer rebuilds away
    #: from a crashed relay, short enough that restarts become usable.
    FAILED_RELAY_TTL = 120.0

    def __init__(self, network: Network, node: Node,
                 directory: DirectoryAuthority,
                 fast_crypto: bool = False,
                 use_entry_guard: bool = False) -> None:
        self.network = network
        self.node = node
        self.sim = node.sim
        self.directory = directory
        self.fast_crypto = fast_crypto
        # Real Tor clients pin a long-lived entry guard; opt in for
        # experiments where the guard link is the observation point.
        self.use_entry_guard = use_entry_guard
        self._entry_guard: Optional[RelayDescriptor] = None
        self._rng = self.sim.rng.fork(f"torclient:{node.name}")
        # One long-lived stream for path selection: successive circuits
        # must draw *different* paths (a fresh fork per call would replay
        # the same choices every time).
        self._path_rng = self._rng.fork("paths")
        self._circ_ids = itertools.count(1)
        self.circuits: list[Circuit] = []
        # Relays implicated in recent build failures: fp -> sim time noted.
        self.failed_relays: dict[str, float] = {}
        # The last consensus object this client verified.  The authority
        # returns the same object until membership changes (a new epoch
        # produces a new object), so identity is the invalidation key.
        self._consensus_verified: Optional[Consensus] = None
        # onion address -> the descriptor object we last verified.  A
        # republished descriptor (service restart, version bump) is a new
        # object and re-verifies automatically.
        self._hs_desc_cache: dict[str, object] = {}

    # -- directory ---------------------------------------------------------

    def consensus(self):
        """Fetch and verify the current consensus.

        The signature check runs once per consensus *object*: relay churn
        makes the authority mint (and sign) a fresh consensus, which this
        client then re-verifies; between churn events every fetch is a
        cache hit.
        """
        consensus = self.directory.consensus(self.sim.now)
        if consensus is self._consensus_verified:
            _HIT_CONSENSUS.value += 1
            return consensus
        _MISS_CONSENSUS.value += 1
        if not consensus.verify(self.directory.public_key):
            raise TorError("consensus signature invalid")
        self._consensus_verified = consensus
        return consensus

    def path_selector(self) -> PathSelector:
        """A path selector over the verified consensus."""
        return PathSelector(self.consensus(), self._path_rng)

    # -- failure tracking --------------------------------------------------

    def note_relay_failure(self, identity_fp: str) -> None:
        """Record that a build failure implicated this relay; subsequent
        automatic path selection avoids it for :data:`FAILED_RELAY_TTL`."""
        self.failed_relays[identity_fp] = self.sim.now

    def avoided_relays(self) -> set[str]:
        """Fingerprints currently on the avoid list (expired entries pruned)."""
        horizon = self.sim.now - self.FAILED_RELAY_TTL
        expired = [fp for fp, t in self.failed_relays.items() if t <= horizon]
        for fp in expired:
            del self.failed_relays[fp]
        return set(self.failed_relays)

    # -- circuit construction ------------------------------------------------

    def build_circuit(self, thread: Actor,
                      path: Optional[list[RelayDescriptor]] = None,
                      length: int = 3,
                      exit_to: Optional[tuple[str, int]] = None,
                      final_hop: Optional[RelayDescriptor] = None,
                      timeout: float = 120.0) -> Circuit:
        """Build a circuit hop by hop (CREATE, then EXTENDs).

        Either supply an explicit ``path`` or let the bandwidth-weighted
        selector choose ``length`` relays, optionally constrained to exit
        toward ``exit_to`` or to end at ``final_hop``.  Automatic selection
        avoids relays recently implicated in build failures; a failed
        CREATE/EXTEND here adds the offending relay to that avoid list.
        """
        log = _obs.log
        span = log.begin_span(
            "tor.circuit_build", self.sim.now, track=self.node.name,
            client=self.node.name) if log is not None else None
        t0 = self.sim.now
        try:
            circuit = yield from self._build_circuit(
                thread, path=path, length=length, exit_to=exit_to,
                final_hop=final_hop, timeout=timeout)
        except BaseException as exc:
            _CTR_BUILD_FAIL.value += 1
            if span is not None:
                span.end(self.sim.now, ok=False, error=type(exc).__name__)
            raise
        _CTR_BUILD_OK.value += 1
        _HIST_CIRCUIT_BUILD.observe(self.sim.now - t0)
        if span is not None:
            span.end(self.sim.now, ok=True, circ_id=circuit.circ_id,
                     hops=len(circuit.path),
                     guard=circuit.path[0].nickname)
        return circuit

    def _build_circuit(self, thread: Actor,
                       path: Optional[list[RelayDescriptor]] = None,
                       length: int = 3,
                       exit_to: Optional[tuple[str, int]] = None,
                       final_hop: Optional[RelayDescriptor] = None,
                       timeout: float = 120.0) -> Circuit:
        if path is None:
            if exit_to is not None:
                exit_addr = self.network.resolve(exit_to[0])
                exit_to = (exit_addr, exit_to[1])
            selector = self.path_selector()
            exclude: set[str] = self.avoided_relays()
            if final_hop is not None:
                # A pinned target is the caller's explicit choice.
                exclude.discard(final_hop.identity_fp)
            sticky = None
            if self.use_entry_guard and length >= 2:
                sticky = self._sticky_guard(selector)
                if (final_hop is not None
                        and final_hop.identity_fp == sticky.identity_fp):
                    sticky = None     # the guard IS the target; rotate once
                else:
                    exclude.add(sticky.identity_fp)
            path = selector.build_path(
                length=length, exit_to=exit_to, final_hop=final_hop,
                exclude=exclude)
            if sticky is not None:
                path[0] = sticky
        if not path:
            raise TorError("empty circuit path")

        guard = path[0]
        try:
            conn = yield from self.network.connect_blocking(
                thread, self.node, guard.address, guard.or_port, timeout=timeout)
        except (NetworkError, SimTimeoutError):
            self.note_relay_failure(guard.identity_fp)
            raise
        circuit = Circuit(self, conn, next(self._circ_ids), path)
        circuit.attach_connection()

        # First hop: CREATE/CREATED.
        state = ntor.NtorClientState(
            self._rng.fork(f"ntor:{circuit.circ_id}:0"), guard.identity_fp)
        try:
            created = circuit.send_raw_create(state.onionskin)
            reply = yield Wait(created, timeout)
        except (SimTimeoutError, CircuitDestroyed):
            self.note_relay_failure(guard.identity_fp)
            circuit.close()
            raise
        circuit.add_hop(HopCrypto(state.finish(reply[:ntor.REPLY_LEN]),
                                  fast=self.fast_crypto))

        # Remaining hops: EXTEND/EXTENDED through the partial circuit.
        for position, relay in enumerate(path[1:], start=1):
            state = ntor.NtorClientState(
                self._rng.fork(f"ntor:{circuit.circ_id}:{position}"),
                relay.identity_fp)
            request = canonical_encode({
                "address": relay.address,
                "port": relay.or_port,
                "onionskin": state.onionskin,
            })
            try:
                extended = circuit.expect_control(RelayCommand.EXTENDED)
                failed = circuit.expect_control(RelayCommand.END)
                circuit.send_relay(RelayCommand.EXTEND, 0, request)
                # Wait on whichever control cell arrives first.
                race = Future(self.sim)
                extended.add_done_callback(
                    lambda fut: race.resolve(("extended", fut)) if not race.done else None)
                failed.add_done_callback(
                    lambda fut: race.resolve(("end", fut)) if not race.done else None)
                kind, fut = yield Wait(race, timeout)
                if kind == "end":
                    self.note_relay_failure(relay.identity_fp)
                    circuit.close()
                    raise TorError(f"extend to {relay.nickname} failed")
                info = fut.result()
            except (SimTimeoutError, CircuitDestroyed):
                # A dead hop (or a cut link to it) swallows the EXTEND or
                # kills the partial circuit; blame the hop being added.
                self.note_relay_failure(relay.identity_fp)
                circuit.close()
                raise
            circuit.add_hop(HopCrypto(
                state.finish(info["data"][:ntor.REPLY_LEN]),
                fast=self.fast_crypto))

        self.circuits.append(circuit)
        return circuit

    def build_circuit_with_retry(self, thread: Actor, attempts: int = 3,
                                 backoff_s: float = 1.0,
                                 timeout: float = 120.0,
                                 **kwargs) -> Circuit:
        """Build a circuit, retrying with seeded exponential backoff.

        Each retry re-runs path selection, which (via the avoid list fed
        by :meth:`build_circuit`) steers around relays implicated in the
        previous failures.  ``kwargs`` pass through to :meth:`build_circuit`.
        """
        last: Optional[BaseException] = None
        for attempt in range(attempts):
            try:
                circuit = yield from self.build_circuit(
                    thread, timeout=timeout, **kwargs)
            except (TorError, NetworkError, SimTimeoutError,
                    CircuitDestroyed) as exc:
                last = exc
                if attempt == attempts - 1:
                    break
                delay = backoff_s * (2 ** attempt) * (0.5 + self._rng.random())
                yield Sleep(delay)
                continue
            if attempt > 0:
                _perf.circuits_rebuilt += 1
            return circuit
        raise TorError(
            f"circuit build failed after {attempts} attempts: {last}") from last

    def _sticky_guard(self, selector: PathSelector) -> RelayDescriptor:
        """The client's persistent entry guard (re-chosen if it failed)."""
        if (self._entry_guard is not None
                and self._entry_guard.identity_fp in self.avoided_relays()):
            self._entry_guard = None
        if self._entry_guard is None:
            self._entry_guard = selector.pick_guard(
                exclude=self.avoided_relays())
        return self._entry_guard

    # -- streams --------------------------------------------------------------

    def open_stream(self, thread: Actor, circuit: Circuit, host: str,
                    port: int, timeout: float = 120.0) -> TorStream:
        """BEGIN a stream through an existing circuit."""
        return (yield from circuit.open_stream(thread, host, port,
                                               timeout=timeout))

    # -- hidden services: client side --------------------------------------------

    def connect_to_hidden_service(self, thread: Actor, onion_address: str,
                                  timeout: float = 240.0,
                                  intro_extra=None) -> Circuit:
        """The full client rendezvous dance (§2.1).

        Returns a circuit whose streams terminate at the hidden service.
        ``intro_extra`` rides (encrypted) inside the INTRODUCE payload —
        e.g. the proof-of-work the DDoS-defense function demands.  It may
        be a dict, or a callable ``f(cookie) -> dict`` for extras that
        must be bound to the rendezvous cookie (client puzzles).
        """
        log = _obs.log
        span = log.begin_span(
            "tor.hs_rendezvous", self.sim.now, track=self.node.name,
            client=self.node.name, onion=onion_address) \
            if log is not None else None
        t0 = self.sim.now
        try:
            circuit = yield from self._connect_to_hidden_service(
                thread, onion_address, timeout=timeout,
                intro_extra=intro_extra)
        except BaseException as exc:
            if span is not None:
                span.end(self.sim.now, ok=False, error=type(exc).__name__)
            raise
        _HIST_HS_RENDEZVOUS.observe(self.sim.now - t0)
        if span is not None:
            span.end(self.sim.now, ok=True, circ_id=circuit.circ_id)
        return circuit

    def _connect_to_hidden_service(self, thread: Actor,
                                   onion_address: str,
                                   timeout: float = 240.0,
                                   intro_extra=None) -> Circuit:
        descriptor = self.directory.fetch_hs_descriptor(onion_address)
        if self._hs_desc_cache.get(onion_address) is descriptor:
            _HIT_DESCRIPTOR.value += 1
        else:
            _MISS_DESCRIPTOR.value += 1
            if not descriptor.verify():
                raise TorError(
                    f"bad hidden-service descriptor for {onion_address}")
            self._hs_desc_cache[onion_address] = descriptor
        consensus = self.consensus()
        selector = self.path_selector()

        # 1. Establish a rendezvous point on a fresh circuit.
        rp = selector.pick_middle()
        rend_circuit = yield from self.build_circuit(thread, final_hop=rp,
                                                     timeout=timeout)
        cookie = self._rng.randbytes(20)
        established = rend_circuit.expect_control(
            RelayCommand.RENDEZVOUS_ESTABLISHED)
        rend_circuit.send_relay(RelayCommand.ESTABLISH_RENDEZVOUS, 0,
                                canonical_encode({"cookie": cookie}))
        try:
            yield Wait(established, timeout)
        except (SimTimeoutError, CircuitDestroyed):
            rend_circuit.close()
            raise

        # 2. Introduce ourselves via one of the service's intro points.
        # Prefer intro points we have not recently seen fail; when none
        # are known-bad this is the exact same draw as before.
        avoided = self.avoided_relays()
        intro_candidates = [fp for fp in descriptor.intro_points
                            if fp not in avoided] or descriptor.intro_points
        intro_fp = self._rng.choice(intro_candidates)
        intro_relay = consensus.find(intro_fp)
        try:
            intro_circuit = yield from self.build_circuit(
                thread, final_hop=intro_relay, timeout=timeout)
        except (TorError, NetworkError, SimTimeoutError, CircuitDestroyed):
            self.note_relay_failure(intro_fp)
            rend_circuit.close()
            raise
        hs_state = ntor.NtorClientState(
            self._rng.fork(f"hs:{onion_address}:{self.sim.now}"), onion_address)
        if callable(intro_extra):
            intro_extra = intro_extra(cookie)
        intro_payload = canonical_encode({
            "cookie": cookie,
            "rp_address": rp.address,
            "rp_port": rp.or_port,
            "onionskin": hs_state.onionskin,
            "extra": intro_extra or {},
        })
        # Encrypt the payload to the service key (hybrid RSA + AEAD).
        service_key = descriptor.service_key
        ephemeral = self._rng.randint(2, service_key.n - 2)
        sealed = AeadKey(int_to_bytes(ephemeral)).seal(b"intro", intro_payload)
        blob = canonical_encode({
            "c": int_to_bytes(service_key.encrypt_int(ephemeral)),
            "sealed": sealed,
        })
        ack = intro_circuit.expect_control(RelayCommand.INTRODUCE_ACK)
        try:
            intro_circuit.send_relay(RelayCommand.INTRODUCE1, 0,
                                     canonical_encode({
                                         "service": onion_address,
                                         "blob": blob,
                                     }))
            ack_info = yield Wait(ack, timeout)
        except (SimTimeoutError, CircuitDestroyed, ConnectionClosed):
            # The intro relay is up but the service's side of the intro
            # circuit is gone (e.g. the relay crashed and came back
            # empty): steer later attempts to a different intro point.
            self.note_relay_failure(intro_fp)
            intro_circuit.close()
            rend_circuit.close()
            raise
        status = canonical_decode(ack_info["data"]).get("status")
        intro_circuit.close()
        if status != "ok":
            rend_circuit.close()
            raise TorError(f"introduction failed: {status}")

        # 3. Wait for the service at the rendezvous point.
        try:
            rend2 = yield from rend_circuit.wait_control(
                thread, RelayCommand.RENDEZVOUS2, timeout=timeout)
        except (SimTimeoutError, CircuitDestroyed):
            rend_circuit.close()
            raise
        reply = canonical_decode(rend2["data"])["blob"]
        keys = hs_state.finish(reply[:ntor.REPLY_LEN])
        rend_circuit.attach_hs(HopCrypto(keys, fast=self.fast_crypto), HS_CLIENT)
        return rend_circuit

    # -- cover traffic --------------------------------------------------------------

    def send_drop(self, circuit: Circuit, hop_index: Optional[int] = None,
                  payload: bytes = b"") -> None:
        """Send one RELAY_DROP (padding) cell to a chosen hop."""
        circuit.send_relay(RelayCommand.DROP, 0, payload, hop_index=hop_index)

    # -- teardown ----------------------------------------------------------------------

    def close_all(self) -> None:
        """Destroy every circuit this client built."""
        for circuit in list(self.circuits):
            circuit.close()
        self.circuits.clear()
