"""The Bento server (§5.2).

Runs beside an unmodified Tor relay as a separate service on its own port.
Spawns one container per client function, mediates every resource the
function touches, issues invocation/shutdown tokens, and (for the SGX
image) hosts the function inside a conclave with stapled remote
attestation.

Clients reach the server through Tor: a circuit whose final hop is the
companion relay, then a stream to the relay's own address on the Bento
port (the "localhost" exception), or — via
:meth:`BentoServer.serve_via_hidden_service` — as a hidden service.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core import messages
from repro.core.api import FunctionApi
from repro.core.errors import (
    BentoError,
    FunctionCrashed,
    FunctionMoved,
    ImageUnavailable,
    ManifestRejected,
    PuzzleRequired,
    ServerBusy,
    TokenInvalid,
)
from repro.core.images import ContainerImage, image_by_name
from repro.core.loader import FunctionRuntime, LoaderError
from repro.core.manifest import FunctionManifest
from repro.core.policy import MiddleboxNodePolicy
from repro.core.tokens import TokenIssuer, TokenPair
from repro.enclave.attestation import IntelAttestationService
from repro.enclave.conclave import Conclave
from repro.enclave.sgx import EnclaveHost
from repro.netsim.bytestream import DirectByteStream, FramedStream
from repro.netsim.connection import Connection
from repro.netsim.simulator import Actor, Sleep
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.perf.counters import counters as _perf
from repro.sandbox.cgroups import CGroup, ResourceExceeded
from repro.sandbox.container import Container
from repro.sandbox.iptables import IptablesRuleset
from repro.sandbox.memfs import MemFS
from repro.sandbox.seccomp import SeccompPolicy
from repro.stemlib.controller import Controller
from repro.stemlib.firewall import StemFirewall
from repro.tor.client import TorClient
from repro.tor.descriptor import BENTO_PORT
from repro.tor.directory import DirectoryAuthority
from repro.tor.relay import Relay
from repro.util.errors import ProtocolError
from repro.util.serialization import canonical_encode

# Cached registry handles (the registry resets values in place).
_HIT_IMAGE = _metrics.counter("cache_hits", {"layer": "image"})
_MISS_IMAGE = _metrics.counter("cache_misses", {"layer": "image"})
_HIT_POLICY = _metrics.counter("cache_hits", {"layer": "policy"})
_MISS_POLICY = _metrics.counter("cache_misses", {"layer": "policy"})
# bento_requests handles by message type, filled on first dispatch of each
# type — the per-frame hot path skips the registry's label interning.
_REQ_COUNTERS: dict = {}


class FunctionInstance:
    """One loaded function: container + (optional) conclave + runtime."""

    def __init__(self, server: "BentoServer", image: ContainerImage,
                 container: Container, conclave: Optional[Conclave],
                 tokens: TokenPair) -> None:
        self.server = server
        # Numbered per server, not via a class-level counter: the id seeds
        # this instance's RNG fork, and a process-global counter would
        # make a second same-seed run draw different randomness.
        self.instance_id = f"fn-{next(server._instance_ids)}"
        self.image = image
        self.container = container
        self.conclave = conclave
        self.tokens = tokens
        self.manifest: Optional[FunctionManifest] = None
        self.runtime: Optional[FunctionRuntime] = None
        self.firewall: Optional[StemFirewall] = None
        self.api = FunctionApi(self)
        self.rng = server.rng.fork(self.instance_id)
        self.logs: list[str] = []
        self.terminated = False
        self.qos_key = None     # admission slot, set by the serving plane
        # Set by the migration plane while this instance quiesces: recv()
        # stays parked and the inbox accumulates until the drain resolves.
        self.draining = False
        # Client transports that have referenced this instance, and the
        # last time one did — the inputs to orphan reaping.  ``peers`` is
        # a set (membership checks); ``_peer_order`` remembers arrival
        # order so a drain flush can pick the newest live transport
        # deterministically.
        self.peers: set[FramedStream] = set()
        self._peer_order: list[FramedStream] = []
        self.last_activity: float = server.sim.now

    def note_peer(self, peer: FramedStream) -> None:
        """Record a client transport touching this instance."""
        if peer not in self.peers:
            self._peer_order.append(peer)
        self.peers.add(peer)
        self.last_activity = self.server.sim.now

    @property
    def orphaned(self) -> bool:
        """True when every client transport that ever touched this
        instance has died and no invocation is running."""
        if not self.peers:
            return False
        if any(not peer.closed for peer in self.peers):
            return False
        return self.runtime is None or not self.runtime.running

    @property
    def checkpointable(self) -> bool:
        """Does the loaded function implement the checkpoint protocol?"""
        return self.runtime is not None and self.runtime.checkpointable

    # -- lifecycle -------------------------------------------------------

    def load(self, code: str, manifest: FunctionManifest) -> None:
        """Accept a function after the policy check has passed."""
        self.manifest = manifest
        self.container.charge_memory(manifest.memory_bytes)
        if self.conclave is not None:
            self.conclave.enclave.grow(manifest.memory_bytes)
        stem_grant = frozenset(
            call[len("stem."):] for call in manifest.api_calls
            if call.startswith("stem."))
        self.firewall = StemFirewall(self.server.controller, self.instance_id,
                                     stem_grant)
        self.runtime = FunctionRuntime(self, code, manifest)
        self.runtime.load()

    def invoke(self, args: list, peer: FramedStream) -> None:
        """Start the entry function for one invocation."""
        if self.terminated:
            raise TokenInvalid("function already shut down")
        if self.runtime is None:
            raise BentoError("no function loaded")
        if self.runtime.running:
            # A second invoke while running becomes an in-band message.
            self.api._push_message(canonical_encode({"args": args}), peer)
            return
        self.runtime.start(args, peer)

    def deliver(self, payload: bytes, peer: FramedStream) -> None:
        """Route an in-band client message to the function's inbox."""
        if self.terminated:
            raise TokenInvalid("function already shut down")
        self.api._push_message(payload, peer)

    def on_done(self, result, peer: FramedStream) -> None:
        """The entry function returned; report its result to the client."""
        try:
            canonical_encode(result)
            wire_result = result
        except Exception:
            wire_result = repr(result)
        self._safe_send(peer, messages.encode_message(
            messages.DONE, result=wire_result))

    def on_error(self, error: FunctionCrashed, peer: FramedStream) -> None:
        """The entry function crashed; report it to the client."""
        self._safe_send(peer, messages.error_message(
            "function-crashed", detail=str(error)))

    def _safe_send(self, peer: FramedStream, frame: bytes) -> None:
        try:
            peer.send_frame(frame)
        except Exception:
            pass  # the client has gone; fate-sharing is explicit in §5.3

    def kill(self, reason: str, graceful: bool = True) -> None:
        """Terminate (sandbox violation, resource overrun, or shutdown).

        ``graceful=False`` models a host crash: only local state is torn
        down.  A dead box cannot send DESTROY cells or withdraw directory
        entries — its circuits die with its connections, and any
        descriptor it published stays up until it expires or is
        republished (clients must survive the stale entry).
        """
        if self.terminated:
            return
        self.terminated = True
        if graceful and self.api._undelivered:
            # Drain flush: outputs that missed a dead transport get one
            # last chance on the newest live client connection before the
            # function is torn down.
            peer = next((p for p in reversed(self._peer_order)
                         if not p.closed), None)
            if peer is not None:
                self.api._flush_undelivered(peer)
        log = _obs.log
        if log is not None:
            log.instant("core.instance_kill", self.server.sim.now,
                        track=self.server.relay.nickname,
                        instance=self.instance_id, reason=reason,
                        graceful=graceful)
        self.api._kill(reason)
        if self.firewall is not None and graceful:
            self.firewall.release_all()
        if self.conclave is not None:
            self.conclave.terminate()
        self.container.kill(reason)
        self.server._forget(self)

    @property
    def memory_footprint(self) -> int:
        """Total memory charged for this function (§7.3's metric)."""
        return self.container.memory_used


class BentoServer:
    """The middlebox service co-resident with a Tor relay."""

    def __init__(self, relay: Relay, directory: DirectoryAuthority,
                 policy: Optional[MiddleboxNodePolicy] = None,
                 ias: Optional[IntelAttestationService] = None,
                 enclave_host: Optional[EnclaveHost] = None,
                 port: int = BENTO_PORT,
                 orphan_grace_s: Optional[float] = None,
                 qos=None, migrate=None) -> None:
        self.relay = relay
        self.node = relay.node
        self.sim = relay.sim
        self.network = relay.network
        self.directory = directory
        self.port = port
        self.policy = policy or MiddleboxNodePolicy.open_policy()
        self.ias = ias
        self.rng = self.sim.rng.fork(f"bento:{relay.nickname}")
        if ias is not None and enclave_host is None:
            enclave_host = EnclaveHost(self.sim, ias,
                                       rng=self.rng.fork("sgx-host"))
        self.enclave_host = enclave_host
        self.host_fs = MemFS()
        self.root_cgroup = CGroup(
            f"bento:{relay.nickname}",
            memory=self.policy.max_total_memory,
            disk=self.policy.max_total_disk)
        self.tor_client = TorClient(self.network, self.node, directory,
                                    fast_crypto=relay.fast_crypto)
        self.controller = Controller(self.tor_client)
        self._tokens = TokenIssuer(seed=f"{relay.nickname}:{relay.fingerprint}")
        self._by_invocation: dict[str, FunctionInstance] = {}
        self._by_shutdown: dict[str, FunctionInstance] = {}
        self._container_ids = itertools.count(1)
        self._instance_ids = itertools.count(1)
        self.onion_address: Optional[str] = None
        # Orphan reaping is opt-in: with a grace period set, instances
        # whose every client transport has died (and which are not mid-
        # invocation) are killed that many seconds after the last peer
        # drops.  Default None preserves pure §5.3 box fate-sharing.
        self.orphan_grace_s = orphan_grace_s
        # Control-plane caches.  Both hold only policy-derived verdicts
        # (the operator's offered-image check; manifest accept/reject),
        # so the only thing that can stale them is this box losing state
        # — hence both are dropped on crash along with the functions.
        self._image_cache: dict[str, ContainerImage] = {}
        self._manifest_cache: dict[bytes, FunctionManifest] = {}
        # The serving plane is opt-in: pass a QosConfig to enable
        # admission control, fair scheduling, and load shedding.  With
        # qos=None (the default) no plane code runs at all, so existing
        # fixed-seed runs replay bit-identically.  Imported lazily —
        # repro.qos pulls in repro.core submodules, and a top-level
        # import here would cycle through the package __init__.
        if qos is not None:
            from repro.qos import QosConfig, ServingPlane
            if not isinstance(qos, ServingPlane):
                config = qos if isinstance(qos, QosConfig) else QosConfig()
                qos = ServingPlane(self, config)
        self.qos = qos
        # The migration plane is equally opt-in (and equally lazily
        # imported): pass a MigrationConfig (or a ready plane) to enable
        # drain-then-migrate and sealed checkpoint/restore.  migrate=None
        # keeps fixed-seed default runs bit-identical.
        if migrate is not None:
            from repro.migrate import MigrationConfig, MigrationPlane
            if not isinstance(migrate, MigrationPlane):
                config = (migrate if isinstance(migrate, MigrationConfig)
                          else MigrationConfig())
                migrate = MigrationPlane(self, config)
        self.migrate = migrate
        # Tokens of instances that drained away, mapped to the destination
        # box fingerprint — requests against them get a structured "moved"
        # answer instead of "unknown token".
        self._moved: dict[str, str] = {}
        self._reaper_armed = False
        # Host death kills every hosted function with it (fate-sharing
        # with the box); a restart comes back empty.
        self.node.add_crash_listener(self._on_node_crash)

        # Advertise: the relay's descriptor carries the Bento port (§5.5's
        # "disseminated as part of the Tor directory").
        if relay.bento_port != port:
            relay.bento_port = port
            relay.register_with(directory)
        self.node.listen(port, self._accept)

    # -- transport ---------------------------------------------------------

    def _accept(self, conn: Connection) -> None:
        framed = FramedStream(DirectByteStream(conn, self.node))
        self.sim.spawn(self._serve, framed, name=f"bento:{self.relay.nickname}")

    def serve_via_hidden_service(self, thread: Actor,
                                 n_intro: int = 3) -> str:
        """Also expose this server as a hidden service; returns the onion
        address (the paper's alternative access path, §5)."""
        def _handler(stream, _host, _port) -> None:
            framed = FramedStream(stream)
            self.sim.spawn(self._serve, framed,
                           name=f"bento-hs:{self.relay.nickname}")

        service = yield from self.controller.create_hidden_service(thread,
                                                                   _handler)
        self.onion_address = str(service.onion_address)
        return self.onion_address

    def _serve(self, thread: Actor, framed: FramedStream):
        log = _obs.log
        span = log.begin_span(
            "core.session", self.sim.now, track=self.relay.nickname,
            relay=self.relay.nickname) if log is not None else None
        frames_served = 0
        while True:
            try:
                frame = yield from framed.recv_frame(thread, timeout=3600.0)
            except Exception:
                break
            if frame is None:
                break
            frames_served += 1
            try:
                message = messages.decode_message(frame)
            except ProtocolError as exc:
                framed.send_frame(messages.error_message("bad-message",
                                                         detail=str(exc)))
                continue
            try:
                yield from self._dispatch(thread, framed, message)
            except TokenInvalid as exc:
                framed.send_frame(messages.error_message("bad-token",
                                                         detail=str(exc)))
            except ManifestRejected as exc:
                framed.send_frame(messages.error_message("manifest-rejected",
                                                         detail=str(exc)))
            except ServerBusy as exc:
                # Structured refusal: the client's retry loop reads
                # retry_after instead of guessing with exponential backoff.
                framed.send_frame(messages.error_message(
                    "server-busy", detail=str(exc),
                    retry_after=exc.retry_after))
            except PuzzleRequired as exc:
                framed.send_frame(messages.error_message(
                    "puzzle-required", detail=str(exc),
                    challenge=exc.challenge.hex(),
                    difficulty=exc.difficulty))
            except FunctionMoved as exc:
                framed.send_frame(messages.error_message(
                    "moved", detail=str(exc), box_fp=exc.box_fp))
            except (BentoError, ResourceExceeded, LoaderError) as exc:
                framed.send_frame(messages.error_message("request-failed",
                                                         detail=str(exc)))
        if span is not None:
            span.end(self.sim.now, frames=frames_served)
        # This client is gone; sweep for orphans once the grace expires.
        self._arm_reaper()

    def _arm_reaper(self) -> None:
        """Schedule one orphan sweep ``orphan_grace_s`` from now.

        Deduplicated: only one sweep is ever pending, and each sweep
        re-arms itself while instances remain — a long-running server
        keeps reaping instead of sweeping exactly once per dead client."""
        if self.orphan_grace_s is None or self._reaper_armed:
            return
        self._reaper_armed = True
        self.sim.schedule(self.orphan_grace_s, self._reaper_sweep)

    def _reaper_sweep(self) -> None:
        self._reaper_armed = False
        self.reap_orphans()
        if self._by_invocation and self.node.alive:
            self._arm_reaper()

    def _dispatch(self, thread: Actor, framed: FramedStream,
                  message: dict):
        msg_type = message["type"]
        counter = _REQ_COUNTERS.get(msg_type)
        if counter is None:
            counter = _REQ_COUNTERS[msg_type] = _metrics.counter(
                "bento_requests", {"type": msg_type})
        counter.value += 1
        if msg_type == messages.POLICY_QUERY:
            framed.send_frame(messages.encode_message(
                messages.POLICY, policy=self.policy.to_wire()))
        elif msg_type == messages.REQUEST_IMAGE:
            yield from self._handle_request_image(thread, framed, message)
        elif msg_type == messages.LOAD_FUNCTION:
            self._handle_load(framed, message)
        elif msg_type == messages.INVOKE:
            instance = self._instance_for_invocation(message.get("token", ""))
            instance.note_peer(framed)
            log = _obs.log
            if log is not None:
                log.instant("core.invoke", self.sim.now,
                            track=self.relay.nickname,
                            instance=instance.instance_id,
                            n_args=len(message.get("args", [])))
            instance.invoke(list(message.get("args", [])), framed)
        elif msg_type == messages.MSG:
            instance = self._instance_for_invocation(message.get("token", ""))
            instance.note_peer(framed)
            instance.deliver(message.get("payload", b""), framed)
        elif msg_type == messages.ATTACH:
            instance = self._instance_for_invocation(message.get("token", ""))
            instance.note_peer(framed)
            log = _obs.log
            if log is not None:
                log.instant("core.attach", self.sim.now,
                            track=self.relay.nickname,
                            instance=instance.instance_id)
            framed.send_frame(messages.encode_message(messages.LOADED, ok=True))
        elif msg_type == messages.SHUTDOWN:
            self._handle_shutdown(framed, message)
        elif msg_type == messages.CHECKPOINT:
            self._handle_checkpoint(framed, message)
        elif msg_type == messages.RESTORE:
            self._handle_restore(framed, message)
        else:
            framed.send_frame(messages.error_message(
                "unexpected-type", detail=msg_type))

    # -- handlers ---------------------------------------------------------------

    def _handle_request_image(self, thread: Actor, framed: FramedStream,
                              message: dict):
        log = _obs.log
        span = log.begin_span(
            "core.request_image", self.sim.now, track=self.relay.nickname,
            image=message.get("image", "python")) if log is not None else None
        try:
            yield from self._request_image(thread, framed, message, span)
        except BaseException as exc:
            if span is not None:
                span.end(self.sim.now, ok=False, error=type(exc).__name__)
            raise

    def _request_image(self, thread: Actor, framed: FramedStream,
                       message: dict, span=None):
        name = message.get("image", "python")
        image = self._image_cache.get(name)
        if image is not None:
            _HIT_IMAGE.value += 1
        else:
            _MISS_IMAGE.value += 1
            image = image_by_name(name)
            if image.name not in self.policy.offered_images:
                raise ImageUnavailable(f"operator does not offer {image.name}")
            self._image_cache[name] = image
        qos_key = None
        if self.qos is not None:
            # The serving plane replaces the blunt container-limit error:
            # it queues, paces, or refuses with a structured retry_after
            # (and may demand a puzzle under shed pressure).
            qos_key = yield from self.qos.admit_request(thread, framed,
                                                        message)
        elif len(self._by_invocation) >= self.policy.max_containers:
            raise BentoError("container limit reached")
        try:
            yield from self._start_instance(thread, framed, message, image,
                                            qos_key, span)
        except BaseException:
            # Give the slot back unless a registered instance already owns
            # it (setup got as far as registration and failed on the
            # reply; the instance's own teardown will release it).
            if qos_key is not None and not any(
                    inst.qos_key == qos_key
                    for inst in self._by_invocation.values()):
                self.qos.release(qos_key)
            raise

    def _start_instance(self, thread: Actor, framed: FramedStream,
                        message: dict, image: ContainerImage,
                        qos_key, span=None):
        container = Container(
            container_id=f"c{next(self._container_ids)}",
            host_fs=self.host_fs,
            parent_cgroup=self.root_cgroup,
            seccomp=SeccompPolicy(self.policy.allowed_syscalls),
            iptables=IptablesRuleset.from_exit_policy(
                self.relay.exit_policy, self.node.address,
                loopback_ports=(self.port,)),
            memory_limit=self.policy.max_function_memory + image.base_memory,
            disk_limit=self.policy.max_function_disk,
        )
        container.start(base_memory=image.base_memory)

        conclave = None
        reply_fields: dict = {}
        if image.uses_enclave:
            if self.enclave_host is None or self.ias is None:
                container.kill("no SGX support")
                raise ImageUnavailable("operator lacks SGX support")
            conclave = Conclave(self.enclave_host, image.enclave_image,
                                container.fs, self.rng.fork("conclave"),
                                heap_bytes=image.base_memory)
            enclave_pub = conclave.begin_channel()
            quote = conclave.quote_for_channel(enclave_pub)
            # Staple the IAS report, like OCSP stapling (§5.4): one WAN
            # round trip to Intel, paid by the server, not the client.
            yield Sleep(2.0 * self.ias.latency_s)
            report = self.ias.verify_quote(quote, now=self.sim.now)
            reply_fields.update({
                "quote": quote.to_wire(),
                "report": report.to_wire(),
                "enclave_pub": enclave_pub,
                "measurement": conclave.measurement,
            })

        tokens = self._tokens.issue()
        instance = FunctionInstance(self, image, container, conclave, tokens)
        instance.note_peer(framed)
        if self.qos is not None and qos_key is not None:
            self.qos.attach_instance(qos_key, instance)
        self._by_invocation[tokens.invocation] = instance
        self._by_shutdown[tokens.shutdown] = instance
        if span is not None:
            span.end(self.sim.now, ok=True, instance=instance.instance_id,
                     enclave=image.uses_enclave)
        framed.send_frame(messages.encode_message(
            messages.IMAGE_READY,
            container_id=instance.instance_id,
            invocation=tokens.invocation,
            shutdown=tokens.shutdown,
            image=image.name,
            **reply_fields))

    def _handle_load(self, framed: FramedStream, message: dict) -> None:
        log = _obs.log
        span = log.begin_span(
            "core.load_function", self.sim.now,
            track=self.relay.nickname) if log is not None else None
        try:
            self._load_function(framed, message, span)
        except ManifestRejected as exc:
            _metrics.counter("manifests_rejected").value += 1
            if log is not None:
                log.instant("core.manifest_rejected", self.sim.now,
                            track=self.relay.nickname, reason=str(exc))
            if span is not None:
                span.end(self.sim.now, ok=False, error="ManifestRejected")
            raise
        except BaseException as exc:
            if span is not None:
                span.end(self.sim.now, ok=False, error=type(exc).__name__)
            raise

    def _load_function(self, framed: FramedStream, message: dict,
                       span=None) -> None:
        instance = self._instance_for_invocation(message.get("token", ""))
        instance.note_peer(framed)
        # Accepted manifests are cached by their canonical wire bytes:
        # a hit skips both the parse and the policy verdict (manifests
        # are frozen, so the object is shared safely across instances).
        # Rejections are never cached — they must re-raise fresh.
        manifest_key = canonical_encode(message["manifest"])
        manifest = self._manifest_cache.get(manifest_key)
        if manifest is not None:
            _HIT_POLICY.value += 1
        else:
            _MISS_POLICY.value += 1
            manifest = FunctionManifest.from_wire(message["manifest"])
            reason = self.policy.rejection_reason(manifest)
            if reason is not None:
                raise ManifestRejected(reason)
            self._manifest_cache[manifest_key] = manifest
        if manifest.image != instance.image.name:
            raise ManifestRejected(
                f"manifest image {manifest.image!r} does not match container "
                f"image {instance.image.name!r}")
        if self.qos is not None:
            # Price the declared ask against the capacity ledger before
            # any real resources are committed; also registers the
            # instance's fair-queue flows under its priority class.
            self.qos.price_manifest(instance, manifest)

        if "sealed_code" in message:
            if instance.conclave is None:
                raise BentoError("sealed upload requires the enclave image")
            channel = instance.conclave.complete_channel(message["client_pub"])
            code = channel.open(message["sealed_code"]).decode("utf-8")
        else:
            code = message["code"]

        instance.load(code, manifest)
        for path, data in dict(message.get("data", {})).items():
            # Initial data files ride along with the upload (§5.4: "the
            # Bento client then uploads the function, and any associated
            # data to copy to FS Protect").
            fs = (instance.conclave.fs if instance.conclave is not None
                  else instance.container.fs)
            instance.container.cgroup.charge("disk", len(data))
            fs.write_file(path, data)
        if span is not None:
            span.end(self.sim.now, ok=True, instance=instance.instance_id,
                     name=manifest.name)
        framed.send_frame(messages.encode_message(messages.LOADED, ok=True))

    def _handle_shutdown(self, framed: FramedStream, message: dict) -> None:
        token = message.get("token", "")
        instance = self._by_shutdown.get(token)
        if instance is None:
            moved_to = self._moved.get(token)
            if moved_to is not None:
                raise FunctionMoved("function migrated to another box",
                                    box_fp=moved_to)
            raise TokenInvalid("unknown shutdown token")
        instance.note_peer(framed)
        instance.kill("shutdown by owner")
        framed.send_frame(messages.encode_message(messages.SHUTDOWN_OK))

    def _handle_checkpoint(self, framed: FramedStream, message: dict) -> None:
        """Snapshot a checkpointable function for its owner.

        Gated on the *shutdown* token: the checkpoint carries the
        function's full state, so only the owner capability (not the
        shareable invocation token) may take one.  Inside a conclave the
        reply travels sealed under the attested channel — the host never
        sees plaintext state (§5.4)."""
        from repro.migrate import checkpoint_instance, store_local_checkpoint

        token = message.get("token", "")
        instance = self._by_shutdown.get(token)
        if instance is None:
            moved_to = self._moved.get(token)
            if moved_to is not None:
                raise FunctionMoved("function migrated to another box",
                                    box_fp=moved_to)
            raise TokenInvalid("unknown shutdown token")
        instance.note_peer(framed)
        cp = checkpoint_instance(instance, seq=int(message.get("seq", 0)))
        reply: dict = {"ok": True, "seq": cp.seq}
        if instance.conclave is not None:
            store_local_checkpoint(instance, cp)
            channel = instance.conclave.channel
            if channel is None:
                raise BentoError("no attested channel to seal checkpoint for")
            reply["sealed_checkpoint"] = channel.seal(
                canonical_encode(cp.to_wire()))
        else:
            reply["checkpoint"] = cp.to_wire()
        framed.send_frame(messages.encode_message(
            messages.CHECKPOINT_DATA, **reply))

    def _handle_restore(self, framed: FramedStream, message: dict) -> None:
        """Apply a checkpoint to a freshly loaded instance.

        Sent by the migration plane (or a standby's owner) right after
        ``load_function`` on the destination box.  May also adopt the
        source instance's token pair so existing capability holders keep
        working after the move."""
        from repro.migrate import Checkpoint, restore_instance
        from repro.util.serialization import canonical_decode

        instance = self._instance_for_invocation(message.get("token", ""))
        instance.note_peer(framed)
        if "sealed_checkpoint" in message:
            if instance.conclave is None or instance.conclave.channel is None:
                raise BentoError(
                    "sealed restore requires an attested enclave channel")
            wire = canonical_decode(
                instance.conclave.channel.open(message["sealed_checkpoint"]))
            cp = Checkpoint.from_wire(wire)
        elif "checkpoint" in message:
            cp = Checkpoint.from_wire(message["checkpoint"])
        else:
            cp = None
        restore_instance(instance, cp, framed,
                         start=bool(message.get("start", False)))
        adopt_inv = message.get("adopt_invocation", "")
        adopt_sd = message.get("adopt_shutdown", "")
        if adopt_inv or adopt_sd:
            self._adopt_tokens(instance, adopt_inv, adopt_sd)
        framed.send_frame(messages.encode_message(
            messages.RESTORED, ok=True,
            invocation=instance.tokens.invocation,
            shutdown=instance.tokens.shutdown))

    def _adopt_tokens(self, instance: FunctionInstance, invocation: str,
                      shutdown: str) -> None:
        """Re-key an instance under tokens minted by another box.

        Existing holders of the source instance's capabilities (sessions,
        shared invocation tokens) keep working against the destination
        without redistribution.  Refuses tokens already registered here —
        adoption must never hijack a live instance."""
        for token in (invocation, shutdown):
            if token in self._by_invocation or token in self._by_shutdown:
                raise TokenInvalid("adopted token collides with a live one")
        self._by_invocation.pop(instance.tokens.invocation, None)
        self._by_shutdown.pop(instance.tokens.shutdown, None)
        instance.tokens = TokenPair(
            invocation=invocation or instance.tokens.invocation,
            shutdown=shutdown or instance.tokens.shutdown)
        self._by_invocation[instance.tokens.invocation] = instance
        self._by_shutdown[instance.tokens.shutdown] = instance

    # -- registry -----------------------------------------------------------------

    def _instance_for_invocation(self, token: str) -> FunctionInstance:
        instance = self._by_invocation.get(token)
        if instance is None:
            moved_to = self._moved.get(token)
            if moved_to is not None:
                raise FunctionMoved("function migrated to another box",
                                    box_fp=moved_to)
            raise TokenInvalid("unknown invocation token")
        return instance

    def _forget(self, instance: FunctionInstance) -> None:
        self._by_invocation.pop(instance.tokens.invocation, None)
        self._by_shutdown.pop(instance.tokens.shutdown, None)
        if self.qos is not None and instance.qos_key is not None:
            # Free the admission slot (waking the best queued waiter) and
            # return the priced reservation to the capacity ledger.
            self.qos.release(instance.qos_key)
            instance.qos_key = None

    # -- failure handling -------------------------------------------------------

    def reap_orphans(self, grace_s: Optional[float] = None) -> int:
        """Kill instances whose every client transport died (§5.3 allows a
        function to outlive its connection, but a box need not host
        abandoned ones forever).  ``grace_s`` defaults to the server's
        ``orphan_grace_s`` (or 0): instances touched more recently than
        that are spared.  Returns how many were reaped."""
        if grace_s is None:
            grace_s = self.orphan_grace_s or 0.0
        horizon = self.sim.now - grace_s
        reaped = 0
        for instance in list(self._by_invocation.values()):
            if instance.orphaned and instance.last_activity <= horizon:
                instance.kill("orphaned: all client connections died")
                reaped += 1
        _perf.orphans_reaped += reaped
        return reaped

    def _on_node_crash(self, _node) -> None:
        """The host died: every hosted function dies with it.

        No graceful cleanup — a crashed box gets no dying gasp on the
        network."""
        for instance in list(self._by_invocation.values()):
            instance.kill("box crashed", graceful=False)
        # A restarted box has lost all state; nothing cached may survive
        # into its next life.
        self._image_cache.clear()
        self._manifest_cache.clear()
        self._moved.clear()
        if self.qos is not None:
            # A dead box cannot serve; stop advertising room it no longer
            # has (a stale report would just make it look busy anyway).
            self.directory.withdraw_load(self.relay.fingerprint)

    # -- introspection ----------------------------------------------------------------

    @property
    def active_function_count(self) -> int:
        """Live function instances on this server."""
        return len(self._by_invocation)

    @property
    def total_memory_used(self) -> int:
        """Aggregate memory charged across all containers."""
        return self.root_cgroup.usage["memory"]
