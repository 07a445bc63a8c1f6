"""LoadBalancer: autoscaling hidden-service replicas (§8).

    "LoadBalancer establishes introduction points and listens for clients'
    incoming requests to join them at a rendezvous point.  However, rather
    than connect to the rendezvous point itself, LoadBalancer chooses from
    a set of replicas (or spins up a new replica) and instructs the
    replica to connect to the rendezvous point on its behalf.  To create a
    replica, the LoadBalancer copies all files (including the hostname and
    private key) to the new instance ... LoadBalancer receives periodic
    messages from replicas describing their load, and uses high- and
    low-watermark thresholds to determine when to create or remove a
    replica."

Two uploaded artifacts: the balancer and the replica it clones itself
into.  Content is served over hidden-service streams with a tiny
length-prefixed GET protocol; clients hold their stream open (ending with
``DONE``) so "active" counts reflect live downloads.

Like every uploaded source, these call each blocking api method with
``yield from``; the balancer, each replica and each per-stream handler
run as :class:`~repro.netsim.simulator.SimTask`\\ s.
"""

from __future__ import annotations

import json

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.tor.client import TorClient

MB = 1024 * 1024

# The serving logic both the balancer (locally) and every replica run.
_SERVE_SNIPPET = r'''
def _make_handler(content, state):
    def handler(stream, host, port):
        state["active"] += 1
        try:
            request = yield from stream.recv(timeout=300.0)
            if request[:3] == b"GET":
                yield from stream.send(len(content).to_bytes(8, "big") + content)
                while True:
                    mark = yield from stream.recv(timeout=3600.0)
                    if mark == b"" or mark[:4] == b"DONE":
                        break
                state["served"] += 1
        except Exception:
            pass
        state["active"] -= 1
        stream.close()
    return handler
'''

REPLICA_SOURCE = r'''
import json
''' + _SERVE_SNIPPET + r'''

def replica(key_material, expected_bytes):
    content = yield from api.recv(timeout=300.0)
    yield from api.log("replica: holding %d bytes" % len(content))
    state = {"active": 0, "served": 0}
    service = yield from api.stem.create_hidden_service(
        _make_handler(content, state),
        key_material=key_material, establish=False)
    yield from api.send(b'{"ready": true}')
    while True:
        raw = yield from api.recv()
        try:
            request = json.loads(raw.decode("utf-8"))
        except Exception:
            continue
        op = request.get("op")
        if op == "load":
            yield from api.send(json.dumps(state).encode("utf-8"))
        elif op == "rendezvous":
            wire = request["req"]
            yield from api.stem.complete_rendezvous(service, {
                "cookie": bytes.fromhex(wire["cookie"]),
                "rp_address": wire["rp_address"],
                "rp_port": int(wire["rp_port"]),
                "onionskin": bytes.fromhex(wire["onionskin"]),
            }, wait=False)
            yield from api.send(b'{"ok": true}')
        elif op == "stop":
            break
    return state
'''

LOADBALANCER_SOURCE = r'''
import json
''' + _SERVE_SNIPPET + r'''

def loadbalancer(replica_source, replica_manifest, high_water, low_water,
                 max_replicas, duration_s, poll_interval, announce=False,
                 standbys=0):
    content = yield from api.recv(timeout=300.0)
    state = {"active": 0, "served": 0}
    service = yield from api.stem.create_hidden_service(
        _make_handler(content, state),
        n_intro=3, manual_introductions=True)
    yield from api.send(
        json.dumps({"onion": str(service.onion_address)}).encode("utf-8"))
    key_material = service.export_key_material()

    # Load model: each instance's in-flight estimate is assigned - served.
    # "assigned" counts dispatches (known instantly); "served" comes from
    # the local handler state or replica load reports (refreshed on idle
    # ticks) — so dispatch never blocks on a poll round.
    local = {"assigned": 0}
    replicas = []
    standby_pool = []
    dead_boxes = []
    lost = {"count": 0}
    events = [[(yield from api.time()), "start", 1]]

    def tell(payload):
        # Operational announcements (replica placements / losses) for the
        # operator's session; off by default to keep the wire quiet.
        if announce:
            yield from api.send(json.dumps(payload).encode("utf-8"))

    def estimate(instance):
        if instance["kind"] == "local":
            return max(state["active"],
                       local["assigned"] - state["served"])
        rep = instance["rep"]
        return max(rep["active"], rep["assigned"] - rep["served"])

    def poll_loads():
        for rep in list(replicas):
            if not rep["ready"]:
                continue     # the only pending output would be "ready"
            try:
                yield from api.remote_send(rep["handle"], b'{"op": "load"}')
                raw = yield from api.remote_recv(rep["handle"], timeout=60.0)
                info = json.loads(raw.decode("utf-8"))
            except Exception:
                yield from lose_replica(rep)
                continue
            rep["active"] = info["active"]
            rep["served"] = info["served"]

    def spawn_replica(kind="scale-up"):
        # Deploy and push the key material + content, but do NOT wait for
        # the replica to come up: the content transfer proceeds while we
        # keep dispatching; the first dispatch to this replica waits.
        # Replicas are the operator's own infrastructure: the key and
        # content copy goes direct (the paper's LB copied files between
        # its own EC2 hosts), not through an anonymity circuit.  Boxes
        # that already ate a replica are excluded, and placement consults
        # the directory's serving-plane load reports (prefer_slack) so a
        # respawn lands on the box advertising the most free capacity —
        # not merely any box that is not known-dead.  Without reports the
        # pick falls back to the old uniform draw.
        for _attempt in range(4):
            try:
                handle = yield from api.deploy(replica_source, replica_manifest,
                                               direct=True,
                                               exclude_fingerprints=dead_boxes,
                                               prefer_slack=True)
                info = yield from api.remote_info(handle)
                yield from api.remote_invoke_nowait(
                    handle, [key_material, len(content)])
                yield from api.remote_send(handle, content)
            except Exception:
                continue
            replicas.append({"handle": handle, "active": 0, "served": 0,
                             "assigned": 0, "ready": False,
                             "box_fp": info["box_fp"]})
            events.append([(yield from api.time()), kind, 1 + len(replicas)])
            yield from tell({"replica_box": info["box_fp"], "event": kind})
            return True
        events.append([(yield from api.time()), "spawn-failed",
                       1 + len(replicas)])
        return False

    def spawn_standby():
        # A warm standby: fully provisioned (code, key material, and
        # content already pushed) but never dispatched to.  Promoting it
        # after a replica loss is instant — no copy, no provisioning —
        # which is the whole point of paying for it up front.
        for _attempt in range(4):
            try:
                handle = yield from api.deploy(replica_source, replica_manifest,
                                               direct=True,
                                               exclude_fingerprints=dead_boxes,
                                               prefer_slack=True)
                info = yield from api.remote_info(handle)
                yield from api.remote_invoke_nowait(
                    handle, [key_material, len(content)])
                yield from api.remote_send(handle, content)
            except Exception:
                continue
            standby_pool.append({"handle": handle, "active": 0, "served": 0,
                                 "assigned": 0, "ready": False,
                                 "box_fp": info["box_fp"]})
            events.append([(yield from api.time()), "standby-up",
                           len(standby_pool)])
            yield from tell({"standby_box": info["box_fp"],
                             "event": "standby-up"})
            return True
        return False

    def lose_replica(rep):
        # A replica stopped answering: its box died (or the path to it).
        # Remember the box so redeployment avoids it, then re-replicate —
        # promote a warm standby when one is up (instant), else respawn
        # cold, the paper's LB behavior.
        if rep not in replicas:
            return
        replicas.remove(rep)
        if rep.get("box_fp"):
            dead_boxes.append(rep["box_fp"])
        lost["count"] += 1
        events.append([(yield from api.time()), "replica-lost",
                       1 + len(replicas)])
        yield from tell({"replica_lost": rep.get("box_fp", "")})
        if len(replicas) < max_replicas:
            promoted = None
            while standby_pool and promoted is None:
                candidate = standby_pool.pop(0)
                if candidate.get("box_fp") in dead_boxes:
                    continue    # the standby died with the same box
                promoted = candidate
            if promoted is not None:
                replicas.append(promoted)
                events.append([(yield from api.time()), "standby-promoted",
                               1 + len(replicas)])
                yield from tell({"standby_promoted":
                                 promoted.get("box_fp", "")})
                yield from spawn_standby()   # replenish the pool
            else:
                yield from spawn_replica(kind="respawn")

    def ensure_ready(rep, timeout=300.0):
        """Wait for a replica's {"ready": true}; with a tiny timeout this
        is a non-blocking readiness poll.  A dead transport (anything but
        a timeout) loses the replica."""
        if not rep["ready"]:
            try:
                yield from api.remote_recv(rep["handle"], timeout=timeout)
                rep["ready"] = True
            except Exception as exc:
                # The sandbox has no type() and no timeout exception
                # class to catch by name; repr() carries the class name.
                if "SimTimeoutError" not in repr(exc):
                    yield from lose_replica(rep)
        return rep["ready"]

    def dispatch(request):
        # Only *ready* instances are dispatch candidates: waiting for a
        # replica mid-provisioning would stall every queued client.
        instances = [{"kind": "local"}]
        for rep in list(replicas):
            ready = yield from ensure_ready(rep, timeout=0.05)
            if ready:
                instances.append({"kind": "replica", "rep": rep})
        least = min(instances, key=estimate)
        if estimate(least) >= high_water and len(replicas) < max_replicas:
            # Start a replica for *future* load, but serve this request
            # from existing capacity — the new instance is still copying
            # the content and key material.
            yield from spawn_replica()
        if least["kind"] == "local":
            local["assigned"] += 1
            yield from api.stem.complete_rendezvous(service, request,
                                                    wait=False)
        else:
            rep = least["rep"]
            rep["assigned"] += 1
            try:
                yield from ensure_ready(rep)
                yield from api.remote_send(rep["handle"], json.dumps(
                    {"op": "rendezvous", "req": {
                        "cookie": request["cookie"].hex(),
                        "rp_address": request["rp_address"],
                        "rp_port": int(request["rp_port"]),
                        "onionskin": request["onionskin"].hex(),
                    }}).encode("utf-8"))
                yield from api.remote_recv(rep["handle"], timeout=120.0)
            except Exception:
                # The replica died under us: serve this client locally so
                # the request still completes, then replace the replica.
                yield from lose_replica(rep)
                local["assigned"] += 1
                yield from api.stem.complete_rendezvous(service, request,
                                                        wait=False)
                events.append([(yield from api.time()), "dispatch", "local"])
                return
        events.append([(yield from api.time()), "dispatch", least["kind"]])

    for _n in range(standbys):
        yield from spawn_standby()

    end = (yield from api.time()) + duration_s
    while (yield from api.time()) < end:
        remaining = end - (yield from api.time())
        try:
            request = yield from api.stem.wait_introduction(
                service, timeout=min(poll_interval, remaining))
        except Exception:
            request = None
        if request is not None:
            yield from dispatch(request)
            continue
        # Idle tick: refresh real loads and consider scaling down.
        for rep in replicas:
            yield from ensure_ready(rep, timeout=0.05)
        yield from poll_loads()
        total_active = state["active"] + sum(r["active"] for r in replicas)
        idle = [r for r in replicas
                if r["ready"] and r["active"] == 0
                and r["assigned"] <= r["served"]]
        if idle and total_active <= low_water:
            rep = idle[-1]
            replicas.remove(rep)
            try:
                yield from api.remote_send(rep["handle"], b'{"op": "stop"}')
                yield from api.remote_shutdown(rep["handle"])
            except Exception:
                pass
            events.append([(yield from api.time()), "scale-down",
                           1 + len(replicas)])

    # Drain: the service window is over, but in-flight downloads finish
    # before any instance is decommissioned.
    drain_deadline = (yield from api.time()) + 600.0
    while (yield from api.time()) < drain_deadline:
        for rep in replicas:
            yield from ensure_ready(rep, timeout=1.0)
        yield from poll_loads()
        busy = state["active"] + sum(r["active"] for r in replicas)
        waiting = (local["assigned"] - state["served"]) + sum(
            r["assigned"] - r["served"] for r in replicas)
        if all(r["ready"] for r in replicas) and busy <= 0 and waiting <= 0:
            break
        yield from api.sleep(poll_interval)

    for rep in replicas + standby_pool:
        try:
            yield from api.remote_send(rep["handle"], b'{"op": "stop"}')
            yield from api.remote_shutdown(rep["handle"])
        except Exception:
            pass
    return {"events": events, "served_local": state["served"],
            "replicas_at_end": len(replicas),
            "replicas_lost": lost["count"]}
'''


class LoadBalancerFunction:
    """Host-side helper: manifests, startup, and the client download."""

    SOURCE = LOADBALANCER_SOURCE
    REPLICA_SOURCE = REPLICA_SOURCE

    LB_API_CALLS = frozenset({
        "send", "recv", "log", "time", "sleep",
        "deploy", "remote_invoke", "remote_send", "remote_recv",
        "remote_shutdown",
        "stem.create_hidden_service", "stem.hs_wait_introduction",
        "stem.hs_complete_rendezvous",
    })
    REPLICA_API_CALLS = frozenset({
        "send", "recv", "log",
        "stem.create_hidden_service", "stem.hs_complete_rendezvous",
    })

    @classmethod
    def manifest(cls, image: str = "python-op-sgx",
                 memory_bytes: int = 24 * MB) -> FunctionManifest:
        """The balancer holds the content and the service key: it is the
        case §5.4 motivates conclaves for."""
        return FunctionManifest.create(
            name="loadbalancer", entry="loadbalancer",
            api_calls=cls.LB_API_CALLS, image=image,
            memory_bytes=memory_bytes)

    @classmethod
    def replica_manifest(cls, image: str = "python-op-sgx",
                         memory_bytes: int = 24 * MB) -> FunctionManifest:
        """Manifest for the cloned replica function."""
        return FunctionManifest.create(
            name="lb-replica", entry="replica",
            api_calls=cls.REPLICA_API_CALLS, image=image,
            memory_bytes=memory_bytes)

    @classmethod
    def start(cls, thread: Actor, session, content: bytes,
              high_water: int = 2, low_water: int = 1, max_replicas: int = 3,
              duration_s: float = 120.0, poll_interval: float = 2.0,
              replica_image: str = "python-op-sgx",
              timeout: float = 600.0, announce: bool = False,
              standbys: int = 0) -> str:
        """Launch the balancer on a loaded session; returns the onion
        address it is serving.

        With ``announce=True`` the balancer reports replica placements and
        losses as extra OUTPUT frames (JSON with ``replica_box`` /
        ``replica_lost`` keys) so an operator can watch re-replication.

        ``standbys`` pre-provisions that many warm replicas (content and
        key material already pushed, never dispatched to); a lost replica
        promotes one instantly instead of respawning cold.
        """
        return cls._start(thread, session, content, high_water, low_water,
                          max_replicas, duration_s, poll_interval,
                          replica_image, timeout, announce, standbys)

    @staticmethod
    def _start(thread: Actor, session, content: bytes, high_water: int,
               low_water: int, max_replicas: int, duration_s: float,
               poll_interval: float, replica_image: str, timeout: float,
               announce: bool, standbys: int = 0) -> str:
        from repro.core import messages

        cls = LoadBalancerFunction
        sim = session.client.sim
        log = _obs.log
        span = log.begin_span(
            "functions.lb_start", sim.now, track=session.box.nickname,
            box=session.box.nickname,
            content_bytes=len(content)) if log is not None else None
        args = [cls.REPLICA_SOURCE,
                cls.replica_manifest(image=replica_image).to_wire(),
                high_water, low_water, max_replicas, duration_s,
                poll_interval, announce]
        if standbys:
            # Appended only when used: the default invoke frame keeps its
            # pre-standby wire bytes, so fixed-seed replays stay identical.
            args.append(int(standbys))
        session.framed.send_frame(messages.encode_message(
            messages.INVOKE, token=session.invocation_token, args=args))
        session.send_message(content)
        ready = yield from session.next_output(thread, timeout=timeout)
        onion = json.loads(ready.decode("utf-8"))["onion"]
        if span is not None:
            span.end(sim.now, onion=onion)
        return onion

    @staticmethod
    def download(thread: Actor, tor_client: TorClient, onion: str,
                 timeout: float = 1200.0) -> tuple[bytes, float]:
        """One client's full download from the (possibly balanced) service.

        Returns (content, elapsed_seconds).  Matches the serving protocol:
        GET, length-prefixed body, DONE.
        """
        started = tor_client.sim.now
        log = _obs.log
        span = log.begin_span(
            "functions.lb_download", started, track=tor_client.node.name,
            client=tor_client.node.name) if log is not None else None
        try:
            circuit = yield from tor_client.connect_to_hidden_service(
                thread, onion, timeout=timeout)
            stream = yield from circuit.open_stream(thread, "", 80,
                                                    timeout=timeout)
            stream.send(b"GET")
            buffer = b""
            while len(buffer) < 8:
                chunk = yield from stream.recv(thread, timeout=timeout)
                if chunk == b"":
                    raise ConnectionError("service hung up before header")
                buffer += chunk
            total = int.from_bytes(buffer[:8], "big")
            body = buffer[8:]
            while len(body) < total:
                chunk = yield from stream.recv(thread, timeout=timeout)
                if chunk == b"":
                    raise ConnectionError("service hung up mid-body")
                body += chunk
            stream.send(b"DONE")
            stream.close()
            circuit.close()
        except BaseException as exc:
            if span is not None:
                span.end(tor_client.sim.now, ok=False,
                         error=type(exc).__name__)
            raise
        elapsed = tor_client.sim.now - started
        _metrics.histogram("lb_download_s").observe(elapsed)
        if span is not None:
            span.end(tor_client.sim.now, ok=True, bytes=len(body))
        return body, elapsed
