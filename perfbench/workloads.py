"""The benchmark's workloads, one simulation pass each.

A pass builds the whole deployment, drives the seeded traffic through
it, checks the outputs, and returns plain data: host set-up and run
seconds, simulated-clock metrics over one record per attempted session,
and a digest of the simulated outcomes that must repeat exactly for the
same seed.  Parameters live in
``workloads.json`` beside this file.

Session records are ``[due_s, done_s or None, ok, payload_bytes]`` on
the simulated clock; ``due_s`` is when the session was due (closed loop:
when its client started it; open loop: its arrival time).  A session
that fails (an error, or a refusal it retried past its deadline) is a
record with ``ok`` false and counts in ``failed_frac``; only a wrong
output is a correctness problem.  Transfers
are ``[payload_bytes, sim_seconds]`` from invoke to the function's DONE,
which the box sends right after the last output byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

MB = 1e6

PARAMS = json.loads(
    (Path(__file__).resolve().parent / "workloads.json").read_text())

#: The Tor testbed's seed (relays, keys, link latencies, path choices) is
#: the same in every run: the benchmark seed varies the traffic a workload
#: offers (arrivals, sizes, box choices, start times), not the testbed.
NETWORK_SEED = PARAMS["seeds"]["network"]

#: Counters of planes a workload leaves off; each must read 0 after it.
PLANE_COUNTERS = {
    "qos": ("qos_admitted", "qos_rejected", "qos_shed", "qos_throttles"),
    "migrate": ("checkpoints_taken", "migrations_started",
                "migrations_completed", "migrations_failed",
                "standby_promotions"),
    "chain": ("chain_embeds", "chain_reembeds", "chain_arc_bytes",
              "chain_units_delivered"),
    "shard": ("shard_epochs_completed", "shard_cross_events",
              "shard_barrier_wait_us"),
}
PLANES_ON = {"qos-overload": ("qos",)}

#: Counters that are pure functions of the seed; they enter the digest.
DIGEST_COUNTERS = ("events_processed", "tasks_spawned", "cells_crypted",
                   "keystream_bytes", "qos_admitted", "qos_rejected")

#: The function every Bento session uploads: streams ``n`` bytes built
#: from a seeded block, then returns ``n``.
BLOB_SOURCE = (
    "def blob(block_hex, n):\n"
    "    block = bytes.fromhex(block_hex)\n"
    "    yield from api.send((block * (n // len(block) + 1))[:n])\n"
    "    return n\n"
)


def expected_blob(block: bytes, n: int) -> bytes:
    """What :data:`BLOB_SOURCE` sends for ``block`` and ``n``."""
    return (block * (n // len(block) + 1))[:n]


def params_for(name: str, overrides: Optional[dict] = None) -> dict:
    """A workload's parameters, with optional overrides (tests shrink them)."""
    params = dict(PARAMS["workloads"][name])
    params.update(overrides or {})
    return params


class Pass:
    """Accumulates one pass's records; :meth:`result` freezes them."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sessions: list[list] = []
        self.transfers: list[list] = []
        self.problems: list[str] = []
        self.setup_s = 0.0
        self.run_s = 0.0
        self.sim_end = 0.0

    def record(self, due: float, done: Optional[float], ok: bool,
               nbytes: int) -> None:
        self.sessions.append([due, done, ok, nbytes])

    def result(self, counters: dict, slo_limit_s: float) -> dict:
        """Checks, digest, and the pass's metrics as small plain data."""
        for plane, fields in PLANE_COUNTERS.items():
            if plane in PLANES_ON.get(self.name, ()):
                continue
            for field in fields:
                if counters.get(field, 0):
                    self.problems.append(
                        f"plane {plane} is off but perf.counters.{field}="
                        f"{counters[field]}")
        outcome = {
            "sessions": sorted(self.sessions, key=_session_key),
            "transfers": sorted(self.transfers),
            "sim_end": self.sim_end,
            "counters": {k: counters.get(k, 0) for k in DIGEST_COUNTERS},
        }
        digest = hashlib.sha256(json.dumps(
            outcome, sort_keys=True).encode()).hexdigest()
        completed = [s for s in self.sessions if s[2]]
        return {
            "workload": self.name,
            "setup_s": self.setup_s,
            "run_s": self.run_s,
            "attempted": len(self.sessions),
            "completed": len(completed),
            "delivered_bytes": sum(s[3] for s in completed),
            "sim": sim_metrics(self.sessions, self.transfers, slo_limit_s),
            "problems": self.problems,
            "digest": digest,
            "counters": counters,
        }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sim_metrics(sessions: list[list], transfers: list[list],
                slo_limit_s: float) -> dict:
    """Simulated-clock metrics: a pure function of the seed.

    Latency runs from a session's due time to its completion, over
    completed sessions; ``sim_slo_frac`` counts failed sessions as misses.
    """
    latencies = [done - due for due, done, ok, _n in sessions if ok]
    rates = [nbytes / seconds / MB for nbytes, seconds in transfers
             if seconds > 0]
    within = sum(1 for latency in latencies if latency <= slo_limit_s)
    return {
        "sim_session_p50_s": percentile(latencies, 50) if latencies else 0.0,
        "sim_session_p99_s": percentile(latencies, 99) if latencies else 0.0,
        "sim_slo_frac": within / len(sessions) if sessions else 0.0,
        "sim_transfer_MBps": statistics.median(rates) if rates else 0.0,
        "samples": len(latencies),
    }


def _session_key(record: list) -> tuple:
    due, done, ok, nbytes = record
    return (due, done if done is not None else -1.0, ok, nbytes)


def _build_bento(params: dict):
    """Tor testnet + Bento servers (open policy with roomy caps) + IAS."""
    from repro.core import BentoServer
    from repro.core.policy import MiddleboxNodePolicy
    from repro.enclave.attestation import IntelAttestationService
    from repro.tor import TorTestNetwork

    net = TorTestNetwork(n_relays=params["n_relays"], seed=NETWORK_SEED,
                         fast_crypto=params["fast_crypto"],
                         bento_fraction=params["bento_fraction"])
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    policy = replace(MiddleboxNodePolicy.open_policy(), max_containers=64,
                     max_total_memory=2048 * 1024 * 1024)
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, policy=policy, ias=ias)
    return net, ias


def _run_sim(run: Pass, sim) -> None:
    start = time.perf_counter()
    sim.run()
    run.run_s = time.perf_counter() - start
    run.sim_end = sim.now
    sim.check_failures()


# -- session-churn and bulk-transfer ------------------------------------------

def run_closed_loop(name: str, seed: int, params: dict,
                    tracer=None) -> Pass:
    """C clients each running sessions back to back on pooled circuits.

    The seed draws each session's box and payload size, which sessions
    use the enclave image, and each client's start offset.  Session
    ``i`` invokes :data:`BLOB_SOURCE` for ``sizes[i]`` bytes; an enclave
    session has the client verify the box's quote at the IAS.
    """
    from repro.core import BentoClient, FunctionManifest
    from repro.core.client import RETRYABLE_ERRORS
    from repro.util.rng import DeterministicRandom

    run = Pass(name)
    t0 = time.perf_counter()
    rng = DeterministicRandom(seed).fork(f"bench:{name}")
    n_clients = params["clients"]
    per_client = params["sessions_per_client"]
    total = n_clients * per_client
    # Seeded orderings of fixed multisets: every seed moves the same
    # bytes and provisions the same number of enclaves, in another order.
    pool = params["payload_bytes"]
    sizes = [pool[i % len(pool)] for i in range(total)]
    rng.shuffle(sizes)
    sgx_every = params.get("sgx_every", 0)
    sgx = [bool(sgx_every) and i % sgx_every == 0 for i in range(total)]
    rng.shuffle(sgx)
    box_draws = [rng.getrandbits(30) for _ in range(total)]
    gap = params["client_start_gap_s"]
    starts = [gap * (i + rng.random()) for i in range(n_clients)]
    block = bytes(rng.getrandbits(8) for _ in range(256))
    block_hex = block.hex()

    net, ias = _build_bento(params)
    if tracer is not None:
        tracer.sim = net.sim
    sim = net.sim
    manifests = {
        image: FunctionManifest.create("blob", "blob", {"send"}, image=image)
        for image in ("python", "python-op-sgx")}
    clients = [BentoClient(net.create_client(f"user{i}"), ias=ias,
                           reuse_circuits=True)
               for i in range(n_clients)]

    def one_session(task, client, box, index):
        n = sizes[index]
        image = "python-op-sgx" if sgx[index] else "python"
        session = yield from client.connect(task, box)
        try:
            yield from session.request_image(
                task, image, verify="ias" if sgx[index] else "none")
            yield from session.load_function(task, BLOB_SOURCE,
                                             manifests[image])
            invoked = sim.now
            result = yield from session.invoke(task, [block_hex, n])
            finished = sim.now
            output = yield from session.next_output(task)
            yield from session.shutdown(task)
        finally:
            session.close()
        ok = result == n and output == expected_blob(block, n)
        if not ok:
            run.problems.append(f"session {index}: wrong output "
                                f"(result={result!r}, {len(output)} bytes)")
        run.transfers.append([n, finished - invoked])
        return ok

    def client_flow(task, client, client_index):
        boxes = client.discover_boxes()
        for s in range(per_client):
            index = client_index * per_client + s
            box = boxes[box_draws[index] % len(boxes)]
            due = sim.now
            body = one_session(task, client, box, index)
            if tracer is not None:
                body = tracer.session(body, index)
            try:
                ok = yield from body
            except RETRYABLE_ERRORS:
                run.record(due, None, False, 0)
                continue
            run.record(due, sim.now, ok, sizes[index] if ok else 0)

    for index, client in enumerate(clients):
        sim.spawn(client_flow, client, index, name=f"user{index}",
                  delay=starts[index])
    run.setup_s = time.perf_counter() - t0
    _run_sim(run, sim)
    return run


# -- qos-overload -------------------------------------------------------------

class GaveUp(Exception):
    """A qos session still refused when its deadline passed."""


def qos_spec(seed: int, params: dict):
    """The qos-overload ``WorkloadSpec``: its arrivals come from the seed."""
    from repro.workload.spec import (ArrivalSpec, PlanesSpec, TenantSpec,
                                     WorkloadSpec)

    tenants = tuple(
        TenantSpec(name=t["name"], function="kvstore",
                   priority=t["priority"],
                   ops_per_session=t["ops_per_session"], hold_s=t["hold_s"],
                   deadline_s=params["deadline_s"],
                   arrivals=ArrivalSpec(**t["arrivals"]))
        for t in params["tenants"])
    return WorkloadSpec(
        name="bench-qos-overload", seed=seed,
        duration_s=params["duration_s"], n_relays=params["n_relays"],
        bento_fraction=params["bento_fraction"], tenants=tenants,
        planes=PlanesSpec(qos=True, qos_slots=params["qos_slots"],
                          qos_queue_depth=params["qos_queue_depth"],
                          qos_queue_timeout_s=params["qos_queue_timeout_s"]))


def run_qos_overload(name: str, seed: int, params: dict,
                     tracer=None) -> Pass:
    """Open-loop kvstore sessions against admission-gated boxes.

    Every arrival runs one session over a direct connection: admission
    (``request_image``), upload, ``ops_per_session`` increments of its
    own counter, a slot hold, shutdown.  A refusal is retried through
    :meth:`BentoClient.retrying`, which honours the box's RETRY_AFTER,
    until the tenant's ``deadline_s`` after the arrival has passed: then
    the session gives up and counts as failed.
    """
    from repro.core import BentoClient, BentoServer
    from repro.core.client import RETRYABLE_ERRORS
    from repro.enclave.attestation import IntelAttestationService
    from repro.functions.kvstore import KvStoreFunction
    from repro.netsim.simulator import Sleep
    from repro.qos import QosConfig
    from repro.tor import TorTestNetwork
    from repro.workload.generator import generate

    run = Pass(name)
    t0 = time.perf_counter()
    spec = qos_spec(seed, params)
    workload = generate(spec)
    net = TorTestNetwork(n_relays=spec.n_relays, seed=NETWORK_SEED,
                         fast_crypto=True,
                         bento_fraction=spec.bento_fraction)
    if tracer is not None:
        tracer.sim = net.sim
    sim = net.sim
    ias = IntelAttestationService(sim.rng.fork("ias"))
    qos = QosConfig(slots=spec.planes.qos_slots,
                    queue_depth=spec.planes.qos_queue_depth,
                    queue_timeout_s=spec.planes.qos_queue_timeout_s)
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, ias=ias, qos=qos)
    tenants = {t.name: t for t in spec.tenants}

    def attempt(task, client, tenant, key, progress, due):
        if sim.now - due >= tenant.deadline_s:
            raise GaveUp(key)
        box = client.pick_box()
        session = yield from client.connect_direct(task, box)
        try:
            yield from session.request_image(task, "python", verify="none",
                                             priority=tenant.priority)
            yield from session.load_function(
                task, KvStoreFunction.SOURCE,
                KvStoreFunction.manifest())
            KvStoreFunction.start(session)
            values = []
            progress["first_op"] = sim.now
            for _ in range(tenant.ops_per_session):
                values.append((yield from KvStoreFunction.incr(
                    task, session, key, timeout=30.0)))
            progress["last_op"] = sim.now
            yield Sleep(tenant.hold_s)
            session.send_message(b'{"op": "stop"}')
            yield from session.shutdown(task)
        finally:
            session.close()
        return values

    def arrival(task, event, index):
        tenant = tenants[event.tenant]
        client = BentoClient(net.create_client(f"{tenant.name}{event.index}"),
                             ias=ias)
        key = f"{tenant.name}-{event.index}"
        progress: dict = {}
        body = client.retrying(
            task, lambda: attempt(task, client, tenant, key, progress,
                                  event.t),
            attempts=sys.maxsize,   # the deadline bounds the retries
            backoff_s=params["retry_backoff_s"],
            max_backoff_s=params["retry_max_backoff_s"])
        if tracer is not None:
            body = tracer.session(body, index)
        try:
            values = yield from body
        except (GaveUp,) + RETRYABLE_ERRORS:
            run.record(event.t, None, False, 0)
            return
        ok = values == list(range(1, tenant.ops_per_session + 1))
        if not ok:
            run.problems.append(f"arrival {key}: counter read {values}")
        reply_bytes = sum(len(json.dumps({"value": v})) for v in values)
        run.transfers.append([reply_bytes,
                              progress["last_op"] - progress["first_op"]])
        run.record(event.t, sim.now, ok, reply_bytes if ok else 0)

    for index, event in enumerate(workload.events):
        sim.spawn(arrival, event, index, name=f"arrival{index}",
                  delay=event.t)
    run.setup_s = time.perf_counter() - t0
    _run_sim(run, sim)
    return run


RUNNERS = {
    "session-churn": run_closed_loop,
    "bulk-transfer": run_closed_loop,
    "qos-overload": run_qos_overload,
}
