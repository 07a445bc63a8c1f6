"""Which repro functions the traced run wraps, and the per-layer metrics.

:func:`install` puts a :class:`~perfbench.tracing.Tracer` wrapper around
each layer's public functions; :func:`layer_metrics` turns the tracer's
stats (plus the program's own ``perf.counters`` and cache metrics) into
the ``per_layer`` metrics named in ``BENCHMARK.json``;
:func:`cross_check` compares wrapper counts with ``perf.counters`` where
both count the same thing, which catches a wrapper that missed a call
site bound at import.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from perfbench.tracing import Tracer

#: core.client operations traced as spans (connect_direct counts as connect).
CLIENT_OPS = ("connect", "request_image", "load_function", "invoke",
              "shutdown")

#: (wrapper-derived count, perf.counters field) pairs that must be equal.
CROSS_CHECKS = (
    ("netsim.simulator.run", "units", "events_processed"),
    ("netsim.simulator.task", "calls", "tasks_spawned"),
    ("tor.layercrypto", "units", "cells_crypted"),
    ("crypto.stream", "units", "keystream_bytes"),
    ("qos.admission.admitted", "calls", "qos_admitted"),
    ("qos.admission.rejected", "calls", "qos_rejected"),
)

CACHE_LAYERS = ("circuit", "consensus", "image", "policy", "attestation",
                "descriptor")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function (imports the whole stack)."""
    from repro.core import client, loader, messages
    from repro.core.errors import PuzzleRequired, ServerBusy
    from repro.crypto import dh, rsa, stream
    from repro.enclave import attestation, conclave
    from repro.netsim import connection, interface, simulator
    from repro.qos import plane
    from repro.sandbox import container
    from repro.tor import cell, layercrypto, ntor, relay
    from repro.tor import client as tor_client
    from repro.util import serialization
    from repro.workload import generator

    frame, op, patch = tracer.frame, tracer.op, tracer.patch

    def one(_args, _result, _state):
        return 1

    # Event kernel: Simulator.run returns the events it processed.
    patch(simulator.Simulator, "run", lambda f: frame(
        f, "netsim.simulator.run", units=lambda _a, result, _s: result))
    patch(simulator.SimTask, "__init__",
          lambda f: frame(f, "netsim.simulator.task"))

    # Links.
    patch(interface.Interface, "transmit",
          lambda f: frame(f, "netsim.interface.transmit"))
    for cls in (connection.Connection, connection.LoopbackConnection):
        patch(cls, "send", lambda f: frame(f, "netsim.connection.send"))

    # Tor cells, layer crypto, relays, circuit build, ntor.
    patch(cell.RelayCellPayload, "pack_buf",
          lambda f: frame(f, "tor.cell.pack"))
    patch(cell.RelayCellPayload, "pack", lambda f: frame(f, "tor.cell.pack"))
    patch(cell.RelayCellPayload, "unpack",
          lambda f: frame(f, "tor.cell.unpack"))
    for name in ("crypt_forward", "crypt_backward"):
        patch(layercrypto.HopCrypto, name,
              lambda f: frame(f, "tor.layercrypto", units=one))
    for name in ("crypt_forward_many", "crypt_backward_many"):
        patch(layercrypto.HopCrypto, name, lambda f: frame(
            f, "tor.layercrypto", units=lambda a, _r, _s: len(a[1])))
    for name in ("seal_payload", "open_payload"):
        patch(layercrypto.HopCrypto, name,
              lambda f: frame(f, "tor.layercrypto"))
    patch(relay.Relay, "_dispatch_cell",
          lambda f: frame(f, "tor.relay.dispatch"))
    patch(tor_client.TorClient, "build_circuit",
          lambda f: op(f, "tor.circuit.build"))
    patch(ntor.NtorClientState, "finish",
          lambda f: frame(f, "tor.ntor.handshake", span=True))

    # Crypto primitives.
    patch(dh.DiffieHellman, "__init__", lambda f: frame(f, "crypto.dh"))
    patch(dh.DiffieHellman, "shared_secret", lambda f: frame(f, "crypto.dh"))
    patch(rsa.RsaKeyPair, "sign", lambda f: frame(f, "crypto.rsa.sign"))
    patch(rsa.RsaPublicKey, "verify",
          lambda f: frame(f, "crypto.rsa.verify"))
    patch(rsa.RsaKeyPair, "generate",
          lambda f: frame(f, "crypto.rsa.generate"))
    for name in ("process", "process_many"):
        patch(stream.StreamCipher, name, lambda f: frame(f, "crypto.stream"))
    patch(stream.StreamCipher, "_extend", lambda f: frame(
        f, "crypto.stream", before=lambda a: a[0]._counter,
        units=lambda a, _r, c0: (a[0]._counter - c0) * stream._BLOCK))

    # Serialization and the core protocol.
    patch(serialization, "canonical_encode",
          lambda f: frame(f, "util.serialization.encode"))
    patch(serialization, "canonical_decode",
          lambda f: frame(f, "util.serialization.decode"))
    for name in ("encode_message", "decode_message", "error_message"):
        patch(messages, name, lambda f: frame(f, "core.messages"))
    patch(loader.FunctionRuntime, "load",
          lambda f: frame(f, "core.loader.load"))
    patch(container.Container, "start",
          lambda f: frame(f, "sandbox.container.start"))
    for name in CLIENT_OPS:
        patch(client.BentoClient if name == "connect" else client.BentoSession,
              name, lambda f, name=name: op(f, f"core.client.{name}"))
    patch(client.BentoClient, "connect_direct",
          lambda f: op(f, "core.client.connect"))

    # Enclave: attestation and the attested channel.
    patch(attestation.IntelAttestationService, "verify_quote",
          lambda f: frame(f, "enclave.attestation.verify_quote", span=True))
    for cls, name in ((conclave.Conclave, "begin_channel"),
                      (conclave.Conclave, "complete_channel"),
                      (conclave.Conclave, "client_channel"),
                      (conclave.SecureChannel, "seal"),
                      (conclave.SecureChannel, "open")):
        patch(cls, name, lambda f: frame(f, "enclave.conclave.channel"))

    # Serving plane: an admission attempt ends admitted or refused.
    admitted = tracer.stat("qos.admission.admitted")
    rejected = tracer.stat("qos.admission.rejected")

    def on_admit(_result):
        admitted.calls += 1

    def on_refuse(error):
        if isinstance(error, (ServerBusy, PuzzleRequired)):
            rejected.calls += 1

    patch(plane.ServingPlane, "admit_request", lambda f: op(
        f, "qos.admission.admit", on_result=on_admit, on_error=on_refuse))
    patch(plane.ServingPlane, "price_manifest",
          lambda f: _refusals(tracer, f, rejected, ServerBusy))

    patch(generator, "generate", lambda f: frame(f, "workload.generator"))


def _refusals(tracer: Tracer, fn, rejected, refusal) -> Any:
    """Count ``refusal`` exceptions ``fn`` raises as rejections."""
    wrapped = tracer.frame(fn, "qos.admission.price")

    def wrapper(*args, **kwargs):
        try:
            return wrapped(*args, **kwargs)
        except refusal:
            rejected.calls += 1
            raise

    return wrapper


_ZERO = {"calls": 0, "self_s": 0.0, "sim_s": 0.0, "failed": 0, "units": 0}


def stats_of(tracer: Tracer) -> dict[str, dict]:
    """The tracer's stats as plain data (name -> field -> value)."""
    return {name: {"calls": s.calls, "self_s": s.self_s, "sim_s": s.sim_s,
                   "failed": s.failed, "units": s.units}
            for name, s in tracer.stats.items()}


def cross_check(stats: dict[str, dict], counters: dict) -> list[str]:
    """Mismatches between wrapper counts and ``perf.counters``."""
    problems = []
    for stat_name, field, counter in CROSS_CHECKS:
        mine = stats.get(stat_name, _ZERO)[field]
        theirs = counters.get(counter, 0)
        if mine != theirs:
            problems.append(f"{stat_name}.{field}={mine} but perf.counters."
                            f"{counter}={theirs}")
    return problems


def cache_hit_rates(registry_snapshot: dict) -> dict:
    """Hit rate per cache layer from ``cache_{hits,misses}{layer=...}``."""
    hits = {layer: 0 for layer in CACHE_LAYERS}
    misses = dict(hits)
    for key, value in registry_snapshot.items():
        for prefix, store in (("cache_hits{", hits),
                              ("cache_misses{", misses)):
            if key.startswith(prefix) and 'layer="' in key:
                layer = key.split('layer="', 1)[1].split('"', 1)[0]
                if layer in store:
                    store[layer] += int(value)
    return {layer: (hits[layer] / (hits[layer] + misses[layer])
                    if hits[layer] + misses[layer] else 0.0)
            for layer in CACHE_LAYERS}


def layer_metrics(stats: dict[str, dict], counters: dict, caches: dict,
                  untraced_run_s: float,
                  traced_run_s: float) -> dict[str, float]:
    """The ``per_layer`` metric values of one traced pass (name -> value)."""
    def stat(name):
        return SimpleNamespace(**stats.get(name, _ZERO))

    out: dict[str, float] = {}
    dh = stat("crypto.dh")
    out["crypto.dh.calls"] = dh.calls
    out["crypto.dh.self_s"] = dh.self_s
    out["tor.ntor.handshakes"] = stat("tor.ntor.handshake").calls
    build = stat("tor.circuit.build")
    out["tor.circuit.build.calls"] = build.calls
    out["tor.circuit.build.self_s"] = build.self_s
    out["tor.circuit.build.sim_s"] = build.sim_s
    out["tor.circuit.build.failed"] = build.failed
    out["util.serialization.encode.self_s"] = stat(
        "util.serialization.encode").self_s
    out["util.serialization.decode.self_s"] = stat(
        "util.serialization.decode").self_s
    out["core.messages.self_s"] = stat("core.messages").self_s
    out["core.loader.load.self_s"] = stat("core.loader.load").self_s
    out["sandbox.container.start.self_s"] = stat(
        "sandbox.container.start").self_s
    for name in CLIENT_OPS:
        s = stat(f"core.client.{name}")
        for field in ("calls", "self_s", "sim_s", "failed"):
            out[f"core.client.{name}.{field}"] = getattr(s, field)
    out["core.client.retries"] = counters.get("retries", 0)
    verify = stat("enclave.attestation.verify_quote")
    out["enclave.attestation.verify_quote.calls"] = verify.calls
    out["enclave.attestation.verify_quote.self_s"] = verify.self_s
    out["enclave.conclave.channel.self_s"] = stat(
        "enclave.conclave.channel").self_s
    for name in ("sign", "verify", "generate"):
        out[f"crypto.rsa.{name}.self_s"] = stat(f"crypto.rsa.{name}").self_s
    cipher = stat("crypto.stream")
    out["crypto.stream.bytes"] = cipher.units
    out["crypto.stream.self_s"] = cipher.self_s
    layer = stat("tor.layercrypto")
    out["tor.layercrypto.cells"] = layer.units
    out["tor.layercrypto.self_s"] = layer.self_s
    out["tor.cell.pack.self_s"] = stat("tor.cell.pack").self_s
    out["tor.cell.unpack.self_s"] = stat("tor.cell.unpack").self_s
    out["tor.relay.dispatch.self_s"] = stat("tor.relay.dispatch").self_s
    transmit = stat("netsim.interface.transmit")
    out["netsim.interface.transmit.calls"] = transmit.calls
    out["netsim.interface.transmit.self_s"] = transmit.self_s
    send = stat("netsim.connection.send")
    out["netsim.connection.send.calls"] = send.calls
    out["netsim.connection.send.self_s"] = send.self_s
    out["netsim.connection.chunks_coalesced"] = counters.get(
        "chunks_coalesced", 0)
    out["netsim.connection.bulk_preemptions"] = counters.get(
        "bulk_preemptions", 0)
    events = stat("netsim.simulator.run").units
    out["netsim.simulator.events"] = events
    out["netsim.simulator.ns_per_event"] = (
        untraced_run_s * 1e9 / events if events else 0.0)
    out["netsim.simulator.task_switches"] = counters.get("task_switches", 0)
    admitted = stat("qos.admission.admitted").calls
    rejected = stat("qos.admission.rejected").calls
    out["qos.admission.admitted"] = admitted
    out["qos.admission.rejected"] = rejected
    out["qos.admission.shed"] = counters.get("qos_shed", 0)
    out["qos.admission.admit.sim_s"] = stat("qos.admission.admit").sim_s
    out["qos.admission.useful_frac"] = (
        admitted / (admitted + rejected) if admitted + rejected else 0.0)
    for name in CACHE_LAYERS:
        out[f"cache.{name}.hit_rate"] = caches.get(name, 0.0)
    out["workload.generator.self_s"] = stat("workload.generator").self_s
    out["trace.overhead_s"] = traced_run_s - untraced_run_s
    return out
