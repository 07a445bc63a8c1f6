"""Shared fixtures: small, fast networks reused across test modules."""

from __future__ import annotations

import pytest

from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.obs.testing import fresh_observability
from repro.tor.testnet import TorTestNetwork


@pytest.fixture(autouse=True)
def _fresh_observability():
    """No cross-test bleed through the process-wide instrumentation.

    Shared with ``benchmarks/conftest.py`` via
    :mod:`repro.obs.testing` so the two harnesses reset identically.
    """
    with fresh_observability():
        yield


@pytest.fixture()
def testnet():
    """A fresh 9-relay Tor network (function-scoped: tests mutate it)."""
    return TorTestNetwork(n_relays=9, seed="pytest")


@pytest.fixture()
def bento_net():
    """A network with Bento boxes, servers, and an IAS, ready for clients."""
    net = TorTestNetwork(n_relays=9, seed="pytest-bento", bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    servers = [BentoServer(relay, net.authority, ias=ias)
               for relay in net.bento_boxes()]
    net.ias = ias
    net.bento_servers = servers
    return net


def run_thread(net, fn, name="test", until=None):
    """Spawn ``fn`` as an actor and run the simulation to completion."""
    thread = net.sim.spawn(fn, name=name)
    return net.sim.run_until_done(thread, until=until)
