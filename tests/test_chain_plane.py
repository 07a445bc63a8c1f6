"""Chain plane: templates, the joint embedding engine, and deployment.

Covers the template/overlay split (strict validation, canonical digests,
hypothesis round-trip properties), the joint-vs-greedy placement
contrast, and end-to-end chains through real attested sessions —
including re-embedding around a crashed box and drain-then-migrate
delegation for replicas that relocate off live boxes.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import (
    ArcSpec,
    ChainDeployment,
    ChainSpec,
    ChainSpecError,
    ComponentSpec,
    EmbedConfig,
    apply_transform,
    embed,
    fanout_chain,
    greedy_embed,
    pipeline_chain,
)
from repro.core import BentoClient, BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.migrate import MigrationConfig
from repro.netsim.faults import FaultPlane
from repro.perf.counters import counters as _perf
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


def linear_spec(n: int = 3, rate: float = 4.0, capacity: float = 2.0,
                stateful_tail: bool = True) -> ChainSpec:
    comps = []
    arcs = []
    for i in range(n):
        tail = stateful_tail and i == n - 1
        comps.append(ComponentSpec(
            name=f"c{i}", capacity_units_per_s=capacity,
            stateful=tail, max_replicas=1 if tail else 4))
        if i:
            arcs.append(ArcSpec(src=f"c{i-1}", dst=f"c{i}",
                                rate_units_per_s=rate))
    return ChainSpec(name="lin", components=tuple(comps), arcs=tuple(arcs))


def fake_boxes(n: int) -> list[SimpleNamespace]:
    return [SimpleNamespace(identity_fp=f"FP{i:02d}") for i in range(n)]


class TestChainTemplate:
    def test_round_trip_and_digest(self):
        spec = pipeline_chain()
        again = ChainSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_digest_ignores_key_order(self):
        spec = pipeline_chain()
        data = json.loads(spec.to_json())
        shuffled = {k: data[k] for k in reversed(sorted(data))}
        shuffled["components"] = [
            {k: c[k] for k in reversed(sorted(c))}
            for c in shuffled["components"]]
        assert ChainSpec.from_dict(shuffled).digest() == spec.digest()

    def test_rejects_bad_graphs(self):
        a = ComponentSpec(name="a")
        b = ComponentSpec(name="b")
        with pytest.raises(ChainSpecError, match="cycle"):
            ChainSpec(name="x",
                      components=(a, b, ComponentSpec(name="c"),
                                  ComponentSpec(name="d")),
                      arcs=(ArcSpec(src="a", dst="b", rate_units_per_s=1),
                            ArcSpec(src="b", dst="c", rate_units_per_s=1),
                            ArcSpec(src="c", dst="b", rate_units_per_s=1),
                            ArcSpec(src="b", dst="d", rate_units_per_s=1)))
        with pytest.raises(ChainSpecError, match="dangles"):
            ChainSpec(name="x", components=(a,),
                      arcs=(ArcSpec(src="a", dst="ghost",
                                    rate_units_per_s=1),))
        with pytest.raises(ChainSpecError, match="zero rate"):
            ArcSpec(src="a", dst="b", rate_units_per_s=0.0)
        with pytest.raises(ChainSpecError, match="duplicate arc"):
            ChainSpec(name="x", components=(a, b),
                      arcs=(ArcSpec(src="a", dst="b", rate_units_per_s=1),
                            ArcSpec(src="a", dst="b", rate_units_per_s=2)))
        with pytest.raises(ChainSpecError, match="stateful"):
            ComponentSpec(name="s", stateful=True, max_replicas=2)
        with pytest.raises(ChainSpecError, match="unreachable"):
            ChainSpec(name="x", components=(a, b, ComponentSpec(name="c")),
                      arcs=(ArcSpec(src="a", dst="b", rate_units_per_s=1),),
                      sources=("a",))

    def test_strict_parsing(self):
        data = json.loads(pipeline_chain().to_json())
        data["surprise"] = 1
        with pytest.raises(ChainSpecError, match="unknown keys"):
            ChainSpec.from_dict(data)

    def test_transform_oracle(self):
        assert apply_transform("relay", b"abc") == b"abc"
        assert apply_transform("pad:2", b"abc") == b"abc\x00\x00"
        assert apply_transform("strip:2", b"abc\x00\x00") == b"abc"
        assert apply_transform("xor:1", b"\x00\x01") == b"\x01\x00"
        with pytest.raises(ChainSpecError):
            apply_transform("zip:9", b"x")

    def test_path_transforms(self):
        spec = pipeline_chain(pad_bytes=8)
        assert spec.path_transforms("store") == ["pad:8", "strip:8", "relay"]
        payload = b"unit-payload"
        out = payload
        for t in spec.path_transforms("store"):
            out = apply_transform(t, out)
        assert out == payload

    def test_embed_order_is_topological(self):
        spec = linear_spec(4)
        assert spec.embed_order() == ["c0", "c1", "c2", "c3"]


# -- hypothesis properties --------------------------------------------------

_rates = st.floats(min_value=0.5, max_value=64.0, allow_nan=False,
                   allow_infinity=False)
_transforms = st.sampled_from(["relay", "pad:16", "strip:4", "xor:7"])


@st.composite
def chain_specs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    comps = []
    for i in range(n):
        stateful = i == n - 1 and draw(st.booleans())
        comps.append(ComponentSpec(
            name=f"f{i}",
            cpu_ms_per_unit=draw(st.floats(min_value=0.0, max_value=8.0)),
            memory_bytes=draw(st.integers(min_value=1024,
                                          max_value=8 * 1024 * 1024)),
            capacity_units_per_s=draw(_rates),
            stateful=stateful,
            max_replicas=1 if stateful
            else draw(st.integers(min_value=1, max_value=6)),
            transform="relay" if i else draw(_transforms)))
    arcs = tuple(ArcSpec(src=f"f{i}", dst=f"f{i+1}",
                         rate_units_per_s=draw(_rates),
                         unit_bytes=draw(st.integers(min_value=64,
                                                     max_value=65536)),
                         bidirectional=draw(st.booleans()),
                         mode=draw(st.sampled_from(["split", "copy"])))
                 for i in range(n - 1))
    return ChainSpec(name=draw(st.text(
        alphabet="abcdefgh-", min_size=1, max_size=12).filter(
            lambda s: s.strip("-"))), components=tuple(comps), arcs=arcs)


class TestChainSpecProperties:
    @settings(max_examples=40, deadline=None)
    @given(spec=chain_specs())
    def test_json_round_trip_identity(self, spec):
        assert ChainSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=40, deadline=None)
    @given(spec=chain_specs())
    def test_digest_stable_under_key_reordering(self, spec):
        data = json.loads(spec.to_json())

        def reorder(obj):
            if isinstance(obj, dict):
                return {k: reorder(obj[k]) for k in reversed(sorted(obj))}
            if isinstance(obj, list):
                return [reorder(v) for v in obj]
            return obj

        assert ChainSpec.from_dict(reorder(data)).digest() == spec.digest()

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(max_value=0.0, allow_nan=False))
    def test_nonpositive_rates_rejected(self, rate):
        with pytest.raises(ChainSpecError):
            ArcSpec(src="a", dst="b", rate_units_per_s=rate)

    @settings(max_examples=20, deadline=None)
    @given(spec=chain_specs())
    def test_cycles_rejected_when_disallowed(self, spec):
        back = ArcSpec(src=spec.components[-1].name,
                       dst=spec.components[0].name, rate_units_per_s=1.0)
        with pytest.raises(ChainSpecError):
            ChainSpec(name=spec.name, components=spec.components,
                      arcs=spec.arcs + (back,))


# -- the embedding engine ---------------------------------------------------

class TestEmbed:
    def test_replica_counts_scale_with_rate(self):
        overlay = embed(linear_spec(rate=4.0, capacity=2.0), fake_boxes(4), {})
        counts = overlay.objective["replica_counts"]
        assert counts == {"c0": 2, "c1": 2, "c2": 1}   # c2 stateful -> 1

    def test_same_inputs_bit_identical(self):
        spec = pipeline_chain()
        boxes = fake_boxes(5)
        table = {"FP01": {"slots_free": 3, "queue_len": 2, "shedding": False,
                          "mem_free": 32 * 1024 * 1024}}
        a = embed(spec, boxes, table)
        b = embed(spec, list(reversed(boxes)), dict(table))
        assert a.digest() == b.digest()

    def test_joint_spreads_greedy_piles(self):
        spec = linear_spec(rate=4.0, capacity=2.0)
        boxes = fake_boxes(4)
        joint = embed(spec, boxes, {})
        greedy = greedy_embed(spec, boxes, {})
        assert len(joint.boxes_used()) > len(greedy.boxes_used())
        assert len(greedy.boxes_used()) == 1
        assert (joint.objective["peak_box_units_per_s"]
                < greedy.objective["peak_box_units_per_s"])

    def test_exclude_and_pin(self):
        spec = linear_spec()
        boxes = fake_boxes(4)
        overlay = embed(spec, boxes, {}, exclude_fps=("FP00",))
        assert "FP00" not in overlay.boxes_used()
        pinned = {("c2", 0): "FP03"}
        overlay = embed(spec, boxes, {}, pinned=pinned)
        assert overlay.replicas_of("c2")[0].box_fp == "FP03"

    def test_shedding_box_avoided(self):
        spec = linear_spec()
        boxes = fake_boxes(3)
        table = {"FP00": {"slots_free": 8, "queue_len": 0, "shedding": True,
                          "mem_free": 64 * 1024 * 1024}}
        overlay = embed(spec, boxes, {}, EmbedConfig(), )
        overlay = embed(spec, boxes, table)
        assert "FP00" not in overlay.boxes_used()

    def test_flows_cover_every_arc(self):
        spec = pipeline_chain()
        overlay = embed(spec, fake_boxes(4), {})
        for arc in spec.arcs:
            flows = overlay.flows_of(arc.key)
            assert flows
            total = sum(f.rate_units_per_s for f in flows)
            assert total == pytest.approx(arc.rate_units_per_s, rel=1e-6)


# -- deployment through the real stack --------------------------------------

@pytest.fixture()
def chain_net():
    net = TorTestNetwork(n_relays=12, seed="chain-plane",
                         bento_fraction=0.42)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(relay, net.authority, ias=ias,
                               migrate=MigrationConfig(quiesce_poll_s=0.05))
                   for relay in net.bento_boxes()]
    net.plane = FaultPlane(net.network)
    _perf.reset()
    return net


def deployment_for(net, spec, name="chain-op"):
    client = BentoClient(net.create_client(name), ias=net.ias)
    servers = {s.relay.fingerprint: s for s in net.servers}
    return ChainDeployment(client, spec, servers=servers)


def nickname_of(net, box_fp):
    for server in net.servers:
        if server.relay.fingerprint == box_fp:
            return server.relay.nickname
    raise AssertionError(box_fp)


class TestChainDeployment:
    def test_pipeline_end_to_end(self, chain_net):
        spec = pipeline_chain(pad_bytes=32)
        dep = deployment_for(chain_net, spec)

        def main(task):
            yield from dep.deploy(task)
            expect = dep.expected_outputs(b"unit-0")
            for i in range(3):
                payload = f"unit-{i}".encode()
                out = yield from dep.push(task, payload)
                assert out == {"store": payload}
            stats = yield from dep.shutdown(task)
            assert sum(s["processed"] for s in stats.values() if s) >= 9
            assert expect == {"store": b"unit-0"}

        run_thread(chain_net, main)
        assert _perf.chain_units_delivered == 3
        assert _perf.chain_arc_bytes > 0
        assert _perf.chain_embeds == 1
        assert dep.overlay.engine == "joint"

    def test_fanout_copy_reaches_every_sink(self, chain_net):
        spec = fanout_chain(n_dropboxes=2)
        dep = deployment_for(chain_net, spec)

        def main(task):
            yield from dep.deploy(task)
            out = yield from dep.push(task, b"fan-unit")
            assert out == dep.expected_outputs(b"fan-unit")
            assert set(out) == {"dropbox0", "dropbox1"}
            yield from dep.shutdown(task)

        run_thread(chain_net, main)

    def test_reembed_after_box_crash(self, chain_net):
        spec = pipeline_chain()
        dep = deployment_for(chain_net, spec)

        def main(task):
            yield from dep.deploy(task)
            yield from dep.push(task, b"before")
            # The stateful store has exactly one replica, so every unit
            # crosses it — crashing its box forces the failure path.
            victim_fp = dep.overlay.replicas_of("store")[0].box_fp
            chain_net.plane.crash_node(nickname_of(chain_net, victim_fp))
            out = yield from dep.push(task, b"after", deadline_s=300.0)
            assert out == {"store": b"after"}
            assert victim_fp in dep._excluded
            assert victim_fp not in dep.overlay.boxes_used()

        run_thread(chain_net, main)
        assert _perf.chain_reembeds == 1
        assert _perf.chain_units_delivered == 2

    def test_reembed_drains_live_movers(self, chain_net):
        """A live replica the new overlay relocates moves via the migrate
        plane (state ships, tokens adopted), not cold respawn."""
        spec = pipeline_chain()
        dep = deployment_for(chain_net, spec)

        def main(task):
            yield from dep.deploy(task)
            yield from dep.push(task, b"warm")
            # Make one hosting box unattractive: it advertises shedding,
            # so the re-embed relocates its stateless replicas.
            victim_fp = dep.overlay.replicas_of("cover")[0].box_fp
            chain_net.authority.advertise_load(victim_fp, {
                "slots_free": 0, "queue_len": 9, "shedding": True,
                "mem_free": 0})
            yield from dep.reembed(task)
            assert victim_fp not in {
                r.box_fp for r in dep.overlay.replicas
                if not spec.component(r.component).stateful}
            out = yield from dep.push(task, b"moved")
            assert out == {"store": b"moved"}

        run_thread(chain_net, main)
        assert _perf.migrations_completed >= 1
        assert _perf.chain_reembeds == 1

    def test_same_seed_deploys_bit_identical(self):
        digests = []
        for _ in range(2):
            net = TorTestNetwork(n_relays=12, seed="chain-det",
                                 bento_fraction=0.42)
            ias = IntelAttestationService(net.sim.rng.fork("ias"))
            net.ias = ias
            net.servers = [BentoServer(relay, net.authority, ias=ias)
                           for relay in net.bento_boxes()]
            _perf.reset()
            dep = deployment_for(net, pipeline_chain())

            def main(task, dep=dep):
                yield from dep.deploy(task)
                yield from dep.push(task, b"det")
                yield from dep.shutdown(task)

            run_thread(net, main)
            digests.append((dep.overlay.digest(), net.sim.now))
        assert digests[0] == digests[1]

    def test_plane_off_counters_stay_zero(self, chain_net):
        """Nothing in an ordinary session touches chain_* counters."""
        client = BentoClient(chain_net.create_client("plain"),
                             ias=chain_net.ias)

        def main(task):
            box = client.pick_box()
            session = yield from client.connect_direct(task, box)
            yield from session.request_image(task, "python", verify="none")
            yield from session.load_function(
                task, "def f(x):\n    yield from ()\n    return x\n",
                __import__("repro.core.manifest",
                           fromlist=["FunctionManifest"])
                .FunctionManifest.create("f", "f", set()))
            assert (yield from session.invoke(task, [5])) == 5
            yield from session.shutdown(task)
            session.close()

        run_thread(chain_net, main)
        assert _perf.chain_embeds == 0
        assert _perf.chain_reembeds == 0
        assert _perf.chain_arc_bytes == 0
        assert _perf.chain_units_delivered == 0
