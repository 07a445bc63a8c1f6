"""Security properties of the function sandbox (§6): manifest gating,
seccomp kills, iptables blocks, resource exhaustion, isolation."""

import pytest

from repro.core.client import BentoClient
from repro.core.errors import BentoError
from repro.core.manifest import FunctionManifest
from repro.core.policy import MiddleboxNodePolicy
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.tor.exitpolicy import ExitPolicy
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread

MB = 1024 * 1024


def _single_box_net(seed, policy=None, exit_policy=None):
    net = TorTestNetwork(n_relays=6, seed=seed, bento_fraction=0.2)
    box = net.bento_boxes()[0]
    if exit_policy is not None:
        box.exit_policy = exit_policy
        box.register_with(net.authority)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.server = BentoServer(box, net.authority, ias=ias,
                             policy=policy or MiddleboxNodePolicy.open_policy())
    return net


def _loaded_session(thread, net, code, manifest):
    client = BentoClient(net.create_client(), ias=net.ias)
    session = yield from client.connect(thread, client.pick_box())
    yield from session.request_image(thread, manifest.image)
    yield from session.load_function(thread, code, manifest)
    return session


class TestManifestGating:
    def test_call_outside_manifest_kills_function(self):
        """§5.5: the sandbox is constrained to the manifest even when the
        operator's policy allows more."""
        net = _single_box_net("gate")
        code = "def sneaky():\n    yield from api.storage.put('/x', b'data')\n"
        manifest = FunctionManifest.create("sneaky", "sneaky", {"send"})

        def main(thread):
            session = yield from _loaded_session(thread, net, code, manifest)
            with pytest.raises(BentoError, match="not in manifest"):
                yield from session.invoke(thread, [])
            # The instance was killed, not just the call refused.
            assert net.server.active_function_count == 0

        run_thread(net, main)

    def test_allowed_calls_proceed(self):
        net = _single_box_net("gate-ok")
        code = "def fine():\n    yield from api.send(b'ok')\n    return 1\n"
        manifest = FunctionManifest.create("fine", "fine", {"send"})

        def main(thread):
            session = yield from _loaded_session(thread, net, code, manifest)
            assert (yield from session.invoke(thread, [])) == 1

        run_thread(net, main)


class TestCallingConvention:
    def test_plain_entry_refused_at_load(self):
        net = _single_box_net("plain-entry")
        manifest = FunctionManifest.create("f", "f", {"send"})

        def main(thread):
            with pytest.raises(BentoError, match="yield from"):
                yield from _loaded_session(
                    thread, net, "def f():\n    api.send(b'x')\n", manifest)

        run_thread(net, main)

    def test_plain_hidden_service_handler_refused(self):
        net = _single_box_net("plain-handler")
        code = ("def f():\n"
                "    yield from api.stem.create_hidden_service(\n"
                "        lambda stream, host, port: None)\n")
        manifest = FunctionManifest.create(
            "f", "f", {"stem.create_hidden_service"})

        def main(thread):
            session = yield from _loaded_session(thread, net, code, manifest)
            with pytest.raises(BentoError, match="TypeError"):
                yield from session.invoke(thread, [])

        run_thread(net, main)


class TestSeccomp:
    def test_operator_syscall_filter_kills(self):
        """An operator filtering `open` kills storage users at the first
        write — even though the *api call* was manifest-approved."""
        policy = MiddleboxNodePolicy(
            allowed_syscalls=frozenset(
                {"read", "write", "socket", "connect", "sendto", "recvfrom",
                 "nanosleep", "clock_gettime", "getrandom"}))
        net = _single_box_net("seccomp", policy=policy)
        code = "def writer():\n    yield from api.storage.put('/f', b'x')\n"
        # The manifest narrows syscalls to what the policy allows, so the
        # load passes; the per-call check must still fire.
        manifest = FunctionManifest.create(
            "writer", "writer", {"storage.put"}, disk_bytes=MB,
            syscalls={"write"})

        def main(thread):
            session = yield from _loaded_session(thread, net, code, manifest)
            with pytest.raises(BentoError, match="seccomp"):
                yield from session.invoke(thread, [])

        run_thread(net, main)


class TestIptables:
    def test_exit_policy_binds_functions(self):
        """§5.3: functions cannot reach destinations the relay's exit
        policy forbids."""
        net = _single_box_net("ipt", exit_policy=ExitPolicy.parse("accept *:80"))
        net.create_web_server("site.example", {"/": b"x"})   # serves on 443
        code = ("def f():\n"
                "    reply = yield from api.http_get('https://site.example/')\n"
                "    return reply.status\n")
        manifest = FunctionManifest.create("f", "f", {"http_get"})

        def main(thread):
            session = yield from _loaded_session(thread, net, code, manifest)
            with pytest.raises(BentoError, match="iptables"):
                yield from session.invoke(thread, [])

        run_thread(net, main)

    def test_allowed_destination_works(self):
        net = _single_box_net("ipt-ok", exit_policy=ExitPolicy.web_only())
        net.create_web_server("site.example", {"/": b"body"})
        code = ("def f():\n"
                "    reply = yield from api.http_get('https://site.example/')\n"
                "    return reply.status\n")
        manifest = FunctionManifest.create("f", "f", {"http_get"})

        def main(thread):
            session = yield from _loaded_session(thread, net, code, manifest)
            return (yield from session.invoke(thread, []))

        assert run_thread(net, main) == 200


class TestResourceExhaustion:
    def test_disk_hog_stopped(self):
        policy = MiddleboxNodePolicy(max_function_disk=10_000)
        net = _single_box_net("disk", policy=policy)
        code = ("def hog():\n"
                "    for i in range(100):\n"
                "        yield from api.storage.put('/f%d' % i, b'x' * 1000)\n"
                "    return 'filled'\n")
        manifest = FunctionManifest.create("hog", "hog", {"storage.put"},
                                           disk_bytes=10_000)

        def main(thread):
            session = yield from _loaded_session(thread, net, code, manifest)
            with pytest.raises(BentoError, match="function-crashed"):
                yield from session.invoke(thread, [])

        run_thread(net, main)

    def test_aggregate_memory_cap_protects_relay(self):
        """§6.2: many functions cannot collectively starve the machine —
        the parent cgroup rejects container creation past the total."""
        policy = MiddleboxNodePolicy(max_total_memory=40 * MB,
                                     max_containers=10)
        net = _single_box_net("total-mem", policy=policy)

        def main(thread):
            client = BentoClient(net.create_client(), ias=net.ias)
            box = client.pick_box()
            sessions = []
            with pytest.raises(BentoError):
                for _ in range(5):     # 5 x 16MB base > 40MB cap
                    session = yield from client.connect(thread, box)
                    yield from session.request_image(thread, "python")
                    sessions.append(session)
            assert 1 <= len(sessions) <= 2

        run_thread(net, main)


class TestIsolation:
    def test_functions_cannot_see_each_others_files(self):
        net = _single_box_net("iso")
        writer = ("def w():\n"
                  "    yield from api.storage.put('/secret', b'mine')\n"
                  "    return (yield from api.storage.list('/'))\n")
        reader = ("def r():\n"
                  "    return (yield from api.storage.list('/'))\n")
        w_manifest = FunctionManifest.create(
            "w", "w", {"storage.put", "storage.list"}, disk_bytes=MB)
        r_manifest = FunctionManifest.create(
            "r", "r", {"storage.list"}, disk_bytes=0)

        def main(thread):
            w_session = yield from _loaded_session(thread, net, writer, w_manifest)
            assert (yield from w_session.invoke(thread, [])) == ["/secret"]
            r_session = yield from _loaded_session(thread, net, reader, r_manifest)
            assert (yield from r_session.invoke(thread, [])) == []

        run_thread(net, main)

    def test_stem_circuits_isolated_between_functions(self):
        net = _single_box_net("stem-iso")
        creator = ("def c():\n"
                   "    return (yield from api.stem.new_circuit())\n")
        hijacker = ("def h(circuit_id):\n"
                    "    yield from api.stem.close_circuit(circuit_id)\n")
        c_manifest = FunctionManifest.create("c", "c", {"stem.new_circuit"})
        h_manifest = FunctionManifest.create("h", "h", {"stem.close_circuit"})

        def main(thread):
            c_session = yield from _loaded_session(thread, net, creator, c_manifest)
            circuit_id = yield from c_session.invoke(thread, [])
            h_session = yield from _loaded_session(thread, net, hijacker, h_manifest)
            with pytest.raises(BentoError, match="does not own"):
                yield from h_session.invoke(thread, [circuit_id])

        run_thread(net, main)

    def test_function_upload_is_sealed_against_operator(self):
        """With the SGX image, the code crosses the wire only inside the
        attested channel: the LOAD_FUNCTION frame carries no plaintext."""
        from repro.core import messages as msg
        from repro.netsim.bytestream import FramedStream

        net = _single_box_net("sealed")
        captured = []
        original = FramedStream.send_frame

        def spy(self, frame):
            captured.append(frame)
            return original(self, frame)

        FramedStream.send_frame = spy
        try:
            code = ("very_secret_marker = 'inside'\n"
                    "def f():\n"
                    "    yield from ()\n"
                    "    return len(very_secret_marker)\n")
            manifest = FunctionManifest.create("f", "f", {"send"},
                                               image="python-op-sgx")

            def main(thread):
                session = yield from _loaded_session(thread, net, code, manifest)
                return (yield from session.invoke(thread, []))

            assert run_thread(net, main) == 6
        finally:
            FramedStream.send_frame = original
        assert not any(b"very_secret_marker" in frame for frame in captured)
