"""Browser: offload web fetching to defeat website fingerprinting (§7).

    "The insight behind the Browser function is that the adversary cannot
    observe identifiable behaviors if the user is not the one running the
    web client!  Browser runs the web client on a separate Bento box (an
    exit node, in this case).  The function then packages up the entire
    webpage and ships it back to the client.  The size of the page alone
    can reveal information about it, so Browser pads this up to a given
    multiple of bytes."

The uploaded source follows Appendix A's shape (fetch, compress, pad to a
multiple, ``api.send``), extended to pull a page's subresources the way a
real browser would.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor

MB = 1024 * 1024

BROWSER_SOURCE = r'''
import zlib

def _host_of(url):
    scheme, rest = url.split("://", 1)
    return rest.split("/", 1)[0]

def browser(url, padding):
    # Fetch contents of site (the page plus every subresource it lists),
    # over one keep-alive connection like a real web client.
    yield from api.log("browser: fetching " + url)
    session = yield from api.http_session(_host_of(url))
    first = yield from session.get("/" + url.split("://", 1)[1].partition("/")[2])
    blobs = [first.body]
    for line in first.body.decode("latin-1", "replace").splitlines():
        line = line.strip()
        if line.startswith("/"):
            sub = yield from session.get(line)
            blobs.append(sub.body)
    session.close()

    # Compress contents into a single digest file.
    digest = b"".join(blobs)
    compressed = zlib.compress(digest, 1)

    # Pad to nearest multiple of 'padding'.
    final = compressed
    if padding > 0:
        remainder = len(final) % padding
        if remainder != 0:
            pad = yield from api.random_bytes(padding - remainder)
            final = final + pad

    yield from api.send(final)
    return {"resources": len(blobs), "page_bytes": len(digest),
            "sent_bytes": len(final)}
'''


class BrowserFunction:
    """Host-side helper: manifest, deployment, and response unpacking."""

    SOURCE = BROWSER_SOURCE
    API_CALLS = frozenset({"http_get", "send", "log", "random"})

    @classmethod
    def manifest(cls, image: str = "python-op-sgx",
                 memory_bytes: int = 4 * MB) -> FunctionManifest:
        """The manifest a Browser upload ships with."""
        return FunctionManifest.create(
            name="browser", entry="browser", api_calls=cls.API_CALLS,
            image=image, memory_bytes=memory_bytes)

    @staticmethod
    def unpack(blob: bytes) -> bytes:
        """Strip the random padding and decompress the page digest.

        zlib streams are self-terminating, so the trailing random bytes
        fall away naturally.
        """
        decompressor = zlib.decompressobj()
        return decompressor.decompress(blob)

    @staticmethod
    def fetch(thread: Actor, session, url: str, padding: int,
              timeout: float = 1200.0) -> tuple[bytes, dict]:
        """Invoke a loaded Browser and return (page_digest, stats).

        ``session`` is a :class:`~repro.core.client.BentoSession` that has
        already loaded :data:`BROWSER_SOURCE`.
        """
        from repro.core import messages

        session.framed.send_frame(
            _invoke_frame(session.invocation_token, [url, padding]))
        blob = yield from session.next_output(thread, timeout=timeout)
        done = yield from session.await_message(thread, messages.DONE, timeout)
        return BrowserFunction.unpack(blob), done["result"]


def _invoke_frame(token: Optional[str], args: list) -> bytes:
    from repro.core import messages

    return messages.encode_message(messages.INVOKE, token=token, args=args)
