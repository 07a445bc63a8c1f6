"""Reliable, ordered, message-oriented connections.

A :class:`Connection` models a TCP (or TLS) connection between two nodes.
Messages are Python objects with an explicit wire size; large messages are
chunked through the sender's uplink and the receiver's downlink so that
concurrent connections share bandwidth fairly.  An optional *windowed* send
models TCP slow start, which is what makes small transfers RTT-bound — the
effect behind Table 2's "Browser beats standard Tor on small pages" result.

Large messages on *uncontended* interfaces take a coalesced fast path: the
entire per-chunk event cascade is computed up front (with the same float
arithmetic the chunked path would use, so all completion times are
bit-identical) and replaced by a single delivery event.  The moment any
other flow touches either interface, the bulk transfer is preempted — the
interfaces are rolled back to exactly the chunked-world state and the
remaining chunks continue through the ordinary paced path, which is what
keeps the fairness results identical.  Set :data:`COALESCE` to ``False``
to force the chunked path everywhere (used by the equivalence tests).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.netsim.node import Node
from repro.netsim.simulator import Future, Simulator, Wait
from repro.obs.span import TRACER as _obs
from repro.perf.counters import counters as _perf

# Chunk size for interleaving concurrent flows on an interface.  Small
# messages (e.g. 514-byte Tor cells) are never split.
DEFAULT_CHUNK = 4096

# Global switch for the coalesced bulk-transfer fast path.
COALESCE = True

MessageHandler = Callable[["Connection", Any, int], None]
CloseHandler = Callable[["Connection"], None]


class ConnectionClosed(Exception):
    """Raised when sending on (or waiting to receive from) a closed connection."""


def _message_size(payload: Any, size: Optional[int]) -> int:
    """Wire size of a payload: explicit ``size``, or ``len`` for bytes."""
    if size is not None:
        return int(size)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    raise TypeError("non-bytes payloads need an explicit size")


class Endpoint:
    """One side's view of a connection: handlers plus a receive queue."""

    def __init__(self, sim: Simulator) -> None:
        self.on_message: Optional[MessageHandler] = None
        self.on_close: Optional[CloseHandler] = None
        self._queue: deque[tuple[Any, int]] = deque()
        self._waiter: Optional[Future] = None
        self._sim = sim
        self._closed = False

    def _deliver(self, conn: "Connection", payload: Any, size: int) -> None:
        if self.on_message is not None:
            self.on_message(conn, payload, size)
            return
        self._queue.append((payload, size))
        if self._waiter is not None and not self._waiter.done:
            self._waiter.resolve(None)

    def _notify_close(self, conn: "Connection") -> None:
        self._closed = True
        if self._waiter is not None and not self._waiter.done:
            self._waiter.resolve(None)
        if self.on_close is not None:
            self.on_close(conn)


class _BulkTransfer:
    """One coalesced multi-chunk message in flight on a pair of interfaces.

    All chunk serialization times are precomputed with the identical float
    operations the chunked cascade performs (``max`` against the busy
    horizon, one division per chunk), the interfaces' busy horizons are
    committed to the final values, and a single delivery event replaces the
    per-chunk events.  :meth:`preempt` undoes the not-yet-earned part of
    that commitment, fires the taps the chunked path would already have
    fired, and hands the remaining chunks back to the paced chunked path —
    producing bit-identical timings with or without contention.
    """

    __slots__ = ("conn", "sender", "receiver", "payload", "nbytes", "on_sent",
                 "chunks", "uplink", "downlink", "U", "A", "D", "down_busy0",
                 "delivery_event", "on_sent_event", "on_sent_fired", "span")

    @classmethod
    def try_grant(cls, conn: "Connection", sender: Node, receiver: Node,
                  payload: Any, nbytes: int, chunks: list[int],
                  on_sent: Optional[Callable[[], None]]) -> Optional["_BulkTransfer"]:
        """Coalesce if neither interface already carries a bulk transfer."""
        uplink = sender.uplink
        downlink = receiver.downlink
        if uplink._bulk is not None or downlink._bulk is not None \
                or uplink is downlink:
            return None
        bulk = cls(conn, sender, receiver, payload, nbytes, chunks, on_sent)
        uplink._bulk = bulk
        downlink._bulk = bulk
        _perf.bulk_grants += 1
        _perf.chunks_coalesced += len(chunks)
        return bulk

    def __init__(self, conn: "Connection", sender: Node, receiver: Node,
                 payload: Any, nbytes: int, chunks: list[int],
                 on_sent: Optional[Callable[[], None]]) -> None:
        self.conn = conn
        self.sender = sender
        self.receiver = receiver
        self.payload = payload
        self.nbytes = nbytes
        self.on_sent = on_sent
        self.chunks = chunks
        sim = conn.sim
        uplink = sender.uplink
        downlink = receiver.downlink
        self.uplink = uplink
        self.downlink = downlink
        latency = conn.latency
        up_rate = uplink.rate
        down_rate = downlink.rate
        # Same arithmetic, chunk by chunk, as Interface.transmit would do.
        U: list[float] = []        # uplink serialization finish per chunk
        prev = max(sim.now, uplink._busy_until)
        for chunk in chunks:
            prev = prev + chunk / up_rate
            U.append(prev)
        A = [u + latency for u in U]   # arrival at the receiver's downlink
        D: list[float] = []            # downlink serialization finish
        self.down_busy0 = dprev = downlink._busy_until
        for a, chunk in zip(A, chunks):
            dprev = max(a, dprev) + chunk / down_rate
            D.append(dprev)
        self.U, self.A, self.D = U, A, D
        # Commit both interfaces to the full message.
        uplink._busy_until = U[-1]
        uplink.bytes_total += nbytes
        downlink._busy_until = D[-1]
        downlink.bytes_total += nbytes
        self.on_sent_fired = False
        if on_sent is not None:
            self.on_sent_event = sim.schedule_at(U[-1], self._fire_on_sent)
        else:
            self.on_sent_event = None
        self.delivery_event = sim.schedule_at(D[-1], self._complete)
        log = _obs.log
        if log is not None:
            self.span = log.begin_span(
                "netsim.bulk_transfer", sim.now, track=sender.name,
                sender=sender.name, receiver=receiver.name,
                bytes=nbytes, chunks=len(chunks))
        else:
            self.span = None

    # -- uncontended completion ------------------------------------------

    def _fire_on_sent(self) -> None:
        self.on_sent_fired = True
        self.on_sent()

    def _complete(self) -> None:
        """Delivery: detach, fire the deferred taps, hand the payload over."""
        self.uplink._bulk = None
        self.downlink._bulk = None
        chunks = self.chunks
        if self.uplink._taps:
            for finish, chunk in zip(self.U, chunks):
                for tap in self.uplink._taps:
                    tap(finish, chunk)
        if self.downlink._taps:
            for finish, chunk in zip(self.D, chunks):
                for tap in self.downlink._taps:
                    tap(finish, chunk)
        if self.span is not None:
            self.span.end(self.conn.sim.now, outcome="delivered")
        self.conn._deliver(self.receiver, self.payload, self.nbytes)

    # -- contention -------------------------------------------------------

    def preempt(self) -> None:
        """Roll back to the exact chunked-world state at the current time.

        Called (synchronously, via :meth:`Interface.transmit`) the moment
        any other flow wants line time on either interface.  Chunks the
        chunked path would already have committed stay committed (taps
        fire now with the precomputed values); everything else is undone
        and rescheduled through the ordinary paced path.
        """
        conn = self.conn
        sim = conn.sim
        t = sim.now
        uplink = self.uplink
        downlink = self.downlink
        uplink._bulk = None
        downlink._bulk = None
        self.delivery_event.cancel()
        U, A, D, chunks = self.U, self.A, self.D, self.chunks
        last = len(chunks) - 1
        # Uplink: chunk i has started serializing iff the chunked pacing
        # event for it (at U[i-1]; chunk 0 at the send call) has run.
        started = last
        while started > 0 and U[started - 1] > t:
            started -= 1
        uplink._busy_until = U[started]
        uplink.bytes_total -= sum(chunks[started + 1:])
        if uplink._taps:
            for i in range(started + 1):
                for tap in uplink._taps:
                    tap(U[i], chunks[i])
        # Downlink: chunk i has been serialized toward the receiver iff its
        # arrival event (at A[i]) has run.
        arrived = -1
        for i in range(last + 1):
            if A[i] <= t:
                arrived = i
            else:
                break
        downlink._busy_until = D[arrived] if arrived >= 0 else self.down_busy0
        downlink.bytes_total -= sum(chunks[arrived + 1:])
        if downlink._taps:
            for i in range(arrived + 1):
                for tap in downlink._taps:
                    tap(D[i], chunks[i])
        # Chunks serialized (or serializing) on the uplink but not yet
        # arrived get their chunked-world arrival events back.
        for i in range(arrived + 1, started + 1):
            if i == last:
                sim.schedule_at(A[i], downlink.transmit, chunks[i],
                                conn._deliver, 0.0,
                                (self.receiver, self.payload, self.nbytes))
            else:
                sim.schedule_at(A[i], downlink.transmit, chunks[i])
        if started < last:
            # Remaining chunks resume through the paced chunked path at the
            # moment the chunked world would have started the next one.
            if self.on_sent_event is not None:
                self.on_sent_event.cancel()
            sim.schedule_at(U[started], conn._run_chunks, self.sender,
                            self.receiver, self.payload, self.nbytes,
                            self.on_sent, chunks, started + 1)
        elif arrived == last:
            # Fully serialized and arrived; only delivery was pending.
            sim.schedule_at(D[last], conn._deliver, self.receiver,
                            self.payload, self.nbytes)
        # started == last: the (still pending) on_sent event stays scheduled
        # at U[last], exactly where the chunked world would have put it.
        _perf.bulk_preemptions += 1
        if self.span is not None:
            self.span.end(t, outcome="preempted",
                          chunks_started=started + 1, chunks_arrived=arrived + 1)


class Connection:
    """A bidirectional reliable channel between two nodes.

    Create via :meth:`repro.netsim.network.Network.connect` (which models
    the connection-establishment round trip) rather than directly.
    """

    def __init__(self, sim: Simulator, initiator: Node, responder: Node,
                 latency_s: float, chunk_size: int = DEFAULT_CHUNK) -> None:
        self.sim = sim
        self.initiator = initiator
        self.responder = responder
        self.latency = latency_s
        self.chunk_size = chunk_size
        self.closed = False
        self._endpoints = {initiator.name: Endpoint(sim), responder.name: Endpoint(sim)}
        self._peers = {initiator.name: responder, responder.name: initiator}
        self.bytes_sent = {initiator.name: 0, responder.name: 0}
        initiator.connections[self] = None
        responder.connections[self] = None
        log = _obs.log
        if log is not None:
            self._span = log.begin_span(
                "netsim.connection", sim.now, track=initiator.name,
                initiator=initiator.name, responder=responder.name)
        else:
            self._span = None

    # -- wiring ---------------------------------------------------------

    def endpoint_of(self, node: Node) -> Endpoint:
        """The endpoint owned by ``node`` (KeyError for strangers)."""
        return self._endpoints[node.name]

    def peer_of(self, node: Node) -> Node:
        """The node on the other side."""
        try:
            return self._peers[node.name]
        except KeyError:
            raise KeyError(
                f"{node.name} is not an endpoint of this connection") from None

    @property
    def rtt(self) -> float:
        """Round-trip propagation time of this connection."""
        return 2.0 * self.latency

    # -- sending ----------------------------------------------------------

    def send(self, sender: Node, payload: Any, size: Optional[int] = None,
             on_sent: Optional[Callable[[], None]] = None) -> None:
        """Send ``payload`` from ``sender`` to the peer.

        ``size`` defaults to ``len(payload)`` for byte strings.  The payload
        is delivered to the peer endpoint after serialization through both
        interfaces plus propagation latency.  ``on_sent`` fires when the
        sender's uplink has finished serializing (used for backpressure).
        """
        if self.closed:
            raise ConnectionClosed(f"send on closed connection {self!r}")
        receiver = self._peers[sender.name]
        if size is not None:
            nbytes = size
        elif isinstance(payload, (bytes, bytearray)):
            nbytes = len(payload)
        else:
            raise TypeError("non-bytes payloads need an explicit size")
        self.bytes_sent[sender.name] += nbytes
        if nbytes <= self.chunk_size:
            # Single chunk (every Tor cell): no pacing events needed.
            finish = sender.uplink.transmit(
                nbytes, self._chunk_arrived, self.latency,
                (receiver, payload, nbytes, nbytes))
            if on_sent is not None:
                self.sim.schedule_at(finish, on_sent)
            return
        chunk_size = self.chunk_size
        chunks = []
        remaining = nbytes
        while remaining > chunk_size:
            chunks.append(chunk_size)
            remaining -= chunk_size
        chunks.append(remaining)
        if COALESCE and _BulkTransfer.try_grant(
                self, sender, receiver, payload, nbytes, chunks, on_sent):
            return
        self._run_chunks(sender, receiver, payload, nbytes, on_sent, chunks, 0)

    def _chunk_arrived(self, receiver: Node, payload: Any, nbytes: int,
                       chunk: int) -> None:
        """Final chunk reached the receiver: serialize down, then deliver."""
        receiver.downlink.transmit(chunk, self._deliver, 0.0,
                                   (receiver, payload, nbytes))

    def _run_chunks(self, sender: Node, receiver: Node, payload: Any,
                    nbytes: int, on_sent: Optional[Callable[[], None]],
                    chunks: list[int], index: int) -> None:
        """Send chunk ``index``; pace the next one behind it.

        Pacing the next chunk at the uplink's busy horizon is what lets
        concurrent flows interleave on the uplink instead of one flow
        monopolizing it.  Intermediate chunks need no delivery callback —
        only the final chunk hands the payload to the receiver.
        """
        uplink = sender.uplink
        chunk = chunks[index]
        if index == len(chunks) - 1:
            uplink.transmit(chunk, self._chunk_arrived, self.latency,
                            (receiver, payload, nbytes, chunk))
            if on_sent is not None:
                self.sim.schedule_at(uplink._busy_until, on_sent)
        else:
            uplink.transmit(chunk, receiver.downlink.transmit, self.latency,
                            (chunk,))
            self.sim.schedule_at(uplink._busy_until, self._run_chunks, sender,
                                 receiver, payload, nbytes, on_sent, chunks,
                                 index + 1)

    def _size_of(self, payload: Any, size: Optional[int]) -> int:
        return _message_size(payload, size)

    def _deliver(self, receiver: Node, payload: Any, size: int) -> None:
        if self.closed:
            return
        self._endpoints[receiver.name]._deliver(self, payload, size)

    # -- receiving (blocking, for actors) ----------------------------------

    def receive(self, node: Node, thread, timeout: Optional[float] = None) -> Any:
        """Block (in an actor) until a message for ``node`` arrives."""
        endpoint = self._endpoints[node.name]
        if endpoint.on_message is not None:
            raise RuntimeError("endpoint already has an on_message handler")
        while not endpoint._queue:
            if endpoint._closed or self.closed:
                raise ConnectionClosed("connection closed while receiving")
            endpoint._waiter = Future(self.sim)
            yield Wait(endpoint._waiter, timeout)
            endpoint._waiter = None
        payload, _size = endpoint._queue.popleft()
        return payload

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Close both directions (drain-then-raise semantics).

        Messages already delivered to an endpoint's queue remain readable:
        :meth:`receive` keeps returning them after close and raises
        :class:`ConnectionClosed` only once the queue is empty.  Messages
        still serializing on the wire when close happens are dropped at
        delivery time.  Blocked receivers are woken immediately.
        """
        if self.closed:
            return
        self.closed = True
        self.initiator.connections.pop(self, None)
        self.responder.connections.pop(self, None)
        if self._span is not None:
            self._span.end(self.sim.now,
                           bytes_initiator=self.bytes_sent[self.initiator.name],
                           bytes_responder=self.bytes_sent[self.responder.name])
        for node in (self.initiator, self.responder):
            self._endpoints[node.name]._notify_close(self)

    def abort(self) -> None:
        """Hard teardown for fault injection: kill in-flight bulk transfers.

        A regular :meth:`close` lets an already-granted coalesced transfer
        run to its delivery event (where ``_deliver`` drops it anyway); a
        crash should not leave that event — or the interface commitment
        behind it — around.  Cancel the delivery, detach the interfaces,
        then close.  ``on_sent`` events stay scheduled: the sender's NIC
        did serialize those bytes, and backpressure waiters must wake.
        """
        if self.closed:
            return
        for iface in (self.initiator.uplink, self.initiator.downlink,
                      self.responder.uplink, self.responder.downlink):
            bulk = iface._bulk
            if bulk is not None and bulk.conn is self:
                bulk.delivery_event.cancel()
                bulk.uplink._bulk = None
                bulk.downlink._bulk = None
                if bulk.span is not None:
                    bulk.span.end(self.sim.now, outcome="aborted")
        if self._span is not None:
            self._span.annotate(aborted=True)
        self.close()

    def __repr__(self) -> str:
        return f"<Connection {self.initiator.name}<->{self.responder.name}>"


class LoopbackConnection:
    """A connection from a node to itself (e.g. an exit relay dialing the
    Bento server on its own machine).

    A normal :class:`Connection` keys endpoints by node name, which
    collapses for loopback; instead, :meth:`create` returns two *sides*,
    each presenting the Connection interface with its own endpoint.
    Loopback transfers skip the interface queues (the kernel does not put
    localhost traffic on the NIC) and arrive after a negligible delay.
    """

    LOOPBACK_DELAY = 1e-5

    @classmethod
    def create(cls, sim: Simulator, node: Node
               ) -> tuple["LoopbackConnection", "LoopbackConnection"]:
        """Two connected sides for one loopback connection."""
        a = cls(sim, node)
        b = cls(sim, node)
        a._peer = b
        b._peer = a
        return a, b

    def __init__(self, sim: Simulator, node: Node) -> None:
        self.sim = sim
        self.initiator = node
        self.responder = node
        self.latency = self.LOOPBACK_DELAY
        self.closed = False
        self._endpoint = Endpoint(sim)
        self._peer: Optional["LoopbackConnection"] = None
        node.connections[self] = None

    @property
    def rtt(self) -> float:
        """Round-trip propagation time."""
        return 2.0 * self.latency

    def endpoint_of(self, _node: Node) -> Endpoint:
        """This side's endpoint (loopback: each side has its own)."""
        return self._endpoint

    def peer_of(self, node: Node) -> Node:
        """The node on the other side (itself, for loopback)."""
        return node

    def send(self, _sender: Node, payload: Any, size: Optional[int] = None,
             on_sent: Optional[Callable[[], None]] = None) -> None:
        """Send bytes to the peer."""
        if self.closed:
            raise ConnectionClosed("send on closed loopback connection")
        nbytes = _message_size(payload, size)

        def _deliver() -> None:
            peer = self._peer
            if peer is not None and not peer.closed:
                peer._endpoint._deliver(peer, payload, nbytes)

        self.sim.schedule(self.LOOPBACK_DELAY, _deliver)
        if on_sent is not None:
            self.sim.schedule(0.0, on_sent)

    def receive(self, _node: Node, thread, timeout: Optional[float] = None) -> Any:
        """Blocking receive of the next queued payload."""
        endpoint = self._endpoint
        while not endpoint._queue:
            if endpoint._closed or self.closed:
                raise ConnectionClosed("loopback closed while receiving")
            endpoint._waiter = Future(self.sim)
            yield Wait(endpoint._waiter, timeout)
            endpoint._waiter = None
        payload, _size = endpoint._queue.popleft()
        return payload

    def close(self) -> None:
        """Close the stream/connection (drain-then-raise, like Connection)."""
        if self.closed:
            return
        self.closed = True
        self.initiator.connections.pop(self, None)
        self._endpoint._notify_close(self)
        peer = self._peer
        if peer is not None and not peer.closed:
            peer.close()

    def abort(self) -> None:
        """Hard teardown; loopback has no bulk transfers to cancel."""
        self.close()
