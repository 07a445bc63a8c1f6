"""Client-side circuits: layered encryption, stream multiplexing, flow
control, and the hidden-service ("virtual hop") endpoint.

A :class:`Circuit` is owned by whichever party *built* it — a Tor client,
or a hidden service building toward a rendezvous point.  Cells the owner
sends always travel "forward" along its own circuit; replies are unwrapped
one backward layer per hop until some hop's digest recognizes the cell.

After a rendezvous, both sides attach an extra :class:`HopCrypto` (the
*hs layer*) shared end-to-end between client and service; the rendezvous
point splices payloads across the two circuits without being able to read
them.  By convention the connecting client uses the hs layer's FORWARD
direction and the service its BACKWARD direction.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Optional

from repro.netsim.connection import Connection, ConnectionClosed
from repro.netsim.simulator import Actor, Future, Wait
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.perf.counters import counters as _perf
from repro.tor.cell import (
    CELL_SIZE,
    RELAY_DATA_SIZE,
    RELAY_PAYLOAD_SIZE,
    Cell,
    CellCommand,
    RelayCellPayload,
    RelayCommand,
)
from repro.tor.descriptor import RelayDescriptor
from repro.tor.layercrypto import BACKWARD, FORWARD, HopCrypto, _FastLayer
from repro.tor.relay import (
    CIRCUIT_PACKAGE_WINDOW,
    CIRCUIT_SENDME_INCREMENT,
    STREAM_SENDME_INCREMENT,
)
from repro.util.errors import ProtocolError, ReproError
from repro.util.serialization import canonical_decode, canonical_encode

HS_CLIENT = "client"
HS_SERVICE = "service"

# Cached metric handles (reset in place between tests; see repro.obs).
_CTR_STREAM_OK = _metrics.counter("streams_opened", {"outcome": "ok"})
_CTR_STREAM_FAIL = _metrics.counter("streams_opened", {"outcome": "error"})
_HIST_STREAM_OPEN = _metrics.histogram("stream_open_s")
_BYTES_ZERO_COPIED = _metrics.counter("bytes_zero_copied")


class CircuitDestroyed(ReproError):
    """Raised when using a circuit that has been torn down."""


class Circuit:
    """One built circuit and everything multiplexed over it."""

    def __init__(self, owner, conn: Connection, circ_id: int,
                 path: list[RelayDescriptor]) -> None:
        from repro.tor.stream import TorStream  # cycle: stream needs Circuit

        self._stream_cls = TorStream
        self.owner = owner              # the TorClient that built this circuit
        self.sim = owner.sim
        self.conn = conn
        self.circ_id = circ_id
        self.path = list(path)
        self.hops: list[HopCrypto] = []
        self.hs_crypto: Optional[HopCrypto] = None
        self.hs_role: str = HS_CLIENT
        self.destroyed = False
        self.streams: dict[int, "TorStream"] = {}
        self.on_begin: Optional[Callable[["TorStream", str, int], None]] = None
        self.on_introduce2: Optional[Callable[[bytes], None]] = None
        self.on_destroy: Optional[Callable[["Circuit"], None]] = None
        self._stream_ids = itertools.count(1)
        self._created_waiter: Optional[Future] = None
        self._control_waiters: dict[RelayCommand, list[Future]] = {}
        self._control_backlog: dict[RelayCommand, list[dict]] = {}
        # Flow control for data the owner *sends* (forward direction).
        self.package_window = CIRCUIT_PACKAGE_WINDOW
        self._pending_data: deque[tuple[int, bytes]] = deque()
        self._delivered_forward = 0     # received DATA cells, for SENDMEs
        self.cells_sent = 0
        self.cells_received = 0
        # Fast-mode backward unwrap cache; see _fast_backward_state().
        self._fast_bwd: Optional[tuple] = None

    # -- wiring ------------------------------------------------------------

    def attach_connection(self) -> None:
        """Point the guard connection's receive path at this circuit."""
        endpoint = self.conn.endpoint_of(self.owner.node)
        endpoint.on_message = self._on_message
        endpoint.on_close = lambda _conn: self._teardown(notify=False)

    def add_hop(self, crypto: HopCrypto) -> None:
        """Record a freshly negotiated hop (during build)."""
        self.hops.append(crypto)

    def attach_hs(self, crypto: HopCrypto, role: str) -> None:
        """Attach the end-to-end hidden-service layer after rendezvous."""
        if role not in (HS_CLIENT, HS_SERVICE):
            raise ValueError(f"bad hs role: {role}")
        self.hs_crypto = crypto
        self.hs_role = role

    @property
    def endpoint_hop_index(self) -> int:
        """Index of the innermost circuit hop (the default cell target)."""
        return len(self.hops) - 1

    # -- sending -------------------------------------------------------------

    def send_relay(self, command: RelayCommand, stream_id: int, data: bytes,
                   hop_index: Optional[int] = None, to_hs: bool = False) -> None:
        """Seal and send one relay cell toward a hop (or the hs endpoint)."""
        if self.destroyed:
            raise CircuitDestroyed("circuit is destroyed")
        cell = RelayCellPayload(command=command, stream_id=stream_id, data=data)
        if to_hs:
            if self.hs_crypto is None:
                raise ProtocolError("no hidden-service layer attached")
            if self.hs_role == HS_CLIENT:
                payload = self.hs_crypto.seal_payload(cell, FORWARD)
                payload = self.hs_crypto.crypt_forward(payload)
            else:
                payload = self.hs_crypto.seal_payload(cell, BACKWARD)
                payload = self.hs_crypto.crypt_backward(payload)
            hop_index = len(self.hops) - 1
        else:
            if hop_index is None:
                hop_index = self.endpoint_hop_index
            payload = self.hops[hop_index].seal_payload(cell, FORWARD)
        for index in range(hop_index, -1, -1):
            payload = self.hops[index].crypt_forward(payload)
        self._send_cell(Cell(self.circ_id, CellCommand.RELAY, payload))

    def send_raw_create(self, onionskin: bytes) -> Future:
        """Send the CREATE cell for the first hop; future resolves with the
        CREATED payload."""
        self._created_waiter = Future(self.sim)
        self._send_cell(Cell(self.circ_id, CellCommand.CREATE, onionskin))
        return self._created_waiter

    def _send_cell(self, cell: Cell) -> None:
        try:
            self.conn.send(self.owner.node, cell, size=CELL_SIZE)
            self.cells_sent += 1
        except ConnectionClosed:
            self._teardown(notify=False)
            raise CircuitDestroyed("guard connection closed") from None

    # -- stream data with flow control -------------------------------------------

    def send_stream_data(self, stream_id: int, data: bytes) -> None:
        """Fragment and send stream bytes, honoring package windows.

        Multi-cell payloads fragment into :class:`memoryview` slices — the
        bytes are only copied once, straight into each cell's pack buffer,
        instead of once per fragment and again at packing.
        """
        total = len(data)
        if total <= RELAY_DATA_SIZE:
            self._pending_data.append((stream_id, data))
        else:
            view = memoryview(data)
            for offset in range(0, total, RELAY_DATA_SIZE):
                self._pending_data.append(
                    (stream_id, view[offset:offset + RELAY_DATA_SIZE]))
            _perf.bytes_zero_copied += total
            _BYTES_ZERO_COPIED.value += total
        self._pump_data()

    def _pump_data(self) -> None:
        # Drain everything the windows allow into one batch, then seal and
        # onion-encrypt the burst with one keystream pull per hop.  Wire
        # bytes and send order are identical to cell-at-a-time pumping;
        # windows cannot replenish mid-drain (SENDMEs arrive via events).
        batch: list[tuple[int, bytes]] = []
        while self._pending_data and self.package_window > 0:
            stream_id, chunk = self._pending_data[0]
            stream = self.streams.get(stream_id)
            if stream is None:
                self._pending_data.popleft()
                continue
            if stream.package_window <= 0:
                break  # head-of-line stream is stalled; wait for its SENDME
            self._pending_data.popleft()
            stream.package_window -= 1
            self.package_window -= 1
            batch.append((stream_id, chunk))
        if batch:
            self._send_data_many(batch)

    def _send_data_many(self, batch: list[tuple[int, bytes]]) -> None:
        """Seal and send a burst of DATA cells (same wire bytes as
        :meth:`send_relay` per cell, one cipher batch per hop)."""
        if self.destroyed:
            raise CircuitDestroyed("circuit is destroyed")
        to_hs = self.hs_crypto is not None
        cells = [RelayCellPayload(command=RelayCommand.DATA,
                                  stream_id=stream_id, data=chunk)
                 for stream_id, chunk in batch]
        if to_hs:
            hs = self.hs_crypto
            if self.hs_role == HS_CLIENT:
                payloads = [hs.seal_payload(cell, FORWARD) for cell in cells]
                payloads = hs.crypt_forward_many(payloads)
            else:
                payloads = [hs.seal_payload(cell, BACKWARD) for cell in cells]
                payloads = hs.crypt_backward_many(payloads)
            hop_index = len(self.hops) - 1
        else:
            hop_index = self.endpoint_hop_index
            payloads = [self.hops[hop_index].seal_payload(cell, FORWARD)
                        for cell in cells]
        for index in range(hop_index, -1, -1):
            payloads = self.hops[index].crypt_forward_many(payloads)
        for payload in payloads:
            self._send_cell(Cell(self.circ_id, CellCommand.RELAY, payload))

    # -- control-cell rendezvous ----------------------------------------------

    def expect_control(self, command: RelayCommand) -> Future:
        """A future resolved with the next control cell of this type."""
        future = Future(self.sim)
        backlog = self._control_backlog.get(command)
        if backlog:
            future.resolve(backlog.pop(0))
        else:
            self._control_waiters.setdefault(command, []).append(future)
        return future

    def wait_control(self, thread: Actor, command: RelayCommand,
                     timeout: Optional[float] = 120.0) -> dict:
        """Blocking form of :meth:`expect_control`."""
        return (yield Wait(self.expect_control(command), timeout))

    def _deliver_control(self, command: RelayCommand, info: dict) -> None:
        waiters = self._control_waiters.get(command)
        if waiters:
            waiters.pop(0).resolve(info)
        else:
            self._control_backlog.setdefault(command, []).append(info)

    # -- receiving ---------------------------------------------------------------

    def _on_message(self, _conn: Connection, payload: object, _size: int) -> None:
        if not isinstance(payload, Cell) or payload.circ_id != self.circ_id:
            return
        cell = payload
        self.cells_received += 1
        if cell.command == CellCommand.CREATED:
            if self._created_waiter is not None and not self._created_waiter.done:
                self._created_waiter.resolve(cell.payload)
            return
        if cell.command == CellCommand.DESTROY:
            self._teardown(notify=False)
            return
        if cell.command != CellCommand.RELAY:
            return
        self._process_relay(cell.payload)

    def _fast_backward_state(self) -> Optional[tuple]:
        """Cumulative backward pads for the all-fast-hops unwrap shortcut.

        With :class:`_FastLayer` hops, the payload after unwrapping hops
        ``0..i`` is ``p XOR cum_i`` for a fixed per-circuit ``cum_i``, so
        the *recognized* check at hop ``i`` reduces to comparing the top
        two payload bytes against ``cum_i``'s — the expensive 509-byte XOR
        is only materialized for the (at most one, modulo 2^-16 false
        positives) hop whose prefix matches.  Returns ``(prefixes, cums)``
        or ``None`` when any hop uses stateful keystreams.
        """
        cached = self._fast_bwd
        n = len(self.hops)
        if cached is not None and cached[0] == n:
            return cached[1]
        prefixes: list[int] = []
        cums: list[int] = []
        cum = 0
        for hop in self.hops:
            layer = hop._layer
            if not isinstance(layer, _FastLayer):
                self._fast_bwd = (n, None)
                return None
            cum ^= layer._bwd_int
            cums.append(cum)
            prefixes.append(cum >> ((RELAY_PAYLOAD_SIZE - 2) * 8))
        state = (prefixes, cums)
        self._fast_bwd = (n, state)
        return state

    def _process_relay(self, payload: bytes) -> None:
        fast = self._fast_backward_state() if self.hops else None
        if fast is not None and len(payload) == RELAY_PAYLOAD_SIZE:
            prefixes, cums = fast
            pint = int.from_bytes(payload, "big")
            top = pint >> ((RELAY_PAYLOAD_SIZE - 2) * 8)
            for index, prefix in enumerate(prefixes):
                if top == prefix:
                    candidate = (pint ^ cums[index]).to_bytes(
                        RELAY_PAYLOAD_SIZE, "big")
                    parsed = self.hops[index].open_payload(candidate, BACKWARD)
                    if parsed is not None:
                        self._dispatch(parsed, from_hop=index)
                        return
            if self.hs_crypto is None:
                return  # unrecognized at every layer: drop
            payload = (pint ^ cums[-1]).to_bytes(RELAY_PAYLOAD_SIZE, "big")
        else:
            for index, hop in enumerate(self.hops):
                payload = hop.crypt_backward(payload)
                parsed = hop.open_payload(payload, BACKWARD)
                if parsed is not None:
                    self._dispatch(parsed, from_hop=index)
                    return
        if self.hs_crypto is not None:
            if self.hs_role == HS_CLIENT:
                payload = self.hs_crypto.crypt_backward(payload)
                parsed = self.hs_crypto.open_payload(payload, BACKWARD)
            else:
                payload = self.hs_crypto.crypt_forward(payload)
                parsed = self.hs_crypto.open_payload(payload, FORWARD)
            if parsed is not None:
                self._dispatch(parsed, from_hop=len(self.hops))
                return
        # Unrecognized at every layer: corrupted or misrouted; drop it.

    def _dispatch(self, parsed: RelayCellPayload, from_hop: int) -> None:
        command = parsed.command
        if command == RelayCommand.DATA:
            self._on_data(parsed)
        elif command == RelayCommand.END:
            stream = self.streams.pop(parsed.stream_id, None)
            if stream is not None:
                stream._on_end()
        elif command == RelayCommand.CONNECTED:
            stream = self.streams.get(parsed.stream_id)
            if stream is not None:
                stream._on_connected(canonical_decode(parsed.data))
        elif command == RelayCommand.SENDME:
            self._on_sendme(parsed)
        elif command == RelayCommand.BEGIN:
            self._on_begin_cell(parsed)
        elif command == RelayCommand.DROP:
            pass  # cover traffic terminates here by design
        elif command == RelayCommand.INTRODUCE2:
            blob = canonical_decode(parsed.data)["blob"]
            if self.on_introduce2 is not None:
                self.on_introduce2(blob)
            else:
                self._deliver_control(command, {"blob": blob, "hop": from_hop})
        else:
            info = {"data": parsed.data, "hop": from_hop,
                    "stream_id": parsed.stream_id}
            self._deliver_control(command, info)

    def _on_data(self, parsed: RelayCellPayload) -> None:
        stream = self.streams.get(parsed.stream_id)
        if stream is None:
            return
        stream._on_data(parsed.data)
        stream.delivered_count += 1
        self._delivered_forward += 1
        to_hs = self.hs_crypto is not None
        if stream.delivered_count % STREAM_SENDME_INCREMENT == 0:
            self.send_relay(RelayCommand.SENDME, parsed.stream_id, b"", to_hs=to_hs)
        if self._delivered_forward % CIRCUIT_SENDME_INCREMENT == 0:
            self.send_relay(RelayCommand.SENDME, 0, b"", to_hs=to_hs)

    def _on_sendme(self, parsed: RelayCellPayload) -> None:
        if parsed.stream_id == 0:
            self.package_window += CIRCUIT_SENDME_INCREMENT
        else:
            stream = self.streams.get(parsed.stream_id)
            if stream is not None:
                stream.package_window += STREAM_SENDME_INCREMENT
        self._pump_data()

    def _on_begin_cell(self, parsed: RelayCellPayload) -> None:
        """A BEGIN arriving *at* us: we are the service side of a rendezvous."""
        request = canonical_decode(parsed.data)
        stream = self._stream_cls(self, parsed.stream_id)
        self.streams[parsed.stream_id] = stream
        stream.connected = True
        self.send_relay(RelayCommand.CONNECTED, parsed.stream_id,
                        canonical_encode({"address": "onion"}),
                        to_hs=self.hs_crypto is not None)
        if self.on_begin is not None:
            self.on_begin(stream, request.get("host", ""), int(request.get("port", 0)))

    # -- stream creation (owner side) ----------------------------------------------

    def open_stream(self, thread: Actor, host: str, port: int,
                    timeout: Optional[float] = 120.0):
        """BEGIN a stream to ``host:port`` via the endpoint hop (or hs peer).

        Returns a connected :class:`~repro.tor.stream.TorStream`; raises
        :class:`ProtocolError` if the endpoint refuses (exit policy, etc.).
        """
        stream_id = next(self._stream_ids)
        stream = self._stream_cls(self, stream_id)
        self.streams[stream_id] = stream
        log = _obs.log
        span = log.begin_span(
            "tor.stream_open", self.sim.now, track=self.owner.node.name,
            circ_id=self.circ_id, stream_id=stream_id, host=host,
            port=port) if log is not None else None
        t0 = self.sim.now
        data = canonical_encode({"host": host, "port": port})
        try:
            self.send_relay(RelayCommand.BEGIN, stream_id, data,
                            to_hs=self.hs_crypto is not None)
            yield from stream.wait_connected(thread, timeout=timeout)
        except BaseException as exc:
            _CTR_STREAM_FAIL.value += 1
            if span is not None:
                span.end(self.sim.now, ok=False, error=type(exc).__name__)
            raise
        _CTR_STREAM_OK.value += 1
        _HIST_STREAM_OPEN.observe(self.sim.now - t0)
        if span is not None:
            span.end(self.sim.now, ok=True)
        return stream

    # -- teardown ---------------------------------------------------------------------

    def close(self) -> None:
        """Destroy the circuit (sends DESTROY toward the guard)."""
        if self.destroyed:
            return
        try:
            self.conn.send(self.owner.node,
                           Cell(self.circ_id, CellCommand.DESTROY, b""),
                           size=CELL_SIZE)
        except ConnectionClosed:
            pass
        self._teardown(notify=False)

    def _teardown(self, notify: bool) -> None:
        if self.destroyed:
            return
        self.destroyed = True
        for stream in list(self.streams.values()):
            stream._on_end()
        self.streams.clear()
        if self._created_waiter is not None and not self._created_waiter.done:
            self._created_waiter.reject(CircuitDestroyed("circuit destroyed"))
        for waiters in self._control_waiters.values():
            for waiter in waiters:
                if not waiter.done:
                    waiter.reject(CircuitDestroyed("circuit destroyed"))
        self._control_waiters.clear()
        # Drop ourselves from the owner's live-circuit list so rebuilds
        # don't accumulate dead circuits (close_all copes either way).
        owner_circuits = getattr(self.owner, "circuits", None)
        if owner_circuits is not None and self in owner_circuits:
            owner_circuits.remove(self)
        if self.on_destroy is not None:
            self.on_destroy(self)
