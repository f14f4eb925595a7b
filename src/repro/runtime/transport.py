"""Live transports: asyncio queues in-process, asyncio streams over TCP.

Both implementations push every message through the
:class:`~repro.runtime.codec.CodecRegistry` -- even the in-process one --
so byte metrics measure real serialized payloads and a protocol that
works on :class:`InProcTransport` is guaranteed to serialize for
:class:`TcpTransport`.

Delivery semantics match the simulator's network: reliable point-to-point
links with arbitrary (but finite) delays, no ordering guarantee across
links.  Fault injection (:class:`~repro.runtime.faults.FaultController`)
is consulted at two points, identically for every transport: terminal
faults (crash, partition, weather loss) at the send point via
``condemn``, re-timing faults (delay, jitter, duplication) plus an
in-flight terminal re-check at the delivery point via ``decide``.
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from typing import Any, Callable, Optional

from ..recovery.backoff import BackoffSchedule
from ..recovery.heartbeat import HeartbeatMonitor
from .codec import CodecRegistry, read_frame_body
from .faults import FaultController

__all__ = ["Transport", "InProcTransport", "TcpTransport", "ProcMeshTransport"]

_HELLO = struct.Struct(">I")
#: proc-mesh hello: (dialer pid, dialer incarnation) -- the incarnation
#: lets a receiver reset its dedup watermark when a peer comes back
#: reborn (its link sequence numbers restart from 1)
_MESH_HELLO = struct.Struct(">II")
#: proc-mesh per-frame sequence header; seq 0 is reserved for heartbeats
_SEQ = struct.Struct(">Q")
#: persist every Nth watermark advance (recovery only needs an
#: approximate floor -- protocol handlers absorb redelivered duplicates)
_WATERMARK_EVERY = 16
#: an empty frame body's length prefix (heartbeats carry no payload)
_LEN_ZERO = struct.pack(">I", 0)
#: default cap on parked frames per destination in the proc mesh's
#: self-healing retry queue (drop-oldest beyond it; see ``_park``)
DEFAULT_RETRY_LIMIT = 256

#: synchronous delivery callback: ``handler(src, message)``
Handler = Callable[[int, Any], None]
#: metrics hook: ``record(type_name, encoded_size)`` called once per send
Recorder = Callable[[str, int], None]


class Transport:
    """Interface both transports implement, plus the shared delivery path."""

    def __init__(
        self,
        registry: CodecRegistry,
        *,
        faults: Optional[FaultController] = None,
        record: Optional[Recorder] = None,
    ) -> None:
        self.registry = registry
        self.faults = faults or FaultController()
        self._record = record
        self._handlers: dict[int, Handler] = {}
        self._delayed_tasks: set[asyncio.Task] = set()
        #: messages sent but not yet resolved (delivered, dropped, or lost
        #: to shutdown) -- lets the cluster detect true quiescence even
        #: while messages sit in socket buffers or delay timers
        self.in_flight = 0
        #: first delivery-path exception (e.g. a frame that fails to
        #: decode) -- surfaced by the cluster instead of a silent stall
        self.failure: Optional[BaseException] = None

    # -- wiring -------------------------------------------------------------------
    def bind(self, pid: int, handler: Handler) -> None:
        """Attach the delivery callback for node ``pid`` (before start).

        Transports that support node replacement (the epoch service
        retiring one committee's nodes and binding the next's) accept a
        ``bind`` after :meth:`unbind` of the same pid, even mid-run.
        """
        if pid in self._handlers:
            raise ValueError(f"duplicate transport binding for node {pid}")
        self._handlers[pid] = handler

    def unbind(self, pid: int) -> None:
        """Detach node ``pid`` so the id can be rebound (epoch rotation).

        Messages already addressed to the node are dropped, exactly as if
        it had crashed; subclasses additionally release any per-node
        delivery machinery.
        """
        self._handlers.pop(pid, None)

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._handlers)

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        raise NotImplementedError

    async def stop(self) -> None:
        for task in list(self._delayed_tasks):
            task.cancel()
        if self._delayed_tasks:
            await asyncio.gather(*self._delayed_tasks, return_exceptions=True)
        self._delayed_tasks.clear()

    async def send(self, src: int, dst: int, message: Any) -> int:
        """Serialize and ship one message; returns payload bytes sent."""
        raise NotImplementedError

    @property
    def quiescent(self) -> bool:
        """True when no sent message is still awaiting its fate."""
        return self.in_flight == 0

    # -- shared helpers -------------------------------------------------------------
    def _encode_and_record(self, message: Any) -> bytes:
        """The single encode of a message's lifetime on the send side;
        the byte metric is the length of this very buffer (no second
        metering encode anywhere)."""
        data = self.registry.encode(message)
        if self._record is not None:
            self._record(type(message).__name__, len(data))
        self.in_flight += 1
        return data

    def _encode_frame_and_record(self, message: Any) -> bytes:
        """Stream-transport variant: one single-buffer *framed* encode;
        metered bytes exclude the 4-byte length prefix so both transports
        report identical payload counts."""
        framed = self.registry.encode_frame(message)
        if self._record is not None:
            self._record(type(message).__name__, len(framed) - 4)
        self.in_flight += 1
        return framed

    def _resolve(self) -> None:
        self.in_flight -= 1

    def _deliver(self, src: int, dst: int, data: bytes) -> None:
        """Fault check, decode, dispatch -- the common delivery point.

        Weather duplication delivers ``decision.duplicates`` extra copies
        of the message as distinct later arrivals (each holding its own
        in-flight slot), matching the sim network's dispatch."""
        handler = self._handlers.get(dst)
        decision = self.faults.decide(src, dst)
        if handler is None or not decision.deliver:
            self._resolve()
            return
        try:
            message = self.registry.decode(data)
        except Exception as exc:  # noqa: BLE001 -- recorded, then re-raised
            if self.failure is None:
                self.failure = exc
            self._resolve()
            raise
        for copy in range(decision.duplicates):
            self.in_flight += 1
            self._dispatch_later(
                handler, src, message, decision.delay + 0.005 * (copy + 1)
            )
        if decision.delay > 0:
            self._dispatch_later(handler, src, message, decision.delay)
        else:
            try:
                handler(src, message)
            finally:
                self._resolve()

    def _dispatch_later(
        self, handler: Handler, src: int, message: Any, delay: float
    ) -> None:
        task = asyncio.ensure_future(
            self._deliver_later(handler, src, message, delay)
        )
        self._delayed_tasks.add(task)
        task.add_done_callback(self._delayed_tasks.discard)

    async def _deliver_later(
        self, handler: Handler, src: int, message: Any, delay: float
    ) -> None:
        try:
            await asyncio.sleep(delay)
            handler(src, message)
        finally:
            self._resolve()


class InProcTransport(Transport):
    """All nodes on one event loop, linked by per-destination queues.

    The fast deterministic backend: no sockets, no syscalls, FIFO per
    destination.  Messages still round-trip the codec, so byte counts and
    serialization failures are identical to TCP.
    """

    def __init__(
        self,
        registry: CodecRegistry,
        *,
        faults: Optional[FaultController] = None,
        record: Optional[Recorder] = None,
    ) -> None:
        super().__init__(registry, faults=faults, record=record)
        self._queues: dict[int, asyncio.Queue] = {}
        self._pumps: dict[int, asyncio.Task] = {}
        self._started = False

    async def start(self) -> None:
        self._started = True
        for pid in self.node_ids:
            if pid not in self._queues:
                self._attach(pid)

    def _attach(self, pid: int) -> None:
        self._queues[pid] = asyncio.Queue()
        self._pumps[pid] = asyncio.ensure_future(self._pump(pid))

    def bind(self, pid: int, handler: Handler) -> None:
        super().bind(pid, handler)
        # Mid-run bind (epoch rotation): wire the queue and pump now; the
        # usual pre-start binds get theirs in start().
        if self._started:
            self._attach(pid)

    def unbind(self, pid: int) -> None:
        super().unbind(pid)
        pump = self._pumps.pop(pid, None)
        if pump is not None:
            pump.cancel()
        queue = self._queues.pop(pid, None)
        if queue is not None:
            # Queued messages die with the node; resolve them so
            # quiescence tracking doesn't count them in flight forever.
            while not queue.empty():
                queue.get_nowait()
                self._resolve()

    async def stop(self) -> None:
        self._started = False
        pumps = list(self._pumps.values())
        for task in pumps:
            task.cancel()
        if pumps:
            await asyncio.gather(*pumps, return_exceptions=True)
        self._pumps.clear()
        self._queues.clear()
        await super().stop()

    async def send(self, src: int, dst: int, message: Any) -> int:
        queue = self._queues.get(dst)
        if queue is None:
            raise KeyError(f"unknown destination {dst}")
        data = self._encode_and_record(message)
        # Terminal faults fire at the send point (metrics already counted,
        # matching the sim): a condemned message never enters the queue.
        if self.faults.condemn(src, dst):
            self._resolve()
            return len(data)
        queue.put_nowait((src, data))
        return len(data)

    async def _pump(self, pid: int) -> None:
        queue = self._queues[pid]
        while True:
            src, data = await queue.get()
            self._deliver(src, pid, data)


class TcpTransport(Transport):
    """One TCP listener per node; lazily-dialed full mesh of streams.

    Frames are length-prefixed codec payloads; each outbound connection
    starts with a 4-byte hello carrying the dialer's node id, after which
    the link is identified and frames need no per-message source field.
    Ports are ephemeral (bound to ``host`` with port 0) and discoverable
    through :meth:`address` -- the cluster orchestrator shares them.
    """

    def __init__(
        self,
        registry: CodecRegistry,
        *,
        faults: Optional[FaultController] = None,
        record: Optional[Recorder] = None,
        host: str = "127.0.0.1",
    ) -> None:
        super().__init__(registry, faults=faults, record=record)
        self.host = host
        #: dial/write attempts per send before the error propagates; the
        #: sleeps between attempts follow a seeded-jitter backoff
        self.send_retries = 3
        self.reconnects = 0
        self._backoff = BackoffSchedule(base=0.02, max_delay=0.5, seed=host)
        self._servers: dict[int, asyncio.AbstractServer] = {}
        self._ports: dict[int, int] = {}
        self._writers: dict[tuple[int, int], asyncio.StreamWriter] = {}
        self._reader_tasks: set[asyncio.Task] = set()

    def address(self, pid: int) -> tuple[str, int]:
        """The listening ``(host, port)`` of node ``pid`` (after start)."""
        return (self.host, self._ports[pid])

    async def start(self) -> None:
        for pid in self.node_ids:
            server = await asyncio.start_server(
                lambda r, w, dst=pid: self._accept(dst, r, w), self.host, 0
            )
            self._servers[pid] = server
            self._ports[pid] = server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        for writer in self._writers.values():
            writer.close()
        for writer in list(self._writers.values()):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._writers.clear()
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        self._reader_tasks.clear()
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        self._ports.clear()
        await super().stop()

    # -- outbound -----------------------------------------------------------------
    async def send(self, src: int, dst: int, message: Any) -> int:
        if dst not in self._ports:
            raise KeyError(f"unknown destination {dst}")
        framed = self._encode_frame_and_record(message)
        if self.faults.condemn(src, dst):
            self._resolve()
            return len(framed) - 4
        # Self-healing: a dropped stream (peer restarting its listener, a
        # flaky localhost accept queue) is retried on a fresh connection
        # with backoff before the failure propagates to the node.
        attempt = 0
        while True:
            try:
                writer = await self._writer_for(src, dst)
                writer.write(framed)
                await writer.drain()
                self._backoff.reset()
                return len(framed) - 4
            except (ConnectionError, OSError):
                self._writers.pop((src, dst), None)
                attempt += 1
                if attempt > self.send_retries:
                    self._resolve()
                    raise
                self.reconnects += 1
                await asyncio.sleep(self._backoff.next_delay())

    async def _writer_for(self, src: int, dst: int) -> asyncio.StreamWriter:
        key = (src, dst)
        writer = self._writers.get(key)
        if writer is None or writer.is_closing():
            host, port = self.address(dst)
            _, writer = await asyncio.open_connection(host, port)
            writer.write(_HELLO.pack(src))
            await writer.drain()
            self._writers[key] = writer
        return writer

    # -- inbound ------------------------------------------------------------------
    def _accept(
        self, dst: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._read_loop(dst, reader, writer))
        self._reader_tasks.add(task)
        task.add_done_callback(self._reader_tasks.discard)

    async def _read_loop(
        self, dst: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await reader.readexactly(_HELLO.size)
            (src,) = _HELLO.unpack(hello)
            while True:
                data = await read_frame_body(reader)
                self._deliver(src, dst, data)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer hung up; the cluster is stopping or the node crashed
        finally:
            writer.close()


class ProcMeshTransport(Transport):
    """One node's endpoint of a process-per-party TCP mesh.

    The ``proc`` backend hosts every :class:`~repro.runtime.node.RuntimeNode`
    in its own OS process; this transport is the single-node slice each
    worker owns.  Wire format and handshake are :class:`TcpTransport`'s
    (length-prefixed codec frames behind a 4-byte dialer-id hello), so a
    protocol that runs on ``tcp`` runs on ``proc`` unchanged.

    The listener binds ``(host, 0)`` and :meth:`listen` returns the
    kernel-assigned port; the parent ProcCluster collects every worker's
    address over the control pipe and broadcasts the peer map back, so
    concurrent clusters can never collide on a hardcoded port.

    Quiescence is necessarily distributed: a sender cannot observe remote
    delivery, so an outbound frame is resolved once drained to the kernel
    and the *receiver* re-accounts it on arrival.  The parent detects
    global quiescence by frame-count conservation -- every worker idle and
    ``sum(frames_sent) == sum(frames_received)`` across two consecutive
    polls -- which is why both counters are public here.

    Fault injection is split by direction: each worker installs the full
    fault plan into its local :class:`FaultController`, the *sender*
    evaluates ``condemn(local, dst)`` (terminal faults, incl. weather
    loss), and the *receiver* evaluates ``decide(src, local)`` (delays,
    duplication, and the in-flight terminal re-check).  Each message is
    judged exactly once per point, so drop/delay counts sum across
    workers to exactly the single-process totals.

    Self-healing (the crash-recovery layer): every non-self frame carries
    an 8-byte per-link sequence number; the receiver keeps a per-source
    watermark and silently drops redelivered duplicates.  A send that
    hits a dead peer parks the framed bytes on a per-destination retry
    queue drained by a backoff task (bounded exponential, seeded jitter),
    so a SIGKILLed-and-respawned worker's links heal without losing the
    frames that failed at the socket.  The hello carries the dialer's
    *incarnation*: a reborn peer restarts its sequence numbers, and the
    higher incarnation tells the receiver to reset that source's
    watermark instead of discarding the fresh traffic as duplicates.
    Sequence 0 frames are heartbeats -- uncounted, undelivered, feeding
    the suspect/alive failure detector.
    """

    def __init__(
        self,
        registry: CodecRegistry,
        *,
        faults: Optional[FaultController] = None,
        record: Optional[Recorder] = None,
        host: str = "127.0.0.1",
        incarnation: int = 0,
    ) -> None:
        super().__init__(registry, faults=faults, record=record)
        self.host = host
        self.local_pid: Optional[int] = None
        self.port: Optional[int] = None
        #: bumped by the parent on every respawn of this node
        self.incarnation = incarnation
        #: cumulative frames shipped to / accepted from the mesh (self-sends
        #: count on both sides) -- the parent's conservation check.  Retry
        #: resends and dropped duplicates deliberately do not count.
        self.frames_sent = 0
        self.frames_received = 0
        self.duplicates_dropped = 0
        self.reconnects = 0
        #: cap on parked frames per destination; beyond it the *oldest*
        #: parked frame is discarded (counted in ``retries_dropped``) so a
        #: long partition under load cannot grow memory without bound.
        #: Oldest-first keeps what the reborn peer is most likely to still
        #: need; protocol retransmission covers the discarded prefix.
        self.retry_limit = DEFAULT_RETRY_LIMIT
        self.retries_dropped = 0
        #: optional persistence hook ``(src, seq)`` for receive watermarks
        #: (a recoverable party's WAL); sampled every ``_WATERMARK_EVERY``
        self.watermark_sink: Optional[Callable[[int, int], None]] = None
        self.heartbeat: Optional[HeartbeatMonitor] = None
        self._peers: dict[int, tuple[str, int]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._reader_tasks: set[asyncio.Task] = set()
        #: per-destination outbound sequence counters (start at 1; 0 = heartbeat)
        self._send_seq: dict[int, int] = {}
        #: per-source receive watermarks (highest seq delivered)
        self._watermarks: dict[int, int] = {}
        self._peer_incarnations: dict[int, int] = {}
        #: per-destination framed bytes awaiting a live connection
        self._retry: dict[int, deque] = {}
        self._retry_tasks: dict[int, asyncio.Task] = {}
        self._heartbeat_task: Optional[asyncio.Task] = None
        #: set once the local node binds; inbound frames wait for it
        self._bound = asyncio.Event()

    async def listen(self) -> int:
        """Bind the kernel-assigned port and return it (before peers)."""
        self._server = await asyncio.start_server(self._accept, self.host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def configure(self, local_pid: int, peers: dict[int, tuple[str, int]]) -> None:
        """Install the identity and peer address map the parent collected."""
        self.local_pid = local_pid
        self._peers = {int(pid): (host, int(port)) for pid, (host, port) in peers.items()}

    def bind(self, pid: int, handler: Handler) -> None:
        super().bind(pid, handler)
        self._bound.set()  # the one node this worker hosts

    def reconfigure(self, peers: dict[int, tuple[str, int]]) -> None:
        """Adopt a refreshed peer map (a respawned worker has a new
        kernel-assigned port).  Stale writers are dropped so the next
        send -- or the retry task already backing off -- re-dials the
        reborn peer; parked retry frames survive and flush there."""
        for pid, (host, port) in (
            {int(p): (h, int(pt)) for p, (h, pt) in peers.items()}
        ).items():
            if self._peers.get(pid) != (host, port):
                self._peers[pid] = (host, port)
                writer = self._writers.pop(pid, None)
                if writer is not None:
                    writer.close()

    def restore_watermarks(self, watermarks: dict[int, int]) -> None:
        """Seed receive watermarks from a replayed WAL (restart path).

        The floor may lag reality by up to ``_WATERMARK_EVERY`` frames;
        the protocol layer's idempotent handlers absorb the resulting
        duplicates, so an approximate floor is sufficient."""
        for src, seq in watermarks.items():
            self._watermarks[int(src)] = max(
                self._watermarks.get(int(src), 0), int(seq)
            )

    def enable_heartbeat(
        self,
        *,
        interval: float = 0.2,
        suspect_after: int = 3,
        on_suspect: Optional[Callable[[int], None]] = None,
        on_alive: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Start heartbeat emission and suspect/alive detection (after
        :meth:`configure`; heartbeats ride existing connections only)."""
        self.heartbeat = HeartbeatMonitor(
            (pid for pid in self._peers if pid != self.local_pid),
            interval=interval,
            suspect_after=suspect_after,
            on_suspect=on_suspect,
            on_alive=on_alive,
        )
        loop = asyncio.get_running_loop()
        # grace period: every peer starts "just seen" so the detector
        # measures silence from now, not from the monotonic-clock epoch
        now = loop.time()
        for pid in self._peers:
            if pid != self.local_pid:
                self.heartbeat.observe(pid, now)
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop(loop))

    async def _heartbeat_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        assert self.heartbeat is not None
        beat = _SEQ.pack(0) + _LEN_ZERO
        while True:
            await asyncio.sleep(self.heartbeat.interval)
            now = loop.time()
            self.heartbeat.check(now)
            for dst, writer in list(self._writers.items()):
                if writer.is_closing():
                    continue
                try:
                    writer.write(beat)
                except (ConnectionError, OSError):  # pragma: no cover
                    pass

    async def start(self) -> None:
        if self._server is None:
            await self.listen()

    async def stop(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._heartbeat_task = None
        for task in list(self._retry_tasks.values()):
            task.cancel()
        if self._retry_tasks:
            await asyncio.gather(
                *self._retry_tasks.values(), return_exceptions=True
            )
        self._retry_tasks.clear()
        for backlog in self._retry.values():
            # frames die with the transport; close their in-flight slots
            for _ in backlog:
                self._resolve()
            backlog.clear()
        for writer in self._writers.values():
            writer.close()
        for writer in list(self._writers.values()):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._writers.clear()
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        self._reader_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await super().stop()

    # -- outbound -----------------------------------------------------------------
    async def send(self, src: int, dst: int, message: Any) -> int:
        if dst == self.local_pid:
            # Self-sends short-circuit the socket but still round-trip the
            # codec, and still count on both frame ledgers so the parent's
            # conservation check balances.
            data = self._encode_and_record(message)
            if self.faults.condemn(src, dst):
                self._resolve()
                return len(data)
            self.frames_sent += 1
            self.frames_received += 1
            self._deliver(src, dst, data)
            return len(data)
        if dst not in self._peers:
            raise KeyError(f"unknown destination {dst}")
        framed = self._encode_frame_and_record(message)
        # Terminal faults fire before sequencing: a condemned frame never
        # touches the frame ledgers, so the parent's sent == received
        # conservation check stays balanced without transmitting it.
        if self.faults.condemn(src, dst):
            self._resolve()
            return len(framed) - 4
        seq = self._send_seq.get(dst, 0) + 1
        self._send_seq[dst] = seq
        framed = _SEQ.pack(seq) + framed
        self.frames_sent += 1
        backlog = self._retry.get(dst)
        if backlog:
            # keep per-link FIFO: never overtake frames already parked
            self._park(dst, framed)
            return len(framed) - _SEQ.size - 4
        try:
            writer = await self._writer_for(dst)
            writer.write(framed)
            await writer.drain()
        except (ConnectionError, OSError):
            # Peer is down (crashed, restarting, or mid-respawn): park the
            # frame for the backoff task instead of failing the node.  The
            # in-flight slot stays open, so the worker does not look idle
            # while frames await redelivery.
            self._writers.pop(dst, None)
            self._park(dst, framed)
            return len(framed) - _SEQ.size - 4
        # Drained to the kernel: the receiving worker's in_flight takes
        # over the moment the frame arrives, so resolve locally (the
        # frame's fate is no longer observable here).
        self._resolve()
        return len(framed) - _SEQ.size - 4

    def _park(self, dst: int, framed: bytes) -> None:
        """Queue a frame for the backoff task, bounding the backlog.

        Drop-oldest: the discarded frame's in-flight slot closes (its
        fate is decided -- gone) and ``retries_dropped`` counts it, so
        tests and postmortems can see a partition shedding load."""
        backlog = self._retry.setdefault(dst, deque())
        backlog.append(framed)
        while len(backlog) > self.retry_limit:
            backlog.popleft()
            self.retries_dropped += 1
            self.faults.trace.append((self.local_pid, dst, "retry-dropped"))
            self._resolve()
        self._ensure_retry_task(dst)

    def _ensure_retry_task(self, dst: int) -> None:
        task = self._retry_tasks.get(dst)
        if task is None or task.done():
            self._retry_tasks[dst] = asyncio.ensure_future(self._retry_loop(dst))

    async def _retry_loop(self, dst: int) -> None:
        """Drain ``dst``'s parked frames once the link heals.

        Bounded exponential backoff with jitter seeded per (node, link),
        so a cluster-wide reconnect storm against a reborn worker is
        spread instead of synchronized.  Runs until the backlog is empty;
        frames flush in sequence order and the receiver's watermark
        drops any the crashed peer already processed.
        """
        backoff = BackoffSchedule(
            base=0.02, max_delay=0.5, seed=f"{self.local_pid}->{dst}"
        )
        while True:
            backlog = self._retry.get(dst)
            if not backlog:
                return
            await asyncio.sleep(backoff.next_delay())
            try:
                writer = await self._writer_for(dst)
                while backlog:
                    framed = backlog[0]
                    writer.write(framed)
                    await writer.drain()
                    backlog.popleft()
                    self._resolve()
                backoff.reset()
            except (ConnectionError, OSError):
                self._writers.pop(dst, None)
                self.reconnects += 1

    async def _writer_for(self, dst: int) -> asyncio.StreamWriter:
        writer = self._writers.get(dst)
        if writer is None or writer.is_closing():
            host, port = self._peers[dst]
            _, writer = await asyncio.open_connection(host, port)
            writer.write(_MESH_HELLO.pack(self.local_pid, self.incarnation))
            await writer.drain()
            self._writers[dst] = writer
        return writer

    # -- inbound ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._read_loop(reader, writer))
        self._reader_tasks.add(task)
        task.add_done_callback(self._reader_tasks.discard)

    async def _read_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await reader.readexactly(_MESH_HELLO.size)
            src, incarnation = _MESH_HELLO.unpack(hello)
            # A faster peer may dial between "ready" and our node's bind;
            # its frames wait in the socket rather than find no handler.
            await self._bound.wait()
            if incarnation > self._peer_incarnations.get(src, 0):
                # the peer was reborn: its sequence numbers restart, so
                # the old watermark would wrongly discard all new traffic
                self._peer_incarnations[src] = incarnation
                self._watermarks[src] = 0
            loop = asyncio.get_running_loop()
            while True:
                seq_raw = await reader.readexactly(_SEQ.size)
                (seq,) = _SEQ.unpack(seq_raw)
                data = await read_frame_body(reader)
                if self.heartbeat is not None:
                    self.heartbeat.observe(src, loop.time())
                if seq == 0:
                    continue  # heartbeat: observed above, nothing to deliver
                if seq <= self._watermarks.get(src, 0):
                    # redelivered from a retry queue; the first copy was
                    # already counted and dispatched
                    self.duplicates_dropped += 1
                    continue
                self._watermarks[src] = seq
                if self.watermark_sink is not None and seq % _WATERMARK_EVERY == 0:
                    self.watermark_sink(src, seq)
                self.frames_received += 1
                # The sender resolved on drain; re-open the in-flight slot
                # here so delays/drops settle through the shared _deliver.
                self.in_flight += 1
                self._deliver(src, self.local_pid, data)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer hung up; the cluster is stopping or the node crashed
        finally:
            writer.close()
