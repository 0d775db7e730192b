"""Asyncio serving gateway: the traffic-facing front door of the engine.

:class:`ServeEngine` is a futures API for in-process callers; the
gateway is what makes it speak *traffic* — the paper's deployment
setting (Sec. I, Fig. 1) of a fab streaming wafer maps from many tools
(tenants) into one inline screening stage.  One asyncio event loop
accepts length-prefixed JSON-over-TCP connections
(:mod:`~repro.serve.protocol`), admits or sheds each request through
per-tenant token buckets (:mod:`~repro.serve.admission`), and bridges
admitted requests onto the engine's thread-side futures without
blocking the loop (``PendingResult.add_done_callback`` →
``call_soon_threadsafe``).

Backpressure is layered, and every shed is *typed*:

* token bucket empty → ``Overloaded/bucket_exhausted`` (the tenant is
  over its contracted rate — its own fault, nobody else pays);
* gateway in-flight bound or engine queue full →
  ``Overloaded/queue_full`` (the system is saturated);
* circuit open with no fallback → ``Overloaded/breaker_open``.

Request lifecycle (one trace when tracing is armed)::

    socket read ─► gateway.request
                     ├─ gateway.read      (frame wait + decode)
                     ├─ gateway.admission (token bucket)
                     └─ serve.request     (engine: queue → batch →
                                           replica-forward → respond)

The in-process path (:class:`InProcessGatewayClient` /
:meth:`Gateway.handle_message`) runs the identical code minus the
socket, so tests exercise the same admission, shed, and trace logic
the TCP path serves.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.trace import current_tracer
from .admission import AdmissionController, TenantPolicy
from .batcher import SHED_QUEUE_FULL, SHED_REASONS, Overloaded
from .engine import InvalidInput, ServeEngine
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    FrameTooLarge,
    ProtocolError,
    decode_payload,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    request_message,
)

__all__ = [
    "GatewayConfig",
    "Gateway",
    "InProcessGatewayClient",
    "TCPGatewayClient",
]

logger = logging.getLogger("repro.serve.gateway")

_HEADER_PREFIX_MAX = (1 << 32) - 1


@dataclass
class GatewayConfig:
    """Knobs of the gateway front door.

    Attributes
    ----------
    max_inflight:
        Bound on requests admitted but not yet answered — the
        gateway's accept queue.  Beyond it requests shed with
        ``queue_full`` before touching the engine.
    default_rate_per_s / default_burst:
        Token-bucket contract for tenants without an explicit policy:
        sustained requests/second and the burst capacity above it.
    per_tenant:
        Tenant-name → :class:`~repro.serve.admission.TenantPolicy`
        overrides.
    max_frame_bytes:
        Per-frame wire budget; a larger length prefix closes the
        connection after a typed reject.
    request_timeout_s:
        Ceiling on one admitted request's end-to-end time before the
        gateway answers with a timeout error.
    max_tenants:
        LRU bound on live token buckets (hostile tenant-name churn).
    """

    max_inflight: int = 256
    default_rate_per_s: float = 1000.0
    default_burst: float = 64.0
    per_tenant: Dict[str, TenantPolicy] = field(default_factory=dict)
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    request_timeout_s: float = 60.0
    max_tenants: int = 1024

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")

    def default_policy(self) -> TenantPolicy:
        return TenantPolicy(
            refill_per_s=self.default_rate_per_s, burst=self.default_burst
        )


class Gateway:
    """Admission-controlled asyncio front door over a :class:`ServeEngine`.

    Parameters
    ----------
    engine:
        The serving engine; the gateway does not own it (callers close
        both, gateway first).
    config:
        :class:`GatewayConfig`; defaults suit the benchmark models.
    registry:
        Metrics sink; defaults to the engine's registry when it shares
        the process default, else the process default.
    clock:
        Injectable clock feeding the admission buckets — tests and
        deterministic replays pass a
        :class:`~repro.serve.admission.ManualClock`.
    """

    def __init__(
        self,
        engine: ServeEngine,
        config: Optional[GatewayConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else GatewayConfig()
        self._registry = registry if registry is not None else default_registry()
        self.admission = AdmissionController(
            self.config.default_policy(),
            per_tenant=self.config.per_tenant,
            clock=clock,
            max_tenants=self.config.max_tenants,
        )
        self._inflight = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()

        reg = self._registry
        self._m_requests = reg.counter("gateway.requests_total")
        self._m_admitted = reg.counter("gateway.admitted_total")
        self._m_rejected = reg.counter("gateway.rejected_total")
        self._m_reject_reason = {
            reason: reg.counter(f"gateway.rejected.{reason}")
            for reason in SHED_REASONS
        }
        self._m_invalid = reg.counter("gateway.rejected.invalid_input")
        self._m_timeouts = reg.counter("gateway.timeouts_total")
        self._m_connections = reg.counter("gateway.connections_total")
        self._g_connections = reg.gauge("gateway.connections")
        self._g_inflight = reg.gauge("gateway.inflight")
        self._m_latency = reg.histogram("gateway.latency_s")

    # ------------------------------------------------------------------
    # Request handling (shared by TCP and in-process paths)
    # ------------------------------------------------------------------
    async def handle_message(
        self,
        payload: Dict[str, Any],
        transport: str = "inproc",
        read_started: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Admit/serve one request message; always returns a response.

        Every failure mode maps to a typed error response — this
        coroutine never raises for bad input, only for gateway bugs —
        so connection loops stay alive no matter the traffic.
        """
        self._m_requests.inc()
        started = time.perf_counter()
        tracer = current_tracer()
        root = (
            tracer.start_span("gateway.request", transport=transport)
            if tracer is not None else None
        )
        try:
            response = await self._handle_inner(payload, root, read_started)
        finally:
            if root is not None:
                ok = bool(response["ok"]) if "response" in locals() else False
                tracer.end(root, status="ok" if ok else "error")
        self._m_latency.observe(time.perf_counter() - started)
        return response

    async def _handle_inner(self, payload, root, read_started) -> Dict[str, Any]:
        tracer = current_tracer()
        if root is not None and read_started is not None:
            # The frame wait + decode happened before this span tree
            # existed; materialize it backdated, like serve.queue.
            waited_s = time.perf_counter() - read_started
            read_span = tracer.start_span(
                "gateway.read", parent=root.context,
                start_unix=time.time() - waited_s,
            )
            tracer.end(read_span, duration_s=waited_s)

        try:
            req_id, tenant, grid = parse_request(payload)
        except ProtocolError as exc:
            self._reject_invalid(root, exc)
            return error_response(
                payload.get("id") if isinstance(payload.get("id"), str) else None,
                "InvalidInput", str(exc),
            )
        if root is not None:
            root.set("tenant", tenant)

        # Admission: the gateway's own in-flight bound first — a
        # request shed because the *system* is saturated must not
        # charge the tenant's token bucket — then the per-tenant
        # bucket for requests the gateway could actually take.
        if root is not None:
            adm_span = tracer.start_span("gateway.admission", parent=root.context)
        if self._inflight >= self.config.max_inflight:
            reason = SHED_QUEUE_FULL
        else:
            reason = self.admission.admit(tenant)
        if root is not None:
            adm_span.set("decision", reason or "admit")
            tracer.end(adm_span)
        if reason is not None:
            self._reject_shed(root, reason)
            return error_response(
                req_id, "Overloaded",
                f"request shed at the gateway ({reason})", reason=reason,
            )

        # Hand off to the engine.  submit() may itself shed (engine
        # queue full) or reject (NaN/Inf grid) — same typed mapping.
        self._inflight += 1
        self._g_inflight.set(self._inflight)
        try:
            try:
                pending = self.engine.submit(
                    grid, parent=root.context if root is not None else None
                )
            except Overloaded as exc:
                self._reject_shed(root, exc.reason)
                return error_response(
                    req_id, "Overloaded", str(exc), reason=exc.reason
                )
            except (InvalidInput, ValueError) as exc:
                self._reject_invalid(root, exc)
                return error_response(req_id, "InvalidInput", str(exc))

            try:
                result = await asyncio.wait_for(
                    _wrap_pending(pending), self.config.request_timeout_s
                )
            except Overloaded as exc:
                # A lane failed the whole batch with a typed shed
                # (open breaker, no fallback).
                self._reject_shed(root, exc.reason)
                return error_response(
                    req_id, "Overloaded", str(exc), reason=exc.reason
                )
            except asyncio.TimeoutError:
                self._m_timeouts.inc()
                if root is not None:
                    root.event("timeout", budget_s=self.config.request_timeout_s)
                return error_response(
                    req_id, "Timeout",
                    f"no result within {self.config.request_timeout_s}s",
                )
            except Exception as exc:  # backend failure surfaced by the lane
                if root is not None:
                    root.event("engine_error", error=repr(exc))
                return error_response(req_id, type(exc).__name__, str(exc))
        finally:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)

        self._m_admitted.inc()
        return ok_response(req_id, result)

    def _reject_shed(self, root, reason: str) -> None:
        self._m_rejected.inc()
        counter = self._m_reject_reason.get(reason)
        if counter is not None:
            counter.inc()
        if root is not None:
            root.event("shed", reason=reason)

    def _reject_invalid(self, root, exc: Exception) -> None:
        self._m_rejected.inc()
        self._m_invalid.inc()
        if root is not None:
            root.event("invalid_input", error=str(exc))

    # ------------------------------------------------------------------
    # TCP server
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        sock = self._server.sockets[0]
        bound = sock.getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Wind down any connections still open: each handler cancels
        # its read loop, drains in-flight responders, and closes out.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def _handle_connection(self, reader, writer) -> None:
        """One connection: pipelined request frames, demuxed by id.

        Each decoded request is handled in its own task so a slow
        batch never head-of-line-blocks the peer's later requests;
        responses are written as they complete under a per-connection
        write lock.  Malformed frames get a typed reject and the loop
        continues; only an oversized length prefix (framing cannot
        resync) closes the connection — after the reject is written.
        """
        self._m_connections.inc()
        self._g_connections.add(1)
        write_lock = asyncio.Lock()
        tasks: set = set()
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)

        async def respond(payload: Dict[str, Any], read_started: float) -> None:
            response = await self.handle_message(
                payload, transport="tcp", read_started=read_started
            )
            await self._write(writer, write_lock, response)

        try:
            while True:
                read_started = time.perf_counter()
                try:
                    header = await reader.readexactly(HEADER_BYTES)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                length = int.from_bytes(header, "big")
                if length > self.config.max_frame_bytes:
                    self._m_invalid.inc()
                    self._m_rejected.inc()
                    await self._write(writer, write_lock, error_response(
                        None, "InvalidInput",
                        f"frame of {length} bytes exceeds the "
                        f"{self.config.max_frame_bytes}-byte budget",
                    ))
                    break  # framing lost: close after the reject
                try:
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # truncated frame: peer went away mid-send
                try:
                    payload = decode_payload(body)
                except ProtocolError as exc:
                    # Framing is intact (we consumed exactly one
                    # frame); reject and keep serving this peer.
                    self._m_invalid.inc()
                    self._m_rejected.inc()
                    await self._write(writer, write_lock, error_response(
                        None, "InvalidInput", str(exc),
                    ))
                    continue
                task = asyncio.ensure_future(respond(payload, read_started))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # Gateway stopping: abandon the read loop and cancel the
            # in-flight responders.  Swallowed rather than re-raised so
            # the handler task finishes cleanly (a cancelled handler
            # makes the streams protocol callback log spurious noise).
            for task in tasks:
                task.cancel()
        finally:
            # Drain in-flight handlers so no engine future is orphaned
            # with an unwritten response task still scheduled.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if me is not None:
                self._conn_tasks.discard(me)
            self._g_connections.add(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError):  # pragma: no cover
                pass

    @staticmethod
    async def _write(writer, lock: asyncio.Lock, payload: Dict[str, Any]) -> None:
        async with lock:
            try:
                writer.write(encode_frame(payload))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                # Peer gone: the response is undeliverable, not an error.
                pass

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Gateway-side counters for logs and benchmark payloads."""
        return {
            "requests": self._m_requests.value,
            "admitted": self._m_admitted.value,
            "rejected": self._m_rejected.value,
            "rejected_by_reason": {
                reason: counter.value
                for reason, counter in self._m_reject_reason.items()
            },
            "invalid": self._m_invalid.value,
            "inflight": self._inflight,
            "tenants": self.admission.tenants,
        }


def _wrap_pending(pending) -> "asyncio.Future":
    """Bridge a thread-side :class:`PendingResult` into the event loop."""
    loop = asyncio.get_running_loop()
    future = loop.create_future()

    def _done(completed) -> None:
        try:
            result = completed.result(timeout=0)
        except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
            loop.call_soon_threadsafe(_resolve, future, None, exc)
        else:
            loop.call_soon_threadsafe(_resolve, future, result, None)

    pending.add_done_callback(_done)
    return future


def _resolve(future, result, error) -> None:
    if future.cancelled():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
class InProcessGatewayClient:
    """Zero-socket client: the loopback for tests.

    Speaks the same message dicts as the wire (optionally round-tripped
    through the byte codec with ``strict=True``) against
    :meth:`Gateway.handle_message`, so admission, shedding, tracing,
    and response typing are byte-for-byte the TCP path's.
    """

    def __init__(self, gateway: Gateway, strict: bool = False) -> None:
        self._gateway = gateway
        self._strict = strict
        self._ids = itertools.count()

    async def request(
        self,
        grid: np.ndarray,
        tenant: str = "default",
        req_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        if req_id is None:
            req_id = f"r{next(self._ids)}"
        payload = request_message(req_id, grid, tenant)
        if self._strict:
            # Exercise the codec too: encode → frame-decode round trip.
            payload = decode_payload(encode_frame(payload)[HEADER_BYTES:])
        return await self._gateway.handle_message(payload, transport="inproc")


class TCPGatewayClient:
    """Pipelining TCP client: many requests in flight on one connection.

    A background reader task demultiplexes response frames by request
    id, so :meth:`request` coroutines resolve out of order — what
    open-loop traffic needs.
    """

    def __init__(self, reader, writer, max_frame_bytes: int) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._pending: Dict[str, asyncio.Future] = {}
        self._ids = itertools.count()
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "TCPGatewayClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame_bytes)

    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(HEADER_BYTES)
                length = int.from_bytes(header, "big")
                if length > self._max_frame_bytes:
                    raise ProtocolError(f"server frame of {length} bytes")
                payload = decode_payload(
                    await self._reader.readexactly(length)
                )
                future = self._pending.pop(payload.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(payload)
                # id-less frames are connection-level errors (e.g. a
                # protocol reject for a frame the server couldn't
                # attribute); surface them to every waiter on close.
        except (asyncio.IncompleteReadError, ConnectionResetError,
                ProtocolError, asyncio.CancelledError) as exc:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError(f"gateway connection lost: {exc!r}")
                    )
            self._pending.clear()

    async def request(
        self,
        grid: np.ndarray,
        tenant: str = "default",
        req_id: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        if req_id is None:
            req_id = f"c{next(self._ids)}"
        future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        frame = encode_frame(request_message(req_id, grid, tenant))
        async with self._write_lock:
            self._writer.write(frame)
            await self._writer.drain()
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(req_id, None)

    async def send_raw(self, data: bytes) -> None:
        """Ship arbitrary bytes (fuzz tests)."""
        async with self._write_lock:
            self._writer.write(data)
            await self._writer.drain()

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
