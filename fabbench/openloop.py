"""The benchmark's own open-loop load generator.

Independent fab tools send wafers on their own schedule, so the load
is open-loop: each request has a *due* time fixed before the run, is
sent at that time whether or not earlier requests were answered, and
its latency is measured from the due time.  A generator that falls
behind therefore charges the delay to every request behind it instead
of hiding it, and how late it ran is itself reported
(``bench.gen_lateness_ms_p99``); a run whose lateness exceeds the
benchmark's bound is invalid.

Every frame is encoded before the clock starts, so the send loop only
sleeps and writes.  One asyncio thread drives at most ``connections``
TCP connections to the gateway.
"""

from __future__ import annotations

import asyncio
import gc
import json
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

_HEADER = struct.Struct(">I")


@dataclass
class Scheduled:
    """One request of the schedule, before it is sent."""

    due_s: float
    conn: int
    tenant: str
    map_index: int


def poisson_times(rng: np.random.Generator, rate: float, start: float,
                  stop: float) -> List[float]:
    """Arrival times of a Poisson process of ``rate``/s on [start, stop)."""
    times = []
    t = start
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= stop:
            return times
        times.append(t)


def on_off_times(rng: np.random.Generator, rate: float, on_s: float, off_s: float,
                 start: float, stop: float, phase_s: float = 0.0) -> List[float]:
    """Poisson arrivals at ``rate`` during on-windows of an on/off cycle."""
    times = []
    cycle = on_s + off_s
    t0 = start + phase_s
    while t0 < stop:
        times.extend(poisson_times(rng, rate, t0, min(t0 + on_s, stop)))
        t0 += cycle
    return times


def encode_grid(grid: np.ndarray) -> bytes:
    return json.dumps(np.asarray(grid).tolist(), separators=(",", ":")).encode()


def frame(req_id: int, tenant: str, grid_json: bytes) -> bytes:
    """A protocol-v1 request frame around an already-encoded grid."""
    body = b'{"v":1,"id":"%d","tenant":%s,"grid":%s}' % (
        req_id, json.dumps(tenant).encode(), grid_json)
    return _HEADER.pack(len(body)) + body


@dataclass
class Timings:
    """Per-request timings, as offsets (s) from the schedule's zero.

    ``threads`` is the most threads the generator process ran while it
    drove, for the benchmark's core budget.
    """

    sent_at: List[float]
    done_at: List[float]
    responses: List[Optional[dict]]
    t0: float
    threads: int

    def lateness_s(self, schedule: Sequence[Scheduled]) -> List[float]:
        return [max(0.0, s - item.due_s) for s, item in zip(self.sent_at, schedule)]


async def drive(
    host: str,
    port: int,
    schedule: Sequence[Scheduled],
    frames: Sequence[bytes],
    connections: int,
    drain_s: float,
    before_send: Optional[Callable[[int], None]] = None,
) -> Timings:
    """Send ``frames[i]`` at ``schedule[i].due_s``; collect every answer.

    Responses are matched by request id (the schedule index).  After the
    last send the generator waits up to ``drain_s`` for outstanding answers;
    those still missing have ``done_at = inf``.  ``before_send`` is a test
    hook run just before each write.
    """
    count = len(schedule)
    sent_at = [float("inf")] * count
    done_at = [float("inf")] * count
    responses: List[Optional[dict]] = [None] * count
    outstanding = [count]
    all_done = asyncio.Event()
    if count == 0:
        all_done.set()

    links = [await asyncio.open_connection(host, port) for _ in range(connections)]
    threads = threading.active_count()
    start = time.monotonic()

    async def read(reader) -> None:
        try:
            while True:
                header = await reader.readexactly(_HEADER.size)
                (length,) = _HEADER.unpack(header)
                body = await reader.readexactly(length)
                now = time.monotonic() - start
                message = json.loads(body)
                try:
                    index = int(message.get("id"))
                except (TypeError, ValueError):
                    continue  # connection-level reject without an id
                if 0 <= index < count and responses[index] is None:
                    responses[index] = message
                    done_at[index] = now
                    outstanding[0] -= 1
                    if outstanding[0] == 0:
                        all_done.set()
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return

    readers = [asyncio.ensure_future(read(reader)) for reader, _ in links]
    try:
        for index, item in enumerate(schedule):
            delay = start + item.due_s - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            if before_send is not None:
                before_send(index)
            writer = links[item.conn][1]
            writer.write(frames[index])
            sent_at[index] = time.monotonic() - start
            if writer.transport.get_write_buffer_size() > (1 << 20):
                await writer.drain()
        for _, writer in links:
            await writer.drain()
        try:
            await asyncio.wait_for(all_done.wait(), drain_s)
        except asyncio.TimeoutError:
            pass
        threads = max(threads, threading.active_count())
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in links:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
    return Timings(sent_at=sent_at, done_at=done_at, responses=responses, t0=start,
                       threads=threads)


def run(host: str, port: int, schedule, frames, connections: int, drain_s: float,
        before_send=None) -> Timings:
    """Synchronous entry: one fresh event loop on the calling thread.

    The collector is paused while the schedule runs: a full collection
    over the generator's own heap would make it late for no reason the
    program under test caused.
    """
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(drive(host, port, schedule, frames, connections, drain_s,
                                 before_send=before_send))
    finally:
        gc.enable()


def merge(streams: Dict[str, Sequence[float]], conn_of: Dict[str, int]) -> List[Scheduled]:
    """Interleave per-tenant arrival times into one due-ordered schedule."""
    items = [Scheduled(due_s=t, conn=conn_of[tenant], tenant=tenant, map_index=-1)
             for tenant, times in streams.items() for t in times]
    items.sort(key=lambda item: item.due_s)
    return items
