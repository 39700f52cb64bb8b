"""The single-process asyncio load generator.

It opens at most ``CONNECTIONS`` (the host's two cores) JSON-lines
connections to one endpoint, pipelines requests on them and matches
responses by ``id``.  Two loop shapes:

* :func:`open_loop` sends request ``i`` when it is due — at
  ``start + i / rate``, whether or not earlier ones have returned — and
  times it from that due time, so a stall also charges the requests
  queued behind it.  How late the generator itself sent is recorded per
  request.
* :func:`closed_loop` keeps ``depth`` requests in flight per connection
  and sends the next one when a response arrives: the saturation phase.

Every response is kept with its timings for the correctness check and
the per-layer breakdown, which happen after the timed window.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

CONNECTIONS = 2


@dataclass
class Sample:
    """One request as the generator saw it."""

    item: Tuple[str, str]  # (query, mode)
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: Optional[dict] = None

    @property
    def latency_ms(self) -> float:
        """From due time to response (the open-loop latency)."""
        return (self.received - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0

    @property
    def status(self) -> str:
        return (self.response or {}).get("status", "timeout")


@dataclass
class Phase:
    """The samples of one phase plus its wall-clock window."""

    name: str
    samples: List[Sample] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    def completed(self) -> List[Sample]:
        return [s for s in self.samples if s.response is not None]


class _Connection:
    """One pipelined connection: a writer plus a reader task that
    resolves each pending request's future by response id."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[object, Tuple[Sample, asyncio.Future]] = {}
        self._control_ids = itertools.count()
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            received = time.monotonic()
            payload = json.loads(line)
            entry = self.pending.pop(payload.get("id"), None)
            if entry is None:
                continue
            sample, future = entry
            sample.received = received
            sample.response = payload
            if not future.done():
                future.set_result(sample)
        for _, future in self.pending.values():
            if not future.done():
                future.set_result(None)

    def send(self, rid: int, sample: Sample, top_k: int) -> asyncio.Future:
        query, mode = sample.item
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = (sample, future)
        sample.sent = time.monotonic()
        self.writer.write(
            json.dumps(
                {"op": "query", "id": rid, "query": query, "mode": mode,
                 "top_k": top_k},
                separators=(",", ":"),
            ).encode("utf-8") + b"\n"
        )
        return future

    async def request(self, payload: dict) -> dict:
        """A one-off control request (``metrics``) outside the id space
        of the query stream."""
        future = asyncio.get_running_loop().create_future()
        rid = f"control-{next(self._control_ids)}"
        sample = Sample(item=("", ""), due=time.monotonic())
        self.pending[rid] = (sample, future)
        self.writer.write(json.dumps({**payload, "id": rid}).encode() + b"\n")
        await future
        return sample.response

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        await self.task


class LoadGenerator:
    """Connections to one endpoint, reused across phases."""

    def __init__(self, address: Tuple[str, int], top_k: int,
                 timeout_s: float = 30.0):
        self.address = address
        self.top_k = top_k
        self.timeout_s = timeout_s
        self._ids = itertools.count()
        self._conns: List[_Connection] = []

    async def connect(self) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                *self.address, limit=1 << 24
            )
            self._conns.append(_Connection(reader, writer))

    async def close(self) -> None:
        for conn in self._conns:
            await conn.close()
        self._conns = []

    async def metrics(self) -> dict:
        return await self._conns[0].request({"op": "metrics"})

    async def _settle(self, futures: Sequence[asyncio.Future]) -> None:
        if futures:
            await asyncio.wait(futures, timeout=self.timeout_s)

    async def open_loop(self, name: str, items: Sequence[Tuple[str, str]],
                        rate: float) -> Phase:
        """Send ``items`` at a fixed ``rate`` (per second), round-robin
        over the connections; wait for every response."""
        phase = Phase(name)
        futures = []
        start = time.monotonic() + 0.005
        phase.started = start
        for i, item in enumerate(items):
            due = start + i / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            sample = Sample(item=item, due=due)
            phase.samples.append(sample)
            conn = self._conns[i % len(self._conns)]
            futures.append(conn.send(next(self._ids), sample, self.top_k))
        await self._settle(futures)
        phase.ended = time.monotonic()
        return phase

    async def closed_loop(self, name: str, items: Sequence[Tuple[str, str]],
                          depth: int) -> Phase:
        """Keep ``depth`` requests in flight per connection until ``items``
        run out, drawing them in order."""
        phase = Phase(name)
        source = iter(items)
        phase.started = time.monotonic()

        async def pump(conn: _Connection) -> None:
            for item in source:
                sample = Sample(item=item, due=time.monotonic())
                phase.samples.append(sample)
                future = conn.send(next(self._ids), sample, self.top_k)
                try:
                    await asyncio.wait_for(future, self.timeout_s)
                except asyncio.TimeoutError:
                    pass  # no response: the sample counts as failed

        await asyncio.gather(*(pump(c) for c in self._conns for _ in range(depth)))
        phase.ended = time.monotonic()
        return phase
