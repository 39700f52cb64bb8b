"""Dynamic micro-batching: coalesce in-flight requests into one batch.

The paper's economics make batching pay twice: context statistics are
expensive to compute and cheap to reuse (Theorems 4.1/4.2), and the
:class:`~repro.core.engine.BatchExecutor` already materialises each
distinct context exactly once per batch.  The coalescer turns
*concurrent serving traffic* into such batches: requests that arrive
within a short window and share an execution signature (mode, ``top_k``,
forced path) are collected and dispatched as one batch, so concurrent
queries over the same context share one materialisation instead of
repeating it per request.

Flush policy is the classic dynamic-batching pair:

* **size** — the bucket reaches ``max_batch`` and flushes immediately
  (a full batch never waits for the timer);
* **timer** — ``max_wait_ms`` after the bucket's *first* request, the
  bucket flushes whatever it holds, bounding the latency cost of
  coalescing at ``max_wait_ms`` regardless of traffic.

The batch step is a coroutine, so the coalescer never knows where a
batch runs: the query service awaits its worker pool, the cluster router
awaits a scatter-gather over the wire.  Per-request results are posted
back to each submitter's future.  The step receives the submitted items
in arrival order and must return one result per item, in order.
"""

from __future__ import annotations

import asyncio
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = ["Coalescer"]


class _Bucket:
    __slots__ = ("entries", "timer")

    def __init__(self) -> None:
        self.entries: List[Tuple[Any, asyncio.Future]] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class Coalescer:
    """Collects submissions per batch key; flushes on size or timer.

    ``execute`` is an async callable ``(key, items) -> results`` (one
    result per item, in order); ``observe_batch`` (optional) receives
    ``(size, reason)`` per flush for metrics.
    """

    def __init__(
        self,
        execute: Callable[[Any, Sequence[Any]], Awaitable[Sequence[Any]]],
        max_batch: int = 16,
        max_wait_ms: float = 2.0,
        observe_batch: Optional[Callable[[int, str], None]] = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._execute = execute
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self._observe_batch = observe_batch
        self._buckets: Dict[Any, _Bucket] = {}
        self._tasks: set = set()

    @property
    def pending(self) -> int:
        """Requests currently waiting in unflushed buckets."""
        return sum(len(b.entries) for b in self._buckets.values())

    async def submit(self, key: Any, item: Any) -> Any:
        """Enqueue ``item`` under ``key``; resolves with its result.

        Cancelling the awaiting task (deadline enforcement) is safe at
        any point: the batch keeps running, and the dispatcher simply
        discards results whose future is already done.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
            if self.max_batch > 1 and self.max_wait > 0:
                bucket.timer = loop.call_later(
                    self.max_wait, self._flush, loop, key, "timer"
                )
        bucket.entries.append((item, future))
        if len(bucket.entries) >= self.max_batch:
            self._flush(loop, key, "size")
        elif bucket.timer is None:
            # max_batch == 1 or zero wait: nothing to coalesce with.
            self._flush(loop, key, "size" if self.max_batch == 1 else "timer")
        return await future

    async def drain(self) -> None:
        """Flush every bucket and wait for all in-flight batches."""
        loop = asyncio.get_running_loop()
        for key in list(self._buckets):
            self._flush(loop, key, "timer")
        while self._tasks:
            tasks = list(self._tasks)
            await asyncio.gather(*tasks, return_exceptions=True)
            self._tasks.difference_update(tasks)

    # -- internals ------------------------------------------------------

    def _flush(self, loop: asyncio.AbstractEventLoop, key: Any, reason: str) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        if self._observe_batch is not None:
            self._observe_batch(len(bucket.entries), reason)
        task = loop.create_task(self._dispatch(key, bucket.entries))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _dispatch(
        self, key: Any, entries: List[Tuple[Any, asyncio.Future]]
    ) -> None:
        items = [item for item, _ in entries]
        try:
            results = await self._execute(key, items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch executor returned {len(results)} results "
                    f"for {len(items)} items"
                )
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for _, future in entries:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(entries, results):
            if not future.done():
                future.set_result(result)
