"""Asyncio continuous batching: work joins the in-flight stream.

The PR 1 :class:`~repro.api.batch.BatchExecutor` is a fan-out *barrier*:
each ``map`` call spins up a thread pool, pays per-request thread and
lock overhead, and later calls wait at the boundary even when capacity
is free.  :class:`AsyncBatchExecutor` replaces the barrier with a
process-wide serving event loop plus one per-executor semaphore: every
item becomes a task on that loop, capacity is whatever the semaphore
says, and a second ``map`` (from any thread — the serving-gateway shape)
interleaves its items with the first call's stragglers instead of
queueing behind them.  That is continuous batching in the vLLM sense,
applied at the request orchestration layer.

The facade guarantee: this class takes the same constructor arguments
and exposes the same ``map``/``records``/``aborted`` API as
``BatchExecutor``, and it has no per-item decision logic of its own.
Both executors drive one decision core, ``BatchExecutor._steps`` —
shed verdict, abort check, breaker, the guarded attempt (deadline,
budget charge, admission, the call itself), retry classification,
decorrelated per-item backoff with the Retry-After floor and deadline
clamp, and the request record.  Each executor supplies only a driver:
how one attempt runs (here inline on the loop, or offloaded) and how a
backoff waits (here awaited, cut short by a fatal abort).  Every knob
(retry policy, breaker, shared budget, fault plans via the client,
deadlines, hedging, admission control, checkpoints) therefore behaves
identically through either path, and predictions, quarantine sets, and
manifests are byte-identical at any concurrency.

Blocking callables: ``fn`` is ordinarily a cache-backed client call and
runs inline on the loop (cheap, deterministic, GIL-bound anyway).  When
an admission controller is attached — whose AIMD gate *blocks* until
window capacity frees — attempts are offloaded to the default thread
pool so the loop can keep releasing capacity; ``offload=True`` forces
the same for genuinely blocking backends.
"""

from __future__ import annotations

import asyncio
import atexit
import threading
from collections.abc import Callable, Iterable

from repro.api.batch import BatchExecutor

__all__ = [
    "AsyncBatchExecutor",
    "get_serving_loop",
    "shutdown_serving_loop",
]

# The process-wide serving loop: one daemon thread running one asyncio
# loop, started on first use.  Shared on purpose — a single loop is what
# lets independent map() calls (and, later, gateway requests) merge into
# one in-flight stream.
_LOOP: asyncio.AbstractEventLoop | None = None
_LOOP_THREAD: threading.Thread | None = None
_LOOP_LOCK = threading.Lock()


def get_serving_loop() -> asyncio.AbstractEventLoop:
    """The process-wide serving event loop, starting it if needed."""
    global _LOOP, _LOOP_THREAD
    with _LOOP_LOCK:
        if _LOOP is not None and not _LOOP.is_closed():
            return _LOOP
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=loop.run_forever, name="repro-serving-loop", daemon=True
        )
        thread.start()
        _LOOP = loop
        _LOOP_THREAD = thread
        return loop


def shutdown_serving_loop() -> None:
    """Stop and close the serving loop.

    Safe to call at any time, from any thread, any number of times —
    including concurrently with :func:`get_serving_loop` (the globals
    swap atomically under the lock, so a racing getter either reuses
    the loop before we detach it or starts a fresh one).  Called
    explicitly by ``repro serve`` on exit and registered via ``atexit``
    so one-shot CLI runs stop the daemon thread cleanly too.
    """
    global _LOOP, _LOOP_THREAD
    with _LOOP_LOCK:
        loop, thread = _LOOP, _LOOP_THREAD
        _LOOP = _LOOP_THREAD = None
    if loop is None or loop.is_closed():
        return
    try:
        loop.call_soon_threadsafe(loop.stop)
    except RuntimeError:
        # Lost a race with another shutdown that already closed it.
        return
    if thread is not None and thread is not threading.current_thread():
        thread.join(timeout=5.0)
    if thread is None or not thread.is_alive():
        loop.close()


# One-shot runs never call shutdown themselves; without this the daemon
# loop thread dies mid-instruction at interpreter teardown and can spray
# "Exception ignored in..." noise on 3.12.
atexit.register(shutdown_serving_loop)


class AsyncBatchExecutor(BatchExecutor):
    """Continuous-batching driver of :class:`~repro.api.batch.BatchExecutor`.

    Constructor, ``map``, ``records``, and ``aborted`` are inherited
    API-for-API, and so is the per-item decision order
    (:meth:`~repro.api.batch.BatchExecutor._steps`); this class only
    drives it on the serving loop.  ``workers`` becomes the semaphore
    width on the shared serving loop instead of a thread count.  ``map``
    bridges from sync callers; async callers (the gateway) await
    :meth:`amap` directly on the serving loop via
    :func:`asyncio.run_coroutine_threadsafe`.

    ``offload=None`` (auto) runs attempts inline except when an
    admission controller is attached; ``True`` always offloads to the
    default thread pool, ``False`` never does (and is rejected together
    with admission — a blocking AIMD gate inline on the loop would
    deadlock against the releases it is waiting for).
    """

    def __init__(self, *args, offload: bool | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        if offload is False and self.admission is not None:
            raise ValueError(
                "offload=False with an admission controller would block "
                "the serving loop on the AIMD gate"
            )
        self.offload = offload
        self._semaphore: asyncio.Semaphore | None = None

    def _must_offload(self) -> bool:
        if self.offload is not None:
            return self.offload
        return self.admission is not None

    def _sem(self) -> asyncio.Semaphore:
        # Created lazily on the loop so the executor can be constructed
        # anywhere; one semaphore per executor is the shared-capacity
        # contract that makes later map() calls join the in-flight batch.
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.workers)
        return self._semaphore

    async def _run_one_async(
        self, fn: Callable, item, index: int, run, on_error: str,
        verdict: str,
    ):
        """Async driver: attempt inline or offloaded, await the abort event."""
        loop = asyncio.get_running_loop()
        offload = self._must_offload()
        async with self._sem():
            steps = self._steps(index, run, on_error, verdict)
            try:
                step = next(steps)
                while True:
                    if step is None:
                        try:
                            if offload:
                                result = await loop.run_in_executor(
                                    None, self._attempt, fn, item
                                )
                            else:
                                result = self._attempt(fn, item)
                        except BaseException as exc:
                            step = steps.throw(exc)
                        else:
                            step = steps.send(result)
                    else:
                        try:
                            await asyncio.wait_for(
                                run.abort.wait(), timeout=step
                            )
                        except asyncio.TimeoutError:
                            pass
                        step = next(steps)
            except StopIteration as done:
                return done.value

    async def amap(
        self, fn: Callable, items: Iterable, on_error: str = "raise"
    ) -> list:
        """Async ``map``: one task per item on the current (serving) loop.

        Semantics match :meth:`BatchExecutor.map` exactly — input-order
        results, scatter mode via ``on_error="return"``, fatal errors
        aborting the whole call — with the semaphore, not a pool
        boundary, as the only capacity limit.
        """
        items, run, verdicts = self._start(items, on_error, asyncio.Event())
        if not items:
            return []
        tasks = [
            asyncio.ensure_future(
                self._run_one_async(
                    fn, item, index, run, on_error, verdicts[index]
                )
            )
            for index, item in enumerate(items)
        ]
        results = await asyncio.gather(*tasks, return_exceptions=True)
        if run.fatal is not None:
            raise run.fatal
        for result in results:
            if isinstance(result, BaseException):
                # raise-mode terminal failure (lowest index first, the
                # order the thread pool awaits futures in) — or, in
                # return mode, an unexpected executor bug.
                raise result
        return list(results)

    def map(self, fn: Callable, items: Iterable, on_error: str = "raise") -> list:
        """Sync bridge onto the serving loop (the facade entry point)."""
        if threading.current_thread() is _LOOP_THREAD:
            raise RuntimeError(
                "map() called from the serving loop itself; await amap()"
            )
        # A concurrent shutdown_serving_loop() can close the loop between
        # our lookup and the submit; one retry picks up the fresh loop.
        for retry in (False, True):
            loop = get_serving_loop()
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self.amap(fn, items, on_error), loop
                )
            except RuntimeError:
                if retry:
                    raise
                continue
            return future.result()
        raise RuntimeError("serving loop unavailable")  # pragma: no cover
