"""Concurrent batch execution: fan-out, retry with backoff, shared budgets.

The paper's workloads are thousands of *independent* ``complete()`` calls
per benchmark table — one prompt per test pair or cell — issued against a
rate-limited API.  Serial loops pay full round-trip latency per prompt;
this module fans them across a thread pool while keeping everything the
harness relies on:

* **order preservation** — results come back in input order regardless of
  completion order or worker count,
* **determinism** — at temperature 0 a completion depends only on its
  prompt, so serial and parallel runs produce identical predictions,
* **retry with deterministic exponential backoff** on
  :class:`~repro.api.retry.RateLimitError` and transient network-ish
  failures, governed by one shared :class:`~repro.api.retry.RetryPolicy`,
* **fail-fast on fatal errors** — a
  :class:`~repro.api.retry.FatalError` (e.g. an exhausted
  :class:`SharedBudget`) aborts the whole batch immediately: no backoff,
  pending futures are cancelled, in-flight work drains, and the original
  error re-raises from :meth:`BatchExecutor.map`,
* **atomic budgets** — a :class:`SharedBudget` charged under a lock, so
  concurrent workers can never collectively overshoot a request or token
  ceiling,
* **per-request accounting** — every attempt produces a
  :class:`RequestRecord` (latency, attempts, outcome), surfaced through
  :class:`~repro.api.usage.UsageTracker.request_log`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.api.retry import (
    BudgetExhaustedError,
    CircuitOpenError,
    FatalError,
    RetryPolicy,
    Shed,
    retry_after_floor,
)
from repro.api.usage import UsageTracker, count_tokens

__all__ = [
    "BatchExecutor",
    "BatchFailure",
    "CircuitBreaker",
    "RequestRecord",
    "SharedBudget",
    "complete_all",
    "get_default_executor_kind",
    "get_default_workers",
    "make_executor",
    "resolve_workers",
    "set_default_executor_kind",
    "set_default_workers",
]

# Process-wide default worker count.  The CLI's ``--workers`` flag sets
# this once so every per-example loop underneath (task runners, bench
# helpers, Wrangler verbs) picks it up without threading a parameter
# through fourteen bench modules.
_DEFAULT_WORKERS = 1
_DEFAULT_WORKERS_LOCK = threading.Lock()


def set_default_workers(n: int) -> None:
    """Set the process-wide default worker count (``--workers`` backend)."""
    global _DEFAULT_WORKERS
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {n}")
    with _DEFAULT_WORKERS_LOCK:
        _DEFAULT_WORKERS = n


def get_default_workers() -> int:
    with _DEFAULT_WORKERS_LOCK:
        return _DEFAULT_WORKERS


def resolve_workers(workers: int | None) -> int:
    """``workers`` if given (validated), else the process-wide default."""
    if workers is None:
        return get_default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


# Process-wide default executor kind.  "thread" is the PR 1 pool below;
# "async" routes make_executor to the continuous-batching
# :class:`~repro.api.abatch.AsyncBatchExecutor`.  The CLI's ``--executor``
# flag sets this once per process — same ambient-default pattern as the
# worker count above.
EXECUTOR_KINDS = ("thread", "async")
_DEFAULT_EXECUTOR_KIND = "thread"
_DEFAULT_EXECUTOR_KIND_LOCK = threading.Lock()


def set_default_executor_kind(kind: str) -> None:
    """Set the process-wide executor kind ("thread" or "async")."""
    global _DEFAULT_EXECUTOR_KIND
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"executor kind must be one of {EXECUTOR_KINDS}, got {kind!r}"
        )
    with _DEFAULT_EXECUTOR_KIND_LOCK:
        _DEFAULT_EXECUTOR_KIND = kind


def get_default_executor_kind() -> str:
    with _DEFAULT_EXECUTOR_KIND_LOCK:
        return _DEFAULT_EXECUTOR_KIND


def make_executor(kind: str | None = None, **kwargs):
    """Build an executor of ``kind`` ("thread"/"async"; ``None`` = default).

    The facade between the engine and the two execution cores: both
    accept the same constructor arguments and expose the same
    ``map``/``records`` API, so every caller (and every PR 1–5 knob —
    retry policy, breaker, budget, deadline, admission, checkpoints)
    works unchanged through either.
    """
    if kind is None:
        kind = get_default_executor_kind()
    if kind == "thread":
        return BatchExecutor(**kwargs)
    if kind == "async":
        from repro.api.abatch import AsyncBatchExecutor

        return AsyncBatchExecutor(**kwargs)
    raise ValueError(
        f"executor kind must be one of {EXECUTOR_KINDS}, got {kind!r}"
    )


@dataclass(frozen=True)
class RequestRecord:
    """Latency and outcome of one logical request (all its attempts)."""

    index: int
    ok: bool
    attempts: int
    latency_s: float
    error: str | None = None


@dataclass(frozen=True)
class BatchFailure:
    """One item's terminal failure, returned by ``map(on_error="return")``.

    Instead of aborting the whole batch, scatter mode records the final
    (retries-exhausted or non-retryable) error in the item's result slot
    so the caller can quarantine that example and keep the rest.  Fatal
    errors still abort — a spent budget dooms every pending item alike.
    """

    index: int
    error: BaseException
    attempts: int

    @property
    def error_type(self) -> str:
        return type(self.error).__name__


class CircuitBreaker:
    """Trip after N consecutive transient failures; probe to recover.

    When the endpoint is down, every pending item otherwise burns its
    full retry/backoff budget discovering the same outage.  The breaker
    *shares* that discovery: ``failure_threshold`` consecutive transient
    failures open the circuit, after which :meth:`allow` rejects work
    instantly (the executor fails those items with
    :class:`~repro.api.retry.CircuitOpenError` — fast, no backend call).
    Once ``cooldown_s`` elapses the circuit goes *half-open*: exactly one
    caller is admitted as a probe; its success closes the circuit, its
    failure re-opens it for another cooldown.  Any success resets the
    consecutive-failure count, so scattered transient faults under an
    otherwise healthy endpoint never trip it.

    Thread-safe; state survives across ``map`` calls on purpose (the
    breaker models endpoint health, not batch progress).  The clock is
    injectable (default ``time.monotonic``) so cooldown and half-open
    transitions are testable without real sleeps; the same injected
    clock can drive a :class:`~repro.api.resilience.Deadline`.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.n_trips = 0
        self.n_rejections = 0
        self.n_probes = 0

    @property
    def state(self) -> str:
        """"closed", "open", or "half_open"."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a caller may attempt a request right now."""
        with self._lock:
            if self._state == "closed":
                return True
            now = self._clock()
            if self._state == "open":
                if now - self._opened_at < self.cooldown_s:
                    self.n_rejections += 1
                    return False
                self._state = "half_open"
                self._probing = True
                self.n_probes += 1
                return True
            # half_open: one probe at a time.
            if self._probing:
                self.n_rejections += 1
                return False
            self._probing = True
            self.n_probes += 1
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probing = False
            self._state = "closed"

    def record_failure(self) -> None:
        """Count one transient failure; trip or re-open as needed."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == "half_open":
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False
                self.n_trips += 1
            elif (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self.n_trips += 1

    def stats(self) -> dict[str, int | str]:
        with self._lock:
            return {
                "state": self._state,
                "trips": self.n_trips,
                "rejections": self.n_rejections,
                "probes": self.n_probes,
            }


#: Slot marker for an item skipped after a sibling's terminal failure in
#: ``on_error="raise"`` mode: it never started, like a cancelled future.
#: It never reaches a caller, because the ``map`` call then raises.
_CANCELLED = object()


class _MapRun:
    """Abort/fatal state scoped to one ``map`` call.

    Per-run state makes reuse and concurrent ``map`` calls on one
    executor safe: each run aborts only itself.  ``abort`` is a
    ``threading.Event`` for the thread pool and a loop-confined
    ``asyncio.Event`` for the async executor; the decision core only
    sets and tests it, and each driver waits on it in its own way.
    """

    __slots__ = ("abort", "fatal", "lock", "stop")

    def __init__(self, abort):
        self.abort = abort
        self.fatal: BaseException | None = None
        self.lock = threading.Lock()
        # raise mode: a sibling failed terminally and map() is going to
        # raise, so items that have not started yet skip.
        self.stop = False

    def set_fatal(self, exc: BaseException) -> None:
        with self.lock:
            if self.fatal is None:
                self.fatal = exc
        self.abort.set()


class SharedBudget:
    """A request/token ceiling charged atomically across workers.

    Unlike the per-client ``requests_per_run`` counter, one budget can be
    shared by many clients and many threads; ``charge`` either admits the
    whole request or raises :class:`~repro.api.retry.BudgetExhaustedError`
    without consuming anything, so concurrent workers can never
    collectively overshoot.  Exhaustion is *fatal*: the budget cannot
    recover mid-run, so the executor aborts instead of backing off.
    """

    def __init__(
        self,
        max_requests: int | None = None,
        max_tokens: int | None = None,
    ):
        self.max_requests = max_requests
        self.max_tokens = max_tokens
        self.n_requests = 0
        self.n_tokens = 0
        self._lock = threading.Lock()

    def charge(self, requests: int = 1, tokens: int = 0) -> None:
        """Atomically consume budget, or raise without consuming any."""
        with self._lock:
            if (
                self.max_requests is not None
                and self.n_requests + requests > self.max_requests
            ):
                raise BudgetExhaustedError(
                    f"request budget of {self.max_requests} exhausted"
                )
            if (
                self.max_tokens is not None
                and self.n_tokens + tokens > self.max_tokens
            ):
                raise BudgetExhaustedError(
                    f"token budget of {self.max_tokens} exhausted"
                )
            self.n_requests += requests
            self.n_tokens += tokens

    @property
    def remaining_requests(self) -> int | None:
        if self.max_requests is None:
            return None
        with self._lock:
            return max(0, self.max_requests - self.n_requests)


class BatchExecutor:
    """Fan a list of prompts (or arbitrary items) across a thread pool.

    ``map(fn, items)`` preserves input order in its result list.  Retry
    behaviour comes from one :class:`~repro.api.retry.RetryPolicy`
    (``policy``; the default policy when omitted): each item gets up to
    ``1 + policy.max_retries`` attempts, and attempts failing with a
    retryable error sleep the policy's deterministic exponential backoff
    before retrying.  A final failure re-raises from ``map`` — or, with
    ``map(..., on_error="return")``, is captured as a
    :class:`BatchFailure` in that item's result slot so the caller can
    quarantine the example and keep the batch alive.

    A :class:`~repro.api.retry.FatalError` short-circuits everything:
    the executor sets an abort flag (waking any worker mid-backoff),
    cancels futures that have not started, lets in-flight attempts
    drain, and re-raises the first fatal error — so an exhausted budget
    costs zero backoff sleeps instead of ``workers * Σ backoff``.  Abort
    state is scoped to each ``map`` call, so an executor that failed
    fatally is immediately reusable and concurrent ``map`` calls cannot
    abort each other.

    An optional :class:`CircuitBreaker` guards every attempt: while the
    circuit is open, items fail fast with
    :class:`~repro.api.retry.CircuitOpenError` instead of hammering a
    dead endpoint, and a single half-open probe per cooldown decides
    when to resume.

    An optional :class:`SharedBudget` is charged once per attempt (string
    items are also charged their prompt tokens); an optional
    :class:`UsageTracker` receives every :class:`RequestRecord`.

    Service-level knobs (all optional, all off by default):

    * ``deadline`` — a :class:`~repro.api.resilience.Deadline` checked
      before every attempt and clamped around every backoff sleep, so
      the fan-out can never sleep past its wall budget; expiry raises
      :class:`~repro.api.retry.DeadlineExceededError` (fatal).
    * ``admission`` — an
      :class:`~repro.api.resilience.AdmissionController` consulted once
      per ``map`` call, *before* the fan-out: shed items fail instantly
      with :class:`~repro.api.retry.Shed` (zero backend calls), and its
      AIMD limiter gates per-attempt concurrency.  ``priority`` names
      the batch's priority class for the shed plan.

    Backoff sleeps are decorrelated-jittered per item (a pure function
    of the policy's seed, the attempt number, and the item's index — see
    :meth:`~repro.api.retry.RetryPolicy.delay`), so concurrent retries
    of different items never synchronize into a thundering herd.

    The per-item decision order lives once, in :meth:`_steps`; this
    class's thread driver (:meth:`_run_one`) and the async executor's
    driver only run its attempts and wait out its backoffs.
    """

    def __init__(
        self,
        workers: int | None = None,
        budget: SharedBudget | None = None,
        usage: UsageTracker | None = None,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        deadline=None,
        admission=None,
        priority: str = "bench",
        token_cost: Callable | None = None,
    ):
        self.workers = resolve_workers(workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self.budget = budget
        self.usage = usage
        self.breaker = breaker
        self.deadline = deadline
        self.admission = admission
        self.priority = priority
        # Optional ``item -> tokens`` override for budget charging.  The
        # default counts string items in full; the prefix-cached serving
        # path supplies the per-item suffix cost instead (the shared
        # prefix having been charged to the budget once, up front).
        self.token_cost = token_cost
        self.records: list[RequestRecord] = []
        self._records_lock = threading.Lock()
        self._last_run: _MapRun | None = None

    @property
    def aborted(self) -> bool:
        """Whether the most recent ``map`` hit a fatal error and bailed."""
        run = self._last_run
        return run is not None and run.abort.is_set()

    def _tokens_for(self, item) -> int:
        """Token cost of one attempt for budget charging."""
        if self.token_cost is not None:
            return self.token_cost(item)
        return count_tokens(item) if isinstance(item, str) else 0

    def _record(
        self, index: int, ok: bool, attempts: int, started: float,
        error: BaseException | None = None,
    ) -> None:
        record = RequestRecord(
            index=index,
            ok=ok,
            attempts=attempts,
            latency_s=time.perf_counter() - started,
            error=repr(error) if error is not None else None,
        )
        with self._records_lock:
            self.records.append(record)
        if self.usage is not None:
            self.usage.log_request(record)

    def _attempt(self, fn: Callable, item):
        """One guarded attempt: deadline, budget, admission, then ``fn``.

        Runs on whatever thread the driver chooses (the async executor
        may offload it), so the admission release stays inside.
        """
        if self.deadline is not None:
            # Fatal on expiry, so the whole batch fails fast.
            self.deadline.check()
        if self.budget is not None:
            self.budget.charge(requests=1, tokens=self._tokens_for(item))
        if self.admission is None:
            return fn(item)
        # The AIMD queue: blocks while the window is full.
        self.admission.acquire()
        try:
            result = fn(item)
        except FatalError:
            self.admission.release(ok=False)
            raise
        except BaseException as exc:
            self.admission.release(ok=not self.policy.is_retryable(exc))
            raise
        self.admission.release(ok=True)
        return result

    def _fail(
        self, index: int, exc: BaseException, attempts: int, started: float,
        run: _MapRun, on_error: str,
    ):
        """Record a terminal failure; return its slot or raise it."""
        self._record(index, False, attempts, started, error=exc)
        if on_error == "return":
            return BatchFailure(index, exc, attempts)
        run.stop = True
        raise exc

    def _steps(self, index: int, run: _MapRun, on_error: str, verdict: str):
        """The per-item decision order, written once for both drivers.

        A generator that does no I/O itself: it yields ``None`` when its
        driver must run one :meth:`_attempt` (and send back the result,
        or throw in the error), and a delay in seconds when the driver
        must wait, cut short if the run aborts.  It returns the item's
        result slot, or raises the item's terminal error.
        """
        started = time.perf_counter()
        if verdict == "shed":
            # Planned before the fan-out: this item is refused outright —
            # zero backend calls, zero retries, zero backoff.
            exc = Shed(
                f"admission control shed item {index} "
                f"(priority {self.priority!r})"
            )
            return self._fail(index, exc, 0, started, run, on_error)
        attempts = 0
        while True:
            if run.abort.is_set():
                # Another item hit a fatal error; don't start new
                # attempts.  Items that never attempted are not recorded
                # (they were cancelled, not failed).
                exc = run.fatal or FatalError("batch aborted")
                if attempts:
                    self._record(index, False, attempts, started, error=exc)
                raise exc
            if run.stop and not attempts and on_error == "raise":
                # A sibling already failed terminally and map() is going
                # to raise: a never-started item skips, unrecorded.
                return _CANCELLED
            attempts += 1
            if self.breaker is not None and not self.breaker.allow():
                # Endpoint presumed down: fail this item fast instead of
                # burning its retry/backoff budget on a known outage.
                exc = CircuitOpenError(
                    "circuit breaker open after "
                    f"{self.breaker.failure_threshold} consecutive "
                    "transient failures"
                )
                return self._fail(index, exc, attempts, started, run, on_error)
            try:
                result = yield None
            except FatalError as exc:
                # Checked before retry classification: BudgetExhaustedError
                # is a RateLimitError, but backing off cannot refill a
                # budget.
                run.set_fatal(exc)
                self._record(index, False, attempts, started, error=exc)
                raise
            except Exception as exc:
                # Interrupts, exits and task cancellation are not item
                # failures: they propagate unrecorded, in either mode.
                if self.breaker is not None and self.policy.is_retryable(exc):
                    # Transient failures gauge endpoint health; permanent
                    # errors (a parse bug, bad input) say nothing about it.
                    self.breaker.record_failure()
                if not self.policy.should_retry(exc, attempts):
                    return self._fail(
                        index, exc, attempts, started, run, on_error
                    )
                # Jittered per item (so concurrent retries decorrelate);
                # an explicit Retry-After from the endpoint is a floor
                # under the ladder; clamped to the deadline (so a wait can
                # never outlive the wall budget).
                delay = max(
                    self.policy.delay(attempts - 1, key=str(index)),
                    retry_after_floor(exc),
                )
                if self.deadline is not None:
                    delay = self.deadline.clamp(delay)
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                self._record(index, True, attempts, started)
                return result
            # The abort check at loop top then raises without a new
            # attempt if the run aborted during the wait.
            yield delay

    def _run_one(
        self, fn: Callable, item, index: int, run: _MapRun, on_error: str,
        verdict: str,
    ):
        """Thread driver: attempt on this thread, wait on the abort event."""
        steps = self._steps(index, run, on_error, verdict)
        try:
            step = next(steps)
            while True:
                if step is None:
                    try:
                        result = self._attempt(fn, item)
                    except BaseException as exc:
                        step = steps.throw(exc)
                    else:
                        step = steps.send(result)
                else:
                    run.abort.wait(step)
                    step = next(steps)
        except StopIteration as done:
            return done.value

    def _start(self, items: Iterable, on_error: str, abort):
        """The head ``map`` and ``amap`` share: check, scope, shed plan.

        The shed plan is drawn here, once, in input order, before any
        item starts — which is what makes shed decisions byte-identical
        at any worker count and through either executor.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(
                f'on_error must be "raise" or "return", got {on_error!r}'
            )
        items = list(items)
        run = _MapRun(abort)
        self._last_run = run
        if self.admission is not None and items:
            verdicts = self.admission.plan(len(items), self.priority)
        else:
            verdicts = ["admit"] * len(items)
        return items, run, verdicts

    def map(self, fn: Callable, items: Iterable, on_error: str = "raise") -> list:
        """Apply ``fn`` to every item, returning results in input order.

        ``on_error="raise"`` (the default) re-raises the first terminal
        failure.  ``on_error="return"`` keeps going: a terminally-failed
        item's slot holds a :class:`BatchFailure` instead, letting the
        caller quarantine it — fatal errors abort the batch either way.
        """
        items, run, verdicts = self._start(items, on_error, threading.Event())
        if not items:
            return []
        if self.workers == 1:
            return [
                self._run_one(fn, item, index, run, on_error, verdicts[index])
                for index, item in enumerate(items)
            ]
        results: list = [None] * len(items)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(
                    self._run_one, fn, item, index, run, on_error,
                    verdicts[index],
                )
                for index, item in enumerate(items)
            ]
            try:
                for index, future in enumerate(futures):
                    results[index] = future.result()
            except BaseException:
                # Fail fast: queued futures never start; in-flight ones
                # drain on pool shutdown (fatal aborts make that quick —
                # the abort event cuts every backoff sleep short).
                for future in futures:
                    future.cancel()
                raise
        return results


def complete_all(
    model,
    prompts: Sequence[str],
    workers: int | None = None,
    executor: BatchExecutor | None = None,
) -> list[str]:
    """Order-preserving batch completion of ``prompts`` against ``model``.

    ``model`` is anything with ``complete(prompt) -> str``.  With
    ``workers=None`` the process-wide default applies (1 unless the CLI's
    ``--workers`` raised it), so existing serial callers are unchanged.
    """
    if executor is None:
        executor = BatchExecutor(workers=workers)
    return executor.map(model.complete, prompts)
