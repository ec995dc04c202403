"""Tests for the concurrent batch-execution layer."""

import threading
import time

import pytest

from repro.api import (
    BatchExecutor,
    BatchFailure,
    BudgetExhaustedError,
    CircuitBreaker,
    CompletionClient,
    FatalError,
    PromptCache,
    RateLimitError,
    RetryPolicy,
    SharedBudget,
    UsageTracker,
    complete_all,
    get_default_workers,
    resolve_workers,
    set_default_workers,
)

pytestmark = pytest.mark.smoke


class CountingBackend:
    name = "counting"

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, temperature=0.0, **kwargs):
        with self._lock:
            self.calls += 1
        return f"echo:{prompt}"


class FlakyFn:
    """Fails with ``error`` the first ``n_failures`` times per item."""

    def __init__(self, n_failures, error=RateLimitError):
        self.n_failures = n_failures
        self.error = error
        self.seen: dict[str, int] = {}
        self._lock = threading.Lock()

    def __call__(self, item):
        with self._lock:
            count = self.seen[item] = self.seen.get(item, 0) + 1
        if count <= self.n_failures:
            raise self.error(f"transient failure {count} for {item!r}")
        return f"ok:{item}"


class TestDefaultWorkers:
    def test_default_is_one(self):
        assert get_default_workers() == 1
        assert resolve_workers(None) == 1

    def test_set_and_restore(self):
        set_default_workers(8)
        try:
            assert resolve_workers(None) == 8
            assert resolve_workers(2) == 2
        finally:
            set_default_workers(1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            set_default_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestBatchExecutor:
    def test_preserves_input_order(self):
        executor = BatchExecutor(workers=8)
        items = [f"item-{i}" for i in range(50)]
        assert executor.map(lambda x: x.upper(), items) == [
            item.upper() for item in items
        ]

    def test_deterministic_across_worker_counts(self):
        """Same inputs → same ordered outputs regardless of worker count."""
        items = list(range(40))
        fn = lambda x: x * x  # noqa: E731
        outputs = [
            BatchExecutor(workers=n).map(fn, items) for n in (1, 2, 4, 8)
        ]
        assert all(out == outputs[0] for out in outputs)

    def test_empty_input(self):
        assert BatchExecutor(workers=4).map(len, []) == []

    def test_backoff_is_deterministic_exponential(self):
        executor = BatchExecutor(
            policy=RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        )
        assert executor.policy.delay(0) == pytest.approx(0.1)
        assert executor.policy.delay(1) == pytest.approx(0.2)
        assert executor.policy.delay(2) == pytest.approx(0.4)
        assert executor.policy.delay(3) == pytest.approx(0.5)  # capped
        assert executor.policy.delay(10) == pytest.approx(0.5)

    def test_retries_transient_failures(self):
        executor = BatchExecutor(
            workers=4, policy=RetryPolicy(max_retries=2, backoff_base=0.0)
        )
        fn = FlakyFn(n_failures=2)
        assert executor.map(fn, ["a", "b"]) == ["ok:a", "ok:b"]
        records = sorted(executor.records, key=lambda r: r.index)
        assert [record.attempts for record in records] == [3, 3]
        assert all(record.ok for record in records)

    def test_retry_exhaustion_raises(self):
        executor = BatchExecutor(
            workers=1, policy=RetryPolicy(max_retries=1, backoff_base=0.0)
        )
        with pytest.raises(RateLimitError):
            executor.map(FlakyFn(n_failures=5), ["a"])
        (record,) = executor.records
        assert not record.ok
        assert record.attempts == 2
        assert "transient failure" in record.error

    def test_non_retryable_errors_propagate_immediately(self):
        executor = BatchExecutor(
            workers=1, policy=RetryPolicy(max_retries=3, backoff_base=0.0)
        )
        fn = FlakyFn(n_failures=5, error=ValueError)
        with pytest.raises(ValueError):
            executor.map(fn, ["a"])
        assert fn.seen["a"] == 1  # no retry burned on a permanent error

    def test_records_latency_into_usage_tracker(self):
        usage = UsageTracker()
        executor = BatchExecutor(workers=4, usage=usage)
        executor.map(lambda x: x, list(range(10)))
        summary = usage.latency_summary()
        assert summary["n_requests"] == 10
        assert summary["n_failures"] == 0
        assert summary["max_s"] >= summary["mean_s"] >= 0.0
        assert len(usage.request_log) == 10


class TestSharedBudget:
    def test_charges_atomically_across_threads(self):
        budget = SharedBudget(max_requests=50)
        admitted = []
        lock = threading.Lock()

        def worker():
            for _ in range(20):
                try:
                    budget.charge()
                except RateLimitError:
                    continue
                with lock:
                    admitted.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 50
        assert budget.n_requests == 50
        assert budget.remaining_requests == 0

    def test_failed_charge_consumes_nothing(self):
        budget = SharedBudget(max_requests=1, max_tokens=10)
        budget.charge(tokens=4)
        with pytest.raises(RateLimitError):
            budget.charge(tokens=4)
        assert budget.n_requests == 1
        assert budget.n_tokens == 4

    def test_token_budget(self):
        budget = SharedBudget(max_tokens=10)
        budget.charge(tokens=6)
        with pytest.raises(RateLimitError):
            budget.charge(tokens=6)

    def test_executor_never_overshoots_budget(self):
        budget = SharedBudget(max_requests=5)
        executor = BatchExecutor(
            workers=8, policy=RetryPolicy(max_retries=0), budget=budget,
        )
        with pytest.raises(RateLimitError):
            executor.map(lambda x: x, list(range(32)))
        assert budget.n_requests == 5


class TestRetryPolicy:
    def test_delay_schedule_matches_executor(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert [policy.delay(n) for n in range(4)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.5]
        )

    def test_fatal_errors_are_never_retryable(self):
        """BudgetExhaustedError is a RateLimitError (in retry_on) but must
        be screened out: a spent budget cannot recover mid-run."""
        policy = RetryPolicy()
        assert policy.is_retryable(RateLimitError("x"))
        assert not policy.is_retryable(BudgetExhaustedError("x"))
        assert not policy.is_retryable(FatalError("x"))
        assert not policy.should_retry(BudgetExhaustedError("x"), attempts=1)

    def test_should_retry_respects_attempt_bound(self):
        policy = RetryPolicy(max_retries=2)
        exc = TimeoutError("x")
        assert policy.should_retry(exc, attempts=1)
        assert policy.should_retry(exc, attempts=2)
        assert not policy.should_retry(exc, attempts=3)
        assert not policy.should_retry(ValueError("x"), attempts=1)

    def test_executor_accepts_policy_object(self):
        policy = RetryPolicy(max_retries=7, backoff_base=0.3, backoff_cap=0.9)
        executor = BatchExecutor(workers=2, policy=policy)
        assert executor.policy is policy
        assert executor.policy.max_retries == 7
        assert executor.policy.delay(0) == pytest.approx(0.3)
        assert executor.policy.delay(5) == pytest.approx(0.9)

    def test_client_shares_the_policy_type(self):
        client = CompletionClient(CountingBackend(),
                                  retry_policy=RetryPolicy(max_retries=4))
        assert client.max_retries == 4
        with pytest.raises(ValueError):
            CompletionClient(CountingBackend(), max_retries=1,
                             retry_policy=RetryPolicy())


class CountingFn:
    """Thread-safe call counter around an arbitrary result."""

    def __init__(self, result="ok", error=None, fail_first=frozenset()):
        self.calls = 0
        self.result = result
        self.error = error
        self.fail_first = set(fail_first)
        self._failed = set()
        self._lock = threading.Lock()

    def __call__(self, item):
        with self._lock:
            self.calls += 1
            if self.error is not None:
                raise self.error(f"fatal on {item!r}")
            if item in self.fail_first and item not in self._failed:
                self._failed.add(item)
                raise TimeoutError(f"transient on {item!r}")
        return f"{self.result}:{item}"


class TestFailFast:
    def test_budget_exhaustion_raises_without_backoff_sleeps(self):
        """The ISSUE acceptance bar: SharedBudget(max_requests=N) with 8
        workers must raise immediately — zero backoff sleeps for
        exhausted charges — with total calls <= N.  The backoff is set so
        large that a single retry sleep would blow the time budget."""
        budget = SharedBudget(max_requests=5)
        executor = BatchExecutor(
            workers=8, policy=RetryPolicy(max_retries=3, backoff_base=30.0),
            budget=budget,
        )
        fn = CountingFn()
        started = time.perf_counter()
        with pytest.raises(BudgetExhaustedError):
            executor.map(fn, list(range(32)))
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # any single backoff would take >= 30s
        assert fn.calls <= 5
        assert budget.n_requests == 5
        assert executor.aborted

    def test_budget_exhaustion_is_still_a_rate_limit_error(self):
        budget = SharedBudget(max_requests=1)
        executor = BatchExecutor(
            workers=1, policy=RetryPolicy(max_retries=0), budget=budget
        )
        with pytest.raises(RateLimitError):
            executor.map(CountingFn(), ["a", "b"])

    def test_fatal_error_cancels_pending_items(self):
        executor = BatchExecutor(
            workers=2, policy=RetryPolicy(backoff_base=0.0)
        )
        fn = CountingFn(error=FatalError)
        with pytest.raises(FatalError):
            executor.map(fn, list(range(200)))
        # Queued futures are cancelled and aborted workers never call fn:
        # only the in-flight handful runs, not the remaining ~198 items.
        assert fn.calls <= 10

    def test_abort_wakes_workers_mid_backoff(self):
        """A worker sleeping a 30s backoff must wake the moment another
        worker hits a fatal error — not after its sleep expires."""
        executor = BatchExecutor(
            workers=2, policy=RetryPolicy(max_retries=3, backoff_base=30.0)
        )
        fatal_after = 0.05

        def fn(item):
            if item == "transient":
                raise TimeoutError("retry me")
            time.sleep(fatal_after)
            raise FatalError("permanent")

        started = time.perf_counter()
        with pytest.raises(FatalError):
            executor.map(fn, ["transient", "fatal"])
        assert time.perf_counter() - started < 5.0

    def test_client_budget_exhaustion_is_fatal(self):
        client = CompletionClient(CountingBackend(), requests_per_run=2)
        client.complete("a")
        client.complete("b")
        with pytest.raises(BudgetExhaustedError):
            client.complete("c")

    def test_complete_many_budget_exhaustion_fails_fast(self):
        """End to end through the client: 8 workers, budget of 5, large
        would-be backoff — the run must fail immediately."""
        backend = CountingBackend()
        client = CompletionClient(backend, requests_per_run=5)
        started = time.perf_counter()
        with pytest.raises(BudgetExhaustedError):
            client.complete_many([f"p{i}" for i in range(64)], workers=8)
        assert time.perf_counter() - started < 5.0
        assert backend.calls <= 5

    def test_executor_is_reusable_after_abort(self):
        budget = SharedBudget(max_requests=2)
        executor = BatchExecutor(workers=4, budget=budget)
        with pytest.raises(BudgetExhaustedError):
            executor.map(CountingFn(), list(range(8)))
        assert executor.aborted
        fresh = BatchExecutor(workers=4)
        assert executor.map is not None  # abort state clears on next map
        executor.budget = None
        assert executor.map(str.upper, ["a", "b"]) == ["A", "B"]
        assert not executor.aborted
        assert fresh.map(str.upper, ["c"]) == ["C"]

    def test_transient_retries_still_work_after_fail_fast_change(self):
        executor = BatchExecutor(
            workers=4, policy=RetryPolicy(max_retries=1, backoff_base=0.0)
        )
        fn = CountingFn(fail_first={"a", "c"})
        assert executor.map(fn, ["a", "b", "c"]) == ["ok:a", "ok:b", "ok:c"]
        retried = {r.index: r.attempts for r in executor.records}
        assert retried[0] == 2 and retried[1] == 1 and retried[2] == 2


class TestCompleteMany:
    def test_matches_serial_completes(self):
        prompts = [f"prompt {i}? yes or no" for i in range(16)]
        serial = CompletionClient(CountingBackend())
        expected = [serial.complete(prompt) for prompt in prompts]
        parallel = CompletionClient(CountingBackend())
        assert parallel.complete_many(prompts, workers=8) == expected

    def test_distinct_prompts_each_hit_backend_once(self):
        backend = CountingBackend()
        client = CompletionClient(backend)
        prompts = [f"p{i}" for i in range(20)]
        client.complete_many(prompts, workers=8)
        assert backend.calls == 20
        assert client.stats["backend_calls"] == 20

    def test_budget_never_exceeded_under_concurrency(self):
        backend = CountingBackend()
        client = CompletionClient(backend, requests_per_run=7)
        with pytest.raises(RateLimitError):
            client.complete_many([f"p{i}" for i in range(32)], workers=8)
        assert backend.calls <= 7
        assert client.stats["backend_calls"] <= 7

    def test_complete_all_helper(self):
        backend = CountingBackend()
        client = CompletionClient(backend)
        prompts = [f"p{i}" for i in range(6)]
        assert complete_all(client, prompts, workers=3) == [
            f"echo:p{i}" for i in range(6)
        ]

    def test_request_log_populated(self):
        client = CompletionClient(CountingBackend())
        client.complete_many(["a", "b", "c"], workers=2)
        assert client.usage.latency_summary()["n_requests"] == 3


class TestConcurrentPromptCache:
    def test_many_threads_on_one_memory_connection(self):
        cache = PromptCache(":memory:")
        n_threads, n_keys = 12, 25
        errors = []

        def worker(thread_index):
            try:
                for i in range(n_keys):
                    cache.put("m", f"prompt-{i}", f"answer-{i}")
                    assert cache.get("m", f"prompt-{i}") == f"answer-{i}"
                    assert len(cache) <= n_keys
                    assert cache.get("m", f"missing-{thread_index}") is None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) == n_keys

    def test_concurrent_clients_share_cache(self):
        cache = PromptCache(":memory:")
        clients = [
            CompletionClient(CountingBackend(), cache=cache) for _ in range(4)
        ]
        prompts = [f"shared-{i}" for i in range(10)]

        def worker(client):
            client.complete_many(prompts, workers=4)

        threads = [
            threading.Thread(target=worker, args=(client,))
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every prompt is answered identically no matter which client
        # computed it first.
        assert len(cache) == len(prompts)
        for client in clients:
            assert client.complete_many(prompts, workers=4) == [
                f"echo:{prompt}" for prompt in prompts
            ]


class TestTaskRunnerIntegration:
    def test_parallel_equals_serial_predictions(self, fm_175b):
        """The tentpole determinism guarantee, end to end on a task."""
        from repro.core.tasks import run_entity_matching
        from repro.datasets import load_dataset

        dataset = load_dataset("fodors_zagats")
        serial = run_entity_matching(
            fm_175b, dataset, k=0, max_examples=30, workers=1
        )
        parallel = run_entity_matching(
            fm_175b, dataset, k=0, max_examples=30, workers=8
        )
        assert serial.predictions == parallel.predictions
        assert serial.metric == parallel.metric

    def test_wrangler_batch_verbs(self):
        from repro.core import Wrangler

        wrangler = Wrangler("gpt3-175b")
        left = {"name": "blue heron", "phone": "415-775-7036"}
        right = {"name": "blue heron cafe", "phone": "415-775-7036"}
        verdicts = wrangler.match_many([(left, right)] * 4, workers=2)
        assert verdicts == [wrangler.match(left, right)] * 4

        row = {"name": "blue heron", "phone": "415-775-7036"}
        imputed = wrangler.impute_many([(row, "city")] * 3, workers=3)
        assert imputed == [wrangler.impute(row, "city")] * 3

        transformed = wrangler.transform_many(
            ["jan 5, 2021", "feb 7, 2022"],
            examples=[("mar 3, 2020", "2020-03-03")],
            workers=2,
        )
        assert transformed == [
            wrangler.transform(
                value, examples=[("mar 3, 2020", "2020-03-03")]
            )
            for value in ["jan 5, 2021", "feb 7, 2022"]
        ]

        verdict_maps = wrangler.detect_errors_many([row, row], workers=4)
        assert verdict_maps == [wrangler.detect_errors(row)] * 2


class TestPerRunAbortState:
    """Abort/fatal state is scoped to each map() call (chaos PR satellite)."""

    def test_reuse_across_failing_then_succeeding_batches(self):
        executor = BatchExecutor(workers=4)
        fatal = CountingFn(error=FatalError)
        with pytest.raises(FatalError):
            executor.map(fatal, list(range(8)))
        assert executor.aborted
        # Same executor, clean batch: must start with cleared abort state.
        assert executor.map(str.upper, ["a", "b", "c"]) == ["A", "B", "C"]
        assert not executor.aborted

    def test_empty_map_after_abort_clears_aborted(self):
        """Regression: the early return for empty input used to skip the
        abort reset, leaving ``aborted`` stale from the previous batch."""
        executor = BatchExecutor(workers=2)
        with pytest.raises(FatalError):
            executor.map(CountingFn(error=FatalError), [1, 2])
        assert executor.aborted
        assert executor.map(str.upper, []) == []
        assert not executor.aborted

    def test_concurrent_maps_do_not_share_abort(self):
        """A fatal abort in one map() must not cancel an unrelated one
        running concurrently on the same executor."""
        executor = BatchExecutor(workers=2)
        release = threading.Event()
        results: dict[str, object] = {}

        def slow_ok(item):
            release.wait(timeout=5.0)
            return f"ok:{item}"

        def run_slow():
            results["slow"] = executor.map(slow_ok, ["x", "y"])

        thread = threading.Thread(target=run_slow)
        thread.start()
        time.sleep(0.02)  # let the slow batch claim its _MapRun
        with pytest.raises(FatalError):
            executor.map(CountingFn(error=FatalError), [1, 2])
        release.set()
        thread.join(timeout=5.0)
        assert results["slow"] == ["ok:x", "ok:y"]


class TestScatterMode:
    def test_on_error_return_captures_failures_in_slot(self):
        executor = BatchExecutor(workers=2, policy=RetryPolicy(max_retries=0))
        flaky = FlakyFn(n_failures=99)  # never recovers

        def fn(item):
            if item == "bad":
                return flaky(item)
            return f"ok:{item}"

        results = executor.map(fn, ["a", "bad", "b"], on_error="return")
        assert results[0] == "ok:a"
        assert results[2] == "ok:b"
        failure = results[1]
        assert isinstance(failure, BatchFailure)
        assert failure.index == 1
        assert failure.error_type == "RateLimitError"
        assert failure.attempts == 1

    def test_scatter_counts_retry_attempts(self):
        executor = BatchExecutor(
            workers=1, policy=RetryPolicy(max_retries=2, backoff_base=0.0)
        )
        results = executor.map(
            FlakyFn(n_failures=99), ["only"], on_error="return"
        )
        assert isinstance(results[0], BatchFailure)
        assert results[0].attempts == 3  # 1 try + 2 retries

    def test_fatal_still_aborts_in_scatter_mode(self):
        budget = SharedBudget(max_requests=2)
        executor = BatchExecutor(workers=2, budget=budget)
        with pytest.raises(BudgetExhaustedError):
            executor.map(CountingFn(), list(range(8)), on_error="return")

    def test_rejects_unknown_on_error(self):
        with pytest.raises(ValueError, match="on_error"):
            BatchExecutor(workers=1).map(str, ["a"], on_error="ignore")

    def test_interrupt_is_never_captured_as_a_failure(self):
        def interrupted(item):
            raise KeyboardInterrupt

        executor = BatchExecutor(workers=1)
        with pytest.raises(KeyboardInterrupt):
            executor.map(interrupted, ["a", "b"], on_error="return")
        assert executor.records == []


class TestCircuitBreaker:
    def test_trips_after_consecutive_transient_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.stats()["trips"] == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_recovers(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.01)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.02)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.stats()["trips"] == 2

    def test_executor_fails_pending_fast_when_open(self):
        """With the circuit open, items fail with CircuitOpenError
        without touching the backend or paying backoff sleeps."""
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        executor = BatchExecutor(
            workers=1, breaker=breaker,
            policy=RetryPolicy(max_retries=0, backoff_base=0.0),
        )
        results = executor.map(
            FlakyFn(n_failures=99), ["a", "b"], on_error="return"
        )
        assert all(isinstance(r, BatchFailure) for r in results)
        assert breaker.state == "open"
        counting = CountingFn()
        started = time.perf_counter()
        results = executor.map(
            counting, ["c", "d", "e"], on_error="return"
        )
        assert time.perf_counter() - started < 1.0
        assert counting.calls == 0  # breaker rejected before fn ran
        assert all(
            isinstance(r, BatchFailure)
            and r.error_type == "CircuitOpenError"
            for r in results
        )

    def test_breaker_recovery_end_to_end(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=0.01)
        executor = BatchExecutor(
            workers=1, breaker=breaker,
            policy=RetryPolicy(max_retries=0, backoff_base=0.0),
        )
        executor.map(FlakyFn(n_failures=99), ["a", "b"], on_error="return")
        assert breaker.state == "open"
        time.sleep(0.02)
        # Endpoint "recovered": the half-open probe succeeds and the
        # circuit closes, so the whole batch completes normally.
        results = executor.map(str.upper, ["c", "d"], on_error="return")
        assert results == ["C", "D"]
        assert breaker.state == "closed"

    def test_validates_constructor_args(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)
