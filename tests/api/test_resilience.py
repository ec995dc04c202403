"""Tests for the service-level resilience layer (deadlines, hedging,
admission control, fallback chains) and its executor/client wiring."""

import threading

import pytest

from repro.api import (
    AdmissionController,
    AIMDLimiter,
    BatchFailure,
    CircuitBreaker,
    CompletionClient,
    Deadline,
    DeadlineExceededError,
    FallbackChain,
    FaultPlan,
    FaultProfile,
    HedgePolicy,
    RetryPolicy,
    Shed,
    SharedBudget,
    make_executor,
)
from repro.api.batch import EXECUTOR_KINDS

pytestmark = pytest.mark.smoke


class FakeClock:
    """Injectable monotonic clock: time moves only when told to."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_counts_down_on_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.remaining() == 10.0
        clock.advance(4.0)
        assert deadline.remaining() == 6.0
        assert deadline.elapsed_s == 4.0
        assert not deadline.expired
        deadline.check()  # no raise

    def test_expiry_is_typed_and_fatal(self):
        from repro.api.retry import FatalError

        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            deadline.check()
        # Fatal: the batch layer fails fast instead of backing off.
        assert issubclass(DeadlineExceededError, FatalError)

    def test_clamp_never_sleeps_past_budget(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.clamp(10.0) == 2.0
        assert deadline.clamp(0.5) == 0.5
        clock.advance(1.9)
        assert deadline.clamp(10.0) == pytest.approx(0.1)
        clock.advance(1.0)
        assert deadline.clamp(10.0) == 0.0

    def test_describe_is_json_ready(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        clock.advance(1.0)
        assert deadline.describe() == {
            "budget_s": 5.0, "elapsed_s": 1.0, "expired": False,
        }

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestHedgePolicy:
    def test_delay_is_pure_function_of_seed_and_prompt(self):
        a = HedgePolicy(delay_s=0.01, seed=3)
        b = HedgePolicy(delay_s=0.01, seed=3)
        assert a.delay_for("prompt-x") == b.delay_for("prompt-x")
        assert a.delay_for("prompt-x") != HedgePolicy(
            delay_s=0.01, seed=4
        ).delay_for("prompt-x")

    def test_delay_spread_window(self):
        policy = HedgePolicy(delay_s=0.01, spread=0.25)
        delays = [policy.delay_for(f"p{i}") for i in range(50)]
        assert all(0.01 <= d <= 0.0125 for d in delays)
        assert len(set(delays)) > 1  # decorrelated across prompts

    def test_zero_spread_is_constant(self):
        policy = HedgePolicy(delay_s=0.02, spread=0.0)
        assert policy.delay_for("a") == policy.delay_for("b") == 0.02

    def test_calibration_from_latencies(self):
        sample = [0.01] * 95 + [0.5] * 5
        policy = HedgePolicy.from_latencies(sample, percentile=0.9)
        assert policy.delay_s == pytest.approx(0.01)
        with pytest.raises(ValueError):
            HedgePolicy.from_latencies([])
        with pytest.raises(ValueError):
            HedgePolicy.from_latencies([0.1], percentile=1.5)

    def test_stats_counts(self):
        policy = HedgePolicy()
        policy.record_fired()
        policy.record_fired()
        policy.record_win()
        assert policy.stats() == {"delay_s": 0.005, "fired": 2, "wins": 1}


class TestAIMDLimiter:
    def test_additive_increase_multiplicative_decrease(self):
        limiter = AIMDLimiter(initial=4.0, min_limit=1.0, max_limit=8.0)
        limiter.acquire()
        limiter.release(ok=True)
        assert limiter.limit == pytest.approx(4.25)  # +1/window
        limiter.acquire()
        limiter.release(ok=False)
        assert limiter.limit == pytest.approx(2.125)  # halved
        for _ in range(20):
            limiter.acquire()
            limiter.release(ok=False)
        assert limiter.limit == 1.0  # floored

    def test_window_blocks_then_releases(self):
        limiter = AIMDLimiter(initial=1.0, max_limit=2.0)
        limiter.acquire()
        entered = threading.Event()

        def second():
            limiter.acquire()
            entered.set()
            limiter.release(ok=True)

        thread = threading.Thread(target=second)
        thread.start()
        assert not entered.wait(0.05)  # queued behind the full window
        limiter.release(ok=True)
        assert entered.wait(1.0)
        thread.join()
        assert limiter.stats()["waits"] >= 1


class TestAdmissionController:
    def test_unconstrained_admits_everything(self):
        admission = AdmissionController()
        assert admission.plan(5) == ["admit"] * 5
        assert admission.stats() == {"admitted": 5, "shed": 0}

    def test_budget_headroom_sheds_the_tail_by_priority(self):
        # 10-request budget: bench keeps 10% (1 request) in reserve.
        budget = SharedBudget(max_requests=10)
        admission = AdmissionController(budget=budget)
        verdicts = admission.plan(24, "bench")
        assert verdicts == ["admit"] * 9 + ["shed"] * 15
        # Interactive has no reserve; backfill keeps 25% (2 requests).
        assert AdmissionController(budget=budget).plan(24, "interactive") \
            == ["admit"] * 10 + ["shed"] * 14
        assert AdmissionController(budget=budget).plan(24, "backfill") \
            == ["admit"] * 8 + ["shed"] * 16

    def test_open_breaker_sheds_all_but_interactive(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        breaker.record_failure()
        assert breaker.state == "open"
        admission = AdmissionController(breaker=breaker)
        assert admission.plan(3, "bench") == ["shed"] * 3
        # Interactive rides the breaker's own single-probe recovery.
        assert AdmissionController(breaker=breaker).plan(3, "interactive") \
            == ["admit"] * 3

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError, match="unknown priority"):
            AdmissionController().plan(1, "vip")

    def test_plan_is_pure_function_of_pre_batch_state(self):
        budget = SharedBudget(max_requests=10)
        first = AdmissionController(budget=budget).plan(24, "bench")
        second = AdmissionController(budget=budget).plan(24, "bench")
        assert first == second


class TestFallbackChain:
    def test_parse_and_tier_names(self):
        chain = FallbackChain.parse("gpt3-6.7b, gpt3-1.3b")
        assert chain.describe() == ["gpt3-6.7b", "gpt3-1.3b"]
        assert chain.tier_name(1) == "gpt3-1.3b"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FallbackChain([])
        with pytest.raises(ValueError):
            FallbackChain.parse(" , ")

    def test_resolve_builds_cached_clean_clients(self):
        chain = FallbackChain(["gpt3-1.3b"])
        client = chain.resolve(0)
        assert client is chain.resolve(0)  # cached
        assert isinstance(client, CompletionClient)
        # Tiers model a *different* deployment: no inherited fault plan.
        assert client.fault_plan is None

    def test_model_objects_pass_through(self):
        backend = CompletionClient("gpt3-6.7b")
        chain = FallbackChain([backend])
        assert chain.resolve(0) is backend
        assert chain.tier_name(0) == "gpt3-6.7b"


class TestJitteredBackoff:
    def test_legacy_delay_without_key_is_exact_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=2.0)
        assert [policy.delay(n) for n in range(4)] == [0.1, 0.2, 0.4, 0.8]

    def test_keyed_delay_is_jittered_within_window(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=2.0, jitter=0.5)
        for attempt in range(3):
            window = 0.1 * 2**attempt
            delay = policy.delay(attempt, key="7")
            assert window * 0.5 <= delay <= window

    def test_jitter_is_pure_and_decorrelated(self):
        policy = RetryPolicy(backoff_base=0.1)
        again = RetryPolicy(backoff_base=0.1)
        assert policy.delay(1, key="3") == again.delay(1, key="3")
        # Concurrent retries of *different* items must not wake together
        # (the thundering-herd regression): per-key delays differ.
        delays = {policy.delay(1, key=str(index)) for index in range(8)}
        assert len(delays) > 1


class TestBreakerInjectedClock:
    def test_cooldown_and_half_open_without_sleeping(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # still cooling down
        clock.advance(5.0)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()


class TestExecutorWiring:
    """Executor-level resilience wiring, through the thread pool here and
    through every other executor kind in the subclasses below."""

    kind = "thread"

    def test_shed_surfaces_as_typed_batch_failure(self):
        budget = SharedBudget(max_requests=4)
        executor = make_executor(
            self.kind,
            workers=2,
            admission=AdmissionController(budget=budget),
            priority="interactive",
        )
        results = executor.map(
            lambda item: f"ok:{item}", list(range(8)), on_error="return"
        )
        # Admitted prefix untouched, shed tail typed — never a silent drop.
        assert results[:4] == ["ok:0", "ok:1", "ok:2", "ok:3"]
        for index, failure in enumerate(results[4:], start=4):
            assert isinstance(failure, BatchFailure)
            assert failure.error_type == "Shed"
            assert failure.attempts == 0
            assert failure.index == index

    def test_shed_raises_in_strict_mode(self):
        executor = make_executor(
            self.kind,
            admission=AdmissionController(
                budget=SharedBudget(max_requests=0)
            ),
            priority="interactive",
        )
        with pytest.raises(Shed):
            executor.map(lambda item: item, [1, 2])

    def test_shed_survivors_identical_to_unconstrained_run(self):
        items = [f"item-{i}" for i in range(10)]
        clean = make_executor(self.kind, workers=3).map(str.upper, items)
        constrained = make_executor(
            self.kind,
            workers=3,
            admission=AdmissionController(
                budget=SharedBudget(max_requests=6)
            ),
            priority="interactive",
        ).map(lambda s: s.upper(), items, on_error="return")
        for index, result in enumerate(constrained):
            if not isinstance(result, BatchFailure):
                assert result == clean[index]

    def test_expired_deadline_aborts_batch(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        executor = make_executor(self.kind, deadline=deadline)
        calls: list[int] = []
        with pytest.raises(DeadlineExceededError):
            executor.map(calls.append, [1, 2, 3])
        assert calls == []  # fatal before any work

    def test_deadline_clamps_backoff(self):
        from repro.api.retry import RateLimitError

        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(0.999)  # ~1ms left: backoff must not sleep 10s

        attempts = {"n": 0}

        def flaky(item):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RateLimitError("transient")
            return item

        executor = make_executor(
            self.kind,
            deadline=deadline,
            policy=RetryPolicy(max_retries=2, backoff_base=10.0),
        )
        import time as _time

        started = _time.perf_counter()
        assert executor.map(flaky, ["x"]) == ["x"]
        assert _time.perf_counter() - started < 1.0

    def test_retry_after_floors_the_backoff(self):
        """An explicit Retry-After delays the retry even when the
        policy's own ladder would retry at once."""
        import time as _time

        from repro.api import BackendRateLimitError

        stamps: list[float] = []

        def throttled(item):
            stamps.append(_time.perf_counter())
            if len(stamps) == 1:
                raise BackendRateLimitError(429, retry_after_s=0.2)
            return item

        executor = make_executor(
            self.kind, policy=RetryPolicy(max_retries=1, backoff_base=0.0)
        )
        assert executor.policy.delay(0, key="0") == 0.0
        assert executor.map(throttled, ["x"]) == ["x"]
        assert stamps[1] - stamps[0] >= 0.2


class TestAsyncExecutorWiring(TestExecutorWiring):
    kind = "async"


def test_wiring_runs_through_every_executor_kind():
    kinds = {cls.kind for cls in (TestExecutorWiring, TestAsyncExecutorWiring)}
    assert kinds == set(EXECUTOR_KINDS)


class TestHedgedClient:
    def test_hedge_beats_latency_spike_without_double_charge(self):
        spike = FaultProfile(
            name="spiky", latency_spike=1.0, latency_spike_s=0.05
        )
        client = CompletionClient(
            fault_plan=FaultPlan(spike, seed=0),
            hedge_policy=HedgePolicy(delay_s=0.005, spread=0.0),
        )
        plain = CompletionClient(fault_plan=FaultPlan(spike, seed=0))
        prompt = "Product A: x. Product B: x. Are A and B the same? Yes or No?"

        import time as _time

        started = _time.perf_counter()
        hedged_text = client.complete(prompt)
        hedged_s = _time.perf_counter() - started
        started = _time.perf_counter()
        plain_text = plain.complete(prompt)
        plain_s = _time.perf_counter() - started

        assert hedged_text == plain_text  # byte-identical result
        assert hedged_s < plain_s  # the backup skipped the spike
        stats = client.stats
        # Budget/usage dedup: one charged call, hedges tallied apart.
        assert stats["backend_calls"] == 1
        assert stats["hedge_calls"] == 1
        assert client.hedge_policy.stats() == {
            "delay_s": 0.005, "fired": 1, "wins": 1,
        }
        tracked = client.usage.snapshot()[client.name]
        assert tracked["n_requests"] == 1

    def test_fast_completions_never_hedge(self):
        client = CompletionClient(hedge_policy=HedgePolicy(delay_s=0.5))
        client.complete("Are A and B the same? Yes or No?")
        assert client.stats["hedge_calls"] == 0
        assert client.hedge_policy.stats()["fired"] == 0
