"""Service-level resilience: deadlines, hedging, admission, degradation.

PRs 3–4 made a *run* resilient — retries with backoff, fail-fast on
fatal errors, per-example quarantine, checkpointed resume.  What they
did not provide is the layer that keeps a run inside a latency/cost SLO
when the backend misbehaves.  This module adds the four service-level
mechanisms every production LLM harness grows, in the order they are
consulted (see DESIGN §4b-iv):

1. **Deadlines** (:class:`Deadline`) — a wall-clock budget propagated
   from ``run_task`` through :class:`~repro.api.batch.BatchExecutor`
   into :class:`~repro.api.client.CompletionClient`.  Backoff sleeps are
   clamped to the remaining budget, and expiry raises a typed
   :class:`~repro.api.retry.DeadlineExceededError` — fatal, so the
   batch fails fast instead of grinding past its SLO.
2. **Hedged requests** (:class:`HedgePolicy`) — after a deterministic
   delay, a straggling completion gets a backup attempt and the first
   success wins.  Hedge attempts are deduplicated: budgets, usage, and
   ``backend_calls`` are charged once per logical request, and at
   temperature 0 both attempts produce byte-identical text, so results
   never depend on which one wins.
3. **Admission control** (:class:`AdmissionController` +
   :class:`AIMDLimiter`) — work is queued (AIMD concurrency window) or
   shed (typed :class:`~repro.api.retry.Shed`) *before* it burns
   budget, by priority class, when the circuit breaker is degraded or
   the shared budget nears exhaustion.  Shed decisions are planned once
   per batch in input order — a pure function of the pre-batch state —
   so they are byte-identical at any worker count.
4. **Graceful degradation** (:class:`FallbackChain`) — the paper's own
   quality/cost ladder (Figure 4: 175B → 6.7B → 1.3B) as a fallback
   chain: an example that would otherwise be quarantined or shed is
   served by the next tier down, and the run reports ``coverage == 1.0``
   with an explicit ``served_by_tier`` breakdown instead of a hole.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Callable, Sequence

from repro.api.retry import DeadlineExceededError

__all__ = [
    "AIMDLimiter",
    "AdmissionController",
    "BackendHealthTracker",
    "CascadePolicy",
    "Deadline",
    "FailoverPolicy",
    "FallbackChain",
    "HedgePolicy",
    "PRIORITIES",
    "PRIORITY_HEADROOM",
]


class Deadline:
    """A wall-clock budget for one run, with an injectable clock.

    Created when the run starts; :meth:`remaining` counts down from
    ``budget_s``.  The executor calls :meth:`check` before every attempt
    (expiry is fatal — see
    :class:`~repro.api.retry.DeadlineExceededError`) and :meth:`clamp`
    around every backoff sleep, so no retry can sleep past the budget.
    The clock is injected (default ``time.monotonic``) for the same
    reason the circuit breaker's is: expiry transitions must be testable
    without real sleeps.
    """

    def __init__(
        self,
        budget_s: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_s <= 0:
            raise ValueError(f"budget_s must be > 0, got {budget_s}")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._started = clock()

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left before expiry (never negative)."""
        return max(0.0, self.budget_s - self.elapsed_s)

    @property
    def expired(self) -> bool:
        return self.elapsed_s >= self.budget_s

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"deadline of {self.budget_s:.3f}s exceeded "
                f"({self.elapsed_s:.3f}s elapsed)"
            )

    def clamp(self, delay_s: float) -> float:
        """``delay_s`` cut down so a sleep cannot outlive the budget."""
        return min(delay_s, self.remaining())

    def describe(self) -> dict:
        """JSON-ready SLO block for run manifests."""
        return {
            "budget_s": self.budget_s,
            "elapsed_s": self.elapsed_s,
            "expired": self.expired,
        }


class HedgePolicy:
    """When and how to fire a backup completion for a straggler.

    ``delay_for(prompt)`` is the wait before hedging that prompt: the
    base ``delay_s`` (pick it at a high percentile of healthy latency —
    :meth:`from_latencies` calibrates one from an observed sample)
    spread over ``[delay_s, (1 + spread) * delay_s]`` by a BLAKE2 draw
    of ``(seed, prompt)`` — a pure function, exactly like
    :class:`~repro.api.faults.FaultPlan`'s schedule, so hedge timing
    never synchronizes across workers and never depends on call order.

    The policy only decides *when*; the race itself lives in
    :meth:`repro.api.client.CompletionClient.complete`, under the cache
    and the single-flight lock, where it can guarantee the dedup
    invariants: one budget charge and one usage record per logical
    request no matter how many hedges fire, and (at temperature 0) a
    byte-identical completion whichever attempt wins.  Counters here are
    observability only — they never influence behavior.
    """

    def __init__(
        self,
        delay_s: float = 0.005,
        spread: float = 0.25,
        seed: int = 0,
    ):
        if delay_s <= 0:
            raise ValueError(f"delay_s must be > 0, got {delay_s}")
        if spread < 0:
            raise ValueError(f"spread must be >= 0, got {spread}")
        self.delay_s = float(delay_s)
        self.spread = float(spread)
        self.seed = seed
        self._lock = threading.Lock()
        self.n_fired = 0
        self.n_wins = 0

    @classmethod
    def from_latencies(
        cls,
        latencies: Sequence[float],
        percentile: float = 0.95,
        seed: int = 0,
    ) -> HedgePolicy:
        """Calibrate the hedge delay from an observed latency sample.

        The classic tail-at-scale recipe: hedge requests that outlive
        the ``percentile`` of healthy latency, so at most ``1 -
        percentile`` of requests ever pay for a backup.
        """
        if not latencies:
            raise ValueError("cannot calibrate from an empty sample")
        if not 0.0 < percentile < 1.0:
            raise ValueError(f"percentile must be in (0, 1), got {percentile}")
        ordered = sorted(latencies)
        rank = min(len(ordered) - 1, int(percentile * len(ordered)))
        return cls(delay_s=max(ordered[rank], 1e-4), seed=seed)

    def delay_for(self, prompt: str) -> float:
        """Deterministic per-prompt hedge delay (pure function)."""
        if self.spread == 0.0:
            return self.delay_s
        payload = f"{self.seed}\x1fhedge\x1f{prompt}".encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / 2.0**64
        return self.delay_s * (1.0 + self.spread * draw)

    def record_fired(self) -> None:
        with self._lock:
            self.n_fired += 1

    def record_win(self) -> None:
        with self._lock:
            self.n_wins += 1

    def stats(self) -> dict:
        """JSON-ready hedging block for run manifests."""
        with self._lock:
            return {
                "delay_s": self.delay_s,
                "fired": self.n_fired,
                "wins": self.n_wins,
            }


#: Priority classes, most to least important.  Interactive work (a
#: human waiting on one verdict) is never shed for budget headroom;
#: bench sweeps keep a small reserve; backfill yields earliest.
PRIORITIES = ("interactive", "bench", "backfill")

#: Fraction of the *total* budget kept in reserve for higher-priority
#: work: a class is shed once remaining budget falls below its headroom.
PRIORITY_HEADROOM = {
    "interactive": 0.0,
    "bench": 0.10,
    "backfill": 0.25,
}


class AIMDLimiter:
    """Additive-increase / multiplicative-decrease concurrency window.

    The classic TCP congestion-control shape applied to request
    concurrency: every success grows the in-flight window by
    ``increase / window`` (one full unit per window of successes), every
    transient failure halves it.  ``acquire`` blocks while the window is
    full — that blocking *is* the admission queue — so when the backend
    degrades, pressure drops before retries pile up, and when it
    recovers, the window reopens gradually.

    The limiter shapes pacing only: it cannot change which requests run
    or what they return, so determinism of results is untouched.
    """

    def __init__(
        self,
        initial: float = 8.0,
        min_limit: float = 1.0,
        max_limit: float = 64.0,
        increase: float = 1.0,
        decrease: float = 0.5,
    ):
        if not min_limit <= initial <= max_limit:
            raise ValueError(
                f"need min_limit <= initial <= max_limit, got "
                f"{min_limit}/{initial}/{max_limit}"
            )
        if not 0.0 < decrease < 1.0:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase = increase
        self.decrease = decrease
        self._limit = float(initial)
        self._in_flight = 0
        self._cond = threading.Condition()
        self.n_waits = 0

    @property
    def limit(self) -> float:
        with self._cond:
            return self._limit

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    def acquire(self) -> None:
        """Take one concurrency slot, blocking while the window is full."""
        with self._cond:
            if self._in_flight >= int(self._limit):
                self.n_waits += 1
            while self._in_flight >= int(self._limit):
                self._cond.wait(0.01)
            self._in_flight += 1

    def release(self, ok: bool) -> None:
        """Return a slot; grow the window on success, halve it on failure."""
        with self._cond:
            self._in_flight = max(0, self._in_flight - 1)
            if ok:
                self._limit = min(
                    self.max_limit, self._limit + self.increase / self._limit
                )
            else:
                self._limit = max(self.min_limit, self._limit * self.decrease)
            self._cond.notify_all()

    def stats(self) -> dict:
        with self._cond:
            return {
                "limit": self._limit,
                "in_flight": self._in_flight,
                "waits": self.n_waits,
            }


class AdmissionController:
    """Decide, before work burns budget, what runs and what is shed.

    Two cooperating halves:

    * :meth:`plan` — called once per batch, *before* the fan-out.  It
      snapshots the circuit breaker and shared budget and returns one
      ``"admit"``/``"shed"`` verdict per item, in input order.  Because
      the decision precedes any concurrency, the shed set is a pure
      function of the pre-batch state: byte-identical at workers=1 and
      workers=8.  A shed item costs zero backend calls, zero retries,
      zero backoff — it surfaces as a typed
      :class:`~repro.api.retry.Shed` failure for the quarantine/fallback
      machinery above.
    * :meth:`acquire` / :meth:`release` — the per-attempt AIMD gate
      (see :class:`AIMDLimiter`); this is the *queueing* half, shaping
      pacing without affecting outcomes.

    Shedding rules, in order: a breaker that is currently open sheds
    every non-interactive item (interactive work rides the breaker's
    own single-probe recovery instead); a shared budget sheds the tail
    of the batch that cannot be served while keeping the priority
    class's headroom in reserve (tail, not a sample — so the surviving
    prefix is exactly the prefix a smaller budget-free run would have
    produced).
    """

    def __init__(
        self,
        budget=None,
        breaker=None,
        limiter: AIMDLimiter | None = None,
        headroom: dict | None = None,
    ):
        self.budget = budget
        self.breaker = breaker
        self.limiter = limiter
        self.headroom = dict(PRIORITY_HEADROOM if headroom is None else headroom)
        self._lock = threading.Lock()
        self.n_admitted = 0
        self.n_shed = 0

    def plan(self, n_items: int, priority: str = "bench") -> list[str]:
        """One ``"admit"``/``"shed"`` verdict per item, in input order."""
        if priority not in self.headroom:
            known = ", ".join(sorted(self.headroom))
            raise ValueError(f"unknown priority {priority!r}; known: {known}")
        admitted = n_items
        if (
            self.breaker is not None
            and self.breaker.state == "open"
            and priority != "interactive"
        ):
            admitted = 0
        elif self.budget is not None:
            remaining = self.budget.remaining_requests
            if remaining is not None:
                reserve = int(self.budget.max_requests * self.headroom[priority])
                admitted = min(n_items, max(0, remaining - reserve))
        with self._lock:
            self.n_admitted += admitted
            self.n_shed += n_items - admitted
        return ["admit"] * admitted + ["shed"] * (n_items - admitted)

    def acquire(self) -> None:
        if self.limiter is not None:
            self.limiter.acquire()

    def release(self, ok: bool) -> None:
        if self.limiter is not None:
            self.limiter.release(ok)

    def stats(self) -> dict:
        """JSON-ready shedding block for run manifests."""
        with self._lock:
            block = {"admitted": self.n_admitted, "shed": self.n_shed}
        if self.limiter is not None:
            block["limiter"] = self.limiter.stats()
        return block


class FallbackChain:
    """The graceful-degradation ladder: ordered model tiers.

    The paper's Figure 4 frontier *is* a degradation ladder — 175B for
    quality, 6.7B/1.3B for cost — and this class makes it operational:
    an example that would otherwise be quarantined (retries exhausted,
    garbage response) or shed (admission control) is re-served by the
    next tier down, so a degraded run reports ``coverage == 1.0`` with
    an explicit per-tier breakdown instead of silently missing rows.

    Tiers are model names (resolved lazily through
    :class:`~repro.api.client.CompletionClient`) or ready model objects.
    Tier clients deliberately do **not** inherit the primary run's
    :class:`~repro.api.faults.FaultPlan`: a fallback tier models a
    *different* deployment, which is the whole reason degrading to it
    helps — the fault schedule keyed on the same prompt would otherwise
    re-inject the identical outage one tier down.  They do share the
    primary client's usage tracker (per-tier cost lands in the manifest)
    and the process-default prompt cache.
    """

    def __init__(self, tiers: Sequence):
        tiers = list(tiers)
        if not tiers:
            raise ValueError("a FallbackChain needs at least one tier")
        self.tiers = tiers
        self._clients: dict[int, object] = {}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str) -> FallbackChain:
        """``"gpt3-6.7b,gpt3-1.3b"`` (the CLI's ``--fallback``) → chain."""
        tiers = [part.strip() for part in text.split(",") if part.strip()]
        return cls(tiers)

    def tier_name(self, index: int) -> str:
        tier = self.tiers[index]
        if isinstance(tier, str):
            return tier
        return getattr(tier, "name", type(tier).__name__)

    def resolve(self, index: int, usage=None):
        """The tier's ready-to-call model (clients built lazily, cached)."""
        with self._lock:
            client = self._clients.get(index)
        if client is not None:
            return client
        tier = self.tiers[index]
        if isinstance(tier, str):
            from repro.api.cache import get_default_cache
            from repro.api.client import CompletionClient

            tier = CompletionClient(
                tier, cache=get_default_cache(), usage=usage
            )
        with self._lock:
            self._clients.setdefault(index, tier)
            return self._clients[index]

    def describe(self) -> list[str]:
        return [self.tier_name(index) for index in range(len(self.tiers))]


class _BackendHealth:
    """Mutable per-backend record inside a :class:`BackendHealthTracker`."""

    __slots__ = (
        "window", "consecutive_failures", "state", "opened_at",
        "n_ok", "n_failed",
    )

    def __init__(self, window_size: int):
        from collections import deque

        self.window = deque(maxlen=window_size)  # (ok, latency_s) pairs
        self.consecutive_failures = 0
        self.state = "closed"
        self.opened_at = 0.0
        self.n_ok = 0
        self.n_failed = 0


class BackendHealthTracker:
    """Rolling per-*backend* health with its own circuit state.

    Distinct from the per-*run* :class:`~repro.api.batch.CircuitBreaker`:
    that breaker answers "is this run's endpoint usable right now", this
    tracker answers "which member of an equivalence group should serve
    the next request".  Per backend it keeps a rolling window of
    (outcome, latency) observations plus a closed → open → half-open
    circuit: ``failure_threshold`` *consecutive* failures open the
    circuit, ``cooldown_s`` later a single probe is allowed through, and
    the probe's outcome closes or re-opens it.  The clock is injectable
    so transitions are testable without real sleeps.

    Thread-safe; used by :class:`FailoverPolicy` to order candidates and
    snapshotted into the manifest's ``failover.health`` block.
    """

    def __init__(
        self,
        window_size: int = 32,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.window_size = int(window_size)
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._backends: dict[str, _BackendHealth] = {}

    def _entry(self, name: str) -> _BackendHealth:
        entry = self._backends.get(name)
        if entry is None:
            entry = _BackendHealth(self.window_size)
            self._backends[name] = entry
        return entry

    def record(self, name: str, ok: bool, latency_s: float = 0.0) -> None:
        """Record one request outcome against backend ``name``."""
        with self._lock:
            entry = self._entry(name)
            entry.window.append((bool(ok), float(latency_s)))
            if ok:
                entry.n_ok += 1
                entry.consecutive_failures = 0
                entry.state = "closed"
            else:
                entry.n_failed += 1
                entry.consecutive_failures += 1
                if (
                    entry.state == "half_open"
                    or entry.consecutive_failures >= self.failure_threshold
                ):
                    entry.state = "open"
                    entry.opened_at = self._clock()

    def allow(self, name: str) -> bool:
        """Whether routing to ``name`` is currently permitted.

        Closed circuits always pass.  An open circuit refuses until
        ``cooldown_s`` has elapsed, then moves to half-open; a half-open
        circuit admits probes whose recorded outcome closes or re-opens
        it.  Deliberately latch-free: consulting ``allow`` never
        consumes anything, so a candidate ordering that checks a member
        it ends up not serving cannot wedge that member's circuit.
        """
        with self._lock:
            entry = self._entry(name)
            if entry.state == "closed":
                return True
            if entry.state == "open":
                if self._clock() - entry.opened_at >= self.cooldown_s:
                    entry.state = "half_open"
                    return True
                return False
            return True  # half_open

    def state(self, name: str) -> str:
        with self._lock:
            return self._entry(name).state

    def error_rate(self, name: str) -> float:
        """Failure fraction over the rolling window (0.0 when empty)."""
        with self._lock:
            window = self._entry(name).window
            if not window:
                return 0.0
            return sum(1 for ok, _lat in window if not ok) / len(window)

    def snapshot(self) -> dict:
        """JSON-ready per-backend health for the manifest."""
        with self._lock:
            out: dict[str, dict] = {}
            for name in sorted(self._backends):
                entry = self._backends[name]
                window = list(entry.window)
                latencies = sorted(lat for _ok, lat in window)
                failures = sum(1 for ok, _lat in window if not ok)
                out[name] = {
                    "state": entry.state,
                    "ok": entry.n_ok,
                    "failed": entry.n_failed,
                    "consecutive_failures": entry.consecutive_failures,
                    "window_error_rate": (
                        failures / len(window) if window else 0.0
                    ),
                    "p50_latency_s": (
                        latencies[len(latencies) // 2] if latencies else 0.0
                    ),
                }
            return out


class FailoverPolicy:
    """Order an equivalence group's members for one serve attempt.

    ``members`` is the registry-declared group, primary first, simulated
    shim (or whatever the operator trusts as always-up) last.  The
    routing decision is deterministic given the health state: candidates
    are the members in declared order whose per-backend circuit admits
    them (:meth:`BackendHealthTracker.allow`), followed — as a last
    resort, never skipped — by the refused members in declared order, so
    a group where every circuit is open still serves rather than failing
    without trying.  No randomness, no worker-count dependence: at
    temperature 0 every member of an equivalence group returns
    byte-identical text, so *predictions* are independent of which
    member happened to be healthy.
    """

    def __init__(
        self,
        members: Sequence[str],
        health: BackendHealthTracker | None = None,
    ):
        members = [str(member) for member in members]
        if not members:
            raise ValueError("a FailoverPolicy needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate failover members in {members}")
        self.members = tuple(members)
        self.health = health if health is not None else BackendHealthTracker()

    @classmethod
    def parse(cls, text: str) -> FailoverPolicy:
        """``"gpt3-175b,gpt3-6.7b"`` (the CLI's ``--failover``) → policy."""
        members = [part.strip() for part in text.split(",") if part.strip()]
        return cls(members)

    def candidates(self) -> list[str]:
        """Members to try, in order; always covers the whole group."""
        admitted = []
        refused = []
        for member in self.members:
            (admitted if self.health.allow(member) else refused).append(
                member
            )
        return admitted + refused

    def record(self, member: str, ok: bool, latency_s: float = 0.0) -> None:
        self.health.record(member, ok, latency_s)

    def describe(self) -> list[str]:
        return list(self.members)


class CascadePolicy:
    """The fallback ladder inverted: cheapest-first, confidence-routed.

    :class:`FallbackChain` degrades *downward* after failures; a cascade
    runs the economics the other way.  Every example is served by the
    cheapest tier first, and only predictions whose self-reported
    confidence (see :meth:`~repro.fm.engine.SimulatedFoundationModel.
    complete_verbose`) falls below ``threshold`` escalate to the next
    tier up — the run's primary model is always the final authority.
    That turns the paper's Figure 4 cost/quality frontier into a runtime
    policy: most examples are easy enough for a small model, and only
    the uncertain tail pays the 175B rate (Peeters & Bizer's
    cheap-model-first observation, PAPERS.md).

    ``threshold=None`` means *calibrate per task*: the engine picks one
    threshold per cheap tier on the validation split — the smallest
    whose accepted predictions never disagree with the primary model's
    own, pruning tiers that flip even at full confidence — and then
    requires the composed cascade's validation metric (scored against
    ``make_validation_scorer``'s reference) to stay within
    ``max_quality_loss`` of the primary's.  Calibration reads
    ``calibration_examples`` validation examples (``None``, the default,
    means the whole validation split: a cheap tier may end up serving
    most of the traffic, so the zero-disagreement certificate wants
    every held-out example it can get, not manual curation's small
    sample).

    Determinism: escalation is decided per example as a pure function of
    (confidence, threshold, prompt) — the optional ``spread`` jitters
    the effective threshold by a BLAKE2 draw of ``(seed, prompt)``,
    exactly the :class:`HedgePolicy`/FaultPlan idiom — and the client
    serializes confidence-carrying calls, so cascade results are
    byte-identical at any worker count through both the thread and async
    executors.

    Tier clients (resolved lazily, like :class:`FallbackChain`) share
    the primary client's usage tracker and prompt cache but deliberately
    not its :class:`~repro.api.faults.FaultPlan` — each tier models a
    separate deployment.
    """

    def __init__(
        self,
        tiers: Sequence = ("gpt3-1.3b", "gpt3-6.7b"),
        threshold: float | None = None,
        spread: float = 0.0,
        seed: int = 0,
        max_quality_loss: float = 0.01,
        calibration_examples: int | None = None,
    ):
        tiers = tuple(tiers)
        if not tiers:
            raise ValueError("a CascadePolicy needs at least one cheap tier")
        if threshold is not None and not 0.0 <= threshold <= 2.0:
            raise ValueError(
                f"threshold must be in [0, 2] (confidence is in [0, 1]), "
                f"got {threshold}"
            )
        if spread < 0:
            raise ValueError(f"spread must be >= 0, got {spread}")
        if max_quality_loss < 0:
            raise ValueError(
                f"max_quality_loss must be >= 0, got {max_quality_loss}"
            )
        if calibration_examples is not None and calibration_examples < 1:
            raise ValueError(
                f"calibration_examples must be >= 1 or None (the whole "
                f"validation split), got {calibration_examples}"
            )
        self.tiers = tiers
        self.threshold = threshold
        self.spread = float(spread)
        self.seed = seed
        self.max_quality_loss = float(max_quality_loss)
        self.calibration_examples = calibration_examples
        self._clients: dict[int, object] = {}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str, threshold: float | None = None) -> CascadePolicy:
        """``"gpt3-1.3b,gpt3-6.7b"`` (the CLI's ``--cascade``) → policy."""
        tiers = [part.strip() for part in text.split(",") if part.strip()]
        return cls(tiers, threshold=threshold)

    def tier_name(self, index: int) -> str:
        tier = self.tiers[index]
        if isinstance(tier, str):
            return tier
        return getattr(tier, "name", type(tier).__name__)

    def resolve(self, index: int, usage=None, cache=None):
        """The tier's ready-to-call client (built lazily, cached)."""
        with self._lock:
            client = self._clients.get(index)
        if client is not None:
            return client
        tier = self.tiers[index]
        if isinstance(tier, str):
            from repro.api.cache import get_default_cache
            from repro.api.client import CompletionClient

            tier = CompletionClient(
                tier,
                cache=cache if cache is not None else get_default_cache(),
                usage=usage,
            )
        with self._lock:
            self._clients.setdefault(index, tier)
            return self._clients[index]

    def resolved_clients(self) -> list:
        """The tier models :meth:`resolve` has built or returned so far."""
        with self._lock:
            return list(self._clients.values())

    def effective_threshold(self, prompt: str, threshold: float) -> float:
        """Deterministic per-example threshold (pure function of prompt)."""
        if self.spread == 0.0:
            return threshold
        payload = f"{self.seed}\x1fcascade\x1f{prompt}".encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / 2.0**64
        return threshold + self.spread * (draw - 0.5)

    def should_escalate(
        self, prompt: str, confidence: float, threshold: float | None = None
    ) -> bool:
        """Whether a prediction at ``confidence`` moves up a tier."""
        if threshold is None:
            threshold = self.threshold
        if threshold is None:
            raise ValueError(
                "threshold unresolved: pass one or calibrate the policy"
            )
        return confidence < self.effective_threshold(prompt, threshold)

    def describe(self) -> list[str]:
        return [self.tier_name(index) for index in range(len(self.tiers))]
