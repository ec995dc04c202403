"""Request/response model and the bounded priority queue.

The gateway's unit of work is one :class:`WrangleRequest` — a tenant
asking for predictions on a handful of examples of one task.  Requests
carrying the same :attr:`~WrangleRequest.group_key` build prompts from
the same demonstration prefix, so the scheduler may coalesce them into
one micro-batch without changing any prediction (temperature-0 purity:
the completion is a function of the prompt alone).

The queue is bounded and priority-ordered with deterministic overflow:
when full, the newest strictly-lower-priority waiter is evicted (typed
:class:`ShedResponse`, never a silent drop) in favor of the arrival;
an arrival that outranks nothing is shed itself.  Dispatch order —
strict priority, FIFO within a class — is decided by one dispatcher
thread, so shed sets and serve order do not depend on how many
executor workers drain the batches.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.api.resilience import PRIORITIES
from repro.core.tasks.spec import get_task

__all__ = [
    "QueueFull",
    "RequestQueue",
    "ShedResponse",
    "WrangleRequest",
    "WrangleResponse",
]


class QueueFull(Exception):
    """The queue is at capacity and the arrival outranks no waiter."""


@dataclass
class WrangleRequest:
    """One tenant's ask: predictions for a few examples of one task.

    Examples come in one of two forms:

    * ``indices`` — positions into ``dataset``'s ``split`` (the
      benchmark / replay shape; trivially comparable to the offline
      path), or
    * ``rows`` — inline example payloads decoded per task (see
      :mod:`repro.serve.codec`).

    ``deadline_s`` is a *queueing* deadline: a request still waiting
    when it expires is shed with reason ``"deadline"`` instead of
    serving a stale answer.
    """

    tenant: str
    task: str
    dataset: str
    indices: list[int] | None = None
    rows: list[dict] | None = None
    split: str = "test"
    priority: str = "interactive"
    deadline_s: float | None = None
    model: str = "gpt3-175b"
    k: int | None = None
    selection: str = "random"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )
        try:
            # Canonical name, so alias and canonical requests share a group.
            self.task = get_task(self.task).name
        except KeyError:
            raise ValueError(f"unknown task {self.task!r}") from None
        if (self.indices is None) == (self.rows is None):
            raise ValueError(
                "exactly one of indices/rows must be provided"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")

    @property
    def n_examples(self) -> int:
        return len(self.indices if self.indices is not None else self.rows)

    @property
    def group_key(self) -> tuple:
        """Coalescing key: requests sharing it share prompt prefix and
        model, so their examples may ride one micro-batch."""
        return (
            self.task, self.dataset, self.split, self.model,
            self.k, self.selection, self.seed,
        )


@dataclass
class WrangleResponse:
    """Per-request outcome: one result slot per submitted example."""

    request_id: int
    tenant: str
    ok: bool
    results: list[dict]
    latency_s: float = 0.0
    n_examples: int = 0
    shed: bool = False

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "ok": self.ok,
            "shed": False,
            "n_examples": self.n_examples,
            "latency_s": self.latency_s,
            "results": self.results,
        }


@dataclass
class ShedResponse:
    """Typed refusal — the request was not (fully) attempted.

    ``reason`` is one of the pinned vocabulary the stats block counts:
    ``tenant_rate``, ``tenant_budget``, ``queue_full``,
    ``queue_evicted``, ``deadline``, ``admission``, ``shutdown``.
    """

    request_id: int
    tenant: str
    reason: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "ok": False,
            "shed": True,
            "reason": self.reason,
            "detail": self.detail,
        }


@dataclass
class QueueEntry:
    """A request waiting in the queue, with its submission metadata."""

    request_id: int
    request: WrangleRequest
    future: object
    enqueued_at: float
    expires_at: float | None = field(default=None)

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


class RequestQueue:
    """Bounded, priority-ordered queue with deterministic overflow.

    Not thread-safe by itself — the gateway serializes access under its
    own lock.  ``clock`` is injectable so deadline expiry is testable
    without sleeping.
    """

    def __init__(self, capacity: int = 64, clock=time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        # request_id -> entry, insertion-ordered, one map per priority
        # class: OrderedDict gives FIFO pops *and* O(1) removal of a
        # coalesced or evicted entry by id.
        self._waiting: dict[str, OrderedDict[int, QueueEntry]] = {
            priority: OrderedDict() for priority in PRIORITIES
        }

    def __len__(self) -> int:
        return sum(len(waiting) for waiting in self._waiting.values())

    def depths(self) -> dict[str, int]:
        return {
            priority: len(waiting)
            for priority, waiting in self._waiting.items()
        }

    def push(self, entry: QueueEntry) -> QueueEntry | None:
        """Enqueue ``entry``; returns the entry evicted to make room.

        At capacity, the newest waiter of the *lowest* priority class
        strictly below the arrival's is evicted (the work least likely
        to meet its deadline anyway).  If no waiter ranks below the
        arrival, :class:`QueueFull` is raised and the arrival is shed.
        """
        if len(self) < self.capacity:
            self._waiting[entry.request.priority][entry.request_id] = entry
            return None
        arrival_rank = PRIORITIES.index(entry.request.priority)
        for priority in reversed(PRIORITIES):
            if PRIORITIES.index(priority) <= arrival_rank:
                break
            waiting = self._waiting[priority]
            if waiting:
                _, evicted = waiting.popitem(last=True)
                self._waiting[entry.request.priority][entry.request_id] = entry
                return evicted
        raise QueueFull(
            f"queue at capacity ({self.capacity}) with no lower-priority "
            f"waiter to evict for a {entry.request.priority!r} arrival"
        )

    def remove(self, request_id: int) -> QueueEntry | None:
        """O(1) removal of one waiter by id (abandoned requests).

        Returns the removed entry, or ``None`` when ``request_id`` is
        not waiting (already dispatched, resolved, or never queued).
        """
        for waiting in self._waiting.values():
            entry = waiting.pop(request_id, None)
            if entry is not None:
                return entry
        return None

    def pop_expired(self) -> list[QueueEntry]:
        """Remove and return every waiter whose deadline has passed."""
        now = self.clock()
        expired: list[QueueEntry] = []
        for waiting in self._waiting.values():
            stale = [
                request_id for request_id, entry in waiting.items()
                if entry.expired(now)
            ]
            for request_id in stale:
                expired.append(waiting.pop(request_id))
        return expired

    def pop_group(self, max_examples: int | None = None) -> list[QueueEntry]:
        """Dequeue the head request plus every coalescible follower.

        The head is the oldest waiter of the highest non-empty priority
        class.  Followers share the head's :attr:`group_key` — from
        *any* priority class, order preserved within each class,
        scanned highest class first — until ``max_examples`` examples
        are gathered.  Coalescing across classes is safe because the
        batch serves at the head's priority: backfill piggybacking on
        an interactive batch only ever gets *earlier* service.
        """
        head: QueueEntry | None = None
        for priority in PRIORITIES:
            waiting = self._waiting[priority]
            if waiting:
                _, head = waiting.popitem(last=False)
                break
        if head is None:
            return []
        group = [head]
        total = head.request.n_examples
        key = head.request.group_key
        for priority in PRIORITIES:
            waiting = self._waiting[priority]
            matched = []
            for request_id, entry in waiting.items():
                if max_examples is not None and total >= max_examples:
                    break
                if entry.request.group_key == key:
                    matched.append(request_id)
                    total += entry.request.n_examples
            for request_id in matched:
                group.append(waiting.pop(request_id))
        return group

    def drain(self) -> list[QueueEntry]:
        """Remove and return everything (shutdown path)."""
        drained: list[QueueEntry] = []
        for waiting in self._waiting.values():
            drained.extend(waiting.values())
            waiting.clear()
        return drained
