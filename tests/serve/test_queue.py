"""Unit tests for the bounded priority RequestQueue."""

from concurrent.futures import Future

import pytest

from repro.serve.request import (
    QueueEntry,
    QueueFull,
    RequestQueue,
    WrangleRequest,
)

pytestmark = pytest.mark.smoke


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_request(priority="interactive", tenant="t", indices=(0,),
                 task="entity_matching", dataset="fodors_zagats",
                 seed=0, **kwargs):
    return WrangleRequest(
        tenant=tenant, task=task, dataset=dataset,
        indices=list(indices), priority=priority, seed=seed, **kwargs
    )


def make_entry(request_id, priority="interactive", clock=None, expires_at=None,
               **kwargs):
    now = clock() if clock is not None else 0.0
    return QueueEntry(
        request_id=request_id,
        request=make_request(priority=priority, **kwargs),
        future=Future(),
        enqueued_at=now,
        expires_at=expires_at,
    )


class TestRequestValidation:
    def test_rejects_unknown_priority(self):
        with pytest.raises(ValueError):
            make_request(priority="vip")

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            make_request(task="mystery")

    def test_task_alias_resolves_to_canonical_name(self):
        request = make_request(task="em")
        assert request.task == "entity_matching"
        assert request.group_key == make_request().group_key

    def test_rejects_both_indices_and_rows(self):
        with pytest.raises(ValueError):
            WrangleRequest(tenant="t", task="entity_matching",
                           dataset="d", indices=[0], rows=[{}])

    def test_rejects_neither_indices_nor_rows(self):
        with pytest.raises(ValueError):
            WrangleRequest(tenant="t", task="entity_matching", dataset="d")

    def test_group_key_pins_prompt_identity(self):
        a = make_request(indices=[0])
        b = make_request(indices=[5, 6])
        assert a.group_key == b.group_key
        assert a.group_key != make_request(seed=1).group_key


class TestQueueOrdering:
    def test_strict_priority_order(self):
        # Distinct seeds → distinct group keys, so nothing coalesces
        # and pops expose pure priority order.
        queue = RequestQueue(capacity=10)
        queue.push(make_entry(1, "backfill", seed=1))
        queue.push(make_entry(2, "bench", seed=2))
        queue.push(make_entry(3, "interactive", seed=3))
        ids = [queue.pop_group()[0].request_id for _ in range(3)]
        assert ids == [3, 2, 1]

    def test_fifo_within_class(self):
        queue = RequestQueue(capacity=10)
        for request_id in (1, 2, 3):
            queue.push(make_entry(request_id, "interactive", seed=request_id))
        ids = [queue.pop_group()[0].request_id for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_pop_group_coalesces_same_key(self):
        queue = RequestQueue(capacity=10)
        queue.push(make_entry(1, "interactive", indices=[0]))
        queue.push(make_entry(2, "interactive", indices=[1, 2]))
        queue.push(make_entry(3, "interactive", seed=9))  # different key
        group = queue.pop_group()
        assert [entry.request_id for entry in group] == [1, 2]
        assert len(queue) == 1

    def test_pop_group_coalesces_across_priorities(self):
        queue = RequestQueue(capacity=10)
        queue.push(make_entry(1, "backfill", indices=[0]))
        queue.push(make_entry(2, "interactive", indices=[1]))
        group = queue.pop_group()
        # Interactive head; compatible backfill piggybacks (it can only
        # get served earlier than it would alone).
        assert [entry.request_id for entry in group] == [2, 1]

    def test_pop_group_respects_max_examples(self):
        queue = RequestQueue(capacity=10)
        queue.push(make_entry(1, "interactive", indices=[0, 1]))
        queue.push(make_entry(2, "interactive", indices=[2, 3]))
        queue.push(make_entry(3, "interactive", indices=[4]))
        group = queue.pop_group(max_examples=4)
        assert [entry.request_id for entry in group] == [1, 2]

    def test_pop_empty(self):
        assert RequestQueue(capacity=2).pop_group() == []


class TestOverflow:
    def test_evicts_newest_lowest_priority(self):
        queue = RequestQueue(capacity=2)
        queue.push(make_entry(1, "backfill"))
        queue.push(make_entry(2, "backfill"))
        evicted = queue.push(make_entry(3, "interactive"))
        assert evicted.request_id == 2
        assert len(queue) == 2

    def test_evicts_backfill_before_bench(self):
        queue = RequestQueue(capacity=2)
        queue.push(make_entry(1, "bench"))
        queue.push(make_entry(2, "backfill"))
        evicted = queue.push(make_entry(3, "interactive"))
        assert evicted.request_id == 2

    def test_equal_priority_arrival_is_refused(self):
        queue = RequestQueue(capacity=1)
        queue.push(make_entry(1, "interactive"))
        with pytest.raises(QueueFull):
            queue.push(make_entry(2, "interactive"))
        assert len(queue) == 1

    def test_backfill_cannot_evict_interactive(self):
        queue = RequestQueue(capacity=1)
        queue.push(make_entry(1, "interactive"))
        with pytest.raises(QueueFull):
            queue.push(make_entry(2, "backfill"))


class TestDeadlines:
    def test_expired_waiters_are_removed(self):
        clock = FakeClock()
        queue = RequestQueue(capacity=5, clock=clock)
        queue.push(make_entry(1, "interactive", expires_at=1.0))
        queue.push(make_entry(2, "interactive", expires_at=10.0))
        clock.now = 2.0
        expired = queue.pop_expired()
        assert [entry.request_id for entry in expired] == [1]
        assert len(queue) == 1

    def test_no_deadline_never_expires(self):
        clock = FakeClock()
        queue = RequestQueue(capacity=5, clock=clock)
        queue.push(make_entry(1, "interactive"))
        clock.now = 1e9
        assert queue.pop_expired() == []


class TestDrain:
    def test_drain_empties_everything(self):
        queue = RequestQueue(capacity=5)
        queue.push(make_entry(1, "interactive"))
        queue.push(make_entry(2, "backfill"))
        drained = queue.drain()
        assert {entry.request_id for entry in drained} == {1, 2}
        assert len(queue) == 0
        assert queue.depths() == {
            "interactive": 0, "bench": 0, "backfill": 0,
        }
