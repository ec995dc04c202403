"""Exactness of pruned manual curation.

The validation scorer stops scoring a candidate once an upper bound on
its score is ``<=`` the score it must beat.  These tests pin that the
bound is exact for the built-in metrics, that pruned and unpruned
curation pick the same demonstrations and give the same predictions,
and that the floor reaches the scorer through a one-argument wrapper
around ``evaluate``.
"""

from __future__ import annotations

import random

import pytest

from repro.api import CompletionClient, FaultPlan
from repro.core.demonstrations import ManualCurator
from repro.core.metrics import accuracy, binary_metrics
from repro.core.tasks import engine, run_task
from repro.datasets import load_dataset


def _f1(predictions, labels):
    return binary_metrics(predictions, labels).f1


METRICS = {
    "f1": (_f1, (True, False)),
    "accuracy": (accuracy, ("a", "b", "c")),
}


def _score(metric, predictions, labels):
    """The engine's quarantine scoring: dropped (``None``) slots leave."""
    kept = [(p, l) for p, l in zip(predictions, labels) if p is not None]
    if not kept:
        return 0.0
    return metric([p for p, _ in kept], [l for _, l in kept])


class TestBoundProperty:
    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_bound_dominates_every_completion_and_floor_is_exact(self, name):
        metric, values = METRICS[name]
        choices = (*values, None)  # None: a slot dropped under quarantine
        rng = random.Random(16)
        prunes = 0
        for _trial in range(3000):
            n = rng.randint(1, 16)
            labels = [rng.choice(values) for _ in range(n)]
            scored = rng.randint(0, n)
            done = [rng.choice(choices) for _ in range(scored)]
            bound = _score(metric, done + labels[scored:], labels)
            other = [rng.choice(choices) for _ in range(n)]
            floors = (bound, _score(metric, other, labels))
            for _completion in range(20):
                rest = [
                    label if rng.random() < 0.5 else rng.choice(choices)
                    for label in labels[scored:]
                ]
                true = _score(metric, done + rest, labels)
                assert true <= bound
                for floor in floors:
                    if bound <= floor:
                        prunes += 1
                        assert true <= floor
        assert prunes > 0


MAX_EXAMPLES = 16

CASES = [
    ("em", "beer"),
    ("ed", "adult"),
    ("di", "restaurant"),
    ("sm", "synthea"),
]


def _curated_run(monkeypatch, task, name, on_error, pruned):
    """One run: (chosen demonstrations, predictions, backend calls, plan)."""
    if not pruned:
        monkeypatch.setattr(engine, "_MONOTONE_METRICS", frozenset())
    chosen = []
    select = ManualCurator.select

    def recording_select(curator, pool, k):
        result = select(curator, pool, k)
        chosen.append(result)
        return result

    monkeypatch.setattr(ManualCurator, "select", recording_select)
    plan = FaultPlan("garbage", seed=3) if on_error == "quarantine" else None
    client = CompletionClient("gpt3-175b", fault_plan=plan)
    run = run_task(
        task, client, load_dataset(name), selection="manual",
        max_examples=MAX_EXAMPLES, on_error=on_error,
    )
    monkeypatch.undo()
    return chosen, run.predictions, client.stats["backend_calls"], plan


class TestCurationIdentity:
    @pytest.mark.parametrize("on_error", ["raise", "quarantine"])
    @pytest.mark.parametrize("task,name", CASES)
    def test_pruned_matches_unpruned(self, monkeypatch, task, name, on_error):
        chosen, predictions, calls, plan = _curated_run(
            monkeypatch, task, name, on_error, pruned=True
        )
        ref_chosen, ref_predictions, ref_calls, ref_plan = _curated_run(
            monkeypatch, task, name, on_error, pruned=False
        )
        assert len(chosen) == 1 and chosen[0]
        assert chosen == ref_chosen
        assert predictions == ref_predictions
        assert calls < ref_calls
        if plan is not None:
            # More garbage than the test prompts alone could draw: the
            # plan dropped validation slots during curation.
            assert ref_plan.stats().get("garbage", 0) > MAX_EXAMPLES


class TestWrappedEvaluate:
    def test_one_argument_wrapper_keeps_pruning(self, monkeypatch):
        """A counting wrapper around ``curator.evaluate`` (as an outside
        tracer installs one) changes no backend call."""

        def calls_of_run():
            client = CompletionClient("gpt3-175b")
            run_task("sm", client, load_dataset("synthea"),
                     selection="manual", max_examples=8)
            return client.stats["backend_calls"]

        plain = calls_of_run()
        evaluations = []
        select = ManualCurator.select

        def wrapped_select(curator, pool, k):
            evaluate = curator.evaluate

            def counted(demos):
                evaluations.append(len(demos))
                return evaluate(demos)

            curator.evaluate = counted
            try:
                return select(curator, pool, k)
            finally:
                curator.evaluate = evaluate

        monkeypatch.setattr(ManualCurator, "select", wrapped_select)
        wrapped = calls_of_run()
        monkeypatch.undo()
        monkeypatch.setattr(engine, "_MONOTONE_METRICS", frozenset())
        unpruned = calls_of_run()
        assert evaluations
        assert wrapped == plain < unpruned
