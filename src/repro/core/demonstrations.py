"""Task-demonstration selection (paper Section 3.3).

Two strategies, matching the paper's comparison:

* :class:`RandomSelector` — uniform sampling from the labeled pool.  The
  paper runs this over three seeds and reports mean ± std (Table 4's
  "w/o Example Select." rows).
* :class:`ManualCurator` — the programmatic analogue of the paper's manual
  prompt tuning ("at most one hour analyzing errors on a held-out
  validation set").  It greedily grows the demonstration set, at each step
  adding the candidate that most improves a validation score supplied by
  the caller — exactly the error-driven iteration a human performs, with
  the time budget surfaced as a candidate-pool cap.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from contextvars import ContextVar

#: The score the candidate being evaluated must beat: set by
#: :meth:`ManualCurator.select` around each candidate's ``evaluate`` call,
#: ``None`` outside one.  A context variable rather than an argument, so
#: it reaches the scorer through any one-argument wrapper around
#: ``evaluate``.
SCORE_FLOOR: ContextVar[float | None] = ContextVar("score_floor", default=None)


class DemonstrationSelector:
    """Interface: pick ``k`` demonstrations from a labeled pool."""

    def select(self, pool: Sequence, k: int) -> list:
        raise NotImplementedError


class RandomSelector(DemonstrationSelector):
    """Uniform random demonstrations (optionally class-balanced)."""

    def __init__(self, seed: int = 0, balanced: bool = False,
                 label_of: Callable[[object], bool] | None = None):
        self.seed = seed
        self.balanced = balanced
        self.label_of = label_of

    def select(self, pool: Sequence, k: int) -> list:
        if k <= 0:
            return []
        rng = random.Random(self.seed)
        items = list(pool)
        if not items:
            return []
        if self.balanced and self.label_of is not None:
            positives = [item for item in items if self.label_of(item)]
            negatives = [item for item in items if not self.label_of(item)]
            rng.shuffle(positives)
            rng.shuffle(negatives)
            half = k // 2
            chosen = positives[:half] + negatives[: k - half]
            if len(chosen) < k:
                leftovers = positives[half:] + negatives[k - half :]
                rng.shuffle(leftovers)
                chosen += leftovers[: k - len(chosen)]
            rng.shuffle(chosen)
            return chosen
        rng.shuffle(items)
        return items[:k]


class ManualCurator(DemonstrationSelector):
    """Greedy validation-guided curation.

    ``evaluate`` receives a candidate demonstration list and returns a
    validation score (higher is better); the runner wires it to an actual
    model evaluation on a validation sample.  ``pool_cap`` bounds how many
    candidates a "human hour" can examine.

    A step keeps a candidate only if its score is strictly greater than
    the step's best so far, and :data:`SCORE_FLOOR` holds that best while
    the candidate is evaluated.  This is the pruning contract: once a
    candidate provably cannot score above the floor, ``evaluate`` may
    stop and return any value ``<=`` the floor, because such a candidate
    could never have been picked.  The chosen list is then the same as
    with full scores.  The engine's validation scorer does this for
    metrics that never fall when a wrong prediction is made right (see
    :func:`repro.core.tasks.engine.make_validation_scorer`); a plain
    callable that ignores the floor keeps full scoring.
    """

    def __init__(
        self,
        evaluate: Callable[[list], float],
        pool_cap: int = 24,
        seed: int = 0,
        label_of: Callable[[object], bool] | None = None,
    ):
        self.evaluate = evaluate
        self.pool_cap = pool_cap
        self.seed = seed
        self.label_of = label_of
        self.trace: list[tuple[int, float]] = []

    def _candidate_pool(self, pool: Sequence) -> list:
        """A label-balanced, size-capped working set of candidates."""
        rng = random.Random(self.seed)
        items = list(pool)
        rng.shuffle(items)
        if self.label_of is None:
            return items[: self.pool_cap]
        positives = [item for item in items if self.label_of(item)]
        negatives = [item for item in items if not self.label_of(item)]
        half = self.pool_cap // 2
        return positives[:half] + negatives[: self.pool_cap - half]

    def _step_candidates(self, candidates: list, chosen: list) -> list:
        """Candidates that keep the demonstration set class-balanced.

        Curated prompts show the model both kinds of answer; a human never
        stacks nine "Yes" examples against one "No".
        """
        if self.label_of is None:
            return candidates
        n_positive = sum(1 for item in chosen if self.label_of(item))
        n_negative = len(chosen) - n_positive
        if n_positive > n_negative:
            preferred = [c for c in candidates if not self.label_of(c)]
        elif n_negative > n_positive:
            preferred = [c for c in candidates if self.label_of(c)]
        else:
            return candidates
        return preferred or candidates

    def select(self, pool: Sequence, k: int) -> list:
        if k <= 0:
            return []
        candidates = self._candidate_pool(pool)
        chosen: list = []
        best_score = self.evaluate(chosen)
        self.trace = [(0, best_score)]
        while len(chosen) < k and candidates:
            step_best = None
            step_score = -1.0
            for candidate in self._step_candidates(candidates, chosen):
                token = SCORE_FLOOR.set(step_score)
                try:
                    score = self.evaluate(chosen + [candidate])
                finally:
                    SCORE_FLOOR.reset(token)
                if score > step_score:
                    step_score = score
                    step_best = candidate
            if step_best is None:
                break
            chosen.append(step_best)
            candidates.remove(step_best)
            best_score = max(best_score, step_score)
            self.trace.append((len(chosen), best_score))
        return chosen
