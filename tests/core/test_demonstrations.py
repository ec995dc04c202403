"""Tests for repro.core.demonstrations."""

from repro.core.demonstrations import SCORE_FLOOR, ManualCurator, RandomSelector


POOL = [("pos", i) if i % 4 == 0 else ("neg", i) for i in range(40)]


def _label(item):
    return item[0] == "pos"


class TestRandomSelector:
    def test_selects_k(self):
        assert len(RandomSelector(seed=0).select(POOL, 10)) == 10

    def test_k_zero(self):
        assert RandomSelector().select(POOL, 0) == []

    def test_empty_pool(self):
        assert RandomSelector().select([], 5) == []

    def test_deterministic_per_seed(self):
        assert RandomSelector(seed=3).select(POOL, 8) == RandomSelector(seed=3).select(POOL, 8)

    def test_seeds_differ(self):
        assert RandomSelector(seed=1).select(POOL, 8) != RandomSelector(seed=2).select(POOL, 8)

    def test_no_duplicates(self):
        chosen = RandomSelector(seed=0).select(POOL, 15)
        assert len(set(chosen)) == 15

    def test_balanced_mode(self):
        selector = RandomSelector(seed=0, balanced=True, label_of=_label)
        chosen = selector.select(POOL, 10)
        positives = sum(_label(item) for item in chosen)
        assert positives == 5

    def test_balanced_with_scarce_minority(self):
        pool = [("pos", 0)] + [("neg", i) for i in range(1, 20)]
        selector = RandomSelector(seed=0, balanced=True, label_of=_label)
        chosen = selector.select(pool, 6)
        assert len(chosen) == 6
        assert sum(_label(item) for item in chosen) == 1


class TestManualCurator:
    def test_maximizes_supplied_objective(self):
        # Objective: prefer items whose index is small.
        def evaluate(demos):
            if not demos:
                return 0.0
            return 1.0 / (1.0 + sum(item[1] for item in demos) / len(demos))

        curator = ManualCurator(evaluate=evaluate, pool_cap=20, seed=0)
        chosen = curator.select(POOL, 4)
        assert len(chosen) == 4
        mean_index = sum(item[1] for item in chosen) / 4
        assert mean_index < 15  # clearly better than random's ~20

    def test_balance_enforced_with_labels(self):
        curator = ManualCurator(
            evaluate=lambda demos: float(len(demos)),
            pool_cap=24, seed=0, label_of=_label,
        )
        chosen = curator.select(POOL, 10)
        positives = sum(_label(item) for item in chosen)
        assert abs(positives - (len(chosen) - positives)) <= 1

    def test_trace_recorded(self):
        curator = ManualCurator(evaluate=lambda demos: float(len(demos)), seed=0)
        curator.select(POOL, 3)
        assert curator.trace[0] == (0, 0.0)
        assert curator.trace[-1][0] == 3

    def test_k_zero(self):
        curator = ManualCurator(evaluate=lambda demos: 0.0)
        assert curator.select(POOL, 0) == []

    def test_pool_cap_limits_candidates(self):
        examined = set()

        def evaluate(demos):
            examined.update(demos)
            return 0.0

        ManualCurator(evaluate=evaluate, pool_cap=6, seed=0).select(POOL, 2)
        assert len(examined) <= 6

    def test_score_floor_is_the_step_best_so_far(self):
        seen = []

        def evaluate(demos):
            seen.append((len(demos), SCORE_FLOOR.get()))
            return float(sum(item[1] for item in demos) % 7)

        ManualCurator(evaluate=evaluate, pool_cap=6, seed=0).select(POOL, 2)
        assert seen[0] == (0, None)  # the empty list is scored unfloored
        for size in (1, 2):
            floors = [floor for n, floor in seen if n == size]
            assert floors[0] == -1.0
            assert floors == sorted(floors)
        assert SCORE_FLOOR.get() is None
