"""Pinned guarantees of the confidence-routed cost-aware cascade.

The acceptance tests of cheapest-tier-first serving:

* cascade decisions are **byte-identical** at ``workers=1`` and
  ``workers=8``, and across the thread and async executor cores — same
  predictions, same per-tier serving split, same escalation set,
* escalation accounting adds up: every pending example is tried on the
  cheapest tier, escalated examples are charged on every tier they
  touched, and nothing is double-counted,
* ``threshold=0`` serves everything from the cheapest tier while a
  threshold above 1.0 reproduces the primary-only run's predictions
  exactly (the cascade can always be dialed back to the baseline),
* per-task calibration picks per-tier thresholds whose composed
  validation metric stays within the policy's quality budget of the
  primary-only reference,
* the manifest's ``cascade`` block validates against the checked-in
  schema, and with the knob off the run matches the PR 6 shape exactly.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.api import CascadePolicy, CompletionClient
from repro.core.manifest import validate_manifest
from repro.core.tasks import run_task
from repro.datasets import load_dataset

SCHEMA_PATH = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "schemas"
    / "run_manifest.schema.json"
)

MAX_EXAMPLES = 40
THRESHOLD = 0.9  # empirically mid-range for walmart_amazon's cheap tier


@pytest.fixture(scope="module")
def walmart():
    return load_dataset("walmart_amazon")


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _run(dataset, workers=1, cascade=True, threshold=THRESHOLD, **kwargs):
    if cascade and not isinstance(cascade, CascadePolicy):
        cascade = CascadePolicy(threshold=threshold)
    return run_task(
        "em", "gpt3-175b", dataset, k=4, selection="random",
        max_examples=MAX_EXAMPLES, workers=workers,
        cascade=cascade or None, **kwargs,
    )


class TestCascadePolicy:
    def test_parse_tier_string(self):
        policy = CascadePolicy.parse("gpt3-1.3b,gpt3-6.7b", threshold=0.7)
        assert policy.tiers == ("gpt3-1.3b", "gpt3-6.7b")
        assert policy.threshold == 0.7

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CascadePolicy(tiers=())
        with pytest.raises(ValueError):
            CascadePolicy(threshold=2.5)
        with pytest.raises(ValueError):
            CascadePolicy(spread=-0.1)

    def test_should_escalate_is_pure_and_seeded(self):
        policy = CascadePolicy(threshold=0.8, spread=0.2, seed=7)
        draws = [
            policy.effective_threshold("prompt-a", 0.8) for _ in range(3)
        ]
        assert len(set(draws)) == 1  # same prompt, same jitter
        assert policy.effective_threshold(
            "prompt-b", 0.8
        ) != pytest.approx(draws[0])
        assert policy.should_escalate("p", 0.1, 0.8)
        assert not policy.should_escalate("p", 0.99, 0.8)

    def test_unresolved_threshold_raises(self):
        with pytest.raises(ValueError):
            CascadePolicy().should_escalate("p", 0.5)


class TestCascadeDeterminism:
    def test_workers_1_vs_8_byte_identical(self, walmart):
        serial = _run(walmart, workers=1)
        fanned = _run(walmart, workers=8)
        assert serial.predictions == fanned.predictions
        assert serial.metric == fanned.metric
        casc_serial = serial.manifest.cascade
        casc_fanned = fanned.manifest.cascade
        assert casc_serial["served_by_tier"] == casc_fanned["served_by_tier"]
        assert casc_serial["escalated"] == casc_fanned["escalated"]
        assert (
            casc_serial["backend_calls_by_tier"]
            == casc_fanned["backend_calls_by_tier"]
        )

    def test_thread_vs_async_executor_identical(self, walmart):
        threaded = _run(walmart, workers=4, executor="thread")
        asynced = _run(walmart, workers=4, executor="async")
        assert threaded.predictions == asynced.predictions
        assert (
            threaded.manifest.cascade["served_by_tier"]
            == asynced.manifest.cascade["served_by_tier"]
        )
        assert (
            threaded.manifest.cascade["escalated"]
            == asynced.manifest.cascade["escalated"]
        )

    def test_escalation_is_mid_range_at_pinned_threshold(self, walmart):
        run = _run(walmart, workers=4)
        cascade = run.manifest.cascade
        assert 0 < cascade["escalated"] < MAX_EXAMPLES
        assert 0.0 < cascade["escalation_rate"] < 1.0


class TestEscalationAccounting:
    def test_backend_calls_add_up(self, walmart):
        run = _run(walmart, workers=4)
        cascade = run.manifest.cascade
        calls = cascade["backend_calls_by_tier"]
        served = cascade["served_by_tier"]
        tiers = cascade["tiers"]
        # Every pending example is tried on the cheapest tier exactly once.
        assert calls[tiers[0]] == MAX_EXAMPLES
        # Each tier serves at most what it was asked; calls at tier i+1
        # equal the examples tier i escalated (charged on both tiers,
        # never double-counted within one tier).
        for depth in range(1, len(tiers)):
            expected = calls[tiers[depth - 1]] - served[tiers[depth - 1]]
            assert calls[tiers[depth]] == expected
        assert sum(served.values()) == MAX_EXAMPLES
        assert cascade["escalated"] == MAX_EXAMPLES - served[tiers[0]]

    def test_escalated_examples_charged_on_every_tier_touched(self, walmart):
        client = CompletionClient("gpt3-175b")
        run = run_task(
            "em", client, walmart, k=4, selection="random",
            max_examples=MAX_EXAMPLES, workers=4,
            cascade=CascadePolicy(threshold=THRESHOLD),
        )
        cascade = run.manifest.cascade
        usage = run.manifest.usage
        for tier, calls in cascade["backend_calls_by_tier"].items():
            if calls:
                assert usage[tier]["n_requests"] >= calls


    def test_manifest_backend_calls_count_every_tier(self, monkeypatch):
        from repro.fm.engine import SimulatedFoundationModel

        seam = []
        complete = SimulatedFoundationModel.complete

        def counted(model, *args, **kwargs):
            seam.append(model.name)
            return complete(model, *args, **kwargs)

        monkeypatch.setattr(SimulatedFoundationModel, "complete", counted)
        run = run_task(
            "em", CompletionClient("gpt3-175b"), load_dataset("beer"),
            selection="random", cascade=True,
        )
        assert len(set(seam)) == 3
        assert run.manifest.cache["backend_calls"] == len(seam)
        assert run.manifest.cache["entries"] == len(seam)


class TestThresholdExtremes:
    def test_zero_threshold_serves_everything_from_cheapest(self, walmart):
        run = _run(walmart, threshold=0.0)
        cascade = run.manifest.cascade
        assert cascade["served_by_tier"]["gpt3-1.3b"] == MAX_EXAMPLES
        assert cascade["escalated"] == 0
        assert cascade["escalation_rate"] == 0.0

    def test_above_one_threshold_reproduces_primary_only_run(self, walmart):
        baseline = run_task(
            "em", "gpt3-175b", walmart, k=4, selection="random",
            max_examples=MAX_EXAMPLES, workers=4,
        )
        escalate_all = _run(walmart, threshold=1.5)
        assert escalate_all.predictions == baseline.predictions
        assert escalate_all.metric == baseline.metric
        cascade = escalate_all.manifest.cascade
        assert cascade["served_by_tier"]["gpt3-175b"] == MAX_EXAMPLES
        assert cascade["escalation_rate"] == 1.0


class TestCalibration:
    def test_calibrated_run_reports_reference_and_stays_in_budget(
        self, walmart
    ):
        run = _run(walmart, cascade=CascadePolicy(max_quality_loss=0.01))
        cascade = run.manifest.cascade
        assert cascade["calibrated"] is True
        assert cascade["threshold"] is None  # no fixed knob was given
        assert len(cascade["thresholds"]) == len(cascade["tiers"]) - 1
        assert all(
            0.0 <= value <= 2.0 for value in cascade["thresholds"]
        )
        assert cascade["reference_metric"] is not None
        assert cascade["validation_metric"] is not None
        assert (
            cascade["validation_metric"]
            >= cascade["reference_metric"] - 0.01 - 1e-9
        )
        assert "calibration" in run.manifest.phases

    def test_fixed_threshold_skips_calibration(self, walmart):
        run = _run(walmart)
        assert run.manifest.cascade["calibrated"] is False
        assert "calibration" not in run.manifest.phases


class TestManifestAndGuards:
    def test_cascade_block_validates_against_schema(self, walmart, schema):
        run = _run(walmart, workers=4)
        assert validate_manifest(run.manifest.to_dict(), schema) == []

    def test_cost_estimates_present_and_cheaper_than_baseline(self, walmart):
        run = run_task(
            "em", CompletionClient("gpt3-175b"), walmart, k=4,
            selection="random", max_examples=MAX_EXAMPLES, workers=4,
            cascade=CascadePolicy(threshold=THRESHOLD),
        )
        cascade = run.manifest.cascade
        assert cascade["est_baseline_cost_usd"] > 0.0
        assert 0.0 < cascade["est_cost_usd"] < cascade["est_baseline_cost_usd"]
        assert 0.0 < cascade["est_savings_rate"] < 1.0

    def test_cascade_rejects_checkpoint_resume(self, walmart, tmp_path):
        with pytest.raises(ValueError, match="checkpoint"):
            _run(walmart, checkpoint=tmp_path / "journal.jsonl")

    def test_defaults_off_matches_pr6_shape(self, walmart):
        run = run_task(
            "em", "gpt3-175b", walmart, k=4, selection="random",
            max_examples=MAX_EXAMPLES, workers=4,
        )
        assert run.manifest.cascade is None
        assert "calibration" not in run.manifest.phases
        assert run.manifest.served_by_tier is None
