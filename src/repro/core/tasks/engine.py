"""The generic task-execution engine.

One pipeline serves all registered tasks: resolve the spec, select
demonstrations, build prompts, fan completions across the batch layer,
parse, score.  The per-task modules reduce to declarative
:class:`~repro.core.tasks.spec.TaskSpec` definitions plus thin wrappers
(``run_entity_matching`` & co.) that delegate here.

Every run is instrumented: phase wall-clock (selection / prompting /
completion / scoring), request outcomes, cache hit rate, and token/cost
totals are assembled into a :class:`~repro.core.manifest.RunManifest`
attached to the returned :class:`~repro.core.tasks.common.TaskRun`.
String model names resolve to a :class:`~repro.api.client.CompletionClient`
(wrapping the simulator) so accounting and the process-default prompt
cache — the CLI's ``--cache PATH`` — apply without any per-task plumbing.

``run_task(..., trace=True)`` additionally attaches one
:class:`~repro.core.tasks.common.ExampleRecord` per evaluated example —
prompt, response, prediction, label and the request latency pulled from
the executor's :class:`~repro.api.usage.UsageTracker` request log.

Resilience (PR 4):

* ``run_task(on_error="quarantine")`` degrades gracefully instead of
  aborting — an example whose completion permanently fails (retries
  exhausted, circuit open) or whose response is malformed/unparseable is
  set aside as a :class:`~repro.core.tasks.common.QuarantineRecord`,
  scoring proceeds over the survivors, and the run reports ``degraded``
  plus a ``coverage`` fraction.
* ``run_task(checkpoint=path)`` journals each completed example to an
  append-only JSONL file (:mod:`repro.core.checkpoint`); re-running the
  same resolved config resumes, skipping journaled examples with zero
  duplicate backend calls.
* ``run_task(fault_plan=...)`` (or a process-default installed by
  ``repro ... --chaos``) attaches a deterministic
  :class:`~repro.api.faults.FaultPlan` to the underlying client, and the
  manifest grows a ``faults`` section with injection tallies.

Service-level resilience (PR 5, see :mod:`repro.api.resilience`):

* ``run_task(deadline=...)`` bounds the run by a wall budget propagated
  into the executor and client; expiry fails fast with
  :class:`~repro.api.retry.DeadlineExceededError` and the manifest
  reports an ``slo`` block.
* ``run_task(hedge=...)`` races backup completions against stragglers
  (first success wins, budgets charged once); the manifest reports a
  ``hedges`` block.
* ``run_task(admission=...)`` (or ``budget=...``, which builds a
  controller) sheds work before it burns budget; shed examples surface
  as ``stage="admission"`` quarantines and a ``shed`` manifest block.
* ``run_task(fallback=...)`` serves would-be quarantined or shed
  examples from cheaper model tiers — the paper's own 175B→6.7B→1.3B
  ladder — restoring ``coverage == 1.0`` with an explicit
  ``served_by_tier`` breakdown.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.demonstrations import (
    SCORE_FLOOR,
    DemonstrationSelector,
    ManualCurator,
    RandomSelector,
)
from repro.core.manifest import RunManifest, jsonable
from repro.core.tasks.common import (
    ExampleRecord,
    QuarantineRecord,
    TaskRun,
    subsample,
)
from repro.core.tasks.prefix import (
    PromptPrefixCache,
    get_default_prefix_cache,
    prefix_key,
)
from repro.core.tasks.spec import TaskSpec, get_task

# Process-wide error-handling default.  ``repro ... --chaos`` flips this
# to "quarantine" so every evaluation underneath a bench sweep degrades
# gracefully — same ambient-default pattern as workers / cache / faults.
_DEFAULT_ON_ERROR = "raise"
_DEFAULT_ON_ERROR_LOCK = threading.Lock()

# Process-wide checkpoint directory.  ``repro bench --checkpoint-dir``
# sets it; every run_task underneath then journals to an auto-named file
# in that directory, making whole sweeps resumable.
_DEFAULT_CHECKPOINT_DIR: str | None = None
_DEFAULT_CHECKPOINT_DIR_LOCK = threading.Lock()


def set_default_on_error(mode: str) -> None:
    """Set the process-wide ``on_error`` default ("raise"/"quarantine")."""
    global _DEFAULT_ON_ERROR
    if mode not in ("raise", "quarantine"):
        raise ValueError(
            f'on_error must be "raise" or "quarantine", got {mode!r}'
        )
    with _DEFAULT_ON_ERROR_LOCK:
        _DEFAULT_ON_ERROR = mode


def get_default_on_error() -> str:
    with _DEFAULT_ON_ERROR_LOCK:
        return _DEFAULT_ON_ERROR


def set_default_checkpoint_dir(path: str | None) -> None:
    """Install (or with ``None``, clear) the default checkpoint directory."""
    global _DEFAULT_CHECKPOINT_DIR
    with _DEFAULT_CHECKPOINT_DIR_LOCK:
        _DEFAULT_CHECKPOINT_DIR = path


def get_default_checkpoint_dir() -> str | None:
    with _DEFAULT_CHECKPOINT_DIR_LOCK:
        return _DEFAULT_CHECKPOINT_DIR


def _resolve_on_error(on_error: str | None) -> str:
    if on_error is None:
        return get_default_on_error()
    if on_error not in ("raise", "quarantine"):
        raise ValueError(
            f'on_error must be "raise" or "quarantine", got {on_error!r}'
        )
    return on_error


def _complete(
    model,
    prompts: list[str],
    workers: int | None,
    tracker=None,
    retry_policy=None,
    on_error: str = "raise",
    breaker=None,
) -> list:
    """Fan ``prompts`` across an executor; maybe scatter failures.

    In quarantine mode the returned list may contain
    :class:`~repro.api.batch.BatchFailure` placeholders in the slots of
    permanently-failed prompts; callers turn those into quarantines.
    """
    from repro.api.batch import make_executor

    executor = make_executor(
        workers=workers, usage=tracker, policy=retry_policy, breaker=breaker
    )
    map_mode = "return" if on_error == "quarantine" else "raise"
    return executor.map(model.complete, prompts, on_error=map_mode)


def _resolve_model(model, fault_plan=None):
    """Model objects pass through; names become accounted clients.

    A :class:`~repro.api.client.CompletionClient` adds caching (the
    process-default cache if ``--cache`` installed one, else a private
    in-memory one) and usage accounting without changing any completion:
    at temperature 0 the wrapped simulator returns exactly what the bare
    simulator would.  Non-client model *objects* are wrapped only when a
    default cache is installed — a bench module's bare simulator then
    shares the sweep's persistent cache too — or when a fault plan must
    be injected (the plan hooks live on the client).
    """
    from repro.api.cache import get_default_cache
    from repro.api.client import CompletionClient

    if isinstance(model, str):
        return CompletionClient(
            model, cache=get_default_cache(), fault_plan=fault_plan
        )
    if isinstance(model, CompletionClient):
        if fault_plan is not None and model.fault_plan is None:
            model.fault_plan = fault_plan
        return model
    default_cache = get_default_cache()
    if (fault_plan is not None or default_cache is not None) and hasattr(
        model, "complete"
    ):
        return CompletionClient(
            model, cache=default_cache, fault_plan=fault_plan
        )
    return model


def _parse_checked(spec: TaskSpec, response):
    """Parse one response, normalizing malformation into ``ParseError``.

    Quarantine-mode only: responses are validated the way a production
    harness checks body shape before parsing (empty, non-text, garbage
    bytes → typed error, not an ``IndexError`` three frames deep), and a
    parser that still chokes has its untyped exception wrapped.
    """
    from repro.api.faults import malformed_reason
    from repro.api.retry import ParseError

    reason = malformed_reason(response)
    if reason is not None:
        raise ParseError(reason)
    try:
        return spec.parse_response(response)
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(
            f"parse_response failed with {type(exc).__name__}: {exc}"
        ) from exc


def _build_prompts(spec: TaskSpec, examples, demonstrations: list,
                   config, k: int = 0) -> list[str]:
    """Prompts for ``examples``, the shared prefix built once."""
    if not spec.supports_prefix:
        return [
            spec.build_prompt(example, demonstrations, config, k)
            for example in examples
        ]
    # No cross-call cache here: validation scoring sweeps many candidate
    # demonstration lists, each used exactly once.
    prefix = spec.build_prefix(demonstrations, config)
    return [prefix + spec.build_suffix(example, config) for example in examples]


def _parse_responses(spec: TaskSpec, responses: list, on_error: str) -> list:
    """Parse ``responses``; in quarantine mode a failed or unparseable
    slot becomes ``None`` instead of raising."""
    from repro.api.batch import BatchFailure
    from repro.api.retry import ParseError

    if on_error != "quarantine":
        return [spec.parse_response(response) for response in responses]
    predictions = []
    for response in responses:
        if isinstance(response, BatchFailure):
            predictions.append(None)
            continue
        try:
            predictions.append(_parse_checked(spec, response))
        except ParseError:
            predictions.append(None)
    return predictions


def predict(
    spec: TaskSpec | str,
    model,
    examples,
    demonstrations: list,
    config,
    k: int = 0,
    workers: int | None = None,
    on_error: str | None = None,
) -> list:
    """Predictions for ``examples`` under ``spec`` (order-preserving).

    Under ``on_error="quarantine"`` a permanently-failed or unparseable
    example yields ``None`` in its slot instead of raising; callers
    (validation scorers) drop those slots before scoring.
    """
    spec = get_task(spec)
    on_error = _resolve_on_error(on_error)
    prompts = _build_prompts(spec, examples, demonstrations, config, k)
    responses = _complete(model, prompts, workers, on_error=on_error)
    return _parse_responses(spec, responses, on_error)


#: Validation examples scored between two checks of a curation
#: candidate's upper bound (see :func:`make_validation_scorer`).
VALIDATION_CHUNK = 8

#: Metrics that never fall when a wrong prediction is made right, so a
#: partial score with every unscored slot counted correct bounds the
#: final score from above.
_MONOTONE_METRICS = frozenset({"f1", "accuracy"})


def make_validation_scorer(
    spec: TaskSpec | str,
    model,
    dataset,
    config,
    max_validation: int | None = None,
    on_error: str | None = None,
):
    """Score a candidate demonstration list on a validation sample.

    The sample and cap come from the spec (error detection enriches its
    sample with positives; the rest take the head of the validation
    split), and the score is the spec's own metric — so manual curation
    optimizes exactly what the task reports.  In quarantine mode,
    examples that failed (``None`` predictions) are dropped from the
    score rather than poisoning the curation signal.

    Inside :meth:`~repro.core.demonstrations.ManualCurator.select`, which
    sets :data:`~repro.core.demonstrations.SCORE_FLOOR` to the score a
    candidate must beat, a spec whose metric is F1 or accuracy is scored
    in chunks of :data:`VALIDATION_CHUNK` examples.  Before each chunk
    (the first included) the upper bound is the spec's own ``score``
    over the predictions so far with every unscored slot filled by its
    label; once that bound is ``<=`` the floor the candidate cannot win,
    and the bound is returned without completing the rest.

    The bound is exact.  Each wrong slot strictly lowers F1 (unless it
    is already 0.0) and accuracy, and a slot dropped under quarantine is
    never worth more than a correct one, so every completion of the
    unscored slots scores at most the bound.  An equal real score means
    equal confusion counts and so an equal float, and distinct scores
    over a few dozen examples differ by far more than float rounding, so
    ``bound <= floor`` as floats implies the true score is ``<= floor``,
    ties included.  The metric must be monotone in this sense for the
    argument to hold, which is why pruning is keyed to the metric.
    Without a floor (any other caller, such as cascade calibration) the
    whole sample is scored in one fan-out.
    """
    spec = get_task(spec)
    on_error = _resolve_on_error(on_error)
    if max_validation is None:
        max_validation = spec.max_validation
    validation = spec.validation_examples(dataset, max_validation)
    labels = [spec.label_of(example) for example in validation]
    prunable = spec.metric_name in _MONOTONE_METRICS

    def score_of(predictions: list) -> float:
        if on_error == "quarantine":
            kept = [
                (prediction, label, example)
                for prediction, label, example in zip(
                    predictions, labels, validation
                )
                if prediction is not None
            ]
            if not kept:
                return 0.0
            predictions = [item[0] for item in kept]
            kept_labels = [item[1] for item in kept]
            kept_examples = [item[2] for item in kept]
            metric, _details = spec.score(
                predictions, kept_labels, kept_examples
            )
            return metric
        metric, _details = spec.score(predictions, labels, validation)
        return metric

    def evaluate(demonstrations: list) -> float:
        floor = SCORE_FLOOR.get() if prunable else None
        prompts = _build_prompts(spec, validation, demonstrations, config)
        step = VALIDATION_CHUNK if floor is not None else max(1, len(prompts))
        predictions: list = []
        for start in range(0, len(prompts), step):
            if floor is not None:
                bound = score_of(predictions + labels[start:])
                if bound <= floor:
                    return bound
            responses = _complete(
                model, prompts[start:start + step], None, on_error=on_error
            )
            predictions += _parse_responses(spec, responses, on_error)
        return score_of(predictions)

    return evaluate


def select_demonstrations(
    spec: TaskSpec | str,
    model,
    dataset,
    k: int,
    config=None,
    selection: str | DemonstrationSelector = "manual",
    seed: int = 0,
    on_error: str | None = None,
) -> list:
    """Pick ``k`` demonstrations by name ("manual"/"random") or selector."""
    spec = get_task(spec)
    if k <= 0 or not spec.supports_selection:
        return []
    if config is None:
        config = spec.default_config(dataset)
    if isinstance(selection, DemonstrationSelector):
        return selection.select(dataset.train, k)
    if selection == "random":
        selector = RandomSelector(seed=seed)
    elif selection == "manual":
        selector = ManualCurator(
            evaluate=make_validation_scorer(
                spec, model, dataset, config, on_error=on_error
            ),
            seed=seed,
            label_of=spec.curation_label_of,
        )
    else:
        raise ValueError(f"unknown selection strategy {selection!r}")
    return selector.select(dataset.train, k)


def _selection_name(selection) -> str:
    if isinstance(selection, DemonstrationSelector):
        return type(selection).__name__
    return str(selection)


def _build_manifest(
    spec,
    dataset,
    model,
    *,
    k: int,
    selection,
    split: str,
    seed: int,
    workers: int | None,
    n_examples: int,
    metric: float,
    phases: dict[str, float],
    wall_clock_s: float,
    tracker,
    usage_before,
    config,
    quarantine: list | None = None,
    degraded: bool = False,
    coverage: float = 1.0,
    faults: dict | None = None,
    slo: dict | None = None,
    hedges: dict | None = None,
    shed: dict | None = None,
    served_by_tier: dict | None = None,
    prefix_cache: dict | None = None,
    cascade: dict | None = None,
    tier_clients: list = (),
) -> RunManifest:
    from repro.api.batch import resolve_workers
    from repro.api.client import CompletionClient
    from repro.api.usage import usage_delta

    usage_section: dict[str, dict] = {}
    cache_section = None
    cost_usd = 0.0
    unknown_price = False
    if isinstance(model, CompletionClient) and usage_before is not None:
        delta = usage_delta(usage_before, model.usage.snapshot())
        hits = sum(usage.n_cache_hits for usage in delta.values())
        lookups = sum(usage.n_requests for usage in delta.values())
        for name, usage in sorted(delta.items()):
            usage_section[name] = {
                "n_requests": usage.n_requests,
                "n_cache_hits": usage.n_cache_hits,
                "prompt_tokens": usage.prompt_tokens,
                "completion_tokens": usage.completion_tokens,
                "total_tokens": usage.total_tokens,
                "cost_usd": usage.cost_usd,
                "unknown_price": not usage.known_price,
            }
            cost_usd += usage.cost_usd
            unknown_price = unknown_price or not usage.known_price
        # Every client that reached a backend: the primary and, under a
        # cascade, each cheap tier's own client.
        clients = {id(client): client for client in (model, *tier_clients)}
        cache_section = {
            "hits": hits,
            "lookups": lookups,
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "entries": len(model.cache),
            "backend_calls": sum(
                client.stats["backend_calls"] for client in clients.values()
                if isinstance(client, CompletionClient)
            ),
        }

    # A model resolved to a failover equivalence group reports its
    # routing telemetry (FailoverBackend.failover_stats) in the manifest.
    failover_section = None
    backend = getattr(model, "backend", None)
    stats_of = getattr(backend, "failover_stats", None)
    if callable(stats_of):
        failover_section = stats_of()

    return RunManifest(
        task=spec.name,
        dataset=dataset.name,
        model=getattr(model, "name", type(model).__name__),
        k=k,
        selection=_selection_name(selection),
        split=split,
        seed=seed,
        workers=resolve_workers(workers),
        n_examples=n_examples,
        metric_name=spec.metric_name,
        metric=metric,
        phases=dict(phases),
        wall_clock_s=wall_clock_s,
        requests=tracker.latency_summary(),
        cache=cache_section,
        usage=usage_section,
        cost_usd=cost_usd,
        unknown_price=unknown_price,
        config=jsonable(config),
        quarantine=[record.to_dict() for record in (quarantine or [])],
        degraded=degraded,
        coverage=coverage,
        faults=faults,
        slo=slo,
        hedges=hedges,
        shed=shed,
        served_by_tier=served_by_tier,
        prefix_cache=prefix_cache,
        cascade=cascade,
        failover=failover_section,
    )


def _open_checkpoint(
    checkpoint, spec, dataset, model, *,
    k, selection, split, seed, max_examples, config, fault_plan,
):
    """Resolve the checkpoint path (explicit or ambient) and open it."""
    from repro.core.checkpoint import RunCheckpoint, run_fingerprint

    payload = {
        "task": spec.name,
        "dataset": dataset.name,
        "model": getattr(model, "name", type(model).__name__),
        "k": k,
        "selection": _selection_name(selection),
        "split": split,
        "seed": seed,
        "max_examples": max_examples,
        "config": jsonable(config),
        "faults": fault_plan.describe() if fault_plan is not None else None,
    }
    fingerprint = run_fingerprint(payload)
    if checkpoint is None:
        default_dir = get_default_checkpoint_dir()
        if default_dir is None:
            return None
        checkpoint = os.path.join(
            default_dir,
            f"{spec.name}_{dataset.name}_{fingerprint[:12]}.jsonl",
        )
    return RunCheckpoint(checkpoint, fingerprint, meta=payload)


def _price_per_1k(name: str) -> float | None:
    """USD per 1k tokens for ``name``: registry metadata, then price table."""
    from repro.api.backends import backend_info
    from repro.api.usage import PRICE_PER_1K_TOKENS

    try:
        return backend_info(name).price_per_1k_tokens
    except KeyError:
        return PRICE_PER_1K_TOKENS.get(name)


def _resolve_cascade(cascade):
    """Normalize the ``cascade`` knob into a :class:`CascadePolicy`.

    Accepts the CLI forms — ``True`` (default cheap-tier ladder), a
    comma-separated tier string, a list of tier names — or a ready
    :class:`~repro.api.resilience.CascadePolicy`.
    """
    from repro.api.resilience import CascadePolicy

    if cascade is None or cascade is False:
        return None
    if isinstance(cascade, CascadePolicy):
        return cascade
    if cascade is True:
        return CascadePolicy()
    if isinstance(cascade, str):
        return CascadePolicy.parse(cascade)
    return CascadePolicy(cascade)


def calibrate_cascade_threshold(
    spec: TaskSpec | str,
    policy,
    model,
    dataset,
    config,
    demonstrations: list,
    k: int = 0,
    on_error: str | None = None,
) -> dict:
    """Pick per-tier escalation thresholds that preserve quality.

    Per-task calibration on the validation split, one threshold per
    cheap tier, greedy from the cheapest rung up.  A tier's threshold is
    the smallest candidate whose accepted predictions *never disagree
    with the primary model's own predictions* on validation — fidelity
    to the tier being substituted, not merely metric parity, because a
    cheap tier can match the reference metric on validation while
    flipping a different (and on the test split, costlier) set of
    examples, and on class-imbalanced metrics like EM's F1 even one
    tolerated flip per hundred validation examples compounds into
    multi-point test losses.  Candidates are the observed confidences of
    the examples that reach the tier (each nudged up one ulp, so
    "escalate everything up to and including confidence c" is
    expressible); a tier that still flips at its highest confidence is
    pruned outright (threshold 2.0 — serving then skips its probe
    entirely), which is how a dataset with an untrustworthy 1.3B rung
    can still serve from a trustworthy 6.7B rung.

    As a backstop, the composed cascade's validation metric must stay
    within ``max_quality_loss`` of the *reference* — the primary model's
    validation metric computed by the exact :func:`make_validation_scorer`
    manual curation uses; otherwise every tier is pruned and the cascade
    degenerates to a plain primary-only run (quality and serving cost
    both), never silently below the quality bar.

    Pure given its inputs (temperature-0 completions and confidences are
    pure functions of the prompt), so calibrated runs stay deterministic.
    """
    import math
    import sys

    from repro.api.client import CompletionClient
    from repro.api.retry import ParseError

    spec = get_task(spec)
    on_error = _resolve_on_error(on_error)
    primary_name = getattr(model, "name", type(model).__name__)
    cheap_tiers = [
        index for index in range(len(policy.tiers))
        if policy.tier_name(index) != primary_name
    ]
    # The whole validation split by default: a cheap tier may end up
    # serving most of the traffic, so its zero-disagreement certificate
    # wants every held-out example — not manual curation's small sample.
    max_validation = (
        policy.calibration_examples
        if policy.calibration_examples is not None
        else sys.maxsize
    )
    validation = spec.validation_examples(dataset, max_validation)
    if not validation:
        return {
            "thresholds": [0.0] * len(cheap_tiers),
            "reference_metric": None,
            "validation_metric": None,
        }
    labels = [spec.label_of(example) for example in validation]
    prompts = [
        spec.build_prompt(example, demonstrations, config, k)
        for example in validation
    ]
    scorer = make_validation_scorer(
        spec, model, dataset, config, max_validation=max_validation,
        on_error=on_error,
    )
    reference = scorer(demonstrations)
    top_predictions = predict(
        spec, model, validation, demonstrations, config, k=k,
        on_error=on_error,
    )
    shared_usage = model.usage if isinstance(model, CompletionClient) else None
    shared_cache = model.cache if isinstance(model, CompletionClient) else None
    escalate_all = 2.0  # above any confidence: the tier is pruned

    def metric_of(predictions: list) -> float:
        kept = [
            (prediction, label, example)
            for prediction, label, example in zip(
                predictions, labels, validation
            )
            if prediction is not None
        ]
        if not kept:
            return 0.0
        metric, _details = spec.score(
            [item[0] for item in kept],
            [item[1] for item in kept],
            [item[2] for item in kept],
        )
        return metric

    thresholds: list[float] = []
    composed = list(top_predictions)
    remaining = list(range(len(validation)))
    for tier_index in cheap_tiers:
        if not remaining:
            thresholds.append(escalate_all)
            continue
        client = policy.resolve(
            tier_index, usage=shared_usage, cache=shared_cache
        )
        scored: dict[int, tuple[object, float]] = {}
        for position in remaining:
            completion = client.complete_verbose(prompts[position])
            try:
                parsed = _parse_checked(spec, completion.text)
            except ParseError:
                parsed = None  # the serving path escalates these too
            scored[position] = (parsed, completion.confidence)

        def accepted_at(threshold: float) -> list[int]:
            return [
                position for position in remaining
                if scored[position][0] is not None
                and not policy.should_escalate(
                    prompts[position], scored[position][1], threshold
                )
            ]

        # The escalation floor: one ulp above the tier's most confident
        # disagreement, then pushed halfway toward certainty.  The
        # *disagreement rate* at a given confidence transfers from
        # validation to test; the direction of any one disagreement
        # (tier right, primary wrong — or the reverse) is sampling luck,
        # so tolerating "helpful" flips would launder coin flips into
        # the certificate — and stopping one ulp above the worst flip
        # would accept the test flips sitting just past it, so the
        # guard demands the tier be at least half again closer to
        # certain than it ever was while wrong.
        flip_confidences = [
            scored[position][1] for position in remaining
            if scored[position][0] is not None
            and scored[position][0] != top_predictions[position]
        ]
        floor = 0.0
        if flip_confidences:
            worst = max(flip_confidences)
            floor = math.nextafter(worst + 0.5 * (1.0 - worst), 2.0)
        candidates = sorted(
            {
                math.nextafter(confidence, 2.0)
                for _parsed, confidence in scored.values()
            }
        )
        chosen = escalate_all
        for candidate in [floor, *candidates]:
            if candidate < floor:
                continue
            accepted = accepted_at(candidate)
            flips = sum(
                1 for position in accepted
                if scored[position][0] != top_predictions[position]
            )
            # Zero flips over a non-empty accepted set; an empty
            # accepted set is no certificate at all — such a threshold
            # would extrapolate to confidences the split never
            # exhibited.
            if accepted and flips == 0:
                chosen = candidate
                break
        thresholds.append(chosen)
        accepted = accepted_at(chosen)
        for position in accepted:
            composed[position] = scored[position][0]
        taken = set(accepted)
        remaining = [
            position for position in remaining if position not in taken
        ]

    validation_metric = metric_of(composed)
    if validation_metric < reference - policy.max_quality_loss:
        thresholds = [escalate_all] * len(thresholds)
        validation_metric = metric_of(list(top_predictions))
    return {
        "thresholds": thresholds,
        "reference_metric": reference,
        "validation_metric": validation_metric,
    }


def _serve_cascade(
    policy,
    thresholds,
    spec,
    model,
    prompts: list[str],
    pending: list[int],
    *,
    executor,
    workers,
    tracker,
    retry_policy,
    breaker,
    deadline,
    admission,
    priority,
    budget,
    on_error: str,
    quarantine: dict,
    suffixes: list[str] | None = None,
    prefix_tokens: int | None = None,
):
    """Serve ``pending`` prompts cheapest-tier-first with escalation.

    Tier 0 is the primary fan-out (it owns the run's request tracker —
    record indices are positions in ``pending``, which the trace latency
    join relies on — and the admission plan); escalation rounds run on
    fresh executors.  ``thresholds`` is either a single escalation
    threshold shared by every cheap tier or a per-tier sequence aligned
    with the cheap tiers (what calibration produces).  A non-final tier
    keeps an example only when its confidence clears its threshold
    *and* its text parses — otherwise
    the example escalates, so a cheap tier can never inject garbage the
    calibration didn't price in.  The primary model is always the final
    authority: its failures quarantine (or raise) exactly like a
    non-cascade run's.

    When the run uses the split prefix + suffix prompt path,
    ``suffixes``/``prefix_tokens`` carry the PR 6 accounting hints: each
    tier models a separate deployment with its own prefix KV cache, so
    the shared demonstration prefix is charged once per *tier touched*
    and every request is otherwise billed for its suffix alone.

    Returns ``(responses_by_index, cascade_section)``; the caller adds
    the cost fields from usage deltas.
    """
    from repro.api.batch import BatchFailure, make_executor
    from repro.api.client import CompletionClient
    from repro.api.retry import ParseError
    from repro.api.usage import count_tokens

    primary_name = getattr(model, "name", type(model).__name__)
    shared_usage = model.usage if isinstance(model, CompletionClient) else None
    shared_cache = model.cache if isinstance(model, CompletionClient) else None
    chain = [
        (
            policy.tier_name(index),
            policy.resolve(index, usage=shared_usage, cache=shared_cache),
        )
        for index in range(len(policy.tiers))
        if policy.tier_name(index) != primary_name
    ]
    chain.append((primary_name, model))
    if isinstance(thresholds, (int, float)):
        thresholds = [float(thresholds)] * (len(chain) - 1)
    thresholds = list(thresholds)
    if len(thresholds) != len(chain) - 1:
        raise ValueError(
            f"expected {len(chain) - 1} cascade thresholds, "
            f"got {len(thresholds)}"
        )
    responses: dict[int, str] = {}
    served_by: dict[str, int] = {}
    backend_calls: dict[str, int] = {}
    escalated: set[int] = set()
    current = list(pending)
    for depth, (tier_label, tier_model) in enumerate(chain):
        served_by.setdefault(tier_label, 0)
        backend_calls.setdefault(tier_label, 0)
        if not current:
            continue
        final = depth == len(chain) - 1
        if not final and thresholds[depth] - policy.spread / 2.0 > 1.0:
            # Pruned tier (calibration found it untrustworthy): no
            # confidence can clear its threshold, so skip the probe
            # instead of paying for calls that can never be accepted.
            escalated.update(current)
            continue
        calls_before = (
            tier_model.stats["backend_calls"]
            if isinstance(tier_model, CompletionClient)
            else None
        )
        if depth == 0:
            tier_executor = make_executor(
                executor, workers=workers, usage=tracker, policy=retry_policy,
                breaker=breaker, budget=budget, deadline=deadline,
                admission=admission, priority=priority,
            )
        else:
            tier_executor = make_executor(
                executor, workers=workers, policy=retry_policy,
                breaker=breaker, deadline=deadline,
            )

        hinted = suffixes is not None and isinstance(
            tier_model, CompletionClient
        )

        def serve(index: int, tier=tier_model, verbose=not final,
                  hinted=hinted):
            hint = count_tokens(suffixes[index]) if hinted else None
            if verbose:
                if hint is not None:
                    return tier.complete_verbose(
                        prompts[index], prompt_tokens=hint
                    )
                return tier.complete_verbose(prompts[index])
            if hint is not None:
                return tier.complete(prompts[index], prompt_tokens=hint)
            return tier.complete(prompts[index])

        armed = hinted and prefix_tokens is not None
        if armed:
            tier_model.begin_prompt_prefix(prefix_tokens)
        try:
            outcomes = tier_executor.map(serve, current, on_error="return")
        finally:
            if armed:
                tier_model.end_prompt_prefix()
        next_round: list[int] = []
        for position, outcome in enumerate(outcomes):
            index = current[position]
            if isinstance(outcome, BatchFailure):
                shed = outcome.error_type == "Shed"
                if not shed and not final:
                    # A cheap tier's terminal failure is just an
                    # escalation: the pricier tier is the retry.
                    escalated.add(index)
                    next_round.append(index)
                    continue
                if on_error != "quarantine":
                    raise outcome.error
                quarantine[index] = QuarantineRecord(
                    index=index,
                    error_type=outcome.error_type,
                    error=str(outcome.error),
                    attempts=outcome.attempts,
                    stage="admission" if shed else "completion",
                )
                continue
            if final:
                responses[index] = outcome
                served_by[tier_label] += 1
                continue
            accept = not policy.should_escalate(
                prompts[index], outcome.confidence, thresholds[depth]
            )
            if accept:
                try:
                    _parse_checked(spec, outcome.text)
                except ParseError:
                    accept = False
            if accept:
                responses[index] = outcome.text
                served_by[tier_label] += 1
            else:
                escalated.add(index)
                next_round.append(index)
        if calls_before is not None:
            backend_calls[tier_label] = (
                tier_model.stats["backend_calls"] - calls_before
            )
        current = next_round
    section = {
        "tiers": [label for label, _tier in chain],
        "threshold": policy.threshold,
        "thresholds": thresholds,
        "served_by_tier": served_by,
        "escalated": len(escalated),
        "escalation_rate": (len(escalated) / len(pending)) if pending else 0.0,
        "backend_calls_by_tier": backend_calls,
    }
    return responses, section


def _resolve_resilience(deadline, hedge, fallback, admission, budget, breaker):
    """Normalize the service-level knobs into resilience objects.

    Accepts the ergonomic forms the CLI produces — a float deadline in
    seconds, ``hedge=True`` or a float hedge delay, a comma-separated
    fallback string — as well as ready-made objects.  When a shared
    budget (or a breaker worth consulting) is given without an explicit
    controller, an :class:`~repro.api.resilience.AdmissionController` is
    built so shedding engages by default.
    """
    from repro.api.resilience import (
        AdmissionController,
        Deadline,
        FallbackChain,
        HedgePolicy,
    )

    if deadline is not None and not isinstance(deadline, Deadline):
        deadline = Deadline(float(deadline))
    if hedge is False:
        hedge = None
    if hedge is not None and not isinstance(hedge, HedgePolicy):
        hedge = HedgePolicy() if hedge is True else HedgePolicy(
            delay_s=float(hedge)
        )
    if fallback is not None and not isinstance(fallback, FallbackChain):
        if isinstance(fallback, str):
            fallback = FallbackChain.parse(fallback)
        else:
            fallback = FallbackChain(fallback)
    if admission is None and budget is not None:
        admission = AdmissionController(budget=budget, breaker=breaker)
    return deadline, hedge, fallback, admission


def run_task(
    task: str | TaskSpec,
    model,
    dataset,
    k: int | None = None,
    selection: str | DemonstrationSelector = "manual",
    config=None,
    max_examples: int | None = None,
    split: str = "test",
    seed: int = 0,
    workers: int | None = None,
    trace: bool = False,
    retry_policy=None,
    on_error: str | None = None,
    checkpoint=None,
    fault_plan=None,
    breaker=None,
    deadline=None,
    hedge=None,
    admission=None,
    priority: str = "bench",
    fallback=None,
    budget=None,
    executor: str | None = None,
    prefix_cache=None,
    cascade=None,
) -> TaskRun:
    """Evaluate ``model`` on ``dataset`` under the named task's spec.

    ``model`` is anything with a ``complete(prompt) -> str`` method, or a
    model name resolved through the simulator (wrapped in an accounted
    :class:`~repro.api.client.CompletionClient`).  ``k=None`` uses the
    spec's paper default.  ``workers`` fans the test-set prompts across a
    thread pool without changing the predictions; ``retry_policy``
    (a :class:`~repro.api.retry.RetryPolicy`) governs backoff for that
    fan-out; ``trace=True`` attaches per-example
    :class:`~repro.core.tasks.common.ExampleRecord` entries.  The
    returned run always carries a populated
    :class:`~repro.core.manifest.RunManifest` in ``.manifest``.

    Resilience knobs (``None`` inherits the process-wide defaults the
    CLI's chaos flags install):

    * ``on_error="quarantine"`` — permanently-failed or unparseable
      examples are quarantined instead of aborting the run; the metric
      is computed over the survivors and the run reports ``degraded``
      plus ``coverage``.
    * ``checkpoint=path`` — journal per-example completions to an
      append-only JSONL file and resume from it on re-invocation (zero
      duplicate backend calls for journaled examples).
    * ``fault_plan`` — a :class:`~repro.api.faults.FaultPlan` attached
      to the underlying client for deterministic fault injection.
    * ``breaker`` — a :class:`~repro.api.batch.CircuitBreaker` guarding
      the completion fan-out.

    Service-level knobs (consulted deadline → hedge → shed → degrade;
    see DESIGN §4b-iv):

    * ``deadline`` — seconds (or a ready
      :class:`~repro.api.resilience.Deadline`) of wall budget for the
      run; expiry is fatal (fail fast, typed
      :class:`~repro.api.retry.DeadlineExceededError`).
    * ``hedge`` — ``True`` (default policy), a float hedge delay in
      seconds, or a ready :class:`~repro.api.resilience.HedgePolicy`:
      straggling completions get one backup attempt, first success
      wins, budgets/usage charged once.
    * ``admission`` / ``budget`` / ``priority`` — an
      :class:`~repro.api.resilience.AdmissionController` (built
      automatically from a :class:`~repro.api.batch.SharedBudget` when
      only ``budget`` is given) sheds work *before* it burns budget;
      shed examples quarantine with ``stage="admission"`` under
      ``on_error="quarantine"``.
    * ``fallback`` — tier names (``"gpt3-6.7b,gpt3-1.3b"``, a list, or a
      ready :class:`~repro.api.resilience.FallbackChain`): quarantined
      or shed examples are re-served by cheaper tiers before scoring,
      restoring coverage with a ``served_by_tier`` breakdown.

    Serving knobs (PR 6):

    * ``executor`` — ``"thread"`` (the PR 1 pool) or ``"async"`` (the
      continuous-batching :class:`~repro.api.abatch.AsyncBatchExecutor`);
      ``None`` inherits the process default (the CLI's ``--executor``).
      Predictions, quarantines, and manifests are byte-identical through
      either path.
    * ``prefix_cache`` — ``False`` disables the demonstration-prefix
      cache, a ready :class:`~repro.core.tasks.prefix.PromptPrefixCache`
      replaces the process default.  When active (the default for tasks
      whose prompts split), the shared prefix is built and tokenized
      once per run, the manifest grows a ``prefix_cache`` block, and
      prefix tokens are charged once per run (see
      :meth:`~repro.api.client.CompletionClient.begin_prompt_prefix`).

    Cost-aware serving (PR 7):

    * ``cascade`` — ``True`` (default cheap-tier ladder), tier names
      (``"gpt3-1.3b,gpt3-6.7b"``, a list), or a ready
      :class:`~repro.api.resilience.CascadePolicy`: every example is
      served by the cheapest tier first and only low-confidence
      predictions escalate toward the primary model (always the final
      authority).  ``--cascade-threshold``/``CascadePolicy(threshold=)``
      pins the escalation bar; ``None`` calibrates it per task on the
      validation split (see :func:`calibrate_cascade_threshold`).  The
      manifest grows a ``cascade`` block (per-tier served counts,
      escalation rate, estimated cost vs. primary-only) and results are
      byte-identical at any worker count through either executor.
      Mutually exclusive with ``checkpoint`` (a journaled response does
      not record which tier produced it).
    """
    from repro.api.batch import BatchFailure, make_executor
    from repro.api.client import CompletionClient
    from repro.api.faults import get_default_fault_plan
    from repro.api.retry import ParseError
    from repro.api.usage import UsageTracker, count_tokens

    run_started = time.perf_counter()
    spec = get_task(task)
    on_error = _resolve_on_error(on_error)
    if fault_plan is None:
        fault_plan = get_default_fault_plan()
    model = _resolve_model(model, fault_plan=fault_plan)
    if fault_plan is None:
        # A client handed in with its own plan attached still gets full
        # fault accounting in the manifest.
        fault_plan = getattr(model, "fault_plan", None)
    deadline, hedge, fallback, admission = _resolve_resilience(
        deadline, hedge, fallback, admission, budget, breaker
    )
    cascade = _resolve_cascade(cascade)
    if cascade is not None and checkpoint is not None:
        raise ValueError(
            "cascade serving does not support checkpoint resume: a "
            "journaled response does not record which tier produced it"
        )
    if isinstance(model, CompletionClient):
        # The client is where hedging can uphold its dedup invariants
        # (under the cache and single-flight lock) and where a deadline
        # catches stragglers between executor attempts.
        if hedge is not None:
            model.hedge_policy = hedge
        if deadline is not None:
            model.deadline = deadline
    if isinstance(dataset, str):
        from repro.datasets import load_dataset

        dataset = load_dataset(dataset)
    if k is None:
        k = spec.default_k
    if config is None:
        config = spec.default_config(dataset)
    usage_before = (
        model.usage.snapshot() if isinstance(model, CompletionClient) else None
    )
    fault_stats_before = fault_plan.stats() if fault_plan is not None else {}
    phases: dict[str, float] = {}

    phase_started = time.perf_counter()
    demonstrations = select_demonstrations(
        spec, model, dataset, k, config, selection, seed, on_error=on_error
    )
    phases["selection"] = time.perf_counter() - phase_started

    phase_started = time.perf_counter()
    examples = subsample(spec.examples_of(dataset, split), max_examples)
    prefix_obj = None
    prefix_was_cached = False
    suffixes: list[str] | None = None
    if prefix_cache is not False and spec.supports_prefix:
        cache_obj = (
            prefix_cache
            if isinstance(prefix_cache, PromptPrefixCache)
            else get_default_prefix_cache()
        )
        key = prefix_key(
            spec.name, k, seed, config,
            dataset=dataset.name,
            selection=_selection_name(selection),
            demonstrations=demonstrations,
        )
        prefix_obj, prefix_was_cached = cache_obj.get_or_build(
            key, lambda: spec.build_prefix(demonstrations, config)
        )
        suffixes = [spec.build_suffix(example, config) for example in examples]
        prompts = [prefix_obj.text + suffix for suffix in suffixes]
    else:
        prompts = [
            spec.build_prompt(example, demonstrations, config, k)
            for example in examples
        ]
    phases["prompting"] = time.perf_counter() - phase_started

    # Cascade runs never journal — not even under an ambient default
    # checkpoint directory — because resume could not attribute a
    # journaled response to its serving tier.
    journal = None
    if cascade is None:
        journal = _open_checkpoint(
            checkpoint, spec, dataset, model,
            k=k, selection=selection, split=split, seed=seed,
            max_examples=max_examples, config=config, fault_plan=fault_plan,
        )

    # The tracker receives one RequestRecord per evaluated example from
    # the executor — retries, failures, and latency for the manifest,
    # and the per-example latency join for trace records.
    tracker = UsageTracker()
    phase_started = time.perf_counter()
    quarantine: dict[int, QuarantineRecord] = {}
    responses: list = [None] * len(prompts)
    pending: list[int] = []
    for index, prompt in enumerate(prompts):
        journaled = (
            journal.response_for(index, prompt) if journal is not None else None
        )
        if journaled is not None:
            responses[index] = journaled
            continue
        prior = journal.quarantined.get(index) if journal is not None else None
        if prior is not None and on_error == "quarantine":
            # A previous attempt already exhausted this example's
            # retries; honor the journaled verdict instead of re-failing.
            quarantine[index] = QuarantineRecord(
                index=index,
                error_type=str(prior.get("error_type", "Exception")),
                error=str(prior.get("error", "")),
                attempts=int(prior.get("attempts", 1)),
                stage="completion",
            )
            continue
        pending.append(index)

    # Per-task threshold calibration happens before the serving clock
    # starts (its own phase) so the cascade's cost telemetry measures
    # serving alone.
    cascade_thresholds = cascade.threshold if cascade is not None else None
    cascade_calibration = None
    if cascade is not None and cascade_thresholds is None and pending:
        calibration_started = time.perf_counter()
        cascade_calibration = calibrate_cascade_threshold(
            spec, cascade, model, dataset, config, demonstrations, k=k,
            on_error=on_error,
        )
        cascade_thresholds = cascade_calibration["thresholds"]
        phases["calibration"] = time.perf_counter() - calibration_started
        phase_started = time.perf_counter()

    # Prefix-aware accounting: arm the one-shot prefix charge on the
    # client and pass per-example suffix counts so the shared prefix is
    # tokenized (and charged) once per run instead of once per request.
    # Cascade serving manages its own arming — each tier models a
    # separate deployment with its own prefix KV cache, so the charge is
    # armed once per *tier* inside ``_serve_cascade`` instead of here.
    hint_client = (
        model
        if isinstance(model, CompletionClient) and cascade is None
        else None
    )
    if prefix_obj is not None and hint_client is not None:
        hint_client.begin_prompt_prefix(prefix_obj.n_tokens)

    def complete_one(index: int) -> str:
        if suffixes is not None and hint_client is not None:
            response = hint_client.complete(
                prompts[index], prompt_tokens=count_tokens(suffixes[index])
            )
        else:
            response = model.complete(prompts[index])
        if journal is not None:
            journal.record_example(index, prompts[index], response)
        return response

    cascade_section = None
    usage_before_serving = (
        model.usage.snapshot() if isinstance(model, CompletionClient) else None
    )
    if pending and cascade is not None:
        served, cascade_section = _serve_cascade(
            cascade, cascade_thresholds, spec, model, prompts, pending,
            executor=executor, workers=workers, tracker=tracker,
            retry_policy=retry_policy, breaker=breaker, deadline=deadline,
            admission=admission, priority=priority, budget=budget,
            on_error=on_error, quarantine=quarantine,
            suffixes=suffixes,
            prefix_tokens=(
                prefix_obj.n_tokens if prefix_obj is not None else None
            ),
        )
        for index, text in served.items():
            responses[index] = text
        cascade_section["calibrated"] = cascade_calibration is not None
        if cascade_calibration is not None:
            cascade_section["reference_metric"] = (
                cascade_calibration["reference_metric"]
            )
            cascade_section["validation_metric"] = (
                cascade_calibration["validation_metric"]
            )
    elif pending:
        batch_executor = make_executor(
            executor, workers=workers, usage=tracker, policy=retry_policy,
            breaker=breaker, budget=budget, deadline=deadline,
            admission=admission, priority=priority,
        )
        outcomes = batch_executor.map(
            complete_one,
            pending,
            on_error="return" if on_error == "quarantine" else "raise",
        )
        for position, outcome in enumerate(outcomes):
            index = pending[position]
            if isinstance(outcome, BatchFailure):
                shed = outcome.error_type == "Shed"
                quarantine[index] = QuarantineRecord(
                    index=index,
                    error_type=outcome.error_type,
                    error=str(outcome.error),
                    attempts=outcome.attempts,
                    stage="admission" if shed else "completion",
                )
                if journal is not None and not shed:
                    # Shedding is a capacity decision about *this* run,
                    # not a verdict about the example — journaling it
                    # would wrongly skip the example on resume.
                    journal.record_quarantine(
                        index,
                        outcome.error_type,
                        str(outcome.error),
                        outcome.attempts,
                    )
            else:
                responses[index] = outcome
    if prefix_obj is not None and hint_client is not None:
        # Disarm so an unclaimed charge (fully cache-warm run) cannot
        # leak into the next run sharing this client.
        hint_client.end_prompt_prefix()
    if cascade_section is not None:
        # Cost telemetry: actual serving spend (usage delta across the
        # tier clients, which share the primary tracker) vs. what the
        # primary tier alone would have been estimated to charge for the
        # same prompts and final responses.
        from repro.api.usage import usage_delta

        est_cost = 0.0
        if usage_before_serving is not None:
            serving_delta = usage_delta(
                usage_before_serving, model.usage.snapshot()
            )
            est_cost = sum(
                usage.cost_usd for usage in serving_delta.values()
            )
        top_rate = _price_per_1k(getattr(model, "name", ""))
        baseline = 0.0
        if top_rate is not None:
            served_any = False
            for index in pending:
                if responses[index] is None:
                    continue
                served_any = True
                prompt_cost_tokens = (
                    count_tokens(suffixes[index])
                    if suffixes is not None
                    else count_tokens(prompts[index])
                )
                baseline += (
                    prompt_cost_tokens + count_tokens(responses[index])
                ) * top_rate / 1000.0
            if served_any and suffixes is not None and prefix_obj is not None:
                # The primary-only baseline would also charge the shared
                # demonstration prefix exactly once (PR 6 semantics).
                baseline += prefix_obj.n_tokens * top_rate / 1000.0
        cascade_section["est_cost_usd"] = est_cost
        cascade_section["est_baseline_cost_usd"] = baseline
        cascade_section["est_savings_rate"] = (
            (1.0 - est_cost / baseline) if baseline > 0 else 0.0
        )
    phases["completion"] = time.perf_counter() - phase_started

    phase_started = time.perf_counter()
    predictions: list = [None] * len(prompts)
    for index, response in enumerate(responses):
        if index in quarantine:
            continue
        if on_error == "quarantine":
            try:
                predictions[index] = _parse_checked(spec, response)
            except ParseError as exc:
                quarantine[index] = QuarantineRecord(
                    index=index,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    attempts=1,
                    stage="parse",
                )
        else:
            predictions[index] = spec.parse_response(response)
    parse_elapsed_s = time.perf_counter() - phase_started

    # Graceful degradation: walk the fallback ladder for every example
    # that would otherwise score as a hole (quarantined or shed).  Tier
    # responses are parsed through the same checked path; an example a
    # tier cannot serve carries to the next one.  Fallback completions
    # are deliberately *not* journaled to the checkpoint — a resumed run
    # should retry the primary first, not bake in a degraded answer.
    served_by_tier: dict[str, int] | None = None
    n_failed_primary = len(quarantine)
    if fallback is not None:
        phase_started = time.perf_counter()
        failed = sorted(quarantine)
        tier_usage = (
            model.usage if isinstance(model, CompletionClient) else None
        )
        tier_counts: dict[str, int] = {}
        for tier_index in range(len(fallback.tiers)):
            tier_label = fallback.tier_name(tier_index)
            tier_counts.setdefault(tier_label, 0)
            if not failed:
                continue
            tier_model = fallback.resolve(tier_index, usage=tier_usage)
            # A fresh executor, usage=None: tier requests must not enter
            # ``tracker``'s request log, whose indices are positions in
            # ``pending`` (the trace latency join relies on that).
            tier_executor = make_executor(executor, workers=workers)
            outcomes = tier_executor.map(
                lambda index: tier_model.complete(prompts[index]),
                failed,
                on_error="return",
            )
            still_failed: list[int] = []
            for position, outcome in enumerate(outcomes):
                index = failed[position]
                if isinstance(outcome, BatchFailure):
                    still_failed.append(index)
                    continue
                try:
                    prediction = _parse_checked(spec, outcome)
                except ParseError:
                    still_failed.append(index)
                    continue
                responses[index] = outcome
                predictions[index] = prediction
                del quarantine[index]
                tier_counts[tier_label] += 1
            failed = still_failed
        if cascade_section is not None:
            # Under a cascade the per-tier serving split is already
            # known; fold the fallback rescues into it instead of
            # crediting every non-quarantined example to the primary.
            served_by_tier = dict(cascade_section["served_by_tier"])
        else:
            primary_name = getattr(model, "name", type(model).__name__)
            served_by_tier = {primary_name: len(examples) - n_failed_primary}
        for name, count in tier_counts.items():
            served_by_tier[name] = served_by_tier.get(name, 0) + count
        phases["fallback"] = time.perf_counter() - phase_started
    elif cascade_section is not None:
        served_by_tier = dict(cascade_section["served_by_tier"])

    phase_started = time.perf_counter()
    labels = [spec.label_of(example) for example in examples]
    survivors = [
        index for index in range(len(examples)) if index not in quarantine
    ]
    if quarantine:
        metric, details = spec.score(
            [predictions[index] for index in survivors],
            [labels[index] for index in survivors],
            [examples[index] for index in survivors],
        )
    else:
        metric, details = spec.score(predictions, labels, examples)
    coverage = (len(survivors) / len(examples)) if examples else 1.0
    # A run the fallback ladder fully rescued still reports degraded:
    # coverage is 1.0 but some answers came from a cheaper tier.
    degraded = bool(quarantine) or n_failed_primary > 0
    phases["scoring"] = parse_elapsed_s + (time.perf_counter() - phase_started)

    if journal is not None:
        journal.close()

    records: list[ExampleRecord] = []
    if trace:
        # Executor indices are positions in ``pending``; map them back
        # to example indices for the latency join.
        latencies = {
            pending[record.index]: record.latency_s
            for record in tracker.request_log
            if record.index < len(pending)
        }
        records = [
            ExampleRecord(
                index=index,
                prompt=prompt,
                response=response,
                prediction=prediction,
                label=label,
                latency_s=latencies.get(index),
            )
            for index, (prompt, response, prediction, label) in enumerate(
                zip(prompts, responses, predictions, labels)
            )
        ]

    faults_section = None
    if fault_plan is not None:
        fault_stats_after = fault_plan.stats()
        injected = {
            kind: count - fault_stats_before.get(kind, 0)
            for kind, count in fault_stats_after.items()
            if count - fault_stats_before.get(kind, 0)
        }
        faults_section = dict(fault_plan.describe())
        faults_section["injected"] = injected
        if breaker is not None:
            faults_section["breaker"] = breaker.stats()

    prefix_section = None
    if prefix_obj is not None:
        # Per-run view: every example consulted the cached prefix; the
        # build (if any) is the single miss.  ``tokens_saved`` is the
        # token-counting work the cache avoided versus per-example
        # full-prompt counting.
        n_lookups = len(examples)
        misses = 0 if prefix_was_cached else min(1, n_lookups)
        hits = max(0, n_lookups - misses)
        prefix_section = {
            "hits": hits,
            "misses": misses,
            "prefix_tokens": prefix_obj.n_tokens,
            "tokens_saved": prefix_obj.n_tokens * hits,
        }

    quarantine_records = [quarantine[index] for index in sorted(quarantine)]
    effective_k = len(demonstrations) if spec.supports_selection else k
    manifest = _build_manifest(
        spec, dataset, model,
        k=effective_k, selection=selection, split=split, seed=seed,
        workers=workers, n_examples=len(examples), metric=metric,
        phases=phases, wall_clock_s=time.perf_counter() - run_started,
        tracker=tracker, usage_before=usage_before, config=config,
        quarantine=quarantine_records, degraded=degraded,
        coverage=coverage, faults=faults_section,
        slo=deadline.describe() if deadline is not None else None,
        hedges=hedge.stats() if hedge is not None else None,
        shed=admission.stats() if admission is not None else None,
        served_by_tier=served_by_tier,
        prefix_cache=prefix_section,
        cascade=cascade_section,
        tier_clients=cascade.resolved_clients() if cascade is not None else (),
    )
    return TaskRun(
        task=spec.name,
        dataset=dataset.name,
        model=getattr(model, "name", type(model).__name__),
        k=effective_k,
        metric_name=spec.metric_name,
        metric=metric,
        n_examples=len(examples),
        predictions=predictions,
        labels=labels,
        details=details,
        records=records,
        quarantine=quarantine_records,
        degraded=degraded,
        coverage=coverage,
        served_by_tier=served_by_tier,
        manifest=manifest,
    )


class ServingContext:
    """Everything a gateway needs to serve one compatible request group.

    A group is pinned by (task, dataset, model, k, selection, seed,
    config): the demonstrations and the shared prompt prefix are
    resolved **once**, exactly the way :func:`run_task` resolves them,
    and then reused for every micro-batch routed through
    :func:`serve_group`.  That reuse is the determinism guarantee — at
    temperature 0 a completion is a pure function of its prompt, and
    the prompt here is byte-identical to the offline path's
    ``prefix + suffix`` (or ``build_prompt``) for the same example.
    """

    __slots__ = (
        "spec", "dataset", "model", "k", "selection", "seed", "config",
        "demonstrations", "prefix",
    )

    def __init__(self, spec, dataset, model, k, selection, seed, config,
                 demonstrations, prefix):
        self.spec = spec
        self.dataset = dataset
        self.model = model
        self.k = k
        self.selection = selection
        self.seed = seed
        self.config = config
        self.demonstrations = demonstrations
        self.prefix = prefix

    @property
    def model_name(self) -> str:
        return getattr(self.model, "name", type(self.model).__name__)


class ServedItem:
    """Outcome slot for one example served through :func:`serve_group`."""

    __slots__ = ("index", "ok", "prediction", "response", "error_type",
                 "error", "attempts")

    def __init__(self, index, ok, prediction=None, response=None,
                 error_type=None, error=None, attempts=0):
        self.index = index
        self.ok = ok
        self.prediction = prediction
        self.response = response
        self.error_type = error_type
        self.error = error
        self.attempts = attempts


def resolve_serving_context(
    task: str | TaskSpec,
    model,
    dataset,
    k: int | None = None,
    selection: str | DemonstrationSelector = "random",
    seed: int = 0,
    config=None,
    prefix_cache=None,
) -> ServingContext:
    """Resolve the per-group state a gateway caches between requests.

    Mirrors the head of :func:`run_task` exactly: same model
    resolution, same ``default_k``/``default_config`` fallbacks, same
    demonstration selection, and the same
    :func:`~repro.core.tasks.prefix.prefix_key` lookup — so a gateway
    group and an offline run over the same knobs build the same
    prompts byte for byte.
    """
    spec = get_task(task)
    model = _resolve_model(model)
    if isinstance(dataset, str):
        from repro.datasets import load_dataset

        dataset = load_dataset(dataset)
    if k is None:
        k = spec.default_k
    if config is None:
        config = spec.default_config(dataset)
    demonstrations = select_demonstrations(
        spec, model, dataset, k, config, selection, seed
    )
    prefix_obj = None
    if prefix_cache is not False and spec.supports_prefix:
        cache_obj = (
            prefix_cache
            if isinstance(prefix_cache, PromptPrefixCache)
            else get_default_prefix_cache()
        )
        key = prefix_key(
            spec.name, k, seed, config,
            dataset=dataset.name,
            selection=_selection_name(selection),
            demonstrations=demonstrations,
        )
        prefix_obj, _was_cached = cache_obj.get_or_build(
            key, lambda: spec.build_prefix(demonstrations, config)
        )
    return ServingContext(
        spec=spec, dataset=dataset, model=model, k=k,
        selection=_selection_name(selection), seed=seed, config=config,
        demonstrations=demonstrations, prefix=prefix_obj,
    )


def serve_group(
    context: ServingContext,
    examples,
    workers: int | None = None,
    executor: str | None = None,
    tracker=None,
    retry_policy=None,
    breaker=None,
    deadline=None,
    admission=None,
    priority: str = "interactive",
    budget=None,
) -> list[ServedItem]:
    """Serve one micro-batch of ``examples`` under a resolved context.

    The gateway's engine entry: prompts are built exactly as
    :func:`run_task` builds them (shared prefix + per-example suffix
    when the task supports splitting), fanned through the same
    ``make_executor`` facade with the same admission/priority/deadline
    knobs, and parsed through the same checked parser.  Failures never
    raise — every example gets a :class:`ServedItem` slot, typed with
    the executor's error classification (``Shed``, retry exhaustion,
    parse errors), so a multi-tenant caller can answer each request
    individually.
    """
    from repro.api.batch import BatchFailure, make_executor
    from repro.api.client import CompletionClient
    from repro.api.retry import ParseError
    from repro.api.usage import count_tokens

    spec = context.spec
    examples = list(examples)
    if not examples:
        return []
    suffixes: list[str] | None = None
    if context.prefix is not None:
        suffixes = [
            spec.build_suffix(example, context.config) for example in examples
        ]
        prompts = [context.prefix.text + suffix for suffix in suffixes]
    else:
        prompts = [
            spec.build_prompt(
                example, context.demonstrations, context.config, context.k
            )
            for example in examples
        ]

    model = context.model
    hint_client = model if isinstance(model, CompletionClient) else None
    if context.prefix is not None and hint_client is not None:
        hint_client.begin_prompt_prefix(context.prefix.n_tokens)

    def complete_one(index: int) -> str:
        if suffixes is not None and hint_client is not None:
            return hint_client.complete(
                prompts[index], prompt_tokens=count_tokens(suffixes[index])
            )
        return model.complete(prompts[index])

    batch_executor = make_executor(
        executor, workers=workers, usage=tracker, policy=retry_policy,
        breaker=breaker, budget=budget, deadline=deadline,
        admission=admission, priority=priority,
    )
    try:
        outcomes = batch_executor.map(
            complete_one, range(len(prompts)), on_error="return"
        )
    finally:
        if context.prefix is not None and hint_client is not None:
            hint_client.end_prompt_prefix()

    items: list[ServedItem] = []
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, BatchFailure):
            items.append(ServedItem(
                index=index, ok=False,
                error_type=outcome.error_type,
                error=str(outcome.error),
                attempts=outcome.attempts,
            ))
            continue
        try:
            prediction = _parse_checked(spec, outcome)
        except ParseError as exc:
            items.append(ServedItem(
                index=index, ok=False, response=outcome,
                error_type=type(exc).__name__, error=str(exc), attempts=1,
            ))
            continue
        items.append(ServedItem(
            index=index, ok=True, prediction=prediction, response=outcome,
        ))
    return items
