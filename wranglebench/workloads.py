"""The three workloads: cold curation, cold cascade and a warm gateway.

Each workload is a class with ``setup()``, ``warm_up()``, ``one_pass()``
and ``rates()``.  A pass is one whole round of the workload's fixed
operations, and it checks its own outputs as it goes: a failed check is
appended to ``self.failures`` and turns the run's ``correct`` false.

Checks compare against computations made apart from the program (the
metric recomputed from predictions and labels, prompts counted at the
client seam, a primary-only reference run, offline ``run_task``) or
test a property the method must have; none compares against a stored
copy of an earlier output.

Times are read in the host's fast state, as the fastest of repeated
timings: the shared host alternates between a fast and a ~1.7x slower
state in episodes of a fraction of a second to a few seconds, and a
median over passes flips between the two.  The slow episodes come from
the host's neighbours and hit a timing or miss it; a slower program is
slower in every repeat, the fastest included.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from concurrent.futures import FIRST_COMPLETED, wait

from instrument import Seams

perf_counter = time.perf_counter
PRIMARY = "gpt3-175b"
TIERS = ("gpt3-1.3b", "gpt3-6.7b", "gpt3-175b")

#: curate_cold: manual curation at the paper-default k over one dataset
#: per task, so every simulator handler runs (transformation has no
#: selection; it rides along for the transform handler).
CURATE_JOBS = (
    ("entity_matching", "beer"),
    ("error_detection", "adult"),
    ("imputation", "restaurant"),
    ("schema_matching", "synthea"),
    ("transformation", "stackoverflow"),
)
#: cascade_cold: random selection and the calibrated three-tier cascade
#: over the Table 1 entity-matching datasets.
CASCADE_JOBS = tuple(
    ("entity_matching", name) for name in (
        "fodors_zagats", "beer", "itunes_amazon", "walmart_amazon",
        "dblp_acm", "dblp_scholar", "amazon_google",
    )
)
#: serve_warm: one group per task the gateway serves by rows or indices.
SERVE_GROUPS = (
    ("entity_matching", "fodors_zagats"),
    ("error_detection", "adult"),
    ("imputation", "restaurant"),
    ("transformation", "stackoverflow"),
)
#: The traffic mix of ``benchmarks/bench_gateway_traffic.py``: per
#: 8-index stride one 4-example backfill batch from tenant ``bulk``, then
#: 4 interactive singles alternating ``alice``/``bob``; every test index
#: once per repeat, 4 repeats, micro-batches of at most 32 examples.
SERVE_STRIDE = 8
SERVE_BACKFILL = 4
SERVE_REPEATS = 4
SERVE_MAX_BATCH = 32
#: Requests kept outstanding by the one client thread.
SERVE_OUTSTANDING = 8
#: The last single of each EM, ED and DI stride carries inline rows.
SERVE_ROW_SLOT = SERVE_STRIDE - 1


def _normalized(text) -> str:
    return " ".join(str(text).split()).casefold()


def own_metric(task: str, predictions: list, labels: list) -> float:
    """The task's metric recomputed here: F1 for the yes/no tasks,
    normalized exact match for imputation and transformation."""
    if task in ("entity_matching", "error_detection", "schema_matching"):
        tp = sum(1 for p, y in zip(predictions, labels) if p and y)
        fp = sum(1 for p, y in zip(predictions, labels) if p and not y)
        fn = sum(1 for p, y in zip(predictions, labels) if not p and y)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)
    if not predictions:
        return 0.0
    hits = sum(
        _normalized(p) == _normalized(y) for p, y in zip(predictions, labels)
    )
    return hits / len(predictions)


def own_labels(task: str, examples: list) -> list:
    if task == "imputation":
        return [example.answer for example in examples]
    if task == "transformation":
        return [query.target for query in examples]
    return [example.label for example in examples]


class Workload:
    """Shared pass bookkeeping and checks."""

    name = ""
    min_passes = 3

    def __init__(self, seed: int, seams: Seams):
        self.seed = seed
        self.seams = seams
        self.failures: list[str] = []
        self.datasets: dict[str, object] = {}
        self.load_s = 0.0
        self.first_predictions: dict[str, list] = {}

    def fail(self, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(f"{self.name}: {message}")

    def load(self, mix) -> None:
        from repro.datasets import load_dataset

        started = perf_counter()
        for _task, name in mix:
            self.datasets[name] = load_dataset(name)
        self.load_s = perf_counter() - started

    def check_run(self, task: str, name: str, run) -> None:
        """Own metric equals the reported one; predictions repeat."""
        from repro.core.tasks.spec import get_task

        examples = get_task(task).examples_of(self.datasets[name], "test")
        labels = own_labels(task, examples)
        metric = own_metric(task, run.predictions, labels)
        if abs(metric - run.metric) > 1e-12:
            self.fail(f"{name}: own metric {metric!r} != reported {run.metric!r}")
        first = self.first_predictions.setdefault(name, list(run.predictions))
        if run.predictions != first:
            self.fail(f"{name}: predictions differ between passes")


class ColdRuns(Workload):
    """A pass runs one cold ``run_task`` per job of ``jobs``, each on a
    fresh client with a private prompt cache and prefix cache."""

    jobs: tuple = ()

    def setup(self) -> None:
        from repro.core import tasks  # noqa: F401  (imports the engine)

        self.load(self.jobs)
        self.first_calls: dict[str, int] = {}

    def run_kwargs(self) -> dict:
        raise NotImplementedError

    def job(self, task: str, name: str, **overrides):
        """One cold ``run_task``; the seams hold what it alone made."""
        from repro.api.client import CompletionClient
        from repro.core.tasks import run_task
        from repro.core.tasks.prefix import PromptPrefixCache

        kwargs = dict(self.run_kwargs(), **overrides)
        client = CompletionClient(PRIMARY)  # private, cold prompt cache
        self.seams.reset()
        self.seams.record_prompts = True
        started = perf_counter()
        run = run_task(
            task, client, self.datasets[name],
            prefix_cache=PromptPrefixCache(), **kwargs,
        )
        elapsed = perf_counter() - started
        self.seams.record_prompts = False
        return run, elapsed

    def one_pass(self) -> dict:
        examples = 0
        calls = 0
        cost = 0.0
        latencies = {}
        escalations = 0
        by_model: dict[str, int] = {}
        started = perf_counter()
        for task, name in self.jobs:
            run, elapsed = self.job(task, name)
            latencies[name] = elapsed
            examples += run.n_examples
            cost += run.manifest.cost_usd
            job_calls = self.seams.calls()
            calls += sum(job_calls.values())
            for model, n in job_calls.items():
                by_model[model] = by_model.get(model, 0) + n
            # A cold cache makes the same backend calls every pass.
            first = self.first_calls.setdefault(name, sum(job_calls.values()))
            if sum(job_calls.values()) != first:
                self.fail(f"{name}: {sum(job_calls.values())} backend calls, "
                          f"{first} in the first pass")
            self.check_run(task, name, run)
            escalations += self.check_job(task, name, run)
            del run
            # A finished job's clients hold reference cycles; collect them
            # so peak RSS is one job's working set, not the garbage
            # collector's timing.
            gc.collect()
        return {
            "seconds": perf_counter() - started,
            "examples": examples,
            "operations": examples,
            "backend_calls": calls,
            "cost_usd": cost,
            "latencies": latencies,
            "calls_by_model": by_model,
            "escalations": escalations,
        }

    def check_job(self, task: str, name: str, run) -> int:
        """Workload-specific checks; returns the job's escalations."""
        raise NotImplementedError

    @staticmethod
    def rates(passes: list[dict]) -> tuple[float, float]:
        """(examples/s, request seconds) in the host's fast state.

        Each job's time is its fastest over the passes; examples/s is a
        pass's examples over the sum of those times.  A request is one
        job, as a user runs it; its p50 is the median over the jobs of
        their fastest times.
        """
        jobs = [
            min(p["latencies"][name] for p in passes)
            for name in passes[0]["latencies"]
        ]
        return passes[0]["examples"] / sum(jobs), statistics.median(jobs)


class CurateCold(ColdRuns):
    """Manual curation at the paper-default k on cold caches."""

    name = "curate_cold"
    jobs = CURATE_JOBS
    min_passes = 2

    def run_kwargs(self) -> dict:
        return {"selection": "manual", "seed": self.seed}

    def warm_up(self) -> None:
        # Every handler once, cheaply (random selection, 8 examples), then
        # the curation path once on its smallest dataset.
        for task, name in self.jobs:
            self.job(task, name, selection="random", max_examples=8)
        self.job("schema_matching", "synthea")

    def check_job(self, task: str, name: str, run) -> int:
        from repro.core.tasks.spec import get_task

        seams = self.seams
        calls = sum(seams.calls().values())
        if calls != len(seams.client_prompts):
            self.fail(
                f"{name}: {calls} backend calls for "
                f"{len(seams.client_prompts)} distinct client prompts"
            )
        spec = get_task(task)
        expected = 1 if spec.supports_selection else 0
        if len(seams.curated) != expected:
            self.fail(f"{name}: {len(seams.curated)} curated lists")
        for _pool, chosen, k in seams.curated:
            train = {id(item) for item in self.datasets[name].train}
            ids = [id(item) for item in chosen]
            if k != spec.default_k or len(ids) != k:
                self.fail(f"{name}: curated {len(ids)} for k={k}")
            if len(set(ids)) != len(ids) or not set(ids) <= train:
                self.fail(f"{name}: curated list not k distinct train rows")
        return 0


class CascadeCold(ColdRuns):
    """Random selection through the calibrated three-tier cascade."""

    name = "cascade_cold"
    jobs = CASCADE_JOBS

    def run_kwargs(self) -> dict:
        return {"selection": "random", "seed": self.seed, "cascade": True}

    def setup(self) -> None:
        super().setup()
        self.seams.record_completions = True  # for serving_cost()

    def warm_up(self) -> None:
        # The primary-only reference runs the checks compare against.
        self.reference: dict[str, tuple[list, dict, float]] = {}
        for task, name in self.jobs:
            run, _elapsed = self.job(task, name, cascade=None, trace=True)
            by_prompt: dict[int, list[int]] = {}
            for record in run.records:
                by_prompt.setdefault(hash(record.prompt), []).append(
                    record.index
                )
            self.reference[name] = (
                list(run.predictions), by_prompt, self.serving_cost()
            )
        # The cascade path once, on the smallest dataset, so the first
        # timed pass is not its first run.
        self.job(*self.jobs[0])

    def serving_cost(self) -> float:
        """USD of the completions that reached a backend while serving
        the last job: whole prompt plus completion, each tier at its
        published per-1k price.  Summed here from the backend seam, not
        taken from the run's own usage accounting."""
        from repro.api.usage import PRICE_PER_1K_TOKENS, count_tokens

        return sum(
            (count_tokens(prompt) + count_tokens(text))
            * PRICE_PER_1K_TOKENS[model] / 1000.0
            for model, prompt, text in self.seams.serve_completions
        )

    def check_job(self, task: str, name: str, run) -> int:
        section = run.manifest.cascade
        served = section["served_by_tier"]
        if sum(served.values()) != run.n_examples:
            self.fail(f"{name}: tiers served {served} of {run.n_examples}")
        # Requests reaching each tier while serving (calibration excluded):
        # a tier sees exactly what the cheaper tiers did not keep.  A
        # pruned tier is skipped without a probe.
        requests = self.seams.calls("serve", "client_requests")
        reach = run.n_examples
        tiers = section["tiers"]
        for depth, tier in enumerate(tiers):
            made, kept = requests.get(tier, 0), served.get(tier, 0)
            pruned = depth < len(tiers) - 1 and made == 0 and kept == 0
            if made != reach and not pruned:
                self.fail(f"{name}: {tier} got {made} requests, "
                          f"{reach} reached it")
            reach -= kept
        predictions, by_prompt, cost = self.reference[name]
        serving = self.serving_cost()
        if not serving < cost:
            self.fail(f"{name}: cascade serving cost {serving} "
                      f"not below the primary-only run's {cost}")
        primary = self.seams.serve_prompts[PRIMARY]
        if len(primary) != served.get(PRIMARY, 0):
            self.fail(f"{name}: {len(primary)} primary requests for "
                      f"{served.get(PRIMARY, 0)} primary-served examples")
        for key in primary:
            for index in by_prompt.get(key, [None]):
                if index is None or run.predictions[index] != predictions[index]:
                    self.fail(f"{name}: primary-served example {index} "
                              "differs from the primary-only run")
                    return section["escalated"]
        return section["escalated"]


class ServeWarm(Workload):
    """A warm in-process gateway under a closed loop of mixed traffic."""

    name = "serve_warm"

    def setup(self) -> None:
        from repro.api import PromptCache, set_default_cache
        from repro.core.tasks import run_task
        from repro.core.tasks.spec import get_task
        from repro.serve import Gateway, GatewayConfig
        from repro.serve.codec import encode_prediction

        self.load(SERVE_GROUPS)
        set_default_cache(PromptCache(":memory:"))
        self.expected: dict[str, list] = {}
        self.warm_cost = 0.0
        for task, name in SERVE_GROUPS:
            run = run_task(task, PRIMARY, self.datasets[name],
                           selection="random", seed=self.seed)
            self.check_run(task, name, run)
            self.expected[name] = [encode_prediction(p) for p in run.predictions]
            self.warm_cost += run.manifest.cost_usd
        self.warm_calls = sum(self.seams.calls().values())
        self.seams.reset()
        self.plan = self._plan(get_task)
        self.gateway = Gateway(GatewayConfig(max_batch=SERVE_MAX_BATCH))
        self.gateway.start()

    def _plan(self, get_task) -> list[tuple[dict, str, list[int]]]:
        """One pass: (request payload, dataset, source indices) triples.

        Each repeat walks every group's test split once in an order the
        seed draws, in strides of :data:`SERVE_STRIDE` indices, and the
        seed shuffles the strides of all groups together.
        """
        rng = random.Random(self.seed)
        plan = []
        for _repeat in range(SERVE_REPEATS):
            strides = []
            for task, name in SERVE_GROUPS:
                pool = get_task(task).examples_of(self.datasets[name], "test")
                order = rng.sample(range(len(pool)), len(pool))
                common = dict(task=task, dataset=name, selection="random",
                              seed=self.seed)
                for start in range(0, len(order), SERVE_STRIDE):
                    chunk = order[start:start + SERVE_STRIDE]
                    batch = chunk[:SERVE_BACKFILL]
                    stride = [(dict(common, tenant="bulk", priority="backfill",
                                    indices=batch), name, batch)]
                    for slot, index in enumerate(chunk[SERVE_BACKFILL:],
                                                 SERVE_BACKFILL):
                        payload = dict(common, priority="interactive",
                                       tenant="alice" if slot % 2 else "bob")
                        if slot == SERVE_ROW_SLOT and task != "transformation":
                            payload["rows"] = [_row_of(task, pool[index])]
                        else:
                            payload["indices"] = [index]
                        stride.append((payload, name, [index]))
                    strides.append(stride)
            rng.shuffle(strides)
            plan.extend(request for stride in strides for request in stride)
        return plan

    def drive(self) -> tuple[float, list[float], int]:
        """Serve the plan once, closed loop; check every answer."""
        from repro.serve import ShedResponse, WrangleRequest

        def resolved(future):
            future.resolved_at = perf_counter()

        pending: set = set()
        sent = []
        started = perf_counter()
        for payload, name, indices in self.plan:
            while len(pending) >= SERVE_OUTSTANDING:
                _done, pending = wait(pending, return_when=FIRST_COMPLETED)
            request = WrangleRequest(**payload)
            submitted = perf_counter()
            future = self.gateway.submit(request)
            future.add_done_callback(resolved)
            pending.add(future)
            sent.append((future, submitted, name, indices))
        wait(pending)
        elapsed = perf_counter() - started
        latencies = []
        examples = 0
        for future, submitted, name, indices in sent:
            response = future.result()
            latencies.append(future.resolved_at - submitted)
            if isinstance(response, ShedResponse) or not response.ok:
                self.fail(f"request {response.request_id} not served")
                continue
            if len(response.results) != len(indices):
                self.fail(f"request {response.request_id}: "
                          f"{len(response.results)} results")
                continue
            examples += len(indices)
            expected = self.expected[name]
            for index, result in zip(indices, response.results):
                if result["prediction"] != expected[index]:
                    self.fail(f"{name}[{index}]: gateway answer differs "
                              "from offline run_task")
        return elapsed, latencies, examples

    def warm_up(self) -> None:
        self.drive()

    def one_pass(self) -> dict:
        self.seams.reset()
        elapsed, latencies, examples = self.drive()
        made = sum(self.seams.calls().values())
        if made:
            self.fail(f"{made} backend calls during a timed pass")
        return {
            "seconds": elapsed,
            "examples": examples,
            "operations": len(latencies),
            "p50_s": statistics.median(latencies),
            "backend_calls": self.warm_calls,
            "cost_usd": self.warm_cost,
            "latencies": latencies,
            "calls_by_model": {},
            "escalations": 0,
        }

    @staticmethod
    def rates(passes: list[dict]) -> tuple[float, float]:
        """(examples/s, p50 request seconds) in the host's fast state:
        a pass's examples over the fastest pass time, and the lowest
        per-pass median latency."""
        return (
            passes[0]["examples"] / min(p["seconds"] for p in passes),
            min(p["p50_s"] for p in passes),
        )

    def finish(self) -> None:
        from repro.api.abatch import shutdown_serving_loop

        stats = self.gateway.stats()
        self.gateway.stop()
        shutdown_serving_loop()
        if stats["shed"]["total"]:
            self.fail(f"gateway shed {stats['shed']['by_reason']}")


def _row_of(task: str, example) -> dict:
    """The inline-row payload a client would send for ``example``."""
    if task == "entity_matching":
        return {"left": dict(example.left), "right": dict(example.right)}
    return {"row": dict(example.row), "attribute": example.attribute}


WORKLOADS = {
    "curate_cold": CurateCold,
    "cascade_cold": CascadeCold,
    "serve_warm": ServeWarm,
}
