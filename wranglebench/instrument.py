"""Instrumentation installed from outside the program: seams and spans.

Nothing under ``src/`` is edited.  Entry points are replaced at run
time with wrappers that call straight through:

* :class:`Seams` is always on.  It counts completions at the backend
  seam (``SimulatedFoundationModel.complete``, which the confidence path
  also goes through), records which prompts entered
  ``CompletionClient`` and what reached the backend while serving, tags
  calls made inside cascade calibration, and keeps the demonstration
  lists manual curation returns.  These are the counts the correctness
  checks and the ``backend_calls`` metric need.
* :class:`Tracer` is installed only for the traced half of a
  ``--trace 1`` run.  It times the calls into each layer's public
  functions with a per-thread span stack, so a span's self time is its
  duration minus the spans it called on the same thread.  Where an entry
  point already has a seam wrapper, the tracer puts its span inside that
  wrapper (:attr:`Seams.inner`) instead of wrapping it a second time.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter


def rebind(original, replacement) -> None:
    """Point every module-level binding of ``original`` in ``repro`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Seams:
    """Always-on counters at the backend and client seams."""

    def __init__(self):
        self.phase = "serve"  # "calibration" while calibrating a cascade
        self.backend_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.client_requests: dict[tuple[str, str], int] = defaultdict(int)
        self.record_prompts = False
        self.client_prompts: set[tuple[str, int]] = set()
        # Serving phase only: prompt hashes per model at the client seam
        # while recording prompts, and (model, prompt, completion) at the
        # backend while recording completions (it keeps the prompts alive).
        self.serve_prompts: dict[str, list[int]] = defaultdict(list)
        self.record_completions = False
        self.serve_completions: list[tuple[str, str, str]] = []
        self.curated: list[tuple[list, list, int]] = []  # (pool, chosen, k)
        # What each seam wrapper calls: the original, or a tracer span
        # around it once the tracer is installed.
        self.inner: dict[str, object] = {}

    def reset(self) -> None:
        self.backend_calls.clear()
        self.client_requests.clear()
        self.client_prompts.clear()
        self.serve_prompts.clear()
        self.serve_completions.clear()
        self.curated.clear()

    def calls(self, phase: str | None = None,
              table: str = "backend_calls") -> dict[str, int]:
        """Calls per model, optionally of one phase; ``table`` is
        ``"backend_calls"`` or ``"client_requests"``."""
        out: dict[str, int] = defaultdict(int)
        for (model, call_phase), n in getattr(self, table).items():
            if phase is None or call_phase == phase:
                out[model] += n
        return dict(out)

    def install(self) -> None:
        from repro.api.client import CompletionClient
        from repro.core import demonstrations
        from repro.core.tasks import engine
        from repro.fm.engine import SimulatedFoundationModel

        seams = self
        inner = self.inner
        inner["fm.complete"] = SimulatedFoundationModel.complete

        def complete(model, prompt, *args, **kwargs):
            seams.backend_calls[(model.name, seams.phase)] += 1
            text = inner["fm.complete"](model, prompt, *args, **kwargs)
            if seams.record_completions and seams.phase == "serve":
                seams.serve_completions.append((model.name, prompt, text))
            return text

        SimulatedFoundationModel.complete = complete

        def client_seam(key):
            inner[key] = getattr(CompletionClient, key)

            def wrapper(client, prompt, *args, **kwargs):
                if seams.record_prompts:
                    name = client.name
                    seams.client_requests[(name, seams.phase)] += 1
                    seams.client_prompts.add((name, hash(prompt)))
                    if seams.phase == "serve":
                        seams.serve_prompts[name].append(hash(prompt))
                return inner[key](client, prompt, *args, **kwargs)
            return wrapper

        for key in ("complete", "complete_verbose"):
            setattr(CompletionClient, key, client_seam(key))

        calibrate = engine.calibrate_cascade_threshold
        inner["cascade.calibration"] = calibrate

        def calibrate_cascade_threshold(*args, **kwargs):
            seams.phase = "calibration"
            try:
                return inner["cascade.calibration"](*args, **kwargs)
            finally:
                seams.phase = "serve"

        rebind(calibrate, calibrate_cascade_threshold)

        inner["demonstrations.curate"] = demonstrations.ManualCurator.select

        def select(curator, pool, k):
            chosen = inner["demonstrations.curate"](curator, pool, k)
            seams.curated.append((list(pool), list(chosen), k))
            return chosen

        demonstrations.ManualCurator.select = select


class Tracer:
    """Per-layer counts and seconds from spans around layer entry points.

    ``incl`` adds a span's full duration (only for the outermost span of
    its group on the thread, so recursion is not counted twice), ``self``
    its duration minus its children's.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: dict[str, float] = defaultdict(float)
        self.incl: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def span(self, group: str, fn, on_result=None):
        """``fn`` wrapped in a span of ``group``; ``on_result(result,
        args)`` may count what the call returned."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [group, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                outermost = all(f[0] != group for f in stack)
                with tracer._lock:
                    tracer.counts[group] += 1
                    tracer.self[group] += elapsed - frame[1]
                    if outermost:
                        tracer.incl[group] += elapsed
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, seams: Seams) -> None:
        from repro.api import usage
        from repro.api.abatch import AsyncBatchExecutor
        from repro.api.batch import BatchExecutor
        from repro.api.cache import PromptCache
        from repro.core import demonstrations
        from repro.core.tasks import engine
        from repro.core.tasks.prefix import PromptPrefixCache
        from repro.core.tasks.spec import TASKS
        from repro.fm import parsing
        from repro.serve import codec
        from repro.serve.gateway import Gateway
        from repro.serve.request import RequestQueue

        tracer = self
        inner = seams.inner

        def method(cls, name, group, on_result=None):
            setattr(cls, name, tracer.span(group, getattr(cls, name), on_result))

        def function(module, name, group, on_result=None):
            original = getattr(module, name)
            rebind(original, tracer.span(group, original, on_result))

        # core.demonstrations: selection time; curation's evaluate calls.
        curate = inner["demonstrations.curate"]

        def curated_select(curator, pool, k):
            evaluate = curator.evaluate

            def counted(demos):
                tracer.count("demonstrations.evaluations")
                return evaluate(demos)

            curator.evaluate = counted
            try:
                return curate(curator, pool, k)
            finally:
                curator.evaluate = evaluate

        inner["demonstrations.curate"] = self.span(
            "demonstrations.select", curated_select
        )
        method(demonstrations.RandomSelector, "select", "demonstrations.select")

        # core.tasks.engine / core.prompts (through the spec hooks).
        function(engine, "predict", "engine.predict")
        for spec in {id(s): s for s in TASKS.values()}.values():
            for hook in ("build_prefix", "build_suffix", "build_prompt"):
                fn = getattr(spec, hook, None)
                if fn is not None:
                    object.__setattr__(
                        spec, hook, self.span("prompts.build", fn)
                    )

        def prefix_outcome(result, _args):
            tracer.count("prefix.hits" if result[1] else "prefix.misses")

        method(PromptPrefixCache, "get_or_build", "prefix.get_or_build",
               prefix_outcome)

        # api.batch / api.abatch: map time spent outside the item calls.
        for cls in (BatchExecutor, AsyncBatchExecutor):
            setattr(cls, "map", self._traced_map(cls.map))

        # api.client / api.cache / api.usage.  Client calls answered from
        # the cache: the cache.get hook marks the client frame; the client
        # span reads the mark on exit.
        for key in ("complete", "complete_verbose"):
            call = inner[key]

            def marked(client, *args, _call=call, **kwargs):
                result = _call(client, *args, **kwargs)
                if len(tracer._stack()[-1]) == 3:
                    tracer.count("client.cache_hits")
                return result

            inner[key] = self.span("client.complete", marked)

        def cache_outcome(result, _args):
            if result is not None:
                for frame in reversed(tracer._stack()):
                    if frame[0] == "client.complete":
                        if len(frame) == 2:
                            frame.append(True)
                        break

        method(PromptCache, "get", "cache.get", cache_outcome)
        method(PromptCache, "put", "cache.put")
        function(usage, "count_tokens", "usage.count_tokens")

        # fm: prompt parsing and the simulator's own work.
        function(parsing, "parse_prompt", "fm.parse_prompt")
        inner["fm.complete"] = self.span("fm.complete", inner["fm.complete"])

        # Cascade calibration, inside the seam's phase-tagging wrapper.
        inner["cascade.calibration"] = self.span(
            "cascade.calibration", inner["cascade.calibration"]
        )

        # serve: intake, queue wait, micro-batches.
        method(Gateway, "submit", "serve.submit")
        function(codec, "decode_rows", "serve.submit")

        def batch_size(_result, args):
            tracer.sample("serve.examples_per_batch", len(args[1]))

        function(engine, "serve_group", "serve.group", batch_size)
        pop_group = RequestQueue.pop_group

        def traced_pop_group(queue, *args, **kwargs):
            group = pop_group(queue, *args, **kwargs)
            now = time.monotonic()
            for entry in group:
                tracer.sample("serve.queue_wait_s", now - entry.enqueued_at)
            return group

        RequestQueue.pop_group = traced_pop_group

    def _traced_map(self, original):
        tracer = self

        def map(executor, fn, items, *args, **kwargs):
            spent = [0.0]
            lock = threading.Lock()

            def item(value):
                started = perf_counter()
                try:
                    return fn(value)
                finally:
                    elapsed = perf_counter() - started
                    with lock:
                        spent[0] += elapsed

            started = perf_counter()
            try:
                return original(executor, item, items, *args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                with tracer._lock:
                    tracer.counts["executor.map"] += 1
                    tracer.self["executor.map"] += max(0.0, elapsed - spent[0])

        return map
