"""Run one benchmark workload and print its metrics as one JSON line.

    python3 wranglebench/run.py --workload curate_cold --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``
of the checkout this file sits in.  ``--trace 0`` prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` spends half the
time untraced, where it times the passes, and half traced, and prints
every per-layer metric, the pass timings and the tracing overhead among
them.  Human-readable progress goes to standard error;
the last line of standard output is the result.  See README.md.
"""

import time

_CLOCK_AT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".wranglebench-out"


def _age_at_start() -> float:
    """Seconds the process had lived when this module began to run."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def ref_loop() -> float:
    """Time of a fixed pure-Python loop: shows host drift, scales nothing."""
    started = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i & 7
    return time.perf_counter() - started


def timed_passes(workload, budget_s: float, min_passes: int) -> list[dict]:
    """At least ``min_passes`` whole passes, then more while the longest
    pass so far would still end within ``budget_s``."""
    passes = []
    longest = 0.0
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        passes.append(workload.one_pass())
        longest = max(longest, time.perf_counter() - before)
        log(f"  pass {len(passes)}: {passes[-1]['seconds']:.3f} s, "
            f"{passes[-1]['examples']} examples")
        spent = time.perf_counter() - started
        if len(passes) >= min_passes and spent + longest > budget_s:
            return passes


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "backend_calls": (statistics.median(
            p["backend_calls"] for p in passes), "calls"),
        "cost_usd": (statistics.median(p["cost_usd"] for p in passes), "USD"),
    }


def per_layer(workload, tracer, traced: list[dict], untraced: list[dict],
              ref_s: float) -> dict:
    from workloads import TIERS

    n = len(traced)
    counts, incl, self_s = tracer.counts, tracer.incl, tracer.self
    samples = tracer.samples

    def per_pass(table, key):
        return table.get(key, 0.0) / n

    waits = samples.get("serve.queue_wait_s", [])
    batches = samples.get("serve.examples_per_batch", [])
    serving = workload.name == "serve_warm"
    latencies = [v for p in untraced for v in p["latencies"]] if serving else []
    traced_eps = workload.rates(traced)[0]
    untraced_eps, untraced_p50_s = workload.rates(untraced)
    metrics = {
        "examples_per_s": (untraced_eps, "examples/s"),
        "request_p50_ms": (1000.0 * untraced_p50_s, "ms"),
        "demonstrations.evaluations": (
            per_pass(counts, "demonstrations.evaluations"), "count/pass"),
        "demonstrations.select_s": (
            per_pass(incl, "demonstrations.select"), "s/pass"),
        "engine.predict_calls": (
            per_pass(counts, "engine.predict"), "count/pass"),
        "engine.predict_s": (per_pass(incl, "engine.predict"), "s/pass"),
        "prompts.build_s": (per_pass(incl, "prompts.build"), "s/pass"),
        "prefix.hits": (per_pass(counts, "prefix.hits"), "count/pass"),
        "prefix.misses": (per_pass(counts, "prefix.misses"), "count/pass"),
        "executor.map_calls": (per_pass(counts, "executor.map"), "count/pass"),
        "executor.overhead_s": (per_pass(self_s, "executor.map"), "s/pass"),
        "client.calls": (per_pass(counts, "client.complete"), "count/pass"),
        "client.self_s": (per_pass(self_s, "client.complete"), "s/pass"),
        "client.cache_hits": (
            per_pass(counts, "client.cache_hits"), "count/pass"),
        "cache.get_calls": (per_pass(counts, "cache.get"), "count/pass"),
        "cache.get_s": (per_pass(incl, "cache.get"), "s/pass"),
        "cache.put_calls": (per_pass(counts, "cache.put"), "count/pass"),
        "cache.put_s": (per_pass(incl, "cache.put"), "s/pass"),
        "usage.count_tokens_calls": (
            per_pass(counts, "usage.count_tokens"), "count/pass"),
        "usage.count_tokens_s": (
            per_pass(incl, "usage.count_tokens"), "s/pass"),
        "fm.parse_prompt_calls": (
            per_pass(counts, "fm.parse_prompt"), "count/pass"),
        "fm.parse_prompt_s": (per_pass(incl, "fm.parse_prompt"), "s/pass"),
        "fm.complete_self_s": (per_pass(self_s, "fm.complete"), "s/pass"),
    }
    for tier in TIERS:
        metrics[f"backends.calls.{tier}"] = (
            sum(p["calls_by_model"].get(tier, 0) for p in traced) / n,
            "count/pass",
        )
    metrics.update({
        "cascade.calibration_s": (
            per_pass(incl, "cascade.calibration"), "s/pass"),
        "cascade.escalations": (
            sum(p["escalations"] for p in traced) / n, "count/pass"),
        "serve.submit_s": (per_pass(incl, "serve.submit"), "s/pass"),
        "serve.queue_wait_ms_p50": (
            1000.0 * statistics.median(waits) if waits else 0.0, "ms"),
        "serve.examples_per_batch": (
            statistics.fmean(batches) if batches else 0.0, "examples"),
        "serve.group_s": (per_pass(incl, "serve.group"), "s/pass"),
        "serve.request_p99_ms": (
            1000.0 * quantile(latencies, 0.99) if serving else 0.0, "ms"),
        "datasets.load_s": (workload.load_s, "s"),
        "host.ref_loop_s": (ref_s, "s"),
        "trace.overhead_ratio": (untraced_eps / traced_eps, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no program source at {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        log(f"error: imported repro from {repro.__file__}, not {SRC}")
        return 2
    from instrument import Seams, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(sorted(WORKLOADS))}")
        return 2

    seams = Seams()
    seams.install()
    workload = WORKLOADS[args.workload](args.seed, seams)
    workload.setup()
    workload.warm_up()
    setup_s = _age_at_start() + (time.perf_counter() - _CLOCK_AT_START)
    log(f"{args.workload} seed {args.seed}: set-up {setup_s:.3f} s")
    ref_before = ref_loop()
    if args.trace:
        untraced = timed_passes(workload, args.seconds / 2, 2)
        tracer = Tracer()
        tracer.install(seams)
        traced = timed_passes(workload, args.seconds / 2, 2)
    else:
        untraced = timed_passes(workload, args.seconds, workload.min_passes)
    ref_after = ref_loop()
    finish = getattr(workload, "finish", None)
    if finish is not None:
        finish()
    log(f"host reference loop: {ref_before:.4f} s before, "
        f"{ref_after:.4f} s after the timed passes")
    for failure in workload.failures:
        log(f"CHECK FAILED {failure}")

    if args.trace:
        metrics = per_layer(workload, tracer, traced, untraced,
                            (ref_before + ref_after) / 2)
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-{args.seed}.json"
        dump.write_text(json.dumps({
            "counts": tracer.counts, "inclusive_s": tracer.incl,
            "self_s": tracer.self, "traced_passes": len(traced),
            "untraced_passes": len(untraced),
        }, indent=1, sort_keys=True))
        passes = untraced + traced
    else:
        metrics = end_to_end(untraced, setup_s)
        passes = untraced
    result = {
        "correct": not workload.failures,
        "attempted": sum(p["operations"] for p in passes),
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
