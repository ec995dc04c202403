"""Steadiness check: run one workload N times in two interleaved sets.

    python3 wranglebench/steady.py --workload serve_warm --runs 10

Set A takes seeds 1..N and set B seeds 101..100+N, run alternately
(A1, B1, A2, B2, ...) so host drift falls on both sets alike.  For each
end-to-end metric of ``BENCHMARK.json`` it prints each set's median and
quartiles, the quartile spread as a share of the median, and whether the
sets agree: every metric's spread within its bound in both sets, set B's
median within the bound of set A's in either direction, and the same
share of failed operations in both sets.  It is the tool the bounds were
set with.  Every run's record is written to
``.wranglebench-out/steady-<workload>.json``.  Exit code 0 means the
sets agree.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".wranglebench-out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed}")
    record = json.loads(lines[-1])
    record["seed"] = seed
    record["host"] = [
        line for line in completed.stderr.splitlines()
        if line.startswith("host reference loop")
    ]
    return record


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the bounds use them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets: list[list[dict]] = [[], []]
    for index in range(args.runs):
        for which, records in enumerate(sets):
            seed = 1 + 100 * which + index
            record = run_once(args.workload, seed, spec["run_seconds"])
            records.append(record)
            print(f"set {'AB'[which]} seed {seed}: correct={record['correct']} "
                  f"{' '.join(record['host'])}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.workload}.json").write_text(json.dumps(sets, indent=1))

    agree = all(r["correct"] for records in sets for r in records)
    shares = {
        sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)
        for records in sets
    }
    if len(shares) > 1:
        agree = False
    print(f"\n{args.workload}: {args.runs} runs per set, failed share "
          f"{sorted(shares)}")
    print(f"{'metric':28s} {'set':3s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for which, records in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in records]
            q1, med, q3 = summary(values)
            spread = (q3 - q1) / med if med else 0.0
            medians.append(med)
            flag = ""
            if spread > bound:
                flag, agree = " SPREAD", False
            print(f"{name:28s} {'AB'[which]:3s} {q1:12.6g} {med:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {bound:>6}{flag}")
        change = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
        verdict = "ok" if abs(change) <= bound else "SHIFT"
        agree = agree and abs(change) <= bound
        print(f"{'':28s} B vs A: {change:+.3f} ({verdict})")
    print("sets agree within bounds" if agree else "sets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
