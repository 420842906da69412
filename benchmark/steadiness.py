#!/usr/bin/env python3
"""Check that the benchmark is steady on unchanged code.

    python3 benchmark/steadiness.py [--workloads a,b] [--seeds 10] [--sets 2]

Runs ``run.py --trace 0`` once per seed and workload, in each of one or two
sets, and reports for every end-to-end metric the median and the quartile
spread (q3 - q1 as a share of the median, from
``statistics.quantiles(values, n=4)``) against the metric's bound in
BENCHMARK.json.  With two sets it also reports how far the second median
moved from the first in the metric's worse direction, and whether the share
of failed operations is exactly the same in both.  A spread should stay
below a third of its bound; ``setup_s`` is judged on its median only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated names; default all")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {(s, w): [] for s in range(args.sets) for w in workloads}
    for s in range(args.sets):
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                start = time.monotonic()
                result = run_once(w, seed, bench["run_seconds"])
                runs[(s, w)].append(result)
                print(f"set {s + 1} {w} seed {seed}: {time.monotonic() - start:.1f}s "
                      f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
    steady = True
    report = {}
    for w in workloads:
        print(f"\n{w}")
        medians = []
        for s in range(args.sets):
            results = runs[(s, w)]
            shares = {Fraction(r["failed"], r["attempted"]) for r in results}
            ok = all(r["correct"] for r in results)
            steady &= ok
            print(f"  set {s + 1}: all correct={ok}, failed shares={sorted(map(str, shares))}")
            row = {}
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, spread = summarize(values)
                row[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
                judged = name != "setup_s"
                flag = "" if not judged else (" ok" if spread < m["bound"] / 3 else
                                               " WITHIN BOUND" if spread <= m["bound"] else " TOO WIDE")
                steady &= not judged or spread <= m["bound"]
                print(f"    {name:22s} median {med:12.5g} {m['unit']:6s} q1 {q1:12.5g} q3 {q3:12.5g} "
                      f"spread {spread:7.2%} bound {m['bound']:.0%}{flag}")
            medians.append(row)
            report[f"{w}/set{s + 1}"] = row
        if args.sets == 2:
            first = {Fraction(r["failed"], r["attempted"]) for r in runs[(0, w)]}
            second = {Fraction(r["failed"], r["attempted"]) for r in runs[(1, w)]}
            same = first == second and len(first) == 1
            steady &= same
            print(f"  failed share identical in both sets: {same}")
            for name, m in metrics.items():
                a, b = medians[0][name]["median"], medians[1][name]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                steady &= worse <= m["bound"]
                print(f"    {name:22s} second vs first median: {worse:+7.2%} worse (bound {m['bound']:.0%})")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{int(time.time())}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
