"""One workload in one fresh interpreter: import pplogic from the checkout's
``src``, build the inputs from the seed, run whole rounds of the same
operations until the timed phase reaches the requested seconds, check every
output against the oracle, and print one JSON object.

Only the program's calls are timed; checks and cache clearing run between
rounds.  Every round starts with pplogic's module-level caches empty, as a
``pplogic`` process does.  ``verdicts_per_s`` is the median over rounds of
a round's correct verdicts per second, so that a burst of machine speed
inside one round does not move it.  With ``--trace 1`` a warm-up round is
followed by alternating untraced and traced rounds, so the tracing
overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import pplogic  # noqa: E402  (part of the set-up time, as in a pplogic process)
import workloads  # noqa: E402


def clear_program_caches() -> None:
    """Empty every functools cache held at module level in pplogic."""
    for name, module in list(sys.modules.items()):
        if name == "pplogic" or name.startswith("pplogic."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_round(ops) -> tuple:
    """Run every operation; returns (seconds spent in the program, results)
    where a result is ("ok", output) or ("failed", exception name)."""
    results = []
    clock = time.perf_counter
    spent = 0.0
    for op in ops:
        start = clock()
        try:
            output = op.run()
        except Exception as e:  # an operation that raises counts as failed
            spent += clock() - start
            results.append(("failed", type(e).__name__))
            continue
        spent += clock() - start
        results.append(("ok", output))
    return spent, results


def judge(ops, results, tally: dict) -> int:
    """Add a round's results to the tally; returns its correct verdicts."""
    before = tally["verdicts"]
    for op, (kind, value) in zip(ops, results):
        tally["attempted"] += 1
        if kind == "failed":
            tally["failed"] += 1
            tally["failures"][f"{op.name}: {value}"] = tally["failures"].get(f"{op.name}: {value}", 0) + 1
        elif workloads.judged(op, value):
            tally["verdicts"] += 1
            if op.scope is not None:
                tally["largest_scope"] = max(tally["largest_scope"], op.scope)
        else:
            tally["wrong"] += 1
            if len(tally["wrong_ops"]) < 5:
                tally["wrong_ops"].append(op.name)
    return tally["verdicts"] - before


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for work files and traces")
    args = parser.parse_args()

    if not Path(pplogic.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported pplogic from {pplogic.__file__}", file=sys.stderr)
        return 2
    out = Path(args.out)
    workdir = out / f"work-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        return measure(args, ops, ready, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, ready: float, out: Path) -> int:
    tally = {"attempted": 0, "failed": 0, "verdicts": 0, "wrong": 0,
             "largest_scope": 0, "failures": {}, "wrong_ops": []}
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    untraced, traced = [], []
    rates = []  # correct verdicts per second of each untraced round
    timed = 0.0
    if tracer is not None:
        # The first round in a process runs slower; keep it out of the
        # traced/untraced comparison.
        clear_program_caches()
        gc.collect()
        judge(ops, run_round(ops)[1], tally)
    while timed < args.seconds or (tracer is not None and len(traced) < len(untraced)):
        clear_program_caches()
        gc.collect()
        traced_round = tracer is not None and len(traced) < len(untraced)
        if traced_round:
            tracer.install()
            start = time.perf_counter()
        spent, results = run_round(ops)
        if traced_round:
            tracer.rounds.append([start, time.perf_counter()])
            tracer.uninstall()
            traced.append(spent)
        verdicts = judge(ops, results, tally)
        if not traced_round:
            untraced.append(spent)
            rates.append(verdicts / spent)
        timed += spent
    report = {
        "ready": ready,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "correct": tally["wrong"] == 0,
        "failures": tally["failures"],
        "wrong_ops": tally["wrong_ops"],
        "rounds": len(untraced) + len(traced),
        "timed_s": timed,
        "round_s": untraced,
        "metrics": {},
    }
    if tracer is None:
        report["metrics"] = {
            "verdicts_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "largest_scope_atoms": tally["largest_scope"],
        }
    else:
        layers = tracer.layer_metrics(sum(traced))
        per_round = {k: v / len(traced) for k, v in layers.items()}
        per_round["rcof.clauses_per_decision"] = layers["rcof.clauses_per_decision"]
        per_round["trace.untraced_round_s"] = statistics.median(untraced)
        per_round["trace.traced_round_s"] = statistics.median(traced)
        per_round["trace.overhead_s"] = per_round["trace.traced_round_s"] - per_round["trace.untraced_round_s"]
        report["metrics"] = per_round
        tracer.write(out / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
