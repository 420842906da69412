#!/usr/bin/env python3
"""pplogic's benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh interpreter (``worker.py``), one process and
one thread at a time, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; set-up time is the median over
several fresh interpreters, each timed from its start to its inputs being
built.  With ``--trace 1`` they are the per-layer ones from spans around
the entry points of each pplogic module.  Results and traces go to
``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("collapse-sweep", "conservative-sweep", "scope-ladder", "semantics-mix")
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s, the measured run included
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "largest_scope_atoms": "atoms",
}


class BenchError(RuntimeError):
    pass


def spawn(args, *extra) -> tuple:
    """Run the worker; returns (seconds from spawn to inputs built, report)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(OUT), *extra]
    # a fixed hash seed makes a seed's run behave the same every time
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{stderr}")
    report = json.loads(stdout.strip().splitlines()[-1])
    return report["ready"] - start, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "pplogic" / "__init__.py").is_file():
        print(f"error: no pplogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, "--setup-only")[0])
        setup, report = spawn(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(setup)
    if args.trace:
        import tracing

        units = tracing.metric_units()
    else:
        report["metrics"]["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    detail = {k: report[k] for k in ("rounds", "timed_s", "round_s", "failures", "wrong_ops")}
    detail["setup_samples_s"] = setups
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}))
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, **detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
