"""Run every workload on several seeds and summarize each metric.

Usage, from the root of a checkout::

    python3 perfbench/campaign.py [--out FILE] [WORKLOAD ...]

Runs ``run.py --trace 0`` on seeds 1-10 and ``run.py --trace 1`` on seeds
1-3, one run at a time, with ``run_seconds`` from ``BENCHMARK.json``.  For
every (workload, metric) pair it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, and prints every metric with its unit.  Every end-to-end
spread above a third of the metric's bound, ``setup_s`` included, is
flagged and makes the exit status 1.  Writes the summary and the machine
fingerprint as JSON to ``--out`` (default: stdout only).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))  # untraced runs
TRACED_SEEDS = SEEDS[:3]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    fingerprint = json.loads(next(l for l in lines if l.startswith("fingerprint "))[12:])
    return json.loads(lines[-1]), fingerprint


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, fingerprint, steady = {}, None, True
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = [(seed, 0) for seed in SEEDS] + [(seed, 1) for seed in TRACED_SEEDS]
        for seed, trace in runs:
            result, fingerprint = one_run(workload, seed, bench["run_seconds"], trace)
            if not result["correct"]:
                print(f"{workload} seed {seed} trace {trace}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
                steady = False
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {name: dict(summarize(v), unit=units[name])
                             for name, v in per_metric.items()}
        for name, stats in summary[workload].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] > bound / 3:
                flag = f"  > bound/3 ({bound:.0%})"
                steady = False
            print(f"{workload:18s} {name:36s} median {stats['median']:<11.5g} "
                  f"{stats['unit']:6s} spread {stats['spread']:7.2%} n={stats['n']}{flag}",
                  flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({"fingerprint": fingerprint, "seeds": SEEDS,
                                        "traced_seeds": TRACED_SEEDS,
                                        "workloads": summary}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
