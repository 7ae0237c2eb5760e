"""Record the reference outputs that ``run.py`` checks every operation against.

Usage, from the root of a checkout::

    python3 perfbench/record.py [WORKLOAD ...]

For each workload, runs its operation through the same child process as
the benchmark and writes ``perfbench/reference/<workload>.json``: the
exit status, the verdict names, and per seed the verdicts (name, pass or
fail, observed text) and every table.  A workload whose verb ignores the
seed is recorded once under ``"*"``; a seeded one under seeds 0-39.
Run it only on the commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run

SEEDS = 40  # a seeded workload is recorded for seeds 0..SEEDS-1


def record(name: str, seeds: int) -> dict:
    wl = run.WORKLOADS[name]
    ops = {}
    for seed in range(seeds if wl.seeded else 1):
        op = run.run_op(name, seed, deadline=time.monotonic() + 1e6, reference=None)
        if op.summary is None:
            sys.exit(f"{name} seed {seed}: no report ({'; '.join(op.problems)})")
        ops[str(seed) if wl.seeded else "*"] = op.summary
        print(f"{name} seed {seed}: exit {op.status} in {op.verdict_s:.1f} s", flush=True)
    statuses = {op["exit"] for op in ops.values()}
    names = {tuple(v[0] for v in op["verdicts"]) for op in ops.values()}
    if len(statuses) != 1 or len(names) != 1:
        sys.exit(f"{name}: exit status or verdict names vary by seed: {statuses}")
    return {
        "verb": wl.verb,
        "config": wl.config,
        "exit": statuses.pop(),
        "verdict_names": list(names.pop()),
        "ops": ops,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(run.WORKLOADS))
    args = parser.parse_args()
    out = run.HERE / "reference"
    out.mkdir(exist_ok=True)
    for name in args.workloads:
        reference = record(name, SEEDS)
        (out / f"{name}.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
