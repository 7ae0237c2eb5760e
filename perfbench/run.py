"""sqglab benchmark: time to verdict, set-up time and peak memory per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one fresh child process (``child.py``) that imports
``sqglab`` from this checkout's ``src`` and runs one CLI verb through
``sqglab.cli.main``; children run one at a time.  The parent times the
child from spawn to ``ready`` (set-up) and from ``ready`` to ``done``
(time to verdict), reads the child's own peak RSS with ``os.wait4``, and
checks every report against ``reference/<workload>.json``.

``--trace 0`` runs operations until ``--seconds`` have passed and prints
the end-to-end metrics.  ``--trace 1`` runs a fixed list of operations
once with spans recorded (``tracing.py``) and once without, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

# Set-up samples per run: every operation's child gives one, an import-only
# child after each operation gives one more, so that the samples spread
# over the run as the operations do, and import-only children at the end
# make up the rest.
SETUP_SAMPLES = 15
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
# One FFT worker: on a small shared VM a second worker slows the m=128 and
# m=256 lattices and makes every timing noisier.
FFT_WORKERS = 1
# Numbers in reports agree when they differ by no more than rounding:
# |a - b| <= RTOL * max(|a|, |b|) + ATOL.  Residuals are differences of
# iterates of norm about 1, so a change of rounding moves them by about
# 1e-17 absolute, however small they are; ATOL covers that.
RTOL, ATOL = 1e-9, 1e-11
# A quotient of two such residuals (``solve``'s per-iteration contraction
# ``ratio`` and its maximum ``worst_ratio``) inherits their error relative
# to their size, which grows as the iteration converges.  Computing the
# FFTs with numpy.fft instead of scipy.fft moved these columns by up to
# 1e-6 relative over the 40 recorded seeds, and the residuals by up to
# 2e-17 absolute.
QUOTIENT_COLUMNS = ("ratio", "worst_ratio")
QUOTIENT_RTOL = 1e-4

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)


@dataclass(frozen=True)
class Workload:
    verb: str
    config: dict
    seeded: bool  # whether the verb's computation depends on --seed
    trace_ops: int  # operations in a traced run


WORKLOADS = {
    # many small calls around the Picard loop at acceptance defaults
    "fixed-point-m128": Workload("solve", {}, True, 2),
    # the supercritical perturbation loop: padded products, Besov norms
    "perturbation-m256": Workload("illpose-step1", {"m": 256, "size_range": [4, 5]},
                                  False, 1),
    # no fixed-point loop; the 2048^2 padded transforms set the memory peak
    "one-pass-m1024": Workload("illpose-step2", {"m": 1024, "h_xi": 0.25}, False, 1),
}


@dataclass
class Op:
    seed: int
    setup_s: float | None = None
    verdict_s: float | None = None
    rss_mb: float | None = None
    status: int | None = None
    summary: dict | None = None
    problems: list[str] = field(default_factory=list)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def fingerprint() -> dict:
    """Read-only facts about the machine and libraries the run used."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    meminfo = _read("/proc/meminfo") or ""
    avail = re.search(r"^MemAvailable:\s*(\d+) kB", meminfo, re.M)
    limit = (_read("/sys/fs/cgroup/memory.max")
             or _read("/sys/fs/cgroup/memory/memory.limit_in_bytes"))

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1).strip() if model else platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "fft_workers": FFT_WORKERS,
        "mem_available_mb": int(avail.group(1)) / 1024 if avail else None,
        "cgroup_memory_max": limit.strip() if limit else None,
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def spawn(deadline: float, verb_args: list[str] | None = None,
          trace: Path | None = None) -> Op:
    """Run one child; fill in set-up, verdict time, peak RSS and status."""
    op = Op(seed=-1)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if verb_args is not None:
        cmd += ["--"] + verb_args
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = None
        for line in proc.stdout:
            now = time.perf_counter()
            if line == "PERFBENCH ready\n":
                ready = now
                op.setup_s = now - start
            elif line.startswith("PERFBENCH done ") and ready is not None:
                op.verdict_s = now - ready
                op.status = int(line.split()[2])
        proc.stdout.close()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    finally:
        timer.cancel()
        if proc.returncode is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    op.rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        op.problems.append(f"child exited with {proc.returncode}")
    if op.setup_s is None:
        op.problems.append("child never reported ready")
    elif verb_args is not None and op.status is None:
        op.problems.append("child never reported done")
    return op


def run_op(name: str, seed: int, deadline: float, reference: dict | None,
           trace: Path | None = None) -> Op:
    """One operation of a workload, checked against ``reference`` when given."""
    wl = WORKLOADS[name]
    out_dir = OUT / "ops" / f"{name}-{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    args = [wl.verb, "--out", str(out_dir), "--seed", str(seed),
            "--threads", str(FFT_WORKERS)]
    if wl.config:
        cfg = out_dir / "config.json"
        cfg.write_text(json.dumps(wl.config))
        args += ["--config", str(cfg)]
    op = spawn(deadline, args, trace)
    op.seed = seed
    report_path = out_dir / f"{wl.verb}_report.json"
    if op.status is not None and op.status != 2 and report_path.exists():
        op.summary = summarize(op.status, json.loads(report_path.read_text()))
    if reference is not None:
        op.problems += check(reference, seed, op)
    shutil.rmtree(out_dir, ignore_errors=True)
    return op


# ---------------------------------------------------------------------------
# Reference outputs
# ---------------------------------------------------------------------------


def load_reference(name: str) -> dict:
    return json.loads((HERE / "reference" / f"{name}.json").read_text())


def summarize(status: int, report: dict) -> dict:
    """The parts of a report the benchmark compares: verdicts and tables."""
    return {
        "exit": status,
        "partial": report["partial"],
        "verdicts": [[v["name"], v["passed"], v["observed"]] for v in report["verdicts"]],
        "tables": [[t["name"], t["columns"], t["rows"]] for t in report["tables"]],
    }


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(a: float, b: float, slack: float = 0.0, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + ATOL + slack


def _last_place(token: str) -> float:
    """Value of one unit in the last printed digit of a number."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 10.0 ** (int(exponent or 0) - decimals)


def _same_text(a: str, b: str) -> bool:
    """Printed values agree up to rounding of their last printed digit."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return False
    return all(_close(float(x), float(y), _last_place(x))
               for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)))


def _same_cell(a, b, rtol: float) -> bool:
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool) \
            and not isinstance(b, bool):
        return _close(float(a), float(b), rtol=rtol)
    return a == b


def compare(expected: dict, got: dict) -> list[str]:
    """Differences beyond rounding between two report summaries."""
    problems = []
    if got["exit"] != expected["exit"]:
        problems.append(f"exit status {got['exit']}, reference {expected['exit']}")
    if got["partial"] != expected["partial"]:
        problems.append(f"partial={got['partial']}, reference {expected['partial']}")
    if [v[0] for v in got["verdicts"]] != [v[0] for v in expected["verdicts"]]:
        return problems + ["verdict names differ"]
    for (name, passed, observed), (_, ref_passed, ref_observed) in zip(
            got["verdicts"], expected["verdicts"]):
        if passed != ref_passed:
            problems.append(f"verdict {name}: passed={passed}, reference {ref_passed}")
        if not _same_text(observed, ref_observed):
            problems.append(f"verdict {name}: observed {observed!r}, "
                            f"reference {ref_observed!r}")
    if [t[:2] for t in got["tables"]] != [t[:2] for t in expected["tables"]]:
        return problems + ["table names or columns differ"]
    for (name, columns, rows), (_, _, ref_rows) in zip(got["tables"], expected["tables"]):
        if len(rows) != len(ref_rows):
            problems.append(f"table {name}: {len(rows)} rows, reference {len(ref_rows)}")
            continue
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for col, a, b in zip(columns, row, ref_row):
                rtol = QUOTIENT_RTOL if col in QUOTIENT_COLUMNS else RTOL
                if not _same_cell(a, b, rtol):
                    problems.append(f"table {name} row {i} {col}: {a!r}, reference {b!r}")
    return problems


def check(reference: dict, seed: int, op: Op) -> list[str]:
    """Compare one operation with the reference recorded at the seed commit.

    Seeds without a recorded report are checked for the verdict names and
    the exit status only.
    """
    got = op.summary
    if got is None:
        return [] if op.problems else [f"no report (exit {op.status})"]
    expected = reference["ops"].get("*") or reference["ops"].get(str(seed))
    if expected is not None:
        return compare(expected, got)
    problems = []
    if got["exit"] != reference["exit"]:
        problems.append(f"exit status {got['exit']}, reference {reference['exit']}")
    if [v[0] for v in got["verdicts"]] != reference["verdict_names"]:
        problems.append("verdict names differ from the reference")
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, deadline: float) -> tuple[list[Op], dict]:
    """Untraced run: operations until ``seconds`` pass, and set-up samples."""
    reference = load_reference(name)
    spawn(deadline)  # warm-up: byte-code and page caches, not recorded
    ops: list[Op] = []
    setup_only: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(run_op(name, seed + len(ops), deadline, reference))
        setup_only.append(spawn(deadline))
    while len(ops) + len(setup_only) < SETUP_SAMPLES:
        setup_only.append(spawn(deadline))
    setups = [op.setup_s for op in ops + setup_only if op.setup_s is not None]
    done = [op for op in ops if op.verdict_s is not None]
    failed = sum(1 for op in ops if op.problems)
    metrics = {
        "setup_s": _median(setups),
        "verdict_s": _median([op.verdict_s for op in done]),
        "peak_rss_mb": _median([op.rss_mb for op in done]),
        "ok_share": (len(ops) - failed) / len(ops),
    }
    return ops, metrics


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def count_drift(name: str, seeds: list[int], metrics: dict) -> list[str]:
    """Compare exact counts with an earlier traced run of the same code and seeds."""
    counts = {k: metrics[k] for k in tracing.EXACT_COUNTS}
    key = f"{_code_hash()}-{name}-{'_'.join(map(str, seeds))}.json"
    path = OUT / "counts" / key
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts))
        return []
    earlier = json.loads(path.read_text())
    return [f"{k}: {counts[k]} now, {earlier[k]} before"
            for k in tracing.EXACT_COUNTS if counts[k] != earlier.get(k)]


def traced(name: str, seed: int, deadline: float) -> tuple[list[Op], dict]:
    """Traced run: a fixed list of operations, each with spans and then without."""
    reference = load_reference(name)
    seeds = [seed + i for i in range(WORKLOADS[name].trace_ops)]
    span_dir = OUT / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    spawn(deadline)  # warm-up, as in the untraced run
    with_spans, without, span_files = [], [], []
    for s in seeds:
        path = span_dir / f"{name}-{s}.json"
        op = run_op(name, s, deadline, reference, trace=path)
        with_spans.append(op)
        if path.exists():
            span_files.append(json.loads(path.read_text()))
            path.unlink()
        elif not op.problems:
            op.problems.append("traced child wrote no spans")
        without.append(run_op(name, s, deadline, reference))
    metrics = tracing.layer_metrics(span_files)
    traced_s = sum(op.verdict_s or 0.0 for op in with_spans)
    untraced_s = sum(op.verdict_s or 0.0 for op in without)
    attributed = metrics.pop("trace.attributed_s")
    drift = count_drift(name, seeds, metrics)
    for line in drift:
        print(f"count drift in {name}: {line}", file=sys.stderr)
    metrics.update({
        "trace.verdict_s": traced_s,
        "trace.untraced_verdict_s": untraced_s,
        "trace.attributed_share": attributed / traced_s if traced_s else 0.0,
        "trace.count_drift": len(drift),
    })
    ops = with_spans + without
    if drift:
        ops[0].problems.append("exact counts drifted")
    return ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "sqglab" / "__init__.py").is_file():
        print(f"perfbench: no sqglab package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.trace:
            ops, values = traced(args.workload, args.seed, deadline)
            units = dict(tracing.PER_LAYER)
        else:
            ops, values = measure(args.workload, args.seed, args.seconds, deadline)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(OUT / "ops", ignore_errors=True)
        shutil.rmtree(OUT / "spans", ignore_errors=True)

    failed = sum(1 for op in ops if op.problems)
    for op in ops:
        for problem in op.problems:
            print(f"{args.workload} seed {op.seed}: {problem}", file=sys.stderr)
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(f"{args.workload}: {len(ops)} operations, {failed} failed; "
          + ", ".join(f"seed {op.seed}: {op.verdict_s or 0.0:.3f} s" for op in ops))
    for key, unit in units.items():
        print(f"  {key:36s} {values[key]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
