"""Fast self-check of the benchmark on desk-scale lattices.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Swaps each workload for the same verb on a small lattice, records its
reference on the spot, and checks that:

* an untraced and a traced run print, as their last line, one JSON object
  with exactly the end-to-end or per-layer metrics of ``BENCHMARK.json``,
  each with its unit, and no failed operation;
* the exact counts repeat between two traced runs and the wrapped layers
  were reached (FFTs, Besov norms, solver iterations, bilinear calls
  inside the solver loop);
* every span's self time is non-negative, and the self times of the root
  and of all its descendants add up to the root's duration;
* the reference comparison accepts rounding and rejects a larger change,
  both on made-up reports and on a copy of ``src`` whose FFTs go through
  ``numpy.fft`` instead of ``scipy.fft``, a change of rounding only.

Exits 0 when every check passes and 1 otherwise; takes about a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import sys
import time

import record
import run
import tracing

DESK = {
    "fixed-point-m128": run.Workload("solve", {"m": 32}, True, 2),
    "perturbation-m256": run.Workload(
        "illpose-step1", {"m": 128, "h_xi": 0.25, "size_range": [4, 5]}, False, 1),
    "one-pass-m1024": run.Workload(
        "illpose-step2", {"m": 256, "h_xi": 0.25, "size_range": [1, 2]}, False, 1),
}

# Appended to the copy's spectral.py: every FFT through numpy.fft, whose
# results differ from scipy.fft's in the last bits.
NUMPY_FFT = """


def _fft2(a, overwrite=False):
    return np.fft.fft2(a, norm="forward")


def _ifft2(a, overwrite=False):
    return np.fft.ifft2(a, norm="forward")
"""

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        failures.append(message)


def last_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    expect(code == 0, f"run.py {' '.join(argv)} exits 0")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict], label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result has exactly the four keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: {result['attempted']} operations, none failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{label}: every declared metric printed with its unit")
    expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
           f"{label}: every value is finite")


def check_spans(name: str) -> None:
    path = run.OUT / "selfcheck-spans.json"
    op = run.run_op(name, 0, time.monotonic() + 120, None, trace=path)
    spans = json.loads(path.read_text())["spans"]
    path.unlink()
    expect(not op.problems, f"{name}: traced operation ran ({op.problems})")
    own = tracing.self_times(spans)
    expect(min(own) >= -1e-9, f"{name}: self times non-negative (min {min(own):.2e} s)")
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    expect([spans[i][0] for i in roots] == ["cli.main"], f"{name}: one root span, cli.main")
    total = sum(own)
    root = tracing.root_duration(spans)
    expect(abs(total - root) <= 1e-9 * root,
           f"{name}: self times add up to the root duration ({total:.6f} vs {root:.6f} s)")


def check_compare() -> None:
    ref = {"exit": 0, "partial": False,
           "verdicts": [["v", True, "0.1234 vs 2.000e-12"]],
           "tables": [["t", ["a", "b", "ratio"], [[1.0, "x", 0.1]]]]}
    near = copy.deepcopy(ref)
    near["verdicts"][0][2] = "0.1235 vs 5.000e-12"
    near["tables"][0][2][0][0] = 1.0 + 1e-13
    near["tables"][0][2][0][2] = 0.1 * (1 + 1e-6)
    far = copy.deepcopy(ref)
    far["tables"][0][2][0][0] = 1.0 + 1e-6
    far["tables"][0][2][0][2] = 0.1 * (1 + 1e-3)
    expect(run.compare(ref, near) == [], "comparison accepts rounding-level changes")
    expect(len(run.compare(ref, far)) == 2,
           "comparison rejects a 1e-6 relative change, and 1e-3 in a quotient")


def check_rounding(references: dict) -> None:
    """Operations of a copy of src/ with numpy.fft FFTs match the references."""
    src = run.SRC
    run.SRC = run.OUT / "selfcheck-src"
    shutil.rmtree(run.SRC, ignore_errors=True)
    shutil.copytree(src, run.SRC, ignore=shutil.ignore_patterns("__pycache__"))
    spectral = run.SRC / "sqglab" / "spectral.py"
    spectral.write_text(spectral.read_text() + NUMPY_FFT)
    try:
        differs = False
        for name, reference in references.items():
            for key, expected in reference["ops"].items():
                seed = 0 if key == "*" else int(key)
                op = run.run_op(name, seed, time.monotonic() + 120, reference)
                expect(not op.problems,
                       f"{name} seed {seed}: numpy.fft copy matches the reference "
                       f"({op.problems})")
                differs |= op.summary != expected
        # a copy that reproduced every bit would have tested nothing
        expect(differs, "numpy.fft copy changed some reported value")
    finally:
        shutil.rmtree(run.SRC, ignore_errors=True)
        run.SRC = src


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json names the benchmark's workloads")
    check_compare()
    run.WORKLOADS.clear()
    run.WORKLOADS.update(DESK)
    run.SETUP_SAMPLES = 2
    references = {name: record.record(name, 3) for name in DESK}
    run.load_reference = references.__getitem__
    check_rounding(references)
    for name in DESK:
        args = ["--workload", name, "--seed", "0", "--seconds", "0.1"]
        check_result(last_json(args + ["--trace", "0"]), declared["end_to_end"],
                     f"{name} untraced")
        first = last_json(args + ["--trace", "1"])
        check_result(first, declared["per_layer"], f"{name} traced")
        second = last_json(args + ["--trace", "1"])
        repeat = all(first["metrics"][k]["value"] == second["metrics"][k]["value"]
                     for k in tracing.EXACT_COUNTS)
        expect(repeat and second["metrics"]["trace.count_drift"]["value"] == 0,
               f"{name}: exact counts repeat between traced runs")
        metrics = {k: v["value"] for k, v in first["metrics"].items()}
        expect(metrics["spectral.fft_calls"] > 0 and metrics["besov.besov_norm_calls"] > 0,
               f"{name}: FFT and Besov spans recorded")
        expect(metrics["solver.iterations"] == 0 or metrics["bilinear.evals_per_iteration"] > 0,
               f"{name}: bilinear calls seen inside the solver loop")
        expect(0 < metrics["trace.overhead_s"] < metrics["trace.verdict_s"],
               f"{name}: tracer cost measured and below the traced time")
        check_spans(name)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
