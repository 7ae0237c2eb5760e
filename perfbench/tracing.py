"""Spans around sqglab's public functions, installed from outside the package.

The traced child calls :func:`install` after ``sqglab`` is imported.  It
wraps every public function of each sqglab module, a few class methods,
and ``scipy.fft.fft2``/``ifft2`` (which ``sqglab.spectral`` looks up at
call time).  A wrapper is rebound under every name any ``sqglab`` module
holds for the original, because ``solver``, ``runner`` and ``bilinear``
import functions by name.  Spans stay in memory and are written once,
when the operation has finished, together with the measured cost of one
wrapper call (:func:`span_cost`).

:func:`layer_metrics` turns the span files of one or more operations into
the per-layer metrics listed in ``PER_LAYER``.  A span's self time is its
duration minus the durations of its direct children, so the self times
of all spans of one operation add up to the duration of its root span,
``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from pathlib import Path

# Layers are the sqglab modules; ``cli.main`` counts as runner glue.
LAYERS = ("spectral", "profiles", "besov", "bilinear", "solver", "forcing",
          "diagnostics", "sampling", "reports", "runner")
METHODS = (
    ("profiles", "SmoothStep", "__call__"),
    ("besov", "DyadicPartition", "coverage"),
    ("besov", "DyadicPartition", "ring_values"),
)
FFT_SPANS = ("spectral.fft2", "spectral.ifft2")
SOLVER_LOOPS = ("solver.picard_solve", "solver.perturbation_solve")
BILINEAR_EVALS = ("bilinear.quadratic_diagonal", "bilinear.bilinear_block")

# (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("spectral.fft_calls", "count"),
    ("spectral.fft_points", "count"),
    ("spectral.fft_gflop_computed", "GFLOP"),
    ("spectral.fft_s", "s"),
    ("spectral.fft_max_mb", "MB"),
    ("spectral.multiply_calls", "count"),
    ("spectral.multiply_s", "s"),
    ("spectral.apply_symbol_s", "s"),
    ("spectral.self_s", "s"),
    ("bilinear.quadratic_diagonal_calls", "count"),
    ("bilinear.bilinear_block_calls", "count"),
    ("bilinear.quadratic_diagonal_s", "s"),
    ("bilinear.bilinear_block_s", "s"),
    ("bilinear.evals_per_iteration", "count"),
    ("bilinear.self_s", "s"),
    ("besov.besov_norm_calls", "count"),
    ("besov.besov_norm_s", "s"),
    ("besov.fft_calls_per_norm", "count"),
    ("besov.coverage_calls", "count"),
    ("besov.ring_values_s", "s"),
    ("besov.self_s", "s"),
    ("profiles.smooth_step_s", "s"),
    ("profiles.self_s", "s"),
    ("solver.iterations", "count"),
    ("solver.s_per_iteration", "s"),
    ("solver.picard_solve_s", "s"),
    ("solver.perturbation_solve_s", "s"),
    ("solver.estimate_constants_s", "s"),
    ("solver.self_s", "s"),
    ("forcing.force_s", "s"),
    ("forcing.self_s", "s"),
    ("diagnostics.low_frequency_s", "s"),
    ("diagnostics.self_s", "s"),
    ("sampling.random_field_s", "s"),
    ("sampling.self_s", "s"),
    ("reports.emit_s", "s"),
    ("reports.bytes_written", "bytes"),
    ("reports.self_s", "s"),
    ("runner.self_s", "s"),
    ("trace.verdict_s", "s"),
    ("trace.untraced_verdict_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_share", "share"),
    ("trace.count_drift", "count"),
)

# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "spectral.fft_calls",
    "spectral.fft_points",
    "spectral.multiply_calls",
    "bilinear.quadratic_diagonal_calls",
    "bilinear.bilinear_block_calls",
    "besov.besov_norm_calls",
    "besov.coverage_calls",
    "solver.iterations",
)


class Recorder:
    """Append-only span list; a span is ``[name, start, end, parent, extra]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = before(args) if before is not None else None
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, extra]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if after is not None:
                span[4] = after(result)
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans,
                                          "span_cost_s": span_cost()}))


def span_cost() -> float:
    """Seconds a wrapper adds to one call, timed around a function that does nothing.

    Wall time on a shared machine varies by far more than the tracer costs,
    so ``trace.overhead_s`` is this cost times the number of spans, not the
    difference of a traced and an untraced operation.
    """
    def nothing():
        return None

    calls = 20_000
    wrapped = Recorder().wrap("calibration", nothing)
    clock = time.perf_counter
    best = math.inf
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            nothing()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best = min(best, (t2 - t1 - (t1 - t0)) / calls)
    return max(best, 0.0)


def _fft_input(args) -> list:
    a = args[0]
    n = a.shape[-1] * a.shape[-2]
    return [int(a.size), int(n), int(a.nbytes)]


def _iterations(result) -> int:
    return int(result[1].iterations)


def _bytes_written(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


_AFTER = {
    "solver.picard_solve": _iterations,
    "solver.perturbation_solve": _iterations,
    "reports.emit_report": _bytes_written,
}


def _rebind(original, replacement) -> int:
    """Point every sqglab module attribute holding ``original`` at ``replacement``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sqglab" or name.startswith("sqglab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


def install() -> Recorder:
    """Wrap sqglab's public functions and the FFT entry points; return the recorder."""
    import scipy.fft  # here, so the parent process never loads scipy

    recorder = Recorder()
    for layer in LAYERS:
        module = importlib.import_module(f"sqglab.{layer}")
        for fname in _public_functions(module):
            original = getattr(module, fname)
            span = f"{layer}.{fname}"
            _rebind(original, recorder.wrap(span, original, after=_AFTER.get(span)))
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"sqglab.{layer}"), cls_name)
        original = cls.__dict__[meth]
        span = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, recorder.wrap(span, original))
    for fname in ("fft2", "ifft2"):
        original = getattr(scipy.fft, fname)
        setattr(scipy.fft, fname,
                recorder.wrap(f"spectral.{fname}", original, before=_fft_input))
    cli = importlib.import_module("sqglab.cli")
    if _rebind(cli.main, recorder.wrap("cli.main", cli.main)) == 0:
        raise RuntimeError("sqglab.cli.main could not be wrapped")
    return recorder


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _has_ancestor(spans: list[list], i: int, names: tuple[str, ...]) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "runner" if layer == "cli" else layer


def root_duration(spans: list[list]) -> float:
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer totals over the span files of several operations.

    The ``trace.*`` entries other than ``trace.attributed_s`` and
    ``trace.overhead_s`` depend on wall times outside the spans and are
    filled in by the caller.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fft_points = fft_max = iterations = loop_s = bytes_written = 0
    gflop = 0.0
    fft_in_norm = evals_in_loop = 0
    attributed = overhead = 0.0
    for op in ops:
        spans = op["spans"]
        overhead += len(spans) * op["span_cost_s"]
        own = self_times(spans)
        attributed += root_duration(spans)
        for i, (name, start, end, _parent, extra) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            layer_self[layer_of(name)] += own[i]
            if name in FFT_SPANS:
                points, n, nbytes = extra
                fft_points += points
                fft_max = max(fft_max, nbytes)
                gflop += 5.0 * points * math.log2(n) / 1e9
                if _has_ancestor(spans, i, ("besov.besov_norm",)):
                    fft_in_norm += 1
            elif name in SOLVER_LOOPS:
                iterations += extra
                if not _has_ancestor(spans, i, SOLVER_LOOPS):
                    loop_s += end - start
            elif name in BILINEAR_EVALS and _has_ancestor(spans, i, SOLVER_LOOPS):
                evals_in_loop += 1
            elif name == "reports.emit_report":
                bytes_written += extra

    def n(span: str) -> int:
        return calls.get(span, 0)

    def own_s(*names: str) -> float:
        return sum(self_s.get(s, 0.0) for s in names)

    norms = n("besov.besov_norm")
    out = {
        "spectral.fft_calls": n("spectral.fft2") + n("spectral.ifft2"),
        "spectral.fft_points": fft_points,
        "spectral.fft_gflop_computed": gflop,
        "spectral.fft_s": own_s(*FFT_SPANS),
        "spectral.fft_max_mb": fft_max / 2**20,
        "spectral.multiply_calls": n("spectral.multiply"),
        "spectral.multiply_s": own_s("spectral.multiply"),
        "spectral.apply_symbol_s": own_s("spectral.apply_symbol"),
        "bilinear.quadratic_diagonal_calls": n("bilinear.quadratic_diagonal"),
        "bilinear.bilinear_block_calls": n("bilinear.bilinear_block"),
        "bilinear.quadratic_diagonal_s": own_s("bilinear.quadratic_diagonal"),
        "bilinear.bilinear_block_s": own_s("bilinear.bilinear_block"),
        "bilinear.evals_per_iteration": evals_in_loop / iterations if iterations else 0.0,
        "besov.besov_norm_calls": norms,
        "besov.besov_norm_s": own_s("besov.besov_norm"),
        "besov.fft_calls_per_norm": fft_in_norm / norms if norms else 0.0,
        "besov.coverage_calls": n("besov.DyadicPartition.coverage"),
        "besov.ring_values_s": own_s("besov.DyadicPartition.ring_values"),
        "profiles.smooth_step_s": own_s("profiles.SmoothStep.__call__"),
        "solver.iterations": iterations,
        "solver.s_per_iteration": loop_s / iterations if iterations else 0.0,
        "solver.picard_solve_s": own_s("solver.picard_solve"),
        "solver.perturbation_solve_s": own_s("solver.perturbation_solve"),
        "solver.estimate_constants_s": own_s("solver.estimate_constants"),
        "forcing.force_s": own_s("forcing.modulated_bump_force", "forcing.lacunary_force",
                                 "forcing.translated_block_force", "forcing.block_envelope"),
        "diagnostics.low_frequency_s": own_s("diagnostics.low_frequency_floor",
                                             "diagnostics.low_frequency_profile"),
        "sampling.random_field_s": own_s("sampling.random_mean_zero_field"),
        "reports.emit_s": own_s("reports.emit_report"),
        "reports.bytes_written": bytes_written,
        "trace.attributed_s": attributed,
        "trace.overhead_s": overhead,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
