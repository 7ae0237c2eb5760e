"""Fixed-point machinery for the stationary balance theta = Lf + B[theta, theta].

``picard_solve`` iterates the contraction map from the zero guess and
``perturbation_solve`` the same map re-centred on the sum of the first two
Picard iterates, each with one quadratic form per iterate.
``estimate_constants`` samples the operator norms behind the thresholds.

Sign convention: the physically consistent fixed point is

    theta_{n+1} = Lf - (-Delta)^{-1} div(theta_n u_n)

i.e. the module constant ``QUADRATIC_SIGN = -1``; with that choice the
stationary residual -Delta(theta) + u.grad(theta) - f of a converged
iterate vanishes.  The sign is kept explicit (and tested) rather than
folded silently into the bilinear form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .besov import (
    BesovIndex,
    _absolute_sum,
    _check_mean_zero,
    _norm_bounds,
    _quadrature_fits,
    besov_norm,
)
from .bilinear import bilinear_block, quadratic_diagonal
from .sampling import _inner_edge_field, random_mean_zero_field, single_shell_field
from .spectral import FrequencyLattice, SpectralField, inverse_laplacian, neg_laplacian

__all__ = [
    "QUADRATIC_SIGN",
    "SolveConfig",
    "IterationTrace",
    "ConstantsReport",
    "picard_solve",
    "perturbation_solve",
    "bilinear_ratio",
    "estimate_constants",
]

_TINY = 1e-300

# Fewest samples of each constant that :func:`estimate_constants` takes as
# a stable estimate.
_MIN_SAMPLES = 50

# Sign of the quadratic term in theta = Lf + sign * B[theta, theta]; the
# PDE defect of every iterate pins it (see the module docstring).
QUADRATIC_SIGN = -1


@dataclass(frozen=True)
class SolveConfig:
    """Iteration budget, stopping rule, and monitoring index.

    ``index`` is the norm every trace entry is measured in; the default is
    the endpoint well-posed space (s, p, q) = (-1/2, 4, 2).  ``tol`` is
    relative: iteration stops when the update is below ``tol`` times the
    iterate's norm.
    """

    index: BesovIndex = BesovIndex(-0.5, 4.0, 2.0)
    tol: float = 1e-10
    max_iter: int = 64

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    @property
    def data_index(self) -> BesovIndex:
        """Data-side regularity two derivatives below the monitoring index."""
        return BesovIndex(self.index.s - 2.0, self.index.p, self.index.q)


@dataclass
class IterationTrace:
    """Per-iteration diagnostics of a fixed-point run, one entry per step.

    ``norms[n]`` is the monitoring norm of iterate n+1, ``residuals[n]``
    the norm of the update that produced it, ``pde_residuals[n]`` the
    stationary-equation defect measured in the data norm.  ``ratios`` has
    one entry fewer than ``residuals``.

    :func:`picard_solve` fills every entry.  :func:`perturbation_solve`
    fills what its readers read: ``norms`` and ``residuals`` hold NaN where
    a bound proved that the stopping test would not stop (:func:`_iterate`),
    and ``pde_residuals`` is NaN before the last entry.  The last entry of
    each column is always filled, with the very bits of the every-entry
    loop.
    """

    verdict: str = "max_iter"
    norms: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    pde_residuals: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.norms)

    @property
    def ratios(self) -> list[float]:
        return [
            b / a if a > 0.0 else math.inf
            for a, b in zip(self.residuals, self.residuals[1:])
        ]

    def worst_ratio(self) -> float:
        """Largest contraction ratio but the first, the one against the start."""
        tail = self.ratios[1:]
        return max(tail) if tail else 0.0


def _finite(f: SpectralField) -> bool:
    return bool(np.isfinite(f.coeffs).all())


def _continues(update_low: float, iterate_high: float, tol: float) -> bool:
    """Whether an update of norm at least ``update_low`` fails the stopping
    test against every iterate norm up to ``iterate_high``, with a factor 2
    to spare for rounding.  NaN or infinite bounds prove nothing."""
    return update_low > 2.0 * tol * max(iterate_high, _TINY)


def _bounded_norms(
    theta: SpectralField,
    update_field: SpectralField,
    bound: float,
    cfg: SolveConfig,
) -> tuple[float | None, float | None, float]:
    """The norms of an iterate and of its update that the stopping test
    cannot do without, None for each one it can, and the new upper bound of
    the iterate's norm; ``bound`` is that of the previous iterate.

    Both are skipped when :func:`~sqglab.besov._norm_bounds` puts the
    update's norm so far above ``tol`` times ``bound`` plus the update's that
    the test cannot stop; the iterate's alone when the exact update's norm
    does (the triangle inequality).  Neither is skipped unless the iterate's
    quadrature provably stays finite (:func:`~sqglab.besov._quadrature_fits`),
    so a skip never hides a divergence; a skipped norm of a field with a
    non-zero mean is refused all the same, as :func:`besov_norm` refuses it.
    """
    _check_mean_zero(theta)
    if _quadrature_fits(_absolute_sum(theta), cfg.index, theta.lattice):
        low, high = _norm_bounds(update_field, cfg.index)
        if _continues(low, bound + high, cfg.tol):
            return None, None, bound + high
        update = besov_norm(update_field, cfg.index)
        if _continues(update, bound + update, cfg.tol):
            return None, update, bound + update
    else:
        update = None
    norm = besov_norm(theta, cfg.index)
    if update is None:
        update = besov_norm(update_field, cfg.index)
    return norm, update, norm


def _defect_norm(theta: SpectralField, quad: SpectralField, f: SpectralField,
                 index: BesovIndex) -> float:
    """Norm of the stationary defect -Delta(theta) + div(theta u) - f, with
    div(theta u) = (-Delta) ``quad`` recovered from the sign-free quadratic
    form ``quad`` = B[theta, theta], so the defect itself pins the sign."""
    return besov_norm(neg_laplacian(theta) + neg_laplacian(quad) - f, index)


def _iterate(
    start: SpectralField,
    step,
    quad_term,
    defect_norm,
    cfg: SolveConfig,
    every_iteration: bool = True,
) -> tuple[SpectralField, IterationTrace]:
    """Shared fixed-point loop: ``step(theta, quad)`` maps an iterate to the next.

    ``quad_term(theta)`` is the quadratic term of an iterate, or None, and
    ``defect_norm(theta, quad)`` the defect norm of an iterate with that
    term.  The term is evaluated once for every iterate, ``start``
    included, and handed to the defect of that iterate and to the step
    from it, which may use it instead of evaluating the form again.

    With ``every_iteration`` the trace holds every norm.  Without it the
    loop takes the norms only where the stopping test needs them
    (:class:`IterationTrace`): on the ``max_iter`` step, and wherever
    :func:`_bounded_norms` cannot prove that the test goes on.  An upper
    bound of the iterate's norm is kept for that, its last exact norm plus
    the norm or bound of every update since.  The defect is taken once, for
    the returned iterate.  Verdict, iteration count, returned iterate and
    the last entry of each column are bitwise those of every iteration.

    A step that is not finite or a term that raises ``FloatingPointError``,
    as a form that overflows does, ends the loop as ``diverged`` on the last
    iterate whose term is finite (``start``, with an empty trace, when its
    own term overflows).  Without ``every_iteration`` the loop is then
    replayed to that iterate, which takes every norm as the last."""
    trace = IterationTrace()
    theta = start
    bound = math.inf if every_iteration else _norm_bounds(start, cfg.index)[1]
    for n in range(1, cfg.max_iter + 1):
        try:
            # a form or step leaving the float range signals divergence
            with np.errstate(over="ignore", invalid="ignore"):
                if n == 1:
                    quad = quad_term(start)
                theta_next = step(theta, quad)
                if not _finite(theta_next):
                    raise FloatingPointError
                quad = None  # free it before the form evaluates the next term
                quad = quad_term(theta_next)
        except FloatingPointError:
            if n > 1 and not every_iteration:  # theta's skipped entries are gone
                theta, trace = _iterate(start, step, quad_term, defect_norm,
                                        replace(cfg, max_iter=n - 1), every_iteration=False)
            trace.verdict = "diverged"
            return theta, trace
        last = n == cfg.max_iter
        # norms of a blowing-up iterate overflow to inf; that is the
        # divergence signal, not an error condition
        with np.errstate(over="ignore"):
            update_field = theta_next - theta
            theta = theta_next
            if every_iteration or last:
                norm = besov_norm(theta, cfg.index)
                update = besov_norm(update_field, cfg.index)
            else:
                norm, update, bound = _bounded_norms(theta, update_field, bound, cfg)
            del update_field
            verdict = None
            if norm is not None:
                if not math.isfinite(norm):
                    verdict = "diverged"
                elif update <= cfg.tol * max(norm, _TINY) or (norm == 0.0 and update == 0.0):
                    verdict = "converged"
            trace.norms.append(math.nan if norm is None else norm)
            trace.residuals.append(math.nan if update is None else update)
            if every_iteration or last or verdict is not None:
                trace.pde_residuals.append(defect_norm(theta, quad))
            else:
                trace.pde_residuals.append(math.nan)
        if verdict is not None:
            trace.verdict = verdict
            return theta, trace
    trace.verdict = "max_iter"
    return theta, trace


def picard_solve(
    f: SpectralField,
    cfg: SolveConfig = SolveConfig(),
    theta0: SpectralField | None = None,
) -> tuple[SpectralField, IterationTrace]:
    """Iterate theta -> Lf + sign * (-Delta)^{-1} div(theta u) to a fixed point.

    Divergence is a verdict on the returned trace, not an exception: the
    inflation experiments intentionally run outside the contraction regime,
    and a form that overflows inside the loop ends it (:func:`_iterate`).
    ``theta0`` defaults to zero, making the first two iterates literally
    Lf and Lf + sign*B[Lf, Lf].

    The PDE defect of each iterate needs B[theta, theta], and so does the
    step from that iterate; :func:`_iterate` evaluates it once and hands it
    to both, so a run of n iterations evaluates the quadratic form n + 1
    times, the first time at theta0.  Every iteration takes all three
    norms, since ``solve`` reports them all (:class:`IterationTrace`).
    """
    lf = inverse_laplacian(f)
    sign = float(QUADRATIC_SIGN)

    def step(theta: SpectralField, quad: SpectralField) -> SpectralField:
        return lf + sign * quad

    def defect_norm(theta: SpectralField, quad: SpectralField) -> float:
        return _defect_norm(theta, quad, f, cfg.data_index)

    start = SpectralField.zeros(f.lattice) if theta0 is None else theta0
    return _iterate(start, step, quadratic_diagonal, defect_norm, cfg)


def perturbation_solve(
    theta1: SpectralField,
    theta2: SpectralField,
    cfg: SolveConfig = SolveConfig(),
) -> tuple[SpectralField, IterationTrace]:
    """Solve the correction equation on top of the first two iterates.

    With B the signed quadratic form, base = theta1 + theta2 and theta2 =
    B[theta1, theta1], the correction solves

        tilde = B[base + tilde, base + tilde] - theta2

    so base + tilde solves the full fixed-point equation, whatever theta2
    is (its choice only makes tilde small): Picard re-centred on base.

    The trace's last pde_residuals entry reports the stationary defect of
    the reassembled field, so convergence of the correction and correctness
    of the splitting are monitored at once.  B[base + tilde, base + tilde]
    is evaluated once per tilde, tilde = 0 included, and both the defect
    of that tilde and the step from it read it (:func:`_iterate`): a solve
    of n iterations evaluates n + 1 quadratic forms
    (``bilinear._transport``) and none besides.

    Its Besov norms are taken only where the stopping test needs them
    (:func:`_iterate`, :func:`_bounded_norms`), and the returned field and
    every last entry of the trace are bitwise those of taking all three
    every iteration.  At illpose-step1's benchmark configuration (m = 256,
    sizes 4 and 5, 27 + 23 iterations) the two solves take 17 norms where
    that took 150.

    A form that overflows ends the loop as ``diverged``, with an empty
    trace when it is the first, B[base, base] (:func:`_iterate`).

    theta1 is read by base and the forcing only, and dropped before the
    loop: a caller that holds no other reference to it has it freed there
    (illpose-step1 hands it over from a list), one half field fewer for
    the whole solve.

    The step cancels: B[base + tilde, base + tilde] is theta2 + tilde at
    the fixed point, so its rounding is about eps |theta2|.  Measured
    against the three-product step, 2 B[theta1, theta2] + B[theta2, theta2]
    + 2 B[base, tilde] + B[tilde, tilde], on illpose-step1's modulated
    bumps at m = 512, h_xi = 0.125, sizes 4, 5, 6 (carriers 2^2, 2^3, 2^4):
    the same verdicts and iteration counts (27, 23, 17), and the largest
    coefficient of tilde moves by 1.2e-14, 3.9e-14 and 1.6e-13 relative
    (its Besov norm by 1.9e-15, 8.5e-15 and 3.6e-14), growing with the
    carrier.  The test suite pins the loss at m = 128, h_xi = 0.25,
    carrier 2^3 (2.1e-13 and 4.8e-14 there).
    """
    sign = float(QUADRATIC_SIGN)
    base = theta1 + theta2
    f_equiv = neg_laplacian(theta1)
    zero = SpectralField.zeros(theta1.lattice)
    del theta1  # its last use

    def step(tilde: SpectralField, quad: SpectralField) -> SpectralField:
        return sign * quad - theta2

    def quad_term(tilde: SpectralField) -> SpectralField:
        return quadratic_diagonal(base + tilde)

    def defect_norm(tilde: SpectralField, quad: SpectralField) -> float:
        return _defect_norm(base + tilde, quad, f_equiv, cfg.data_index)

    return _iterate(zero, step, quad_term, defect_norm, cfg, every_iteration=False)


# ---------------------------------------------------------------------------
# Empirical constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    """Sampled operator norms and the smallness thresholds they imply.

    The sampled values are lower bounds of the true operator norms (random
    fields need not be extremal); the thresholds are exactly the stated
    functions of the sampled values.
    """

    c0: float
    c1: float
    delta0: float
    epsilon0: float

    def __post_init__(self) -> None:
        if not (0 < self.c0 < math.inf and 0 < self.c1 < math.inf):
            raise ValueError("constants must be positive and finite")
        if not math.isclose(self.delta0, 1.0 / (8.0 * self.c0 * self.c1), rel_tol=1e-12):
            raise ValueError("delta0 is not 1/(8 c0 c1)")
        if not math.isclose(self.epsilon0, 1.0 / (4.0 * self.c1), rel_tol=1e-12):
            raise ValueError("epsilon0 is not 1/(4 c1)")


def bilinear_ratio(
    f: SpectralField,
    g: SpectralField,
    index: BesovIndex,
) -> float:
    """||B[f, g]|| / (||f|| ||g||) at one index, the sampled boundedness
    quotient; inf when the denominator is zero."""
    nf = besov_norm(f, index)
    ng = besov_norm(g, index)
    nb = besov_norm(bilinear_block(f, g), index)
    return nb / (nf * ng) if nf * ng else math.inf


def estimate_constants(
    lattice: FrequencyLattice,
    samples: int = 64,
    p: float = 4.0,
    q: float = 2.0,
    seed: int = 0,
) -> ConstantsReport:
    """Sample the linear and bilinear constants at one integrability pair.

    c0 maximizes ||Lf||_solution / ||f||_data over single-shell fields,
    cycling every covered shell and alternating full rings with
    inner-edge-concentrated ones (the in-shell extremizers).  c1 maximizes
    the bilinear quotient over a mixed pool: low-frequency single-shell
    pairs (which dominate it, the quadratic form gaining one derivative),
    smooth decaying pairs, and white-spectrum pairs.  delta0 and epsilon0
    follow by the contraction bookkeeping 1/(8 c0 c1) and 1/(4 c1).
    A zero or non-finite quotient raises ``ValueError`` naming p and the lattice.
    """

    def sampled(numerator: float, denominator: float = 1.0) -> float:
        # every sampled field is non-zero: a Besov quadrature left the float
        # range (a p-th power, or a weight of the lattice, under- or overflowed)
        quotient = numerator / denominator if denominator else math.inf
        if 0.0 < quotient < math.inf:
            return quotient
        raise ValueError(f"the Besov quadratures at p = {p} on {lattice!r} leave the "
                         f"float range: a sampled quotient is {quotient}")

    if samples < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples for a stable estimate, "
                         f"got {samples}")
    partition = lattice.partition
    rng = np.random.default_rng(seed)
    sol = BesovIndex.solution_index(p, q)
    dat = BesovIndex.data_index(p, q)

    # ``sampled`` refuses a quadrature that leaves the float range; numpy is quiet
    with np.errstate(over="ignore", invalid="ignore"):
        shells = list(partition.shells)
        c0 = 0.0
        for i in range(samples):
            j = shells[(i // 2) % len(shells)]
            if i % 2:
                f = _inner_edge_field(lattice, j, rng)
            else:
                f = single_shell_field(lattice, j, rng)
            if f.coeffs.any():
                c0 = max(c0, sampled(besov_norm(inverse_laplacian(f), sol),
                                     besov_norm(f, dat)))
            del f  # before the next sample is drawn

        low = [j for j in shells if j <= partition.j_min + 4]
        shell_pairs = [(k, l) for k in low for l in low if abs(k - l) <= 2]
        c1 = 0.0
        for i in range(samples):
            style = i % 3
            if style == 0 and shell_pairs:
                k, l = shell_pairs[(i // 3) % len(shell_pairs)]
                f = single_shell_field(lattice, k, rng)
                g = single_shell_field(lattice, l, rng)
            elif style == 1:
                f = random_mean_zero_field(lattice, rng, decay=2.0)
                g = random_mean_zero_field(lattice, rng, decay=2.0)
            else:
                f = random_mean_zero_field(lattice, rng)
                g = random_mean_zero_field(lattice, rng)
            if f.coeffs.any() and g.coeffs.any():
                c1 = max(c1, sampled(bilinear_ratio(f, g, sol)))
            del f, g  # before the next sample is drawn

    return ConstantsReport(
        c0=c0,
        c1=c1,
        delta0=1.0 / (8.0 * c0 * c1),
        epsilon0=1.0 / (4.0 * c1),
    )
