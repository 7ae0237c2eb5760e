"""Fixed-point iteration, the correction equation, and sampled constants."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import eager_iterate
from sqglab.besov import BesovIndex, besov_norm
from sqglab.bilinear import bilinear_block, quadratic_diagonal
from sqglab.forcing import ForceSpec, modulated_bump_force
from sqglab.runner import config_from_dict, run_experiment
from sqglab.sampling import random_mean_zero_field
from sqglab import bilinear, solver, spectral
from sqglab.solver import (
    ConstantsReport,
    SolveConfig,
    _iterate,
    estimate_constants,
    perturbation_solve,
    picard_solve,
)
from sqglab.spectral import SpectralField, inverse_laplacian, neg_laplacian


def small_forcing(lattice, amplitude=0.01):
    return amplitude * (
        SpectralField.cosine(lattice, (4, 0)) + SpectralField.cosine(lattice, (4, 4))
    )


def test_config_validation():
    with pytest.raises(ValueError, match="tol"):
        SolveConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        SolveConfig(max_iter=0)
    cfg = SolveConfig()
    assert cfg.data_index.s == cfg.index.s - 2.0


def test_picard_small_data_converges(lattice32):
    theta, trace = picard_solve(small_forcing(lattice32))
    assert trace.verdict == "converged"
    assert trace.worst_ratio() < 0.55
    assert trace.pde_residuals[-1] <= 1e-9 * trace.norms[-1]
    # fixed-point property, checked directly
    from sqglab.spectral import inverse_laplacian

    lf = inverse_laplacian(small_forcing(lattice32))
    step = lf - quadratic_diagonal(theta)
    err = besov_norm(step - theta, SolveConfig().index)
    assert err <= 1e-9 * trace.norms[-1]


def test_picard_two_starts_agree(lattice32):
    f = small_forcing(lattice32)
    cfg = SolveConfig(tol=1e-12)
    a, ta = picard_solve(f, cfg)
    rng = np.random.default_rng(41)
    bump = 0.001 * SpectralField.cosine(lattice32, (8, 0))
    b, tb = picard_solve(f, cfg, theta0=a + bump)
    assert ta.verdict == tb.verdict == "converged"
    gap = besov_norm(a - b, cfg.index)
    assert gap <= 1e-9 * max(ta.norms[-1], 1e-300)


def test_picard_zero_forcing(lattice32):
    theta, trace = picard_solve(SpectralField.zeros(lattice32))
    assert trace.verdict == "converged"
    assert trace.norms == [0.0]
    assert not theta.coeffs.any()


def test_picard_divergence_is_a_verdict(lattice32):
    theta, trace = picard_solve(small_forcing(lattice32, 200.0))
    assert trace.verdict == "diverged"
    assert np.isfinite(theta.coeffs).all()  # last finite iterate is returned


@pytest.mark.parametrize("every_iteration", [True, False])
def test_sup_norm_monitored_run_reports_an_overflowing_norm_as_diverged(
    lattice32, every_iteration
):
    # at p = inf the shell values of a 1e160 field are finite and only
    # their l^2 sum overflows: the loop reads that inf as divergence
    cfg = SolveConfig(index=BesovIndex(0.0, math.inf, 2.0))
    big = 1e160 * random_mean_zero_field(lattice32, np.random.default_rng(6))
    theta, trace = _iterate(SpectralField.zeros(lattice32), lambda theta, quad: big,
                            lambda theta: None, lambda theta, quad: 0.0, cfg,
                            every_iteration=every_iteration)
    assert trace.verdict == "diverged"
    assert theta is big and trace.norms == [math.inf]


def test_trace_ends_with_the_norm_of_the_returned_iterate(lattice32):
    # solve's solution norm and illpose-step1's perturbation norm are read
    # from the trace instead of being recomputed: bitwise the same number
    from sqglab.runner import _final_norm

    cfg = SolveConfig()
    f = small_forcing(lattice32)
    theta1 = inverse_laplacian(f)
    runs = {
        "converged": picard_solve(f, cfg),
        "max_iter": picard_solve(f, SolveConfig(max_iter=3)),
        "perturbation": perturbation_solve(theta1, -quadratic_diagonal(theta1), cfg),
        # the norm overflows: the overflowing iterate is returned
        "diverged": picard_solve(small_forcing(lattice32, 200.0)),
    }

    # the step goes non-finite: the iterate before it is returned
    def step(theta, carried):
        steps.append(theta)
        c = 2.0 * theta.coeffs + f.coeffs
        with np.errstate(invalid="ignore"):
            return SpectralField._adopt(lattice32, c * np.inf if len(steps) == last else c)

    # on the route that takes norms only where the stopping test needs
    # them, the returned iterate's entries are completed at that exit
    for last in (3, 1):
        for every_iteration in (True, False):
            steps = []
            runs[f"non-finite at {last}, {every_iteration}"] = _iterate(
                f, step, lambda theta: None, lambda theta, quad: 0.0, cfg,
                every_iteration=every_iteration,
            )
    verdicts = {name: trace.verdict for name, (_, trace) in runs.items()}
    assert verdicts == {"converged": "converged", "max_iter": "max_iter",
                        "perturbation": "converged", "diverged": "diverged",
                        **{f"non-finite at {last}, {every}": "diverged"
                           for last in (3, 1) for every in (True, False)}}
    assert math.isinf(runs["diverged"][1].norms[-1])
    assert all(runs[f"non-finite at 1, {every}"][1].norms == [] for every in (True, False))
    # the perturbation route filled its last entries and skipped earlier ones
    perturbation = runs["perturbation"][1]
    assert math.isnan(perturbation.norms[0]) and math.isnan(perturbation.pde_residuals[-2])
    lazy = runs["non-finite at 3, False"][1]
    assert math.isnan(lazy.norms[0]) and not math.isnan(lazy.residuals[-1])
    with np.errstate(over="ignore"):
        for name, (theta, trace) in runs.items():
            want = besov_norm(theta, cfg.index)
            assert _final_norm(theta, trace, cfg.index) == want, name
            if trace.norms:
                assert trace.norms[-1] == want, name


def test_quadratic_sign_is_pinned_by_the_pde(lattice32, monkeypatch):
    # the stationary defect of a converged run vanishes only for the
    # physical sign; the flipped sign still converges (same smallness)
    # but to a field that does not solve the equation
    f = small_forcing(lattice32)
    assert solver.QUADRATIC_SIGN == -1
    _, good = picard_solve(f)
    monkeypatch.setattr(solver, "QUADRATIC_SIGN", 1)
    _, bad = picard_solve(f)
    assert good.verdict == bad.verdict == "converged"
    assert good.pde_residuals[-1] <= 1e-9 * good.norms[-1]
    assert bad.pde_residuals[-1] > 1e-3 * bad.norms[-1]


def test_trace_csv_layout():
    # the solve pipeline writes the trace as its iterations table
    cfg = config_from_dict({"experiment": "solve", "m": 32, "samples": 50})
    table = run_experiment(cfg, write=False).tables[1]
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "iteration,norm,residual,ratio,pde_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == [str(n) for n in range(1, len(rows) + 1)]
    assert rows[0][3] == ""  # no ratio before the second residual
    assert float(rows[1][3]) == float(rows[1][2]) / float(rows[0][2])


def test_perturbation_reassembles_the_fixed_point(lattice32):
    f = small_forcing(lattice32)
    cfg = SolveConfig(tol=1e-12)
    full, ft = picard_solve(f, cfg)
    assert ft.verdict == "converged"

    from sqglab.spectral import inverse_laplacian

    theta1 = inverse_laplacian(f)
    theta2 = -1.0 * quadratic_diagonal(theta1)
    tilde, tt = perturbation_solve(theta1, theta2, cfg)
    assert tt.verdict == "converged"
    assert tt.pde_residuals[-1] <= 1e-9 * ft.norms[-1]
    gap = besov_norm(theta1 + theta2 + tilde - full, cfg.index)
    assert gap <= 1e-9 * ft.norms[-1]
    # the correction is quadratically small against the leading term
    assert besov_norm(tilde, cfg.index) < 0.01 * ft.norms[-1]


def test_picard_trace_is_bitwise_the_recomputing_loop(lattice32, monkeypatch):
    # the carried quadratic term must give the very bits of a loop that
    # evaluates B[theta, theta] afresh in both the step and the defect
    f = small_forcing(lattice32, 0.2)
    cfg = SolveConfig(tol=1e-12)
    lf = inverse_laplacian(f)

    def step(theta, _carried):
        return lf - quadratic_diagonal(theta)

    def defect_norm(theta, _quad):
        defect = neg_laplacian(theta) + neg_laplacian(quadratic_diagonal(theta)) - f
        return besov_norm(defect, cfg.data_index)

    start = SpectralField.zeros(lattice32)
    want_theta, want = _iterate(start, step, lambda theta: None, defect_norm, cfg)
    evaluations = []

    def counted(theta):
        evaluations.append(theta)
        return quadratic_diagonal(theta)

    monkeypatch.setattr(solver, "quadratic_diagonal", counted)
    got_theta, got = picard_solve(f, cfg)
    assert want.verdict == got.verdict == "converged"
    assert got.iterations == want.iterations > 5
    assert len(evaluations) == got.iterations + 1
    assert got.norms == want.norms
    assert got.residuals == want.residuals
    assert got.pde_residuals == want.pde_residuals
    assert np.array_equal(got_theta.coeffs, want_theta.coeffs)


def test_iterate_hands_each_step_the_defects_term(lattice32):
    # every step, the first included, gets the term the loop evaluated for
    # the very iterate the step starts from, the one its defect reads
    cfg = SolveConfig(max_iter=4)
    start = SpectralField.cosine(lattice32, (1, 0))
    handed, returned = [], {}

    def step(theta, quad):
        handed.append((theta, quad))
        return theta + SpectralField.cosine(lattice32, (2, 1))

    def quad_term(theta):
        returned[id(theta)] = 0.5 * theta
        return returned[id(theta)]

    _iterate(start, step, quad_term, lambda theta, quad: 0.0, cfg)
    assert len(handed) == 4 and handed[0][0] is start
    for theta, quad in handed:
        assert quad is returned[id(theta)]


def test_one_block_step_matches_block_plus_diagonal(lattice32):
    rng = np.random.default_rng(42)
    b = random_mean_zero_field(lattice32, rng, decay=1.0)
    t = 0.1 * random_mean_zero_field(lattice32, rng, decay=1.0)
    got = bilinear_block(2.0 * b + t, t).coeffs
    want = (2.0 * bilinear_block(b, t) + quadratic_diagonal(t)).coeffs
    scale = np.max(np.abs(want))
    assert scale > 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def first_iterates(f):
    theta1 = inverse_laplacian(f)
    return theta1, -1.0 * quadratic_diagonal(theta1)


def three_product_loop(theta1, theta2, cfg):
    """perturbation_solve's equation stepped with its three products,
    source + 2 B[base, t] + B[t, t], nothing handed from the defect."""
    base = theta1 + theta2
    source = -1.0 * (2.0 * bilinear_block(theta1, theta2) + quadratic_diagonal(theta2))
    f_equiv = neg_laplacian(theta1)

    def step(tilde, _carried):
        return source - (2.0 * bilinear_block(base, tilde) + quadratic_diagonal(tilde))

    def defect_norm(tilde, _quad):
        total = base + tilde
        defect = neg_laplacian(total) + neg_laplacian(quadratic_diagonal(total)) - f_equiv
        return besov_norm(defect, cfg.data_index)

    return _iterate(SpectralField.zeros(theta1.lattice), step, lambda tilde: None, defect_norm,
                    cfg)


def assert_filled_norms_close(got, want, rel):
    """Every norm the perturbation route filled (it leaves NaN where it
    took none) is close to the every-entry loop's; the last entry of each
    column is always filled."""
    for column in (got.norms, got.residuals, got.pde_residuals):
        assert len(column) == want.iterations and not math.isnan(column[-1])
    for a, b in zip(got.norms, want.norms):
        if not math.isnan(a):
            assert a == pytest.approx(b, rel=rel, abs=0.0)


def test_perturbation_keeps_verdict_and_iterations(lattice32):
    cfg = SolveConfig(tol=1e-12)
    theta1, theta2 = first_iterates(small_forcing(lattice32, 0.2))
    want_tilde, want = three_product_loop(theta1, theta2, cfg)
    got_tilde, got = perturbation_solve(theta1, theta2, cfg)
    assert want.verdict == got.verdict == "converged"
    assert got.iterations == want.iterations > 5
    scale = besov_norm(want_tilde, cfg.index)
    assert besov_norm(got_tilde - want_tilde, cfg.index) <= 1e-12 * scale
    assert_filled_norms_close(got, want, rel=1e-10)


def test_perturbation_evaluates_one_form_per_iteration(lattice32, monkeypatch):
    # the defect's B[base + tilde, base + tilde] is the step's quadratic
    # term, for every tilde from 0 on; a solve evaluates no form besides
    theta1, theta2 = first_iterates(small_forcing(lattice32, 0.2))
    counts = {"quadratic_diagonal": 0, "bilinear_block": 0}

    def counted(name, form):
        def evaluate(*args):
            counts[name] += 1
            return form(*args)

        return evaluate

    for name, form in (("quadratic_diagonal", quadratic_diagonal), ("bilinear_block", bilinear_block)):
        monkeypatch.setattr(solver, name, counted(name, form))
    _, trace = perturbation_solve(theta1, theta2, SolveConfig(tol=1e-12))
    assert trace.verdict == "converged"
    assert trace.iterations > 5
    assert counts == {"quadratic_diagonal": trace.iterations + 1, "bilinear_block": 0}


def same_bits(a, b):
    return np.array_equal(np.array([a]).view(np.int64), np.array([b]).view(np.int64))


def lazy_and_eager(theta1, theta2, cfg, monkeypatch):
    """``perturbation_solve`` with its ``besov_norm`` calls counted, and the
    very closures it hands its loop run through the eager loop
    (``oracles.eager_iterate``)."""
    loops, calls = [], []
    lazy, norm = solver._iterate, solver.besov_norm

    def recording(*args, **kwargs):
        loops.append((args, kwargs))
        return lazy(*args, **kwargs)

    def counted(*args):
        calls.append(args)
        return norm(*args)

    monkeypatch.setattr(solver, "_iterate", recording)
    monkeypatch.setattr(solver, "besov_norm", counted)
    got = perturbation_solve(theta1, theta2, cfg)
    taken = len(calls)
    monkeypatch.undo()
    args, _ = loops[0]  # a loop that replays itself after a failed form calls again
    return got, eager_iterate(*args), taken


def bump_iterates(lattice, size, carrier_exponent):
    spec = ForceSpec(variant="bump", delta=0.01, size=size, carrier_exponent=carrier_exponent)
    return first_iterates(modulated_bump_force(lattice, spec))


@pytest.mark.parametrize("case, cfg, verdict", [
    ("bump 4", SolveConfig(), "converged"),
    ("bump 5", SolveConfig(), "converged"),
    ("bump 4", SolveConfig(tol=1e-14), "converged"),
    ("bump 5", SolveConfig(tol=1e-15), "max_iter"),
    ("bump 5", SolveConfig(max_iter=5), "max_iter"),
    ("large forcing", SolveConfig(), "diverged"),
], ids=lambda v: str(v).replace(" ", "-") if isinstance(v, str) else None)
def test_perturbation_loop_ends_bitwise_as_the_eager_loop(
    lattice128, monkeypatch, case, cfg, verdict
):
    # illpose-step1's bumps (carrier 2**(size - 2)) on a desk lattice, and a
    # forcing large enough that the iterate's norm overflows.  The route
    # that takes norms only where its stopping test needs them ends as the
    # loop that takes all three every iteration: same verdict, iteration
    # count and iterate, and the same bits in the last entry of each column
    if case == "large forcing":
        theta1, theta2 = first_iterates(1000.0 * small_forcing(lattice128))
    else:
        size = int(case.split()[1])
        theta1, theta2 = bump_iterates(lattice128, size, size - 2)
    (got_tilde, got), (want_tilde, want), calls = lazy_and_eager(
        theta1, theta2, cfg, monkeypatch)
    assert got.verdict == want.verdict == verdict
    assert got.iterations == want.iterations
    assert np.array_equal(got_tilde.coeffs, want_tilde.coeffs)
    for have, full in ((got.norms, want.norms), (got.residuals, want.residuals),
                       (got.pde_residuals, want.pde_residuals)):
        assert len(have) == len(full) and same_bits(have[-1], full[-1])
        # every entry the route filled is the eager loop's
        assert all(same_bits(a, b) for a, b in zip(have, full) if not math.isnan(a))
    # the eager loop takes 3 norms per iteration; this one 3 at its exit
    # and a few where the bounds could not decide
    assert calls <= 3 + got.iterations // 3, (calls, got.iterations)


def test_a_form_that_overflows_in_the_loop_ends_it_as_diverged(
    lattice32, monkeypatch
):
    # monitored at p = inf, a field 1e3 times a random one overflows inside
    # the quadratic form (which raises) while every norm is finite: both
    # loops end diverged on the last iterate whose form is finite, and the
    # route that skips norms ends as the eager loop, bit for bit
    cfg = SolveConfig(index=BesovIndex(-1.0, math.inf, 2.0))
    f = 1e3 * random_mean_zero_field(lattice32, np.random.default_rng(3))
    theta, trace = picard_solve(f, cfg)
    assert trace.verdict == "diverged" and all(map(math.isfinite, trace.norms))
    with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
        quadratic_diagonal(inverse_laplacian(f) - quadratic_diagonal(theta))
    (got_tilde, got), (want_tilde, want), _ = lazy_and_eager(
        *first_iterates(f), cfg, monkeypatch)
    assert got.verdict == want.verdict == "diverged"
    assert got.iterations == want.iterations > 1 and math.isnan(got.norms[0])
    assert np.array_equal(got_tilde.coeffs, want_tilde.coeffs)
    for have, full in ((got.norms, want.norms), (got.residuals, want.residuals),
                       (got.pde_residuals, want.pde_residuals)):
        assert same_bits(have[-1], full[-1])


def test_a_perturbation_whose_first_form_overflows_ends_diverged_at_once(
    lattice32, monkeypatch
):
    # theta1 and theta2 = B[theta1, theta1] are finite, but B[base, base]
    # overflows inside the form (which raises): the loop ends diverged on
    # the start, with an empty trace, and takes no norm
    theta1, theta2 = first_iterates(1e100 * small_forcing(lattice32))
    assert np.isfinite(theta2.coeffs).all()
    with pytest.raises(FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
        quadratic_diagonal(theta1 + theta2)
    (got_tilde, got), (want_tilde, want), calls = lazy_and_eager(
        theta1, theta2, SolveConfig(), monkeypatch)
    assert got.verdict == want.verdict == "diverged"
    assert got.norms == got.residuals == got.pde_residuals == [] and want.iterations == 0
    assert not got_tilde.coeffs.any() and not want_tilde.coeffs.any()
    assert calls == 0


def test_perturbation_takes_exact_norms_only_near_its_exit(
    lattice128, monkeypatch
):
    # step1's size-4 bump: 12 iterations and 5 norms, where the eager loop
    # takes 36: the iterate's and the update's in the last two iterations,
    # and the defect at the exit
    theta1, theta2 = bump_iterates(lattice128, 4, 2)
    (_, got), (_, want), calls = lazy_and_eager(
        theta1, theta2, SolveConfig(), monkeypatch)
    assert got.iterations == want.iterations == 12
    assert calls == 5
    taken = [n for n, v in enumerate(got.norms) if not math.isnan(v)]
    assert taken == [10, 11]
    assert [math.isnan(v) for v in got.pde_residuals] == [True] * 11 + [False]


def test_carried_step_keeps_the_three_product_loop(lattice128):
    # the step subtracts theta2 from B[base + tilde, base + tilde], which
    # cancels; at the largest carrier this lattice admits (2**3, Nyquist 16)
    # the loss measured 4.8e-14 in the Besov norm of tilde and 2.1e-13 in
    # its largest coefficient, so the bounds sit at about ten times that
    cfg = SolveConfig()
    spec = ForceSpec(variant="bump", delta=0.01, size=5, carrier_exponent=3)
    theta1, theta2 = first_iterates(modulated_bump_force(lattice128, spec))
    want_tilde, want = three_product_loop(theta1, theta2, cfg)
    got_tilde, got = perturbation_solve(theta1, theta2, cfg)
    assert want.verdict == got.verdict == "converged"
    assert got.iterations == want.iterations > 5
    scale = besov_norm(want_tilde, cfg.index)
    assert besov_norm(got_tilde - want_tilde, cfg.index) <= 1e-12 * scale
    peak = np.max(np.abs(want_tilde.coeffs))
    assert np.max(np.abs(got_tilde.coeffs - want_tilde.coeffs)) <= 2e-12 * peak
    assert_filled_norms_close(got, want, rel=1e-13)


def test_perturbation_iteration_row_passes_cover_four_plus_two_grids(
    lattice32, monkeypatch
):
    # one quadratic form per iteration, on a grid of 3m/2 rows whose length
    # follows the band of its product (bilinear._flux_band).  Its row passes
    # run a slab of rows at a time, so they are counted in points, rows x
    # length, over every c2r and r2c call the forms make, at every length:
    # per velocity component, the row passes of theta and of the velocity
    # factor (c2r) and of the flux (r2c), each over the whole grid once.  A
    # full-band iterate's rows are 3m/2 long, as on the padded kernel's
    # square grid, which made 3 + 2: theta's row pass ran once, over a
    # whole grid of samples.  An iterate narrow in k2 runs on shorter rows,
    # with the same 4 + 2 count.
    grid = 3 * lattice32.m // 2
    binding = spectral._pocketfft
    points = {"c2r": {}, "r2c": {}}
    in_form = [False]

    def counted(name, length_of):
        transform = getattr(binding, name)

        def run(a, *args):
            if in_form[0]:
                length = length_of(a, args)
                points[name][length] = points[name].get(length, 0) + a.shape[-2] * length
            return transform(a, *args)

        return run

    transport = bilinear._transport

    def form(*args):
        in_form[0] = True
        try:
            return transport(*args)
        finally:
            in_form[0] = False

    # c2r(a, axes, lastsize, ...) and r2c(a, axes, ...)
    monkeypatch.setattr(spectral, "_pocketfft", SimpleNamespace(
        c2c=binding.c2c,
        c2r=counted("c2r", lambda a, args: args[1]),
        r2c=counted("r2c", lambda a, args: a.shape[-1]),
    ))
    monkeypatch.setattr(bilinear, "_transport", form)
    # from columns k2 = 0 and 4, the iterates fill all m/2 columns at once
    full_band = small_forcing(lattice32, 0.2)
    narrow = 0.2 * (SpectralField.cosine(lattice32, (4, 0))
                    + SpectralField.cosine(lattice32, (4, 1)))
    lengths = []
    for f in (full_band, narrow):
        theta1, theta2 = first_iterates(f)
        per_run = []
        for max_iter in (1, 2):
            points["c2r"].clear()
            points["r2c"].clear()
            _, trace = perturbation_solve(theta1, theta2,
                                          SolveConfig(tol=1e-14, max_iter=max_iter))
            assert trace.iterations == max_iter
            per_run.append({name: dict(counts) for name, counts in points.items()})
        first, second = per_run
        added = {name: {n: second[name][n] - first[name].get(n, 0) for n in second[name]
                        if second[name][n] != first[name].get(n, 0)}
                 for name in points}
        (length,) = added["c2r"]
        assert added == {"c2r": {length: 4 * grid * length}, "r2c": {length: 2 * grid * length}}
        lengths.append(length)
    assert lengths[0] == grid and lengths[1] < grid


def test_constants_report_checks_thresholds():
    with pytest.raises(ValueError, match="delta0"):
        ConstantsReport(c0=1.0, c1=2.0, delta0=1.0, epsilon0=0.125)
    with pytest.raises(ValueError, match="epsilon0"):
        ConstantsReport(c0=1.0, c1=2.0, delta0=1.0 / 16.0, epsilon0=1.0)
    rep = ConstantsReport(c0=2.0, c1=0.5, delta0=1.0 / 8.0, epsilon0=0.5)
    assert (rep.c0, rep.c1, rep.delta0, rep.epsilon0) == (2.0, 0.5, 0.125, 0.5)


def test_estimate_constants_sample_floor(lattice32):
    with pytest.raises(ValueError, match="at least 50 samples"):
        estimate_constants(lattice32, samples=16)


def test_estimate_constants_deterministic(lattice32):
    a = estimate_constants(lattice32, samples=50, seed=7)
    b = estimate_constants(lattice32, samples=50, seed=7)
    assert (a.c0, a.c1) == (b.c0, b.c1)
    assert a.c0 > 0 and a.c1 > 0
    assert a.delta0 == 1.0 / (8.0 * a.c0 * a.c1)
    assert a.epsilon0 == 1.0 / (4.0 * a.c1)
    c = estimate_constants(lattice32, samples=50, seed=8)
    assert (a.c0, a.c1) != (c.c0, c.c1)


def test_estimate_constants_monotone_in_samples(lattice32):
    # the estimate is a running max, so more samples can only increase it
    a = estimate_constants(lattice32, samples=50, seed=7)
    b = estimate_constants(lattice32, samples=100, seed=7)
    assert b.c0 >= a.c0 and b.c1 >= a.c1
