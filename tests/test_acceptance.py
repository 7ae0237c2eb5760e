"""Acceptance gate: the ten criteria the package promises, one test each.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  These run the production-scale configurations, so this module
is minutes, not seconds; the unit suites cover the same code at desk
scale.  Each test prints its measured numbers before asserting, so a red
criterion carries its evidence.
"""

import math
import time

import numpy as np
import pytest

from oracles import full, padded
from sqglab.besov import BesovIndex, besov_norm
from sqglab.bilinear import quadratic_diagonal
from sqglab.diagnostics import second_iterate_split
from sqglab.forcing import ForceSpec, modulated_bump_force
from sqglab.runner import config_from_dict, run_experiment
from sqglab.sampling import single_shell_field
from sqglab.solver import SolveConfig, bilinear_ratio, estimate_constants, perturbation_solve
from sqglab.spectral import (
    FrequencyLattice,
    SpectralField,
    dyadic_rescale,
    inverse_laplacian,
)


def _verdict(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"report has no verdict named {name!r}")


def test_criterion_01_bilinear_routes_agree():
    """50 random fields on a 32 lattice: three routes pairwise <= 1e-10, <= 2 min."""
    cfg = config_from_dict({"experiment": "verify-identity"})
    report = run_experiment(cfg, write=False)
    v = _verdict(report, "three-way-identity")
    print(f"criterion 1: {v.observed} over 50 fields in {report.wall_seconds:.1f}s")
    assert v.passed
    assert report.wall_seconds <= 120.0


def test_criterion_02_closed_form_coefficients(lattice32):
    """cos(x1) + cos(2 x2) maps to (cos(x1-2x2) - cos(x1+2x2))/10 to 1e-12."""
    theta = SpectralField.cosine(lattice32, (4, 0)) + SpectralField.cosine(
        lattice32, (0, 8)
    )
    want = 0.1 * (
        SpectralField.cosine(lattice32, (4, -8)).coeffs
        - SpectralField.cosine(lattice32, (4, 8)).coeffs
    )
    err = float(np.max(np.abs(quadratic_diagonal(theta).coeffs - want)))
    print(f"criterion 2: max coefficient error {err:.3e}")
    assert err <= 1e-12


def test_criterion_03_partition_suite():
    """Partition of unity to 1e-12, pointwise support/plateau, reconstruction."""
    cfg = config_from_dict({"experiment": "partition-check"})
    report = run_experiment(cfg, write=False)
    for name in ("partition-of-unity", "support", "plateau", "reconstruction"):
        v = _verdict(report, name)
        print(f"criterion 3 [{name}]: {v.observed}")
        assert v.passed, v.line()


def test_criterion_04_critical_norm_scale_invariance():
    """Dyadic rescales preserve the critical norms to 1e-8 relative.

    The witness field is shell-supported with nonnegative coefficients on
    the 4x sublattice, so every rescale in range stays on-lattice and its
    physical maximum sits at the origin; the critical pair is read at the
    sup endpoint, where the periodized norm agrees with the plane norm
    (integer winding redistributes an integral norm but never the peak).
    """
    lat = FrequencyLattice(m=256, h_xi=0.25)
    rng = np.random.default_rng(3)
    base = single_shell_field(lat, 2, rng)
    mask = (lat.k1 % 4 == 0) & (lat.k2 % 4 == 0)
    field = SpectralField(lat, np.where(mask, np.abs(full(base)), 0.0))
    assert field.coeffs.any()

    sol = BesovIndex.solution_index(math.inf, math.inf)
    dat = BesovIndex.data_index(math.inf, math.inf)
    n_sol = besov_norm(field, sol)
    n_dat = besov_norm(field, dat)
    worst_sol = worst_dat = 0.0
    for exponent in (-2, -1, 0, 1, 2):
        rel_sol = abs(besov_norm(dyadic_rescale(field, exponent, 1), sol) / n_sol - 1.0)
        rel_dat = abs(besov_norm(dyadic_rescale(field, exponent, 3), dat) / n_dat - 1.0)
        print(f"criterion 4 [scale 2**{exponent}]: solution {rel_sol:.3e}, data {rel_dat:.3e}")
        worst_sol = max(worst_sol, rel_sol)
        worst_dat = max(worst_dat, rel_dat)
    assert worst_sol <= 1e-8
    assert worst_dat <= 1e-8
    # exact round trip through an up-down pair
    back = dyadic_rescale(dyadic_rescale(field, 2, 1), -2, 1)
    assert np.array_equal(padded(back), padded(field))


def test_criterion_05_contraction_and_uniqueness():
    """Measured-threshold contraction: ratio <= 0.55, residuals and
    uniqueness to 1e-9, Lipschitz bound with factor 1.5 slack."""
    cfg = config_from_dict({"experiment": "solve"})
    report = run_experiment(cfg, write=False)
    for name in ("converged", "contraction-ratio", "fixed-point-residual",
                 "pde-residual", "unique-in-ball", "lipschitz"):
        v = _verdict(report, name)
        print(f"criterion 5 [{name}]: {v.observed}")
        assert v.passed, v.line()


def test_criterion_06_shrinking_data_vs_floor():
    """Carrier sweep at (p, q) = (8, 2): data norms fall by 2**(-1/4) per
    step within 10%, the low-frequency floor stays within 25% of its mean,
    and the correction stays below a fifth of the second iterate.  <= 10 min."""
    cfg = config_from_dict({
        "experiment": "illpose-step1",
        "m": 1024, "h_xi": 0.125, "p": 8, "q": 2, "delta": 0.01,
        "size_range": [4, 7], "carrier_offset": -2,
    })
    report = run_experiment(cfg, write=False)
    for row in report.tables[0].rows:
        print(f"criterion 6 [size {row[0]}]: data norm {row[2]:.6g}, "
              f"floor/delta^2 {row[3]:.6g}, correction/second {row[6]:.3f}")
    for name in ("data-norm-slope", "floor-stability", "second-iterate-dominates"):
        v = _verdict(report, name)
        print(f"criterion 6 [{name}]: {v.observed}")
        assert v.passed, v.line()
    print(f"criterion 6: wall {report.wall_seconds:.1f}s")
    assert report.wall_seconds <= 600.0


def test_criterion_07_quadratic_cubic_homogeneity():
    """Second iterate scales exactly as delta**2 (bitwise at a halving);
    the correction norm scales as delta**3 within 20% over a halving."""
    lat = FrequencyLattice(m=256, h_xi=0.125)
    solve_cfg = SolveConfig()

    def pieces(delta):
        spec = ForceSpec(variant="bump", delta=delta, size=5, carrier_exponent=3)
        spec.validate(lat)
        theta1 = inverse_laplacian(modulated_bump_force(lat, spec))
        theta2 = -1.0 * quadratic_diagonal(theta1)
        return theta1, theta2

    theta1_a, theta2_a = pieces(0.01)
    theta1_b, theta2_b = pieces(0.005)
    assert np.array_equal(4.0 * theta2_b.coeffs, theta2_a.coeffs)
    print("criterion 7: second iterate rescales by exactly 4 at a delta halving")

    tilde_a, trace_a = perturbation_solve(theta1_a, theta2_a, solve_cfg)
    tilde_b, trace_b = perturbation_solve(theta1_b, theta2_b, solve_cfg)
    assert trace_a.verdict == trace_b.verdict == "converged"
    norm_a = besov_norm(tilde_a, solve_cfg.index)
    norm_b = besov_norm(tilde_b, solve_cfg.index)
    ratio = norm_a / norm_b
    print(f"criterion 7: correction norms {norm_a:.6g} / {norm_b:.6g}, "
          f"ratio {ratio:.5f} vs 8 ({abs(ratio / 8.0 - 1.0):.1%} off)")
    assert abs(ratio / 8.0 - 1.0) <= 0.20


def test_criterion_08_block_inflation_growth():
    """Block sweep: L4 growth (#blocks)**(1/4) within 10% after stride
    calibration, and inflation aggregate ratio growth (#blocks)**(1/2)
    within 30% for 2, 4 and 8 blocks.

    The 8-block point of the aggregate leg is infeasible on this
    hardware: with the shell map fixed by the probe geometry, 8 blocks
    force a modulation band at 2**14 + 2**13, while the largest lattice
    that fits in memory at the required frequency resolution tops out at
    Nyquist 128.  Raising the resolution step instead empties the low
    probe shells.  The sweep therefore reports the 8-block point as
    infeasible and confirms the square-root growth across the feasible
    doubling (2 -> 4), and this criterion stays red rather than being
    rescaled down to what the hardware can reach.
    """
    cfg = config_from_dict({"experiment": "illpose-step3"})
    report = run_experiment(cfg, write=False)
    for table in report.tables:
        for row in table.rows:
            print(f"criterion 8 [{table.name}]: {row}")
    l4 = _verdict(report, "l4-quarter-power")
    print(f"criterion 8 [l4-quarter-power]: {l4.observed}")
    assert l4.passed, l4.line()
    infl = _verdict(report, "inflation-sqrt-power")
    print(f"criterion 8 [inflation-sqrt-power]: {infl.observed}")
    assert infl.passed, infl.line()


def test_criterion_09_constant_stability_vs_growth():
    """The sampled bilinear constant at (4, 2) moves <= 10% under lattice
    doubling; evaluated on carrier-localized pairs at (8, 2) it grows
    with accelerating factors instead of saturating."""
    c1 = {}
    for m in (128, 256):
        rep = estimate_constants(
            FrequencyLattice(m=m, h_xi=0.25), samples=64, p=4.0, q=2.0, seed=0
        )
        c1[m] = rep.c1
    drift = abs(c1[256] / c1[128] - 1.0)
    print(f"criterion 9 [stability]: c1 {c1[128]:.6g} -> {c1[256]:.6g} ({drift:.1%})")
    assert drift <= 0.10

    lat = FrequencyLattice(m=512, h_xi=0.125)
    idx8 = BesovIndex.solution_index(8.0, 2.0)
    idx4 = BesovIndex.solution_index(4.0, 2.0)
    r8, r4 = [], []
    for n in (4, 5, 6):
        spec = ForceSpec(variant="bump", delta=0.01, size=n, carrier_exponent=n - 2)
        spec.validate(lat)
        theta1 = inverse_laplacian(modulated_bump_force(lat, spec))
        r8.append(bilinear_ratio(theta1, theta1, idx8))
        r4.append(bilinear_ratio(theta1, theta1, idx4))
    growth = [b / a for a, b in zip(r8, r8[1:])]
    print(f"criterion 9 [growth at (8,2)]: {[f'{v:.6g}' for v in r8]}, "
          f"factors {[f'{g:.4f}' for g in growth]}")
    print(f"criterion 9 [contrast at (4,2)]: {[f'{v:.6g}' for v in r4]}")
    # growth without saturation: every step grows and the factors do not shrink
    assert all(g > 1.0 for g in growth)
    assert growth[1] >= growth[0]
    # the well-posed index decays on the same family
    assert r4[0] > r4[1] > r4[2]


def test_criterion_10_split_consistency_and_remainder():
    """Split triples rebuild the direct coefficient to 1e-10 at every
    probe; the non-main remainder halves per carrier step within 20%."""
    lat = FrequencyLattice(m=2048, h_xi=0.125)
    probes = [(4, 4), (6, 2), (2, 6)]
    remainders = {}
    for n in (4, 5, 6, 7):
        spec = ForceSpec(variant="bump", delta=0.01, size=n, carrier_exponent=n - 1)
        spec.validate(lat)
        theta1 = inverse_laplacian(modulated_bump_force(lat, spec))
        theta2 = quadratic_diagonal(theta1)
        samples = second_iterate_split(theta1, probes)
        worst = 0.0
        for s in samples:
            a, b = s.index
            direct = theta2.coeffs[a % lat.m, b % lat.m]
            worst = max(worst, abs(s.total - direct) / abs(direct))
        remainders[n] = max(abs(s.cross) + abs(s.perp) for s in samples)
        print(f"criterion 10 [size {n}]: split defect {worst:.3e}, "
              f"remainder {remainders[n]:.6e}")
        assert worst <= 1e-10
    sizes = sorted(remainders)
    for a, b in zip(sizes, sizes[1:]):
        ratio = remainders[b] / remainders[a]
        print(f"criterion 10 [step {a}->{b}]: remainder ratio {ratio:.4f} "
              f"({abs(ratio / 0.5 - 1.0):.1%} off a halving)")
        assert abs(ratio / 0.5 - 1.0) <= 0.20
