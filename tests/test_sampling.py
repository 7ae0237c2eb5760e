"""Random-field generators: admissibility and reproducibility."""

import numpy as np
import pytest

from oracles import hermitian_defect, physical_real
from sqglab.besov import BesovIndex, besov_norm
from sqglab.sampling import (
    hermitian_symmetrize,
    random_mean_zero_field,
    single_shell_field,
    unit_normalize,
)
from sqglab.spectral import SpectralField


def test_hermitian_symmetrize_is_a_projection():
    rng = np.random.default_rng(51)
    c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sym = hermitian_symmetrize(c)
    assert np.allclose(hermitian_symmetrize(sym), sym)
    # fixed point of conjugate mirroring: c(-k) == conj(c(k))
    mirrored = sym
    for ax in (-2, -1):
        mirrored = np.roll(np.flip(mirrored, axis=ax), 1, axis=ax)
    assert np.allclose(np.conj(mirrored), sym)


def test_random_field_is_admissible(lattice32):
    rng = np.random.default_rng(52)
    f = random_mean_zero_field(lattice32, rng)
    assert f.mean_coefficient() == 0.0
    assert hermitian_defect(f) <= 1e-14 * np.max(np.abs(f.coeffs))
    # the unpaired edge is stripped
    assert not f.coeffs[lattice32.m // 2, :].any()
    assert not f.coeffs[:, lattice32.m // 2].any()
    physical_real(f)


def test_random_field_decay_damps_high_modes(lattice32):
    rng = np.random.default_rng(53)
    rough = random_mean_zero_field(lattice32, rng)
    smooth = random_mean_zero_field(lattice32, np.random.default_rng(53), decay=4.0)
    r = lattice32.radius
    outer = r > lattice32.xi_max / 2
    ratio = np.abs(smooth.coeffs[outer]).mean() / np.abs(rough.coeffs[outer]).mean()
    assert ratio < 0.1


def test_random_field_reproducible(lattice32):
    a = random_mean_zero_field(lattice32, np.random.default_rng(54))
    b = random_mean_zero_field(lattice32, np.random.default_rng(54))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_single_shell_support(lattice32, partition32):
    rng = np.random.default_rng(55)
    f = single_shell_field(lattice32, partition32, 1, rng)
    ring = partition32.ring_values(1)
    assert np.all((f.coeffs != 0) <= (ring > 0))
    assert f.nonzero_modes() > 0
    with pytest.raises(ValueError, match="no lattice support"):
        single_shell_field(lattice32, partition32, -8, rng)


def test_unit_normalize(lattice32, partition32):
    rng = np.random.default_rng(56)
    f = random_mean_zero_field(lattice32, rng, decay=1.0)
    idx = BesovIndex.solution_index(4.0, 2.0)
    g = unit_normalize(f, idx, partition32)
    assert besov_norm(g, idx, partition32) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="zero field"):
        unit_normalize(SpectralField.zeros(lattice32), idx, partition32)
