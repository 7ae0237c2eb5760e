"""Random-field generators: admissibility and reproducibility."""

import numpy as np
import pytest

from oracles import band_limited_field, coordinates, hermitian_defect, padded, physical_real
from sqglab.besov import BesovIndex, besov_norm
from sqglab.sampling import (
    _band_limited_field,
    _inner_edge_field,
    hermitian_symmetrize,
    random_mean_zero_field,
    single_shell_field,
    unit_normalize,
)
from sqglab.spectral import FrequencyLattice, SpectralField, _unfold, strip_unpaired_edge


def mirrored(c):
    """c(-k) in FFT order."""
    for ax in (-2, -1):
        c = np.roll(np.flip(c, axis=ax), 1, axis=ax)
    return c


def test_hermitian_symmetrize_is_a_projection():
    rng = np.random.default_rng(51)
    c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sym = hermitian_symmetrize(c)
    # the k2 >= 0 half of the average with the mirrored conjugate
    assert sym.shape == (8, 4)
    assert np.array_equal(sym, (0.5 * (c + np.conj(mirrored(c))))[:, :4])
    # a fixed point of conjugate mirroring: its unfolding symmetrizes to itself
    whole = _unfold(sym)
    assert np.allclose(np.conj(mirrored(whole)), whole)
    assert np.allclose(hermitian_symmetrize(whole), sym)


def test_random_field_is_admissible(lattice32):
    rng = np.random.default_rng(52)
    f = random_mean_zero_field(lattice32, rng)
    assert f.mean_coefficient() == 0.0
    assert hermitian_defect(f) <= 1e-14 * np.max(np.abs(f.coeffs))
    # the unpaired edge is stripped: the k1 = -m/2 row is zero, and the
    # k2 = -m/2 column has no slot
    assert not f.coeffs[lattice32.m // 2, :].any()
    assert f.coeffs.shape == (lattice32.m, lattice32.m // 2)
    physical_real(f)


def test_random_field_decay_damps_high_modes(lattice32):
    rng = np.random.default_rng(53)
    rough = random_mean_zero_field(lattice32, rng)
    smooth = random_mean_zero_field(lattice32, np.random.default_rng(53), decay=4.0)
    r = coordinates(lattice32).radius[:, :16]
    outer = r > lattice32.xi_max / 2
    ratio = np.abs(smooth.coeffs[outer]).mean() / np.abs(rough.coeffs[outer]).mean()
    assert ratio < 0.1


def test_random_field_reproducible(lattice32):
    a = random_mean_zero_field(lattice32, np.random.default_rng(54))
    b = random_mean_zero_field(lattice32, np.random.default_rng(54))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_single_shell_support(lattice32):
    rng = np.random.default_rng(55)
    f = single_shell_field(lattice32, 1, rng)
    ring = lattice32.partition.ring_values(1)
    assert np.all((padded(f) != 0) <= (ring > 0))
    assert f.coeffs.any()
    with pytest.raises(ValueError, match="no lattice support"):
        single_shell_field(lattice32, -8, rng)


def test_unit_normalize(lattice32):
    rng = np.random.default_rng(56)
    f = random_mean_zero_field(lattice32, rng, decay=1.0)
    idx = BesovIndex.solution_index(4.0, 2.0)
    g = unit_normalize(f, idx)
    assert besov_norm(g, idx) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="zero field"):
        unit_normalize(SpectralField.zeros(lattice32), idx)


def full_lattice_sample(lattice, c, weight):
    """The samplers' construction on the whole lattice, as an oracle: the
    draws times a full-lattice weight, symmetrized, mean and edge removed."""
    c = c * weight
    c = 0.5 * (c + np.conj(mirrored(c)))
    c[0, 0] = 0.0
    return strip_unpaired_edge(c)[:, : lattice.m // 2]


def stored_bytes_and_zero_tail(got, want):
    """Whether the stored columns ``got`` (m, w) are bitwise the first w of
    the whole half ``want`` (m, m/2), and ``want`` is zero past them."""
    w = got.shape[1]
    return got.tobytes() == want[:, :w].tobytes() and not want[:, w:].any()


@pytest.mark.parametrize("m, h_xi", [(32, 0.25), (64, 0.3)])
@pytest.mark.parametrize("decay", [0.0, 2.0])
def test_random_field_is_bitwise_the_full_lattice_construction(m, h_xi, decay):
    # the decay is read from a quadrant of |xi|**2, with the same draws
    lattice = FrequencyLattice(m=m, h_xi=h_xi)
    got = random_mean_zero_field(lattice, np.random.default_rng(57), decay=decay)
    rng = np.random.default_rng(57)
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    weight = (1.0 + coordinates(lattice).radius_sq) ** (-decay / 2.0) if decay else 1.0
    assert got.coeffs.tobytes() == full_lattice_sample(lattice, c, weight).tobytes()


@pytest.mark.parametrize("j", [0, 2, 3])
def test_inner_edge_field_is_bitwise_the_full_lattice_construction(j):
    lattice = FrequencyLattice(m=64, h_xi=0.25)
    got = _inner_edge_field(lattice, j, np.random.default_rng(58))
    rng = np.random.default_rng(58)
    r = coordinates(lattice).radius
    mask = (r > 0.875 * 2.0**j) & (r < 0.95 * 2.0**j)
    assert mask.any()
    c = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    assert stored_bytes_and_zero_tail(got.coeffs, full_lattice_sample(lattice, c, mask))


@pytest.mark.parametrize("m, h_xi", [(32, 0.25), (64, 0.3)])
@pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
def test_band_limited_field_is_bitwise_the_masked_white_field(m, h_xi, fraction):
    # the 0/1 mask multiplies the draws before symmetrizing, not the field
    # after: a product by 1 or 0 is exact either way, but a zero's sign
    # follows the signs of what it multiplied, so zeros are compared as
    # +0 (adding +0.0 turns -0.0 into +0.0 and leaves every other value)
    lattice = FrequencyLattice(m=m, h_xi=h_xi)
    radius = fraction * lattice.xi_max
    got = _band_limited_field(lattice, np.random.default_rng(59), radius)
    want = band_limited_field(lattice, np.random.default_rng(59), radius)
    assert stored_bytes_and_zero_tail(got.coeffs + 0.0, want.coeffs + 0.0)
    assert got.coeffs.any()


def test_samplers_store_only_the_columns_they_occupy():
    # at constants' defaults the shell -2 sample occupies 2 columns, where
    # storing every m/2 = 64 of them would hold 62 zero columns
    lattice = FrequencyLattice(m=128, h_xi=0.25)
    partition = lattice.partition
    rng = np.random.default_rng(60)
    samples = {f"shell {j}": single_shell_field(lattice, j, rng)
               for j in partition.shells}
    samples |= {f"inner edge {j}": _inner_edge_field(lattice, j, rng)
                for j in partition.shells}
    samples |= {f"band {fraction}": _band_limited_field(lattice, rng, fraction * lattice.xi_max)
                for fraction in (0.1, 0.5, 1.0)}
    assert samples[f"shell {partition.j_min}"].occupied[1] == 2
    for name, f in samples.items():
        assert f.coeffs.shape[1] == f.occupied[1], name
