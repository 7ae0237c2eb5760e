"""Fields store only their columns.

A field stores the first w <= m/2 columns of its k2 >= 0 half spectrum, an
(m, w) array, and leaves the columns from w on as implicit zeros
(``spectral.SpectralField``).  Each operator's output, padded to the whole
half (``oracles.padded``), must be what the operator's full-width route
makes of its inputs padded likewise: bit for bit in the stored columns, and
zero in the others.  The full route may hold -0.0 there (the negation of a
zero, or a zero times a negative factor), where the implicit columns read
+0.0; every stored column is compared with its sign.
"""

import math

import numpy as np
import pytest

import oracles
from oracles import padded, padded_transport
from sqglab import bilinear
from sqglab.besov import shell_project
from sqglab.bilinear import bilinear_block, quadratic_diagonal
from sqglab.forcing import ExponentMap, ForceSpec, lacunary_force, modulated_bump_force
from sqglab.sampling import random_mean_zero_field
from sqglab.spectral import (
    FrequencyLattice,
    SpectralField,
    _radial_multiply,
    _reciprocal,
    dyadic_rescale,
    inverse_laplacian,
    neg_laplacian,
    riesz_velocity,
)


def assert_full_route(field, want):
    """``field`` stores ``want``'s first columns bit for bit, and ``want`` is
    zero in the columns ``field`` leaves implicit."""
    w = field.coeffs.shape[1]
    assert field.coeffs.shape == (want.shape[0], w) and w <= want.shape[1]
    assert field.coeffs.tobytes() == np.ascontiguousarray(want[:, :w]).tobytes()
    assert not want[:, w:].any()


@pytest.fixture(scope="module")
def fields():
    """Fields of every width on m = 64, h_xi = 1/4: full band (32 columns),
    a modulated bump (8), its inverse Laplacian (8) and second iterate (15),
    step2's lacunary forcing (one term fits), a field of the constructor that occupies 3
    of its 32 columns, and the zero field (0)."""
    lattice = FrequencyLattice(m=64, h_xi=0.25)
    rng = np.random.default_rng(5)
    bump = modulated_bump_force(lattice, ForceSpec(variant="bump", size=2))
    theta1 = inverse_laplacian(bump)
    out = {
        "full band": random_mean_zero_field(lattice, rng),
        "bump": bump,
        "bump theta1": theta1,
        "bump theta2": quadratic_diagonal(theta1),
        "lacunary": lacunary_force(lattice, ForceSpec(
            variant="lacunary", delta=0.01, size=2, block_range=(1, 1),
            exponents=ExponentMap.affine(2, 0))),
        "constructor": SpectralField.from_modes(
            lattice, {(3, 2): 0.5, (1, 1): 0.25, (2, -1): 0.125}),
        "zero": SpectralField.zeros(lattice),
    }
    widths = {name: f.coeffs.shape[1] for name, f in out.items()}
    assert widths == {"full band": 32, "bump": 8, "bump theta1": 8, "bump theta2": 15,
                      "lacunary": 8, "constructor": 32, "zero": 0}
    return lattice, out


def test_sums_and_differences_of_any_widths(fields):
    _, fs = fields
    for a in fs.values():
        for b in fs.values():
            assert_full_route(a + b, padded(a) + padded(b))
            assert_full_route(a - b, padded(a) - padded(b))


def test_multiples_and_negation(fields):
    _, fs = fields
    for f in fs.values():
        assert_full_route(-f, -padded(f))
        for scalar in (2.0, -0.375, 0.0):
            assert_full_route(scalar * f, padded(f) * scalar)
        # 0 times a non-finite scalar is NaN: every column is stored
        with np.errstate(invalid="ignore"):
            for scalar in (math.inf, math.nan):
                got = scalar * f
                assert got.coeffs.shape[1] == 32
                assert np.array_equal(got.coeffs, padded(f) * scalar, equal_nan=True)


def test_multipliers(fields):
    lattice, fs = fields
    h = lattice.m // 2
    r = lattice.radius_quadrant
    xi = lattice.xi_axis
    for f in fs.values():
        assert_full_route(inverse_laplacian(f), oracles.whole_inverse_laplacian(f))
        assert_full_route(neg_laplacian(f), _radial_multiply(r * r, padded(f)))
        lifted = _radial_multiply(1j * _reciprocal(r), padded(f))
        u1, u2 = riesz_velocity(f)
        assert_full_route(u1, -xi[None, :h] * lifted)
        assert_full_route(u2, xi[:, None] * lifted)


def test_dyadic_rescale(fields):
    lattice, fs = fields
    cases = [fs["constructor"], SpectralField.cosine(lattice, (4, 6)), fs["zero"]]
    for f in cases:
        for exponent, power in ((1, 1), (2, 3)):
            up = dyadic_rescale(f, exponent, power)
            assert_full_route(up, oracles.whole_dyadic_rescale(f, exponent, power))
            back = dyadic_rescale(up, -exponent, power)
            assert_full_route(back, oracles.whole_dyadic_rescale(up, -exponent, power))
    assert dyadic_rescale(fs["constructor"], 2).coeffs.shape[1] == 2 * 4 + 1


def test_shell_projections(fields):
    lattice, fs = fields
    partition = lattice.partition
    for f in fs.values():
        for j in partition.shells:
            want = padded(f) * partition.ring_values(j)
            assert_full_route(shell_project(f, j), want)


@pytest.mark.parametrize("form", ["diagonal", "block"])
def test_forms_keep_the_padded_kernels_columns(fields, form, monkeypatch):
    """``oracles.padded_transport`` runs every row pass on the 3m/2 points
    of the whole padded grid; the forms are run on rows that long here, so
    that each of their wo stored columns has the same arithmetic.  The
    padded kernel analyses every column: past wo, where the product has no
    mode, it holds the rounding of the exact zeros that the form leaves
    implicit, measured at most 1.5e-16 of its largest coefficient here."""
    lattice, fs = fields
    sized = bilinear._flux_band
    monkeypatch.setattr(bilinear, "_flux_band", lambda wf, wg, h: (sized(wf, wg, h)[0], 3 * h))
    names = [name for name in fs if name != "zero"]
    pairs = [(a, None) for a in names] if form == "diagonal" else [
        (a, b) for a in names for b in names]
    for a, b in pairs:
        f, g = fs[a], None if b is None else fs[b]
        got = quadratic_diagonal(f) if g is None else bilinear_block(f, g)
        want = padded_transport(padded(f), None if g is None else padded(g), lattice)
        w = got.coeffs.shape[1]
        assert got.coeffs.tobytes() == np.ascontiguousarray(want[:, :w]).tobytes(), (a, b)
        assert np.abs(want[:, w:]).max(initial=0.0) <= 1e-15 * np.abs(want).max(), (a, b)


def test_forms_of_the_zero_field_store_one_zero_column(fields):
    # a factor with no column counts as one (bilinear._flux_band)
    lattice, fs = fields
    zero = fs["zero"]
    for got in (quadratic_diagonal(zero), bilinear_block(zero, fs["bump theta1"]),
                bilinear_block(fs["full band"], zero)):
        assert got.coeffs.shape[1] >= 1 and not got.coeffs.any()
        assert got.occupied == (0, 0)
