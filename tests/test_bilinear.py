"""The quadratic form: closed form, route agreement, exactness properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coordinates,
    full,
    hermitian_defect,
    padded,
    padded_transport,
    physical_coordinates,
    physical_real,
)
from sqglab import bilinear, spectral
from sqglab.bilinear import (
    QUADRATURE_SIZE_LIMIT,
    bilinear_block,
    bilinear_quadrature,
    quadratic_diagonal,
)
from sqglab.forcing import ForceSpec, modulated_bump_force
from sqglab.sampling import random_mean_zero_field
from sqglab.spectral import (
    FrequencyLattice,
    SpectralField,
    inverse_laplacian,
    riesz_velocity,
    strip_unpaired_edge,
)


def band_limited(lattice, rng, decay=1.0):
    f = random_mean_zero_field(lattice, rng, decay=decay)
    keep = coordinates(lattice).radius < lattice.xi_max / 2
    return SpectralField(lattice, np.where(keep, full(f), 0.0))


def test_closed_form_cosine_pair(lattice32):
    # theta = cos(x1) + cos(2 x2) worked out by hand:
    #   u = grad^perp Lambda^{-1} theta = (sin(2 x2), -sin(x1))
    #   div(theta u) = sin(x1) sin(2 x2)
    #   (-Delta)^{-1} of that = (cos(x1 - 2 x2) - cos(x1 + 2 x2)) / 10
    # wavenumbers 1 and 2 are lattice indices 4 and 8 at h_xi = 1/4
    theta = SpectralField.cosine(lattice32, (4, 0)) + SpectralField.cosine(
        lattice32, (0, 8)
    )
    want = 0.1 * (
        padded(SpectralField.cosine(lattice32, (4, -8)))
        - padded(SpectralField.cosine(lattice32, (4, 8)))
    )
    got = quadratic_diagonal(theta)
    assert np.max(np.abs(padded(got) - want)) <= 1e-12


def test_closed_form_velocity(lattice32):
    theta = SpectralField.cosine(lattice32, (4, 0))
    x1 = physical_coordinates(lattice32)[0]
    u1, u2 = (physical_real(u) for u in riesz_velocity(theta))
    assert np.max(np.abs(u1)) <= 1e-13
    assert np.max(np.abs(u2 + np.sin(x1))) <= 1e-13


def test_three_routes_agree(lattice32):
    rng = np.random.default_rng(31)
    f = band_limited(lattice32, rng)
    g = band_limited(lattice32, rng)
    slow = bilinear_quadrature(f, g)
    fast = bilinear_block(f, g)
    scale = np.max(np.abs(slow.coeffs))
    assert np.max(np.abs(padded(fast) - padded(slow))) <= 1e-12 * scale

    diag = quadratic_diagonal(f)
    slow_diag = bilinear_quadrature(f, f)
    scale = np.max(np.abs(slow_diag.coeffs))
    assert np.max(np.abs(padded(diag) - padded(slow_diag))) <= 1e-12 * scale


def test_block_form_is_symmetric(lattice32):
    rng = np.random.default_rng(32)
    f = band_limited(lattice32, rng)
    g = band_limited(lattice32, rng)
    a = bilinear_block(f, g).coeffs
    b = bilinear_block(g, f).coeffs
    assert np.array_equal(a, b)


def test_bilinearity_exact_for_dyadic_scalars(lattice32):
    # scaling by powers of two commutes exactly with every step of the
    # fast form, so bilinearity holds bitwise, not just to rounding
    rng = np.random.default_rng(33)
    f = band_limited(lattice32, rng)
    g = band_limited(lattice32, rng)
    base = bilinear_block(f, g).coeffs
    assert np.array_equal(bilinear_block(2.0 * f, g).coeffs, 2.0 * base)
    assert np.array_equal(bilinear_block(f, 0.25 * g).coeffs, 0.25 * base)
    assert np.array_equal(
        quadratic_diagonal(2.0 * f).coeffs, 4.0 * quadratic_diagonal(f).coeffs
    )


def test_output_is_mean_zero_and_real(lattice32):
    rng = np.random.default_rng(34)
    f = band_limited(lattice32, rng)
    out = quadratic_diagonal(f)
    assert out.mean_coefficient() == 0.0
    scale = np.max(np.abs(out.coeffs))
    assert hermitian_defect(out) <= 1e-13 * scale
    physical_real(out)  # must not raise


def test_quadrature_size_limit():
    big = FrequencyLattice(m=2 * QUADRATURE_SIZE_LIMIT, h_xi=0.25)
    f = SpectralField.cosine(big, (4, 0))
    with pytest.raises(ValueError, match="limited to m <="):
        bilinear_quadrature(f, f)


def test_lattice_mismatch_rejected(lattice32, lattice128):
    f = SpectralField.cosine(lattice32, (4, 0))
    g = SpectralField.cosine(lattice128, (4, 0))
    with pytest.raises(ValueError, match="different lattices"):
        bilinear_block(f, g)


def test_quadratic_form_ignores_unpaired_input_edge(field_pair):
    # energy on the k = -m/2 row and column has no conjugate partner, and a
    # field has no slot for it: construction refuses it, mirrored along the
    # edge or not, so no form ever sees it.  Stripped, the array is the
    # field without it again
    f, g = field_pair
    c = full(f)
    half = f.lattice.m // 2
    c[half, 3] = 1.0 + 2.0j
    c[5, half] = -0.5
    with pytest.raises(ValueError, match="unpaired k = -16 row or column"):
        SpectralField(f.lattice, c)
    c[half, -3] = 1.0 - 2.0j
    c[-5, half] = -0.5
    with pytest.raises(ValueError, match="unpaired k = -16 row or column"):
        SpectralField(f.lattice, c)
    stripped = SpectralField(f.lattice, strip_unpaired_edge(c))
    assert np.array_equal(bilinear_block(stripped, g).coeffs, bilinear_block(f, g).coeffs)
    assert np.array_equal(quadratic_diagonal(stripped).coeffs, quadratic_diagonal(f).coeffs)


@pytest.mark.parametrize(
    "form", [quadratic_diagonal, lambda f: bilinear_block(f, f)], ids=["diagonal", "block"]
)
def test_non_finite_amplitudes_raise(lattice32, form):
    theta = 1e200 * SpectralField.cosine(lattice32, (4, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite"):
            form(theta)


@pytest.mark.parametrize("position", ["first", "second"])
def test_complex_inputs_are_refused(lattice32, position):
    # the forms take real fields, and a complex one cannot be built: its
    # construction is refused, whichever argument it was meant for, and a
    # real field scaled by i is refused too
    rng = np.random.default_rng(35)
    real = random_mean_zero_field(lattice32, rng)
    c = full(real)
    if position == "second":
        c[1, 2] += 1e-3 * np.abs(c).max()  # unmatched at (-1, -2)
    else:
        c = 1j * c
    with pytest.raises(ValueError, match="SpectralField takes real fields"):
        SpectralField(lattice32, c)
    with pytest.raises(TypeError):
        1j * real


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(-3.0, 3.0, allow_nan=False),
)
def test_quadratic_form_properties(m, seed, alpha):
    # the fused kernel against the quadrature oracle, on real fields
    lat = FrequencyLattice(m=m, h_xi=0.5)
    rng = np.random.default_rng(seed)
    f, g, h = (random_mean_zero_field(lat, rng) for _ in range(3))
    fg = bilinear_block(f, g)
    ff = quadratic_diagonal(f)

    assert np.array_equal(fg.coeffs, bilinear_block(g, f).coeffs)

    hg = bilinear_block(h, g)
    combined = bilinear_block(alpha * f + h, g).coeffs
    scale = max(np.max(np.abs(fg.coeffs)), np.max(np.abs(hg.coeffs)))
    assert np.max(np.abs(combined - (alpha * fg.coeffs + hg.coeffs))) <= 1e-12 * scale

    for out, want in ((fg, bilinear_quadrature(f, g)), (ff, bilinear_quadrature(f, f))):
        assert out.mean_coefficient() == 0
        assert hermitian_defect(out) == 0.0
        scale = np.max(np.abs(want.coeffs))
        assert np.max(np.abs(out.coeffs - want.coeffs)) <= 1e-10 * scale


# -- syntheses over the occupied columns ---------------------------------------
#
# The route that synthesizes all m/2 columns of every factor is the oracle:
# at the same row length, skipping only zero columns must leave every bit
# of the form unchanged.  Both routes run here on the full 3m/2 row grid;
# the row length that the kernel sizes by the product's band is checked
# against the padded kernel and the quadrature below.


def in_columns(lattice, rng, columns):
    """Random mean-zero field that occupies only the k2 = +-k columns listed."""
    f = random_mean_zero_field(lattice, rng)
    keep = np.isin(np.abs(lattice.k2), columns)
    return SpectralField(lattice, np.where(keep, full(f), 0.0))


def kernel_inputs():
    lat = FrequencyLattice(m=64, h_xi=0.25)
    rng = np.random.default_rng(37)
    bump = inverse_laplacian(modulated_bump_force(lat, ForceSpec(variant="bump", size=2)))
    return lat, {
        "bump": bump,
        "narrow": in_columns(lat, rng, [0, 1, 2, 5]),
        "zero": SpectralField.zeros(lat),
        "last-column": in_columns(lat, rng, [31]),
        "full": in_columns(lat, rng, list(range(32))),
    }


def test_kernel_inputs_are_as_named():
    lat, fields = kernel_inputs()
    h = lat.m // 2
    widths = {name: f.occupied[1] for name, f in fields.items()}
    assert widths == {"bump": 8, "narrow": 6, "zero": 0, "last-column": 32, "full": 32}
    for name, f in fields.items():
        assert hermitian_defect(f) == 0.0, name


@pytest.mark.parametrize("first", ["bump", "narrow", "zero", "last-column"])
def test_occupied_column_kernel_is_bitwise_the_full_column_route(first, monkeypatch):
    lat, fields = kernel_inputs()
    monkeypatch.setattr(bilinear, "_flux_band", lambda wf, wg, h: (h, 3 * h))
    f = fields[first]
    got = [quadratic_diagonal(f)] + [bilinear_block(f, g) for g in fields.values()]
    # the same fields stored and synthesized with all m/2 columns
    wide = {name: SpectralField._adopt(lat, padded(g)) for name, g in fields.items()}
    whole = property(lambda field: (field.lattice.m // 2, field.lattice.m // 2))
    monkeypatch.setattr(SpectralField, "occupied", whole)
    f = wide[first]
    want = [quadratic_diagonal(f)] + [bilinear_block(f, g) for g in wide.values()]
    for a, b in zip(got, want):
        assert np.array_equal(padded(a), padded(b))
    if first != "zero":
        assert np.abs(got[0].coeffs).max() > 0


# -- the row length of the flux ------------------------------------------------


def smooth_sizes(limit):
    """The even 2^a 3^b up to ``limit``."""
    return sorted(2 ** a * 3 ** b for a in range(1, 14) for b in range(9)
                  if 2 ** a * 3 ** b <= limit)


@pytest.mark.parametrize("m", [2 ** k for k in range(3, 13)])
def test_full_band_flux_runs_on_the_square_grid(m):
    # the full-band path is the 3/2 rule's square grid, so it keeps every
    # bit of the kernel as it was before the row length followed the band
    h = m // 2
    assert bilinear._flux_band(h, h, h) == (h, 3 * h)


@pytest.mark.parametrize("h", [4, 8, 32])
def test_flux_row_length_is_the_smallest_alias_free_smooth_size(h):
    sizes = smooth_sizes(3 * h)
    for wf in range(h + 1):
        for wg in range(h + 1):
            wo, length = bilinear._flux_band(wf, wg, h)
            band = max(wf - 1, 0) + max(wg - 1, 0)
            assert wo == min(band + 1, h)
            assert length == min([s for s in sizes if s >= band + wo] + [3 * h])
            # every factor's occupied columns fit below the rows' Nyquist column
            assert max(wf, wg) <= length // 2 and wo <= length // 2


# -- the slab kernel against the padded kernel ---------------------------------
#
# oracles.padded_transport is the kernel as it was before its row passes
# ran in slabs of 64 rows on rows sized by the product's band: every factor
# and flux synthesized and analysed in a whole (3m/2, 3m/4 + 1) buffer.
# For full-band inputs the kernel's rows are 3m/2 long too and the
# arithmetic of each coefficient is the same, so it must agree with the
# padded kernel bit for bit, with one FFT worker and with two.  For inputs
# narrow in k2 its rows are shorter: the transforms round differently, and
# it must agree to NARROW_RTOL of the output's largest coefficient, with
# exact zeros in the columns the product does not reach.  The grid of
# m = 64 has 96 rows, one full slab and one partial one.

# measured: at most 5.4e-15 over these inputs
NARROW_RTOL = 1e-14


def slab_kernel_inputs(m):
    lat = FrequencyLattice(m=m, h_xi=0.25)
    rng = np.random.default_rng(m)
    full_band = random_mean_zero_field(lat, rng)
    other = random_mean_zero_field(lat, rng, decay=1.0)
    if m >= 64:
        narrow = inverse_laplacian(modulated_bump_force(lat, ForceSpec(variant="bump", size=2)))
    else:
        # the bump's carrier does not fit below m = 64; a field as narrow
        # in k2 stands in for it
        narrow = in_columns(lat, rng, [0, 1])
    return lat, {
        "diagonal full-band": (full_band, None),
        "diagonal narrow": (narrow, None),
        "block full-band": (full_band, other),
        "block narrow, full-band": (narrow, full_band),
        "block full-band, narrow": (full_band, narrow),
        "block narrow": (narrow, narrow),
    }


def flux_band_of(lat, f, g):
    wf = f.occupied[1]
    wg = wf if g is None else g.occupied[1]
    return bilinear._flux_band(wf, wg, lat.m // 2)


@pytest.mark.parametrize("m", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("workers", [1, 2])
def test_slab_kernel_is_bitwise_the_padded_kernel(m, workers, monkeypatch):
    monkeypatch.setattr(spectral, "_FFT_WORKERS", workers)
    lat, cases = slab_kernel_inputs(m)
    for name, (f, g) in cases.items():
        gc = None if g is None else padded(g)
        got = padded(bilinear._transport(f, g))
        want = padded_transport(padded(f), gc, lat)
        assert np.abs(got).max() > 0, name
        wo, length = flux_band_of(lat, f, g)
        if "narrow" not in name:
            assert length == 3 * m // 2, name
            assert np.array_equal(got, want), name
            continue
        assert length < 3 * m // 2, name
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= NARROW_RTOL * scale, name
        assert not got[:, wo:].any(), name


def quadrature_half(f, g):
    h = f.lattice.m // 2
    if g is None:
        return bilinear._quadrature_coeffs(f, f)[:, :h]
    return 0.5 * (bilinear._quadrature_coeffs(f, g) + bilinear._quadrature_coeffs(g, f))[:, :h]


# the quadrature's own rounding is a few 1e-15 of its largest coefficient
# here (up to 5.8e-15 on full-band inputs), so either kernel may land on
# either side of the other; measured: the narrow rows at most 9.2e-16
# farther than the padded kernel, and nearer on 8 of the 16 inputs
QUADRATURE_SLACK = 4e-15


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_narrow_rows_are_as_close_to_the_quadrature_as_the_padded_kernel(m, monkeypatch):
    # on the longest even rows short of band + wo, the product's mode
    # k2 = -band folds onto a kept column, wo - 2 or wo - 1, and the result
    # leaves the quadrature: band + wo is the bound, not merely a safe one
    lat, cases = slab_kernel_inputs(m)
    sized = bilinear._flux_band

    def short(wf, wg, h):
        wo, _ = sized(wf, wg, h)
        need = max(wf - 1, 0) + max(wg - 1, 0) + wo
        return wo, need - 2 + need % 2

    for name, (f, g) in cases.items():
        if "narrow" not in name:
            continue
        gc = None if g is None else padded(g)
        want = quadrature_half(f, g)
        scale = np.abs(want).max()
        got = np.abs(padded(bilinear._transport(f, g)) - want).max()
        kernel = np.abs(padded_transport(padded(f), gc, lat) - want).max()
        assert got <= kernel + QUADRATURE_SLACK * scale, name
        with monkeypatch.context() as patch:
            patch.setattr(bilinear, "_flux_band", short)
            aliased = np.abs(padded(bilinear._transport(f, g)) - want).max()
        # measured: at least 3.1e-5 (the bump at m = 64, whose extreme
        # columns are small), against a few 1e-15 without the fold
        assert aliased > 1e-6 * scale, name


def test_narrow_form_is_bitwise_homogeneous():
    # step2's quadratic-homogeneity verdict reads B[f/2] against B[f]/4 and
    # observes an exact 0: scaling by a power of two commutes with every
    # step of the narrow route too
    for m in (64, 256):
        lat, cases = slab_kernel_inputs(m)
        narrow = cases["diagonal narrow"][0]
        assert flux_band_of(lat, narrow, None)[1] < 3 * m // 2
        half = quadratic_diagonal(0.5 * narrow).coeffs
        assert np.array_equal(half, 0.25 * quadratic_diagonal(narrow).coeffs)
        assert np.abs(half).max() > 0
