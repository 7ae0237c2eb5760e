"""Core spectral layer: lattice validation, field construction, Fourier
multipliers and dyadic rescaling."""

import os
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    analysed_half,
    coordinates,
    full,
    hermitian_defect,
    padded,
    padded_half,
    physical_coordinates,
    physical_real,
    real_synthesis,
)
from sqglab import spectral
from sqglab.sampling import random_mean_zero_field
from sqglab.spectral import (
    FrequencyLattice,
    SpectralField,
    _column_analysis,
    _column_synthesis,
    _half_synthesis,
    _occupied_columns,
    _reciprocal,
    _row_blocks,
    _RowPasses,
    _unfold,
    dyadic_rescale,
    inverse_laplacian,
    neg_laplacian,
    riesz_velocity,
)


# -- lattice -----------------------------------------------------------------


@pytest.mark.parametrize("bad_m", [0, 4, 7, 48, 100])
def test_lattice_rejects_non_power_of_two(bad_m):
    with pytest.raises(ValueError, match="power of two"):
        FrequencyLattice(m=bad_m, h_xi=0.25)


def test_lattice_rejects_nonpositive_spacing():
    with pytest.raises(ValueError, match="h_xi"):
        FrequencyLattice(m=32, h_xi=0.0)


def test_lattice_geometry():
    lat = FrequencyLattice(m=64, h_xi=0.125)
    assert lat.xi_max == pytest.approx(4.0)
    assert lat.box_length == pytest.approx(16.0 * np.pi)
    assert coordinates(lat).radius[0, 0] == 0.0
    # FFT ordering: index m/2 carries the negative Nyquist frequency
    assert lat.k1[lat.m // 2, 0] == -32


# -- field construction ------------------------------------------------------


def test_cosine_matches_sampled_cosine(lattice32):
    x1, x2 = physical_coordinates(lattice32)
    f = SpectralField.cosine(lattice32, (3, -2), amplitude=1.5)
    want = 1.5 * np.cos(lattice32.h_xi * (3 * x1 - 2 * x2))
    assert np.max(np.abs(physical_real(f) - want)) < 1e-12


def test_from_modes_rejects_unpaired_edge(lattice32):
    with pytest.raises(ValueError, match="symmetric box"):
        SpectralField.from_modes(lattice32, {(-16, 0): 1.0})


def test_random_field_is_real_and_mean_zero(lattice32):
    rng = np.random.default_rng(1)
    f = random_mean_zero_field(lattice32, rng)
    assert hermitian_defect(f) < 1e-14
    assert f.mean_coefficient() == 0
    physical_real(f)  # must not raise


def test_constructor_keeps_the_half_and_unfolding_restores_the_array(lattice32):
    rng = np.random.default_rng(5)
    c = full(random_mean_zero_field(lattice32, rng))
    f = SpectralField(lattice32, c)
    assert f.coeffs.shape == (32, 16)
    assert np.array_equal(f.coeffs, c[:, :16])
    assert np.array_equal(_unfold(f.coeffs), c)
    for u in riesz_velocity(f):
        assert u.coeffs.shape == (32, 16)
        assert np.array_equal(SpectralField(lattice32, _unfold(u.coeffs)).coeffs, u.coeffs)


def test_constructor_refuses_a_complex_field(lattice32):
    # the realness check of the whole lattice runs once, at construction
    rng = np.random.default_rng(6)
    c = full(random_mean_zero_field(lattice32, rng))
    with pytest.raises(ValueError, match="SpectralField takes real fields"):
        SpectralField(lattice32, 1j * c)
    # rounding of an assembled array passes, up to 1e-12 of its scale
    scale = np.abs(c.view(np.float64)).max()
    nudged = c.copy()
    nudged[3, 5] += 0.9e-12 * scale
    SpectralField(lattice32, nudged)
    nudged[3, 5] += 0.2e-12 * scale
    with pytest.raises(ValueError, match="SpectralField takes real fields"):
        SpectralField(lattice32, nudged)
    for factor in (1j, np.complex128(1.0)):
        with pytest.raises(TypeError, match="not a real field"):
            SpectralField.cosine(lattice32, (1, 0)) * factor


def test_constructor_refuses_the_unpaired_edge(lattice32):
    # the half has no slot for the k2 = -m/2 column, and its k1 = -m/2 row
    # is zero: energy there is refused even where it mirrors onto itself
    c = np.zeros((32, 32), dtype=np.complex128)
    c[16, 3] = c[16, -3] = 1.0
    with pytest.raises(ValueError, match="unpaired k = -16 row or column"):
        SpectralField(lattice32, c)
    with pytest.raises(ValueError, match="unpaired k = -16 row or column"):
        SpectralField(lattice32, c.T)
    with pytest.raises(ValueError, match="expected the full"):
        SpectralField(lattice32, c[:, :16])


def test_constructor_copies_and_operator_outputs_are_frozen(lattice32):
    rng = np.random.default_rng(2)
    c = full(random_mean_zero_field(lattice32, rng))
    f = SpectralField(lattice32, c)
    before = f.coeffs.copy()
    c[1, 2] = 7.0
    assert np.array_equal(f.coeffs, before)
    assert not f.coeffs.flags.writeable
    g = random_mean_zero_field(lattice32, rng)
    outputs = [
        f + g,
        f - g,
        2.0 * f,
        f * 2.0,
        -f,
        neg_laplacian(f),
        *riesz_velocity(f),
        dyadic_rescale(SpectralField.cosine(lattice32, (2, 4)), 1),
        dyadic_rescale(SpectralField.cosine(lattice32, (2, 4)), -1),
    ]
    for out in outputs:
        assert not out.coeffs.flags.writeable
        assert out.coeffs.dtype == np.complex128
    assert np.array_equal(f.coeffs, before)
    with pytest.raises(ValueError, match="does not match lattice"):
        SpectralField._adopt(lattice32, np.zeros((16, 16), dtype=np.complex128))


def test_fields_compare_and_hash_by_identity(lattice32):
    # equal coefficients, distinct fields: == must not ask an array for a
    # truth value, and a field must be usable as a key
    f, g = SpectralField.cosine(lattice32, (1, 2)), SpectralField.cosine(lattice32, (1, 2))
    assert np.array_equal(f.coeffs, g.coeffs)
    assert f != g
    assert f == f
    assert hash(f) == hash(f)
    assert {f: 1, g: 2}[f] == 1


def test_mismatched_lattice_rejected(lattice32):
    other = FrequencyLattice(m=64, h_xi=0.25)
    with pytest.raises(ValueError, match="incompatible lattices"):
        SpectralField.zeros(lattice32) + SpectralField.zeros(other)


# -- multipliers -------------------------------------------------------------


def test_inverse_laplacian_per_coefficient(lattice32):
    rng = np.random.default_rng(2)
    f = random_mean_zero_field(lattice32, rng)
    got = inverse_laplacian(f).coeffs
    rsq = coordinates(lattice32).radius_sq[:, :16]
    want = np.divide(f.coeffs, rsq, out=np.zeros_like(f.coeffs), where=rsq > 0)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_coordinate_axis_and_quadrant_are_the_lattice_arrays_bitwise():
    lat = FrequencyLattice(m=64, h_xi=0.3)
    assert np.array_equal(lat.xi_axis, coordinates(lat).xi1[:, 0])
    assert np.array_equal(lat.xi_axis, coordinates(lat).xi2[0, :])
    q = lat.radius_quadrant
    assert q.shape == (33, 33) and not q.flags.writeable
    k = np.abs(lat.k1[:, 0])
    assert coordinates(lat).radius.tobytes() == q[np.ix_(k, k)].tobytes()


@pytest.mark.parametrize("m", [8, 32, 128])
def test_laplacians_from_the_quadrant_are_bitwise_the_full_lattice_symbols(m):
    lat = FrequencyLattice(m=m, h_xi=0.25)
    rng = np.random.default_rng(m)
    # the symbols act mode by mode, so any half spectrum will do
    shape = (m, m // 2)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = SpectralField._adopt(lat, c.copy())
    r = coordinates(lat).radius[:, : m // 2]  # the full-lattice symbols are the oracle
    assert inverse_laplacian(f).coeffs.tobytes() == (_reciprocal(r * r) * c).tobytes()
    assert neg_laplacian(f).coeffs.tobytes() == ((r * r) * c).tobytes()


def test_neg_laplacian_inverts(lattice32):
    rng = np.random.default_rng(3)
    f = random_mean_zero_field(lattice32, rng)
    back = neg_laplacian(inverse_laplacian(f))
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


def test_velocity_is_divergence_free(lattice32):
    rng = np.random.default_rng(4)
    theta = random_mean_zero_field(lattice32, rng)
    u1, u2 = (u.coeffs for u in riesz_velocity(theta))
    xi1, xi2, *_ = coordinates(lattice32)
    div = xi1[:, :16] * u1 + xi2[:, :16] * u2
    assert np.max(np.abs(div)) < 1e-13


def test_velocity_of_cosine():
    # theta = cos(x1) gives u = (0, -sin(x1)): perp gradient of the
    # half-wave inverse square root is just a quarter-turn here
    lat = FrequencyLattice(m=32, h_xi=0.25)
    theta = SpectralField.cosine(lat, (4, 0))
    x1, _ = physical_coordinates(lat)
    u1, u2 = (physical_real(u) for u in riesz_velocity(theta))
    assert np.max(np.abs(u1)) < 1e-13
    assert np.max(np.abs(u2 + np.sin(x1))) < 1e-12


# -- dyadic rescaling --------------------------------------------------------


def test_rescale_roundtrip_is_identity(lattice128, partition128):
    from sqglab.sampling import single_shell_field

    rng = np.random.default_rng(7)
    f = single_shell_field(lattice128, partition128, 1, rng)
    back = dyadic_rescale(dyadic_rescale(f, 2), -2)
    assert np.max(np.abs(padded(back) - padded(f))) == 0.0


def test_rescale_rejects_off_sublattice(lattice32):
    f = SpectralField.from_modes(lattice32, {(3, 0): 1.0})
    with pytest.raises(ValueError, match="off-lattice"):
        dyadic_rescale(f, -1)


def test_rescale_rejects_box_overflow(lattice32):
    f = SpectralField.from_modes(lattice32, {(9, 0): 1.0})
    with pytest.raises(ValueError, match="overflows"):
        dyadic_rescale(f, 1)


def test_rescale_moves_modes_with_amplitude():
    lat = FrequencyLattice(m=64, h_xi=0.25)
    f = SpectralField.from_modes(lat, {(2, -1): 0.5})
    g = dyadic_rescale(f, 2, amplitude_power=3)
    # mode (8, -4) is stored as its conjugate partner (-8, 4)
    assert full(g)[8, (-4) % 64] == pytest.approx(0.5 * 64.0)
    assert g.coeffs[(-8) % 64, 4] == pytest.approx(0.5 * 64.0)
    assert np.count_nonzero(g.coeffs) == 1


# -- transforms ----------------------------------------------------------------
#
# sqglab calls scipy's compiled pocketfft binding directly; the public
# scipy.fft functions, at the same worker count, are the oracles.  Each
# check runs at one worker, two, and all cores, on a single array and on a
# stack of two.

WORKERS = (1, 2, -1)
LEADING = ((), (2,))


@contextmanager
def fft_workers(n):
    saved = spectral._FFT_WORKERS
    spectral.set_fft_workers(n)
    try:
        yield
    finally:
        spectral.set_fft_workers(saved)


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_physical_is_bitwise_scipy_ifft2(rank):
    rng = np.random.default_rng(rank)
    shape = (2,) * rank + (32, 32)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for workers in WORKERS:
        with fft_workers(workers):
            samples = spectral._ifft2(c)
        assert np.array_equal(samples, scipy.fft.ifft2(c, norm="forward", workers=workers))


def test_set_fft_workers_resolves_counts_as_scipy_does():
    cores = os.cpu_count()
    with fft_workers(-1):
        assert spectral._FFT_WORKERS == cores
    with fft_workers(-cores):
        assert spectral._FFT_WORKERS == 1
    with fft_workers(3):
        assert spectral._FFT_WORKERS == 3
    saved = spectral._FFT_WORKERS
    for bad in (0, -cores - 1):
        with pytest.raises(ValueError, match="worker count"):
            spectral.set_fft_workers(bad)
        assert spectral._FFT_WORKERS == saved


# The two-axis transforms the staged passes replace stay here as oracles,
# and so do the whole-grid passes of oracles.py, which the slab passes
# of the quadratic form replace.


@pytest.mark.parametrize("m", [8, 32, 128, 256])
@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("with_symbol", [False, True])
def test_real_synthesis_is_bitwise_irfft2(m, padded, with_symbol):
    lat = FrequencyLattice(m=m, h_xi=0.25)
    rng = np.random.default_rng(m)
    grid = 3 * m // 2 if padded else m
    symbol = None
    if with_symbol:
        xi1, _, r, _ = coordinates(lat)
        symbol = (1j * xi1 / np.maximum(r, lat.h_xi))[:, : m // 2]
    for lead in LEADING:
        # irfft2 reads only the k2 >= 0 half, so c need not be Hermitian;
        # every mode of the half is live here, and the column pass runs on
        # the strided view of the first m/2 columns
        c = rng.standard_normal(lead + (m, m)) + 1j * rng.standard_normal(lead + (m, m))
        for workers in WORKERS:
            want = scipy.fft.irfft2(padded_half(c, grid, symbol), s=(grid, grid),
                                    norm="forward", workers=workers)
            with fft_workers(workers):
                assert np.array_equal(real_synthesis(c, grid, symbol), want)


def holding(samples):
    """A complex buffer in the in-place layout whose real view holds ``samples``."""
    grid = samples.shape[-1]
    half = np.empty(samples.shape[:-1] + (grid // 2 + 1,), dtype=np.complex128)
    half.view(np.float64)[..., :grid] = samples
    return half


@pytest.mark.parametrize("m", [8, 32, 128, 256])
@pytest.mark.parametrize("padded", [False, True])
def test_analysed_half_is_bitwise_the_rfft2_crop(m, padded):
    grid = 3 * m // 2 if padded else m
    rng = np.random.default_rng(m)
    h = m // 2
    for lead in LEADING:
        samples = rng.standard_normal(lead + (grid, grid))
        for workers in WORKERS:
            want = scipy.fft.rfft2(samples, norm="forward", workers=workers)[..., :h]
            half = holding(samples)
            with fft_workers(workers):
                got = analysed_half(half, m)
            assert got.shape == lead + (grid, h)
            assert np.shares_memory(got, half)
            assert np.array_equal(got, want)


# Padded grids of m = 32, 128 and 256, in the in-place layout: a
# (..., grid, grid/2 + 1) complex buffer whose real view holds the samples.


@pytest.mark.parametrize("grid", [48, 192, 384])
def test_in_place_synthesis_is_bitwise_irfft2(grid):
    rng = np.random.default_rng(grid)
    shape = (2, grid, grid // 2 + 1)  # a leading stack axis, every column live
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for workers in (1, 2):
        want = scipy.fft.irfft2(half, s=(grid, grid), norm="forward", workers=workers)
        buf = half.copy()
        with fft_workers(workers):
            got = _half_synthesis(buf, grid // 2 + 1)
        assert np.shares_memory(got, buf)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("grid", [48, 192, 384])
def test_synthesis_then_analysis_in_one_buffer(grid):
    """The kernel's round trip: synthesize, scale the samples in place and
    analyse them back, the rows' two spare doubles left as the synthesis
    left them."""
    m = 2 * grid // 3
    lat = FrequencyLattice(m=m, h_xi=0.25)
    c = random_mean_zero_field(lat, np.random.default_rng(grid)).coeffs
    for workers in (1, 2):
        want = scipy.fft.irfft2(padded_half(c, grid), s=(grid, grid), norm="forward",
                                workers=workers)
        with fft_workers(workers):
            half = padded_half(c, grid)
            samples = _half_synthesis(half, m // 2)
            assert np.array_equal(samples, want)
            samples *= 3.0
            got = analysed_half(half, m)
        want = scipy.fft.rfft2(3.0 * want, norm="forward", workers=workers)
        assert np.array_equal(got, want[..., : m // 2])


def column_field(m, columns, seed):
    """Random coefficients, zero outside the listed k2 >= 0 columns and
    their k2 < 0 mirrors."""
    rng = np.random.default_rng(seed)
    c = np.zeros((m, m), dtype=np.complex128)
    for k in columns:
        for col in {k, (-k) % m}:
            c[:, col] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return c


@pytest.mark.parametrize(
    "m, columns, occupied",
    [
        (64, [0, 1, 3], 4),  # narrow in k2, as a modulated bump along e1
        (64, [], 0),  # the zero field
        (64, [31], 32),  # only the last column below m/2
        (64, [2, 32], 3),  # the unpaired k2 = -m/2 column is not read
        (8, [0, 3], 4),
    ],
)
@pytest.mark.parametrize("with_symbol", [False, True])
def test_occupied_column_synthesis_is_bitwise_the_full_route(m, columns, occupied, with_symbol):
    c = column_field(m, columns, seed=m + len(columns))
    h = m // 2
    assert _occupied_columns(c, h) == occupied
    lat = FrequencyLattice(m=m, h_xi=0.25)
    xi1, _, r, _ = coordinates(lat)
    symbol = (1j * xi1 / np.maximum(r, lat.h_xi))[:, :h] if with_symbol else None
    for grid in (m, 3 * m // 2):
        for workers in WORKERS:
            with fft_workers(workers):
                full = real_synthesis(c, grid, symbol)
                narrow = real_synthesis(c, grid, symbol, occupied)
            oracle = scipy.fft.irfft2(padded_half(c, grid, symbol), s=(grid, grid),
                                      norm="forward", workers=workers)
            assert np.array_equal(full, oracle)
            assert np.array_equal(narrow, full)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([8, 16, 64, 256]),
    data=st.data(),
)
def test_occupied_columns_is_the_per_column_scan(m, data):
    # the fold against a per-column scan: the last column, then each column
    # from the right until one holds a non-zero coefficient
    h = m // 2
    columns = data.draw(st.sets(st.integers(0, h), max_size=4))
    c = column_field(m, sorted(columns), seed=len(columns))[:, :h]
    width = data.draw(st.integers(0, h))
    scan = next((k + 1 for k in range(width - 1, -1, -1) if c[:, k].any()), 0)
    assert _occupied_columns(c, width) == scan
    stacked = np.stack([c, np.zeros_like(c)])  # leading axes are read as well
    assert _occupied_columns(stacked, width) == scan


def test_occupied_columns_reads_one_column_of_a_full_band_field():
    class Counting(np.ndarray):
        reads = 0

        def __getitem__(self, key):
            Counting.reads += 1
            return super().__getitem__(key)

    c = column_field(32, range(16), seed=3).view(Counting)
    assert _occupied_columns(c, 16) == 16
    assert Counting.reads == 1


# The quadratic form's slab passes: a column pass over whole columns, then
# row passes a slab of at most 64 rows at a time, in one scratch object.
# irfft2 and rfft2 on the whole grid are the oracles.  m = 64 has a 96-row
# grid, one full slab and one partial one; m = 256 has six full slabs.


def slab_syntheses(columns, passes):
    """The samples of the column arrays ``columns``, synthesized slab by
    slab in turn through the one ``passes`` and stacked."""
    grid, length = passes.grid, passes.length
    out = [np.empty((grid, length)) for _ in columns]
    for top in range(0, grid, 64):
        for a, samples in zip(columns, out):
            rows = passes.synthesis(a[top : top + 64], 0)
            samples[top : top + 64] = rows[:, :length]
            assert not rows[:, length:].any()
    return out


# The row passes run on rows of the column grid's length or shorter, down
# to twice the widest input's columns (bilinear._flux_band): m points here
# for the m/2 columns of a full-band input.


@pytest.mark.parametrize("m", [8, 32, 64, 256])
@pytest.mark.parametrize("with_symbol", [False, True])
def test_column_and_slab_row_passes_are_bitwise_irfft2(m, with_symbol):
    lat = FrequencyLattice(m=m, h_xi=0.25)
    h, grid = m // 2, 3 * m // 2
    rng = np.random.default_rng(m)
    wide = rng.standard_normal((m, h)) + 1j * rng.standard_normal((m, h))
    narrow = np.zeros_like(wide)
    narrow[:, :3] = wide[:, :3]
    symbol = None
    if with_symbol:
        xi1, _, r, _ = coordinates(lat)
        values = (1j * xi1 / np.maximum(r, lat.h_xi))[:, :h]

        def symbol(rows, quadrant_rows):
            assert rows.stop - rows.start <= 64
            return values[rows]

    for workers, length in ((1, grid), (2, grid), (1, m), (2, m)):
        with fft_workers(workers):
            # the narrow rows follow the wide ones through the same scratch
            columns = _column_synthesis(((wide, h), (narrow, 3)), grid, symbol)
            assert [a.shape for a in columns] == [(grid, h), (grid, 3)]
            got = slab_syntheses(columns, _RowPasses(grid, length, 1))
        for c, samples in zip((wide, narrow), got):
            want = scipy.fft.irfft2(padded_half(c, grid, values if with_symbol else None),
                                    s=(grid, length), norm="forward", workers=workers)
            assert np.array_equal(samples, want)


def test_column_synthesis_makes_room_in_every_array():
    # every array is max(cols, room) wide, its first cols columns the ones
    # made without room
    m, grid = 32, 48
    c = column_field(m, [0, 1, 2, 3, 4], seed=5)[:, : m // 2]
    halves = ((c, 3), (c, 5), (c, 12))
    plain = _column_synthesis(halves, grid)
    roomy = _column_synthesis(halves, grid, room=10)
    assert [a.shape for a in plain] == [(grid, 3), (grid, 5), (grid, 12)]
    assert [a.shape for a in roomy] == [(grid, 10), (grid, 10), (grid, 12)]
    for a, b, (_, cols) in zip(roomy, plain, halves):
        assert np.array_equal(a[:, :cols], b)


@pytest.mark.parametrize("m", [8, 32, 64, 256])
def test_slab_row_analysis_and_column_pass_are_bitwise_the_rfft2_crop(m):
    h, grid = m // 2, 3 * m // 2
    for length in (grid, m):
        samples = np.random.default_rng(m).standard_normal((grid, length))
        for workers in (1, 2):
            want = scipy.fft.rfft2(samples, norm="forward", workers=workers)[:, :h]
            passes = _RowPasses(grid, length, 2)
            got = np.empty((grid, h + 1), dtype=np.complex128)[:, :h]  # as the form lays it out
            with fft_workers(workers):
                for top in range(0, grid, 64):
                    rows = passes.slots[1][: min(64, grid - top)]
                    rows[:, :length] = samples[top : top + 64]
                    passes.analysis(1, got[top : top + 64])
                    assert not rows[:, length:].any()
                _column_analysis(got)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(8, 65, 2))
def test_row_blocks_place_every_index_at_its_frequency(n):
    # each block's rows, read index by index, are the FFT indices |k| <=
    # extent in the order k = 0 .. e, -e .. -1, then -n/2 when reached; each
    # sits at k mod grid in the grid layout and at |k| in the quadrant
    freq = np.fft.fftfreq(n, 1.0 / n).astype(int)
    for extent in range(n // 2 + 1):
        e = min(extent, n // 2 - 1)
        want = [*range(e + 1), *range(-e, 0), *([-n // 2] if extent == n // 2 else [])]
        for grid in (n, 3 * n // 2):
            for run in (None, 3):
                blocks = _row_blocks(extent, n, grid, run)
                rows = [i for b in blocks for i in range(n)[b[0]]]
                grid_rows = [i for b in blocks for i in range(grid)[b[1]]]
                quadrant_rows = [i for b in blocks for i in range(n // 2 + 1)[b[2]]]
                assert [freq[i] for i in rows] == want
                assert grid_rows == [k % grid for k in want]
                assert quadrant_rows == [abs(k) for k in want]
                assert all(len(range(n)[b[0]]) == len(range(grid)[b[1]])
                           == len(range(n // 2 + 1)[b[2]]) <= (run or n) for b in blocks)
