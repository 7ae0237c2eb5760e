"""Three equivalent realizations of the quadratic nonlinearity.

The stationary model couples the scalar to its Riesz velocity through
u . grad(theta); inverting the Laplacian turns that into a bounded
quadratic map.  Three computational routes are kept side by side:

* ``bilinear_quadrature``: the literal frequency quadrature, composing
  the coupling tensor with a double divergence.  O(m**4), small
  lattices only; this is the definitional oracle.
* ``bilinear_block``: the symmetrized single-divergence form
  (1/2) (-Delta)^{-1} div(f R^perp g + g R^perp f).  Works on any lattice
  and is the workhorse.
* ``quadratic_diagonal``: the single-divergence form for equal
  arguments, with half the syntheses of the block form.

Both fast forms run one fused kernel on the k2 >= 0 half-spectrum and make
no array of the size of its grid.  The grid has 3m/2 rows (the 3/2 rule of
Orszag, J. Atmos. Sci. 28, 1971, which keeps every aliased product mode
off the retained box) and rows of G2 points, sized by the k2 band of the
product: if the factors occupy wf and wg columns (up to 1 + their largest
k2 with a non-zero coefficient, at most m/2), the product reaches
|k2| <= band = (wf - 1) + (wg - 1), the output keeps its
wo = min(band + 1, m/2) columns, and G2 is the smallest even 2^a 3^b of
at least band + wo, at most 3m/2, so that no product mode folds onto a
kept column.  Full-band factors get G2 = 3m/2, the square grid; every
ill-posedness construction is an envelope times cos(N x1), narrow in k2
whatever its carrier, and gets rows a few times its envelope's width.  A
real transform there is two 1-D passes: a column pass down the k2
columns, then a row pass along each of the 3m/2 rows.  Each scalar factor
and each Riesz-velocity component gets its column pass once, into a
(3m/2, w) column array of the w columns it occupies (a velocity
factor's made wo wide), the velocity symbol applied while the factor is
copied in.  The physical flux is formed one velocity component at a time
(for the block form the symmetrized sum is taken in physical space, so
each component costs one analysis), 64 grid rows at a time: each
factor's row pass, the product and the flux's row analysis run in one
slab of scratch, and the slab's wo kept columns are written into one
(3m/2, wo) flux spectrum, over R^perp f's column array.  The flux
spectrum then gets its column pass, is contracted with ``i xi / |xi|^2``
and accumulated into an (m, wo) array that becomes the output field
(fields store the first columns of their k2 >= 0 half,
``spectral.SpectralField``) before the next component starts.  So a
scalar factor's row pass runs once per component: per form, the diagonal makes 4 row syntheses and 2 row
analyses over the whole (3m/2, G2) grid, the block form 8 and 2.  In
units of one (3m/2, m/2) complex column array, 1.5 m^2 complex numbers
(the padded (3m/2, 3m/4 + 1) array of a whole real transform is 1.5 of
them), the diagonal form holds 2 for a full-band input (theta and one
velocity factor) and (w + wo) / (m/2) for a narrow one, a few hundredths
for a modulated bump, and the block form 4 for full-band inputs (f, g
and their velocity factors) and (wf + wg + 2 wo) / (m/2) for narrow
ones, besides the slab scratch, a few 64-row slabs of G2 points, and the
(m, wo) accumulator, which is the output.
The radial factors come from the lattice's radius quadrant and the
coordinate factors from its 1-D frequency axis, a run of 64 lattice rows
at a time, so no m x m symbol is made.  Every field is real by
construction, so the forms check nothing.

The three agree to rounding for mean-zero inputs; the test suite and
the identity experiment hold them together.  Phase conventions (who
carries the factors of i) are pinned by that agreement, not by
bookkeeping: the coupling tensor uses the plain real symbol, which
makes it anti-Hermitian for real inputs, and the double-divergence
contraction carries the compensating factor of i.
"""

from __future__ import annotations

import numpy as np

from .spectral import (
    _SLAB_ROWS,
    FrequencyLattice,
    SpectralField,
    _aligned_mirror,
    _centred_coordinates,
    _column_analysis,
    _column_synthesis,
    _radial_multiply,
    _reciprocal,
    _refuse_non_finite,
    _row_blocks,
    _RowPasses,
    _unfold,
    riesz_velocity,
)

__all__ = [
    "QUADRATURE_SIZE_LIMIT",
    "coupling_tensor",
    "bilinear_quadrature",
    "bilinear_block",
    "quadratic_diagonal",
]

# The quadrature costs O(m**4); beyond this edge size it stops being a
# practical oracle and the fast forms take over.
QUADRATURE_SIZE_LIMIT = 64


def _check_quadrature_size(lattice: FrequencyLattice) -> None:
    if lattice.m > QUADRATURE_SIZE_LIMIT:
        raise ValueError(
            f"direct quadrature is O(m**4) and is limited to m <= "
            f"{QUADRATURE_SIZE_LIMIT}; got m = {lattice.m}; use the block or "
            "diagonal fast form instead"
        )


def _shared_lattice(*fields: SpectralField) -> FrequencyLattice:
    lattice = fields[0].lattice
    if any(f.lattice != lattice for f in fields[1:]):
        raise ValueError("operands live on different lattices")
    return lattice


def coupling_tensor(
    scalar_part: SpectralField, velocity: tuple[SpectralField, SpectralField]
) -> np.ndarray:
    """Direct frequency quadrature of the coupling tensor, as full (2, 2, m, m)
    coefficients in FFT order.

    Entry (k, l) at output frequency xi is the lattice sum over eta of

        (xi - 2 eta)_k / (2 (|eta| + |xi - eta|)) * a_hat(xi - eta) * v_hat_l(eta)

    with a the scalar part and v_l the l-th of the two velocity components
    (real fields, as :func:`~sqglab.spectral.riesz_velocity` returns them),
    the eta = 0 and xi - eta = 0 terms omitted (mean-zero convention) and
    eta restricted so both factors sit inside the frequency box.  Output
    frequencies on the unpaired k = -m/2 edge are dropped, matching the
    symmetric box the fast forms return.  The inputs are unfolded to the
    whole lattice, the two components stacked.  For real inputs the output
    is anti-Hermitian, which is why it is an array and not a field: i times
    it is the physically real tensor.
    """
    lat = _shared_lattice(scalar_part, *velocity)
    _check_quadrature_size(lat)

    m = lat.m
    h = m // 2
    # centered layout: index i holds wavenumber i - h
    a = np.fft.fftshift(_unfold(scalar_part.coeffs))
    v = np.fft.fftshift(_unfold(np.stack([u.coeffs for u in velocity])), axes=(-2, -1))
    a[h, h] = 0.0
    v[:, h, h] = 0.0

    eta1, eta2, r_eta = _centred_coordinates(lat)

    out = np.zeros((2, 2, m, m), dtype=np.complex128)
    # centered index 0 is the unpaired k = -m/2 edge, excluded from the output
    for i1 in range(1, m):
        xi1 = eta1[i1, 0]
        for i2 in range(1, m):
            xi2 = eta2[0, i2]
            sigma = r_eta + _aligned_mirror(r_eta, i1 - h, i2 - h)
            inv = np.where(sigma > 0.0, 0.5, 0.0) / np.where(sigma > 0.0, sigma, 1.0)
            sym = np.stack(((xi1 - 2.0 * eta1) * inv, (xi2 - 2.0 * eta2) * inv))
            prod = _aligned_mirror(a, i1 - h, i2 - h) * v
            out[:, :, i1, i2] = np.einsum("kij,lij->kl", sym, prod)

    return np.fft.ifftshift(out, axes=(-2, -1))


def _quadrature_coeffs(f: SpectralField, g: SpectralField) -> np.ndarray:
    """The full (m, m) coefficients of :func:`bilinear_quadrature`, as the
    quadrature computes them: Hermitian to rounding, not exactly."""
    lat = _shared_lattice(f, g)
    lift = _radial_multiply(_reciprocal(lat.radius_quadrant), f.coeffs)
    t = coupling_tensor(SpectralField._adopt(lat, lift), riesz_velocity(g))
    xi1, xi2 = lat.xi_axis[:, None], lat.xi_axis[None, :]
    contracted = xi1 * xi1 * t[0, 0] + xi1 * xi2 * (t[0, 1] + t[1, 0]) + xi2 * xi2 * t[1, 1]
    radius_sq = xi1 * xi1 + xi2 * xi2
    weight = np.zeros(radius_sq.shape)
    np.divide(1.0, radius_sq, out=weight, where=radius_sq > 0.0)
    return 1j * weight * contracted


def bilinear_quadrature(f: SpectralField, g: SpectralField) -> SpectralField:
    """Definitional form: coupling tensor contracted by a double divergence.

    The first argument enters through its half-order lift, the second
    through its Riesz velocity; the contraction phase is fixed so the
    result agrees with the divergence forms (which also makes it
    symmetric in the arguments, mean-zero, and real for real inputs).
    """
    return SpectralField(f.lattice, _quadrature_coeffs(f, g))


def _flux_band(wf: int, wg: int, h: int) -> tuple[int, int]:
    """``(wo, length)`` for factors occupying ``wf`` and ``wg`` columns of a
    half spectrum of h = m/2 columns: the flux's kept output columns, which
    the form stores, and the length of its row passes.

    The product of the factors reaches |k2| <= band = (wf - 1) + (wg - 1),
    so its columns from band + 1 on are zero in exact arithmetic, and the
    output keeps wo = min(band + 1, h) of them.  On rows of ``length``
    points the product's mode k2 folds onto k2 mod length, and none lands
    on a kept column k2' < wo other than its own once length >= band + wo.
    The length is the smallest even 2^a 3^b of at least band + wo, capped
    at the 3h of the column grid (the 3/2 rule, which holds for any band).
    For full-band factors (wf = wg = h) that is 3h itself for every h >= 4,
    so full-band forms run exactly as on the square 3m/2 grid.  A factor
    with no column counts as one column: its product is zero all the same.
    """
    band = max(wf - 1, 0) + max(wg - 1, 0)
    wo = min(band + 1, h)
    length = 3 * h
    step = 2  # 2 * 3^b
    while step < length:
        size = step
        while size < band + wo:
            size *= 2
        length = min(length, size)
        step *= 3
    return wo, length


def _transport(f: SpectralField, g: SpectralField | None) -> SpectralField:
    """Fused kernel: the quadratic form of real fields.

    With ``g`` None this is (-Delta)^{-1} div(f R^perp f); otherwise
    (1/2) (-Delta)^{-1} div(f R^perp g + g R^perp f), whose flux is summed
    in physical space in an order that makes the result bitwise symmetric
    in f and g.

    Passes, on a (3m/2, G2) grid: 3m/2 points down each column, the 3/2
    rule, and G2 along each row, sized by the k2 band of the factors'
    product (:func:`_flux_band`): 3m/2 for full-band factors, a few times
    their width for factors narrow in k2, such as a modulated bump.  Each
    scalar factor gets its column pass once (:func:`_column_synthesis`,
    over the columns it occupies, :attr:`SpectralField.occupied`), and each
    velocity component of each factor gets one, the symbol applied during
    the copy.  The row passes run a slab of ``_SLAB_ROWS`` grid rows at a
    time (:class:`_RowPasses`): per velocity component, the row pass of
    every factor and velocity factor, the physical flux, and the flux's row
    analysis into one (3m/2, wo) flux spectrum of the wo output columns the
    product reaches.
    So the row pass of a scalar factor runs once per component: the
    diagonal form makes 4 ``c2r`` and 2 ``r2c`` row passes over the whole
    grid, the block form 8 and 2.  The flux spectrum then gets its column
    pass and is contracted into the accumulator's first wo columns before
    the next component starts.  The accumulator has those wo columns only:
    the others are zero in exact arithmetic, and the output leaves them
    implicit (:class:`~sqglab.spectral.SpectralField`).

    Working set, in (3m/2, m/2) complex column arrays: a scalar factor's
    column array is (3m/2, w) for its w occupied columns, a velocity
    factor's (3m/2, wo) (wo is at least either factor's width), and the
    flux spectrum is written over R^perp f's (a slab's rows are read before
    the flux's are written).  So the diagonal form holds 2 for a full-band
    input (theta and a velocity factor) and (w + wo) / (m/2) for a narrow
    one, the block form 4 for full-band inputs (f, g and their velocity
    factors) and (wf + wg + 2 wo) / (m/2) for narrow ones.  Besides these:
    the (m, wo) accumulator, which is the output, the slab scratch, made
    for each component once its velocity factors are, and the velocity
    symbol on a run of ``_SLAB_ROWS`` lattice rows while those are made.
    No array of the padded size (3m/2, 3m/4 + 1) is made.  The radial
    factors are taken from the lattice's radius quadrant and the coordinate
    factors from its 1-D frequency axis, a run of rows at a time
    (:func:`~sqglab.spectral._row_blocks`), so no m x m symbol is made.

    The accumulator is adopted as the output (:meth:`SpectralField._adopt`),
    its column k2 = 0 made exactly Hermitian and its zero mode real in
    place, so that differences of nearly equal outputs stay real fields
    instead of showing their rounding as an imaginary part.  A non-finite
    amplitude raises ``FloatingPointError`` naming the form,
    ``quadratic_diagonal`` or ``bilinear_block``
    (``spectral._refuse_non_finite``).
    """
    diagonal = g is None
    if diagonal:
        g = f
    lattice = f.lattice
    m = lattice.m
    h = m // 2
    grid = 3 * h
    xi = lattice.xi_axis
    r = lattice.radius_quadrant[:, :h]  # |xi| at (|k1|, k2), k2 < m/2
    # zero columns k2 >= w of a factor are neither copied nor transformed
    wf, wg = f.occupied[1], g.occupied[1]
    w = max(wf, wg)
    wo, length = _flux_band(wf, wg, h)
    scalars = ((f.coeffs, wf),) if diagonal else ((f.coeffs, wf), (g.coeffs, wg))
    columns = _column_synthesis(scalars, grid)
    f_cols, g_cols = columns[0], columns[-1]
    del columns
    acc = np.zeros((m, wo), dtype=np.complex128)
    # Riesz velocity (-xi_2, xi_1) i / |xi|; component k of the flux is
    # contracted with xi_k / |xi|^2 (the i goes on at the end).  The
    # radial factors are taken from the quadrant a run of rows at a time.
    for xi_k, velocity in ((xi[:, None], -xi[None, :h]), (xi[None, :h], xi[:, None])):
        velocity = np.broadcast_to(velocity, (m, h))
        xi_k = np.broadcast_to(xi_k, (m, h))

        def symbol(lat, quad, velocity=velocity):
            return np.multiply(1j * _reciprocal(r[quad, :w]), velocity[lat, :w])

        # wo >= max(wf, wg): the flux spectrum is written over R^perp f's
        # column array, and every velocity factor's is made wo wide
        flux, *other = _column_synthesis(scalars, grid, symbol, room=wo)
        uf = flux[:, :wf]
        ug = other[0][:, :wg] if other else uf
        del other
        _flux_spectrum(((f_cols, ug),) if diagonal else ((f_cols, ug), (g_cols, uf)), flux,
                       length)
        del ug, uf
        _column_analysis(flux)
        for lat, sub, quad in _row_blocks(h - 1, m, grid, _SLAB_ROWS):
            rq = r[quad, :wo]
            np.multiply(xi_k[lat, :wo] * _reciprocal(rq * rq), flux[sub], out=flux[sub])
            acc[lat] += flux[sub]
        del flux
    acc *= 1j if diagonal else 0.5j
    np.conjugate(acc[h - 1 : 0 : -1, 0], out=acc[h + 1 :, 0])
    acc[0, 0] = acc[0, 0].real
    operator = "quadratic_diagonal" if diagonal else "bilinear_block"
    _refuse_non_finite(lattice, acc, operator)
    return SpectralField._adopt(lattice, acc)


def _flux_spectrum(
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...], flux: np.ndarray, length: int
) -> None:
    """The row analysis of one flux component into ``flux`` (grid, wo), on
    rows of ``length`` points.

    Each pair holds the column arrays of a scalar factor and a velocity
    factor (:func:`_column_synthesis`).  A slab of ``_SLAB_ROWS`` grid rows
    at a time, each pair's factors are synthesized and multiplied, the
    products are summed in pair order, and the sum is analysed into the
    slab's rows of ``flux``, which may be a velocity factor's own array:
    a slab's rows are read before they are written.
    """
    grid = flux.shape[0]
    last = len(pairs)
    passes = _RowPasses(grid, length, last + 1)
    for top in range(0, grid, _SLAB_ROWS):
        slab = slice(top, top + _SLAB_ROWS)
        for i, (a, u) in enumerate(pairs):
            product = passes.synthesis(a[slab], i)
            product *= passes.synthesis(u[slab], last)
            if i:
                total += product
            else:
                total = product
        passes.analysis(0, flux[slab])


def bilinear_block(f: SpectralField, g: SpectralField) -> SpectralField:
    """Fast symmetrized single-divergence form, any lattice size.

    Computes (1/2) (-Delta)^{-1} div[f (grad^perp Lambda^{-1} g)
    + (grad^perp Lambda^{-1} f) g].  The underlying symbol identity does
    not use spectral localization, so this is a general fast path and
    not just a per-block one; the suite verifies that numerically
    against the quadrature.  Symmetric in f and g bit for bit.
    """
    _shared_lattice(f, g)
    return _transport(f, g)


def quadratic_diagonal(theta: SpectralField) -> SpectralField:
    """(-Delta)^{-1} div(theta u) with u the Riesz velocity of theta."""
    return _transport(theta, None)
