"""Test-only oracles: literal constructions that the package computes another way."""

import functools
import math
from typing import NamedTuple

import numpy as np
import scipy.fft

from sqglab import spectral
from sqglab.besov import _STEP, _shell_grid, _shell_weight, besov_norm, lp_norm
from sqglab.sampling import random_mean_zero_field
from sqglab.solver import _TINY, IterationTrace, _finite
from sqglab.spectral import (
    SpectralField,
    _radial_multiply,
    _reciprocal,
    _row_blocks,
    _unfold,
    strip_unpaired_edge,
)


def padded(field):
    """The whole k2 >= 0 half of ``field``, (m, m/2): the columns it stores,
    then zeros for the columns it leaves implicit.  Fields of any widths
    are compared, and whole-half routes fed, through this one helper."""
    c = field.coeffs
    m = c.shape[0]
    out = np.zeros((m, m // 2), dtype=np.complex128)
    out[:, : c.shape[1]] = c
    return out


def full(field):
    """The whole lattice's coefficients of ``field``, (m, m) in FFT order,
    unfolded from its whole k2 >= 0 half (:func:`padded`)."""
    return _unfold(padded(field))


class Coordinates(NamedTuple):
    xi1: np.ndarray
    xi2: np.ndarray
    radius: np.ndarray
    radius_sq: np.ndarray


@functools.lru_cache(maxsize=4)
def coordinates(lattice):
    """Reference coordinates: the whole lattice's (m, m) arrays of ``xi1``,
    ``xi2``, ``|xi|`` and ``|xi|**2`` in FFT order (read-only), built by the
    literal formulas ``h_xi * k1``, ``h_xi * k2``, ``hypot(xi1, xi2)`` and
    ``xi1 * xi1 + xi2 * xi2``.  The package holds one frequency axis and a
    radius quadrant instead, and must agree with these bitwise."""
    xi1 = lattice.h_xi * lattice.k1
    xi2 = lattice.h_xi * lattice.k2
    arrays = Coordinates(xi1, xi2, np.hypot(xi1, xi2), xi1 * xi1 + xi2 * xi2)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def physical(field):
    """Literal full-lattice synthesis: the complex samples of ``field`` on its
    ``m x m`` grid, the sum of ``c(k) exp(i x.xi)`` over every mode."""
    return np.fft.ifft2(full(field), norm="forward")


def physical_real(field):
    """Real part of :func:`physical`, refusing an imaginary part above 1e-10
    of the samples' largest modulus."""
    p = physical(field)
    scale = np.max(np.abs(p)) or 1.0
    imag = np.max(np.abs(p.imag))
    if imag > 1e-10 * scale:
        raise ValueError(f"field is not real: max imag {imag:.3e} vs scale {scale:.3e}")
    return p.real


def physical_coordinates(lattice):
    """Physical sample points ``(x1, x2)`` of the ``m x m`` grid, each ``(m, m)``."""
    x = lattice.dx * np.arange(lattice.m)
    m = lattice.m
    return np.broadcast_to(x[:, None], (m, m)), np.broadcast_to(x[None, :], (m, m))


def hermitian_defect(field):
    """Max |c(-xi) - conj(c(xi))| over the unfolded lattice: 0 for a real
    field.  Only column k2 = 0 and the zero mode can contribute, since the
    unfolding mirrors every other stored coefficient exactly."""
    c = full(field)
    reflected = np.roll(np.flip(c, axis=(-2, -1)), 1, axis=(-2, -1))
    return float(np.max(np.abs(reflected - np.conj(c))))


def smooth_step(step, r):
    """The step ``step`` (a :class:`SmoothStep`) at ``r``, as it was first
    written: both exponentials over the whole input, 0 where their
    argument is not positive, the ramp ``a / (a + b)`` taken everywhere,
    and the levels 1 at ``t >= 1`` and 0 at ``t <= 0`` chosen by
    ``np.where``.  The package takes the exponentials only where
    ``0 < t < 1`` and must agree with this bitwise."""

    def bump(t):
        out = np.zeros_like(t)
        pos = t > 0
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            out[pos] = np.exp(-1.0 / t[pos])
        return out

    r = np.asarray(r, dtype=np.float64)
    t = (step.t1 - r) / (step.t1 - step.t0)
    a = bump(t)
    b = bump(1.0 - t)
    with np.errstate(invalid="ignore"):
        return np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, a / (a + b)))


class _Step(NamedTuple):
    """The transition interval of a smooth step, all that :func:`smooth_step`
    reads of one."""

    t0: float
    t1: float


# The ring and probe profile, written down here rather than read from the package.
_PROBE_STEP = _Step(1.25, 1.75)


def _probe_centre(j):
    """``2**j * (1/sqrt(2), 1/sqrt(2))``, the diagonal point of shell ``j``."""
    return 2.0**j * (1.0 / math.sqrt(2.0))


def probe_symbol_from_rings(j, gap, xi1, xi2):
    """Definitional symbol of the probe of shell ``j`` and gap ``gap`` at the
    points ``(xi1, xi2)``: 1 minus the ring sum from shell j - gap up, in the
    offset ``|xi - centre|`` from the diagonal point of shell j.

    The tail is summed until the rings vanish on the given points, so this
    is the literal construction rather than the closed form
    :func:`probe_symbol_closed_form` evaluates.
    """
    centre = _probe_centre(j)
    rho = np.hypot(xi1 - centre, xi2 - centre)
    r_top = float(np.max(rho))
    k_top = j - gap
    while _PROBE_STEP.t0 / 2.0 * 2.0**k_top < r_top:
        k_top += 1
    total = np.zeros_like(rho)
    for k in range(j - gap, k_top + 1):
        total = total + (smooth_step(_PROBE_STEP, rho * 2.0 ** (-k))
                         - smooth_step(_PROBE_STEP, rho * 2.0 ** (1 - k)))
    return 1.0 - total


def probe_symbol_closed_form(m, h_xi, j, gap):
    """Closed-form symbol of the probe of shell ``j`` and gap ``gap`` on the
    whole ``m x m`` lattice of spacing ``h_xi``, in FFT order: the step at
    ``|xi - centre| * 2**(gap + 1 - j)``, with the coordinates built from
    ``np.fft.fftfreq`` and no part of the package called."""
    k = np.fft.fftfreq(m, 1.0 / m)
    xi = h_xi * k
    centre = _probe_centre(j)
    rho = np.hypot(xi[:, None] - centre, xi[None, :] - centre)
    return smooth_step(_PROBE_STEP, rho * 2.0 ** (gap + 1 - j))


def ring_box(c, quadrant, grid, width=None):
    """Reference layout of a shell: the k2 >= 0 half of ``phi_j * c`` for a
    ``grid x width`` real transform (rows of ``width`` points, default
    ``grid``), shape ``(grid, width/2 + 1)``, for a ring's
    ``ring_quadrant`` and a field's half spectrum ``c`` (m, m/2).

    Row by row: each lattice row k1 with ``|k1| <= K_j`` (``np.fft.fftfreq``
    order) is multiplied by quadrant row ``|k1|`` over the columns
    ``k2 = 0 .. min(K_j, m/2 - 1, width/2)`` and written to grid row ``k1
    mod grid``.  ``grid`` is m or above ``2 K_j + 1``, as
    ``besov._shell_grid`` picks it, so the rows stay apart; the columns
    past ``width/2`` that the box would reach must hold nothing."""
    m = c.shape[-2]
    width = grid if width is None else width
    extent = quadrant.shape[0] - 1
    box = min(extent + 1, m // 2)
    cols = min(box, width // 2 + 1)
    out = np.zeros((grid, width // 2 + 1), dtype=c.dtype)
    for i, k in enumerate(np.fft.fftfreq(m, 1.0 / m).astype(int)):
        if abs(k) <= extent:
            assert not c[i, cols:box].any(), "the cut columns hold coefficients"
            out[k % grid, :cols] = c[i, :cols] * quadrant[abs(k), :cols]
    return out


def shift_spectrum(coeffs, steps):
    """Literal relocation of a spectrum by ``steps`` cells along axis 0, zero
    filled: centre it, shift the rows, and move it back to FFT order."""
    m = coeffs.shape[-1]
    centered = np.fft.fftshift(coeffs)
    out = np.zeros_like(centered)
    if steps >= 0:
        out[steps:, :] = centered[: m - steps, :]
    else:
        out[:steps, :] = centered[-steps:, :]
    return np.fft.ifftshift(out)


def block_envelope(lattice, spec):
    """Literal full-lattice block envelope: each block's ring evaluated on the
    whole lattice radius, cast to complex, twisted by exp(-i xi1 stride s),
    weighted 2**(-3j/2) and added in block order into the (m, m) sum, whose
    unpaired edge is stripped."""
    xi1, _, r, _ = coordinates(lattice)
    coeffs = np.zeros((lattice.m, lattice.m), dtype=np.complex128)
    for s, j in zip(spec.block_exponents(), spec.block_shells()):
        ring = (_STEP(r * 2.0 ** (-j)) - _STEP(r * 2.0 ** (1 - j))).astype(np.complex128)
        coeffs += 2.0 ** (-1.5 * j) * (ring * np.exp(-1j * xi1[:, :1] * (spec.stride * s)))
    return SpectralField(lattice, strip_unpaired_edge(coeffs))


def translated_block_force(lattice, spec):
    """Literal modulated block forcing: the full :func:`block_envelope`
    shifted by +-2**c / h_xi rows with :func:`shift_spectrum`, added, scaled
    by amp / 2 and stripped of its unpaired edge."""
    envelope = full(block_envelope(lattice, spec))
    steps = round(2.0**spec.carrier / lattice.h_xi)
    amp = spec.delta * 2.0 ** (2.5 * spec.carrier) / (spec.size**0.25 * math.log(spec.size))
    shifted = shift_spectrum(envelope, steps) + shift_spectrum(envelope, -steps)
    shifted *= 0.5 * amp
    return SpectralField(lattice, strip_unpaired_edge(shifted))


# -- the quadratic form on whole padded grids ----------------------------------
#
# The kernel ``bilinear._transport`` runs its row passes a slab of rows at
# a time and never makes an array of the padded size.  Its predecessor,
# below, transformed every factor and flux on the whole padded grid; the
# slab kernel must agree with it bit for bit.  Here the transforms are
# scipy's two-axis ones and the rows are placed by their frequencies, so
# the referee shares no helper with the kernel it judges.


def lattice_rows(m, grid):
    """``(row, grid row)`` of every lattice row ``|k1| <= m/2 - 1``: its
    place in the FFT order of ``m`` points and in that of ``grid`` points,
    ``k1 mod grid``.  The unpaired k1 = -m/2 row has no place."""
    k = np.fft.fftfreq(m, 1.0 / m).astype(int)
    rows = np.flatnonzero(np.abs(k) < m // 2)
    return rows, k[rows] % grid


def padded_half(c, grid, symbol=None, cols=None):
    """The k2 >= 0 half of ``c``, zero-padded for a ``grid x grid`` real transform.

    ``c`` is a half spectrum (..., m, m/2), or a full (..., m, m) array
    whose first m/2 columns are read; the result has shape
    (..., grid, grid/2 + 1).  With ``symbol``, the k2 >= 0 half of a
    lattice symbol, shape (m, w) for some w >= ``cols`` (its row m/2 is not
    read), each coefficient is multiplied by it.  Only the first ``cols``
    columns (default m/2) are copied, the rest left zero; each row is
    placed at its frequency (:func:`lattice_rows`), so the unpaired
    k = -m/2 row and column are left out.
    """
    m = c.shape[-2]
    w = m // 2 if cols is None else cols
    half = np.zeros(c.shape[:-2] + (grid, grid // 2 + 1), dtype=np.complex128)
    rows, placed = lattice_rows(m, grid)
    copied = c[..., rows, :w]
    half[..., placed, :w] = copied if symbol is None else copied * symbol[rows, :w]
    return half


def real_synthesis(c, grid, symbol=None, cols=None):
    """Real samples on a ``grid x grid`` mesh of Hermitian coefficients ``c``
    (times ``symbol``): ``scipy.fft.irfft2`` of their k2 >= 0 half as
    :func:`padded_half` lays it out, unscaled (``norm="forward"``).  Only
    the first ``cols`` columns (default all m/2) are copied."""
    return scipy.fft.irfft2(padded_half(c, grid, symbol, cols), s=(grid, grid),
                            norm="forward")


def analysed_half(half, m):
    """The k2 = 0 .. m/2 - 1 columns of the coefficients of the real samples
    held in the real view ``half.view(float64)[..., :grid]`` of the
    (..., grid, grid/2 + 1) complex buffer ``half``, the in-place layout of
    a real transform: the column crop of ``rfft2(samples, norm="forward")``,
    written over the samples into ``half`` and returned as a
    (..., grid, m/2) view of it."""
    grid = half.shape[-2]
    cols = half[..., : m // 2]
    cols[...] = scipy.fft.rfft2(half.view(np.float64)[..., :grid], norm="forward")[..., : m // 2]
    return cols


def padded_transport(fc, gc, lattice):
    """The whole (m, m/2) half spectrum of the quadratic form of the whole
    halves ``fc`` and ``gc`` (:func:`padded`) as the padded kernel made it:
    ``bilinear._transport``'s contract, every factor and flux synthesized
    and analysed on the whole (3m/2, 3m/2) grid by ``scipy.fft``
    (:func:`real_synthesis`, ``rfft2``), each factor copied over the
    columns it occupies (:func:`occupied_box`).  Symbols are the literal
    ones on the whole lattice (:func:`coordinates`), with 1/|xi| and
    1/|xi|**2 zero at the origin."""
    diagonal = gc is None
    if diagonal:
        gc = fc
    m = lattice.m
    h = m // 2
    grid = 3 * h
    xi = lattice.xi_axis
    r = coordinates(lattice).radius[:, :h]
    inverse = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0.0)
    r2 = r * r
    inverse_sq = np.divide(1.0, r2, out=np.zeros_like(r2), where=r2 > 0.0)
    rows, placed = lattice_rows(m, grid)
    wf = occupied_box(fc)[1]
    wg = wf if diagonal else occupied_box(gc)[1]
    w = max(wf, wg)
    fp = real_synthesis(fc, grid, cols=wf)
    gp = fp if diagonal else real_synthesis(gc, grid, cols=wg)
    acc = np.zeros((m, h), dtype=np.complex128)
    for xi_k, velocity in ((xi[:, None], -xi[None, :h]), (xi[None, :h], xi[:, None])):
        velocity = np.broadcast_to(velocity, (m, h))
        xi_k = np.broadcast_to(xi_k, (m, h))
        symbol = (1j * inverse[:, :w]) * velocity[:, :w]
        flux = real_synthesis(gc, grid, symbol, wg)
        flux *= fp
        if not diagonal:
            u = real_synthesis(fc, grid, symbol, wf)
            u *= gp
            flux += u
        cols = scipy.fft.rfft2(flux, norm="forward")[:, :h]
        acc[rows] += (xi_k[rows] * inverse_sq[rows]) * cols[placed]
    acc *= 1j if diagonal else 0.5j
    np.conjugate(acc[h - 1 : 0 : -1, 0], out=acc[h + 1 :, 0])
    acc[0, 0] = acc[0, 0].real
    return acc


def eager_iterate(start, step, quad_term, defect_norm, cfg):
    """The fixed-point loop that takes every norm: the iterate's, the
    update's and the defect's, on every iteration, with the arguments of
    ``solver._iterate``.  ``perturbation_solve``'s loop, which takes them
    only where its stopping test needs them, must end as this one does,
    bit for bit."""
    trace = IterationTrace()
    theta = start
    # a form that overflows (and raises), or a step that is not finite,
    # ends the loop on the last iterate whose form is finite
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            quad = quad_term(start)
    except FloatingPointError:
        trace.verdict = "diverged"
        return theta, trace
    for _ in range(cfg.max_iter):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                theta_next = step(theta, quad)
                if not _finite(theta_next):
                    raise FloatingPointError
                quad = None  # free it before the form evaluates the next one
                quad = quad_term(theta_next)
        except FloatingPointError:
            trace.verdict = "diverged"
            return theta, trace
        # norms of a blowing-up iterate overflow to inf; that is the
        # divergence signal, not an error condition
        with np.errstate(over="ignore"):
            norm = besov_norm(theta_next, cfg.index)
            update = besov_norm(theta_next - theta, cfg.index)
            trace.norms.append(norm)
            trace.residuals.append(update)
            trace.pde_residuals.append(defect_norm(theta_next, quad))
        theta = theta_next
        if not math.isfinite(norm):
            trace.verdict = "diverged"
            return theta, trace
        if update <= cfg.tol * max(norm, _TINY) or (norm == 0.0 and update == 0.0):
            trace.verdict = "converged"
            return theta, trace
    trace.verdict = "max_iter"
    return theta, trace


def band_limited_field(lattice, rng, radius):
    """The band-limited sample by its first route: a white
    ``random_mean_zero_field``, then masked to the modes with |xi| <=
    ``radius``.  The package masks the draws before symmetrizing instead."""
    field = random_mean_zero_field(lattice, rng)
    mask = lattice.radius_quadrant <= radius
    return SpectralField._adopt(lattice, _radial_multiply(mask, padded(field)))


# -- whole-lattice routes of the passes sized by a field's occupied box -----


def occupied_box(c):
    """``(rows, columns)`` of a half spectrum (m, m/2) by direct search: 1 +
    the largest ``|k1|`` and 1 + the largest k2 holding a non-zero
    coefficient, (0, 0) for the zero array."""
    k1 = np.abs(np.fft.fftfreq(c.shape[0], 1.0 / c.shape[0]).astype(int))
    held = c != 0
    rows = int(k1[held.any(axis=1)].max(initial=-1)) + 1
    cols = int(np.flatnonzero(held.any(axis=0)).max(initial=-1)) + 1
    return rows, cols


def whole_shell_profile(field, s, p, shells=None):
    """``besov.shell_profile`` as it was before it sized its passes by the
    field's occupied box: every shell's ring evaluated and multiplied in,
    emptiness read off the whole transform buffer, the sup norm as
    ``max |x|`` of the samples, on the field's whole half (:func:`padded`).
    The occupied width is folded with numpy and the shells synthesized by
    ``scipy.fft.irfft2`` (bitwise the package's in-place synthesis), not by
    the helpers of the code this judges."""
    c = padded(field)
    m, box = field.lattice.m, field.lattice.box_length
    partition = field.lattice.partition
    occupied = int(np.flatnonzero(c.any(axis=0)).max(initial=-1)) + 1
    out = []
    for j in partition.shells if shells is None else shells:
        extent = partition.ring_extent(j)
        top = min(extent, occupied - 1)
        rows, cols = _shell_grid(extent, p, m), _shell_grid(top, p, m)
        quadrant = partition.ring_quadrant(j)
        proj = np.zeros((rows, cols // 2 + 1), dtype=np.complex128)
        live = slice(0, top + 1)
        for src, dst, quad in _row_blocks(extent, m, rows):
            np.multiply(c[src, live], quadrant[quad, live], out=proj[dst, live])
        if not proj.any():
            out.append((j, 0.0))
            continue
        samples = scipy.fft.irfft2(proj, s=(rows, cols), norm="forward",
                                   workers=spectral._FFT_WORKERS)
        weight = (box / rows) * (box / cols)
        if math.isinf(p):
            value = float(np.abs(samples).max())
        else:
            value = lp_norm(samples, p, weight)
        out.append((j, _shell_weight(s, j) * value))
    return out


def whole_box_ring_quadrant(partition, j):
    """``DyadicPartition.ring_quadrant`` as it was before its steps ran a slab
    of rows at a time: the outer step over its whole box, the inner step
    over its own whole box subtracted in that corner, cropped to the live
    extent."""
    lat = partition.lattice
    top = min(lat.m // 2, math.floor(_STEP.t1 * 2.0**j / lat.h_xi) + 1)
    inner = min(top, math.floor(_STEP.t1 * 2.0 ** (j - 1) / lat.h_xi) + 1)
    r = lat.radius_quadrant
    vals = _STEP(r[: top + 1, : top + 1] * 2.0 ** (-j))
    vals[: inner + 1, : inner + 1] -= _STEP(r[: inner + 1, : inner + 1] * 2.0 ** (1 - j))
    extent = int(np.flatnonzero(vals.any(axis=1)).max(initial=0))
    return vals[: extent + 1, : extent + 1]


def whole_dyadic_rescale(field, exponent, amplitude_power):
    """``dyadic_rescale`` on the whole half (:func:`padded`): every non-zero
    coefficient moved from (k1, k2) to 2**exponent (k1, k2) and scaled by
    2**(exponent * amplitude_power), in an (m, m/2) array of zeros."""
    c = padded(field)
    m = c.shape[0]
    out = np.zeros_like(c)
    idx1, idx2 = np.nonzero(c)
    k1 = np.fft.fftfreq(m, 1.0 / m).astype(int)[idx1]
    n1, n2 = k1 * 2.0**exponent, idx2 * 2.0**exponent
    out[n1.astype(int) % m, n2.astype(int)] = 2.0 ** (exponent * amplitude_power) * c[idx1, idx2]
    return out


def whole_inverse_laplacian(field):
    """The coefficients of ``inverse_laplacian`` with its symbol made on the
    whole radius quadrant and every column of the whole half multiplied."""
    r = field.lattice.radius_quadrant
    return _radial_multiply(_reciprocal(r * r), padded(field))


def whole_scale(field):
    """max(|Re|, |Im|) over the whole half: the scale that the mean-zero
    check compares the mean with."""
    c = padded(field)
    return float(max(c.real.max(), -c.real.min(), c.imag.max(), -c.imag.min()))


def whole_homogeneity(theta2, theta2_half):
    """illpose-step2's quadratic-homogeneity value read over every column of
    the whole half: max |4 theta2_half - theta2| over max |theta2|, 0 for a
    zero theta2."""
    defect = float(np.abs(padded(theta2_half) * 4.0 - padded(theta2)).max())
    scale = float(np.abs(padded(theta2)).max())
    return defect / scale if scale else 0.0
