"""Test-only oracles: literal constructions that the package computes another way."""

import functools
import math
from typing import NamedTuple

import numpy as np

from sqglab.besov import _STEP
from sqglab.profiles import SmoothStep
from sqglab.spectral import SpectralField, _unfold, strip_unpaired_edge


def full(field):
    """The whole lattice's coefficients of ``field``, (m, m) in FFT order,
    unfolded from the k2 >= 0 half it stores."""
    return _unfold(field.coeffs)


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


def probe_symbol_from_rings(probe, xi1, xi2):
    """Definitional probe symbol: 1 minus the ring sum from shell j - gap up.

    The tail is summed until the rings vanish on the given points, so this
    is the literal construction rather than the closed form
    :meth:`~sqglab.besov.ProbeFunction.symbol` evaluates.
    """
    step = SmoothStep(1.25, 1.75)
    cx, cy = probe.center
    rho = np.hypot(xi1 - cx, xi2 - cy)
    r_top = float(np.max(rho))
    k_top = probe.j - probe.gap
    while step.t0 / 2.0 * 2.0**k_top < r_top:
        k_top += 1
    total = np.zeros_like(rho)
    for k in range(probe.j - probe.gap, k_top + 1):
        total = total + (step(rho * 2.0 ** (-k)) - step(rho * 2.0 ** (1 - k)))
    return 1.0 - total


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
