"""Seeded random-field generators for property tests and constant sampling.

Fields are built directly in frequency space: complex Gaussian amplitudes,
explicitly Hermitian-symmetrized, with the mean and the unpaired k = -m/2
edge removed so every generated field is admissible for the product
operators.  All randomness flows through a caller-supplied Generator, so
experiments are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .besov import BesovIndex, besov_norm, shell_project
from .spectral import FrequencyLattice, SpectralField, _radial_multiply, strip_unpaired_edge

__all__ = [
    "hermitian_symmetrize",
    "random_mean_zero_field",
    "single_shell_field",
    "unit_normalize",
]


def hermitian_symmetrize(coeffs: np.ndarray, width: int | None = None) -> np.ndarray:
    """The first ``width`` columns (all m/2 by default) of the k2 >= 0 half
    of the average of an FFT-ordered (m, m) coefficient array with its
    mirrored conjugate, ``(c(k) + conj(c(-k))) / 2``."""
    m = coeffs.shape[-1]
    width = m // 2 if width is None else width
    mirror = -np.arange(m) % m
    return 0.5 * (coeffs[:, :width] + np.conj(coeffs[np.ix_(mirror, mirror[:width])]))


def _weighted_field(lattice: FrequencyLattice, rng: np.random.Generator,
                    weight: np.ndarray | None = None, width: int | None = None) -> SpectralField:
    """The real field of complex Gaussian draws on the whole lattice, times
    ``weight`` given on the radius quadrant, if any, applied in place: every
    sample's draws.  Its mean and its unpaired k1 = -m/2 row are removed.

    It stores its first ``width`` columns (all m/2 by default), for a
    caller that keeps none past them, and none past the weight's last
    non-zero column.  The draws are taken whole either way, so the
    generator's stream does not depend on the width.
    """
    m = lattice.m
    width = m // 2 if width is None else width
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    if weight is not None:
        _radial_multiply(weight, c, out=c)
        width = min(width, int(np.flatnonzero(weight.any(axis=0)).max(initial=-1)) + 1)
    half = hermitian_symmetrize(c, width)
    half[:1, :1] = 0.0
    return SpectralField._adopt(lattice, strip_unpaired_edge(half))


def random_mean_zero_field(
    lattice: FrequencyLattice,
    rng: np.random.Generator,
    decay: float = 0.0,
) -> SpectralField:
    """Gaussian random real field, mean-zero, admissible.

    ``decay`` > 0 damps amplitudes by (1 + |xi|^2)^(-decay/2), giving
    smoother samples when the test at hand wants them; the default white
    spectrum is the rough generic case.  The damping is applied from a
    quadrant of ``|xi|^2``, so no lattice-sized coordinate array is made.
    """
    weight = None
    if decay:
        xi = lattice.h_xi * np.arange(lattice.m // 2 + 1)
        radius_sq = xi[:, None] * xi[:, None] + xi[None, :] * xi[None, :]
        weight = (1.0 + radius_sq) ** (-decay / 2.0)
    return _weighted_field(lattice, rng, weight)


def _band_limited_field(lattice: FrequencyLattice, rng, radius: float) -> SpectralField:
    """The white field's draws masked to |xi| <= ``radius`` before they are
    symmetrized: a 0/1 product is exact, so as masking after, up to signed zeros."""
    return _weighted_field(lattice, rng, lattice.radius_quadrant <= radius)


def _inner_edge_field(lattice: FrequencyLattice, j: int, rng) -> SpectralField:
    """Random field spectrally concentrated at the inner plateau edge of shell j.

    Mass just above 0.875 * 2**j maximizes the per-mode gain (2**j / |xi|)**2
    of the inverse Laplacian within a single shell, so these fields push the
    sampled c0 toward the true supremum instead of its in-shell average.
    Without a lattice mode there it is zero and draws nothing.
    """
    r = lattice.radius_quadrant
    mask = (r > 0.875 * 2.0**j) & (r < 0.95 * 2.0**j)
    if not mask.any():
        return SpectralField.zeros(lattice)
    return _weighted_field(lattice, rng, mask)


def single_shell_field(
    lattice: FrequencyLattice,
    j: int,
    rng: np.random.Generator,
) -> SpectralField:
    """Random real field spectrally supported in the lattice's ring of
    shell ``j`` (the ring is not 0/1, so it multiplies the field, not the
    draws), stored in the columns the ring reaches."""
    quadrant = lattice.partition.ring_quadrant(j)
    if not quadrant.any():
        raise ValueError(f"shell {j} has no lattice support on {lattice!r}")
    width = min(quadrant.shape[1], lattice.m // 2)
    return shell_project(_weighted_field(lattice, rng, width=width), j)


def unit_normalize(field: SpectralField, index: BesovIndex) -> SpectralField:
    """Scale a field to unit Besov norm at the given index."""
    n = besov_norm(field, index)
    if n == 0.0:
        raise ValueError("cannot normalize the zero field")
    return (1.0 / n) * field
