"""Seeded random-field generators for property tests and constant sampling.

Fields are built directly in frequency space: complex Gaussian amplitudes,
explicitly Hermitian-symmetrized, with the mean and the unpaired k = -m/2
edge removed so every generated field is admissible for the product
operators.  All randomness flows through a caller-supplied Generator, so
experiments are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .besov import BesovIndex, DyadicPartition, besov_norm
from .spectral import FrequencyLattice, SpectralField, _reflect, strip_unpaired_edge

__all__ = [
    "hermitian_symmetrize",
    "random_mean_zero_field",
    "single_shell_field",
    "unit_normalize",
]


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Average an FFT-ordered coefficient array with its mirrored conjugate."""
    return 0.5 * (coeffs + np.conj(_reflect(coeffs)))


def random_mean_zero_field(
    lattice: FrequencyLattice,
    rng: np.random.Generator,
    decay: float = 0.0,
) -> SpectralField:
    """Gaussian random real field, mean-zero, admissible.

    ``decay`` > 0 damps amplitudes by (1 + |xi|^2)^(-decay/2), giving
    smoother samples when the test at hand wants them; the default white
    spectrum is the rough generic case.
    """
    m = lattice.m
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    if decay:
        c = c * (1.0 + lattice.radius_sq) ** (-decay / 2.0)
    c = hermitian_symmetrize(c)
    c[0, 0] = 0.0
    return SpectralField(lattice, strip_unpaired_edge(c))


def single_shell_field(
    lattice: FrequencyLattice,
    partition: DyadicPartition,
    j: int,
    rng: np.random.Generator,
) -> SpectralField:
    """Random real field spectrally supported in the ring of shell ``j``."""
    ring = partition.ring_values(j)
    if not ring.any():
        raise ValueError(f"shell {j} has no lattice support on {lattice!r}")
    base = random_mean_zero_field(lattice, rng)
    return SpectralField(lattice, base.coeffs * ring)


def unit_normalize(
    field: SpectralField, index: BesovIndex, partition: DyadicPartition
) -> SpectralField:
    """Scale a field to unit Besov norm at the given index."""
    n = besov_norm(field, index, partition)
    if n == 0.0:
        raise ValueError("cannot normalize the zero field")
    return (1.0 / n) * field
