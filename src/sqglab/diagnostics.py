"""Diagnostics for the quadratic response to modulated forcing.

Everything here interrogates the second Picard iterate theta2 =
B[theta1, theta1] of a carrier-band forcing: the three-way split of its
coefficient at a low probe frequency, the low-frequency floor that
witnesses mass appearing far below the forcing band, and the per-shell
inflation profile, whose plain ``(n, shell, value)`` entries a caller
aggregates with :func:`~sqglab.besov.lq_aggregate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .besov import box_lp_norm, probe_box, shell_profile
from .forcing import ForceSpec
from .spectral import SpectralField, _aligned_mirror, _centred_coordinates, _unfold

__all__ = [
    "SplitSample",
    "second_iterate_split",
    "low_frequency_profile",
    "low_frequency_floor",
    "inflation_profile",
]


@dataclass(frozen=True)
class SplitSample:
    """The three-way split of the second iterate's coefficient at one probe.

    ``main`` is the xi1*xi2*eta1**2 term that survives at low frequency,
    ``cross`` the mixed eta1*eta2/eta2**2 term, ``perp`` the term
    proportional to xi dot eta-perp.  Their sum reproduces the full
    bilinear coefficient whenever the input spectrum has no eta1 = 0 mass
    and every interacting pair straddles the two carrier half-planes.
    """

    index: tuple[int, int]
    frequency: tuple[float, float]
    main: complex
    cross: complex
    perp: complex

    @property
    def total(self) -> complex:
        return self.main + self.cross + self.perp


def second_iterate_split(
    theta1: SpectralField,
    probes: Sequence[tuple[int, int]],
) -> list[SplitSample]:
    """Direct-quadrature split of B[theta1, theta1] at each probe frequency.

    For probe xi the full coefficient is a lattice sum over eta of the
    antisymmetric kernel against g(xi - eta) g(eta), g = theta1-hat / |.|.
    Restricting eta to the half-plane eta1 > 0 (its partner to eta1 < 0)
    and expanding the kernel splits the sum into main + cross + perp; the
    half-plane restriction doubles, which is exact because the kernel is
    even under eta -> xi - eta.

    A probe is admissible up to radius 1, the low-frequency side of a
    forcing supported on a single carrier band.  The sums run over the
    whole lattice, so theta1 is unfolded from its stored half.
    """
    lat = theta1.lattice
    m, half = lat.m, lat.m // 2

    g_raw = np.fft.fftshift(_unfold(theta1.coeffs))
    eta1, eta2, r_eta = _centred_coordinates(lat)
    g = np.divide(g_raw, r_eta, out=np.zeros_like(g_raw), where=r_eta > 0)
    g_pos = np.where(eta1 > 0, g, 0.0)
    g_neg = np.where(eta1 < 0, g, 0.0)

    samples = []
    for a, b in probes:
        if not (-half < a < half and -half < b < half):
            raise ValueError(
                f"probe {(a, b)} outside the lattice symmetric box "
                f"(|k| <= {half - 1})"
            )
        x1, x2 = lat.h_xi * a, lat.h_xi * b
        rho_sq = x1 * x1 + x2 * x2
        if rho_sq == 0.0:
            raise ValueError("probe at frequency zero is not admissible (the split divides by |xi|^2)")
        if math.sqrt(rho_sq) > 1.0 + 1e-12:
            raise ValueError(
                f"probe {(a, b)} at radius {math.sqrt(rho_sq):g} exceeds the "
                "admissible bound 1"
            )
        mirror_g = _aligned_mirror(g_neg, a, b)
        mirror_r = _aligned_mirror(r_eta, a, b)
        pair = g_pos * mirror_g
        sigma = r_eta + mirror_r
        kernel = np.divide(pair, sigma, out=np.zeros_like(pair), where=sigma > 0)
        main = (2.0 * x1 * x2 / rho_sq) * complex(np.sum(eta1 * eta1 * kernel))
        cross = (2.0 / rho_sq) * complex(
            np.sum(((x2 * x2 - x1 * x1) * eta1 * eta2 - x1 * x2 * eta2 * eta2) * kernel)
        )
        perp = -complex(np.sum((x2 * eta1 - x1 * eta2) * kernel))
        samples.append(SplitSample((a, b), (x1, x2), main, cross, perp))
    return samples


def low_frequency_profile(theta2: SpectralField) -> list[tuple[int, float]]:
    """Per-shell values 2**(-j) sup |phi_j theta2| over the shells j_min .. -1.

    The effective witness of the low-frequency floor is usually the top
    shell j = -1; the whole profile is reported so the drift across j is
    visible.  Each shell is :func:`~sqglab.besov.shell_profile` at s = -1,
    p = inf: sampled on the m x m grid a slab of 64 rows at a time, from
    an (m, k2_j + 1) array of the shell's live columns, so no
    lattice-sized buffer is made.  Shells above the window of the field's
    lattice (:attr:`~sqglab.spectral.FrequencyLattice.partition`) read 0,
    and a non-zero mean is accepted, since every ring vanishes at the
    origin.
    """
    partition = theta2.lattice.partition
    if partition.j_min > -1:
        raise ValueError(
            f"the partition window starts at shell {partition.j_min}; the "
            "low-frequency floor looks at shells j <= -1, and there are none"
        )
    return shell_profile(theta2, -1.0, math.inf, range(partition.j_min, 0))


def low_frequency_floor(theta2: SpectralField) -> float:
    """Sup over low shells of 2**(-j) sup |phi_j theta2| (zero field gives 0)."""
    profile = low_frequency_profile(theta2)
    return max((value for _, value in profile), default=0.0)


def inflation_profile(
    theta2: SpectralField, spec: ForceSpec, gap: int
) -> list[tuple[int, int, float]]:
    """Probe theta2 at every block shell of ``spec``: one ``(n, shell,
    value)`` entry per block.

    Entry for block n at shell j is 2**(-j/2) times the L4 norm of the
    projection of theta2 on the probe of shell j and gap ``gap``
    (:func:`~sqglab.besov.probe_box`); a shell whose probe has empty lattice
    support raises (the probe ball shrinks like 2**(j - gap), so shells
    too close to the lattice floor cannot be probed).  The projection lives
    on the probe's box and is normed there (:func:`~sqglab.besov.box_lp_norm`);
    the box's columns past theta2's stored ones read its implicit zeros.
    """
    lat = theta2.lattice
    entries = []
    for n, shell in zip(spec.block_indices(), spec.block_shells()):
        rows, cols, values = probe_box(lat, shell, gap)
        stored = cols < theta2.coeffs.shape[1]
        piece = np.zeros(values.shape, dtype=np.complex128)
        piece[:, stored] = theta2.coeffs[np.ix_(rows, cols[stored])] * values[:, stored]
        entries.append((n, shell, 2.0 ** (-0.5 * shell) * box_lp_norm(piece, lat, 4.0)))
    return entries
