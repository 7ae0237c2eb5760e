"""Probing the second iterate: splits, floors, inflation profiles."""

import math

import numpy as np
import pytest

from sqglab.besov import build_partition, build_probe, lp_norm, lq_aggregate
from sqglab.bilinear import quadratic_diagonal
from sqglab.diagnostics import (
    inflation_profile,
    low_frequency_floor,
    low_frequency_profile,
    second_iterate_split,
)
from sqglab.forcing import ExponentMap, ForceSpec, modulated_bump_force, translated_block_force
from sqglab.sampling import hermitian_symmetrize
from sqglab.spectral import FrequencyLattice, SpectralField, inverse_laplacian


@pytest.fixture(scope="module")
def carrier_setup():
    lat = FrequencyLattice(m=256, h_xi=0.25)
    spec = ForceSpec(variant="bump", delta=0.01, size=3)
    theta1 = inverse_laplacian(modulated_bump_force(lat, spec))
    return lat, theta1, quadratic_diagonal(theta1)


def test_split_reassembles_the_direct_coefficient(carrier_setup):
    lat, theta1, theta2 = carrier_setup
    probes = [(1, 1), (2, 1), (1, -2)]
    samples = second_iterate_split(theta1, probes)
    assert [s.index for s in samples] == probes
    for s in samples:
        a, b = s.index
        assert s.frequency == (lat.h_xi * a, lat.h_xi * b)
        direct = theta2.coeffs[a % lat.m, b % lat.m]
        assert abs(direct) > 0
        assert abs(s.total - direct) <= 1e-12 * abs(direct)
        assert s.total == s.main + s.cross + s.perp


def test_split_probe_validation(carrier_setup):
    lat, theta1, _ = carrier_setup
    with pytest.raises(ValueError, match="outside the lattice symmetric box"):
        second_iterate_split(theta1, [(200, 0)])
    with pytest.raises(ValueError, match="frequency zero"):
        second_iterate_split(theta1, [(0, 0)])
    with pytest.raises(ValueError, match="exceeds the admissible bound 1"):
        second_iterate_split(theta1, [(8, 0)])
    # radius 1 itself is admissible
    assert second_iterate_split(theta1, [(4, 0)])


def complex_route_profile(theta2, partition, shells):
    """2**(-j) sup |phi_j theta2| through the complex m x m synthesis."""
    out = []
    for j in shells:
        piece = SpectralField(theta2.lattice, theta2.coeffs * partition.ring_values(j))
        out.append((j, 2.0 ** (-j) * float(np.max(np.abs(piece.physical())))))
    return out


def test_low_frequency_profile_values(carrier_setup):
    lat, _, theta2 = carrier_setup
    partition = build_partition(lat)
    profile = low_frequency_profile(theta2, partition)
    assert [j for j, _ in profile] == list(range(partition.j_min, 0))
    values = dict(profile)
    for (j, value), (_, want) in zip(profile, complex_route_profile(theta2, partition, values)):
        assert want > 0.0
        assert abs(value - want) <= 1e-14 * want
    assert low_frequency_floor(theta2, partition) == max(values.values())


def test_low_frequency_profile_above_the_window_and_with_a_mean():
    # at m = 8, h_xi = 1/256 the window stops below shell -1; the shells
    # above it read 0, and the mean, on which every ring vanishes, is no error
    lat = FrequencyLattice(m=8, h_xi=1.0 / 256.0)
    partition = build_partition(lat)
    assert partition.j_max < -1
    rng = np.random.default_rng(3)
    c = hermitian_symmetrize(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    assert c[0, 0] != 0.0
    field = SpectralField(lat, c)
    profile = low_frequency_profile(field, partition)
    values = dict(profile)
    assert list(values) == list(range(partition.j_min, 0))
    assert all(values[j] == 0.0 for j in range(partition.j_max + 1, 0))
    live = range(partition.j_min, partition.j_max + 1)
    for j, want in complex_route_profile(field, partition, live):
        assert want > 0.0
        assert abs(values[j] - want) <= 1e-14 * want
    meanless = SpectralField(lat, np.where(lat.radius > 0, c, 0.0))
    assert low_frequency_profile(meanless, partition) == profile


def test_low_frequency_profile_range_checks():
    # at h_xi = 4 the smallest radius is 4, so the window has no shell j <= -1
    lat = FrequencyLattice(m=8, h_xi=4.0)
    partition = build_partition(lat)
    assert partition.j_min > -1
    field = SpectralField.cosine(lat, (1, 0))
    with pytest.raises(ValueError, match="there are none"):
        low_frequency_profile(field, partition)
    with pytest.raises(ValueError, match="there are none"):
        low_frequency_floor(field, partition)


def test_floor_of_zero_field():
    lat = FrequencyLattice(m=32, h_xi=0.25)
    partition = build_partition(lat)
    assert low_frequency_floor(SpectralField.zeros(lat), partition) == 0.0


def blocks_setup():
    lat = FrequencyLattice(m=256, h_xi=0.25)
    partition = build_partition(lat)
    spec = ForceSpec(
        variant="blocks",
        delta=0.01,
        size=2,
        block_range=(1, 2),
        exponents=ExponentMap.affine(2, -2),  # shells 0 and 2
        carrier_exponent=4,
        stride=lat.box_length / 4.0,
    )
    spec.validate(lat)
    _, forcing = translated_block_force(lat, spec, partition)
    theta2 = -1.0 * quadratic_diagonal(inverse_laplacian(forcing))
    return lat, partition, spec, theta2


def test_inflation_profile_entries_and_aggregates():
    lat, partition, spec, theta2 = blocks_setup()
    entries = inflation_profile(theta2, spec, partition)
    assert [(n, shell) for n, shell, _ in entries] == [(1, 0), (2, 2)]
    values = [v for _, _, v in entries]
    assert all(v > 0 for v in values)
    # recompute one entry by hand: probe projection, weighted L4 norm
    probe = build_probe(lat, 0, gap=spec.probe_gap)
    piece = probe.project(theta2)
    want = lp_norm(np.abs(piece.physical()), 4.0, lat.quadrature_weight)
    assert values[0] == pytest.approx(want, rel=1e-12)  # 2**(-0/2) = 1

    l1, l2, sup = (lq_aggregate(values, q) for q in (1.0, 2.0, math.inf))
    assert l1 >= l2 >= sup == max(values)

