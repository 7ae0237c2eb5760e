"""Real fields in, real fields out.

A field stores the k2 >= 0 half of a real field's Hermitian coefficients,
and its full-array constructor refuses anything that is not a real field.
The half holds one redundancy, column k2 = 0, whose k1 < 0 end mirrors its
k1 > 0 end, and the zero mode is real; the k1 = -m/2 row is zero.  Every
operator and source must return halves for which these hold, which is
checked here by unfolding each output and constructing it again: the
constructor must accept it and keep the same half, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab.besov import shell_project
from sqglab.forcing import (
    ExponentMap,
    ForceSpec,
    lacunary_force,
    modulated_bump_force,
    translated_block_force,
)
from sqglab.sampling import random_mean_zero_field, single_shell_field
from oracles import full, padded
from sqglab.spectral import (
    FrequencyLattice,
    SpectralField,
    dyadic_rescale,
    inverse_laplacian,
    neg_laplacian,
    riesz_velocity,
)

lattices = st.builds(
    FrequencyLattice,
    m=st.sampled_from([8, 16, 32]),
    h_xi=st.sampled_from([1.0 / 16.0, 0.25, 0.3, 1.0]),
)
seeds = st.integers(0, 2**32 - 1)
deltas = st.floats(1e-4, 1.0)


def drawn(lattice, seed, decay=0.0):
    return random_mean_zero_field(lattice, np.random.default_rng(seed), decay=decay)


def check_real(field, source):
    """The field's unfolded coefficients construct it again, half unchanged."""
    again = SpectralField(field.lattice, full(field))
    assert again.coeffs.tobytes() == padded(field).tobytes(), source


@settings(max_examples=30, deadline=None)
@given(lattice=lattices, seed=seeds, decay=st.sampled_from([0.0, 1.0, 2.5]))
def test_multipliers_return_real_fields(lattice, seed, decay):
    theta = drawn(lattice, seed, decay)
    check_real(theta, "random_mean_zero_field")
    check_real(inverse_laplacian(theta), "inverse_laplacian")
    check_real(neg_laplacian(theta), "neg_laplacian")
    for u in riesz_velocity(theta):
        check_real(u, "riesz_velocity")


@settings(max_examples=30, deadline=None)
@given(lattice=lattices, seed=seeds, data=st.data())
def test_shell_pieces_are_real_fields(lattice, seed, data):
    partition = lattice.partition
    live = [j for j in partition.shells if partition.ring_quadrant(j).any()]
    j = data.draw(st.sampled_from(live), label="shell")
    check_real(shell_project(drawn(lattice, seed), j), "shell_project")
    field = single_shell_field(lattice, j, np.random.default_rng(seed))
    check_real(field, "single_shell_field")


# The forcings need the lattice to hold their carriers: at m = 64 and
# h_xi = 1/4 the Nyquist frequency is 8, which admits a bump carried to 2**2,
# lacunary terms at 2**1 or 2**2, and block envelopes up to shell 0 carried
# to 2**2.  Smaller lattices hold none of them.
FORCING_LATTICE = FrequencyLattice(m=64, h_xi=0.25)


@settings(max_examples=20, deadline=None)
@given(delta=deltas)
def test_modulated_bump_force_is_real(delta):
    spec = ForceSpec(variant="bump", delta=delta, size=2)
    check_real(modulated_bump_force(FORCING_LATTICE, spec), "modulated_bump_force")


@settings(max_examples=20, deadline=None)
@given(delta=deltas, shift=st.sampled_from([-1, 0]), size=st.integers(2, 6))
def test_lacunary_force_is_real(delta, shift, size):
    spec = ForceSpec(variant="lacunary", delta=delta, size=size, block_range=(1, 1),
                     exponents=ExponentMap.affine(2, shift))
    check_real(lacunary_force(FORCING_LATTICE, spec), "lacunary_force")


@settings(max_examples=20, deadline=None)
@given(
    delta=deltas,
    stride=st.sampled_from([0.75, 1.0, 2.0, 3.0, 5.0]),
    blocks=st.sampled_from([(1, 1), (1, 2), (2, 2)]),
    equal_shell=st.sampled_from([None, -2, -1, 0]),
)
def test_translated_block_force_is_real(delta, stride, blocks, equal_shell):
    spec = ForceSpec(variant="blocks", delta=delta, size=2, block_range=blocks,
                     exponents=ExponentMap.affine(2, -4), carrier_exponent=2,
                     stride=stride, equal_shell=equal_shell)
    check_real(translated_block_force(FORCING_LATTICE, spec), "translated_block_force")


@settings(max_examples=30, deadline=None)
@given(
    m=st.sampled_from([8, 16, 32]),
    seed=seeds,
    exponent=st.integers(1, 2),
    amplitude_power=st.sampled_from([1, 3]),
)
def test_dyadic_rescale_round_trips(m, seed, exponent, amplitude_power):
    lattice = FrequencyLattice(m=m, h_xi=0.25)
    f = drawn(lattice, seed)
    reach = np.maximum(np.abs(lattice.k1), np.abs(lattice.k2))
    # up then down: a spectrum inside |k| < m / 2**(exponent + 1) fits the
    # finer scale and comes back bit for bit
    low = SpectralField(lattice, np.where(reach < m >> (exponent + 1), full(f), 0.0))
    up = dyadic_rescale(low, exponent, amplitude_power)
    check_real(up, "dyadic_rescale")
    assert np.array_equal(padded(dyadic_rescale(up, -exponent, amplitude_power)), padded(low))
    # down then up: a spectrum on the 2**exponent-coarser sublattice
    q = 1 << exponent
    coarse = (lattice.k1 % q == 0) & (lattice.k2 % q == 0)
    sub = SpectralField(lattice, np.where(coarse, full(f), 0.0))
    down = dyadic_rescale(sub, -exponent, amplitude_power)
    check_real(down, "dyadic_rescale")
    assert np.array_equal(padded(dyadic_rescale(down, exponent, amplitude_power)), padded(sub))
