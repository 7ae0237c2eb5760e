"""Deterministic memory guards for the quadratic form and ``illpose-step2``.

Sizes are counted in three units, at lattice size m:

* a padded array: the (3m/2, 3m/4 + 1) complex half-spectrum buffer in
  which the kernel synthesizes a factor or a flux and analyses the flux
  back, in place (``spectral._half_synthesis``, ``_analysed_half``);
* an (m, m/2) complex array, 8 m**2 bytes;
* an m x m field, 16 m**2 bytes, two of the previous unit.

Peaks are read with ``tracemalloc``, which numpy reports its array buffers
to, so they count every array allocated while the measured call runs
(arrays made before it are not traced at all).
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from sqglab.bilinear import bilinear_block, quadratic_diagonal
from sqglab.runner import config_from_dict, run_experiment
from sqglab.sampling import random_mean_zero_field
from sqglab.spectral import FrequencyLattice, SpectralField

M = 256
PADDED = (3 * M // 2) * (3 * M // 4 + 1) * 16
HALF = M * (M // 2) * 16
FIELD = M * M * 16

# (m, m/2)-sized working set of one form call, besides its padded arrays:
# the accumulator of the contracted flux (1), the velocity symbol on the
# columns the input occupies (at most 1), and one more unit for what is
# quadrant-sized: the lattice's cached radius quadrant on first use (about
# 1/4), the row-block radial factors (at most 1/4 each, two at a time) and
# interpreter overhead.  Measured at m = 256 on a full-band field, about
# 2.8 of these units on a fresh lattice.  Moving one more padded array
# into the peak adds 2.25 units and fails the guard.
FORM_ALLOWANCE = 3 * HALF

STEP2_DESK = {"experiment": "illpose-step2", "m": M, "h_xi": 0.25, "size_range": [1, 2]}


def traced_peak(call) -> int:
    """Bytes allocated at the peak of ``call()``, above what was allocated before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def full_band_pair(m):
    """Two real full-band fields on a fresh lattice, so no lattice cache is warm."""
    lattice = FrequencyLattice(m=m, h_xi=0.25)
    rng = np.random.default_rng(0)
    return random_mean_zero_field(lattice, rng), random_mean_zero_field(lattice, rng)


@pytest.fixture
def warm_pair():
    """The pair at size M, after one call of each form at m = 16: the first
    call in a process also allocates the interpreter's own caches for the
    kernel's code (about 1/4 unit), which belong to no lattice size."""
    f, g = full_band_pair(16)
    quadratic_diagonal(f)
    bilinear_block(f, g)
    return full_band_pair(M)


def test_quadratic_diagonal_peak_is_two_padded_arrays(warm_pair):
    # theta's synthesis and the flux being formed and analysed
    f, _ = warm_pair
    peak = traced_peak(lambda: quadratic_diagonal(f))
    assert peak <= 2 * PADDED + FORM_ALLOWANCE, f"{(peak - 2 * PADDED) / HALF:.2f} units over"


def test_bilinear_block_peak_is_four_padded_arrays(warm_pair):
    # f's and g's syntheses, the flux being formed and one velocity factor
    f, g = warm_pair
    peak = traced_peak(lambda: bilinear_block(f, g))
    assert peak <= 4 * PADDED + FORM_ALLOWANCE, f"{(peak - 4 * PADDED) / HALF:.2f} units over"


def test_step2_holds_at_most_three_fields(monkeypatch):
    """Live SpectralFields are counted as they are made and freed: the forcing
    and its iterates are dropped after their last use (runner)."""
    live = [0, 0]  # now, most

    def freed():
        live[0] -= 1

    freeze = SpectralField._freeze

    def counted(self, c):
        freeze(self, c)
        live[0] += 1
        live[1] = max(live[1], live[0])
        weakref.finalize(self, freed)

    monkeypatch.setattr(SpectralField, "_freeze", counted)
    run_experiment(config_from_dict(STEP2_DESK), write=False)
    assert live[1] <= 3


def test_step2_peak_is_three_fields_and_one_form():
    """At its peak step2 is inside a quadratic form, holding the form's
    input and one other field; the third field's worth covers the form's
    output and the partition's cached ring quadrants.  Measured at this
    config: 1.3 (m, m/2) units below the bound."""
    peak = traced_peak(lambda: run_experiment(config_from_dict(STEP2_DESK), write=False))
    bound = 3 * FIELD + 2 * PADDED + FORM_ALLOWANCE
    assert peak <= bound, f"{(peak - bound) / HALF:.2f} units over"


def test_step2_builds_no_full_lattice_coordinate_array(monkeypatch):
    def refuse(lattice):
        raise AssertionError("an m x m coordinate array was built")

    # k1 and k2 stay: they are broadcast views of one axis
    for name in ("xi1", "xi2", "radius", "radius_sq"):
        monkeypatch.setattr(FrequencyLattice, name, property(refuse))
    run_experiment(config_from_dict(STEP2_DESK), write=False)
