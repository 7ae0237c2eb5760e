"""Deterministic memory guards for the quadratic form, one perturbation
iteration, ``illpose-step2`` and the translated-block forcing.

Sizes are counted in two units, at lattice size m:

* a padded array: the (3m/2, 3m/4 + 1) complex half-spectrum buffer in
  which the kernel synthesizes a factor or a flux and analyses the flux
  back, in place (``spectral._half_synthesis``, ``_analysed_half``);
* an (m, m/2) complex array, 8 m**2 bytes: what every field stores, its
  k2 >= 0 half spectrum (``spectral.SpectralField``).  A field that stored
  all m x m coefficients would be two of these units.

Peaks are read with ``tracemalloc``, which numpy reports its array buffers
to, so they count every array allocated while the measured call runs
(arrays made before it are not traced at all).
"""

import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest

from sqglab import bilinear, diagnostics, solver
from sqglab.besov import DyadicPartition, _check_mean_zero, build_partition, shell_project
from sqglab.bilinear import bilinear_block, bilinear_quadrature, quadratic_diagonal
from sqglab.forcing import (
    ExponentMap,
    ForceSpec,
    envelope_l4_norm,
    lacunary_force,
    modulated_bump_force,
    translated_block_force,
)
from sqglab.runner import config_from_dict, run_experiment
from sqglab.sampling import random_mean_zero_field, single_shell_field
from sqglab.solver import SolveConfig, _inner_edge_field, perturbation_solve
from sqglab.spectral import (
    FrequencyLattice,
    SpectralField,
    dyadic_rescale,
    inverse_laplacian,
    neg_laplacian,
    riesz_velocity,
)

M = 256
PADDED = (3 * M // 2) * (3 * M // 4 + 1) * 16
HALF = M * (M // 2) * 16

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
    input and one other field, two half fields; the form's output is its
    accumulator, inside the form's allowance, and one more unit covers the
    partition's cached ring quadrants.  Measured at this config: 0.95 units
    below the bound.  Fields storing all m x m coefficients hold more: the
    code before the half-spectrum layout measured 1.05 units over it."""
    peak = traced_peak(lambda: run_experiment(config_from_dict(STEP2_DESK), write=False))
    bound = 3 * HALF + 2 * PADDED + FORM_ALLOWANCE
    assert peak <= bound, f"{(peak - bound) / HALF:.2f} units over"


def test_perturbation_iteration_working_set(monkeypatch):
    """Two iterations of ``perturbation_solve`` at m = 256, measured from the
    loop's entry, so the solve's set-up (its base, base form, source and
    forcing, four fields) is not counted.  At its peak the second iteration
    is inside the quadratic form of the defect, holding the previous
    iterate, the new one and the reassembled field: three half fields, one
    form.  Measured: 0.6 units below the bound; fields storing all m x m
    coefficients hold three more units (the code before the half-spectrum
    layout measured 3.5 units over it)."""
    theta1, theta2 = (0.01 * f for f in full_band_pair(M))
    partition = build_partition(theta1.lattice)
    perturbation_solve(theta1, theta2, SolveConfig(max_iter=2), partition)  # warm caches
    iterate, peaks = solver._iterate, []

    def measured(*args, **kwargs):
        out = []
        peaks.append(traced_peak(lambda: out.append(iterate(*args, **kwargs))))
        return out[0]

    monkeypatch.setattr(solver, "_iterate", measured)
    _, trace = perturbation_solve(theta1, theta2, SolveConfig(max_iter=2), partition)
    assert trace.iterations == 2
    bound = 3 * HALF + 2 * PADDED + FORM_ALLOWANCE
    assert peaks[0] <= bound, f"{(peaks[0] - bound) / HALF:.2f} units over"


def operator_outputs(lattice):
    """Every way the package makes a scalar field, by name, on ``lattice``."""
    rng = np.random.default_rng(1)
    partition = build_partition(lattice)
    f, g = random_mean_zero_field(lattice, rng), random_mean_zero_field(lattice, rng, decay=1.0)
    blocks = ForceSpec(variant="blocks", size=2, block_range=(1, 2),
                       exponents=ExponentMap.affine(2, -4), carrier_exponent=2, stride=3.0)
    lacunary = ForceSpec(variant="lacunary", size=2, block_range=(1, 1),
                         exponents=ExponentMap.affine(2, 0))
    u1, u2 = riesz_velocity(f)
    return {
        "constructor": SpectralField(lattice, np.zeros((lattice.m, lattice.m))),
        "zeros": SpectralField.zeros(lattice),
        "cosine": SpectralField.cosine(lattice, (2, 3)),
        "sum": f + g, "difference": f - g, "multiple": 2.0 * f, "negation": -f,
        "inverse_laplacian": inverse_laplacian(f),
        "neg_laplacian": neg_laplacian(f),
        "riesz_velocity_1": u1, "riesz_velocity_2": u2,
        "dyadic_rescale": dyadic_rescale(SpectralField.cosine(lattice, (2, 3)), 1),
        "quadratic_diagonal": quadratic_diagonal(f),
        "bilinear_block": bilinear_block(f, g),
        "shell_project": shell_project(f, partition, 0),
        "single_shell_field": single_shell_field(lattice, partition, 0, rng),
        "inner_edge_field": _inner_edge_field(lattice, 1, rng),
        "modulated_bump_force": modulated_bump_force(lattice, ForceSpec(variant="bump", size=2)),
        "lacunary_force": lacunary_force(lattice, lacunary),
        "translated_block_force": translated_block_force(lattice, blocks, partition),
    }


def test_every_operator_output_stores_the_half_spectrum():
    lattice = FrequencyLattice(m=64, h_xi=0.25)
    half = (lattice.m, lattice.m // 2)
    for name, field in operator_outputs(lattice).items():
        assert field.coeffs.shape == half, name
        assert field.coeffs.nbytes == 8 * lattice.m**2, name
    small = FrequencyLattice(m=16, h_xi=0.5)
    f = SpectralField.cosine(small, (1, 2))
    assert bilinear_quadrature(f, f).coeffs.shape == (16, 8)


SOLVE_DESK = {"experiment": "solve", "m": 64, "h_xi": 0.25, "samples": 50, "max_iter": 8}


def owned_elements(array: np.ndarray) -> int:
    """Elements of the buffer ``array`` is a view of: one axis for a broadcast."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array.size


def test_lattice_caches_no_array_larger_than_its_radius_quadrant():
    # the coordinates are one frequency axis (with k1 and k2 broadcast from
    # it) and the radius quadrant; no cached array owns m x m elements
    lattice = FrequencyLattice(m=64, h_xi=0.25)
    cached = [name for name, attr in vars(FrequencyLattice).items()
              if isinstance(attr, cached_property)]
    assert {"k1", "k2", "xi_axis", "radius_quadrant"} <= set(cached)
    for name in cached:
        value = getattr(lattice, name)
        assert owned_elements(value) <= (lattice.m // 2 + 1) ** 2, name


def refuse_coordinate_arrays(monkeypatch):
    """Make the whole lattice's centred coordinates raise when built, where
    the two whole-lattice quadratures look them up; every other route reads
    the lattice's frequency axis and radius quadrant."""
    def refuse(lattice):
        raise AssertionError("the m x m coordinates of a quadrature were built")

    for module in (bilinear, diagnostics):
        monkeypatch.setattr(module, "_centred_coordinates", refuse)


def test_step2_builds_no_full_lattice_coordinate_array(monkeypatch):
    refuse_coordinate_arrays(monkeypatch)
    run_experiment(config_from_dict(STEP2_DESK), write=False)


def test_solve_builds_no_full_lattice_coordinate_array(monkeypatch):
    # the samplers of the constants read the radius quadrant
    refuse_coordinate_arrays(monkeypatch)
    run_experiment(config_from_dict(SOLVE_DESK), write=False)


def test_partition_check_builds_no_full_lattice_coordinate_array(monkeypatch):
    # the rings and the telescoped sum are read on the radius quadrant
    refuse_coordinate_arrays(monkeypatch)
    run_experiment(config_from_dict({"experiment": "partition-check", "m": 256}), write=False)


@pytest.fixture
def step3_blocks(monkeypatch):
    """Two blocks of illpose-step3's inflation leg at m = 1024, h_xi = 1/16
    (shells -2 and 0, carrier 2**2), with the full-lattice ring unfolding
    made to raise.  The lattice's radius quadrant, a quarter unit that the
    first ring read of any route caches, is built before the measurement."""
    def refuse(self, j):
        raise AssertionError("a ring was unfolded onto the lattice")

    monkeypatch.setattr(DyadicPartition, "ring_values", refuse)
    lattice = FrequencyLattice(m=1024, h_xi=1.0 / 16.0)
    spec = ForceSpec(variant="blocks", size=2, block_range=(1, 2),
                     exponents=ExponentMap.affine(2, -4), carrier_exponent=2,
                     stride=lattice.box_length / 4.0)
    lattice.radius_quadrant
    return lattice, spec, build_partition(lattice)


def test_translated_block_force_peak_is_its_output(step3_blocks):
    """The forcing is its one (m, m/2) output; the envelope lives on the box
    of its widest ring (57 x 29 here), so a quarter unit covers it, the
    ring quadrants and the lattice's axis.  Measured: 1.0 units.  An
    envelope built on the whole lattice and shifted as a second array
    measured 3.5."""
    lattice, spec, partition = step3_blocks
    unit = lattice.m * (lattice.m // 2) * 16
    peak = traced_peak(lambda: translated_block_force(lattice, spec, partition))
    assert peak <= 1.25 * unit, f"{peak / unit:.2f} units"


def test_envelope_l4_norm_allocates_no_lattice_sized_array(step3_blocks):
    # the envelope's box, completed to its k2 < 0 columns, and the small
    # grid box_lp_norm sums it on; a full-lattice envelope measured 28 MiB
    lattice, spec, partition = step3_blocks
    unit = lattice.m * (lattice.m // 2) * 16
    peak = traced_peak(lambda: envelope_l4_norm(lattice, spec, partition))
    assert peak < unit, f"{peak / unit:.2f} units"


def test_mean_zero_check_allocates_no_half_sized_temporary():
    # the check reads its scale by reductions over the real and imaginary
    # views; np.abs over the half would allocate an (m, m/2) float array,
    # half a unit (measured: about 1.2 kB here)
    lattice = FrequencyLattice(m=512, h_xi=0.25)
    field = random_mean_zero_field(lattice, np.random.default_rng(0))
    unit = lattice.m * (lattice.m // 2) * 16
    peak = traced_peak(lambda: _check_mean_zero(field))
    assert peak < 0.01 * unit, f"{peak / unit:.4f} units"
