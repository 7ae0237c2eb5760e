"""Deterministic memory guards for the quadratic form, one perturbation
iteration, the live fields of ``illpose-step1`` and ``illpose-step2``, the
Besov shells and the translated-block forcing.

Sizes are counted in two units, at lattice size m:

* a column array: (3m/2, m/2) complex, 12 m**2 bytes, in which the form
  holds a factor after the column pass of its synthesis
  (``spectral._column_synthesis``, as wide as the factor's occupied
  columns) or a flux component after its row analysis; the padded
  (3m/2, 3m/4 + 1) array of a whole real transform, which the form no
  longer makes, is 1.5 of these;
* an (m, m/2) complex array, 8 m**2 bytes: what a full-band field stores,
  its k2 >= 0 half spectrum (``spectral.SpectralField``).  A field that
  stores its first w columns costs w/(m/2) of these units, and one that
  stored all m x m coefficients would cost two.

Peaks are read with ``tracemalloc``, which numpy reports its array buffers
to, so they count every array allocated while the measured call runs
(arrays made before it are not traced at all).
"""

import tracemalloc
import weakref
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from sqglab import bilinear, diagnostics, runner, solver, spectral
from sqglab.besov import (
    BesovIndex,
    DyadicPartition,
    _absolute_sum,
    _check_mean_zero,
    _norm_bounds,
    besov_profile,
    build_partition,
    shell_project,
)
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
from sqglab.sampling import _inner_edge_field, random_mean_zero_field, single_shell_field
from sqglab.solver import SolveConfig, perturbation_solve
from sqglab.spectral import (
    FrequencyLattice,
    SpectralField,
    dyadic_rescale,
    inverse_laplacian,
    neg_laplacian,
    riesz_velocity,
)

M = 256
COLUMN = (3 * M // 2) * (M // 2) * 16
HALF = M * (M // 2) * 16

# (m, m/2)-sized working set of one form call, besides its column arrays:
# the accumulator of the contracted flux (1); the row passes' slab scratch,
# one complex slab of spectra and two slabs of samples for the diagonal
# form, three for the block form, each 64 rows of 3m/4 + 1 complex, 0.38
# of these units at m = 256 (1.1 and 1.5 together); and half a unit for the
# lattice's radius quadrant, cached on first use (1/4), and the velocity
# symbol on a run of 64 lattice rows with its temporaries.  Measured at
# m = 256 on a fresh lattice: 2.43 of these units for the diagonal form and
# 2.83 for the block form on full-band fields; on a modulated bump, whose
# rows are shorter, the narrow guard below counts the scratch itself.  The velocity symbol on the whole lattice, held
# while a velocity factor is copied, would add 1 unit and fail the block
# form's guard; a padded array in place of a column array adds 0.76 and
# fails the diagonal form's guards.  The padded kernel measured 1.16
# units over the diagonal form's bound and 2.69 over the block form's.
FORM_ALLOWANCE = 3 * HALF

STEP2_DESK = {"experiment": "illpose-step2", "m": M, "h_xi": 0.25, "size_range": [1, 2]}
STEP1_DESK = {"experiment": "illpose-step1", "m": M, "size_range": [4, 5]}


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


def units_over(peak, bound):
    return f"{(peak - bound) / HALF:.2f} units over"


def test_quadratic_diagonal_peak_is_two_column_arrays(warm_pair):
    # theta's column array and a velocity factor's, which the flux
    # spectrum overwrites as its slabs are analysed
    f, _ = warm_pair
    peak = traced_peak(lambda: quadratic_diagonal(f))
    bound = 2 * COLUMN + FORM_ALLOWANCE
    assert peak <= bound, units_over(peak, bound)


def test_bilinear_block_peak_is_four_column_arrays(warm_pair):
    # f's and g's column arrays and their velocity factors', one of which
    # the flux spectrum overwrites
    f, g = warm_pair
    peak = traced_peak(lambda: bilinear_block(f, g))
    bound = 4 * COLUMN + FORM_ALLOWANCE
    assert peak <= bound, units_over(peak, bound)


def test_narrow_quadratic_diagonal_peak_is_one_column_array(warm_pair):
    """A modulated bump occupies 8 of the 128 columns here, so its product
    reaches wo = 15 and the rows are 32 points long (``bilinear._flux_band``).
    The form holds the (m, wo) accumulator, which is its output, theta's
    8-column array, the velocity factor's array made wo wide for the flux
    spectrum written over it, and the slab scratch at 32 points (one slab of
    17 complex spectra and two of 34 doubles per row), 0.50 units together;
    besides these, the lattice's radius quadrant, a quarter unit cached on
    first use, and the velocity symbol on a run of rows.  Measured: 0.76
    units, so 0.35 units are allowed for the quadrant and the symbol, 0.09
    above what they took.  An (m, m/2) accumulator would add 0.94 units, a
    flux spectrum of all m/2 columns 1.3, the slab scratch at 3m/2 points
    1.0, and each fails; the kernel with an (m, m/2) accumulator measured
    1.64, and the one before it, with all three, 4.12.  The padded kernel
    held two padded arrays, theta's and the flux's, at any width."""
    lattice = warm_pair[0].lattice
    bump = modulated_bump_force(lattice, ForceSpec(variant="bump", size=2))
    w = bump.occupied[1]
    wo, length = bilinear._flux_band(w, w, M // 2)
    assert (w, wo, length) == (8, 15, 32)
    peak = traced_peak(lambda: quadratic_diagonal(bump))
    grid = 3 * M // 2
    columns = grid * ((w | 1) + (wo | 1)) * 16  # rows padded to an odd length
    slabs = 64 * (length // 2 + 1) * 16 + 2 * 64 * (length + 2) * 8
    bound = M * wo * 16 + columns + slabs + int(0.35 * HALF)
    assert peak <= bound, units_over(peak, bound)


@pytest.mark.parametrize("form", ["diagonal", "block"])
def test_forms_transform_no_padded_array(form, monkeypatch):
    """Every array the forms hand to a transform, at m = 64 (a 96-row grid):
    column passes over (grid, w) arrays, w <= m/2, and row passes over
    slabs of at most 64 rows; none has the padded shape (grid, grid/2 + 1)."""
    m = 64
    grid = 3 * m // 2
    f, g = full_band_pair(m)
    binding = spectral._pocketfft
    shapes = []

    def recorded(transform):
        def run(a, axes, *args):
            shapes.append((transform.__name__, axes, a.shape))
            return transform(a, axes, *args)

        return run

    monkeypatch.setattr(spectral, "_pocketfft", SimpleNamespace(
        c2c=recorded(binding.c2c), r2c=recorded(binding.r2c), c2r=recorded(binding.c2r)))
    if form == "diagonal":
        quadratic_diagonal(f)
    else:
        bilinear_block(f, g)
    assert shapes
    for name, axes, shape in shapes:
        if axes == (0,):
            assert name == "c2c" and shape[0] == grid and shape[1] <= m // 2, shape
        else:
            assert name in ("c2r", "r2c") and shape[0] <= 64, shape
        assert shape != (grid, grid // 2 + 1)


def test_step2_holds_at_most_two_fields(live_fields):
    """Live SpectralFields are counted as they are made and freed: the forcing,
    its inverse Laplacian and the second iterate are each dropped after their
    last use (runner), so a form's input and its output are all that is ever
    held.  Holding the forcing through its Laplacian's form made three."""
    run_experiment(config_from_dict(STEP2_DESK), write=False)
    assert live_fields.most <= 2


def test_step2_peak_is_two_fields_and_one_form():
    """Every field of step2 occupies a few of the 128 columns here and
    stores only those: the forcing, its inverse Laplacian and the second
    iterate 8 to 15 columns each, a tenth of a unit together.  What is left
    is the partition's ring quadrants, cached as the Besov profiles read
    them (each evaluated a slab of rows at a time), the lattice's radius
    quadrant, and a form's column arrays and slab scratch, as in the narrow
    form's guard above.  Measured at this config: 1.32 units after the
    tests above, 1.56 as the first run in a process, so the bound leaves
    0.19 units above the higher.  Fields that stored all m/2 columns
    measured 3.04 and 3.28 (about one unit for each of the two half fields
    held at the peak, and one for the form's accumulator), and holding the
    forcing through the form of its inverse Laplacian besides measured 3.92
    and 4.16."""
    peak = traced_peak(lambda: run_experiment(config_from_dict(STEP2_DESK), write=False))
    bound = int(1.75 * HALF)
    assert peak <= bound, units_over(peak, bound)


def test_step1_drops_each_size_before_the_next(live_fields, monkeypatch):
    """step1 drops its forcing after the data norm and every field of a size
    before the next size's are made (runner): no field made up to the end of
    one size's perturbation solve is alive when the next solve starts.  At
    its peak, inside the first solve, the run holds 10 fields: the solve's
    own working set and theta2.  theta1 is handed over from a list, and the
    solve frees it once its base and forcing are made; a solve that held it
    through its loop made 11.  Holding the forcing through the solve and
    the last size's correction into the next made 13."""
    ends, stale = [], []
    solve = runner.perturbation_solve

    def watched(theta1, theta2, cfg, partition):
        if ends:
            stale.extend(order for order in live_fields.alive() if order < ends[-1])
        handed = [theta1]
        del theta1  # handed over as the runner hands it, so that the solve can free it
        out = solve(handed.pop(), theta2, cfg, partition=partition)
        ends.append(live_fields.made)
        return out

    monkeypatch.setattr(runner, "perturbation_solve", watched)
    run_experiment(config_from_dict(STEP1_DESK), write=False)
    assert len(ends) == 2 and not stale
    assert live_fields.most <= 10


def test_perturbation_solve_frees_theta1_before_its_loop(monkeypatch):
    """``perturbation_solve`` reads theta1 for its base and its forcing only
    and drops it before the loop (``solver._iterate``), so a theta1 handed
    over with no other reference, as step1 hands it, is freed by then."""
    theta1, theta2 = (0.01 * f for f in full_band_pair(32))
    partition = build_partition(theta1.lattice)
    iterate, alive = solver._iterate, []

    def watched(*args, **kwargs):
        alive.append(held() is not None)
        return iterate(*args, **kwargs)

    monkeypatch.setattr(solver, "_iterate", watched)
    held = weakref.ref(theta1)
    handed = [theta1]
    del theta1
    perturbation_solve(handed.pop(), theta2, SolveConfig(max_iter=1), partition)
    assert alive == [False]


def test_perturbation_iteration_working_set(monkeypatch):
    """Two iterations of ``perturbation_solve`` at m = 256, measured from the
    loop's entry, so the solve's set-up (its base, base form, source and
    forcing, four fields) is not counted.  At its peak the second iteration
    is inside the quadratic form of the defect, holding the previous
    iterate, the new one and the reassembled field: three half fields, one
    diagonal form of a full-band field (two column arrays).  Measured: 0.83
    units below the bound; fields storing all m x m coefficients hold three
    more units."""
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
    bound = 3 * HALF + 2 * COLUMN + FORM_ALLOWANCE
    assert peaks[0] <= bound, units_over(peaks[0], bound)


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


NARROW_OUTPUTS = {"zeros", "dyadic_rescale", "single_shell_field", "inner_edge_field",
                  "modulated_bump_force", "lacunary_force", "translated_block_force",
                  "inverse_laplacian_of_a_bump", "form_of_a_bump"}


def test_every_operator_output_stores_its_own_columns():
    """Each output is an (m, w) array of its first w <= m/2 columns that
    owns its buffer: no view of a wider array keeps that array alive.
    The narrow constructions store fewer than m/2 columns; full-band
    fields all m/2 (``tests/test_storage.py`` pins the values)."""
    lattice = FrequencyLattice(m=64, h_xi=0.25)
    outputs = operator_outputs(lattice)
    bump = outputs["modulated_bump_force"]
    outputs["inverse_laplacian_of_a_bump"] = inverse_laplacian(bump)
    outputs["form_of_a_bump"] = quadratic_diagonal(outputs["inverse_laplacian_of_a_bump"])
    for name, field in outputs.items():
        c = field.coeffs
        assert c.ndim == 2 and c.shape[0] == lattice.m and c.shape[1] <= lattice.m // 2, name
        assert owned_elements(c) == c.size, name
        assert (c.shape[1] < lattice.m // 2) == (name in NARROW_OUTPUTS), name
    assert outputs["zeros"].coeffs.shape == (lattice.m, 0)
    assert bump.coeffs.shape == (lattice.m, 8)
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
    """The forcing is its one (m, K + 1) output, 0.055 units for the K = 28
    of the widest ring's box (57 x 29 here), on which the envelope lives
    with the ring quadrants and the lattice's axis.  Measured: 0.075 units,
    so the bound leaves 0.075 above it.  An (m, m/2) output measured 1.03,
    and an envelope built on the whole lattice and shifted as a second
    array 3.5."""
    lattice, spec, partition = step3_blocks
    unit = lattice.m * (lattice.m // 2) * 16
    peak = traced_peak(lambda: translated_block_force(lattice, spec, partition))
    assert peak <= 0.15 * unit, f"{peak / unit:.3f} units"


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


def test_norm_bounds_allocate_no_half_sized_temporary():
    # the coefficient sums run 64 rows at a time into one reused buffer; an
    # (m, m/2) float array of moduli would be half a unit.  Measured: 0.06
    # units for the run buffer, plus numpy's fixed-size ufunc buffer for
    # strided operands (8192 elements), 0.06 units at this size
    lattice = FrequencyLattice(m=512, h_xi=0.25)
    partition = build_partition(lattice)
    field = random_mean_zero_field(lattice, np.random.default_rng(0))
    unit = lattice.m * (lattice.m // 2) * 16
    index = SolveConfig().index
    _norm_bounds(field, index, partition)  # cache the rings
    for name, call in (("bounds", lambda: _norm_bounds(field, index, partition)),
                       ("absolute sum", lambda: _absolute_sum(field))):
        peak = traced_peak(call)
        assert peak < 0.2 * unit, f"{name}: {peak / unit:.2f} units"


def test_narrow_profile_allocates_no_square_shell_grid():
    """A modulated bump occupies 8 of the 256 stored columns at m = 512, so
    each even-p shell is summed on M_j rows of at most 32 points
    (``besov.shell_profile``): its transform buffer and the powers of its
    samples stay far below one M_j x M_j array of doubles, 2 MiB for the
    top shells, whose M_j is m.  Measured: 0.17 of that array, with the
    rings cached.  Square M_j x M_j grids measured 2.26."""
    lattice = FrequencyLattice(m=512, h_xi=0.25)
    partition = build_partition(lattice)
    bump = modulated_bump_force(lattice, ForceSpec(variant="bump", size=2))
    assert bump.coeffs.shape[1] == bump.occupied[1] == 8
    index = BesovIndex.data_index(4.0, 2.0)
    besov_profile(bump, index.s, index.p, partition)  # cache the rings
    square = lattice.m * lattice.m * 8
    peak = traced_peak(lambda: besov_profile(bump, index.s, index.p, partition))
    assert peak < 0.25 * square, f"{peak / square:.2f} of an m x m array"


def test_full_band_profile_peak_is_three_half_fields():
    """A full-band field's top shells at p = 4 are summed on the m x m grid
    (``besov.shell_profile``): the shell's (m, m/2 + 1) complex buffer, in
    which its samples are synthesized, and the two m x m float powers of
    them, x * x and its square, one (m, m/2) unit each.  Measured at
    m = 256, h_xi = 1/8, with the rings cached: 3.01 units (3.00 at m = 512
    and 1024)."""
    lattice = FrequencyLattice(m=M, h_xi=0.125)
    partition = build_partition(lattice)
    field = random_mean_zero_field(lattice, np.random.default_rng(0))
    assert field.occupied == (M // 2, M // 2)
    index = BesovIndex.data_index(4.0, 2.0)
    besov_profile(field, index.s, index.p, partition)  # cache the rings
    peak = traced_peak(lambda: besov_profile(field, index.s, index.p, partition))
    assert peak <= 3.1 * HALF, f"{peak / HALF:.2f} units"


def test_profile_holds_one_shell_buffer_at_a_time():
    """``besov.shell_profile`` frees shell j's buffers before shell j + 1's
    are made.  At p = inf every shell is synthesized on the m x m grid from
    its live columns, a slab of 64 rows at a time (``spectral._slab_samples``):
    one (64, m/2 + 1) complex slab of spectra and one (64, m + 2) real slab
    of samples, half an (m, m/2 + 1) complex buffer together at m = 256.  A
    full-band field at m = 256, h_xi = 1/8 fills the three shells -3 .. -1
    of ``low_frequency_profile``.  Measured, with the rings cached: 0.67
    buffers.  The whole-shell synthesis into one (m, m/2 + 1) buffer per
    shell measured 1.13, and 2.01 when it held the last shell's buffer
    while the next was made."""
    lattice = FrequencyLattice(m=M, h_xi=0.125)
    partition = build_partition(lattice)
    field = random_mean_zero_field(lattice, np.random.default_rng(0))
    profile = diagnostics.low_frequency_profile(field, partition)  # cache the rings
    assert [j for j, value in profile if value > 0] == [-3, -2, -1]
    buffer = M * (M // 2 + 1) * 16
    peak = traced_peak(lambda: diagnostics.low_frequency_profile(field, partition))
    assert peak < 0.9 * buffer, f"{peak / buffer:.2f} shell buffers"


def test_sup_shells_allocate_no_lattice_sized_buffer():
    """At p = inf a shell is written into an (m, k2_j + 1) array of its live
    columns and synthesized a slab of 64 rows at a time
    (``besov.shell_profile``), so ``low_frequency_profile`` of step2's
    second iterate at m = 512, which occupies 15 columns, allocates the slab
    scratch, a quarter of one (m, m/2 + 1) complex buffer, and a few
    columns.  Measured, with the rings cached: 0.30 of that buffer.  The
    whole-shell synthesis, which wrote every shell into such a buffer,
    measured 1.03."""
    lattice = FrequencyLattice(m=512, h_xi=0.25)
    partition = build_partition(lattice)
    spec = ForceSpec(variant="lacunary", delta=0.01, size=2, block_range=(1, 2),
                     exponents=ExponentMap.affine(2, 0))
    theta2 = quadratic_diagonal(inverse_laplacian(lacunary_force(lattice, spec)))
    assert theta2.occupied[1] == 15
    profile = diagnostics.low_frequency_profile(theta2, partition)  # cache the rings
    assert any(value > 0 for _, value in profile)
    buffer = lattice.m * (lattice.m // 2 + 1) * 16
    peak = traced_peak(lambda: diagnostics.low_frequency_profile(theta2, partition))
    assert peak < 0.5 * buffer, f"{peak / buffer:.2f} of an (m, m/2 + 1) buffer"


def test_ring_quadrant_steps_run_a_slab_of_rows_at_a_time():
    """``DyadicPartition.ring_quadrant`` evaluates both steps 64 rows at a
    time into its output, so besides that (top + 1)^2 array and its crop to
    the ring's extent only a slab's temporaries are made.  At m = 1024,
    h_xi = 1/4, with the radius quadrant cached: shell 6 measured 2.01 of
    its cropped quadrant (the uncropped array is 1.31 of it), shells 7 and
    8, which need no crop, 1.68 and 1.52.  The steps over the whole box
    measured 4.87 to 5.13."""
    lattice = FrequencyLattice(m=1024, h_xi=0.25)
    lattice.radius_quadrant
    partition = build_partition(lattice)
    for j in (6, 7, 8):
        peak = traced_peak(lambda: partition.ring_quadrant(j))
        quadrant = partition.ring_quadrant(j).nbytes
        assert peak < 2.5 * quadrant, f"shell {j}: {peak / quadrant:.2f} quadrants"


def test_step2_forcing_profile_caches_no_ring_it_cannot_reach():
    """step2's forcing at m = 1024, h_xi = 1/4 reaches |xi| of about 71, so
    shells 7 and 8, whose rings start at t0 2**6 = 80 and 160, read 0
    without their 513 x 513 quadrants being made (``besov.shell_profile``):
    the partition's cache ends at shell 6."""
    lattice = FrequencyLattice(m=1024, h_xi=0.25)
    partition = build_partition(lattice)
    spec = ForceSpec(variant="lacunary", delta=0.01, size=3, block_range=(1, 3),
                     exponents=ExponentMap.affine(2, 0))
    index = BesovIndex.data_index(4.0, 2.0)
    profile = besov_profile(lacunary_force(lattice, spec), index.s, index.p, partition)
    assert partition.j_max == 8 and profile[-2:] == [0.0, 0.0]
    assert max(partition._quadrants) == 6


def test_narrow_inverse_laplacian_allocates_no_radius_quadrant():
    """The symbol is made on the quadrant's occupied columns only, 8 of 257
    here (``spectral.inverse_laplacian``), so besides its (m, 8) output the
    call allocates a few of those columns, with the lattice's radius
    quadrant cached and the field's box read beforehand.  Measured: 0.10 of
    the quadrant at m = 512, so the bound leaves 0.10 above it (with an
    (m, m/2) output and the box read inside the call, 0.22); the symbol
    made on the whole quadrant, with its square, and the finiteness check
    over every column measured 1.25."""
    lattice = FrequencyLattice(m=512, h_xi=0.25)
    bump = modulated_bump_force(lattice, ForceSpec(variant="bump", size=2))
    assert bump.coeffs.shape[1] == bump.occupied[1] == 8
    output = bump.coeffs.nbytes
    quadrant = lattice.radius_quadrant.nbytes
    peak = traced_peak(lambda: inverse_laplacian(bump))
    assert peak - output < 0.2 * quadrant, f"{(peak - output) / quadrant:.2f} of the quadrant"
