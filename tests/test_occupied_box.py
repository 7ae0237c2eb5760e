"""Passes sized by a field's occupied box, against their whole-lattice routes.

A field occupies the box ``|k1| <= K1``, ``k2 <= w - 1`` of its occupied
rows and columns (``SpectralField.occupied``, read once per field from
``spectral._occupied_rows`` and ``spectral._occupied_columns``).
Outside it every coefficient is an exact zero, so the Besov shells its box
cannot reach, the inverse Laplacian, the mean-zero check, the forms'
closing factor of i and step2's homogeneity defect read the box only.  Each
must give bitwise what its whole-lattice route gives (``tests/oracles.py``),
on the constructions the verbs norm, which are narrow, and on full-band
fields, and a non-finite coefficient must still show.
"""

import math

import numpy as np
import pytest

import oracles
from test_memory import operator_outputs
from sqglab import besov, bilinear, runner, spectral
from sqglab.besov import (
    _STEP,
    BesovIndex,
    DyadicPartition,
    _check_mean_zero,
    besov_norm,
    shell_profile,
)
from sqglab.bilinear import bilinear_block, quadratic_diagonal
from sqglab.diagnostics import low_frequency_profile
from sqglab.forcing import (
    ExponentMap,
    ForceSpec,
    lacunary_force,
    modulated_bump_force,
    translated_block_force,
)
from sqglab.runner import config_from_dict, run_experiment
from sqglab.sampling import random_mean_zero_field
from sqglab.solver import SolveConfig, _iterate
from sqglab.spectral import (
    FrequencyLattice,
    SpectralField,
    _occupied_columns,
    _occupied_rows,
    inverse_laplacian,
)


def box_of(c):
    w = _occupied_columns(c, c.shape[1])
    return _occupied_rows(c, w), w


@pytest.fixture(scope="module")
def desk():
    """Step1's bump and step2's lacunary forcing on step2's desk lattice
    (m = 256, h_xi = 1/4), their inverse Laplacians and second iterates, a
    full-band field, and two single modes at h_xi = 1/4: (12, 16) at radius
    5 = t0 2**2, exactly on the inner edge of shell 3, where phi_3 is
    1 - 1 = 0, and (20, 4) at radius 5.1, inside shell 3, where it is not."""
    lattice = FrequencyLattice(m=256, h_xi=0.25)
    bump = modulated_bump_force(
        lattice, ForceSpec(variant="bump", delta=0.01, size=4, carrier_exponent=2))
    lacunary = lacunary_force(lattice, ForceSpec(
        variant="lacunary", delta=0.01, size=2, block_range=(1, 2),
        exponents=ExponentMap.affine(2, 0)))
    fields = {"bump": bump, "lacunary": lacunary,
              "full band": random_mean_zero_field(lattice, np.random.default_rng(3)),
              "edge mode": SpectralField.from_modes(lattice, {(12, 16): 1.0}),
              "inside mode": SpectralField.from_modes(lattice, {(20, 4): 1.0})}
    for name in ("bump", "lacunary"):
        fields[f"{name} theta1"] = inverse_laplacian(fields[name])
        fields[f"{name} theta2"] = quadratic_diagonal(fields[f"{name} theta1"])
    return lattice, lattice.partition, fields


@pytest.fixture(scope="module")
def blocks():
    """Step3's two translated blocks (shells -2 and 0, carrier 2**2) at
    m = 256, h_xi = 1/16."""
    lattice = FrequencyLattice(m=256, h_xi=1.0 / 16.0)
    spec = ForceSpec(variant="blocks", size=2, block_range=(1, 2),
                     exponents=ExponentMap.affine(2, -4), carrier_exponent=2,
                     stride=lattice.box_length / 4.0)
    return lattice, lattice.partition, translated_block_force(lattice, spec)


def test_occupied_box_is_the_direct_search(desk, blocks):
    _, _, fields = desk
    arrays = {name: f.coeffs for name, f in fields.items()}
    arrays["blocks"] = blocks[2].coeffs
    m = 64
    rng = np.random.default_rng(0)
    arrays["zero"] = np.zeros((m, m // 2), dtype=np.complex128)
    # single coefficients anywhere, k1 < 0 rows included, and the k1 = m/2 - 1
    # rows that end the search at its first read
    for i, j in [(0, 0), (1, 0), (m - 1, 3), (m // 2 + 1, 0), (m // 2 - 1, 31), (40, 5), (7, 0)]:
        c = np.zeros((m, m // 2), dtype=np.complex128)
        c[i, j] = rng.standard_normal() + 1j
        arrays[f"single {i, j}"] = c
    for name, c in arrays.items():
        assert box_of(c) == oracles.occupied_box(c), name
    for name, f in fields.items():
        assert f.occupied == oracles.occupied_box(oracles.padded(f)), name
    assert SpectralField.zeros(blocks[0]).occupied == (0, 0)
    # columns past the width are not read
    c = arrays["single (40, 5)"]
    assert _occupied_rows(c, 5) == 0 and _occupied_rows(c, 6) == 25


class Reads(np.ndarray):
    """An array that records the index of each read made through it."""

    def __getitem__(self, key):
        self.reads.append(key)
        return np.asarray(self).__getitem__(key)


def test_occupied_rows_of_a_full_band_field_is_one_row_read(desk):
    f = desk[2]["full band"]
    m, h = f.lattice.m, f.lattice.m // 2
    c = f.coeffs.view(Reads)
    c.reads = []
    assert _occupied_rows(c, h) == h
    assert c.reads == [(Ellipsis, slice(h - 1, h), slice(None, h))]


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0, math.inf])
def test_shell_profile_is_bitwise_the_whole_route(desk, blocks, p):
    lattice, partition, fields = desk
    cases = [(name, f, partition) for name, f in fields.items()]
    cases.append(("blocks", blocks[2], blocks[1]))
    skipped = 0
    for name, f, part in cases:
        shells = range(part.j_min, part.j_max + 2)  # one shell above the window too
        got = shell_profile(f, -0.5, p, shells)
        assert got == oracles.whole_shell_profile(f, -0.5, p, shells), name
        rows, cols = f.occupied
        reach = f.lattice.radius_quadrant[rows - 1, cols - 1]
        skipped += sum(reach < _STEP.t0 * 2.0 ** (j - 1) for j in shells)
    assert skipped


def test_low_frequency_profile_is_bitwise_the_whole_route(desk):
    _, partition, fields = desk
    for name in ("bump theta2", "lacunary theta2", "full band"):
        f = fields[name]
        want = oracles.whole_shell_profile(f, -1.0, math.inf,
                                           range(partition.j_min, 0))
        assert low_frequency_profile(f) == want, name


def evaluated_rings(monkeypatch):
    """The shells whose ring is evaluated or looked up from now on."""
    seen = []
    quadrant = DyadicPartition.ring_quadrant

    def recorded(self, j):
        if j not in seen:
            seen.append(j)
        return quadrant(self, j)

    monkeypatch.setattr(DyadicPartition, "ring_quadrant", recorded)
    return seen


def test_the_skip_starts_past_the_inner_edge(desk, monkeypatch):
    # the edge mode sits on shell 3's inner edge, where phi_3 is exactly 0:
    # shell 3 is still evaluated (and reads 0), shell 4 on are not; the mode
    # inside that edge makes shell 3 non-zero
    lattice, _, fields = desk
    assert lattice.radius_quadrant[12, 16] == _STEP.t0 * 2.0**2
    for name, zero_at_3 in (("edge mode", True), ("inside mode", False)):
        cold = FrequencyLattice(m=lattice.m, h_xi=lattice.h_xi)  # no ring cached yet
        field = SpectralField._adopt(cold, fields[name].coeffs.copy())
        partition = cold.partition
        seen = evaluated_rings(monkeypatch)
        got = dict(shell_profile(field, -0.5, 4.0))
        assert seen == list(range(partition.j_min, 4)), name
        assert sorted(partition._quadrants) == list(range(partition.j_min, 4)), name
        assert all(got[j] == 0.0 for j in partition.shells if j >= 4), name
        assert (got[3] == 0.0) == zero_at_3, name
        assert got == dict(oracles.whole_shell_profile(field, -0.5, 4.0))


def test_a_full_band_field_skips_nothing(desk, monkeypatch):
    lattice, _, fields = desk
    partition = lattice.partition
    seen = evaluated_rings(monkeypatch)
    shell_profile(fields["full band"], -0.5, 4.0)
    assert seen == list(partition.shells)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["mean of zero", "mean of bump", "bump mode"])
def test_a_non_finite_coefficient_is_not_skipped(desk, bad, where):
    # a field whose only non-zero coefficient is a non-finite mean occupies
    # the box of the origin alone, so the skip would read every shell as 0;
    # the whole route multiplies it by each ring's 0 there and reads NaN
    lattice, _, fields = desk
    c = (fields["bump"].coeffs * (where != "mean of zero")).copy()
    c[(0, 0) if where.startswith("mean") else (3, 2)] = bad
    f = SpectralField._adopt(lattice, c)
    with np.errstate(invalid="ignore"):  # inf times a ring's 0
        for p in (4.0, math.inf):
            got = [v for _, v in shell_profile(f, -0.5, p)]
            want = [v for _, v in oracles.whole_shell_profile(f, -0.5, p)]
            assert np.array_equal(got, want, equal_nan=True)
        norm = besov_norm(f, BesovIndex.data_index(4.0, 2.0))
    assert not math.isfinite(norm)


def test_sup_shells_keep_a_non_finite_sample_in_any_slab(desk):
    # two modes of about 1e308 overflow the samples near the row their phase
    # puts the peak on: at row 100 shell 0's samples are infinite in the
    # first 64-row slab and NaN in the second, where max over the slabs'
    # sups by Python's max would keep the inf and drop the NaN; (4, 0) and
    # (4, 1) give infinite samples and no NaN
    lattice, _, _ = desk
    m = lattice.m
    values = []
    for modes in (((3, 1), (4, 1)), ((4, 0), (4, 1))):
        c = np.zeros((m, m // 2), dtype=np.complex128)
        for a, b in modes:
            c[a, b] = 1e308 * np.exp(-2j * np.pi * a * 100 / m)
        f = SpectralField._adopt(lattice, c)
        with np.errstate(over="ignore", invalid="ignore"):
            got = [v for _, v in shell_profile(f, -1.0, math.inf)]
            want = [v for _, v in oracles.whole_shell_profile(f, -1.0, math.inf)]
        assert np.array_equal(got, want, equal_nan=True), modes
        values += got
    assert any(math.isnan(v) for v in values) and math.inf in values


def test_a_column_bound_leaves_the_box_unchanged(desk, blocks):
    # a field stores the columns its operator may fill (SpectralField), and
    # the box searched in them is the search over the whole half
    lattice, _, fields = desk
    bump, lacunary, full = fields["bump"], fields["lacunary"], fields["full band"]
    outputs = dict(fields, blocks=blocks[2])
    outputs.update((f"m = 64 {name}", f)
                   for name, f in operator_outputs(FrequencyLattice(m=64, h_xi=0.25)).items())
    outputs.update({
        "sum": bump + lacunary, "difference": lacunary - bump, "mixed": bump + full,
        "multiple": 0.5 * fields["bump theta2"], "negation": -fields["lacunary theta1"],
        "zero plus": SpectralField.zeros(lattice) + bump,
        "block form": bilinear_block(fields["bump theta1"], fields["lacunary theta1"]),
    })
    for name, f in outputs.items():
        whole = oracles.padded(f)
        assert f.occupied == box_of(f.coeffs) == oracles.occupied_box(whole), name
    narrow = [name for name, f in outputs.items() if f.coeffs.shape[1] < lattice.m // 2]
    assert {"bump", "lacunary", "bump theta1", "bump theta2", "blocks", "sum", "multiple",
            "block form"} <= set(narrow)
    # 0 times a non-finite scalar is NaN in every column: all are stored
    with np.errstate(invalid="ignore"):
        for scalar in (math.nan, math.inf):
            f = scalar * bump
            assert f.coeffs.shape == (lattice.m, lattice.m // 2)
            assert f.occupied == box_of(f.coeffs) == (lattice.m // 2, lattice.m // 2)


def test_a_loop_whose_iterate_goes_non_finite_in_its_mean_ends_diverged(desk):
    lattice, _, fields = desk
    f = fields["bump theta1"]

    def step(theta, carried):
        c = (0.5 * theta.coeffs).copy()
        if len(steps) == 1:
            c[0, 0] = math.nan
        steps.append(theta)
        return SpectralField._adopt(lattice, c)

    for every_iteration in (True, False):
        steps = []
        _, trace = _iterate(f, step, lambda theta: None, lambda theta, quad: 0.0,
                            SolveConfig(), every_iteration=every_iteration)
        assert trace.verdict == "diverged"


def test_inverse_laplacian_is_bitwise_the_whole_route(desk, blocks):
    _, _, fields = desk
    cases = {name: f for name, f in fields.items() if "theta" not in name}
    cases["blocks"] = blocks[2]
    cases["zero"] = SpectralField.zeros(blocks[0])
    for name, f in cases.items():
        got = oracles.padded(inverse_laplacian(f))
        assert got.tobytes() == oracles.whole_inverse_laplacian(f).tobytes(), name


def test_mean_zero_check_reads_the_whole_scale(desk, blocks):
    # a mean at 1e-12 of the scale passes and the next float above it is
    # refused: the scale read off the occupied columns is bitwise the one
    # read off every stored coefficient
    _, _, fields = desk
    cases = {name: f for name, f in fields.items() if "mode" not in name}
    cases["blocks"] = blocks[2]
    for name, f in cases.items():
        c = f.coeffs.copy()
        c[0, 0] = 0.0
        scale = oracles.whole_scale(SpectralField._adopt(f.lattice, c.copy()))
        for mean, refused in ((1e-12 * scale, False), (np.nextafter(1e-12 * scale, 1.0), True)):
            c[0, 0] = mean
            g = SpectralField._adopt(f.lattice, c.copy())
            assert oracles.whole_scale(g) == scale
            if refused:
                with pytest.raises(ValueError, match="mean-zero"):
                    _check_mean_zero(g)
            else:
                _check_mean_zero(g)


def test_forms_store_the_columns_of_their_band(desk):
    # the product reaches wo columns (bilinear._flux_band), and the form
    # stores exactly those: the columns past them are zero in exact
    # arithmetic and left implicit
    lattice, _, fields = desk
    h = lattice.m // 2
    for name in ("bump theta1", "lacunary theta1", "full band"):
        f = fields[name]
        for g in (None, fields["bump theta1"]):
            wf = f.occupied[1]
            wg = wf if g is None else g.occupied[1]
            wo, _ = bilinear._flux_band(wf, wg, h)
            out = bilinear._transport(f, g).coeffs
            assert out.shape == (lattice.m, wo), name
            form = quadratic_diagonal(f) if g is None else bilinear_block(f, g)
            assert form.coeffs.tobytes() == out.tobytes(), name


@pytest.mark.parametrize("operator", ["quadratic_diagonal", "bilinear_block"])
def test_a_narrow_form_that_overflows_is_refused_by_name(desk, operator):
    _, _, fields = desk
    f = 1e200 * fields["bump theta1"]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=operator):
            quadratic_diagonal(f) if operator == "quadratic_diagonal" else bilinear_block(f, f)


STEP2_DESK = {"experiment": "illpose-step2", "m": 256, "h_xi": 0.25, "size_range": [1, 2]}


def step2_homogeneity(monkeypatch, off_box):
    """The reported homogeneity value of step2's desk run and the value
    read over every column of its two second iterates.  With ``off_box``
    the delta/2 iterate gains a mode two columns past the other's box."""
    iterates = []
    second = runner._second_iterate

    def recorded(theta1, delta):
        theta = second(theta1, delta)
        if off_box and iterates:
            w = iterates[0].occupied[1]
            amplitude = 1e-3 * np.abs(theta.coeffs).max()
            theta = theta + SpectralField.cosine(theta.lattice, (1, w + 2), amplitude)
        iterates.append(theta)
        return theta

    monkeypatch.setattr(runner, "_second_iterate", recorded)
    report = run_experiment(config_from_dict(STEP2_DESK), write=False).to_jsonable()
    theta2, theta2_half = iterates
    assert max(theta2.occupied[1], theta2_half.occupied[1]) < 128  # columns were skipped
    verdict, = (v for v in report["verdicts"] if v["name"] == "quadratic-homogeneity")
    return verdict["observed"], oracles.whole_homogeneity(theta2, theta2_half)


def test_step2_homogeneity_defect_is_bitwise_the_whole_route(monkeypatch):
    # the defect and the scale read the iterates' occupied columns; the
    # reported value is the one read over every column
    got, want = step2_homogeneity(monkeypatch, off_box=False)
    assert got == f"{want:.3e}" and want == 0.0


def test_step2_homogeneity_defect_reads_both_iterates_boxes(monkeypatch):
    # a mode past the full-delta iterate's box is read: the verdict then
    # fails on the value read over every column
    got, want = step2_homogeneity(monkeypatch, off_box=True)
    assert got == f"{want:.3e}" and want > 0.0


def test_step2_scans_no_array_twice(monkeypatch):
    # each field's occupied box is read once, however many passes read it;
    # the scanned arrays are kept, so that no id is reused within the run
    scans, scanned = {}, []

    def counted(name, helper):
        def scan(c, width):
            scanned.append(c)
            scans[name, id(c)] = scans.get((name, id(c)), 0) + 1
            return helper(c, width)
        return scan

    helpers = {name: getattr(spectral, name) for name in ("_occupied_columns", "_occupied_rows")}
    for module in (spectral, besov, bilinear, runner):
        for name, helper in helpers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, helper))
    run_experiment(config_from_dict(STEP2_DESK), write=False)
    assert len(scans) >= 8  # f, the delta/2 forcing and their iterates
    assert max(scans.values()) == 1, {key: n for key, n in scans.items() if n > 1}
