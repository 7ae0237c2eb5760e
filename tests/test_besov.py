"""Dyadic rings, Besov norms and probes."""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.fft

from oracles import (
    coordinates,
    full,
    hermitian_defect,
    padded,
    physical,
    physical_real,
    probe_symbol_closed_form,
    probe_symbol_from_rings,
    ring_box,
    smooth_step,
    whole_box_ring_quadrant,
)
from sqglab import besov
from sqglab.besov import (
    _STEP,
    BesovIndex,
    DyadicPartition,
    _absolute_sum,
    _norm_bounds,
    _quadrature_fits,
    _shell_grid,
    besov_norm,
    lp_norm,
    lq_aggregate,
    probe_box,
    shell_profile,
    shell_project,
)
from sqglab.forcing import ExponentMap, ForceSpec, lacunary_force, modulated_bump_force
from sqglab.sampling import random_mean_zero_field, single_shell_field
from sqglab.spectral import FrequencyLattice, SpectralField, strip_unpaired_edge


def test_indices():
    idx = BesovIndex.data_index(8.0, 2.0)
    assert idx.s == pytest.approx(2.0 / 8.0 - 3.0)
    idx = BesovIndex.solution_index(4.0, 2.0)
    assert idx.s == pytest.approx(-0.5)


def reference_shell_profile(field, s, p):
    """One full complex inverse transform per shell, then the L^p sum."""
    partition = field.lattice.partition
    out = []
    area = field.lattice.dx ** 2
    for j in partition.shells:
        proj = field.coeffs * partition.ring_values(j)
        if not proj.any():
            out.append((j, 0.0))
            continue
        samples = physical(SpectralField._adopt(field.lattice, proj))
        out.append((j, 2.0 ** (s * j) * lp_norm(samples, p, area)))
    return out


def complex_mean_zero_field(lattice, rng):
    m = lattice.m
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    c[0, 0] = 0.0
    return SpectralField(lattice, strip_unpaired_edge(c / (1.0 + coordinates(lattice).radius) ** 2))


@pytest.fixture(scope="module")
def lattice256():
    return FrequencyLattice(m=256, h_xi=0.125)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0, 8.0, math.inf])
@pytest.mark.parametrize("hermitian", [True, False])
def test_shell_profile_matches_complex_transform_loop(lattice256, p, hermitian):
    # even p sums low shells on band-sized grids; p = 3 and inf stay on m x m.
    # A field that is not real cannot reach the profile or the norm: its
    # construction is refused
    rng = np.random.default_rng(27)
    s = -0.5
    if not hermitian:
        with pytest.raises(ValueError, match="SpectralField takes real fields"):
            complex_mean_zero_field(lattice256, rng)
        return
    f = random_mean_zero_field(lattice256, rng)
    got = shell_profile(f, s, p)
    want = reference_shell_profile(f, s, p)
    assert [j for j, _ in got] == [j for j, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert b > 0.0
        assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))
    for q in (2.0, math.inf):
        vals = [v for _, v in want]
        ref = max(vals) if math.isinf(q) else math.fsum(v**q for v in vals) ** (1.0 / q)
        norm = besov_norm(f, BesovIndex(s, p, q))
        assert norm == pytest.approx(ref, rel=1e-13)


def irfft2_profile(f, s, p, narrow=True):
    """Each shell's whole k2 >= 0 half through the two-axis ``irfft2``, on
    ``M_j`` rows of ``G_j`` points: ``M_j`` sized by the ring's extent K_j
    and, with ``narrow``, ``G_j`` by the largest k2 at which the field's
    shell box holds a coefficient (read off the coefficients here), else
    ``G_j = M_j``, the square grid every shell was once summed on."""
    m, c, partition = f.lattice.m, padded(f), f.lattice.partition
    out = []
    for j in partition.shells:
        extent = partition.ring_extent(j)
        rows = _shell_grid(extent, p, m)
        held = np.flatnonzero(c[:, : extent + 1].any(axis=0))
        cols = _shell_grid(int(held.max(initial=-1)), p, m) if narrow else rows
        half = ring_box(c, partition.ring_quadrant(j), rows, cols)
        samples = scipy.fft.irfft2(half, s=(rows, cols), norm="forward")
        weight = (f.lattice.box_length / rows) * (f.lattice.box_length / cols)
        out.append((j, 2.0 ** (s * j) * lp_norm(samples, p, weight)))
    return out


@pytest.mark.parametrize("p", [3.0, 4.0, math.inf])
def test_shell_profile_is_bitwise_the_irfft2_route(lattice256, p):
    # the staged synthesis transforms only each shell's K_j + 1 live
    # columns; the two-axis route over the whole half is the oracle.  A
    # full-band field occupies every column, so each shell is summed on
    # the square grid: bitwise the route that always summed there
    f = random_mean_zero_field(lattice256, np.random.default_rng(5))
    m = lattice256.m
    extents = [lattice256.partition.ring_extent(j) for j in lattice256.partition.shells]
    if p == 4.0:
        assert any(2 * k + 2 < _shell_grid(k, p, m) for k in extents)
    got = shell_profile(f, -0.5, p)
    assert got == irfft2_profile(f, -0.5, p, narrow=False)
    assert got == irfft2_profile(f, -0.5, p)


def narrow_field(lattice, columns, edge, seed):
    """Hermitian field on the k2 = +-k columns listed.  With ``edge`` the
    array also fills the unpaired k2 = -m/2 column, which a shell reaching
    |k| = m/2 would read; a field has no slot for it, so construction
    refuses that array, and the field is built with the column stripped."""
    m = lattice.m
    f = random_mean_zero_field(lattice, np.random.default_rng(seed))
    c = np.where(np.isin(np.abs(lattice.k2), columns), full(f), 0.0)
    if edge:
        v = np.random.default_rng(seed + 1).standard_normal(m)
        c[:, m // 2] = v + v[-np.arange(m)]  # real and even in k1: Hermitian
        with pytest.raises(ValueError, match="unpaired"):
            SpectralField(lattice, c)
        strip_unpaired_edge(c)
    return SpectralField(lattice, c)


@pytest.mark.parametrize("p", [4.0, math.inf])
@pytest.mark.parametrize(
    "columns, edge",
    [([0, 1, 2], False), ([0, 1, 2], True), ([], True), ([], False), ([127], False),
     ([5], True)],
)
def test_shell_profile_over_occupied_columns_is_bitwise(
    lattice256, p, columns, edge
):
    # each shell is summed on rows as long as its occupied k2 band needs at
    # even p (bitwise the irfft2 route on that grid), and on the square
    # m x m grid at p = inf, bitwise the route that always summed there
    f = narrow_field(lattice256, columns, edge, seed=len(columns) + 10 * edge)
    assert hermitian_defect(f) == 0.0
    top = lattice256.partition.j_max
    assert lattice256.partition.ring_extent(top) == lattice256.m // 2
    got = shell_profile(f, -0.5, p)
    assert got == irfft2_profile(f, -0.5, p)
    if math.isinf(p):
        assert got == irfft2_profile(f, -0.5, p, narrow=False)
    # the stripped edge column leaves nothing for the profile to see
    if not columns:
        assert all(v == 0.0 for _, v in got)


def narrow_fields(lattice):
    """Fields that occupy a few k2 columns, by name: modulated bumps, step2's
    lacunary forcing, a few columns of a white field, and two columns of a
    single shell that reaches the lattice's edge."""
    partition = lattice.partition
    fields = {}
    for size, carrier in ((4, 2), (5, 3)):
        spec = ForceSpec(variant="bump", delta=0.01, size=size, carrier_exponent=carrier)
        fields[f"bump {size}"] = modulated_bump_force(lattice, spec)
    # step2's forcing at its default exponent map, terms n = 1 .. 2
    spec = ForceSpec(variant="lacunary", delta=0.01, size=2, block_range=(1, 2),
                     exponents=ExponentMap.affine(2, 0))
    fields["lacunary"] = lacunary_force(lattice, spec)
    for columns in ([0], [1], [3], [0, 1, 2]):
        fields[f"columns {columns}"] = narrow_field(lattice, columns, False, seed=7)
    # the highest shell that meets the k2 = 0 and 1 columns, whose box
    # reaches the lattice's edge (at the cap for every p >= 2), cut to them
    j = partition.j_max - 1
    assert partition.ring_extent(j) == lattice.m // 2
    top = single_shell_field(lattice, j, np.random.default_rng(2))
    fields["edge shell, 2 columns"] = SpectralField(
        lattice, np.where(np.abs(lattice.k2) <= 1, full(top), 0.0))
    return fields


@pytest.fixture(scope="module")
def desk256():
    """The lattice of step2's desk runs (m = 256, h_xi = 1/4) and
    :func:`narrow_fields` on it."""
    lattice = FrequencyLattice(m=256, h_xi=0.25)
    return lattice, narrow_fields(lattice)


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
def test_narrow_shells_match_the_square_grid(desk256, p):
    # a field a few columns wide is summed on rows of a few dozen points;
    # along k2 nothing folds on either grid, so each shell is the square
    # grid's sum up to rounding, at the m cap too (where both grids share
    # the m rows whose folding ROADMAP item 13 describes)
    lattice, fields = desk256
    m = lattice.m
    for name, f in fields.items():
        got = shell_profile(f, -0.5, p)
        want = irfft2_profile(f, -0.5, p, narrow=False)
        assert [j for j, _ in got] == [j for j, _ in want], name
        live = 0
        for (j, a), (_, b) in zip(got, want):
            assert abs(a - b) <= 1e-14 * b, (name, j, a, b)
            live += b > 0.0
        assert live, name
        occupied = int(np.flatnonzero(f.coeffs.any(axis=0)).max()) + 1
        assert _shell_grid(occupied - 1, p, m) < m, name  # summed on short rows
    # the wide bump reaches the cap at p = 8 and still agrees above
    capped = [j for j, v in shell_profile(fields["bump 5"], 0.0, 8.0)
              if v > 0.0 and _shell_grid(lattice.partition.ring_extent(j), 8.0, m) == m]
    assert capped


def test_narrow_shells_are_summed_on_short_rows(desk256, monkeypatch):
    # the grids the profile transforms on: M_j x G_j for even p, m x m for
    # any other p, read off the transforms themselves (the whole-shell
    # synthesis, and at p = inf the slabs of the sup norm)
    lattice, fields = desk256
    f, m = fields["bump 4"], lattice.m
    synthesis, slabs, shapes = besov._half_synthesis, besov._slab_samples, []

    def recorded(half, live, length=None):
        shapes.append((half.shape[0], half.shape[0] if length is None else length))
        return synthesis(half, live, length)

    def recorded_slabs(cols, length):
        shapes.append((cols.shape[0], length))
        return slabs(cols, length)

    monkeypatch.setattr(besov, "_half_synthesis", recorded)
    monkeypatch.setattr(besov, "_slab_samples", recorded_slabs)
    for p, square in ((4.0, False), (3.0, True), (math.inf, True)):
        shapes.clear()
        shell_profile(f, -0.5, p)
        assert shapes
        if square:
            assert shapes == [(m, m)] * len(shapes)
        else:
            assert all(cols < rows for rows, cols in shapes), shapes


def test_shell_grids_are_band_sized(lattice256):
    extents = [lattice256.partition.ring_extent(j) for j in lattice256.partition.shells]
    grids = [_shell_grid(k, 4.0, lattice256.m) for k in extents]
    assert grids == [8, 16, 32, 64, 128, 256, 256, 256, 256]
    assert [_shell_grid(k, 3.0, lattice256.m) for k in extents] == [256] * 9
    assert [_shell_grid(k, math.inf, lattice256.m) for k in extents] == [256] * 9
    # the band is read off the ring: nothing outside |k| <= K, something on it
    k1, k2 = lattice256.k1[:, :128], lattice256.k2[:, :128]
    for j, extent in zip(lattice256.partition.shells, extents):
        ring = lattice256.partition.ring_values(j)
        reach = np.maximum(np.abs(k1), np.abs(k2))
        assert not ring[reach > extent].any()
        assert ring[reach == extent].any()


@pytest.mark.parametrize(
    "m, h_xi", [(32, 0.25), (64, 1.0), (128, 0.125), (256, 0.125), (1024, 0.25)])
def test_ring_quadrants_unfold_to_the_closed_form_bitwise(m, h_xi):
    lattice = FrequencyLattice(m=m, h_xi=h_xi)
    partition = lattice.partition
    r = coordinates(lattice).radius
    # |k| per axis in FFT order, the unpaired -m/2 slot read as m/2
    reach = np.maximum(np.abs(lattice.k1), np.abs(lattice.k2))
    extents = []
    for j in partition.shells:
        # the step as first written, both exponentials over the whole radius
        want = smooth_step(_STEP, r * 2.0 ** (-j)) - smooth_step(_STEP, r * 2.0 ** (1 - j))
        ring = partition.ring_values(j)
        assert ring.shape == (m, m // 2)
        assert np.array_equal(ring, want[:, : m // 2])
        extent = partition.ring_extent(j)
        assert extent == int(reach[want != 0.0].max(initial=0))
        assert partition.ring_quadrant(j).shape == (extent + 1, extent + 1)
        extents.append(extent)
    # the top shells reach the -m/2 edge
    assert extents[-1] == m // 2


@pytest.mark.parametrize("m, h_xi", [(64, 1.0), (256, 0.125), (1024, 0.25), (2048, 0.125)])
def test_ring_quadrants_are_bitwise_the_whole_box_evaluation(m, h_xi):
    # both steps run 64 rows at a time: the top shells' boxes span up to 17
    # slabs, and the inner step's box ends inside one of them
    lattice = FrequencyLattice(m=m, h_xi=h_xi)
    partition = lattice.partition
    for j in partition.shells:
        got, want = partition.ring_quadrant(j), whole_box_ring_quadrant(partition, j)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), j


def test_a_lattice_holds_one_partition_and_frees_it_with_itself():
    # the rings of a field are its lattice's, built once; the partition
    # refers back weakly, so no cycle keeps either alive once the lattice's
    # last reference goes, without the garbage collector's help
    enabled = gc.isenabled()
    gc.disable()
    try:
        lattice = FrequencyLattice(m=64, h_xi=0.25)
        field = random_mean_zero_field(lattice, np.random.default_rng(7))
        besov_norm(field, BesovIndex(-0.5, 4.0, 2.0))  # caches the rings
        partition = lattice.partition
        assert partition._quadrants and partition is lattice.partition
        assert partition.lattice is lattice
        freed = weakref.ref(partition)
        del field, lattice
        assert freed() is not None  # held here
        with pytest.raises(ReferenceError, match="lattice was freed"):
            partition.coverage()
        del partition
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_a_field_is_normed_with_its_own_lattices_rings():
    # equal lattices are distinct objects with one partition each; a field's
    # norm reads its own, and lattices still compare and hash by (m, h_xi)
    a, b = FrequencyLattice(m=128, h_xi=0.25), FrequencyLattice(m=128, h_xi=0.25)
    assert a == b and hash(a) == hash(b) and a.partition is not b.partition
    assert a != FrequencyLattice(m=128, h_xi=0.125)
    field = random_mean_zero_field(a, np.random.default_rng(8))
    index = BesovIndex(0.5, 4.0, 2.0)
    twin = SpectralField._adopt(b, field.coeffs.copy())
    assert besov_norm(field, index) == besov_norm(twin, index)


def test_partition_holds_no_full_lattice_ring(lattice128):
    partition = lattice128.partition
    f = random_mean_zero_field(lattice128, np.random.default_rng(31))
    besov_norm(f, BesovIndex(s=-0.5, p=4.0, q=2.0))
    besov_norm(f, BesovIndex(s=-0.5, p=math.inf, q=2.0))
    for j in partition.shells:
        shell_project(f, j)
        partition.ring_values(j)

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, dict):
            for value in obj.values():
                yield from arrays(value)
        elif isinstance(obj, (tuple, list)):
            for value in obj:
                yield from arrays(value)

    # the lattice's own coordinate arrays are not the partition's storage
    held = [a for key, value in vars(partition).items() if key != "lattice"
            for a in arrays(value)]
    m = lattice128.m
    assert held and all(a.size < m * m for a in held)
    budget = sum((partition.ring_extent(j) + 1) ** 2 for j in partition.shells)
    assert sum(a.size for a in held) <= budget


def test_ring_arrays_are_read_only(lattice32):
    ring = lattice32.partition.ring_values(1)
    assert not ring.flags.writeable
    with pytest.raises(ValueError):
        ring[0, 1] = 2.0
    assert not lattice32.partition.ring_quadrant(1).flags.writeable
    # each call unfolds afresh; the values do not change
    assert lattice32.partition.ring_values(1) is not ring
    assert np.array_equal(lattice32.partition.ring_values(1), ring)


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_lp_norm_even_powers_match_float_pow(p):
    rng = np.random.default_rng(30)
    x = rng.standard_normal((64, 64)) * 3.0
    assert (x < 0).any()
    want = float((0.5 * np.sum(np.abs(x) ** float(p))) ** (1.0 / p))
    assert lp_norm(x, float(p), 0.5) == pytest.approx(want, rel=1e-14)


def test_coverage_is_the_telescoped_closed_form(lattice128):
    cov = lattice128.partition.coverage()
    assert not cov.flags.writeable
    assert cov.shape == (65, 65)
    j_min, j_max = lattice128.partition.j_min, lattice128.partition.j_max
    # on the radius quadrant, mode (k1, k2) reading [|k1|, |k2|] is the
    # closed form on the whole lattice, bit for bit
    r = coordinates(lattice128).radius
    whole = _STEP(r * 2.0 ** (-j_max)) - _STEP(r * 2.0 ** (1 - j_min))
    assert np.array_equal(cov[np.abs(lattice128.k1), np.abs(lattice128.k2)], whole)
    # the window is the one ring system: every ring that meets a non-zero
    # lattice radius, and no other
    total = np.zeros_like(cov)
    for j in lattice128.partition.shells:
        quadrant = lattice128.partition.ring_quadrant(j)
        total[: quadrant.shape[0], : quadrant.shape[1]] += quadrant
    assert np.max(np.abs(total - cov)) <= 1e-15
    for j in (j_min - 1, j_max + 1):
        lo, hi = lattice128.partition.support_interval(j)
        assert not ((r > lo) & (r < hi) & (r > 0)).any()


@pytest.mark.parametrize("m", [32, 128, 256])
def test_auto_window_leaves_no_mode_outside(m):
    # the window covers every nonzero mode: the telescoped sum is 1 except
    # at the origin, entry [0, 0] of the radius quadrant, and the
    # two-radius judgement agrees
    lattice = FrequencyLattice(m=m, h_xi=0.25)
    partition = lattice.partition
    cov = partition.coverage()
    assert np.array_equal(np.argwhere(cov < 1.0 - 1e-9), [[0, 0]])
    assert partition._covers_lattice()


def test_auto_window_is_judged_without_the_telescoped_sum(monkeypatch):
    # a lattice's partition checks that its window covers every nonzero mode
    # from two radii, not from an m x m sum, and the two agree
    for m in (8, 32, 256, 1024):
        for h_xi in (1.0 / 256.0, 0.1, 0.125, 0.25, 0.3, 1.0):
            lattice = FrequencyLattice(m=m, h_xi=h_xi)
            with monkeypatch.context() as patch:
                def refuse(self):
                    raise AssertionError("the telescoped sum was evaluated")

                patch.setattr(DyadicPartition, "coverage", refuse)
                partition = lattice.partition
            if m <= 256:
                cov = partition.coverage()
                assert np.array_equal(np.argwhere(cov < 1.0), [[0, 0]])
    monkeypatch.setattr(DyadicPartition, "_covers_lattice", lambda self: False)
    with pytest.raises(ValueError, match="does not cover every non-zero mode"):
        FrequencyLattice(m=32, h_xi=0.25).partition
    # the class checks its own window, so no partition is built around the check
    with pytest.raises(ValueError, match=r"the shell window \[-2, 3\] does not cover "
                       r"every non-zero mode of FrequencyLattice\(m=32, h_xi=0.25\)"):
        DyadicPartition(FrequencyLattice(m=32, h_xi=0.25))


def test_partition_of_unity(lattice128):
    cov = lattice128.partition.coverage()
    r = lattice128.radius_quadrant
    assert np.max(np.abs(cov[r > 0] - 1.0)) <= 1e-12


def test_ring_support_is_exact(lattice128):
    r = coordinates(lattice128).radius[:, :64]
    for j in lattice128.partition.shells:
        lo, hi = lattice128.partition.support_interval(j)
        ring = lattice128.partition.ring_values(j)
        outside = (r <= lo) | (r >= hi)
        assert np.max(np.abs(ring[outside])) == 0.0


def test_ring_plateau_is_one(lattice128):
    r = coordinates(lattice128).radius[:, :64]
    for j in lattice128.partition.shells:
        lo, hi = lattice128.partition.plateau_interval(j)
        sel = (r >= lo) & (r <= hi)
        if sel.any():
            assert np.max(np.abs(lattice128.partition.ring_values(j)[sel] - 1.0)) <= 1e-12


def test_shell_reconstruction(lattice128):
    rng = np.random.default_rng(21)
    f = random_mean_zero_field(lattice128, rng)
    # band-limit to half the Nyquist radius so every active mode is covered
    band = np.where(coordinates(lattice128).radius < lattice128.xi_max / 2, full(f), 0.0)
    f = SpectralField(lattice128, band)
    total = SpectralField.zeros(lattice128)
    for j in lattice128.partition.shells:
        total = total + shell_project(f, j)
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(total.coeffs - f.coeffs)) <= 1e-12 * scale


def test_shell_project_rejects_outside_window(lattice32):
    f = SpectralField.zeros(lattice32)
    with pytest.raises(ValueError, match="outside the partition window"):
        shell_project(f, lattice32.partition.j_max + 1)


def test_lp_norm_of_cosine(lattice32):
    # ||cos||_4^4 over the box is 3/8 of the area
    f = SpectralField.cosine(lattice32, (4, 0))
    area = lattice32.box_length ** 2
    want = (0.375 * area) ** 0.25
    got = lp_norm(physical_real(f), 4.0, lattice32.dx ** 2)
    assert got == pytest.approx(want, rel=1e-12)
    assert lp_norm(physical_real(f), math.inf, 1.0) == pytest.approx(1.0)


def test_besov_norm_single_shell_closed_form(lattice128):
    # a field whose spectrum sits inside one plateau sees exactly one ring
    # at value 1, so the norm is 2**(s j) times its own L^p norm
    j = 2
    lo, hi = lattice128.partition.plateau_interval(j)
    rng = np.random.default_rng(22)
    base = random_mean_zero_field(lattice128, rng)
    r = coordinates(lattice128).radius
    f = SpectralField(lattice128, np.where((r >= lo) & (r <= hi), full(base), 0.0))
    assert f.coeffs.any()
    for p, q in ((4.0, 2.0), (8.0, 2.0), (math.inf, math.inf)):
        idx = BesovIndex.data_index(p, q)
        want = 2.0 ** (idx.s * j) * lp_norm(
            physical(f), p, lattice128.dx ** 2
        )
        assert besov_norm(f, idx) == pytest.approx(want, rel=1e-12)


def test_besov_norm_monotone_in_q(lattice128):
    rng = np.random.default_rng(23)
    f = random_mean_zero_field(lattice128, rng, decay=2.0)
    band = np.where(coordinates(lattice128).radius < lattice128.xi_max / 2, full(f), 0.0)
    f = SpectralField(lattice128, band)
    idx = lambda q: BesovIndex(s=-0.5, p=4.0, q=q)
    n1 = besov_norm(f, idx(1.0))
    n2 = besov_norm(f, idx(2.0))
    ninf = besov_norm(f, idx(math.inf))
    assert n1 >= n2 >= ninf > 0


def test_lq_aggregate_overflows_to_inf(lattice32):
    # float ** and math.fsum raise OverflowError where numpy reads inf; the
    # aggregate reads inf, as the norm does where its shell quadrature
    # overflows, and finite values keep their bits
    assert lq_aggregate([1e160, 1.0], 2.0) == math.inf
    assert lq_aggregate([1e308, 1e308], 1.0) == math.inf  # fsum's own overflow
    values = [0.3, 1e-5, 2.5e80]
    for q in (1.0, 2.0, 3.5):
        assert lq_aggregate(values, q) == math.fsum(sorted(v**q for v in values)) ** (1.0 / q)
    f = 1e160 * random_mean_zero_field(lattice32, np.random.default_rng(3))
    for p in (math.inf, 4.0, 2.0):
        with np.errstate(over="ignore"):
            assert besov_norm(f, BesovIndex(0.0, p, 2.0)) == math.inf, p


def test_besov_norm_requires_mean_zero(lattice32):
    f = SpectralField.from_modes(lattice32, {(0, 0): 0.5})
    with pytest.raises(ValueError, match="mean-zero"):
        besov_norm(f, BesovIndex(s=-0.5, p=4.0, q=2.0))


def test_shell_profile_reports_zero_shells(lattice128):
    rng = np.random.default_rng(25)
    f = single_shell_field(lattice128, 1, rng)
    prof = dict(shell_profile(f, -0.5, 4.0))
    live = {j for j, v in prof.items() if v > 0}
    # ring overlap: a single-ring field can spill into both neighbors
    assert live <= {0, 1, 2}
    assert 1 in live


# -- probes --------------------------------------------------------------


def test_probe_reproducing_property(lattice128):
    rows, cols, vals = probe_box(lattice128, 2, 3)
    ring = lattice128.partition.ring_values(2)[np.ix_(rows, cols)]
    # psi_j = phi_j * psi_j: the ring equals 1 on the probe's support
    sel = vals > 0
    assert np.max(np.abs(ring[sel] - 1.0)) <= 1e-12


@pytest.mark.parametrize("j, gap", [(1, 3), (2, 3), (3, 4)])
def test_probe_box_matches_both_definitions(lattice128, j, gap):
    # the shipped box, laid on the whole lattice, is the closed form there
    # (zero off the box) and the literal ring construction to rounding
    rows, cols, vals = probe_box(lattice128, j, gap)
    on_lattice = np.zeros((lattice128.m, lattice128.m))
    on_lattice[np.ix_(rows, cols)] = vals
    closed = probe_symbol_closed_form(lattice128.m, lattice128.h_xi, j, gap)
    assert closed.any()
    assert np.array_equal(on_lattice, closed)
    xi = lattice128.h_xi * np.fft.fftfreq(lattice128.m, 1.0 / lattice128.m)
    rings = probe_symbol_from_rings(j, gap, xi[:, None], xi[None, :])
    assert np.max(np.abs(on_lattice - rings)) <= 1e-12


def test_probe_rejects_empty_support():
    coarse = FrequencyLattice(m=32, h_xi=1.0)
    assert not probe_symbol_closed_form(32, 1.0, -3, 3).any()
    with pytest.raises(ValueError, match="empty support"):
        probe_box(coarse, -3, 3)


def test_probe_rejects_small_gap(lattice128):
    with pytest.raises(ValueError, match="probe gap 2 < 3"):
        probe_box(lattice128, 2, 2)


# ---------------------------------------------------------------------------
# Certified bounds without a transform
# ---------------------------------------------------------------------------

BOUND_INDICES = [
    BesovIndex(-0.5, 4.0, 2.0),
    BesovIndex(-2.5, 4.0, 2.0),
    BesovIndex(0.0, 2.0, 2.0),
    BesovIndex(-0.5, 8.0, 4.0),
    BesovIndex(0.0, math.inf, math.inf),
]


def bound_fields(lattice):
    """Fields of every shape the bounds must enclose, by name."""
    partition = lattice.partition
    rng = np.random.default_rng(31)
    fields = {
        "full band": random_mean_zero_field(lattice, rng),
        "decaying": random_mean_zero_field(lattice, rng, decay=1.5),
        "bottom shell": single_shell_field(lattice, partition.j_min, rng),
        "top shell": single_shell_field(lattice, partition.j_max, rng),
    }
    for size, carrier in ((4, 2), (5, 3)):
        spec = ForceSpec(variant="bump", delta=0.01, size=size, carrier_exponent=carrier)
        fields[f"bump {size}"] = modulated_bump_force(lattice, spec)
    # step2's lacunary forcing, its map shifted down one octave so that
    # two terms (carriers 2**1 and 2**3) fit this lattice
    spec = ForceSpec(variant="lacunary", delta=0.01, size=2, block_range=(1, 2),
                     exponents=ExponentMap.affine(2, -1))
    fields["lacunary"] = lacunary_force(lattice, spec)
    return fields


def test_the_capped_bump_is_summed_on_an_aliasing_grid(lattice128):
    # the carrier 2**3 sits 32 lattice steps out on this lattice, so the
    # bump's top shells reach p K >= m at p = 8 and are summed on the m grid
    # itself, where harmonics of |g|**8 fold onto the zero mode (ROADMAP
    # item 13): the bounds must hold for that discrete quadrature too
    bump = bound_fields(lattice128)["bump 5"]
    live = [j for j, v in shell_profile(bump, 0.0, 8.0) if v > 0.0]
    capped = [j for j in live if 8 * lattice128.partition.ring_extent(j) >= lattice128.m]
    assert capped and all(_shell_grid(lattice128.partition.ring_extent(j), 8.0, 128) == 128
                          for j in capped)


@pytest.mark.parametrize("index", BOUND_INDICES, ids=str)
def test_norm_bounds_enclose_the_norm(lattice128, index):
    for name, field in bound_fields(lattice128).items():
        lower, upper = _norm_bounds(field, index)
        norm = besov_norm(field, index)
        assert 0.0 < lower <= norm <= upper < math.inf, name
        if index.p == 2.0:  # Parseval: both bounds are the norm itself
            assert upper <= norm * (1.0 + 1e-5) and lower >= norm * (1.0 - 1e-5), name


def test_norm_bounds_need_p_at_least_two(lattice32):
    field = random_mean_zero_field(lattice32, np.random.default_rng(3))
    assert _norm_bounds(field, BesovIndex(0.0, 1.5, 2.0)) == (0.0, math.inf)


def test_norm_bounds_refuse_a_mean_as_the_norm_does(lattice32):
    f = SpectralField.from_modes(lattice32, {(0, 0): 0.5, (1, 2): 1.0})
    index = BesovIndex(-0.5, 4.0, 2.0)
    with pytest.raises(ValueError, match="mean-zero") as refused:
        _norm_bounds(f, index)
    with pytest.raises(ValueError, match="mean-zero") as reference:
        besov_norm(f, index)
    assert str(refused.value) == str(reference.value)


def test_norm_bounds_hold_at_the_ends_of_the_float_range(lattice32):
    # every sample is at most the coefficients' absolute sum; past 2**(960/p)
    # no bound is claimed, so a skipped norm cannot hide an overflow
    index = BesovIndex(-0.5, 4.0, 2.0)
    field = random_mean_zero_field(lattice32, np.random.default_rng(5))
    assert _quadrature_fits(_absolute_sum(field), index, lattice32)
    huge = 1e80 * field
    assert not _quadrature_fits(_absolute_sum(huge), index, lattice32)
    assert _norm_bounds(huge, index) == (0.0, math.inf)
    # where the p-th powers or the squares underflow, the quadrature reads
    # less than the integral, down to 0; the bounds still enclose it
    for scale in (1e-100, 1e-200):
        tiny = scale * field
        lower, upper = _norm_bounds(tiny, index)
        assert lower == 0.0 <= besov_norm(tiny, index) <= upper < math.inf
