"""Forcing families: envelopes, modulation, lacunary sums, stride calibration."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (
    coordinates,
    hermitian_defect,
    padded,
    physical,
    physical_coordinates,
    physical_real,
)
from sqglab import forcing
from sqglab.besov import box_lp_norm, lp_norm
from sqglab.forcing import (
    ExponentMap,
    ForceSpec,
    calibrate_stride,
    envelope_l4_norm,
    lacunary_force,
    modulated_bump_force,
    shared_annulus_modes,
    translated_block_force,
)
from sqglab.profiles import SmoothStep
from sqglab.spectral import FrequencyLattice


def test_exponent_maps():
    aff = ExponentMap.affine(2, -4)
    assert [aff(n) for n in (1, 2, 3)] == [-2, 0, 2]
    assert aff.describe() == {"kind": "affine", "scale": 2, "shift": -4}
    assert ExponentMap.affine(3)(2) == 6
    assert ForceSpec(variant="lacunary", block_range=(1, 2)).exponents == ExponentMap.affine(2, 0)
    # a non-integer step is refused
    with pytest.raises(ValueError, match="must be integers"):
        ExponentMap.affine(2.5)
    with pytest.raises(ValueError, match="must be integers"):
        ExponentMap.affine(2, True)


def test_force_spec_field_validation():
    with pytest.raises(ValueError, match="unknown forcing variant"):
        ForceSpec(variant="bumps")
    with pytest.raises(ValueError, match="delta"):
        ForceSpec(variant="bump", delta=0.0)
    with pytest.raises(ValueError, match="size"):
        ForceSpec(variant="bump", size=0)
    with pytest.raises(ValueError, match="explicit block_range"):
        ForceSpec(variant="lacunary")
    with pytest.raises(ValueError, match="1 <= k0 <= k1"):
        ForceSpec(variant="blocks", block_range=(0, 2))
    with pytest.raises(ValueError, match="size >= 2"):
        ForceSpec(variant="lacunary", size=1, block_range=(1, 2))


def test_force_spec_lattice_validation(lattice128):
    with pytest.raises(ValueError, match="too small"):
        ForceSpec(variant="bump", size=1).validate(lattice128)
    with pytest.raises(ValueError, match="exceeds the lattice Nyquist"):
        ForceSpec(variant="bump", size=5).validate(lattice128)
    with pytest.raises(ValueError, match="shell separation"):
        ForceSpec(
            variant="lacunary",
            block_range=(1, 2),
            exponents=ExponentMap.affine(1, 2),  # gaps of 1
        ).validate(lattice128)
    with pytest.raises(ValueError, match="must exceed the top block shell"):
        ForceSpec(
            variant="blocks",
            block_range=(1, 2),
            size=2,
            exponents=ExponentMap.affine(2, -4),
            carrier_exponent=1,
        ).validate(lattice128)
    with pytest.raises(ValueError, match="modulated band"):
        ForceSpec(
            variant="blocks",
            block_range=(1, 2),
            size=2,
            exponents=ExponentMap.affine(2, -4),
            carrier_exponent=4,
        ).validate(lattice128)
    odd = FrequencyLattice(m=128, h_xi=0.375)
    with pytest.raises(ValueError, match="not an integer multiple"):
        ForceSpec(
            variant="blocks",
            block_range=(1, 2),
            size=2,
            exponents=ExponentMap.affine(2, -4),
            carrier_exponent=3,
        ).validate(odd)
    with pytest.raises(ValueError, match="translation collision"):
        ForceSpec(
            variant="blocks",
            block_range=(1, 2),
            size=2,
            exponents=ExponentMap.affine(2, -4),
            carrier_exponent=3,
            stride=lattice128.box_length / 2,
        ).validate(lattice128)


def full_lattice_pair(lattice, carrier):
    """The bump pair evaluated on every mode of the lattice."""
    chi = SmoothStep(1.0, 2.0)
    xi1, xi2, *_ = coordinates(lattice)
    return chi(np.hypot(xi1 - carrier, xi2)) + chi(np.hypot(xi1 + carrier, xi2))


def edge_stripped(coeffs):
    """The k2 >= 0 half a field stores of a full real array, edge stripped."""
    out = coeffs[:, : coeffs.shape[1] // 2].astype(np.complex128)
    out[out.shape[0] // 2, :] = 0.0
    return out


@pytest.mark.parametrize(
    "m, h_xi, size",
    [(128, 0.25, 3), (256, 0.125, 2), (64, 0.1875, 2)],
)
def test_modulated_bump_box_is_bitwise_the_full_lattice(m, h_xi, size):
    # each bump is evaluated on its box only; (64, 3/16) puts the box on
    # the last row before the Nyquist row, at a spacing with inexact steps
    lattice = FrequencyLattice(m=m, h_xi=h_xi)
    f = modulated_bump_force(lattice, ForceSpec(variant="bump", size=size))
    half_amp = 0.5 * 0.01 * 2.0 ** (2.5 * size)
    want = edge_stripped(half_amp * full_lattice_pair(lattice, 2.0**size))
    assert np.array_equal(padded(f), want)
    if m == 64:
        assert f.coeffs[m // 2 - 1].any() and f.coeffs[m // 2 + 1].any()
    if h_xi == 0.25:
        # the envelope: 1 inside radius 1, 0 from radius 2, strictly between
        # (on finer lattices, radii within rounding of 1 or 2 read 1 or 0)
        vals = padded(f).real / half_amp
        xi1, xi2, *_ = coordinates(lattice)
        d = np.minimum(
            np.hypot(xi1 - 2.0**size, xi2), np.hypot(xi1 + 2.0**size, xi2)
        )[:, : m // 2]
        assert np.all(vals[d <= 1.0] == 1.0)
        assert np.all(vals[d >= 2.0] == 0.0)
        mid = (d > 1.0) & (d < 2.0)
        assert mid.any() and np.all((vals[mid] > 0.0) & (vals[mid] < 1.0))
    with pytest.raises(ValueError, match="too coarse"):
        modulated_bump_force(FrequencyLattice(m=m, h_xi=0.5), ForceSpec(variant="bump", size=2))


@pytest.mark.parametrize("m, block_range", [(32, (1, 1)), (128, (1, 2))])
def test_lacunary_boxes_are_bitwise_the_full_lattice(m, block_range):
    # s(1) = 1: carrier 2, whose box at m=32 reaches the row before Nyquist
    lattice = FrequencyLattice(m=m, h_xi=0.25)
    spec = ForceSpec(variant="lacunary", size=2, block_range=block_range,
                     exponents=ExponentMap.affine(2, -1))
    want = np.zeros((m, m))
    for n in spec.block_indices():
        s = spec.exponents(n)
        amp = spec.delta * 2.0 ** (2.5 * s) / (math.sqrt(n) * math.sqrt(math.log(spec.size)))
        want += 0.5 * amp * full_lattice_pair(lattice, 2.0**s)
    f = lacunary_force(lattice, spec)
    assert np.array_equal(padded(f), edge_stripped(want))
    if m == 32:
        assert f.coeffs[m // 2 - 1].any()


def test_modulated_bump_support_and_amplitude(lattice128):
    spec = ForceSpec(variant="bump", delta=0.01, size=3)
    f = modulated_bump_force(lattice128, spec)
    # support is the pair of annuli of radius 2 around +-(2**3, 0)
    xi1, xi2, *_ = coordinates(lattice128)
    d = np.minimum(np.hypot(xi1 - 8.0, xi2), np.hypot(xi1 + 8.0, xi2))[:, :64]
    assert np.all(padded(f)[d >= 2.0] == 0.0)
    assert f.mean_coefficient() == 0.0
    # exact peak value delta * 2**(5c/2) / 2 at the carrier itself
    k = int(round(8.0 / lattice128.h_xi))
    assert f.coeffs[k, 0] == pytest.approx(0.5 * 0.01 * 2.0**7.5, rel=1e-15)
    assert hermitian_defect(f) == 0.0
    physical_real(f)
    with pytest.raises(ValueError, match="expected a bump spec"):
        modulated_bump_force(
            lattice128, ForceSpec(variant="lacunary", block_range=(1, 2))
        )


def test_lacunary_terms_are_disjoint_and_weighted(lattice128):
    exp = ExponentMap.affine(2, -1)  # s(1) = 1, s(2) = 3
    both = ForceSpec(variant="lacunary", delta=0.01, size=4, block_range=(1, 2), exponents=exp)
    one = ForceSpec(variant="lacunary", delta=0.01, size=4, block_range=(1, 1), exponents=exp)
    two = ForceSpec(variant="lacunary", delta=0.01, size=4, block_range=(2, 2), exponents=exp)
    f = lacunary_force(lattice128, both)
    f1 = lacunary_force(lattice128, one)
    f2 = lacunary_force(lattice128, two)
    # disjoint supports: the terms never touch the same mode
    assert not np.any((padded(f1) != 0) & (padded(f2) != 0))
    assert np.array_equal(padded(f), padded(f1) + padded(f2))
    # peak of term n is delta 2**(5 s/2) / (2 sqrt(n) sqrt(ln size))
    root_log = math.sqrt(math.log(4))
    k1 = int(round(2.0 / lattice128.h_xi))
    k2 = int(round(8.0 / lattice128.h_xi))
    assert f.coeffs[k1, 0] == pytest.approx(
        0.01 * 2.0**2.5 / (2.0 * root_log), rel=1e-15
    )
    assert f.coeffs[k2, 0] == pytest.approx(
        0.01 * 2.0**7.5 / (2.0 * math.sqrt(2.0) * root_log), rel=1e-15
    )
    assert f.mean_coefficient() == 0.0


def mask_overlap(lattice, exponents):
    """Shared modes of the carrier annuli, from full-lattice masks."""
    xi1, xi2, *_ = coordinates(lattice)
    masks = [
        (np.hypot(xi1 - 2.0**s, xi2) < 2.0) | (np.hypot(xi1 + 2.0**s, xi2) < 2.0)
        for s in exponents
    ]
    return sum(
        int(np.count_nonzero(a & b)) for i, a in enumerate(masks) for b in masks[i + 1 :]
    )


@pytest.mark.parametrize("m", [32, 128])
@pytest.mark.parametrize("h_xi", [0.25, 0.3])
@pytest.mark.parametrize(
    "exponents, colliding",
    # [1, 2] and [1, 2, 3] break the shell separation a ForceSpec enforces:
    # the annuli around 2, 4 and 8 overlap
    [([1, 3], False), ([1, 3, 5], False), ([1, 2], True), ([1, 2, 3], True), ([2, 2], True)],
)
def test_shared_annulus_modes_counts_the_full_lattice_masks(m, h_xi, exponents, colliding):
    # at m = 32 the larger carriers lie partly or wholly beyond the lattice
    lattice = FrequencyLattice(m=m, h_xi=h_xi)
    want = mask_overlap(lattice, exponents)
    assert (want > 0) == colliding
    assert shared_annulus_modes(lattice, exponents) == want


@pytest.mark.parametrize("exponents", [[0, 2], [-1, 1], [0, 0]])
def test_shared_annulus_modes_counts_meeting_balls_once(exponents):
    # below s = 1 the two balls of one annulus overlap, and a mode in both
    # belongs to the annulus once
    lattice = FrequencyLattice(m=64, h_xi=0.25)
    assert shared_annulus_modes(lattice, exponents) == mask_overlap(lattice, exponents)


def test_shared_annulus_modes_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on its first call, 15-22 ms inside step2
    code = ("import sys\n"
            "from sqglab.forcing import shared_annulus_modes\n"
            "from sqglab.spectral import FrequencyLattice\n"
            "lattice = FrequencyLattice(m=64, h_xi=0.25)\n"
            "shared_annulus_modes(lattice, [1, 3, 5])\n"
            "shared_annulus_modes(lattice, [0, 2])\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(forcing.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]


def blocks_spec(stride=None, equal_shell=None):
    return ForceSpec(
        variant="blocks",
        delta=0.01,
        size=2,
        block_range=(1, 2),
        exponents=ExponentMap.affine(2, -4),  # shells -2 and 0
        carrier_exponent=3,
        stride=stride,
        equal_shell=equal_shell,
    )


def test_block_envelope_checks(lattice128):
    with pytest.raises(ValueError, match="needs a stride"):
        envelope_l4_norm(lattice128, blocks_spec())
    with pytest.raises(ValueError, match="expected a blocks spec"):
        envelope_l4_norm(lattice128, ForceSpec(variant="bump", size=3))
    sick = ForceSpec(
        variant="blocks",
        size=2,
        block_range=(1, 2),
        exponents=ExponentMap.affine(9, -2),  # shell 16 is far outside
        carrier_exponent=18,
        stride=1.0,
    )
    with pytest.raises(ValueError, match="outside the partition window"):
        envelope_l4_norm(lattice128, sick)


def test_equal_shell_reuses_one_ring(lattice128):
    spec = blocks_spec(stride=2.0, equal_shell=0)
    assert spec.block_shells() == [0, 0]
    box = forcing._envelope_box(lattice128, spec)
    # both blocks are copies of the shell-0 ring, so the box is that ring's
    # box and its support is exactly the ring's support
    quadrant = lattice128.partition.ring_quadrant(0)
    extent = quadrant.shape[0] - 1
    assert box.shape == (2 * extent + 1, extent + 1)
    ring = np.concatenate((quadrant[:0:-1], quadrant))
    assert np.all((box != 0) <= (ring > 0))


def test_modulation_is_exact_cosine(lattice128):
    # a fixed stride is fine here: the cosine identity does not require
    # the blocks to be well separated, only the band checks to pass
    spec = blocks_spec(stride=2.0)
    forcing = translated_block_force(lattice128, spec)
    amp = 0.01 * 2.0 ** (2.5 * 3) / (2.0**0.25 * math.log(2.0))
    x1 = physical_coordinates(lattice128)[0]
    want = amp * physical_real(oracles.block_envelope(lattice128, spec)) * np.cos(8.0 * x1)
    got = physical_real(forcing)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert forcing.mean_coefficient() == 0.0


# (m, h_xi, exponent map, block range, equal shell): the inflation leg's
# family at its carrier 2**(top + 2), from h_xi = 1/4 down to 1/16, with and
# without a shared shell; the last case, the L4 leg's shell-3 blocks at
# m = 128, has a ring reaching the unpaired edge and no room for a carrier
FORCE_CASES = [
    (128, 0.25, ExponentMap.affine(2, -4), (1, 2), None),
    (256, 0.125, ExponentMap.affine(2, -4), (1, 3), 0),
    (1024, 0.0625, ExponentMap.affine(2, -4), (1, 2), None),
]
BOX_CASES = FORCE_CASES + [(128, 0.125, ExponentMap.affine(2, 0), (1, 2), 3)]


def box_case(m, h_xi, exponents, block_range, equal_shell):
    lat = FrequencyLattice(m=m, h_xi=h_xi)
    spec = ForceSpec(variant="blocks", delta=0.01, size=block_range[1], block_range=block_range,
                     exponents=exponents, equal_shell=equal_shell,
                     stride=lat.box_length / (2 * block_range[1]) + 0.37)
    top = max(spec.block_shells())
    return lat, replace(spec, carrier_exponent=top + 2)


@pytest.mark.parametrize("case", BOX_CASES)
def test_envelope_box_is_bitwise_the_full_lattice_oracle(case):
    lat, spec = box_case(*case)
    box = forcing._envelope_box(lat, spec)
    extent = box.shape[1] - 1
    assert extent == min(max(map(lat.partition.ring_extent, spec.block_shells())), lat.m // 2 - 1)
    want = oracles.block_envelope(lat, spec).coeffs
    k = np.arange(-extent, extent + 1)
    assert box.tobytes() == want[np.ix_(k % lat.m, k[extent:])].tobytes()
    outside = want.copy()
    outside[np.ix_(k % lat.m, k[extent:])] = 0.0
    assert not outside.any()
    # the L4 norm is that of the oracle cropped to the box, bit for bit
    crop = np.concatenate((np.conj(want[np.ix_(-k % lat.m, -k[:extent])]),
                           want[np.ix_(k % lat.m, k[extent:])]), axis=1)
    assert envelope_l4_norm(lat, spec) == box_lp_norm(crop, lat, 4.0)


@pytest.mark.parametrize("case", FORCE_CASES)
def test_block_force_is_bitwise_the_two_shifted_spectra(case):
    lat, spec = box_case(*case)
    got = translated_block_force(lat, spec)
    assert padded(got).tobytes() == oracles.translated_block_force(lat, spec).coeffs.tobytes()


def test_block_force_refuses_rows_that_would_wrap(lattice128, monkeypatch):
    # ForceSpec.validate rules these carriers out; past it, the shift must
    # raise rather than wrap the envelope round the box
    monkeypatch.setattr(ForceSpec, "validate", lambda self, lattice: None)
    for carrier in (-2, 6):  # rows across the origin, rows past +-m/2
        with pytest.raises(ValueError, match="cross the origin or the k = -64 edge"):
            translated_block_force(lattice128, replace(blocks_spec(stride=2.0),
                                                       carrier_exponent=carrier))


def test_calibrated_stride_is_two_sided():
    # shell-0 blocks are too wide for the m=128 box (the search correctly
    # reports that); shell-2 blocks on a 256 lattice do separate
    lat = FrequencyLattice(m=256, h_xi=0.25)
    area = lat.dx ** 2

    def spec_at(stride=None):
        return ForceSpec(
            variant="blocks",
            delta=0.01,
            size=2,
            block_range=(1, 2),
            exponents=ExponentMap.affine(2, -4),
            carrier_exponent=4,
            equal_shell=2,
            stride=stride,
        )

    def l4_mass(spec):
        env = oracles.block_envelope(lat, spec)
        return float(area * np.sum(np.abs(physical(env)) ** 4))

    # target: what perfectly separated blocks would add up to
    block = oracles.block_envelope(lat, replace(spec_at(lat.dx), block_range=(1, 1)))
    target = 2.0 * float(area * np.sum(np.abs(physical(block)) ** 4))

    stride = calibrate_stride(lat, spec_at())
    assert abs(l4_mass(spec_at(stride)) - target) <= 0.05 * target
    # nearly coincident blocks overshoot the target coherently, which is
    # why the acceptance bound has to be two-sided
    assert l4_mass(spec_at(lat.dx)) > 4.0 * target


def test_calibrate_stride_measures_blocks_as_the_envelope_builds_them():
    # on the L4 leg's lattice the shell-7 ring reaches the unpaired k = -m/2
    # edge, which the envelope strips: a target that kept it would differ
    # from the one block's own mass by 21% and no stride would pass
    lat = FrequencyLattice(m=1024, h_xi=0.125)
    assert lat.partition.ring_extent(7) == lat.m // 2
    spec = ForceSpec(variant="blocks", size=2, block_range=(1, 1),
                     exponents=ExponentMap.affine(2, 0), equal_shell=7)
    assert calibrate_stride(lat, spec) == lat.dx


def test_calibrate_stride_reports_impossible_geometry(lattice128):
    # shell -2 blocks span a quarter of the m=128 box; no translation
    # separates their tails to 5 percent
    with pytest.raises(ValueError, match="no stride reaches near-disjoint"):
        calibrate_stride(lattice128, blocks_spec())


def test_calibrate_stride_rejects_wrong_variant(lattice128):
    with pytest.raises(ValueError, match="expected a blocks spec"):
        calibrate_stride(
            lattice128, ForceSpec(variant="bump", size=3)
        )


@pytest.fixture(scope="module")
def l4_leg():
    """The lattice of illpose-step3's L4 leg."""
    return FrequencyLattice(m=1024, h_xi=0.125)


def l4_spec(count):
    return ForceSpec(variant="blocks", size=count, block_range=(1, count),
                     exponents=ExponentMap.affine(2, 0), equal_shell=3)


@pytest.mark.parametrize("count", [2, 4, 8])
def test_envelope_l4_norm_matches_the_full_lattice(l4_leg, count):
    lat = l4_leg
    stride = calibrate_stride(lat, l4_spec(count))
    assert stride == math.pi / 2.0
    spec = replace(l4_spec(count), stride=stride)
    got = envelope_l4_norm(lat, spec)
    want = lp_norm(physical_real(oracles.block_envelope(lat, spec)), 4.0, lat.dx ** 2)
    assert abs(got - want) <= 1e-13 * want


def test_calibrate_stride_runs_no_lattice_sized_transform(transform_sizes, monkeypatch):
    # four shell-2 blocks at m=256: the target is one lone block's mass,
    # evaluated once for the one distinct shell, and every mass is summed
    # with one transform below m
    lat = FrequencyLattice(m=256, h_xi=0.25)
    spec = ForceSpec(variant="blocks", size=4, block_range=(1, 4),
                     exponents=ExponentMap.affine(2, -4), equal_shell=2)
    calls = []

    def counted(lattice, spec):
        calls.append(spec)
        return envelope_l4_norm(lattice, spec)

    monkeypatch.setattr(forcing, "envelope_l4_norm", counted)
    stride = calibrate_stride(lat, spec)
    assert [s.block_range for s in calls] == [(1, 1)] + [(1, 4)] * (len(calls) - 1)
    assert calls[-1].stride == stride
    assert len(transform_sizes) == len(calls)
    assert max(transform_sizes) < lat.m
