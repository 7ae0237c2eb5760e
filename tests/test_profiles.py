"""The smooth step profile everything frequency-side is built from."""

import math

import numpy as np
import pytest

from oracles import smooth_step
from sqglab.profiles import SmoothStep


def test_plateau_and_tail_are_exact():
    step = SmoothStep(1.25, 1.75)
    r = np.linspace(0.0, 3.0, 601)
    vals = step(r)
    assert np.all(vals[r <= 1.25] == 1.0)
    assert np.all(vals[r >= 1.75] == 0.0)
    mid = (r > 1.25) & (r < 1.75)
    assert np.all((vals[mid] >= 0.0) & (vals[mid] <= 1.0))
    # strictly interior values are strictly between the levels (the flat
    # tails of exp(-1/t) round to the levels right at the edges)
    core = (r > 1.4) & (r < 1.6)
    assert np.all((vals[core] > 0.0) & (vals[core] < 1.0))


def test_monotone_decreasing():
    step = SmoothStep(1.0, 2.0)
    r = np.linspace(0.9, 2.1, 400)
    vals = step(r)
    assert np.all(np.diff(vals) <= 0.0)


def test_partition_ramp_telescopes_exactly():
    # the defining property behind the exact ring sums: the up-ramp and
    # the down-ramp at dyadically related radii cancel in floating point
    step = SmoothStep(1.25, 1.75)
    r = np.linspace(0.01, 64.0, 2000)
    total = np.zeros_like(r)
    for j in range(-8, 9):
        total += step(r * 2.0**-j) - step(r * 2.0 ** (1 - j))
    inner = (r >= 1.75 * 2.0**-8) & (r <= 1.25 * 2.0**8 / 2)
    assert np.max(np.abs(total[inner] - 1.0)) == 0.0


def test_scalar_input():
    step = SmoothStep(1.0, 2.0)
    assert step(0.5) == 1.0
    assert step(2.5) == 0.0
    assert 0.0 < float(step(1.5)) < 1.0


def test_rejects_bad_interval():
    with pytest.raises(ValueError, match="t0 < t1"):
        SmoothStep(2.0, 1.0)
    with pytest.raises(ValueError, match="t0 < t1"):
        SmoothStep(0.0, 1.0)


def same_bits(got, want):
    return (type(got) is type(want) and got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("t0, t1", [(1.25, 1.75), (1.0, 2.0)])
def test_step_is_bitwise_the_whole_input_expression(t0, t1):
    # the exponentials are taken on the ramp only; every value, the levels,
    # the ends of the ramp and NaN (0/0 in the oracle, bit for bit) as the
    # expression over the whole input gives them
    step = SmoothStep(t0, t1)
    rng = np.random.default_rng(8)
    edges = np.array([t0, t1, np.nextafter(t0, 0.0), np.nextafter(t0, 9.0),
                      np.nextafter(t1, 0.0), np.nextafter(t1, 9.0), 0.0, -1.0,
                      np.nan, -np.nan, np.inf, -np.inf])
    for r in (rng.uniform(0.0, 3.0, 10001), rng.uniform(t0, t1, (37, 29)),
              np.linspace(t0, t1, 4097), edges, edges.reshape(3, 4)[:, ::2]):
        assert same_bits(step(r), smooth_step(step, r))


def test_step_keeps_the_edges_of_its_domain():
    step = SmoothStep(1.25, 1.75)
    vals = step(np.array([np.nan, np.inf, -np.inf, 1.25, 1.75]))
    assert np.isnan(vals[0])
    assert vals[1:].tolist() == [0.0, 1.0, 1.0, 0.0]
    # a scalar in gives a 0-d array out, as numpy's elementwise expressions do
    for r in (1.5, np.float64(1.5), 1.25, 1.75, 3.0, 0.0, math.nan, math.inf, -math.inf):
        got = step(r)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert same_bits(got, smooth_step(step, r))


def test_step_warns_about_nothing():
    # the tails of exp(-1/t) underflow inside the ramp; nothing is said
    step = SmoothStep(1.0, 2.0)
    r = np.array([1.0 + 1e-300, 1.0 + 1e-9, 2.0 - 1e-9, np.nan, np.inf, -np.inf])
    with np.errstate(all="raise"):
        assert same_bits(step(r), smooth_step(step, r))
