"""Smooth radial cutoffs built from the standard exp(-1/t) mollifier.

One profile family drives the whole frequency-side geometry: the dyadic
partition rings, the probe bumps and the low-pass envelope are all values of
``SmoothStep`` at rescaled radii.  ``SmoothStep(t0, t1)`` equals 1 on
``[0, t0]``, 0 on ``[t1, inf)`` and transitions smoothly in between; the
transition is a true partition-of-unity ramp, i.e. ``step(r) + (1 - step)``
built from the same two exponentials, so telescoping ring sums cancel
exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SmoothStep"]


# The value of a / (a + b) where t is NaN, both exponentials reading 0
# there: 0/0, the machine's default NaN.
with np.errstate(invalid="ignore"):
    _UNDECIDED = np.float64(0.0) / np.float64(0.0)


@dataclass(frozen=True)
class SmoothStep:
    """Smooth decreasing step: 1 on [0, t0], 0 on [t1, inf)."""

    t0: float
    t1: float

    def __post_init__(self) -> None:
        if not (0 < self.t0 < self.t1):
            raise ValueError(f"need 0 < t0 < t1, got ({self.t0}, {self.t1})")

    def __call__(self, r: np.ndarray | float) -> np.ndarray:
        """The step at ``r`` (a 0-d array for a scalar): with ``t = (t1 - r)
        / (t1 - t0)``, exactly 1 where ``t >= 1``, exactly 0 where ``t <=
        0``, NaN where t is NaN, and ``a / (a + b)`` with ``a = exp(-1/t)``
        and ``b = exp(-1/(1 - t))`` in between (so +inf reads 0 and -inf
        1).

        The exponentials are taken only where ``0 < t < 1``, on the
        contiguous array of those t: elsewhere one of them is 0 and the
        quotient is exactly the level written there.
        """
        r = np.asarray(r, dtype=np.float64)
        t = (self.t1 - r) / (self.t1 - self.t0)
        out = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, _UNDECIDED))
        ramp = (t > 0.0) & (t < 1.0)
        inner = t[ramp]
        with np.errstate(under="ignore"):
            a = np.exp(-1.0 / inner)
            b = np.exp(-1.0 / (1.0 - inner))
        out[ramp] = a / (a + b)
        return out
