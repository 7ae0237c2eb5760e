"""Dyadic frequency decomposition, Besov norms, and probe bumps.

The ring system is the classical one: a radial profile ``phi0`` supported in
``{1/2 <= |xi| <= 2}``, equal to 1 on ``{7/8 <= |xi| <= 5/4}``, with
``phi_j(xi) = phi0(2**-j xi)`` summing to 1 away from the origin.  We build
``phi0(xi) = step(|xi|) - step(2|xi|)`` from one fixed
:class:`~sqglab.profiles.SmoothStep` with transition interval ``(5/4, 7/4)``,
which also shapes the probes; the telescoping structure makes ring sums
collapse to two step evaluations, which is what the partition-of-unity and
lattice-coverage checks lean on.

Norms follow the homogeneous convention: the zero mode is quotiented out, so
a non-mean-zero input is rejected rather than silently truncated.  Fields are
real, stored as their k2 >= 0 half (:class:`~sqglab.spectral.SpectralField`),
and every shell is synthesized from that half.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .profiles import SmoothStep
from .spectral import (
    _SLAB_ROWS,
    FrequencyLattice,
    SpectralField,
    _ball_box,
    _half_synthesis,
    _ifft2,
    _row_blocks,
    _slab_samples,
)

__all__ = [
    "BesovIndex",
    "DyadicPartition",
    "shell_project",
    "lp_norm",
    "box_lp_norm",
    "shell_profile",
    "lq_aggregate",
    "besov_profile",
    "besov_norm",
    "probe_box",
]

DIAGONAL = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))

# The profile of every ring and every probe.  Its transition interval sits
# inside [5/4, 7/4], so the three ring constraints (support in the annulus
# [1/2, 2], plateau covering [7/8, 5/4], values in [0, 1]) hold together.
_STEP = SmoothStep(1.25, 1.75)


@dataclass(frozen=True)
class BesovIndex:
    """Index triple (s, p, q) of a homogeneous Besov space."""

    s: float
    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p >= 1 and self.q >= 1):
            raise ValueError(f"p, q must be >= 1 (math.inf allowed), got {self}")

    @classmethod
    def data_index(cls, p: float, q: float) -> "BesovIndex":
        """Critical regularity for forcings: s = 2/p - 3."""
        return cls(2.0 / p - 3.0, p, q)

    @classmethod
    def solution_index(cls, p: float, q: float) -> "BesovIndex":
        """Critical regularity for solutions: s = 2/p - 1."""
        return cls(2.0 / p - 1.0, p, q)


class DyadicPartition:
    """Lattice realization of the dyadic ring system.

    The window ``j_min .. j_max`` spans every ring whose (open) support
    interval meets a non-zero lattice radius, and a window whose telescoped
    ring sum is not 1 at every non-zero mode is refused here, judged by
    :meth:`_covers_lattice`.  A lattice's rings are read through
    :attr:`FrequencyLattice.partition`, the one place that builds them.
    """

    def __init__(self, lattice: FrequencyLattice) -> None:
        t0, t1 = _STEP.t0, _STEP.t1
        r_lo = lattice.h_xi
        r_hi = lattice.h_xi * (lattice.m / 2.0) * math.sqrt(2.0)
        j_min = math.ceil(math.log2(r_lo / t1))
        # smallest j whose open support (t0/2 * 2^j, t1 * 2^j) reaches r_lo
        while t1 * 2.0**j_min <= r_lo:
            j_min += 1
        j_max = math.floor(math.log2(2.0 * r_hi / t0))
        while t0 / 2.0 * 2.0**j_max >= r_hi:
            j_max -= 1
        self._lattice = weakref.ref(lattice)
        self.j_min = j_min
        self.j_max = j_max
        self._quadrants: dict[int, np.ndarray] = {}
        if not self._covers_lattice():
            raise ValueError(
                f"the shell window [{j_min}, {j_max}] does not "
                f"cover every non-zero mode of {lattice!r}"
            )

    @property
    def lattice(self) -> FrequencyLattice:
        """The lattice the rings live on, held weakly: the lattice holds its
        partition (:attr:`FrequencyLattice.partition`), and a strong
        reference back would make a cycle that keeps both alive until the
        garbage collector runs."""
        lattice = self._lattice()
        if lattice is None:
            raise ReferenceError("the partition's lattice was freed; hold the lattice "
                                 "and read its rings through lattice.partition")
        return lattice

    @property
    def shells(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def ring_quadrant(self, j: int) -> np.ndarray:
        """``phi_j`` on the quadrant ``Q[a, b] = phi_j(h_xi a, h_xi b)``,
        ``0 <= a, b <= K_j`` (read-only, cached).

        The ring is radial, so this one quadrant holds every lattice value:
        mode ``(k1, k2)`` reads ``Q[|k1|, |k2|]``, the unpaired ``k = -m/2``
        edge as ``|k| = m/2``, and modes outside the box read 0.  The step
        is evaluated on the lattice's radius quadrant up to index
        ``min(m/2, floor(t1 2**j / h_xi) + 1)``, past which the ring
        vanishes, and cropped to its live extent ``K_j``.  The inner step
        ``step(2**(1-j) |xi|)`` is evaluated only on its own box, up to
        index ``floor(t1 2**(j-1) / h_xi) + 1``, past which it is exactly 0,
        and subtracted in that corner.  Both steps are evaluated
        ``_SLAB_ROWS`` rows at a time into the output, so their temporaries
        are a slab's size, not the box's.  Values are bitwise those of the
        full-lattice evaluation, since the step is elementwise, ``hypot``
        ignores signs and ``x - 0`` is ``x``.
        """
        cached = self._quadrants.get(j)
        if cached is not None:
            return cached
        lat = self.lattice
        top = min(lat.m // 2, math.floor(_STEP.t1 * 2.0**j / lat.h_xi) + 1)
        inner = min(top, math.floor(_STEP.t1 * 2.0 ** (j - 1) / lat.h_xi) + 1)
        r = lat.radius_quadrant
        vals = np.empty((top + 1, top + 1))
        for lo in range(0, top + 1, _SLAB_ROWS):
            hi = min(lo + _SLAB_ROWS, top + 1)
            vals[lo:hi] = _STEP(r[lo:hi, : top + 1] * 2.0 ** (-j))
            cut = min(hi, inner + 1)
            if lo < cut:
                vals[lo:cut, : inner + 1] -= _STEP(r[lo:cut, : inner + 1] * 2.0 ** (1 - j))
        # symmetric in (a, b), so the live rows give the extent on both axes
        extent = int(np.flatnonzero(vals.any(axis=1)).max(initial=0))
        quadrant = vals if extent == top else vals[: extent + 1, : extent + 1].copy()
        quadrant.flags.writeable = False
        if len(self._quadrants) < 32:
            self._quadrants[j] = quadrant
        return quadrant

    def ring_values(self, j: int) -> np.ndarray:
        """Values of ``phi_j`` on the k2 >= 0 half of the lattice, the layout
        of a full-band field's coefficients (real, read-only ``(m, m/2)``
        array; a narrower field's are its first columns): mode
        ``(k1, k2)`` reads :meth:`ring_quadrant` at ``(|k1|, k2)``, zero
        outside its box.

        Unfolded on every call and not cached, so a partition never holds a
        lattice-sized ring.
        """
        quadrant, m = self.ring_quadrant(j), self.lattice.m
        vals = np.zeros((m, m // 2))
        rows = _row_blocks(quadrant.shape[0] - 1, m)
        cols = rows[0][0]  # k2 >= 0
        for dst, _, src in rows:
            vals[dst, cols] = quadrant[src, cols]
        vals.flags.writeable = False
        return vals

    def ring_extent(self, j: int) -> int:
        """Largest per-axis index ``|k|`` at which ``phi_j`` is non-zero
        (``m/2`` when the ring reaches the ``k = -m/2`` edge).

        Read off the evaluated ring itself, not its support interval: it is
        the size of :meth:`ring_quadrant` minus 1.
        """
        return self.ring_quadrant(j).shape[0] - 1

    def support_interval(self, j: int) -> tuple[float, float]:
        """Open radial interval on which ``phi_j`` can be nonzero."""
        return (_STEP.t0 / 2.0 * 2.0**j, _STEP.t1 * 2.0**j)

    def plateau_interval(self, j: int) -> tuple[float, float]:
        """Closed radial interval on which ``phi_j`` equals 1 exactly."""
        return (_STEP.t1 / 2.0 * 2.0**j, _STEP.t0 * 2.0**j)

    def coverage(self) -> np.ndarray:
        """Telescoped ring sum over the window, in closed form, on the
        lattice's :attr:`~FrequencyLattice.radius_quadrant`: mode
        ``(k1, k2)`` reads ``[|k1|, |k2|]`` (read-only ``(m/2 + 1, m/2 + 1)``
        array, evaluated on every call)."""
        r = self.lattice.radius_quadrant
        cov = _STEP(r * 2.0 ** (-self.j_max)) - _STEP(r * 2.0 ** (1 - self.j_min))
        cov.flags.writeable = False
        return cov

    def _covers_lattice(self) -> bool:
        """Whether the telescoped sum is 1 at every non-zero mode, judged at
        the smallest non-zero and the corner radius, computed as
        :attr:`FrequencyLattice.radius_quadrant` computes them: the step is
        monotone, so it is 0 at the first's bottom-shell argument and 1 at
        the second's top-shell argument exactly when every non-zero mode is
        covered."""
        lat = self.lattice
        k1, k2 = np.array([1, lat.m // 2]), np.array([0, lat.m // 2])
        r_lo, r_hi = np.hypot(lat.h_xi * k1, lat.h_xi * k2)
        return bool(
            _STEP(r_lo * 2.0 ** (1 - self.j_min)) == 0.0
            and _STEP(r_hi * 2.0 ** (-self.j_max)) == 1.0
        )

    def __repr__(self) -> str:
        return (
            f"DyadicPartition(lattice={self._lattice()!r}, "
            f"j_min={self.j_min}, j_max={self.j_max})"
        )


def shell_project(field: SpectralField, j: int) -> SpectralField:
    """Multiply coefficients by the ring ``phi_j`` of the field's lattice
    (free-space mollifier); the projection stores the field's columns."""
    partition = field.lattice.partition
    if not (partition.j_min <= j <= partition.j_max):
        raise ValueError(
            f"shell {j} outside the partition window [{partition.j_min}, {partition.j_max}]"
        )
    c = field.coeffs
    return SpectralField._adopt(field.lattice, c * partition.ring_values(j)[:, : c.shape[1]])


def lp_norm(samples: np.ndarray, p: float, cell_area: float) -> float:
    """L^p quadrature norm of physical samples (sup norm for p = inf).

    Real samples and an even integer p take the power by repeated squaring
    of ``samples**2``, which is exact to a few roundings and much cheaper
    than a float ``pow`` per sample.
    """
    if math.isinf(p):
        if np.iscomplexobj(samples):
            return float(np.abs(samples).max())
        # real samples: max |x| from two reductions, with no |x| temporary
        return float(max(samples.max(), -samples.min()))
    if p % 2 == 0 and not np.iscomplexobj(samples):
        powered = _even_power(samples, int(p))
    else:
        powered = np.abs(samples) ** p
    return float((cell_area * np.sum(powered)) ** (1.0 / p))


def _even_power(x: np.ndarray, p: int) -> np.ndarray:
    """``x**p`` for even ``p >= 2``, by binary powering of ``x * x``."""
    base = x * x
    n = p // 2
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _shell_grid(extent: int, p: float, m: int) -> int:
    """Grid size along one axis on which a shell of band ``extent`` along
    that axis is summed: its ``|k| <= extent`` (:func:`shell_profile` sizes
    the k1 axis by the ring's extent and the k2 axis by the shell's largest
    occupied k2).

    For an even integer ``p``: the smallest power of two above
    ``p * extent``, at most ``m`` (2 for a band below 1, an empty shell).
    Any other ``p``: ``m``.
    """
    if math.isinf(p) or p % 2:
        return m
    grid = 2
    while grid <= p * extent and grid < m:
        grid *= 2
    return grid


def box_lp_norm(coeffs: np.ndarray, lattice: FrequencyLattice, p: float) -> float:
    """L^p norm of the field whose only non-zero coefficients, possibly
    complex, are ``coeffs``: entry ``[a, b]`` at mode ``k0 + (a, b)``.

    The box is laid from the origin (``|g|`` ignores the unimodular factor
    ``exp(-i h_xi k0.x)``) of the grid :func:`_shell_grid` picks for the
    half-width ``max(n1, n2) // 2``, and synthesized there with one complex
    transform: exact for even p below the grid's cap at m, by the argument
    of :func:`shell_profile`, and the lattice quadrature at the cap.
    """
    grid = _shell_grid(max(coeffs.shape) // 2, p, lattice.m)
    laid = np.zeros((grid, grid), dtype=np.complex128)
    laid[: coeffs.shape[0], : coeffs.shape[1]] = coeffs
    cell = lattice.box_length / grid
    return lp_norm(np.abs(_ifft2(laid)), p, cell * cell)


def _check_mean_zero(field: SpectralField) -> None:
    """Refuse a field whose mean is not zero to 1e-12 of its scale.

    The scale is max(|Re|, |Im|), as SpectralField's realness check measures
    it, read over the field's occupied columns only
    (:attr:`SpectralField.occupied`; the others are exact zeros) by
    reductions over their real and imaginary views, no half-sized temporary.
    """
    c0 = abs(field.mean_coefficient())
    width = field.occupied[1]
    if width == 0:  # the zero field
        return
    c = field.coeffs[:, :width]
    scale = float(max(c.real.max(), -c.real.min(), c.imag.max(), -c.imag.min()))
    if c0 > 1e-12 * max(scale, 1e-300):
        raise ValueError(
            f"input is not mean-zero (|c(0)| = {c0:.3e}); homogeneous norms "
            "quotient out constants, remove the mean first"
        )


def shell_profile(
    field: SpectralField,
    s: float,
    p: float,
    shells: Iterable[int] | None = None,
) -> list[tuple[int, float]]:
    """Per-shell weighted norms ``(j, 2**(s j) * ||phi_j * f||_p)``, with
    the rings of the field's lattice (:attr:`FrequencyLattice.partition`).

    Over ``shells``, by default the partition's window; a shell above the
    window, whose ring vanishes on the lattice, reads 0.  Every ring
    vanishes at the origin, so the field's mean never enters.

    Shell j is cropped to the box ``|k| <= K_j`` on which its ring lives
    (:meth:`DyadicPartition.ring_extent`), the ring read by slicing its
    cached quadrant, and cut to the columns ``k2 <= k2_j``, where
    ``k2_j = min(K_j, w - 1)`` is the shell's largest occupied k2 for a
    field that occupies w columns (:attr:`SpectralField.occupied`).  Its
    k2 >= 0 half is written into an ``M_j x G_j`` real-transform buffer
    (rows of ``G_j`` points) and synthesized with the staged inverse
    transform, whose column pass runs over those ``k2_j + 1`` columns; the
    quadrature weight is ``(L/M_j) * (L/G_j)``.  Each size is
    :func:`_shell_grid` of its axis's band: ``M_j`` of ``K_j`` and ``G_j``
    of ``k2_j``.  For an even integer p that is the smallest power of two
    above p times the band, capped at m; for any other p both are the
    lattice's own m.  Below the cap that is exact, not an approximation:
    with g the shell, ``|g|**p = (|g|**2)**(p/2)`` is a trigonometric
    polynomial of band ``p * K_j`` along k1 and ``p * k2_j`` along k2, so
    on any grid finer than those bands no non-zero mode aliases onto the
    zero mode, and the L^p sum equals ``L**2`` times that mode (Parseval),
    i.e. the exact integral.  At the cap, where ``p * K_j >= m``, it is
    not: non-zero modes of ``|g|**p`` can fold onto the zero mode along
    k1, and the sum is the quadrature on the lattice's own m rows (ROADMAP
    item 13: +7.8% in illpose-step1's largest p = 8 data norm at its
    defaults).  Along k2 nothing folds while ``G_j < m``, so the m x G_j
    sum is the m x m one up to rounding.  :func:`_norm_bounds` is proven
    for that quadrature, not for the integral.  Low shells of a large
    lattice are summed on grids of a few dozen points, and a field narrow
    in k2, such as a bump modulated along k1, on rows of a few dozen.
    A full-band field has ``G_j = M_j``, the square grid, whose weight is
    ``cell * cell`` for ``cell = L/M_j``, bitwise.

    At p = inf both sizes are m, and no (m, m/2 + 1) buffer is made: the
    shell is written into an (m, k2_j + 1) array of its live columns, whose
    column pass runs in place, and its row passes run a slab of 64 rows at
    a time (:func:`~sqglab.spectral._slab_samples`, through the forms'
    slab engine).  The sup of each slab is folded with numpy's ``max``,
    which keeps a NaN, so the value is bitwise the sup over the whole
    synthesis, a NaN or infinite sample included: a maximum does not depend
    on order.  A sum does, so every other p keeps the whole synthesis.

    The rings are real and radial, so a real field has real shells and
    each is one real synthesis of the stored half.  No field holds anything
    on the unpaired k = -m/2 row or column (:class:`SpectralField`), so a
    shell reaching ``|k| = m/2`` reads nothing there.

    Zero shells are reported as exact zeros without a transform, judged on
    the blocks of the buffer that the shell's coefficients were written
    into.  A shell the field cannot reach is one, and is read as 0.0 before
    its ring is evaluated or looked up: the field lives on the box
    ``|k1| <= K1``, ``k2 <= w - 1`` it occupies
    (:attr:`SpectralField.occupied`), every mode of which has radius at
    most ``R = radius_quadrant[K1, w - 1]``, and ``phi_j`` is exactly
    1 - 1 = 0 below its inner edge ``t0 2**(j-1)``
    (:class:`~sqglab.profiles.SmoothStep` is exactly 1 on ``[0, t0]``).
    So shell j is skipped when ``R (1 + 1e-12) < t0 2**(j-1)``, a narrow
    field's high shells, once the box is known to be finite: a NaN or
    infinite coefficient skips nothing, so such a field reads the same
    non-finite shells as without the skip.
    """
    c = field.coeffs
    out: list[tuple[int, float]] = []
    lattice = field.lattice
    partition = lattice.partition
    m, box = lattice.m, lattice.box_length
    occupied = field.occupied[1]
    k1 = max(field.occupied[0] - 1, 0)  # K1
    reach = lattice.radius_quadrant[k1, max(occupied - 1, 0)]  # R
    finite = None  # whether the box is finite, read at the first skip
    sup = math.isinf(p)
    for j in partition.shells if shells is None else shells:
        if reach * (1.0 + 1e-12) < _STEP.t0 * 2.0 ** (j - 1):
            if finite is None:
                finite = all(np.isfinite(c[rows, :occupied]).all()
                             for rows, _, _ in _row_blocks(k1, m))
            if finite:
                out.append((j, 0.0))
                continue
        extent = partition.ring_extent(j)
        top = min(extent, occupied - 1)  # the shell's largest occupied k2
        rows, cols = _shell_grid(extent, p, m), _shell_grid(top, p, m)
        # phi_j c into the k2 >= 0 half of a rows x cols real transform; each
        # size is m or above twice its axis's band, so it holds every mode.
        # The sup norm holds the live columns only, rows padded to an odd
        # stride as the forms' column arrays are (spectral._column_synthesis).
        quadrant = partition.ring_quadrant(j)
        live = slice(0, top + 1)
        if sup:
            proj = np.zeros((rows, (top + 1) | 1), dtype=np.complex128)[:, live]
        else:
            proj = np.zeros((rows, cols // 2 + 1), dtype=np.complex128)
        written = [
            np.multiply(c[src, live], quadrant[quad, live], out=proj[dst, live])
            for src, dst, quad in _row_blocks(extent, m, rows)
        ]
        if not any(block.any() for block in written):
            del proj, written  # before the next shell's buffer
            out.append((j, 0.0))
            continue
        if sup:  # max |x| of each slab, folded with NaN kept (Python's max drops it)
            value = float(np.max([lp_norm(slab, p, 0.0) for slab in _slab_samples(proj, cols)]))
        else:
            value = lp_norm(_half_synthesis(proj, top + 1, cols), p, (box / rows) * (box / cols))
        out.append((j, _shell_weight(s, j) * value))
        del proj, written  # views of one buffer, freed before the next
    return out


def _shell_weight(s: float, j: int) -> float:
    """``2**(s j)``, inf where it leaves the float range (as in :func:`lq_aggregate`)."""
    try:
        return 2.0 ** (s * j)
    except OverflowError:
        return math.inf


def lq_aggregate(entries: list[float], q: float) -> float:
    """``l^q`` norm of non-negative per-shell entries (their max for q = inf).

    inf when a q-th power or their sum leaves the float range, as a shell
    quadrature that overflows reads inf: the fixed-point loops take an
    infinite norm as their divergence signal.
    """
    if math.isinf(q):
        return max(entries) if entries else 0.0
    # strongly graded sums: accumulate ascending in extended precision
    try:
        powered = sorted(v**q for v in entries)
        return math.fsum(powered) ** (1.0 / q)
    except OverflowError:  # float ** and fsum raise where numpy would give inf
        return math.inf


def besov_profile(field: SpectralField, s: float, p: float) -> list[float]:
    """The per-shell values a Besov norm of regularity s and integrability p
    aggregates, one per shell of the window; every ``l^q`` norm of the
    same (s, p) is :func:`lq_aggregate` of this one list.

    Homogeneous norms quotient out constants, so a field with a non-zero
    mean is rejected rather than silently truncated.
    """
    _check_mean_zero(field)
    return [v for _, v in shell_profile(field, s, p)]


def besov_norm(field: SpectralField, index: BesovIndex) -> float:
    """Homogeneous Besov norm by shellwise L^p quadrature and an l^q sum
    (:func:`besov_profile` and :func:`lq_aggregate`)."""
    return lq_aggregate(besov_profile(field, index.s, index.p), index.q)


# ---------------------------------------------------------------------------
# Certified bounds without a transform
# ---------------------------------------------------------------------------

# Binary exponent that no power, sum or l^q term of a bounded quadrature may
# reach (the largest double is just below 2**1024, the smallest normal one
# 2**-1022): room for the rounding of every bounded step.
_EXPONENT_ROOM = 960

# Relative widening of the bounds, for the rounding of the quadrature they
# enclose.  A transform of G**2 samples errs by about eps log2(G) relative
# to their root mean square, and for p >= 2 the L^p norm is at least that
# mean (Hoelder), so the quadrature errs by at most G eps log2(G) relative:
# below 1e-10 up to G = 4096.
_ROUNDING_ROOM = 1e-6


def _full_sums(c: np.ndarray, weight: np.ndarray | None = None) -> tuple[float, float]:
    """``(sum |w c|, sum |w c|**2)`` over the whole lattice of the half
    spectrum ``c`` (rows, width), a field's stored columns or some of them,
    times a real, non-negative ``weight`` of the same shape (1 if None), a
    slab of ``_SLAB_ROWS`` rows at a time, so that its temporaries are a
    few slabs, never a field's size.

    A k2 > 0 column stands for its conjugate mirror too, so it counts twice;
    column k2 = 0 holds both halves of its mirror pairs itself.
    """
    s1 = s2 = 0.0
    if not c.shape[1]:  # the zero field
        return s1, s2
    run = np.empty((min(_SLAB_ROWS, c.shape[0]), c.shape[1]))
    for lo in range(0, c.shape[0], _SLAB_ROWS):
        rows = c[lo : lo + _SLAB_ROWS]
        amp = np.abs(rows, out=run[: rows.shape[0]])
        if weight is not None:
            amp *= weight[lo : lo + _SLAB_ROWS]
        s1 += 2.0 * float(amp.sum()) - float(amp[:, 0].sum())
        with np.errstate(over="ignore"):  # read as a non-finite sum
            amp *= amp
        s2 += 2.0 * float(amp.sum()) - float(amp[:, 0].sum())
    return s1, s2


def _ring_sums(c: np.ndarray, quadrant: np.ndarray) -> tuple[float, float]:
    """:func:`_full_sums` of ``phi_j c`` for the ring's
    :meth:`~DyadicPartition.ring_quadrant`, over its box only: the rows
    ``|k1| <= e`` in the blocks of :func:`~sqglab.spectral._row_blocks`,
    each row meeting quadrant row ``|k1|``, with ``e`` the ring's extent
    cut to m/2 - 1 (so the box never reaches the unpaired ``k1 = -m/2``
    row, which is zero in every field anyway), and the columns ``0 .. e``
    that ``c``, a field's stored columns, holds."""
    m, width = c.shape
    e = min(quadrant.shape[0], m // 2) - 1
    cols = min(e + 1, width)
    s1 = s2 = 0.0
    for rows, _, quad in _row_blocks(e, m):
        a, b = _full_sums(c[rows, :cols], quadrant[quad, :cols])
        s1, s2 = s1 + a, s2 + b
    return s1, s2


def _quadrature_fits(l1: float, index: BesovIndex, lattice: FrequencyLattice) -> bool:
    """Whether :func:`besov_norm` of any field on ``lattice`` whose
    coefficients sum in modulus to at most ``l1`` (over the whole lattice)
    stays clear of overflow in every step: its samples, their p-th powers
    and their sum, the weighted shell values and their ``l^q`` terms.

    Every sample is at most the coefficients' absolute sum, so each step is
    bounded by a power of ``l1``; its binary exponent must stay below
    :data:`_EXPONENT_ROOM`.  A NaN or infinite ``l1`` fits nothing.
    """
    if l1 == 0.0:
        return True
    if not math.isfinite(l1):
        return False
    p, q = index.p, index.q
    exponent = math.log2(l1)
    log_area = 2.0 * math.log2(lattice.box_length)
    if not math.isinf(p):
        if p * exponent + max(2.0 * math.log2(lattice.m), log_area) >= _EXPONENT_ROOM:
            return False
        exponent += log_area / p
    shells = lattice.partition.shells
    exponent += max(index.s * j for j in shells)
    if math.isinf(q):
        return exponent < _EXPONENT_ROOM
    return q * exponent + math.log2(len(shells)) < _EXPONENT_ROOM


def _absolute_sum(field: SpectralField) -> float:
    """``sum |c|`` over the whole lattice (:func:`_full_sums`): the bound
    that :func:`_quadrature_fits` reads."""
    return _full_sums(field.coeffs)[0]


def _norm_bounds(field: SpectralField, index: BesovIndex) -> tuple[float, float]:
    """Certified ``(lower, upper)`` bounds of ``besov_norm(field, index)``
    from per-shell coefficient sums, without a transform.

    Shell j's samples g are summed on a grid of M x G points, weight
    ``(L/M) * (L/G)``, total mass ``A = L**2`` (:func:`shell_profile`).
    Its modes ``|k1| <= K1``, ``|k2| <= K2`` are distinct there, since
    ``M > 2 K1`` and ``G > 2 K2`` (or the size is m, the lattice's own
    axis).  With ``S1 = sum |phi_j c|`` and ``S2 = sum |phi_j c|**2`` over
    the whole lattice (:func:`_ring_sums`), Parseval on that discrete
    measure gives ``sum |g|**2 (L/M) (L/G) = A S2``,
    and every sample is at most ``S1``.  So for p >= 2 Hoelder bounds the
    quadrature's L^p norm below by ``A**(1/p - 1/2) sqrt(A S2)`` and above
    by ``(S1**(p - 2) A S2)**(1/p)`` (``sqrt(S2)`` and ``S1`` at p = inf).
    These hold for the quadrature itself, so also where it aliases
    (ROADMAP item 13).  The shells are weighted by ``2**(s j)`` and
    combined with :func:`lq_aggregate`, which is monotone, after a
    relative widening by :data:`_ROUNDING_ROOM`.  A shell whose quadrature
    could underflow has lower bound 0, and one whose ``S2`` could have
    underflowed the upper bound ``A**(1/p) S1``.

    For p < 2, or when :func:`_quadrature_fits` cannot rule out an
    overflow of the quadrature or ``S2`` overflows, the pair is
    ``(0, inf)``, which encloses anything.  A field with a non-zero mean is
    refused as :func:`besov_profile` refuses it.
    """
    _check_mean_zero(field)
    p = index.p
    if p < 2.0:
        return 0.0, math.inf
    partition = field.lattice.partition
    sums = [(j, *_ring_sums(field.coeffs, partition.ring_quadrant(j))) for j in partition.shells]
    if not (
        _quadrature_fits(max(s1 for _, s1, _ in sums), index, field.lattice)
        and all(math.isfinite(s2) for _, _, s2 in sums)
    ):
        return 0.0, math.inf
    scale = 1.0 if math.isinf(p) else field.lattice.box_length ** (2.0 / p)
    half_p = 0.5 if math.isinf(p) else 0.5 * p
    lows, highs = [], []
    for j, s1, s2 in sums:
        weight = _shell_weight(index.s, j) * scale
        if s2 > 0.0 and half_p * math.log2(s2) > -_EXPONENT_ROOM:
            lows.append(weight * math.sqrt(s2) * (1.0 - _ROUNDING_ROOM))
        else:
            lows.append(0.0)
        # S2 is a sum of squares that may have underflowed below 2**-960;
        # the sup bound alone needs none
        high = s1
        if not math.isinf(p) and s2 > 2.0**-_EXPONENT_ROOM:
            high = s1 ** (1.0 - 2.0 / p) * s2 ** (1.0 / p)
        highs.append(weight * high * (1.0 + _ROUNDING_ROOM))
    return lq_aggregate(lows, index.q), lq_aggregate(highs, index.q)


# ---------------------------------------------------------------------------
# Probe bumps
# ---------------------------------------------------------------------------


def probe_box(
    lattice: FrequencyLattice, j: int, gap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Small bump at ``2**j * DIAGONAL`` that the ring ``phi_j`` reproduces,
    as the rows, columns and values of its ball box
    (:func:`~sqglab.spectral._ball_box`); it is zero at every other mode.

    Its symbol is the step profile at the offset ``rho = |xi - centre|``
    rescaled, ``step(rho * 2**(gap + 1 - j))``, which vanishes from the
    radius ``t1 * 2**(j - gap - 1)`` on.  A ``gap`` of at least 3 keeps the
    support inside the plateau of shell ``j``, which is what makes the probe
    satisfy ``psi_j = phi_j * psi_j`` identically.  The radius is below the
    centre's coordinates, so the rows and columns are consecutive modes
    k > 0, as :func:`box_lp_norm` reads them.

    An empty support means the bump misses every lattice point, and is
    refused: a finer ``h_xi`` or a smaller gap (not below 3) fixes that.
    """
    if gap < 3:
        raise ValueError(
            f"probe gap {gap} < 3 cannot keep the bump inside the ring plateau"
        )
    centre = (2.0**j * DIAGONAL[0], 2.0**j * DIAGONAL[1])
    radius = _STEP.t1 * 2.0 ** (j - gap - 1)
    rows, cols, rho = _ball_box(lattice, centre, radius)
    values = _STEP(rho * 2.0 ** (gap + 1 - j))
    if not values.any():
        raise ValueError(
            f"probe at shell {j} (gap {gap}) has empty support on {lattice!r}: "
            f"no lattice point within {radius:.3e} of {centre}; "
            "use a finer h_xi or a smaller gap"
        )
    return rows, cols, values
