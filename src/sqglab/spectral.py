"""Frequency lattice, spectral fields, and Fourier-multiplier plumbing.

Everything downstream works on a square lattice of frequencies
``xi = h_xi * (k1, k2)`` with integer indices ``k_i in [-m/2, m/2)``.  The
physical box is the torus of side ``L = 2*pi/h_xi``.  A coefficient is the
amplitude of ``exp(i x.xi)``, so an unscaled inverse transform onto any
``M1 x M2`` grid holding the modes samples the field (quadrature weight
``L**2 / (M1 * M2)``): the quadratic form on 3m/2 rows of as many points as
its product's k2 band needs, a Besov shell or a local object on the
smallest square grid that resolves the band of ``|g|**p``.

Fields are immutable; every operation returns a new field.  Fields are
real, so a field stores only the k2 >= 0 half of its Hermitian coefficients,
and of that half only the first columns, as many as the operator that made
it knows may be non-zero (:class:`SpectralField`); rows are in FFT index
order (0, 1, ..., m/2-1, -m/2, ..., -1).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "FrequencyLattice",
    "SpectralField",
    "inverse_laplacian",
    "neg_laplacian",
    "riesz_velocity",
    "dyadic_rescale",
    "strip_unpaired_edge",
    "set_fft_workers",
]


def _load_pocketfft():
    """scipy's compiled pocketfft binding, loaded without ``import scipy.fft``.

    ``scipy.fft`` is only a Python layer over this binding, but importing
    it also imports ``scipy.special`` and scipy's array-API support (with
    ``numpy.testing`` and ``numpy.f2py``), which no transform here uses
    and which took more than half of a run's start-up time (README,
    "Start-up").  ``find_spec`` locates scipy without importing it.  The
    binding's module and call signature are the same since scipy 1.4.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    name = "scipy.fft._pocketfft.pypocketfft"
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        directory = Path(scipy_spec.submodule_search_locations[0], "fft", "_pocketfft")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = directory / f"pypocketfft{suffix}"
            if path.is_file():
                loader = importlib.machinery.ExtensionFileLoader(name, str(path))
                spec = importlib.util.spec_from_file_location(name, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                return module
    raise ImportError(
        "sqglab needs scipy>=1.10 for its compiled pocketfft binding "
        f"({name}), which was not found"
    )


# Its calls, with the arguments scipy.fft passes them:
#   c2c(a, axes, forward, inorm, out, nthreads)
#   r2c(a, axes, forward, inorm, out, nthreads)
#   c2r(a, axes, lastsize, forward, inorm, out, nthreads)
# where inorm 0 leaves a transform unscaled: scipy's norm="forward" on an
# inverse transform, or norm="backward" on a forward one.  With ``out`` the
# result is written into that array, which may be the (strided) input itself.
_pocketfft = _load_pocketfft()
_UNSCALED = 0

_FFT_WORKERS = os.cpu_count() or 1  # -1: every core


def set_fft_workers(n: int) -> None:
    """Set the thread count of every transform, resolved as ``scipy.fft``
    resolves ``workers``: -1 is all cores, -2 all but one, and so on.

    Raises ``ValueError`` for 0 or for a count below minus the core count.
    """
    global _FFT_WORKERS
    n = int(n)
    cores = os.cpu_count() or 1
    if n == 0:
        raise ValueError("the FFT worker count must not be zero")
    if n < -cores:
        raise ValueError(
            f"FFT worker count {n} is out of range; it must not be less than {-cores}"
        )
    _FFT_WORKERS = n + 1 + cores if n < 0 else n


def _ifft2(a: np.ndarray) -> np.ndarray:
    axes = (a.ndim - 2, a.ndim - 1)
    return _pocketfft.c2c(a, axes, False, _UNSCALED, None, _FFT_WORKERS)


@dataclass(frozen=True)
class FrequencyLattice:
    """Square frequency lattice: ``m`` modes per axis, spacing ``h_xi``.

    Parameters
    ----------
    m:
        Modes per axis.  Power of two, at least 8, so dyadic rescaling and
        padded transforms stay exact.
    h_xi:
        Frequency spacing (inverse length).  The physical box has side
        ``2*pi/h_xi``.
    """

    m: int = 1024
    h_xi: float = 0.125

    def __post_init__(self) -> None:
        if self.m < 8 or (self.m & (self.m - 1)) != 0:
            raise ValueError(f"m must be a power of two >= 8, got {self.m}")
        if not (self.h_xi > 0):
            raise ValueError(f"h_xi must be positive, got {self.h_xi}")
        # every radial symbol is finite and non-zero off the origin when
        # |xi|**2 and 1/|xi|**2 are at the smallest and the corner radius
        corner = self.h_xi * (self.m // 2)
        r2 = np.hypot([self.h_xi, corner], [0.0, corner]) ** 2
        with np.errstate(all="ignore"):
            if not np.all((r2 > 0.0) & (r2 < np.inf) & (1.0 / r2 < np.inf)):
                raise ValueError(f"h_xi = {self.h_xi} puts |xi|**2 or 1/|xi|**2 out of the "
                                 f"float range on the m = {self.m} lattice")

    @property
    def box_length(self) -> float:
        return 2.0 * np.pi / self.h_xi

    @property
    def xi_max(self) -> float:
        """Nyquist frequency ``h_xi * m / 2`` (per axis)."""
        return self.h_xi * self.m / 2.0

    @property
    def dx(self) -> float:
        return self.box_length / self.m

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer index along axis 0, FFT order, broadcast to (m, m)."""
        k = np.fft.fftfreq(self.m, d=1.0 / self.m).astype(np.int64)
        return np.broadcast_to(k[:, None], (self.m, self.m))

    @cached_property
    def k2(self) -> np.ndarray:
        k = np.fft.fftfreq(self.m, d=1.0 / self.m).astype(np.int64)
        return np.broadcast_to(k[None, :], (self.m, self.m))

    @cached_property
    def xi_axis(self) -> np.ndarray:
        """Frequencies ``h_xi * k`` of one axis, FFT order, shape (m,).

        Mode ``(k1, k2)`` has coordinates ``(xi_axis[k1], xi_axis[k2])``;
        a coordinate symbol is applied through the broadcasts
        ``xi_axis[:, None]`` and ``xi_axis[None, :]``, so the lattice holds
        no m x m coordinate array.
        """
        return self.h_xi * self.k1[:, 0]

    @cached_property
    def radius_quadrant(self) -> np.ndarray:
        """``|xi|`` on the quadrant ``R[a, b] = hypot(h_xi a, h_xi b)``,
        ``0 <= a, b <= m/2`` (read-only, shape (m/2 + 1, m/2 + 1)).

        Mode ``(k1, k2)`` reads ``R[|k1|, |k2|]``, bitwise
        ``hypot(xi_axis[k1], xi_axis[k2])``, since ``hypot`` ignores signs.
        A quarter of the lattice's size; radial symbols are applied from it
        by slicing (:func:`_row_blocks`).
        """
        xi = self.h_xi * np.arange(self.m // 2 + 1, dtype=np.int64)
        r = np.hypot(xi[:, None], xi[None, :])
        r.flags.writeable = False
        return r

    @cached_property
    def partition(self):
        """The lattice's dyadic ring system, a
        :class:`~sqglab.besov.DyadicPartition` checked to cover every
        non-zero mode, built on first read and kept for the lattice's life.

        Every route that reads rings reads them here, so a field's norms
        are always taken with its own lattice's rings.  The partition
        refers back to the lattice weakly, so the two are freed together
        when the lattice's last reference goes, with no cycle to collect.
        """
        from .besov import DyadicPartition  # besov builds on this module

        return DyadicPartition(self)

    def __repr__(self) -> str:  # keep reports compact
        return f"FrequencyLattice(m={self.m}, h_xi={self.h_xi})"


def _centred_coordinates(
    lattice: FrequencyLattice,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(eta1, eta2, |eta|)`` on the whole lattice in centred order, index i
    holding wavenumber i - m/2: the coordinates as (m, m) broadcasts of one
    axis, the radius as an (m, m) array.  Only the two whole-lattice
    quadratures (``bilinear.coupling_tensor`` and
    ``diagnostics.second_iterate_split``) call it; every other route reads
    :attr:`FrequencyLattice.xi_axis` and the radius quadrant."""
    m = lattice.m
    wave = (np.arange(m) - m // 2) * lattice.h_xi
    eta1 = np.broadcast_to(wave[:, None], (m, m))
    eta2 = np.broadcast_to(wave[None, :], (m, m))
    return eta1, eta2, np.hypot(eta1, eta2)


def _aligned_mirror(arr: np.ndarray, a: int, b: int) -> np.ndarray:
    """``arr`` in centred order sampled at ``xi - eta``, as an array over the
    centred eta indices, for ``xi`` at wavenumbers ``(a, b)``: the (xi - eta)
    lookup of the two whole-lattice quadratures.

    Reverse both axes and shift by (a + 1, b + 1) with zero fill; entries
    whose xi - eta falls outside the box are zero, matching the plane
    truncation of the quadrature bilinear form.
    """
    m = arr.shape[-1]
    rev = arr[::-1, ::-1]
    out = np.zeros_like(arr)
    lo1, hi1 = max(0, a + 1), min(m, m + a + 1)
    lo2, hi2 = max(0, b + 1), min(m, m + b + 1)
    out[lo1:hi1, lo2:hi2] = rev[lo1 - (a + 1) : hi1 - (a + 1), lo2 - (b + 1) : hi2 - (b + 1)]
    return out


def _ball_box(
    lattice: FrequencyLattice, centre: tuple[float, float], radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns (FFT indices) whose frequency lies within ``radius``
    of ``centre`` on that axis, and the offset radius ``|xi - centre|`` on
    that box, bitwise as on the whole lattice: a symbol of the offset radius
    that vanishes from ``radius`` on is zero off the box."""
    xi = lattice.xi_axis
    c1, c2 = centre
    rows = np.flatnonzero(np.abs(xi - c1) < radius)
    cols = np.flatnonzero(np.abs(xi - c2) < radius)
    return rows, cols, np.hypot(xi[rows, None] - c1, xi[None, cols] - c2)


# Relative size of an anti-Hermitian part still read as rounding.  Sources
# and products here are exactly Hermitian; arrays assembled elsewhere may
# carry their rounding, about 1e-16 of their scale.
_REAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable real field on a :class:`FrequencyLattice`, stored as the
    first columns of its k2 >= 0 half spectrum.

    A real field's coefficients are Hermitian, ``c(-k) = conj(c(k))``, so
    the columns k2 = 0 .. m/2 - 1 hold them all, rows in FFT order, the
    layout of a real transform's half without its last column.  A field
    stores the first w of those columns, ``coeffs`` of shape (m, w) with
    0 <= w <= m/2; the columns from w on are implicit zeros.  The operator
    that makes a field chooses w from its construction (a modulated bump
    occupies a few columns whatever its carrier, and a form of such
    fields a few more), and a full-band field has w = m/2.  Column k2 = 0
    holds both ``c(k1, 0)`` and its conjugate ``c(-k1, 0)``, and the zero
    mode is real.  The unpaired k = -m/2 row and column have no partner
    inside the box: the row is zero and the column has no slot.  Every
    field is a scalar, as the unknown, the forcing and the quadratic form
    are; a velocity is a pair of fields (:func:`riesz_velocity`).

    ``SpectralField(lattice, full)`` takes the full (m, m) coefficients,
    checks once that they are a real field (an anti-Hermitian part of at
    most 1e-12 of their largest component, nothing on the unpaired edge;
    anything else raises ``ValueError``) and keeps the whole half, w = m/2.
    Operators adopt the arrays they build (:meth:`_adopt`), so realness
    holds by construction; routes that need the whole lattice unfold the
    stored columns with :func:`_unfold`.  A field has no m x m physical
    view (module docstring).
    Fields compare and hash by identity: an array has no single truth
    value, so equality of coefficients is not what ``==`` could report.
    """

    lattice: FrequencyLattice
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        m = self.lattice.m
        h = m // 2
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (m, m):
            raise ValueError(
                f"coefficient shape {c.shape} does not match lattice m={m} "
                "(expected the full (m,m) coefficients)"
            )
        if c[h, :].any() or c[:, h].any():
            raise ValueError(
                f"coefficients on the unpaired k = -{h} row or column have no "
                "conjugate partner in the box; strip_unpaired_edge removes them"
            )
        d = c - np.conj(np.roll(np.flip(c), 1, axis=(0, 1)))  # c(-k)
        worst = max(np.abs(d.real).max(), np.abs(d.imag).max())
        scale = max(np.abs(c.real).max(), np.abs(c.imag).max())
        if worst > _REAL_TOL * scale:
            raise ValueError(
                f"SpectralField takes real fields; these coefficients differ from "
                f"their mirrored conjugates by {worst:.3e} at scale {scale:.3e}"
            )
        # a copy: the caller may still hold (and later write to) its array
        self._freeze(np.array(c[:, :h]))

    @classmethod
    def _adopt(cls, lattice: FrequencyLattice, half: np.ndarray) -> "SpectralField":
        """Wrap a fresh (m, w) array of a half spectrum's first w columns
        that no caller holds, without copying it.

        For operators that build their output array themselves, in the
        layout of the class docstring, as wide as their construction needs:
        every column from w on is zero.  The array is made read-only in
        place.
        """
        field = object.__new__(cls)
        object.__setattr__(field, "lattice", lattice)
        field._freeze(np.asarray(half, dtype=np.complex128))
        return field

    def _freeze(self, c: np.ndarray) -> None:
        m = self.lattice.m
        if c.ndim != 2 or c.shape[0] != m or c.shape[1] > m // 2:
            raise ValueError(
                f"half-spectrum shape {c.shape} does not match lattice m={m} "
                "(expected (m, w) with w <= m/2)"
            )
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, lattice: FrequencyLattice) -> "SpectralField":
        return cls._adopt(lattice, np.zeros((lattice.m, 0), dtype=np.complex128))

    @classmethod
    def from_modes(
        cls, lattice: FrequencyLattice, modes: dict[tuple[int, int], complex]
    ) -> "SpectralField":
        """Real field with prescribed coefficients at integer lattice indices.

        The conjugate coefficient is installed at ``-k`` as well, so real
        amplitudes build ``2*amp*cos(x.xi)``.
        """
        c = np.zeros((lattice.m, lattice.m), dtype=np.complex128)
        half = lattice.m // 2
        for (a, b), amp in modes.items():
            if not (-half < a < half and -half < b < half):
                raise ValueError(
                    f"mode {(a, b)} outside the symmetric box (|k| <= {half - 1}); "
                    f"the k = -{half} edge has no conjugate partner on this lattice"
                )
            c[a % lattice.m, b % lattice.m] += amp
            c[(-a) % lattice.m, (-b) % lattice.m] += np.conj(amp)
        return cls(lattice, c)

    @classmethod
    def cosine(
        cls, lattice: FrequencyLattice, k: tuple[int, int], amplitude: float = 1.0
    ) -> "SpectralField":
        """``amplitude * cos(h_xi * k . x)`` as a spectral field."""
        return cls.from_modes(lattice, {tuple(k): amplitude / 2.0})

    # -- basic queries -----------------------------------------------------

    def mean_coefficient(self) -> complex:
        return complex(self.coeffs[0, 0]) if self.coeffs.shape[1] else 0j

    @cached_property
    def occupied(self) -> tuple[int, int]:
        """``(rows, columns)`` of the box the field occupies: 1 + the largest
        ``|k1|`` and 1 + the largest k2 holding a non-zero coefficient, (0, 0)
        for the zero field (:func:`_occupied_columns`, :func:`_occupied_rows`).

        Every coefficient outside the box ``|k1| <= rows - 1``,
        ``k2 <= columns - 1`` is an exact zero, so the passes sized by it
        read the box only.  Read once per field: the coefficients are
        read-only.  The search starts at the last stored column, so a field
        that fills its columns costs one column read.
        """
        columns = _occupied_columns(self.coeffs, self.coeffs.shape[1])
        return _occupied_rows(self.coeffs, columns), columns

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "SpectralField") -> None:
        if other.lattice != self.lattice:
            raise ValueError(
                f"incompatible lattices: {self.lattice} vs {other.lattice}"
            )

    def _combine(self, other: "SpectralField", ufunc: np.ufunc) -> "SpectralField":
        """``ufunc`` (add or subtract) of the two fields, as wide as the wider:
        their shared columns combined, and the wider one's other columns
        combined with the other's implicit zeros, so every column is the
        one the operands padded to the same width give."""
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        shared = min(a.shape[1], b.shape[1])
        out = np.empty((a.shape[0], max(a.shape[1], b.shape[1])), dtype=np.complex128)
        ufunc(a[:, :shared], b[:, :shared], out=out[:, :shared])
        if a.shape[1] > shared:
            ufunc(a[:, shared:], 0.0, out=out[:, shared:])
        else:
            ufunc(0.0, b[:, shared:], out=out[:, shared:])
        return SpectralField._adopt(self.lattice, out)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.add)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float) -> "SpectralField":
        if np.iscomplexobj(scalar):
            raise TypeError("a field times a complex number is not a real field")
        scalar = float(scalar)
        c = self.coeffs
        if not math.isfinite(scalar):  # 0 times it is NaN, in every column
            c = np.zeros((c.shape[0], self.lattice.m // 2), dtype=np.complex128)
            c[:, : self.coeffs.shape[1]] = self.coeffs
        return SpectralField._adopt(self.lattice, c * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField._adopt(self.lattice, -self.coeffs)


def _unfold(half: np.ndarray) -> np.ndarray:
    """The full (..., m, m) Hermitian coefficients of a stored half's first
    columns (..., m, w): the half is padded to its m/2 columns, the k2 < 0
    columns are the conjugates ``c(-k)`` of those and the unpaired
    k2 = -m/2 column is zero."""
    m, h = half.shape[-2], half.shape[-2] // 2
    out = np.zeros(half.shape[:-2] + (m, m), dtype=np.complex128)
    out[..., : half.shape[-1]] = half
    np.conjugate(out[..., :1, h - 1 : 0 : -1], out=out[..., :1, h + 1 :])
    np.conjugate(out[..., :0:-1, h - 1 : 0 : -1], out=out[..., 1:, h + 1 :])
    return out


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------
#
# Homogeneous symbols are singular at the origin; their value at xi = 0 is
# zero, which implements the mean-zero (quotient by constants) convention.


def _reciprocal(symbol: np.ndarray) -> np.ndarray:
    """``1/symbol`` for a radial symbol such as ``|xi|`` or ``|xi|**2``, zero
    at the origin.  Computed per call: caching it on the lattice would hold
    one more m x m array for the rest of a run."""
    return np.divide(1.0, symbol, out=np.zeros_like(symbol), where=symbol > 0.0)


def _refuse_non_finite(lattice: FrequencyLattice, out: np.ndarray, operator: str) -> None:
    """Raise ``FloatingPointError`` naming ``operator`` if ``out`` holds a
    non-finite amplitude: the operator blew up on this lattice (a symbol
    against near-zero frequencies, or a product overflowing)."""
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(
            f"{operator} produced non-finite amplitudes; lattice {lattice} "
            "cannot resolve it"
        )


def _checked(lattice: FrequencyLattice, out: np.ndarray, operator: str) -> SpectralField:
    """Wrap an operator's fresh output, refusing non-finite amplitudes
    (:func:`_refuse_non_finite`)."""
    _refuse_non_finite(lattice, out, operator)
    return SpectralField._adopt(lattice, out)


def _row_blocks(
    extent: int, n: int, grid: int | None = None, run: int | None = None
) -> tuple[tuple[slice, slice, slice], ...]:
    """``(rows, grid rows, quadrant rows)`` slices of the indices ``|k| <=
    extent`` of an ``n``-point FFT axis, k = 0 .. e, then k = -e .. -1
    (e = min(extent, n/2 - 1)), then the unpaired -n/2 if ``extent``
    reaches it: their places in that layout, at the same frequencies in a
    ``grid``-point one (default n), and ``|k|``, the rows of a radial
    symbol's quadrant (:attr:`FrequencyLattice.radius_quadrant`).  With
    ``run``, each block is split into runs of at most ``run`` indices."""
    grid = n if grid is None else grid
    h = n // 2
    e = min(extent, h - 1)
    step = run or e + 1
    out = []
    for lo in range(0, e + 1, step):
        hi = min(lo + step, e + 1)
        out.append((slice(lo, hi), slice(lo, hi), slice(lo, hi)))
    for lo in range(-e, 0, step):  # k = lo .. hi - 1
        hi = min(lo + step, 0)
        out.append((slice(n + lo, n + hi), slice(grid + lo, grid + hi), slice(-lo, -hi, -1)))
    if extent >= h:
        out.append((slice(h, h + 1), slice(grid - h, grid - h + 1), slice(h, h + 1)))
    return tuple(out)


def _radial_multiply(
    symbol: np.ndarray, c: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``symbol * c`` for a radial symbol given on the whole quadrant
    (shape (m/2 + 1, m/2 + 1), as :attr:`FrequencyLattice.radius_quadrant`)
    and coefficients ``c``, the first w columns of a half spectrum
    (..., m, w), w <= m/2, or a full (..., m, m) array: each mode reads the
    quadrant at ``(|k1|, |k2|)`` by slicing (:func:`_row_blocks`), so no
    m x m symbol is made.  Bitwise the product with the unfolded symbol.
    For w columns the quadrant's first w columns suffice.  Written into
    ``out`` if given, which may be ``c`` itself, else into a new array."""
    out = np.empty_like(c) if out is None else out
    rows = _row_blocks(symbol.shape[0] - 1, c.shape[-2])
    w = c.shape[-1]
    cols = rows if w == c.shape[-2] else ((slice(0, w), None, slice(0, w)),)
    for dst1, _, src1 in rows:
        for dst2, _, src2 in cols:
            np.multiply(symbol[src1, src2], c[..., dst1, dst2], out=out[..., dst1, dst2])
    return out


def inverse_laplacian(field: SpectralField) -> SpectralField:
    """Coefficientwise division by |xi|^2, zero mode annihilated.

    Reads the field's w occupied columns (:attr:`SpectralField.occupied`)
    only, and stores as many: the symbol is made on the radius quadrant's
    first w columns and the output is an (m, w) array, checked there.
    """
    lat = field.lattice
    w = field.occupied[1]
    r = lat.radius_quadrant[:, :w]
    return _checked(lat, _radial_multiply(_reciprocal(r * r), field.coeffs[:, :w]),
                    "inverse_laplacian")


def neg_laplacian(field: SpectralField) -> SpectralField:
    r = field.lattice.radius_quadrant[:, : field.coeffs.shape[1]]
    return _checked(field.lattice, _radial_multiply(r * r, field.coeffs), "neg_laplacian")


def riesz_velocity(theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Divergence-free velocity ``u = perp-grad (-Delta)^{-1/2} theta``,
    symbol ``i (-xi_2, xi_1) / |xi|``, as its two components ``(u1, u2)``.

    The symbol is odd and imaginary, so each component is a real field.
    Mode for mode an isometry: |u_hat(xi)| = |theta_hat(xi)| for xi != 0.
    Each component stores theta's columns.
    """
    lat = theta.lattice
    xi = lat.xi_axis
    w = theta.coeffs.shape[1]
    lifted = _radial_multiply(1j * _reciprocal(lat.radius_quadrant[:, :w]), theta.coeffs)
    u1 = _checked(lat, -xi[None, :w] * lifted, "riesz_velocity")
    return u1, _checked(lat, xi[:, None] * lifted, "riesz_velocity")


# ---------------------------------------------------------------------------
# Dyadic rescaling
# ---------------------------------------------------------------------------


def dyadic_rescale(
    field: SpectralField, exponent: int, amplitude_power: int = 1
) -> SpectralField:
    """Relocate the spectrum ``xi -> 2**exponent * xi`` with amplitude
    ``2**(exponent * amplitude_power)``.

    ``amplitude_power=1`` is the solution-side scaling (``lam*f(lam x)``),
    ``amplitude_power=3`` the forcing-side one.  Downscaling requires every
    active mode to sit on the coarser sublattice; anything else would land
    off-lattice and raises.  The output stores the columns up to its last
    active mode's.
    """
    lam_pow = int(exponent)
    if lam_pow == 0:
        return field
    m = field.lattice.m
    half = m // 2
    c = field.coeffs
    idx1, idx2 = np.nonzero(c)
    if idx1.size == 0:
        return SpectralField.zeros(field.lattice)
    # the stored columns are k2 = 0 .. m/2 - 1, and a rescale keeps k2 >= 0
    k1 = np.where(idx1 < half, idx1, idx1 - m).astype(np.int64)
    k2 = idx2.astype(np.int64)
    if lam_pow >= 0:
        n1, n2 = k1 << lam_pow, k2 << lam_pow
    else:
        q = 1 << (-lam_pow)
        if np.any(k1 % q) or np.any(k2 % q):
            raise ValueError(
                f"spectrum does not fit the 2**{-lam_pow}-coarser sublattice; "
                "active modes would land off-lattice under this rescale"
            )
        n1, n2 = k1 // q, k2 // q
    if np.any(np.abs(n1) > half - 1) or np.any(np.abs(n2) > half - 1):
        raise ValueError(
            f"rescaled spectrum overflows the symmetric box (m={m}); "
            f"max index {max(np.max(np.abs(n1)), np.max(np.abs(n2)))} vs {half - 1}"
        )
    amp = 2.0 ** (lam_pow * amplitude_power)
    out = np.zeros((m, int(n2.max()) + 1), dtype=np.complex128)
    out[n1 % m, n2] = amp * c[idx1, idx2]
    return SpectralField._adopt(field.lattice, out)


# ---------------------------------------------------------------------------
# Dealiased products
# ---------------------------------------------------------------------------


def strip_unpaired_edge(c: np.ndarray) -> np.ndarray:
    """Zero the k = -m/2 row, and the k2 = -m/2 column of a full array, in
    place, returning the array.

    Those frequencies have no conjugate partner inside the box, so energy
    there cannot belong to a real field together with its mirror; a field
    holds none (:class:`SpectralField`), and sources strip them.
    """
    half = c.shape[-2] // 2
    c[..., half, :] = 0.0
    if c.shape[-1] == c.shape[-2]:
        c[..., :, half] = 0.0
    return c


def _occupied_columns(c: np.ndarray, width: int) -> int:
    """1 + the largest column index below ``width`` at which ``c`` (..., m,
    w) holds a non-zero coefficient; 0 when those columns are all zero.

    Column ``k2`` of a half spectrum is that frequency.  The last column is
    tested first, so a field that fills it costs one column read; otherwise
    the first ``width`` columns are read once and folded onto ``k2``.
    """
    if width == 0 or c[..., width - 1].any():
        return width
    held = c[..., :width].any(axis=-2).reshape(-1, width).any(axis=0)
    return int(np.flatnonzero(held).max(initial=-1)) + 1


def _occupied_rows(c: np.ndarray, width: int) -> int:
    """1 + the largest ``|k1|`` at which the first ``width`` columns of ``c``
    (..., m, w) hold a non-zero coefficient; 0 when they are all zero.

    The k1 twin of :func:`_occupied_columns`: the row ``k1 = m/2 - 1`` is
    tested first, so a field that fills it costs one row read; otherwise
    the rows of the first ``width`` columns are read once and folded onto
    ``|k1|``.
    """
    m = c.shape[-2]
    h = m // 2
    if width == 0:
        return 0
    if c[..., h - 1 : h, :width].any():
        return h
    held = c[..., :width].any(axis=-1).reshape(-1, m).any(axis=0)
    k = np.flatnonzero(held)
    return int(np.minimum(k, m - k).max(initial=-1)) + 1


def _half_synthesis(half: np.ndarray, live: int, length: int | None = None) -> np.ndarray:
    """Real samples on a ``grid x length`` mesh (rows of ``length`` points;
    ``length`` defaults to ``grid``) from the writable, C-contiguous k2 >= 0
    half ``half`` (shape (..., grid, length/2 + 1)) whose columns from
    ``live`` on are zero, computed in place.

    Two 1-D passes, as ``irfft2`` makes them: a complex transform down
    axis -2 of the live columns only, then real transforms of length
    ``length`` along axis -1, which supply the conjugate half.  Both write
    into ``half``: the real pass in the in-place layout of FFTW and
    pocketfft, where row i's ``length`` samples overwrite the first
    ``length`` of that row's ``length + 2`` doubles.  The result is that
    strided view, ``half.view(float64)[..., :length]``, and bitwise
    ``irfft2`` of ``half`` with ``s=(grid, length)``; the columns known to
    be zero are not transformed, and no array of the mesh's size is made.
    A sum over the samples must be taken over a contiguous array (the
    view's elementwise powers are one), since numpy sums a strided view in
    another order.
    """
    cols = half[..., :live]
    _pocketfft.c2c(cols, (-2,), False, _UNSCALED, cols, _FFT_WORKERS)
    length = half.shape[-2] if length is None else length
    samples = half.view(np.float64)[..., :length]
    return _pocketfft.c2r(half, (-1,), length, False, _UNSCALED, samples, _FFT_WORKERS)


# Rows per slab of the row passes (:class:`_RowPasses`): the quadratic
# form's and the sup-norm shells' (:func:`_slab_samples`); the Besov ring
# steps and coefficient sums run slabs of as many rows.
_SLAB_ROWS = 64


def _column_synthesis(
    halves: tuple[tuple[np.ndarray, int], ...],
    grid: int,
    symbol: Callable[[slice, slice], np.ndarray] | None = None,
    room: int = 0,
) -> list[np.ndarray]:
    """The column passes of real syntheses on ``grid`` rows: for each pair
    ``(c, cols)`` of a field's stored columns c (m, w) and its leading
    ``cols <= w`` columns, a complex array of ``grid`` rows, made
    ``max(cols, room)`` wide and returned whole, its columns from ``cols``
    on unset: room for a wider array that the caller later writes over it.

    The lattice's rows are laid into their grid rows (:func:`_row_blocks`),
    the rows between them and the unpaired k = -m/2 row left zero, and the
    first ``cols`` columns are transformed down axis 0 in place.  Row i of
    an array then begins with the first ``cols`` entries of grid row i's
    k2 >= 0 half, whose other entries are zero when ``cols`` covers every
    non-zero column of c (its field's :attr:`SpectralField.occupied`);
    :meth:`_RowPasses.synthesis` completes the synthesis a slab of rows at
    a time.  ``symbol(rows, quadrant_rows)``, if given, is a lattice
    symbol on a run of at most ``_SLAB_ROWS`` lattice rows and at least
    the widest ``cols`` columns; it is evaluated once per run and
    multiplies every half during the copy.

    Each array is a view whose rows are padded to an odd length: with a
    power-of-two row stride every entry of a column falls in the same cache
    sets, which made the column pass about 20% slower at m = 1024.
    """
    m = halves[0][0].shape[-2]
    h = m // 2
    widths = [max(cols, room) for _, cols in halves]
    made = [np.empty((grid, w | 1), dtype=np.complex128)[:, :w] for w in widths]
    out = [a[:, :cols] for a, (_, cols) in zip(made, halves)]
    for a in out:
        a[h : grid - h + 1] = 0.0
    for src, dst, quad in _row_blocks(h - 1, m, grid, _SLAB_ROWS):
        run = None if symbol is None else symbol(src, quad)
        for (c, cols), a in zip(halves, out):
            if run is None:
                a[dst] = c[src, :cols]
            else:
                np.multiply(c[src, :cols], run[:, :cols], out=a[dst])
    for a in out:
        _pocketfft.c2c(a, (0,), False, _UNSCALED, a, _FFT_WORKERS)
    return made


def _column_analysis(a: np.ndarray) -> np.ndarray:
    """The column pass of an analysis: the forward, unscaled transform of
    ``a`` (grid, w) down axis 0, in place, as ``rfft2`` makes it after its
    row pass."""
    return _pocketfft.c2c(a, (0,), True, _UNSCALED, a, _FFT_WORKERS)


class _RowPasses:
    """The row passes of real transforms on a ``grid x length`` mesh (rows
    of ``length`` points), over slabs of at most ``_SLAB_ROWS`` rows, in one
    slab of scratch.

    :meth:`synthesis` completes a slab of rows left by
    :func:`_column_synthesis` (whose column pass ran at ``grid`` points)
    into their real samples, and :meth:`analysis` takes a slab of samples
    back to the first columns of their coefficients.  Each row is
    transformed on its own, so the passes over every slab of a mesh are
    bitwise the row passes of ``irfft2`` and of ``rfft2`` with
    ``s=(grid, length)``, and no array of the mesh's size is made.

    The scratch is a (``_SLAB_ROWS``, length/2 + 1) complex slab of
    spectra, zero beyond the columns the last synthesis copied in, so that
    a slab of narrower rows is padded by that copy alone, and ``slots``
    separate (``_SLAB_ROWS``, length + 2) real slabs in the in-place
    real-transform layout: a row's ``length`` samples are the first
    ``length`` of its ``length + 2`` doubles, which also hold its
    length/2 + 1 coefficients.  A synthesis writes its samples into a slot,
    out of place; an analysis reads them there and writes the coefficients
    over them.  The last two doubles of every row are zero between calls,
    so arithmetic may run on a slot's whole rows, which are contiguous:
    numpy would copy a strided operand through buffers.
    """

    def __init__(self, grid: int, length: int, slots: int) -> None:
        self.grid = grid
        self.length = length
        self.spectra = np.zeros((_SLAB_ROWS, length // 2 + 1), dtype=np.complex128)
        self.live = 0  # the spectra's columns from here on are zero
        self.slots = [np.zeros((_SLAB_ROWS, length + 2)) for _ in range(slots)]

    def synthesis(self, rows: np.ndarray, slot: int) -> np.ndarray:
        """Synthesize the n <= ``_SLAB_ROWS`` rows whose k2 >= 0 halves begin
        with ``rows`` (n, w), w <= length/2, and are zero beyond into
        ``slot``, and return the slot's first n rows, (n, length + 2): their
        first ``length`` columns are the samples, bitwise the row pass of
        ``irfft2``, and their last two are zero."""
        n, w = rows.shape
        if w < self.live:
            self.spectra[:, w : self.live] = 0.0
        self.live = w
        spectra = self.spectra[:n]
        spectra[:, :w] = rows
        out = self.slots[slot][:n]
        _pocketfft.c2r(spectra, (-1,), self.length, False, _UNSCALED, out[:, : self.length],
                       _FFT_WORKERS)
        return out

    def analysis(self, slot: int, out: np.ndarray) -> None:
        """Analyse the samples in the first n rows of ``slot`` in place and
        write the first w columns of their coefficients, times
        1/(grid * length), into ``out`` (n, w): bitwise the row pass of
        ``rfft2`` and its ``norm="forward"`` factor, which ``rfft2`` applies
        between its passes (a forward-normalised pass on each axis would
        differ in the last bits).  The slot's rows are left zero in their
        last two doubles."""
        n, w = out.shape
        rows = self.slots[slot][:n]
        half = rows.view(np.complex128)
        _pocketfft.r2c(rows[:, : self.length], (-1,), True, _UNSCALED, half, _FFT_WORKERS)
        rows *= 1.0 / (self.grid * self.length)
        out[...] = half[:, :w]
        half[:, -1] = 0.0


def _slab_samples(cols: np.ndarray, length: int) -> Iterator[np.ndarray]:
    """The real samples of a ``grid x length`` mesh, grid = ``cols.shape[0]``,
    a slab of at most ``_SLAB_ROWS`` rows at a time, from the leading
    columns ``cols`` (grid, w), w <= length/2, of its k2 >= 0 half, whose
    other columns are zero.

    The column pass runs in place in ``cols``, and the row passes through
    one :class:`_RowPasses` slot, so each (n, length) slab yielded is a view
    that the next overwrites.  The slabs in order are bitwise the rows of
    :func:`_half_synthesis` of that half, with no array of the mesh's size
    made.
    """
    grid = cols.shape[0]
    _pocketfft.c2c(cols, (0,), False, _UNSCALED, cols, _FFT_WORKERS)
    passes = _RowPasses(grid, length, 1)
    for top in range(0, grid, _SLAB_ROWS):
        yield passes.synthesis(cols[top : top + _SLAB_ROWS], 0)[:, :length]
