"""Forcing families that drive the inflation experiments.

All three families modulate an envelope up to high carrier frequencies
along e1:

* ``modulated_bump_force``: a single modulated bump (a smooth radial bump
  equal to 1 inside the unit ball, vanishing outside radius 2), spectrum
  in the annulus of width 2 around the carrier;
* ``lacunary_force``: a sum of modulated bumps on widely separated
  carriers with 1/sqrt(n) weights;
* ``translated_block_force``: a sum of translated partition blocks as the
  envelope, modulated by a single carrier.

Every envelope exists only on its box, which is added into one zero
array of a half spectrum's first columns, as many as the boxes reach: a
bump on its ball's box, the block envelope on the box of its widest ring
(``_envelope_box``), placed at the rows of +-the carrier.
``envelope_l4_norm`` sums the block envelope on that box.

The paper's constructions place term n at the carrier exponent n**2.  That
law outruns any feasible lattice almost immediately (the fourth term's
carrier alone is 2**16), so the lab runs affine laws s(n) = scale*n + shift
(:class:`ExponentMap`), which keep the structural invariants the
constructions rely on: exponent sequences strictly increasing with gaps of
at least 2, carriers separated from envelope bands, every generated
frequency inside the lattice.  Reports echo the exponent maps they ran
with (:meth:`ExponentMap.describe`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .besov import box_lp_norm
from .profiles import SmoothStep
from .spectral import FrequencyLattice, SpectralField, _ball_box, strip_unpaired_edge

__all__ = [
    "ExponentMap",
    "ForceSpec",
    "modulated_bump_force",
    "lacunary_force",
    "shared_annulus_modes",
    "translated_block_force",
    "envelope_l4_norm",
    "calibrate_stride",
]


@dataclass(frozen=True)
class ExponentMap:
    """The integer exponent law s(n) = scale*n + shift, serializable for
    report embedding; built by :meth:`affine`.

    The paper's n**2 law puts its fourth carrier at 2**16, past any
    feasible lattice; an affine law with scale >= 2 keeps the gaps of at
    least 2 that the shell separation needs (:meth:`ForceSpec.validate`
    checks them).
    """

    scale: int
    shift: int

    def __post_init__(self) -> None:
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (self.scale, self.shift)):
            raise ValueError(f"exponent map scale and shift must be integers, "
                             f"got {self.scale!r} and {self.shift!r}")

    def __call__(self, n: int) -> int:
        return self.scale * n + self.shift

    def describe(self) -> dict:
        return {"kind": "affine", "scale": self.scale, "shift": self.shift}

    @classmethod
    def affine(cls, scale: int, shift: int = 0) -> "ExponentMap":
        return cls(scale, shift)


_VARIANTS = ("bump", "lacunary", "blocks")


@dataclass(frozen=True)
class ForceSpec:
    """Parameters of one forcing construction.

    ``size`` plays the role of the asymptotic parameter N; ``delta`` the
    overall amplitude (the smallness regime of interest is delta <=
    1/100).  ``carrier_exponent`` defaults to ``size`` for the bump
    variant and to ``exponents(size)`` for the blocks variant.
    ``block_range`` = (k0, k1) selects which terms of the exponent map are
    active; ``stride`` is the physical translation unit of the blocks
    variant, usually produced by :func:`calibrate_stride`.  With
    ``equal_shell`` set, every block of the blocks variant uses that one
    partition shell (equal shapes; translations still follow the exponent
    map), the degenerate family whose L4 mass is exactly additive once the
    translations separate.  The probes that read a blocks forcing's second
    iterate are no part of it: their gap is an argument of
    :func:`~sqglab.diagnostics.inflation_profile`.
    """

    variant: str
    delta: float = 0.01
    size: int = 4
    carrier_exponent: int | None = None
    exponents: ExponentMap = ExponentMap.affine(2, 0)
    block_range: tuple[int, int] | None = None
    stride: float | None = None
    equal_shell: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown forcing variant {self.variant!r}; pick one of {_VARIANTS}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.variant in ("lacunary", "blocks"):
            if self.block_range is None:
                raise ValueError(f"the {self.variant} variant needs an explicit block_range")
            k0, k1 = self.block_range
            if not (1 <= k0 <= k1):
                raise ValueError(f"block_range {self.block_range} must satisfy 1 <= k0 <= k1")
            if self.size < 2:
                raise ValueError(
                    f"the {self.variant} variant needs size >= 2 (its amplitude "
                    "carries a log(size) factor)"
                )

    @property
    def carrier(self) -> int:
        if self.carrier_exponent is not None:
            return self.carrier_exponent
        if self.variant == "blocks":
            return self.exponents(self.size)
        return self.size

    def block_indices(self) -> list[int]:
        if self.block_range is None:
            return []
        return list(range(self.block_range[0], self.block_range[1] + 1))

    def block_exponents(self) -> list[int]:
        return [self.exponents(n) for n in self.block_indices()]

    def block_shells(self) -> list[int]:
        """Partition shell of each block (the exponent, or the shared one)."""
        if self.equal_shell is not None:
            return [self.equal_shell] * len(self.block_indices())
        return self.block_exponents()

    # -- validation ----------------------------------------------------------

    def validate(self, lattice: FrequencyLattice) -> None:
        """Reject any spec whose spectrum cannot live on the lattice.

        Every failure mode gets its own message so configuration errors
        surface before any transform runs.
        """
        xi_max = lattice.xi_max
        if self.variant == "bump":
            c = self.carrier
            if c < 2:
                raise ValueError(
                    f"carrier exponent {c} is too small: the support annulus "
                    "[2**c - 2, 2**c + 2] must stay away from frequency zero"
                )
            if 2.0**c + 2.0 > xi_max:
                raise ValueError(
                    f"carrier frequency 2**{c} + 2 exceeds the lattice Nyquist "
                    f"{xi_max:g}; enlarge the lattice or lower the carrier"
                )
            return

        exps = self.block_exponents()
        for prev, nxt in zip(exps, exps[1:]):
            if nxt - prev < 2:
                raise ValueError(
                    f"exponent map violates shell separation: consecutive "
                    f"exponents {prev}, {nxt} differ by less than 2"
                )

        if self.variant == "lacunary":
            for n, s in zip(self.block_indices(), exps):
                if s < 1:
                    raise ValueError(
                        f"lacunary exponent s({n}) = {s} is too small: the "
                        "annulus around 2**s must stay away from frequency zero"
                    )
                if 2.0**s + 2.0 > xi_max:
                    raise ValueError(
                        f"lacunary carrier 2**{s} + 2 (term n = {n}) exceeds the "
                        f"lattice Nyquist {xi_max:g}"
                    )
            return

        # blocks variant
        c = self.carrier
        top = self.equal_shell if self.equal_shell is not None else max(exps)
        if c < top + 2:
            raise ValueError(
                f"carrier exponent {c} must exceed the top block shell {top} "
                "by at least 2 to keep the modulated band separated from the envelope"
            )
        if 2.0**c + 2.0 ** (top + 1) > xi_max:
            raise ValueError(
                f"modulated band 2**{c} + 2**{top + 1} exceeds the lattice "
                f"Nyquist {xi_max:g}"
            )
        carrier_steps = 2.0**c / lattice.h_xi
        if abs(carrier_steps - round(carrier_steps)) > 1e-9:
            raise ValueError(
                f"carrier 2**{c} is not an integer multiple of h_xi = "
                f"{lattice.h_xi:g}, so the modulation is not exact on this lattice"
            )
        if self.stride is not None:
            _check_translations(lattice, self.stride, exps)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

_BUMP_PROFILE = SmoothStep(1.0, 2.0)


def _bump_boxes(lattice: FrequencyLattice, carrier: float):
    """The k2 >= 0 boxes (rows, columns, offset radius) of the balls of
    radius 2 around +-``carrier`` e1 (:func:`~sqglab.spectral._ball_box`),
    outside of which chi-hat(xi -+ carrier e1) vanishes."""
    h = lattice.m // 2
    for centre in (carrier, -carrier):
        rows, cols, r = _ball_box(lattice, (centre, 0.0), 2.0)
        keep = cols < h
        yield rows, cols[keep], r[:, keep]


def shared_annulus_modes(lattice: FrequencyLattice, exponents: list[int]) -> int:
    """Lattice modes that two carrier annuli share, summed over the pairs.

    Annulus s holds the modes within (open) radius 2 of +-2**s e1, the
    support of a lacunary term.  Each is collected on its bumps' boxes,
    so the count is exactly that of full-lattice masks at a box's cost.
    The two balls of an annulus are disjoint once their centres are 4
    apart (s >= 1), and only nearer ones are deduplicated: ``np.unique``
    (behind ``np.union1d``) would import ``numpy.ma`` into the run.
    """
    m = lattice.m
    annuli = []
    for s in exponents:
        c = 2.0**s
        plus, minus = ((rows[:, None] * m + cols)[r < 2.0]
                       for rows, cols, r in (_ball_box(lattice, (x, 0.0), 2.0) for x in (c, -c)))
        if c < 2.0:
            minus = np.setdiff1d(minus, plus, assume_unique=True)
        annuli.append(np.concatenate((plus, minus)))
    return sum(
        np.intersect1d(a, b, assume_unique=True).size
        for i, a in enumerate(annuli)
        for b in annuli[i + 1 :]
    )


def _bump_sum(lattice: FrequencyLattice, terms) -> SpectralField:
    """The field sum over ``terms`` (s, amp) of (amp / 2) [chi-hat(xi - 2**s
    e1) + chi-hat(xi + 2**s e1)], for a spec the caller has validated.

    Each bump is evaluated only on its ball's box (:func:`_bump_boxes`),
    which the spec's validation keeps disjoint, and added in term order
    into an array as wide as the boxes' columns; the values are bitwise
    those of the formula evaluated on every mode, scaled and added.
    """
    if lattice.h_xi > 0.25:
        raise ValueError(
            f"lattice too coarse to resolve the unit bump: h_xi = {lattice.h_xi:g} > 1/4"
        )
    boxes = [(0.5 * amp, box) for s, amp in terms for box in _bump_boxes(lattice, 2.0**s)]
    width = max((int(cols.max(initial=-1)) + 1 for _, (_, cols, _) in boxes), default=0)
    coeffs = np.zeros((lattice.m, width), dtype=np.complex128)
    for amp, (rows, cols, r) in boxes:
        coeffs[np.ix_(rows, cols)] += amp * _BUMP_PROFILE(r)
    return SpectralField._adopt(lattice, strip_unpaired_edge(coeffs))


def modulated_bump_force(lattice: FrequencyLattice, spec: ForceSpec) -> SpectralField:
    """Single bump carried to frequency 2**carrier along e1.

    Coefficients are (delta 2**(5c/2) / 2) [chi(xi - 2**c e1) + chi(xi +
    2**c e1)]; the support annulus [2**c - 2, 2**c + 2] is exact.
    """
    if spec.variant != "bump":
        raise ValueError(f"expected a bump spec, got variant {spec.variant!r}")
    spec.validate(lattice)
    return _bump_sum(lattice, [(spec.carrier, spec.delta * 2.0 ** (2.5 * spec.carrier))])


def _lacunary_terms(spec: ForceSpec) -> list[tuple[int, int, float]]:
    """``(n, s(n), amplitude)`` of each term of a lacunary spec."""
    log_weight = math.sqrt(math.log(spec.size))
    return [(n, s, spec.delta * 2.0 ** (2.5 * s) / (math.sqrt(n) * log_weight))
            for n, s in zip(spec.block_indices(), spec.block_exponents())]


def lacunary_force(lattice: FrequencyLattice, spec: ForceSpec) -> SpectralField:
    """Sum of modulated bumps on the exponent sequence with 1/sqrt(n) weights.

    Term n carries amplitude delta 2**(5 s(n)/2) / (sqrt(n) sqrt(ln size))
    (:func:`_lacunary_terms`); the shell-separation invariant makes the
    supporting annuli pairwise disjoint.  The logarithm is the natural one.
    """
    if spec.variant != "lacunary":
        raise ValueError(f"expected a lacunary spec, got variant {spec.variant!r}")
    spec.validate(lattice)
    return _bump_sum(lattice, [(s, amp) for _, s, amp in _lacunary_terms(spec)])


def _check_translations(lattice: FrequencyLattice, stride: float, exps: list[int]) -> None:
    if not stride > 0:
        raise ValueError(f"stride must be positive, got {stride}")
    box = lattice.box_length
    positions = [(stride * s) % box for s in exps]
    for i, a in enumerate(positions):
        for b in positions[i + 1 :]:
            gap = abs(a - b)
            if min(gap, box - gap) < lattice.dx:
                raise ValueError(
                    f"translation collision: blocks at {a:.4g} and {b:.4g} "
                    f"coincide modulo the box (stride {stride:g})"
                )


def _envelope_box(lattice: FrequencyLattice, spec: ForceSpec) -> np.ndarray:
    """The block envelope sum_k 2**(-3 j(k)/2) phi_{j(k)}(x - stride*s(k) e1)
    on its box: complex (2K+1, K+1), entry ``[K + k1, k2]`` the coefficient
    at mode (k1, k2), rows k1 = -K .. K and columns k2 = 0 .. K, with K the
    widest ring's extent short of the unpaired k = -m/2 edge.

    The shell j(k) is the exponent s(k), or the shared ``equal_shell``
    when set; the weight makes every block carry the same L4 mass (the
    block at shell j scales like 2**(2j) in height and 2**(-j) in width).
    Each block is the :meth:`~sqglab.besov.DyadicPartition.ring_quadrant`
    of the lattice's partition, mirrored onto its rows, cast to complex,
    twisted by the translation phase exp(-i xi1 stride s) and added in
    block order: the per-mode operations of the same sum taken over the
    whole lattice.  The envelope never touches the carrier, so only the
    stride geometry and the shell window are checked here; the carrier
    checks belong to :func:`translated_block_force`.
    """
    if spec.variant != "blocks":
        raise ValueError(f"expected a blocks spec, got variant {spec.variant!r}")
    if spec.stride is None:
        raise ValueError("block envelope needs a stride; run calibrate_stride first")
    _check_translations(lattice, spec.stride, spec.block_exponents())
    shells = spec.block_shells()
    partition = lattice.partition
    for j in shells:
        if not (partition.j_min <= j <= partition.j_max):
            raise ValueError(
                f"block shell {j} falls outside the partition window "
                f"[{partition.j_min}, {partition.j_max}]"
            )
    extent = min(max(partition.ring_extent(j) for j in shells), lattice.m // 2 - 1)
    box = np.zeros((2 * extent + 1, extent + 1), dtype=np.complex128)
    for s, j in zip(spec.block_exponents(), shells):
        k = min(partition.ring_extent(j), extent)
        quadrant = partition.ring_quadrant(j)[: k + 1, : k + 1]
        ring = np.concatenate((quadrant[:0:-1], quadrant)).astype(np.complex128)
        xi = lattice.xi_axis[np.arange(-k, k + 1) % lattice.m]
        box[extent - k : extent + k + 1, : k + 1] += 2.0 ** (-1.5 * j) * (
            ring * np.exp(-1j * xi[:, None] * (spec.stride * s)))
    return box


def translated_block_force(lattice: FrequencyLattice, spec: ForceSpec) -> SpectralField:
    """The block envelope modulated by the carrier: amp * envelope(x)
    cos(2**c x1), with amp = delta 2**(5c/2) / (size**(1/4) ln(size)).

    The modulation is an exact spectral shift: the envelope's box
    (:func:`_envelope_box`) is added into a zero (m, K + 1) array at rows
    +-S, S = 2**c / h_xi carrier steps, so the forcing's band
    [2**c - B, 2**c + B] (B the envelope bandwidth) is exact.  The box's
    extent K is that of a ring at shell at most ``top`` (the top block
    shell), which vanishes from radius 1.75 * 2**top on, so
    K h_xi < 1.75 * 2**top.  :meth:`ForceSpec.validate` asks c >= top + 2
    and 2**c + 2**(top + 1) <= xi_max = h_xi m/2.  Hence (S + K) h_xi <
    2**c + 2**(top + 1) <= xi_max, so every row stays strictly inside
    +-m/2, and (S - K) h_xi > 4 * 2**top - 1.75 * 2**top > 0, so the copy
    at +S lies in rows > 0 and the one at -S in rows < 0: the two never
    overlap.  Rows that would cross are refused, never wrapped.
    """
    spec.validate(lattice)
    box = _envelope_box(lattice, spec)
    extent = box.shape[1] - 1
    steps = int(round(2.0**spec.carrier / lattice.h_xi))
    if not extent < steps < lattice.m // 2 - extent:
        raise ValueError(
            f"envelope rows {steps} +- {extent} cross the origin or the "
            f"k = -{lattice.m // 2} edge"
        )
    amp = spec.delta * 2.0 ** (2.5 * spec.carrier) / (spec.size**0.25 * math.log(spec.size))
    box *= 0.5 * amp
    out = np.zeros((lattice.m, extent + 1), dtype=np.complex128)
    for centre in (steps, lattice.m - steps):  # rows +S and -S in FFT order
        out[centre - extent : centre + extent + 1] += box
    return SpectralField._adopt(lattice, strip_unpaired_edge(out))


def envelope_l4_norm(lattice: FrequencyLattice, spec: ForceSpec) -> float:
    """L4 norm of the block envelope of ``spec``, summed by
    :func:`~sqglab.besov.box_lp_norm` on its box (:func:`_envelope_box`),
    completed with the k2 < 0 columns, the conjugates of the stored
    ``c(-k)``."""
    box = _envelope_box(lattice, spec)
    extent = box.shape[1] - 1
    return box_lp_norm(np.concatenate((np.conj(box[::-1, extent:0:-1]), box), axis=1),
                       lattice, 4.0)


def calibrate_stride(lattice: FrequencyLattice, spec: ForceSpec) -> float:
    """Smallest doubling-search stride giving near-disjoint block L4 masses.

    Doubles the stride from one grid cell until the envelope's L4 norm to
    the fourth power agrees with the sum of the isolated blocks' fourth
    powers to within 5% on both sides; raises when no stride inside
    the box achieves that (blocks too wide for the geometry).  The bound
    must be two-sided: overlapping blocks add coherently, so a tiny stride
    exceeds the disjoint sum by orders of magnitude and only genuine
    separation brings the mass back down to it.  Masses are
    :func:`envelope_l4_norm`, a lone block's once per distinct shell.
    """
    if spec.variant != "blocks":
        raise ValueError(f"expected a blocks spec, got variant {spec.variant!r}")
    masses: dict[int, float] = {}
    target = 0.0
    for n, j in zip(spec.block_indices(), spec.block_shells()):
        if j not in masses:
            one = replace(spec, block_range=(n, n), stride=lattice.dx)
            masses[j] = envelope_l4_norm(lattice, one) ** 4
        target += masses[j]

    stride = lattice.dx
    box = lattice.box_length
    exps = spec.block_exponents()
    span = max(1, max(abs(s) for s in exps))
    while stride * span < box:
        try:
            _check_translations(lattice, stride, exps)
        except ValueError:
            stride *= 2.0
            continue
        mass = envelope_l4_norm(lattice, replace(spec, stride=stride)) ** 4
        if abs(mass - target) <= 0.05 * target:
            return stride
        stride *= 2.0
    raise ValueError(
        "no stride reaches near-disjoint blocks inside the box: the block "
        "tails overlap at every admissible translation; use fewer blocks or "
        "a larger box (smaller h_xi)"
    )
