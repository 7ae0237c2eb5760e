"""Spectral laboratory for the stationary quasi-geostrophic fixed point.

The package splits along the structure of the problem theta = Lf + B[theta,
theta]: lattices and transforms (``spectral``), dyadic rings and Besov norms
(``besov``), the bilinear form in its three equivalent realizations
(``bilinear``), the Picard solver with its sampled constants (``solver``),
the structured forcing families (``forcing``), the growth diagnostics
(``diagnostics``), and the named experiment pipelines behind the ``sqglab``
command (``runner``/``cli``).
"""

from .besov import (
    BesovIndex,
    DyadicPartition,
    ProbeFunction,
    besov_norm,
    build_partition,
    build_probe,
    lp_norm,
    shell_project,
)
from .bilinear import (
    bilinear_block,
    bilinear_quadrature,
    coupling_tensor,
    quadratic_diagonal,
)
from .diagnostics import (
    InflationReport,
    SplitSample,
    inflation_profile,
    low_frequency_floor,
    low_frequency_profile,
    second_iterate_split,
)
from .forcing import (
    ExponentMap,
    ForceSpec,
    block_envelope,
    calibrate_stride,
    lacunary_force,
    modulated_bump_force,
    translated_block_force,
)
from .runner import EXPERIMENTS, ExperimentConfig, run_experiment
from .sampling import (
    hermitian_symmetrize,
    random_mean_zero_field,
    single_shell_field,
    unit_normalize,
)
from .solver import (
    ConstantsReport,
    IterationTrace,
    SolveConfig,
    bilinear_ratio,
    estimate_constants,
    perturbation_solve,
    picard_solve,
)
from .spectral import (
    FrequencyLattice,
    SpectralField,
    dyadic_rescale,
    inverse_laplacian,
    neg_laplacian,
    riesz_velocity,
    set_fft_workers,
    strip_unpaired_edge,
)

__version__ = "0.1.0"

__all__ = [
    "BesovIndex",
    "ConstantsReport",
    "DyadicPartition",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExponentMap",
    "ForceSpec",
    "FrequencyLattice",
    "InflationReport",
    "IterationTrace",
    "ProbeFunction",
    "SolveConfig",
    "SpectralField",
    "SplitSample",
    "besov_norm",
    "bilinear_block",
    "bilinear_quadrature",
    "bilinear_ratio",
    "block_envelope",
    "build_partition",
    "build_probe",
    "calibrate_stride",
    "coupling_tensor",
    "dyadic_rescale",
    "estimate_constants",
    "hermitian_symmetrize",
    "inflation_profile",
    "inverse_laplacian",
    "lacunary_force",
    "low_frequency_floor",
    "low_frequency_profile",
    "lp_norm",
    "modulated_bump_force",
    "neg_laplacian",
    "perturbation_solve",
    "picard_solve",
    "quadratic_diagonal",
    "random_mean_zero_field",
    "riesz_velocity",
    "run_experiment",
    "second_iterate_split",
    "set_fft_workers",
    "shell_project",
    "single_shell_field",
    "strip_unpaired_edge",
    "translated_block_force",
    "unit_normalize",
    "__version__",
]
