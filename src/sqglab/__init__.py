"""Spectral laboratory for the stationary quasi-geostrophic fixed point.

The package splits along the structure of the problem theta = Lf + B[theta,
theta]: lattices and transforms (``spectral``), dyadic rings and Besov norms
(``besov``), the bilinear form in its three equivalent realizations
(``bilinear``), the Picard solver with its sampled constants (``solver``),
the structured forcing families (``forcing``), the growth diagnostics
(``diagnostics``), and the named experiment pipelines behind the ``sqglab``
command (``runner``/``cli``).  The package itself exports only
``__version__``; import from the submodules, as in ``from sqglab.spectral
import FrequencyLattice``.
"""

__version__ = "0.1.0"
