"""Watch the fixed-point iteration contract, then push it past the ball.

First run: a small forcing well inside the measured contraction ball.
The trace prints one line per iteration with the monitoring norm, the
update ratio, and the residual of the stationary equation.  Second run:
the same forcing scaled far outside the ball, which the solver reports
as divergence instead of raising.
"""

from sqglab.solver import SolveConfig, picard_solve
from sqglab.spectral import FrequencyLattice, SpectralField

lat = FrequencyLattice(m=64, h_xi=0.25)
cfg = SolveConfig(max_iter=40)

forcing = 0.01 * (
    SpectralField.cosine(lat, (4, 0)) + SpectralField.cosine(lat, (4, 4))
)

for amplitude, label in ((1.0, "inside the ball"), (20000.0, "far outside")):
    theta, trace = picard_solve(amplitude * forcing, cfg)
    print(f"\n{label}: verdict {trace.verdict!r} after {len(trace.norms)} steps")
    print("  step   norm           ratio      pde residual")
    for i, norm in enumerate(trace.norms):
        ratio = "" if i == 0 else f"{trace.ratios[i - 1]:.4g}"
        print(f"  {i + 1:4d}   {norm:<13.6g}  {ratio:<9s}  {trace.pde_residuals[i]:.3e}")
        if i >= 9 and len(trace.norms) > 12:
            print(f"  ... ({len(trace.norms) - i - 1} more steps)")
            break
