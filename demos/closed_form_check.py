"""Walk through the quadratic form on a field you can do by hand.

For theta = cos(x1) + cos(2 x2) the velocity is (sin 2x2, -sin x1), the
transport term collapses to sin(x1) sin(2 x2), and inverting the
Laplacian leaves exactly two output modes with weight 1/10.  The script
prints every nonzero coefficient next to the hand value, then repeats
the computation through all three bilinear routes on a random field to
show they are the same operator.
"""

import numpy as np

from sqglab.bilinear import bilinear_block, bilinear_quadrature, quadratic_diagonal
from sqglab.sampling import random_mean_zero_field
from sqglab.spectral import FrequencyLattice, SpectralField

lat = FrequencyLattice(m=32, h_xi=0.25)

theta = SpectralField.cosine(lat, (4, 0)) + SpectralField.cosine(lat, (0, 8))
result = quadratic_diagonal(theta)
want = 0.1 * (SpectralField.cosine(lat, (4, -8)) - SpectralField.cosine(lat, (4, 8)))

# a field stores the first columns of its k2 >= 0 half; the columns past
# them are zero, and fields of different widths are compared by subtraction
print("nonzero output modes (k1, k2, computed, hand value):")
for a, b in zip(*np.nonzero(np.abs(result.coeffs) > 1e-14)):
    k1, k2 = int(lat.k1[a, b]), int(lat.k2[a, b])
    print(f"  ({k1:3d}, {k2:3d})  {result.coeffs[a, b]: .12f}  {want.coeffs[a, b]: .12f}")
print(f"max coefficient error: {np.max(np.abs((result - want).coeffs)):.3e}")

rng = np.random.default_rng(0)
f = random_mean_zero_field(lat, rng, decay=1.5)
routes = {
    "quadrature": bilinear_quadrature(f, f),
    "block sum": bilinear_block(f, f),
    "diagonal fft": quadratic_diagonal(f),
}
scale = max(np.linalg.norm(v.coeffs) for v in routes.values())
print("\nthree routes on a random field (relative to the largest):")
for name, value in routes.items():
    gap = np.linalg.norm((value - routes["diagonal fft"]).coeffs) / scale
    print(f"  {name:12s} vs diagonal fft: {gap:.3e}")
