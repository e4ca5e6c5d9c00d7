"""Certified Chebyshev interpolation of shifted sinc kernels.

Interpolating g(t - n) at k Chebyshev nodes of the near-boundary interval
[-L1, -1] incurs an error bounded by the Chebyshev remainder times a closed
form for the k-th sinc derivative. Assembling the interpolants column by
column yields a rank-k surrogate of the near boundary block whose Frobenius
error is capped by sqrt(5600/pi) (pi/48)^k, independent of N and W.

Run: python demos/chebyshev_sinc_lowrank.py
"""

import numpy as np

from prolate import (
    ProlateParams,
    cheb_interpolate,
    interpolation_error_bound,
    lowrank_block_approx,
    sinc_derivative_bound,
    sinc_kernel,
)
from prolate.kernel import near_block_rows

w = 1.0 / 32.0
l1 = near_block_rows(w)
a, b = -float(l1), -1.0

print(f"derivative caps (W = {w}): |g^(k)(t)| <= (2 pi W)^k min(2W/(k+1), 2/(pi|t|))")
for k in range(4):
    print(f"  k = {k}: cap at t=0 -> {sinc_derivative_bound(w, k, 0.0):.4e}, "
          f"at t=10 -> {sinc_derivative_bound(w, k, 10.0):.4e}")

print(f"\ninterpolation of g(t - n) on [{a:.0f}, {b:.0f}], measured vs certified:")
grid = np.linspace(a, b, 2000)
print(f"{'n':>4} {'k':>3} {'measured':>14} {'certified':>14}")
for n in (0, 3, 50):
    for k in (2, 4, 6, 8):
        interp = cheb_interpolate(w, n, a, b, k)
        err = np.max(np.abs(sinc_kernel(w, grid - n) - interp(grid)))
        cap = interpolation_error_bound(w, n, a, b, k)
        print(f"{n:>4} {k:>3} {err:>14.6e} {cap:>14.6e}")

print("\nrank-k surrogate of the near boundary block (N = 512):")
print(f"{'k':>3} {'rank':>5} {'frobenius error':>16} {'cap':>14}")
for k in range(1, 9):
    rep = lowrank_block_approx(ProlateParams(512, w), k)
    rank = np.linalg.matrix_rank(rep.matrix, tol=1e-10)
    print(f"{k:>3} {rank:>5} {rep.frobenius_error:>16.6e} {rep.bound:>14.6e}")
