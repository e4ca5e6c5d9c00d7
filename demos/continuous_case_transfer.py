"""Transferring discrete eigenvalue results to the continuous-time problem.

Continuous-case concentration eigenvalues at half time-bandwidth product c
are approached by discrete instances (N, c/(pi N)) as N grows, with the gap
certified by delta = 4c^3/(3 pi N^3 sin(2c/N)). The script estimates the
continuous eigenvalues around the plunge for c = 50 pi from two proxy
dimensions, confirms they agree within the certified radii, and brackets the
continuous transition width against its closed-form bound.

Run: python demos/continuous_case_transfer.py
"""

import math

import numpy as np

from prolate import pswf_eig_envelope, pswf_proxy, pswf_width_bound
from prolate.spectrum import proxy_width_interval

c = math.pi * 50.0
print(f"c = 50 pi, time-bandwidth count 2c/pi = {2 * c / math.pi:.0f}")

proxies = {n: pswf_proxy(c, 90, 110, n) for n in (2000, 4000)}
for n, proxy in proxies.items():
    print(f"proxy N = {n}: certified radius delta = {proxy.delta:.4e}")
gap = np.max(np.abs(proxies[2000].lam - proxies[4000].lam))
cap = proxies[2000].delta + proxies[4000].delta
print(f"max disagreement between proxies = {gap:.4e} <= delta sum {cap:.4e}")

print("\nplunge estimates with their envelopes (widened by delta):")
proxy = proxies[4000]
print(f"{'k':>5} {'estimate':>12} {'lower-delta':>12} {'upper+delta':>12}")
for k, lam in proxy.entries:
    if 96 <= k <= 104:
        env = pswf_eig_envelope(c, k)
        print(f"{k:>5} {lam:>12.6f} {max(env.lower - proxy.delta, 0):>12.6f} "
              f"{min(env.upper + proxy.delta, 1):>12.6f}")

print("\ncontinuous transition width, bracketed by delta-adjusted counts:")
for eps in (1e-2, 1e-3):
    lo, hi, _ = proxy_width_interval(c, eps, 4000)
    bound = pswf_width_bound(c, eps)
    hi_text = hi if hi is not None else "unresolved (eps <= delta)"
    print(f"  eps = {eps:.0e}: width in [{lo}, {hi_text}], bound {bound.integer} "
          f"(real {bound.value:.3f})")
