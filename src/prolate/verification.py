"""Invariant suites behind `prolate verify`.

Each suite returns a list of CheckResult records with stable identifiers, so
CI can pin on individual properties. Checks are deterministic for a fixed
seed.

``spectrum.rayleigh-parseval`` checks the route behind every eigenvalue: the
Parseval sums of ``spectrum._rayleigh_quotients`` against s^T B s and
s^T (I - B) s taken by ``math.fsum`` from the dense product, on seeded unit
vectors alternately even and odd about the middle, at odd and even N.

One :func:`run_suite` call keeps a store (:class:`_RunStore`) that the suites
share: each instance's dense spectrum, its full tridiagonal spectrum (orders
0..N-1) and each boundary matrix's singular values are computed at most once
per run. The store holds those results only, never a matrix, and dies with
the run, so a second call computes everything again. Trace and
route-agreement read one dense spectrum per ``SPECTRUM_GRID`` instance;
ordering, route-agreement, sum-containment and envelope-containment read one
tridiagonal spectrum per instance (envelope-containment builds no dense
matrix); norm-cap and sv-decay read one SVD. Interlacing and the proxy check
solve their own short slices, so no check's numbers depend on which suites
ran.

A check that runs over every order of an instance evaluates the instance's
law once: envelope-containment and sum-containment take
``bounds._discrete_law`` per instance and call ``bounds._envelope`` and
``bounds._sum_bound``, the functions behind ``eig_envelope`` and
``sum_bounds_cor2``, for each order. Likewise the chebsinc checks build one
interpolant per (W, k) that carries all their shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import chebsinc as cs
from . import displacement as disp
from . import spectrum as spec
from .errors import ParameterError
from .kernel import (
    RESOLUTION_FLOOR,
    ProlateParams,
    _at_least,
    build_prolate_matrix,
    near_block_rows,
    sinc_identity_residual,
    sinc_identity_tail_bound,
    sinc_kernel,
)

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES"]

SUITE_NAMES = ("spectrum", "bounds", "displacement", "chebsinc", "all")

SPECTRUM_GRID = [(64, 0.05), (64, 0.125), (64, 0.25), (64, 0.4),
                 (256, 0.05), (256, 0.125), (256, 0.25), (256, 0.4),
                 (512, 0.05), (512, 0.125), (512, 0.25), (512, 0.4)]

BOUNDS_GRID_N = (256, 512, 1000)
BOUNDS_GRID_W = (0.05, 0.125, 0.25, 0.35)
BOUNDS_GRID_EPS = (1e-2, 1e-3, 1e-8)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"id": self.check_id, "passed": self.passed, "detail": self.detail}


def _result(check_id: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(check_id, bool(passed), detail)


class _RunStore:
    """Spectra and singular values of one verify run, each computed on first use."""

    def __init__(self):
        self._dense: dict[ProlateParams, spec.SpectrumSlice] = {}
        self._full: dict[ProlateParams, spec.SpectrumSlice] = {}
        self._sv: dict[tuple[ProlateParams, int], np.ndarray] = {}

    def dense(self, p: ProlateParams) -> spec.SpectrumSlice:
        if p not in self._dense:
            self._dense[p] = spec.dense_spectrum(p)
        return self._dense[p]

    def full(self, p: ProlateParams) -> spec.SpectrumSlice:
        """Orders 0..N-1 by the tridiagonal route."""
        if p not in self._full:
            self._full[p] = spec.tridiagonal_spectrum(p, 0, p.n - 1)
        return self._full[p]

    def singular_values(self, p: ProlateParams, L: int) -> np.ndarray:
        """Singular values of the boundary matrix X_L, descending."""
        if (p, L) not in self._sv:
            self._sv[p, L] = disp.build_xl(p, L).singular_values()
        return self._sv[p, L]


# ---------------------------------------------------------------- spectrum --


def _check_sinc_bound(rng) -> CheckResult:
    worst = 0.0
    for w in (0.05, 0.125, 0.3, 0.49):
        d = np.unique(np.concatenate([[1, 2, 3], rng.integers(1, 1 << 20, 200)]))
        g = np.abs(sinc_kernel(w, d))
        cap = np.minimum(2.0 * w, 2.0 / (math.pi * d))
        worst = max(worst, float(np.max(g - cap * (1.0 + 1e-12))))
    return _result("kernel.sinc-bound", worst <= 0.0, f"max excess {worst:.3e}")


def _check_rayleigh_parseval(rng) -> CheckResult:
    worst = 0.0
    signs = np.tile([1.0, -1.0], 12)  # the columns' parities, even first as for k0 = 0
    for n in (7, 64, 257, 1024):
        p = ProlateParams(n, 0.21)
        x = rng.standard_normal((n, 24))
        s = 0.5 * (x + signs * x[::-1])  # exactly even or odd
        s /= np.linalg.norm(s, axis=0)
        b = build_prolate_matrix(p)
        # column by column: a matrix product would have BLAS allocate a workspace
        bs = np.stack([b @ col for col in s.T], axis=1)
        for reflected, ks in ((False, bs), (True, s - bs)):
            got = spec._rayleigh_quotients(p, s, reflected, 0)
            want = [math.fsum(col) for col in (s * ks).T.tolist()]
            worst = max(worst, float(np.max(np.abs(got - want))))
    return _result(
        "spectrum.rayleigh-parseval", worst <= 1e-13, f"max |parseval - dense| {worst:.3e}"
    )


def _check_sinc_identity(rng) -> CheckResult:
    ok = True
    worst = ""
    for w, m, n, L in [(0.125, 0, 3, 2000), (0.2, 2, 2, 1000), (0.45, -4, 7, 3000)]:
        res = sinc_identity_residual(w, m, n, L)
        cap = sinc_identity_tail_bound(m, n, L)
        if res > cap:
            ok = False
            worst = f"(w={w}, m={m}, n={n}, L={L}): {res:.3e} > {cap:.3e}"
    return _result("kernel.sinc-identity", ok, worst or "residuals below analytic tails")


def _check_prolate_symmetry() -> CheckResult:
    b = build_prolate_matrix(ProlateParams(128, 0.3))
    sym = np.array_equal(b, b.T)
    offs = [np.ptp(np.diagonal(b, off)) == 0.0 for off in range(128)]
    return _result("kernel.prolate-structure", sym and all(offs), "bit-equal symmetric Toeplitz")


def _check_trace(store: _RunStore) -> CheckResult:
    worst = 0.0
    for n, w in SPECTRUM_GRID:
        lam = store.dense(ProlateParams(n, w))
        err = abs(lam.sum_lambdas() - 2.0 * n * w) / (2.0 * n * w)
        worst = max(worst, err)
    return _result("spectrum.trace", worst <= 1e-9, f"max rel trace error {worst:.3e}")


def _check_ordering(store: _RunStore) -> CheckResult:
    worst = math.inf
    for n, w in [(256, 0.125), (512, 0.4)]:
        slc = store.full(ProlateParams(n, w))
        worst = min(float(np.min(-np.diff(slc.lam))), worst)  # adjacent drops, want >= 0
    return _result("spectrum.ordering", worst > -1e-13, f"min adjacent drop {worst:.3e}")


def _check_interlacing() -> CheckResult:
    ok = True
    detail = []
    for n, w in SPECTRUM_GRID + [(1000, 0.125)]:
        p = ProlateParams(n, w)
        fl, ce = p.tbp_floor, p.tbp_ceil
        ks = [k for k in (fl - 1, min(ce, n - 1)) if 0 <= k <= n - 1]
        slc = spec.tridiagonal_spectrum(p, min(ks), max(ks))
        if fl - 1 >= 0 and slc.lam_at(fl - 1) < 0.5 - 1e-10:
            ok = False
            detail.append(f"lam_{fl - 1}({n},{w}) = {slc.lam_at(fl - 1)} < 1/2")
        if ce <= n - 1 and slc.lam_at(ce) > 0.5 + 1e-10:
            ok = False
            detail.append(f"lam_{ce}({n},{w}) = {slc.lam_at(ce)} > 1/2")
    return _result("spectrum.interlacing", ok, "; ".join(detail) or "midpoint split holds")


def _check_symmetry(store: _RunStore) -> CheckResult:
    worst = 0.0
    for n, w in [(64, 0.05), (257, 0.125), (512, 0.22)]:
        a = store.dense(ProlateParams(n, w))
        b = store.dense(ProlateParams(n, 0.5 - w))
        worst = max(worst, float(np.max(np.abs(b.lam - (1.0 - a.lam[::-1])))))
    return _result("spectrum.symmetry", worst <= 1e-10, f"max |reflection defect| {worst:.3e}")


def _check_route_agreement(store: _RunStore) -> CheckResult:
    worst = 0.0
    for n, w in SPECTRUM_GRID:
        p = ProlateParams(n, w)
        worst = max(worst, float(np.max(np.abs(store.dense(p).lam - store.full(p).lam))))
    return _result("spectrum.route-agreement", worst <= 1e-10, f"max |dense - trid| {worst:.3e}")


def suite_spectrum(seed: int, store: _RunStore) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        _check_sinc_bound(rng),
        _check_rayleigh_parseval(rng),
        _check_sinc_identity(rng),
        _check_prolate_symmetry(),
        _check_trace(store),
        _check_ordering(store),
        _check_interlacing(),
        _check_symmetry(store),
        _check_route_agreement(store),
    ]


# ------------------------------------------------------------------ bounds --


def _check_width_vs_bounds() -> CheckResult:
    bad = []
    for n in BOUNDS_GRID_N:
        for w in BOUNDS_GRID_W:
            for report in spec.transition_widths(ProlateParams(n, w), BOUNDS_GRID_EPS):
                eps, width = report.eps, report.width
                b1 = bnd.width_bound_thm1(n, eps).integer
                b2 = bnd.width_bound_thm2(n, w, eps).integer
                if width > b1 or width > b2:
                    bad.append(f"(n={n}, w={w}, eps={eps}): {width} vs {b1}/{b2}")
    return _result("bounds.width-le-bounds", not bad, "; ".join(bad) or "width within both bounds")


def _check_envelope_containment(store: _RunStore) -> CheckResult:
    bad = []
    for n in BOUNDS_GRID_N:
        for w in BOUNDS_GRID_W:
            p = ProlateParams(n, w)
            law = bnd._discrete_law(p)  # what eig_envelope(n, w, k) builds for each k
            for k, lam in enumerate(store.full(p).lam.tolist()):
                env = bnd._envelope(law, k, midpoint=True)
                if not (env.lower - 1e-10 <= lam <= env.upper + 1e-10):
                    bad.append(f"lam_{k}({n},{w}) = {lam} outside [{env.lower}, {env.upper}]")
    return _result(
        "bounds.envelope-containment", not bad, "; ".join(bad[:3]) or "all eigenvalues enveloped"
    )


def _sum_curves(full: spec.SpectrumSlice) -> tuple[np.ndarray, np.ndarray]:
    """(head sums for K=1..fl, tail sums for K=ce..N-1) from a full tridiagonal
    spectrum, whose orders below fl carry 1 - lambda directly."""
    p = full.params
    heads = np.cumsum(full.comp[: p.tbp_floor])  # sum_{k<K} (1 - lam_k)
    direct = full.lam[p.tbp_ceil :]
    tails = np.cumsum(direct[::-1])[::-1]  # tails[j] = sum_{k >= ce + j} lam_k
    return heads, tails


def sum_noise_allowance(count: int) -> float:
    """Resolution allowance for a computed sum of ``count`` eigenvalues.

    Summed eigenvalues are only resolved to the 1e-15 saturation floor each,
    so a computed sum cannot be certified below count * 1e-15 even when the
    analytic cap keeps decaying.
    """
    return count * RESOLUTION_FLOOR


def _check_sum_containment(store: _RunStore) -> CheckResult:
    bad = []
    grid = [(n, w) for n in BOUNDS_GRID_N for w in BOUNDS_GRID_W]
    for n, w in grid:
        p = ProlateParams(n, w)
        law = bnd._discrete_law(p)  # what sum_bounds_cor2(n, w, K, side) builds for each K
        heads, tails = _sum_curves(store.full(p))
        for K, head in enumerate(heads.tolist(), start=1):
            cap = bnd._sum_bound(law, K, "head", n - 1) + sum_noise_allowance(K)
            if head > cap:
                bad.append(f"head({n},{w},K={K}): {head:.3e} > {cap:.3e}")
        for K, tail in enumerate(tails.tolist(), start=p.tbp_ceil):
            cap = bnd._sum_bound(law, K, "tail", n - 1) + sum_noise_allowance(n - K)
            if tail > cap:
                bad.append(f"tail({n},{w},K={K}): {tail:.3e} > {cap:.3e}")
    return _result("bounds.sum-containment", not bad, "; ".join(bad[:3]) or "all sums within caps")


def _check_prior_dominance() -> CheckResult:
    n, w, eps = 1000, 0.125, 1e-3
    chain = [
        bnd.width_bound_thm1(n, eps).integer,
        bnd.width_bound_thm2(n, w, eps).integer,
        bnd.width_bound_prior(n, w, eps, "eq6").integer,
        bnd.width_bound_prior(n, w, eps, "eq3").integer,
        bnd.width_bound_prior(n, w, eps, "eq2").integer,
    ]
    expect = [14, 23, 185, 1000, 1806]
    ok = chain == expect and all(x < y for x, y in zip(chain, chain[1:]))
    return _result("bounds.prior-dominance", ok, f"chain {chain}")


def _check_pswf_identity() -> CheckResult:
    ok = True
    for n, w, eps in [(1000, 0.125, 1e-3), (512, 0.05, 1e-8), (4096, 0.25, 1e-2)]:
        c = math.pi * n * w
        if bnd.pswf_width_bound(c, eps).value != bnd.width_bound_thm2(n, w, eps).value:
            ok = False
    return _result("bounds.pswf-identity", ok, "thm2 equals thm3 at c = pi*N*W exactly")


def _check_proxy_containment() -> CheckResult:
    c = math.pi * 50.0
    bad = []
    prox = {}
    for n in (2000, 4000):
        prox[n] = spec.pswf_proxy(c, 0, 140, n)
        for k, lam in prox[n].entries:
            env = bnd.pswf_eig_envelope(c, k)
            if not (env.lower - prox[n].delta <= lam <= env.upper + prox[n].delta):
                bad.append(f"proxy(n={n}) lam_{k} outside widened envelope")
    pair_gap = float(np.max(np.abs(prox[2000].lam - prox[4000].lam)))
    cap = prox[2000].delta + prox[4000].delta
    if pair_gap > cap:
        bad.append(f"proxy mismatch {pair_gap:.3e} > {cap:.3e}")
    deltas = [bnd.proxy_delta(c, n) for n in (2000, 3000, 4000)]
    if not (deltas[0] > deltas[1] > deltas[2]):
        bad.append(f"delta not decreasing: {deltas}")
    return _result("bounds.proxy-containment", not bad, "; ".join(bad) or "proxies certified")


def suite_bounds(seed: int, store: _RunStore) -> list[CheckResult]:
    del seed  # deterministic
    return [
        _check_width_vs_bounds(),
        _check_envelope_containment(store),
        _check_sum_containment(store),
        _check_prior_dominance(),
        _check_pswf_identity(),
        _check_proxy_containment(),
    ]


# ------------------------------------------------------------ displacement --


def _check_displacement_residual() -> CheckResult:
    bad = []
    for n, w, L in [(256, 0.125, 512), (128, 0.3, 256), (64, 0.49, 64)]:
        system = disp.build_xl(ProlateParams(n, w), L)
        res = system.residual()
        if res > system.residual_tolerance():
            bad.append(f"(n={n}, w={w}, L={L}): {res:.3e}")
    return _result("displacement.residual", not bad, "; ".join(bad) or "rank-2 identity exact")


def _check_norm_cap(store: _RunStore) -> CheckResult:
    bad = []
    for n, w, L in [(256, 0.125, 2048), (128, 0.05, 512)]:
        nrm = float(store.singular_values(ProlateParams(n, w), L)[0])  # the spectral norm
        if nrm > 0.5 + 1e-12:
            bad.append(f"(n={n}, w={w}, L={L}): |X| = {nrm}")
    return _result("displacement.norm", not bad, "; ".join(bad) or "spectral norm within 1/2")


def _check_zolotarev_invariance() -> CheckResult:
    pairs = [
        disp.ZolotarevSetPair.unbounded(-1.0, 0.0, 255.0, 256.0),
        disp.ZolotarevSetPair.intervals(1.0, 2.0, 5.0, 9.0),
        disp.ZolotarevSetPair.symmetric(1.0, 4.0),
    ]
    worst = 0.0
    for pair in pairs:
        _, res = disp.mobius_normalize(pair)
        normalized = disp.ZolotarevSetPair.intervals(-pair.alpha, -1.0, 1.0, pair.alpha)
        for k in (1, 5, 20):
            raw = 4.0 * math.exp(-math.pi**2 * k / math.log(16.0 * pair.gamma))
            mapped = disp.zolotarev_bound(normalized, k)
            worst = max(worst, abs(raw - mapped) / raw, res)
    return _result(
        "displacement.zolotarev-invariance", worst <= 1e-10, f"worst relative drift {worst:.3e}"
    )


def _check_gamma_value() -> CheckResult:
    n = 256
    pair = disp.ZolotarevSetPair.unbounded(-1.0, 0.0, float(n - 1), float(n))
    return _result(
        "displacement.gamma-n-squared", pair.gamma == float(n) ** 2, f"gamma = {pair.gamma}"
    )


def _check_sv_decay(store: _RunStore) -> CheckResult:
    p = ProlateParams(256, 0.125)
    rep = disp._sv_decay_report(p, store.singular_values(p, 2048), 10)
    sigmas = [row[1] for row in rep.rows]
    mono = all(x >= y - 1e-14 for x, y in zip(sigmas, sigmas[1:]))
    return _result(
        "displacement.sv-decay",
        rep.passed and mono and rep.spectral_norm <= 0.5 + 1e-12,
        f"sigma_1 = {rep.spectral_norm:.6f}, sigma_21 = {sigmas[-1]:.3e}",
    )


def _check_gram_limit() -> CheckResult:
    n, w = 128, 0.125
    defects = [disp.gram_defect(ProlateParams(n, w), L) for L in (n, 2 * n, 4 * n, 8 * n)]
    ok = all(x > y for x, y in zip(defects, defects[1:]))
    return _result(
        "displacement.gram-limit", ok, "defects " + ", ".join(f"{d:.3e}" for d in defects)
    )


def _check_loewner() -> CheckResult:
    bad = []
    for n, w, L in [(64, 0.125, 512), (256, 0.125, 2048)]:
        me = disp.loewner_min_eig(ProlateParams(n, w), L)
        if me < -1e-10:
            bad.append(f"(n={n}): min eig {me:.3e}")
    return _result("displacement.loewner", not bad, "; ".join(bad) or "gram defect PSD")


def _check_partition() -> CheckResult:
    p = ProlateParams(512, 1.0 / 64.0)
    rep = disp.partition_check(p, near_block_rows(p.w) + 64, 10, 8)
    detail = (
        f"outer={rep.outer_ok} block={rep.block_ok} mirror={rep.mirror_ok} weyl={rep.weyl_ok}"
    )
    return _result("displacement.partition", rep.passed, detail)


def suite_displacement(seed: int, store: _RunStore) -> list[CheckResult]:
    del seed
    return [
        _check_displacement_residual(),
        _check_norm_cap(store),
        _check_zolotarev_invariance(),
        _check_gamma_value(),
        _check_sv_decay(store),
        _check_gram_limit(),
        _check_loewner(),
        _check_partition(),
    ]


# ---------------------------------------------------------------- chebsinc --


def _check_nodes() -> CheckResult:
    interp = cs.cheb_interpolate(0.03125, 0, -8.0, -1.0, 6)
    mid = (-8.0 + -1.0) / 2.0
    inside = bool(np.all((interp.nodes > -8.0) & (interp.nodes < -1.0)))
    symmetric = float(np.max(np.abs((interp.nodes - mid) + (interp.nodes - mid)[::-1]))) <= 1e-12
    exact = float(np.max(np.abs(interp(interp.nodes) - interp.values))) <= 1e-13
    return _result("chebsinc.nodes", inside and symmetric and exact, "cosine nodes, exact at nodes")


def _check_interp_chain() -> CheckResult:
    bad = []
    shifts = np.array([0, 3, 50])
    for w in (1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0):
        a, b = -float(near_block_rows(w)), -1.0
        grid = np.linspace(a, b, 1000)
        exact = sinc_kernel(w, np.subtract.outer(grid, shifts))
        errs = [  # errs[k - 1][j]: shift j's max grid error at k nodes
            np.max(np.abs(exact - cs.cheb_interpolate(w, shifts, a, b, k)(grid)), axis=0).tolist()
            for k in range(1, 9)
        ]
        for j, n in enumerate(shifts.tolist()):
            for k in range(1, 9):
                err = errs[k - 1][j]
                cap = cs.interpolation_error_bound(w, n, a, b, k)
                if err > cap * (1.0 + 1e-9) + 1e-15:
                    bad.append(f"(w={w}, n={n}, k={k}): {err:.3e} > {cap:.3e}")
    return _result("chebsinc.interp-chain", not bad, "; ".join(bad[:3]) or "error chain holds")


def _check_lowrank() -> CheckResult:
    bad = []
    for n, w in [(512, 1.0 / 64.0), (256, 1.0 / 32.0), (256, 1.0 / 16.0)]:
        for k in range(1, 9):
            rep = cs.lowrank_block_approx(ProlateParams(n, w), k)
            if not rep.passed:
                bad.append(f"(w={w}, k={k}): {rep.frobenius_error:.3e} > {rep.bound:.3e}")
            if np.linalg.matrix_rank(rep.matrix, tol=1e-10) > k:
                bad.append(f"(w={w}, k={k}): rank exceeds {k}")
    return _result("chebsinc.lowrank", not bad, "; ".join(bad[:3]) or "rank-k frobenius caps hold")


def _check_mono_bary_agreement() -> CheckResult:
    worst = 0.0
    p = ProlateParams(256, 1.0 / 32.0)
    l1 = near_block_rows(p.w)
    ells = np.arange(-l1, 0, dtype=np.float64)
    for k in range(1, 9):  # the monomial refit of the node values is the reference
        rep = cs.lowrank_block_approx(p, k)
        interp = cs.cheb_interpolate(p.w, np.arange(p.n), -float(l1), -1.0, k)
        coefs = np.polynomial.polynomial.polyfit(interp.nodes, interp.values, k - 1)
        mono = np.vander(ells, k, increasing=True) @ coefs
        worst = max(worst, float(np.max(np.abs(mono - rep.matrix))))
    return _result(
        "chebsinc.monomial-agreement", worst <= 1e-8, f"max |monomial - barycentric| {worst:.3e}"
    )


def _fd_derivative(w: float, k: int, t: np.ndarray) -> np.ndarray:
    """Central finite differences with one Richardson step at each point of ``t``; k <= 3.

    A stencil takes its values at every point from one sinc_kernel call.
    """
    h = 1e-4 * np.maximum(1.0, np.abs(t))

    def stencil(hh: np.ndarray) -> np.ndarray:
        if k == 0:
            return sinc_kernel(w, t)
        if k == 1:
            gp, gm = sinc_kernel(w, np.stack([t + hh, t - hh]))
            return (gp - gm) / (2.0 * hh)
        if k == 2:
            gp, g0, gm = sinc_kernel(w, np.stack([t + hh, t, t - hh]))
            return (gp - 2.0 * g0 + gm) / hh**2
        gp2, gp, gm, gm2 = sinc_kernel(w, np.stack([t + 2 * hh, t + hh, t - hh, t - 2 * hh]))
        return (gp2 - 2.0 * gp + 2.0 * gm - gm2) / (2.0 * hh**3)

    d1, d2 = stencil(h), stencil(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _quad_derivative(w: float, k: int, t: float) -> float:
    """Spectral-side oracle: g^(k)(t) = Re int_{-W}^{W} (j 2 pi f)^k e^{j 2 pi f t} df."""
    from scipy.integrate import quad

    def integrand(f: float) -> float:
        z = (2.0j * math.pi * f) ** k * np.exp(2.0j * math.pi * f * t)
        return z.real

    val, _ = quad(integrand, -w, w, limit=200)
    return val


def _check_derivative_bound(rng) -> CheckResult:
    bad = []
    w = 0.1
    ts = np.concatenate([[0.0, 10.0], rng.uniform(-20.0, 20.0, 40)])
    for k in range(4):
        vals = np.abs(_fd_derivative(w, k, ts)).tolist()
        caps = cs.sinc_derivative_bound(w, k, ts).tolist()
        for t, val, cap in zip(ts.tolist(), vals, caps):
            if val > cap * (1.0 + 1e-6) + 1e-9:
                bad.append(f"fd k={k}, t={t:.3f}: {val:.3e} > {cap:.3e}")
    for k in (4, 5):
        for t in ts[:12]:
            val = abs(_quad_derivative(w, k, float(t)))
            cap = float(cs.sinc_derivative_bound(w, k, float(t)))
            if val > cap * (1.0 + 1e-9) + 1e-12:
                bad.append(f"quad k={k}, t={t:.3f}: {val:.3e} > {cap:.3e}")
    return _result("chebsinc.derivative-bound", not bad, "; ".join(bad[:3]) or "derivative caps hold")


def suite_chebsinc(seed: int, store: _RunStore) -> list[CheckResult]:
    del store  # computes no spectrum
    rng = np.random.default_rng(seed)
    return [
        _check_nodes(),
        _check_interp_chain(),
        _check_lowrank(),
        _check_mono_bary_agreement(),
        _check_derivative_bound(rng),
    ]


# -------------------------------------------------------------------- main --

_SUITES = {
    "spectrum": suite_spectrum,
    "bounds": suite_bounds,
    "displacement": suite_displacement,
    "chebsinc": suite_chebsinc,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named invariant suite (or 'all'); deterministic for a fixed seed >= 0."""
    _at_least("seed", seed, 0)
    if name != "all" and name not in _SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    store = _RunStore()  # shared by this run's suites only
    suites = _SUITES.values() if name == "all" else [_SUITES[name]]
    return [r for suite in suites for r in suite(seed, store)]
