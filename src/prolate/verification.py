"""Invariant suites behind `prolate verify`.

Each suite returns a list of CheckResult records with stable identifiers, so
CI can pin on individual properties. Checks are deterministic for a fixed
seed.
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
    toeplitz_apply,
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


# ---------------------------------------------------------------- spectrum --


def _check_sinc_bound(rng) -> CheckResult:
    worst = 0.0
    for w in (0.05, 0.125, 0.3, 0.49):
        d = np.unique(np.concatenate([[1, 2, 3], rng.integers(1, 1 << 20, 200)]))
        g = np.abs(sinc_kernel(w, d))
        cap = np.minimum(2.0 * w, 2.0 / (math.pi * d))
        worst = max(worst, float(np.max(g - cap * (1.0 + 1e-12))))
    return _result("kernel.sinc-bound", worst <= 0.0, f"max excess {worst:.3e}")


def _check_toeplitz_matvec(rng) -> CheckResult:
    worst = 0.0
    for n in (7, 64, 257, 1024):
        col = sinc_kernel(0.21, np.arange(n))
        dense = build_prolate_matrix(ProlateParams(n, 0.21))
        for _ in range(25):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            worst = max(worst, float(np.max(np.abs(toeplitz_apply(col, x) - dense @ x))))
    return _result("kernel.toeplitz-matvec", worst <= 1e-12, f"max |fft - dense| {worst:.3e}")


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


def _check_trace() -> CheckResult:
    worst = 0.0
    for n, w in SPECTRUM_GRID:
        lam = spec.dense_spectrum(ProlateParams(n, w))
        err = abs(lam.sum_lambdas() - 2.0 * n * w) / (2.0 * n * w)
        worst = max(worst, err)
    return _result("spectrum.trace", worst <= 1e-9, f"max rel trace error {worst:.3e}")


def _check_ordering() -> CheckResult:
    worst = math.inf
    for n, w in [(256, 0.125), (512, 0.4)]:
        slc = spec.tridiagonal_spectrum(ProlateParams(n, w), 0, n - 1)
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


def _check_symmetry() -> CheckResult:
    worst = 0.0
    for n, w in [(64, 0.05), (257, 0.125), (512, 0.22)]:
        a = spec.dense_spectrum(ProlateParams(n, w))
        b = spec.dense_spectrum(ProlateParams(n, 0.5 - w))
        worst = max(worst, float(np.max(np.abs(b.lam - (1.0 - a.lam[::-1])))))
    return _result("spectrum.symmetry", worst <= 1e-10, f"max |reflection defect| {worst:.3e}")


def _check_route_agreement() -> CheckResult:
    worst = 0.0
    for n, w in SPECTRUM_GRID:
        p = ProlateParams(n, w)
        dense = spec.dense_spectrum(p)
        trid = spec.tridiagonal_spectrum(p, 0, n - 1)
        worst = max(worst, float(np.max(np.abs(dense.lam - trid.lam))))
    return _result("spectrum.route-agreement", worst <= 1e-10, f"max |dense - trid| {worst:.3e}")


def suite_spectrum(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        _check_sinc_bound(rng),
        _check_toeplitz_matvec(rng),
        _check_sinc_identity(rng),
        _check_prolate_symmetry(),
        _check_trace(),
        _check_ordering(),
        _check_interlacing(),
        _check_symmetry(),
        _check_route_agreement(),
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


def _check_envelope_containment() -> CheckResult:
    bad = []
    for n in BOUNDS_GRID_N:
        for w in BOUNDS_GRID_W:
            p = ProlateParams(n, w)
            slc = spec.dense_spectrum(p)
            for k in range(n):
                env = bnd.eig_envelope(n, w, k)
                lam = slc.lam_at(k)
                if not (env.lower - 1e-10 <= lam <= env.upper + 1e-10):
                    bad.append(f"lam_{k}({n},{w}) = {lam} outside [{env.lower}, {env.upper}]")
    return _result(
        "bounds.envelope-containment", not bad, "; ".join(bad[:3]) or "all eigenvalues enveloped"
    )


def _sum_curves(p: ProlateParams) -> tuple[np.ndarray, np.ndarray]:
    """(head sums for K=1..fl, tail sums for K=ce..N-1) from precise spectra."""
    n = p.n
    fl, ce = p.tbp_floor, p.tbp_ceil
    heads = np.cumsum(spec.tridiagonal_spectrum(p, 0, fl - 1).comp)  # sum_{k<K} (1 - lam_k)
    direct = spec.tridiagonal_spectrum(p, ce, n - 1).lam
    tails = np.cumsum(direct[::-1])[::-1]  # tails[j] = sum_{k >= ce + j} lam_k
    return heads, tails


def sum_noise_allowance(count: int) -> float:
    """Resolution allowance for a computed sum of ``count`` eigenvalues.

    Summed eigenvalues are only resolved to the 1e-15 saturation floor each,
    so a computed sum cannot be certified below count * 1e-15 even when the
    analytic cap keeps decaying.
    """
    return count * RESOLUTION_FLOOR


def _check_sum_containment() -> CheckResult:
    bad = []
    grid = [(n, w) for n in BOUNDS_GRID_N for w in BOUNDS_GRID_W]
    for n, w in grid:
        p = ProlateParams(n, w)
        fl, ce = p.tbp_floor, p.tbp_ceil
        heads, tails = _sum_curves(p)
        for K in range(1, fl + 1):
            cap = bnd.sum_bounds_cor2(n, w, K, "head") + sum_noise_allowance(K)
            if heads[K - 1] > cap:
                bad.append(f"head({n},{w},K={K}): {heads[K - 1]:.3e} > {cap:.3e}")
        for K in range(ce, n):
            cap = bnd.sum_bounds_cor2(n, w, K, "tail") + sum_noise_allowance(n - K)
            if tails[K - ce] > cap:
                bad.append(f"tail({n},{w},K={K}): {tails[K - ce]:.3e} > {cap:.3e}")
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


def suite_bounds(seed: int = 0) -> list[CheckResult]:
    del seed  # deterministic
    return [
        _check_width_vs_bounds(),
        _check_envelope_containment(),
        _check_sum_containment(),
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


def _check_norm_cap() -> CheckResult:
    bad = []
    for n, w, L in [(256, 0.125, 2048), (128, 0.05, 512)]:
        nrm = disp.build_xl(ProlateParams(n, w), L).spectral_norm()
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


def _check_sv_decay() -> CheckResult:
    rep = disp.sv_decay_check(ProlateParams(256, 0.125), 2048, 10)
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


def suite_displacement(seed: int = 0) -> list[CheckResult]:
    del seed
    return [
        _check_displacement_residual(),
        _check_norm_cap(),
        _check_zolotarev_invariance(),
        _check_gamma_value(),
        _check_sv_decay(),
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
    for w in (1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0):
        a, b = -float(near_block_rows(w)), -1.0
        grid = np.linspace(a, b, 1000)
        for n in (0, 3, 50):
            for k in range(1, 9):
                interp = cs.cheb_interpolate(w, n, a, b, k)
                err = float(np.max(np.abs(sinc_kernel(w, grid - n) - interp(grid))))
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
    for k in range(1, 9):
        rep = cs.lowrank_block_approx(p, k)
        bary = np.empty_like(rep.matrix)
        for n in range(p.n):
            bary[:, n] = cs.cheb_interpolate(p.w, n, -float(l1), -1.0, k)(ells)
        worst = max(worst, float(np.max(np.abs(rep.matrix - bary))))
    return _result(
        "chebsinc.monomial-agreement", worst <= 1e-8, f"max |monomial - barycentric| {worst:.3e}"
    )


def _fd_derivative(w: float, k: int, t: float) -> float:
    """Central finite differences with one Richardson step; k <= 3."""
    h = 1e-4 * max(1.0, abs(t))

    def stencil(hh: float) -> float:
        g = lambda x: float(sinc_kernel(w, np.array([x]))[0])
        if k == 0:
            return g(t)
        if k == 1:
            return (g(t + hh) - g(t - hh)) / (2.0 * hh)
        if k == 2:
            return (g(t + hh) - 2.0 * g(t) + g(t - hh)) / hh**2
        return (g(t + 2 * hh) - 2.0 * g(t + hh) + 2.0 * g(t - hh) - g(t - 2 * hh)) / (2.0 * hh**3)

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
        for t in ts:
            val = abs(_fd_derivative(w, k, float(t)))
            cap = float(cs.sinc_derivative_bound(w, k, float(t)))
            if val > cap * (1.0 + 1e-6) + 1e-9:
                bad.append(f"fd k={k}, t={t:.3f}: {val:.3e} > {cap:.3e}")
    for k in (4, 5):
        for t in ts[:12]:
            val = abs(_quad_derivative(w, k, float(t)))
            cap = float(cs.sinc_derivative_bound(w, k, float(t)))
            if val > cap * (1.0 + 1e-9) + 1e-12:
                bad.append(f"quad k={k}, t={t:.3f}: {val:.3e} > {cap:.3e}")
    return _result("chebsinc.derivative-bound", not bad, "; ".join(bad[:3]) or "derivative caps hold")


def suite_chebsinc(seed: int = 0) -> list[CheckResult]:
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
    if name == "all":
        return [r for suite in _SUITES.values() for r in suite(seed)]
    if name not in _SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](seed)
