"""Low-rank displacement structure of the boundary matrix and its verification.

The defect B - B^2 of the prolate matrix is the limit of Gram matrices
X_L^T X_L, where X_L collects the sinc kernel on the boundary index set
I_L = {-L..-1} u {N..N+L-1} against columns 0..N-1. X_L satisfies the
Sylvester displacement equation

    C X_L - X_L D = U V^T,   rank(U V^T) = 2,

with C = diag(I_L), D = diag(0..N-1), and trigonometric factors U, V. Since
the spectra of C and D are separated, Zolotarev numbers force geometric decay
of the singular values of X_L; this module builds the objects, evaluates the
Zolotarev bounds (including the Mobius normalization onto symmetric
intervals), and verifies the decay, the Loewner domination, and the
bandwidth-adapted three-block partition. The partition exists only for
W < 1/4, and :func:`partition_check` raises DomainError for wider bands.

Checks run densely at desk scale only; there is no iterative SVD path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ParameterError
from .kernel import (
    ProlateParams,
    _at_least,
    _representable,
    build_prolate_matrix,
    near_block_rows,
    sin_cos_2pi_product,
    sinc_kernel,
)

__all__ = [
    "ZolotarevSetPair",
    "zolotarev_bound",
    "MobiusMap",
    "mobius_normalize",
    "DisplacementSystem",
    "build_xl",
    "sv_decay_check",
    "partition_check",
    "gram_defect",
    "loewner_min_eig",
    "partition_block_bound",
]

#: cap on materialized boundary-matrix entries (2L x N)
XL_ENTRY_CAP = 1 << 25


def partition_block_bound(k: int) -> float:
    """Tail bound sqrt(5600/pi) * (pi/48)**k on sigma_{k+1} of a boundary block, k >= 0."""
    k = _representable("k", _at_least("k", k, 0))
    return math.sqrt(5600.0 / math.pi) * (math.pi / 48.0) ** k


@dataclass(frozen=True)
class ZolotarevSetPair:
    """A pair of disjoint closed real sets with its cross-ratio invariants.

    ``kind`` is one of ``'symmetric'`` ([-b,-a] vs [a,b]), ``'intervals'``
    ([c1,c2] vs [d1,d2], non-overlapping), or ``'unbounded'``
    ((-inf,c1] u [c2,inf) vs [d1,d2] with c1 < d1 < d2 < c2). ``gamma`` is
    the Mobius-invariant cross-ratio and ``alpha = 2*gamma - 1 +
    2*sqrt(gamma^2 - gamma)`` the endpoint of the normalized pair
    [-alpha,-1], [1,alpha]; always alpha <= 4*gamma.
    """

    kind: str
    endpoints: tuple
    gamma: float
    alpha: float

    @staticmethod
    def symmetric(a: float, b: float) -> "ZolotarevSetPair":
        if not (0.0 < a <= b):
            raise DomainError(f"symmetric pair requires 0 < a <= b, got a={a}, b={b}")
        gamma = (a + b) ** 2 / (4.0 * a * b)
        return ZolotarevSetPair("symmetric", (float(a), float(b)), gamma, _alpha(gamma))

    @staticmethod
    def intervals(c1: float, c2: float, d1: float, d2: float) -> "ZolotarevSetPair":
        if not (c1 <= c2 and d1 <= d2):
            raise DomainError("each interval must be ordered")
        if not (c2 < d1 or d2 < c1):
            raise DomainError(f"intervals [{c1},{c2}] and [{d1},{d2}] overlap")
        gamma = (d1 - c1) * (d2 - c2) / ((d2 - c1) * (d1 - c2))
        return ZolotarevSetPair(
            "intervals", (float(c1), float(c2), float(d1), float(d2)), gamma, _alpha(gamma)
        )

    @staticmethod
    def unbounded(c1: float, d1: float, d2: float, c2: float) -> "ZolotarevSetPair":
        if not (c1 < d1 < d2 < c2):
            raise DomainError(f"need c1 < d1 < d2 < c2, got {c1}, {d1}, {d2}, {c2}")
        gamma = (c2 - d1) * (d2 - c1) / ((c2 - d2) * (d1 - c1))
        return ZolotarevSetPair(
            "unbounded", (float(c1), float(d1), float(d2), float(c2)), gamma, _alpha(gamma)
        )


def _alpha(gamma: float) -> float:
    if not gamma > 1.0:
        raise DomainError(f"cross-ratio must exceed 1 for disjoint sets, got {gamma}")
    return 2.0 * gamma - 1.0 + 2.0 * math.sqrt(gamma * (gamma - 1.0))


def zolotarev_bound(pair: ZolotarevSetPair, k: int) -> float:
    """Upper bound on the k-th Zolotarev number of the pair.

    ``4*exp(-pi^2 k / log(4b/a))`` for the symmetric kind and
    ``4*exp(-pi^2 k / log(16*gamma))`` otherwise, for k >= 0. Only the bound
    is computed, never the extremal rational function. A k past the largest
    double raises ParameterError.
    """
    _representable("k", _at_least("k", k, 0))
    if pair.kind == "symmetric":
        a, b = pair.endpoints
        return 4.0 * math.exp(-math.pi**2 * k / math.log(4.0 * b / a))
    return 4.0 * math.exp(-math.pi**2 * k / math.log(16.0 * pair.gamma))


class MobiusMap:
    """Fractional-linear map z -> (b1 z + b2)/(b3 z + b4) on the extended line."""

    def __init__(self, coeffs):
        m = np.asarray(coeffs, dtype=np.float64).reshape(2, 2)
        if m[0, 0] * m[1, 1] == m[0, 1] * m[1, 0]:
            raise DomainError("degenerate Mobius map: b1*b4 == b2*b3")
        self.coeffs = m

    def __call__(self, z):
        b1, b2, b3, b4 = self.coeffs.ravel()
        z = np.asarray(z, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                np.isinf(z), _safe_div(b1, b3), _safe_div(b1 * z + b2, b3 * z + b4)
            )
        return out if out.ndim else float(out)

    def inverse(self) -> "MobiusMap":
        b1, b2, b3, b4 = self.coeffs.ravel()
        return MobiusMap([[b4, -b2], [-b3, b1]])

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        return MobiusMap(self.coeffs @ other.coeffs)


def _safe_div(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.where(den == 0.0, np.inf * np.sign(num), num / np.where(den == 0.0, 1.0, den))
    return out


def _sample_sets(pair: ZolotarevSetPair, count: int):
    """Log-spaced samples of each set, endpoints included; inf noted separately."""
    if pair.kind == "symmetric":
        a, b = pair.endpoints
        first = -np.geomspace(a, b, count)  # spans [-b, -a]
        second = np.geomspace(a, b, count)
        return first, second, False
    if pair.kind == "intervals":
        c1, c2, d1, d2 = pair.endpoints
        first = _log_fill(c1, c2, count)
        second = _log_fill(d1, d2, count)
        return first, second, False
    c1, d1, d2, c2 = pair.endpoints
    half = max(count // 2, 2)
    span = max(c2 - c1, 1.0)
    left = c1 - np.geomspace(span * 1e-6, span * 1e6, half)
    right = c2 + np.geomspace(span * 1e-6, span * 1e6, half)
    first = np.concatenate([[c1, c2], left, right])
    second = _log_fill(d1, d2, count)
    return first, second, True


def _log_fill(a: float, b: float, count: int) -> np.ndarray:
    """Points in [a, b], log-clustered toward both endpoints."""
    if a == b:
        return np.array([a])
    span = b - a
    off = np.geomspace(span * 1e-8, span / 2.0, max(count // 2, 2))
    pts = np.concatenate([[a, b], a + off, b - off])
    return np.clip(pts, a, b)


def _interval_residual(values: np.ndarray, lo: float, hi: float) -> float:
    """Max relative distance of values outside [lo, hi]."""
    scale = max(abs(lo), abs(hi), 1.0)
    below = np.maximum(lo - values, 0.0)
    above = np.maximum(values - hi, 0.0)
    return float(np.max(np.maximum(below, above)) / scale)


def mobius_normalize(pair: ZolotarevSetPair) -> tuple[MobiusMap, float]:
    """Map the pair onto the symmetric normal form [-alpha,-1], [1,alpha].

    Composes the interval-straightening map with the inverse of
    phi2(z) = (alpha-1)(z+1) / ((alpha+1)(z-1)). Returns the composed map and
    the worst relative distance of the mapped samples (about 100 per set) from
    their target intervals (first set -> [-alpha,-1], second set -> [1,alpha]);
    for the unbounded kind the image of infinity is verified as well.
    """
    alpha = pair.alpha
    if pair.kind == "unbounded":
        c1, d1, d2, c2 = pair.endpoints
        # phi1(z) = (d2-d1)(z-c1) / ((d2-c1)(z-d1))
        phi1 = MobiusMap([[d2 - d1, -(d2 - d1) * c1], [d2 - c1, -(d2 - c1) * d1]])
    else:
        if pair.kind == "symmetric":
            a, b = pair.endpoints
            c1, c2, d1, d2 = -b, -a, a, b
        else:
            c1, c2, d1, d2 = pair.endpoints
        # phi1(z) = (d2-d1)(z-c2) / ((d2-c2)(z-d1))
        phi1 = MobiusMap([[d2 - d1, -(d2 - d1) * c2], [d2 - c2, -(d2 - c2) * d1]])
    phi2 = MobiusMap([[alpha - 1.0, alpha - 1.0], [alpha + 1.0, -(alpha + 1.0)]])
    phi = phi2.inverse().compose(phi1)

    first, second, has_inf = _sample_sets(pair, 100)
    res = _interval_residual(np.asarray(phi(first)), -alpha, -1.0)
    res = max(res, _interval_residual(np.asarray(phi(second)), 1.0, alpha))
    if has_inf:
        img = phi.coeffs[0, 0] / phi.coeffs[1, 0]
        res = max(res, _interval_residual(np.array([img]), -alpha, -1.0))
    return phi, res


@dataclass
class DisplacementSystem:
    """Realization of C X - X D = U V^T for a boundary matrix.

    ``row_indices`` is the ordered index set I_L; ``c`` and ``d`` hold the
    diagonals of C and D.
    """

    params: ProlateParams
    L: int
    row_indices: np.ndarray
    x: np.ndarray
    c: np.ndarray
    d: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def residual(self) -> float:
        """max |C X - X D - U V^T|; exact up to roundoff by the sine addition law."""
        r = self.c[:, None] * self.x - self.x * self.d[None, :] - self.u @ self.v.T
        return float(np.max(np.abs(r)))

    def residual_tolerance(self) -> float:
        return 1e-13 * max(1.0, float(np.max(np.abs(self.row_indices))))

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.x, compute_uv=False)

    def spectral_norm(self) -> float:
        """The largest singular value; the same bits as ``np.linalg.norm(x, 2)``."""
        return float(self.singular_values()[0])


def _boundary_rows(n: int, L: int) -> np.ndarray:
    return np.concatenate([np.arange(-L, 0), np.arange(n, n + L)])


def build_xl(params: ProlateParams, L: int) -> DisplacementSystem:
    """Boundary matrix X_L with its rank-2 displacement factors.

    X[l, n] = g(l - n) over rows l in I_L = {-L..-1} u {N..N+L-1};
    U[l, :] = (sin(2 pi W l), cos(2 pi W l))/sqrt(pi) and
    V[n, :] = (cos(2 pi W n), -sin(2 pi W n))/sqrt(pi). Needs ``L >= 1``.
    """
    _at_least("L", L, 1)
    n = params.n
    if 2 * L * n > XL_ENTRY_CAP:
        raise CapacityError(f"2L*N = {2 * L * n} exceeds entry cap {XL_ENTRY_CAP}")
    rows = _boundary_rows(n, L)
    cols = np.arange(n)
    # all offsets live in one contiguous table; index instead of re-evaluating
    offs = np.arange(-L - (n - 1), n + L)
    table = sinc_kernel(params.w, offs)
    x = table[rows[:, None] - cols[None, :] + (L + n - 1)]
    su, cu = sin_cos_2pi_product(params.w, rows)
    sv, cv = sin_cos_2pi_product(params.w, cols)
    rt = math.sqrt(math.pi)
    u = np.stack([su, cu], axis=1) / rt
    v = np.stack([cv, -sv], axis=1) / rt
    return DisplacementSystem(
        params=params,
        L=L,
        row_indices=rows,
        x=x,
        c=rows.astype(np.float64),
        d=cols.astype(np.float64),
        u=u,
        v=v,
    )


def _gram_residual(params: ProlateParams, L: int) -> np.ndarray:
    """B - B^2 - X_L^T X_L, the defect of the Loewner domination X_L^T X_L <= B - B^2."""
    x = build_xl(params, L).x
    b = build_prolate_matrix(params)
    return b - b @ b - x.T @ x


def gram_defect(params: ProlateParams, L: int) -> float:
    """Frobenius norm of (B - B^2) - X_L^T X_L; decreases to 0 as L grows."""
    return float(np.linalg.norm(_gram_residual(params, L), "fro"))


def loewner_min_eig(params: ProlateParams, L: int) -> float:
    """Smallest eigenvalue of B - B^2 - X_L^T X_L (>= 0 up to roundoff)."""
    return float(np.linalg.eigvalsh(_gram_residual(params, L))[0])


@dataclass
class SvDecayReport:
    """Measured odd-index singular values against the Zolotarev-driven bound."""

    spectral_norm: float
    rows: list  # (k, sigma_{2k+1}, bound)
    passed: bool


def sv_decay_check(params: ProlateParams, L: int, k_max: int) -> SvDecayReport:
    """Verify sigma_{2k+1}(X_L) <= 2 exp(-pi^2 k / log(16 N^2)) for 0 <= k <= k_max."""
    _at_least("k_max", k_max, 0)
    return _sv_decay_report(params, build_xl(params, L).singular_values(), k_max)


def _sv_decay_report(params: ProlateParams, sv: np.ndarray, k_max: int) -> SvDecayReport:
    """:func:`sv_decay_check` on the singular values ``sv`` of X_L, already computed."""
    rate = math.log(16.0 * params.n**2)
    rows = []
    ok = True
    for k in range(k_max + 1):
        sigma = float(sv[2 * k]) if 2 * k < sv.size else 0.0
        bound = 2.0 * math.exp(-math.pi**2 * k / rate)
        rows.append((k, sigma, bound))
        ok = ok and sigma <= bound + 1e-12
    return SvDecayReport(float(sv[0]), rows, ok)


@dataclass
class PartitionReport:
    """Three-block singular-value analysis of X_L for small bandwidth."""

    l1: int
    sv_full: np.ndarray
    sv_outer: np.ndarray
    sv_left: np.ndarray
    sv_right: np.ndarray
    outer_ok: bool
    block_ok: bool
    mirror_ok: bool
    weyl_ok: bool

    @property
    def passed(self) -> bool:
        return self.outer_ok and self.block_ok and self.mirror_ok and self.weyl_ok


def _sigma(sv: np.ndarray, j: int) -> float:
    """sigma_j with the convention sigma_j = 0 beyond min(M, N); j is 1-based."""
    return float(sv[j - 1]) if j - 1 < sv.size else 0.0


def partition_check(params: ProlateParams, L: int, k0_max: int, k_max: int) -> PartitionReport:
    """Verify the bandwidth-adapted partition of X_L into outer/left/right blocks.

    With L1 = floor(1/(4W)) the rows split into the far set
    {-L..-L1-1} u {N+L1..N+L-1} and the near sets {-L1..-1}, {N..N+L1-1}.
    Checks: (a) the far block obeys the displacement decay with rate
    2 log(16NW+4); (b) each near block obeys sigma_{k+1} <=
    sqrt(5600/pi) (pi/48)^k; (c) the two near blocks share singular values
    (index reversal maps one onto the other); (d) the Weyl combination
    sigma_{2k0+2k+1}(X_L)^2 <= sum of the three block terms.

    Defined only for W < 1/4; wider bands raise DomainError (from
    :func:`kernel.near_block_rows`), since the bandwidth-free bound already
    dominates there.
    """
    l1 = near_block_rows(params.w)
    if L < l1 + 1:
        raise ParameterError(f"L must be >= L1 + 1 = {l1 + 1}, got {L}")
    system = build_xl(params, L)
    rows = system.row_indices
    near_left = (rows >= -l1) & (rows < 0)
    near_right = (rows >= params.n) & (rows < params.n + l1)
    outer = ~(near_left | near_right)
    sv_full = system.singular_values()
    sv_outer = np.linalg.svd(system.x[outer], compute_uv=False)
    sv_left = np.linalg.svd(system.x[near_left], compute_uv=False)
    sv_right = np.linalg.svd(system.x[near_right], compute_uv=False)

    nw = params.n * params.w
    outer_rate = 2.0 * math.log(16.0 * nw + 4.0)
    outer_ok = all(
        _sigma(sv_outer, 2 * k0 + 1) <= 2.0 * math.exp(-math.pi**2 * k0 / outer_rate) + 1e-12
        for k0 in range(k0_max + 1)
    )
    block_ok = all(
        max(_sigma(sv_left, k + 1), _sigma(sv_right, k + 1)) <= partition_block_bound(k)
        for k in range(k_max + 1)
    )
    # relative equality with an absolute floor at the dense-SVD noise level
    floor = 1e-13 * max(1.0, float(sv_left[0]))
    mirror_ok = bool(
        np.all(np.abs(sv_left - sv_right) <= 1e-10 * np.maximum(sv_left, sv_right) + floor)
    )
    weyl_ok = True
    for k0 in range(k0_max + 1):
        for k in range(k_max + 1):
            lhs = _sigma(sv_full, 2 * k0 + 2 * k + 1) ** 2
            rhs = (
                _sigma(sv_outer, 2 * k0 + 1) ** 2
                + _sigma(sv_left, k + 1) ** 2
                + _sigma(sv_right, k + 1) ** 2
            )
            weyl_ok = weyl_ok and lhs <= rhs + 1e-12
    return PartitionReport(
        l1=l1,
        sv_full=sv_full,
        sv_outer=sv_outer,
        sv_left=sv_left,
        sv_right=sv_right,
        outer_ok=outer_ok,
        block_ok=block_ok,
        mirror_ok=mirror_ok,
        weyl_ok=weyl_ok,
    )
