"""DPSS eigenvalue computation and transition-region statistics.

Two routes compute the eigenvalues ``1 > lambda_0 > ... > lambda_{N-1} > 0``
of the prolate matrix:

* a dense route (symmetric eigensolver on the materialized matrix), used as
  an oracle at moderate N, and
* a tridiagonal route that scales to N ~ 2**16: the prolate matrix commutes
  with a symmetric tridiagonal matrix T with

      T[n, n]   = ((N-1)/2 - n)**2 * cos(2*pi*W)
      T[n, n+1] = (n+1)*(N-1-n)/2,

  so the eigenvector for concentration order k is the T-eigenvector at the
  (k+1)-th largest T-eigenvalue (computed by bisection plus inverse
  iteration) and lambda_k is its Rayleigh quotient against B, formed with a
  fast Toeplitz matvec and compensated summation.

Eigenvalues above 1/2 are obtained through the complementary bandwidth:
``1 - lambda_k(N, W) = lambda_{N-1-k}(N, 1/2-W)``, which preserves relative
accuracy in ``1 - lambda`` down to the 1e-15 resolution floor.

Per-index eigenpair computations are independent: disjoint k-ranges may be
evaluated concurrently with results independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .errors import NumericalError, ParameterError
from .kernel import (
    RESOLUTION_FLOOR,
    ProlateParams,
    SymmetricToeplitz,
    build_prolate_matrix,
    sinc_kernel,
)

__all__ = [
    "SpectrumSlice",
    "TransitionReport",
    "dense_spectrum",
    "tridiagonal_spectrum",
    "transition_width",
    "transition_widths",
    "eigensum_head",
    "eigensum_tail",
]

#: width counts at or below this epsilon carry a +-1 advisory uncertainty
ADVISORY_EPS = 1e-12


@dataclass
class SpectrumSlice:
    """A contiguous run of computed eigenvalues ``{(k, lambda_k)}``.

    ``lam`` holds lambda_k clamped to [0, 1]; ``comp`` holds 1 - lambda_k at
    full precision (exact reflection through the complementary-bandwidth
    instance, not the rounded difference). ``saturated`` marks entries whose
    lambda or 1 - lambda fell below the 1e-15 resolution floor.
    """

    params: ProlateParams
    kmin: int
    kmax: int
    method: str
    lam: np.ndarray
    comp: np.ndarray
    saturated: np.ndarray
    via_complement: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.via_complement is None:
            self.via_complement = np.zeros(self.lam.shape, dtype=bool)

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(self.kmin + i, float(v)) for i, v in enumerate(self.lam)]

    def index_of(self, k: int) -> int:
        if not (self.kmin <= k <= self.kmax):
            raise ParameterError(f"k = {k} outside slice range [{self.kmin}, {self.kmax}]")
        return k - self.kmin

    def lam_at(self, k: int) -> float:
        return float(self.lam[self.index_of(k)])

    def comp_at(self, k: int) -> float:
        return float(self.comp[self.index_of(k)])

    def transition_mask(self, eps: float) -> np.ndarray:
        """Entries with eps < lambda < 1 - eps, using the precise complement."""
        return (self.lam > eps) & (self.comp > eps)

    def sum_lambdas(self) -> float:
        """Compensated sum of lambda over the slice.

        Complement-route entries contribute 1 - mu with mu summed exactly, so
        parts of lambda below the double roundoff of 1.0 are not lost.
        """
        m = self.via_complement
        head = int(np.count_nonzero(m)) - math.fsum(self.comp[m].tolist())
        return head + math.fsum(self.lam[~m].tolist())

    def sum_complements(self) -> float:
        """Compensated sum of 1 - lambda over the slice."""
        m = self.via_complement
        direct = int(np.count_nonzero(~m)) - math.fsum(self.lam[~m].tolist())
        return direct + math.fsum(self.comp[m].tolist())


@dataclass(frozen=True)
class TransitionReport:
    """Count of eigenvalues inside (eps, 1 - eps).

    ``k_first``/``k_last`` delimit the run; both are None when it is empty.
    ``advisory`` is set when eps sits at or below the eigenvalue resolution
    floor, where the count carries a +-1 uncertainty.
    """

    params: ProlateParams
    eps: float
    width: int
    k_first: int | None
    k_last: int | None
    advisory: bool


def _tridiag_bands(n: int, w: float) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(n, dtype=np.float64)
    diag = ((n - 1) / 2.0 - idx) ** 2 * math.cos(2.0 * math.pi * w)
    off = idx[1:] * (n - idx[1:]) / 2.0
    return diag, off


def _concentration_eigenvectors(params: ProlateParams, klo: int, khi: int) -> np.ndarray:
    """T-eigenvectors for concentration orders klo..khi, as columns in k order."""
    n = params.n
    diag, off = _tridiag_bands(n, params.w)
    lo, hi = n - 1 - khi, n - 1 - klo
    try:
        _, vecs = eigh_tridiagonal(
            diag, off, select="i", select_range=(lo, hi), lapack_driver="stebz"
        )
    except LinAlgError as exc:
        raise NumericalError(
            f"tridiagonal eigensolver failed for orders {klo}..{khi} "
            f"(n={n}, w={params.w}): {exc}"
        ) from exc
    # ascending T order maps to descending k; flip so column j is order klo + j
    return vecs[:, ::-1]


def _rayleigh_quotients(params: ProlateParams, vecs: np.ndarray) -> np.ndarray:
    """lambda = s^T (B s) per column, matvec by FFT, dot by compensated sum."""
    op = SymmetricToeplitz(sinc_kernel(params.w, np.arange(params.n)))
    bv = op.matmat(vecs)
    prods = vecs * bv
    return np.array([math.fsum(prods[:, j].tolist()) for j in range(vecs.shape[1])])


def _clamp_slice(params, kmin, kmax, method, lam_raw, comp_raw, via_comp) -> SpectrumSlice:
    saturated = (np.abs(lam_raw) < RESOLUTION_FLOOR) | (np.abs(comp_raw) < RESOLUTION_FLOOR)
    return SpectrumSlice(
        params=params,
        kmin=kmin,
        kmax=kmax,
        method=method,
        lam=np.clip(lam_raw, 0.0, 1.0),
        comp=np.clip(comp_raw, 0.0, 1.0),
        saturated=saturated,
        via_complement=via_comp,
    )


def dense_spectrum(params: ProlateParams, cap: int | None = None) -> SpectrumSlice:
    """Full spectrum by a dense symmetric eigensolver, sorted descending.

    Oracle route; requires ``params.n`` within the dense cap.
    """
    matrix = build_prolate_matrix(params, cap=cap)
    lam = np.linalg.eigvalsh(matrix)[::-1]
    comp = 1.0 - lam
    via = np.zeros(lam.shape, dtype=bool)
    return _clamp_slice(params, 0, params.n - 1, "dense", lam, comp, via)


def tridiagonal_spectrum(params: ProlateParams, kmin: int, kmax: int) -> SpectrumSlice:
    """Eigenvalues lambda_kmin..lambda_kmax via the commuting tridiagonal route.

    Orders below floor(2NW) (where lambda >= 1/2) are computed through the
    complementary-bandwidth instance so that 1 - lambda retains relative
    accuracy near 1.

    Parameters
    ----------
    params : ProlateParams
    kmin, kmax : int
        Inclusive index range, ``0 <= kmin <= kmax <= n - 1``.
    """
    n = params.n
    if not (0 <= kmin <= kmax <= n - 1):
        raise ParameterError(f"need 0 <= kmin <= kmax <= {n - 1}, got [{kmin}, {kmax}]")
    count = kmax - kmin + 1
    lam = np.empty(count)
    comp = np.empty(count)
    via = np.zeros(count, dtype=bool)

    split = params.tbp_floor  # orders < split go through the complement
    hi_lo, hi_hi = kmin, min(kmax, split - 1)
    if hi_lo <= hi_hi:
        comp_params = params.complement()
        # lambda_k(N, W) = 1 - lambda_{N-1-k}(N, 1/2 - W)
        jlo, jhi = n - 1 - hi_hi, n - 1 - hi_lo
        vecs = _concentration_eigenvectors(comp_params, jlo, jhi)
        mu = _rayleigh_quotients(comp_params, vecs)  # ordered by j ascending
        mu = mu[::-1]  # now ordered by k ascending
        sel = slice(hi_lo - kmin, hi_hi - kmin + 1)
        lam[sel] = 1.0 - mu
        comp[sel] = mu
        via[sel] = True

    lo_lo, lo_hi = max(kmin, split), kmax
    if lo_lo <= lo_hi:
        vecs = _concentration_eigenvectors(params, lo_lo, lo_hi)
        vals = _rayleigh_quotients(params, vecs)
        sel = slice(lo_lo - kmin, lo_hi - kmin + 1)
        lam[sel] = vals
        comp[sel] = 1.0 - vals

    return _clamp_slice(params, kmin, kmax, "tridiagonal", lam, comp, via)


def _count_run(slc: SpectrumSlice, eps: float) -> tuple[int, int | None, int | None]:
    """(width, k_first, k_last) of the run with eps < lambda < 1 - eps."""
    mask = slc.transition_mask(eps)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0, None, None
    k_first = slc.kmin + int(idx[0])
    k_last = slc.kmin + int(idx[-1])
    return k_last - k_first + 1, k_first, k_last


def _transition_window(params: ProlateParams, eps: float) -> SpectrumSlice:
    """Slice around 2NW grown until both endpoints leave (eps, 1 - eps)."""
    from .bounds import width_bound_thm1  # bounds imports this module

    n = params.n
    center_lo = min(max(params.tbp_floor - 1, 0), n - 1)
    center_hi = min(max(params.tbp_ceil, 0), n - 1)
    # guaranteed cover: the run is no wider than the thm1 width bound, and it
    # straddles the 1/2-split indices around 2NW
    m = width_bound_thm1(n, eps).integer + 2
    for _ in range(64):
        a = max(0, center_lo - m)
        b = min(n - 1, center_hi + m)
        slc = tridiagonal_spectrum(params, a, b)
        left_done = a == 0 or slc.comp_at(a) <= eps
        right_done = b == n - 1 or slc.lam_at(b) <= eps
        if left_done and right_done:
            return slc
        m *= 2
    raise NumericalError("transition window failed to close; eps may be degenerate")


def transition_widths(params: ProlateParams, eps_list) -> list[TransitionReport]:
    """Count indices with eps < lambda_k < 1 - eps, for each eps of ``eps_list``.

    Exploits monotonicity of lambda_k: only a window centered at 2NW is
    computed, grown until both endpoints are outside the transition region
    of the smallest eps, and every count is taken from that one window.

    Parameters
    ----------
    params : ProlateParams
    eps_list : sequence of float
        Non-empty; each threshold in (0, 1/2). Reports follow its order.
    """
    if not eps_list:
        raise ParameterError("need at least one eps")
    for eps in eps_list:
        if not (0.0 < eps < 0.5):
            raise ParameterError(f"eps must lie in (0, 1/2), got {eps}")
    slc = _transition_window(params, min(eps_list))
    reports = []
    for eps in eps_list:
        width, k_first, k_last = _count_run(slc, eps)
        advisory = eps <= ADVISORY_EPS
        if k_first is not None:
            sel = slice(slc.index_of(k_first), slc.index_of(k_last) + 1)
            advisory = advisory or bool(slc.saturated[sel].any())
        reports.append(TransitionReport(params, eps, width, k_first, k_last, advisory))
    return reports


def transition_width(params: ProlateParams, eps: float) -> TransitionReport:
    """Count indices with eps < lambda_k < 1 - eps; see :func:`transition_widths`."""
    return transition_widths(params, [eps])[0]


def _spectrum_for_sum(params: ProlateParams, kmin: int, kmax: int, method: str) -> SpectrumSlice:
    if method == "dense":
        full = dense_spectrum(params)
        sel = slice(kmin, kmax + 1)
        return SpectrumSlice(
            params=params,
            kmin=kmin,
            kmax=kmax,
            method="dense",
            lam=full.lam[sel],
            comp=full.comp[sel],
            saturated=full.saturated[sel],
            via_complement=full.via_complement[sel],
        )
    if method == "tridiagonal":
        return tridiagonal_spectrum(params, kmin, kmax)
    raise ParameterError(f"unknown method {method!r}")


def eigensum_tail(params: ProlateParams, K: int, method: str = "tridiagonal") -> float:
    """Sum of the trailing eigenvalues ``sum_{k=K..N-1} lambda_k``.

    ``K = 0`` sums the whole spectrum (the trace, 2NW); ``K = N`` is 0.
    """
    n = params.n
    if not (0 <= K <= n):
        raise ParameterError(f"need 0 <= K <= {n}, got {K}")
    if K == n:
        return 0.0
    return _spectrum_for_sum(params, K, n - 1, method).sum_lambdas()


def eigensum_head(params: ProlateParams, K: int, method: str = "tridiagonal") -> float:
    """Sum of the leading eigenvalue defects ``sum_{k=0..K-1} (1 - lambda_k)``.

    Computed as the trailing sum of the complementary-bandwidth instance
    (an exact reflection), so defects far below 1e-16 are not rounded away.
    """
    n = params.n
    if not (0 <= K <= n):
        raise ParameterError(f"need 0 <= K <= {n}, got {K}")
    if K == 0:
        return 0.0
    return eigensum_tail(params.complement(), n - K, method=method)
