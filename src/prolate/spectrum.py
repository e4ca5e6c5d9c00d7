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
  (k+1)-th largest T-eigenvalue. Bisection locates that eigenvalue only
  coarsely, to a small fraction of the T-eigenvalue gap; a few shifted
  tridiagonal solves (inverse iteration from a fixed-seed Gaussian start)
  then polish the eigenvector, and lambda_k is its Rayleigh quotient against
  B, formed with a fast Toeplitz matvec and one dot product per column.

Eigenvalues above 1/2 are obtained through the complementary bandwidth:
``1 - lambda_k(N, W) = lambda_{N-1-k}(N, 1/2-W)``, so small values of
``1 - lambda`` are computed directly rather than by cancellation. Against
60-digit eigenvalues at N <= 48, the relative error of the smaller of
lambda and 1 - lambda stays below 1e-3 where that value exceeds 1e-14
(worst seen 3.6e-4) and below 5e-2 where it exceeds the 1e-15 resolution
floor (worst seen 2.0e-2).

A transition width needs only the two ends of the run in (eps, 1 - eps).
Computed lambda_k is monotone in k, so :func:`transition_widths` bisects k
for each end inside a cover of orders around 2NW, one eigenvalue per step,
and shares those eigenvalues across its thresholds.

The continuous (PSWF) eigenvalues are reached through a discrete proxy:
the instance (N, c/(pi N)) has eigenvalues within the closed-form radius
``bounds.proxy_delta`` of them, so :func:`pswf_proxy` and
:func:`proxy_width_interval` are spectrum computations on that instance.

Per-index eigenpair computations are independent: disjoint k-ranges may be
evaluated concurrently with results independent of scheduling.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal
# not called here; bench/tracing.py wraps this module-level name
from scipy.linalg import eigh_tridiagonal  # noqa: F401
from scipy.linalg.lapack import dgtsv

from .bounds import proxy_delta, width_bound_thm1
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
    "PSWFProxy",
    "pswf_proxy",
    "proxy_width_interval",
]

#: width counts at or below this epsilon carry a +-1 advisory uncertainty
ADVISORY_EPS = 1e-12

#: shifted tridiagonal solves per eigenvector
POLISH_SOLVES = 3


@dataclass
class SpectrumSlice:
    """A contiguous run of computed eigenvalues ``{(k, lambda_k)}``.

    ``lam`` holds lambda_k clamped to [0, 1]; ``comp`` holds 1 - lambda_k,
    computed directly for orders below 2NW (exact reflection through the
    complementary-bandwidth instance, not the rounded difference).
    ``saturated`` marks entries whose lambda or 1 - lambda fell below the
    1e-15 resolution floor.
    """

    params: ProlateParams
    kmin: int
    kmax: int
    lam: np.ndarray
    comp: np.ndarray
    saturated: np.ndarray
    via_complement: np.ndarray = field(repr=False)

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
    if n == 1:  # T is 1 x 1, and dgtsv needs n >= 2
        return np.ones((1, 1))
    diag, off = _tridiag_bands(n, params.w)
    lo, hi = n - 1 - khi, n - 1 - klo
    # coarse shifts: the T-eigenvalue gaps are smallest near order 2NW, where
    # they are about 0.11 * n * sin(2 pi W) up to n = 2**16, so each shift
    # misses its eigenvalue by under 1e-4 of the gap
    tol = n * math.sin(2.0 * math.pi * params.w) / 2.0**16
    try:
        shifts = eigvalsh_tridiagonal(
            diag, off, select="i", select_range=(lo, hi), lapack_driver="stebz", tol=tol
        )
    except LinAlgError as exc:
        raise NumericalError(
            f"tridiagonal eigensolver failed for orders {klo}..{khi} "
            f"(n={n}, w={params.w}): {exc}"
        ) from exc
    # ascending T order maps to descending k; flip so column j is order klo + j
    shifts = shifts[::-1]
    try:
        return _shifted_solves(diag, off, shifts)
    except NumericalError:
        # where cos(2 pi W) rounds to +-1 (W within about 1e-9 of 0 or 1/2), T
        # has exactly representable eigenvalues that bisection can return to
        # the last bit, making T - shift singular; a few ulps off, it is not
        return _shifted_solves(diag, off, shifts + 4.0 * np.spacing(np.abs(shifts)))


def _shifted_solves(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the tridiagonal (off, diag, off) nearest each shift.

    Inverse iteration: ``POLISH_SOLVES`` solves with T - shift, normalized after
    each, from one fixed-seed Gaussian start (which, unlike an even-symmetric
    one, has components of both parities), so a shift always yields the same
    vector. Each solve shrinks the other components by the ratio of the shift
    error to the eigenvalue gap; the gaps are wide enough that no
    re-orthogonalization is done. Columns follow ``shifts``.
    """
    start = np.random.default_rng(0).standard_normal(diag.size)
    vecs = np.empty((shifts.size, diag.size))
    for row, shift in zip(vecs, shifts):
        v = start
        for _ in range(POLISH_SOLVES):
            *_, v, info = dgtsv(off, diag - shift, off, v)
            if info != 0:
                raise NumericalError(
                    f"shifted tridiagonal solve failed at shift {shift} (info={info})"
                )
            v /= np.linalg.norm(v)
        row[:] = v
    return vecs.T


@functools.lru_cache(maxsize=2)
def _prolate_operator(params: ProlateParams) -> SymmetricToeplitz:
    """B as a Toeplitz operator; two entries hold an instance and its complement,
    so the one-order probes of a width count share one kernel FFT per instance."""
    return SymmetricToeplitz(sinc_kernel(params.w, np.arange(params.n)))


def _rayleigh_quotients(params: ProlateParams, vecs: np.ndarray) -> np.ndarray:
    """lambda = s^T (B s) per unit column s, matvec by FFT, one dot per column."""
    return np.einsum("ij,ij->j", vecs, _prolate_operator(params).matmat(vecs))


def _clamp_slice(params, kmin, kmax, lam_raw, comp_raw, via_comp) -> SpectrumSlice:
    saturated = (np.abs(lam_raw) < RESOLUTION_FLOOR) | (np.abs(comp_raw) < RESOLUTION_FLOOR)
    return SpectrumSlice(
        params=params,
        kmin=kmin,
        kmax=kmax,
        lam=np.clip(lam_raw, 0.0, 1.0),
        comp=np.clip(comp_raw, 0.0, 1.0),
        saturated=saturated,
        via_complement=via_comp,
    )


def dense_spectrum(params: ProlateParams) -> SpectrumSlice:
    """Full spectrum by a dense symmetric eigensolver, sorted descending.

    Oracle route; requires ``params.n`` within the dense cap.
    """
    matrix = build_prolate_matrix(params)
    lam = np.linalg.eigvalsh(matrix)[::-1]
    comp = 1.0 - lam
    via = np.zeros(lam.shape, dtype=bool)
    return _clamp_slice(params, 0, params.n - 1, lam, comp, via)


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
    for reflected, lo, hi in ((True, kmin, min(kmax, split - 1)), (False, max(kmin, split), kmax)):
        if lo > hi:
            continue
        # lambda_k(N, W) = 1 - lambda_{N-1-k}(N, 1/2 - W): a reflected half takes
        # the complement's orders N-1-hi..N-1-lo, which run backwards in k
        if reflected:
            inst, jlo, jhi = params.complement(), n - 1 - hi, n - 1 - lo
        else:
            inst, jlo, jhi = params, lo, hi
        vals = _rayleigh_quotients(inst, _concentration_eigenvectors(inst, jlo, jhi))
        sel = slice(lo - kmin, hi - kmin + 1)
        own, other = (comp, lam) if reflected else (lam, comp)
        own[sel] = vals[::-1] if reflected else vals
        other[sel] = 1.0 - own[sel]
        via[sel] = reflected

    return _clamp_slice(params, kmin, kmax, lam, comp, via)


def _count_run(slc: SpectrumSlice, eps: float) -> tuple[int, int | None, int | None]:
    """(width, k_first, k_last) of the run with eps < lambda < 1 - eps in a slice.

    Counts every entry; the reference that the bisection in
    :func:`transition_widths` is tested against.
    """
    mask = slc.transition_mask(eps)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0, None, None
    k_first = slc.kmin + int(idx[0])
    k_last = slc.kmin + int(idx[-1])
    return k_last - k_first + 1, k_first, k_last


def transition_widths(params: ProlateParams, eps_list) -> list[TransitionReport]:
    """Count indices with eps < lambda_k < 1 - eps, for each eps of ``eps_list``.

    Computed lambda_k is non-increasing and 1 - lambda_k non-decreasing in k,
    so the run for one eps is [k_first, k_last], where k_first is the first
    order with 1 - lambda > eps and k_last the last with lambda > eps. Both
    are found by bisecting k inside a cover of orders around 2NW whose two
    ends lie outside (eps, 1 - eps) for the smallest eps; each step computes
    one eigenvalue. Runs are nested in eps, so the thresholds are taken from
    largest to smallest, each search inside the bracket the previous one left.

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
    n = params.n
    probes: dict[int, tuple[float, float]] = {}

    def probe(k: int) -> tuple[float, float]:
        """(lambda_k, 1 - lambda_k), one order per call, memoized for this count."""
        if k not in probes:
            slc = tridiagonal_spectrum(params, k, k)
            probes[k] = (float(slc.lam[0]), float(slc.comp[0]))
        return probes[k]

    # the cover: the run is no wider than the thm1 width bound, and it
    # straddles the 1/2-split orders around 2NW
    eps_min = min(eps_list)
    center_lo = min(max(params.tbp_floor - 1, 0), n - 1)
    center_hi = min(max(params.tbp_ceil, 0), n - 1)
    m = width_bound_thm1(n, eps_min).integer + 2
    for _ in range(64):
        a = max(0, center_lo - m)
        b = min(n - 1, center_hi + m)
        left_done = a == 0 or probe(a)[1] <= eps_min
        right_done = b == n - 1 or probe(b)[0] <= eps_min
        if left_done and right_done:
            break
        m *= 2
    else:
        raise NumericalError("transition window failed to close; eps may be degenerate")

    # first: first order with 1 - lambda > eps; stop: first with lambda <= eps.
    # Both move outward as eps falls, so each search starts where the last ended
    runs: dict[float, tuple[int, int]] = {}
    first, stop = b + 1, a
    for eps in sorted(set(eps_list), reverse=True):
        first = a + bisect_left(range(a, first), True, key=lambda k: probe(k)[1] > eps)
        stop += bisect_left(range(stop, b + 1), True, key=lambda k: probe(k)[0] <= eps)
        runs[eps] = (first, stop - 1)
    reports = []
    for eps in eps_list:
        k_first, k_last = runs[eps]
        width = max(k_last - k_first + 1, 0)
        if not width:
            k_first = k_last = None
        reports.append(TransitionReport(params, eps, width, k_first, k_last, eps <= ADVISORY_EPS))
    return reports


def transition_width(params: ProlateParams, eps: float) -> TransitionReport:
    """Count indices with eps < lambda_k < 1 - eps; see :func:`transition_widths`."""
    return transition_widths(params, [eps])[0]


def eigensum_tail(params: ProlateParams, K: int) -> float:
    """Sum of the trailing eigenvalues ``sum_{k=K..N-1} lambda_k``.

    ``K = 0`` sums the whole spectrum (the trace, 2NW); ``K = N`` is 0.
    """
    n = params.n
    if not (0 <= K <= n):
        raise ParameterError(f"need 0 <= K <= {n}, got {K}")
    if K == n:
        return 0.0
    return tridiagonal_spectrum(params, K, n - 1).sum_lambdas()


def eigensum_head(params: ProlateParams, K: int) -> float:
    """Sum of the leading eigenvalue defects ``sum_{k=0..K-1} (1 - lambda_k)``.

    Computed as the trailing sum of the complementary-bandwidth instance
    (an exact reflection), so defects far below 1e-16 are not rounded away.
    """
    n = params.n
    if not (0 <= K <= n):
        raise ParameterError(f"need 0 <= K <= {n}, got {K}")
    if K == 0:
        return 0.0
    return eigensum_tail(params.complement(), n - K)


@dataclass(kw_only=True)
class PSWFProxy(SpectrumSlice):
    """Discrete proxy for continuous-case eigenvalues at matched 2c/pi.

    The entries are lambda_k(N, c/(pi N)); each lies within ``delta`` of the
    continuous eigenvalue lambda~_k(c), where

        delta = 4 c^3 / (3 pi N^3 sin(2c/N)).
    """

    c: float
    delta: float


def pswf_proxy(c: float, kmin: int, kmax: int, n: int) -> PSWFProxy:
    """Estimate continuous-case eigenvalues by the discrete instance (N, c/(pi N)).

    Parameters
    ----------
    c : float
        Half time-bandwidth product of the continuous problem.
    kmin, kmax : int
        Inclusive index range of eigenvalues to estimate.
    n : int
        Proxy dimension; must exceed 2c/pi (this also puts c/(pi N) < 1/2).
    """
    delta = proxy_delta(c, n)
    slc = tridiagonal_spectrum(ProlateParams(n, c / (math.pi * n)), kmin, kmax)
    return PSWFProxy(**vars(slc), c=float(c), delta=delta)


def proxy_width_interval(c: float, eps: float, n: int) -> tuple[int | None, int | None, float]:
    """Bracket the continuous transition width using a proxy spectrum.

    Returns ``(lo, hi, delta)`` where ``delta`` is the proxy radius
    ``bounds.proxy_delta(c, n)``, ``lo`` counts proxy eigenvalues with
    eps + delta < lambda < 1 - eps - delta (a certified lower estimate of the
    true width) and ``hi`` counts with thresholds loosened by delta (an upper
    estimate). ``hi`` is None when eps <= delta, in which case no upper
    estimate is certifiable. ``lo`` is None in the degenerate case
    eps + delta >= 1/2. Both counts come from one :func:`transition_widths`
    call on the proxy instance.
    """
    if not (0.0 < eps < 0.5):
        raise ParameterError(f"eps must lie in (0, 1/2), got {eps}")
    delta = proxy_delta(c, n)
    eps_lo, eps_hi = eps + delta, eps - delta
    counted = [thr for thr in (eps_lo, eps_hi) if 0.0 < thr < 0.5]
    params = ProlateParams(n, c / (math.pi * n))
    widths = {r.eps: r.width for r in transition_widths(params, counted)} if counted else {}
    return widths.get(eps_lo), widths.get(eps_hi), delta
