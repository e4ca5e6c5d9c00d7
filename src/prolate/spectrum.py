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
  (k+1)-th largest T-eigenvalue. T is persymmetric, so that eigenvector is
  even or odd about the middle as k is, and all the work is done in two
  tridiagonal parity blocks of about N/2: order k is the (k//2)-th largest
  eigenvalue of block k % 2. Bisection in the block locates that eigenvalue
  only coarsely, to a small fraction of the gap to its same-parity
  neighbours; inverse iteration with the block (LAPACK ``stein``, one shift
  per call, so that no vector is re-orthogonalized against the others) then
  polishes the half vector, which is mirrored back to length N. lambda_k is
  its Rayleigh quotient against B, formed with a fast Toeplitz matvec and one
  dot product per column.

Eigenvalues above 1/2 are reflected exactly. With D = diag((-1)**i), the
instance at bandwidth 1/2 - W has T(1/2 - W) = -D T(W) D and prolate matrix
D (I - B) D, so its order N-1-k has the vector D s of order k here and the
eigenvalue ``1 - lambda_k = s^T (I - B) s``. Orders below floor(2NW) take
``1 - lambda`` as that Rayleigh quotient against I - B (first column
1 - 2W, -g(1), -g(2), ...): small values are computed directly rather than
by cancellation, and no second instance is built. Where the smaller of
lambda and 1 - lambda is at most 1e-2, its absolute error stays below 2e-16
(worst seen 1.1e-16; relative, up to 5e-2 just above the 1e-15 floor)
against 60-digit eigenvalues at N <= 48 and exact Rayleigh quotients of the
computed vectors at N = 1024 to 4096; above 1e-2, its relative error stays
below 1e-14 (worst seen 5.7e-15).

A transition width needs only the two ends of the run in (eps, 1 - eps).
Computed lambda_k is monotone in k, so :func:`transition_widths` searches k
for each end, one eigenvalue per step, and shares those eigenvalues across
its thresholds. logit(lambda_k) is nearly linear in k through the
transition (Slepian, Bell Syst. Tech. J. 57, 1978: lambda_k ~ 1/(1 + e^(pi b))),
so each step probes where the secant through the resolved eigenvalues
nearest the threshold crosses it, and a width costs a few eigenvalues
(about 9 at N = 2**16, eps = 1e-13).

The continuous (PSWF) eigenvalues are reached through a discrete proxy:
the instance (N, c/(pi N)) has eigenvalues within the closed-form radius
``bounds.proxy_delta`` of them, so :func:`pswf_proxy` and
:func:`proxy_width_interval` are spectrum computations on that instance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal
# not called here; bench/tracing.py wraps this module-level name
from scipy.linalg import eigh_tridiagonal  # noqa: F401
from scipy.linalg.lapack import dstein

from .bounds import proxy_delta, width_bound_thm1
from .errors import CapacityError, NumericalError, ParameterError
from .kernel import (
    RESOLUTION_FLOOR,
    ProlateParams,
    SymmetricToeplitz,
    _check_eps,
    build_prolate_matrix,
    dense_cap,
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


@dataclass
class SpectrumSlice:
    """A contiguous run of computed eigenvalues ``{(k, lambda_k)}``.

    ``lam`` holds lambda_k clamped to [0, 1]; ``comp`` holds 1 - lambda_k,
    computed directly for the orders marked ``via_complement`` (those below
    floor(2NW) on the tridiagonal route) as a Rayleigh quotient against
    I - B, not as the rounded difference.
    """

    params: ProlateParams
    kmin: int
    kmax: int
    lam: np.ndarray
    comp: np.ndarray
    via_complement: np.ndarray = field(repr=False)

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(self.kmin + i, float(v)) for i, v in enumerate(self.lam)]

    def lam_at(self, k: int) -> float:
        if not (self.kmin <= k <= self.kmax):
            raise ParameterError(f"k = {k} outside slice range [{self.kmin}, {self.kmax}]")
        return float(self.lam[k - self.kmin])

    def sum_lambdas(self) -> float:
        """Compensated sum of lambda over the slice.

        Complement-route entries contribute 1 - mu with mu summed exactly, so
        parts of lambda below the double roundoff of 1.0 are not lost.
        """
        m = self.via_complement
        head = int(np.count_nonzero(m)) - math.fsum(self.comp[m].tolist())
        return head + math.fsum(self.lam[~m].tolist())


@dataclass(frozen=True)
class TransitionReport:
    """Count of eigenvalues inside (eps, 1 - eps).

    ``k_first``/``k_last`` delimit the run; both are None when it is empty.
    ``advisory`` is set when eps is at most ``ADVISORY_EPS``, near enough the
    eigenvalue resolution floor that the count carries a +-1 uncertainty.
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


def _parity_block(
    diag: np.ndarray, off: np.ndarray, parity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bands of T restricted to vectors of one parity (0 even, 1 odd).

    T is persymmetric, so T maps vectors with v[n-1-i] = (-1)**parity v[i]
    to themselves. On such a vector, the first m = n // 2 rows (and, for odd
    n, the middle row) act on the first half, through a tridiagonal of size
    ceil(n/2) (even) or n // 2 (odd):

    * even n: the last row meets its own mirror image, so its diagonal gains
      +off[m-1] (even) or -off[m-1] (odd);
    * odd n, even parity: the middle component couples to both halves; in
      the variable middle/sqrt(2) the block is symmetric with its last
      off-diagonal scaled by sqrt(2);
    * odd n, odd parity: the middle component is 0 and the block is the
      leading m x m part of T.
    """
    m = diag.size // 2
    if diag.size % 2 == 0:
        d = diag[:m].copy()
        d[-1] += off[m - 1] if parity == 0 else -off[m - 1]
        return d, off[: m - 1]
    if parity == 1:
        return diag[:m], off[: m - 1]
    e = off[:m].copy()
    if m:
        e[-1] *= math.sqrt(2.0)
    return diag[: m + 1], e


def _mirror(block: np.ndarray, n: int, parity: int) -> np.ndarray:
    """Unit length-n vectors from parity-block vectors (columns of ``block``).

    The first half is copied and reflected with the parity's sign; for odd n
    the middle entry is sqrt(2) times the even block's last (see
    :func:`_parity_block`), or 0 for the odd block.
    """
    m = n // 2
    full = np.empty((n, block.shape[1]))
    full[:m] = block[:m]
    full[n - m :] = block[:m][::-1] if parity == 0 else -block[:m][::-1]
    if n % 2:
        full[m] = math.sqrt(2.0) * block[m] if parity == 0 else 0.0
    return full / np.linalg.norm(full, axis=0)


def _concentration_eigenvectors(params: ProlateParams, klo: int, khi: int) -> np.ndarray:
    """T-eigenvectors for concentration orders klo..khi, as columns in k order.

    Order k has parity (-1)**k and belongs to the (k // 2)-th largest
    eigenvalue of the parity block k % 2, so each order is bisected for and
    solved in a tridiagonal of about n/2.
    """
    n = params.n
    diag, off = _tridiag_bands(n, params.w)
    # coarse shifts: a block's eigenvalues are those of orders k and k + 2, whose
    # gaps are smallest near order 2NW, where they are at least 0.23 * n *
    # sin(2 pi W) up to n = 2**16 (twice the gap between adjacent orders), so
    # each shift misses its eigenvalue by under 1e-4 of the gap to the
    # nearest other eigenvalue of its block
    tol = n * math.sin(2.0 * math.pi * params.w) / 2.0**16
    vecs = np.empty((n, khi - klo + 1))
    for parity in (0, 1):
        first = klo + (klo + parity) % 2  # first order >= klo of this parity
        if first > khi:
            continue
        try:
            block = _block_eigenvectors(
                *_parity_block(diag, off, parity), first // 2, (khi - parity) // 2, tol
            )
        except LinAlgError as exc:
            raise NumericalError(
                f"tridiagonal eigensolver failed for orders {klo}..{khi} "
                f"(n={n}, w={params.w}): {exc}"
            ) from exc
        vecs[:, first - klo :: 2] = _mirror(block, n, parity)
    return vecs


def _block_eigenvectors(
    diag: np.ndarray, off: np.ndarray, jlo: int, jhi: int, tol: float
) -> np.ndarray:
    """Eigenvectors for the jlo-th..jhi-th largest eigenvalues of one block, as
    columns in descending eigenvalue order.

    Coarse bisection gives one shift per eigenvalue, and LAPACK ``stein``
    (inverse iteration, which perturbs a singular shift itself) turns each
    shift into a unit vector. Each shift goes in its own call: given several,
    ``stein`` re-orthogonalizes every vector against the earlier ones whose
    eigenvalues lie within 1e-3 of the block's norm, which at large n is the
    whole slice, while same-parity neighbours are two orders apart and need
    none of it. The block is one unreduced block: its off-diagonals, those of
    T, never vanish.
    """
    size = diag.size
    if size == 1:
        return np.ones((1, 1))
    # ascending block order runs against k; flip so column j is index jlo + j
    lo, hi = size - 1 - jhi, size - 1 - jlo
    shifts = eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(lo, hi), lapack_driver="stebz", tol=tol
    )[::-1]
    iblock, isplit = np.ones(size, dtype=np.int32), np.full(size, size, dtype=np.int32)
    vecs = np.empty((size, shifts.size))
    for j in range(shifts.size):
        vec, info = dstein(diag, off, shifts[j : j + 1], iblock, isplit)
        if info != 0:
            raise NumericalError(
                f"LAPACK stein did not converge at shift {shifts[j]} (info={info})"
            )
        vecs[:, j] = vec[:, 0]
    return vecs


@functools.lru_cache(maxsize=2)
def _prolate_operator(params: ProlateParams, reflected: bool) -> SymmetricToeplitz:
    """B, or I - B when ``reflected``, as a Toeplitz operator; the two entries
    let the one-order probes of a width count share one kernel FFT per side.
    I - B negates B's sinc samples, and its entry 0 is fl(1 - 2W)."""
    col = sinc_kernel(params.w, np.arange(params.n))
    if reflected:
        col = -col
        col[0] += 1.0
    return SymmetricToeplitz(col)


def _rayleigh_quotients(params: ProlateParams, vecs: np.ndarray, reflected: bool) -> np.ndarray:
    """s^T (B s), or s^T ((I - B) s) when ``reflected``, per unit column s; the
    matvec by FFT, one dot per column."""
    return np.einsum("ij,ij->j", vecs, _prolate_operator(params, reflected).matmat(vecs))


def dense_spectrum(params: ProlateParams) -> SpectrumSlice:
    """Full spectrum by a dense symmetric eigensolver, sorted descending.

    Oracle route; requires ``params.n`` within the dense cap.
    """
    lam = np.clip(np.linalg.eigvalsh(build_prolate_matrix(params))[::-1], 0.0, 1.0)
    return SpectrumSlice(params, 0, params.n - 1, lam, 1.0 - lam, np.zeros(lam.shape, dtype=bool))


def tridiagonal_spectrum(params: ProlateParams, kmin: int, kmax: int) -> SpectrumSlice:
    """Eigenvalues lambda_kmin..lambda_kmax via the commuting tridiagonal route.

    Every order is solved for in this instance; orders below floor(2NW), where
    lambda >= 1/2, take 1 - lambda directly as s^T (I - B) s of their unit
    vector s, so that it keeps relative accuracy near 1.

    Parameters
    ----------
    params : ProlateParams
    kmin, kmax : int
        Inclusive index range, ``0 <= kmin <= kmax <= n - 1``.

    Raises
    ------
    CapacityError
        If the n x (kmax - kmin + 1) eigenvector block has more entries than
        the dense route's n x n block may (:func:`kernel.dense_cap` squared),
        before anything is allocated.
    """
    n = params.n
    if not (0 <= kmin <= kmax <= n - 1):
        raise ParameterError(f"need 0 <= kmin <= kmax <= {n - 1}, got [{kmin}, {kmax}]")
    count = kmax - kmin + 1
    limit = dense_cap() ** 2
    if n * count > limit:
        raise CapacityError(
            f"{count} eigenvectors of length {n} exceed the entry cap {limit} "
            "(the dense cap squared); ask for fewer orders"
        )
    vecs = _concentration_eigenvectors(params, kmin, kmax)
    head = min(max(params.tbp_floor - kmin, 0), count)  # orders below floor(2NW)
    lam = np.empty(count)
    comp = np.empty(count)
    for reflected, cols in ((True, slice(0, head)), (False, slice(head, count))):
        if cols.start == cols.stop:
            continue
        own, other = (comp, lam) if reflected else (lam, comp)
        own[cols] = np.clip(_rayleigh_quotients(params, vecs[:, cols], reflected), 0.0, 1.0)
        other[cols] = 1.0 - own[cols]
    return SpectrumSlice(params, kmin, kmax, lam, comp, np.arange(count) < head)


def _count_run(slc: SpectrumSlice, eps: float) -> tuple[int, int | None, int | None]:
    """(width, k_first, k_last) of the run with eps < lambda < 1 - eps in a slice.

    Counts every entry; the reference that the search in
    :func:`transition_widths` is tested against.
    """
    idx = np.flatnonzero((slc.lam > eps) & (slc.comp > eps))
    if idx.size == 0:
        return 0, None, None
    k_first = slc.kmin + int(idx[0])
    k_last = slc.kmin + int(idx[-1])
    return k_last - k_first + 1, k_first, k_last


def transition_widths(params: ProlateParams, eps_list) -> list[TransitionReport]:
    """Count indices with eps < lambda_k < 1 - eps, for each eps of ``eps_list``.

    Computed lambda_k is non-increasing and 1 - lambda_k non-decreasing in k
    where it is resolved, so the run for one eps is [k_first, k_last], where
    k_first is the first order with 1 - lambda > eps and k_last the last with
    lambda > eps. Each end is found by one search over k, each step of which
    computes one eigenvalue (a probe). The search keeps the bracket that the
    probes prove, last order outside the run and first inside, and probes
    where the secant through the two resolved probes with logit(lambda_k)
    nearest logit(eps) (or logit(1 - eps)) crosses that level: logit(lambda_k)
    is nearly linear in k through the transition, so an end costs a probe or
    two once the secant has two points. Probes with lambda or 1 - lambda at
    the resolution floor count only by which side they fall on; where there
    is no secant, or the last probe was such a one, the search bisects.

    The searches start inside a cover of orders around 2NW, thm1 wide on
    each side, whose ends are taken to lie outside the run. An end is probed
    only when a search reaches it, and the cover is widened if it lies inside.
    Each widening doubles the reach (4 or more at first); at a reach of n the
    cover's ends are the sentinels -1 and n, so widening stops within log2(n).
    Probes are shared by all searches and thresholds, largest eps first.

    Parameters
    ----------
    params : ProlateParams
    eps_list : sequence of float
        Non-empty; each threshold in (RESOLUTION_FLOOR, 1/2). Reports follow
        its order. At or below the floor, computed eigenvalues are rounding
        noise and not monotone in k, so a count there would depend on which
        orders were probed; such an eps raises ParameterError.
    """
    eps_list = [_check_eps(eps) for eps in eps_list]
    if not eps_list:
        raise ParameterError("need at least one eps")
    if (eps_min := min(eps_list)) <= RESOLUTION_FLOOR:
        raise ParameterError(
            f"eps must exceed the resolution floor {RESOLUTION_FLOOR:g}, got {eps_min}"
        )
    n = params.n
    probes: dict[int, tuple[float, float]] = {}
    logits: dict[int, float] = {}  # logit(lambda_k) of the probes above the floor

    def probe(k: int) -> None:
        """Record (lambda_k, 1 - lambda_k) of an order not yet probed, one order per call."""
        slc = tridiagonal_spectrum(params, k, k)
        lam, comp = probes[k] = (float(slc.lam[0]), float(slc.comp[0]))
        if min(lam, comp) > RESOLUTION_FLOOR:
            logits[k] = math.log(lam) - math.log(comp)

    def next_order(lo: int, hi: int, level: float) -> int:
        """The order strictly inside (lo, hi) nearest where logit(lambda_k) crosses
        ``level`` on the secant through the two resolved probes nearest that level.
        The midpoint when there is no such pair, or when the last probe was
        saturated: its value says nothing, and the secant would stall beside it."""
        near = sorted(logits, key=lambda k: abs(logits[k] - level))[:2]
        if len(near) == 2 and next(reversed(probes)) in logits:
            (k1, x1), (k2, x2) = ((k, logits[k]) for k in near)
            if x1 != x2:
                k = k1 + (level - x1) * (k2 - k1) / (x2 - x1)
                return round(min(max(k, lo + 1), hi - 1))
        return (lo + hi) // 2

    # the cover: the run is no wider than thm1 and straddles the orders around 2NW
    center_lo = min(max(params.tbp_floor - 1, 0), n - 1)
    center_hi = min(max(params.tbp_ceil, 0), n - 1)
    reach = width_bound_thm1(n, eps_min).integer + 2

    def first_inside(inside, level: float) -> int:
        """First order k with ``inside(k)``, for a predicate of the probed orders
        that turns True as logit(lambda_k) falls through ``level``; orders -1
        and n count as False and True."""
        nonlocal reach
        while True:
            # the bracket that the probes prove, narrowed to the cover
            hi = min((k for k in probes if inside(k)), default=n)
            lo = max((k for k in probes if k < hi and not inside(k)), default=-1)
            a = center_lo - reach if center_lo - reach > 0 else -1
            b = center_hi + reach if center_hi + reach < n - 1 else n
            lo_c, hi_c = max(lo, a), min(hi, b)
            if hi_c - lo_c > 1:
                probe(next_order(lo_c, hi_c, level))
            elif (lo_c, hi_c) == (lo, hi):
                return hi
            elif (end := a if lo_c > lo else b) not in probes:
                probe(end)
            else:
                reach *= 2

    # run [first, stop - 1]: first is the first order with 1 - lambda > eps,
    # stop the first with lambda <= eps
    runs: dict[float, tuple[int, int]] = {}
    for eps in sorted(set(eps_list), reverse=True):
        level = math.log1p(-eps) - math.log(eps)  # logit(1 - eps)
        first = first_inside(lambda k: probes[k][1] > eps, level)
        stop = first_inside(lambda k: probes[k][0] <= eps, -level)
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


def _check_sum_index(params: ProlateParams, K: int) -> int:
    """``K``, once it splits the spectrum: 0 <= K <= N; ParameterError otherwise."""
    if not (0 <= K <= params.n):
        raise ParameterError(f"need 0 <= K <= {params.n}, got {K}")
    return K


def eigensum_tail(params: ProlateParams, K: int) -> float:
    """Sum of the trailing eigenvalues ``sum_{k=K..N-1} lambda_k``, 0 <= K <= N.

    ``K = 0`` sums the whole spectrum (the trace, 2NW); ``K = N`` is 0.
    """
    if _check_sum_index(params, K) == params.n:
        return 0.0
    return tridiagonal_spectrum(params, K, params.n - 1).sum_lambdas()


def eigensum_head(params: ProlateParams, K: int) -> float:
    """Sum of the leading eigenvalue defects ``sum_{k=0..K-1} (1 - lambda_k)``, 0 <= K <= N.

    Sums the directly computed ``1 - lambda_k`` of one slice, so defects far
    below 1e-16 are not rounded away; entries at or past floor(2NW) are at
    least 1/2, so rounding them costs only ulps of a sum of at least 1/2.
    """
    if _check_sum_index(params, K) == 0:
        return 0.0
    return math.fsum(tridiagonal_spectrum(params, 0, K - 1).comp.tolist())


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
    estimate). ``hi`` is None when eps - delta is at or below the resolution
    floor (eps <= delta among such cases), in which case no upper estimate is
    certifiable. ``lo`` is None in the degenerate case eps + delta >= 1/2.
    Both counts come from one :func:`transition_widths` call on the proxy
    instance. ``eps`` outside (0, 1/2) raises ParameterError.
    """
    eps = _check_eps(eps)
    delta = proxy_delta(c, n)
    eps_lo, eps_hi = eps + delta, eps - delta
    counted = [thr for thr in (eps_lo, eps_hi) if RESOLUTION_FLOOR < thr < 0.5]
    params = ProlateParams(n, c / (math.pi * n))
    widths = {r.eps: r.width for r in transition_widths(params, counted)} if counted else {}
    return widths.get(eps_lo), widths.get(eps_hi), delta
