"""Closed-form eigenvalue and transition-width bounds, discrete and continuous.

Evaluators for the non-asymptotic transition-width bounds (``thm1``, ``thm2``
and their continuous counterpart ``thm3``), the per-index eigenvalue
envelopes and head/tail sum bounds derived from them, the earlier published
width bounds they are compared against (Zhu & Wakin 2015; Boulsane, Bourguiba
& Karoui 2020; and the log(8N)-style bound), Slepian's classical plunge
approximation, and the certified radius ``proxy_delta`` of the
discrete-to-continuous eigenvalue proxy (the proxy spectrum itself is
computed in ``spectrum``).

Every envelope and sum bound is one decay law, inverted from a width bound.
With the split at 2NW (or 2c/pi) and d the distance from it, d = fl-1-k
(head) or k-ce (tail) for lambda_k and d = fl-K or K-ce for a sum from K,
the bound is the min over terms (a, s, t) of a*exp(-(d - s)/t). The rates
are t1 = (2/pi^2) log(4N), t2 = (2/pi^2) log(100NW+25) and, continuous,
t = (2/pi^2) log(100c/pi+25). Envelope terms have offset s = 1 (rate t1,
a = 8) or 6 (rates t2 and t, a = 10); a sum term is an envelope term summed
over all larger d, prefactor a*t and offset 2 or 7.

Bounds on integer counts are reported both as the raw real value and its
floor; a value that overflows a double raises DomainError. All functions
are pure and closed-form: nothing here computes a spectrum, and the module
imports no other layer than ``kernel``.
"""

from __future__ import annotations

import contextlib
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError
from .kernel import (
    ProlateParams,
    _at_least,
    _check_eps,
    _representable,
    sin_cos_2pi_product,
    snap_to_integer,
)

__all__ = [
    "BoundValue",
    "EnvelopeBound",
    "SlepianApprox",
    "width_bound_thm1",
    "width_bound_thm2",
    "width_bound_prior",
    "eig_envelope",
    "eig_upper_prior",
    "sum_bounds_cor2",
    "slepian_approx",
    "pswf_width_bound",
    "pswf_eig_envelope",
    "pswf_sum_bounds",
    "proxy_delta",
    "evaluate_bound_set",
    "EULER_MASCHERONI",
]

#: Euler-Mascheroni constant, 20 digits
EULER_MASCHERONI = 0.57721566490153286061

#: decay-rate constant printed in the eq4 eigenvalue tail bound
_ETA_EQ4 = 0.069

_PI2 = math.pi**2


class BoundValue(NamedTuple):
    """A bound on an integer count: raw real value and its integer report."""

    value: float
    integer: int


class EnvelopeBound(NamedTuple):
    """Two-sided envelope for a single eigenvalue, clamped to [0, 1]."""

    lower: float
    upper: float
    flags: frozenset


class SlepianApprox(NamedTuple):
    """Plunge-region approximation value with an out-of-validity advisory."""

    value: float
    advisory: bool


def _check_c(c: float) -> float:
    if not c > 0.0:
        raise ParameterError(f"c must be positive, got {c}")
    if not math.isfinite(c):
        raise ParameterError(f"c must be finite, got {c}")
    return float(c)


def _finite(name: str, value: float) -> float:
    """``value``, once it is finite; DomainError where the closed form overflowed."""
    if not math.isfinite(value):
        raise DomainError(f"{name} overflows in double precision")
    return value


def _count_bound(name: str, value: float) -> BoundValue:
    """A real bound on a count and its floor."""
    return BoundValue(_finite(name, value), int(math.floor(value)))


def width_bound_thm1(n: int, eps: float) -> BoundValue:
    """Transition-width bound 2*ceil(log(4N)*log(4/(eps*(1-eps)))/pi^2).

    Already an even integer; bandwidth-independent. Needs ``n >= 1``.
    """
    _at_least("n", n, 1)
    eps = _check_eps(eps)
    half = _finite("thm1", math.log(4.0 * n) * math.log(4.0 / (eps * (1.0 - eps))) / _PI2)
    value = 2 * math.ceil(half)
    return BoundValue(float(value), int(value))


def pswf_width_bound(c: float, eps: float) -> BoundValue:
    """Continuous transition-width bound (2/pi^2)*log(100c/pi+25)*log(5/(eps(1-eps))) + 7."""
    c = _check_c(c)
    eps = _check_eps(eps)
    value = (
        2.0 / _PI2 * math.log(100.0 * c / math.pi + 25.0) * math.log(5.0 / (eps * (1.0 - eps)))
        + 7.0
    )
    return _count_bound("thm3", value)


def width_bound_thm2(n: int, w: float, eps: float) -> BoundValue:
    """Transition-width bound (2/pi^2)*log(100NW+25)*log(5/(eps(1-eps))) + 7.

    Identical expression to :func:`pswf_width_bound` under c = pi*N*W, and
    implemented through it so the identity holds exactly in floating point.
    """
    p = ProlateParams(n, w)
    return pswf_width_bound(math.pi * p.n * p.w, eps)


def width_bound_prior(n: int, w: float, eps: float, which: str) -> BoundValue:
    """Earlier published transition-width bounds, evaluated verbatim.

    ``which`` selects:

    * ``'eq2'`` : [(2/pi^2) log(N-1) + (2/pi^2)(2N-1)/(N-1)] / (eps(1-eps)),
      valid for N >= 2  (Zhu & Wakin 2015);
    * ``'eq3'`` : [(1/pi^2) log(2NW) + 0.45 - (2/3)W^2
      + sin^2(2 pi N W)/(6 pi^2 N^2)] / (eps(1-eps)),
      valid where it is not negative (Boulsane, Bourguiba & Karoui 2020);
    * ``'eq6'`` : ((8/pi^2) log(8N) + 12) * log(15/eps).
    """
    p = ProlateParams(n, w)
    eps = _check_eps(eps)
    if which == "eq2":
        if p.n < 2:
            raise DomainError("eq2 requires N >= 2")
        value = (2.0 / _PI2 * math.log(p.n - 1.0) + 2.0 / _PI2 * (2.0 * p.n - 1.0) / (p.n - 1.0)) / (
            eps * (1.0 - eps)
        )
    elif which == "eq3":
        s = float(sin_cos_2pi_product(p.w, np.array([float(p.n)]))[0][0])  # sin(2 pi N W)
        value = (
            1.0 / _PI2 * math.log(2.0 * p.n * p.w)
            + 0.45
            - 2.0 / 3.0 * p.w**2
            + s**2 / (6.0 * _PI2 * (p.n * float(p.n)))  # N^2 in doubles: inf past ~1e154
        ) / (eps * (1.0 - eps))
        if value < 0.0:
            raise DomainError(f"eq3 is negative at 2NW = {2.0 * p.n * p.w:.6g}")
    elif which == "eq6":
        value = (8.0 / _PI2 * math.log(8.0 * p.n) + 12.0) * math.log(15.0 / eps)
    else:
        raise ParameterError(f"which must be one of 'eq2', 'eq3', 'eq6', got {which!r}")
    return _count_bound(which, value)


def _discrete_law(p: ProlateParams) -> tuple[int, int, tuple]:
    """Floor and ceil of 2NW and the envelope terms (a, s, log x) of Theorems 1 and 2."""
    terms = ((8.0, 1, math.log(4.0 * p.n)), (10.0, 6, math.log(100.0 * p.n * p.w + 25.0)))
    return p.tbp_floor, p.tbp_ceil, terms


def _pswf_law(c: float) -> tuple[int, int, tuple]:
    """Floor and ceil of 2c/pi and the envelope term (a, s, log x) of Theorem 3."""
    split = snap_to_integer(2.0 * c / math.pi)
    return math.floor(split), math.ceil(split), ((10.0, 6, math.log(100.0 * c / math.pi + 25.0)),)


def _decay(d: int, terms: tuple, summed: bool = False) -> float:
    """The decay law at distance ``d`` from the split: min over ``terms``.

    A term (a, s, log x) has rate t = (2/pi^2) log x and bounds one margin by
    a exp(-(d - s)/t). ``summed`` bounds the margins at all distances >= d
    together by their integral from d - 1, a t exp(-(d - s - 1)/t), with
    a t evaluated as (2a/pi^2) log x.
    """
    if summed:
        terms = [(2.0 * a / _PI2 * log_x, s + 1, log_x) for a, s, log_x in terms]
    return min(a * math.exp(-(d - s) / (2.0 / _PI2 * log_x)) for a, s, log_x in terms)


def _envelope(law: tuple[int, int, tuple], k: int, midpoint: bool) -> EnvelopeBound:
    """Envelope of lambda_k from the decay law on its side of the split.

    A head index bounds 1 - lambda_k at d = fl-1-k, a tail index bounds
    lambda_k at d = k-ce; a bound above 1 is clamped and flagged
    ``'uninformative'``. With ``midpoint`` the two indices at d = 0 also take
    the 1/2 split (lambda_{fl-1} >= 1/2 >= lambda_{ce}), flagged ``'midpoint'``.
    """
    fl, ce, terms = law
    if fl - 1 < k < ce:
        # single index strictly between fl-1 and ce (2NW or 2c/pi non-integral)
        return EnvelopeBound(0.0, 1.0, frozenset({"uninformative"}))
    d = fl - 1 - k if k < ce else k - ce
    bound = _decay(d, terms)
    flags = set()
    if bound > 1.0:
        bound = 1.0
        flags.add("uninformative")
    if midpoint and d == 0 and bound > 0.5:
        bound = 0.5
        flags.add("midpoint")
    if k < ce:
        return EnvelopeBound(1.0 - bound, 1.0, frozenset(flags))
    return EnvelopeBound(0.0, bound, frozenset(flags))


def _sum_bound(law: tuple[int, int, tuple], K: int, side: str, last: int | None) -> float:
    """Head sum over k < K (d = fl-K) or tail sum over K <= k <= ``last`` (d = K-ce)."""
    fl, ce, terms = law
    if side == "head":
        if not (1 <= K <= fl):
            raise DomainError(f"head side requires 1 <= K <= {fl}, got {K}")
        return _decay(fl - K, terms, summed=True)
    if side == "tail":
        if not (ce <= K and (last is None or K <= last)):
            span = f"K >= {ce}" if last is None else f"{ce} <= K <= {last}"
            raise DomainError(f"tail side requires {span}, got {K}")
        return _decay(K - ce, terms, summed=True)
    raise ParameterError(f"side must be 'head' or 'tail', got {side!r}")


def _order_of(n: int, w: float, k: int) -> ProlateParams:
    """The instance (n, w), once ``k`` is one of its orders 0..N-1."""
    p = ProlateParams(n, w)
    if not (0 <= k <= p.n - 1):
        raise ParameterError(f"k must lie in [0, {p.n - 1}], got {k}")
    return p


def eig_envelope(n: int, w: float, k: int) -> EnvelopeBound:
    """Non-asymptotic envelope [lower, upper] for lambda_k, 0 <= k <= N-1.

    For k <= floor(2NW)-1 the lower bound is 1 - min{8 exp(-(fl-k-2)/t1),
    10 exp(-(fl-k-7)/t2)}; for k >= ceil(2NW) the mirrored expression bounds
    lambda_k from above. Raw values outside [0, 1] are clamped and flagged
    ``'uninformative'``; lambda_{fl-1} >= 1/2 >= lambda_{ce} also applies,
    flagged ``'midpoint'``.
    """
    return _envelope(_discrete_law(_order_of(n, w, k)), k, midpoint=True)


def eig_upper_prior(n: int, w: float, k: int, which: str) -> float | None:
    """Published per-index upper bounds on lambda_k; None outside validity.

    ``'eq4'`` : 2 exp(-eta (k-2NW)/(log(pi N W)+5)), eta = 0.069, valid for
    2NW + log(pi N W) + 6 <= k <= pi N W.
    ``'eq5'`` : 2 exp(-(2k+1) log((2k+2)/(e pi N W))), valid for
    2 <= (e pi/2) N W <= k <= N-1. ``k`` outside 0..N-1 raises ParameterError.
    """
    p = _order_of(n, w, k)
    nw = p.n * p.w
    if which == "eq4":
        if not (2.0 * nw + math.log(math.pi * nw) + 6.0 <= k <= math.pi * nw):
            return None
        return 2.0 * math.exp(-_ETA_EQ4 * (k - 2.0 * nw) / (math.log(math.pi * nw) + 5.0))
    if which == "eq5":
        lo = math.e * math.pi / 2.0 * nw
        if not (2.0 <= lo <= k <= p.n - 1):
            return None
        return 2.0 * math.exp(-(2.0 * k + 1.0) * math.log((2.0 * k + 2.0) / (math.e * math.pi * nw)))
    raise ParameterError(f"which must be 'eq4' or 'eq5', got {which!r}")


def sum_bounds_cor2(n: int, w: float, K: int, side: str) -> float:
    """Bound on the head defect sum or tail sum of the spectrum.

    ``side='head'`` bounds sum_{k<K}(1 - lambda_k) for 1 <= K <= floor(2NW);
    ``side='tail'`` bounds sum_{k>=K} lambda_k for ceil(2NW) <= K <= N-1.
    Each is the min of a log(4N)-rate and a log(100NW+25)-rate expression.
    """
    p = ProlateParams(n, w)
    return _sum_bound(_discrete_law(p), K, side, p.n - 1)


def slepian_approx(n: int, w: float, k: float) -> SlepianApprox:
    """Classical plunge approximation for lambda_k.

    Evaluates [1 + exp(-pi^2 (2NW - k - 1/2) / (log(8N sin(2 pi W)) + gamma))]^{-1}
    with gamma the Euler-Mascheroni constant. ``k`` may be real for diagnostic
    use. The advisory flag is set when the value falls outside (0.2, 0.8),
    where the approximation is not considered reliable.
    """
    p = ProlateParams(n, w)
    s = float(sin_cos_2pi_product(p.w, np.array([1.0]))[0][0])  # sin(2 pi W) > 0
    denom = math.log(8.0 * p.n * s) + EULER_MASCHERONI
    x = -_PI2 * (2.0 * p.n * p.w - k - 0.5) / denom
    # guard exp overflow; value saturates at 0 or 1 accordingly
    if x > 700.0:
        value = 0.0
    else:
        value = 1.0 / (1.0 + math.exp(x))
    return SlepianApprox(value, not (0.2 < value < 0.8))


def pswf_eig_envelope(c: float, k: int) -> EnvelopeBound:
    """Envelope for the k-th continuous-case eigenvalue.

    Mirrors :func:`eig_envelope` with 2NW replaced by 2c/pi and the rate
    log(100c/pi + 25); the continuous case has no N so there is no log(4N)
    branch and no midpoint refinement.
    """
    return _envelope(_pswf_law(_check_c(c)), _at_least("k", k, 0), midpoint=False)


def pswf_sum_bounds(c: float, K: int, side: str) -> float:
    """Head/tail sum bounds for the continuous-case eigenvalues.

    ``side='head'`` (1 <= K <= floor(2c/pi)) bounds sum_{k<K}(1 - lambda~_k);
    ``side='tail'`` (K >= ceil(2c/pi)) bounds sum_{k>=K} lambda~_k.
    """
    return _sum_bound(_pswf_law(_check_c(c)), K, side, None)


def proxy_delta(c: float, n: int) -> float:
    """Certified radius 4c^3/(3 pi N^3 sin(2c/N)); requires N > 2c/pi."""
    c = _check_c(c)
    if not n > 2.0 * c / math.pi:
        raise DomainError(f"need N > 2c/pi = {2.0 * c / math.pi:.6g}, got N = {n}")
    try:
        delta = 4.0 * c**3 / (3.0 * math.pi * n**3 * math.sin(2.0 * c / n))
    except OverflowError:  # c**3 or N**3 past the largest double: raised, not inf
        delta = math.inf
    return _finite("proxy_delta", delta)


def evaluate_bound_set(
    n: int,
    w: float,
    eps: float,
    k: int | None = None,
    K: int | None = None,
) -> dict:
    """Evaluate the full family of bounds for one instance, no spectrum needed.

    Always includes the width bounds (new and prior) and the continuous-case
    width bound at c = pi*N*W. When ``k`` is given (0 <= k <= N-1), adds the
    per-index envelope, the prior per-index upper bounds, and the plunge
    approximation; when ``K >= 0`` is given, adds the head/tail sum bounds
    whose range holds K.
    """
    p = ProlateParams(n, w)
    eps = _check_eps(eps)
    if K is not None:
        _representable("K", _at_least("K", K, 0))
    c = math.pi * p.n * p.w
    out: dict = {
        "thm1": width_bound_thm1(p.n, eps),
        "thm2": width_bound_thm2(p.n, p.w, eps),
        "eq6_fst": width_bound_prior(p.n, p.w, eps, "eq6"),
        "thm3_pswf": pswf_width_bound(c, eps),
    }
    for key, which in (("eq2_zhuwakin", "eq2"), ("eq3_boulsane", "eq3")):
        with contextlib.suppress(DomainError):  # eq2 needs N >= 2, eq3 a value >= 0
            out[key] = width_bound_prior(p.n, p.w, eps, which)
    if k is not None:
        env = eig_envelope(p.n, p.w, k)
        out["cor1_lower"] = env.lower
        out["cor1_upper"] = env.upper
        out["slepian_approx"] = slepian_approx(p.n, p.w, k)
        out["eq4_boulsane1"] = eig_upper_prior(p.n, p.w, k, "eq4")
        out["eq5_boulsane2"] = eig_upper_prior(p.n, p.w, k, "eq5")
        penv = pswf_eig_envelope(c, k)
        out["cor3_lower"] = penv.lower
        out["cor3_upper"] = penv.upper
    if K is not None:
        for side in ("head", "tail"):  # a side whose range excludes K is left out
            with contextlib.suppress(DomainError):
                out[f"cor2_{side}"] = sum_bounds_cor2(p.n, p.w, K, side)
            with contextlib.suppress(DomainError):
                out[f"cor4_{side}"] = pswf_sum_bounds(c, K, side)
    return out
