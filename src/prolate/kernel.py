"""Sinc kernel evaluation and prolate matrix construction.

The prolate matrix of order ``N`` with bandwidth ``W`` in (0, 1/2) is the
symmetric Toeplitz matrix

    B[m, n] = sin(2*pi*W*(m - n)) / (pi*(m - n)),      B[n, n] = 2*W.

Its entries are samples of the sinc kernel ``g(t) = sin(2*pi*W*t)/(pi*t)``,
which this module evaluates with an extended-precision argument reduction so
that offsets up to ``|t| ~ 2**20`` lose essentially nothing to roundoff.
The dense matrix is a strided numpy copy of one reflected column, so the
dense route imports no scipy.

All functions are pure and deterministic, so concurrent callers are safe.
It is also the one home of the input-domain checks that the other modules share.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CapacityError, DomainError, ParameterError

__all__ = [
    "ProlateParams",
    "near_block_rows",
    "snap_to_integer",
    "sin_cos_2pi_product",
    "sinc_kernel",
    "sinc_entry",
    "build_prolate_matrix",
    "sinc_identity_residual",
    "sinc_identity_tail_bound",
    "dense_cap",
]

#: default cap on dense N x N materialization (override with PROLATE_DENSE_CAP)
DENSE_CAP_DEFAULT = 4096

#: eigenvalue resolution: a lambda or 1 - lambda below this is not resolved
RESOLUTION_FLOOR = 1e-15


def dense_cap() -> int:
    """Current cap on dense materialization, honoring ``PROLATE_DENSE_CAP``."""
    env = os.environ.get("PROLATE_DENSE_CAP")
    if env is None:
        return DENSE_CAP_DEFAULT
    try:
        cap = int(env)
    except ValueError as exc:
        raise ParameterError(f"PROLATE_DENSE_CAP is not an integer: {env!r}") from exc
    if cap < 1:
        raise ParameterError("PROLATE_DENSE_CAP must be >= 1")
    return cap


def _at_least(name: str, value, lo: int):
    """``value``, once it is at least ``lo``; ParameterError below it."""
    if value < lo:
        raise ParameterError(f"{name} must be >= {lo}, got {value}")
    return value


def _representable(name: str, value: int) -> int:
    """``value``, once a double holds it, so closed forms give a value or inf."""
    if value > sys.float_info.max:
        raise ParameterError(f"{name} must fit in a double, got {value.bit_length()} bits")
    return value


def _check_w(w: float) -> float:
    if not (0.0 < w < 0.5):
        raise ParameterError(f"w must lie strictly in (0, 1/2), got {w}")
    return float(w)


def _check_eps(eps: float) -> float:
    if not (0.0 < eps < 0.5):
        raise ParameterError(f"eps must lie in (0, 1/2), got {eps}")
    return float(eps)


def snap_to_integer(x: float) -> float:
    """Round ``x`` to the nearest integer when it is within 1e-12 (relative) of one.

    Quantities like 2*N*W or 2*c/pi are often integral in exact arithmetic but
    land a few ulps off after floating-point evaluation; flooring or ceiling
    them raw would then be off by one.
    """
    r = round(x)
    if abs(x - r) <= 1e-12 * max(1.0, abs(x)):
        return float(r)
    return x


@dataclass(frozen=True)
class ProlateParams:
    """Problem instance for the discrete concentration problem.

    Parameters
    ----------
    n : int
        Time duration in samples, ``n >= 1`` and at most the largest double.
    w : float
        Bandwidth, strictly inside (0, 1/2).
    """

    n: int
    w: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ParameterError(f"n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", _representable("n", _at_least("n", int(self.n), 1)))
        object.__setattr__(self, "w", _check_w(self.w))

    @property
    def time_bandwidth(self) -> float:
        """The product 2*N*W, snapped to an integer when within 1e-12 of one."""
        # 2W first: the same double as (2N)W, but finite for every representable N
        return snap_to_integer(2.0 * self.w * self.n)

    @property
    def tbp_floor(self) -> int:
        return int(math.floor(self.time_bandwidth))

    @property
    def tbp_ceil(self) -> int:
        return int(math.ceil(self.time_bandwidth))


def near_block_rows(w: float) -> int:
    """L1 = floor(1/(4W)) for W < 1/4: rows of each near block {-L1..-1}, {N..N+L1-1}."""
    if w >= 0.25:
        raise DomainError(f"partition check needs W < 1/4, got W = {w}")
    return int(math.floor(1.0 / (4.0 * w)))


# Veltkamp splitter for Dekker's exact two-product (no math.fma on 3.10).
_SPLIT = 134217729.0  # 2**27 + 1
# the splitter's multiply overflows at and above this size
_SPLIT_LIMIT = 2.0**996


def _two_product(a: float, b):
    """Return (p, e) with p = fl(a*b) and p + e = a*b exactly, for |a| below 2**996.

    Entries of ``b`` too large to split are taken at 2**-28 times their size
    and the results scaled back: a power of two scales p and e exactly.
    """
    b = np.asarray(b, dtype=np.float64)
    big = np.abs(b) >= _SPLIT_LIMIT
    if big.any():
        scale = np.where(big, 2.0**28, 1.0)
        p, e = _two_product(a, b / scale)
        return p * scale, e * scale
    p = a * b
    ta = _SPLIT * a
    a_hi = ta - (ta - a)
    a_lo = a - a_hi
    tb = _SPLIT * b
    b_hi = tb - (tb - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def sin_cos_2pi_product(w: float, t) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate sin(2*pi*w*t) and cos(2*pi*w*t) with exact argument reduction.

    The product ``w*t`` is formed as a double-double and reduced mod 1 before
    scaling by 2*pi, so the phase keeps full precision for ``|w*t|`` up to
    ~2**26 instead of degrading linearly with the magnitude of the argument.

    Parameters
    ----------
    w : float
        Frequency-like factor.
    t : array_like
        Offsets (integers or reals).

    Returns
    -------
    (sin, cos) : tuple of ndarray
    """
    theta, sign = _reduced_phase(w, t)
    return sign * np.sin(theta), sign * np.cos(theta)


def _reduced_phase(w: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(theta, sign) with |theta| <= pi/2, sin(2*pi*w*t) = sign * sin(theta) and
    cos(2*pi*w*t) = sign * cos(theta): the exact reduction of
    :func:`sin_cos_2pi_product`, shared with :func:`sinc_kernel`, which needs
    the sine only."""
    p, e = _two_product(float(w), t)
    f = p - np.floor(p)  # exact for |p| >= 1 (Sterbenz); one rounding below that
    f = f + e
    f -= np.floor(f)  # f in [0, 1)
    # fold into r in [-1/4, 1/4] so libm sees small arguments
    k = np.floor(2.0 * f + 0.5)  # 0, 1 or 2
    r = f - 0.5 * k
    # the sign by comparison, not k % 2: a float % costs more than the sine
    return (2.0 * math.pi) * r, np.where(k == 1.0, -1.0, 1.0)


def sinc_kernel(w: float, t) -> np.ndarray:
    """Sinc kernel g(t) = sin(2*pi*w*t)/(pi*t) with g(0) = 2*w.

    Evaluated on ``|t|`` so the result is even in ``t`` bit-for-bit, which
    keeps matrices assembled from it exactly symmetric.

    Parameters
    ----------
    w : float
        Bandwidth in (0, 1/2); ParameterError outside it.
    t : array_like
        Offsets, integer or real.

    Returns
    -------
    ndarray
        ``g(t)`` evaluated elementwise.
    """
    _check_w(w)
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty(t.shape, dtype=np.float64)
    zero = t == 0.0
    out[zero] = 2.0 * w
    ta = np.abs(t[~zero])
    theta, sign = _reduced_phase(w, ta)  # the sine alone: no cosine is evaluated
    g = sign * np.sin(theta)
    # pi |t| overflows exactly where |t| > max/pi: there g is divided by pi and
    # |t| in turn, which gives its subnormal value
    huge = ta > sys.float_info.max / math.pi
    if huge.any():
        g[huge] /= math.pi
        ta[~huge] *= math.pi
    else:
        ta *= math.pi
    out[~zero] = g / ta
    return out[0] if scalar else out


def sinc_entry(w: float, d: int) -> float:
    """Scalar prolate-matrix entry sin(2*pi*w*d)/(pi*d); d = 0 gives 2*w."""
    return float(sinc_kernel(w, float(d)))


def build_prolate_matrix(params: ProlateParams) -> np.ndarray:
    """Dense N x N prolate matrix for ``params``.

    The matrix is a strided copy of one reflected sinc column, made with
    numpy alone: the same entries, bit for bit, as ``scipy.linalg.toeplitz``
    gives, without importing scipy.

    Parameters
    ----------
    params : ProlateParams

    Returns
    -------
    ndarray
        Symmetric Toeplitz matrix, bit-equal across the diagonal band; a new
        C-contiguous, writeable array.

    Raises
    ------
    CapacityError
        If ``params.n`` exceeds :func:`dense_cap`.
    """
    limit = dense_cap()
    if params.n > limit:
        raise CapacityError(f"n = {params.n} exceeds dense materialization cap {limit}")
    n = params.n
    col = sinc_kernel(params.w, np.arange(n))
    # row i is (c[i], ..., c[1], c[0], c[1], ...): a window of the reflected
    # column that starts one entry further back per row
    vals = np.concatenate((col[:0:-1], col))
    step = vals.strides[0]
    return as_strided(vals[n - 1 :], (n, n), (-step, step)).copy()


def sinc_identity_residual(w: float, m: int, n: int, L: int) -> float:
    """Truncation residual of the sinc product identity.

    Evaluates ``| sum_{l=-L..L} g(l-m) g(l-n) - g(m-n) |``. The full bilateral
    sum equals g(m-n) exactly, so the residual is the absolute tail and decays
    like O(1/L) for L >= 1; see :func:`sinc_identity_tail_bound`.
    """
    _at_least("L", L, 1)
    ell = np.arange(-L, L + 1)
    terms = sinc_kernel(w, ell - m) * sinc_kernel(w, ell - n)
    total = math.fsum(terms.tolist())
    return abs(total - sinc_entry(w, m - n))


def sinc_identity_tail_bound(m: int, n: int, L: int) -> float:
    """Analytic bound on the two-sided tail dropped by the truncated identity.

    Each factor obeys |g(t)| <= 2/(pi*|t|); summing the resulting 1/j**2 tails
    on both sides gives

        tail <= (4/pi**2) * (1/(L - max(m, n)) + 1/(L + min(m, n, 0))).

    Requires ``L > max(|m|, |n|)``.
    """
    hi = max(m, n)
    lo = min(m, n, 0)
    if L <= max(abs(m), abs(n)):
        raise ParameterError("tail bound requires L > max(|m|, |n|)")
    return 4.0 / math.pi**2 * (1.0 / (L - hi) + 1.0 / (L + lo))
