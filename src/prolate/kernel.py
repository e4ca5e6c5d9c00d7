"""Sinc kernel evaluation, prolate matrix construction, and fast Toeplitz apply.

The prolate matrix of order ``N`` with bandwidth ``W`` in (0, 1/2) is the
symmetric Toeplitz matrix

    B[m, n] = sin(2*pi*W*(m - n)) / (pi*(m - n)),      B[n, n] = 2*W.

Its entries are samples of the sinc kernel ``g(t) = sin(2*pi*W*t)/(pi*t)``,
which this module evaluates with an extended-precision argument reduction so
that offsets up to ``|t| ~ 2**20`` lose essentially nothing to roundoff.

All functions are pure and deterministic, so concurrent callers are safe.
It is also the one home of the input-domain checks that the other modules share.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ParameterError

__all__ = [
    "ProlateParams",
    "near_block_rows",
    "snap_to_integer",
    "sin_cos_2pi_product",
    "sinc_kernel",
    "sinc_entry",
    "build_prolate_matrix",
    "SymmetricToeplitz",
    "toeplitz_apply",
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


def _two_product(a: float, b):
    """Return (p, e) with p = fl(a*b) and p + e = a*b exactly."""
    b = np.asarray(b, dtype=np.float64)
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
    p, e = _two_product(float(w), t)
    f = p - np.floor(p)  # exact for |p| >= 1 (Sterbenz); one rounding below that
    f = f + e
    f -= np.floor(f)  # f in [0, 1)
    # fold into r in [-1/4, 1/4] so libm sees small arguments
    k = np.floor(2.0 * f + 0.5)
    r = f - 0.5 * k
    theta = (2.0 * math.pi) * r
    sign = 1.0 - 2.0 * (k % 2.0)
    return sign * np.sin(theta), sign * np.cos(theta)


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
    s, _ = sin_cos_2pi_product(w, ta)
    out[~zero] = s / (math.pi * ta)
    return out[0] if scalar else out


def sinc_entry(w: float, d: int) -> float:
    """Scalar prolate-matrix entry sin(2*pi*w*d)/(pi*d); d = 0 gives 2*w."""
    return float(sinc_kernel(w, float(d)))


def build_prolate_matrix(params: ProlateParams) -> np.ndarray:
    """Dense N x N prolate matrix for ``params``.

    Parameters
    ----------
    params : ProlateParams

    Returns
    -------
    ndarray
        Symmetric Toeplitz matrix, bit-equal across the diagonal band.

    Raises
    ------
    CapacityError
        If ``params.n`` exceeds :func:`dense_cap`.
    """
    limit = dense_cap()
    if params.n > limit:
        raise CapacityError(f"n = {params.n} exceeds dense materialization cap {limit}")
    col = sinc_kernel(params.w, np.arange(params.n))
    from scipy.linalg import toeplitz

    return toeplitz(col)


def _embed_size(n: int) -> int:
    """Next power of two >= 2*n - 1."""
    t = 2 * n - 1
    return 1 << (t - 1).bit_length() if t > 1 else 1


class SymmetricToeplitz:
    """Symmetric Toeplitz operator with an O(N log N) product.

    The first column defines the matrix. The circulant embedding (size: next
    power of two >= 2N-1) is transformed once, so repeated products against
    the same matrix reuse the kernel FFT.
    """

    def __init__(self, first_column):
        col = np.asarray(first_column, dtype=np.float64)
        if col.ndim != 1 or col.size == 0:
            raise ParameterError("first_column must be a non-empty 1-D array")
        self.n = col.size
        m = _embed_size(self.n)
        c = np.zeros(m)
        c[: self.n] = col
        if self.n > 1:
            c[m - self.n + 1 :] = col[1:][::-1]
        self._m = m
        self._kernel_fft = np.fft.rfft(c)

    def matmat(self, xs) -> np.ndarray:
        """Apply to each column of ``xs`` (N x K), returning an N x K array."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[0] != self.n:
            raise ParameterError("column block must be N x K")
        y = np.fft.irfft(
            self._kernel_fft[:, None] * np.fft.rfft(xs, self._m, axis=0), self._m, axis=0
        )
        return y[: self.n]


def toeplitz_apply(first_column, x) -> np.ndarray:
    """Product B @ x for the symmetric Toeplitz matrix defined by its first column.

    Uses circulant embedding and FFT convolution; matches the dense matvec to
    machine precision in O(N log N).

    Parameters
    ----------
    first_column : array_like
        First column (equivalently first row) of the matrix.
    x : array_like
        Vector of the same length.

    Returns
    -------
    ndarray
    """
    x = np.asarray(x, dtype=np.float64)
    op = SymmetricToeplitz(first_column)
    if x.shape != (op.n,):
        raise ParameterError(
            f"length mismatch: first_column has {op.n} entries, x has {x.shape}"
        )
    return op.matmat(x[:, None])[:, 0]


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
