"""Chebyshev interpolation of shifted sinc kernels and the near-block low-rank map.

A degree k-1 interpolant of g_n(t) = g(t - n) at the k Chebyshev nodes of
[a, b] has uniform error at most

    (b - a)^k / (2^(2k-1) k!) * max_{xi in [a,b]} |g_n^(k)(xi)|,

and every derivative of the sinc kernel obeys

    |g^(k)(t)| <= (2 pi W)^k * min(2W/(k+1), 2/(pi |t|)).

Chaining the two certifies, column by column, a rank-k approximation of the
near boundary block (rows -L1..-1 with L1 = floor(1/(4W))), whose Frobenius
error stays below sqrt(5600/pi) * (pi/48)^k. The near block is part of the
W < 1/4 partition, and :func:`lowrank_block_approx` raises DomainError for
wider bands.

Interpolants are evaluated in barycentric form, which is stable for every
k. One interpolant may carry many shifts n at once: the shifts share the
nodes and the barycentric rows, so its values hold one column per shift.
:func:`lowrank_block_approx` evaluates the near block through such an
interpolant, and its barycentric rows times its node values are the rank-k
factorization itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _finite
from .displacement import XL_ENTRY_CAP, partition_block_bound
from .errors import CapacityError, ParameterError
from .kernel import (
    ProlateParams,
    _at_least,
    _check_w,
    _representable,
    near_block_rows,
    sinc_kernel,
)

__all__ = [
    "sinc_derivative_bound",
    "ChebInterpolant",
    "cheb_interpolate",
    "interpolation_error_bound",
    "LowRankBlockApprox",
    "lowrank_block_approx",
]


def sinc_derivative_bound(w: float, k: int, t) -> np.ndarray | float:
    """Bound (2 pi W)^k * min(2W/(k+1), 2/(pi|t|)) on the k-th sinc derivative.

    At t = 0 the second branch is +inf, so the first rules; needs 0 < w < 1/2
    and k >= 0 held by a double. Where (2 pi W)^k overflows, DomainError.
    """
    _check_w(w)
    _representable("k", _at_least("k", k, 0))
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    with np.errstate(divide="ignore"):
        second = np.where(t == 0.0, np.inf, 2.0 / (math.pi * np.abs(t)))
    try:
        growth = (2.0 * math.pi * w) ** k
    except OverflowError:  # past the largest double: raised, not inf
        growth = math.inf
    out = _finite("sinc_derivative_bound", growth) * np.minimum(2.0 * w / (k + 1.0), second)
    return float(out[0]) if scalar else out


def _cheb_nodes(a: float, b: float, k: int) -> np.ndarray:
    m = np.arange(1, k + 1)
    return (b + a) / 2.0 + (b - a) / 2.0 * np.cos((2.0 * m - 1.0) * math.pi / (2.0 * k))


def _bary_weights(k: int) -> np.ndarray:
    # closed form for first-kind Chebyshev points (common scale factor dropped)
    m = np.arange(1, k + 1)
    return (-1.0) ** (m - 1) * np.sin((2.0 * m - 1.0) * math.pi / (2.0 * k))


def _bary_matrix(nodes: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows mapping node values to the barycentric interpolant at each point of ``t``.

    A point that coincides with a node gets that node's unit row, so the
    interpolant reproduces node values exactly.
    """
    diff = t[:, None] - nodes[None, :]
    hit = diff == 0.0
    exact = hit.any(axis=1)
    rows = np.empty(diff.shape)
    rows[exact] = hit[exact]
    q = weights[None, :] / diff[~exact]
    rows[~exact] = q / q.sum(axis=1, keepdims=True)
    return rows


@dataclass(frozen=True)
class ChebInterpolant:
    """Chebyshev interpolant of a shifted sinc kernel on [a, b].

    Degree k-1 through the k first-kind Chebyshev nodes; evaluation uses the
    barycentric formula and reproduces the node values exactly. With an
    integer ``shift`` the values have length k; with a 1-D array of m shifts
    they are k x m, one column per shift, and a call returns len(t) x m
    (length m for a scalar t).
    """

    w: float
    shift: int | np.ndarray
    a: float
    b: float
    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __call__(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=np.float64)
        out = _bary_matrix(self.nodes, self.weights, np.atleast_1d(t)) @ self.values
        if t.ndim:
            return out
        return float(out[0]) if self.values.ndim == 1 else out[0]


def cheb_interpolate(w: float, n, a: float, b: float, k: int) -> ChebInterpolant:
    """Interpolant of g_n(t) = g(t - n) at the k >= 1 Chebyshev nodes of [a, b].

    ``n`` is an integer shift or a 1-D integer array of shifts; an array
    gives one interpolant whose columns are the shifts' interpolants.
    """
    if not a < b:
        raise ParameterError(f"need a < b, got a={a}, b={b}")
    shifts = np.asarray(n)
    if shifts.ndim > 1:
        raise ParameterError(f"n must be an integer or a 1-D array, got {shifts.ndim}-D")
    nodes = _cheb_nodes(a, b, _at_least("k", k, 1))
    values = sinc_kernel(w, np.subtract.outer(nodes, shifts))
    return ChebInterpolant(w, n, float(a), float(b), nodes, values, _bary_weights(k))


def interpolation_error_bound(w: float, n: int, a: float, b: float, k: int) -> float:
    """Certified uniform error of the degree k-1 interpolant of g_n on [a, b].

    Combines the Chebyshev remainder (b-a)^k/(2^(2k-1) k!) with the sinc
    derivative bound maximized over the shifted interval [a-n, b-n].
    """
    lo, hi = a - n, b - n
    t_star = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    return (
        (b - a) ** k
        / (2.0 ** (2 * k - 1) * math.factorial(k))
        * float(sinc_derivative_bound(w, k, t_star))
    )


@dataclass
class LowRankBlockApprox:
    """Rank-k surrogate of the near boundary block with its certified error.

    ``matrix`` is ``left_factor @ right_factor`` for every k: the L1 x k
    barycentric rows at l = -L1..-1 times the k x N node values.
    """

    l1: int
    matrix: np.ndarray
    left_factor: np.ndarray
    right_factor: np.ndarray
    frobenius_error: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.frobenius_error <= self.bound


def lowrank_block_approx(params: ProlateParams, k: int) -> LowRankBlockApprox:
    """Approximate the near block X[l, n] = g(l - n), l = -L1..-1, by rank k.

    Column n carries the interpolant of g_n on [-L1, -1]. All columns share
    the Chebyshev nodes, so one :func:`cheb_interpolate` call over every
    shift 0..N-1 gives the node values (the right factor), and the
    barycentric rows at the block's rows are the left factor; their product
    has rank <= k. The Frobenius error of that product is compared with
    sqrt(5600/pi) * (pi/48)^k. Defined only for W < 1/4; wider bands raise
    DomainError (from :func:`kernel.near_block_rows`). Needs ``k >= 1``. A
    block of more than ``XL_ENTRY_CAP`` entries raises CapacityError before
    anything is allocated.
    """
    _at_least("k", k, 1)
    l1 = near_block_rows(params.w)
    if l1 * params.n > XL_ENTRY_CAP:
        raise CapacityError(f"L1*N = {l1 * params.n} exceeds entry cap {XL_ENTRY_CAP}")
    ells = np.arange(-l1, 0, dtype=np.float64)
    cols = np.arange(params.n, dtype=np.float64)
    block = sinc_kernel(params.w, ells[:, None] - cols[None, :])
    if l1 == 1:
        # degenerate interval [-1, -1]: interpolation at the point is exact
        left = np.eye(1, k)
        right = np.zeros((k, params.n))
        right[0] = block[0]
    else:
        interp = cheb_interpolate(params.w, cols, -float(l1), -1.0, k)
        left = _bary_matrix(interp.nodes, interp.weights, ells)
        right = interp.values
    matrix = left @ right
    return LowRankBlockApprox(
        l1=l1,
        matrix=matrix,
        left_factor=left,
        right_factor=right,
        frobenius_error=float(np.linalg.norm(block - matrix, "fro")),
        bound=partition_block_bound(k),
    )
