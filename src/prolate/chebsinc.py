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

Interpolants are evaluated in barycentric form for stability; the monomial
factorization is materialized only to exhibit the rank, with k capped at 8
to keep the Vandermonde factor well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .displacement import XL_ENTRY_CAP, partition_block_bound
from .errors import CapacityError, ParameterError
from .kernel import ProlateParams, _at_least, _check_w, near_block_rows, sinc_kernel

__all__ = [
    "sinc_derivative_bound",
    "ChebInterpolant",
    "cheb_interpolate",
    "interpolation_error_bound",
    "LowRankBlockApprox",
    "lowrank_block_approx",
    "MONOMIAL_RANK_CAP",
]

#: monomial factorization is only materialized up to this k
MONOMIAL_RANK_CAP = 8


def sinc_derivative_bound(w: float, k: int, t) -> np.ndarray | float:
    """Bound (2 pi W)^k * min(2W/(k+1), 2/(pi|t|)) on the k-th sinc derivative.

    At t = 0 the second branch is +inf, so the first rules; needs 0 < w < 1/2, k >= 0.
    """
    _check_w(w)
    _at_least("k", k, 0)
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    with np.errstate(divide="ignore"):
        second = np.where(t == 0.0, np.inf, 2.0 / (math.pi * np.abs(t)))
    out = (2.0 * math.pi * w) ** k * np.minimum(2.0 * w / (k + 1.0), second)
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
    barycentric formula and reproduces the node values exactly.
    """

    w: float
    shift: int
    a: float
    b: float
    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __call__(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        out = _bary_matrix(self.nodes, self.weights, np.atleast_1d(t)) @ self.values
        return float(out[0]) if scalar else out


def cheb_interpolate(w: float, n: int, a: float, b: float, k: int) -> ChebInterpolant:
    """Interpolant of g_n(t) = g(t - n) at the k >= 1 Chebyshev nodes of [a, b]."""
    if not a < b:
        raise ParameterError(f"need a < b, got a={a}, b={b}")
    nodes = _cheb_nodes(a, b, _at_least("k", k, 1))
    values = sinc_kernel(w, nodes - n)
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

    ``left_factor`` and ``right_factor`` are None above ``MONOMIAL_RANK_CAP``.
    """

    l1: int
    matrix: np.ndarray
    left_factor: np.ndarray | None
    right_factor: np.ndarray | None
    frobenius_error: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.frobenius_error <= self.bound


def lowrank_block_approx(params: ProlateParams, k: int) -> LowRankBlockApprox:
    """Approximate the near block X[l, n] = g(l - n), l = -L1..-1, by rank k.

    Column n carries the interpolant of g_n on [-L1, -1]. All columns share
    the Chebyshev nodes, so one barycentric matrix and one least-squares fit
    serve every column. The product of the monomial factor (powers of l)
    with the coefficient factor exhibits rank <= k; the Frobenius error is
    measured against the barycentric evaluation and compared with
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
    monomial = k <= MONOMIAL_RANK_CAP
    coefs = None
    if l1 == 1:
        # degenerate interval [-1, -1]: interpolation at the point is exact
        approx = block
        if monomial:
            coefs = np.zeros((k, params.n))
            coefs[0] = block[0]
    else:
        nodes = _cheb_nodes(-float(l1), -1.0, k)
        values = sinc_kernel(params.w, nodes[:, None] - cols[None, :])
        approx = _bary_matrix(nodes, _bary_weights(k), ells) @ values
        if monomial:
            coefs = np.polynomial.polynomial.polyfit(nodes, values, k - 1)
    err = float(np.linalg.norm(block - approx, "fro"))
    bound = partition_block_bound(k)
    left = np.vander(ells, k, increasing=True) if monomial else None
    return LowRankBlockApprox(
        l1=l1,
        matrix=left @ coefs if monomial else approx,
        left_factor=left,
        right_factor=coefs,
        frobenius_error=err,
        bound=bound,
    )
