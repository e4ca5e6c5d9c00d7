"""Randomized properties over (N, W, eps), with a fixed example budget.

Examples are derandomized, so every run checks the same cases.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prolate import (
    ProlateParams,
    dense_spectrum,
    eig_envelope,
    pswf_eig_envelope,
    pswf_sum_bounds,
    pswf_width_bound,
    sum_bounds_cor2,
    transition_width,
    tridiagonal_spectrum,
    width_bound_thm1,
    width_bound_thm2,
)


def _log_uniform(lo: float, hi: float):
    """Floats spread evenly in log10 over [lo, hi)."""
    return st.floats(math.log10(lo), math.log10(hi), exclude_max=True).map(lambda x: 10.0**x)


bandwidths = _log_uniform(1e-4, 0.5)
thresholds = _log_uniform(1e-14, 0.49)


def budget(examples: int):
    return settings(max_examples=examples, derandomize=True, deadline=None, database=None)


@budget(60)
@given(n=st.integers(1, 2048), w=bandwidths, eps=thresholds)
def test_width_within_new_bounds(n, w, eps):
    assume(w < 0.5)
    report = transition_width(ProlateParams(n, w), eps)
    cap = min(width_bound_thm1(n, eps).integer, width_bound_thm2(n, w, eps).integer)
    assert report.width <= cap + int(report.advisory), (report, cap)


@budget(25)
@given(n=st.integers(1, 400), w=bandwidths)
def test_envelopes_contain_spectrum(n, w):
    assume(w < 0.5)
    slc = tridiagonal_spectrum(ProlateParams(n, w), 0, n - 1)
    for k, lam in slc.entries:
        env = eig_envelope(n, w, k)
        assert env.lower - 1e-10 <= lam <= env.upper + 1e-10, (k, lam, env)


@budget(25)
@given(n=st.integers(1, 400), w=bandwidths)
def test_tridiagonal_matches_dense(n, w):
    assume(w < 0.5)
    p = ProlateParams(n, w)
    trid = tridiagonal_spectrum(p, 0, n - 1)
    assert np.max(np.abs(trid.lam - dense_spectrum(p).lam)) <= 1e-10


@budget(200)
@given(n=st.integers(1, 2**20), w=bandwidths, eps=thresholds)
def test_thm3_equals_thm2_at_matched_c(n, w, eps):
    assume(w < 0.5)
    assert pswf_width_bound(math.pi * n * w, eps) == width_bound_thm2(n, w, eps)


def _assert_sums_dominate(margins: list[float], caps: list[float]):
    """Each cap bounds the matching sum of margins, within a relative 1e-12.

    ``margins[i]`` is the margin i places from the far end of the side and
    ``caps[i]`` the sum bound covering margins[:i + 1]. Sums below 1e-290 are
    skipped, where subnormal margins lose their relative accuracy.
    """
    for total, cap in zip(itertools.accumulate(margins), caps):
        if total > 1e-290:
            assert total <= cap * (1.0 + 1e-12), (total, cap)


@budget(40)
@given(n=st.integers(1, 1000), w=bandwidths)
def test_sum_bounds_dominate_envelope_margins(n, w):
    # a sum bound integrates its envelope terms, and e^x - 1 >= x makes the
    # integral at least the sum of the margins it covers
    assume(w < 0.5)
    p = ProlateParams(n, w)
    fl, ce = p.tbp_floor, p.tbp_ceil
    heads = [1.0 - eig_envelope(n, w, k).lower for k in range(fl)]
    _assert_sums_dominate(heads, [sum_bounds_cor2(n, w, K, "head") for K in range(1, fl + 1)])
    tails = [eig_envelope(n, w, k).upper for k in range(n - 1, ce - 1, -1)]
    caps = [sum_bounds_cor2(n, w, K, "tail") for K in range(n - 1, ce - 1, -1)]
    _assert_sums_dominate(tails, caps)


@budget(25)
@given(c=_log_uniform(0.1, 2000.0))
def test_pswf_sum_bounds_dominate_envelope_margins(c):
    fl = math.floor(2.0 * c / math.pi)
    heads = [1.0 - pswf_eig_envelope(c, k).lower for k in range(fl)]
    _assert_sums_dominate(heads, [pswf_sum_bounds(c, K, "head") for K in range(1, fl + 1)])
    # the tail runs on forever: cut it where the margins vanish (the dropped
    # remainder is then zero in double precision) and sum from the cut inward
    ce = math.ceil(2.0 * c / math.pi)
    uppers = (pswf_eig_envelope(c, k).upper for k in itertools.count(ce))
    tails = list(itertools.takewhile(lambda u: u > 0.0, uppers))[::-1]
    caps = [pswf_sum_bounds(c, K, "tail") for K in range(ce + len(tails) - 1, ce - 1, -1)]
    _assert_sums_dominate(tails, caps)
