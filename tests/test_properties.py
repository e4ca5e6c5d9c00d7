"""Randomized properties over (N, W, eps), with a fixed example budget.

Examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prolate import (
    ProlateParams,
    dense_spectrum,
    eig_envelope,
    pswf_width_bound,
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
