"""Randomized properties over (N, W, eps), with a fixed example budget.

Examples are derandomized, so every run checks the same cases.
"""

import functools
import itertools
import math
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
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
    transition_widths,
    tridiagonal_spectrum,
    width_bound_thm1,
    width_bound_thm2,
)
import prolate.spectrum as spectrum
from prolate.kernel import RESOLUTION_FLOOR
from prolate.spectrum import _count_run


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


@budget(30)
@given(n=st.integers(1, 2048), w=bandwidths, eps_list=st.lists(thresholds, min_size=3, max_size=3))
def test_transition_widths_match_full_spectrum_count(n, w, eps_list):
    # bisection over k against counting the whole computed spectrum, which
    # is right only if computed lambda is monotone where it is resolved
    assume(w < 0.5)
    p = ProlateParams(n, w)
    full = tridiagonal_spectrum(p, 0, n - 1)
    resolved = (full.lam > RESOLUTION_FLOOR) & (full.comp > RESOLUTION_FLOOR)
    assert np.all(np.diff(full.lam[resolved]) <= 0.0)
    for report in transition_widths(p, eps_list):
        run = (report.width, report.k_first, report.k_last)
        assert run == _count_run(full, report.eps), (report, run)


def _bisection_runs(p: ProlateParams, eps_list: list[float]) -> tuple[dict, int]:
    """Reference width search: bisection over k inside the thm1 cover, whose
    ends are probed and widened first. Returns {eps: (width, k_first, k_last)}
    and the number of orders it computed."""
    n, eps_min = p.n, min(eps_list)
    probe = functools.cache(lambda k: tridiagonal_spectrum(p, k, k))
    center_lo, center_hi = min(max(p.tbp_floor - 1, 0), n - 1), min(max(p.tbp_ceil, 0), n - 1)
    m = width_bound_thm1(n, eps_min).integer + 2
    while True:
        a, b = max(0, center_lo - m), min(n - 1, center_hi + m)
        if (a == 0 or probe(a).comp[0] <= eps_min) and (b == n - 1 or probe(b).lam[0] <= eps_min):
            break
        m *= 2
    runs, first, stop = {}, b + 1, a
    for eps in sorted(set(eps_list), reverse=True):
        first = a + bisect_left(range(a, first), True, key=lambda k: probe(k).comp[0] > eps)
        stop += bisect_left(range(stop, b + 1), True, key=lambda k: probe(k).lam[0] <= eps)
        width = max(stop - first, 0)
        runs[eps] = (width, first, stop - 1) if width else (0, None, None)
    return runs, probe.cache_info().currsize


@budget(40)
@given(n=st.integers(1, 4096), w=bandwidths, eps_list=st.lists(thresholds, min_size=1, max_size=3))
def test_secant_search_matches_bisection(n, w, eps_list):
    # the secant search finds the same runs as plain bisection, and on these
    # examples computes no more orders than bisection does. That is not a
    # law: on random instances it now and then takes one or two more
    assume(w < 0.5)
    p = ProlateParams(n, w)
    runs, bisected = _bisection_runs(p, eps_list)
    calls = []
    compute = spectrum._solve_probes  # the width search's probe

    def counting(params, probes):
        calls.extend(k for k, _ in probes)
        return compute(params, probes)

    with mock.patch.object(spectrum, "_solve_probes", counting):
        reports = transition_widths(p, eps_list)
    for report in reports:
        assert (report.width, report.k_first, report.k_last) == runs[report.eps], report
    assert calls == list(reports[0].probes)
    assert len(calls) <= bisected, (calls, bisected)


@budget(60)
@given(
    n=st.integers(3, 400),
    w=bandwidths,
    k=st.floats(0.0, 1.0),
    off=st.sampled_from([-30.0, -3.0, -0.3, 0.3, 3.0, 30.0]),
    half=st.sampled_from([0.9, 5.0]),
)
def test_mispredicted_windows_fall_back_to_the_same_order(n, w, k, off, half):
    # a probe's window centred off spacings (gaps between adjacent orders)
    # from chi_k and half spacings to each side holds none, one or several
    # of its block's eigenvalues. The window is taken exactly when it holds
    # chi_k alone among its block's; either way the probe is order k's, with
    # lambda within a few ulps of the one that bisection by index gives
    assume(w < 0.5)
    p, k = ProlateParams(n, w), min(int(k * n), n - 1)
    diag, off_diag = spectrum._tridiag_bands(n, w)
    chi = np.linalg.eigvalsh(np.diag(diag) + np.diag(off_diag, 1) + np.diag(off_diag, -1))[::-1]
    spacing = (chi[max(k - 1, 0)] - chi[min(k + 1, n - 1)]) / (min(k + 1, n - 1) - max(k - 1, 0))
    vl, vu = chi[k] + (off - half) * spacing, chi[k] + (off + half) * spacing
    held = {j for j in range(k % 2, n, 2) if vl < chi[j] <= vu}
    clear = np.min(np.abs(chi[k % 2 :: 2, None] - [vl, vu])) > 1e-9 * np.max(np.abs(chi))

    ref, ref_chi = tridiagonal_spectrum(p, k, k), spectrum._concentration_eigenvectors(p, k, k)[0]
    ranges = []
    bisect = spectrum._stebz
    with mock.patch.object(spectrum, "_stebz", lambda *a: ranges.append(a[2]) or bisect(*a)):
        ((lam, comp, chi),) = spectrum._solve_probes(p, [(k, (vl, vu))])
    if clear and (n + 1 - k % 2) // 2 > 1:  # a block of one takes no bisection
        # LAPACK's RANGE 2: bisection by index
        assert ranges.count(2) == (held != {k}), (held, ranges)
    assert abs(chi - ref_chi[0]) <= n * math.sin(2.0 * math.pi * w) / 2.0**16
    assert abs(lam - ref.lam[0]) <= 4 * np.finfo(float).eps, (lam, ref.lam)
    assert abs(comp - ref.comp[0]) <= 4 * np.finfo(float).eps, (comp, ref.comp)


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


# W within 1e-9 of 0 or of 1/2, where cos(2 pi W) rounds to +-1: a parity
# block then has exactly representable eigenvalues that bisection can return
# to the last bit, so the shifted block that inverse iteration solves with is
# singular
float_limit_bandwidths = st.one_of(
    _log_uniform(1e-300, 1e-9), _log_uniform(1e-16, 1e-9).map(lambda d: 0.5 - d)
)


@budget(40)
@given(
    n=st.integers(1, 300),
    w=float_limit_bandwidths,
    eps_list=st.lists(thresholds, min_size=1, max_size=3),
)
def test_tridiagonal_at_float_limit_bandwidths(n, w, eps_list):
    p = ProlateParams(n, w)
    full = tridiagonal_spectrum(p, 0, n - 1)
    assert np.max(np.abs(full.lam - dense_spectrum(p).lam)) <= 1e-10
    for report in transition_widths(p, eps_list):
        run = (report.width, report.k_first, report.k_last)
        assert run == _count_run(full, report.eps), (report, run)


@st.composite
def _edge_instances(draw):
    """(N, W) where the width search's model misleads: 2NW below 3, where the
    run is cut off at k = 0 and its ends are not mirror images about
    2NW - 1/2, or W within 1e-9 of 0 or 1/2; and any W."""
    n = draw(st.integers(1, 600))
    w = draw(
        st.one_of(
            _log_uniform(1e-3, 3.0).map(lambda tbp: tbp / (2.0 * n)),
            float_limit_bandwidths,
            bandwidths,
        )
    )
    assume(w < 0.5)
    return ProlateParams(n, w)


near_floor = st.floats(RESOLUTION_FLOOR, 1e-14, exclude_min=True)
edge_thresholds = st.lists(st.one_of(near_floor, thresholds), min_size=1, max_size=3)


@budget(60)
@given(p=_edge_instances(), eps_list=edge_thresholds)
def test_transition_widths_match_full_spectrum_count_at_the_edges(p, eps_list):
    # the model only picks the next order; the counts rest on the probes, which
    # never repeat an order, also just above the resolution floor
    full = tridiagonal_spectrum(p, 0, p.n - 1)
    reports = transition_widths(p, eps_list)
    probes = reports[0].probes
    assert len(set(probes)) == len(probes), probes
    for report in reports:
        run = (report.width, report.k_first, report.k_last)
        assert run == _count_run(full, report.eps), (report, run)


@st.composite
def _synthetic_spectra(draw, sizes):
    """(lam, comp, mid, scale) for the width search with no solver behind it:
    a logistic run about a centre that may lie past either end (cut off at
    k = 0 or n - 1), with noise in the logit, sorted so that it is monotone,
    and each value at or below the resolution floor replaced by noise under
    it (saturated). The search's own line may miss the centre and the slope."""
    n = draw(sizes)
    centre = draw(
        st.one_of(st.floats(-0.5, n - 0.5), st.floats(-30.0, 0.0), st.floats(n - 1.0, n + 30.0))
    )
    slope = draw(_log_uniform(0.05, 10.0))  # orders per unit of logit
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 0.3, 3.0])) * rng.uniform(-1.0, 1.0, n)
    # clipped where either value is far under the floor anyway, so exp is finite
    logit = np.clip(np.sort(-(np.arange(n) - centre) / slope + noise)[::-1], -60.0, 60.0)
    lam, comp = 1.0 / (1.0 + np.exp(-logit)), 1.0 / (1.0 + np.exp(logit))
    for values in (lam, comp):
        saturated = values <= RESOLUTION_FLOOR
        values[saturated] = RESOLUTION_FLOOR * rng.uniform(0.0, 1.0, int(saturated.sum()))
    mid = centre + draw(st.sampled_from([0.0, 0.5, -3.0, 12.0]))
    scale = slope * draw(st.sampled_from([1.0, 0.5, 2.0, 0.0]))
    return lam, comp, mid, scale


@pytest.mark.parametrize(
    "sizes", [st.integers(1, 3000), st.sampled_from([1, 2])], ids=["n-to-3000", "n-1-or-2"]
)
@budget(200)
@given(data=st.data())
def test_width_search_counts_a_synthetic_spectrum(sizes, data):
    # the search against a probe of a given sequence, monotone wherever it
    # is above the floor: its runs are the direct count's, and it probes each
    # order in [0, n) at most once, one or two orders a call
    lam, comp, mid, scale = data.draw(_synthetic_spectra(sizes))
    eps_list = data.draw(edge_thresholds)
    n, seen = lam.size, []

    def probe(pairs):
        orders = [k for k, _ in pairs]
        assert len(set(orders)) == len(orders) in (1, 2), orders
        assert all(0 <= k < n and k not in seen for k in orders), (orders, seen)
        seen.extend(orders)
        return [(float(lam[k]), float(comp[k]), float(k)) for k in orders]

    runs, probed = spectrum._search_runs(n, mid, scale, (1.0, 0.0), eps_list, probe)
    assert probed == tuple(seen)
    for eps in eps_list:
        inside = np.flatnonzero((lam > eps) & (comp > eps))
        first, last = runs[eps]
        assert max(last - first + 1, 0) == inside.size, (eps, runs[eps], inside)
        if inside.size:
            assert (first, last) == (inside[0], inside[-1]), (eps, runs[eps])


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


@budget(40)
@given(n=st.integers(1, 300), w=st.floats(0.25, 0.5, exclude_max=True))
def test_reflection_through_complement_is_exact(n, w):
    # lambda_k(W) + lambda_{N-1-k}(1/2 - W) = 1, where 1/2 - W is exact
    # (W >= 1/4): 1 - lambda_k computed against I - B at W equals lambda_{N-1-k}
    # computed at 1/2 - W to a few ulps of 1, wherever both are resolved. The
    # worst of these examples is 6 ulps, at an order near lambda = 0.37 that
    # neither instance reflects
    a = tridiagonal_spectrum(ProlateParams(n, w), 0, n - 1)
    b = tridiagonal_spectrum(ProlateParams(n, 0.5 - w), 0, n - 1)
    for own, mirrored in ((a.comp, b.lam[::-1]), (a.lam, b.comp[::-1])):
        resolved = (own > RESOLUTION_FLOOR) & (mirrored > RESOLUTION_FLOOR)
        assert np.all(np.abs(own - mirrored)[resolved] <= 8 * np.finfo(float).eps), (n, w)
