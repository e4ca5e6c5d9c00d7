import math

import numpy as np
import pytest

from prolate import (
    NumericalError,
    ParameterError,
    ProlateParams,
    dense_spectrum,
    eigensum_head,
    eigensum_tail,
    sum_bounds_cor2,
    transition_width,
    transition_widths,
    tridiagonal_spectrum,
    width_bound_thm1,
)


@pytest.fixture(scope="module")
def fig1_dense():
    return dense_spectrum(ProlateParams(1000, 0.125))


def test_dense_order_one():
    slc = dense_spectrum(ProlateParams(1, 0.1))
    assert slc.lam_at(0) == pytest.approx(0.2, abs=1e-15)


def test_dense_plunge_values(fig1_dense):
    assert round(fig1_dense.lam_at(243), 4) == 0.9997
    assert round(fig1_dense.lam_at(256), 4) == 0.0003


def test_dense_cluster_counts(fig1_dense):
    # all eigenvalues are strictly inside (0, 1), so the half-open interval
    # counts reduce to threshold counts
    lam = fig1_dense.lam
    assert int(np.sum(lam >= 0.999)) == 244
    assert int(np.sum(lam <= 0.001)) == 744


def test_dense_trace(fig1_dense):
    assert fig1_dense.sum_lambdas() == pytest.approx(250.0, rel=1e-9)


def test_dense_strictly_decreasing(fig1_dense):
    assert np.all(np.diff(fig1_dense.lam) < 1e-13)


def test_tridiagonal_agrees_with_dense():
    p = ProlateParams(256, 0.1)
    dense = dense_spectrum(p)
    trid = tridiagonal_spectrum(p, 0, 255)
    assert np.max(np.abs(dense.lam - trid.lam)) <= 1e-10


def test_tridiagonal_range_validation():
    p = ProlateParams(64, 0.2)
    with pytest.raises(ParameterError):
        tridiagonal_spectrum(p, -1, 5)
    with pytest.raises(ParameterError):
        tridiagonal_spectrum(p, 10, 64)
    with pytest.raises(ParameterError):
        tridiagonal_spectrum(p, 7, 3)


def test_tridiagonal_complement_precision():
    # 1 - lambda near 1 keeps relative accuracy through the reflected instance
    p = ProlateParams(1000, 0.125)
    slc = tridiagonal_spectrum(p, 235, 243)
    dense = dense_spectrum(p)
    assert np.all(slc.via_complement)
    for k in range(235, 244):
        ref = 1.0 - dense.lam_at(k)
        assert ref > 1e-13  # resolvable by the dense oracle at these indices
        assert slc.comp[k - slc.kmin] == pytest.approx(ref, rel=1e-6, abs=1e-13)


def _mp_small_side(n, w):
    """Per order k: min(lambda_k, 1 - lambda_k) and lambda_k > 1/2, at 60 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        two_w = 2 * mp.mpf(w)  # w is the double value, as in the code under test
        b = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                d = i - j
                b[i, j] = two_w if d == 0 else mp.sin(mp.pi * two_w * d) / (mp.pi * d)
        ev = mp.eigsy(b, eigvals_only=True)
        lam = sorted((ev[i] for i in range(n)), reverse=True)
        small = np.array([float(min(x, 1 - x)) for x in lam])
        return small, np.array([x > 0.5 for x in lam])


@pytest.mark.parametrize("n, w", [(24, 0.2), (40, 0.05), (48, 0.1), (48, 0.3)])
def test_tridiagonal_relative_accuracy_oracle(n, w):
    # relative error of the smaller of lambda and 1 - lambda (the one the
    # route computes directly) against an independent high-precision solve;
    # the worst cases over these instances are 2.0e-2, 3.6e-4 and 2.3e-4
    ref, upper = _mp_small_side(n, w)
    slc = tridiagonal_spectrum(ProlateParams(n, w), 0, n - 1)
    got = np.where(upper, slc.comp, slc.lam)
    rel = np.abs(got - ref) / ref
    for floor, limit in [(1e-15, 5e-2), (1e-14, 1e-3), (1e-13, 5e-4)]:
        assert np.max(rel[ref > floor]) < limit


@pytest.mark.parametrize(
    "n, lam, widths",
    [
        (1, [0.4], [1, 1, 1]),
        (2, [0.7027306914562627, 0.09726930854373722], [2, 2, 1]),
        (3, [0.8774478829180348, 0.30645107162113616, 0.016101045460829223], [3, 2, 1]),
    ],
)
def test_tridiagonal_tiny_orders(n, lam, widths):
    # the off-diagonal of T is empty (n = 1) or short; widths at
    # eps = 1e-3, 0.05, 0.2
    p = ProlateParams(n, 0.2)
    slc = tridiagonal_spectrum(p, 0, n - 1)
    assert slc.lam == pytest.approx(lam, abs=1e-15)
    assert slc.comp == pytest.approx([1.0 - x for x in lam], abs=1e-15)
    assert [transition_width(p, eps).width for eps in (1e-3, 0.05, 0.2)] == widths


@pytest.mark.parametrize("w", [0.05, 0.2])
def test_eigenvectors_match_lapack(w):
    # every order, odd and even, against scipy's bisection + stein vectors
    from scipy.linalg import eigh_tridiagonal

    from prolate.spectrum import _concentration_eigenvectors, _tridiag_bands

    n = 257
    got = _concentration_eigenvectors(ProlateParams(n, w), 0, n - 1)
    _, ref = eigh_tridiagonal(*_tridiag_bands(n, w), lapack_driver="stebz")
    ref = ref[:, ::-1]  # ascending T order is descending k
    signs = np.sign(np.sum(got * ref, axis=0))
    assert np.max(np.abs(got - ref * signs)) <= 1e-10
    # order k has the parity of k, so both parities are covered
    parity = (-1.0) ** np.arange(n)
    assert np.max(np.abs(got[::-1] - got * parity)) <= 1e-10


def test_rayleigh_quotients_match_compensated_sum():
    # the vectorized dot against a per-column math.fsum reference, within
    # the error bound of a plain sum, n * eps * sum(|terms|)
    import math

    from prolate.kernel import SymmetricToeplitz, sinc_kernel
    from prolate.spectrum import _concentration_eigenvectors, _rayleigh_quotients

    p = ProlateParams(257, 0.2)
    vecs = _concentration_eigenvectors(p, 90, 120)
    prods = vecs * SymmetricToeplitz(sinc_kernel(p.w, np.arange(p.n))).matmat(vecs)
    ref = np.array([math.fsum(col.tolist()) for col in prods.T])
    bound = p.n * np.finfo(float).eps * np.abs(prods).sum(axis=0)
    assert np.all(np.abs(_rayleigh_quotients(p, vecs) - ref) <= bound)


def test_singular_shifted_solve_raises():
    from prolate.spectrum import _shifted_solves

    # T = [[1, 1], [1, 1]] is singular at shift 0, so the solve reports info = 2
    with pytest.raises(NumericalError):
        _shifted_solves(np.ones(2), np.ones(1), np.array([0.0]))


@pytest.mark.parametrize(
    "n, w", [(392, 0.49999999999999994), (101, 0.4999999999999999), (2, 1e-12), (64, 1e-10)]
)
def test_tridiagonal_bandwidth_at_float_limits(n, w):
    # cos(2 pi W) rounds to +-1 here and bisection can return a T-eigenvalue
    # exactly, so the first shifted solve meets a singular matrix
    p = ProlateParams(n, w)
    slc = tridiagonal_spectrum(p, 0, n - 1)
    assert np.max(np.abs(slc.lam - dense_spectrum(p).lam)) <= 1e-10
    assert transition_width(p, 1e-2).width == 0


def test_tridiagonal_saturation_flags():
    # far inside the near-1 plateau, 1 - lambda sits below the 1e-15 floor
    slc = tridiagonal_spectrum(ProlateParams(1000, 0.125), 200, 210)
    assert np.all(slc.comp < 1e-15)


def test_midpoint_interlacing():
    p = ProlateParams(1000, 0.125)
    slc = tridiagonal_spectrum(p, 249, 250)
    assert slc.lam_at(249) >= 0.5 - 1e-10
    assert slc.lam_at(250) <= 0.5 + 1e-10


def test_transition_width_fig1():
    report = transition_width(ProlateParams(1000, 0.125), 1e-3)
    assert report.width == 12
    assert (report.k_first, report.k_last) == (244, 255)
    assert not report.advisory


def test_transition_width_order_one():
    report = transition_width(ProlateParams(1, 0.1), 0.05)
    assert report.width == 1
    assert (report.k_first, report.k_last) == (0, 0)


def test_transition_width_empty():
    report = transition_width(ProlateParams(1, 0.1), 0.25)
    assert report.width == 0
    assert report.k_first is None and report.k_last is None


def test_transition_width_eps_validation():
    with pytest.raises(ParameterError):
        transition_width(ProlateParams(10, 0.1), 0.5)
    with pytest.raises(ParameterError):
        transition_width(ProlateParams(10, 0.1), 0.0)


def test_transition_width_matches_dense_count():
    p = ProlateParams(64, 0.25)
    eps = 1e-3
    lam = dense_spectrum(p).lam
    oracle = int(np.sum((lam > eps) & (lam < 1.0 - eps)))
    assert transition_width(p, eps).width == oracle


def test_transition_width_advisory_regime():
    report = transition_width(ProlateParams(128, 0.25), 1e-13)
    assert report.advisory


@pytest.mark.parametrize("w", [0.01, 0.05, 0.125])
@pytest.mark.parametrize("n", [64, 257, 1000])
def test_transition_widths_shared_window(n, w):
    # one call gives the per-eps reports, and the counts agree with scipy's
    # independent DPSS concentration ratios
    from scipy.signal.windows import dpss

    p = ProlateParams(n, w)
    eps_list = [1e-3, 1e-8]
    reports = transition_widths(p, eps_list)
    assert reports == [transition_width(p, eps) for eps in eps_list]
    kmax = min(n, p.tbp_ceil + width_bound_thm1(n, min(eps_list)).integer + 1)
    _, ratios = dpss(n, n * w, kmax, return_ratios=True)
    for report in reports:
        eps = report.eps
        assert report.width == int(np.sum((ratios > eps) & (ratios < 1.0 - eps)))


def test_transition_width_at_two_pow_16():
    # the scale the README promises, against scipy's independent DPSS ratios
    from scipy.signal.windows import dpss

    n, w, eps = 65536, 2.0**-12, 1e-3
    p = ProlateParams(n, w)
    kmax = p.tbp_ceil + width_bound_thm1(n, eps).integer + 1
    _, ratios = dpss(n, n * w, kmax, return_ratios=True)
    assert transition_width(p, eps).width == int(np.sum((ratios > eps) & (ratios < 1 - eps))) == 8


def test_transition_width_probe_budget(monkeypatch):
    # each bisection step computes one order, so a width over the thm1 cover
    # [a, b] costs its two end probes plus two searches of ceil(log2(b - a + 2))
    import prolate.spectrum as spectrum

    calls = []
    compute = spectrum.tridiagonal_spectrum

    def counting(params, kmin, kmax):
        calls.append((kmin, kmax))
        return compute(params, kmin, kmax)

    monkeypatch.setattr(spectrum, "tridiagonal_spectrum", counting)
    n, eps = 65536, 1e-13
    p = ProlateParams(n, 0.25)
    assert transition_width(p, eps).width == 68
    assert all(kmin == kmax for kmin, kmax in calls), calls
    m = width_bound_thm1(n, eps).integer + 2
    a, b = p.tbp_floor - 1 - m, p.tbp_ceil + m
    budget = 2 + 2 * math.ceil(math.log2(b - a + 2))
    assert budget == 18
    assert len(calls) <= budget, calls


def test_transition_widths_eps_validation():
    with pytest.raises(ParameterError):
        transition_widths(ProlateParams(10, 0.1), [])
    with pytest.raises(ParameterError):
        transition_widths(ProlateParams(10, 0.1), [1e-3, 0.5])
    with pytest.raises(ParameterError):
        transition_widths(ProlateParams(10, 0.1), np.array([]))


def test_transition_widths_array_input():
    # any sequence of thresholds will do; a numpy array reports as the list does
    p = ProlateParams(1000, 0.125)
    eps_list = [1e-3, 1e-8]
    assert transition_widths(p, np.array(eps_list)) == transition_widths(p, eps_list)


def test_eigensum_conventions():
    p = ProlateParams(100, 0.2)
    assert eigensum_head(p, 0) == 0.0
    assert eigensum_tail(p, 100) == 0.0
    with pytest.raises(ParameterError):
        eigensum_tail(p, 101)
    with pytest.raises(ParameterError):
        eigensum_head(p, -1)


def test_slice_sum_complements():
    # the slice straddles 2NW = 60; head(81) - head(40) sums 1 - lam over it
    p = ProlateParams(200, 0.15)
    slc = tridiagonal_spectrum(p, 40, 80)
    total = slc.sum_lambdas() + eigensum_head(p, 81) - eigensum_head(p, 40)
    assert total == pytest.approx(41.0, rel=1e-12)  # lam + (1 - lam) per entry


def test_eigensum_tail_full_is_trace():
    p = ProlateParams(1000, 0.125)
    assert eigensum_tail(p, 0) == pytest.approx(250.0, rel=1e-9)


def test_eigensum_head_plus_tail_consistency():
    # head(K) + tail(K) + (known pieces) reassemble the trace
    p = ProlateParams(200, 0.15)
    K = p.tbp_ceil
    head = eigensum_head(p, K)
    tail = eigensum_tail(p, K)
    # sum_{k<K} lam = K - head, so the full trace is K - head + tail
    assert (K - head + tail) == pytest.approx(2.0 * 200 * 0.15, rel=1e-9)


def test_eigensum_tail_below_bound():
    p = ProlateParams(256, 0.1)
    K = 52  # equals ceil(2NW) for this instance
    assert p.tbp_ceil == 52
    assert eigensum_tail(p, K) <= sum_bounds_cor2(256, 0.1, K, "tail")


def test_symmetry_reflection():
    for n, w in [(64, 0.05), (257, 0.125)]:
        a = dense_spectrum(ProlateParams(n, w))
        b = dense_spectrum(ProlateParams(n, 0.5 - w))
        assert np.max(np.abs(b.lam - (1.0 - a.lam[::-1]))) <= 1e-10


def test_envelope_contains_dense_spectrum():
    from prolate import eig_envelope

    n, w = 256, 0.125
    lam = dense_spectrum(ProlateParams(n, w)).lam
    for k in range(n):
        env = eig_envelope(n, w, k)
        assert env.lower - 1e-10 <= lam[k] <= env.upper + 1e-10


def test_disjoint_ranges_are_consistent():
    # concurrent evaluation of disjoint k-ranges: scheduling must not change
    # results, and the glued slices must agree with the full solve
    p = ProlateParams(128, 0.2)
    ranges = [(0, 19), (20, 63), (64, 127)]
    sequential = [tridiagonal_spectrum(p, *r) for r in ranges]
    import concurrent.futures as cf

    with cf.ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(lambda r: tridiagonal_spectrum(p, *r), ranges))
    for a, b in zip(sequential, threaded):
        assert np.array_equal(a.lam, b.lam)
    full = tridiagonal_spectrum(p, 0, 127)
    glued = np.concatenate([part.lam for part in sequential])
    assert np.max(np.abs(glued - full.lam)) <= 1e-12
