import functools
import math

import numpy as np
import pytest

from prolate import (
    BoundValue,
    CapacityError,
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
from prolate.kernel import RESOLUTION_FLOOR


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


def test_tridiagonal_entry_cap_raises_before_allocating():
    # all 65536 orders at N = 2^16 would be a 32 GiB eigenvector block
    import tracemalloc

    p = ProlateParams(65536, 0.2)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            tridiagonal_spectrum(p, 0, 65535)
        with pytest.raises(CapacityError):
            eigensum_tail(p, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tridiagonal_entry_cap_follows_dense_cap(monkeypatch):
    # the cap is the dense route's n x n block, dense_cap() squared entries
    monkeypatch.setenv("PROLATE_DENSE_CAP", "8")
    p = ProlateParams(64, 0.2)
    assert tridiagonal_spectrum(p, 12, 12).lam.shape == (1,)
    with pytest.raises(CapacityError):
        tridiagonal_spectrum(p, 12, 13)


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


@functools.lru_cache(maxsize=None)
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


def _assert_small_side_claim(got, ref):
    """The accuracy the spectrum docstring and README state for the smaller of
    lambda and 1 - lambda: absolute error below 2e-16 where it is resolved and
    at most 1e-2, relative error below 1e-14 above 1e-2."""
    err = np.abs(got - ref)
    small = (ref > RESOLUTION_FLOOR) & (ref <= 1e-2)
    assert np.all(err[small] < 2e-16), np.max(err[small], initial=0.0)
    assert np.all(err[ref > 1e-2] < 1e-14 * ref[ref > 1e-2])


@pytest.mark.parametrize(
    "n, w", [(24, 0.2), (40, 0.05), (48, 0.1), (48, 0.3), (42, 0.2570497580793853)]
)
def test_small_side_error_against_mpmath(n, w):
    # at (42, 0.2570...) the relative error is 1.9e-3 just above 1e-14: an
    # absolute error of about 2e-17; the worst over these instances is 1.1e-16
    ref, upper = _mp_small_side(n, w)
    slc = tridiagonal_spectrum(ProlateParams(n, w), 0, n - 1)
    _assert_small_side_claim(np.where(upper, slc.comp, slc.lam), ref)


def _exact_rayleigh_pair(w, s):
    """(s^T B s, s^T (I - B) s) / s^T s for a float64 vector s, to 40 digits.

    The autocorrelation r(t) = sum_i s_i s_{i+t} is summed exactly: each
    product is split into two doubles (Dekker's two-product) and math.fsum
    gives r(t) as a rounded sum plus its rounded remainder. The sinc samples
    and the final sums are mpmath numbers.
    """
    mp = pytest.importorskip("mpmath")
    n = s.size
    t = 134217729.0 * s  # Veltkamp split, 2**27 + 1
    hi = t - (t - s)
    lo = s - hi
    r = []
    for d in range(n):
        p = s[: n - d] * s[d:]
        e = ((hi[: n - d] * hi[d:] - p) + hi[: n - d] * lo[d:] + lo[: n - d] * hi[d:]) + (
            lo[: n - d] * lo[d:]
        )
        terms = p.tolist() + e.tolist()
        head = math.fsum(terms)
        r.append((head, math.fsum(terms + [-head])))
    with mp.workdps(40):
        big_w = mp.mpf(w)
        r = [mp.mpf(a) + mp.mpf(b) for a, b in r]
        quad = 2 * big_w * r[0] + 2 * mp.fsum(
            mp.sin(2 * mp.pi * big_w * d) / (mp.pi * d) * r[d] for d in range(1, n)
        )
        lam = quad / r[0]
        return float(lam), float(1 - lam)


def test_small_side_error_against_exact_rayleigh_quotients():
    # at N = 1024: eight orders across the run in (2e-15, 1 - 2e-15) and the
    # last two reflected orders, whose lambda moves fastest with W; 1/2 - W is
    # not a double here, so reflecting through that instance would miss
    from prolate.spectrum import _concentration_eigenvectors

    p = ProlateParams(1024, 0.01)
    report = transition_width(p, 2e-15)
    orders = set(np.linspace(report.k_first, report.k_last, 8).round().astype(int).tolist())
    got, ref = [], []
    for k in sorted(orders | {p.tbp_floor - 2, p.tbp_floor - 1}):
        slc = tridiagonal_spectrum(p, k, k)
        lam, comp = _exact_rayleigh_pair(p.w, _concentration_eigenvectors(p, k, k)[:, 0])
        small_is_comp = comp < lam
        got.append(slc.comp[0] if small_is_comp else slc.lam[0])
        ref.append(comp if small_is_comp else lam)
    _assert_small_side_claim(np.array(got), np.array(ref))


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


def _dense_t(n, w):
    from prolate.spectrum import _tridiag_bands

    diag, off = _tridiag_bands(n, w)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("n, orders", [(1, [0]), (2, [0, 1]), (3, [1])])
def test_parity_blocks_of_size_one_need_no_solve(monkeypatch, n, orders):
    # n = 1 and n = 2 have only 1 x 1 blocks, and n = 3 an odd block of size 1
    # (order 1): those vectors are mirrored unit vectors, with no bisection or solve
    import prolate.spectrum as spectrum

    def refuse(*args, **kwargs):
        raise AssertionError("a 1 x 1 parity block reached a solver")

    monkeypatch.setattr(spectrum, "eigvalsh_tridiagonal", refuse)
    monkeypatch.setattr(spectrum, "dstein", refuse)
    _, ref = np.linalg.eigh(_dense_t(n, 0.2))
    for k in orders:
        got = spectrum._concentration_eigenvectors(ProlateParams(n, 0.2), k, k)[:, 0]
        assert abs(got @ ref[:, n - 1 - k]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("w", [0.03, 0.2, 0.35])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 128, 129, 200, 201])
def test_parity_route_matches_dense(n, w):
    # odd and even n: eigenvalues against the dense oracle, and eigenvectors
    # against a dense solve of T (signs aligned), for every order
    from prolate.spectrum import _concentration_eigenvectors

    p = ProlateParams(n, w)
    assert np.max(np.abs(tridiagonal_spectrum(p, 0, n - 1).lam - dense_spectrum(p).lam)) <= 1e-10
    got = _concentration_eigenvectors(p, 0, n - 1)
    ref = np.linalg.eigh(_dense_t(n, w))[1][:, ::-1]
    signs = np.sign(np.sum(got * ref, axis=0))
    assert np.max(np.abs(got - ref * signs)) <= 1e-10


@pytest.mark.parametrize("w", [0.05, 0.25, 0.45])
@pytest.mark.parametrize("n", [2, 3, 10, 11, 256, 257])
def test_parity_blocks_split_the_spectrum(n, w):
    # block p holds exactly the full-T eigenvalues of orders k = p, p + 2, ...
    # (T in descending order), to the backward error of the two solves
    from scipy.linalg import eigvalsh_tridiagonal

    from prolate.spectrum import _parity_block, _tridiag_bands

    diag, off = _tridiag_bands(n, w)
    full = eigvalsh_tridiagonal(diag, off)[::-1]
    tol = 8 * n * np.finfo(float).eps * (np.abs(diag).max() + 2 * np.abs(off).max())
    for parity in (0, 1):
        block = eigvalsh_tridiagonal(*_parity_block(diag, off, parity))[::-1]
        assert block.size == full[parity::2].size
        assert np.max(np.abs(block - full[parity::2])) <= tol


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
    assert np.all(np.abs(_rayleigh_quotients(p, vecs, reflected=False) - ref) <= bound)


def test_stein_failure_raises(monkeypatch, capsys):
    # a nonzero info from LAPACK stein (a vector that did not converge) is a
    # NumericalError, which the CLI reports as one error line with exit 4
    import prolate.spectrum as spectrum
    from prolate.cli import main

    def failing(diag, off, shifts, iblock, isplit):
        return np.zeros((diag.size, shifts.size)), 1

    monkeypatch.setattr(spectrum, "dstein", failing)
    with pytest.raises(NumericalError, match="stein"):
        tridiagonal_spectrum(ProlateParams(64, 0.2), 20, 30)
    code = main(["width", "--n", "1000", "--w", "0.125", "--eps", "1e-3"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "n, w",
    [
        (392, 0.49999999999999994),
        (101, 0.4999999999999999),
        (2, 1e-12),
        (64, 1e-10),
        (5, 0.49999999999999994),
        (64, 0.499999999),
        (8, 1e-12),
        (5, 1e-300),
    ],
)
def test_tridiagonal_bandwidth_at_float_limits(n, w):
    # cos(2 pi W) rounds to +-1 here, so a parity block has exact eigenvalues
    # (0 among them) that bisection can return to the last bit, which makes
    # the shifted block singular; stein perturbs such a shift itself. n = 2
    # has only 1 x 1 blocks and no solve
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


def test_eps_at_or_below_resolution_floor_rejected():
    # at or below the 1e-15 floor computed eigenvalues are rounding noise and
    # not monotone in k, so a count would depend on which orders were probed:
    # here the whole spectrum counts 1837 at eps = 2.868e-159, the search 35
    from prolate.spectrum import proxy_width_interval

    p = ProlateParams(1867, 0.009358314139518875)
    for eps in (2.868e-159, RESOLUTION_FLOOR):
        with pytest.raises(ParameterError, match="resolution floor"):
            transition_widths(p, [1e-3, eps])
    # a proxy threshold eps - delta at the floor is left uncounted, as below 0
    c = math.pi * 50.0
    lo, hi, delta = proxy_width_interval(c, 0.0013143955093473106 + 5e-16, 2000)
    assert delta == pytest.approx(0.0013143955093473106, rel=1e-12)
    assert hi is None and lo is not None


def test_transition_width_matches_dense_count():
    p = ProlateParams(64, 0.25)
    eps = 1e-3
    lam = dense_spectrum(p).lam
    oracle = int(np.sum((lam > eps) & (lam < 1.0 - eps)))
    assert transition_width(p, eps).width == oracle


def test_transition_width_advisory_regime():
    report = transition_width(ProlateParams(128, 0.25), 1e-13)
    assert report.advisory


@pytest.mark.parametrize(
    "n, w",
    [(n, w) for n in (64, 257, 1000) for w in (0.01, 0.05, 0.125)]
    # W above 1/8, where most orders lie below floor(2NW) and reflect through I - B
    + [(n, w) for n in (64, 129, 300, 512) for w in (0.2, 0.27, 0.33, 0.41, 0.47)],
)
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
    # each probe computes one order. logit(lambda_k) is nearly linear in k
    # through the transition, so once two probes have resolved values, a
    # secant lands each end of a run within a probe or two: 9 probes for one
    # eps at N = 2^16, and 14 for three
    import prolate.spectrum as spectrum

    calls = []
    compute = spectrum.tridiagonal_spectrum

    def counting(params, kmin, kmax):
        calls.append((kmin, kmax))
        return compute(params, kmin, kmax)

    monkeypatch.setattr(spectrum, "tridiagonal_spectrum", counting)
    p = ProlateParams(65536, 0.25)
    assert transition_width(p, 1e-13).width == 68
    assert all(kmin == kmax for kmin, kmax in calls), calls
    assert len(calls) <= 9, calls

    calls.clear()
    reports = transition_widths(p, [1e-3, 1e-8, 1e-13])
    assert [r.width for r in reports] == [18, 44, 68]
    assert len(calls) <= 14, calls


@pytest.mark.parametrize("n, w", [(64, 0.25), (300, 0.05), (777, 0.4), (1000, 0.125)])
def test_transition_widths_widen_a_narrow_cover(monkeypatch, n, w):
    # with a cover a few orders wide, the searches reach its ends, find them
    # inside the run and widen it until they close on the full-spectrum runs
    import prolate.spectrum as spectrum
    from prolate.spectrum import _count_run

    monkeypatch.setattr(spectrum, "width_bound_thm1", lambda n, eps: BoundValue(0.0, 0))
    p = ProlateParams(n, w)
    eps_list = [1e-3, 1e-8, 1e-13]
    reports = transition_widths(p, eps_list)
    full = tridiagonal_spectrum(p, 0, n - 1)
    for report in reports:
        assert (report.width, report.k_first, report.k_last) == _count_run(full, report.eps)
    # the cover started at reach 2 around the 1/2-split orders
    assert reports[-1].k_first < p.tbp_floor - 3 or reports[-1].k_last > p.tbp_ceil + 2


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


@pytest.mark.parametrize("eps", [0.0, 0.5, float("nan")])
def test_proxy_width_interval_rejects_eps(eps):
    from prolate.spectrum import proxy_width_interval

    with pytest.raises(ParameterError, match=r"eps must lie in \(0, 1/2\), got "):
        proxy_width_interval(math.pi * 50.0, eps, 2000)
