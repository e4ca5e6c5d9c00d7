import functools
import math
import os

import numpy as np
import pytest

from prolate import (
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
    # the worst cases over these instances are 2.0e-2, 3.7e-4 and 2.3e-4
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
    "n, w",
    [(24, 0.2), (40, 0.05), (48, 0.1), (48, 0.3), (42, 0.2570497580793853), (41, 0.2), (47, 0.3)],
)
def test_small_side_error_against_mpmath(n, w):
    # at (42, 0.2570...) the relative error is 6.1e-4 just above 1e-14: an
    # absolute error of about 1.5e-17; the worst over these instances is 1.2e-16,
    # and 4.4e-17 at the odd n, whose Rayleigh quotients transform whole vectors
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


def _small_side_against_exact_rayleigh_quotients(n, w):
    # eight orders across the run in (2e-15, 1 - 2e-15) and the last two
    # reflected orders, whose lambda moves fastest with W
    from prolate.spectrum import _concentration_eigenvectors

    p = ProlateParams(n, w)
    report = transition_width(p, 2e-15)
    orders = set(np.linspace(report.k_first, report.k_last, 8).round().astype(int).tolist())
    got, ref = [], []
    for k in sorted(orders | {p.tbp_floor - 2, p.tbp_floor - 1}):
        slc = tridiagonal_spectrum(p, k, k)
        lam, comp = _exact_rayleigh_pair(p.w, _concentration_eigenvectors(p, k, k)[1][:, 0])
        small_is_comp = comp < lam
        got.append(slc.comp[0] if small_is_comp else slc.lam[0])
        ref.append(comp if small_is_comp else lam)
    _assert_small_side_claim(np.array(got), np.array(ref))


def test_small_side_error_against_exact_rayleigh_quotients():
    # at N = 1024, W = 0.01: 1/2 - W is not a double here, so reflecting
    # through that instance would miss
    _small_side_against_exact_rayleigh_quotients(1024, 0.01)


def test_small_side_error_against_exact_rayleigh_quotients_at_odd_n():
    # odd n transforms the whole vector, not its half
    _small_side_against_exact_rayleigh_quotients(1025, 0.2)


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


def _assert_vectors_match_lapack(n, w, klo, khi):
    """Orders klo..khi, odd and even, against scipy's bisection + stein vectors."""
    from scipy.linalg import eigh_tridiagonal

    from prolate.spectrum import _concentration_eigenvectors, _tridiag_bands

    chis, got = _concentration_eigenvectors(ProlateParams(n, w), klo, khi)
    vals, ref = eigh_tridiagonal(*_tridiag_bands(n, w), lapack_driver="stebz")
    # ascending T order is descending k
    vals, ref = vals[::-1][klo : khi + 1], ref[:, ::-1][:, klo : khi + 1]
    # the shifts are T's eigenvalues to the coarse bisection tolerance, n sin(2 pi W) / 2^16
    assert np.max(np.abs(chis - vals)) <= n * np.sin(2 * np.pi * w) / 2.0**16
    signs = np.sign(np.sum(got * ref, axis=0))
    assert np.max(np.abs(got - ref * signs)) <= 1e-10
    # order k has the parity of k, so both parities are covered
    parity = (-1.0) ** np.arange(klo, khi + 1)
    assert np.max(np.abs(got[::-1] - got * parity)) <= 1e-10


@pytest.mark.parametrize("w", [0.05, 0.2])
def test_eigenvectors_match_lapack(w):
    # every order: each parity block whole, from one MRRR call
    _assert_vectors_match_lapack(257, w, 0, 256)


@pytest.mark.parametrize("w", [0.05, 0.2])
def test_partial_slice_eigenvectors_match_lapack(w):
    # orders 1..n-2 leave out the top of the even block and the bottom of the
    # odd one, so both blocks go through bisection by index and stein
    _assert_vectors_match_lapack(257, w, 1, 255)


@pytest.mark.parametrize("n, w", [(1000, 0.125), (1001, 0.2), (4096, 0.01)])
def test_whole_block_solve_matches_one_order_slices(n, w):
    # a full slice takes each parity block from one MRRR call, a one-order
    # slice bisects by index and runs stein: they agree to the accuracy the
    # module docstring states, 2e-16 absolute where min(lambda, 1 - lambda)
    # is at most 1e-2 and 1e-14 relative above it. At n = 4096 one-order
    # slices take 1.3 ms each, so past order 255 (lambda far below the 1e-15
    # floor, rounding noise of order 1e-18) only every fifth order is
    # compared, both parities alike.
    p = ProlateParams(n, w)
    full = tridiagonal_spectrum(p, 0, n - 1)
    orders = np.r_[0:256, 256 : n : 5 if n >= 4096 else 1]
    got = np.minimum(full.lam, full.comp)[orders]
    ref = np.array([min(s.lam[0], s.comp[0]) for s in (tridiagonal_spectrum(p, k, k) for k in orders)])
    small = ref <= 1e-2
    assert np.max(np.abs(got - ref)[small]) <= 2e-16
    assert np.max(np.abs(got - ref)[~small] / ref[~small]) <= 1e-14


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

    monkeypatch.setattr(spectrum, "dstebz", refuse)
    monkeypatch.setattr(spectrum, "dstein", refuse)
    _, ref = np.linalg.eigh(_dense_t(n, 0.2))
    for k in orders:
        got = spectrum._concentration_eigenvectors(ProlateParams(n, 0.2), k, k)[1][:, 0]
        assert abs(got @ ref[:, n - 1 - k]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("w", [0.03, 0.2, 0.35])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 128, 129, 200, 201])
def test_parity_route_matches_dense(n, w):
    # odd and even n: eigenvalues against the dense oracle, and eigenvectors
    # against a dense solve of T (signs aligned), for every order
    from prolate.spectrum import _concentration_eigenvectors

    p = ProlateParams(n, w)
    assert np.max(np.abs(tridiagonal_spectrum(p, 0, n - 1).lam - dense_spectrum(p).lam)) <= 1e-10
    _, got = _concentration_eigenvectors(p, 0, n - 1)
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
    # the vectorized weighted sum of squares against a per-column math.fsum
    # of the same terms, within the error bound of a plain sum,
    # n * eps * sum(|terms|): odd n (a length-2P transform of each column) and
    # even n (a length-P transform of each half, both parities), B and I - B
    import math

    from prolate.spectrum import (
        _concentration_eigenvectors,
        _parseval_squares,
        _parseval_weights,
        _rayleigh_quotients,
    )

    for n in (256, 257):
        p = ProlateParams(n, 0.2)
        _, vecs = _concentration_eigenvectors(p, 90, 120)
        for reflected in (False, True):
            got = _rayleigh_quotients(p, vecs, reflected, 90)
            for parity in (0, 1):  # orders 90 + j: column j has the parity of j
                cols = slice(parity, None, 2)
                weights = _parseval_weights(p, reflected, parity)
                terms = _parseval_squares(p, vecs[:, cols], parity) * weights
                ref = np.array([math.fsum(row.tolist()) for row in terms])
                bound = terms.shape[1] * np.finfo(float).eps * np.abs(terms).sum(axis=1)
                assert np.all(np.abs(got[cols] - ref) <= bound), (n, reflected, parity)


def test_slice_workspace_stays_within_its_eigenvector_block():
    # stein writes each vector's half into the n x 256 eigenvector block
    # (32 MiB at n = 2^14), which is mirrored in place and transformed in
    # chunks of a fixed number of entries, so above the block the transient
    # peak is three chunks of 4 MiB at most (measured 8.8 MiB). One order of
    # another instance is solved first, so that the first LAPACK call's
    # import of scipy.linalg is not traced; this instance's caches stay cold.
    import tracemalloc

    tridiagonal_spectrum(ProlateParams(64, 0.2), 10, 10)
    p = ProlateParams(16384, 0.1)
    k = p.tbp_floor - 128
    tracemalloc.start()
    try:
        tridiagonal_spectrum(p, k, k + 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = p.n * 256 * 8
    assert peak - block <= 3 * 2**22, peak / 2**20


def test_whole_slice_workspace_stays_within_a_block_of_a_quarter():
    # a full slice solves each parity block of about n/2 with one MRRR call,
    # which returns its own m x m vectors, a quarter of the n x n eigenvector
    # block (32 MiB at n = 2^11), before they are copied into it; the rest of
    # the transient peak is the chunked mirror and transforms, three chunks
    # of 4 MiB at most. The first LAPACK call's scipy.linalg import is kept
    # out of the trace as in the test above.
    import tracemalloc

    tridiagonal_spectrum(ProlateParams(64, 0.2), 10, 10)
    p = ProlateParams(2048, 0.1)
    tracemalloc.start()
    try:
        tridiagonal_spectrum(p, 0, p.n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = p.n * p.n * 8
    assert peak - block <= block / 4 + 3 * 2**22, peak / 2**20


def test_stemr_failure_raises(monkeypatch, capsys):
    # scipy's LinAlgError from the whole-block MRRR solve is a NumericalError,
    # which the CLI reports as one error line with exit 4
    import prolate.spectrum as spectrum
    from prolate.cli import main

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvectors did not converge")

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", failing)
    with pytest.raises(NumericalError, match="stemr"):
        tridiagonal_spectrum(ProlateParams(64, 0.2), 0, 63)
    code = main(["eigs", "--n", "64", "--w", "0.2", "--krange", "0:63"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_stebz_window_failure_raises(monkeypatch, capsys):
    # a nonzero info from LAPACK stebz while a width probe bisects in its
    # predicted window is a NumericalError, which the CLI reports as one
    # error line with exit 4; slices bisect by index and never bisect by value
    import prolate.spectrum as spectrum
    from prolate.cli import main

    bisect = spectrum.dstebz

    def failing(diag, off, select, vl, vu, il, iu, tol, order):
        if select != 1:
            return bisect(diag, off, select, vl, vu, il, iu, tol, order)
        empty = np.zeros(diag.size, dtype=np.int32)
        return 0, np.zeros(diag.size), empty, empty, 1

    monkeypatch.setattr(spectrum, "dstebz", failing)
    p = ProlateParams(64, 0.2)
    tridiagonal_spectrum(p, 0, 63)
    with pytest.raises(NumericalError, match=r"LAPACK stebz failed in \(.* of a block of 32"):
        transition_width(p, 1e-3)
    code = main(["width", "--n", "1000", "--w", "0.125", "--eps", "1e-3"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error: LAPACK stebz failed in (") and err.count("\n") == 1


@pytest.mark.parametrize("n, w, parity", [(64, 0.2, 0), (301, 0.05, 1), (1000, 0.125, 0)])
def test_stebz_matches_scipys_bisection_bit_for_bit(n, w, parity):
    # the one bisection entry point makes the stebz calls that scipy's
    # eigvalsh_tridiagonal makes, by index and by value, to the same bits
    import prolate.spectrum as spectrum
    from scipy.linalg import eigvalsh_tridiagonal

    p = ProlateParams(n, w)
    diag, off, upper = spectrum._parity_blocks(p)[parity]
    tol = n * math.sin(2.0 * math.pi * w) / 2.0**16
    size = diag.size
    full = np.sort(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)))
    for jlo, jhi in [(0, 0), (size // 3, size // 3 + 4), (size - 2, size - 1)]:
        il, iu = size - jhi, size - jlo  # jlo-th..jhi-th largest, stebz counts from 1
        got = spectrum._stebz(diag, off, 2, il, iu, tol)
        ref = eigvalsh_tridiagonal(
            diag, off, select="i", select_range=(il - 1, iu - 1), lapack_driver="stebz", tol=tol
        )
        assert got.size == iu - il + 1 and np.array_equal(got, ref), (jlo, jhi)
        # a window strictly between neighbouring eigenvalues holds the same ones
        vl = (full[il - 2] + full[il - 1]) / 2.0 if il > 1 else full[0] - 1.0
        vu = (full[iu - 1] + full[iu]) / 2.0 if iu < size else upper
        got = spectrum._stebz(diag, off, 1, vl, vu, tol)
        ref = eigvalsh_tridiagonal(
            diag, off, select="v", select_range=(vl, vu), lapack_driver="stebz", tol=tol
        )
        assert got.size == iu - il + 1 and np.array_equal(got, ref), (vl, vu)


def _lapack_calls():
    """(d, e, stebz arguments) on 2 x 2 and 3 x 3 blocks and on parity blocks
    of (1000, 0.2) and (2^16, 0.15): the top four eigenvalues by index, and
    windows by value that hold none, one and all four of them, to a coarse
    tolerance and, but in the largest block, to full accuracy in block order."""
    import prolate.spectrum as spectrum
    from scipy.linalg.lapack import dstebz

    blocks = [
        (np.array([1.0, 3.0]), np.array([0.5])),
        (np.array([2.0, -1.0, 0.5]), np.array([1.0, 0.25])),
        spectrum._parity_blocks(ProlateParams(1000, 0.2))[0][:2],
        spectrum._parity_blocks(ProlateParams(65536, 0.15))[1][:2],
    ]
    calls = []
    for d, e in blocks:
        top = (max(d.size - 3, 1), d.size)
        tol = 1e-3 * float(np.max(np.abs(d)))
        m, w, *_ = dstebz(d, e, 2, 0.0, 1.0, *top, 0.0, "E")
        v = w[:m]
        g = float(np.min(np.diff(v))) / 2.0
        calls.append((d, e, 2, 0.0, 1.0, *top, tol, "E"))
        for lo, hi in [(v[-1] + g, v[-1] + 2 * g), (v[-1] - g, v[-1] + g), (v[0] - g, v[-1] + g)]:
            calls.append((d, e, 1, lo, hi, 0, 0, tol, "E"))
            if d.size < 2**10:
                calls.append((d, e, 1, lo, hi, 0, 0, 0.0, "B"))
    return calls


def _lapack_results(stebz, stein, calls):
    """m, w[:m] and info of each stebz call, with stein's vectors and info at
    the eigenvalues found (one shift per call, as the module makes them)."""
    out = []
    for d, e, *args in calls:
        m, w, _, _, info = stebz(d, e, *args)
        iblock, isplit = np.ones(d.size, dtype=np.int32), np.full(d.size, d.size, dtype=np.int32)
        vectors = [stein(d, e, w[j : j + 1], iblock, isplit) for j in range(m)]
        out.append((m, w[:m], info, vectors))
    return out


def test_lapack_forwarders_match_scipys_f2py_wrappers_bit_for_bit():
    # spectrum's dstebz and dstein call LAPACK through scipy.linalg.cython_lapack
    # by ctypes, which releases the GIL; they return what scipy.linalg.lapack's
    # wrappers return, to the bit, also when two threads call them at once
    from concurrent.futures import ThreadPoolExecutor

    import prolate.spectrum as spectrum
    from scipy.linalg import lapack

    calls = _lapack_calls()
    ref = _lapack_results(lapack.dstebz, lapack.dstein, calls)
    assert [r[0] for r in ref[-4:]] == [4, 0, 1, 4]  # the 2^16 block's calls
    with ThreadPoolExecutor(2) as pool:
        runs = [_lapack_results(spectrum.dstebz, spectrum.dstein, calls)]
        runs += pool.map(
            _lapack_results, *zip(*[(spectrum.dstebz, spectrum.dstein, calls)] * 2), timeout=60
        )
    for got in runs:
        for (m, w, info, vectors), (m_ref, w_ref, info_ref, vectors_ref) in zip(got, ref):
            assert (m, info) == (m_ref, info_ref) and np.array_equal(w, w_ref)
            for (z, z_info), (z_ref, z_info_ref) in zip(vectors, vectors_ref):
                assert z_info == z_info_ref == 0
                assert z.shape == z_ref.shape and np.array_equal(z, z_ref)


def test_lapack_forwarders_refuse_bands_of_the_wrong_size():
    # LAPACK would read past the end of a short band: the forwarders check the
    # sizes on every call, also of arrays passed to the call before, so an
    # off-diagonal or an iblock from another block raises instead
    import prolate.spectrum as spectrum

    d5, e5, d8, e8 = np.arange(5.0), np.ones(4), np.arange(8.0), np.ones(7)
    iblock, isplit = np.ones(5, dtype=np.int32), np.full(5, 5, dtype=np.int32)
    assert spectrum.dstein(d5, e5, [1.0], iblock, isplit)[1] == 0
    assert spectrum.dstebz(d8, e8, 1, 0.0, 1.0, 0, 0, 0.1, "E")[4] == 0
    for args in [(d8, e8, [1.0], iblock, isplit), (d5, e8, [1.0], iblock, isplit)]:
        with pytest.raises(ValueError, match="band arguments of sizes"):
            spectrum.dstein(*args)
    with pytest.raises(ValueError, match="band arguments of sizes"):
        spectrum.dstebz(d8, e5, 1, 0.0, 1.0, 0, 0, 0.1, "E")
    assert spectrum.dstein(d5, e5, [1.0], iblock, isplit)[1] == 0


@pytest.mark.parametrize("size", [5, 2**15])
def test_lapack_forwarders_keep_no_reference_to_their_arrays(size):
    # each call allocates its own workspaces and keeps nothing after it
    # returns: the bands, iblock and isplit passed in and the arrays given
    # back are referenced by the caller alone, and the next call's results
    # share no memory with them, on the calling thread and on a second one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    import prolate.spectrum as spectrum

    def call():
        d, e = np.linspace(-1.0, 1.0, size), np.full(size - 1, 0.5)
        iblock, isplit = np.ones(size, dtype=np.int32), np.full(size, size, dtype=np.int32)
        passed = (d, e, iblock, isplit)
        before = [sys.getrefcount(a) for a in passed]
        m, w, blocks, splits, info = spectrum.dstebz(d, e, 2, 0.0, 1.0, size, size, 0.0, "E")
        z, z_info = spectrum.dstein(d, e, w[:m], iblock, isplit)
        assert (m, info, z_info) == (1, 0, 0)
        assert [sys.getrefcount(a) for a in passed] == before
        fresh = np.zeros(1)
        counts = [sys.getrefcount(w), sys.getrefcount(blocks), sys.getrefcount(splits)]
        assert counts + [sys.getrefcount(z)] == [sys.getrefcount(fresh)] * 4
        return w, blocks, splits, z

    def check():
        first, second = call(), call()
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    check()
    with ThreadPoolExecutor(1) as pool:
        pool.submit(check).result(timeout=60)


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
    # each probe computes one order. Slepian's line places both ends of a run
    # before any probe, and each resolved probe's mirror image about
    # 2NW - 1/2 stands in for a probe at the other end, so a width costs the
    # two orders that prove each end: 4 for one eps at N = 2^16, 13 for three
    import prolate.spectrum as spectrum

    calls = []
    compute = spectrum._solve_probes  # the width search's probe

    def counting(params, probes):
        calls.append([k for k, _ in probes])
        return compute(params, probes)

    monkeypatch.setattr(spectrum, "_solve_probes", counting)
    p = ProlateParams(65536, 0.25)
    report = transition_width(p, 1e-13)
    assert report.width == 68
    assert report.probes == tuple(k for orders in calls for k in orders)
    assert all(len(orders) in (1, 2) for orders in calls), calls
    assert len(report.probes) <= 4, report.probes

    reports = transition_widths(p, [1e-3, 1e-8, 1e-13])
    assert [r.width for r in reports] == [18, 44, 68]
    assert all(r.probes == reports[0].probes for r in reports)
    assert len(reports[0].probes) <= 13, reports[0].probes
    assert len(set(reports[0].probes)) == len(reports[0].probes)


def test_width_probes_at_two_pow_16_never_bisect_by_index(monkeypatch):
    # every probe, the first included, finds its T-eigenvalue in a predicted
    # window, which the Sturm counts accept, so no probe bisects its whole
    # parity block by index (at 12 W across [1/16, 7/16], eps = 1e-13)
    import prolate.spectrum as spectrum

    ranges = []
    bisect = spectrum._stebz
    monkeypatch.setattr(spectrum, "_stebz", lambda *a: ranges.append(a[2]) or bisect(*a))
    for w in np.linspace(1 / 16, 7 / 16, 12):
        report = transition_width(ProlateParams(65536, float(w)), 1e-13)
        assert 62 <= report.width <= 68 and len(report.probes) <= 4, (w, report)
    assert 2 not in ranges  # LAPACK's RANGE 2: bisection by index


class _InlineWorker:
    """Stands in for the worker thread: runs each job at once, on the caller's."""

    def submit(self, fn, *args):
        from concurrent.futures import Future

        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _probed(monkeypatch, p, eps_list):
    """Reports of one width count, (k, lambda_k, 1 - lambda_k) of each probe in
    the order recorded, and whether any block solve ran off the calling thread."""
    import threading

    import prolate.spectrum as spectrum

    seen, threads = [], set()
    solve, block = spectrum._solve_probes, spectrum._block_eigenvectors

    def recording(params, probes):
        solved = solve(params, probes)
        seen.extend((k, lam, comp) for (k, _), (lam, comp, _) in zip(probes, solved))
        return solved

    def solving(*args):
        threads.add(threading.get_ident())
        return block(*args)

    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_solve_probes", recording)
        patch.setattr(spectrum, "_block_eigenvectors", solving)
        reports = transition_widths(p, eps_list)
    return reports, seen, threads != {threading.get_ident()}


# (width, k_first, k_last) of each eps, one eps or three, as the search found
# them when it probed one order at a time
_SEARCH_RUNS = {
    (2**12, 0.03, 1): [(41, 225, 265)],
    (2**12, 0.03, 3): [(12, 240, 251), (27, 232, 258), (41, 225, 265)],
    (2**12, 0.2, 1): [(51, 1613, 1663)],
    (2**12, 0.2, 3): [(13, 1632, 1644), (33, 1622, 1654), (51, 1613, 1663)],
    (2**12, 0.41, 1): [(47, 3335, 3381)],
    (2**12, 0.41, 3): [(13, 3352, 3364), (31, 3343, 3373), (47, 3335, 3381)],
    (2**14, 0.03, 1): [(50, 958, 1007)],
    (2**14, 0.03, 3): [(14, 976, 989), (32, 967, 998), (50, 958, 1007)],
    (2**14, 0.2, 1): [(59, 6524, 6582)],
    (2**14, 0.2, 3): [(15, 6546, 6560), (39, 6534, 6572), (59, 6524, 6582)],
    (2**14, 0.41, 1): [(56, 13407, 13462)],
    (2**14, 0.41, 3): [(15, 13427, 13441), (36, 13417, 13452), (56, 13407, 13462)],
    (2**16, 0.1, 1): [(65, 13075, 13139)],
    (2**16, 0.3, 1): [(67, 39288, 39354)],
    (2**16, 0.3, 3): [(17, 39313, 39329), (43, 39300, 39342), (67, 39288, 39354)],
}


@pytest.mark.parametrize(
    "n, w, eps_list, runs",
    [
        pytest.param(n, w, [1e-3, 1e-8, 1e-13][-count:], runs, id=f"{n}-{w}-{count}-eps")
        for (n, w, count), runs in _SEARCH_RUNS.items()
    ],
)
def test_concurrent_rounds_count_as_the_serial_search(monkeypatch, n, w, eps_list, runs):
    # a round's second solve may run on the worker thread, inline after the
    # first (the worker stood in for), or after it with one CPU in the
    # affinity mask, where the rounds run serially: the probes and every
    # probe's lambda and 1 - lambda are the same bit for bit, and so are the
    # runs, pinned to those of the one-order-at-a-time search
    import prolate.spectrum as spectrum

    p = ProlateParams(n, w)
    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_concurrent", lambda: True)
        threaded = _probed(monkeypatch, p, eps_list)
        patch.setattr(spectrum, "_worker", _InlineWorker)
        inline = _probed(monkeypatch, p, eps_list)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one_cpu = _probed(monkeypatch, p, eps_list)
    assert [off for _, _, off in (threaded, inline, one_cpu)] == [True, False, False]
    reports, seen, _ = threaded
    for other, other_seen, _ in (inline, one_cpu):
        assert other_seen == seen
        assert other[0].probes == reports[0].probes == tuple(k for k, _, _ in seen)
    assert [(r.width, r.k_first, r.k_last) for r in reports] == runs


@pytest.mark.parametrize(
    "concurrent, on_worker", [(True, True), (True, False), (False, False)],
    ids=["worker", "calling-thread", "inline"],
)  # fmt: skip
def test_failed_stein_in_a_concurrent_round_exits_four(monkeypatch, capsys, concurrent, on_worker):
    # a stein failure in either of a round's two solves, on the worker thread
    # or on the calling one (where, with one CPU, both run), is one error line
    # and exit 4, and the next width count succeeds
    import threading

    import prolate.spectrum as spectrum
    from prolate.cli import main

    argv = ["width", "--n", "4096", "--w", "0.2", "--eps", "1e-13"]
    # the worker or none, whatever the CPUs here
    monkeypatch.setattr(spectrum, "_concurrent", lambda: concurrent)
    caller, stein = threading.get_ident(), spectrum.dstein

    def failing(d, e, w, iblock, isplit):
        if (threading.get_ident() != caller) == on_worker:
            return np.zeros((d.size, len(w)), order="F"), 1
        return stein(d, e, w, iblock, isplit)

    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(spectrum, "dstein", failing)
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: LAPACK stein did not converge") and err.count("\n") == 1
    monkeypatch.setattr(spectrum, "dstein", stein)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_width_probe_windows_hold_a_few_eigenvalues_at_most(monkeypatch):
    # with N sin(2 pi W) just above 1 the model's slope is near 0 and 0.9 of
    # an order's spacing would span the block; each window is capped at
    # N sin(2 pi W) to each side, so it never bisects more than 9 eigenvalues
    import prolate.spectrum as spectrum
    from prolate.spectrum import _count_run

    n = 1024
    p = ProlateParams(n, math.asin((1.0 + 1e-9) / n) / (2.0 * math.pi))
    uppers = {upper for _, _, upper in spectrum._parity_blocks(p)}
    sizes = []
    bisect = spectrum._stebz

    def recording(diag, off, select, lo, hi, tol):
        found = bisect(diag, off, select, lo, hi, tol)
        if select == 1 and hi not in uppers:  # a window, not the count above one
            sizes.append(found.size)
        return found

    monkeypatch.setattr(spectrum, "_stebz", recording)
    eps_list = [1e-3, 1e-8, 1e-13]
    full = tridiagonal_spectrum(p, 0, n - 1)
    for report in transition_widths(p, eps_list):
        assert (report.width, report.k_first, report.k_last) == _count_run(full, report.eps)
    assert sizes and max(sizes) <= 9, sizes


def test_width_count_builds_the_bands_once(monkeypatch):
    # all the probes of an instance share one read-only copy of T's parity blocks
    import prolate.spectrum as spectrum

    calls = []
    build = spectrum._tridiag_bands
    monkeypatch.setattr(spectrum, "_tridiag_bands", lambda n, w: calls.append(n) or build(n, w))
    spectrum._parity_blocks.cache_clear()
    p = ProlateParams(1000, 0.125)
    assert len(transition_widths(p, [1e-3, 1e-8, 1e-13])[0].probes) > 1
    assert calls == [1000]
    for diag, off, _ in spectrum._parity_blocks(p):
        assert not diag.flags.writeable and not off.flags.writeable


def test_transition_width_probe_budget_over_figure3():
    # the 101-instance desk figure 3 (N = 2^12, W log-spaced in [2^-10, 2^-2],
    # three eps): 1504 probes when each search started by bisecting, 1302 now;
    # no order is probed twice
    total = 0
    for w in np.geomspace(2.0**-10, 2.0**-2, 101):
        probes = transition_widths(ProlateParams(4096, float(w)), [1e-3, 1e-8, 1e-13])[0].probes
        assert len(set(probes)) == len(probes), (w, probes)
        total += len(probes)
    assert total <= 1310


def test_transition_width_probe_where_the_run_is_cut_off():
    # with N sin(2 pi W) < 1 the line is held at 2NW - 1/2, not turned to rise
    # in k: here 2NW ~ 3e-76, so one probe at k = 0 proves the run empty
    report = transition_width(ProlateParams(583, 2.754681989571331e-79), 1e-3)
    assert (report.width, report.probes) == (0, (0,))


def test_saturated_probes_bisect_towards_their_mirror_image():
    # a saturated probe (lambda or 1 - lambda at the resolution floor) that
    # ends the bracket is bisected towards its mirror image about 2NW - 1/2,
    # not across the bracket; one that ends no bracket starts no bisection
    from prolate.spectrum import _count_run

    cases = [(345, 0.05181053651154233, 9.9e-15), (4350, 0.0017565615081560815, 1.83e-15)]
    reports = [transition_width(ProlateParams(n, w), eps) for n, w, eps in cases]
    assert reports[0].probes == (20, 51, 19, 50)  # two rounds of both ends
    assert len(reports[1].probes) <= 8, reports[1].probes
    for (n, w, eps), report in zip(cases, reports):
        assert len(set(report.probes)) == len(report.probes)
        # orders 0..199 hold the whole run: the last is already below eps
        head = tridiagonal_spectrum(ProlateParams(n, w), 0, 199)
        assert head.lam[-1] <= eps
        assert (report.width, report.k_first, report.k_last) == _count_run(head, eps)


@pytest.mark.parametrize("n, w", [(64, 0.25), (300, 0.05), (777, 0.4), (1000, 0.125)])
def test_transition_widths_match_the_full_spectrum_runs(n, w):
    # the search keeps only the bracket its probes prove: each count agrees
    # with the full spectrum's, no order is probed twice, and the probes
    # include both neighbours of every run end that lies inside (0, n)
    from prolate.spectrum import _count_run

    p = ProlateParams(n, w)
    eps_list = [1e-3, 1e-8, 1e-13]
    reports = transition_widths(p, eps_list)
    full = tridiagonal_spectrum(p, 0, n - 1)
    probes = reports[0].probes
    assert len(set(probes)) == len(probes)
    for report in reports:
        assert report.probes == probes
        assert (report.width, report.k_first, report.k_last) == _count_run(full, report.eps)
        # first: the first order with 1 - lambda > eps; stop: with lambda <= eps
        first = next((k for k in range(n) if full.comp[k] > report.eps), n)
        stop = next((k for k in range(n) if full.lam[k] <= report.eps), n)
        for end in (first, stop):
            if 0 < end < n:
                assert {end - 1, end} <= set(probes), (report.eps, end, probes)


def test_width_count_evaluates_the_sinc_column_once(monkeypatch):
    # B and I - B share one sinc column and one kernel transform, the real
    # DFT of B's circulant embedding, cached read-only
    import prolate.spectrum as spectrum

    calls, sizes = [], []
    evaluate, rfft = spectrum.sinc_kernel, np.fft.rfft
    monkeypatch.setattr(spectrum, "sinc_kernel", lambda w, t: calls.append(w) or evaluate(w, t))

    def count(a, *args, **kwargs):
        sizes.append(a.shape)
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", count)
    spectrum._prolate_symbol.cache_clear()
    p = ProlateParams(1000, 0.125)
    probes = transition_width(p, 1e-3).probes
    assert min(probes) < p.tbp_floor <= max(probes)  # both operators were used
    assert calls == [0.125]
    assert sizes.count((2048,)) == 1  # the embedding, 2P = 2048; probes take P = 1024
    for arr in spectrum._prolate_symbol(p):
        assert not arr.flags.writeable


@pytest.mark.parametrize("n, w", [(1000, 0.125), (65536, 0.2)])
def test_even_n_probe_makes_one_half_length_real_fft(monkeypatch, n, w):
    # once the instance's symbol is built, a width probe at even n transforms
    # only its half vector: one forward real FFT of length P (the least power
    # of two >= n), whichever side of 2NW and whichever parity
    import prolate.spectrum as spectrum

    p = ProlateParams(n, w)
    spectrum._prolate_symbol(p)
    calls = []

    def count(name):
        fn = getattr(np.fft, name)
        return lambda a, *args, **kw: calls.append((name, a.shape[-1])) or fn(a, *args, **kw)

    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, count(name))
    size = 1 << (n - 1).bit_length()
    probes = transition_width(p, 1e-13).probes
    assert min(probes) < p.tbp_floor <= max(probes)  # both B and I - B
    assert {k % 2 for k in probes} == {0, 1}
    assert calls == [("rfft", size)] * len(probes)


def test_transition_report_probes_stay_out_of_comparisons():
    # the record of the work neither shows in repr nor splits equal reports
    p = ProlateParams(1000, 0.125)
    alone, shared = transition_width(p, 1e-3), transition_widths(p, [1e-8, 1e-3])[1]
    assert alone.probes != shared.probes and alone == shared
    assert "probes" not in repr(alone)


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
