"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import prolate as pr
from prolate.cli import figure2_instances, figure3_instances, sweep_rows
from prolate.verification import sum_noise_allowance

GRID6 = [(n, w) for n in (64, 256, 512) for w in (0.05, 0.125, 0.25, 0.4)]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {label}", file=sys.stderr, flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} PASS {label}", flush=True)


def test_criterion_01_figure1_reproduction():
    with criterion(1, "figure-1 instance: width 12, plunge values, cluster counts, <= 10 s"):
        start = time.monotonic()
        p = pr.ProlateParams(1000, 0.125)
        report = pr.transition_width(p, 1e-3)
        assert report.width == 12
        dense = pr.dense_spectrum(p)
        assert round(dense.lam_at(243), 4) == 0.9997
        assert round(dense.lam_at(256), 4) == 0.0003
        # every eigenvalue is strictly inside (0, 1), so the half-open
        # interval counts equal the threshold counts
        assert int(np.sum(dense.lam >= 0.999)) == 244
        assert int(np.sum(dense.lam <= 0.001)) == 744
        assert time.monotonic() - start <= 10.0


def test_criterion_02_new_width_bounds():
    with criterion(2, "width bounds: thm1 = 14, thm2 integer report = 23"):
        assert pr.width_bound_thm1(1000, 1e-3).integer == 14
        assert pr.width_bound_thm2(1000, 0.125, 1e-3).integer == 23


def test_criterion_03_prior_width_bounds():
    with criterion(3, "prior width bounds: eq2 = 1806, eq3 = 1000, eq6 = 185"):
        assert pr.width_bound_prior(1000, 0.125, 1e-3, "eq2").integer == 1806
        assert pr.width_bound_prior(1000, 0.125, 1e-3, "eq3").integer == 1000
        assert pr.width_bound_prior(1000, 0.125, 1e-3, "eq6").integer == 185


def test_criterion_04_figure2_desk_scale():
    with criterion(4, "figure-2 desk sweep: width <= thm1, gap in [1, 14], <= 10 min"):
        start = time.monotonic()
        rows = sweep_rows(figure2_instances(2**4, 2**12), [1e-3, 1e-8, 1e-13])
        assert len(rows) == 9 * 3
        for row in rows:
            slack = 1 if row["eps"] <= 1e-13 else 0  # advisory +-1 at the floor
            assert row["width"] <= row["bound_thm1"] + slack
            assert 1 - slack <= row["gap"] <= 14 + slack
        assert time.monotonic() - start <= 600.0


def test_criterion_05_figure3_desk_scale():
    with criterion(5, "figure-3 desk sweep: width <= thm2 on 101 log-spaced W, <= 15 min"):
        start = time.monotonic()
        rows = sweep_rows(figure3_instances(2**12, 2**-10, 2**-2, 101), [1e-3, 1e-8, 1e-13])
        assert len(rows) == 101 * 3
        for row in rows:
            slack = 1 if row["eps"] <= 1e-13 else 0
            assert row["width"] <= row["bound_thm2"] + slack
        assert time.monotonic() - start <= 900.0


def test_criterion_06_spectrum_property_suite():
    with criterion(6, "spectrum properties: trace, order, interlacing, symmetry, routes"):
        for n, w in GRID6:
            p = pr.ProlateParams(n, w)
            dense = pr.dense_spectrum(p)
            trid = pr.tridiagonal_spectrum(p, 0, n - 1)
            assert abs(dense.sum_lambdas() - 2 * n * w) <= 1e-9 * (2 * n * w)
            assert np.all(np.diff(dense.lam) < 1e-13)
            assert np.all(np.diff(trid.lam) < 1e-13)
            fl, ce = p.tbp_floor, p.tbp_ceil
            if fl >= 1:
                assert trid.lam_at(fl - 1) >= 0.5 - 1e-10
            if ce <= n - 1:
                assert trid.lam_at(ce) <= 0.5 + 1e-10
            reflected = pr.dense_spectrum(p.complement())
            assert np.max(np.abs(reflected.lam - (1.0 - dense.lam[::-1]))) <= 1e-10
            assert np.max(np.abs(dense.lam - trid.lam)) <= 1e-10


def test_criterion_07_envelope_and_sum_suite():
    with criterion(7, "envelopes contain every eigenvalue; head/tail sums within caps"):
        for n, w in GRID6 + [(1000, 0.125)]:
            p = pr.ProlateParams(n, w)
            lam = pr.dense_spectrum(p).lam
            for k in range(n):
                env = pr.eig_envelope(n, w, k)
                assert env.lower - 1e-10 <= lam[k] <= env.upper + 1e-10, (n, w, k)
            fl, ce = p.tbp_floor, p.tbp_ceil
            comp_tail = pr.tridiagonal_spectrum(p.complement(), n - fl, n - 1).lam[::-1]
            heads = np.cumsum(comp_tail)
            for K in range(1, fl + 1):
                cap = pr.sum_bounds_cor2(n, w, K, "head") + sum_noise_allowance(K)
                assert heads[K - 1] <= cap, ("head", n, w, K)
            direct = pr.tridiagonal_spectrum(p, ce, n - 1).lam
            tails = np.cumsum(direct[::-1])[::-1]
            for K in range(ce, n):
                cap = pr.sum_bounds_cor2(n, w, K, "tail") + sum_noise_allowance(n - K)
                assert tails[K - ce] <= cap, ("tail", n, w, K)


def test_criterion_08_displacement_suite():
    with criterion(8, "displacement: residual, norm cap, singular decay, Loewner"):
        n, w, L = 256, 0.125, 2048
        p = pr.ProlateParams(n, w)
        system = pr.build_xl(p, L)
        assert system.residual() <= 1e-13 * (n + L)
        assert system.spectral_norm() <= 0.5 + 1e-12
        report = pr.sv_decay_check(p, L, 10)
        assert report.passed
        assert pr.loewner_min_eig(p, L) >= -1e-10


def test_criterion_09_partition_suite():
    with criterion(9, "partition: mirror blocks, block bounds (k0 <= 10, k <= 8), Weyl"):
        p = pr.ProlateParams(512, 1.0 / 64.0)
        l1 = int(1.0 / (4.0 * p.w))
        report = pr.partition_check(p, l1 + 64, 10, 8)
        floor = 1e-13 * max(1.0, float(report.sv_left[0]))
        gap = np.abs(report.sv_left - report.sv_right)
        assert np.all(gap <= 1e-10 * np.maximum(report.sv_left, report.sv_right) + floor)
        assert report.outer_ok and report.block_ok and report.weyl_ok
        assert report.passed


def test_criterion_10_chebyshev_suite():
    with criterion(10, "chebyshev: interpolation error chain and rank-k frobenius caps"):
        for w in (1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0):
            l1 = int(1.0 / (4.0 * w))
            a, b = -float(l1), -1.0
            grid = np.linspace(a, b, 1000)
            for n in (0, 3, 50):
                for k in range(1, 9):
                    interp = pr.cheb_interpolate(w, n, a, b, k)
                    err = np.max(np.abs(pr.sinc_kernel(w, grid - n) - interp(grid)))
                    cap = pr.interpolation_error_bound(w, n, a, b, k)
                    assert err <= cap * (1.0 + 1e-9) + 1e-15, (w, n, k)
        for k in range(1, 9):
            rep = pr.lowrank_block_approx(pr.ProlateParams(512, 1.0 / 64.0), k)
            assert rep.frobenius_error <= rep.bound, k


def test_criterion_11_pswf_suite():
    with criterion(11, "continuous-case transfer: proxy agreement, envelopes, widths"):
        c = math.pi * 50.0
        proxies = {n: pr.pswf_proxy(c, 0, 140, n) for n in (2000, 4000)}
        gap = np.max(np.abs(proxies[2000].lam - proxies[4000].lam))
        assert gap <= proxies[2000].delta + proxies[4000].delta
        for n, proxy in proxies.items():
            for k, lam in proxy.entries:
                env = pr.pswf_eig_envelope(c, k)
                assert env.lower - proxy.delta <= lam <= env.upper + proxy.delta, (n, k)
        from prolate.spectrum import proxy_width_interval

        for eps in (1e-2, 1e-3):
            cap = pr.pswf_width_bound(c, eps).integer
            lo, _, _ = proxy_width_interval(c, eps, 4000)
            assert lo is not None
            assert lo <= cap, (eps, lo, cap)
