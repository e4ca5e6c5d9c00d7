import math

import numpy as np
import pytest

from prolate import (
    CapacityError,
    DomainError,
    ParameterError,
    ProlateParams,
    cheb_interpolate,
    interpolation_error_bound,
    lowrank_block_approx,
    sinc_derivative_bound,
    sinc_kernel,
)


def g(w, t):
    return sinc_kernel(w, np.asarray(t, dtype=float))


def fd_derivative(w, k, t, h_scale=1e-4):
    """Central differences with one Richardson step (test-side oracle)."""
    h = h_scale * max(1.0, abs(t))

    def stencil(hh):
        gg = lambda x: float(sinc_kernel(w, np.array([x]))[0])
        if k == 0:
            return gg(t)
        if k == 1:
            return (gg(t + hh) - gg(t - hh)) / (2.0 * hh)
        if k == 2:
            return (gg(t + hh) - 2.0 * gg(t) + gg(t - hh)) / hh**2
        return (gg(t + 2 * hh) - 2.0 * gg(t + hh) + 2.0 * gg(t - hh) - gg(t - 2 * hh)) / (
            2.0 * hh**3
        )

    d1, d2 = stencil(h), stencil(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def quad_derivative(w, k, t):
    """Spectral-side oracle via adaptive quadrature of the band integral."""
    from scipy.integrate import quad

    val, _ = quad(
        lambda f: ((2.0j * math.pi * f) ** k * np.exp(2.0j * math.pi * f * t)).real,
        -w,
        w,
        limit=300,
    )
    return val


class TestDerivativeBound:
    def test_value_at_origin(self):
        assert sinc_derivative_bound(0.1, 0, 0.0) == 0.2

    def test_first_derivative_oracle(self):
        # (2 pi W) * min(2W/2, 2/(10 pi)) = 0.04 after the pi cancellation
        cap = sinc_derivative_bound(0.1, 1, 10.0)
        assert cap == pytest.approx(0.04, rel=1e-14)
        assert abs(fd_derivative(0.1, 1, 10.0, h_scale=1e-5)) <= cap

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_fd_oracle_below_bound(self, k):
        rng = np.random.default_rng(11)
        ts = np.concatenate(
            [[0.0, 10.0], rng.uniform(0.05, 20.0, 198) * rng.choice([-1, 1], 198)]
        )
        for t in ts:
            val = abs(fd_derivative(0.1, k, float(t)))
            cap = float(sinc_derivative_bound(0.1, k, float(t)))
            assert val <= cap * (1.0 + 1e-6) + 1e-9

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_quadrature_oracle_below_bound(self, k):
        for t in (0.0, 0.7, 2.9, 5.0, 13.0, 20.0):
            val = abs(quad_derivative(0.1, k, t))
            cap = float(sinc_derivative_bound(0.1, k, t))
            assert val <= cap * (1.0 + 1e-9) + 1e-12

    def test_validation(self):
        with pytest.raises(ParameterError):
            sinc_derivative_bound(0.1, -1, 0.0)

    def test_overflow(self):
        # (2 pi W)^k past the largest double is a closed form that overflows;
        # below 1 it underflows to the bound 0, and a k no double holds is refused
        with pytest.raises(DomainError, match="sinc_derivative_bound overflows in double"):
            sinc_derivative_bound(0.3, 10**4, 0.0)
        assert sinc_derivative_bound(0.1, 10**4, 0.0) == 0.0
        with pytest.raises(ParameterError, match="k must fit in a double, got 1027 bits"):
            sinc_derivative_bound(0.1, 10**309, 0.0)


class TestChebInterpolant:
    def test_node_formula(self):
        interp = cheb_interpolate(1.0 / 32.0, 0, -8.0, -1.0, 6)
        m = np.arange(1, 7)
        expected = (-8.0 + -1.0) / 2.0 + (-1.0 - -8.0) / 2.0 * np.cos((2 * m - 1) * np.pi / 12.0)
        assert np.array_equal(interp.nodes, expected)
        assert np.all((interp.nodes > -8.0) & (interp.nodes < -1.0))

    def test_nodes_symmetric_about_midpoint(self):
        interp = cheb_interpolate(1.0 / 32.0, 3, -8.0, -1.0, 5)
        mid = -4.5
        assert np.max(np.abs((interp.nodes - mid) + (interp.nodes - mid)[::-1])) <= 1e-12

    def test_single_node_constant(self):
        interp = cheb_interpolate(1.0 / 32.0, 2, -8.0, -1.0, 1)
        node = interp.nodes[0]
        expected = float(g(1.0 / 32.0, node - 2))
        assert interp(-7.3) == expected
        assert interp(-1.0) == expected

    def test_reproduces_node_values(self):
        interp = cheb_interpolate(1.0 / 32.0, 0, -8.0, -1.0, 6)
        assert np.max(np.abs(interp(interp.nodes) - interp.values)) <= 1e-13

    def test_grid_error_below_certified_bound(self):
        w, n, a, b, k = 1.0 / 32.0, 3, -8.0, -1.0, 5
        interp = cheb_interpolate(w, n, a, b, k)
        grid = np.linspace(a, b, 1000)
        err = np.max(np.abs(g(w, grid - n) - interp(grid)))
        assert err <= interpolation_error_bound(w, n, a, b, k)

    @pytest.mark.parametrize("w", [1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0])
    @pytest.mark.parametrize("n", [0, 3, 50])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_error_chain_grid(self, w, n, k):
        l1 = int(1.0 / (4.0 * w))
        a, b = -float(l1), -1.0
        interp = cheb_interpolate(w, n, a, b, k)
        grid = np.linspace(a, b, 1000)
        err = np.max(np.abs(g(w, grid - n) - interp(grid)))
        assert err <= interpolation_error_bound(w, n, a, b, k) * (1.0 + 1e-9) + 1e-15

    def test_validation(self):
        with pytest.raises(ParameterError):
            cheb_interpolate(0.1, 0, 2.0, 1.0, 3)
        with pytest.raises(ParameterError):
            cheb_interpolate(0.1, 0, -2.0, -1.0, 0)
        with pytest.raises(ParameterError):
            cheb_interpolate(0.1, np.zeros((2, 2), dtype=int), -2.0, -1.0, 3)

    @pytest.mark.parametrize("n, w", [(256, 1.0 / 32.0), (300, 0.05)])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_array_shift_matches_per_shift_interpolants(self, n, w, k):
        # L1 = 8, and L1 = 5, where odd k puts a node exactly on a row
        l1 = int(1.0 / (4.0 * w))
        ells = np.arange(-l1, 0, dtype=float)
        interp = cheb_interpolate(w, np.arange(n), -float(l1), -1.0, k)
        got = interp(ells)
        assert interp.values.shape == (k, n) and got.shape == (l1, n)
        for j in range(n):
            single = cheb_interpolate(w, j, -float(l1), -1.0, k)
            want = single(ells)
            assert np.array_equal(interp.values[:, j], single.values)
            assert np.max(np.abs(got[:, j] - want)) <= 1e-15 * np.max(np.abs(want))

    def test_scalar_point_with_array_shift(self):
        shifts = np.arange(5)
        interp = cheb_interpolate(1.0 / 32.0, shifts, -8.0, -1.0, 4)
        out = interp(-3.5)
        assert out.shape == (5,)
        assert np.array_equal(out, interp(np.array([-3.5]))[0])
        assert out[3] == pytest.approx(cheb_interpolate(1.0 / 32.0, 3, -8.0, -1.0, 4)(-3.5))


class TestLowRankBlock:
    def test_rank_one(self):
        rep = lowrank_block_approx(ProlateParams(64, 1.0 / 32.0), 1)
        assert np.linalg.matrix_rank(rep.matrix, tol=1e-12) <= 1

    def test_frobenius_bound_oracle(self):
        rep = lowrank_block_approx(ProlateParams(512, 1.0 / 64.0), 5)
        assert rep.bound == pytest.approx(5.0706338784059524244e-5, rel=1e-12)
        assert rep.frobenius_error <= rep.bound

    @pytest.mark.parametrize("k", range(1, 9))
    def test_frobenius_bound_all_ranks(self, k):
        rep = lowrank_block_approx(ProlateParams(512, 1.0 / 64.0), k)
        assert rep.passed
        assert np.linalg.matrix_rank(rep.matrix, tol=1e-10) <= k

    def test_per_entry_chain(self):
        p = ProlateParams(256, 1.0 / 32.0)
        k = 4
        rep = lowrank_block_approx(p, k)
        l1 = rep.l1
        ells = np.arange(-l1, 0)
        lead = 4.0 * (math.pi / 2.0 * p.w * (l1 - 1)) ** k / math.factorial(k)
        for n in (0, 1, 7, 100, 255):
            interp = cheb_interpolate(p.w, n, -float(l1), -1.0, k)
            errs = np.abs(g(p.w, ells - n) - interp(ells.astype(float)))
            cap = lead * min(p.w / (k + 1), 1.0 / (math.pi * (n + 1)))
            assert np.max(errs) <= cap

    def test_monomial_product_matches_barycentric(self):
        # L1 = 8; L1 = 5, where odd k puts a node exactly on a row; and L1 = 1,
        # the one-row block whose interpolant is the kernel value itself. The
        # oracle is each column's own interpolant refitted in the monomial basis
        cases = [ProlateParams(256, 1.0 / 32.0), ProlateParams(300, 0.05), ProlateParams(200, 0.2)]
        for p in cases:
            l1 = int(1.0 / (4.0 * p.w))
            ells = np.arange(-l1, 0, dtype=float)
            for k in range(1, 9):
                rep = lowrank_block_approx(p, k)
                mono = np.empty((l1, p.n))
                for n in range(p.n):
                    if l1 == 1:
                        mono[:, n] = g(p.w, ells - n)
                    else:
                        interp = cheb_interpolate(p.w, n, -float(l1), -1.0, k)
                        coefs = np.polynomial.polynomial.polyfit(interp.nodes, interp.values, k - 1)
                        mono[:, n] = np.vander(ells, k, increasing=True) @ coefs
                assert rep.l1 == l1
                assert np.max(np.abs(rep.matrix - mono)) <= 1e-8

    @pytest.mark.parametrize("k", [9, 12])
    def test_factors_above_eight(self, k):
        # the barycentric factors exist for every k, not only where a
        # Vandermonde factor would stay well conditioned
        p = ProlateParams(512, 1.0 / 64.0)
        rep = lowrank_block_approx(p, k)
        l1 = rep.l1
        assert rep.left_factor.shape == (l1, k)
        assert rep.right_factor.shape == (k, p.n)
        assert np.array_equal(rep.left_factor @ rep.right_factor, rep.matrix)
        ells = np.arange(-l1, 0, dtype=float)
        block = g(p.w, ells[:, None] - np.arange(p.n, dtype=float)[None, :])
        assert rep.frobenius_error == np.linalg.norm(block - rep.matrix, "fro")
        assert np.linalg.matrix_rank(rep.matrix) <= k
        assert rep.passed

    def test_one_row_block_factors_are_exact(self):
        # L1 = 1: the unit row times the kernel row padded with zeros is the block
        p = ProlateParams(200, 0.2)
        for k in (1, 3, 12):
            rep = lowrank_block_approx(p, k)
            assert np.array_equal(rep.left_factor, np.eye(1, k))
            assert np.array_equal(rep.right_factor[0], g(p.w, -1.0 - np.arange(p.n)))
            assert not rep.right_factor[1:].any()
            assert np.array_equal(rep.matrix, rep.right_factor[:1])
            assert rep.frobenius_error == 0.0

    def test_entry_cap_raises_before_allocating(self):
        # L1 = 2.5e8 rows at W = 1e-9: the L1 x N block would take gigabytes
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                lowrank_block_approx(ProlateParams(64, 1e-9), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_wide_band_raises(self):
        for w in (0.25, 0.3):
            with pytest.raises(DomainError):
                lowrank_block_approx(ProlateParams(64, w), 3)
