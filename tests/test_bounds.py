import math
import sys

import mpmath
import numpy as np
import pytest

from prolate import (
    DomainError,
    ParameterError,
    ProlateParams,
    dense_spectrum,
    eig_envelope,
    eig_upper_prior,
    pswf_eig_envelope,
    pswf_proxy,
    pswf_sum_bounds,
    pswf_width_bound,
    slepian_approx,
    sum_bounds_cor2,
    width_bound_prior,
    width_bound_thm1,
    width_bound_thm2,
)
from prolate import bounds
from prolate.bounds import evaluate_bound_set, proxy_delta


class TestWidthBoundThm1:
    def test_paper_instance(self):
        assert width_bound_thm1(1000, 1e-3) == (14.0, 14)

    def test_small_instance_oracle(self):
        # ceil argument is 0.42984865185807647867 (50-digit evaluation)
        assert width_bound_thm1(1, 0.25) == (2.0, 2)

    def test_near_half_eps(self):
        value = width_bound_thm1(1, 0.49999999)
        assert value.integer == 2  # ceiling never returns 0 for valid inputs

    def test_always_positive(self):
        for n in (1, 2, 10, 10**6):
            for eps in (1e-15, 1e-3, 0.25, 0.4999):
                assert width_bound_thm1(n, eps).integer >= 2

    @pytest.mark.parametrize(
        "n", [1, 1000, 2**53 + 1, 10**200, 10**308, int(sys.float_info.max)]
    )
    @pytest.mark.parametrize("eps", [1e-13, 1e-3, 0.25])
    def test_mpmath_oracle_up_to_the_largest_double(self, n, eps):
        # log 4 + log N, never log(4.0 * N), which overflows past a quarter of
        # the largest double: 1196 at N = 10^308, eps = 1e-3
        with mpmath.workdps(50):
            half = mpmath.log(4 * n) * mpmath.log(4 / (eps * (1 - mpmath.mpf(eps)))) / mpmath.pi**2
        assert abs(half - mpmath.nint(half)) > 1e-9  # no tie for the double formula to break
        expected = 2 * int(mpmath.ceil(half))
        assert width_bound_thm1(n, eps) == (float(expected), expected)
        if (n, eps) == (10**308, 1e-3):
            assert expected == 1196

    def test_validation(self):
        with pytest.raises(ParameterError):
            width_bound_thm1(0, 1e-3)
        with pytest.raises(ParameterError):
            width_bound_thm1(10, 0.5)


class TestWidthBoundThm2:
    def test_paper_instance_integer(self):
        assert width_bound_thm2(1000, 0.125, 1e-3).integer == 23

    def test_paper_instance_real_oracle(self):
        # 50-digit evaluation of (2/pi^2) log(12525) log(5/(eps(1-eps))) + 7
        assert width_bound_thm2(1000, 0.125, 1e-3).value == pytest.approx(
            23.287028203765015537, rel=1e-12
        )

    @pytest.mark.parametrize(
        "n", [1000, 10**300, 10**306, 10**307, 10**308, int(sys.float_info.max)]
    )
    @pytest.mark.parametrize("w", [1e-300, 0.1, 0.49])
    def test_mpmath_oracle_up_to_the_largest_double(self, n, w):
        # c = pi N W overflows past N W ~ 5.7e307, and 100 c/pi + 25 past
        # N W ~ 1.8e306; thm2 is about 1235 at N = 10^308, W = 0.1, eps = 1e-3
        eps = 1e-3
        with mpmath.workdps(50):
            x = 100 * n * mpmath.mpf(w) + 25
            rate = mpmath.log(5 / (eps * (1 - mpmath.mpf(eps))))
            expected = 2 / mpmath.pi**2 * mpmath.log(x) * rate + 7
        got = width_bound_thm2(n, w, eps)
        assert got.value == pytest.approx(float(expected), rel=1e-14)
        assert got.integer == int(mpmath.floor(expected))
        if (n, w) == (10**308, 0.1):
            assert got.integer == 1235

    def test_dominates_thm1_for_wide_band(self):
        for n in (16, 128, 1024, 4096):
            for w in (0.25, 0.3, 0.4, 0.49):
                for eps in (1e-2, 1e-5, 1e-10):
                    assert width_bound_thm2(n, w, eps).value >= width_bound_thm1(n, eps).value


class TestPriorWidthBounds:
    def test_paper_values(self):
        assert width_bound_prior(1000, 0.125, 1e-3, "eq2").integer == 1806
        assert width_bound_prior(1000, 0.125, 1e-3, "eq3").integer == 1000
        assert width_bound_prior(1000, 0.125, 1e-3, "eq6").integer == 185

    def test_eq2_requires_n_at_least_two(self):
        with pytest.raises(DomainError):
            width_bound_prior(1, 0.1, 1e-3, "eq2")

    def test_unknown_selector(self):
        with pytest.raises(ParameterError):
            width_bound_prior(10, 0.1, 1e-3, "eq7")

    def test_eq3_negative_is_outside_domain(self):
        # log(2NW) at 2NW = 7.84e-10 makes the verbatim value about -170
        with pytest.raises(DomainError, match="eq3 is negative"):
            width_bound_prior(392, 1e-12, 1e-2, "eq3")
        values = evaluate_bound_set(392, 1e-12, 1e-2)
        assert "eq3_boulsane" not in values
        assert values["eq2_zhuwakin"].integer == 163

    def test_dominance_chain(self):
        values = [
            width_bound_thm1(1000, 1e-3).integer,
            width_bound_thm2(1000, 0.125, 1e-3).integer,
            width_bound_prior(1000, 0.125, 1e-3, "eq6").integer,
            width_bound_prior(1000, 0.125, 1e-3, "eq3").integer,
            width_bound_prior(1000, 0.125, 1e-3, "eq2").integer,
        ]
        assert values == [14, 23, 185, 1000, 1806]


@pytest.mark.parametrize(
    "bound",
    [
        lambda: width_bound_thm1(10, 5e-324),  # 4/eps overflows
        lambda: width_bound_thm2(10, 0.1, 5e-324),
        lambda: width_bound_prior(10, 0.1, 5e-324, "eq2"),
        lambda: width_bound_prior(10, 0.1, 5e-324, "eq3"),
        lambda: width_bound_prior(10, 0.1, 5e-324, "eq6"),
        lambda: pswf_width_bound(1e308, 1e-3),  # 100c/pi overflows
    ],
)
def test_overflowing_count_bound_is_domain_error(bound):
    with pytest.raises(DomainError, match="overflows"):
        bound()


class TestEigEnvelope:
    def test_midpoint_refinement_at_ceil(self):
        env = eig_envelope(1000, 0.125, 250)
        assert env.upper == 0.5
        assert "midpoint" in env.flags

    def test_upper_tail_oracle(self):
        env = eig_envelope(1000, 0.125, 300)
        assert env.upper == pytest.approx(1.7443677534009043244e-12, rel=1e-12)

    def test_upper_tail_contains_dense(self):
        lam = dense_spectrum(ProlateParams(1000, 0.125)).lam
        assert lam[300] <= eig_envelope(1000, 0.125, 300).upper

    def test_lower_head_oracle(self):
        env = eig_envelope(1000, 0.125, 200)
        # exponent numerator floor(2NW) - k - 2 = 48; 50-digit evaluation
        assert 1.0 - env.lower == pytest.approx(3.1625327235614783155e-12, rel=1e-12)

    def test_lower_head_contains_dense(self):
        lam = dense_spectrum(ProlateParams(1000, 0.125)).lam
        assert lam[200] >= eig_envelope(1000, 0.125, 200).lower

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            eig_envelope(100, 0.1, 100)

    def test_uninformative_clamp(self):
        env = eig_envelope(1000, 0.125, 251)  # numerator k - ce - 1 = 0: raw 8 > 1
        assert env.upper == 1.0
        assert "uninformative" in env.flags


class TestPriorEigBounds:
    def test_eq4_oracle(self):
        value = eig_upper_prior(10**4, 0.1, 2100, "eq4")
        assert value == pytest.approx(1.1788179728418684685, rel=1e-12)

    def test_eq5_oracle(self):
        value = eig_upper_prior(100, 0.1, 50, "eq5")
        assert value == pytest.approx(3.2232386499258059854e-8, rel=1e-12)

    def test_eq4_below_validity_window(self):
        assert eig_upper_prior(100, 0.1, 5, "eq4") is None

    def test_eq5_below_validity_window(self):
        assert eig_upper_prior(100, 0.1, 20, "eq5") is None


class TestSumBounds:
    def test_head_oracle(self):
        value = sum_bounds_cor2(1000, 0.125, 200, "head")
        assert value == pytest.approx(5.3153505108615707318e-12, rel=1e-12)

    def test_head_contains_computed(self):
        from prolate import eigensum_head

        value = sum_bounds_cor2(1000, 0.125, 200, "head")
        assert eigensum_head(ProlateParams(1000, 0.125), 200) <= value

    def test_tail_contains_computed(self):
        from prolate import eigensum_tail

        value = sum_bounds_cor2(1000, 0.125, 300, "tail")
        assert value == pytest.approx(5.3153505108615707318e-12, rel=1e-12)
        assert eigensum_tail(ProlateParams(1000, 0.125), 300) <= value

    def test_tail_at_boundary_finite(self):
        value = sum_bounds_cor2(1000, 0.125, 250, "tail")
        assert math.isfinite(value)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sum_bounds_cor2(1000, 0.125, 0, "head")
        with pytest.raises(DomainError):
            sum_bounds_cor2(1000, 0.125, 251, "head")
        with pytest.raises(DomainError):
            sum_bounds_cor2(1000, 0.125, 249, "tail")


@pytest.mark.parametrize("n, w", [(1000, 0.125), (512, 0.35)])
def test_one_law_per_instance_gives_every_envelope_and_sum_bound(n, w):
    # `verify` evaluates an instance's law once and calls _envelope and
    # _sum_bound per order: the same values as the public functions, every order
    p = ProlateParams(n, w)
    law = bounds._discrete_law(p)
    for k in range(n):
        assert bounds._envelope(law, k, midpoint=True) == eig_envelope(n, w, k)
    for K in range(1, p.tbp_floor + 1):
        assert bounds._sum_bound(law, K, "head", n - 1) == sum_bounds_cor2(n, w, K, "head")
    for K in range(p.tbp_ceil, n):
        assert bounds._sum_bound(law, K, "tail", n - 1) == sum_bounds_cor2(n, w, K, "tail")


class TestSlepianApprox:
    def test_zero_exponent_gives_half(self):
        approx = slepian_approx(1000, 0.125, 2 * 1000 * 0.125 - 0.5)
        assert approx.value == pytest.approx(0.5, abs=1e-15)
        assert approx.advisory is False

    def test_plunge_value_near_lambda(self):
        lam250 = dense_spectrum(ProlateParams(1000, 0.125)).lam_at(250)
        approx = slepian_approx(1000, 0.125, 250)
        assert approx.value == pytest.approx(0.36926913994977147745, rel=1e-12)
        assert 0.2 < approx.value < 0.8
        assert abs(approx.value - lam250) < 0.1  # advisory comparison only

    def test_monotone_decay_in_k(self):
        values = [slepian_approx(1000, 0.125, k).value for k in range(250, 400, 10)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] < 1e-6
        assert slepian_approx(1000, 0.125, 10**4).value == 0.0  # saturates cleanly


class TestPSWFBounds:
    def test_same_expression_as_thm2(self):
        for n, w, eps in [(1000, 0.125, 1e-3), (512, 0.05, 1e-8), (4096, 0.25, 1e-2)]:
            c = math.pi * n * w
            assert pswf_width_bound(c, eps).value == width_bound_thm2(n, w, eps).value

    def test_oracle_value(self):
        value = pswf_width_bound(math.pi * 50.0, 1e-3)
        assert value.value == pytest.approx(21.71053614897887249, rel=1e-12)
        assert value.integer == 21

    def test_monotone_in_eps(self):
        c = math.pi * 50.0
        assert pswf_width_bound(c, 1e-4).value >= pswf_width_bound(c, 1e-3).value

    def test_envelope_clamp_flag_at_ceil(self):
        env = pswf_eig_envelope(2.0, math.ceil(2.0 * 2.0 / math.pi))
        assert env.upper == 1.0
        assert "uninformative" in env.flags

    def test_envelope_formula_identity_with_discrete(self):
        # same expression as the log(100NW+25) branch under c = pi*N*W
        c = math.pi * 125.0
        k = 300
        env = pswf_eig_envelope(c, k)
        t = 2.0 / math.pi**2 * math.log(100.0 * c / math.pi + 25.0)
        expected = 10.0 * math.exp(-(k - 250 - 6) / t)
        assert env.upper == pytest.approx(expected, rel=1e-14)

    def test_nonfinite_c_rejected(self):
        for c in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterError):
                pswf_width_bound(c, 1e-3)
            with pytest.raises(ParameterError):
                pswf_eig_envelope(c, 0)

    def test_sum_bounds_domains(self):
        c = math.pi * 50.0
        assert pswf_sum_bounds(c, 90, "head") > 0.0
        assert pswf_sum_bounds(c, 120, "tail") > 0.0
        with pytest.raises(DomainError):
            pswf_sum_bounds(c, 0, "head")
        with pytest.raises(DomainError):
            pswf_sum_bounds(c, 99, "tail")


class TestPSWFProxy:
    def test_delta_oracle(self):
        c = math.pi * 50.0
        assert proxy_delta(c, 4000) == pytest.approx(0.00032758591666232939041, rel=1e-12)
        assert proxy_delta(c, 4000) < 1e-3

    def test_delta_decreasing_in_n(self):
        c = math.pi * 50.0
        deltas = [proxy_delta(c, n) for n in (2000, 3000, 4000)]
        assert deltas[0] > deltas[1] > deltas[2]

    def test_dimension_domain_error(self):
        with pytest.raises(DomainError):
            pswf_proxy(math.pi * 50.0, 0, 10, 99)  # N <= 2c/pi = 100

    def test_two_proxies_triangle_inequality(self):
        c = math.pi * 50.0
        a = pswf_proxy(c, 80, 120, 2000)
        b = pswf_proxy(c, 80, 120, 4000)
        assert np.max(np.abs(a.lam - b.lam)) <= a.delta + b.delta

    def test_proxy_below_widened_upper_envelope(self):
        c = math.pi * 50.0
        proxy = pswf_proxy(c, 120, 120, 4000)
        env = pswf_eig_envelope(c, 120)
        assert proxy.lam[0] <= env.upper + proxy.delta


def test_evaluate_bound_set_no_spectrum():
    values = evaluate_bound_set(2, 0.25, 0.25)
    assert all(math.isfinite(v.value) for v in values.values() if hasattr(v, "value"))
    assert {"thm1", "thm2", "eq2_zhuwakin", "eq3_boulsane", "eq6_fst", "thm3_pswf"} <= set(values)


def test_evaluate_bound_set_with_k_and_K():
    values = evaluate_bound_set(1000, 0.125, 1e-3, k=300, K=300)
    assert values["cor1_upper"] == eig_envelope(1000, 0.125, 300).upper
    assert values["cor2_tail"] == sum_bounds_cor2(1000, 0.125, 300, "tail")
    assert values["cor4_tail"] == pswf_sum_bounds(math.pi * 125.0, 300, "tail")


def test_eq3_in_doubles_at_huge_n():
    # N^2 is formed in doubles, so past N ~ 1.3e154 its term is 0, not an OverflowError
    n = 10**155
    value = width_bound_prior(n, 0.1, 1e-3, "eq3").value
    expected = (math.log(2.0e154) / math.pi**2 + 0.45 - 2.0 / 3.0 * 0.01) / (1e-3 * (1 - 1e-3))
    assert value == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "c, n",
    [
        (3.0, 10**103),  # N^3 past the largest double
        (6e102, 4 * 10**102),  # c^3 past the largest double
        (3.0, 10**309),  # N itself past it
    ],
)
def test_proxy_delta_overflow_is_domain_error(c, n):
    with pytest.raises(DomainError, match="proxy_delta overflows in double precision"):
        proxy_delta(c, n)


def test_evaluate_bound_set_sum_index():
    # K >= 0 as before: past N only the continuous tail sum applies
    values = evaluate_bound_set(100, 0.1, 1e-3, K=10**308)
    assert values["cor4_tail"] == 0.0 and "cor2_tail" not in values
    with pytest.raises(ParameterError, match="K must be >= 0, got -1"):
        evaluate_bound_set(100, 0.1, 1e-3, K=-1)
    with pytest.raises(ParameterError, match="K must fit in a double"):
        evaluate_bound_set(100, 0.1, 1e-3, K=10**309)


def test_thm1_refuses_n_past_the_largest_double():
    # the N that ProlateParams refuses, refused here too
    with pytest.raises(ParameterError, match="n must fit in a double, got 1027 bits"):
        width_bound_thm1(10**309, 1e-3)


def test_pswf_envelope_refuses_k_past_the_largest_double():
    with pytest.raises(ParameterError, match="k must fit in a double, got 1027 bits"):
        pswf_eig_envelope(10.0, 10**309)
    # a k that a double holds lies far out in the tail, where the margin is 0
    assert pswf_eig_envelope(10.0, 10**300).upper == 0.0
