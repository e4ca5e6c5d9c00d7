import math
import sys

import mpmath
import numpy as np
import pytest

from prolate import (
    CapacityError,
    DomainError,
    ParameterError,
    ProlateParams,
    build_prolate_matrix,
    sinc_entry,
    sinc_identity_residual,
    sinc_identity_tail_bound,
    sinc_kernel,
)
from prolate.kernel import dense_cap, near_block_rows, sin_cos_2pi_product, snap_to_integer


def test_params_validation():
    with pytest.raises(ParameterError):
        ProlateParams(0, 0.1)
    with pytest.raises(ParameterError):
        ProlateParams(10, 0.0)
    with pytest.raises(ParameterError):
        ProlateParams(10, 0.5)
    with pytest.raises(ParameterError):
        ProlateParams(10, -0.1)


def test_sinc_entry_removable_singularity():
    assert sinc_entry(0.125, 0) == 0.25


def test_sinc_entry_sine_zero():
    # 2*W*d integral: the sine vanishes after argument reduction
    assert abs(sinc_entry(0.25, 2)) <= 1e-15


def test_sinc_entry_against_high_precision_oracle():
    # mpmath 50-digit oracle: sin(2*pi*0.1*3)/(3*pi), with 0.1 the double value
    expected = 0.10091023048542092713
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    oracle = float(mp.sin(2 * mp.pi * mp.mpf(0.1) * 3) / (mp.pi * 3))
    assert abs(oracle - expected) < 1e-18
    assert abs(sinc_entry(0.1, 3) - expected) <= 1e-14


def test_sinc_entry_even_bit_exact():
    d = np.arange(1, 50)
    assert np.array_equal(sinc_kernel(0.3, d), sinc_kernel(0.3, -d))


def test_sinc_kernel_is_the_sine_of_the_shared_reduction_over_pi_t():
    # the sine-only kernel keeps the bits of the sine that sin_cos_2pi_product gives;
    # past max/pi, where pi |t| overflows, it is mpmath's value to the subnormal spacing
    rng = np.random.default_rng(11)
    top = sys.float_info.max
    t = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 2.0**996, -(2.0**996), 2.0**1000, -(2.0**1020)],
        [top / math.pi, math.nextafter(top / math.pi, top), 1.5e308, -1.5e308, top, -top],
        rng.integers(-(1 << 40), 1 << 40, 200).astype(np.float64),
        rng.uniform(-1e6, 1e6, 200),
    ])
    zero = t == 0.0
    huge = np.abs(t) > top / math.pi
    fits = ~zero & ~huge
    ta = np.abs(t[fits])
    # w t is an integer at |t| ~ 1e308 unless w is tiny: these give subnormals there
    for w in [*rng.uniform(0.0, 0.5, 8), 3.3e-308, 7.1e-309]:
        got = sinc_kernel(w, t)
        assert np.all(got[zero] == 2.0 * w)
        want = sin_cos_2pi_product(w, ta)[0] / (math.pi * ta)
        assert np.array_equal(got[fits], want)
        assert np.array_equal(np.signbit(got[fits]), np.signbit(want))
        with mpmath.workdps(400):
            for x, g in zip(t[huge].tolist(), got[huge].tolist()):
                x = mpmath.mpf(x)
                exact = mpmath.sin(2 * mpmath.pi * mpmath.mpf(w) * x) / (mpmath.pi * x)
                assert abs(g - exact) <= 2.0**-1074, (w, x, g)


def test_sinc_bound_property():
    rng = np.random.default_rng(3)
    for w in (0.05, 0.125, 0.3, 0.49):
        d = np.unique(rng.integers(1, 1 << 20, 300))
        g = np.abs(sinc_kernel(w, d))
        cap = np.minimum(2.0 * w, 2.0 / (math.pi * d))
        assert np.all(g <= cap * (1.0 + 1e-12))


def test_sinc_kernel_rejects_bad_w():
    with pytest.raises(ParameterError):
        sinc_kernel(0.6, np.arange(3))


def test_prolate_matrix_order_one():
    b = build_prolate_matrix(ProlateParams(1, 0.1))
    assert b.shape == (1, 1)
    assert b[0, 0] == 0.2


def test_prolate_matrix_trace_identity():
    b = build_prolate_matrix(ProlateParams(1000, 0.125))
    assert abs(np.trace(b) - 250.0) <= 1e-9 * 250.0


def test_prolate_matrix_eigsum_small():
    b = build_prolate_matrix(ProlateParams(4, 0.25))
    assert abs(np.linalg.eigvalsh(b).sum() - 2.0) <= 1e-12


def test_prolate_matrix_structure():
    b = build_prolate_matrix(ProlateParams(64, 0.3))
    assert np.array_equal(b, b.T)
    assert np.all(np.diag(b) == 0.6)
    for off in range(1, 64):
        band = np.diagonal(b, off)
        assert np.ptp(band) == 0.0  # Toeplitz, bit-equal along each band


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257, 1000, 2048])
@pytest.mark.parametrize("w", [1e-300, 0.01, 0.21, 0.49])
def test_prolate_matrix_equals_scipy_toeplitz_bit_for_bit(n, w):
    # the numpy strided copy makes the matrix scipy.linalg.toeplitz makes
    from scipy.linalg import toeplitz

    b = build_prolate_matrix(ProlateParams(n, w))
    assert b.tobytes() == toeplitz(sinc_kernel(w, np.arange(n))).tobytes()
    assert b.shape == (n, n) and b.flags.c_contiguous and b.flags.writeable


def test_prolate_matrix_cap(monkeypatch):
    with pytest.raises(CapacityError):
        build_prolate_matrix(ProlateParams(5000, 0.1))
    monkeypatch.setenv("PROLATE_DENSE_CAP", "8192")
    assert dense_cap() == 8192
    build_prolate_matrix(ProlateParams(5000, 0.1))  # now under the cap


def test_sinc_identity_small_offsets():
    # m = n = 0: the identity holds exactly in the limit; tail is tiny already
    res = sinc_identity_residual(0.125, 0, 0, 10**4)
    assert res <= sinc_identity_tail_bound(0, 0, 10**4)


def test_sinc_identity_example():
    res = sinc_identity_residual(0.125, 0, 3, 10**5)
    cap = sinc_identity_tail_bound(0, 3, 10**5)
    assert res <= 1e-4
    assert res <= cap


def test_sinc_identity_monotone_tail():
    r_small = sinc_identity_residual(0.2, 2, 2, 10**3)
    r_big = sinc_identity_residual(0.2, 2, 2, 10**4)
    assert r_big <= r_small + 1e-14


def test_sinc_identity_validation():
    with pytest.raises(ParameterError):
        sinc_identity_residual(0.125, 0, 0, 0)
    with pytest.raises(ParameterError):
        sinc_identity_tail_bound(5, 7, 6)


def _lower_bound_sites():
    """Every count or index with a floor, each raising through the one helper."""
    from prolate import (
        ZolotarevSetPair,
        build_xl,
        cheb_interpolate,
        lowrank_block_approx,
        pswf_eig_envelope,
        sinc_derivative_bound,
        sv_decay_check,
        width_bound_thm1,
        zolotarev_bound,
    )
    from prolate.bounds import evaluate_bound_set
    from prolate.cli import figure2_instances, figure3_instances
    from prolate.displacement import partition_block_bound
    from prolate.verification import run_suite

    p = ProlateParams(64, 0.05)
    pair = ZolotarevSetPair.symmetric(1.0, 2.0)
    return [
        ("n must be >= 1, got 0", lambda: ProlateParams(0, 0.1)),
        ("n must be >= 1, got 0", lambda: width_bound_thm1(0, 1e-3)),
        ("L must be >= 1, got 0", lambda: sinc_identity_residual(0.1, 0, 0, 0)),
        ("L must be >= 1, got 0", lambda: build_xl(p, 0)),
        ("k must be >= 0, got -1", lambda: partition_block_bound(-1)),
        ("k must be >= 0, got -1", lambda: zolotarev_bound(pair, -1)),
        ("k must be >= 0, got -1", lambda: sinc_derivative_bound(0.1, -1, 0.0)),
        ("k must be >= 0, got -1", lambda: pswf_eig_envelope(10.0, -1)),
        ("k must be >= 1, got 0", lambda: cheb_interpolate(0.1, 0, -2.0, -1.0, 0)),
        ("k must be >= 1, got 0", lambda: lowrank_block_approx(p, 0)),
        ("k_max must be >= 0, got -1", lambda: sv_decay_check(p, 4, -1)),
        ("K must be >= 0, got -1", lambda: evaluate_bound_set(64, 0.05, 1e-3, K=-1)),
        ("n_min must be >= 1, got 0", lambda: figure2_instances(0, 16)),
        ("w_points must be >= 0, got -1", lambda: figure3_instances(64, 1e-3, 0.25, -1)),
        ("seed must be >= 0, got -1", lambda: run_suite("bounds", seed=-1)),
    ]


@pytest.mark.parametrize("message, call", _lower_bound_sites())
def test_lower_bounds_share_one_message(message, call):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


def test_params_reject_n_past_the_largest_double():
    ProlateParams(int(np.finfo(float).max), 0.4)
    with pytest.raises(ParameterError, match="n must fit in a double, got 1025 bits"):
        ProlateParams(2**1024, 0.1)


@pytest.mark.parametrize("n", [1, 7, 1000, 2**16, 3**33, 2**60 + 1, 10**200])
@pytest.mark.parametrize("w", [1e-300, 0.013, 0.125, 0.3, 0.5 - 2**-54])
def test_time_bandwidth_is_the_double_of_2nw(n, w):
    # formed as (2W)N, the same double as (2N)W wherever 2N is finite
    assert ProlateParams(n, w).time_bandwidth == snap_to_integer(2.0 * n * w)


def test_time_bandwidth_finite_up_to_the_largest_double():
    p = ProlateParams(int(np.finfo(float).max), 0.5 - 2**-54)
    assert math.isfinite(p.time_bandwidth) and p.tbp_floor > 0


@pytest.mark.parametrize("w", [0.25, 0.3, 0.49])
def test_near_block_rows_needs_w_below_quarter(w):
    with pytest.raises(DomainError, match=r"needs W < 1/4, got W = "):
        near_block_rows(w)

