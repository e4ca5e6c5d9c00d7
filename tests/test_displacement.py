import math

import numpy as np
import pytest

from prolate import (
    CapacityError,
    DomainError,
    ProlateParams,
    build_xl,
    gram_defect,
    loewner_min_eig,
    mobius_normalize,
    partition_check,
    sv_decay_check,
    zolotarev_bound,
)
from prolate.displacement import ZolotarevSetPair, partition_block_bound


class TestZolotarevPairs:
    def test_bound_at_k_zero_is_four(self):
        for pair in (
            ZolotarevSetPair.symmetric(1.0, 4.0),
            ZolotarevSetPair.intervals(0.0, 1.0, 2.0, 5.0),
            ZolotarevSetPair.unbounded(-1.0, 0.0, 9.0, 10.0),
        ):
            assert zolotarev_bound(pair, 0) == 4.0

    def test_symmetric_oracle(self):
        # 4*exp(-3*pi^2/log 16), 50-digit evaluation
        pair = ZolotarevSetPair.symmetric(1.0, 4.0)
        assert zolotarev_bound(pair, 3) == pytest.approx(9.2082316847572866937e-5, rel=1e-12)

    def test_unbounded_gamma_is_n_squared(self):
        for n in (2, 17, 256, 65536):
            pair = ZolotarevSetPair.unbounded(-1.0, 0.0, float(n - 1), float(n))
            assert pair.gamma == float(n) ** 2

    def test_alpha_below_four_gamma(self):
        for pair in (
            ZolotarevSetPair.symmetric(1.0, 100.0),
            ZolotarevSetPair.unbounded(-1.0, 0.0, 255.0, 256.0),
        ):
            assert 1.0 < pair.alpha <= 4.0 * pair.gamma

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            ZolotarevSetPair.intervals(0.0, 2.0, 1.0, 3.0)
        with pytest.raises(DomainError):
            ZolotarevSetPair.unbounded(0.0, -1.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            ZolotarevSetPair.symmetric(-1.0, 2.0)

    def test_cross_ratio_invariant_under_normalization(self):
        pair = ZolotarevSetPair.unbounded(-1.0, 0.0, 255.0, 256.0)
        normalized = ZolotarevSetPair.intervals(-pair.alpha, -1.0, 1.0, pair.alpha)
        assert normalized.gamma == pytest.approx(pair.gamma, rel=1e-14)
        for k in (1, 3, 10):
            raw = 4.0 * math.exp(-math.pi**2 * k / math.log(16.0 * pair.gamma))
            assert zolotarev_bound(normalized, k) == pytest.approx(raw, rel=1e-14)


class TestMobiusNormalize:
    def test_endpoints_map_to_normal_form(self):
        pair = ZolotarevSetPair.unbounded(-1.0, 0.0, 255.0, 256.0)
        phi, residual = mobius_normalize(pair)
        assert residual <= 1e-10
        assert phi(-1.0) == pytest.approx(-1.0, rel=1e-10)
        assert phi(256.0) == pytest.approx(-pair.alpha, rel=1e-10)
        assert phi(0.0) == pytest.approx(1.0, rel=1e-10)
        assert phi(255.0) == pytest.approx(pair.alpha, rel=1e-10)

    def test_interior_maps_strictly_inside(self):
        pair = ZolotarevSetPair.unbounded(-1.0, 0.0, 255.0, 256.0)
        phi, _ = mobius_normalize(pair)
        mid = phi(127.5)
        assert 1.0 < mid < pair.alpha

    def test_roundtrip_identity(self):
        pair = ZolotarevSetPair.unbounded(-1.0, 0.0, 255.0, 256.0)
        phi, _ = mobius_normalize(pair)
        inv = phi.inverse()
        pts = np.concatenate([np.geomspace(1e-3, 255.0, 50), -np.geomspace(1e-3, 1.0, 50)])
        back = np.asarray(inv(phi(pts)))
        assert np.max(np.abs(back - pts) / np.maximum(np.abs(pts), 1.0)) <= 1e-10

    def test_infinity_lands_in_target(self):
        pair = ZolotarevSetPair.unbounded(-1.0, 0.0, 255.0, 256.0)
        phi, _ = mobius_normalize(pair)
        image = phi.coeffs[0, 0] / phi.coeffs[1, 0]
        assert -pair.alpha <= image <= -1.0

    def test_intervals_kind_maps_to_targets(self):
        pair = ZolotarevSetPair.intervals(1.0, 2.0, 5.0, 9.0)
        phi, residual = mobius_normalize(pair)
        assert residual <= 1e-10


class TestBoundaryMatrix:
    def test_displacement_residual(self):
        system = build_xl(ProlateParams(256, 0.125), 512)
        assert system.residual() <= 1e-13 * max(1.0, 256 + 512 - 1)

    def test_spectral_norm_cap(self):
        system = build_xl(ProlateParams(256, 0.125), 2048)
        assert system.spectral_norm() <= 0.5 + 1e-12

    def test_row_index_set(self):
        system = build_xl(ProlateParams(8, 0.1), 3)
        assert list(system.row_indices) == [-3, -2, -1, 8, 9, 10]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_xl(ProlateParams(4096, 0.1), 1 << 14)

    def test_gram_defect_decreases(self):
        p = ProlateParams(128, 0.125)
        defects = [gram_defect(p, L) for L in (128, 256, 512, 1024)]
        assert all(a > b for a, b in zip(defects, defects[1:]))

    def test_loewner_domination(self):
        assert loewner_min_eig(ProlateParams(256, 0.125), 2048) >= -1e-10


class TestSvDecay:
    def test_bounds_hold(self):
        report = sv_decay_check(ProlateParams(256, 0.125), 2048, 10)
        assert report.passed
        assert report.spectral_norm <= 2.0  # k = 0 case is weak but true

    def test_bound_sequence_geometric(self):
        report = sv_decay_check(ProlateParams(256, 0.125), 2048, 10)
        bounds = [row[2] for row in report.rows]
        ratio = math.exp(-math.pi**2 / math.log(16.0 * 256**2))
        for a, b in zip(bounds, bounds[1:]):
            assert b / a == pytest.approx(ratio, rel=1e-12)

    def test_sigma_monotone(self):
        report = sv_decay_check(ProlateParams(256, 0.125), 2048, 10)
        sigmas = [row[1] for row in report.rows]
        assert all(a >= b - 1e-14 for a, b in zip(sigmas, sigmas[1:]))


@pytest.fixture(scope="module")
def report():
    p = ProlateParams(512, 1.0 / 64.0)
    return partition_check(p, 16 + 64, 10, 8)


class TestPartition:
    def test_applicable_and_l1(self, report):
        assert report.l1 == 16

    def test_mirror_blocks_share_singular_values(self, report):
        floor = 1e-13 * max(1.0, float(report.sv_left[0]))
        gap = np.abs(report.sv_left - report.sv_right)
        assert np.all(gap <= 1e-10 * np.maximum(report.sv_left, report.sv_right) + floor)

    def test_outer_block_bounds(self, report):
        assert report.outer_ok

    def test_near_block_bound_oracle(self, report):
        # sqrt(5600/pi) * (pi/48)^5, 50-digit evaluation
        assert partition_block_bound(5) == pytest.approx(5.0706338784059524244e-5, rel=1e-12)
        assert report.sv_left[5] <= partition_block_bound(5)

    def test_weyl_combination(self, report):
        assert report.weyl_ok
        # leading-index case spelled out
        lhs = report.sv_full[0] ** 2
        rhs = report.sv_outer[0] ** 2 + report.sv_left[0] ** 2 + report.sv_right[0] ** 2
        assert lhs <= rhs + 1e-12

    def test_passed(self, report):
        assert report.passed

    def test_wide_band_raises(self):
        for w in (0.25, 0.3):
            with pytest.raises(DomainError):
                partition_check(ProlateParams(64, w), 8, 2, 2)

    def test_l_too_small(self):
        from prolate import ParameterError

        with pytest.raises(ParameterError):
            partition_check(ProlateParams(512, 1.0 / 64.0), 16, 2, 2)
