import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from mmwcov.geometry import abs_angular_pdf_nth, angular_offset, joint_abs_angular_pdf
from mmwcov.numerics import QuadratureSpec, integrate_1d
from conftest import batch_fields, ecdf_2d, ks_distance, order_stat_per_field, sort_within_fields
from field_oracle import (abs_angular_cdf_nth, angular_ccdf_nth, angular_cdf_nth, angular_pdf_nth,
                          integrate_2d, joint_abs_angular_cdf, joint_distance_cdf,
                          joint_distance_pdf, sample_ppp, wrap_angle)

LAM, R = 8e-4, 75.0
N_FIELDS = 200_000
KS_TOL = 0.006          # ~2.7x the 1e-3-quantile noise floor at 2e5 samples


class TestSamplePpp:
    def test_mean_count(self):
        gen = np.random.default_rng(7)
        counts = np.array([sample_ppp(LAM, R, gen).n for _ in range(100_000)])
        assert abs(counts.mean() - LAM * math.pi * R**2) < 0.05

    def test_radius_area_law(self):
        gen = np.random.default_rng(8)
        pooled = np.concatenate([sample_ppp(LAM, R, gen).r for _ in range(20_000)])
        frac = (pooled <= R / 2.0).mean()
        assert abs(frac - 0.25) < 0.002

    def test_isotropy(self):
        gen = np.random.default_rng(9)
        pooled = np.concatenate([sample_ppp(LAM, R, gen).phi for _ in range(20_000)])
        resultant = abs(np.exp(1j * pooled).mean())
        assert resultant <= 3.0 / math.sqrt(pooled.size)

    def test_nonempty_conditioning(self):
        gen = np.random.default_rng(10)
        # mean count ~0.031: empty draws are common and must be rejected
        for _ in range(200):
            assert sample_ppp(1e-6, 100.0, gen).n >= 1

    def test_invalid_args(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_ppp(0.0, R, gen)
        with pytest.raises(ValueError):
            sample_ppp(LAM, -1.0, gen)


def test_sort_within_fields_is_the_lexsort_order():
    # more than 2**16 fields, so both digits of the field index matter, and
    # rounded values, so fields hold ties
    counts, _, _, phi = batch_fields(LAM, R, 70_000, seed=46)
    phi = np.round(phi, 2)
    field = np.repeat(np.arange(counts.size), counts)
    expected = phi[np.lexsort((phi, field))]
    assert np.array_equal(sort_within_fields(phi, counts), expected)


class TestAngularLaws:
    def test_origin_limits(self):
        assert angular_pdf_nth(1, 0.0, 1.0, 1.0) == pytest.approx(0.5)
        assert angular_pdf_nth(2, 0.0, 1.0, 1.0) == 0.0
        assert abs_angular_pdf_nth(1, 0.0, 1.0, 1.0) == pytest.approx(1.0)
        assert abs_angular_pdf_nth(3, 0.0, 1.0, 1.0) == 0.0

    def test_truncated_mass(self):
        # the nearest-in-angle law over [0, 2*pi] integrates to P(N >= 1)
        mass = integrate_1d(lambda p: angular_pdf_nth(1, p, 1.0, 1.0), 0.0, 2.0 * math.pi)
        assert mass == pytest.approx(1.0 - math.exp(-math.pi), rel=1e-9)

    def test_ccdf_closed_forms(self):
        assert angular_ccdf_nth(3, 0.0, R, LAM) == 1.0
        assert angular_ccdf_nth(1, 2.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pdf_ccdf_consistency(self, n):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        for phi in (0.3, 1.0, 2.0, 5.0):
            mass = integrate_1d(lambda p: angular_pdf_nth(n, p, R, LAM), 0.0, phi, spec)
            assert mass + angular_ccdf_nth(n, phi, R, LAM) == pytest.approx(1.0, abs=1e-10)

    def test_abs_law_change_of_variables(self):
        for x in (0.05, 0.2, 0.7):
            lhs = abs_angular_pdf_nth(1, x, R, LAM)
            rhs = 2.0 * angular_pdf_nth(1, 2.0 * x, R, LAM)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 4),
        phi=st.floats(0.0, 2.0 * math.pi),
        r=st.floats(0.5, 200.0),
        lam=st.floats(1e-5, 0.1),
    )
    def test_pdfs_nonnegative(self, n, phi, r, lam):
        assert angular_pdf_nth(n, phi, r, lam) >= 0.0
        assert abs_angular_pdf_nth(n, min(phi, math.pi), r, lam) >= 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ks_one_directional(self, n):
        counts, starts, _, phi = batch_fields(LAM, R, N_FIELDS, seed=42)
        samples = np.sort(order_stat_per_field(sort_within_fields(phi, counts), counts, starts, n))
        mass = special.gammainc(n, LAM * math.pi * R**2)
        cdf = angular_cdf_nth(n, samples, R, LAM) / mass
        assert ks_distance(samples, cdf) < KS_TOL

    @pytest.mark.parametrize("n", [1, 2])
    def test_ks_absolute(self, n):
        counts, starts, _, phi = batch_fields(LAM, R, N_FIELDS, seed=43)
        folded = sort_within_fields(np.minimum(phi, 2.0 * math.pi - phi), counts)
        samples = np.sort(order_stat_per_field(folded, counts, starts, n))
        mass = special.gammainc(n, LAM * math.pi * R**2)
        cdf = abs_angular_cdf_nth(n, samples, R, LAM) / mass
        assert ks_distance(samples, cdf) < KS_TOL


class TestJointAngularLaw:
    def test_value_at_origin(self):
        assert joint_abs_angular_pdf(0.0, 0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_support(self):
        assert joint_abs_angular_pdf(0.5, 0.2, R, LAM) == 0.0
        assert joint_abs_angular_pdf(0.2, 3.5, R, LAM) == 0.0

    def test_cdf_by_quadrature(self):
        # 2-D quadrature of the density reproduces the closed-form joint cdf
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
        for a, b in ((0.05, 0.012), (0.1, 0.31), (0.02, 0.06)):
            a0, b0 = min(a, b), max(a, b)
            val = integrate_2d(
                lambda p1, p2: joint_abs_angular_pdf(p1, p2, R, LAM),
                0.0, a0, lambda p1: p1, b0, spec)
            assert val == pytest.approx(joint_abs_angular_cdf(a0, b0, R, LAM), abs=1e-8)

    def test_marginal_vs_nearest_law(self):
        # integrating out the second angle leaves the nearest law up to the
        # boundary mass exp(-lam * r**2 * pi)
        boundary = math.exp(-LAM * R**2 * math.pi)
        for p1 in (0.01, 0.05, 0.2):
            marg = integrate_1d(lambda p2: joint_abs_angular_pdf(p1, p2, R, LAM), p1, math.pi)
            expected = abs_angular_pdf_nth(1, p1, R, LAM) - LAM * R**2 * boundary
            assert marg == pytest.approx(expected, rel=1e-9)

    def test_ks_2d(self):
        counts, starts, _, phi = batch_fields(LAM, R, N_FIELDS, seed=44)
        folded = sort_within_fields(np.minimum(phi, 2.0 * math.pi - phi), counts)
        p1 = order_stat_per_field(folded, counts, starts, 1, min_count=2)
        p2 = order_stat_per_field(folded, counts, starts, 2)
        grid = np.linspace(0.0, math.pi, 41)
        emp = ecdf_2d(p1, p2, grid, grid)
        mass = joint_abs_angular_cdf(math.pi, math.pi, R, LAM)
        ana = joint_abs_angular_cdf(np.minimum(grid[1:, None], grid[None, 1:]),
                                    grid[None, 1:], R, LAM) / mass
        assert np.max(np.abs(emp - ana)) < KS_TOL


class TestJointDistanceLaw:
    def test_support(self):
        assert joint_distance_pdf(10.0, 5.0, LAM, R) == 0.0
        assert joint_distance_pdf(5.0, 80.0, LAM, R) == 0.0

    def test_marginal_of_nearest(self):
        # integrating out r2 leaves the nearest-distance law minus the
        # boundary term at the disk edge
        for r1 in (5.0, 20.0, 50.0):
            marg = integrate_1d(lambda r2: joint_distance_pdf(r1, r2, LAM, R), r1, R)
            expected = 2.0 * math.pi * LAM * r1 * (
                math.exp(-LAM * math.pi * r1**2) - math.exp(-LAM * math.pi * R**2))
            assert marg == pytest.approx(expected, rel=1e-9)

    def test_ks_2d(self):
        counts, starts, r, _ = batch_fields(LAM, R, N_FIELDS, seed=45)
        r = sort_within_fields(r, counts)
        r1 = order_stat_per_field(r, counts, starts, 1, min_count=2)
        r2 = order_stat_per_field(r, counts, starts, 2)
        grid = np.linspace(0.0, R, 41)
        emp = ecdf_2d(r1, r2, grid, grid)
        mass = joint_distance_cdf(R, R, LAM)
        ana = joint_distance_cdf(np.minimum(grid[1:, None], grid[None, 1:]),
                                 grid[None, 1:], LAM) / mass
        assert np.max(np.abs(emp - ana)) < KS_TOL


class TestAngleHelpers:
    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(-20.0, 20.0), b=st.floats(-20.0, 20.0))
    def test_offset_range_and_symmetry(self, a, b):
        d = angular_offset(a, b)
        assert 0.0 <= d <= math.pi + 1e-12
        assert d == pytest.approx(angular_offset(b, a), abs=1e-12)

    def test_wrap(self):
        assert wrap_angle(2.0 * math.pi + 0.5) == pytest.approx(0.5)
        assert wrap_angle(-0.5) == pytest.approx(2.0 * math.pi - 0.5)
