import json
import math
import warnings
from itertools import product

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from mmwcov import analytic, dominant
from mmwcov.dominant import (
    _rejected_variant_coverage_dom_p3,
    _rejected_variant_gain_ratio_pdf_p2,
    build_discrepancy_report,
    coverage_dom_p2,
    coverage_dom_p3,
    distance_ratio_ccdf_p3,
    gain_fade_ratio_pdf_p3,
    gain_ratio_ccdf_p2,
    gain_ratio_pdf_p2,
    lemma_bracket_constant,
    mainlobe_pair_probability,
    pathloss_fade_ratio_ccdf_p2,
)
from mmwcov.montecarlo import SimPlan, sample_statistic
from mmwcov.numerics import QuadratureError, QuadratureSpec, integrate_1d
from mmwcov.radio import _LN10, AntennaConfig, ChannelParams, NetworkParams, _curvature, gain_approx
from conftest import ks_distance, mp_log_quad
from field_oracle import (corrected_gain_ratio_pdf_g2space, distance_ratio_pdf_p3,
                          fade_ratio_ccdf, gain_fade_ratio_ccdf_p3, pathloss_fade_ratio_pdf_p2,
                          uniform_mainlobe_gain_cdf, uniform_mainlobe_gain_pdf)


def _stat(params, statistic, n=200_000, seed=99):
    plan = SimPlan(params=params, policy="P3", thresholds_db=(0.0,),
                   n_trials=n, master_seed=seed)
    return sample_statistic(plan, statistic, n_workers=4)


# Per-point adaptive reference for the fixed-node P2 ratio laws.
ORACLE_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)


def _oracle_gain_ratio(g_arr, params, power):
    """int_0^u_hi u**power exp(-lam_r2 phi2) / phi2 du per point (u-space),
    zero where phi_t >= phi_a."""
    cfg = params.antenna
    lam_r2 = params.density * params.r_los**2
    kappa = _curvature(cfg)
    out = np.zeros_like(g_arr)
    for i, gv in enumerate(g_arr):
        phi_t = math.sqrt(math.log10(gv) / kappa)
        if phi_t >= cfg.phi_a:
            continue
        u_hi = math.sqrt(cfg.phi_a**2 - phi_t**2)

        def integrand(u):
            phi2 = np.sqrt(phi_t**2 + u**2)
            return np.exp(-lam_r2 * phi2) * u**power / phi2

        out[i] = integrate_1d(integrand, 0.0, u_hi, ORACLE_SPEC)
    return out


def oracle_gain_ratio_pdf_p2(g, params):
    cfg = params.antenna
    lam_r2 = params.density * params.r_los**2
    norm = 2.0 * _curvature(cfg) * _LN10 * mainlobe_pair_probability(params)
    g_arr = np.asarray(g, dtype=float)
    inside = (g_arr > 1.0) & (g_arr <= cfg.g_max / cfg.g_s)
    out = np.zeros_like(g_arr)
    out[inside] = (lam_r2**2 / (norm * g_arr[inside])
                   * _oracle_gain_ratio(g_arr[inside], params, 0))
    return out


def oracle_gain_ratio_ccdf_p2(g, params):
    lam_r2 = params.density * params.r_los**2
    g_arr = np.asarray(g, dtype=float)
    out = np.ones_like(g_arr)
    above = g_arr > 1.0
    out[above] = (lam_r2**2 / mainlobe_pair_probability(params)
                  * _oracle_gain_ratio(g_arr[above], params, 2))
    return out


def oracle_fade_ratio_ccdf(t, m_s, m_x):
    """P(h1/h2 > t) from scipy's regularized incomplete beta, 1 - I_x(m_s, m_x)."""
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    with np.errstate(divide="ignore"):
        x = 1.0 / (1.0 + m_x / (m_s * t))      # 0 at t = 0, 1 at t = inf
    return special.betaincc(m_s, m_x, x)


def oracle_pathloss_fade_ratio_ccdf_p2(t, params):
    """The radius-ratio density (v on [0, 1], v^-3 above) against the
    fade-ratio ccdf, integrated over [0, inf) point by point."""
    ch = params.channel
    t_arr = np.asarray(t, dtype=float)
    out = np.ones_like(t_arr)
    for i, tv in enumerate(t_arr):
        if tv <= 0.0:
            continue

        def integrand(v):
            disk = np.where(v <= 1.0, v, v**-3.0)
            return disk * oracle_fade_ratio_ccdf(tv * v**ch.alpha_l, ch.m_s, ch.m_x)

        out[i] = integrate_1d(integrand, 0.0, math.inf, ORACLE_SPEC)
    return out


def _assert_oracle_close(value, oracle):
    err = np.abs(value - oracle)
    bound = np.maximum(1e-12, 1e-8 * np.abs(oracle))
    assert np.all(err <= bound), np.max(err / bound)


FADE_SHAPES = ((1, 1), (2, 2), (4, 3), (8, 8), (1, 8), (8, 1), (600, 600))


class TestFadeRatioCcdf:
    @pytest.mark.parametrize("m_s,m_x", FADE_SHAPES)
    def test_against_incomplete_beta(self, m_s, m_x):
        t = np.concatenate([[0.0], np.geomspace(1e-12, 1e300, 625), [math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fade_ratio_ccdf(t, m_s, m_x)
        oracle = oracle_fade_ratio_ccdf(t, m_s, m_x)
        assert not np.isnan(value).any()
        err = np.abs(value - oracle)
        bound = np.maximum(1e-14, 1e-10 * np.abs(value))
        assert np.all(err <= bound), np.max(err / bound)
        assert value[0] == 1.0 and value[-1] == 0.0

    @pytest.mark.parametrize("m_s,m_x", FADE_SHAPES)
    def test_tail_keeps_relative_accuracy(self, m_s, m_x):
        # I_y(m_x, m_s), y = m_x / (m_s t + m_x), is the same ccdf with the
        # tail at small y, where 1 - I_x(m_s, m_x) cancels
        t = np.geomspace(1e-12, 1e300, 625)
        oracle = special.betainc(m_x, m_s, m_x / (m_s * t + m_x))
        tail = oracle > 1e-280
        value = fade_ratio_ccdf(t[tail], m_s, m_x)
        np.testing.assert_allclose(value, oracle[tail], rtol=1e-10, atol=0.0)

    def test_below_zero_and_nan(self):
        value = fade_ratio_ccdf(np.array([-math.inf, -1.0, -0.0, math.nan]), 3, 5)
        assert np.array_equal(value[:3], [1.0, 1.0, 1.0]) and math.isnan(value[3])


class TestFadeRatioPdf:
    @pytest.mark.parametrize("m_s,m_x", FADE_SHAPES + ((80, 80), (90, 90)))
    def test_against_beta_prime(self, m_s, m_x):
        # T = h1/h2 is a beta-prime(m_s, m_x) variable scaled by m_x/m_s
        t = np.concatenate([[-1.0, 0.0], np.geomspace(1e-12, 1e300, 625), [math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = dominant._fade_ratio_pdf(t, m_s, m_x)
        assert np.all(np.isfinite(value))
        assert np.array_equal(value[[0, 1, -1]], [0.0, 0.0, 0.0])
        oracle = stats.betaprime(m_s, m_x, scale=m_x / m_s).pdf(t[2:-1])
        kept = oracle > 1e-280
        np.testing.assert_allclose(value[2:-1][kept], oracle[kept], rtol=1e-12, atol=0.0)

    def test_p3_dominant_curve_at_large_shapes(self):
        params = NetworkParams(channel=ChannelParams(m_s=90, m_x=90))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = coverage_dom_p3(10.0 ** (np.array([-5.0, 0.0, 5.0, 10.0]) / 10.0), params)
        assert np.all((cov >= 0.0) & (cov <= 1.0))
        assert np.all(np.diff(cov) <= 0.0)


class TestFixedNodeLawsP2:
    @pytest.mark.parametrize("density", (5e-5, 8e-4, 5e-3))
    @pytest.mark.parametrize("sectors_exp", (0, 2, 5, 8))
    @pytest.mark.parametrize("m_s,m_x,alpha", ((1, 1, 2.0), (2, 2, 2.0), (4, 3, 2.5)))
    def test_against_adaptive_oracle(self, density, sectors_exp, m_s, m_x, alpha):
        params = NetworkParams(density=density,
                               antenna=AntennaConfig(sectors_exp=sectors_exp),
                               channel=ChannelParams(m_s=m_s, m_x=m_x, alpha_l=alpha))
        cfg = params.antenna
        g_top = cfg.g_max / cfg.g_s
        # g where phi_t reaches phi_a (below g_top only when phi_a is capped at pi)
        g_edge = 10.0 ** (_curvature(cfg) * cfg.phi_a**2)
        g = np.concatenate([1.0 + np.logspace(-12, -1, 12),
                            np.geomspace(1.2, min(g_edge, g_top), 12)[:-1],
                            [g_edge * (1.0 - 1e-9), g_edge * (1.0 - 1e-4), g_top]])
        _assert_oracle_close(gain_ratio_pdf_p2(g, params), oracle_gain_ratio_pdf_p2(g, params))
        _assert_oracle_close(gain_ratio_ccdf_p2(g, params),
                             oracle_gain_ratio_ccdf_p2(g, params))
        t = np.logspace(-4.0, 4.0, 33)
        _assert_oracle_close(pathloss_fade_ratio_ccdf_p2(t, params),
                             oracle_pathloss_fade_ratio_ccdf_p2(t, params))

    def test_blocks_do_not_change_values(self, params):
        # more points than one block, in random order
        g = np.random.default_rng(7).uniform(1.0, 20.0, 700)
        whole = gain_ratio_ccdf_p2(g, params)
        np.testing.assert_allclose(whole[:300], gain_ratio_ccdf_p2(g[:300], params), rtol=1e-14)
        _assert_oracle_close(whole[::50], oracle_gain_ratio_ccdf_p2(g[::50], params))

    @pytest.mark.parametrize("law,point", ((gain_ratio_pdf_p2, 1.5),
                                           (gain_ratio_ccdf_p2, 1.5),
                                           (pathloss_fade_ratio_ccdf_p2, 0.3),
                                           (pathloss_fade_ratio_pdf_p2, 0.3)))
    def test_scalar_and_empty(self, params, law, point):
        value = law(point, params)
        assert isinstance(value, float)
        assert value == law(np.array([point]), params)[0]
        empty = law(np.array([]), params)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_outside_support(self, params):
        cfg = params.antenna
        g = np.array([-1.0, 0.5, 1.0, cfg.g_max / cfg.g_s * 1.01])
        assert np.array_equal(gain_ratio_pdf_p2(g, params), np.zeros(4))
        assert np.array_equal(gain_ratio_ccdf_p2(g, params), [1.0, 1.0, 1.0, 0.0])
        assert np.array_equal(pathloss_fade_ratio_ccdf_p2(np.array([-2.0, 0.0]), params),
                              [1.0, 1.0])
        for law in (gain_ratio_pdf_p2, gain_ratio_ccdf_p2, pathloss_fade_ratio_ccdf_p2):
            assert math.isnan(law(math.nan, params))


class TestMainlobePairProbability:
    def test_closed_form_value(self, params):
        a = params.density * params.r_los**2 * params.antenna.phi_a
        expected = 1.0 - math.exp(-a) - a * math.exp(-a)
        assert mainlobe_pair_probability(params) == pytest.approx(expected, rel=1e-12)

    def test_matches_acceptance_rate(self, params):
        _, acc = _stat(params, "G_ratio_p2")
        # sampled acceptance also includes the (tiny) at-least-two-points event
        p2 = 1.0 - math.exp(-params.mean_count) - params.mean_count * math.exp(-params.mean_count)
        assert acc == pytest.approx(mainlobe_pair_probability(params) * p2, abs=0.002)


class TestGainRatioLawP2:
    def test_support(self, params):
        cfg = params.antenna
        assert gain_ratio_pdf_p2(0.5, params) == 0.0
        assert gain_ratio_pdf_p2(cfg.g_max / cfg.g_s * 1.01, params) == 0.0
        assert gain_ratio_pdf_p2(cfg.g_max / cfg.g_s * 0.999, params) < 1e-5

    def test_unit_mass(self, params):
        cfg = params.antenna
        mass = integrate_1d(lambda g: gain_ratio_pdf_p2(g, params),
                            1.0, cfg.g_max / cfg.g_s,
                            QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_subdivisions=20_000))
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_ccdf_boundary_values(self, params):
        cfg = params.antenna
        assert gain_ratio_ccdf_p2(1.0, params) == pytest.approx(1.0, abs=1e-9)
        assert gain_ratio_ccdf_p2(cfg.g_max / cfg.g_s, params) == pytest.approx(0.0, abs=1e-12)

    def test_angle_and_gain_space_routes_agree(self, params):
        # gain-space route clips a ~1e-6 sliver at its endpoint divergence
        for g in (1.5, 4.0, 30.0, 300.0):
            assert gain_ratio_pdf_p2(g, params) == pytest.approx(
                corrected_gain_ratio_pdf_g2space(g, params), rel=1e-5)

    def test_gain_space_oracle_pinned(self, params):
        # the oracle's gain-space density is a copy of the one the package
        # used to share with it; these are the values of the shared one
        pinned = ("0x1.2d4f0444ca9d5p-2", "0x1.0f4ecc83a4f68p-7",
                  "0x1.b1eb01c33495bp-15", "0x1.a0329b4781869p-22")
        for g, value in zip((1.5, 4.0, 30.0, 300.0), pinned):
            assert corrected_gain_ratio_pdf_g2space(g, params) == float.fromhex(value)

    def test_ks_against_simulation(self, params):
        samples, _ = _stat(params, "G_ratio_p2")
        samples = np.sort(samples)
        cdf = 1.0 - gain_ratio_ccdf_p2(samples, params)
        assert ks_distance(samples, cdf) < 0.006

    def test_rejected_variant_fails_normalization(self, params):
        cfg = params.antenna
        mass = integrate_1d(
            np.vectorize(lambda g: _rejected_variant_gain_ratio_pdf_p2(float(g), params)),
            1.0, cfg.g_max / cfg.g_s,
            QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, max_subdivisions=20_000))
        assert abs(mass - 1.0) > 0.5

    def test_rejected_variant_takes_arrays(self, params):
        cfg = params.antenna
        g = np.concatenate([[1.0 + 1e-9, 1.01], np.geomspace(1.1, cfg.g_max / cfg.g_s, 10)])
        alone = [_rejected_variant_gain_ratio_pdf_p2(x, params) for x in g.tolist()]
        assert all(isinstance(x, float) for x in alone)
        np.testing.assert_allclose(_rejected_variant_gain_ratio_pdf_p2(g, params), alone,
                                   rtol=1e-12, atol=0.0)
        empty = _rejected_variant_gain_ratio_pdf_p2(np.array([]), params)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def _mp_log_fade(u, m_s, m_x):
    """log P(h1/h2 > t) at the odds e**u = m_s t / m_x, as the regularized
    incomplete beta I_y(m_x, m_s), y = 1 / (1 + e**u)."""
    return mpmath.log(mpmath.betainc(m_x, m_s, 0, 1 / (1 + mpmath.exp(u)), regularized=True))


def _mp_fade_integral(m_s, m_x, x, rate, slope):
    """int_0^inf e**(-rate v) F(x + slope v) dv by mpmath (at the caller's
    precision), F the fade-ratio ccdf at the odds e**u
    (:func:`conftest.mp_log_quad`): cut where the argument crosses -8, 0 and
    8, between which log F bends, and ended where the integrand has fallen
    by e**-80."""
    x = mpmath.mpf(x)
    end = max(-x / slope, 0) + 80 / rate
    cuts = sorted({mpmath.mpf(0), end} | {(c - x) / slope for c in (-8, 0, 8)
                                          if 0 < (c - x) / slope < end})

    def straight(p, q):
        ends = (x + slope * p, x + slope * q)
        return min(map(abs, ends)) >= 8 and ends[0] * ends[1] > 0

    return mp_log_quad(lambda v: -rate * v + _mp_log_fade(x + slope * v, m_s, m_x), cuts,
                       straight)


class TestFadeTable:
    """The rows e**(a u) F(u) and e**(-a u) F(u) of dominant._fade_table on
    the half-lines that the P2 law looks up, e**(-a x) int_-inf^x and
    e**(a x) int_x^inf, against mpmath: inside, across and beyond the
    tabulated [-40, 40] (analytic._U_HALF)."""

    POSITIONS = (-100.0, -45.0, -40.3, -39.99, -12.0, -2.5, -0.4, 0.3, 1.7, 9.0, 39.9, 40.5,
                 47.0, 100.0)
    ALPHAS = (0.25, 0.5, 2.0, 4.0)
    SHAPES = ((1, 1), (2, 2), (4, 3), (8, 8), (1, 8), (8, 1))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_half_lines_match_mpmath(self, alpha):
        # the positions are dealt out over the 24 (alpha, shapes) pairs, each
        # nudged off the table's panel edges
        a, checked = 2.0 / alpha, 0
        for i, (m_s, m_x) in enumerate(self.SHAPES):
            pair = self.ALPHAS.index(alpha) * len(self.SHAPES) + i
            x = np.array([pos + 0.0123 * (j % 7)
                          for j, pos in enumerate(self.POSITIONS[pair % 4::4])])
            table = dominant._fade_table(alpha, m_s, m_x)
            got = (table.half_lines(x, 0, False, -a * x), table.half_lines(x, 1, True, a * x))
            with mpmath.workdps(20):
                for j, (k, slope) in product(range(x.size), ((0, -1), (1, 1))):
                    ref = _mp_fade_integral(m_s, m_x, x[j], 2 / mpmath.mpf(alpha), slope)
                    if mpmath.mpf("1e-290") < ref < mpmath.mpf("1e290"):   # a normal double
                        checked += 1
                        assert abs(got[k][j] / ref - 1) <= 1e-12, (m_s, m_x, k, x[j])
        assert checked >= 30

    @pytest.mark.filterwarnings("ignore:alpha_l=")
    def test_alpha_below_the_table_is_refused(self):
        params = NetworkParams(channel=ChannelParams(alpha_l=0.2))
        with pytest.raises(ValueError, match="at least 0.25 for the analytic region"):
            pathloss_fade_ratio_ccdf_p2(1.0, params)


class TestPathlossFadeRatioLawP2:
    @pytest.mark.filterwarnings("ignore:alpha_l=")
    @pytest.mark.parametrize("alpha,m_s,m_x", ((2.0, 2, 2), (2.5, 3, 1), (0.5, 1, 4),
                                               (4.0, 8, 8)))
    def test_against_mpmath(self, alpha, m_s, m_x):
        # the fold int_0^1 x [F(t x^alpha) + F(t x^-alpha)] dx, with x = e^-y
        # and F at the odds m_s t x^(+-alpha) / m_x
        params = NetworkParams(channel=ChannelParams(alpha_l=alpha, m_s=m_s, m_x=m_x))
        t = np.geomspace(1e-12, 1e12, 13)
        value = pathloss_fade_ratio_ccdf_p2(t, params)
        with mpmath.workdps(20):
            for j, tv in enumerate(t):
                u = mpmath.log(mpmath.mpf(tv) * m_s / m_x)
                ref = sum(_mp_fade_integral(m_s, m_x, u, 2, slope) for slope in (-alpha, alpha))
                assert abs(value[j] - ref) <= max(1e-14, 1e-10 * abs(ref)), tv

    def test_closed_form_at_the_defaults(self, params):
        # at m_s = m_x = 2 and alpha 2, P(W > t) = 1 / (1 + t)
        t = np.geomspace(1e-12, 1e12, 241)
        np.testing.assert_allclose(pathloss_fade_ratio_ccdf_p2(t, params), 1.0 / (1.0 + t),
                                   rtol=0.0, atol=1e-14)

    @pytest.mark.filterwarnings("ignore:alpha_l=")
    @pytest.mark.parametrize("alpha", (0.25, 2.0, 4.0))
    def test_edges_and_the_whole_float_range(self, alpha):
        params = NetworkParams(channel=ChannelParams(alpha_l=alpha))
        edges = pathloss_fade_ratio_ccdf_p2(np.array([-math.inf, -1.0, 0.0, math.inf, math.nan]),
                                            params)
        assert np.array_equal(edges[:4], [1.0, 1.0, 1.0, 0.0]) and math.isnan(edges[4])
        t = np.geomspace(1e-300, 1e300, 1201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pathloss_fade_ratio_ccdf_p2(t, params)
        assert np.all(np.isfinite(value)) and np.all((value >= 0.0) & (value <= 1.0))
        assert np.all(np.diff(value) <= 0.0)

    def test_pdf_oracle_closed_form_at_the_defaults(self, params):
        # the test-side density is 1 / (1 + t)^2 at the defaults, down to
        # small t, where its mass near the components' scale is easy to miss
        t = np.geomspace(1e-6, 1e4, 41)
        np.testing.assert_allclose(pathloss_fade_ratio_pdf_p2(t, params), (1.0 + t) ** -2.0,
                                   rtol=0.0, atol=1e-10)

    def test_unit_mass(self, params):
        mass = integrate_1d(
            np.vectorize(lambda w: pathloss_fade_ratio_pdf_p2(float(w), params)),
            0.0, math.inf, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_subdivisions=20_000))
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_component_against_direct_convolution(self, params):
        # marginal of fade * distance**-alpha, cross-checked at five points
        ch = params.channel
        r_l, alpha, m = params.r_los, ch.alpha_l, ch.m_s

        def direct(w):
            def integrand(y):
                f_y = np.where(y >= r_l ** (-alpha),
                               2.0 * y ** (-(alpha + 2.0) / alpha) / (alpha * r_l**2), 0.0)
                h = w / y
                f_h = m**m * h ** (m - 1) * np.exp(-m * h) / math.gamma(m)
                return f_y * f_h / y

            return integrate_1d(integrand, r_l ** (-alpha), math.inf)

        from scipy import special as _special
        for w in (1e-4, 1e-3, 5e-3, 0.05, 0.5):
            a = 2.0 / alpha + m
            component = (2.0 * m ** (-2.0 / alpha) * w ** (-2.0 / alpha - 1.0)
                         * _special.gammainc(a, m * w * r_l**alpha) * math.gamma(a)
                         / (alpha * r_l**2 * math.gamma(m)))
            assert component == pytest.approx(direct(w), rel=1e-7)

    def test_ccdf_consistent_with_pdf(self, params):
        for t in (5e-4, 5e-3, 0.05):
            tail = integrate_1d(
                np.vectorize(lambda w: pathloss_fade_ratio_pdf_p2(float(w), params)),
                t, math.inf, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10, max_subdivisions=20_000))
            assert pathloss_fade_ratio_ccdf_p2(t, params) == pytest.approx(tail, rel=1e-4)

    def test_points_integrate_as_if_alone(self, params):
        w = np.array([-1.0, 0.0, 1e-3, 0.05, 2.0])
        alone = [pathloss_fade_ratio_pdf_p2(x, params) for x in w.tolist()]
        assert np.array_equal(pathloss_fade_ratio_pdf_p2(w, params), alone)

    def test_median_is_one_for_equal_shapes(self, params):
        # W is a ratio of i.i.d. variables when m_s == m_x
        assert pathloss_fade_ratio_ccdf_p2(1.0, params) == pytest.approx(0.5, abs=1e-9)

    def test_ks_against_model_draws(self, params):
        samples, _ = _stat(params, "W_ratio_p2")
        samples = np.sort(samples)
        grid_cdf = 1.0 - pathloss_fade_ratio_ccdf_p2(
            samples[:: max(1, samples.size // 512)], params)
        sub = samples[:: max(1, samples.size // 512)]
        emp = np.searchsorted(samples, sub, side="right") / samples.size
        assert np.max(np.abs(emp - (1.0 - pathloss_fade_ratio_ccdf_p2(sub, params)))) < 0.006


class TestCoverageDomP2:
    def test_certain_at_zero(self, params):
        assert coverage_dom_p2(0.0, params) == 1.0

    def test_pinned_values(self, params):
        # default parameters (sectors_exp 2), captured from the per-point
        # adaptive ratio laws
        pinned = (0.9227428751970245, 0.870750827012388, 0.7919715637189905,
                  0.6832412996311596, 0.5507828646155574, 0.4115379956192073,
                  0.28573870724803085, 0.1864977684962542, 0.1161822743839992,
                  0.07006925631530572, 0.04136179540837553)
        for g_db, value in zip(np.arange(-10.0, 15.1, 2.5), pinned):
            assert coverage_dom_p2(10.0 ** (g_db / 10.0), params) == pytest.approx(
                value, rel=0.0, abs=1e-8)

    def test_law_sees_each_abscissa_once_per_round(self, params, monkeypatch):
        # the gain-ratio law does not depend on the threshold, so the lockstep
        # integrals of a curve share its values
        calls = []

        def counting(g, p):
            calls.append(np.array(g))
            return gain_ratio_pdf_p2(g, p)

        monkeypatch.setattr(dominant, "gain_ratio_pdf_p2", counting)
        gammas = np.array([10.0 ** (g_db / 10.0) for g_db in np.arange(-10.0, 15.1, 2.5)])
        values = coverage_dom_p2(gammas, params)
        assert all(np.unique(g).size == g.size for g in calls)
        monkeypatch.undo()
        np.testing.assert_array_equal(values, coverage_dom_p2(gammas, params))

    def test_monotone(self, params):
        vals = [coverage_dom_p2(10.0 ** (g / 10.0), params) for g in (-5.0, 0.0, 5.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_matches_simulation(self, params):
        samples, _ = _stat(params, "SIR_dom_p2")
        for g_db in (-5.0, 0.0, 5.0):
            gamma = 10.0 ** (g_db / 10.0)
            mc = (samples > gamma).mean()
            se = math.sqrt(mc * (1.0 - mc) / samples.size)
            assert coverage_dom_p2(gamma, params) == pytest.approx(mc, abs=0.015 + 3.0 * se)


class TestUniformMainlobeGainLaw:
    def test_unit_mass(self, params):
        cfg = params.antenna
        mass = integrate_1d(lambda g: uniform_mainlobe_gain_pdf(g, params),
                            cfg.g_s, cfg.g_max * (1.0 - 1e-14),
                            QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13, max_subdivisions=20_000))
        # closed-form remainder of the clipped sliver at the divergence
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_cdf_quadrature_consistency(self, params):
        cfg = params.antenna
        for g in (0.5 * (cfg.g_s + cfg.g_max), 0.9 * cfg.g_max):
            mass = integrate_1d(lambda x: uniform_mainlobe_gain_pdf(x, params), cfg.g_s, g)
            assert uniform_mainlobe_gain_cdf(g, params) == pytest.approx(mass, abs=1e-8)

    def test_ks_against_uniform_offset_draws(self, params, rng):
        cfg = params.antenna
        phi = rng.uniform(0.0, cfg.phi_a, 200_000)
        g = np.sort(gain_approx(phi, cfg))
        assert ks_distance(g, uniform_mainlobe_gain_cdf(g, params)) < 0.006


class TestGainFadeRatioLawP3:
    def test_unit_mass(self, params):
        mass = integrate_1d(lambda g: gain_fade_ratio_pdf_p3(g, params), 0.0, math.inf,
                            QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_ccdf_pdf_consistency(self, params):
        for g in (0.5, 2.0, 20.0):
            tail = integrate_1d(lambda x: gain_fade_ratio_pdf_p3(x, params), g, math.inf,
                                QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13))
            assert gain_fade_ratio_ccdf_p3(g, params) == pytest.approx(tail, rel=1e-6)

    def test_ks_against_simulation(self, params):
        samples, _ = _stat(params, "G_p3")
        samples = np.sort(samples)
        cdf = 1.0 - gain_fade_ratio_ccdf_p3(samples, params)
        assert ks_distance(samples, cdf) < 0.006


class TestDistanceRatioLawP3:
    def test_support(self, params):
        assert distance_ratio_pdf_p3(0.99, params) == 0.0
        assert distance_ratio_pdf_p3(1.0, params) == pytest.approx(1.0)  # 2/alpha at w=1

    def test_unit_mass_corrected(self, params):
        mass = integrate_1d(lambda w: distance_ratio_pdf_p3(w, params), 1.0, math.inf)
        assert mass == pytest.approx(1.0, rel=1e-8)

    def test_rejected_constant_reported(self, params):
        # the rejected density is the corrected one with the constant
        # bracket / alpha in place of 2 / alpha
        bracket = lemma_bracket_constant(params)
        assert abs(bracket / 2.0 - 1.0) > 1.0   # wildly off unit mass
        mass = integrate_1d(lambda w: bracket / 2.0 * distance_ratio_pdf_p3(w, params),
                            1.0, math.inf)
        assert mass == pytest.approx(bracket / 2.0, rel=1e-8)

    def test_ks_against_simulation(self, params):
        samples, _ = _stat(params, "W_p3")
        samples = np.sort(samples)
        cdf = 1.0 - distance_ratio_ccdf_p3(samples, params)
        assert ks_distance(samples, cdf) < 0.006

    def test_log_log_slope(self, params):
        # density ~ w**-2 for the square-law pathloss exponent
        samples, _ = _stat(params, "W_p3", n=400_000)
        edges = np.logspace(0.0, np.log10(50.0), 40)
        hist, _ = np.histogram(samples, bins=edges, density=True)
        mids = np.sqrt(edges[:-1] * edges[1:])
        keep = hist > 0
        slope = stats.linregress(np.log(mids[keep]), np.log(hist[keep])).slope
        assert slope == pytest.approx(-2.0, abs=0.02)


class TestCoverageDomP3:
    def test_pinned_values(self, params):
        # default parameters (sectors_exp 2), captured when the offset rule
        # was rebuilt on every integrand call
        pinned = (0.9979598835608695, 0.994232977682065, 0.9848103176817283,
                  0.9638246770914723, 0.9242014920152732, 0.8621969876447633,
                  0.7813840926949218, 0.6908538932589199, 0.5996967300668687,
                  0.513574273402595, 0.4347024319308056)
        for g_db, value in zip(np.arange(-10.0, 15.1, 2.5), pinned):
            assert coverage_dom_p3(10.0 ** (g_db / 10.0), params) == pytest.approx(
                value, rel=0.0, abs=1e-12)

    def test_certain_at_zero(self, params):
        assert coverage_dom_p3(0.0, params) == 1.0

    def test_matches_simulation(self, params):
        samples, _ = _stat(params, "SIR_dom_p3")
        for g_db in (-5.0, 0.0, 5.0):
            gamma = 10.0 ** (g_db / 10.0)
            mc = (samples > gamma).mean()
            se = math.sqrt(mc * (1.0 - mc) / samples.size)
            assert coverage_dom_p3(gamma, params) == pytest.approx(mc, abs=0.015 + 3.0 * se)

    def test_rejected_pairing_is_degenerate_below_one(self, params):
        assert _rejected_variant_coverage_dom_p3(0.5, params) == 1.0
        assert coverage_dom_p3(0.5, params) < 0.99

    def test_law_evaluated_once_per_distinct_abscissa(self, params, monkeypatch):
        # the lockstep integrals of 11 thresholds mostly ask for the same
        # abscissae; each round evaluates the law once at each
        calls = []
        law = dominant.gain_fade_ratio_pdf_p3

        def recording(g, p):
            calls.append(np.array(g))
            return law(g, p)

        monkeypatch.setattr(dominant, "gain_fade_ratio_pdf_p3", recording)
        coverage_dom_p3(10.0 ** (np.arange(-10.0, 15.1, 2.5) / 10.0), params)
        assert calls
        for g in calls:
            assert np.unique(g).size == g.size, "a law value evaluated twice in one round"


FIG8_GRID_DB = (-10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0)

# The fig8 curves at sectors_exp 0-3, and two off-default corners of the
# parameter box of test_analytic.py.
CURVE_SETS = {
    **{f"sectors_{m}": NetworkParams(antenna=AntennaConfig(sectors_exp=m)) for m in range(4)},
    "fading_4_3": NetworkParams(channel=ChannelParams(m_s=4, m_x=3)),
    "density_5e-3": NetworkParams(density=5e-3),
}
CURVES = {
    "P2": coverage_dom_p2,
    "P3-product": coverage_dom_p3,
    "P3-self": _rejected_variant_coverage_dom_p3,
}


class TestCurveInterface:
    @pytest.mark.parametrize("curve", CURVES)
    @pytest.mark.parametrize("name", CURVE_SETS)
    def test_curve_matches_per_threshold_calls(self, curve, name):
        fn, params = CURVES[curve], CURVE_SETS[name]
        gammas = np.array([10.0 ** (g_db / 10.0) for g_db in FIG8_GRID_DB])
        alone = [fn(gamma, params) for gamma in gammas.tolist()]
        np.testing.assert_allclose(fn(gammas, params), alone, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("curve", CURVES)
    def test_scalar_in_float_out_array_in_array_out(self, params, curve):
        fn = CURVES[curve]
        scalar = fn(2.0, params)
        assert isinstance(scalar, float)
        grid = fn(np.array([[0.0, 0.5, 2.0], [-1.0, 3.0, 10.0]]), params)
        assert grid.shape == (2, 3)
        assert grid[0, 0] == 1.0 and grid[1, 0] == 1.0
        assert grid[0, 2] == pytest.approx(scalar, rel=0.0, abs=1e-13)
        empty = fn(np.empty(0), params)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    @pytest.mark.parametrize("curve", CURVES)
    def test_infinite_threshold_is_never_met(self, params, curve):
        fn = CURVES[curve]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn(math.inf, params) == 0.0
            grid = fn(np.array([-math.inf, 0.0, 2.0, math.inf]), params)
        assert np.array_equal(grid[[0, 1, 3]], [1.0, 1.0, 0.0])
        assert grid[2] == pytest.approx(fn(2.0, params), rel=0.0, abs=1e-13)
        if curve != "P3-self":          # the report's own closed form, not an entry point
            with pytest.raises(ValueError, match=r"gamma\[1\] is NaN"):
                fn(np.array([1.0, math.nan]), params)

    @pytest.mark.parametrize("curve", ("P2", "P3-product"))
    def test_thresholds_across_the_float_range(self, params, curve):
        # every threshold that the validator accepts at the defaults; P2's
        # low end reads 0.9999854, short of 1 by the mass its outer integral
        # misses, so only the range and the order are asserted
        gamma_db = np.concatenate((np.arange(-3000.0, 3080.0, 20.0), [3080.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = CURVES[curve](10.0 ** (gamma_db / 10.0), params)
        assert np.all(np.isfinite(value)) and np.all((value >= 0.0) & (value <= 1.0))
        assert np.all(np.diff(value) <= 0.0)

    @pytest.mark.parametrize("alpha", (2.0, 2.2, 2.5))
    def test_self_pairing_closed_form_against_quadrature(self, alpha):
        # the rejected self-convolution: 1 - int_1^gamma (2/alpha)^2 x^-beta ln x dx
        params = NetworkParams(channel=ChannelParams(alpha_l=alpha))
        beta = (2.0 + alpha) / alpha
        for g_db in (3.0, 10.0, 15.0):
            gamma = 10.0 ** (g_db / 10.0)
            mass = integrate_1d(lambda x: (2.0 / alpha) ** 2 * x ** (-beta) * np.log(x),
                                1.0, gamma, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15))
            assert _rejected_variant_coverage_dom_p3(gamma, params) == pytest.approx(
                1.0 - mass, rel=0.0, abs=1e-12)


def _failing_curve(policy, pairing, gamma, failing, monkeypatch):
    """The error of a dominant curve whose ``failing``-th integral exhausts
    its budget; its message names the curve point at 5 dB."""
    def exhausted(f, a, b, n, spec=None):
        raise QuadratureError("max_subdivisions exhausted", 0.25, 1e-3, failing)

    monkeypatch.setattr(analytic, "integrate_many", exhausted)
    params = NetworkParams(density=1.6e-3, antenna=AntennaConfig(sectors_exp=3),
                           channel=ChannelParams(alpha_l=2.2, m_s=3, m_x=4))
    with pytest.raises(QuadratureError) as excinfo:
        CURVES[policy if pairing is None else f"{policy}-{pairing}"](gamma, params)
    message = str(excinfo.value)
    for part in (f"{policy} dominant coverage", "threshold 5.00 dB", "density 0.0016",
                 "sectors_exp 3", "m_s 3", "m_x 4", "alpha 2.2", "max_subdivisions"):
        assert part in message
    assert "exclusion" not in message
    assert excinfo.value.estimate == 0.25
    return excinfo.value


@pytest.mark.parametrize("policy, pairing", [("P2", None), ("P3", "product")])
def test_quadrature_failure_names_the_curve_point(policy, pairing, monkeypatch):
    _failing_curve(policy, pairing, 10.0 ** 0.5, 0, monkeypatch)


@pytest.mark.parametrize("thresholds_db, failing", [
    ((0.0, 5.0, 10.0), 1),
    # a threshold <= 0 is not integrated, so the second integral of the
    # batch is the second positive threshold
    ((-math.inf, 5.0, 10.0), 0)])
@pytest.mark.parametrize("policy, pairing", [("P2", None), ("P3", "product")])
def test_quadrature_failure_names_the_failing_threshold_of_a_curve(
        policy, pairing, thresholds_db, failing, monkeypatch):
    gammas = np.array([10.0 ** (g_db / 10.0) for g_db in thresholds_db])
    assert _failing_curve(policy, pairing, gammas, failing, monkeypatch).index == 1


class TestDiscrepancyReport:
    def test_structure_and_verdicts(self, params):
        report = build_discrepancy_report(params, seed=5, n_trials=30_000)
        ids = {entry["id"] for entry in report}
        assert ids == {"p2-gain-ratio-density", "p3-distance-ratio-constant",
                       "p3-dominant-sir-pairing", "p1-interference-exclusion-region",
                       "p2-interference-exclusion-region"}
        json.dumps(report)   # machine readable
        by_id = {e["id"]: e for e in report}
        gain = by_id["p2-gain-ratio-density"]["evidence"]
        assert abs(gain["implemented_mass"] - 1.0) < 0.01
        assert abs(gain["rejected_mass"] - 1.0) > 0.5
        assert gain["ks_implemented_vs_mc"] < 0.02
        dist = by_id["p3-distance-ratio-constant"]["evidence"]
        assert abs(dist["rejected_total_mass"] - 1.0) > 1.0
        pair = by_id["p3-dominant-sir-pairing"]["evidence"]["coverage"]["+0dB"]
        assert abs(pair["product_pairing"] - pair["mc"]) < 0.02
        assert pair["self_pairing"] == 1.0
