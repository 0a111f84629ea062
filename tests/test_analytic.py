import math
import warnings
from dataclasses import replace
from functools import lru_cache
from itertools import product

import mpmath
import numpy as np
import pytest

from mmwcov.analytic import (
    coverage_p1,
    coverage_p2,
    coverage_p3,
    laplace_p1,
    laplace_p2,
    laplace_p3,
    nearest_power_ccdf,
    phi_c_pdf,
    serving_power_ccdf,
    serving_power_law,
)
from mmwcov.montecarlo import (
    SimPlan,
    run_coverage,
    run_coverages,
    run_power_ccdf,
    sample_statistic,
)
from mmwcov import analytic
from mmwcov.numerics import (NonFiniteIntegrandError, QuadratureError, QuadratureSpec, Workspace,
                             integrate_1d, integrate_many)
from mmwcov.radio import (AntennaConfig, ChannelParams, NetworkParams, dbm_to_watts, gain_3gpp,
                          gain_approx)
from conftest import ks_distance
from field_oracle import gain_pdf_mainlobe, integrate_2d, sample_conditioned_interference
import analytic_oracle as oracle

GAMMAS_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0)

# Off-default corners of the accepted parameter box, one change each.
PARAMETER_BOX = {
    "fading_1_1": NetworkParams(channel=ChannelParams(m_s=1, m_x=1)),
    "fading_4_3": NetworkParams(channel=ChannelParams(m_s=4, m_x=3)),
    "alpha_2.5": NetworkParams(channel=ChannelParams(alpha_l=2.5)),
    "density_5e-5": NetworkParams(density=5e-5),
    "density_5e-3": NetworkParams(density=5e-3),
    "sectors_0": NetworkParams(antenna=AntennaConfig(sectors_exp=0)),
    "sectors_1": NetworkParams(antenna=AntennaConfig(sectors_exp=1)),
    "sectors_5": NetworkParams(antenna=AntennaConfig(sectors_exp=5)),
    "noise_-200dBm": NetworkParams(channel=ChannelParams(noise_w=float(dbm_to_watts(-200.0)))),
    "noise_0": NetworkParams(channel=ChannelParams(noise_w=0.0)),
}


class TestServingPowerLaw:
    def test_void_mass_at_support_edge(self, params):
        # the Poisson maximum puts the void mass at w_min; the conditioned law
        # takes it out there and rescales everything above
        law = serving_power_law(params)
        expected = math.exp(-params.mean_count)
        assert law.void_mass == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(7.2e-7, rel=0.01)
        assert law.cdf(law.w_min) == 0.0
        s0 = np.array([law.w_min, 0.002, 0.01, 0.05, 0.3])
        poisson_max = np.exp(-params.mean_count * (1.0 - law.inner_cdf(s0)))
        assert poisson_max[0] == pytest.approx(expected, rel=1e-9)
        np.testing.assert_allclose(expected + (1.0 - expected) * law.cdf(s0), poisson_max,
                                   rtol=1e-12)

    def test_pdf_mass(self, params):
        law = serving_power_law(params)
        mass = integrate_1d(lambda w: law.pdf(w), law.w_min, math.inf,
                            QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13))
        # 1e-8 tells the conditioned law from the unconditioned one, whose
        # mass is 1 - void_mass (void_mass ~7.2e-7)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_cdf_pdf_consistency(self, params):
        law = serving_power_law(params)
        for s0 in (0.002, 0.01, 0.05, 0.3):
            h = 1e-6 * s0
            fd = (law.cdf(s0 + h) - law.cdf(s0 - h)) / (2.0 * h)
            assert law.pdf(s0) == pytest.approx(fd, rel=1e-5)

    def test_inner_pdf_against_gain_density_integral(self, params):
        # dual route: the erf closed form equals the direct convolution of
        # the mainlobe-gain density with the inverse-power distance law
        law = serving_power_law(params)
        cfg, ch = params.antenna, params.channel
        r_l, alpha = params.r_los, ch.alpha_l

        def convolution(w):
            def integrand(x):
                y = w / x
                f_y = np.where(y >= r_l ** (-alpha),
                               2.0 * y ** (-(alpha + 2.0) / alpha) / (alpha * r_l**2), 0.0)
                return gain_pdf_mainlobe(x, cfg) * f_y / x

            psi = float(law.psi(w))
            return integrate_1d(integrand, cfg.g_3db, psi * (1.0 - 1e-12),
                                QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13))

        # oracle truncates a ~1e-6 sliver at the integrable endpoint divergence
        for w in (0.0012, 0.004, 0.02, 0.1):
            assert law.inner_pdf(w) == pytest.approx(convolution(w), rel=1e-5)

    def test_psi_clamp(self, params):
        law = serving_power_law(params)
        cfg = params.antenna
        assert law.psi(1e9) == cfg.g_max
        assert law.psi(law.w_min) == pytest.approx(cfg.g_3db, rel=1e-12)

    def test_below_support(self, params):
        law = serving_power_law(params)
        assert law.pdf(law.w_min * 0.5) == 0.0
        assert law.cdf(law.w_min * 0.5) == 0.0
        assert serving_power_ccdf(law.w_min * 0.5, params) == 1.0

    def test_ccdf_matches_simulation(self, params):
        plan = SimPlan(params=params, policy="P1", thresholds_db=(0.0,),
                       n_trials=200_000, master_seed=321)
        curve = run_power_ccdf(plan, n_workers=4)
        law = serving_power_law(params)
        assert np.max(np.abs(law.ccdf(curve.levels) - curve.ccdf)) < 0.01

    def test_nearest_power_ccdf_matches_simulation(self, params):
        plan = SimPlan(params=params, policy="P3", thresholds_db=(0.0,),
                       n_trials=200_000, master_seed=321)
        curve = run_power_ccdf(plan, n_workers=4)
        ana = nearest_power_ccdf(curve.levels, params)
        assert np.max(np.abs(ana - curve.ccdf)) < 0.01


def _transform(exponent, s, k_max=0):
    """[L, L', ..., L^(k_max)] at ``s`` of the transform with this exponent,
    from the scaled terms t_k = (-s)^k F^(k) / k! that ``exponent`` gives."""
    terms = exponent(s, k_max)
    return oracle.exp_derivatives(
        [terms[0]] + [terms[k] * math.factorial(k) / (-s) ** k for k in range(1, k_max + 1)], s)


class TestLaplaceEvaluators:
    def test_value_at_zero(self, params):
        law = serving_power_law(params)
        med = oracle.serving_power_quantile(law, 0.5)
        for lt in (laplace_p1(med, params),
                   laplace_p2(0.05, params),
                   laplace_p3(20.0, params)):
            assert _transform(lt, 0.0)[0] == pytest.approx(1.0, rel=1e-12)

    def test_monotone_and_sign_pattern(self, params):
        law = serving_power_law(params)
        med = oracle.serving_power_quantile(law, 0.5)
        lt = laplace_p1(med, params)
        s = np.logspace(2.0, 6.0, 24)
        derivs = _transform(lt, s, 2)
        assert np.all(np.diff(derivs[0]) < 0.0)            # L decreasing
        assert np.all(derivs[0] > 0.0) and np.all(derivs[0] <= 1.0)
        assert np.all(derivs[1] <= 0.0)                    # (-1)^1 L' >= 0
        assert np.all(derivs[2] >= 0.0)                    # (-1)^2 L'' >= 0

    def test_more_serving_power_admits_closer_interferers(self, params):
        law = serving_power_law(params)
        s = 1e4
        l_small = _transform(laplace_p1(5.0 * law.w_min, params, exclusion="single-beam"), s)[0]
        l_large = _transform(laplace_p1(500.0 * law.w_min, params, exclusion="single-beam"), s)[0]
        assert l_large < l_small

    def test_derivatives_against_finite_differences(self, params):
        law = serving_power_law(params)
        gen = np.random.default_rng(5150)
        for _ in range(10):
            s_th = oracle.serving_power_quantile(law, gen.uniform(0.1, 0.9))
            s = 10.0 ** gen.uniform(3.0, 5.5)
            lt = laplace_p1(s_th, params)
            h = 1e-5 * s
            fd = (_transform(lt, s + h)[0] - _transform(lt, s - h)[0]) / (2.0 * h)
            got = _transform(lt, s, 1)[1]
            assert got == pytest.approx(fd, rel=1e-4)

    def test_exponent_matches_generic_quadrature(self, params):
        # the fixed-grid region exponent against fully adaptive 2-D quadrature
        cfg, ch = params.antenna, params.channel
        law = serving_power_law(params)
        s_th = oracle.serving_power_quantile(law, 0.6)
        amp = ch.tx_power_w * ch.path_gain_const * cfg.g_max / ch.m_x
        inv_alpha = 1.0 / ch.alpha_l

        def r_lo(phi):
            return min((gain_3gpp(phi, cfg) / s_th) ** inv_alpha, params.r_los)

        for s in (1.0, 2e4):
            def integrand(phi, r):
                c = amp * gain_3gpp(phi, cfg) * r ** (-ch.alpha_l)
                return (1.0 - (1.0 + s * c) ** (-ch.m_x)) * r

            ref = -params.density * 2.0 * integrate_2d(
                integrand, 0.0, math.pi, r_lo, params.r_los,
                QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12, max_subdivisions=20_000))
            got = laplace_p1(s_th, params, exclusion="single-beam")(s)[0]
            assert got == pytest.approx(ref, rel=1e-6)

    def test_matches_conditioned_simulation_p1(self, params):
        law = serving_power_law(params)
        med = oracle.serving_power_quantile(law, 0.5)
        plan = SimPlan(params=params, policy="P1", thresholds_db=(0.0,),
                       n_trials=10**6, master_seed=68)
        inter, acc = sample_conditioned_interference(plan, med, 0.02, n_workers=4)
        lt = laplace_p1(med, params)   # arbitrated keep-out region
        ch = params.channel
        s_meaningful = ch.m_s / (ch.tx_power_w * params.antenna.g_max
                                 * ch.path_gain_const * med)
        for s in (1.0, s_meaningful):
            mc = np.exp(-s * inter).mean()
            assert _transform(lt, s)[0] == pytest.approx(mc, rel=0.01)

    def test_matches_conditioned_simulation_p3(self, params):
        plan = SimPlan(params=params, policy="P3", thresholds_db=(0.0,),
                       n_trials=400_000, master_seed=69)
        r1 = 18.0
        inter, _ = sample_conditioned_interference(plan, r1, 0.02, n_workers=4)
        lt = laplace_p3(r1, params)
        ch = params.channel
        s = ch.m_s * r1**ch.alpha_l / (ch.tx_power_w * ch.path_gain_const
                                       * params.antenna.g_max**2)
        mc = np.exp(-s * inter).mean()
        assert _transform(lt, s)[0] == pytest.approx(mc, rel=0.01)

    def test_domain_checks(self, params):
        law = serving_power_law(params)
        with pytest.raises(ValueError):
            laplace_p1(0.5 * law.w_min, params)
        with pytest.raises(ValueError):
            laplace_p2(1.0, params)    # beyond half the beam spacing
        with pytest.raises(ValueError):
            laplace_p3(params.r_los * 1.5, params)
        with pytest.raises(ValueError):
            laplace_p1(oracle.serving_power_quantile(law, 0.5), params, exclusion="bogus")


class TestPhiCLaw:
    def test_value_at_origin(self, params):
        # rate = density * n_beams * r_los**2 = 18, over P(nonempty disk)
        nonempty = -math.expm1(-params.density * math.pi * params.r_los**2)
        assert phi_c_pdf(0.0, params) == pytest.approx(18.0 / nonempty, rel=1e-12)

    def test_truncated_mass(self, params):
        upper = 0.5 * params.antenna.beam_spacing
        mass = integrate_1d(lambda p: phi_c_pdf(p, params), 0.0, upper)
        assert mass == pytest.approx(1.0, rel=1e-9)
        assert phi_c_pdf([-1e-9, upper * (1.0 + 1e-9)], params).tolist() == [0.0, 0.0]

    def test_ks_against_simulation(self, params):
        plan = SimPlan(params=params, policy="P2", thresholds_db=(0.0,),
                       n_trials=200_000, master_seed=70)
        samples, _ = sample_statistic(plan, "phi_c", n_workers=4)
        samples = np.sort(samples)
        rate = params.density * params.antenna.n_beams * params.r_los**2
        cdf = (1.0 - np.exp(-rate * samples)) / (1.0 - params.void_probability)
        assert ks_distance(samples, cdf) < 0.006


class TestCoverage:
    def test_certain_at_zero_threshold(self, params):
        assert coverage_p1(0.0, params) == pytest.approx(1.0, abs=3e-5)
        assert coverage_p2(0.0, params) == pytest.approx(1.0, abs=3e-5)
        assert coverage_p3(0.0, params) == pytest.approx(1.0, abs=3e-5)

    @pytest.mark.parametrize("policy,fn", [
        ("P1", lambda g, p: coverage_p1(g, p)),
        ("P2", lambda g, p: coverage_p2(g, p)),
        ("P3", lambda g, p: coverage_p3(g, p)),
    ])
    def test_cross_engine_agreement(self, params, policy, fn):
        plan = SimPlan(params=params, policy=policy, thresholds_db=GAMMAS_DB,
                       n_trials=50_000, master_seed=71)
        curve = run_coverage(plan, n_workers=4)
        for g_db, mc, se in zip(GAMMAS_DB, curve.p_cov, curve.stderr):
            ana = fn(10.0 ** (g_db / 10.0), params)
            assert abs(ana - mc) < 0.015 + 3.0 * se

    @pytest.mark.parametrize("name", sorted(PARAMETER_BOX))
    def test_cross_engine_agreement_over_the_parameter_box(self, name):
        params = PARAMETER_BOX[name]
        gammas_db = (-5.0, 0.0, 5.0)
        plans = [SimPlan(params=params, policy=policy, thresholds_db=gammas_db,
                         n_trials=20_000, master_seed=72) for policy in ("P1", "P2", "P3")]
        gammas = 10.0 ** (np.array(gammas_db) / 10.0)
        for fn, curve in zip((coverage_p1, coverage_p2, coverage_p3),
                             run_coverages(plans, n_workers=2)):
            gaps = np.abs(fn(gammas, params) - curve.p_cov)
            bounds = np.maximum(0.015, 3.0 * curve.stderr)
            assert np.all(gaps <= bounds), (curve.policy, gaps, bounds)

    def test_single_fade_order_reduces_to_plain_transform(self):
        # for a unit fade shape the coverage integrand is L_tot itself;
        # rebuild it from the public evaluator as an independent path
        params = NetworkParams(channel=ChannelParams(m_s=1, m_x=2))
        gamma = 10.0 ** 0.3
        ch = params.channel
        s_const = ch.m_s * gamma / (ch.tx_power_w * ch.path_gain_const
                                    * params.antenna.g_max**2)
        lam, r_l = params.density, params.r_los
        norm = 1.0 - params.void_probability

        def integrand(r1_arr):
            out = []
            for r1 in np.atleast_1d(r1_arr):
                s = s_const * r1**ch.alpha_l
                lt = laplace_p3(float(r1), params)
                out.append(math.exp(-ch.noise_w * s) * float(_transform(lt, s)[0]))
            f = 2.0 * math.pi * lam * np.atleast_1d(r1_arr) * np.exp(
                -lam * math.pi * np.atleast_1d(r1_arr) ** 2) / norm
            return f * np.array(out)

        direct = integrate_1d(integrand, 1e-4, r_l, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9))
        assert coverage_p3(gamma, params) == pytest.approx(direct, abs=2e-4)

    def test_grid_curves_monotone_and_bounded(self, params):
        for fn in (coverage_p1, coverage_p3):
            vals = np.array([fn(10.0 ** (g / 10.0), params) for g in GAMMAS_DB])
            assert np.all((0.0 <= vals) & (vals <= 1.0))
            assert np.all(np.diff(vals) < 0.0)

    def test_inner_law_matches_single_transmitter_draws(self, params, rng):
        # with exactly one transmitter the received power follows the
        # single-point law directly
        law = serving_power_law(params)
        cfg, ch = params.antenna, params.channel
        n = 200_000
        r = params.r_los * np.sqrt(rng.random(n))
        offset = rng.uniform(0.0, 0.5 * cfg.beam_spacing, n)
        from mmwcov.radio import gain_approx
        s = np.sort(gain_approx(offset, cfg) * r ** (-ch.alpha_l))
        assert ks_distance(s, law.inner_cdf(s)) < 0.006

    def test_region_variants_exposed(self, params):
        g = 1.0
        one_sided = coverage_p2(g, params, exclusion="one-sided")
        grid = coverage_p2(g, params, exclusion="grid")
        # one-sided keep-out admits more interference
        assert one_sided <= grid
        assert coverage_p1(g, params, exclusion="single-beam") <= coverage_p1(g, params)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, 2.0, np.array([0.0, math.inf]),
                                       np.empty(0)])
    @pytest.mark.parametrize("policy, fn", [("P1", coverage_p1), ("P2", coverage_p2)])
    def test_unknown_exclusion_raises_for_any_threshold(self, params, policy, fn, gamma):
        # thresholds that need no quadrature build no region, and must not
        # let an unknown variant through either
        with pytest.raises(ValueError, match=rf"unknown {policy} exclusion 'symmetric'"):
            fn(gamma, params, exclusion="symmetric")


def _linear(grid_db):
    return np.array([10.0 ** (g / 10.0) for g in grid_db])


FIG_GRID_DB = (-10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0)
OFF_GRID_DB = (-5.0, 2.5, 10.0)
OFF_DEFAULT = {
    "m_s1_m_x1": NetworkParams(channel=ChannelParams(m_s=1, m_x=1)),
    "m_s4_m_x3": NetworkParams(channel=ChannelParams(m_s=4, m_x=3)),
    "alpha2.5": NetworkParams(channel=ChannelParams(alpha_l=2.5)),
    "density5e-5": NetworkParams(density=5e-5),
    "density5e-3": NetworkParams(density=5e-3),
    "sectors0": NetworkParams(antenna=AntennaConfig(sectors_exp=0)),
    "sectors5": NetworkParams(antenna=AntennaConfig(sectors_exp=5)),
    "noise0": NetworkParams(channel=ChannelParams(noise_w=0.0)),
}
CURVES = ([("P1", e) for e in analytic.P1_EXCLUSIONS]
          + [("P2", e) for e in analytic.P2_EXCLUSIONS] + [("P3", None)])
SHARP_CURVES = [("P1", "all-beams"), ("P2", "grid"), ("P3", None)]


def _both(policy, exclusion):
    """(lockstep curve, per-threshold oracle) functions of one policy; the
    oracle takes an array of thresholds.  P2's oracle takes the array
    itself, so that its thresholds share the inner pieces of a node."""
    kw = {} if exclusion is None else {"exclusion": exclusion}
    new = {"P1": coverage_p1, "P2": coverage_p2, "P3": coverage_p3}[policy]
    if policy == "P2":
        return (lambda g, p: new(g, p, **kw)), (lambda g, p: oracle.coverage_p2(g, p, **kw))
    old = {"P1": oracle.coverage_p1, "P3": oracle.coverage_p3}[policy]
    return (lambda g, p: new(g, p, **kw)), (lambda g, p: np.array([old(x, p, **kw) for x in g]))


class TestCurveOracle:
    """Whole curves in lockstep against the per-threshold integrals."""

    @pytest.mark.parametrize("policy", ["P1", "P2"])
    @pytest.mark.parametrize("sectors_exp", [1, 2, 3])
    def test_fig6_grid(self, policy, sectors_exp):
        params = NetworkParams(antenna=AntennaConfig(sectors_exp=sectors_exp))
        new, old = _both(policy, {"P1": "all-beams", "P2": "grid"}[policy])
        gammas = _linear(FIG_GRID_DB)
        np.testing.assert_allclose(new(gammas, params), old(gammas, params), rtol=0.0, atol=1e-12)

    def test_fig7_grid(self):
        gamma = 10.0 ** 0.3
        for density in (4e-4, 8e-4, 1.6e-3):
            for m in (1, 2, 3):
                params = NetworkParams(density=density, antenna=AntennaConfig(sectors_exp=m))
                assert coverage_p1(gamma, params) == pytest.approx(
                    oracle.coverage_p1(gamma, params), rel=0.0, abs=1e-12)
                assert coverage_p3(gamma, params) == pytest.approx(
                    oracle.coverage_p3(gamma, params), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(OFF_DEFAULT))
    def test_off_default_sets_every_exclusion(self, name):
        params = OFF_DEFAULT[name]
        gammas = _linear(OFF_GRID_DB)
        for policy, exclusion in CURVES:
            new, old = _both(policy, exclusion)
            np.testing.assert_allclose(new(gammas, params), old(gammas, params), rtol=0.0,
                                       atol=1e-12, err_msg=f"{policy} {exclusion}")


class TestP2InnerForm:
    """P2's inner integral as lattice pieces of z against the form it
    replaced: one adaptive integral over the serving distance d0 per
    (phi_c node, threshold), at the inner contract max(1e-9, 1e-5 |inner|)
    (analytic_oracle.coverage_p2_d0)."""

    # Both forms keep each inner integral within that contract; their
    # curves differ by far less.  A hundred times a piece's absolute
    # tolerance is 5e-8; the largest difference over these cases is 2.0e-9.
    BOUND = 100.0 * analytic._INNER_SPEC.abs_tol

    @staticmethod
    def _check(params, grid_db, exclusion):
        gammas = _linear(grid_db)
        d0 = [oracle.coverage_p2_d0(g, params, exclusion=exclusion) for g in gammas]
        np.testing.assert_allclose(coverage_p2(gammas, params, exclusion=exclusion), d0,
                                   rtol=0.0, atol=TestP2InnerForm.BOUND)

    @pytest.mark.parametrize("sectors_exp", [1, 2, 3])
    def test_fig6_grid(self, sectors_exp):
        self._check(NetworkParams(antenna=AntennaConfig(sectors_exp=sectors_exp)),
                    FIG_GRID_DB, "grid")

    @pytest.mark.parametrize("exclusion", analytic.P2_EXCLUSIONS)
    @pytest.mark.parametrize("name", sorted(OFF_DEFAULT))
    def test_off_default_sets(self, name, exclusion):
        self._check(OFF_DEFAULT[name], OFF_GRID_DB, exclusion)

    def test_density_1e_2(self):
        self._check(NetworkParams(density=1e-2), OFF_GRID_DB, "grid")


def _counting_pairs(monkeypatch):
    """A list that collects the number of distinct (node, s) pairs of every
    exponent evaluation."""
    counted = []
    evaluate = analytic._exponent_derivatives

    def counting(grid, node, s, k_max, density, ws):
        counted.append(len(set(zip(node.tolist(), s.tolist()))))
        return evaluate(grid, node, s, k_max, density, ws)

    monkeypatch.setattr(analytic, "_exponent_derivatives", counting)
    return counted


class TestCurveFamily:
    """Curves that differ only in density in one call, against one call per
    curve."""

    @pytest.mark.parametrize("sectors_exp", [1, 2, 3])
    def test_fig7_grid(self, sectors_exp):
        gamma = 10.0 ** 0.3
        family = [NetworkParams(density=d, antenna=AntennaConfig(sectors_exp=sectors_exp))
                  for d in (4e-4, 8e-4, 1.6e-3)]
        for fn in (coverage_p1, coverage_p3):
            batched = fn(gamma, family)
            assert batched.shape == (3,)
            np.testing.assert_allclose(batched, [fn(gamma, p) for p in family],
                                       rtol=0.0, atol=1e-13, err_msg=fn.__name__)

    @pytest.mark.parametrize("name", sorted(OFF_DEFAULT))
    def test_off_default_sets_every_exclusion(self, name):
        base = OFF_DEFAULT[name]
        family = [replace(base, density=f * base.density) for f in (0.25, 0.5, 1.0)]
        gammas = _linear(OFF_GRID_DB)
        for policy, exclusion in CURVES:
            new, _ = _both(policy, exclusion)
            batched = new(gammas, family)
            assert batched.shape == (3, gammas.size)
            np.testing.assert_allclose(batched, [new(gammas, p) for p in family],
                                       rtol=0.0, atol=1e-13, err_msg=f"{policy} {exclusion}")

    def test_shapes_and_threshold_edges(self, params):
        family = [params, replace(params, density=2.0 * params.density)]
        grid = np.array([[-math.inf, 2.0], [math.inf, 0.5]])
        for fn in (coverage_p1, coverage_p2, coverage_p3):
            out = fn(grid, family)
            assert out.shape == (2, 2, 2)
            assert np.array_equal(out[:, 0, 0], [1.0, 1.0])
            assert np.array_equal(out[:, 1, 0], [0.0, 0.0])
            assert fn(grid, family[:1]).shape == (1, 2, 2)
            assert fn(np.empty(0), family).shape == (2, 0)

    @pytest.mark.parametrize("field, changed", [
        ("antenna.sectors_exp", lambda p: replace(p, antenna=AntennaConfig(sectors_exp=3))),
        ("channel.m_s", lambda p: replace(p, channel=ChannelParams(m_s=3))),
        ("channel.noise_w", lambda p: replace(p, channel=ChannelParams(noise_w=0.0)))])
    def test_params_that_differ_in_more_than_density_are_refused(self, params, field, changed):
        family = [params, replace(params, density=1e-3), changed(replace(params, density=2e-3))]
        for fn in (coverage_p1, coverage_p2, coverage_p3):
            with pytest.raises(ValueError, match=f"params 2 differs .* {field} is "):
                fn(1.0, family)
        with pytest.raises(ValueError, match="at least one"):
            coverage_p1(1.0, [])

    @pytest.mark.parametrize("policy,spec", [
        ("P1", "_OUTER_SPEC"), ("P2", "_OUTER_SPEC"), ("P2", "_INNER_SPEC"), ("P3", "_OUTER_SPEC")])
    def test_quadrature_failure_names_the_curve(self, policy, spec, monkeypatch):
        # the last integral of the failing call fails: for the outer call the
        # second curve at 10 dB, for an inner call a node of that curve
        def exhausted(f, a, b, n, quad_spec=None):
            if quad_spec is getattr(analytic, spec):
                raise QuadratureError("max_subdivisions exhausted", 0.25, 1e-3, n - 1)
            return integrate_many(f, a, b, n, quad_spec)

        monkeypatch.setattr(analytic, "integrate_many", exhausted)
        family = [NetworkParams(density=d, antenna=AntennaConfig(sectors_exp=3))
                  for d in (8e-4, 1.6e-3)]
        fn = {"P1": coverage_p1, "P2": coverage_p2, "P3": coverage_p3}[policy]
        with pytest.raises(QuadratureError) as excinfo:
            fn(_linear((5.0, 10.0)), family)
        err = excinfo.value
        assert err.index == 3               # curve 1, threshold 1 of the (2, 2) result
        message = str(err)
        for part in (f"{policy} coverage", "threshold 10.00 dB", "density 0.0016",
                     "sectors_exp 3", "max_subdivisions"):
            assert part in message
        assert "density 0.0008" not in message
        assert ("inner integral at phi_c=" in message) == (spec == "_INNER_SPEC")

    def test_fig7_p1_evaluates_each_exponent_pair_once_per_round(self, monkeypatch):
        # the 9 fig7 P1 curves ask for 5,445 (node, s) pairs one curve per
        # call; the three densities of a beam count share theirs
        counted = _counting_pairs(monkeypatch)
        gamma = 10.0 ** 0.3
        families = [[NetworkParams(density=d, antenna=AntennaConfig(sectors_exp=m))
                     for d in (4e-4, 8e-4, 1.6e-3)] for m in (1, 2, 3)]
        for family in families:
            for p in family:
                coverage_p1(gamma, p)
        assert sum(counted) == 5445
        counted.clear()
        for family in families:
            coverage_p1(gamma, family)
        assert sum(counted) <= 2200

    def test_fig6_p2_shares_inner_pieces_between_thresholds(self, monkeypatch):
        # one inner integral per (phi_c, threshold) over d0 takes 20,175
        # integrand points on the three fig6 P2 curves; the thresholds of a
        # node share their whole lattice cells
        points = []
        run = analytic.integrate_many

        def counting(f, a, b, n, spec=None):
            if spec is analytic._INNER_SPEC:
                def counted(x, which):
                    points.append(x.size)
                    return f(x, which)
                return run(counted, a, b, n, spec)
            return run(f, a, b, n, spec)

        monkeypatch.setattr(analytic, "integrate_many", counting)
        for m in (1, 2, 3):
            coverage_p2(_linear(FIG_GRID_DB), NetworkParams(antenna=AntennaConfig(sectors_exp=m)))
        assert sum(points) == 11745
        assert sum(points) <= 2 * 20175 // 3

    def test_kernel_scales_distinct_pairs_per_density(self, params):
        # repeated (node, s) pairs at different densities are summed once
        law = serving_power_law(params)
        nodes = np.array([oracle.serving_power_quantile(law, p) for p in (0.2, 0.7)])
        grid = analytic._p1_grid(params, nodes, "all-beams")
        node = np.array([1, 0, 1, 1, 0])
        s = np.array([3e4, 1e5, 3e4, 3e4, 1e5])
        density = np.array([4e-4, 8e-4, 8e-4, 1.6e-3, 4e-4])
        got = analytic._exponent_derivatives(grid, node, s, 2, density, Workspace())
        for i in range(node.size):
            one = oracle._p1_exponent(replace(params, density=density[i]), nodes[node[i]],
                                      "all-beams")
            np.testing.assert_allclose(got[:, i], one.scaled(s[i], 2), rtol=1e-13)


class TestCurveInterface:
    def test_scalar_in_float_out_array_in_array_out(self, params):
        gammas = _linear((-5.0, 0.0, 5.0, 10.0))
        for fn in (coverage_p1, coverage_p2, coverage_p3):
            scalar = fn(gammas[1], params)
            assert isinstance(scalar, float)
            grid = fn(gammas.reshape(2, 2), params)
            assert grid.shape == (2, 2)
            assert grid[0, 1] == scalar
            assert fn(np.empty(0), params).shape == (0,)

    @pytest.mark.parametrize("fn", (coverage_p1, coverage_p2, coverage_p3))
    def test_threshold_edges_are_exact(self, params, fn):
        # a threshold <= 0 is always met and +inf never, with no quadrature
        assert fn(math.inf, params) == 0.0
        grid = fn(np.array([-math.inf, 0.0, 2.0, math.inf]), params)
        assert np.array_equal(grid[[0, 1, 3]], [1.0, 1.0, 0.0])
        assert grid[2] == fn(2.0, params)

    def test_each_exponent_built_once_per_round(self, params, monkeypatch):
        # 11 thresholds at sectors_exp 3 built 7,005 P1 exponents one
        # threshold at a time, over 705 distinct serving-power nodes
        built = []
        build = analytic._p1_grid

        def counting(params, s_th, exclusion):
            assert np.unique(s_th).size == s_th.size, "a node built twice in one call"
            built.append(s_th.size)
            return build(params, s_th, exclusion)

        monkeypatch.setattr(analytic, "_p1_grid", counting)
        coverage_p1(_linear(FIG_GRID_DB), NetworkParams(antenna=AntennaConfig(sectors_exp=3)))
        assert 0 < sum(built) <= 1000

    @pytest.mark.parametrize("policy,spec", [
        ("P1", "_OUTER_SPEC"), ("P2", "_OUTER_SPEC"), ("P2", "_INNER_SPEC"), ("P3", "_OUTER_SPEC")])
    def test_quadrature_failure_names_the_curve_point(self, policy, spec, monkeypatch):
        monkeypatch.setattr(analytic, spec,
                            QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=1))
        params = NetworkParams(density=1.6e-3, antenna=AntennaConfig(sectors_exp=3))
        fn = {"P1": coverage_p1, "P2": coverage_p2, "P3": coverage_p3}[policy]
        with pytest.raises(QuadratureError) as excinfo:
            fn(_linear((5.0, 10.0)), params)
        err = excinfo.value
        assert err.index in (0, 1)
        message = str(err)
        exclusion = {"P1": "all-beams", "P2": "grid", "P3": "None"}[policy]
        for part in (f"{policy} coverage", f"threshold {(5.0, 10.0)[err.index]:.2f} dB",
                     f"exclusion {exclusion}", "density 0.0016", "sectors_exp 3",
                     "max_subdivisions"):
            assert part in message
        if spec == "_INNER_SPEC":
            assert "inner integral at phi_c=" in message

    @pytest.mark.parametrize("policy", ["P1", "P2", "P3"])
    def test_non_finite_integrand_names_the_curve_point(self, policy, monkeypatch):
        # a kernel that returns NaN at one node of every round: the error
        # says at which curve point
        evaluate = analytic._exponent_derivatives

        def poisoned(grid, node, s, k_max, density, ws):
            out = evaluate(grid, node, s, k_max, density, ws)
            out[:, node == node.max()] = np.nan
            return out

        monkeypatch.setattr(analytic, "_exponent_derivatives", poisoned)
        params = NetworkParams(channel=ChannelParams(m_s=3, m_x=4))
        fn = {"P1": coverage_p1, "P2": coverage_p2, "P3": coverage_p3}[policy]
        with pytest.raises(NonFiniteIntegrandError) as excinfo:
            fn(_linear((5.0, 10.0)), params)
        err = excinfo.value
        assert isinstance(err, ValueError)
        assert err.index in (0, 1)
        message = str(err)
        exclusion = {"P1": "all-beams", "P2": "grid", "P3": "None"}[policy]
        for part in (f"{policy} coverage", f"threshold {(5.0, 10.0)[err.index]:.2f} dB",
                     f"exclusion {exclusion}", "density 0.0008", "sectors_exp 2", "m_s 3",
                     "m_x 4", "alpha 2", "non-finite value near x="):
            assert part in message
        assert ("inner integral at phi_c=" in message) == (policy == "P2")

    # Where the unscaled derivatives and the alternating sum overflowed: from
    # m_s = m_x = 33 at 15 dB, on the default grid.
    @pytest.mark.parametrize("m_s,m_x", [(33, 33), (40, 40), (60, 60), (40, 2), (2, 60)])
    def test_fading_orders_across_the_box(self, m_s, m_x):
        for policy, curve in zip(("P1", "P2", "P3"), _box_curves(m_s, m_x)):
            assert np.all((0.0 <= curve) & (curve <= 1.0)), policy
            assert np.all(np.diff(curve) <= 0.0), policy

    @pytest.mark.parametrize("m", [40, 60])
    def test_high_fading_orders_match_simulation(self, m):
        params = NetworkParams(channel=ChannelParams(m_s=m, m_x=m))
        plans = [SimPlan(params=params, policy=policy, thresholds_db=FIG_GRID_DB,
                         n_trials=50_000, master_seed=73) for policy in ("P1", "P2", "P3")]
        for ana, curve in zip(_box_curves(m, m), run_coverages(plans, n_workers=2)):
            gaps = np.abs(ana - curve.p_cov)
            bounds = np.maximum(0.015, 3.0 * curve.stderr)
            assert np.all(gaps <= bounds), (curve.policy, gaps, bounds)


@lru_cache(maxsize=None)
def _box_curves(m_s, m_x):
    """The P1, P2 and P3 curves on the default grid at fading orders m_s,
    m_x, with any RuntimeWarning raised as an error."""
    params = NetworkParams(channel=ChannelParams(m_s=m_s, m_x=m_x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return tuple(fn(_linear(FIG_GRID_DB), params)
                     for fn in (coverage_p1, coverage_p2, coverage_p3))


def _exponent_case(policy, exclusion, params):
    """Conditioning nodes of one policy, the batched grid builder and the
    per-node oracle exponent."""
    if policy == "P1":
        law = serving_power_law(params)
        # from a node just above the support, where most radial log-panels
        # collapse, to one above the mainlobe gain, where none do
        nodes = np.array([law.w_min * (1.0 + 1e-7)]
                         + [oracle.serving_power_quantile(law, p) for p in (0.01, 0.5, 0.99)]
                         + [law.w_min * 1e4])
        return (nodes, lambda x: analytic._p1_grid(params, x, exclusion),
                lambda x: oracle._p1_exponent(params, x, exclusion))
    if policy == "P2":
        half = 0.5 * params.antenna.beam_spacing
        # from no keep-out band to bands that tile the whole circle
        nodes = np.array([0.0, 1e-4 * half, 0.3 * half, 0.999 * half, half])
        return (nodes, lambda x: analytic._p2_grid(params, x, exclusion),
                lambda x: oracle._p2_exponent(params, x, exclusion))
    r_l = params.r_los
    nodes = np.array([0.0, 1.0, 30.0, 0.999 * r_l, r_l])
    return nodes, lambda x: analytic._p3_grid(params, x), lambda x: oracle._p3_exponent(params, x)


class TestExponentOracle:
    """Batched region exponents against the per-node oracle, which takes
    each angular node's radial integrals from the package's antiderivative
    one at a time."""

    @pytest.mark.parametrize("sectors_exp", [0, 3, 8])
    @pytest.mark.parametrize("policy,exclusion", CURVES)
    def test_round_of_nodes_matches_per_node_exponents(self, policy, exclusion, sectors_exp,
                                                        monkeypatch):
        params = NetworkParams(antenna=AntennaConfig(sectors_exp=sectors_exp))
        nodes, build, one = _exponent_case(policy, exclusion, params)
        grid = build(nodes)
        if sectors_exp == 8 and exclusion in ("all-beams", "grid"):
            # a pair larger than one block is summed in pieces
            monkeypatch.setattr(analytic, "_ELEMENT_BUDGET", 256)
            assert np.diff(grid.angular).max() > analytic._ELEMENT_BUDGET
        # one round: the nodes are asked for by 1, 2 or 3 thresholds each,
        # and the (node, s) pairs come in no particular order
        gen = np.random.default_rng(sectors_exp)
        node = gen.permutation(np.repeat(np.arange(nodes.size), np.arange(nodes.size) % 3 + 1))
        s = 10.0 ** gen.uniform(0.0, 6.0, node.size)
        k_max = 3
        oracles = [one(float(x)) for x in nodes]
        expected = np.stack([oracles[j].scaled(s_i, k_max) for j, s_i in zip(node, s)],
                            axis=1)
        # zero-width elements are never evaluated
        integrals = analytic._RadialTable.integrals

        def positive_widths(table, a, width, ws):
            assert width.size and width.min() > 0.0
            return integrals(table, a, width, ws)

        monkeypatch.setattr(analytic._RadialTable, "integrals", positive_widths)
        got = analytic._exponent_derivatives(grid, node, s, k_max, params.density,
                                               Workspace())
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
        # the grid keeps exactly the angular nodes inside the disk edge
        assert np.all(grid.width > 0.0)
        assert grid.width.size == sum(int((o.r_lo < o.r_los).sum()) for o in oracles)

    @pytest.mark.parametrize("sectors_exp", [0, 2, 5, 8])
    @pytest.mark.parametrize("policy,exclusion", SHARP_CURVES)
    def test_pair_sums_do_not_depend_on_the_other_pairs(self, policy, exclusion, sectors_exp,
                                                         monkeypatch):
        # a curve's threshold gives the same coverage alone as in a grid of
        # thresholds only if each pair's sums are bitwise the same in any call
        params = NetworkParams(antenna=AntennaConfig(sectors_exp=sectors_exp))
        nodes, build, _ = _exponent_case(policy, exclusion, params)
        grid = build(nodes)
        size = np.diff(grid.angular)
        if sectors_exp == 8 and policy != "P3":
            monkeypatch.setattr(analytic, "_ELEMENT_BUDGET", 256)
            assert size.max() > analytic._ELEMENT_BUDGET
        # enough pairs that the pairs of a small node take several blocks
        node = np.repeat(np.arange(nodes.size),
                         2 * analytic._ELEMENT_BUDGET // np.maximum(size, 1) + 3)
        gen = np.random.default_rng(sectors_exp)
        s = 10.0 ** gen.uniform(0.0, 6.0, node.size)
        full = analytic._exponent_derivatives(grid, node, s, 3, params.density, Workspace())
        for keep in (gen.random(node.size) < 0.5, gen.random(node.size) < 0.05,
                     gen.integers(node.size, size=1)):
            got = analytic._exponent_derivatives(grid, node[keep], s[keep], 3, params.density,
                                                 Workspace())
            assert np.array_equal(got, full[:, keep])

    @pytest.mark.parametrize("policy,exclusion", SHARP_CURVES)
    def test_exponent_stays_accurate_as_s_c_vanishes(self, policy, exclusion, params):
        # the largest s c of a node from 1e-3 down to 1e-12, where the form
        # sum w - sum w v^m would cancel to a relative error of 5e-5 or more
        nodes, build, one = _exponent_case(policy, exclusion, params)
        grid = build(nodes)
        for j, x in enumerate(nodes):
            expo = one(float(x))
            if expo.c_max > 0.0:
                s = 10.0 ** -np.arange(3.0, 13.0) / expo.c_max
                got = analytic._exponent_derivatives(grid, np.full(s.size, j), s, 0,
                                                     params.density, Workspace())
                np.testing.assert_allclose(got[0], expo.derivatives(s, 0)[0], rtol=1e-12,
                                           atol=0.0, err_msg=f"node {j}")

    def test_evaluator_is_a_one_node_batch(self, params):
        law = serving_power_law(params)
        s_th = oracle.serving_power_quantile(law, 0.3)
        s = np.array([[1e3, 1e4], [1e5, 3e5]])
        exponent = laplace_p1(s_th, params)
        expo = oracle._p1_exponent(params, s_th, "all-beams")
        got = exponent(s, 2)
        assert got.shape == (3, 2, 2)
        np.testing.assert_allclose(got[0], expo.derivatives(s, 0)[0], rtol=1e-13)
        np.testing.assert_allclose(got[2], expo.scaled(s, 2)[2], rtol=1e-13)
        assert exponent(1e4).shape == (1,)

    def test_derivatives_at_zero_are_the_limit(self, params):
        # every scaled term t_k is 0 at s = 0, and near it t_k / s^k tends
        # to its limit lambda C(m+k-1, k) int c^k r dr (F'(0) for k = 0)
        exponent = laplace_p3(20.0, params)
        s = np.array([0.0, 1e-9, 2e-9])
        got = exponent(s, 2)
        assert np.array_equal(got[:, 0], np.zeros(3))
        ratio = got[:, 1:] / s[1:] ** np.array([1, 1, 2])[:, None]
        assert np.all(ratio[0] < 0.0) and np.all(ratio[1:] > 0.0)
        np.testing.assert_allclose(ratio[:, 0], ratio[:, 1], rtol=1e-8)


_MP_CUTS = [0.0] + [sign * 2.0**j for j in range(7) for sign in (-1.0, 1.0)]


def _mp_radial(alpha, m_x, k, a, width):
    """int_a^(a + width) g_k(u) du (see analytic._RadialTable) by mpmath at
    20 digits.  The interval is cut at 0 and +-2**j, and within |u| < 8,
    where log g_k bends, further into pieces across which log g_k changes
    by at most 10.  On each piece the substitution x = (e**(sigma v) - 1) /
    (e**(sigma w) - 1), with sigma the secant slope of log g_k across it,
    leaves mpmath a flat integrand even where g_k falls by e**-1000.
    Offsets from ``a`` are kept apart from ``a``, so that a width of 1e-12
    keeps its digits."""
    with mpmath.workdps(20):
        inv = 2 / mpmath.mpf(alpha)
        a, width = mpmath.mpf(a), mpmath.mpf(width)

        def log_g(v):
            soft = mpmath.log1p(mpmath.exp(a + v))
            if k == 0:
                return mpmath.log(-mpmath.expm1(-m_x * soft)) - inv * (a + v)
            return (k - inv) * (a + v) - (k + m_x) * soft

        cuts = sorted(c - a for c in map(mpmath.mpf, _MP_CUTS) if 0 < c - a < width)
        pieces = []
        for p, q in zip([mpmath.mpf(0)] + cuts, cuts + [width]):
            flat_tail = min(abs(a + p), abs(a + q)) >= 8 and (a + p) * (a + q) > 0
            n = 1 if flat_tail else max(1, int(mpmath.ceil(abs(log_g(q) - log_g(p)) / 10)))
            pieces += [(p + (q - p) * j / n, p + (q - p) * (j + 1) / n) for j in range(n)]
        total = mpmath.mpf(0)
        for p, q in pieces:
            base = log_g(p)
            sigma = (log_g(q) - base) / (q - p)
            if sigma == 0:
                total += mpmath.exp(base) * (q - p) * mpmath.quad(
                    lambda x: mpmath.exp(log_g(p + x * (q - p)) - base), [0, 1])
                continue
            span = mpmath.expm1(sigma * (q - p))

            def flat(x):
                v = p + mpmath.log1p(x * span) / sigma
                return mpmath.exp(log_g(v) - base - sigma * (v - p))

            total += mpmath.exp(base) * span / sigma * mpmath.quad(flat, [0, 1])
        return total


class TestRadialAntiderivative:
    """The radial integrals of the region exponents against mpmath, over
    k <= 3, m_x {1, 2, 8, 30}, and intervals from 1e-12 to 60 wide inside,
    across and beyond the tabulated [-40, 40] (analytic._U_HALF), down to
    the smallest alpha the package accepts."""

    POSITIONS = (-100.0, -45.0, -40.5, -39.99, -20.0, -3.0, -0.5, 0.2, 0.7, 3.0, 15.0, 39.9,
                 40.3)
    WIDTHS = (1e-12, 1e-6, 0.01, 0.3, 1.0, 5.0, 20.0, 60.0)

    ALPHAS = (analytic._ALPHA_MIN, 0.5, 1.5, 2.0, 2.2, 4.0, 6.0)
    M_X = (1, 2, 8, 30)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_intervals_match_mpmath(self, alpha):
        # the (position, width) grid is dealt out over the 28 (alpha, m_x)
        # pairs, each position nudged off the table's panel edges
        grid = list(product(self.POSITIONS, self.WIDTHS))
        checked = 0
        for i, m_x in enumerate(self.M_X):
            cases = grid[self.ALPHAS.index(alpha) * len(self.M_X) + i::28]
            a = np.array([pos + 0.0123 * (j % 7) for j, (pos, _) in enumerate(cases)])
            width = np.array([w for _, w in cases])
            got = analytic._RadialTable(alpha, m_x, 3).integrals(a, width, Workspace())
            for j, k in product(range(a.size), range(4)):
                ref = _mp_radial(alpha, m_x, k, a[j], width[j])
                if mpmath.mpf("1e-290") < ref < mpmath.mpf("1e290"):   # a normal double
                    checked += 1
                    assert abs(got[k, j] / ref - 1) <= 1e-12, (m_x, k, a[j], width[j])
        assert checked >= 40

    def test_alpha_below_the_table_is_refused(self):
        with pytest.raises(ValueError, match="at least 0.25 for the analytic region"):
            analytic._RadialTable(0.2, 2, 1)


def _corner(sectors_exp, density, alpha, m_x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # alpha outside the usual LOS range
        return NetworkParams(density=density, antenna=AntennaConfig(sectors_exp=sectors_exp),
                             channel=ChannelParams(alpha_l=alpha, m_x=m_x))


def _fine_exponents(policy, exclusion, params, nodes, s, k_max, rule):
    """The scaled exponent terms of every row of ``s`` at the node of that
    row, by the fine rule ``rule`` of the per-node oracle."""
    one = {"P1": lambda x: oracle._p1_exponent(params, x, exclusion, fine=rule),
           "P2": lambda x: oracle._p2_exponent(params, x, exclusion, fine=rule),
           "P3": lambda x: oracle._p3_exponent(params, x, fine=rule)}[policy]
    return np.concatenate([one(float(x)).scaled(row.ravel(), k_max)
                           for x, row in zip(nodes, s)], axis=1)


def _rule_coverages(policy, exclusion, params, rule=None, d0=None):
    """Conditional coverage given the policy's statistic, at nodes across its
    support (rows) and thresholds from -30 to +30 dB (columns), by the
    package's rule, or by the fine rule ``rule`` of the per-node oracle.
    Given phi_c, P2's serving distance d0 is uniform in the disk, so its
    coverage is the average over d0, here by a fixed rule in
    (d0/r_los)**2 that resolves small d0; that average is what the P2 inner
    integral takes.  With ``d0`` (fractions of r_los), P2's coverage at
    each of those serving distances instead (a third axis)."""
    cfg, ch = params.antenna, params.channel
    gamma = 10.0 ** np.arange(-3.0, 3.5, 1.0)
    amp = ch.tx_power_w * ch.path_gain_const * cfg.g_max
    if policy == "P1":
        # the support edge, and boresight powers at quantiles of the nearest
        # distance from 1e-3 to 0.999 (in the disk)
        near = np.sqrt(-np.log1p(-np.array([1e-3, 0.01, 0.1, 0.5, 0.9, 0.999]))
                       / (params.density * math.pi))
        nodes = np.append(serving_power_law(params).w_min * (1.0 + 1e-7),
                          cfg.g_max * np.minimum(near, params.r_los) ** -ch.alpha_l)
        grid = analytic._p1_grid
        s = ch.m_s * gamma / (amp * nodes[:, None])
        weights = np.ones(1)
    elif policy == "P2":
        nodes = 0.5 * cfg.beam_spacing * np.array([0.0, 1e-4, 0.01, 0.1, 0.3, 0.7, 1.0])
        grid = analytic._p2_grid
        if d0 is None:
            x, w = np.polynomial.legendre.leggauss(12)
            cuts = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0])
            lo, hi = cuts[:-1, None], cuts[1:, None]
            u = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
            weights = (0.5 * (hi - lo) * w).ravel()
        else:
            u = np.asarray(d0, dtype=float) ** 2
            weights = np.eye(u.size)
        s = (ch.m_s * gamma[:, None] * (params.r_los**2 * u) ** (0.5 * ch.alpha_l)
             / (amp * gain_approx(nodes, cfg)[:, None, None]))
    else:
        nodes = params.r_los * np.array([1e-3, 0.01, 0.1, 0.3, 0.6, 0.9, 0.999])
        grid = lambda params, x, exclusion: analytic._p3_grid(params, x)
        s = ch.m_s * gamma * nodes[:, None] ** ch.alpha_l / (amp * cfg.g_max)
        weights = np.ones(1)
    if rule is None:
        node = np.repeat(np.arange(nodes.size), s[0].size)
        exponent = analytic._exponent_derivatives(grid(params, nodes, exclusion), node,
                                                  s.ravel(), ch.m_s - 1, params.density,
                                                  Workspace())
    else:
        exponent = _fine_exponents(policy, exclusion, params, nodes, s, ch.m_s - 1, rule)
    coverage = analytic._conditional_coverage(exponent, s.ravel(), params)
    return coverage.reshape(nodes.size, gamma.size, -1) @ weights


class TestExponentRule:
    """The package's region exponents against two fine rules of the per-node
    oracle (analytic_oracle.FINE_RULES: 24 and 40 angular nodes per piece,
    48 radial nodes per log-panel) that agree to 1e-11, at the defaults and
    at the worst corners of each region, for the package's rule and for the
    rules before it, in a sweep of sectors_exp {0, 1, 3, 8} x density
    {5e-5, 8e-4, 0.1} x alpha {1.5, 2, 4, 6} x m_x {1, 8}, plus phi_3db 0.3
    rad and sla_db 3 at sectors_exp 3 and phi_3db 0.5 rad at sectors_exp
    5."""

    @staticmethod
    def _check(policy, exclusion, params, d0=None):
        got = _rule_coverages(policy, exclusion, params, d0=d0)
        fine = [_rule_coverages(policy, exclusion, params, rule, d0)
                for rule in oracle.FINE_RULES]
        assert np.abs(fine[0] - fine[1]).max() <= 1e-11
        assert np.abs(got - fine[0]).max() <= 1e-8

    # corners are (sectors_exp, density, alpha, m_x); None is the defaults.
    # P2 at alpha 4, m_x 8 is where the rule of 32/12 angular nodes per panel
    # and 20 radial nodes per log-panel from the floor was off by 6e-5; the
    # log-panel rules were worst at the other corners of the first list, the
    # radial table at those of the second (P1 all-beams 2.7e-9, P3 1.3e-9,
    # P2 1.6e-10 averaged and 4.0e-10 at a fixed serving distance).
    @pytest.mark.parametrize("policy,exclusion,corner", [
        ("P1", "all-beams", (3, 5e-5, 1.5, 8)),
        ("P1", "single-beam", (8, 0.1, 6.0, 1)),
        ("P2", "grid", (8, 0.1, 6.0, 8)),
        ("P2", "one-sided", (0, 8e-4, 6.0, 8)),
        ("P2", "grid", (0, 8e-4, 4.0, 8)),
        ("P2", "one-sided", (0, 8e-4, 4.0, 8)),
        ("P3", None, (0, 0.1, 6.0, 8)),
    ] + [
        ("P2", "grid", (3, 5e-5, 1.5, 8)),
        ("P2", "one-sided", (3, 5e-5, 1.5, 8)),
        ("P3", None, (3, 8e-4, 1.5, 8)),
    ] + [(policy, exclusion, None) for policy, exclusion in CURVES])
    def test_rule_error_within_bound(self, policy, exclusion, corner):
        self._check(policy, exclusion, NetworkParams() if corner is None else _corner(*corner))

    # P2 at a fixed serving distance, not averaged over it: at d0 = 0.02
    # r_los the log-panel radial rule graded from the disk edge was off by
    # 1.6e-3 at the first corner.
    @pytest.mark.parametrize("exclusion", analytic.P2_EXCLUSIONS)
    @pytest.mark.parametrize("corner", [(8, 0.1, 6.0, 8), (3, 5e-5, 1.5, 8), None])
    def test_p2_error_within_bound_at_fixed_serving_distance(self, exclusion, corner):
        params = NetworkParams() if corner is None else _corner(*corner)
        self._check("P2", exclusion, params, d0=(0.02, 0.2))
