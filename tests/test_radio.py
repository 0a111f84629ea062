import math
import threading

import numpy as np
import pytest
from scipy import constants, special

from mmwcov import radio
from mmwcov.numerics import integrate_1d, QuadratureSpec
from mmwcov.radio import (
    TWO_PI,
    _gain_3gpp_core,
    _mainlobe_core,
    _pow10,
    AntennaConfig,
    ChannelParams,
    NetworkParams,
    gain_3gpp,
    gain_approx,
    sample_fading,
)
from conftest import ks_distance
from field_oracle import beam_maxima_pmf, formula_gain_3gpp, gain_pdf_mainlobe, path_loss


@pytest.fixture(scope="module")
def cfg():
    return AntennaConfig()


class TestGainPatterns:
    def test_boresight(self, cfg):
        assert gain_3gpp(0.0, cfg) == pytest.approx(cfg.g_max, rel=1e-14)
        assert gain_approx(0.0, cfg) == pytest.approx(cfg.g_max, rel=1e-14)

    def test_half_power_point(self, cfg):
        # 12 * (1/2)**2 = 3 dB exactly
        expected = cfg.g_max * 10.0 ** (-0.3)
        assert gain_3gpp(cfg.phi_3db / 2.0, cfg) == pytest.approx(expected, rel=1e-14)
        assert gain_approx(cfg.phi_3db / 2.0, cfg) == pytest.approx(expected, rel=1e-14)

    def test_floor(self, cfg):
        assert gain_3gpp(math.pi, cfg) == pytest.approx(cfg.g_max * 1e-3, rel=1e-14)
        assert gain_approx(math.pi, cfg) == pytest.approx(cfg.g_s, rel=1e-14)

    def test_transition_angle_closed_form(self):
        cfg = AntennaConfig(phi_3db=math.pi / 2.0, sla_db=30.0)
        assert cfg.phi_a == pytest.approx((math.pi / 4.0) * math.sqrt(10.0), rel=1e-12)

    def test_approximation_envelope(self, cfg):
        # regression bounds from a one-time scan: the two forms coincide
        grid = np.linspace(0.0, math.pi, 4001)
        exact = gain_3gpp(grid, cfg)
        approx = gain_approx(grid, cfg)
        assert np.all(approx <= exact * 10.0 ** 0.05)
        assert np.all(approx >= exact * 10.0 ** (-0.35))
        np.testing.assert_allclose(approx, exact, rtol=1e-12)

    def test_even_and_nonincreasing(self, cfg):
        grid = np.linspace(0.0, cfg.phi_a, 1001)
        for fn in (gain_3gpp, gain_approx):
            np.testing.assert_allclose(fn(-grid, cfg), fn(grid, cfg))
            vals = fn(grid, cfg)
            assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("sectors_exp, narrow", [(0, False), (2, False), (5, True), (8, False)])
    def test_array_bits_match_the_closed_forms(self, sectors_exp, narrow):
        # the in-place cores the Monte Carlo kernel shares give the formulas' bits
        cfg = AntennaConfig(sectors_exp=sectors_exp, sla_db=20.0,
                            phi_3db=0.3 * TWO_PI / 2**sectors_exp if narrow else None)
        x = np.concatenate([[np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, cfg.phi_a, math.pi],
                            np.random.default_rng(sectors_exp).uniform(-4.0, 4.0, 2000)])
        for arr in (x, x.reshape(2, -1)):
            d = np.abs(arr)
            exact = 10.0 ** ((cfg.g_max_db - np.minimum(12.0 * (d / cfg.phi_3db) ** 2,
                                                        cfg.sla_db)) / 10.0)
            main = cfg.g_max * 10.0 ** (-0.3 * (2.0 * d / cfg.phi_3db) ** 2)
            assert gain_3gpp(arr, cfg).tobytes() == exact.tobytes()
            assert gain_approx(arr, cfg).tobytes() == np.where(d <= cfg.phi_a, main,
                                                               cfg.g_s).tobytes()

    def test_scalar_is_the_one_element_array(self, cfg):
        for x in np.random.default_rng(3).uniform(-4.0, 4.0, 500):
            for fn in (gain_3gpp, gain_approx):
                got = fn(float(x), cfg)
                assert type(got) is float
                assert got == fn(np.array([x]), cfg)[0] == fn(np.float64(x), cfg)

    def test_vector_base_is_the_scalar_base_bit_for_bit(self):
        # the gain exponents of every pattern lie in [-3, 1.5] at the defaults;
        # more values than one base array holds, and the special values
        x = np.concatenate([np.random.default_rng(14).uniform(-3.0, 1.5, 1_200_000),
                            [0.0, -0.0, np.nan, np.inf, -np.inf, -400.0, 400.0, -310.0, 5e-324]])
        assert x.size > radio._TENS.size
        with np.errstate(over="ignore"):
            assert _pow10(x.copy()).tobytes() == np.power(10.0, x).tobytes()
        zero_d = np.array(-0.37)
        assert _pow10(zero_d) is zero_d and zero_d.tobytes() == np.power(10.0, -0.37).tobytes()
        # a Fortran-ordered block and a strided view are written in place too
        block = x[:3000].reshape(30, 100).copy(order="F")
        assert _pow10(block).tobytes() == np.power(10.0, x[:3000].reshape(30, 100)).tobytes(
            order="A")
        y = x[:6000].copy()
        _pow10(y[::2])
        assert y[::2].tobytes() == np.power(10.0, x[:6000:2]).tobytes()
        assert y[1::2].tobytes() == x[1:6000:2].tobytes()
        assert _pow10(np.empty(0)).size == 0

    def test_vector_base_cores_match_the_formulas_on_many_offsets(self, cfg):
        d = np.random.default_rng(15).uniform(0.0, math.pi, 1_000_000)
        main = cfg.g_max * np.power(10.0, -0.3 * (2.0 * d / cfg.phi_3db) ** 2)
        assert _gain_3gpp_core(d, cfg, np.empty_like(d)).tobytes() == \
            formula_gain_3gpp(d, cfg).tobytes()
        assert _mainlobe_core(d, cfg, np.empty_like(d)).tobytes() == main.tobytes()
        for x in (0.0, 0.2, cfg.phi_a, math.pi):
            got = _gain_3gpp_core(np.array(x), cfg, np.empty(()))
            assert got.shape == () and got.tobytes() == formula_gain_3gpp(np.array(x), cfg).tobytes()

    def test_base_array_is_read_only_and_shared_between_threads(self):
        assert not radio._TENS.flags.writeable
        gen = np.random.default_rng(16)
        inputs = [gen.uniform(-3.0, 1.5, size) for size in (10, 5000, 70_000, 300_000) * 4]
        results = [None] * len(inputs)

        def work(i):
            results[i] = _pow10(inputs[i].copy())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert all(got.tobytes() == np.power(10.0, x).tobytes() for got, x in zip(results, inputs))
        assert np.all(radio._TENS == 10.0)

    def test_phi_a_clamped_to_pi(self):
        cfg = AntennaConfig(sectors_exp=0)   # phi_3db = 2*pi
        assert cfg.phi_a == pytest.approx(math.pi)


class TestBeamGrid:
    def test_four_beams(self):
        cfg = AntennaConfig(sectors_exp=2)
        pmf = beam_maxima_pmf(cfg)
        dirs = [d for d, _ in pmf]
        probs = [p for _, p in pmf]
        np.testing.assert_allclose(dirs, [math.pi / 4, 3 * math.pi / 4,
                                          5 * math.pi / 4, 7 * math.pi / 4])
        np.testing.assert_allclose(probs, [0.25] * 4)

    def test_single_beam(self):
        pmf = beam_maxima_pmf(AntennaConfig(sectors_exp=0))
        assert pmf == [(math.pi, 1.0)]

    def test_probabilities_sum_to_one(self):
        for m in range(0, 6):
            pmf = beam_maxima_pmf(AntennaConfig(sectors_exp=m))
            assert sum(p for _, p in pmf) == pytest.approx(1.0, rel=1e-14)

    def test_equally_spaced(self):
        for m in (1, 2, 4):
            cfg = AntennaConfig(sectors_exp=m)
            dirs = np.array([d for d, _ in beam_maxima_pmf(cfg)])
            np.testing.assert_allclose(np.diff(dirs), 2.0 * math.pi / cfg.n_beams)


class TestPathLoss:
    def test_unit_distance(self):
        ch = ChannelParams()
        assert path_loss(1.0, ch) == pytest.approx(ch.path_gain_const, rel=1e-14)

    def test_constant_value(self):
        # oracle: (c / (4 pi f_c))**2 at 26.5 GHz
        ch = ChannelParams(f_c=26.5e9)
        expected = (constants.c / (4.0 * math.pi * 26.5e9)) ** 2
        assert ch.path_gain_const == expected
        assert ch.path_gain_const == pytest.approx(8.12e-7, rel=5e-3)

    def test_square_law(self):
        ch = ChannelParams(alpha_l=2.0)
        assert path_loss(20.0, ch) / path_loss(10.0, ch) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, ChannelParams())


class TestFading:
    def test_unit_mean_rayleigh(self, rng):
        h = sample_fading(1, rng, size=10**6)
        assert abs(h.mean() - 1.0) < 0.003

    def test_variance_shape_two(self, rng):
        # Gamma(m, 1/m) variance is 1/m
        h = sample_fading(2, rng, size=10**6)
        assert abs(h.var() - 0.5) < 0.005

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_mean_within_four_sigma(self, m, rng):
        n = 10**6
        h = sample_fading(m, rng, size=n)
        sigma = math.sqrt(1.0 / m / n)
        assert abs(h.mean() - 1.0) < 4.0 * sigma

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_ks_against_gamma_cdf(self, m, rng):
        n = 10**6
        h = np.sort(sample_fading(m, rng, size=n))
        cdf = special.gammainc(m, m * h)
        assert ks_distance(h, cdf) < 0.002

    def test_rejects_invalid_shape(self, rng):
        with pytest.raises(ValueError):
            sample_fading(0, rng)


class TestMainlobeGainDensity:
    def test_normalization(self, cfg):
        # quadrature up to a hair below the integrable divergence at g_max,
        # plus the closed-form mass of the clipped sliver
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=20_000)
        upper = cfg.g_max * (1.0 - 1e-13)
        mass = integrate_1d(lambda x: gain_pdf_mainlobe(x, cfg), cfg.g_3db, upper, spec)
        offset = cfg.phi_3db * math.sqrt((cfg.g_max_db - 10.0 * math.log10(upper)) / 12.0)
        tail = offset / (cfg.phi_3db / 2.0)
        assert mass + tail == pytest.approx(1.0, abs=1e-8)

    def test_outside_support_is_zero(self, cfg):
        assert gain_pdf_mainlobe(cfg.g_3db * 0.5, cfg) == 0.0
        assert gain_pdf_mainlobe(cfg.g_max * 1.01, cfg) == 0.0

    def test_matches_sampled_gains(self, cfg, rng):
        # cdf of the gain has the closed form 1 - offset(g) / (phi_3db / 2)
        n = 2 * 10**5
        phi = rng.uniform(0.0, cfg.phi_3db / 2.0, n)
        g = np.sort(gain_approx(phi, cfg))
        offset = cfg.phi_3db * np.sqrt((cfg.g_max_db - 10.0 * np.log10(g)) / 12.0)
        cdf = 1.0 - offset / (cfg.phi_3db / 2.0)
        assert ks_distance(g, cdf) < 0.005

    def test_pdf_integrates_cdf(self, cfg):
        # quadrature of the density reproduces the closed-form cdf mid-support
        x0 = 0.5 * (cfg.g_3db + cfg.g_max)
        mass = integrate_1d(lambda x: gain_pdf_mainlobe(x, cfg), cfg.g_3db, x0)
        offset = cfg.phi_3db * math.sqrt((cfg.g_max_db - 10.0 * math.log10(x0)) / 12.0)
        assert mass == pytest.approx(1.0 - offset / (cfg.phi_3db / 2.0), abs=1e-9)


class TestParameterTypes:
    def test_antenna_validation(self):
        with pytest.raises(ValueError):
            AntennaConfig(sectors_exp=-1)
        with pytest.raises(ValueError):
            AntennaConfig(sla_db=0.0)
        with pytest.raises(ValueError):
            AntennaConfig(phi_3db=0.0)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(alpha_l=0.0)
        with pytest.raises(ValueError):
            ChannelParams(m_s=0)
        with pytest.warns(UserWarning):
            ChannelParams(alpha_l=3.0)

    def test_network_defaults(self):
        p = NetworkParams()
        assert p.density == pytest.approx(8e-4)
        assert p.r_los == pytest.approx(75.0)
        assert p.mean_count == pytest.approx(8e-4 * math.pi * 75.0**2, rel=1e-12)
        assert p.channel.tx_power_w == pytest.approx(10.0 ** 1.5, rel=1e-12)
        assert p.channel.noise_w == pytest.approx(10.0 ** (-10.4), rel=1e-12)
