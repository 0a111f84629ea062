import math

import numpy as np
import pytest

import field_oracle
from field_oracle import (PointField, associate_p1, associate_p2, associate_p3, compute_sinr,
                          integrate_2d, sample_ppp)
from mmwcov.geometry import angular_offset
from mmwcov.montecarlo import SimPlan, _Workspace, _policy_chunk, _chunk_rng
from mmwcov.numerics import integrate_1d
from mmwcov.radio import AntennaConfig, ChannelParams, beam_maxima_pmf, gain_3gpp, gain_approx


def _field(r, phi, params):
    return PointField(r=np.asarray(r, float), phi=np.asarray(phi, float),
                      ball_radius=params.r_los, density=params.density)


def _brute_force_p1(field, cfg, ch):
    best = None
    for i in range(field.n):
        for b, (d, _) in enumerate(beam_maxima_pmf(cfg)):
            off = angular_offset(field.phi[i], d)
            power = gain_approx(off, cfg) * field.r[i] ** (-ch.alpha_l)
            key = (-power, field.r[i], field.phi[i], b)
            if best is None or key < best[0]:
                best = (key, i, b)
    return best[1], best[2]


def _brute_force_p2(field, cfg):
    best = None
    for i in range(field.n):
        for b, (d, _) in enumerate(beam_maxima_pmf(cfg)):
            off = angular_offset(field.phi[i], d)
            key = (off, field.r[i], field.phi[i], b)
            if best is None or key < best[0]:
                best = (key, i, b)
    return best[1], best[2]


class TestPolicies:
    def test_single_point_all_policies(self, params):
        field = _field([30.0], [1.0], params)
        cfg, ch = params.antenna, params.channel
        for out in (associate_p1(field, cfg, ch), associate_p2(field, cfg),
                    associate_p3(field)):
            assert out.serving_index == 0
        out = associate_p1(field, cfg, ch)
        # the chosen beam is the nearest maximum to the transmitter azimuth
        dirs = np.array([d for d, _ in beam_maxima_pmf(cfg)])
        assert out.beam_direction == pytest.approx(dirs[np.argmin(np.abs(dirs - 1.0))])

    def test_p1_pure_pathloss_dominance(self, params):
        # same angular offset, different radii: closer one wins
        cfg, ch = params.antenna, params.channel
        d0 = beam_maxima_pmf(cfg)[0][0]
        field = _field([10.0, 20.0], [d0 + 0.1, d0 + 0.1], params)
        assert associate_p1(field, cfg, ch).serving_index == 0

    def test_p2_prefers_angle_over_distance(self, params):
        cfg = params.antenna
        d0 = beam_maxima_pmf(cfg)[0][0]
        field = _field([70.0, 5.0], [d0 + 0.05, d0 + 0.3], params)
        out = associate_p2(field, cfg)
        assert out.serving_index == 0
        assert out.serving_offset == pytest.approx(0.05)

    def test_p3_nearest(self, params):
        field = _field([5.0, 4.99], [0.3, 2.0], params)
        out = associate_p3(field)
        assert out.serving_index == 1
        assert out.serving_offset == 0.0

    def test_empty_field_rejected(self, params):
        field = _field([], [], params)
        with pytest.raises(ValueError):
            associate_p1(field, params.antenna, params.channel)
        with pytest.raises(ValueError):
            associate_p2(field, params.antenna)
        with pytest.raises(ValueError):
            associate_p3(field)

    def test_brute_force_oracles(self, params, rng):
        cfg, ch = params.antenna, params.channel
        for _ in range(300):
            field = sample_ppp(params.density, params.r_los, rng)
            i1, b1 = _brute_force_p1(field, cfg, ch)
            out1 = associate_p1(field, cfg, ch)
            assert (out1.serving_index, out1.beam_index - 1) == (i1, b1)
            i2, b2 = _brute_force_p2(field, cfg)
            out2 = associate_p2(field, cfg)
            assert (out2.serving_index, out2.beam_index - 1) == (i2, b2)
            i3 = min(range(field.n), key=lambda i: (field.r[i], field.phi[i]))
            assert associate_p3(field).serving_index == i3

    def test_p1_beats_p2_objective(self, params, rng):
        # P1 maximizes gain * pathloss over a superset of choices
        cfg, ch = params.antenna, params.channel
        for _ in range(100):
            field = sample_ppp(params.density, params.r_los, rng)
            out1 = associate_p1(field, cfg, ch)
            out2 = associate_p2(field, cfg)
            s1 = gain_approx(out1.serving_offset, cfg) * out1.serving.r ** (-ch.alpha_l)
            s2 = gain_approx(out2.serving_offset, cfg) * out2.serving.r ** (-ch.alpha_l)
            assert s1 >= s2 - 1e-15

    def test_p1_p3_agreement_grows_with_sectors(self, params, rng):
        rates = []
        for m in (2, 4):
            cfg = AntennaConfig(sectors_exp=m)
            agree = 0
            gen = np.random.default_rng(55)
            for _ in range(400):
                field = sample_ppp(params.density, params.r_los, gen)
                a1 = associate_p1(field, cfg, params.channel).serving_index
                a3 = associate_p3(field).serving_index
                agree += a1 == a3
            rates.append(agree / 400.0)
        assert rates[1] > rates[0]


class TestSinr:
    def test_isolated_server(self, params, rng):
        field = _field([25.0], [0.7], params)
        cfg, ch = params.antenna, params.channel
        out = associate_p3(field)
        s = compute_sinr(field, out, cfg, ch, rng)
        assert s.interference == 0.0
        assert s.sinr == pytest.approx(s.signal / ch.noise_w, rel=1e-12)

    def test_huge_noise_kills_sinr(self, params, rng):
        field = _field([25.0, 30.0], [0.7, 2.0], params)
        ch = ChannelParams(noise_w=1e12)
        out = associate_p3(field)
        s = compute_sinr(field, out, params.antenna, ch, rng)
        assert s.sinr < 1e-12

    def test_p3_signal_uses_boresight_squared(self, params, rng):
        field = _field([25.0], [0.7], params)
        cfg, ch = params.antenna, params.channel
        gen = np.random.default_rng(3)
        s = compute_sinr(field, associate_p3(field), cfg, ch, gen)
        h = np.random.default_rng(3).gamma(ch.m_s, 1.0 / ch.m_s)
        expected = ch.tx_power_w * h * cfg.g_max**2 * ch.path_gain_const * 25.0 ** (-ch.alpha_l)
        assert s.signal == pytest.approx(expected, rel=1e-12)

    def test_interferers_use_exact_pattern_and_signal_uses_branch(self, params, rng, monkeypatch):
        # scaling the exact pattern must scale interference only
        field = _field([20.0, 25.0, 40.0], [0.7, 1.5, 3.0], params)
        cfg, ch = params.antenna, params.channel
        out = associate_p1(field, cfg, ch)
        base = compute_sinr(field, out, cfg, ch, np.random.default_rng(5))
        monkeypatch.setattr(field_oracle, "gain_3gpp",
                            lambda d, c: 2.0 * gain_3gpp(d, c))
        scaled = compute_sinr(field, out, cfg, ch, np.random.default_rng(5))
        assert scaled.interference == pytest.approx(2.0 * base.interference, rel=1e-12)
        assert scaled.signal == pytest.approx(base.signal, rel=1e-12)

    def test_mismatched_outcome_rejected(self, params, rng):
        field = _field([25.0], [0.7], params)
        out = associate_p3(field)
        smaller = _field([], [], params)
        with pytest.raises(ValueError):
            compute_sinr(smaller, out, params.antenna, params.channel, rng)


class TestEngineConsistency:
    def test_vectorized_kernel_matches_per_field_functions(self, params):
        # the batched simulator must reproduce the reference association ops
        n = 400
        for policy in ("P1", "P2", "P3"):
            gen = _chunk_rng(909, 0)
            out = _policy_chunk(params, policy, n, gen, _Workspace())
            gen2 = _chunk_rng(909, 0)
            counts = gen2.poisson(params.mean_count, n)
            while (counts == 0).any():
                zero = counts == 0
                counts[zero] = gen2.poisson(params.mean_count, int(zero.sum()))
            total = int(counts.sum())
            r = params.r_los * np.sqrt(gen2.random(total))
            phi = 2.0 * math.pi * gen2.random(total)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            for t in range(0, n, 37):
                lo = starts[t]
                hi = lo + counts[t]
                field = PointField(r=r[lo:hi], phi=phi[lo:hi],
                                   ball_radius=params.r_los, density=params.density)
                if policy == "P1":
                    ref = associate_p1(field, params.antenna, params.channel)
                elif policy == "P2":
                    ref = associate_p2(field, params.antenna)
                else:
                    ref = associate_p3(field)
                assert out["serving_r"][t] == pytest.approx(ref.serving.r, rel=1e-12)

    def test_mean_interference_campbell_oracle(self, params):
        # P3 interference mean against the deconditioned Campbell integral
        cfg, ch = params.antenna, params.channel
        plan = SimPlan(params=params, policy="P3", thresholds_db=(0.0,),
                       n_trials=400_000, master_seed=77)
        from mmwcov.montecarlo import _map_chunks

        def work(ci, size, ws):
            return _policy_chunk(params, "P3", size, _chunk_rng(77, ci), ws)["interference_w"]

        inter = np.concatenate(_map_chunks(work, plan.n_trials, 4))
        lam, r_l = params.density, params.r_los
        norm = 1.0 - math.exp(-lam * math.pi * r_l**2)

        def conditional_mean(r1):
            ring = integrate_2d(
                lambda phi, rr: gain_3gpp(phi, cfg) * rr ** (1.0 - ch.alpha_l),
                -math.pi, math.pi, float(r1), r_l)
            return lam * ch.tx_power_w * cfg.g_max * ch.path_gain_const * ring

        expected = integrate_1d(
            np.vectorize(lambda r1: conditional_mean(r1)
                         * 2.0 * math.pi * lam * r1 * math.exp(-lam * math.pi * r1**2) / norm),
            0.0, r_l)
        assert inter.mean() == pytest.approx(expected, rel=0.01)
