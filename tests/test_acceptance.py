"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import json
import math
import time

import numpy as np
import pytest
from scipy import special

from mmwcov.analytic import (
    coverage_p1,
    coverage_p2,
    coverage_p3,
    laplace_p1,
    phi_c_pdf,
    serving_power_law,
)
from mmwcov.dominant import (
    build_discrepancy_report,
    coverage_dom_p2,
    coverage_dom_p3,
    gain_ratio_pdf_p2,
    pathloss_fade_ratio_pdf_p2,
)
from mmwcov.montecarlo import SimPlan, run_coverage, sample_statistic
from mmwcov.numerics import QuadratureSpec, integrate_1d
from mmwcov.radio import AntennaConfig, NetworkParams, gain_approx
from conftest import batch_fields, ecdf_2d, ks_distance, order_stat_per_field, sort_within_fields
from analytic_oracle import serving_power_quantile
from field_oracle import (abs_angular_cdf_nth, angular_cdf_nth, distance_ratio_pdf_p3,
                          joint_abs_angular_cdf, joint_distance_cdf, uniform_mainlobe_gain_pdf)

GAMMAS_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
N_MC = 200_000
N_KS = 10**6
KS_TOL = 0.002


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def params():
    return NetworkParams()


@pytest.fixture(scope="module")
def mc_curves(params):
    out = {}
    for policy in ("P1", "P2", "P3"):
        plan = SimPlan(params=params, policy=policy, thresholds_db=GAMMAS_DB,
                       n_trials=N_MC, master_seed=8_472_113)
        out[policy] = run_coverage(plan, n_workers=8)
    return out


@pytest.fixture(scope="module")
def analytic_curves(params):
    fns = {"P1": coverage_p1, "P2": coverage_p2, "P3": coverage_p3}
    return {policy: np.array([fn(10.0 ** (g / 10.0), params) for g in GAMMAS_DB])
            for policy, fn in fns.items()}


@pytest.fixture(scope="module")
def angle_fields(params):
    # one large field batch shared by every geometric law check
    return batch_fields(params.density, params.r_los, N_KS, seed=90_210)


def test_criterion_1_operating_point_anchor():
    # The quoted operating point (0.48 / 0.40 at a 0 dB threshold) belongs to
    # the two-sector receiver configuration; the four-sector default sits
    # visibly higher and both engines agree there (criterion 2).
    start = time.perf_counter()
    two_sector = NetworkParams(antenna=AntennaConfig(sectors_exp=1))
    c3 = coverage_p3(1.0, two_sector)
    c1 = coverage_p1(1.0, two_sector)
    elapsed = time.perf_counter() - start
    assert c3 == pytest.approx(0.48, abs=0.05)
    assert c1 == pytest.approx(0.40, abs=0.05)
    assert elapsed < 2 * 300.0
    _report(1, f"two-sector anchor: P3(0dB)={c3:.3f} (target 0.48+-0.05), "
               f"P1(0dB)={c1:.3f} (target 0.40+-0.05), {elapsed:.1f}s")


def test_criterion_2_cross_engine_agreement(mc_curves, analytic_curves):
    start = time.perf_counter()
    worst = {}
    for policy in ("P1", "P2", "P3"):
        mc = mc_curves[policy]
        gaps = np.abs(analytic_curves[policy] - mc.p_cov)
        bounds = np.maximum(0.015, 3.0 * mc.stderr)
        assert np.all(gaps < bounds), (policy, gaps, bounds)
        worst[policy] = float(gaps.max())
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    _report(2, "max |analytic - mc| per policy: "
               + ", ".join(f"{k}={v:.4f}" for k, v in worst.items())
               + f" (bound 0.015, n={N_MC})")


def test_criterion_3_distribution_oracles(params, angle_fields):
    counts, starts, radii, phi = angle_fields
    lam, r_l = params.density, params.r_los
    disk_mass = lam * math.pi * r_l**2
    results = {}
    # each value array sorted within its fields once; every order statistic
    # below is read from that sort
    phi_sorted = sort_within_fields(phi, counts)
    folded = sort_within_fields(np.minimum(phi, 2.0 * math.pi - phi), counts)
    radii = sort_within_fields(radii, counts)

    # one-directional angular order statistics, orders 1-3
    for n in (1, 2, 3):
        samples = np.sort(order_stat_per_field(phi_sorted, counts, starts, n))
        cdf = angular_cdf_nth(n, samples, r_l, lam) / special.gammainc(n, disk_mass)
        results[f"angle-order-{n}"] = ks_distance(samples, cdf)

    # absolute (two-sided) angular law
    samples = np.sort(order_stat_per_field(folded, counts, starts, 1))
    cdf = abs_angular_cdf_nth(1, samples, r_l, lam) / special.gammainc(1, disk_mass)
    results["abs-angle-order-1"] = ks_distance(samples, cdf)

    # joint law of the two smallest absolute angles (grid sup-distance)
    p1 = order_stat_per_field(folded, counts, starts, 1, min_count=2)
    p2 = order_stat_per_field(folded, counts, starts, 2)
    grid = np.linspace(0.0, math.pi, 51)
    emp = ecdf_2d(p1, p2, grid, grid)
    mass = joint_abs_angular_cdf(math.pi, math.pi, r_l, lam)
    ana = joint_abs_angular_cdf(np.minimum(grid[1:, None], grid[None, 1:]),
                                grid[None, 1:], r_l, lam) / mass
    results["joint-abs-angles"] = float(np.max(np.abs(emp - ana)))

    # joint law of the two smallest distances
    r1 = order_stat_per_field(radii, counts, starts, 1, min_count=2)
    r2 = order_stat_per_field(radii, counts, starts, 2)
    grid_r = np.linspace(0.0, r_l, 51)
    emp = ecdf_2d(r1, r2, grid_r, grid_r)
    mass = joint_distance_cdf(r_l, r_l, lam)
    ana = joint_distance_cdf(np.minimum(grid_r[1:, None], grid_r[None, 1:]),
                             grid_r[None, 1:], lam) / mass
    results["joint-distances"] = float(np.max(np.abs(emp - ana)))

    # serving-power law under max-power association
    plan = SimPlan(params=params, policy="P1", thresholds_db=(0.0,),
                   n_trials=N_KS, master_seed=515_131)
    s_samples, _ = sample_statistic(plan, "S", n_workers=8)
    s_samples = np.sort(s_samples)
    law = serving_power_law(params)
    results["serving-power"] = ks_distance(s_samples, law.cdf(s_samples))

    # minimum angular distance law
    plan = SimPlan(params=params, policy="P2", thresholds_db=(0.0,),
                   n_trials=N_KS, master_seed=515_132)
    pc_samples, _ = sample_statistic(plan, "phi_c", n_workers=8)
    pc_samples = np.sort(pc_samples)
    rate = lam * params.antenna.n_beams * r_l**2
    cdf = (1.0 - np.exp(-rate * pc_samples)) / (1.0 - params.void_probability)
    results["min-angular-distance"] = ks_distance(pc_samples, cdf)

    # mainlobe gain at a uniform offset
    cfg = params.antenna
    gen = np.random.default_rng(515_133)
    g_samples = np.sort(gain_approx(gen.uniform(0.0, cfg.phi_a, N_KS), cfg))
    offset = 0.5 * cfg.phi_3db * np.sqrt((10.0 / 3.0) * np.log10(cfg.g_max / g_samples))
    results["uniform-mainlobe-gain"] = ks_distance(g_samples, 1.0 - offset / cfg.phi_a)

    assert all(v < KS_TOL for v in results.values()), results
    _report(3, "KS at 1e6 samples: "
               + ", ".join(f"{k}={v:.5f}" for k, v in results.items())
               + f" (bound {KS_TOL})")


def test_criterion_4_orderings(params, mc_curves, analytic_curves):
    # policy ordering from the aggregate engines
    se = {k: mc_curves[k].stderr for k in mc_curves}
    assert np.all(analytic_curves["P3"] >= analytic_curves["P1"]
                  - 3.0 * (se["P1"] + se["P3"]))
    assert np.all(analytic_curves["P1"] >= analytic_curves["P2"]
                  - 3.0 * (se["P1"] + se["P2"]))

    # dominant-interferer coverage bounds the aggregate coverage from above
    dom2 = np.array([coverage_dom_p2(10.0 ** (g / 10.0), params) for g in GAMMAS_DB])
    dom3 = np.array([coverage_dom_p3(10.0 ** (g / 10.0), params) for g in GAMMAS_DB])
    assert np.all(dom2 >= mc_curves["P2"].p_cov - 3.0 * se["P2"])
    assert np.all(dom3 >= mc_curves["P3"].p_cov - 3.0 * se["P3"])

    # the angle-based dominant model tracks the full max-power coverage closer
    gaps = {}
    for g_db in (0.0, 5.0):
        gamma = 10.0 ** (g_db / 10.0)
        p1 = coverage_p1(gamma, params)
        gap2 = abs(coverage_dom_p2(gamma, params) - p1)
        gap3 = abs(coverage_dom_p3(gamma, params) - p1)
        assert gap2 <= gap3
        gaps[g_db] = (gap2, gap3)
    _report(4, "orderings hold; dominant-model gaps to the max-power curve: "
               + ", ".join(f"{g:+.0f}dB: angle={a:.3f} <= euclid={b:.3f}"
                           for g, (a, b) in gaps.items()))


def test_criterion_5_sector_convergence(params):
    gaps = {}
    for m in (2, 4):
        p = NetworkParams(antenna=AntennaConfig(sectors_exp=m))
        gap = max(abs(coverage_p1(10.0 ** (g / 10.0), p) - coverage_p3(10.0 ** (g / 10.0), p))
                  for g in GAMMAS_DB)
        gaps[m] = gap
    assert gaps[4] < gaps[2]
    _report(5, f"max-over-threshold P1/P3 gap: m=2 -> {gaps[2]:.4f}, "
               f"m=4 -> {gaps[4]:.4f} (strictly decreasing)")


def test_criterion_6_numerical_self_consistency(params):
    # (a) the first scaled exponent term, t_1 = -s F'(s), against central
    # finite differences of t_0 = F
    law = serving_power_law(params)
    gen = np.random.default_rng(61_803)
    worst_fd = 0.0
    for _ in range(10):
        s_th = serving_power_quantile(law, gen.uniform(0.05, 0.95))
        s = 10.0 ** gen.uniform(3.0, 5.5)
        exponent = laplace_p1(s_th, params)
        h = 1e-5 * s
        fd = (exponent(s + h)[0] - exponent(s - h)[0]) / (2.0 * h)
        got = -exponent(s, 1)[1] / s
        rel = abs(got - fd) / abs(fd)
        worst_fd = max(worst_fd, rel)
        assert rel < 1e-4

    # (b) analytic densities nonnegative and normalized at stated tolerances
    spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10, max_subdivisions=20_000)
    masses = {
        "serving-power": (integrate_1d(law.pdf, law.w_min, math.inf, spec), 1e-6),
        "min-angular-distance": (integrate_1d(
            lambda x: phi_c_pdf(x, params),
            0.0, 0.5 * params.antenna.beam_spacing, spec), 1e-6),
        "gain-ratio": (integrate_1d(
            lambda g: gain_ratio_pdf_p2(g, params), 1.0,
            params.antenna.g_max / params.antenna.g_s, spec), 1e-4),
        "pathloss-fade-ratio": (integrate_1d(
            np.vectorize(lambda w: pathloss_fade_ratio_pdf_p2(float(w), params)),
            0.0, math.inf, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9,
                                          max_subdivisions=20_000)), 1e-4),
        "distance-ratio": (integrate_1d(
            lambda w: distance_ratio_pdf_p3(w, params), 1.0, math.inf, spec), 1e-6),
    }
    for name, (mass, tol) in masses.items():
        assert mass == pytest.approx(1.0, abs=tol), name
    grids = {
        "serving-power": (law.pdf(np.linspace(law.w_min, 1.0, 301))),
        "gain-ratio": gain_ratio_pdf_p2(np.linspace(1.0 + 1e-9, 1000.0, 101), params),
        "uniform-mainlobe-gain": uniform_mainlobe_gain_pdf(
            np.linspace(1e-3, 11.0, 301), params),
    }
    for name, vals in grids.items():
        assert np.all(np.asarray(vals) >= 0.0), name

    # (c) bit-identical Monte Carlo results for any worker count
    plans = SimPlan(params=params, policy="P1", thresholds_db=GAMMAS_DB,
                    n_trials=30_000, master_seed=997)
    curves = [run_coverage(plans, n_workers=w) for w in (1, 4, 16)]
    assert all(c.p_cov.tobytes() == curves[0].p_cov.tobytes() for c in curves[1:])
    _report(6, f"FD worst rel err {worst_fd:.2e} (bound 1e-4); "
               f"{len(masses)} densities normalized; MC byte-identical for 1/4/16 workers")


def test_criterion_7_discrepancy_reporting(params, tmp_path):
    report = build_discrepancy_report(params, seed=314_159, n_trials=100_000)
    path = tmp_path / "discrepancies.json"
    path.write_text(json.dumps(report, indent=2))
    parsed = json.loads(path.read_text())
    ids = {entry["id"] for entry in parsed}
    assert ids == {
        "p2-gain-ratio-density",
        "p3-distance-ratio-constant",
        "p3-dominant-sir-pairing",
        "p1-interference-exclusion-region",
        "p2-interference-exclusion-region",
    }
    by_id = {e["id"]: e for e in parsed}

    # each arbitration carries decisive numeric evidence for the shipped form
    gain = by_id["p2-gain-ratio-density"]["evidence"]
    assert gain["ks_implemented_vs_mc"] < 0.01
    assert abs(gain["rejected_mass"] - 1.0) > 0.5

    dist = by_id["p3-distance-ratio-constant"]["evidence"]
    assert dist["ks_implemented_vs_mc"] < 0.01
    assert abs(dist["rejected_total_mass"] - 1.0) > 1.0

    pair = by_id["p3-dominant-sir-pairing"]["evidence"]["coverage"]
    assert abs(pair["+0dB"]["product_pairing"] - pair["+0dB"]["mc"]) < 0.01
    assert pair["-3dB"]["self_pairing"] == 1.0
    assert abs(pair["-3dB"]["self_pairing"] - pair["-3dB"]["mc"]) > 0.02

    for rid in ("p1-interference-exclusion-region", "p2-interference-exclusion-region"):
        cov = by_id[rid]["evidence"]["coverage"]
        for point in cov.values():
            keep_gap = abs(point["implemented"] - point["mc"])
            drop_gap = abs(point["rejected"] - point["mc"])
            assert keep_gap <= max(0.015, 3.0 * point["mc_stderr"])
            assert keep_gap <= drop_gap
    _report(7, f"{len(parsed)} arbitration entries with decisive evidence "
               f"written to machine-readable JSON")
