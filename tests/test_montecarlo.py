import gc
import hashlib
import itertools
import math
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from mmwcov.analytic import serving_power_law
from dataclasses import replace

from mmwcov.geometry import TWO_PI, angular_offset
from mmwcov import montecarlo
from mmwcov.montecarlo import (
    CHUNK_POINT_BUDGET,
    CHUNK_TRIALS,
    SimPlan,
    _Workspace,
    _chunk_rng,
    _chunk_sizes,
    _curve_chunk,
    _field_chunk,
    _grid_offset,
    _p1_candidates,
    _policy_chunk,
    _select,
    _two_smallest,
    default_power_levels,
    run_coverage,
    run_coverages,
    run_power_ccdf,
    run_power_ccdfs,
    sample_statistic,
)
from mmwcov.radio import AntennaConfig, ChannelParams, NetworkParams

from field_oracle import (ConditioningError, formula_gain_approx, full_scan_chunk,
                          run_histogram, sample_conditioned_interference)

GAMMAS = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0)


def _plan(params, policy, n=50_000, seed=1001, gammas=GAMMAS):
    return SimPlan(params=params, policy=policy, thresholds_db=gammas,
                   n_trials=n, master_seed=seed)


class TestPlanValidation:
    def test_rejects_bad_policy(self, params):
        with pytest.raises(ValueError):
            SimPlan(params=params, policy="P9", thresholds_db=(0.0,),
                    n_trials=10, master_seed=0)

    def test_rejects_unsorted_thresholds(self, params):
        with pytest.raises(ValueError):
            SimPlan(params=params, policy="P1", thresholds_db=(1.0, 0.0),
                    n_trials=10, master_seed=0)

    def test_rejects_zero_trials(self, params):
        with pytest.raises(ValueError):
            SimPlan(params=params, policy="P1", thresholds_db=(0.0,),
                    n_trials=0, master_seed=0)

    def test_rejects_chunks_over_the_point_budget(self):
        # only the plan is built: the refusal comes before any array exists
        dense = NetworkParams(density=1.0)
        with pytest.raises(ValueError, match=r"density 1 /m\^2 .*r_los 75 m expects "
                                             r"7\.24e\+07 points .*budget of 8388608"):
            SimPlan(params=dense, policy="P1", thresholds_db=(0.0,),
                    n_trials=10, master_seed=0)
        edge = CHUNK_POINT_BUDGET / (math.pi * 75.0**2 * CHUNK_TRIALS)
        SimPlan(params=NetworkParams(density=edge * 0.999), policy="P1",
                thresholds_db=(0.0,), n_trials=10, master_seed=0)


def _quantized_segments(seed, n_seg=3000):
    """Segment layout with some one-point segments and few distinct values,
    so exact ties (down to equal radius and azimuth) are common."""
    gen = np.random.default_rng(seed)
    counts = gen.integers(1, 7, n_seg)
    counts[::9] = 1
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    seg = np.repeat(np.arange(n_seg), counts)
    key, r, phi = (gen.integers(0, q, seg.size).astype(float) for q in (3, 2, 2))
    return counts, starts, seg, key, r, phi


class TestSelection:
    @pytest.mark.parametrize("case", ["max", "min", "nearest"])
    def test_select_matches_lexsort_oracle(self, case):
        _, starts, seg, key, r, phi = _quantized_segments(11)
        if case == "max":
            got = _select(np.maximum, key, (r, phi), seg, starts, _Workspace())
            want = np.lexsort((phi, r, -key, seg))[starts]
        elif case == "min":
            got = _select(np.minimum, key, (r, phi), seg, starts, _Workspace())
            want = np.lexsort((phi, r, key, seg))[starts]
        else:
            key = r
            got = _select(np.minimum, r, (phi,), seg, starts, _Workspace())
            want = np.lexsort((phi, r, seg))[starts]
        np.testing.assert_array_equal(got, want)
        # the tie fallback ran, and some ties were settled only by the index
        assert (np.add.reduceat(key == key[want][seg], starts) > 1).any()
        same = (key == key[want][seg]) & (r == r[want][seg]) & (phi == phi[want][seg])
        assert (np.add.reduceat(same, starts) > 1).any()

    def test_two_smallest_matches_lexsort_oracle(self):
        counts, starts, seg, key, _, _ = _quantized_segments(12)
        ok, first, second = _two_smallest(key, seg, starts, counts, _Workspace())
        order = np.lexsort((key, seg))
        np.testing.assert_array_equal(ok, counts >= 2)
        np.testing.assert_array_equal(first, order[starts[ok]])
        np.testing.assert_array_equal(second, order[starts[ok] + 1])
        assert (key[first] == key[second]).any()


class TestCoverage:
    def test_zero_linear_threshold_is_certain(self, params):
        curve = run_coverage(_plan(params, "P3", n=5_000, gammas=(-math.inf, 0.0)))
        assert curve.p_cov[0] == 1.0

    def test_huge_threshold_rare(self, params):
        curve = run_coverage(_plan(params, "P3", n=20_000, gammas=(60.0,)))
        assert curve.p_cov[0] <= 0.01

    @pytest.mark.parametrize("policy", ["P1", "P2", "P3"])
    def test_monotone_in_threshold(self, params, policy):
        curve = run_coverage(_plan(params, policy))
        slack = 2.0 * (curve.stderr[:-1] + curve.stderr[1:])
        assert np.all(np.diff(curve.p_cov) <= slack)

    def test_p1_dominates_p2(self, params):
        g = (-5.0, 0.0, 5.0)
        c1 = run_coverage(_plan(params, "P1", n=100_000, gammas=g))
        c2 = run_coverage(_plan(params, "P2", n=100_000, gammas=g))
        assert np.all(c1.p_cov >= c2.p_cov - 3.0 * (c1.stderr + c2.stderr))

    def test_worker_count_determinism(self, params):
        curves = [run_coverage(_plan(params, "P1", n=30_000), n_workers=w)
                  for w in (1, 4, 16)]
        base = curves[0].p_cov.tobytes()
        assert all(c.p_cov.tobytes() == base for c in curves[1:])
        assert all(c.stderr.tobytes() == curves[0].stderr.tobytes() for c in curves[1:])

    def test_seed_changes_results(self, params):
        c1 = run_coverage(_plan(params, "P1", n=20_000, seed=1))
        c2 = run_coverage(_plan(params, "P1", n=20_000, seed=2))
        assert c1.p_cov.tobytes() != c2.p_cov.tobytes()


def _oracle_sample_batch(params, n, rng):
    """The field draw as the package made it with fresh arrays: ``n`` nonempty
    fields in flat segment layout."""
    mean = params.mean_count
    counts = rng.poisson(mean, n)
    empty = counts == 0
    while empty.any():
        counts[empty] = rng.poisson(mean, int(empty.sum()))
        empty = counts == 0
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    seg = np.repeat(np.arange(n), counts)
    total = int(counts.sum())
    r = params.r_los * np.sqrt(rng.random(total))
    phi = TWO_PI * rng.random(total)
    return counts, starts, seg, r, phi


def _oracle_fading(m, rng, size):
    return rng.gamma(shape=float(m), scale=1.0 / float(m), size=size)


def _oracle_field(params, n, rng):
    """The chunk draw into fresh arrays: fields, fades and ``r**-alpha``."""
    ch = params.channel
    counts, starts, seg, r, phi = _oracle_sample_batch(params, n, rng)
    h_s = _oracle_fading(ch.m_s, rng, n)
    h_x = _oracle_fading(ch.m_x, rng, r.size)
    return counts, starts, seg, r, phi, h_s, h_x, r ** (-ch.alpha_l)


def _oracle_policy_chunk(params, policy, n, rng):
    """One chunk of one policy as a single curve computes it: its own draw
    into fresh arrays, every point scanned (``field_oracle.full_scan_chunk``)."""
    return full_scan_chunk(params, policy, _oracle_field(params, n, rng))


def _oracle_coverage(plan):
    """(p_cov, stderr) of one plan, every chunk drawn for it alone."""
    gammas_db = np.asarray(plan.thresholds_db, dtype=float)
    gammas = np.where(np.isneginf(gammas_db), 0.0, 10.0 ** (gammas_db / 10.0))
    counts = sum((_oracle_policy_chunk(plan.params, plan.policy, size,
                                       _chunk_rng(plan.master_seed, ci))["sinr"][:, None]
                  > gammas[None, :]).sum(axis=0)
                 for ci, size in enumerate(_chunk_sizes(plan.n_trials)))
    p = counts / plan.n_trials
    return p, np.sqrt(p * (1.0 - p) / plan.n_trials)


def _antenna(sectors_exp, **kwargs):
    return NetworkParams(antenna=AntennaConfig(sectors_exp=sectors_exp, **kwargs))


# Curves on one draw: the beam grid changes and returns (s1, s3, s1), two
# antennas share a grid spacing, and the thresholds differ between curves.
_MIXED = (
    (_antenna(1), "P1", GAMMAS),
    (_antenna(3), "P2", GAMMAS),
    (_antenna(1), "P3", (-math.inf, 0.0, 7.5)),
    (_antenna(0), "P3", GAMMAS),
    (_antenna(0), "P1", (3.0,)),
    (_antenna(3), "P1", GAMMAS),
    (_antenna(1, g_max_db=12.0, sla_db=20.0), "P2", GAMMAS),
    (_antenna(0), "P2", (-5.0, 5.0)),
    (_antenna(3), "P3", GAMMAS),
)
# P3 curves on different grids share the P3 memo (winner and interferer
# offsets) across a curve that replaces the grid offsets.
_P3_MEMO = (
    (_antenna(1), "P3", GAMMAS),
    (_antenna(3), "P1", GAMMAS),
    (_antenna(1, sla_db=20.0), "P3", (-5.0, 2.5)),
)
_MIXED_TRIALS = 2 * CHUNK_TRIALS + 321      # the last chunk is a short one


def _case(sectors_exp, variant):
    """Parameters of one kernel-oracle case: a beam grid and one corner of the box."""
    spacing = TWO_PI / 2**sectors_exp
    antenna = AntennaConfig(sectors_exp=sectors_exp,
                            phi_3db=0.3 * spacing if variant == "narrow" else None)
    channel = ChannelParams(alpha_l=2.5, m_x=3) if variant == "alpha" else ChannelParams()
    return NetworkParams(density=4e-4 if variant == "sparse" else 1.6e-3,
                         antenna=antenna, channel=channel)


# the default case of each parameter set keeps the plain id
_MIXES = [pytest.param(mix, n_workers, id=f"{name}{n_workers}")
          for name, mix in (("", _MIXED), ("p3_memo-", _P3_MEMO)) for n_workers in (1, 2)]
_KERNEL_CASES = [
    pytest.param(policy, sectors_exp, variant,
                 id=f"{policy}-{sectors_exp}" + ("" if variant == "default" else f"-{variant}"))
    for policy in ("P1", "P2", "P3") for sectors_exp in range(9)
    for variant in ("default", "narrow", "alpha", "sparse")]


class TestSharedDraw:
    @pytest.mark.parametrize("mix, n_workers", _MIXES)
    def test_curves_match_per_plan_oracle_bitwise(self, mix, n_workers):
        plans = [_plan(params, policy, n=_MIXED_TRIALS, seed=515, gammas=gammas)
                 for params, policy, gammas in mix]
        curves = run_coverages(plans, n_workers=n_workers)
        assert len(curves) == len(plans)
        for plan, curve in zip(plans, curves):
            p, stderr = _oracle_coverage(plan)
            assert curve.policy == plan.policy and curve.n == _MIXED_TRIALS
            assert curve.p_cov.tobytes() == p.tobytes(), plan
            assert curve.stderr.tobytes() == stderr.tobytes(), plan

    @pytest.mark.parametrize("policy, sectors_exp, variant", _KERNEL_CASES)
    def test_policy_chunk_matches_oracle_bitwise(self, policy, sectors_exp, variant):
        # "narrow" puts grid offsets on the P1 floor; a full chunk and then a
        # short one run on one workspace, and the first result must survive it
        params = _case(sectors_exp, variant)
        ws = _Workspace()
        results = []
        for ci, size in ((2, CHUNK_TRIALS), (3, 777)):
            got = _policy_chunk(params, policy, size, _chunk_rng(516, ci), ws)
            results.append((got, {k: v.copy() for k, v in got.items()}, ci, size))
        for got, _, ci, size in results:
            want = _oracle_policy_chunk(params, policy, size, _chunk_rng(516, ci))
            assert set(got) == set(want)
            for name in ("sinr", "s_norm", "phi_c", "serving_r", "serving_offset",
                         "interference_w"):
                if name in want:
                    assert got[name].tobytes() == want[name].tobytes(), name
        got, copy, _, _ = results[0]
        assert all(got[k].tobytes() == copy[k].tobytes() for k in got)

    def test_narrow_variant_reaches_the_p1_floor(self):
        params = _case(3, "narrow")
        assert 0.5 * params.antenna.beam_spacing > params.antenna.phi_a

    @pytest.mark.parametrize("sectors_exp", range(9))
    def test_grid_offset_is_bitwise_remainder(self, sectors_exp):
        step = TWO_PI / 2**sectors_exp
        k = np.arange(2**sectors_exp + 1)
        edges = np.concatenate([k * step, k * step + 0.5 * step, k * step - 0.5 * step])
        edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf)])
        uniform = TWO_PI * np.random.default_rng(sectors_exp).random(1_000_000)
        for phi in (edges[(edges >= 0.0) & (edges < TWO_PI)], uniform):
            t = np.remainder(phi - 0.5 * step, step)
            want = np.minimum(t, step - t)
            got = _grid_offset(phi, step, _Workspace(), np.empty_like(phi))
            assert got.tobytes() == want.tobytes()

    def test_workspaces_are_per_thread_and_die_with_the_call(self, params, monkeypatch):
        # more workers than cores and frequent thread switches: a workspace
        # shared between threads would corrupt the curves
        made = []

        class Recorded(_Workspace):
            def __init__(self):
                super().__init__()
                made.append((weakref.ref(self), threading.get_ident()))

        plans = [_plan(params, policy, n=6 * CHUNK_TRIALS, seed=519) for policy in ("P1", "P3")]
        want = run_coverages(plans, n_workers=1)
        monkeypatch.setattr(montecarlo, "_Workspace", Recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_coverages(plans, n_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert [c.p_cov.tobytes() for c in got] == [c.p_cov.tobytes() for c in want]
        assert 1 <= len(made) <= 8
        assert len({ident for _, ident in made}) == len(made)
        gc.collect()
        assert all(ref() is None for ref, _ in made)

    def test_single_plan_is_run_coverage(self, params):
        plan = _plan(params, "P2", n=5_000, seed=517)
        alone = run_coverage(plan)
        (shared,) = run_coverages([plan])
        assert alone.p_cov.tobytes() == shared.p_cov.tobytes()
        assert run_coverages([]) == []

    @pytest.mark.parametrize("field, change", [
        ("master_seed", lambda plan: replace(plan, master_seed=plan.master_seed + 1)),
        ("n_trials", lambda plan: replace(plan, n_trials=plan.n_trials + 1)),
        ("density", lambda plan: replace(plan, params=replace(plan.params, density=1e-3))),
        ("channel", lambda plan: replace(plan, params=replace(
            plan.params, channel=ChannelParams(m_x=3)))),
    ])
    def test_plans_that_do_not_share_a_draw_are_refused(self, params, field, change):
        plan = _plan(params, "P1", n=1_000)
        other = change(replace(plan, policy="P3"))
        with pytest.raises(ValueError, match=rf"plan 2 .*: {field} is"):
            run_coverages([plan, replace(plan, policy="P2"), other])

    def test_interferer_offset_needs_no_wrap_on_the_sampled_range(self):
        # the largest ref and phi a chunk can hold: |ref - phi| stays below 2 pi
        edge = np.nextafter(TWO_PI, 0.0)
        a = np.array([0.0, edge, 0.0, edge, 1.0])
        b = np.array([edge, 0.0, 0.0, edge, 4.0])
        d = np.abs(a - b)
        assert (d % TWO_PI).tobytes() == d.tobytes()
        assert angular_offset(a, b).tobytes() == np.minimum(d, TWO_PI - d).tobytes()


def _box_params(density, sectors_exp, narrow, sla_db, alpha, fades):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # alpha 4 lies outside the usual LOS range
        channel = ChannelParams(alpha_l=alpha, m_s=fades[0], m_x=fades[1])
    return NetworkParams(density=density, channel=channel, antenna=AntennaConfig(
        sectors_exp=sectors_exp, sla_db=sla_db, phi_3db=0.3 if narrow else None))


# sectors_exp, phi_3db 0.3 rad (or the spacing), sla_db, alpha, (m_s, m_x)
_BOX = list(itertools.product((0, 1, 2, 5, 8), (False, True), (3.0, 30.0), (2.0, 4.0),
                              ((2, 2), (1, 1), (8, 8))))


def _tied_field(gen, params, n):
    """``n`` fields whose best P1 keys often tie exactly: a point and its copy
    (settled by the index), and two points on one radius mirrored about a
    beam maximum (settled by the azimuth), among farther or random points."""
    cfg, ch = params.antenna, params.channel
    step = cfg.beam_spacing

    def offset(phi):
        t = np.remainder(phi - 0.5 * step, step)
        return np.minimum(t, step - t)

    fields = []
    for j in range(n):
        r0 = gen.uniform(5.0, 45.0)
        beam = 0.5 * step + int(gen.integers(cfg.n_beams)) * step
        while True:
            delta = gen.uniform(0.0, 0.5 * step)
            pair = np.array([beam + delta, beam - delta])
            if pair.min() >= 0.0 and pair.max() < TWO_PI and offset(pair[0]) == offset(pair[1]):
                break
        kind = j % 4
        r = [r0, r0] if kind in (0, 2) else [r0]
        phi = list(pair) if kind in (0, 2) else [pair[0]]
        if kind == 1:
            r, phi = r * 2, phi * 2
        if kind == 2:
            r, phi = r * 2, phi * 2
        extra = int(gen.integers(0, 4))
        r += list(gen.uniform(r0 if kind == 3 else 1.5 * r0, 75.0, extra))
        phi += list(gen.uniform(0.0, TWO_PI, extra))
        order = gen.permutation(len(r))
        fields.append((np.array(r)[order], np.array(phi)[order]))
    counts = np.array([f[0].size for f in fields])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    seg = np.repeat(np.arange(n), counts)
    r = np.concatenate([f[0] for f in fields])
    phi = np.concatenate([f[1] for f in fields])
    h_s = gen.gamma(2.0, 0.5, n)
    h_x = gen.gamma(2.0, 0.5, r.size)
    return counts, starts, seg, r, phi, h_s, h_x, r ** (-ch.alpha_l)


class TestP1Candidates:
    """P1 evaluates only the points that can win; every output keeps its bits."""

    @pytest.mark.parametrize("policy", ["P1", "P2", "P3"])
    @pytest.mark.parametrize("density", [5e-5, 8e-4, 1e-2])
    def test_policy_chunk_matches_full_scan_over_the_box(self, density, policy):
        ws = _Workspace()
        floor_cases = 0
        for i, case in enumerate(_BOX):
            params = _box_params(density, *case)
            got = _policy_chunk(params, policy, 256, _chunk_rng(521, i), ws)
            want = _oracle_policy_chunk(params, policy, 256, _chunk_rng(521, i))
            assert set(got) == set(want)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (case, name)
            floor_cases += 0.5 * params.antenna.beam_spacing > params.antenna.phi_a
        assert floor_cases >= 8     # the P1 floor branch ran

    @pytest.mark.parametrize("narrow", [False, True])
    def test_exact_ties_keep_the_full_scan_winner(self, narrow):
        params = _box_params(8e-4, 2, narrow, 3.0 if narrow else 30.0, 2.0, (2, 2))
        assert (0.5 * params.antenna.beam_spacing > params.antenna.phi_a) == narrow
        field = _tied_field(np.random.default_rng(522), params, 2000)
        for policy in ("P1", "P2", "P3"):
            got = _curve_chunk(params, policy, field, {}, _Workspace())
            want = full_scan_chunk(params, policy, field)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (policy, name)
        # many P1 winners tie on the key: some ties are settled by the radius
        # or the azimuth, some only by the index
        counts, starts, seg, r, phi = field[:5]
        step = params.antenna.beam_spacing
        t = np.remainder(phi - 0.5 * step, step)
        key = formula_gain_approx(np.minimum(t, step - t), params.antenna) * field[7]
        win = np.lexsort((phi, r, -key, seg))[starts]
        best = key == key[win][seg]
        same = best & (r == r[win][seg]) & (phi == phi[win][seg])
        n_best, n_same = np.add.reduceat(best, starts), np.add.reduceat(same, starts)
        assert (n_best > 1).sum() > 500
        assert (n_best > n_same).sum() > 100
        assert (n_same > 1).sum() > 100

    def test_candidates_are_few_at_the_defaults(self, params):
        ws = _Workspace()
        field = _field_chunk(params, CHUNK_TRIALS, _chunk_rng(20240, 0), ws)
        cand, seg_c, starts_c, *_ = _p1_candidates(params.antenna, field, {}, ws)
        assert starts_c.size == CHUNK_TRIALS        # every field keeps its nearest point
        assert np.array_equal(seg_c[starts_c], np.arange(CHUNK_TRIALS))
        assert cand.size <= 0.25 * field[3].size

    def test_beam_counts_with_the_spacing_as_beamwidth_share_one_set(self, params):
        ws = _Workspace()
        field = _field_chunk(params, 1000, _chunk_rng(20240, 1), ws)
        memo = {}
        first = _p1_candidates(AntennaConfig(sectors_exp=1), field, memo, ws)
        for sectors_exp in (2, 3):
            assert _p1_candidates(AntennaConfig(sectors_exp=sectors_exp), field, memo, ws) is first
        narrower = _p1_candidates(AntennaConfig(sectors_exp=2, phi_3db=1.0), field, memo, ws)
        assert narrower is not first and narrower[0].size > first[0].size


# SHA-256 of results taken with the lexsort winner selection that _select
# replaced (numpy 2.4.6); seed 20240, 20k trials, density 1.6e-3.
_PINNED_P_COV = {
    (0, "P1"): "3713149cb54758428575d622491fdfe74f476b1b36d17278745c1a38847391e2",
    (0, "P2"): "59bcdcf93f1f0bd02e5a411a8d47fd8f7d5bff0b51569da0bcb4525ac6b01abc",
    (0, "P3"): "910c534ffa9be7416666746fb59f5146130794860c40ae9cfd018d5ac37cfc71",
    (3, "P1"): "14489796c7229122713fc6926be7bf50c652e7ef8b243d2d761d118cb7731f8b",
    (3, "P2"): "bdfb453833d571fa488268d910ee51226a5d86fb8505a5de81a9d47821c2b584",
    (3, "P3"): "41c2a3933ed3451086a01597285d8e523b9d9bafe696fef78f977e137580cded",
}
_PINNED_SAMPLES = {
    "varphi12": "7d8c22078f2da384c9fe7a6c154bab81dd862d0a59cff4b2338f1e89302ffc84",
    "SIR_dom_p2": "87376a1756ebbba3b8984a30540c07da523774a97c6265481299354625bca273",
    "SIR_dom_p3": "16cbac8fcb2a0e03917da69a2e78d6edee8b35c533768fc6ebade3cf86b9c9f7",
}


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestPinnedResults:
    @pytest.mark.parametrize("sectors_exp, policy", sorted(_PINNED_P_COV))
    def test_coverage_bytes(self, sectors_exp, policy):
        params = NetworkParams(density=1.6e-3, antenna=AntennaConfig(sectors_exp=sectors_exp))
        curve = run_coverage(_plan(params, policy, n=20_000, seed=20240))
        assert _sha256(curve.p_cov) == _PINNED_P_COV[sectors_exp, policy]

    @pytest.mark.parametrize("statistic", sorted(_PINNED_SAMPLES))
    def test_statistic_bytes(self, statistic):
        plan = _plan(NetworkParams(density=1.6e-3), "P3", n=20_000, seed=20240)
        samples, _ = sample_statistic(plan, statistic)
        assert _sha256(samples) == _PINNED_SAMPLES[statistic]


class TestPowerCcdf:
    def test_level_zero_is_certain(self, params):
        curve = run_power_ccdf(_plan(params, "P1", n=5_000), levels=[0.0])
        assert curve.ccdf[0] == 1.0

    def test_p1_matches_serving_power_law(self, params):
        curve = run_power_ccdf(_plan(params, "P1", n=200_000), n_workers=4)
        law = serving_power_law(params)
        ana = law.ccdf(curve.levels)
        assert np.max(np.abs(ana - curve.ccdf)) < 0.01

    def test_p3_overestimates_low_power_region(self, params):
        # nearest-транsmitter boresight power stochastically dominates the
        # beam-managed maximum in the low-power regime
        levels = default_power_levels(params)[:12]
        p1 = run_power_ccdf(_plan(params, "P1", n=100_000), levels=levels)
        p3 = run_power_ccdf(_plan(params, "P3", n=100_000), levels=levels)
        assert np.all(p3.ccdf >= p1.ccdf - 3.0 * (p1.stderr + p3.stderr))

    def test_rejects_p2(self, params):
        with pytest.raises(ValueError):
            run_power_ccdf(_plan(params, "P2", n=100))

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_shared_draw_matches_per_plan_oracle_bitwise(self, params, n_workers):
        levels = default_power_levels(params)
        plans = [_plan(params, policy, n=_MIXED_TRIALS, seed=518) for policy in ("P1", "P3")]
        curves = run_power_ccdfs(plans, levels=levels, n_workers=n_workers)
        for plan, curve in zip(plans, curves):
            counts = sum((_oracle_policy_chunk(plan.params, plan.policy, size,
                                               _chunk_rng(plan.master_seed, ci))["s_norm"][:, None]
                          > levels[None, :]).sum(axis=0)
                         for ci, size in enumerate(_chunk_sizes(plan.n_trials)))
            assert curve.policy == plan.policy
            assert curve.ccdf.tobytes() == (counts / plan.n_trials).tobytes()
        alone = run_power_ccdf(replace(plans[0], policy="P3"), levels=levels)
        assert alone.ccdf.tobytes() == curves[1].ccdf.tobytes()


class TestHistograms:
    def test_density_normalized(self, params):
        hist = run_histogram(_plan(params, "P2", n=50_000), "phi_c", bins=64)
        widths = np.diff(hist.edges[0])
        assert (hist.density * widths).sum() == pytest.approx(1.0, abs=1e-6)

    def test_phi_c_density_near_origin(self, params):
        # the density at zero offset is density * n_beams * R**2 = 18;
        # fine bins so the first-bin average sits near the point value
        hist = run_histogram(_plan(params, "P2", n=400_000), "phi_c", bins=400,
                             value_range=(0.0, math.pi / 4.0), n_workers=4)
        assert hist.density[0] == pytest.approx(18.0, rel=0.05)

    def test_2d_statistic(self, params):
        hist = run_histogram(_plan(params, "P3", n=20_000), "varphi12", bins=32)
        assert hist.density.shape == (32, 32)
        areas = np.outer(np.diff(hist.edges[0]), np.diff(hist.edges[1]))
        assert (hist.density * areas).sum() == pytest.approx(1.0, abs=1e-6)

    def test_unknown_statistic(self, params):
        with pytest.raises(ValueError):
            sample_statistic(_plan(params, "P3", n=100), "nonsense")

    def test_low_acceptance_raises(self, params):
        # shrink the mainlobe so the two-smallest-angles event almost never fires
        tiny = NetworkParams(antenna=AntennaConfig(sla_db=2e-5))
        with pytest.raises(ConditioningError):
            run_histogram(_plan(tiny, "P3", n=50_000), "G_ratio_p2")

    def test_low_acceptance_error_names_the_run(self):
        tiny = NetworkParams(antenna=AntennaConfig(sla_db=2e-5))
        with pytest.raises(ConditioningError,
                           match=r"acceptance 0\.00e\+00 for 'G_ratio_p2' at density 0\.0008, "
                                 r"sectors_exp 2, 5000 trials"):
            run_histogram(_plan(tiny, "P3", n=5_000), "G_ratio_p2")

    def test_empty_conditioning_window_error_names_the_run(self, params):
        plan = _plan(params, "P3", n=2_000)
        with pytest.raises(ConditioningError,
                           match=r"only \d+ samples .* P3 conditioning window of centre 0\.01 "
                                 r"and relative width 0\.02 at density 0\.0008, sectors_exp 2, "
                                 r"2000 trials, acceptance \d\.\d\de[-+]\d\d"):
            sample_conditioned_interference(plan, 0.01, 0.02)

    def test_conditioning_recorded(self, params):
        hist = run_histogram(_plan(params, "P3", n=20_000), "W_p3", bins=32)
        assert "two points" in hist.conditioning
        assert 0.999 < hist.acceptance <= 1.0

    def test_statistic_determinism_across_workers(self, params):
        a, _ = sample_statistic(_plan(params, "P3", n=30_000), "SIR_dom_p3", n_workers=1)
        b, _ = sample_statistic(_plan(params, "P3", n=30_000), "SIR_dom_p3", n_workers=8)
        assert a.tobytes() == b.tobytes()
