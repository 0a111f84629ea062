"""Vectorized Monte Carlo trial engine.

Trials are processed in fixed-size chunks; chunk ``i`` draws from an
independent counter-based stream derived from the master seed, so results
are bit-identical for any worker count.  All cross-chunk accumulation is in
integer counts (or ordered concatenation), which makes the reduction exact
and order-independent.  A chunk's draw depends on the seed, the density and
the channel only, so ``run_coverages`` draws it once for every curve that
shares those and evaluates each curve's policy and beam grid on it.  P2 and
P3 pick their serving transmitter among every point of a field; P1 only
among the few points whose path loss leaves them a chance to win
(``_p1_candidates``).  Each worker reuses one workspace of point-sized
buffers for every chunk of a call, and drops it when the call returns.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, angular_offset
from .numerics import Workspace as _Workspace
from .radio import (NetworkParams, _gain_3gpp_core, _mainlobe_core, gain_approx,
                    sample_fading)

__all__ = [
    "SimPlan",
    "CoverageCurve",
    "PowerCcdf",
    "STATISTICS",
    "run_coverage",
    "run_coverages",
    "run_power_ccdf",
    "run_power_ccdfs",
    "sample_statistic",
    "check_chunk_points",
    "default_power_levels",
]

CHUNK_TRIALS = 4096

# Largest expected point count of one chunk.  A chunk holds about 98 bytes
# of arrays per point at its peak (nine float64 and two bool point-sized
# workspace buffers with 1/16 spare, the int64 segment index, the P1
# candidates' buffers and short-lived index arrays; tracemalloc peak of the
# nine curves P1/P2/P3 x sectors_exp 1-3 on one chunk at density 1.6e-3), so
# this is about 0.8 GB per worker.
CHUNK_POINT_BUDGET = 2**23

STATISTICS = ("phi_c", "S", "G_ratio_p2", "W_ratio_p2", "G_p3", "W_p3", "varphi12",
               "SIR_dom_p2", "SIR_dom_p3")

_POLICIES = ("P1", "P2", "P3")


def check_chunk_points(density: float, r_los: float) -> None:
    """Refuse a run whose chunks expect more than ``CHUNK_POINT_BUDGET`` points.

    The chunk size is fixed because it defines the random stream, so a field
    too dense for memory is refused up front rather than chunked differently.
    """
    points = density * math.pi * r_los**2 * CHUNK_TRIALS
    if points > CHUNK_POINT_BUDGET:
        raise ValueError(
            f"density {density:g} /m^2 in a disk of r_los {r_los:g} m expects "
            f"{points:.3g} points per chunk of {CHUNK_TRIALS} trials, over the "
            f"budget of {CHUNK_POINT_BUDGET} points")


@dataclass(frozen=True)
class SimPlan:
    """Everything needed to reproduce one simulation run."""

    params: NetworkParams
    policy: str
    thresholds_db: tuple
    n_trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        th = tuple(float(x) for x in self.thresholds_db)
        if len(th) > 1 and any(b <= a for a, b in zip(th, th[1:])):
            raise ValueError("thresholds must be strictly increasing")
        check_chunk_points(self.params.density, self.params.r_los)
        object.__setattr__(self, "thresholds_db", th)
        object.__setattr__(self, "master_seed", int(self.master_seed))


@dataclass(frozen=True)
class CoverageCurve:
    thresholds_db: np.ndarray
    p_cov: np.ndarray
    stderr: np.ndarray
    n: int
    engine: str
    policy: str


@dataclass(frozen=True)
class PowerCcdf:
    levels: np.ndarray          # linear normalized power thresholds
    ccdf: np.ndarray
    stderr: np.ndarray
    n: int
    engine: str
    policy: str


def _chunk_rng(master_seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=master_seed).jumped(chunk_index))


def _chunk_sizes(n_trials: int):
    n_chunks = math.ceil(n_trials / CHUNK_TRIALS)
    return [CHUNK_TRIALS] * (n_chunks - 1) + [n_trials - CHUNK_TRIALS * (n_chunks - 1)]


def _map_chunks(fn, n_trials: int, n_workers: int):
    """Apply ``fn(chunk_index, chunk_size, workspace)`` to every chunk, results
    in index order.

    Each worker thread gets one workspace for the length of this call; the
    workspaces are dropped when it returns.
    """
    sizes = _chunk_sizes(n_trials)
    if n_workers <= 1:
        ws = _Workspace()
        return [fn(i, s, ws) for i, s in enumerate(sizes)]
    local = threading.local()

    def run(i, s):
        if not hasattr(local, "ws"):
            local.ws = _Workspace()
        return fn(i, s, local.ws)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run, range(len(sizes)), sizes))


def _sample_batch(params: NetworkParams, n: int, rng: np.random.Generator, ws: _Workspace):
    """Sample ``n`` nonempty fields; returns segment bookkeeping plus flat
    arrays, ``r`` and ``phi`` in the workspace."""
    mean = params.mean_count
    counts = rng.poisson(mean, n)
    empty = counts == 0
    guard = 0
    while empty.any():
        counts[empty] = rng.poisson(mean, int(empty.sum()))
        empty = counts == 0
        guard += 1
        if guard > 10**6:
            raise RuntimeError("field resampling failed to terminate")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    seg = np.repeat(np.arange(n), counts)
    total = int(counts.sum())
    r = rng.random(out=ws.take("r", total))
    np.sqrt(r, out=r)
    r *= params.r_los
    phi = rng.random(out=ws.take("phi", total))
    phi *= TWO_PI
    return counts, starts, seg, r, phi


def _select(best_of, key, tiebreak, seg, starts, ws: _Workspace):
    """Per-segment index of the extremum of ``key`` (one pass over ``key``).

    ``best_of`` is ``np.maximum`` or ``np.minimum``; segments must be
    nonempty.  Exact ties on ``key`` go to the smallest of the ``tiebreak``
    arrays in priority order (the policies pass radius, then azimuth), then to
    the lowest index.  The hits are counted per segment from their segment
    numbers, one per hit; only segments with a tie are sorted, and only their
    tied points.
    """
    ext = best_of.reduceat(key, starts)
    hit = np.equal(key, np.take(ext, seg, out=ws.take("tmp1", key.size), mode="clip"),
                   out=ws.take("mask", key.size, bool))
    idx = np.flatnonzero(hit)
    s = seg[idx]                    # nondecreasing, every segment at least once
    lead = np.empty(s.size, bool)   # the first hit of each segment
    lead[0] = True
    np.not_equal(s[1:], s[:-1], out=lead[1:])
    win = idx[lead]
    if win.size < idx.size:
        tied = np.zeros(win.size, bool)
        tied[s[~lead]] = True
        cand = idx[tied[s]]
        order = cand[np.lexsort(tuple(t[cand] for t in reversed(tiebreak)) + (seg[cand],))]
        s = seg[order]
        first = np.concatenate([[True], s[1:] != s[:-1]])
        win[s[first]] = order[first]
    return win


def _field_chunk(params: NetworkParams, n: int, rng: np.random.Generator, ws: _Workspace):
    """Draw ``n`` trials: everything a chunk needs that no policy or beam grid changes.

    Returns ``(counts, starts, seg, r, phi, h_s, h_x, rpow)``: the fields in
    flat segment layout, the serving and interferer fades, and ``r**-alpha``;
    the point-sized ones live in the workspace.  The draw depends on the
    density and the channel only, so every curve with those and the same
    chunk stream can be evaluated on it.
    """
    ch = params.channel
    counts, starts, seg, r, phi = _sample_batch(params, n, rng, ws)
    h_s = sample_fading(ch.m_s, rng, size=n)
    # sample_fading's gamma(m, 1/m) is 1/m times standard_gamma(m): same stream, same bits
    h_x = rng.standard_gamma(float(ch.m_x), out=ws.take("h_x", r.size))
    h_x *= 1.0 / float(ch.m_x)
    rpow = np.power(r, -ch.alpha_l, out=ws.take("rpow", r.size))
    return counts, starts, seg, r, phi, h_s, h_x, rpow


def _split_step(step: float):
    """``(hi, lo)`` with ``hi + lo == step`` exactly and just enough low bits
    of ``hi``'s significand cleared that ``q * hi`` is exact for every grid
    quotient ``0 <= q < 2*pi/step``."""
    q_bits = math.ceil(TWO_PI / step).bit_length()
    m, e = math.frexp(step)
    hi = math.ldexp(math.floor(math.ldexp(m, 53 - q_bits)), e - 53 + q_bits)
    return hi, step - hi


def _grid_offset(phi, step: float, ws: _Workspace, off):
    """Offset of each azimuth to the nearest beam maximum of a grid of spacing
    ``step``, written into ``off``: bit for bit
    ``t = np.remainder(phi - step/2, step)`` then ``min(t, step - t)``.
    Elementwise, so a subset of the points gets the bits of the whole."""
    size = phi.size
    # The floor-mod by exact arithmetic (np.remainder computes a full
    # floor-divmod).  a = phi - step/2 lies in [-step/2, 2 pi); q = floor(a/step)
    # is below 2*pi/step = 2**sectors_exp.  With step = hi + lo as _split_step
    # makes it, q*hi and q*lo are exact products.  For q >= 1, a and q*hi are
    # multiples of ulp(step) and a - q*hi = (a - q*step) + q*lo lies below
    # 2**(e+1), e the exponent of step, so that subtraction is exact as well.
    # The last subtraction rounds the exact fmod value a - q*step, which is
    # representable, so it comes back unchanged.  A rounded a/step is never
    # below the true quotient, but where it rounds up to an integer q is one too
    # large and t < 0.  np.remainder's own result on the a < 0 lanes is
    # fmod(a) + step = a + step.  The naive a - q*step rounds q*step and is
    # wrong from sectors_exp 4.
    hi, lo = _split_step(step)
    a = np.subtract(phi, 0.5 * step, out=ws.take("tmp1", size))
    q = np.divide(a, step, out=ws.take("tmp2", size))
    np.floor(q, out=q)
    t = np.multiply(q, hi, out=off)
    np.subtract(a, t, out=t)
    np.multiply(q, lo, out=q)
    np.subtract(t, q, out=t)
    mask = ws.take("mask", size, bool)
    below = np.flatnonzero(np.less(a, 0.0, out=mask))
    t[below] = a[below] + step
    np.less(t, 0.0, out=mask)
    mask |= np.greater_equal(t, step, out=ws.take("mask2", size, bool))
    bad = np.flatnonzero(mask)
    t[bad] = np.remainder(a[bad], step)
    np.subtract(step, t, out=q)
    np.minimum(t, q, out=off)
    return off


def _interferer_offset(ref, seg, phi, out, ws: _Workspace):
    """Folded offset of every point from its trial's serving azimuth ``ref``."""
    d = np.take(ref, seg, out=out, mode="clip")
    np.subtract(d, phi, out=d)
    np.abs(d, out=d)
    # ref and phi both lie in [0, 2 pi), so |ref - phi| < 2 pi and the
    # `% TWO_PI` of geometry.angular_offset would return it bit for bit.
    wrap = np.subtract(TWO_PI, d, out=ws.take("tmp1", d.size))
    return np.minimum(d, wrap, out=d)


def _p1_candidates(cfg, field: tuple, memo: dict, ws: _Workspace):
    """The points of a drawn chunk that can win or tie under P1, with their
    fields' layout: ``(cand, seg, starts, r, phi, rpow)`` of the candidates.

    A field's nearest point has a grid offset of at most half the spacing, so
    its key is at least ``g_lo * rpow_max``, where ``g_lo`` is the gain at
    that offset (the floor ``g_s`` beyond ``phi_a``) and ``rpow_max`` the
    field's largest ``r**-alpha``.  No key exceeds ``g_max * rpow``, so a
    point with ``rpow < (g_lo / g_max) rpow_max`` can neither win nor tie;
    the factor ``1 - 1e-9`` keeps every winner and tied point through
    rounding.  The candidates of the latest bound are kept in ``memo`` (the
    bound depends on the antenna, not on the beam count when ``phi_3db`` is
    the spacing), their arrays in the workspace.
    """
    bound = gain_approx(0.5 * cfg.beam_spacing, cfg) / cfg.g_max * (1.0 - 1e-9)
    if memo.get("P1", (None,))[0] == bound:
        return memo["P1"][1]
    counts, starts, seg, r, phi, h_s, h_x, rpow = field
    if "rpow_max" not in memo:
        memo["rpow_max"] = np.maximum.reduceat(rpow, starts)
    low = np.take(memo["rpow_max"], seg, out=ws.take("tmp1", r.size), mode="clip")
    low *= bound
    cand = np.flatnonzero(np.greater_equal(rpow, low, out=ws.take("mask", r.size, bool)))
    k = cand.size
    seg_c = np.take(seg, cand, out=ws.take("p1_seg", k, seg.dtype))
    # the nearest point of every field is a candidate, so every field has a run
    starts_c = np.flatnonzero(np.diff(seg_c, prepend=-1))
    arrays = (cand, seg_c, starts_c, np.take(r, cand, out=ws.take("p1_r", k)),
              np.take(phi, cand, out=ws.take("p1_phi", k)),
              np.take(rpow, cand, out=ws.take("p1_rpow", k)))
    memo["P1"] = bound, arrays
    return arrays


def _curve_chunk(params: NetworkParams, policy: str, field: tuple, memo: dict,
                 ws: _Workspace):
    """One policy on a drawn chunk: serving link, interference and SINR per trial.

    The serving transmitter of each field is picked by ``_select``: the
    extremum of the policy key (max power for P1, min angular distance for
    P2, min distance for P3), then the smaller radius, then the smaller
    azimuth, then the lower index.  P2 and P3 select over every point; P1
    over the few points of ``_p1_candidates`` that can win, so its grid
    offsets, mainlobe gains and keys are computed for those only.  ``memo``
    carries what curves on the same ``field`` share: the P1 candidates, the
    latest all-point grid offset (P2), and the P3 winner with its
    interferers' offsets, which no grid changes.  Point-sized temporaries
    live in ``ws``; every returned array is a fresh one.
    """
    cfg, ch = params.antenna, params.channel
    counts, starts, seg, r, phi, h_s, h_x, rpow = field
    n, size = counts.size, r.size
    step = cfg.beam_spacing
    # the interference term: interferer offsets, then gains, then h_x * gain * rpow
    term = ws.take("term", size)

    out = {"counts": counts}
    if policy == "P1":
        cand, seg_c, starts_c, r_c, phi_c, rpow_c = _p1_candidates(cfg, field, memo, ws)
        off = _grid_offset(phi_c, step, ws, ws.take("p1_off", cand.size))
        ga = _mainlobe_core(off, cfg, term[:cand.size])
        if 0.5 * step > cfg.phi_a:      # else every grid offset is in the mainlobe
            floor = np.greater(off, cfg.phi_a, out=ws.take("mask", off.size, bool))
            np.copyto(ga, cfg.g_s, where=floor)
        key = np.multiply(ga, rpow_c, out=ws.take("key", off.size))
        win_c = _select(np.maximum, key, (r_c, phi_c), seg_c, starts_c, ws)
        win = cand[win_c]
        beam = np.rint((phi[win] - 0.5 * step) / step).astype(int) % cfg.n_beams
        ref = 0.5 * step + beam * step
        g_serve = ga[win_c]
        serving_offset = off[win_c]
        out["s_norm"] = key[win_c]
    elif policy == "P2":
        off = ws.take("grid", size)
        if memo.get("grid") != step:
            _grid_offset(phi, step, ws, off)
            memo["grid"] = step
        win = _select(np.minimum, off, (r, phi), seg, starts, ws)
        ref = phi[win]
        g_serve = gain_approx(off[win], cfg)
        serving_offset = off[win]
        out["phi_c"] = off[win]
    elif policy == "P3":
        if "P3" not in memo:
            win = _select(np.minimum, r, (phi,), seg, starts, ws)
            memo["P3"] = win, _interferer_offset(phi[win], seg, phi,
                                                 ws.take("p3_offset", size), ws)
        win, d = memo["P3"]
        g_serve = np.full(n, cfg.g_max)
        serving_offset = _grid_offset(phi[win], step, ws, np.empty(n))
        out["s_norm"] = cfg.g_max * rpow[win]
    else:
        raise ValueError(f"unknown policy {policy!r}")

    if policy != "P3":
        d = _interferer_offset(ref, seg, phi, term, ws)
    _gain_3gpp_core(d, cfg, term)
    np.multiply(h_x, term, out=term)
    np.multiply(term, rpow, out=term)
    inter_norm = np.add.reduceat(term, starts) - term[win]
    pk = ch.tx_power_w * ch.path_gain_const * cfg.g_max
    out["interference_w"] = pk * inter_norm
    out["signal_w"] = pk * g_serve * h_s * rpow[win]
    out["sinr"] = out["signal_w"] / (out["interference_w"] + ch.noise_w)
    out["serving_r"] = r[win]
    out["serving_offset"] = serving_offset
    return out


def _policy_chunk(params: NetworkParams, policy: str, n: int, rng: np.random.Generator,
                  ws: _Workspace):
    """Simulate ``n`` trials of one policy; returns fresh per-trial arrays."""
    return _curve_chunk(params, policy, _field_chunk(params, n, rng, ws), {}, ws)


def _draw_of(plan: SimPlan) -> dict:
    """What a plan's chunk draws depend on."""
    return {"master_seed": plan.master_seed, "n_trials": plan.n_trials,
            "density": plan.params.density, "channel": plan.params.channel}


def _share_above(plans: list, grids: list, name: str, n_workers: int) -> list:
    """Per plan, ``(p, stderr)``: the share of trials whose per-trial array
    ``name`` of ``_curve_chunk`` lies above each value of the plan's grid.

    The plans must agree on ``master_seed``, ``n_trials``, ``density`` and
    ``channel``.  Each chunk is drawn once and every plan is evaluated on it
    in plan order, so each share is bitwise the one a plan gets alone.
    """
    shared = _draw_of(plans[0])
    for i, plan in enumerate(plans[1:], start=1):
        for key, value in _draw_of(plan).items():
            if value != shared[key]:
                raise ValueError(f"plan {i} does not share the draw of plan 0: "
                                 f"{key} is {value!r}, not {shared[key]!r}")
    base = plans[0]

    def work(ci, size, ws):
        field = _field_chunk(base.params, size, _chunk_rng(base.master_seed, ci), ws)
        memo = {}
        return [(_curve_chunk(plan.params, plan.policy, field, memo, ws)[name][:, None]
                 > grid[None, :]).sum(axis=0)
                for plan, grid in zip(plans, grids)]

    parts = _map_chunks(work, base.n_trials, n_workers)
    shares = []
    for j, plan in enumerate(plans):
        p = sum(part[j] for part in parts) / plan.n_trials
        shares.append((p, np.sqrt(p * (1.0 - p) / plan.n_trials)))
    return shares


def run_coverages(plans, n_workers: int = 1) -> list[CoverageCurve]:
    """Empirical coverage curves of plans that share one random draw.

    The plans must agree on ``master_seed``, ``n_trials``, ``density`` and
    ``channel``; their policies, antennas and threshold grids may differ.
    Each chunk is drawn once and every plan is evaluated on it, so each
    curve is bitwise the one ``run_coverage`` gives for its plan alone.
    Curves come back in plan order; plans with the same beam grid placed
    next to each other share that grid's offsets.
    """
    plans = list(plans)
    if not plans:
        return []
    grids_db = [np.asarray(plan.thresholds_db, dtype=float) for plan in plans]
    grids = [np.where(np.isneginf(g_db), 0.0, 10.0 ** (g_db / 10.0)) for g_db in grids_db]
    shares = _share_above(plans, grids, "sinr", n_workers)
    return [CoverageCurve(thresholds_db=gammas_db, p_cov=p, stderr=stderr, n=plan.n_trials,
                          engine="mc", policy=plan.policy)
            for plan, gammas_db, (p, stderr) in zip(plans, grids_db, shares)]


def run_coverage(plan: SimPlan, n_workers: int = 1) -> CoverageCurve:
    """Empirical coverage probability over the plan's threshold grid."""
    return run_coverages([plan], n_workers)[0]


def default_power_levels(params: NetworkParams, n: int = 41) -> np.ndarray:
    """Log-spaced normalized power thresholds bracketing the serving-power law."""
    w_min = params.antenna.g_3db * params.r_los ** (-params.channel.alpha_l)
    lo_db = 10.0 * math.log10(w_min) - 5.0
    return 10.0 ** (np.linspace(lo_db, lo_db + 45.0, n) / 10.0)


def run_power_ccdfs(plans, levels=None, n_workers: int = 1) -> list[PowerCcdf]:
    """Empirical ccdfs of the normalized received power (path loss times
    receive gain, transmit constants stripped) of plans that share one draw.

    The plans share a draw as in ``run_coverages`` and each plan's policy is
    P1 or P3.  ``levels`` defaults to ``default_power_levels`` of each plan.
    """
    plans = list(plans)
    if not plans:
        return []
    if any(plan.policy == "P2" for plan in plans):
        raise ValueError("received-power ccdf is defined for P1 and P3")
    grids = [default_power_levels(plan.params) if levels is None
             else np.asarray(levels, dtype=float) for plan in plans]
    shares = _share_above(plans, grids, "s_norm", n_workers)
    return [PowerCcdf(levels=grid, ccdf=p, stderr=stderr, n=plan.n_trials, engine="mc",
                      policy=plan.policy)
            for plan, grid, (p, stderr) in zip(plans, grids, shares)]


def run_power_ccdf(plan: SimPlan, levels=None, n_workers: int = 1) -> PowerCcdf:
    """Empirical ccdf of the normalized received power of one plan."""
    return run_power_ccdfs([plan], levels, n_workers)[0]


def _two_smallest(values, seg, starts, counts, ws: _Workspace):
    """Per-segment indices of the two smallest finite values (segments with
    >= 2 points); ties go to the lower index."""
    first = _select(np.minimum, values, (), seg, starts, ws)
    masked = values.copy()
    masked[first] = np.inf
    second = _select(np.minimum, masked, (), seg, starts, ws)
    ok = counts >= 2
    return ok, first[ok], second[ok]


def _stat_chunk(params: NetworkParams, statistic: str, n: int, rng: np.random.Generator,
                ws: _Workspace):
    """Raw (possibly conditioned) samples of one statistic for ``n`` trials;
    the samples are fresh arrays."""
    cfg, ch = params.antenna, params.channel

    if statistic == "W_ratio_p2":
        # Pure ratio model: i.i.d. disk radii and unit-mean gamma fades.
        d1 = params.r_los * np.sqrt(rng.random(n))
        d2 = params.r_los * np.sqrt(rng.random(n))
        h1 = sample_fading(ch.m_s, rng, size=n)
        h2 = sample_fading(ch.m_x, rng, size=n)
        return (h1 * d1 ** (-ch.alpha_l)) / (h2 * d2 ** (-ch.alpha_l)), n

    if statistic in ("phi_c", "S"):
        policy = "P2" if statistic == "phi_c" else "P1"
        out = _policy_chunk(params, policy, n, rng, ws)
        return out["phi_c" if statistic == "phi_c" else "s_norm"], n

    counts, starts, seg, r, phi = _sample_batch(params, n, rng, ws)

    if statistic in ("varphi12", "G_ratio_p2", "SIR_dom_p2"):
        offsets = angular_offset(phi, 0.0)
        ok, first, second = _two_smallest(offsets, seg, starts, counts, ws)
        p1, p2 = offsets[first], offsets[second]
        if statistic == "varphi12":
            return np.column_stack([p1, p2]), n
        keep = p2 < cfg.phi_a          # implies p1 < phi_a as well
        gain_ratio = gain_approx(p1[keep], cfg) / gain_approx(p2[keep], cfg)
        if statistic == "G_ratio_p2":
            return gain_ratio, n
        h1 = sample_fading(ch.m_s, rng, size=int(ok.sum()))[keep]
        h2 = sample_fading(ch.m_x, rng, size=int(ok.sum()))[keep]
        w = (h1 * r[first][keep] ** (-ch.alpha_l)) / (h2 * r[second][keep] ** (-ch.alpha_l))
        return gain_ratio * w, n

    if statistic in ("G_p3", "W_p3", "SIR_dom_p3"):
        ok, first, second = _two_smallest(r, seg, starts, counts, ws)
        if statistic == "W_p3":
            return (r[second] / r[first]) ** ch.alpha_l, n
        off2 = angular_offset(phi[first], phi[second])
        keep = off2 < cfg.phi_a
        h1 = sample_fading(ch.m_s, rng, size=int(ok.sum()))[keep]
        h2 = sample_fading(ch.m_x, rng, size=int(ok.sum()))[keep]
        g2 = gain_approx(off2[keep], cfg)
        gain_fade = cfg.g_max * h1 / (g2 * h2)
        if statistic == "G_p3":
            return gain_fade, n
        return gain_fade * (r[second][keep] / r[first][keep]) ** ch.alpha_l, n

    raise ValueError(f"unknown statistic {statistic!r}; expected one of {STATISTICS}")


def sample_statistic(plan: SimPlan, statistic: str, n_workers: int = 1):
    """Gather raw samples of ``statistic`` across all trials (chunk order)."""

    def work(ci, size, ws):
        return _stat_chunk(plan.params, statistic, size, _chunk_rng(plan.master_seed, ci), ws)

    parts = _map_chunks(work, plan.n_trials, n_workers)
    samples = np.concatenate([p[0] for p in parts])
    return samples, samples.shape[0] / plan.n_trials
