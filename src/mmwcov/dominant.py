"""Single-dominant-interferer SIR analysis for the two baseline policies.

The SIR factorizes as a gain-type ratio times a pathloss/fade-type ratio,
so a coverage curve is the coverage walk of :func:`analytic._curve` with
the density of the first ratio as its law and the ccdf of the second at
the threshold over it as its conditional.
For several of these laws an alternative closed form exists that fails Monte
Carlo arbitration; the corrected form is shipped, and only the
machine-readable discrepancy report (:func:`build_discrepancy_report`) calls
the rejected ones, private ``_rejected_variant_*`` functions and
:func:`lemma_bracket_constant`.  The known arbitrations are:

* the angle-based gain-ratio density must carry a *negative* exponential
  argument (a sign slip), and its inner integral must stay inside the
  conditioned support (lower limit ``g_s``, not ``g_s / g``);
* the distance-ratio density's normalizing constant must be ``2 / alpha``
  (the rejected erf/exponential bracket is not mass-1);
* the SIR density when the nearest transmitter serves must pair the
  distance-ratio law with the gain-ratio law, not convolve the
  distance-ratio law with itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .analytic import _Antiderivatives, _curve, check_alpha
from .numerics import (QuadratureSpec, composite_gauss_legendre, gauss_legendre, integrate_1d,
                       integrate_many)
from .radio import _LN10, NetworkParams, _curvature, _db_to_linear, _rolloff_offset, gain_approx

__all__ = [
    "mainlobe_pair_probability",
    "gain_ratio_pdf_p2",
    "gain_ratio_ccdf_p2",
    "pathloss_fade_ratio_ccdf_p2",
    "coverage_dom_p2",
    "gain_fade_ratio_pdf_p3",
    "distance_ratio_ccdf_p3",
    "lemma_bracket_constant",
    "coverage_dom_p3",
    "build_discrepancy_report",
]

_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
_P2_COV_SPEC = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-7)
_COV_SPEC = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)

# The P2 gain-ratio laws integrate every point on the same fixed composite
# Gauss-Legendre rule, as one (points x nodes) array per block of at most
# _BLOCK points, so memory stays flat in the number of points.  The node
# counts keep them within max(1e-12, 1e-8 |value|) of adaptive quadrature at
# rel_tol 1e-11 over density 5e-5..5e-3, sectors_exp 0..8 and gain ratios
# from 1 + 1e-12 to g_max/g_s (tests/test_dominant.py holds that oracle).
_BLOCK = 256
# Beyond the s where lam_r2 * phi_t * (cosh s - 1) reaches this, both
# angular integrands are below e^-50 of their peak; the s range is cut there
# so that the nodes stay on the mass when lam_r2 * phi_a is large.
_ANGULAR_TAIL = 60.0


@functools.cache
def _angular_rule():
    """8 equal panels of 12 nodes on [0, 1], scaled to each point's s range."""
    return composite_gauss_legendre(np.arange(8) / 8, np.arange(1, 9) / 8, 12)


def _blockwise(kernel, x):
    """``kernel`` applied to consecutive blocks of at most ``_BLOCK`` points.

    The laws select points with negated comparisons such as ``~(g <= 1)``,
    so that a NaN input reaches the kernel and comes out NaN.
    """
    out = np.empty_like(x)
    for i in range(0, x.size, _BLOCK):
        out[i:i + _BLOCK] = kernel(x[i:i + _BLOCK])
    return out


def mainlobe_pair_probability(params: NetworkParams) -> float:
    """P(two smallest angular offsets both fall inside the mainlobe)."""
    a = params.density * params.r_los**2 * params.antenna.phi_a
    return 1.0 - math.exp(-a) - a * math.exp(-a)


# ---------------------------------------------------------------------------
# Gamma fade ratio: T = h1/h2 with unit-mean gamma shapes (m_s, m_x)
# ---------------------------------------------------------------------------


def _fade_ratio_pdf(t, m_s: int, m_x: int):
    """Density of T at ``t``, zero for ``t <= 0``.

    With the odds ``u = m_s t / m_x`` it is
    ``(m_s/m_x) u**(m_s - 1) (1 + u)**-(m_s + m_x) / B(m_s, m_x)``, taken as
    the exp of its log with ``log B`` from ``math.lgamma``, so that no
    factor overflows at any shape; ``t = inf`` gives exactly 0.
    """
    t_arr = np.asarray(t, dtype=float)
    odds = np.maximum(t_arr, 0.0) * (m_s / m_x)
    log_pdf = -(m_s + m_x) * np.log1p(odds)
    log_pdf += (math.lgamma(m_s + m_x) - math.lgamma(m_s) - math.lgamma(m_x)
                + math.log(m_s / m_x))
    if m_s > 1:
        # log 0 = -inf at t = 0, and -inf + inf = nan at t = inf: both are
        # replaced below
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pdf += (m_s - 1) * np.log(odds)
    return np.where((t_arr > 0.0) & (t_arr < math.inf), np.exp(log_pdf), 0.0)


def _fade_odds_ccdf(odds, m_s: int, m_x: int):
    """P(T > t) at the odds ``m_s t / m_x >= 0``, for integer shapes, with
    no special function.

    With ``x = m_s t / (m_s t + m_x)`` and ``y = 1 - x``, ``1 - I_x(m_s, m_x)``
    is the binomial sum ``sum_{j < m_s} C(n, j) x**j y**(n - j)``,
    ``n = m_s + m_x - 1`` (DLMF 8.17.5): the chance of fewer than ``m_s``
    successes in ``n`` trials, which is the chance that the ``m_x``-th failure
    comes within the first ``n``.  That event is summed instead, as
    ``sum_{i < m_s} C(m_x - 1 + i, i) x**i y**m_x``, each term taken as
    ``exp(log C + i log x + m_x log y)``.  Every term is non-negative and at
    most 1, so none overflows or cancels and the tail keeps its relative
    accuracy at any shape.  The logs come from the odds as
    ``log y = -log1p(odds)`` and ``log x = -log1p(1/odds)``, which are exact
    at both ends: odds 0 give exactly 1 and odds inf exactly 0.
    """
    odds = np.array(odds, dtype=float)
    base = np.log1p(odds)
    base *= -m_x                                  # m_x log y
    out = np.exp(base)                            # the i = 0 term
    with np.errstate(divide="ignore"):            # 1/0 = inf: log x = -inf at t = 0
        neg_log_x = np.log1p(np.divide(1.0, odds, out=odds), out=odds)
    term = np.empty_like(out)
    for i in range(1, m_s):
        np.multiply(neg_log_x, -i, out=term)
        term += base
        term += math.log(math.comb(m_x - 1 + i, i))
        out += np.exp(term, out=term)
    return out


# ---------------------------------------------------------------------------
# Minimum-angular-distance policy: SIR = [g(phi1)/g(phi2)] * [h1 d1^-a / h2 d2^-a]
# ---------------------------------------------------------------------------


def _gain_ratio_integral(g, params: NetworkParams, power: int):
    """``int_0^u_hi u**power exp(-lam_r2 phi2) / phi2 du`` for each ``g > 1``,
    with ``phi2 = sqrt(phi_t**2 + u**2)``, ``phi_t`` the offset where the gain
    rolls off by ``g`` and ``u_hi = sqrt(phi_a**2 - phi_t**2)``; zero where
    ``phi_t >= phi_a``.

    ``u = phi_t sinh(s)`` turns the integrand into
    ``(phi_t sinh s)**power exp(-lam_r2 phi_t cosh s)``, smooth on
    ``[0, asinh(u_hi / phi_t)]``: the log singularity at ``g -> 1`` is gone.
    """
    cfg = params.antenna
    lam_r2 = params.density * params.r_los**2
    phi_t = _rolloff_offset(g, cfg)
    inside = ~(phi_t >= cfg.phi_a)
    nodes, weights = _angular_rule()

    def kernel(phi):
        c = lam_r2 * phi
        s_hi = np.minimum(np.arcsinh(np.sqrt(cfg.phi_a**2 - phi**2) / phi),
                          np.arccosh(1.0 + _ANGULAR_TAIL / c))
        s = s_hi[:, None] * nodes
        f = np.exp(-c[:, None] * np.cosh(s))
        if power:
            f *= (phi[:, None] * np.sinh(s)) ** power
        return s_hi * (f @ weights)

    out = np.zeros_like(phi_t)
    out[inside] = _blockwise(kernel, phi_t[inside])
    return out


def gain_ratio_pdf_p2(g, params: NetworkParams):
    """Density of the served-to-dominant gain ratio, conditioned on both of
    the two smallest angular offsets lying inside the mainlobe.

    Support [1, g_max/g_s] with an integrable logarithmic divergence at 1.
    Scalar in, scalar out; arrays are evaluated all at once on fixed
    Gauss-Legendre nodes (see :func:`_gain_ratio_integral`), within
    ``max(1e-12, 1e-8 |value|)`` of adaptive quadrature.
    """
    cfg = params.antenna
    lam_r2 = params.density * params.r_los**2
    kappa = _curvature(cfg)
    p_cond = mainlobe_pair_probability(params)
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = np.zeros_like(g_arr)
    inside = ~((g_arr <= 1.0) | (g_arr > cfg.g_max / cfg.g_s))
    g_in = g_arr[inside]
    out[inside] = (lam_r2**2 / (p_cond * 2.0 * kappa * _LN10 * g_in)
                   * _gain_ratio_integral(g_in, params, 0))
    return float(out[0]) if np.ndim(g) == 0 else out


def gain_ratio_ccdf_p2(g, params: NetworkParams):
    """ccdf companion of :func:`gain_ratio_pdf_p2` (smooth, used for KS tests),
    on the same fixed nodes and to the same accuracy."""
    lam_r2 = params.density * params.r_los**2
    p_cond = mainlobe_pair_probability(params)
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = np.ones_like(g_arr)
    above = ~(g_arr <= 1.0)
    out[above] = lam_r2**2 / p_cond * _gain_ratio_integral(g_arr[above], params, 2)
    return float(out[0]) if np.ndim(g) == 0 else out


def _rejected_variant_gain_ratio_pdf_p2(g, params: NetworkParams):
    """Rejected variant of :func:`gain_ratio_pdf_p2`: the joint density of the
    two mainlobe gains with a positive exponent, integrated over the
    out-of-support inner range [g_s/g, g_max/g].  Scalar in, scalar out; the
    inner integrals of an array run in lockstep, each over its own range."""
    cfg = params.antenna
    lam_r2 = params.density * params.r_los**2
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))

    def integrand(g2, which):
        g1 = g_arr[which] * g2
        l1 = np.log10(cfg.g_max / g1)
        l2 = np.log10(cfg.g_max / g2)
        phi2 = cfg.phi_3db * np.sqrt(10.0 * np.abs(l2)) / (2.0 * math.sqrt(3.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = (5.0 * (lam_r2 * cfg.phi_3db) ** 2 / 24.0 * np.exp(lam_r2 * phi2)
                    / (_LN10**2 * g1 * g2 * np.sqrt(np.abs(l1 * l2))))
        return g2 * dens

    p_cond = mainlobe_pair_probability(params)
    out = integrate_many(integrand, cfg.g_s / g_arr, cfg.g_max / g_arr * (1.0 - 1e-12),
                         g_arr.size, _SPEC) / p_cond
    return float(out[0]) if np.ndim(g) == 0 else out


@functools.lru_cache(maxsize=8)
def _fade_table(alpha: float, m_s: int, m_x: int) -> _Antiderivatives:
    """The antiderivative table of the rows ``e^(a u) F(u)`` and
    ``e^(-a u) F(u)``, ``a = 2/alpha`` and F the fade-ratio ccdf at the odds
    ``e^u``, of :func:`pathloss_fade_ratio_ccdf_p2`.

    The log-slope of F lies in [-m_x, 0] (the log-odds of T has a log-concave
    density, so its hazard rises to its limit m_x), so that of either row is
    at most ``a + m_x``.  Below the table F is 1 to within
    ``C(m_s + m_x - 1, m_s) e^(m_s u)``; above it F is
    ``C(m_s + m_x - 1, m_s - 1) e^(-m_x u)`` to within ``(m_s + m_x) e^-u``
    relative, that coefficient kept as its log."""
    check_alpha(alpha)
    a = 2.0 / alpha

    def values(u):
        fade = _fade_odds_ccdf(np.exp(u), m_s, m_x)
        return np.stack((np.exp(a * u) * fade, np.exp(-a * u) * fade))

    log_c = math.lgamma(m_s + m_x) - math.lgamma(m_s) - math.lgamma(m_x + 1)
    return _Antiderivatives(values, a + m_x, [(0.0, a), (0.0, -a)],
                            [(log_c, a - m_x), (log_c, -(a + m_x))])


def _ccdf_at_log_odds(u, alpha: float, m_s: int, m_x: int):
    """``P(W > t)`` of :func:`pathloss_fade_ratio_ccdf_p2` at ``U = u``."""
    table = _fade_table(alpha, m_s, m_x)
    scale = (2.0 / alpha) * u
    return (table.half_lines(u, 0, False, -scale) + table.half_lines(u, 1, True, scale)) / alpha


def pathloss_fade_ratio_ccdf_p2(t, params: NetworkParams):
    """ccdf of the same ratio via the fade-ratio/radius-ratio factorization:
    W = T * V^-alpha with T the gamma-fade ratio and V the radius ratio.

    V has density v on [0, 1] and v^-3 on [1, inf).  With ``a = 2/alpha``,
    ``U = log(m_s t / m_x)`` and F the fade-ratio ccdf at the odds ``e^u``,
    ``P(W > t) = (1/alpha) [e^(-a U) int_-inf^U e^(a u) F(u) du
    + e^(a U) int_U^inf e^(-a u) F(u) du]``: two half-line lookups per point
    in the table of :func:`_fade_table`, with the prefactors inside the
    tails' exponents.  Both terms are >= 0, so nothing cancels, and no
    threshold overflows.  V and 1/V have the same law, so below ``U = 0``
    the value is ``1 - P(W' > 1/t)``, W' the same ratio with the shapes
    swapped (at ``-U``): the complement keeps its relative accuracy, and the
    values near 1 stay monotone.  Within ``max(1e-14, 1e-10 |value|)`` of
    mpmath; ``t <= 0`` gives 1, ``t = inf`` 0 and NaN NaN.  Scalar in,
    scalar out.
    """
    ch = params.channel
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.where(t_arr > 0.0, 0.0, 1.0)
    out[np.isnan(t_arr)] = math.nan
    live = np.flatnonzero((t_arr > 0.0) & (t_arr < math.inf))
    u = np.log(t_arr[live])
    u += math.log(ch.m_s / ch.m_x)
    low = u < 0.0
    if not low.all():
        out[live[~low]] = _ccdf_at_log_odds(u[~low], ch.alpha_l, ch.m_s, ch.m_x)
    if low.any():
        out[live[low]] = 1.0 - _ccdf_at_log_odds(-u[low], ch.alpha_l, ch.m_x, ch.m_s)
    return float(out[0]) if np.ndim(t) == 0 else out


def coverage_dom_p2(gamma, params: NetworkParams):
    """P(SIR > gamma) with only the dominant angle-based interferer retained;
    scalar or array ``gamma``, as in :func:`analytic.coverage_p1`."""
    return _curve("P2 dominant", [params], (), gamma, gain_ratio_pdf_p2,
                  lambda nodes, node, c, g: pathloss_fade_ratio_ccdf_p2(g / nodes[node], params),
                  1.0, params.antenna.g_max / params.antenna.g_s, _P2_COV_SPEC)


# ---------------------------------------------------------------------------
# Nearest-transmitter policy: SIR = [g_max h1 / g(phi2) h2] * (r1/r2)^-alpha
# ---------------------------------------------------------------------------


def _p3_gain_offsets(params: NetworkParams):
    """Gauss-Legendre nodes over the uniform mainlobe offset."""
    cfg = params.antenna
    x, w = gauss_legendre(96)
    phi = 0.5 * cfg.phi_a * (x + 1.0)
    wts = 0.5 * w   # of the normalized uniform density on [0, phi_a]
    return gain_approx(phi, cfg), wts


def gain_fade_ratio_pdf_p3(g, params: NetworkParams):
    """Density of g_max h1 / (g(phi2) h2) with a uniform mainlobe offset;
    support (0, inf)."""
    cfg, ch = params.antenna, params.channel
    g2, wts = _p3_gain_offsets(params)
    scale = g2 / cfg.g_max
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = (wts[None, :] * scale[None, :]
           * _fade_ratio_pdf(g_arr[:, None] * scale[None, :], ch.m_s, ch.m_x)).sum(axis=1)
    return float(out[0]) if np.ndim(g) == 0 else out


def lemma_bracket_constant(params: NetworkParams) -> float:
    """The rejected erf/exponential normalizing bracket for the distance-ratio
    law, kept for the discrepancy report (mass-1 requires the value 2)."""
    lam, r_l = params.density, params.r_los
    return (3.0 * math.erf(math.sqrt(math.pi * lam)) / (2.0 * lam)
            - 2.0 * (1.0 + r_l**2 * lam * math.pi) * math.exp(-r_l**2 * lam * math.pi)
            - math.exp(-lam * math.pi))


def distance_ratio_ccdf_p3(w, params: NetworkParams):
    alpha = params.channel.alpha_l
    w_arr = np.asarray(w, dtype=float)
    out = np.where(w_arr <= 1.0, 1.0, w_arr ** (-2.0 / alpha))
    return float(out) if out.ndim == 0 else out


def coverage_dom_p3(gamma, params: NetworkParams):
    """P(SIR > gamma) with only the second-nearest transmitter retained;
    scalar or array ``gamma``, as in :func:`analytic.coverage_p1`.  The
    gain-fade ratio is paired with the distance ratio (the SIR
    factorization)."""
    def conditional(nodes, node, c, g):
        # near the top of the float range the ratio overflows to inf over the
        # smallest gain-fade ratios, whose ccdf there is its limit, 0
        with np.errstate(over="ignore"):
            return distance_ratio_ccdf_p3(g / nodes[node], params)

    return _curve("P3 dominant", [params], (), gamma, gain_fade_ratio_pdf_p3, conditional,
                  0.0, math.inf, _COV_SPEC)


def _rejected_variant_coverage_dom_p3(gamma, params: NetworkParams):
    """Rejected variant of :func:`coverage_dom_p3`: the self-convolution of
    the distance-ratio law, whose ccdf has the closed form
    ``gamma**(-2/alpha) * (1 + (2/alpha) ln gamma)`` above 1, exactly 1 at
    and below it, and exactly 0 at ``gamma = inf``."""
    a = 2.0 / params.channel.alpha_l
    g = np.maximum(np.asarray(gamma, dtype=float), 1.0)
    with np.errstate(invalid="ignore"):         # 0 * inf at g = inf, replaced below
        out = np.where(g == math.inf, 0.0, g**-a * (1.0 + a * np.log(g)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Machine-readable arbitration report
# ---------------------------------------------------------------------------


def _ks_distance(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    n = samples.size
    idx = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(cdf_values - idx / n),
                                   np.abs(cdf_values - (idx - 1) / n))))


def build_discrepancy_report(params: NetworkParams, seed: int = 20240,
                             n_trials: int = 200_000) -> list[dict]:
    """Arbitrate each known formula defect against Monte Carlo and report.

    Returns a JSON-ready list; every entry records the implemented form, the
    rejected variant, and the numeric evidence behind the choice.  The
    interference-region variants of the aggregate engines are arbitrated as
    well.
    """
    from .analytic import coverage_p1, coverage_p2
    from .montecarlo import SimPlan, run_coverages, sample_statistic

    cfg, ch = params.antenna, params.channel
    plan = SimPlan(params=params, policy="P3", thresholds_db=(0.0,),
                   n_trials=n_trials, master_seed=seed)
    report = []

    # Gain-ratio density: exponent sign arbitration.
    g_samples, _ = sample_statistic(plan, "G_ratio_p2")
    g_samples = np.sort(g_samples)
    ks_corrected = _ks_distance(g_samples, 1.0 - gain_ratio_ccdf_p2(g_samples, params))
    mass_spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_subdivisions=20_000)
    mass_corrected = integrate_1d(lambda g: gain_ratio_pdf_p2(g, params),
                                  1.0, cfg.g_max / cfg.g_s, mass_spec)
    mass_rejected = integrate_1d(lambda g: _rejected_variant_gain_ratio_pdf_p2(g, params),
                                 1.0, cfg.g_max / cfg.g_s,
                                 QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6,
                                                max_subdivisions=20_000))
    report.append({
        "id": "p2-gain-ratio-density",
        "implemented": "negative exponential argument; inner integral over [g_s, g_max/g]",
        "rejected_variant": "positive exponential argument; inner integral over [g_s/g, g_max/g]",
        "evidence": {
            "implemented_mass": mass_corrected,
            "rejected_mass": mass_rejected,
            "ks_implemented_vs_mc": ks_corrected,
            "n_samples": int(g_samples.size),
        },
        "note": "rejected variant is far from unit mass and fails Monte Carlo arbitration",
    })

    # Distance-ratio constant arbitration.
    w_samples, _ = sample_statistic(plan, "W_p3")
    w_samples = np.sort(w_samples)
    ks_w = _ks_distance(w_samples, 1.0 - distance_ratio_ccdf_p3(w_samples, params))
    bracket = lemma_bracket_constant(params)
    report.append({
        "id": "p3-distance-ratio-constant",
        "implemented": "normalizing constant 2/alpha (unit mass on [1, inf))",
        "rejected_variant": "erf/exponential bracket divided by alpha",
        "evidence": {
            "rejected_bracket_value": bracket,
            "rejected_total_mass": bracket / 2.0,
            "implemented_total_mass": 1.0,
            "ks_implemented_vs_mc": ks_w,
            "n_samples": int(w_samples.size),
        },
        "note": "the two forms share the power-law shape; only the constant differs",
    })

    # SIR pairing arbitration for the nearest-transmitter policy.
    sir_samples, _ = sample_statistic(plan, "SIR_dom_p3")
    gammas_db = (-3.0, 0.0, 3.0)
    gammas = _db_to_linear(gammas_db)
    pairings = {"product": coverage_dom_p3(gammas, params),
                "self": _rejected_variant_coverage_dom_p3(gammas, params)}
    evid = {}
    for j, gamma_db in enumerate(gammas_db):
        mc = float((sir_samples > gammas[j]).mean())
        evid[f"{gamma_db:+.0f}dB"] = {
            "mc": mc,
            "product_pairing": float(pairings["product"][j]),
            "self_pairing": float(pairings["self"][j]),
            "mc_stderr": float(math.sqrt(mc * (1 - mc) / sir_samples.size)),
        }
    report.append({
        "id": "p3-dominant-sir-pairing",
        "implemented": "distance-ratio law paired with the gain-fade-ratio law",
        "rejected_variant": "distance-ratio law convolved with itself",
        "evidence": {"coverage": evid, "n_samples": int(sir_samples.size)},
        "note": "self-pairing ignores the antenna gain ratio and is pinned at 1 below gamma=1",
    })

    gammas_db = (0.0, 5.0)
    gammas = _db_to_linear(gammas_db)
    regions = (
        ("P1", coverage_p1, "all-beams", "single-beam",
         "single-beam keep-out under-excludes interferers near the other beam maxima"),
        ("P2", coverage_p2, "grid", "one-sided",
         "one-sided keep-out misses that every beam maximum repels interferers by phi_c"),
    )
    mc_curves = run_coverages([SimPlan(params=params, policy=policy, thresholds_db=gammas_db,
                                       n_trials=n_trials, master_seed=seed + 1)
                               for policy, *_ in regions])
    for (policy, cov_fn, keep, drop, note), mc in zip(regions, mc_curves):
        implemented = cov_fn(gammas, params, exclusion=keep)
        rejected = cov_fn(gammas, params, exclusion=drop)
        evid = {}
        for j, g_db in enumerate(gammas_db):
            evid[f"{g_db:+.0f}dB"] = {
                "mc": float(mc.p_cov[j]),
                "mc_stderr": float(mc.stderr[j]),
                "implemented": float(implemented[j]),
                "rejected": float(rejected[j]),
            }
        report.append({
            "id": f"{policy.lower()}-interference-exclusion-region",
            "implemented": {"P1": "keep-out around every beam maximum (per-transmitter "
                                  "best-beam power stays below the serving level)",
                            "P2": "keep-out band of half-width phi_c around every beam maximum"}[policy],
            "rejected_variant": {"P1": "keep-out radius from the selected beam's gain only",
                                 "P2": "one-sided angular keep-out of width phi_c beside the link"}[policy],
            "evidence": {"coverage": evid, "n_trials": n_trials},
            "note": note,
        })
    return report
