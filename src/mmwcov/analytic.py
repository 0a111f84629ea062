"""Quadrature-based evaluation of the coverage model.

Mirrors the Monte Carlo engine: serving-power law, conditional interference
Laplace transforms over policy-specific regions, and the coverage integrals
for the three serving policies.  Every coverage curve, here and in
:mod:`dominant`, is one walk (:func:`_curve`): the density of a serving
statistic times the coverage given that statistic, integrated over it.

Every law here is the law given a nonempty disk (at least one transmitter
within ``r_los``), as the simulator conditions every trial.  Interference
regions come in two ``exclusion`` variants per policy: the simple
single-beam (P1) / one-sided (P2) descriptions, and the sharper ones
("all-beams", "grid") that keep out interferers around every beam maximum,
which is what the selection rule implies.  The sharper ones are the
defaults; the discrepancy report arbitrates the two against Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .numerics import (NonFiniteIntegrandError, QuadratureError, QuadratureSpec,
                       composite_gauss_legendre, gauss_legendre, integrate_many)
from .radio import (TWO_PI, _LN10, NetworkParams, _curvature, _rolloff_offset, gain_3gpp,
                    gain_approx)

# erf comes from the standard library, element by element: the package
# needs numpy alone, and importing scipy.special would cost every process
# 0.2-0.3 s of CPU.

__all__ = [
    "ServingPowerLaw",
    "serving_power_law",
    "serving_power_ccdf",
    "nearest_power_ccdf",
    "phi_c_pdf",
    "laplace_p1",
    "laplace_p2",
    "laplace_p3",
    "coverage_p1",
    "coverage_p2",
    "coverage_p3",
    "check_alpha",
    "P1_EXCLUSIONS",
    "P2_EXCLUSIONS",
]

P1_EXCLUSIONS = ("single-beam", "all-beams")
P2_EXCLUSIONS = ("one-sided", "grid")

# Quadrature spec of the analytic coverage integrals, each curve's one
# adaptive level: its error stays well below the cross-engine tolerances.
_OUTER_SPEC = QuadratureSpec(rel_tol=2e-5, abs_tol=1e-8, max_subdivisions=4000)

# P2's inner integrals (see coverage_p2): a geometric lattice of z, cells
# _Z_CELL wide from the floor of _z_floor, and _Z_NODES Gauss-Legendre nodes
# per piece (_z_rule).  Sized by measured error: over the parameter box each
# inner mean is within max(1e-9, 1e-5 |inner|) of adaptive quadrature
# (tests/test_analytic.py, TestP2InnerRule).
_Z_CELL = 4.0
_Z_FLOOR = 4.0**-3
_Z_NODES = 12

# Fraction of the disk radius below which radial mass is negligible for the
# interference exponent (the integrand is bounded by r there).
_R_FLOOR_FRAC = 1e-6

# The angular rule of the region exponents: every angular panel whose gain
# or keep-out radius varies is cut into equal pieces no wider than
# phi_3db/2, with _N_ANG Gauss-Legendre nodes each.  Sized by measured
# error: at the corners of the parameter box the conditional coverages stay
# within 1e-8 of a fine rule (tests/test_analytic.py, TestExponentRule).
_N_ANG = 8

# Both quadrature engines integrate fixed functions of a log variable u, the
# rows of a family, over intervals and half-lines; _Antiderivatives tabulates
# their antiderivatives, built on a call's first use, never at import.  Two
# families use it.
#
# The region exponents (_radial_table, per (alpha, m_x, k_max)): the radial
# part of an angular node's exponent needs no quadrature nodes.  With
# c = A r**-alpha its interferers' amplitude and u = log(s c), the gamma fade
# integrated out leaves one integrand per derivative order k (Andrews,
# Baccelli and Ganti, IEEE TCOM 2011; Bai and Heath, IEEE TWC 2015):
#     int (1 - (1 + s c)**-m) r dr         = (s A)**(2/alpha)/alpha int g_0 du,
#     int c**k (1 + s c)**-(k + m) r dr    = s**-k (s A)**(2/alpha)/alpha int g_k du,
#     g_0 = (1 - (1 + e**u)**-m) e**(-2u/alpha),
#     g_k = e**((k - 2/alpha) u) (1 + e**u)**-(k + m),
# over u from log(s A r_los**-alpha) up by alpha log(r_los / r_lo).
#
# The dominant P2 path-loss/fade-ratio law (dominant._fade_table, per
# (alpha, m_s, m_x)): the two rows e**(+-2u/alpha) F(u), F the fade-ratio
# ccdf at the odds e**u, on half-lines (see
# dominant.pathloss_fade_ratio_ccdf_p2).
#
# The table: _U_COEFS-coefficient panel polynomials on [-_U_HALF, _U_HALF],
# on panels a power of two wide and at most _U_STEP over the steepest
# log-slope of the rows, exponential tails beyond, and a _U_SHORT-node
# Gauss-Legendre rule for an interval shorter than one panel.  Intervals
# and half-lines come out within 1e-12 of mpmath (tests/test_analytic.py,
# TestRadialAntiderivative; tests/test_dominant.py, TestFadeTable).  Below
# _ALPHA_MIN the rows span more than the float range on the table (g_0 grows
# as e**((2/alpha - 1) |u|) to the left, and the P2 rows reach e**(80/alpha)
# at its ends).
_U_HALF = 40.0
_U_COEFS = 8
_U_STEP = 0.25
_U_SHORT = 8
_ALPHA_MIN = 0.25

# (pair, angular node) elements of one block of the exponent sums at k_max 1
# (see _block_size), and angular nodes of one slice of a grid build: small
# enough that their temporaries stay in a per-core cache, and peak memory
# does not grow with the number of nodes or pairs in a quadrature round.
_ELEMENT_BUDGET = 2**12


# ---------------------------------------------------------------------------
# Serving-power law (maximum over transmitters of gain(misalignment) * r**-alpha)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingPowerLaw:
    """Distribution of the normalized maximum received power, given a
    nonempty disk.

    Per transmitter the best beam is the nearest maximum, so the misalignment
    is uniform on [0, beam_spacing/2] and independent of the radius; the
    maximum over a Poisson number of such draws has the closed form below
    (gaussian-in-angle integrals reduce to erf), from which the void mass
    ``void_mass`` at ``w_min`` is taken out.
    """

    params: NetworkParams

    def __post_init__(self) -> None:
        cfg = self.params.antenna
        if 0.5 * cfg.beam_spacing > cfg.phi_a:
            raise ValueError("beam spacing exceeds the mainlobe width; the "
                             "serving-power law assumes mainlobe misalignment")

    @property
    def _half(self) -> float:
        return 0.5 * self.params.antenna.beam_spacing

    @property
    def w_min(self) -> float:
        cfg, ch = self.params.antenna, self.params.channel
        g_lo = gain_approx(self._half, cfg)
        return g_lo * self.params.r_los ** (-ch.alpha_l)

    @property
    def void_mass(self) -> float:
        return self.params.void_probability

    def psi(self, w):
        """Upper gain limit compatible with power level ``w`` inside the disk."""
        alpha = self.params.channel.alpha_l
        return np.minimum(np.asarray(w, dtype=float) * self.params.r_los**alpha,
                          self.params.antenna.g_max)

    def _window(self, w):
        """The misalignment ``lo`` below which a transmitter at the disk edge
        still beats power level ``w``, and the gaussian-in-angle (erf) window
        of the misalignments from ``lo`` to half the beam spacing."""
        cfg, ch = self.params.antenna, self.params.channel
        lo = _rolloff_offset(cfg.g_max / self.psi(w), cfg)
        q = (2.0 / ch.alpha_l) * _curvature(cfg) * _LN10
        amp = math.sqrt(math.pi / (4.0 * q))
        z = np.sqrt(q) * lo
        erf_lo = np.fromiter(map(math.erf, z.flat), float, z.size).reshape(z.shape)
        # clamp: rounding can push the window a few ulp negative at w_min
        window = np.maximum(amp * (math.erf(math.sqrt(q) * self._half) - erf_lo), 0.0)
        return lo, window

    def inner_pdf(self, w):
        """Density of a single transmitter's normalized power."""
        cfg, ch = self.params.antenna, self.params.channel
        w_arr = np.asarray(w, dtype=float)
        alpha, r_l = ch.alpha_l, self.params.r_los
        _, window = self._window(w_arr)
        beta = (alpha + 2.0) / alpha
        dens = (4.0 * cfg.g_max ** (2.0 / alpha) / (self.params.antenna.beam_spacing * alpha * r_l**2)
                * w_arr ** (-beta) * window)
        out = np.where(w_arr >= self.w_min, dens, 0.0)
        return float(out) if out.ndim == 0 else out

    def inner_cdf(self, w):
        cfg, ch = self.params.antenna, self.params.channel
        w_arr = np.asarray(w, dtype=float)
        alpha, r_l = ch.alpha_l, self.params.r_los
        lo, window = self._window(w_arr)
        half = self._half
        tail = cfg.g_max ** (2.0 / alpha) / (np.maximum(w_arr, self.w_min) ** (2.0 / alpha) * r_l**2)
        cdf = (2.0 / self.params.antenna.beam_spacing) * (np.maximum(half - lo, 0.0) - tail * window)
        out = np.clip(np.where(w_arr >= self.w_min, cdf, 0.0), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, s0):
        m = self.params.mean_count
        raw = np.exp(-m * (1.0 - self.inner_cdf(s0)))    # void_mass at w_min
        s_arr = np.asarray(s0, dtype=float)
        raw = np.where(s_arr >= self.w_min, raw, 0.0)
        out = np.clip((raw - self.void_mass) / (1.0 - self.void_mass), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def pdf(self, s0):
        m = self.params.mean_count
        dens = (m * self.inner_pdf(s0) * np.exp(-m * (1.0 - self.inner_cdf(s0)))
                / (1.0 - self.void_mass))
        return float(dens) if np.ndim(dens) == 0 else dens

    def ccdf(self, s0):
        return 1.0 - self.cdf(s0)


@lru_cache(maxsize=16)
def serving_power_law(params: NetworkParams) -> ServingPowerLaw:
    return ServingPowerLaw(params)


def serving_power_ccdf(s0, params: NetworkParams):
    return serving_power_law(params).ccdf(s0)


def nearest_power_ccdf(tau, params: NetworkParams):
    """ccdf of the boresight power g_max * r1**(-alpha) from the nearest
    transmitter, given a nonempty disk."""
    cfg, ch = params.antenna, params.channel
    tau_arr = np.asarray(tau, dtype=float)
    radius = np.minimum((cfg.g_max / tau_arr) ** (1.0 / ch.alpha_l), params.r_los)
    prob = 1.0 - np.exp(-params.density * math.pi * radius**2)
    out = np.clip(prob / (1.0 - params.void_probability), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def phi_c_pdf(phi_c, params: NetworkParams):
    """Density of the minimum angular distance over all beams and
    transmitters, given a nonempty disk; support [0, beam_spacing/2]."""
    cfg = params.antenna
    phi_arr = np.asarray(phi_c, dtype=float)
    rate = params.density * cfg.n_beams * params.r_los**2
    dens = rate * np.exp(-rate * phi_arr)
    out = (np.where((phi_arr >= 0.0) & (phi_arr <= 0.5 * cfg.beam_spacing), dens, 0.0)
           / (1.0 - params.void_probability))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Interference Laplace exponents over the policy regions
# ---------------------------------------------------------------------------


def _radial_integrand(u: np.ndarray, alpha: float, m_x: int, k_max: int) -> np.ndarray:
    """[g_0(u), ..., g_k_max(u)] on a leading axis (see the comment at
    ``_U_HALF``)."""
    soft = np.logaddexp(0.0, u)                 # log(1 + e**u), without overflow
    out = np.empty((k_max + 1,) + u.shape)
    np.log(-np.expm1(-m_x * soft), out=out[0])
    out[0] -= (2.0 / alpha) * u
    for k in range(1, k_max + 1):
        np.multiply(u, k - 2.0 / alpha, out=out[k])
        out[k] -= (k + m_x) * soft
    return np.exp(out, out=out)


def _exp_integral(log_coef, rate: float, span, peak):
    """int e**(log_coef + rate u) du over an interval ``span`` long (possibly
    inf) whose end ``peak`` is where the integrand peaks, its upper end if
    ``rate > 0`` and its lower end if ``rate < 0``.  Taken from that end, so
    that it overflows only where the integral does, whatever the span."""
    if rate == 0.0:
        return np.exp(log_coef) * span
    return np.exp(log_coef + rate * peak) * (-np.expm1(-abs(rate) * span) / abs(rate))


def check_alpha(alpha: float) -> None:
    """Refuse a path-loss exponent below ``_ALPHA_MIN``, which the
    antiderivative tables of the region exponents and of the dominant P2
    law cannot take."""
    if not alpha >= _ALPHA_MIN:
        raise ValueError(f"must be at least {_ALPHA_MIN:g} for the analytic region exponents "
                         f"(got {alpha:g}): below it their radial integrands, and the dominant "
                         f"P2 law's fade-ratio rows, leave the float range")


class _Antiderivatives:
    """The integrals of the rows R_0 .. R_(K-1) of one family (see the
    comment at ``_U_HALF``) over intervals (:meth:`integrals`) and
    half-lines (:meth:`half_lines`).

    ``values(u)`` gives [R_0(u), ...] on a leading axis, ``slope`` bounds
    their log-slopes |d log R_k / du|, and ``below[k]`` and ``above[k]`` are
    the (log coef, rate) of the exponential e**(log coef + rate u) that R_k
    meets below -_U_HALF and above _U_HALF (to a relative error below
    e**-_U_HALF times the family's orders, as for g_k (k + m_x)).

    [-_U_HALF, _U_HALF] is cut into ``n`` panels of width ``h``, on which
    each R_k is interpolated at ``_U_COEFS`` Gauss-Legendre nodes; panel i
    keeps, per k, the masses of the panels before it and from it on, and
    the coefficients of its partial integral ``p_i(t) = int_(left_i)^(left_i
    + t h) R_k``, a polynomial with no constant term.  An interval of at
    least one panel is the panel masses between its end panels, counted
    from the end that leaves the smaller mass outside, plus and minus the
    end polynomials; a half-line is the masses on its side of its end panel,
    plus or minus that panel's polynomial.  Their parts beyond +-_U_HALF are
    integrals of the tail exponentials in closed form.  A shorter interval
    is integrated directly by a ``_U_SHORT``-node Gauss-Legendre rule, as
    the difference of two close polynomial values would cancel.
    """

    def __init__(self, values, slope: float, below: list, above: list):
        self.values, self.below, self.above = values, below, above
        self.k_max = len(below) - 1
        # a power of two, so that every panel edge is exact and an end's
        # offset from its panel's edge is computed without rounding
        self.inv_h = 2.0 ** math.ceil(math.log2(slope / _U_STEP))
        self.h = 1.0 / self.inv_h
        self.n = n = round(2.0 * _U_HALF * self.inv_h)
        # Legendre coefficients of each panel's interpolant from the values at
        # the nodes, then its Taylor coefficients in t = (u - left) / h from
        # those of the shifted Legendre polynomials P_j(2t - 1)
        x, w = gauss_legendre(_U_COEFS)
        legendre = np.empty((_U_COEFS, _U_COEFS))
        legendre[0], legendre[1] = 1.0, x
        for j in range(2, _U_COEFS):
            legendre[j] = ((2 * j - 1) * x * legendre[j - 1] - (j - 1) * legendre[j - 2]) / j
        project = (np.arange(_U_COEFS) + 0.5)[:, None] * w * legendre
        shifted = np.array([[(-1) ** (j + i) * math.comb(j, i) * math.comb(j + i, i)
                             for i in range(_U_COEFS)] for j in range(_U_COEFS)], dtype=float)
        # rows[0] and rows[1]: the masses before and from each panel; then
        # the coefficients of t, t**2, ... of its partial integral
        self.rows = np.empty((_U_COEFS + 2, self.k_max + 1, n))
        scale = (self.h / np.arange(1.0, _U_COEFS + 1.0))[:, None, None]
        chunk = _block_size(self.k_max)
        for lo in range(0, n, chunk):               # temporaries within the budget
            left = -_U_HALF + self.h * np.arange(lo, min(lo + chunk, n))
            taylor = np.einsum("jq,knq->knj", project,
                               values(left[:, None] + 0.5 * self.h * (x + 1.0)))
            self.rows[2:, :, lo:lo + left.size] = np.einsum("knj,ji->ikn", taylor, shifted) * scale
        coefs = self.rows[2:]
        mass = coefs[-1].copy()
        for c in coefs[-2::-1]:
            mass += c                               # p_i(1), summed as evaluated
        np.cumsum(mass[:, :-1], axis=1, out=self.rows[0][:, 1:])
        self.rows[0][:, 0] = 0.0
        np.cumsum(mass[:, ::-1], axis=1, out=self.rows[1][:, ::-1])

    def integrals(self, a: np.ndarray, width: np.ndarray) -> np.ndarray:
        """[int_a^(a + width) R_k] for k = 0 .. k_max on a leading axis,
        for finite ``a`` and ``width >= 0``; ``width`` is taken as given,
        not from two rounded table positions."""
        out = np.empty((self.k_max + 1, a.size))
        short = width < self.h
        if short.any():
            x, w = gauss_legendre(_U_SHORT)
            half = 0.5 * width[short]
            u = (a[short] + half)[:, None] + half[:, None] * x
            out[:, short] = np.einsum("knq,q->kn", self.values(u), w) * half
            long = ~short
            out[:, long] = self._long(a[long], width[long])
        else:
            out[:] = self._long(a, width)
        return out

    def _long(self, a: np.ndarray, width: np.ndarray) -> np.ndarray:
        lim, n = _U_HALF, a.size
        # the panels of both ends, then their t in the panel from the exact
        # offsets of a and of a + width from the panel edges
        b = a + width
        ends = np.concatenate((a, b))
        np.clip(ends, -lim, lim, out=ends)
        ends += lim
        ends *= self.inv_h
        panel = ends.astype(np.intp)
        np.minimum(panel, self.n - 1, out=panel)
        t = np.multiply(panel, self.h, out=ends)
        t -= lim
        np.subtract(np.clip(a, -lim, lim), t[:n], out=t[:n])
        np.subtract(a, t[n:], out=t[n:])
        t[n:] += width
        outside = np.abs(b) > lim
        if outside.any():
            t[n:][outside] = np.clip(t[n:][outside], 0.0, self.h)
        t *= self.inv_h
        rows = np.take(self.rows, panel, axis=2, mode="clip")
        poly = np.multiply(rows[-1], t)
        for c in rows[-2:1:-1]:
            poly += c
            poly *= t
        before, after = rows[0], rows[1]
        val = np.where(before[:, :n] <= after[:, n:], before[:, n:] - before[:, :n],
                       after[:, :n] - after[:, n:])
        val += poly[:, n:]
        val -= poly[:, :n]
        below = a < -lim
        if below.any():
            a_in = a[below]
            span = np.minimum(width[below], -lim - a_in)
            top = a_in + span
            for k, (log_coef, rate) in enumerate(self.below):
                val[k, below] += _exp_integral(log_coef, rate, span, top if rate > 0.0 else a_in)
        above = b > lim
        if above.any():
            b_in = b[above]
            span = width[above] - np.maximum(lim - a[above], 0.0)
            bottom = b_in - span
            for k, (log_coef, rate) in enumerate(self.above):
                val[k, above] += _exp_integral(log_coef, rate, span,
                                               b_in if rate > 0.0 else bottom)
        return val

    def half_lines(self, x: np.ndarray, k: int, upper: bool, log_scale: np.ndarray) -> np.ndarray:
        """``e**log_scale int R_k`` over (-inf, x], or over [x, inf) if
        ``upper``, for each finite x and its own ``log_scale``; R_k's tail on
        that side must decay.  The scale enters the tail integrals in their
        exponents, so it may leave the float range where the half-line stays
        beyond the table."""
        lim = _U_HALF
        inner = np.clip(x, -lim, lim)
        panel = np.minimum(((inner + lim) * self.inv_h).astype(np.intp), self.n - 1)
        t = (inner - (panel * self.h - lim)) * self.inv_h
        rows = self.rows[:, k].take(panel, axis=1)
        poly = rows[-1] * t
        for c in rows[-2:1:-1]:
            poly += c
            poly *= t
        # the part on the table, from its edge -lim to x or from x to lim
        reach = x < lim if upper else x > -lim
        val = np.exp(log_scale, where=reach, out=np.zeros_like(t))
        val *= rows[1] - poly if upper else rows[0] + poly
        (low_coef, low_rate), (high_coef, high_rate) = self.below[k], self.above[k]
        if upper:
            beyond = np.flatnonzero(x < -lim)
            if beyond.size:
                xb = x[beyond]
                val[beyond] += _exp_integral(low_coef + log_scale[beyond], low_rate, -lim - xb,
                                             -lim if low_rate > 0.0 else xb)
            val += _exp_integral(high_coef + log_scale, high_rate, math.inf,
                                 np.maximum(x, lim))
        else:
            val += _exp_integral(low_coef + log_scale, low_rate, math.inf,
                                 np.minimum(x, -lim))
            beyond = np.flatnonzero(x > lim)
            if beyond.size:
                xb = x[beyond]
                val[beyond] += _exp_integral(high_coef + log_scale[beyond], high_rate, xb - lim,
                                             xb if high_rate > 0.0 else lim)
        return val


@lru_cache(maxsize=8)
def _radial_table(alpha: float, m_x: int, k_max: int) -> _Antiderivatives:
    """The table of the region exponents' rows g_0 .. g_k_max."""
    check_alpha(alpha)
    inv = 2.0 / alpha
    slope = max([inv, abs(1.0 - inv)] + [max(m_x + inv, abs(k - inv))
                                         for k in range(1, k_max + 1)])
    # g_k ~ coef e**(rate u) below -_U_HALF and above _U_HALF
    return _Antiderivatives(lambda u: _radial_integrand(u, alpha, m_x, k_max), slope,
                            [(math.log(m_x), 1.0 - inv)] + [(0.0, k - inv)
                                                            for k in range(1, k_max + 1)],
                            [(0.0, -inv)] + [(0.0, -(m_x + inv))] * k_max)


def _block_size(k_max: int) -> int:
    """Elements of one block of radial integrals of orders 0 .. k_max: the
    budget at k_max 1, fewer at higher orders, so that the temporaries of a
    block do not grow with k_max."""
    return max(2 * _ELEMENT_BUDGET // (k_max + 1), 64)


def _blocks(bounds: np.ndarray, size: int):
    """Ranges (lo, hi) of whole pairs with at most ``size`` elements
    together, or one pair that has more; pair j has the elements
    ``bounds[j]:bounds[j+1]``."""
    lo, n_pairs = 0, bounds.size - 1
    while lo < n_pairs:
        hi = int(np.searchsorted(bounds, bounds[lo] + size, "right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


class _Grid:
    """The angular nodes of the region exponents of a batch of conditioning
    nodes, which :func:`_exponent_derivatives` sums with the radial
    integrals of :func:`_radial_table`: the one place where angular panels
    are cut.

    Node j's panel edges are the antenna's kinks 0, phi_a, pi, 2 pi - phi_a
    and 2 pi, and the region's own ``cuts[j]``, clipped to [0, pi] for a
    region ``symmetric`` about the link (weight 2, for the mirror side) or
    to [0, 2 pi] (weight 1), and sorted.  A panel is dropped when it has no
    width or ``keep_out(mid, node)`` holds at its midpoint.  Beyond phi_a
    the gain is flat, and so is the keep-out radius unless it
    ``radius_varies``: such a panel is one node at its midpoint, weighted
    by its width.  Any other panel is cut into equal pieces no wider than
    ``phi_3db/2``, with ``_N_ANG`` Gauss-Legendre nodes each.  A node's
    curved panels come first, then its flat ones.  The gains (of offsets
    folded onto [0, pi]) and keep-out radii ``rlo_fn(delta, node)`` of all
    angular nodes are computed together, in slices of at most
    ``_ELEMENT_BUDGET``.

    Node j owns the angular nodes ``angular[j]:angular[j+1]``.  With A the
    interference amplitude of an angular node (``c = A r**-alpha``) and r_lo
    its keep-out radius, it keeps its angular weight times
    ``A**(2/alpha)/alpha`` (``weight``), ``log A - alpha log r_los``, which
    ``log s`` shifts to the lower end of its u range (``offset``), and the
    length ``alpha log(r_los / r_lo)`` of that range (``width``).  An
    angular node whose keep-out radius reaches the disk edge has no width
    and is left out.
    """

    def __init__(self, params: NetworkParams, cuts: np.ndarray, keep_out, rlo_fn,
                 symmetric: bool = True, radius_varies: bool = False):
        cfg, ch = params.antenna, params.channel
        n_nodes = cuts.shape[0]
        span, mult = (math.pi, 2.0) if symmetric else (TWO_PI, 1.0)
        kinks = (0.0, cfg.phi_a, math.pi, TWO_PI - cfg.phi_a, TWO_PI)
        edges = np.clip(np.hstack((np.tile(kinks, (n_nodes, 1)), cuts)), 0.0, span)
        if cuts.size:
            edges.sort(axis=1)              # the kinks alone are in order
        a, b = edges[:, :-1], edges[:, 1:]
        mid = 0.5 * (a + b)
        keep = b - a > 1e-13
        if keep_out is not None:
            keep &= ~keep_out(mid, np.arange(n_nodes)[:, None])
        kept = np.flatnonzero(keep)
        owner = kept // a.shape[1]
        mid = np.take(mid, kept)
        kept += owner                       # the panels' left edges among all edges
        a, b = np.take(edges, kept), np.take(edges, kept + 1)
        flat = (np.minimum(mid, TWO_PI - mid) >= cfg.phi_a) & (not radius_varies)
        # a flat panel has no curved pieces
        width = b - a
        count = np.where(flat, 0, np.maximum(np.ceil(width / (0.5 * cfg.phi_3db)), 1.0))
        count = count.astype(np.intp)
        half = np.repeat(0.5 * width / np.maximum(count, 1), count)
        centre = np.repeat(a, count) + (2.0 * _runs(np.zeros_like(count), count) + 1.0) * half
        x, w = gauss_legendre(_N_ANG)
        nodes = (np.repeat(owner, count * _N_ANG),
                 (centre[:, None] + half[:, None] * x).ravel(), (half[:, None] * w * mult).ravel())
        if flat.any():
            nodes = [np.concatenate(pair) for pair in
                     zip(nodes, (owner[flat], mid[flat], width[flat] * mult))]
            by_node = np.argsort(nodes[0], kind="stable")
            nodes = [part[by_node] for part in nodes]
        owner, delta, ang_w = nodes
        # gains and keep-out radii in slices, so that their temporaries stay
        # within the budget
        gains, r_lo = np.empty((2, delta.size))
        for lo in range(0, delta.size, _ELEMENT_BUDGET):
            part = slice(lo, lo + _ELEMENT_BUDGET)
            gains[part] = gain_3gpp(np.minimum(delta[part], TWO_PI - delta[part]), cfg)
            r_lo[part] = rlo_fn(delta[part], owner[part])
        alpha = ch.alpha_l
        log_amp = np.log(gains * (ch.tx_power_w * ch.path_gain_const * cfg.g_max / ch.m_x))
        width = alpha * np.log(params.r_los / r_lo)
        keep = width > 0.0
        self.alpha, self.m_x = alpha, ch.m_x
        self.weight = ang_w[keep] * np.exp((2.0 / alpha) * log_amp[keep]) / alpha
        self.offset = log_amp[keep] - alpha * math.log(params.r_los)
        self.width = width[keep]
        self.angular = np.searchsorted(owner[keep], np.arange(n_nodes + 1))


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1, run after run."""
    ends = np.cumsum(count)
    return np.repeat(first - ends + count, count) + np.arange(ends[-1] if ends.size else 0)


def _exponent_derivatives(grid: _Grid, node, s, k_max: int, density) -> np.ndarray:
    """The scaled exponent terms [t_0, ..., t_k_max] of ``node[i]`` at
    ``s[i]`` and density ``density[i]`` (or one ``density`` for all) for
    every i: t_0 = F, the exponent, and t_k = (-s)**k F^(k) / k!.

    With v = 1/(1 + s c) over a node's interferers, the lambda-free sums
    S_0 = int (1 - v^m) and S_k = int (c v)^k v^m give F = -lambda S_0 and
    t_k = lambda C(m+k-1, k) s**k S_k >= 0 for k >= 1.  Over the
    radius of one angular node they are the radial integrals of
    :func:`_radial_table`, so s**k S_k = s**(2/alpha) sum weight *
    int_(log s + offset)^(... + width) g_k du over the node's angular nodes
    (see :class:`_Grid`); at s = 0 every t_k is 0.  Density enters only as
    the prefactor, so the sums of each distinct (node, s) pair are
    evaluated once and then scaled per i.  The (pair, angular node)
    elements of a call are evaluated in one flat pass, in blocks of whole
    pairs of at most :func:`_block_size` elements (a larger pair alone, in
    pieces), and each pair is reduced on its own, so the sums of a pair do
    not depend on the other pairs of the call."""
    by_pair = np.lexsort((s, node))
    node_sorted, s_sorted = node[by_pair], s[by_pair]
    first = np.ones(node.size, dtype=bool)
    first[1:] = (node_sorted[1:] != node_sorted[:-1]) | (s_sorted[1:] != s_sorted[:-1])
    pair = np.empty(node.size, dtype=np.intp)
    pair[by_pair] = np.cumsum(first) - 1                # the distinct pair of each i
    pair_node, pair_s = node_sorted[first], s_sorted[first]
    table = _radial_table(grid.alpha, grid.m_x, k_max)
    positive = pair_s > 0.0
    log_s = np.log(pair_s, out=np.zeros_like(pair_s), where=positive)
    start = grid.angular[pair_node]
    count = np.where(positive, grid.angular[pair_node + 1] - start, 0)
    bounds = np.concatenate(([0], np.cumsum(count)))
    sums = np.zeros((k_max + 1, pair_s.size))
    size = _block_size(k_max)
    for lo, hi in _blocks(bounds, size):
        if bounds[hi] == bounds[lo]:
            continue                                    # empty regions or s = 0
        ang = _runs(start[lo:hi], count[lo:hi])
        u = np.repeat(log_s[lo:hi], count[lo:hi])
        u += grid.offset[ang]
        width, weight = grid.width[ang], grid.weight[ang]
        if ang.size > size:
            # one pair, in pieces of at most the block size
            for e0 in range(0, ang.size, size):
                piece = slice(e0, e0 + size)
                vals = table.integrals(u[piece], width[piece])
                sums[:, lo] += np.einsum("kj,j->k", vals, weight[piece])
            continue
        vals = table.integrals(u, width)
        vals *= weight
        live = np.flatnonzero(count[lo:hi])
        sums[:, lo + live] = np.add.reduceat(vals, bounds[lo + live] - bounds[lo], axis=1)
    sums *= np.exp((2.0 / grid.alpha) * log_s)
    scale = np.array([-1.0] + [math.comb(grid.m_x + k - 1, k) for k in range(1, k_max + 1)],
                     dtype=float)
    return sums[:, pair] * (scale[:, None] * density)


def _exclusion_angle(params: NetworkParams, s_th: np.ndarray) -> np.ndarray:
    """Offsets below which the keep-out radius saturates at the disk edge."""
    cfg = params.antenna
    y = s_th * params.r_los**params.channel.alpha_l
    return np.minimum(_rolloff_offset(cfg.g_max / y, cfg), cfg.phi_a)


def _check_exclusion(policy: str, exclusion: str) -> None:
    """Refuse an unknown region variant up front: a curve whose thresholds
    need no quadrature builds no region to refuse it."""
    known = P1_EXCLUSIONS if policy == "P1" else P2_EXCLUSIONS
    if exclusion not in known:
        raise ValueError(f"unknown {policy} exclusion {exclusion!r}; expected one of {known}")


def _p1_grid(params: NetworkParams, s_th: np.ndarray, exclusion: str) -> _Grid:
    cfg, ch = params.antenna, params.channel
    if np.any(s_th < serving_power_law(params).w_min):
        raise ValueError("serving power below the support of the serving law")
    r_l = params.r_los
    inv_alpha = 1.0 / ch.alpha_l
    star = _exclusion_angle(params, s_th)

    if exclusion == "single-beam":
        # keep-out below phi* around the serving beam alone, with a radius
        # that follows the gain
        def rlo_from_chosen(delta, node):
            return np.minimum((gain_3gpp(delta, cfg) / s_th[node]) ** inv_alpha, r_l)

        return _Grid(params, star[:, None], lambda mid, node: mid < star[node], rlo_from_chosen)

    # Keep-out around *every* beam maximum: a transmitter beats s_th whenever
    # its own best-beam gain does, so the empty bands and the radius repeat
    # with the beam grid.
    step = cfg.beam_spacing

    def fold(delta):
        t = np.asarray(delta, dtype=float) % step
        return np.minimum(t, step - t)

    def rlo_exact(delta, node):
        return np.minimum((gain_approx(fold(delta), cfg) / s_th[node]) ** inv_alpha, r_l)

    ks = np.arange(int((math.pi + step) / step) + 2) * step
    ks = np.tile(ks[ks <= math.pi + step], (s_th.size, 1))
    cuts = np.hstack((ks - star[:, None], ks, ks + star[:, None], ks + 0.5 * step))
    return _Grid(params, cuts, lambda mid, node: fold(mid) < star[node], rlo_exact,
                 radius_varies=True)


def _p2_grid(params: NetworkParams, phi_c: np.ndarray, exclusion: str) -> _Grid:
    r_floor = _R_FLOOR_FRAC * params.r_los

    # r_floor is nominal: a keep-out radius of zero would do
    def rlo(delta, node):
        return np.full(np.shape(delta), r_floor)

    if exclusion == "one-sided":
        # link-relative azimuth, kept out below phi_c
        return _Grid(params, phi_c[:, None], lambda mid, node: mid < phi_c[node], rlo,
                     symmetric=False)

    # Keep-out of half-width phi_c around every beam maximum.  In link-relative
    # azimuth the maxima sit at k*step - phi_c (the serving link is phi_c off
    # its beam); the excluded azimuth bands are (k*step - 2 phi_c, k*step),
    # which for k = 1 .. n_beams tile [0, 2*pi] without wrap handling.  A node
    # at phi_c = 0 has no bands: its band edges are put at 0.
    step = params.antenna.beam_spacing
    ks = np.arange(1, params.antenna.n_beams + 1) * step
    banded = (phi_c > 0.0)[:, None]
    cuts = np.hstack((np.where(banded, np.maximum(0.0, ks - 2.0 * phi_c[:, None]), 0.0),
                      np.where(banded, np.minimum(TWO_PI, ks), 0.0)))
    band = step - 2.0 * phi_c
    return _Grid(params, cuts, lambda mid, node: np.remainder(mid, step) > band[node], rlo,
                 symmetric=False)


def _p3_grid(params: NetworkParams, r1: np.ndarray) -> _Grid:
    r_l = params.r_los
    r_lo = np.minimum(np.maximum(r1, _R_FLOOR_FRAC * r_l), r_l * (1.0 - 1e-12))
    return _Grid(params, np.empty((r1.size, 0)), None, lambda delta, node: r_lo[node])


def _one_node(grid: _Grid, density: float):
    """``exponent(s, k_max=0)``: the scaled terms [t_0, ..., t_k_max] of the
    one node of ``grid`` at ``s`` and ``density``, stacked on a leading
    axis: t_0 = F, the exponent of the transform exp(F), and t_k = (-s)**k
    F^(k) / k! (see :func:`_exponent_derivatives`; the transform's own
    scaled derivatives follow as in :func:`_conditional_coverage`)."""

    def exponent(s, k_max: int = 0):
        s_arr = np.asarray(s, dtype=float)
        out = _exponent_derivatives(grid, np.zeros(s_arr.size, dtype=np.intp),
                                    s_arr.reshape(-1), k_max, density)
        return out.reshape((k_max + 1,) + s_arr.shape)
    return exponent


def laplace_p1(s_th: float, params: NetworkParams, exclusion: str = "all-beams"):
    """Scaled exponent terms of the conditional interference Laplace
    transform given the serving power level (see :func:`_one_node`).

    By isotropy the transform does not depend on the serving beam's direction.
    """
    _check_exclusion("P1", exclusion)
    return _one_node(_p1_grid(params, np.array([float(s_th)]), exclusion), params.density)


def laplace_p2(phi_c: float, params: NetworkParams, exclusion: str = "grid"):
    """Scaled exponent terms of the conditional interference Laplace
    transform given the serving angular distance (see :func:`_one_node`)."""
    if not 0.0 <= phi_c <= 0.5 * params.antenna.beam_spacing:
        raise ValueError("phi_c outside [0, beam_spacing/2]")
    _check_exclusion("P2", exclusion)
    return _one_node(_p2_grid(params, np.array([float(phi_c)]), exclusion), params.density)


def laplace_p3(r1: float, params: NetworkParams):
    """Scaled exponent terms of the conditional interference Laplace
    transform given the serving distance (see :func:`_one_node`)."""
    if not 0.0 <= r1 <= params.r_los:
        raise ValueError("r1 outside [0, R_los]")
    return _one_node(_p3_grid(params, np.array([float(r1)])), params.density)


# ---------------------------------------------------------------------------
# Coverage integrals
# ---------------------------------------------------------------------------


def _conditional_coverage(terms: np.ndarray, s, params: NetworkParams):
    """Coverage given the scaled exponent terms [t_0, ..., t_(m_s-1)] at
    ``s`` (see :func:`_exponent_derivatives`), integrated over the gamma
    fade: sum_{k < m_s} b_k, with b_k = (-s)**k / k! d^k/ds^k of the
    transform exp(-noise s) L_I(s).

    Noise shifts t_0 by -noise s and t_1 by +noise s.  Then b_0 = exp(t_0)
    and k b_k = sum_{j<k} (k - j) t_(k-j) b_j, the first column of the
    exponential of the lower-triangular Toeplitz matrix of the t_k (Li,
    Zhang and Letaief, IEEE TWC 2014; Yu, Zhang, Haenggi and Letaief, IEEE
    JSAC 2017).  Every t_k and b_k with k >= 1 is >= 0 and the b_k sum to
    at most 1, so no term overflows or cancels at any fading order."""
    m_s, noise = params.channel.m_s, params.channel.noise_w * s
    kt = np.arange(m_s)[:, None] * terms          # k t_k
    if m_s > 1:
        kt[1] += noise
    b = np.empty_like(kt)
    b[0] = np.exp(terms[0] - noise)
    for k in range(1, m_s):
        b[k] = np.einsum("jn,jn->n", kt[k:0:-1], b[:k]) / k
    return b.sum(axis=0)


def _family(params) -> tuple[list, tuple]:
    """The curves of a coverage call and the leading shape of its result:
    one ``NetworkParams`` is one curve and adds no axis; a sequence of them
    is one curve each, on a leading axis.  Curves of one call may differ
    only in density, which enters their region exponents as a prefactor."""
    if isinstance(params, NetworkParams):
        return [params], ()
    family = list(params)
    if not family:
        raise ValueError("a coverage call needs at least one NetworkParams")
    base = family[0]
    for i, other in enumerate(family[1:], start=1):
        for part in ("antenna", "channel"):
            ours, theirs = getattr(base, part), getattr(other, part)
            for f in fields(ours):
                mine, yours = getattr(ours, f.name), getattr(theirs, f.name)
                if yours != mine:
                    raise ValueError(f"params {i} differs from params 0 in more than density: "
                                     f"{part}.{f.name} is {yours!r}, not {mine!r}")
    return family, (len(family),)


def _curve(label: str, family: list, lead: tuple, gamma, law, conditional, a: float, b: float,
           spec: QuadratureSpec | None = None, exclusion: str | None = None):
    """Coverage of the curves ``family`` (of shape ``lead``, as from
    :func:`_family`) at the linear thresholds ``gamma`` (scalar or array):
    over [a, b], the density ``law(x, params)`` of the serving statistic
    times the coverage given it, in lockstep to ``spec`` (``_OUTER_SPEC``),
    clipped to [0, 1].  A threshold <= 0 has coverage exactly 1, +inf
    exactly 0, and a NaN is refused.

    A round evaluates each curve's law once per distinct abscissa of that
    curve, and ``conditional(nodes, node, c, g)`` at every point: abscissa
    ``nodes[node]`` of the round's distinct ``nodes``, curve ``c``,
    threshold ``g``.  A failure names its curve point: the ``label`` curve
    at its threshold, with the curve's parameters (and ``exclusion``); its
    index is the point's position in the result.
    """
    g = np.asarray(gamma, dtype=float)
    flat = g.reshape(-1)
    nan = np.flatnonzero(np.isnan(flat))
    if nan.size:
        where = "".join(f"[{i}]" for i in np.unravel_index(nan[0], g.shape))
        raise ValueError(f"gamma{where} is NaN")
    live = np.flatnonzero(~((flat <= 0.0) | (flat == math.inf)))
    gammas = flat[live]

    def integrand(x, which):
        c, t = np.divmod(which, live.size)
        nodes, node = np.unique(x, return_inverse=True)
        law_at = np.empty((len(family), nodes.size))
        for i, params in enumerate(family):
            used = np.zeros(nodes.size, dtype=bool)
            used[node[c == i]] = True
            law_at[i, used] = law(nodes[used], params)
        return law_at[c, node] * conditional(nodes, node, c, gammas[t])

    out = np.tile(np.where(flat <= 0.0, 1.0, 0.0), (len(family), 1))
    try:
        vals = integrate_many(integrand, a, b, len(family) * live.size, spec or _OUTER_SPEC)
    except (QuadratureError, NonFiniteIntegrandError) as err:
        c, t = divmod(err.index, live.size)
        index = int(live[t])                # the position among all thresholds
        p, ch = family[c], family[c].channel
        head = "" if exclusion is None else f"exclusion {exclusion}, "
        message = (f"{label} coverage at threshold {10.0 * math.log10(flat[index]):.2f} dB "
                   f"({head}density {p.density:g}, sectors_exp {p.antenna.sectors_exp}, m_s "
                   f"{ch.m_s}, m_x {ch.m_x}, alpha {ch.alpha_l:g}): {err.message}")
        bound = (err.estimate, err.error_bound) if isinstance(err, QuadratureError) else ()
        raise type(err)(message, *bound, c * flat.size + index) from err
    out[:, live] = np.clip(vals.reshape(len(family), live.size), 0.0, 1.0)
    return float(out[0, 0]) if lead + g.shape == () else out.reshape(lead + g.shape)


def coverage_p1(gamma, params, exclusion: str = "all-beams"):
    """Coverage probability when the maximum-power pair serves (P1).

    ``gamma`` is a linear SINR threshold or an array of them; a scalar gives
    a float, an array an array of the same shape.  ``params`` is one
    ``NetworkParams``, or a sequence of n that differ only in density: then
    the result has a leading axis of n curves, and the curves share the
    region exponents of every round (see :func:`_exponent_derivatives`).
    """
    _check_exclusion("P1", exclusion)
    family, lead = _family(params)
    base = family[0]
    cfg, ch = base.antenna, base.channel
    density = np.array([p.density for p in family])
    s_den = ch.tx_power_w * cfg.g_max * ch.path_gain_const

    def conditional(nodes, node, c, g):
        s = ch.m_s * g / s_den / nodes[node]
        exponent = _exponent_derivatives(_p1_grid(base, nodes, exclusion), node, s,
                                         ch.m_s - 1, density[c])
        return _conditional_coverage(exponent, s, base)

    return _curve("P1", family, lead, gamma, lambda s_th, p: serving_power_law(p).pdf(s_th),
                  conditional, serving_power_law(base).w_min, math.inf, exclusion=exclusion)


def _z_floor(params: NetworkParams) -> float:
    """One curve's lattice floor: ``_Z_FLOOR`` times the ``z`` at which an
    interferer at the disk edge on a beam maximum matches the serving power
    (``r_los**2 / A**(2/alpha)``, ``A`` the largest interference amplitude),
    over a mean count above 1, which moves the coverage's turn to lower z."""
    cfg, ch = params.antenna, params.channel
    amp = ch.tx_power_w * ch.path_gain_const * cfg.g_max**2 / ch.m_x
    return _Z_FLOOR * params.r_los**2 * amp ** (-2.0 / ch.alpha_l) / max(1.0, params.mean_count)


def _z_pieces(u_top: np.ndarray, z_floor: np.ndarray):
    """The pieces of each ``[0, u_top[i]]`` on the lattice ``z_floor[i] *
    _Z_CELL**j`` (j >= 0), in order: ``[0, z_floor[i]]``, the whole lattice
    cells, and the partial cell that ends at ``u_top[i]``; one piece
    ``[0, u_top[i]]`` if ``u_top[i] <= z_floor[i]``.  Returns the owner i
    of every piece, its place among the pieces of i, and its bounds."""
    # the first lattice point at or above u_top, from the logarithm and
    # corrected for its rounding
    j = np.ceil(np.log(np.maximum(u_top / z_floor, 1.0)) / math.log(_Z_CELL))
    j += z_floor * _Z_CELL**j < u_top
    j -= (j > 0) & (z_floor * _Z_CELL ** (j - 1) >= u_top)
    count = j.astype(np.intp) + 1
    owner = np.repeat(np.arange(u_top.size), count)
    q = _runs(np.zeros_like(count), count)
    lo = np.where(q == 0, 0.0, z_floor[owner] * _Z_CELL ** (q - 1.0))
    hi = np.where(q == count[owner] - 1, u_top[owner], z_floor[owner] * _Z_CELL**q)
    return owner, q, lo, hi


def _z_rule(lo: np.ndarray, hi: np.ndarray, alpha: float):
    """Nodes ``z`` and weights ``w`` of P2's inner rule, a row of ``_Z_NODES``
    per piece ``[lo[i], hi[i]]``: Gauss-Legendre in ``log z`` on a lattice
    cell, and in ``v = z**min(1, alpha/2)`` on a piece from 0, where the
    conditional coverage is ``1 - c z**(alpha/2)`` to first order."""
    p, cell = min(1.0, 0.5 * alpha), lo > 0.0
    z, w = composite_gauss_legendre(np.log(lo, out=np.zeros_like(lo), where=cell),
                                    np.log(hi, out=hi**p, where=cell), _Z_NODES)
    z, w = z.reshape(lo.size, _Z_NODES), w.reshape(lo.size, _Z_NODES)
    z[cell] = np.exp(z[cell])
    w[cell] *= z[cell]
    w[~cell] *= z[~cell] ** (1.0 / p - 1.0) / p
    z[~cell] **= 1.0 / p
    return z, w


def coverage_p2(gamma, params, exclusion: str = "grid"):
    """Coverage probability when the minimum-angular-distance pair serves
    (P2; scalar or array ``gamma`` and one or a sequence of ``params``, as
    in :func:`coverage_p1`).

    The outer integral runs over the serving angle ``phi_c`` and the inner
    one over the serving distance ``d0``, uniform in the disk.  With
    ``z = (coef_t d0**alpha)**(2/alpha)``, where ``s = coef_t d0**alpha`` is
    the Laplace argument of threshold t, the inner integral is
    ``(1/U_t) int_0^U_t C(z**(alpha/2)) dz`` with ``U_t = coef_t**(2/alpha)
    r_los**2``, and the conditional coverage ``C`` of a ``(phi_c, curve)``
    node no longer depends on the threshold.  ``[0, U_t]`` is cut on a
    geometric lattice that depends on the curve alone (:func:`_z_pieces`),
    so the thresholds of a node share their whole lattice cells; every
    distinct ``(phi_c, curve, piece)`` of a round is integrated once, on the
    fixed nodes of :func:`_z_rule`, and each threshold sums its own pieces
    in lattice order.  A piece does not depend on the other thresholds or
    curves of the call, so a threshold gets bitwise the coverage it gets
    alone.  A point whose ``U_t`` leaves the float range is NaN, which the
    coverage walk reports with its curve point.
    """
    _check_exclusion("P2", exclusion)
    family, lead = _family(params)
    base = family[0]
    cfg, ch = base.antenna, base.channel
    alpha = ch.alpha_l
    density = np.array([p.density for p in family])
    z_floor = np.array([_z_floor(p) for p in family])
    s_den = ch.tx_power_w * cfg.g_max * ch.path_gain_const
    log_coef = (2.0 / alpha) * (math.log(ch.m_s) - math.log(s_den)) + 2.0 * math.log(base.r_los)
    # log U_t must keep U_t, the lattice point above it and the largest
    # Laplace argument U_t**(alpha/2) normal floats
    tiny, huge = np.log([np.finfo(float).tiny, np.finfo(float).max])
    log_top_range = tiny, min(huge - math.log(_Z_CELL), huge / max(1.0, 0.5 * alpha))

    def conditional(nodes, node, c, g):
        # the round's points share the distinct pieces of their lattices, on
        # the exponents of the round's distinct nodes
        phi_cs = nodes[node]
        grid = _p2_grid(base, nodes, exclusion)
        log_top = (2.0 / alpha) * (np.log(g) - np.log(gain_approx(phi_cs, cfg))) + log_coef
        inside = (log_top > log_top_range[0]) & (log_top < log_top_range[1])
        # a point outside that range keeps one piece, [0, its floor]
        u_top = np.exp(log_top, out=z_floor[c], where=inside)
        owner, q, lo, hi = _z_pieces(u_top, z_floor[c])
        keys = np.array([node[owner], c[owner], lo, hi])
        by_piece = np.lexsort(keys[::-1])
        keys = keys[:, by_piece]
        first = np.ones(by_piece.size, dtype=bool)
        first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        z, w = _z_rule(*keys[2:, first], alpha)
        z_node, z_c = np.repeat(keys[:2, first].astype(np.intp), _Z_NODES, axis=1)
        s = (z ** (0.5 * alpha)).ravel()
        exponent = _exponent_derivatives(grid, z_node, s, ch.m_s - 1, density[z_c])
        vals = (_conditional_coverage(exponent, s, base).reshape(z.shape) * w).sum(axis=1)
        # each threshold sums its own pieces in lattice order: a running sum
        # of its row, whose padding adds exact zeros
        table = np.zeros((phi_cs.size, q.max() + 1))
        table[owner[by_piece], q[by_piece]] = vals[np.cumsum(first) - 1]
        total = table.cumsum(axis=1)[:, -1]
        return np.where(inside, total / u_top, math.nan)

    return _curve("P2", family, lead, gamma, phi_c_pdf, conditional, 0.0,
                  0.5 * cfg.beam_spacing, exclusion=exclusion)


def coverage_p3(gamma, params):
    """Coverage probability when the nearest transmitter serves (P3; scalar
    or array ``gamma`` and one or a sequence of ``params``, as in
    :func:`coverage_p1`)."""
    family, lead = _family(params)
    base = family[0]
    cfg, ch = base.antenna, base.channel
    density = np.array([p.density for p in family])
    s_den = ch.tx_power_w * ch.path_gain_const * cfg.g_max**2

    def law(r1, p):
        return (2.0 * math.pi * p.density * r1 * np.exp(-p.density * math.pi * r1**2)
                / (1.0 - p.void_probability))

    def conditional(nodes, node, c, g):
        s = ch.m_s * g / s_den * nodes[node]**ch.alpha_l
        exponent = _exponent_derivatives(_p3_grid(base, nodes), node, s, ch.m_s - 1,
                                         density[c])
        return _conditional_coverage(exponent, s, base)

    return _curve("P3", family, lead, gamma, law, conditional, 0.0, base.r_los)
