"""Quadrature-based evaluation of the coverage model.

Mirrors the Monte Carlo engine: serving-power law, conditional interference
Laplace transforms over policy-specific regions, and the coverage integrals
for the three serving policies.

Two knobs deserve a note.  Laws with a finite void mass (no transmitter in
the disk) expose both the raw form and a ``conditioned`` form renormalized on
the nonempty event, matching the simulator's conditioning.  Interference
regions expose ``exclusion`` variants: the simple one-sided / single-beam
descriptions, and sharper variants ("exact" for P1, "grid" for P2) that keep
out interferers around every beam maximum, which is what the selection rule
actually implies; the Monte Carlo engine arbitrates which variant a given
study should use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (LaplaceEvaluator, QuadratureError, QuadratureSpec, exp_derivatives,
                       integrate_many)
from .radio import NetworkParams, gain_3gpp, gain_approx

# scipy.special is imported inside the functions that call it: importing it
# costs about 0.2 s of CPU, which Monte Carlo runs never need.

TWO_PI = 2.0 * math.pi
_LN10 = math.log(10.0)

__all__ = [
    "ServingPowerLaw",
    "serving_power_law",
    "serving_power_pdf",
    "serving_power_cdf",
    "serving_power_ccdf",
    "nearest_power_ccdf",
    "phi_c_pdf",
    "laplace_p1",
    "laplace_p2",
    "laplace_p3",
    "coverage_p1",
    "coverage_p2",
    "coverage_p3",
    "P1_EXCLUSIONS",
    "P2_EXCLUSIONS",
]

P1_EXCLUSIONS = ("single-beam", "all-beams")
P2_EXCLUSIONS = ("one-sided", "symmetric", "grid")

# Quadrature specs for the coverage integrals: the inner/outer split keeps the
# combined error comfortably below the cross-engine comparison tolerances.
_OUTER_SPEC = QuadratureSpec(rel_tol=2e-5, abs_tol=1e-8, max_subdivisions=4000)
_INNER_SPEC = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-9, max_subdivisions=4000)

# Fraction of the disk radius below which radial mass is negligible for the
# interference exponent (the integrand is bounded by r there).
_R_FLOOR_FRAC = 1e-6

_N_PHI = 32          # Gauss-Legendre order for wide angular panels
_N_PHI_NARROW = 12   # order for the short panels of the per-beam regions
_N_RAD = 20          # order per radial log-panel
_RAD_EDGES = np.array([0.0, 0.9, 2.7, 8.1])  # log-radius panel starts above the lower edge

# Elements of one (thresholds x grid) temporary of the exponent kernel: small
# enough that the kernel's few temporaries stay in a per-core cache.
_KERNEL_BLOCK = 2**14


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _curvature(cfg) -> float:
    """kappa such that the mainlobe gain is g_max * 10**(-kappa * offset**2)."""
    return 1.2 / cfg.phi_3db**2


# ---------------------------------------------------------------------------
# Serving-power law (maximum over transmitters of gain(misalignment) * r**-alpha)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingPowerLaw:
    """Distribution of the normalized maximum received power.

    Per transmitter the best beam is the nearest maximum, so the misalignment
    is uniform on [0, beam_spacing/2] and independent of the radius; the
    maximum over a Poisson number of such draws has the closed form below
    (gaussian-in-angle integrals reduce to erf).  The raw cdf carries the
    void mass at ``w_min``; ``conditioned=True`` renormalizes on a nonempty
    disk, matching the simulation engine.
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

    def _gauss_profile(self):
        cfg, ch = self.params.antenna, self.params.channel
        q = (2.0 / ch.alpha_l) * _curvature(cfg) * _LN10
        return q, math.sqrt(math.pi / (4.0 * q))

    def _phi_lo(self, w):
        """Misalignment below which a transmitter at the disk edge still beats ``w``."""
        cfg = self.params.antenna
        y = self.psi(w)
        kappa = _curvature(cfg)
        arg = np.maximum(np.log10(cfg.g_max / y), 0.0) / kappa
        return np.sqrt(arg)

    def inner_pdf(self, w):
        """Density of a single transmitter's normalized power."""
        from scipy import special

        cfg, ch = self.params.antenna, self.params.channel
        w_arr = np.asarray(w, dtype=float)
        alpha, r_l = ch.alpha_l, self.params.r_los
        q, amp = self._gauss_profile()
        lo = self._phi_lo(w_arr)
        # clamp: rounding can push the window a few ulp negative at w_min
        window = np.maximum(
            amp * (special.erf(math.sqrt(q) * self._half) - special.erf(np.sqrt(q) * lo)), 0.0)
        beta = (alpha + 2.0) / alpha
        dens = (4.0 * cfg.g_max ** (2.0 / alpha) / (self.params.antenna.beam_spacing * alpha * r_l**2)
                * w_arr ** (-beta) * window)
        out = np.where(w_arr >= self.w_min, dens, 0.0)
        return float(out) if out.ndim == 0 else out

    def inner_cdf(self, w):
        from scipy import special

        cfg, ch = self.params.antenna, self.params.channel
        w_arr = np.asarray(w, dtype=float)
        alpha, r_l = ch.alpha_l, self.params.r_los
        q, amp = self._gauss_profile()
        lo = self._phi_lo(w_arr)
        window = np.maximum(
            amp * (special.erf(math.sqrt(q) * self._half) - special.erf(np.sqrt(q) * lo)), 0.0)
        half = self._half
        tail = cfg.g_max ** (2.0 / alpha) / (np.maximum(w_arr, self.w_min) ** (2.0 / alpha) * r_l**2)
        cdf = (2.0 / self.params.antenna.beam_spacing) * (np.maximum(half - lo, 0.0) - tail * window)
        out = np.clip(np.where(w_arr >= self.w_min, cdf, 0.0), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, s0, conditioned: bool = False):
        m = self.params.mean_count
        raw = np.exp(-m * (1.0 - self.inner_cdf(s0)))
        s_arr = np.asarray(s0, dtype=float)
        raw = np.where(s_arr >= self.w_min, raw, 0.0 if conditioned else self.void_mass)
        if conditioned:
            raw = np.clip((raw - self.void_mass) / (1.0 - self.void_mass), 0.0, 1.0)
        return float(raw) if raw.ndim == 0 else raw

    def pdf(self, s0, conditioned: bool = False):
        m = self.params.mean_count
        dens = m * self.inner_pdf(s0) * np.exp(-m * (1.0 - self.inner_cdf(s0)))
        if conditioned:
            dens = dens / (1.0 - self.void_mass)
        return float(dens) if np.ndim(dens) == 0 else dens

    def ccdf(self, s0, conditioned: bool = False):
        return 1.0 - self.cdf(s0, conditioned=conditioned)

    def quantile(self, p: float, conditioned: bool = True) -> float:
        """Numeric inverse of the cdf by bisection (monotone)."""
        lo, hi = self.w_min, self.w_min * 2.0
        while self.cdf(hi, conditioned=conditioned) < p:
            hi *= 2.0
            if hi > self.w_min * 1e12:
                raise RuntimeError("quantile bracket failed")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid, conditioned=conditioned) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


@lru_cache(maxsize=16)
def serving_power_law(params: NetworkParams) -> ServingPowerLaw:
    return ServingPowerLaw(params)


def serving_power_pdf(s0, params: NetworkParams, conditioned: bool = False):
    return serving_power_law(params).pdf(s0, conditioned=conditioned)


def serving_power_cdf(s0, params: NetworkParams, conditioned: bool = False):
    return serving_power_law(params).cdf(s0, conditioned=conditioned)


def serving_power_ccdf(s0, params: NetworkParams, conditioned: bool = False):
    return serving_power_law(params).ccdf(s0, conditioned=conditioned)


def nearest_power_ccdf(tau, params: NetworkParams, conditioned: bool = True):
    """ccdf of the boresight power g_max * r1**(-alpha) from the nearest transmitter."""
    cfg, ch = params.antenna, params.channel
    tau_arr = np.asarray(tau, dtype=float)
    radius = np.minimum((cfg.g_max / tau_arr) ** (1.0 / ch.alpha_l), params.r_los)
    prob = 1.0 - np.exp(-params.density * math.pi * radius**2)
    if conditioned:
        prob = prob / (1.0 - params.void_probability)
    out = np.clip(prob, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def phi_c_pdf(phi_c, params: NetworkParams, conditioned: bool = False):
    """Density of the minimum angular distance over all beams and transmitters.

    Support [0, beam_spacing/2]; the raw form leaves the void mass in place.
    """
    cfg = params.antenna
    phi_arr = np.asarray(phi_c, dtype=float)
    rate = params.density * cfg.n_beams * params.r_los**2
    dens = rate * np.exp(-rate * phi_arr)
    out = np.where((phi_arr >= 0.0) & (phi_arr <= 0.5 * cfg.beam_spacing), dens, 0.0)
    if conditioned:
        out = out / (1.0 - params.void_probability)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Interference Laplace exponents over the policy regions
# ---------------------------------------------------------------------------


class _RegionExponent:
    """Laplace exponent F(s) = -lambda * Iint (1 - (1 + c s)^-m) r dr dphi on a
    fixed panelized Gauss-Legendre grid, with analytic s-derivatives."""

    def __init__(self, density: float, m_x: int, c: np.ndarray, w: np.ndarray):
        self.density = density
        self.m_x = m_x
        self.c = c
        self.w = w

    def derivatives(self, s, k_max: int) -> np.ndarray:
        """[F(s), F'(s), ..., F^(k_max)(s)], stacked on a leading axis.

        One pass over the grid: with v = 1/(1 + s c), F = -lambda sum w (1 - v^m)
        and F^(k) = lambda (-1)^k m (m+1)..(m+k-1) sum w (c v)^k v^m.  The
        (1 - v^m) form keeps F accurate as s c -> 0.  ``s`` is taken in rows
        of at most ``_KERNEL_BLOCK`` grid elements.
        """
        s_arr = np.asarray(s, dtype=float)
        flat = s_arr.reshape(-1)
        out = np.empty((k_max + 1, flat.size))
        rows = max(1, _KERNEL_BLOCK // max(self.c.size, 1))
        for lo in range(0, flat.size, rows):
            block = slice(lo, lo + rows)
            v = flat[block, None] * self.c
            v += 1.0
            np.reciprocal(v, out=v)
            v_m = v.copy()
            for _ in range(self.m_x - 1):
                v_m *= v
            term = 1.0 - v_m
            term *= self.w
            out[0, block] = -self.density * term.sum(axis=-1)
            if k_max:
                cv = np.multiply(v, self.c, out=v)
                for k in range(1, k_max + 1):
                    v_m *= cv
                    np.multiply(v_m, self.w, out=term)
                    rising = math.prod(range(self.m_x, self.m_x + k))
                    out[k, block] = self.density * (-1.0) ** k * rising * term.sum(axis=-1)
        return out.reshape((k_max + 1,) + s_arr.shape)

    def exponent(self, s):
        val = self.derivatives(s, 0)[0]
        return float(val) if val.ndim == 0 else val

    def to_evaluator(self, max_order: int) -> LaplaceEvaluator:
        def order(k):
            def fn(s):
                val = self.derivatives(s, k)[k]
                return float(val) if val.ndim == 0 else val
            return fn

        return LaplaceEvaluator(exponent_fn=self.exponent,
                                exponent_derivs=tuple(order(k) for k in range(1, max_order + 1)),
                                max_order=max_order)


def _radial_weights(r_lo: np.ndarray, r_hi: float, n: int = _N_RAD):
    """Nodes/weights of int f(r) r dr over [r_lo_i, r_hi] on log-radius panels."""
    v_lo = np.log(r_lo)
    v_hi = math.log(r_hi)
    starts = np.minimum(v_lo[:, None] + _RAD_EDGES[None, :], v_hi)
    ends = np.concatenate([starts[:, 1:], np.full((r_lo.size, 1), v_hi)], axis=1)
    x, w = _leggauss(n)
    mid = 0.5 * (starts + ends)[..., None]
    half = 0.5 * (ends - starts)[..., None]
    v = mid + half * x
    weight = (half * w) * np.exp(2.0 * v)
    flat = r_lo.size
    return np.exp(v).reshape(flat, -1), weight.reshape(flat, -1)


def _assemble_exponent(params: NetworkParams, panels, gain_fn, rlo_fn) -> _RegionExponent:
    """Build a region exponent from angular panels.

    Each entry of ``panels`` is ``(a, b, order, mult)``, where ``a`` and ``b``
    are the bounds of one panel or equally long arrays of bounds of panels
    sharing ``order`` and ``mult``.  ``order=None`` marks panels whose gain and
    lower radius are constant, integrated exactly as width * (single radial
    integral).  ``gain_fn`` and ``rlo_fn`` give the gain and keep-out radius
    at angular offsets; each is called once, on the nodes of all panels.
    """
    cfg, ch = params.antenna, params.channel
    node_parts, w_parts = [], []
    for a, b, order, mult in panels:
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        wide = b - a > 1e-13
        a, b = a[wide], b[wide]
        if order is None:
            node_parts.append(0.5 * (a + b))
            w_parts.append((b - a) * mult)
        else:
            x, w = _leggauss(order)
            half = 0.5 * (b - a)
            node_parts.append((0.5 * (a + b))[:, None] + half[:, None] * x)
            w_parts.append(half[:, None] * w * mult)
    nodes = np.concatenate([part.ravel() for part in node_parts])
    ang_w = np.concatenate([part.ravel() for part in w_parts])
    gains = np.asarray(gain_fn(nodes), dtype=float)
    r_lo = np.asarray(rlo_fn(nodes), dtype=float)
    r, rad_w = _radial_weights(r_lo, params.r_los)
    amp = ch.tx_power_w * ch.path_gain_const * cfg.g_max / ch.m_x
    c = (amp * gains[:, None] * r ** (-ch.alpha_l)).ravel()
    w_total = (ang_w[:, None] * rad_w).ravel()
    return _RegionExponent(params.density, ch.m_x, c, w_total)


def _exclusion_angle(params: NetworkParams, s_th: float) -> float:
    """Offset below which the keep-out radius saturates at the disk edge."""
    cfg, ch = params.antenna, params.channel
    y = s_th * params.r_los**ch.alpha_l
    if y >= cfg.g_max:
        return 0.0
    return min(math.sqrt(math.log10(cfg.g_max / y) / _curvature(cfg)), cfg.phi_a)


def _p1_exponent(params: NetworkParams, s_th: float, exclusion: str) -> _RegionExponent:
    cfg, ch = params.antenna, params.channel
    law = serving_power_law(params)
    if s_th < law.w_min:
        raise ValueError("serving power below the support of the serving law")
    r_l = params.r_los
    inv_alpha = 1.0 / ch.alpha_l
    floor = cfg.phi_a
    phi_star = _exclusion_angle(params, s_th)

    def gain(delta):
        return gain_3gpp(delta, cfg)

    if exclusion == "single-beam":
        def rlo_from_chosen(delta):
            return np.minimum((gain_3gpp(delta, cfg) / s_th) ** inv_alpha, r_l)

        panels = [(phi_star, floor, _N_PHI, 2.0)]
        if floor < math.pi:
            panels.append((floor, math.pi, None, 2.0))
        return _assemble_exponent(params, panels, gain, rlo_from_chosen)

    if exclusion != "all-beams":
        raise ValueError(f"unknown P1 exclusion {exclusion!r}; expected one of {P1_EXCLUSIONS}")

    # Keep-out around *every* beam maximum: a transmitter beats s_th whenever
    # its own best-beam gain does, so the empty bands repeat with the beam grid.
    step = cfg.beam_spacing

    def fold(delta):
        t = np.asarray(delta, dtype=float) % step
        return np.minimum(t, step - t)

    def rlo_exact(delta):
        return np.minimum((gain_approx(fold(delta), cfg) / s_th) ** inv_alpha, r_l)

    ks = np.arange(int((math.pi + step) / step) + 2) * step
    ks = ks[ks <= math.pi + step]
    cand = np.concatenate([ks - phi_star, ks, ks + phi_star, ks + 0.5 * step])
    edges = np.unique(np.concatenate([[0.0, math.pi, min(floor, math.pi)],
                                      cand[(cand >= 0.0) & (cand <= math.pi)]]))
    a, b = edges[:-1], edges[1:]
    outside = fold(0.5 * (a + b)) >= phi_star     # panel midpoint not in a keep-out band
    return _assemble_exponent(params, [(a[outside], b[outside], _N_PHI_NARROW, 2.0)],
                              gain, rlo_exact)


def _p2_exponent(params: NetworkParams, phi_c: float, exclusion: str) -> _RegionExponent:
    cfg = params.antenna
    floor = cfg.phi_a
    r_floor = _R_FLOOR_FRAC * params.r_los

    def rlo(delta):
        return np.full(np.shape(delta), r_floor)

    if exclusion in ("one-sided", "symmetric"):
        def side_panels(lower, mult):
            out = []
            if lower < floor:
                out.append((lower, min(floor, math.pi), _N_PHI, mult))
            flat_lo = max(lower, floor)
            if flat_lo < math.pi:
                out.append((flat_lo, math.pi, None, mult))
            return out

        if exclusion == "symmetric":
            panels = side_panels(phi_c, 2.0)
        else:
            panels = side_panels(phi_c, 1.0) + side_panels(0.0, 1.0)
        return _assemble_exponent(params, panels, lambda d: gain_3gpp(d, cfg), rlo)

    if exclusion != "grid":
        raise ValueError(f"unknown P2 exclusion {exclusion!r}; expected one of {P2_EXCLUSIONS}")

    def gain_fold(psi):
        psi_arr = np.asarray(psi, dtype=float)
        folded = np.minimum(psi_arr % TWO_PI, TWO_PI - psi_arr % TWO_PI)
        return gain_3gpp(folded, cfg)

    # Keep-out of half-width phi_c around every beam maximum.  In link-relative
    # azimuth the maxima sit at k*step - phi_c (the serving link is phi_c off
    # its beam); the excluded azimuth bands are (k*step - 2 phi_c, k*step),
    # which for k = 1 .. n_beams tile [0, 2*pi] without wrap handling.
    step = cfg.beam_spacing
    ks = np.arange(1, cfg.n_beams + 1) * step if phi_c > 0.0 else np.empty(0)
    band_lo = np.maximum(0.0, ks - 2.0 * phi_c)
    band_hi = np.minimum(TWO_PI, ks)
    floors = [f for f in (floor, TWO_PI - floor) if 0.0 < f < TWO_PI]
    edges = np.unique(np.concatenate([[0.0, TWO_PI, math.pi], floors, band_lo, band_hi]))
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    in_band = np.zeros(mid.shape, dtype=bool)
    if ks.size:
        # Both band bounds rise with k, so only the first band ending at or
        # after a midpoint can hold it.
        first = np.minimum(np.searchsorted(band_hi + 1e-15, mid), ks.size - 1)
        in_band = (band_lo[first] - 1e-15 <= mid) & (mid <= band_hi[first] + 1e-15)
    flat = np.minimum(mid, TWO_PI - mid) >= floor
    panels = [(a[~in_band & ~flat], b[~in_band & ~flat], _N_PHI_NARROW, 1.0),
              (a[~in_band & flat], b[~in_band & flat], None, 1.0)]
    return _assemble_exponent(params, panels, gain_fold, rlo)


def _p3_exponent(params: NetworkParams, r1: float) -> _RegionExponent:
    cfg = params.antenna
    r_l = params.r_los
    floor = cfg.phi_a
    r_lo_val = min(max(r1, _R_FLOOR_FRAC * r_l), r_l * (1.0 - 1e-12))

    def rlo(delta):
        return np.full(np.shape(delta), r_lo_val)

    panels = [(0.0, min(floor, math.pi), _N_PHI, 2.0)]
    if floor < math.pi:
        panels.append((floor, math.pi, None, 2.0))
    return _assemble_exponent(params, panels, lambda d: gain_3gpp(d, cfg), rlo)


def _deriv_budget(params: NetworkParams) -> int:
    return max(params.channel.m_s - 1, 2)


def laplace_p1(s_th: float, params: NetworkParams,
               exclusion: str = "all-beams") -> LaplaceEvaluator:
    """Conditional interference Laplace transform given the serving power level.

    By isotropy the transform does not depend on the serving beam's direction.
    """
    return _p1_exponent(params, s_th, exclusion).to_evaluator(_deriv_budget(params))


def laplace_p2(phi_c: float, params: NetworkParams,
               exclusion: str = "grid") -> LaplaceEvaluator:
    """Conditional interference Laplace transform given the serving angular distance."""
    if not 0.0 <= phi_c <= 0.5 * params.antenna.beam_spacing:
        raise ValueError("phi_c outside [0, beam_spacing/2]")
    return _p2_exponent(params, phi_c, exclusion).to_evaluator(_deriv_budget(params))


def laplace_p3(r1: float, params: NetworkParams) -> LaplaceEvaluator:
    """Conditional interference Laplace transform given the serving distance."""
    if not 0.0 <= r1 <= params.r_los:
        raise ValueError("r1 outside [0, R_los]")
    return _p3_exponent(params, r1).to_evaluator(_deriv_budget(params))


# ---------------------------------------------------------------------------
# Coverage integrals
# ---------------------------------------------------------------------------


def _conditional_coverage(expo: _RegionExponent, s, params: NetworkParams):
    """Coverage given the interference exponent, integrated over the gamma fade:
    sum_{k < m_s} ((-s)^k / k!) d^k/ds^k [exp(-noise s) L_I(s)]."""
    ch = params.channel
    s_arr = np.asarray(s, dtype=float)
    levels = exp_derivatives(expo.derivatives(s_arr, ch.m_s - 1), s_arr, ch.noise_w)
    total = np.zeros_like(levels[0])
    for k in range(ch.m_s):
        total = total + (-s_arr) ** k / math.factorial(k) * levels[k]
    return total


def _per_node(x: np.ndarray, evaluate) -> np.ndarray:
    """``evaluate(node, rows)`` once per distinct abscissa of ``x``, where
    ``rows`` indexes the entries of ``x`` equal to ``node``.

    The conditioning exponent at a node does not depend on the threshold, so
    the integrals of a whole curve build it once for every threshold that
    asks for that node in the current round, then drop it.
    """
    nodes, inverse = np.unique(x, return_inverse=True)
    groups = np.split(np.argsort(inverse, kind="stable"),
                      np.cumsum(np.bincount(inverse, minlength=nodes.size))[:-1])
    out = np.empty(x.shape)
    for node, rows in zip(nodes, groups):
        out[rows] = evaluate(float(node), rows)
    return out


def _thresholds(gamma):
    """Flat float thresholds and the shape to return results in."""
    g = np.asarray(gamma, dtype=float)
    return g.reshape(-1), g.shape


def _curve(policy: str, gammas: np.ndarray, shape, params: NetworkParams,
           exclusion: str | None, integrand, a: float, b: float):
    """Outer coverage integrals of every threshold, in lockstep, clipped to
    [0, 1]; a quadrature failure names the curve point it came from."""
    try:
        vals = integrate_many(integrand, a, b, gammas.size, _OUTER_SPEC)
    except QuadratureError as err:
        gamma = gammas[err.index]
        g_db = 10.0 * math.log10(gamma) if gamma > 0.0 else -math.inf
        raise QuadratureError(
            f"{policy} coverage at threshold {g_db:.2f} dB (exclusion {exclusion}, "
            f"density {params.density:g}, sectors_exp {params.antenna.sectors_exp}): "
            f"{err.message}", err.estimate, err.error_bound, err.index) from err
    out = np.clip(vals, 0.0, 1.0)
    return float(out[0]) if shape == () else out.reshape(shape)


def coverage_p1(gamma, params: NetworkParams, exclusion: str = "all-beams"):
    """Coverage probability when the maximum-power pair serves (P1).

    ``gamma`` is a linear SINR threshold or an array of them; a scalar gives
    a float, an array an array of the same shape.
    """
    cfg, ch = params.antenna, params.channel
    gammas, shape = _thresholds(gamma)
    law = serving_power_law(params)
    s_const = ch.m_s * gammas / (ch.tx_power_w * cfg.g_max * ch.path_gain_const)

    def integrand(s_th, which):
        def cond(node, rows):
            expo = _p1_exponent(params, node, exclusion)
            return _conditional_coverage(expo, s_const[which[rows]] / node, params)

        return law.pdf(s_th, conditioned=True) * _per_node(s_th, cond)

    return _curve("P1", gammas, shape, params, exclusion, integrand, law.w_min, math.inf)


def coverage_p2(gamma, params: NetworkParams, exclusion: str = "grid"):
    """Coverage probability when the minimum-angular-distance pair serves
    (P2; scalar or array ``gamma``, as in :func:`coverage_p1`)."""
    cfg, ch = params.antenna, params.channel
    gammas, shape = _thresholds(gamma)
    r_l = params.r_los
    alpha = ch.alpha_l
    norm = 1.0 - params.void_probability
    s_num = ch.m_s * gammas
    s_den = ch.tx_power_w * cfg.g_max * ch.path_gain_const

    def outer(phi_cs, which):
        def inner_integrals(node, rows):
            expo = _p2_exponent(params, node, exclusion)
            s_coef = s_num[which[rows]] / (s_den * gain_approx(node, cfg))

            def inner(d0, k):
                return (2.0 * d0 / r_l**2) * _conditional_coverage(
                    expo, s_coef[k] * d0**alpha, params)

            try:
                return integrate_many(inner, 0.0, r_l, rows.size, _INNER_SPEC)
            except QuadratureError as err:
                raise QuadratureError(f"inner integral at phi_c={node:.6g}: {err.message}",
                                      err.estimate, err.error_bound,
                                      int(which[rows[err.index]])) from err

        return phi_c_pdf(phi_cs, params) / norm * _per_node(phi_cs, inner_integrals)

    return _curve("P2", gammas, shape, params, exclusion, outer, 0.0, 0.5 * cfg.beam_spacing)


def coverage_p3(gamma, params: NetworkParams):
    """Coverage probability when the nearest transmitter serves (P3; scalar
    or array ``gamma``, as in :func:`coverage_p1`)."""
    cfg, ch = params.antenna, params.channel
    gammas, shape = _thresholds(gamma)
    r_l = params.r_los
    lam = params.density
    norm = 1.0 - params.void_probability
    s_const = ch.m_s * gammas / (ch.tx_power_w * ch.path_gain_const * cfg.g_max**2)

    def integrand(r1, which):
        def cond(node, rows):
            expo = _p3_exponent(params, node)
            return _conditional_coverage(expo, s_const[which[rows]] * node**ch.alpha_l, params)

        f_r1 = 2.0 * math.pi * lam * r1 * np.exp(-lam * math.pi * r1**2) / norm
        return f_r1 * _per_node(r1, cond)

    return _curve("P3", gammas, shape, params, None, integrand, 0.0, r_l)
