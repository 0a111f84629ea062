"""The per-threshold analytic coverage integrals, kept as a test oracle.

This is the quadrature engine as it was before whole curves were evaluated
in lockstep: one outer ``integrate_1d`` per threshold, one region exponent
built per quadrature node, assembled one angular panel at a time, and its
sums taken per node.  Their radial part comes from the package's radial
antiderivative (``analytic._radial_table``), one angular node at a time;
that antiderivative is checked on its own against mpmath
(``test_analytic.TestRadialAntiderivative``).  P2's inner integral is cut
into the package's lattice pieces of the serving-distance variable and
integrated on the package's fixed rule (``analytic._z_rule``), so that the
package's agreement with it to 1e-12 (see ``test_analytic.TestCurveOracle``)
checks the bookkeeping of the lockstep walk.  The accuracy of that rule is
checked against adaptive quadrature instead, by :func:`p2_inner_means`
(``test_analytic.TestP2InnerRule``); and the P2 inner integral over ``d0``
as it stood before the pieces is kept too, as :func:`coverage_p2_d0`, one
adaptive integral per node and threshold (``test_analytic.TestP2InnerForm``).
The conditional coverage takes the
unscaled exponent derivatives F^(k) through the Leibniz recursion of
:func:`exp_derivatives` and the alternating sum of ``(-s)^k / k!`` times
the transform's derivatives, the form the package used before its scaled
terms; at the defaults it overflows from m_s = m_x = 33 at 15 dB, so it
checks the package at lower fading orders.

With ``fine=`` one of :data:`FINE_RULES`, the same per-node exponents are
integrated instead by the radial rule the package used before its
antiderivative: Gauss-Legendre log-panels in the radius.  Those are the fine
reference of ``test_analytic.TestExponentRule``.

:func:`serving_power_quantile` inverts the serving-power cdf, for tests that
place their nodes and thresholds at quantiles of that law.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from mmwcov import analytic
from mmwcov.analytic import (
    P1_EXCLUSIONS,
    P2_EXCLUSIONS,
    _N_ANG,
    _OUTER_SPEC,
    _R_FLOOR_FRAC,
    _Z_CELL,
    _radial_table,
    _z_floor,
    _z_rule,
    phi_c_pdf,
    serving_power_law,
)
from mmwcov.numerics import QuadratureSpec, integrate_1d, integrate_many
from mmwcov.radio import TWO_PI, NetworkParams, _curvature, gain_3gpp, gain_approx


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


# Two fine rules for the region exponents: angular orders other than each
# other's and the package's, and radial log-panels other than each other's,
# with 48 nodes each, so that their agreement covers the angular and the
# radial error alike.  The log-panels start at each angular node's keep-out
# radius (``from_low``), or, for P2, whose keep-out radius is nominal, are
# graded down from the disk edge (``from_edge``); they are clipped to the
# range from the keep-out radius to the disk edge.
FINE_RULES = tuple(
    {"n_ang": n_ang, "n_rad": 48, "from_low": np.array(low + [math.inf]),
     "from_edge": np.array([-math.inf] + edge)}
    for n_ang, low, edge in (
        (24, [0.0, 0.5, 1.5, 3.0, 5.0, 8.0, 12.0], [-11.0, -8.0, -6.0, -4.5, -3.0, -1.5, 0.0]),
        (40, [0.0, 0.8, 2.0, 4.0, 6.5, 10.0], [-10.0, -7.0, -5.0, -3.5, -2.2, -1.0, 0.0])))


def _radial_weights(r_lo: np.ndarray, r_hi: float, edges: np.ndarray, from_edge: bool,
                    n: int):
    """Nodes/weights of int f(r) r dr over [r_lo_i, r_hi] on log-radius
    panels: ``edges`` below log(r_hi) if ``from_edge``, else above
    log(r_lo_i), clipped to [log r_lo_i, log r_hi]."""
    v_lo = np.log(r_lo)[:, None]
    v_hi = math.log(r_hi)
    edges = np.clip((v_hi if from_edge else v_lo) + edges[None, :], v_lo, v_hi)
    starts, ends = edges[:, :-1], edges[:, 1:]
    x, w = _leggauss(n)
    mid = 0.5 * (starts + ends)[..., None]
    half = 0.5 * (ends - starts)[..., None]
    v = mid + half * x
    weight = (half * w) * np.exp(2.0 * v)
    flat = r_lo.size
    return np.exp(v).reshape(flat, -1), weight.reshape(flat, -1)


def _exclusion_angle(params: NetworkParams, s_th: float) -> float:
    """Offset below which the keep-out radius saturates at the disk edge."""
    cfg, ch = params.antenna, params.channel
    y = s_th * params.r_los**ch.alpha_l
    if y >= cfg.g_max:
        return 0.0
    return min(math.sqrt(math.log10(cfg.g_max / y) / _curvature(cfg)), cfg.phi_a)


class _RegionExponent:
    """Laplace exponent F(s) = -lambda * Iint (1 - (1 + c s)^-m) r dr dphi of
    one node, over its angular nodes (interference amplitude ``amp``, so
    that c = amp r**-alpha, angular weight ``ang_w`` and keep-out radius
    ``r_lo``), with analytic s-derivatives.  The radial integrals are the
    package's antiderivative, or with ``fine`` (one of :data:`FINE_RULES`)
    its log-panel rule."""

    def __init__(self, params: NetworkParams, amp, ang_w, r_lo, fine=None,
                 from_edge: bool = False):
        ch = params.channel
        self.density, self.m_x, self.alpha = params.density, ch.m_x, ch.alpha_l
        self.amp, self.ang_w, self.r_lo, self.r_los = amp, ang_w, r_lo, params.r_los
        self.fine = fine
        if fine is not None and r_lo.size:
            r, rad_w = _radial_weights(r_lo, params.r_los,
                                       fine["from_edge" if from_edge else "from_low"],
                                       from_edge, fine["n_rad"])
            self.c = (amp[:, None] * r ** (-ch.alpha_l)).ravel()
            self.w = (ang_w[:, None] * rad_w).ravel()

    @property
    def c_max(self) -> float:
        """The largest c of the region (0 if it is empty)."""
        inside = self.r_lo < self.r_los
        return float((self.amp[inside] * self.r_lo[inside] ** -self.alpha).max(initial=0.0))

    def sums(self, s: np.ndarray, k_max: int) -> np.ndarray:
        """The lambda-free sums S_0 = int (1 - v^m) and S_k = int (c v)^k
        v^m, v = 1/(1 + s c), at each s > 0, k = 0 .. k_max."""
        if self.fine is not None:
            return self._fine_sums(s, k_max)
        table = _radial_table(self.alpha, self.m_x, k_max)
        inv = 2.0 / self.alpha
        weight = self.ang_w * self.amp**inv / self.alpha
        offset = np.log(self.amp * self.r_los ** -self.alpha)
        width = self.alpha * np.log(self.r_los / self.r_lo)
        out = np.empty((k_max + 1, s.size))
        for i, s_i in enumerate(s):
            vals = table.integrals(math.log(s_i) + offset, width)
            out[:, i] = (vals * weight).sum(axis=1) * s_i ** (inv - np.arange(k_max + 1))
        return out

    def _fine_sums(self, s: np.ndarray, k_max: int) -> np.ndarray:
        out = np.zeros((k_max + 1, s.size))
        if not self.r_lo.size:
            return out
        step = max(1, 2**21 // max(self.c.size, 1))
        for lo in range(0, s.size, step):
            part = slice(lo, lo + step)
            v = 1.0 / (1.0 + s[part, None] * self.c)
            v_m = v**self.m_x
            out[0, part] = ((1.0 - v_m) * self.w).sum(axis=-1)
            cv = v * self.c
            for k in range(1, k_max + 1):
                v_m *= cv
                out[k, part] = (v_m * self.w).sum(axis=-1)
        return out

    def derivatives(self, s, k_max: int) -> np.ndarray:
        """[F(s), F'(s), ..., F^(k_max)(s)] on a leading axis: F = -lambda S_0
        and F^(k) = lambda (-1)^k m (m+1)..(m+k-1) S_k."""
        s_arr = np.asarray(s, dtype=float)
        out = self.sums(s_arr.reshape(-1), k_max)
        out[0] *= -self.density
        for k in range(1, k_max + 1):
            out[k] *= self.density * (-1.0) ** k * math.prod(range(self.m_x, self.m_x + k))
        return out.reshape((k_max + 1,) + s_arr.shape)

    def scaled(self, s, k_max: int) -> np.ndarray:
        """The package's scaled terms [t_0, ..., t_k_max] (see
        ``analytic._exponent_derivatives``), from :meth:`derivatives`:
        t_k = (-s)^k F^(k)(s) / k!."""
        s_arr = np.asarray(s, dtype=float)
        out = self.derivatives(s_arr, k_max)
        for k in range(1, k_max + 1):
            out[k] *= (-s_arr) ** k / math.factorial(k)
        return out


def _assemble_exponent(params: NetworkParams, panels, fine=None,
                       from_edge: bool = False) -> _RegionExponent:
    """Build a region exponent from angular panels.

    Each panel is ``(a, b, flat, gain_fn, rlo_fn, mult)``;  ``flat`` marks a
    panel whose gain and lower radius are constant, which is then
    integrated exactly as width * (single radial integral).  Any other panel
    is cut into the fewest equal pieces no wider than ``phi_3db/2``, with
    ``_N_ANG`` Gauss-Legendre nodes each, or the ``n_ang`` of ``fine``.
    ``fine`` and ``from_edge`` pick the radial rule (see
    :class:`_RegionExponent`).
    """
    cfg, ch = params.antenna, params.channel
    n_ang = _N_ANG if fine is None else fine["n_ang"]
    ang_parts, w_parts = [], []
    gain_parts, rlo_parts = [], []
    for a, b, flat, gain_fn, rlo_fn, mult in panels:
        if b - a <= 1e-13:
            continue
        if flat:
            nodes = np.array([0.5 * (a + b)])
            wts = np.array([(b - a) * mult])
        else:
            x, w = _leggauss(n_ang)
            count = max(math.ceil((b - a) / (0.5 * cfg.phi_3db)), 1)
            width = (b - a) / count
            nodes, wts = [], []
            for j in range(count):
                mid = a + (j + 0.5) * width
                nodes.append(mid + 0.5 * width * x)
                wts.append(0.5 * width * w * mult)
            nodes, wts = np.concatenate(nodes), np.concatenate(wts)
        ang_parts.append(nodes)
        w_parts.append(wts)
        gain_parts.append(np.asarray(gain_fn(nodes), dtype=float))
        rlo_parts.append(np.asarray(rlo_fn(nodes), dtype=float))
    if not w_parts:     # an empty region: F = 0
        w_parts = gain_parts = rlo_parts = [np.empty(0)]
    amp = ch.tx_power_w * ch.path_gain_const * cfg.g_max / ch.m_x
    return _RegionExponent(params, amp * np.concatenate(gain_parts), np.concatenate(w_parts),
                           np.concatenate(rlo_parts), fine, from_edge)


def _p1_exponent(params: NetworkParams, s_th: float, exclusion: str,
                 fine=None) -> _RegionExponent:
    cfg, ch = params.antenna, params.channel
    law = serving_power_law(params)
    if s_th < law.w_min:
        raise ValueError("serving power below the support of the serving law")
    r_l = params.r_los
    alpha = ch.alpha_l
    inv_alpha = 1.0 / alpha
    floor = cfg.phi_a
    phi_star = _exclusion_angle(params, s_th)

    def rlo_from_chosen(delta):
        return np.minimum((gain_3gpp(delta, cfg) / s_th) ** inv_alpha, r_l)

    if exclusion == "single-beam":
        panels = [(phi_star, floor, False, lambda d: gain_3gpp(d, cfg), rlo_from_chosen, 2.0)]
        if floor < math.pi:
            panels.append((floor, math.pi, True, lambda d: gain_3gpp(d, cfg), rlo_from_chosen, 2.0))
        return _assemble_exponent(params, panels, fine)

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

    edges = {0.0, math.pi, min(floor, math.pi)}
    k = 0
    while k * step <= math.pi + step:
        for e in (k * step - phi_star, k * step, k * step + phi_star,
                  k * step + 0.5 * step):
            if 0.0 <= e <= math.pi:
                edges.add(e)
        k += 1
    edges = sorted(edges)
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 1e-13:
            continue
        midpoint = 0.5 * (a + b)
        if fold(midpoint) < phi_star:          # inside a keep-out band
            continue
        panels.append((a, b, False, lambda d: gain_3gpp(d, cfg), rlo_exact, 2.0))
    return _assemble_exponent(params, panels, fine)


def _p2_exponent(params: NetworkParams, phi_c: float, exclusion: str,
                 fine=None) -> _RegionExponent:
    cfg = params.antenna
    r_l = params.r_los
    floor = cfg.phi_a
    r_floor = _R_FLOOR_FRAC * r_l

    def rlo(delta):
        return np.full(np.shape(np.asarray(delta)), r_floor)

    def gain_fold(psi):
        psi_arr = np.asarray(psi, dtype=float)
        folded = np.minimum(psi_arr % TWO_PI, TWO_PI - psi_arr % TWO_PI)
        return gain_3gpp(folded, cfg)

    if exclusion == "one-sided":
        def side_panels(lower):
            out = []
            if lower < floor:
                out.append((lower, min(floor, math.pi), False,
                            lambda d: gain_3gpp(d, cfg), rlo, 1.0))
            flat_lo = max(lower, floor)
            if flat_lo < math.pi:
                out.append((flat_lo, math.pi, True, lambda d: gain_3gpp(d, cfg), rlo, 1.0))
            return out

        return _assemble_exponent(params, side_panels(phi_c) + side_panels(0.0), fine,
                                  from_edge=True)

    if exclusion != "grid":
        raise ValueError(f"unknown P2 exclusion {exclusion!r}; expected one of {P2_EXCLUSIONS}")

    # Keep-out of half-width phi_c around every beam maximum.  In link-relative
    # azimuth the maxima sit at k*step - phi_c (the serving link is phi_c off
    # its beam); the excluded azimuth bands are (k*step - 2 phi_c, k*step),
    # which for k = 1 .. n_beams tile [0, 2*pi] without wrap handling.
    step = cfg.beam_spacing
    bands = []
    if phi_c > 0.0:
        for k in range(1, cfg.n_beams + 1):
            bands.append((max(0.0, k * step - 2.0 * phi_c), min(TWO_PI, k * step)))
    edges = {0.0, TWO_PI, math.pi}
    for f in (floor, TWO_PI - floor):
        if 0.0 < f < TWO_PI:
            edges.add(f)
    for lo, hi in bands:
        edges.add(lo)
        edges.add(hi)
    edges = sorted(edges)

    def in_band(x):
        return any(lo - 1e-15 <= x <= hi + 1e-15 for lo, hi in bands)

    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 1e-13 or in_band(0.5 * (a + b)):
            continue
        fold_mid = min(0.5 * (a + b), TWO_PI - 0.5 * (a + b))
        panels.append((a, b, fold_mid >= floor, gain_fold, rlo, 1.0))
    return _assemble_exponent(params, panels, fine, from_edge=True)


def _p3_exponent(params: NetworkParams, r1: float, fine=None) -> _RegionExponent:
    cfg = params.antenna
    r_l = params.r_los
    floor = cfg.phi_a
    r_lo_val = min(max(r1, _R_FLOOR_FRAC * r_l), r_l * (1.0 - 1e-12))

    def rlo(delta):
        return np.full(np.shape(np.asarray(delta)), r_lo_val)

    panels = [(0.0, min(floor, math.pi), False, lambda d: gain_3gpp(d, cfg), rlo, 2.0)]
    if floor < math.pi:
        panels.append((floor, math.pi, True, lambda d: gain_3gpp(d, cfg), rlo, 2.0))
    return _assemble_exponent(params, panels, fine)


def exp_derivatives(exponent, s, shift: float = 0.0) -> list:
    """Derivatives [L, L', ..., L^(k)] of L(s) = exp(F(s) - shift * s).

    ``exponent`` is the sequence [F, F', ..., F^(k)] evaluated at ``s``.  Uses
    L^(k) = sum_{j<k} C(k-1, j) G^(k-j) L^(j) with G = F - shift * s, which
    follows from differentiating L' = G' L with the Leibniz rule.  ``shift``
    is the noise term of a transform exp(-noise s) L_I(s).
    """
    f0 = exponent[0] - shift * s if shift else exponent[0]
    g_derivs = list(exponent[1:])
    if shift and g_derivs:
        g_derivs[0] = g_derivs[0] - shift
    levels = [np.exp(f0)]
    for k in range(1, len(exponent)):
        acc = np.zeros_like(levels[0])
        for j in range(k):
            acc = acc + math.comb(k - 1, j) * g_derivs[k - j - 1] * levels[j]
        levels.append(acc)
    return levels


def _conditional_coverage(expo: _RegionExponent, s, params: NetworkParams):
    """Coverage given the interference exponent, integrated over the gamma fade:
    sum_{k < m_s} ((-s)^k / k!) d^k/ds^k [exp(-noise s) L_I(s)], from the
    unscaled derivatives (the package sums scaled terms instead)."""
    ch = params.channel
    s_arr = np.asarray(s, dtype=float)
    levels = exp_derivatives(expo.derivatives(s_arr, ch.m_s - 1), s_arr, ch.noise_w)
    total = np.zeros_like(levels[0])
    for k in range(ch.m_s):
        total = total + (-s_arr) ** k / math.factorial(k) * levels[k]
    return total


def coverage_p1(gamma: float, params: NetworkParams, exclusion: str = "all-beams") -> float:
    """Coverage probability under maximum-power association (linear threshold)."""
    cfg, ch = params.antenna, params.channel
    law = serving_power_law(params)
    s_const = ch.m_s * gamma / (ch.tx_power_w * cfg.g_max * ch.path_gain_const)

    def integrand(s_th):
        s_th = np.atleast_1d(s_th)
        cond = np.empty_like(s_th)
        for i, value in enumerate(s_th):
            expo = _p1_exponent(params, float(value), exclusion)
            cond[i] = _conditional_coverage(expo, s_const / value, params)
        return law.pdf(s_th) * cond

    return float(np.clip(integrate_1d(integrand, law.w_min, math.inf, _OUTER_SPEC), 0.0, 1.0))


def _z_pieces(u_top: float, z_floor: float) -> list:
    """The pieces of [0, u_top] on the lattice ``z_floor * _Z_CELL**j``: the
    bottom piece, the whole cells and the partial cell that ends at u_top,
    or [0, u_top] alone when u_top is at or below the floor."""
    if u_top <= z_floor:
        return [(0.0, u_top)]
    pieces, j = [(0.0, z_floor)], 0
    while z_floor * _Z_CELL ** (j + 1) < u_top:
        pieces.append((z_floor * _Z_CELL**j, z_floor * _Z_CELL ** (j + 1)))
        j += 1
    pieces.append((z_floor * _Z_CELL**j, u_top))
    return pieces


def coverage_p2(gamma, params: NetworkParams, exclusion: str = "grid"):
    """Coverage probability under minimum-angular-distance association, at
    one threshold (float out) or each of a sequence of them (array out).

    Each threshold has its own outer integral.  Its inner integral over
    ``z = (coef d0**alpha)**(2/alpha)`` is cut into the package's lattice
    pieces, each integrated on the package's fixed rule.  The thresholds
    share the pieces of a ``phi_c`` node: the first visit evaluates all of
    them."""
    cfg, ch = params.antenna, params.channel
    r_l = params.r_los
    alpha = ch.alpha_l
    z_floor = _z_floor(params)
    gammas = np.atleast_1d(np.asarray(gamma, dtype=float))
    memo = {}

    def u_top(g, pc):
        s_coef = ch.m_s * g / (ch.tx_power_w * cfg.g_max * ch.path_gain_const
                               * gain_approx(pc, cfg))
        return s_coef ** (2.0 / alpha) * r_l**2

    def pieces_at(pc):
        """The value of every piece of every threshold at node ``pc``."""
        if pc not in memo:
            expo = _p2_exponent(params, pc, exclusion)
            pieces = sorted({p for g in gammas for p in _z_pieces(u_top(g, pc), z_floor)})
            z, w = _z_rule(*np.array(pieces).T, alpha)
            vals = (_conditional_coverage(expo, z ** (0.5 * alpha), params) * w).sum(axis=1)
            memo[pc] = dict(zip(pieces, vals.tolist()))
        return memo[pc]

    def coverage(g):
        def outer(phi_cs):
            phi_cs = np.atleast_1d(phi_cs)
            vals = np.empty_like(phi_cs)
            for i, pc in enumerate(phi_cs.tolist()):
                values, total = pieces_at(pc), 0.0
                top = u_top(g, pc)
                for piece in _z_pieces(top, z_floor):
                    total += values[piece]
                vals[i] = total / top
            return phi_c_pdf(phi_cs, params) * vals

        return float(np.clip(integrate_1d(outer, 0.0, 0.5 * cfg.beam_spacing, _OUTER_SPEC),
                             0.0, 1.0))

    out = np.array([coverage(g) for g in gammas])
    return float(out[0]) if np.ndim(gamma) == 0 else out


# The contract of one threshold's inner integral, max(1e-9, 1e-5 |inner|),
# to which the d0 form ran it as a single integral.
_D0_INNER_SPEC = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-9, max_subdivisions=4000)

# The adaptive reference of P2's inner rule (see p2_inner_means).
_INNER_REFERENCE = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=100_000)


def p2_inner_means(params: NetworkParams, phi_c: np.ndarray, gammas: np.ndarray,
                   exclusion: str = "grid"):
    """P2's inner means ``(1/U_t) int_0^U_t C(z**(alpha/2)) dz`` (see
    ``analytic.coverage_p2``) at every ``(phi_c[i], gammas[j])``, on the
    package's lattice pieces and with the package's conditional coverage
    ``C``: as ``(fixed, reference)``, each of shape ``(phi_c.size,
    gammas.size)``.  ``fixed`` integrates each piece on the package's fixed
    rule, ``reference`` by adaptive quadrature to ``_INNER_REFERENCE``."""
    cfg, ch = params.antenna, params.channel
    alpha = ch.alpha_l
    coef = ch.m_s * gammas[None, :] / (ch.tx_power_w * cfg.g_max * ch.path_gain_const
                                       * gain_approx(phi_c, cfg)[:, None])
    u_top = (coef ** (2.0 / alpha) * params.r_los**2).ravel()
    owner, _, lo, hi = analytic._z_pieces(u_top, np.full(u_top.size, _z_floor(params)))
    # the distinct pieces of each node, shared by its thresholds
    keys, which = np.unique(np.stack([owner // gammas.size, lo, hi], axis=1), axis=0,
                            return_inverse=True)
    node, lo, hi = keys[:, 0].astype(np.intp), keys[:, 1], keys[:, 2]
    grid = analytic._p2_grid(params, phi_c, exclusion)

    def coverage(z, k):
        s = z ** (0.5 * alpha)
        exponent = analytic._exponent_derivatives(grid, node[k], s, ch.m_s - 1, params.density)
        return analytic._conditional_coverage(exponent, s, params)

    z, w = _z_rule(lo, hi, alpha)
    fixed = (coverage(z.ravel(), np.repeat(np.arange(lo.size), z.shape[1])).reshape(z.shape)
             * w).sum(axis=1)
    width = hi - lo
    reference = integrate_many(lambda z, k: coverage(z, k) / width[k], lo, hi, lo.size,
                               _INNER_REFERENCE) * width
    shape = (phi_c.size, gammas.size)
    return tuple(np.bincount(owner, vals[which.ravel()], u_top.size).reshape(shape)
                 / u_top.reshape(shape) for vals in (fixed, reference))


def coverage_p2_d0(gamma: float, params: NetworkParams, exclusion: str = "grid") -> float:
    """P2 coverage with the inner integral over the serving distance ``d0``
    on [0, r_los], one adaptive integral per (phi_c node, threshold): the
    form the package used before the lattice pieces."""
    cfg, ch = params.antenna, params.channel
    r_l = params.r_los
    alpha = ch.alpha_l

    def outer(phi_cs):
        phi_cs = np.atleast_1d(phi_cs)
        vals = np.empty_like(phi_cs)
        for i, pc in enumerate(phi_cs):
            expo = _p2_exponent(params, float(pc), exclusion)
            s_coef = ch.m_s * gamma / (ch.tx_power_w * cfg.g_max * ch.path_gain_const
                                       * gain_approx(float(pc), cfg))

            def inner(d0):
                return (2.0 * d0 / r_l**2) * _conditional_coverage(
                    expo, s_coef * d0**alpha, params)

            vals[i] = integrate_1d(inner, 0.0, r_l, _D0_INNER_SPEC)
        return phi_c_pdf(phi_cs, params) * vals

    return float(np.clip(integrate_1d(outer, 0.0, 0.5 * cfg.beam_spacing, _OUTER_SPEC),
                         0.0, 1.0))


def coverage_p3(gamma: float, params: NetworkParams) -> float:
    """Coverage probability under nearest-transmitter association."""
    cfg, ch = params.antenna, params.channel
    r_l = params.r_los
    lam = params.density
    norm = 1.0 - params.void_probability
    s_const = ch.m_s * gamma / (ch.tx_power_w * ch.path_gain_const * cfg.g_max**2)

    def integrand(r1):
        r1 = np.atleast_1d(r1)
        cond = np.empty_like(r1)
        for i, value in enumerate(r1):
            expo = _p3_exponent(params, float(value))
            cond[i] = _conditional_coverage(expo, s_const * value**ch.alpha_l, params)
        f_r1 = 2.0 * math.pi * lam * r1 * np.exp(-lam * math.pi * r1**2) / norm
        return f_r1 * cond

    return float(np.clip(integrate_1d(integrand, 0.0, r_l, _OUTER_SPEC), 0.0, 1.0))


def serving_power_quantile(law, p: float) -> float:
    """Numeric inverse of ``law.cdf`` (a ``ServingPowerLaw``) by bisection
    (the cdf is monotone)."""
    lo, hi = law.w_min, law.w_min * 2.0
    while law.cdf(hi) < p:
        hi *= 2.0
        if hi > law.w_min * 1e12:
            raise RuntimeError("quantile bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if law.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
