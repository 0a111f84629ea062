"""Per-field association rules, a scalar Poisson-field sampler, an iterated
2-D integral and the laws and samplers that only the tests use, kept as test
oracles.

The Monte Carlo engine evaluates every field of a chunk at once in flat
arrays; the functions here do the same work one field at a time, written as
directly as the model states it.  ``test_association`` checks the engine's
chunk kernel against them, and several quadrature tests integrate laws with
:func:`integrate_2d`.  :func:`full_scan_chunk` evaluates a whole drawn chunk
as the engine did before it pruned the P1 search: every point of every field
is scanned.

No scenario, demo or README example runs the rest, so it lives here: radio
laws (the beam grid, the path loss, the serving-gain density), the angular
and Euclidean order-statistic cdfs and joint laws of a field, the uniform
mainlobe gain law, the fade-ratio ccdf at a threshold, the P2
pathloss-fade ratio density and the P3 gain-fade ccdf and distance-ratio
density of the dominant engine, and
:func:`run_histogram` and :func:`sample_conditioned_interference` over the
Monte Carlo engine's own chunk stream.

Three association policies:

* P1 -- maximum received power over all (transmitter, receive-beam) pairs,
* P2 -- minimum angular distance over all (transmitter, receive-beam) pairs,
* P3 -- minimum Euclidean distance (receive beam steered onto the server).

The interference reference direction differs per policy: the selected beam
maximum for P1, and the serving azimuth for P2/P3 (the receive pattern is
treated as centered on the serving link).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from mmwcov.dominant import _SPEC, _fade_odds_ccdf, _p3_gain_offsets, mainlobe_pair_probability
from mmwcov.geometry import _check_order, angular_offset
from mmwcov.montecarlo import SimPlan, _chunk_rng, _map_chunks, _policy_chunk, sample_statistic
from mmwcov.numerics import QuadratureSpec, integrate_1d, integrate_many
from mmwcov.radio import (TWO_PI, _LN10, AntennaConfig, ChannelParams, NetworkParams, _curvature,
                          gain_3gpp, gain_approx, sample_fading)

_MAX_REJECTIONS = 10**6


# ---------------------------------------------------------------------------
# Radio laws that only the tests use
# ---------------------------------------------------------------------------


def beam_maxima_pmf(cfg: AntennaConfig) -> list[tuple[float, float]]:
    """Directions of the beam maxima and their (uniform) selection probabilities."""
    step = cfg.beam_spacing
    p = 1.0 / cfg.n_beams
    return [(0.5 * step + j * step, p) for j in range(cfg.n_beams)]


def path_loss(r, ch: ChannelParams):
    """Power-law path loss K * r**(-alpha_l)."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ValueError("path_loss requires strictly positive distance")
    out = ch.path_gain_const * r_arr ** (-ch.alpha_l)
    return float(out) if np.ndim(r) == 0 else out


def gain_pdf_mainlobe(x, cfg: AntennaConfig):
    """Density of the serving-beam gain under a uniform misalignment in
    [0, phi_3db/2]; support [g_3db, g_max], with an integrable divergence at
    the upper endpoint."""
    x_arr = np.asarray(x, dtype=float)
    inside = (x_arr >= cfg.g_3db) & (x_arr <= cfg.g_max)
    att_db = cfg.g_max_db - 10.0 * np.log10(np.where(inside, x_arr, 1.0))
    with np.errstate(divide="ignore"):
        dens = 10.0 / (12.0 * _LN10 * x_arr * np.sqrt(att_db / 12.0))
    out = np.where(inside, dens, 0.0)
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Order-statistic laws of a Poisson field that only the tests use
# ---------------------------------------------------------------------------
#
# As in ``mmwcov.geometry``, the angular laws are for points within distance
# ``r`` of the origin and are not renormalized over their finite support.


def angular_pdf_nth(n: int, phi, r: float, density: float):
    """Density of the one-directional angle to the n-th nearest point within
    distance ``r``; support [0, 2*pi]."""
    n = _check_order(n)
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr < 0.0):
        raise ValueError("phi must be nonnegative")
    a = 0.5 * density * r**2
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = (a * phi_arr) ** n / (math.gamma(n) * phi_arr) * np.exp(-a * phi_arr)
    # Continuous limits at the origin: a for n == 1, zero for n >= 2.
    dens = np.where(phi_arr == 0.0, a if n == 1 else 0.0, dens)
    out = np.where(phi_arr <= TWO_PI, dens, 0.0)
    return float(out) if out.ndim == 0 else out


def angular_cdf_nth(n: int, phi, r: float, density: float):
    """CDF companion of :func:`angular_pdf_nth` (mass-deficient at 2*pi)."""
    n = _check_order(n)
    phi_arr = np.clip(np.asarray(phi, dtype=float), 0.0, TWO_PI)
    out = special.gammainc(n, 0.5 * density * phi_arr * r**2)
    return float(out) if out.ndim == 0 else out


def angular_ccdf_nth(n: int, phi, r: float, density: float):
    """Complementary CDF: regularized upper incomplete gamma of the sector mass."""
    n = _check_order(n)
    phi_arr = np.asarray(phi, dtype=float)
    out = special.gammaincc(n, 0.5 * density * phi_arr * r**2)
    return float(out) if out.ndim == 0 else out


def abs_angular_cdf_nth(n: int, abs_phi, r: float, density: float):
    """CDF companion of ``geometry.abs_angular_pdf_nth`` (mass-deficient at pi)."""
    n = _check_order(n)
    phi_arr = np.clip(np.asarray(abs_phi, dtype=float), 0.0, math.pi)
    out = special.gammainc(n, density * phi_arr * r**2)
    return float(out) if out.ndim == 0 else out


def joint_abs_angular_cdf(abs_phi1, abs_phi2, r: float, density: float):
    """Joint CDF P(phi_(1) <= a, phi_(2) <= b) for a <= b within [0, pi]."""
    a_arr = np.minimum(np.asarray(abs_phi1, dtype=float), np.asarray(abs_phi2, dtype=float))
    b_arr = np.asarray(abs_phi2, dtype=float)
    c = density * r**2
    out = 1.0 - np.exp(-c * a_arr) - c * a_arr * np.exp(-c * b_arr)
    return float(out) if out.ndim == 0 else out


def joint_distance_pdf(r1, r2, density: float, ball_radius: float):
    """Joint density of the two smallest Euclidean distances;
    support 0 <= r1 <= r2 <= ball_radius."""
    r1_arr = np.asarray(r1, dtype=float)
    r2_arr = np.asarray(r2, dtype=float)
    dens = 4.0 * (math.pi * density) ** 2 * r1_arr * r2_arr * np.exp(-density * math.pi * r2_arr**2)
    ok = (r1_arr >= 0.0) & (r1_arr <= r2_arr) & (r2_arr <= ball_radius)
    out = np.where(ok, dens, 0.0)
    return float(out) if out.ndim == 0 else out


def joint_distance_cdf(r1, r2, density: float):
    """Joint CDF P(d_(1) <= a, d_(2) <= b) for a <= b."""
    a = np.minimum(np.asarray(r1, dtype=float), np.asarray(r2, dtype=float))
    b = np.asarray(r2, dtype=float)
    c = density * math.pi
    out = 1.0 - np.exp(-c * a**2) - c * a**2 * np.exp(-c * b**2)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Scalar Poisson fields
# ---------------------------------------------------------------------------


class PolarPoint(NamedTuple):
    """A transmitter location in polar coordinates relative to the receiver."""

    r: float
    phi: float


@dataclass(frozen=True)
class PointField:
    """One sampled Poisson field restricted to the reachability disk."""

    r: np.ndarray
    phi: np.ndarray
    ball_radius: float
    density: float

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        phi = wrap_angle(np.asarray(self.phi, dtype=float))
        if r.shape != phi.shape or r.ndim != 1:
            raise ValueError("r and phi must be matching 1-D arrays")
        if np.any(r < 0.0) or np.any(r > self.ball_radius):
            raise ValueError("all points must lie inside the disk")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.r.size

    def point(self, i: int) -> PolarPoint:
        return PolarPoint(float(self.r[i]), float(self.phi[i]))


def wrap_angle(phi):
    """Wrap angles to [0, 2*pi)."""
    return np.asarray(phi, dtype=float) % TWO_PI


def sample_ppp(density: float, ball_radius: float, rng: np.random.Generator,
               require_nonempty: bool = True) -> PointField:
    """Sample one homogeneous Poisson field inside the disk of ``ball_radius``.

    The count is Poisson with mean ``density * pi * ball_radius**2``; radii
    follow the area law (pdf ``2 r / R**2``) and azimuths are uniform.  With
    ``require_nonempty`` an empty draw is rejected and resampled, i.e. the
    count is conditioned on being at least one.
    """
    if density <= 0.0 or ball_radius <= 0.0:
        raise ValueError("density and ball_radius must be positive")
    mean = density * math.pi * ball_radius**2
    n = int(rng.poisson(mean))
    rejections = 0
    while require_nonempty and n == 0:
        rejections += 1
        if rejections > _MAX_REJECTIONS:
            raise RuntimeError("rejection sampling failed to produce a nonempty field")
        n = int(rng.poisson(mean))
    r = ball_radius * np.sqrt(rng.random(n))
    phi = TWO_PI * rng.random(n)
    return PointField(r=r, phi=phi, ball_radius=ball_radius, density=density)


# ---------------------------------------------------------------------------
# Per-field association and SINR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssociationOutcome:
    """Which transmitter serves, through which receive beam, and at what offset."""

    serving: PolarPoint
    serving_index: int
    beam_index: int          # 1-based position in the beam grid
    beam_direction: float
    serving_offset: float    # |beam direction - serving azimuth|, wrapped to [0, pi]
    policy: str


@dataclass(frozen=True)
class SinrSample:
    signal: float
    interference: float
    noise: float

    @property
    def sinr(self) -> float:
        return self.signal / (self.interference + self.noise)


def _beam_directions(cfg: AntennaConfig) -> np.ndarray:
    return np.array([d for d, _ in beam_maxima_pmf(cfg)])


def _pick(field: PointField, keys: tuple, policy: str, cfg: AntennaConfig | None,
          offsets=None) -> AssociationOutcome:
    order = np.lexsort(keys)
    best = int(order[0])
    if offsets is None:
        # P3: the receive beam is steered onto the server, zero offset.
        return AssociationOutcome(
            serving=field.point(best), serving_index=best, beam_index=0,
            beam_direction=float(field.phi[best]), serving_offset=0.0, policy=policy,
        )
    i, b = divmod(best, offsets.shape[1])
    dirs = _beam_directions(cfg)
    return AssociationOutcome(
        serving=field.point(i), serving_index=i, beam_index=b + 1,
        beam_direction=float(dirs[b]), serving_offset=float(offsets[i, b]), policy=policy,
    )


def _pair_arrays(field: PointField, cfg: AntennaConfig):
    dirs = _beam_directions(cfg)
    offsets = angular_offset(field.phi[:, None], dirs[None, :])
    shape = offsets.shape
    r = np.broadcast_to(field.r[:, None], shape).ravel()
    phi = np.broadcast_to(field.phi[:, None], shape).ravel()
    beam = np.broadcast_to(np.arange(shape[1]), shape).ravel()
    return offsets, r, phi, beam


def associate_p1(field: PointField, cfg: AntennaConfig, ch: ChannelParams) -> AssociationOutcome:
    """Maximize gain(offset) * r**(-alpha) jointly over transmitters and beams.

    Ties resolve by smaller radius, then smaller azimuth, then lower beam index.
    """
    if field.n == 0:
        raise ValueError("cannot associate on an empty field")
    offsets, r, phi, beam = _pair_arrays(field, cfg)
    power = gain_approx(offsets, cfg).ravel() * r ** (-ch.alpha_l)
    return _pick(field, (beam, phi, r, -power), "P1", cfg, offsets=offsets)


def associate_p2(field: PointField, cfg: AntennaConfig) -> AssociationOutcome:
    """Minimize the (wrapped) angular distance jointly over transmitters and beams."""
    if field.n == 0:
        raise ValueError("cannot associate on an empty field")
    offsets, r, phi, beam = _pair_arrays(field, cfg)
    return _pick(field, (beam, phi, r, offsets.ravel()), "P2", cfg, offsets=offsets)


def associate_p3(field: PointField) -> AssociationOutcome:
    """Serve from the nearest transmitter; assume a perfectly aligned beam."""
    if field.n == 0:
        raise ValueError("cannot associate on an empty field")
    return _pick(field, (field.phi, field.r), "P3", None)


def compute_sinr(field: PointField, outcome: AssociationOutcome, cfg: AntennaConfig,
                 ch: ChannelParams, rng: np.random.Generator) -> SinrSample:
    """Assemble the downlink SINR for one associated field.

    The serving fade is drawn first (shape ``m_s``), then one fade per field
    point (shape ``m_x``); the serving point's interferer fade is discarded.
    Interferer gains use the exact receive pattern at the offset from the
    policy's reference direction; the serving gain uses the two-branch form
    for P1/P2 and boresight for P3 (both antenna ends aligned).
    """
    if outcome.serving_index >= field.n:
        raise ValueError("association outcome does not match the field")
    h_s = float(sample_fading(ch.m_s, rng))
    h_x = sample_fading(ch.m_x, rng, size=field.n)

    p, k_const = ch.tx_power_w, ch.path_gain_const
    if outcome.policy == "P1":
        reference = outcome.beam_direction
        g_serve = gain_approx(outcome.serving_offset, cfg)
    elif outcome.policy == "P2":
        reference = outcome.serving.phi
        g_serve = gain_approx(outcome.serving_offset, cfg)
    elif outcome.policy == "P3":
        reference = outcome.serving.phi
        g_serve = cfg.g_max
    else:
        raise ValueError(f"unknown policy {outcome.policy!r}")

    signal = p * h_s * cfg.g_max * g_serve * k_const * outcome.serving.r ** (-ch.alpha_l)
    mask = np.arange(field.n) != outcome.serving_index
    gains = gain_3gpp(angular_offset(reference, field.phi[mask]), cfg)
    interference = float(
        (p * cfg.g_max * k_const * h_x[mask] * gains * field.r[mask] ** (-ch.alpha_l)).sum()
    )
    return SinrSample(signal=float(signal), interference=interference, noise=ch.noise_w)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def integrate_2d(f: Callable, x_lo: float, x_hi: float, y_lo, y_hi,
                 spec: QuadratureSpec | None = None) -> float:
    """Iterated adaptive integral of ``f(x, y)`` over a (possibly curved) region.

    ``y_lo``/``y_hi`` may be scalars or callables of the outer variable, which
    covers regions whose inner bound depends on the outer one (e.g. a radial
    exclusion boundary varying with azimuth).  ``f`` is called with a scalar
    ``x`` and an ndarray of ``y`` values.
    """
    spec = spec or QuadratureSpec()
    inner_spec = replace(spec, rel_tol=spec.rel_tol / 4.0, abs_tol=spec.abs_tol / 4.0)
    lo_fn = y_lo if callable(y_lo) else (lambda _x: y_lo)
    hi_fn = y_hi if callable(y_hi) else (lambda _x: y_hi)

    def outer(xs):
        xs = np.atleast_1d(xs)
        return np.array([
            integrate_1d(lambda y, _x=x: f(_x, y), lo_fn(x), hi_fn(x), inner_spec)
            for x in xs
        ])

    return integrate_1d(outer, x_lo, x_hi, spec)


def _joint_gain_density_p2(g1, g2, params: NetworkParams):
    """Joint density of the two mainlobe gains in gain coordinates, zero
    outside g_s <= g2 <= g1 <= g_max.  Not normalized by the conditioning
    probability."""
    cfg = params.antenna
    lam_r2 = params.density * params.r_los**2
    g1_arr = np.asarray(g1, dtype=float)
    g2_arr = np.asarray(g2, dtype=float)
    l1 = np.log10(cfg.g_max / g1_arr)
    l2 = np.log10(cfg.g_max / g2_arr)
    phi2 = cfg.phi_3db * np.sqrt(10.0 * np.abs(l2)) / (2.0 * math.sqrt(3.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = (5.0 * (lam_r2 * cfg.phi_3db) ** 2 / 24.0 * np.exp(-lam_r2 * phi2)
                / (_LN10**2 * g1_arr * g2_arr * np.sqrt(np.abs(l1 * l2))))
    ok = (g2_arr >= cfg.g_s) & (g2_arr <= g1_arr) & (g1_arr <= cfg.g_max)
    return np.where(ok, dens, 0.0)


def corrected_gain_ratio_pdf_g2space(g: float, params: NetworkParams) -> float:
    """Same law as ``dominant.gain_ratio_pdf_p2``, by adaptive quadrature in
    gain coordinates."""
    cfg = params.antenna
    p_cond = mainlobe_pair_probability(params)

    def integrand(g2):
        return g2 * _joint_gain_density_p2(g * g2, g2, params)

    return integrate_1d(integrand, cfg.g_s, cfg.g_max / g * (1.0 - 1e-12), _SPEC) / p_cond


# ---------------------------------------------------------------------------
# Minimum-angle (P2) dominant-interferer law that only the tests use
# ---------------------------------------------------------------------------


# Tolerance of the P2 pathloss-fade ratio density's integrals: tighter than
# the 1e-10 to which its closed form at the defaults is checked.
_PDF_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)


def fade_ratio_ccdf(t, m_s: int, m_x: int):
    """P(h1/h2 > t), unit-mean gamma fades of shapes (m_s, m_x): the
    dominant engine's ccdf at the odds ``m_s t / m_x``."""
    return _fade_odds_ccdf(np.maximum(np.asarray(t, dtype=float), 0.0) * (m_s / m_x), m_s, m_x)


def pathloss_fade_ratio_pdf_p2(w, params: NetworkParams):
    """Density of (h1 d1^-alpha) / (h2 d2^-alpha) with independent area-law
    radii and unit-mean gamma fades; support (0, inf).

    Integrated over ``x = log(w2 / s)``, ``s = r_los^-alpha`` the components'
    scale, on three pieces cut at 0 and ``log(1/w)``, where the two
    components bend: in x the integrand falls at least as ``e^(2 x)`` below
    the lower cut and as ``e^(-4 x / alpha)`` above the upper one, so the
    pieces end 40 and ``10 alpha`` beyond them.  A single range over
    ``w2 in [0, inf)`` does not resolve the mass near ``s``: at the
    defaults it gives about 1 at small ``w``, not ``1/(1 + w)^2 ~ 1 - 2 w``."""
    ch = params.channel
    alpha, r_l = ch.alpha_l, params.r_los

    def component_pdf(w_i, m):
        # marginal of h * d^-alpha via the incomplete gamma
        a = 2.0 / alpha + m
        x = m * w_i * r_l**alpha
        return (2.0 * m ** (-2.0 / alpha) * w_i ** (-2.0 / alpha - 1.0)
                * special.gammainc(a, x) * math.gamma(a)
                / (alpha * r_l**2 * math.gamma(m)))

    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    out = np.zeros_like(w_arr)
    positive = ~(w_arr <= 0.0)
    w_pos = w_arr[positive]
    s = r_l ** -alpha
    bend = -np.log(w_pos)
    cuts = np.stack((np.minimum(bend, 0.0) - 40.0, np.minimum(bend, 0.0),
                     np.maximum(bend, 0.0), np.maximum(bend, 0.0) + 10.0 * alpha))

    def integrand(x, which):
        w2 = s * np.exp(x)
        w1 = w_pos[which % w_pos.size] * w2
        return w2 * w2 * component_pdf(w1, ch.m_s) * component_pdf(w2, ch.m_x)

    pieces = integrate_many(integrand, cuts[:-1].ravel(), cuts[1:].ravel(), 3 * w_pos.size,
                            _PDF_SPEC)
    out[positive] = pieces.reshape(3, w_pos.size).sum(axis=0)
    return float(out[0]) if np.ndim(w) == 0 else out


# ---------------------------------------------------------------------------
# Nearest-transmitter (P3) dominant-interferer laws that only the tests use
# ---------------------------------------------------------------------------


def uniform_mainlobe_gain_pdf(g2, params: NetworkParams):
    """Density of the mainlobe gain at a uniform offset in [0, phi_a];
    support [g_s, g_max] with an integrable divergence at g_max."""
    cfg = params.antenna
    g_arr = np.asarray(g2, dtype=float)
    inside = (g_arr >= cfg.g_s) & (g_arr <= cfg.g_max)
    const = cfg.phi_3db * math.sqrt(30.0) / (12.0 * _LN10 * cfg.phi_a)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = const / (g_arr * np.sqrt(np.log10(cfg.g_max / np.where(inside, g_arr, 1.0))))
    out = np.where(inside, dens, 0.0)
    return float(out) if out.ndim == 0 else out


def uniform_mainlobe_gain_cdf(g2, params: NetworkParams):
    """CDF companion of :func:`uniform_mainlobe_gain_pdf`."""
    cfg = params.antenna
    kappa = _curvature(cfg)
    g_arr = np.clip(np.asarray(g2, dtype=float), cfg.g_s, cfg.g_max)
    offset = np.sqrt(np.log10(cfg.g_max / g_arr) / kappa)
    out = 1.0 - offset / cfg.phi_a
    return float(out) if out.ndim == 0 else out


def gain_fade_ratio_ccdf_p3(g, params: NetworkParams):
    """ccdf companion of ``dominant.gain_fade_ratio_pdf_p3``, on its nodes
    over the uniform mainlobe offset."""
    cfg, ch = params.antenna, params.channel
    g2, wts = _p3_gain_offsets(params)
    scale = g2 / cfg.g_max
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = (wts[None, :]
           * fade_ratio_ccdf(g_arr[:, None] * scale[None, :], ch.m_s, ch.m_x)).sum(axis=1)
    return float(out[0]) if np.ndim(g) == 0 else out


def distance_ratio_pdf_p3(w, params: NetworkParams):
    """Density of (r1/r2)^-alpha for the two nearest transmitters; support
    [1, inf), mass 1 with the constant 2/alpha (the rejected constant is
    ``dominant.lemma_bracket_constant`` / alpha)."""
    alpha = params.channel.alpha_l
    w_arr = np.asarray(w, dtype=float)
    out = np.where(w_arr >= 1.0, (2.0 / alpha) * w_arr ** (-(2.0 + alpha) / alpha), 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Monte Carlo histograms and conditioned samples
# ---------------------------------------------------------------------------


class ConditioningError(RuntimeError):
    """Raised when a conditioned statistic accepts too few samples to be useful."""


@dataclass(frozen=True)
class Histogram:
    """Normalized histogram of a (possibly conditioned) per-trial statistic."""

    edges: tuple
    density: np.ndarray
    n_samples: int
    n_trials: int
    acceptance: float
    conditioning: str


CONDITIONING = {
    "phi_c": "none",
    "S": "none",
    "W_ratio_p2": "none (model draws)",
    "varphi12": "at least two points in the disk",
    "G_ratio_p2": "two smallest angular offsets both inside the mainlobe",
    "SIR_dom_p2": "two smallest angular offsets both inside the mainlobe",
    "G_p3": "at least two points; interferer offset inside the mainlobe",
    "W_p3": "at least two points in the disk",
    "SIR_dom_p3": "at least two points; interferer offset inside the mainlobe",
}


def _run_context(plan: SimPlan) -> str:
    return (f"density {plan.params.density:g}, sectors_exp {plan.params.antenna.sectors_exp}, "
            f"{plan.n_trials} trials")


def run_histogram(plan: SimPlan, statistic: str, bins=100, value_range=None,
                  n_workers: int = 1) -> Histogram:
    """Normalized histogram of ``montecarlo.sample_statistic``, with its
    conditioning bookkeeping."""
    samples, acceptance = sample_statistic(plan, statistic, n_workers=n_workers)
    if acceptance < 1e-4:
        raise ConditioningError(
            f"acceptance {acceptance:.2e} for {statistic!r} at {_run_context(plan)} is "
            "below 1e-4; increase density, the disk radius, or the trial count")
    if samples.ndim == 2:
        density, ex, ey = np.histogram2d(samples[:, 0], samples[:, 1], bins=bins,
                                         range=value_range, density=True)
        edges = (ex, ey)
    else:
        density, ex = np.histogram(samples, bins=bins, range=value_range, density=True)
        edges = (ex,)
    return Histogram(edges=edges, density=density, n_samples=samples.shape[0],
                     n_trials=plan.n_trials, acceptance=acceptance,
                     conditioning=CONDITIONING[statistic])


def sample_conditioned_interference(plan: SimPlan, center: float, rel_window: float,
                                    n_workers: int = 1):
    """Interference power samples (watts) conditioned on the policy's serving
    state lying within ``center * (1 +- rel_window)``.

    The conditioning variable is the normalized max power for P1, the serving
    angular distance for P2, and the serving distance for P3.  Each chunk is
    the engine's own ``_policy_chunk`` on the engine's chunk stream, so the
    samples are those trials of a ``run_coverage`` of the plan.
    """
    key = {"P1": "s_norm", "P2": "phi_c", "P3": "serving_r"}[plan.policy]

    def work(ci, size, ws):
        out = _policy_chunk(plan.params, plan.policy, size, _chunk_rng(plan.master_seed, ci), ws)
        cond = out[key]
        keep = np.abs(cond - center) <= rel_window * center
        return out["interference_w"][keep], size

    parts = _map_chunks(work, plan.n_trials, n_workers)
    samples = np.concatenate([p[0] for p in parts])
    acceptance = samples.size / plan.n_trials
    if samples.size < 100:
        raise ConditioningError(
            f"only {samples.size} samples (fewer than 100) fell in the {plan.policy} "
            f"conditioning window of centre {center:g} and relative width {rel_window:g} "
            f"at {_run_context(plan)}, acceptance {acceptance:.2e}")
    return samples, acceptance


# ---------------------------------------------------------------------------
# The Monte Carlo chunk kernel by full scan
# ---------------------------------------------------------------------------


def formula_gain_3gpp(d, cfg: AntennaConfig):
    """``gain_3gpp`` at offsets ``d >= 0`` as its closed form reads."""
    att_db = np.minimum(12.0 * (d / cfg.phi_3db) ** 2, cfg.sla_db)
    return 10.0 ** ((cfg.g_max_db - att_db) / 10.0)


def formula_gain_approx(d, cfg: AntennaConfig):
    """``gain_approx`` at offsets ``d >= 0`` as its closed form reads."""
    main = cfg.g_max * 10.0 ** (-0.3 * (2.0 * d / cfg.phi_3db) ** 2)
    return np.where(d <= cfg.phi_a, main, cfg.g_s)


def full_scan_chunk(params: NetworkParams, policy: str, field: tuple) -> dict:
    """One policy on a drawn chunk, every point of every field scanned.

    ``field`` is ``(counts, starts, seg, r, phi, h_s, h_x, rpow)`` in the flat
    segment layout of ``montecarlo._field_chunk``.  Every point gets its grid
    offset, and P1 its mainlobe gain and key; the winner of each field is the
    first of a full lexsort by key, radius, azimuth and index; interferers are
    offset by the wrapped ``angular_offset``.  Returns fresh per-trial arrays
    under the names the package kernel uses.
    """
    cfg, ch = params.antenna, params.channel
    counts, starts, seg, r, phi, h_s, h_x, rpow = field
    n = counts.size
    step = cfg.beam_spacing
    t = np.remainder(phi - 0.5 * step, step)
    off = np.minimum(t, step - t)

    out = {"counts": counts}
    if policy == "P1":
        key = formula_gain_approx(off, cfg) * rpow
        win = np.lexsort((phi, r, -key, seg))[starts]
        beam = np.rint((phi[win] - 0.5 * step) / step).astype(int) % cfg.n_beams
        ref = 0.5 * step + beam * step
        g_serve = formula_gain_approx(off[win], cfg)
        out["s_norm"] = key[win]
    elif policy == "P2":
        win = np.lexsort((phi, r, off, seg))[starts]
        ref = phi[win]
        g_serve = formula_gain_approx(off[win], cfg)
        out["phi_c"] = off[win]
    else:
        win = np.lexsort((phi, r, seg))[starts]
        ref = phi[win]
        g_serve = np.full(n, cfg.g_max)
        out["s_norm"] = cfg.g_max * rpow[win]

    term = h_x * formula_gain_3gpp(angular_offset(ref[seg], phi), cfg) * rpow
    inter_norm = np.add.reduceat(term, starts) - term[win]
    pk = ch.tx_power_w * ch.path_gain_const * cfg.g_max
    out["interference_w"] = pk * inter_norm
    out["signal_w"] = pk * g_serve * h_s * rpow[win]
    out["sinr"] = out["signal_w"] / (out["interference_w"] + ch.noise_w)
    out["serving_r"] = r[win]
    out["serving_offset"] = off[win]
    return out
