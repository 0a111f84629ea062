"""Per-field association rules, a scalar Poisson-field sampler and an iterated
2-D integral, kept as test oracles.

The Monte Carlo engine evaluates every field of a chunk at once in flat
arrays; the functions here do the same work one field at a time, written as
directly as the model states it.  ``test_association`` checks the engine's
chunk kernel against them, and several quadrature tests integrate laws with
:func:`integrate_2d`.  :func:`full_scan_chunk` evaluates a whole drawn chunk
as the engine did before it pruned the P1 search: every point of every field
is scanned.

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

from mmwcov.dominant import _LN10, _SPEC, mainlobe_pair_probability
from mmwcov.geometry import TWO_PI, angular_offset
from mmwcov.numerics import QuadratureSpec, integrate_1d
from mmwcov.radio import (AntennaConfig, ChannelParams, NetworkParams, gain_3gpp, gain_approx,
                          sample_fading)

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
