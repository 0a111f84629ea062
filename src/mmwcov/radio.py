"""Antenna patterns, beam grid, path loss, fading, and scenario parameters.

Everything works in linear units; dB appears only in parameter fields that
are conventionally quoted in dB and at the CLI boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
_LN10 = math.log(10.0)
# Exact by the SI definition of the metre; equal to scipy.constants.c.
SPEED_OF_LIGHT = 299_792_458.0

__all__ = [
    "AntennaConfig",
    "ChannelParams",
    "NetworkParams",
    "dbm_to_watts",
    "watts_to_dbm",
    "gain_3gpp",
    "gain_approx",
    "sample_fading",
]


def dbm_to_watts(x_dbm):
    return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)


def _db_to_linear(levels_db) -> np.ndarray:
    """Linear values of a sequence of levels in dB, each by Python's scalar
    power (numpy's array ``**`` can differ from it in the last bit); a level
    above the float range is +inf."""
    out = []
    for x_db in levels_db:
        try:
            out.append(10.0 ** (float(x_db) / 10.0))
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def watts_to_dbm(x_w):
    """dBm of a power in W; 0 W (no noise) is -inf dBm, without a warning."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.asarray(x_w, dtype=float)) + 30.0


@dataclass(frozen=True)
class AntennaConfig:
    """Receiver antenna: quadratic rolloff with a side-lobe floor, and a
    uniform grid of 2**sectors_exp beam maxima around the circle.

    ``phi_3db`` defaults to the beam spacing (one beam per sector) so the
    worst-case misalignment is half a beamwidth.
    """

    g_max_db: float = 10.0
    sla_db: float = 30.0
    sectors_exp: int = 2
    phi_3db: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if int(self.sectors_exp) != self.sectors_exp or self.sectors_exp < 0:
            raise ValueError("sectors_exp must be a nonnegative integer")
        object.__setattr__(self, "sectors_exp", int(self.sectors_exp))
        if self.sla_db <= 0.0:
            raise ValueError("sla_db must be positive")
        if self.phi_3db is None:
            object.__setattr__(self, "phi_3db", TWO_PI / self.n_beams)
        if not 0.0 < self.phi_3db <= TWO_PI:
            raise ValueError("phi_3db must lie in (0, 2*pi]")

    @property
    def n_beams(self) -> int:
        return 2 ** self.sectors_exp

    @property
    def beam_spacing(self) -> float:
        return TWO_PI / self.n_beams

    @property
    def g_max(self) -> float:
        return 10.0 ** (self.g_max_db / 10.0)

    @property
    def g_s(self) -> float:
        return self.g_max * 10.0 ** (-self.sla_db / 10.0)

    @property
    def g_3db(self) -> float:
        return 10.0 ** ((self.g_max_db - 3.0) / 10.0)

    @property
    def phi_a(self) -> float:
        """Offset where the quadratic rolloff meets the side-lobe floor (capped at pi)."""
        return min(math.pi, 0.5 * self.phi_3db * math.sqrt((10.0 / 3.0) * (self.sla_db / 10.0)))


@dataclass(frozen=True)
class ChannelParams:
    """Propagation, fading, and power-budget parameters."""

    alpha_l: float = 2.0
    f_c: float = 26.5e9
    m_s: int = 2
    m_x: int = 2
    r_los: float = 75.0
    tx_power_w: float = 10.0 ** 1.5        # 45 dBm
    noise_w: float = 10.0 ** (-10.4)       # -74 dBm

    def __post_init__(self) -> None:
        if self.alpha_l <= 0.0:
            raise ValueError("alpha_l must be positive")
        if not 1.8 <= self.alpha_l <= 2.5:
            warnings.warn(
                f"alpha_l={self.alpha_l} is outside the usual LOS range [1.8, 2.5]",
                stacklevel=2,
            )
        for name in ("m_s", "m_x"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
            object.__setattr__(self, name, int(value))
        if self.f_c <= 0.0 or self.r_los <= 0.0 or self.tx_power_w <= 0.0:
            raise ValueError("f_c, r_los, and tx_power_w must be positive")
        if self.noise_w < 0.0:
            raise ValueError("noise_w must be nonnegative")

    @property
    def path_gain_const(self) -> float:
        """Free-space constant K = (c / (4 pi f_c))**2."""
        return (SPEED_OF_LIGHT / (4.0 * math.pi * self.f_c)) ** 2


@dataclass(frozen=True)
class NetworkParams:
    """Full scenario parameterization: deployment density plus radio config."""

    density: float = 8e-4
    antenna: AntennaConfig = field(default_factory=AntennaConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)

    def __post_init__(self) -> None:
        if self.density <= 0.0:
            raise ValueError("density must be positive")

    @property
    def r_los(self) -> float:
        return self.channel.r_los

    @property
    def mean_count(self) -> float:
        """Expected number of reachable transmitters."""
        return self.density * math.pi * self.r_los**2

    @property
    def void_probability(self) -> float:
        return math.exp(-self.mean_count)


def _match_scalar(x_in, out):
    return float(out) if np.isscalar(x_in) or np.ndim(x_in) == 0 else out


# A read-only array of tens, shared by every thread: with an array as the
# base, numpy's power takes its vectorized loop, about twice as fast per
# element as the strided loop of a scalar base, with the same bits.
_TENS = np.full(2**14, 10.0)
_TENS.flags.writeable = False


def _pow10(x):
    """``10**x`` written into ``x``, bit for bit ``np.power(10.0, x)``;
    ``x`` may be 0-d.  Arrays longer than ``_TENS`` go in pieces."""
    flat = x.ravel(order="K")
    if not np.may_share_memory(flat, x):        # ravel copied, or x is empty
        return np.power(10.0, x, out=x)
    for lo in range(0, flat.size, _TENS.size):
        part = flat[lo:lo + _TENS.size]
        np.power(_TENS[:part.size], part, out=part)
    return x


def _curvature(cfg: AntennaConfig) -> float:
    """kappa such that the mainlobe gain is g_max * 10**(-kappa * offset**2)."""
    return 1.2 / cfg.phi_3db**2


def _rolloff_offset(ratio, cfg: AntennaConfig):
    """The mainlobe offset where the gain is ``ratio`` below g_max,
    ``sqrt(log10(ratio) / kappa)``: 0 for a ratio at or below 1, NaN for NaN."""
    return np.sqrt(np.maximum(np.log10(ratio), 0.0) / _curvature(cfg))


def _gain_3gpp_core(d, cfg: AntennaConfig, out):
    """``gain_3gpp`` at offsets ``d >= 0``, written into ``out`` (which may be ``d``)."""
    np.divide(d, cfg.phi_3db, out=out)
    np.square(out, out=out)
    np.multiply(12.0, out, out=out)
    np.minimum(out, cfg.sla_db, out=out)
    np.subtract(cfg.g_max_db, out, out=out)
    np.divide(out, 10.0, out=out)
    return _pow10(out)


def _mainlobe_core(d, cfg: AntennaConfig, out):
    """The mainlobe branch of ``gain_approx`` at offsets ``d >= 0``, written
    into ``out`` (which may be ``d``); no floor."""
    np.multiply(2.0, d, out=out)
    np.divide(out, cfg.phi_3db, out=out)
    np.square(out, out=out)
    np.multiply(-0.3, out, out=out)
    _pow10(out)
    return np.multiply(cfg.g_max, out, out=out)


def gain_3gpp(delta_phi, cfg: AntennaConfig):
    """Linear gain of the quadratic-with-floor pattern at offset ``delta_phi``.

    Offsets are expected in [0, pi]; negative values are folded by symmetry.
    """
    d = np.abs(np.asarray(delta_phi, dtype=float))
    return _match_scalar(delta_phi, _gain_3gpp_core(d, cfg, np.empty_like(d)))


def gain_approx(delta_phi, cfg: AntennaConfig):
    """Two-branch form of the same pattern: explicit mainlobe up to phi_a, flat floor beyond."""
    d = np.abs(np.asarray(delta_phi, dtype=float))
    main = _mainlobe_core(d, cfg, np.empty_like(d))
    return _match_scalar(delta_phi, np.where(d <= cfg.phi_a, main, cfg.g_s))


def sample_fading(shape_m: int, rng: np.random.Generator, size=None):
    """Unit-mean gamma power fading with integer shape ``shape_m``."""
    if int(shape_m) != shape_m or shape_m < 1:
        raise ValueError("fading shape must be an integer >= 1")
    return rng.gamma(shape=float(shape_m), scale=1.0 / float(shape_m), size=size)
