"""Angular offsets and the angular/Euclidean order-statistic laws of a planar
Poisson field.

All angular-distance densities below are for points of a homogeneous Poisson
process conditioned on lying within Euclidean distance ``r`` of the origin.
They are deliberately *not* renormalized over their finite support: the
missing mass is the probability that fewer than ``n`` such points exist, and
empirical comparisons must condition on that event instead.
"""

from __future__ import annotations

import math

import numpy as np

# scipy.special is imported inside the functions that call it: importing it
# costs about 0.2 s of CPU, which Monte Carlo runs never need.

TWO_PI = 2.0 * math.pi

__all__ = [
    "angular_offset",
    "angular_pdf_nth",
    "angular_cdf_nth",
    "angular_ccdf_nth",
    "abs_angular_pdf_nth",
    "abs_angular_cdf_nth",
    "joint_abs_angular_pdf",
    "joint_abs_angular_cdf",
    "joint_distance_pdf",
    "joint_distance_cdf",
]


def angular_offset(a, b):
    """Absolute angular separation of two azimuths, wrapped to [0, pi]."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    out = np.minimum(d, TWO_PI - d)
    return float(out) if out.ndim == 0 else out


def _check_order(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError("order n must be an integer >= 1")
    return int(n)


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
    from scipy import special

    n = _check_order(n)
    phi_arr = np.clip(np.asarray(phi, dtype=float), 0.0, TWO_PI)
    out = special.gammainc(n, 0.5 * density * phi_arr * r**2)
    return float(out) if out.ndim == 0 else out


def angular_ccdf_nth(n: int, phi, r: float, density: float):
    """Complementary CDF: regularized upper incomplete gamma of the sector mass."""
    from scipy import special

    n = _check_order(n)
    phi_arr = np.asarray(phi, dtype=float)
    out = special.gammaincc(n, 0.5 * density * phi_arr * r**2)
    return float(out) if out.ndim == 0 else out


def abs_angular_pdf_nth(n: int, abs_phi, r: float, density: float):
    """Density of the n-th smallest absolute (two-sided) angular distance;
    support [0, pi]."""
    n = _check_order(n)
    phi_arr = np.asarray(abs_phi, dtype=float)
    if np.any(phi_arr < 0.0):
        raise ValueError("abs_phi must be nonnegative")
    a = density * r**2
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = (a * phi_arr) ** n / (math.gamma(n) * phi_arr) * np.exp(-a * phi_arr)
    dens = np.where(phi_arr == 0.0, a if n == 1 else 0.0, dens)
    out = np.where(phi_arr <= math.pi, dens, 0.0)
    return float(out) if out.ndim == 0 else out


def abs_angular_cdf_nth(n: int, abs_phi, r: float, density: float):
    from scipy import special

    n = _check_order(n)
    phi_arr = np.clip(np.asarray(abs_phi, dtype=float), 0.0, math.pi)
    out = special.gammainc(n, density * phi_arr * r**2)
    return float(out) if out.ndim == 0 else out


def joint_abs_angular_pdf(abs_phi1, abs_phi2, r: float, density: float):
    """Joint density of the two smallest absolute angular distances;
    support 0 <= phi1 <= phi2 <= pi, zero elsewhere."""
    p1 = np.asarray(abs_phi1, dtype=float)
    p2 = np.asarray(abs_phi2, dtype=float)
    a = density * r**2
    dens = a**2 * np.exp(-a * p2)
    ok = (p1 >= 0.0) & (p1 <= p2) & (p2 <= math.pi)
    out = np.where(ok, dens, 0.0)
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
