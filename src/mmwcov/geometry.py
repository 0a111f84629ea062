"""Angular offsets and the two-sided angular order-statistic densities of a
planar Poisson field.

The densities below are for points of a homogeneous Poisson process
conditioned on lying within Euclidean distance ``r`` of the origin.  They
are deliberately *not* renormalized over their finite support: the missing
mass is the probability that fewer than ``n`` such points exist, and
empirical comparisons must condition on that event instead.  Their cdfs,
the one-directional laws and the Euclidean joint laws are test oracles, in
``tests/field_oracle.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .radio import TWO_PI

__all__ = [
    "angular_offset",
    "abs_angular_pdf_nth",
    "joint_abs_angular_pdf",
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
