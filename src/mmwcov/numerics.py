"""Adaptive quadrature and Gauss-Legendre rules.

These are the numerical workhorses behind every analytic (non Monte Carlo)
computation in the package.  All integrands must be numpy-vectorized: they
receive a 1-D ndarray of abscissae and must return values of the same shape.

The adaptive Gauss-Kronrod integrator runs any number of integrals in
lockstep on one flat panel table, so a round costs a fixed number of numpy
calls, plus one gather per distinct panel count, however many integrals are
running.  Each integral still gets bitwise the result it would get alone:
its panels keep their order in the table, and its totals are summed as one
row of a matrix of the integrals with equal panel counts, which numpy sums
exactly as it sums a separate array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "NonFiniteIntegrandError",
    "integrate_1d",
    "integrate_many",
    "gauss_legendre",
    "composite_gauss_legendre",
]

INFINITE_TAIL_MASS = 1e-9    # see QuadratureSpec


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance contract for the adaptive integrators.

    The estimated error of a result is kept below
    ``max(abs_tol, rel_tol * |result|)``.  ``max_subdivisions`` caps the
    total number of interval bisections before :class:`QuadratureError` is
    raised.  Semi-infinite ranges are mapped onto ``[0, 1)`` through
    ``x = a + t/(1-t)``; the panel touching ``t = 1`` is additionally
    required to carry at most ``INFINITE_TAIL_MASS`` of the total absolute
    mass, otherwise it keeps being subdivided.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before reaching the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial result is still usable, and ``index``, the
    position of the failing integral in an :func:`integrate_many` batch.
    """

    def __init__(self, message: str, estimate: float, error_bound: float,
                 index: int | None = None):
        super().__init__(f"{message} (best estimate {estimate:.6e}, error bound {error_bound:.3e})")
        self.message = message
        self.estimate = estimate
        self.error_bound = error_bound
        self.index = index


class NonFiniteIntegrandError(ValueError):
    """An integrand returned a non-finite value.

    ``index`` is the position of its integral in an :func:`integrate_many`
    batch, as for :class:`QuadratureError`.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.message = message
        self.index = index


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


# Built on first use and cached.  Newton's method on the three-term
# recurrence needs neither numpy.polynomial (an import of about 4 ms and
# 0.75 MB) nor LAPACK (whose first call adds about 1 MB of resident memory).
@functools.cache
def gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        x = x - p / dp
        if np.max(np.abs(p / dp)) < 1e-15:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # symmetric about 0, as the exact rule is
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def composite_gauss_legendre(lo, hi, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    ``[lo[i], hi[i]]``, panel after panel."""
    x, w = gauss_legendre(n)
    half = 0.5 * (hi - lo)[:, None]
    return (0.5 * (lo + hi)[:, None] + half * x).ravel(), (half * w).ravel()


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# Gauss-7 weights aligned with the Kronrod nodes (zeros at Kronrod-only nodes).
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])
# Weights of a panel's Kronrod value, Gauss value and absolute mass, applied
# to its integrand values y, y and |y|.
_WEIGHTS = np.array([_WK, _WG, _WK])[:, None, :]


def _integral_sums(table, counts):
    """Per-integral sums of the val, err and resabs rows of ``table``, which
    holds each integral's ``counts`` panels contiguously, in integral order.
    Integrals with equal panel counts are summed as the rows of one gathered
    matrix, which numpy sums bitwise as it sums each integral's own array."""
    starts = counts.cumsum() - counts
    sums = np.empty((3, counts.size))
    for k in set(counts.tolist()):
        rows = (counts == k).nonzero()[0]
        sums[:, rows] = table[2:].take(starts[rows, None] + np.arange(k), axis=1).sum(axis=2)
    return sums


def _adaptive(f, lo: np.ndarray, hi: np.ndarray, n: int, spec: QuadratureSpec,
              guarded: np.ndarray | None = None, abscissa=None) -> np.ndarray:
    """Adaptive Gauss-Kronrod for ``n`` integrals in lockstep, integral i
    over [lo[i], hi[i]].

    All panels of all running integrals sit in one table (rows lo, hi, val,
    err, resabs), grouped by ``owner`` in integral order, each integral's
    kept panels first, then its left halves, then its right halves.  Each
    integral keeps its own splits and stopping test, exactly as if it ran
    alone; a round is one integrand call over the new panels, then a fixed
    set of array operations that merge them into the table and split it.
    The panel ending at 1 of an integral that is ``guarded`` is its tail,
    the mapped point at infinity (see :class:`QuadratureSpec`), and
    ``abscissa(t, i)`` maps the variable ``t`` of integral i back to the
    abscissa that a non-finite integrand value is reported at.
    """
    out = np.empty(n)
    splits = np.zeros(n, dtype=np.int64)
    table, owner = np.empty((5, 0)), np.empty(0, dtype=np.int64)
    # new panels, waiting for integrand values: integral by integral, each
    # integral's left halves before its right halves
    new_owner = np.arange(n)
    while new_owner.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = (mid[:, None] + half[:, None] * _XK).ravel()
        y = np.asarray(f(x, new_owner.repeat(_XK.size)), dtype=float)
        y = y.reshape(mid.size, _XK.size)
        if not np.isfinite(y).all():
            bad = np.flatnonzero(~np.isfinite(y))[0]
            i, at = int(new_owner[bad // _XK.size]), float(x[bad])
            raise NonFiniteIntegrandError(
                "integrand returned a non-finite value near "
                f"x={at if abscissa is None else abscissa(at, i)!r}", i)
        val, gauss, resabs = (np.array([y, y, np.abs(y)]) * _WEIGHTS).sum(axis=2) * half
        new = np.array([lo, hi, val, np.abs(val - gauss), resabs])
        owner = np.concatenate([owner, new_owner])
        order = owner.argsort(kind="stable")
        owner = owner[order]
        table = np.concatenate([table, new], axis=1).take(order, axis=1)

        counts = np.bincount(owner, minlength=n)
        ids = counts.nonzero()[0]    # running integrals
        counts = counts[ids]
        total, total_err, mass = _integral_sums(table, counts)
        tol = np.fmax(spec.abs_tol, spec.rel_tol * np.abs(total))
        split = table[3] > (tol / (2.0 * counts)).repeat(counts)
        done = total_err <= tol
        if guarded is not None:
            # Panel adjacent to the mapped point at infinity must carry less
            # than the overall tolerance (or INFINITE_TAIL_MASS of the total)
            # before we trust the estimate.
            tail = (table[1] == 1.0) & guarded[owner]
            tail_mass = np.bincount(owner[tail], table[4, tail], n)[ids]
            tail_bad = tail_mass > np.fmax(tol, INFINITE_TAIL_MASS * mass + spec.abs_tol)
            done &= ~tail_bad
            split |= tail_bad.repeat(counts) & tail
        out[ids] = total    # final once an integral is done

        # An unfinished integral always splits: either its tail panel, or
        # some panel above tol / (2 * count), since shares of that size sum
        # to at most tol / 2.
        live = (~done).repeat(counts)
        split &= live
        splits += np.bincount(owner[split], minlength=n)
        failed = (splits[ids] > spec.max_subdivisions).nonzero()[0]
        if failed.size:
            i = failed[0]
            raise QuadratureError("quadrature failed to converge within max_subdivisions",
                                  float(total[i]), float(total_err[i]), int(ids[i]))

        lo, hi, new_owner = table[0, split], table[1, split], owner[split]
        mid = 0.5 * (lo + hi)
        halves = np.concatenate([new_owner, new_owner]).argsort(kind="stable")
        lo, hi = np.concatenate([lo, mid])[halves], np.concatenate([mid, hi])[halves]
        new_owner = new_owner.repeat(2)
        keep = live & ~split
        table, owner = table[:, keep], owner[keep]
    return out


def _ranges(a, b, n: int):
    """``a`` and ``b`` as arrays of the ``n`` integrals' bounds, after
    checking that each range is a finite ``a <= b`` with ``b`` finite or
    ``+inf``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    bad = ~(np.isfinite(a) & (a <= b))
    if bad.any():
        i = np.argwhere(bad)[0]
        a_i, b_i = (float(np.broadcast_to(x, bad.shape)[tuple(i)]) for x in (a, b))
        raise ValueError(f"integration range [{a_i!r}, {b_i!r}]: "
                         "need a finite a <= b, with b finite or +inf")
    if n < 0:
        raise ValueError("the number of integrals must be nonnegative")
    if {a.shape, b.shape} - {(), (n,)}:
        raise ValueError(f"ranges of shape {bad.shape} for {n} integrals")
    zeros = np.zeros(n)
    return a + zeros, b + zeros


def integrate_many(f: Callable, a, b, n: int,
                   spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integrate ``n`` vectorized real functions, integral i over [a[i], b[i]].

    ``f(x, which)`` receives a 1-D ndarray of abscissae and an equally long
    integer array naming the integral (0 .. n-1) each abscissa belongs to,
    and returns the integrand values.  Every integral runs the same adaptive
    rule as :func:`integrate_1d` and gets the same result it would get alone;
    the batching only lets ``f`` share work between integrals that ask for
    the same abscissa.  Returns an ndarray of the ``n`` integrals.

    ``a`` and ``b`` are scalars, the range of every integral, or arrays of
    the ``n`` integrals' own ranges (a QUADPACK routine takes one range
    per call; here each integral has its own).  A range is ``a <= b`` with
    ``a`` finite and ``b`` finite or ``+inf``; any other range (reversed,
    ``-inf`` or NaN bounds) raises ``ValueError`` naming it.  ``[a, inf)``
    is mapped to [0, 1) with ``x = a + t/(1 - t)``, so adaptivity is
    preserved near ``a``.  Integrable endpoint singularities are allowed
    (the Kronrod nodes are interior).  An integral with ``a == b`` is 0,
    and its integrand is never called.  A non-finite integrand value raises
    :class:`NonFiniteIntegrandError`, whose ``index`` names its integral.

    All panels of all integrals sit in one flat table, and each round is one
    call of ``f`` over the panels waiting for values, integral by integral,
    each integral's left halves before its right halves.  An integral's
    totals are summed as a row of the matrix of every integral with the same
    panel count, which gives bitwise its own ``.sum()``.
    """
    spec = spec or QuadratureSpec()
    a, b = _ranges(a, b, n)
    inf = np.isinf(b)
    wide = a < b
    mapped = inf.any()
    lo, hi = (np.where(inf, 0.0, a), np.where(inf, 1.0, b)) if mapped else (a, b)
    out = np.zeros(n)
    run = wide.nonzero()[0]
    if run.size < n:
        # an integral of zero width is 0, and its integrand is never called;
        # the others run renumbered 0 .. run.size - 1
        if not run.size:
            return out
        lo, hi, a, inf = lo[run], hi[run], a[run], inf[run]
    if mapped:
        def integrand(t, k):
            tail = inf[k]
            one_m = np.where(tail, 1.0 - t, 1.0)
            return f(np.where(tail, a[k] + t / one_m, t), run[k]) / one_m**2

        def abscissa(t, i):
            return float(a[i] + t / (1.0 - t)) if inf[i] else t
    else:
        def integrand(x, k):
            return f(x, run[k])
        abscissa = None
    try:
        out[run] = _adaptive(integrand, lo, hi, run.size, spec, inf if mapped else None,
                             abscissa)
    except (QuadratureError, NonFiniteIntegrandError) as err:
        err.index = int(run[err.index])
        raise
    return out


def integrate_1d(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None) -> float:
    """Integrate a vectorized real function over [a, b].

    The one-integral case of :func:`integrate_many` (see there for the
    accepted ranges and endpoint singularities).
    """
    return float(integrate_many(lambda x, _which: f(x), a, b, 1, spec)[0])

