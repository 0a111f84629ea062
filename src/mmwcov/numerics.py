"""Adaptive quadrature and Laplace-transform derivatives.

These are the numerical workhorses behind every analytic (non Monte Carlo)
computation in the package.  All integrands must be numpy-vectorized: they
receive a 1-D ndarray of abscissae and must return values of the same shape.
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
    "integrate_1d",
    "integrate_many",
    "exp_derivatives",
    "gauss_legendre",
]

INFINITE_TAIL_MASS = 1e-9    # see QuadratureSpec


class Workspace:
    """Named work buffers that one thread reuses across the calls of a kernel.

    ``take(name, size)`` is the first ``size`` elements of the named buffer;
    a call that needs more grows it once, with room to spare for the next
    call's size.  Workspace views never leave the kernel that took them.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size + size // 16, dtype)
        return buf[:size]


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


# Built on first use, not at import: the first LAPACK call inside leggauss
# adds about 1 MB of resident memory.
@functools.cache
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


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


class _Panels:
    """Panel set of one adaptive integral: bounds, Kronrod values, Gauss-Kronrod
    error estimates and absolute masses, plus its bisection count."""

    def __init__(self, a: float, b: float):
        self.lo = self.hi = self.val = self.err = self.resabs = np.empty(0)
        self.n_splits = 0
        # panels waiting for integrand values
        self.new_lo, self.new_hi = np.array([a]), np.array([b])

    def add(self, y):
        """Fold in the integrand values (new panels x 15) of the waiting panels;
        they go after the kept ones."""
        half = 0.5 * (self.new_hi - self.new_lo)
        val = half * (y * _WK).sum(axis=1)
        gauss = half * (y * _WG).sum(axis=1)
        resabs = half * (np.abs(y) * _WK).sum(axis=1)
        self.lo = np.concatenate([self.lo, self.new_lo])
        self.hi = np.concatenate([self.hi, self.new_hi])
        self.val = np.concatenate([self.val, val])
        self.err = np.concatenate([self.err, np.abs(val - gauss)])
        self.resabs = np.concatenate([self.resabs, resabs])
        self.new_lo = self.new_hi = None

    def step(self, b: float, spec: QuadratureSpec, tail_guard: bool, index: int):
        """Return the integral if it meets the tolerance; otherwise queue the
        bisected panels and return None."""
        total = float(self.val.sum())
        total_err = float(self.err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        tail_bad = False
        if tail_guard:
            # Panel adjacent to the mapped point at infinity must carry less
            # than the overall tolerance (or INFINITE_TAIL_MASS of the total)
            # before we trust the estimate.
            tail = self.hi == b
            tail_mass = float(self.resabs[tail].sum())
            bound = max(tol, INFINITE_TAIL_MASS * float(self.resabs.sum()) + spec.abs_tol)
            tail_bad = tail_mass > bound
        if total_err <= tol and not tail_bad:
            return total
        split = self.err > tol / (2.0 * len(self.val))
        if tail_bad:
            split |= self.hi == b
        if not split.any():
            split = self.err >= 0.5 * self.err.max()
        self.n_splits += int(split.sum())
        if self.n_splits > spec.max_subdivisions:
            raise QuadratureError("quadrature failed to converge within max_subdivisions",
                                  total, total_err, index)
        mids = 0.5 * (self.lo[split] + self.hi[split])
        self.new_lo = np.concatenate([self.lo[split], mids])
        self.new_hi = np.concatenate([mids, self.hi[split]])
        keep = ~split
        self.lo, self.hi = self.lo[keep], self.hi[keep]
        self.val, self.err, self.resabs = self.val[keep], self.err[keep], self.resabs[keep]
        return None


def _adaptive(f, a: float, b: float, n: int, spec: QuadratureSpec,
              tail_guard: bool = False) -> np.ndarray:
    """Adaptive Gauss-Kronrod for ``n`` integrals over [a, b] in lockstep.

    Each integral keeps its own panels, splits and stopping test, exactly as
    if it ran alone; only the integrand calls are shared, one per round over
    the waiting panels of every integral still running.
    """
    out = np.empty(n)
    running = {i: _Panels(a, b) for i in range(n)}
    while running:
        xs, which = [], []
        for i, panels in running.items():
            mid = 0.5 * (panels.new_lo + panels.new_hi)
            half = 0.5 * (panels.new_hi - panels.new_lo)
            xs.append((mid[:, None] + half[:, None] * _XK[None, :]).ravel())
            which.append(np.full(xs[-1].size, i))
        x = np.concatenate(xs)
        y = np.asarray(f(x, np.concatenate(which)), dtype=float).reshape(x.shape)
        if not np.all(np.isfinite(y)):
            bad = x[~np.isfinite(y)][0]
            raise ValueError(f"integrand returned a non-finite value near x={bad!r}")
        start = 0
        for panels, xi in zip(running.values(), xs):
            panels.add(y[start:start + xi.size].reshape(-1, _XK.size))
            start += xi.size
        for i in list(running):
            total = running[i].step(b, spec, tail_guard, i)
            if total is not None:
                out[i] = total
                del running[i]
    return out


def integrate_many(f: Callable, a: float, b: float, n: int,
                   spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integrate ``n`` vectorized real functions over the same [a, b].

    ``f(x, which)`` receives a 1-D ndarray of abscissae and an equally long
    integer array naming the integral (0 .. n-1) each abscissa belongs to,
    and returns the integrand values.  Every integral runs the same adaptive
    rule as :func:`integrate_1d` and gets the same result it would get alone;
    the batching only lets ``f`` share work between integrals that ask for
    the same abscissa.  Returns an ndarray of the ``n`` integrals.

    The range is ``a <= b`` with ``a`` finite and ``b`` finite or ``+inf``;
    any other range (reversed, ``-inf`` or NaN bounds) raises ``ValueError``.
    ``[a, inf)`` is mapped to [0, 1) with ``x = a + t/(1 - t)``, so
    adaptivity is preserved near ``a``.  Integrable endpoint singularities
    are allowed (the Kronrod nodes are interior).
    """
    spec = spec or QuadratureSpec()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and a <= b):
        raise ValueError(f"integration range [{a!r}, {b!r}]: need a finite a <= b, "
                         "with b finite or +inf")
    if n < 0:
        raise ValueError("the number of integrals must be nonnegative")
    if a == b or n == 0:
        return np.zeros(n)
    if math.isinf(b):
        def mapped(t, which):
            one_m = 1.0 - t
            return f(a + t / one_m, which) / one_m**2
        return _adaptive(mapped, 0.0, 1.0, n, spec, tail_guard=True)
    return _adaptive(f, a, b, n, spec)


def integrate_1d(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None) -> float:
    """Integrate a vectorized real function over [a, b].

    The one-integral case of :func:`integrate_many` (see there for the
    accepted ranges and endpoint singularities).
    """
    return float(integrate_many(lambda x, _which: f(x), a, b, 1, spec)[0])


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
