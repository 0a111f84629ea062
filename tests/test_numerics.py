import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmwcov import numerics
from mmwcov.numerics import (
    NonFiniteIntegrandError,
    QuadratureError,
    QuadratureSpec,
    integrate_1d,
    integrate_many,
)
from analytic_oracle import _leggauss, exp_derivatives
from field_oracle import integrate_2d


class TestIntegrate1d:
    def test_constant(self):
        assert integrate_1d(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_unit_exponential_mass(self):
        assert integrate_1d(lambda x: np.exp(-x), 0.0, np.inf) == pytest.approx(1.0, rel=1e-8)

    def test_gaussian_moment(self):
        val = integrate_1d(lambda x: x * np.exp(-x * x), 0.0, np.inf)
        assert val == pytest.approx(0.5, rel=1e-8)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match=r"range \[1\.0, 0\.0\]"):
            integrate_1d(lambda x: x**2, 1.0, 0.0)

    def test_doubly_infinite(self):
        with pytest.raises(ValueError, match=r"range \[-inf, inf\]"):
            integrate_1d(lambda x: np.exp(-x * x), -np.inf, np.inf)

    def test_endpoint_singularity(self):
        # integrable 1/sqrt singularity
        val = integrate_1d(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_nonconvergence_carries_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=8)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_1d(lambda x: np.sqrt(np.abs(np.sin(50.0 * x))), 0.0, 3.0, spec)
        err = excinfo.value
        assert 0.0 < err.estimate < 3.0
        assert err.error_bound > 0.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    @settings(max_examples=25, deadline=None)
    @given(
        coeffs_f=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
        coeffs_g=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
        alpha=st.floats(-5, 5),
        beta=st.floats(-5, 5),
    )
    def test_linearity(self, coeffs_f, coeffs_g, alpha, beta):
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
        f = np.polynomial.Polynomial(coeffs_f)
        g = np.polynomial.Polynomial(coeffs_g)
        combined = integrate_1d(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, spec)
        parts = alpha * integrate_1d(f, 0.0, 2.0, spec) + beta * integrate_1d(g, 0.0, 2.0, spec)
        assert combined == pytest.approx(parts, rel=1e-8, abs=1e-8)


def _reference_adaptive(f, a, b, spec, tail_guard=False):
    """The one-integral adaptive rule as it stood before integrals could run
    in lockstep: the oracle for integrate_1d."""
    def panels(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * numerics._XK[None, :]
        y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        val = half * (y * numerics._WK).sum(axis=1)
        gauss = half * (y * numerics._WG).sum(axis=1)
        resabs = half * (np.abs(y) * numerics._WK).sum(axis=1)
        return val, np.abs(val - gauss), resabs

    lo, hi = np.array([a]), np.array([b])
    val, err, resabs = panels(lo, hi)
    n_splits = 0
    while True:
        total = float(val.sum())
        total_err = float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        tail_bad = False
        if tail_guard:
            tail_mass = float(resabs[hi == b].sum())
            bound = max(tol, numerics.INFINITE_TAIL_MASS * float(resabs.sum()) + spec.abs_tol)
            tail_bad = tail_mass > bound
        if total_err <= tol and not tail_bad:
            return total
        split = err > tol / (2.0 * len(val))
        if tail_bad:
            split |= hi == b
        if not split.any():
            split = err >= 0.5 * err.max()
        n_splits += int(split.sum())
        if n_splits > spec.max_subdivisions:
            raise QuadratureError("no convergence", total, total_err)
        mids = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mids])
        new_hi = np.concatenate([mids, hi[split]])
        new_val, new_err, new_resabs = panels(new_lo, new_hi)
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        val = np.concatenate([val[~split], new_val])
        err = np.concatenate([err[~split], new_err])
        resabs = np.concatenate([resabs[~split], new_resabs])


def _reference_semi_infinite(f, a, spec):
    def mapped(t):
        one_m = 1.0 - t
        return f(a + t / one_m) / one_m**2
    return _reference_adaptive(mapped, 0.0, 1.0, spec, tail_guard=True)


# Integrands that need very different numbers of rounds: a constant, smooth
# bumps of growing sharpness, and an oscillation.
FAMILY = (
    lambda x: np.ones_like(x),
    lambda x: np.exp(-x),
    lambda x: 1.0 / (1e-2 + (x - 0.3) ** 2),
    lambda x: 1.0 / (1e-5 + (x - 0.7) ** 2),
    lambda x: np.sqrt(np.abs(np.sin(20.0 * x))),
)


def _batched(family):
    def f(x, which):
        out = np.empty_like(x)
        for k, g in enumerate(family):
            out[which == k] = g(x[which == k])
        return out
    return f


class TestIntegrateMany:
    def _rounds(self, f, a, b, spec):
        calls = []
        integrate_1d(lambda x: calls.append(x.size) or f(x), a, b, spec)
        return len(calls)

    def test_integrate_1d_matches_the_single_integral_rule_bitwise(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
        for f in FAMILY:
            assert integrate_1d(f, 0.0, 2.0, spec) == _reference_adaptive(f, 0.0, 2.0, spec)
        for f in (lambda x: np.exp(-x), lambda x: x * np.exp(-x * x), lambda x: 1.0 / (1.0 + x**2)):
            assert integrate_1d(f, 0.5, math.inf, spec) == _reference_semi_infinite(f, 0.5, spec)

    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (0.0, math.inf)])
    def test_lockstep_equals_separate_calls_bitwise(self, a, b):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
        family = FAMILY if math.isfinite(b) else (
            lambda x: np.exp(-x * x), lambda x: 1.0 / (1.0 + x**2),
            lambda x: np.exp(-np.abs(x - 0.3)) * (1.0 + np.cos(5.0 * x) ** 2),
            lambda x: 1.0 / (1e-3 + (x - 0.2) ** 2) / (1.0 + x**2))
        seen = []

        def batched(x, which):
            assert x.shape == which.shape and which.dtype.kind == "i"
            seen.append(np.unique(which).size)
            out = np.empty_like(x)
            for k, f in enumerate(family):
                out[which == k] = f(x[which == k])
            return out

        together = integrate_many(batched, a, b, len(family), spec)
        alone = [integrate_1d(f, a, b, spec) for f in family]
        assert together.tolist() == alone
        # the integrals finish in different rounds, so later calls hold fewer
        assert seen[0] == len(family) and min(seen) < len(family)
        if math.isfinite(b):
            assert len({self._rounds(f, a, b, spec) for f in family}) > 2

    def test_empty_and_degenerate_ranges(self):
        def never(x, which):
            raise AssertionError("integrand must not be called")

        assert integrate_many(never, 0.0, 1.0, 0).shape == (0,)
        assert integrate_many(never, 1.0, 1.0, 3).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            integrate_many(never, math.nan, 1.0, 2)

    @pytest.mark.parametrize("a,b", [(2.0, 0.0), (-math.inf, 0.5), (-math.inf, math.inf),
                                     (0.0, -math.inf), (math.inf, math.inf), (math.nan, 1.0),
                                     (0.0, math.nan)])
    def test_unsupported_ranges_name_the_range(self, a, b):
        # only a finite a <= b, with b finite or +inf, is a range
        def never(x, which):
            raise AssertionError("integrand must not be called")

        with pytest.raises(ValueError, match=rf"range \[{re.escape(repr(a))}, "
                                             rf"{re.escape(repr(b))}\]"):
            integrate_many(never, a, b, 2)

    def test_failure_names_the_integral(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=8)
        family = (lambda x: np.ones_like(x), lambda x: x,
                  lambda x: np.sqrt(np.abs(np.sin(50.0 * x))))
        with pytest.raises(QuadratureError) as excinfo:
            integrate_many(_batched(family), 0.0, 3.0, 3, spec)
        assert excinfo.value.index == 2
        assert 0.0 < excinfo.value.estimate < 3.0
        with pytest.raises(QuadratureError) as excinfo:
            integrate_1d(family[2], 0.0, 3.0, spec)
        assert excinfo.value.index == 0


def _peak(width, centre):
    """Lorentzian of half-width ``width`` at ``centre``."""
    return lambda x: width / ((x - centre) ** 2 + width**2)


def _reference_trace(f, a, b, spec):
    """Result of the single-integral oracle, the panel count of each of its
    rounds (every round after the first adds one panel per split, and a
    split makes two new panels of 15 abscissae) and the abscissae of each
    round."""
    xs = []

    def counted(x):
        xs.append(x.copy())
        return f(x)

    if math.isinf(b):
        value = _reference_semi_infinite(counted, a, spec)
    else:
        value = _reference_adaptive(counted, a, b, spec)
    return value, 1 + np.cumsum([0] + [x.size // 30 for x in xs[1:]]), xs


class TestFlatPanelTable:
    """Many integrals that need different panel counts and rounds, run in one
    lockstep call, each against the single-integral oracle."""

    SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)

    @staticmethod
    def _family(a, b):
        rng = np.random.default_rng(17)
        widths = 10.0 ** rng.uniform(-5.0, -1.0, 110)
        if math.isfinite(b):
            centres = rng.uniform(a, b, widths.size)
            extra = (lambda x: np.ones_like(x), lambda x: np.exp(-x),
                     lambda x: np.sqrt(np.abs(np.sin(20.0 * x))))
        else:
            # peaks out to x = 20, decays the tail guard has to follow
            centres = a + rng.uniform(0.0, 20.0, widths.size)
            extra = (lambda x: np.exp(-x), lambda x: 1.0 / (1.0 + x**2),
                     lambda x: x * np.exp(-x * x), lambda x: (1.0 + x) ** -3)
        return [_peak(w, c) for w, c in zip(widths, centres)] + list(extra)

    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (0.5, math.inf)])
    def test_every_integral_equals_its_oracle_bitwise(self, a, b):
        family = self._family(a, b)
        calls = []
        f = _batched(family)
        together = integrate_many(lambda x, which: calls.append(x.copy()) or f(x, which),
                                  a, b, len(family), self.SPEC)
        traces = [_reference_trace(g, a, b, self.SPEC) for g in family]
        assert together.tolist() == [value for value, _, _ in traces]
        rounds = [counts.size for _, counts, _ in traces]
        # one integrand call per round of the slowest integral, holding the
        # abscissae of each running integral's own round in integral order
        assert len(calls) == max(rounds)
        for r, x in enumerate(calls):
            expected = np.concatenate([xs[r] for _, _, xs in traces if len(xs) > r])
            assert np.array_equal(x, expected)
        assert len(set(rounds)) > 5
        # some round holds integrals of at most 8 panels next to integrals of
        # more than 8: numpy's pairwise sum changes its blocking at 8
        mixed = [r for r in range(max(rounds))
                 if min(c[r] for _, c, _ in traces if c.size > r) <= 8
                 < max(c[r] for _, c, _ in traces if c.size > r)]
        assert mixed

    def test_failure_carries_the_failing_integrals_own_state(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=40)
        family = [_peak(10.0 ** -(1 + k % 3), 0.1 + 0.013 * k) for k in range(100)]
        family[63] = lambda x: np.sqrt(np.abs(np.sin(50.0 * x)))
        for k, g in enumerate(family):
            if k != 63:
                _reference_adaptive(g, 0.0, 2.0, spec)   # converges alone
        with pytest.raises(QuadratureError) as alone:
            _reference_adaptive(family[63], 0.0, 2.0, spec)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_many(_batched(family), 0.0, 2.0, len(family), spec)
        assert excinfo.value.index == 63
        assert excinfo.value.estimate == alone.value.estimate
        assert excinfo.value.error_bound == alone.value.error_bound


class TestSilentMiss:
    """A first Kronrod panel that sees none of the mass also estimates a zero
    error, so the result "converges" to 0.  Breakpoints, passed by callers
    that know where their integrand lives, are the planned mend; until then
    these fail."""

    @pytest.mark.xfail(strict=True, reason="no breakpoints yet: the first panel misses the peak")
    def test_narrow_gaussian(self):
        val = integrate_1d(lambda x: np.exp(-((x - 0.731) / 1e-4) ** 2), 0.0, 1.0)
        assert val == pytest.approx(1e-4 * math.sqrt(math.pi), rel=1e-6)

    @pytest.mark.xfail(strict=True, reason="no breakpoints yet: the first panel misses the bump")
    def test_far_bump(self):
        val = integrate_1d(lambda x: np.exp(-((x - 3e4) / 100.0) ** 2), 0.0, math.inf)
        assert val == pytest.approx(100.0 * math.sqrt(math.pi), rel=1e-6)


class TestRanges:
    """Per-integral ranges of integrate_many."""

    SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)

    def test_each_range_equals_its_integral_alone_bitwise(self):
        family = [_peak(10.0 ** -(1 + k % 4), 0.3 + 0.1 * k) for k in range(12)]
        a = np.linspace(0.0, 1.1, 12)
        b = np.where(np.arange(12) % 3 == 2, math.inf, a + 0.5 + 0.1 * np.arange(12))
        together = integrate_many(_batched(family), a, b, len(family), self.SPEC)
        alone = [integrate_1d(f, lo, hi, self.SPEC) for f, lo, hi in zip(family, a, b)]
        assert together.tolist() == alone

    def test_scalar_ranges_keep_their_bits(self):
        tails = (lambda x: np.exp(-x), lambda x: 1.0 / (1.0 + x**2), lambda x: (1.0 + x) ** -3)
        for b, family in ((2.0, FAMILY), (math.inf, tails)):
            f, n = _batched(family), len(family)
            scalar = integrate_many(f, 0.25, b, n, self.SPEC)
            arrays = integrate_many(f, np.full(n, 0.25), np.full(n, b), n, self.SPEC)
            assert scalar.tolist() == arrays.tolist()

    def test_zero_width_ranges_are_zero_and_never_evaluated(self):
        seen = []

        def f(x, which):
            seen.extend(set(which.tolist()))
            return np.exp(-x)

        out = integrate_many(f, [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, math.inf, 3.0], 4)
        assert out[[1, 3]].tolist() == [0.0, 0.0]
        assert out[[0, 2]] == pytest.approx([1.0 - math.exp(-1.0), math.exp(-2.0)], rel=1e-9)
        assert set(seen) == {0, 2}

    def test_a_failing_integral_is_named_among_all(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=8)
        family = (lambda x: np.ones_like(x), lambda x: np.sqrt(np.abs(np.sin(50.0 * x))),
                  lambda x: x)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_many(_batched(family), [0.0, 1.0, 0.0], [0.0, 3.0, 3.0], 3, spec)
        assert excinfo.value.index == 1

    def test_a_non_finite_integral_is_named_among_all(self):
        # integral 0 has zero width and is never run, so the failing one is
        # the second that runs
        family = (lambda x: x, lambda x: np.exp(-x),
                  lambda x: np.where(x > 2.0, np.nan, 1.0 / (1.0 + x * x)))
        with pytest.raises(NonFiniteIntegrandError,
                           match=r"^integrand returned a non-finite value near x=") as excinfo:
            integrate_many(_batched(family), [1.0, 0.0, 0.0], [1.0, 1.0, 3.0], 3)
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.index == 2

    def test_a_non_finite_value_on_a_mapped_range_names_its_abscissa(self):
        # on [0, inf) the integrator runs in t = x / (1 + x); the error names x
        with pytest.raises(NonFiniteIntegrandError) as excinfo:
            integrate_1d(lambda x: np.where(x > 5.0, np.nan, 1.0 / (1.0 + x * x)), 0.0, math.inf)
        at = float(re.search(r"near x=(\S+)", str(excinfo.value)).group(1))
        assert at > 5.0

    @pytest.mark.parametrize("a,b", [([0.0, 2.0], [1.0, 0.0]), ([0.0, -math.inf], [1.0, 0.0]),
                                     ([0.0, 0.0], [1.0, math.nan])])
    def test_a_bad_range_is_named(self, a, b):
        def never(x, which):
            raise AssertionError("integrand must not be called")

        with pytest.raises(ValueError, match=rf"range \[{re.escape(repr(a[1]))}, "
                                             rf"{re.escape(repr(b[1]))}\]"):
            integrate_many(never, a, b, 2)

    def test_bad_shapes_are_refused(self):
        def never(x, which):
            raise AssertionError("integrand must not be called")

        with pytest.raises(ValueError, match="for 3 integrals"):
            integrate_many(never, [0.0, 0.0], 1.0, 3)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [8, 10, 12, 16, 96])
    def test_matches_leggauss(self, n):
        x, w = numerics.gauss_legendre(n)
        x_ref, w_ref = _leggauss(n)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=2e-16)
        np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 96])
    def test_exact_up_to_degree_2n_minus_1(self, n):
        x, w = numerics.gauss_legendre(n)
        for d in range(2 * n):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(w @ x**d - exact) < 1e-14, d


class TestIntegrate2d:
    def test_unit_square(self):
        val = integrate_2d(lambda x, y: np.ones_like(y), 0.0, 1.0, 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_disk_area(self):
        val = integrate_2d(lambda phi, r: r, 0.0, 2.0 * math.pi, 0.0, 2.0)
        assert val == pytest.approx(math.pi * 4.0, rel=1e-8)

    def test_variable_inner_bound(self):
        # area of the triangle 0 <= y <= x <= 1
        val = integrate_2d(lambda x, y: np.ones_like(y), 0.0, 1.0, 0.0, lambda x: x)
        assert val == pytest.approx(0.5, rel=1e-8)

    def test_linearity(self):
        f = lambda x, y: x * y
        g = lambda x, y: np.exp(-x - y)
        lhs = integrate_2d(lambda x, y: 2.0 * f(x, y) - 3.0 * g(x, y), 0.0, 1.0, 0.0, 1.0)
        rhs = (2.0 * integrate_2d(f, 0.0, 1.0, 0.0, 1.0)
               - 3.0 * integrate_2d(g, 0.0, 1.0, 0.0, 1.0))
        assert lhs == pytest.approx(rhs, rel=1e-7)


def _pure_noise_exponent(s, k_max):
    """[F, F', ..., F^(k_max)] of F(s) = -s."""
    s = np.asarray(s, dtype=float)
    return [-s, -np.ones_like(s), np.zeros_like(s), np.zeros_like(s)][:k_max + 1]


class TestLaplaceDerivatives:
    def test_pure_exponential(self):
        out = exp_derivatives(_pure_noise_exponent(1.0, 1), 1.0)
        assert out[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert out[1] == pytest.approx(-math.exp(-1.0), rel=1e-14)

    def test_zero_exponent(self):
        out = exp_derivatives([np.zeros(()), np.zeros(()), np.zeros(())], 2.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_k_zero_is_plain_value(self):
        out = np.stack(exp_derivatives(_pure_noise_exponent(0.7, 0), 0.7))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(math.exp(-0.7), rel=1e-14)

    def test_vectorized_s(self):
        s = np.array([0.5, 1.0, 2.0])
        out = np.stack(exp_derivatives(_pure_noise_exponent(s, 2), s))
        assert out.shape == (3, 3)
        np.testing.assert_allclose(out[0], np.exp(-s))

    def test_against_finite_differences(self):
        # F(s) = -a s / (1 + b s) has simple closed derivatives
        a, b = 2.0, 0.7

        def f(s):
            s = np.asarray(s, dtype=float)
            return -a * s / (1.0 + b * s)

        def f1(s):
            s = np.asarray(s, dtype=float)
            return -a / (1.0 + b * s) ** 2

        def f2(s):
            s = np.asarray(s, dtype=float)
            return 2.0 * a * b / (1.0 + b * s) ** 3

        for s in (0.2, 1.0, 3.0):
            h = 1e-5 * s
            val = exp_derivatives([f(s), f1(s), f2(s)], s)
            lp = (math.exp(f(s + h)) - math.exp(f(s - h))) / (2.0 * h)
            lpp = (math.exp(f(s + h)) - 2.0 * math.exp(f(s)) + math.exp(f(s - h))) / h**2
            assert val[1] == pytest.approx(lp, rel=1e-6)
            assert val[2] == pytest.approx(lpp, rel=1e-4)

    def test_noise_shift(self):
        # exp(F(s) - shift s) with F(s) = -a s: every derivative is
        # (-(a + shift))^k times the value
        a, shift = 1.5, 0.25
        s = np.array([0.3, 1.0, 4.0])
        levels = exp_derivatives([-a * s, np.full(3, -a), np.zeros(3), np.zeros(3)], s, shift)
        for k, level in enumerate(levels):
            np.testing.assert_allclose(level, (-(a + shift)) ** k * np.exp(-(a + shift) * s),
                                       rtol=1e-14)
