import math

import numpy as np
import pytest

from mmwcov.radio import NetworkParams


@pytest.fixture(scope="session")
def params() -> NetworkParams:
    """Baseline scenario used throughout the suite."""
    return NetworkParams()


@pytest.fixture
def rng() -> np.random.Generator:
    # function-scoped so every test sees the same stream regardless of order
    return np.random.default_rng(1234)


def ks_distance(sorted_samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Exact Kolmogorov-Smirnov distance of sorted samples to a cdf."""
    n = sorted_samples.size
    idx = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(cdf_values - idx / n),
                                   np.abs(cdf_values - (idx - 1) / n))))


def batch_fields(density: float, radius: float, n_fields: int, seed: int):
    """Test-side Poisson-disk sampler, independent of the package internals.

    Returns (counts, starts, radii, azimuths) in flat segment layout; empty
    fields are kept (callers condition as their law requires).
    """
    gen = np.random.default_rng(seed)
    counts = gen.poisson(density * math.pi * radius**2, n_fields)
    total = int(counts.sum())
    r = radius * np.sqrt(gen.random(total))
    phi = 2.0 * math.pi * gen.random(total)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return counts, starts, r, phi


def sort_within_fields(values, counts):
    """``values`` in flat segment layout, sorted within each field.

    Sorts by value, then stably by field, the field index taken as two
    16-bit digits (numpy sorts 16-bit keys stably by radix): the same
    order as ``np.lexsort((values, field))``, in a third of its time.
    """
    assert counts.size <= 2**32
    field = np.repeat(np.arange(counts.size), counts)
    perm = np.argsort(values)
    for shift in (0, 16):
        digit = ((field[perm] >> shift) & 0xFFFF).astype(np.uint16)
        perm = perm[np.argsort(digit, kind="stable")]
    return values[perm]


def order_stat_per_field(sorted_values, counts, starts, order: int,
                         min_count: int | None = None):
    """The ``order``-th smallest value per field, over fields with at least
    ``min_count`` (default: ``order``) points, read from values already
    sorted within each field (:func:`sort_within_fields`)."""
    min_count = order if min_count is None else min_count
    ok = counts >= min_count
    return sorted_values[starts[ok] + order - 1]


def ecdf_2d(x, y, x_grid, y_grid):
    """Empirical joint cdf P(X <= a, Y <= b) evaluated on a grid."""
    hist, _, _ = np.histogram2d(x, y, bins=[x_grid, y_grid])
    cum = np.cumsum(np.cumsum(hist, axis=0), axis=1) / x.size
    return cum
