"""Property test: the linearly binned d = 1 KDE against a direct Gaussian sum.

Linear binning evaluates each sample's kernel by linear interpolation between
two lattice nodes, so every value must lie within the header's
binning_error_bound of the sum over the samples themselves.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

import geostable.transition_density as td

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# a bulk of normal draws (location, scale, size, seed) and a few far or infinite outliers
bulks = st.tuples(st.floats(-50.0, 50.0), st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
                  st.integers(1, 2000), st.integers(0, 2 ** 32 - 1))
outliers = st.lists(st.sampled_from([math.inf, -math.inf, 1e300, -1e300, 1e12, -3e4])
                    | st.floats(-200.0, 200.0), max_size=6)
grids = st.lists(st.floats(-60.0, 60.0) | st.sampled_from([math.inf, -math.inf]), max_size=24)
bandwidths = st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e)


def _direct_kde(samples, grid, bw):
    """(n sqrt(2 pi) bw)^(-1) sum_i exp(-(x - X_i)^2 / (2 bw^2)); 0 at infinite x."""
    out = np.zeros(grid.size)
    for i, x in enumerate(grid):
        if np.isfinite(x):
            with np.errstate(over="ignore"):  # |x - X_i| / bw past 1e154: the term is 0
                z = (x - samples) / bw
                out[i] = np.exp(-0.5 * z * z).sum()
    return out / (samples.size * math.sqrt(2.0 * math.pi) * bw)


@PROPERTY
@given(bulks, outliers, grids, bandwidths)
def test_binned_kde_is_within_its_bound_of_the_direct_sum(bulk, far, grid, bw):
    loc, scale, size, seed = bulk
    samples = np.concatenate([loc + scale * np.random.default_rng(seed).standard_normal(size), far])
    grid = np.array(grid, dtype=float)
    centres, weights = td._linear_bins(samples, grid, bw)
    assert np.all(weights >= 0) and weights.sum() <= samples.size * (1.0 + 1e-12)
    got = (td._kernel_sums(grid[:, None], centres[:, None], weights, bw)
           / (samples.size * math.sqrt(2.0 * math.pi) * bw))
    want = _direct_kde(samples, grid, bw)
    bound = td._binning_error_bound(bw, bw / td._BINS_PER_BW)
    # interpolation reaches at most (1 - O((delta/bw)^2)) times the bound, and
    # that margin of about 2e-4 relative covers rounding
    assert np.all(np.abs(got - want) <= bound), (np.abs(got - want).max(), bound)
    assert np.all(got[~np.isfinite(grid)] == 0.0)


def test_binning_drops_only_samples_whose_kernel_is_zero():
    # exp(-z^2 / 2) is subnormal but positive at z = 38.5 and exactly 0 past 38.6,
    # so a sample 38.5 bandwidths from the only grid point must still count
    bw, grid = 0.1, np.array([0.0])
    for z in (38.5, -38.5):
        centres, weights = td._linear_bins(np.array([z * bw]), grid, bw)
        assert td._kernel_sums(grid[:, None], centres[:, None], weights, bw)[0] > 0.0
        assert _direct_kde(np.array([z * bw]), grid, bw)[0] > 0.0
