"""process_core.CubicHermite against scipy's CubicSpline.

The library keeps scipy.interpolate out of its import; the tests use it as
the oracle.  Both share the coefficients and the order of evaluation, so the
bars are at rounding level.  CubicHermite takes uniform knots only.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from geostable import ProcessSpec, k_radial
from geostable.process_core import CubicHermite
from geostable.stable_kernel import StableRadialProfile, _radial_inversion

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _between_and_beyond(x, per_piece=3):
    """Points inside every piece, the knots themselves, and a little past both ends."""
    frac = (np.arange(per_piece) + 0.5) / per_piece
    inside = (x[:-1, None] + np.diff(x)[:, None] * frac).ravel()
    reach = 0.25 * (x[-1] - x[0])
    return np.concatenate([[x[0] - reach], inside, x, [x[-1] + reach]])


@pytest.mark.parametrize("alpha, dim", [(0.5, 1), (1.5, 1), (1.5, 3)])
def test_profile_spline_matches_cubicspline(alpha, dim):
    # the profile's own grid, uniform in v, clamped flat at v = 0, not-a-knot at the end
    prof = StableRadialProfile(alpha, dim)
    v = np.linspace(0.0, math.asinh(prof.tail_start / prof._scale), 481 if alpha < 1.0 else 321)
    y = np.log(_radial_inversion(alpha, None, dim, prof._scale * np.sinh(v)))
    want = CubicSpline(v, y, bc_type=((1, 0.0), "not-a-knot"))
    w = _between_and_beyond(v)
    ours = CubicHermite.spline(v, y, 0.0)
    np.testing.assert_allclose(ours(w), want(w), rtol=1e-13, atol=0.0)
    u = prof._scale * np.sinh(w[(w >= 0.0) & (w < v[-1])])
    np.testing.assert_allclose(prof.density(u), np.exp(want(np.arcsinh(u / prof._scale))),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_lag_spline_matches_cubicspline(alpha):
    # the lag table's grid: logs of 1400 geometric radii, not-a-knot at both ends
    h, n = 1.0 / 64.0, 16384
    nodes = np.geomspace(h / 4.0, 65 * n * h, 1400)
    jv = k_radial(ProcessSpec(alpha, 1), nodes) / nodes
    keep = jv > 1e-290
    x, y = np.log(nodes[keep]), np.log(jv[keep])
    ours, want = CubicHermite.spline(x, y), CubicSpline(x, y)
    w = _between_and_beyond(x)
    np.testing.assert_allclose(ours(w), want(w), rtol=1e-13, atol=1e-13 * np.max(np.abs(y)))


def _knots(draw_spacings):
    """Uniform knots from -3 over the drawn spacings' total."""
    return np.linspace(-3.0, sum(draw_spacings) - 3.0, len(draw_spacings) + 1)


spacings = st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=40)
values = st.floats(-1e3, 1e3)


@PROPERTY
@given(spacings, st.data(), st.one_of(st.none(), st.floats(-50.0, 50.0)))
def test_spline_matches_cubicspline_property(gaps, data, left):
    x = _knots(gaps)
    y = np.array(data.draw(st.lists(values, min_size=x.size, max_size=x.size)))
    want = CubicSpline(x, y, bc_type=("not-a-knot" if left is None else (1, left), "not-a-knot"))
    ours = CubicHermite.spline(x, y, left)
    w = _between_and_beyond(x)
    scale = np.max(np.abs(want(w))) + 1.0
    np.testing.assert_allclose(ours(w), want(w), rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize("x", [
    np.geomspace(1.0, 10.0, 12),  # increasing, like sample quantiles
    np.linspace(0.0, 1.0, 12) + 1e-9 * np.eye(12)[5],  # one knot off by 1.1e-8 of a spacing
    np.linspace(1.0, 0.0, 12),  # uniform, but decreasing
], ids=["geometric", "one-knot-off", "decreasing"])
def test_spline_refuses_non_uniform_knots(x):
    with pytest.raises(ValueError, match="uniform"):
        CubicHermite.spline(x, np.sin(x))
