"""process_core.CubicHermite against scipy's CubicSpline and PchipInterpolator.

The library keeps scipy.interpolate out of its import; the tests use it as
the oracle.  Both share the coefficients and the order of evaluation, so the
bars are at rounding level.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline, PchipInterpolator

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
    assert ours._step is not None  # the arithmetic path
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
    assert ours._step is not None
    w = _between_and_beyond(x)
    np.testing.assert_allclose(ours(w), want(w), rtol=1e-13, atol=1e-13 * np.max(np.abs(y)))


def _knots(draw_spacings, uniform):
    x = np.concatenate([[0.0], np.cumsum(draw_spacings)]) - 3.0
    return np.linspace(x[0], x[-1], x.size) if uniform else x


spacings = st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=40)
values = st.floats(-1e3, 1e3)


@PROPERTY
@given(spacings, st.booleans(), st.data(), st.one_of(st.none(), st.floats(-50.0, 50.0)))
def test_spline_matches_cubicspline_property(gaps, uniform, data, left):
    # random increasing knots take the bisection path, uniform ones the arithmetic path
    x = _knots(gaps, uniform)
    y = np.array(data.draw(st.lists(values, min_size=x.size, max_size=x.size)))
    want = CubicSpline(x, y, bc_type=("not-a-knot" if left is None else (1, left), "not-a-knot"))
    ours = CubicHermite.spline(x, y, left)
    if uniform:
        assert ours._step is not None
    w = _between_and_beyond(x)
    scale = np.max(np.abs(want(w))) + 1.0
    np.testing.assert_allclose(ours(w), want(w), rtol=1e-13, atol=1e-13 * scale)


def test_pchip_matches_scipy_on_flat_runs_turns_and_both_end_rules():
    # left end: the three-point slope (3 m0 - m1)/2 < 0 opposes m0 > 0, so it is 0;
    # right end: the data turn and the slope 6.5 exceeds 3 m0, so it is 3 m0 = 3;
    # inside, a flat run and a peak give zero slopes
    x = np.array([0.0, 1.0, 2.0, 2.5, 4.0, 5.0, 5.5, 7.0, 8.0, 9.0])
    y = np.array([0.0, 0.1, 1.0, 1.0, 1.0, 3.0, 2.0, 12.0, 2.0, 3.0])
    ours, want = CubicHermite.pchip(x, y), PchipInterpolator(x, y)
    assert ours._step is None
    w = _between_and_beyond(x, per_piece=7)
    np.testing.assert_allclose(ours(w), want(w), rtol=1e-15, atol=1e-15)
    slopes = ours._coef[1]
    assert slopes[0] == slopes[2] == slopes[3] == slopes[5] == 0.0
    c3, c2, c1, c0 = (c[-1] for c in ours._coef)
    s = x[-1] - x[-2]
    assert c2 + 2.0 * c1 * s + 3.0 * c0 * s * s == pytest.approx(3.0, rel=1e-14)


@PROPERTY
@given(spacings, st.data())
def test_pchip_matches_scipy_and_is_monotone_on_monotone_data(gaps, data):
    x = _knots(gaps, False)
    steps = data.draw(st.lists(st.just(0.0) | st.floats(0.0, 100.0),
                               min_size=x.size - 1, max_size=x.size - 1))
    y = np.concatenate([[0.0], np.cumsum(steps)])
    ours, want = CubicHermite.pchip(x, y), PchipInterpolator(x, y)
    w = np.sort(np.concatenate([np.linspace(x[0], x[-1], 1001), _between_and_beyond(x)[1:-1]]))
    got = ours(w)
    scale = y[-1] + 1.0
    np.testing.assert_allclose(got, want(w), rtol=1e-15, atol=1e-15 * scale)
    assert np.all(np.diff(got) >= -1e-14 * scale)
    assert got[0] == y[0] and abs(got[-1] - y[-1]) <= 1e-14 * scale
