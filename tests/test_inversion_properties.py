"""Properties of the batched double-exponential inversion routes.

A point's value must not depend on the rest of its batch, and halving the
steps of the Fourier rule and of the polar integral's log-u panels (the
d = 2 route) must leave every value in place.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geostable.stable_kernel as sk
import geostable.levy_structure as ls
from geostable import ProcessSpec, cdf_numeric, density_inversion
from geostable.transition_density import density_gamma_mixture

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# alpha, dim and a margin t - d/alpha above the integrability threshold; the
# d = 1 CDF runs at t = margin, which is below d/alpha in many cases
cases = st.tuples(st.sampled_from([0.5, 1.0, 1.5, 1.9, 2.0]), st.sampled_from([1, 2, 3]),
                  st.floats(0.05, 3.0))
radii = st.lists(st.floats(-3.0, 1.5).map(lambda e: 10.0 ** e), min_size=1, max_size=12)


def _points(dim, rs, rnd):
    """Points of norm rs in random directions; rs keeps signs for d = 1."""
    if dim == 1:
        return np.array([r if rnd.random() < 0.5 else -r for r in rs])
    dirs = np.array([[rnd.choice([-1.0, 1.0])] + [rnd.uniform(-1.0, 1.0) for _ in range(dim - 1)]
                     for _ in rs])
    return np.array(rs)[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@PROPERTY
@given(cases, radii, st.randoms(use_true_random=False))
def test_batch_is_bit_equal_to_single_points(case, rs, rnd):
    alpha, dim, margin = case
    spec, t = ProcessSpec(alpha, dim), dim / alpha + margin
    batch = rs + rnd.sample(rs, k=len(rs) // 2) + [0.0]
    rnd.shuffle(batch)
    pts = _points(dim, batch, rnd)
    single = [density_inversion(spec, t, p) for p in pts]
    assert all(type(v) is float for v in single)
    assert np.array_equal(density_inversion(spec, t, pts), single)
    if dim == 1:
        assert np.array_equal(cdf_numeric(spec, margin, pts), [cdf_numeric(spec, margin, x) for x in pts])


@PROPERTY
@given(cases, radii, st.randoms(use_true_random=False))
def test_halving_the_steps_moves_no_value(case, rs, rnd):
    alpha, dim, margin = case
    spec, t = ProcessSpec(alpha, dim), dim / alpha + margin
    pts = _points(dim, rs, rnd)
    p = density_inversion(spec, t, pts)
    f = cdf_numeric(spec, margin, pts) if dim == 1 else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sk, "_DE_H", sk._DE_H / 2.0)
        mp.setattr(ls, "_LOG_PANEL", ls._LOG_PANEL / 2.0)
        assert np.max(np.abs(density_inversion(spec, t, pts) - p)) <= 1e-12
        if dim == 1:
            assert np.max(np.abs(cdf_numeric(spec, margin, pts) - f)) <= 1e-12


@PROPERTY
@given(st.sampled_from([0.3, 0.999, 1.001, 1.999]),
       st.one_of(st.sampled_from([-1e-6, 0.0, 1e-6]), st.floats(-1e-3, 1e-3)),
       st.lists(st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e), min_size=1, max_size=12))
def test_near_threshold_values_match_polar_integral(alpha, offset, rs):
    # d = 3 and t = (1 + offset) d/alpha: just below, at and just above the
    # threshold, where (1 + r^alpha)^(-t) stops being integrable
    spec, t, r = ProcessSpec(alpha, 3), (1.0 + offset) * 3.0 / alpha, np.array(rs)
    got = density_inversion(spec, t, np.c_[r, np.zeros((r.size, 2))])
    assert np.all(np.isfinite(got) & (got > 0.0))
    assert np.max(np.abs(got / density_gamma_mixture(spec, t, r) - 1.0)) < 1e-8
