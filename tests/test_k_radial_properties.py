"""Properties of the batched polar kernel k_radial.

Batch invariance, shapes and monotonicity run under hypothesis; agreement
with adaptive quadrature of the defining integral runs at fixed radii.
These stay out of the acceptance suite: one quad oracle costs ~40 ms.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from geostable import ProcessSpec, k_radial, radial_profile
from geostable.stable_kernel import _panel_nodes

from kanter_oracle import mixture_head

SPECS = [ProcessSpec(a, d) for a in (0.7, 1.0, 1.5, 2.0) for d in (1, 2, 3)]
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

specs = st.sampled_from(SPECS)
radii = st.lists(st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e), min_size=1, max_size=40)


@PROPERTY
@given(specs, radii, st.randoms(use_true_random=False))
def test_batch_invariance_under_shuffle_and_duplicates(spec, rs, rnd):
    batch = rs + rnd.sample(rs, k=len(rs) // 2)
    rnd.shuffle(batch)
    batched = k_radial(spec, np.array(batch))
    single = np.array([k_radial(spec, r) for r in batch])
    assert np.all(np.abs(batched - single) <= 1e-13 * np.abs(single))


@PROPERTY
@given(specs, radii)
def test_scalar_returns_float_and_arrays_keep_shape(spec, rs):
    assert type(k_radial(spec, rs[0])) is float
    assert type(k_radial(spec, np.float64(rs[0]))) is float
    grid = np.resize(np.array(rs), (2, 3))
    out = k_radial(spec, grid)
    assert out.shape == (2, 3)
    assert out[1, 2] == k_radial(spec, grid[1, 2])


@PROPERTY
@given(specs, radii)
def test_nonincreasing_on_sorted_radii(spec, rs):
    k = k_radial(spec, np.sort(rs))
    assert np.all(k[1:] <= k[:-1] + 1e-12 * k[:-1])  # the certificate's rounding slack


def test_rejects_nonpositive_radii():
    for bad in (0.0, -1.0, np.nan, np.array([1.0, 0.0])):
        with pytest.raises(ValueError):
            k_radial(ProcessSpec(1.5, 1), bad)


def _k_by_quad(spec, r):
    """alpha int_0^inf u^(d-1) q_1(u) e^(-(r/u)^alpha) du, split at the profile seams."""
    a, d = spec.alpha, spec.dim
    prof = radial_profile(a, d)
    f = lambda u: a * u ** (d - 1) * prof.density(u) * np.exp(-(r / u) ** a)
    seams = [0.0, 2.0, prof.tail_start, np.inf]
    return sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-10, limit=400)[0]
               for lo, hi in zip(seams[:-1], seams[1:]))


@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.999, 1.001, 1.3, 1.9])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_matches_adaptive_quad_of_definition(alpha, dim):
    spec = ProcessSpec(alpha, dim)
    rs = np.array([0.01, 0.5, 5.0])
    want = np.array([_k_by_quad(spec, r) for r in rs])
    assert np.max(np.abs(k_radial(spec, rs) / want - 1.0)) < 1e-8


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sub_one_kernel_matches_spline_free_oracle(dim):
    # the head integral straight from the Kanter mixture on a fine log-u grid,
    # no spline: uniform core knots on [0, 2] once put k 1.7e-7 off here
    a = 0.5
    prof = radial_profile(a, dim)
    u, w = _panel_nodes(np.geomspace(1e-12, prof.tail_start, 801))
    g = a * u ** (dim - 1) * mixture_head(a, dim)(u) * w
    rs = np.array([0.01, 0.5, 5.0])
    want = [float(g @ np.exp(-(r / u) ** a))
            + quad(lambda v: a * v ** (dim - 1) * prof.density(v) * np.exp(-(r / v) ** a),
                   prof.tail_start, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for r in rs]
    assert np.max(np.abs(k_radial(ProcessSpec(a, dim), rs) / want - 1.0)) < 1e-10
