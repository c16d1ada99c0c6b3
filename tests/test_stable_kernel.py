import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import gamma

from geostable import (ConfigError, EmpiricalCdf, ProcessSpec, RngStream,
                       UnsupportedDimensionError, radial_profile, sample_gamma,
                       sample_increment, sample_stable, stable_density,
                       stable_density_radial)
from geostable import stable_kernel as sk
from geostable.acceptance import density_gamma_mixture
from geostable.stable_kernel import (StableRadialProfile, _fourier_head, _mixture_head,
                                     _sample_positive_stable, q1_at_zero)


def test_config_validation():
    spec = ProcessSpec(1.5, 1)
    assert (spec.alpha, spec.dim) == (1.5, 1)
    with pytest.raises(ValueError):
        ProcessSpec(2.5, 1)


def test_density_closed_form_points():
    assert abs(stable_density(ProcessSpec(2.0, 1), 1.0, 0.0)
               - (4.0 * math.pi) ** -0.5) < 1e-14
    assert abs(stable_density(ProcessSpec(1.0, 1), 1.0, 0.0) - 1.0 / math.pi) < 1e-14
    v = stable_density(ProcessSpec(1.5, 1), 1.0, 0.0)
    assert abs(v / (gamma(1.0 + 1.0 / 1.5) / math.pi) - 1.0) < 1e-9


def test_density_zero_radius_general():
    # q_1(0) = Gamma(d/alpha) / (alpha 2^(d-1) pi^(d/2) Gamma(d/2))
    for alpha, dim in ((0.7, 1), (1.2, 2), (1.7, 3)):
        spec = ProcessSpec(alpha, dim)
        got = stable_density(spec, 1.0, np.zeros(dim))
        want = gamma(dim / alpha) / (alpha * 2 ** (dim - 1) * math.pi ** (dim / 2) * gamma(dim / 2))
        assert abs(got / want - 1.0) < 1e-8


def test_scaling_identity():
    for alpha in (1.0, 2.0):
        spec = ProcessSpec(alpha, 1)
        for s in (0.2, 1.7, 9.0):
            for x in (0.0, 0.5, 3.0):
                direct = stable_density(spec, s, x)
                scaled = s ** (-1.0 / alpha) * stable_density(spec, 1.0, s ** (-1.0 / alpha) * x)
                assert abs(direct / scaled - 1.0) < 1e-10


def test_density_radial_symmetry():
    spec = ProcessSpec(1.5, 2)
    a = stable_density(spec, 1.0, [0.6, 0.8])
    b = stable_density(spec, 1.0, [1.0, 0.0])
    c = stable_density(spec, 1.0, [-0.8, 0.6])
    assert abs(a / b - 1.0) < 1e-9
    assert abs(c / b - 1.0) < 1e-9


def test_density_batch_matches_single_points():
    for dim in (1, 2, 3):
        spec = ProcessSpec(1.5, dim)
        x = np.random.default_rng(dim).normal(scale=2.0, size=(6, dim))
        batch = stable_density(spec, 0.7, x if dim > 1 else x[:, 0])
        assert batch.shape == (6,)
        assert np.array_equal(batch, [stable_density(spec, 0.7, p if dim > 1 else p[0]) for p in x])


def test_density_positive_and_normalized_d1():
    # grid mass on [-50, 50] plus the power-tail mass beyond: the tail holds
    # 2 sum_k c_k 50^{-k alpha} / (k alpha), which is 4.7% of the total at
    # alpha = 0.7 and still above 1e-4 at alpha = 1.8
    for alpha in (0.7, 1.2, 1.8):
        spec = ProcessSpec(alpha, 1)
        xs = np.linspace(-50.0, 50.0, 2001)
        vals = stable_density_radial(spec, 1.0, np.abs(xs))
        assert np.all(vals > 0)
        prof = radial_profile(alpha, 1)
        k = np.arange(1, len(prof.coeffs) + 1, dtype=float)
        tail = 2.0 * float(np.sum(prof.coeffs * 50.0 ** (-k * alpha) / (k * alpha)))
        mass = np.trapezoid(vals, xs) + tail
        assert abs(mass - 1.0) < 1e-4, (alpha, mass)


def test_profile_matches_direct_quadrature():
    for alpha, dim in ((1.5, 1), (0.7, 2), (1.9, 3)):
        prof = radial_profile(alpha, dim)
        us = np.array([0.05, 0.7, 1.9, 3.0, float(prof.tail_start) * 0.9])
        ref = _fourier_head(alpha, dim, us)
        assert np.max(np.abs(prof.density(us) / ref - 1.0)) < 5e-8


def test_unsupported_dimension_rejected():
    with pytest.raises(UnsupportedDimensionError):
        stable_density(ProcessSpec(1.5, 4), 1.0, np.zeros(4))
    with pytest.raises(ConfigError):
        radial_profile(0.2, 2)


@pytest.mark.parametrize("alpha", [0.5, 0.7])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mixture_profile_matches_fourier_head(alpha, dim):
    # the spline knots from u = 0 to tail_start carry the head's values, which
    # the oscillatory Fourier / Hankel quadrature checks independently
    prof = StableRadialProfile(alpha, dim)
    us = np.concatenate([np.linspace(0.0, prof._seam, 161)[::40],
                         np.geomspace(prof._seam, prof.tail_start, 320)[::35], [prof.tail_start]])
    assert np.max(np.abs(prof.density(us) / _fourier_head(alpha, dim, us) - 1.0)) < 1e-10


def test_mixture_head_self_convergence(monkeypatch):
    us = np.concatenate([[0.0], np.geomspace(1e-4, 57.2, 60)])
    before = {(a, d): _mixture_head(a, d)(us) for a in (0.3, 0.6, 0.95) for d in (1, 2, 3)}
    for name in ("_MIX_Y_PANELS", "_MIX_U_GEOMETRIC", "_MIX_U_LINEAR"):
        monkeypatch.setattr(sk, name, 2 * getattr(sk, name))
    for (a, d), q in before.items():
        assert np.max(np.abs(_mixture_head(a, d)(us) / q - 1.0)) < 1e-13, (a, d)


def test_lowest_alpha_matches_scipy_d1():
    from scipy.stats import levy_stable
    xs = np.array([0.0, 0.003, 0.05, 0.5, 2.0, 5.0, 7.0, 30.0])
    want = levy_stable.pdf(xs, 0.3, 0.0)
    assert np.max(np.abs(radial_profile(0.3, 1).density(xs) / want - 1.0)) < 1e-8


@pytest.mark.parametrize("dim", [2, 3])
def test_lowest_alpha_value_at_zero_and_unit_mass(dim):
    prof = radial_profile(0.3, dim)
    assert abs(prof.density(0.0) / q1_at_zero(0.3, dim) - 1.0) < 1e-12
    omega = 2.0 * math.pi ** (dim / 2.0) / gamma(dim / 2.0)
    f = lambda u: omega * u ** (dim - 1) * prof.density(u)
    cuts = [0.0, prof._seam, 1.0, prof.tail_start, np.inf]
    mass = sum(quad(f, lo, hi, limit=200, epsabs=0.0, epsrel=1e-11)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))
    assert abs(mass - 1.0) < 1e-8


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lowest_alpha_build_memory(dim):
    # the oscillatory route needed ~10 GB here
    tracemalloc.start()
    try:
        StableRadialProfile(0.3, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_sub_one_builds_never_call_fourier_head(monkeypatch):
    def refuse(*args):
        raise AssertionError("alpha < 1 profile called _fourier_head")
    monkeypatch.setattr(sk, "_fourier_head", refuse)
    for alpha in (0.3, 0.5, 0.75, 0.999):
        for dim in (1, 2, 3):
            StableRadialProfile(alpha, dim)


def test_every_supported_alpha_validates_its_tail():
    # next to alpha = 1 the even-k coefficients nearly vanish; they used to end
    # the sum at k = 2, and the build fell back to a series 1e-3 off
    alphas = [round(0.3 + 0.05 * i, 2) for i in range(34)] + [0.999, 1.001, 1.99, 1.999]
    for alpha in alphas:
        for dim in (1, 2, 3):
            assert StableRadialProfile(alpha, dim).tail_relerr < 3e-9, (alpha, dim)


def test_rng_determinism_and_split():
    a = sample_increment(ProcessSpec(1.5, 1), 1.0, RngStream(99), size=8)
    b = sample_increment(ProcessSpec(1.5, 1), 1.0, RngStream(99), size=8)
    assert np.array_equal(a, b)
    kids1 = [s.gen.random() for s in RngStream(7).split(3)]
    kids2 = [s.gen.random() for s in RngStream(7).split(3)]
    assert kids1 == kids2
    assert len(set(kids1)) == 3


def test_stable_sampler_alpha2_variance():
    z = sample_stable(ProcessSpec(2.0, 1), RngStream(1), size=100_000)
    se = math.sqrt(2.0) * 2.0 / math.sqrt(len(z))  # var of chi2-based estimate
    assert abs(z.var() - 2.0) < 3.0 * se * 2.0


def test_stable_sampler_alpha1_median():
    z = sample_stable(ProcessSpec(1.0, 1), RngStream(2), size=100_000)
    # median of Cauchy is 0; binomial CI on the sign
    frac = (z > 0).mean()
    assert abs(frac - 0.5) < 3.0 * 0.5 / math.sqrt(len(z))


def test_stable_sampler_characteristic_function():
    z = sample_stable(ProcessSpec(1.5, 1), RngStream(3), size=100_000)
    for xi in (0.5, 1.0, 2.0):
        emp = np.cos(xi * z).mean()
        se = np.cos(xi * z).std() / math.sqrt(len(z))
        assert abs(emp - math.exp(-xi ** 1.5)) < 3.0 * se


def test_gamma_sampler_moments_and_exponential_case():
    for t in (0.5, 1.0, 4.2):
        g = sample_gamma(t, RngStream(4), size=100_000)
        assert np.all(g > 0)
        assert abs(g.mean() - t) < 3.0 * math.sqrt(t / len(g))
        var_se = math.sqrt((2.0 * t * (t + 3.0)) / len(g)) + 3.0 / len(g)
        assert abs(g.var() - t) < 4.0 * var_se
    g = np.sort(sample_gamma(1.0, RngStream(5), size=100_000))
    cdf = 1.0 - np.exp(-g)
    i = np.arange(1, len(g) + 1)
    ks = max(np.max(i / len(g) - cdf), np.max(cdf - (i - 1) / len(g)))
    assert ks < 0.01


def test_positive_stable_laplace_transform():
    s = _sample_positive_stable(0.75, RngStream(6), 100_000)
    assert np.all(s > 0)
    for lam in (0.5, 1.0, 2.0):
        emp = np.exp(-lam * s).mean()
        se = np.exp(-lam * s).std() / math.sqrt(len(s))
        assert abs(emp - math.exp(-lam ** 0.75)) < 3.5 * se


def test_increment_laplace_tail_alpha2_t1():
    # (1+xi^2)^{-1} inverts to the Laplace law: P(|X|>1) = e^{-1}
    x = sample_increment(ProcessSpec(2.0, 1), 1.0, RngStream(7), size=100_000)
    frac = (np.abs(x) > 1.0).mean()
    p = math.exp(-1.0)
    assert abs(frac - p) < 3.0 * math.sqrt(p * (1 - p) / len(x))


def test_increment_symmetric_mean():
    x = sample_increment(ProcessSpec(1.5, 1), 1.0, RngStream(8), size=100_000)
    med_se = 1.0 / math.sqrt(len(x))
    assert abs(np.median(x)) < 4.0 * med_se


def test_increment_characteristic_function_matches():
    x = sample_increment(ProcessSpec(1.5, 1), 2.0, RngStream(9), size=100_000)
    emp = np.cos(x).mean()
    se = np.cos(x).std() / math.sqrt(len(x))
    assert abs(emp - 0.25) < 3.0 * se


def test_increment_multidimensional_char_function():
    x = sample_increment(ProcessSpec(1.5, 3), 1.0, RngStream(10), size=100_000)
    assert x.shape == (100_000, 3)
    xi = np.array([0.3, -0.4, 0.5])
    proj = x @ xi
    emp = np.cos(proj).mean()
    se = np.cos(proj).std() / math.sqrt(len(x))
    want = (1.0 + np.linalg.norm(xi) ** 1.5) ** -1.0
    assert abs(emp - want) < 3.0 * se


@pytest.mark.parametrize("alpha", [1.99, 1.999])
@pytest.mark.parametrize("dim", [2, 3])
def test_increment_near_gaussian_rows_finite(alpha, dim):
    # Kanter's A(theta) underflowed to NaN/0 rows as beta = alpha/2 -> 1
    x = sample_increment(ProcessSpec(alpha, dim), 1.0, RngStream(11), size=200_000)
    assert np.isfinite(x).all()
    for xi in (0.5, 1.0, 2.0):
        c = np.cos(xi * x[:, 0])
        se = c.std() / math.sqrt(len(c))
        assert abs(c.mean() - (1.0 + xi ** alpha) ** -1.0) < 6.0 * se


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_small_step_increments_match_characteristic_function(alpha):
    # one Feynman-Kac step at t = 1/256, where most Gamma clocks underflow,
    # and the sum of 256 such steps, which must be the t = 1 law
    spec = ProcessSpec(alpha, 1)
    rng = RngStream(41)
    n = 20_000
    step = sample_increment(spec, 1.0 / 256, rng, size=n)
    total = step.copy()
    for _ in range(255):
        total += sample_increment(spec, 1.0 / 256, rng, size=n)
    for x, t in ((step, 1.0 / 256), (total, 1.0)):
        assert np.isfinite(x).all()
        for xi in (0.5, 1.0, 2.0):
            c = np.cos(xi * x)
            se = c.std() / math.sqrt(n)
            assert abs(c.mean() - (1.0 + xi ** alpha) ** -t) < 5.0 * se, (t, xi)


def _radial_cdf(spec, t):
    """P(|X_t| <= r): the shell integral of the gamma-mixture density.

    Gauss-Legendre(10) on 8 panels a decade over [1e-3, 1e3], cumulated at the
    panel edges and splined in log r; the mass outside stays below 1e-4.
    """
    edges = np.geomspace(1e-3, 1e3, 49)
    r, w = sk._panel_nodes(edges)
    d = spec.dim
    shell = 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0) * r ** (d - 1) * w
    mass = (shell * density_gamma_mixture(spec, t, r)).reshape(-1, 10).sum(axis=1)
    spline = CubicSpline(np.log(edges), np.concatenate([[0.0], np.cumsum(mass)]))
    return lambda x: spline(np.log(np.clip(x, edges[0], edges[-1])))


@pytest.mark.parametrize("alpha, dim", [(1.99, 2), (1.5, 3)])
def test_increment_radius_matches_radial_cdf(alpha, dim):
    spec = ProcessSpec(alpha, dim)
    n = 50_000
    radius = np.linalg.norm(sample_increment(spec, 1.0, RngStream(12), size=n), axis=1)
    ks = EmpiricalCdf.from_samples(radius).ks_distance(_radial_cdf(spec, 1.0))
    assert ks < 3.0 / math.sqrt(n)
