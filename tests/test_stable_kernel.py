import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import digamma, gamma, j0, k0, k1, polygamma
from scipy.stats import ks_2samp

from geostable import (ConfigError, EmpiricalCdf, ProcessSpec, RngStream,
                       UnsupportedDimensionError, cdf_numeric, char_function, density_inversion,
                       k_radial, levy_density, radial_profile, sample_increment,
                       sample_stable, stable_density, symbol)
from geostable import stable_kernel as sk
from geostable.stable_kernel import (_DRAW_BATCH, StableRadialProfile, _cms_into,
                                     _envelope_columns, _log_gamma_into,
                                     _log_positive_stable_into, _panel_nodes,
                                     _radial_inversion, _rows_into, _stable_into, _walk_into,
                                     _walk_screen, q1_at_zero)
from geostable.transition_density import density_gamma_mixture

import kanter_oracle
from kanter_oracle import mixture_head


def _fourier_head(alpha, dim, u):
    """Reference q_1 at radii u: panel quadrature of the inversion integral of exp(-rho^alpha).

    d = 1 cosine kernel, d = 2 Bessel J0, d = 3 sine kernel, cut where
    exp(-R^alpha) < 1e-19.  Gauss-Legendre(10) panels, each a quarter period
    wide at the fastest oscillation of its block of 64 radii, and geometric
    panels near rho = 0 for the envelope's kink at alpha < 1.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    R = 45.0 ** (1.0 / alpha)
    out = np.empty_like(u)
    for i0 in range(0, len(u), 64):
        uu = u[i0:i0 + 64][:, None]
        n_osc = int(np.ceil(R / (np.pi / (2.0 * max(uu.max(), 1.0)))))
        rho, w = _panel_nodes(np.unique(np.concatenate([np.geomspace(1e-9, 1.0, 50),
                                                        np.linspace(0.0, R, n_osc + 1)])))
        env = np.exp(-rho ** alpha) * w
        if dim == 1:
            out[i0:i0 + 64] = (np.cos(uu * rho[None, :]) @ env) / np.pi
        elif dim == 2:
            out[i0:i0 + 64] = ((j0(uu * rho[None, :]) * rho[None, :]) @ env) / (2.0 * np.pi)
        else:
            ur = uu.ravel()
            u1 = np.where(ur == 0.0, 1.0, ur)
            val = ((np.sin(uu * rho[None, :]) * rho[None, :]) @ env) / (2.0 * np.pi ** 2 * u1)
            out[i0:i0 + 64] = np.where(ur == 0.0, q1_at_zero(alpha, dim), val)
    return out


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
        vals = stable_density(spec, 1.0, xs)
        assert np.all(vals > 0)
        prof = radial_profile(alpha, 1)
        k = np.arange(1, len(prof.coeffs) + 1, dtype=float)
        tail = 2.0 * float(np.sum(prof.coeffs * 50.0 ** (-k * alpha) / (k * alpha)))
        mass = np.trapezoid(vals, xs) + tail
        assert abs(mass - 1.0) < 1e-4, (alpha, mass)


def test_profile_matches_direct_quadrature():
    for alpha, dim in ((1.5, 1), (0.7, 2), (1.9, 3), (1.5, 2), (1.999, 2)):
        prof = radial_profile(alpha, dim)
        us = np.array([0.05, 0.7, 1.9, 3.0, float(prof.tail_start) * 0.9])
        ref = _fourier_head(alpha, dim, us)
        assert np.max(np.abs(prof.density(us) / ref - 1.0)) < 5e-8


# worst |spline / reference - 1| allowed below tail_start, by alpha; above
# alpha = 1 the reference is the panel quadrature, not the profile's own head,
# which loses digits below its first knot
_SPLINE_BOUNDS = {0.3: 1e-9, 0.5: 1e-9, 0.7: 1e-9, 0.95: 1e-9, 0.999: 1e-9, 1.001: 1e-9,
                  1.05: 1e-9, 1.5: 1e-9, 1.8: 5e-9, 1.9: 5e-9, 1.95: 1e-8, 1.99: 1e-7,
                  1.999: 1e-7}


@pytest.mark.parametrize("alpha", sorted(_SPLINE_BOUNDS))
def test_profile_spline_matches_its_head_between_knots(alpha):
    # the knots carry the head's values; these radii fall between them
    for dim in (1, 2, 3):
        prof = radial_profile(alpha, dim)
        us = np.concatenate([np.linspace(0.0, prof.tail_start, 500),
                             np.geomspace(1e-6, prof.tail_start, 500)])
        head = mixture_head(alpha, dim)(us) if alpha < 1.0 else _fourier_head(alpha, dim, us)
        err = np.max(np.abs(prof.density(us) / head - 1.0))
        assert err < _SPLINE_BOUNDS[alpha], (dim, err)


@pytest.mark.parametrize("alpha", [1.001] + [round(1.05 + 0.05 * i, 2) for i in range(19)]
                         + [1.99, 1.999])
def test_inversion_head_matches_panel_quadrature(alpha):
    # from 1e-3 on: below it the double-exponential rule loses digits (3.5e-9
    # at 1e-5), and no profile has a knot there (the smallest positive is 5.0e-3)
    for dim in (1, 2, 3):
        tail = 1.3 * radial_profile(alpha, dim).tail_start
        us = np.concatenate([np.geomspace(1e-3, tail, 64), np.linspace(1e-3, tail, 64)])
        err = np.max(np.abs(_radial_inversion(alpha, None, dim, us) / _fourier_head(alpha, dim, us)
                            - 1.0))
        assert err < 1e-9, (dim, err)


def test_bessel_rules_on_their_zeros_match_closed_forms():
    # int J_0(r p) p/(1 + p^2) dp = K_0(r) and int J_1(r p)/(1 + p^2) dp = 1/r - K_1(r);
    # with nodes off the zeros of J0 the first was 4.2e-9 off
    r = np.geomspace(1e-3, 34.0, 400)
    assert np.max(np.abs(sk._char_integral("j0", 1.0, 2.0, 1.0, r) - k0(r))) < 1e-14
    assert np.max(np.abs(sk._char_integral("j1", 0.0, 2.0, 1.0, r) - (1.0 / r - k1(r)))) < 1e-12


@pytest.mark.parametrize("alpha", [0.7, 1.5, 1.9])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_series_batch_is_bit_equal_to_single_points(alpha, dim):
    # each radius sums its own row of the series, whatever its block
    spec = ProcessSpec(alpha, dim)
    r = np.geomspace(6.0, 59.0, 200)
    x = r if dim == 1 else np.outer(r, np.eye(dim)[0])  # |x| = r exactly
    single = [stable_density(spec, 1.0, p) for p in x]
    assert np.array_equal(stable_density(spec, 1.0, x), single)
    # 10k radii, of which the series takes two row blocks or three
    tiled = np.tile(x, 50) if dim == 1 else np.tile(x, (50, 1))
    assert np.array_equal(stable_density(spec, 1.0, tiled), np.tile(single, 50))


@pytest.mark.parametrize("alpha", [0.7, 1.5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_at_infinite_radius_is_zero(alpha, dim):
    # every series term is 0 at u = inf, and so is their sum
    spec = ProcessSpec(alpha, dim)
    r = np.array([np.inf, 0.0, 0.4, np.inf, 3.0, 40.0])  # 40 is the one series radius
    x = r if dim == 1 else np.column_stack([r] + [np.zeros(r.size)] * (dim - 1))
    got = stable_density(spec, 0.7, x)
    assert np.array_equal(got == 0.0, np.isinf(r))
    assert np.array_equal(got, [stable_density(spec, 0.7, p) for p in x])
    assert stable_density(spec, 1.0, x[0]) == 0.0


_SPEC = ProcessSpec(1.5, 1)


@pytest.mark.parametrize("fn", [
    lambda u: k_radial(_SPEC, u),
    lambda u: levy_density(_SPEC, u),
    lambda u: stable_density(_SPEC, 0.7, u),
    lambda u: radial_profile(1.5, 1).density(u),
    lambda u: density_inversion(_SPEC, 1.0, u),
    lambda u: cdf_numeric(_SPEC, 1.0, u),
    lambda u: symbol(_SPEC, u),
    lambda u: char_function(_SPEC, 1.0, u),
], ids=["k_radial", "levy_density", "stable_density", "profile_density", "density_inversion",
        "cdf_numeric", "symbol", "char_function"])
def test_zero_dim_array_gives_float(fn):
    got = fn(np.array(0.8))
    assert type(got) is float
    assert got == fn(0.8)


def test_unsupported_dimension_rejected():
    with pytest.raises(UnsupportedDimensionError):
        stable_density(ProcessSpec(1.5, 4), 1.0, np.zeros(4))
    with pytest.raises(UnsupportedDimensionError):
        density_inversion(ProcessSpec(1.5, 4), 1.0, np.zeros(4))
    with pytest.raises(UnsupportedDimensionError):
        cdf_numeric(ProcessSpec(1.5, 2), 1.0, 0.5)
    with pytest.raises(ConfigError):
        radial_profile(0.2, 2)


@pytest.mark.parametrize("alpha", [0.5, 0.7])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mixture_profile_matches_fourier_head(alpha, dim):
    # the Kanter mixture oracle and the oscillatory Fourier / Hankel panel
    # quadrature check each other from u = 0 to tail_start
    us = np.concatenate([np.linspace(0.0, 0.1, 5),
                         np.geomspace(0.1, radial_profile(alpha, dim).tail_start, 11)[1:]])
    assert np.max(np.abs(mixture_head(alpha, dim)(us) / _fourier_head(alpha, dim, us) - 1.0)) < 1e-10


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mixture_head_matches_double_exponential_inversion(alpha, dim):
    # the profile's cos, J0 and sin heads against the Kanter mixture, an
    # independent route where the panel reference would need ~10 GB (alpha = 0.3)
    us = np.concatenate([np.linspace(0.0, 57.2, 300), np.geomspace(1e-3, 57.2, 300)])
    err = np.max(np.abs(_radial_inversion(alpha, None, dim, us) / mixture_head(alpha, dim)(us)
                        - 1.0))
    assert err < 1e-10, err


def test_mixture_head_self_convergence(monkeypatch):
    us = np.concatenate([[0.0], np.geomspace(1e-4, 57.2, 60)])
    before = {(a, d): mixture_head(a, d)(us) for a in (0.3, 0.6, 0.95) for d in (1, 2, 3)}
    for name in ("MIX_Y_PANELS", "MIX_U_GEOMETRIC", "MIX_U_LINEAR"):
        monkeypatch.setattr(kanter_oracle, name, 2 * getattr(kanter_oracle, name))
    for (a, d), q in before.items():
        assert np.max(np.abs(mixture_head(a, d)(us) / q - 1.0)) < 1e-13, (a, d)


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
    cuts = [0.0, prof._scale, 1.0, prof.tail_start, np.inf]
    mass = sum(quad(f, lo, hi, limit=200, epsabs=0.0, epsrel=1e-11)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))
    assert abs(mass - 1.0) < 1e-8


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lowest_alpha_build_memory(dim):
    tracemalloc.start()
    try:
        StableRadialProfile(0.3, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_sub_one_builds_take_radial_inversion(monkeypatch):
    # one q_1 head for every alpha of the profile: the Fourier inversion
    heads = set()

    def counted(alpha, t, dim, r):
        heads.add((alpha, t, dim))
        return _radial_inversion(alpha, t, dim, r)

    monkeypatch.setattr(sk, "_radial_inversion", counted)
    for alpha in (0.3, 0.5, 0.75, 0.999):
        for dim in (1, 2, 3):
            StableRadialProfile(alpha, dim)
            assert (alpha, None, dim) in heads, (alpha, dim)


def test_every_supported_alpha_validates_its_tail():
    # next to alpha = 1 the even-k coefficients nearly vanish; they used to end
    # the sum at k = 2, and the build fell back to a series 1e-3 off.  Where
    # series and head agree bit for bit the error is their rounding, not 0
    alphas = [round(0.3 + 0.05 * i, 2) for i in range(34)] + [0.999, 1.001, 1.99, 1.999]
    for alpha in alphas:
        for dim in (1, 2, 3):
            relerr = StableRadialProfile(alpha, dim).tail_relerr
            assert np.finfo(float).eps <= relerr < 3e-9, (alpha, dim)


def _fractional_moment(alpha, dim, p):
    """E|Z|^p = |S^(d-1)| int_0^inf u^(d-1+p) q_1(u) du from the radial profile.

    Gauss-Legendre(10) on 60 geometric panels over [1e-14 s, s] (s the
    spline's scale; they resolve the u^p cusp at 0), 400 panels uniform in
    asinh(u/s) up to tail_start and 300 geometric ones up to
    R = tail_start 1000^(1/alpha).  Past R, the series term by term,
    int_R^inf u^(d-1+p) c_k u^(-d-k alpha) du = c_k R^(p-k alpha)/(k alpha - p),
    cut at the first growth of its envelope.
    """
    prof = radial_profile(alpha, dim)
    s, u0 = prof._scale, prof.tail_start
    big = u0 * 1000.0 ** (1.0 / alpha)
    edges = np.concatenate([np.geomspace(1e-14 * s, s, 61),
                            s * np.sinh(np.linspace(math.asinh(1.0), math.asinh(u0 / s), 401))[1:],
                            np.geomspace(u0, big, 301)[1:]])
    u, w = _panel_nodes(edges)
    head = (u ** (dim - 1 + p) * prof.density(u)) @ w
    nz = np.flatnonzero(prof.coeffs)
    c, k = prof.coeffs[nz], nz + 1.0
    terms = c * big ** (p - k * alpha) / (k * alpha - p)
    env = np.abs(terms)[_envelope_columns(c, k)]
    growth = np.flatnonzero(env[1:] > env[:-1])
    tail = terms[:growth[0] + 1 if growth.size else k.size].sum()
    return 2.0 * math.pi ** (dim / 2.0) / gamma(dim / 2.0) * (head + tail)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.999, 1.001, 1.3, 1.5, 1.8, 1.9, 1.99, 1.999])
def test_profile_fractional_moments_match_closed_form(alpha):
    # E|Z|^p = 2^p Gamma((d+p)/2) Gamma(1-p/alpha) / (Gamma(d/2) Gamma(1-p/2)), 0 < p < alpha:
    # one closed-form check of the spline, its head and its series together
    for dim in (1, 2, 3):
        for p in (alpha / 4, alpha / 2, 3 * alpha / 4):
            want = (2.0 ** p * gamma((dim + p) / 2.0) * gamma(1.0 - p / alpha)
                    / (gamma(dim / 2.0) * gamma(1.0 - p / 2.0)))
            assert abs(_fractional_moment(alpha, dim, p) / want - 1.0) < 1e-9, (dim, p)


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
    # log G from the samplers' own draw, on the GS branch (t < 1) and numpy's (t >= 1)
    n = 100_000
    for t in (0.5, 1.0, 4.2):
        g = np.empty(n)
        _log_gamma_into(t, RngStream(4).gen, g, np.empty(n), np.empty(n))
        np.exp(g, out=g)
        assert np.all(g > 0)
        assert abs(g.mean() - t) < 3.0 * math.sqrt(t / len(g))
        var_se = math.sqrt((2.0 * t * (t + 3.0)) / len(g)) + 3.0 / len(g)
        assert abs(g.var() - t) < 4.0 * var_se
    g = np.empty(n)
    _log_gamma_into(1.0, RngStream(5).gen, g, np.empty(n), np.empty(n))
    g = np.sort(np.exp(g))
    cdf = 1.0 - np.exp(-g)
    i = np.arange(1, len(g) + 1)
    ks = max(np.max(i / len(g) - cdf), np.max(cdf - (i - 1) / len(g)))
    assert ks < 0.01


def test_positive_stable_laplace_transform():
    n = 100_000
    s = np.empty(n)
    _log_positive_stable_into(0.75, RngStream(6).gen, s, np.empty(n), np.empty(n))
    np.exp(s, out=s)
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
    # one Feynman-Kac step at t = 1/256, where about 6% of the Gamma clocks
    # lie below the smallest double and only log G is drawn, and the sum of
    # 256 such steps, which must be the t = 1 law
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


_CMS_ALPHAS = (0.3, 0.5, 0.99, 1.01, 1.5, 1.99, 1.999)


def _cms_sin_cos(alpha, log_g, r, w):
    """Chambers-Mallows-Stuck from sin and cos, evaluated in long double.

    In float64 the rounding of U = pi (r - 1/2) alone moves cos U by up to
    2e-10 relative at r = 1e-6 and alpha = 0.3, which the oracle must not add.
    """
    a = np.longdouble(alpha)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    u = pi * (np.asarray(r, dtype=np.longdouble) - np.longdouble(0.5))
    return np.sin(a * u) * np.exp(
        np.asarray(log_g, dtype=np.longdouble) / a - np.log(np.cos(u)) / a
        + (1 - a) / a * (np.log(np.cos((1 - a) * u)) - np.log(np.asarray(w, dtype=np.longdouble))))


def _cms(alpha, log_g, r, w):
    out = np.array(log_g, dtype=float) + (alpha - 1.0) * np.log(np.array(w, dtype=float))
    uw = np.empty((2, out.size))
    uw[0] = r
    _cms_into(alpha, out, uw)
    return out


@pytest.mark.parametrize("alpha", _CMS_ALPHAS)
def test_cms_transform_matches_sin_cos_formula(alpha):
    rng = np.random.default_rng(17)
    ends = np.geomspace(1e-6, 0.4, 400)
    r = np.concatenate([1e-6 + (1.0 - 2e-6) * rng.random(20_000), ends, 1.0 - ends])
    w = rng.standard_exponential(r.size)
    log_g = rng.uniform(-30.0, 3.0, r.size)
    got = _cms(alpha, log_g, r, w)
    want = _cms_sin_cos(alpha, log_g, r, w)
    assert float(np.max(np.abs(got / want - 1.0))) <= 1e-12
    edges = np.array([0.0, 1e-17, 1.0 - 2.0 ** -53, 0.5])
    assert np.isfinite(_cms(alpha, np.zeros(4), edges, np.full(4, 0.7))).all()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.3, 1.999), r=st.floats(1e-6, 1.0 - 1e-6),
       w=st.floats(1e-3, 30.0), log_g=st.floats(-50.0, 5.0))
def test_cms_transform_property(alpha, r, w, log_g):
    assume(r != 0.5)
    got = _cms(alpha, [log_g], [r], [w])[0]
    want = _cms_sin_cos(alpha, log_g, r, w)
    assert abs(got / want - 1.0) <= 1e-12


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.3, 1.999), r=st.floats(0.0, 1.0, exclude_max=True),
       w=st.floats(2.0 ** -54, 53.0 * math.log(2.0)), log_g=st.floats(-2000.0, 5.0))
def test_skip_bound_property(alpha, r, w, log_g):
    # the Chambers-Mallows-Stuck bound alpha log|X| <= B with
    # B = log G - log(2 s) + (alpha - 1) log W + c, for W in the range
    # _stable_into draws it from
    assume(alpha != 1.0)
    s = max(min(r, 1.0 - r), 2.0 ** -54)
    c = -(alpha - 1.0) * math.log(math.cos((alpha - 1.0) * math.pi / 2.0)) if alpha > 1.0 else 0.0
    bound = log_g - math.log(2.0 * s) + (alpha - 1.0) * math.log(w) + c
    with np.errstate(over="ignore"):
        x = _cms(alpha, [log_g], [r], [w])[0]
    if np.isfinite(x) and abs(x) >= np.finfo(float).tiny:
        assert math.log(abs(x)) <= bound / alpha + 1e-12
    # the walk's screen takes r and W at their worst: a step with
    # log G < L(pos) = min(alpha log|pos| + C, -53 log 2) leaves pos unmoved,
    # tested at the smallest |pos| the screen lets skip
    big_c = _walk_screen(alpha, 1.0 / 256)[0] * 256
    assert big_c <= alpha * -55.0 * math.log(2.0) - (bound - log_g) + 1e-9
    log_edge = (log_g - big_c) / alpha
    if log_g < -53.0 * math.log(2.0) and -700.0 < log_edge < 700.0:
        pos = np.nextafter(math.exp(log_edge), np.inf)
        assert pos + x == pos and -pos + x == -pos


def _zero_rho(x, out, scratch):
    out.fill(0.0)


def _one_rho(x, out, scratch):
    out.fill(1.0)


def test_walk_screen_is_off_where_it_cannot_hold():
    for alpha, t in ((1.0, 1.0 / 256), (2.0, 1.0 / 256), (1.5, 1.0), (0.7, 3.0)):
        assert _walk_screen(alpha, t) is None
    t_big_c, log_gamma1p = _walk_screen(1.5, 1.0 / 256)
    assert t_big_c * 256 < -55.0 * 1.5 * math.log(2.0) - 53.0 * math.log(2.0)
    assert log_gamma1p == math.lgamma(1.0 + 1.0 / 256)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.01, 1.5, 1.99, 1.999, 2.0])
def test_walk_endpoints_match_one_increment(alpha):
    # the event walk's endpoints have the law of one increment over the whole
    # time (gamma clocks add up); 30000 paths fill the block of slots, refill
    # it and close it up at the end; with rho = 1 every clock is steps * dt
    n = 30_000
    spec = ProcessSpec(alpha, 1)
    for dt, steps in ((1.0 / 256, 64), (1.0 / 32, 8), (1.0, 2)):
        for x0 in (0.0, 5.0):
            x, clock = np.full(n, x0), np.zeros(n)
            _walk_into(alpha, dt, steps, RngStream(51).gen, x, clock, _one_rho,
                       sk._walk_scratch(alpha, dt, n))
            assert np.all(np.abs(clock / (steps * dt) - 1.0) < 1e-12)
            ref = x0 + sample_increment(spec, steps * dt, RngStream(52), size=n)
            assert ks_2samp(x, ref).statistic < 3.0 * math.sqrt(2.0 / n), (dt, x0)


def test_walk_without_screen_draws_every_step():
    # alpha = 2: every step is an event, so the walk consumes the stream as n
    # draws a step would, and a path from 0 ends at the sum of its increments
    n, steps, dt = 1000, 5, 1.0 / 32
    x, clock = np.zeros(n), np.zeros(n)
    _walk_into(2.0, dt, steps, RngStream(53).gen, x, clock, _zero_rho, sk._walk_scratch(2.0, dt, n))
    gen = RngStream(53).gen
    total = np.zeros(n)
    for _ in range(steps):
        inc = np.empty(n)
        sk._stable_into(2.0, dt, gen, inc, np.empty((2, n)))
        total += inc
    assert np.array_equal(x, total)
    assert np.all(clock == 0.0)


@pytest.mark.parametrize("t", [1.0 / 256, 1.0 / 32, 0.3])
def test_log_gamma_lower_tail_is_the_skip_probability(t):
    # P(log G < L) = e^(t L)/Gamma(1 + t) for L <= -53 log 2: the still-step
    # probability the walk's skip count is drawn with
    n = 2_000_000
    log_g = np.empty(n)
    _log_gamma_into(t, RngStream(61).gen, log_g, np.empty(n), np.empty(n))
    for level in (-53.0 * math.log(2.0), -100.0):
        p = math.exp(t * level) / gamma(1.0 + t)
        emp = np.mean(log_g < level)
        assert abs(emp - p) < 4.0 * math.sqrt(p * (1.0 - p) / n) + 1.0 / n, (level, emp, p)


@pytest.mark.parametrize("t, level", [(1.0 / 256, -53.0 * math.log(2.0)), (1.0 / 256, -300.0),
                                      (1.0 / 32, -100.0), (0.3, -3.0), (0.9, -1.0)])
def test_truncated_log_gamma_matches_conditioned_draws(t, level):
    # GS accepts each candidate with a probability that depends on it alone,
    # so drawing its uniform above e^(t L)/b gives Gamma(t) given log G >= L
    n = 400_000
    free = np.empty(n)
    _log_gamma_into(t, RngStream(71).gen, free, np.empty(n), np.empty(n))
    kept = free[free >= level]
    m = 100_000
    cut = np.empty(m)
    _log_gamma_into(t, RngStream(72).gen, cut, np.empty(m), np.empty(m),
                    np.full(m, math.exp(t * level)))
    assert cut.min() >= level
    bound = 3.0 * math.sqrt((kept.size + m) / (kept.size * m))
    assert ks_2samp(cut, kept).statistic < bound


@pytest.mark.parametrize("s", [1.0 / 256, 1.0 / 32, 0.3, 0.9])
def test_log_gamma_draws_are_exact(s):
    n = 2_000_000
    log_g = np.empty(n)
    _log_gamma_into(s, RngStream(31).gen, log_g, np.empty(n), np.empty(n))
    assert np.isfinite(log_g).all()
    assert abs(np.exp(log_g).mean() - s) < 4.0 * math.sqrt(s / n)
    assert abs(log_g.mean() - digamma(s)) < 4.0 * math.sqrt(polygamma(1, s) / n)
    # an independent route: Gamma(s) = Gamma(1 + s) U^(1/s)
    gen = RngStream(32).gen
    other = np.log(gen.standard_gamma(1.0 + s, n)) + np.log1p(-gen.random(n)) / s
    assert ks_2samp(log_g, other).statistic < 3.0 * math.sqrt(2.0 / n)


@pytest.mark.parametrize("dim, per_draw", [(1, 3.25), (2, 4.25)])
def test_increment_memory_per_draw(dim, per_draw):
    # the draws, and two scratch vectors of one batch per thread: n = 10^6
    # makes 4 batches, so at most 4 threads' scratch, 2.1 vectors of n
    spec = ProcessSpec(1.5, dim)
    sample_increment(spec, 1.0 / 256, RngStream(1), size=10)
    n = 1_000_000
    tracemalloc.start()
    try:
        sample_increment(spec, 1.0 / 256, RngStream(1), size=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 8 / n <= per_draw


def _one_batch(dim, alpha, t, gen, n):
    out = np.empty(n if dim == 1 else (n, dim))
    (_stable_into if dim == 1 else _rows_into)(alpha, t, gen, out, np.empty((2, n)))
    return out


@pytest.mark.parametrize("alpha, dim", [(1.5, 1), (0.7, 1), (2.0, 1), (1.5, 3), (0.7, 3), (2.0, 3)])
@pytest.mark.parametrize("size", [1, 1000, _DRAW_BATCH])
def test_draws_of_one_batch_come_from_the_stream_itself(alpha, dim, size):
    got = sample_increment(ProcessSpec(alpha, dim), 0.5, RngStream(41), size=size)
    assert np.array_equal(got, _one_batch(dim, alpha, 0.5, RngStream(41).gen, size))
    point = sample_increment(ProcessSpec(alpha, dim), 0.5, RngStream(41))
    assert np.array_equal(point, _one_batch(dim, alpha, 0.5, RngStream(41).gen, 1)[0])
    stable = sample_stable(ProcessSpec(alpha, dim), RngStream(41), size=size)
    assert np.array_equal(stable, _one_batch(dim, alpha, None, RngStream(41).gen, size))
    point = sample_stable(ProcessSpec(alpha, dim), RngStream(41))
    assert np.array_equal(point, _one_batch(dim, alpha, None, RngStream(41).gen, 1)[0])


# three batches, the last of them partial
_THREE_BATCHES = 2 * _DRAW_BATCH + 1000


@pytest.mark.parametrize("dim", [1, 3])
def test_batched_draws_do_not_depend_on_the_core_count(monkeypatch, dim):
    spec = ProcessSpec(1.5, dim)
    runs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(sk, "_usable_cores", lambda cores=cores: cores)
        runs.append(sample_increment(spec, 0.5, RngStream(43), size=_THREE_BATCHES))
    assert all(np.array_equal(runs[0], r) for r in runs[1:])
    assert np.isfinite(runs[0]).all()


@pytest.mark.parametrize("alpha, dim", [(1.5, 1), (1.5, 2), (2.0, 3)])
def test_batch_i_is_a_one_batch_draw_from_child_i(alpha, dim):
    got = sample_increment(ProcessSpec(alpha, dim), 0.5, RngStream(47), size=_THREE_BATCHES)
    for i, child in enumerate(RngStream(47).split(3)):
        rows = got[i * _DRAW_BATCH:(i + 1) * _DRAW_BATCH]
        assert np.array_equal(rows, _one_batch(dim, alpha, 0.5, child.gen, len(rows)))
    stable = sample_stable(ProcessSpec(alpha, 1), RngStream(47), size=_THREE_BATCHES)
    last = RngStream(47).split(3)[2]
    assert np.array_equal(stable[2 * _DRAW_BATCH:], _one_batch(1, alpha, None, last.gen, 1000))


@pytest.mark.parametrize("alpha, dim, t", [(1.5, 1, 0.5), (0.7, 1, 2.0), (1.5, 3, 0.5),
                                           (0.7, 3, 1.0)])
def test_batched_draws_match_characteristic_function(alpha, dim, t):
    x = sample_increment(ProcessSpec(alpha, dim), t, RngStream(53), size=_THREE_BATCHES)
    directions = np.eye(dim)[:1] if dim == 1 else np.array([[1.0, 0.0, 0.0],
                                                             [0.6, -0.48, 0.64]])
    for e in directions:
        proj = x @ e if dim > 1 else x
        for xi in (0.3, 1.0, 3.0):
            c = np.cos(xi * proj)
            se = c.std() / math.sqrt(len(c))
            assert abs(c.mean() - (1.0 + xi ** alpha) ** -t) < 5.0 * se, (e, xi)


@pytest.mark.parametrize("alpha", [0.7, 1.5, 2.0])
def test_stable_draws_in_d3_match_characteristic_function(alpha):
    # rotation-invariant: E cos(xi e . Z) = exp(-xi^alpha) along every unit e
    z = sample_stable(ProcessSpec(alpha, 3), RngStream(59), size=200_000)
    assert z.shape == (200_000, 3)
    for e in (np.array([1.0, 0.0, 0.0]), np.array([0.6, -0.48, 0.64])):
        for xi in (0.3, 1.0, 3.0):
            c = np.cos(xi * (z @ e))
            se = c.std() / math.sqrt(len(c))
            assert abs(c.mean() - math.exp(-xi ** alpha)) < 5.0 * se, (e, xi)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_closed_forms_at_radii_whose_square_overflows(alpha, dim):
    # u^2 overflows past u ~ 1.3e154; q_1 itself is 0 in floats there
    for r in (1e155, 1e200):
        x = np.zeros((1, dim))
        x[0, 0] = r
        assert stable_density(ProcessSpec(alpha, dim), 1.0, x)[0] == 0.0
    prof = radial_profile(alpha, dim)
    u = np.array([0.0, 0.5, 3.0, 40.0])
    d = dim
    want = ((4.0 * np.pi) ** (-d / 2.0) * np.exp(-u ** 2 / 4.0) if alpha == 2.0 else
            gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0) / (1.0 + u ** 2) ** ((d + 1) / 2.0))
    assert np.allclose(prof.density(u), want, rtol=1e-14, atol=0.0)
