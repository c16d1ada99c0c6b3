"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line.

Criteria run at their stated tolerances through geostable.acceptance, the
same registry the `geostable verify` subcommand executes.  The oracles the
checks rely on are tested against independent routes at the end.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from geostable import ProcessSpec, SingularPointError, acceptance, levy_structure
from geostable.levy_structure import large_x_constant, surface_measure
from geostable.stable_kernel import (RngStream, _panel_nodes, q1_at_zero, sample_increment,
                                     tail_coefficients)
from geostable.transition_density import cdf_numeric


def _run(check, seed=None):
    result = check() if seed is None else check(seed=seed)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_acceptance_01_laplace_density_oracle():
    r = _run(acceptance.check_laplace_density)
    assert r.elapsed < 5.0


def test_acceptance_02_variance_gamma_levy_oracle():
    r = _run(acceptance.check_vg_levy)
    assert r.elapsed < 5.0


def test_acceptance_03_asymptotic_constants():
    r = _run(acceptance.check_asymptotics)
    assert r.elapsed < 30.0


def test_acceptance_04_selfdecomposability_certificate():
    r = _run(acceptance.check_selfdecomposability, seed=77001)
    assert r.elapsed < 60.0


def test_selfdecomposability_check_fails_on_a_rising_kernel(monkeypatch):
    # one (alpha, d) of the grid rises by 1e-9 between its 6th and 7th radius
    real = levy_structure.k_radial

    def rising(spec, r):
        k = real(spec, r)
        if spec == ProcessSpec(1.3, 2):
            k[6] = k[5] * (1.0 + 1e-9)
        return k

    monkeypatch.setattr(levy_structure, "k_radial", rising)
    result = acceptance.check_selfdecomposability()
    assert not result.passed
    assert "(1.3, 2)" in result.detail and "(1.3, 1)" not in result.detail


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cauchy_mixture_panels_match_adaptive_quad(dim):
    # k_closed_form at alpha = 1 sums the mixture on Gauss-Legendre panels;
    # check 4's radii, and radii where the geometric panels reach past 100 r to 1
    p = (dim + 1) / 2.0
    radii = np.concatenate([np.geomspace(1e-2, 10.0, 12), [1e-3, 3e-3, 1e2, 1e3]])
    got = acceptance.k_closed_form(ProcessSpec(1.0, dim), radii)
    mixture = [quad(lambda s: math.exp(-s) * (s * s + r * r) ** -p, 0.0, np.inf,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0] for r in radii]
    want = math.gamma(p) * math.pi ** -p * radii ** dim * np.array(mixture)
    assert np.max(np.abs(got / want - 1.0)) < 1e-13


def test_acceptance_05_recurrence_table():
    r = _run(acceptance.check_recurrence_table)
    assert r.elapsed < 1.0


def test_acceptance_06_mc_inversion_agreement():
    r = _run(acceptance.check_mc_inversion_agreement, seed=42)
    assert r.elapsed < 30.0


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_gridded_cdf_tracks_cdf_numeric_between_its_nodes(t):
    # linear between 1200 sample quantiles, 1.4e-4 to 2.5e-4 off at n = 1e5:
    # under 2 % of check 6's KS bar of 0.015
    spec = ProcessSpec(1.5, 1)
    samples = np.sort(sample_increment(spec, t, RngStream(5042), size=100_000))
    lo, hi = np.quantile(samples, [0.0005, 0.9995])
    inside = samples[(samples > lo) & (samples < hi)]
    x = inside[np.linspace(0, inside.size - 1, 2000).astype(int)]
    gap = np.max(np.abs(acceptance.gridded_cdf(spec, t, samples)(x) - cdf_numeric(spec, t, x)))
    assert gap < 5e-4, gap


def test_acceptance_07_form_equivalence():
    r = _run(acceptance.check_form_equivalence)
    assert r.elapsed < 30.0


def test_acceptance_08_ground_state_vs_dense_oracle():
    r = _run(acceptance.check_ground_state_oracle)
    assert r.elapsed < 20.0


def test_acceptance_09_eigenvalue_laws():
    r = _run(acceptance.check_eigenvalue_laws)
    assert r.elapsed < 60.0


def test_acceptance_10_feynman_kac_crosscheck():
    r = _run(acceptance.check_feynman_kac, seed=2024)
    assert r.elapsed < 120.0


def test_acceptance_11_cross_term_identity():
    r = _run(acceptance.check_cross_term, seed=5150)
    assert r.elapsed < 10.0


def test_acceptance_12_kato_diagnostic():
    r = _run(acceptance.check_kato)
    assert r.elapsed < 10.0


def test_sub_suites_reproduce_their_entries_of_the_all_suite():
    # each check is seeded by its place in CHECKS, whatever suite runs it
    every = {r.name: r for r in acceptance.run_suite("all", seed=42)}
    for suite in ("density", "feynman-kac"):
        for r in acceptance.run_suite(suite, seed=42):
            assert (r.passed, r.detail) == (every[r.name].passed, every[r.name].detail), r.name


def test_unknown_suite_is_a_key_error():
    with pytest.raises(KeyError, match="unknown suite 'bogus'"):
        acceptance.run_suite("bogus")


def test_gaussian_free_mean_oracles():
    # alpha = 2, t = 1 is the Laplace law: E e^(-X^2) = e^(1/4) (sqrt(pi)/2) erfc(1/2)
    laplace = math.exp(0.25) * math.sqrt(math.pi) / 2.0 * math.erfc(0.5)
    assert abs(acceptance.gaussian_free_mean(ProcessSpec(2.0, 1), 1.0) - laplace) < 1e-12
    # alpha = 1.5, t = 0.5 against the gamma-mixture density, convolved on y > 0
    spec = ProcessSpec(1.5, 1)
    ys, wy = _panel_nodes(np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 30),
                                          np.linspace(1.0, 8.0, 15)[1:]]))
    conv = 2.0 * float((np.exp(-ys ** 2) * acceptance.density_gamma_mixture(spec, 0.5, ys)) @ wy)
    assert abs(acceptance.gaussian_free_mean(spec, 0.5) - conv) < 1e-8
    # at t = 0.25 the mixture mass below s = 1e-20 is 1.1e-5, all of it at |x| < 1e-13
    ys, wy = _panel_nodes(np.concatenate([[0.0], np.geomspace(1e-60, 1.0, 120),
                                          np.linspace(1.0, 8.0, 15)[1:]]))
    conv = 2.0 * float((np.exp(-ys ** 2) * acceptance.density_gamma_mixture(spec, 0.25, ys)) @ wy)
    assert abs(acceptance.gaussian_free_mean(spec, 0.25) - conv) < 1e-9
    assert np.all(np.isfinite(acceptance.density_gamma_mixture(spec, 0.05, [1e-3, 1.0])))
    # agreement with adaptive quad of the same integral
    integrand = lambda xi: math.exp(-xi * xi / 4.0) * (1.0 + xi ** 1.5) ** -0.5
    ref = sum(quad(integrand, a, b, epsabs=1e-17, epsrel=1e-13, limit=400)[0]
              for a, b in ((0.0, 1.0), (1.0, 60.0))) / math.sqrt(math.pi)
    assert abs(acceptance.gaussian_free_mean(spec, 0.5) - ref) < 1e-12


def test_gamma_mixture_at_origin():
    spec = ProcessSpec(1.5, 1)
    xs = np.array([0.0, 0.3, 1.0])
    got = acceptance.density_gamma_mixture(spec, 0.7, xs)
    # p_t(0) = q_1(0) Gamma(t - d/alpha) / Gamma(t) = 6.52; an earlier quadrature read 5.09
    want = q1_at_zero(1.5, 1) * math.gamma(0.7 - 1.0 / 1.5) / math.gamma(0.7)
    assert abs(got[0] / want - 1.0) < 1e-12
    np.testing.assert_allclose(got[1:], acceptance.density_gamma_mixture(spec, 0.7, xs[1:]),
                               rtol=1e-14, atol=0.0)
    # t <= d/alpha: p_t(0) is infinite
    with pytest.raises(SingularPointError):
        acceptance.density_gamma_mixture(spec, 0.5, xs)
    assert np.all(np.isfinite(acceptance.density_gamma_mixture(spec, 0.5, xs[1:])))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gamma_mixture_gaussian_closed_form(dim):
    # alpha = 2: p_t(x) = 2 (|x|/2)^nu K_nu(|x|) / ((4 pi)^(d/2) Gamma(t)), nu = t - d/2
    xs = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 5.0, 20.0, 100.0])
    for t in (0.25, 0.5, dim / 2.0, dim / 2.0 + 0.5, 2.0, 4.0):
        nu = t - dim / 2.0
        want = (2.0 * (xs / 2.0) ** nu * kv(nu, xs)
                / ((4.0 * math.pi) ** (dim / 2.0) * math.gamma(t)))
        got = acceptance.density_gamma_mixture(ProcessSpec(2.0, dim), t, xs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"t = {t}")


@pytest.mark.parametrize("alpha, dim, t", [
    (0.3, 1, 3.0), (0.3, 3, 9.5), (0.99, 1, 0.5), (0.99, 3, 2.5), (1.01, 3, 2.5),
    (1.5, 1, 0.3), (1.5, 3, 1.5), (1.99, 1, 0.25), (1.99, 3, 1.0)])
def test_gamma_mixture_small_x_law(alpha, dim, t):
    # t < d/alpha: p_t(x) = C |x|^(alpha t - d) + p_0 + o(1), where p_0 is the
    # Beta value q_1(0) Gamma(t - d/alpha)/Gamma(t) continued below d/alpha.
    # With d - alpha t < alpha the o(1) term is smaller still, so the relative gap
    # to the leading law is (p_0/C) |x|^(d - alpha t) to 1 %; |x|^(d - alpha t) = 1e-6.
    spec = ProcessSpec(alpha, dim)
    c = (alpha * t * 2.0 ** (-alpha * t) * math.gamma((dim - alpha * t) / 2.0)
         / (surface_measure(dim) * math.gamma(dim / 2.0) * math.gamma(1.0 + alpha * t / 2.0)))
    x = 10.0 ** (-6.0 / (dim - alpha * t))
    p_0 = q1_at_zero(alpha, dim) * math.gamma(t - dim / alpha) / math.gamma(t)
    rate = p_0 / c * x ** (dim - alpha * t)
    rel = acceptance.density_gamma_mixture(spec, t, [x])[0] / (c * x ** (alpha * t - dim)) - 1.0
    assert abs(rel - rate) <= 1e-2 * abs(rate), (rel, rate)


@pytest.mark.parametrize("alpha, dim", [(0.3, 1), (0.99, 1), (1.01, 3), (1.5, 1), (1.5, 3),
                                        (1.99, 3)])
def test_gamma_mixture_log_law_at_critical_time(alpha, dim):
    # t = d/alpha: p_t(x) = alpha q_1(0) log(1/|x|)/Gamma(t) + R + O(|x|^alpha), with
    # the O(|x|^alpha) term q_1(0) |x|^alpha/Gamma(t) times an O(1) factor; rounding
    # of the oracle adds 1e-10 relative
    t = dim / alpha
    xs = np.array([1e-9, 1e-12])
    p = acceptance.density_gamma_mixture(ProcessSpec(alpha, dim), t, xs)
    scale = q1_at_zero(alpha, dim) / math.gamma(t)
    remainder = p - alpha * scale * np.log(1.0 / xs)
    tol = 10.0 * scale * xs[0] ** alpha + 1e-10 * p[1]
    assert abs(remainder[0] - remainder[1]) <= tol, (remainder, tol)


@pytest.mark.parametrize("alpha, dim, t", [
    (0.3, 1, 0.5), (0.99, 1, 0.5), (1.01, 3, 2.0), (1.5, 1, 0.5), (1.5, 3, 1.0),
    (1.99, 2, 0.5), (1.99, 3, 4.0)])
def test_gamma_mixture_large_x_law(alpha, dim, t):
    # p_t(x) ~ t large_x_constant |x|^(-d-alpha); the next power-series term gives
    # the relative gap (c_2/c_1)(1 + t) |x|^(-alpha), to 1 %; |x|^(-alpha) = 1e-6
    spec = ProcessSpec(alpha, dim)
    x = 10.0 ** (6.0 / alpha)
    c = tail_coefficients(alpha, dim)
    rate = c[1] / c[0] * (1.0 + t) * x ** -alpha
    p = acceptance.density_gamma_mixture(spec, t, [x])[0]
    rel = p / (t * large_x_constant(spec) * x ** (-dim - alpha)) - 1.0
    assert abs(rel - rate) <= 1e-2 * abs(rate) + 1e-12, (rel, rate)
