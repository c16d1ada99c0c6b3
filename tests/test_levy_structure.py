import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1, k0, sici

from geostable import (ConfigError, ConsistencyError, ProcessSpec, Regime, SingularPointError,
                       asymptotic_report, density_inversion, k_radial, levy_density,
                       polar_levy_mass, verify_selfdecomposable)
from geostable import stable_kernel
from geostable.acceptance import k_closed_form
from geostable.levy_structure import (_far_series, _flat_radius, _k_tail_identity_d3,
                                      _polar_integral, exponential_tail_constant,
                                      large_x_constant, small_x_constant, surface_measure)
from geostable.stable_kernel import _char_integral


def j_closed_a2_d1(r):
    return math.exp(-r) / r


def j_closed_a1_d1(r):
    si, ci = sici(r)
    return (math.sin(r) * ci + math.cos(r) * (math.pi / 2.0 - si)) / (math.pi * r)


def j_closed_a2_d3(r):
    return math.exp(-r) * (1.0 + 1.0 / r) / (2.0 * math.pi * r ** 2)


def k_linnik(alpha, r):
    """d = 1 kernel alpha P(X_1 > r) from the Linnik law's real-integral density.

    p_1(x) = sin(pi a/2)/pi int_0^inf y^a e^(-y|x|)/(1 + 2 y^a cos(pi a/2) + y^(2a)) dy
    (Kotz & Ostrovskii 1996), integrated over x > r, with v = y r.  The
    denominator is (1 - z)^2 + 4 sin^2(pi (2 - a)/4) z, z = (v/r)^a, which
    cancels nothing near its peak at v = r as alpha -> 2.  No oscillation and
    no stable profile: it shares no code with either k_radial route.  Within
    1e-12 of mpmath on [1e-3, 1e4] for alpha <= 1.9999; from 1.99999 the
    peak, of width ~(2 - alpha), defeats quad.
    """
    e = 4.0 * math.sin(math.pi * (2.0 - alpha) / 4.0) ** 2

    def f(v):
        z = (v / r) ** alpha
        gap = 1.0 - z if z < 0.5 else -math.expm1(alpha * math.log(v / r))
        return math.exp(-v) / (gap * gap + e * z)

    kw = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    lo = min(r, 1.0)
    total = quad(f, 0.0, lo, weight="alg", wvar=(alpha - 1.0, 0.0), **kw)[0]
    for a, b in ((lo, r), (r, 2.0 * r), (2.0 * r, math.inf)):
        if b > a:
            total += quad(lambda v: v ** (alpha - 1.0) * f(v), a, b, **kw)[0]
    return alpha * math.sin(math.pi * alpha / 2.0) / math.pi * r ** -alpha * total


def test_levy_density_variance_gamma_oracle():
    spec = ProcessSpec(2.0, 1)
    assert abs(levy_density(spec, 1.0) / j_closed_a2_d1(1.0) - 1.0) < 1e-8
    assert abs(levy_density(spec, 2.0) / j_closed_a2_d1(2.0) - 1.0) < 1e-8
    for r in np.geomspace(0.1, 8.0, 40):
        assert abs(levy_density(spec, r) / j_closed_a2_d1(r) - 1.0) < 1e-8


def test_levy_density_cauchy_subordination_oracle():
    # alpha=1, d=1: the subordination integral has the sine/cosine-integral form
    spec = ProcessSpec(1.0, 1)
    for r in (0.05, 0.3, 1.0, 4.0, 20.0):
        assert abs(levy_density(spec, r) / j_closed_a1_d1(r) - 1.0) < 1e-9


def test_levy_density_gaussian_d3_oracle():
    spec = ProcessSpec(2.0, 3)
    for r in (0.1, 0.7, 2.0, 6.0):
        got = levy_density(spec, np.array([r, 0.0, 0.0]))
        assert abs(got / j_closed_a2_d3(r) - 1.0) < 1e-8


def test_levy_density_even_and_singular_origin():
    spec = ProcessSpec(1.5, 1)
    assert levy_density(spec, 0.8) == levy_density(spec, -0.8)
    with pytest.raises(SingularPointError):
        levy_density(spec, 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_levy_density_batch_equals_points(dim):
    spec = ProcessSpec(1.5, dim)
    pts = np.random.default_rng(dim).normal(scale=3.0, size=(50, dim))
    singles = [levy_density(spec, p[0] if dim == 1 else p) for p in pts]
    assert all(isinstance(v, float) for v in singles)
    batch = levy_density(spec, pts)
    assert batch.shape == (50,) and np.array_equal(batch, singles)
    if dim == 1:
        assert np.array_equal(levy_density(spec, pts[:, 0]), singles)
        # any array in d = 1 is a batch, even of one abscissa
        for one in (pts[:1, 0], pts[:1]):
            got = levy_density(spec, one)
            assert isinstance(got, np.ndarray) and got.shape == (1,) and got[0] == singles[0]
    with pytest.raises(SingularPointError):
        levy_density(spec, np.vstack([pts, np.zeros((1, dim))]))
    with pytest.raises(ValueError):
        levy_density(spec, np.ones((4, dim + 1)))


def test_k_matches_closed_forms():
    # alpha = 2: e^-r, r K_1(r)/pi, e^-r (1+r)/(2 pi); alpha = 1: Cauchy mixture by quad
    radii = np.geomspace(1e-2, 10.0, 12)
    for alpha in (1.0, 2.0):
        for dim in (1, 2, 3):
            spec = ProcessSpec(alpha, dim)
            assert np.max(np.abs(k_radial(spec, radii) / k_closed_form(spec, radii) - 1.0)) < 1e-6


def test_k_small_radius_limit():
    # k(0+) = alpha * int u^{d-1} q_1 du = alpha Gamma(d/2) / (2 pi^{d/2}); d=1 gives alpha/2
    for alpha, dim in ((1.0, 1), (1.5, 1), (2.0, 1), (1.5, 2), (0.7, 3)):
        spec = ProcessSpec(alpha, dim)
        assert abs(k_radial(spec, 1e-4) / small_x_constant(spec) - 1.0) < 0.01


def test_k_monotone_random_specs():
    rng = np.random.default_rng(314)
    alphas = np.linspace(0.5, 2.0, 16)
    for _ in range(200):
        spec = ProcessSpec(round(float(rng.choice(alphas)), 12), int(rng.choice([1, 2, 3])))
        r1, r2 = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(10.0), 2)))
        k1, k2 = k_radial(spec, r1), k_radial(spec, r2)
        assert k1 >= k2 - 1e-12 * k1


def test_k_scale_covariance_in_t_is_exact_multiplication():
    spec = ProcessSpec(1.3, 1)
    grid = np.geomspace(0.1, 5.0, 12)
    base = verify_selfdecomposable(spec, 1.0, grid)
    for t in (0.1, 2.5, 10.0):
        scaled = verify_selfdecomposable(spec, t, grid)
        assert np.array_equal(scaled.values, t * base.values)


def test_polar_levy_mass_oracle_and_additivity():
    spec = ProcessSpec(2.0, 1)
    mass = polar_levy_mass(spec, 1.0, 2.0)
    oracle = 2.0 * (exp1(1.0) - exp1(2.0))
    assert abs(mass / oracle - 1.0) < 1e-6
    m_ab = polar_levy_mass(spec, 0.5, 1.0)
    m_bc = polar_levy_mass(spec, 1.0, 3.0)
    m_ac = polar_levy_mass(spec, 0.5, 3.0)
    assert abs((m_ab + m_bc) / m_ac - 1.0) < 1e-8
    with pytest.raises(ValueError):
        polar_levy_mass(spec, 2.0, 1.0)


def test_polar_levy_mass_gaussian_d2_oracle():
    # alpha = 2, d = 2: J(a < |x| < b) = 2 pi int K_1(r)/pi dr = 2 (K_0(a) - K_0(b))
    mass = polar_levy_mass(ProcessSpec(2.0, 2), 0.1, 10.0)
    assert abs(mass / (2.0 * (k0(0.1) - k0(10.0))) - 1.0) < 1e-8


def test_polar_levy_mass_cauchy_d1_oracle():
    # alpha = 1, d = 1: 2 int_a^b j = (2/pi) int e^-s (atan(b/s) - atan(a/s)) / s ds
    mass = polar_levy_mass(ProcessSpec(1.0, 1), 0.1, 10.0)
    oracle = 2.0 / math.pi * quad(lambda s: math.exp(-s) * (math.atan(10.0 / s) - math.atan(0.1 / s)) / s,
                                  0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    assert abs(mass / oracle - 1.0) < 1e-8


def test_levy_measure_square_truncation_finite():
    # int (1 ^ |y|^2) J(dy): small-ball second moment plus tail mass, both finite
    for alpha, dim in ((0.8, 1), (1.5, 2)):
        spec = ProcessSpec(alpha, dim)
        omega = surface_measure(dim)
        rs_in = np.geomspace(1e-6, 1.0, 120)
        vals_in = k_radial(spec, rs_in) * rs_in  # r^2 * j * r^{d-1}
        inner = omega * np.trapezoid(vals_in, rs_in)
        tail = polar_levy_mass(spec, 1.0, 200.0)
        assert np.isfinite(inner) and np.isfinite(tail)
        assert inner > 0 and tail > 0


def test_selfdecomposable_certificate_and_theta_independence():
    table = verify_selfdecomposable(ProcessSpec(1.5, 1), 1.0, np.geomspace(0.01, 10.0, 30))
    assert table.monotone_certificate
    table3 = verify_selfdecomposable(ProcessSpec(2.0, 3), 0.1, np.geomspace(0.05, 5.0, 20))
    assert table3.monotone_certificate
    table2 = verify_selfdecomposable(ProcessSpec(1.5, 2), 1.0, np.geomspace(0.1, 5.0, 15))
    assert table2.monotone_certificate
    # j depends on x only through |x|: one radial table serves every direction
    theta = np.array([0.6, -0.8])
    for r, v in zip(table2.r_grid, table2.values):
        assert levy_density(table2.spec, r * theta) * r ** 2 == pytest.approx(v, rel=1e-14)


def test_asymptotic_small_x_reports():
    for alpha, dim in ((1.0, 1), (1.5, 1), (2.0, 1), (1.5, 2)):
        spec = ProcessSpec(alpha, dim)
        rep = asymptotic_report(spec, Regime.SMALL_X)
        assert rep.converged
        assert abs(rep.empirical_limit / rep.oracle_constant - 1.0) < 0.02
        # the oracle is the analytic limit alpha Gamma(d/2) / (2 pi^{d/2}), not k_radial
        assert rep.oracle_constant == small_x_constant(spec)
        # printed constant differs by exactly pi^{d/2}
        assert rep.paper_constant / small_x_constant(spec) == pytest.approx(
            math.pi ** (dim / 2.0), rel=1e-12)


def test_asymptotic_large_x_alpha1_matches_cauchy_constant():
    rep = asymptotic_report(ProcessSpec(1.0, 1), Regime.LARGE_X)
    assert abs(rep.empirical_limit * math.pi - 1.0) < 0.02
    assert abs(large_x_constant(ProcessSpec(1.0, 1)) - 1.0 / math.pi) < 1e-14
    # printed constant is low by 4^alpha
    assert rep.paper_constant * 4.0 == pytest.approx(large_x_constant(ProcessSpec(1.0, 1)), rel=1e-12)


def test_asymptotic_large_x_alpha2_exponential_profile():
    rep = asymptotic_report(ProcessSpec(2.0, 1), Regime.LARGE_X)
    assert abs(rep.empirical_limit - 1.0) < 0.02
    assert exponential_tail_constant(1) == 1.0
    assert rep.paper_constant == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert rep.relative_gap_paper > 0.4


def test_asymptotic_report_json():
    rep = asymptotic_report(ProcessSpec(1.5, 1), Regime.SMALL_X)
    data = json.loads(json.dumps(rep.to_dict()))
    assert set(data) == {"alpha", "dim", "regime", "paper_constant", "oracle_constant",
                         "empirical_limit", "relative_gap_paper", "relative_gap_oracle",
                         "converged"}
    assert data["regime"] == "SmallX"
    assert data["relative_gap_paper"] > 0
    assert data["empirical_limit"] == rep.empirical_limit


@pytest.mark.parametrize("route", ["k_radial", "k_radial_sine_d1", "k_radial_identity_d3",
                                   "density_inversion_d2"])
def test_polar_integral_memory_is_bounded(route):
    # head and power-tail series both run in row blocks of 2^18 pairs
    r = np.geomspace(1e-2, 1e3, 50_000)
    if route == "k_radial":  # K_0 of the polar integral
        call = lambda x: k_radial(ProcessSpec(0.5, 2), x)
    elif route == "k_radial_sine_d1":
        call = lambda x: k_radial(ProcessSpec(0.5, 1), x)
    elif route == "k_radial_identity_d3":
        call = lambda x: k_radial(ProcessSpec(0.5, 3), x)
    else:
        call = lambda x: density_inversion(ProcessSpec(0.7, 2), 4.0 / 0.7,
                                           np.column_stack([x, np.zeros_like(x)]))
    call(r[:8])  # the profile is built outside the trace
    tracemalloc.start()
    try:
        call(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("alpha, dim", [(1.5, 1), (1.9, 2)])
def test_k_radial_at_huge_radii_is_finite(alpha, dim):
    # (r / tail_start)^alpha overflows to inf there, and the suite turns a
    # RuntimeWarning into an error
    k = k_radial(ProcessSpec(alpha, dim), [1e100, 1e250, 1e300])
    assert np.all(np.isfinite(k) & (k >= 0.0))
    assert k[0] > 0.0


# the sweep of test_every_supported_alpha_validates_its_tail
SWEEP = [round(0.3 + 0.05 * i, 2) for i in range(34)] + [0.999, 1.001, 1.99, 1.999]


def test_d1_sine_route_matches_polar_integral():
    # k = alpha P(X_1 > r) by the sine rule against K_0 of the polar integral
    r = np.geomspace(1e-3, 1e4, 120)
    for alpha in SWEEP:
        spec = ProcessSpec(alpha, 1)
        gap = np.max(np.abs(k_radial(spec, r) / _polar_integral(spec, 0.0, r) - 1.0))
        assert gap < 1e-8, alpha


def test_far_series_matches_polar_integral():
    # k = sum c_k Gamma(k) r^(-k alpha), taken where its last kept term is at
    # most 1e-13 of the sum; every alpha takes it by r = 1e3
    r = np.geomspace(50.0, 1e5, 80)
    for dim, sweep in ((1, SWEEP), (3, [a for a in SWEEP if a <= 1.9])):
        for alpha in sweep:
            spec = ProcessSpec(alpha, dim)
            far, ok = _far_series(spec, r)
            assert ok[r >= 1e3].all(), (alpha, dim)
            gap = np.abs(far[ok] / _polar_integral(spec, 0.0, r[ok]) - 1.0)
            assert np.max(gap) < 1e-12, (alpha, dim)
            assert np.array_equal(k_radial(spec, r[ok]), far[ok])


def test_d1_far_tail_near_alpha_2_matches_linnik_integral():
    # the far series lifts the sine rule's relative error of 2e-13/(2 - alpha)
    # far out: 1.8e-9 before it, 9.3e-11 with it (past r ~ 7e4 quad warns of
    # roundoff on the piece [1, r], whose integrand is 0 in floats past v ~ 745)
    r = np.geomspace(10.0, 1e5, 36)
    want = np.array([k_linnik(1.999, x) for x in r])
    assert np.max(np.abs(k_radial(ProcessSpec(1.999, 1), r) / want - 1.0)) < 2e-10


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.999, 1.001, 1.5, 1.9, 1.99, 1.999, 1.9999])
def test_d1_kernel_matches_linnik_integral(alpha):
    # the sine rule's far-tail error grows like 2e-13/(2 - alpha): 1.9e-9 at
    # 1.999, 1.6e-8 at 1.9999, which is why k_radial leaves it past 1.999
    r = np.geomspace(1e-3, 1e4, 36)
    want = np.array([k_linnik(alpha, x) for x in r])
    assert np.max(np.abs(k_radial(ProcessSpec(alpha, 1), r) / want - 1.0)) < 1e-8


def test_d1_kernel_near_alpha_2_is_the_polar_integral():
    r = np.geomspace(1.0, 1e4, 40)
    spec = ProcessSpec(1.9999, 1)
    assert np.array_equal(k_radial(spec, r), _polar_integral(spec, 0.0, r))
    for alpha in (1.99999, 2.0 - 1e-8):  # no switch radius validates: refused, as before
        with pytest.raises(ConsistencyError, match="3e-9"):
            k_radial(ProcessSpec(alpha, 1), r)


def test_d3_identity_route_matches_polar_integral():
    # k_3 = (alpha/2 pi) r p_1^(1) + k_1/(2 pi) by the 1-D cos and sine rules near,
    # k's far series far out, against K_0 of the polar integral
    r = np.geomspace(1e-3, 1e4, 120)
    for alpha in [a for a in SWEEP if a <= 1.9]:
        spec = ProcessSpec(alpha, 3)
        gap = np.max(np.abs(k_radial(spec, r) / _polar_integral(spec, 0.0, r) - 1.0))
        assert gap < 1e-8, alpha


def test_d3_identity_route_builds_no_profile(monkeypatch):
    def refuse(*args):
        raise AssertionError("a stable profile was built")

    monkeypatch.setattr(stable_kernel, "StableRadialProfile", refuse)
    monkeypatch.setattr(stable_kernel, "_PROFILE_CACHE", {})
    r = np.concatenate([[1e-300, 1e-20], np.geomspace(1e-6, 1e6, 50)])
    for alpha in (0.3, 0.5, 1.0, 1.5, 1.9):
        k = k_radial(ProcessSpec(alpha, 3), r)
        assert np.all(np.isfinite(k) & (k > 0.0)), alpha
    with pytest.raises(AssertionError, match="profile"):
        k_radial(ProcessSpec(1.95, 3), r)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 1.9])
def test_d3_kernel_just_above_flat_radius_stays_below_its_limit(alpha):
    # k is a tail probability, so it never exceeds k(0+) = alpha/(4 pi); the
    # polar integral rose 2.4e-10 above it between r_c and 1e-5 at alpha = 1.5
    spec = ProcessSpec(alpha, 3)
    r = np.geomspace(0.99 * _flat_radius(spec), 1e-5, 200)
    table = verify_selfdecomposable(spec, 1.0, r)
    assert np.all(table.values <= alpha / (4.0 * math.pi) * (1.0 + 1e-14))
    assert table.monotone_certificate


def test_tail_identity_is_exact_at_alpha_2():
    # the cos rule is accurate in absolute terms, so r stops where e^-r is still large
    r = np.geomspace(1e-2, 5.0, 40)
    assert np.array_equal(k_radial(ProcessSpec(2.0, 1), r), np.exp(-r))
    d3 = k_closed_form(ProcessSpec(2.0, 3), r)
    assert np.max(np.abs(_k_tail_identity_d3(2.0, r) / d3 - 1.0)) < 1e-12


def test_d1_kernel_at_tiny_radii_is_its_limit():
    # k(0+) = alpha/2, and P(|X_1| <= r) is below 1e-16 of it at these radii for
    # alpha >= 0.3.  They lie below r_c, where k_radial returns the limit; the
    # sine rule, whose (y/r)^alpha overflows there but for the log-space rows,
    # gives it too
    r = np.array([1e-300, 1e-200, 1e-100])
    for alpha in SWEEP:
        k = k_radial(ProcessSpec(alpha, 1), r)
        assert np.max(np.abs(k / (alpha / 2.0) - 1.0)) < 1e-13, alpha
        rule = alpha / math.pi * _char_integral("sin", alpha - 1.0, alpha, 1.0, r)
        assert np.max(np.abs(rule / (alpha / 2.0) - 1.0)) < 1e-13, alpha


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_below_flat_radius_is_its_limit(dim):
    # below r_c every route returns k(0+) = alpha/|S^(d-1)|; the polar integral
    # had drifted off it there, by -8.1e-2 at 1e-300 and -1.4e-3 at 1e-80 for (1.5, 3)
    r = np.array([1e-300, 1e-80, 1e-40, 1e-20])
    above = np.geomspace(1e-6, 10.0, 9)
    omega = (2.0, 2.0 * math.pi, 4.0 * math.pi)[dim - 1]
    for alpha in (1.0, 1.5, 1.9, 2.0):
        spec = ProcessSpec(alpha, dim)
        assert r.max() < _flat_radius(spec)
        k = k_radial(spec, r)
        assert np.all(k == alpha / surface_measure(dim)), (alpha, k)
        assert abs(k[0] / (alpha / omega) - 1.0) < 1e-15
        assert [k_radial(spec, x) for x in r] == list(k)
        # a tiny radius in the batch leaves the others' bits alone
        assert np.array_equal(k_radial(spec, np.concatenate([r, above]))[r.size:],
                              k_radial(spec, above))


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_annulus_mass_at_tiny_radii(alpha, monkeypatch):
    # 2 int k(r)/r dr with k = alpha/2 to rounding: alpha ln(1e10)
    mass = polar_levy_mass(ProcessSpec(alpha, 1), 1e-300, 1e-290)
    assert abs(mass / (alpha * math.log(1e10)) - 1.0) < 1e-12
    # d = 2, 3: the mass between 1e-300 and 1e-20 is |S^(d-1)| k(0+) ln(1e280),
    # and the work does not grow with log(1/r_inner)
    radii = []

    def counted(spec, r):
        radii.append(np.size(r))
        return k_radial(spec, r)

    monkeypatch.setattr("geostable.levy_structure.k_radial", counted)
    for dim in (2, 3):
        spec = ProcessSpec(alpha, dim)
        radii.clear()
        deep = polar_levy_mass(spec, 1e-300, 1.0)
        assert sum(radii) <= 10 * math.ceil(24 * math.log(1e24))
        shallow = polar_levy_mass(spec, 1e-20, 1.0)
        assert abs((deep - shallow) / (alpha * math.log(1e280)) - 1.0) < 1e-12
    if alpha == 1.5:
        # the earlier all-quadrature value summed the polar integral's k below
        # 1e-12, which drifts off k(0+) (by 1.9e-7 at 1e-20), so it reads 6.5e-9 low
        assert abs(polar_levy_mass(ProcessSpec(1.5, 2), 1e-20, 1.0) / 68.45838641852664
                   - 1.0) < 1e-8


@pytest.mark.parametrize("r_inner", [1e-300, 1e-3])
def test_annulus_mass_at_alpha_2_matches_closed_forms(r_inner):
    # k = r K_1(r)/pi in d = 2 and e^-r (1 + r)/(2 pi) in d = 3
    mass2 = 2.0 * (k0(r_inner) - k0(1.0))
    mass3 = 2.0 * (exp1(r_inner) - exp1(1.0) + math.exp(-r_inner) - math.exp(-1.0))
    assert abs(polar_levy_mass(ProcessSpec(2.0, 2), r_inner, 1.0) / mass2 - 1.0) < 1e-12
    assert abs(polar_levy_mass(ProcessSpec(2.0, 3), r_inner, 1.0) / mass3 - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_below_supported_alpha_is_config_error(dim):
    with pytest.raises(ConfigError, match="alpha >= 0.3"):
        k_radial(ProcessSpec(0.2, dim), 1.0)


def test_levy_density_at_extreme_coordinates():
    # such norms come from hypot: 1e-200 is no origin and 1e200 squares to no inf
    assert abs(levy_density(ProcessSpec(1.5, 1), [[1e-200]])[0] / 0.75e200 - 1.0) < 1e-13
    # j = k/r^2 is ~2.4e399, beyond the float range: inf, with no RuntimeWarning
    assert levy_density(ProcessSpec(1.5, 2), [[1e-200, 0.0]])[0] == np.inf
    for dim in (2, 3):
        x = [[1e200] + [0.0] * (dim - 1)]
        assert levy_density(ProcessSpec(1.5, dim), x)[0] == 0.0
