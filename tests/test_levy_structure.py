import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1, k0, sici

from geostable import (ProcessSpec, Regime, SingularPointError,
                       asymptotic_report, k_radial, levy_density,
                       polar_levy_mass, verify_selfdecomposable)
from geostable.acceptance import k_closed_form
from geostable.levy_structure import (exponential_tail_constant, large_x_constant,
                                      small_x_constant, surface_measure)


def j_closed_a2_d1(r):
    return math.exp(-r) / r


def j_closed_a1_d1(r):
    si, ci = sici(r)
    return (math.sin(r) * ci + math.cos(r) * (math.pi / 2.0 - si)) / (math.pi * r)


def j_closed_a2_d3(r):
    return math.exp(-r) * (1.0 + 1.0 / r) / (2.0 * math.pi * r ** 2)


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


def test_kfunction_table_csv(tmp_path):
    table = verify_selfdecomposable(ProcessSpec(1.5, 1), 1.0, np.geomspace(0.1, 2.0, 5))
    path = tmp_path / "k.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,k_value"
    assert len(lines) == 6
    r0, k0 = (float(v) for v in lines[1].split(","))
    assert r0 == pytest.approx(0.1)
    assert k0 == pytest.approx(table.values[0])


def test_asymptotic_small_x_reports():
    for alpha, dim in ((1.0, 1), (1.5, 1), (2.0, 1), (1.5, 2)):
        spec = ProcessSpec(alpha, dim)
        rep = asymptotic_report(spec, Regime.SMALL_X)
        assert rep.converged
        assert abs(rep.empirical_limit / rep.oracle_constant - 1.0) < 0.02
        # oracle agrees with the analytic limit alpha Gamma(d/2) / (2 pi^{d/2})
        assert abs(rep.oracle_constant / small_x_constant(spec) - 1.0) < 0.01
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


def test_asymptotic_report_json(tmp_path):
    rep = asymptotic_report(ProcessSpec(1.5, 1), Regime.SMALL_X)
    path = tmp_path / "rep.json"
    rep.to_json(path)
    data = json.loads(path.read_text())
    assert set(data) == {"alpha", "dim", "regime", "paper_constant", "oracle_constant",
                         "empirical_limit", "relative_gap_paper", "relative_gap_oracle",
                         "converged"}
    assert data["regime"] == "SmallX"
    assert data["relative_gap_paper"] > 0
