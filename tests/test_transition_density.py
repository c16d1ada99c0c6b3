import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import kv

from geostable import (ConfigError, EmpiricalCdf, InversionNotIntegrableError, ProcessSpec,
                       RngStream, cdf_numeric, density_inversion, density_mc,
                       inversion_table, sample_increment)
from geostable.acceptance import density_gamma_mixture, gridded_cdf


def laplace_cdf(v):
    v = np.asarray(v, dtype=float)
    return np.where(v < 0, 0.5 * np.exp(v), 1.0 - 0.5 * np.exp(-v))


def test_inversion_laplace_oracle():
    spec = ProcessSpec(2.0, 1)
    for x in np.linspace(-10.0, 10.0, 41):
        assert abs(density_inversion(spec, 1.0, x) - 0.5 * math.exp(-abs(x))) < 1e-12


def test_inversion_tail_correction_sign_d1_d2():
    # pinned where the panel rule's cos / J0 tail correction once had the wrong sign
    spec = ProcessSpec(2.0, 1)
    for x in (0.3, 1.0, 3.0):
        assert abs(density_inversion(spec, 1.0, x) - 0.5 * math.exp(-x)) < 1e-12, x
    # alpha = 2, d = 2 is the Bessel potential (r/2)^(t-1) K_(t-1)(r) / (2 pi Gamma(t))
    spec, t = ProcessSpec(2.0, 2), 3.0
    for r in (0.3, 1.0, 3.0):
        want = (r / 2.0) ** (t - 1.0) * kv(t - 1.0, r) / (2.0 * math.pi * math.gamma(t))
        assert abs(density_inversion(spec, t, [r, 0.0]) - want) < 5e-13, r


def test_inversion_far_tail_is_never_negative():
    # the rule is accurate to about 1e-16 in absolute terms, where these tails are smaller
    x = np.array([20.0, 30.0, 40.0, 50.0])
    got = density_inversion(ProcessSpec(2.0, 1), 1.0, x)
    assert np.all(got >= 0.0)
    assert np.max(np.abs(got - 0.5 * np.exp(-x))) < 1e-15
    r = np.geomspace(1.0, 200.0, 60)
    assert np.all(density_inversion(ProcessSpec(2.0, 2), 1.5, np.c_[r, np.zeros_like(r)]) >= 0.0)


def test_inversion_d2_near_threshold_matches_bessel_potential():
    # alpha t = 2.1 and 2.4 against d = 2: the J0 integrand decays like r^(-1.1)
    spec = ProcessSpec(2.0, 2)
    r = np.array([0.05, 0.3, 1.0, 3.0, 10.0])
    for t in (1.05, 1.2):
        want = (r / 2.0) ** (t - 1.0) * kv(t - 1.0, r) / (2.0 * math.pi * math.gamma(t))
        got = density_inversion(spec, t, np.c_[r, np.zeros_like(r)])
        assert np.max(np.abs(got - want)) < 1e-12, t


def test_inversion_d3_near_threshold_matches_mixture():
    spec, t = ProcessSpec(1.5, 3), 2.1
    r = np.array([0.05, 0.5, 2.0, 5.0])
    got = density_inversion(spec, t, np.c_[r, np.zeros((r.size, 2))])
    assert np.max(np.abs(got - density_gamma_mixture(spec, t, r))) < 1e-8


def test_inversion_zero_point_beta_value():
    # (1/pi) int (1+r^2)^{-2} dr = 1/4
    assert abs(density_inversion(ProcessSpec(2.0, 1), 2.0, 0.0) - 0.25) < 1e-14


def test_inversion_refuses_subthreshold_t():
    spec = ProcessSpec(1.5, 1)
    with pytest.raises(InversionNotIntegrableError, match="density_mc"):
        density_inversion(spec, 0.5, 1.0)
    with pytest.raises(InversionNotIntegrableError):
        # boundary t = d/alpha excluded
        density_inversion(ProcessSpec(1.0, 1), 1.0, 0.3)


def test_inversion_near_integrability_threshold():
    # alpha*t barely above d: the integrand decays like r^(-1.05)
    spec = ProcessSpec(1.5, 1)
    t = 0.7  # alpha*t = 1.05 vs threshold 1.0
    vals = [density_inversion(spec, t, x) for x in (0.1, 1.0, 3.0)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    want = density_gamma_mixture(spec, t, [0.1, 1.0, 3.0])
    assert np.max(np.abs(np.array(vals) / want - 1.0)) < 1e-6


def test_inversion_symmetry_and_unimodality():
    spec = ProcessSpec(1.5, 1)
    assert density_inversion(spec, 1.0, 0.7) == density_inversion(spec, 1.0, -0.7)
    xs = np.linspace(0.0, 12.0, 60)
    vals = [density_inversion(spec, 1.0, x) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_inversion_multidimensional_matches_mixture():
    for dim in (2, 3):
        spec = ProcessSpec(1.5, dim)
        t = 2.5 if dim == 3 else 1.8
        for r in (0.0, 0.5, 2.0):
            x = np.zeros(dim)
            x[0] = r
            got = density_inversion(spec, t, x)
            want = density_gamma_mixture(spec, t, [r])[0]
            assert abs(got / want - 1.0) < 1e-7, (dim, r, got, want)


def test_inversion_table_mass_and_monotone_grid():
    # trapezoid carries a +h^2/12 convexity bias, so the mass cap needs h <= 0.1
    spec = ProcessSpec(2.0, 1)
    xs = np.linspace(-50.0, 50.0, 1601)
    table = inversion_table(spec, 1.0, xs)
    assert np.all(table.values >= 0)
    assert abs(np.trapezoid(table.values, xs) - 1.0) < 1e-3


def test_inversion_table_near_threshold_passes_mass_guard():
    # alpha t = 1.05: the cusp at 0 makes the trapezoid read 1.52 on this grid
    spec, t = ProcessSpec(1.5, 1), 0.7
    xs = np.linspace(-10.0, 10.0, 201)
    table = inversion_table(spec, t, xs)
    nz = xs != 0.0
    want = density_gamma_mixture(spec, t, xs[nz])
    assert np.max(np.abs(table.values[nz] - want)) < 1e-8


def test_chapman_kolmogorov_convolution():
    # p_1 * p_1 = p_2 for alpha=2, d=1 on a uniform grid
    spec = ProcessSpec(2.0, 1)
    h = 0.02
    xs = np.arange(-16.0, 16.0 + h / 2, h)
    p1 = 0.5 * np.exp(-np.abs(xs))  # closed form of the t=1 inversion (verified above)
    p2_conv = np.convolve(p1, p1, mode="same") * h
    mid = np.abs(xs) <= 5.0
    p2 = np.array([density_inversion(spec, 2.0, x) for x in xs[mid]])
    assert np.max(np.abs(p2_conv[mid] - p2)) < 1e-3


def test_cdf_values_and_monotonicity():
    spec = ProcessSpec(2.0, 1)
    assert cdf_numeric(spec, 1.0, 0.0) == 0.5
    assert abs(cdf_numeric(spec, 1.0, 1.0) - (1.0 - 0.5 * math.exp(-1.0))) < 1e-14
    assert abs(cdf_numeric(spec, 1.0, 60.0) - 1.0) < 1e-3
    xs = np.linspace(-8.0, 8.0, 33)
    vals = [cdf_numeric(ProcessSpec(1.5, 1), 2.0, x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert abs(vals[0] + vals[-1] - 1.0) < 1e-10  # symmetry F(-x) = 1 - F(x)


def test_cdf_matches_density_quadrature():
    from scipy.integrate import quad
    spec = ProcessSpec(1.5, 1)
    for x in (0.4, 1.7):
        direct, _ = quad(lambda y: density_inversion(spec, 2.0, y), 0.0, x,
                         limit=100, epsabs=1e-11, epsrel=1e-10)
        assert abs(cdf_numeric(spec, 2.0, x) - (0.5 + direct)) < 1e-8


def test_cdf_below_threshold_matches_variance_gamma():
    # t <= d/alpha: no density inversion, but the CDF integral still converges;
    # at alpha = 2 the density is |x|^nu K_nu(|x|) / (sqrt(pi) Gamma(t) 2^nu)
    from scipy.integrate import quad
    spec = ProcessSpec(2.0, 1)
    for t in (0.25, 0.5):
        nu = t - 0.5
        c = 1.0 / (math.sqrt(math.pi) * math.gamma(t) * 2.0 ** nu)
        for x in (0.1, 1.0, 3.0, 8.0):
            mass, _ = quad(lambda y: c * y ** nu * kv(nu, y), 0.0, x,
                           limit=200, epsabs=1e-14, epsrel=0.0)
            assert abs(cdf_numeric(spec, t, x) - (0.5 + mass)) < 1e-11, (t, x)
            assert abs(cdf_numeric(spec, t, -x) - (0.5 - mass)) < 1e-11, (t, x)


@pytest.mark.parametrize("t", [0.7, 0.8, 0.9, 1.0])
def test_cdf_far_point_near_threshold(t):
    # the panel rule stopped here on an untyped "oscillation count" error
    spec = ProcessSpec(1.5, 1)
    right, left = cdf_numeric(spec, t, 10.0), cdf_numeric(spec, t, -10.0)
    assert math.isfinite(right) and 0.5 < right < 1.0
    assert abs(left - (1.0 - right)) < 1e-15


def test_inversion_refuses_nan_and_nonpositive_t():
    spec = ProcessSpec(1.5, 1)
    with pytest.raises(ConfigError):
        cdf_numeric(spec, 0.0, 1.0)
    with pytest.raises(ConfigError):
        cdf_numeric(spec, 1.0, np.array([1.0, np.nan]))
    with pytest.raises(ConfigError):
        density_inversion(spec, 1.0, np.nan)
    # infinite x is a limit, not an error
    assert density_inversion(spec, 1.0, np.inf) == 0.0
    assert np.allclose(cdf_numeric(spec, 1.0, [-np.inf, np.inf]), [0.0, 1.0], rtol=0.0, atol=1e-15)


def test_density_mc_matches_laplace_ks():
    spec = ProcessSpec(2.0, 1)
    samples = density_mc(spec, 1.0, np.linspace(-10, 10, 101), 50_000, RngStream(21))
    assert samples.method == "MonteCarlo"
    assert samples.bandwidth is not None and 1e-3 <= samples.bandwidth <= 1.0
    draws = np.sort(sample_increment(spec, 1.0, RngStream(21), size=50_000))
    ks = EmpiricalCdf.from_samples(draws).ks_distance(laplace_cdf)
    assert ks < 0.01


def test_density_mc_memory_is_bounded():
    # the kernel sums run through one reusable block, not a grid-by-sample array
    grid = np.linspace(-4.0, 4.0, 161)
    tracemalloc.start()
    try:
        density_mc(ProcessSpec(1.5, 1), 2.0, grid, 100_000, RngStream(25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_density_mc_mean_symmetric():
    spec = ProcessSpec(1.5, 1)
    table = density_mc(spec, 1.0, np.linspace(-12, 12, 49), 20_000, RngStream(22))
    assert np.all(table.values >= 0)
    assert np.trapezoid(table.values, table.x_grid) <= 1.0 + 1e-3
    assert table.seed == 22 and table.n_samples == 20_000


def test_mc_inversion_ks_agreement():
    spec = ProcessSpec(1.5, 1)
    n = 20_000
    samples = sample_increment(spec, 2.0, RngStream(23), size=n)
    cdf = gridded_cdf(spec, 2.0, samples, n_grid=600)
    ks = EmpiricalCdf.from_samples(samples).ks_distance(cdf)
    assert ks < 2.0 / math.sqrt(n) + 0.005


def test_density_mc_covers_subthreshold_t():
    # inversion refuses t <= d/alpha, but sampling still produces the density
    spec = ProcessSpec(1.5, 1)
    with pytest.raises(InversionNotIntegrableError):
        density_inversion(spec, 0.5, 0.2)
    table = density_mc(spec, 0.5, np.linspace(-8, 8, 321), 5_000, RngStream(24))
    assert table.method == "MonteCarlo"
    assert np.all(table.values >= 0)
    assert table.values[160] == table.values.max()  # unimodal peak at the origin


def test_density_mc_validates_inputs():
    spec = ProcessSpec(1.5, 1)
    with pytest.raises(ValueError):
        density_mc(spec, 1.0, np.linspace(-1, 1, 5), 10, RngStream(1))
    with pytest.raises(ValueError):
        density_mc(spec, 0.0, np.linspace(-1, 1, 5), 2000, RngStream(1))


def test_table_serialization(tmp_path):
    spec = ProcessSpec(2.0, 1)
    table = inversion_table(spec, 1.0, np.linspace(-2, 2, 9))
    csv_path = tmp_path / "d.csv"
    json_path = tmp_path / "d.json"
    table.to_csv(csv_path)
    table.header_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,p"
    assert len(lines) == 10
    import json as _json
    header = _json.loads(json_path.read_text())
    assert header["method"] == "Inversion"
    assert header["alpha"] == 2.0
    assert header["seed"] is None
    assert header["quadrature_h"] == 1.0 / 80.0
    assert header["quadrature_nodes"] == 681


def test_table_rejects_supercritical_mass_and_wrong_method():
    spec = ProcessSpec(2.0, 1)
    xs = np.linspace(-1, 1, 11)
    with pytest.raises(ValueError):
        from geostable import DensityTable
        DensityTable(spec=spec, t=1.0, method="Inversion", x_grid=xs,
                     values=np.full(11, 10.0))
    with pytest.raises(InversionNotIntegrableError):
        from geostable import DensityTable
        DensityTable(spec=ProcessSpec(1.0, 1), t=0.5, method="Inversion",
                     x_grid=xs, values=np.zeros(11))


def test_empirical_cdf_basics():
    e = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
    assert e.count == 3
    assert np.array_equal(e.values, [1.0, 2.0, 3.0])
    assert e.evaluate(2.5) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        EmpiricalCdf(values=np.array([2.0, 1.0]), count=2)
