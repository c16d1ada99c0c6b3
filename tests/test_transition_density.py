import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from geostable import (ConfigError, DensityTable, EmpiricalCdf, ProcessSpec, RngStream,
                       SingularPointError, cdf_numeric, density_inversion, density_mc,
                       inversion_table, sample_increment)
from geostable.acceptance import gridded_cdf
from geostable.levy_structure import surface_measure
from geostable.stable_kernel import _panel_nodes, q1_at_zero
from geostable.transition_density import density_gamma_mixture


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


def test_inversion_below_threshold_values():
    # t <= d/alpha: (1 + r^alpha)^(-t) is not integrable, but the cos integral
    # still converges at x != 0; t = d/alpha is the boundary
    xs = np.array([0.2, 1.0, 3.0])
    for spec, t in ((ProcessSpec(1.5, 1), 0.5), (ProcessSpec(1.0, 1), 1.0),
                    (ProcessSpec(1.5, 1), 1.0 / 1.5)):
        got = density_inversion(spec, t, xs)
        assert np.all(np.diff(got) < 0.0)
        assert np.max(np.abs(got / density_gamma_mixture(spec, t, xs) - 1.0)) < 1e-8, t


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0, 1.3, 1.5, 1.9, 1.99])
def test_inversion_below_threshold_matches_polar_integral(alpha, dim):
    spec, r = ProcessSpec(alpha, dim), np.geomspace(1e-6, 10.0, 200)
    pts = r if dim == 1 else np.c_[r, np.zeros((r.size, 2))]
    for frac in (0.05, 0.3, 0.9, 0.999):
        t = frac * dim / alpha
        got = density_inversion(spec, t, pts)
        assert np.max(np.abs(got / density_gamma_mixture(spec, t, r) - 1.0)) < 1e-8, t


@pytest.mark.parametrize("t", [0.05, 0.25, 0.45])
def test_inversion_below_threshold_matches_variance_gamma(t):
    # alpha = 2, d = 1: p_t(x) = (|x|/2)^(t-1/2) K_(t-1/2)(|x|) / (Gamma(t) sqrt(pi))
    r = np.geomspace(1e-6, 10.0, 200)
    nu = t - 0.5
    want = (r / 2.0) ** nu * kv(nu, r) / (math.gamma(t) * math.sqrt(math.pi))
    got = density_inversion(ProcessSpec(2.0, 1), t, np.concatenate([-r, r]))
    assert np.max(np.abs(got / np.tile(want, 2) - 1.0)) < 1e-8


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.7, 1.5, 2.0])
def test_zero_point_is_beta_value_or_singular(alpha, dim):
    # p_t(0) is finite iff t > d/alpha; both density routes give one answer there
    spec = ProcessSpec(alpha, dim)
    origin = 0.0 if dim == 1 else np.zeros(dim)
    for t in (0.5 * dim / alpha, dim / alpha):
        with pytest.raises(SingularPointError, match=r"p_t\(0\) is infinite") as inv:
            density_inversion(spec, t, origin)
        with pytest.raises(SingularPointError) as mix:
            density_gamma_mixture(spec, t, [0.0])
        assert str(inv.value) == str(mix.value)
    t = 1.2 * dim / alpha
    want = q1_at_zero(alpha, dim) * math.gamma(t - dim / alpha) / math.gamma(t)
    got = density_inversion(spec, t, origin)
    assert got == density_gamma_mixture(spec, t, [0.0])[0]
    assert abs(got / want - 1.0) < 1e-12


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
    spec, t = ProcessSpec(1.5, 3), 2.5
    for r in (0.0, 0.5, 2.0):
        got = density_inversion(spec, t, np.array([r, 0.0, 0.0]))
        want = density_gamma_mixture(spec, t, [r])[0]
        assert abs(got / want - 1.0) < 1e-7, (r, got, want)


def _projected(spec, t, x):
    """p^(1)(x) = |S^(d-2)| int_0^inf v^(d-2) p^(d)(sqrt(x^2 + v^2)) dv.

    The first coordinate of the d-dimensional law is the one-dimensional law.
    p^(d) is density_inversion; Gauss-Legendre(10) on 4 geometric panels a
    decade of v in [1e-6, 1e8], with p^(d) taken as constant on [0, 1e-6].
    """
    d = spec.dim
    v, w = _panel_nodes(np.geomspace(1e-6, 1e8, 14 * 4 + 1))
    r = np.sqrt(x[:, None] ** 2 + v ** 2)
    p = density_inversion(spec, t, np.c_[r.ravel(), np.zeros((r.size, d - 1))])
    near = density_gamma_mixture(spec, t, x) * 1e-6 ** (d - 1) / (d - 1)
    return surface_measure(d - 1) * (near + (p.reshape(r.shape) * v ** (d - 2) * w).sum(axis=1))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("alpha, t", [(1.5, 1.0), (1.5, 3.0), (0.7, 2.0), (1.99, 0.8),
                                      (1.0, 2.5), (0.5, 4.5), (2.0, 1.05)])
def test_density_projects_onto_one_dimensional_inversion(dim, alpha, t):
    # the d = 1 cos rule shares no code with the polar integral (d = 2) or the sin rule (d = 3)
    x = np.array([0.05, 0.3, 1.0, 3.0])
    want = density_inversion(ProcessSpec(alpha, 1), t, x)
    assert np.max(np.abs(_projected(ProcessSpec(alpha, dim), t, x) / want - 1.0)) < 1e-9


def test_d2_density_refuses_alpha_below_profile_floor():
    # the polar integral needs the stable profile, which starts at alpha = 0.3
    for x in ([1.0, 0.0], [0.0, 0.0]):
        with pytest.raises(ConfigError, match="alpha >= 0.3"):
            density_inversion(ProcessSpec(0.2, 2), 11.0, x)


def test_inversion_header_names_the_cos_rule_only_where_it_ran():
    for dim, t in ((1, 1.0), (2, 2.0), (3, 3.0)):
        grid = np.linspace(0.0, 2.0, 5) if dim == 1 else np.eye(dim)
        head = inversion_table(ProcessSpec(1.5, dim), t, grid).header()
        if dim == 2:
            assert head["quadrature_h"] is None and head["quadrature_nodes"] is None
        else:
            assert head["quadrature_h"] == 1.0 / 80.0 and head["quadrature_nodes"] == 681


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


@pytest.mark.parametrize("alpha", [0.7, 1.5, 2.0])
@pytest.mark.parametrize("t", [0.05, 0.5, 3.0])
def test_cdf_stays_in_unit_interval(alpha, t):
    # rounding of the sine rule's pi/2 put F at 1 + 4.4e-16 and -4.4e-16 far out
    spec = ProcessSpec(alpha, 1)
    x = np.array([1e3, 1e12, np.inf])
    right, left = cdf_numeric(spec, t, x), cdf_numeric(spec, t, -x)
    assert np.all((right >= 0.0) & (right <= 1.0) & (left >= 0.0) & (left <= 1.0))
    assert np.max(np.abs(left - (1.0 - right))) < 1e-15


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


def test_density_mc_header_reports_binning():
    spec = ProcessSpec(1.5, 1)
    head = density_mc(spec, 1.0, np.linspace(-4, 4, 9), 2_000, RngStream(26)).header()
    bw = head["bandwidth"]
    assert head["bin_width"] == bw / 64
    # max|K''| (bin width)^2 / 8, with max|K''| = (2 pi)^(-1/2) bw^(-3)
    assert head["binning_error_bound"] == pytest.approx(
        (bw / 64) ** 2 / 8 / (math.sqrt(2 * math.pi) * bw ** 3), rel=1e-12)
    for table in (density_mc(ProcessSpec(1.5, 2), 1.0, np.zeros((1, 2)), 2_000, RngStream(26)),
                  inversion_table(spec, 2.0, np.linspace(-1, 1, 5))):
        assert table.header()["bin_width"] is None
        assert table.header()["binning_error_bound"] is None


def test_density_mc_infinite_grid_points_are_limits():
    spec = ProcessSpec(1.5, 1)
    grid = np.array([-np.inf, 0.0, np.inf])
    table = density_mc(spec, 1.0, grid, 2_000, RngStream(27))
    assert table.values[0] == 0.0 and table.values[2] == 0.0
    assert table.values[1] == density_mc(spec, 1.0, [0.0], 2_000, RngStream(27)).values[0] > 0
    # the lattice spans the finite points only: none at all leaves every value 0
    assert np.array_equal(density_mc(spec, 1.0, grid[[0, 2]], 2_000, RngStream(27)).values, [0, 0])
    assert density_mc(spec, 1.0, [], 2_000, RngStream(27)).values.size == 0


def _gaussian_mixture_kde_mean(dim, t, bw, x):
    """E K_bw(x - X) for X = sqrt(2G) N, G ~ Gamma(t): the Gaussian of variance 2g + bw^2,
    averaged over g.  With g = u^(1/t), g^(t-1) dg / Gamma(t) = du / Gamma(t+1)."""
    r2 = float(np.dot(x, x))

    def integrand(u):
        v = 2.0 * u ** (1.0 / t) + bw ** 2
        return math.exp(-u ** (1.0 / t)) * (2 * math.pi * v) ** (-dim / 2) * math.exp(-r2 / (2 * v))

    return quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-10, limit=200)[0] / math.gamma(t + 1)


@pytest.mark.parametrize("dim, t", [(2, 1.0), (3, 0.5)])
def test_density_mc_gaussian_mixture_in_higher_dims(dim, t):
    # alpha = 2: X = sqrt(2G) N, so the KDE's mean is one integral over G, and
    # K_bw^2 = (4 pi bw^2)^(-d/2) K_(bw/sqrt 2) gives its variance the same way;
    # t = 0.5 in d = 3 is below d/alpha, where p_t(0) is infinite
    n = 20_000
    pts = np.zeros((5, dim))
    pts[1, 0], pts[2, :2], pts[3, :2], pts[4, -1] = 0.5, (1.0, 1.0), (2.0, -1.0), 3.0
    table = density_mc(ProcessSpec(2.0, dim), t, pts, n, RngStream(28))
    bw = table.bandwidth
    for x, value in zip(pts, table.values):
        mean = _gaussian_mixture_kde_mean(dim, t, bw, x)
        second = (_gaussian_mixture_kde_mean(dim, t, bw / math.sqrt(2), x)
                  / (4 * math.pi * bw ** 2) ** (dim / 2))
        se = math.sqrt((second - mean ** 2) / n)
        assert abs(value - mean) < 6 * se, (x, value, mean, se)


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
    cdf = gridded_cdf(spec, 2.0, samples)
    ks = EmpiricalCdf.from_samples(samples).ks_distance(cdf)
    assert ks < 2.0 / math.sqrt(n) + 0.005


def test_density_mc_covers_subthreshold_t():
    # t <= d/alpha: the sampled density peaks at the origin, where p_t is infinite
    spec = ProcessSpec(1.5, 1)
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


def test_table_rejects_supercritical_mass_and_wrong_method():
    spec = ProcessSpec(2.0, 1)
    xs = np.linspace(-1, 1, 11)
    with pytest.raises(ValueError):
        DensityTable(spec=spec, t=1.0, method="Inversion", x_grid=xs,
                     values=np.full(11, 10.0))
    with pytest.raises(ValueError, match="method"):
        DensityTable(spec=spec, t=1.0, method="Fourier", x_grid=xs, values=np.zeros(11))
    # inversion tables hold every t > 0, below d/alpha too
    table = DensityTable(spec=ProcessSpec(1.0, 1), t=0.5, method="Inversion",
                         x_grid=xs, values=np.zeros(11))
    assert table.t == 0.5


def test_empirical_cdf_basics():
    e = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
    assert np.array_equal(e.values, [1.0, 2.0, 3.0])
    assert e.evaluate(2.5) == pytest.approx(2.0 / 3.0)
    assert e.ks_distance(lambda v: np.clip(v / 3.0, 0.0, 1.0)) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        EmpiricalCdf(values=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        EmpiricalCdf.from_samples([])


@pytest.mark.parametrize("alpha, t", [(1.5, 0.5), (0.7, 1.0), (1.9, 0.3)])
def test_inversion_at_tiny_x_follows_small_x_law(alpha, t):
    # (y/x)^alpha used to overflow at these x; below d/alpha,
    # p_t(x) ~ Gamma(1 - alpha t) sin(pi alpha t / 2)/pi |x|^(alpha t - 1)
    x = np.array([1e-100, 1e-200, 1e-300])
    law = math.gamma(1.0 - alpha * t) * math.sin(math.pi * alpha * t / 2.0) / math.pi
    got = density_inversion(ProcessSpec(alpha, 1), t, x)
    assert np.max(np.abs(got / (law * x ** (alpha * t - 1.0)) - 1.0)) < 1e-12
    assert np.array_equal(cdf_numeric(ProcessSpec(alpha, 1), t, np.concatenate([-x, x])),
                          np.full(6, 0.5))


def test_d2_density_where_x_squared_underflows():
    # |x|^2 = 1e-400 is 0 in floats, while p_t(x) ~ C |x|^(alpha t - 2) is ~1e249
    p = density_inversion(ProcessSpec(1.5, 2), 0.5, [[1e-200, 0.0], [0.0, 1e-300]])
    assert 1e248 < p[0] < 1e250
    assert p[1] == np.inf  # ~1e374, past the float range
