import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geostable import (ConfigError, GridDomain, MeasureOnGrid, ProcessSpec,
                       RngStream, SchrodingerProblem, apply_generator,
                       dense_ground_state, energy_form, feynman_kac_estimate,
                       irreducibility_cross_term, kato_diagnostic,
                       solve_ground_state)
from geostable.acceptance import (gaussian_free_mean, killed_oracle, reference_problem,
                                  trapezoid_chain)
from geostable.levy_structure import k_radial, small_x_constant
from geostable import schrodinger_ground
from geostable.schrodinger_ground import _periodized_jump_lags, _spectral_apply, torus_symbol

# jump-kernel energy of exp(-x^2) on (L, N) = (16, 1024), summed lag by lag
# over node pairs before the jump route became a spectral symbol; the alpha = 1.5
# pin was re-taken when d = 1 k became the sine integral of the tail identity
# (CHANGES.md has the old value)
JUMP_ENERGY_PINS = {
    1.0: 0.6673379420418808,
    1.5: 0.6571497461426601,
    2.0: 0.6697437077198672,
}


@pytest.fixture(scope="module")
def prob():
    return reference_problem()


@pytest.fixture(scope="module")
def ground(prob):
    return solve_ground_state(prob, tol=1e-11)


def test_domain_validation():
    GridDomain(16.0, 256)
    with pytest.raises(ValueError):
        GridDomain(16.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        GridDomain(16.0, 32)  # below the floor
    with pytest.raises(ValueError):
        GridDomain(-1.0, 256)


def test_measure_profiles_and_masses():
    dom = GridDomain(16.0, 256)
    ind = MeasureOnGrid.from_profile(dom, "indicator", half_width=1.0, height=0.5)
    assert abs(ind.total_mass - 1.0) < 0.1  # riemann mass of 0.5 * 1_[-1,1]
    tri = MeasureOnGrid.from_profile(dom, "triangle", half_width=2.0, height=1.0)
    assert abs(tri.total_mass - 2.0) < 0.1
    gau = MeasureOnGrid.from_profile(dom, "gaussian", half_width=1.0, height=1.0)
    assert abs(gau.total_mass - math.sqrt(math.pi)) < 0.01
    with pytest.raises(ValueError):
        MeasureOnGrid.from_profile(dom, "sawtooth")
    with pytest.raises(ValueError):
        MeasureOnGrid(dom, -np.ones(dom.N))


def test_measure_from_points_uses_nearest_node():
    dom = GridDomain(16.0, 256)
    m = MeasureOnGrid.from_profile(dom, "triangle", half_width=1.5, height=2.0)
    again = MeasureOnGrid.from_points(dom, dom.nodes(), m.weights)
    assert np.array_equal(again.weights, m.weights)
    # 0.4 h and -0.4 h both round to the node at 0, where the masses add
    nudged = MeasureOnGrid.from_points(dom, [0.4 * dom.h, -0.4 * dom.h], [1.0, 2.0])
    assert nudged.weights[dom.N // 2] == 3.0 and nudged.total_mass == 3.0
    for x in (-16.6, 16.0, math.nan):
        with pytest.raises(ConfigError, match="outside the grid"):
            MeasureOnGrid.from_points(dom, [x], [1.0])
    with pytest.raises(ConfigError):
        MeasureOnGrid.from_points(dom, [0.0, 1.0], [1.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_measure_refuses_non_finite_weights(bad):
    dom = GridDomain(16.0, 256)
    weights = np.zeros(dom.N)
    weights[3] = bad
    with pytest.raises(ConfigError, match="finite"):
        MeasureOnGrid(dom, weights)
    with pytest.raises(ConfigError, match="finite"):
        MeasureOnGrid.from_points(dom, [0.0], [bad])


def test_problem_validation():
    spec = ProcessSpec(1.5, 1)
    dom = GridDomain(16.0, 256)
    mup = MeasureOnGrid.from_profile(dom, "indicator", half_width=1.0, height=0.5)
    mum = MeasureOnGrid.from_profile(dom, "indicator", half_width=2.0)
    SchrodingerProblem(spec, dom, mup, mum)
    with pytest.raises(ValueError):  # transient regime rejected
        SchrodingerProblem(ProcessSpec(0.5, 1), dom, mup, mum)
    with pytest.raises(ValueError):  # trivial measure rejected
        SchrodingerProblem(spec, dom, MeasureOnGrid(dom, np.zeros(dom.N)), mum)
    with pytest.raises(ValueError):  # support too wide for the torus
        wide = MeasureOnGrid.from_profile(dom, "indicator", half_width=10.0)
        SchrodingerProblem(spec, dom, mup, wide)


def test_generator_constant_kernel_and_eigenvectors(prob):
    dom = prob.domain
    assert np.max(np.abs(apply_generator(prob, np.ones(dom.N)))) == 0.0
    xi = dom.rfft_freqs()[5]
    u = np.cos(xi * dom.nodes())
    hu = apply_generator(prob, u)
    lam = math.log1p(xi ** prob.spec.alpha)
    assert np.max(np.abs(hu - lam * u)) < 1e-12


def test_generator_self_adjoint_positive(prob):
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.standard_normal(prob.domain.N)
        v = rng.standard_normal(prob.domain.N)
        hu, hv = apply_generator(prob, u), apply_generator(prob, v)
        assert abs(hu @ v - u @ hv) < 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)
        assert u @ hu >= -1e-12 * (u @ u)


def test_energy_form_constants_and_positivity(prob):
    ones = np.ones(prob.domain.N)
    assert energy_form(prob, ones, ones, "multiplier") == 0.0
    assert abs(energy_form(prob, ones, ones, "jump_kernel")) < 1e-12
    rng = np.random.default_rng(12)
    for _ in range(5):
        u = rng.standard_normal(prob.domain.N)
        assert energy_form(prob, u, u, "multiplier") >= 0.0


def _bump_problem(alpha, dom):
    return SchrodingerProblem(
        ProcessSpec(alpha, 1), dom,
        MeasureOnGrid.from_profile(dom, "indicator", half_width=1.0, height=0.5),
        MeasureOnGrid.from_profile(dom, "indicator", half_width=2.0))


def test_energy_form_cross_method_agreement():
    dom = GridDomain(16.0, 1024)
    u = np.exp(-dom.nodes() ** 2)
    for alpha in (1.0, 1.5, 2.0):
        p = _bump_problem(alpha, dom)
        em = energy_form(p, u, u, "multiplier")
        ej = energy_form(p, u, u, "jump_kernel")
        assert abs(ej / em - 1.0) < 0.01, alpha


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_jump_symbol_matches_multiplier_mode_by_mode(alpha):
    p = _bump_problem(alpha, GridDomain(16.0, 1024))
    want = torus_symbol(p)[1:9]
    got = torus_symbol(p, "jump_kernel")[1:9]
    assert np.max(np.abs(got / want - 1.0)) < 1e-2


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("L, N", [(4.0, 64), (16.0, 256)])
def test_jump_lags_match_spline_free_image_sum(alpha, L, N):
    # j_per(l h) = sum_m w_m j(|l + m N| h) over m = -65..64, the two end images
    # at half weight, with j = k_radial(r)/r itself instead of its spline
    spec, dom = ProcessSpec(alpha, 1), GridDomain(L, N)
    m = np.arange(-65, 65)
    w = np.where((m == -65) | (m == 64), 0.5, 1.0)
    r = np.abs(np.arange(1, N)[:, None] + N * m[None, :]) * dom.h
    want = (w * k_radial(spec, r) / r).sum(axis=1)
    jlag = _periodized_jump_lags(spec, dom)
    assert jlag[0] == 0.0 and not jlag.flags.writeable
    assert np.array_equal(jlag[1:], jlag[:0:-1])
    assert np.max(np.abs(jlag[1:] / want - 1.0)) < 1e-9


def test_jump_energy_pinned():
    dom = GridDomain(16.0, 1024)
    u = np.exp(-dom.nodes() ** 2)
    for alpha, want in JUMP_ENERGY_PINS.items():
        got = energy_form(_bump_problem(alpha, dom), u, u, "jump_kernel")
        assert abs(got / want - 1.0) < 1e-13, alpha


_vec64 = arrays(float, 64, elements=st.floats(-1e3, 1e3))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(alpha=st.sampled_from([1.0, 1.5, 2.0]), u=_vec64, v=_vec64, c=st.floats(-1e3, 1e3))
def test_jump_form_properties(alpha, u, v, c):
    p = _bump_problem(alpha, GridDomain(16.0, 64))
    N, h = p.domain.N, p.domain.h
    e = lambda a, b: energy_form(p, a, b, "jump_kernel")
    tol = 1e-12 * (1.0 + np.linalg.norm(u)) * (1.0 + np.linalg.norm(v))
    assert abs(e(u, v) - e(v, u)) <= tol
    assert e(u, u) >= -1e-12 * (1.0 + u @ u)
    const = np.full(N, c)
    assert abs(e(const, v)) <= tol * (1.0 + abs(c))
    assert abs(e(const, const)) <= 1e-12 * (1.0 + c * c)
    # the Beurling-Deny double sum over node pairs, 0.5 h^2 sum_{i,m} J (u_i - u_m)(v_i - v_m)
    jlag = _periodized_jump_lags(p.spec, p.domain).copy()
    jlag[1] = jlag[-1] = 2.0 * small_x_constant(p.spec) / h
    i = np.arange(N)
    kern = jlag[(i[None, :] - i[:, None]) % N]
    want = 0.5 * h * h * np.sum(kern * np.subtract.outer(u, u) * np.subtract.outer(v, v))
    assert abs(e(u, v) - want) <= tol * h * jlag.sum()


def test_ground_state_matches_dense_oracle(prob, ground):
    dense = dense_ground_state(prob)
    assert abs(ground.lambda_ / dense.lambda_ - 1.0) < 1e-8
    hi = ground.h / np.linalg.norm(ground.h)
    hd = dense.h / np.linalg.norm(dense.h)
    if hi @ hd < 0:
        hd = -hd
    assert np.linalg.norm(hi - hd) < 1e-6


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_ground_state_cg_steps_flat_in_n(alpha):
    # the geometry of the torus benchmark; a diagonal preconditioner needs 570-2271 here
    counts = {}
    for L, N in ((32.0, 1024), (128.0, 16384)):
        res = solve_ground_state(_bump_problem(alpha, GridDomain(L, N)), tol=1e-10)
        assert 0 < res.cg_iterations <= 60, (N, res.cg_iterations)
        assert res.iterations <= 13, (N, res.iterations)
        counts[N] = res.cg_iterations
    assert counts[16384] <= 1.5 * counts[1024], counts


def test_reference_ground_state_cg_steps(ground):
    assert 0 < ground.cg_iterations <= 60
    assert ground.iterations <= 13


def _bump(dom, profile, center, half_width, height):
    mu = MeasureOnGrid.from_profile(dom, profile, center=center, half_width=half_width,
                                    height=height)
    # the solver needs the support inside |x| <= L/4; a gaussian never ends on its own
    return MeasureOnGrid(dom, mu.weights * (np.abs(dom.nodes()) <= dom.L / 4.0))


_profiles = st.tuples(st.sampled_from(["indicator", "triangle", "gaussian"]),
                      st.floats(-2.0, 2.0), st.floats(0.5, 2.0), st.floats(0.05, 5.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@example(alpha=2.0, N=256, minus=("triangle", 0.5, 2.0, 1.0), plus=None, node=(3, -9.0))
@example(alpha=1.0, N=64, minus=("gaussian", -1.0, 1.0, 0.05), plus=None, node=(-32, 1.0))
@given(alpha=st.floats(1.0, 2.0), N=st.sampled_from([64, 128, 256]),
       minus=_profiles, plus=_profiles,
       node=st.one_of(st.none(), st.tuples(st.integers(-32, 32), st.floats(-9.0, 1.0))))
def test_ground_state_matches_dense_property(alpha, N, minus, plus, node):
    dom = GridDomain(16.0, N)
    if node is None:
        mu_plus = _bump(dom, *plus)
    else:  # all of mu_plus on one node within L/4 of the origin, weight 1e-9 to 10
        weights = np.zeros(N)
        weights[N // 2 + node[0] * N // 256] = 10.0 ** node[1]
        mu_plus = MeasureOnGrid(dom, weights)
    problem = SchrodingerProblem(ProcessSpec(alpha, 1), dom, mu_plus, _bump(dom, *minus))
    it = solve_ground_state(problem, tol=1e-11)
    de = dense_ground_state(problem)
    assert de.cg_iterations == 0
    assert abs(it.lambda_ / de.lambda_ - 1.0) < 1e-8
    hi = it.h / np.linalg.norm(it.h)
    hd = de.h / np.linalg.norm(de.h)
    assert np.linalg.norm(hi - np.sign(hi @ hd) * hd) < 1e-6


def test_dense_ground_state_single_tiny_node():
    # lambda from 40-digit inverse iteration (mpmath LU) on the node-basis pencil; a
    # node-basis Cholesky of h H + W+ is 1.3e-5 off here, eps times its condition number
    dom = GridDomain(16.0, 64)
    weights = np.zeros(64)
    weights[35] = 1e-9
    problem = SchrodingerProblem(ProcessSpec(2.0, 1), dom, MeasureOnGrid(dom, weights),
                                 MeasureOnGrid.from_profile(dom, "indicator", half_width=1.0))
    want = 3.9999999929334220785e-10
    for res in (dense_ground_state(problem), solve_ground_state(problem, tol=1e-11)):
        assert abs(res.lambda_ / want - 1.0) < 1e-13


def test_ground_state_contracts(prob, ground):
    assert 0.0 < ground.lambda_ <= prob.mu_plus.total_mass / prob.mu_minus.total_mass + 1e-12
    assert ground.lambda_ <= 0.25 + 1e-12
    assert abs(ground.normalization_check - 1.0) < 1e-10
    assert ground.residual < 1e-10
    assert ground.h.min() > 0.0
    mirrored = ground.h[np.r_[0, np.arange(prob.domain.N - 1, 0, -1)]]
    assert np.max(np.abs(ground.h - mirrored)) < 1e-6 * np.max(np.abs(ground.h))


def test_ground_state_scaling_law(prob, ground):
    for c in (0.5, 2.0, 10.0):
        scaled = solve_ground_state(reference_problem(c_minus=c), tol=1e-11)
        assert abs(scaled.lambda_ * c / ground.lambda_ - 1.0) < 1e-8
        # same shape up to normalization
        a = scaled.h / np.linalg.norm(scaled.h)
        b = ground.h / np.linalg.norm(ground.h)
        assert np.linalg.norm(a - b) < 1e-7


def test_ground_state_monotone_in_measures(prob, ground):
    spec, dom = prob.spec, prob.domain
    bigger_plus = MeasureOnGrid(dom, prob.mu_plus.weights * 2.0)
    lam_up = solve_ground_state(
        SchrodingerProblem(spec, dom, bigger_plus, prob.mu_minus), tol=1e-11).lambda_
    assert lam_up >= ground.lambda_ - 1e-12
    smaller_minus = MeasureOnGrid.from_profile(dom, "indicator", half_width=1.0)
    lam_shrunk = solve_ground_state(
        SchrodingerProblem(spec, dom, prob.mu_plus, smaller_minus), tol=1e-11).lambda_
    assert lam_shrunk >= ground.lambda_ - 1e-12


def test_ground_state_grid_stability(ground):
    big = solve_ground_state(reference_problem(L=32.0, N=512), tol=1e-11)
    assert abs(big.lambda_ / ground.lambda_ - 1.0) < 0.01


def test_feynman_kac_bounds_and_zero_potential(prob):
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    est, se = feynman_kac_estimate(prob, f, 0.0, 0.25, 20_000, 1.0 / 64, RngStream(31))
    assert 0.0 <= est <= 1.0  # 0 <= e^{-A} f <= sup f
    est0, se0 = feynman_kac_estimate(prob, f, 0.0, 0.25, 20_000, 1.0 / 64, RngStream(32),
                                     rho=lambda x: np.zeros(np.shape(x)))
    assert est0 >= est - 3.0 * (se + se0)  # killing only decreases the expectation
    assert abs(est0 - gaussian_free_mean(prob.spec, 0.25)) < 3.5 * se0


def test_feynman_kac_control_variate_matches_expm_and_cuts_se(prob):
    # check 10's budget: 3 SE, the time step 2 |S_16(dt) - S_16(fine)| and the
    # torus wrap |S_32(fine) - S_16(fine)|, against S_32(fine), where S_L is the
    # trapezoid chain at half-width L; the dense expm at L = 16 checks S_16
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    t, dt, fine = 0.5, 1.0 / 256, 1.0 / 1024
    free_mean = gaussian_free_mean(prob.spec, t)
    est, se = feynman_kac_estimate(prob, f, 0.0, t, 20_000, dt, RngStream(2024),
                                   free_mean=free_mean)
    chain = trapezoid_chain(prob, f, t, fine)
    oracle = trapezoid_chain(reference_problem(L=32.0, N=512), f, t, fine)
    assert abs(killed_oracle(prob, f, t) - chain) < 1e-8
    budget = 3.0 * se + 2.0 * abs(trapezoid_chain(prob, f, t, dt) - chain) + abs(oracle - chain)
    assert abs(est - oracle) < budget
    _, se_plain = feynman_kac_estimate(prob, f, 0.0, t, 20_000, dt, RngStream(2024))
    assert se_plain >= 10.0 * se


def test_feynman_kac_plain_path_pinned(prob):
    # the plain path must stay bit-identical whatever the control-variate code does;
    # the pins were re-taken for the trapezoid clock (CHANGES.md has the old values)
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schrodinger_ground, "_FK_BATCH", 1_000)
        got = feynman_kac_estimate(prob, f, 0.0, 0.125, 3_000, 1.0 / 32, RngStream(5))
    assert got == (0.8568087591905034, 0.003877989531196626)
    got = feynman_kac_estimate(prob, f, 0.3, 0.125, 2_000, 1.0 / 32, RngStream(6),
                               free_mean=None)
    assert got == (0.7942861472630417, 0.004303666994230611)


def test_feynman_kac_trapezoid_clock_matches_grid_chain(prob):
    # at dt = 1/8 the left-point chain is 4.3e-4 below the trapezoid chain, so
    # the estimate tells the two clocks apart; the budget is 3 SE plus the
    # torus wrap, the gap of the chain between L = 16 and L = 32
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    wide = reference_problem(L=32.0, N=512)
    t, dt = 0.5, 1.0 / 8
    est, se = feynman_kac_estimate(prob, f, 0.0, t, 200_000, dt, RngStream(808),
                                   free_mean=gaussian_free_mean(prob.spec, t))
    chain = trapezoid_chain(wide, f, t, dt)
    budget = 3.0 * se + abs(chain - trapezoid_chain(prob, f, t, dt))
    assert abs(est - chain) < budget
    # the left-point chain (e^(-dt rho) P)^n f, P = e^(-dt H), at x = 0
    rho = wide.mu_plus.density_values()
    step = np.exp(-dt * torus_symbol(wide))
    u = f(wide.domain.nodes())
    for _ in range(round(t / dt)):
        u = np.exp(-dt * rho) * _spectral_apply(step, u)
    assert abs(est - u[wide.domain.N // 2]) > 2.0 * budget


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_feynman_kac_constant_potential_scales_free_estimate(prob, alpha):
    # rho = c kills every path by e^(-c t), on the same draws: the trapezoid's
    # endpoint term is (dt/2)(c - c) = 0; alpha = 2 takes every step as an event
    problem = SchrodingerProblem(ProcessSpec(alpha, 1), prob.domain, prob.mu_plus,
                                 prob.mu_minus)
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    c, t, dt = 0.7, 0.5, 1.0 / 32
    est, se = feynman_kac_estimate(problem, f, 0.2, t, 20_000, dt, RngStream(41),
                                   rho=lambda z: c)
    est0, se0 = feynman_kac_estimate(problem, f, 0.2, t, 20_000, dt, RngStream(41),
                                     rho=lambda z: 0.0)
    assert abs(est - math.exp(-c * t) * est0) < 1e-12
    assert abs(se - math.exp(-c * t) * se0) < 1e-12


def test_feynman_kac_validates_steps(prob):
    with pytest.raises(ValueError):
        feynman_kac_estimate(prob, lambda x: x, 0.0, 0.5, 100, 0.3, RngStream(1))
    with pytest.raises(ValueError):
        feynman_kac_estimate(prob, lambda x: x, 0.0, 0.0, 100, 0.1, RngStream(1))
    with pytest.raises(ConfigError, match="x0"):
        feynman_kac_estimate(prob, lambda x: x, math.inf, 0.5, 100, 0.1, RngStream(1))
    with pytest.raises(ConfigError, match="n_paths"):
        feynman_kac_estimate(prob, lambda x: x, 0.0, 0.5, 1, 0.5, RngStream(1))


def test_nan_settings_are_config_errors(prob):
    with pytest.raises(ConfigError, match="dt"):
        feynman_kac_estimate(prob, lambda x: x, 0.0, math.nan, 100, 0.1, RngStream(1))
    with pytest.raises(ConfigError, match="tol"):
        solve_ground_state(prob, tol=math.nan)


def test_feynman_kac_deterministic_given_seed(prob, monkeypatch):
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    a = feynman_kac_estimate(prob, f, 0.0, 0.125, 5_000, 1.0 / 32, RngStream(77))
    b = feynman_kac_estimate(prob, f, 0.0, 0.125, 5_000, 1.0 / 32, RngStream(77))
    assert a == b
    free_mean = gaussian_free_mean(prob.spec, 0.125)
    monkeypatch.setattr(schrodinger_ground, "_FK_BATCH", 2_000)
    a = feynman_kac_estimate(prob, f, 0.0, 0.125, 5_000, 1.0 / 32, RngStream(77),
                             free_mean=free_mean)
    b = feynman_kac_estimate(prob, f, 0.0, 0.125, 5_000, 1.0 / 32, RngStream(77),
                             free_mean=free_mean)
    assert a == b


def test_feynman_kac_independent_of_core_count(prob, monkeypatch):
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    free_mean = gaussian_free_mean(prob.spec, 0.125)
    started = []

    class Pool(schrodinger_ground.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(schrodinger_ground, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(schrodinger_ground, "_FK_BATCH", 2_000)

    def run(cores, n_paths, **kwargs):
        monkeypatch.setattr(schrodinger_ground, "_usable_cores", lambda: cores)
        return feynman_kac_estimate(prob, f, 0.0, 0.125, n_paths, 1.0 / 32, RngStream(9),
                                    **kwargs)

    assert run(1, 4_000) == run(2, 4_000)
    # three batches on two workers: the third starts once the first is summed
    assert run(1, 5_000) == run(2, 5_000) == run(3, 5_000)
    assert run(1, 5_000, free_mean=free_mean) == run(2, 5_000, free_mean=free_mean)
    assert started == [1, 2, 1, 2, 3, 1, 2]


def test_feynman_kac_memory_per_path(prob, monkeypatch):
    # each batch holds its positions and clocks, and no more batches are alive
    # than workers; the event walk adds seven vectors a slot, for a block of
    # 20,480 slots here, and at alpha = 2, where every step is an event, three
    # vectors a path
    monkeypatch.setattr(schrodinger_ground, "_usable_cores", lambda: 2)
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    feynman_kac_estimate(prob, f, 0.0, 1.0 / 32, 100, 1.0 / 32, RngStream(3))
    monkeypatch.setattr(schrodinger_ground, "_FK_BATCH", 50_000)
    gaussian = SchrodingerProblem(ProcessSpec(2.0, 1), prob.domain, prob.mu_plus, prob.mu_minus)
    for problem, dt in ((prob, 1.0 / 32), (prob, 1.0 / 256), (gaussian, 1.0 / 256)):
        tracemalloc.start()
        try:
            feynman_kac_estimate(problem, f, 0.0, 0.125, 100_000, dt, RngStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 8 / 100_000 <= 6.0


def test_kato_diagnostic_contracts(prob):
    ts = [1.0, 0.5, 0.1, 0.01]
    vals = kato_diagnostic(prob, ts)
    sup_rho = prob.mu_plus.density_values().max()
    assert all(v <= t * sup_rho * (1.0 + 1e-9) for v, t in zip(vals, ts))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.011 * sup_rho * 2
    with pytest.raises(ValueError):
        kato_diagnostic(prob, [0.1, 0.5])  # must be decreasing


def test_cross_term_identity_and_sign(prob):
    N, h = prob.domain.N, prob.domain.h
    u = 1.0 + 0.5 * np.sin(prob.domain.nodes())
    left = np.arange(N // 2)
    cross = irreducibility_cross_term(prob, left, u)
    assert cross < 0.0
    # the lattice double sum -h^2 sum_{i in A, l not in A} u_i u_l J_((i - l) mod N)
    jlag = _periodized_jump_lags(prob.spec, prob.domain)
    i, l = left, np.arange(N // 2, N)
    want = -h * h * np.sum(u[i, None] * u[None, l] * jlag[(i[:, None] - l[None, :]) % N])
    assert abs(cross / want - 1.0) < 1e-12
    assert irreducibility_cross_term(prob, np.array([], dtype=int), u) == 0.0
    with pytest.raises(ValueError):
        irreducibility_cross_term(prob, left, np.zeros(prob.domain.N))
