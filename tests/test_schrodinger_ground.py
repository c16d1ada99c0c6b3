import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geostable import (ConfigError, ConvergenceError, GridDomain, MeasureOnGrid,
                       ProcessSpec, RngStream, SchrodingerProblem, apply_generator,
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


def _whole_array_jump_lags(spec, dom):
    """The lag table as one 65N-long array through scipy's CubicSpline, folded at once."""
    from scipy.interpolate import CubicSpline
    h, N = dom.h, dom.N
    nodes = np.geomspace(h / 4.0, 65 * N * h, 1400)
    jv = k_radial(spec, nodes) / nodes
    keep = jv > 1e-290
    spline = CubicSpline(np.log(nodes[keep]), np.log(jv[keep]))
    log_r = np.log(h * np.arange(1, 65 * N))
    inside = log_r <= np.log(nodes[keep][-1])
    jn = np.zeros(65 * N)
    jn[1:][inside] = np.exp(spline(log_r[inside]))
    rows = jn.reshape(65, N)
    fold = rows[:-1].sum(axis=0) + 0.5 * rows[-1]
    return np.append(0.0, fold[1:] + fold[:0:-1])


def test_jump_lags_fold_row_by_row_in_small_memory():
    # the 65N radii were one array of 8.5 MB and its temporaries, a 35 MB peak
    spec, dom = ProcessSpec(1.5, 1), GridDomain(128.0, 16384)
    tracemalloc.start()
    try:
        jlag = _periodized_jump_lags.__wrapped__(spec, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    want = _whole_array_jump_lags(spec, dom)
    assert jlag[0] == want[0] == 0.0
    assert np.max(np.abs(jlag[1:] / want[1:] - 1.0)) <= 1e-13


def test_jump_lags_stop_where_the_kernel_underflows():
    # alpha = 2: j = e^-r / r is 0 in floats past r ~ 700, far inside 65 N h
    spec, dom = ProcessSpec(2.0, 1), GridDomain(64.0, 4096)
    want = _whole_array_jump_lags(spec, dom)
    jlag = _periodized_jump_lags.__wrapped__(spec, dom)
    assert np.array_equal(jlag == 0.0, want == 0.0)
    assert np.max(np.abs(jlag[want > 0] / want[want > 0] - 1.0)) <= 1e-13


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
        assert 0 < res.cg_iterations <= res.iterations, (N, res.cg_iterations)
        assert res.iterations <= 13, (N, res.iterations)
        counts[N] = res.cg_iterations
    assert counts[16384] <= 1.5 * counts[1024], counts


def test_reference_ground_state_cg_steps(ground):
    assert 0 < ground.cg_iterations <= ground.iterations
    assert ground.iterations <= 13


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_ground_state_cg_steps_flat_in_l(alpha):
    # at h = 1/16 mu_plus has 33 nodes, which r = floor(2 sqrt(N)) covers from N = 512 on
    for L in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
        dom = GridDomain(L, int(32 * L))
        res = solve_ground_state(_bump_problem(alpha, dom), tol=1e-10)
        assert res.residual < 1e-10
        if L == 8.0:  # 32 of 33 nodes held exactly: the first solve takes a second step
            assert res.corrected_nodes == 32
            assert res.cg_iterations <= res.iterations + 2, (L, res.cg_iterations)
        else:
            assert res.corrected_nodes == 33
            assert res.cg_iterations <= res.iterations, (L, res.cg_iterations)


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("weight", [1e-9, 1e-2, 1.0, 10.0])
def test_ground_state_cg_steps_flat_in_node_weight(N, weight):
    # all of mu_plus on one node: the preconditioner holds it exactly at any weight
    dom = GridDomain(8.0, N)
    weights = np.zeros(N)
    weights[N // 2] = weight
    problem = SchrodingerProblem(ProcessSpec(2.0, 1), dom, MeasureOnGrid(dom, weights),
                                 MeasureOnGrid.from_profile(dom, "indicator", half_width=1.0))
    res = solve_ground_state(problem, tol=1e-10)
    assert res.residual < 1e-10
    assert res.corrected_nodes == 1
    assert 0 < res.cg_iterations <= res.iterations, res.cg_iterations


def test_ground_state_wide_support_partial_correction():
    # 3483 nodes of mu_plus, r = 256 of them held exactly: the rest is the mean
    dom = GridDomain(128.0, 16384)
    problem = SchrodingerProblem(ProcessSpec(2.0, 1), dom,
                                 _bump(dom, "gaussian", 0.0, 1.0, 0.5),
                                 MeasureOnGrid.from_profile(dom, "indicator", half_width=2.0))
    assert np.count_nonzero(problem.mu_plus.weights) == 3483
    res = solve_ground_state(problem, tol=1e-10)
    assert res.corrected_nodes == 256
    assert res.residual < 1e-10
    assert 0 < res.cg_iterations <= 12, (res.iterations, res.cg_iterations)


def test_ground_state_mean_term_saves_cg_steps():
    # 191 nodes of mu_plus, r = 64 held exactly: with the rest at their mean wbar
    # the solves take 73 CG steps, with wbar = 0 110 (at alpha = 2 it reads 119 vs 107)
    dom = GridDomain(16.0, 1024)
    problem = SchrodingerProblem(
        ProcessSpec(1.0, 1), dom,
        MeasureOnGrid.from_profile(dom, "triangle", half_width=3.0, height=2.0),
        MeasureOnGrid.from_profile(dom, "indicator", half_width=2.0))
    assert np.count_nonzero(problem.mu_plus.weights) == 191
    res = solve_ground_state(problem, tol=1e-10)
    assert res.corrected_nodes == 64
    assert res.residual < 1e-10
    assert res.cg_iterations <= 85, (res.iterations, res.cg_iterations)


def _steps_beside_scipy(monkeypatch, problem):
    """Solve with every inner CG run by scipy.sparse.linalg.cg too; each must match it
    iterate for iterate, bit for bit.  Returns the solves' step counts."""
    from scipy.sparse.linalg import LinearOperator, cg as scipy_cg
    own_cg = schrodinger_ground.cg
    steps = []

    def both(matvec, b, *, atol, maxiter, M, callback=None):
        ours, theirs = [], []
        x, info = own_cg(matvec, b, atol=atol, maxiter=maxiter, M=M,
                         callback=lambda xk: ours.append(xk.copy()))
        op = lambda f: LinearOperator((b.size, b.size), matvec=f, dtype=float)  # noqa: E731
        y, scipy_info = scipy_cg(op(matvec), b, rtol=0.0, atol=atol, maxiter=maxiter, M=op(M),
                                 callback=lambda xk: theirs.append(xk.copy()))
        assert (info, len(ours)) == (scipy_info, len(theirs))
        assert all(np.array_equal(a, c) for a, c in zip(ours, theirs))
        assert np.array_equal(x, y)
        steps.append(len(ours))
        for xk in ours:
            callback(xk)
        return x, info

    monkeypatch.setattr(schrodinger_ground, "cg", both)
    res = solve_ground_state(problem, tol=1e-10)
    assert res.residual < 1e-10 and sum(steps) == res.cg_iterations
    return steps


def test_cg_takes_scipys_iterates_on_the_reference_problem(monkeypatch):
    # mu_plus's 17 nodes are held exactly: one step a solve
    steps = _steps_beside_scipy(monkeypatch, reference_problem())
    assert steps == [1] * len(steps)


def test_cg_takes_scipys_iterates_under_a_gaussian_mu_plus(monkeypatch):
    # 257 nodes of mu_plus, r = 64 held exactly: the solves take several steps
    dom = GridDomain(32.0, 1024)
    problem = SchrodingerProblem(ProcessSpec(1.5, 1), dom, _bump(dom, "gaussian", 0.0, 1.0, 0.5),
                                 MeasureOnGrid.from_profile(dom, "indicator", half_width=2.0))
    assert np.count_nonzero(problem.mu_plus.weights) == 257
    assert max(_steps_beside_scipy(monkeypatch, problem)) > 1


def test_cg_out_of_steps_matches_scipy():
    from scipy.sparse.linalg import cg as scipy_cg
    rng = np.random.default_rng(3)
    q = rng.standard_normal((40, 40))
    a = q @ q.T + 40.0 * np.eye(40)
    b = rng.standard_normal(40)
    inv_diag = 1.0 / np.diag(a)
    x, info = schrodinger_ground.cg(lambda v: a @ v, b, atol=1e-14, maxiter=3,
                                    M=lambda v: inv_diag * v)
    y, scipy_info = scipy_cg(a, b, rtol=0.0, atol=1e-14, maxiter=3, M=np.diag(inv_diag))
    assert info == scipy_info == 3
    np.testing.assert_allclose(x, y, rtol=1e-13)
    assert schrodinger_ground.cg(lambda v: a @ v, np.zeros(40), atol=0.0, maxiter=3,
                                 M=lambda v: v)[1] == 0


def test_ground_state_out_of_iterations_reports_its_residual():
    with pytest.raises(ConvergenceError, match="did not reach tol=1e-10 in 1 iterations") as err:
        solve_ground_state(reference_problem(), max_iter=1)
    assert 1e-3 < err.value.residual < 2e-3


def test_ground_state_diagnostics(prob, ground):
    assert ground.corrected_nodes == np.count_nonzero(prob.mu_plus.weights) == 17
    assert len(ground.residual_history) == ground.iterations
    assert ground.residual_history[-1] == ground.residual
    assert all(r >= 1e-11 for r in ground.residual_history[:-1])
    dense = dense_ground_state(prob)
    assert dense.corrected_nodes == 0 and dense.residual_history == []


def _bump(dom, profile, center, half_width, height):
    mu = MeasureOnGrid.from_profile(dom, profile, center=center, half_width=half_width,
                                    height=height)
    # the solver needs the support inside |x| <= L/4; a gaussian never ends on its own
    return MeasureOnGrid(dom, mu.weights * (np.abs(dom.nodes()) <= dom.L / 4.0))


_profiles = st.tuples(st.sampled_from(["indicator", "triangle", "gaussian"]),
                      st.floats(-2.0, 2.0), st.floats(0.5, 2.0), st.floats(0.05, 5.0))


def _dense_property(test):
    test = given(alpha=st.floats(1.0, 2.0), N=st.sampled_from([64, 128, 256]),
                 minus=_profiles, plus=_profiles,
                 node=st.one_of(st.none(),
                                st.tuples(st.integers(-32, 32), st.floats(-9.0, 1.0))))(test)
    test = example(alpha=1.0, N=64, minus=("gaussian", -1.0, 1.0, 0.05), plus=None,
                   node=(-32, 1.0))(test)
    test = example(alpha=2.0, N=256, minus=("triangle", 0.5, 2.0, 1.0), plus=None,
                   node=(3, -9.0))(test)
    return settings(derandomize=True, database=None, deadline=None, max_examples=30)(test)


@_dense_property
def test_ground_state_matches_dense_property(alpha, N, minus, plus, node):
    _check_against_dense(alpha, N, minus, plus, node)


@_dense_property
def test_ground_state_partial_correction_matches_dense_property(alpha, N, minus, plus, node):
    # only the 2 heaviest nodes of mu_plus are held exactly; the rest is the mean
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schrodinger_ground, "_corrected_rank", lambda N: 2)
        problem, res = _check_against_dense(alpha, N, minus, plus, node)
    assert res.corrected_nodes == min(2, np.count_nonzero(problem.mu_plus.weights))


def _check_against_dense(alpha, N, minus, plus, node):
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
    return problem, it


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
    # the second pin was re-taken for the two-batch plan (CHANGES.md has the old
    # values); alpha = 2 pins the walk where every step is an event
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schrodinger_ground, "_FK_BATCH", 1_000)
        got = feynman_kac_estimate(prob, f, 0.0, 0.125, 3_000, 1.0 / 32, RngStream(5))
    assert got == (0.8568087591905034, 0.003877989531196626)
    got = feynman_kac_estimate(prob, f, 0.3, 0.125, 2_000, 1.0 / 32, RngStream(6),
                               free_mean=None)
    assert got == (0.7936701448270819, 0.0043817720920743515)
    gaussian = SchrodingerProblem(ProcessSpec(2.0, 1), prob.domain, prob.mu_plus, prob.mu_minus)
    got = feynman_kac_estimate(gaussian, f, 0.3, 0.125, 3_000, 1.0 / 32, RngStream(7))
    assert got == (0.78359724727908, 0.003693108522365196)


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


def test_feynman_kac_runs_every_call_as_two_batches(prob, monkeypatch):
    # n paths run as batches of min(_FK_BATCH, ceil(n/2)): check 10's 100k paths
    # start two workers on two cores, and 200k paths keep batches of _FK_BATCH
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    started, sizes = [], []

    class Pool(schrodinger_ground.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    real_walk = schrodinger_ground._walk_into

    def walk_into(alpha, dt, steps, gen, x, *args):
        sizes.append(x.size)
        real_walk(alpha, dt, steps, gen, x, *args)

    monkeypatch.setattr(schrodinger_ground, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(schrodinger_ground, "_walk_into", walk_into)
    monkeypatch.setattr(schrodinger_ground, "_usable_cores", lambda: 2)
    feynman_kac_estimate(prob, f, 0.0, 1.0 / 16, 100_000, 1.0 / 16, RngStream(1))
    assert started == [2] and sizes == [50_000, 50_000]
    for n, plan in ((3, [2, 1]), (2_001, [1_001, 1_000]),
                    (200_001, [100_000, 100_000, 1])):
        sizes.clear()
        feynman_kac_estimate(prob, f, 0.0, 1.0 / 16, n, 1.0 / 16, RngStream(1))
        assert sorted(sizes, reverse=True) == plan


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
