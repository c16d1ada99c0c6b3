import math
import re
import warnings

import numpy as np
import pytest

import geostable as gs
from geostable import (ConfigError, ProcessSpec, RecurrenceClass, char_function,
                       classify_recurrence, hartman_wintner_ratio,
                       inversion_integrable, symbol)
from geostable.levy_structure import large_x_constant
from geostable.process_core import gamma, point_radii, rgamma
from geostable.schrodinger_ground import torus_symbol
from geostable.transition_density import density_gamma_mixture


def test_spec_validation():
    ProcessSpec(2.0, 1)
    ProcessSpec(0.1, 3)
    with pytest.raises(ValueError):
        ProcessSpec(0.0, 1)
    with pytest.raises(ValueError):
        ProcessSpec(2.5, 1)
    with pytest.raises(ValueError):
        ProcessSpec(1.0, 0)


_S = ProcessSpec(1.5, 1)
_DOMAIN = gs.GridDomain(16.0, 64)
_BUMP = gs.MeasureOnGrid.from_profile(_DOMAIN, "indicator")
_PROB = gs.SchrodingerProblem(_S, _DOMAIN, _BUMP, _BUMP)
_ONES = np.ones(64)


@pytest.mark.parametrize("call", [
    lambda: ProcessSpec(math.nan, 1),
    lambda: char_function(_S, math.nan, 1.0),
    lambda: inversion_integrable(_S, 0.0),
    lambda: gs.GridDomain(math.nan, 64),
    lambda: gs.MeasureOnGrid(_DOMAIN, np.full(64, math.nan)),
    lambda: gs.MeasureOnGrid.from_profile(_DOMAIN, "indicator", half_width=math.nan),
    lambda: gs.SchrodingerProblem(ProcessSpec(1.5, 2), _DOMAIN, _BUMP, _BUMP),
    lambda: gs.kato_diagnostic(gs.SchrodingerProblem(_S, _DOMAIN, _BUMP, _BUMP), [math.nan]),
    lambda: gs.verify_selfdecomposable(_S, math.nan, [1.0, 2.0]),
    lambda: gs.k_radial(_S, [1.0, -1.0]),
    lambda: gs.polar_levy_mass(_S, 2.0, 1.0),
    lambda: gs.sample_increment(_S, math.nan, gs.RngStream(1)),
    lambda: gs.sample_increment(_S, 0.0, gs.RngStream(1)),
    lambda: gs.stable_density(_S, math.nan, 1.0),
    lambda: gs.density_mc(_S, math.nan, [0.0], 1000, gs.RngStream(1)),
    lambda: gs.density_mc(_S, 1.0, [0.0, math.nan], 1000, gs.RngStream(1)),
    lambda: gs.density_mc(_S, 1.0, 0.0, 1000, gs.RngStream(1)),
    lambda: gs.density_mc(_S, 1.0, np.zeros((3, 1)), 1000, gs.RngStream(1)),
    lambda: gs.density_mc(ProcessSpec(1.5, 2), 1.0, np.zeros((3, 3)), 1000, gs.RngStream(1)),
    lambda: gs.density_mc(ProcessSpec(1.5, 2), 1.0, np.zeros(2), 1000, gs.RngStream(1)),
    lambda: gs.GridDomain(math.inf, 64),
    lambda: gs.sample_increment(_S, math.inf, gs.RngStream(1)),
    lambda: gs.density_inversion(_S, math.inf, 0.5),
    lambda: gs.inversion_table(_S, math.inf, [0.0, 1.0]),
    lambda: gs.density_mc(_S, math.inf, [0.0], 1000, gs.RngStream(1)),
    lambda: gs.kato_diagnostic(gs.SchrodingerProblem(_S, _DOMAIN, _BUMP, _BUMP), [math.inf]),
    lambda: gs.feynman_kac_estimate(gs.SchrodingerProblem(_S, _DOMAIN, _BUMP, _BUMP), _BUMP,
                                    0.0, math.inf, 2, 0.5, gs.RngStream(1)),
    lambda: gs.feynman_kac_estimate(gs.SchrodingerProblem(_S, _DOMAIN, _BUMP, _BUMP), _BUMP,
                                    0.0, math.inf, 2, math.inf, gs.RngStream(1)),
    lambda: gs.polar_levy_mass(_S, 0.1, math.inf),
    lambda: gs.verify_selfdecomposable(_S, 1.0, [0.1, math.inf]),
    lambda: char_function(_S, math.inf, 0.0),
    lambda: gs.cdf_numeric(_S, math.inf, 0.5),
    lambda: gs.sample_increment(_S, 1.0, gs.RngStream(1), size=-1),
    lambda: gs.sample_increment(_S, 1.0, gs.RngStream(1), size=2.5),
    lambda: gs.sample_increment(_S, 1.0, gs.RngStream(1), size=np.int64(-3)),
    lambda: gs.sample_stable(_S, gs.RngStream(1), size=-1),
    lambda: gs.sample_stable(_S, gs.RngStream(1), size=2.0),
    lambda: gs.sample_increment(_S, 1.0, gs.RngStream(1), size=np.float64(3.0)),
    lambda: gs.sample_increment(_S, 1.0, gs.RngStream(1), size=True),
    lambda: gs.stable_density(_S, 1.0, [math.nan]),
    lambda: gs.radial_profile(1.5, 1).density(math.nan),
    lambda: gs.stable_density(_S, math.inf, 1.0),
    lambda: symbol(_S, np.array([0.5, math.nan])),
    lambda: torus_symbol(_PROB, "nope"),
    lambda: gs.energy_form(_PROB, _ONES, _ONES, method="nope"),
    lambda: gs.apply_generator(_PROB, _ONES[:-1]),
    lambda: gs.energy_form(_PROB, _ONES, _ONES[:-1]),
    lambda: gs.irreducibility_cross_term(_PROB, [0], _ONES[:-1]),
    lambda: gs.feynman_kac_estimate(_PROB, _ONES[:-1], 0.0, 0.5, 2, 0.25, gs.RngStream(1)),
    lambda: large_x_constant(ProcessSpec(2.0, 1)),
    lambda: gs.radial_profile(0.0, 1),
    lambda: gs.radial_profile(2.5, 1),
    lambda: gs.radial_profile(math.nan, 1),
    lambda: gs.MeasureOnGrid(_DOMAIN, np.ones(65)),
    lambda: gs.SchrodingerProblem(
        _S, _DOMAIN, _BUMP, gs.MeasureOnGrid.from_profile(gs.GridDomain(16.0, 128), "indicator")),
    lambda: gs.kato_diagnostic(_PROB, []),
], ids=["ProcessSpec", "char_function", "inversion_integrable", "GridDomain", "MeasureOnGrid",
        "from_profile", "SchrodingerProblem", "kato_diagnostic", "verify_selfdecomposable",
        "k_radial", "polar_levy_mass", "sample_increment", "sample_increment_zero_time",
        "stable_density",
        "density_mc", "density_mc_nan_grid", "density_mc_scalar_grid", "density_mc_column_grid",
        "density_mc_wide_grid", "density_mc_flat_grid_2d", "GridDomain_inf",
        "sample_increment_inf", "density_inversion_inf", "inversion_table_inf", "density_mc_inf",
        "kato_diagnostic_inf", "feynman_kac_inf", "feynman_kac_inf_dt", "polar_levy_mass_inf",
        "verify_selfdecomposable_inf", "char_function_inf",
        "cdf_numeric_inf", "sample_increment_size_negative", "sample_increment_size_fraction",
        "sample_increment_size_numpy_negative", "sample_stable_size_negative",
        "sample_stable_size_float", "sample_increment_size_numpy_float",
        "sample_increment_size_bool", "stable_density_nan_batch", "profile_density_nan",
        "stable_density_inf", "symbol_nan", "torus_symbol_method", "energy_form_method",
        "apply_generator_length", "energy_form_length", "cross_term_length",
        "feynman_kac_f_length", "large_x_constant_alpha_2", "radial_profile_alpha_0",
        "radial_profile_alpha_2.5", "radial_profile_alpha_nan", "MeasureOnGrid_length",
        "SchrodingerProblem_other_grid", "kato_diagnostic_empty"])
def test_argument_checks_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


def _ground_state_result(lambda_=0.2, h=(1.0, 2.0), normalization_check=1.0):
    return gs.GroundStateResult(lambda_=lambda_, h=np.asarray(h), residual=0.0, iterations=1,
                                normalization_check=normalization_check, cg_iterations=1,
                                corrected_nodes=0, residual_history=[0.0])


def _asymptotic_report(empirical_limit):
    return gs.AsymptoticReport(_S, gs.Regime.LARGE_X, 1.0, 1.0, empirical_limit, 0.0, 0.0)


def _density_table(x_grid, values):
    return gs.DensityTable(_S, 1.0, "Inversion", np.asarray(x_grid), np.asarray(values))


@pytest.mark.parametrize("make, error, message", [
    (lambda: gs.KFunctionTable(_S, [1.0, 1.0], [1.0, 1.0], True), ValueError, "increasing"),
    (lambda: gs.KFunctionTable(_S, [1.0, 2.0], [1.0], True), ValueError, "same length"),
    (lambda: gs.KFunctionTable(_S, [1.0, 2.0], [1.0, math.nan], True), ValueError, "finite"),
    (lambda: gs.KFunctionTable(_S, [1.0, 2.0], [1.0, -1.0], True), ValueError, "nonnegative"),
    (lambda: _density_table([0.0, 1.0], [0.1, -0.1]), ValueError, "nonnegative"),
    (lambda: _density_table([1.0, 0.0], [0.1, 0.1]), ValueError, "increasing"),
    (lambda: _asymptotic_report(0.0), ValueError, "positive"),
    (lambda: _asymptotic_report(math.nan), ValueError, "positive, got nan"),
    (lambda: _ground_state_result(lambda_=0.0), gs.ConsistencyError, "positive"),
    (lambda: _ground_state_result(normalization_check=1.0 + 1e-9), gs.ConsistencyError,
     "constraint"),
    (lambda: _ground_state_result(h=(1.0, -0.1)), gs.ConsistencyError, "not positive"),
], ids=["k_table_grid", "k_table_length", "k_table_nan", "k_table_negative",
        "density_table_negative", "density_table_grid", "asymptotic_report_zero_limit",
        "asymptotic_report_nan_limit",
        "ground_state_lambda", "ground_state_normalization", "ground_state_sign"])
def test_result_records_refuse_inconsistent_fields(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_gamma_mixture_refuses_bad_times(t):
    # it returned 0.0 and -0.0 at t = 0 and -1, and warned at nan and inf
    with pytest.raises(ConfigError, match="time must be positive and finite"):
        density_gamma_mixture(ProcessSpec(1.5, 2), t, [1.0])


@pytest.mark.parametrize("alpha, dim", [(0.5, 1), (1.5, 2), (0.3, 3)])
def test_tiny_scale_is_refused_and_just_above_its_bound_is_finite(alpha, dim):
    # s ** (-d/alpha) raised a bare OverflowError at s = 1e-300
    spec = ProcessSpec(alpha, dim)
    # points at radii 0, 1 and 1e300 on the first axis, whose hypot is the radius exactly
    x = np.outer([0.0, 1.0, 1e300], np.eye(dim)[0])
    for p in x[:2]:
        with pytest.raises(ConfigError, match="s must be at least") as refused:
            gs.stable_density(spec, 1e-300, p)
    with pytest.raises(ConfigError, match="s must be at least"):
        gs.stable_density(spec, 1e-300, np.ones(dim))
    bound = float(re.search(r"at least (\S+) at", str(refused.value)).group(1))
    with pytest.raises(ConfigError, match="s must be at least"):
        gs.stable_density(spec, math.nextafter(bound, 0.0), x[0])
    s = math.nextafter(bound, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = gs.stable_density(spec, s, x)
        point = gs.stable_density(spec, s, np.eye(dim)[0])  # |x| = 1
    assert np.all(np.isfinite(near)) and near[0] > 1e306 and near[2] == 0.0
    assert point == near[1]


def test_radial_arguments_name_the_refused_value():
    with pytest.raises(ConfigError, match="x must not be NaN"):
        gs.stable_density(_S, 1.0, [1.0, math.nan])
    with pytest.raises(ConfigError, match="r must be nonnegative, got -2.0"):
        gs.radial_profile(1.5, 1).density([1.0, -2.0])
    for r in (0.0, -1.0, math.nan):  # k_radial keeps its message for r <= 0
        with pytest.raises(ConfigError, match=f"r must be positive, got {r}"):
            gs.k_radial(_S, [1.0, r])


def test_sampler_size_names_the_refused_value():
    with pytest.raises(ConfigError, match="2.5"):
        gs.sample_increment(_S, 1.0, gs.RngStream(1), size=2.5)


@pytest.mark.parametrize("size", [None, 0, 3, np.int64(3), np.uint8(3)])
def test_sampler_sizes_keep_shapes_and_bits(size):
    n = 1 if size is None else int(size)
    shape = () if size is None else (n,)
    for draw in (lambda s: gs.sample_increment(_S, 1.0, gs.RngStream(5), size=s),
                 lambda s: gs.sample_stable(_S, gs.RngStream(5), size=s)):
        got = draw(size)
        assert np.shape(got) == shape
        # every accepted size draws the bits of the same count given as a Python int
        assert np.array_equal(np.ravel(got), np.ravel(draw(n)))
    assert gs.sample_increment(ProcessSpec(1.5, 2), 1.0, gs.RngStream(5), size=0).shape == (0, 2)


def test_symbol_values():
    assert symbol(ProcessSpec(2.0, 1), 0.0) == 0.0
    assert abs(symbol(ProcessSpec(2.0, 1), 1.0) - math.log(2.0)) < 1e-15
    assert abs(symbol(ProcessSpec(1.0, 1), math.e - 1.0) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        symbol(ProcessSpec(1.0, 1), -0.5)


def test_symbol_monotone_and_zero_only_at_origin():
    spec = ProcessSpec(1.3, 2)
    xs = np.linspace(0.0, 30.0, 400)
    vals = symbol(spec, xs)
    assert vals[0] == 0.0
    assert np.all(vals[1:] > 0)
    assert np.all(np.diff(vals) > 0)


def test_char_function_values():
    assert char_function(ProcessSpec(1.7, 2), 3.0, 0.0) == 1.0
    assert char_function(ProcessSpec(2.0, 1), 1.0, 1.0) == 0.5
    assert abs(char_function(ProcessSpec(1.0, 1), 2.0, 1.0) - 0.25) < 1e-15
    with pytest.raises(ValueError):
        char_function(ProcessSpec(1.0, 1), 0.0, 1.0)


def test_char_function_semigroup_in_t():
    spec = ProcessSpec(1.4, 1)
    xi = np.geomspace(1e-3, 50.0, 30)
    for t, s in ((0.3, 1.1), (2.0, 0.01)):
        lhs = char_function(spec, t + s, xi)
        rhs = char_function(spec, t, xi) * char_function(spec, s, xi)
        assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_char_function_decreasing_in_both_arguments():
    spec = ProcessSpec(0.8, 1)
    xi = np.linspace(0.1, 5.0, 20)
    v1 = char_function(spec, 1.0, xi)
    v2 = char_function(spec, 2.0, xi)
    assert np.all(v2 < v1)
    assert np.all(np.diff(v1) < 0)


@pytest.mark.parametrize("alpha,dim,want", [
    (1.5, 1, RecurrenceClass.RECURRENT),
    (2.0, 2, RecurrenceClass.RECURRENT),
    (0.5, 1, RecurrenceClass.TRANSIENT),
])
def test_classify_recurrence_examples(alpha, dim, want):
    assert classify_recurrence(ProcessSpec(alpha, dim)) is want


def test_classify_full_grid():
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for dim in (1, 2, 3):
            got = classify_recurrence(ProcessSpec(alpha, dim))
            want = RecurrenceClass.RECURRENT if dim <= alpha else RecurrenceClass.TRANSIENT
            assert got is want


def test_inversion_integrable_boundary_excluded():
    assert inversion_integrable(ProcessSpec(2.0, 1), 1.0) is True
    assert inversion_integrable(ProcessSpec(1.0, 1), 1.0) is False
    assert inversion_integrable(ProcessSpec(2.0, 1), 0.4) is False


def test_hartman_wintner_ratio_limits():
    assert abs(hartman_wintner_ratio(ProcessSpec(1.0, 1), [1.0])[0] - 1.0) < 1e-15
    assert abs(hartman_wintner_ratio(ProcessSpec(2.0, 1), [1e6])[0] - 2.0) < 1e-4
    assert abs(hartman_wintner_ratio(ProcessSpec(0.5, 1), [1e8])[0] - 0.5) < 1e-4
    # the limit itself, without the RuntimeWarning of inf / inf
    got = hartman_wintner_ratio(ProcessSpec(1.5, 1), [1e3, math.inf])
    assert got[1] == 1.5 and abs(got[0] - 1.5) < 1e-3


def test_hartman_wintner_ratio_bounded_and_monotone_toward_alpha():
    for alpha in (0.5, 1.2, 2.0):
        spec = ProcessSpec(alpha, 1)
        xi = np.geomspace(10.0, 1e8, 40)
        ratios = hartman_wintner_ratio(spec, xi)
        assert np.all(ratios <= max(1.0, alpha) + 1e-12)
        gaps = np.abs(ratios - alpha)
        assert np.all(np.diff(gaps) < 0)


@pytest.mark.parametrize("alpha", [0.3, 1.5, 2.0])
@pytest.mark.parametrize("xi", [1e200, 1e300])
def test_log_symbol_does_not_overflow(alpha, xi):
    # xi^alpha overflows at xi = 1e200, alpha = 2; log(1 + xi^alpha) does not, and
    # the suite turns the RuntimeWarning of an overflow into an error
    spec = ProcessSpec(alpha, 1)
    want = alpha * math.log(xi)
    psi = symbol(spec, xi)
    phi = char_function(spec, 0.5, np.array([xi]))[0]
    ratio = hartman_wintner_ratio(spec, [xi, math.inf])
    assert abs(psi / want - 1.0) < 1e-15
    assert abs(phi - math.exp(-0.5 * want)) <= 1e-13 * math.exp(-0.5 * want)
    assert abs(ratio[0] - alpha) < 1e-15 and ratio[1] == alpha


def test_small_frequency_symbol_ratio():
    # psi(xi)/|xi|^alpha -> 1 at the origin; deviation is ~ xi^alpha / 2
    for alpha in (1.5, 2.0):
        assert abs(symbol(ProcessSpec(alpha, 1), 1e-4) / 1e-4 ** alpha - 1.0) < 1e-6
    for alpha in (0.6, 1.0):
        xi = 1e-7 ** (1.0 / alpha)
        assert abs(symbol(ProcessSpec(alpha, 1), xi) / xi ** alpha - 1.0) < 1e-6


def test_point_radii_square_no_coordinate():
    spec = ProcessSpec(1.5, 2)
    r, shaped = point_radii(spec, [[3e-200, 4e-200], [3e200, -4e200], [-3.0, 4.0]])
    assert np.allclose(r, [5e-200, 5e200, 5.0], rtol=1e-15, atol=0.0)
    assert shaped(r).shape == (3,)
    r, shaped = point_radii(ProcessSpec(1.0, 3), [-1e-300, 0.0, 0.0])
    assert shaped(r) == 1e-300 and type(shaped(r)) is float
    assert point_radii(ProcessSpec(1.0, 1), [[-2.0], [3.0]])[0].tolist() == [2.0, 3.0]


# the arguments of the package's Gamma and 1/Gamma arrays: tail_coefficients'
# (d + k alpha)/2 and 1 - k alpha/2, k = 1..60, over alpha in [0.3, 2] and
# d = 1..3; 1 - k alpha/2 holds poles
_K = np.arange(1.0, 61.0)
_ALPHAS = np.concatenate([np.linspace(0.3, 2.0, 69), [1.0 - 1e-6, 1.0 + 1e-6, 1.9995, 1.99999]])
_GAMMA_ARGS = np.unique(np.concatenate([(d + _K * a) / 2.0 for a in _ALPHAS for d in (1, 2, 3)]))
_RGAMMA_ARGS = np.unique(np.concatenate([1.0 - _K * a / 2.0 for a in _ALPHAS]))
# largest float whose Gamma is finite in scipy; math.gamma's is one float further
_GAMMA_EDGE = 171.62437695630268


def _ulps(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.where(a == b, 0.0, gap)


def test_gamma_helpers_agree_with_scipy_on_their_grids():
    from scipy import special
    # math.gamma and scipy's Gamma are each within 8 ulp of the true value
    # here (next test), and differ by up to 11 ulp
    assert _ulps(gamma(_GAMMA_ARGS), special.gamma(_GAMMA_ARGS)).max() <= 12
    assert _ulps(rgamma(_RGAMMA_ARGS), special.rgamma(_RGAMMA_ARGS)).max() <= 12
    poles = _RGAMMA_ARGS[(_RGAMMA_ARGS <= 0) & (_RGAMMA_ARGS == np.round(_RGAMMA_ARGS))]
    assert poles.size > 50 and not rgamma(poles).any()
    # poles, the overflow edge and the non-finite arguments take scipy's values
    special_args = np.array([0.0, -0.0, -1.0, -60.0, _GAMMA_EDGE, 171.62437695630274, 172.0,
                             1e300, -180.5, np.inf, -np.inf, np.nan])
    for ours, theirs in ((gamma, special.gamma), (rgamma, special.rgamma)):
        got, want = ours(special_args), theirs(special_args)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.array_equal(got[~np.isfinite(got)], want[~np.isfinite(want)], equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert _ulps(got, want)[np.isfinite(got)].max() <= 12
    assert math.isfinite(gamma(_GAMMA_EDGE)) and rgamma(172.0) == 0.0


def test_gamma_helpers_are_as_accurate_as_scipy():
    mpmath = pytest.importorskip("mpmath")
    from scipy import special
    mpmath.mp.prec = 160
    true_g = np.array([float(mpmath.gamma(v)) for v in _GAMMA_ARGS.tolist()])
    ours, scipys = _ulps(gamma(_GAMMA_ARGS), true_g), _ulps(special.gamma(_GAMMA_ARGS), true_g)
    assert ours.max() <= 6 and ours.max() <= scipys.max()
    true_r = np.array([float(mpmath.rgamma(v)) for v in _RGAMMA_ARGS.tolist()])
    ours, scipys = _ulps(rgamma(_RGAMMA_ARGS), true_r), _ulps(special.rgamma(_RGAMMA_ARGS), true_r)
    assert ours.max() <= 7 and ours.max() <= scipys.max()


def test_gamma_helpers_keep_shapes():
    assert type(gamma(1.5)) is float and type(rgamma(np.float64(3.0))) is float
    assert gamma(np.array(4.0)) == 6.0 and rgamma(np.array(4.0)) == 1.0 / 6.0
    np.testing.assert_array_equal(gamma([[1.0, 2.0, 3.0]]), [[1.0, 1.0, 2.0]])
    assert rgamma(np.empty((0, 2))).shape == (0, 2)
