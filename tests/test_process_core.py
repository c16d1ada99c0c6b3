import math
import re
import warnings

import numpy as np
import pytest

import geostable as gs
from geostable import (ConfigError, ProcessSpec, RecurrenceClass, char_function,
                       classify_recurrence, hartman_wintner_ratio,
                       inversion_integrable, symbol)
from geostable.process_core import point_radii
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
    lambda: gs.sample_gamma(0.0, gs.RngStream(1)),
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
    lambda: gs.sample_gamma(math.inf, gs.RngStream(1)),
    lambda: char_function(_S, math.inf, 0.0),
    lambda: gs.cdf_numeric(_S, math.inf, 0.5),
    lambda: gs.sample_increment(_S, 1.0, gs.RngStream(1), size=-1),
    lambda: gs.sample_increment(_S, 1.0, gs.RngStream(1), size=2.5),
    lambda: gs.sample_increment(_S, 1.0, gs.RngStream(1), size=np.int64(-3)),
    lambda: gs.sample_stable(_S, gs.RngStream(1), size=-1),
    lambda: gs.sample_stable(_S, gs.RngStream(1), size=2.0),
    lambda: gs.sample_gamma(1.0, gs.RngStream(1), size=-1),
    lambda: gs.sample_gamma(1.0, gs.RngStream(1), size=np.float64(3.0)),
    lambda: gs.sample_gamma(1.0, gs.RngStream(1), size=True),
    lambda: gs.stable_density_radial(_S, 1.0, [math.nan]),
    lambda: gs.radial_profile(1.5, 1).density(math.nan),
    lambda: gs.stable_density(_S, math.inf, 1.0),
    lambda: gs.stable_density_radial(_S, math.inf, 1.0),
    lambda: symbol(_S, np.array([0.5, math.nan])),
], ids=["ProcessSpec", "char_function", "inversion_integrable", "GridDomain", "MeasureOnGrid",
        "from_profile", "SchrodingerProblem", "kato_diagnostic", "verify_selfdecomposable",
        "k_radial", "polar_levy_mass", "sample_increment", "sample_gamma", "stable_density",
        "density_mc", "density_mc_nan_grid", "density_mc_scalar_grid", "density_mc_column_grid",
        "density_mc_wide_grid", "density_mc_flat_grid_2d", "GridDomain_inf",
        "sample_increment_inf", "density_inversion_inf", "inversion_table_inf", "density_mc_inf",
        "kato_diagnostic_inf", "feynman_kac_inf", "feynman_kac_inf_dt", "polar_levy_mass_inf",
        "verify_selfdecomposable_inf", "sample_gamma_inf", "char_function_inf",
        "cdf_numeric_inf", "sample_increment_size_negative", "sample_increment_size_fraction",
        "sample_increment_size_numpy_negative", "sample_stable_size_negative",
        "sample_stable_size_float", "sample_gamma_size_negative", "sample_gamma_size_numpy_float",
        "sample_gamma_size_bool", "stable_density_radial_nan", "profile_density_nan",
        "stable_density_inf", "stable_density_radial_inf", "symbol_nan"])
def test_argument_checks_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_gamma_mixture_refuses_bad_times(t):
    # it returned 0.0 and -0.0 at t = 0 and -1, and warned at nan and inf
    with pytest.raises(ConfigError, match="time must be positive and finite"):
        density_gamma_mixture(ProcessSpec(1.5, 2), t, [1.0])


@pytest.mark.parametrize("alpha, dim", [(0.5, 1), (1.5, 2), (0.3, 3)])
def test_tiny_scale_is_refused_and_just_above_its_bound_is_finite(alpha, dim):
    # s ** (-d/alpha) raised a bare OverflowError at s = 1e-300
    spec = ProcessSpec(alpha, dim)
    for r in (0.0, 1.0):
        with pytest.raises(ConfigError, match="s must be at least") as refused:
            gs.stable_density_radial(spec, 1e-300, r)
    with pytest.raises(ConfigError, match="s must be at least"):
        gs.stable_density(spec, 1e-300, np.ones(dim))
    bound = float(re.search(r"at least (\S+) at", str(refused.value)).group(1))
    with pytest.raises(ConfigError, match="s must be at least"):
        gs.stable_density_radial(spec, math.nextafter(bound, 0.0), 0.0)
    s = math.nextafter(bound, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = gs.stable_density_radial(spec, s, np.array([0.0, 1.0, 1e300]))
        point = gs.stable_density(spec, s, np.eye(dim)[0])  # |x| = 1
    assert np.all(np.isfinite(near)) and near[0] > 1e306 and near[2] == 0.0
    assert point == near[1]


def test_radial_arguments_name_the_refused_value():
    with pytest.raises(ConfigError, match="r must be nonnegative, got nan"):
        gs.stable_density_radial(_S, 1.0, [1.0, math.nan])
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
                 lambda s: gs.sample_stable(_S, gs.RngStream(5), size=s),
                 lambda s: gs.sample_gamma(1.0, gs.RngStream(5), size=s)):
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
