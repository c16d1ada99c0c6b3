import math

import numpy as np
import pytest

import geostable as gs
from geostable import (ConfigError, ProcessSpec, RecurrenceClass, char_function,
                       classify_recurrence, hartman_wintner_ratio,
                       inversion_integrable, symbol)


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
], ids=["ProcessSpec", "char_function", "inversion_integrable", "GridDomain", "MeasureOnGrid",
        "from_profile", "SchrodingerProblem", "kato_diagnostic", "verify_selfdecomposable",
        "k_radial", "polar_levy_mass", "sample_increment", "sample_gamma", "stable_density",
        "density_mc"])
def test_argument_checks_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


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


def test_hartman_wintner_ratio_bounded_and_monotone_toward_alpha():
    for alpha in (0.5, 1.2, 2.0):
        spec = ProcessSpec(alpha, 1)
        xi = np.geomspace(10.0, 1e8, 40)
        ratios = hartman_wintner_ratio(spec, xi)
        assert np.all(ratios <= max(1.0, alpha) + 1e-12)
        gaps = np.abs(ratios - alpha)
        assert np.all(np.diff(gaps) < 0)


def test_small_frequency_symbol_ratio():
    # psi(xi)/|xi|^alpha -> 1 at the origin; deviation is ~ xi^alpha / 2
    for alpha in (1.5, 2.0):
        assert abs(symbol(ProcessSpec(alpha, 1), 1e-4) / 1e-4 ** alpha - 1.0) < 1e-6
    for alpha in (0.6, 1.0):
        xi = 1e-7 ** (1.0 / alpha)
        assert abs(symbol(ProcessSpec(alpha, 1), xi) / xi ** alpha - 1.0) < 1e-6
