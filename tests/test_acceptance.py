"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line.

Criteria run at their stated tolerances through geostable.acceptance, the
same registry the `geostable verify` subcommand executes.  The oracles the
checks rely on are tested against independent routes at the end.
"""
import math

import numpy as np
from scipy.integrate import quad

from geostable import ProcessSpec, acceptance
from geostable.stable_kernel import _panel_nodes


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


def test_acceptance_05_recurrence_table():
    r = _run(acceptance.check_recurrence_table)
    assert r.elapsed < 1.0


def test_acceptance_06_mc_inversion_agreement():
    r = _run(acceptance.check_mc_inversion_agreement, seed=42)
    assert r.elapsed < 30.0


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
    # agreement with adaptive quad of the same integral
    integrand = lambda xi: math.exp(-xi * xi / 4.0) * (1.0 + xi ** 1.5) ** -0.5
    ref = sum(quad(integrand, a, b, epsabs=1e-17, epsrel=1e-13, limit=400)[0]
              for a, b in ((0.0, 1.0), (1.0, 60.0))) / math.sqrt(math.pi)
    assert abs(acceptance.gaussian_free_mean(spec, 0.5) - ref) < 1e-12
