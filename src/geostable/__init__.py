"""Numerical toolkit for geometric alpha-stable processes.

Covers the log-symbol and its closed-form functionals, symmetric-stable
kernels and gamma-subordinated sampling, the jump density and its polar
kernel (the self-decomposability certificate), transition densities by
Fourier inversion and Monte Carlo, and principal eigenvalues / ground states
of the associated Schroedinger operator in the recurrent case.
"""

import time as _time

_import_start = _time.perf_counter()

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    GeoStableError,
    SingularPointError,
    UnsupportedDimensionError,
)
from .levy_structure import (
    AsymptoticReport,
    KFunctionTable,
    Regime,
    asymptotic_report,
    k_radial,
    levy_density,
    polar_levy_mass,
    verify_selfdecomposable,
)
from .process_core import (
    ProcessSpec,
    RecurrenceClass,
    char_function,
    classify_recurrence,
    hartman_wintner_ratio,
    inversion_integrable,
    symbol,
)
from .schrodinger_ground import (
    GridDomain,
    GroundStateResult,
    MeasureOnGrid,
    SchrodingerProblem,
    apply_generator,
    dense_ground_state,
    energy_form,
    feynman_kac_estimate,
    irreducibility_cross_term,
    kato_diagnostic,
    solve_ground_state,
)
from .stable_kernel import (
    RngStream,
    radial_profile,
    sample_increment,
    sample_stable,
    stable_density,
)
from .transition_density import (
    DensityTable,
    EmpiricalCdf,
    cdf_numeric,
    density_inversion,
    density_mc,
    inversion_table,
)

# perf_counter span of this import, numpy included; it loads no scipy module
# (the few calls that need scipy import it when they run, see README).  Every
# CLI manifest reports it as import_seconds, apart from duration_seconds
_IMPORT_SECONDS = _time.perf_counter() - _import_start
