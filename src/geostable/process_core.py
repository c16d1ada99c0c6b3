"""Process specification and closed-form scalar functions of the log-symbol.

Everything here is a pure function of (alpha, dim) and a radial frequency;
the symbol is isotropic, so vector arguments reduce to their Euclidean norm
before reaching these routines.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gamma as _gamma

from .errors import ConfigError


class RecurrenceClass(Enum):
    RECURRENT = "Recurrent"
    TRANSIENT = "Transient"


@dataclass(frozen=True)
class ProcessSpec:
    """Stability index alpha in (0, 2] and spatial dimension."""

    alpha: float
    dim: int

    def __post_init__(self):
        if not (0.0 < float(self.alpha) <= 2.0):
            raise ConfigError(f"alpha must lie in (0, 2], got {self.alpha}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ConfigError(f"dim must be a positive integer, got {self.dim}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "dim", int(self.dim))


def _maybe_scalar(arr, scalar_input):
    return float(arr) if scalar_input else arr


def _log1p_power(xi, alpha):
    """log(1 + xi^alpha) for xi >= 0, as alpha log xi + log1p(xi^-alpha) past 1: no overflow."""
    big = np.where(xi > 1.0, xi, 1.0)
    return np.where(xi > 1.0, alpha * np.log(big) + np.log1p(big ** -alpha),
                    np.log1p(np.minimum(xi, 1.0) ** alpha))


def positive_time(t) -> None:
    """Refuse a time argument that is not positive and finite (NaN included) with ConfigError."""
    if not 0 < t < np.inf:
        raise ConfigError(f"t must be positive and finite, got {t}")


def point_radii(spec: ProcessSpec, x):
    """Norms of one point or a batch of points, and whether x was one point.

    One point is a scalar for d = 1 or a 1-d array of d coordinates; a batch is
    an (n, d) array or, for d = 1, any 1-d array.  NaN raises ConfigError.
    Norms are taken by hypot, which squares no coordinate, so none underflows
    to 0 or overflows to inf.
    """
    xv = np.asarray(x, dtype=float)
    d = spec.dim
    if d == 1 and xv.ndim <= 1:
        r = np.abs(np.atleast_1d(xv))
    elif xv.ndim in (1, 2) and xv.shape[-1] == d:
        r = np.hypot.reduce(np.abs(np.atleast_2d(xv)), axis=-1)
    else:
        raise ConfigError(f"x must be one point with {d} coordinates or an (n, {d}) array, "
                         f"got shape {xv.shape}")
    if np.isnan(xv).any():
        raise ConfigError("x must not be NaN")
    return r, xv.ndim == (0 if d == 1 else 1)


def surface_measure(dim: int) -> float:
    """Total surface measure of the unit sphere S^(d-1); equals 2 for d = 1."""
    return 2.0 * np.pi ** (dim / 2.0) / _gamma(dim / 2.0)


def over_radius_power(values, r, dim: int):
    """values / r^dim in place, one factor of r at a time: r^dim leaves the
    float range long before the quotient does, which then rounds to inf or 0."""
    with np.errstate(over="ignore"):
        for _ in range(dim):
            values /= r
    return values


def symbol(spec: ProcessSpec, xi_norm):
    """Characteristic exponent log(1 + |xi|^alpha) at radial frequency xi_norm >= 0."""
    scalar = np.isscalar(xi_norm)
    xi = np.asarray(xi_norm, dtype=float)
    if not np.all(xi >= 0):
        raise ConfigError("xi_norm must be nonnegative")
    return _maybe_scalar(_log1p_power(xi, spec.alpha), scalar)


def char_function(spec: ProcessSpec, t: float, xi_norm):
    """Characteristic function (1 + |xi|^alpha)^(-t) of the time-t marginal."""
    positive_time(t)
    return _maybe_scalar(np.exp(-t * symbol(spec, xi_norm)), np.isscalar(xi_norm))


def classify_recurrence(spec: ProcessSpec) -> RecurrenceClass:
    """Recurrent iff dim <= alpha (Chung-Fuchs test applied to the log-symbol)."""
    return RecurrenceClass.RECURRENT if spec.dim <= spec.alpha else RecurrenceClass.TRANSIENT


def inversion_integrable(spec: ProcessSpec, t: float) -> bool:
    """True iff the characteristic function of the time-t marginal is integrable.

    (1 + |xi|^alpha)^(-t) decays like |xi|^(-alpha t), so integrability over R^d
    requires alpha*t > d, the boundary t = d/alpha excluded.  The same test says
    whether the density at the origin, p_t(0), is finite.  t must be finite.
    """
    positive_time(t)
    return t > spec.dim / spec.alpha


def hartman_wintner_ratio(spec: ProcessSpec, xi_norms):
    """Ratio log(1 + |xi|^alpha) / log(1 + |xi|) per entry, xi > 0.

    The ratio tends to the finite value alpha as |xi| -> inf, so the
    divergence condition sufficient for smooth densities fails here; an
    infinite entry gets that limit.
    """
    xi = np.asarray(xi_norms, dtype=float)
    if not np.all(xi > 0):
        raise ConfigError("xi_norms must be strictly positive")
    inf = np.isinf(xi)
    safe = np.where(inf, 1.0, xi)
    return np.where(inf, spec.alpha, _log1p_power(safe, spec.alpha) / np.log1p(safe))[()]
