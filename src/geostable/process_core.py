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


def _log1p_power(xi, alpha):
    """log(1 + xi^alpha) for xi >= 0, as alpha log xi + log1p(xi^-alpha) past 1: no overflow."""
    big = np.where(xi > 1.0, xi, 1.0)
    return np.where(xi > 1.0, alpha * np.log(big) + np.log1p(big ** -alpha),
                    np.log1p(np.minimum(xi, 1.0) ** alpha))


def positive_time(t) -> None:
    """Refuse a time argument that is not positive and finite (NaN included) with ConfigError."""
    if not 0 < t < np.inf:
        raise ConfigError(f"time must be positive and finite, got {t}")


def _shaper(shape):
    """The return rule: a Python float for shape (), else flat results in that shape."""
    if shape == ():
        return lambda flat: float(flat[0])
    return lambda flat: flat.reshape(shape)


def radial_args(r, name="r", positive=False):
    """Flat float radii of r (any shape) and the function that shapes results like r.

    The shaping function gives a Python float for a scalar or 0-d r, else an
    array of r's shape.  A NaN or negative radius, or 0 when positive, raises
    ConfigError naming the first one.
    """
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    ok = flat > 0 if positive else flat >= 0
    if not ok.all():
        raise ConfigError(f"{name} must be {'positive' if positive else 'nonnegative'}, "
                          f"got {flat[~ok][0]}")
    return flat, _shaper(r.shape)


def point_radii(spec: ProcessSpec, x):
    """Norms of one point or a batch of points, and the function that shapes results.

    One point is a scalar for d = 1 or a 1-d array of d coordinates, and its
    result is a Python float; a batch is an (n, d) array or, for d = 1, any
    1-d array, and gives an array of n values.  NaN raises ConfigError.
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
    return r, _shaper(() if xv.ndim == (0 if d == 1 else 1) else r.shape)


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
    """Characteristic exponent log(1 + |xi|^alpha) at radial frequencies xi_norm >= 0."""
    xi, shaped = radial_args(xi_norm, "xi_norm")
    return shaped(_log1p_power(xi, spec.alpha))


def char_function(spec: ProcessSpec, t: float, xi_norm):
    """Characteristic function (1 + |xi|^alpha)^(-t) of the time-t marginal."""
    positive_time(t)
    xi, shaped = radial_args(xi_norm, "xi_norm")
    return shaped(np.exp(-t * _log1p_power(xi, spec.alpha)))


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
    xi, shaped = radial_args(xi_norms, "xi_norms", positive=True)
    inf = np.isinf(xi)
    safe = np.where(inf, 1.0, xi)
    return shaped(np.where(inf, spec.alpha, _log1p_power(safe, spec.alpha) / np.log1p(safe)))
