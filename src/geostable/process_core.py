"""Process specification, closed-form scalar functions of the log-symbol, and
the package's one interpolant.

Everything but the interpolant is a pure function of (alpha, dim) and a radial
frequency; the symbol is isotropic, so vector arguments reduce to their
Euclidean norm before reaching these routines.

`CubicHermite` is the C^2 spline of scipy's CubicSpline on uniform knots
(`CubicHermite.spline`: the stable profile's log q_1 on its v-grid and the
torus lag table's log j on its log-radii).  `gamma` and `rgamma` are
math.gamma entry by entry, for the scalars and the arrays of at most 60
entries that the package's closed forms and series need.  With them
`import geostable` loads numpy and no scipy module: scipy.special alone
costs about 0.14 s of start-up.  Only `CubicHermite.spline` imports
scipy.linalg, when it is first called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def _gamma_entry(x: float) -> float:
    """math.gamma(x), with scipy.special.gamma's values where math.gamma raises:
    inf past 171.6, +-inf at +-0 and NaN at the negative integers and -inf."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.copysign(math.inf, x) if x == 0.0 else math.nan


def gamma(x):
    """Gamma function at a scalar (a float) or a small array (an array of its shape), by math.gamma.

    On the arguments the package asks for it is within 6 ulp of the true
    value, where scipy.special.gamma is within 8; the two differ by up to
    11 ulp.  inf past 171.6, as scipy's.
    """
    if np.ndim(x) == 0:
        return _gamma_entry(float(x))
    x = np.asarray(x, dtype=float)
    flat = x.ravel().tolist()
    try:
        values = list(map(math.gamma, flat))
    except (ValueError, OverflowError):  # a pole, or past 171.6
        values = list(map(_gamma_entry, flat))
    return np.array(values).reshape(x.shape)


def rgamma(x):
    """1/Gamma at a scalar or a small array: 0 at the poles and past 171.6, as scipy's rgamma.

    Within 7 ulp of the true value on the package's arguments (scipy's: 8).
    """
    x = np.asarray(x, dtype=float)
    pole = (x < 0.0) & (x == np.floor(x))  # 0 is one too, where Gamma is inf
    with np.errstate(divide="ignore"):  # Gamma underflows to +-0 far left of 0
        out = np.where(pole, 0.0, np.divide(1.0, gamma(np.where(pole, 1.0, x))))
    return out if out.ndim else float(out)


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
    return 2.0 * np.pi ** (dim / 2.0) / gamma(dim / 2.0)


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


# points per pass of CubicHermite's evaluation: 128 KB temporaries, which stay in cache
_HERMITE_CHUNK = 2 ** 14


class CubicHermite:
    """Piecewise cubic with values y_i and slopes m_i at uniform increasing knots x_i.

    Piece i is ((c0 s + c1) s + c2) s + c3 in s = x - x_i, with the
    coefficients of scipy's CubicHermiteSpline (bit for bit), so a spline
    built here agrees with scipy's to rounding.  The end pieces extrapolate.
    Knots not uniform to 1e-9 of their spacing raise ValueError: a point
    finds its piece by arithmetic, _HERMITE_CHUNK points at a time, and one
    within rounding of a knot may take the neighbouring piece.
    """

    def __init__(self, x, y, slopes):
        x, y, m = (np.asarray(a, dtype=float) for a in (x, y, slopes))
        dx = np.diff(x)
        self._step = (x[-1] - x[0]) / dx.size
        if not np.max(np.abs(dx - self._step)) < 1e-9 * self._step:
            raise ValueError("CubicHermite needs uniform increasing knots")
        slope = np.diff(y) / dx
        t = (m[:-1] + m[1:] - 2.0 * slope) / dx
        self._x = x
        self._coef = (y[:-1], m[:-1], (slope - m[:-1]) / dx - t, t / dx)

    @classmethod
    def spline(cls, x, y, left_slope=None):
        """The C^2 cubic spline through at least four knots, with CubicSpline's
        end conditions: not-a-knot at the right end, and at the left unless
        left_slope clamps the slope there.  One tridiagonal solve gives the
        knot slopes; scipy.linalg is imported here, on the first call, not
        at start-up."""
        from scipy.linalg import solve_banded

        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        ab = np.zeros((3, x.size))  # rows: upper diagonal, diagonal, lower diagonal
        ab[0, 2:] = dx[:-1]
        ab[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
        ab[2, :-2] = dx[1:]
        b = np.empty(x.size)
        b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if left_slope is None:
            d = x[2] - x[0]
            ab[0, 1], ab[1, 0] = d, dx[1]
            b[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        else:
            ab[1, 0], b[0] = 1.0, left_slope
        d = x[-1] - x[-3]
        ab[1, -1], ab[2, -2] = dx[-2], d
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        return cls(x, y, solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                                      check_finite=False))

    def __call__(self, v):
        """Values at the points v (any shape), each on the piece that holds it."""
        v = np.asarray(v, dtype=float)
        out = np.empty(v.shape)
        flat, into = v.reshape(-1), out.reshape(-1)
        x, last = self._x, self._x.size - 2
        c3, c2, c1, c0 = self._coef
        for j in range(0, flat.size, _HERMITE_CHUNK):
            w, o = flat[j:j + _HERMITE_CHUNK], into[j:j + _HERMITE_CHUNK]
            i = np.clip((w - x[0]) / self._step, 0.0, last).astype(np.intp)
            s = w - x[i]
            np.take(c0, i, out=o)
            o *= s
            o += c1[i]
            o *= s
            o += c2[i]
            o *= s
            o += c3[i]
        return out
