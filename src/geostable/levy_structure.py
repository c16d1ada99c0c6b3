"""Jump density and transition density of the gamma-subordinated stable process.

Both are subordination mixtures, j(x) = int_0^inf q_s(x) e^(-s)/s ds and
p_t(x) = int_0^inf q_s(x) s^(t-1) e^(-s)/Gamma(t) ds.  The substitution
u = s^(-1/alpha)|x| turns them into j(x) = K_0(|x|)/|x|^d and
p_t(x) = t K_t(|x|)/|x|^d, with one polar integral

    K_t(r) = alpha/Gamma(1+t) int_0^inf u^(d-1) q_1(u) (r/u)^(alpha t) e^(-(r/u)^alpha) du .

k = K_0 is the radial kernel of the polar representation J(B) = int lambda(dtheta)
int 1_B(r theta) k(r)/r dr; it is nonincreasing in r by construction (the
integrand's only r-dependence is the decreasing factor e^(-(r/u)^alpha)),
which is the self-decomposability certificate this module tabulates.

Quadrature: the u-integral is split at the kernel switch radius U.  The head
is smooth in log u: Gauss-Legendre on one fixed log-u panel grid shared by
every radius of a batch.  The tail reduces, term by term of the q_1 power
series, to lower incomplete gamma functions:

    alpha int_U^inf u^(d-1) [c_k u^(-d-k a)] (r/u)^(a t) e^(-(r/u)^a) du
        = c_k r^(-k a) gamma(k+t, (r/U)^a) ,

with gamma the lower incomplete gamma function, Gamma(k+t) P(k+t, .).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gamma as _gamma, gammainc as _gammainc

from .errors import ConfigError, SingularPointError
from .process_core import ProcessSpec, point_radii
from .stable_kernel import _envelope_columns, _panel_nodes, radial_profile

# w^t e^(-w) below e^(-690) is dropped from the head window
_EXP_FLOOR = 690.0
# head panel width in log u, times 1/alpha; a 10x finer grid moves k by under
# 1e-10 relative for alpha >= 0.5, d <= 3
_LOG_PANEL = 0.05
# relative rise between neighbours that the monotonicity certificate forgives
_MONOTONE_SLACK = 1e-12
# head nodes per radius block: one (radii x nodes) float array stays near 2 MB
_BLOCK_ELEMS = 2 ** 18


def surface_measure(dim: int) -> float:
    """Total surface measure of the unit sphere S^(d-1); equals 2 for d = 1."""
    return 2.0 * np.pi ** (dim / 2.0) / _gamma(dim / 2.0)


def small_x_constant(spec: ProcessSpec) -> float:
    """lim_{r->0} r^d j(r theta) = alpha Gamma(d/2) / (2 pi^(d/2)).

    Derived from k(0+) = alpha int u^(d-1) q_1(u) du = alpha / surface_measure.
    """
    return spec.alpha * _gamma(spec.dim / 2.0) / (2.0 * np.pi ** (spec.dim / 2.0))


def large_x_constant(spec: ProcessSpec) -> float:
    """lim_{r->inf} r^(d+alpha) j(r theta) for alpha < 2.

    Equals the stable jump intensity constant
    alpha 2^(alpha-1) Gamma((d+alpha)/2) / (pi^(d/2) Gamma(1-alpha/2)):
    for large |x| only the small-s part of the mixture contributes and
    q_s(x) ~ s * C |x|^(-d-alpha) there, so j inherits C.
    """
    if spec.alpha >= 2.0:
        raise ValueError("polynomial large-x constant requires alpha < 2")
    a, d = spec.alpha, spec.dim
    return a * 2.0 ** (a - 1.0) * _gamma((d + a) / 2.0) / (np.pi ** (d / 2.0) * _gamma(1.0 - a / 2.0))


def exponential_tail_constant(dim: int) -> float:
    """alpha = 2 only: lim r^((d+1)/2) e^r j(r theta) = (2 pi)^((1-d)/2).

    Saddle point of the mixture exponent r^2/(4s) + s at s = r/2.
    """
    return (2.0 * np.pi) ** ((1.0 - dim) / 2.0)


def _head_grid(prof, n_panels):
    """Top n_panels log-u panels below tail_start, ordered downward, with r-free weights.

    Panel m spans [U e^(-(m+1)h), U e^(-m h)] with h = _LOG_PANEL/alpha, U = tail_start;
    the grid is anchored at U, so a panel's nodes never depend on how deep the
    grid is cut.  Returns nodes u and weights alpha u^(d-1) q_1(u) du, both of
    shape (n_panels, 10).
    """
    log_edges = np.log(prof.tail_start) - (_LOG_PANEL / prof.alpha) * np.arange(n_panels, -1, -1)
    u, w = _panel_nodes(np.exp(log_edges))
    u = u.reshape(n_panels, -1)[::-1]
    w = w.reshape(n_panels, -1)[::-1]
    return u, prof.alpha * u ** (prof.dim - 1) * prof.density(u.ravel()).reshape(u.shape) * w


def _tail_sum(prof, t, r, head):
    """Tail of Gamma(1+t) K_t beyond tail_start, each row cut like its scalar series.

    Row i keeps its nonzero-coefficient terms up to the first one whose
    magnitude envelope grows (asymptotic breakdown; a nearly vanishing
    coefficient reads as its last regular neighbour, see _envelope_columns)
    or that is not finite, and stops after the first envelope below 1e-15 of
    the running total head + tail.
    """
    a = prof.alpha
    nz = np.flatnonzero(prof.coeffs)
    if nz.size == 0:
        return np.zeros_like(r)
    k = (nz + 1).astype(float)
    w_hi = (r / prof.tail_start) ** a
    with np.errstate(all="ignore"):
        terms = (prof.coeffs[nz] * r[:, None] ** (-k * a)
                 * _gammainc(k + t, w_hi[:, None]) * _gamma(k + t))
        mag = np.abs(terms)[:, _envelope_columns(prof.coeffs[nz], k)]
        partial = np.cumsum(terms, axis=1)
        stop = ~np.isfinite(terms)
        stop[:, 1:] |= mag[:, 1:] > mag[:, :-1]
        stop[:, 1:] |= mag[:, :-1] < 1e-15 * np.abs(head[:, None] + partial[:, :-1])
    n_keep = np.where(stop.any(axis=1), np.argmax(stop, axis=1), k.size)
    return np.where(n_keep > 0, partial[np.arange(r.size), np.maximum(n_keep - 1, 0)], 0.0)


def _polar_integral(spec: ProcessSpec, t: float, r):
    """K_t(r) of the module docstring at radii r > 0 of any shape, for t >= 0.

    Each radius sums the head over the top panels of one fixed log-u grid in a
    fixed order, so its value does not depend on the batch.  The grid stops
    where w = (r/u)^alpha reaches the larger root of w - t log w = 690, past
    which w^t e^(-w) < e^(-690); t = 0 skips the log pass of w^t.  Radii run
    sorted, in place, in blocks of at most _BLOCK_ELEMS (radius, node) pairs.
    """
    r_arr = np.asarray(r, dtype=float)
    flat = r_arr.ravel()
    if not np.all(flat > 0):
        raise ConfigError(f"r must be positive, got {flat[~(flat > 0)][0]}")
    a = spec.alpha
    prof = radial_profile(a, spec.dim)
    w_floor = _EXP_FLOOR + t * math.log(_EXP_FLOOR + t * math.log(_EXP_FLOOR))
    depth = np.log(prof.tail_start) - np.log(flat * w_floor ** (-1.0 / a))
    n_panels = np.maximum(np.ceil(depth / (_LOG_PANEL / a)), 0).astype(int)
    # ascending radii need nonincreasing panel counts; rows with none have no head
    order = np.argsort(flat)[:np.count_nonzero(n_panels)]
    head = np.zeros(flat.size)
    if order.size:
        u, g = _head_grid(prof, n_panels[order[0]])
        start = 0
        while start < order.size:
            m = n_panels[order[start]]
            idx = order[start:start + max(1, _BLOCK_ELEMS // u[:m].size)]
            z = flat[idx, None, None] / u[None, :m]  # r/u, then log(w^t e^(-w))
            z = t * a * np.log(z) - z ** a if t else np.negative(z ** a, out=z)
            panel = np.multiply(np.exp(z, out=z), g[None, :m], out=z).sum(axis=2)
            head[idx] = np.cumsum(panel, axis=1)[np.arange(idx.size), n_panels[idx] - 1]
            start += idx.size
    out = (head + _tail_sum(prof, t, flat, head)) / _gamma(1.0 + t)
    return float(out[0]) if r_arr.ndim == 0 else out.reshape(r_arr.shape)


def k_radial(spec: ProcessSpec, r):
    """Polar kernel k = K_0 at radii r > 0 (a float for a scalar, else r's shape).

    K_t(r) = alpha/Gamma(1+t) int_0^inf u^(d-1) q_1(u) (r/u)^(alpha t) e^(-(r/u)^alpha) du
    gives j(x) = k(|x|)/|x|^d and p_t(x) = t K_t(|x|)/|x|^d; _polar_integral computes it.
    """
    return _polar_integral(spec, 0.0, r)


def levy_density(spec: ProcessSpec, x):
    """Jump density j(x) = k(|x|)/|x|^d (isotropic), at one point or a batch.

    One point gives a float, and a batch (see point_radii) an array of values
    from one k_radial call.
    """
    r, point = point_radii(spec, x)
    if np.any(r == 0.0):
        raise SingularPointError("levy density blows up like |x|^(-d) at the origin")
    j = k_radial(spec, r) / r ** spec.dim
    return float(j[0]) if point else j


def polar_levy_mass(spec: ProcessSpec, r_inner: float, r_outer: float) -> float:
    """Jump mass J({r_inner <= |x| <= r_outer}) via the polar representation.

    Surface measure times int k(r)/r dr, by Gauss-Legendre(10) on geometric
    panels (at least 24 per e-fold of r_outer/r_inner).
    """
    if not (0.0 < r_inner < r_outer):
        raise ConfigError("need 0 < r_inner < r_outer")
    n_panels = max(24, int(np.ceil(24 * np.log(r_outer / r_inner))))
    r, w = _panel_nodes(np.geomspace(r_inner, r_outer, n_panels + 1))
    return surface_measure(spec.dim) * float(np.sum(k_radial(spec, r) / r * w))


@dataclass
class KFunctionTable:
    """Tabulated t*k(r) with its monotonicity certificate."""

    spec: ProcessSpec
    r_grid: np.ndarray
    values: np.ndarray
    monotone_certificate: bool
    t: float = 1.0

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.r_grid.ndim != 1 or np.any(np.diff(self.r_grid) <= 0):
            raise ValueError("r_grid must be strictly increasing")
        if self.values.shape != self.r_grid.shape:
            raise ValueError("values and r_grid must have the same length")
        if np.any(self.values <= 0):
            raise ValueError("k values must be positive")


def verify_selfdecomposable(spec: ProcessSpec, t: float, r_grid) -> KFunctionTable:
    """Tabulate t*k over r_grid and certify it is nonincreasing.

    The certificate holds for every valid spec and every t > 0, since the
    time-t jump measure is t times the time-one measure and k is decreasing;
    a failed certificate is reported in the table, not raised.  k depends on
    the direction of x only through |x|, so one radial table covers every
    direction.  Neighbours may rise by _MONOTONE_SLACK relative (rounding).
    """
    if not t > 0:
        raise ConfigError(f"t must be positive, got {t}")
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or np.any(np.diff(r_grid) <= 0):
        raise ConfigError("r_grid must be strictly increasing")
    vals = t * k_radial(spec, r_grid)
    certificate = bool(np.all(vals[1:] <= vals[:-1] + _MONOTONE_SLACK * vals[:-1]))
    return KFunctionTable(spec=spec, r_grid=r_grid, values=vals,
                          monotone_certificate=certificate, t=t)


class Regime(Enum):
    SMALL_X = "SmallX"
    LARGE_X = "LargeX"


@dataclass
class AsymptoticReport:
    """Empirical limit of j against its profile, with both reference constants.

    paper_constant is the constant as printed in the source tables; the
    oracle_constant is recomputed here by brute-force quadrature.  Spot checks
    against closed forms show the printed constants are off by fixed factors
    (pi^(-d/2) in the small-x table, 4^(-alpha) and sqrt(2) in the large-x
    ones), so gaps to both are reported and nothing is silently corrected.
    """

    spec: ProcessSpec
    regime: Regime
    paper_constant: float
    oracle_constant: float
    empirical_limit: float
    relative_gap_paper: float
    relative_gap_oracle: float
    converged: bool = True

    def __post_init__(self):
        if self.empirical_limit <= 0:
            raise ValueError("empirical limit must be positive")

    def to_dict(self) -> dict:
        return {
            "alpha": self.spec.alpha,
            "dim": self.spec.dim,
            "regime": self.regime.value,
            "paper_constant": self.paper_constant,
            "oracle_constant": self.oracle_constant,
            "empirical_limit": self.empirical_limit,
            "relative_gap_paper": self.relative_gap_paper,
            "relative_gap_oracle": self.relative_gap_oracle,
            "converged": self.converged,
        }


def _printed_constant(spec: ProcessSpec, regime: Regime) -> float:
    a, d = spec.alpha, spec.dim
    if regime is Regime.SMALL_X:
        return a * _gamma(d / 2.0) / 2.0
    if a == 2.0:
        return 2.0 ** (-d / 2.0) * np.pi ** (-(d - 1) / 2.0)
    return a / (2.0 ** (a + 1.0) * np.pi ** (d / 2.0)) * _gamma((d + a) / 2.0) / _gamma(1.0 - a / 2.0)


def asymptotic_report(spec: ProcessSpec, regime: Regime) -> AsymptoticReport:
    """Track j/profile along a geometric radius sequence and compare constants.

    SmallX: profile r^(-d), sequence 1e-1 -> ~3e-3, oracle = r^d j at r = 1e-3.
    LargeX, alpha < 2: profile r^(-d-alpha), sequence 12.5 -> 50, oracle =
    r^(d+alpha) j at r = 100. LargeX, alpha = 2: exponential profile
    e^(-r) r^(-(d+1)/2), sequence 5 -> 20, oracle = saddle-point constant.
    """
    regime = Regime(regime)
    a, d = spec.alpha, spec.dim
    if regime is Regime.SMALL_X:
        *seq, oracle = k_radial(spec, np.append(np.geomspace(1e-1, 3.162e-3, 6), 1e-3))
    elif a == 2.0:
        radii = np.array([5.0, 10.0, 20.0])
        seq = k_radial(spec, radii) / radii ** d * radii ** ((d + 1) / 2.0) * np.exp(radii)
        oracle = exponential_tail_constant(d)
    else:
        radii = np.array([12.5, 25.0, 50.0, 100.0])
        *seq, oracle = k_radial(spec, radii) * radii ** a
    empirical = float(seq[-1])
    converged = bool(abs(seq[-1] / seq[-2] - 1.0) < 0.02)
    printed = _printed_constant(spec, regime)
    return AsymptoticReport(
        spec=spec, regime=regime,
        paper_constant=float(printed), oracle_constant=float(oracle),
        empirical_limit=empirical,
        relative_gap_paper=abs(empirical / printed - 1.0),
        relative_gap_oracle=abs(empirical / oracle - 1.0),
        converged=converged,
    )
