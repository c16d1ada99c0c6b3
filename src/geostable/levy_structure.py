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

Tail identity.  The exponent psi(xi) = log(1 + |xi|^alpha) has
xi . grad psi = alpha |xi|^alpha/(1 + |xi|^alpha) = alpha (1 - phi_1(xi)), with
phi_1 = e^(-psi) the time-one characteristic function.  Written through k,
this gives -k'(r) = alpha r^(d-1) p_1(r), so k(r) = (alpha/|S^(d-1)|) P(|X_1| > r):
k is nonincreasing because it is a tail probability.  In d = 1 this is
k(r) = (alpha/pi) int_0^inf sin(r xi) xi^(alpha-1)/(1 + xi^alpha) dxi, one call
of stable_kernel's Ooura-Mori sine rule with no profile, and e^(-r) at
alpha = 2; k_radial takes it there for alpha <= _SINE_ALPHA_MAX.  In d = 3,
P(|X_1| > r) = 2 P(X^(1) > r) + 2 r p_1^(1)(r) for the 1-D marginal X^(1), so
k_3 = (alpha/2 pi) r p_1^(1)(r) + k_1(r)/(2 pi): the d = 1 cos rule for the
marginal density p_1^(1) and the sine rule for k_1, again with no profile;
k_radial takes it for alpha <= _IDENTITY_ALPHA_MAX.  Both rules are accurate
in absolute terms, while far out k ~ alpha Gamma(alpha) sin(pi alpha/2)/pi
r^(-alpha) (d = 1) vanishes with 2 - alpha, so their relative error grows
like 2e-13/(2 - alpha) until k's own power series takes over (below).
Past these cuts (1.999 < alpha < 2 in d = 1, 1.9 < alpha <= 2 in d = 3),
and in d = 2, k is K_0 below.  K_t at t > 0 (the d = 2 densities) and the
test oracles stay on the polar integral.

Far series.  Letting the tail radius U of the polar integral go to 0 turns
its tail terms c_k r^(-k alpha) gamma(k, (r/U)^alpha) into c_k Gamma(k)
r^(-k alpha), so k(r) ~ sum_k c_k Gamma(k) r^(-k alpha), with q_1's power-tail
coefficients c_k.  The series diverges for every alpha, but far out its
terms first fall fast: each radius of the two rule routes takes it where its
last kept term (`_series_rows`) is at most _FAR_SERIES_TOL of its sum, which
holds from r of about 30 to 610 on, depending on (alpha, d).  There it is
within about 2e-13 of the polar integral.

Quadrature of the polar integral: the u-integral is split at the kernel
switch radius U.  The head is smooth in log u: Gauss-Legendre on one fixed
log-u panel grid shared by every radius of a batch.  The tail reduces, term
by term of the q_1 power series, to lower incomplete gamma functions:

    alpha int_U^inf u^(d-1) [c_k u^(-d-k a)] (r/u)^(a t) e^(-(r/u)^a) du
        = c_k r^(-k a) gamma(k+t, (r/U)^a) ,

with gamma the lower incomplete gamma function, Gamma(k+t) P(k+t, .).  It is
summed by q_1's own series route, stable_kernel's `_series_rows`: every row
sums its nonzero terms up to the first growth of their envelope.  Head and
tail both run in blocks of at most _PAIR_BLOCK (radius, node or term) pairs,
so memory stays bounded, whatever the number of radii.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gamma as _gamma, gammainc as _gammainc

from .errors import ConfigError, SingularPointError
from .process_core import (ProcessSpec, over_radius_power, point_radii, positive_time,
                           radial_args, surface_measure)
from .stable_kernel import (MIN_NUMERIC_ALPHA, _PAIR_BLOCK, _char_integral, _panel_nodes,
                            _radial_inversion, _series_rows, q1_at_zero, radial_profile,
                            tail_coefficients)

# w^t e^(-w) below e^(-690) is dropped from the head window
_EXP_FLOOR = 690.0
# head panel width in log u, times 1/alpha; a 10x finer grid moves k by under
# 1e-10 relative for alpha >= 0.5, d <= 3
_LOG_PANEL = 0.05
# relative rise between neighbours that the monotonicity certificate forgives
_MONOTONE_SLACK = 1e-12
# largest alpha < 2 whose d = 1 kernel takes the sine rule (module docstring)
_SINE_ALPHA_MAX = 1.999
# largest alpha whose d = 3 kernel takes the tail identity (module docstring)
_IDENTITY_ALPHA_MAX = 1.9
# a radius takes k's far series where its last kept term is at most this of the sum
_FAR_SERIES_TOL = 1e-13
# every r_c of _flat_radius lies below 2^-26: its bound holds a term r^alpha >= r^2
_FLAT_PROBE = 2.0 ** -26


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
    return u, prof.alpha * u ** (prof.dim - 1) * prof.density(u) * w


def _tail_sum(prof, t, r):
    """Tail of Gamma(1+t) K_t beyond tail_start: q_1's series, term by term, by _series_rows."""
    a, u0 = prof.alpha, prof.tail_start
    return _series_rows(lambda x, c, k: c * x ** (-k * a) * _gammainc(k + t, (x / u0) ** a)
                        * _gamma(k + t), r, prof.coeffs)[0]


def _polar_integral(spec: ProcessSpec, t: float, r):
    """K_t(r) of the module docstring at a 1-d array of radii r > 0, for t >= 0.

    Each radius sums the head over the top panels of one fixed log-u grid in a
    fixed order, so its value does not depend on the batch.  The grid stops
    where w = (r/u)^alpha reaches the larger root of w - t log w = 690, past
    which w^t e^(-w) < e^(-690); t = 0 skips the log pass of w^t.  Radii run
    sorted, in place, in blocks of at most _PAIR_BLOCK (radius, node) pairs.
    """
    a = spec.alpha
    prof = radial_profile(a, spec.dim)
    w_floor = _EXP_FLOOR + t * math.log(_EXP_FLOOR + t * math.log(_EXP_FLOOR))
    depth = np.log(prof.tail_start) - np.log(r * w_floor ** (-1.0 / a))
    n_panels = np.maximum(np.ceil(depth / (_LOG_PANEL / a)), 0).astype(int)
    # ascending radii need nonincreasing panel counts; rows with none have no head
    order = np.argsort(r)[:np.count_nonzero(n_panels)]
    head = np.zeros(r.size)
    if order.size:
        u, g = _head_grid(prof, n_panels[order[0]])
        start = 0
        while start < order.size:
            m = n_panels[order[start]]
            idx = order[start:start + max(1, _PAIR_BLOCK // u[:m].size)]
            z = r[idx, None, None] / u[None, :m]  # r/u, then log(w^t e^(-w))
            z = t * a * np.log(z) - z ** a if t else np.negative(z ** a, out=z)
            panel = np.multiply(np.exp(z, out=z), g[None, :m], out=z).sum(axis=2)
            head[idx] = np.cumsum(panel, axis=1)[np.arange(idx.size), n_panels[idx] - 1]
            start += idx.size
    return (head + _tail_sum(prof, t, r)) / _gamma(1.0 + t)


def _k_tail_identity_d1(alpha: float, r):
    """k_1 = alpha P(X^(1) > r) at radii r > 0 (1-d): e^(-r) at alpha = 2, else the sine rule."""
    if alpha == 2.0:
        return np.exp(-r)
    return alpha / np.pi * _char_integral("sin", alpha - 1.0, alpha, 1.0, r)


def _k_tail_identity_d3(alpha: float, r):
    """k in d = 3 from the 1-D marginal X^(1) of X_1 at radii r > 0 (1-d), with no profile.

    For an isotropic law in R^3, P(|X_1| > r) = 2 P(X^(1) > r) + 2 r p_1^(1)(r), so
    k_3(r) = (alpha/2 pi) r p_1^(1)(r) + k_1(r)/(2 pi), with p_1^(1) from the
    d = 1 cos rule and k_1 from `_k_tail_identity_d1`.
    """
    p1 = _radial_inversion(alpha, 1.0, 1, r)
    return (alpha * r * p1 + _k_tail_identity_d1(alpha, r)) / (2.0 * np.pi)


def _far_series(spec: ProcessSpec, r):
    """k's own large-r series sum_k c_k Gamma(k) r^(-k alpha) at radii r, by _series_rows.

    It is _tail_sum's series in the limit r/U -> inf, where gamma(k, (r/U)^alpha)
    -> Gamma(k).  Returns the sums and a mask of the rows whose last kept term
    is at most _FAR_SERIES_TOL of their sum; every other row is NaN.
    """
    a = spec.alpha
    sums, last = _series_rows(lambda x, c, k: c * _gamma(k) * x ** (-k * a), r,
                              tail_coefficients(a, spec.dim))
    ok = last <= _FAR_SERIES_TOL * np.abs(sums)
    return np.where(ok, sums, np.nan), ok


def k_radial(spec: ProcessSpec, r):
    """Polar kernel k(r) = r^d j(r theta) at radii r > 0 (a float for a scalar, else r's shape).

    d = 1 takes the tail identity k = alpha P(X_1 > r) of the module docstring:
    e^(-r) at alpha = 2, else, for alpha <= _SINE_ALPHA_MAX, the sine integral
    (alpha/pi) int_0^inf sin(r xi) xi^(alpha-1)/(1 + xi^alpha) dxi, one
    `_char_integral` call that builds no profile.  d = 3 with
    alpha <= _IDENTITY_ALPHA_MAX takes the identity
    k_3 = (alpha/2 pi) r p_1^(1) + k_1/(2 pi), also with no profile.  On both
    routes a radius where k's far series has converged (module docstring)
    takes that series.  1.999 < alpha < 2 in d = 1, 1.9 < alpha <= 2 in d = 3
    and all of d = 2 take K_0 of the polar integral, whose profile refuses
    alpha near 2 (from about 1.99999 in d = 1) with ConsistencyError.  Below
    r_c = _flat_radius, where k is k(0+) = alpha/|S^(d-1)| to 2^-52, every
    route returns that limit; r_c is sought only for a batch holding a radius
    below _FLAT_PROBE.  Every d refuses alpha < MIN_NUMERIC_ALPHA with ConfigError.
    """
    a = spec.alpha
    if a < MIN_NUMERIC_ALPHA:
        raise ConfigError(f"the jump kernel supports alpha >= {MIN_NUMERIC_ALPHA}, got {a}")
    flat, shaped = radial_args(r, positive=True)
    d1 = spec.dim == 1 and (a <= _SINE_ALPHA_MAX or a == 2.0)
    if d1 or (spec.dim == 3 and a <= _IDENTITY_ALPHA_MAX):
        k, far = _far_series(spec, flat)  # alpha = 2 has no power tail: no far radius
        k[~far] = (_k_tail_identity_d1 if d1 else _k_tail_identity_d3)(a, flat[~far])
    else:
        k = _polar_integral(spec, 0.0, flat)
    if np.any(flat < _FLAT_PROBE):
        k[flat < _flat_radius(spec)] = a / surface_measure(spec.dim)
    return shaped(k)


def levy_density(spec: ProcessSpec, x):
    """Jump density j(x) = k(|x|)/|x|^d (isotropic), at one point or a batch.

    One point gives a float, and a batch (see point_radii) an array of values
    from one k_radial call.
    """
    r, shaped = point_radii(spec, x)
    if np.any(r == 0.0):
        raise SingularPointError("levy density blows up like |x|^(-d) at the origin")
    return shaped(over_radius_power(k_radial(spec, r), r, spec.dim))


def _flat_radius(spec: ProcessSpec) -> float:
    """Largest radius of a 10^(-1/10) ladder below which k(r) = k(0+) to 2^-52 relative.

    k(0+) - k(r) = alpha int u^(d-1) q_1(u) (1 - e^(-(r/u)^alpha)) du rises
    with r.  With 1 - e^(-y) <= min(1, y), q_1 <= q_1(0) (q_1 falls with the
    radius) and int_1^inf u^(d-1) q_1 du <= 1/|S^(d-1)|, it is at most
    alpha [q_1(0) (r^d/d + r^alpha int_r^1 u^(d-1-alpha) du) + r^alpha/|S^(d-1)|],
    a bound fitted to no law; gap below is that bound over k(0+) = alpha/|S^(d-1)|.
    0.0 if no ladder radius qualifies.
    """
    a, d, omega = spec.alpha, spec.dim, surface_measure(spec.dim)
    r = np.logspace(0.0, -307.0, 3071)
    inner = -np.log(r) if a == d else (1.0 - r ** (d - a)) / (d - a)
    gap = omega * q1_at_zero(a, d) * (r ** d / d + r ** a * inner) + r ** a
    ok = np.flatnonzero(gap <= 2.0 ** -52)
    return float(r[ok[0]]) if ok.size else 0.0


def polar_levy_mass(spec: ProcessSpec, r_inner: float, r_outer: float) -> float:
    """Jump mass J({r_inner <= |x| <= r_outer}) via the polar representation.

    Surface measure times int k(r)/r dr.  Below r_c = _flat_radius, k is
    alpha/|S^(d-1)| to rounding, so that part is alpha ln(r_c/r_inner); the
    rest is Gauss-Legendre(10) on geometric panels (at least 24 per e-fold).
    """
    if not (0.0 < r_inner < r_outer < math.inf):
        raise ConfigError("need 0 < r_inner < r_outer < inf")
    lo = min(max(r_inner, _flat_radius(spec)), r_outer)
    mass = spec.alpha * math.log(lo / r_inner)
    if lo < r_outer:
        n_panels = max(24, int(np.ceil(24 * np.log(r_outer / lo))))
        r, w = _panel_nodes(np.geomspace(lo, r_outer, n_panels + 1))
        mass += surface_measure(spec.dim) * float(np.sum(k_radial(spec, r) / r * w))
    return mass


@dataclass
class KFunctionTable:
    """Tabulated t*k(r) with its monotonicity certificate.

    Values are finite and nonnegative: k(r) is positive, but rounds to 0.0 where
    it underflows (e^(-r) past r ~ 745 at alpha = 2).
    """

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
        if not np.all((self.values >= 0) & np.isfinite(self.values)):
            raise ValueError("k values must be finite and nonnegative")


def verify_selfdecomposable(spec: ProcessSpec, t: float, r_grid) -> KFunctionTable:
    """Tabulate t*k over r_grid and certify it is nonincreasing.

    The certificate holds for every valid spec and every t > 0, since the
    time-t jump measure is t times the time-one measure and k is decreasing:
    k(r) = (alpha/|S^(d-1)|) P(|X_1| > r), a tail probability (the module's
    tail identity; k_radial computes d = 1 from it up to alpha = 1.999 and
    d = 3 up to alpha = 1.9, the rest by the polar integral).  A failed
    certificate is reported in the table, not raised.  k depends on the
    direction of x only through |x|, so one radial table covers every
    direction.  Neighbours may rise by _MONOTONE_SLACK relative (rounding).
    """
    positive_time(t)
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or np.any(np.diff(r_grid) <= 0) or not np.all(np.isfinite(r_grid)):
        raise ConfigError("r_grid must be finite and strictly increasing")
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
    oracle_constant is the closed-form limit (small_x_constant,
    large_x_constant or exponential_tail_constant), which shares no code with
    the k_radial quadrature that gives the empirical limit.  The closed forms
    show the printed constants are off by fixed factors
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

    SmallX: profile r^(-d), sequence 1e-1 -> ~3e-3, oracle = small_x_constant.
    LargeX, alpha < 2: profile r^(-d-alpha), sequence 12.5 -> 50, oracle =
    large_x_constant. LargeX, alpha = 2: exponential profile
    e^(-r) r^(-(d+1)/2), sequence 5 -> 20, oracle = saddle-point constant.
    """
    regime = Regime(regime)
    a, d = spec.alpha, spec.dim
    if regime is Regime.SMALL_X:
        seq = k_radial(spec, np.geomspace(1e-1, 3.162e-3, 6))
        oracle = small_x_constant(spec)
    elif a == 2.0:
        radii = np.array([5.0, 10.0, 20.0])
        seq = k_radial(spec, radii) / radii ** d * radii ** ((d + 1) / 2.0) * np.exp(radii)
        oracle = exponential_tail_constant(d)
    else:
        radii = np.array([12.5, 25.0, 50.0])
        seq = k_radial(spec, radii) * radii ** a
        oracle = large_x_constant(spec)
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
