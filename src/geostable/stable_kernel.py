"""Symmetric alpha-stable kernels and subordinated increment sampling.

Normalization used throughout: the time-one kernel q_1 has characteristic
function exp(-|xi|^alpha), so q_s(x) = s^(-d/alpha) q_1(s^(-1/alpha) x).
With alpha = 2 this makes q_s a centered Gaussian of variance 2s per
coordinate; with alpha = 1 it is the Cauchy (Poisson) kernel.

Radial evaluation strategy:
  * alpha in {1, 2}: closed forms.
  * otherwise a cached radial profile per (alpha, dim).  Below a switch
    radius, one cubic spline of log q_1 in v = asinh(u/s) through a head
    route's values at knots uniform in v; s is the core width scaled by
    2^(3.5 alpha - 4), so v is linear in u through the core and logarithmic
    on the flank.  From the switch radius on, the power-tail series

        q_1(u) = pi^(-d/2) sum_{k>=1} (-1)^(k+1) k a 2^(k a - 1)
                 Gamma((d + k a)/2) / (k! Gamma(1 - k a/2)) u^(-d - k a).

    This series and levy_structure's polar-integral tail take one route,
    `_series_rows`: every row sums its nonzero terms (k <= 60) up to the
    first growth of their envelope, in blocks of at most _PAIR_BLOCK
    (point, term) pairs.

    The head for alpha < 1 is the sub-Gaussian mixture
    Z = sqrt(2S) N(0, I), with the density of the positive (alpha/2)-stable S
    from Kanter's non-oscillatory integral: no Bessel function, no cutoff,
    one formula for d = 1, 2, 3.  The head for 1 < alpha < 2 inverts
    exp(-rho^alpha) by Ooura & Mori's rule (`_radial_inversion`, shared with
    transition_density; its `_char_integral` gives the d = 1 and 3 jump kernels),
    with a cos, J0 or sin kernel for d = 1, 2, 3.  The switch radius is
    validated against the head at build time, and a profile whose series
    matches at no candidate is refused: it is self-checking.
"""
from __future__ import annotations

import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma as _gamma, j0 as _j0, lambertw as _lambertw, rgamma as _rgamma

from .errors import ConfigError, ConsistencyError, SingularPointError, UnsupportedDimensionError
from .process_core import (ProcessSpec, inversion_integrable, point_radii, positive_time,
                           radial_args, surface_measure)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)

# step of the Fourier rule (681 nodes on |tau| <= 4.25, past which terms fall below 1e-18)
_DE_H = 1.0 / 80.0
# (point, node) pairs per block of the Fourier rule: 2 MB
_PAIR_BLOCK = 2 ** 18
# smallest alpha the radial profile supports: the Kanter mixture head and the
# validated power-tail series are tested down to here, not below
MIN_NUMERIC_ALPHA = 0.3
# Kanter mixture head (alpha < 1): Gauss-Legendre(10) panel counts in the
# log-s variable y, and in u = pi - theta, geometric toward theta = pi and then
# linear over u in [1, pi].  Doubling all three moves q_1 by under 1e-13.
_MIX_Y_PANELS = 96
_MIX_U_GEOMETRIC = 40
_MIX_U_LINEAR = 6
# the mixture grid drops what lies e^(-40) below the integrand's peak for
# every radius up to _MIX_R_MAX, which covers the largest switch probe 1.3 * 44
_MIX_MARGIN = 40.0
_MIX_R_MAX = 60.0


def _panel_nodes(edges):
    """Gauss-Legendre(10) nodes/weights on consecutive panels given by edges."""
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return x, w


def q1_at_zero(alpha: float, dim: int) -> float:
    """q_1(0) = Gamma(d/alpha) / (alpha 2^(d-1) pi^(d/2) Gamma(d/2))."""
    return _gamma(dim / alpha) / (alpha * 2.0 ** (dim - 1) * np.pi ** (dim / 2.0) * _gamma(dim / 2.0))


def _fourier_rule(kernel: str):
    """Nodes y_k, weights w_k: int_0^inf g(p) K(r p) dp ~ (pi/r) sum_k w_k g(y_k / r).

    Ooura & Mori (J. Comput. Appl. Math. 38:353, 1991): K = sin, cos or J0,
    y_k = M phi(tau_k), phi(tau) = tau / (1 - e^(-6 sinh tau)), M = pi/h, tau_k = k h,
    shifted by h/2 for cos so that M tau_k falls on its zeros, and by h/4 for
    J0, whose zeros lie there only asymptotically.  So the J0 weights do not
    vanish far out, and g must be negligible there.  Every kernel loses digits
    at small r: the alpha = 1.999, d = 3 stable head is 5.9e-13 off at
    r = 1e-3 and 3.5e-9 at r = 1e-5, below every profile knot but 0 (the
    smallest is 5.0e-3, at alpha = 1.001, d = 3).
    """
    k = np.arange(-round(4.25 / _DE_H), round(4.25 / _DE_H) + 1)
    tau = (k - {"sin": 0.0, "cos": 0.5, "j0": 0.25}[kernel]) * _DE_H
    s = 6.0 * np.sinh(tau)
    with np.errstate(invalid="ignore"):  # 0/0 at tau = 0, set to the limits below
        phi = tau / -np.expm1(-s)
        dphi = (1.0 - 6.0 * tau * np.cosh(tau) / np.expm1(s)) / -np.expm1(-s)
        shift = tau / np.expm1(s)  # phi - tau, without cancellation
    at_zero = tau == 0.0
    phi[at_zero], dphi[at_zero], shift[at_zero] = 1.0 / 6.0, 0.5, 1.0 / 6.0
    m = np.pi / _DE_H
    if kernel == "j0":
        return m * phi, dphi * _j0(m * phi)
    # K(M phi) = (-1)^k sin(M (phi - tau_k)) keeps full precision near the
    # zeros (tau > 0); for tau < 0, M phi is small and K is evaluated directly
    near_zeros = np.where(k % 2, -1.0, 1.0) * np.sin(m * shift)
    direct = np.sin(m * phi) if kernel == "sin" else np.cos(m * phi)
    return m * phi, dphi * np.where(tau < 0, direct, near_zeros)


# (nodes, weights) of each kernel's rule, built once and read-only
_FOURIER_RULES = {kernel: _fourier_rule(kernel) for kernel in ("sin", "cos", "j0")}
for _table in _FOURIER_RULES.values():
    for _column in _table:
        _column.flags.writeable = False


def _char_integral(kernel: str, power: float, alpha: float, t, r: np.ndarray) -> np.ndarray:
    """int_0^inf p^power f(p) K(r p) dp at each r > 0 of a 1-d array, by `_fourier_rule`'s table.

    f(p) = (1 + p^alpha)^(-t), or the stable law's exp(-p^alpha) when t is
    None.  Blocks hold at most _PAIR_BLOCK (point, node) pairs, and each
    point is summed on its own row, so its value does not depend on the rest
    of the batch.  Rows where (y/r)^alpha or r^(-1-power) would overflow
    (tiny r) are summed in log space: log1p((y/r)^alpha) + alpha log r is
    logaddexp(alpha log r, alpha log y), so the row's scale r^(t alpha) and
    r^(-1-power) join each node's exponent; the other rows are unchanged.
    """
    y, w = _FOURIER_RULES[kernel]
    y_alpha, wy = y ** alpha, w * y ** power
    with np.errstate(over="ignore"):
        tiny = ~(np.isfinite(r ** -alpha * y_alpha[-1]) & np.isfinite(np.pi * r ** (-1.0 - power)))

    def direct(rb):
        z = np.multiply.outer(rb ** -alpha, y_alpha)
        z = -z if t is None else np.log1p(z) * -t
        return np.pi * rb ** (-1.0 - power) * (np.exp(z, out=z) * wy).sum(axis=1)

    def scaled(rb):
        log_y, log_r = np.log(y), np.log(rb)[:, None]
        with np.errstate(divide="ignore"):  # a weight of 0 is a term of 0
            log_wy = np.log(np.abs(wy))
        scale = (-1.0 - power) * log_r
        if t is None:  # exp(-(y/r)^alpha) underflows to 0 before its exponent overflows
            z = -np.exp(np.minimum(alpha * (log_y - log_r), 709.0))
        else:
            z = -t * np.logaddexp(alpha * log_r, alpha * log_y)
            scale = scale + t * alpha * log_r
        z += scale + log_wy
        return np.pi * (np.sign(wy) * np.exp(z, out=z)).sum(axis=1)

    sums = np.empty(r.size)
    rows = max(1, _PAIR_BLOCK // y.size)
    for rule, mask in ((direct, ~tiny), (scaled, tiny)):
        idx = np.flatnonzero(mask)
        for i0 in range(0, idx.size, rows):
            sums[idx[i0:i0 + rows]] = rule(r[idx[i0:i0 + rows]])
    return sums


def _kanter_log_a(beta, u):
    """log A(pi - u) for Kanter's function, the one `_log_positive_stable_into` draws with:

        A(theta) = sin(beta theta)^(beta/(1-beta)) sin((1-beta) theta) / sin(theta)^(1/(1-beta)).

    Taken at theta = pi - u so that theta near pi, where A blows up like
    sin(beta pi)^(1/(1-beta)) u^(-1/(1-beta)), keeps full precision.
    """
    th = np.pi - u
    return (beta / (1.0 - beta) * np.log(np.sin(beta * th)) + np.log(np.sin((1.0 - beta) * th))
            - np.log(np.sin(u)) / (1.0 - beta))


def _mixture_head(alpha, dim):
    """q_1 for 0 < alpha < 1 as a function of radii up to _MIX_R_MAX.

    Z = sqrt(2S) N(0, I) with S positive (alpha/2)-stable (Samorodnitsky &
    Taqqu 1994, 2.5), and S has Kanter's density (Kanter 1975).  With
    s = e^(-y), beta = alpha/2 and c = beta/(1 - beta):

        q_1(r) = (c/pi) (4 pi)^(-d/2) int dy e^((d/2) y) e^(-r^2 e^y / 4) G(y),
        G(y)   = int_0^pi A(theta) e^(c y) exp(-A(theta) e^(c y)) dtheta.

    G is tabulated once on a Gauss-Legendre y-grid, so each radius costs one
    row of a matrix product.  Every integrand is positive: no cancellation.
    """
    beta = alpha / 2.0
    c = beta / (1.0 - beta)
    # y -> -inf: G ~ e^(beta y), and radius r peaks near e^y = 4 rate / r^2
    rate = dim / 2.0 + beta
    y_lo = math.log(4.0 * rate / _MIX_R_MAX ** 2) - _MIX_MARGIN / rate
    # y -> +inf: with z = e^(c y) the r = 0 integrand is below z^k e^(-A(0) z),
    # k = d/(2c) + 1; cut where that falls e^(-margin) below its peak z = k/A(0)
    k = dim / (2.0 * c) + 1.0
    x = -_lambertw(-math.exp(-1.0 - _MIX_MARGIN / k), -1).real
    y_hi = math.log(x * k / (beta ** c * (1.0 - beta))) / c
    # at small z, G lives in a bump at u ~ sin(beta pi) z^(1 - beta) near theta = pi
    u_min = 0.01 * math.sin(beta * math.pi) * math.exp(beta * y_lo)
    u, wu = _panel_nodes(np.concatenate([np.geomspace(u_min, 1.0, _MIX_U_GEOMETRIC + 1),
                                         np.linspace(1.0, np.pi, _MIX_U_LINEAR + 1)[1:]]))
    y, wy = _panel_nodes(np.linspace(y_lo, y_hi, _MIX_Y_PANELS + 1))
    log_z = c * y[:, None] + _kanter_log_a(beta, u)[None, :]
    weights = ((np.exp(0.5 * dim * y[:, None] + log_z - np.exp(log_z)) @ wu) * wy
               * (c / np.pi * (4.0 * np.pi) ** (-dim / 2.0)))
    quarter_ey = 0.25 * np.exp(y)

    def head(r):
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        for i0 in range(0, r.size, 128):  # blocks keep the (radius, y) scratch small
            out[i0:i0 + 128] = np.exp(-np.square(r[i0:i0 + 128])[:, None] * quarter_ey[None, :]) @ weights
        return out

    return head


def _radial_inversion(alpha, t, dim, r):
    """Radial Fourier inversion of f at radii r >= 0 (1-d): q_1 for t None, else p_t.

    f(p) = exp(-p^alpha) for t None, else (1 + p^alpha)^(-t).  `_char_integral`
    with a cos, J0 or sin kernel for d = 1, 2, 3, times 1/pi, 1/(2 pi) or
    1/(2 pi^2 r); J0 only for exp(-p^alpha), as its weights do not vanish far
    out.  At r = 0, q_1(0) or, for t > d/alpha, the Beta value of p_t(0) in
    transition_density's docstring; SingularPointError for t <= d/alpha.
    """
    out = np.empty(r.shape)
    pos = r > 0
    if not pos.all():
        if t is None:
            out[~pos] = q1_at_zero(alpha, dim)
        elif inversion_integrable(ProcessSpec(alpha, dim), t):
            beta = _gamma(dim / alpha) * _gamma(t - dim / alpha) / _gamma(t)
            out[~pos] = surface_measure(dim) * beta / (alpha * (2.0 * np.pi) ** dim)
        else:
            raise SingularPointError(
                f"p_t(0) is infinite for t <= d/alpha = {dim / alpha:g}, got t = {t}")
    if pos.any():
        kernel, power, norm = (("cos", 0, 1.0 / np.pi), ("j0", 1, 0.5 / np.pi),
                               ("sin", 1, 0.5 / np.pi ** 2))[dim - 1]
        out[pos] = norm * _char_integral(kernel, power, alpha, t, r[pos])
        if dim == 3:
            out[pos] /= r[pos]
    return out


def tail_coefficients(alpha: float, dim: int) -> np.ndarray:
    """Coefficients c_k, k = 1..60, of the power-tail series q_1(u) = sum c_k u^(-d-k*alpha).

    Entries with k*alpha/2 a positive integer vanish identically (reciprocal
    gamma zeros); alpha = 2 has no power tail at all.
    """
    k = np.arange(1, 61, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        c = (np.pi ** (-dim / 2.0) * (-1.0) ** (k + 1) * k * alpha
             * 2.0 ** (k * alpha - 1.0) * _gamma((dim + k * alpha) / 2.0)
             * _rgamma(1.0 - k * alpha / 2.0) * _rgamma(k + 1.0))
    c[~np.isfinite(c)] = 0.0
    return c


def _envelope_columns(c_nz, k_nz):
    """Column map that reads the magnitude envelope of a series from its terms.

    Near a zero of 1/Gamma(1 - k alpha/2), as for every even k near alpha = 1,
    a coefficient nearly vanishes, so its term is tiny at every radius and the
    next one would read as asymptotic growth.  A coefficient counts as such a
    dip when it lies more than e^3 below the log-linear interpolation of its
    nonzero neighbours; the powers u^(-k alpha) are log-linear in k, so the
    test holds at every radius.  A dip's column maps to the last regular
    column before it, every other column to itself: where no coefficient
    dips, the envelope is the magnitudes themselves.
    """
    dip = np.zeros(k_nz.size, dtype=bool)
    if k_nz.size > 2:
        lm = np.log(np.abs(c_nz))
        k = k_nz
        trend = ((k[2:] - k[1:-1]) * lm[:-2] + (k[1:-1] - k[:-2]) * lm[2:]) / (k[2:] - k[:-2])
        dip[1:-1] = lm[1:-1] - trend < -3.0
    return np.maximum.accumulate(np.where(dip, 0, np.arange(k_nz.size)))


def _series_rows(term, x, coeffs):
    """Sums of a power-tail series at the points x (1-d), each row cut at its envelope's first growth.

    term(x_col, c, k) gives the (point, term) matrix for a column of points,
    from the nonzero coefficients c and their indices k (as floats).  It is
    built under an errstate that ignores every floating-point warning, in
    blocks of at most _PAIR_BLOCK (point, term) pairs.  Each row sums its
    terms up to the first growth of the envelope |terms|[:, _envelope_columns]
    (asymptotic breakdown), and a term that is not finite counts as growth;
    so no value depends on the rest of the batch.  Returns the sums, 0 where
    no term is kept, and the envelope of the last kept term, inf where none is.
    """
    sums = np.zeros(x.size)
    last = np.full(x.size, np.inf)
    nz = np.flatnonzero(coeffs)
    if nz.size == 0:
        return sums, last
    c, k = coeffs[nz], (nz + 1).astype(float)
    env_cols = _envelope_columns(c, k)
    rows = max(1, _PAIR_BLOCK // k.size)
    for i0 in range(0, x.size, rows):
        with np.errstate(all="ignore"):  # overflow, underflow, and sums past a non-finite term
            terms = term(x[i0:i0 + rows, None], c, k)
            env = np.abs(terms)[:, env_cols]
            stop = ~np.isfinite(terms)
            stop[:, 1:] |= env[:, 1:] > env[:, :-1]
            n_keep = np.where(stop.any(axis=1), np.argmax(stop, axis=1), k.size)
            kept = np.flatnonzero(n_keep)
            cum = np.cumsum(terms, axis=1, out=terms)
        sums[i0 + kept] = cum[kept, n_keep[kept] - 1]
        last[i0 + kept] = env[kept, n_keep[kept] - 1]
    return sums, last


def _series_batch(alpha, dim, u, coeffs):
    """Tail series of q_1 at radii u (1-d array), by _series_rows.

    Returns (values, relerrs) with relerr = |last kept regular term| / |sum|.
    """
    u = np.asarray(u, dtype=float)
    vals, last = _series_rows(lambda x, c, k: c * x ** (-dim - k * alpha), u, coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        return vals, np.where(vals != 0.0, last / np.abs(vals), np.inf)


_SWITCH_CANDIDATES = (6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 26.0, 34.0, 44.0)


class StableRadialProfile:
    """Radial density q_1(|x|) for one (alpha, dim), cheap to evaluate in bulk.

    Attributes
    ----------
    tail_start : radius beyond which the power series represents q_1
                 (for alpha = 2, the radius beyond which q_1 underflows).
    coeffs     : power-tail coefficients (all zero for alpha = 2).
    tail_relerr: validated relative accuracy of the series at tail_start, at least
                 eps = 2^-52, the rounding of either value (0 at alpha = 2: no series).
    """

    def __init__(self, alpha: float, dim: int):
        if dim not in (1, 2, 3):
            raise UnsupportedDimensionError(
                f"radial stable density supports dim in {{1, 2, 3}}, got {dim}")
        if not (0.0 < alpha <= 2.0):
            raise ConfigError(f"alpha must lie in (0, 2], got {alpha}")
        if alpha < MIN_NUMERIC_ALPHA:
            raise ConfigError(
                f"the radial stable profile supports alpha >= {MIN_NUMERIC_ALPHA}, got {alpha}")
        self.alpha = float(alpha)
        self.dim = int(dim)
        self.coeffs = tail_coefficients(alpha, dim)
        self._spline = None  # the closed forms need none
        if alpha == 2.0:
            # Gaussian: no power tail; exp(-u^2/4) underflows past u ~ 53
            self.tail_start = 53.0
            self.tail_relerr = 0.0
            return
        if alpha == 1.0:
            head = self._closed_form
        elif alpha < 1.0:
            head = _mixture_head(alpha, dim)
        else:
            head = functools.partial(_radial_inversion, alpha, None, dim)
        self.tail_start, self.tail_relerr = self._pick_switch(head)
        if alpha == 1.0:
            return
        # q_1 falls off from q_1(0) like 1 - (u/sigma)^2 with
        # sigma^-2 = Gamma((d+2)/alpha) / (2 d Gamma(d/alpha)), a core as narrow
        # as 5e-4 at alpha = 0.3, and like a power of u beyond it
        sigma = math.sqrt(2.0 * dim * _gamma(dim / alpha) / _gamma((dim + 2) / alpha))
        self._scale = sigma * 2.0 ** (3.5 * alpha - 4.0)
        v = np.linspace(0.0, math.asinh(self.tail_start / self._scale), 481 if alpha < 1.0 else 321)
        # q_1 is even: clamp its derivative at 0
        self._spline = CubicSpline(v, np.log(head(self._scale * np.sinh(v))),
                                   bc_type=((1, 0.0), "not-a-knot"))

    def _closed_form(self, u):
        # neither form squares u, which overflows past u ~ 1.3e154: the Gaussian
        # is 0 in floats past u = 60, and (1 + u^2)^(1/2) is hypot(1, u)
        if self.alpha == 2.0:
            return (4.0 * np.pi) ** (-self.dim / 2.0) * np.exp(-np.minimum(u, 60.0) ** 2 / 4.0)
        if self.alpha == 1.0:
            d = self.dim
            return _gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0) * np.hypot(1.0, u) ** -(d + 1)
        return None

    def _pick_switch(self, head):
        """Smallest switch radius at which the series matches the independent head.

        Their gap there is reported, at least eps = 2^-52, the rounding of either
        value.  Raises ConsistencyError when no candidate validates to 3e-9.
        """
        best = np.inf
        for u_sw in _SWITCH_CANDIDATES:
            probes = np.array([u_sw, 1.3 * u_sw])
            sv, serr = _series_batch(self.alpha, self.dim, probes, self.coeffs)
            rel = float(max(np.max(np.abs(sv / head(probes) - 1.0)), np.max(serr), 2.0 ** -52))
            if rel < 3e-9:
                return u_sw, rel
            best = min(best, rel)
        raise ConsistencyError(
            f"power-tail series of q_1 (alpha {self.alpha}, dim {self.dim}) matches its head "
            f"to {best:.1e} at best over switch radii {_SWITCH_CANDIDATES}, not 3e-9")

    def density(self, u):
        """q_1 at radii u >= 0 (a float for a scalar, else u's shape); exact closed form if any."""
        u, shaped = radial_args(u)
        out = self._closed_form(u)
        if out is None:
            out = np.empty_like(u)
            near = u < self.tail_start
            if near.any():
                out[near] = np.exp(self._spline(np.arcsinh(u[near] / self._scale)))
            if not near.all():
                out[~near] = _series_batch(self.alpha, self.dim, u[~near], self.coeffs)[0]
        return shaped(out)


_PROFILE_CACHE: dict = {}


def radial_profile(alpha: float, dim: int) -> StableRadialProfile:
    key = (round(float(alpha), 12), int(dim))
    prof = _PROFILE_CACHE.get(key)
    if prof is None:
        prof = StableRadialProfile(alpha, dim)
        _PROFILE_CACHE[key] = prof
    return prof


# Old name kept only because perfbench/workloads.py builds
# sk.StableKernelConfig(alpha, dim), and the benchmark harness must run
# unchanged against every version it compares.  Use ProcessSpec.
StableKernelConfig = ProcessSpec


def stable_density(spec: ProcessSpec, s: float, x):
    """q_s(x) = s^(-d/alpha) q_1(s^(-1/alpha) x), for dim <= 3.

    One point gives a float, and a batch (see point_radii) an array.
    """
    r, shaped = point_radii(spec, x)
    return shaped(stable_density_radial(spec, s, r))


def stable_density_radial(spec: ProcessSpec, s: float, r):
    """Radial variant of stable_density at radii r >= 0 (a float for a scalar, else r's shape).

    q_s(r) is at most q_s(0) = s^(-d/alpha) q_1(0).  An s below
    (DBL_MAX / (2 max(q_1(0), 1)))^(-alpha/d), 1.1e-154 at (alpha, d) = (0.5, 1),
    is refused with ConfigError: there q_s(0) or the power s^(-d/alpha) comes
    within a factor 2 of overflow, a margin for the powers' rounding.  Where
    s^(-1/alpha) r overflows, q_1 is taken at inf, 0.
    """
    positive_time(s)
    r, shaped = radial_args(r)
    prof = radial_profile(spec.alpha, spec.dim)
    bound = (sys.float_info.max / (2.0 * max(prof.density(0.0), 1.0))) ** (-spec.alpha / spec.dim)
    if s < bound:
        raise ConfigError(f"s must be at least {bound!r} at (alpha, d) = ({spec.alpha:g}, "
                          f"{spec.dim}), below which q_s(0) overflows, got {s}")
    with np.errstate(over="ignore"):  # q_1(inf) = 0
        u = float(s) ** (-1.0 / spec.alpha) * r
    return shaped(float(s) ** (-spec.dim / spec.alpha) * prof.density(u))


class RngStream:
    """Reproducible, splittable randomness source.

    Identical seeds give identical draw sequences; child streams obtained from
    split() are deterministic functions of the parent's seed path, so batched
    Monte Carlo runs reproduce regardless of batch scheduling.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self.gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n: int):
        return [RngStream(self.seed, _seq=child) for child in self._seq.spawn(n)]

    def __repr__(self):
        return f"RngStream(seed={self.seed})"


def _draw_count(size) -> int:
    """Rows a sampler draws: 1 for size None, else size, a Python or numpy integer >= 0.

    Anything else (a negative or fractional count, a bool, a float) is a ConfigError.
    """
    if size is None:
        return 1
    if isinstance(size, (bool, np.bool_)) or not isinstance(size, (int, np.integer)) or size < 0:
        raise ConfigError(f"size must be None or an integer >= 0, got {size!r}")
    return int(size)


# a uniform's cell of width 2^-53 at which one of the sines below vanishes
# (r = 0, or U = 0 at r = 1/2) is represented by its midpoint, so every log is finite
_R_FLOOR = 2.0 ** -54
# entries whose GS rejections are finished together: this bounds the scratch
# when rejections are common (about a quarter of the entries near t = 1)
_GS_BLOCK = 1 << 16
# rows per batch of a sampler call: a call of more rows draws its batches
# from split substreams, in parallel (`_stable_draws`)
_DRAW_BATCH = 1 << 18
# fewest slots in a walk's block (`_walk_block`); a block holds a third of its
# batch if that is more, so the scratch stays within 7/3 vectors a path while
# each vector pass stays long: two threads of short passes queue on the GIL
_WALK_BLOCK = 20_480


def _neg_log_sin2(x: np.ndarray) -> None:
    """Overwrite angles x in (0, pi/2) with -log sin(2x) = log cosh(log tan x).

    sin 2x = 2 tan x / (1 + tan^2 x) = 1 / cosh(log tan x), a chain of unary
    ufuncs that runs in place; numpy's float64 tan, log and cosh are SIMD,
    its sin and cos are not.
    """
    np.tan(x, out=x)
    np.log(x, out=x)
    np.cosh(x, out=x)
    np.log(x, out=x)


def _log_gamma_into(t, gen: np.random.Generator, out: np.ndarray, u: np.ndarray,
                    w: np.ndarray, p_floor=None) -> None:
    """Write log G, G ~ Gamma(t, 1), into out (log G = 0 when t is None).

    For t >= 1 numpy's standard_gamma, then log.  For t < 1 the GS rejection
    of Ahrens & Dieter (1974), drawn in log space, where G itself underflows
    at small t: with b = 1 + t/e and P = b U, a candidate P <= 1 is
    X = P^(1/t), accepted when an exponential E >= X, so log X = log(P)/t is
    compared with log E; a candidate P > 1 is X = -log((b - P)/t), accepted
    when E >= (1 - t) log X.  One uniform, one exponential and two logs per
    entry; the rejections and the P > 1 candidates (a fraction t/(e + t)) are
    finished on their own indices, from the same generator, until every entry
    is accepted.

    p_floor, an array of out's shape with entries in [0, 1], truncates entry
    i to log G >= L_i, where p_floor_i = e^(t L_i) (t < 1 only): every
    candidate P of entry i is drawn on [p_floor_i, b), so every candidate
    has X >= e^(L_i), and GS accepts a candidate with a probability that
    depends on X alone, so the accepted draw is Gamma(t) conditioned on
    log G >= L_i.  p_floor_i = 0 leaves entry i untruncated.
    u and w are scratch buffers of out's shape.
    """
    if t is None:
        out.fill(0.0)
        return
    if t >= 1.0:
        gen.standard_gamma(t, out=out)
        np.log(out, out=out)
        return
    b = 1.0 + t / math.e

    def candidates(idx):
        v = gen.random(idx.size)
        if p_floor is None:
            return b * v
        lo = p_floor[idx]
        return lo + (b - lo) * v

    gen.random(out=u)
    if p_floor is None:
        u *= b
    else:
        np.subtract(b, p_floor, out=w)
        u *= w
        u += p_floor
    gen.standard_exponential(out=w)
    np.log(u, out=out)
    out *= 1.0 / t
    np.log(w, out=w)
    # log X > 0 exactly when P > 1, so min(log E, 0) < log X flags both the
    # rejections and the other branch
    np.minimum(w, 0.0, out=w)
    for start in range(0, out.size, _GS_BLOCK):
        stop = start + _GS_BLOCK
        idx = start + np.flatnonzero(w[start:stop] < out[start:stop])
        p = u[idx]
        lo = np.flatnonzero(p <= 1.0)
        p[lo] = candidates(idx[lo])  # a rejection draws anew; P > 1 takes its own test
        while idx.size:
            e = gen.standard_exponential(idx.size)
            log_x = np.log(p) / t
            hi = np.flatnonzero(p > 1.0)
            log_x[hi] = np.log(-np.log((b - p[hi]) / t))
            ok = e >= np.exp(log_x)
            ok[hi] = e[hi] >= (1.0 - t) * log_x[hi]
            acc = np.flatnonzero(ok)
            out[idx[acc]] = log_x[acc]
            idx = idx[np.flatnonzero(~ok)]
            p = candidates(idx)


def _cms_into(alpha: float, out: np.ndarray, uw: np.ndarray) -> None:
    """Chambers-Mallows-Stuck in place: G^(1/alpha) Z into out, for 0 < alpha < 2.

    On entry out holds log G + (a - 1) log W, with log W taken by the caller,
    and uw[0] uniforms r on [0, 1); uw, of shape (2,) + out.shape, is
    overwritten.  With the angle U = pi (r - 1/2),

        G^(1/a) Z = sin(a U) exp(log G / a - log cos(U) / a
                                 + ((1 - a)/a) (log cos((1 - a) U) - log W)),

    one exp of a sum of logs, so no power over- or underflows on its own.
    Every sine and cosine is a sine of an angle in (0, pi) and comes from
    `_neg_log_sin2`: cos U = sin(pi s) with s = min(r, 1 - r), so no angle
    difference cancels near U = +-pi/2; cos((1 - a) U) = sin(pi m/2 + pi |1 - a| s)
    with m = min(a, 2 - a), an angle of at least pi m/2, so s may come from
    1/2 - |r - 1/2| there; |sin(a U)| = sin(a pi |r - 1/2|), whose sign is
    that of r - 1/2.  The last two share one pass over both rows of uw.
    Against the formula above in extended precision the result is within
    4e-13 relative for r in [1e-6, 1 - 1e-6] and alpha in [0.3, 2).
    """
    a = alpha
    u, w = uw
    # out accumulates alpha log|X| = log G + N1 - (1 - a)(log W + N2) - a N3,
    # with N1, N2, N3 = -log of cos U, cos((1 - a) U), |sin(a U)|
    np.subtract(1.0, u, out=w)
    np.minimum(u, w, out=w)
    np.maximum(w, _R_FLOOR, out=w)
    u -= 0.5
    negative = np.signbit(u)  # the sign of U
    np.abs(u, out=u)
    np.maximum(u, _R_FLOOR, out=u)
    w *= 0.5 * np.pi
    _neg_log_sin2(w)
    out += w
    np.subtract(0.5, u, out=w)
    w *= 0.5 * np.pi * abs(1.0 - a)
    w += 0.25 * np.pi * min(a, 2.0 - a)
    u *= 0.5 * a * np.pi
    _neg_log_sin2(uw)
    w *= a - 1.0
    out += w
    out *= 1.0 / a
    out -= u
    np.exp(out, out=out)
    np.subtract(0.5, negative, out=u)
    np.copysign(out, u, out=out)


def _stable_into(alpha: float, t, gen: np.random.Generator, out: np.ndarray,
                 uw: np.ndarray, p_floor=None) -> None:
    """Write G^(1/alpha) Z into out: one d = 1 draw per entry, no full-size allocation.

    G ~ Gamma(t, 1), or G = 1 when t is None, and Z is symmetric alpha-stable
    with characteristic function exp(-|xi|^alpha).  log G comes first, from
    `_log_gamma_into`, truncated by p_floor when that is given; then
    alpha = 2 is sqrt(2 G) N, alpha = 1 is G tan(U), and every other alpha
    adds (alpha - 1) log W to log G and sends it with a uniform r to
    `_cms_into`.  The generator is called for log G, then for the normal
    (alpha = 2), the uniform (alpha = 1), or r and V of W = -log(1 - V) in one
    call on the C-contiguous uw.  1 - V is exact, so 0 <= W <= 53 log 2, and
    W = 0 (V = 0) is floored to _R_FLOOR, the midpoint of its cell: log W is
    finite and W lies in [2^-54, 53 log 2], which `_walk_screen` relies on.
    uw is a C-contiguous scratch buffer of shape (2,) + out.shape.
    """
    u, w = uw
    _log_gamma_into(t, gen, out, u, w, p_floor)
    if alpha == 2.0:
        gen.standard_normal(out=u)
        out += math.log(2.0)
        out *= 0.5
        np.exp(out, out=out)
        out *= u
    elif alpha == 1.0:  # G tan(U)
        gen.random(out=u)
        np.exp(out, out=out)
        u -= 0.5
        u *= np.pi
        np.tan(u, out=u)
        out *= u
    else:
        gen.random(out=uw)
        np.subtract(1.0, w, out=w)
        np.log(w, out=w)
        np.negative(w, out=w)
        np.maximum(w, _R_FLOOR, out=w)
        np.log(w, out=w)
        w *= alpha - 1.0
        out += w
        _cms_into(alpha, out, uw)


def _walk_screen(alpha: float, t: float):
    """Constants (t C, log Gamma(1 + t)) of the walk's screen, or None where it is off.

    With s = max(min(r, 1 - r), 2^-54) >= 2^-54 and W in [2^-54, 53 log 2]
    (`_stable_into`), the bound on the Chambers-Mallows-Stuck draw,

        alpha log|G^(1/alpha) Z| <= log G - log(2 s) + (alpha - 1) log W + c,

    c = -(alpha - 1) log cos((alpha - 1) pi/2) for alpha > 1 and 0 below,
    is at most log G + 53 log 2 + max_W (alpha - 1) log W + c for every r
    and W.  So a step with log G < alpha log|x| + C, where
    C = -55 alpha log 2 - 53 log 2 - max_W (alpha - 1) log W - c, moves x by
    under 2^-55 |x|, a quarter of the float spacing at x: x + increment
    rounds to x.  alpha in {1, 2} has no W and t >= 1 no GS draw, so the
    screen is off there.
    """
    a = alpha
    if a in (1.0, 2.0) or t >= 1.0:
        return None
    if a > 1.0:
        c = -(a - 1.0) * math.log(math.cos((a - 1.0) * math.pi / 2.0))
        log_w = (a - 1.0) * math.log(53.0 * math.log(2.0))
    else:
        c = 0.0
        log_w = (a - 1.0) * math.log(_R_FLOOR)
    big_c = -55.0 * a * math.log(2.0) - 53.0 * math.log(2.0) - log_w - c
    return t * big_c, math.lgamma(1.0 + t)


# the screen's level never exceeds log 2^-53: below it, P(log G < L) is
# e^(t L)/Gamma(1 + t) to a relative 2^-53 (the series of the lower
# incomplete gamma function)
_SCREEN_CAP = -53.0 * math.log(2.0)
# slots closed up at a time when a walk's last paths end: bounds the copies
_CLOSE_CHUNK = 1 << 12


def _walk_block(n: int) -> int:
    """Slots of an event walk's block for n paths: a third of them, at least _WALK_BLOCK."""
    return min(n, max(_WALK_BLOCK, -(-n // 3)))


def _walk_scratch(alpha: float, t: float, n: int) -> np.ndarray:
    """Scratch for `_walk_into` on n paths, made by the caller.

    A walk runs in a worker thread, and buffers made there come from that
    thread's malloc arena, which cannot reuse what the calling thread has
    freed: the process's peak memory would grow by the scratch.
    """
    if _walk_screen(alpha, t) is None:
        return np.empty(3 * n)
    m = _walk_block(n)
    return np.empty(7 * m + -(-m // 8))


def _walk_into(alpha: float, t: float, steps: int, gen: np.random.Generator,
               x: np.ndarray, clock: np.ndarray, rho_into, scratch: np.ndarray) -> None:
    """Walk paths (x_i, clock_i) through `steps` d = 1 increments G^(1/alpha) Z, G ~ Gamma(t).

    Each path's clock gains the left-endpoint sum of rho(x_k) t over its
    steps k; rho_into(x, out, scratch) writes rho at x into out, and may use
    scratch, a float buffer of x's shape.  x and clock end holding the
    paths' (endpoint, clock) pairs, in the order the paths finish.  scratch
    comes from `_walk_scratch`.

    The walk is event-driven.  With L(x) = min(alpha log|x| + C, -53 log 2)
    (`_walk_screen`), a step with log G < L(x) leaves x unchanged, and it
    has probability q = e^(t L)/Gamma(1 + t).  So a path draws the number K
    of still steps before its next event, K = floor(log(1 - V) / log q)
    from one uniform V, adds rho(x) t (K + 1) to its clock, and at the
    event takes one increment with G drawn from Gamma(t) truncated to
    log G >= L(x) (`_stable_into` with p_floor = e^(t L)).  The path then
    has the law of drawing and adding every increment, and rho is looked up
    once per event.  At x = 0, L = -inf and K = 0.

    Paths run in the slots of one block (`_walk_block`): each round every
    slot draws its skip count and an increment, and a path that ends hands
    its slot to the next path of x, so the vectors stay full until the last
    paths.  Where the screen is off (alpha in {1, 2}, t >= 1) every step is
    an event for every path, so a round is one step of all paths at once,
    taken in place in x and clock.
    """
    n = x.size
    screen = _walk_screen(alpha, t)
    m = n if screen is None else _walk_block(n)
    seg_buf, uw_buf = scratch[:m], scratch[m:3 * m]
    if screen is None:
        xs, cs, left = x, clock, steps
    else:
        # position, clock and steps still to take, this round's included
        state = scratch[3 * m:6 * m].reshape(3, m)
        state[0], state[1], state[2] = x[:m], clock[:m], steps
        floor_buf, event_buf = scratch[6 * m:7 * m], scratch[7 * m:].view(bool)[:m]
        fresh, ended = m, 0  # paths of x put into a slot, and paths written back
    while m:
        seg, uw = seg_buf[:m], uw_buf[:2 * m].reshape(2, m)
        u, w = uw
        if screen is None:
            rho_into(xs, u, w)
            u *= t
            cs += u
            _stable_into(alpha, t, gen, seg, uw)
            xs += seg
            left -= 1
            m = m if left else 0
            continue
        xs, cs, left = state[:, :m]
        p_floor, event = floor_buf[:m], event_buf[:m]
        # t L into p_floor, log q = t L - log Gamma(1 + t) into u
        np.abs(xs, out=p_floor)
        with np.errstate(divide="ignore"):
            np.log(p_floor, out=p_floor)
        p_floor *= t * alpha
        p_floor += screen[0]
        np.minimum(p_floor, t * _SCREEN_CAP, out=p_floor)
        np.subtract(p_floor, screen[1], out=u)
        np.exp(p_floor, out=p_floor)
        # K + 1 = floor(log(1 - V) / log q) + 1, with 1 - V exact; K = 0 where L = -inf
        gen.random(out=seg)
        np.subtract(1.0, seg, out=seg)
        np.log(seg, out=seg)
        seg /= u
        np.floor(seg, out=seg)
        seg += 1.0
        np.less_equal(seg, left, out=event)
        np.minimum(seg, left, out=seg)
        left -= seg
        rho_into(xs, u, w)
        seg *= t
        seg *= u
        cs += seg
        _stable_into(alpha, t, gen, seg, uw, p_floor)
        seg *= event  # a path that ends without an event keeps its position
        xs += seg
        np.equal(left, 0.0, out=event)
        done = np.flatnonzero(event)
        k = done.size
        if k == 0:
            continue
        # mode "clip" writes into out directly; the default "raise" buffers it
        np.take(xs, done, out=x[ended:ended + k], mode="clip")
        np.take(cs, done, out=clock[ended:ended + k], mode="clip")
        ended += k
        r = min(k, n - fresh)
        xs[done[:r]] = x[fresh:fresh + r]
        cs[done[:r]] = clock[fresh:fresh + r]
        left[done[:r]] = steps
        fresh += r
        if r < k:  # no path left to start: close the open slots up, in order
            event.fill(True)
            event[done[r:]] = False
            del done
            for row in state[:, :m]:
                kept = 0
                for lo in range(0, m, _CLOSE_CHUNK):
                    part = row[lo:lo + _CLOSE_CHUNK][event[lo:lo + _CLOSE_CHUNK]]
                    row[kept:kept + part.size] = part
                    kept += part.size
            m = kept


def _rows_into(alpha: float, t, gen: np.random.Generator, out: np.ndarray,
               scratch: np.ndarray) -> None:
    """Write G^(1/alpha) Z into the rows of out, of shape (m, d) with d >= 2.

    G ~ Gamma(t, 1), or G = 1 when t is None, and Z in R^d is
    rotation-invariant alpha-stable: for alpha < 2, Z = sqrt(2A) N(0, I) with
    A a one-sided (alpha/2)-stable draw (`_log_positive_stable_into`); at
    alpha = 2 directly X = sqrt(2G) N(0, I).  The generator is called for
    log G (not at all when t is None), then for A, then for the normals,
    which `standard_normal` writes into out in place.  Until then the first
    2m entries of out, a C-contiguous array, are the scratch of those two
    draws.  scratch, of shape (2, m), receives log G and log A.
    """
    m = out.shape[0]
    u, w = out.reshape(-1)[:2 * m].reshape(2, m)
    scale, log_a = scratch
    _log_gamma_into(t, gen, scale, u, w)
    scale *= 1.0 / alpha
    if alpha < 2.0:
        _log_positive_stable_into(alpha / 2.0, gen, log_a, u, w)
        log_a *= 0.5
        scale += log_a
    scale += 0.5 * math.log(2.0)
    np.exp(scale, out=scale)  # sqrt(2 G) at alpha = 2, G^(1/alpha) sqrt(2 A) else
    gen.standard_normal(out=out)
    out *= scale[:, None]


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _stable_draws(alpha, t, dim, rng, size):
    """size draws G^(1/alpha) Z in R^dim (G = 1 when t is None), in batches.

    A call of at most _DRAW_BATCH draws fills one array from rng.gen.  A
    larger one splits rng into one substream per batch of _DRAW_BATCH rows;
    batch i fills rows [i B, (i + 1) B) of the one output array from child i,
    and the batches run on min(batches, usable cores) threads, which numpy's
    generator fills and ufuncs let run at once.  So the draws depend on the
    seed and the batch plan, never on the number of cores.  Each thread's
    scratch, two vectors of one batch, is made here, for the reason
    `_walk_scratch` gives.
    """
    n = _draw_count(size)
    out = np.empty(n if dim == 1 else (n, dim))
    fill = _stable_into if dim == 1 else _rows_into
    if n <= _DRAW_BATCH:
        fill(alpha, t, rng.gen, out, np.empty((2, n)))
    else:
        streams = rng.split(-(-n // _DRAW_BATCH))
        workers = min(len(streams), _usable_cores())
        scratch = np.empty((workers, 2 * _DRAW_BATCH))

        def run(k):
            for i in range(k, len(streams), workers):
                rows = out[i * _DRAW_BATCH:(i + 1) * _DRAW_BATCH]
                m = rows.shape[0]
                fill(alpha, t, streams[i].gen, rows, scratch[k, :2 * m].reshape(2, m))

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(workers)))
    if size is not None:
        return out
    return float(out[0]) if dim == 1 else out[0]


def sample_stable(spec: ProcessSpec, rng: RngStream, size=None):
    """Symmetric alpha-stable draw(s) in R^dim with characteristic function exp(-|xi|^alpha).

    For dim = 1, Chambers-Mallows-Stuck from a uniform angle and an
    exponential clock (`_stable_into` with G = 1), every sine and cosine
    taken from SIMD tan through sin 2x = 1/cosh(log tan x); alpha = 2 reduces
    to sqrt(2) times a standard normal, alpha = 1 to tan(U).  For dim > 1,
    rotation-invariant draws `_rows_into` with G = 1: sqrt(2A) N(0, I), A a
    one-sided (alpha/2)-stable draw, and sqrt(2) N(0, I) at alpha = 2.

    Up to 2^18 draws come from rng.gen alone.  More are drawn in batches of
    2^18 from split substreams, on every usable core (`_stable_draws`): their
    bits depend on the seed and the batch plan, not on the number of cores.

    Returns shape () or (size,) for dim = 1, and (dim,) or (size, dim) else.
    """
    return _stable_draws(spec.alpha, None, spec.dim, rng, size)


def _log_positive_stable_into(beta: float, gen: np.random.Generator, out: np.ndarray,
                              u: np.ndarray, w: np.ndarray) -> None:
    """Write log S into out, S one-sided stable with Laplace transform exp(-lambda^beta).

    Kanter's representation S = (A(theta)/W)^((1-beta)/beta), theta = pi r, with
    A(theta) = sin(beta theta)^(beta/(1-beta)) sin((1-beta) theta) / sin(theta)^(1/(1-beta)),
    in log space: as beta -> 1 the powers 1/(1-beta) underflow separately
    although the draw itself stays near 1.  The three sines come from
    `_neg_log_sin2`, sin(theta) as sin(pi min(r, 1 - r)).  The generator is
    called for the uniform r, then the exponential W; u and w are scratch.
    """
    c = (1.0 - beta) / beta
    gen.random(out=u)
    gen.standard_exponential(out=w)
    np.log(w, out=out)
    out *= -c
    np.maximum(u, _R_FLOOR, out=u)
    np.multiply(u, 0.5 * beta * np.pi, out=w)
    _neg_log_sin2(w)
    out -= w
    np.multiply(u, 0.5 * (1.0 - beta) * np.pi, out=w)
    _neg_log_sin2(w)
    w *= c
    out -= w
    np.subtract(1.0, u, out=w)
    np.minimum(u, w, out=u)
    u *= 0.5 * np.pi
    _neg_log_sin2(u)
    u *= 1.0 / beta
    out += u


def sample_gamma(t: float, rng: RngStream, size=None):
    """Gamma(shape t, rate 1) draw(s), valid for every finite t > 0.

    The draws are correctly rounded floats, so at small t a share of them is
    exactly 0.0: the draws below 2^-1075, of mass about
    (2^-1075)^t / Gamma(1 + t), 5.5% at t = 1/256.  A caller that needs
    log G draws it in log space with `_log_gamma_into`, as the samplers do.
    """
    positive_time(t)
    out = rng.gen.gamma(shape=t, scale=1.0, size=_draw_count(size))
    return out if size is not None else float(out[0])


def sample_increment(spec: ProcessSpec, t: float, rng: RngStream, size=None):
    """Increment draw(s) with characteristic function (1 + |xi|^alpha)^(-t).

    Gamma-subordinated stable: G ~ Gamma(t, 1), X = G^(1/alpha) Z with Z
    symmetric alpha-stable.  log G is drawn directly (`_log_gamma_into`: the
    GS rejection of Ahrens & Dieter 1974 in log space for t < 1, numpy's
    gamma for t >= 1).  For dim = 1, Z is Chambers-Mallows-Stuck and the draw
    is formed in log space (`_cms_into`): sin(alpha U) times one exp of
    log G / alpha plus the logs of cos(U), cos((1 - alpha) U) and the
    exponential W, every sine and cosine from SIMD tan through
    sin 2x = 1/cosh(log tan x), written into preallocated buffers; alpha in
    {1, 2} keep the closed forms G tan(U) and sqrt(2G) N.  For dim > 1,
    `_rows_into`: Z = sqrt(2A) N(0, I) with A a one-sided (alpha/2)-stable
    draw for alpha < 2, and directly X = sqrt(2G) N(0, I) for alpha = 2.

    Up to 2^18 draws come from rng.gen alone, as one batch.  More are drawn
    in batches of 2^18 rows, batch i from child i of rng.split, on every
    usable core (`_stable_draws`): their bits depend on the seed and the
    batch plan, not on the number of cores.

    Returns shape () or (size,) for dim = 1, and (dim,) or (size, dim) else.
    """
    positive_time(t)
    return _stable_draws(spec.alpha, t, spec.dim, rng, size)
