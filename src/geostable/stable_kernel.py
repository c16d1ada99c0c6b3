"""Symmetric alpha-stable kernels and subordinated increment sampling.

Normalization used throughout: the time-one kernel q_1 has characteristic
function exp(-|xi|^alpha), so q_s(x) = s^(-d/alpha) q_1(s^(-1/alpha) x).
With alpha = 2 this makes q_s a centered Gaussian of variance 2s per
coordinate; with alpha = 1 it is the Cauchy (Poisson) kernel.

Radial evaluation strategy:
  * alpha in {1, 2}: closed forms.
  * otherwise a cached radial profile per (alpha, dim): a head route up to a
    switch radius, a spline through its values, and the power-tail series

        q_1(u) = pi^(-d/2) sum_{k>=1} (-1)^(k+1) k a 2^(k a - 1)
                 Gamma((d + k a)/2) / (k! Gamma(1 - k a/2)) u^(-d - k a)

    beyond it.  The head for alpha < 1 is the sub-Gaussian mixture
    Z = sqrt(2S) N(0, I), with the density of the positive (alpha/2)-stable S
    from Kanter's non-oscillatory integral: no Bessel function, no cutoff,
    one formula for d = 1, 2, 3.  The head for 1 < alpha < 2 is
    oscillation-resolved panel quadrature of the Fourier / Hankel inversion
    integral.  The switch radius is validated against the head at build
    time, and a profile whose series matches at no candidate is refused, so
    the profile is self-checking.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma as _gamma, j0 as _j0, lambertw as _lambertw, rgamma as _rgamma

from .errors import ConfigError, ConsistencyError, UnsupportedDimensionError
from .process_core import ProcessSpec, point_radii

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)

# exp(-R^alpha) < 1e-19 truncation of the inversion integral
_LOG_CUTOFF = 45.0
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


def _fourier_head(alpha, dim, u):
    """Radial inversion integral evaluated at radii u (vectorized).

    d=1 cosine kernel, d=2 Bessel J0, d=3 sine kernel; panel width tracks the
    fastest oscillation present, geometric refinement near rho=0 resolves the
    envelope kink of exp(-rho^alpha) for alpha < 1.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    R = _LOG_CUTOFF ** (1.0 / alpha)
    osc = np.pi / (2.0 * max(u.max(), 1.0))
    n_osc = int(np.ceil(R / osc))
    edges = np.unique(np.concatenate([
        np.geomspace(1e-9, 1.0, 50),
        np.linspace(0.0, R, n_osc + 1),
    ]))
    if edges[-1] < R:
        edges = np.append(edges, R)
    rho, w = _panel_nodes(edges)
    env = np.exp(-rho ** alpha) * w
    out = np.empty_like(u)
    for i0 in range(0, len(u), 64):
        uu = u[i0:i0 + 64][:, None]
        if dim == 1:
            out[i0:i0 + 64] = (np.cos(uu * rho[None, :]) @ env) / np.pi
        elif dim == 2:
            out[i0:i0 + 64] = ((_j0(uu * rho[None, :]) * rho[None, :]) @ env) / (2.0 * np.pi)
        elif dim == 3:
            ur = uu.ravel()
            u1 = np.where(ur == 0.0, 1.0, ur)
            val = ((np.sin(uu * rho[None, :]) * rho[None, :]) @ env) / (2.0 * np.pi ** 2 * u1)
            out[i0:i0 + 64] = np.where(ur == 0.0, q1_at_zero(alpha, dim), val)
        else:
            raise UnsupportedDimensionError(f"radial inversion supports dim 1..3, got {dim}")
    return out


def _kanter_log_a(beta, u):
    """log A(pi - u) for Kanter's function, the one `_sample_positive_stable` draws with:

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
        return np.exp(-np.square(r)[:, None] * quarter_ey[None, :]) @ weights

    return head


def tail_coefficients(alpha: float, dim: int, kmax: int = 60) -> np.ndarray:
    """Coefficients c_k of the power-tail series q_1(u) = sum c_k u^(-d-k*alpha).

    Entries with k*alpha/2 a positive integer vanish identically (reciprocal
    gamma zeros); alpha = 2 has no power tail at all.
    """
    k = np.arange(1, kmax + 1, dtype=float)
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


def _series_block(alpha, dim, u, c_nz, k_nz, env_cols):
    with np.errstate(under="ignore"):
        terms = c_nz[None, :] * u[:, None] ** (-dim - k_nz[None, :] * alpha)
    if terms.shape[1] == 1:
        vals = terms[:, 0]
        errs = np.full(u.shape, 1e-16)
        return vals, errs
    # a dip neither ends the sum nor sets its error
    env = np.abs(terms)[:, env_cols]
    growing = env[:, 1:] > env[:, :-1]
    any_growth = growing.any(axis=1)
    cut = np.where(any_growth, np.argmax(growing, axis=1), env.shape[1] - 1)
    rows = np.arange(u.size)
    vals = np.cumsum(terms, axis=1)[rows, cut]
    errs = np.where(vals != 0.0, env[rows, cut] / np.abs(vals), np.inf)
    return vals, errs


def _series_batch(alpha, dim, u, coeffs):
    """Tail series at radii u (1-d array) with per-point safe truncation.

    Zero coefficients are skipped; each point sums its terms up to the first
    growth of the magnitude envelope (asymptotic breakdown; see
    _envelope_columns for coefficients that nearly vanish).  Far radii keep only
    the terms that can still matter at 1e-16 relative, so bulk evaluation
    over many decades stays cheap.  Returns (values, relerrs) with
    relerr = |last kept regular term| / |sum|.
    """
    u = np.asarray(u, dtype=float)
    nz = np.flatnonzero(coeffs)
    if nz.size == 0:
        return np.zeros_like(u), np.full_like(u, np.inf)
    c_nz = coeffs[nz]
    k_nz = (nz + 1).astype(float)
    env_cols = _envelope_columns(c_nz, k_nz)
    log_ratio = np.log(np.abs(c_nz)) - np.log(np.abs(c_nz[0]))
    vals = np.empty(u.shape)
    errs = np.empty(u.shape)
    order = np.argsort(u)
    edges = [0]
    sorted_u = u[order]
    while edges[-1] < u.size:
        lo = sorted_u[edges[-1]]
        edges.append(int(np.searchsorted(sorted_u, 10.0 * lo, side="right")))
    for lo_i, hi_i in zip(edges[:-1], edges[1:]):
        idx = order[lo_i:hi_i]
        u_min = sorted_u[lo_i]
        keep = log_ratio - (k_nz - k_nz[0]) * alpha * np.log(u_min) > -37.0
        m = max(int(np.max(np.flatnonzero(keep))) + 1, 1) if keep.any() else 1
        vals[idx], errs[idx] = _series_block(alpha, dim, u[idx], c_nz[:m], k_nz[:m], env_cols[:m])
    return vals, errs


_SWITCH_CANDIDATES = (6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 26.0, 34.0, 44.0)


class StableRadialProfile:
    """Radial density q_1(|x|) for one (alpha, dim), cheap to evaluate in bulk.

    Attributes
    ----------
    tail_start : radius beyond which the power series represents q_1
                 (for alpha = 2, the radius beyond which q_1 underflows).
    coeffs     : power-tail coefficients (all zero for alpha = 2).
    tail_relerr: validated relative accuracy of the series at tail_start.
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
        if alpha == 2.0:
            # Gaussian: no power tail; exp(-u^2/4) underflows past u ~ 53
            self.tail_start = 53.0
            self.tail_relerr = 0.0
            self._spline_lin = None
            self._spline_log = None
            return
        # spline seam between the linear core and the log-log flank, and the flank's knots
        self._seam, n_log = 2.0, 160
        if alpha == 1.0:
            head = self._closed_form
        elif alpha < 1.0:
            head = _mixture_head(alpha, dim)
            # q_1 falls off from q_1(0) like 1 - (u/sigma)^2 with
            # sigma^-2 = Gamma((d+2)/alpha) / (2 d Gamma(d/alpha)), a core as
            # narrow as 5e-4 at alpha = 0.3: the linear knots sit inside it
            self._seam = 0.5 * math.sqrt(2.0 * dim * _gamma(dim / alpha) / _gamma((dim + 2) / alpha))
            n_log = 320
        else:
            head = functools.partial(_fourier_head, alpha, dim)
        self.tail_start, self.tail_relerr = self._pick_switch(head)
        if alpha == 1.0:
            self._spline_lin = None
            self._spline_log = None
            return
        ua = np.linspace(0.0, self._seam, 161)
        ub = np.geomspace(self._seam, self.tail_start, n_log)
        # q_1 is even and positive: clamp derivative at 0, log-log in the tail region
        self._spline_lin = CubicSpline(ua, head(ua), bc_type=((1, 0.0), "not-a-knot"))
        self._spline_log = CubicSpline(np.log(ub), np.log(head(ub)))

    def _closed_form(self, u):
        if self.alpha == 2.0:
            return (4.0 * np.pi) ** (-self.dim / 2.0) * np.exp(-u ** 2 / 4.0)
        if self.alpha == 1.0:
            d = self.dim
            return _gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0) / (1.0 + u ** 2) ** ((d + 1) / 2.0)
        return None

    def _pick_switch(self, head):
        """Smallest switch radius at which the series matches the independent head.

        Raises ConsistencyError when no candidate validates to 3e-9.
        """
        best = np.inf
        for u_sw in _SWITCH_CANDIDATES:
            probes = np.array([u_sw, 1.3 * u_sw])
            sv, serr = _series_batch(self.alpha, self.dim, probes, self.coeffs)
            rel = float(max(np.max(np.abs(sv / head(probes) - 1.0)), np.max(serr)))
            if rel < 3e-9:
                return u_sw, rel
            best = min(best, rel)
        raise ConsistencyError(
            f"power-tail series of q_1 (alpha {self.alpha}, dim {self.dim}) matches its head "
            f"to {best:.1e} at best over switch radii {_SWITCH_CANDIDATES}, not 3e-9")

    def density(self, u):
        """q_1 at radii u (scalar or array); exact closed form when available."""
        scalar = np.isscalar(u)
        u = np.abs(np.atleast_1d(np.asarray(u, dtype=float)))
        closed = self._closed_form(u)
        if closed is not None:
            return float(closed[0]) if scalar else closed
        out = np.empty_like(u)
        m_lin = u <= self._seam
        m_log = (u > self._seam) & (u < self.tail_start)
        m_ser = u >= self.tail_start
        if m_lin.any():
            out[m_lin] = self._spline_lin(u[m_lin])
        if m_log.any():
            out[m_log] = np.exp(self._spline_log(np.log(u[m_log])))
        if m_ser.any():
            out[m_ser] = _series_batch(self.alpha, self.dim, u[m_ser], self.coeffs)[0]
        return float(out[0]) if scalar else out


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
    r, point = point_radii(spec, x)
    q = stable_density_radial(spec, s, r)
    return float(q[0]) if point else q


def stable_density_radial(spec: ProcessSpec, s: float, r):
    """Radial variant of stable_density, vectorized over radii r >= 0."""
    if not s > 0:
        raise ConfigError(f"s must be positive, got {s}")
    prof = radial_profile(spec.alpha, spec.dim)
    scale = s ** (-1.0 / spec.alpha)
    scalar = np.isscalar(r)
    vals = s ** (-spec.dim / spec.alpha) * prof.density(scale * np.abs(np.atleast_1d(r)))
    return float(vals[0]) if scalar else vals


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


def _maybe_item(arr, size):
    return float(arr[0]) if size is None else arr


def _stable_into(alpha: float, t, gen: np.random.Generator, out: np.ndarray,
                 u: np.ndarray, w: np.ndarray) -> None:
    """Write G^(1/alpha) Z into out: one d = 1 draw per entry, no allocation.

    G ~ Gamma(t, 1), or G = 1 when t is None, and Z is symmetric alpha-stable
    with characteristic function exp(-|xi|^alpha) by Chambers, Mallows & Stuck
    (1976) from a uniform angle u on (-pi/2, pi/2) and an exponential W:

        G^(1/a) Z = sin(a u) exp(log G / a - log cos(u) / a
                                 + ((1 - a)/a) (log cos((1 - a) u) - log W)),

    one exp of a sum of logs, so no power over- or underflows on its own.
    alpha = 2 is sqrt(2 G) N and alpha = 1 is G tan(u).  The generator is
    called for gamma, then uniform (normal at alpha = 2), then exponential.
    u and w are scratch buffers of out's shape.
    """
    a = alpha
    if t is None:
        out.fill(1.0)
    else:
        gen.standard_gamma(t, out=out)
    if a == 2.0:
        gen.standard_normal(out=u)
        u *= math.sqrt(2.0)
        np.sqrt(out, out=out)
        out *= u
        return
    gen.random(out=u)
    u -= 0.5
    u *= np.pi
    if a == 1.0:
        np.tan(u, out=u)
        out *= u
        return
    c = (1.0 - a) / a
    with np.errstate(divide="ignore"):  # G underflows to 0 at small t: a 0 draw
        np.log(out, out=out)
    out /= a
    np.multiply(u, 1.0 - a, out=w)
    np.cos(w, out=w)
    np.log(w, out=w)
    w *= c
    out += w
    np.cos(u, out=w)
    np.log(w, out=w)
    w /= a
    out -= w
    u *= a
    np.sin(u, out=u)
    gen.standard_exponential(out=w)
    np.log(w, out=w)
    w *= c
    out -= w
    np.exp(out, out=out)
    out *= u


def _stable_draws(alpha, t, rng, size):
    n = 1 if size is None else int(size)
    out = np.empty(n)
    _stable_into(alpha, t, rng.gen, out, np.empty(n), np.empty(n))
    return _maybe_item(out, size)


def sample_stable(spec: ProcessSpec, rng: RngStream, size=None):
    """Scalar symmetric alpha-stable draw(s) with char. function exp(-|xi|^alpha).

    Chambers-Mallows-Stuck from a uniform angle and an exponential clock
    (`_stable_into` with G = 1); alpha = 2 reduces to sqrt(2) times a standard
    normal, alpha = 1 to tan(U).
    """
    return _stable_draws(spec.alpha, None, rng, size)


def _sample_positive_stable(beta: float, rng: RngStream, n: int) -> np.ndarray:
    """One-sided stable draw(s), Laplace transform exp(-lambda^beta), 0 < beta < 1.

    Kanter's representation (A(theta)/W)^((1-beta)/beta) with
    A(theta) = sin(beta theta)^(beta/(1-beta)) sin((1-beta) theta) / sin(theta)^(1/(1-beta)),
    evaluated in log space: as beta -> 1 the powers 1/(1-beta) underflow
    separately although the draw itself stays near 1.
    """
    g = rng.gen
    th = np.pi * g.random(n)
    w = g.standard_exponential(n)
    return np.exp(np.log(np.sin(beta * th))
                  + (1.0 - beta) / beta * (np.log(np.sin((1.0 - beta) * th)) - np.log(w))
                  - np.log(np.sin(th)) / beta)


def sample_gamma(t: float, rng: RngStream, size=None):
    """Gamma(shape t, rate 1) draw(s), valid for every t > 0."""
    if not t > 0:
        raise ConfigError(f"t must be positive, got {t}")
    n = 1 if size is None else int(size)
    out = rng.gen.gamma(shape=t, scale=1.0, size=n)
    return _maybe_item(out, size)


def sample_increment(spec: ProcessSpec, t: float, rng: RngStream, size=None):
    """Increment draw(s) with characteristic function (1 + |xi|^alpha)^(-t).

    Gamma-subordinated stable: G ~ Gamma(t, 1), X = G^(1/alpha) Z with Z
    symmetric alpha-stable.  For dim = 1, Z is Chambers-Mallows-Stuck and the
    draw is formed in log space (`_stable_into`): sin(alpha u) times one exp
    of log G / alpha plus the logs of cos(u), cos((1 - alpha) u) and the
    exponential W, written into preallocated buffers; alpha in {1, 2} keep
    the closed forms G tan(u) and sqrt(2G) N.  For dim > 1 and alpha < 2,
    Z = sqrt(2A) N(0, I) with A a one-sided (alpha/2)-stable draw; for
    alpha = 2 directly X = sqrt(2G) N(0, I).

    Returns shape () or (size,) for dim = 1, and (dim,) or (size, dim) else.
    """
    if not t > 0:
        raise ConfigError(f"t must be positive, got {t}")
    if spec.dim == 1:
        return _stable_draws(spec.alpha, t, rng, size)
    n = 1 if size is None else int(size)
    a = spec.alpha
    g = rng.gen
    gam = g.gamma(shape=t, scale=1.0, size=n)
    if a == 2.0:
        out = np.sqrt(2.0 * gam)[:, None] * g.standard_normal((n, spec.dim))
    else:
        sub = _sample_positive_stable(a / 2.0, rng, n)
        out = (gam ** (1.0 / a) * np.sqrt(2.0 * sub))[:, None] * g.standard_normal((n, spec.dim))
    return out[0] if size is None else out
