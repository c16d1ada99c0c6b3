"""Symmetric alpha-stable kernels and subordinated increment sampling.

Normalization used throughout: the time-one kernel q_1 has characteristic
function exp(-|xi|^alpha), so q_s(x) = s^(-d/alpha) q_1(s^(-1/alpha) x).
With alpha = 2 this makes q_s a centered Gaussian of variance 2s per
coordinate; with alpha = 1 it is the Cauchy (Poisson) kernel.

Radial evaluation strategy:
  * alpha in {1, 2}: closed forms.
  * otherwise a cached radial profile per (alpha, dim): oscillation-resolved
    panel quadrature of the Fourier / Hankel inversion integral up to a
    switch radius, a spline through those values, and the power-tail series

        q_1(u) = pi^(-d/2) sum_{k>=1} (-1)^(k+1) k a 2^(k a - 1)
                 Gamma((d + k a)/2) / (k! Gamma(1 - k a/2)) u^(-d - k a)

    beyond it.  The switch radius is validated against the quadrature at
    build time, so the profile is self-checking.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma as _gamma, j0 as _j0, rgamma as _rgamma

from .errors import UnsupportedDimensionError
from .process_core import ProcessSpec

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)

# exp(-R^alpha) < 1e-19 truncation of the inversion integral
_LOG_CUTOFF = 45.0
# smallest alpha the numeric inversion supports (truncation radius 45^(1/alpha)
# and series cancellation both degrade rapidly below this)
MIN_NUMERIC_ALPHA = 0.3


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
        np.geomspace(min(1e-9, 1e-9 * R), min(1.0, R), 50),
        np.linspace(0.0, R, min(n_osc, 2_000_000) + 1),
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


def _series_block(alpha, dim, u, c_nz, k_nz):
    with np.errstate(under="ignore"):
        terms = c_nz[None, :] * u[:, None] ** (-dim - k_nz[None, :] * alpha)
    mag = np.abs(terms)
    if terms.shape[1] == 1:
        vals = terms[:, 0]
        errs = np.full(u.shape, 1e-16)
        return vals, errs
    growing = mag[:, 1:] > mag[:, :-1]
    any_growth = growing.any(axis=1)
    cut = np.where(any_growth, np.argmax(growing, axis=1), mag.shape[1] - 1)
    rows = np.arange(u.size)
    vals = np.cumsum(terms, axis=1)[rows, cut]
    errs = np.where(vals != 0.0, mag[rows, cut] / np.abs(vals), np.inf)
    return vals, errs


def _series_batch(alpha, dim, u, coeffs):
    """Tail series at radii u (1-d array) with per-point safe truncation.

    Zero coefficients are skipped; each point sums its terms up to the first
    growth in magnitude (asymptotic breakdown).  Far radii keep only the
    terms that can still matter at 1e-16 relative, so bulk evaluation over
    many decades stays cheap.  Returns (values, relerrs) with
    relerr = |last kept term| / |sum|.
    """
    u = np.asarray(u, dtype=float)
    nz = np.flatnonzero(coeffs)
    if nz.size == 0:
        return np.zeros_like(u), np.full_like(u, np.inf)
    c_nz = coeffs[nz]
    k_nz = (nz + 1).astype(float)
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
        vals[idx], errs[idx] = _series_block(alpha, dim, u[idx], c_nz[:m], k_nz[:m])
    return vals, errs


def _series_value(alpha, dim, u, coeffs):
    vals, errs = _series_batch(alpha, dim, np.atleast_1d(float(u)), coeffs)
    return float(vals[0]), float(errs[0])


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
            raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
        if alpha < MIN_NUMERIC_ALPHA and alpha not in (1.0, 2.0):
            raise ValueError(
                f"numeric radial inversion supports alpha >= {MIN_NUMERIC_ALPHA}, got {alpha}")
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
        self.tail_start, self.tail_relerr = self._pick_switch()
        if alpha == 1.0:
            self._spline_lin = None
            self._spline_log = None
            return
        ua = np.linspace(0.0, 2.0, 161)
        ub = np.geomspace(2.0, self.tail_start, 160)
        qa = _fourier_head(alpha, dim, ua)
        qb = _fourier_head(alpha, dim, ub)
        # q_1 is even and positive: clamp derivative at 0, log-log in the tail region
        self._spline_lin = CubicSpline(ua, qa, bc_type=((1, 0.0), "not-a-knot"))
        self._spline_log = CubicSpline(np.log(ub), np.log(qb))

    def _closed_form(self, u):
        if self.alpha == 2.0:
            return (4.0 * np.pi) ** (-self.dim / 2.0) * np.exp(-u ** 2 / 4.0)
        if self.alpha == 1.0:
            d = self.dim
            return _gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0) / (1.0 + u ** 2) ** ((d + 1) / 2.0)
        return None

    def _pick_switch(self):
        """Smallest switch radius at which the series matches an independent check."""
        best = (None, np.inf)
        for u_sw in _SWITCH_CANDIDATES:
            probes = np.array([u_sw, 1.3 * u_sw])
            if self.alpha in (1.0, 2.0):
                ref = self._closed_form(probes)
            else:
                ref = _fourier_head(self.alpha, self.dim, probes)
            rel = 0.0
            for p, rv in zip(probes, ref):
                sv, serr = _series_value(self.alpha, self.dim, p, self.coeffs)
                rel = max(rel, abs(sv / rv - 1.0), serr)
            if rel < best[1]:
                best = (u_sw, rel)
            if rel < 3e-9:
                return u_sw, rel
        return best

    def density(self, u):
        """q_1 at radii u (scalar or array); exact closed form when available."""
        scalar = np.isscalar(u)
        u = np.abs(np.atleast_1d(np.asarray(u, dtype=float)))
        closed = self._closed_form(u)
        if closed is not None:
            return float(closed[0]) if scalar else closed
        out = np.empty_like(u)
        m_lin = u <= 2.0
        m_log = (u > 2.0) & (u < self.tail_start)
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


def stable_density(spec: ProcessSpec, s: float, x) -> float:
    """q_s(x) = s^(-d/alpha) q_1(s^(-1/alpha) x) at a single point x.

    x may be a scalar (dim = 1) or a length-dim vector.  Density evaluation is
    limited to dim <= 3 (radial inversion kernels: cosine, J0, sine).
    """
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    if spec.dim > 3:
        raise UnsupportedDimensionError(
            f"density evaluation supports dim in {{1, 2, 3}}, got {spec.dim}")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.size != spec.dim:
        raise ValueError(f"x must have {spec.dim} coordinates, got {xv.size}")
    r = float(np.linalg.norm(xv))
    return stable_density_radial(spec, s, r)


def stable_density_radial(spec: ProcessSpec, s: float, r):
    """Radial variant of stable_density, vectorized over radii r >= 0."""
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
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


def sample_stable(spec: ProcessSpec, rng: RngStream, size=None):
    """Scalar symmetric alpha-stable draw(s) with char. function exp(-|xi|^alpha).

    Polar construction from a uniform angle and an exponential clock; alpha = 2
    reduces to sqrt(2) times a standard normal, alpha = 1 to tan(U).
    """
    n = 1 if size is None else int(size)
    a = spec.alpha
    g = rng.gen
    if a == 2.0:
        out = math.sqrt(2.0) * g.standard_normal(n)
    elif a == 1.0:
        out = np.tan(np.pi * (g.random(n) - 0.5))
    else:
        u = np.pi * (g.random(n) - 0.5)
        w = g.standard_exponential(n)
        out = (np.sin(a * u) / np.cos(u) ** (1.0 / a)
               * (np.cos((1.0 - a) * u) / w) ** ((1.0 - a) / a))
    return _maybe_item(out, size)


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
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    n = 1 if size is None else int(size)
    out = rng.gen.gamma(shape=t, scale=1.0, size=n)
    return _maybe_item(out, size)


def sample_increment(spec: ProcessSpec, t: float, rng: RngStream, size=None):
    """Increment draw(s) with characteristic function (1 + |xi|^alpha)^(-t).

    Gamma-subordinated stable: G ~ Gamma(t, 1), X = G^(1/alpha) Z with Z
    symmetric alpha-stable.  For dim > 1 and alpha < 2, Z = sqrt(2A) N(0, I)
    with A a one-sided (alpha/2)-stable draw; for alpha = 2 directly
    X = sqrt(2G) N(0, I).

    Returns shape () or (size,) for dim = 1, and (dim,) or (size, dim) else.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    n = 1 if size is None else int(size)
    a = spec.alpha
    g = rng.gen
    gam = g.gamma(shape=t, scale=1.0, size=n)
    if spec.dim == 1:
        z = np.asarray(sample_stable(spec, rng, size=n))
        out = gam ** (1.0 / a) * z
        return _maybe_item(out, size)
    if a == 2.0:
        out = np.sqrt(2.0 * gam)[:, None] * g.standard_normal((n, spec.dim))
    else:
        sub = _sample_positive_stable(a / 2.0, rng, n)
        out = (gam ** (1.0 / a) * np.sqrt(2.0 * sub))[:, None] * g.standard_normal((n, spec.dim))
    return out[0] if size is None else out
