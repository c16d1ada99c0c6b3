"""Transition density of the subordinated process: Fourier inversion and Monte Carlo.

Inversion applies only when the characteristic function (1+r^alpha)^(-t) is
integrable, i.e. alpha*t > d; the integrand then decays like r^(-alpha t),
barely integrable near the threshold.  The radial integrals are computed with
oscillation-resolving panel quadrature up to a cutoff R plus a two-term
integration-by-parts correction of the oscillatory tail, with R sized so the
neglected remainder stays below 1e-10.  At x = 0 the integral is a Beta
function: p_t(0) = omega_{d-1} (2 pi)^(-d) B(d/alpha, t - d/alpha) / alpha.

Monte Carlo estimation via exact subordinated increments works for every
t > 0, which is precisely the regime where inversion is unavailable for
small t; goodness of fit there is judged on CDFs (Kolmogorov-Smirnov), not
on pointwise kernel estimates.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma, j0 as _j0

from .errors import ConfigError, InversionNotIntegrableError, UnsupportedDimensionError
from .process_core import ProcessSpec, inversion_integrable
from .stable_kernel import RngStream, _panel_nodes, sample_increment

_TAIL_EPS = 1e-10
# float64 entries of density_mc's working block: 16 MB
_KDE_BLOCK = 2 ** 21


def _density_at_zero(spec: ProcessSpec, t: float) -> float:
    a, d = spec.alpha, spec.dim
    omega = 2.0 * np.pi ** (d / 2.0) / _gamma(d / 2.0)
    beta = _gamma(d / a) * _gamma(t - d / a) / _gamma(t)
    return omega * beta / (a * (2.0 * np.pi) ** d)


def _panel_edges(x: float, R: float) -> np.ndarray:
    """Union of oscillation-resolving and envelope-resolving panel edges on [0, R]."""
    parts = [np.geomspace(1e-8, min(2.0, R), 40)]
    if R > 2.0:
        parts.append(np.geomspace(2.0, R, max(2, int(25 * np.log10(R / 2.0)) + 2)))
    if x > 0:
        n_osc = int(x * R / (np.pi / 2.0)) + 1
        if n_osc > 300_000:
            raise ValueError("oscillation count too large; x out of supported range")
        parts.append(np.linspace(0.0, R, n_osc + 1))
    edges = np.unique(np.concatenate(parts))
    if edges[-1] < R:
        edges = np.append(edges, R)
    return edges


def density_inversion(spec: ProcessSpec, t: float, x) -> float:
    """p_t(x) by radial Fourier inversion of (1 + r^alpha)^(-t); needs t > d/alpha."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if spec.dim > 3:
        raise UnsupportedDimensionError(
            f"inversion supports dim in {{1, 2, 3}}, got {spec.dim}")
    if not inversion_integrable(spec, t):
        raise InversionNotIntegrableError(
            f"(1+r^alpha)^(-t) is not integrable for t={t} <= d/alpha="
            f"{spec.dim / spec.alpha:.6g}; use density_mc, which covers all t > 0")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.size != spec.dim:
        raise ValueError(f"x must have {spec.dim} coordinates, got {xv.size}")
    r = float(np.linalg.norm(xv))
    a, d, at = spec.alpha, spec.dim, spec.alpha * t

    if r == 0.0:
        return _density_at_zero(spec, t)

    def f(rho):
        return np.exp(-t * np.log1p(rho ** a))

    def f_prime(rho):
        return -a * t * rho ** (a - 1.0) * np.exp(-(t + 1.0) * np.log1p(rho ** a))

    if d == 1:
        # tail remainder ~ alpha t R^(-alpha t - 1) / (pi x^2)
        R = max(40.0, (at / (np.pi * _TAIL_EPS * r * r)) ** (1.0 / (at + 1.0)))
        rho, w = _panel_nodes(_panel_edges(r, R))
        head = float(np.cos(r * rho) @ (f(rho) * w))
        tail = -np.sin(r * R) * f(R) / r - np.cos(r * R) * f_prime(R) / r ** 2
        return (head + tail) / np.pi
    if d == 3:
        # g = rho f(rho); remainder ~ (alpha t - 1) R^(-alpha t) / (2 pi^2 x^3)
        R = max(40.0, ((at - 1.0) / (2.0 * np.pi ** 2 * _TAIL_EPS * r ** 3)) ** (1.0 / at))
        rho, w = _panel_nodes(_panel_edges(r, R))
        head = float(np.sin(r * rho) @ (rho * f(rho) * w))
        g_r = R * f(R)
        g_prime = f(R) + R * f_prime(R)
        tail = np.cos(r * R) * g_r / r - np.sin(r * R) * g_prime / r ** 2
        return (head + tail) / (2.0 * np.pi ** 2 * r)
    # d == 2: Bessel kernel; tail via the leading J0 asymptote
    amp = np.sqrt(2.0 / (np.pi * r))
    R = max(40.0, ((at - 0.5) * amp / (2.0 * np.pi * _TAIL_EPS * r * r)) ** (1.0 / (at - 0.5)),
            (amp / (16.0 * np.pi * _TAIL_EPS * r * (at + 0.5))) ** (1.0 / (at + 0.5)))
    rho, w = _panel_nodes(_panel_edges(r, R))
    head = float(_j0(r * rho) @ (rho * f(rho) * w))
    g_r = amp * R ** 0.5 * f(R)
    g_prime = amp * (0.5 * R ** -0.5 * f(R) + R ** 0.5 * f_prime(R))
    phase = r * R - np.pi / 4.0
    tail = -np.sin(phase) * g_r / r - np.cos(phase) * g_prime / r ** 2
    return (head + tail) / (2.0 * np.pi)


def cdf_numeric(spec: ProcessSpec, t: float, x: float) -> float:
    """CDF of the one-dimensional time-t marginal, from the inversion integral.

    Integrating the inversion formula in x and swapping integrals gives
    F(x) = 1/2 + (1/pi) int_0^inf sin(x r) (1+r^alpha)^(-t) / r dr, the same
    object as the running integral of density_inversion but one quadrature
    instead of nested ones.  Requires inversion integrability.
    """
    if spec.dim != 1:
        raise UnsupportedDimensionError("cdf_numeric is one-dimensional")
    if not inversion_integrable(spec, t):
        raise InversionNotIntegrableError(
            f"cdf_numeric needs t > d/alpha = {spec.dim / spec.alpha:.6g}, got t={t}")
    x = float(x)
    if x == 0.0:
        return 0.5
    r = abs(x)
    a, at = spec.alpha, spec.alpha * t

    def f(rho):
        return np.exp(-t * np.log1p(rho ** a))

    # h = f/rho; remainder ~ (alpha t + 1) R^(-alpha t - 2) / (pi x^2)
    R = max(40.0, ((at + 1.0) / (np.pi * _TAIL_EPS * r * r)) ** (1.0 / (at + 2.0)),
            (1.0 / (np.pi * _TAIL_EPS * at * r)) ** (1.0 / at) / 4.0)
    rho, w = _panel_nodes(_panel_edges(r, R))
    head = float(np.sin(r * rho) @ (f(rho) / rho * w))
    h_r = f(R) / R
    h_prime = (-a * t * R ** (a - 1.0) / (1.0 + R ** a) - 1.0 / R) * h_r
    tail = np.cos(r * R) * h_r / r - np.sin(r * R) * h_prime / r ** 2
    half = (head + tail) / np.pi
    return 0.5 + half if x > 0 else 0.5 - half


def inversion_table(spec: ProcessSpec, t: float, x_grid) -> "DensityTable":
    """Tabulate density_inversion on a grid (d = 1: radii are the |x| values)."""
    x_grid = np.asarray(x_grid, dtype=float)
    if spec.dim == 1:
        pts = x_grid[:, None]
    else:
        pts = np.atleast_2d(x_grid)
    vals = np.array([density_inversion(spec, t, p) for p in pts])
    vals = np.where((vals < 0) & (vals > -1e-8), 0.0, vals)
    return DensityTable(spec=spec, t=t, method="Inversion", x_grid=x_grid, values=vals)


def density_mc(spec: ProcessSpec, t: float, x_grid, n_samples: int,
               rng: RngStream) -> "DensityTable":
    """Gaussian-kernel density estimate from exact increments; valid for all t > 0.

    Bandwidth 1.06 sigma n^(-1/5) with the interquartile-range scale
    sigma = IQR / 1.349 (moment-based scales diverge for alpha < 2),
    clipped to [1e-3, 1].  The kernel sums run through one reusable block of
    about 2^21 floats, whatever the grid and sample sizes.
    """
    if t <= 0:
        raise ConfigError(f"t must be positive, got {t}")
    if n_samples < 1000:
        raise ConfigError(f"n_samples must be >= 1000, got {n_samples}")
    x_grid = np.asarray(x_grid, dtype=float)
    samples = np.asarray(sample_increment(spec, t, rng, size=n_samples))
    if spec.dim == 1:
        q75, q25 = np.percentile(samples, [75.0, 25.0])
        pts = x_grid[:, None]
        smp = samples[:, None]
    else:
        radial = np.linalg.norm(samples, axis=1)
        q75, q25 = np.percentile(radial, [75.0, 25.0])
        pts = np.atleast_2d(x_grid)
        smp = samples
    sigma = (q75 - q25) / 1.349
    bw = float(np.clip(1.06 * sigma * n_samples ** (-0.2), 1e-3, 1.0))
    norm = (2.0 * np.pi) ** (-spec.dim / 2.0) * bw ** (-spec.dim)
    values = np.empty(len(pts))
    # one reusable block: squared distances of `rows` grid points, and for
    # d > 1 a second part that holds one coordinate's squares at a time
    parts = 1 if spec.dim == 1 else 2
    rows = max(1, min(len(pts), _KDE_BLOCK // (parts * n_samples)))
    block = np.empty((parts, rows, n_samples))
    d2_all, sq_all = block[0], block[-1]
    for i0 in range(0, len(pts), rows):
        p = pts[i0:i0 + rows]
        d2 = d2_all[:len(p)]
        sq = sq_all[:len(p)]
        for k in range(spec.dim):
            out = d2 if k == 0 else sq
            np.subtract(p[:, k, None], smp[None, :, k], out=out)
            np.square(out, out=out)
            if k:
                d2 += sq
        d2 *= -0.5
        d2 /= bw ** 2
        np.exp(d2, out=d2)
        values[i0:i0 + rows] = norm * d2.mean(axis=1)
    return DensityTable(spec=spec, t=t, method="MonteCarlo", x_grid=x_grid,
                        values=values, n_samples=n_samples, bandwidth=bw,
                        seed=rng.seed)


@dataclass
class DensityTable:
    """Density values on a grid, from inversion or Monte Carlo."""

    spec: ProcessSpec
    t: float
    method: str
    x_grid: np.ndarray
    values: np.ndarray
    n_samples: int | None = None
    bandwidth: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.method not in ("Inversion", "MonteCarlo"):
            raise ValueError(f"method must be Inversion or MonteCarlo, got {self.method!r}")
        if self.method == "Inversion" and not inversion_integrable(self.spec, self.t):
            raise InversionNotIntegrableError(
                "inversion tables require t > dim/alpha")
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")
        if self.spec.dim == 1 and self.x_grid.ndim == 1 and self.x_grid.size > 1:
            if np.any(np.diff(self.x_grid) <= 0):
                raise ValueError("x_grid must be strictly increasing for d = 1")
            # lower Riemann sum: never above the mass of a density that is
            # nonincreasing in |x|, where the trapezoid overshoots at a cusp
            mass = float(np.minimum(self.values[:-1], self.values[1:]) @ np.diff(self.x_grid))
            if mass > 1.0 + 1e-3:
                raise ValueError(f"tabulated mass {mass} exceeds 1 + 1e-3")

    def header(self) -> dict:
        return {
            "alpha": self.spec.alpha,
            "dim": self.spec.dim,
            "t": self.t,
            "method": self.method,
            "n_samples": self.n_samples,
            "bandwidth": self.bandwidth,
            "seed": self.seed,
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.spec.dim == 1:
                writer.writerow(["x", "p"])
                for x, p in zip(self.x_grid, self.values):
                    writer.writerow([repr(float(x)), repr(float(p))])
            else:
                writer.writerow([f"x{i}" for i in range(self.spec.dim)] + ["p"])
                for pt, p in zip(np.atleast_2d(self.x_grid), self.values):
                    writer.writerow([repr(float(c)) for c in pt] + [repr(float(p))])

    def header_json(self, path=None) -> str:
        text = json.dumps(self.header(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


@dataclass
class EmpiricalCdf:
    """Sorted sample values with step-function evaluation."""

    values: np.ndarray
    count: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.count != self.values.size or self.count < 1:
            raise ValueError("count must equal the number of samples (>= 1)")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be sorted ascending")

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalCdf":
        v = np.sort(np.asarray(samples, dtype=float))
        return cls(values=v, count=v.size)

    def evaluate(self, x):
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.count

    def ks_distance(self, cdf) -> float:
        """Kolmogorov-Smirnov distance against a callable reference CDF."""
        f = np.asarray(cdf(self.values), dtype=float)
        i = np.arange(1, self.count + 1)
        return float(max(np.max(i / self.count - f), np.max(f - (i - 1) / self.count)))
