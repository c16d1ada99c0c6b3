"""Transition density of the subordinated process: Fourier inversion and Monte Carlo.

Inversion needs an integrable characteristic function f(r) = (1+r^alpha)^(-t),
i.e. alpha*t > d; the CDF's sine integral of f(r)/r converges for all t > 0.
These radial integrals use Ooura & Mori's double-exponential rule for Fourier
integrals (J. Comput. Appl. Math. 38:353, 1991), with no cutoff and no tail
correction; for d = 2, J0(z) = (2/pi) int_0^(pi/2) cos(z cos theta) dtheta
turns the Hankel integral into cosine integrals.  At x = 0 it is a Beta function:
p_t(0) = omega_{d-1} (2 pi)^(-d) B(d/alpha, t - d/alpha) / alpha.

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
from scipy.special import gamma as _gamma

from .errors import ConfigError, InversionNotIntegrableError, UnsupportedDimensionError
from .process_core import ProcessSpec, inversion_integrable, point_radii
from .stable_kernel import RngStream, sample_increment

# steps of the Fourier rule (681 nodes on |tau| <= 4.25) and of the d = 2 tanh-sinh
# rule (321 nodes on |tau| <= 4); past those spans terms fall below 1e-18 of the sum
_DE_H, _TS_H = 1.0 / 80.0, 1.0 / 40.0
# (point, node) pairs per block of the Fourier rule: 2 MB
_PAIR_BLOCK = 2 ** 18
# float64 entries of density_mc's working block: 16 MB
_KDE_BLOCK = 2 ** 21


def _density_at_zero(spec: ProcessSpec, t: float) -> float:
    a, d = spec.alpha, spec.dim
    omega = 2.0 * np.pi ** (d / 2.0) / _gamma(d / 2.0)
    beta = _gamma(d / a) * _gamma(t - d / a) / _gamma(t)
    return omega * beta / (a * (2.0 * np.pi) ** d)


def _fourier_rule(kernel: str):
    """Nodes y_k, weights w_k: int_0^inf g(p) K(r p) dp ~ (pi/r) sum_k w_k g(y_k / r).

    K = sin or cos, y_k = M phi(tau_k), phi(tau) = tau / (1 - e^(-6 sinh tau)), M = pi/h,
    tau_k = k h, shifted by h/2 for cos so that M tau_k falls on its zeros.
    """
    k = np.arange(-round(4.25 / _DE_H), round(4.25 / _DE_H) + 1)
    tau = (k if kernel == "sin" else k - 0.5) * _DE_H
    s = 6.0 * np.sinh(tau)
    with np.errstate(invalid="ignore"):  # 0/0 at tau = 0, set to the limits below
        phi = tau / -np.expm1(-s)
        dphi = (1.0 - 6.0 * tau * np.cosh(tau) / np.expm1(s)) / -np.expm1(-s)
        shift = tau / np.expm1(s)  # phi - tau, without cancellation
    at_zero = tau == 0.0
    phi[at_zero], dphi[at_zero], shift[at_zero] = 1.0 / 6.0, 0.5, 1.0 / 6.0
    m = np.pi / _DE_H
    # K(M phi) = (-1)^k sin(M (phi - tau_k)) keeps full precision near the
    # zeros (tau > 0); for tau < 0, M phi is small and K is evaluated directly
    near_zeros = np.where(k % 2, -1.0, 1.0) * np.sin(m * shift)
    direct = np.sin(m * phi) if kernel == "sin" else np.cos(m * phi)
    return m * phi, dphi * np.where(tau < 0, direct, near_zeros)


def _arcsine_rule():
    """Tanh-sinh nodes u in (0, 1) and weights for int_0^1 c(u) (1-u^2)^(-1/2) du."""
    tau = np.arange(-round(4.0 / _TS_H), round(4.0 / _TS_H) + 1) * _TS_H
    v = np.pi * np.sinh(tau)
    u, one_minus_u = 1.0 / (1.0 + np.exp(-v)), 1.0 / (1.0 + np.exp(v))
    return u, _TS_H * np.pi * np.cosh(tau) * u * np.sqrt(one_minus_u / (1.0 + u))


def _char_integral(kernel: str, power: int, alpha: float, t: float, r: np.ndarray) -> np.ndarray:
    """int_0^inf p^power (1+p^alpha)^(-t) K(r p) dp at each r > 0 of a 1-d array.

    Blocks hold at most _PAIR_BLOCK (point, node) pairs, and each point is
    summed on its own row, so its value does not depend on the rest of the batch.
    """
    y, w = _fourier_rule(kernel)
    y_alpha, wy = y ** alpha, w * y ** power
    sums = np.empty(r.size)
    rows = max(1, _PAIR_BLOCK // y.size)
    for i0 in range(0, r.size, rows):
        z = np.log1p(np.multiply.outer(r[i0:i0 + rows] ** -alpha, y_alpha))
        z *= -t
        sums[i0:i0 + rows] = (np.exp(z, out=z) * wy).sum(axis=1)
    return np.pi * r ** (-1.0 - power) * sums


def density_inversion(spec: ProcessSpec, t: float, x):
    """p_t(x) by radial Fourier inversion of (1 + r^alpha)^(-t); needs t > d/alpha.

    One point gives a float, and a batch (see point_radii) an array whose
    values are bit-equal to their single-point values.
    """
    if spec.dim > 3:
        raise UnsupportedDimensionError(
            f"inversion supports dim in {{1, 2, 3}}, got {spec.dim}")
    if not inversion_integrable(spec, t):
        raise InversionNotIntegrableError(
            f"(1+r^alpha)^(-t) is not integrable for t={t} <= d/alpha="
            f"{spec.dim / spec.alpha:.6g}; use density_mc, which covers all t > 0")
    r, point = point_radii(spec, x)
    a, d, rp = spec.alpha, spec.dim, r[r > 0]
    out = np.full(r.size, _density_at_zero(spec, t))
    if d == 1:
        out[r > 0] = _char_integral("cos", 0, a, t, rp) / np.pi
    elif d == 3:
        out[r > 0] = _char_integral("sin", 1, a, t, rp) / (2.0 * np.pi ** 2 * rp)
    else:  # p = pi^(-2) int_0^1 C(r u) (1-u^2)^(-1/2) du, C the cos integral of p f(p)
        u, wu = _arcsine_rule()
        c = _char_integral("cos", 1, a, t, np.multiply.outer(rp, u).ravel())
        out[r > 0] = (c.reshape(rp.size, u.size) * wu).sum(axis=1) / np.pi ** 2
    # far tails are accurate to about 1e-16 in absolute terms, so rounding can dip below 0
    out[(out < 0) & (out > -1e-8)] = 0.0
    return float(out[0]) if point else out


def cdf_numeric(spec: ProcessSpec, t: float, x):
    """CDF of the one-dimensional time-t marginal, for every t > 0.

    Integrating the inversion formula in x and swapping integrals gives
    F(x) = 1/2 + (1/pi) int_0^inf sin(x r) (1+r^alpha)^(-t) / r dr, below d/alpha
    too.  A scalar x gives a float and a 1-d array an array of bit-equal values.
    """
    if spec.dim != 1:
        raise UnsupportedDimensionError("cdf_numeric is one-dimensional")
    if not t > 0:
        raise ConfigError(f"t must be positive, got {t}")
    r, point = point_radii(spec, x)
    half = np.zeros(r.size)
    half[r > 0] = _char_integral("sin", -1, spec.alpha, t, r[r > 0]) / np.pi
    out = 0.5 + np.sign(np.ravel(x)) * half
    return float(out[0]) if point else out


def inversion_table(spec: ProcessSpec, t: float, x_grid) -> "DensityTable":
    """Tabulate density_inversion on a grid (d = 1: radii are the |x| values)."""
    x_grid = np.asarray(x_grid, dtype=float)
    vals = density_inversion(spec, t, x_grid if spec.dim == 1 else np.atleast_2d(x_grid))
    return DensityTable(spec=spec, t=t, method="Inversion", x_grid=x_grid, values=vals)


def density_mc(spec: ProcessSpec, t: float, x_grid, n_samples: int,
               rng: RngStream) -> "DensityTable":
    """Gaussian-kernel density estimate from exact increments; valid for all t > 0.

    Bandwidth 1.06 sigma n^(-1/5) with the interquartile-range scale
    sigma = IQR / 1.349 (moment-based scales diverge for alpha < 2),
    clipped to [1e-3, 1].  The kernel sums run through one reusable block of
    about 2^21 floats, whatever the grid and sample sizes.
    """
    if not t > 0:
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
        inversion = self.method == "Inversion"
        return {
            "alpha": self.spec.alpha,
            "dim": self.spec.dim,
            "t": self.t,
            "method": self.method,
            "n_samples": self.n_samples,
            "bandwidth": self.bandwidth,
            "seed": self.seed,
            "quadrature_h": _DE_H if inversion else None,
            "quadrature_nodes": _fourier_rule("cos")[0].size if inversion else None,
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
