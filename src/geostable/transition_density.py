"""Transition density of the subordinated process: Fourier inversion, polar integral, Monte Carlo.

p_t(x) exists for every t > 0 and x != 0.  In d = 1 and 3 it is the radial Fourier
integral of f(r) = (1+r^alpha)^(-t) by Ooura & Mori's double-exponential rule
for Fourier integrals (J. Comput. Appl. Math. 38:353, 1991), with no cutoff and
no tail correction: stable_kernel's `_radial_inversion`, cos in d = 1 and sin in
d = 3, which also gives the 1 < alpha < 2 stable heads.  For alpha*t <= d
f is not integrable, but the integral converges, as does the CDF's sine integral
of f(r)/r for all t > 0.  d = 2 takes the gamma mixture p_t(x) = t K_t(|x|)/|x|^d
(`density_gamma_mixture`, through levy_structure's polar integral).  p_t(0) is
finite iff t > d/alpha, and then a Beta function:
p_t(0) = omega_{d-1} (2 pi)^(-d) B(d/alpha, t - d/alpha) / alpha.

Monte Carlo estimation via exact subordinated increments works for every
t > 0 and shares no code with the other routes; goodness of fit is judged on
CDFs (Kolmogorov-Smirnov), not on pointwise kernel estimates.  The d = 1 kernel
estimate bins its samples linearly (Wand 1994, JCGS 3:433) and sums the kernel
over occupied lattice nodes, at a reported worst-case cost in accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist as _cdist

from .errors import ConfigError, UnsupportedDimensionError
from .levy_structure import _polar_integral
from .process_core import ProcessSpec, over_radius_power, point_radii, positive_time
from .stable_kernel import (_DE_H, RngStream, _char_integral, _fourier_rule, _radial_inversion,
                            sample_increment)

# float64 entries of density_mc's working block: 16 MB
_KDE_BLOCK = 2 ** 21
# density_mc's d = 1 lattice spacing is bw / _BINS_PER_BW; exp(-z^2 / 2) is 0
# in float64 for z > 38.6, so samples past _KERNEL_REACH bandwidths add nothing
_BINS_PER_BW, _KERNEL_REACH = 64, 38.7


def density_gamma_mixture(spec: ProcessSpec, t: float, xs) -> np.ndarray:
    """p_t(x) by the gamma mixture int q_s(x) s^(t-1) e^(-s)/Gamma(t) ds, at radii xs.

    Valid for every t > 0 and x != 0.  The substitution u = s^(-1/alpha)|x|
    makes it the polar integral of the jump kernel at time t,
    p_t(x) = t K_t(|x|)/|x|^d (see levy_structure): one log-u grid whose depth
    follows |x|, plus the incomplete-gamma tail of the power series.  At x = 0
    every s contributes q_s(0) ~ s^(-d/alpha), so there the value is the Beta
    closed form for t > d/alpha, and p_t(0) = inf is refused with
    SingularPointError for t <= d/alpha.
    """
    xs = np.abs(np.atleast_1d(np.asarray(xs, dtype=float)))
    at_zero = xs == 0.0
    out = np.empty(xs.shape)
    out[at_zero] = _radial_inversion(spec.alpha, t, spec.dim, xs[at_zero])
    r = xs[~at_zero]
    out[~at_zero] = over_radius_power(t * _polar_integral(spec, t, r), r, spec.dim)
    return out


def density_inversion(spec: ProcessSpec, t: float, x):
    """p_t(x) by radial Fourier inversion of (1 + r^alpha)^(-t), for every t > 0.

    d = 1 and 3 take `_radial_inversion`; d = 2 takes density_gamma_mixture,
    which needs alpha >= 0.3, as the J0 rule is wrong for an f that decays as
    slowly as (1 + r^alpha)^(-t).  p_t(0) is the Beta value, and raises
    SingularPointError where t <= d/alpha makes it infinite.  One point gives a
    float, and a batch (see point_radii) an array whose values are bit-equal
    to their single-point values.
    """
    if spec.dim > 3:
        raise UnsupportedDimensionError(
            f"inversion supports dim in {{1, 2, 3}}, got {spec.dim}")
    positive_time(t)
    r, point = point_radii(spec, x)
    if spec.dim == 2:
        out = density_gamma_mixture(spec, t, r)
    else:
        out = _radial_inversion(spec.alpha, t, spec.dim, r)
    # far tails are accurate to about 1e-16 in absolute terms, so rounding can dip below 0
    out[(out < 0) & (out > -1e-8)] = 0.0
    return float(out[0]) if point else out


def cdf_numeric(spec: ProcessSpec, t: float, x):
    """CDF of the one-dimensional time-t marginal, for every t > 0.

    Integrating the inversion formula in x and swapping integrals gives
    F(x) = 1/2 + (1/pi) int_0^inf sin(x r) (1+r^alpha)^(-t) / r dr, below d/alpha
    too.  A scalar x gives a float and a 1-d array an array of bit-equal values.
    Rounding of the sine rule's pi/2 can step past 0 and 1 at far x, so F is clipped.
    """
    if spec.dim != 1:
        raise UnsupportedDimensionError("cdf_numeric is one-dimensional")
    positive_time(t)
    r, point = point_radii(spec, x)
    half = np.zeros(r.size)
    half[r > 0] = _char_integral("sin", -1, spec.alpha, t, r[r > 0]) / np.pi
    out = np.clip(0.5 + np.sign(np.ravel(x)) * half, 0.0, 1.0)
    return float(out[0]) if point else out


def inversion_table(spec: ProcessSpec, t: float, x_grid) -> "DensityTable":
    """Tabulate density_inversion on a grid (d = 1: radii are the |x| values)."""
    x_grid = np.asarray(x_grid, dtype=float)
    vals = density_inversion(spec, t, x_grid if spec.dim == 1 else np.atleast_2d(x_grid))
    return DensityTable(spec=spec, t=t, method="Inversion", x_grid=x_grid, values=vals)


def _kernel_sums(pts: np.ndarray, centres: np.ndarray, weights, bw: float) -> np.ndarray:
    """sum_j w_j exp(-|x - c_j|^2 / (2 bw^2)) at each row x of pts; weights None means all 1.

    The (point, centre) pairs run through one reusable block of about
    _KDE_BLOCK floats, whatever the sizes: cdist's squared distances of `rows`
    points.  Each point is summed on its own row, so its value does not depend
    on the rest of the grid.
    """
    sums = np.empty(len(pts))
    rows = max(1, min(len(pts), _KDE_BLOCK // max(1, len(centres))))
    block = np.empty((rows, len(centres)))
    for i0 in range(0, len(pts), rows):
        p = pts[i0:i0 + rows]
        d2 = _cdist(p, centres, "sqeuclidean", out=block[:len(p)])
        d2 *= -0.5
        d2 /= bw ** 2
        np.exp(d2, out=d2)
        if weights is not None:
            d2 *= weights
        sums[i0:i0 + rows] = d2.sum(axis=1)
    return sums


def _linear_bins(samples: np.ndarray, x_grid: np.ndarray, bw: float):
    """Lattice points j * delta (delta = bw / _BINS_PER_BW) and their linear-binning weights.

    A sample at (j + f) delta gives 1 - f to node j and f to node j + 1.  Only
    samples within _KERNEL_REACH bandwidths of the finite grid points are
    binned: the kernel underflows to 0 past that, so the rest add nothing.
    Only occupied nodes are returned, at most two a sample, whatever the grid's span.
    """
    delta = bw / _BINS_PER_BW
    finite = x_grid[np.isfinite(x_grid)]
    if finite.size == 0:
        return np.empty(0), np.empty(0)
    lo, hi = finite.min() - _KERNEL_REACH * bw, finite.max() + _KERNEL_REACH * bw
    pos = np.sort(samples[(samples >= lo) & (samples <= hi)]) / delta
    j = np.floor(pos)
    frac = pos - j
    starts = np.flatnonzero(np.diff(j, prepend=-np.inf))  # first sample of each occupied bin
    nodes, slot = np.unique(np.concatenate([j[starts], j[starts] + 1.0]), return_inverse=True)
    weights = np.bincount(slot, np.concatenate([np.add.reduceat(1.0 - frac, starts),
                                                np.add.reduceat(frac, starts)]))
    return nodes * delta, weights


def _binning_error_bound(bw: float, bin_width: float) -> float:
    """Largest change linear binning makes to a KDE value: max|K_bw''| bin_width^2 / 8.

    Binning evaluates each sample's kernel by linear interpolation between
    two nodes, and max|K_bw''| = (2 pi)^(-1/2) bw^(-3).
    """
    return (bin_width / bw) ** 2 / (8.0 * math.sqrt(2.0 * math.pi) * bw)


def density_mc(spec: ProcessSpec, t: float, x_grid, n_samples: int,
               rng: RngStream) -> "DensityTable":
    """Gaussian-kernel density estimate from exact increments; valid for all t > 0.

    It shares no code with the Fourier rules or the polar integral: in d > 1 it
    is the one independent check of density_inversion.  Bandwidth
    1.06 sigma n^(-1/5) with the interquartile-range scale sigma = IQR / 1.349
    (moment-based scales diverge for alpha < 2), clipped to [1e-3, 1].  In d = 1
    the samples are first binned linearly onto a lattice of spacing bw / 64
    (Wand 1994, JCGS 3:433), so the kernel is summed over occupied nodes, not
    samples; each value then moves by at most the header's binning_error_bound.
    In d > 1 the kernel is summed over the samples.  Either sum divides by
    n_samples.  x_grid has shape (m,) in d = 1 and (m, d) in d > 1; any other
    shape, or a NaN grid point, raises ConfigError before anything is drawn.
    An infinite grid point gets its limit, 0.
    """
    positive_time(t)
    if n_samples < 1000:
        raise ConfigError(f"n_samples must be >= 1000, got {n_samples}")
    x_grid = np.asarray(x_grid, dtype=float)
    if spec.dim == 1:
        shape, ok = "(m,)", x_grid.ndim == 1
    else:
        shape, ok = f"(m, {spec.dim})", x_grid.ndim == 2 and x_grid.shape[1] == spec.dim
    if not ok:
        raise ConfigError(f"x_grid must have shape {shape} in d = {spec.dim}, got {x_grid.shape}")
    if np.isnan(x_grid).any():
        raise ConfigError("x_grid must not be NaN")
    samples = np.asarray(sample_increment(spec, t, rng, size=n_samples))
    radial = samples if spec.dim == 1 else np.linalg.norm(samples, axis=1)
    q75, q25 = np.percentile(radial, [75.0, 25.0])
    sigma = (q75 - q25) / 1.349
    bw = float(np.clip(1.06 * sigma * n_samples ** (-0.2), 1e-3, 1.0))
    norm = (2.0 * np.pi) ** (-spec.dim / 2.0) * bw ** (-spec.dim)
    if spec.dim == 1:
        centres, weights = _linear_bins(samples, x_grid, bw)
        sums = _kernel_sums(x_grid[:, None], centres[:, None], weights, bw)
        bin_width = bw / _BINS_PER_BW
    else:
        sums = _kernel_sums(np.atleast_2d(x_grid), samples, None, bw)
        bin_width = None
    return DensityTable(spec=spec, t=t, method="MonteCarlo", x_grid=x_grid,
                        values=norm * (sums / n_samples), n_samples=n_samples,
                        bandwidth=bw, seed=rng.seed, bin_width=bin_width)


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
    bin_width: float | None = None

    def __post_init__(self):
        if self.method not in ("Inversion", "MonteCarlo"):
            raise ValueError(f"method must be Inversion or MonteCarlo, got {self.method!r}")
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")
        if self.spec.dim == 1 and self.x_grid.ndim == 1 and self.x_grid.size > 1:
            gaps = np.diff(self.x_grid)
            if np.any(gaps <= 0):
                raise ValueError("x_grid must be strictly increasing for d = 1")
            # lower Riemann sum: never above the mass of a density that is
            # nonincreasing in |x|, where the trapezoid overshoots at a cusp;
            # a gap to an infinite grid point, where the value is 0, adds nothing
            finite = np.isfinite(gaps)
            mass = float(np.minimum(self.values[:-1], self.values[1:])[finite] @ gaps[finite])
            if mass > 1.0 + 1e-3:
                raise ValueError(f"tabulated mass {mass} exceeds 1 + 1e-3")

    def header(self) -> dict:
        # d = 2 values come from the polar integral, which no cos rule computes
        inversion = self.method == "Inversion" and self.spec.dim != 2
        return {
            "alpha": self.spec.alpha,
            "dim": self.spec.dim,
            "t": self.t,
            "method": self.method,
            "n_samples": self.n_samples,
            "bandwidth": self.bandwidth,
            "seed": self.seed,
            "bin_width": self.bin_width,
            "binning_error_bound": (None if self.bin_width is None
                                    else _binning_error_bound(self.bandwidth, self.bin_width)),
            "quadrature_h": _DE_H if inversion else None,
            "quadrature_nodes": _fourier_rule("cos")[0].size if inversion else None,
        }


@dataclass
class EmpiricalCdf:
    """Sorted sample values with step-function evaluation."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size < 1:
            raise ValueError("an empirical CDF needs at least one sample")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be sorted ascending")

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalCdf":
        return cls(values=np.sort(np.asarray(samples, dtype=float)))

    def evaluate(self, x):
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.values.size

    def ks_distance(self, cdf) -> float:
        """Kolmogorov-Smirnov distance against a callable reference CDF."""
        f = np.asarray(cdf(self.values), dtype=float)
        n = self.values.size
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
