"""Ground states of the log-symbol Schroedinger operator in the recurrent case.

The line is truncated to a torus of half-width L with N equispaced nodes.  Every
torus operator is a circulant: a real symbol at the discrete frequencies
xi_k = pi k / L (torus_symbol), applied by one rfft/irfft pair.  The generator's
symbol is the multiplier log(1 + |xi_k|^alpha).  The variational problem

    lambda = inf { E(u,u) + int u^2 dmu_plus : int u^2 dmu_minus = 1 }

becomes the generalized eigenproblem (h H + W+) v = lambda W- v with diagonal
weight matrices; since W- is singular on the complement of its support, the
solver runs inexact inverse iteration on (h H + W+)^(-1) W-: the definite side
is inverted by conjugate gradients preconditioned with the circulant
h H + mean(W+), each solve only as tight as the outer residual needs, and a
dense eigensolve of the same pencil in the real Fourier modes is the check.

The energy form has two faces: the multiplier, and the Beurling-Deny double
sum over node pairs with the periodized jump kernel j_per(z) = sum_m j(z + 2Lm).
The double sum is a circulant too, with symbol h sum_l j_per(l h) (1 - cos(xi_k l h)),
one FFT of the lag table.  In the continuum the two coincide: cos(xi_k z) is
2L-periodic, so the periodized kernel reproduces the multiplier exactly.
"""
from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import circulant, eigh
from scipy.sparse.linalg import LinearOperator, cg

from .errors import ConfigError, ConsistencyError, ConvergenceError
from .levy_structure import k_radial, small_x_constant
from .process_core import ProcessSpec, RecurrenceClass, classify_recurrence
from .stable_kernel import RngStream, _advance_into


@dataclass(frozen=True)
class GridDomain:
    """Periodic grid on [-L, L): nodes x_i = -L + i h, frequencies pi k / L."""

    L: float
    N: int

    def __post_init__(self):
        if not self.L > 0:
            raise ConfigError(f"L must be positive, got {self.L}")
        n = int(self.N)
        if n < 64 or (n & (n - 1)) != 0:
            raise ConfigError(f"N must be a power of two >= 64, got {self.N}")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "L", float(self.L))

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    def nodes(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)

    def rfft_freqs(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.rfftfreq(self.N, d=self.h)


@dataclass
class MeasureOnGrid:
    """Nonnegative measure with node weights w_i ~ rho(x_i) h."""

    domain: GridDomain
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.domain.N,):
            raise ConfigError(f"weights must have length {self.domain.N}")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ConfigError("measure weights must be finite and nonnegative")
        self.weights = w

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def nontrivial(self) -> bool:
        return self.total_mass > 1e-14

    def density_values(self) -> np.ndarray:
        return self.weights / self.domain.h

    def support_radius(self) -> float:
        active = np.abs(self.domain.nodes())[self.weights > 0]
        return float(active.max()) if active.size else 0.0

    def describe(self) -> dict:
        nodes = self.domain.nodes()
        active = nodes[self.weights > 0]
        support = [float(active.min()), float(active.max())] if active.size else None
        return {"total_mass": self.total_mass, "support": support}

    @classmethod
    def from_profile(cls, domain: GridDomain, profile: str, center: float = 0.0,
                     half_width: float = 1.0, height: float = 1.0) -> "MeasureOnGrid":
        """Named bump: 'indicator', 'gaussian' (scale = half_width) or 'triangle'."""
        if not (half_width > 0 and height >= 0):
            raise ConfigError("half_width must be positive and height nonnegative")
        x = domain.nodes()
        z = (x - center) / half_width
        if profile == "indicator":
            rho = height * (np.abs(z) <= 1.0)
        elif profile == "gaussian":
            rho = height * np.exp(-z ** 2)
        elif profile == "triangle":
            rho = height * np.maximum(0.0, 1.0 - np.abs(z))
        else:
            raise ConfigError(f"unknown profile {profile!r}")
        return cls(domain, rho * domain.h)

    @classmethod
    def from_points(cls, domain: GridDomain, x, weights) -> "MeasureOnGrid":
        """Point masses weights[i] at x[i], each on its nearest grid node."""
        x = np.asarray(x, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if x.ndim != 1 or x.shape != weights.shape:
            raise ConfigError("x and weights must be 1-D arrays of the same length")
        idx = np.rint((x + domain.L) / domain.h)
        outside = ~((idx >= 0) & (idx < domain.N))
        if outside.any():
            raise ConfigError(f"measure point x={x[outside][0]} falls outside the grid")
        w = np.zeros(domain.N)
        np.add.at(w, idx.astype(int), weights)
        return cls(domain, w)


@dataclass
class SchrodingerProblem:
    """Recurrent-case eigenproblem data: process, torus grid, and both measures."""

    spec: ProcessSpec
    domain: GridDomain
    mu_plus: MeasureOnGrid
    mu_minus: MeasureOnGrid

    def __post_init__(self):
        if self.spec.dim != 1:
            raise ConfigError("the ground-state solver is one-dimensional")
        if classify_recurrence(self.spec) is not RecurrenceClass.RECURRENT:
            raise ConfigError("ground states require the recurrent regime alpha >= dim")
        for name, mu in (("mu_plus", self.mu_plus), ("mu_minus", self.mu_minus)):
            if mu.domain != self.domain:
                raise ConfigError(f"{name} lives on a different grid")
            if not mu.nontrivial:
                raise ConfigError(f"{name} must be non-trivial (total mass > 1e-14)")
            if mu.support_radius() > self.domain.L / 4.0 + 1e-12:
                raise ConfigError(
                    f"{name} support radius {mu.support_radius():.3g} exceeds L/4; "
                    "enlarge the domain")


# ---------------------------------------------------------------------------
# torus symbols: every operator is a real symbol applied by one FFT

_JLAG_CACHE: dict = {}
# 2L images folded into j_per on each side of a lag
_FOLD_M = 64


def _periodized_jump_lags(spec: ProcessSpec, domain: GridDomain, fold_m: int) -> np.ndarray:
    """j_per at lag displacements lag*h, lag = 1..N-1, folded over 2L images."""
    key = (spec.alpha, domain.L, domain.N, fold_m)
    cached = _JLAG_CACHE.get(key)
    if cached is not None:
        return cached
    h, L, N = domain.h, domain.L, domain.N
    r_min = h / 4.0
    r_max = 2.0 * L * (fold_m + 1)
    nodes = np.geomspace(r_min, r_max, 1400)
    jv = k_radial(spec, nodes) / nodes  # dim = 1
    keep = jv > 1e-290
    spline = CubicSpline(np.log(nodes[keep]), np.log(jv[keep]))
    log_hi = np.log(nodes[keep][-1])

    def j_of(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        ok = np.log(r) <= log_hi
        out[ok] = np.exp(spline(np.log(r[ok])))
        return out

    lags = np.arange(1, N)
    z = lags * h
    offsets = 2.0 * L * np.arange(-fold_m, fold_m + 1)
    radii = np.abs(z[:, None] + offsets[None, :])
    jlag = j_of(radii).sum(axis=1)
    _JLAG_CACHE[key] = jlag
    return jlag


def torus_symbol(problem: SchrodingerProblem, method: str = "multiplier",
                 near_diagonal: str = "patch") -> np.ndarray:
    """Real symbol of the form operator at the rfft frequencies xi_k = pi k / L.

    'multiplier' is log(1 + xi_k^alpha).  'jump_kernel' is the Fourier image of
    the double sum 0.5 h^2 sum_{i,l} J_l (u_i - u_{i+l})(v_i - v_{i+l}),
    S_k = h (sum_l J_l - Re Jhat_k), with J_l = j_per(l h) at lags l = 1..N-1,
    J_0 = 0 and Jhat = rfft(J); S_0 = 0 exactly.  near_diagonal='patch'
    replaces the |x_i - x_l| < 2h band by the small-displacement integral of
    the kernel's 1/|z| asymptote, int_{|z|<2h} 0.5 (c0/|z|) z^2 dz = 2 c0 h^2,
    on one-sided differences: J_1 = J_{N-1} = 2 c0 / h.  'lattice' keeps the
    raw lag-1 kernel values, which is what makes the indicator cross-term
    identity exact.
    """
    if method == "multiplier":
        return np.log1p(problem.domain.rfft_freqs() ** problem.spec.alpha)
    if method != "jump_kernel":
        raise ValueError(f"method must be 'multiplier' or 'jump_kernel', got {method!r}")
    h = problem.domain.h
    jlag = np.concatenate([[0.0], _periodized_jump_lags(problem.spec, problem.domain, _FOLD_M)])
    if near_diagonal == "patch":
        jlag[1] = jlag[-1] = 2.0 * small_x_constant(problem.spec) / h
    elif near_diagonal != "lattice":
        raise ValueError(f"near_diagonal must be 'patch' or 'lattice', got {near_diagonal!r}")
    jhat = np.fft.rfft(jlag).real
    return h * (jhat[0] - jhat)


def apply_generator(problem: SchrodingerProblem, u) -> np.ndarray:
    """Spectral application of the nonnegative form operator, multiplier log(1+|xi|^alpha).

    Linear, self-adjoint, positive semidefinite; constants are its kernel.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.domain.N,):
        raise ValueError(f"u must have length {problem.domain.N}")
    return _spectral_apply(torus_symbol(problem), u)


def generator_matrix(problem: SchrodingerProblem) -> np.ndarray:
    """Dense circulant matrix of the multiplier log(1 + |xi|^alpha) on the grid."""
    return circulant(np.fft.irfft(torus_symbol(problem), n=problem.domain.N))


def _spectral_apply(symbol: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Circulant operator with the given real symbol at the rfft frequencies, applied to u."""
    return np.fft.irfft(symbol * np.fft.rfft(u), n=u.size)


def energy_form(problem: SchrodingerProblem, u, v, method: str = "multiplier", *,
                near_diagonal: str = "patch") -> float:
    """Dirichlet form E(u, v) = h (S u) . v, S = torus_symbol(problem, method, near_diagonal)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    N = problem.domain.N
    if u.shape != (N,) or v.shape != (N,):
        raise ValueError(f"u and v must have length {N}")
    symbol = torus_symbol(problem, method, near_diagonal)
    return float(problem.domain.h * (_spectral_apply(symbol, u) @ v))


def irreducibility_cross_term(problem: SchrodingerProblem, subset, u) -> float:
    """Cross energy E(1_A u, 1_{A^c} u) with its exact double-sum identity.

    Computed once through the bilinear jump form on the masked vectors and
    once as -sum_{i in A, l in A^c} u_i u_l j_per(x_i - x_l) h^2, the kernel
    dotted with the symmetrized circular correlation of the two masked vectors;
    the two are algebraically identical on the lattice and must agree to 1e-10
    relative.  Strictly negative for nonempty proper subsets (the kernel is
    positive).
    """
    u = np.asarray(u, dtype=float)
    N = problem.domain.N
    if u.shape != (N,):
        raise ValueError(f"u must have length {N}")
    if np.any(u <= 0):
        raise ValueError("u must be strictly positive at every node")
    mask = np.zeros(N, dtype=bool)
    mask[np.asarray(subset)] = True
    a = np.where(mask, u, 0.0)
    b = np.where(mask, 0.0, u)
    cross = energy_form(problem, a, b, method="jump_kernel", near_diagonal="lattice")
    h = problem.domain.h
    jlag = _periodized_jump_lags(problem.spec, problem.domain, _FOLD_M)
    # sum_i a_i (b_{i+l} + b_{i-l}) / 2 at lags l = 1..N-1
    corr = np.fft.irfft((np.conj(np.fft.rfft(a)) * np.fft.rfft(b)).real, n=N)[1:]
    direct = -h * h * float(jlag @ corr)
    scale = max(abs(cross), abs(direct), 1e-300)
    if abs(cross - direct) > 1e-10 * scale and scale > 1e-280:
        raise ConsistencyError(
            f"cross-term routes disagree: bilinear {cross!r} vs direct {direct!r}")
    return cross


# ---------------------------------------------------------------------------
# eigen solvers

@dataclass
class GroundStateResult:
    """Principal eigenpair of (h H + W+) v = lambda W- v with solver diagnostics."""

    lambda_: float
    h: np.ndarray
    residual: float
    iterations: int
    normalization_check: float
    cg_iterations: int

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.lambda_ <= 1e-12:
            raise ConsistencyError(f"principal eigenvalue must be positive, got {self.lambda_}")
        if abs(self.normalization_check - 1.0) > 1e-10:
            raise ConsistencyError(
                f"constraint sum h^2 w_minus = 1 violated: {self.normalization_check}")
        if self.h.size and float(self.h.min()) < -1e-8 * float(np.abs(self.h).max()):
            raise ConsistencyError("ground state is not positive up to numerical noise")

    def to_dict(self, problem: SchrodingerProblem) -> dict:
        return {
            "alpha": problem.spec.alpha,
            "L": problem.domain.L,
            "N": problem.domain.N,
            "mu_plus": problem.mu_plus.describe(),
            "mu_minus": problem.mu_minus.describe(),
            "lambda": self.lambda_,
            "residual": self.residual,
            "iterations": self.iterations,
            "cg_iterations": self.cg_iterations,
            "normalization_check": self.normalization_check,
            "h": [float(v) for v in self.h],
            "seed": None,  # the solve draws nothing; the key keeps the file's layout
        }


def _finalize(problem, lam, vec, residual, iterations, cg_iterations):
    wm = problem.mu_minus.weights
    norm2 = float(vec @ (wm * vec))
    hvec = vec / np.sqrt(norm2)
    if float(hvec @ wm) < 0:
        hvec = -hvec
    return GroundStateResult(
        lambda_=float(lam), h=hvec, residual=float(residual),
        iterations=int(iterations),
        normalization_check=float(hvec @ (wm * hvec)),
        cg_iterations=int(cg_iterations))


# inexact inverse iteration (Golub & Ye 2000): each inner CG solve is asked for
# a relative residual of _INNER_RTOL_FACTOR times the last outer pencil
# residual, clipped to [_INNER_RTOL_MIN, _INNER_RTOL_MAX]
_INNER_RTOL_FACTOR = 0.1
_INNER_RTOL_MIN = 1e-13
_INNER_RTOL_MAX = 1e-2


def solve_ground_state(problem: SchrodingerProblem, tol: float = 1e-10,
                       max_iter: int = 800) -> GroundStateResult:
    """Principal eigenpair by inexact inverse iteration, inverse-free on the singular side.

    Iterates v <- (h H + W+)^(-1) W- v; the definite side h H + W+ is invertible
    because mu_plus is non-trivial.  Each solve is conjugate gradients with the
    multiplier applied spectrally, O(N log N) per CG step, preconditioned by the
    circulant h H + mean(W+) (one FFT pair, T. Chan 1988), so the step count
    does not grow with N.  A solve starts at v / lambda, the fixed point, and
    stops at a relative residual tied to the last outer residual (Golub & Ye
    2000), so late solves take a few steps.  Convergence is declared on the
    exactly computed pencil residual ||(h H + W+) v - lambda W- v|| / ||v|| < tol;
    the result's cg_iterations counts the inner steps.
    """
    if not tol > 0 or max_iter < 1:
        raise ConfigError(f"tol must be positive and max_iter >= 1, got tol={tol}, "
                          f"max_iter={max_iter}")
    psi = torus_symbol(problem)
    N = problem.domain.N
    h = problem.domain.h
    wp = problem.mu_plus.weights
    wm = problem.mu_minus.weights

    def a_apply(v):
        return h * _spectral_apply(psi, v) + wp * v

    a_op = LinearOperator((N, N), matvec=a_apply, dtype=float)
    # circulant preconditioner: W+ replaced by its mean, inverted by one FFT pair;
    # psi_0 = 0 and mean(w+) > 0 because mu_plus is non-trivial
    precond_symbol = 1.0 / (h * psi + float(wp.mean()))
    precond = LinearOperator((N, N), matvec=lambda v: _spectral_apply(precond_symbol, v),
                             dtype=float)
    x = (wm > 0).astype(float)
    x /= np.linalg.norm(x)
    z = x.copy()
    residual = np.inf
    rtol = _INNER_RTOL_MAX
    cg_steps = 0

    def count_step(_xk):
        nonlocal cg_steps
        cg_steps += 1

    for it in range(1, max_iter + 1):
        y = wm * x
        z, info = cg(a_op, y, x0=z, rtol=rtol, atol=0.0, maxiter=40 * N, M=precond,
                     callback=count_step)
        nz = np.linalg.norm(z)
        if info != 0 or nz == 0.0:
            raise ConvergenceError(f"inner CG solve failed at iteration {it}", residual=residual)
        z = z / nz
        az = a_apply(z)
        bz = wm * z
        theta = float(z @ bz) / float(z @ az)
        lam = 1.0 / theta
        residual = float(np.linalg.norm(az - lam * bz))
        x = z
        if residual < tol:
            return _finalize(problem, lam, z, residual, it, cg_steps)
        # the next solve starts at the fixed point z / lam, whose CG residual is
        # rel ||W- z||; asking for a tenth of it keeps every solve doing work
        rel = residual / (lam * float(np.linalg.norm(bz)))
        rtol = min(_INNER_RTOL_MAX, max(_INNER_RTOL_MIN, _INNER_RTOL_FACTOR * rel))
        z = z / lam
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} iterations",
        residual=residual)


def _real_fourier_modes(N: int) -> np.ndarray:
    """Orthonormal real eigenvectors of every N-node circulant, as columns.

    cos(2 pi k i / N) for k = 0..N/2 (the rfft frequencies), then
    sin(2 pi k i / N) for k = 1..N/2-1; phases are reduced mod N before scaling.
    """
    half = N // 2
    ang = (2.0 * np.pi / N) * (np.outer(np.arange(N), np.arange(half + 1)) % N)
    q = np.empty((N, N))
    np.cos(ang, out=q[:, :half + 1])
    np.sin(ang[:, 1:-1], out=q[:, half + 1:])
    q *= np.sqrt(2.0 / N)
    q[:, [0, half]] /= np.sqrt(2.0)
    return q


def dense_ground_state(problem: SchrodingerProblem) -> GroundStateResult:
    """Dense generalized eigensolve of the same pencil; the brute-force check.

    Writes h H + W+ and W- in the real Fourier modes, where h H is exactly the
    diagonal h psi_k (constants stay in its kernel to the last bit), and solves
    W- v = theta (h H + W+) v for the largest theta with a dense symmetric
    eigensolver.  In the node basis the Cholesky factor of h H + W+ loses
    eps cond(h H + W+), which is 1e-5 of lambda when mu_plus is a single node
    of weight 1e-9.
    """
    psi = torus_symbol(problem)
    N = problem.domain.N
    q = _real_fourier_modes(N)

    def gram(w):  # Q^T diag(w) Q from the rows where w > 0
        rows = q[w > 0]
        return (rows.T * w[w > 0]) @ rows

    a_mat = gram(problem.mu_plus.weights)
    a_mat[np.diag_indices(N)] += problem.domain.h * np.concatenate([psi, psi[1:-1]])
    b_mat = gram(problem.mu_minus.weights)
    # eigh reads the lower triangles only
    theta, vecs = eigh(b_mat, a_mat, subset_by_index=[N - 1, N - 1])
    lam = 1.0 / float(theta[0])
    coef = vecs[:, 0]
    residual = float(np.linalg.norm(a_mat @ coef - lam * (b_mat @ coef)) / np.linalg.norm(coef))
    return _finalize(problem, lam, q @ coef, residual, 0, 0)


# ---------------------------------------------------------------------------
# Feynman-Kac and Kato diagnostics

def _rho_lookup(domain: GridDomain, weights: np.ndarray):
    """rho_into(x, out, scratch, idx): density of mu_plus at the node nearest x, into out.

    Allocation-free: positions are clipped to node indices -1..N, and both ends
    read the zero appended to the table (take wraps -1 onto index N).  scratch
    is a float buffer of x's shape and idx an intp buffer of x's shape.
    """
    table = np.append(weights / domain.h, 0.0)

    def rho_into(x, out, scratch, idx):
        np.add(x, domain.L, out=scratch)
        scratch /= domain.h
        np.rint(scratch, out=scratch)
        np.clip(scratch, -1.0, domain.N, out=scratch)
        np.copyto(idx, scratch, casting="unsafe")
        np.take(table, idx, out=out, mode="wrap")

    return rho_into


class _PathBatch:
    """One batch of Feynman-Kac paths: positions, clocks and three scratch vectors.

    Built in the calling thread, so its buffers come from that thread's heap,
    where the batch's f(X_t) temporaries can reuse them once it is released.
    """

    def __init__(self, n: int, x0: float):
        self.x = np.full(n, x0)
        self.clock = np.zeros(n)
        self.scratch = np.empty((3, n))


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _as_function(domain: GridDomain, f):
    if callable(f):
        return f
    vals = np.asarray(f, dtype=float)
    if vals.shape != (domain.N,):
        raise ValueError(f"f must be callable or a vector of length {domain.N}")
    nodes = domain.nodes()
    return lambda x: np.interp(x, nodes, vals, left=0.0, right=0.0)


def feynman_kac_estimate(problem: SchrodingerProblem, f, x0: float, t: float,
                         n_paths: int, dt: float, rng: RngStream, *,
                         rho=None, batch_size: int = 100_000, free_mean=None):
    """Monte Carlo for E_x0[ exp(-int_0^t rho(X_s) ds) f(X_t) ].

    Paths advance by exact subordinated increments (no time-discretization of
    the process itself); the only bias is the left-endpoint quadrature of the
    clock integral, O(dt).  rho defaults to the density of mu_plus; an explicit
    callable overrides it and may return a scalar (rho=lambda z: 0.0 is free).

    Every increment is drawn, but one that rounding absorbs is not
    transformed (`stable_kernel._advance_into`): with the bound
    alpha log|G^(1/alpha) Z| <= B = log G - log(2 s) + (alpha - 1) log W + c
    on the Chambers-Mallows-Stuck draw, an entry with
    B < alpha (log|x| - 55 log 2) would move by under a quarter of the float
    spacing at x, so x + increment = x.  At dt = 1/256 that is about three
    increments in four.  Results are bit-identical to adding every increment.

    Batches of batch_size paths run in parallel, one thread per usable core
    and at most as many batches in memory as threads.  Each batch draws from
    its own split substream and is summed in batch order, so the result
    depends only on seed and batch plan, not on the number of cores.  An
    explicit rho runs in those worker threads and must be pure; f runs in
    the calling thread.  A non-finite x0 or n_paths < 2 raises ConfigError.

    free_mean, when given, is the exact mean E_x0[f(X_t)] of the unkilled
    process.  f(X_t) then serves as a control variate: the estimate is the mean
    of Z = e^(-clock) f(X_t) - c (f(X_t) - free_mean), with the variance-optimal
    c = cov(Y, f)/var(f) taken from the same paths (Glasserman, Monte Carlo
    Methods in Financial Engineering, 4.1).  Without it the plain mean of
    Y = e^(-clock) f(X_t) is returned.

    Returns (mean, standard_error).
    """
    if not 0 < dt <= t:
        raise ConfigError(f"need 0 < dt <= t, got dt={dt}, t={t}")
    steps = round(t / dt)
    if abs(steps * dt - t) > 1e-9 * t:
        raise ConfigError(f"t/dt must be an integer, got t={t}, dt={dt}")
    if n_paths < 2 or batch_size < 1:
        raise ConfigError(f"need n_paths >= 2 and batch_size >= 1, got {n_paths}, {batch_size}")
    if not math.isfinite(x0):
        raise ConfigError(f"x0 must be finite, got {x0}")
    lookup = _rho_lookup(problem.domain, problem.mu_plus.weights) if rho is None else None
    f_of = _as_function(problem.domain, f)
    alpha = problem.spec.alpha

    def advance(batch, gen):
        x, clock = batch.x, batch.clock
        inc, s1, s2 = batch.scratch
        batch.scratch = None  # freed when the walk returns, before f runs on the batch
        idx = s1.view(np.intp)
        for _ in range(steps):
            if lookup is None:
                np.multiply(rho(x), dt, out=s2)
            else:
                lookup(x, s2, inc, idx)
                s2 *= dt
            clock += s2
            _advance_into(alpha, dt, gen, x, inc, s1, s2)

    total = 0.0
    total_sq = 0.0
    cv_sums = np.zeros(3)  # sums of g, g^2 and Y g with g = f(X_t) - free_mean

    def finish(batch, future):
        nonlocal total, total_sq, cv_sums
        future.result()
        x, clock = batch.x, batch.clock
        fx = f_of(x)
        np.negative(clock, out=clock)
        np.exp(clock, out=clock)
        clock *= fx  # Y = e^(-clock) f(X_t)
        total += float(clock.sum())
        if free_mean is not None:
            g = fx - free_mean
            cv_sums += (g.sum(), g @ g, clock @ g)
        np.square(clock, out=x)  # f(X_t) is spent, even where f returned x itself
        total_sq += float(x.sum())

    n_batches = int(np.ceil(n_paths / batch_size))
    streams = rng.split(n_batches)
    workers = min(n_batches, _usable_cores())
    running = deque()
    with ThreadPoolExecutor(workers) as pool:
        for i, stream in enumerate(streams):
            if len(running) == workers:
                finish(*running.popleft())
            batch = _PathBatch(min(batch_size, n_paths - i * batch_size), float(x0))
            running.append((batch, pool.submit(advance, batch, stream.gen)))
            del batch  # the window alone holds it, so finish releases it
        while running:
            finish(*running.popleft())
    mean = total / n_paths
    if free_mean is None:
        var = max(total_sq / n_paths - mean ** 2, 0.0) * n_paths / (n_paths - 1)
        return mean, float(np.sqrt(var / n_paths))
    g_mean = cv_sums[0] / n_paths
    s_yy = total_sq - n_paths * mean ** 2
    s_gg = cv_sums[1] - n_paths * g_mean ** 2
    s_yg = cv_sums[2] - n_paths * mean * g_mean
    c = s_yg / s_gg if s_gg > 0 else 0.0
    # sum of (Z - Zbar)^2 = s_yy - 2 c s_yg + c^2 s_gg = s_yy - c s_yg at the optimal c
    var = max(s_yy - c * s_yg, 0.0) / (n_paths - 1)
    return float(mean - c * g_mean), float(np.sqrt(var / n_paths))


def kato_diagnostic(problem: SchrodingerProblem, t_values, *, mu=None):
    """sup_x int_0^t (P_s rho)(x) ds for each t, by spectral exponentials.

    The time integral of the semigroup has multiplier (1 - e^(-t psi))/psi
    (with value t at the zero frequency), applied to the density of mu_plus
    (or of an explicit override measure).  For a bounded density the values
    are bounded by t * sup rho and decrease to zero with t.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or t_values.size == 0:
        raise ConfigError("t_values must be a nonempty 1-d sequence")
    if not np.all(t_values > 0):
        raise ConfigError("t_values must be positive")
    if t_values.size > 1 and np.any(np.diff(t_values) >= 0):
        raise ConfigError("t_values must be strictly decreasing")
    measure = problem.mu_plus if mu is None else mu
    rho = measure.weights / problem.domain.h
    psi = torus_symbol(problem)
    out = []
    for t in t_values:
        mult = np.empty_like(psi)
        nz = psi > 0
        mult[nz] = (1.0 - np.exp(-t * psi[nz])) / psi[nz]
        mult[~nz] = t
        g = _spectral_apply(mult, rho)
        out.append(float(g.max()) if g.size else 0.0)
    return out
