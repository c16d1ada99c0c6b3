"""Ground states of the log-symbol Schroedinger operator in the recurrent case.

The line is truncated to a torus of half-width L with N equispaced nodes.  Every
torus operator is a circulant: a real symbol at the discrete frequencies
xi_k = pi k / L (torus_symbol), applied by one rfft/irfft pair.  The generator's
symbol is the multiplier log(1 + |xi_k|^alpha).  The variational problem

    lambda = inf { E(u,u) + int u^2 dmu_plus : int u^2 dmu_minus = 1 }

becomes the generalized eigenproblem (h H + W+) v = lambda W- v with diagonal
weight matrices; since W- is singular on the complement of its support, the
solver runs inexact inverse iteration on (h H + W+)^(-1) W-: the definite side
is inverted by conjugate gradients, preconditioned by h H + W+ itself on the
heaviest nodes of mu_plus (a circulant plus a low-rank update, inverted by the
Woodbury identity), each solve only as tight as the outer residual needs, and
a dense eigensolve of the same pencil in the real Fourier modes is the check.

The energy form has two faces: the multiplier, and the Beurling-Deny double
sum over node pairs with the periodized jump kernel j_per(z) = sum_m j(z + 2Lm).
At lag l h it is the folded lattice sum of j(n h) over n = +-l mod N, with the
outermost period at half weight.  The double sum is a circulant too, with symbol
h sum_l j_per(l h) (1 - cos(xi_k l h)), one FFT of the lag table.  In the
continuum the two coincide: cos(xi_k z) is 2L-periodic, so the periodized
kernel reproduces the multiplier exactly.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConsistencyError, ConvergenceError
from .levy_structure import k_radial, small_x_constant
from .process_core import CubicHermite, ProcessSpec, RecurrenceClass, classify_recurrence
from .stable_kernel import RngStream, _usable_cores, _walk_into, _walk_scratch


@dataclass(frozen=True)
class GridDomain:
    """Periodic grid on [-L, L): nodes x_i = -L + i h, frequencies pi k / L."""

    L: float
    N: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ConfigError(f"L must be positive and finite, got {self.L}")
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

# lattice radii n h, n < _FOLD_ROWS N, folded into j_per, about _LAG_PASS at a time
_FOLD_ROWS = 65
_LAG_PASS = 2 ** 14


@functools.cache
def _periodized_jump_lags(spec: ProcessSpec, domain: GridDomain) -> np.ndarray:
    """Read-only, exactly even table J_l = j_per(l h), l = 0..N-1, with J_0 = 0.

    Every image radius |l h + 2Lm| is some n h, so the images fold modulo N:
    F_l = sum_k j((l + kN) h) over k < _FOLD_ROWS, the last row at weight 1/2,
    and J_l = F_l + F_(N-l).  j is exp of a not-a-knot cubic spline
    (process_core.CubicHermite) of log j in log r, through k_radial at 1400
    geometric radii up to the first where j <= 1e-290, and 0 beyond.  The
    rows are evaluated a few at a time, about _LAG_PASS radii (one row of N
    when N is larger), and added in the order k = 0, 1, ...; so the work
    space stays O(N + _LAG_PASS), and rows past the kernel's reach cost
    nothing.
    """
    h, N = domain.h, domain.N
    nodes = np.geomspace(h / 4.0, _FOLD_ROWS * N * h, 1400)
    jv = k_radial(spec, nodes) / nodes  # dim = 1
    n = int(np.logical_and.accumulate(jv > 1e-290).sum())  # a prefix: uniform knots
    log_j = CubicHermite.spline(np.log(nodes[:n]), np.log(jv[:n]))
    reach = np.log(nodes[n - 1])
    per_pass = -(-_LAG_PASS // N)  # rows, at least one
    fold = np.zeros(N)
    for k0 in range(0, _FOLD_ROWS, per_pass):
        k1 = min(k0 + per_pass, _FOLD_ROWS)
        radii = h * np.arange(k0 * N, k1 * N, dtype=float)
        if k0 == 0:
            radii[0] = h  # the origin is no image: its entry is zeroed below
        log_r = np.log(radii)
        inside = int(np.searchsorted(log_r, reach, side="right"))
        j = np.zeros(radii.size)
        j[:inside] = np.exp(log_j(log_r[:inside]))
        if k0 == 0:
            j[0] = 0.0
        if k1 == _FOLD_ROWS:
            j[-N:] *= 0.5
        for row in j.reshape(-1, N):
            fold += row
        if inside < radii.size:
            break
    jlag = np.append(0.0, fold[1:] + fold[:0:-1])
    jlag.flags.writeable = False
    return jlag


def torus_symbol(problem: SchrodingerProblem, method: str = "multiplier") -> np.ndarray:
    """Real symbol of the form operator at the rfft frequencies xi_k = pi k / L.

    'multiplier' is log(1 + xi_k^alpha).  'jump_kernel' is the Fourier image of
    the double sum 0.5 h^2 sum_{i,l} J_l (u_i - u_{i+l})(v_i - v_{i+l}),
    S_k = h (sum_l J_l - Re Jhat_k), with J_l = j_per(l h) at lags l = 1..N-1,
    J_0 = 0 and Jhat = rfft(J); S_0 = 0 exactly.  j_per folds j(n h) over
    n = +-l mod N, the outermost period at half weight, so J_l = J_(N-l) and
    Jhat is real.  The |x_i - x_l| < 2h band is replaced by the
    small-displacement integral of the kernel's 1/|z| asymptote,
    int_{|z|<2h} 0.5 (c0/|z|) z^2 dz = 2 c0 h^2, on one-sided differences:
    J_1 = J_{N-1} = 2 c0 / h.
    """
    if method == "multiplier":
        return np.log1p(problem.domain.rfft_freqs() ** problem.spec.alpha)
    if method != "jump_kernel":
        raise ConfigError(f"method must be 'multiplier' or 'jump_kernel', got {method!r}")
    h = problem.domain.h
    jlag = _periodized_jump_lags(problem.spec, problem.domain).copy()
    jlag[1] = jlag[-1] = 2.0 * small_x_constant(problem.spec) / h
    jhat = np.fft.rfft(jlag).real
    return h * (jhat[0] - jhat)


def apply_generator(problem: SchrodingerProblem, u) -> np.ndarray:
    """Spectral application of the nonnegative form operator, multiplier log(1+|xi|^alpha).

    Linear, self-adjoint, positive semidefinite; constants are its kernel.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.domain.N,):
        raise ConfigError(f"u must have length {problem.domain.N}")
    return _spectral_apply(torus_symbol(problem), u)


def generator_matrix(problem: SchrodingerProblem) -> np.ndarray:
    """Dense circulant matrix of the multiplier log(1 + |xi|^alpha) on the grid: C_ij = c_(i-j mod N)."""
    N = problem.domain.N
    column = np.fft.irfft(torus_symbol(problem), n=N)
    return column[np.subtract.outer(np.arange(N), np.arange(N)) % N]


def _spectral_apply(symbol: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Circulant operator with the given real symbol at the rfft frequencies, applied to u."""
    return np.fft.irfft(symbol * np.fft.rfft(u), n=u.size)


def energy_form(problem: SchrodingerProblem, u, v, method: str = "multiplier") -> float:
    """Dirichlet form E(u, v) = h (S u) . v, S = torus_symbol(problem, method)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    N = problem.domain.N
    if u.shape != (N,) or v.shape != (N,):
        raise ConfigError(f"u and v must have length {N}")
    symbol = torus_symbol(problem, method)
    return float(problem.domain.h * (_spectral_apply(symbol, u) @ v))


def irreducibility_cross_term(problem: SchrodingerProblem, subset, u) -> float:
    """Cross energy E(1_A u, 1_{A^c} u) = -h^2 sum_{i in A, l in A^c} u_i u_l j_per(x_i - x_l).

    The lattice double sum, computed as the lag table dotted with the
    symmetrized circular correlation of the two masked vectors.  Strictly
    negative for nonempty proper subsets (the kernel is positive).
    """
    u = np.asarray(u, dtype=float)
    N = problem.domain.N
    if u.shape != (N,):
        raise ConfigError(f"u must have length {N}")
    if np.any(u <= 0):
        raise ConfigError("u must be strictly positive at every node")
    mask = np.zeros(N, dtype=bool)
    mask[np.asarray(subset)] = True
    a = np.where(mask, u, 0.0)
    b = np.where(mask, 0.0, u)
    h = problem.domain.h
    jlag = _periodized_jump_lags(problem.spec, problem.domain)
    # sum_i a_i (b_{i+l} + b_{i-l}) / 2 at lags l = 0..N-1
    corr = np.fft.irfft((np.conj(np.fft.rfft(a)) * np.fft.rfft(b)).real, n=N)
    return -h * h * float(jlag @ corr)


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
    corrected_nodes: int  # mu_plus nodes the CG preconditioner holds exactly; 0 if dense
    residual_history: list[float]  # pencil residual after each outer iteration

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
            "corrected_nodes": self.corrected_nodes,
            "residual_history": self.residual_history,
            "normalization_check": self.normalization_check,
            "h": [float(v) for v in self.h],
            "seed": None,  # the solve draws nothing; the key keeps the file's layout
        }


def _finalize(problem, lam, vec, residual, iterations, cg_iterations, corrected_nodes,
              residual_history):
    wm = problem.mu_minus.weights
    norm2 = float(vec @ (wm * vec))
    hvec = vec / np.sqrt(norm2)
    if float(hvec @ wm) < 0:
        hvec = -hvec
    return GroundStateResult(
        lambda_=float(lam), h=hvec, residual=float(residual),
        iterations=int(iterations),
        normalization_check=float(hvec @ (wm * hvec)),
        cg_iterations=int(cg_iterations), corrected_nodes=int(corrected_nodes),
        residual_history=[float(r) for r in residual_history])


# inexact inverse iteration (Golub & Ye 2000): each inner CG solve is asked for
# a relative residual of _INNER_RTOL_FACTOR times the last outer pencil
# residual, clipped to [_INNER_RTOL_MIN, _INNER_RTOL_MAX]
_INNER_RTOL_FACTOR = 0.1
_INNER_RTOL_MIN = 1e-13
_INNER_RTOL_MAX = 1e-2


def _corrected_rank(N: int) -> int:
    """r = floor(2 sqrt(N)): how many of mu_plus's nodes the preconditioner holds exactly."""
    return math.isqrt(4 * N)


def _capacitance_preconditioner(h_psi: np.ndarray, wp: np.ndarray):
    """M^(-1) for M = h H + wbar (I - P_R^T P_R) + P_R^T W_R P_R, and |R|.

    R is the r = _corrected_rank(N) heaviest nodes of w+ (all of its support
    when that is smaller) and wbar the mass outside R over N, so M = h H + W+
    whenever R covers the support.  M is the circulant C = h H + wbar I, its
    zero mode lifted by tau = sum(w+), plus the rank |R| + 1 update U D U^T
    with U = [P_R^T, 1/sqrt(N)] and D = diag(W_R - wbar, -tau); the Woodbury
    identity inverts it (capacitance matrices, Buzbee, Dorr, George & Golub
    1971).  The capacitance matrix I + D U^T C^(-1) U is gathered from one
    column of C^(-1) and inverted once, by np.linalg.inv; each application
    is two FFT pairs and one matrix-vector product of order |R| + 1.  On one
    OpenBLAS thread of a 2-core Xeon, at order 129 the inverse takes 0.49 ms
    against 0.10 ms for scipy's lu_factor, but a product takes 3.1 us against
    15.3 us for lu_solve, and M^(-1) is applied once per CG step; at order
    257 (N = 16384) the inverse takes 2.9 ms against 0.55 ms.
    """
    N = wp.size
    support = np.flatnonzero(wp)
    rank = _corrected_rank(N)
    if support.size > rank:
        support = support[np.argsort(-wp[support], kind="stable")[:rank]]
    outside = wp.copy()
    outside[support] = 0.0
    wbar = float(outside.sum()) / N
    tau = float(wp.sum())
    symbol = h_psi + wbar
    symbol[0] += tau
    inv_symbol = 1.0 / symbol
    col = np.fft.irfft(inv_symbol, n=N)
    m = support.size
    root_n = math.sqrt(N)
    gram = np.empty((m + 1, m + 1))  # U^T C^(-1) U; C^(-1) 1 = inv_symbol[0] 1
    gram[:m, :m] = col[(support[:, None] - support[None, :]) % N]
    gram[:m, m] = gram[m, :m] = inv_symbol[0] / root_n
    gram[m, m] = inv_symbol[0]
    d = np.append(wp[support] - wbar, -tau)
    capacitance_inv = np.linalg.inv(np.eye(m + 1) + d[:, None] * gram)

    def apply(v):
        t = _spectral_apply(inv_symbol, v)
        q = capacitance_inv @ (d * np.append(t[support], t.sum() / root_n))
        update = np.full(N, q[m] / root_n)
        update[support] += q[:m]
        return t - _spectral_apply(inv_symbol, update)

    return apply, m


def cg(matvec, b, *, atol: float, maxiter: int, M, callback=None):
    """Preconditioned conjugate gradients for A x = b from x = 0.

    matvec applies the symmetric positive definite A and M the preconditioner
    M^(-1).  It stops once ||b - A x|| < atol and returns (x, 0), or
    (x, maxiter) when maxiter steps fall short; callback(x) follows each
    step.  The arithmetic is scipy.sparse.linalg.cg's (scipy 1.17), so both
    take the same iterates and the same number of steps.
    """
    x = np.zeros(b.size)
    if not b.any():
        return x, 0
    r = b.copy()
    p = rho_prev = None
    for _ in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = M(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        step = rho / np.dot(p, q)
        x += step * p
        r -= step * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def solve_ground_state(problem: SchrodingerProblem, tol: float = 1e-10,
                       max_iter: int = 800) -> GroundStateResult:
    """Principal eigenpair by inexact inverse iteration, inverse-free on the singular side.

    Iterates v <- (h H + W+)^(-1) W- v; the definite side h H + W+ is invertible
    because mu_plus is non-trivial.  Each solve is conjugate gradients with the
    multiplier applied spectrally, O(N log N) per CG step, preconditioned by
    h H + W+ itself on the r = floor(2 sqrt(N)) heaviest nodes of mu_plus and by
    the mean of the rest elsewhere (_capacitance_preconditioner, whose small
    capacitance matrix is inverted once per call).  When mu_plus
    has at most r nodes the preconditioner is exact and every solve takes one
    CG step; otherwise the step count does not grow with N.  After the first,
    a solve finds the correction to v / lambda, the fixed point, whose
    right-hand side is the scaled pencil residual, and stops at a residual of
    rtol ||W- v||, rtol tied to the last outer residual (Golub & Ye 2000), so
    late solves take a few steps.
    Convergence is declared on the exactly computed pencil residual
    ||(h H + W+) v - lambda W- v|| / ||v|| < tol; the result's cg_iterations
    counts the inner steps and residual_history holds one pencil residual per
    outer iteration.
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

    precond, corrected = _capacitance_preconditioner(h * psi, wp)
    x = (wm > 0).astype(float)
    x /= np.linalg.norm(x)
    start = np.zeros(N)  # warm start of the next solve
    a_start = np.zeros(N)  # (h H + W+) start, known from the last outer step
    residual = np.inf
    history = []
    rtol = _INNER_RTOL_MAX
    cg_steps = 0

    def count_step(_xk):
        nonlocal cg_steps
        cg_steps += 1

    for it in range(1, max_iter + 1):
        y = wm * x
        correction, info = cg(a_apply, y - a_start, atol=rtol * float(np.linalg.norm(y)),
                              maxiter=40 * N, M=precond, callback=count_step)
        z = start + correction
        nz = np.linalg.norm(z)
        if info != 0 or nz == 0.0:
            raise ConvergenceError(f"inner CG solve failed at iteration {it}", residual=residual)
        z = z / nz
        az = a_apply(z)
        bz = wm * z
        theta = float(z @ bz) / float(z @ az)
        lam = 1.0 / theta
        residual = float(np.linalg.norm(az - lam * bz))
        history.append(residual)
        x = z
        if residual < tol:
            return _finalize(problem, lam, z, residual, it, cg_steps, corrected, history)
        # the next solve starts at the fixed point z / lam, whose CG residual is
        # rel ||W- z||; asking for a tenth of it keeps every solve doing work
        rel = residual / (lam * float(np.linalg.norm(bz)))
        rtol = min(_INNER_RTOL_MAX, max(_INNER_RTOL_MIN, _INNER_RTOL_FACTOR * rel))
        start, a_start = z / lam, az / lam
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
    of weight 1e-9.  scipy's generalized eigh, which numpy lacks, is imported
    here, not at start-up.
    """
    from scipy.linalg import eigh

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
    return _finalize(problem, lam, q @ coef, residual, 0, 0, 0, [])


# ---------------------------------------------------------------------------
# Feynman-Kac and Kato diagnostics

_FK_BATCH = 100_000  # paths per Feynman-Kac batch; the result depends on the batch plan


def _rho_lookup(domain: GridDomain, weights: np.ndarray):
    """rho_into(x, out, scratch): density of mu_plus at the node nearest x, into out.

    Allocation-free: positions are clipped to node indices -1..N, and both ends
    read the zero appended to the table (take wraps -1 onto index N).  scratch
    is a float buffer of x's shape, reused for the indices.
    """
    table = np.append(weights / domain.h, 0.0)

    def rho_into(x, out, scratch):
        np.add(x, domain.L, out=out)
        out /= domain.h
        np.rint(out, out=out)
        np.clip(out, -1.0, domain.N, out=out)
        idx = scratch.view(np.intp)
        np.copyto(idx, out, casting="unsafe")
        np.take(table, idx, out=out, mode="wrap")

    return rho_into


def _as_function(domain: GridDomain, f):
    if callable(f):
        return f
    vals = np.asarray(f, dtype=float)
    if vals.shape != (domain.N,):
        raise ConfigError(f"f must be callable or a vector of length {domain.N}")
    nodes = domain.nodes()
    return lambda x: np.interp(x, nodes, vals, left=0.0, right=0.0)


def feynman_kac_estimate(problem: SchrodingerProblem, f, x0: float, t: float,
                         n_paths: int, dt: float, rng: RngStream, *,
                         rho=None, free_mean=None):
    """Monte Carlo for E_x0[ exp(-int_0^t rho(X_s) ds) f(X_t) ].

    Paths advance by exact subordinated increments (no time-discretization of
    the process itself); the only bias is the trapezoid quadrature of the clock
    integral, dt (rho(x_0)/2 + rho(x_1) + ... + rho(x_(n-1)) + rho(x_n)/2),
    O(dt^2).  rho defaults to the density of mu_plus; an explicit callable
    overrides it and may return a scalar (rho=lambda z: 0.0 is free).

    The walk is event-driven (`stable_kernel._walk_into`): a step whose
    Gamma(dt) clock has log G < L(x) = min(alpha log|x| + C, -53 log 2)
    cannot move x by a quarter of its float spacing, whatever the angle and
    exponential of its Chambers-Mallows-Stuck draw, so x stays put.  Each
    path draws the geometric number of such still steps before its next
    event, adds rho(x) dt for each of them and for the event step, and at
    the event takes one increment with log G drawn conditioned on
    log G >= L(x).  That is the same estimator, exact in law, with rho
    looked up once per event: at dt = 1/256 about a third of the steps are
    events.  At x = 0, alpha in {1, 2} or dt >= 1 every step is an event.
    The walk sums the left endpoints; once it ends, the same worker thread
    adds each path's trapezoid endpoint term (dt/2)(rho(x_n) - rho(x_0)),
    one lookup per path, with rho(x_n) written into the walk's scratch.

    The paths are cut into batches of min(_FK_BATCH, ceil(n_paths/2)), so
    every call has at least two batches and n_paths >= 2 _FK_BATCH keeps
    batches of _FK_BATCH.  They run in parallel, one thread per usable core
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
    if not 0 < dt <= t < math.inf:
        raise ConfigError(f"need 0 < dt <= t < inf, got dt={dt}, t={t}")
    steps = round(t / dt)
    if abs(steps * dt - t) > 1e-9 * t:
        raise ConfigError(f"t/dt must be an integer, got t={t}, dt={dt}")
    if n_paths < 2:
        raise ConfigError(f"need n_paths >= 2, got {n_paths}")
    if not math.isfinite(x0):
        raise ConfigError(f"x0 must be finite, got {x0}")
    if rho is None:
        rho_into = _rho_lookup(problem.domain, problem.mu_plus.weights)
    else:
        def rho_into(z, out, _):
            np.copyto(out, rho(z))
    f_of = _as_function(problem.domain, f)
    alpha = problem.spec.alpha
    rho_x0 = np.empty(1)
    rho_into(np.full(1, float(x0)), rho_x0, np.empty(1))

    def walk(gen, x, clock, scratch):
        _walk_into(alpha, dt, steps, gen, x, clock, rho_into, scratch)
        end, idx = scratch[:x.size], scratch[x.size:2 * x.size]  # scratch holds >= 2 x.size
        rho_into(x, end, idx)
        end -= rho_x0[0]
        end *= 0.5 * dt
        clock += end  # the left-point sum becomes the trapezoid sum

    total = 0.0
    total_sq = 0.0
    cv_sums = np.zeros(3)  # sums of g, g^2 and Y g with g = f(X_t) - free_mean

    def finish(x, clock, future):
        nonlocal total, total_sq, cv_sums
        future.result()
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

    batch = min(_FK_BATCH, -(-n_paths // 2))  # at least two batches, for two cores
    n_batches = -(-n_paths // batch)
    streams = rng.split(n_batches)
    workers = min(n_batches, _usable_cores())
    running = deque()
    with ThreadPoolExecutor(workers) as pool:
        for i, stream in enumerate(streams):
            if len(running) == workers:
                finish(*running.popleft())
            # the batch's buffers are made in the calling thread, so they come
            # from its heap, where later temporaries can reuse them
            x = np.full(min(batch, n_paths - i * batch), float(x0))
            clock = np.zeros(x.size)
            future = pool.submit(walk, stream.gen, x, clock, _walk_scratch(alpha, dt, x.size))
            running.append((x, clock, future))
            del x, clock, future  # the window alone holds them, so finish releases them
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


def kato_diagnostic(problem: SchrodingerProblem, t_values):
    """sup_x int_0^t (P_s rho)(x) ds for each t, by spectral exponentials.

    The time integral of the semigroup has multiplier (1 - e^(-t psi))/psi
    (with value t at the zero frequency), applied to the density of mu_plus.
    For a bounded density the values are bounded by t * sup rho and decrease
    to zero with t.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or t_values.size == 0:
        raise ConfigError("t_values must be a nonempty 1-d sequence")
    if not np.all((t_values > 0) & (t_values < np.inf)):
        raise ConfigError("t_values must be positive and finite")
    if t_values.size > 1 and np.any(np.diff(t_values) >= 0):
        raise ConfigError("t_values must be strictly decreasing")
    rho = problem.mu_plus.weights / problem.domain.h
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
