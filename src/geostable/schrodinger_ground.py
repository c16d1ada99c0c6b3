"""Ground states of the log-symbol Schroedinger operator in the recurrent case.

The line is truncated to a torus of half-width L with N equispaced nodes; the
nonlocal generator acts spectrally through the multiplier log(1 + |xi_k|^alpha)
at the discrete frequencies xi_k = pi k / L.  The variational problem

    lambda = inf { E(u,u) + int u^2 dmu_plus : int u^2 dmu_minus = 1 }

becomes the generalized eigenproblem (h H + W+) v = lambda W- v with diagonal
weight matrices; since W- is singular on the complement of its support, the
solver runs power iteration on (h H + W+)^(-1) W- (the definite side is
inverted by conjugate gradients with the multiplier applied spectrally) and a
dense eigensolve of the same matrices is available as an independent check.

The energy form is assembled two ways: the spectral multiplier form, and the
Beurling-Deny double sum over node pairs with the periodized jump kernel
j_per(z) = sum_m j(z + 2Lm).  On the torus the two coincide in the continuum:
cos(xi_k z) is 2L-periodic, so the periodized kernel reproduces the original
multiplier exactly at the grid frequencies.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import circulant, eigh
from scipy.sparse.linalg import LinearOperator, cg

from .errors import ConsistencyError, ConvergenceError
from .levy_structure import k_radial, small_x_constant
from .process_core import ProcessSpec, RecurrenceClass, classify_recurrence
from .stable_kernel import RngStream, sample_increment


@dataclass(frozen=True)
class GridDomain:
    """Periodic grid on [-L, L): nodes x_i = -L + i h, frequencies pi k / L."""

    L: float
    N: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        n = int(self.N)
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 64, got {self.N}")
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
            raise ValueError(f"weights must have length {self.domain.N}")
        if np.any(w < 0):
            raise ValueError("measure weights must be nonnegative")
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
    def from_density(cls, domain: GridDomain, rho) -> "MeasureOnGrid":
        vals = np.asarray([rho(x) for x in domain.nodes()], dtype=float)
        return cls(domain, vals * domain.h)

    @classmethod
    def from_profile(cls, domain: GridDomain, profile: str, center: float = 0.0,
                     half_width: float = 1.0, height: float = 1.0) -> "MeasureOnGrid":
        """Named bump: 'indicator', 'gaussian' (scale = half_width) or 'triangle'."""
        if half_width <= 0 or height < 0:
            raise ValueError("half_width must be positive and height nonnegative")
        x = domain.nodes()
        z = (x - center) / half_width
        if profile == "indicator":
            rho = height * (np.abs(z) <= 1.0)
        elif profile == "gaussian":
            rho = height * np.exp(-z ** 2)
        elif profile == "triangle":
            rho = height * np.maximum(0.0, 1.0 - np.abs(z))
        else:
            raise ValueError(f"unknown profile {profile!r}")
        return cls(domain, rho * domain.h)

    @classmethod
    def from_csv(cls, domain: GridDomain, path) -> "MeasureOnGrid":
        """Read rows (x, weight); each weight lands on the nearest grid node."""
        w = np.zeros(domain.N)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [c.strip().lower() for c in header[:2]] != ["x", "weight"]:
                raise ValueError("measure CSV must have header x,weight")
            for row in reader:
                if not row:
                    continue
                x, weight = float(row[0]), float(row[1])
                idx = int(round((x + domain.L) / domain.h))
                if not (0 <= idx < domain.N):
                    raise ValueError(f"measure point x={x} falls outside the grid")
                w[idx] += weight
        return cls(domain, w)

    def to_csv(self, path) -> None:
        nodes = self.domain.nodes()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "weight"])
            for x, wv in zip(nodes, self.weights):
                writer.writerow([repr(float(x)), repr(float(wv))])


@dataclass
class SchrodingerProblem:
    """Recurrent-case eigenproblem data: process, torus grid, and both measures."""

    spec: ProcessSpec
    domain: GridDomain
    mu_plus: MeasureOnGrid
    mu_minus: MeasureOnGrid

    def __post_init__(self):
        if self.spec.dim != 1:
            raise ValueError("the ground-state solver is one-dimensional")
        if classify_recurrence(self.spec) is not RecurrenceClass.RECURRENT:
            raise ValueError("ground states require the recurrent regime alpha >= dim")
        for name, mu in (("mu_plus", self.mu_plus), ("mu_minus", self.mu_minus)):
            if mu.domain != self.domain:
                raise ValueError(f"{name} lives on a different grid")
            if not mu.nontrivial:
                raise ValueError(f"{name} must be non-trivial (total mass > 1e-14)")
            if mu.support_radius() > self.domain.L / 4.0 + 1e-12:
                raise ValueError(
                    f"{name} support radius {mu.support_radius():.3g} exceeds L/4; "
                    "enlarge the domain")


def _multiplier(problem_or_domain, alpha=None):
    domain = problem_or_domain.domain if isinstance(problem_or_domain, SchrodingerProblem) else problem_or_domain
    a = problem_or_domain.spec.alpha if alpha is None else alpha
    return np.log1p(domain.rfft_freqs() ** a)


def apply_generator(problem: SchrodingerProblem, u) -> np.ndarray:
    """Spectral application of the nonnegative form operator, multiplier log(1+|xi|^alpha).

    Linear, self-adjoint, positive semidefinite; constants are its kernel.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.domain.N,):
        raise ValueError(f"u must have length {problem.domain.N}")
    return np.fft.irfft(_multiplier(problem) * np.fft.rfft(u), n=problem.domain.N)


# ---------------------------------------------------------------------------
# jump-kernel assembly

_JLAG_CACHE: dict = {}


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


def _lag_sum(u, v, lag):
    du = u - np.roll(u, -lag)
    dv = v - np.roll(v, -lag)
    return float(du @ dv)


def energy_form(problem: SchrodingerProblem, u, v, method: str = "multiplier", *,
                near_diagonal: str = "patch", fold_m: int = 64) -> float:
    """Dirichlet form E(u, v), by spectral multiplier or jump-kernel double sum.

    The jump route sums (u_i - u_l)(v_i - v_l) * 0.5 j_per(x_i - x_l) h^2 over
    node pairs.  near_diagonal='patch' replaces the |x_i - x_l| < 2h band
    (adjacent pairs) by the small-displacement integral of the kernel's
    1/|z| asymptote, int_{|z|<2h} 0.5 (c0/|z|) z^2 dz = 2 c0 h^2, applied to
    one-sided differences; 'lattice' keeps the raw lag-1 kernel values, which
    is what makes the indicator cross-term identity exact.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    N = problem.domain.N
    if u.shape != (N,) or v.shape != (N,):
        raise ValueError(f"u and v must have length {N}")
    if method == "multiplier":
        return float(problem.domain.h * (apply_generator(problem, u) @ v))
    if method != "jump_kernel":
        raise ValueError(f"method must be 'multiplier' or 'jump_kernel', got {method!r}")
    h = problem.domain.h
    jlag = _periodized_jump_lags(problem.spec, problem.domain, fold_m)
    if near_diagonal == "patch":
        lags = range(2, N - 1)
        c0 = small_x_constant(problem.spec)
        du = u - np.roll(u, -1)
        dv = v - np.roll(v, -1)
        band = 2.0 * c0 * h * float(du @ dv)
    elif near_diagonal == "lattice":
        lags = range(1, N)
        band = 0.0
    else:
        raise ValueError(f"near_diagonal must be 'patch' or 'lattice', got {near_diagonal!r}")
    total = 0.0
    for lag in lags:
        total += jlag[lag - 1] * _lag_sum(u, v, lag)
    return 0.5 * h * h * total + band


def irreducibility_cross_term(problem: SchrodingerProblem, subset, u) -> float:
    """Cross energy E(1_A u, 1_{A^c} u) with its exact double-sum identity.

    Computed once through the bilinear jump form on the masked vectors and
    once as -sum_{i in A, l in A^c} u_i u_l j_per(x_i - x_l) h^2; the two are
    algebraically identical on the lattice and must agree to 1e-10 relative.
    Strictly negative for nonempty proper subsets (the kernel is positive).
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
    jlag = _periodized_jump_lags(problem.spec, problem.domain, 64)
    direct = 0.0
    fa = mask.astype(float) * u
    fb = (~mask).astype(float) * u
    for lag in range(1, N):
        direct += jlag[lag - 1] * float(fa @ np.roll(fb, -lag) + fb @ np.roll(fa, -lag))
    direct *= -0.5 * h * h
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

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.lambda_ <= 1e-12:
            raise ConsistencyError(f"principal eigenvalue must be positive, got {self.lambda_}")
        if abs(self.normalization_check - 1.0) > 1e-10:
            raise ConsistencyError(
                f"constraint sum h^2 w_minus = 1 violated: {self.normalization_check}")
        if self.h.size and float(self.h.min()) < -1e-8 * float(np.abs(self.h).max()):
            raise ConsistencyError("ground state is not positive up to numerical noise")

    def to_dict(self, problem: SchrodingerProblem | None = None, seed=None) -> dict:
        out = {
            "lambda": self.lambda_,
            "residual": self.residual,
            "iterations": self.iterations,
            "normalization_check": self.normalization_check,
            "h": [float(v) for v in self.h],
            "seed": seed,
        }
        if problem is not None:
            out.update({
                "alpha": problem.spec.alpha,
                "L": problem.domain.L,
                "N": problem.domain.N,
                "mu_plus": problem.mu_plus.describe(),
                "mu_minus": problem.mu_minus.describe(),
            })
        return out

    def to_json(self, path=None, problem=None, seed=None) -> str:
        text = json.dumps(self.to_dict(problem, seed), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def to_csv(self, path, domain: GridDomain) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "h"])
            for x, v in zip(domain.nodes(), self.h):
                writer.writerow([repr(float(x)), repr(float(v))])


def _pencil_parts(problem: SchrodingerProblem):
    psi = _multiplier(problem)
    h = problem.domain.h
    wp = problem.mu_plus.weights
    wm = problem.mu_minus.weights
    N = problem.domain.N

    def a_apply(v):
        return h * np.fft.irfft(psi * np.fft.rfft(v), n=N) + wp * v

    return a_apply, wp, wm, psi


def _finalize(problem, lam, vec, residual, iterations):
    wm = problem.mu_minus.weights
    norm2 = float(vec @ (wm * vec))
    hvec = vec / np.sqrt(norm2)
    if float(hvec @ wm) < 0:
        hvec = -hvec
    return GroundStateResult(
        lambda_=float(lam), h=hvec, residual=float(residual),
        iterations=int(iterations),
        normalization_check=float(hvec @ (wm * hvec)))


def solve_ground_state(problem: SchrodingerProblem, tol: float = 1e-10,
                       max_iter: int = 800) -> GroundStateResult:
    """Power iteration for the principal eigenpair, inverse-free on the singular side.

    Iterates v <- (h H + W+)^(-1) W- v with conjugate-gradient solves (the
    multiplier is applied spectrally, so each solve is O(N log N) per CG step);
    the definite side h H + W+ is invertible because mu_plus is non-trivial.
    Convergence is declared on the pencil residual
    ||(h H + W+) v - lambda W- v|| / ||v|| < tol.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    a_apply, wp, wm, psi = _pencil_parts(problem)
    N = problem.domain.N
    h = problem.domain.h
    a_op = LinearOperator((N, N), matvec=a_apply, dtype=float)
    diag = h * float(psi.mean()) + wp
    precond = LinearOperator((N, N), matvec=lambda v: v / diag, dtype=float)
    x = (wm > 0).astype(float)
    x /= np.linalg.norm(x)
    z = x.copy()
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = wm * x
        z, info = cg(a_op, y, x0=z, rtol=1e-13, atol=0.0, maxiter=40 * N, M=precond)
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
            return _finalize(problem, lam, z, residual, it)
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} iterations",
        residual=residual)


def dense_ground_state(problem: SchrodingerProblem) -> GroundStateResult:
    """Dense generalized eigensolve of the same pencil; the brute-force check.

    Builds the circulant multiplier matrix explicitly and solves
    W- v = theta (h H + W+) v with a full symmetric eigendecomposition.
    """
    domain = problem.domain
    N = domain.N
    psi = _multiplier(problem)
    col = np.fft.irfft(psi, n=N)
    h_dense = circulant(col)
    a_mat = domain.h * h_dense + np.diag(problem.mu_plus.weights)
    a_mat = 0.5 * (a_mat + a_mat.T)
    b_mat = np.diag(problem.mu_minus.weights)
    theta, vecs = eigh(b_mat, a_mat)
    idx = int(np.argmax(theta))
    lam = 1.0 / float(theta[idx])
    vec = vecs[:, idx]
    az = a_mat @ vec
    residual = float(np.linalg.norm(az - lam * (problem.mu_minus.weights * vec))
                     / np.linalg.norm(vec))
    return _finalize(problem, lam, vec, residual, 0)


# ---------------------------------------------------------------------------
# Feynman-Kac and Kato diagnostics

def _rho_lookup(domain: GridDomain, weights: np.ndarray):
    rho = weights / domain.h

    def rho_of(x):
        idx = np.rint((np.asarray(x) + domain.L) / domain.h).astype(int)
        ok = (idx >= 0) & (idx < domain.N)
        out = np.zeros(np.shape(x))
        out[ok] = rho[idx[ok]]
        return out

    return rho_of


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
    clock integral, O(dt).  rho defaults to the density of mu_plus; pass an
    explicit callable (for instance the zero function) to override.  Batches
    use split substreams, so the result depends only on seed and batch plan.

    free_mean, when given, is the exact mean E_x0[f(X_t)] of the unkilled
    process.  f(X_t) then serves as a control variate: the estimate is the mean
    of Z = e^(-clock) f(X_t) - c (f(X_t) - free_mean), with the variance-optimal
    c = cov(Y, f)/var(f) taken from the same paths (Glasserman, Monte Carlo
    Methods in Financial Engineering, 4.1).  Without it the plain mean of
    Y = e^(-clock) f(X_t) is returned.

    Returns (mean, standard_error).
    """
    if t <= 0 or dt <= 0 or dt > t:
        raise ValueError("need 0 < dt <= t")
    steps = round(t / dt)
    if abs(steps * dt - t) > 1e-9 * t:
        raise ValueError("t/dt must be an integer")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rho_of = _rho_lookup(problem.domain, problem.mu_plus.weights) if rho is None else rho
    f_of = _as_function(problem.domain, f)
    n_batches = int(np.ceil(n_paths / batch_size))
    streams = rng.split(n_batches)
    total = 0.0
    total_sq = 0.0
    cv_sums = np.zeros(3)  # sums of g, g^2 and Y g with g = f(X_t) - free_mean
    done = 0
    for stream in streams:
        nb = min(batch_size, n_paths - done)
        x = np.full(nb, float(x0))
        clock = np.zeros(nb)
        for _ in range(steps):
            clock += dt * rho_of(x)
            x = x + sample_increment(problem.spec, dt, stream, size=nb)
        fx = f_of(x)
        vals = np.exp(-clock) * fx
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        if free_mean is not None:
            g = fx - free_mean
            cv_sums += (g.sum(), g @ g, vals @ g)
        done += nb
    mean = total / n_paths
    if free_mean is None:
        var = max(total_sq / n_paths - mean ** 2, 0.0) * n_paths / max(n_paths - 1, 1)
        return mean, float(np.sqrt(var / n_paths))
    g_mean = cv_sums[0] / n_paths
    s_yy = total_sq - n_paths * mean ** 2
    s_gg = cv_sums[1] - n_paths * g_mean ** 2
    s_yg = cv_sums[2] - n_paths * mean * g_mean
    c = s_yg / s_gg if s_gg > 0 else 0.0
    # sum of (Z - Zbar)^2 = s_yy - 2 c s_yg + c^2 s_gg = s_yy - c s_yg at the optimal c
    var = max(s_yy - c * s_yg, 0.0) / max(n_paths - 1, 1)
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
        raise ValueError("t_values must be a nonempty 1-d sequence")
    if np.any(t_values <= 0):
        raise ValueError("t_values must be positive")
    if t_values.size > 1 and np.any(np.diff(t_values) >= 0):
        raise ValueError("t_values must be strictly decreasing")
    measure = problem.mu_plus if mu is None else mu
    rho = measure.weights / problem.domain.h
    rho_hat = np.fft.rfft(rho)
    psi = _multiplier(problem)
    out = []
    for t in t_values:
        mult = np.empty_like(psi)
        nz = psi > 0
        mult[nz] = (1.0 - np.exp(-t * psi[nz])) / psi[nz]
        mult[~nz] = t
        g = np.fft.irfft(mult * rho_hat, n=problem.domain.N)
        out.append(float(g.max()) if g.size else 0.0)
    return out
