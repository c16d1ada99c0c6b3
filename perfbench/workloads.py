"""The four benchmark sessions: jobs, and the oracle that checks each job.

A job is one library call (or one short loop of calls) whose time counts
toward the session's wall time.  `keep` turns the output into what the check
needs, right after the timed call, so that large arrays are not held for the
whole session.  Checks run after the last job: several oracles build stable
profiles, and running them between jobs would warm caches that the jobs are
meant to find cold.

Every check compares against a route that is independent of the one it
checks: closed forms, scipy's own stable law, the gamma-mixture density, a
dense eigensolve, the matrix exponential, or an a-posteriori residual computed
here with an operator built from the definition.  Monte Carlo tolerances are
at least 5 standard errors, so the failed-job count does not depend on the
seed.  Jobs marked `known_defect` fail at the time of writing and are counted
as failures like any other job.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy import integrate, special
from scipy.linalg import eigh, expm

from geostable import (acceptance, cli, levy_structure as ls, process_core,
                       schrodinger_ground as sg, stable_kernel as sk,
                       transition_density as td)

Spec = process_core.ProcessSpec


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]
    keep: Callable[[Any], Any] = lambda out: out
    known_defect: str | None = None
    # (attempted, failed) for a job that stands for several checks
    tally: Callable[[Any], tuple] | None = None


def fingerprint(obj) -> str:
    """Stable digest of nested numbers and arrays, to compare outputs across runs."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(str(o.dtype).encode() + str(o.shape).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, dict):
            for k in sorted(o):
                feed(k)
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        elif isinstance(o, (float, np.floating)):
            h.update(repr(float(o)).encode())
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            # result objects (profiles, tables, reports): their fields, not their address
            h.update(type(o).__name__.encode())
            feed(vars(o))
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()[:16]


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) / np.asarray(b) - 1.0)))


def _verdict(err, tol, what):
    return bool(err <= tol), f"{what} {err:.2e} (tol {tol:.0e})"


# ---------------------------------------------------------------------------
# quadrature: cold profiles, k-kernel loops, oscillatory inversion

QUAD_SPECS = [(0.4, 1), (0.7, 1), (0.7, 2), (0.7, 3), (1.5, 1), (1.5, 2), (1.5, 3), (2.0, 1)]
PROFILE_PROBES = np.array([0.0, 0.5, 2.0, 7.0, 30.0])
SELFDECOMP_RADII = np.geomspace(0.01, 10.0, 50)


def _profile_keep(prof):
    return {"tail_start": prof.tail_start, "probe": prof.density(PROFILE_PROBES), "prof": prof}


def _check_profile(alpha, dim):
    def check(kept):
        prof = kept["prof"]
        if dim == 1 and alpha == 2.0:
            ref = (4.0 * np.pi) ** -0.5 * np.exp(-PROFILE_PROBES ** 2 / 4.0)
            return _verdict(_rel(kept["probe"], ref), 1e-12, "rel err vs Gaussian")
        if dim == 1:
            from scipy.stats import levy_stable  # slow import, needed by this workload only
            ref = levy_stable.pdf(PROFILE_PROBES, alpha, 0.0)
            return _verdict(_rel(kept["probe"], ref), 1e-6, "rel err vs scipy levy_stable")
        # d > 1: value at 0 against the closed form, and unit total mass
        q0 = math.gamma(dim / alpha) / (alpha * 2.0 ** (dim - 1) * math.pi ** (dim / 2.0)
                                        * math.gamma(dim / 2.0))
        omega = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        f = lambda u: omega * u ** (dim - 1) * prof.density(u)
        cuts = [0.0, 2.0, prof.tail_start, np.inf]
        mass = sum(integrate.quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-11)[0]
                   for a, b in zip(cuts[:-1], cuts[1:]))
        err = max(abs(kept["probe"][0] / q0 - 1.0), abs(mass - 1.0))
        return _verdict(err, 1e-6, "q(0) and total-mass err")
    return check


def _k_oracle(alpha, dim, r):
    """k(r) = alpha int u^(d-1) q_1(u) exp(-(r/u)^alpha) du by adaptive quadrature."""
    prof = sk.radial_profile(alpha, dim)
    f = lambda u: alpha * u ** (dim - 1) * prof.density(u) * math.exp(-(r / u) ** alpha)
    lo, ts = r * 690.0 ** (-1.0 / alpha), prof.tail_start
    cuts = sorted({lo, min(r, ts), ts})
    parts = list(zip(cuts[:-1], cuts[1:])) + [(ts, np.inf)]
    return sum(integrate.quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-11)[0] for a, b in parts)


def _check_selfdecomp(alpha, dim):
    def check(table):
        if not table.monotone_certificate:
            return False, "monotone certificate is False"
        if (alpha, dim) == (2.0, 1):
            return _verdict(_rel(table.values, np.exp(-SELFDECOMP_RADII)), 1e-8, "rel err vs e^-r")
        idx = [0, 25, 49]
        ref = [_k_oracle(alpha, dim, SELFDECOMP_RADII[i]) for i in idx]
        return _verdict(_rel(table.values[idx], ref), 1e-7, "rel err vs adaptive quad")
    return check


def _annulus_mass_oracle(alpha):
    """J(0.1 < |x| < 10) = int_0^inf e^-s/s P(0.1 < |X_s| < 10) ds, d = 1, scipy stable law."""
    if alpha == 2.0:
        return 2.0 * (special.exp1(0.1) - special.exp1(10.0))
    from scipy.stats import levy_stable
    s, w = sk._panel_nodes(np.geomspace(1e-14, 80.0, 60))
    p = 2.0 * (levy_stable.sf(0.1 * s ** (-1.0 / alpha), alpha, 0.0)
               - levy_stable.sf(10.0 * s ** (-1.0 / alpha), alpha, 0.0))
    return float(np.sum(np.exp(-s) / s * p * w))


def _check_asymptotic(regime):
    def check(rep):
        const = (ls.small_x_constant(rep.spec) if regime is ls.Regime.SMALL_X
                 else ls.large_x_constant(rep.spec))
        # an unconverged report may sit further from the limit, but must say so
        tol = 0.02 if rep.converged else 0.10
        return _verdict(abs(rep.empirical_limit / const - 1.0), tol,
                        f"gap to closed-form constant (converged={rep.converged})")
    return check


def _density_oracle(spec, t, xs):
    """Gamma-mixture density, with the Beta closed form at x = 0."""
    xs = np.asarray(xs, dtype=float)
    r = np.abs(xs) if xs.ndim == 1 else np.linalg.norm(xs, axis=1)
    out = np.empty(r.shape)
    nz = r > 0
    out[nz] = acceptance.density_gamma_mixture(spec, t, r[nz])
    a, d = spec.alpha, spec.dim
    omega = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    beta = math.gamma(d / a) * math.gamma(t - d / a) / math.gamma(t)
    out[~nz] = omega * beta / (a * (2.0 * math.pi) ** d)
    return out


def _check_table(spec, t, x):
    def check(table):
        if spec.alpha == 2.0 and t == 1.0:
            return _verdict(float(np.max(np.abs(table.values - 0.5 * np.exp(-np.abs(x))))),
                            1e-6, "max abs err vs Laplace")
        err = float(np.max(np.abs(table.values - _density_oracle(spec, t, x))))
        return _verdict(err, 1e-8, "max abs err vs gamma mixture")
    return check


def _cdf_oracle(spec, t, xs):
    """1/2 + sign(x) int_0^|x| p, with p from the gamma mixture on GL panels."""
    r = np.abs(xs)
    edges = np.unique(np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 15), r]))
    nodes, w = sk._panel_nodes(edges)
    p = acceptance.density_gamma_mixture(spec, t, nodes)
    panel = (p * w).reshape(-1, sk._GL_X.size).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    half = cum[np.searchsorted(edges, r)]
    return 0.5 + np.sign(xs) * half


def quadrature(seed: int, out_dir: str):
    jobs = []
    for a, d in QUAD_SPECS:
        jobs.append(Job(f"radial_profile:{a}:{d}", lambda a=a, d=d: sk.radial_profile(a, d),
                        _check_profile(a, d), keep=_profile_keep))
    for a, d in QUAD_SPECS:
        jobs.append(Job(f"verify_selfdecomposable:{a}:{d}",
                        lambda a=a, d=d: ls.verify_selfdecomposable(Spec(a, d), 1.0, SELFDECOMP_RADII),
                        _check_selfdecomp(a, d)))
    for a in (1.5, 2.0):
        jobs.append(Job(f"polar_levy_mass:{a}:1", lambda a=a: ls.polar_levy_mass(Spec(a, 1), 0.1, 10.0),
                        lambda m, a=a: _verdict(abs(m / _annulus_mass_oracle(a) - 1.0), 1e-5,
                                                "rel err vs subordination integral")))
    for a, d in ((1.5, 1), (0.7, 2)):
        for regime in (ls.Regime.SMALL_X, ls.Regime.LARGE_X):
            jobs.append(Job(f"asymptotic_report:{regime.value}:{a}:{d}",
                            lambda a=a, d=d, g=regime: ls.asymptotic_report(Spec(a, d), g),
                            _check_asymptotic(regime)))
    radii = np.geomspace(0.1, 8.0, 64)
    jobs.append(Job("levy_density:2.0:1",
                    lambda: np.array([ls.levy_density(Spec(2.0, 1), r) for r in radii]),
                    lambda j: _verdict(_rel(j, np.exp(-radii) / radii), 1e-8, "rel err vs e^-r/r")))
    x = np.linspace(-10.0, 10.0, 201)
    for a, t, defect in ((2.0, 1.0, None), (1.5, 2.0, None),
                         (1.5, 0.7, "valid near-threshold table rejected by the mass guard")):
        spec = Spec(a, 1)
        jobs.append(Job(f"inversion_table:{a}:1:t={t}",
                        lambda spec=spec, t=t: td.inversion_table(spec, t, x),
                        _check_table(spec, t, x), known_defect=defect))
    rr = np.linspace(0.05, 5.0, 20)
    for d in (2, 3):
        spec = Spec(1.5, d)
        pts = np.zeros((rr.size, d))
        pts[:, 0] = rr
        jobs.append(Job(f"density_inversion:1.5:{d}:t=3",
                        lambda spec=spec, pts=pts: np.array([td.density_inversion(spec, 3.0, p) for p in pts]),
                        lambda v, spec=spec, pts=pts: _verdict(
                            float(np.max(np.abs(v - _density_oracle(spec, 3.0, pts)))), 1e-8,
                            "max abs err vs gamma mixture")))
    xc = np.linspace(-10.0, 10.0, 200)
    spec = Spec(1.5, 1)
    jobs.append(Job("cdf_numeric:1.5:1:t=2",
                    lambda: np.array([td.cdf_numeric(spec, 2.0, v) for v in xc]),
                    lambda F: _verdict(float(np.max(np.abs(F[::20] - _cdf_oracle(spec, 2.0, xc[::20])))),
                                       1e-8, "max abs err at 10 points vs integrated gamma mixture")))
    return jobs


# ---------------------------------------------------------------------------
# torus: spectral CG solves, jump-kernel energy, cross terms, Kato diagnostic

TORUS_GRIDS = ((32.0, 1024), (64.0, 4096), (128.0, 16384))


def _problem(alpha, L, N):
    dom = sg.GridDomain(L, N)
    return sg.SchrodingerProblem(
        Spec(alpha, 1), dom,
        sg.MeasureOnGrid.from_profile(dom, "indicator", half_width=1.0, height=0.5),
        sg.MeasureOnGrid.from_profile(dom, "indicator", half_width=2.0, height=1.0))


def _psi(problem):
    """log(1 + |xi|^alpha) at the rfft frequencies, from the definition."""
    dom = problem.domain
    xi = np.pi * np.arange(dom.N // 2 + 1) / dom.L
    return np.log1p(xi ** problem.spec.alpha)


def _apply_h(problem, v):
    return np.fft.irfft(_psi(problem) * np.fft.rfft(v), n=problem.domain.N)


def _pencil_residual(problem, res):
    """||(h H + W+) v - lambda W- v|| / ||v||, H applied by FFT from the definition."""
    v = res.h
    lhs = problem.domain.h * _apply_h(problem, v) + problem.mu_plus.weights * v
    return float(np.linalg.norm(lhs - res.lambda_ * problem.mu_minus.weights * v) / np.linalg.norm(v))


def _check_ground(problem):
    def check(res):
        # a positive eigenvector of this pencil belongs to the principal eigenvalue
        resid = _pencil_residual(problem, res)
        positive = bool(res.h.min() > 0)
        return resid < 1e-9 and positive, f"residual {resid:.2e} (tol 1e-9), positive {positive}"
    return check


def _check_dense(problem):
    def check(res):
        de = sg.dense_ground_state(problem)
        hi = res.h / np.linalg.norm(res.h)
        hd = de.h / np.linalg.norm(de.h)
        lam = abs(res.lambda_ / de.lambda_ - 1.0)
        herr = float(np.linalg.norm(hi - np.sign(hi @ hd) * hd))
        return lam < 1e-8 and herr < 1e-6, f"lambda rel {lam:.1e} (tol 1e-8), h err {herr:.1e} (tol 1e-6)"
    return check


def _multiplier_energy(problem, u):
    """h * u . H u with H applied by FFT from the definition."""
    return float(problem.domain.h * (_apply_h(problem, u) @ u))


def _jump_lags(problem, fold=64, nodes=1400):
    """Periodized j at lags 1..N-1 from the public k_radial (d = 1, j = k/r)."""
    from scipy.interpolate import CubicSpline
    dom = problem.domain
    r = np.geomspace(dom.h / 4.0, 2.0 * dom.L * (fold + 1), nodes)
    j = np.array([ls.k_radial(problem.spec, v) for v in r]) / r
    keep = j > 1e-290
    spline = CubicSpline(np.log(r[keep]), np.log(j[keep]))
    z = np.abs(np.arange(1, dom.N)[:, None] * dom.h
               + 2.0 * dom.L * np.arange(-fold, fold + 1)[None, :])
    inside = z <= r[keep][-1]
    return np.where(inside, np.exp(spline(np.log(np.where(inside, z, 1.0)))), 0.0).sum(axis=1)


def _cross_oracle(problem, subsets, u):
    """-sum_{i in A, l not in A} u_i u_l j_per(x_i - x_l) h^2 by FFT correlation."""
    N, h = problem.domain.N, problem.domain.h
    kern = np.concatenate([[0.0], _jump_lags(problem)])
    out = []
    for subset in subsets:
        mask = np.zeros(N, dtype=bool)
        mask[subset] = True
        a, b = np.where(mask, u, 0.0), np.where(mask, 0.0, u)
        corr = np.fft.irfft(np.conj(np.fft.rfft(a)) * np.fft.rfft(b), n=N)
        out.append(-h * h * float(kern @ corr))
    return np.array(out)


def _check_cross(problem, subsets, u):
    def check(vals):
        if not np.all(vals < 0):
            return False, "cross term not strictly negative"
        return _verdict(_rel(vals, _cross_oracle(problem, subsets, u)), 1e-8,
                        "rel err vs FFT double sum")
    return check


def _dense_generator(problem):
    """Dense circulant matrix of the multiplier log(1 + |xi|^alpha), from the definition."""
    dom = problem.domain
    k = np.arange(dom.N)
    xi = np.pi * np.minimum(k, dom.N - k) / dom.L
    col = np.real(np.fft.ifft(np.log1p(xi ** problem.spec.alpha)))
    return col[(k[:, None] - k[None, :]) % dom.N]


def _kato_oracle(problem, ts):
    """sup_x int_0^t e^(-sH) rho ds from a dense eigendecomposition of H."""
    lam, vec = eigh(_dense_generator(problem))
    rho_hat = vec.T @ problem.mu_plus.density_values()
    out = []
    for t in ts:
        mult = np.where(lam > 1e-12, -np.expm1(-t * np.maximum(lam, 1e-12)) / np.maximum(lam, 1e-12), t)
        out.append(float((vec @ (mult * rho_hat)).max()))
    return np.array(out)


def torus(seed: int, out_dir: str):
    jobs = []
    for alpha in (1.0, 1.5, 2.0):
        for L, N in TORUS_GRIDS:
            prob = _problem(alpha, L, N)
            jobs.append(Job(f"solve_ground_state:{alpha}:{N}",
                            lambda p=prob: sg.solve_ground_state(p, tol=1e-10), _check_ground(prob)))
    ref = acceptance.reference_problem()
    jobs.append(Job("solve_ground_state:reference:256",
                    lambda: sg.solve_ground_state(ref, tol=1e-10), _check_dense(ref)))
    energy = {}
    for alpha, L, N, tag in ((1.5, 64.0, 4096, "cold"), (1.5, 64.0, 4096, "warm"),
                             (1.0, 32.0, 1024, "cold"), (2.0, 32.0, 1024, "cold")):
        prob = _problem(alpha, L, N)
        u = np.exp(-prob.domain.nodes() ** 2)

        def check(e, prob=prob, u=u, key=(alpha, N)):
            first = energy.setdefault(key, e)
            if e != first:
                return False, f"warm value {e!r} differs from cold {first!r}"
            return _verdict(abs(e / _multiplier_energy(prob, u) - 1.0), 1e-2,
                            "rel gap to multiplier form")

        jobs.append(Job(f"energy_form:{alpha}:{N}:{tag}",
                        lambda p=prob, u=u: sg.energy_form(p, u, u, "jump_kernel"), check))
    rng = np.random.default_rng(seed)
    for prob, count in ((ref, 20), (_problem(1.5, 32.0, 1024), 5)):
        N = prob.domain.N
        subsets = [rng.choice(N, size=int(rng.integers(1, N)), replace=False) for _ in range(count)]
        u = np.ones(N)
        jobs.append(Job(f"irreducibility_cross_term:{N}",
                        lambda p=prob, s=subsets, u=u: np.array(
                            [sg.irreducibility_cross_term(p, a, u) for a in s]),
                        _check_cross(prob, subsets, u)))
    ts = [1.0, 0.5, 0.1, 0.01]
    jobs.append(Job("kato_diagnostic:reference", lambda: np.array(sg.kato_diagnostic(ref, ts)),
                    lambda v: _verdict(float(np.max(np.abs(v - _kato_oracle(ref, ts)))), 1e-9,
                                       "max abs err vs dense eigendecomposition")))
    return jobs


# ---------------------------------------------------------------------------
# monte-carlo: sampler, KDE, Feynman-Kac

ECF_XI = np.array([0.25, 0.5, 1.0, 2.0])


def _draws_keep(t):
    def keep(draws):
        rows = np.asarray(draws).reshape(draws.shape[0], -1)
        finite = np.isfinite(rows).all(axis=1)
        with np.errstate(invalid="ignore"):
            c = np.cos(ECF_XI[None, :] * rows[:, :1])
        return {"digest": fingerprint(rows), "n": rows.shape[0], "finite": int(finite.sum()),
                "ecf": c.mean(axis=0), "se": c.std(axis=0) / math.sqrt(rows.shape[0]), "t": t}
    return keep


def _check_ecf(alpha):
    def check(k):
        if k["finite"] != k["n"]:
            return False, f"{k['n'] - k['finite']} of {k['n']} rows are not finite"
        exact = (1.0 + ECF_XI ** alpha) ** (-k["t"])
        z = float(np.max(np.abs(k["ecf"] - exact) / k["se"]))
        return z < 6.0, f"characteristic function off by {z:.2f} SE (tol 6 SE)"
    return check


def _kde_expectation(spec, t, table):
    """Mean and standard error of the Gaussian KDE at each grid point.

    E[K_b(x - X)] = (1/pi) int_0^inf cos(xi x) (1 + xi^alpha)^(-t) e^(-b^2 xi^2 / 2) dxi
    from the closed-form characteristic function; K_b^2 = K_(b/sqrt 2) / (2 sqrt(pi) b)
    gives the second moment the same way.
    """
    bw, n, x = table.bandwidth, table.n_samples, table.x_grid

    def smoothed(b):
        xi_max = 9.0 / b
        edges = np.linspace(0.0, xi_max, int(xi_max * max(np.abs(x).max(), 1.0)) + 2)
        xi, w = sk._panel_nodes(np.unique(np.concatenate([edges, np.geomspace(1e-8, 1.0, 30)])))
        weight = (1.0 + xi ** spec.alpha) ** (-t) * np.exp(-0.5 * (b * xi) ** 2) * w / np.pi
        return np.cos(x[:, None] * xi[None, :]) @ weight

    mean = smoothed(bw)
    second = smoothed(bw / math.sqrt(2.0)) / (2.0 * math.sqrt(math.pi) * bw)
    return mean, np.sqrt(np.maximum(second - mean ** 2, 0.0) / n)


def _check_kde(spec, t):
    def check(table):
        mean, se = _kde_expectation(spec, t, table)
        z = float(np.max(np.abs(table.values - mean) / se))
        return z < 6.0, f"KDE off its expectation by {z:.2f} SE (tol 6 SE)"
    return check


def _check_ks(spec, t):
    def check(samples):
        ks = acceptance.EmpiricalCdf.from_samples(samples).ks_distance(
            acceptance.gridded_cdf(spec, t, samples))
        tol = 3.0 / math.sqrt(samples.size)
        return ks < tol, f"KS {ks:.4f} (tol 3/sqrt(n) = {tol:.4f})"
    return check


def _fk_oracle(problem, f, t):
    dom = problem.domain
    gen = _dense_generator(problem) + np.diag(problem.mu_plus.density_values())
    i0 = int(np.argmin(np.abs(dom.nodes())))
    return float((expm(-t * gen) @ f(dom.nodes()))[i0])


FK_T, FK_DT, FK_PATHS = 0.5, 1.0 / 256, 200_000


def _fk_payoff(x):
    return np.exp(-np.asarray(x) ** 2)


def _check_fk(problem):
    def check(out):
        est, se = out
        oracle = _fk_oracle(problem, _fk_payoff, FK_T)
        # clock quadrature bias is O(dt * sup rho)
        budget = 5.0 * se + 2.0 * FK_DT * float(problem.mu_plus.density_values().max())
        err = abs(est - oracle)
        return err < budget, f"|{est:.5f} - {oracle:.5f}| = {err:.2e} vs 5 SE + bias {budget:.2e}"
    return check


def monte_carlo(seed: int, out_dir: str):
    jobs = []
    streams = iter(range(seed * 100, seed * 100 + 100))
    for a, d in ((1.5, 1), (0.7, 1), (1.5, 2), (1.5, 3), (1.99, 2)):
        cfg = sk.StableKernelConfig(a, d)
        defect = "non-finite rows near alpha = 2 in d >= 2" if (a, d) == (1.99, 2) else None
        jobs.append(Job(f"sample_increment:{a}:{d}",
                        lambda cfg=cfg, s=next(streams): sk.sample_increment(
                            cfg, 1.0, sk.RngStream(s), size=1_000_000),
                        _check_ecf(a), keep=_draws_keep(1.0), known_defect=defect))
    spec = Spec(1.5, 1)
    jobs.append(Job("sample_increment:1.5:1:t=2",
                    lambda s=next(streams): sk.sample_increment(
                        sk.StableKernelConfig(1.5, 1), 2.0, sk.RngStream(s), size=100_000),
                    _check_ks(spec, 2.0)))
    grid = np.linspace(-4.0, 4.0, 161)
    for t in (0.5, 2.0):
        jobs.append(Job(f"density_mc:1.5:1:t={t}",
                        lambda t=t, s=next(streams): td.density_mc(spec, t, grid, 100_000, sk.RngStream(s)),
                        _check_kde(spec, t)))
    ref = acceptance.reference_problem()
    jobs.append(Job("feynman_kac_estimate:reference",
                    lambda s=next(streams): sg.feynman_kac_estimate(
                        ref, _fk_payoff, 0.0, FK_T, FK_PATHS, FK_DT, sk.RngStream(s)),
                    _check_fk(ref)))
    return jobs


# ---------------------------------------------------------------------------
# verify-all: the CLI acceptance suite, one job worth 12 checks

def verify_all(seed: int, out_dir: str):
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--output-path", out_dir]

    def keep(code):
        import json
        from pathlib import Path
        report = json.loads((Path(out_dir) / "verify_all.json").read_text())
        return {"code": code, "report": report}

    def check(kept):
        names = [r["name"] for r in kept["report"]]
        failed = [r["name"] for r in kept["report"] if not r["passed"]]
        consistent = names == list(acceptance.CHECKS) and kept["code"] == (1 if failed else 0)
        detail = f"failed checks: {failed or 'none'}; report consistent with exit code: {consistent}"
        return consistent and not failed, detail

    def tally(kept):
        """(attempted, failed) checks in the written report."""
        if kept is None:
            return len(acceptance.CHECKS), len(acceptance.CHECKS)
        return len(kept["report"]), sum(not r["passed"] for r in kept["report"])

    return [Job("cli.verify:all", lambda: cli.main(argv), check, keep=keep, tally=tally)]


# every builder takes (seed, out_dir); only the CLI session writes files
WORKLOADS = {
    "quadrature": quadrature,
    "torus": torus,
    "monte-carlo": monte_carlo,
    "verify-all": verify_all,
}
