"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the geostable modules from outside the
package: every module attribute that refers to a wrapped function is replaced,
so calls made through any import site (and module-internal calls, which go
through the module globals) record a span.  A span holds its name, start,
end, parent and per-call counts.  Spans stay in memory; the worker writes them
out when its session ends.

Self time of a span is its duration minus the durations of its child spans.
Bookkeeping done after a call returns (binding arguments, counting finite
rows) is charged to tracing, not to the enclosing spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "overhead", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.overhead = 0.0
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start - self.overhead


class Tracer:
    """Records spans while `active`; outside that window wrappers call through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active = False
        self.k_radial_keys: set = set()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        tracer = self
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = Span(name, tracer.stack[-1] if tracer.stack else None)
            tracer.stack.append(span)
            span.start = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = _perf()
                tracer.stack.pop()
                tracer.spans.append(span)
            if after is not None:
                t0 = _perf()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, span, bound.arguments, out)
                tracer._charge(span.parent, _perf() - t0)
            return out

        return traced

    def _charge(self, span, cost):
        while span is not None:
            span.overhead += cost
            span = span.parent

    def patch_everywhere(self, package, owner, attr, name, after=None):
        """Replace `owner.attr` in every loaded module of `package` that holds it."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)

    def patch_dict(self, mapping, prefix):
        for key, fn in list(mapping.items()):
            mapping[key] = self.wrap(f"{prefix}{key}", fn, _after_check)

    def patch_cg(self, module):
        """Wrap module.cg so each call is a span that counts its iterations."""
        original = module.cg
        tracer = self

        def counted(*args, callback=None, **kwargs):
            if not tracer.active:
                return original(*args, callback=callback, **kwargs)
            span = Span("schrodinger_ground.cg", tracer.stack[-1] if tracer.stack else None)
            span.info["iterations"] = 0

            def count(xk):
                span.info["iterations"] += 1
                if callback is not None:
                    callback(xk)

            tracer.stack.append(span)
            span.start = _perf()
            try:
                return original(*args, callback=count, **kwargs)
            finally:
                span.end = _perf()
                tracer.stack.pop()
                tracer.spans.append(span)

        module.cg = counted

    # -- output -------------------------------------------------------------

    def self_times(self):
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.duration
        totals = defaultdict(float)
        for s in self.spans:
            totals[s.name] += s.duration - child[id(s)]
        return totals

    def dump(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "overhead": s.overhead,
                 "parent": index.get(id(s.parent)) if s.parent is not None else None,
                 "info": s.info} for s in self.spans]


# ---------------------------------------------------------------------------
# per-call counters, run after the wrapped call returns

def _after_k_radial(tracer, span, args, out):
    spec = args["spec"]
    radii = np.ravel(np.asarray(args["r"], dtype=float))
    span.info["calls"] = radii.size
    tracer.k_radial_keys.update((spec.alpha, spec.dim, float(r)) for r in radii)


def _after_sample_increment(tracer, span, args, out):
    n = 1 if args["size"] is None else int(args["size"])
    rows = np.asarray(out, dtype=float).reshape(n, -1)
    span.info["draws"] = n
    span.info["finite_rows"] = int(np.isfinite(rows).all(axis=1).sum())


def _after_density_mc(tracer, span, args, out):
    span.info["kde_pairs"] = int(args["n_samples"]) * int(np.asarray(out.values).size)


def _after_feynman_kac(tracer, span, args, out):
    steps = round(args["t"] / args["dt"])
    span.info["path_steps"] = int(args["n_paths"]) * steps
    span.info["std_error"] = float(out[1])


def _after_check(tracer, span, args, out):
    span.info["passed"] = bool(out.passed)


def install(tracer: Tracer):
    """Wrap the public entry points of every geostable module."""
    from geostable import (acceptance, cli, levy_structure, schrodinger_ground,
                           stable_kernel, transition_density)

    targets = [
        (stable_kernel, "radial_profile", None),
        (stable_kernel, "StableRadialProfile", None),
        (stable_kernel, "sample_increment", _after_sample_increment),
        (levy_structure, "k_radial", _after_k_radial),
        (levy_structure, "verify_selfdecomposable", None),
        (levy_structure, "polar_levy_mass", None),
        (levy_structure, "asymptotic_report", None),
        (transition_density, "density_inversion", None),
        (transition_density, "cdf_numeric", None),
        (transition_density, "density_mc", _after_density_mc),
        (schrodinger_ground, "solve_ground_state", None),
        (schrodinger_ground, "dense_ground_state", None),
        (schrodinger_ground, "energy_form", None),
        (schrodinger_ground, "irreducibility_cross_term", None),
        (schrodinger_ground, "feynman_kac_estimate", _after_feynman_kac),
        (schrodinger_ground, "kato_diagnostic", None),
        (acceptance, "density_gamma_mixture", None),
        (acceptance, "gridded_cdf", None),
        (acceptance, "run_suite", None),
        (cli, "main", None),
    ]
    for owner, attr, after in targets:
        layer = owner.__name__.rsplit(".", 1)[-1]
        span_name = f"{layer}.profile_build" if attr == "StableRadialProfile" else f"{layer}.{attr}"
        tracer.patch_everywhere("geostable", owner, attr, span_name, after)
    tracer.patch_cg(schrodinger_ground)
    tracer.patch_dict(acceptance.CHECKS, "acceptance.check.")


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, check_names) -> dict:
    """Per-layer metrics of one traced session; ratios with no work report 0."""
    self_s = tracer.self_times()

    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    def total(name, key):
        return sum(s.info.get(key, 0) for s in spans(name))

    draws = total("stable_kernel.sample_increment", "draws")
    k_calls = total("levy_structure.k_radial", "calls")
    inv_points = len(spans("transition_density.density_inversion"))
    cdf_calls = len(spans("transition_density.cdf_numeric"))
    kde_pairs = total("transition_density.density_mc", "kde_pairs")
    cg_spans = spans("schrodinger_ground.cg")
    cg_iters = sum(s.info["iterations"] for s in cg_spans)
    fk_spans = spans("schrodinger_ground.feynman_kac_estimate")
    fk_steps = sum(s.info["path_steps"] for s in fk_spans)
    fk_total = sum(s.duration for s in fk_spans)

    m = {
        "stable_kernel.profile_build_s": self_s["stable_kernel.profile_build"],
        "stable_kernel.profiles_built": len(spans("stable_kernel.profile_build")),
        "stable_kernel.sample_increment_s": self_s["stable_kernel.sample_increment"],
        "stable_kernel.draws": draws,
        "stable_kernel.ns_per_draw": _ratio(self_s["stable_kernel.sample_increment"], draws, 1e9),
        "stable_kernel.finite_row_ratio": _ratio(
            total("stable_kernel.sample_increment", "finite_rows"), draws),
        "levy_structure.k_radial_s": self_s["levy_structure.k_radial"],
        "levy_structure.k_radial_calls": k_calls,
        "levy_structure.k_radial_unique_ratio": _ratio(len(tracer.k_radial_keys), k_calls),
        "levy_structure.us_per_k_radial": _ratio(self_s["levy_structure.k_radial"], k_calls, 1e6),
        "levy_structure.verify_selfdecomposable_s": self_s["levy_structure.verify_selfdecomposable"],
        "levy_structure.polar_levy_mass_s": self_s["levy_structure.polar_levy_mass"],
        "levy_structure.asymptotic_report_s": self_s["levy_structure.asymptotic_report"],
        "transition_density.density_inversion_s": self_s["transition_density.density_inversion"],
        "transition_density.inversion_points": inv_points,
        "transition_density.us_per_inversion_point": _ratio(
            self_s["transition_density.density_inversion"], inv_points, 1e6),
        "transition_density.cdf_numeric_s": self_s["transition_density.cdf_numeric"],
        "transition_density.cdf_numeric_calls": cdf_calls,
        "transition_density.density_mc_s": self_s["transition_density.density_mc"],
        "transition_density.kde_pairs": kde_pairs,
        "transition_density.ns_per_kde_pair": _ratio(
            self_s["transition_density.density_mc"], kde_pairs, 1e9),
        "schrodinger_ground.solve_ground_state_s": self_s["schrodinger_ground.solve_ground_state"],
        "schrodinger_ground.outer_iterations": len(cg_spans),
        "schrodinger_ground.cg_iterations": cg_iters,
        "schrodinger_ground.us_per_cg_iteration": _ratio(
            self_s["schrodinger_ground.cg"], cg_iters, 1e6),
        "schrodinger_ground.dense_ground_state_s": self_s["schrodinger_ground.dense_ground_state"],
        "schrodinger_ground.energy_form_s": self_s["schrodinger_ground.energy_form"],
        "schrodinger_ground.cross_term_s": self_s["schrodinger_ground.irreducibility_cross_term"],
        "schrodinger_ground.feynman_kac_s": self_s["schrodinger_ground.feynman_kac_estimate"],
        "schrodinger_ground.fk_path_steps": fk_steps,
        "schrodinger_ground.ns_per_fk_path_step": _ratio(fk_total, fk_steps, 1e9),
        "schrodinger_ground.fk_time_to_se_s": sum(
            s.duration * (s.info["std_error"] / 1e-3) ** 2 for s in fk_spans),
        "schrodinger_ground.kato_diagnostic_s": self_s["schrodinger_ground.kato_diagnostic"],
    }
    for name in check_names:
        m[f"acceptance.{name}_s"] = self_s[f"acceptance.check.{name}"]
    m["acceptance.density_gamma_mixture_s"] = self_s["acceptance.density_gamma_mixture"]
    m["acceptance.gridded_cdf_s"] = self_s["acceptance.gridded_cdf"]
    m["acceptance.checks_failed"] = sum(
        not s.info["passed"] for s in tracer.spans if s.name.startswith("acceptance.check."))
    m["cli.overhead_s"] = self_s["cli.main"]
    return m
