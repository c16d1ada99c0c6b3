"""Command-line entry point: every computation as a subcommand with manifests.

Config precedence is flag > config file > default; the resolved values are
recorded in a RunManifest JSON written next to every produced file.  Config
files are flat `key = value` text.  Monte Carlo subcommands require an
explicit --seed so reruns reproduce bit for bit.  Exit codes: 0 success,
1 numerical failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import SUITES, run_suite
from .errors import ConfigError, ConsistencyError, ConvergenceError, GeoStableError
from .levy_structure import (Regime, asymptotic_report, k_radial,
                             verify_selfdecomposable)
from .process_core import ProcessSpec, classify_recurrence, symbol
from .schrodinger_ground import (GridDomain, MeasureOnGrid, SchrodingerProblem,
                                 feynman_kac_estimate, kato_diagnostic,
                                 solve_ground_state)
from .stable_kernel import RngStream, sample_increment
from .transition_density import density_mc, inversion_table


def _read_config_file(path):
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args, defaults):
    """flag > config file > default; returns the resolved plain dict."""
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_vals:
            caster = type(default) if default is not None else str
            if caster is bool:
                resolved[key] = file_vals[key].lower() in ("1", "true", "yes")
            else:
                resolved[key] = caster(file_vals[key])
        else:
            resolved[key] = default
    unknown = set(file_vals) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return resolved


def _out_dir(args) -> Path:
    out = Path(getattr(args, "output_path", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out_dir: Path, subcommand: str, config: dict, outputs, t0: float,
                    timings=None):
    manifest = {
        "subcommand": subcommand,
        "config": {k: (v if not isinstance(v, Path) else str(v)) for k, v in config.items()},
        "version": __version__,
        "duration_seconds": round(time.time() - t0, 3),
        "outputs": [str(p) for p in outputs],
    }
    if timings is not None:
        manifest["timings"] = timings
    path = out_dir / f"{subcommand.replace('-', '_')}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _measure_from_config(domain: GridDomain, text: str) -> MeasureOnGrid:
    """Parse 'indicator:center=0,half_width=1,height=0.5' or 'csv:path'."""
    kind, _, rest = text.partition(":")
    if kind == "csv":
        if not rest:
            raise ConfigError("csv measure needs a path: csv:<file>")
        return MeasureOnGrid.from_csv(domain, rest)
    params = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ConfigError(f"bad measure parameter {item!r}")
            key, val = item.split("=", 1)
            params[key.strip()] = float(val)
    try:
        return MeasureOnGrid.from_profile(domain, kind, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid measure spec {text!r}: {exc}") from exc


def _spec_from(cfg) -> ProcessSpec:
    try:
        return ProcessSpec(cfg["alpha"], cfg["dim"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid(cfg):
    if cfg["n"] < 2:
        raise ConfigError("n must be >= 2")
    return np.linspace(cfg["x_min"], cfg["x_max"], cfg["n"])


# ---------------------------------------------------------------------------
# subcommand bodies (parsed args -> exit code)

def _cmd_classify(args):
    cfg = _resolve(args, {"alpha": 1.5, "dim": 1})
    print(classify_recurrence(_spec_from(cfg)).value)
    return 0


def _cmd_symbol(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "dim": 1, "x_min": 0.0, "x_max": 10.0,
                          "n": 101, "output_path": None})
    spec = _spec_from(cfg)
    if cfg["x_min"] < 0:
        raise ConfigError("xi grid must be nonnegative")
    xi = np.linspace(cfg["x_min"], cfg["x_max"], cfg["n"])
    out = _out_dir(args)
    path = out / "symbol.csv"
    _write_csv(path, ["xi", "psi"], zip(xi, symbol(spec, xi)))
    _write_manifest(out, "symbol", cfg, [path], t0)
    print(path)
    return 0


def _cmd_levy(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "dim": 1, "x_min": 0.1, "x_max": 10.0,
                          "n": 64, "asymptotics": None, "output_path": None})
    spec = _spec_from(cfg)
    if cfg["x_min"] <= 0:
        raise ConfigError("levy radii must be positive")
    rs = np.geomspace(cfg["x_min"], cfg["x_max"], cfg["n"])
    out = _out_dir(args)
    outputs = []
    path = out / "levy_density.csv"
    _write_csv(path, ["r", "j"], zip(rs, k_radial(spec, rs) / rs ** spec.dim))
    outputs.append(path)
    if cfg["asymptotics"]:
        regime = {"smallx": Regime.SMALL_X, "largex": Regime.LARGE_X}.get(cfg["asymptotics"])
        if regime is None:
            raise ConfigError("asymptotics must be smallx or largex")
        rep = asymptotic_report(spec, regime)
        rep_path = out / "asymptotic_report.json"
        rep.to_json(rep_path)
        outputs.append(rep_path)
    _write_manifest(out, "levy", cfg, outputs, t0)
    print(*outputs, sep="\n")
    return 0


def _cmd_kfun(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "dim": 1, "t": 1.0, "x_min": 0.01,
                          "x_max": 10.0, "n": 64, "output_path": None})
    spec = _spec_from(cfg)
    if cfg["x_min"] <= 0 or cfg["t"] <= 0:
        raise ConfigError("radii and t must be positive")
    rs = np.geomspace(cfg["x_min"], cfg["x_max"], cfg["n"])
    out = _out_dir(args)
    path = out / "kfunction.csv"
    _write_csv(path, ["r", "k_value"], zip(rs, cfg["t"] * k_radial(spec, rs)))
    _write_manifest(out, "kfun", cfg, [path], t0)
    print(path)
    return 0


def _cmd_selfdecomp(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "dim": 1, "t": 1.0, "x_min": 0.01,
                          "x_max": 10.0, "n": 48, "output_path": None})
    spec = _spec_from(cfg)
    if cfg["x_min"] <= 0 or cfg["t"] <= 0:
        raise ConfigError("radii and t must be positive")
    table = verify_selfdecomposable(spec, cfg["t"], np.geomspace(cfg["x_min"], cfg["x_max"], cfg["n"]))
    out = _out_dir(args)
    csv_path = out / "kfunction_table.csv"
    table.to_csv(csv_path)
    cert_path = out / "selfdecomp_certificate.json"
    cert_path.write_text(json.dumps({
        "alpha": spec.alpha, "dim": spec.dim, "t": cfg["t"],
        "monotone_certificate": table.monotone_certificate,
    }, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "selfdecomp", cfg, [csv_path, cert_path], t0)
    print(f"monotone_certificate: {table.monotone_certificate}")
    return 0


def _cmd_density(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "dim": 1, "t": 1.0, "method": "inversion",
                          "x_min": -10.0, "x_max": 10.0, "n": 201,
                          "n_samples": 100_000, "seed": None, "output_path": None})
    spec = _spec_from(cfg)
    if cfg["t"] <= 0:
        raise ConfigError("t must be positive")
    if cfg["method"] not in ("inversion", "mc"):
        raise ConfigError("method must be inversion or mc")
    if spec.dim != 1:
        raise ConfigError("density tables are one-dimensional; use the API for d > 1")
    grid = _grid(cfg)
    if cfg["method"] == "inversion":
        if cfg["t"] <= spec.dim / spec.alpha:
            raise ConfigError(
                f"inversion unavailable: t = {cfg['t']} <= d/alpha = {spec.dim / spec.alpha:.6g}; "
                "use --method mc")
        table = inversion_table(spec, cfg["t"], grid)
    else:
        if cfg["seed"] is None:
            raise ConfigError("--seed is required for Monte Carlo runs")
        table = density_mc(spec, cfg["t"], grid, cfg["n_samples"], RngStream(cfg["seed"]))
    out = _out_dir(args)
    csv_path = out / "density.csv"
    header_path = out / "density_header.json"
    table.to_csv(csv_path)
    table.header_json(header_path)
    _write_manifest(out, "density", cfg, [csv_path, header_path], t0)
    print(csv_path)
    return 0


def _cmd_sample(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "dim": 1, "t": 1.0, "n_samples": 10_000,
                          "seed": None, "output_path": None})
    spec = _spec_from(cfg)
    if cfg["t"] <= 0 or cfg["n_samples"] < 1:
        raise ConfigError("t must be positive and n_samples >= 1")
    if cfg["seed"] is None:
        raise ConfigError("--seed is required for Monte Carlo runs")
    draws = sample_increment(spec, cfg["t"], RngStream(cfg["seed"]), size=cfg["n_samples"])
    out = _out_dir(args)
    path = out / "samples.csv"
    if spec.dim == 1:
        _write_csv(path, ["x"], ((v,) for v in draws))
    else:
        _write_csv(path, [f"x{i}" for i in range(spec.dim)], draws)
    _write_manifest(out, "sample", cfg, [path], t0)
    print(path)
    return 0


def _problem_from(cfg) -> SchrodingerProblem:
    spec = _spec_from({"alpha": cfg["alpha"], "dim": 1})
    try:
        domain = GridDomain(cfg["L"], cfg["N"])
        mu_plus = _measure_from_config(domain, cfg["mu_plus"])
        mu_minus = _measure_from_config(domain, cfg["mu_minus"])
        return SchrodingerProblem(spec, domain, mu_plus, mu_minus)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_groundstate(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "L": 16.0, "N": 256,
                          "mu_plus": "indicator:half_width=1,height=0.5",
                          "mu_minus": "indicator:half_width=2,height=1",
                          "tol": 1e-10, "max_iter": 800, "output_path": None})
    problem = _problem_from(cfg)
    result = solve_ground_state(problem, tol=cfg["tol"], max_iter=cfg["max_iter"])
    out = _out_dir(args)
    csv_path = out / "ground_state.csv"
    json_path = out / "ground_state.json"
    result.to_csv(csv_path, problem.domain)
    result.to_json(json_path, problem=problem, seed=None)
    _write_manifest(out, "groundstate", cfg, [csv_path, json_path], t0)
    print(f"lambda = {result.lambda_!r} (residual {result.residual:.2e}, "
          f"{result.iterations} iterations, {result.cg_iterations} CG steps)")
    return 0


def _cmd_feynman_kac(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "L": 16.0, "N": 256,
                          "mu_plus": "indicator:half_width=1,height=0.5",
                          "mu_minus": "indicator:half_width=2,height=1",
                          "t": 0.5, "dt": 1.0 / 256, "n_paths": 100_000,
                          "x0": 0.0, "f": "gaussian:half_width=1,height=1",
                          "seed": None, "output_path": None})
    if cfg["seed"] is None:
        raise ConfigError("--seed is required for Monte Carlo runs")
    problem = _problem_from(cfg)
    f_measure = _measure_from_config(problem.domain, cfg["f"])
    f_vals = f_measure.density_values()
    mean, stderr = feynman_kac_estimate(problem, f_vals, cfg["x0"], cfg["t"],
                                        cfg["n_paths"], cfg["dt"], RngStream(cfg["seed"]))
    out = _out_dir(args)
    path = out / "feynman_kac.json"
    path.write_text(json.dumps({
        "estimate": mean, "std_error": stderr, "t": cfg["t"], "dt": cfg["dt"],
        "n_paths": cfg["n_paths"], "x0": cfg["x0"], "seed": cfg["seed"],
    }, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "feynman-kac", cfg, [path], t0)
    print(f"estimate = {mean!r} +- {stderr!r}")
    return 0


def _cmd_kato(args):
    t0 = time.time()
    cfg = _resolve(args, {"alpha": 1.5, "L": 16.0, "N": 256,
                          "mu_plus": "indicator:half_width=1,height=0.5",
                          "mu_minus": "indicator:half_width=2,height=1",
                          "t_values": "1,0.5,0.1,0.01", "output_path": None})
    problem = _problem_from(cfg)
    try:
        ts = [float(v) for v in str(cfg["t_values"]).split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --t-values: {exc}") from exc
    try:
        vals = kato_diagnostic(problem, ts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args)
    path = out / "kato.csv"
    _write_csv(path, ["t", "value"], zip(ts, vals))
    _write_manifest(out, "kato", cfg, [path], t0)
    print(path)
    return 0


def _cmd_verify(args):
    t0 = time.time()
    cfg = _resolve(args, {"suite": "all", "seed": 42, "output_path": None})
    if cfg["suite"] not in SUITES:
        raise ConfigError(f"unknown suite {cfg['suite']!r}; choose from {sorted(SUITES)}")
    results = run_suite(cfg["suite"], seed=cfg["seed"])
    out = _out_dir(args)
    report_path = out / f"verify_{cfg['suite']}.json"
    report_path.write_text(json.dumps([{
        "name": r.name, "passed": r.passed, "detail": r.detail,
    } for r in results], indent=2, sort_keys=True) + "\n")
    # timings vary run to run, so they go to the manifest, not the report
    _write_manifest(out, "verify", cfg, [report_path], t0,
                    timings={r.name: r.elapsed for r in results})
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


_COMMANDS = {
    "classify": _cmd_classify,
    "symbol": _cmd_symbol,
    "levy": _cmd_levy,
    "kfun": _cmd_kfun,
    "selfdecomp": _cmd_selfdecomp,
    "density": _cmd_density,
    "sample": _cmd_sample,
    "groundstate": _cmd_groundstate,
    "feynman-kac": _cmd_feynman_kac,
    "kato": _cmd_kato,
    "verify": _cmd_verify,
}


def _add_common(sub, *names):
    sub.add_argument("--config", default=None, help="flat key = value config file")
    sub.add_argument("--output-path", dest="output_path", default=None)
    spec_flags = {
        "alpha": (float, "stability index in (0, 2]"),
        "dim": (int, "spatial dimension"),
        "t": (float, "time parameter"),
        "L": (float, "torus half-width"),
        "N": (int, "grid size (power of two >= 64)"),
        "x_min": (float, "grid lower end"),
        "x_max": (float, "grid upper end"),
        "n": (int, "grid size"),
        "n_samples": (int, "Monte Carlo sample count"),
        "n_paths": (int, "Monte Carlo path count"),
        "dt": (float, "time step"),
        "x0": (float, "start point"),
        "seed": (int, "RNG seed (required for MC)"),
        "tol": (float, "solver tolerance"),
        "max_iter": (int, "solver iteration cap"),
        "method": (str, "inversion | mc"),
        "mu_plus": (str, "measure spec profile:k=v,... or csv:path"),
        "mu_minus": (str, "measure spec profile:k=v,... or csv:path"),
        "f": (str, "payoff profile spec"),
        "asymptotics": (str, "smallx | largex"),
        "t_values": (str, "comma-separated decreasing times"),
        "suite": (str, f"one of {sorted(SUITES)}"),
    }
    for name in names:
        typ, help_text = spec_flags[name]
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ,
                         default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geostable",
        description="Geometric alpha-stable process toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    _add_common(subs.add_parser("classify", help="recurrence classification"), "alpha", "dim")
    _add_common(subs.add_parser("symbol", help="tabulate the symbol"),
                "alpha", "dim", "x_min", "x_max", "n")
    _add_common(subs.add_parser("levy", help="jump density table and asymptotic report"),
                "alpha", "dim", "x_min", "x_max", "n", "asymptotics")
    _add_common(subs.add_parser("kfun", help="polar k-function table"),
                "alpha", "dim", "t", "x_min", "x_max", "n")
    _add_common(subs.add_parser("selfdecomp", help="monotonicity certificate"),
                "alpha", "dim", "t", "x_min", "x_max", "n")
    _add_common(subs.add_parser("density", help="transition density table"),
                "alpha", "dim", "t", "method", "x_min", "x_max", "n", "n_samples", "seed")
    _add_common(subs.add_parser("sample", help="draw increments"),
                "alpha", "dim", "t", "n_samples", "seed")
    _add_common(subs.add_parser("groundstate", help="principal eigenvalue and ground state"),
                "alpha", "L", "N", "mu_plus", "mu_minus", "tol", "max_iter")
    _add_common(subs.add_parser("feynman-kac", help="killed-semigroup Monte Carlo"),
                "alpha", "L", "N", "mu_plus", "mu_minus", "t", "dt", "n_paths",
                "x0", "f", "seed")
    _add_common(subs.add_parser("kato", help="Kato-class diagnostic"),
                "alpha", "L", "N", "mu_plus", "mu_minus", "t_values")
    _add_common(subs.add_parser("verify", help="run acceptance checks"), "suite", "seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.subcommand]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except GeoStableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
