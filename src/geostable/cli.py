"""Command-line entry point: every computation as a subcommand with manifests.

Config precedence is flag > config file > default; the resolved values are
recorded in a `<subcommand>_manifest.json` written next to the outputs of every
subcommand that writes files.  Config files are flat `key = value` text whose
keys are the subcommand's flags.  This is the only module that reads or writes
files: the library returns plain data (`header()`, `to_dict()`, arrays).  Monte Carlo subcommands require an
explicit --seed so reruns reproduce bit for bit.  Exit codes: 0 success,
1 numerical failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import SUITES, run_suite
from .errors import ConfigError, ConsistencyError, ConvergenceError, GeoStableError
from .levy_structure import (Regime, asymptotic_report, levy_density,
                             verify_selfdecomposable)
from .process_core import ProcessSpec, classify_recurrence, symbol
from .schrodinger_ground import (GridDomain, MeasureOnGrid, SchrodingerProblem,
                                 feynman_kac_estimate, kato_diagnostic,
                                 solve_ground_state)
from .stable_kernel import RngStream, sample_increment
from .transition_density import density_mc, inversion_table


def _read_file(path, parse):
    """parse(open file) for a config or csv: measure file; a file that cannot
    be opened or parsed is a ConfigError."""
    try:
        with open(path, newline="") as fh:
            return parse(fh)
    except ConfigError:  # a ValueError, but already says what is wrong
        raise
    except (OSError, ValueError, IndexError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _config_values(fh):
    values = {}
    for lineno, raw in enumerate(fh.read().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{fh.name}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _measure_points(fh):
    """(x, weight) columns of a csv: measure file with header x,weight."""
    rows = csv.reader(fh)
    header = next(rows, [])
    if [c.strip().lower() for c in header[:2]] != ["x", "weight"]:
        raise ConfigError("measure CSV must have header x,weight")
    points = np.array([(float(row[0]), float(row[1])) for row in rows if row]).reshape(-1, 2)
    return points[:, 0], points[:, 1]


_FLAGS = {
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
    "output_path": (str, "directory for the outputs and their manifest"),
}


def _cast(typ, text: str, what: str):
    """Text from a config file, a measure spec or --t-values, as a typ value."""
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r} is not a valid {typ.__name__}") from None


def _resolve(args, defaults):
    """flag > config file > default; file values are typed like their flags."""
    file_vals = _read_file(args.config, _config_values) if args.config else {}
    unknown = set(file_vals) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = _cast(_FLAGS[key][0], file_vals[key], key) if key in file_vals else default
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        resolved[key] = value
    return resolved


# the only two writers: each creates the output directory on first write, so a
# run that fails before writing leaves nothing behind

def _write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _write_manifest(out_dir: Path, subcommand: str, config: dict, outputs, t0: float,
                    timings=None):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "version": __version__,
        "duration_seconds": round(time.time() - t0, 3),
        "outputs": [str(p) for p in outputs],
    }
    if timings is not None:
        manifest["timings"] = timings
    _write_json(out_dir / f"{subcommand.replace('-', '_')}_manifest.json", manifest)


def _measure_from_config(domain: GridDomain, text: str) -> MeasureOnGrid:
    """Parse 'indicator:center=0,half_width=1,height=0.5' or 'csv:path'."""
    kind, _, rest = text.partition(":")
    if kind == "csv":
        if not rest:
            raise ConfigError("csv measure needs a path: csv:<file>")
        return MeasureOnGrid.from_points(domain, *_read_file(rest, _measure_points))
    params = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ConfigError(f"bad measure parameter {item!r}")
            key, val = item.split("=", 1)
            params[key.strip()] = _cast(float, val, f"measure parameter {key.strip()}")
    try:
        return MeasureOnGrid.from_profile(domain, kind, **params)
    except TypeError as exc:
        raise ConfigError(f"invalid measure spec {text!r}: {exc}") from exc


def _grid(cfg, geometric=False):
    """n points from x_min to x_max; a geometric grid needs x_min > 0."""
    lo, hi, n = cfg["x_min"], cfg["x_max"], cfg["n"]
    if n < 2 or not lo < hi:
        raise ConfigError(f"need n >= 2 and x_min < x_max, got n={n}, x_min={lo}, x_max={hi}")
    if not geometric:
        return np.linspace(lo, hi, n)
    if lo <= 0:
        raise ConfigError(f"x_min must be positive for this radial grid, got {lo}")
    return np.geomspace(lo, hi, n)


def _require_seed(cfg):
    if cfg["seed"] is None:
        raise ConfigError("--seed is required for Monte Carlo runs")
    return RngStream(cfg["seed"])


# ---------------------------------------------------------------------------
# subcommand bodies: (resolved config, output directory) -> output paths

def _cmd_classify(cfg, out):
    print(classify_recurrence(ProcessSpec(cfg["alpha"], cfg["dim"])).value)
    return []


def _cmd_symbol(cfg, out):
    xi = _grid(cfg)
    psi = symbol(ProcessSpec(cfg["alpha"], cfg["dim"]), xi)
    path = out / "symbol.csv"
    _write_csv(path, ["xi", "psi"], zip(xi, psi))
    print(path)
    return [path]


def _cmd_levy(cfg, out):
    spec = ProcessSpec(cfg["alpha"], cfg["dim"])
    rs = _grid(cfg, geometric=True)
    regimes = {"smallx": Regime.SMALL_X, "largex": Regime.LARGE_X}
    if cfg["asymptotics"] and cfg["asymptotics"] not in regimes:
        raise ConfigError("asymptotics must be smallx or largex")
    outputs = [out / "levy_density.csv"]
    points = np.column_stack([rs, np.zeros((rs.size, spec.dim - 1))])  # on the first axis
    _write_csv(outputs[0], ["r", "j"], zip(rs, levy_density(spec, points)))
    if cfg["asymptotics"]:
        outputs.append(out / "asymptotic_report.json")
        _write_json(outputs[1], asymptotic_report(spec, regimes[cfg["asymptotics"]]).to_dict())
    print(*outputs, sep="\n")
    return outputs


def _cmd_selfdecomp(cfg, out):
    spec = ProcessSpec(cfg["alpha"], cfg["dim"])
    table = verify_selfdecomposable(spec, cfg["t"], _grid(cfg, geometric=True))
    csv_path = out / "kfunction_table.csv"
    _write_csv(csv_path, ["r", "k_value"], zip(table.r_grid, table.values))
    cert_path = out / "selfdecomp_certificate.json"
    _write_json(cert_path, {"alpha": spec.alpha, "dim": spec.dim, "t": cfg["t"],
                            "monotone_certificate": table.monotone_certificate})
    print(f"monotone_certificate: {table.monotone_certificate}")
    return [csv_path, cert_path]


def _cmd_density(cfg, out):
    spec = ProcessSpec(cfg["alpha"], cfg["dim"])
    if cfg["method"] not in ("inversion", "mc"):
        raise ConfigError("method must be inversion or mc")
    if spec.dim != 1:
        raise ConfigError("density tables are one-dimensional; use the API for d > 1")
    grid = _grid(cfg)
    if cfg["method"] == "inversion":
        table = inversion_table(spec, cfg["t"], grid)
    else:
        table = density_mc(spec, cfg["t"], grid, cfg["n_samples"], _require_seed(cfg))
    csv_path = out / "density.csv"
    header_path = out / "density_header.json"
    _write_csv(csv_path, ["x", "p"], zip(table.x_grid, table.values))
    _write_json(header_path, table.header())
    print(csv_path)
    return [csv_path, header_path]


def _cmd_sample(cfg, out):
    spec = ProcessSpec(cfg["alpha"], cfg["dim"])
    if cfg["n_samples"] < 1:
        raise ConfigError("n_samples must be >= 1")
    draws = sample_increment(spec, cfg["t"], _require_seed(cfg), size=cfg["n_samples"])
    path = out / "samples.csv"
    if spec.dim == 1:
        _write_csv(path, ["x"], ((v,) for v in draws))
    else:
        _write_csv(path, [f"x{i}" for i in range(spec.dim)], draws)
    print(path)
    return [path]


def _problem_from(cfg) -> SchrodingerProblem:
    domain = GridDomain(cfg["L"], cfg["N"])
    return SchrodingerProblem(ProcessSpec(cfg["alpha"], 1), domain,
                              _measure_from_config(domain, cfg["mu_plus"]),
                              _measure_from_config(domain, cfg["mu_minus"]))


def _cmd_groundstate(cfg, out):
    problem = _problem_from(cfg)
    result = solve_ground_state(problem, tol=cfg["tol"], max_iter=cfg["max_iter"])
    csv_path = out / "ground_state.csv"
    json_path = out / "ground_state.json"
    _write_csv(csv_path, ["x", "h"], zip(problem.domain.nodes(), result.h))
    _write_json(json_path, result.to_dict(problem))
    print(f"lambda = {result.lambda_!r} (residual {result.residual:.2e}, "
          f"{result.iterations} iterations, {result.cg_iterations} CG steps)")
    return [csv_path, json_path]


def _cmd_feynman_kac(cfg, out):
    rng = _require_seed(cfg)
    problem = _problem_from(cfg)
    f_vals = _measure_from_config(problem.domain, cfg["f"]).density_values()
    mean, stderr = feynman_kac_estimate(problem, f_vals, cfg["x0"], cfg["t"],
                                        cfg["n_paths"], cfg["dt"], rng)
    path = out / "feynman_kac.json"
    _write_json(path, {"estimate": mean, "std_error": stderr, "t": cfg["t"], "dt": cfg["dt"],
                       "n_paths": cfg["n_paths"], "x0": cfg["x0"], "seed": cfg["seed"]})
    print(f"estimate = {mean!r} +- {stderr!r}")
    return [path]


def _cmd_kato(cfg, out):
    problem = _problem_from(cfg)
    ts = [_cast(float, v, "--t-values") for v in cfg["t_values"].split(",")]
    path = out / "kato.csv"
    _write_csv(path, ["t", "value"], zip(ts, kato_diagnostic(problem, ts)))
    print(path)
    return [path]


def _cmd_verify(cfg, out):
    if cfg["suite"] not in SUITES:
        raise ConfigError(f"unknown suite {cfg['suite']!r}; choose from {sorted(SUITES)}")
    results = run_suite(cfg["suite"], seed=cfg["seed"])
    report_path = out / f"verify_{cfg['suite']}.json"
    _write_json(report_path, [{"name": r.name, "passed": r.passed, "detail": r.detail}
                              for r in results])
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    # timings vary run to run, so they go to the manifest, not the report
    return [report_path], {r.name: r.elapsed for r in results}, 1 if failed else 0


_SPEC = {"alpha": 1.5, "dim": 1}
_TORUS = {"alpha": 1.5, "L": 16.0, "N": 256,
          "mu_plus": "indicator:half_width=1,height=0.5",
          "mu_minus": "indicator:half_width=2,height=1"}

# name -> (help, body, defaults); a subcommand's flags are the keys of its
# defaults, and those with an output_path write a manifest
_COMMANDS = {
    "classify": ("recurrence classification", _cmd_classify, _SPEC),
    "symbol": ("tabulate the symbol", _cmd_symbol,
               {**_SPEC, "x_min": 0.0, "x_max": 10.0, "n": 101, "output_path": None}),
    "levy": ("jump density table and asymptotic report", _cmd_levy,
             {**_SPEC, "x_min": 0.1, "x_max": 10.0, "n": 64, "asymptotics": None,
              "output_path": None}),
    "selfdecomp": ("t k(r) table and its monotonicity certificate", _cmd_selfdecomp,
                   {**_SPEC, "t": 1.0, "x_min": 0.01, "x_max": 10.0, "n": 48,
                    "output_path": None}),
    "density": ("transition density table", _cmd_density,
                {**_SPEC, "t": 1.0, "method": "inversion", "x_min": -10.0, "x_max": 10.0,
                 "n": 201, "n_samples": 100_000, "seed": None, "output_path": None}),
    "sample": ("draw increments", _cmd_sample,
               {**_SPEC, "t": 1.0, "n_samples": 10_000, "seed": None, "output_path": None}),
    "groundstate": ("principal eigenvalue and ground state", _cmd_groundstate,
                    {**_TORUS, "tol": 1e-10, "max_iter": 800, "output_path": None}),
    "feynman-kac": ("killed-semigroup Monte Carlo", _cmd_feynman_kac,
                    {**_TORUS, "t": 0.5, "dt": 1.0 / 32, "n_paths": 100_000, "x0": 0.0,
                     "f": "gaussian:half_width=1,height=1", "seed": None,
                     "output_path": None}),
    "kato": ("Kato-class diagnostic", _cmd_kato,
             {**_TORUS, "t_values": "1,0.5,0.1,0.01", "output_path": None}),
    "verify": ("run acceptance checks", _cmd_verify,
               {"suite": "all", "seed": 42, "output_path": None}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geostable",
        description="Geometric alpha-stable process toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, defaults) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key = value config file")
        for key in defaults:
            typ, flag_help = _FLAGS[key]
            sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, help=flag_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, body, defaults = _COMMANDS[args.subcommand]
    t0 = time.time()
    try:
        cfg = _resolve(args, defaults)
        out = Path(cfg.get("output_path") or ".")
        result = body(cfg, out)
        outputs, timings, code = result if isinstance(result, tuple) else (result, None, 0)
        if "output_path" in cfg:
            _write_manifest(out, args.subcommand, cfg, outputs, t0, timings)
        return code
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
