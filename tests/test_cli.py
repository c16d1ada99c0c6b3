import ast
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from geostable import (GridDomain, MeasureOnGrid, ProcessSpec, levy_density,
                       verify_selfdecomposable)
from geostable.cli import main


def run(argv):
    return main(argv)


def test_classify_stdout(capsys):
    assert run(["classify", "--alpha", "1.5", "--dim", "1"]) == 0
    assert capsys.readouterr().out.strip() == "Recurrent"
    assert run(["classify", "--alpha", "0.5", "--dim", "2"]) == 0
    assert capsys.readouterr().out.strip() == "Transient"


def test_classify_rejects_bad_alpha(capsys):
    assert run(["classify", "--alpha", "3.0", "--dim", "1"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_density_below_threshold_refuses_only_the_origin(tmp_path, capsys):
    # t = 0.4 <= d/alpha = 0.5: p_t is infinite at x = 0, which the default grid holds
    args = ["density", "--alpha", "2", "--dim", "1", "--t", "0.4", "--method", "inversion"]
    assert run(args + ["--output-path", str(tmp_path / "origin")]) == 2
    err = capsys.readouterr().err
    assert "p_t(0)" in err and "d/alpha" in err and "0.5" in err
    assert not (tmp_path / "origin" / "density.csv").exists()
    assert run(args + ["--x-min", "0.01", "--x-max", "10", "--n", "50",
                       "--output-path", str(tmp_path / "positive")]) == 0
    p = np.loadtxt(tmp_path / "positive" / "density.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.isfinite(p) & (p > 0.0)) and np.all(np.diff(p) < 0.0)


def test_density_inversion_near_threshold_default_grid(tmp_path):
    code = run(["density", "--alpha", "1.5", "--t", "0.7", "--output-path", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "density.csv").exists()


def test_density_inversion_writes_table_and_manifest(tmp_path):
    code = run(["density", "--alpha", "2", "--dim", "1", "--t", "1",
                "--method", "inversion", "--x-min", "-4", "--x-max", "4",
                "--n", "41", "--output-path", str(tmp_path)])
    assert code == 0
    table = (tmp_path / "density.csv").read_text().strip().splitlines()
    assert table[0] == "x,p"
    assert len(table) == 42
    header = json.loads((tmp_path / "density_header.json").read_text())
    assert header["method"] == "Inversion"
    assert header["quadrature_h"] == 1.0 / 80.0 and header["quadrature_nodes"] == 681
    manifest = json.loads((tmp_path / "density_manifest.json").read_text())
    assert manifest["subcommand"] == "density"
    assert manifest["config"]["t"] == 1.0
    assert str(tmp_path / "density.csv") in manifest["outputs"]
    # values match the Laplace closed form
    mid = table[21].split(",")
    assert abs(float(mid[0])) < 1e-12
    assert abs(float(mid[1]) - 0.5) < 1e-8


def test_density_table_and_header_files(tmp_path):
    assert run(["density", "--alpha", "2", "--dim", "1", "--t", "1", "--x-min", "-2",
                "--x-max", "2", "--n", "9", "--output-path", str(tmp_path)]) == 0
    lines = (tmp_path / "density.csv").read_text().strip().splitlines()
    assert lines[0] == "x,p"
    assert len(lines) == 10
    header = json.loads((tmp_path / "density_header.json").read_text())
    assert header["method"] == "Inversion"
    assert header["alpha"] == 2.0
    assert header["seed"] is None
    assert header["quadrature_h"] == 1.0 / 80.0
    assert header["quadrature_nodes"] == 681


def test_mc_subcommands_require_seed(tmp_path, capsys):
    assert run(["sample", "--alpha", "1.5", "--dim", "1", "--t", "1",
                "--n-samples", "100", "--output-path", str(tmp_path)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert run(["density", "--alpha", "1.5", "--dim", "1", "--t", "1",
                "--method", "mc", "--output-path", str(tmp_path)]) == 2


def test_sample_is_seed_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["sample", "--alpha", "1.5", "--dim", "1", "--t", "2",
                    "--n-samples", "500", "--seed", "9", "--output-path", str(out)]) == 0
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()


def test_sample_near_gaussian_d2_writes_no_nan(tmp_path):
    assert run(["sample", "--alpha", "1.999", "--dim", "2", "--n-samples", "1000",
                "--seed", "3", "--output-path", str(tmp_path)]) == 0
    draws = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
    assert draws.shape == (1000, 2) and np.isfinite(draws).all()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.5\ndim = 2\n")
    # file value applies
    assert run(["classify", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "Transient"
    # flag beats file
    assert run(["classify", "--config", str(cfg), "--alpha", "2.0"]) == 0
    assert capsys.readouterr().out.strip() == "Recurrent"


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.5\nbogus = 3\n")
    assert run(["classify", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_symbol_and_kfun_tables(tmp_path):
    assert run(["symbol", "--alpha", "2", "--dim", "1", "--x-min", "0",
                "--x-max", "2", "--n", "5", "--output-path", str(tmp_path)]) == 0
    lines = (tmp_path / "symbol.csv").read_text().strip().splitlines()
    assert lines[0] == "xi,psi"
    xi, psi = (float(v) for v in lines[-1].split(","))
    assert xi == 2.0 and abs(psi - np.log(5.0)) < 1e-12
    assert run(["kfun", "--alpha", "2", "--dim", "1", "--x-min", "1", "--x-max", "2",
                "--n", "3", "--output-path", str(tmp_path)]) == 0
    klines = (tmp_path / "kfunction.csv").read_text().strip().splitlines()
    assert klines[0] == "r,k_value"
    r0, k0 = (float(v) for v in klines[1].split(","))
    assert abs(k0 - np.exp(-r0)) < 1e-9


def test_selfdecomp_certificate(tmp_path, capsys):
    assert run(["selfdecomp", "--alpha", "1.5", "--dim", "1", "--t", "2",
                "--n", "12", "--output-path", str(tmp_path)]) == 0
    assert "monotone_certificate: True" in capsys.readouterr().out
    cert = json.loads((tmp_path / "selfdecomp_certificate.json").read_text())
    assert cert["monotone_certificate"] is True


def test_selfdecomp_kfunction_table_file(tmp_path):
    assert run(["selfdecomp", "--alpha", "1.5", "--dim", "1", "--t", "1", "--x-min", "0.1",
                "--x-max", "2", "--n", "5", "--output-path", str(tmp_path)]) == 0
    lines = (tmp_path / "kfunction_table.csv").read_text().strip().splitlines()
    assert lines[0] == "r,k_value"
    assert len(lines) == 6
    r0, k0 = (float(v) for v in lines[1].split(","))
    assert r0 == pytest.approx(0.1)
    table = verify_selfdecomposable(ProcessSpec(1.5, 1), 1.0, np.geomspace(0.1, 2.0, 5))
    assert k0 == pytest.approx(table.values[0])


def test_k_tables_where_k_underflows(tmp_path, capsys):
    # at alpha = 2, k(r) = e^(-r) rounds to 0.0 past r ~ 745; kfun writes the
    # certificate's own t*k table
    args = ["--alpha", "2", "--dim", "1", "--x-max", "1000", "--n", "48"]
    assert run(["selfdecomp", *args, "--output-path", str(tmp_path / "s")]) == 0
    assert "monotone_certificate: True" in capsys.readouterr().out
    assert run(["kfun", *args, "--output-path", str(tmp_path / "k")]) == 0
    table = (tmp_path / "s" / "kfunction_table.csv").read_text()
    assert (tmp_path / "k" / "kfunction.csv").read_text() == table
    k = np.array([float(line.split(",")[1]) for line in table.strip().splitlines()[1:]])
    assert k[-1] == 0.0 and k[-2] == 0.0 and np.all(k >= 0.0)
    cert = json.loads((tmp_path / "s" / "selfdecomp_certificate.json").read_text())
    assert cert["monotone_certificate"] is True


def test_levy_with_asymptotics_report(tmp_path):
    assert run(["levy", "--alpha", "1.5", "--dim", "1", "--n", "8",
                "--asymptotics", "smallx", "--output-path", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "asymptotic_report.json").read_text())
    assert set(rep) == {"alpha", "dim", "regime", "paper_constant", "oracle_constant",
                        "empirical_limit", "relative_gap_paper", "relative_gap_oracle",
                        "converged"}
    assert rep["regime"] == "SmallX"
    assert rep["relative_gap_paper"] > 0.0
    assert rep["relative_gap_oracle"] < 0.02


@pytest.mark.parametrize("dim, grid", [(3, "--x-min 1e-120 --x-max 1"),
                                       (2, "--x-min 1 --x-max 1e200")])
def test_levy_table_where_r_power_d_leaves_the_float_range(tmp_path, dim, grid):
    # r^d overflows at one end of each grid, where j is inf (d = 3) or 0.0 (d = 2);
    # each value is levy_density at (r, 0, ...), bit for bit
    assert run(["levy", "--alpha", "1.5", "--dim", str(dim), *grid.split(), "--n", "4",
                "--output-path", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "levy_density.csv", delimiter=",", skiprows=1)
    for r, j in rows:
        assert j == levy_density(ProcessSpec(1.5, dim), [r] + [0.0] * (dim - 1))
    assert rows[0, 1] == np.inf if dim == 3 else rows[-1, 1] == 0.0


def test_levy_below_supported_alpha_is_config_error(tmp_path, capsys):
    assert run(["levy", "--alpha", "0.2", "--dim", "1", "--output-path", str(tmp_path)]) == 2
    assert "alpha >= 0.3" in capsys.readouterr().err


def test_levy_at_lowest_supported_alpha(tmp_path):
    # the documented bound: its profile used to ask for ~10 GB
    assert run(["levy", "--alpha", "0.3", "--dim", "1", "--output-path", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "levy_density.csv", delimiter=",", skiprows=1)
    assert rows.shape == (64, 2)
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 1] > 0)


def test_unvalidated_tail_series_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # at u = 1 the alpha = 1.37 power series diverges, so no switch radius validates;
    # d = 1 jump kernels build no profile, so d = 2 asks for one
    monkeypatch.setattr("geostable.stable_kernel._SWITCH_CANDIDATES", (1.0,))
    assert run(["levy", "--alpha", "1.37", "--dim", "2", "--output-path", str(tmp_path)]) == 1
    assert "3e-9" in capsys.readouterr().err


def test_groundstate_run(tmp_path, capsys):
    assert run(["groundstate", "--alpha", "1.5", "--L", "16", "--N", "128",
                "--mu-plus", "indicator:half_width=1,height=0.5",
                "--mu-minus", "indicator:half_width=2,height=1",
                "--output-path", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out
    gs = json.loads((tmp_path / "ground_state.json").read_text())
    assert 0.0 < gs["lambda"] <= 0.26
    assert gs["cg_iterations"] > 0 and f"{gs['cg_iterations']} CG steps" in out
    csv_lines = (tmp_path / "ground_state.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "x,h"
    assert len(csv_lines) == 129


def test_groundstate_files(tmp_path):
    # the default problem: alpha 1.5 on (L, N) = (16, 256), 0.5*1_[-1,1] and 1_[-2,2]
    assert run(["groundstate", "--output-path", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "ground_state.json").read_text())
    assert set(data) >= {"alpha", "L", "N", "lambda", "residual", "iterations",
                         "cg_iterations", "h", "mu_plus", "mu_minus", "seed"}
    assert len(data["h"]) == 256
    assert data["mu_minus"]["support"] == [-2.0, 2.0]
    lines = (tmp_path / "ground_state.csv").read_text().strip().splitlines()
    assert lines[0] == "x,h"
    assert len(lines) == 257


def test_groundstate_csv_measure_matches_profile(tmp_path):
    spec = "indicator:half_width=1,height=0.5"
    m = MeasureOnGrid.from_profile(GridDomain(16.0, 256), "indicator", half_width=1.0, height=0.5)
    path = tmp_path / "mu_plus.csv"
    path.write_text("x,weight\n" + "".join(
        f"{float(x)!r},{float(w)!r}\n" for x, w in zip(m.domain.nodes(), m.weights)))
    lambdas = []
    for name, mu_plus in (("profile", spec), ("csv", f"csv:{path}")):
        assert run(["groundstate", "--mu-plus", mu_plus, "--output-path",
                    str(tmp_path / name)]) == 0
        lambdas.append(json.loads((tmp_path / name / "ground_state.json").read_text())["lambda"])
    assert lambdas[0] == lambdas[1]


def test_groundstate_bad_measure_is_config_error(tmp_path, capsys):
    assert run(["groundstate", "--alpha", "1.5", "--mu-plus", "indicator:half_width=10",
                "--output-path", str(tmp_path)]) == 2
    assert "support" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--tol", "0"], "tol"),
    (["--max-iter", "0"], "max_iter"),
])
def test_groundstate_bad_solver_settings_are_config_errors(tmp_path, capsys, flags, message):
    assert run(["groundstate", *flags, "--output-path", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--dt", "0"], "dt"),
    (["--n-paths", "0"], "n_paths"),
    (["--t", "0.5", "--dt", "0.3"], "integer"),
])
def test_feynman_kac_bad_steps_are_config_errors(tmp_path, capsys, flags, message):
    assert run(["feynman-kac", "--seed", "1", *flags, "--output-path", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_feynman_kac_non_finite_start_is_config_error(tmp_path, capsys):
    assert run(["feynman-kac", "--seed", "1", "--x0", "nan", "--output-path", str(tmp_path)]) == 2
    assert "x0" in capsys.readouterr().err
    assert not (tmp_path / "feynman_kac.json").exists()


def test_feynman_kac_one_path_is_config_error(tmp_path, capsys):
    # one path has no sample variance: its standard error would read 0.0
    assert run(["feynman-kac", "--seed", "1", "--n-paths", "1", "--t", "0.5", "--dt", "0.5",
                "--output-path", str(tmp_path)]) == 2
    assert "n_paths" in capsys.readouterr().err
    assert not (tmp_path / "feynman_kac.json").exists()


def test_density_mc_too_few_samples_is_config_error(tmp_path, capsys):
    assert run(["density", "--method", "mc", "--seed", "1", "--n-samples", "500",
                "--output-path", str(tmp_path)]) == 2
    assert "n_samples" in capsys.readouterr().err


def test_feynman_kac_run(tmp_path, capsys):
    code = run(["feynman-kac", "--alpha", "1.5", "--t", "0.25", "--dt", "0.03125",
                "--n-paths", "2000", "--seed", "5", "--output-path", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "feynman_kac.json").read_text())
    assert 0.0 <= data["estimate"] <= 1.0
    assert data["std_error"] > 0
    assert data["seed"] == 5
    assert run(["feynman-kac", "--alpha", "1.5", "--t", "0.25", "--dt", "0.03125",
                "--n-paths", "2000", "--output-path", str(tmp_path)]) == 2
    assert "--seed" in capsys.readouterr().err


def test_kato_run(tmp_path):
    assert run(["kato", "--alpha", "1.5", "--t-values", "1,0.5,0.1",
                "--output-path", str(tmp_path)]) == 0
    lines = (tmp_path / "kato.csv").read_text().strip().splitlines()
    assert lines[0] == "t,value"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] > vals[1] > vals[2] > 0


def test_verify_core_deterministic_outputs(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["verify", "--suite", "core", "--seed", "42",
                    "--output-path", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    assert (out_a / "verify_core.json").read_bytes() == (out_b / "verify_core.json").read_bytes()


def test_verify_manifest_times_each_check(tmp_path):
    assert run(["verify", "--suite", "core", "--seed", "1", "--output-path", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
    report = json.loads((tmp_path / "verify_core.json").read_text())
    timings = manifest["timings"]
    assert sorted(timings) == sorted(r["name"] for r in report)
    assert all(v > 0 for v in timings.values())
    assert all(set(r) == {"name", "passed", "detail"} for r in report)


def test_verify_unknown_suite(tmp_path, capsys):
    assert run(["verify", "--suite", "nope", "--output-path", str(tmp_path)]) == 2
    assert "suite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "symbol --x-max -1", "levy --x-min 1 --x-max 0", "levy --x-max nan",
    "selfdecomp --x-min 1 --x-max 0.5", "density --x-min 5 --x-max -5",
    "feynman-kac --seed 1 --t nan", "feynman-kac --seed 1 --dt nan", "groundstate --tol nan",
    "symbol --x-max nan", "kfun --t nan", "selfdecomp --t nan", "sample --seed 1 --t nan",
    "density --method mc --seed 1 --t nan", "kato --t-values nan,0.1",
    "symbol --n 0", "levy --n 0", "kfun --n 0", "kfun --t -1",
])
def test_bad_grids_and_non_finite_values_are_config_errors(tmp_path, capsys, argv):
    assert run([*argv.split(), "--output-path", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(tmp_path.iterdir())


def test_classify_takes_no_output_path(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--output-path", str(tmp_path)])
    assert exc.value.code == 2


def test_config_file_values_are_typed_like_flags(tmp_path):
    argv = ["feynman-kac", "--t", "0.25", "--dt", "0.125", "--n-paths", "200"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\n")
    assert run([*argv, "--seed", "7", "--output-path", str(tmp_path / "flag")]) == 0
    assert run([*argv, "--config", str(cfg), "--output-path", str(tmp_path / "file")]) == 0
    flag, file = (tmp_path / "flag", tmp_path / "file")
    assert (flag / "feynman_kac.json").read_bytes() == (file / "feynman_kac.json").read_bytes()
    flag_cfg = json.loads((flag / "feynman_kac_manifest.json").read_text())["config"]
    file_cfg = json.loads((file / "feynman_kac_manifest.json").read_text())["config"]
    del flag_cfg["output_path"], file_cfg["output_path"]
    assert flag_cfg == file_cfg and file_cfg["seed"] == 7


def _readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 11
    for argv in commands:
        assert argv[0] == "geostable"
        assert run(argv[1:]) == 0, argv


@pytest.mark.parametrize("flag, content", [
    ("--config", None), ("--config", "directory"),
    ("--mu-plus", None), ("--mu-plus", ""), ("--mu-plus", "x,weight\n0.5\n"),
    ("--mu-plus", "x,weight\n0,abc\n"), ("--mu-plus", "x,weight\nnan,1\n"),
    ("--mu-plus", "x,weight\n0,inf\n"),
], ids=["config-missing", "config-directory", "csv-missing", "csv-empty", "csv-one-column",
        "csv-not-a-number", "csv-nan-x", "csv-inf-weight"])
def test_file_errors_are_config_errors(tmp_path, capsys, flag, content):
    path = tmp_path / "input"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    value = str(path) if flag == "--config" else f"csv:{path}"
    out = tmp_path / "out"
    assert run(["groundstate", flag, value, "--output-path", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "new" / "dir"
    assert run(["groundstate", "--mu-plus", "indicator:half_width=100",
                "--output-path", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "new").exists()


def test_only_cli_touches_files():
    # the library returns data; cli.py owns every file format and every open()
    file_methods = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
    offenders = []
    for path in sorted((Path(__file__).parents[1] / "src" / "geostable").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call):
                func = node.func
                names = ["open()"] if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr in file_methods) else []
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {n}" for n in names
                          if n.split(".")[0] in ("csv", "json", "open()")]
    assert not offenders
