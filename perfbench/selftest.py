"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py

They check that each oracle rejects a perturbed output, that two runs at one
seed repeat counts and Monte Carlo estimates exactly, and that tracing
changes no job output, nor does the speed probe.  The run-level tests start the benchmark four times
and take about two minutes.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def _job(builder, name, seed=3):
    return next(j for j in builder(seed, str(HERE / "out")) if j.name == name)


def _scaled(kept, factor):
    return kept * factor


def _table_scaled(table, factor):
    table.values = table.values * factor
    return table


def _draws_scaled(job):
    return job.keep(1.05 * job.run())


def _fk_shifted(kept):
    est, se = kept
    return est + 20.0 * se, se


def _result_scaled(res, factor):
    res.lambda_ *= factor
    return res


PERTURBED = [
    (workloads.quadrature, "levy_density:2.0:1", lambda job, k: _scaled(k, 1 + 1e-6)),
    (workloads.quadrature, "inversion_table:1.5:1:t=2.0", lambda job, k: _table_scaled(k, 1 + 1e-6)),
    (workloads.quadrature, "cdf_numeric:1.5:1:t=2", lambda job, k: k + 1e-7),
    (workloads.quadrature, "polar_levy_mass:2.0:1", lambda job, k: _scaled(k, 1 + 1e-4)),
    (workloads.torus, "solve_ground_state:reference:256", lambda job, k: _result_scaled(k, 1 + 1e-6)),
    (workloads.torus, "solve_ground_state:1.5:1024", lambda job, k: _result_scaled(k, 1 + 1e-6)),
    (workloads.torus, "kato_diagnostic:reference", lambda job, k: k + 1e-6),
    (workloads.monte_carlo, "sample_increment:1.5:1", lambda job, k: _draws_scaled(job)),
    (workloads.monte_carlo, "feynman_kac_estimate:reference", lambda job, k: _fk_shifted(k)),
]


@pytest.mark.parametrize("builder,name,perturb", PERTURBED, ids=[p[1] for p in PERTURBED])
def test_perturbed_output_fails_its_check(builder, name, perturb):
    job = _job(builder, name)
    ok, detail = job.check(job.keep(job.run()))
    assert ok, detail
    ok, detail = job.check(perturb(job, job.keep(job.run())))
    assert not ok, f"perturbed output passed: {detail}"


def _bench(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    return result, record


@pytest.fixture(scope="module", params=["torus", "monte-carlo"])
def two_runs(request):
    return [_bench(request.param, 11) for _ in range(2)]


COUNTS = ["stable_kernel.profiles_built", "levy_structure.k_radial_calls",
          "schrodinger_ground.outer_iterations", "schrodinger_ground.cg_iterations",
          "stable_kernel.draws", "schrodinger_ground.fk_path_steps", "transition_density.kde_pairs"]


def _digests(session):
    return [(j["name"], j["digest"]) for j in session["jobs"]]


def test_same_seed_repeats_counts_and_estimates(two_runs):
    (first, rec1), (second, rec2) = two_runs
    assert first["correct"] and second["correct"], rec1["problems"] + rec2["problems"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert any(first["metrics"][name]["value"] > 0 for name in COUNTS)
    assert _digests(rec1["sessions"][0]) == _digests(rec2["sessions"][0])


def test_tracing_changes_no_output(two_runs):
    _, record = two_runs[0]
    plain = [s for s in record["sessions"] if not s["trace"]]
    traced = [s for s in record["sessions"] if s["trace"]]
    assert plain and traced
    for s in traced:
        assert _digests(s) == _digests(plain[0])
    assert np.isfinite(record["metrics"]["trace.overhead_s"]["value"])


_DIGESTS_WITHOUT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
out = []
for job in workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), sys.argv[4]):
    try:
        out.append([job.name, workloads.fingerprint(job.keep(job.run()))])
    except Exception:
        out.append([job.name, None])
print(json.dumps(out))
"""


def test_speed_probe_changes_no_output(two_runs):
    """Workers run every job under the SIGALRM speed probe; this runs them without it."""
    import run
    _, record = two_runs[0]
    out = subprocess.run(
        [sys.executable, "-c", _DIGESTS_WITHOUT_PROBE, str(HERE), record["workload"],
         str(record["seed"]), str(HERE / "out")],
        cwd=ROOT, env=run._worker_env(), capture_output=True, text=True, timeout=300, check=True)
    plain = [tuple(pair) for pair in json.loads(out.stdout.strip().splitlines()[-1])]
    assert plain == _digests(record["sessions"][0])
