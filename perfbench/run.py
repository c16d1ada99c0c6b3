"""geostable benchmark: four user sessions timed end to end, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 20 --trace 0

Workloads: quadrature, torus, monte-carlo, verify-all (see workloads.py).
Every session runs in a fresh worker interpreter that imports geostable from
./src, so caches start cold as they do for a script or a CLI call.  Sessions
repeat until --seconds have been spent (at least one).  With --trace 1 the
run alternates untraced and traced sessions; the traced ones give per-layer
metrics and the difference in wall time gives the tracing overhead.

The host's cores change speed by up to 1.5x within seconds and minutes, which
spread raw times by 25-40% between runs of the same code.  So the worker
times a small probe loop every 10 ms (SpeedProbe in worker.py), and both times
below are rescaled to a core on which that loop takes NOMINAL_PROBE_S: each
span is multiplied by NOMINAL_PROBE_S / (mean probe time during the span).
The raw times are printed too and kept in the run record.

End-to-end metrics (--trace 0), medians over the run's sessions:
  setup_s      fresh interpreter until `import geostable` returns, rescaled
               (median of several start-ups, including import-only ones)
  norm_wall_s  sum of the timed job calls, each rescaled; oracle checks are
               not timed
  peak_rss_mb  max RSS of the worker after its last job
  pass_ratio   jobs (verify-all: acceptance checks) that passed their oracle,
               over jobs attempted; known defects count as failures

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  `correct` is false if any job fails that is not a recorded
known defect, or if repeated sessions (traced or not) disagree on any output.
A fuller record, with the environment and every job, is written to
perfbench/out/<workload>-seed<S>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("quadrature", "torus", "monte-carlo", "verify-all")
IMPORT_ONLY_STARTS = 2
# Times are rescaled to a core on which the worker's probe loop takes this long
# (an unhurried core of the 2.1 GHz Xeon the benchmark was tuned on); see
# SpeedProbe in worker.py.
NOMINAL_PROBE_S = 60e-6
WORKER_TIMEOUT_S = 150



class WorkerError(RuntimeError):
    pass


def _nproc():
    return len(os.sched_getaffinity(0))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread (<= nproc): on a 2-core machine a second OpenBLAS thread
    # spins between calls and competes with the interpreter, which made wall
    # times spread 2-3x wider without making them shorter.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, env):
    """Start a worker; return (set-up seconds, rescaled set-up seconds, parsed last JSON line or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} timed out after {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ready = first.split()
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    result = json.loads(lines[-1]) if lines and "--import-only" not in args else None
    return setup, setup * NOMINAL_PROBE_S / float(ready[1]), result


def run(workload, seed, seconds, trace, declared):
    nproc = _nproc()
    env = _worker_env()
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # import-only start-ups before and after the sessions, so set-up samples span the run
    setups = [_spawn(["--import-only"], env)[:2] for _ in range(IMPORT_ONLY_STARTS)]
    sessions = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            session_dir = run_dir / f"session-{len(sessions)}"
            session_dir.mkdir()
            *setup, result = _spawn(["--workload", workload, "--seed", str(seed),
                                    "--trace", str(int(traced)), "--out-dir", str(session_dir)], env)
            setups.append(setup)
            sessions.append(result)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    setups += [_spawn(["--import-only"], env)[:2] for _ in range(IMPORT_ONLY_STARTS)]

    problems = []
    src = str(ROOT / "src")
    for s in sessions:
        if not s["env"]["geostable"].startswith(src):
            problems.append(f"geostable imported from {s['env']['geostable']}, not {src}")
        for job in s["jobs"]:
            if not job["ok"] and not job["known_defect"]:
                problems.append(f"{job['name']}: {job['detail']}")
    for i, job in enumerate(sessions[0]["jobs"]):
        digests = {s["jobs"][i]["digest"] for s in sessions}
        if len(digests) != 1:
            problems.append(f"{job['name']}: outputs differ between sessions {sorted(map(str, digests))}")

    attempted = sum(j["attempted"] for s in sessions for j in s["jobs"])
    failed = sum(j["failed"] for s in sessions for j in s["jobs"])
    plain = [s for s in sessions if not s["trace"]]
    median = statistics.median
    for s in sessions:
        s["norm_wall_s"] = sum(j["elapsed_s"] * NOMINAL_PROBE_S / j["probe_s"] for j in s["jobs"])
    end_to_end = {
        "setup_s": median(norm for _, norm in setups),
        "norm_wall_s": median(s["norm_wall_s"] for s in plain),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in plain),
        "pass_ratio": 1.0 - failed / attempted,
    }
    if trace:
        traced = [s for s in sessions if s["trace"]]
        values = {name: median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (median(s["norm_wall_s"] for s in traced)
                                      - end_to_end["norm_wall_s"])
    else:
        values = end_to_end
    units = declared["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise WorkerError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    wall = median(s["wall_s"] for s in plain)
    fk = [s["fk_time_to_se_s"] for s in plain if "fk_time_to_se_s" in s]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {"nproc": nproc, "cpu_model": _cpu_model(), **sessions[0]["env"], "seed": seed},
        "end_to_end": end_to_end,
        "wall_s": wall,
        "setup_raw_s": median(raw for raw, _ in setups),
        "fail_ratio": failed / attempted,
        "fk_time_to_se_s": median(fk) if fk else None,
        "setup_samples_s": setups,
        "problems": problems,
        "metrics": metrics,
        "sessions": sessions,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"# {workload} seed={seed} sessions={len(sessions)} nproc={nproc} "
          f"blas={record['env']['blas']} x{record['env']['blas_threads']}")
    for name, value in end_to_end.items():
        print(f"{name:<14} {value:.6g} {declared['end_to_end'][name]}")
    print(f"{'setup_raw_s':<14} {record['setup_raw_s']:.6g} s (not rescaled)")
    print(f"{'wall_s':<14} {wall:.6g} s (not rescaled)")
    print(f"{'fail_ratio':<14} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if fk:
        print(f"{'fk_time_to_se_s':<14} {median(fk):.6g} s")
    if trace:
        for name, m in metrics.items():
            print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"problem: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geostable" / "__init__.py").is_file():
        print(f"no geostable sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}
    # a terminated run still stops its worker (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), declared)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
