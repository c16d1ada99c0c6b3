"""One benchmark session in a fresh interpreter, so every cache starts cold.

Started by run.py.  The first line on stdout is "ready" and the mean probe
time during the import (see SpeedProbe), printed as soon as `import geostable`
has finished: the parent times set-up up to that line.
With --import-only the worker stops there.  Otherwise it runs the workload's jobs in
sequence, timing each library call, then checks every output against its
oracle and prints one JSON object as its last line.  The library may print
in between (the CLI does).
"""
import signal
import sys
import time

PROBE_PERIOD_S = 0.01
PROBE_LOOPS = 1000
PROBE_WINDOW_S = 0.25


class SpeedProbe:
    """Samples how fast this CPU runs, from set-up to the last job.

    The benchmark shares a host whose cores change speed by up to 1.5x from
    one second to the next and from one minute to the next, with no steal
    time reported to the guest.  Every PROBE_PERIOD_S a SIGALRM handler times
    a fixed loop of interpreter work (about 70 us, so under 1% of the run).
    run.py rescales each timed span by the mean loop time seen during it.  The
    handler touches nothing the library uses, so it changes no job output.
    """

    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, *_):
        perf = time.perf_counter
        t0 = perf()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += i * 0.5
        self.starts.append(t0)
        self.durations.append(perf() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_between(self, t0, t1):
        """Mean loop time in [t0, t1], widened by PROBE_WINDOW_S for spans too short to hold samples."""
        for lo, hi in ((t0, t1), (t0 - PROBE_WINDOW_S, t1 + PROBE_WINDOW_S)):
            picked = [d for s, d in zip(self.starts, self.durations) if lo <= s <= hi]
            if len(picked) >= 3:
                return sum(picked) / len(picked)
        return sum(self.durations) / len(self.durations)


PROBE = SpeedProbe()
PROBE.start()
_t_import = time.perf_counter()
import geostable  # noqa: E402,F401  (set-up ends with this import)

print("ready", PROBE.mean_between(_t_import, time.perf_counter()), flush=True)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _blas_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = int(fn())
            break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def run_session(workload, seed, trace, out_dir):
    import numpy
    import scipy

    import tracing
    import workloads

    jobs = workloads.WORKLOADS[workload](seed, out_dir)
    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
    perf = time.perf_counter
    timed = []
    probe = PROBE
    for job in jobs:
        tracer.active = trace
        t0 = perf()
        try:
            out, error = job.run(), None
        except Exception as exc:  # a raising job is a failed job, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf()
        elapsed = t1 - t0
        tracer.active = False
        kept = None
        if error is None:
            try:
                kept = job.keep(out)
            except Exception as exc:
                error = f"{type(exc).__name__} reading output: {exc}"
        del out
        timed.append((job, elapsed, kept, error, (t0, t1)))
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = []
    for job, elapsed, kept, error, span in timed:
        t0 = perf()
        if error is None:
            try:
                ok, detail = job.check(kept)
            except Exception as exc:
                ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, detail = False, error
        attempted, failed = job.tally(kept) if job.tally else (1, 0 if ok else 1)
        records.append({
            "name": job.name, "elapsed_s": elapsed, "probe_s": probe.mean_between(*span),
            "ok": bool(ok), "detail": detail,
            "known_defect": job.known_defect, "attempted": attempted, "failed": failed,
            "digest": workloads.fingerprint(kept) if error is None else None,
            "check_s": perf() - t0,
        })

    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "wall_s": sum(r["elapsed_s"] for r in records),
        "peak_rss_mb": peak_rss_mb,
        "probe_mean_s": sum(probe.durations) / len(probe.durations),
        "jobs": records,
        "env": {"geostable": geostable.__file__,
                "python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, **_blas_info()},
    }
    for job, elapsed, kept, error, _ in timed:
        if job.name.startswith("feynman_kac_estimate") and error is None:
            # seconds to reach standard error 1e-3 at this job's cost per path
            result["fk_time_to_se_s"] = elapsed * (kept[1] / 1e-3) ** 2
    if trace:
        from geostable import acceptance
        result["layers"] = tracing.layer_metrics(tracer, list(acceptance.CHECKS))
        result["spans"] = tracer.dump()
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out-dir")
    args = parser.parse_args()
    if args.import_only:
        PROBE.stop()
        return 0
    result = run_session(args.workload, args.seed, bool(args.trace), args.out_dir)
    spans = result.pop("spans", None)
    if spans is not None:
        path = os.path.join(args.out_dir, "spans.json")
        with open(path, "w") as fh:
            json.dump(spans, fh)
        result["spans_file"] = path
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
