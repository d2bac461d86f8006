"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload topo_coarse --seed 1 --seconds 60 --trace 0

Run from the repository root; the package is imported from ./src. The run
builds the problem SETUP_REPS times, then repeats the workload body, every
time with the same seed so that each repetition's outputs must match the
first's bit for bit, until the next repetition would end after --seconds
(at least MIN_REPS times). Between repetitions it takes further set-up
samples for up to SETUP_GAP_S, so that the set-up median draws on the whole
run. Artifacts, a result file and, when traced, the spans go to
.perfbench/<workload>/.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones plus
the tracing overhead (traced minus untraced run_s). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
SETUP_GAP_S = 1.0
MIN_REPS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def blas_info():
    """Library name and thread count of the OpenBLAS builds numpy and scipy bundle."""
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    info = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            entry = {"library": Path(path).name}
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    entry["threads"] = fn()
                    break
            info[pkg.__name__] = entry
    cfg = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["numpy_build"] = f"{cfg.get('name')} {cfg.get('version')}"
    return info


def environment():
    import numpy as np
    import scipy
    from vbdesign import topo_prior

    return {
        "compiled_kernel": topo_prior.COMPILED_KERNEL,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def timings(tracer, t_end):
    """End-to-end times of one repetition, cut at the probe spans."""
    build = tracer.first("cli.build_problem")
    directions = tracer.first("vb.sensitive_directions")
    nkl = tracer.first("validation.estimate_nKL")
    return {
        "setup_s": build[2] - build[1],
        "run_s": t_end - build[2],
        "directions_s": directions[2] - build[2],
        "solves_per_s": nkl[4]["forward_calls"] / (nkl[2] - nkl[1]),
    }


def setup_samples(wl, count, seconds, expected=0.0):
    """Time wl.setup() at least count times, then while the next call is
    expected to end within seconds of the first; expected is the duration
    assumed before any call has been timed here."""
    samples = []
    t_begin = time.perf_counter()
    while len(samples) < count or (
            time.perf_counter() + max(samples, default=expected) <= t_begin + seconds):
        t0 = time.perf_counter()
        wl.setup()
        samples.append(time.perf_counter() - t0)
    return samples


def measure(wl, seconds, traced, workdir):
    import spans

    t_begin = time.perf_counter()
    setups = setup_samples(wl, SETUP_REPS, 0.0)
    reps = []
    longest = 0.0
    span_file = open(workdir / "spans.jsonl", "w") if traced else None
    try:
        while True:
            k = len(reps)
            is_traced = traced and k % 2 == 1
            tracer = spans.Tracer(spans.FULL_TARGETS if is_traced else spans.PROBE_TARGETS)
            rep_dir = workdir / f"rep{k}"
            rep = {"rep": k, "traced": is_traced, "failures": []}
            result = None  # free the last repetition's model, so peak RSS is one repetition's
            if k:
                setups += setup_samples(wl, 0, SETUP_GAP_S, statistics.median(setups))
            t0 = time.perf_counter()
            try:
                with tracer:
                    result = wl.body(rep_dir)
                t1 = time.perf_counter()
                outcome = wl.check(result, rep_dir)
                rep.update(timings(tracer, t1), forward_calls=outcome.forward_calls,
                           digest=outcome.digest, notes=outcome.notes)
                rep["failures"] += outcome.failures
                first = next((r for r in reps if "digest" in r), None)
                if first is not None and (first["digest"] != outcome.digest
                                          or first["forward_calls"] != outcome.forward_calls):
                    rep["failures"].append(f"outputs differ from repetition {first['rep']} "
                                           "with the same seed")
                if is_traced:
                    rep["layers"] = spans.layer_metrics(tracer.spans)
                    tracer.write(span_file, k)
            except Exception as exc:  # a failed repetition is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                rep["failures"].append(f"{type(exc).__name__}: {exc}")
            reps.append(rep)
            longest = max(longest, time.perf_counter() - t0)
            if (len(reps) >= MIN_REPS
                    and time.perf_counter() + SETUP_GAP_S + longest > t_begin + seconds):
                break
    finally:
        if span_file is not None:
            span_file.close()
    return setups, reps


def median_of(reps, key):
    vals = [r[key] for r in reps if key in r]
    return statistics.median(vals) if vals else None


def end_to_end(setups, reps):
    ok = [r for r in reps if not r["failures"] and not r["traced"]]
    setups = setups + [r["setup_s"] for r in ok]
    m = {"setup_s": (statistics.median(setups), "s")}
    for key, unit in (("run_s", "s"), ("directions_s", "s"), ("solves_per_s", "1/s"),
                      ("forward_calls", "count")):
        m[key] = (median_of(ok, key), unit)
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m, len(setups)


def per_layer(reps):
    ok = [r for r in reps if not r["failures"]]
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    if not traced or not untraced:
        return {}
    m = {}
    for name, (_, unit) in traced[0]["layers"].items():
        m[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
    m["trace.overhead_s"] = (median_of(traced, "run_s") - median_of(untraced, "run_s"), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "vbdesign" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: with a second one, repetitions of identical work on a
    # 2-vCPU shared host differed by up to 20%, for no gain in speed.
    # Must be set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import vbdesign
    if Path(vbdesign.__file__).resolve().parent != SRC / "vbdesign":
        print(f"perfbench: imported vbdesign from {vbdesign.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    env = environment()
    setups, reps = measure(wl, args.seconds, bool(args.trace), workdir)
    failed = sum(1 for r in reps if r["failures"])
    e2e, n_setup = end_to_end(setups, reps)
    layers = per_layer(reps) if args.trace else {}

    ok = [r for r in reps if not r["failures"]]
    digest = hashlib.sha256(json.dumps(ok[0]["digest"], sort_keys=True).encode()).hexdigest() \
        if ok else None
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)} "
          f"(traced {sum(r['traced'] for r in reps)})  setup samples {n_setup}")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"  {name:36s} {value!r} {unit}")
    print(f"  {'failed_fraction':36s} {failed / len(reps)!r} ({failed}/{len(reps)})")
    print(f"  artifact digest {digest}")
    for r in reps:
        if "run_s" in r:
            print(f"  rep {r['rep']}{' traced' if r['traced'] else ''}: "
                  + "  ".join(f"{k} {r[k]:.6g}" for k in ("setup_s", "run_s", "directions_s",
                                                          "solves_per_s")))
        for line in r["failures"]:
            print(f"  FAILED rep {r['rep']}: {line}")
        for line in r.get("notes", []):
            print(f"  note rep {r['rep']}: {line}")
    for key, value in env.items():
        print(f"  env.{key} = {value}")

    (workdir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples": setups,
        "reps": reps, "artifact_digest": digest,
        "metrics": {k: v for k, (v, _) in {**e2e, **layers}.items()},
    }, indent=1, default=str))

    chosen = layers if args.trace else e2e
    if not chosen or any(v is None for v, _ in chosen.values()):
        print("perfbench: no successful repetition to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
