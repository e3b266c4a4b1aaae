"""Run one topodesc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 60 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last stdout line is a JSON object holding every
``end_to_end`` metric of BENCHMARK.json; with ``--trace 1`` it holds every
``per_layer`` metric instead, from spans recorded around the package's
public functions. The full record of the run (machine, sample counts,
digests, checks, and the spans of a traced run) is written under
``.perfbench_out/``. Exits non-zero without a result when the package or
BENCHMARK.json cannot be loaded.
"""

import os

# Fixed before numpy is first imported, so BLAS starts with one thread and a
# run's load is this one process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import tracing
        import workloads
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot load the benchmark: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        inputs, setup_times = workloads.timed_setup(
            wl, args.seed, workdir, tracer, workloads.SETUP_REPS
        )
        spare = os.path.join(workdir, "spare")
        os.makedirs(spare)

        # More set-ups between timed calls spread the set-up samples over the
        # whole run, as the machine's speed drifts during it.
        def between():
            setup_times.extend(workloads.timed_setup(
                wl, args.seed, spare, tracer, workloads.SETUP_REPS_BETWEEN
            )[1])

        out = workloads.run_training_workload(
            wl, inputs, args.seed, args.seconds, tracer, workdir, between
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy as np

    if not out.op_ms:
        print("error: no operation completed in the timed loop", file=sys.stderr)
        return 1
    tail = float(np.percentile(out.op_ms, wl.tail_pct))
    details = {
        "op_samples": len(out.op_ms),
        "op_ms_tail": tail,
        "tail_pct": wl.tail_pct,
        "tail_samples_beyond": int(np.count_nonzero(np.asarray(out.op_ms) > tail)),
        "op_ms": out.op_ms,
        **out.details,
    }
    if args.trace:
        values = tracing.layer_metrics(tracer, "train.step", out.op_ms)
        specs = spec["per_layer"]
        tracer.write_csv(os.path.join(OUT_DIR, f"{tag}-spans.csv"))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_ms_p50": float(np.median(out.op_ms)),
            "pairs_per_s": out.pairs / out.loop_s,
            "peak_rss_mb": out.peak_rss_mb,
        }
        specs = spec["end_to_end"]
    mismatch = {s["name"] for s in specs} ^ set(values)
    if mismatch:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}", file=sys.stderr)
        return 2
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"workload": wl.name, "why": wl.why, "seed": args.seed,
                   "seconds": args.seconds, "machine": machine_record(),
                   "details": details, **result}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
