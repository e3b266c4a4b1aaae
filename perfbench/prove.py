"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads desk-train,paper-step] [--out FILE]

Each run is its own process, started one after another with the
``run_seconds`` of BENCHMARK.json. For every workload and end-to-end metric
this prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median next to the metric's bound; a spread at or
above a third of the bound is marked. ``--out`` writes the same figures,
with the machine record of the first run, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """The result line of one run, and the run's wall time in seconds."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs, walls = [], []
        for seed in seeds:
            result, wall = run_once(name, seed, spec["run_seconds"])
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} seed {seed} failed its checks: {result}")
            runs.append(result)
            print(f"{name} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            rows[m["name"]] = summarize([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
            s = rows[m["name"]]
            mark = "" if s["steady"] or m["name"] == "setup_s" else "  <-- above bound/3"
            print(f"  {name} {m['name']}: median {s['median']:.6g} {m['unit']}, "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){mark}", flush=True)
        report["workloads"][name] = {"run_wall_s": walls, "metrics": rows}
    if args.out:
        first = os.path.join(ROOT, ".perfbench_out", f"{names[0]}-seed{seeds[0]}-trace0.json")
        with open(first) as fh:
            report["machine"] = json.load(fh)["machine"]
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
