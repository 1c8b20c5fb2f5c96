"""Run-to-run spread of the benchmark over several seeds.

Run from the repository root::

    python3 bench/spread.py --seeds 1-5 --workload family-edge
    python3 bench/spread.py --seeds 11-20 --traced --write bench/BENCH_baseline.json

It runs the command in ``BENCHMARK.json`` once per workload and seed, one
run at a time, with ``run_seconds`` from that file.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, next to the metric's bound.
``--traced`` adds one traced run per workload at the first seed;
``--write`` saves everything as a baseline record.  Exits non-zero if a
run fails, or if a spread other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [
        *spec["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"spread: {workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"spread: {workload} seed {seed} failed its correctness gate")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    end_to_end, per_layer, too_wide = {}, {}, []
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, workload, seed, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v:.4f}" for k, v in sorted(runs[-1].items())), flush=True)
        end_to_end[workload] = {
            name: summarize([r[name] for r in runs]) for name in sorted(bounds)
        }
        for name, stats in end_to_end[workload].items():
            spread, bound = stats["iqr_over_median"], bounds[name]
            mark = "" if spread <= bound / 3 else " above a third of the bound"
            if spread > bound and name != "setup_s":
                mark = " ABOVE THE BOUND"
                too_wide.append(f"{workload}/{name}")
            print(f"  {name:<14} median {stats['median']:.4f}  q1 {stats['q1']:.4f}  "
                  f"q3 {stats['q3']:.4f}  spread {spread:.3f} (bound {bound}){mark}")
        if args.traced:
            per_layer[workload] = {
                "seed": seeds[0], "per_layer": run_once(spec, workload, seeds[0], 1)
            }

    if args.write:
        record = {
            "what": f"{len(seeds)} untraced runs per workload, one seed each"
            + (", plus one traced run per workload" if args.traced else ""),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "commit": run.read_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        args.write.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if too_wide:
        print("spread above the bound: " + ", ".join(too_wide))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
