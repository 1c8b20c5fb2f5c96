"""Self-test of the benchmark harness on a tiny instance list.

Run from the repository root (about 20 s)::

    python3 bench/selftest.py

It checks that every metric named in ``BENCHMARK.json`` is emitted, in the
untraced and the traced run, that clean runs (canonical and relabeled, one
and two workers) pass the gate, and that a deliberately wrong pinned value
is caught (``failed_ratio`` > 0).  Exits non-zero on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads
from workloads import RoundTrip, Solve, Table, Workload

TINY = (
    Solve("chain", 3, "edge", 6, (0, 1, 4, 5, 7, 8), 1),
    Solve("chain", 3, "vertex", 5, (0, 1, 4, 7, 8), 429),
    Table("chain", 1, 5),
    Table("cyclic", 3, 5),
    RoundTrip("cyclic", 5),
)
WRONG_PIN = (Solve("chain", 3, "edge", 7, (0, 1, 4, 5, 7, 8), 1),)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")
    print(f"selftest: ok: {message}")


def run_tiny(silires, import_s, workload, seed, trace):
    with contextlib.redirect_stdout(io.StringIO()):
        record, summary, attempted, failures = run.run_workload(
            silires, import_s, workload, seed, 0.0, trace
        )
        result = run.report(record, summary, attempted, failures, trace)
    return result, record


def main() -> int:
    silires, import_s = run.import_silires()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    check(end_to_end == set(run.END_TO_END), "BENCHMARK.json lists the end-to-end metrics")
    check(per_layer == set(run.PER_LAYER), "BENCHMARK.json lists the per-layer metrics")
    check(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json lists the workloads",
    )

    tiny = Workload("selftest", "tiny", TINY)
    for seed in (0, 1):
        result, _ = run_tiny(silires, import_s, tiny, seed, trace=False)
        check(set(result["metrics"]) == end_to_end, f"seed {seed}: every end-to-end metric emitted")
        check(result["failed"] == 0 and result["correct"], f"seed {seed}: clean run passes the gate")

    result, record = run_tiny(silires, import_s, tiny, 1, trace=True)
    check(set(result["metrics"]) == per_layer, "traced run emits every per-layer metric")
    check(result["failed"] == 0, "traced run passes the gate")
    layers = record["per_layer"]
    check(layers["resolving.verify_calls"] > 0 and layers["graphs.bfs_calls"] > 0, "spans are recorded")
    check(abs(layers["trace.unaccounted_s"]) < 0.05 * layers["trace.wall_s"], "layer self times reconcile to the traced wall time")

    pool = Workload("selftest-pool", "tiny", TINY[:2], check_workers=2, copies=2)
    result, record = run_tiny(silires, import_s, pool, 1, trace=True)
    check(result["failed"] == 0, "2-worker certificates match the 1-worker bytes")
    check(record["per_layer"]["solver.worker_cpu_s"] > 0, "pool worker CPU is measured on the 2-worker pass")

    wrong = Workload("selftest-wrong", "tiny", TINY[:1] + WRONG_PIN)
    result, record = run_tiny(silires, import_s, wrong, 0, trace=False)
    check(record["failed_ratio"] > 0 and not result["correct"], "a wrong pinned dimension makes failed_ratio > 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
