"""Benchmark of the silires command line: exact solves and construct/verify.

Run from the repository root::

    python3 bench/run.py --workload family-edge --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0

Every command goes through ``silires.cli.main(argv)`` in this process, over
inputs written to ``bench/out/``.  Set-up (imports, input files, warm-up)
is timed apart from the measured passes.  Passes repeat (at least twice)
while another one fits in ``--seconds``; every pass is gated for
correctness outside its timed region.  A speed sample (``speed.py``) is
taken before and after each command, and the end-to-end times are scaled
to the reference host speed by it; the raw times are printed beside them.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one extra traced pass.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in a fresh process of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import process as futures_process
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); began = time.perf_counter(); "
    "import silires.cli; print(time.perf_counter() - began)"
)
MIN_PASSES = 2
DRAIN_TIMEOUT_S = 120.0
EXIT_OK = 0  # every benchmarked command succeeds: resolving sets, optimal solves

END_TO_END = {
    "wall_s": "s",
    "slowest_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.search_self_s": "s",
    "solver.subsets_examined": "count",
    "solver.evaluations_per_s": "1/s",
    "solver.solve_s": "s",
    "solver.masks_s": "s",
    "solver.mask_count": "count",
    "solver.worker_cpu_s": "s",
    "solver.pool_drain_s": "s",
    "resolving.verify_calls": "count",
    "resolving.verify_s": "s",
    "resolving.landmark_rows_s": "s",
    "resolving.code_table_s": "s",
    "resolving.dup_scan_s": "s",
    "graphs.bfs_calls": "count",
    "graphs.bfs_s": "s",
    "graphs.build_graph_s": "s",
    "graphs.apsp_s": "s",
    "structure.find_tetrahedra_s": "s",
    "structure.find_twins_s": "s",
    "structure.classify_s": "s",
    "structure.classify_calls": "count",
    "silicates.build_s": "s",
    "construction.construct_s": "s",
    "serialization.parse_s": "s",
    "serialization.format_s": "s",
    "serialization.json_s": "s",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def import_silires():
    """Import silires from this checkout's ``src``; exit non-zero without it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import silires
        import silires.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import silires from {src}: {exc}")
    elapsed = time.perf_counter() - start
    if Path(silires.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: silires was imported from {silires.__file__}, not {src}")
    return silires, elapsed


def import_samples(reps: int) -> list:
    """Seconds to import silires, each in a fresh interpreter."""
    samples = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout))
    return samples


def cpu_seconds() -> tuple[float, float]:
    """(user+sys of this process, user+sys of its reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def drain_pool_workers() -> None:
    """Wait until every process pool started by a command has ended.

    The solver shuts its pool down without waiting; a CLI process would
    still wait for the workers at exit, so the wait belongs to the command.
    """
    for thread in threading.enumerate():
        if isinstance(thread, futures_process._ExecutorManagerThread):
            thread.join(DRAIN_TIMEOUT_S)
    for child in multiprocessing.active_children():
        child.join(DRAIN_TIMEOUT_S)
    if multiprocessing.active_children():
        raise RuntimeError("pool workers still running after the drain timeout")


@dataclass
class PassResult:
    times: list  # wall seconds of each command
    cpus: list  # CPU seconds of each command, pool workers included
    calibration: list  # speed samples: before the first command and after each
    codes: list
    worker_cpu: float
    drain: float  # waiting for pool workers to exit
    subsets: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def scaled_wall(self) -> float:
        return sum(t * f for t, f in zip(self.times, self.factors()))

    def factors(self) -> list:
        """Per command: reference speed over the speed measured around it."""
        c = self.calibration
        return [speed.factor(c[i], c[i + 1]) for i in range(len(self.times))]


def run_pass(cli, commands, tracer=None) -> PassResult:
    times, cpus, codes = [], [], []
    calibration = [speed.sample()]
    drained = worker_cpu = 0.0
    for command_id, command in enumerate(commands):
        own0, kids0 = cpu_seconds()
        began = time.perf_counter()
        root = tracer.command(command_id) if tracer else contextlib.nullcontext()
        drain = (
            tracer.span(spans.POOL_DRAIN_SPAN, "solver")
            if tracer
            else contextlib.nullcontext()
        )
        with contextlib.redirect_stdout(io.StringIO()), root:
            try:
                code = cli.main(command.argv)
            except Exception as exc:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                code = f"raised {exc!r}"
            with drain:
                drain_began = time.perf_counter()
                drain_pool_workers()
                drained += time.perf_counter() - drain_began
        times.append(time.perf_counter() - began)
        own1, kids1 = cpu_seconds()
        cpus.append((own1 - own0) + (kids1 - kids0))
        worker_cpu += kids1 - kids0
        codes.append(code)
        calibration.append(speed.sample())
    return PassResult(times, cpus, calibration, codes, worker_cpu, drained)


def gate(commands, result: PassResult, first_bytes: dict) -> None:
    """Check every output of one pass; record failures and solve counts."""
    for command, code in zip(commands, result.codes):
        errors = []
        if code != EXIT_OK:
            errors.append(f"exit code {code}, expected {EXIT_OK}")
        else:
            try:
                errors += command.check()
                data = Path(command.output).read_bytes()
                if command.argv[0] == "solve":
                    stats = json.loads(data)["stats"]
                    result.subsets[command.name] = stats["subsets_examined"]
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                errors.append(f"unreadable output: {exc!r}")
            else:
                if data != first_bytes.setdefault(command.output, data):
                    errors.append("output bytes differ from the first pass")
        if errors:
            result.failures.append(f"{command.name} ({command.argv[0]}): " + "; ".join(errors))


def prepare(silires, workload, seed: int, workdir: Path):
    """One set-up repetition: input files, then warm-up commands."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    warm_dir = workdir / "warmup"
    warm_dir.mkdir()
    warm = workloads.build_commands(
        dataclasses.replace(workload, copies=1), workloads.WARMUP, seed, warm_dir, silires
    )
    commands = workloads.build_commands(workload, workload.items, seed, workdir, silires)
    with contextlib.redirect_stdout(io.StringIO()):
        for command in warm:
            silires.cli.main(command.argv)
            drain_pool_workers()
    return commands


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(
    summary: dict, traced: PassResult, pooled: PassResult, untraced_wall: float
) -> dict:
    """Per-layer metrics of the traced pass; pool metrics come from ``pooled``,
    the pass with pool workers where the workload has one."""
    names = summary["names"]
    layers = summary["layers"]

    def total(*span_names):
        return sum(names.get(n, {}).get("total", 0.0) for n in span_names)

    def own(*span_names):
        return sum(names.get(n, {}).get("self", 0.0) for n in span_names)

    def calls(*span_names):
        return sum(names.get(n, {}).get("calls", 0) for n in span_names)

    exact = ("solver.exact_edge_metric_dimension", "solver.exact_metric_dimension")
    verify = ("resolving.is_edge_resolving", "resolving.is_vertex_resolving")
    subsets = sum(traced.subsets.values())
    solve_s = total(*exact)
    accounted = sum(stats["self"] for stats in layers.values())
    values = {
        "solver.search_self_s": own(*exact),
        "solver.subsets_examined": subsets,
        "solver.evaluations_per_s": subsets / solve_s if solve_s > 0 else 0.0,
        "solver.solve_s": solve_s,
        "solver.masks_s": total("solver.edge_infeasibility_masks"),
        "solver.mask_count": summary["counts"].get("solver.edge_infeasibility_masks", 0),
        "solver.worker_cpu_s": pooled.worker_cpu,
        "solver.pool_drain_s": pooled.drain,
        "resolving.verify_calls": calls(*verify),
        "resolving.verify_s": total(*verify),
        "resolving.landmark_rows_s": total("resolving.landmark_rows"),
        "resolving.code_table_s": own("resolving.edge_code_table", "resolving.vertex_code_table"),
        "resolving.dup_scan_s": total("resolving.first_duplicate_rows"),
        "graphs.bfs_calls": calls("graphs.bfs_distances"),
        "graphs.bfs_s": total("graphs.bfs_distances"),
        "graphs.build_graph_s": total("graphs.build_graph"),
        "graphs.apsp_s": total("graphs.all_pairs_distances"),
        "structure.find_tetrahedra_s": total("structure.find_tetrahedra"),
        "structure.find_twins_s": total("structure.find_twins"),
        "structure.classify_s": total("structure.classify_silicate"),
        "structure.classify_calls": calls("structure.classify_silicate"),
        "silicates.build_s": layers["silicates"]["top"],
        "construction.construct_s": layers["construction"]["top"],
        "serialization.parse_s": total("serialization.parse_edge_list"),
        "serialization.format_s": total(
            "serialization.format_edge_list", "serialization.format_table_text"
        ),
        "serialization.json_s": total(
            "serialization.canonical_json_bytes",
            "serialization.certificate_report",
            "serialization.verification_report",
            "serialization.structure_report",
            "serialization.table_report",
        ),
        **{f"{layer}.self_s": layers[layer]["self"] for layer in spans.LAYERS},
        "trace.wall_s": traced.wall,
        # Both at the reference speed, so that host drift does not show as overhead.
        "trace.overhead_s": traced.scaled_wall - untraced_wall,
        "trace.unaccounted_s": traced.wall - accounted,
    }
    return values


def print_layer_table(summary: dict, traced_wall: float) -> None:
    print(f"  {'layer':<14}{'self_s':>10}{'calls':>10}{'share':>8}")
    accounted = 0.0
    for layer in spans.LAYERS:
        stats = summary["layers"][layer]
        accounted += stats["self"]
        share = stats["self"] / traced_wall if traced_wall > 0 else 0.0
        print(f"  {layer:<14}{stats['self']:>10.4f}{stats['calls']:>10}{share:>8.1%}")
    print(
        f"  layers sum to {accounted:.4f} s of traced wall_s {traced_wall:.4f} s "
        f"(unaccounted {traced_wall - accounted:+.4f} s)"
    )
    ranked = sorted(summary["names"].items(), key=lambda kv: -kv[1]["self"])[:5]
    print("  largest self times: " + ", ".join(f"{n} {v['self']:.3f} s" for n, v in ranked))


def run_check_pass(silires, workload, seed, workdir, commands, first_bytes) -> PassResult:
    """Untimed pass with ``check_workers`` pool workers over the first
    relabeling of each instance; outputs must match bytes."""
    check_dir = workdir / "check"
    check_dir.mkdir()
    checked = workloads.build_commands(
        workload, workload.items, seed, check_dir, silires, workers=workload.check_workers
    )[: len(workload.items)]
    result = run_pass(silires.cli, checked)
    gate(checked, result, {})
    for ours, theirs in zip(commands, checked):
        try:
            same = Path(theirs.output).read_bytes() == first_bytes.get(ours.output)
        except OSError:
            same = False
        if not same:
            result.failures.append(
                f"{ours.name}: the {workload.check_workers}-worker certificate "
                "differs from the 1-worker one"
            )
    return result


def end_to_end(commands, passes, setup_s: float, peak: float, scaled: bool) -> dict:
    """The end-to-end metrics, scaled to the reference speed or raw."""
    times = [p.times for p in passes]
    cpus = [p.cpus for p in passes]
    if scaled:
        times = [[t * f for t, f in zip(p.times, p.factors())] for p in passes]
        cpus = [[c * f for c, f in zip(p.cpus, p.factors())] for p in passes]
    # Medians per command over the passes, so that one disturbed command
    # does not move a whole pass.  An instance's time is the mean of its
    # relabeled copies' medians: the search cost depends on the relabeling,
    # and a mean averages that out better than a median of few copies.
    command_s = [statistics.median(ts) for ts in zip(*times)]
    per_instance: dict = {}
    for command, median in zip(commands, command_s):
        per_instance.setdefault((command.item, command.argv[0]), []).append(median)
    return {
        "wall_s": sum(command_s),
        "slowest_s": max(statistics.fmean(ms) for ms in per_instance.values()),
        "cpu_s": statistics.median(sum(cs) for cs in cpus),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }


def run_workload(silires, import_s: float, workload, seed: int, seconds: float, trace: bool):
    """Set up, time passes for ``seconds``, gate them; return the result."""
    load_before = os.getloadavg()
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    try:
        reps = []
        for _ in range(SETUP_REPS):
            began = time.perf_counter()
            commands = prepare(silires, workload, seed, workdir)
            reps.append(time.perf_counter() - began)

        first_bytes: dict = {}
        passes, pass_elapsed = [], []
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or (
            time.perf_counter() - started + statistics.median(pass_elapsed) <= seconds
        ):
            gc.collect()
            began = time.perf_counter()
            result = run_pass(silires.cli, commands)
            pass_elapsed.append(time.perf_counter() - began)
            gate(commands, result, first_bytes)
            passes.append(result)
        peak = peak_rss_mb()
        # After reading the peak RSS, so that these interpreters do not count in it.
        imports = import_samples(SETUP_REPS)

        traced = summary = tracer = None
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            gc.collect()
            try:
                traced = run_pass(silires.cli, commands, tracer)
            finally:
                tracer.uninstall()
            gate(commands, traced, first_bytes)
            summary = spans.summarize(tracer.spans)
            summary["counts"] = dict(tracer.counts)

        all_passes = passes + ([traced] if traced else [])
        checked = None
        if workload.check_workers is not None:
            checked = run_check_pass(silires, workload, seed, workdir, commands, first_bytes)
            all_passes.append(checked)
        if trace:
            tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        drain_pool_workers()

    attempted = sum(len(p.codes) for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    flags = []
    subsets = passes[0].subsets
    for p in all_passes[1:]:
        # the check pass covers only the first relabeling of each instance
        if p.subsets != {name: subsets.get(name) for name in p.subsets}:
            flags.append(f"subsets_examined changed between passes: {subsets} vs {p.subsets}")
    if seed == 0:
        for command in commands:
            pinned = getattr(command.item, "subsets", None)
            if pinned is not None and subsets.get(command.name) != pinned:
                flags.append(
                    f"{command.name}: subsets_examined {subsets.get(command.name)}, "
                    f"seed-0 record {pinned}"
                )

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": read_commit(),
        "python": platform.python_version(),
        "numpy": silires.graphs.np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "instances": [command.name for command in commands],
        "commands": [" ".join(c.argv).replace(f"{ROOT}{os.sep}", "") for c in commands],
        "subsets_examined": subsets,
        "setup_reps_s": reps,
        "import_s": import_s,
        "import_samples_s": imports,
        "pass_wall_s": [p.wall for p in passes],
        "pass_command_s": [p.times for p in passes],
        "pass_calibration_s": [p.calibration for p in passes],
        "failures": failures,
        "flags": flags,
    }
    # Set-up is not scaled: most of it is loading files and extension
    # modules, whose speed the calibration sample does not follow.
    setup_s = statistics.median(imports) + statistics.median(reps)
    record["end_to_end"] = end_to_end(commands, passes, setup_s, peak, scaled=True)
    record["raw_end_to_end"] = end_to_end(commands, passes, setup_s, peak, scaled=False)
    record["failed_ratio"] = len(failures) / attempted
    if trace:
        record["per_layer"] = layer_metrics(
            summary, traced, checked or traced, statistics.median(p.scaled_wall for p in passes)
        )
        record["traced_command_s"] = traced.times
        record["trace_missing_names"] = tracer.missing
    return record, summary, attempted, failures


def report(record, summary, attempted, failures, trace: bool) -> dict:
    name = record["workload"]
    print(
        f"workload {name}: seed {record['seed']}, {len(record['pass_wall_s'])} timed "
        f"pass(es), attempted {attempted}, failed {len(failures)}, "
        f"failed_ratio {record['failed_ratio']:.4f}"
    )
    for failure in failures:
        print(f"  FAILED {failure}")
    for flag in record["flags"]:
        print(f"  FLAG {flag}")
    if trace:
        chosen = {k: (record["per_layer"][k], u) for k, u in PER_LAYER.items()}
        print_layer_table(summary, record["per_layer"]["trace.wall_s"])
    else:
        chosen = {k: (record["end_to_end"][k], u) for k, u in END_TO_END.items()}
        print(f"  {'metric':<30}{'at reference speed':>20}  {'raw':>12}")
    for key, (value, unit) in chosen.items():
        raw = "" if trace else f"  {record['raw_end_to_end'][key]:>12.6f}"
        print(f"  {key:<30}{value:>16.6f} {unit:<3}{raw}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"record-{name}-seed{record['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"  run record: {path.relative_to(ROOT)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak RSS belongs to it alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        silires, import_s = import_silires()
        workload = workloads.WORKLOADS[args.workload]
        record, summary, attempted, failures = run_workload(
            silires, import_s, workload, args.seed, args.seconds, bool(args.trace)
        )
        result = report(record, summary, attempted, failures, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
