"""In-memory span tracing of silires layers, from outside the package.

A module binds the names it imports when it is imported, so a function is
wrapped in every namespace that looks it up on the benchmark's paths (for
example ``is_edge_resolving`` in both ``silires.cli`` and
``silires.solver``).  Each wrapper records one span: name, start, end,
parent span and command id.  A span's layer is the module that defines the
wrapped function.  Pool workers are not traced; their cost shows as child
CPU time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "graphs",
    "silicates",
    "structure",
    "construction",
    "resolving",
    "solver",
    "serialization",
    "cli",
)

# namespace -> names looked up there on the generate/verify/solve/table paths
WRAPPED = {
    "silires.cli": (
        "build_silicate",
        "canonical_json_bytes",
        "certificate_report",
        "classify_silicate",
        "construct_for_spec",
        "dimension_lower_bound",
        "exact_edge_metric_dimension",
        "exact_metric_dimension",
        "format_edge_list",
        "format_table_text",
        "is_edge_resolving",
        "is_vertex_resolving",
        "parse_edge_list",
        "predicted_dimension",
        "structure_report",
        "table_report",
        "verification_report",
    ),
    "silires.solver": (
        "all_pairs_distances",
        "classify_silicate",
        "dimension_lower_bound",
        "edge_infeasibility_masks",
        "find_tetrahedra",
        "find_twins",
        "is_edge_resolving",
        "is_vertex_resolving",
    ),
    "silires.resolving": (
        "bfs_distances",
        "edge_code_table",
        "first_duplicate_rows",
        "landmark_rows",
        "vertex_code_table",
    ),
    "silires.graphs": ("bfs_distances",),
    "silires.structure": ("find_tetrahedra", "find_twins"),
    "silires.construction": ("build_silicate", "construct_ers", "labeling_for"),
    "silires.silicates": (
        "build_graph",
        "chain_silicate",
        "cyclic_silicate",
        "silicate_of_skeleton",
    ),
    "silires.serialization": ("build_graph",),
}

# span name -> function of the return value added to a per-name count
COUNTED = {"solver.edge_infeasibility_masks": len}

COMMAND_SPAN = "cli.main"
POOL_DRAIN_SPAN = "solver.pool_drain"


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, layer, start, end, parent, command)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._command = -1
        self._saved: list = []

    def install(self) -> None:
        for namespace, names in WRAPPED.items():
            module = importlib.import_module(namespace)
            for attr in names:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{namespace}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        count = COUNTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(result)
            return result

        return wrapper

    def span(self, name: str, layer: str):
        return _Span(self, name, layer)

    def command(self, command_id: int):
        """Root span of one CLI command; nested spans carry its id."""
        self._command = command_id
        return _Span(self, COMMAND_SPAN, "cli")

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "layer", "start", "end", "parent", "command"],
                    "spans": self.spans,
                },
                separators=(",", ":"),
            ),
            encoding="utf-8",
        )


class _Span:
    __slots__ = ("tracer", "name", "layer", "index")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.index)
        t.spans.append((self.name, self.layer, time.perf_counter(), None, parent, t._command))
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        name, layer, start, _, parent, command = t.spans[self.index]
        t.spans[self.index] = (name, layer, start, end, parent, command)
        return False


def summarize(spans) -> dict:
    """Per-name and per-layer totals; self time excludes child spans.

    ``top`` is the time of spans whose parent lies in another layer, i.e.
    the time spent inside the layer counted once per entry into it.
    """
    child_time = defaultdict(float)
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    by_layer = {
        layer: {"calls": 0, "self": 0.0, "top": 0.0} for layer in LAYERS
    }
    for i, (name, layer, start, end, parent, _) in enumerate(spans):
        duration = end - start
        own = duration - child_time[i]
        entry = by_name[name]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += own
        stats = by_layer.setdefault(layer, {"calls": 0, "self": 0.0, "top": 0.0})
        stats["calls"] += 1
        stats["self"] += own
        if parent < 0 or spans[parent][1] != layer:
            stats["top"] += duration
    return {"names": dict(by_name), "layers": by_layer}
