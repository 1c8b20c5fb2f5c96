"""Command-line interface: generate, verify, solve, and table commands.

:func:`main` may be called any number of times in one process, as the
test suite and ``bench/run.py`` do: each call parses into a fresh
namespace, so no option carries over between calls, and the parser is
built on the first call and reused, which spares such callers about 1 ms
of argparse set-up per later call (a one-shot command builds one either
way).

Exit codes: 0 success (verify: resolving; solve: optimal), 1 verified set is
not resolving, 2 solver stopped before proving optimality, 64 malformed
input or bad usage, 70 internal error (the solver's witness failed the
independent resolving check).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

from .construction import construct_for_spec, predicted_dimension
from .errors import SolverInternalError
from .resolving import is_edge_resolving, is_vertex_resolving
from .serialization import (
    canonical_json_bytes,
    certificate_report,
    format_edge_list,
    format_table_text,
    parse_edge_list,
    structure_report,
    table_report,
    verification_report,
)
from .silicates import CHAIN, CYCLIC, SKELETON, SilicateSpec, build_silicate
from .solver import (
    STATUS_OPTIMAL,
    SolveOptions,
    exact_edge_metric_dimension,
    exact_metric_dimension,
)
from .structure import dimension_lower_bound

EXIT_OK = 0
EXIT_NOT_RESOLVING = 1
EXIT_NOT_OPTIMAL = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

STDOUT = "-"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 64."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_text(path: str, text: str) -> None:
    if path == STDOUT:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str, obj) -> None:
    data = canonical_json_bytes(obj)
    if path == STDOUT:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)


def _parse_id_list(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty landmark list")
    return [int(t) for t in tokens]


def _load_graph(path: str):
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _spec_from_args(parser: _Parser, args) -> SilicateSpec:
    if args.family == SKELETON:
        if args.skeleton is None:
            parser.error("--family skeleton requires --skeleton BASE_PATH")
        if args.n is not None:
            parser.error("-n is not valid with --family skeleton")
        return SilicateSpec(family=SKELETON, skeleton=_load_graph(args.skeleton))
    if args.n is None:
        parser.error(f"--family {args.family} requires -n")
    if args.skeleton is not None:
        parser.error(f"--skeleton is not valid with --family {args.family}")
    return SilicateSpec(family=args.family, n=args.n)


def _cmd_generate(parser: _Parser, args) -> int:
    spec = _spec_from_args(parser, args)
    silicate = build_silicate(spec)
    _write_text(args.output, format_edge_list(silicate.graph))
    sidecar = args.sidecar
    if sidecar is None and args.output != STDOUT:
        sidecar = args.output + ".json"
    if sidecar is not None:
        _write_json(sidecar, structure_report(silicate, spec))
    if args.output != STDOUT:
        g = silicate.graph
        print(
            f"wrote {args.output} ({g.vertex_count} vertices, "
            f"{g.edge_count} edges)"
        )
    return EXIT_OK


def _cmd_verify(parser: _Parser, args) -> int:
    g = _load_graph(args.graph)
    landmarks = _parse_id_list(args.set)
    check = is_edge_resolving if args.target == "edge" else is_vertex_resolving
    result = check(g, landmarks)
    report = verification_report(
        g, landmarks, args.target, result, include_codes=args.codes
    )
    if args.json is not None:
        _write_json(args.json, report)
    if args.json != STDOUT:
        if result.resolving:
            print(f"resolving ({args.target} target, {len(landmarks)} landmarks)")
        else:
            print(f"not resolving; witness: {result.witness}")
    return EXIT_OK if result.resolving else EXIT_NOT_RESOLVING


def _cmd_solve(parser: _Parser, args) -> int:
    g = _load_graph(args.graph)
    opts = SolveOptions(
        start_size=args.start_size,
        max_size=args.max_size,
        parallel_workers=args.workers,
        budget_subsets=args.budget_subsets,
    )
    if args.target == "edge":
        cert = exact_edge_metric_dimension(g, opts)
    else:
        cert = exact_metric_dimension(g, opts)
    if args.json is not None:
        _write_json(args.json, certificate_report(cert))
    if args.json != STDOUT:
        print(
            f"{args.target} metric dimension: {cert.dimension} "
            f"(status {cert.status}); witness: "
            f"{list(cert.witness) if cert.witness is not None else None}"
        )
    return EXIT_OK if cert.status == STATUS_OPTIMAL else EXIT_NOT_OPTIMAL


def _table_row(spec: SilicateSpec, budget_subsets: int, workers: int) -> dict:
    lower = dimension_lower_bound(spec)
    silicate, constructed = construct_for_spec(spec)
    verified = is_edge_resolving(silicate.graph, constructed).resolving
    predicted = predicted_dimension(spec)
    exact: Optional[int] = None
    if budget_subsets > 0:
        cert = exact_edge_metric_dimension(
            silicate.graph,
            SolveOptions(budget_subsets=budget_subsets, parallel_workers=workers),
        )
        if cert.status == STATUS_OPTIMAL:
            exact = cert.dimension
    present = [lower, len(constructed)] + ([exact] if exact is not None else [])
    return {
        "family": spec.family,
        "n": spec.n,
        "lower_bound": lower,
        "constructed_size": len(constructed),
        "exact_dimension": exact,
        "predicted": predicted,
        "agree": verified and all(v == predicted for v in present),
    }


def _cmd_table(parser: _Parser, args) -> int:
    if args.n_from > args.n_to:
        parser.error("--n-from must not exceed --n-to")
    if args.budget_subsets < 0:
        parser.error("--budget-subsets must be non-negative")
    if args.workers < 1:
        parser.error("--workers must be positive")
    rows = [
        _table_row(
            SilicateSpec(family=args.family, n=n),
            args.budget_subsets,
            args.workers,
        )
        for n in range(args.n_from, args.n_to + 1)
    ]
    if args.json is not None:
        _write_json(args.json, table_report(rows))
    if args.json != STDOUT:
        sys.stdout.write(format_table_text(rows))
    return EXIT_OK


def build_parser() -> _Parser:
    """A new parser for the ``silires`` command line."""
    parser = _Parser(
        prog="silires",
        description=(
            "Generate silicate networks, verify vertex/edge resolving sets, "
            "compute exact metric dimensions, and reproduce the dimension "
            "tables for the chain and cyclic families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate", help="emit a silicate network as an edge list + sidecar"
    )
    p_gen.add_argument(
        "--family", required=True, choices=(CHAIN, CYCLIC, SKELETON)
    )
    p_gen.add_argument("-n", type=int, default=None, help="tetrahedron count")
    p_gen.add_argument(
        "--skeleton",
        default=None,
        metavar="PATH",
        help="edge-list file of the base graph (skeleton family only)",
    )
    p_gen.add_argument("-o", "--output", default=STDOUT, metavar="PATH")
    p_gen.add_argument(
        "--sidecar",
        default=None,
        metavar="PATH",
        help="structure JSON path (default: OUTPUT.json when writing a file)",
    )
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="check a landmark set on a graph")
    p_ver.add_argument("graph", help="edge-list file")
    p_ver.add_argument(
        "--set", required=True, help="landmark ids, comma or space separated"
    )
    p_ver.add_argument("--target", choices=("edge", "vertex"), default="edge")
    p_ver.add_argument("--json", default=None, metavar="PATH")
    p_ver.add_argument(
        "--codes", action="store_true", help="include the full code table"
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser(
        "solve", help="compute the exact minimum resolving set"
    )
    p_solve.add_argument("graph", help="edge-list file")
    p_solve.add_argument("--target", choices=("edge", "vertex"), default="edge")
    p_solve.add_argument("--start-size", type=int, default=None)
    p_solve.add_argument("--max-size", type=int, default=None)
    p_solve.add_argument("--workers", type=int, default=1)
    p_solve.add_argument("--budget-subsets", type=int, default=None)
    p_solve.add_argument("--json", default=None, metavar="PATH")
    p_solve.set_defaults(func=_cmd_solve)

    p_table = sub.add_parser(
        "table", help="lower bound / construction / exact dimension table"
    )
    p_table.add_argument("--family", required=True, choices=(CHAIN, CYCLIC))
    p_table.add_argument("--n-from", type=int, required=True)
    p_table.add_argument("--n-to", type=int, required=True)
    p_table.add_argument(
        "--budget-subsets",
        type=int,
        default=0,
        help="candidate budget per exact solve; 0 skips the exact column",
    )
    p_table.add_argument("--workers", type=int, default=1)
    p_table.add_argument("--json", default=None, metavar="PATH")
    p_table.set_defaults(func=_cmd_table)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser :func:`main` reuses; argparse keeps no state between
    ``parse_args`` calls beyond the namespace it returns."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"silires: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverInternalError as exc:
        print(f"silires: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())
