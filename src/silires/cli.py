"""Command-line interface: generate, verify, solve, and table commands.

:func:`main` may be called any number of times in one process, as the
test suite and ``bench/run.py`` do: each call parses into a fresh
namespace, so no option carries over between calls, and the parser is
built on the first call and reused, which spares such callers about 1 ms
of argparse set-up per later call (a one-shot command builds one either
way).

Exit codes: 0 success (verify: resolving; solve: optimal), 1 verified set is
not resolving, 2 solver stopped before proving optimality, 64 malformed
input or bad usage (an input graph file that needs more memory than is
available included), 70 internal error (the solver's witness failed the
resolving check, which recomputes the witness's distance rows from the
graph and shares nothing else with the search).

Every output file (``generate -o`` and its sidecar, ``--json`` of
``verify``, ``solve`` and ``table``) is written by :func:`_write_file`: it
is rewritten in place and then cut to length, so a rerun leaves a
byte-identical file.  Only a rewrite of an existing file is cheaper than a
truncating write; a new path costs the same.  The write is not atomic: a
reader racing it may see old and new bytes mixed (with a truncating open
it could see an empty or short file instead), and after a crash or power
loss the file may hold old and new bytes mixed, or old bytes at the new
length, which the writeback ext4 starts on ``close`` of a truncated file
guarded against.  To replace a file atomically, write to a new path and
rename it.  ``-`` writes to ``sys.stdout`` as text, for every kind of
output, JSON included: all output is ASCII, so the bytes are those a file
gets, and a caller may redirect ``sys.stdout`` to an ``io.StringIO``.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path
from typing import Optional, Sequence

from .construction import construct_for_spec, predicted_dimension
from .errors import GraphInputError, SolverInternalError
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
    EDGE,
    STATUS_OPTIMAL,
    VERTEX,
    SolveOptions,
    exact_edge_metric_dimension,
    exact_metric_dimension,
)
from .structure import classify_silicate

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


def _write_file(path: str, data: bytes) -> None:
    """Write ``data`` to the file at ``path`` in place, then cut a regular
    file to its length.

    Opening an existing file without ``O_TRUNC`` keeps its blocks: freeing
    them, and the writeback that ext4 starts on ``close`` of a file
    truncated to zero, cost a 300-byte rewrite 0.1-0.3 ms more than the
    write itself (see the README).  That writeback also guarded a
    truncating rewrite against what a crash or power loss may now leave:
    old and new bytes mixed, or old bytes at the new length.  A new path
    gains nothing.  Pipes and devices such as ``/dev/null`` have no length
    to cut.
    """
    fd = os.open(
        Path(path), os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666
    )
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size != len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write(path: str, data: bytes) -> None:
    if path == STDOUT:
        sys.stdout.write(data.decode("utf-8"))
    else:
        _write_file(path, data)


def _parse_id_list(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("--set: empty landmark list")
    ids = []
    for token in tokens:
        try:
            ids.append(int(token))
        except ValueError:
            raise ValueError(f"--set: landmark {token!r} is not an integer") from None
    return ids


def _load_graph(path: str):
    try:
        return parse_edge_list(Path(path).read_text(encoding="utf-8"))
    except MemoryError as exc:
        # A header may declare billions of vertices: ``p 3000000000 1``.
        detail = f" ({exc})" if str(exc) else ""
        raise GraphInputError(
            f"the input needs more memory than is available{detail}"
        ) from None


def _same_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` name one regular file, existing or not.

    Neither file need exist yet, so the paths are compared, not the files.
    A shared path that exists and is not a regular file, such as
    ``/dev/null``, holds no graph for the sidecar to replace."""
    real = os.path.realpath(a)
    if real != os.path.realpath(b):
        return False
    try:
        return stat.S_ISREG(os.stat(real).st_mode)
    except OSError:
        return True


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
    if args.output == STDOUT and args.sidecar == STDOUT:
        parser.error("-o/--output and --sidecar cannot both be - (standard output)")
    if (
        args.sidecar is not None
        and STDOUT not in (args.output, args.sidecar)
        and _same_file(args.output, args.sidecar)
    ):
        parser.error("-o/--output and --sidecar cannot name the same file")
    spec = _spec_from_args(parser, args)
    silicate = build_silicate(spec)
    _write(args.output, format_edge_list(silicate.graph).encode("utf-8"))
    sidecar = args.sidecar
    if sidecar is None and args.output != STDOUT:
        sidecar = args.output + ".json"
    if sidecar is not None:
        _write(sidecar, canonical_json_bytes(structure_report(silicate, spec)))
    if STDOUT not in (args.output, sidecar):
        g = silicate.graph
        print(
            f"wrote {args.output} ({g.vertex_count} vertices, "
            f"{g.edge_count} edges)"
        )
    return EXIT_OK


def _cmd_verify(parser: _Parser, args) -> int:
    g = _load_graph(args.graph)
    landmarks = _parse_id_list(args.set)
    check = is_edge_resolving if args.target == EDGE else is_vertex_resolving
    result = check(g, landmarks)
    if args.json is not None:  # the report, codes included, only when written
        report = verification_report(
            g, landmarks, args.target, result, include_codes=args.codes
        )
        _write(args.json, canonical_json_bytes(report))
    if args.json != STDOUT:
        if result.resolving:
            print(f"resolving ({args.target} target, {len(landmarks)} landmarks)")
        else:
            print(f"not resolving; witness: {result.witness}")
    return EXIT_OK if result.resolving else EXIT_NOT_RESOLVING


def _cmd_solve(parser: _Parser, args) -> int:
    g = _load_graph(args.graph)
    opts = SolveOptions(
        max_size=args.max_size,
        parallel_workers=args.workers,
        budget_subsets=args.budget_subsets,
    )
    if args.target == EDGE:
        cert = exact_edge_metric_dimension(g, opts)
    else:
        cert = exact_metric_dimension(g, opts)
    if args.json is not None:
        report = certificate_report(cert, classify_silicate(g))
        _write(args.json, canonical_json_bytes(report))
    if args.json != STDOUT:
        print(
            f"{args.target} metric dimension: {cert.dimension} "
            f"(status {cert.status}); witness: "
            f"{list(cert.witness) if cert.witness is not None else None}"
        )
    return EXIT_OK if cert.status == STATUS_OPTIMAL else EXIT_NOT_OPTIMAL


def _table_row(spec: SilicateSpec, opts: SolveOptions) -> dict:
    predicted = predicted_dimension(spec)  # the proven lower bound too
    silicate, constructed = construct_for_spec(spec)
    verified = is_edge_resolving(silicate.graph, constructed).resolving
    exact: Optional[int] = None
    if opts.budget_subsets:
        cert = exact_edge_metric_dimension(silicate.graph, opts)
        if cert.status == STATUS_OPTIMAL:
            exact = cert.dimension
    present = [len(constructed)] + ([exact] if exact is not None else [])
    return {
        "family": spec.family,
        "n": spec.n,
        "lower_bound": predicted,
        "constructed_size": len(constructed),
        "exact_dimension": exact,
        "predicted": predicted,
        "agree": verified and all(v == predicted for v in present),
    }


def _cmd_table(parser: _Parser, args) -> int:
    if args.n_from > args.n_to:
        parser.error("--n-from must not exceed --n-to")
    opts = SolveOptions(
        budget_subsets=args.budget_subsets, parallel_workers=args.workers
    )
    rows = [
        _table_row(SilicateSpec(family=args.family, n=n), opts)
        for n in range(args.n_from, args.n_to + 1)
    ]
    if args.json is not None:
        _write(args.json, canonical_json_bytes(table_report(rows)))
    if args.json != STDOUT:
        _write(STDOUT, format_table_text(rows).encode("utf-8"))
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
    p_ver.add_argument("--target", choices=(EDGE, VERTEX), default=EDGE)
    p_ver.add_argument("--json", default=None, metavar="PATH")
    p_ver.add_argument(
        "--codes", action="store_true", help="include the full code table"
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser(
        "solve", help="compute the exact minimum resolving set"
    )
    p_solve.add_argument("graph", help="edge-list file")
    p_solve.add_argument("--target", choices=(EDGE, VERTEX), default=EDGE)
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
