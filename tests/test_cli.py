"""Command-line interface: commands, formats, exit codes."""

import collections
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import silires.cli
import silires.serialization
import silires.solver
import silires.structure
from silires import (
    SolveOptions,
    build_graph,
    canonical_json_bytes,
    certificate_report,
    classify_silicate,
    exact_edge_metric_dimension,
    exact_metric_dimension,
    format_edge_list,
    parse_edge_list,
    silicate_of_skeleton,
)
from silires.cli import (
    EXIT_INTERNAL,
    EXIT_NOT_OPTIMAL,
    EXIT_NOT_RESOLVING,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from silires.resolving import VerificationResult

from conftest import family_graph, random_connected_graph, wrong_path_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def chain2_file(tmp_path, capsys):
    path = tmp_path / "chain2.txt"
    code = main(["generate", "--family", "chain", "-n", "2", "-o", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    return path


class TestGenerate:
    def test_stdout_edge_list(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "chain", "-n", "1")
        assert code == EXIT_OK
        assert out.startswith("p 4 6\n")
        assert parse_edge_list(out).edge_count == 6

    def test_file_output_with_sidecar(self, tmp_path, capsys):
        path = tmp_path / "cyclic4.txt"
        code, out, _ = run(
            capsys, "generate", "--family", "cyclic", "-n", "4", "-o", str(path)
        )
        assert code == EXIT_OK
        assert "wrote" in out and "12 vertices" in out
        g = parse_edge_list(path.read_text())
        assert (g.vertex_count, g.edge_count) == (12, 24)
        sidecar = json.loads((tmp_path / "cyclic4.txt.json").read_text())
        assert sidecar["family"] == "cyclic"
        assert len(sidecar["tetrahedra"]) == 4

    def test_sidecar_to_stdout_is_the_only_output(self, tmp_path, capsys):
        path = tmp_path / "chain3.txt"
        code, out, _ = run(
            capsys,
            "generate", "--family", "chain", "-n", "3", "-o", str(path), "--sidecar", "-",
        )
        assert code == EXIT_OK
        assert parse_edge_list(path.read_text()).edge_count == 18
        # One JSON document and nothing after it: json.loads rejects any
        # trailing text as extra data.
        sidecar = json.loads(out)
        assert sidecar["family"] == "chain"
        assert len(sidecar["tetrahedra"]) == 3

    @pytest.mark.parametrize("output", [[], ["-o", "-"]])
    def test_edge_list_and_sidecar_both_to_stdout_is_usage_error(self, capsys, output):
        # Two documents back to back on stdout would parse as neither.
        code, out, err = run(
            capsys, "generate", "--family", "chain", "-n", "1", *output, "--sidecar", "-"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "-o/--output" in err and "--sidecar" in err

    @pytest.mark.parametrize("sidecar", ["g.txt", "./g.txt", "sub/../g.txt", "link.txt"])
    def test_sidecar_on_the_graph_is_usage_error(self, tmp_path, capsys, monkeypatch, sidecar):
        # The sidecar would silently replace the graph; neither file exists
        # yet (link.txt is a dangling symbolic link to g.txt).
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        if sidecar == "link.txt":
            os.symlink("g.txt", "link.txt")
        code, out, err = run(
            capsys, "generate", "--family", "chain", "-n", "1", "-o", "g.txt", "--sidecar", sidecar
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "-o/--output" in err and "--sidecar" in err
        assert not (tmp_path / "g.txt").exists()

    def test_sidecar_on_the_graph_rejected_when_it_exists(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_bytes(b"old")
        code, out, err = run(
            capsys, "generate", "--family", "chain", "-n", "1", "-o", str(graph), "--sidecar", str(graph)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "-o/--output" in err and "--sidecar" in err
        assert graph.read_bytes() == b"old"

    def test_graph_and_sidecar_to_one_device(self, capsys):
        # A device holds no file for the sidecar to replace.
        code, _, err = run(
            capsys, "generate", "--family", "chain", "-n", "1", "-o", os.devnull, "--sidecar", os.devnull
        )
        assert (code, err) == (EXIT_OK, "")

    def test_regeneration_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "generate", "--family", "chain", "-n", "6", "-o", str(a))
        run(capsys, "generate", "--family", "chain", "-n", "6", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_skeleton_from_base_file(self, tmp_path, capsys):
        base = tmp_path / "star.txt"
        base.write_text("p 4 3\n0 1\n0 2\n0 3\n")
        code, out, _ = run(
            capsys, "generate", "--family", "skeleton", "--skeleton", str(base)
        )
        assert code == EXIT_OK
        assert out.startswith("p 10 18\n")

    def test_cyclic_n_too_small_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "cyclic", "-n", "2")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_chain_requires_n(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "chain")
        assert code == EXIT_USAGE

    def test_skeleton_rejects_n(self, tmp_path, capsys):
        base = tmp_path / "b.txt"
        base.write_text("p 2 1\n0 1\n")
        code, _, _ = run(
            capsys,
            "generate", "--family", "skeleton", "--skeleton", str(base), "-n", "3",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "options,message",
        [
            (["--family", "skeleton"], "--family skeleton requires --skeleton BASE_PATH"),
            (
                ["--family", "chain", "-n", "2", "--skeleton", "b.txt"],
                "--skeleton is not valid with --family chain",
            ),
        ],
    )
    def test_skeleton_option_mismatch_is_usage_error(self, tmp_path, capsys, monkeypatch, options, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b.txt").write_text("p 2 1\n0 1\n")
        code, out, err = run(capsys, "generate", *options)
        assert (code, out, err) == (EXIT_USAGE, "", f"silires: error: {message}\n")


class TestVerify:
    def test_resolving_exit_zero(self, chain2_file, capsys):
        code, out, _ = run(
            capsys, "verify", str(chain2_file), "--set", "0,1,2,4,5"
        )
        assert code == EXIT_OK
        assert "resolving" in out

    def test_not_resolving_exit_one_with_witness(self, chain2_file, capsys):
        code, out, _ = run(capsys, "verify", str(chain2_file), "--set", "0,3")
        assert code == EXIT_NOT_RESOLVING
        assert "witness" in out

    def test_json_to_stdout(self, chain2_file, capsys):
        code, out, _ = run(
            capsys,
            "verify", str(chain2_file), "--set", "0 1 2 4 5", "--json", "-",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["resolving"] is True
        assert report["landmarks"] == [0, 1, 2, 4, 5]

    def test_vertex_target(self, chain2_file, capsys):
        code, _, _ = run(
            capsys,
            "verify", str(chain2_file), "--set", "0,1,4,5", "--target", "vertex",
        )
        assert code == EXIT_OK

    def test_codes_included_on_request(self, chain2_file, capsys):
        code, out, _ = run(
            capsys,
            "verify", str(chain2_file), "--set", "0,1,2,4,5", "--json", "-", "--codes",
        )
        report = json.loads(out)
        assert len(report["codes"]) == 12

    @pytest.mark.parametrize(
        "target,landmarks,digest",
        [
            ("edge", "0,1,4,5,7,8", "a19c79a75d7ea4569e4c5b2bdfbf3e65"
             "3261719d0ec1d271816146f60cca5226"),
            ("vertex", "0,1,4,5,7,8", "b6b67cf1a4d35fec67544a3c5eaf959d"
             "ab169dddf2f0cb796f228724b44463bb"),
            ("edge", "0,4", "4f8db1ea20bbf6bed031bac19a0ed631e22e38f431775f9b5f4411c39b44df49"),
            ("vertex", "0,4", "f408aa98b20371c981541b56529f171b5593b2f78e8866adb53e1a6714aebbbd"),
        ],
    )
    def test_codes_report_bytes_are_pinned(self, tmp_path, capsys, target, landmarks, digest):
        # The --codes report of chain 3, resolving and not, byte for byte.
        graph, report = tmp_path / "chain3.txt", tmp_path / "report.json"
        run(capsys, "generate", "--family", "chain", "-n", "3", "-o", str(graph))
        run(
            capsys, "verify", str(graph), "--set", landmarks, "--target", target,
            "--codes", "--json", str(report),
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "target,landmarks,line",
        [
            ("edge", "0,1,2,4,5", "resolving (edge target, 5 landmarks)\n"),
            ("vertex", "0,1,4,5", "resolving (vertex target, 4 landmarks)\n"),
        ],
    )
    def test_codes_without_json_build_no_table(
        self, chain2_file, capsys, monkeypatch, target, landmarks, line
    ):
        # With no --json there is no report to write, so no code table is
        # built; stdout and the exit code are those of a call without --codes.
        def unwanted(*args, **kwargs):
            raise AssertionError("code table built for a report never written")

        monkeypatch.setattr(silires.serialization, "edge_code_table", unwanted)
        monkeypatch.setattr(silires.serialization, "vertex_code_table", unwanted)
        code, out, err = run(
            capsys, "verify", str(chain2_file), "--set", landmarks, "--target", target, "--codes"
        )
        assert (code, out, err) == (EXIT_OK, line, "")

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "/no/such/file", "--set", "0")
        assert code == EXIT_USAGE

    def test_malformed_set_is_usage_error(self, chain2_file, capsys):
        code, _, _ = run(capsys, "verify", str(chain2_file), "--set", "0,x")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "landmarks,message",
        [
            ("0,1.5", "--set: landmark '1.5' is not an integer"),
            ("0 x,2", "--set: landmark 'x' is not an integer"),
            (",", "--set: empty landmark list"),
            ("", "--set: empty landmark list"),
        ],
    )
    def test_malformed_set_names_the_option_and_token(self, chain2_file, capsys, landmarks, message):
        code, out, err = run(capsys, "verify", str(chain2_file), "--set", landmarks)
        assert (code, out, err) == (EXIT_USAGE, "", f"silires: error: {message}\n")

    def test_repeated_pair_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "repeat.txt"
        path.write_text("p 2 2\n0 1\n1 0\n")
        code, _, err = run(capsys, "verify", str(path), "--set", "0")
        assert code == EXIT_USAGE
        assert "line 3" in err and "line 2" in err

    def test_reversed_pair_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "reversed.txt"
        path.write_text("p 2 1\n1 0\n")
        code, _, err = run(capsys, "verify", str(path), "--set", "0")
        assert code == EXIT_USAGE
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text,n",
        [
            ("p 99999999999999999999 1\n0 5\n", 10**20 - 1),
            ("p 5000000000 1\n0 4999999999\n", 5 * 10**9),
        ],
    )
    def test_vertex_count_past_the_arc_keys_is_usage_error(self, tmp_path, capsys, text, n):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path), "--set", "0")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"silires: error: vertex count {n} is too large: "
            "at most 3037000499 vertices fit the 64-bit arc keys\n"
        )

    @pytest.mark.parametrize(
        "error,detail",
        [
            (MemoryError("Unable to allocate 22.4 GiB"), " (Unable to allocate 22.4 GiB)"),
            (MemoryError(), ""),
        ],
    )
    def test_input_too_large_for_memory_is_usage_error(
        self, chain2_file, capsys, monkeypatch, error, detail
    ):
        # As `p 3000000000 1` would on a small host, without asking for the
        # memory: one line on stderr, not a traceback.
        def exhausted(text):
            raise error

        monkeypatch.setattr(silires.cli, "parse_edge_list", exhausted)
        code, out, err = run(capsys, "verify", str(chain2_file), "--set", "0")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "silires: error: the input needs more memory than is available"
            f"{detail}\n"
        )

    def test_disconnected_one_edge_graph_is_usage_error(self, tmp_path, capsys):
        # One edge is verified like many: vertex 2 is unreachable, as for solve.
        path = tmp_path / "isolated.txt"
        path.write_text("p 3 1\n0 1\n")
        verify = run(capsys, "verify", str(path), "--set", "0")
        solve = run(capsys, "solve", str(path))
        assert verify == solve
        code, out, err = verify
        assert (code, out) == (EXIT_USAGE, "")
        assert "vertex 2 is unreachable" in err

    def test_distances_beyond_int16(self, tmp_path, capsys):
        # The far end of a 40000-vertex path is 39999 hops from landmark 0.
        count = 40000
        lines = [f"p {count} {count - 1}"] + [f"{v} {v + 1}" for v in range(count - 1)]
        path = tmp_path / "path40000.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", str(path), "--set", "0")
        assert code == EXIT_OK
        assert out.startswith("resolving")


class TestSolve:
    def test_optimal_exit_zero(self, chain2_file, capsys):
        code, out, _ = run(capsys, "solve", str(chain2_file))
        assert code == EXIT_OK
        assert "dimension: 5" in out

    def test_memory_error_in_the_search_is_not_an_input_error(
        self, chain2_file, capsys, monkeypatch
    ):
        # Only loading the graph file blames the input for running out of
        # memory; the search on a small valid graph does not.
        def exhausted(g, opts):
            raise MemoryError("Unable to allocate 1.0 GiB")

        monkeypatch.setattr(silires.cli, "exact_edge_metric_dimension", exhausted)
        with pytest.raises(MemoryError):
            silires.cli.main(["solve", str(chain2_file)])

    def test_json_certificate(self, chain2_file, capsys):
        code, out, _ = run(capsys, "solve", str(chain2_file), "--json", "-")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["status"] == "optimal"
        assert report["dimension"] == 5
        assert report["witness"] == [0, 1, 2, 4, 5]
        assert report["family"] == "chain"
        assert report["n"] == 2

    def test_budget_zero_exits_two(self, chain2_file, capsys):
        code, out, _ = run(
            capsys, "solve", str(chain2_file), "--budget-subsets", "0"
        )
        assert code == EXIT_NOT_OPTIMAL

    @pytest.mark.parametrize("start", ["8", "20"])
    def test_start_above_the_vertex_count(self, chain2_file, capsys, start):
        code, out, _ = run(
            capsys, "solve", str(chain2_file), "--start-size", start, "--json", "-"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["status"], report["dimension"]) == ("optimal", 5)

    def test_failed_witness_check_exits_seventy(self, chain2_file, capsys, monkeypatch):
        # A witness the resolving check rejects is a solver defect: one
        # line on stderr and its own exit code, not a traceback.
        monkeypatch.setattr(
            silires.solver,
            "is_edge_resolving",
            lambda g, landmarks: VerificationResult(resolving=False, witness=None),
        )
        code, out, err = run(capsys, "solve", str(chain2_file))
        assert code == EXIT_INTERNAL == 70
        assert out == ""
        assert err.count("\n") == 1 and "non-resolving witness" in err
        assert "Traceback" not in err

    def test_wrong_search_matrix_exits_seventy(self, tmp_path, capsys, monkeypatch):
        # A defect in the solver's own distance matrix is an internal error,
        # not malformed input: the witness check recomputes its rows from
        # the graph and rejects the witness the wrong matrix led to.
        monkeypatch.setattr(silires.solver, "all_pairs_distances", wrong_path_matrix)
        path = tmp_path / "path4.txt"
        path.write_text("p 4 3\n0 1\n1 2\n2 3\n")
        code, out, err = run(
            capsys, "solve", str(path), "--target", "vertex", "--start-size", "1"
        )
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == "silires: internal error: search returned a non-resolving witness (1,)\n"

    @pytest.mark.parametrize("target", ["edge", "vertex"])
    def test_structure_recovered_once(self, chain2_file, capsys, monkeypatch, target):
        calls = collections.Counter()
        for module in (silires.cli, silires.solver, silires.structure):
            for name in ("find_tetrahedra", "classify_silicate"):
                fn = getattr(module, name, None)
                if fn is None:
                    continue

                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        code, out, _ = run(
            capsys, "solve", str(chain2_file), "--target", target, "--json", "-"
        )
        assert code == EXIT_OK
        assert json.loads(out)["family"] == "chain"
        assert calls == {"find_tetrahedra": 1, "classify_silicate": 1}

    def test_vertex_target(self, chain2_file, capsys):
        code, out, _ = run(
            capsys, "solve", str(chain2_file), "--target", "vertex", "--json", "-"
        )
        report = json.loads(out)
        assert report["dimension"] == 4
        assert report["target"] == "vertex"

    def test_empty_graph_has_dimension_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("p 0 0\n")
        code, out, err = run(capsys, "solve", str(path), "--json", "-")
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert (report["status"], report["dimension"]) == ("optimal", 0)

    def test_library_certificate_equals_cli_bytes(self, tmp_path, capsys):
        # One solve gives one certificate: the library's report carries the
        # family the CLI prints, under every status and exit.
        graphs = {
            "chain4": family_graph("chain", 4),
            "cyclic5": family_graph("cyclic", 5),
            "skeleton": silicate_of_skeleton(
                random_connected_graph(random.Random(5), 4)
            ).graph,
            "random": random_connected_graph(random.Random(3), 9),
            "empty": build_graph(0, []),
        }
        option_grid = [
            {},
            {"budget_subsets": 0},
            {"budget_subsets": 1},
            {"max_size": 2},
            {"start_size": 12, "budget_subsets": 3},
            {"start_size": 1, "parallel_workers": 2},
        ]
        flags = {
            "start_size": "--start-size",
            "max_size": "--max-size",
            "budget_subsets": "--budget-subsets",
            "parallel_workers": "--workers",
        }
        statuses = set()
        for name, g in graphs.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(format_edge_list(g))
            for target, solve in (
                ("edge", exact_edge_metric_dimension),
                ("vertex", exact_metric_dimension),
            ):
                for options in option_grid:
                    argv = ["solve", str(path), "--target", target, "--json", "-"]
                    for key, value in options.items():
                        argv += [flags[key], str(value)]
                    code, out, err = run(capsys, *argv)
                    cert = solve(g, SolveOptions(**options))
                    library = canonical_json_bytes(
                        certificate_report(cert, classify_silicate(g))
                    )
                    assert (out.encode(), err) == (library, ""), (name, target, options)
                    assert (code == EXIT_OK) == (cert.status == "optimal")
                    statuses.add(cert.status)
        assert statuses == {"optimal", "upper-bound-conditional", "partial"}

    def test_worker_json_byte_identity(self, chain2_file, capsys):
        outputs = []
        for workers in ("1", "4"):
            code, out, _ = run(
                capsys,
                "solve", str(chain2_file), "--json", "-", "--workers", workers,
            )
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestTable:
    def test_text_table(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "chain", "--n-from", "1", "--n-to", "4"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + four rows
        assert lines[0].split()[:2] == ["family", "n"]
        assert "-" in lines[1]  # exact column empty without budget

    def test_json_rows_agree_with_prediction(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--family", "chain", "--n-from", "1", "--n-to", "6", "--json", "-",
        )
        report = json.loads(out)
        rows = report["rows"]
        assert [r["predicted"] for r in rows] == [3, 5, 6, 8, 9, 11]
        assert all(r["agree"] for r in rows)
        assert all(r["exact_dimension"] is None for r in rows)

    def test_exact_column_with_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--family", "cyclic", "--n-from", "3", "--n-to", "4",
            "--budget-subsets", "100000", "--json", "-",
        )
        rows = json.loads(out)["rows"]
        # The smallest cycle disagrees with the prediction; the next agrees.
        assert rows[0]["exact_dimension"] == 7
        assert rows[0]["agree"] is False
        assert rows[1]["exact_dimension"] == 6
        assert rows[1]["agree"] is True

    @pytest.mark.parametrize(
        "options,digest",
        [
            (["chain", "--n-from", "1", "--n-to", "30"],
             "2d39453134cc86d1b7810962721759dc7f11206e6f2ff2505d05946956c67f70"),
            (["cyclic", "--n-from", "3", "--n-to", "30"],
             "72d962bde85ca56886f46a1c5809f4ab7b550b01b67791d244ee556eb817435a"),
            (["cyclic", "--n-from", "3", "--n-to", "6", "--budget-subsets", "100000"],
             "25df7ac512f19db6ab49b7f8c99d1f90369f0434fd9b1e8578e4800131533036"),
        ],
        ids=["chain-1-30", "cyclic-3-30", "cyclic-3-6-exact"],
    )
    def test_json_report_bytes_are_pinned(self, capsys, options, digest):
        # Every column of every row, byte for byte: the closed form as
        # lower_bound and predicted, and agree, false only at cyclic 3.
        code, out, err = run(capsys, "table", "--family", *options, "--json", "-")
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "table", "--family", "chain", "--n-from", "5", "--n-to", "2"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--budget-subsets", "-1", "--budget-subsets must be non-negative"),
            ("--workers", "0", "--workers must be positive"),
        ],
    )
    def test_bad_solve_options_are_usage_errors(self, capsys, option, value, message):
        code, out, err = run(
            capsys,
            "table", "--family", "chain", "--n-from", "1", "--n-to", "2",
            option, value,
        )
        assert code == EXIT_USAGE
        assert out == "" and message in err


def output_argv(command, graph, outputs):
    """The argv of a command that writes to ``outputs`` (two for
    ``generate``: the graph and its sidecar, one otherwise)."""
    if command == "generate":
        graph_out, sidecar = outputs
        return [
            "generate", "--family", "chain", "-n", "3",
            "-o", str(graph_out), "--sidecar", str(sidecar),
        ]
    (out,) = outputs
    return {
        "solve": ["solve", str(graph), "--json", str(out)],
        "verify": ["verify", str(graph), "--set", "0,1,2,4,5", "--codes", "--json", str(out)],
        "table": ["table", "--family", "chain", "--n-from", "1", "--n-to", "3", "--json", str(out)],
    }[command]


OUTPUT_COMMANDS = ["solve", "verify", "table", "generate"]


class TestOutputFiles:
    JUNK = bytes(range(256)) * 400  # about 100 KB

    @staticmethod
    def outputs(tmp_path, command, stem):
        count = 2 if command == "generate" else 1
        return [tmp_path / f"{stem}-{i}" for i in range(count)]

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    @pytest.mark.parametrize("old", ["longer", "shorter", "identical"])
    def test_rewrite_in_place_gives_the_fresh_bytes(
        self, chain2_file, tmp_path, capsys, monkeypatch, command, old
    ):
        fresh = self.outputs(tmp_path, command, "fresh")
        code, out, err = run(capsys, *output_argv(command, chain2_file, fresh))
        assert (code, err) == (EXIT_OK, "")
        expected = [path.read_bytes() for path in fresh]
        rewritten = self.outputs(tmp_path, command, "old")
        for path, data in zip(rewritten, expected):
            prefill = {
                "longer": self.JUNK,
                "shorter": self.JUNK[: len(data) // 2],
                "identical": data,
            }[old]
            path.write_bytes(prefill)
        opened = {}
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            opened[os.fspath(path)] = flags
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        again = run(capsys, *output_argv(command, chain2_file, rewritten))
        assert again == (code, out.replace("fresh-", "old-"), err)
        assert [path.read_bytes() for path in rewritten] == expected
        # Each output was opened, and never with O_TRUNC.
        for path in rewritten:
            assert not opened[str(path)] & os.O_TRUNC

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_null_device_output(self, chain2_file, tmp_path, capsys, command):
        outputs = [os.devnull] + self.outputs(tmp_path, command, "out")[1:]
        code, _, err = run(capsys, *output_argv(command, chain2_file, outputs))
        assert (code, err) == (EXIT_OK, "")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_pipe_output(self, chain2_file, capsys):
        # A pipe, like a device, has no length to cut.
        _, expected, _ = run(capsys, "solve", str(chain2_file), "--json", "-")
        proc = TestTopLevel.child(
            "-m", "silires", "solve", str(chain2_file), "--json", "/dev/stdout"
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.startswith(expected)
        assert proc.stdout[len(expected):].startswith("edge metric dimension: 5 ")

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unwritable_output_is_usage_error(
        self, chain2_file, tmp_path, capsys, command, where
    ):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "out"
        outputs = [target] + self.outputs(tmp_path, command, "out")[1:]
        try:  # the message a truncating write gives
            target.write_bytes(b"")
        except OSError as exc:
            expected = f"silires: error: {exc}\n"
        code, out, err = run(capsys, *output_argv(command, chain2_file, outputs))
        assert (code, out, err) == (EXIT_USAGE, "", expected)
        assert not (tmp_path / "missing").exists()


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        assert silires.cli.build_parser() is not silires.cli.build_parser()
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE  # builds it if needed
        monkeypatch.setattr(
            silires.cli, "build_parser", lambda: pytest.fail("parser rebuilt")
        )
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE
        code, out, _ = run(capsys, "generate", "--family", "chain", "-n", "1")
        assert code == EXIT_OK and out.startswith("p 4 6\n")

    def test_no_option_carries_over_between_calls(self, chain2_file, capsys):
        # A pooled vertex solve to stdout, then a usage error, then a plain
        # solve: the last call must print what a fresh process prints.
        code, out, _ = run(
            capsys,
            "solve", str(chain2_file), "--workers", "2", "--target", "vertex",
            "--json", "-",
        )
        assert code == EXIT_OK and json.loads(out)["target"] == "vertex"
        code, out, err = run(capsys, "solve", str(chain2_file), "--target", "both")
        assert code == EXIT_USAGE
        assert out == "" and "invalid choice: 'both'" in err
        code, out, err = run(capsys, "solve", str(chain2_file))
        fresh = self.child("-m", "silires", "solve", str(chain2_file))
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert out.startswith("edge metric dimension: 5 ")

    @staticmethod
    def child(*args):
        """Run a fresh interpreter that imports the same silires as this
        process, installed or not."""
        src = str(Path(silires.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_module_invocation(self):
        proc = self.child("-m", "silires", "generate", "--family", "chain", "-n", "1")
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith("p 4 6\n")

    def test_import_loads_no_undeclared_dependency(self):
        # scipy and networkx may be installed but are not dependencies; a
        # stray import would add its load time and memory to every command.
        proc = self.child(
            "-c",
            "import sys, silires, silires.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'}))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_loads_no_pool_machinery(self):
        # Only a solve with more than one worker starts a process pool, so
        # only such a solve should pay for loading its modules.
        proc = self.child(
            "-c",
            "import sys, silires, silires.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
