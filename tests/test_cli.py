"""Command-line interface: commands, formats, exit codes."""

import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import silires.cli
import silires.solver
import silires.structure
from silires import (
    SolveOptions,
    build_graph,
    canonical_json_bytes,
    certificate_report,
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

from conftest import family_graph, random_connected_graph


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

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "/no/such/file", "--set", "0")
        assert code == EXIT_USAGE

    def test_malformed_set_is_usage_error(self, chain2_file, capsys):
        code, _, _ = run(capsys, "verify", str(chain2_file), "--set", "0,x")
        assert code == EXIT_USAGE

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
        # A witness the independent check rejects is a solver defect: one
        # line on stderr and its own exit code, not a traceback.
        monkeypatch.setattr(
            silires.solver,
            "is_edge_resolving",
            lambda g, landmarks, dist=None: VerificationResult(
                resolving=False, witness=None
            ),
        )
        code, out, err = run(capsys, "solve", str(chain2_file))
        assert code == EXIT_INTERNAL == 70
        assert out == ""
        assert err.count("\n") == 1 and "non-resolving witness" in err
        assert "Traceback" not in err

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
                    library = canonical_json_bytes(certificate_report(cert))
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
