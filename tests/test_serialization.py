"""Edge-list format, JSON reports, canonical byte encoding."""

import json

import pytest

from silires import (
    CHAIN,
    EdgeListFormatError,
    SilicateSpec,
    SolveOptions,
    build_silicate,
    canonical_json_bytes,
    certificate_report,
    exact_edge_metric_dimension,
    format_edge_list,
    is_edge_resolving,
    parse_edge_list,
    structure_report,
    verification_report,
)

from conftest import family_graph, path_graph


class TestEdgeListFormat:
    def test_format_shape(self):
        text = format_edge_list(path_graph(3))
        assert text == "p 3 2\n0 1\n1 2\n"

    def test_round_trip_byte_identity(self):
        for family, n in [(CHAIN, 1), (CHAIN, 7), ("cyclic", 3), ("cyclic", 8)]:
            g = family_graph(family, n)
            text = format_edge_list(g)
            again = format_edge_list(parse_edge_list(text))
            assert again == text

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\np 3 2\n# another\n0 1\n\n1 2\n"
        g = parse_edge_list(text)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_missing_header(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("0 1\n")

    def test_bad_header_token(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("q 3 2\n0 1\n1 2\n")
        assert "line 1" in str(excinfo.value)

    def test_wrong_edge_count(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("p 3 5\n0 1\n1 2\n")
        assert "5" in str(excinfo.value)

    def test_non_integer_vertex(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("p 3 2\n0 x\n1 2\n")
        assert "line 2" in str(excinfo.value)

    def test_junk_line_reported_with_number(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("p 3 2\n0 1\n1 2 3\n")
        assert "line 3" in str(excinfo.value)

    @pytest.mark.parametrize("repeat", ["1 0", "0 1"])
    def test_repeated_pair_rejected_naming_both_lines(self, repeat):
        # Collapsing the repeat would build one edge against a header of two
        # and re-emit as "p 2 1", breaking the byte round trip.
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list(f"p 2 2\n0 1\n{repeat}\n")
        message = str(excinfo.value)
        assert "line 3" in message and "line 2" in message

    def test_repeat_found_past_comments(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("p 3 3\n0 1\n# note\n1 2\n\n2 1\n")
        message = str(excinfo.value)
        assert "line 6" in message and "line 4" in message


class TestReports:
    def test_structure_report_fields(self):
        spec = SilicateSpec(family=CHAIN, n=2)
        sil = build_silicate(spec)
        report = structure_report(sil, spec)
        assert report["family"] == CHAIN
        assert report["n"] == 2
        assert report["graph"] == {"vertex_count": 7, "edge_count": 12}
        assert report["tetrahedra"] == [[0, 1, 2, 3], [3, 4, 5, 6]]
        assert report["shared_vertices"] == [3]

    def test_verification_report_edge_witness_shape(self):
        g = family_graph(CHAIN, 2)
        landmarks = [0, 3]
        result = is_edge_resolving(g, landmarks)
        report = verification_report(g, landmarks, "edge", result)
        assert report["resolving"] is False
        pair = report["witness"]
        assert isinstance(pair, list) and len(pair) == 2
        assert all(isinstance(e, list) and len(e) == 2 for e in pair)

    def test_verification_report_with_codes(self):
        g = family_graph(CHAIN, 1)
        landmarks = [0, 1, 2]
        result = is_edge_resolving(g, landmarks)
        report = verification_report(g, landmarks, "edge", result, include_codes=True)
        assert report["resolving"] is True
        assert len(report["codes"]) == g.edge_count
        codes = {tuple(row["code"]) for row in report["codes"]}
        assert len(codes) == g.edge_count

    def test_certificate_report_is_stable_json(self):
        g = family_graph(CHAIN, 2)
        cert = exact_edge_metric_dimension(g)
        report = certificate_report(cert, family=CHAIN, n=2)
        assert report["status"] == "optimal"
        assert report["dimension"] == 5
        assert report["stats"] == {"subsets_examined": cert.stats.subsets_examined}
        # Wall-clock time must not leak into the canonical artifact.
        flat = json.dumps(report)
        assert "elapsed" not in flat
        assert "workers" not in flat

    def test_certificate_byte_identity_across_runs(self):
        g = family_graph(CHAIN, 2)
        a = canonical_json_bytes(certificate_report(exact_edge_metric_dimension(g)))
        b = canonical_json_bytes(
            certificate_report(
                exact_edge_metric_dimension(g, SolveOptions(parallel_workers=4))
            )
        )
        assert a == b


class TestCanonicalJson:
    def test_sorted_keys_and_tight_separators(self):
        data = {"b": [1, 2], "a": {"y": 1, "x": 2}}
        assert canonical_json_bytes(data) == b'{"a":{"x":2,"y":1},"b":[1,2]}\n'

    def test_insertion_order_irrelevant(self):
        one = canonical_json_bytes({"a": 1, "b": 2})
        two = canonical_json_bytes({"b": 2, "a": 1})
        assert one == two

    def test_trailing_newline(self):
        assert canonical_json_bytes([]).endswith(b"\n")
