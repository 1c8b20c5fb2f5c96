"""Edge-list format, JSON reports, canonical byte encoding."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silires import (
    CHAIN,
    SKELETON,
    EdgeListFormatError,
    GraphInputError,
    SilicateSpec,
    SolveOptions,
    build_graph,
    build_silicate,
    canonical_json_bytes,
    certificate_report,
    classify_silicate,
    exact_edge_metric_dimension,
    format_edge_list,
    is_edge_resolving,
    parse_edge_list,
    structure_report,
    verification_report,
)

from silires.serialization import _parse_canonical, _parse_lines

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

    @pytest.mark.parametrize("header", ["p -3 1", "p 3 -1"])
    def test_negative_header_counts(self, header):
        # Not the canonical shape, so the line loop reads and rejects it.
        text = f"{header}\n0 1\n"
        assert _parse_canonical(text) is None
        message = f"line 1: negative counts in header '{header}'"
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list(text)
        assert str(excinfo.value) == message

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

    def test_reversed_pair_rejected(self):
        # Accepting it would re-emit "p 2 1\n0 1\n", not the input bytes.
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("p 2 1\n1 0\n")
        assert "line 2" in str(excinfo.value)

    def test_unsorted_pairs_rejected(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("p 3 2\n1 2\n0 1\n")
        assert "line 3" in str(excinfo.value)

    def test_repeat_found_past_comments(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("p 3 3\n0 1\n# note\n1 2\n\n2 1\n")
        message = str(excinfo.value)
        assert "line 6" in message and "line 4" in message

    @pytest.mark.parametrize(
        "repeat,reason", [("0 1", "does not sort after"), ("1 0", "smaller id first")]
    )
    def test_repeat_of_an_older_pair_rejected_naming_its_line(self, repeat, reason):
        # Only the previous pair is remembered: a repeat of an older one
        # fails the order check, or, reversed, the smaller-id-first check.
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list(f"p 3 3\n0 1\n1 2\n{repeat}\n")
        message = str(excinfo.value)
        assert message.startswith("line 4: ") and reason in message


    def test_self_loop_rejected_naming_its_line(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list("p 3 2\n0 1\n2 2\n")
        message = str(excinfo.value)
        assert message.startswith("line 3: ") and "self-loop" in message

    @pytest.mark.parametrize("pair", ["1 3", "-1 0"])
    def test_id_outside_the_header_range_rejected_naming_its_line(self, pair):
        with pytest.raises(EdgeListFormatError) as excinfo:
            parse_edge_list(f"p 3 2\n0 1\n{pair}\n")
        message = str(excinfo.value)
        assert message.startswith("line 3: ") and "outside [0, 3)" in message

    def test_file_without_edges(self):
        g = parse_edge_list("p 3 0\n")
        assert (g.vertex_count, g.edges) == (3, ())
        assert format_edge_list(g) == "p 3 0\n"

    def test_id_past_64_bits_named(self):
        # Within the header's range, but too wide for the id array.
        with pytest.raises(GraphInputError, match=f"vertex id {2**70} does not fit in 64 bits"):
            parse_edge_list(f"p {2**71} 1\n0 {2**70}\n")

    @pytest.mark.parametrize(
        "text,n",
        [
            ("p 99999999999999999999 1\n0 5\n", 10**20 - 1),
            ("p 5000000000 1\n0 4999999999\n", 5 * 10**9),
        ],
    )
    def test_vertex_count_past_the_arc_keys_named(self, text, n):
        # The first takes the line loop (20 digits), the second the fast path.
        with pytest.raises(GraphInputError, match=f"^vertex count {n} is too large"):
            parse_edge_list(text)


@st.composite
def edge_lists(draw):
    """A vertex count of 0-30 and pairs of distinct ids below it, in any
    order and orientation, repeats included."""
    n = draw(st.integers(0, 30))
    ids = st.integers(0, max(n - 1, 0))
    return n, [(u, v) for u, v in draw(st.lists(st.tuples(ids, ids))) if u != v]


def outcome(parse, text):
    """What ``parse(text)`` gives: the graph, or the exception's type and
    message."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


# Inputs for the two parsing paths, each marked with whether it has the
# canonical shape and passes its checks (so the fast path reads it).
PARSE_CORPUS = [
    ("p 4 3\n0 1\n0 2\n2 3\n", True),
    ("p 3 0\n", True),
    ("p 0 0\n", True),
    ("p 5 1\n007 0010\n", False),  # id 10 is outside [0, 5)
    ("p 12 1\n007 0010\n", True),  # leading zeros
    (f"p {10**18 - 1} 1\n0 {10**18 - 2}\n", True),  # 18 digits
    (f"p {10**19} 1\n0 {10**18}\n", False),  # 19 digits
    (f"p 5 1\n0 {10**18}\n", False),
    ("# comment\np 3 2\n0 1\n1 2\n", False),
    ("p 3 2\n0 1\n# comment\n1 2\n", False),
    ("p 3 2\n\n0 1\n1 2\n", False),
    ("p 3 2\n0 1\n1 2\n\n", False),
    ("p 3 2\r\n0 1\r\n1 2\r\n", False),
    ("p 3 2\n0\t1\n1 2\n", False),
    ("p 3 2\n0  1\n1 2\n", False),
    ("p 3 2\n 0 1\n1 2\n", False),
    ("p 3 2\n0 1\n1 2", False),  # no final newline
    ("p 3 2\n0 +1\n1 2\n", False),
    ("p 20 1\n0 1_0\n", False),
    ("p 3 2\n1 2\n0 1\n", False),  # out of order
    ("p 4 2\n0 2\n0 1\n", False),  # out of order, same u
    ("p 3 2\n0 1\n0 1\n", False),  # repeat
    ("p 3 2\n0 1\n1 0\n", False),  # reversed repeat
    ("p 3 1\n1 0\n", False),
    ("p 3 1\n2 2\n", False),  # self-loop
    ("p 3 1\n0 3\n", False),  # out of range
    ("p 3 1\n-1 2\n", False),
    ("p 3 3\n0 1\n1 2\n", False),  # header count mismatch
    ("p 3 1\n0 1\n1 2\n", False),
    ("p 3 1 1\n0 1\n", False),
    ("q 3 1\n0 1\n", False),
    ("p x 1\n0 1\n", False),
    ("p 3 1\n0 1 2\n", False),
    ("", False),
    ("p 3 0", False),
    ("p 3 0\n0 1\n", False),
    ("p 3 1\n0 ١\n", False),  # a digit int() reads, outside ASCII
    ("p 5000000000 1\n0 4999999999\n", True),  # too many vertices
]


class TestParsingPaths:
    @pytest.mark.parametrize("text,fast", PARSE_CORPUS)
    def test_fast_path_and_line_loop_agree(self, text, fast):
        loop = outcome(_parse_lines, text)
        assert outcome(parse_edge_list, text) == loop
        canonical = outcome(_parse_canonical, text)
        if fast:
            assert canonical == loop
        else:
            assert canonical is None

    def test_fast_path_reads_every_generated_file(self):
        for family, n in [(CHAIN, 1), (CHAIN, 40), ("cyclic", 3), ("cyclic", 41)]:
            text = format_edge_list(family_graph(family, n))
            assert _parse_canonical(text) == _parse_lines(text) == family_graph(family, n)

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_round_trip(self, case):
        g = build_graph(*case)
        text = format_edge_list(g)
        h = parse_edge_list(text)
        assert h == g and format_edge_list(h) == text
        assert _parse_canonical(text) == g  # read in the array pass


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

    def test_verification_report_of_numpy_landmarks(self):
        # The landmarks are listed as Python ints, so the report serializes
        # to the bytes of the equal list; a one-shot iterator gives them too.
        g = family_graph(CHAIN, 3)
        landmarks = [0, 1, 4, 5, 7, 8]
        result = is_edge_resolving(g, landmarks)
        expected = canonical_json_bytes(
            verification_report(g, landmarks, "edge", result, include_codes=True)
        )
        for given_ids in (np.array(landmarks), iter(landmarks)):
            report = verification_report(g, given_ids, "edge", result, include_codes=True)
            assert canonical_json_bytes(report) == expected

    @pytest.mark.parametrize("target", ["edges", "mixed", None])
    def test_verification_report_rejects_unknown_target(self, target):
        # An unknown target would be written into the report beside a
        # witness of the other shape.
        g = family_graph(CHAIN, 2)
        result = is_edge_resolving(g, [0, 3])
        message = f"target must be 'edge' or 'vertex', got {target!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verification_report(g, [0, 3], target, result)

    def test_certificate_report_is_stable_json(self):
        g = family_graph(CHAIN, 2)
        cert = exact_edge_metric_dimension(g)
        report = certificate_report(cert, classify_silicate(g))
        assert (report["family"], report["n"]) == (CHAIN, 2)
        assert report["status"] == "optimal"
        assert report["dimension"] == 5
        assert report["stats"] == {"subsets_examined": cert.stats.subsets_examined}
        # Wall-clock time must not leak into the canonical artifact.
        flat = json.dumps(report)
        assert "elapsed" not in flat
        assert "workers" not in flat

    def test_reports_name_the_family_alike(self):
        # A chain or cyclic spec gives its family and n, a skeleton spec its
        # family and no n (its base graph takes the place of n), and no spec
        # neither, in the structure report and the certificate report alike.
        skeleton = SilicateSpec(family=SKELETON, skeleton=path_graph(3))
        silicate = build_silicate(skeleton)
        cert = exact_edge_metric_dimension(silicate.graph)
        cases = [
            (SilicateSpec(family=CHAIN, n=2), (CHAIN, 2)),
            (skeleton, (SKELETON, None)),
            (None, (None, None)),
        ]
        for spec, fields in cases:
            for report in (structure_report(silicate, spec), certificate_report(cert, spec)):
                assert (report["family"], report["n"]) == fields

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
