import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from kronmoments import graph_io
from kronmoments.graph_io import (
    GraphParseError,
    SimpleGraph,
    _edge_keys,
    _has_inline_comment,
    _key_labels,
    _read_bulk,
    _read_lines,
    choose_r,
    load_edge_list,
)
from oracles import checked_graph


def write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_dedup_loops_and_reversed_duplicates(tmp_path):
    path = write(tmp_path, "1 2\n2 1\n3 3\n# c\n1 2\n")
    g = load_edge_list(path)
    assert g.num_vertices == 3
    assert g.num_edges == 1
    assert g.edge_array.tolist() == [[0, 1]]
    assert g.loops_dropped == 1
    assert g.duplicates_dropped == 2
    # vertex 3 only ever appeared in a loop; retained at degree 0
    assert g.num_isolated == 1
    assert list(g.labels) == [1, 2, 3]


def test_empty_file(tmp_path):
    for text in ("", "# only\n#  comments\n\n"):
        g = load_edge_list(write(tmp_path, text))
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.labels.size == 0 and g.edge_array.shape == (0, 2)
        assert g.degrees.size == 0


def test_comments_and_whitespace(tmp_path):
    g = load_edge_list(write(tmp_path, "# header\n\n  10\t20 \n#x\n20 30\n"))
    assert g.num_vertices == 3
    assert g.num_edges == 2


def test_malformed_line_reports_number(tmp_path):
    path = write(tmp_path, "1 2\n3 x\n")
    with pytest.raises(GraphParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_number == 2
    assert "non-integer" in str(exc.value)

    path = write(tmp_path, "1 2\n4 5 6\n", name="g2.txt")
    with pytest.raises(GraphParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_number == 2


def test_unreadable_file(tmp_path):
    with pytest.raises(OSError):
        load_edge_list(tmp_path / "missing.txt")


def test_a_pipe_is_an_error_before_any_read(tmp_path, monkeypatch):
    # the load reads its path up to three times, which a pipe cannot give;
    # opening this fifo would block, with no writer, so no open may come
    # before the check
    def no_open(*args, **kwargs):
        raise AssertionError("opened before the check")

    monkeypatch.setattr(graph_io, "open", no_open, raising=False)
    fifo = tmp_path / "g.fifo"
    os.mkfifo(fifo)
    with pytest.raises(ValueError, match="not a regular file") as exc:
        load_edge_list(fifo)
    assert str(fifo) in str(exc.value)
    with pytest.raises(ValueError, match="not a regular file"):
        load_edge_list(tmp_path)  # a directory neither


def test_relabeling_ascending_labels(tmp_path):
    g = load_edge_list(write(tmp_path, "100 7\n7 42\n"))
    assert list(g.labels) == [7, 42, 100]
    assert g.edge_array.tolist() == [[0, 1], [0, 2]]


def test_loading_twice_identical(tmp_path):
    path = write(tmp_path, "5 1\n1 9\n9 5\n2 2\n5 1\n")
    g1 = load_edge_list(path)
    g2 = load_edge_list(path)
    assert np.array_equal(g1.edge_array, g2.edge_array)
    assert np.array_equal(g1.labels, g2.labels)


def test_degree_and_adjacency_invariants(tmp_path):
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 4 * n))
        lines = [f"{rng.integers(0, n)} {rng.integers(0, n)}" for _ in range(m)]
        g = load_edge_list(write(tmp_path, "\n".join(lines) + "\n"))
        assert int(g.degrees.sum()) == 2 * g.num_edges
        e = g.edge_array
        assert np.all(e[:, 0] < e[:, 1])  # u < v, so no loops
        assert e.size == 0 or (e.min() >= 0 and e.max() < g.num_vertices)
        keys = e[:, 0] * g.num_vertices + e[:, 1]
        assert np.all(np.diff(keys) > 0)  # sorted, no duplicates
        deg = np.bincount(e.ravel(), minlength=g.num_vertices)
        assert np.array_equal(deg, g.degrees)


@pytest.mark.parametrize("pairs", [
    [[0, 5]],  # its key 5 would decode as the edge (1, 2)
    [[-1, 1]],
    [[7, 7], [0, 1]],  # a loop is checked before it is dropped
])
def test_from_pairs_rejects_endpoints_out_of_range(pairs):
    with pytest.raises(ValueError, match="outside 0..num_vertices-1"):
        SimpleGraph.from_pairs(np.array(pairs), num_vertices=3)


# one more than isqrt(2**63 - 1); only the reject side is tested, since a
# graph at the limit would allocate a 24 GB degrees array
PAST_VERTEX_LIMIT = 3_037_000_500


def test_vertex_count_past_the_key_limit_is_rejected():
    with pytest.raises(ValueError, match="overflow int64"):
        SimpleGraph.from_pairs([(0, 1)], num_vertices=PAST_VERTEX_LIMIT)
    with pytest.raises(ValueError, match="overflow int64"):
        SimpleGraph.from_pairs([(0, PAST_VERTEX_LIMIT - 1)])


# on 4 vertices the key of (u, v) is 4u + v, below 16
@pytest.mark.parametrize("n, keys, message", [
    (4, [1, 6, 2], "ascend strictly"),  # (0, 1), (1, 2), (0, 2)
    (4, [1, 6, 6], "ascend strictly"),  # (1, 2) twice
    (4, [0 * 4 + 0, 6], "u >= v"),  # a loop
    (4, [1, 2 * 4 + 1], "u >= v"),  # (2, 1)
    (4, [-1, 1], "outside"),
    (4, [1, 16], "outside"),  # decodes as (4, 0)
    (PAST_VERTEX_LIMIT, [], "overflow int64"),
    (4, [[0, 1], [1, 2]], "from_pairs takes"),  # pairs, not keys
], ids=["unsorted", "repeated", "loop", "u-above-v", "negative",
        "past-n-squared", "past-vertex-limit", "pairs"])
def test_constructor_rejects_bad_keys(n, keys, message):
    with pytest.raises(ValueError, match=message):
        SimpleGraph(n, np.array(keys, dtype=np.int64))


@pytest.mark.parametrize("edges", [
    [[0, 1], [1, 0], [1, 2]],  # the twin reversed
    [[1, 2], [2, 1]],  # both reversed against each other
    [[0, 1], [0, 1], [1, 2]],  # the twin repeated as is
])
def test_constructor_rejects_duplicate_edges(edges):
    # each pair keyed as min * n + max, so a reversed twin keys the same
    keys = np.sort(np.array(edges), axis=1) @ np.array([4, 1])
    with pytest.raises(ValueError, match=r"duplicate edge \([01], [12]\)"):
        SimpleGraph(4, keys)


def test_from_pairs_array_list_and_generator_agree():
    pairs = [(3, 1), (1, 3), (2, 2), (0, 4), (4, 0), (1, 2), (0, 4)]
    graphs = [
        SimpleGraph.from_pairs(np.array(pairs)),
        SimpleGraph.from_pairs(pairs),
        SimpleGraph.from_pairs(p for p in pairs),
    ]
    for g in graphs:
        assert g.num_vertices == 5
        assert g.edge_array.tolist() == [[0, 4], [1, 2], [1, 3]]
        assert np.array_equal(g.degrees, graphs[0].degrees)
        assert (g.loops_dropped, g.duplicates_dropped) == (1, 3)


INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def reference_load(path):
    """The edge list read one line at a time with Python ints, dicts and
    sets: (labels, sorted edges, loops dropped, duplicates dropped), the
    ids numbering the labels in ascending order."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise GraphParseError(
                    path, line_no, f"expected 2 tokens, found {len(tokens)}")
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphParseError(
                    path, line_no, f"non-integer vertex label in {tokens!r}"
                ) from None
            if not (INT64_MIN <= a <= INT64_MAX
                    and INT64_MIN <= b <= INT64_MAX):
                raise GraphParseError(
                    path, line_no, f"vertex label outside int64 in {tokens!r}")
            pairs.append((a, b))
    labels = sorted({x for pair in pairs for x in pair})
    ids = {label: i for i, label in enumerate(labels)}
    edges, loops, dups = set(), 0, 0
    for a, b in pairs:
        u, v = ids[a], ids[b]
        if u == v:
            loops += 1
        elif (min(u, v), max(u, v)) in edges:
            dups += 1
        else:
            edges.add((min(u, v), max(u, v)))
    return labels, sorted(edges), loops, dups


# labels: small, reused, negative and the int64 extremes
LABEL_POOL = [0, 1, 2, 3, 7, 42, 1000, -1, -5, 10 ** 12, INT64_MIN, INT64_MAX,
              INT64_MAX - 1, INT64_MIN + 1]
# lines only the line-by-line reading accepts, lines no reading accepts,
# and rarer whitespace
ODD_LINES = ["1_0 2", "\u0663 5", "x 2", "1.5 2", "7", "1 2 3",
             f"{2 ** 63} 1", f"1 {-2 ** 63 - 1}", "1 2 # trailing", "3 4#x",
             "\x00 1", "1\u20282", "1\x0c2", "1\x1c2", "\x0b# c", "\xa0# c"]
NEWLINES = ["\n", "\r\n", "\r"]


def random_edge_text(rng):
    lines = []
    for _ in range(int(rng.integers(0, 25))):
        kind = rng.random()
        if kind < 0.08:
            lines.append(rng.choice(["", "  ", "\t", " \t "]))
        elif kind < 0.16:
            lines.append(rng.choice(["", " ", "\t"]) + "#"
                         + rng.choice(["", " c", " 1 2", "#", " x # y"]))
        elif kind < 0.24 and lines:
            parts = rng.choice(lines).split()  # reuse, reversed if a pair
            lines.append(" ".join(parts[::-1]))
        else:
            pool = LABEL_POOL[:int(rng.integers(2, len(LABEL_POOL) + 1))]
            a, b = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.1:
                b = a
            lead, sep, tail = (rng.choice(["", " ", "\t", "  "]),
                               rng.choice([" ", "\t", "  ", " \t"]),
                               rng.choice(["", " ", "\t"]))
            lines.append(f"{lead}{a}{sep}{b}{tail}")
    if lines and rng.random() < 0.3:
        lines.insert(int(rng.integers(0, len(lines) + 1)),
                     rng.choice(ODD_LINES))
    newline = rng.choice(NEWLINES)
    mixed = rng.random() < 0.2
    text = "".join(
        line + (rng.choice(NEWLINES) if mixed else newline) for line in lines)
    return text[:-1] if text and rng.random() < 0.2 else text


def test_bulk_parse_matches_line_reading(tmp_path):
    rng = np.random.default_rng(20261018)
    paths_taken = {"bulk": 0, "lines": 0, "error": 0}
    for case in range(400):
        path = tmp_path / f"case{case}.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(random_edge_text(rng))
        try:
            want = reference_load(path)
        except GraphParseError as exc:
            with pytest.raises(GraphParseError) as got:
                load_edge_list(path)
            assert (got.value.line_number, str(got.value)) == (
                exc.line_number, str(exc)), path.read_bytes()
            assert _read_bulk(path) is None
            paths_taken["error"] += 1
            continue
        g = load_edge_list(path)
        labels, edges, loops, dups = want
        assert g.labels.tolist() == labels, path.read_bytes()
        assert g.edge_array.tolist() == [list(e) for e in edges]
        assert g.num_vertices == len(labels)
        assert (g.loops_dropped, g.duplicates_dropped) == (loops, dups)
        assert np.array_equal(g.degrees, np.bincount(
            np.array(edges, dtype=np.int64).ravel(), minlength=len(labels)))
        # the labels ascend strictly, so a binary search finds each id
        assert (g.labels[1:] > g.labels[:-1]).all()
        raw = _read_lines(path)
        ids = np.searchsorted(g.labels, raw)
        assert np.array_equal(g.labels[ids], raw)
        ids = np.sort(ids[ids[:, 0] != ids[:, 1]], axis=1)
        assert np.array_equal(np.unique(ids, axis=0).reshape(-1, 2),
                              g.edge_array)
        bulk = _read_bulk(path)
        if bulk is None:
            paths_taken["lines"] += 1
        else:
            assert np.array_equal(bulk, _read_lines(path))
            paths_taken["bulk"] += 1
    assert min(paths_taken.values()) >= 20, paths_taken


@pytest.mark.parametrize("text, line_number, message", [
    ("1 2\n3 4 #note\n", 2, "expected 2 tokens, found 3"),
    ("1 2\r3 4#x\r", 2, "non-integer vertex label in ['3', '4#x']"),
    ("1 2\n5\n", 2, "expected 2 tokens, found 1"),
    ("7\n8\n", 1, "expected 2 tokens, found 1"),
    ("1 2 3\n", 1, "expected 2 tokens, found 3"),
    (f"1 2\n1 {2 ** 63}\n", 2, "vertex label outside int64"),
    ("1 2\n\x00 3\n", 2, "non-integer vertex label"),
    ("1.5 2\n", 1, "non-integer vertex label in ['1.5', '2']"),
    ("1 2\n1e3 4\n", 2, "non-integer vertex label in ['1e3', '4']"),
])
def test_bulk_parse_falls_back_for_errors(tmp_path, text, line_number,
                                          message):
    path = tmp_path / "bad.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _read_bulk(path) is None
    with pytest.raises(GraphParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_number == line_number
    assert message in str(exc.value)


@pytest.mark.parametrize("suffix", graph_io._DECOMPRESSED_SUFFIXES)
def test_bulk_parse_reads_compressed_names_as_plain_text(tmp_path, suffix):
    # loadtxt would decompress these names by path; the handle it gets
    # reads them as the plain text they are
    text = "1 2\n2 3\n# comment\n1 3\n"
    want = _read_bulk(write(tmp_path, text))
    got = _read_bulk(write(tmp_path, text, f"g{suffix}"))
    assert got is not None and np.array_equal(got, want)


@pytest.mark.parametrize("text, line_number", [
    ("1.5 2\n", 1),
    ("1 2\n1e3 4\n", 2),
])
def test_float_read_tokens_fall_back(tmp_path, monkeypatch, text,
                                     line_number):
    # numpy releases from 1.23 read such a token through a float and cast
    # it, with only a DeprecationWarning; this stands in for that loadtxt
    def loadtxt_via_float(fname, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning, stacklevel=2)
        rows = [line.split() for line in open(fname).read().splitlines()]
        return np.array([[float(t) for t in row] for row in rows]
                        ).astype(dtype).reshape(-1, 2)

    monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
    path = write(tmp_path, text)
    assert _read_bulk(path) is None
    with pytest.raises(GraphParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_number == line_number
    assert "non-integer vertex label" in str(exc.value)


def inline_comment_reference(data: bytes) -> bool:
    """Whether some line's first '#' follows a non-blank byte, line by line;
    a line ends at a line feed or a carriage return."""
    for line in re.split(rb"[\r\n]", data):
        mark = line.find(b"#")
        if mark > 0 and line[:mark].strip():
            return True
    return False


@pytest.mark.parametrize("data, want", [
    (b"1 2\r# c\r3 4\r", False),
    (b"1 2\r3 4 # c\r", True),
    (b"1 2\r\n# c\r\n3 4\r\n", False),
    (b"1 2\r\n3 4\t# c\r\n", True),
    (b"1 2\n \t\x0b\x0c# blank prefix\n", False),
    (b"1 2\n3 4# after a label\n", True),
    (b"1 2\n  #x\n5# after a label\n", True),
    (b"# c # a later mark\n  # c # and another\n1 2\n", False),
    (b"1 2\n# c\n5 6 #x", True),
    (b"1 2\n# c\n  # c", False),
    (b"#", False),
    (b"x#", True),
    (b"", False),
], ids=["cr", "cr-inline", "crlf", "crlf-inline", "blank-prefix",
        "after-label", "after-label-later", "later-mark", "no-final-newline",
        "no-final-newline-blank", "lone-mark", "lone-inline", "empty"])
def test_inline_comment_check_matches_line_reference(tmp_path, data, want):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    assert inline_comment_reference(data) is want
    assert _has_inline_comment(path) is want


def check_random_bytes(path, rng, cases):
    """_has_inline_comment against the line reference on random bytes."""
    alphabet = [b"1", b"x", b" ", b"\t", b"\x0b", b"#", b"\n", b"\r"]
    seen = set()
    for _ in range(cases):
        data = b"".join(rng.choice(alphabet, int(rng.integers(0, 24))))
        path.write_bytes(data)
        want = inline_comment_reference(data)
        assert _has_inline_comment(path) is want, data
        seen.add(want)
    assert seen == {True, False}


def test_inline_comment_check_on_random_bytes(tmp_path):
    check_random_bytes(tmp_path / "g.txt", np.random.default_rng(20261019),
                       400)


# The scan for a '#' that opens no line goes a slice of _SCAN_BYTES at a
# time; a '#' at a slice's first byte must still see the byte before it.
@pytest.mark.parametrize("scan_bytes", [1, 2, 3, 5])
def test_inline_comment_check_in_slices(tmp_path, monkeypatch, scan_bytes):
    monkeypatch.setattr(graph_io, "_SCAN_BYTES", scan_bytes)
    check_random_bytes(tmp_path / "g.txt", np.random.default_rng(scan_bytes),
                       200)


# a '#' at offset _SCAN_BYTES opens the second slice, and the byte before
# it is the first slice's last byte
@pytest.mark.parametrize("head, want", [
    (b"1 2\n3 4\n", False),
    (b"1 2\n3 45", True),
], ids=["after-line-feed", "after-label"])
def test_inline_comment_check_at_a_slice_boundary(tmp_path, monkeypatch,
                                                   head, want):
    monkeypatch.setattr(graph_io, "_SCAN_BYTES", len(head))
    data = head + b"# c\n5 6\n"
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    assert data.index(b"#") == graph_io._SCAN_BYTES
    assert inline_comment_reference(data) is want
    assert _has_inline_comment(path) is want


# Where every line is an indented comment, every '#' follows a blank and
# is checked on its own: lines cut across slices, and later marks on a line
# whose first '#' was checked, must read clean, and a label before any
# mark must not.
@pytest.mark.parametrize("scan_bytes", range(1, 8))
def test_inline_comment_check_on_indented_comments(tmp_path, monkeypatch,
                                                    scan_bytes):
    monkeypatch.setattr(graph_io, "_SCAN_BYTES", scan_bytes)
    rng = np.random.default_rng(100 + scan_bytes)
    path = tmp_path / "g.txt"
    seen = set()
    for _ in range(60):
        lines = [b"".join(rng.choice([b" ", b"\t", b"\x0b"],
                                     int(rng.integers(1, 4))))
                 + b"#" + b"".join(rng.choice([b"c", b" ", b"#"],
                                              int(rng.integers(0, 5))))
                 for _ in range(int(rng.integers(1, 6)))]
        if rng.random() < 0.3:  # one label ahead of one line's mark
            i = int(rng.integers(len(lines)))
            lines[i] = b"1" + lines[i]
        data = b"".join(line + rng.choice([b"\n", b"\r", b"\r\n"])
                        for line in lines)
        path.write_bytes(data)
        want = inline_comment_reference(data)
        assert _has_inline_comment(path) is want, data
        seen.add(want)
    assert seen == {True, False}


def test_inline_comment_check_holds_a_few_slices(tmp_path, monkeypatch):
    # An indented comment makes the first slice's '#' follow a blank, so
    # only that slice's lines are checked; the rest are clean, and the
    # scan holds a few slices at a time, never the file.
    scan_bytes = 4096
    monkeypatch.setattr(graph_io, "_SCAN_BYTES", scan_bytes)
    pairs = np.random.default_rng(27).integers(0, 10 ** 5, size=(120000, 2))
    path = tmp_path / "g.txt"
    np.savetxt(path, pairs, fmt="%d", header="  # c", comments="")
    assert path.read_bytes().startswith(b"  # c\n")
    assert path.stat().st_size > 300 * scan_bytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert _has_inline_comment(path) is False
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * scan_bytes, peak / scan_bytes


def test_inline_comment_check_reads_into_one_buffer(tmp_path):
    # On a plain file the scan holds its read buffer and one '#' mask per
    # slice, about two slices; a copy of each slice behind its stand-in
    # bytes would make it three.
    scan_bytes = graph_io._SCAN_BYTES
    path = tmp_path / "g.txt"
    path.write_bytes(b"12345 67890\n" * (4 * scan_bytes // 12 + 1000))
    assert path.stat().st_size > 4 * scan_bytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert _has_inline_comment(path) is False
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * scan_bytes, peak / scan_bytes


def test_line_reader_holds_8_bytes_a_label(tmp_path):
    # The line reader keeps each label as 8 bytes of a growing buffer, not
    # as a Python int in a list, and hands that buffer to numpy uncopied.
    pairs = np.random.default_rng(28).integers(-2 ** 40, 2 ** 40,
                                               size=(100000, 2))
    path = tmp_path / "g.txt"
    np.savetxt(path, pairs, fmt="%d")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        raw = _read_lines(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(raw, pairs)
    assert peak < 10 * pairs.size, peak / pairs.size


def test_bad_utf8_raises_as_line_reading_does(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"1 2\n\xff\xfe 3\n")
    with pytest.raises(GraphParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_number == 2


# A Latin-1 byte where UTF-8 is read: in a comment line, in a label line,
# and on the last of 1,001 lines, which the text layer decodes before it
# returns line 1
@pytest.mark.parametrize("text, line_number", [
    (b"1 2\n# caf\xe9\n2 3\n", 2),
    (b"1 2\n2 3\n3 4\xe9\n", 3),
    (b"1 2\n" * 1000 + b"# caf\xe9\n", 1001),
], ids=["comment", "label", "last-of-1001"])
def test_non_utf8_line_is_named(tmp_path, text, line_number):
    path = tmp_path / "g.txt"
    path.write_bytes(text)
    with pytest.raises(GraphParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_number == line_number
    assert str(exc.value).startswith(
        f"{path}:{line_number}: 'utf-8' codec can't decode byte 0xe9")


def test_sorted_and_shuffled_edges_build_the_same_graph():
    rng = np.random.default_rng(7)
    for n in (2, 5, 40, 300):
        adj = np.triu(rng.random((n, n)) < 0.2, 1)
        ascending = np.argwhere(adj)
        shuffled = ascending[rng.permutation(len(ascending))]
        flip = rng.random(len(shuffled)) < 0.5
        shuffled[flip] = shuffled[flip][:, ::-1]
        # sorted by u alone: only the second column is out of order
        by_u = ascending[np.lexsort((rng.random(len(ascending)),
                                     ascending[:, 0]))]
        graphs = [checked_graph(n, e) for e in (ascending, shuffled, by_u)]
        for g in graphs:
            assert np.array_equal(g.edge_array, ascending)
            assert np.array_equal(g.degrees, graphs[0].degrees)


def check_from_pairs_against_unique(pairs, n):
    """from_pairs on n vertices against np.unique of the loop-free keys."""
    g = SimpleGraph.from_pairs(pairs, num_vertices=n)
    loops = pairs[:, 0] == pairs[:, 1]
    rest = np.sort(pairs[~loops], axis=1)
    keys = np.unique(rest[:, 0] * n + rest[:, 1])
    assert g.edge_array.tolist() == np.stack(
        [keys // n, keys % n], axis=1).tolist()
    assert g.loops_dropped == int(loops.sum())
    assert g.duplicates_dropped == len(rest) - len(keys)


def test_from_pairs_matches_unique_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 3, 20, 500):
        check_from_pairs_against_unique(
            rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2)), n)


# Blocks of 1, 2 and 3 keys put runs of equal keys and the loops' keys
# across block boundaries in every way: the first of a run must be kept
# whichever block it opens, and no loop's key kept.
@pytest.mark.parametrize("block", [1, 2, 3])
def test_from_pairs_dedupes_across_blocks(monkeypatch, block):
    monkeypatch.setattr(graph_io, "_LABEL_BLOCK", block)
    rng = np.random.default_rng(block)
    for n in (1, 2, 4, 9):
        for m in (0, 1, 2, 5, 17, 40):
            check_from_pairs_against_unique(
                rng.integers(0, n, size=(m, 2)), n)


def _unique_numbering(raw):
    labels, ids = np.unique(raw, return_inverse=True)
    return labels, ids.reshape(-1)


NUMBERING_CASES = {
    "mixed": lambda rng, m: rng.integers(-50, 50, size=(m, 2)),
    "negative": lambda rng, m: rng.integers(-10 ** 12, -1, size=(m, 2)),
    # every label repeated many times
    "dense": lambda rng, m: rng.integers(0, 4, size=(m, 2)),
    "one-label": lambda rng, m: np.full((m, 2), -7),
    "one-pair": lambda rng, m: rng.integers(-3, 3, size=(1, 2)),
    "wide": lambda rng, m: rng.integers(-2 ** 40, 2 ** 40, size=(m, 2)),
}


def _unique_keying(raw):
    """The labels, edge keys (a loop's set past every key) and loop count
    of np.unique's numbering of ``raw``, keyed by _edge_keys."""
    labels, ids = _unique_numbering(raw)
    return (labels, *_edge_keys(ids.reshape(-1, 2), labels.size))


@pytest.mark.parametrize("case", list(NUMBERING_CASES))
def test_packed_numbering_matches_unique(monkeypatch, case):
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = NUMBERING_CASES[case](rng, int(rng.integers(1, 300)))
        raw = raw.astype(np.int64)
        want_labels, want_keys, want_loops = _unique_keying(raw)
        # blocks of 1 and 3 entries put group starts on block boundaries,
        # and make the keying's blocks of pairs overwrite the blocks they
        # read in every possible way
        for block in (1, 3, 1 << 16):
            monkeypatch.setattr(graph_io, "_LABEL_BLOCK", block)
            monkeypatch.setattr(np, "unique", None)  # the packed path only
            labels, keys, loops = _key_labels(raw.copy())
            monkeypatch.undo()
            assert labels.dtype == keys.dtype == np.int64
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(keys, want_keys)
            assert loops == want_loops


# Each text reads in bulk and line by line to the same graph: pairs with
# loops and reversed twins, no pairs at all (which only the line reading
# reads) and nothing but loops
@pytest.mark.parametrize("text", [
    "".join(f"{u} {v}\n" for u, v in np.random.default_rng(33).integers(
        -40, 40, size=(500, 2)).tolist()),
    "# nothing but a comment\n",
    "5 5\n-3 -3\n5 5\n",
], ids=["pairs", "empty", "all-loops"])
def test_bulk_and_line_readers_build_the_same_graph(tmp_path, monkeypatch,
                                                    text):
    path = write(tmp_path, text)
    bulk = load_edge_list(path)
    monkeypatch.setattr(graph_io, "_read_bulk", lambda path: None)
    lines = load_edge_list(path)
    for name in ("keys", "degrees", "labels"):
        assert np.array_equal(getattr(bulk, name), getattr(lines, name))
        assert getattr(bulk, name).dtype == getattr(lines, name).dtype
    assert (bulk.loops_dropped, bulk.duplicates_dropped) == (
        lines.loops_dropped, lines.duplicates_dropped)
    assert bulk.num_vertices == lines.num_vertices


@pytest.mark.parametrize("first, last, packed", [
    # N = 4 entries: the largest key (last - first + 1) * 4 - 1 is
    # 2**63 - 1 exactly, still an int64
    (-5, -5 + 2 ** 61 - 1, True),
    (-5, -5 + 2 ** 61, False),  # one more
    (-2 ** 62, 2 ** 62, False),
    (-2 ** 63, 2 ** 63 - 1, False),  # max - min itself passes int64
], ids=["at-limit", "one-past", "pm-2-62", "int64-ends"])
def test_numbering_on_both_sides_of_the_key_limit(tmp_path, monkeypatch,
                                                  first, last, packed):
    middle = (first + last) // 2
    path = write(tmp_path, f"{last} {first}\n{middle} {last}\n")
    raw = np.array([[last, first], [middle, last]], dtype=np.int64)
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    g = load_edge_list(path)
    assert (not calls) == packed
    monkeypatch.undo()
    labels, ids = _unique_numbering(raw)
    want = SimpleGraph.from_pairs(ids.reshape(-1, 2),
                                  num_vertices=labels.size, labels=labels)
    assert g.labels.tolist() == [first, middle, last]
    assert np.array_equal(g.labels, want.labels)
    assert np.array_equal(g.edge_array, want.edge_array)
    assert g.edge_array.tolist() == [[0, 2], [1, 2]]


@pytest.mark.parametrize("span, packed", [(2 ** 60, True),
                                          (2 ** 60 + 1, False)],
                         ids=["at-limit", "one-past"])
def test_packing_limit_counts_whole_position_bits(monkeypatch, span,
                                                  packed):
    # N = 6 entries take b = 3 position bits, so labels pack while
    # (max - min + 1) << 3 <= 2^63: a span of 2^60 labels, where
    # (max - min + 1) * 6 would allow 2^63 / 6
    first = -7
    last = first + span - 1
    middle = first + span // 3
    raw = np.array([[last, first], [middle, last], [first, middle]],
                   dtype=np.int64)
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    labels, keys, loops = _key_labels(raw.copy())
    assert (not calls) == packed
    monkeypatch.undo()
    want_labels, want_keys, want_loops = _unique_keying(raw)
    assert labels.tolist() == want_labels.tolist() == [first, middle, last]
    assert np.array_equal(keys, want_keys) and loops == want_loops == 0


def test_from_pairs_matches_the_constructor():
    # from_pairs keys, sorts and merges the pairs; the constructor takes
    # the distinct keys as they are and keeps them as its own
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 60, 400):
        adj = np.triu(rng.random((n, n)) < 0.15, 1)
        edges = np.argwhere(adj)
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        labels = np.sort(rng.choice(10 ** 6, size=n, replace=False))
        keys = np.unique(edges.min(axis=1) * n + edges.max(axis=1))
        built = SimpleGraph(n, keys, labels)
        assert built.keys is keys
        paired = SimpleGraph.from_pairs(edges, num_vertices=n, labels=labels)
        for g in (built, paired):
            assert g.num_vertices == n
            assert g.edge_array.dtype == g.degrees.dtype == np.int64
        assert np.array_equal(paired.keys, keys)
        assert np.array_equal(paired.degrees, built.degrees)
        assert np.array_equal(
            built.degrees, np.bincount(edges.ravel(), minlength=n))
        assert paired.labels is built.labels
        assert (paired.loops_dropped, paired.duplicates_dropped) == (0, 0)
        assert (built.loops_dropped, built.duplicates_dropped) == (0, 0)
        # loops and reversed twins on top: from_pairs drops and counts them
        loops = np.repeat(rng.integers(0, n, size=(3, 1)), 2, axis=1)
        messy = np.concatenate([edges, edges[: len(edges) // 3, ::-1],
                                loops])
        messy = messy[rng.permutation(len(messy))]
        dropped = SimpleGraph.from_pairs(messy, num_vertices=n)
        assert np.array_equal(dropped.keys, keys)
        assert np.array_equal(dropped.degrees, built.degrees)
        assert dropped.loops_dropped == 3
        assert dropped.duplicates_dropped == len(edges) // 3


def test_loader_drops_the_ids_before_the_graph(tmp_path, monkeypatch):
    # The pairs are numbered and keyed in the buffer they were read into,
    # which becomes the graph's keys, and the dedupe holds only block
    # buffers, so once the graph's fields are filled the load holds the
    # finished graph and a few KB: no ids, no loop mask (a byte a pair).
    rng = np.random.default_rng(24)
    pairs = rng.integers(0, 3000, size=(40000, 2)) * 7919 - 10 ** 6
    path = tmp_path / "g.txt"
    np.savetxt(path, pairs, fmt="%d")
    held = []
    init = SimpleGraph.__init__

    def traced_init(graph, *args):
        init(graph, *args)
        held.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(SimpleGraph, "__init__", traced_init)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = load_edge_list(path)
    finally:
        tracemalloc.stop()
    assert g.loops_dropped > 0 and g.duplicates_dropped > 0
    graph = g.keys.nbytes + g.degrees.nbytes + g.labels.nbytes
    assert len(held) == 1
    assert held[0] - base < graph + (1 << 13), (held[0] - base, graph)


def test_loaded_graph_holds_its_keys_degrees_and_labels(tmp_path):
    # A loaded graph is its 8-byte edge keys, its 8-byte degrees and its
    # labels: no (m, 2) edge array is kept, and edge_array is decoded from
    # the keys on each access.  The buffer the pairs were keyed in shrinks
    # to the kept keys, so the thousands of dropped pairs hold nothing.
    rng = np.random.default_rng(25)
    pairs = rng.integers(-300, 300, size=(30000, 2)) * 104729
    path = tmp_path / "g.txt"
    np.savetxt(path, pairs, fmt="%d")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = load_edge_list(path)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert g.loops_dropped > 0 and g.duplicates_dropped > 0
    m = g.num_edges
    assert g.keys.dtype == g.degrees.dtype == np.int64
    assert g.keys.shape == (m,) and g.degrees.shape == (g.num_vertices,)
    assert not any(isinstance(value, np.ndarray) and value.ndim == 2
                   for value in vars(g).values())
    assert len(pairs) - m > 2000
    bound = 8 * m + g.degrees.nbytes + g.labels.nbytes + (1 << 12)
    assert held <= bound, (held, bound)
    # 16 bytes per edge more for the decoded (m, 2) array, a fresh one
    # each time
    first, second = g.edge_array, g.edge_array
    assert first is not second and first.shape == (m, 2)
    assert np.array_equal(first, second)
    assert np.array_equal(first[:, 0] * g.num_vertices + first[:, 1], g.keys)


def test_numbering_holds_its_input_and_int32_ids(monkeypatch):
    # Besides its input, which becomes the edge keys, the numbering and
    # keying of N entries holds the labels it returns, twice while each
    # block's labels are joined, and a few buffers of _LABEL_BLOCK
    # entries: no ids, no N-length position array, start mask or
    # np.arange.
    block = 1 << 10
    monkeypatch.setattr(graph_io, "_LABEL_BLOCK", block)
    rng = np.random.default_rng(26)
    raw = rng.integers(-2 ** 40, 2 ** 40, size=5000)[
        rng.integers(0, 5000, size=(60000, 2))]
    want = _unique_keying(raw)
    tracemalloc.start()
    try:
        raw = raw.copy()  # traced, so that its shrinking is seen
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        labels, keys, loops = _key_labels(raw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert keys is raw and keys.shape == (60000,)
    assert np.array_equal(labels, want[0])
    assert np.array_equal(keys, want[1])
    assert loops == want[2]
    bound = 2 * labels.nbytes + 64 * block + (1 << 12)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("limit", [1, 8, 9, 300])
def test_packing_entry_limit_sends_the_load_to_unique(tmp_path, monkeypatch,
                                                      limit):
    # from the limit on, np.unique numbers the labels and _edge_keys keys
    # them, as for labels too far apart to pack; the graph is the same
    rng = np.random.default_rng(limit)
    pairs = rng.integers(-10 ** 9, 10 ** 9, size=50)[
        rng.integers(0, 50, size=(4 + 50 * (limit > 100), 2))]
    pairs[:2, 1] = pairs[:2, 0]  # two loops
    pairs[2] = pairs[3, ::-1]  # a reversed twin
    path = tmp_path / "g.txt"
    np.savetxt(path, pairs, fmt="%d")
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(graph_io, "_PACKED_ENTRIES", limit)
    monkeypatch.setattr(np, "unique", spy)
    g = load_edge_list(path)
    monkeypatch.undo()
    assert len(calls) == (pairs.size >= limit)
    want = load_edge_list(path)
    for name in ("keys", "degrees", "labels"):
        assert np.array_equal(getattr(g, name), getattr(want, name))
        assert getattr(g, name).dtype == getattr(want, name).dtype
    assert (g.loops_dropped, g.duplicates_dropped) == (
        want.loops_dropped, want.duplicates_dropped)
    assert g.loops_dropped >= 2 and g.duplicates_dropped >= 1


def test_edge_keys_widen_int32_ids_near_2_31():
    # lo * num_vertices passes int32 at once; the keys must be int64
    top = 2 ** 31 - 1
    pairs = np.array([[top, top - 1], [0, top], [top, top], [5, 3]],
                     dtype=np.int32)
    keys, loops = _edge_keys(pairs, 2 ** 31)
    assert keys.dtype == np.int64
    # the loop's key reads past every key
    assert keys.tolist() == [(top - 1) * 2 ** 31 + top, top,
                             graph_io._INT64_MAX, 3 * 2 ** 31 + 5]
    assert loops == 1
    wide, wide_loops = _edge_keys(pairs.astype(np.int64), 2 ** 31)
    assert np.array_equal(keys, wide)
    assert loops == wide_loops


def test_choose_r_examples():
    assert choose_r(5242) == 13
    assert choose_r(16384) == 14
    assert choose_r(1) == 0


def test_choose_r_is_minimal():
    for n in range(1, 600):
        r = choose_r(n)
        assert 2 ** r >= n
        assert r == 0 or 2 ** (r - 1) < n
    with pytest.raises(ValueError):
        choose_r(0)
