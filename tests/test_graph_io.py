import numpy as np
import pytest

from kronmoments.graph_io import GraphParseError, SimpleGraph, choose_r, load_edge_list


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
    g = load_edge_list(write(tmp_path, ""))
    assert g.num_vertices == 0
    assert g.num_edges == 0


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


def test_relabeling_first_appearance(tmp_path):
    g = load_edge_list(write(tmp_path, "100 7\n7 42\n"))
    assert list(g.labels) == [100, 7, 42]
    assert g.edge_array.tolist() == [[0, 1], [1, 2]]


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


def test_from_pairs_rejects_bad_edges():
    with pytest.raises(ValueError):
        SimpleGraph(3, np.array([[0, 0]]))
    with pytest.raises(ValueError):
        SimpleGraph(2, np.array([[0, 5]]))


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
