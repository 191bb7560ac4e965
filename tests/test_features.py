import math
from itertools import combinations

import numpy as np
import pytest

from kronmoments.features import (
    FeatureCounts,
    count_degree_features,
    count_features,
    count_triangles,
)
from kronmoments.generator import generate
from kronmoments.moments import KroneckerParams
from oracles import checked_graph


def graph_from_edges(n, edges):
    return checked_graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def brute_force_counts(adj):
    """Direct enumeration over pairs, wedge pairs, claw triples, triangles."""
    n = adj.shape[0]
    edges = int(np.triu(adj, 1).sum())
    wedges = claws = triangles = 0
    if n >= 3:
        pairs = np.array(list(combinations(range(n), 2)))
        wedges = int((adj[:, pairs[:, 0]] & adj[:, pairs[:, 1]]).sum())
        trips = np.array(list(combinations(range(n), 3)))
        triangles = int(
            (adj[trips[:, 0], trips[:, 1]]
             & adj[trips[:, 0], trips[:, 2]]
             & adj[trips[:, 1], trips[:, 2]]).sum()
        )
    if n >= 4:
        trips = np.array(list(combinations(range(n), 3)))
        claws = int(
            (adj[:, trips[:, 0]] & adj[:, trips[:, 1]] & adj[:, trips[:, 2]]).sum()
        )
    return edges, wedges, claws, triangles


def test_triangle_k3():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert count_degree_features(g) == (3, 3, 0)
    assert count_triangles(g) == 1


def test_star_three_leaves():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert count_degree_features(g) == (3, 3, 1)
    assert count_triangles(g) == 0


def test_k4_and_c4():
    k4 = graph_from_edges(4, list(combinations(range(4), 2)))
    assert count_triangles(k4) == 4
    c4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert count_triangles(c4) == 0


def test_empty_graph():
    g = checked_graph(0, np.zeros((0, 2), dtype=np.int64))
    assert count_features(g) == FeatureCounts(0, 0, 0, 0, 0)
    g = checked_graph(5, np.zeros((0, 2), dtype=np.int64))
    assert count_features(g) == FeatureCounts(5, 0, 0, 0, 0)


def test_random_graphs_match_enumeration():
    rng = np.random.default_rng(60)
    for _ in range(40):
        n = int(rng.integers(4, 61))
        p = float(rng.uniform(0.05, 0.6))
        adj = np.triu(rng.random((n, n)) < p, 1)
        adj = adj | adj.T
        g = checked_graph(n, np.argwhere(np.triu(adj, 1)))
        fc = count_features(g)
        assert (fc.edges, fc.hairpins, fc.tripins, fc.triangles) == \
            brute_force_counts(adj)
        assert 3 * fc.triangles <= fc.hairpins


def test_dense_graph_triangles():
    # near-complete graph exercises the high-degree intersection path
    n = 30
    adj = ~np.eye(n, dtype=bool)
    adj[0, 1] = adj[1, 0] = False
    g = checked_graph(n, np.argwhere(np.triu(adj, 1)))
    expected = n * (n - 1) * (n - 2) // 6 - (n - 2)
    assert count_triangles(g) == expected


def test_counts_are_python_ints():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    fc = count_features(g)
    for name in ("edges", "hairpins", "tripins", "triangles"):
        assert isinstance(fc.get(name), int)


def dense_adjacency(g):
    adj = np.zeros((g.num_vertices, g.num_vertices), dtype=bool)
    u, v = g.edge_array.T
    adj[u, v] = adj[v, u] = True
    return adj


def test_skewed_kronecker_sample_matches_trace():
    # far larger and more skewed than the enumerated cases: 1024 vertices,
    # hubs of degree about 40 against a mean near 2.5, many isolated
    g = generate(KroneckerParams(0.99, 0.48, 0.25, 10), seed=3)
    assert g.num_edges > 1000 and g.degrees.max() > 30
    assert (g.degrees == 0).sum() > 100
    a = dense_adjacency(g).astype(np.float64)
    # trace(A^3) counts every triangle six times; float64 is exact here
    trace = int(round(float(((a @ a) * a).sum())))
    assert trace % 6 == 0
    assert count_triangles(g) == trace // 6 > 0


def test_ids_out_of_degree_order():
    # a heavy-tailed graph whose hubs carry high ids, then the same graph
    # under a random relabeling: neither id order follows the degrees
    rng = np.random.default_rng(7)
    n = 50
    weight = (np.arange(n) + 1.0) ** 2
    p = np.minimum(np.outer(weight, weight) / weight.sum() * 0.5, 1.0)
    adj = np.triu(rng.random((n, n)) < p, 1)
    adj = adj | adj.T
    perm = rng.permutation(n)
    for a in (adj, adj[np.ix_(perm, perm)]):
        degrees = a.sum(axis=1)
        assert (np.diff(degrees) < 0).any() and (np.diff(degrees) > 0).any()
        g = checked_graph(n, np.argwhere(np.triu(a, 1)))
        fc = count_features(g)
        assert (fc.edges, fc.hairpins, fc.tripins, fc.triangles) == \
            brute_force_counts(a)
        assert fc.triangles > 0


def test_counts_are_checked_on_construction():
    # a library caller gets the check the JSON reader does: 1e300 edges
    # would square to inf in an f2 scale and score NaN
    with pytest.raises(ValueError,
                       match=r"count 'edges' must be at most 2\*\*240"):
        FeatureCounts(8192, 1e300, 40000, 100000, 500)
    for args, message in [
            ((8192, 10, -1, 0, 0), "count 'hairpins' must be a finite"),
            ((8192, 10, 5, math.nan, 0), "count 'tripins' must be a finite"),
            ((8192, 10, 5, 3, math.inf), "count 'triangles' must be a finite"),
            ((8192, True, 5, 3, 1), "count 'edges' must be a finite"),
            ((8192, "10", 5, 3, 1), "count 'edges' must be a finite"),
            ((2.5, 10, 5, 3, 1), "count 'vertices' must be a whole number"),
            ((2 ** 61, 10, 5, 3, 1), "count 'vertices' must be at most")]:
        with pytest.raises(ValueError, match=message):
            FeatureCounts(*args)
    # real-valued counts and numpy scalars are accepted; the vertices are
    # stored as an int
    counts = FeatureCounts(np.float64(8192.0), 10.5, np.int64(5), 3, 2 ** 240)
    assert type(counts.vertices) is int and counts.vertices == 8192
    assert FeatureCounts.from_dict(counts.to_dict()) == counts
