"""The wedge-check triangle count against the sparse-product oracle."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from kronmoments import features
from kronmoments.features import _count_in_rows, count_triangles
from kronmoments.generator import generate
from kronmoments.graph_io import SimpleGraph
from kronmoments.moments import KroneckerParams
from oracles import checked_graph, sparse_product_triangles


def kronecker(r, seed):
    return generate(KroneckerParams(0.99, 0.48, 0.25, r), seed=seed)


def chung_lu(n, pairs, seed):
    # power-law weights put hubs of degree in the hundreds on low ids;
    # a random relabeling takes the ids out of degree order
    rng = np.random.default_rng(seed)
    weights = (np.arange(n) + 1.0) ** -0.6
    weights /= weights.sum()
    perm = rng.permutation(n)
    u = perm[rng.choice(n, size=pairs, p=weights)]
    v = perm[rng.choice(n, size=pairs, p=weights)]
    return SimpleGraph.from_pairs(np.stack([u, v], axis=1), num_vertices=n)


def complete(n):
    return checked_graph(n, np.array(list(combinations(range(n), 2))))


def star(leaves):
    return checked_graph(leaves + 1,
                         np.array([(0, k) for k in range(1, leaves + 1)]))


def empty(n):
    return checked_graph(n, np.zeros((0, 2), dtype=np.int64))


def matching(pairs):
    # every vertex has degree 1, so no row holds a wedge
    return checked_graph(2 * pairs,
                         np.arange(2 * pairs).reshape(pairs, 2))


def triangles_and_matching(k):
    # ranked by (degree, id), the matching's rows come first and hold no
    # wedge; then each triangle's three rows hold 1, 0 and 0 wedges, so
    # wedge-free rows (forward degree 1, then 0) sit between rows with
    # wedges
    triangles = [(3 * i + a, 3 * i + b) for i in range(k)
                 for a, b in ((0, 1), (1, 2), (0, 2))]
    pairs = [(3 * k + 2 * i, 3 * k + 2 * i + 1) for i in range(k)]
    return checked_graph(5 * k, np.array(triangles + pairs))


def gnp(n, p, seed):
    # dense enough for rows of up to 44 forward edges at p = 0.5, with
    # about half of the wedges open, so the row search misses as often as
    # it finds
    rng = np.random.default_rng(seed)
    return checked_graph(n, np.argwhere(np.triu(rng.random((n, n)) < p, 1)))


def forward_degrees(g):
    """Each row's edge count in count_triangles' row order: vertices
    ranked by (degree, id), a row being one rank's forward edges."""
    n = g.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), g.degrees))] = np.arange(n)
    lower = np.minimum(rank[g.edge_array[:, 0]], rank[g.edge_array[:, 1]])
    return np.bincount(lower, minlength=n)


# small enough to walk one wedge at a time
SMALL = {
    "kron-r10-s1": lambda: kronecker(10, 1),
    "kron-r12-s2": lambda: kronecker(12, 2),
    "chung-lu-small": lambda: chung_lu(400, 3000, 5),
    "complete-12": lambda: complete(12),
    "star-20": lambda: star(20),
    "empty-0": lambda: empty(0),
    "isolated-7": lambda: empty(7),
    "matching-40": lambda: matching(40),
    "triangles-and-matching-9": lambda: triangles_and_matching(9),
    "gnp-100-half": lambda: gnp(100, 0.5, 3),
}

GRAPHS = dict(SMALL)
GRAPHS.update({
    f"kron-r{r}-s{seed}": (lambda r=r, seed=seed: kronecker(r, seed))
    for r in (10, 12, 14, 16) for seed in (1, 2, 3)
})
GRAPHS["chung-lu-hubs"] = lambda: chung_lu(20000, 150000, 11)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_matches_sparse_product(name):
    g = GRAPHS[name]()
    count = count_triangles(g)
    assert isinstance(count, int)
    assert count == sparse_product_triangles(g)


# A chunk is a run of whole rows with at most _WEDGE_CHUNK edges and as
# many wedges, or one row with more.  1 puts every row in a chunk of its
# own; in K_12 the lowest-ranked row has 11 edges and 55 wedges, so 7
# leaves it a chunk larger than the cap.  "one-row" is the largest row's
# wedge count, a chunk that row fills exactly.  "row-end" is the larger of
# the edge and the wedge count of the rows up to the second one with
# wedges, so the first chunk ends exactly at that row's last edge.
@pytest.mark.parametrize("chunk", [1, 7, "one-row", "row-end"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_chunk_boundaries(monkeypatch, name, chunk):
    g = SMALL[name]()
    edges = forward_degrees(g)
    wedges = edges * (edges - 1) // 2
    if chunk == "one-row":
        chunk = max(int(wedges.max(initial=0)), 1)
    elif chunk == "row-end":
        with_wedges = np.flatnonzero(wedges)
        rows = with_wedges[1] + 1 if with_wedges.size > 1 else 0
        chunk = max(int(edges[:rows].sum()), int(wedges[:rows].sum()), 1)
    monkeypatch.setattr(features, "_WEDGE_CHUNK", chunk)
    assert count_triangles(g) == sparse_product_triangles(g)


# Row lengths at and around powers of two, and searches that take more
# steps than the longest row needs.
@pytest.mark.parametrize("extra", [0, 1, 40])
@pytest.mark.parametrize("lengths", [[0, 1, 0, 0], [1], [2, 0, 3], [7, 8, 9],
                                     [15, 16, 17, 0, 31, 32, 33],
                                     list(range(41))],
                         ids=lambda v: "-".join(map(str, v[:8])))
def test_row_search_finds_exactly_the_row_keys(lengths, extra):
    # row r holds `length` random columns of 0..63 as keys r * 64 + column;
    # every key r * 64 + w of every row is searched, in random order, and
    # must be found exactly when row r holds it
    rng = np.random.default_rng(len(lengths) + extra)
    rows = [np.sort(rng.choice(64, size=k, replace=False)) + 64 * r
            for r, k in enumerate(lengths)]
    keys = np.concatenate(rows).astype(np.int64)
    starts = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    row_of = np.repeat(np.arange(len(lengths), dtype=np.int64), 64)
    needles = row_of * 64 + np.tile(np.arange(64), len(lengths))
    order = rng.permutation(needles.size)
    row_of, needles = row_of[order], needles[order]
    want = np.isin(needles, keys)
    longest = max(lengths) + extra
    assert _count_in_rows(keys, starts, longest, row_of.copy(),
                          needles) == int(want.sum())
    # one needle at a time, so a wrong answer names its needle
    for r, x, hit in zip(row_of[:200], needles[:200], want[:200]):
        assert _count_in_rows(keys, starts, longest, np.array([r]),
                              np.array([x])) == hit, (r, x)


def test_triangle_count_allocates_keys_and_chunks(monkeypatch):
    # What count_triangles allocates on top of the graph is at most
    #   8 E             the sorted forward keys (int64), decoded from the
    #                   graph's keys a chunk at a time
    # + 64 n            a few int64 tables with one entry per vertex
    # + 64 max(C, R)    a few int64 chunk buffers; a chunk holds at most
    #                   C = _WEDGE_CHUNK edges and C wedges, or one row of
    #                   R > C wedges
    # bytes.  A small C keeps the last term below the first, so one more
    # E-length int64 array held through the count would pass the bound.
    g = GRAPHS["chung-lu-hubs"]()
    chunk = 1 << 10
    monkeypatch.setattr(features, "_WEDGE_CHUNK", chunk)
    edges = forward_degrees(g)
    largest_row = int((edges * (edges - 1) // 2).max())
    bound = (8 * g.num_edges + 64 * g.num_vertices
             + 64 * max(chunk, largest_row))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        count = count_triangles(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert count == sparse_product_triangles(g)
    assert peak <= bound, (peak, bound)


def test_inputs_have_hubs_and_triangles():
    # the differential cases mean little on graphs without either
    hubs = GRAPHS["chung-lu-hubs"]()
    assert hubs.degrees.max() > 500 and count_triangles(hubs) > 0
    assert count_triangles(complete(12)) == 220
    for name in ("kron-r10-s1", "chung-lu-small"):
        assert count_triangles(SMALL[name]()) > 0
