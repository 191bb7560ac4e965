"""The wedge-check triangle count against the sparse-product oracle."""

import tracemalloc
from itertools import combinations, product

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
    # row r holds `length` random far ends of 0..63, ascending, in
    # far[starts[r]:starts[r + 1]]; every far end 0..63 is searched in
    # every row, in random order, and must be found exactly when that row
    # holds it, not when an empty neighbour or a row at either end of the
    # array does; far ends (and needles) and positions each in int32 and
    # int64, as count_triangles picks them
    rng = np.random.default_rng(len(lengths) + extra)
    rows = [np.sort(rng.choice(64, size=k, replace=False)) for k in lengths]
    row_of = np.repeat(np.arange(len(lengths)), 64)
    needles = np.tile(np.arange(64), len(lengths))
    order = rng.permutation(needles.size)
    row_of, needles = row_of[order], needles[order]
    want = np.array([w in rows[r] for r, w in zip(row_of, needles)])
    longest = max(lengths) + extra
    for far_type, pos_type in product((np.int32, np.int64), repeat=2):
        far = np.concatenate(rows).astype(far_type)
        starts = np.zeros(len(lengths) + 1, dtype=pos_type)
        np.cumsum(lengths, out=starts[1:])
        keys = needles.astype(far_type)
        assert _count_in_rows(far, starts[row_of], starts[row_of + 1],
                              longest, keys) == int(want.sum())
        # one needle at a time, so a wrong answer names its needle
        for r, x, hit in zip(row_of[:200], keys[:200], want[:200]):
            assert _count_in_rows(far, starts[[r]], starts[[r + 1]], longest,
                                  np.array([x])) == hit, (r, x, far_type,
                                                          pos_type)


def signature_wedges(g):
    """count_triangles' rows and wedges, walked in Python: the rows' far
    ends, and the numbers of closing wedges, of open wedges that pass
    their row's 32-bit signature and of those it filters out."""
    n = g.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), g.degrees))] = np.arange(n)
    rows = [[] for _ in range(n)]
    for u, v in g.edge_array.tolist():
        x, y = sorted((rank[u], rank[v]))
        rows[x].append(y)
    rows = [sorted(row) for row in rows]
    sig = [sum({1 << (w & 31) for w in row}) for row in rows]
    closing = passing = filtered = 0
    for row in rows:
        for i, v in enumerate(row):
            for w in row[i + 1:]:
                if w in rows[v]:
                    closing += 1
                elif sig[v] >> (w & 31) & 1:
                    passing += 1
                else:
                    filtered += 1
    return rows, closing, passing, filtered


def circulant(n, offsets):
    # i ~ i + s (mod n) for each offset s: every vertex has one degree,
    # so ranks are ids, and row i's far ends are i + s below n
    return checked_graph(n, np.array([(i, (i + s) % n) for s in offsets
                                      for i in range(n)]))


def circulant_and_matching(n, offsets, pairs):
    # the matching's degree-1 rows rank first, and the circulant's
    # highest rows hold no far end, so empty rows sit at both ends
    g = circulant(n, offsets)
    extra = np.arange(n, n + 2 * pairs).reshape(pairs, 2)
    return checked_graph(n + 2 * pairs,
                         np.concatenate([g.edge_array, extra]))


def interleaved_k4s(k):
    # pairs of K4s, B on ids {0, 1, 2, 5} and A on {3, 4, 6, 7} (+ 8t):
    # all degrees are 3, so ranks are ids, and A's second row (far ends
    # 6 and 7) sits right before B's empty top row 5; the wedge (4, 7) at
    # row 3 closes only if row 4's signature keeps its last far end's bit
    quads = [[8 * t + i for i in ids] for t in range(k)
             for ids in ((0, 1, 2, 5), (3, 4, 6, 7))]
    return checked_graph(8 * k, np.array([pair for quad in quads
                                          for pair in combinations(quad, 2)]))


# Graphs whose rows' signatures collide: far ends w and w + 32 in one row
# (offsets 1 and 33), open wedges whose needle's bit another far end sets
# (offsets 1, 32, 34), rows whose every far end sets one bit (offsets 32,
# 64, 96), and hubs.
SIGNATURE = {
    "circulant-1-33": lambda: circulant(150, (1, 2, 33, 35)),
    "circulant-1-32-34": lambda: circulant(150, (1, 32, 34)),
    "circulant-32-64-96": lambda: circulant(200, (32, 64, 96)),
    "circulant-and-matching": lambda: circulant_and_matching(
        90, (1, 2, 33, 34), 40),
    "chung-lu-small": lambda: chung_lu(400, 3000, 5),
    "gnp-100-half": lambda: gnp(100, 0.5, 3),
}


@pytest.mark.parametrize("name", sorted(SIGNATURE))
def test_signature_passes_every_closing_wedge(name):
    g = SIGNATURE[name]()
    rows, closing, passing, filtered = signature_wedges(g)
    assert count_triangles(g) == closing == sparse_product_triangles(g)
    # the cases are what they claim to be
    assert passing and filtered
    if name == "circulant-1-33":
        assert any(w + 32 in row for row in rows for w in row)
    if name == "circulant-32-64-96":
        assert any(len(row) > 2 and len({w & 31 for w in row}) == 1
                   for row in rows)


# Blocks of 1 to 40 rows end a signature block and a wedge chunk on every
# row, behind empty rows and before them: the row before a run of empty
# rows at a block's end keeps its last far end's bit.
@pytest.mark.parametrize("name", ["circulant-and-matching",
                                  "circulant-32-64-96", "interleaved-k4s"])
def test_signature_blocks_end_on_every_row(monkeypatch, name):
    g = (interleaved_k4s(12) if name == "interleaved-k4s"
         else SIGNATURE[name]())
    want = sparse_product_triangles(g)
    edges = forward_degrees(g)
    assert (edges == 0).sum() > 2 and want > 0
    for chunk in range(1, 41):
        monkeypatch.setattr(features, "_WEDGE_CHUNK", chunk)
        assert count_triangles(g) == want, chunk


@pytest.mark.parametrize("limit", ["int32", "int64", "int64-positions"])
@pytest.mark.parametrize("name", ["chung-lu-hubs", "kron-r12-s2",
                                  "complete-12", "circulant-and-matching"])
def test_both_dtype_paths_match_sparse_product(monkeypatch, name, limit):
    # from _INT32_END on, far ends (base >= it) and positions (E >= it)
    # are int64; "int64-positions" keeps the far ends int32
    g = {**GRAPHS, **SIGNATURE}[name]()
    base = int(np.count_nonzero(g.degrees))
    end = {"int32": features._INT32_END, "int64": 0,
           "int64-positions": base + 1}[limit]
    assert g.num_edges >= base + 1  # so positions can pass alone
    monkeypatch.setattr(features, "_INT32_END", end)
    seen = set()

    def spy(far, at, end, longest, needles):
        seen.add((far.dtype, at.dtype, end.dtype, needles.dtype))
        return _count_in_rows(far, at, end, longest, needles)

    monkeypatch.setattr(features, "_count_in_rows", spy)
    assert count_triangles(g) == sparse_product_triangles(g)
    far = np.dtype(np.int64 if limit == "int64" else np.int32)
    position = np.dtype(np.int32 if limit == "int32" else np.int64)
    assert seen == {(far, position, position, far)}


def test_triangle_count_allocates_keys_and_chunks(monkeypatch):
    # What count_triangles allocates on top of the graph is at most
    #   8 E             the sorted forward keys (int64), decoded from the
    #                   graph's keys a chunk at a time into the buffer
    #                   whose front held the int64 rank order, then
    #                   narrowed to their int32 far ends in place
    # + 16 n            that buffer's entries past E (where n > E) and
    #                   int32 ranks beside the keys, or the int32 row
    #                   starts, int64 wedge starts and int32 row
    #                   signatures beside the far ends
    # + 64 max(C, R)    a few chunk buffers; a chunk holds at most
    #                   C = _WEDGE_CHUNK edges and C wedges, or one row of
    #                   R > C wedges
    # bytes.  A small C keeps the last term below the first, so one more
    # E-length int64 array held through the count would pass the bound,
    # and so would int64 ranks, order, row starts and wedge counts held
    # beside the int64 keys (about 21 n here).
    g = GRAPHS["chung-lu-hubs"]()
    chunk = 1 << 10
    monkeypatch.setattr(features, "_WEDGE_CHUNK", chunk)
    edges = forward_degrees(g)
    largest_row = int((edges * (edges - 1) // 2).max())
    bound = (8 * g.num_edges + 16 * g.num_vertices
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
