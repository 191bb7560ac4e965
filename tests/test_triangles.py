"""The wedge-check triangle count against the sparse-product oracle."""

from itertools import combinations

import numpy as np
import pytest

from kronmoments import features
from kronmoments.features import count_triangles
from kronmoments.generator import generate
from kronmoments.graph_io import SimpleGraph
from kronmoments.moments import KroneckerParams
from oracles import sparse_product_triangles


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
    return SimpleGraph(n, np.array(list(combinations(range(n), 2))))


def star(leaves):
    return SimpleGraph(leaves + 1,
                       np.array([(0, k) for k in range(1, leaves + 1)]))


def empty(n):
    return SimpleGraph(n, np.zeros((0, 2), dtype=np.int64))


# small enough to walk one wedge at a time
SMALL = {
    "kron-r10-s1": lambda: kronecker(10, 1),
    "kron-r12-s2": lambda: kronecker(12, 2),
    "chung-lu-small": lambda: chung_lu(400, 3000, 5),
    "complete-12": lambda: complete(12),
    "star-20": lambda: star(20),
    "empty-0": lambda: empty(0),
    "isolated-7": lambda: empty(7),
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


# 1 puts nearly every edge in a chunk of its own; in K_12 the first edge
# of the lowest-ranked vertex has 10 wedges and its row 55, so 7 splits
# rows and leaves that edge a chunk larger than the cap
@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_chunk_boundaries(monkeypatch, name, chunk):
    g = SMALL[name]()
    monkeypatch.setattr(features, "_WEDGE_CHUNK", chunk)
    assert count_triangles(g) == sparse_product_triangles(g)


def test_inputs_have_hubs_and_triangles():
    # the differential cases mean little on graphs without either
    hubs = GRAPHS["chung-lu-hubs"]()
    assert hubs.degrees.max() > 500 and count_triangles(hubs) > 0
    assert count_triangles(complete(12)) == 220
    for name in ("kron-r10-s1", "chung-lu-small"):
        assert count_triangles(SMALL[name]()) > 0
