"""Exact counts of the four moment features of a graph.

Edges, hairpins (2-stars) and tripins (3-stars) follow from the degree
sequence; triangles are enumerated.  All counts are exact Python integers,
so there is no accumulator width to overflow.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .graph_io import SimpleGraph


@dataclass(frozen=True)
class FeatureCounts:
    """The observed counts a fit consumes.

    Whole-graph counts are integers.  Estimator entry points also accept
    real-valued instances (e.g. model expectations injected as synthetic
    observations); nothing downstream assumes integrality.
    """

    vertices: int
    edges: int
    hairpins: int
    tripins: int
    triangles: int

    def get(self, feature: str) -> int:
        return getattr(self, feature)

    def to_dict(self) -> dict:
        return {
            "vertices": self.vertices,
            "edges": self.edges,
            "hairpins": self.hairpins,
            "tripins": self.tripins,
            "triangles": self.triangles,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureCounts":
        values = {}
        for key in ("vertices", "edges", "hairpins", "tripins", "triangles"):
            v = d[key]
            # False for NaN; the upper bound also rejects inf and integers
            # too large for a float
            if (not isinstance(v, (int, float)) or isinstance(v, bool)
                    or not 0 <= v <= sys.float_info.max):
                raise ValueError(
                    f"count {key!r} must be a finite number >= 0, got {v!r}")
            values[key] = v
        return cls(**values)


def count_degree_features(g: SimpleGraph) -> tuple[int, int, int]:
    """(edges, hairpins, tripins) from the degree sequence, exactly.

    E = (1/2) sum d_i, H = (1/2) sum d_i (d_i - 1),
    T = (1/6) sum d_i (d_i - 1)(d_i - 2).  Accumulation goes through the
    degree histogram with Python integers, so arbitrarily large degrees
    and vertex counts cannot wrap around.
    """
    if g.num_vertices == 0:
        return 0, 0, 0
    hist = np.bincount(g.degrees)
    edges2 = 0
    hairpins2 = 0
    tripins6 = 0
    for d, count in enumerate(hist):
        if count == 0 or d == 0:
            continue
        n = int(count)
        d = int(d)
        edges2 += n * d
        hairpins2 += n * d * (d - 1)
        tripins6 += n * d * (d - 1) * (d - 2)
    assert edges2 % 2 == 0 and hairpins2 % 2 == 0 and tripins6 % 6 == 0
    return edges2 // 2, hairpins2 // 2, tripins6 // 6


def count_triangles(g: SimpleGraph) -> int:
    """Exact triangle count by degree-ordered neighbor intersection.

    Vertices are ranked by (degree, id); each edge is oriented from lower
    to higher rank and each triangle is found exactly once, at its
    lowest-ranked pair, as a common forward neighbor.  Work is bounded by
    sum over edges of the two forward degrees, which the degree ordering
    keeps at O(E^{3/2}).
    """
    m = g.num_edges
    if m == 0:
        return 0
    n = g.num_vertices
    order = np.lexsort((np.arange(n), g.degrees))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    e = g.edge_array
    ru = rank[e[:, 0]]
    rv = rank[e[:, 1]]
    src = np.where(ru < rv, e[:, 0], e[:, 1])
    dst = np.where(ru < rv, e[:, 1], e[:, 0])

    # forward adjacency in CSR form, neighbor lists sorted by id
    sort = np.lexsort((dst, src))
    src = src[sort]
    dst = dst[sort]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    total = 0
    for k in range(m):
        u = src[k]
        v = dst[k]
        fu = dst[indptr[u] : indptr[u + 1]]
        fv = dst[indptr[v] : indptr[v + 1]]
        if fv.size < fu.size:
            fu, fv = fv, fu
        # membership count of the shorter sorted list in the longer one
        pos = np.searchsorted(fv, fu)
        pos[pos == fv.size] = 0
        total += int((fv[pos] == fu).sum())
    return total


def count_features(g: SimpleGraph) -> FeatureCounts:
    """All four feature counts plus the vertex count."""
    edges, hairpins, tripins = count_degree_features(g)
    return FeatureCounts(
        vertices=g.num_vertices,
        edges=edges,
        hairpins=hairpins,
        tripins=tripins,
        triangles=count_triangles(g),
    )
