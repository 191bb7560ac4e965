"""Exact counts of the four moment features of a graph.

Edges, hairpins (2-stars) and tripins (3-stars) follow from the degree
sequence, accumulated in Python integers so no width can overflow.
Triangles come from one sparse matrix product on the degree-ordered
forward adjacency, in int64.
"""

from __future__ import annotations

import json
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


def read_counts_json(path) -> FeatureCounts:
    """Counts from a JSON object file, as the features command prints them.

    Invalid JSON, a top level that is not an object, a missing key or a
    bad count raises ValueError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid counts JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: counts JSON must be an object, "
                         f"got {type(data).__name__}")
    try:
        return FeatureCounts.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: counts JSON missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    """Exact triangle count as one masked sparse product.

    Vertices are ranked by (degree, id) and each edge is oriented from
    lower to higher rank, giving the forward adjacency L.  Entry (u, w) of
    L @ L counts the paths u -> v -> w, so masking it with L counts each
    triangle exactly once, at its lowest-ranked vertex (Azad, Buluc &
    Gilbert, "Parallel triangle counting and enumeration using matrix
    algebra", IPDPSW 2015).  The degree ordering keeps the work at
    O(E^{3/2}).  scipy.sparse is imported here, not at module level, so
    commands that never count triangles load numpy only.
    """
    from scipy import sparse

    n = g.num_vertices
    order = np.lexsort((np.arange(n), g.degrees))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    u, v = g.edge_array.T
    forward = rank[u] < rank[v]
    src = np.where(forward, u, v)
    dst = np.where(forward, v, u)
    L = sparse.csr_matrix((np.ones(src.size, dtype=np.int64), (src, dst)),
                          shape=(n, n))
    return int((L @ L).multiply(L).sum())


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
