"""Exact counts of the four moment features of a graph.

Edges, hairpins (2-stars) and tripins (3-stars) follow from the degree
sequence, accumulated in Python integers so no width can overflow.
Triangles come from the degree-ordered forward wedge check of Schank &
Wagner and Latapy: every wedge at a triangle's lowest-ranked vertex is
looked up among the sorted forward edge keys, O(E^{3/2}) wedges in all,
checked in bounded chunks with numpy sorts and searches in int64.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .graph_io import SimpleGraph

# Most wedges count_triangles checks at once.
_WEDGE_CHUNK = 1 << 20


@dataclass(frozen=True)
class FeatureCounts:
    """The observed counts a fit consumes.

    Whole-graph counts are integers.  Estimator entry points also accept
    real-valued instances (e.g. model expectations injected as synthetic
    observations); nothing downstream assumes integrality.  ``from_dict``
    still requires a whole number of vertices.
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
            if key == "vertices" and v != int(v):
                raise ValueError(
                    f"count 'vertices' must be a whole number, got {v!r}")
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
    """Exact triangle count by the degree-ordered forward wedge check.

    Vertices are ranked by (degree, id) and each edge is oriented from
    lower to higher rank.  For a forward edge (u, v) and each later
    forward neighbour w of u, the wedge v - u - w closes a triangle exactly
    when (v, w) is itself a forward edge, so each triangle is counted once,
    at its lowest-ranked vertex (Schank & Wagner, "Finding, counting and
    listing all triangles in large graphs", WEA 2005; Latapy, "Main-memory
    triangle computations for very large (sparse (power-law)) graphs",
    TCS 2008).  Under the degree order a vertex has at most sqrt(2E)
    forward neighbours, so there are O(E^{3/2}) wedges.  They are checked
    in chunks of whole edges of at most ``_WEDGE_CHUNK`` wedges (one edge
    with more is a chunk of its own), each chunk's keys sorted and then
    looked up in the sorted forward keys, so memory stays O(E + chunk).
    """
    n = g.num_vertices
    m = g.num_edges
    if m == 0:
        return 0
    # ranks run past the isolated vertices, so the key base is at most 2E
    order = np.argsort(g.degrees, kind="stable")
    isolated = n - np.count_nonzero(g.degrees)
    base = n - isolated
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(-isolated, n - isolated, dtype=np.int64)
    ru = rank[g.edge_array[:, 0]]
    rv = rank[g.edge_array[:, 1]]
    keys = np.minimum(ru, rv) * base + np.maximum(ru, rv)
    del ru, rv
    keys.sort()
    lo = keys // base
    hi = keys - lo * base
    # edge i's wedges pair hi[i] with hi[i + 1:row_end], its later
    # neighbours in the same row; row_end is one past lo[i]'s last edge
    row_end = np.cumsum(np.bincount(lo, minlength=base))[lo]
    del lo
    wedges = row_end - np.arange(1, m + 1)
    del row_end
    ends = np.cumsum(wedges)
    triangles = 0
    first = done = 0
    while first < m:
        last = max(int(np.searchsorted(ends, done + _WEDGE_CHUNK,
                                       side="right")), first + 1)
        stop = int(ends[last - 1])
        per_edge = wedges[first:last]
        # counting wedges in edge order, edge i's are numbered from
        # ends[i] - wedges[i] and take their w from position i + 1 on
        shift = np.arange(first + 1, last + 1) - (ends[first:last] - per_edge)
        w = np.arange(done, stop) + np.repeat(shift, per_edge)
        needles = np.repeat(hi[first:last] * base, per_edge) + hi[w]
        needles.sort()
        found = np.searchsorted(keys, needles)
        np.minimum(found, m - 1, out=found)
        triangles += int(np.count_nonzero(keys[found] == needles))
        first, done = last, stop
    return triangles


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
