"""Exact counts of the four moment features of a graph.

Edges, hairpins (2-stars) and tripins (3-stars) follow from the degree
sequence, accumulated in Python integers so no width can overflow.
Triangles come from the degree-ordered forward wedge check of Schank &
Wagner and Latapy: every wedge at a triangle's lowest-ranked vertex is
looked up among its row's forward far ends, O(E^{3/2}) wedges in all,
checked in bounded chunks in int32 (int64 past 2^31 edges or ranks).  A
32-bit signature per row drops most open wedges, and each one left is
found or not by a binary search of its row.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .graph_io import SimpleGraph
from .moments import MAX_POWER

# Most edges, and most wedges, in one count_triangles chunk of whole rows
# (a row with more wedges is a chunk of its own); also the edges decoded
# at a time into rank keys.
_WEDGE_CHUNK = 1 << 15
# Far ends below this are int32, and so are positions among fewer edges.
_INT32_END = 2 ** 31


@dataclass(frozen=True)
class FeatureCounts:
    """The observed counts a fit consumes.

    Whole-graph counts are integers.  Estimator entry points also accept
    real-valued instances (e.g. model expectations injected as synthetic
    observations); nothing downstream assumes integrality.  Every count
    must be a finite real number >= 0, and none above 2**(4 * MAX_POWER);
    the vertices must be a whole number, at most 2**MAX_POWER, and are
    stored as an int.  Anything else raises ValueError naming the count.
    """

    vertices: int
    edges: int
    hairpins: int
    tripins: int
    triangles: int

    def __post_init__(self):
        for key, v in self.to_dict().items():
            # False for NaN; the upper bound also rejects inf and integers
            # too large for a float
            if (not isinstance(v, numbers.Real) or isinstance(v, bool)
                    or not 0 <= v <= sys.float_info.max):
                raise ValueError(
                    f"count {key!r} must be a finite number >= 0, got {v!r}")
            if key == "vertices" and v != int(v):
                raise ValueError(
                    f"count 'vertices' must be a whole number, got {v!r}")
            # no power r <= MAX_POWER has 2^r vertices for more
            if key == "vertices" and v > 2 ** MAX_POWER:
                raise ValueError(f"count 'vertices' must be at most "
                                 f"2**{MAX_POWER}, got {v!r}")
            # nor more than n^4 of any feature: 3-stars top out near n^4/6
            if v > 2 ** (4 * MAX_POWER):
                raise ValueError(f"count {key!r} must be at most "
                                 f"2**{4 * MAX_POWER}, got {v!r}")
        # 8192.0 prints as 8192
        object.__setattr__(self, "vertices", int(self.vertices))

    def get(self, feature: str) -> int:
        return getattr(self, feature)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureCounts":
        return cls(*(d[f.name] for f in fields(cls)))


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
    hist = np.bincount(g.degrees)
    edges2 = 0
    hairpins2 = 0
    tripins6 = 0
    for d in np.flatnonzero(hist).tolist():  # the degrees that occur
        n = int(hist[d])
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
    forward neighbours, so there are O(E^{3/2}) wedges.

    Besides the graph, only the forward edges and tables with one entry
    per vertex are held whole: int32 ranks, then the row starts, the
    wedge starts and the row signatures.  The forward keys u * base + v
    (int64, from ``g.keys`` a chunk at a time, into a buffer of max(E, n)
    entries whose front first held the sorted rank order) are sorted once
    and narrowed in place to their far ends v, 4 bytes per edge (8 where
    base >= 2^31).  Positions in the far ends - the row starts and every
    wedge-length array - are int32 while E < 2^31, int64 from there; a
    chunk's wedge count fits too, as a row of d <= sqrt(2E) forward edges
    makes d (d - 1) / 2 < E wedges.  Row
    v's signature is the int32 OR of bit w mod 32 over its far ends w, so
    a wedge (v, w) whose bit is clear in row v's signature is open without
    a search, and a closing wedge always passes.  The wedges are checked
    in chunks of whole rows, a row being one vertex's forward edges, of at
    most ``_WEDGE_CHUNK`` edges and as many wedges (a row with more is a
    chunk of its own).  Wedge (v, w) can only be found in row v, so each
    one that passes its signature is looked up by a binary search of that
    row alone, which reads a few nearby far ends rather than ranging over
    all of them.
    """
    n = g.num_vertices
    m = g.num_edges
    if m == 0:
        return 0
    # ranks run past the isolated vertices, so the key base is at most 2E;
    # degree * n + id is below n^2, which fits in int64 for any SimpleGraph,
    # and sorted, its remainders mod n list the ids in (degree, id) order,
    # the isolated ones first; they get no rank, as they have no edge
    isolated = g.num_isolated
    base = n - isolated
    far_type = np.int32 if base < _INT32_END else np.int64
    pos_type = np.int32 if m < _INT32_END else np.int64
    # the order is sorted in the front of the forward keys' buffer, which
    # the keys overwrite only once the ranks are taken: a separate array,
    # once freed, can stay in the allocator's heap while the keys fill
    # (about 22 MB of the features peak at r = 22)
    buffer = np.empty(max(m, n), dtype=np.int64)
    order = buffer[:n]
    np.multiply(g.degrees, n, out=order)
    for low in range(0, n, _WEDGE_CHUNK):
        order[low:low + _WEDGE_CHUNK] += np.arange(
            low, min(low + _WEDGE_CHUNK, n))
    order.sort()
    order %= n
    rank = np.empty(n, dtype=far_type)
    for low in range(0, base, _WEDGE_CHUNK):
        part = order[isolated + low:isolated + low + _WEDGE_CHUNK]
        rank[part] = np.arange(low, low + part.size, dtype=far_type)
    del order, part
    # edge (x, y) of ranks x < y becomes x * base + y; on int64, // by a
    # scalar costs a fraction of % or np.divmod
    keys = buffer[:m]
    for low in range(0, m, _WEDGE_CHUNK):
        k = g.keys[low:low + _WEDGE_CHUNK]
        u = k // n
        v = u * n
        np.subtract(k, v, out=v)
        x, y = rank.take(u), rank.take(v)
        part = keys[low:low + _WEDGE_CHUNK]
        np.minimum(x, y, out=part)
        part *= base
        np.maximum(x, y, out=x)
        part += x
    del rank, k, u, v, x, y
    keys.sort()
    # keys[starts[u]:starts[u + 1]] is row u, the forward edges of rank u,
    # whose keys lie in [u * base, (u + 1) * base)
    starts = np.empty(base + 1, dtype=pos_type)
    for low in range(0, base + 1, _WEDGE_CHUNK):
        bounds = np.arange(low, min(low + _WEDGE_CHUNK, base + 1)) * base
        starts[low:low + bounds.size] = keys.searchsorted(bounds)
    # each key narrows to its far end in the front of its own buffer,
    # every block read before it is overwritten; the buffer then shrinks
    for low in range(0, m, _WEDGE_CHUNK):
        k = keys[low:low + _WEDGE_CHUNK]
        part = k - k // base * base
        keys.view(far_type)[low:low + part.size] = part
    del keys, k
    buffer.resize(-(-m * np.dtype(far_type).itemsize // 8), refcheck=False)
    far = buffer.view(far_type)[:m]
    # sig[u] sets bit w & 31 for each far end w of row u: a block of rows
    # at a time, each non-empty row ORed by reduceat from its first far end
    # to the next non-empty row's (an empty row keeps 0)
    sig = np.zeros(base, dtype=np.int32)
    for low in range(0, base, _WEDGE_CHUNK):
        bounds = starts[low:low + _WEDGE_CHUNK + 1]
        filled = np.flatnonzero(bounds[1:] > bounds[:-1])
        if not filled.size:
            continue
        bits = far[bounds[0]:bounds[-1]] & 31
        np.left_shift(1, bits, out=bits, dtype=bits.dtype)
        sig[low + filled] = np.bitwise_or.reduceat(
            bits, bounds.take(filled) - bounds[0])
    del bounds, filled, bits
    # row u's forward[u] edges make forward[u] (forward[u] - 1) / 2 wedges,
    # and wedge_starts[u] wedges come before it
    wedge_starts = np.zeros(base + 1, dtype=np.int64)
    forward = wedge_starts[1:]
    np.subtract(starts[1:], starts[:-1], out=forward)
    longest = int(forward.max())
    for low in range(0, base, _WEDGE_CHUNK):
        part = forward[low:low + _WEDGE_CHUNK]
        part *= part - 1
        part //= 2
    np.cumsum(forward, out=forward)
    triangles = 0
    first = 0
    while first < base:
        # whole rows with at most _WEDGE_CHUNK edges and as many wedges;
        # the edge bound is cut to m, so it fits the starts' own dtype and
        # the search does not cast them
        edge_bound = pos_type(min(int(starts[first]) + _WEDGE_CHUNK, m))
        last = max(first + 1, min(
            int(np.searchsorted(starts, edge_bound, side="right")),
            int(np.searchsorted(wedge_starts, wedge_starts[first]
                                + _WEDGE_CHUNK, side="right"))) - 1)
        low, high = int(starts[first]), int(starts[last])
        hi = far[low:high]
        # edge i's wedges pair hi[i] with hi[i + 1:row_end[i]], its later
        # neighbours in the same row; counting wedges in edge order, edge
        # i's are numbered from ends[i] - wedges[i], so wedge j's w is
        # j + row_end[i] - ends[i]
        row_end = np.repeat(starts[first + 1:last + 1] - low,
                            np.diff(starts[first:last + 1]))
        first = last
        wedges = row_end - np.arange(1, high - low + 1, dtype=pos_type)
        ends = np.cumsum(wedges, dtype=pos_type)
        if not ends.size or not ends[-1]:
            continue
        row_end -= ends
        w = np.repeat(row_end, wedges)
        w += np.arange(ends[-1], dtype=pos_type)
        del row_end, ends
        needles = hi.take(w)
        del w
        # edge i's wedges are looked up in row hi[i], those whose needle's
        # bit is set in that row's signature
        rows = np.repeat(hi, wedges)
        del hi, wedges
        keep = sig.take(rows)
        keep >>= needles & 31
        keep &= 1
        kept = keep.astype(bool)
        del keep
        rows = np.compress(kept, rows)
        needles = np.compress(kept, needles)
        del kept
        at = starts.take(rows)
        end = starts[1:].take(rows)
        del rows
        triangles += _count_in_rows(far, at, end, longest, needles)
        del at, end, needles  # before the next chunk allocates its own
    return triangles


def _count_in_rows(far: np.ndarray, at: np.ndarray, end: np.ndarray,
                   longest: int, needles: np.ndarray) -> int:
    """How many ``needles`` are among their rows' far ends, needle i looked
    up in ``far[at[i]:end[i]]`` alone.

    Rows ascend and hold at most ``longest`` entries.  A branchless binary
    search moves each ``at``, its row's first entry not known to be below
    the needle, past each probe 2^k - 1, ..., 1, 0 entries on
    (2^(k+1) > ``longest``) that is below the needle.  Probes are clamped
    to the row's last index (an empty row's, the entry before it, clipped
    into the array, moves nothing), and a needle is found only where
    ``at`` ends in its row on an equal entry.  The positions ``at`` and
    ``end`` and the far ends (with the needles) may each be int32 or
    int64; the search works in their own dtypes.  Overwrites ``at`` and
    ``end``.
    """
    end -= 1  # the row's last index
    probe = np.empty_like(at)
    found = np.empty(at.size, dtype=far.dtype)
    below = np.empty(at.size, dtype=bool)
    for k in reversed(range(longest.bit_length())):
        np.add(at, (1 << k) - 1, out=probe)
        np.minimum(probe, end, out=probe)
        far.take(probe, mode="clip", out=found)
        np.less(found, needles, out=below)
        # at <= probe + 1, so this moves at only where the probe is below
        probe += 1
        np.multiply(probe, below, out=probe)
        np.maximum(at, probe, out=at)
    np.less_equal(at, end, out=below)
    far.take(at, mode="clip", out=found)
    below &= found == needles
    return int(np.count_nonzero(below))


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
