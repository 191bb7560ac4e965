"""Edge-list ingestion into a canonical undirected simple graph."""

from __future__ import annotations

from pathlib import Path

import numpy as np

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


class GraphParseError(ValueError):
    """Raised for a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


class SimpleGraph:
    """Loop-free, duplicate-free undirected graph with dense vertex ids.

    Vertex ids are 0..num_vertices-1; ``labels`` maps them back to the
    labels seen in the source file (identity when built programmatically).
    ``edge_array`` holds each edge once as (u, v) with u < v, sorted
    lexicographically.  Degrees are precomputed.
    Instances are treated as immutable after construction.
    """

    def __init__(
        self,
        num_vertices: int,
        edge_array: np.ndarray,
        labels: np.ndarray | None = None,
        loops_dropped: int = 0,
        duplicates_dropped: int = 0,
    ):
        self.num_vertices = int(num_vertices)
        edge_array = np.asarray(edge_array, dtype=np.int64).reshape(-1, 2)
        if edge_array.size:
            lo = edge_array.min(axis=1)
            hi = edge_array.max(axis=1)
            if (lo == hi).any():
                raise ValueError("edge_array contains a self-loop")
            if hi.max() >= self.num_vertices or lo.min() < 0:
                raise ValueError("edge endpoint outside 0..num_vertices-1")
            edge_array = np.stack([lo, hi], axis=1)
            order = np.lexsort((edge_array[:, 1], edge_array[:, 0]))
            edge_array = edge_array[order]
        self.edge_array = edge_array
        self.labels = labels
        self.loops_dropped = int(loops_dropped)
        self.duplicates_dropped = int(duplicates_dropped)

        self.degrees = np.bincount(
            edge_array.ravel(), minlength=self.num_vertices
        ).astype(np.int64, copy=False)

    @property
    def num_edges(self) -> int:
        return self.edge_array.shape[0]

    @property
    def num_isolated(self) -> int:
        return int((self.degrees == 0).sum())

    @classmethod
    def from_pairs(cls, pairs, num_vertices: int | None = None,
                   labels: np.ndarray | None = None) -> "SimpleGraph":
        """Build from raw (u, v) pairs, dropping loops and duplicates.

        ``pairs`` is an (m, 2) array or any iterable of pairs; an array is
        read as is, without a copy through a Python list.
        """
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if num_vertices is None:
            num_vertices = int(arr.max()) + 1 if arr.size else 0
        if arr.size == 0:
            return cls(num_vertices, arr, labels=labels)
        loop_mask = arr[:, 0] == arr[:, 1]
        loops = int(loop_mask.sum())
        arr = arr[~loop_mask]
        if arr.size == 0:
            return cls(num_vertices, arr, labels=labels, loops_dropped=loops)
        lo = arr.min(axis=1)
        hi = arr.max(axis=1)
        keys = lo * np.int64(num_vertices) + hi
        unique_keys = np.unique(keys)
        dups = int(keys.size - unique_keys.size)
        dedup = np.stack(
            [unique_keys // num_vertices, unique_keys % num_vertices], axis=1
        )
        return cls(num_vertices, dedup, labels=labels,
                   loops_dropped=loops, duplicates_dropped=dups)

    def __repr__(self):
        return (f"SimpleGraph(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges})")


def load_edge_list(path) -> SimpleGraph:
    """Parse a plain-text edge list into a SimpleGraph.

    Format: one "u v" pair of integer labels per line, any whitespace,
    lines starting with '#' are comments.  Labels are densified in order of
    first appearance, so loading the same file twice gives identical
    graphs.  Self-loops are dropped (their vertices are kept, degree 0) and
    duplicate pairs - including reversed ones - are merged; both drop
    counts are recorded on the result.  A label outside the int64 range is
    a parse error.
    """
    path = Path(path)
    ids: dict[int, int] = {}
    us: list[int] = []
    vs: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise GraphParseError(
                    path, line_no, f"expected 2 tokens, found {len(tokens)}"
                )
            try:
                a = int(tokens[0])
                b = int(tokens[1])
            except ValueError:
                raise GraphParseError(
                    path, line_no, f"non-integer vertex label in {tokens!r}"
                ) from None
            if not (_INT64_MIN <= a <= _INT64_MAX
                    and _INT64_MIN <= b <= _INT64_MAX):
                raise GraphParseError(
                    path, line_no, f"vertex label outside int64 in {tokens!r}"
                )
            u = ids.setdefault(a, len(ids))
            v = ids.setdefault(b, len(ids))
            us.append(u)
            vs.append(v)

    labels = np.empty(len(ids), dtype=np.int64)
    for label, dense in ids.items():
        labels[dense] = label
    pairs = np.stack(
        [np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)], axis=1
    ) if us else np.zeros((0, 2), dtype=np.int64)
    return SimpleGraph.from_pairs(pairs, num_vertices=len(ids), labels=labels)


def choose_r(num_vertices: int) -> int:
    """Smallest r with 2**r >= num_vertices (the operative power when
    fitting a real graph whose vertex count is not a power of two)."""
    if num_vertices < 1:
        raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
    return int(num_vertices - 1).bit_length()
