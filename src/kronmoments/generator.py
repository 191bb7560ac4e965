"""Exact sampling of stochastic Kronecker graphs by grass-hopping.

Cell (u, v) of the 2^r x 2^r probability matrix has probability
a^i b^j c^k, where i, j and k count the bit positions at which (u, v)
read (0, 0), differ, and read (1, 1).  So the matrix holds only
(r+1)(r+2)/2 distinct probabilities.  The upper-triangle cells u < v are
those with j >= 1 whose highest differing bit is (0, 1); region (i, j, k)
holds r!/(i! j! k!) * 2^(j-1) of them.  Each region is sampled exactly
by geometric skips between hits (Ramani, Eikmeier & Gleich, "Coin-flipping,
ball-dropping, and grass-hopping for generating random graphs from matrices
of edge probabilities", SIAM Review 61(3), 2019), so the expected work is
O(edges + r^2) rather than 4^r.

The t-th deviate of region g is a pure function of (seed, g, t): the
output of a splitmix64-style counter generator.  The edge set therefore
does not depend on how many deviates are drawn at a time.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .graph_io import _MAX_VERTICES, SimpleGraph
from .moments import KroneckerParams

# the largest r whose region sizes fit int64: the biggest region at r = 34
# is 0.40 * 2^63 cells, at r = 35 it is 1.57 * 2^63
MAX_GENERATE_POWER = 34

# deviate t of region g is stream entry (g << _REGION_SHIFT) | t; the
# (r+1)r/2 <= 595 regions and the hits of any region that fits in memory
# stay far inside their fields
_REGION_SHIFT = 48

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53

# edges formatted per write by generate_to_file
_WRITE_ROWS = 1 << 16


def _mix64(z: np.uint64) -> np.uint64:
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def cell_uniforms(seed: int, cell_indices: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) deviates for cells, as splitmix64 counter outputs.

    The seed is itself sent through the finalizer first, so streams for
    nearby seeds are as decorrelated as streams for nearby cells; the
    deviate remains a pure function of (seed, index).
    """
    idx = np.asarray(cell_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):  # modular 2^64 arithmetic is intended
        key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA)
        z = _mix64(key + (idx + np.uint64(1)) * _GAMMA)
    return (z >> _S11) * _TO_UNIT


def _regions(params: KroneckerParams):
    """Upper-triangle regions (i, j, k = r - i - j), j >= 1: i and j as
    int64 arrays, with the multinomial r!/(i! j! k!), the cell count and
    the cell probability."""
    r = params.r
    f = math.factorial
    ijk = [(i, j, r - i - j)
           for j in range(1, r + 1) for i in range(r - j + 1)]
    i, j, k = np.array(ijk, dtype=np.int64).reshape(-1, 3).T
    multinomial = np.array([f(r) // (f(x) * f(y) * f(z)) for x, y, z in ijk],
                           dtype=np.int64)
    sizes = multinomial << (j - 1)
    probs = params.a ** i * params.b ** j * params.c ** k
    return i, j, multinomial, sizes, probs


def _hit_ranks(seed: int, sizes: np.ndarray, probs: np.ndarray,
               batch: np.ndarray):
    """Region and in-region rank of every hit, by geometric skips.

    Each region first draws ``batch`` deviates; a region they do not carry
    past its end is topped up from the same stream, so the hits do not
    depend on ``batch``.  Positions are int64 cumulative sums taken across
    all drawn regions at once; they may wrap past 2^63, but the difference
    from a region's start is exact up to its first position past the end
    (at most twice its size), which is as far as it is read.
    """
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-probs)  # -inf at p = 1: every gap is 0
    drawn = np.zeros_like(sizes)  # deviates drawn so far, per region
    end = np.zeros_like(sizes)  # one past the last hit so far, per region
    active = np.flatnonzero(probs > 0)
    hit_g, hit_rank = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    while active.size:
        want = np.minimum(batch[active], sizes[active] - drawn[active])
        first = np.cumsum(want) - want
        last = first + want - 1
        g = np.repeat(active, want)
        t = drawn[g] + np.arange(g.size) - np.repeat(first, want)
        u = cell_uniforms(seed, (g << _REGION_SHIFT) | t)
        gap = np.minimum(np.floor(np.log1p(-u) / log_q[g]), sizes[g])
        step = gap.astype(np.int64) + 1
        total = np.cumsum(step)
        stop = end[g] + total - np.repeat(total[first] - step[first], want)
        beyond = stop > sizes[g]
        past = np.cumsum(beyond)
        ended = np.repeat(past[first] - beyond[first], want)
        keep = past == ended
        hit_g.append(g[keep])
        hit_rank.append(stop[keep] - 1)
        drawn[active] += want
        end[active] = stop[last]
        unfinished = past[last] == ended[last]
        active = active[unfinished & (drawn[active] < sizes[active])]
    return np.concatenate(hit_g), np.concatenate(hit_rank)


def _unrank(r: int, i, j, multinomial, rank):
    """Cells (u, v) for ranks within regions, as int64 arrays.

    rank = pattern * 2^(j-1) + flips.  ``pattern`` ranks the arrangement of
    bit-pair types over the r positions, top bit first, in the order
    (0, 0) < differing < (1, 1).  The highest differing bit is (0, 1); bit
    by bit, ``flips`` says which of the lower differing bits are (1, 0).
    """
    i, j, count = i.copy(), j.copy(), multinomial
    flips = rank & ((np.int64(1) << (j - 1)) - 1)
    pattern = rank >> (j - 1)
    u = np.zeros_like(rank)
    v = np.zeros_like(rank)
    seen = np.zeros(rank.shape, dtype=bool)
    for length in range(r, 0, -1):
        # arrangements whose next pair is (0, 0), and differing
        with_a = count * i // length
        with_b = count * j // length
        is_a = pattern < with_a
        pattern -= np.where(is_a, 0, with_a)
        is_c = ~is_a & (pattern >= with_b)
        pattern -= np.where(is_c, with_b, 0)
        is_b = ~(is_a | is_c)
        count = np.where(is_a, with_a,
                         np.where(is_c, count - with_a - with_b, with_b))
        i -= is_a
        j -= is_b
        lower = is_b & seen
        flipped = lower & (flips & 1).astype(bool)
        flips >>= lower
        seen |= is_b
        u = 2 * u + (is_c | flipped)
        v = 2 * v + ~(is_a | flipped)
    return u, v


def _sampled_cells(params: KroneckerParams, seed: int):
    """(u, v), u < v, of every sampled cell as int64 arrays, each cell
    once, in no particular order."""
    if params.r > MAX_GENERATE_POWER:
        raise ValueError(f"generation supports r <= {MAX_GENERATE_POWER} "
                         f"(region sizes must fit int64), got r={params.r}")
    i, j, multinomial, sizes, probs = _regions(params)
    # hits + 1 deviates end a region; this batch rarely needs a top-up
    mean = sizes * probs
    batch = np.minimum(np.ceil(mean + 4 * np.sqrt(mean) + 8), sizes)
    g, rank = _hit_ranks(seed, sizes, probs, batch.astype(np.int64))
    return _unrank(params.r, i[g], j[g], multinomial[g], rank)


def _sorted_keys(params: KroneckerParams, seed: int) -> np.ndarray:
    """Every sampled cell's key (u << r) | v, ascending; for 2r <= 62.

    u, v < 2^r pack into one int64 key in (u, v) order, and one sort of it
    is about twenty times faster than a lexsort of the pairs.
    """
    u, v = _sampled_cells(params, seed)
    key = u << params.r
    key |= v
    del u, v
    key.sort()
    return key


def generate_edges(params: KroneckerParams, seed: int) -> np.ndarray:
    """All sampled edges as an (m, 2) array, ascending (u, v)."""
    r = params.r
    if 2 * r > 62:
        u, v = _sampled_cells(params, seed)
        order = np.lexsort((v, u))
        return np.stack([u[order], v[order]], axis=1)
    key = _sorted_keys(params, seed)
    return np.stack([key >> r, key & ((1 << r) - 1)], axis=1)


def generate(params: KroneckerParams, seed: int) -> SimpleGraph:
    """Sample a graph in memory; r <= 31, as a ``SimpleGraph`` holds at
    most ``_MAX_VERTICES`` vertices, and more is a ValueError before any
    sampling.

    The sampler's sorted keys (u << r) | v are the graph's own keys
    u * 2^r + v, and its cells are distinct with u < v, so the graph takes
    them as they are.
    """
    if params.num_vertices > _MAX_VERTICES:
        raise ValueError(f"a graph in memory holds at most {_MAX_VERTICES} "
                         f"vertices (r <= 31), got r={params.r}")
    return SimpleGraph(params.num_vertices, _sorted_keys(params, seed))


def generate_to_file(params: KroneckerParams, seed: int, path) -> Path:
    """Write a sampled graph to a plain-text edge list.

    Header comments record the parameters and seed; edge lines are
    "u<TAB>v" with u < v in ascending (u, v) order.
    """
    edges = generate_edges(params, seed)
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# stochastic Kronecker graph by exact grass-hopping\n")
        fh.write(
            f"# a={params.a!r} b={params.b!r} c={params.c!r} "
            f"r={params.r} seed={seed}\n"
        )
        fh.write(f"# vertices={params.num_vertices}\n")
        for start in range(0, len(edges), _WRITE_ROWS):
            block = edges[start:start + _WRITE_ROWS]
            fh.write(("%d\t%d\n" * len(block)) % tuple(block.ravel().tolist()))
    return path
