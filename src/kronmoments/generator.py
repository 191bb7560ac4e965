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
O(edges + r^2) rather than 4^r.  A hit's rank within its region is
unranked to its cell ``_UNRANK_BITS`` bit positions a step, by a binary
search of per-r tables of the arrangement counts of each next prefix.

The t-th deviate of region g is a pure function of (seed, g, t): the
output of a splitmix64-style counter generator.  The edge set therefore
does not depend on how many deviates are drawn at a time, so the sampler
draws, unranks and keys its hits in chunks of at most ``_SAMPLE_CHUNK``
deviates, into one key buffer sorted once: its working set beyond the
keys is fixed, whatever the sample's size.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .estimator import LEAST_VALUES
from .graph_io import _MAX_VERTICES, SimpleGraph, _edge_rows
from .moments import KroneckerParams, check_int

# the largest r whose region sizes fit int64: the biggest region at r = 34
# is 0.40 * 2^63 cells, at r = 35 it is 1.57 * 2^63
MAX_GENERATE_POWER = 34

# deviate t of region g is stream entry (g << _REGION_SHIFT) | t; the
# (r+1)r/2 <= 595 regions and the hits of any region that fits in memory
# stay far inside their fields
_REGION_SHIFT = 48

# the counter generator's key is one 64-bit word: a larger seed, taken
# mod 2^64, would stand for another seed's stream
MAX_SEED = 2 ** 64 - 1

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53

# edges formatted per write by generate_to_file: a block's Python ints and
# text take about 1 MB
_WRITE_ROWS = 1 << 13

# deviates drawn, and hits unranked and keyed, per chunk of the sampler:
# each of a chunk's int64 temporaries is 64 KiB
_SAMPLE_CHUNK = 1 << 13

# bit positions _unrank decodes per step: 3^4 prefixes search in 7 rounds
_UNRANK_BITS = 4


def _mix64(z: np.uint64) -> np.uint64:
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def cell_uniforms(seed: int, cell_indices: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) deviates for cells, as splitmix64 counter outputs.

    The seed, in [0, ``MAX_SEED``], is itself sent through the finalizer
    first, so streams for nearby seeds are as decorrelated as streams for
    nearby cells; the deviate remains a pure function of (seed, index).
    """
    idx = np.asarray(cell_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):  # modular 2^64 arithmetic is intended
        key = _mix64(np.uint64(seed) + _GAMMA)
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
    """Yield the region and in-region rank of every hit, by geometric
    skips, one chunk at a time.

    A chunk is a prefix of the active regions whose wants, each the
    region's ``batch`` capped at its undrawn cells and at
    ``_SAMPLE_CHUNK``, sum to at most ``_SAMPLE_CHUNK`` deviates.  A region
    those deviates do not carry past its end stays active and is topped up
    from the same stream, so the hits depend on neither ``batch`` nor the
    chunking.  Positions are int64 cumulative sums taken across a chunk's
    regions at once; they may wrap past 2^63, but the difference from a
    region's start is exact up to its first position past the end (at most
    twice its size), which is as far as it is read.
    """
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-probs)  # -inf at p = 1: every gap is 0
    drawn = np.zeros_like(sizes)  # deviates drawn so far, per region
    end = np.zeros_like(sizes)  # one past the last hit so far, per region
    active = np.flatnonzero(probs > 0)
    while active.size:
        want = np.minimum(np.minimum(batch[active],
                                     sizes[active] - drawn[active]),
                          _SAMPLE_CHUNK)
        total = np.cumsum(want)
        # each want is at most the chunk, so the prefix holds a region
        take = int(np.searchsorted(total, _SAMPLE_CHUNK, "right"))
        part, want = active[:take], want[:take]
        first = total[:take] - want
        last = first + want - 1
        g = np.repeat(part, want)
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
        yield g[keep], stop[keep] - 1
        drawn[part] += want
        end[part] = stop[last]
        unfinished = past[last] == ended[last]
        active = np.concatenate(
            (part[unfinished & (drawn[part] < sizes[part])], active[take:]))


@functools.lru_cache(maxsize=8)
def _unrank_levels(r: int) -> tuple:
    """``_unrank``'s tables at r, one tuple per step: levels L = r, r - t,
    ..., each taking s = t = ``_UNRANK_BITS`` positions, the last the
    fewer left.

    A state (i, j) holds i (0, 0) and j differing positions among the L
    left; ``bases`` maps i * (r + 1) + j to the offset of its row, whose
    entry q is ``starts[offset + 1 + q]``.  A row holds 0, the cumulative
    arrangement counts of the 3^s prefixes of the next s positions in
    order ((0, 0) < differing < (1, 1), top position first; a prefix that
    cannot occur weighs 0), then the int64 maximum up to a power-of-two
    width.  So ``starts[pos]`` is the row entry before ``pos``, and
    ``search`` holds (2^k, ``starts[2^k:]``) per search round, k
    descending.  The other tables are indexed by the prefix plus one, p1:
    ``moves[p1]`` takes the prefix's (0, 0) and differing counts off
    i * (r + 1) + j, ``differing[p1]`` is the differing count, and
    ``u_bits`` and ``v_bits`` at (p1 << t) | flips give the prefix's bits
    of u and v in place, the n-th differing position from the top taking
    flip bit n.
    """
    t = _UNRANK_BITS
    stride = r + 1
    levels = []
    for length in range(r, 0, -t):
        s = min(t, length)
        rest = length - s
        prefixes = 3 ** s
        # above 3^s, so the search's count, 3^s at most, stays in the row
        width = 1 << prefixes.bit_length()
        # each prefix's position types, top first: 0 (0, 0), 1, 2 (1, 1)
        kind = (np.arange(prefixes)[:, None]
                // 3 ** np.arange(s - 1, -1, -1) % 3)
        a = np.count_nonzero(kind == 0, axis=1)
        b = np.count_nonzero(kind == 1, axis=1)
        # the states i + j <= L, numbered offset[i] + j
        i, j = np.nonzero(np.add.outer(np.arange(length + 1),
                                       np.arange(length + 1)) <= length)
        # arrangements of the rest: multinomial[s + x, s + y] counts those
        # with x (0, 0) and y differing positions, 0 for x or y below 0
        multinomial = np.zeros((length + 1 + s,) * 2, dtype=np.int64)
        multinomial[s:s + rest + 1, s:s + rest + 1] = [
            [math.comb(rest, x) * math.comb(rest - x, y)
             for y in range(rest + 1)] for x in range(rest + 1)]
        rows = np.full((i.size, width), np.iinfo(np.int64).max,
                       dtype=np.int64)
        rows[:, 0] = 0
        np.cumsum(multinomial[i[:, None] - a + s, j[:, None] - b + s],
                  axis=1, out=rows[:, 1:prefixes + 1])
        starts = np.concatenate(([0], rows.ravel()))
        bases = np.zeros(stride * stride, dtype=np.int64)
        bases[i * stride + j] = np.arange(i.size) * width
        # the n-th differing position from the top takes flip bit n
        differ = kind == 1
        nth = np.cumsum(differ, axis=1) - differ
        flip = np.arange(1 << t) >> nth[:, :, None] & 1
        one = (kind == 2)[:, :, None] | differ[:, :, None] & (flip == 1)
        place = np.int64(1) << np.arange(s - 1 + rest, rest - 1, -1,
                                         dtype=np.int64)
        u_bits = (one * place[:, None]).sum(axis=1)
        v_bits = u_bits ^ (differ * place).sum(axis=1)[:, None]
        search = tuple((np.int64(1 << k), starts[1 << k:])
                       for k in range(prefixes.bit_length() - 1, -1, -1))
        # index 0 of the prefix tables is no prefix: p1 >= 1
        no_prefix = np.zeros(1 << t, dtype=np.int64)
        levels.append((bases, starts, search,
                       np.concatenate(([0], a * stride + b)),
                       np.concatenate(([0], b)),
                       np.concatenate((no_prefix, u_bits.ravel())),
                       np.concatenate((no_prefix, v_bits.ravel()))))
    return tuple(levels)


def _unrank(r: int, i, j, rank):
    """Cells (u, v) for ranks within regions, as int64 arrays.

    rank = pattern * 2^(j-1) + flips.  ``pattern`` ranks the arrangement of
    bit-pair types over the r positions, top bit first, in the order
    (0, 0) < differing < (1, 1).  ``flips``, shifted up one bit, gives the
    differing bits their u bits, top first: the highest takes the 0, so it
    is (0, 1), and each lower one the next flip, 1 for (1, 0).

    Each step decodes ``_UNRANK_BITS`` positions from ``_unrank_levels``'
    tables: a branchless binary search of the state's row finds the
    prefix whose arrangements hold ``pattern``, and one ``take`` each gives
    its start, its counts and its u and v bits, flips deposited.
    """
    t = _UNRANK_BITS
    low = (1 << t) - 1
    flips = rank & ((np.int64(1) << (j - 1)) - 1)
    flips <<= 1
    pattern = rank >> (j - 1)
    state = i * (r + 1) + j
    u = np.zeros_like(rank)
    v = np.zeros_like(rank)
    for (bases, starts, search, moves, differing, u_bits,
         v_bits) in _unrank_levels(r):
        base = bases.take(state)
        pos = base.copy()
        for step, ahead in search:
            pos += (ahead.take(pos) <= pattern) * step
        pattern -= starts.take(pos)
        pos -= base  # the prefix plus one
        state -= moves.take(pos)
        next_flips = flips & low
        flips >>= differing.take(pos)
        pos <<= t
        pos |= next_flips
        u |= u_bits.take(pos)
        v |= v_bits.take(pos)
    return u, v


def check_seed(seed) -> int:
    """``seed`` as an int; TypeError or ValueError unless it is an integer
    in [0, ``MAX_SEED``]."""
    return check_int("seed", seed, LEAST_VALUES["seed"], MAX_SEED)


def _sampled_cells(params: KroneckerParams, seed: int):
    """The expected number of sampled cells, and an iterator over the
    sampled cells (u, v), u < v, as int64 arrays a chunk at a time; each
    cell comes once, in no particular order.  The seed passes
    ``check_seed`` first."""
    seed = check_seed(seed)
    if params.r > MAX_GENERATE_POWER:
        raise ValueError(f"generation supports r <= {MAX_GENERATE_POWER} "
                         f"(region sizes must fit int64), got r={params.r}")
    i, j, _, sizes, probs = _regions(params)
    # hits + 1 deviates end a region; this batch rarely needs a top-up
    mean = sizes * probs
    batch = np.minimum(np.ceil(mean + 4 * np.sqrt(mean) + 8), sizes)
    hits = _hit_ranks(seed, sizes, probs, batch.astype(np.int64))
    return float(mean.sum()), (
        _unrank(params.r, i[g], j[g], rank)
        for g, rank in hits)


def _resized(buf, rows: int, expected: float, shape=()):
    """``buf`` (None: a new int64 buffer) with room for ``rows`` rows of
    ``shape``; a ValueError naming the sample's size if that memory cannot
    be had."""
    try:
        if buf is None:
            return np.empty((rows,) + shape, dtype=np.int64)
        # realloc in place: nothing else views the buffer
        buf.resize((rows,) + shape, refcheck=False)
        return buf
    except (MemoryError, ValueError):
        gib = rows * 8 * math.prod(shape) / 2 ** 30
        raise ValueError(
            f"the sample's {expected:.4g} expected edges need {gib:.4g} GiB, "
            "more memory than can be allocated") from None


def _gathered(expected: float, chunks, shape=()):
    """The int64 rows of ``chunks``, in order, in one buffer.

    The buffer is allocated for ``expected`` rows and four standard
    deviations more before the first chunk is drawn, grows only if they
    are exceeded, and shrinks to the rows it holds.
    """
    held = _resized(None, math.ceil(expected + 4 * math.sqrt(expected)) + 8,
                    expected, shape)
    filled = 0
    for rows in chunks:
        stop = filled + len(rows)
        if stop > len(held):
            held = _resized(held, max(stop, len(held) * 5 // 4), expected,
                            shape)
        held[filled:stop] = rows
        filled = stop
    return _resized(held, filled, expected, shape)


def _sorted_keys(params: KroneckerParams, seed: int) -> np.ndarray:
    """Every sampled cell's key (u << r) | v, ascending; for 2r <= 62.

    u, v < 2^r pack into one int64 key in (u, v) order, and one sort of it
    is about twenty times faster than a lexsort of the pairs.  Each chunk
    of cells is keyed into one buffer, so the keys are the only
    edge-length array held.
    """
    r = params.r
    expected, cells = _sampled_cells(params, seed)
    key = _gathered(expected, ((u << r) | v for u, v in cells))
    key.sort()
    return key


def generate_edges(params: KroneckerParams, seed: int) -> np.ndarray:
    """All sampled edges as an (m, 2) array, ascending (u, v)."""
    if 2 * params.r > 62:
        expected, cells = _sampled_cells(params, seed)
        edges = _gathered(expected, (np.stack(uv, axis=1) for uv in cells),
                          (2,))
        return edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return _edge_rows(_sorted_keys(params, seed), params.num_vertices)


def check_in_memory(params: KroneckerParams) -> None:
    """ValueError unless ``generate`` can sample at ``params.r``: a
    ``SimpleGraph`` holds at most ``_MAX_VERTICES`` vertices, so r <= 31."""
    if params.num_vertices > _MAX_VERTICES:
        raise ValueError(f"a graph in memory holds at most {_MAX_VERTICES} "
                         f"vertices (r <= {_MAX_VERTICES.bit_length() - 1}), "
                         f"got r={params.r}")


def generate(params: KroneckerParams, seed: int) -> SimpleGraph:
    """Sample a graph in memory; past ``check_in_memory``'s r <= 31 it is
    a ValueError before any sampling.

    The sampler's sorted keys (u << r) | v are the graph's own keys
    u * 2^r + v, and its cells are distinct with u < v, so the graph takes
    them as they are.
    """
    check_in_memory(params)
    return SimpleGraph(params.num_vertices, _sorted_keys(params, seed))


def generate_to_file(params: KroneckerParams, seed: int, path) -> Path:
    """Write a sampled graph to a plain-text edge list.

    Header comments record the parameters and seed; edge lines are
    "u<TAB>v" with u < v in ascending (u, v) order.  A bad seed
    (``check_seed``) is an error before the file is created.  The file is
    created before the graph is sampled, so a path that cannot be written
    fails first, and removed on any later error: a failed run leaves no
    file, not even a truncated one.  Up to r = 31 each block of lines is decoded
    from the sorted keys u * 2^r + v by ``_edge_rows`` as it is written,
    so no (m, 2) edge array is held; past it, ``generate_edges`` gives them.
    """
    seed = check_seed(seed)
    packed = 2 * params.r <= 62
    path = Path(path)
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            rows = (_sorted_keys(params, seed) if packed
                    else generate_edges(params, seed))
            fh.write("# stochastic Kronecker graph by exact grass-hopping\n")
            fh.write(
                f"# a={params.a!r} b={params.b!r} c={params.c!r} "
                f"r={params.r} seed={seed}\n"
            )
            fh.write(f"# vertices={params.num_vertices}\n")
            for start in range(0, len(rows), _WRITE_ROWS):
                block = rows[start:start + _WRITE_ROWS]
                if packed:
                    block = _edge_rows(block, params.num_vertices)
                fh.write(("%d\t%d\n" * len(block))
                         % tuple(block.ravel().tolist()))
    except BaseException:
        # a regular file only: never a device or a link like /dev/stdout
        if path.is_file() and not path.is_symlink():
            path.unlink()
        raise
    return path
