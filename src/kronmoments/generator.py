"""Exact sampling of stochastic Kronecker graphs by coin flipping.

Every upper-triangular cell (i, j), i < j, of the 2^r x 2^r probability
matrix gets an independent Bernoulli draw, so the sampled graph follows the
model distribution exactly (no ball-dropping approximation).  The draw for
a cell is a pure function of (seed, i, j): the uniform deviate is the
output of a splitmix64-style counter generator evaluated at the cell's
linear index.  That makes the edge set independent of sweep order and
worker count - runs with any parallelism produce bit-identical output.

The full sweep touches all 4^r cells.  Rows are processed in blocks; the
probability row P[i, :] is expanded on the fly as a Kronecker product of
two precomputed initiator-power factors, so the full matrix is never
materialized.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from pathlib import Path

import numpy as np

from .graph_io import SimpleGraph
from .moments import KroneckerParams

WORKERS_ENV_VAR = "KRONMOMENTS_WORKERS"

# full-sweep time, not memory, is the binding constraint in memory
MAX_IN_MEMORY_POWER = 17
# streaming bound: 4^22 cells is already a multi-day sweep, and the row
# expander keeps both Kronecker factors at <= 2^11 per side
MAX_SWEEP_POWER = 22

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53


def worker_count() -> int:
    """Worker count from the environment (single-threaded default)."""
    raw = os.environ.get(WORKERS_ENV_VAR, "")
    if not raw:
        return 1
    count = int(raw)
    if count < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {raw!r}")
    return count


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


def cell_probability(params: KroneckerParams, i: int, j: int) -> float:
    """Edge probability of cell (i, j): the product over bit positions of
    the initiator entry selected by the bits of i and j.

    Computed as exp of the summed logs, with an exact-zero shortcut when
    any factor is zero.
    """
    n = params.num_vertices
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"cell ({i}, {j}) outside 0..{n - 1}")
    theta = ((params.a, params.b), (params.b, params.c))
    log_total = 0.0
    for s in range(params.r):
        entry = theta[(i >> s) & 1][(j >> s) & 1]
        if entry == 0.0:
            return 0.0
        log_total += math.log(entry)
    return math.exp(log_total)


def _initiator_power(params: KroneckerParams, k: int) -> np.ndarray:
    if k == 0:
        return np.array([[1.0]])
    return reduce(np.kron, [params.theta()] * k)


class _RowExpander:
    """Expands rows of the probability matrix without materializing it.

    The matrix is the Kronecker product of a high-bit factor and a low-bit
    factor, both small enough to precompute; a block of rows is then one
    broadcast multiply.  Factors are capped at 2^11 per side, which covers
    every sweep that can finish in reasonable time.
    """

    _MAX_FACTOR_POWER = 11

    def __init__(self, params: KroneckerParams):
        self.n = params.num_vertices
        r = params.r
        r_lo = min(r // 2, self._MAX_FACTOR_POWER)
        r_hi = r - r_lo
        if r_hi > self._MAX_FACTOR_POWER:
            raise ValueError(
                f"row expansion supports r <= {2 * self._MAX_FACTOR_POWER}, "
                f"got r={r}"
            )
        self._lo_bits = r_lo
        self._lo_mask = (1 << r_lo) - 1
        self._hi = _initiator_power(params, r_hi)
        self._lo = _initiator_power(params, r_lo)

    def rows(self, i0: int, i1: int) -> np.ndarray:
        """Probability rows i0..i1-1 as an (i1-i0, n) array."""
        idx = np.arange(i0, i1)
        hi_rows = self._hi[idx >> self._lo_bits]
        lo_rows = self._lo[idx & self._lo_mask]
        block = hi_rows[:, :, None] * lo_rows[:, None, :]
        return block.reshape(i1 - i0, self.n)


def _sweep_block(
    expander: _RowExpander, seed: int, i0: int, i1: int
) -> np.ndarray:
    """Coin-flip every upper-triangle cell with row index in [i0, i1)."""
    n = expander.n
    probs = expander.rows(i0, i1)
    rows = np.arange(i0, i1, dtype=np.uint64)
    cols = np.arange(n, dtype=np.uint64)
    cells = rows[:, None] * np.uint64(n) + cols[None, :]
    draws = cell_uniforms(seed, cells)
    upper = cols[None, :] > rows[:, None]
    hit_i, hit_j = np.nonzero((draws < probs) & upper)
    edges = np.empty((hit_i.size, 2), dtype=np.int64)
    edges[:, 0] = hit_i + i0
    edges[:, 1] = hit_j
    return edges


def _block_bounds(n: int):
    rows_per_block = max(1, (1 << 20) // n)
    for start in range(0, n, rows_per_block):
        yield start, min(start + rows_per_block, n)


def _sweep_blocks(params: KroneckerParams, seed: int, workers: int):
    """Yield per-block edge arrays in ascending row order."""
    expander = _RowExpander(params)
    blocks = list(_block_bounds(params.num_vertices))
    if workers <= 1:
        for i0, i1 in blocks:
            yield _sweep_block(expander, seed, i0, i1)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # executor.map preserves submission order, so the merged
            # output is identical for any worker count
            yield from pool.map(
                lambda span: _sweep_block(expander, seed, *span), blocks
            )


def generate_edges(
    params: KroneckerParams, seed: int, workers: int | None = None
) -> np.ndarray:
    """All sampled edges as an (m, 2) array, ascending (u, v)."""
    if params.r > MAX_SWEEP_POWER:
        raise ValueError(
            f"cell indexing supports r <= {MAX_SWEEP_POWER}, got r={params.r}"
        )
    workers = worker_count() if workers is None else workers
    chunks = [block for block in _sweep_blocks(params, seed, workers)
              if block.size]
    if not chunks:
        return np.zeros((0, 2), dtype=np.int64)
    return np.concatenate(chunks)


def generate(
    params: KroneckerParams, seed: int, workers: int | None = None
) -> SimpleGraph:
    """Sample a graph in memory (capped at r <= 17; stream larger runs)."""
    if params.r > MAX_IN_MEMORY_POWER:
        raise ValueError(
            f"in-memory generation capped at r <= {MAX_IN_MEMORY_POWER}; "
            f"use generate_to_file for r={params.r}"
        )
    edges = generate_edges(params, seed, workers)
    return SimpleGraph(params.num_vertices, edges)


def generate_to_file(
    params: KroneckerParams, seed: int, path, workers: int | None = None
) -> Path:
    """Stream a sampled graph to a plain-text edge list.

    Header comments record the parameters and seed; edge lines are
    "u<TAB>v" with u < v in ascending (u, v) order.  Bytes are identical
    for any worker count.
    """
    if params.r > MAX_SWEEP_POWER:
        raise ValueError(
            f"cell indexing supports r <= {MAX_SWEEP_POWER}, got r={params.r}"
        )
    workers = worker_count() if workers is None else workers
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# stochastic Kronecker graph by exact coin flipping\n")
        fh.write(
            f"# a={params.a!r} b={params.b!r} c={params.c!r} "
            f"r={params.r} seed={seed}\n"
        )
        fh.write(f"# vertices={params.num_vertices}\n")
        for edges in _sweep_blocks(params, seed, workers):
            if edges.size:
                fh.write(
                    "".join(f"{u}\t{v}\n" for u, v in edges.tolist())
                )
    return path

