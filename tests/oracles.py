"""Independent oracles the tests check the package against.

- ``brute_force_expected`` sums over the explicitly built 2^r x 2^r
  probability matrix (small r only), with no fold identity and no
  Kronecker power reduction.
- ``exact_expected`` evaluates the closed forms in exact rational
  arithmetic, a precision reference for the double-precision path.
- ``restricted_sum`` and the ``folded_*`` sums are the restricted-sum fold
  identities the closed-form derivation rests on, and the direct
  enumeration they are checked against.
- ``checked_graph`` builds a graph from (u, v) pairs that must already
  be loop-free and duplicate-free, the tests' way to state a graph by its
  edges.
- ``sparse_product_triangles`` counts triangles as one masked
  ``scipy.sparse`` product, the count the package made before its wedge
  check.
- ``plain_objective`` is the fit objective of one problem as a plain sum
  over its features, written without the package's scorer.
- ``grid_oracle`` is the grid fit as one argmin over the whole a >= c
  lattice (``whole_lattice``), built at once with no blocks and no
  pruning.
- ``leading_oracle`` is the leading-term fit with its four roots and its
  triangle mismatch written out by hand, not read from the closed forms'
  tables.
- ``lockstep_oracle`` is the lockstep Nelder-Mead as it was written before
  its step took fewer numpy calls: each trial point built on its own, and
  each branch's new worst vertex written through its own mask.
- ``per_bit_unrank`` is the sampler's rank-to-cell bijection as it was
  written before it decoded several positions per step: one bit position
  a step, from the running multinomial, with no tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations

import numpy as np

from kronmoments.estimator import (
    _CHI,
    _FATOL,
    _MAXITER,
    _NONZDELT,
    _PSI,
    _RHO,
    _SIGMA,
    _XATOL,
    _ZDELT,
)
from kronmoments.graph_io import SimpleGraph
from kronmoments.moments import (
    FEATURE_NAMES,
    ExpectedFeatures,
    KroneckerParams,
    _TERMS,
    _closed_form_bases,
    closed_form_values,
    expected_counts,
)

# brute_force_expected builds the full 2^r x 2^r matrix.
BRUTE_FORCE_MAX_POWER = 7


def probability_matrix(params: KroneckerParams) -> np.ndarray:
    """The explicit 2^r x 2^r edge-probability matrix (small r only)."""
    if params.r > BRUTE_FORCE_MAX_POWER:
        raise ValueError(
            f"explicit matrix limited to r <= {BRUTE_FORCE_MAX_POWER}, got r={params.r}"
        )
    if params.r == 0:
        return np.array([[1.0]])
    theta = np.array([[params.a, params.b], [params.b, params.c]])
    return reduce(np.kron, [theta] * params.r)


@lru_cache(maxsize=16)
def _pair_columns(n: int):
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


@lru_cache(maxsize=16)
def _triple_columns(n: int):
    trips = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    return trips[:, 0], trips[:, 1], trips[:, 2]


def brute_force_expected(params: KroneckerParams) -> ExpectedFeatures:
    """Oracle: restricted sums over the explicitly built probability matrix.

    Every sum runs over index tuples with all entries distinct, enumerated
    directly (sorted representatives times the count of their orderings).
    No fold identity and no Kronecker power reduction is involved, so this
    is an independent check of ``expected_features``.
    """
    if params.r > BRUTE_FORCE_MAX_POWER:
        raise ValueError(
            f"brute force limited to r <= {BRUTE_FORCE_MAX_POWER}, got r={params.r}"
        )
    p = probability_matrix(params)
    n = p.shape[0]
    g = p.copy()
    np.fill_diagonal(g, 0.0)

    edges2 = float(g.sum())

    if n >= 3:
        j2, k2 = _pair_columns(n)
        # sum over centers i and unordered {j, k}; zeroed diagonal removes
        # any tuple with j = i or k = i
        work = g[:, j2]
        work *= g[:, k2]
        hairpins2 = 2.0 * float(work.sum())
        i3, j3, k3 = _triple_columns(n)
        triangles6 = 6.0 * float((p[i3, j3] * p[i3, k3] * p[j3, k3]).sum())
    else:
        hairpins2 = 0.0
        triangles6 = 0.0

    if n >= 4:
        j3, k3, l3 = _triple_columns(n)
        work = g[:, j3]
        work *= g[:, k3]
        work *= g[:, l3]
        tripins6 = 6.0 * float(work.sum())
    else:
        tripins6 = 0.0

    return ExpectedFeatures(
        e_edges=edges2 / 2.0,
        e_hairpins=hairpins2 / 2.0,
        e_tripins=tripins6 / 6.0,
        e_triangles=triangles6 / 6.0,
    )


def exact_expected(a, b, c, r):
    """Closed forms in exact rational arithmetic (independent precision ref)."""
    bases = _closed_form_bases(Fraction(a), Fraction(b), Fraction(c))
    e2, h2, t6, d6 = (sum(coef * bases[k] ** r for coef, k in terms)
                      for terms in _TERMS)
    # divide before rounding, so each value is the exact one correctly rounded
    return (float(e2 / 2), float(h2 / 2), float(t6 / 6), float(d6 / 6))


# ---------------------------------------------------------------------------
# Restricted-sum fold identities.
#
# A "restricted" sum runs over all index tuples whose entries are pairwise
# distinct.  Each identity rewrites it in terms of unrestricted sums over
# partial diagonals.  restricted_sum() enumerates directly and is the
# reference the identities are checked against.
# ---------------------------------------------------------------------------


def restricted_sum(f: np.ndarray) -> float:
    """Direct enumeration of sum f over all-distinct index tuples (2-4 dims)."""
    f = np.asarray(f, dtype=float)
    ndim = f.ndim
    if ndim not in (2, 3, 4):
        raise ValueError(f"need a 2-, 3- or 4-index tensor, got ndim={ndim}")
    n = f.shape[0]
    if any(dim != n for dim in f.shape):
        raise ValueError("all index ranges must match")
    total = 0.0
    for tup in permutations(range(n), ndim):
        total += f[tup]
    return total


def folded_pair_sum(f: np.ndarray) -> float:
    """Two indices: full sum minus the diagonal."""
    f = np.asarray(f, dtype=float)
    return float(f.sum() - np.einsum("ii->", f))


def folded_triple_sum(f: np.ndarray) -> float:
    """Three indices, no symmetry assumed."""
    f = np.asarray(f, dtype=float)
    return float(
        f.sum()
        - np.einsum("ijj->", f)
        - np.einsum("iji->", f)
        - np.einsum("iij->", f)
        + 2.0 * np.einsum("iii->", f)
    )


def folded_quad_sum(f: np.ndarray) -> float:
    """Four indices, no symmetry assumed."""
    f = np.asarray(f, dtype=float)
    three = (
        np.einsum("ijki->", f)
        + np.einsum("ijkj->", f)
        + np.einsum("ijkk->", f)
        + np.einsum("ijik->", f)
        + np.einsum("ijjk->", f)
        + np.einsum("iijk->", f)
    )
    two = (
        2.0
        * (
            np.einsum("ijjj->", f)
            + np.einsum("ijii->", f)
            + np.einsum("iiji->", f)
            + np.einsum("iiij->", f)
        )
        + np.einsum("ijij->", f)
        + np.einsum("ijji->", f)
        + np.einsum("iijj->", f)
    )
    return float(f.sum() - three + two - 6.0 * np.einsum("iiii->", f))


def folded_triple_sum_tail_exchangeable(f: np.ndarray) -> float:
    """Three indices with f[i, j, k] == f[i, k, j]."""
    f = np.asarray(f, dtype=float)
    return float(
        f.sum()
        - np.einsum("ijj->", f)
        - 2.0 * np.einsum("iij->", f)
        + 2.0 * np.einsum("iii->", f)
    )


def folded_quad_sum_tail_exchangeable(f: np.ndarray) -> float:
    """Four indices with the last three exchangeable.

    Derived from the general four-index identity: under tail
    exchangeability the six single-pair collapses merge 3+3, and the seven
    two-block collapses merge as 2x(i,jjj) + 3x(ii,jj) + 6x(iii,j).
    """
    f = np.asarray(f, dtype=float)
    return float(
        f.sum()
        - 3.0 * (np.einsum("iijk->", f) + np.einsum("ijjk->", f))
        + 2.0 * np.einsum("ijjj->", f)
        + 3.0 * np.einsum("iijj->", f)
        + 6.0 * np.einsum("iiij->", f)
        - 6.0 * np.einsum("iiii->", f)
    )


def folded_triple_sum_fully_exchangeable(f: np.ndarray) -> float:
    """Three indices with f symmetric in all of them."""
    f = np.asarray(f, dtype=float)
    return float(
        f.sum() - 3.0 * np.einsum("iij->", f) + 2.0 * np.einsum("iii->", f)
    )


def checked_graph(n: int, edges, labels=None) -> SimpleGraph:
    """The graph on n vertices with ``edges``, (u, v) pairs in any order
    and orientation; ValueError for a self-loop or a duplicate edge, which
    ``SimpleGraph.from_pairs`` would drop."""
    g = SimpleGraph.from_pairs(edges, num_vertices=n, labels=labels)
    if g.loops_dropped:
        raise ValueError("edges contain a self-loop")
    if g.duplicates_dropped:
        raise ValueError("edges contain a duplicate edge")
    return g


def sparse_product_triangles(g: SimpleGraph) -> int:
    """Exact triangle count as one masked sparse product.

    Vertices are ranked by (degree, id) and each edge is oriented from
    lower to higher rank, giving the forward adjacency L.  Entry (u, w) of
    L @ L counts the paths u -> v -> w, so masking it with L counts each
    triangle exactly once, at its lowest-ranked vertex (Azad, Buluc &
    Gilbert, "Parallel triangle counting and enumeration using matrix
    algebra", IPDPSW 2015).
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


def plain_objective(spec, obs):
    """The objective of ``obs`` under ``spec``, one feature at a time.

    Returns objective(expected), where ``expected`` holds the four
    expectations in FEATURE_NAMES order, as floats or as arrays.  A feature
    observed as 0 is left out under the observed-count normalizations.  A
    term is D / N: 0 at an exact match, +inf where N is 0.
    """
    feats = [f for f in spec.features
             if not (spec.normalization in ("f", "f2") and obs.get(f) == 0)]

    def objective(expected):
        total = 0.0
        for f in feats:
            F = float(obs.get(f))
            E = np.asarray(expected[FEATURE_NAMES.index(f)], dtype=float)
            miss = F - E
            d = miss * miss if spec.distance == "sq" else np.abs(miss)
            n = {"f": F, "f2": F * F, "e": E, "e2": E * E}[spec.normalization]
            with np.errstate(divide="ignore", invalid="ignore"):
                total = total + np.where(
                    d == 0.0, 0.0, np.where(n == 0.0, np.inf, d / n))
        return total

    return objective


def whole_lattice(points_per_dim):
    """The a >= c grid lattice, built whole: meshgrid, then the mask."""
    axis = np.linspace(0.0, 1.0, points_per_dim)
    aa, bb, cc = (g.ravel() for g in
                  np.meshgrid(axis, axis, axis, indexing="ij"))
    keep = aa >= cc  # flattened order is lexicographic in (a, b, c)
    return aa[keep], bb[keep], cc[keep]


def grid_oracle(obs, r, spec, points_per_dim):
    """The grid fit as one argmin over the whole lattice, and its objective."""
    aa, bb, cc = whole_lattice(points_per_dim)
    objective = plain_objective(spec, obs)
    idx = int(np.argmin(objective(closed_form_values(aa, bb, cc, r))))
    a, b, c = float(aa[idx]), float(bb[idx]), float(cc[idx])
    return (a, b, c), objective(expected_counts(a, b, c, r))


def leading_oracle(obs, r):
    """The leading-term fit of a feasible problem, written out by hand.

    Returns the point (a, b, c), the transforms (e, h, delta, t, x_hat,
    y_hat) and the least triangle mismatch.  Each count is made a double
    before it is scaled, and b sweeps [0, 1] in steps of 1e-4; of the points
    with the least |a^3 + c^3 + 3 b^2 (a + c) - delta|, the least (a, b, c)
    wins.
    """
    e = (2.0 * obs.edges) ** (1.0 / r)
    h = (2.0 * obs.hairpins) ** (1.0 / r)
    delta = (6.0 * obs.triangles) ** (1.0 / r) if obs.triangles > 0 else 0.0
    t = (6.0 * obs.tripins) ** (1.0 / r) if obs.tripins > 0 else 0.0
    root = math.sqrt(max(2.0 * h - e * e, 0.0))
    x_hat, y_hat = (e + root) / 2.0, (e - root) / 2.0
    b = np.linspace(0.0, 1.0, 10_001)
    a = np.clip(x_hat - b, 0.0, 1.0)
    c = np.clip(y_hat - b, 0.0, 1.0)
    mismatch = np.abs(a ** 3 + c ** 3 + 3.0 * b ** 2 * (a + c) - delta)
    best = mismatch.min()
    point = min((float(a[i]), float(b[i]), float(c[i]))
                for i in np.nonzero(mismatch == best)[0])
    return point, (e, h, delta, t, x_hat, y_hat), float(best)


def lockstep_oracle(objective, x0: np.ndarray) -> np.ndarray:
    """``estimator._nelder_mead_lockstep``'s contract, as it was first
    written: the same objective calls in the same order, and the same
    end points, bit for bit."""
    k, n = x0.shape
    dims = np.arange(n)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, dims + 1, dims] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    # reflect vertices pushed past the upper bound back inside, then clip
    sim = np.clip(np.where(sim > 1.0, 2.0 - sim, sim), 0.0, 1.0)
    fsim = objective(sim.reshape(-1, n),
                     np.repeat(np.arange(k), n + 1)).reshape(k, n + 1)

    def sort(sim, fsim):
        ind = (np.argsort(fsim, axis=1, kind="stable")
               + np.arange(0, fsim.size, n + 1)[:, None])
        return sim.reshape(-1, n)[ind], fsim.ravel()[ind]

    sim, fsim = sort(sim, fsim)
    best = sim[:, 0].copy()
    ids = np.flatnonzero(np.isfinite(fsim).any(axis=1))
    sim, fsim = sim[ids], fsim[ids]
    iterations = 1
    while ids.size and iterations < _MAXITER:
        done = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _XATOL)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= _FATOL))
        if done.any():
            best[ids[done]] = sim[done, 0]
            ids, sim, fsim = ids[~done], sim[~done], fsim[~done]
            if not ids.size:
                break

        xbar = sim[:, :-1].sum(axis=1) / n
        worst = sim[:, -1]
        # reflection, expansion, outside and inside contraction, in order
        trials = np.clip(np.stack([
            (1 + _RHO) * xbar - _RHO * worst,
            (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
            (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
            (1 - _PSI) * xbar + _PSI * worst,
        ]), 0.0, 1.0)
        ftrials = objective(trials.reshape(-1, n),
                            np.tile(ids, 4)).reshape(4, -1)
        xr, fxr = trials[0], ftrials[0]
        expand = fxr < fsim[:, 0]
        contract = ~expand & ~(fxr < fsim[:, -2])
        outside = contract & (fxr < fsim[:, -1])
        inside = contract & ~outside

        # the second trial point of each start that expands or contracts
        x2 = np.where(expand[:, None], trials[1],
                      np.where(outside[:, None], trials[2], trials[3]))
        f2 = np.where(expand, ftrials[1],
                      np.where(outside, ftrials[2], ftrials[3]))
        take2 = ((expand & (f2 < fxr)) | (outside & (f2 <= fxr))
                 | (inside & (f2 < fsim[:, -1])))
        take_r = ~contract & ~take2
        shrink = contract & ~take2
        sim[take_r, -1], fsim[take_r, -1] = xr[take_r], fxr[take_r]
        sim[take2, -1], fsim[take2, -1] = x2[take2], f2[take2]
        if shrink.any():
            s = sim[shrink]
            s[:, 1:] = np.clip(s[:, :1] + _SIGMA * (s[:, 1:] - s[:, :1]),
                               0.0, 1.0)
            sim[shrink] = s
            fsim[shrink, 1:] = objective(
                s[:, 1:].reshape(-1, n), np.repeat(ids[shrink], n)
            ).reshape(-1, n)
        iterations += 1
        sim, fsim = sort(sim, fsim)
    best[ids] = sim[:, 0]
    return best


def per_bit_unrank(r: int, i, j, multinomial, rank):
    """``generator._unrank``'s cells (u, v), one bit position a step.

    ``pattern`` = rank >> (j - 1) ranks the arrangement of bit-pair types,
    top first, (0, 0) < differing < (1, 1); at each position the
    arrangements that put (0, 0) or a differing pair next are the running
    count times i / length or j / length.  The flips, shifted up one bit,
    give the differing positions their u bits top first, the highest a 0.
    """
    i, j, count = i.copy(), j.copy(), multinomial
    flips = rank & ((np.int64(1) << (j - 1)) - 1)
    flips <<= 1
    pattern = rank >> (j - 1)
    u = np.zeros_like(rank)
    differ = np.zeros_like(rank)  # the differing bits, so v = u ^ differ
    for length in range(r, 0, -1):
        with_a = count * i // length
        with_b = count * j // length
        rest = pattern - with_a
        is_a = rest < 0
        is_c = rest >= with_b  # never with is_a, as with_b >= 0
        rest -= with_b * is_c
        pattern = np.where(is_a, pattern, rest)
        is_b = ~(is_a | is_c)
        count = np.where(is_a, with_a,
                         np.where(is_c, count - with_a - with_b, with_b))
        i -= is_a
        j -= is_b
        flipped = flips & is_b
        flips >>= is_b
        u <<= 1
        u |= flipped
        u |= is_c
        differ <<= 1
        differ |= is_b
    return u, u ^ differ
