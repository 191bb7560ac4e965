"""Seeded benchmark inputs and their oracles, computed without kronmoments.

Every builder is a pure function of its seed and size arguments, so the
same seed gives byte-identical inputs.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

# Exponent of the Chung-Lu weights w_i = (i + 1)^-CHUNG_LU_EXPONENT; with
# 1M lines over 200k labels it gives a maximum degree of about 5.7k.
CHUNG_LU_EXPONENT = 0.6
LABEL_RANGE = 10 ** 9
COMMENT_SHARE = 0.01
LOOP_SHARE = 0.005
REVERSED_SHARE = 0.02


def ingest_graph(seed: int, lines: int, labels: int):
    """Edge-list text plus its exact feature counts.

    The pairs have Chung-Lu power-law degrees over ``labels`` random,
    non-dense integer labels.  The text also holds '#' comments, self-loops,
    reversed duplicates of earlier pairs and mixed whitespace, in shuffled
    order.  Returns (text, counts, sizes); ``counts`` is the oracle for
    ``kronmoments features`` on the text.
    """
    rng = np.random.default_rng(seed)
    pool = np.unique(rng.integers(0, LABEL_RANGE, size=labels + labels // 50))
    names = rng.permutation(pool)[:labels]
    weights = (np.arange(labels) + 1.0) ** -CHUNG_LU_EXPONENT
    weights /= weights.sum()

    n_comments = int(lines * COMMENT_SHARE)
    n_loops = int(lines * LOOP_SHARE)
    n_reversed = int(lines * REVERSED_SHARE)
    n_pairs = lines - n_comments - n_loops - n_reversed
    u = names[rng.choice(labels, size=n_pairs, p=weights)]
    v = names[rng.choice(labels, size=n_pairs, p=weights)]
    loops = names[rng.choice(labels, size=n_loops, p=weights)]
    pick = rng.choice(n_pairs, size=n_reversed, replace=False)
    left = np.concatenate([u, loops, v[pick]])
    right = np.concatenate([v, loops, u[pick]])

    seps = np.array([" ", "\t", "  "])[rng.integers(0, 3, size=left.size)]
    body = [f"{a}{s}{b}" for a, s, b in
            zip(left.tolist(), seps.tolist(), right.tolist())]
    body += [f"# comment {k}" for k in range(n_comments)]
    order = rng.permutation(len(body))
    text = "\n".join(body[k] for k in order) + "\n"

    return text, _oracle_counts(left, right), {
        "lines": lines, "pairs": n_pairs, "loops": n_loops,
        "reversed": n_reversed, "comments": n_comments,
    }


def _oracle_counts(left: np.ndarray, right: np.ndarray) -> dict:
    """Exact counts of the simple graph on these label pairs.

    Degree features are summed as Python integers; triangles are
    (U @ U) .* U summed over the strictly upper-triangular adjacency U.
    """
    used, dense = np.unique(np.concatenate([left, right]), return_inverse=True)
    n = used.size
    a, b = dense[:left.size], dense[left.size:]
    keep = a != b
    lo = np.minimum(a[keep], b[keep])
    hi = np.maximum(a[keep], b[keep])
    keys = np.unique(lo * np.int64(n) + hi)
    lo, hi = keys // n, keys % n

    degrees = np.bincount(np.concatenate([lo, hi]), minlength=n).tolist()
    edges2 = sum(degrees)
    hairpins2 = sum(d * (d - 1) for d in degrees)
    tripins6 = sum(d * (d - 1) * (d - 2) for d in degrees)
    upper = sparse.csr_matrix(
        (np.ones(lo.size, dtype=np.int64), (lo, hi)), shape=(n, n))
    triangles = int((upper @ upper).multiply(upper).sum())
    return {
        "vertices": n,
        "edges": edges2 // 2,
        "hairpins": hairpins2 // 2,
        "tripins": tripins6 // 6,
        "triangles": triangles,
    }


def edge_moments(a: float, b: float, c: float, r: int) -> tuple[float, float]:
    """Mean and standard deviation of the edge count of a Kronecker sample.

    The count is a sum of independent Bernoulli(p_ij) over i < j, so the
    mean is (sum p - trace p) / 2 and the variance is that minus
    (sum p^2 - trace p^2) / 2; each sum is an r-th power.
    """
    mean = ((a + 2 * b + c) ** r - (a + c) ** r) / 2.0
    squares = ((a * a + 2 * b * b + c * c) ** r - (a * a + c * c) ** r) / 2.0
    return mean, (mean - squares) ** 0.5
