"""Expected feature counts for stochastic Kronecker graphs.

The model: the edge-probability matrix over N = 2^r vertices is the r-fold
Kronecker power of the symmetric 2x2 initiator [[a, b], [b, c]].  Loops are
discarded and the upper triangle is mirrored, so the resulting graph is
simple and undirected.  Under that model the expected numbers of edges,
hairpins (2-stars), tripins (3-stars) and triangles all have closed forms:
every one is a short signed combination of r-th powers of polynomials in
(a, b, c).

This module evaluates those closed forms, at a point (with an exact
rational fallback where the signed terms cancel) or over arrays.  The
brute-force and fold-identity oracles that check them live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

# base**r stays below double-precision overflow for every base that can
# occur (max is (a+b)^3 + (b+c)^3 <= 16, and 16^60 < 1.8e72 < 1.8e308).
MAX_POWER = 60

# When a closed form cancels down to less than this fraction of its largest
# term, double precision no longer carries enough signal; the value is then
# recomputed in exact rational arithmetic.
_CANCELLATION_GUARD = 1e-2

FEATURE_NAMES = ("edges", "hairpins", "tripins", "triangles")


def check_power(r) -> int:
    """``r`` as an int; TypeError or ValueError unless it is in [0, MAX_POWER]."""
    if not isinstance(r, (int, np.integer)):
        raise TypeError(f"r must be an integer, got {r!r}")
    if not 0 <= r <= MAX_POWER:
        raise ValueError(f"r={r} outside [0, {MAX_POWER}]")
    return int(r)


@dataclass(frozen=True)
class KroneckerParams:
    """Initiator entries (a, b, c) plus the Kronecker power r.

    (a, b, c) and (c, b, a) describe the same graph distribution, so
    instances are canonicalized to a >= c on construction.
    """

    a: float
    b: float
    c: float
    r: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
        object.__setattr__(self, "r", check_power(self.r))
        if self.a < self.c:
            a, c = self.a, self.c
            object.__setattr__(self, "a", c)
            object.__setattr__(self, "c", a)

    @property
    def num_vertices(self) -> int:
        return 1 << self.r

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "r": self.r}


@dataclass(frozen=True)
class ExpectedFeatures:
    """Model-expected counts of the four moment features (all >= 0)."""

    e_edges: float
    e_hairpins: float
    e_tripins: float
    e_triangles: float

    def get(self, feature: str) -> float:
        return getattr(self, "e_" + feature)

    def to_dict(self) -> dict:
        return {name: self.get(name) for name in FEATURE_NAMES}


def _closed_form_terms(a, b, c):
    """Signed (coefficient, base) terms of the four closed forms.

    Returns the term lists for 2E(edges), 2E(hairpins), 6E(tripins) and
    6E(triangles), in FEATURE_NAMES order.  Works for floats, Fractions and
    numpy arrays alike.  Shared subexpressions are factored so that the
    degenerate identities (b = 0, or a = c = 0) make the cancelling bases
    bitwise identical, which lets the combination step return exact zeros.
    """
    b2 = b * b
    b3 = b2 * b
    a3 = a * a * a
    c3 = c * c * c
    q2 = a * a + c * c        # sum over diagonal entries squared
    q3 = a3 + c3              # ... and cubed
    s = a + c
    ab = a + b
    bc = b + c

    edge_terms = (
        (1, a + 2 * b + c),
        (-1, s),
    )
    hairpin_terms = (
        (1, ab * ab + bc * bc),
        (-2, a * ab + c * bc),
        (-1, q2 + 2 * b2),
        (2, q2),
    )
    # The pair-collapsed tripin coefficients are (2, 3, 6): the three
    # two-block partitions of four indices with the tail exchangeable
    # collapse as 2x(jjj) + 3x(iijj-type) + 6x(iiij-type).
    tripin_terms = (
        (1, ab * ab * ab + bc * bc * bc),
        (-3, a * (ab * ab) + c * (bc * bc)),
        (-3, q3 + b * q2 + b2 * s + 2 * b3),
        (2, q3 + 2 * b3),
        (3, q3 + b2 * s),
        (6, q3 + b * q2),
        (-6, q3),
    )
    triangle_terms = (
        (1, q3 + 3 * b2 * s),
        (-3, a * (a * a + b2) + c * (b2 + c * c)),
        (2, q3),
    )
    return edge_terms, hairpin_terms, tripin_terms, triangle_terms


# Each closed form is this multiple of its feature's expected count.
_MULTIPLES = (2.0, 2.0, 6.0, 6.0)


def _combine(terms, r):
    """Sum coef * base**r over the terms; returns (sum, [base**r, ...]).

    The coefficients of every closed form sum to zero, so the combination
    is rewritten as partial-sum multiples of differences of consecutive
    powers.  When all bases coincide (the degenerate initiators) every
    difference is an exact floating-point zero, and in the nearly-cancelled
    regime the subtractions happen before any magnitude is lost.  Works for
    floats, Fractions and numpy arrays alike.
    """
    powers = [base ** r for _, base in terms]
    total = powers[0] - powers[0]  # typed zero (float, Fraction or array)
    running = 0
    for k in range(len(powers) - 1):
        running += terms[k][0]
        total = total + running * (powers[k] - powers[k + 1])
    return total, powers


def _values(term_lists, r) -> list:
    # one float exponent per value, so every form of r runs numpy's
    # elementwise power loop and none reaches its squaring fast path; the
    # first base, a + 2b + c, has the values' shape
    r = np.full(np.shape(term_lists[0][0][1]), r, dtype=float)
    return [np.maximum(_combine(terms, r)[0] / multiple, 0.0)
            for terms, multiple in zip(term_lists, _MULTIPLES)]


def closed_form_values(a, b, c, r) -> list:
    """The four closed-form expectations, in FEATURE_NAMES order.

    Clamped at zero but without the exact fallback.  (a, b, c) may be
    floats or numpy arrays; a grid sweep passes a block of the lattice at
    once.  ``r`` is one power, or an integer array that gives each point
    of 1-d arrays (a, b, c) its own power, as a lockstep simplex over
    several problems does.  Every power is taken with a float exponent
    array, so a point has the same bits whichever form of ``r`` asked for
    it, and the same as in ``closed_form_by_power``.
    """
    return _values(_closed_form_terms(a, b, c), r)


def closed_form_by_power(a, b, c, powers):
    """Yield ``closed_form_values(a, b, c, r)`` for each r of ``powers``.

    The bases are built once, so a grid sweep ranks a lattice block at
    several powers for the cost of the powers alone, and holds one power's
    values at a time.
    """
    term_lists = _closed_form_terms(a, b, c)
    for r in powers:
        yield _values(term_lists, r)


def expected_counts(a: float, b: float, c: float, r: int) -> list:
    """Expected (edges, hairpins, tripins, triangles) at one point.

    Evaluated in double precision; any feature whose signed terms cancel
    below the precision guard is transparently recomputed in exact rational
    arithmetic, so results are accurate to full double precision even deep
    in the small-b regime where the leading terms nearly cancel.  The
    arguments are not validated; ``expected_features`` is the checked entry
    point.
    """
    term_lists = _closed_form_terms(a, b, c)
    exact_lists = None
    out = []
    for idx, terms in enumerate(term_lists):
        val, powers = _combine(terms, r)
        scale = max(abs(coef) * p for (coef, _), p in zip(terms, powers))
        if scale > 0.0 and abs(val) < _CANCELLATION_GUARD * scale:
            if exact_lists is None:
                exact_lists = _closed_form_terms(
                    Fraction(a), Fraction(b), Fraction(c)
                )
            val = float(_combine(exact_lists[idx], r)[0])
        out.append(max(val, 0.0) / _MULTIPLES[idx])
    return out


def expected_features(params: KroneckerParams) -> ExpectedFeatures:
    """Closed-form expectations of (edges, hairpins, tripins, triangles)."""
    return ExpectedFeatures(*expected_counts(params.a, params.b, params.c,
                                             params.r))


class DominanceExponent(NamedTuple):
    """How fast the non-lead closed-form terms vanish relative to the lead."""

    alpha: float
    lead_dominant: bool   # alpha > 1/2: dropping non-lead terms is below sampling noise


def dominance_exponent(params: KroneckerParams) -> DominanceExponent:
    """alpha = log2((a+2b+c)/(a+c)); the second edge term scales as N^-alpha."""
    s = params.a + params.c
    if s == 0.0:
        return DominanceExponent(math.inf, True)
    alpha = math.log2((params.a + 2 * params.b + params.c) / s)
    return DominanceExponent(alpha, alpha > 0.5)
