"""Expected feature counts for stochastic Kronecker graphs.

The model: the edge-probability matrix over N = 2^r vertices is the r-fold
Kronecker power of the symmetric 2x2 initiator [[a, b], [b, c]].  Loops are
discarded and the upper triangle is mirrored, so the resulting graph is
simple and undirected.  Under that model the expected numbers of edges,
hairpins (2-stars), tripins (3-stars) and triangles all have closed forms:
every one is a short signed combination of r-th powers of polynomials in
(a, b, c).

This module evaluates those closed forms over arrays in plain double
precision, to rank fit candidates, and at one point exactly in integer
arithmetic, rounded once, to report expectations and objectives.  The
brute-force and fold-identity oracles that check them live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

# base**r stays below double-precision overflow for every base that can
# occur (max is (a+b)^3 + (b+c)^3 <= 16, and 16^60 < 1.8e72 < 1.8e308).
MAX_POWER = 60

FEATURE_NAMES = ("edges", "hairpins", "tripins", "triangles")


def check_int(name: str, value, least: int | None = None,
              most: int | None = None) -> int:
    """``value`` as an int; TypeError naming ``name`` unless it is an int
    or a NumPy integer (not a bool), ValueError if it is below ``least``
    or above ``most``.  Every integer setting of a fit or a config, and
    the sampler's seed, is checked here."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}")
    return int(value)


def check_power(r) -> int:
    """``r`` as an int; TypeError or ValueError unless it is in [0, MAX_POWER]."""
    r = check_int("r", r)
    if not 0 <= r <= MAX_POWER:
        raise ValueError(f"r={r} outside [0, {MAX_POWER}]")
    return r


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
        return asdict(self)


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


def _closed_form_bases(a, b, c):
    """The 14 distinct bases of the four closed forms, in ``_TERMS`` order.

    Works for numpy arrays, ints and Fractions alike.  Shared
    subexpressions are factored so that the degenerate identities (b = 0,
    or a = c = 0) make the cancelling bases bitwise identical, which lets
    the combination step return exact zeros.
    """
    aa = a * a
    cc = c * c
    b2 = b * b
    b3 = b2 * b
    q2 = aa + cc              # sum over diagonal entries squared
    q3 = aa * a + cc * c      # ... and cubed
    s = a + c
    ab = a + b
    bc = b + c
    ab2 = ab * ab
    bc2 = bc * bc
    bq2 = b * q2
    b2s = b2 * s
    twob3 = 2 * b3
    return (
        # edges
        a + 2 * b + c, s,
        # hairpins
        ab2 + bc2, a * ab + c * bc, q2 + 2 * b2, q2,
        # tripins
        ab2 * ab + bc2 * bc, a * ab2 + c * bc2,
        q3 + bq2 + b2s + twob3, q3 + twob3, q3 + b2s, q3 + bq2,
        q3,
        # triangles, which also take bases 10 and 12
        q3 + 3 * b2 * s,
    )


# The signed (coefficient, base index) terms of 2E(edges), 2E(hairpins),
# 6E(tripins) and 6E(triangles), in FEATURE_NAMES order; each index points
# into ``_closed_form_bases``, so bases 10 and 12 are raised once for both
# the tripins and the triangles.  The pair-collapsed tripin coefficients are
# (2, 3, 6): the three two-block partitions of four indices with the tail
# exchangeable collapse as 2x(jjj) + 3x(iijj-type) + 6x(iiij-type).
_TERMS = (
    ((1, 0), (-1, 1)),
    ((1, 2), (-2, 3), (-1, 4), (2, 5)),
    ((1, 6), (-3, 7), (-3, 8), (2, 9), (3, 10), (6, 11), (-6, 12)),
    ((1, 13), (-3, 10), (2, 12)),
)

# Each closed form is this multiple of its feature's expected count, and
# each base is a homogeneous polynomial of this degree in (a, b, c).
_MULTIPLES = (2, 2, 6, 6)
_DEGREES = (1, 2, 3, 3)


def _sums(bases, r) -> list:
    """The four signed sums of ``_TERMS`` over ``bases`` raised to ``r``.

    Each base is raised once, into a list, so bases 10 and 12 serve both
    the tripins and the triangles.  The coefficients of every closed form
    sum to zero, so each sum is rewritten as partial-sum multiples of
    differences of consecutive powers; the tripins' one difference with
    multiple 0 is skipped.  When all bases coincide (the degenerate
    initiators) every difference is an exact floating-point zero, and in
    the nearly-cancelled regime the subtractions happen before any
    magnitude is lost.  Each difference is scaled (unless its multiple is
    1) and summed in place: arrays are updated where they lie,
    while numpy floats and Python ints are rebound, so the same code
    serves the arrays, the float arguments and ``expected_counts``.
    """
    powers = [base ** r for base in bases]
    sums = []
    for terms in _TERMS:
        total = None
        running = 0
        for (coef, j), (_, k) in zip(terms, terms[1:]):
            running += coef
            if not running:  # the tripins' difference of bases 10 and 11
                continue
            diff = powers[j] - powers[k]
            if running != 1:
                diff *= running
            if total is None:
                total = diff
            else:
                total += diff
        sums.append(total)
    return sums


def _values(bases, r) -> list:
    """The four clamped closed forms of ``bases`` at power ``r``: their
    ``_sums``, each divided by its multiple and clamped at zero in place;
    with float bases the values are numpy floats."""
    # one float exponent per value, so every form of r runs numpy's
    # elementwise power loop and none reaches its squaring fast path; the
    # first base, a + 2b + c, has the values' shape
    r = np.full(np.shape(bases[0]), r, dtype=float)
    out = []
    for total, multiple in zip(_sums(bases, r), _MULTIPLES):
        total /= multiple
        out.append(np.maximum(
            total, 0.0, out=total if isinstance(total, np.ndarray) else None))
    return out


def closed_form_values(a, b, c, r) -> list:
    """The four closed-form expectations, in FEATURE_NAMES order.

    In plain double precision, clamped at zero: where the signed terms
    nearly cancel, a value keeps only some of its digits.  (a, b, c) may be
    floats or numpy arrays; the grid passes a block of its live lattice
    points at once.  ``r`` is one power, or an integer array that gives
    each point of 1-d arrays (a, b, c) its own power, as a lockstep
    simplex over several problems does.  The values are ``_values`` of the
    bases: ``_sums``, divided and clamped.  Every power is taken with a
    float exponent array, so a point has the same bits whichever form of
    ``r`` asked for it, and the same in the grid's corner pass, which
    takes ``_values`` of one block's bases at each power.
    """
    return _values(_closed_form_bases(a, b, c), r)


def expected_counts(a: float, b: float, c: float, r: int) -> list:
    """Expected (edges, hairpins, tripins, triangles) at one point.

    Each value is the double nearest the exact expectation.  Over one power
    of two d, the doubles (a, b, c) are integers, so each closed form is
    computed exactly in Python integers and divided once, by its multiple
    times d^(degree * r); int / int division rounds correctly.  Unchecked
    arguments; ``expected_features`` is the checked entry point.
    """
    ratios = [float(x).as_integer_ratio() for x in (a, b, c)]
    shift = max(q.bit_length() for _, q in ratios) - 1  # d = 2**shift
    ints = [n << (shift - q.bit_length() + 1) for n, q in ratios]
    return [total / (multiple << (degree * r * shift))
            for total, degree, multiple
            in zip(_sums(_closed_form_bases(*ints), r), _DEGREES, _MULTIPLES)]


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
    total, s = _closed_form_bases(params.a, params.b, params.c)[:2]
    if s == 0.0:
        return DominanceExponent(math.inf, True)
    alpha = math.log2(total / s)
    return DominanceExponent(alpha, alpha > 0.5)
