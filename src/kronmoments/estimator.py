"""Fitting the initiator (a, b, c) to observed feature counts.

The fit minimizes a sum over features of D(F, E(F)) / N(F, E(F)) where D
is a squared or absolute distance and N one of four normalizations; the
squared/expected pair is the classic moment criterion and the
squared/observed^2 pair is a sum of squared relative errors.  Three
minimizers are provided: a grid search pruned by box bounds, a
multistart bounded simplex search whose starts advance in lockstep, and a
closed-form solver that matches only the leading power term of each
expected count.
"""

from __future__ import annotations

import contextlib
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .features import FeatureCounts
from .moments import (
    FEATURE_NAMES,
    LEAST_VALUES,
    ExpectedFeatures,
    KroneckerParams,
    _MULTIPLES,
    _closed_form_bases,
    check_int,
    check_power,
    closed_form_values,
    expected_counts,
)

DISTANCES = ("sq", "abs")
NORMALIZATIONS = ("f", "f2", "e", "e2")

# A quadratic denominator is not a sensible scale for an absolute distance.
_FORBIDDEN = {("abs", "f2"), ("abs", "e2")}


class FitFailure(RuntimeError):
    """The fit found no point with a finite objective value."""


def unexplained(spec: "ObjectiveSpec", r: int) -> str:
    """Why a fit whose objective is infinite at its best point fails."""
    return (f"no parameters explain these counts: the {spec.code} "
            f"objective is infinite at r = {r}")


class FitProblem(NamedTuple):
    """One fit of a batch: observed counts at power ``r``.

    ``seed`` and ``starts`` pick the direct fit's starting points; the
    other methods ignore them.
    """

    obs: FeatureCounts
    r: int
    seed: int = 0
    starts: int = 50


class LeadingTermInfeasible(ValueError):
    """The hairpin/edge system of the leading-term solver has no real solution.

    Happens exactly when N * sum d_i(d_i - 1) < (sum d_i)^2, i.e. when the
    degree variance is smaller than the degree mean (any regular graph, for
    instance).
    """


@dataclass(frozen=True)
class ObjectiveSpec:
    """Distance / normalization / feature-subset choice for the fit."""

    distance: str = "sq"
    normalization: str = "f2"
    features: tuple = FEATURE_NAMES

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ValueError(f"unknown distance {self.distance!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if (self.distance, self.normalization) in _FORBIDDEN:
            raise ValueError(
                f"distance {self.distance!r} with normalization "
                f"{self.normalization!r} is not a meaningful combination"
            )
        feats = tuple(self.features)
        if not feats:
            raise ValueError("feature set must not be empty")
        for f in feats:
            if f not in FEATURE_NAMES:
                raise ValueError(f"unknown feature {f!r}")
        if len(set(feats)) != len(feats):
            raise ValueError(f"duplicate features in {feats!r}")
        object.__setattr__(self, "features", feats)

    @property
    def code(self) -> str:
        return f"d{self.distance}-{self.normalization}"

    @classmethod
    def from_code(cls, code: str, features=FEATURE_NAMES) -> "ObjectiveSpec":
        """Parse codes like "dsq-f2" or "dabs-e"."""
        try:
            dist_part, norm_part = code.split("-", 1)
        except ValueError:
            raise ValueError(f"bad objective code {code!r}") from None
        if not dist_part.startswith("d"):
            raise ValueError(f"bad objective code {code!r}")
        return cls(distance=dist_part[1:], normalization=norm_part,
                   features=tuple(features))


@dataclass
class FitResult:
    params: KroneckerParams
    objective_value: float
    expected: ExpectedFeatures
    feature_ratios: dict
    method: str
    elapsed: float = 0.0  # its share of its batch's wall time (_timed)
    warnings: list = field(default_factory=list)
    held_out: str | None = None
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "params": self.params.to_dict(),
            "objective": self.objective_value,
            "method": self.method,
            "expected": self.expected.to_dict(),
            "ratios": self.feature_ratios,
            "elapsed": self.elapsed,
            "warnings": list(self.warnings),
        }
        if self.held_out is not None:
            d["held_out"] = self.held_out
        if self.diagnostics is not None:
            d["diagnostics"] = self.diagnostics
        return d


def effective_features(spec: ObjectiveSpec, obs: FeatureCounts):
    """The usable subset of spec.features for these observations.

    A feature observed as zero cannot be scaled by itself; under the
    observed-count normalizations it is dropped (with a warning) rather
    than poisoning the whole objective.
    """
    kept = []
    dropped = []
    for f in spec.features:
        if spec.normalization in ("f", "f2") and obs.get(f) == 0:
            dropped.append(f)
        else:
            kept.append(f)
    notes = [
        f"feature {f!r} observed as 0; dropped under normalization "
        f"{spec.normalization!r}" for f in dropped
    ]
    return tuple(kept), notes


def _scorer(spec: ObjectiveSpec, observations):
    """score(expected, problem): the objective of every problem of a batch.

    ``observations`` holds one problem's counts per entry.  ``expected``
    holds the four expectations in FEATURE_NAMES order, as floats or as
    arrays; ``problem`` is one index into ``observations``, or an index
    array aligned with the expectations.  Each feature's term is
    subtracted, squared or made absolute, divided by its scale and summed
    in place, in the order of ``spec.features``.

    Under ``f`` and ``f2`` the scales (F, or F^2) are tabled once per
    batch, +inf where a feature is observed as 0, which is exactly where
    ``effective_features`` drops it: its term is an exact 0, so every sum
    has the bits of that problem's objective alone.  Under ``e`` and
    ``e2`` the scale is E or E^2.  Where a scale can be 0 (under ``e`` and
    ``e2``, or where some F^2 underflows) an exact match scores 0 and a
    miss +inf, since such parameters cannot explain the data.
    """
    # one row per feature of spec.features, one column per problem
    observed = np.array([[float(obs.get(f)) for obs in observations]
                         for f in spec.features])
    keys = [FEATURE_NAMES.index(f) for f in spec.features]
    norm = spec.normalization
    squared = spec.distance == "sq"
    if norm in ("f", "f2"):
        scales = np.where(observed == 0.0, np.inf,
                          observed * observed if norm == "f2" else observed)
        exact = not (scales > 0.0).all()
    else:
        scales = [None] * len(keys)  # E or E^2, per call
        exact = True
    rows = list(zip(keys, observed, scales))

    def score(expected, problem):
        with (np.errstate(divide="ignore", invalid="ignore") if exact
              else contextlib.nullcontext()):
            total = None
            for k, F, scale in rows:
                E = expected[k]
                term = F[problem] - E
                if squared:
                    term *= term
                else:
                    term = np.abs(term, out=term if isinstance(
                        term, np.ndarray) else None)
                N = ((E if norm == "e" else E * E) if scale is None
                     else scale[problem])
                if exact:
                    term = np.where(term == 0.0, 0.0, np.where(
                        N == 0.0, np.inf, term / N))
                else:
                    term /= N
                if total is None:
                    total = term
                else:
                    total += term
        return total

    return score


def evaluate_objective(
    params: KroneckerParams, spec: ObjectiveSpec, obs: FeatureCounts
) -> float:
    """Sum over the feature subset of D(F, E(F)) / N(F, E(F)).

    Zero-observed features under observed-count normalizations are dropped
    (a warning is emitted); a zero expectation against a nonzero
    observation under an expectation normalization contributes +inf, since
    such parameters cannot explain the data.
    """
    for note in effective_features(spec, obs)[1]:
        warnings.warn(note, stacklevel=2)
    counts = expected_counts(params.a, params.b, params.c, params.r)
    return float(_scorer(spec, [obs])(counts, 0))


def feature_ratios(exp: ExpectedFeatures, obs: FeatureCounts) -> dict:
    """E(F)/F for every feature with a nonzero observation (else None)."""
    out = {}
    for f in FEATURE_NAMES:
        F = obs.get(f)
        out[f] = exp.get(f) / F if F else None
    return out


def _admitted(problems, spec: ObjectiveSpec, *settings):
    """``(out, fits)``: ``out`` holds the TypeError or ValueError that
    rejected each problem, else None, and ``fits`` holds ``(index,
    problem, features matched)`` for the others, with the power and each
    integer field named in ``settings`` checked and made ints."""
    out = [None] * len(problems)
    fits = []
    for i, p in enumerate(problems):
        try:
            p = p._replace(r=check_power(p.r), **{
                name: check_int(name, getattr(p, name), LEAST_VALUES[name])
                for name in settings})
            # three free parameters need at least three moment equations
            if len(spec.features) < 3:
                raise ValueError(
                    f"fitting three parameters needs >= 3 features, "
                    f"got {spec.features!r} (smaller subsets are fine for "
                    f"evaluation only)")
            feats, _ = effective_features(spec, p.obs)
            if not feats:
                raise ValueError(
                    f"nothing to fit: every feature in {spec.features!r} is "
                    f"observed as 0 and dropped under normalization "
                    f"{spec.normalization!r}")
            fits.append((i, p, feats))
        except (TypeError, ValueError) as exc:
            out[i] = exc
    return out, fits


def _finish(params: KroneckerParams, spec, obs, method: str,
            diagnostics=None, fitted=None):
    """The result at ``params``, or a FitFailure where its objective is
    not finite; ``fitted`` names the features the fit matched, and fewer
    than three of them earn a warning."""
    counts = expected_counts(params.a, params.b, params.c, params.r)
    obj = float(_scorer(spec, [obs])(counts, 0))
    if not math.isfinite(obj):
        return FitFailure(unexplained(spec, params.r))
    notes = effective_features(spec, obs)[1]
    if fitted is not None and len(fitted) < 3:
        notes.append(
            f"only {len(fitted)} usable feature"
            f"{'' if len(fitted) == 1 else 's'} for three parameters: the "
            "fit is underdetermined"
        )
    exp = ExpectedFeatures(*counts)
    return FitResult(
        params=params,
        objective_value=obj,
        expected=exp,
        feature_ratios=feature_ratios(exp, obs),
        method=method,
        warnings=notes,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


# Lattice points the grid ranks per closed-form evaluation, and b values
# the leading-term sweep evaluates at once.  At 2k points each of the
# evaluator's float temporaries is 16 KiB, and a block's bases and powers
# stay under 1 MB.
_GRID_BLOCK_POINTS = 2048

# Lattice points per side of a grid cell, the box one pair of corner
# evaluations bounds (the last cell of an axis may be shorter).  4-point
# cells rank about as fast and 8-point cells 3x slower.
_GRID_CELL = 5

# The corner expectations are widened by this relative margin before they
# bound their cell: the margin covers the rounding of the double-precision
# evaluator, whose values are monotone only up to it.
_CORNER_MARGIN = 1e-4

# A cell is ranked while its bound is at most the threshold times
# (1 + _THRESHOLD_SLACK), which absorbs the last few ulps of the comparison.
_THRESHOLD_SLACK = 1e-12


def _in_blocks(parts, size: int):
    """The index arrays of ``parts``, concatenated in order and cut into
    consecutive blocks of at most ``size``."""
    held = np.empty(0, dtype=np.intp)
    for part in parts:
        held = np.concatenate((held, part)) if held.size else part
        while held.size >= size:
            yield held[:size]
            held = held[size:]
    if held.size:
        yield held


def _fit_grid_batch(problems, spec: ObjectiveSpec, grid_points: int) -> list:
    """The first minimum of an equally spaced grid on {[0,1]^3 : a >= c},
    for every problem at once, by branch and bound over cells.

    Returns one entry per problem: its FitResult, the TypeError or
    ValueError that rejected it, or a FitFailure where the winner's
    objective is infinite; a bad ``grid_points`` is every problem's error,
    found before any problem is checked.  The
    lattice is split into cells of ``_GRID_CELL`` points per axis,
    keeping those that hold a point with a >= c.  Every expected
    count is a polynomial with nonnegative coefficients in (a, b, c), so
    over a cell it lies between its values at the cell's low and high
    corners, and every objective term falls as E nears F and rises beyond
    it.  So the batch's scorer at E = clip(F, E_lo, E_hi), with the corner
    values widened by ``_CORNER_MARGIN``, bounds a cell from below.  Each
    problem's threshold is its best corner objective (every corner is a
    lattice point with a >= c).  Each distinct power in turn, in order of
    first appearance, bounds every cell from its corners on
    ``closed_form_values``, and then ranks only the points of cells whose
    bound is within the threshold of some problem at that power, a-row of
    cells by a-row in lexicographic order, in blocks of at most
    ``_GRID_BLOCK_POINTS``, on the evaluator and scorer a whole-lattice
    sweep would use.  A pruned point scores above the
    threshold, so each problem gets the first minimum of the whole
    lattice, the argmin and objective it gets alone.
    """
    try:
        n = check_int("grid_points", grid_points, LEAST_VALUES["grid_points"])
    except (TypeError, ValueError) as exc:
        return [exc] * len(problems)
    out, fits = _admitted(problems, spec)
    if not fits:
        return out

    score = _scorer(spec, [p.obs for _, p, _ in fits])
    observed = [[float(p.obs.get(f)) for f in FEATURE_NAMES]
                for _, p, _ in fits]
    axis = np.linspace(0.0, 1.0, n)
    k = -(-n // _GRID_CELL)  # cells per axis
    low = np.arange(k) * _GRID_CELL
    high = np.minimum(low + _GRID_CELL - 1, n - 1)
    # an a-row of cells holds (b, c) cells with c's lowest index at most
    # a's highest, in lexicographic order; cells are numbered a-row by a-row
    first_cell = k * np.arange(k + 1) * np.arange(1, k + 2) // 2

    def row_cells(i):
        return ((i * k + np.arange(k)[:, None]) * k + np.arange(i + 1)).ravel()

    def row_points(live, i):
        """The lattice indices of the points of row i's live cells, in
        lexicographic order."""
        cells = live[first_cell[i]:first_cell[i + 1]].reshape(k, i + 1)
        b = np.flatnonzero(cells.any(axis=1)[np.arange(n) // _GRID_CELL])
        a = np.arange(low[i], high[i] + 1)
        c = np.arange(high[i] + 1)
        keep = (cells[np.ix_(b // _GRID_CELL, c // _GRID_CELL)]
                & (c <= a[:, None, None]))
        ia, ib, ic = np.nonzero(keep)
        return (a[ia] * n + b[ib]) * n + ic

    winners = [[] for _ in fits]  # (objective, lattice index) per block
    for r in dict.fromkeys(p.r for _, p, _ in fits):
        ranked = [j for j, (_, p, _) in enumerate(fits) if p.r == r]
        # the corners, all lattice points with a >= c: each problem's
        # threshold is its best corner, and each cell's bound is kept, one
        # float per cell and problem at this power
        threshold = dict.fromkeys(ranked, np.inf)
        bounds = {j: [] for j in ranked}
        for cells in _in_blocks(map(row_cells, range(k)),
                                _GRID_BLOCK_POINTS // 2):
            values = closed_form_values(
                *(axis[np.concatenate((low[idx], high[idx]))]
                  for idx in np.unravel_index(cells, (k, k, k))), r)
            lo = [v[:cells.size] * (1.0 - _CORNER_MARGIN) for v in values]
            hi = [v[cells.size:] * (1.0 + _CORNER_MARGIN) for v in values]
            for j in ranked:
                threshold[j] = min(threshold[j], float(score(values, j).min()))
                bounds[j].append(score(
                    [np.clip(F, l, h) for F, l, h in zip(observed[j], lo, hi)],
                    j))
        live = np.zeros(first_cell[-1], dtype=bool)
        for j in ranked:
            live |= (np.concatenate(bounds[j])
                     <= threshold[j] * (1.0 + _THRESHOLD_SLACK))
        for points in _in_blocks((row_points(live, i) for i in range(k)),
                                 _GRID_BLOCK_POINTS):
            values = closed_form_values(
                *(axis[x] for x in np.unravel_index(points, (n, n, n))), r)
            for j in ranked:
                total = score(values, j)
                idx = int(np.argmin(total))
                winners[j].append((total[idx], points[idx]))
    for (i, p, feats), won in zip(fits, winners):
        # argmin takes the first minimum, so the earliest block wins a tie
        point = won[int(np.argmin([w[0] for w in won]))][1]
        a, b, c = (float(axis[x])
                   for x in np.unravel_index(point, (n, n, n)))
        params = KroneckerParams(a, b, c, p.r)
        out[i] = _finish(params, spec, p.obs, "grid", fitted=feats)
    return out


def fit_grid(
    obs: FeatureCounts,
    r: int,
    spec: ObjectiveSpec | None = None,
    grid_points: int = 100,
) -> FitResult:
    """The minimum of an equally spaced grid on {[0,1]^3 : a >= c}.

    Ties are broken toward the lexicographically smallest (a, b, c).
    grid_points counts points per axis inclusive of both endpoints; 101
    gives the exact hundredths lattice.  The lattice is ranked in double
    precision by ``closed_form_values``, the closed forms the direct
    fit's simplices use.  The reported objective of the winning point is
    scored on ``expected_counts``, correctly rounded, and FitFailure is
    raised where it is infinite.

    Only the lattice cells whose corners admit an objective no worse than
    the best corner's are ranked (branch and bound; see
    ``_fit_grid_batch``), in lexicographic order, in blocks of at most
    2,048 points, and the lattice is never built whole.  The winner is
    still the first minimum over the whole lattice.  Memory grows with an
    a-row of cells (5 * grid_points^2 flags) and with one bound per cell
    (about grid_points^3 / 250), held for one power at a time, not with
    the lattice, even when nothing is pruned.  This is a batch of one
    (``_fit_grid_batch``).
    """
    return _one("grid", FitProblem(obs, r), spec, grid_points)


# ---------------------------------------------------------------------------
# multistart derivative-free search
# ---------------------------------------------------------------------------

# The constants of scipy.optimize's bounded Nelder-Mead
# (_minimize_neldermead, non-adaptive), which _nelder_mead_lockstep
# follows step for step.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
_XATOL = 1e-8
_MAXITER = 2000


# Each trial point is _TRIAL_X * centroid + _TRIAL_W * worst vertex:
# reflection, expansion, outside and inside contraction, in order.  scipy
# subtracts the worst vertex's multiple where its weight is negative, and
# a - b * c is a + (-b) * c exactly in IEEE arithmetic.
_TRIAL_X = np.array([1 + _RHO, 1 + _RHO * _CHI, 1 + _PSI * _RHO,
                     1 - _PSI], dtype=float)[:, None, None]
_TRIAL_W = np.array([-_RHO, -_RHO * _CHI, -_PSI * _RHO,
                     _PSI], dtype=float)[:, None, None]


def _nelder_mead_lockstep(objective, x0: np.ndarray) -> np.ndarray:
    """Bounded Nelder-Mead on [0, 1]^n from every row of ``x0`` at once.

    ``objective(points, rows)`` maps an (m, n) array of points to their m
    values; ``rows[i]`` is the row of ``x0`` whose simplex point i belongs
    to, so one call can rank the starts of several problems, each against
    its own data.  All simplices live in one (starts, n + 1, n) array, and
    each iteration evaluates every live start's trial points in at most
    two calls.  The reflection, expansion and both contraction points
    depend only on the centroid and the worst vertex, so all four are
    formed by one broadcast (``_TRIAL_X``, ``_TRIAL_W``) and ranked in one
    call of 4 x live-starts points; each start's second trial point is
    then gathered by index, and its new worst vertex written once, for
    every start (a shrinking one is rewritten whole, from a copy taken
    before).  The shrinks take the second call.  Each start takes exactly
    the steps of
    scipy.optimize.minimize(method="Nelder-Mead", bounds=[(0, 1)] * n,
    options=dict(xatol=1e-8, fatol=inf, maxiter=2000)) with a stable sort,
    whatever else shares the array.  A start retires when it converges, or
    at once when no vertex of its first simplex has a finite value (scipy
    would shrink such a simplex until maxiter).  Returns each start's best
    vertex, shape (starts, n).
    """
    k, n = x0.shape
    dims = np.arange(n)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, dims + 1, dims] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    # reflect vertices pushed past the upper bound back inside, then clip
    sim = np.clip(np.where(sim > 1.0, 2.0 - sim, sim), 0.0, 1.0)
    fsim = objective(sim.reshape(-1, n),
                     np.repeat(np.arange(k), n + 1)).reshape(k, n + 1)
    # each live start's first entry in the flattened simplices and values
    offsets = np.arange(0, k * (n + 1), n + 1)[:, None]

    def sort(sim, fsim):
        ind = np.argsort(fsim, axis=1, kind="stable")
        ind += offsets[:len(ind)]
        return sim.reshape(-1, n)[ind], fsim.ravel()[ind]

    sim, fsim = sort(sim, fsim)
    best = sim[:, 0].copy()
    ids = np.flatnonzero(np.isfinite(fsim).any(axis=1))
    sim, fsim = sim[ids], fsim[ids]
    iterations = 1
    while ids.size and iterations < _MAXITER:
        live = ids.size
        # scipy's fatol = inf always holds: best values are finite, none NaN
        done = (np.abs(sim[:, 1:] - sim[:, :1]).reshape(live, -1).max(axis=1)
                <= _XATOL)
        if done.any():
            best[ids[done]] = sim[done, 0]
            ids, sim, fsim = ids[~done], sim[~done], fsim[~done]
            live = ids.size
            if not live:
                break

        xbar = np.add.reduce(sim[:, :-1], axis=1)
        xbar /= n
        trials = _TRIAL_X * xbar
        trials += _TRIAL_W * sim[:, -1]
        np.clip(trials, 0.0, 1.0, out=trials)
        ftrials = objective(trials.reshape(-1, n),
                            np.concatenate((ids,) * 4)).reshape(4, -1)
        fxr = ftrials[0]
        expand = fxr < fsim[:, 0]
        contract = ~expand & ~(fxr < fsim[:, -2])
        outside = contract & (fxr < fsim[:, -1])
        inside = contract & ~outside

        # the second trial point of each start: expansion, outside or
        # inside contraction
        rows = np.arange(live)
        second = np.where(expand, 1, np.where(outside, 2, 3))
        f2 = ftrials[second, rows]
        take2 = ((expand & (f2 < fxr)) | (outside & (f2 <= fxr))
                 | (inside & (f2 < fsim[:, -1])))
        shrink = contract & ~take2
        shrunk = sim[shrink]  # before the worst vertex is overwritten
        second *= take2  # the reflection where the second is not taken
        sim[:, -1] = trials[second, rows]
        fsim[:, -1] = ftrials[second, rows]
        if shrunk.size:
            shrunk[:, 1:] = np.clip(
                shrunk[:, :1] + _SIGMA * (shrunk[:, 1:] - shrunk[:, :1]),
                0.0, 1.0)
            sim[shrink] = shrunk
            fsim[shrink, 1:] = objective(
                shrunk[:, 1:].reshape(-1, n), np.repeat(ids[shrink], n)
            ).reshape(-1, n)
        iterations += 1
        sim, fsim = sort(sim, fsim)
    best[ids] = sim[:, 0]
    return best

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _start_uniforms(seed: int, count: int) -> list:
    """NumPy's ``default_rng(seed).random(count)``, bit for bit, as a list
    of floats, without importing NumPy's random subpackage.

    NumPy's SeedSequence hashes ``seed``, split into 32-bit words (least
    significant first), into a pool of four words and draws PCG64's 128-bit
    state and increment from it; PCG64 is O'Neill's (2014) XSL-RR 128/64
    generator, and each draw is the top 53 bits of one output times 2**-53.
    Importing that subpackage takes about 13 ms and maps about 6 MB
    (numpy 2.4 on a 2-vCPU VM).
    NumPy keeps this bit stream fixed across releases (NEP 19), which it
    does not promise for ``Generator.random``.
    """
    entropy = [seed >> k & _M32
               for k in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        v = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return v ^ v >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    h = 0x8B51F9DD
    words = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        words.append(v ^ v >> 16)
    s0, s1, s2, s3 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    inc = (s2 << 64 | s3) << 1 | 1
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _M128
    out = []
    for _ in range(count):
        state = (state * _PCG64_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        out.append((x >> 11) * 2.0 ** -53)
    return out


def _fit_direct_batch(problems, spec: ObjectiveSpec,
                      grid_points=None) -> list:
    """Best of each problem's ``starts`` bounded Nelder-Mead runs, with the
    starts of every problem in one lockstep.

    Returns one entry per problem: its FitResult, or the TypeError,
    ValueError or FitFailure that problem gave; ``seed`` and ``starts``
    must be integers of at least their ``LEAST_VALUES``.  A problem's
    starts are the rows of NumPy's ``default_rng(seed).random((starts,
    3))``, drawn bit for bit by ``_start_uniforms``.  The lockstep ranks each point by
    ``closed_form_values`` at its problem's power, one call for the points
    of every problem whatever their powers, and the batch's scorer
    against its problem's counts.  Each problem's end points are then
    scored in one scorer call on ``expected_counts``, and one lexsort
    picks the smallest objective, ties going to the smallest (a, b, c); a
    non-finite end is skipped, and a problem whose ends are all non-finite
    fails alone while the others go on.
    """
    out, fits = _admitted(problems, spec, "seed", "starts")
    if not fits:
        return out

    score = _scorer(spec, [p.obs for _, p, _ in fits])
    powers = np.array([p.r for _, p, _ in fits])
    owner = np.repeat(np.arange(len(fits)), [p.starts for _, p, _ in fits])

    def objective(points, rows):
        problem = owner[rows]
        a, b, c = points.T.copy()  # contiguous coordinates
        return score(closed_form_values(a, b, c, powers[problem]), problem)

    # each problem's rows of random((starts, 3)), in C order
    x0 = np.array([u for _, p, _ in fits
                   for u in _start_uniforms(p.seed, 3 * p.starts)]
                  ).reshape(-1, 3)
    swap = x0[:, 0] < x0[:, 2]
    x0[swap] = x0[swap, ::-1]  # (a, b, c) -> (c, b, a)
    ends = _nelder_mead_lockstep(objective, x0)
    swap = ends[:, 0] < ends[:, 2]
    ends[swap] = ends[swap, ::-1]

    first = 0
    for j, (i, p, feats) in enumerate(fits):
        mine = ends[first:first + p.starts]
        first += p.starts
        values = score(np.array([expected_counts(a, b, c, p.r)
                                 for a, b, c in mine.tolist()]).T, j)
        finite = np.flatnonzero(np.isfinite(values))
        if not finite.size:
            out[i] = FitFailure(
                f"all {p.starts} starts produced a non-finite objective")
            continue
        a, b, c = mine[finite].T
        best = finite[np.lexsort((c, b, a, values[finite]))[0]]
        params = KroneckerParams(*mine[best].tolist(), p.r)
        out[i] = _finish(params, spec, p.obs, "direct", fitted=feats)
    return out


def fit_direct(
    obs: FeatureCounts,
    r: int,
    spec: ObjectiveSpec | None = None,
    starts: int = 50,
    seed: int = 0,
) -> FitResult:
    """Best of ``starts`` bounded Nelder-Mead runs from random points.

    The starts are the rows of NumPy's
    ``default_rng(seed).random((starts, 3))``, drawn bit for bit by the
    package's own copy of NumPy's seeding and PCG64 stream, so no fit
    imports NumPy's random subpackage; ``seed`` and ``starts`` must be
    integers.

    The objective can have kinks (absolute distance) and flat boundary
    regions, so a derivative-free simplex with box projection is used.
    The starts advance in lockstep (``_nelder_mead_lockstep``): their
    trial points are ranked together by ``closed_form_values``, in double
    precision, the closed forms the grid uses.  Each run stops when its
    simplex diameter falls below 1e-8 or after 2000 iterations.  Each end
    point is then scored on ``expected_counts``, correctly rounded from
    exact integer arithmetic; the best finite objective wins, ties going
    to the smallest (a, b, c), and FitFailure is raised when no end is
    finite.  Every objective value here, as in the grid and
    ``evaluate_objective``, comes from one loop (``_scorer``).
    Deterministic given (seed, starts).  This is a batch of one
    (``_fit_direct_batch``).
    """
    return _one("direct", FitProblem(obs, r, seed, starts), spec)


# ---------------------------------------------------------------------------
# leading-term matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeadingTransforms:
    """Root-transformed counts and the implied row sums of the initiator.

    e = (2E)^(1/r), h = (2H)^(1/r), delta = (6 triangles)^(1/r),
    t = (6 tripins)^(1/r); x_hat estimates a+b and y_hat estimates b+c.
    When the system is solvable, h <= e^2 <= 2h and x_hat >= y_hat.
    """

    e: float
    h: float
    delta: float
    t: float
    x_hat: float
    y_hat: float

    def to_dict(self) -> dict:
        return asdict(self)


def compute_leading_transforms(obs: FeatureCounts, r: int) -> LeadingTransforms:
    """Invert the leading edge/hairpin terms for a+b and b+c.

    Raises LeadingTermInfeasible when 4E^2 lies outside [2H, 2^(r+1) H],
    i.e. when the quadratic for (a+b, b+c) has no real solution in the
    admissible branch.
    """
    if r < 1:
        raise ValueError("leading-term matching needs r >= 1")
    E, H = obs.edges, obs.hairpins
    if E <= 0 or H <= 0:
        raise ValueError(
            "leading-term matching needs positive edge and hairpin counts"
        )
    # exact feasibility check: h <= e^2 <= 2h in count form
    if not (2 * H <= 4 * E * E):
        raise LeadingTermInfeasible(
            f"4E^2 = {4 * E * E} < 2H = {2 * H}: no real-valued solution"
        )
    if not (4 * E * E <= (2 ** (r + 1)) * H):
        raise LeadingTermInfeasible(
            f"4E^2 = {4 * E * E} exceeds 2^(r+1) H = {(2 ** (r + 1)) * H}: "
            "degree variance below degree mean, no real-valued solution"
        )
    e, h, t, delta = ((m * float(obs.get(f))) ** (1.0 / r)
                      for f, m in zip(FEATURE_NAMES, _MULTIPLES))
    root = math.sqrt(max(2.0 * h - e * e, 0.0))
    return LeadingTransforms(
        e=e, h=h, delta=delta, t=t,
        x_hat=(e + root) / 2.0, y_hat=(e - root) / 2.0,
    )


# The leading-term fit sweeps b over [0, 1] in steps of 1e-4.
_B_STEPS = 10_000


def _leading(problem: FitProblem, spec: ObjectiveSpec):
    """The leading-term fit of one problem (see ``fit_leading``), or its
    FitFailure."""
    obs, r = problem.obs, check_power(problem.r)
    transforms = compute_leading_transforms(obs, r)
    if obs.triangles <= 0:
        raise ValueError(
            "leading-term matching needs a positive triangle count to "
            "pick b"
        )

    b_grid = np.linspace(0.0, 1.0, _B_STEPS + 1)
    a_grid = np.clip(transforms.x_hat - b_grid, 0.0, 1.0)
    c_grid = np.clip(transforms.y_hat - b_grid, 0.0, 1.0)
    # base 13 is the triangle form's leading base, a^3 + c^3 + 3 b^2 (a + c),
    # evaluated a block of b values at a time
    mismatch = np.empty_like(b_grid)
    for start in range(0, b_grid.size, _GRID_BLOCK_POINTS):
        block = slice(start, start + _GRID_BLOCK_POINTS)
        mismatch[block] = _closed_form_bases(
            a_grid[block], b_grid[block], c_grid[block])[13]
    mismatch -= transforms.delta
    np.abs(mismatch, out=mismatch)
    best_val = mismatch.min()
    ties = np.nonzero(mismatch == best_val)[0]
    key = min((a_grid[i], b_grid[i], c_grid[i]) for i in ties)
    params = KroneckerParams(float(key[0]), float(key[1]), float(key[2]), r)
    return _finish(params, spec, obs, "leading",
                   diagnostics={"transforms": transforms.to_dict(),
                                "delta_mismatch": float(best_val)})


def _fit_leading_batch(problems, spec: ObjectiveSpec, grid_points) -> list:
    """``_leading`` on each problem, or the TypeError or ValueError it
    raised or the FitFailure it gave."""
    out = []
    for p in problems:
        try:
            out.append(_leading(p, spec))
        except (TypeError, ValueError) as exc:
            out.append(exc)
    return out


def fit_leading(
    obs: FeatureCounts,
    r: int,
    spec: ObjectiveSpec | None = None,
) -> FitResult:
    """Closed-form leading-term estimate plus a 1-d sweep for b.

    a(b) = x_hat - b and c(b) = y_hat - b (clamped to [0, 1]) satisfy the
    leading edge and hairpin equations; b is then chosen on a uniform grid
    of step 1e-4 to minimize |a^3 + c^3 + 3 b^2 (a + c) - delta|, the
    leading triangle mismatch, base 13 of ``_closed_form_bases``, which
    is evaluated on blocks of ``_GRID_BLOCK_POINTS`` b values, as the grid
    ranks its lattice.  ``spec`` selects only the reported objective
    (default squared relative errors over all four features), and
    FitFailure is raised where that is infinite.  This is a
    batch of one (``_fit_leading_batch``).
    """
    return _one("leading", FitProblem(obs, r), spec)


# ---------------------------------------------------------------------------
# combination protocols
# ---------------------------------------------------------------------------


def _fit_best_batch(problems, spec: ObjectiveSpec, grid_points: int) -> list:
    """``fit_best`` on every problem, each method run as one batch.

    Returns one entry per problem: its FitResult, or the error of a
    method that could not be skipped.  A bad ``grid_points`` is every
    problem's error, a bad seed's too, found before any batch runs.
    """
    try:
        check_int("grid_points", grid_points, LEAST_VALUES["grid_points"])
    except (TypeError, ValueError) as exc:
        return [exc] * len(problems)
    by_method = {method: FIT_METHODS[method](problems, spec, grid_points)
                 for method in ("direct", "grid", "leading")}
    held_out = None
    if len(spec.features) == 3:
        held_out = next(f for f in FEATURE_NAMES if f not in spec.features)
    out = []
    for i in range(len(problems)):
        candidates = []
        diagnostics = {}
        notes = []
        for method, skippable in (("direct", FitFailure),
                                  ("grid", FitFailure),
                                  ("leading", (FitFailure, ValueError))):
            res = by_method[method][i]
            if isinstance(res, skippable):
                diagnostics[method] = {"error": str(res)}
                notes.append(f"{method} fit skipped: {res}")
            elif isinstance(res, Exception):
                out.append(res)
                break
            else:
                p = res.params
                diagnostics[method] = {
                    "params": p.to_dict(),
                    "objective": res.objective_value,
                    "elapsed": res.elapsed,
                }
                candidates.append((res.objective_value, (p.a, p.b, p.c), res))
        else:
            if not candidates:
                out.append(FitFailure(unexplained(spec, problems[i].r)))
                continue
            winner = min(candidates, key=lambda cand: cand[:2])[2]
            diagnostics["winner"] = winner.method
            out.append(replace(
                winner, method="best", warnings=winner.warnings + notes,
                held_out=held_out, diagnostics=diagnostics))
    return out


def fit_best(
    obs: FeatureCounts,
    r: int,
    spec: ObjectiveSpec | None = None,
    seed: int = 0,
    starts: int = 50,
    grid_points: int = 100,
) -> FitResult:
    """Best of the direct, grid and leading fits under one objective.

    A method is skipped (with a note) when it finds no finite objective,
    the leading solver also when it is infeasible, and FitFailure is
    raised when all three are skipped; the returned result carries
    per-method diagnostics and the winner's parameters.
    With exactly three features, ``held_out`` names the fourth, whose E/F
    ratio on the result cross-validates the fit on a moment it never saw.
    This is a batch of one (``_fit_best_batch``).
    """
    return _one("best", FitProblem(obs, r, seed, starts), spec, grid_points)


def _one(method: str, problem: FitProblem, spec, grid_points=None):
    """``method``'s fit of ``problem`` as a batch of one (default spec
    ``ObjectiveSpec()``); raises the error it gave instead."""
    (res,) = FIT_METHODS[method]([problem], spec or ObjectiveSpec(),
                                 grid_points)
    if isinstance(res, Exception):
        raise res
    return res


def _timed(fit):
    """``fit`` with each result's ``elapsed`` set to an even share of the
    batch's wall time; every fit is timed here."""
    def timed(problems, spec: ObjectiveSpec, grid_points) -> list:
        t0 = time.perf_counter()
        out = fit(problems, spec, grid_points)
        wall = time.perf_counter() - t0
        for res in out:
            if isinstance(res, FitResult):
                res.elapsed = wall / len(out)
        return out
    return timed


# The one dispatch point from a method name to its fit, for the public
# fits, the CLI, the experiment harness and fit_best.  Every entry takes
# (problems, spec, grid_points), a list of FitProblem under one objective,
# and returns one entry per problem: its FitResult, or the TypeError,
# ValueError or FitFailure that problem gave, so one bad problem does not
# stop the rest.
# Each ignores what it does not use.
FIT_METHODS = {
    "direct": _timed(_fit_direct_batch),
    "grid": _timed(_fit_grid_batch),
    "leading": _timed(_fit_leading_batch),
    "best": _timed(_fit_best_batch),
}
