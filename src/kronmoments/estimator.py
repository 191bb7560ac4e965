"""Fitting the initiator (a, b, c) to observed feature counts.

The fit minimizes a sum over features of D(F, E(F)) / N(F, E(F)) where D
is a squared or absolute distance and N one of four normalizations; the
squared/expected pair is the classic moment criterion and the
squared/observed^2 pair is a sum of squared relative errors.  Three
minimizers are provided: an exhaustive grid sweep, a multistart bounded
simplex search whose starts advance in lockstep, and a closed-form
solver that matches only the leading power term of each expected count.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .features import FeatureCounts
from .moments import (
    FEATURE_NAMES,
    ExpectedFeatures,
    KroneckerParams,
    check_power,
    closed_form_by_power,
    closed_form_values,
    expected_counts,
)

DISTANCES = ("sq", "abs")
NORMALIZATIONS = ("f", "f2", "e", "e2")

# A quadratic denominator is not a sensible scale for an absolute distance.
_FORBIDDEN = {("abs", "f2"), ("abs", "e2")}


class FitFailure(RuntimeError):
    """No start produced a finite objective value."""


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

    def term(self, F, E):
        """D(F, E) / N(F, E) for one feature, elementwise over arrays.

        An exact match scores 0; a miss against a zero normalization scores
        +inf, since such parameters cannot explain the data.
        """
        d = (F - E) * (F - E) if self.distance == "sq" else abs(F - E)
        norm = self.normalization
        n = (F if norm == "f" else F * F if norm == "f2"
             else E if norm == "e" else E * E)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d == 0.0, 0.0, np.where(n == 0.0, np.inf, d / n))


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


def _scorer(spec: ObjectiveSpec, fits):
    """score(expected, problem): the objective of every problem of a batch.

    ``fits`` holds one (observed counts, features matched) pair per
    problem.  ``expected`` holds the four expectations in FEATURE_NAMES
    order, as floats or as arrays; ``problem`` is one index into ``fits``,
    or an index array aligned with the expectations.  Each feature's term
    is taken once, on the gathered observations, in the order of
    ``spec.features``.  A feature a problem does not match scores an exact
    0.0, so every sum has the bits of that problem's objective alone.
    """
    observed = np.array([[float(obs.get(f)) for f in spec.features]
                         for obs, _ in fits])
    matched = np.array([[f in feats for f in spec.features]
                        for _, feats in fits])
    columns = [(j, FEATURE_NAMES.index(f), matched[:, j].all())
               for j, f in enumerate(spec.features)]

    def score(expected, problem):
        total = 0.0
        for j, k, everywhere in columns:
            term = spec.term(observed[problem, j], expected[k])
            if not everywhere:
                term = np.where(matched[problem, j], term, 0.0)
            total = total + term
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
    feats, notes = effective_features(spec, obs)
    for note in notes:
        warnings.warn(note, stacklevel=2)
    counts = expected_counts(params.a, params.b, params.c, params.r)
    return float(_scorer(spec, [(obs, feats)])(counts, 0))


def feature_ratios(exp: ExpectedFeatures, obs: FeatureCounts) -> dict:
    """E(F)/F for every feature with a nonzero observation (else None)."""
    out = {}
    for f in FEATURE_NAMES:
        F = obs.get(f)
        out[f] = exp.get(f) / F if F else None
    return out


def _require_fittable(spec: ObjectiveSpec, obs: FeatureCounts):
    """The features a fit of ``obs`` uses; ValueError if there are none."""
    # three free parameters need at least three moment equations
    if len(spec.features) < 3:
        raise ValueError(
            f"fitting three parameters needs >= 3 features, "
            f"got {spec.features!r} (smaller subsets are fine for "
            f"evaluation only)"
        )
    feats, _ = effective_features(spec, obs)
    if not feats:
        raise ValueError(
            f"nothing to fit: every feature in {spec.features!r} is "
            f"observed as 0 and dropped under normalization "
            f"{spec.normalization!r}"
        )
    return feats


def _finish(params: KroneckerParams, spec, obs, method: str,
            diagnostics=None, fitted=None) -> FitResult:
    """The result at ``params``; ``fitted`` names the features the fit
    matched, and fewer than three of them earn a warning."""
    counts = expected_counts(params.a, params.b, params.c, params.r)
    feats, notes = effective_features(spec, obs)
    obj = float(_scorer(spec, [(obs, feats)])(counts, 0))
    if fitted is not None and len(fitted) < 3:
        notes.append(
            f"only {len(fitted)} usable feature"
            f"{'' if len(fitted) == 1 else 's'} for three parameters: the "
            "fit is underdetermined"
        )
    if not math.isfinite(obj):
        notes.append(
            "objective is infinite: some expectation is 0 against a "
            "nonzero observation under an expectation normalization"
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


# Lattice points the grid ranks per closed-form evaluation: whole a-slices
# of at most this many points (a slice larger than this is its own block).
# At 8k points each of the evaluator's float temporaries is 64 KiB.
_GRID_BLOCK_POINTS = 8192


def _lattice_blocks(axis: np.ndarray):
    """The {a >= c} lattice over ``axis`` in lexicographic (a, b, c) order.

    Yields (a, b, c) arrays, one per block of consecutive a-slices; the
    slice at axis[i] holds len(axis) * (i + 1) points.
    """
    n = len(axis)
    stop = 0
    while stop < n:
        start, size = stop, 0
        while stop < n and (size == 0
                            or size + n * (stop + 1) <= _GRID_BLOCK_POINTS):
            size += n * (stop + 1)
            stop += 1
        slices = range(start, stop)
        yield (np.repeat(axis[start:stop], [n * (i + 1) for i in slices]),
               np.concatenate([np.repeat(axis, i + 1) for i in slices]),
               np.concatenate([np.tile(axis[:i + 1], n) for i in slices]))


def _fit_grid_batch(problems, spec: ObjectiveSpec, grid_points: int) -> list:
    """Exhaustive sweep of an equally spaced grid on {[0,1]^3 : a >= c},
    for every problem at once.

    Returns one entry per problem: its FitResult, or the ValueError that
    rejected it.  The lattice is walked once.  Each block's bases are
    built once, its closed forms are taken once per distinct power, and
    the batch's scorer ranks the block for each problem at its own power,
    so every problem gets the argmin and objective it gets alone.
    """
    out = [None] * len(problems)
    fits = []  # (index, problem, features matched)
    for i, p in enumerate(problems):
        try:
            p = p._replace(r=check_power(p.r))
            if grid_points < 2:
                raise ValueError("grid_points must be >= 2")
            fits.append((i, p, _require_fittable(spec, p.obs)))
        except ValueError as exc:
            out[i] = exc
    if not fits:
        return out

    score = _scorer(spec, [(p.obs, feats) for _, p, feats in fits])
    winners = [[] for _ in fits]  # (objective, a, b, c) per block
    at_power = {}  # r -> [(j, winners), ...] of the fits j at power r
    for j, ((_, p, _), won) in enumerate(zip(fits, winners)):
        at_power.setdefault(p.r, []).append((j, won))
    axis = np.linspace(0.0, 1.0, grid_points)
    for aa, bb, cc in _lattice_blocks(axis):
        for values, ranked in zip(closed_form_by_power(aa, bb, cc, at_power),
                                  at_power.values()):
            for j, won in ranked:
                total = score(values, j)
                idx = int(np.argmin(total))
                won.append((total[idx], aa[idx], bb[idx], cc[idx]))
    for (i, p, feats), won in zip(fits, winners):
        # argmin takes the first minimum, so the earliest block wins a tie
        _, a, b, c = won[int(np.argmin([w[0] for w in won]))]
        params = KroneckerParams(float(a), float(b), float(c), p.r)
        out[i] = _finish(params, spec, p.obs, "grid", fitted=feats)
    return out


def fit_grid(
    obs: FeatureCounts,
    r: int,
    spec: ObjectiveSpec | None = None,
    points_per_dim: int = 100,
) -> FitResult:
    """Exhaustive sweep of an equally spaced grid on {[0,1]^3 : a >= c}.

    Ties are broken toward the lexicographically smallest (a, b, c).
    points_per_dim counts points inclusive of both endpoints; 101 gives
    the exact hundredths lattice.  The lattice is ranked in double
    precision by ``closed_form_by_power``, the closed forms the direct
    fit's simplices use, without the exact fallback: on the reference fixtures
    re-evaluating the points the cancellation guard flags would cost about
    half a minute per fit and moved no argmin.  The reported objective of
    the winning point comes from the exact per-point path.

    The lattice is walked in lexicographic order, in blocks of whole
    a-slices of at most about 8k points, and never built whole: the
    evaluator's temporaries span one block, so memory grows with the
    largest a-slice (points_per_dim^2 points), not with the lattice.  Each
    block's first minimum competes with the other blocks' in walk order,
    so the winner is the first minimum over the whole lattice.  This is a
    batch of one (``_fit_grid_batch``).
    """
    return _one("grid", FitProblem(obs, r), spec, points_per_dim)


# ---------------------------------------------------------------------------
# multistart derivative-free search
# ---------------------------------------------------------------------------

# The constants of scipy.optimize's bounded Nelder-Mead
# (_minimize_neldermead, non-adaptive), which _nelder_mead_lockstep
# follows step for step.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
_XATOL, _FATOL = 1e-8, np.inf
_MAXITER = 2000


def _nelder_mead_lockstep(objective, x0: np.ndarray) -> np.ndarray:
    """Bounded Nelder-Mead on [0, 1]^n from every row of ``x0`` at once.

    ``objective(points, rows)`` maps an (m, n) array of points to their m
    values; ``rows[i]`` is the row of ``x0`` whose simplex point i belongs
    to, so one call can rank the starts of several problems, each against
    its own data.  All simplices live in one (starts, n + 1, n) array, and
    each iteration evaluates every live start's trial points in at most
    two calls.  The reflection, expansion and both contraction points
    depend only on the centroid and the worst vertex, so all four are
    ranked in one call of 4 x live-starts points, and each start then uses
    those its branch needs; the shrinks take the second call.  Each start
    takes exactly the steps of
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

    def sort(sim, fsim):
        ind = np.argsort(fsim, axis=1, kind="stable")
        return (np.take_along_axis(sim, ind[:, :, None], axis=1),
                np.take_along_axis(fsim, ind, axis=1))

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


def _fit_direct_batch(problems, spec: ObjectiveSpec,
                      grid_points=None) -> list:
    """Best of each problem's ``starts`` bounded Nelder-Mead runs, with the
    starts of every problem in one lockstep.

    Returns one entry per problem: its FitResult, or the ValueError or
    FitFailure that problem gave.  The lockstep ranks each point by
    ``closed_form_values`` at its problem's power, one call for the points
    of every problem whatever their powers, and the batch's scorer
    against its problem's counts.  Each problem's end points are then
    scored in one scorer call on ``expected_counts``, and one lexsort
    picks the smallest objective, ties going to the smallest (a, b, c); a
    non-finite end is skipped, and a problem whose ends are all non-finite
    fails alone while the others go on.
    """
    out = [None] * len(problems)
    fits = []  # (index, problem, features matched)
    for i, p in enumerate(problems):
        try:
            p = p._replace(r=check_power(p.r))
            if p.starts < 1:
                raise ValueError("starts must be >= 1")
            if p.seed < 0:
                raise ValueError("seed must be >= 0")
            fits.append((i, p, _require_fittable(spec, p.obs)))
        except ValueError as exc:
            out[i] = exc
    if not fits:
        return out

    score = _scorer(spec, [(p.obs, feats) for _, p, feats in fits])
    powers = np.array([p.r for _, p, _ in fits])
    owner = np.repeat(np.arange(len(fits)), [p.starts for _, p, _ in fits])

    def objective(points, rows):
        problem = owner[rows]
        a, b, c = points.T
        return score(closed_form_values(a, b, c, powers[problem]), problem)

    x0 = np.concatenate([np.random.default_rng(p.seed).random((p.starts, 3))
                         for _, p, _ in fits])
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

    The objective can have kinks (absolute distance) and flat boundary
    regions, so a derivative-free simplex with box projection is used.
    The starts advance in lockstep (``_nelder_mead_lockstep``): their
    trial points are ranked together by ``closed_form_values``, in double
    precision, the closed forms the grid uses.  Each run stops when its
    simplex diameter falls below 1e-8 or after 2000 iterations.  Each end
    point is then scored on ``expected_counts``, with the exact fallback;
    the best finite objective wins, ties going to the smallest (a, b, c),
    and FitFailure is raised when no end is finite.  Every objective value
    here, as in the grid and ``evaluate_objective``, comes from one scorer
    (``_scorer``).  Deterministic given (seed, starts).  This is a batch
    of one (``_fit_direct_batch``).
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
        return {
            "e": self.e, "h": self.h, "delta": self.delta, "t": self.t,
            "x_hat": self.x_hat, "y_hat": self.y_hat,
        }


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
    e = (2.0 * E) ** (1.0 / r)
    h = (2.0 * H) ** (1.0 / r)
    delta = (6.0 * obs.triangles) ** (1.0 / r) if obs.triangles > 0 else 0.0
    t = (6.0 * obs.tripins) ** (1.0 / r) if obs.tripins > 0 else 0.0
    root = math.sqrt(max(2.0 * h - e * e, 0.0))
    return LeadingTransforms(
        e=e, h=h, delta=delta, t=t,
        x_hat=(e + root) / 2.0, y_hat=(e - root) / 2.0,
    )


# The leading-term fit sweeps b over [0, 1] in steps of 1e-4.
_B_STEPS = 10_000


def _leading(problem: FitProblem, spec: ObjectiveSpec) -> FitResult:
    """The leading-term fit of one problem (see ``fit_leading``)."""
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
    mismatch = np.abs(
        a_grid ** 3 + c_grid ** 3 + 3.0 * b_grid ** 2 * (a_grid + c_grid)
        - transforms.delta
    )
    best_val = mismatch.min()
    ties = np.nonzero(mismatch == best_val)[0]
    key = min((a_grid[i], b_grid[i], c_grid[i]) for i in ties)
    params = KroneckerParams(float(key[0]), float(key[1]), float(key[2]), r)
    return _finish(params, spec, obs, "leading",
                   diagnostics={"transforms": transforms.to_dict(),
                                "delta_mismatch": float(best_val)})


def _fit_leading_batch(problems, spec: ObjectiveSpec, grid_points) -> list:
    """``_leading`` on each problem, or the ValueError it raised."""
    out = []
    for p in problems:
        try:
            out.append(_leading(p, spec))
        except ValueError as exc:
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
    leading triangle mismatch.  ``spec`` only selects the objective
    reported on the result (default squared relative errors over all four
    features).  This is a batch of one (``_fit_leading_batch``).
    """
    return _one("leading", FitProblem(obs, r), spec)


# ---------------------------------------------------------------------------
# combination protocols
# ---------------------------------------------------------------------------


def _fit_best_batch(problems, spec: ObjectiveSpec, grid_points: int) -> list:
    """``fit_best`` on every problem, each method run as one batch.

    Returns one entry per problem: its FitResult, or the error of a
    method that could not be skipped.
    """
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
        for method, skippable in (("direct", FitFailure), ("grid", ()),
                                  ("leading", ValueError)):
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

    The direct fit is skipped (with a note) when no start gives a finite
    objective, the leading solver when it is infeasible; the returned
    result carries per-method diagnostics and the winner's parameters.
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
# and returns one entry per problem: its FitResult, or the ValueError or
# FitFailure that problem gave, so one bad problem does not stop the rest.
# Each ignores what it does not use.
FIT_METHODS = {
    "direct": _timed(_fit_direct_batch),
    "grid": _timed(_fit_grid_batch),
    "leading": _timed(_fit_leading_batch),
    "best": _timed(_fit_best_batch),
}
