import configparser
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from kronmoments.estimator import (
    _CORNER_MARGIN,
    _GRID_BLOCK_POINTS,
    _GRID_CELL,
    FIT_METHODS,
    FitFailure,
    FitProblem,
    LeadingTermInfeasible,
    ObjectiveSpec,
    _fit_direct_batch,
    _fit_grid_batch,
    _nelder_mead_lockstep,
    _scorer,
    _start_uniforms,
    compute_leading_transforms,
    evaluate_objective,
    fit_best,
    fit_direct,
    fit_grid,
    fit_leading,
    unexplained,
)
from kronmoments.features import FeatureCounts
from kronmoments.moments import (
    FEATURE_NAMES,
    KroneckerParams,
    closed_form_values,
    expected_counts,
    expected_features,
)
from oracles import (checked_graph, grid_oracle, leading_oracle,
                     lockstep_oracle, plain_objective, whole_lattice)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_counts(name):
    with open(FIXTURES / f"{name}.counts.json") as fh:
        return FeatureCounts.from_dict(json.load(fh))


GRQC = load_counts("ca-GrQc")
AS2000 = load_counts("as20000102")
HEPTH = load_counts("ca-HepTh")
USROADS = load_counts("usroads")
TABLE1 = load_counts("kron-synthetic-table1")


def expectations_as_counts(params):
    """Model expectations injected as (real-valued) observations."""
    ef = expected_features(params)
    return FeatureCounts(
        vertices=params.num_vertices,
        edges=ef.e_edges,
        hairpins=ef.e_hairpins,
        tripins=ef.e_tripins,
        triangles=ef.e_triangles,
    )


class TestObjectiveSpec:
    def test_forbidden_combinations(self):
        for norm in ("f2", "e2"):
            with pytest.raises(ValueError):
                ObjectiveSpec(distance="abs", normalization=norm)
        # the six allowed pairs construct fine
        for dist, norm in [("sq", "f"), ("sq", "f2"), ("sq", "e"),
                           ("sq", "e2"), ("abs", "f"), ("abs", "e")]:
            ObjectiveSpec(distance=dist, normalization=norm)

    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(distance="cubic")
        with pytest.raises(ValueError):
            ObjectiveSpec(normalization="z")
        with pytest.raises(ValueError):
            ObjectiveSpec(features=())
        with pytest.raises(ValueError):
            ObjectiveSpec(features=("edges", "edges", "hairpins"))
        with pytest.raises(ValueError):
            ObjectiveSpec(features=("wedges",))

    def test_codes(self):
        assert ObjectiveSpec().code == "dsq-f2"
        spec = ObjectiveSpec.from_code("dabs-e")
        assert (spec.distance, spec.normalization) == ("abs", "e")
        with pytest.raises(ValueError):
            ObjectiveSpec.from_code("nonsense")
        with pytest.raises(ValueError):
            ObjectiveSpec.from_code("dabs-f2")


class TestEvaluateObjective:
    def test_zero_at_exact_match_for_every_spec(self):
        params = KroneckerParams(0.9, 0.6, 0.3, 8)
        obs = expectations_as_counts(params)
        for dist in ("sq", "abs"):
            for norm in ("f", "f2", "e", "e2"):
                if (dist, norm) in {("abs", "f2"), ("abs", "e2")}:
                    continue
                spec = ObjectiveSpec(distance=dist, normalization=norm)
                assert evaluate_objective(params, spec, obs) == pytest.approx(
                    0.0, abs=1e-18
                )

    def test_moment_criterion_is_expected_normalized_square(self):
        params = KroneckerParams(0.8, 0.5, 0.4, 10)
        ef = expected_features(params)
        obs = FeatureCounts(1024, 5000, 60000, 300000, 400)
        manual = sum(
            (obs.get(f) - ef.get(f)) ** 2 / ef.get(f) for f in FEATURE_NAMES
        )
        spec = ObjectiveSpec(distance="sq", normalization="e")
        assert evaluate_objective(params, spec, obs) == pytest.approx(manual)

    def test_swap_invariance(self):
        obs = FeatureCounts(256, 700, 4000, 9000, 40)
        rng = np.random.default_rng(2)
        spec = ObjectiveSpec()
        for _ in range(10):
            a, b, c = rng.random(3)
            lhs = evaluate_objective(KroneckerParams(a, b, c, 8), spec, obs)
            rhs = evaluate_objective(KroneckerParams(c, b, a, 8), spec, obs)
            assert lhs == rhs

    def test_nonnegative(self):
        obs = FeatureCounts(256, 700, 4000, 9000, 40)
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = rng.random(3)
            val = evaluate_objective(KroneckerParams(a, b, c, 8), ObjectiveSpec(), obs)
            assert val >= 0.0

    def test_zero_observed_feature_dropped_with_warning(self):
        params = KroneckerParams(0.9, 0.5, 0.2, 6)
        obs = FeatureCounts(64, 90, 300, 500, 0)
        with pytest.warns(UserWarning, match="triangles"):
            val = evaluate_objective(params, ObjectiveSpec(), obs)
        spec3 = ObjectiveSpec(features=("edges", "hairpins", "tripins"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert val == evaluate_objective(params, spec3, obs)

    def test_zero_expectation_gives_infinite_term(self):
        # b = 0 makes every expectation 0; the data has edges
        params = KroneckerParams(0.9, 0.0, 0.2, 6)
        obs = FeatureCounts(64, 90, 300, 500, 7)
        spec = ObjectiveSpec(distance="sq", normalization="e")
        assert math.isinf(evaluate_objective(params, spec, obs))

    def test_table1_values(self):
        # the published minimum of this objective is 9.71e-6; at the
        # 3-decimal published parameters the objective sits higher
        params = KroneckerParams(0.993, 0.476, 0.254, 14)
        val = evaluate_objective(params, ObjectiveSpec(), TABLE1)
        assert val == pytest.approx(1.2175e-5, rel=1e-3)
        best = fit_best(TABLE1, 14, ObjectiveSpec(), seed=0)
        assert best.objective_value == pytest.approx(9.731e-6, rel=1e-3)
        assert best.objective_value == pytest.approx(9.71e-6, rel=5e-3)

    def test_published_kronfit_parameters_are_worse(self):
        kronfit = KroneckerParams(0.999, 0.245, 0.691, 13)
        val = evaluate_objective(kronfit, ObjectiveSpec(), GRQC)
        # consistent with the published per-feature ratios for that row
        # (0.84, 0.20, 0.029, 0.0012), whose squared misses sum to ~2.61;
        # the published 2.935 for that row is the absolute-miss sum
        # sum|1 - ratio| of the same ratios
        assert val == pytest.approx(2.608, rel=2e-3)
        ours = fit_direct(GRQC, 13, ObjectiveSpec(), starts=30, seed=0)
        assert val > 2.5 * ours.objective_value


OBJECTIVE_CODES = ("dsq-f", "dsq-f2", "dsq-e", "dsq-e2", "dabs-f", "dabs-e")


def same_bits(got, want):
    return (np.shape(got) == np.shape(want)
            and np.asarray(got, float).tobytes()
            == np.asarray(want, float).tobytes())


class TestScorer:
    """``_scorer`` against the plain per-feature sum, bit for bit."""

    R = 9
    # a, b, c of the points scored; b = 0 makes every expectation 0
    POINTS = np.array([[0.9, 0.5, 0.2], [0.9, 0.0, 0.2], [0.0, 0.0, 0.0],
                       [1.0, 1.0, 1.0], [0.7, 0.45, 0.35]])
    EXACT = KroneckerParams(0.7, 0.45, 0.35, R)  # the last point

    def problems(self):
        # every feature matched; one, then two, observed as 0; and counts
        # that equal the last point's expectations
        exact = closed_form_values(*self.POINTS[-1:].T, self.R)
        return [GRQC, FeatureCounts(512, 50, 40, 10, 0),
                FeatureCounts(512, 60, 0, 700, 0),
                FeatureCounts(512, *(float(v[0]) for v in exact))]

    def scorer(self, code, problems):
        spec = ObjectiveSpec.from_code(code)
        return spec, _scorer(spec, problems)

    @pytest.mark.parametrize("code", OBJECTIVE_CODES)
    def test_one_problem_index(self, code):
        problems = self.problems()
        spec, score = self.scorer(code, problems)
        rng = np.random.default_rng(4)
        a, b, c = np.concatenate([self.POINTS, rng.random((200, 3))]).T
        values = closed_form_values(a, b, c, self.R)
        for j, obs in enumerate(problems):
            want = plain_objective(spec, obs)(values)
            assert same_bits(score(values, j), want)
        # the exact match scores 0 against its own counts
        assert score(values, 3)[len(self.POINTS) - 1] == 0.0

    @pytest.mark.parametrize("code", OBJECTIVE_CODES)
    def test_index_array_mixing_problems(self, code):
        problems = self.problems()
        spec, score = self.scorer(code, problems)
        rng = np.random.default_rng(5)
        points = np.concatenate([np.repeat(self.POINTS, 4, axis=0),
                                 rng.random((300, 3))])
        problem = rng.integers(0, len(problems), len(points))
        problem[:4 * len(self.POINTS)] = np.tile(np.arange(4),
                                                 len(self.POINTS))
        values = closed_form_values(*points.T, self.R)
        got = score(values, problem)
        for j, obs in enumerate(problems):
            mine = problem == j
            want = plain_objective(spec, obs)([v[mine] for v in values])
            assert same_bits(got[mine], want)

    @pytest.mark.parametrize("code", OBJECTIVE_CODES)
    def test_float_expectations(self, code):
        problems = self.problems()
        spec, score = self.scorer(code, problems)
        for a, b, c in self.POINTS.tolist():
            counts = expected_counts(a, b, c, self.R)
            for j, obs in enumerate(problems):
                got = score(counts, j)
                want = plain_objective(spec, obs)(counts)
                assert np.ndim(got) == 0
                assert same_bits(got, want)
        exact = expectations_as_counts(self.EXACT)
        counts = expected_counts(*self.POINTS[-1].tolist(), self.R)
        assert self.scorer(code, [exact])[1](counts, 0) == 0.0

    @pytest.mark.parametrize("code", OBJECTIVE_CODES)
    def test_underflowing_scale(self, code):
        # 1e-200 squared is 0, so dsq-f2 takes the zero-scale rule here, as
        # the e and e2 codes always do; every code matches the plain sum
        problems = [FeatureCounts(512, 1e-200, 40, 10, 3), GRQC]
        spec, score = self.scorer(code, problems)
        a, b, c = self.POINTS.T
        values = closed_form_values(a, b, c, self.R)
        for j, obs in enumerate(problems):
            assert same_bits(score(values, j),
                             plain_objective(spec, obs)(values))

    @pytest.mark.parametrize("code", ["dsq-e", "dsq-e2", "dabs-e"])
    def test_miss_against_negative_zero(self, code):
        # a miss scores +inf against either zero expectation, a match 0
        problems = self.problems()
        spec, score = self.scorer(code, problems)
        column = np.array([-0.0, 0.0, 1.0])
        values = [column, column, column, column]
        for j, obs in enumerate(problems):
            want = plain_objective(spec, obs)(values)
            assert same_bits(score(values, j), want)
            assert same_bits(score([-0.0] * 4, j), want[0])
        assert np.isposinf(score(values, 0)[:2]).all()


def ranked_blocks(monkeypatch, points_per_dim):
    """The (a, b, c) blocks a one-power grid fit ranks, recorded as it
    ranks them: its first calls, which evaluate the corners of blocks of
    ``_GRID_BLOCK_POINTS // 2`` cells, are skipped."""
    import kronmoments.estimator as estimator

    k = -(-points_per_dim // _GRID_CELL)
    corner_calls = -(-(k * k * (k + 1) // 2) // (_GRID_BLOCK_POINTS // 2))
    calls = []
    blocks = []

    def recorded(a, b, c, r):
        calls.append(r)
        if len(calls) > corner_calls:
            blocks.append((a.copy(), b.copy(), c.copy()))
        return closed_form_values(a, b, c, r)

    monkeypatch.setattr(estimator, "closed_form_values", recorded)
    return blocks


def assert_grid_oracle(res, p, spec, points_per_dim):
    """``res``, the grid's entry for problem ``p``, is what the exhaustive
    sweep gives: a FitFailure where its objective is +inf, else its point
    and objective."""
    params, objective = grid_oracle(p.obs, p.r, spec, points_per_dim)
    if objective == math.inf:
        assert isinstance(res, FitFailure)
        assert str(res) == unexplained(spec, p.r)
    else:
        assert (res.params.a, res.params.b, res.params.c) == params
        assert res.objective_value == objective


class TestFitGrid:
    @pytest.mark.parametrize("points_per_dim", [2, 3, 11, 41, 101])
    def test_blocks_walk_the_whole_lattice(self, points_per_dim,
                                           monkeypatch):
        # every point scores +inf at r = 0 under dsq-e, so no cell is
        # pruned and the grid ranks the whole lattice, in blocks, before
        # it fails
        blocks = ranked_blocks(monkeypatch, points_per_dim)
        obs = FeatureCounts(1, 1, 1, 1, 1)
        spec = ObjectiveSpec.from_code("dsq-e")
        with pytest.raises(FitFailure) as failure:
            fit_grid(obs, 0, spec, grid_points=points_per_dim)
        assert str(failure.value) == unexplained(spec, 0)
        for got, want in zip(map(np.concatenate, zip(*blocks)),
                             whole_lattice(points_per_dim)):
            assert np.array_equal(got, want)
        assert all(len(a) <= _GRID_BLOCK_POINTS for a, _, _ in blocks)

    @pytest.mark.parametrize("code", ["dsq-f2", "dsq-e", "dabs-f"])
    @pytest.mark.parametrize("points_per_dim", [2, 3, 11, 41, 101])
    def test_matches_whole_lattice_sweep(self, points_per_dim, code):
        spec = ObjectiveSpec.from_code(code)
        res = fit_grid(GRQC, 13, spec, grid_points=points_per_dim)
        params, objective = grid_oracle(GRQC, 13, spec, points_per_dim)
        assert (res.params.a, res.params.b, res.params.c) == params
        assert res.objective_value == objective

    def test_unexplainable_counts_fail(self):
        # one triangle on two vertices: every expectation of it is 0, so
        # the dsq-e objective is infinite at every point
        spec = ObjectiveSpec.from_code("dsq-e")
        with pytest.raises(FitFailure) as failure:
            fit_grid(FeatureCounts(2, 1, 0, 0, 1), 1, spec, grid_points=11)
        assert str(failure.value) == (
            "no parameters explain these counts: the dsq-e objective is "
            "infinite at r = 1")

    def test_exact_on_grid_minimum(self):
        params = KroneckerParams(0.5, 0.5, 0.5, 8)
        obs = expectations_as_counts(params)
        res = fit_grid(obs, 8, ObjectiveSpec(), grid_points=11)
        assert (res.params.a, res.params.b, res.params.c) == (0.5, 0.5, 0.5)
        assert res.objective_value == pytest.approx(0.0, abs=1e-18)

    def test_grqc_hundredths_lattice(self):
        res = fit_grid(GRQC, 13, ObjectiveSpec(), grid_points=101)
        assert (res.params.a, res.params.b, res.params.c) == \
            pytest.approx((1.0, 0.47, 0.27), abs=1e-12)
        assert res.objective_value == pytest.approx(0.991, rel=0.01)

    def test_as20000102_hundredths_lattice(self):
        res = fit_grid(AS2000, 13, ObjectiveSpec(), grid_points=101)
        assert (res.params.a, res.params.b, res.params.c) == \
            pytest.approx((1.0, 0.63, 0.0), abs=1e-12)
        assert res.objective_value == pytest.approx(1.543, rel=0.01)

    def test_deterministic(self):
        r1 = fit_grid(GRQC, 13, grid_points=41)
        r2 = fit_grid(GRQC, 13, grid_points=41)
        assert r1.params == r2.params
        assert r1.objective_value == r2.objective_value

    def test_tie_break_lexicographic(self):
        # all-zero observations under expectation normalization: every
        # grid point on the b=0 plane scores 0, so the smallest wins
        obs = FeatureCounts(16, 0, 0, 0, 0)
        spec = ObjectiveSpec(distance="sq", normalization="e")
        res = fit_grid(obs, 4, spec, grid_points=5)
        assert (res.params.a, res.params.b, res.params.c) == (0.0, 0.0, 0.0)

    def test_tie_across_blocks_goes_to_the_first(self, monkeypatch):
        # the b=0 plane again, now with a zero in several ranked blocks
        blocks = ranked_blocks(monkeypatch, 101)
        obs = FeatureCounts(16, 0, 0, 0, 0)
        spec = ObjectiveSpec(distance="sq", normalization="e")
        res = fit_grid(obs, 4, spec, grid_points=101)
        assert sum((b == 0.0).any() for _, b, _ in blocks) > 1
        assert (res.params.a, res.params.b, res.params.c) == (0.0, 0.0, 0.0)
        assert grid_oracle(obs, 4, spec, 101)[0] == (0.0, 0.0, 0.0)

    def test_power_checked_before_the_sweep(self, monkeypatch):
        import kronmoments.estimator as estimator

        def no_sweep(*args):
            raise AssertionError("the lattice was evaluated")

        monkeypatch.setattr(estimator, "closed_form_values", no_sweep)
        for r in (-1, 61):
            with pytest.raises(ValueError, match=rf"r={r} outside \[0, 60\]"):
                fit_grid(GRQC, r)

    def test_needs_three_features(self):
        with pytest.raises(ValueError):
            fit_grid(GRQC, 13, ObjectiveSpec(features=("edges", "hairpins")))


def oracle_cases(code, points_per_dim):
    """(counts, r) problems for the grid under ``code``.

    Seeded random counts, one with a feature observed as 0; counts equal to
    the expectations at a lattice point, where the objective is about 0;
    and lattices of exact ties: at r = 0 every expectation is 0, so every
    point ties (+inf under e and e2), and zero counts tie on the b = 0
    plane under e and e2 (under f and f2 they leave nothing to fit).
    """
    rng = np.random.default_rng(points_per_dim)
    axis = np.linspace(0.0, 1.0, points_per_dim)
    cases = []
    for _ in range(4):
        r = int(rng.integers(2, 22))
        c, b, a = np.sort(rng.random(3)).tolist()
        noisy = [e * math.exp(rng.normal(0.0, 0.5))
                 for e in expected_counts(a, b, c, r)]
        cases.append((FeatureCounts(2 ** r, *noisy), r))
    cases.append((FeatureCounts(128, 50, 40, 10, 0), 7))
    point = KroneckerParams(axis[-2], axis[points_per_dim // 2], axis[1], 9)
    cases.append((expectations_as_counts(point), 9))
    cases.append((FeatureCounts(1, 1, 1, 1, 1), 0))
    if code.endswith(("-e", "-e2")):
        cases.append((FeatureCounts(16, 0, 0, 0, 0), 4))
    return cases


class TestPrunedGrid:
    """The pruned grid against the exhaustive sweep (``grid_oracle``)."""

    @pytest.mark.parametrize("code", OBJECTIVE_CODES)
    @pytest.mark.parametrize("points_per_dim", [11, 21, 23])
    def test_matches_the_whole_lattice_sweep(self, points_per_dim, code):
        # 11 and 21 points end each axis on a cell of one point, 23 on one
        # of three
        spec = ObjectiveSpec.from_code(code)
        problems = [FitProblem(obs, r)
                    for obs, r in oracle_cases(code, points_per_dim)]
        for p, res in zip(problems,
                          _fit_grid_batch(problems, spec, points_per_dim)):
            assert_grid_oracle(res, p, spec, points_per_dim)

    @pytest.mark.parametrize("code", OBJECTIVE_CODES)
    def test_nothing_pruned_still_ranks_in_blocks(self, code, monkeypatch):
        # at r = 0 every point scores +inf under e and e2 (so both fits
        # fail) and ties under f and f2: no cell is pruned
        blocks = ranked_blocks(monkeypatch, 41)
        spec = ObjectiveSpec.from_code(code)
        problems = [FitProblem(FeatureCounts(1, 1, 1, 1, 1), 0),
                    FitProblem(FeatureCounts(2, 1, 3, 0, 2), 0)]
        for p, res in zip(problems, _fit_grid_batch(problems, spec, 41)):
            assert grid_oracle(p.obs, 0, spec, 41)[0] == (0.0, 0.0, 0.0)
            assert_grid_oracle(res, p, spec, 41)
        for got, want in zip(map(np.concatenate, zip(*blocks)),
                             whole_lattice(41)):
            assert np.array_equal(got, want)
        assert len(blocks) > 1
        assert all(len(a) <= _GRID_BLOCK_POINTS for a, _, _ in blocks)

    def test_ranks_a_small_share_of_the_lattice(self, monkeypatch):
        blocks = ranked_blocks(monkeypatch, 101)
        res = fit_grid(GRQC, 13, ObjectiveSpec(), grid_points=101)
        assert (res.params.a, res.params.b, res.params.c) == \
            grid_oracle(GRQC, 13, ObjectiveSpec(), 101)[0]
        ranked = sum(len(a) for a, _, _ in blocks)
        assert 0 < ranked < 0.1 * len(whole_lattice(101)[0])

    @pytest.mark.parametrize("r", [2, 5, 13, 14, 17, 21, 40, 60])
    def test_cells_hold_their_points_expectations(self, r):
        # each expected count is nondecreasing in a, b and c, so a point's
        # lies between its cell's corner values; in double precision only
        # up to the corners' widening, which must cover the rounding
        n = 101
        axis = np.linspace(0.0, 1.0, n)
        cells = -(-n // _GRID_CELL)
        low = np.arange(cells) * _GRID_CELL
        high = np.minimum(low + _GRID_CELL - 1, n - 1)
        corner = {name: closed_form_values(
            *np.meshgrid(axis[ends], axis[ends], axis[ends], indexing="ij"),
            r) for name, ends in (("low", low), ("high", high))}
        index = np.arange(n)
        for row in range(cells):
            a = index[low[row]:high[row] + 1]
            ia, b, c = np.nonzero(np.repeat(index <= a[:, None, None], n,
                                            axis=1))
            a = a[ia]
            cell = (a // _GRID_CELL, b // _GRID_CELL, c // _GRID_CELL)
            values = closed_form_values(axis[a], axis[b], axis[c], r)
            for v, lo, hi in zip(values, corner["low"], corner["high"]):
                assert (v >= lo[cell] * (1.0 - _CORNER_MARGIN)).all()
                assert (v <= hi[cell] * (1.0 + _CORNER_MARGIN)).all()


class TestFitDirect:
    def test_grqc_reproduction(self):
        res = fit_direct(GRQC, 13, ObjectiveSpec(), starts=50, seed=0)
        assert res.objective_value == pytest.approx(0.989, rel=0.01)
        assert res.params.a == pytest.approx(1.0, abs=0.005)
        assert res.params.b == pytest.approx(0.467, abs=0.01)
        assert res.params.c == pytest.approx(0.279, abs=0.01)

    def test_hepth_reproduction(self):
        res = fit_direct(HEPTH, 14, ObjectiveSpec(), starts=50, seed=0)
        assert res.objective_value == pytest.approx(0.989, rel=0.01)
        assert (res.params.b, res.params.c) == pytest.approx(
            (0.401, 0.379), abs=0.01
        )

    def test_usroads_corrected_formula(self):
        # the published row (b = 0.070, objective 0.798) reflects the
        # erroneous tripin expectation; under the correct closed form the
        # optimum sits at b = 0.0644 with objective 0.985 (frozen from a
        # 60-start multistart verified across seeds)
        res = fit_direct(USROADS, 17, ObjectiveSpec(), starts=50, seed=0)
        assert res.params.a == pytest.approx(1.0, abs=1e-6)
        assert res.params.c == pytest.approx(1.0, abs=1e-6)
        assert res.params.b == pytest.approx(0.0644, abs=0.002)
        assert res.objective_value == pytest.approx(0.9848, rel=0.002)

    def test_round_trip_recovery(self):
        truth = KroneckerParams(0.8, 0.4, 0.3, 12)
        ef = expected_features(truth)
        obs = FeatureCounts(
            truth.num_vertices,
            round(ef.e_edges),
            round(ef.e_hairpins),
            round(ef.e_tripins),
            round(ef.e_triangles),
        )
        res = fit_direct(obs, 12, ObjectiveSpec(), starts=50, seed=1)
        assert res.params.a == pytest.approx(0.8, abs=0.02)
        assert res.params.b == pytest.approx(0.4, abs=0.02)
        assert res.params.c == pytest.approx(0.3, abs=0.02)

    def test_deterministic_given_seed(self):
        r1 = fit_direct(GRQC, 13, starts=8, seed=42)
        r2 = fit_direct(GRQC, 13, starts=8, seed=42)
        assert r1.params == r2.params
        assert r1.objective_value == r2.objective_value

    def test_objective_matches_recomputation(self):
        res = fit_direct(GRQC, 13, starts=8, seed=3)
        again = evaluate_objective(res.params, ObjectiveSpec(), GRQC)
        assert res.objective_value == again

    def test_starts_are_numpys_default_rng_bits(self):
        # the package draws NumPy's SeedSequence + PCG64 stream itself, so
        # the starts must match numpy's bit for bit on every numpy release
        # the package supports; the seeds span one to five 32-bit words
        for seed in [*range(256), 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1,
                     2 ** 64 + 3, 2 ** 100 + 12345, 2 ** 130 + 7]:
            for n in (1, 3, 150, 301):
                want = np.random.default_rng(seed).random(n)
                got = np.array(_start_uniforms(seed, n))
                assert got.tobytes() == want.tobytes(), (seed, n)


class TestDirectEndPoints:
    """How the direct fit picks among its lockstep's end points."""

    # at r = 1 the one nonzero expectation is E(edges) = b, so ends with
    # equal b tie exactly, and b = 0 leaves the observed edge at an
    # infinite dsq-e objective
    OBS, SPEC = FeatureCounts(2, 1, 0, 0, 0), ObjectiveSpec.from_code("dsq-e")

    def fit(self, monkeypatch, ends):
        import kronmoments.estimator as estimator

        monkeypatch.setattr(estimator, "_nelder_mead_lockstep",
                            lambda objective, x0: np.array(ends))
        return fit_direct(self.OBS, 1, self.SPEC, starts=len(ends))

    def test_smallest_tied_end_wins_and_non_finite_is_skipped(
            self, monkeypatch):
        res = self.fit(monkeypatch, [
            (0.125, 0.0, 0.0),  # infinite
            (0.75, 0.5, 0.25),
            (0.125, 0.25, 0.0),  # finite, but a larger objective
            (0.25, 0.5, 0.625),  # a < c: ranked as (0.625, 0.5, 0.25)
            (0.5, 0.5, 0.125),
        ])
        assert (res.params.a, res.params.b, res.params.c) == \
            (0.5, 0.5, 0.125)
        assert res.objective_value == 0.5

    def test_all_non_finite_ends_fail(self, monkeypatch):
        with pytest.raises(FitFailure, match="all 2 starts"):
            self.fit(monkeypatch, [(0.5, 0.0, 0.25), (0.125, 0.0, 0.0)])


def direct_lockstep(monkeypatch, spec, problems):
    """The objective and the starts _fit_direct_batch hands its lockstep."""
    import kronmoments.estimator as estimator

    seen = []
    monkeypatch.setattr(
        estimator, "_nelder_mead_lockstep",
        lambda objective, x0: seen.append((objective, x0.copy())) or x0)
    _fit_direct_batch(problems, spec)
    monkeypatch.undo()
    ((objective, x0),) = seen
    return objective, x0


def reference_batch(monkeypatch):
    """The eight reference problems' direct fits, as one batch."""
    config = configparser.ConfigParser(interpolation=None)
    config.read(FIXTURES.parent / "configs" / "reference-fits.cfg",
                encoding="utf-8")
    sections = [config[name] for name in config.sections()]
    (code,) = {section["objective"] for section in sections}
    problems = [
        FitProblem(load_counts(Path(section["counts"]).name.split(".")[0]),
                   int(section["r"]), seed=int(section["seed"]),
                   starts=int(section["starts"]))
        for section in sections]
    assert len(problems) == 8
    return direct_lockstep(monkeypatch, ObjectiveSpec.from_code(code),
                           problems)


def bumpy(points, rows):
    # rough enough that both contractions often fail, so simplices shrink
    return np.sin(997.0 * points @ np.array([1.0, 1.7, 2.3]))


def half_infinite(points, rows):
    # the even starts' first simplices are infinite, and they retire at
    # once; the odd starts' bowl converges
    values = ((points - 0.3) ** 2).sum(axis=1)
    values[rows % 2 == 0] = np.inf
    return values


LOCKSTEP_CASES = {
    "reference-batch": reference_batch,
    # kinked, and infinite wherever an expectation is 0
    "ca-GrQc-dabs-f": lambda monkeypatch: direct_lockstep(
        monkeypatch, ObjectiveSpec.from_code("dabs-f"),
        [FitProblem(GRQC, 13, seed=0, starts=50)]),
    "ca-GrQc-dsq-e": lambda monkeypatch: direct_lockstep(
        monkeypatch, ObjectiveSpec.from_code("dsq-e"),
        [FitProblem(GRQC, 13, seed=0, starts=50)]),
    "shrinks": lambda monkeypatch: (
        bumpy, np.random.default_rng(3).random((20, 3))),
    "infinite": lambda monkeypatch: (
        lambda points, rows: np.full(len(points), np.inf),
        np.random.default_rng(5).random((6, 3))),
    "infinite-half": lambda monkeypatch: (
        half_infinite, np.random.default_rng(6).random((6, 3))),
}


class TestLockstepNelderMead:
    """The lockstep simplex against scipy's Nelder-Mead, start by start."""

    @pytest.mark.parametrize("name, r, code", [
        pytest.param("ca-GrQc", 13, "dsq-f2", id="ca-GrQc-13"),
        pytest.param("usroads", 17, "dsq-f2", id="usroads-17"),
        pytest.param("as-skitter", 21, "dsq-f2", id="as-skitter-21"),
        # kinked, and infinite wherever an expectation is 0
        pytest.param("ca-GrQc", 13, "dabs-f", id="ca-GrQc-13-dabs-f"),
        pytest.param("ca-GrQc", 13, "dsq-e", id="ca-GrQc-13-dsq-e"),
    ])
    def test_end_points_match_scipy(self, name, r, code):
        from scipy.optimize import minimize

        obs, spec = load_counts(name), ObjectiveSpec.from_code(code)
        objective_of = plain_objective(spec, obs)

        def objective(p):
            return objective_of(
                closed_form_values(p[:, 0], p[:, 1], p[:, 2], r))

        # fit_direct's starts at seed 0
        x0 = np.random.default_rng(0).random((50, 3))
        swap = x0[:, 0] < x0[:, 2]
        x0[swap] = x0[swap, ::-1]
        # the lockstep also passes each point's start row; one problem
        # has no use for it
        ends = _nelder_mead_lockstep(lambda p, rows: objective(p), x0)
        for start, end in zip(x0, ends):
            res = minimize(lambda x: float(objective(x[None])[0]), start,
                           method="Nelder-Mead", bounds=[(0.0, 1.0)] * 3,
                           options=dict(xatol=1e-8, fatol=np.inf,
                                        maxiter=2000))
            np.testing.assert_allclose(end, res.x, rtol=0, atol=1e-12)

    def test_infinite_first_simplex_retires_at_once(self):
        calls = []

        def objective(points, rows):
            calls.append(len(points))
            return np.full(len(points), np.inf)

        x0 = np.random.default_rng(5).random((4, 3))
        assert np.array_equal(_nelder_mead_lockstep(objective, x0), x0)
        assert calls == [16]

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_calls_and_end_points_match_the_oracle(self, monkeypatch, case):
        # every objective call, its points and rows, in order, and the end
        # points, bit for bit against the lockstep as first written
        objective, x0 = LOCKSTEP_CASES[case](monkeypatch)
        runs = []
        for lockstep in (lockstep_oracle, _nelder_mead_lockstep):
            calls = []

            def recorded(points, rows):
                calls.append((points.copy(), rows.copy()))
                return objective(points, rows)

            runs.append((calls, lockstep(recorded, x0.copy())))
        (want_calls, want), (calls, ends) = runs
        assert len(calls) == len(want_calls)
        for k, ((points, rows), (want_points, want_rows)) in enumerate(
                zip(calls, want_calls)):
            assert np.array_equal(points, want_points), k
            assert np.array_equal(rows, want_rows), k
        assert np.array_equal(ends, want)
        if case == "shrinks":
            # a shrink call ranks n = 3 points per start, every other call
            # n + 1 = 4
            assert any(rows.size == 3 * np.unique(rows).size
                       for _, rows in calls)
        if case == "infinite":
            assert len(calls) == 1
        if case == "infinite-half":
            # the infinite starts are ranked in the first call only
            assert len(calls) > 1
            assert not any((rows % 2 == 0).any() for _, rows in calls[1:])


# Batches whose problems differ in r.  r = 2 pins the scalar-exponent
# rule, and r = 13 and 21 are the reference fixtures' powers.  Under dsq-f2,
# dsq-f and dabs-f some problems drop a feature observed as 0, so one
# ranking call mixes problems with the feature matched and dropped; under
# dsq-e (which drops nothing) the counts of one problem have a zero
# expectation everywhere at r = 0, so all of its starts are infinite.
BATCHES = {
    "dsq-f2": [
        (GRQC, 13),
        (FeatureCounts(4, 3, 6, 2, 1), 2),
        (load_counts("as-skitter"), 21),
        (FeatureCounts(100, 50, 40, 10, 0), 7),  # triangles dropped
    ],
    "dsq-e": [
        (GRQC, 13),
        (FeatureCounts(1, 1, 1, 1, 1), 0),  # no finite start
        (FeatureCounts(4, 3, 6, 2, 1), 2),
        (load_counts("as-skitter"), 21),
    ],
    "dsq-f": [
        (FeatureCounts(100, 50, 40, 10, 0), 7),  # triangles dropped
        (USROADS, 17),
        (FeatureCounts(4, 3, 0, 2, 1), 2),  # hairpins dropped
    ],
    "dabs-f": [
        (HEPTH, 14),
        (FeatureCounts(100, 50, 40, 10, 0), 7),  # triangles dropped
        (FeatureCounts(4, 3, 6, 2, 1), 2),
    ],
}
UNEXPLAINED = (FeatureCounts(1, 1, 1, 1, 1), 0)


def batch(code, starts=6):
    """The batch's spec and problems, each with its own seed."""
    return ObjectiveSpec.from_code(code), [
        FitProblem(obs, r, seed=k, starts=starts)
        for k, (obs, r) in enumerate(BATCHES[code])]


class TestBatch:
    """A batch gives every problem what it gets run alone."""

    @pytest.mark.parametrize("code", sorted(BATCHES))
    def test_lockstep_end_points_match_each_problem_alone(self, code,
                                                          monkeypatch):
        import kronmoments.estimator as estimator

        # the batch's one lockstep, as _fit_direct_batch runs it
        runs = []

        def recorded(objective, x0):
            runs.append((x0.copy(), _nelder_mead_lockstep(objective, x0)))
            return runs[-1][1].copy()

        monkeypatch.setattr(estimator, "_nelder_mead_lockstep", recorded)
        spec, problems = batch(code)
        _fit_direct_batch(problems, spec)
        ((x0, ends),) = runs
        first = 0
        for p in problems:
            start = x0[first:first + p.starts]
            objective_of = plain_objective(spec, p.obs)

            def alone(points, rows, r=p.r):
                return objective_of(closed_form_values(
                    points[:, 0], points[:, 1], points[:, 2], r))

            assert np.array_equal(ends[first:first + p.starts],
                                  _nelder_mead_lockstep(alone, start))
            first += p.starts

    @pytest.mark.parametrize("code", sorted(BATCHES))
    def test_direct_fits_match_fit_direct(self, code):
        spec, problems = batch(code)
        for p, res in zip(problems, _fit_direct_batch(problems, spec)):
            if (p.obs, p.r) == UNEXPLAINED:
                # only this problem fails
                assert isinstance(res, FitFailure)
                with pytest.raises(FitFailure, match=str(res)):
                    fit_direct(p.obs, p.r, spec, starts=p.starts, seed=p.seed)
                continue
            alone = fit_direct(p.obs, p.r, spec, starts=p.starts, seed=p.seed)
            assert res.params == alone.params
            assert res.objective_value == alone.objective_value
            assert res.warnings == alone.warnings

    @pytest.mark.parametrize("code", sorted(BATCHES))
    def test_grid_fits_match_the_whole_lattice_sweep(self, code):
        spec, problems = batch(code)
        for p, res in zip(problems, _fit_grid_batch(problems, spec, 21)):
            assert_grid_oracle(res, p, spec, 21)
            if (p.obs, p.r) == UNEXPLAINED:
                # only this problem fails, as it does alone
                with pytest.raises(FitFailure, match=str(res)):
                    fit_grid(p.obs, p.r, spec, 21)
                continue
            assert res.warnings == fit_grid(p.obs, p.r, spec, 21).warnings

    def test_bad_problem_is_rejected_alone(self):
        spec, problems = batch("dsq-f2")
        problems[1] = problems[1]._replace(r=61)
        problems[2] = problems[2]._replace(starts=0)
        direct = _fit_direct_batch(problems, spec)
        grid = _fit_grid_batch(problems, spec, 11)
        assert str(direct[1]) == str(grid[1]) == "r=61 outside [0, 60]"
        assert str(direct[2]) == "starts must be >= 1"
        for res in direct[:1] + direct[3:] + grid[:1] + grid[2:]:
            assert res.method in ("direct", "grid")

    @pytest.mark.parametrize("method", sorted(FIT_METHODS))
    def test_float_power_is_rejected_alone(self, method):
        spec = ObjectiveSpec()
        fit = FIT_METHODS[method]
        out = fit([FitProblem(GRQC, 13.0, starts=5),
                   FitProblem(GRQC, 13, starts=5)], spec, 21)
        assert isinstance(out[0], TypeError)
        assert str(out[0]) == "r must be an integer, got 13.0"
        (alone,) = fit([FitProblem(GRQC, 13, starts=5)], spec, 21)
        assert out[1].params == alone.params
        assert out[1].objective_value == alone.objective_value

    @pytest.mark.parametrize("method", ["best", "direct"])
    @pytest.mark.parametrize("field, value", [("seed", 1.5),
                                              ("starts", 50.0),
                                              ("seed", True),
                                              ("starts", True)])
    def test_float_seed_or_starts_is_rejected_alone(self, method, field,
                                                     value):
        spec = ObjectiveSpec()
        fit = FIT_METHODS[method]
        bad = FitProblem(GRQC, 13, starts=5)._replace(**{field: value})
        out = fit([bad, FitProblem(GRQC, 13, starts=5)], spec, 21)
        assert isinstance(out[0], TypeError)
        assert str(out[0]) == f"{field} must be an integer, got {value!r}"
        (alone,) = fit([FitProblem(GRQC, 13, starts=5)], spec, 21)
        assert out[1].params == alone.params
        assert out[1].objective_value == alone.objective_value

    @pytest.mark.parametrize("method", ["grid", "best"])
    def test_float_grid_points_is_rejected_per_problem(self, method):
        problems = [FitProblem(GRQC, 13, starts=5),
                    FitProblem(GRQC, 14, starts=5)]
        out = FIT_METHODS[method](problems, ObjectiveSpec(), 21.0)
        assert len(out) == 2
        for res in out:
            assert isinstance(res, TypeError)
            assert str(res) == "grid_points must be an integer, got 21.0"

    def test_grid_points_checked_before_any_power(self):
        # a bad grid_points is every problem's error, one whose power is
        # out of range too
        problems = [FitProblem(GRQC, 61), FitProblem(GRQC, 13)]
        out = _fit_grid_batch(problems, ObjectiveSpec(), 1)
        assert len(out) == 2
        for res in out:
            assert type(res) is ValueError
            assert str(res) == "grid_points must be >= 2"

    # best checks grid_points before its direct batch runs, and a problem
    # whose seed is bad too reports the grid_points error
    @pytest.mark.parametrize("grid_points, error, message", [
        (1, ValueError, "grid_points must be >= 2"),
        (21.0, TypeError, "grid_points must be an integer, got 21.0"),
    ], ids=["one", "float"])
    def test_best_rejects_grid_points_before_fitting(self, monkeypatch,
                                                     grid_points, error,
                                                     message):
        import kronmoments.estimator as estimator

        def no_fit(objective, x0):
            raise AssertionError("a direct fit ran")

        monkeypatch.setattr(estimator, "_nelder_mead_lockstep", no_fit)
        problems = [FitProblem(GRQC, 13, starts=5),
                    FitProblem(GRQC, 14, seed=-1, starts=5)]
        out = FIT_METHODS["best"](problems, ObjectiveSpec(), grid_points)
        assert len(out) == 2
        for res in out:
            assert type(res) is error and str(res) == message

    def test_negative_seed_is_rejected_alone(self):
        spec, problems = batch("dsq-f2")
        problems[1] = problems[1]._replace(seed=-1)
        direct = _fit_direct_batch(problems, spec)
        assert isinstance(direct[1], ValueError)
        assert str(direct[1]) == "seed must be >= 0"
        rest = _fit_direct_batch(problems[:1] + problems[2:], spec)
        for res, alone in zip(direct[:1] + direct[2:], rest):
            assert res.params == alone.params
            assert res.objective_value == alone.objective_value


class TestFitLeading:
    def test_grqc_reproduction(self):
        res = fit_leading(GRQC, 13)
        assert res.params.a == pytest.approx(1.000, abs=0.005)
        assert res.params.b == pytest.approx(0.488, abs=0.005)
        assert res.params.c == pytest.approx(0.229, abs=0.005)
        assert res.objective_value == pytest.approx(1.138, rel=0.01)
        assert res.feature_ratios["tripins"] == pytest.approx(1.405, rel=0.01)

    def test_forward_construction_round_trip(self):
        a, b, c, r = 0.9, 0.5, 0.2, 14
        obs = FeatureCounts(
            2 ** r,
            (a + 2 * b + c) ** r / 2,
            ((a + b) ** 2 + (b + c) ** 2) ** r / 2,
            ((a + b) ** 3 + (b + c) ** 3) ** r / 6,
            (a ** 3 + c ** 3 + 3 * b * b * (a + c)) ** r / 6,
        )
        res = fit_leading(obs, r)
        assert res.params.a == pytest.approx(a, abs=2e-4)
        assert res.params.b == pytest.approx(b, abs=2e-4)
        assert res.params.c == pytest.approx(c, abs=2e-4)

    def test_transform_invariants(self):
        tr = compute_leading_transforms(GRQC, 13)
        assert tr.h <= tr.e ** 2 <= 2 * tr.h
        assert tr.x_hat >= tr.y_hat
        assert tr.x_hat + tr.y_hat == pytest.approx(tr.e)

    def test_regular_graph_infeasible(self):
        # 2-regular cycle: degree variance 0 < mean 2
        n = 16
        cycle = FeatureCounts(n, n, n, 0, 0)
        with pytest.raises(LeadingTermInfeasible, match="real-valued"):
            fit_leading(cycle, 4)

    def test_triangle_free_feasible_graph_rejected(self):
        # feasible edge/hairpin system but nothing to match b against
        star = FeatureCounts(16, 15, 105, 455, 0)
        with pytest.raises(ValueError, match="triangle"):
            fit_leading(star, 4)

    def test_feasibility_equals_degree_variance_condition(self):
        # solvable exactly when the degree variance reaches the degree
        # mean: N * sum d(d-1) >= (sum d)^2
        from kronmoments.features import count_features
        from kronmoments.graph_io import choose_r

        rng = np.random.default_rng(17)
        seen = {True: 0, False: 0}
        for _ in range(40):
            n = int(rng.integers(4, 40))
            p = float(rng.uniform(0.05, 0.6))
            adj = np.triu(rng.random((n, n)) < p, 1)
            g = checked_graph(n, np.argwhere(adj))
            obs = count_features(g)
            if obs.edges == 0 or obs.hairpins == 0:
                continue
            r = choose_r(n)
            deg = g.degrees.astype(float)
            nn = 2 ** r  # model vertex count, as used by the transforms
            variance_ok = nn * float((deg * (deg - 1)).sum()) >= \
                float(deg.sum()) ** 2
            try:
                compute_leading_transforms(obs, r)
                feasible = True
            except LeadingTermInfeasible:
                feasible = False
            assert feasible == variance_ok
            seen[feasible] += 1
        assert seen[True] and seen[False]  # both branches exercised

    @staticmethod
    def assert_matches_oracle(obs, r):
        (a, b, c), _, mismatch = leading_oracle(obs, r)
        res = fit_leading(obs, r)
        assert (res.params.a, res.params.b, res.params.c) == (a, b, c)
        # the shared base may round differently in its last bits
        delta = res.diagnostics["transforms"]["delta"]
        assert res.diagnostics["delta_mismatch"] == pytest.approx(
            mismatch, rel=0.0, abs=1e-14 * max(delta, 1.0))

    def test_matches_hand_written_sweep_on_random_problems(self):
        # the mismatch read from the shared bases picks the point that the
        # hand-written a^3 + c^3 + 3 b^2 (a + c) picks
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 300:
            a, b, c = rng.random(3)
            r = int(rng.integers(1, 23))
            noise = np.exp(rng.normal(0.0, 0.3, 4))
            counts = [float(x) for x in np.array(
                expected_counts(max(a, c), b, min(a, c), r)) * noise]
            obs = FeatureCounts(2 ** r, *counts)
            if obs.triangles <= 0:
                continue
            try:
                compute_leading_transforms(obs, r)
            except LeadingTermInfeasible:
                continue
            self.assert_matches_oracle(obs, r)
            checked += 1

    @pytest.mark.parametrize(
        "path", sorted(FIXTURES.glob("*.counts.json")), ids=lambda p: p.name)
    def test_matches_hand_written_sweep_on_fixtures(self, path):
        from kronmoments.graph_io import choose_r

        obs = FeatureCounts.from_dict(json.loads(path.read_text()))
        r = choose_r(obs.vertices)
        if path.name == "usroads.counts.json":
            with pytest.raises(LeadingTermInfeasible):
                fit_leading(obs, r)
            return
        self.assert_matches_oracle(obs, r)

    @pytest.mark.parametrize("r", [1, 2, 13])
    def test_transforms_scale_counts_as_doubles(self, r):
        # 6 * (2**53 + 1) in Python ints rounds to another double than
        # 6.0 * (2**53 + 1) does; at r = 1 the root keeps the difference
        big = 2 ** 53 + 1
        obs = FeatureCounts(2, 10, 150, big, big)
        _, want, _ = leading_oracle(obs, r)
        got = compute_leading_transforms(obs, r)
        assert (got.e, got.h, got.delta, got.t, got.x_hat, got.y_hat) == want


class TestFitBest:
    def test_minimum_of_methods(self):
        res = fit_best(GRQC, 13, ObjectiveSpec(), seed=0, starts=10,
                       grid_points=21)
        per_method = [
            v["objective"] for v in res.diagnostics.values()
            if isinstance(v, dict) and "objective" in v
        ]
        assert res.objective_value == min(per_method)
        assert res.method == "best"
        assert res.diagnostics["winner"] in ("direct", "grid", "leading")

    def test_grid_wins_when_exact_point_on_grid(self):
        params = KroneckerParams(0.5, 0.5, 0.5, 8)
        obs = expectations_as_counts(params)
        res = fit_best(obs, 8, ObjectiveSpec(), seed=0, starts=3,
                       grid_points=11)
        assert res.objective_value <= res.diagnostics["grid"]["objective"]
        assert res.objective_value == pytest.approx(0.0, abs=1e-16)

    def test_leading_skip_note_when_infeasible(self):
        n = 16
        cycle = FeatureCounts(n, n, n, 0, 0)
        spec = ObjectiveSpec(features=("edges", "hairpins", "tripins"))
        res = fit_best(cycle, 4, spec, seed=0, starts=5, grid_points=11)
        assert "error" in res.diagnostics["leading"]
        assert any("leading" in w for w in res.warnings)


class TestFitPartial:
    """Three-feature fits: fit_best names the held-out feature."""

    def test_drop_tripins(self):
        spec = ObjectiveSpec(features=("edges", "hairpins", "triangles"))
        res = fit_best(GRQC, 13, spec, seed=0)
        assert res.held_out == "tripins"
        assert res.params.a == pytest.approx(1.000, abs=0.005)
        assert res.params.b == pytest.approx(0.493, abs=0.01)
        assert res.params.c == pytest.approx(0.216, abs=0.015)
        assert res.feature_ratios["tripins"] == pytest.approx(1.536, rel=0.02)

    def test_drop_triangles(self):
        spec = ObjectiveSpec(features=("edges", "hairpins", "tripins"))
        res = fit_best(GRQC, 13, spec, seed=0)
        assert res.held_out == "triangles"
        assert res.objective_value == pytest.approx(0.011, abs=0.002)
        assert (res.params.b, res.params.c) == pytest.approx(
            (0.467, 0.279), abs=0.01
        )

    def test_exact_observations_give_unit_held_out_ratio(self):
        params = KroneckerParams(0.9, 0.55, 0.35, 10)
        obs = expectations_as_counts(params)
        for dropped in FEATURE_NAMES:
            feats = tuple(f for f in FEATURE_NAMES if f != dropped)
            res = fit_best(obs, 10, ObjectiveSpec(features=feats), seed=0,
                              starts=12, grid_points=11)
            assert res.held_out == dropped
            assert res.feature_ratios[dropped] == pytest.approx(1.0, abs=5e-3)

    def test_held_out_only_with_three_features(self):
        res = fit_best(GRQC, 13, ObjectiveSpec(), seed=0, starts=5,
                       grid_points=11)
        assert res.held_out is None
        assert "held_out" not in res.to_dict()
