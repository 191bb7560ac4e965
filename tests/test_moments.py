import math
from itertools import permutations

import numpy as np
import pytest

from kronmoments.moments import (
    KroneckerParams,
    MAX_POWER,
    closed_form_by_power,
    closed_form_values,
    dominance_exponent,
    expected_counts,
    expected_features,
)
from oracles import (
    BRUTE_FORCE_MAX_POWER,
    brute_force_expected,
    exact_expected,
    folded_pair_sum,
    folded_quad_sum,
    folded_quad_sum_tail_exchangeable,
    folded_triple_sum,
    folded_triple_sum_fully_exchangeable,
    folded_triple_sum_tail_exchangeable,
    probability_matrix,
    restricted_sum,
)

FEATURES = ("edges", "hairpins", "tripins", "triangles")


def rel_diff(x, y):
    m = max(abs(x), abs(y))
    return abs(x - y) / m if m > 0 else 0.0


class TestKroneckerParams:
    def test_canonicalization(self):
        p = KroneckerParams(0.2, 0.5, 0.9, 3)
        assert (p.a, p.c) == (0.9, 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            KroneckerParams(1.2, 0.5, 0.5, 3)
        with pytest.raises(ValueError):
            KroneckerParams(0.5, -0.1, 0.5, 3)
        with pytest.raises(ValueError):
            KroneckerParams(0.5, 0.5, 0.5, MAX_POWER + 1)
        with pytest.raises(ValueError):
            KroneckerParams(0.5, 0.5, 0.5, -1)
        with pytest.raises(TypeError):
            KroneckerParams(0.5, 0.5, 0.5, 2.5)

    def test_num_vertices(self):
        assert KroneckerParams(1, 1, 1, 5).num_vertices == 32


class TestExpectedFeatures:
    def test_zero_offdiagonal_gives_exact_zeros(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, c = rng.random(2)
            ef = expected_features(KroneckerParams(a, 0.0, c, 10))
            assert (ef.e_edges, ef.e_hairpins, ef.e_tripins, ef.e_triangles) \
                == (0.0, 0.0, 0.0, 0.0)

    def test_complete_graph_r2(self):
        ef = expected_features(KroneckerParams(1, 1, 1, 2))
        assert (ef.e_edges, ef.e_hairpins, ef.e_triangles, ef.e_tripins) \
            == (6.0, 12.0, 4.0, 4.0)

    def test_zero_diagonal_dual_pairing(self):
        # only node-to-dual edges survive: E = (2b)^r / 2, rest zero
        ef = expected_features(KroneckerParams(0, 0.5, 0, 3))
        assert ef.e_edges == 0.5
        assert ef.e_hairpins == ef.e_tripins == ef.e_triangles == 0.0

    def test_matches_brute_force_spot(self):
        p = KroneckerParams(0.7, 0.4, 0.2, 4)
        cf, bf = expected_features(p), brute_force_expected(p)
        for f in FEATURES:
            assert rel_diff(cf.get(f), bf.get(f)) < 1e-10

    def test_r_zero_single_node(self):
        ef = expected_features(KroneckerParams(0.3, 0.9, 0.1, 0))
        assert all(ef.get(f) == 0.0 for f in FEATURES)

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b, c = rng.random(3)
            r = int(rng.integers(1, 20))
            lhs = expected_features(KroneckerParams(a, b, c, r))
            rhs = expected_features(KroneckerParams(c, b, a, r))
            assert all(lhs.get(f) == rhs.get(f) for f in FEATURES)

    def test_cancellation_regime_matches_exact_arithmetic(self):
        # tiny b drives the signed closed-form terms into near-total
        # cancellation; values must still carry full double precision
        for b in (1e-2, 1e-3, 1e-5, 1e-8):
            for r in (3, 6, 13, 20, 45):
                ef = expected_features(KroneckerParams(0.97, b, 0.88, r))
                exact = exact_expected(0.97, b, 0.88, r)
                for got, want in zip(
                    (ef.e_edges, ef.e_hairpins, ef.e_tripins, ef.e_triangles),
                    exact,
                ):
                    assert rel_diff(got, want) < 1e-12

    def test_edge_monotonicity(self):
        grid = np.linspace(0.05, 1.0, 8)
        r = 6
        for b in (0.2, 0.7):
            for c in (0.1, 0.5):
                vals = [
                    expected_features(KroneckerParams(a, b, min(c, a), r)).e_edges
                    for a in grid
                ]
                assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        for a in (0.6, 1.0):
            vals = [
                expected_features(KroneckerParams(a, b, 0.3, r)).e_edges
                for b in grid
            ]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_vectorized_matches_scalar(self):
        # the grid's array evaluation against the per-point path, which is
        # the same combination plus the exact fallback
        rng = np.random.default_rng(9)
        a, b, c = rng.random((3, 50))
        # keep b off the cancellation floor, where only the per-point path
        # falls back to exact arithmetic (covered by its own test above)
        b = 0.05 + 0.95 * b
        a, c = np.maximum(a, c), np.minimum(a, c)
        arrays = closed_form_values(a, b, c, 9)
        for k in range(50):
            point = (float(a[k]), float(b[k]), float(c[k]), 9)
            for arr, value, want in zip(arrays, closed_form_values(*point),
                                        expected_counts(*point)):
                assert rel_diff(float(arr[k]), want) < 1e-9
                assert rel_diff(float(value), want) < 1e-9


    def test_per_point_powers_match_each_power_alone(self):
        # every form of r takes its powers with a float exponent array, so
        # none reaches numpy's squaring fast path for a scalar 2, and a
        # point gets the same bits from the per-point call, from
        # closed_form_by_power and from a call at its power alone
        rng = np.random.default_rng(11)
        a, b, c = rng.random((3, 300))
        powers = (0, 1, 2, 3, 13, 21, 60)
        r = rng.choice(powers, 300)
        assert set(r.tolist()) == set(powers)
        mixed = closed_form_values(a, b, c, r)
        table = list(closed_form_by_power(a, b, c, powers))
        for power, row in zip(powers, table):
            alone = closed_form_values(a, b, c, power)
            at = r == power
            for got_mixed, got_row, want in zip(mixed, row, alone):
                assert np.array_equal(got_mixed[at], want[at])
                assert np.array_equal(got_row, want)


class TestBruteForce:
    def test_complete_graph(self):
        bf = brute_force_expected(KroneckerParams(1, 1, 1, 2))
        assert (bf.e_edges, bf.e_hairpins, bf.e_triangles, bf.e_tripins) \
            == (6.0, 12.0, 4.0, 4.0)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            a, b, c = rng.random(3)
            for r in range(1, 7):
                p = KroneckerParams(a, b, c, r)
                cf, bf = expected_features(p), brute_force_expected(p)
                for f in FEATURES:
                    assert rel_diff(cf.get(f), bf.get(f)) < 1e-10

    def test_refuses_large_r(self):
        with pytest.raises(ValueError):
            brute_force_expected(
                KroneckerParams(0.5, 0.5, 0.5, BRUTE_FORCE_MAX_POWER + 1)
            )

    def test_boundary_power(self):
        # the largest matrix the oracle supports (128 x 128)
        p = KroneckerParams(0.93, 0.41, 0.22, BRUTE_FORCE_MAX_POWER)
        cf, bf = expected_features(p), brute_force_expected(p)
        for f in FEATURES:
            assert rel_diff(cf.get(f), bf.get(f)) < 1e-10


class TestProbabilityMatrix:
    def test_entries_are_bit_products(self):
        p = KroneckerParams(0.9, 0.4, 0.3, 3)
        mat = probability_matrix(p)
        theta = [[0.9, 0.4], [0.4, 0.3]]
        for i in range(8):
            for j in range(8):
                want = 1.0
                for s in range(3):
                    want *= theta[(i >> s) & 1][(j >> s) & 1]
                assert abs(mat[i, j] - want) < 1e-15
        assert np.allclose(mat, mat.T)
        assert mat.min() >= 0 and mat.max() <= 1

    def test_kronecker_power_reduction(self):
        # full-range index sums over the explicit matrix equal the r-th
        # power of their single-factor values
        a, b, c = 0.85, 0.35, 0.6
        base = {
            "sum_p": a + 2 * b + c,
            "pii_1": a + c,
            "pii_2": a * a + c * c,
            "pii_3": a ** 3 + c ** 3,
            "pij_2": a * a + 2 * b * b + c * c,
            "pij_3": a ** 3 + 2 * b ** 3 + c ** 3,
            "pii_pij": a * (a + b) + c * (b + c),
            "pii_pij2": a * (a * a + b * b) + c * (b * b + c * c),
            "pii2_pij": a * a * (a + b) + c * c * (b + c),
            "hairpin": (a + b) ** 2 + (b + c) ** 2,
            "wedge2": a ** 3 + c ** 3 + b * (a * a + c * c)
                      + b * b * (a + c) + 2 * b ** 3,
            "triangle": a ** 3 + c ** 3 + 3 * b * b * (a + c),
            "loop_hairpin": a * (a + b) ** 2 + c * (b + c) ** 2,
            "tripin": (a + b) ** 3 + (b + c) ** 3,
        }
        for r in range(2, 6):
            p = probability_matrix(KroneckerParams(a, b, c, r))
            dii = np.diag(p)
            rows = p.sum(axis=1)
            got = {
                "sum_p": p.sum(),
                "pii_1": dii.sum(),
                "pii_2": (dii ** 2).sum(),
                "pii_3": (dii ** 3).sum(),
                "pij_2": (p ** 2).sum(),
                "pij_3": (p ** 3).sum(),
                "pii_pij": (dii * rows).sum(),
                "pii_pij2": (dii * (p ** 2).sum(axis=1)).sum(),
                "pii2_pij": (dii ** 2 * rows).sum(),
                "hairpin": (rows ** 2).sum(),
                "wedge2": ((p ** 2).sum(axis=1) * rows).sum(),
                "triangle": np.einsum("ij,ik,jk->", p, p, p),
                "loop_hairpin": (dii * rows ** 2).sum(),
                "tripin": (rows ** 3).sum(),
            }
            for key, val in got.items():
                assert rel_diff(float(val), base[key] ** r) < 1e-11, (key, r)


class TestFoldIdentities:
    def symmetrize_tail(self, f):
        if f.ndim == 3:
            return (f + np.transpose(f, (0, 2, 1))) / 2
        out = np.zeros_like(f)
        for perm in permutations((1, 2, 3)):
            out += np.transpose(f, (0,) + perm)
        return out / 6

    def test_against_direct_enumeration(self):
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            for _ in range(4):
                f2 = rng.standard_normal((n, n))
                f3 = rng.standard_normal((n, n, n))
                f4 = rng.standard_normal((n,) * 4)
                checks = [
                    (f2, folded_pair_sum),
                    (f3, folded_triple_sum),
                    (f4, folded_quad_sum),
                    (self.symmetrize_tail(f3), folded_triple_sum_tail_exchangeable),
                    (self.symmetrize_tail(f4), folded_quad_sum_tail_exchangeable),
                ]
                g3 = self.symmetrize_tail(f3)
                full = (g3 + np.transpose(g3, (1, 0, 2))
                        + np.transpose(g3, (2, 1, 0))) / 3
                full = self.symmetrize_tail(full)
                checks.append((full, folded_triple_sum_fully_exchangeable))
                for tensor, folded in checks:
                    direct = restricted_sum(tensor)
                    got = folded(tensor)
                    assert abs(direct - got) <= 1e-12 * max(
                        abs(direct), abs(got), 1.0
                    ), folded.__name__

    def test_single_level_all_zero(self):
        # with one index level there are no distinct tuples at all
        f = np.array([[[3.7]]])
        assert restricted_sum(f) == 0.0
        assert folded_triple_sum(f) == pytest.approx(0.0, abs=1e-13)
        f4 = np.full((1, 1, 1, 1), 2.2)
        assert folded_quad_sum(f4) == pytest.approx(0.0, abs=1e-13)

    def test_probability_products(self):
        # the tensors the expected-count derivation actually folds
        rng = np.random.default_rng(12)
        p = rng.random((4, 4))
        p = (p + p.T) / 2
        f3 = p[:, :, None] * p[:, None, :]          # hairpin term
        tri = f3 * p[None, :, :]                     # triangle term
        f4 = p[:, :, None, None] * p[:, None, :, None] * p[:, None, None, :]
        for tensor, folded in ((f3, folded_triple_sum_tail_exchangeable),
                               (tri, folded_triple_sum_fully_exchangeable),
                               (f4, folded_quad_sum_tail_exchangeable)):
            direct = restricted_sum(tensor)
            got = folded(tensor)
            assert abs(direct - got) <= 1e-12 * max(
                abs(direct), abs(got), 1.0
            ), folded.__name__


class TestDominanceExponent:
    def test_boundary_half(self):
        b = (math.sqrt(2) - 1) / 2
        dom = dominance_exponent(KroneckerParams(0.5, b, 0.5, 10))
        assert dom.alpha == pytest.approx(0.5, abs=1e-14)
        # flag is a strict comparison; check it just off the boundary
        assert not dominance_exponent(
            KroneckerParams(0.5, b - 1e-6, 0.5, 10)
        ).lead_dominant
        assert dominance_exponent(
            KroneckerParams(0.5, b + 1e-6, 0.5, 10)
        ).lead_dominant

    def test_no_offdiagonal(self):
        dom = dominance_exponent(KroneckerParams(1, 0, 1, 5))
        assert dom.alpha == 0.0
        assert not dom.lead_dominant

    def test_arithmetic(self):
        dom = dominance_exponent(KroneckerParams(0.99, 0.48, 0.25, 10))
        assert dom.alpha == pytest.approx(math.log2(2.2 / 1.24), rel=1e-12)
        assert dom.lead_dominant

    def test_zero_diagonal(self):
        dom = dominance_exponent(KroneckerParams(0, 0.7, 0, 4))
        assert math.isinf(dom.alpha)
