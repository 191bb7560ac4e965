"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 5 and 7 compare against published objective values and read them
the way the tables print them (details in the README): criterion 5 takes
the minimum over the box of parameters that round to the printed 3-decimal
fit, and criterion 7 reads the published 2.935 as the absolute-miss sum
sum|F-E|/F of the row's own ratio columns.
"""

import json
import math
import os
import time
from itertools import permutations
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from kronmoments import generator
from kronmoments.cli import main as cli_main
from kronmoments.estimator import ObjectiveSpec, evaluate_objective, fit_best, fit_leading
from kronmoments.features import FeatureCounts, count_features
from kronmoments.generator import generate
from kronmoments.graph_io import load_edge_list
from kronmoments.moments import KroneckerParams, expected_features
from oracles import (
    brute_force_expected,
    checked_graph,
    folded_pair_sum,
    folded_quad_sum,
    folded_quad_sum_tail_exchangeable,
    folded_triple_sum,
    folded_triple_sum_tail_exchangeable,
    restricted_sum,
)

FEATURES = ("edges", "hairpins", "tripins", "triangles")
REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def rel_diff(x, y):
    m = max(abs(x), abs(y))
    return abs(x - y) / m if m > 0 else 0.0


def grqc_counts():
    """The real dataset when present, else the stored source counts."""
    candidates = [REPO / "data" / "ca-GrQc.txt"]
    if os.environ.get("KRONMOMENTS_DATA"):
        candidates.insert(
            0, Path(os.environ["KRONMOMENTS_DATA"]) / "ca-GrQc.txt"
        )
    for path in candidates:
        if path.exists():
            return count_features(load_edge_list(path))
    with open(FIXTURES / "ca-GrQc.counts.json") as fh:
        return FeatureCounts.from_dict(json.load(fh))


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(20240808)
    t0 = time.perf_counter()
    worst = 0.0
    for a, b, c in rng.random((100, 3)):
        for r in range(1, 7):
            params = KroneckerParams(float(a), float(b), float(c), r)
            cf = expected_features(params)
            bf = brute_force_expected(params)
            for f in FEATURES:
                worst = max(worst, rel_diff(cf.get(f), bf.get(f)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    verdict(1, ok, f"closed form vs brute force: worst rel diff "
                   f"{worst:.2e} over 100 params x r=1..6 in {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_02_fold_identities():
    rng = np.random.default_rng(8123)
    t0 = time.perf_counter()

    def tail_symmetrize(f):
        if f.ndim == 3:
            return (f + np.transpose(f, (0, 2, 1))) / 2
        out = np.zeros_like(f)
        for perm in permutations((1, 2, 3)):
            out += np.transpose(f, (0,) + perm)
        return out / 6

    worst = 0.0
    tensors = 0
    for n in range(2, 7):
        for _ in range(10):
            f3 = rng.standard_normal((n, n, n))
            f4 = rng.standard_normal((n,) * 4)
            cases = (
                (rng.standard_normal((n, n)), folded_pair_sum),
                (f3, folded_triple_sum),
                (f4, folded_quad_sum),
                (tail_symmetrize(f3), folded_triple_sum_tail_exchangeable),
                (tail_symmetrize(f4), folded_quad_sum_tail_exchangeable),
            )
            for tensor, folded in cases:
                direct = restricted_sum(tensor)
                got = folded(tensor)
                worst = max(
                    worst,
                    abs(direct - got) / max(abs(direct), abs(got), 1.0),
                )
            tensors += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    verdict(2, ok, f"fold identities vs direct enumeration: worst rel "
                   f"{worst:.2e} over {tensors} tensors in {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_03_degenerate_exactness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for r in range(1, 7):
        for _ in range(5):
            a, c = rng.random(2)
            ef = expected_features(KroneckerParams(a, 0.0, c, r))
            assert all(ef.get(f) == 0.0 for f in FEATURES)
            b = rng.random()
            ef = expected_features(KroneckerParams(0.0, b, 0.0, r))
            want = (2 ** r) * b ** r / 2
            worst = max(worst, rel_diff(ef.e_edges, want))
            assert ef.e_hairpins == ef.e_tripins == ef.e_triangles == 0.0
        n = 2 ** r
        ef = expected_features(KroneckerParams(1, 1, 1, r))
        targets = (
            n * (n - 1) / 2,
            n * (n - 1) * (n - 2) / 2,
            n * (n - 1) * (n - 2) * (n - 3) / 6,
            n * (n - 1) * (n - 2) / 6,
        )
        for got, want in zip(
            (ef.e_edges, ef.e_hairpins, ef.e_tripins, ef.e_triangles), targets
        ):
            worst = max(worst, rel_diff(got, want))
    ok = worst <= 1e-9
    verdict(3, ok, f"degenerate initiators exact: worst rel {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_04_counting_correctness():
    from itertools import combinations

    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(4, 61))
        p = float(rng.uniform(0.05, 0.5))
        adj = np.triu(rng.random((n, n)) < p, 1)
        adj = adj | adj.T
        g = checked_graph(n, np.argwhere(np.triu(adj, 1)))
        fc = count_features(g)
        pairs = np.array(list(combinations(range(n), 2)))
        trips = np.array(list(combinations(range(n), 3)))
        edges = int(np.triu(adj, 1).sum())
        wedges = int((adj[:, pairs[:, 0]] & adj[:, pairs[:, 1]]).sum())
        claws = int((adj[:, trips[:, 0]] & adj[:, trips[:, 1]]
                     & adj[:, trips[:, 2]]).sum())
        triangles = int((adj[trips[:, 0], trips[:, 1]]
                         & adj[trips[:, 0], trips[:, 2]]
                         & adj[trips[:, 1], trips[:, 2]]).sum())
        assert (fc.edges, fc.hairpins, fc.tripins, fc.triangles) == \
            (edges, wedges, claws, triangles)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    verdict(4, ok, f"200 random graphs match enumeration in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_05_objective_reproduction_table1():
    with open(FIXTURES / "kron-synthetic-table1.counts.json") as fh:
        obs = FeatureCounts.from_dict(json.load(fh))
    assert (obs.vertices, obs.edges, obs.hairpins, obs.tripins,
            obs.triangles) == (16384, 30830, 521676, 8659050, 854)
    # The printed fit (0.993, 0.476, 0.254) is known only to +-5e-4 per
    # coordinate, and a 5e-4 step moves the objective by about three times
    # its minimum, so compare the published minimum with the minimum over
    # every parameter triple that prints as the published one.
    printed = (0.993, 0.476, 0.254)
    box = [(x - 5e-4, x + 5e-4) for x in printed]
    spec = ObjectiveSpec()

    def objective(x):
        return evaluate_objective(KroneckerParams(*x, 14), spec, obs)

    res = minimize(objective, printed, method="Nelder-Mead", bounds=box,
                   options={"xatol": 1e-8, "fatol": 1e-13})
    val = float(res.fun)
    target = 9.71e-6
    ok = abs(val - target) <= 0.05 * target
    verdict(5, ok, f"minimum over the rounding box of the published params "
                   f"= {val:.4e} at ({res.x[0]:.6f},{res.x[1]:.6f},"
                   f"{res.x[2]:.6f}), published minimum = {target:.2e}")
    assert abs(val - target) <= 0.05 * target, (
        f"minimum of {spec.code} over the box of parameters that round to "
        f"{printed} is {val:.4e}, not {target:.2e} +-5%"
    )


def test_criterion_06_fit_reproduction_grqc():
    obs = grqc_counts()
    res = fit_best(obs, 13, ObjectiveSpec(), seed=0, starts=50,
                   grid_points=100)
    direct_time = res.diagnostics["direct"]["elapsed"]
    grid_time = res.diagnostics["grid"]["elapsed"]
    lead = fit_leading(obs, 13)
    ok = (
        res.objective_value <= 1.00
        and 0.45 <= res.params.b <= 0.49
        and 0.25 <= res.params.c <= 0.30
        and abs(lead.params.a - 1.000) <= 0.005
        and abs(lead.params.b - 0.488) <= 0.005
        and abs(lead.params.c - 0.229) <= 0.005
        and direct_time < 30.0
        and grid_time < 120.0
    )
    verdict(6, ok, f"fit_best obj {res.objective_value:.3f} at "
                   f"(a,b,c)=({res.params.a:.3f},{res.params.b:.3f},"
                   f"{res.params.c:.3f}); leading ({lead.params.a:.3f},"
                   f"{lead.params.b:.3f},{lead.params.c:.3f}); "
                   f"direct {direct_time:.1f}s grid {grid_time:.1f}s")
    assert res.objective_value <= 1.00
    assert 0.45 <= res.params.b <= 0.49
    assert 0.25 <= res.params.c <= 0.30
    assert abs(lead.params.a - 1.000) <= 0.005
    assert abs(lead.params.b - 0.488) <= 0.005
    assert abs(lead.params.c - 0.229) <= 0.005
    assert direct_time < 30.0
    assert grid_time < 120.0


def test_criterion_07_kronfit_comparison():
    obs = grqc_counts()
    kronfit = KroneckerParams(0.999, 0.245, 0.691, 13)
    val = evaluate_objective(kronfit, ObjectiveSpec(), obs)
    ours = fit_best(obs, 13, ObjectiveSpec(), seed=0, starts=50,
                    grid_points=100)
    strictly_worse = val > ours.objective_value
    # The published 2.935 is sum|F-E|/F: the row's own ratio columns
    # E/F = 0.835, 0.199, 0.029, 0.0012 give sum|1 - ratio| = 2.935.
    absolute = ObjectiveSpec(distance="abs", normalization="f")
    val_abs = evaluate_objective(kronfit, absolute, obs)
    ours_abs = evaluate_objective(ours.params, absolute, obs)
    target = 2.935
    in_band = abs(val_abs - target) <= 0.05 * target
    worse_abs = val_abs > ours_abs
    verdict(7, in_band and strictly_worse and worse_abs,
            f"{absolute.code} at published KronFit params = {val_abs:.4f} "
            f"(published {target}), vs {ours_abs:.3f} at our fit; "
            f"{ObjectiveSpec().code} {val:.3f} strictly worse than our fit "
            f"{ours.objective_value:.3f}: {strictly_worse}")
    assert strictly_worse
    assert in_band, (
        f"{absolute.code} at the published KronFit params is {val_abs:.4f}, "
        f"not {target} +-5%"
    )
    assert worse_abs, (
        f"{absolute.code} at the published KronFit params ({val_abs:.4f}) "
        f"is not worse than at our fit ({ours_abs:.4f})"
    )


def test_criterion_08_generator_distribution():
    params = KroneckerParams(0.99, 0.48, 0.25, 10)
    exp = expected_features(params)
    t0 = time.perf_counter()
    samples = {f: [] for f in FEATURES}
    for seed in range(200):
        fc = count_features(generate(params, seed=seed))
        for f in FEATURES:
            samples[f].append(fc.get(f))
    elapsed = time.perf_counter() - t0
    details = []
    ok = elapsed < 60.0
    for f in FEATURES:
        vals = np.array(samples[f], dtype=float)
        if f == "edges":
            se = math.sqrt(exp.get(f) / 200)  # Var(E) <= E(E)
        else:
            se = vals.std(ddof=1) / math.sqrt(200)
        z = (vals.mean() - exp.get(f)) / se
        details.append(f"{f} z={z:+.2f}")
        ok = ok and abs(z) <= 5.0
    edges = np.array(samples["edges"], dtype=float)
    var_ok = edges.var(ddof=1) <= 1.2 * edges.mean()
    ok = ok and var_ok
    verdict(8, ok, f"200 seeds at r=10: {', '.join(details)}; "
                   f"var(E)={edges.var(ddof=1):.0f} <= "
                   f"1.2*mean(E)={1.2 * edges.mean():.0f}: {var_ok}; "
                   f"{elapsed:.0f}s")
    for f in FEATURES:
        vals = np.array(samples[f], dtype=float)
        se = (math.sqrt(exp.get(f) / 200) if f == "edges"
              else vals.std(ddof=1) / math.sqrt(200))
        assert abs(vals.mean() - exp.get(f)) <= 5.0 * se, f
    assert var_ok
    assert elapsed < 60.0


def test_criterion_09_parameter_recovery():
    truths = [
        (0.99, 0.48, 0.25),
        (1.0, 0.67, 0.08),
        (0.999, 0.271, 0.587),
        (0.87, 0.6, 0.7),
    ]
    r = 12
    reps = 20
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for a, b, c in truths:
        truth = KroneckerParams(a, b, c, r)
        fitted = []
        for k in range(reps):
            obs = count_features(generate(truth, seed=1000 + k))
            res = fit_best(obs, r, ObjectiveSpec(), seed=k, starts=20,
                           grid_points=51)
            fitted.append((res.params.a, res.params.b, res.params.c))
        med = np.median(np.array(fitted), axis=0)
        errs = np.abs(med - np.array([truth.a, truth.b, truth.c]))
        all_ok = all_ok and errs.max() <= 0.05
        details.append(
            f"({a},{b},{c}): median=({med[0]:.3f},{med[1]:.3f},{med[2]:.3f})"
            f" max err {errs.max():.3f}"
        )
    elapsed = time.perf_counter() - t0
    all_ok = all_ok and elapsed < 600.0
    verdict(9, all_ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert all_ok, details
    assert elapsed < 600.0


def test_criterion_10_generation_determinism(tmp_path, monkeypatch, capsys):
    # the sampler draws its deviates in chunks; the bytes must not depend
    # on their size
    blobs = []
    chunks = (1, 7, generator._SAMPLE_CHUNK)
    for chunk in chunks:
        monkeypatch.setattr(generator, "_SAMPLE_CHUNK", chunk)
        out = tmp_path / f"det{chunk}.txt"
        code = cli_main([
            "generate", "--a", "0.99", "--b", "0.48", "--c", "0.25",
            "--r", "10", "--seed", "2024", "--out", str(out),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1] == blobs[2]
    verdict(10, ok, "byte-identical output at sampler chunks of "
                    f"{'/'.join(map(str, chunks))} deviates "
                    f"({len(blobs[0])} bytes)")
    assert ok
