"""The reference-fit contract: the fits against the recorded table.

``bench/reference_fits.json`` holds the fits of ``configs/reference-fits.cfg``
at seed 0, recorded before the fit layer shared one objective and one
closed-form evaluator.  This test only reads it.  The grid must land on the
same lattice point with the same objective; the direct fit must agree to
the benchmark's own tolerances, alone and with all eight fits in one batch,
as the experiment runs them.  The leading fit must land on the recorded point
with the same objective, or fail as recorded.  The grid and leading
batches over the eight problems must also stay within a fixed traced
memory.
"""

import configparser
import json
import tracemalloc
from pathlib import Path

import pytest

from kronmoments.estimator import (
    FitProblem,
    LeadingTermInfeasible,
    ObjectiveSpec,
    _fit_direct_batch,
    _fit_grid_batch,
    _fit_leading_batch,
    fit_direct,
    fit_grid,
    fit_leading,
)
from kronmoments.features import FeatureCounts

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "bench" / "reference_fits.json").read_text())
CONFIG = configparser.ConfigParser(interpolation=None)
CONFIG.read(ROOT / "configs" / "reference-fits.cfg", encoding="utf-8")


def fit_inputs(name):
    section = CONFIG[name]
    counts = json.loads((ROOT / section["counts"]).read_text())
    return (FeatureCounts.from_dict(counts), int(section["r"]),
            ObjectiveSpec.from_code(section["objective"]))


@pytest.mark.parametrize("name", CONFIG.sections())
def test_grid_fit_matches_reference(name):
    res = fit_grid(*fit_inputs(name), grid_points=101)
    ref = REFERENCE[name]["grid"]
    p = res.params
    assert (p.a, p.b, p.c) == (ref["a"], ref["b"], ref["c"])
    assert res.objective_value == pytest.approx(ref["objective"], rel=1e-12,
                                                abs=0.0)


def assert_direct_matches(res, ref):
    p = res.params
    assert (p.a, p.b, p.c) == pytest.approx((ref["a"], ref["b"], ref["c"]),
                                            rel=0.0, abs=1e-6)
    assert res.objective_value == pytest.approx(ref["objective"], rel=1e-9,
                                                abs=0.0)


def test_direct_fit_matches_reference_grqc():
    res = fit_direct(*fit_inputs("ca-GrQc"), starts=50, seed=0)
    assert_direct_matches(res, REFERENCE["ca-GrQc"]["direct"])


@pytest.fixture(scope="module")
def direct_batch():
    """All eight direct fits in one lockstep, by section name."""
    names = CONFIG.sections()
    specs = {fit_inputs(name)[2] for name in names}
    assert len(specs) == 1  # one objective, so one batch
    problems = [FitProblem(*fit_inputs(name)[:2], seed=0, starts=50)
                for name in names]
    return dict(zip(names, _fit_direct_batch(problems, specs.pop())))


@pytest.mark.parametrize("name", CONFIG.sections())
def test_direct_fits_match_reference_as_one_batch(direct_batch, name):
    assert_direct_matches(direct_batch[name], REFERENCE[name]["direct"])


@pytest.mark.parametrize("name", CONFIG.sections())
def test_leading_fit_matches_reference(name):
    ref = REFERENCE[name]["leading"]
    if "skipped" in ref:
        with pytest.raises(LeadingTermInfeasible) as excinfo:
            fit_leading(*fit_inputs(name))
        assert str(excinfo.value) == ref["skipped"]
        return
    res = fit_leading(*fit_inputs(name))
    p = res.params
    assert (p.a, p.b, p.c) == (ref["a"], ref["b"], ref["c"])
    assert res.objective_value == pytest.approx(ref["objective"], rel=1e-12,
                                                abs=0.0)


def traced_peak(fit, grid_points):
    """The traced peak of ``fit`` on the eight problems as one batch, and
    its results."""
    names = CONFIG.sections()
    specs = {fit_inputs(name)[2] for name in names}
    assert len(specs) == 1
    problems = [FitProblem(*fit_inputs(name)[:2]) for name in names]
    spec = specs.pop()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results = fit(problems, spec, grid_points)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, results


def test_grid_batch_memory_is_bounded():
    # blocks of 2,048 lattice points trace about 1.1 MB; 8,192-point
    # blocks traced 2.8 MB
    peak, results = traced_peak(_fit_grid_batch, 101)
    assert all(res.method == "grid" for res in results)
    assert peak < 1.5e6, peak


def test_leading_batch_memory_is_bounded():
    # the sweep's 10,001 b values in 2,048-value blocks trace about 0.8 MB;
    # all 14 bases on every b value at once traced 2.3 MB
    peak, results = traced_peak(_fit_leading_batch, None)
    assert sum(isinstance(res, LeadingTermInfeasible) for res in results) == 1
    assert peak < 1e6, peak
