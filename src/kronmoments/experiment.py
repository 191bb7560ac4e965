"""Batch experiment harness: fits over graph corpora and synthetic studies.

Reads a sectioned key=value config, runs the requested fits, and emits CSV
tables: one row per (source, method, replication) in the fixed layout
(fit type, a, b, c, vertices, four feature columns, objective, seconds),
plus per-replication parameter draws, relative feature differences against
re-realizations, and feature distributions for synthetic sections.
Everything is deterministic given the config seeds; replication seeds are
derived as seed + replication index.
"""

from __future__ import annotations

import configparser
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .estimator import (
    FIT_METHODS,
    FitProblem,
    FitResult,
    ObjectiveSpec,
)
from .features import FeatureCounts, count_features, read_counts_json
from .generator import MAX_SEED, check_in_memory, generate
from .graph_io import choose_r, load_edge_list
from .moments import (
    FEATURE_NAMES,
    LEAST_VALUES,
    KroneckerParams,
    check_int,
    check_power,
)

FIT_CSV_COLUMNS = (
    "graph", "fit_type", "replication", "a", "b", "c", "verts",
    "edges", "hairpins", "tripins", "triangles", "objective", "seconds",
)

# offset separating re-realization seeds from realization seeds
_REREALIZE_SEED_GAP = 1_000_003


class ConfigError(ValueError):
    """Bad experiment configuration."""


@dataclass
class ExperimentSection:
    name: str
    graph: Path | None = None
    counts: Path | None = None
    params: KroneckerParams | None = None
    replications: int = 1
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    methods: tuple = ("best",)
    seed: int = 0
    starts: int = 50
    grid_points: int = 100
    r: int | None = None

    @property
    def synthetic(self) -> bool:
        return self.params is not None


@dataclass
class ExperimentConfig:
    sections: list
    output_dir: Path | None = None


# the integer keys of a section and their smallest allowed values
_INT_MINIMUMS = {"replications": 1, **LEAST_VALUES}
# every key a section may set; "output" only with [DEFAULT]'s value
_SECTION_KEYS = {"graph", "counts", "params", "r", "objective", "features",
                 "methods", "output", *_INT_MINIMUMS}


def parse_experiment_config(path) -> ExperimentConfig:
    """Parse the flat key=value config (one experiment block per section).

    Recognized keys: graph, counts, params (a,b,c), r, replications,
    objective (code like dsq-f2), features (comma list), methods, seed,
    starts, grid_points, output (under [DEFAULT] only); any other key is a
    ConfigError.  Referenced paths must exist at parse time; replications
    and starts must be >= 1, seed >= 0, grid_points >= 2, and a synthetic
    section's r at most what ``generate`` can hold, and its last sampler
    seed at most ``MAX_SEED``.
    A key left out keeps its ``ExperimentSection`` default.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    output = parser.defaults().get("output")
    output_dir = Path(output) if output else None

    sections = []
    for name in parser.sections():
        raw = dict(parser.items(name))
        try:
            if raw.get("output") != output:
                raise ValueError("output is read only under [DEFAULT]")
            sections.append(_parse_section(name, raw))
        except ValueError as exc:  # the one place a section is named
            raise ConfigError(f"[{name}] {exc}") from None
    if not sections:
        raise ConfigError(f"{path} defines no experiment sections")
    return ExperimentConfig(sections=sections, output_dir=output_dir)


def _parse_section(name: str, raw: dict) -> ExperimentSection:
    """One section from its settings; ValueError for a bad setting."""
    for key in raw:
        if key not in _SECTION_KEYS:
            raise ValueError(f"unknown key {key!r}")
    section = ExperimentSection(name=name)
    for key in ("graph", "counts"):
        if key in raw:
            file = Path(raw[key])
            if not file.exists():
                raise ValueError(f"{key} file not found: {file}")
            setattr(section, key, file)
    if "r" in raw:
        section.r = check_power(_int_value("r", raw["r"]))
    if "params" in raw:
        try:
            a, b, c = (float(tok) for tok in raw["params"].split(","))
        except ValueError:
            raise ValueError(
                "params must be three comma-separated numbers") from None
        if section.r is None:
            raise ValueError("synthetic sections need r")
        section.params = KroneckerParams(a, b, c, section.r)
        check_in_memory(section.params)
    sources = [s for s in (section.graph, section.counts, section.params)
               if s is not None]
    if len(sources) == 0:
        raise ValueError("needs one of: graph, counts, params")
    if len(sources) > 1:
        raise ValueError("give exactly one of graph, counts, params")
    features = (parse_features(raw["features"]) if "features" in raw
                else section.objective.features)
    section.objective = ObjectiveSpec.from_code(
        raw.get("objective", section.objective.code), features=features)
    if "methods" in raw:
        methods = tuple(tok.strip() for tok in raw["methods"].split(","))
        for k, m in enumerate(methods):
            if m not in FIT_METHODS:
                raise ValueError(f"unknown method {m!r}")
            if m in methods[:k]:
                raise ValueError(f"duplicate method {m!r}")
        section.methods = methods
    for key, minimum in _INT_MINIMUMS.items():
        if key in raw:
            setattr(section, key,
                    check_int(key, _int_value(key, raw[key]), minimum))
    # replication k samples seed + k, and re-realizes its fit from
    # seed + k + _REREALIZE_SEED_GAP
    last = section.seed + section.replications - 1 + _REREALIZE_SEED_GAP
    if section.synthetic and last > MAX_SEED:
        raise ValueError(
            f"the last sampler seed, seed + replications - 1 + "
            f"{_REREALIZE_SEED_GAP}, must be <= {MAX_SEED}, got {last}")
    return section


def _int_value(key: str, text: str) -> int:
    """A setting's integer value; ValueError naming the key otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {text!r}") from None


def fit_power(obs: FeatureCounts, r: int | None) -> int:
    """``r``, or by default the smallest with 2^r >= max(vertices, 1)."""
    return r if r is not None else choose_r(max(obs.vertices, 1))


def parse_features(text: str) -> tuple:
    """Feature names from a comma-separated list; blank tokens are dropped."""
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _fits_row(graph, fit_type, replication, verts, **columns) -> dict:
    """A fits.csv row: the columns given, and every other one blank."""
    row = dict.fromkeys(FIT_CSV_COLUMNS, "")
    row.update(graph=graph, fit_type=fit_type, replication=replication,
               verts=verts, **columns)
    return row


def fit_csv_row(graph: str, replication, result: FitResult) -> dict:
    """The fits.csv row of a fit; a feature without an E/F ratio is blank."""
    p = result.params
    ratios = {name: f"{ratio:.10g}"
              for name, ratio in result.feature_ratios.items()
              if ratio is not None}
    return _fits_row(graph, result.method, replication, p.num_vertices,
                     a=f"{p.a:.10g}", b=f"{p.b:.10g}", c=f"{p.c:.10g}",
                     objective=f"{result.objective_value:.10g}",
                     seconds=f"{result.elapsed:.3f}", **ratios)


def _median(values) -> float:
    """The median of a non-empty list, the mean of the middle two for an
    even length; numpy's median imports numpy.ma on its first call."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _count_graph(path):
    """The feature counts of an edge-list file, and the notes on what its
    load dropped or kept."""
    graph = load_edge_list(path)
    # no count reads the labels: free them before the triangle count
    # sets the peak
    graph.labels = None
    counts = count_features(graph)
    notes = []
    if graph.loops_dropped or graph.duplicates_dropped:
        notes.append(f"dropped {graph.loops_dropped} loop(s) and merged "
                     f"{graph.duplicates_dropped} duplicate pair(s)")
    if graph.num_isolated:
        notes.append(f"retained {graph.num_isolated} isolated vertex(es); "
                     "they count toward the vertex total")
    return counts, notes


class _Source(NamedTuple):
    """Counts to fit: a counts or graph section, or one replication."""

    section: ExperimentSection
    replication: object  # "" for a counts or graph section
    problem: FitProblem


def _fit_all(sources: list) -> dict:
    """Fit every source with each of its section's methods.

    Fits that share an objective, a method and grid_points run as one
    batch.  Returns {(source index, method): FitResult or the error}.
    """
    batches = {}
    for i, src in enumerate(sources):
        sec = src.section
        for method in sec.methods:
            batches.setdefault((sec.objective, method, sec.grid_points),
                               []).append(i)
    outcomes = {}
    for (spec, method, grid_points), members in batches.items():
        problems = [sources[i].problem for i in members]
        for i, res in zip(members,
                          FIT_METHODS[method](problems, spec, grid_points)):
            outcomes[i, method] = res
    return outcomes


def _fit_rows(src: _Source, outcomes: dict, index: int):
    """One fits.csv row per method of ``src``'s section, in order.

    Returns the fits by method and the rows.  A method that gave an error
    (an infeasible leading-term system, or no point with a finite
    objective) gets a ``skipped: ...`` row in place of a fit.  Every
    warning of a fit and every skip reason goes to stderr, one line each,
    prefixed ``[section] method replication:``.
    """
    fits = {}
    rows = []
    sec = src.section
    for method in sec.methods:
        res = outcomes[index, method]
        if isinstance(res, Exception):
            notes = [f"skipped: {res}"]
            rows.append(_fits_row(sec.name, method, src.replication,
                                  1 << src.problem.r, objective=notes[0]))
        else:
            notes = res.warnings
            fits[method] = res
            rows.append(fit_csv_row(sec.name, src.replication, res))
        label = " ".join(str(x) for x in (method, src.replication) if x != "")
        for note in notes:
            print(f"[{sec.name}] {label}: {note}", file=sys.stderr)
    return fits, rows


def run_experiment(config: ExperimentConfig, output_dir=None) -> dict:
    """Execute every section and write the CSV outputs.

    Returns {name: path} for the files written.  Every section's counts
    are read, and every synthetic replication realized, before any fit;
    the fits then run in batches (see ``_fit_all``), and each synthetic
    replication's primary fit is re-realized afterwards.  Seeds depend
    only on the section and the replication, so the output is what fitting
    one source at a time gives.  Rows are sorted by (graph, method,
    replication); synthetic sections contribute per-replication parameter
    rows, relative feature differences for both the fitted expectations
    and a re-realization, feature distributions, and a median summary
    against the generating truth.
    """
    output_dir = Path(output_dir or config.output_dir or "experiment-out")
    output_dir.mkdir(parents=True, exist_ok=True)

    fit_rows = []
    diff_rows = []
    dist_rows = []
    summary_rows = []

    sources = []
    for section in config.sections:
        if section.synthetic:
            draws = [(k, count_features(generate(section.params,
                                                 section.seed + k)))
                     for k in range(section.replications)]
        else:
            obs, notes = ((read_counts_json(section.counts), [])
                          if section.graph is None
                          else _count_graph(section.graph))
            for note in notes:
                print(f"[{section.name}] source: {note}", file=sys.stderr)
            fit_rows.append(_fits_row(
                section.name, "source", "", obs.vertices,
                **{name: obs.get(name) for name in FEATURE_NAMES}))
            draws = [("", obs)]
        for k, obs in draws:
            r = fit_power(obs, section.r)
            problem = FitProblem(obs, r, section.seed, section.starts)
            sources.append(_Source(section, k, problem))
    outcomes = _fit_all(sources)

    fitted = {}  # synthetic section name -> its primary fits' params
    for i, src in enumerate(sources):
        fits, rows = _fit_rows(src, outcomes, i)
        fit_rows.extend(rows)
        section, k, obs = src.section, src.replication, src.problem.obs
        if not section.synthetic:
            continue
        params = fitted.setdefault(section.name, [])
        # the primary fit is the first listed method that produced one;
        # without it there is nothing to re-realize
        primary = next((fits[m] for m in section.methods if m in fits), None)
        if primary is None:
            continue
        p = primary.params
        params.append(p)
        reobs = count_features(generate(p, section.seed + k
                                        + _REREALIZE_SEED_GAP))
        exp_fit = primary.expected
        for name in FEATURE_NAMES:
            truth = obs.get(name)
            if truth:
                d_fit = (truth - exp_fit.get(name)) / truth
                d_regen = (truth - reobs.get(name)) / truth
            else:
                d_fit = d_regen = ""
            diff_rows.append({
                "graph": section.name, "replication": k, "feature": name,
                "rel_diff_fit": d_fit, "rel_diff_regen": d_regen,
            })
        for kind, counts in (
            ("realized", obs),
            ("expected_at_fit", exp_fit),
            ("re_realized", reobs),
        ):
            row = {"graph": section.name, "replication": k, "kind": kind}
            for name in FEATURE_NAMES:
                row[name] = counts.get(name)
            dist_rows.append(row)

    for section in config.sections:
        if not section.synthetic:
            continue
        truth = section.params
        summary = {
            "graph": section.name,
            "replications": section.replications,
            "true_a": truth.a, "true_b": truth.b, "true_c": truth.c,
        }
        for key in "abc":
            values = [getattr(p, key) for p in fitted[section.name]]
            summary[f"median_{key}"] = (
                f"{_median(values):.10g}" if values else "")
        summary_rows.append(summary)
    def _row_key(row):
        rep = row["replication"]
        return (row["graph"], row["fit_type"],
                (1, int(rep)) if rep != "" else (0, 0))

    fit_rows.sort(key=_row_key)
    written = {}

    def _write(name, columns, rows):
        out = output_dir / name
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns,
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        written[name] = out

    _write("fits.csv", FIT_CSV_COLUMNS, fit_rows)
    if summary_rows:
        _write("feature_diffs.csv",
               ("graph", "replication", "feature",
                "rel_diff_fit", "rel_diff_regen"), diff_rows)
        _write("features.csv",
               ("graph", "replication", "kind") + FEATURE_NAMES, dist_rows)
        _write("summary.csv",
               ("graph", "replications", "true_a", "true_b", "true_c",
                "median_a", "median_b", "median_c"), summary_rows)
    return written
