"""The three benchmark workloads: inputs, CLI steps and output checks.

Each workload's constructor builds its inputs once per run from the
benchmark seed; every job then runs ``steps`` into a fresh directory and
``check`` reads what it wrote.  Checks compare against oracles computed outside
kronmoments or against values recorded at the first benchmarked commit,
with tolerances any correct implementation meets.

Why these workloads (the layer each isolates):

- reffits: the reference-fits experiment over eight published count
  fixtures.  Fit-only work, no parsing or sampling, so ``estimator`` and
  ``moments`` do almost all of it.
- synthetic: a synthetic experiment section at the paper's initiator plus
  one ``generate`` to a file.  The O(4^r) coin-flip sweep dominates, so
  ``generator`` does most of the work; the write path is covered too.
- ingest: ``features`` on a large messy edge list, then ``fit`` on the
  counts.  Parsing, graph build and triangle counting dominate, so
  ``graph_io`` and ``features`` do most of the work.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from inputs import edge_moments, ingest_graph

HERE = Path(__file__).resolve().parent
REFERENCE_FITS = HERE / "reference_fits.json"

PARAM_ABS_TOL = 1e-6
OBJECTIVE_REL_TOL = 1e-9
SIGMAS = 6.0

SYNTHETIC_PARAMS = (0.99, 0.48, 0.25)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _valid_params(a: float, b: float, c: float) -> bool:
    return all(0.0 <= v <= 1.0 for v in (a, b, c)) and a >= c


class Reffits:
    name = "reffits"

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(root / "configs" / "reference-fits.cfg", encoding="utf-8")
        if smoke:
            for section in parser.sections():
                if section not in ("ca-GrQc", "usroads"):
                    parser.remove_section(section)
                else:
                    parser[section]["methods"] = "grid,leading"
        for section in parser.sections():
            parser[section]["seed"] = str(seed)
        self.config = work / "reffits.cfg"
        with open(self.config, "w", encoding="utf-8") as fh:
            parser.write(fh)
        self.expected_rows = {}
        self.sources = {}
        reference = json.loads(REFERENCE_FITS.read_text(encoding="utf-8"))
        for section in parser.sections():
            fixture = root / parser[section]["counts"]
            self.sources[section] = json.loads(fixture.read_text("utf-8"))
            for method in parser[section]["methods"].split(","):
                self.expected_rows[(section, method.strip())] = \
                    reference[section][method.strip()]
        self.sizes = {
            "lines": 0, "cells": 0, "sections": len(self.sources),
            "fits": len(self.expected_rows),
            "vertices": sum(c["vertices"] for c in self.sources.values()),
            "edges": sum(c["edges"] for c in self.sources.values()),
        }

    def steps(self, job: Path) -> list:
        return [(["experiment", str(self.config), "--out", str(job / "out")],
                 job / "experiment.out")]

    def check(self, job: Path) -> list[tuple[str, bool]]:
        rows = {(r["graph"], r["fit_type"]): r
                for r in _read_csv(job / "out" / "fits.csv")}
        results = []
        for graph, counts in self.sources.items():
            row = rows.get((graph, "source"), {})
            same = all(str(row.get(k)) == str(counts[k]) for k in
                       ("edges", "hairpins", "tripins", "triangles"))
            same = same and str(row.get("verts")) == str(counts["vertices"])
            results.append((f"{graph} source row", same))
        for (graph, method), ref in self.expected_rows.items():
            results.append((f"{graph} {method} fit",
                            _matches_reference(rows.get((graph, method)), ref)))
        extra = set(rows) - set(self.expected_rows) - {
            (g, "source") for g in self.sources}
        results.append(("no unexpected fit rows", not extra))
        return results


def _matches_reference(row: dict | None, ref: dict) -> bool:
    if row is None:
        return False
    if "skipped" in ref:
        return row["objective"].startswith("skipped")
    try:
        got = [float(row[k]) for k in ("a", "b", "c", "objective")]
    except ValueError:
        return False
    params_ok = all(abs(g - ref[k]) <= PARAM_ABS_TOL
                    for g, k in zip(got, ("a", "b", "c")))
    return params_ok and math.isclose(got[3], ref["objective"],
                                      rel_tol=OBJECTIVE_REL_TOL, abs_tol=0.0)


class Synthetic:
    name = "synthetic"
    replications = 2

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.seed = seed
        self.r = 8 if smoke else 13
        a, b, c = SYNTHETIC_PARAMS
        self.config = work / "synthetic.cfg"
        self.config.write_text(
            "[synthetic]\n"
            f"params = {a},{b},{c}\n"
            f"r = {self.r}\n"
            f"replications = {self.replications}\n"
            "methods = best\n"
            f"seed = {seed}\n",
            encoding="utf-8")
        self.mean, self.sd = edge_moments(a, b, c, self.r)
        sweeps = 2 * self.replications + 1
        self.sizes = {"lines": 0, "cells": sweeps * 4 ** self.r,
                      "sweeps": sweeps, "vertices": 1 << self.r,
                      "edges": round(self.mean)}  # expected, per sweep

    def steps(self, job: Path) -> list:
        a, b, c = SYNTHETIC_PARAMS
        return [
            (["experiment", str(self.config), "--out", str(job / "out")],
             job / "experiment.out"),
            (["generate", "--a", str(a), "--b", str(b), "--c", str(c),
              "--r", str(self.r), "--seed", str(self.seed),
              "--out", str(job / "sample.txt")], job / "generate.out"),
        ]

    def _edges_plausible(self, edges: float) -> bool:
        return abs(edges - self.mean) <= SIGMAS * self.sd

    def check(self, job: Path) -> list[tuple[str, bool]]:
        out = job / "out"
        results = []
        realized = [r for r in _read_csv(out / "features.csv")
                    if r["kind"] == "realized"]
        results.append(("one realization per replication",
                        len(realized) == self.replications))
        for row in realized:
            results.append((f"replication {row['replication']} edges within "
                            f"{SIGMAS:g} sd", self._edges_plausible(
                                float(row["edges"]))))
        fits = [r for r in _read_csv(out / "fits.csv")
                if r["fit_type"] == "best"]
        results.append(("one best fit per replication",
                        len(fits) == self.replications))
        for row in fits:
            try:
                a, b, c, obj = (float(row[k]) for k in
                                ("a", "b", "c", "objective"))
                ok = _valid_params(a, b, c) and math.isfinite(obj) and obj >= 0
            except ValueError:
                ok = False
            results.append((f"replication {row['replication']} fit valid", ok))
        results.append(("summary written",
                        len(_read_csv(out / "summary.csv")) == 1))
        results.extend(self._check_sample(job / "sample.txt"))
        return results

    def _check_sample(self, path: Path) -> list[tuple[str, bool]]:
        a, b, c = SYNTHETIC_PARAMS
        header = []
        pairs = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    header.extend(line[1:].split())
                else:
                    u, v = line.split()
                    pairs.append((int(u), int(v)))
        wanted = {f"a={a}", f"b={b}", f"c={c}", f"r={self.r}",
                  f"seed={self.seed}"}
        n = 1 << self.r
        canonical = all(0 <= u < v < n for u, v in pairs) and all(
            p < q for p, q in zip(pairs, pairs[1:]))
        return [
            ("sample header records parameters and seed",
             wanted <= set(header)),
            ("sample ascending, u < v, no duplicates", canonical),
            (f"sample edges within {SIGMAS:g} sd",
             self._edges_plausible(len(pairs))),
        ]


class Ingest:
    name = "ingest"

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.seed = seed
        lines, labels = (5_000, 1_000) if smoke else (1_000_000, 200_000)
        text, self.oracle, sizes = ingest_graph(seed, lines, labels)
        self.graph = work / "graph.txt"
        self.graph.write_text(text, encoding="utf-8")
        self.sizes = dict(sizes, vertices=self.oracle["vertices"],
                          edges=self.oracle["edges"], cells=0)

    def steps(self, job: Path) -> list:
        counts = job / "counts.json"
        return [
            (["features", str(self.graph)], counts),
            (["fit", str(counts), "--method", "best",
              "--seed", str(self.seed)], job / "fit.json"),
        ]

    def check(self, job: Path) -> list[tuple[str, bool]]:
        counts = json.loads((job / "counts.json").read_text("utf-8"))
        results = [("features equal the oracle", counts == self.oracle)]
        fit = json.loads((job / "fit.json").read_text("utf-8"))
        results.append(("fit uses the smallest r with 2^r >= vertices",
                        fit["r"] == (self.oracle["vertices"] - 1).bit_length()))
        p = fit["params"]
        a, b, c = p["a"], p["b"], p["c"]
        results.append(("fit parameters valid", _valid_params(a, b, c)))
        mean, _ = edge_moments(Fraction(a), Fraction(b), Fraction(c), fit["r"])
        results.append(("fit expected edges match the closed form",
                        math.isclose(fit["expected"]["edges"], float(mean),
                                     rel_tol=1e-9)))
        objective = sum(((self.oracle[f] - fit["expected"][f])
                         / self.oracle[f]) ** 2
                        for f in ("edges", "hairpins", "tripins", "triangles"))
        results.append(("fit objective is the dsq-f2 sum of its expectations",
                        math.isclose(fit["objective"], objective,
                                     rel_tol=1e-9)))
        return results


WORKLOADS = {w.name: w for w in (Reffits, Synthetic, Ingest)}
