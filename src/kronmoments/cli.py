"""Command-line surface: features, expected, fit, generate, experiment.

Exit codes: 0 success, 1 user error (bad flags, unreadable or malformed
input, or input too big for memory), 2 internal error.  Every command is
deterministic given its flags and --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import traceback
from pathlib import Path

from .estimator import (
    FIT_METHODS,
    FitFailure,
    FitProblem,
    ObjectiveSpec,
    _one,
)
from .experiment import (
    _count_graph,
    fit_csv_row,
    fit_power,
    parse_experiment_config,
    parse_features,
    run_experiment,
    FIT_CSV_COLUMNS,
)
from .features import FeatureCounts, read_counts_json
from .generator import MAX_GENERATE_POWER, generate_to_file
from .moments import (
    FEATURE_NAMES,
    KroneckerParams,
    dominance_exponent,
    expected_features,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; user errors are exit code 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kronmoments",
                     description="Moment-based fitting and exact sampling "
                                 "of stochastic Kronecker graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    initiator = argparse.ArgumentParser(add_help=False)
    for flag in ("--a", "--b", "--c"):
        initiator.add_argument(flag, type=float, required=True)
    initiator.add_argument("--r", type=int, required=True)

    p = sub.add_parser("features", help="count features of an edge-list file")
    p.set_defaults(run=_cmd_features)
    p.add_argument("graph", help="edge-list path ('#' comments, 'u v' lines)")

    p = sub.add_parser("expected", parents=[initiator],
                       help="closed-form expected feature counts")
    p.set_defaults(run=_cmd_expected)

    p = sub.add_parser("fit", help="fit (a, b, c) to a graph or counts JSON")
    p.set_defaults(run=_cmd_fit)
    p.add_argument("source", help="edge-list path, or a JSON counts file "
                                  "as produced by the features command")
    p.add_argument("--objective", default="dsq-f2",
                   help="objective code: dsq-f2, dsq-f, dsq-e, dsq-e2, "
                        "dabs-f, dabs-e (default dsq-f2)")
    p.add_argument("--method", default="best", choices=tuple(FIT_METHODS))
    p.add_argument("--features", default=",".join(FEATURE_NAMES),
                   help="comma-separated feature subset (3 features -> "
                        "cross-validated partial fit)")
    p.add_argument("--r", type=int, default=None,
                   help="Kronecker power (default: smallest r with "
                        "2^r >= vertices)")
    p.add_argument("--starts", type=int, default=50)
    p.add_argument("--grid-points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="json", choices=("json", "csv", "both"))

    p = sub.add_parser("generate", parents=[initiator],
                       help="sample a graph exactly by "
                       f"grass-hopping (r <= {MAX_GENERATE_POWER})")
    p.set_defaults(run=_cmd_generate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output edge-list path")

    p = sub.add_parser("experiment", help="run a batch experiment config")
    p.set_defaults(run=_cmd_experiment)
    p.add_argument("config", help="sectioned key=value config file")
    p.add_argument("--out", default=None, help="output directory "
                   "(default: config 'output' key or ./experiment-out)")
    return parser


def _load_counts_source(source: str) -> FeatureCounts:
    """Feature counts from a path: an edge list or a counts JSON."""
    path = Path(source)
    if not path.exists():
        raise ValueError(f"no such file: {source}")
    if path.suffix == ".json":
        return read_counts_json(path)
    counts, notes = _count_graph(path)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return counts


def _cmd_features(args) -> int:
    counts = _load_counts_source(args.graph)
    print(json.dumps(counts.to_dict()))
    return 0


def _cmd_expected(args) -> int:
    params = KroneckerParams(args.a, args.b, args.c, args.r)
    exp = expected_features(params)
    dom = dominance_exponent(params)
    if not dom.lead_dominant:
        print(
            f"note: alpha = {dom.alpha:.4g} <= 1/2; lead closed-form terms "
            "are not safely dominant at this size",
            file=sys.stderr,
        )
    print(json.dumps({
        "a": params.a, "b": params.b, "c": params.c, "r": params.r,
        "E": exp.e_edges, "H": exp.e_hairpins, "T": exp.e_tripins,
        "Tri": exp.e_triangles,
        "alpha": dom.alpha if math.isfinite(dom.alpha) else None,
    }, allow_nan=False))
    return 0


def _cmd_fit(args) -> int:
    counts = _load_counts_source(args.source)
    r = fit_power(counts, args.r)
    spec = ObjectiveSpec.from_code(args.objective,
                                   features=parse_features(args.features))
    result = _one(args.method, FitProblem(counts, r, args.seed, args.starts),
                  spec, args.grid_points)
    for note in result.warnings:  # under every --format, as features' notes
        print(f"note: {note}", file=sys.stderr)
    payload = result.to_dict()
    payload["r"] = r
    payload["objective_spec"] = spec.code
    if args.format in ("json", "both"):
        print(json.dumps(payload, allow_nan=False))
    if args.format in ("csv", "both"):
        writer = csv.DictWriter(sys.stdout, FIT_CSV_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerow(fit_csv_row(Path(args.source).name, "", result))
    return 0


def _cmd_generate(args) -> int:
    params = KroneckerParams(args.a, args.b, args.c, args.r)
    out = generate_to_file(params, args.seed, args.out)
    print(str(out))
    return 0


def _cmd_experiment(args) -> int:
    config = parse_experiment_config(args.config)
    written = run_experiment(config, output_dir=args.out)
    for name in sorted(written):
        print(str(written[name]))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.run(args)
    except (FitFailure, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
