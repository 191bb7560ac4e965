"""kronmoments benchmark: drives the CLI on fixed workloads and checks it.

    python3 bench/run.py --workload reffits|synthetic|ingest|all \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Inputs are built from ``--seed``.
Jobs run one after another, each in a fresh single-threaded process
(``job.py``), until ``--seconds`` have passed; at least one job runs.

With ``--trace 0`` the result reports the end-to-end metrics: ``job_s``
(median wall seconds of the CLI calls), ``setup_s`` (median seconds from
process start through ``import kronmoments.cli``) and ``peak_rss_mb``
(median peak resident memory of a job).  With ``--trace 1`` each traced
job is paired with an untraced one, and the result reports the per-layer
metrics of ``spans.PER_LAYER`` (medians over the traced jobs) plus the
tracing overhead.  Failed output checks, nonzero exits and crashes are
counted in ``failed`` against ``attempted``; ``fail_frac`` is their ratio.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (provenance, input sizes, every sample).  ``--smoke`` shrinks
every workload to a few seconds for a quick end-to-end check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy
import scipy

from spans import PER_LAYER, analyse, median_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 5
# every run must end well inside three minutes
RUN_LIMIT_S = 170.0

# one process, one thread: no worker pool, no BLAS or OpenMP threads
JOB_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}


def _job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KRONMOMENTS_WORKERS"}
    env.update(JOB_ENV)
    return env


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds of fresh processes that only import kronmoments.cli.

    One untimed import first writes the bytecode cache, which users pay
    once per install, not per call.
    """
    argv = [sys.executable, "-c", "import kronmoments.cli"]
    env = _job_env()
    subprocess.run(argv, env=env, check=True, cwd=ROOT)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return times


def _show_stderr(job: Path) -> None:
    """Echo a failed job's stderr, whose directory is deleted afterwards."""
    path = job / "stderr.txt"
    if path.is_file():
        sys.stderr.write(path.read_text("utf-8", errors="replace")[-4000:])


def run_job(workload, job: Path, trace: bool, timeout: float) -> dict:
    """One job in a fresh process; returns its result plus check outcomes."""
    job.mkdir()
    steps = workload.steps(job)
    plan = {"src": str(SRC), "trace": trace, "result": str(job / "result.json"),
            "spans": str(job / "spans.json"),
            "steps": [{"argv": argv, "stdout": str(out)} for argv, out in steps]}
    plan_path = job / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        with open(job / "stderr.txt", "w", encoding="utf-8") as err:
            subprocess.run([sys.executable, str(HERE / "job.py"),
                            str(plan_path)], env=_job_env(), cwd=ROOT,
                           stderr=err, timeout=timeout, check=True)
        result = json.loads((job / "result.json").read_text("utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        result = {"job_s": None, "checks": [(f"job ran: {exc}", False)]}
        _show_stderr(job)
        return result
    checks = [(f"exit code of {' '.join(s['argv'][:1])}", s["exit_code"] == 0)
              for s in result["steps"]]
    try:
        checks += workload.check(job)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.append((f"outputs readable: {exc!r}", False))
    result["checks"] = checks
    if not all(ok for _, ok in checks):
        _show_stderr(job)
    if trace:
        result["layers"] = analyse(json.loads(
            (job / "spans.json").read_text("utf-8")))
    return result


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": 1,  # jobs run with KRONMOMENTS_WORKERS unset
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, work_root: Path) -> dict:
    started = perf_counter()
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        t0 = perf_counter()
        workload = WORKLOADS[name](ROOT, work, seed, smoke)
        prepare_s = perf_counter() - t0
        setup = measure_setup(1 if smoke else SETUP_REPEATS)

        plain, traced, checks = [], [], []
        deadline = perf_counter() + seconds
        while True:
            round_start = perf_counter()
            for is_traced in ((False, True) if trace else (False,)):
                timeout = RUN_LIMIT_S - (perf_counter() - started)
                job = run_job(workload, work / f"job{len(plain) + len(traced)}",
                              is_traced, timeout)
                checks += job["checks"]
                (traced if is_traced else plain).append(job)
            now = perf_counter()
            # stop at the deadline, or before a round that would overrun
            if now >= deadline or \
                    (now - started) + (now - round_start) > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok_plain = [j for j in plain if j["job_s"] is not None]
    ok_traced = [j for j in traced if j["job_s"] is not None]
    failed = [label for label, ok in checks if not ok]
    metrics = {}
    if not trace and ok_plain:
        metrics["job_s"] = statistics.median(j["job_s"] for j in ok_plain)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = statistics.median(
            j["peak_rss_mb"] for j in ok_plain)
    elif trace and ok_plain and ok_traced:
        metrics = median_metrics([j["layers"] for j in ok_traced])
        metrics["trace.overhead_s"] = (
            statistics.median(j["job_s"] for j in ok_traced)
            - statistics.median(j["job_s"] for j in ok_plain))
    units = dict(END_TO_END) | {m: u for m, u, _ in PER_LAYER}
    return {
        "workload": name,
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "details": {
            "sizes": workload.sizes,
            "prepare_s": prepare_s,
            "setup_s_samples": setup,
            "job_s_samples": [j["job_s"] for j in plain],
            "traced_job_s_samples": [j["job_s"] for j in traced],
            "peak_rss_mb_samples": [j.get("peak_rss_mb") for j in plain],
            "step_s": [[s["seconds"] for s in j.get("steps", [])]
                       for j in plain],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a quick end-to-end check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "kronmoments" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 1

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                            args.smoke, work_root) for n in names]

    for rep in reports:
        details = rep["details"]
        print(f"== {rep['workload']} (seed {args.seed}: "
              f"{len(details['job_s_samples'])} jobs, "
              f"{len(details['traced_job_s_samples'])} traced)")
        for key, m in rep["metrics"].items():
            print(f"   {key:42s} {m['value']:.6g} {m['unit']}")
        print(f"   {'fail_frac':42s} {rep['failed'] / rep['attempted']:.6g} "
              f"({rep['failed']} of {rep['attempted']} checks)")
        for label in rep["failed_checks"]:
            print(f"   FAILED: {label}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args.seed),
                      "workloads": {r["workload"]: r["details"]
                                    for r in reports}}))

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports
                   for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
