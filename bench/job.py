"""One benchmark job: CLI steps run in this fresh single-threaded process.

    python3 bench/job.py PLAN.json

The plan names the package source directory, whether to trace, the CLI
steps (argv plus a file that receives the step's stdout) and where to
write the result.  ``job_s`` covers only the ``kronmoments.cli.main``
calls: interpreter start and imports are the benchmark's ``setup_s``.
A step that raises is recorded with exit code None, and the later steps
still run.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB.

    ``VmHWM`` is used where the kernel reports it, because Linux carries
    ``ru_maxrss`` over from the parent across fork and exec, so a job
    started by a large benchmark process would inherit its peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import kronmoments.cli

    tracer = None
    if plan["trace"]:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    steps = []
    for step in plan["steps"]:
        with open(step["stdout"], "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            t0 = perf_counter()
            try:
                code = kronmoments.cli.main(step["argv"])
            except Exception:  # a crash is recorded as a failed step
                code = None
                traceback.print_exc()
            t1 = perf_counter()
        steps.append({"argv": step["argv"], "exit_code": code,
                      "seconds": t1 - t0})

    if tracer is not None:
        tracer.dump(plan["spans"])
    result = {
        "job_s": sum(s["seconds"] for s in steps),
        "peak_rss_mb": peak_rss_mb(),
        "steps": steps,
    }
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
