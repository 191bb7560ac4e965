"""End-to-end check of the benchmark on tiny inputs.

    python3 -m pytest bench/test_smoke.py

Kept out of the package's test suite (``testpaths = tests``): it starts
a dozen Python processes and takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def run_bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_reports_every_metric_and_passes_checks():
    workloads = [w["name"] for w in SPEC["workloads"]]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", "all", "--smoke", "--seed", "5",
                         "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {f"{w}.{m['name']}" for w in workloads for m in SPEC[kind]}
        assert set(result["metrics"]) == expected
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name.split(".", 1)[1]]


def test_same_seed_same_inputs(tmp_path):
    sys.path.insert(0, str(HERE))
    from inputs import ingest_graph

    first = ingest_graph(9, 2_000, 300)
    assert ingest_graph(9, 2_000, 300) == first
    assert ingest_graph(10, 2_000, 300)[0] != first[0]


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "reffits", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
