import csv
import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kronmoments.cli import main
from kronmoments.moments import KroneckerParams
from oracles import brute_force_expected

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_features_k3(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, "features", str(path))
    assert code == 0
    assert json.loads(out) == {
        "vertices": 3, "edges": 3, "hairpins": 3, "tripins": 0, "triangles": 1
    }


def test_features_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, _ = run(capsys, "features", str(path))
    assert code == 0
    assert json.loads(out) == {
        "vertices": 0, "edges": 0, "hairpins": 0, "tripins": 0, "triangles": 0
    }


def test_features_reports_drops_on_stderr(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("1 2\n2 1\n3 3\n")
    code, out, err = run(capsys, "features", str(path))
    assert code == 0
    assert "1 loop" in err and "1 duplicate" in err
    assert "isolated" in err


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_features_plain_file_with_a_compressed_name(tmp_path, capsys,
                                                    suffix):
    # a graph file is plain text whatever its name: its suffix picks no
    # decompressor
    twin = tmp_path / "g.txt"
    twin.write_text("1 2\n2 3\n1 3\n3 4\n")
    named = tmp_path / f"g{suffix}"
    named.write_bytes(twin.read_bytes())
    want = run(capsys, "features", str(twin))
    assert want[0] == 0
    assert run(capsys, "features", str(named)) == want


def test_features_gzip_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "g.gz"
    path.write_bytes(gzip.compress(b"1 2\n2 3\n1 3\n"))
    code, out, err = run(capsys, "features", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:1: ")
    assert err.count("\n") == 1


def test_expected_complete_graph(capsys):
    code, out, _ = run(capsys, "expected", "--a", "1", "--b", "1",
                       "--c", "1", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert (data["E"], data["H"], data["T"], data["Tri"]) == (6, 12, 4, 4)
    assert data["alpha"] == 1.0


def test_expected_zero_offdiagonal(capsys):
    code, out, err = run(capsys, "expected", "--a", "0.9", "--b", "0",
                         "--c", "0.4", "--r", "6")
    assert code == 0
    data = json.loads(out)
    assert (data["E"], data["H"], data["T"], data["Tri"]) == (0, 0, 0, 0)
    assert "alpha" in err  # lead-term dominance note


def _reject_constant(name):
    raise ValueError(f"non-strict JSON token {name}")


def test_expected_infinite_alpha_is_null(capsys):
    # at a = c = 0 the dominance exponent is infinite
    code, out, _ = run(capsys, "expected", "--a", "0", "--b", "0.5",
                       "--c", "0", "--r", "3")
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["alpha"] is None
    assert data["E"] == pytest.approx(0.5)


def test_expected_matches_brute_force(capsys):
    code, out, _ = run(capsys, "expected", "--a", "0.83", "--b", "0.41",
                       "--c", "0.27", "--r", "5")
    assert code == 0
    data = json.loads(out)
    bf = brute_force_expected(KroneckerParams(0.83, 0.41, 0.27, 5))
    assert data["E"] == pytest.approx(bf.e_edges, rel=1e-10)
    assert data["H"] == pytest.approx(bf.e_hairpins, rel=1e-10)
    assert data["T"] == pytest.approx(bf.e_tripins, rel=1e-10)
    assert data["Tri"] == pytest.approx(bf.e_triangles, rel=1e-10)


def test_fit_counts_json_round_trip(tmp_path, capsys):
    # fitting a counts JSON produced by `features` matches fitting the path
    graph = tmp_path / "g.txt"
    code, _, _ = run(capsys, "generate", "--a", "0.95", "--b", "0.55",
                     "--c", "0.3", "--r", "7", "--seed", "13",
                     "--out", str(graph))
    assert code == 0
    code, out, _ = run(capsys, "features", str(graph))
    counts_path = tmp_path / "counts.json"
    counts_path.write_text(out)
    args = ("--method", "direct", "--starts", "6", "--seed", "5", "--r", "7")
    code, out_path_form, _ = run(capsys, "fit", str(graph), *args)
    assert code == 0
    code, out_json_form, _ = run(capsys, "fit", str(counts_path), *args)
    assert code == 0
    assert json.loads(out_path_form)["params"] == \
        json.loads(out_json_form)["params"]


def test_fit_infinite_objective_is_an_error(tmp_path, capsys):
    # one triangle on two vertices: every expectation of it is 0, so the
    # dsq-e objective is infinite at every point of the grid
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"vertices": 2, "edges": 1, "hairpins": 0,
                                  "tripins": 0, "triangles": 1}))
    code, out, err = run(capsys, "fit", str(counts), "--r", "1",
                         "--method", "grid", "--objective", "dsq-e")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dsq-e" in err and "r = 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "both"])
def test_fit_skips_a_method_with_an_infinite_objective(tmp_path, capsys, fmt):
    # the leading fit's point gives these counts a zero expectation, so
    # its dsq-e objective is infinite and best skips it; direct wins
    counts = tmp_path / "c.json"
    counts.write_text(json.dumps({"vertices": 4, "edges": 2, "hairpins": 2,
                                  "tripins": 6, "triangles": 1}))
    code, out, err = run(capsys, "fit", str(counts), "--r", "2",
                         "--objective", "dsq-e", "--format", fmt)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == (1 if fmt == "json" else 3)
    data = json.loads(lines[0], parse_constant=pytest.fail)
    reason = ("no parameters explain these counts: the dsq-e objective is "
              "infinite at r = 2")
    assert data["diagnostics"]["winner"] == "direct"
    assert data["diagnostics"]["leading"] == {"error": reason}
    assert data["warnings"] == [f"leading fit skipped: {reason}"]
    assert data["objective"] == pytest.approx(12.78, abs=0.01)


def test_fit_csv_output(tmp_path, capsys):
    code, out, _ = run(capsys, "fit", str(FIXTURES / "ca-GrQc.counts.json"),
                       "--method", "leading", "--format", "csv")
    assert code == 0
    assert "\r" not in out and out.endswith("\n")
    header, row = out.strip().splitlines()
    assert header.split(",")[:7] == [
        "graph", "fit_type", "replication", "a", "b", "c", "verts"
    ]
    cells = row.split(",")
    assert cells[1] == "leading"
    assert cells[6] == "8192"
    assert float(cells[4]) == pytest.approx(0.488, abs=0.005)


def test_fit_csv_output_quotes_the_source_name(tmp_path, capsys):
    source = tmp_path / "grqc,v2.json"
    source.write_text((FIXTURES / "ca-GrQc.counts.json").read_text())
    code, out, _ = run(capsys, "fit", str(source), "--method", "leading",
                       "--format", "both")
    assert code == 0
    header, row = csv.reader(out.splitlines()[1:])
    assert len(header) == len(row) == 13
    assert row[:2] == ["grqc,v2.json", "leading"]


def test_fit_partial_cross_validation(capsys):
    code, out, _ = run(capsys, "fit", str(FIXTURES / "ca-GrQc.counts.json"),
                       "--features", "edges,hairpins,tripins",
                       "--starts", "20", "--grid-points", "21")
    assert code == 0
    data = json.loads(out)
    assert data["held_out"] == "triangles"
    assert data["objective"] == pytest.approx(0.011, abs=0.003)


def test_fit_negative_seed_is_an_error(tmp_path, capsys):
    code, out, err = run(capsys, "fit", str(FIXTURES / "ca-GrQc.counts.json"),
                         "--method", "direct", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be >= 0\n")
    # and so is a generator seed, before its file is created
    code, out, err = run(capsys, "generate", "--a", "0.9", "--b", "0.5",
                         "--c", "0.2", "--r", "3", "--seed", "-1",
                         "--out", str(tmp_path / "g.txt"))
    assert (code, out, err) == (1, "", "error: seed must be >= 0\n")
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("seed, error", [
    (-5, "seed must be >= 0"),
    (2 ** 64, f"seed must be <= {2 ** 64 - 1}"),
    # 2^64 + 5 once sampled seed 5's graph under a header naming it
    (2 ** 64 + 5, f"seed must be <= {2 ** 64 - 1}"),
    (2 ** 64 - 1, None),
    (0, None),
])
def test_generate_seed_must_fit_64_bits(tmp_path, capsys, seed, error):
    out_path = tmp_path / "g.txt"
    code, out, err = run(capsys, "generate", "--a", "0.9", "--b", "0.5",
                         "--c", "0.2", "--r", "5", f"--seed={seed}",
                         "--out", str(out_path))
    if error is None:
        assert (code, out, err) == (0, f"{out_path}\n", "")
        assert f"seed={seed}\n" in out_path.read_text()
    else:
        assert (code, out, err) == (1, "", f"error: {error}\n")
        assert not out_path.exists()


def test_fit_feature_list_drops_blank_tokens(capsys):
    args = ("fit", str(FIXTURES / "ca-GrQc.counts.json"), "--method", "grid",
            "--grid-points", "11", "--features")
    code, out, _ = run(capsys, *args, "edges,hairpins,tripins,")
    assert code == 0
    code, want, _ = run(capsys, *args, "edges,hairpins,tripins")
    assert code == 0
    got, want = json.loads(out), json.loads(want)
    got.pop("elapsed"), want.pop("elapsed")
    assert got == want
    code, out, err = run(capsys, *args, "edges,hairpins,bogus,")
    assert (code, out, err) == (1, "", "error: unknown feature 'bogus'\n")


def test_fit_deterministic_given_seed(capsys):
    args = ("fit", str(FIXTURES / "ca-GrQc.counts.json"),
            "--method", "direct", "--starts", "6", "--seed", "31")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert code == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed"), d2.pop("elapsed")
    assert d1 == d2


def python(*args):
    """Run the interpreter on ``args`` with the package importable."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=30)


def test_module_entry_point(tmp_path):
    proc = python("-m", "kronmoments", "expected",
                  "--a", "1", "--b", "1", "--c", "1", "--r", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["E"] == 6.0


def test_cli_import_leaves_scipy_unloaded():
    proc = python("-c", "import sys, kronmoments.cli; "
                        "print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


def test_commands_leave_scipy_unloaded(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n2 3\n1 3\n3 4\n")
    config = tmp_path / "exp.cfg"
    config.write_text("[syn]\nparams = 0.99,0.48,0.25\nr = 8\n"
                      "methods = best\nstarts = 2\ngrid_points = 5\n")
    proc = python("-c", """
import sys
from kronmoments.cli import main
def loaded(package):
    return {m for m in sys.modules
            if m == package or m.startswith(package + '.')}
# numpy 1.x imports numpy.random and numpy.ma with numpy itself; 2.x only
# on first use
before = loaded('numpy.random') | loaded('numpy.ma')
codes = [main(["features", sys.argv[1]]),
         main(["experiment", sys.argv[2], "--out", sys.argv[3]]),
         main(["generate", "--a", "0.99", "--b", "0.48", "--c", "0.25",
               "--r", "8", "--seed", "1", "--out", sys.argv[4]])]
print(codes, sorted(loaded('scipy')), sorted(loaded('numpy.random') - before),
      sorted(loaded('numpy.ma') - before), file=sys.stderr)
""", str(graph), str(config), str(tmp_path / "out"), str(tmp_path / "g8.txt"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["triangles"] == 1
    assert (tmp_path / "out" / "fits.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "g8.txt").exists()
    # the direct fit draws its starts without importing numpy.random, and
    # the summary's median and the sampler import no numpy.ma
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0] [] [] []"


# one triangle on two vertices: no parameters give it a nonzero expectation
UNEXPLAINABLE = {"vertices": 2, "edges": 1, "hairpins": 0, "tripins": 0,
                 "triangles": 1}


@pytest.mark.parametrize("method, message", [
    ("direct", "all 2 starts produced a non-finite objective"),
    ("best", "no parameters explain these counts: the dsq-e objective is "
             "infinite at r = 1"),
])
def test_unexplainable_counts_fail_fast(tmp_path, method, message):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(UNEXPLAINABLE))
    argv = ["-m", "kronmoments", "fit", str(counts), "--objective", "dsq-e",
            "--r", "1", "--method", method]
    if method == "direct":
        argv += ["--starts", "2"]
    proc = python(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("r", ["-1", "61"])
def test_fit_power_out_of_range(r):
    proc = python("-m", "kronmoments", "fit",
                  str(FIXTURES / "ca-GrQc.counts.json"), "--r", r,
                  "--method", "grid")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: r={r} outside [0, 60]\n"


def test_experiment_power_out_of_range(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(f"[grqc]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
                      "methods = grid\nr = -1\n")
    proc = python("-m", "kronmoments", "experiment", str(config),
                  "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: [grqc] r=-1 outside [0, 60]\n"
    assert not (tmp_path / "out").exists()


# 4E^2 = 4 < 2H = 200: the leading-term system has no real solution
LEADING_INFEASIBLE = {"vertices": 100, "edges": 1, "hairpins": 100,
                      "tripins": 0, "triangles": 0}


@pytest.mark.parametrize("argv, message", [
    (["--method", "grid", "--grid-points", "1"],
     "grid_points must be >= 2"),
    (["--method", "leading"], "4E^2 = 4 < 2H = 200: no real-valued solution"),
], ids=["grid-points", "leading-infeasible"])
def test_fit_error_is_one_stderr_line(tmp_path, capsys, argv, message):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(LEADING_INFEASIBLE))
    code, out, err = run(capsys, "fit", str(counts), *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


# Runs the CLI on argv and prints its peak memory in MB (VmHWM) to stderr.
# VmHWM is read as bench/job.py reads it, since ru_maxrss would carry
# over the test process's own peak.
PEAK_SCRIPT = """
import sys
from kronmoments.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(int(hwm) / 1024.0, file=sys.stderr)
sys.exit(code)
"""

needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                 reason="reads VmHWM from /proc/self/status")


@needs_vmhwm
def test_grid_memory_is_bounded():
    # The 201-point lattice has 4.1M points; built whole, as a meshgrid
    # and mask, it peaked near 1 GB.
    proc = python("-c", PEAK_SCRIPT, "fit",
                  str(FIXTURES / "ca-GrQc.counts.json"), "--method", "grid",
                  "--grid-points", "201")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["method"] == "grid"
    assert float(proc.stderr) < 150.0


@needs_vmhwm
def test_triangle_count_memory_is_bounded(tmp_path, capsys):
    # The r = 18 sample has 730k edges.  features peaks near 67 MB: the
    # parse, then the graph with the sorted forward keys and fixed-size
    # chunk buffers.  Counted as a masked sparse product L @ L, it peaked
    # at 194 MB.
    graph = tmp_path / "g18.txt"
    code, _, _ = run(capsys, "generate", "--a", "0.99", "--b", "0.48",
                     "--c", "0.25", "--r", "18", "--seed", "1",
                     "--out", str(graph))
    assert code == 0
    proc = python("-c", PEAK_SCRIPT, "features", str(graph))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["triangles"] == 9947
    assert float(proc.stderr.splitlines()[-1]) < 160.0


def test_generate_deterministic_across_runs(tmp_path, capsys):
    blobs = []
    for run_index in range(3):
        out = tmp_path / f"g{run_index}.txt"
        code, _, _ = run(capsys, "generate", "--a", "0.99", "--b", "0.48",
                         "--c", "0.25", "--r", "9", "--seed", "77",
                         "--out", str(out))
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


# Caps the process's address space at 3 GiB, then runs the CLI on argv.
CAPPED_SCRIPT = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from kronmoments.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="caps the address space with RLIMIT_AS")
def test_generate_too_big_for_memory_is_a_user_error(tmp_path):
    # the complete graph on 2^16 vertices has 2^31 - 2^15 edges, 16 GiB of
    # keys: the key buffer is allocated before the first deviate, so the
    # sample fails at once, and before the file is opened
    out = tmp_path / "g.txt"
    proc = python("-c", CAPPED_SCRIPT, "generate", "--a", "1", "--b", "1",
                  "--c", "1", "--r", "16", "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: the sample's 2.147e+09 expected edges "
                           "need 16 GiB, more memory than can be "
                           "allocated\n")
    assert not out.exists()


def test_out_of_memory_is_a_user_error(tmp_path, capsys, monkeypatch):
    # a MemoryError anywhere in a command is one error line, exit 1; the
    # load is made to raise it, as a real allocation would take the memory
    def no_memory(path):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr("kronmoments.experiment.load_edge_list", no_memory)
    path = tmp_path / "k3.txt"
    path.write_text("1 2\n2 3\n1 3\n")
    code, stdout, err = run(capsys, "features", str(path))
    assert code == 1
    assert stdout == ""
    assert err == ("error: out of memory: Unable to allocate 8.00 GiB for "
                   "an array\n")


def test_generate_beyond_power_bound(tmp_path, capsys):
    out = tmp_path / "g35.txt"
    code, stdout, err = run(capsys, "generate", "--a", "0.5", "--b", "0.3",
                            "--c", "0.2", "--r", "35", "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "r <= 34" in err
    assert "Traceback" not in err and "note" not in err
    assert not out.exists()


def test_generate_large_power(tmp_path, capsys):
    out = tmp_path / "g24.txt"
    code, stdout, err = run(capsys, "generate", "--a", "0.5", "--b", "0.3",
                            "--c", "0.2", "--r", "24", "--out", str(out))
    assert code == 0
    assert stdout.strip() == str(out)
    assert err == ""
    pairs = [tuple(map(int, ln.split("\t")))
             for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert pairs == sorted(set(pairs))
    assert all(0 <= u < v < 1 << 24 for u, v in pairs)


def test_experiment_round_trip(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    outdir = tmp_path / "out"
    config.write_text(
        "[synth]\n"
        "params = 0.95,0.55,0.30\n"
        "r = 7\n"
        "replications = 3\n"
        "objective = dsq-f2\n"
        "methods = best\n"
        "seed = 11\n"
        "starts = 6\n"
        "grid_points = 11\n"
    )
    code, out, _ = run(capsys, "experiment", str(config), "--out", str(outdir))
    assert code == 0
    fits = (outdir / "fits.csv").read_text().splitlines()
    assert len(fits) == 4  # header + 3 replications
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("graph,replications,true_a")

    def strip_timing(path):
        rows = path.read_text().splitlines()
        return [",".join(r.split(",")[:-1]) for r in rows]

    # determinism: a second run gives identical results (timing aside)
    first = strip_timing(outdir / "fits.csv")
    code, _, _ = run(capsys, "experiment", str(config), "--out", str(outdir))
    assert code == 0
    assert strip_timing(outdir / "fits.csv") == first


def test_experiment_counts_source(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    outdir = tmp_path / "out"
    # a whole-number float vertex count is read as an int, so the source
    # row prints it as the fit rows do
    counts = json.loads((FIXTURES / "ca-GrQc.counts.json").read_text())
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps(dict(counts, vertices=8192.0)))
    config.write_text(
        "[grqc]\n"
        f"counts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
        "methods = leading\n"
        "r = 13\n"
        f"[whole]\ncounts = {whole}\nmethods = leading\n"
    )
    code, _, _ = run(capsys, "experiment", str(config), "--out", str(outdir))
    assert code == 0
    rows = (outdir / "fits.csv").read_text().splitlines()
    source = next(r for r in rows if ",source," in r)
    assert "14484" in source
    leading = next(r for r in rows if ",leading," in r)
    assert float(leading.split(",")[4]) == pytest.approx(0.488, abs=0.005)
    assert [r.split(",")[6] for r in rows if r.startswith("whole,")] == [
        "8192", "8192"]


@pytest.mark.parametrize("value", ["NaN", "1e400"])
def test_non_finite_counts_rejected(tmp_path, capsys, value):
    counts = tmp_path / "counts.json"
    counts.write_text('{"vertices": 5242, "edges": %s, "hairpins": 10, '
                      '"tripins": 10, "triangles": 10}' % value)
    code, out, err = run(capsys, "fit", str(counts), "--method", "grid",
                         "--grid-points", "3")
    assert (code, out) == (1, "")
    assert "'edges'" in err and "finite" in err
    config = tmp_path / "exp.cfg"
    config.write_text(f"[x]\ncounts = {counts}\nmethods = grid\n")
    code, _, err = run(capsys, "experiment", str(config),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert "'edges'" in err
    assert not (tmp_path / "out" / "fits.csv").exists()


@pytest.mark.parametrize("counts, features", [
    ('{"vertices": 0, "edges": 0, "hairpins": 0, "tripins": 0, '
     '"triangles": 0}', "edges,hairpins,tripins,triangles"),
    ('{"vertices": 100, "edges": 50, "hairpins": 0, "tripins": 0, '
     '"triangles": 0}', "hairpins,tripins,triangles"),
], ids=["all-zero", "edges-only"])
@pytest.mark.parametrize("method", ["grid", "direct", "best"])
def test_fit_with_no_usable_feature(tmp_path, capsys, counts, features,
                                    method):
    path = tmp_path / "zeros.json"
    path.write_text(counts)
    code, out, err = run(capsys, "fit", str(path), "--method", method,
                         "--features", features, "--starts", "2",
                         "--grid-points", "3")
    assert (code, out) == (1, "")
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("error: nothing to fit") and "'f2'" in err


@pytest.mark.parametrize("method", ["grid", "direct", "best"])
def test_fit_warns_when_underdetermined(tmp_path, capsys, method):
    # tripins and triangles observed as 0 are dropped under f2, leaving
    # two moment equations for three parameters
    path = tmp_path / "two.json"
    path.write_text('{"vertices": 100, "edges": 50, "hairpins": 40, '
                    '"tripins": 0, "triangles": 0}')
    code, out, _ = run(capsys, "fit", str(path), "--method", method,
                       "--starts", "2", "--grid-points", "21")
    assert code == 0
    assert ("only 2 usable features for three parameters: the fit is "
            "underdetermined") in json.loads(out)["warnings"]


@pytest.mark.parametrize("method", ["grid", "direct"])
def test_fit_with_three_features_has_no_underdetermined_warning(
        capsys, method):
    code, out, _ = run(capsys, "fit", str(FIXTURES / "ca-GrQc.counts.json"),
                       "--method", method, "--starts", "2",
                       "--grid-points", "5")
    assert code == 0
    assert not any("underdetermined" in w
                   for w in json.loads(out)["warnings"])


@pytest.mark.parametrize("content, message", [
    ("{not json", "invalid counts JSON"),
    ("[1, 2]", "must be an object, got list"),
    ('{"vertices": 5, "edges": 1, "hairpins": 0, "tripins": 0}',
     "missing key 'triangles'"),
    ('{"vertices": 2.5, "edges": 1, "hairpins": 0, "tripins": 0, '
     '"triangles": 0}', "count 'vertices' must be a whole number, got 2.5"),
    ('{"vertices": 1e300, "edges": 1, "hairpins": 0, "tripins": 0, '
     '"triangles": 0}', "count 'vertices' must be at most 2**60, got 1e+300"),
    ('{"vertices": 8192, "edges": 1e300, "hairpins": 40000, '
     '"tripins": 100000, "triangles": 500}',
     "count 'edges' must be at most 2**240, got 1e+300"),
], ids=["invalid", "list", "missing-key", "fractional-vertices",
        "huge-vertices", "huge-edges"])
def test_bad_counts_json(tmp_path, capsys, content, message):
    counts = tmp_path / "counts.json"
    counts.write_text(content)
    code, out, err = run(capsys, "fit", str(counts), "--method", "grid",
                         "--grid-points", "3")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {counts}: ")
    assert message in err and "Traceback" not in err
    config = tmp_path / "exp.cfg"
    config.write_text(f"[x]\ncounts = {counts}\nmethods = grid\n")
    code, out, err = run(capsys, "experiment", str(config),
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {counts}: ")
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out" / "fits.csv").exists()


def test_features_label_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("1 2\n1 99999999999999999999999\n")
    code, out, err = run(capsys, "features", str(path))
    assert (code, out) == (1, "")
    assert f"{path}:2:" in err and "int64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, line_number", [
    (b"1 2\n# caf\xe9\n2 3\n", 2),
    (b"1 2\n2 3\n3 4\xe9\n", 3),
], ids=["comment", "label"])
def test_features_non_utf8_line_is_named(tmp_path, capsys, text,
                                         line_number):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text)
    code, out, err = run(capsys, "features", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:{line_number}: 'utf-8' codec ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # user errors -> 1
    assert run(capsys, "features", str(tmp_path / "nope.txt"))[0] == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("1 x\n")
    assert run(capsys, "features", str(bad))[0] == 1
    assert run(capsys, "expected", "--a", "2", "--b", "0", "--c", "0",
               "--r", "3")[0] == 1
    assert run(capsys, "--no-such-flag")[0] == 1
    assert run(capsys, "fit", str(FIXTURES / "ca-GrQc.counts.json"),
               "--objective", "dabs-f2")[0] == 1
    config = tmp_path / "broken.cfg"
    config.write_text("[x]\ngraph = /does/not/exist\n")
    assert run(capsys, "experiment", str(config))[0] == 1
    # internal errors -> 2
    import kronmoments.cli as cli_module
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")
    monkeypatch.setattr(cli_module, "generate_to_file", boom)
    code, _, err = run(capsys, "generate", "--a", "0.5", "--b", "0.5",
                       "--c", "0.5", "--r", "3", "--seed", "0",
                       "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "synthetic failure" in err


# each command's usage, whitespace collapsed, and the options its --help
# lists, in order; --a, --b, --c and --r are unbracketed, so required
HELP = {
    "features": ("kronmoments features [-h] graph", ["-h, --help"]),
    "expected": ("kronmoments expected [-h] --a A --b B --c C --r R",
                 ["-h, --help", "--a A", "--b B", "--c C", "--r R"]),
    "fit": ("kronmoments fit [-h] [--objective OBJECTIVE] "
            "[--method {direct,grid,leading,best}] [--features FEATURES] "
            "[--r R] [--starts STARTS] [--grid-points GRID_POINTS] "
            "[--seed SEED] [--format {json,csv,both}] source",
            ["-h, --help", "--objective OBJECTIVE",
             "--method {direct,grid,leading,best}", "--features FEATURES",
             "--r R", "--starts STARTS", "--grid-points GRID_POINTS",
             "--seed SEED", "--format {json,csv,both}"]),
    "generate": ("kronmoments generate [-h] --a A --b B --c C --r R "
                 "[--seed SEED] --out OUT",
                 ["-h, --help", "--a A", "--b B", "--c C", "--r R",
                  "--seed SEED", "--out OUT"]),
    "experiment": ("kronmoments experiment [-h] [--out OUT] config",
                   ["-h, --help", "--out OUT"]),
}


@pytest.mark.parametrize("command", HELP)
def test_help_lists_each_commands_options(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    usage, _, body = out.partition("\n\n")
    options = [line.strip().split("  ")[0] for line in body.splitlines()
               if line.startswith("  -")]
    assert (" ".join(usage.split()), options) == (
        "usage: " + HELP[command][0], HELP[command][1])


@pytest.mark.parametrize("command, extra, usage", [
    ("expected", [],
     "usage: kronmoments expected [-h] --a A --b B --c C --r R\n"),
    ("generate", ["--out", "g.txt"],
     "usage: kronmoments generate [-h] --a A --b B --c C --r R "
     "[--seed SEED] --out\n                            OUT\n"),
])
def test_initiator_without_b_is_a_usage_error(capsys, monkeypatch, command,
                                              extra, usage):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, command, "--a", "1", "--c", "1", "--r", "2",
                         *extra)
    assert (code, out) == (1, "")
    assert err == usage + (f"kronmoments {command}: error: the following "
                           "arguments are required: --b\n")


def test_one_parser_per_process(tmp_path, capsys):
    # features, then fit on its counts, in one process, as a benchmark
    # ingest job runs them: the parser is built once, and each output is
    # the one a freshly built parser gives
    from kronmoments import cli

    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n2 3\n1 3\n3 4\n4 5\n2 4\n5 6\n")
    counts = tmp_path / "counts.json"
    steps = (["features", str(graph)], ["fit", str(counts)])

    def step(argv):
        code, out, err = run(capsys, *argv)
        if argv[0] == "features":
            counts.write_text(out)
        else:  # drop the wall times
            out = json.loads(out, object_hook=lambda d: {
                k: v for k, v in d.items() if k != "elapsed"})
        return code, out, err

    cli._build_parser.cache_clear()
    together = [step(argv) for argv in steps]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in steps:
        cli._build_parser.cache_clear()
        fresh.append(step(argv))
    assert [code for code, _, _ in together] == [0, 0]
    assert together == fresh
