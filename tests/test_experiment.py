import csv
from pathlib import Path

import pytest

from kronmoments.cli import main as cli_main
from kronmoments.experiment import (
    ConfigError,
    ExperimentSection,
    parse_experiment_config,
    run_experiment,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_config_validation(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[x]\nseed = 1\n")
    with pytest.raises(ConfigError, match="needs one of"):
        parse_experiment_config(cfg)
    cfg.write_text("[x]\ngraph = /no/such/file\n")
    with pytest.raises(ConfigError, match="not found"):
        parse_experiment_config(cfg)
    cfg.write_text("[x]\nparams = 0.5,0.5,0.5\n")
    with pytest.raises(ConfigError, match="need r"):
        parse_experiment_config(cfg)
    cfg.write_text("[x]\nparams = 0.5,0.5,0.5\nr = 6\nreplications = 0\n")
    with pytest.raises(ConfigError, match="replications"):
        parse_experiment_config(cfg)
    cfg.write_text("[x]\nparams = 0.5,0.5,0.5\nr = 6\nmethods = annealing\n")
    with pytest.raises(ConfigError, match="unknown method"):
        parse_experiment_config(cfg)
    cfg.write_text(
        f"[x]\nparams = 0.5,0.5,0.5\nr = 6\n"
        f"counts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
    )
    with pytest.raises(ConfigError, match="exactly one"):
        parse_experiment_config(cfg)
    cfg.write_text("not a config at all\n")
    with pytest.raises(ConfigError):
        parse_experiment_config(cfg)
    cfg.write_text("[DEFAULT]\noutput = out\n")
    with pytest.raises(ConfigError, match="defines no experiment sections"):
        parse_experiment_config(cfg)


def test_synthetic_recovery_medians(tmp_path):
    # scaled-down synthetic study: medians of the fitted parameters over
    # 20 realizations stay within 0.05 per coordinate of the truth
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[set-a]\n"
        "params = 0.99,0.48,0.25\n"
        "r = 10\n"
        "replications = 20\n"
        "methods = best\n"
        "seed = 100\n"
        "starts = 10\n"
        "grid_points = 34\n"
        "\n"
        "[set-b]\n"
        "params = 1.0,0.67,0.08\n"
        "r = 10\n"
        "replications = 20\n"
        "methods = best\n"
        "seed = 200\n"
        "starts = 10\n"
        "grid_points = 34\n"
    )
    written = run_experiment(parse_experiment_config(cfg), tmp_path / "out")
    summary = {row["graph"]: row for row in read_rows(written["summary.csv"])}
    for name in ("set-a", "set-b"):
        row = summary[name]
        for key in ("a", "b", "c"):
            err = abs(float(row[f"median_{key}"]) - float(row[f"true_{key}"]))
            assert err <= 0.05, (name, key, row)
    assert abs(float(summary["set-b"]["median_b"]) - 0.67) <= 0.05

    diffs = read_rows(written["feature_diffs.csv"])
    assert {d["feature"] for d in diffs} == {
        "edges", "hairpins", "tripins", "triangles"
    }
    # fitted expectations track each realization's own counts closely
    edge_diffs = [abs(float(d["rel_diff_fit"])) for d in diffs
                  if d["feature"] == "edges" and d["rel_diff_fit"]]
    assert max(edge_diffs) < 0.2

    dist = read_rows(written["features.csv"])
    kinds = {d["kind"] for d in dist}
    assert kinds == {"realized", "expected_at_fit", "re_realized"}


def test_reproduces_reference_table_block(tmp_path):
    # ca-GrQc block: direct, grid (hundredths lattice) and leading rows
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[ca-GrQc]\n"
        f"counts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
        "r = 13\n"
        "methods = direct,grid,leading\n"
        "objective = dsq-f2\n"
        "seed = 0\n"
        "starts = 50\n"
        "grid_points = 101\n"
    )
    written = run_experiment(parse_experiment_config(cfg), tmp_path / "out")
    rows = {row["fit_type"]: row for row in read_rows(written["fits.csv"])}
    assert set(rows) == {"source", "direct", "grid", "leading"}

    source = rows["source"]
    assert source["verts"] == "5242"
    assert source["edges"] == "14484"
    assert source["triangles"] == "48260"

    direct = rows["direct"]
    assert float(direct["a"]) == pytest.approx(1.000, abs=0.005)
    assert float(direct["b"]) == pytest.approx(0.467, abs=0.01)
    assert float(direct["c"]) == pytest.approx(0.279, abs=0.01)
    assert float(direct["objective"]) == pytest.approx(0.989, rel=0.01)
    assert float(direct["verts"]) == 8192

    grid = rows["grid"]
    assert (float(grid["a"]), float(grid["b"]), float(grid["c"])) == \
        pytest.approx((1.0, 0.47, 0.27), abs=1e-9)
    assert float(grid["objective"]) == pytest.approx(0.991, rel=0.01)

    leading = rows["leading"]
    assert float(leading["b"]) == pytest.approx(0.488, abs=0.005)
    assert float(leading["c"]) == pytest.approx(0.229, abs=0.005)
    assert float(leading["objective"]) == pytest.approx(1.138, rel=0.01)
    assert float(leading["tripins"]) == pytest.approx(1.405, rel=0.01)


def test_graph_file_source_and_skipped_leading(tmp_path):
    # a 4-cycle: leading-term system infeasible, row records the skip
    graph = tmp_path / "cycle.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[cycle]\n"
        f"graph = {graph}\n"
        "methods = grid,leading\n"
        "grid_points = 11\n"
    )
    written = run_experiment(parse_experiment_config(cfg), tmp_path / "out")
    rows = {row["fit_type"]: row for row in read_rows(written["fits.csv"])}
    assert rows["source"]["edges"] == "4"
    assert "skipped" in rows["leading"]["objective"]
    assert rows["grid"]["a"] != ""


def test_graph_section_reports_its_load_notes(tmp_path, capsys):
    # two loops, a repeated pair and a vertex with only a loop: the notes
    # features prints, once each, prefixed by the section
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 1\n1 2\n2 0\n0 1\n3 3\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[g]\ngraph = {graph}\nr = 2\nmethods = grid\n")
    run_experiment(parse_experiment_config(cfg), tmp_path / "out")
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("[g] source: ")] == [
        "[g] source: dropped 2 loop(s) and merged 1 duplicate pair(s)",
        "[g] source: retained 1 isolated vertex(es); they count toward the "
        "vertex total",
    ]


def test_tables_end_their_lines_with_newline_alone(tmp_path):
    # every table ends its lines as fit --format csv does, with "\n"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"[grqc]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
        "methods = leading\n\n"
        "[synth]\nparams = 0.99,0.48,0.25\nr = 6\nreplications = 2\n"
        "methods = grid\ngrid_points = 11\n")
    written = run_experiment(parse_experiment_config(cfg), tmp_path / "out")
    assert sorted(written) == ["feature_diffs.csv", "features.csv",
                               "fits.csv", "summary.csv"]
    for path in written.values():
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")


def test_synthetic_sections_skip_like_counts_sections(tmp_path):
    # at a = b = c = 0.5, r = 4 the realized degree variance stays below
    # the degree mean, so the leading-term system is infeasible every time
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[mixed]\n"
        "params = 0.5,0.5,0.5\n"
        "r = 4\n"
        "replications = 2\n"
        "methods = leading,grid\n"
        "grid_points = 11\n"
        "\n"
        "[none]\n"
        "params = 0.5,0.5,0.5\n"
        "r = 4\n"
        "replications = 2\n"
        "methods = leading\n"
    )
    written = run_experiment(parse_experiment_config(cfg), tmp_path / "out")
    rows = read_rows(written["fits.csv"])
    by_key = {(r["graph"], r["fit_type"], r["replication"]): r for r in rows}
    assert sorted(by_key) == [
        ("mixed", "grid", "0"), ("mixed", "grid", "1"),
        ("mixed", "leading", "0"), ("mixed", "leading", "1"),
        ("none", "leading", "0"), ("none", "leading", "1"),
    ]
    for (graph, method, _), row in by_key.items():
        if method == "leading":
            assert row["objective"].startswith("skipped: ")
            assert row["a"] == "" and row["verts"] == "16"
        else:
            assert row["a"] != "" and float(row["objective"]) >= 0.0

    # the grid fit is the primary: re-realized and summarized; the section
    # without any fit contributes no diff rows and empty medians
    diffs = read_rows(written["feature_diffs.csv"])
    assert {(d["graph"], d["replication"]) for d in diffs} == {
        ("mixed", "0"), ("mixed", "1")}
    summary = {row["graph"]: row for row in read_rows(written["summary.csv"])}
    grid_a = sorted(float(by_key[("mixed", "grid", k)]["a"]) for k in "01")
    assert float(summary["mixed"]["median_a"]) == pytest.approx(
        sum(grid_a) / 2)
    assert summary["none"]["median_a"] == ""


@pytest.mark.parametrize("setting, message", [
    ("starts = 0", r"\[x\] starts must be >= 1"),
    ("grid_points = 1", r"\[x\] grid_points must be >= 2"),
    ("seed = x", r"\[x\] seed must be an integer"),
    ("starts = 2.5", r"\[x\] starts must be an integer"),
    ("grid_points = many", r"\[x\] grid_points must be an integer"),
    ("replications = one", r"\[x\] replications must be an integer"),
    ("seed = -1", r"\[x\] seed must be >= 0"),
    ("method = grid\ngrid_point = 11\nstart = 2",
     r"\[x\] unknown key 'method'"),
    ("features = edges,hairpins,bogus,", r"\[x\] unknown feature 'bogus'"),
    ("objective = xsq-f2", r"\[x\] bad objective code 'xsq-f2'"),
    ("r = 61", r"\[x\] r=61 outside \[0, 60\]"),
    ("r = x", r"\[x\] r must be an integer, got 'x'"),
    ("methods = grid,grid,leading", r"\[x\] duplicate method 'grid'"),
])
def test_bad_section_setting_is_a_config_error(tmp_path, capsys, setting,
                                                message):
    cfg = tmp_path / "bad.cfg"
    # a setting of its own methods replaces the default line: configparser
    # rejects a key given twice in one section
    methods = ("" if setting.startswith("methods")
               else "methods = grid,direct\n")
    cfg.write_text(f"[x]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
                   f"{methods}{setting}\n")
    with pytest.raises(ConfigError, match=message):
        parse_experiment_config(cfg)
    out = tmp_path / "out"
    assert cli_main(["experiment", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (out / "fits.csv").exists()


@pytest.mark.parametrize("params, message", [
    ("0.9,0.5,1.5", r"\[x\] c=1.5 outside \[0, 1\]"),
    ("0.9,0.5", r"\[x\] params must be three comma-separated numbers"),
])
def test_bad_params_are_a_config_error(tmp_path, capsys, params, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[x]\nparams = {params}\nr = 5\n")
    with pytest.raises(ConfigError, match=message):
        parse_experiment_config(cfg)
    out = tmp_path / "out"
    assert cli_main(["experiment", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (out / "fits.csv").exists()


def test_synthetic_section_past_r_31_is_a_config_error(tmp_path, capsys):
    # generate holds at most r = 31 in memory: the section is rejected when
    # the config is read, before [ok]'s counts or the output directory
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"[ok]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
                   "[big]\nparams = 0.5,0.3,0.2\nr = 40\n")
    out = tmp_path / "out"
    assert cli_main(["experiment", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [big] ") and "r <= 31" in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (out / "fits.csv").exists()


@pytest.mark.parametrize("seed, replications, ok", [
    # replication k samples seed + k and seed + k + 1,000,003
    (2 ** 64 - 1 - 1_000_003, 1, True),
    (2 ** 64 - 1 - 1_000_003, 2, False),
    (2 ** 64 - 1_000_003, 1, False),
    (2 ** 64 + 5, 1, False),
])
def test_synthetic_seeds_past_64_bits_are_a_config_error(tmp_path, capsys,
                                                         seed, replications,
                                                         ok):
    cfg = tmp_path / "seeds.cfg"
    cfg.write_text("[syn]\nparams = 0.5,0.3,0.2\nr = 5\n"
                   f"seed = {seed}\nreplications = {replications}\n")
    if ok:
        (section,) = parse_experiment_config(cfg).sections
        assert (section.seed, section.replications) == (seed, replications)
        return
    last = seed + replications - 1 + 1_000_003
    with pytest.raises(ConfigError, match=rf"\[syn\] the last sampler seed,"
                       rf".* must be <= {2 ** 64 - 1}, got {last}"):
        parse_experiment_config(cfg)
    out = tmp_path / "out"
    assert cli_main(["experiment", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (out / "fits.csv").exists()


def test_fit_seed_is_not_bounded_by_the_sampler(tmp_path):
    # a counts section's seed only draws the direct fit's starts
    cfg = tmp_path / "big-seed.cfg"
    cfg.write_text(f"[x]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
                   f"seed = {2 ** 64 + 5}\n")
    (section,) = parse_experiment_config(cfg).sections
    assert section.seed == 2 ** 64 + 5


def test_unset_keys_keep_the_section_defaults(tmp_path):
    counts = FIXTURES / "ca-GrQc.counts.json"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[x]\ncounts = {counts}\n")
    (section,) = parse_experiment_config(cfg).sections
    assert section == ExperimentSection(name="x", counts=counts)


def test_feature_list_drops_blank_tokens(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[x]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
                   "features = edges,hairpins,tripins,\n")
    (section,) = parse_experiment_config(cfg).sections
    assert section.objective.features == ("edges", "hairpins", "tripins")


def test_default_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "from-config"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[DEFAULT]\noutput = {out}\n\n"
                   f"[x]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
                   "methods = leading\n")
    assert cli_main(["experiment", str(cfg)]) == 0
    assert capsys.readouterr().out == f"{out / 'fits.csv'}\n"
    assert [row["fit_type"] for row in read_rows(out / "fits.csv")] == [
        "leading", "source"]
    assert not (tmp_path / "experiment-out").exists()


@pytest.mark.parametrize("default", ["", "[DEFAULT]\noutput = shared\n"])
def test_section_output_is_a_config_error(tmp_path, capsys, monkeypatch,
                                          default):
    # a section's own output would be ignored: it is refused before any
    # file is written, unless it repeats [DEFAULT]'s
    monkeypatch.chdir(tmp_path)
    counts = FIXTURES / "ca-GrQc.counts.json"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{default}[a]\ncounts = {counts}\nmethods = leading\n"
                   f"output = {tmp_path / 'sec-out'}\n")
    with pytest.raises(ConfigError,
                       match=r"^\[a\] output is read only under \[DEFAULT\]$"):
        parse_experiment_config(cfg)
    assert cli_main(["experiment", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: [a] output is read only under [DEFAULT]\n"
    assert list(tmp_path.iterdir()) == [cfg]
    cfg.write_text(f"[DEFAULT]\noutput = shared\n\n[a]\ncounts = {counts}\n"
                   "methods = leading\noutput = shared\n")
    assert parse_experiment_config(cfg).output_dir == Path("shared")


@pytest.mark.parametrize("method", ["direct", "grid", "best"])
def test_failed_fit_is_skipped_without_stopping_the_batch(tmp_path, capsys,
                                                          method):
    # no parameters give these counts a nonzero expectation at r = 0, so
    # the dsq-e objective is infinite everywhere (and best finds no method
    # left); the good section shares the bad one's batch and is still
    # fitted
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 1, "edges": 1, "hairpins": 1, '
                   '"tripins": 1, "triangles": 1}')
    cfg = tmp_path / "exp.cfg"
    common = f"objective = dsq-e\nmethods = {method}\nstarts = 5\n" \
             "grid_points = 11\n"
    cfg.write_text(
        f"[good]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\nr = 13\n"
        f"{common}\n[bad]\ncounts = {bad}\nr = 0\n{common}")
    out = tmp_path / "out"
    assert cli_main(["experiment", str(cfg), "--out", str(out)]) == 0
    rows = {(r["graph"], r["fit_type"]): r
            for r in read_rows(out / "fits.csv")}
    skipped = rows["bad", method]
    assert skipped["objective"].startswith("skipped: ")
    assert skipped["a"] == "" and skipped["verts"] == "1"
    good = rows["good", method]
    assert float(good["objective"]) >= 0.0 and good["a"] != ""
    err = capsys.readouterr().err
    assert f"[bad] {method}: {skipped['objective']}\n" in err
    assert "[good]" not in err
    # the skip is the one line: a failed fit carries no other note
    assert err.count("\n") == 1


def test_section_without_vertices_or_r_is_skipped(tmp_path, capsys):
    # the default r of a graph with no vertices is 0, as for the fit
    # command; every feature is then dropped under dsq-f2, so the section
    # is skipped and the good one beside it is still fitted
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": 0, "edges": 0, "hairpins": 0, '
                     '"tripins": 0, "triangles": 0}')
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[empty]\ncounts = {empty}\nmethods = grid\n\n"
                   f"[good]\ncounts = {FIXTURES / 'ca-GrQc.counts.json'}\n"
                   "methods = grid\ngrid_points = 11\n")
    out = tmp_path / "out"
    assert cli_main(["experiment", str(cfg), "--out", str(out)]) == 0
    rows = {(r["graph"], r["fit_type"]): r
            for r in read_rows(out / "fits.csv")}
    assert rows["empty", "grid"]["objective"].startswith(
        "skipped: nothing to fit: ")
    assert rows["empty", "grid"]["verts"] == "1"
    assert float(rows["good", "grid"]["objective"]) >= 0.0
    assert capsys.readouterr().err.startswith("[empty] grid: skipped: ")


def test_skipped_row_keeps_its_vertex_count(tmp_path, capsys):
    # usroads' leading fit is skipped at r = 17 and keeps its vertex count;
    # a counts file past 2^60 vertices, which no r could fit, is rejected
    # when read (tests/test_cli.py::test_bad_counts_json)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[usroads]\ncounts = {FIXTURES / 'usroads.counts.json'}\n"
                   "methods = leading\n")
    out = tmp_path / "out"
    assert cli_main(["experiment", str(cfg), "--out", str(out)]) == 0
    rows = {(r["graph"], r["fit_type"]): r
            for r in read_rows(out / "fits.csv")}
    assert rows["usroads", "leading"]["objective"].startswith("skipped: ")
    assert rows["usroads", "leading"]["verts"] == "131072"


def test_fit_warnings_reach_stderr(tmp_path, capsys):
    # zero tripins and triangles: both are dropped under dsq-f2, which
    # leaves two moment equations for three parameters
    counts = tmp_path / "counts.json"
    counts.write_text('{"vertices": 100, "edges": 50, "hairpins": 40, '
                      '"tripins": 0, "triangles": 0}')
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[zeros]\ncounts = {counts}\nmethods = grid\n"
                   "grid_points = 11\n")
    out = tmp_path / "out"
    assert cli_main(["experiment", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{out / 'fits.csv'}\n"
    assert captured.err.splitlines() == [
        "[zeros] grid: feature 'tripins' observed as 0; dropped under "
        "normalization 'f2'",
        "[zeros] grid: feature 'triangles' observed as 0; dropped under "
        "normalization 'f2'",
        "[zeros] grid: only 2 usable features for three parameters: the "
        "fit is underdetermined",
    ]
    assert float(read_rows(out / "fits.csv")[0]["objective"]) >= 0.0


def test_synthetic_warnings_name_the_replication(tmp_path, capsys):
    # a = b = c = 0.5 at r = 4: the leading-term system is infeasible in
    # every replication
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[s]\nparams = 0.5,0.5,0.5\nr = 4\nreplications = 2\n"
                   "methods = leading\n")
    run_experiment(parse_experiment_config(cfg), tmp_path / "out")
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "[s] leading 0", "[s] leading 1"]
    assert all(": skipped: " in line for line in lines)
