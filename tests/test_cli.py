"""Command line interface: outputs, determinism, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from sparsemix import calibration, engine, svg_from_power_csv
from sparsemix.cli import main
from table_json import table_cv, table_from_json

ORACLE = {
    "hc": 0.9999999999999999,
    "bj": 0.3693260614922911,
    "log_alr": 0.6703782616820364,
}


@pytest.fixture(autouse=True)
def _clean_cache():
    engine._null_entry.cache_clear()
    yield
    engine._null_entry.cache_clear()


@pytest.fixture()
def pfile(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("0.1\n0.3\n\n0.6\n0.9\n")
    return str(f)


def _stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# stat

def test_stat_all_matches_oracles(pfile, capsys):
    assert main(["stat", "--input", pfile]) == 0
    payload = _stdout_json(capsys)
    assert payload["n"] == 4
    assert payload["version"]
    assert payload["config"]["command"] == "stat"
    for key, want in ORACLE.items():
        assert payload[key] == pytest.approx(want, rel=1e-12)


def test_stat_single_statistic(pfile, capsys):
    assert main(["stat", "--input", pfile, "--stat", "bj"]) == 0
    payload = _stdout_json(capsys)
    assert set(payload) == {"version", "config", "n", "bj"}


def test_stat_observations_kind(tmp_path, capsys):
    f = tmp_path / "z.txt"
    f.write_text("1.5\n-0.3\n2.8\n0.0\n")
    assert main(["stat", "--input", str(f), "--input-kind", "observations"]) == 0
    payload = _stdout_json(capsys)
    assert payload["n"] == 4
    assert payload["hc"] > 0.0  # large z-scores give small p-values


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_writes_parseable_table(tmp_path, capsys):
    out = tmp_path / "cvt.json"
    argv = [
        "calibrate", "--stat", "hc", "--n", "64", "--alpha", "0.05,0.1",
        "--reps", "400", "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    text = out.read_text()
    payload = json.loads(text)
    assert payload["kind"] == "hc" and payload["n"] == 64
    assert payload["method"] == "empirical"
    assert payload["R"] == 400 and payload["master_seed"] == 7
    assert [e["alpha"] for e in payload["entries"]] == [0.05, 0.1]
    table = table_from_json(text)  # extra keys are tolerated
    assert table_cv(table, 0.05) >= table_cv(table, 0.1)


def test_calibrate_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["calibrate", "--stat", "bj", "--n", "32", "--alpha", "0.1",
            "--reps", "300", "--seed", "9", "--out"]
    assert main(argv + [str(out1)]) == 0
    engine._null_entry.cache_clear()
    assert main(argv + [str(out2)]) == 0
    a, b = out1.read_bytes(), out2.read_bytes()
    # the embedded config names the output path; normalize before comparing
    assert a.replace(b"a.json", b"x") == b.replace(b"b.json", b"x")


# ---------------------------------------------------------------------------
# size-table / power-curve / alr-limit

def test_size_table_csv_output(tmp_path):
    out = tmp_path / "size.csv"
    argv = [
        "size-table", "--n", "32,64", "--stat", "hc,bj", "--method", "thresh,evi",
        "--alpha", "0.05,0.1", "--reps", "300", "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sparsemix ")
    assert lines[1].startswith("# config ")
    assert lines[2] == "n,kind,method,alpha,size,R,seed"
    assert len(lines) == 3 + 2 * 2 * 2 * 2
    cfg = json.loads(lines[1][len("# config "):])
    assert cfg["command"] == "size-table" and cfg["seed"] == 3


def test_every_artifact_records_the_numpy_version(pfile, tmp_path, capsys):
    # the draws rest on numpy's Generator methods, which NEP 19 does not freeze
    csv_path, json_path = tmp_path / "size.csv", tmp_path / "cal1.json"
    assert main(["size-table", "--n", "32", "--stat", "hc", "--method", "thresh", "--alpha",
                 "0.1", "--reps", "100", "--seed", "3", "--out", str(csv_path)]) == 0
    assert main(["alr-limit", "--variant", "cal1", "--reps", "10000", "--alpha", "0.1",
                 "--seed", "3", "--out", str(json_path)]) == 0
    capsys.readouterr()
    assert main(["stat", "--input", pfile, "--stat", "hc"]) == 0
    configs = [
        json.loads(csv_path.read_text().splitlines()[1][len("# config "):]),
        json.loads(json_path.read_text())["config"],
        _stdout_json(capsys)["config"],
    ]
    assert [c["numpy"] for c in configs] == [np.__version__] * 3


def test_power_curve_svg_is_pure_function_of_csv(tmp_path):
    csv_path, svg_path = tmp_path / "pow.csv", tmp_path / "pow.svg"
    argv = [
        "power-curve", "--n", "64", "--beta-grid", "0.6,0.8", "--stat", "hc,bj",
        "--alpha", "0.1", "--cal-reps", "300", "--pow-reps", "100",
        "--seed", "4", "--out", str(csv_path), "--svg", str(svg_path),
    ]
    assert main(argv) == 0
    assert svg_path.read_text() == svg_from_power_csv(csv_path.read_text())
    lines = csv_path.read_text().splitlines()
    assert lines[2] == "beta,kind,power,n,R_cal,R_pow,cv,seed"
    assert len(lines) == 3 + 2 * 2


def test_power_curve_default_grid_runs(tmp_path):
    out = tmp_path / "pow.csv"
    argv = [
        "power-curve", "--n", "32", "--cal-reps", "200", "--pow-reps", "50",
        "--seed", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 10 * 3  # default grid, default hc/bj/alr


def test_alr_limit_stdout_and_determinism(capsys):
    argv = ["alr-limit", "--variant", "cal1", "--reps", "10000",
            "--alpha", "0.1", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["variant"] == "cal1"
    assert payload["grid"] is None and payload["n_for_l"] is None
    entry = payload["entries"][0]
    assert entry["cv"] == pytest.approx(math.exp(entry["log_cv"]), rel=1e-12)
    assert entry["log_cv"] > 0.0
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_alr_limit_out_file(tmp_path):
    out = tmp_path / "limit.json"
    argv = ["alr-limit", "--variant", "cal2", "--reps", "10000", "--alpha", "0.1",
            "--n-for-l", "1000", "--grid", "256", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["n_for_l"] == 1000 and payload["grid"] == 256


# ---------------------------------------------------------------------------
# exit codes

def test_exit_missing_input_file(capsys):
    assert main(["stat", "--input", "/nonexistent/p.txt"]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_non_numeric_line(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("0.1\nhello\n0.3\n")
    assert main(["stat", "--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err and "hello" in err


def test_exit_undecodable_input_file(tmp_path, capsys):
    f = tmp_path / "binary.txt"
    f.write_bytes(b"0.1\n\x7fELF\x02\x01\x01\x00\xff\xfe\x80\n0.3\n")
    assert main(["stat", "--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError:" in err and str(f) in err


def test_exit_singleton_sample(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("0.4\n")
    assert main(["stat", "--input", str(f)]) == 4


def test_exit_alr_needs_four(tmp_path, capsys):
    f = tmp_path / "two.txt"
    f.write_text("0.4\n0.6\n")
    assert main(["stat", "--input", str(f), "--stat", "alr"]) == 8
    assert main(["stat", "--input", str(f), "--stat", "all"]) == 8
    assert main(["stat", "--input", str(f), "--stat", "hc"]) == 0


def test_exit_bad_alpha(tmp_path, capsys):
    argv = ["calibrate", "--stat", "hc", "--n", "32", "--alpha", "1.5",
            "--reps", "300", "--seed", "0", "--out", str(tmp_path / "x.json")]
    assert main(argv) == 11


def test_exit_duplicate_alpha(tmp_path):
    argv = ["calibrate", "--stat", "hc", "--n", "32", "--alpha", "0.05,0.05",
            "--reps", "300", "--seed", "0", "--out", str(tmp_path / "x.json")]
    assert main(argv) == 2


def test_exit_sparse_tail_precheck(tmp_path):
    # fails before simulating: reps * alpha < 5
    argv = ["calibrate", "--stat", "hc", "--n", "32", "--alpha", "0.001",
            "--reps", "300", "--seed", "0", "--out", str(tmp_path / "x.json")]
    assert main(argv) == 12
    assert engine._null_entry.cache_info().currsize == 0


_LIST_BASE = {
    "size-table": ["--n", "32", "--stat", "hc", "--method", "thresh",
                   "--alpha", "0.05", "--reps", "300", "--seed", "0"],
    "power-curve": ["--n", "32", "--beta-grid", "0.6", "--stat", "hc",
                    "--cal-reps", "200", "--pow-reps", "50", "--seed", "0"],
}


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("size-table", "--n", ","),
        ("size-table", "--n", "32,x"),
        ("size-table", "--alpha", "0.05,y"),
        ("size-table", "--stat", ","),
        ("size-table", "--method", ","),
        ("power-curve", "--beta-grid", "0.6,zz"),
        ("power-curve", "--beta-grid", ","),
        ("power-curve", "--stat", ","),
        # a repeated value would write duplicate rows or a doubling-back curve
        ("size-table", "--n", "32,32"),
        ("size-table", "--alpha", "0.05,0.050"),
        ("size-table", "--stat", "hc,HC"),
        ("size-table", "--method", "thresh,thresh"),
        ("power-curve", "--beta-grid", "0.6,0.7,0.60"),
        ("power-curve", "--stat", "hc,hc"),
    ],
)
def test_exit_bad_list_leaves_no_output(tmp_path, capsys, command, flag, value):
    argv = [command, *_LIST_BASE[command], "--out", str(tmp_path / "p.csv")]
    argv[argv.index(flag) + 1] = value
    if command == "power-curve":
        argv += ["--svg", str(tmp_path / "p.svg")]
    assert main(argv) == 2
    assert "error: ConfigError:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_unknown_statistic(tmp_path):
    argv = ["calibrate", "--stat", "ks", "--n", "32", "--alpha", "0.05",
            "--reps", "300", "--seed", "0", "--out", str(tmp_path / "x.json")]
    assert main(argv) == 9


def test_exit_incompatible_method(tmp_path):
    argv = ["size-table", "--n", "32", "--stat", "alr", "--method", "thresh",
            "--alpha", "0.05", "--reps", "300", "--seed", "0",
            "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 13


def test_exit_size_table_alpha_out_of_range(tmp_path):
    # thresh never reads the level, which is still checked before simulating
    argv = ["size-table", "--n", "32", "--stat", "hc", "--method", "thresh",
            "--alpha", "1.5", "--reps", "300", "--seed", "0",
            "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 11
    assert list(tmp_path.iterdir()) == []
    assert engine._null_entry.cache_info().currsize == 0


@pytest.mark.parametrize(
    "stat,ns", [("hc", "1000,1"), ("alr", "1000,3")], ids=["n-below-2", "alr-below-4"]
)
def test_exit_size_table_checks_every_n_before_simulating(tmp_path, monkeypatch, stat, ns):
    def no_tasks(fn, tasks, threads):
        raise AssertionError("a task ran")

    monkeypatch.setattr(engine, "map_tasks", no_tasks)
    argv = ["size-table", "--n", ns, "--stat", stat, "--method", "empirical",
            "--alpha", "0.05", "--reps", "100000", "--seed", "0", "--threads", "2",
            "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 8
    assert list(tmp_path.iterdir()) == []


def test_exit_power_curve_without_power_replicates(tmp_path):
    argv = ["power-curve", *_LIST_BASE["power-curve"], "--out", str(tmp_path / "p.csv"),
            "--svg", str(tmp_path / "p.svg")]
    argv[argv.index("--pow-reps") + 1] = "0"
    assert main(argv) == 12
    assert list(tmp_path.iterdir()) == []
    assert engine._null_entry.cache_info().currsize == 0


@pytest.mark.parametrize("variant", ["cal1", "cal2"])
def test_exit_alr_limit_alpha_out_of_range_before_simulating(tmp_path, monkeypatch, variant):
    calibration._limit_entry.cache_clear()
    maps = []
    run_tasks = engine.map_tasks

    def counted(fn, tasks, threads):
        maps.append(1)
        return run_tasks(fn, tasks, threads)

    monkeypatch.setattr(engine, "map_tasks", counted)
    argv = ["alr-limit", "--variant", variant, "--reps", "10000", "--alpha", "0.05,1.5",
            "--n-for-l", "1000", "--grid", "256", "--seed", "0",
            "--out", str(tmp_path / "x.json")]
    assert main(argv) == 11
    assert list(tmp_path.iterdir()) == []
    assert maps == []


def test_exit_negative_seed(tmp_path):
    argv = ["calibrate", "--stat", "hc", "--n", "32", "--alpha", "0.05",
            "--reps", "300", "--seed", "-1", "--out", str(tmp_path / "x.json")]
    assert main(argv) == 2


def test_exit_unwritable_output(pfile, tmp_path, capsys):
    argv = ["calibrate", "--stat", "hc", "--n", "32", "--alpha", "0.05",
            "--reps", "300", "--seed", "0", "--out", "/nonexistent/dir/x.json"]
    assert main(argv) == 3


def test_failed_rename_leaves_no_partial_output(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "x.json"
    argv = ["calibrate", "--stat", "hc", "--n", "32", "--alpha", "0.05",
            "--reps", "300", "--seed", "0", "--out", str(out)]
    assert main(argv) == 3
    assert "IoError" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp*")) == []


def test_exit_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sparsemix" in capsys.readouterr().out
