"""Command line interface: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import sparsemix
from sparsemix import engine, svg_from_power_csv
from sparsemix.cli import main
from sparsemix.stats import bj_plus, hc_star, log_alr, prepare
from table_json import table_from_json

ORACLE = {
    "hc": 0.9999999999999999,
    "bj": 0.3693260614922911,
    "log_alr": 0.6703782616820364,
}


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
    z = np.array([1.5, -0.3, 2.8, 0.0])
    sample = prepare(0.5 * special.erfc(z / math.sqrt(2.0)))
    for key, stat in (("hc", hc_star), ("bj", bj_plus), ("log_alr", log_alr)):
        assert payload[key] == pytest.approx(stat(sample), rel=1e-12)


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
    assert table["entries"][0.05] >= table["entries"][0.1]


def test_calibrate_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["calibrate", "--stat", "bj", "--n", "32", "--alpha", "0.1",
            "--reps", "300", "--seed", "9", "--out"]
    assert main(argv + [str(out1)]) == 0
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


def test_alr_limit_variant_in_any_case_and_padding(tmp_path):
    bodies = []
    for variant in ("cal1", " CAL1 "):
        out = tmp_path / "limit.json"
        argv = ["alr-limit", "--variant", variant, "--reps", "10000", "--alpha", "0.05,0.1",
                "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload.pop("config")["parameters"]["variant"] == variant
        bodies.append(json.dumps(payload, sort_keys=True))
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize(
    "argv,calls",
    [
        (["alr-limit", "--variant", "cal1", "--reps", "10000"], {"_cal1_task": 1}),
        (["alr-limit", "--variant", "cal2", "--reps", "10000", "--n-for-l", "1000",
          "--grid", "256"], {"_cal2_task": 1}),
        (["size-table", "--n", "100,1000", "--stat", "alr", "--method",
          "empirical,cal1,cal2", "--reps", "200", "--limit-reps", "10000",
          "--n-for-l", "1000", "--grid", "256"],
         {"_cal1_task": 1, "_cal2_task": 1, "_null_task": 2}),
    ],
    ids=["alr-limit-cal1", "alr-limit-cal2", "size-table"],
)
def test_a_limit_law_is_simulated_once_for_every_n_and_level(tmp_path, monkeypatch, argv,
                                                            calls):
    counted = {}
    simulate = engine.simulate

    def counting(task, params, total, threads):
        counted[task.__name__] = counted.get(task.__name__, 0) + 1
        return simulate(task, params, total, threads)

    monkeypatch.setattr(engine, "simulate", counting)
    out = tmp_path / "out"
    assert main([*argv, "--alpha", "0.05,0.1", "--seed", "5", "--threads", "1",
                 "--out", str(out)]) == 0
    assert counted == calls


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


def _no_simulation(*args):
    raise AssertionError("a simulation ran")


def test_exit_sparse_tail_precheck(tmp_path, monkeypatch):
    # fails before simulating: reps * alpha < 5
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    argv = ["calibrate", "--stat", "hc", "--n", "32", "--alpha", "0.001",
            "--reps", "300", "--seed", "0", "--out", str(tmp_path / "x.json")]
    assert main(argv) == 12


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


def test_exit_alr_limit_variant_not_a_limit_law(tmp_path, monkeypatch, capsys):
    # the limit-law variants are the methods that calibrate alr alone
    monkeypatch.chdir(tmp_path)
    argv = ["alr-limit", "--variant", "empirical", "--reps", "10000", "--seed", "0"]
    assert main(argv) == 13
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: IncompatibleMethod:")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_exit_size_table_alpha_out_of_range(tmp_path, monkeypatch):
    # thresh never reads the level, which is still checked before simulating
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    argv = ["size-table", "--n", "32", "--stat", "hc", "--method", "thresh",
            "--alpha", "1.5", "--reps", "300", "--seed", "0",
            "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 11
    assert list(tmp_path.iterdir()) == []


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


def test_exit_power_curve_out_and_svg_name_one_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    monkeypatch.chdir(tmp_path)
    argv = ["power-curve", *_LIST_BASE["power-curve"], "--out", "p.csv",
            "--svg", str(tmp_path / "p.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_exit_power_curve_without_power_replicates(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    argv = ["power-curve", *_LIST_BASE["power-curve"], "--out", str(tmp_path / "p.csv"),
            "--svg", str(tmp_path / "p.svg")]
    argv[argv.index("--pow-reps") + 1] = "0"
    assert main(argv) == 12
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("variant", ["cal1", "cal2"])
def test_exit_alr_limit_alpha_out_of_range_before_simulating(tmp_path, monkeypatch, variant):
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


@pytest.mark.parametrize("argv", [
    ["calibrate", "--stat", "hc", "--n", "32", "--alpha", "0.05", "--reps", "300"],
    ["alr-limit", "--variant", "cal1", "--reps", "10000", "--alpha", "0.05"],
], ids=["calibrate", "alr-limit"])
def test_exit_seed_out_of_range_before_simulating(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    out = tmp_path / "x.json"
    assert main([*argv, "--seed", str(2**64), "--out", str(out)]) == 6
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("failure", ["svg-dir-missing", "svg-rename-refused"])
def test_power_curve_failed_svg_leaves_no_output(tmp_path, monkeypatch, capsys, failure):
    # the SVG's write fails before any rename; its rename fails after the
    # CSV's has put p.csv in place
    svg = tmp_path / "p.svg"
    if failure == "svg-dir-missing":
        svg = tmp_path / "missing" / "p.svg"
    else:
        rename = os.replace

        def refuse_second(src, dst):
            if Path(dst) == svg:
                assert (tmp_path / "p.csv").exists()
                raise OSError("rename refused")
            rename(src, dst)

        monkeypatch.setattr(os, "replace", refuse_second)
    argv = ["power-curve", *_LIST_BASE["power-curve"], "--out", str(tmp_path / "p.csv"),
            "--svg", str(svg)]
    assert main(argv) == 3
    assert "IoError" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_OUT_OF_MEMORY = """
import resource, sys
sys.path.insert(0, {src!r})
# the address space of this process alone: the 2.2 GiB a row that n = 2e8
# asks for fails at once, before any page is touched
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
from sparsemix.cli import main
sys.exit(main({argv!r}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_exit_out_of_memory_leaves_no_output(tmp_path, threads):
    # numpy's MemoryError, raised in this process or re-raised from a worker,
    # ends in one typed line and exit 15
    out = tmp_path / "cv.json"
    argv = ["calibrate", "--stat", "bj", "--n", "200000000", "--reps", "200",
            "--alpha", "0.05", "--seed", "1", "--threads", threads, "--out", str(out)]
    src = str(Path(sparsemix.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _OUT_OF_MEMORY.format(src=src, argv=argv)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 15, done.stderr
    assert done.stderr.startswith("error: OutOfMemory: ")
    assert done.stderr.count("\n") == 1 and done.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_exit_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sparsemix" in capsys.readouterr().out


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: importing the CLI and running every simulating
    # command loads no scipy module
    script = f"""
import sys
sys.path.insert(0, {str(Path(sparsemix.__file__).parents[1])!r})
from sparsemix import cli
out = {str(tmp_path)!r}
commands = [
    ["calibrate", "--stat", "hc", "--n", "100", "--reps", "2000", "--out", out + "/c.json"],
    ["size-table", "--n", "100", "--stat", "hc,bj", "--method", "thresh,empirical",
     "--reps", "2000", "--out", out + "/s.csv"],
    ["power-curve", "--n", "200", "--beta-grid", "0.6,0.9", "--cal-reps", "2000",
     "--pow-reps", "200", "--out", out + "/p.csv", "--svg", out + "/p.svg"],
    ["alr-limit", "--variant", "cal1", "--reps", "10000", "--out", out + "/l1.json"],
    ["alr-limit", "--variant", "cal2", "--reps", "10000", "--grid", "256",
     "--n-for-l", "1000", "--out", out + "/l2.json"],
]
for argv in commands:
    assert cli.main(argv + ["--seed", "3", "--threads", "1"]) == 0, argv
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
