import argparse
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tausurvey
from tausurvey import cli, survey as survey_mod
from tausurvey.cli import _big_int, dispatch


def run(argv, env=None, monkeypatch=None):
    if env:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


# ------------------------- golden outputs per subcommand -------------------------


def test_golden_tau_lehmer():
    code, out, _ = run(["tau", "--n", "251", "--square", "--N", "300"])
    assert code == 0
    assert out == "-80561663527802406257321747\n"


def test_golden_tau_table_export():
    code, out, _ = run(["tau", "--max", "4"])
    assert code == 0
    assert out == (
        '{"n":1,"tau":"1"}\n'
        '{"n":2,"tau":"-24"}\n'
        '{"n":3,"tau":"252"}\n'
        '{"n":4,"tau":"-1472"}\n'
    )


def test_golden_parity():
    code, out, _ = run(["parity", "--n", "9"])
    assert code == 0 and out == '{"n":9,"odd":true}\n'
    code, out, _ = run(["parity", "--n", "16", "--format", "csv"])
    assert code == 0 and out == "n,odd\n16,false\n"


def test_golden_near_points():
    code, out, _ = run(
        ["near-points", "--kind", "deg11", "--X", "100", "--x-min", "3", "--x-max", "10"]
    )
    assert code == 0
    assert out == (
        '{"kind":"deg11","x":3,"y":"-421","k":"94"}\n'
        '{"kind":"deg11","x":3,"y":"421","k":"94"}\n'
    )


def test_golden_near_points_csv_empty():
    code, out, _ = run(
        ["near-points", "--kind", "deg11", "--X", "1", "--x-min", "2", "--x-max", "5",
         "--format", "csv"]
    )
    assert code == 0
    assert out == "kind,x,y,k\n"


def test_golden_count():
    code, out, _ = run(["count", "--kind", "deg11", "--X", "10", "--x-max", "2"])
    assert code == 0
    assert out == (
        '{"kind":"deg11","X":"10","x_max":2,"small":5,"mid":0,"subunit":0,"total":5}\n'
    )


def test_golden_survey_csv():
    code, out, _ = run(["survey", "--X", "1e26", "--N", "300", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "ell,p,m,sign,verdict,ordinary"
    assert "80561663527802406257321747,251,1,-1,probable_prime," in out


def test_golden_survey_json():
    code, out, _ = run(["survey", "--X", "1e6", "--N", "300"])
    assert code == 0
    payload = json.loads(out)
    assert payload["X"] == "1000000"
    assert payload["count"] == 0
    assert payload["windowed"] is True
    assert payload["m_max"] == 2
    assert [layer["m"] for layer in payload["layers"]] == [1, 2]


def test_golden_abc():
    code, out, _ = run(
        ["abc", "--kind", "deg11", "--X", "100", "--x-min", "3", "--x-max", "10"]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 2  # the +-421 pair
    for record in lines:
        assert record["a"] == "177147"
        assert record["b"] == "94"
        assert record["c"] == "177241"
        assert record["d"] == "1"
        assert record["rad"] == "118722"
        assert record["rad_complete"] is True
        assert abs(record["quality"] - 1.0343) < 1e-3


def test_golden_abc_check_column():
    code, out, _ = run(
        ["abc", "--kind", "deg11", "--X", "100", "--x-min", "3", "--x-max", "3",
         "--epsilon", "0.1", "--C", "1", "--format", "csv"]
    )
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "a,b,c,d,rad,rad_complete,quality,abc_ok"
    assert all(row.endswith("true") for row in rows)


def test_golden_sato_tate():
    code, out, _ = run(["sato-tate", "--N", "10000", "--bins", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bins"] == 8
    assert payload["samples"] == 1229
    assert sum(payload["observed"]) == 1229
    assert payload["p_value"] > 0.001
    code, out, _ = run(["sato-tate", "--N", "1000", "--bins", "4", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "bin_lo,bin_hi,observed,expected"
    assert len(out.splitlines()) == 5


def test_golden_predict():
    code, out, _ = run(["predict", "--X", "1e22", "--m-max", "3", "--C", "1"])
    assert code == 0
    payload = json.loads(out)
    layers = {entry["m"]: entry["estimate"] for entry in payload["layers"]}
    assert abs(layers[1] - 0.038969) < 1e-5
    assert layers[1] > layers[2] > layers[3]


def test_golden_report():
    code, out, _ = run(["report", "--X", "1e6", "--N", "2000", "--x-max", "5"])
    assert code == 0  # no violations on an honest table
    payload = json.loads(out)
    assert payload["deligne_violations"] == []
    assert payload["omitted_violations"] == []
    assert payload["parity_mismatches"] == []
    assert payload["count"] == 0
    assert abs(payload["terms"]["x_13_22"] - 3511.19173422) < 1e-6
    assert payload["terms"]["e2_windowed"] == 0
    assert payload["terms"]["e4_windowed"] == 2
    assert payload["windowed"] is True


def test_golden_self_test():
    out = io.StringIO()
    code = dispatch(["--self-test"], out, io.StringIO())
    assert code == 0
    assert out.getvalue().strip().endswith("self-test OK")
    assert all(line.startswith("PASS") for line in out.getvalue().splitlines()[:-1])


# ------------------------------- exit codes -------------------------------


def test_usage_errors():
    code, _, err = run(["no-such-command"])
    assert code == 2
    code, _, err = run([])
    assert code == 2
    code, _, err = run(["sato-tate", "--N", "100", "--bins", "1"])
    assert code == 2
    assert "usage" in err
    code, _, _ = run(["tau"])
    assert code == 2
    code, _, _ = run(["sato-tate", "--N", "100", "--u-layer", "1"])
    assert code == 2


def test_sato_tate_u_pair_refused_in_csv():
    argv = ["sato-tate", "--N", "1000", "--bins", "4", "--u-layer", "1", "--u-threshold", "0.5"]
    code, out, err = run(argv + ["--format", "csv"])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --u-layer/--u-threshold have no CSV column")
    assert "Traceback" not in err
    code, out, _ = run(argv)
    assert code == 0 and "u_proportion" in json.loads(out)


def test_predict_layer_cap_exits_3():
    code, out, err = run(["predict", "--X", "1e22", "--m-max", str(10**12)])
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: m_max")


def test_bins_beyond_sample_count_exits_2():
    code, out, err = run(["sato-tate", "--N", "1000", "--bins", str(10**9)])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: bins (1000000000) must not exceed the sample count (168)")


def test_help_exits_zero():
    code, out, _ = run(["--help"])
    assert code == 0
    assert "tausurvey" in out


def test_resource_limit_exit():
    code, _, err = run(
        ["near-points", "--kind", "deg11", "--X", "1e30", "--x-min", "1", "--x-max", "1"]
    )
    assert code == 3
    assert "resource limit" in err


def test_out_of_range_exit():
    code, _, err = run(["tau", "--n", "10007", "--N", "100"])
    assert code == 3
    assert "out of range" in err


def test_violation_exit(monkeypatch):
    import tausurvey.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.survey_mod, "omitted_values_check", lambda table: [(50, 691)]
    )
    code, out, _ = run(["report", "--X", "1e6", "--N", "200", "--x-max", "3"])
    assert code == 1
    assert json.loads(out)["omitted_violations"] == [[50, "691"]]


def test_report_csv_row():
    code, out, _ = run(
        ["report", "--X", "1e6", "--N", "500", "--x-max", "3", "--format", "csv"]
    )
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("X,N,x_max,count,")
    assert row.startswith("1000000,500,3,0,")


# --------------------------- configuration layers ---------------------------


def test_env_override(monkeypatch):
    code, out, _ = run(
        ["count", "--kind", "deg11", "--x-max", "2"],
        env={"TAUSURVEY_X": "10"},
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["X"] == "10"


def test_flag_beats_env(monkeypatch):
    code, out, _ = run(
        ["count", "--kind", "deg11", "--X", "10", "--x-max", "2"],
        env={"TAUSURVEY_X": "9999"},
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["X"] == "10"


def test_config_file_lowest(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x_max = 2\nX = 77\n")
    code, out, _ = run(
        ["count", "--kind", "deg11", "--config", str(cfg)],
        env={"TAUSURVEY_X": "10"},
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["X"] == "10"  # env beats file
    assert payload["x_max"] == 2  # file beats default


@pytest.fixture
def no_env(monkeypatch):
    for name in [k for k in os.environ if k.startswith("TAUSURVEY_")]:
        monkeypatch.delenv(name)


def test_config_file_keys_any_case(tmp_path, no_env):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=300\nX=1000\nC=2\nx_max=2\n")
    code, out, _ = run(["report", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out)
    assert (payload["N"], payload["X"], payload["x_max"]) == (300, "1000", 2)
    code, out, _ = run(["predict", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out)
    assert (payload["X"], payload["C"]) == (1000.0, 2.0)


@pytest.mark.parametrize("name", ["TAUSURVEY_X", "TAUSURVEY_N"])
def test_bad_env_value_is_usage_error(name, monkeypatch):
    argv = ["survey", "--N", "30"] if name == "TAUSURVEY_X" else ["survey", "--X", "100"]
    code, out, err = run(argv, env={name: "abc"}, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    first = err.splitlines()[0]
    assert first.startswith("usage error:") and name in first and "abc" in first
    assert "Traceback" not in err


def test_bad_config_value_is_usage_error(tmp_path, no_env):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x=1.5\n")
    code, _, err = run(["count", "--kind", "deg11", "--x-max", "2", "--config", str(cfg)])
    assert code == 2
    assert "config key X" in err.splitlines()[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--C", "nan"],
        ["predict", "--X", "inf"],
        ["predict", "--X", "1e5000"],
        ["abc", "--kind", "deg11", "--X", "100", "--x-max", "3", "--epsilon", "nan"],
        ["sato-tate", "--N", "100", "--u-layer", "1", "--u-threshold", "nan"],
    ],
    ids=["predict-C", "predict-X-inf", "predict-X-overflow", "abc-epsilon", "u-threshold"],
)
def test_non_finite_float_flag_is_usage_error(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "not a finite number" in err.splitlines()[-1]
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["TAUSURVEY_C", "TAUSURVEY_EPSILON"])
def test_non_finite_float_env_is_usage_error(name, monkeypatch):
    argv = ["abc", "--kind", "deg11", "--X", "100", "--x-max", "3"]
    code, out, err = run(argv, env={name: "-inf"}, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: bad value for {name}: not a finite number")


def test_predict_float_overflow_is_usage_error(monkeypatch):
    code, out, err = run(["predict", "--X", "1e300", "--C", "1e300"])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: the estimate overflows")
    code, out, err = run(["predict"], env={"TAUSURVEY_X": "1e400"}, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: X is too large")


@pytest.mark.parametrize("command", ["survey", "report"])
def test_x_beyond_float_is_usage_error_before_the_scan(command, monkeypatch):
    # The comparison terms are floats of X: 1e400 fails before any table is built.
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built before X was checked")

    monkeypatch.setattr(cli, "delta_coefficients", no_table)
    code, out, err = run([command, "--X", "1e400", "--N", "100"])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: X is too large for a float")
    assert "Traceback" not in err


def test_huge_x_rejected_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(argparse.ArgumentTypeError, match="more than 4300 digits"):
            _big_int("1e1000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a billion-digit int would take about 415 MiB
    with pytest.raises(argparse.ArgumentTypeError):
        _big_int("1e4300")
    assert _big_int("1e4299") == 10 ** 4299


def test_huge_x_exits_2_from_flag_env_and_config(tmp_path, no_env, monkeypatch):
    argv = ["survey", "--N", "30"]
    code, out, err = run(argv + ["--X", "1e1000000000"])
    assert (code, out) == (2, "")
    assert "more than 4300 digits" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("X=1e1000000000\n")
    code, out, err = run(argv + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: bad value for config key X")
    code, out, err = run(argv, env={"TAUSURVEY_X": "1e1000000000"}, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: bad value for TAUSURVEY_X")


@pytest.mark.parametrize("text", ["inf", "-Infinity", "nan", "sNaN"])
def test_non_finite_integer_x_is_usage_error(text):
    code, out, err = run(["survey", "--N", "30", f"--X={text}"])
    assert (code, out) == (2, "")
    assert "not an integer" in err


def test_largest_accepted_x_reaches_the_scan():
    # 1e4299 parses (4300 digits); the band at x = 1 then exceeds the ceiling
    code, out, err = run(["count", "--kind", "deg11", "--X", "1e4299", "--x-max", "1"])
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: x=1:")


def test_scientific_notation_x():
    code, out, _ = run(["count", "--kind", "deg11", "--X", "1e2", "--x-max", "3"])
    assert code == 0
    assert json.loads(out)["X"] == "100"


# ------------------------------- determinism -------------------------------

DETERMINISM_CASES = [
    ["tau", "--n", "251", "--square", "--N", "300"],
    ["tau", "--max", "50"],
    ["parity", "--n", "9"],
    ["survey", "--X", "1e26", "--N", "300"],
    ["near-points", "--kind", "deg22", "--X", "10000", "--x-min", "1", "--x-max", "12"],
    ["count", "--kind", "deg11", "--X", "1000", "--x-max", "20"],
    ["abc", "--kind", "deg11", "--X", "1000", "--x-min", "1", "--x-max", "6",
     "--epsilon", "0.5", "--C", "1"],
    ["sato-tate", "--N", "2000", "--bins", "8"],
    ["predict", "--X", "1e22", "--m-max", "3", "--C", "1"],
    ["report", "--X", "1e6", "--N", "1000", "--x-max", "5"],
]


@pytest.mark.parametrize("argv", DETERMINISM_CASES, ids=lambda a: a[0])
def test_repeat_runs_byte_identical(argv):
    first = run(argv)
    second = run(argv)
    assert first == second


def test_worker_count_does_not_change_bytes():
    base = ["near-points", "--kind", "deg11", "--X", "10000", "--x-min", "1",
            "--x-max", "40"]
    runs = {
        workers: run(base + ["--workers", str(workers)])
        for workers in (1, 8)
    }
    assert runs[1][0] == runs[8][0] == 0
    assert runs[1][1] == runs[8][1]
    assert runs[1][1] != ""


def test_worker_count_must_be_positive():
    code, out, _ = run(["count", "--kind", "deg11", "--X", "10", "--x-max", "2", "--workers", "0"])
    assert (code, out) == (2, "")


def _run_with_src(argv):
    """Run the interpreter on argv with this package's source first on the path,
    its stdout block-buffered as in a plain shell pipeline."""
    src = str(Path(tausurvey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def _modules_loaded_by_cli_import(top_level):
    probe = (
        "import sys, tausurvey.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {sorted(top_level)!r}))"
    )
    result = _run_with_src(["-c", probe])
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_no_third_party_numerics():
    assert _modules_loaded_by_cli_import({"scipy", "numpy"}) == "[]\n"


def test_cli_import_loads_no_multiprocessing():
    assert _modules_loaded_by_cli_import({"multiprocessing"}) == "[]\n"


# ------------------------------- worker pool -------------------------------


@pytest.mark.parametrize(
    "argv",
    [["survey", "--X", "1e54", "--N", "2000"],
     ["survey", "--X", "1e120", "--N", "2000", "--format", "csv"],
     ["report", "--X", "1e14", "--N", "2000", "--x-max", "5"]],
    ids=["survey", "survey-csv", "report"],
)
def test_survey_bytes_identical_for_every_worker_count(pool_on, no_env, monkeypatch, argv):
    one = run(argv + ["--workers", "1"])
    two = run(argv + ["--workers", "2"])
    from_env = run(argv, {"TAUSURVEY_WORKERS": "8"}, monkeypatch)
    huge = run(argv + ["--workers", "1000000"])
    assert one[0] == 0 and one[1] != ""
    assert one == two == from_env == huge
    # --workers 1 runs in-process; 8 and 1000000 are capped at the 4 usable CPUs
    # (pool_on fails any larger request before it forks).
    assert pool_on == [2, 4, 4]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "argv",
    [["abc", "--kind", "deg11", "--X", "1000", "--x-max", "6", "--epsilon", "0.5"],
     ["count", "--kind", "deg11", "--X", "1000", "--x-max", "20"],
     ["near-points", "--kind", "deg22", "--X", "10000", "--x-max", "12"]],
    ids=lambda a: a[0],
)
def test_other_subcommands_never_start_a_pool(no_env, monkeypatch, fake_pool, argv):
    calls = fake_pool()
    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(survey_mod, "usable_cpus", lambda: 4)
    code, out, _ = run(argv + ["--workers", "2"])
    assert code == 0 and out != ""
    assert calls == []


def test_pooled_self_test_prints_each_line_once():
    # Each worker flushes its copy of stdout on exit: text still buffered at
    # the fork would be printed once more per worker.
    result = _run_with_src(["-m", "tausurvey.cli", "--self-test"])
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1] == "self-test OK"
    assert len(lines) == len(set(lines))
    assert any("2-worker pool" in line for line in lines)
