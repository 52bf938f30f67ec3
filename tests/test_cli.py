import argparse
import ast
import bisect
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tausurvey
from tausurvey import cli, survey as survey_mod
from tausurvey.cli import _big_int, dispatch
from tausurvey.delta import delta_coefficients
from tausurvey.hecke import tau_of


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


# Every subcommand in both formats: exit code and sha256 of stdout, pinned so a
# change to how records are built or written cannot move a byte.
FROZEN_STDOUT = [
    ('tau --max 50', 'json', 0,
     '50e79273df88de50c225f2e2d51848f13938ee6a862277ae69d6ead949efefef'),
    ('tau --max 50', 'csv', 0,
     'e1667deab56cc09840ccd8ce4d17b65a44bfdc12a998f4c28b885eabdd79c39b'),
    ('tau --n 251 --square --N 300', 'json', 0,
     '816ecbdc7e9305aaefda0d72f67d25f2b3b3ad1270d247fc98b356759c10b0d6'),
    ('tau --n 251 --square --N 300', 'csv', 0,
     '816ecbdc7e9305aaefda0d72f67d25f2b3b3ad1270d247fc98b356759c10b0d6'),
    ('parity --n 9', 'json', 0,
     '9edb68e45c76037aa132e18626dc7bbfa43e1b01858f9c35b080bde7fb85d53c'),
    ('parity --n 9', 'csv', 0,
     'cbe7c65d9435c49b0410beb51303238d49e7b449910cb3e4f2c8e2e7797c9d4c'),
    ('survey --X 1e26 --N 300', 'json', 0,
     '50de649c68609f6f97bd78b7f021d1117bd0863980d3e7c91d5ec5a6867a4d96'),
    ('survey --X 1e26 --N 300', 'csv', 0,
     '10414fdf91a492d97416b2faf58f55a87e62ee6bcd6b2be94f9b5c432e4b4f6b'),
    ('survey --X 1e6 --N 300', 'json', 0,
     '242ecadee0163e8a6e2c8dcc1d6f8e0cf820d5616004512a3cfede26a97e41d7'),
    ('survey --X 1e6 --N 300', 'csv', 0,
     '3ae7f16ac898c28897f4bb20450b318ff47ab27ca2622920ede8b1012adea2af'),
    ('near-points --kind deg22 --X 10000 --x-min 1 --x-max 12', 'json', 0,
     '40421e843cfc965ed1b8aff3fdf1dd7101c59e70f616bad6593eb4c1009aac0b'),
    ('near-points --kind deg22 --X 10000 --x-min 1 --x-max 12', 'csv', 0,
     'f2644d024e5393324c5d8887da167fcb5eb78f9423aa7b1556a663d4e7f3a8dd'),
    ('count --kind deg11 --X 1000 --x-max 20', 'json', 0,
     '7237f26089f3bd2189b590c276d4406214c342384a1752b2f6ae42cc25bf751b'),
    ('count --kind deg11 --X 1000 --x-max 20', 'csv', 0,
     '23b54ee6dba285ef36898c1eeb12818be45fdc965bccc75ff43f9e2f60c22248'),
    ('abc --kind deg11 --X 1000 --x-min 1 --x-max 6 --epsilon 0.5 --C 1', 'json', 0,
     '52742d8e8975ca7b66d70ac7d1cdaf71d02b246a02c4dbb9c151c850cbff44c3'),
    ('abc --kind deg11 --X 1000 --x-min 1 --x-max 6 --epsilon 0.5 --C 1', 'csv', 0,
     '9bb9a88c549b7abd3a7bd9f45b588f4a5aede10f705e828b024a43f7f6e251c9'),
    ('abc --kind deg22 --X 10000 --x-min 1 --x-max 12', 'json', 0,
     '67f7cf96767cbb0fc780723d75eef95858e2d21d4bd3d73b54951d62af5c405d'),
    ('abc --kind deg22 --X 10000 --x-min 1 --x-max 12', 'csv', 0,
     'bb9f8dd29e3d14baa71479af05fdab507ab1204b18062a73c9e2041bcf21fe7d'),
    ('sato-tate --N 2000 --bins 8', 'json', 0,
     'ad06b65ca754f50f5ff5b1326693060a9548ed8da63cb73d02450d5944b45784'),
    ('sato-tate --N 2000 --bins 8', 'csv', 0,
     '872a082d1587204d04615bb3b76596c8b2082f649f65f5c4a718084a3a4c597c'),
    ('sato-tate --N 2000 --bins 8 --u-layer 2 --u-threshold 0.5', 'json', 0,
     'f280e70ad050a8ab88b5fd65382fe735e7261d5b66620348a2a8d134a503783b'),
    ('sato-tate --N 2000 --bins 8 --u-layer 2 --u-threshold 0.5', 'csv', 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('predict --X 1e22 --m-max 3 --C 1', 'json', 0,
     'dcb0b0b005d2efa239158ef9ce985ce85fbef62a18e1755e0f058cbd76157457'),
    ('predict --X 1e22 --m-max 3 --C 1', 'csv', 0,
     '484d833dad276d282b133ce73b6d6cc7a20be1f19501f08a5f2a6c5327dd5ea6'),
    ('report --X 1e6 --N 1000 --x-max 5', 'json', 0,
     'd0b2f5e10a1669a4704ec0964cef2133cd277a2cbe642e1850b03ddbf9625ad6'),
    ('report --X 1e6 --N 1000 --x-max 5', 'csv', 0,
     '0dc0f18033ca3ae6dad08a33c3dd989d55d1e5133313bd1464709ec1413c5b34'),
    ('count --kind deg22 --X 10000 --x-max 12', 'json', 0,
     '04cb48b43513e8a1798c9fd8ca3052db4b43b5857e6f5c83cadf699eebbe24d8'),
    ('count --kind deg22 --X 10000 --x-max 12', 'csv', 0,
     '6906d205eab30a68ac7e810b9022b2e64d29daeeec1bde8f8f6b38b74da7eda4'),
]


@pytest.mark.parametrize(
    "command, fmt, code, digest", FROZEN_STDOUT, ids=[f"{c}-{f}" for c, f, *_ in FROZEN_STDOUT]
)
def test_stdout_bytes_frozen(command, fmt, code, digest):
    got_code, out, _ = run(command.split() + ["--format", fmt])
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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


@pytest.mark.parametrize(
    "argv, message",
    [(["tau", "--n", "-5", "--square"], "n must be >= 1"),
     (["tau", "--max", "3", "--square"], "--square applies to --n only"),
     (["tau", "--max", "-3"], "--max must be >= 1"),
     (["tau", "--max", "0"], "--max must be >= 1"),
     (["tau", "--max", "3", "--N", "5"], "--N applies to --n only")],
    ids=["negative-n-squared", "max-squared", "negative-max", "zero-max", "max-with-N"],
)
def test_tau_flag_misuse_is_usage_error_before_the_table(argv, message, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built before the flags were checked")

    monkeypatch.setattr(cli, "delta_coefficients", no_table)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["env", "config"])
def test_tau_max_ignores_n_from_env_and_config(source, tmp_path, monkeypatch):
    argv = ["tau", "--max", "3"]
    if source == "env":
        monkeypatch.setenv("TAUSURVEY_N", "5")
    else:
        cfg = tmp_path / "tau.cfg"
        cfg.write_text("N=5\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize(
    "argv",
    [["parity", "--n", "0"],
     ["sato-tate", "--N", "100", "--u-layer", "0", "--u-threshold", "0.5"]],
    ids=lambda a: a[0],
)
def test_handler_usage_error_prints_the_subcommand_usage(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith("usage error: ")
    assert lines[1].startswith(f"usage: tausurvey {argv[0]} ")
    assert "{tau,parity" not in err  # not the root synopsis of every subcommand


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


def test_report_lists_the_smallest_prime_value():
    # |tau(251^2)| ~ 8.06e25, the paper's smallest prime value; the windowed
    # tail counts at X = 1e26 are closed-form, with no scan ceiling
    code, out, err = run(["report", "--X", "1e26", "--N", "300", "--x-max", "3"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["primes"] == [str(abs(tau_of(251 ** 2, delta_coefficients(300))))]


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


def test_config_file_keys_any_case(tmp_path):
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


def test_bad_config_value_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x=1.5\n")
    code, _, err = run(["count", "--kind", "deg11", "--x-max", "2", "--config", str(cfg)])
    assert code == 2
    assert "config key X" in err.splitlines()[0]


def test_config_key_naming_no_knob_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("X=10\nxmax=2\n")
    code, out, err = run(["count", "--kind", "deg11", "--config", str(cfg)])
    assert (code, out) == (2, "")
    first = err.splitlines()[0]
    assert first.startswith("usage error: config key 'xmax'") and str(cfg) in first
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["X 1e26", "x_max", "X:10"])
def test_config_line_without_equals_is_usage_error(line, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n\nN=300\n{line}\n")
    code, out, err = run(["survey", "--config", str(cfg)])
    assert (code, out) == (2, "")
    first = err.splitlines()[0]
    assert first.startswith("usage error: line 4 of ") and str(cfg) in first
    assert "Traceback" not in err


def test_config_key_of_another_subcommand_is_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("X=10\nbins=1\nseed=-1\n")  # sato-tate's and abc's, both invalid
    want = run(["count", "--kind", "deg11", "--X", "10"])
    assert want[0] == 0
    assert run(["count", "--kind", "deg11", "--config", str(cfg)]) == want


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
    assert err.startswith("usage error: bad value for TAUSURVEY_X: not a finite number")


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


def test_huge_x_exits_2_from_flag_env_and_config(tmp_path, monkeypatch):
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
    # of the enumeration, while the count needs no ceiling
    code, out, err = run(["near-points", "--kind", "deg11", "--X", "1e4299", "--x-max", "1"])
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: x=1:")
    code, out, err = run(["count", "--kind", "deg11", "--X", "1e4299", "--x-max", "1"])
    assert (code, err) == (0, "")
    # y in [0, isqrt(10^4299 + 1)] by sign, y = 0 once, y = +-1 at defect 0
    assert json.loads(out)["total"] == 2 * math.isqrt(10 ** 4299 + 1) - 1


def test_counts_are_exact_json_integers_of_any_size():
    code, out, err = run(["count", "--kind", "deg11", "--X", "1e60", "--x-max", "1"])
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["total"] == 2 * 10 ** 30 - 1
    assert record["X"] == str(10 ** 60)


def test_scientific_notation_x():
    code, out, _ = run(["count", "--kind", "deg11", "--X", "1e2", "--x-max", "3"])
    assert code == 0
    assert json.loads(out)["X"] == "100"


# Each integer knob, written out and in scientific notation.
SCIENTIFIC_KNOBS = [
    (["count", "--kind", "deg11", "--X", "1e3"], "x_max", "100", "1e2"),
    (["near-points", "--kind", "deg11", "--X", "100", "--x-max", "10"], "x_min", "3", "3e0"),
    (["near-points", "--kind", "deg11", "--X", "100", "--x-max", "10"], "scan_ceiling",
     "100000000", "1e8"),
    (["tau", "--n", "251", "--square"], "N", "300", "3e2"),
    (["tau", "--max", "5"], "series_max", "1000", "1E3"),
    (["predict", "--X", "1e22"], "m_max", "3", "3e0"),
    (["sato-tate", "--N", "2000"], "bins", "10", "1e1"),
    (["abc", "--kind", "deg11", "--X", "1000", "--x-max", "6"], "seed", "10", "1e1"),
    (["abc", "--kind", "deg11", "--X", "1000", "--x-max", "6"], "budget", "200000", "2e5"),
    (["survey", "--X", "1e26", "--N", "300"], "workers", "2", "2e0"),
]


@pytest.mark.parametrize("argv, knob, plain, scientific", SCIENTIFIC_KNOBS,
                         ids=[k for _, k, _, _ in SCIENTIFIC_KNOBS])
def test_integer_knobs_read_scientific_notation(argv, knob, plain, scientific, tmp_path,
                                                monkeypatch):
    flag = "--" + knob.replace("_", "-")
    code, want, err = run(argv + [flag, plain])
    assert (code, err) == (0, "")
    assert run(argv + [flag, scientific]) == (0, want, "")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{knob}={scientific}\n")
    assert run(argv + ["--config", str(cfg)]) == (0, want, "")
    env = {"TAUSURVEY_" + knob.upper(): scientific}
    assert run(argv, env=env, monkeypatch=monkeypatch) == (0, want, "")


@pytest.mark.parametrize("text", ["1.5", "1e-1", "2.5e0", "ten"])
def test_fractional_series_order_is_usage_error(text):
    code, out, err = run(["tau", "--n", "2", "--N", text])
    assert (code, out) == (2, "")
    assert "not an integer" in err


# The integer flags that are not knobs: written out and in scientific notation.
PLAIN_INT_FLAGS = [
    (["tau", "--max", "100"], ["tau", "--max", "1e2"]),
    (["tau", "--n", "100", "--N", "200"], ["tau", "--n", "1e2", "--N", "200"]),
    (["parity", "--n", "100"], ["parity", "--n", "1e2"]),
    (["sato-tate", "--N", "2000", "--bins", "4", "--p-min", "10", "--p-max", "1000"],
     ["sato-tate", "--N", "2000", "--bins", "4", "--p-min", "1e1", "--p-max", "1e3"]),
    (["sato-tate", "--N", "2000", "--bins", "4", "--u-layer", "2", "--u-threshold", "0.5"],
     ["sato-tate", "--N", "2000", "--bins", "4", "--u-layer", "2e0", "--u-threshold", "0.5"]),
]


@pytest.mark.parametrize("plain, scientific", PLAIN_INT_FLAGS,
                         ids=["tau-max", "tau-n", "parity-n", "sato-tate-p", "sato-tate-u-layer"])
def test_integer_flags_read_scientific_notation(plain, scientific):
    code, want, err = run(plain)
    assert (code, err) == (0, "")
    assert run(scientific) == (0, want, "")


@pytest.mark.parametrize("argv", [
    ["sato-tate", "--N", "100", "--u-layer", "1.5", "--u-threshold", "0.5"],
    ["tau", "--max", "1e-1"],
    ["parity", "--n", "2.5"],
])
def test_fractional_integer_flag_is_usage_error(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert "not an integer" in err


# ----------------------- each subcommand's own knobs -----------------------

# The knob flags of each subcommand: 47 in all.  It resolves these knobs, and
# reads the env and config value of no other.
KNOB_FLAGS = {
    "tau": {"--N", "--format", "--workers", "--series-max"},
    "parity": {"--format", "--workers"},
    "survey": {"--N", "--X", "--format", "--workers", "--series-max"},
    "near-points": {"--X", "--x-min", "--x-max", "--format", "--workers", "--scan-ceiling"},
    "count": {"--X", "--x-max", "--format", "--workers"},
    "abc": {"--X", "--x-min", "--x-max", "--epsilon", "--C", "--format", "--seed", "--workers",
            "--budget", "--scan-ceiling"},
    "sato-tate": {"--N", "--bins", "--format", "--workers", "--series-max"},
    "predict": {"--X", "--m-max", "--C", "--format", "--workers"},
    "report": {"--N", "--X", "--x-max", "--format", "--workers", "--series-max"},
}

# A quick run of each subcommand, exit 0.
QUICK_ARGV = {
    "tau": ["tau", "--n", "251", "--N", "300"],
    "parity": ["parity", "--n", "9"],
    "survey": ["survey", "--X", "1e6", "--N", "300"],
    "near-points": ["near-points", "--kind", "deg11", "--X", "100", "--x-max", "4"],
    "count": ["count", "--kind", "deg11", "--X", "100", "--x-max", "4"],
    "abc": ["abc", "--kind", "deg11", "--X", "100", "--x-max", "4"],
    "sato-tate": ["sato-tate", "--N", "300", "--bins", "4"],
    "predict": ["predict", "--X", "1e6"],
    "report": ["report", "--X", "1e6", "--N", "300", "--x-max", "3"],
}


def _flag(knob):
    return "--" + knob.replace("_", "-")


def _without(argv, flag):
    """argv with flag and its value taken out."""
    if flag not in argv:
        return argv
    i = argv.index(flag)
    return argv[:i] + argv[i + 2 :]


def test_each_subcommand_has_exactly_its_knob_flags():
    subs = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    flags = {
        name: {opt for a in sub._actions if a.dest in cli._KNOBS for opt in a.option_strings}
        for name, sub in subs.items()
    }
    assert flags == KNOB_FLAGS
    assert sum(map(len, flags.values())) == 47
    assert len(REFUSED_FLAGS) == 25
    for name, sub in subs.items():
        casts = sub.get_default("knob_casts")
        assert {_flag(knob) for knob in casts} == KNOB_FLAGS[name]
        args = sub.parse_args(QUICK_ARGV[name][1:])
        assert set(vars(cli._resolve(args, {}))) == set(casts)
    assert subs["predict"].get_default("knob_casts")["X"] is cli._finite_float
    assert subs["survey"].get_default("knob_casts")["X"] is cli._big_int


def _supply(knob, text, source, tmp_path, monkeypatch):
    """Set knob to text through the environment or a config file; the argv to add."""
    if source == "env":
        monkeypatch.setenv(cli.ENV_PREFIX + knob.upper(), text)
        return []
    path = tmp_path / "run.cfg"
    path.write_text(f"{knob}={text}\n")
    return ["--config", str(path)]


@pytest.mark.parametrize("source", ["env", "config"])
@pytest.mark.parametrize("knob, text", [("bins", "1"), ("seed", "-1"), ("N", "0")])
def test_bad_value_of_a_knob_not_taken_is_ignored(knob, text, source, tmp_path, monkeypatch):
    takers = [c for c in QUICK_ARGV if _flag(knob) in KNOB_FLAGS[c]]
    others = [c for c in QUICK_ARGV if c not in takers]
    clean = {c: run(QUICK_ARGV[c]) for c in others}
    extra = _supply(knob, text, source, tmp_path, monkeypatch)
    for c in others:
        assert clean[c][0] == 0 and clean[c][1] != ""
        assert run(QUICK_ARGV[c] + extra) == clean[c], c
    for c in takers:
        code, out, err = run(_without(QUICK_ARGV[c], _flag(knob)) + extra)
        assert (code, out) == (2, ""), c
        assert err.startswith("usage error: ") and "Traceback" not in err


def test_predict_takes_a_real_x_from_every_source(tmp_path, monkeypatch):
    want = run(["predict", "--X", "100.5"])
    assert want[0] == 0 and json.loads(want[1])["X"] == 100.5
    for source in ("config", "env"):
        assert run(["predict"] + _supply("X", "100.5", source, tmp_path, monkeypatch)) == want


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
def test_predict_non_finite_x_is_usage_error_from_every_source(
    text, source, tmp_path, monkeypatch
):
    if source == "flag":
        argv = ["predict", f"--X={text}"]
    else:
        argv = ["predict"] + _supply("X", text, source, tmp_path, monkeypatch)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert "not a finite number" in err and "Traceback" not in err


# Flags of the four knobs that every subcommand once took, on the subcommands
# that do not read them: 25 in all (scan_ceiling only bounds the enumeration
# of near-points and abc, so count and report refuse it too).
REFUSED_FLAGS = [
    (command, _flag(knob))
    for knob in ("N", "series_max", "seed", "scan_ceiling")
    for command in QUICK_ARGV
    if _flag(knob) not in KNOB_FLAGS[command]
]


@pytest.mark.parametrize("command, flag", REFUSED_FLAGS, ids=[f"{c}{f}" for c, f in REFUSED_FLAGS])
def test_a_knob_flag_the_subcommand_does_not_take_exits_2(command, flag):
    code, out, err = run(QUICK_ARGV[command] + [flag, "1"])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} 1" in err
    assert "Traceback" not in err


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


def _perfbench_traced_modules():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {module for module, _, _ in tracer.TRACED.values()}


def test_cli_import_loads_what_the_tracer_wraps_and_no_more():
    loaded = set(ast.literal_eval(
        _modules_loaded_by_cli_import(
            {"dataclasses", "inspect", "fractions", "ctypes", "csv", "tausurvey"}
        )
    ))
    # Start-up cost: none of these serves a subcommand; --self-test loads its
    # own, and a table build loads ctypes.
    assert loaded.isdisjoint(
        {"dataclasses", "inspect", "fractions", "ctypes", "csv", "tausurvey.selftest"}
    )
    # The tracer wraps functions of modules already imported, and the benchmark
    # times satotate's import, so none of these may become a lazy import.
    assert _perfbench_traced_modules() | {"tausurvey.satotate"} <= loaded


# ------------------------------- worker pool -------------------------------


@pytest.mark.parametrize(
    "argv",
    [["survey", "--X", "1e54", "--N", "2000"],
     ["survey", "--X", "1e120", "--N", "2000", "--format", "csv"],
     ["report", "--X", "1e14", "--N", "2000", "--x-max", "5"]],
    ids=["survey", "survey-csv", "report"],
)
def test_survey_bytes_identical_for_every_worker_count(pool_on, monkeypatch, argv):
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
def test_other_subcommands_never_start_a_pool(monkeypatch, fake_pool, argv):
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



def test_self_test_under_dash_m_imports_cli_once():
    # `python -m tausurvey.cli` runs cli.py as __main__; the self-test uses that
    # module instead of compiling cli.py again as tausurvey.cli.
    result = _run_with_src(["-X", "importtime", "-m", "tausurvey.cli", "--self-test"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "self-test OK"
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "tausurvey.selftest" in imported
    assert "tausurvey.cli" not in imported


# ----------------------- emit against its own oracle -----------------------

EMIT_FIELDS = ["a", "rad", "rad_complete", "quality", "abc_ok"]


def _emit_record(i):
    return {
        "a": str(-(7**i)),
        "rad": str(10**i + 1),
        "rad_complete": i % 3 != 0,
        "quality": None if i % 3 == 0 else 1.0 + 1 / (i + 7),
        "abc_ok": None if i % 4 == 0 else i % 2 == 0,
    }


def oracle_bytes(listing, fmt):
    """The expected stdout, one listing at a time, with no use of cli.emit."""
    if fmt == "json":
        return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in listing)

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.12g}"
        return str(value)

    rows = [EMIT_FIELDS] + [[cell(r[name]) for name in EMIT_FIELDS] for r in listing]
    text = io.StringIO()
    for row in rows:
        csv.writer(text, lineterminator="\n").writerow(row)
    return text.getvalue()


def emitted(listing, fmt, **kwargs):
    out = io.StringIO()
    cli.emit(listing, EMIT_FIELDS, fmt, out, **kwargs)
    return out.getvalue()


@pytest.fixture
def encode_calls(monkeypatch):
    """Count the calls of cli's prebuilt JSON encoder; yields the list of
    records encoded."""
    calls = []
    real = cli._encode_json

    def encode(record):
        calls.append(record)
        return real(record)

    monkeypatch.setattr(cli, "_encode_json", encode)
    return calls


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_mirrored_emit_of_a_palindromic_run(fmt, encode_calls):
    # The order abc lists one abscissa in: y from -Y up to Y, each record at
    # -y and at +y.
    records = [_emit_record(i) for i in range(6)]
    listing = records[::-1] + records
    assert emitted(listing, fmt, mirrored=True) == oracle_bytes(listing, fmt)
    assert len(encode_calls) == (6 if fmt == "json" else 0)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_with_json_swapped_for_a_dumps_namespace(fmt, monkeypatch):
    # A tracer replaces cli's json with a namespace that holds only dumps: the
    # encoder bound at import must go on printing the same bytes.
    records = [_emit_record(i) for i in range(6)]
    argv = ["abc", "--kind", "deg11", "--X", "1000", "--x-max", "6", "--epsilon", "0.5",
            "--format", fmt]
    want = run(argv)
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=json.dumps))
    assert emitted(records, fmt) == oracle_bytes(records, fmt)
    assert run(argv) == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_mirrored_emit_of_a_record_listed_three_times(fmt):
    one, two = _emit_record(1), _emit_record(2)
    listing = [one, two, one, one, two]
    assert emitted(listing, fmt, mirrored=True) == oracle_bytes(listing, fmt)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=30), st.sampled_from(["json", "csv"]), st.booleans())
def test_emit_matches_oracle_on_any_listing(picks, fmt, mirrored):
    records = [_emit_record(i) for i in range(6)]
    listing = [records[i] for i in picks]
    assert emitted(listing, fmt, mirrored=mirrored) == oracle_bytes(listing, fmt)


def test_unmirrored_emit_keeps_no_line(encode_calls):
    record = _emit_record(1)
    assert emitted([record, record], "json") == oracle_bytes([record, record], "json")
    assert encode_calls == [record, record]


# One run of each subcommand that writes CSV, with empty, boolean, float and
# enum cells among them.
CSV_RUNS = [
    ["tau", "--max", "30"],
    ["parity", "--n", "9"],
    ["survey", "--X", "1e26", "--N", "300"],
    ["near-points", "--kind", "deg22", "--X", "10000", "--x-max", "12"],
    ["count", "--kind", "deg11", "--X", "1000", "--x-max", "20"],
    ["abc", "--kind", "deg11", "--X", "1000", "--x-max", "6"],
    ["abc", "--kind", "deg11", "--X", "1000", "--x-max", "6", "--epsilon", "0.5"],
    ["sato-tate", "--N", "2000", "--bins", "8"],
    ["predict", "--X", "1e22"],
    ["report", "--X", "1e6", "--N", "1000", "--x-max", "5"],
]


@pytest.mark.parametrize("argv", CSV_RUNS,
                         ids=lambda a: a[0] + ("-epsilon" if "--epsilon" in a else ""))
def test_no_csv_cell_needs_quoting(argv):
    # emit joins cells with commas; every row splits into as many cells as the
    # header has, and the standard-library writer, fed them back, writes the
    # very same bytes.
    code, out, _ = run(argv + ["--format", "csv"])
    assert code == 0 and out.count("\n") >= 2
    rows = [line.split(",") for line in out.splitlines()]
    assert {len(row) for row in rows} == {len(rows[0])}
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(rows)
    assert again.getvalue() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["abc", "--kind", "deg11", "--X", "1000", "--x-max", "4"],
        ["near-points", "--kind", "deg11", "--X", "1000", "--x-max", "4"],
        ["tau", "--max", "20"],
        ["count", "--kind", "deg11", "--X", "1000", "--x-max", "4"],
        ["survey", "--X", "1e20", "--N", "300"],
        ["predict", "--X", "1e20"],
    ],
)
def test_only_abc_emits_mirrored(argv, monkeypatch):
    flags = []
    real = cli.emit

    def spy(records, fieldnames, fmt, out, **kwargs):
        flags.append(kwargs.get("mirrored", False))
        return real(records, fieldnames, fmt, out, **kwargs)

    monkeypatch.setattr(cli, "emit", spy)
    assert run(argv)[0] == 0
    assert flags == [argv[0] == "abc"]


class CountingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return super().write(text)


def _palindromic_runs(sizes, start=0):
    """abc's listing order: per abscissa, its records from -y up and back."""
    listing = []
    for size in sizes:
        records = [_emit_record(i) for i in range(start, start + size)]
        listing += records[::-1] + records
        start += size
    return listing


def _check_chunked(listing, fmt, mirrored):
    sink = CountingSink()
    cli.emit(listing, EMIT_FIELDS, fmt, sink, mirrored=mirrored)
    want = oracle_bytes(listing, fmt)
    assert sink.getvalue() == want
    assert len(sink.chunks) <= math.ceil(len(want) / cli._CHUNK_CHARS) + 2
    return sink.chunks


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("mirrored", [False, True])
def test_emit_writes_long_listings_in_chunks(fmt, mirrored):
    listing = _palindromic_runs([40] * 12)
    chunks = _check_chunked(listing, fmt, mirrored)
    lines = oracle_bytes(listing, fmt).splitlines(keepends=True)
    assert len(chunks) > 2
    assert all(len(c) < cli._CHUNK_CHARS + max(map(len, lines)) for c in chunks)
    # Some mirror pair has its first listing in one chunk and its second in the next.
    ends = list(itertools.accumulate(map(len, chunks)))
    starts = list(itertools.accumulate(map(len, lines), initial=0))[fmt == "csv" :]
    chunk_of = {}
    straddles = 0
    for record, start in zip(listing, starts):
        chunk = bisect.bisect_right(ends, start)
        straddles += chunk_of.setdefault(id(record), chunk) != chunk
    assert straddles > 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 60), max_size=12),
    st.integers(0, 400),
    st.sampled_from(["json", "csv"]),
    st.booleans(),
)
def test_chunked_emit_matches_oracle_on_long_listings(sizes, start, fmt, mirrored):
    _check_chunked(_palindromic_runs(sizes, start), fmt, mirrored)


def test_mirrored_emit_drops_each_line_at_its_second_listing():
    # Ten abscissas of 200 mirror pairs, each line about 2 KB: kept lines
    # would reach 4 MB, popped ones stay within one abscissa (400 KB).
    class Sink:
        def write(self, text):
            pass

    runs = []
    for x in range(10):
        records = [{"a": f"{x}-{i}-" + "7" * 2000} for i in range(200)]
        runs += records[::-1] + records
    tracemalloc.start()
    try:
        cli.emit(runs, ["a"], "json", Sink(), mirrored=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
