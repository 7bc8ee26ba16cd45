import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hraidlab
from hraidlab import (
    FailureModel,
    HraidConfig,
    LayoutGrid,
    ValidationError,
    cell_seed,
    estimate_mttdl,
    exact_reliability_enum,
    generate_layout,
    markov_mttdl,
    sweep,
)
from hraidlab.cli import main
from hraidlab.simulator import MAX_TRIALS, THREADS_ENV_VAR

RATES = FailureModel(disk_rate=1e-6)


@pytest.fixture(autouse=True)
def _single_thread(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)


def test_unknown_command_is_usage_error(capsys):
    assert main(["bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_geometry_is_usage_error(capsys):
    assert main(["simulate", "--m", "4"]) == 1
    assert "--n" in capsys.readouterr().err


def test_invalid_geometry_is_validation_error(capsys):
    assert main(["simulate", "--n", "0", "--m", "4", "--trials", "5"]) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--gamma", "nan"],
         "controller_rate must be a finite number"),
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--delta", "inf"],
         "disk_rate must be a finite number"),
        (["oracle", "markov", "--n", "3", "--m", "3", "--gamma", "nan"],
         "controller_rate must be a finite number"),
        (["codec-demo", "--strip-size", "-1"], "strip_size must be >= 1"),
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--seed", str(2**70)],
         "seed must be in [0, 2**64)"),
        (["sweep", "--n", "3", "--m", "3", "--trials", "5", "--seed", "-3"],
         "seed must be in [0, 2**64)"),
        (["codec-demo", "--seed", "-1"], "seed must be in [0, 2**64)"),
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--delta", "1e-10",
          "--gamma", "1e300"], "controller_rate must be in [0, 1e+30] per hour"),
        (["oracle", "markov", "--n", "4", "--m", "4", "--k", "1", "--l", "1",
          "--delta", "1e-10", "--gamma", "1e300"], "controller_rate must be in [0, 1e+30]"),
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--delta", "1e-320"],
         "disk_rate must be in [1e-30, 1e+30] per hour"),
        (["oracle", "markov", "--n", "3", "--m", "3", "--delta", "1e-320"],
         "disk_rate must be in [1e-30, 1e+30]"),
        # these three ids keep the field names the cases had before n, m, k, ell
        pytest.param(
            ["sweep", "--n", "0", "--m", "0", "--trials", "5"], "n must be >= 1",
            id="argv11-n_nodes must be >= 1",
        ),
        pytest.param(
            ["sweep", "--n", "-3", "--m", "4", "--trials", "5", "--format", "csv"],
            "n must be >= 1", id="argv12-n_nodes must be >= 1",
        ),
        pytest.param(
            ["sweep", "--n", "3", "--m", "0", "--trials", "5", "--format", "json"],
            "m must be >= 1", id="argv13-disks_per_node must be >= 1",
        ),
        (["oracle", "markov", "--n", "100000", "--m", "12", "--k", "3", "--l", "3"],
         "the exact chain takes at most"),
        (["oracle", "markov", "--n", str(10**400), "--m", "12"], "below 2**53"),
        (["simulate", "--n", str(10**16), "--m", "12", "--k", "1", "--trials", "3"],
         "below 2**53"),
        (["simulate", "--n", str(10**12), "--m", "12", "--l", "1", "--trials", "3"],
         "events and the simulator takes at most"),
        (["layout", "--n", str(10**20), "--m", "2"], "a layout grid holds at most 262144"),
        (["layout", "--n", "4", "--m", str(10**20)], "a layout grid holds at most 262144"),
        (["layout", "--n", "1", "--m", "513", "--format", "json"],
         "a layout grid holds at most 262144 cells (N*M^2), got 263169"),
        (["codec-demo", "--n", str(10**20), "--m", "2", "--k", "0", "--l", "0"],
         "a layout grid holds at most 262144"),
        (["codec-demo", "--n", "2000", "--m", "2000", "--k", "0", "--l", "0",
          "--strip-size", "1"], "a layout grid holds at most 262144"),
        (["codec-demo", "--strip-size", str(10**20)], "the codec holds at most 134217728 bytes"),
        (["codec-demo", "--n", "12", "--m", "12", "--strip-size", "77673"],
         "the codec holds at most 134217728 bytes"),
        (["simulate", "--n", "12", "--m", "12", "--trials", str(10**12)],
         "trials must be at most 16777216, got 1000000000000"),
        (["simulate", "--n", "12", "--m", "12", "--trials", str(10**30)],
         "trials must be at most 16777216"),
        (["simulate", "--n", "12", "--m", "12", "--trials", str(MAX_TRIALS + 1)],
         "trials must be at most 16777216"),
        (["sweep", "--n", "12", "--m", "12", "--trials", str(10**12)],
         "trials must be at most 16777216"),
        (["codec-demo", "--erase-node", "5"], "is outside the grid"),
        (["codec-demo", "--erase-node", "0"], "node 0 is outside the grid (nodes 1..4)"),
        (["codec-demo", "--erase-disk", "0:1"], "node 0 is outside the grid (nodes 1..4)"),
        (["codec-demo", "--erase-disk", "5:1"], "node 5 is outside the grid (nodes 1..4)"),
        (["codec-demo", "--erase-disk", "1:0"],
         "position 0 is outside the grid (positions 1..4)"),
        (["codec-demo", "--erase-disk", "1:5"],
         "position 5 is outside the grid (positions 1..4)"),
    ],
)
def test_out_of_bound_flags_are_validation_errors(argv, bound, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and bound in err


@pytest.mark.parametrize(
    "entry, bound",
    [
        pytest.param({"n": "4"}, "n must be an integer", id="4"),
        pytest.param({"n": 4.5}, "n must be an integer", id="4.5"),
        pytest.param({"n": True}, "n must be an integer", id="True"),
        pytest.param({"trials": 4.5}, "trials must be an integer", id="trials-4.5"),
        pytest.param({"trials": True}, "trials must be an integer", id="trials-True"),
        pytest.param({"seed": "x"}, "seed must be an integer", id="seed-x"),
        pytest.param({"seed": True}, "seed must be an integer, got True", id="seed-True"),
        pytest.param({"trials": 10**12}, "trials must be at most 16777216", id="trials-10**12"),
        pytest.param({"seed": 2**64}, "seed must be in [0, 2**64)", id="seed-2**64"),
        pytest.param({"output_path": 5}, "output_path must be a string", id="output_path-5"),
        pytest.param(
            {"output_format": "xml"}, "output_format must be one of", id="output_format-xml"
        ),
    ],
)
def test_non_integer_config_geometry_is_validation_error(entry, bound, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 4, "m": 3, "trials": 5, **entry}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert bound in capsys.readouterr().err


BIG_INT_JSON = b'{"n": 1' + b"0" * 5000 + b', "m": 4, "k": 0, "ell": 0, "rows": []}'
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param(None, "cannot read config file", id="missing"),
        pytest.param(b"\xff\xfe{", "cannot read config file", id="not-utf-8"),
        pytest.param(b"{", "cannot read config file", id="truncated"),
        pytest.param(b"[1, 2]", "must hold a JSON object", id="list"),
        pytest.param(b'"n"', "must hold a JSON object", id="string"),
        # json.loads raises a plain ValueError and a RecursionError for these
        pytest.param(BIG_INT_JSON, "cannot read config file", id="5001-digit-integer"),
        pytest.param(DEEP_JSON, "cannot read config file", id="nested-200000-deep"),
    ],
)
def test_unreadable_or_non_object_config_is_validation_error(
    command, body, message, tmp_path, capsys
):
    cfg = tmp_path / "run.json"
    if body is not None:
        cfg.write_bytes(body)
    assert main([command, "--n", "3", "--m", "3", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config file {cfg}" in err and message in err


def test_flags_replace_invalid_config_values(tmp_path):
    # a config value a flag overrides is never read, so it is never checked
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 3, "m": 3, "trials": 4.5, "seed": "x"}))
    assert main(["simulate", "--config", str(cfg), "--trials", "5", "--seed", "1"]) == 0


def test_internal_failure_maps_to_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("wedged")

    monkeypatch.setattr("hraidlab.cli.estimate_mttdl", boom)
    assert main(["simulate", "--n", "2", "--m", "2", "--trials", "5"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_simulate_json_matches_library(tmp_path):
    out = tmp_path / "run.json"
    rc = main(
        [
            "simulate", "--n", "3", "--m", "3", "--k", "1", "--l", "1",
            "--trials", "80", "--seed", "7", "--format", "json",
            "--out", str(out),
        ]
    )
    assert rc == 0
    obj = json.loads(out.read_text())
    est = estimate_mttdl(HraidConfig(3, 3, 1, 1), RATES, trials=80, seed=7)
    assert obj["mttdl_hours"] == est.mean_hours
    assert obj["ci95_low"] == est.ci95_low
    assert obj["trials"] == 80 and obj["seed"] == 7
    assert obj["k"] == 1 and obj["ell"] == 1
    assert obj["delta_per_hour"] == 1e-6 and obj["gamma_per_hour"] == 0.0


def test_simulate_table_format(capsys):
    rc = main(["simulate", "--n", "2", "--m", "3", "--k", "1", "--l", "1", "--trials", "20"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "MTTDL estimate for HRAID 1/1" in text
    assert "95% CI" in text
    assert "thousand hours" in text


def test_simulate_table_keeps_small_hours_significant(capsys):
    # about 1.7e-7 h, which a fixed 3-decimal format prints as 0.000
    argv = ["simulate", "--n", "1000000000000", "--m", "12", "--k", "1", "--l", "0"]
    assert main(argv + ["--trials", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    est = estimate_mttdl(HraidConfig(10**12, 12, 1, 0), RATES, trials=3, seed=0)
    assert 0.0 < est.mean_hours < 1e-6
    assert lines[1] == (
        f"  mean    : {est.mean_hours:#.3g} h ({est.mean_hours / 1000.0:#.3g} thousand hours)"
    )
    assert lines[2] == f"  std dev : {est.std_dev_hours:#.3g} h"
    assert lines[3] == f"  95% CI  : [{est.ci95_low:#.3g}, {est.ci95_high:#.3g}] h"
    assert "0.000" not in "\n".join(lines[1:])


def test_simulate_table_hours_past_one_keep_three_decimals(capsys):
    assert main(["simulate", "--n", "3", "--m", "3", "--k", "1", "--l", "1", "--trials", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    est = estimate_mttdl(HraidConfig(3, 3, 1, 1), RATES, trials=40, seed=0)
    assert est.ci95_low >= 1.0
    assert lines[1:] == [
        f"  mean    : {est.mean_hours:.3f} h ({est.mean_hours / 1000.0:.1f} thousand hours)",
        f"  std dev : {est.std_dev_hours:.3f} h",
        f"  95% CI  : [{est.ci95_low:.3f}, {est.ci95_high:.3f}] h",
    ]


def test_simulate_table_thousands_never_print_as_zero(capsys):
    # about 8.9 h: a fixed one-decimal count of thousands prints 0.0
    argv = ["simulate", "--n", "12", "--m", "12", "--delta", "0.001", "--trials", "3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    est = estimate_mttdl(HraidConfig(12, 12), FailureModel(1e-3), trials=3, seed=0)
    assert 1.0 < est.mean_hours < 50.0
    assert lines[1] == (
        f"  mean    : {est.mean_hours:.3f} h ({est.mean_hours / 1000.0:#.3g} thousand hours)"
    )


def test_simulate_csv_reruns_byte_identical(tmp_path):
    args = [
        "simulate", "--n", "3", "--m", "3", "--trials", "60", "--seed", "5",
        "--format", "csv",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, row = out1.read_text().strip().splitlines()
    assert header.startswith("n,m,k,ell,")
    assert row.startswith("3,3,0,0,1e-06,0.0,60,5,")


def test_simulate_trace_file(tmp_path):
    trace = tmp_path / "events.jsonl"
    out = tmp_path / "run.json"
    rc = main(
        [
            "simulate", "--n", "2", "--m", "2", "--k", "0", "--l", "1",
            "--trials", "12", "--seed", "4", "--trace", str(trace),
            "--format", "json", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == 12
    events = [json.loads(line) for line in lines]
    assert [e["trial"] for e in events] == list(range(12))
    assert all(e["events"] for e in events)
    # the run behind the trace is the library's estimate, bit for bit
    est = estimate_mttdl(HraidConfig(2, 2, 0, 1), RATES, trials=12, seed=4)
    assert json.loads(out.read_text())["mttdl_hours"] == est.mean_hours


def test_trace_creates_parent_dirs(tmp_path):
    trace = tmp_path / "a" / "b" / "events.jsonl"
    argv = ["simulate", "--n", "2", "--m", "2", "--trials", "3", "--trace", str(trace)]
    assert main(argv) == 0
    assert [json.loads(line)["trial"] for line in trace.read_text().splitlines()] == [0, 1, 2]


#: sha256 of the trace file of ``TRACE_PIN_ARGV``, as the event-object trace
#: writer (``json.dumps`` of each trial's records) produced it.
TRACE_PIN_SHA256 = "a1a5eaf99a0b84394d279260770543edb791f42fdf8ea00e9a0e5888c22ba4c0"
TRACE_PIN_ARGV = [
    "simulate", "--n", "12", "--m", "12", "--k", "1", "--l", "2", "--gamma", "3e-6",
    "--trials", "300", "--seed", "2",
]


def test_trace_file_is_pinned(tmp_path):
    trace = tmp_path / "events.jsonl"
    assert main(TRACE_PIN_ARGV + ["--trace", str(trace), "--out", str(tmp_path / "run")]) == 0
    text = trace.read_text()
    causes = {json.loads(line)["cause"] for line in text.splitlines()}
    assert causes == {"disk_cascade", "controller"}
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_PIN_SHA256


@pytest.mark.parametrize("spelling", ["same", "dotted", "config"])
def test_trace_and_out_naming_one_file_is_refused(spelling, tmp_path, monkeypatch, capsys):
    # the table once overwrote the trace with exit 0; now no trial runs
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("hraidlab.simulator._simulate_chunk", no_trials)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "run.txt"
    target.write_text("keep")
    argv = ["simulate", "--n", "3", "--m", "3", "--trials", "5", "--trace", str(target)]
    if spelling == "same":
        argv += ["--out", str(target)]
    elif spelling == "dotted":
        argv += ["--out", "sub/../run.txt"]
    else:
        (tmp_path / "run.json").write_text(json.dumps({"output_path": "run.txt"}))
        argv += ["--config", "run.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.search(r"^validation error: --trace and --out name the same file ", err)
    assert target.read_text() == "keep"


@pytest.mark.parametrize(
    "argv, flags",
    [
        # each once replaced its own input file
        (["layout", "--verify", "in.json", "--out", "in.json"], "--out and --verify"),
        (["simulate", "--config", "in.json"], "--out and --config"),
        (["simulate", "--config", "in.json", "--trace", "in.json"], "--trace and --config"),
    ],
    ids=["layout-verify-out", "simulate-config-output-path", "simulate-config-trace"],
)
def test_no_output_file_overwrites_an_input(argv, flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "layout":
        text = generate_layout(HraidConfig(4, 4, 1, 1)).to_json()
    else:
        key = {"output_path": "in.json"} if "--trace" not in argv else {}
        text = json.dumps({"n": 4, "m": 4, "trials": 5, **key})
    Path("in.json").write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: {flags} name the same file in.json; give two files\n"
    assert Path("in.json").read_text() == text
    assert os.listdir(tmp_path) == ["in.json"]


@pytest.mark.parametrize("flag", ["--out", "--trace"])
@pytest.mark.parametrize("target", ["existing-dir", "under-regular-file"])
def test_unwritable_output_is_validation_error(flag, target, tmp_path, capsys):
    (tmp_path / "existing-dir").mkdir()
    (tmp_path / "plain").write_text("x")
    path = tmp_path / {"existing-dir": "existing-dir", "under-regular-file": "plain/x"}[target]
    before = sorted(tmp_path.rglob("*"))
    argv = ["simulate", "--n", "3", "--m", "3", "--trials", "5", flag, str(path)]
    assert main(argv) == 2
    assert f"validation error: cannot write output file {path}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before  # no temp file left behind


@pytest.mark.parametrize(
    "argv, flag",
    [
        # the first four once ran with exit 0, ignoring the name; an empty
        # --out once wrote a temp file in the working directory and exited 2
        # only when renaming it to '.' failed
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--trace", ""], "--trace"),
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--config", ""], "--config"),
        (["layout", "--n", "2", "--m", "2", "--verify", ""], "--verify"),
        (["codec-demo", "--dir", ""], "--dir"),
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--out", ""], "--out"),
        (["simulate", "--n", "3", "--m", "3", "--trials", "5", "--config", "run.json"], "--out"),
    ],
    ids=["trace", "config", "verify", "dir", "out", "config-output-path"],
)
def test_empty_file_name_is_refused(argv, flag, tmp_path, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("hraidlab.simulator._simulate_chunk", no_trials)
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps({"output_path": ""}))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"validation error: {flag} is an empty name\n"
    assert os.listdir(tmp_path) == ["run.json"]


def test_bad_trial_count_with_trace_writes_nothing(tmp_path, capsys):
    trace = tmp_path / "f"
    argv = ["simulate", "--n", "3", "--m", "3", "--trials", "-5", "--trace", str(trace)]
    assert main(argv) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not trace.exists()


def test_config_file_supplies_values(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {"n": 3, "m": 3, "k": 0, "ell": 1, "trials": 40, "seed": 3,
             "output_format": "json"}
        )
    )
    out = tmp_path / "result.json"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    est = estimate_mttdl(HraidConfig(3, 3, 0, 1), RATES, trials=40, seed=3)
    assert obj["mttdl_hours"] == est.mean_hours
    assert obj["ell"] == 1


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 3, "m": 3, "k": 0, "trials": 40, "seed": 3}))
    out = tmp_path / "result.json"
    rc = main(
        ["simulate", "--config", str(cfg), "--k", "1", "--format", "json",
         "--out", str(out)]
    )
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["k"] == 1
    est = estimate_mttdl(HraidConfig(3, 3, 1, 0), RATES, trials=40, seed=3)
    assert obj["mttdl_hours"] == est.mean_hours


def test_layout_verify_names_the_grid_bound(tmp_path, capsys):
    obj = json.loads(generate_layout(HraidConfig(2, 2)).to_json())
    obj["n"] = 10**20
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(obj))
    assert main(["layout", "--verify", str(grid_file)]) == 2
    assert "a layout grid holds at most 262144 cells" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, keys",
    [({"k": 2, "ell": 0}, "['ell', 'k']"), ({"k": 0}, "['k']"), ({"ell": 1}, "['ell']")],
)
def test_sweep_config_refuses_k_and_ell(entry, keys, tmp_path, capsys):
    # a sweep runs every (k, l) cell: a config file that names one is refused,
    # as the --k and --l flags are
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"n": 3, "m": 3, "trials": 8, "seed": 1, **entry}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert f"unknown keys {keys}" in capsys.readouterr().err
    assert main(["sweep", "--k", "2", "--n", "3", "--m", "3"]) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 3, "m": 3, "cheese": 1}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "cheese" in capsys.readouterr().err


def test_sweep_json_matches_library(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(
        ["sweep", "--n", "3", "--m", "3", "--trials", "30", "--seed", "2",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    expected = sweep(3, 3, RATES, trials=30, seed=2)
    assert out.read_text() == expected.to_json() + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "4", "--m", "4", "--trials", "10"],
        ["simulate", "--n", "4", "--m", "4", "--trials", "10", "--format", "json"],
        ["simulate", "--n", "4", "--m", "4", "--trials", "10", "--format", "csv"],
        ["sweep", "--n", "3", "--m", "3", "--trials", "5"],
        ["sweep", "--n", "3", "--m", "3", "--trials", "5", "--format", "json"],
        ["sweep", "--n", "3", "--m", "3", "--trials", "5", "--format", "csv"],
        ["analytic", "report", "--n", "4", "--m", "4", "--k", "1", "--l", "1", "--eps", "0.01"],
        ["analytic", "compare", "--n", "12", "--m", "12"],
        ["oracle", "enum", "--n", "2", "--m", "2", "--eps", "0.1"],
        ["oracle", "markov", "--n", "12", "--m", "12", "--k", "1", "--l", "1"],
        ["layout", "--n", "4", "--m", "4", "--k", "1", "--l", "1"],
        ["layout", "--n", "4", "--m", "4", "--k", "1", "--l", "1", "--format", "json"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a[0].isdigit() and a[0] != "-"),
)
def test_out_file_holds_the_bytes_stdout_prints(tmp_path, capsys, argv):
    # a table or JSON --out file once lacked the newline that ends it on stdout
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed


def test_layout_verify_out_file_holds_the_bytes_stdout_prints(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(generate_layout(HraidConfig(4, 4, 1, 1)).to_json())
    out = tmp_path / "out.txt"
    argv = ["layout", "--verify", str(grid)]
    assert main(argv) == 0 and main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_sweep_table_never_prints_nonzero_as_zero(capsys):
    assert main(["sweep", "--n", "12", "--m", "12", "--delta", "0.001", "--trials", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    grid = sweep(12, 12, FailureModel(1e-3), trials=3, seed=0)
    thousands = {(c.k, c.ell): c.estimate.mean_hours / 1000.0 for c in grid.cells}
    assert min(thousands.values()) < 0.05 <= max(thousands.values())
    for ell, line in enumerate(lines[2:]):
        assert len(line) == len(lines[1]) == 6 + 4 * 10
        for k in range(4):
            x = thousands[(k, ell)]
            want = f"{x:.1f}" if x >= 0.05 else f"{x:#.3g}"
            assert line[6 + 10 * k : 16 + 10 * k] == f"{want:>10}", (k, ell)


def test_sweep_csv_reruns_byte_identical(tmp_path):
    args = ["sweep", "--n", "3", "--m", "3", "--trials", "25", "--seed", "8",
            "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_thread_env_is_validation_error(monkeypatch, capsys):
    monkeypatch.setenv(THREADS_ENV_VAR, "soon")
    assert main(["simulate", "--n", "2", "--m", "2", "--trials", "5"]) == 2
    assert THREADS_ENV_VAR in capsys.readouterr().err


def test_layout_text_output(capsys):
    rc = main(["layout", "--n", "4", "--m", "4", "--k", "1", "--l", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "HRAID 1/1 layout" in text
    assert "D1,1^1" in text and "P1,3^1" in text and "Q1,4^1" in text


def test_layout_json_round_trips_to_golden(tmp_path):
    out = tmp_path / "grid.json"
    rc = main(
        ["layout", "--n", "4", "--m", "4", "--k", "1", "--l", "1",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    grid = LayoutGrid.from_json(out.read_text())
    assert grid.node_row_letters(1, 1) == "DDPQ"
    assert grid.node_row_letters(2, 1) == "DPQD"
    assert grid.node_row_letters(1, 4) == "QDDP"


def test_layout_verify_accepts_generated_grid(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(generate_layout(HraidConfig(4, 4, 1, 1)).to_json())
    assert main(["layout", "--verify", str(grid_file)]) == 0
    assert "layout valid" in capsys.readouterr().out


def test_layout_verify_flags_tampered_grid(tmp_path, capsys):
    obj = json.loads(generate_layout(HraidConfig(4, 4, 1, 1)).to_json())
    # swap a data and a check letter inside one node row: per-row counts
    # still hold, per-disk and column balance do not
    row = obj["rows"][0][0]
    row[0], row[2] = row[2], row[0]
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(obj))
    assert main(["layout", "--verify", str(grid_file)]) == 2
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "disk (node 1, position 1)" in out


def test_layout_verify_missing_file(capsys):
    assert main(["layout", "--verify", "/nonexistent/grid.json"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_layout_verify_non_utf8_file(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_bytes(b"\xff\xfe{")
    assert main(["layout", "--verify", str(grid_file)]) == 2
    assert f"validation error: cannot read grid file {grid_file}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body", [BIG_INT_JSON, DEEP_JSON], ids=["5001-digit-integer", "nested-200000-deep"]
)
def test_layout_verify_json_that_json_refuses(body, tmp_path, capsys):
    # each once exited 3 with json.loads' ValueError or RecursionError
    grid_file = tmp_path / "grid.json"
    grid_file.write_bytes(body)
    assert main(["layout", "--verify", str(grid_file)]) == 2
    assert f"validation error: cannot read grid file {grid_file}: " in capsys.readouterr().err
    with pytest.raises(ValidationError):
        LayoutGrid.from_json(body.decode())


def _grid_2x2(rows):
    """A 2 x 2 HRAID 0/1 grid file body with the given rows."""
    return {"n": 2, "m": 2, "k": 0, "ell": 1, "rows": rows}


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"n": 2, "m": 2}, "grid is missing key(s): k, ell, rows"),
        ([1, 2], "grid must be a JSON object, got list"),
        (_grid_2x2([[["D", "Z"], ["P", "D"]], [["P", "D"], ["D", "P"]]]),
         "letter 'Z' at row 1, node 1, position 2 is not one of D, P"),
        (_grid_2x2([[["D", "Q"], ["P", "D"]], [["P", "D"], ["D", "P"]]]),
         "letter 'Q' at row 1, node 1, position 2 is not one of D, P"),
        (_grid_2x2([[["D", "P"], ["P", "D"]]]), "rows must be a list of 2, got a list of 1"),
        (_grid_2x2([[["D", "P"]], [["P", "D"], ["D", "P"]]]),
         "row 1 must be a list of 2, got a list of 1"),
        (_grid_2x2([[["D", "P"], "PD"], [["P", "D"], ["D", "P"]]]),
         "row 1, node 2 must be a list of 2, got str"),
        (_grid_2x2([[["D", "P"], ["P", "D"]], [["P", 3], ["D", "P"]]]),
         "letter 3 at row 2, node 1, position 2 is not one of D, P"),
        (_grid_2x2([[["D", "P"], ["P", "D"]], [["P", "D"], [["D"], "P"]]]),
         "letter ['D'] at row 2, node 2, position 1 is not one of D, P"),
        (_grid_2x2([[["D", None], ["P", "D"]], [["P", "D"], ["D", "P"]]]),
         "letter None at row 1, node 1, position 2 is not one of D, P"),
        # several defects: the first in rows -> nodes -> positions order is named
        (_grid_2x2([[["Z", "P"], ["P"]], [["P", "D"], ["D", "P"]]]),
         "letter 'Z' at row 1, node 1, position 1 is not one of D, P"),
        (_grid_2x2([[["D", "P"], ["P"]], [["Z", "D"], ["D", "P"]]]),
         "row 1, node 2 must be a list of 2, got a list of 1"),
        (_grid_2x2([[["D", "P"], ["P", "D"]], [["P", "D", "D"], ["Z", "P"]]]),
         "row 2, node 1 must be a list of 2, got a list of 3"),
    ],
)
def test_layout_verify_rejects_malformed_grid(tmp_path, capsys, grid, message):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(grid))
    assert main(["layout", "--verify", str(grid_file)]) == 2
    assert message in capsys.readouterr().err


def test_oracle_enum_output(tmp_path):
    out = tmp_path / "counts.csv"
    rc = main(
        ["oracle", "enum", "--n", "2", "--m", "2", "--k", "1", "--l", "0",
         "--eps", "0.5", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,total_subsets,fatal_count"
    poly = exact_reliability_enum(HraidConfig(2, 2, 1, 0))
    for d, line in enumerate(lines[1:5]):
        assert line == f"{d},{[1, 4, 6, 4][d]},{poly.fatal_counts[d]}"
    assert lines[-1].startswith("# unreliability at eps=0.5: ")
    assert float(lines[-1].rsplit(" ", 1)[1]) == pytest.approx(0.5625, rel=1e-12)


@pytest.mark.parametrize("eps", ["0.9999999", "0.1234567891"])
def test_oracle_enum_echoes_the_eps_it_used(eps, capsys):
    assert main(["oracle", "enum", "--n", "4", "--m", "4", "--k", "1", "--l", "1",
                 "--eps", eps]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"# unreliability at eps={eps}: ")


@pytest.mark.parametrize("delta, gamma", [("1.0000001e-06", "0.0"), ("1e-06", "1.23456789e-07")])
@pytest.mark.parametrize(
    "command",
    [["simulate", "--trials", "5"], ["sweep", "--trials", "5"], ["oracle", "markov"]],
    ids=["simulate", "sweep", "oracle-markov"],
)
def test_run_header_echoes_the_rates_it_used(command, delta, gamma, capsys):
    assert main([*command, "--n", "4", "--m", "4", "--delta", delta, "--gamma", gamma]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert f": N=4, M=4, delta={delta}/h, gamma={gamma}/h" in header


def test_oracle_markov_output(capsys):
    rc = main(["oracle", "markov", "--n", "2", "--m", "2", "--k", "0", "--l", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "exact MTTDL for HRAID 0/1" in text
    hours = float(text.splitlines()[1].split()[0])
    expected = markov_mttdl(HraidConfig(2, 2, 0, 1), RATES)
    assert hours == pytest.approx(expected, rel=1e-14)
    # a chain of a thousand events runs without touching the recursion limit
    assert main(["oracle", "markov", "--n", "1000", "--m", "12", "--l", "1"]) == 0


@pytest.mark.parametrize(
    "delta, thousands", [("0.001", "0.0069"), ("1", "6.94e-06"), ("1e-6", "6.9444")]
)
def test_oracle_markov_thousand_hours_never_print_as_zero(delta, thousands, capsys):
    # 1/(12 * 12 * delta) hours; a fixed 4-decimal count of thousands prints
    # 0.0000 for the 0.0069 h of delta = 1
    argv = ["oracle", "markov", "--n", "12", "--m", "12", "--delta", delta]
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.endswith(f" hours ({thousands} thousand hours)")


def test_analytic_report_output(capsys):
    rc = main(
        ["analytic", "report", "--n", "12", "--m", "12", "--k", "1", "--l", "2",
         "--eps", "1e-3"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "d_min" in text and ": 6" in text
    assert "3194400 * eps^6" in text
    assert "p_1/2 = (M-2)/D_S = 1/13" in text
    assert "at eps = 0.001" in text
    for label in ("two-term series", "leading-term approximation"):
        line = next(s for s in text.splitlines() if label in s)
        assert 0.0 < float(line.split(":")[1]) < 1.0


@pytest.mark.parametrize("eps", ["0.9999999", "0.1234567891"])
def test_analytic_report_echoes_the_eps_it_used(eps, capsys):
    assert main(["analytic", "report", "--n", "12", "--m", "12", "--k", "1", "--l", "2",
                 "--eps", eps]) == 0
    assert f"  at eps = {eps}:" in capsys.readouterr().out.splitlines()


def test_analytic_report_at_two_thousand_nodes(capsys):
    # C(2000, j) alone overflows a float; the report still answers
    argv = ["analytic", "report", "--n", "2000", "--m", "12", "--k", "3", "--l", "3"]
    assert main(argv + ["--eps", "0.5"]) == 0
    text = capsys.readouterr().out
    line = next(s for s in text.splitlines() if "array unreliability" in s)
    assert float(line.split(":")[1]) == pytest.approx(1.0, rel=1e-10)
    # at this eps the truncated series are not probabilities
    for label in ("two-term series", "leading-term approximation"):
        line = next(s for s in text.splitlines() if label in s)
        assert line.endswith(": n/a (approximation outside [0, 1] at this eps)")


def test_analytic_compare_output(capsys):
    rc = main(["analytic", "compare", "--n", "12", "--m", "12"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "verdict: ONE_TWO_BETTER" in text
    # 2 + 3 C(12,3)^2 / C(12,2)^3, where C(N,2) C(12,3)^2 = C(N,3) C(12,2)^3
    assert "threshold form: N > 2 + 3C(M,3)^2/C(M,2)^3 = 248/99 ~= 2.50505" in text
    assert "1/2 -> 3194400" in text and "2/1 -> 63249120" in text


def test_analytic_compare_refuses_a_pair_that_does_not_fit(capsys):
    # HRAID1/2 needs k + l = 3 below M, so M = 3 has no 1/2 code
    assert main(["analytic", "compare", "--n", "12", "--m", "3"]) == 2
    err = capsys.readouterr().err
    assert "HRAID1/2 vs HRAID2/1 needs both codes to fit" in err
    assert "k + ell must be below m, got k=1, l=2 with M=3" in err


@pytest.mark.parametrize(
    "geometry", [["--n", "12", "--m", "3"], ["--n", "2", "--m", "2", "--k", "1"]]
)
def test_analytic_report_omits_pair_lines_where_the_pair_does_not_fit(geometry, capsys):
    assert main(["analytic", "report", *geometry]) == 0
    text = capsys.readouterr().out
    assert "leading unreliability term" in text
    assert "D_S" not in text and "p_1/2" not in text and "threshold" not in text


def _readme_commands():
    """Each command of the README's Command line block, with its optional
    [...] parts dropped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("hraidlab ")]
    return [shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:] for line in lines]


def test_readme_command_block_is_found():
    assert len(_readme_commands()) == 8


@pytest.mark.parametrize(
    "argv", _readme_commands(), ids=lambda a: "-".join(w for w in a[:2] if w[0] != "-")
)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_codec_demo_default_scenarios(capsys):
    rc = main(["codec-demo"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "parity check after encode: ok" in text
    assert text.count("bit-exact: yes") == 2
    assert "DATA LOSS" in text  # two whole nodes exceed k=1


def test_codec_demo_default_scenarios_on_one_node(capsys):
    rc = main(["codec-demo", "--n", "1", "--m", "2", "--k", "0", "--l", "1", "--strip-size", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "recover after single disk (node 1, position 1): rebuilt 2 strips" in text
    assert "recover after whole node 1: DATA LOSS" in text  # one node exceeds k=0
    assert "node 2" not in text


def test_codec_demo_requested_erasure(capsys, tmp_path):
    rc = main(
        ["codec-demo", "--n", "4", "--m", "4", "--k", "1", "--l", "1",
         "--strip-size", "64", "--erase-disk", "2:3", "--dir", str(tmp_path / "tree")]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "erased disk: node 2, position 3" in text
    assert "bit-exact: yes" in text
    assert (tmp_path / "tree" / "node2" / "disk3" / "row1.bin").exists()


def test_codec_demo_erase_node(capsys):
    assert main(["codec-demo", "--strip-size", "16", "--erase-node", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        "erased node 3",
        "recover after requested erasure: rebuilt 16 strips, bit-exact: yes "
        "(failed nodes restriped: (3,))",
    ]
    assert main(["codec-demo", "--strip-size", "16", "--erase-node", "1", "--erase-node", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "recover after requested erasure: DATA LOSS "
        "(2 failed node(s) exceed the inter-node tolerance k=1)"
    )


def test_codec_demo_unwritable_dir_is_validation_error(tmp_path, capsys):
    (tmp_path / "plain").write_text("x")
    target = tmp_path / "plain" / "tree"
    assert main(["codec-demo", "--strip-size", "8", "--dir", str(target)]) == 2
    assert f"cannot write strip tree under {target}" in capsys.readouterr().err


def test_codec_demo_bad_erase_spec(capsys):
    assert main(["codec-demo", "--erase-disk", "abc"]) == 1
    assert "NODE:POS" in capsys.readouterr().err


def test_cell_seed_used_by_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--n", "2", "--m", "2", "--trials", "40", "--seed", "6",
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    est = estimate_mttdl(HraidConfig(2, 2, 0, 1), RATES, trials=40,
                         seed=cell_seed(6, 0, 1))
    by_cell = {tuple(r.split(",")[2:4]): r for r in rows}
    row = by_cell[("0", "1")]
    assert float(row.split(",")[8]) == est.mean_hours


@pytest.mark.parametrize("n", ["12", "2"])  # an answer, and a named bound (exit 2)
def test_python_dash_m_runs_main(n, capsys):
    argv = ["analytic", "compare", "--n", n, "--m", "4"]
    rc = main(argv)
    captured = capsys.readouterr()
    # the child imports the package these tests import
    paths = [str(Path(hraidlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "hraidlab", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, captured.out, captured.err)
