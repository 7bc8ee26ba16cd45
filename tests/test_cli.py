import json

import pytest

from hraidlab import (
    FailureModel,
    HraidConfig,
    LayoutGrid,
    cell_seed,
    estimate_mttdl,
    exact_reliability_enum,
    generate_layout,
    markov_mttdl,
    sweep,
)
from hraidlab.cli import main
from hraidlab.simulator import THREADS_ENV_VAR

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
        (["sweep", "--n", "0", "--m", "0", "--trials", "5"], "n_nodes must be >= 1"),
        (["sweep", "--n", "-3", "--m", "4", "--trials", "5", "--format", "csv"],
         "n_nodes must be >= 1"),
        (["sweep", "--n", "3", "--m", "0", "--trials", "5", "--format", "json"],
         "disks_per_node must be >= 1"),
    ],
)
def test_out_of_bound_flags_are_validation_errors(argv, bound, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and bound in err


@pytest.mark.parametrize(
    "entry, bound",
    [
        pytest.param({"n": "4"}, "n_nodes must be an integer", id="4"),
        pytest.param({"n": 4.5}, "n_nodes must be an integer", id="4.5"),
        pytest.param({"n": True}, "n_nodes must be an integer", id="True"),
        pytest.param({"trials": 4.5}, "trials must be an integer", id="trials-4.5"),
        pytest.param({"trials": True}, "trials must be an integer", id="trials-True"),
        pytest.param({"seed": "x"}, "seed must be an integer", id="seed-x"),
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
    # the traced scalar engine and the batch engine agree bit for bit
    est = estimate_mttdl(HraidConfig(2, 2, 0, 1), RATES, trials=12, seed=4)
    assert json.loads(out.read_text())["mttdl_hours"] == est.mean_hours


def test_trace_creates_parent_dirs(tmp_path):
    trace = tmp_path / "a" / "b" / "events.jsonl"
    argv = ["simulate", "--n", "2", "--m", "2", "--trials", "3", "--trace", str(trace)]
    assert main(argv) == 0
    assert [json.loads(line)["trial"] for line in trace.read_text().splitlines()] == [0, 1, 2]


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
    assert out.read_text() == expected.to_json()


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
    assert "223/99" in text
    assert "1/2 -> 3194400" in text and "2/1 -> 63249120" in text


def test_codec_demo_default_scenarios(capsys):
    rc = main(["codec-demo"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "parity check after encode: ok" in text
    assert text.count("bit-exact: yes") == 2
    assert "DATA LOSS" in text  # two whole nodes exceed k=1


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
