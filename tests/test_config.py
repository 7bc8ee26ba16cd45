import dataclasses
import json

import numpy as np
import pytest

from hraidlab import (
    FailureModel,
    HraidConfig,
    RunResult,
    ValidationError,
    d_max,
    estimate_mttdl,
    exact_reliability_enum,
    generate_layout,
    leading_term,
    random_payloads,
)
from hraidlab.config import check_exact_counts
from hraidlab.layout import KEYS


def test_valid_config_properties():
    cfg = HraidConfig(12, 12, 1, 2)
    assert (cfg.n, cfg.m, cfg.k, cfg.ell) == (12, 12, 1, 2)
    assert cfg.total_disks == 144


def test_defaults_are_no_redundancy():
    cfg = HraidConfig(3, 5)
    assert cfg.k == 0 and cfg.ell == 0


@pytest.mark.parametrize(
    "kwargs, fragment",
    # each id keeps the field name the case had before the fields were n, m, k, ell
    [
        pytest.param(dict(n=0, m=4), "n must be >= 1", id="kwargs0-n_nodes"),
        pytest.param(dict(n=4, m=0), "m must be >= 1", id="kwargs1-disks_per_node"),
        pytest.param(dict(n=4, m=4, k=4), "k must be in 0..3", id="kwargs2-inter_tolerance"),
        pytest.param(dict(n=4, m=4, k=-1), "k must be in 0..3", id="kwargs3-inter_tolerance"),
        pytest.param(
            dict(n=4, m=8, ell=4), "ell must be in 0..3", id="kwargs4-intra_tolerance"
        ),
        pytest.param(
            dict(n=4, m=8, ell=-1), "ell must be in 0..3", id="kwargs5-intra_tolerance"
        ),
        pytest.param(
            dict(n=2, m=8, k=2), "^k must be below n, got k=2 with N=2$",
            id="kwargs6-below n_nodes",
        ),
        pytest.param(
            dict(n=8, m=4, k=2, ell=2), r"^k \+ ell must be below m, got k=2, l=2 with M=4$",
            id="kwargs7-below disks_per_node",
        ),
        pytest.param(
            dict(n=4.5, m=4), "n must be an integer", id="kwargs8-n_nodes must be an integer"
        ),
        pytest.param(
            dict(n=True, m=4), "n must be an integer", id="kwargs9-n_nodes must be an integer"
        ),
        pytest.param(
            dict(n="4", m=4), "n must be an integer", id="kwargs10-n_nodes must be an integer"
        ),
        pytest.param(
            dict(n=4, m=4.0), "m must be an integer",
            id="kwargs11-disks_per_node must be an integer",
        ),
        pytest.param(
            dict(n=4, m=4, k=None), "k must be an integer", id="kwargs12-inter_tolerance"
        ),
        pytest.param(
            dict(n=4, m=4, ell=False), "ell must be an integer", id="kwargs13-intra_tolerance"
        ),
    ],
)
def test_invalid_config_names_violated_bound(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        HraidConfig(**kwargs)


def test_check_strips_must_leave_a_data_strip():
    # k + l == M leaves no data strip in the node row
    with pytest.raises(ValidationError):
        HraidConfig(4, 2, 1, 1)
    HraidConfig(4, 3, 1, 1)  # one data strip: fine


def test_failure_model_defaults():
    fm = FailureModel()
    assert fm.disk_rate == 1e-6
    assert fm.controller_rate == 0.0
    assert fm.disk_mttf_hours == 1e6


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(disk_rate=0.0),
        dict(disk_rate=-1e-6),
        dict(controller_rate=-1e-9),
        dict(disk_rate=float("nan")),
        dict(disk_rate=float("inf")),
        dict(disk_rate="1e-6"),
        dict(controller_rate=float("nan")),
        dict(controller_rate=float("inf")),
        dict(disk_rate=1e-320),
        dict(disk_rate=9.9e-31),
        dict(disk_rate=1.1e30),
        dict(controller_rate=1.1e30),
    ],
)
def test_failure_model_rejects_bad_rates(kwargs):
    with pytest.raises(ValidationError):
        FailureModel(**kwargs)


def test_failure_model_accepts_the_edges_of_the_rate_domain():
    FailureModel(disk_rate=1e-30, controller_rate=1e30)
    FailureModel(disk_rate=1e30, controller_rate=0.0)


def test_rates_beyond_the_float_range_are_validation_errors():
    # an integer rate too large for a float once raised OverflowError
    for kwargs in (dict(disk_rate=10**400), dict(controller_rate=-(10**400))):
        with pytest.raises(ValidationError, match=r"_rate must be in \["):
            FailureModel(**kwargs)


def test_numbers_are_stored_as_python_numbers():
    cfg = HraidConfig(np.int64(12), np.int32(12), np.uint8(1), np.int16(2))
    assert [type(value) for value in dataclasses.astuple(cfg)] == [int] * 4
    assert cfg == HraidConfig(12, 12, 1, 2) and hash(cfg) == hash(HraidConfig(12, 12, 1, 2))
    rates = FailureModel(np.float32(0.5), np.int64(1))
    assert (type(rates.disk_rate), type(rates.controller_rate)) == (float, float)
    assert rates == FailureModel(0.5, 1.0)


def _numpy_config(dtype, *fields):
    return HraidConfig(*map(dtype, fields))


# each case once gave a wrapped numpy answer where Python ints give the right one
@pytest.mark.parametrize(
    "compute, expected",
    [
        pytest.param(
            lambda: sum(exact_reliability_enum(_numpy_config(np.int64, 4, 4, 1, 1)).fatal_counts),
            59_411,
            id="enum-4x4",
        ),
        pytest.param(
            lambda: leading_term(_numpy_config(np.int64, 64, 64, 3, 3)).coefficient,
            103550936554701056166645989376,
            id="leading-term-64x64",
        ),
        pytest.param(
            lambda: _numpy_config(np.int32, 70000, 40000).total_disks,
            2_800_000_000,
            id="total-disks",
        ),
        pytest.param(
            lambda: d_max(_numpy_config(np.int8, 100, 100, 3, 3)), 591, id="d-max-int8"
        ),
        pytest.param(
            lambda: generate_layout(_numpy_config(np.int64, 4, 4, 1, 1)).to_json(),
            generate_layout(HraidConfig(4, 4, 1, 1)).to_json(),
            id="layout-json",
        ),
    ],
)
def test_numpy_integer_geometry_gives_python_int_answers(compute, expected):
    assert compute() == expected


def test_numpy_integer_sizes_meet_their_bounds():
    # 2**40 * 2**30 wraps to 0 in int64 and once passed the 2**53 count bound
    with pytest.raises(ValidationError, match=r"^n \* m must be below 2\*\*53"):
        check_exact_counts(_numpy_config(np.int64, 2**40, 2**30))
    # a numpy strip size once wrapped past the strip-array bound, then ran out of memory
    grid = generate_layout(HraidConfig(2, 2))
    with pytest.raises(ValidationError, match="the codec holds at most 134217728 bytes"):
        random_payloads(grid, 0, np.int64(2**62))


def test_replace_renames_no_field_and_revalidates():
    cfg = HraidConfig(12, 12, 1, 1)
    assert dataclasses.replace(cfg, k=2) == HraidConfig(12, 12, 2, 1)
    with pytest.raises(ValidationError, match="^k must be in 0..3, got 12$"):
        dataclasses.replace(cfg, k=12)


@pytest.mark.parametrize(
    "cfg",
    [
        HraidConfig(n, m, k, ell)
        for n, m in ((4, 4), (5, 6))
        for k in range(4)
        for ell in range(4)
        if k < n and k + ell < m
    ],
    ids=lambda c: f"{c.n}x{c.m}-k{c.k}l{c.ell}",
)
def test_fields_are_the_grid_keys_and_csv_columns(cfg):
    header = json.loads(generate_layout(cfg).to_json())
    run = RunResult(cfg, FailureModel(), 0, estimate_mttdl(cfg, FailureModel(), 2, 0))
    for obj in (header, run.row()):
        assert HraidConfig(**{key: obj[key] for key in KEYS}) == cfg
    assert list(dataclasses.asdict(cfg)) == list(KEYS)
    assert run.to_csv().splitlines()[0].split(",")[:4] == list(KEYS)
