import dataclasses
import json
import math
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hraidlab.analytic import conditional_sixth_failure, raid_series_approx
from hraidlab.config import check_exact_counts, check_integer, check_real, class_events
from hraidlab.layout import KEYS, WorkloadParams, small_write_cost


def test_valid_config_properties():
    cfg = HraidConfig(12, 12, 1, 2)
    assert (cfg.n, cfg.m, cfg.k, cfg.ell) == (12, 12, 1, 2)
    assert cfg.total_disks == 144


@pytest.mark.parametrize(
    "m, ell, rate, rows",
    # a positive controller rate keeps each case's id from before the rate was an input
    [
        pytest.param(12, 0, 1e-7, [(0, 12, 1), (0, 0, 1)], id="12-0-rows0"),
        pytest.param(12, 1, 1e-7, [(0, 12, 1), (1, 11, 2), (0, 0, 2), (1, 0, 2)], id="12-1-rows1"),
        pytest.param(12, 2, 1e-7, [(0, 12, 1), (1, 11, 2), (2, 10, 3),
                                   (0, 0, 3), (1, 0, 3), (2, 0, 3)], id="12-2-rows2"),
        pytest.param(12, 3, 1e-7, [(0, 12, 1), (1, 11, 2), (2, 10, 3), (3, 9, 4),
                                   (0, 0, 4), (1, 0, 4), (2, 0, 4), (3, 0, 4)], id="12-3-rows3"),
        pytest.param(1, 0, 1e-7, [(0, 1, 1), (0, 0, 1)], id="1-0-rows4"),
        pytest.param(2, 1, 1e-7, [(0, 2, 1), (1, 1, 2), (0, 0, 2), (1, 0, 2)], id="2-1-rows5"),
        pytest.param(3, 2, 1e-7, [(0, 3, 1), (1, 2, 2), (2, 1, 3),
                                  (0, 0, 3), (1, 0, 3), (2, 0, 3)], id="3-2-rows6"),
        pytest.param(4, 3, 1e-7, [(0, 4, 1), (1, 3, 2), (2, 2, 3), (3, 1, 4),
                                  (0, 0, 4), (1, 0, 4), (2, 0, 4), (3, 0, 4)], id="4-3-rows7"),
        # the smallest positive rate lists them all
        (12, 3, 5e-324, [(0, 12, 1), (1, 11, 2), (2, 10, 3), (3, 9, 4),
                         (0, 0, 4), (1, 0, 4), (2, 0, 4), (3, 0, 4)]),
        # at rate 0 no controller row: every row of the table is an event with a rate
        (12, 0, 0.0, [(0, 12, 1)]),
        (12, 1, 0.0, [(0, 12, 1), (1, 11, 2)]),
        (12, 2, 0.0, [(0, 12, 1), (1, 11, 2), (2, 10, 3)]),
        (12, 3, 0.0, [(0, 12, 1), (1, 11, 2), (2, 10, 3), (3, 9, 4)]),
        (1, 0, 0.0, [(0, 1, 1)]),
        (2, 1, 0.0, [(0, 2, 1), (1, 1, 2)]),
        (3, 2, 0.0, [(0, 3, 1), (1, 2, 2), (2, 1, 3)]),
        (4, 3, 0.0, [(0, 4, 1), (1, 3, 2), (2, 2, 3), (3, 1, 4)]),
    ],
)
def test_class_events_rows(m, ell, rate, rows):
    # (class, disk multiplicity, target class, l + 1 for death): disk events
    # of classes 0..l, then, at a positive controller rate, controller events
    # of classes 0..l
    assert class_events(m, ell, rate) == tuple(rows)


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


def _enum_4x4():
    return exact_reliability_enum(HraidConfig(4, 4, 1, 1))


def _small_write_cost(*fractions):
    return small_write_cost(WorkloadParams(*fractions), HraidConfig(4, 4, 1, 1))


def _kinds(answer):
    """The types of an answer's parts: a tuple's items, a dataclass's fields,
    or the answer itself."""
    if dataclasses.is_dataclass(answer):
        answer = dataclasses.astuple(answer)
    return [type(part) for part in answer] if isinstance(answer, tuple) else [type(answer)]


# each case once raised, warned (an error under the suite's filterwarnings), or
# gave a numpy answer where the same values as Python numbers give the right one
@pytest.mark.parametrize(
    "compute, args",
    [
        pytest.param(
            lambda eps: leading_term(HraidConfig(12, 12, 1, 1)).evaluate(eps),
            (np.float32(0.1),),
            id="leading-term-float32",
        ),
        pytest.param(
            lambda eps: raid_series_approx(12, 1, eps), (np.float32(0.1),), id="series-float32"
        ),
        pytest.param(
            raid_series_approx, (np.int64(12), np.int64(1), 0.1), id="series-int64"
        ),
        pytest.param(
            lambda eps: _enum_4x4().reliability(eps), (np.float16(0.9),), id="enum-reliability"
        ),
        pytest.param(
            lambda eps: _enum_4x4().unreliability(eps),
            (np.float32(0.1),),
            id="enum-unreliability",
        ),
        pytest.param(
            conditional_sixth_failure, (np.int64(12), np.int64(12)), id="sixth-failure"
        ),
        pytest.param(
            _small_write_cost,
            (np.float32(0.7), np.float32(0.3), np.float32(2.0)),
            id="workload-float32",
        ),
        pytest.param(FailureModel, (np.float16(1e-3),), id="rates-float16"),
    ],
)
def test_numpy_numbers_give_python_number_answers(compute, args):
    got = compute(*args)
    want = compute(*(x.item() if isinstance(x, np.generic) else x for x in args))
    assert got == want and _kinds(got) == _kinds(want)


def test_fraction_past_the_float_range_is_a_validation_error():
    # a Fraction rate too large for a float once raised OverflowError
    with pytest.raises(ValidationError, match=r"^disk_rate must be in \["):
        FailureModel(disk_rate=Fraction(10**400))


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


def _is_integer(value):
    """The integer rule before its fast path, written out."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _is_finite_real(value):
    """The finite-real rule before its fast path, written out."""
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and (isinstance(value, numbers.Rational) or math.isfinite(value))
    )


_NUMBERS = st.one_of(
    st.integers(),
    st.just(10**400),
    st.just(Fraction(10**400)),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.fractions(),
    st.decimals(),
    st.none(),
    st.text(max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(_NUMBERS)
def test_number_checks_keep_their_rules(value):
    for check, rule in ((check_integer, _is_integer), (check_real, _is_finite_real)):
        try:
            check("x", value)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == rule(value), (check.__name__, value)
