import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hraidlab import (
    HraidConfig,
    LayoutGrid,
    ValidationError,
    WorkloadParams,
    anchor_position,
    generate_layout,
    small_write_cost,
    verify_layout,
)
from hraidlab import layout as layout_module
from test_codec import DATA, INTER, INTRA, role_kind

# Golden role pattern of the 4x4 HRAID1/1 figure, all 16 node-rows.
GOLDEN_4X4 = {
    1: ["DDPQ", "DPQD", "PQDD", "QDDP"],
    2: ["DPQD", "PQDD", "QDDP", "DDPQ"],
    3: ["PQDD", "QDDP", "DDPQ", "DPQD"],
    4: ["QDDP", "DDPQ", "DPQD", "PQDD"],
}


def test_generated_grid_matches_golden_figure():
    grid = generate_layout(HraidConfig(4, 4, 1, 1))
    for row, per_node in GOLDEN_4X4.items():
        for node, letters in enumerate(per_node, start=1):
            assert grid.node_row_letters(row, node) == letters, (row, node)


def test_anchor_examples():
    # row 1, node 1 anchors at position 3; row 4, node 4 wraps to position 1
    assert anchor_position(1, 1, 4) == 3
    assert anchor_position(4, 4, 4) == 1
    grid = generate_layout(HraidConfig(4, 4, 1, 1))
    assert grid.node_row_letters(1, 1) == "DDPQ"
    assert grid.node_row_letters(4, 4) == "PQDD"


def test_no_redundancy_grid_is_all_data():
    grid = generate_layout(HraidConfig(4, 4, 0, 0))
    assert np.all(grid.codes == 0)


def test_each_disk_holds_k_plus_l_checks():
    grid = generate_layout(HraidConfig(5, 5, 2, 1))
    checks_per_disk = (grid.codes > 0).sum(axis=0)
    assert np.all(checks_per_disk == 3)


def test_roles_and_letters():
    grid = generate_layout(HraidConfig(4, 4, 1, 1))
    assert [grid.letter_at(1, 1, j) for j in (3, 4, 1)] == ["P", "Q", "D"]
    # with l=2, intra checks take P and Q; the inter check takes R
    grid2 = generate_layout(HraidConfig(4, 5, 1, 2))
    letters = {grid2.letter_at(1, 1, j) for j in range(1, 6)}
    assert letters == {"D", "P", "Q", "R"}


@pytest.mark.parametrize("k, ell", [(0, 0), (1, 1), (2, 1), (1, 3)])
def test_role_masks_agree_with_role_at(k, ell):
    grid = generate_layout(HraidConfig(5, 6, k, ell))
    # the codec reference decodes the codes on its own; role_masks must agree
    data, intra, inter = grid.role_masks()
    kinds = {DATA: data, INTRA: intra, INTER: inter}
    for i, n, j in np.ndindex(grid.codes.shape):
        kind = role_kind(grid, (i + 1, n + 1, j + 1))
        assert [mask[i, n, j] for mask in kinds.values()] == [
            other is kind for other in kinds
        ]


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7, 8])
def test_generate_verify_round_trip(size):
    for k in range(0, min(3, size - 1) + 1):
        for ell in range(0, 4):
            if k + ell >= size or k > 3 or ell > 3:
                continue
            cfg = HraidConfig(size, size, k, ell)
            assert verify_layout(generate_layout(cfg), cfg) == []


def test_column_balance_square_arrays():
    grid = generate_layout(HraidConfig(5, 5, 2, 2))
    ell = 2
    intra = (grid.codes >= 1) & (grid.codes <= ell)
    inter = grid.codes > ell
    assert np.all(intra.sum(axis=1) == 2)
    assert np.all(inter.sum(axis=1) == 2)


def test_verifier_catches_single_mutation():
    cfg = HraidConfig(4, 4, 1, 1)
    grid = generate_layout(cfg)
    codes = grid.codes.copy()
    # move row 1, node 1's P from position 3 to position 1
    codes[0, 0, 2] = 0
    codes[0, 0, 0] = 1
    mutated = LayoutGrid(config=cfg, codes=codes)
    violations = verify_layout(mutated, cfg)
    assert violations
    assert any("row 1, position 3" in v for v in violations)
    assert any("row 1, position 1" in v for v in violations)


def _loop_generate_layout(config):
    """The cell-by-cell generator the array expression replaced, as the reference."""
    m, n_nodes = config.m, config.n
    k, ell = config.k, config.ell
    codes = np.zeros((m, n_nodes, m), dtype=np.int8)
    for i in range(1, m + 1):
        for n in range(1, n_nodes + 1):
            a = anchor_position(i, n, m)
            for c in range(k + ell):
                pos = ((a - 1 + c) % m) + 1
                codes[i - 1, n - 1, pos - 1] = c + 1
    return LayoutGrid(config=config, codes=codes)


def _loop_verify_layout(grid):
    """The cell-by-cell verifier the count arrays replaced, as the reference."""
    cfg = grid.config
    m, n_nodes, k, ell = cfg.m, cfg.n, cfg.k, cfg.ell
    data, intra, inter = grid.role_masks()
    violations = []
    for i in range(m):
        for n in range(n_nodes):
            ni = int(intra[i, n].sum())
            nq = int(inter[i, n].sum())
            if ni != ell or nq != k:
                violations.append(
                    f"row {i + 1}, node {n + 1}: expected {ell} intra and {k} "
                    f"inter check strips, found {ni} intra and {nq} inter"
                )
    per_disk = (~data).sum(axis=0)
    for n in range(n_nodes):
        for j in range(m):
            cnt = int(per_disk[n, j])
            if cnt != k + ell:
                violations.append(
                    f"disk (node {n + 1}, position {j + 1}): expected {k + ell} "
                    f"check strips over {m} rows, found {cnt}"
                )
    if n_nodes == m:
        for i in range(m):
            for j in range(m):
                ci = int(intra[i, :, j].sum())
                cq = int(inter[i, :, j].sum())
                if ci != ell or cq != k:
                    violations.append(
                        f"column (row {i + 1}, position {j + 1}): expected {ell} "
                        f"intra and {k} inter check strips across nodes, found "
                        f"{ci} intra and {cq} inter"
                    )
    return violations


def _valid_configs(limit):
    return [
        HraidConfig(n, m, k, ell)
        for n in range(1, limit + 1)
        for m in range(1, limit + 1)
        for k in range(4)
        for ell in range(4)
        if k < n and k + ell < m
    ]


def test_array_layout_matches_loop_reference():
    # every valid config with N, M <= 12: equal codes, then equal violation
    # lists on the grid and on seeded two-cell mutations of it
    rng = np.random.default_rng(19)
    configs = _valid_configs(12)
    assert len(configs) == 1532
    for cfg in configs:
        grid, reference = generate_layout(cfg), _loop_generate_layout(cfg)
        assert grid.codes.dtype == reference.codes.dtype
        assert np.array_equal(grid.codes, reference.codes), cfg
        assert verify_layout(grid) == _loop_verify_layout(reference) == []
        for _ in range(2):
            codes = grid.codes.copy()
            for _ in range(2):
                cell = tuple(int(rng.integers(size)) for size in codes.shape)
                codes[cell] = rng.integers(cfg.k + cfg.ell + 1)
            mutated = LayoutGrid(cfg, codes)
            assert verify_layout(mutated) == _loop_verify_layout(mutated), cfg


@pytest.mark.parametrize(
    "n, m, k, ell", [(262144, 1, 0, 0), (64, 64, 3, 3), (16, 128, 3, 3), (1, 512, 0, 3)]
)
def test_array_layout_matches_loop_reference_at_the_cell_bound(n, m, k, ell):
    cfg = HraidConfig(n, m, k, ell)
    grid, reference = generate_layout(cfg), _loop_generate_layout(cfg)
    assert grid.codes.size == layout_module.MAX_GRID_CELLS
    assert np.array_equal(grid.codes, reference.codes)
    assert verify_layout(grid) == _loop_verify_layout(reference) == []
    if k + ell:  # move row 1, node 1's check run one position on
        codes = grid.codes.copy()
        codes[0, 0] = np.roll(codes[0, 0], 1)
        mutated = LayoutGrid(cfg, codes)
        violations = verify_layout(mutated)
        assert violations and violations == _loop_verify_layout(mutated)


def test_grid_refuses_codes_outside_its_classes():
    # HRAID1/1 has codes 0..2: a 9 once built and then failed in letter_at
    # and to_json with IndexError, and a 3..6 was written as a letter that
    # from_json refuses
    cfg = HraidConfig(4, 4, 1, 1)
    bound = r"grid codes must be integers in 0\.\.2 \(k\+l check classes\)"
    for code in (9, 3, 6, -1):
        codes = generate_layout(cfg).codes.copy()
        codes[0, 0, 0] = code
        with pytest.raises(ValidationError, match=rf"{bound}, got int8 values in \S+$"):
            LayoutGrid(cfg, codes)
    for dtype in (float, bool):
        with pytest.raises(ValidationError, match=rf"{bound}, got {np.dtype(dtype)} values"):
            LayoutGrid(cfg, generate_layout(cfg).codes.astype(dtype))


def test_grid_refuses_codes_of_another_shape():
    cfg = HraidConfig(4, 4, 1, 1)
    codes = generate_layout(cfg).codes
    for bad in (codes[:3], codes[:, :, :3], codes[0]):
        with pytest.raises(ValidationError, match=r"expected \(4, 4, 4\)\)$"):
            LayoutGrid(cfg, bad)


def test_letters_array_backs_every_letter_view():
    grid = generate_layout(HraidConfig(4, 5, 1, 2))
    letters = grid.letters()
    assert letters.shape == grid.codes.shape and not letters.flags.writeable
    assert json.loads(grid.to_json())["rows"] == letters.tolist()
    assert grid.node_row_letters(2, 3) == "".join(letters[1, 2])
    assert grid.letter_at(2, 3, 4) == letters[1, 2, 3]


def test_verifier_rejects_mismatched_config():
    grid = generate_layout(HraidConfig(4, 4, 1, 1))
    with pytest.raises(ValidationError):
        verify_layout(grid, HraidConfig(4, 4, 1, 0))


def test_grid_cell_bound():
    # N M^2 cells: 1 x 512 is at the bound, 1 x 513 and 2 x 512 past it
    assert generate_layout(HraidConfig(1, 512)).codes.size == layout_module.MAX_GRID_CELLS
    text = generate_layout(HraidConfig(2, 2)).to_json()
    for n, m in ((1, 513), (2, 512), (10**20, 2), (4, 10**20)):
        with pytest.raises(ValidationError, match="a layout grid holds at most 262144 cells"):
            generate_layout(HraidConfig(n, m))
        obj = json.loads(text)
        obj["n"], obj["m"] = n, m
        with pytest.raises(ValidationError, match="a layout grid holds at most 262144 cells"):
            LayoutGrid.from_json(json.dumps(obj))


def test_grid_json_round_trip():
    grid = generate_layout(HraidConfig(4, 4, 1, 1))
    back = LayoutGrid.from_json(grid.to_json())
    assert back.config == grid.config
    assert np.array_equal(back.codes, grid.codes)


def _first_grid_defect(rows, config):
    """Reference walker: the message naming a grid's first defect in rows ->
    nodes -> positions order, or None for a well-formed grid."""
    letters = ("D", *layout_module.CHECK_LETTERS[: config.k + config.ell])

    def shape(value, count, what):
        if isinstance(value, list) and len(value) == count:
            return None
        found = f"a list of {len(value)}" if isinstance(value, list) else type(value).__name__
        return f"{what} must be a list of {count}, got {found}"

    if message := shape(rows, config.m, "rows"):
        return message
    for i, row in enumerate(rows, start=1):
        if message := shape(row, config.n, f"row {i}"):
            return message
        for n, cells in enumerate(row, start=1):
            if message := shape(cells, config.m, f"row {i}, node {n}"):
                return message
            for j, letter in enumerate(cells, start=1):
                if letter not in letters:
                    return (
                        f"letter {letter!r} at row {i}, node {n}, position {j} is not one "
                        f"of {', '.join(letters)} (k+l={config.k + config.ell} check classes)"
                    )
    return None


@st.composite
def _defective_grids(draw):
    """A valid small grid's config and rows with 1-3 defects at random places:
    a list of the wrong length or a str, None or dict for ``rows``, a row or
    a node list, and a bad letter for a cell."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(0, min(n, m) - 1))
    config = HraidConfig(n, m, k, draw(st.integers(0, m - 1 - k)))
    rows = generate_layout(config).letters().tolist()
    for _ in range(draw(st.integers(1, 3))):
        path = [draw(st.integers(0, size - 1)) for size in (m, n, m)][: draw(st.integers(0, 3))]
        parent, value = None, rows
        for index in path:
            if not isinstance(value, list) or index >= len(value):
                break
            parent, value = value, value[index]
        else:
            if len(path) == 3:
                beyond = layout_module.CHECK_LETTERS[config.k + config.ell]
                bad = draw(st.sampled_from(["Z", beyond, 7, None, True, False, ["D"]]))
            else:
                bad = draw(st.sampled_from(["short", "long", "DP", None, {"D": 1}]))
                if bad in ("short", "long") and isinstance(value, list):
                    # a short and a long defect on one list leave a "Z" in it
                    bad = value[1:] if bad == "short" else value + ["Z"]
            if parent is None:
                rows = bad
            else:
                parent[path[-1]] = bad
    return config, rows


@settings(max_examples=300, database=None, deadline=None)
@given(_defective_grids())
def test_grid_file_names_its_first_defect_in_walk_order(grid):
    config, rows = grid
    text = json.dumps({**asdict(config), "rows": rows})
    expected = _first_grid_defect(json.loads(text)["rows"], config)
    assert expected is not None
    with pytest.raises(ValidationError) as raised:
        LayoutGrid.from_json(text)
    assert str(raised.value) == expected


def test_text_export_uses_figure_tokens():
    text = generate_layout(HraidConfig(4, 4, 1, 1)).as_text()
    assert "P1,3^1" in text and "Q1,4^1" in text and "D1,1^1" in text


def test_pattern_repeats_with_period_m():
    cfg = HraidConfig(4, 4, 1, 1)
    # row M+1 would anchor like row 1: same cyclic start
    assert anchor_position(5, 2, 4) == anchor_position(1, 2, 4)


def test_small_write_cost_examples():
    cfg11 = HraidConfig(4, 4, 1, 1)
    assert small_write_cost(WorkloadParams(1.0, 0.0, 7.5), cfg11) == 7.5
    cfg01 = HraidConfig(4, 4, 0, 1)
    assert small_write_cost(WorkloadParams(0.0, 1.0, 1.0), cfg01) == 4.0
    assert small_write_cost(WorkloadParams(0.5, 0.5, 5.0), cfg11) == pytest.approx(22.5)


def test_small_write_cost_linear_in_write_fraction():
    cfg = HraidConfig(4, 6, 1, 2)
    x_d = 3.0
    slope = 2 * (1 + 1) * (2 + 1) * x_d - x_d
    base = small_write_cost(WorkloadParams(1.0, 0.0, x_d), cfg)
    for fw in (0.25, 0.5, 0.75, 1.0):
        got = small_write_cost(WorkloadParams(1.0 - fw, fw, x_d), cfg)
        assert got == pytest.approx(base + slope * fw)


def test_workload_validation():
    with pytest.raises(ValidationError):
        WorkloadParams(0.6, 0.6, 1.0)
    with pytest.raises(ValidationError):
        WorkloadParams(0.5, 0.5, 0.0)
    with pytest.raises(ValidationError):
        WorkloadParams(-0.1, 1.1, 1.0)
    for write in (1.5, -0.5):
        with pytest.raises(ValidationError, match=r"^write_fraction must be in \[0, 1\]"):
            WorkloadParams(0.5, write, 1.0)


@pytest.mark.parametrize("codes", [None, [[[0]]]], ids=["None", "list"])
def test_grid_codes_must_be_an_array(codes):
    # a list or None once raised AttributeError on .shape
    name = type(codes).__name__
    with pytest.raises(ValidationError, match=f"^grid codes must be a numpy array, got {name}$"):
        LayoutGrid(HraidConfig(1, 1), codes)


@pytest.mark.parametrize(
    "args, problem",
    [
        # a string or None once raised TypeError, and bools passed as fractions
        (("0.5", 0.5), r"^read_fraction must be a finite number, got '0\.5'$"),
        ((None, 1.0), r"^read_fraction must be a finite number, got None$"),
        ((True, False), r"^read_fraction must be a finite number, got True$"),
        ((0.5, 0.5, True), r"^disk_access_time_ms must be a finite number, got True$"),
        # an infinite or huge access time once made the cost inf
        ((0.5, 0.5, float("inf")), r"^disk_access_time_ms must be a finite number, got inf$"),
        ((0.5, 0.5, 1e308), r"^disk_access_time_ms must be in \(0, 1e\+300\], got 1e\+308$"),
        ((0.5, 0.5, 0.0), r"^disk_access_time_ms must be in \(0, 1e\+300\], got 0\.0$"),
    ],
    ids=["str", "None", "bools", "bool-time", "inf-time", "huge-time", "zero-time"],
)
def test_workload_takes_finite_real_numbers(args, problem):
    with pytest.raises(ValidationError, match=problem):
        WorkloadParams(*args)


def test_small_write_cost_is_finite_at_the_access_time_bound():
    cost = small_write_cost(WorkloadParams(0.0, 1.0, 1e300), HraidConfig(8, 8, 3, 3))
    assert cost == 32e300
