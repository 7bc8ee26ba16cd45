import itertools
import re
from enum import Enum

import numpy as np
import pytest

from hraidlab import (
    HraidConfig,
    StripeContent,
    UnsupportedCodecError,
    ValidationError,
    data_cells,
    disk_cells,
    encode_stripes,
    exact_reliability_enum,
    generate_layout,
    node_cells,
    random_payloads,
    read_strip_tree,
    recover,
    verify_parity,
    write_strip_tree,
)

CFG = HraidConfig(4, 4, 1, 1)
Kind = Enum("Kind", "DATA INTRA INTER")
DATA, INTRA, INTER = Kind


def role_kind(grid, cell):
    """Role of a 1-based cell, decoded from the layout codes: 0 is data,
    1..l the intra checks, l+1..l+k the inter checks."""
    i, n, j = cell
    code = grid.codes[i - 1, n - 1, j - 1]
    return DATA if code == 0 else INTRA if code <= grid.config.ell else INTER


def encoded(seed=42, size=64):
    grid = generate_layout(CFG)
    return encode_stripes(random_payloads(grid, seed, size), CFG, grid)


def test_zero_data_gives_zero_checks():
    grid = generate_layout(CFG)
    payloads = {cell: bytes(16) for cell in data_cells(grid)}
    content = encode_stripes(payloads, CFG, grid)
    assert not content.strips.any()
    assert verify_parity(content) == []


def test_encode_is_idempotent_and_parity_holds():
    grid = generate_layout(CFG)
    payloads = random_payloads(grid, 42, 64)
    a = encode_stripes(payloads, CFG, grid)
    b = encode_stripes(payloads, CFG, grid)
    assert np.array_equal(a.strips, b.strips)
    assert verify_parity(a) == []


def test_parity_verifier_detects_corruption():
    content = encoded()
    content.strips[0, 0, 0, 0] ^= 0xFF
    assert verify_parity(content)


def test_rejects_unsupported_tolerances():
    cfg = HraidConfig(5, 5, 1, 2)
    grid = generate_layout(cfg)
    payloads = {cell: bytes(8) for cell in data_cells(grid)}
    with pytest.raises(UnsupportedCodecError):
        encode_stripes(payloads, cfg, grid)


def test_rejects_a_config_the_grid_was_not_built_for():
    # a k = 2 grid must not be XOR-encoded under a k = 1 config
    grid = generate_layout(HraidConfig(4, 4, 2, 1))
    payloads = random_payloads(grid, 1, 8)
    with pytest.raises(ValidationError, match="grid was built for"):
        encode_stripes(payloads, CFG, grid)


def test_rejects_wrong_payload_cells_and_sizes():
    grid = generate_layout(CFG)
    payloads = random_payloads(grid, 1, 16)
    empty = dict.fromkeys(payloads, b"")
    with pytest.raises(ValidationError, match="^strip payloads must be non-empty$"):
        encode_stripes(empty, CFG, grid)
    incomplete = dict(payloads)
    incomplete.pop(next(iter(incomplete)))
    with pytest.raises(ValidationError, match="missing"):
        encode_stripes(incomplete, CFG, grid)
    ragged = dict(payloads)
    ragged[next(iter(ragged))] = bytes(8)
    with pytest.raises(ValidationError, match="length"):
        encode_stripes(ragged, CFG, grid)


@pytest.mark.parametrize("size", [2.5, True, "8", np.float64(8)])
def test_random_payloads_refuses_a_non_integer_strip_size(size):
    # each once raised numpy's TypeError, or drew payloads for True
    with pytest.raises(ValidationError, match=r"^strip_size must be an integer, got "):
        random_payloads(generate_layout(CFG), 1, size)


def test_strip_array_must_match_its_grid():
    grid = generate_layout(CFG)
    grid_shape = r"does not match the \(4, 4, 4\) grid$"
    for shape, dtype, message in (
        ((4, 4, 4), np.uint8, grid_shape),
        ((4, 4, 3, 8), np.uint8, grid_shape),
        ((4, 3, 4, 8), np.uint8, grid_shape),
        # strips are byte payloads: floats cannot be XORed, and a bool strip
        # holds one bit a byte
        ((4, 4, 4, 8), np.float64, r"^strips must be uint8, got float64$"),
        ((4, 4, 4, 8), bool, r"^strips must be uint8, got bool$"),
        ((4, 4, 4, 0), np.uint8, r"^strips must be non-empty$"),
    ):
        with pytest.raises(ValidationError, match=message):
            StripeContent(grid, np.zeros(shape, dtype=dtype))


def test_single_strip_erasure_recovers():
    content = encoded(seed=7)
    result = recover(content, {(2, 3, 1)})
    assert not result.data_loss
    assert np.array_equal(result.content.strips, content.strips)


def test_single_disk_erasure_recovers():
    content = encoded(seed=8)
    result = recover(content, disk_cells(CFG, 2, 3))
    assert not result.data_loss and result.failed_nodes == ()
    assert np.array_equal(result.content.strips, content.strips)


def test_two_disks_in_one_node_fail_the_node_but_recover():
    content = encoded(seed=9)
    erased = disk_cells(CFG, 3, 1) | disk_cells(CFG, 3, 2)
    result = recover(content, erased)
    assert not result.data_loss
    assert result.failed_nodes == (3,)
    assert np.array_equal(result.content.strips, content.strips)


def test_whole_node_erasure_recovers_bit_exact():
    content = encoded(seed=42)
    result = recover(content, node_cells(CFG, 3))
    assert not result.data_loss
    assert np.array_equal(result.content.strips, content.strips)


def test_two_node_erasure_is_data_loss():
    content = encoded(seed=10)
    result = recover(content, node_cells(CFG, 1) | node_cells(CFG, 4))
    assert result.data_loss
    assert result.content is None
    assert result.failed_nodes == (1, 4)


def test_erasure_outside_grid_rejected():
    content = encoded()
    with pytest.raises(ValidationError):
        recover(content, {(5, 1, 1)})


NOT_A_CELL = "is not a (row, node, position) triple of integers"


@pytest.mark.parametrize(
    "cell, problem",
    [
        ((1.5, 1, 1), NOT_A_CELL),
        (("1", 1, 1), NOT_A_CELL),
        ((True, 1, 1), NOT_A_CELL),
        ((1, 1, None), NOT_A_CELL),
        ((1, 2), NOT_A_CELL),
        ((1, 2, 3, 4), NOT_A_CELL),
        (7, NOT_A_CELL),
        ("abc", NOT_A_CELL),
        ((1, 1, 0), "is outside the grid"),
    ],
    ids=repr,
)
def test_malformed_erased_cells_are_rejected(cell, problem):
    with pytest.raises(ValidationError, match=re.escape(f"erased cell {cell!r} {problem}")):
        recover(encoded(), {cell})


def test_erased_cells_may_come_as_lists_and_repeat():
    content = encoded()
    result = recover(content, [[2, 3, 4], (2, 3, 4), [1, 1, 1]])
    assert not result.data_loss
    assert np.array_equal(result.content.strips, content.strips)


def test_k0_cannot_survive_node_failure():
    cfg = HraidConfig(3, 3, 0, 1)
    grid = generate_layout(cfg)
    content = encode_stripes(random_payloads(grid, 3, 16), cfg, grid)
    assert recover(content, node_cells(cfg, 1)).data_loss
    # but a single disk still rebuilds from intra parity
    result = recover(content, disk_cells(cfg, 1, 1))
    assert not result.data_loss
    assert np.array_equal(result.content.strips, content.strips)


def test_strip_tree_round_trip_and_missing_files(tmp_path):
    content = encoded(seed=11, size=32)
    write_strip_tree(content, tmp_path)
    back, erased = read_strip_tree(tmp_path, CFG)
    assert erased == set()
    assert np.array_equal(back.strips, content.strips)
    # deleting a disk directory turns into that disk's erasure set
    for p in (tmp_path / "node2" / "disk3").iterdir():
        p.unlink()
    (tmp_path / "node2" / "disk3").rmdir()
    damaged, erased = read_strip_tree(tmp_path, CFG)
    assert erased == disk_cells(CFG, 2, 3)
    result = recover(damaged, erased)
    assert not result.data_loss
    assert np.array_equal(result.content.strips, content.strips)


def test_strip_array_bound(tmp_path):
    # 12 x 12 at 64 KiB is a 113 MB strip array; one byte a strip past
    # 2**27 / 1728 cells is refused before any strip array is allocated
    cfg = HraidConfig(12, 12, 1, 1)
    grid = generate_layout(cfg)
    bound = "the codec holds at most 134217728 bytes of strips"
    size = 2**27 // 1728 + 1
    with pytest.raises(ValidationError, match=bound):
        random_payloads(grid, 1, size)
    with pytest.raises(ValidationError, match=bound):
        encode_stripes(dict.fromkeys(data_cells(grid), bytes(size)), cfg, grid)
    (tmp_path / "node1" / "disk1").mkdir(parents=True)
    (tmp_path / "node1" / "disk1" / "row1.bin").write_bytes(bytes(size))
    with pytest.raises(ValidationError, match=bound):
        read_strip_tree(tmp_path, cfg)


def test_strip_tree_rejects_ragged_or_empty_trees(tmp_path):
    with pytest.raises(ValidationError, match="no strip files"):
        read_strip_tree(tmp_path, CFG)
    write_strip_tree(encoded(size=32), tmp_path)
    (tmp_path / "node3" / "disk2" / "row4.bin").write_bytes(bytes(31))
    with pytest.raises(ValidationError, match="has length 31, expected 32"):
        read_strip_tree(tmp_path, CFG)
    # a tree of empty files once read back as 0-byte strips that verify_parity
    # passed; the first empty file is named, among full ones or alone
    row4 = tmp_path / "node3" / "disk2" / "row4.bin"
    row4.write_bytes(b"")
    with pytest.raises(ValidationError, match=f"^strip file {re.escape(str(row4))} is empty$"):
        read_strip_tree(tmp_path, CFG)
    for p in tmp_path.rglob("*.bin"):
        p.write_bytes(b"")
    row1 = tmp_path / "node1" / "disk1" / "row1.bin"
    with pytest.raises(ValidationError, match=f"^strip file {re.escape(str(row1))} is empty$"):
        read_strip_tree(tmp_path, CFG)


# --- per-cell reference of the parity definitions ---------------------------
# Strips are Python ints (XOR of ints is XOR of their bytes) and every
# equation is a plain loop over the layout's roles, so nothing here shares
# code with the codec.


def _valid_xor_configs():
    configs = []
    for n in range(1, 9):
        for m in range(1, 9):
            for k in (0, 1):
                for ell in (0, 1):
                    try:
                        configs.append(HraidConfig(n, m, k, ell))
                    except ValidationError:
                        pass
    return configs


class Reference:
    def __init__(self, cfg):
        self.cfg = cfg
        self.grid = generate_layout(cfg)
        self.cells = [
            (i, n, j)
            for i in range(1, cfg.m + 1)
            for n in range(1, cfg.n + 1)
            for j in range(1, cfg.m + 1)
        ]
        self.kind = {c: role_kind(self.grid, c) for c in self.cells}

    def inter(self, s, i, n, j):
        """XOR of the DATA strips at (row i, position j) in the other nodes."""
        acc = 0
        for other in range(1, self.cfg.n + 1):
            if other != n and self.kind[(i, other, j)] is DATA:
                acc ^= s[(i, other, j)]
        return acc

    def intra(self, s, i, n, j):
        """XOR of the other strips in (row i, node n), inter checks included."""
        acc = 0
        for pos in range(1, self.cfg.m + 1):
            if pos != j:
                acc ^= s[(i, n, pos)]
        return acc

    def encode(self, payloads):
        s = {c: int.from_bytes(payloads.get(c, b""), "little") for c in self.cells}
        for c in self.cells:
            if self.kind[c] is INTER:
                s[c] = self.inter(s, *c)
        for c in self.cells:
            if self.kind[c] is INTRA:
                s[c] = self.intra(s, *c)
        return s

    def violations(self, s):
        return [
            mismatch(c)
            for c in self.cells
            if self.kind[c] is INTER and s[c] != self.inter(s, *c)
            or self.kind[c] is INTRA and s[c] != self.intra(s, *c)
        ]

    def checks_reading(self, cell):
        """Check cells whose equation involves ``cell``, row-major."""
        i, n, j = cell
        kind = self.kind[cell]
        return [
            c
            for c in self.cells
            if c == cell and kind is not DATA
            or c[:2] == (i, n) and self.kind[c] is INTRA and kind is not INTRA
            or c[0::2] == (i, j) and c[1] != n and self.kind[c] is INTER and kind is DATA
        ]

    def loss(self, erased):
        """(failed nodes, data-loss message or None) for an erasure set."""
        cfg = self.cfg
        failed = []
        for n in range(1, cfg.n + 1):
            for i in range(1, cfg.m + 1):
                count = 0
                for j in range(1, cfg.m + 1):
                    if (i, n, j) in erased:
                        count += 1
                if count > cfg.ell:
                    failed.append(n)
                    break
        if len(failed) > cfg.k:
            return tuple(failed), (
                f"{len(failed)} failed node(s) exceed the inter-node tolerance k={cfg.k}"
            )
        for n in failed:
            for i in range(1, cfg.m + 1):
                for j in range(1, cfg.m + 1):
                    if (i, n, j) not in erased or self.kind[(i, n, j)] is not DATA:
                        continue
                    covered = False
                    for other in range(1, cfg.n + 1):
                        if other not in failed and self.kind[(i, other, j)] is INTER:
                            covered = True
                    if not covered:
                        return tuple(failed), (
                            f"no surviving inter-node check covers row {i}, position {j}"
                        )
        return tuple(failed), None


def mismatch(cell):
    i, n, j = cell
    return f"check strip at row {i}, node {n}, position {j} does not match its parity equation"


def as_ints(content, cells):
    return {c: int.from_bytes(content.strip(c), "little") for c in cells}


@pytest.mark.parametrize("cfg", _valid_xor_configs(), ids=lambda c: f"{c.n}x{c.m}-{c.k}{c.ell}")
def test_codec_matches_per_cell_reference(cfg):
    ref = Reference(cfg)
    seed = cfg.n * 1000 + cfg.m * 10 + cfg.k * 2 + cfg.ell
    payloads = random_payloads(ref.grid, seed, 3)
    content = encode_stripes(payloads, cfg, ref.grid)
    want = ref.encode(payloads)
    assert as_ints(content, ref.cells) == want
    assert verify_parity(content) == [] == ref.violations(want)

    rng = np.random.default_rng(seed)
    for kind in (DATA, INTRA, INTER):
        of_kind = [c for c in ref.cells if ref.kind[c] is kind]
        if not of_kind:
            continue
        cell = of_kind[int(rng.integers(len(of_kind)))]
        strips = content.strips.copy()
        strips[cell[0] - 1, cell[1] - 1, cell[2] - 1, int(rng.integers(3))] ^= 0x40
        flipped = StripeContent(grid=ref.grid, strips=strips)
        expected = [mismatch(c) for c in ref.checks_reading(cell)]
        assert verify_parity(flipped) == ref.violations(as_ints(flipped, ref.cells)) == expected

    erasures = [node_cells(cfg, n) for n in range(1, cfg.n + 1)]
    erasures += [
        disk_cells(cfg, n, j) for n in range(1, cfg.n + 1) for j in range(1, cfg.m + 1)
    ]
    for p in (0.02, 0.1, 0.3):
        erasures.append({c for c in ref.cells if rng.random() < p})
    for _ in range(3):
        n, j = int(rng.integers(1, cfg.n + 1)), int(rng.integers(1, cfg.m + 1))
        erasures.append(disk_cells(cfg, n, j) | {ref.cells[int(rng.integers(len(ref.cells)))]})
    for erased in erasures:
        failed, message = ref.loss(erased)
        result = recover(content, erased)
        assert result.failed_nodes == failed
        assert result.data_loss == (message is not None)
        if message is None:
            assert np.array_equal(result.content.strips, content.strips)
        else:
            assert result.message == message and result.content is None


def test_single_node_loss_follows_the_layout_limit():
    # k = 1 with N < M leaves (row, position) columns without an inter check
    for cfg in _valid_xor_configs():
        if cfg.k != 1:
            continue
        grid = generate_layout(cfg)
        content = encode_stripes(random_payloads(grid, 5, 2), cfg, grid)
        lost = [n for n in range(1, cfg.n + 1) if recover(content, node_cells(cfg, n)).data_loss]
        if cfg.n >= cfg.m:
            assert lost == [], cfg
        else:
            assert 2 * len(lost) >= cfg.n, cfg
        if (cfg.n, cfg.m, cfg.ell) == (3, 6, 1):
            assert 2 in lost


@pytest.mark.parametrize(
    "cfg",
    [c for c in _valid_xor_configs() if c.n * c.m <= 10],
    ids=lambda c: f"{c.n}x{c.m}-{c.k}{c.ell}",
)
def test_codec_loses_the_disk_subsets_the_enumeration_counts(cfg):
    # erase every subset of whole disks: the codec loses data on at least the
    # subsets the model counts as fatal, and on exactly those where every
    # (row, position) column has an inter check (N >= M) or none is needed
    grid = generate_layout(cfg)
    content = encode_stripes(random_payloads(grid, cfg.n * 10 + cfg.m, 1), cfg, grid)
    disks = [(n, j) for n in range(1, cfg.n + 1) for j in range(1, cfg.m + 1)]
    losses = [0] * (len(disks) + 1)
    for size in range(len(disks) + 1):
        for subset in itertools.combinations(disks, size):
            result = recover(content, set().union(*(disk_cells(cfg, n, j) for n, j in subset)))
            if result.data_loss:
                losses[size] += 1
            else:
                assert np.array_equal(result.content.strips, content.strips), subset
    fatal = list(exact_reliability_enum(cfg).fatal_counts)
    assert all(lost >= want for lost, want in zip(losses, fatal, strict=True))
    assert (losses == fatal) == (cfg.k == 0 or cfg.n >= cfg.m)
