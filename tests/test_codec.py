import hashlib
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
    # 16 items of 2 bytes are 32 bytes: lengths are counted in bytes
    # (numpy's broadcasting ValueError once named the mismatch)
    ragged[next(iter(ragged))] = np.zeros(16, np.uint16)
    with pytest.raises(ValidationError, match=r"^strip payloads must share one length, got \[16, 32\]$"):
        encode_stripes(ragged, CFG, grid)


@pytest.mark.parametrize(
    "payload",
    [None, "abcd", [0, 1, 2, 3], np.zeros((4, 2), np.uint8)[:, 0]],
    ids=["None", "str", "list", "non-contiguous"],
)
def test_rejects_payloads_that_are_not_bytes_like(payload):
    # each once raised TypeError or BufferError from len() or np.frombuffer
    grid = generate_layout(CFG)
    payloads = random_payloads(grid, 1, 4)
    cell = data_cells(grid)[1]
    payloads[cell] = payload
    message = (
        rf"^payload of cell {re.escape(str(cell))} must be a C-contiguous "
        rf"bytes-like object, got {type(payload).__name__}$"
    )
    with pytest.raises(ValidationError, match=message):
        encode_stripes(payloads, CFG, grid)


def test_payloads_are_sized_in_bytes():
    # 2-item int32 arrays are 8-byte strips; len() once sized them at 2 items
    grid = generate_layout(CFG)
    cells = data_cells(grid)
    payloads = {cell: np.array([c, -c], np.int32) for c, cell in enumerate(cells)}
    content = encode_stripes(payloads, CFG, grid)
    assert content.strips.shape[3] == 8
    for (i, n, j), payload in payloads.items():
        assert content.strip((i, n, j)) == payload.tobytes()
    assert verify_parity(content) == []


# sha256 of the payload bytes, concatenated in cell order, of
# random_payloads(generate_layout(HraidConfig(n, m, 1, 1)), seed, size);
# keyed by (n, m, size, seed)
PAYLOAD_DIGESTS = {
    (3, 6, 1, 0): "59769eeaebeb19118a45a010258b8758a293cd858dfca26d232fdedd339785e6",
    (3, 6, 1, 2): "ef3ebfa7079062b479fb3db59ef24bba23cb0bb825ac700b506445fb4e0be2cf",
    (3, 6, 1, 2**64 - 1): "3e4d0094be2d7d209212f8194895004c9e1c45ec98f18a6d6a725fe5db8d46bf",
    (3, 6, 3, 0): "ce9b46af7f91c13a25fc4abc52a7d592a3ac9bc65a0b6a478542b9b25dd729b8",
    (3, 6, 3, 2): "1f40260b9a1a4a42bc577cc28d21066c646624718eac4a3c5bcc601b70375374",
    (3, 6, 3, 2**64 - 1): "ad96a19ede53e39bca710f95d4b20d91ef9f359581189b77c8bf09fbd26f4145",
    (3, 6, 4, 0): "b7b4bae86b432d040097c3261bcd497ba84e40131017c78cc9176c519311c352",
    (3, 6, 4, 2): "016137652ff67f17f7038d86784898eb0708357d7915d7c5b9bf4552d849feea",
    (3, 6, 4, 2**64 - 1): "3a28a81e64675caf589fc092aa15a5b2e8ea0997eabb904cd6f27ca3f74ca689",
    (3, 6, 5, 0): "46b1de22575ba691f3682fbba7410db2d9f35f1ecb05a1fad619e01a6df2bfe8",
    (3, 6, 5, 2): "7a56e1f3a9c8c3003956c4b2f999956138a81bf89039be8f5250efa42f658c6d",
    (3, 6, 5, 2**64 - 1): "fd58ccdc48d9fa29f1a121573eb7e7f947b333895dd5a1321c65facfbf6381b5",
    (3, 6, 8, 0): "75e4e4877afb53c73daf5f20c0f16cc79d21a8b54d72020cb2f1558f13b1a74c",
    (3, 6, 8, 2): "e7aa8d15c65645567fda8d14146dc6f710b4f8009f6aaed62f69055741d89d25",
    (3, 6, 8, 2**64 - 1): "03c149567de64105364ab54cc7312dd6794e9ed30f98daa4bd5da0d2c93c98a9",
    (3, 6, 512, 0): "adefd6bcf22a8bd91de9ba21ea2ea2707ba8270cf69a285b49bb936fc55d3170",
    (3, 6, 512, 2): "962470ffe997cea77b82a0ddaa6fe90c572bade5fee333759f72b7f3b6584138",
    (3, 6, 512, 2**64 - 1): "5e58e620ac09bd5a7c6d7415217eb7ab0181966a3d8ce7399b868baab6b9f5cd",
    (3, 6, 65536, 0): "7c1a5c6e90e46c73ba3f1c25fba39b62270e97e6ba3ec206d0f686b11b5cf5b5",
    (3, 6, 65536, 2): "f7134be6e5e54582d7eedc4a56e184c1d40a05500f99a4b912c7dadb6f6a7176",
    (3, 6, 65536, 2**64 - 1): "01f7d264f2caa9e6ea19a2e30dd769fa19f73efb42ce8e1e4fcc2afd2b88f02c",
    (12, 12, 1, 0): "59989c997306187b5765f9fa7f32c0466a722b92be094f80b179e47a9cd6ffa7",
    (12, 12, 1, 2): "306133910033058e1e79fde714af7326d92aa390f45f30a536c756f5b54f7bd1",
    (12, 12, 1, 2**64 - 1): "b9fa89d448de269bfc06d1046beab651a7f66ec447811d22b775b3b1e09f403d",
    (12, 12, 3, 0): "d51763e52c029b817b7d9b2639c86fc59017c2a6616165b3e1eae15858ff4311",
    (12, 12, 3, 2): "0db4c626f92de248882e4e2960c6d526c485ce79ee82d2d5814d65af4e74586e",
    (12, 12, 3, 2**64 - 1): "db6b4a82cef57a4aeca33fb20e26770b8bd655ede914947ed8140cf6133e6fdc",
    (12, 12, 4, 0): "0d4e5af1dedcc84fa8834f4c728650d3491ee50f1c1e1cb059be5a29e971b7a8",
    (12, 12, 4, 2): "e0f56a3de5c637bc10ed3bf32548368b1d3b8e3cb437fb758e173a338c70389e",
    (12, 12, 4, 2**64 - 1): "a548ab75e056eb72385df817c93f843c99bc6eebc11b8f6d3f3a89fca124fddb",
    (12, 12, 5, 0): "067de11c646ab51a6085b318ecdde2989366d01a093d02abafc1b005a05a0c11",
    (12, 12, 5, 2): "6456ba8c695fbe7dc2ad9f0c5d5acb240d37a89d169dc2b3efbf28f64296eefc",
    (12, 12, 5, 2**64 - 1): "c03cc56e8c90c0ef32992e1a250fec592567caef50c15af1e5b61dbd8b512774",
    (12, 12, 8, 0): "868faa5297b5fc817a047475d5d444764d806fff6887da94267ebb78a72d515b",
    (12, 12, 8, 2): "2c2d5ec254ce7917eff920edd956fa5019f3004997e08c7c8e04603ef1a2d64d",
    (12, 12, 8, 2**64 - 1): "e1f2bbf924a7cfca1f3b47e2808efadb5dd413b16d41ea73c6095b4aaa1970ab",
    (12, 12, 512, 0): "2d7fe9d513d2a5e59776956666fa5521d89c603d68bafe1df0be65f7c0a876dd",
    (12, 12, 512, 2): "c3caaebb33a38683eb52f849aa205706fe77d8bedc89e6f8a1a2910f83e215d6",
    (12, 12, 512, 2**64 - 1): "d027ba2f4e3861c3f87d51dbd5638a0a7d481b386b562f49266c17c4f427041d",
    (12, 12, 65536, 0): "a8768147b1fc7a934640b86f098c144beb73243fe36a98c1771ea84708258f9b",
    (12, 12, 65536, 2): "e0d1cfdae15fc0107a0e1156a4d043e163c8ea8795c338161fa0c73d902f3081",
    (12, 12, 65536, 2**64 - 1): "b3a7ea4d5675cd90eecf5ebd999f0ee851cb99dd1cc170c1684973a83abea28a",
}


@pytest.mark.parametrize("key", PAYLOAD_DIGESTS, ids=lambda key: "-".join(map(str, key)))
def test_payload_bytes_are_pinned(key):
    n, m, size, seed = key
    digest = hashlib.sha256()
    for payload in random_payloads(generate_layout(HraidConfig(n, m, 1, 1)), seed, size).values():
        digest.update(payload)
    assert digest.hexdigest() == PAYLOAD_DIGESTS[key]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 9, 513])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_payloads_are_one_uint8_draw_per_cell(size, seed):
    # the reference draws each cell's strip with its own numpy call
    grid = generate_layout(HraidConfig(3, 6, 1, 1))
    payloads = random_payloads(grid, seed, size)
    assert list(payloads) == data_cells(grid)
    rng = np.random.default_rng(seed)
    for cell, payload in payloads.items():
        assert bytes(payload) == rng.integers(0, 256, size, dtype=np.uint8).tobytes(), cell


def test_payloads_are_read_only_strips():
    payloads = random_payloads(generate_layout(CFG), 3, 5)
    for payload in payloads.values():
        assert len(payload) == 5
        with pytest.raises(TypeError):
            payload[0] = 1


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


@pytest.mark.parametrize("strips", [None, [[[[0]]]]], ids=["None", "list"])
def test_strips_must_be_an_array(strips):
    # a list or None once raised AttributeError on .ndim
    name = type(strips).__name__
    with pytest.raises(ValidationError, match=f"^strips must be a numpy array, got {name}$"):
        StripeContent(generate_layout(HraidConfig(1, 1)), strips)


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


@pytest.mark.parametrize(
    "node, position, bound",
    [
        (0, 1, "node 0 is outside the grid (nodes 1..4)"),
        (5, 1, "node 5 is outside the grid (nodes 1..4)"),
        (1, 0, "position 0 is outside the grid (positions 1..4)"),
        (1, 5, "position 5 is outside the grid (positions 1..4)"),
        (1.0, 1, "node must be an integer, got 1.0"),
    ],
)
def test_erasure_sets_name_the_bound_they_break(node, position, bound):
    with pytest.raises(ValidationError, match=f"^{re.escape(bound)}$"):
        disk_cells(CFG, node, position)
    if position == 1:
        with pytest.raises(ValidationError, match=f"^{re.escape(bound)}$"):
            node_cells(CFG, node)


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
