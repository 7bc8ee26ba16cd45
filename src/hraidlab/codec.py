"""XOR codec for single-check-level layouts (k <= 1, l <= 1).

Inter-node check strips are the XOR of the data strips at the same (row,
position) in the other nodes; intra-node check strips are the XOR of all
other strips in their (row, node), inter-node checks included.  Encoding
rebuilds every check strip the way ``recover`` rebuilds a failed node:
inter checks first, then intra checks.  Higher tolerances need a
Reed-Solomon style codec and are out of scope; reliability for k, l > 1 is
modeled combinatorially elsewhere in the package.

Layout limit: for k = 1 and N < M the rotating layout leaves some (row,
position) columns with no inter-node check, so losing one whole node is
data loss for at least half of the nodes (``codec-demo --n 3 --m 6 --k 1
--l 1`` loses node 2).  For N >= M every single-node loss rebuilds.  The
MTTDL models assume full k-node tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .config import HraidConfig, UnsupportedCodecError, ValidationError, check_integer
from .layout import LayoutGrid, generate_layout
from .stream import check_seed

Cell = tuple[int, int, int]  # 1-based (row, node, position)

#: Largest strip array, in bytes: the N M^2 strips of a grid times the strip
#: size.  It admits 12 x 12 at 64 KiB, a 113 MB array, where ``codec-demo``
#: took 0.9 s and 262 MB peak RSS.  At the bound ``codec-demo`` (without
#: ``--dir``) took 0.9-1.1 s and 304-357 MB peak RSS on 12 x 12, 4 x 4 and
#: 1 x 2 arrays; at this bound and the grid bound together (512-byte strips)
#: it took at most 5.7 s and 413 MB (1 x 512), on 2 shared cores with Python
#: 3.11.7 and numpy 2.4.6.
MAX_STRIP_BYTES = 2**27


def _check_strip_bytes(config: HraidConfig, strip_size: int) -> None:
    """Raise ValidationError unless the strip array of ``config`` at
    ``strip_size`` bytes a strip is at most ``MAX_STRIP_BYTES``."""
    size = config.n * config.m**2 * strip_size
    if size > MAX_STRIP_BYTES:
        raise ValidationError(
            f"the codec holds at most {MAX_STRIP_BYTES} bytes of strips (N*M^2 * strip "
            f"size), got {size} for N={config.n}, M={config.m}, strip size {strip_size}"
        )


@dataclass(frozen=True, eq=False)
class StripeContent:
    """Strip payloads for every cell of a layout grid.

    ``strips[i-1, n-1, j-1]`` is the payload of row i, node n, position j
    as a non-empty uint8 vector; all strips share one length.
    """

    grid: LayoutGrid
    strips: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.strips, np.ndarray):
            raise ValidationError(
                f"strips must be a numpy array, got {type(self.strips).__name__}"
            )
        cfg = self.grid.config
        if self.strips.ndim != 4 or self.strips.shape[:3] != (cfg.m, cfg.n, cfg.m):
            raise ValidationError(
                f"strip array shape {self.strips.shape} does not match the "
                f"{(cfg.m, cfg.n, cfg.m)} grid"
            )
        if self.strips.dtype != np.uint8:
            raise ValidationError(f"strips must be uint8, got {self.strips.dtype}")
        if self.strips.shape[3] == 0:
            raise ValidationError("strips must be non-empty")

    @property
    def config(self) -> HraidConfig:
        return self.grid.config

    def strip(self, cell: Cell) -> bytes:
        i, n, j = cell
        return self.strips[i - 1, n - 1, j - 1].tobytes()


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a recovery attempt.

    ``data_loss`` marks erasure patterns beyond the code's capability; it
    is a valid outcome, not an error.  On success ``content`` holds every
    strip, re-derived where erased.
    """

    data_loss: bool
    failed_nodes: tuple[int, ...]
    content: StripeContent | None
    message: str


def _require_xor_codec(config: HraidConfig) -> None:
    if config.k > 1 or config.ell > 1:
        raise UnsupportedCodecError(
            f"XOR codec supports k <= 1 and l <= 1, got k={config.k}, "
            f"l={config.ell}"
        )


def data_cells(grid: LayoutGrid) -> list[Cell]:
    """All 1-based DATA cells of the grid, row-major."""
    return [tuple(cell) for cell in (np.argwhere(grid.role_masks()[0]) + 1).tolist()]


def disk_cells(config: HraidConfig, node: int, disk: int) -> set[Cell]:
    """Cells held by one disk: every row at (node, position=disk)."""
    return {(i, node, disk) for i in range(1, config.m + 1)}


def node_cells(config: HraidConfig, node: int) -> set[Cell]:
    """Cells held by one whole node."""
    return set().union(*(disk_cells(config, node, j) for j in range(1, config.m + 1)))


def random_payloads(
    grid: LayoutGrid, seed: int, strip_size: int = 4096
) -> dict[Cell, bytes]:
    """Seeded random payload bytes for every DATA cell; the grid's strip
    array at ``strip_size`` must fit ``MAX_STRIP_BYTES``."""
    check_integer("strip_size", strip_size)
    strip_size = int(strip_size)
    if strip_size < 1:
        raise ValidationError(f"strip_size must be >= 1, got {strip_size}")
    _check_strip_bytes(grid.config, strip_size)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return {
        cell: rng.integers(0, 256, strip_size, dtype=np.uint8).tobytes()
        for cell in data_cells(grid)
    }


# These take 0-based indices and allocate one strip at most: larger
# temporaries fragment the heap around the payload buffers.


def _row_xor(strips: np.ndarray, i: int, n: int) -> np.ndarray:
    """XOR of every strip in (row i, node n); zero when intra parity holds."""
    return np.bitwise_xor.reduce(strips[i, n], axis=0)


def _column_data(strips: np.ndarray, data: np.ndarray, i: int, j: int) -> np.ndarray:
    """XOR of the DATA strips in (row i, position j) across all nodes."""
    acc = np.bitwise_xor.reduce(strips[i, :, j], axis=0)
    for n in np.flatnonzero(~data[i, :, j]):
        acc ^= strips[i, n, j]
    return acc


def _rebuild(strips: np.ndarray, grid: LayoutGrid, lost: np.ndarray, failed: np.ndarray) -> None:
    """Write each ``lost`` strip, zero on entry: on a healthy node from its row's
    XOR; on a ``failed`` node data and inter checks from their columns (data
    through the first surviving inter check), then intra checks from the rows."""
    data, intra, inter = grid.role_masks()
    on_failed = lost & failed[None, :, None]
    for i, n, j in zip(*np.nonzero(lost & ~on_failed)):
        strips[i, n, j] = _row_xor(strips, i, n)
    for i, n, j in zip(*np.nonzero(on_failed & ~intra)):
        acc = _column_data(strips, data, i, j)
        if data[i, n, j]:
            acc ^= strips[i, np.argmax(inter[i, :, j] & ~failed), j]
        strips[i, n, j] = acc
    for i, n, j in zip(*np.nonzero(on_failed & intra)):
        strips[i, n, j] = _row_xor(strips, i, n)


def encode_stripes(
    data: Mapping[Cell, bytes], config: HraidConfig, grid: LayoutGrid
) -> StripeContent:
    """Encode data payloads into a fully checked StripeContent.

    ``grid`` must be built for ``config``.  ``data`` must supply a payload
    of uniform length for exactly the DATA cells of the layout.  Re-encoding
    the same data is idempotent.
    """
    if config != grid.config:
        raise ValidationError(
            f"grid was built for {grid.config}, encoding requested for {config}"
        )
    _require_xor_codec(config)
    expected = set(data_cells(grid))
    supplied = set(data.keys())
    if supplied != expected:
        missing = sorted(expected - supplied)[:3]
        extra = sorted(supplied - expected)[:3]
        raise ValidationError(
            f"payloads must cover exactly the DATA cells; "
            f"missing {missing}, unexpected {extra}"
        )
    sizes = {len(v) for v in data.values()}
    if len(sizes) != 1:
        raise ValidationError(f"strip payloads must share one length, got {sorted(sizes)}")
    size = sizes.pop()
    if size == 0:
        raise ValidationError("strip payloads must be non-empty")
    _check_strip_bytes(config, size)

    strips = np.zeros((config.m, config.n, config.m, size), dtype=np.uint8)
    for (i, n, j), payload in data.items():
        strips[i - 1, n - 1, j - 1] = np.frombuffer(payload, dtype=np.uint8)

    # encoding rebuilds every check strip, still zero, as if every node failed
    _rebuild(strips, grid, grid.codes != 0, np.ones(config.n, dtype=bool))
    return StripeContent(grid=grid, strips=strips)


def verify_parity(content: StripeContent) -> list[str]:
    """Check every parity equation; return violations (empty when valid)."""
    strips = content.strips
    data, _, inter = content.grid.role_masks()
    violations = []
    for i, n, j in zip(*np.nonzero(~data)):
        if inter[i, n, j]:
            holds = np.array_equal(strips[i, n, j], _column_data(strips, data, i, j))
        else:
            holds = not _row_xor(strips, i, n).any()
        if not holds:
            violations.append(
                f"check strip at row {i + 1}, node {n + 1}, position {j + 1} does "
                f"not match its parity equation"
            )
    return violations


def recover(content: StripeContent, erased: Iterable[Cell]) -> RecoveryResult:
    """Rebuild erased strips, or report data loss.

    A node is treated as failed when any of its rows has more than l
    erased strips; more than k failed nodes is data loss.  Erasures within
    tolerance rebuild from the intra-node parity; failed nodes rebuild
    from the inter-node checks in their columns.
    """
    grid = content.grid
    cfg = grid.config
    _require_xor_codec(cfg)
    lost = np.zeros(grid.codes.shape, dtype=bool)
    for cell in erased:
        try:
            i, n, j = cell
            for index in cell:
                check_integer("a cell index", index)
        except (TypeError, ValueError):
            raise ValidationError(
                f"erased cell {cell!r} is not a (row, node, position) triple of integers"
            ) from None
        if not (1 <= i <= cfg.m and 1 <= n <= cfg.n and 1 <= j <= cfg.m):
            raise ValidationError(f"erased cell {cell} is outside the grid")
        lost[i - 1, n - 1, j - 1] = True

    failed = (lost.sum(axis=2) > cfg.ell).any(axis=0)
    failed_nodes = tuple(int(n) + 1 for n in np.flatnonzero(failed))
    data, _, inter = grid.role_masks()
    covered = (inter & ~failed[None, :, None]).any(axis=1)[:, None, :]
    uncovered = np.argwhere(lost & failed[None, :, None] & data & ~covered) + 1
    message = None
    if len(failed_nodes) > cfg.k:
        message = f"{len(failed_nodes)} failed node(s) exceed the inter-node tolerance k={cfg.k}"
    elif len(uncovered):
        i, _, j = uncovered[0]
        message = f"no surviving inter-node check covers row {i}, position {j}"
    if message:
        return RecoveryResult(True, failed_nodes, None, message)

    strips = content.strips.copy()
    # drop the stale bytes so every erased strip is genuinely rebuilt
    strips[lost] = 0
    _rebuild(strips, grid, lost, failed)
    rebuilt = StripeContent(grid=grid, strips=strips)
    return RecoveryResult(False, failed_nodes, rebuilt, "all erased strips rebuilt")


def write_strip_tree(content: StripeContent, root: Path | str) -> None:
    """Write strips as ``node{n}/disk{j}/row{i}.bin`` under ``root``."""
    root = Path(root)
    cfg = content.config
    for n in range(1, cfg.n + 1):
        for j in range(1, cfg.m + 1):
            d = root / f"node{n}" / f"disk{j}"
            d.mkdir(parents=True, exist_ok=True)
            for i in range(1, cfg.m + 1):
                (d / f"row{i}.bin").write_bytes(content.strip((i, n, j)))


def read_strip_tree(
    root: Path | str, config: HraidConfig
) -> tuple[StripeContent, set[Cell]]:
    """Read a strip tree; missing files are reported as erased cells, and an
    empty file raises ValidationError."""
    root = Path(root)
    grid = generate_layout(config)
    erased: set[Cell] = set()
    strips = None
    for n in range(1, config.n + 1):
        for j in range(1, config.m + 1):
            for i in range(1, config.m + 1):
                p = root / f"node{n}" / f"disk{j}" / f"row{i}.bin"
                if not p.exists():
                    erased.add((i, n, j))
                    continue
                raw = np.frombuffer(p.read_bytes(), dtype=np.uint8)
                if not raw.size:
                    raise ValidationError(f"strip file {p} is empty")
                if strips is None:
                    _check_strip_bytes(config, raw.size)
                    strips = np.zeros((config.m, config.n, config.m, raw.size), dtype=np.uint8)
                elif raw.size != strips.shape[3]:
                    raise ValidationError(
                        f"strip file {p} has length {raw.size}, expected {strips.shape[3]}"
                    )
                strips[i - 1, n - 1, j - 1] = raw
    if strips is None:
        raise ValidationError(f"no strip files found under {root}")
    return StripeContent(grid=grid, strips=strips), erased
