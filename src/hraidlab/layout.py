"""HRAID strip layouts: generation, verification, export, and the
small-write cost model.

A layout places, for every stripe row and every node, l intra-node check
strips (P-class) and k inter-node check strips (Q/R-class) among the M disk
positions of that node.  Check strips rotate across rows and nodes in the
left-symmetric RAID5 style so that load balances over disks.  A grid is one
array of role codes, built and checked by array expressions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .config import HraidConfig, ValidationError, check_real, load_json

#: Check-strip letters, assigned to the l intra classes first, then the
#: k inter classes (P intra and Q inter for HRAID1/1; P, Q intra and R
#: inter for HRAID1/2, and so on).
CHECK_LETTERS = "PQRSTU"

#: Largest layout grid, in cells: M stripe rows of N nodes of M disks.  At
#: the bound (262144 x 1, 64 x 64, 16 x 128 and 1 x 512), each run in a
#: fresh process, ``layout`` took at most 0.33 s and 105 MB peak RSS
#: (262144 x 1 as JSON), ``layout --verify`` 0.20 s and 66 MB (262144 x 1;
#: 37-38 MB at the other shapes), and ``codec-demo`` at 1-byte strips 1.1 s
#: and 187 MB (1 x 512: each 1-byte payload is a ~184-byte memoryview), on
#: 2 shared cores with Python 3.11.7 and numpy 2.4.6.
MAX_GRID_CELLS = 2**18

#: Grid-file keys of the geometry: the ``HraidConfig`` field names, in order.
KEYS = ("n", "m", "k", "ell")


def _check_grid_cells(config: HraidConfig) -> None:
    """Raise ValidationError unless the grid's N M^2 cells are at most
    ``MAX_GRID_CELLS``."""
    cells = config.n * config.m**2
    if cells > MAX_GRID_CELLS:
        raise ValidationError(
            f"a layout grid holds at most {MAX_GRID_CELLS} cells (N*M^2), got "
            f"{cells} for N={config.n}, M={config.m}"
        )


def anchor_position(row, node, m: int):
    """1-based position where the check run of (row, node) starts, for
    integers or broadcasting integer arrays.

    The run occupies consecutive cyclic positions; shifting by one position
    per row and per node balances check strips over disks and, for N = M,
    over stripe columns.
    """
    return ((-(row + node)) % m) + 1


def _alphabet(config: HraidConfig) -> tuple[str, ...]:
    """Letters of codes 0..k+l: ``D`` for data, then ``CHECK_LETTERS``."""
    return ("D", *CHECK_LETTERS[: config.k + config.ell])


@dataclass(frozen=True, eq=False)
class LayoutGrid:
    """Role assignment for M stripe rows of an N x M-disk array.

    ``codes[i-1, n-1, j-1]`` encodes the role of stripe row i, node n,
    position j (all 1-based, matching the usual layout-figure convention):
    0 is data, 1..l are the intra-check classes, l+1..l+k the inter-check
    classes.  Rows beyond M repeat this pattern with period M.  The codes
    are decoded to letters once, on first use.
    """

    config: HraidConfig
    codes: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.codes, np.ndarray):
            raise ValidationError(
                f"grid codes must be a numpy array, got {type(self.codes).__name__}"
            )
        shape = (self.config.m, self.config.n, self.config.m)
        if self.codes.shape != shape:
            raise ValidationError(
                f"grid shape {self.codes.shape} does not match config (expected {shape})"
            )
        codes, top = self.codes, self.config.k + self.config.ell
        if codes.dtype.kind not in "iu" or not 0 <= codes.min() <= codes.max() <= top:
            raise ValidationError(
                f"grid codes must be integers in 0..{top} (k+l check classes), got "
                f"{codes.dtype} values in {codes.min()}..{codes.max()}"
            )

    def role_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boolean ``(data, intra, inter)`` masks, each shaped like ``codes``."""
        codes, ell = self.codes, self.config.ell
        return codes == 0, (codes >= 1) & (codes <= ell), codes > ell

    def letters(self) -> np.ndarray:
        """Role letters shaped like ``codes`` (read-only)."""
        return self._letters

    @cached_property
    def _letters(self) -> np.ndarray:
        letters = np.array(_alphabet(self.config))[self.codes]
        letters.flags.writeable = False
        return letters

    def letter_at(self, row: int, node: int, pos: int) -> str:
        return str(self.letters()[row - 1, node - 1, pos - 1])

    def node_row_letters(self, row: int, node: int) -> str:
        """Role letters of one node's row, e.g. ``\"DDPQ\"``."""
        return "".join(self.letters()[row - 1, node - 1].tolist())

    def as_text(self) -> str:
        """Figure-style table: cell tokens ``X{row},{pos}^{node}``."""
        cfg = self.config
        width = max(len(f"D{cfg.m},{cfg.m}^{cfg.n}"), 6)
        lines = [
            f"HRAID {cfg.k}/{cfg.ell} layout: N={cfg.n} nodes x M={cfg.m} disks, "
            f"stripe rows 1..{cfg.m} (pattern repeats with period {cfg.m})",
            "        " + " | ".join(
                f"SN {n}".center(width * cfg.m + cfg.m - 1) for n in range(1, cfg.n + 1)
            ),
        ]
        for i, row in enumerate(self.letters(), start=1):
            blocks = (
                " ".join(f"{c}{i},{j}^{n}".ljust(width) for j, c in enumerate(cells.tolist(), 1))
                for n, cells in enumerate(row, start=1)
            )
            lines.append(f"row {i:<3} " + " | ".join(blocks))
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable grid: letters nested as rows -> nodes -> positions."""
        obj = {**asdict(self.config), "rows": self.letters().tolist()}
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "LayoutGrid":
        """Parse ``to_json`` output; raise JsonTextError for text that
        ``json.loads`` refuses, and ValidationError naming what is missing,
        of the wrong count, an unknown letter, or a grid past
        ``MAX_GRID_CELLS``."""
        obj = load_json(text)
        if not isinstance(obj, dict):
            raise ValidationError(f"grid must be a JSON object, got {type(obj).__name__}")
        missing = [key for key in (*KEYS, "rows") if key not in obj]
        if missing:
            raise ValidationError(f"grid is missing key(s): {', '.join(missing)}")
        cfg = HraidConfig(**{key: obj[key] for key in KEYS})
        _check_grid_cells(cfg)
        letters = _alphabet(cfg)

        def items(value, count: int, what: str) -> list:
            if isinstance(value, list) and len(value) == count:
                return value
            found = f"a list of {len(value)}" if isinstance(value, list) else type(value).__name__
            raise ValidationError(f"{what} must be a list of {count}, got {found}")

        code_of = {letter: code for code, letter in enumerate(letters)}
        flat: list[int] = []
        for i, row in enumerate(items(obj["rows"], cfg.m, "rows"), start=1):
            for n, cells in enumerate(items(row, cfg.n, f"row {i}"), start=1):
                for j, letter in enumerate(items(cells, cfg.m, f"row {i}, node {n}"), start=1):
                    code = code_of.get(letter) if isinstance(letter, str) else None
                    if code is None:
                        raise ValidationError(
                            f"letter {letter!r} at row {i}, node {n}, position {j} is not "
                            f"one of {', '.join(letters)} (k+l={cfg.k + cfg.ell} check classes)"
                        )
                    flat.append(code)
        codes = np.array(flat, dtype=np.int8).reshape(cfg.m, cfg.n, cfg.m)
        return cls(config=cfg, codes=codes)


def generate_layout(config: HraidConfig) -> LayoutGrid:
    """Generate the rotating check-strip layout for ``config``.

    For stripe row i and node n the k+l check strips occupy consecutive
    cyclic positions from a = ``anchor_position(i, n, M)``, the l intra-node
    checks first: position j holds code (j - a) mod M + 1 when that offset
    is below k+l, else data.  A grid of more than ``MAX_GRID_CELLS`` cells
    raises ValidationError.
    """
    _check_grid_cells(config)
    m, n = config.m, config.n
    rows = np.arange(1, m + 1).reshape(m, 1, 1)
    nodes = np.arange(1, n + 1).reshape(1, n, 1)
    anchors = anchor_position(rows, nodes, m).astype(np.int16)  # M <= 512 within the bound
    offset = (np.arange(1, m + 1, dtype=np.int16) - anchors) % m
    codes = np.where(offset < config.k + config.ell, offset + 1, 0).astype(np.int8)
    return LayoutGrid(config=config, codes=codes)


def _mismatches(counts: np.ndarray, expected: tuple[int, ...], describe) -> list[str]:
    """``describe(a, b, *found)`` for every 1-based cell (a, b) whose counts
    along the last axis differ from ``expected``, in row-major order."""
    bad = np.argwhere((counts != expected).any(axis=-1)).tolist()
    return [describe(a + 1, b + 1, *counts[a, b].tolist()) for a, b in bad]


def verify_layout(grid: LayoutGrid, config: HraidConfig | None = None) -> list[str]:
    """Check every layout invariant; return violations (empty when valid).

    Verified invariants, each one count array against its expected value:

    - each (row, node) pair holds exactly l intra-check and k inter-check
      strips;
    - over the M rows, each disk (node, position) holds exactly k+l check
      strips;
    - for N = M, each (row, position) column holds exactly l intra-check
      and k inter-check strips across the N nodes.

    The verifier, not the generator formula, is the layout contract: any
    grid passing these checks balances load equivalently.
    """
    cfg = config if config is not None else grid.config
    if config is not None and config != grid.config:
        raise ValidationError(
            f"grid was built for {grid.config}, verification requested for {config}"
        )
    m, k, ell = cfg.m, cfg.k, cfg.ell
    data, intra, inter = grid.role_masks()

    def classes(axis: int) -> np.ndarray:
        return np.stack([intra.sum(axis=axis), inter.sum(axis=axis)], axis=-1)

    violations = _mismatches(
        classes(2),
        (ell, k),
        lambda i, n, ni, nq: f"row {i}, node {n}: expected {ell} intra and {k} "
        f"inter check strips, found {ni} intra and {nq} inter",
    )
    violations += _mismatches(
        (~data).sum(axis=0)[..., np.newaxis],
        (k + ell,),
        lambda n, j, cnt: f"disk (node {n}, position {j}): expected {k + ell} "
        f"check strips over {m} rows, found {cnt}",
    )
    if cfg.n == m:
        violations += _mismatches(
            classes(1),
            (ell, k),
            lambda i, j, ci, cq: f"column (row {i}, position {j}): expected {ell} "
            f"intra and {k} inter check strips across nodes, found "
            f"{ci} intra and {cq} inter",
        )
    return violations


#: Largest disk access time x_d in ms: with k, l <= 3 the cost x_avg is at
#: most 33 x_d, so it stays a finite float.
MAX_ACCESS_TIME_MS = 1e300


@dataclass(frozen=True)
class WorkloadParams:
    """Access mix for the small-write cost model.

    ``read_fraction`` (f_r) and ``write_fraction`` (f_w) must sum to one;
    ``disk_access_time_ms`` (x_d) is the cost of one disk access, in
    (0, ``MAX_ACCESS_TIME_MS``].  All three are finite real numbers, stored
    as Python floats.
    """

    read_fraction: float
    write_fraction: float
    disk_access_time_ms: float = 1.0

    def __post_init__(self) -> None:
        names = ("read_fraction", "write_fraction", "disk_access_time_ms")
        read, write, access = (check_real(name, getattr(self, name)) for name in names)
        if not 0.0 <= read <= 1.0:
            raise ValidationError(f"read_fraction must be in [0, 1], got {read}")
        if not 0.0 <= write <= 1.0:
            raise ValidationError(f"write_fraction must be in [0, 1], got {write}")
        if abs(read + write - 1.0) > 1e-12:
            raise ValidationError(
                f"read_fraction + write_fraction must equal 1, got {read} + {write}"
            )
        if not 0 < access <= MAX_ACCESS_TIME_MS:
            raise ValidationError(
                f"disk_access_time_ms must be in (0, {MAX_ACCESS_TIME_MS:g}], got {access}"
            )
        for name, value in zip(names, (read, write, access)):
            object.__setattr__(self, name, float(value))


def small_write_cost(workload: WorkloadParams, config: HraidConfig) -> float:
    """Average per-access cost x_avg in milliseconds.

    A read costs one disk access.  A small write updates the data strip and
    all (k+1)(l+1) - 1 check strips that cover it, each via a read-modify-
    write pair, so x_avg = [f_r + 2 f_w (k+1)(l+1)] x_d.  The network cost
    of shipping the data difference to other nodes is not modeled.
    """
    k, ell = config.k, config.ell
    return (
        workload.read_fraction
        + 2.0 * workload.write_fraction * (k + 1) * (ell + 1)
    ) * workload.disk_access_time_ms
