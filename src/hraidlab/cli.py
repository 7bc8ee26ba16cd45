"""Command-line surface: simulations, sweeps, analytic reports, oracles,
layout emission, and an XOR codec walkthrough.

Exit codes: 0 success, 1 usage error, 2 validation error (a named model
bound was violated, or an output file is unwritable), 3 internal failure.
Every command reads its values from one dict, ``_values(args)``, holding
each dest of its own parser: a given flag, else the ``--config`` value (a
flat JSON object whose keys name the command's own flags), else the
``_DEFAULTS`` entry.  Trial counts and seeds are checked by the library
that takes them.  Rates per hour must satisfy
1e-30 <= delta <= 1e30 and 0 <= gamma <= 1e30.  ``simulate`` and ``sweep``
print a table, CSV or JSON view of one result record; ``simulate --trace``
also dumps the events of every trial the estimate holds.  Each command
returns its exit code and text, and ``main`` writes the text to stdout or
to the ``--out`` file; ``--out`` and ``--trace`` files are written
atomically (temp + rename).  No file or directory name may be empty, and
no two of the ``--trace``, ``--out``, ``--config`` and ``--verify`` files
may be one file, so no output overwrites an input.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

import numpy as np

from .analytic import (
    compare_apportionments,
    conditional_sixth_failure,
    d_max,
    d_min,
    exact_mds_reliability,
    hraid_reliability,
    hraid_unreliability,
    leading_term,
    raid_series_approx,
)
from .codec import (
    Cell,
    StripeContent,
    disk_cells,
    encode_stripes,
    node_cells,
    random_payloads,
    recover,
    verify_parity,
    write_strip_tree,
)
from .config import FailureModel, HraidConfig, JsonTextError, ValidationError, load_json
from .layout import LayoutGrid, generate_layout, verify_layout
from .oracle import exact_reliability_enum, markov_mttdl
from .records import RunResult, format_hours, run_header
from .simulator import estimate_mttdl, sweep, trace_trials

#: Config-file keys of simulate and sweep, mapped to flag dests; a command
#: accepts the keys of the dests its own parser defines.
_CONFIG_KEYS = {
    "n": "n",
    "m": "m",
    "k": "k",
    "ell": "ell",
    "delta_per_hour": "delta",
    "gamma_per_hour": "gamma",
    "trials": "trials",
    "seed": "seed",
    "output_format": "format",
    "output_path": "out",
}

#: Output formats of simulate and sweep, each mapped to the result view that renders it.
_VIEWS = {"table": "format_table", "csv": "to_csv", "json": "to_json"}

#: Defaults of every command's values; a dest with neither a parser default
#: nor an entry here is None when no flag or config file sets it.
_DEFAULTS = {
    "k": 0,
    "ell": 0,
    "delta": FailureModel.disk_rate,
    "gamma": FailureModel.controller_rate,
    "trials": 10_000,
    "seed": 0,
    "format": "table",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _ending_in_newline(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces, then a newline unless the last one ends in one."""
    last = ""
    for last in pieces:
        yield last
    if not last.endswith("\n"):
        yield "\n"


def _write_output(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces, ending in a newline, to stdout, or stream them into
    the file ``out`` atomically (temp + rename, parent directories created).
    """
    pieces = _ending_in_newline(pieces)
    if out is None:
        sys.stdout.writelines(pieces)
        return
    path = Path(out)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=path.name + ".", delete=False
        ) as fh:
            tmp = fh.name
            fh.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {out}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _read(path: str, what: str, parse: Callable):
    """Parse the text of the ``what`` file at ``path``."""
    try:
        return parse(Path(path).read_text())
    except (OSError, UnicodeDecodeError, JsonTextError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc


def _load_config_file(path: str, dests: Iterable[str]) -> dict:
    accepted = sorted(key for key, dest in _CONFIG_KEYS.items() if dest in dests)
    raw = _read(path, "config", load_json)
    if not isinstance(raw, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(accepted))
    if unknown:
        raise ValidationError(
            f"config file {path} has unknown keys {unknown}; accepted: {accepted}"
        )
    fmt = raw.get("output_format", "table")
    if not isinstance(fmt, str) or fmt not in _VIEWS:  # a list or an object is unhashable
        raise ValidationError(
            f"config file {path}: output_format must be one of {', '.join(_VIEWS)}, got {fmt!r}"
        )
    if not isinstance(raw.get("output_path", ""), str):
        raise ValidationError(
            f"config file {path}: output_path must be a string, got {raw['output_path']!r}"
        )
    return {_CONFIG_KEYS[key]: value for key, value in raw.items()}


def _values(args: argparse.Namespace) -> dict:
    """Every dest of the command's parser: the flag when given, else the
    ``--config`` value, else the ``_DEFAULTS`` entry.  A parser default
    (``codec-demo``'s geometry, ``layout --format``) counts as given."""
    given = vars(args)
    from_file = _load_config_file(given["config"], given) if given.get("config") else {}
    return {
        dest: value if value is not None else from_file.get(dest, _DEFAULTS.get(dest))
        for dest, value in given.items()
    }


def _check_files(values: dict) -> None:
    """Raise ValidationError on an empty file or directory name, or when two
    of a command's files are one file, so that no output overwrites an input."""
    first: dict[Path, str] = {}
    for dest in ("trace", "out", "config", "verify", "dir"):
        if values.get(dest) == "":
            raise ValidationError(f"--{dest} is an empty name")
        if values.get(dest):
            other = first.setdefault(Path(values[dest]).resolve(), dest)
            if other != dest:
                raise ValidationError(
                    f"--{other} and --{dest} name the same file {values[other]}; give two files"
                )


def _add_geometry_flags(p: argparse.ArgumentParser, with_kl: bool = True) -> None:
    p.add_argument("--n", type=int, help="number of storage nodes (N)")
    p.add_argument("--m", type=int, help="disks per node (M)")
    if with_kl:
        p.add_argument("--k", type=int, help="inter-node tolerance (node failures)")
        p.add_argument("--l", dest="ell", type=int, help="intra-node tolerance (disk failures per node)")


def _add_rate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, help="disk failure rate per hour")
    p.add_argument("--gamma", type=float, help="controller failure rate per hour")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    _add_rate_flags(p)
    p.add_argument("--trials", type=int, help="Monte Carlo trial count")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--format", choices=_VIEWS, help="output format")
    p.add_argument("--config", help="JSON config file; flags take precedence")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hraidlab",
        description="Reliability laboratory for hierarchical RAID arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    to_file = argparse.ArgumentParser(add_help=False)
    to_file.add_argument("--out", help="output file (atomic write); default stdout")
    out = [to_file]

    p_sim = sub.add_parser("simulate", parents=out, help="Monte Carlo MTTDL for one configuration")
    _add_geometry_flags(p_sim)
    _add_run_flags(p_sim)
    p_sim.add_argument(
        "--trace",
        help="also dump per-trial event traces as JSON lines to this file "
        "(the estimate's own trials; atomic write)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=out, help="MTTDL grid over k = 0..3, l = 0..3")
    _add_geometry_flags(p_sweep, with_kl=False)
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_an = sub.add_parser("analytic", help="closed-form reliability quantities")
    an_sub = p_an.add_subparsers(dest="analytic_command", required=True)
    p_rep = an_sub.add_parser(
        "report", parents=out, help="reliability summary for one configuration"
    )
    _add_geometry_flags(p_rep)
    p_rep.add_argument("--eps", type=float, help="disk unreliability for evaluations")
    p_rep.set_defaults(func=_cmd_analytic_report)
    p_cmp = an_sub.add_parser("compare", parents=out, help="HRAID1/2 vs HRAID2/1 apportionment")
    _add_geometry_flags(p_cmp, with_kl=False)
    p_cmp.set_defaults(func=_cmd_analytic_compare)

    p_or = sub.add_parser("oracle", help="exact enumeration and Markov oracles")
    or_sub = p_or.add_subparsers(dest="oracle_command", required=True)
    p_enum = or_sub.add_parser(
        "enum", parents=out, help="fatal-set counts by failure cardinality"
    )
    _add_geometry_flags(p_enum)
    p_enum.add_argument("--eps", type=float, help="also evaluate unreliability at eps")
    p_enum.set_defaults(func=_cmd_oracle_enum)
    p_mark = or_sub.add_parser(
        "markov", parents=out, help="exact MTTDL of the lumped failure chain"
    )
    _add_geometry_flags(p_mark)
    _add_rate_flags(p_mark)
    p_mark.set_defaults(func=_cmd_oracle_markov)

    p_lay = sub.add_parser("layout", parents=out, help="emit or verify a strip layout")
    _add_geometry_flags(p_lay)
    p_lay.add_argument("--format", choices=["text", "json"], default="text", help="output format")
    p_lay.add_argument("--verify", help="verify a JSON grid file instead of emitting")
    p_lay.set_defaults(func=_cmd_layout)

    p_cod = sub.add_parser(
        "codec-demo", help="XOR encode, erase, and recover walkthrough (k, l <= 1)"
    )
    _add_geometry_flags(p_cod)
    p_cod.add_argument("--seed", type=int, help="payload seed")
    p_cod.add_argument("--strip-size", type=int, help="strip payload bytes")
    p_cod.add_argument("--dir", help="also write the strip tree under this directory")
    p_cod.add_argument(
        "--erase-disk",
        action="append",
        metavar="NODE:POS",
        help="erase one disk (repeatable)",
    )
    p_cod.add_argument(
        "--erase-node", action="append", type=int, help="erase one whole node (repeatable)"
    )
    p_cod.set_defaults(
        func=_cmd_codec_demo, n=4, m=4, k=1, ell=1, seed=42, strip_size=4096,
        erase_disk=[], erase_node=[],
    )
    return parser


def _require(values: dict, *names: str) -> None:
    missing = [n for n in names if values[n] is None]
    if missing:
        raise UsageError("missing required value(s): " + ", ".join(f"--{n}" for n in missing))


def _geometry(values: dict) -> HraidConfig:
    _require(values, "n", "m")
    return HraidConfig(values["n"], values["m"], values["k"], values["ell"])


def _rates(values: dict) -> FailureModel:
    return FailureModel(disk_rate=values["delta"], controller_rate=values["gamma"])


def _view(result, values: dict) -> str:
    """The view of a result record that ``--format`` names."""
    return getattr(result, _VIEWS[values["format"]])()


def _cmd_simulate(values: dict) -> tuple[int, str]:
    config = _geometry(values)
    rates = _rates(values)
    trials, seed = values["trials"], values["seed"]
    trace = values["trace"]
    est = estimate_mttdl(config, rates, trials, seed)
    if trace:
        lines = (line + "\n" for line in trace_trials(config, rates, trials, seed))
        _write_output(lines, trace)
    return 0, _view(RunResult(config, rates, seed, est), values)


def _cmd_sweep(values: dict) -> tuple[int, str]:
    _require(values, "n", "m")
    result = sweep(values["n"], values["m"], _rates(values), values["trials"], values["seed"])
    return 0, _view(result, values)


def _cmd_analytic_compare(values: dict) -> tuple[int, str]:
    _require(values, "n", "m")
    n, m = values["n"], values["m"]
    cmp_result = compare_apportionments(n, m)
    return 0, (
        f"HRAID1/2 vs HRAID2/1 on N={n} nodes x M={m} disks\n"
        f"  minimal fatal sets (6 failures): "
        f"1/2 -> {cmp_result.coeff_12}, 2/1 -> {cmp_result.coeff_21}\n"
        f"  verdict: {cmp_result.ordering.name}\n"
        f"  threshold form: N > 2 + 3C(M,3)^2/C(M,2)^3 = "
        f"{cmp_result.threshold_n} ~= {float(cmp_result.threshold_n):.6g}"
    )


def _approximation(p: float) -> str:
    """A truncated-series probability, or n/a where it leaves [0, 1]."""
    if 0.0 <= p <= 1.0:
        return f"{p:.15g}"
    return "n/a (approximation outside [0, 1] at this eps)"


def _cmd_analytic_report(values: dict) -> tuple[int, str]:
    config = _geometry(values)
    leading = leading_term(config)
    lines = [
        f"HRAID {config.k}/{config.ell} on N={config.n} nodes x M={config.m} disks",
        f"  d_min (fewest disk failures that can lose data)   : {d_min(config)}",
        f"  d_max (most disk failures any survivable pattern) : {d_max(config)}",
        f"  leading unreliability term: {leading.coefficient} * eps^{leading.power}",
    ]
    try:
        threshold = compare_apportionments(config.n, config.m).threshold_n
        p12, p21, d_s = conditional_sixth_failure(config.n, config.m)
    except ValidationError:
        pass  # HRAID1/2 or HRAID2/1 does not fit N x M: no pair lines
    else:
        lines += [
            f"  sixth-failure pool D_S = (N-2)M + M-2 = {d_s}",
            f"  p_1/2 = (M-2)/D_S = {p12} ~= {float(p12):.6g}",
            f"  p_2/1 = (M-1)/D_S = {p21} ~= {float(p21):.6g}",
            f"  apportionment threshold: N > {threshold} ~= {float(threshold):.6g}",
        ]
    eps = values["eps"]
    if eps is not None:
        r = hraid_reliability(config, eps)
        u = hraid_unreliability(config, eps)
        node_r = exact_mds_reliability(config.m, config.ell, eps)
        series = raid_series_approx(config.m, config.ell, eps)
        lines += [
            f"  at eps = {eps!r}:",
            f"    node reliability R_l                 : {node_r:.15g}",
            f"    node unreliability, two-term series  : {_approximation(series)}",
            f"    array reliability                    : {r:.15g}",
            f"    array unreliability                  : {u:.15g}",
            f"    leading-term approximation           : "
            f"{_approximation(leading.evaluate(eps))}",
        ]
    return 0, "\n".join(lines)


def _cmd_oracle_enum(values: dict) -> tuple[int, str]:
    poly = exact_reliability_enum(_geometry(values))
    text = poly.to_csv()
    eps = values["eps"]
    if eps is not None:
        text += f"# unreliability at eps={eps!r}: {poly.unreliability(eps):.15g}\n"
    return 0, text


def _cmd_oracle_markov(values: dict) -> tuple[int, str]:
    config = _geometry(values)
    rates = _rates(values)
    hours = markov_mttdl(config, rates)
    return 0, (
        f"exact MTTDL for HRAID {config.k}/{config.ell}: {run_header(config.n, config.m, rates)}\n"
        f"  {hours:.15g} hours ({format_hours(hours, 1000.0, '.4f')} thousand hours)"
    )


def _cmd_layout(values: dict) -> tuple[int, str]:
    verify = values["verify"]
    if verify:
        violations = verify_layout(_read(verify, "grid", LayoutGrid.from_json))
        if violations:
            return 2, "\n".join([f"layout INVALID: {len(violations)} violation(s)"] + violations)
        return 0, "layout valid: all balance invariants hold"
    grid = generate_layout(_geometry(values))
    return 0, grid.to_json() if values["format"] == "json" else grid.as_text()


def _recovery_line(content: StripeContent, label: str, cells: set[Cell]) -> str:
    """One scenario's outcome; its rebuilt strip array is freed on return."""
    result = recover(content, cells)
    if result.data_loss:
        return f"recover after {label}: DATA LOSS ({result.message})"
    # row by row: one == over the whole array would allocate a temporary of its size
    exact = all(map(np.array_equal, result.content.strips, content.strips))
    return (
        f"recover after {label}: rebuilt {len(cells)} strips, "
        f"bit-exact: {'yes' if exact else 'NO'}"
        + (f" (failed nodes restriped: {result.failed_nodes})" if result.failed_nodes else "")
    )


def _cmd_codec_demo(values: dict) -> tuple[int, str]:
    config = _geometry(values)
    seed, strip_size, tree = values["seed"], values["strip_size"], values["dir"]
    grid = generate_layout(config)
    payloads = random_payloads(grid, seed, strip_size)
    count = len(payloads)
    content = encode_stripes(payloads, config, grid)
    del payloads  # the strip array holds every payload now
    bad = verify_parity(content)
    lines = [
        f"encoded HRAID {config.k}/{config.ell}: N={config.n}, M={config.m}, "
        f"{count} data strips of {strip_size} bytes (seed {seed})",
        f"parity check after encode: {'ok' if not bad else 'FAILED'}",
    ]
    if tree:
        try:
            write_strip_tree(content, tree)
        except OSError as exc:
            raise ValidationError(f"cannot write strip tree under {tree}: {exc}") from exc
        lines.append(f"strip tree written under {tree}/node*/disk*/row*.bin")

    erased = set()
    for spec_str in values["erase_disk"]:
        try:
            node_s, pos_s = spec_str.split(":")
            node, pos = int(node_s), int(pos_s)
        except ValueError as exc:
            raise UsageError(f"--erase-disk expects NODE:POS, got {spec_str!r}") from exc
        erased |= disk_cells(config, node, pos)
        lines.append(f"erased disk: node {node}, position {pos}")
    for node in values["erase_node"]:
        erased |= node_cells(config, node)
        lines.append(f"erased node {node}")

    if erased:
        scenarios = [("requested erasure", erased)]
    else:
        node = min(2, config.n)  # node 2, or the only node of a one-node array
        scenarios = [
            ("single disk (node 1, position 1)", disk_cells(config, 1, 1)),
            (f"whole node {node}", node_cells(config, node)),
        ]
        if config.n > 1:
            scenarios.append(
                ("two whole nodes (1 and 2)", node_cells(config, 1) | node_cells(config, 2))
            )
    lines += [_recovery_line(content, label, cells) for label, cells in scenarios]
    return 0, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        values = _values(args)
        _check_files(values)
        code, text = args.func(values)
        _write_output([text], values.get("out"))
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
