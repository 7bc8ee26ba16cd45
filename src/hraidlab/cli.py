"""Command-line surface: simulations, sweeps, analytic reports, oracles,
layout emission, and an XOR codec walkthrough.

Exit codes: 0 success, 1 usage error, 2 validation error (a named model
bound was violated, or an output file is unwritable), 3 internal failure.
Values given as flags override values from ``--config`` (a flat JSON
object), which override defaults.  Rates per hour must satisfy
1e-30 <= delta <= 1e30 and 0 <= gamma <= 1e30.  ``simulate`` and ``sweep``
print a table, CSV or JSON view of one result record; ``simulate --trace``
then replays every trial in the scalar engine to dump its events.  Output
lands on stdout, or in the ``--out`` file; ``--out`` and ``--trace`` files
are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

from .analytic import (
    analytic_report,
    compare_apportionments,
    exact_mds_reliability,
    hraid_reliability,
    hraid_unreliability,
    raid_series_approx,
)
from .codec import (
    disk_cells,
    encode_stripes,
    node_cells,
    random_payloads,
    recover,
    verify_parity,
    write_strip_tree,
)
from .config import FailureModel, HraidConfig, ValidationError
from .layout import LayoutGrid, generate_layout, verify_layout
from .oracle import exact_reliability_enum, markov_mttdl
from .simulator import (
    RunResult,
    estimate_mttdl,
    simulate_trial,
    sweep,
    trace_jsonl_line,
)
from .stream import TrialStream

#: Config-file keys accepted by simulate and sweep, mapped to flag dests.
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _write_output(pieces: Iterable[str], out: str | None) -> None:
    """Print the pieces to stdout, ending in a newline, or stream them into
    the file ``out`` atomically (temp + rename, parent directories created).
    """
    if out is None:
        last = ""
        for last in pieces:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
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


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValidationError(
            f"config file {path} has unknown keys {unknown}; "
            f"accepted: {sorted(_CONFIG_KEYS)}"
        )
    for key in ("trials", "seed"):
        value = raw.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(
                f"config file {path}: {key} must be an integer, got {value!r}"
            )
    if raw.get("output_format", "table") not in _VIEWS:
        raise ValidationError(
            f"config file {path}: output_format must be one of {', '.join(_VIEWS)}, "
            f"got {raw['output_format']!r}"
        )
    if not isinstance(raw.get("output_path", ""), str):
        raise ValidationError(
            f"config file {path}: output_path must be a string, got {raw['output_path']!r}"
        )
    return {_CONFIG_KEYS[key]: value for key, value in raw.items()}


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags override config-file values override defaults."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for dest in defaults:
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            merged[dest] = flag_value
    return merged


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
        "(replays every trial in the scalar engine; atomic write)",
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
    p_lay.add_argument("--format", choices=["text", "json"], help="output format")
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


def _require(merged: dict, *names: str) -> None:
    missing = [n for n in names if merged.get(n) is None]
    if missing:
        raise UsageError("missing required value(s): " + ", ".join(f"--{n}" for n in missing))


def _geometry(merged: dict) -> HraidConfig:
    _require(merged, "n", "m")
    return HraidConfig(merged["n"], merged["m"], merged["k"], merged["ell"])


def _rates(merged: dict) -> FailureModel:
    return FailureModel(disk_rate=merged["delta"], controller_rate=merged["gamma"])


_GEOMETRY_DEFAULTS = {"n": None, "m": None, "k": 0, "ell": 0}
_RATE_DEFAULTS = {"delta": FailureModel.disk_rate, "gamma": FailureModel.controller_rate}
_RUN_DEFAULTS = {
    **_GEOMETRY_DEFAULTS, **_RATE_DEFAULTS,
    "trials": 10_000, "seed": 0, "format": "table", "out": None,
}


def _flag_geometry(args: argparse.Namespace) -> HraidConfig:
    """Geometry from --n/--m (required) and --k/--l (default 0)."""
    return _geometry(_merge(args, _GEOMETRY_DEFAULTS))


def _write_view(result, merged: dict) -> None:
    """Write the result view that ``--format`` names."""
    _write_output([getattr(result, _VIEWS[merged["format"]])()], merged["out"])


def _cmd_simulate(args: argparse.Namespace) -> int:
    merged = _merge(args, _RUN_DEFAULTS)
    config = _geometry(merged)
    rates = _rates(merged)
    trials, seed = merged["trials"], merged["seed"]
    est = estimate_mttdl(config, rates, trials, seed)
    if args.trace:
        # streams are keyed by (seed, trial index), so each replay is
        # bit-identical to the batch trial the estimate holds
        replays = (simulate_trial(config, rates, TrialStream(seed, i)) for i in range(trials))
        _write_output((trace_jsonl_line(i, e) + "\n" for i, e in enumerate(replays)), args.trace)
    _write_view(RunResult(config, rates, seed, est), merged)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    merged = _merge(args, _RUN_DEFAULTS)
    _require(merged, "n", "m")
    result = sweep(merged["n"], merged["m"], _rates(merged), merged["trials"], merged["seed"])
    _write_view(result, merged)
    return 0


def _cmd_analytic_compare(args: argparse.Namespace) -> int:
    _require(vars(args), "n", "m")
    cmp_result = compare_apportionments(args.n, args.m)
    text = (
        f"HRAID1/2 vs HRAID2/1 on N={args.n} nodes x M={args.m} disks\n"
        f"  minimal fatal sets (6 failures): "
        f"1/2 -> {cmp_result.coeff_12}, 2/1 -> {cmp_result.coeff_21}\n"
        f"  verdict: {cmp_result.ordering.name}\n"
        f"  threshold form: N > 2 + (M-2)^2/(3M(M-1)) = "
        f"{cmp_result.threshold_n} ~= {float(cmp_result.threshold_n):.6g}"
    )
    _write_output([text], args.out)
    return 0


def _approximation(p: float) -> str:
    """A truncated-series probability, or n/a where it leaves [0, 1]."""
    if 0.0 <= p <= 1.0:
        return f"{p:.15g}"
    return "n/a (approximation outside [0, 1] at this eps)"


def _cmd_analytic_report(args: argparse.Namespace) -> int:
    config = _flag_geometry(args)
    report = analytic_report(config)
    lines = [
        f"HRAID {config.k}/{config.ell} on N={config.n} nodes x M={config.m} disks",
        f"  d_min (fewest disk failures that can lose data)   : {report.d_min}",
        f"  d_max (most disk failures any survivable pattern) : {report.d_max}",
        f"  leading unreliability term: {report.leading.coefficient} * eps^{report.leading.power}",
    ]
    if report.p_12 is not None:
        lines += [
            f"  sixth-failure pool D_S = (N-2)M + M-2 = {report.d_s}",
            f"  p_1/2 = (M-2)/D_S = {report.p_12} ~= {float(report.p_12):.6g}",
            f"  p_2/1 = (M-1)/D_S = {report.p_21} ~= {float(report.p_21):.6g}",
            f"  apportionment threshold: N > {report.threshold_n} "
            f"~= {float(report.threshold_n):.6g}",
        ]
    if args.eps is not None:
        eps = args.eps
        r = hraid_reliability(config, eps)
        u = hraid_unreliability(config, eps)
        node_r = exact_mds_reliability(config.m, config.ell, eps)
        series = raid_series_approx(config.m, config.ell, eps)
        lines += [
            f"  at eps = {eps:g}:",
            f"    node reliability R_l                 : {node_r:.15g}",
            f"    node unreliability, two-term series  : {_approximation(series)}",
            f"    array reliability                    : {r:.15g}",
            f"    array unreliability                  : {u:.15g}",
            f"    leading-term approximation           : "
            f"{_approximation(report.leading.evaluate(eps))}",
        ]
    _write_output(["\n".join(lines)], args.out)
    return 0


def _cmd_oracle_enum(args: argparse.Namespace) -> int:
    poly = exact_reliability_enum(_flag_geometry(args))
    text = poly.to_csv()
    if args.eps is not None:
        text += (
            f"# unreliability at eps={args.eps:g}: "
            f"{poly.unreliability(args.eps):.15g}\n"
        )
    _write_output([text], args.out)
    return 0


def _cmd_oracle_markov(args: argparse.Namespace) -> int:
    merged = _merge(args, {**_GEOMETRY_DEFAULTS, **_RATE_DEFAULTS})
    config = _geometry(merged)
    rates = _rates(merged)
    hours = markov_mttdl(config, rates)
    text = (
        f"exact MTTDL for HRAID {config.k}/{config.ell}: N={config.n}, M={config.m}, "
        f"delta={rates.disk_rate:g}/h, gamma={rates.controller_rate:g}/h\n"
        f"  {hours:.15g} hours ({hours / 1000.0:.4f} thousand hours)"
    )
    _write_output([text], args.out)
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    if args.verify:
        try:
            grid = LayoutGrid.from_json(Path(args.verify).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read grid file {args.verify}: {exc}") from exc
        violations = verify_layout(grid)
        if violations:
            text = "\n".join(
                [f"layout INVALID: {len(violations)} violation(s)"] + violations
            )
            _write_output([text], args.out)
            return 2
        _write_output(["layout valid: all balance invariants hold"], args.out)
        return 0
    grid = generate_layout(_flag_geometry(args))
    text = grid.to_json() if args.format == "json" else grid.as_text()
    _write_output([text], args.out)
    return 0


def _cmd_codec_demo(args: argparse.Namespace) -> int:
    config = _geometry(vars(args))
    grid = generate_layout(config)
    payloads = random_payloads(grid, args.seed, args.strip_size)
    content = encode_stripes(payloads, config, grid)
    bad = verify_parity(content)
    lines = [
        f"encoded HRAID {config.k}/{config.ell}: N={config.n}, M={config.m}, "
        f"{len(payloads)} data strips of {args.strip_size} bytes (seed {args.seed})",
        f"parity check after encode: {'ok' if not bad else 'FAILED'}",
    ]
    if args.dir:
        write_strip_tree(content, args.dir)
        lines.append(f"strip tree written under {args.dir}/node*/disk*/row*.bin")

    erased = set()
    for spec_str in args.erase_disk:
        try:
            node_s, pos_s = spec_str.split(":")
            node, pos = int(node_s), int(pos_s)
        except ValueError as exc:
            raise UsageError(f"--erase-disk expects NODE:POS, got {spec_str!r}") from exc
        erased |= disk_cells(config, node, pos)
        lines.append(f"erased disk: node {node}, position {pos}")
    for node in args.erase_node:
        erased |= node_cells(config, node)
        lines.append(f"erased node {node}")

    if erased:
        scenarios = [("requested erasure", erased)]
    else:
        scenarios = [
            ("single disk (node 1, position 1)", disk_cells(config, 1, 1)),
            ("whole node 2", node_cells(config, 2)),
            (
                "two whole nodes (1 and 2)",
                node_cells(config, 1) | node_cells(config, 2),
            ),
        ]
    for label, cells in scenarios:
        result = recover(content, cells)
        if result.data_loss:
            lines.append(f"recover after {label}: DATA LOSS ({result.message})")
            continue
        exact = (result.content.strips == content.strips).all()
        lines.append(
            f"recover after {label}: rebuilt {len(cells)} strips, "
            f"bit-exact: {'yes' if exact else 'NO'}"
            + (
                f" (failed nodes restriped: {result.failed_nodes})"
                if result.failed_nodes
                else ""
            )
        )
    _write_output(["\n".join(lines)], None)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
