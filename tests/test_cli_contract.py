"""The CLI contract as a property: every input gets a valid answer (exit 0)
or names what it violated (exit 1 or 2), never an internal failure (exit 3),
and no answer holds a nan or an inf, nor a probability outside [0, 1]."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hraidlab import HraidConfig, generate_layout
from hraidlab.cli import main
from hraidlab.codec import MAX_STRIP_BYTES
from hraidlab.simulator import MAX_TRIALS

RATES = [0.0, -1e-6, 1e-320, 1e-30, 1e-6, 1.0, 1e30, 1e300, float("nan"), float("inf")]
SEEDS = [-1, 0, 1, 2**63, 2**64 - 1, 2**64]
#: Trial counts past the trial bound, up to 1e30.
HUGE_TRIALS = st.integers(MAX_TRIALS + 1, 10**30)
#: Trial counts: small ones, and counts past the trial bound.
TRIALS = st.one_of(st.integers(-3, 30), HUGE_TRIALS)
#: Config-file values of the wrong JSON type for every key.
WRONG_TYPES = [None, True, 4.5, "4", [], {}]
#: Where --out, --trace and --dir point, relative to a scratch directory
#: holding the directory existing-dir and the regular file plain: nowhere
#: (stdout), a new file, an existing directory, or a path under a regular file.
TARGETS = [None, "new-{}", "existing-dir", "plain/{}"]
#: Node counts up to and past the closed forms' 1e308 bound; the simulator
#: and the chain answer at some of them and name their bound at the rest.
HUGE_N = [10**6, 10**7, 10**12, 10**100, 10**400]
HUGE_N_COMMANDS = [
    ["simulate"], ["sweep"], ["oracle", "markov"], ["analytic", "report"], ["analytic", "compare"],
    ["layout"], ["codec-demo"],
]
#: The commands also drawn at a huge M (from HUGE_N): their grids hold N M^2 cells.
HUGE_M_COMMANDS = [["layout"], ["codec-demo"]]
#: The commands drawn at a huge N with every flag valid.
VALID_HUGE_N_COMMANDS = [
    ["simulate"], ["sweep"], ["oracle", "markov"], ["analytic", "report"], ["layout"],
    ["codec-demo"],
]
#: codec-demo strip sizes: small ones, the default, and sizes past the strip
#: array bound at every geometry, up to 1e20.  Sizes between those answer at a
#: cost that grows with the size, so they are left to the codec's own tests.
STRIP_SIZES = st.one_of(
    st.integers(-1, 16), st.just(4096), st.integers(MAX_STRIP_BYTES + 1, 10**20)
)
POSITIVE_RATES = [1e-30, 1e-6, 1e-3, 1.0, 1e30]
COMMANDS = [
    ["simulate"], ["sweep"], ["oracle", "markov"], ["oracle", "enum"],
    ["analytic", "report"], ["analytic", "compare"], ["layout"], ["codec-demo"],
]
GRID_CONFIGS = [
    HraidConfig(n, m, k, ell)
    for n in range(1, 5) for m in range(1, 5) for k in range(2) for ell in range(2)
    if k < n and k + ell < m
]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def grid_files(draw):
    """A layout grid file: valid, truncated, with one cell's letter replaced,
    or with N or M replaced by a huge count."""
    cfg = draw(st.sampled_from(GRID_CONFIGS))
    text = generate_layout(cfg).to_json()
    kind = draw(st.sampled_from(["valid", "truncated", "bad letter", "huge"]))
    if kind == "huge":
        obj = json.loads(text)
        obj[draw(st.sampled_from(["n", "m"]))] = draw(st.sampled_from(HUGE_N))
        return json.dumps(obj)
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "bad letter":
        obj = json.loads(text)
        row = obj["rows"][draw(st.integers(0, cfg.m - 1))][draw(st.integers(0, cfg.n - 1))]
        row[draw(st.integers(0, cfg.m - 1))] = draw(st.sampled_from(["Z", "U", "", 7, None, ["P"]]))
        return json.dumps(obj)
    return text


@st.composite
def invocations(draw):
    """argv, the flags that take a path under the scratch directory, and the
    files to create there first."""
    command = draw(st.sampled_from(COMMANDS))
    targets, files = {}, {}
    if command == ["layout"] and draw(st.booleans()):
        files["grid.json"] = draw(grid_files())
        targets["--verify"] = "grid.json"
        argv = list(command)
    else:
        geometry = st.integers(-2, 14)
        huge = st.one_of(geometry, st.sampled_from(HUGE_N))
        geometry_n = huge if command in HUGE_N_COMMANDS else geometry
        geometry_m = huge if command in HUGE_M_COMMANDS else geometry
        argv = command + [f"--n={draw(geometry_n)}", f"--m={draw(geometry_m)}"]
        if command not in (["sweep"], ["analytic", "compare"]):
            tolerance = st.integers(-1, 4)
            argv += [f"--k={draw(tolerance)}", f"--l={draw(tolerance)}"]
    if command[0] in ("simulate", "sweep") or command == ["oracle", "markov"]:
        rates = st.sampled_from(RATES)
        argv += [f"--delta={draw(rates)!r}", f"--gamma={draw(rates)!r}"]
    if command[0] in ("simulate", "sweep"):
        argv += [
            f"--trials={draw(TRIALS)}",
            f"--seed={draw(st.sampled_from(SEEDS))}",
            f"--format={draw(st.sampled_from(['table', 'csv', 'json']))}",
        ]
    if command in (["analytic", "report"], ["oracle", "enum"]):
        eps = draw(st.sampled_from([None, 0.5, *RATES]))
        argv += [] if eps is None else [f"--eps={eps!r}"]
    if command == ["layout"] and "--verify" not in targets:
        argv += [f"--format={draw(st.sampled_from(['text', 'json']))}"]
    if command == ["codec-demo"]:
        argv += [
            f"--strip-size={draw(STRIP_SIZES)}",
            f"--seed={draw(st.sampled_from(SEEDS))}",
        ]
        targets["--dir"] = draw(st.sampled_from(TARGETS))
    else:
        targets["--out"] = draw(st.sampled_from(TARGETS))
    if command == ["simulate"]:
        targets["--trace"] = draw(st.sampled_from(TARGETS))
    return argv, targets, files


@st.composite
def config_invocations(draw):
    """argv for simulate or sweep and the body of the config file it reads:
    each value the flag test draws goes to the file or to its flag (or, but
    for N and M, nowhere), and one file value in eight is of a wrong type.  A
    string output_path is a TARGETS entry under the scratch directory."""
    command = draw(st.sampled_from(["simulate", "sweep"]))
    flags = {
        "n": st.one_of(st.integers(-2, 14), st.sampled_from(HUGE_N)),
        "m": st.integers(-2, 14),
        "delta_per_hour": st.sampled_from(RATES),
        "gamma_per_hour": st.sampled_from(RATES),
        "trials": TRIALS,
        "seed": st.sampled_from(SEEDS),
        "output_format": st.sampled_from(["table", "csv", "json"]),
    }
    if command == "simulate":
        flags |= {"k": st.integers(-1, 4), "ell": st.integers(-1, 4)}
    names = {"delta_per_hour": "delta", "gamma_per_hour": "gamma", "output_format": "format",
             "ell": "l"}
    argv, body = [command], {}
    for key, values in flags.items():
        places = ["file", "flag"] if key in ("n", "m") else ["file", "flag", "nowhere"]
        where = draw(st.sampled_from(places))
        if where == "file":
            wrong = draw(st.integers(0, 7)) == 0
            body[key] = draw(st.sampled_from(WRONG_TYPES) if wrong else values)
        elif where == "flag":
            argv.append(f"--{names.get(key, key)}={draw(values)}")
    if draw(st.booleans()):
        body["output_path"] = draw(st.sampled_from([*TARGETS[1:], *WRONG_TYPES]))
    if draw(st.integers(0, 7)) == 0:
        body[draw(st.sampled_from(["k", "ell", "cheese"]))] = 1  # k and l are sweep's unknowns
    return argv, body


@st.composite
def valid_huge_invocations(draw):
    """argv for a command at one of HUGE_N with every flag valid on its own,
    so only a size bound can refuse it, and whether ``simulate`` also traces
    to a new file.  The trial count is small, or past the trial bound."""
    command = draw(st.sampled_from(VALID_HUGE_N_COMMANDS))
    m = draw(st.integers(1, 14))
    argv = command + [f"--n={draw(st.sampled_from(HUGE_N))}", f"--m={m}"]
    if command != ["sweep"]:
        top = 1 if command == ["codec-demo"] else 3  # the XOR codec takes k, l <= 1
        k = draw(st.integers(0, min(top, m - 1)))  # k < N at every huge N
        argv += [f"--k={k}", f"--l={draw(st.integers(0, min(top, m - 1 - k)))}"]
    if command[0] in ("simulate", "sweep", "oracle"):
        rates = st.sampled_from(POSITIVE_RATES)
        argv += [f"--delta={draw(rates)!r}", f"--gamma={draw(rates)!r}"]
    elif command == ["analytic", "report"]:
        eps = draw(st.sampled_from([None, 1e-6, 0.01, 0.5]))
        argv += [] if eps is None else [f"--eps={eps!r}"]
    elif command == ["codec-demo"]:
        argv += [f"--strip-size={draw(st.integers(1, 10**20))}"]
    if command[0] in ("simulate", "sweep"):
        argv += [
            f"--trials={draw(st.one_of(st.integers(1, 5), HUGE_TRIALS))}",
            f"--seed={draw(st.integers(0, 2**64 - 1))}",
            f"--format={draw(st.sampled_from(['table', 'csv', 'json']))}",
        ]
    return argv, command == ["simulate"] and draw(st.booleans())


def evaluated_probabilities(text: str) -> list[str]:
    """The values an analytic report prints under 'at eps = ...'."""
    return re.findall(r": (\S+)", text.partition("at eps =")[2])


def check_answer(argv: list[str], text: str) -> None:
    """An answer holds no nan or inf and no probability outside [0, 1]."""
    assert not NON_FINITE.search(text), (argv, text)
    for value in evaluated_probabilities(text):
        assert value == "n/a" or 0.0 <= float(value) <= 1.0, (argv, text)


@settings(max_examples=400, database=None, deadline=None)
@given(invocations())
def test_every_input_gets_an_answer_or_a_named_bound(invocation):
    argv, targets, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "existing-dir").mkdir()
        (root / "plain").write_text("x")
        for name, text in files.items():
            (root / name).write_text(text)
        for flag, target in targets.items():
            if target is not None:
                argv = argv + [flag, str(root / target.format(flag.strip("-")))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2), (argv, err.getvalue())
        if rc == 0:
            written = [p.read_text() for p in root.rglob("*") if p.is_file() and p.suffix != ".bin"]
            for text in [out.getvalue(), *written]:
                check_answer(argv, text)


@settings(max_examples=200, database=None, deadline=None)
@given(config_invocations())
def test_config_file_values_get_an_answer_or_a_named_bound(invocation):
    argv, body = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "existing-dir").mkdir()
        (root / "plain").write_text("x")
        if isinstance(body.get("output_path"), str):
            body["output_path"] = str(root / body["output_path"].format("out"))
        config = root / "run.json"
        config.write_text(json.dumps(body))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv + ["--config", str(config)])
        assert rc in (0, 1, 2), (argv, body, err.getvalue())
        if rc == 0:
            written = [p.read_text() for p in root.rglob("*") if p.is_file()]
            for text in [out.getvalue(), *written]:
                check_answer(argv, text)


@settings(max_examples=200, database=None, deadline=None)
@given(valid_huge_invocations())
def test_valid_flags_at_huge_node_counts_answer_or_name_a_bound(invocation):
    argv, traced = invocation
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.jsonl"
        argv = argv + ["--trace", str(trace)] if traced else argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2), (argv, err.getvalue())
        if rc == 0:
            check_answer(argv, out.getvalue())
            if traced:
                check_answer(argv, trace.read_text())
