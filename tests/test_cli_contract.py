"""The CLI contract as a property: every input gets a valid answer (exit 0)
or names what it violated (exit 1 or 2), never an internal failure (exit 3),
and no answer holds a nan or an inf."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hraidlab.cli import main

RATES = [0.0, -1e-6, 1e-320, 1e-30, 1e-6, 1.0, 1e30, 1e300, float("nan"), float("inf")]
SEEDS = [-1, 0, 1, 2**63, 2**64 - 1, 2**64]
#: Where --out and --trace point, relative to a scratch directory holding the
#: directory existing-dir and the regular file plain: nowhere (stdout), a new
#: file, an existing directory, or a path under a regular file.
TARGETS = [None, "new-{}", "existing-dir", "plain/{}"]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def invocations(draw):
    command = draw(
        st.sampled_from([["simulate"], ["sweep"], ["oracle", "markov"], ["analytic", "report"]])
    )
    geometry = st.integers(-2, 14)
    tolerance = st.integers(-1, 4)
    argv = command + [f"--n={draw(geometry)}", f"--m={draw(geometry)}"]
    if command != ["sweep"]:
        argv += [f"--k={draw(tolerance)}", f"--l={draw(tolerance)}"]
    if command[0] != "analytic":
        rates = st.sampled_from(RATES)
        argv += [f"--delta={draw(rates)!r}", f"--gamma={draw(rates)!r}"]
    if command[0] in ("simulate", "sweep"):
        argv += [
            f"--trials={draw(st.integers(-3, 30))}",
            f"--seed={draw(st.sampled_from(SEEDS))}",
            f"--format={draw(st.sampled_from(['table', 'csv', 'json']))}",
        ]
    if command[0] == "analytic":
        eps = draw(st.sampled_from([None, 0.5, *RATES]))
        argv += [] if eps is None else [f"--eps={eps!r}"]
    targets = {"--out": draw(st.sampled_from(TARGETS))}
    if command == ["simulate"]:
        targets["--trace"] = draw(st.sampled_from(TARGETS))
    return argv, targets


@settings(max_examples=300, database=None, deadline=None)
@given(invocations())
def test_every_input_gets_an_answer_or_a_named_bound(invocation):
    argv, targets = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "existing-dir").mkdir()
        (root / "plain").write_text("x")
        for flag, target in targets.items():
            if target is not None:
                argv = argv + [flag, str(root / target.format(flag.strip("-")))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2), (argv, err.getvalue())
        if rc == 0:
            written = [p.read_text() for p in root.rglob("*") if p.is_file()]
            for text in [out.getvalue(), *written]:
                assert not NON_FINITE.search(text), (argv, text)
