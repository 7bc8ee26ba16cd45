"""The package's module layering, read from the source with ``ast``: the
exact engines and the records stand apart from the Monte Carlo module, and
each result record is defined in one place."""

import ast
from pathlib import Path

import hraidlab
from hraidlab import simulator

SRC = Path(hraidlab.__file__).parent
RECORD_NAMES = {"MttdlEstimate", "RunResult", "SweepCell", "SweepResult", "format_hours", "format_csv"}


def _imported_names(module: str) -> set[str]:
    """Every module and name that an import statement of ``module`` names."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.add(getattr(node, "module", None) or "")
    return names


def test_exact_engines_and_records_do_not_import_the_simulator():
    for module in ("oracle", "analytic", "config", "records"):
        assert not any("simulator" in name.split(".") for name in _imported_names(module)), module


def test_simulator_neither_defines_nor_reexports_the_records():
    assert not RECORD_NAMES & set(vars(simulator))


def test_result_records_are_defined_only_in_records():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        } | {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        expected = RECORD_NAMES if path.stem == "records" else set()
        assert defined & RECORD_NAMES == expected, path.name
