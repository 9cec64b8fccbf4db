"""The public surface of the package."""

import ast
import math
import types
from pathlib import Path

import pytest

import pairsim

PUBLIC_NAMES = {
    "CoincidenceHistogram", "ConfigDomainError", "ConfigError", "ConfigSyntaxError",
    "ExperimentConfig", "SourceModel", "StreamOrderError", "TimestampStream",
    "UndefinedCorrelationError", "cauchy_schwarz", "compare", "export_histogram",
    "export_run", "g_ratio", "histogram", "oracle_report", "parse_config",
    "reference_preset", "render_config", "render_report", "render_run_report",
    "simulate_run", "singles_rates", "sweep",
}


def test_public_names_are_exactly_the_documented_set():
    # Submodules show up as attributes once imported; they are not names
    # that pairsim/__init__.py exports.
    exported = {name for name, value in vars(pairsim).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


NAN_GUARDS = {
    "g_ratio-n_same_trial": (lambda: pairsim.g_ratio(math.nan, 5.0, 2), "n_same_trial"),
    "g_ratio-m_baseline": (lambda: pairsim.g_ratio(5.0, math.nan, 2), "m_baseline"),
    "g_ratio-n_baseline_peaks": (
        lambda: pairsim.g_ratio(5.0, 5.0, math.nan), "n_baseline_peaks"),
    "singles_rates-duration": (
        lambda: pairsim.singles_rates({"A": 1.0}, math.nan), "duration"),
}


@pytest.mark.parametrize("case", NAN_GUARDS)
def test_public_guards_reject_nan(case):
    call, argument = NAN_GUARDS[case]
    with pytest.raises(ValueError, match=rf"\b{argument} must be"):
        call()


def unused_imports(source: str, exempt=frozenset()) -> list[str]:
    """Names that ``source`` imports and never reads, ``exempt`` ones aside.

    ``from __future__ import ...`` binds no name and is skipped.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exempt)


PACKAGE_DIR = Path(pairsim.__file__).parent


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE_DIR.glob("*.py")))
def test_module_imports_only_what_it_uses(module):
    # The package's __init__ imports its public names to re-export them.
    exempt = PUBLIC_NAMES | {"__version__"} if module == "__init__.py" else frozenset()
    assert unused_imports((PACKAGE_DIR / module).read_text(), exempt) == []


def test_unused_import_guard_sees_leftovers():
    source = ("from __future__ import annotations\nimport contextlib\nimport os.path\n"
              "from math import inf as INF, pi\nprint(pi, os)\n")
    assert unused_imports(source) == ["INF", "contextlib"]


def test_version_is_kept_in_one_place():
    # pyproject.toml reads the version from the package, so a bump edits
    # _version.py alone.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    settings = tomllib.loads(pyproject.read_text())
    assert "version" not in settings["project"] and settings["project"]["dynamic"] == ["version"]
    assert settings["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "pairsim._version.__version__"}
