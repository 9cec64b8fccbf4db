"""Every demo script runs to completion, through the public API."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
INTERNAL = {"pairsim.optics", "pairsim.source"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def internal_imports(path: Path) -> list[str]:
    """Names a script imports from the sampler's stage modules, other than
    ``SourceModel``, and the stage modules it imports whole."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in INTERNAL]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if (node.module in INTERNAL and alias.name != "SourceModel") or name in INTERNAL:
                    found.append(name)
    return found


def test_demos_import_no_stage_function(tmp_path):
    # The checker catches each form of import it looks for.
    probe = tmp_path / "probe.py"
    probe.write_text("from pairsim.source import SourceModel, sample_write\n"
                     "from pairsim import optics\nimport pairsim.source\n")
    assert internal_imports(probe) == ["pairsim.source.sample_write", "pairsim.optics",
                                       "pairsim.source"]
    assert {demo.stem: internal_imports(demo) for demo in DEMOS} == {
        demo.stem: [] for demo in DEMOS}
