"""The suite's own pytest settings, run on a probe file in a fresh pytest,
and the package's import layering."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x is None


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    """Under the project's ``filterwarnings``, which turn warnings into
    errors, a failing hypothesis test is one failure and the tests after it
    still run.  On a failure hypothesis's report hook imports libcst where it
    is installed, and a deprecation warning raised there, inside a pytest
    hook, would end the session with INTERNALERROR."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout


def test_only_the_front_ends_import_the_attack():
    """The attack sits on top of the package: ``scheme`` decrypts with
    either key, so no module below the CLI and the package's own exports
    imports ``attack``."""
    importers = set()
    for path in sorted((ROOT / "src" / "grs_squarebreak").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any("attack" in name.split(".") for name in names):
                importers.add(path.name)
    assert importers <= {"cli.py", "__init__.py"}, importers
