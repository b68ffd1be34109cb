"""Importing the pipeline or the CLI must not load the heavy optional modules."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_pipeline_and_cli_import_without_scipy_requests_or_matplotlib():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import exsel.pipeline.runner, exsel.cli; "
        "print(sorted(m for m in ('scipy', 'requests', 'matplotlib') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)], capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["exsel", "exsel.llm", "exsel.pipeline", "exsel.reduce"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
