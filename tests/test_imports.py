"""Importing the pipeline or the CLI must not load the heavy optional modules."""

import subprocess
import sys
from pathlib import Path

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
