"""Tests for tools/project_widths.py on one tiny shape."""

import importlib.util
import json
from pathlib import Path

import pytest

from exsel.reduce import projection

TOOL = Path(__file__).resolve().parents[1] / "tools" / "project_widths.py"


def test_times_a_shape_at_one_and_two_threads_and_keeps_the_rest_of_the_file(tmp_path):
    controls = projection._blas_thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    spec = importlib.util.spec_from_file_location("project_widths", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"what": "kept", "widths": {"parent": [1]}}), encoding="utf-8")
    before = controls[0]()

    rows = tool.main(["--out", str(out), "--reps", "2", "--shapes", "40x6"])

    assert [sorted(row) for row in rows] == [["columns", "rows", "same_bytes", "threads_1_s", "threads_2_s"]]
    assert (rows[0]["rows"], rows[0]["columns"], rows[0]["same_bytes"]) == (40, 6, True)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["what"] == "kept" and doc["widths"]["parent"] == [1]
    assert doc["widths"]["shapes"] == rows
    assert controls[0]() == before
