"""Tests for tools/src_loc.py on a small git repository."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_loc.py"


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo, check=True,
                   capture_output=True)


def src_loc(repo, *args):
    done = subprocess.run([sys.executable, str(TOOL), *args], cwd=repo, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_counts_non_blank_lines_and_the_delta_against_a_revision(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\n   \ny = 2\nz = 3\n", encoding="utf-8")
    (tmp_path / "src" / "pkg" / "gone.py").write_text("q = 1\nr = 2\n", encoding="utf-8")
    (tmp_path / "README.md").write_text("not under src\n", encoding="utf-8")
    (tmp_path / ".gitignore").write_text("__pycache__/\n", encoding="utf-8")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "start")

    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "src" / "pkg" / "gone.py").unlink()
    (tmp_path / "src" / "pkg" / "new.py").write_text("n = 1\n", encoding="utf-8")  # untracked, still counted
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    (tmp_path / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\x00\n\x01\n")

    assert src_loc(tmp_path) == ["     2  src/pkg/a.py", "     1  src/pkg/new.py", "     3  total"]
    assert src_loc(tmp_path, "--against", "HEAD") == [
        "   rev   tree  delta  file",
        "     3      2     -1  src/pkg/a.py",
        "     2      0     -2  src/pkg/gone.py",
        "     0      1     +1  src/pkg/new.py",
        "     5      3     -2  total",
    ]
