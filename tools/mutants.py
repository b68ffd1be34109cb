"""Replay the mutation checks in tools/mutants.json: each mutant must make the tests it names fail.

    python3 tools/mutants.py    # ~2 min on 2 vCPUs

Each entry of the data file gives an `id`, a `file` under src/, an `old`
text that must occur in that file exactly once, its `new` text, and the
`tests` files expected to catch it. The script copies the repository
(without .git and caches) to a temporary directory. There, it first runs
each named set of test files once unmutated, which must pass; then, one
mutant at a time, it writes `new` in place of `old`, runs
`python -m pytest -x -q` on the mutant's test files and puts the file
back. One pytest process runs at a time, with PYTHONPATH set to the
copy's src/ and no bytecode written, so none of a mutant outlives it.

A mutant is caught when pytest fails or runs past 10 minutes, and
survived when it passes; it is stale when `old` does not occur exactly
once or a named test file is missing. The exit status is 1 on any
survivor, stale mutant or failing unmutated run, else 0.

Standard library only, so it runs against any checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tools" / "mutants.json"
IGNORED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench")
TIMEOUT_S = 600  # per pytest run; a run that hangs counts as failing


def load() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def stale(mutant: dict, root: Path) -> str | None:
    """Why `mutant` cannot be applied to the tree at `root`, or None when it can."""
    if not mutant["file"].startswith("src/") or not (root / mutant["file"]).is_file():
        return f"no file {mutant['file']} under src/"
    count = (root / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"])
    if count != 1:
        return f"`old` occurs {count} times in {mutant['file']}"
    missing = [name for name in mutant["tests"] if not (root / name).is_file()]
    return f"no test file {', '.join(missing)}" if missing else None


def pytest_passes(copy: Path, tests: list[str]) -> tuple[bool, float]:
    """Whether `python -m pytest -x -q` on `tests` passes in `copy`, and how long it took."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}  # no bytecode of a mutant
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    mutants = load()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*IGNORED))
        for tests in sorted({tuple(m["tests"]) for m in mutants if stale(m, copy) is None}):
            passed, seconds = pytest_passes(copy, list(tests))
            print(f"{'clean' if passed else 'FAILS UNMUTATED':<16} {' '.join(tests)} ({seconds:.1f} s)", flush=True)
            failures += not passed
        for mutant in mutants:
            reason = stale(mutant, copy)
            if reason is not None:
                print(f"{'STALE':<16} {mutant['id']}: {reason}", flush=True)
                failures += 1
                continue
            target = copy / mutant["file"]
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
            try:
                survived, seconds = pytest_passes(copy, mutant["tests"])
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if survived else 'caught':<16} {mutant['id']} ({seconds:.1f} s)", flush=True)
            failures += survived
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
