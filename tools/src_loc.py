"""Non-blank line counts of the files under src/, and their change against a git revision.

    python3 tools/src_loc.py                  # working tree only
    python3 tools/src_loc.py --against HEAD~1 # REV, working tree and delta

Run from the root of a git checkout. The working tree's files are those
git tracks or would track (ignored files such as `__pycache__/` are left
out); a revision's files are read with `git show REV:path`. A line
counts when it holds anything besides whitespace. A file missing on one
side counts 0 there.

Standard library only, so it runs against any checkout.
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path

SRC = "src"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def nonblank(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def tree_counts() -> dict[str, int]:
    """Per file under src/ in the working tree, its non-blank line count."""
    names = _git("ls-files", "--cached", "--others", "--exclude-standard", "--", SRC).splitlines()
    return {
        name: nonblank(Path(name).read_text(encoding="utf-8", errors="replace"))
        for name in sorted(set(names))
        if Path(name).is_file()
    }


def rev_counts(rev: str) -> dict[str, int]:
    """Per file under src/ at `rev`, its non-blank line count."""
    names = _git("ls-tree", "-r", "--name-only", rev, "--", SRC).splitlines()
    return {name: nonblank(_git("show", f"{rev}:{name}")) for name in sorted(names)}


def table(tree: dict[str, int], rev: dict[str, int] | None) -> list[str]:
    """One line per file and a total line; with `rev`, its count and the delta come first."""
    names = sorted(set(tree) | set(rev or {}))
    rows = [(name, tree.get(name, 0), None if rev is None else rev.get(name, 0)) for name in names]
    rows.append(("total", sum(tree.values()), None if rev is None else sum(rev.values())))
    if rev is None:
        return [f"{now:>6}  {name}" for name, now, _ in rows]
    lines = [f"{'rev':>6} {'tree':>6} {'delta':>6}  file"]
    lines.extend(f"{then:>6} {now:>6} {now - then:>+6}  {name}" for name, now, then in rows)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also count REV's files and print the delta")
    args = parser.parse_args(argv)
    rev = rev_counts(args.against) if args.against else None
    print("\n".join(table(tree_counts(), rev)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
