"""The data of tools/mutants.py still fits the tree, so a replay of every mutant reaches the tests it names."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_old_text_occurs_once_and_every_named_test_file_exists():
    # the replay itself runs pytest once per mutant and stays outside tier-1
    entries = mutants.load()
    assert len({entry["id"] for entry in entries}) == len(entries)
    assert {entry["id"]: mutants.stale(entry, ROOT) for entry in entries} == {entry["id"]: None for entry in entries}
