"""The skip rule against a reference model, over the small surrogate run tree.

A hypothesis state machine changes config fields, rewrites input files,
moves the whole tree, damages artifacts and cuts the embedding store,
then reruns the pipeline from the config's absolute path. After each rerun it checks the two properties
of a build system in *Build Systems à la Carte* (Mokhov, Mitchell &
Peyton Jones, ICFP 2018):

- correct: every artifact equals a fresh run's on the same inputs;
- minimal: the executed stages are exactly those the model below predicts.
"""

import shutil
import tempfile
from pathlib import Path

import yaml
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from conftest import make_topic_examples, write_run_tree
from exsel.corpus import save_examples
from exsel.pipeline import STAGES, load_config, run_pipeline

# each changeable config field, by its YAML place, and the values it takes; the first is the fixture's
FIELDS = {
    "seed": (7, 8),
    "corpus.n_validation": (24, 30),
    "projection.target_dimension": (20, 16),
    "clustering.cluster_selection_epsilon": (0.18, 0.181),
    "pool_sizes": ([40, 120], [40, 100]),
    "ga.mu": (12, 13),
    "client.max_in_flight": (4, 1),
}

INPUTS = ("pool.jsonl", "test.jsonl", "doc.txt")

# the model: the stages that read each field and input file, in surrogate mode with a pool file
READERS = {
    "seed": {"pool", "select", "report"},
    "corpus.n_validation": {"pool"},
    "projection.target_dimension": {"project"},
    "clustering.cluster_selection_epsilon": {"cluster"},
    "pool_sizes": {"pools", "select", "report"},
    "ga.mu": {"select"},
    "client.max_in_flight": set(),
    "pool.jsonl": {"pool"},
    "test.jsonl": set(),
    "doc.txt": set(),
}


def _stage_of(relpath: str) -> str:
    """The stage that writes artifact `relpath` (README "Output layout")."""
    return {"reduce/projection.f64": "project", "reduce/assignment.tsv": "cluster"}.get(relpath, relpath.split("/")[0])


def _artifacts(run: Path) -> dict[str, bytes]:
    """The stage artifacts under `run`: every file but the manifest and the embedding cache, which is not one."""
    files = {str(p.relative_to(run)): p for p in sorted(run.rglob("*")) if p.is_file()}
    return {rel: p.read_bytes() for rel, p in files.items() if rel != "manifest.json" and not rel.startswith("cache/")}


def _of(stage: str, files: dict[str, bytes]) -> dict[str, bytes]:
    return {rel: data for rel, data in files.items() if _stage_of(rel) == stage}


class SkipRuleMachine(RuleBasedStateMachine):
    # a fresh run's artifacts by its config and input contents, which is all it reads, so examples share them
    fresh_runs: dict[tuple, dict[str, bytes]] = {}

    @initialize()
    def first_run(self):
        self.base = Path(tempfile.mkdtemp(prefix="skip-model-"))
        self.tree = self.base / "tree"
        pool = self.base / "source.jsonl"
        save_examples(make_topic_examples(12, 30, seed=7), pool)
        write_run_tree(self.tree, pool)
        lines = {name: (self.tree / name).read_bytes().splitlines(keepends=True) for name in INPUTS}
        self.contents = {name: (b"".join(lines[name]), b"".join(lines[name][:-1])) for name in INPUTS}
        self.payload = yaml.safe_load((self.tree / "config.yaml").read_text(encoding="utf-8"))
        self.values = {**{name: values[0] for name, values in FIELDS.items()}, **dict.fromkeys(INPUTS, 0)}
        self.pending, self.moves = 0, 0
        self.last, self.last_values = {}, {}
        self.rerun_and_check()

    def changed(self, rerun: bool) -> None:
        """Rerun now, or let one more change come first."""
        self.pending += 1
        if rerun or self.pending == 2:
            self.rerun_and_check()

    def teardown(self):
        shutil.rmtree(self.base, ignore_errors=True)

    @rule(name=st.sampled_from(sorted(FIELDS)), index=st.integers(0, 1), rerun=st.booleans())
    def change_field(self, name, index, rerun):
        self.values[name] = FIELDS[name][index]
        section, _, key = name.rpartition(".")
        (self.payload.setdefault(section, {}) if section else self.payload)[key] = self.values[name]
        (self.tree / "config.yaml").write_text(yaml.safe_dump(self.payload), encoding="utf-8")
        self.changed(rerun)

    @rule(name=st.sampled_from(INPUTS), index=st.integers(0, 1), rerun=st.booleans())
    def rewrite_input(self, name, index, rerun):
        """Write one of two contents over an input file, the one it holds or the other."""
        (self.tree / name).write_bytes(self.contents[name][index])
        self.values[name] = index
        self.changed(rerun)

    @rule(rerun=st.booleans())
    def move_tree(self, rerun):
        self.moves += 1
        moved = self.base / f"moved{self.moves}"
        shutil.move(self.tree, moved)
        self.tree = moved
        self.changed(rerun)

    @rule(data=st.data(), delete=st.booleans(), rerun=st.booleans())
    def damage_artifact(self, data, delete, rerun):
        path = self.tree / "run" / data.draw(st.sampled_from(sorted(self.last)))
        if delete:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(b"corrupt")
        self.changed(rerun)

    @rule(name=st.sampled_from(["embeddings.f64", "embeddings.jsonl"]), at=st.floats(0, 1), rerun=st.booleans())
    def cut_embedding_store(self, name, at, rerun):
        """Cut the row file or the index at a drawn byte, as a crash inside a put would; no stage reads the store."""
        path = self.tree / "run" / "cache" / name
        data = path.read_bytes()
        path.write_bytes(data[: int(at * len(data))])
        self.changed(rerun)

    def rerun_and_check(self):
        fresh = self.fresh_run()
        run = self.tree / "run"
        predicted = self.predict(_artifacts(run), fresh) if self.last else list(STAGES)
        state = run_pipeline(load_config(self.tree / "config.yaml"))
        got = _artifacts(run)
        assert sorted(got) == sorted(fresh)
        assert [rel for rel in fresh if got[rel] != fresh[rel]] == []
        assert state.executed == predicted
        self.last, self.last_values, self.pending = got, dict(self.values), 0

    def predict(self, on_disk: dict[str, bytes], fresh: dict[str, bytes]) -> list[str]:
        """A stage runs when what it reads changed, when its artifacts differ from the last run's, or when
        an earlier stage's artifacts did."""
        changed = [name for name, value in self.values.items() if value != self.last_values[name]]
        dirty = set().union(*(READERS[name] for name in changed))
        executed, upstream_moved = [], False
        for stage in STAGES:
            if upstream_moved or stage in dirty or _of(stage, on_disk) != _of(stage, self.last):
                executed.append(stage)
            upstream_moved |= _of(stage, fresh) != _of(stage, self.last)
        return executed

    def fresh_run(self) -> dict[str, bytes]:
        """The artifacts a run in an empty directory writes from the tree's config and input files."""
        key = (yaml.safe_dump(self.payload), *((self.tree / name).read_bytes() for name in INPUTS))
        if key not in self.fresh_runs:
            tree = Path(tempfile.mkdtemp(dir=self.base))
            for name in ("config.yaml", *INPUTS):
                shutil.copyfile(self.tree / name, tree / name)
            run_pipeline(load_config(tree / "config.yaml"))
            self.fresh_runs[key] = _artifacts(tree / "run")
        return self.fresh_runs[key]


SkipRuleMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=10, deadline=None, derandomize=True)
test_skip_rule_is_correct_and_minimal = SkipRuleMachine.TestCase
