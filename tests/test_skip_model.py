"""The skip rule against a reference model, over the small surrogate run tree.

A hypothesis state machine changes config fields, rewrites input files,
moves the whole tree, damages artifacts and cuts the embedding store,
then reruns the pipeline from the config's absolute path, through
`report` or through `baseline`. After each rerun it checks the two
properties of a build system in *Build Systems à la Carte* (Mokhov,
Mitchell & Peyton Jones, ICFP 2018):

- correct: every artifact of the stages it ran through equals a fresh run's on the same inputs;
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

# the stages a run through `report` or `baseline` runs, in order; baseline's key chains on pool ... pools alone
THROUGH = {"report": STAGES, "baseline": (*STAGES[:4], "baseline")}
# a change reruns now, through either, or waits for one more
RERUN = st.sampled_from([None, *THROUGH])

# each changeable config field, by its YAML place, and the values it takes; the first is the fixture's
FIELDS = {
    "seed": (7, 8),
    "corpus.n_validation": (24, 30),
    "projection.target_dimension": (20, 16),
    "clustering.cluster_selection_epsilon": (0.18, 0.181),
    "pool_sizes": ([40, 120], [40, 100]),
    "ga.mu": (12, 13),
    "client.max_in_flight": (4, 1),
    "baseline_draws": (3, 2),
}

INPUTS = ("pool.jsonl", "test.jsonl", "doc.txt")

# the model: the stages that read each field and input file, in surrogate mode with a pool file
READERS = {
    "seed": {"pool", "select", "report", "baseline"},
    "corpus.n_validation": {"pool"},
    "projection.target_dimension": {"project"},
    "clustering.cluster_selection_epsilon": {"cluster"},
    "pool_sizes": {"pools", "select", "report", "baseline"},
    "ga.mu": {"select"},
    "client.max_in_flight": set(),
    "baseline_draws": {"baseline"},
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


def _of(*stages: str, files: dict[str, bytes]) -> dict[str, bytes]:
    return {rel: data for rel, data in files.items() if _stage_of(rel) in stages}


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
        # per stage, the config values and every artifact as the stage last ran, or was found up to date
        self.record: dict[str, tuple[dict, dict[str, bytes]]] = {}
        self.last: dict[str, bytes] = {}
        self.rerun_and_check("report")

    def changed(self, rerun: str | None) -> None:
        """Rerun now through stage `rerun`, or let one more change come first; a second one reruns through report."""
        self.pending += 1
        if rerun or self.pending == 2:
            self.rerun_and_check(rerun or "report")

    def teardown(self):
        shutil.rmtree(self.base, ignore_errors=True)

    @rule(name=st.sampled_from(sorted(FIELDS)), index=st.integers(0, 1), rerun=RERUN)
    def change_field(self, name, index, rerun):
        self.values[name] = FIELDS[name][index]
        section, _, key = name.rpartition(".")
        (self.payload.setdefault(section, {}) if section else self.payload)[key] = self.values[name]
        (self.tree / "config.yaml").write_text(yaml.safe_dump(self.payload), encoding="utf-8")
        self.changed(rerun)

    @rule(name=st.sampled_from(INPUTS), index=st.integers(0, 1), rerun=RERUN)
    def rewrite_input(self, name, index, rerun):
        """Write one of two contents over an input file, the one it holds or the other."""
        (self.tree / name).write_bytes(self.contents[name][index])
        self.values[name] = index
        self.changed(rerun)

    @rule(rerun=RERUN)
    def move_tree(self, rerun):
        self.moves += 1
        moved = self.base / f"moved{self.moves}"
        shutil.move(self.tree, moved)
        self.tree = moved
        self.changed(rerun)

    @rule(data=st.data(), delete=st.booleans(), rerun=RERUN)
    def damage_artifact(self, data, delete, rerun):
        path = self.tree / "run" / data.draw(st.sampled_from(sorted(self.last)))
        if delete:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(b"corrupt")
        self.changed(rerun)

    @rule(name=st.sampled_from(["embeddings.f64", "embeddings.jsonl"]), at=st.floats(0, 1), rerun=RERUN)
    def cut_embedding_store(self, name, at, rerun):
        """Cut the row file or the index at a drawn byte, as a crash inside a put would; no stage reads the store."""
        path = self.tree / "run" / "cache" / name
        data = path.read_bytes()
        path.write_bytes(data[: int(at * len(data))])
        self.changed(rerun)

    @rule(through=st.sampled_from(sorted(THROUGH)))
    def run_through(self, through):
        """Rerun with no change of its own, as `exsel baseline` after `exsel run-all` or the reverse."""
        self.rerun_and_check(through)

    def rerun_and_check(self, through: str):
        stages = THROUGH[through]
        fresh = _of(*stages, files=self.fresh_run())
        run = self.tree / "run"
        predicted = self.predict(stages, _artifacts(run), fresh)
        state = run_pipeline(load_config(self.tree / "config.yaml"), through=through)
        self.last, self.pending = _artifacts(run), 0
        got = _of(*stages, files=self.last)
        assert sorted(got) == sorted(fresh)
        assert [rel for rel in fresh if got[rel] != fresh[rel]] == []
        assert state.executed == predicted
        self.record |= dict.fromkeys(stages, (dict(self.values), self.last))

    def predict(self, stages: tuple[str, ...], on_disk: dict[str, bytes], fresh: dict[str, bytes]) -> list[str]:
        """A stage runs when it never ran, when what it reads changed since it last ran, when its artifacts differ
        from that run's, or when those of a stage before it in `stages`, which its key chains on, did."""
        executed = []
        for index, stage in enumerate(stages):
            values, files = self.record.get(stage, ({}, None))
            changed = [name for name, value in values.items() if value != self.values[name]]
            if (
                files is None
                or stage in set().union(*(READERS[name] for name in changed))
                or _of(stage, files=on_disk) != _of(stage, files=files)
                or _of(*stages[:index], files=fresh) != _of(*stages[:index], files=files)
            ):
                executed.append(stage)
        return executed

    def fresh_run(self) -> dict[str, bytes]:
        """The artifacts runs through `report` and `baseline` in an empty directory write from the tree's config
        and input files."""
        key = (yaml.safe_dump(self.payload), *((self.tree / name).read_bytes() for name in INPUTS))
        if key not in self.fresh_runs:
            tree = Path(tempfile.mkdtemp(dir=self.base))
            for name in ("config.yaml", *INPUTS):
                shutil.copyfile(self.tree / name, tree / name)
            for through in THROUGH:
                run_pipeline(load_config(tree / "config.yaml"), through=through)
            self.fresh_runs[key] = _artifacts(tree / "run")
        return self.fresh_runs[key]


SkipRuleMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=10, deadline=None, derandomize=True)
test_skip_rule_is_correct_and_minimal = SkipRuleMachine.TestCase
