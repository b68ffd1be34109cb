"""The skip rule against a reference model, over the small surrogate run tree and the tiny llm run tree.

Two hypothesis state machines change config fields, rewrite input files,
move the whole tree and damage artifacts; the surrogate one also cuts the
embedding store, and the llm one crashes its next run that makes a call
after a drawn number of calls. Each then reruns the pipeline from the config's absolute path,
through `report` or through `baseline`. After each rerun it checks the two
properties of a build system in *Build Systems à la Carte* (Mokhov,
Mitchell & Peyton Jones, ICFP 2018):

- correct: every artifact of the stages it ran through equals a fresh run's on the same inputs;
- minimal: the executed stages are exactly those the model below predicts.

Each stage's record in the manifest must list exactly the files the stage
wrote. The llm machine also checks what a rerun pays: its chat and
embedding calls equal the model's count.
"""

import json
import shutil
import tempfile
import threading
from pathlib import Path

import pytest
import yaml
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from conftest import CrashAfter, PureService, llm_config_payload, make_topic_examples, write_run_tree, write_yaml_config
from exsel.corpus import save_examples
from exsel.pipeline import STAGES, PipelineError, load_config, run_pipeline

# the stages a run through `report` or `baseline` runs, in order; baseline's key chains on pool ... pools alone
THROUGH = {"report": STAGES, "baseline": (*STAGES[:4], "baseline")}
# a change reruns now, through either, or waits for one more
RERUN = st.sampled_from([None, *THROUGH])


def _stage_of(relpath: str) -> str:
    """The stage that writes artifact `relpath` (README "Output layout")."""
    return {"reduce/projection.f64": "project", "reduce/assignment.tsv": "cluster"}.get(relpath, relpath.split("/")[0])


def _artifacts(run: Path) -> dict[str, bytes]:
    """The stage artifacts under `run`: every file but the manifest and the embedding cache, which is not one."""
    files = {str(p.relative_to(run)): p for p in sorted(run.rglob("*")) if p.is_file()}
    return {rel: p.read_bytes() for rel, p in files.items() if rel != "manifest.json" and not rel.startswith("cache/")}


def _of(*stages: str, files: dict[str, bytes]) -> dict[str, bytes]:
    return {rel: data for rel, data in files.items() if _stage_of(rel) in stages}


class RerunMachine(RuleBasedStateMachine):
    """The rules, checks and model both machines share.

    A machine names each changeable config field by its YAML place with the
    values it takes, the fixture's first (`FIELDS`), its changeable input
    files (`INPUTS`), and the stages that read each field and file
    (`READERS`). Its first run writes `tree` under `base`, then calls `start`.
    """

    FIELDS: dict[str, tuple]
    INPUTS: tuple[str, ...]
    READERS: dict[str, set[str]]
    # a fresh run's artifacts and chat calls per stage, by its config and input contents, which is all it reads,
    # so examples share them
    fresh_runs: dict[tuple, tuple[dict[str, bytes], dict[str, int]]]

    def start(self, contents: dict[str, tuple[bytes, bytes]]) -> None:
        """Run through report; `contents` holds the two contents each input file takes, the first the one it has."""
        self.contents = contents
        self.payload = yaml.safe_load((self.tree / "config.yaml").read_text(encoding="utf-8"))
        self.values = {**{name: values[0] for name, values in self.FIELDS.items()}, **dict.fromkeys(self.INPUTS, 0)}
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

    @rule(data=st.data(), index=st.integers(0, 1), rerun=RERUN)
    def change_field(self, data, index, rerun):
        name = data.draw(st.sampled_from(sorted(self.FIELDS)))
        self.values[name] = self.FIELDS[name][index]
        section, _, key = name.rpartition(".")
        (self.payload.setdefault(section, {}) if section else self.payload)[key] = self.values[name]
        (self.tree / "config.yaml").write_text(yaml.safe_dump(self.payload), encoding="utf-8")
        self.changed(rerun)

    @rule(data=st.data(), index=st.integers(0, 1), rerun=RERUN)
    def rewrite_input(self, data, index, rerun):
        """Write one of two contents over an input file, the one it holds or the other."""
        name = data.draw(st.sampled_from(self.INPUTS))
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

    @rule(through=st.sampled_from(sorted(THROUGH)))
    def run_through(self, through):
        """Rerun with no change of its own, as `exsel baseline` after `exsel run-all` or the reverse."""
        self.rerun_and_check(through)

    def run(self, tree: Path, through: str):
        """Run the config in `tree` through stage `through`: the run's state, and its transport when it has one."""
        return run_pipeline(load_config(tree / "config.yaml"), through=through), None

    def rerun_and_check(self, through: str):
        """Rerun and check it; the stages it executed and its transport."""
        stages = THROUGH[through]
        fresh = _of(*stages, files=self.fresh_run()[0])
        run = self.tree / "run"
        predicted = self.predict(stages, _artifacts(run), fresh)
        state, transport = self.run(self.tree, through)
        self.last, self.pending = _artifacts(run), 0
        got = _of(*stages, files=self.last)
        assert sorted(got) == sorted(fresh)
        assert [rel for rel in fresh if got[rel] != fresh[rel]] == []
        assert state.executed == predicted
        records = json.loads((run / "manifest.json").read_text(encoding="utf-8"))["stages"]
        assert {stage: sorted(records[stage]["artifacts"]) for stage in stages} == {
            stage: sorted(_of(stage, files=self.last)) for stage in stages
        }
        self.record |= dict.fromkeys(stages, (dict(self.values), self.last))
        return predicted, transport

    def predict(self, stages: tuple[str, ...], on_disk: dict[str, bytes], fresh: dict[str, bytes]) -> list[str]:
        """A stage runs when it never ran, when what it reads changed since it last ran, when its artifacts differ
        from that run's, or when those of a stage before it in `stages`, which its key chains on, did."""
        executed = []
        for index, stage in enumerate(stages):
            values, files = self.record.get(stage, ({}, None))
            changed = [name for name, value in values.items() if value != self.values[name]]
            if (
                files is None
                or stage in set().union(*(self.READERS[name] for name in changed))
                or _of(stage, files=on_disk) != _of(stage, files=files)
                or _of(*stages[:index], files=fresh) != _of(*stages[:index], files=files)
            ):
                executed.append(stage)
        return executed

    def fresh_run(self) -> tuple[dict[str, bytes], dict[str, int]]:
        """The artifacts that runs through `report` and `baseline` in an empty directory write from the tree's config
        and input files, and the chat calls each stage made there."""
        key = (yaml.safe_dump(self.payload), *((self.tree / name).read_bytes() for name in self.INPUTS))
        if key not in self.fresh_runs:
            tree = Path(tempfile.mkdtemp(dir=self.base))
            for name in ("config.yaml", *self.INPUTS):
                shutil.copyfile(self.tree / name, tree / name)
            chats = {}
            for stage in (*STAGES, "baseline"):  # one at a time, so each run pays for its last stage alone
                _, transport = self.run(tree, stage)
                chats[stage] = transport.chats if transport else 0
            self.fresh_runs[key] = (_artifacts(tree / "run"), chats)
        return self.fresh_runs[key]


class SkipRuleMachine(RerunMachine):
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
    fresh_runs = {}

    @initialize()
    def first_run(self):
        self.base = Path(tempfile.mkdtemp(prefix="skip-model-"))
        self.tree = self.base / "tree"
        pool = self.base / "source.jsonl"
        save_examples(make_topic_examples(12, 30, seed=7), pool)
        write_run_tree(self.tree, pool)
        lines = {name: (self.tree / name).read_bytes().splitlines(keepends=True) for name in self.INPUTS}
        self.start({name: (b"".join(lines[name]), b"".join(lines[name][:-1])) for name in self.INPUTS})

    @rule(name=st.sampled_from(["embeddings.f64", "embeddings.jsonl"]), at=st.floats(0, 1), rerun=RERUN)
    def cut_embedding_store(self, name, at, rerun):
        """Cut the row file or the index at a drawn byte, as a crash inside a put would; no stage reads the store."""
        path = self.tree / "run" / "cache" / name
        data = path.read_bytes()
        path.write_bytes(data[: int(at * len(data))])
        self.changed(rerun)


class Calls:
    """Passes every call on to `inner`, counting the chat calls and noting how many texts each embedding call asks."""

    def __init__(self, inner):
        self.inner, self.chats, self.embeds = inner, 0, []
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.chats += 1
        return self.inner.complete(request)

    def embed(self, model, texts):
        self.embeds.append(len(texts))
        return self.inner.embed(model, texts)


class LlmSkipMachine(RerunMachine):
    """The same model over the tiny llm run against `PureService`, which also prices each rerun: a stage that runs
    repeats every chat call it made in a fresh run, and project embeds only the candidate texts not in the tree's
    embedding cache, in one call."""

    FIELDS = {
        "client.chat_model": ("mock-chat", "mock-chat-2"),
        "ga.mu": (6, 7),
        "generation.base_temperature": (0.7, 0.9),
        "client.max_in_flight": (4, 1),
    }
    INPUTS = ("corpus.txt", "instruction.txt")
    READERS = {
        "client.chat_model": {"pool", "select", "report", "baseline"},
        "ga.mu": {"select"},
        "generation.base_temperature": {"pool"},
        "client.max_in_flight": set(),
        "corpus.txt": {"pool"},
        "instruction.txt": {"select", "report", "baseline"},
    }
    TEMPLATES = (b"Pull out {labels} as JSON.\n", b"Name each {labels} in the text, as a JSON object.\n")
    fresh_runs = {}

    @initialize()
    def first_run(self):
        self.base = Path(tempfile.mkdtemp(prefix="skip-model-llm-"))
        self.tree = self.base / "tree"
        self.tree.mkdir()
        payload = llm_config_payload(self.tree)
        payload["output_dir"], payload["corpus"]["documents"] = "run", ["corpus.txt"]
        payload["evaluation"] = {"instruction_template_path": "instruction.txt"}
        (self.tree / "instruction.txt").write_bytes(self.TEMPLATES[0])
        write_yaml_config(self.tree / "config.yaml", payload)
        document = (self.tree / "corpus.txt").read_bytes()
        self.embedded: set[str] = set()  # the texts in the tree's embedding cache
        self.crash_share: float | None = None
        self.start({"corpus.txt": (document, document[: len(document) // 2]), "instruction.txt": self.TEMPLATES})

    def run(self, tree: Path, through: str):
        transport = Calls(PureService())
        return run_pipeline(load_config(tree / "config.yaml"), through=through, transport=transport), transport

    def rerun_and_check(self, through: str):
        if self.crash_share is not None:
            self.crash(through)
        executed, transport = super().rerun_and_check(through)
        assert (transport.chats, transport.embeds) == self.paid(executed)
        self.embedded |= self.candidate_texts()
        return executed, transport

    def candidate_texts(self) -> set[str]:
        files, _ = self.fresh_run()
        return {json.loads(line)["text"] for line in files["pool/candidates.jsonl"].splitlines()}

    def paid(self, stages: list[str]) -> tuple[int, list[int]]:
        """The model's price of running `stages`: their chat calls, and the size of each embedding call."""
        _, chats = self.fresh_run()
        missing = self.candidate_texts() - self.embedded if "project" in stages else set()
        return sum(chats[stage] for stage in stages), [len(missing)] if missing else []

    @rule(share=st.floats(0, 1, exclude_max=True), rerun=RERUN)
    def crash_next_run(self, share, rerun):
        """Crash the next rerun that makes a call after a drawn share of the calls the model says it makes."""
        self.crash_share = share
        self.changed(rerun)

    def crash(self, through: str) -> None:
        """Run through `through` with the crash armed, if the model says the run makes a call, and record the stages
        that finished before it."""
        stages = THROUGH[through]
        run = self.tree / "run"
        calls = {}
        for stage in self.predict(stages, _artifacts(run), _of(*stages, files=self.fresh_run()[0])):
            chats, embeds = self.paid([stage])
            calls[stage] = chats + len(embeds)
        if not sum(calls.values()):
            return
        crash_at, self.crash_share = int(self.crash_share * sum(calls.values())), None
        crashing = CrashAfter(PureService(), crash_at)
        with pytest.raises(PipelineError, match=f"crashed after {crash_at} calls"):
            run_pipeline(load_config(self.tree / "config.yaml"), through=through, transport=crashing)
        # every stage before the one that crashed ran, or was found up to date, and is on record
        finished, spent = [], 0
        for stage in stages:
            spent += calls.get(stage, 0)
            if spent > crash_at:
                break
            finished.append(stage)
        self.last = _artifacts(run)
        self.record |= dict.fromkeys(finished, (dict(self.values), self.last))
        if "project" in finished:
            self.embedded |= self.candidate_texts()


SkipRuleMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=10, deadline=None, derandomize=True)
test_skip_rule_is_correct_and_minimal = SkipRuleMachine.TestCase
LlmSkipMachine.TestCase.settings = settings(max_examples=20, stateful_step_count=10, deadline=None, derandomize=True)
test_llm_skip_rule_is_correct_minimal_and_pays_the_model = LlmSkipMachine.TestCase
