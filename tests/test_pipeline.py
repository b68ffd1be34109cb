"""Config parsing, manifest resumption, and the runner over surrogate and mocked llm paths."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import TOPIC_VOCAB, surrogate_config_payload, write_yaml_config
from exsel.corpus import load_examples
from exsel.evolve import RunTrace, TraceRecord
from exsel.llm.mock import HashingEmbeddingTransport, MockTransport
from exsel.pipeline import (
    STAGES,
    ConfigError,
    PipelineError,
    RunManifest,
    load_config,
    run_baselines,
    run_pipeline,
)
from exsel.pipeline.manifest import file_sha256
from exsel.pipeline.runner import _write_matrix
from exsel.plotting import read_trace
from exsel.reduce.projection import load_precomputed


def write_config(tmp_path, pool_path, name="config.yaml", **overrides):
    payload = surrogate_config_payload(pool_path, tmp_path / "run", **overrides)
    return write_yaml_config(tmp_path / name, payload)


class TestConfig:
    def test_small_config_loads(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        assert cfg.fitness_mode == "surrogate"
        assert cfg.pool_sizes == (40, 120)
        assert cfg.ga.mu == 12

    def test_yaml_lambda_key_maps_to_offspring_count(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        assert cfg.ga.lambda_ == 24

    def test_env_interpolation(self, tmp_path, small_pool_path, monkeypatch):
        monkeypatch.setenv("EXSEL_TEST_OUT", str(tmp_path / "elsewhere"))
        path = write_config(tmp_path, small_pool_path, output_dir="${EXSEL_TEST_OUT}/run")
        cfg = load_config(path)
        assert cfg.output_dir == str(tmp_path / "elsewhere" / "run")

    def test_missing_env_var_rejected(self, tmp_path, small_pool_path, monkeypatch):
        monkeypatch.delenv("EXSEL_NOPE", raising=False)
        path = write_config(tmp_path, small_pool_path, output_dir="${EXSEL_NOPE}/run")
        with pytest.raises(ConfigError, match="EXSEL_NOPE"):
            load_config(path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, small_pool_path):
        (tmp_path / "data").mkdir()
        local_pool = tmp_path / "data" / "pool.jsonl"
        local_pool.write_bytes(small_pool_path.read_bytes())
        payload = surrogate_config_payload("data/pool.jsonl", "run")
        path = write_yaml_config(tmp_path / "config.yaml", payload)
        cfg = load_config(path)
        assert cfg.corpus.pool_path == str(local_pool)
        assert cfg.output_dir == str(tmp_path / "run")

    def test_unknown_section_rejected(self, tmp_path, small_pool_path):
        path = write_config(tmp_path, small_pool_path, typo_section={"a": 1})
        with pytest.raises(ConfigError, match="typo_section"):
            load_config(path)

    def test_missing_output_dir_rejected(self, tmp_path, small_pool_path):
        payload = surrogate_config_payload(small_pool_path, tmp_path / "run")
        del payload["output_dir"]
        path = write_yaml_config(tmp_path / "config.yaml", payload)
        with pytest.raises(ConfigError, match="output_dir"):
            load_config(path)

    def test_bad_yaml_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("corpus: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_bad_fitness_mode_rejected(self, tmp_path, small_pool_path):
        path = write_config(tmp_path, small_pool_path, fitness_mode="psychic")
        with pytest.raises(ConfigError, match="fitness_mode"):
            load_config(path)

    def test_surrogate_mode_requires_pool_file(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("plain corpus text " * 40, encoding="utf-8")
        payload = surrogate_config_payload(tmp_path / "absent.jsonl", tmp_path / "run")
        payload["corpus"] = {"documents": [str(doc)], "n_validation": 4}
        path = write_yaml_config(tmp_path / "config.yaml", payload)
        with pytest.raises(ConfigError, match="pool_path"):
            load_config(path)

    def test_llm_mode_requires_chat_model(self, tmp_path, small_pool_path):
        path = write_config(tmp_path, small_pool_path, fitness_mode="llm")
        with pytest.raises(ConfigError, match="chat_model"):
            load_config(path)

    def test_referenced_path_must_exist(self, tmp_path):
        path = write_config(tmp_path, tmp_path / "ghost.jsonl")
        with pytest.raises(ConfigError, match="ghost.jsonl"):
            load_config(path)

    def test_duplicate_pool_sizes_rejected(self, tmp_path, small_pool_path):
        path = write_config(tmp_path, small_pool_path, pool_sizes=[40, 40])
        with pytest.raises(ConfigError, match="duplicates"):
            load_config(path)

    def test_hash_ignores_output_dir_but_not_seed(self, tmp_path, small_pool_path):
        base = load_config(write_config(tmp_path, small_pool_path))
        moved = dataclasses.replace(base, output_dir=str(tmp_path / "other"))
        reseeded = dataclasses.replace(base, seed=8)
        assert base.config_hash() == moved.config_hash()
        assert base.config_hash() != reseeded.config_hash()

    def test_override_revalidates(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        with pytest.raises(ConfigError, match="chat_model"):
            dataclasses.replace(cfg, fitness_mode="llm")

    def test_llm_mode_requires_embedding_model(self, tmp_path, small_pool_path):
        path = write_config(tmp_path, small_pool_path, fitness_mode="llm", client={"chat_model": "c"})
        with pytest.raises(ConfigError, match="embedding_model"):
            load_config(path)

    def test_llm_mode_with_imported_projection_needs_no_embedding_model(self, tmp_path, small_pool_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("0.0 1.0\n", encoding="utf-8")
        projection = {"method": "precomputed-import", "precomputed_path": str(vectors), "target_dimension": 2}
        path = write_config(
            tmp_path, small_pool_path, fitness_mode="llm", client={"chat_model": "c"}, projection=projection
        )
        assert load_config(path).embedding_model == ""

    def test_env_strings_become_ints_with_the_same_hash(self, tmp_path, small_pool_path, monkeypatch):
        monkeypatch.setenv("EXSEL_TEST_SEED", "7")
        monkeypatch.setenv("EXSEL_TEST_TOKENS", "64")
        literal = load_config(write_config(tmp_path, small_pool_path, evaluation={"max_output_tokens": 64}))
        from_env = load_config(
            write_config(
                tmp_path, small_pool_path, name="env.yaml",
                seed="${EXSEL_TEST_SEED}", evaluation={"max_output_tokens": "${EXSEL_TEST_TOKENS}"},
            )
        )
        assert (from_env.seed, from_env.max_eval_output_tokens) == (7, 64)
        assert from_env.config_hash() == literal.config_hash()


@pytest.mark.parametrize(
    "section, bad",
    [
        ("corpus", {"n_validation": -1}),
        ("generation", {"n_total": 0, "labels": ["term"]}),
        ("projection", {"target_dimension": 1}),
        ("clustering", {"min_cluster_size": 1}),
        ("ga", {"mu": 0}),
        ("client", {"max_in_flight": 0}),
        ("evaluation", {"max_output_tokens": 0}),
    ],
)
@pytest.mark.parametrize("kind", ["bad-value", "unknown-field"])
def test_config_error_names_its_section(tmp_path, small_pool_path, section, bad, kind):
    fields = bad if kind == "bad-value" else {"no_such_field": 1}
    path = write_config(tmp_path, small_pool_path, **{section: fields})
    with pytest.raises(ConfigError, match=rf"^{section}\b"):
        load_config(path)


class TestManifest:
    def test_skip_requires_completion_and_matching_hashes(self, tmp_path):
        artifact = tmp_path / "a.txt"
        artifact.write_text("payload", encoding="utf-8")
        manifest = RunManifest.load_or_create(tmp_path, "h1")
        assert not manifest.can_skip("pool")
        manifest.record_stage("pool", [artifact], seconds=0.5)
        manifest.save()
        assert manifest.can_skip("pool")
        artifact.write_text("tampered", encoding="utf-8")
        assert not manifest.can_skip("pool")

    def test_reload_honors_config_hash(self, tmp_path):
        artifact = tmp_path / "a.txt"
        artifact.write_text("payload", encoding="utf-8")
        manifest = RunManifest.load_or_create(tmp_path, "h1")
        manifest.record_stage("pool", [artifact], seconds=0.5)
        manifest.save()
        again = RunManifest.load_or_create(tmp_path, "h1")
        assert again.can_skip("pool")
        assert again.stages["pool"].seconds == 0.5
        changed = RunManifest.load_or_create(tmp_path, "h2")
        assert changed.stages == {}

    def test_save_leaves_unchanged_file_alone(self, tmp_path):
        manifest = RunManifest.load_or_create(tmp_path, "h1")
        manifest.save()
        before = manifest.path.stat().st_mtime_ns
        manifest.save()
        assert manifest.path.stat().st_mtime_ns == before


class TestSurrogateRuns:
    def test_run_all_writes_every_artifact(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        state = run_pipeline(cfg)
        root = Path(cfg.output_dir)
        for relpath in [
            "pool/candidates.jsonl",
            "pool/validation.jsonl",
            "reduce/projection.tsv",
            "reduce/assignment.tsv",
            "pools/pool_k40.json",
            "pools/pool_k120.json",
            "select/trace_k40.tsv",
            "select/trace_k120.tsv",
            "select/best_genome_k40.json",
            "select/best_genome_k120.json",
            "select/prompt_k40.txt",
            "select/prompt_k120.txt",
            "report/metrics_k40.json",
            "report/metrics_k120.json",
            "manifest.json",
        ]:
            assert (root / relpath).exists(), relpath
        assert state.executed == list(STAGES)
        assert sorted(state.best_fitness) == [40, 120]
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        assert all(manifest["stages"][stage]["completed"] for stage in STAGES)

    def test_pool_artifacts_are_consistent(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(cfg, through="pools")
        root = Path(cfg.output_dir)
        candidates = load_examples(root / "pool" / "candidates.jsonl")
        validation = load_examples(root / "pool" / "validation.jsonl")
        assert len(validation) == 24
        assert len(candidates) + len(validation) == 360
        assignment_rows = (root / "reduce" / "assignment.tsv").read_text().splitlines()[1:]
        assert len(assignment_rows) == len(candidates)
        payload = json.loads((root / "pools" / "pool_k40.json").read_text())
        ids = [entry["id"] for entry in payload["selected"]]
        assert len(ids) == 40
        assert len(set(ids)) == 40

    def test_rerun_skips_every_stage(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(cfg)
        root = Path(cfg.output_dir)
        watched = [
            root / "manifest.json",
            root / "pool" / "candidates.jsonl",
            root / "select" / "trace_k120.tsv",
        ]
        before = [p.stat().st_mtime_ns for p in watched]
        state = run_pipeline(cfg)
        assert state.executed == []
        assert state.skipped == list(STAGES)
        assert [p.stat().st_mtime_ns for p in watched] == before
        assert sorted(state.best_fitness) == [40, 120]

    def test_tampered_artifact_reruns_only_that_stage(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(cfg)
        root = Path(cfg.output_dir)
        target = root / "reduce" / "assignment.tsv"
        original = target.read_bytes()
        target.write_bytes(original + b"tamper\t0\n")
        state = run_pipeline(cfg)
        # clustering is deterministic, so downstream artifacts still hash-match
        assert state.executed == ["cluster"]
        assert target.read_bytes() == original

    def test_force_reruns_everything(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(cfg)
        state = run_pipeline(cfg, force=True)
        assert state.executed == list(STAGES)

    def test_through_stops_early(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        state = run_pipeline(cfg, through="cluster")
        assert state.executed == ["pool", "project", "cluster"]
        root = Path(cfg.output_dir)
        assert not (root / "pools").exists()
        resumed = run_pipeline(cfg)
        assert resumed.skipped == ["pool", "project", "cluster"]
        assert resumed.executed == ["pools", "select", "report"]

    def test_same_seed_same_bytes_different_dirs(self, tmp_path, small_pool_path):
        cfg_a = load_config(write_config(tmp_path, small_pool_path, name="a.yaml", output_dir=str(tmp_path / "run_a")))
        cfg_b = load_config(write_config(tmp_path, small_pool_path, name="b.yaml", output_dir=str(tmp_path / "run_b")))
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        for relpath in ["select/trace_k40.tsv", "select/best_genome_k120.json", "reduce/projection.tsv"]:
            a = (tmp_path / "run_a" / relpath).read_bytes()
            b = (tmp_path / "run_b" / relpath).read_bytes()
            assert a == b, relpath

    def test_different_seed_changes_selection(self, tmp_path, small_pool_path):
        cfg_a = load_config(write_config(tmp_path, small_pool_path, name="a.yaml", output_dir=str(tmp_path / "run_a")))
        cfg_b = load_config(write_config(tmp_path, small_pool_path, name="b.yaml", output_dir=str(tmp_path / "run_b"), seed=11))
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        a = (tmp_path / "run_a" / "select" / "best_genome_k120.json").read_bytes()
        b = (tmp_path / "run_b" / "select" / "best_genome_k120.json").read_bytes()
        assert a != b

    def test_trace_best_fitness_never_decreases(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        state = run_pipeline(cfg)
        for trace in state.traces.values():
            best = [record.best_fitness for record in trace.records]
            assert all(b >= a for a, b in zip(best, best[1:]))

    def test_stage_failure_wraps_and_names_stage(self, tmp_path, small_pool_path):
        # 64 output dimensions cannot come out of 32-dimensional embeddings
        path = write_config(tmp_path, small_pool_path, projection={"target_dimension": 64})
        cfg = load_config(path)
        with pytest.raises(PipelineError, match="project"):
            run_pipeline(cfg)
        manifest = json.loads((Path(cfg.output_dir) / "manifest.json").read_text())
        assert manifest["stages"]["pool"]["completed"]
        assert "project" not in manifest["stages"]

    def test_baselines_written_and_deterministic(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        payload = run_baselines(cfg)
        again = run_baselines(cfg)
        assert payload == again
        assert sorted(payload["random"]) == ["120", "40"]
        for summary in payload["random"].values():
            assert len(summary["fitnesses"]) == 3
            assert summary["std"] >= 0.0
        on_disk = json.loads((Path(cfg.output_dir) / "baseline" / "baselines.json").read_text())
        assert on_disk == payload


def test_trace_and_projection_artifacts_round_trip(tmp_path):
    records = (
        TraceRecord(0, 0.1 + 0.2, 0.7, 1.0, 0.05 + 0.65 * 1.0, 10),
        TraceRecord(1, 1 / 3, 0.7000000000000001, 0.4, 5e-324, 7),
    )
    RunTrace(records).write_tsv(tmp_path / "trace.tsv")
    columns = read_trace(tmp_path / "trace.tsv")
    assert list(columns) == [field.name for field in dataclasses.fields(TraceRecord)]
    assert [tuple(row) for row in zip(*columns.values())] == [dataclasses.astuple(r) for r in records]

    matrix = np.array([[-0.0, 5e-324, 0.1 + 0.2], [1e308, -1.5, 2 / 3]])
    _write_matrix(tmp_path / "projection.tsv", matrix)
    loaded = load_precomputed(tmp_path / "projection.tsv")
    assert loaded.shape == matrix.shape
    assert loaded.tobytes() == matrix.tobytes()


class EchoService:
    """Scripted chat: generation prompts get fresh topical records, extraction echoes gold."""

    def __init__(self, per_batch: int = 10):
        self.per_batch = per_batch
        self.gold: dict[str, dict] = {}
        self.batch = 0
        self.uid = 0

    def __call__(self, request) -> str:
        prompt = request.user_prompt
        if prompt.endswith("Entities:"):
            tail = prompt.rsplit("Text: ", 1)[1]
            text = tail[: -len("\nEntities:")]
            return json.dumps(self.gold.get(text, {}))
        negative = "NO extractable" in prompt
        vocab = TOPIC_VOCAB[self.batch % 6]
        self.batch += 1
        records = []
        for i in range(self.per_batch):
            words = [vocab[(i + j) % len(vocab)] for j in range(10)]
            text = " ".join(words) + f" gen {self.uid:04d}"
            self.uid += 1
            entities = {} if negative else {"term": [words[0]]}
            self.gold[text] = entities
            records.append({"text": text, "entities": entities})
        return json.dumps(records)


@pytest.fixture
def llm_config_path(tmp_path):
    doc = tmp_path / "corpus.txt"
    doc.write_text("ledger audit invoice accrual dividend equity " * 60, encoding="utf-8")
    payload = {
        "seed": 5,
        "output_dir": str(tmp_path / "run"),
        "fitness_mode": "llm",
        "corpus": {"documents": [str(doc)], "n_validation": 12, "chunk_size": 120, "n_chunks": 6},
        "generation": {"n_total": 60, "batch_size": 10, "labels": ["term"], "positive_fraction": 0.5},
        "projection": {"target_dimension": 8},
        "clustering": {"min_cluster_size": 4, "min_samples": 1, "cluster_selection_epsilon": 0.4},
        "pool_sizes": [16],
        "ga": {
            "mu": 6,
            "lambda": 8,
            "max_generations": 3,
            "genome_length": 3,
            "tournament_size": 2,
            "warmup": 1,
            "patience": 1,
        },
        "client": {"chat_model": "mock-chat", "embedding_model": "mock-embed"},
    }
    return write_yaml_config(tmp_path / "config.yaml", payload)


class TestLlmModeWithMockTransport:
    def make_transport(self):
        hasher = HashingEmbeddingTransport(dimension=32)
        echo = EchoService()
        return MockTransport(chat_fn=echo, embed_fn=lambda text: hasher.embed("m", [text])[0])

    def test_generate_select_report_end_to_end(self, llm_config_path):
        cfg = load_config(llm_config_path)
        state = run_pipeline(cfg, transport=self.make_transport())
        root = Path(cfg.output_dir)
        report = json.loads((root / "pool" / "generation_report.json").read_text())
        assert report["parsed_ok"] == 60
        assert report["failed_batches"] == 0
        # echoing gold back makes every genome perfect
        assert state.best_fitness[16] == 1.0
        metrics = json.loads((root / "report" / "metrics_k16.json").read_text())
        assert metrics["mode"] == "llm"
        assert metrics["evaluated_on"] == "validation"
        assert metrics["metrics"]["micro_f1"] == 1.0
        assert metrics["n_unparseable"] == 0

    def test_evaluation_section_reaches_every_extraction_request(self, llm_config_path):
        (llm_config_path.parent / "instruction.txt").write_text("Pull out {labels} as JSON.\n", encoding="utf-8")
        payload = yaml.safe_load(llm_config_path.read_text(encoding="utf-8"))
        payload["evaluation"] = {"instruction_template_path": "instruction.txt", "max_output_tokens": 77}
        cfg = load_config(write_yaml_config(llm_config_path, payload))
        transport = self.make_transport()
        marks = []
        for through in ("pool", "select", "report"):
            run_pipeline(cfg, through=through, transport=transport)
            marks.append(len(transport.chat_requests))
        run_baselines(cfg, transport=transport)
        marks.append(len(transport.chat_requests))
        requests = transport.chat_requests
        phases = {
            "ga fitness": requests[marks[0] : marks[1]],
            "report": requests[marks[1] : marks[2]],
            "baselines": requests[marks[2] : marks[3]],
        }
        for phase, issued in phases.items():
            assert issued, phase
            for request in issued:
                assert request.user_prompt.endswith("Entities:"), phase
                assert request.system_prompt == "Pull out term as JSON.\n", phase
                assert request.max_output_tokens == 77, phase
        zero_shot = [r for r in phases["baselines"] if r.user_prompt.count("Text: ") == 1]
        assert len(zero_shot) == cfg.corpus.n_validation

    def test_zeroshot_baseline_with_echo_is_perfect(self, llm_config_path):
        cfg = load_config(llm_config_path)
        transport = self.make_transport()
        run_pipeline(cfg, through="pools", transport=transport)
        payload = run_baselines(cfg, transport=transport)
        assert payload["zeroshot"]["fitness"] == 1.0
        assert len(payload["random"]["16"]["fitnesses"]) == 3
