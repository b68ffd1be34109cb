"""Config parsing, manifest resumption, and the runner over surrogate and mocked llm paths."""

import dataclasses
import hashlib
import json
import re
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import TOPIC_VOCAB, EchoService, surrogate_config_payload, write_yaml_config
from exsel.corpus import load_examples
from exsel.evolve import RunTrace, TraceRecord
from exsel.generate import GenerationConfig
from exsel.llm.mock import HashingEmbeddingTransport
from exsel.pipeline import (
    STAGES,
    ConfigError,
    PipelineConfig,
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
from mock_transport import MockTransport


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

    def test_pool_size_below_genome_length_rejected(self, tmp_path, small_pool_path):
        path = write_config(tmp_path, small_pool_path, pool_sizes=[40, 3])
        with pytest.raises(ConfigError, match=r"^pool_sizes \[3\].*genome_length 5"):
            load_config(path)

    def test_hash_ignores_output_dir_but_not_seed(self, tmp_path, small_pool_path):
        base = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(base)
        shutil.copytree(base.output_dir, tmp_path / "other")
        moved = run_pipeline(dataclasses.replace(base, output_dir=str(tmp_path / "other")))
        assert moved.skipped == list(STAGES)
        reseeded = run_pipeline(dataclasses.replace(base, seed=8))
        assert reseeded.executed == list(STAGES)

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
        assert (from_env.seed, from_env.evaluation.max_output_tokens) == (7, 64)
        assert from_env == literal

    def test_env_string_reaches_an_integer_field_of_a_section(self, tmp_path, small_pool_path, monkeypatch):
        monkeypatch.setenv("EXSEL_TEST_MU", "12")
        from_env = load_config(write_config(tmp_path, small_pool_path, ga={"mu": "${EXSEL_TEST_MU}"}))
        assert from_env == load_config(write_config(tmp_path, small_pool_path, name="literal.yaml"))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"ga": {"mu": 2.5}}, "ga.mu"),
            ({"ga": {"mu": True}}, "ga.mu"),
            ({"seed": 7.9}, "config.seed"),
            ({"baseline_draws": 2.5}, "config.baseline_draws"),
            ({"pool_sizes": [40.5, 120]}, "config.pool_sizes"),
            ({"pool_sizes": 40}, "config.pool_sizes"),
            ({"clustering": {"min_cluster_size": 9.5}}, "clustering.min_cluster_size"),
            ({"projection": {"target_dimension": "20.5"}}, "projection.target_dimension"),
        ],
    )
    def test_integer_field_takes_no_other_number(self, tmp_path, small_pool_path, overrides, field):
        # int() would truncate 7.9 to 7, and a float reaching the GA crashed the run only in select
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be"):
            load_config(write_config(tmp_path, small_pool_path, **overrides))


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
        ("evaluation", {"instruction_template_path": "missing.txt"}),
        ("generation", {"n_total": 10, "labels": ["term"], "positive_template_path": "missing.txt"}),
        ("generation", {"n_total": 10, "labels": ["term"], "negative_template_path": "missing.txt"}),
        ("generation", {"n_total": 10, "labels": ["term"], "positive_prompt_template": "MINE {labels}"}),
        ("generation", {"n_total": 10, "labels": ["term"], "negative_prompt_template": "MINE {labels}"}),
        ("generation", {"n_total": 10, "labels": ["term"], "max_output_tokens": 0}),
        ("generation", {"n_total": 10, "labels": ["term"], "base_temperature": 1.9, "temperature_jitter": 0.2}),
        ("client", {"backoff_base_s": -0.5}),
        ("client", {"backoff_cap_s": -1}),
        ("ga", 5),
        ("ga", {"seed": 12345}),
        ("ga", {"min_relative_improvement": float("nan")}),
        ("client", {"timeout_s": float("nan")}),
        ("client", {"backoff_base_s": float("nan")}),
        ("client", {"backoff_cap_s": float("nan")}),
    ],
)
@pytest.mark.parametrize("kind", ["bad-value", "unknown-field"])
def test_config_error_names_its_section(tmp_path, small_pool_path, section, bad, kind):
    fields = bad if kind == "bad-value" else {"no_such_field": 1}
    path = write_config(tmp_path, small_pool_path, **{section: fields})
    with pytest.raises(ConfigError, match=rf"^{section}\b"):
        load_config(path)


@pytest.mark.parametrize("section", ["corpus", "generation", "projection", "clustering", "ga", "client", "evaluation"])
def test_null_section_loads_as_if_absent(tmp_path, small_pool_path, section):
    absent = surrogate_config_payload(small_pool_path, tmp_path / "run")
    absent.pop(section, None)
    paths = [
        write_yaml_config(tmp_path / "absent.yaml", absent),
        write_yaml_config(tmp_path / "null.yaml", {**absent, section: None}),
    ]
    if section == "corpus":  # surrogate mode needs corpus.pool_path, so both fail alike
        for path in paths:
            with pytest.raises(ConfigError, match="^corpus needs"):
                load_config(path)
    else:
        assert load_config(paths[1]) == load_config(paths[0])


class TestManifest:
    def test_skip_requires_completion_and_matching_hashes(self, tmp_path):
        artifact = tmp_path / "a.txt"
        artifact.write_text("payload", encoding="utf-8")
        manifest = RunManifest.load(tmp_path)
        assert not manifest.can_skip("pool", "k1")
        manifest.record_stage("pool", "k1", [artifact], seconds=0.5)
        manifest.save()
        assert manifest.can_skip("pool", "k1")
        assert not manifest.can_skip("pool", "k2")
        artifact.write_text("tampered", encoding="utf-8")
        assert not manifest.can_skip("pool", "k1")

    def test_reload_honors_config_hash(self, tmp_path):
        artifact = tmp_path / "a.txt"
        artifact.write_text("payload", encoding="utf-8")
        manifest = RunManifest.load(tmp_path)
        manifest.record_stage("pool", "k1", [artifact], seconds=0.5)
        manifest.save()
        again = RunManifest.load(tmp_path)
        assert again.can_skip("pool", "k1")
        assert again.stages["pool"]["seconds"] == 0.5
        assert not again.can_skip("pool", "k2")

    def test_save_leaves_unchanged_file_alone(self, tmp_path):
        manifest = RunManifest.load(tmp_path)
        manifest.save()
        before = manifest.path.stat().st_mtime_ns
        manifest.save()
        assert manifest.path.stat().st_mtime_ns == before

    def test_crash_inside_save_keeps_the_previous_manifest(self, tmp_path, small_pool_path, monkeypatch):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(cfg)
        manifest = RunManifest.load(Path(cfg.output_dir))
        before = manifest.path.read_bytes()

        def cut_short(path, data, encoding=None):
            with open(path, "w", encoding=encoding) as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        manifest.stages["report"]["seconds"] += 1.0
        with monkeypatch.context() as patched:
            patched.setattr(Path, "write_text", cut_short)
            with pytest.raises(OSError, match="disk full"):
                manifest.save()
        assert manifest.path.read_bytes() == before
        assert run_pipeline(cfg).skipped == list(STAGES)


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
        assert all(len(manifest["stages"][stage]["key"]) == 64 for stage in STAGES)

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
        run_pipeline(cfg)
        traces = sorted((Path(cfg.output_dir) / "select").glob("trace_k*.tsv"))
        assert len(traces) == len(cfg.pool_sizes)
        for path in traces:
            best = read_trace(path)["best_fitness"]
            assert all(b >= a for a, b in zip(best, best[1:]))

    def test_stage_failure_wraps_and_names_stage(self, tmp_path, small_pool_path):
        # 64 output dimensions cannot come out of 32-dimensional embeddings
        path = write_config(tmp_path, small_pool_path, projection={"target_dimension": 64})
        cfg = load_config(path)
        with pytest.raises(PipelineError, match="project"):
            run_pipeline(cfg)
        manifest = json.loads((Path(cfg.output_dir) / "manifest.json").read_text())
        assert len(manifest["stages"]["pool"]["key"]) == 64
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


def test_projection_text_matches_per_scalar_repr(tmp_path):
    rng = np.random.default_rng(3)
    scaled = rng.standard_normal((40, 20)) * 10.0 ** rng.integers(-9, 7, size=(40, 20))
    matrix = np.vstack([scaled, [[-0.0, 5e-324, 1e16, 0.1, 1e-9, 1e6, 0.1 + 0.2, 1 / 3] * 2 + [0.0, -1e16, 2.5, 1e22]]])
    _write_matrix(tmp_path / "projection.tsv", matrix)
    expected = "".join("\t".join(repr(float(v)) for v in row) + "\n" for row in matrix)
    assert (tmp_path / "projection.tsv").read_text(encoding="utf-8") == expected


def test_embedding_cache_bytes_are_pinned(tmp_path, small_pool_path):
    # the hashing embedder sums exact integers and rounds once per division, and
    # the rows are little-endian, so these bytes are the same on every platform
    cfg = load_config(write_config(tmp_path, small_pool_path))
    run_pipeline(cfg, through="project")
    cache = Path(cfg.output_dir) / "cache"
    assert {name: file_sha256(cache / name) for name in ("embeddings.jsonl", "embeddings.f64")} == {
        "embeddings.jsonl": "8707ef8302b1324f918d5058aa42851cd43b7d768d4fae00ebad0800f2bd3996",
        "embeddings.f64": "f63fa087e9b749e3f448fcb52d85f573e0befb1a333a9452242f9e4f8ea8577e",
    }


def test_imported_projection_run_makes_no_embed_calls(tmp_path, small_pool_path):
    embedded = load_config(
        write_config(tmp_path, small_pool_path, name="embedded.yaml", output_dir=str(tmp_path / "embedded"))
    )
    run_pipeline(embedded, through="project")
    vectors = Path(embedded.output_dir) / "reduce" / "projection.tsv"
    projection = {"method": "precomputed-import", "precomputed_path": str(vectors), "target_dimension": 20}
    cfg = load_config(write_config(tmp_path, small_pool_path, projection=projection))
    transport = MockTransport()
    state = run_pipeline(cfg, transport=transport)
    assert state.executed == list(STAGES)
    assert (transport.embed_calls, transport.chat_calls) == (0, 0)
    imported = load_precomputed(vectors)
    written = load_precomputed(Path(cfg.output_dir) / "reduce" / "projection.tsv")
    assert written.shape == imported.shape
    assert written.tobytes() == imported.tobytes()


def hashing_transport(**hasher) -> MockTransport:
    """A caller transport that embeds with the built-in hasher and answers every chat with an empty label map."""
    embedder = HashingEmbeddingTransport(dimension=32, **hasher)
    return MockTransport(chat_fn=lambda request: "{}", embed_fn=lambda text: embedder.embed("m", [text])[0])


def _setting(dotted: str, value):
    """A change of one top-level config field, or of one field in a section."""
    section, _, name = dotted.partition(".")

    def change(cfg, tmp_path):
        new = dataclasses.replace(getattr(cfg, section), **{name: value}) if name else value
        return dataclasses.replace(cfg, **{section: new})

    return change


def _copied_run(cfg, tmp_path):
    shutil.copytree(cfg.output_dir, tmp_path / "copy")
    return dataclasses.replace(cfg, output_dir=str(tmp_path / "copy"))


def _pool_file_edited_in_place(cfg, tmp_path):
    path = Path(cfg.corpus.pool_path)
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]), encoding="utf-8")
    return cfg


def _llm_mode(cfg, tmp_path):
    return dataclasses.replace(cfg, fitness_mode="llm", chat_model="chat", embedding_model="embed")


# one row per top-level PipelineConfig field at least: sections are keyed whole
SKIP_MATRIX = [
    pytest.param("output_dir", _copied_run, [], id="output_dir"),
    pytest.param("seed", _setting("seed", 8), list(STAGES), id="seed"),
    # llm mode needs both models; chat_model is read by pool, embedding_model by project
    pytest.param("fitness_mode", _llm_mode, ["pool", "project", "select", "report"], id="fitness_mode"),
    pytest.param("corpus", _setting("corpus.n_validation", 30), list(STAGES), id="corpus.n_validation"),
    pytest.param("corpus", _pool_file_edited_in_place, list(STAGES), id="pool-file-edited-in-place"),
    # pool reruns, but the pool file's examples come out byte for byte the same
    pytest.param("generation", _setting("generation", GenerationConfig(n_total=10)), ["pool"], id="generation"),
    pytest.param("projection", _setting("projection.target_dimension", 16), list(STAGES[1:]), id="projection"),
    # the same labels come out, so nothing downstream reruns
    pytest.param("clustering", _setting("clustering.cluster_selection_epsilon", 0.181), ["cluster"], id="clustering"),
    pytest.param("pool_sizes", _setting("pool_sizes", (40, 100)), ["pools", "select", "report"], id="pool_sizes"),
    pytest.param("ga", _setting("ga.mu", 13), ["select", "report"], id="ga.mu"),
    pytest.param("transport", _setting("transport.max_in_flight", 1), [], id="client.max_in_flight"),
    pytest.param("chat_model", _setting("chat_model", "chat"), ["pool"], id="chat_model"),
    # the same caller transport answers to any model name with the same vectors
    pytest.param("embedding_model", _setting("embedding_model", "embed"), ["project"], id="embedding_model"),
    pytest.param(
        "embedding_cache",
        lambda cfg, tmp_path: dataclasses.replace(cfg, embedding_cache=str(tmp_path / "elsewhere.jsonl")),
        [],
        id="embedding_cache",
    ),
    pytest.param(
        "evaluation",
        _setting("evaluation.instruction_template", "Pull out {labels}."),
        [],
        id="evaluation.instruction_template",
    ),
    pytest.param("evaluation", _setting("evaluation.max_output_tokens", 64), [], id="evaluation.max_output_tokens"),
    pytest.param("baseline_draws", _setting("baseline_draws", 5), [], id="baseline_draws"),
]


@pytest.mark.parametrize("field_name, change, expected", SKIP_MATRIX)
def test_a_change_reruns_the_stages_that_read_it(tmp_path, small_pool_path, field_name, change, expected):
    pool_path = tmp_path / "pool.jsonl"
    shutil.copyfile(small_pool_path, pool_path)
    cfg = load_config(write_config(tmp_path, pool_path))
    run_pipeline(cfg, transport=hashing_transport())
    state = run_pipeline(change(cfg, tmp_path), transport=hashing_transport())
    assert state.executed == expected


def test_skip_matrix_has_a_row_for_every_config_field():
    rows = {row.values[0] for row in SKIP_MATRIX}
    assert {field.name for field in dataclasses.fields(PipelineConfig)} <= rows


def test_changed_upstream_output_reruns_every_later_stage(tmp_path, small_pool_path):
    cfg = load_config(write_config(tmp_path, small_pool_path))
    run_pipeline(cfg, transport=hashing_transport())
    root = Path(cfg.output_dir)
    (root / "reduce" / "projection.tsv").unlink()
    shutil.rmtree(root / "cache")
    state = run_pipeline(cfg, transport=hashing_transport(ngram=4))
    assert state.executed == list(STAGES[1:])
    fresh = dataclasses.replace(cfg, output_dir=str(tmp_path / "fresh"))
    run_pipeline(fresh, transport=hashing_transport(ngram=4))
    for relpath in ["reduce/assignment.tsv", "select/best_genome_k40.json", "report/metrics_k120.json"]:
        assert (root / relpath).read_bytes() == (tmp_path / "fresh" / relpath).read_bytes(), relpath


@pytest.mark.parametrize("old_format", ["config-hash", "record-not-a-mapping"])
def test_old_format_manifest_counts_as_absent(tmp_path, small_pool_path, old_format):
    cfg = load_config(write_config(tmp_path, small_pool_path))
    run_pipeline(cfg)
    path = Path(cfg.output_dir) / "manifest.json"
    stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
    if old_format == "config-hash":
        records = {name: {"completed": True, "artifacts": r["artifacts"], "seconds": 0.5} for name, r in stages.items()}
        payload = {"config_hash": "0" * 64, "stages": records}
    else:
        payload = {"stages": {**stages, "report": ["report/metrics_k40.json"]}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    state = run_pipeline(cfg)
    assert state.executed == list(STAGES)
    rerun = json.loads(path.read_text(encoding="utf-8"))["stages"]
    assert [(rerun[s]["key"], rerun[s]["artifacts"]) for s in STAGES] == [
        (stages[s]["key"], stages[s]["artifacts"]) for s in STAGES
    ]


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


class Crash(Exception):
    """Stands in for a killed process: no stage absorbs it, unlike a ClientError."""


class PureService:
    """Chat and embeddings that are a pure function of the request, so a rerun gets the replies a first run got.

    Generation replies ten records in a topic picked by a digest of the
    whole request; extraction names one of the query's first three words,
    picked by a digest of the whole prompt, so fitness varies by genome.
    """

    def __init__(self):
        self.hasher = HashingEmbeddingTransport(dimension=32)

    def complete(self, request):
        digest = hashlib.sha256(repr(request).encode("utf-8")).digest()
        if request.user_prompt.endswith("Entities:"):
            words = request.user_prompt.rsplit("Text: ", 1)[1].split()
            return json.dumps({"term": [words[digest[0] % 3]]})
        negative = "NO extractable" in request.user_prompt
        vocab = TOPIC_VOCAB[digest[0] % 6]
        records = []
        for i in range(10):
            words = [vocab[(digest[1] + i + j) % len(vocab)] for j in range(10)]
            text = " ".join(words) + f" gen {digest.hex()[:8]} {i}"
            records.append({"text": text, "entities": {} if negative else {"term": [words[0]]}})
        return json.dumps(records)

    def embed(self, model, texts):
        return self.hasher.embed(model, texts)


class CallLog:
    """Passes every call on to `inner` and notes its kind, and whether `marker` existed when it came."""

    def __init__(self, inner, marker):
        self.inner, self.marker = inner, marker
        self.calls: list[tuple[str, bool]] = []

    def complete(self, request):
        kind = "extract" if request.user_prompt.endswith("Entities:") else "generate"
        self.calls.append((kind, self.marker.exists()))
        return self.inner.complete(request)

    def embed(self, model, texts):
        self.calls.append(("embed", self.marker.exists()))
        return self.inner.embed(model, texts)


class CrashAfter:
    """Passes the first `n` calls on to `inner`; every later call raises Crash."""

    def __init__(self, inner, n):
        self.inner, self.n = inner, n
        self.calls = 0
        self._lock = threading.Lock()

    def _count(self):
        with self._lock:
            self.calls += 1
            if self.calls > self.n:
                raise Crash(f"crashed after {self.n} calls")

    def complete(self, request):
        self._count()
        return self.inner.complete(request)

    def embed(self, model, texts):
        self._count()
        return self.inner.embed(model, texts)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# the kind of call that crashes, and how many calls of an uninterrupted run get through before it
CRASH_POINTS = {
    "inside-generation": ("generate", lambda calls: 3),
    "inside-embedding-batch": ("embed", lambda calls: calls.index(("embed", False))),
    # the sixth of the first genome's twelve validation queries
    "mid-genome": ("extract", lambda calls: calls.index(("extract", False)) + 5),
    # the first call after the first k's select artifacts are written
    "between-k-values": ("extract", lambda calls: [marked for _, marked in calls].index(True)),
}


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_rerun_after_a_crash_writes_the_bytes_of_an_uninterrupted_run(tmp_path, llm_config_path, point):
    cfg = dataclasses.replace(load_config(llm_config_path), pool_sizes=(12, 16))
    whole = dataclasses.replace(cfg, output_dir=str(tmp_path / "whole"))
    log = CallLog(PureService(), tmp_path / "whole" / "select" / "prompt_k12.txt")
    run_pipeline(whole, transport=log)
    kind, picker = CRASH_POINTS[point]
    crash_at = picker(log.calls)
    assert log.calls[crash_at][0] == kind

    resumed = dataclasses.replace(cfg, output_dir=str(tmp_path / "resumed"))
    crashing = CrashAfter(PureService(), crash_at)
    with pytest.raises(PipelineError, match=f"crashed after {crash_at} calls"):
        run_pipeline(resumed, transport=crashing)
    if point == "between-k-values":
        assert (tmp_path / "resumed" / "select" / "prompt_k12.txt").exists()
        assert not (tmp_path / "resumed" / "select" / "trace_k16.tsv").exists()
    run_pipeline(resumed, transport=PureService())

    got, want = _files(tmp_path / "resumed"), _files(tmp_path / "whole")
    del got["manifest.json"], want["manifest.json"]
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


# run directories written by earlier versions must keep matching these; pool and report keys hold absolute paths
PINNED_STAGE_KEYS = {
    "surrogate": {
        "project": "b0a5fea30596bf8bff5d2a73861bcdfe0e506a6859705e7e9b60f145943570ae",
        "cluster": "ef449f45f6de8114c96bf92c6df7acd5891c4bbbdb99bc9bbb41ffda3c1ee0f0",
        "pools": "f6f9a6e374702283c71addd90aac1956a31c4dabbaee887e945c4f8ac5451348",
        "select": "fe369f3bc343750b97e47cca944b9524f2ecab4cb5f8ac584fdccf657de50cdd",
    },
    "llm": {
        "project": "a506b7854b69b097dab43290316826525970d5a2a83dd2e3323fd4416f024c7b",
        "cluster": "f13f89b2311b006c2ebfeafc7742c74111360bcd1e612699c70e6b6232dfea85",
        "pools": "30a6826405c423c649212533585fbf4e4fdf30278399ef2024fd7665e39d2438",
        "select": "03b449d916116170eab4a0b92c4401095f9c01530e2c4d9644fec7f08e52923b",
    },
}


@pytest.mark.parametrize("mode", sorted(PINNED_STAGE_KEYS))
def test_stage_keys_are_pinned(tmp_path, small_pool_path, llm_config_path, mode):
    # a moved key makes every existing run directory pay for that stage again
    if mode == "llm":
        cfg = load_config(llm_config_path)
        run_pipeline(cfg, transport=TestLlmModeWithMockTransport().make_transport())
    else:
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(cfg)
    stages = json.loads((Path(cfg.output_dir) / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert {stage: stages[stage]["key"] for stage in PINNED_STAGE_KEYS[mode]} == PINNED_STAGE_KEYS[mode]


def test_generated_pool_bytes_are_pinned(llm_config_path):
    # the echo service fixes every reply, so the parsed pool and its tallies are the same on every platform
    cfg = load_config(llm_config_path)
    run_pipeline(cfg, through="pool", transport=TestLlmModeWithMockTransport().make_transport())
    root = Path(cfg.output_dir) / "pool"
    assert {name: file_sha256(root / name) for name in ("candidates.jsonl", "generation_report.json")} == {
        "candidates.jsonl": "7bffc279e5bfd9b4e036313b08030a4df8af75af01532c27b9149ca2533c0214",
        "generation_report.json": "6b8b3d642e8124f23107be77ed94110db8fdc0c39bee0a00ca635623b532602c",
    }


PINNED_BASELINES = {
    "llm": "a7eb42ab370d9341e2419a9a805b0b5d43903c6f2727c05c4b49cfb3877a09c6",
    "surrogate": "608972e003c65d59daca4b012ab46184092e6a53340fb7c855dbb190e1716f62",
}


@pytest.mark.parametrize("mode", sorted(PINNED_BASELINES))
def test_baselines_bytes_are_pinned(tmp_path, small_pool_path, llm_config_path, mode):
    # baselines.json is written from plain dicts; a refactor of its writer must not move a byte
    if mode == "llm":
        cfg = load_config(llm_config_path)
        run_baselines(cfg, transport=TestLlmModeWithMockTransport().make_transport())
    else:
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_baselines(cfg)
    assert file_sha256(Path(cfg.output_dir) / "baseline" / "baselines.json") == PINNED_BASELINES[mode]
