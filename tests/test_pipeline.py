"""Config parsing, manifest resumption, and the runner over surrogate and mocked llm paths."""

import dataclasses
import gc
import hashlib
import json
import re
import shutil
import tempfile
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CrashAfter,
    EchoService,
    PureService,
    llm_config_payload,
    make_topic_examples,
    surrogate_config_payload,
    write_run_tree,
    write_yaml_config,
)
from exsel import cli
from exsel.corpus import load_examples, save_examples
from exsel.evolve import GAConfig, RunTrace, TraceRecord
from exsel.fitness import EvaluationConfig
from exsel.generate import GenerationConfig
from exsel.llm.cache import EmbeddingCache
from exsel.llm.mock import HashingEmbeddingTransport
from exsel.llm.transport import TransportConfig
from exsel.pipeline import (
    STAGES,
    ConfigError,
    PipelineConfig,
    PipelineError,
    RunManifest,
    config_from_dict,
    load_config,
    run_pipeline,
)
from exsel.pipeline import config as config_module
from exsel.pipeline import runner as runner_module
from exsel.pipeline.config import CorpusConfig
from exsel.pipeline.manifest import file_sha256
from exsel.plotting import read_trace, render_plots
from exsel.reduce.density import ClusteringParams
from exsel.reduce.projection import ProjectionConfig, load_precomputed
from exsel.templates import (
    EXTRACTION_INSTRUCTION_TEMPLATE,
    NEGATIVE_GENERATION_TEMPLATE,
    POSITIVE_GENERATION_TEMPLATE,
)
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
        projection = {"precomputed_path": str(vectors), "target_dimension": 2}
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
        "overrides, field",
        [
            ({"clustering": {"cluster_selection_epsilon": True}}, "clustering.cluster_selection_epsilon"),
            ({"ga": {"p_cx": True, "p_mut": 0.0}}, "ga.p_cx"),
            ({"ga": {"min_relative_improvement": "a lot"}}, "ga.min_relative_improvement"),
            ({"client": {"timeout_s": [30]}}, "client.timeout_s"),
            ({"client": {"backoff_base_s": None}}, "client.backoff_base_s"),
        ],
    )
    def test_float_field_takes_only_a_number(self, tmp_path, small_pool_path, overrides, field):
        # a bool passed every range check, and epsilon reached the clusterer as True
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be a number, got "):
            load_config(write_config(tmp_path, small_pool_path, **overrides))

    def test_float_field_keeps_an_int_and_reads_an_env_string(self, tmp_path, small_pool_path, monkeypatch):
        monkeypatch.setenv("EXSEL_TEST_EPS", "0.18")
        monkeypatch.setenv("EXSEL_TEST_CAP", "30")
        from_env = load_config(
            write_config(
                tmp_path, small_pool_path, name="env.yaml",
                clustering={"cluster_selection_epsilon": "${EXSEL_TEST_EPS}"},
                client={"backoff_cap_s": "${EXSEL_TEST_CAP}"},
            )
        )
        literal = load_config(write_config(tmp_path, small_pool_path, client={"backoff_cap_s": 30}))
        assert from_env == literal
        assert type(literal.transport.backoff_cap_s) is int and type(from_env.transport.backoff_cap_s) is int


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
        ("generation", {"n_total": 10, "labels": "term"}),
        ("client", {"chat_model": 5}),
        ("client", {"endpoint_url": 7}),
        ("client", {"api_key_env": ["A"]}),
        ("projection", {"precomputed_path": "missing.txt"}),
    ],
)
@pytest.mark.parametrize("kind", ["bad-value", "unknown-field"])
def test_config_error_names_its_section(tmp_path, small_pool_path, section, bad, kind):
    fields = bad if kind == "bad-value" else {"no_such_field": 1}
    path = write_config(tmp_path, small_pool_path, **{section: fields})
    with pytest.raises(ConfigError, match=rf"^{section}\b"):
        load_config(path)


@pytest.mark.parametrize("method", ["in-repo-linear", "precomputed-import"])
def test_projection_method_is_an_unknown_field(tmp_path, small_pool_path, method):
    # whether projection.precomputed_path is set is the one statement of import or project
    path = write_config(tmp_path, small_pool_path, projection={"method": method})
    with pytest.raises(ConfigError, match=r"^projection: .*'method'"):
        load_config(path)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"corpus": {"test_path": 5}}, "corpus.test_path"),
        ({"output_dir": 7}, "config.output_dir"),
        ({"output_dir": None}, "config.output_dir"),
        ({"projection": {"precomputed_path": [1]}}, "projection.precomputed_path"),
        ({"corpus": {"documents": "a.txt"}}, "corpus.documents"),
        ({"corpus": {"documents": ["a.txt", 5]}}, "corpus.documents"),
        ({"client": {"embedding_cache": 3}}, "client.embedding_cache"),
        ({"evaluation": {"instruction_template_path": {"file": "a.txt"}}}, "evaluation.instruction_template_path"),
    ],
)
def test_path_field_takes_only_a_string(tmp_path, small_pool_path, overrides, field):
    # a number escaped load as a bare TypeError, and a string for documents was read one character at a time
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be a (list of )?path strings?, got "):
        load_config(write_config(tmp_path, small_pool_path, **overrides))


def test_path_field_takes_a_path_object_and_documents_a_tuple(tmp_path, small_pool_path):
    # config_from_dict is public: a caller building the dict in Python may pass Path values
    as_strings = surrogate_config_payload(small_pool_path, tmp_path / "run", corpus={"documents": [str(small_pool_path)]})
    as_strings["client"] = {"embedding_cache": str(tmp_path / "cache.jsonl")}
    as_paths = {
        **as_strings,
        "output_dir": tmp_path / "run",
        "corpus": {**as_strings["corpus"], "pool_path": Path(small_pool_path), "documents": (Path(small_pool_path),)},
        "client": {"embedding_cache": tmp_path / "cache.jsonl"},
    }
    cfg = config_from_dict(as_paths, tmp_path)
    assert cfg == config_from_dict(as_strings, tmp_path)
    assert (cfg.output_dir, cfg.corpus.pool_path) == (str(tmp_path / "run"), str(small_pool_path))
    assert cfg.corpus.documents == (str(small_pool_path),)


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


def test_readme_config_block_loads(tmp_path, monkeypatch):
    # a renamed field, or a value the typed-field rule refuses, fails here instead of leaving the README out of date
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Config\n.*?^```yaml\n(.*?)^```", readme, re.DOTALL | re.MULTILINE).group(1)
    raw = yaml.safe_load(block)
    named = [*raw["corpus"]["documents"], raw["evaluation"]["instruction_template_path"]]
    files = dict.fromkeys(named, "Extract {labels}.")
    # in llm mode the test file is read at load
    files[raw["corpus"]["test_path"]] = '{"id": "q1", "text": "Acme issued notes.", "entities": {"issuer": ["Acme"]}}\n'
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.setenv("LLM_ENDPOINT", "http://localhost:8000/v1")
    cfg = load_config(write_yaml_config(tmp_path / "config.yaml", raw))
    assert (cfg.fitness_mode, cfg.transport.endpoint_url) == ("llm", "http://localhost:8000/v1")
    assert cfg.evaluation.instruction_template == "Extract {labels}."


def test_readme_library_recipe_runs(small_pool_path):
    # a deleted or renamed library name fails here instead of leaving the README recipe stale
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Library use\n(.*?)(?=^## |\Z)", readme, re.DOTALL | re.MULTILINE).group(1)
    recipe, *others = re.findall(r"^```python\n(.*?)^```", section, re.DOTALL | re.MULTILINE)
    namespace: dict = {}
    exec(recipe.replace("data/pool.jsonl", str(small_pool_path)), namespace)
    assert len(namespace["best"]) == GAConfig().genome_length
    imports = [line for block in others for line in block.splitlines() if line.startswith(("from ", "import "))]
    assert len(imports) >= 2
    exec("\n".join(imports), {})


# each owner of annotations the loader reads, and the section YAML writes its fields under ("" is the top level)
LOADED = [
    (PipelineConfig, ""), (CorpusConfig, "corpus"), (GenerationConfig, "generation"),
    (config_module._generation, "generation"), (ProjectionConfig, "projection"), (ClusteringParams, "clustering"),
    (GAConfig, "ga"), (config_module._ga, "ga"), (TransportConfig, "client"), (EvaluationConfig, "evaluation"),
    (config_module._evaluation, "evaluation"),
]
# every loaded annotation but a nested section's (a dataclass, or None), which its own _section call types
LOADED_FIELDS = [
    pytest.param(section, name, hint, id=f"{owner.__name__}.{name}")
    for owner, section in LOADED
    for name, hint in get_type_hints(owner).items()
    if name != "return" and not all(map(dataclasses.is_dataclass, set(get_args(hint) or [hint]) - {type(None)}))
]


@pytest.mark.parametrize("section, name, hint", LOADED_FIELDS)
def test_every_annotation_the_loader_reads_is_typed_by_the_rule(section, name, hint):
    # a bool, dict or float | None field would reach its section unchecked until the rule covers it
    with pytest.raises(ConfigError, match=rf"^x\.{name} must be "):
        config_module._typed(f"x.{name}", hint, object(), Path())


def yaml_field(section: str, name: str) -> tuple[str, str]:
    """Where YAML writes a loaded field: under client for three PipelineConfig fields, as `lambda` for `lambda_`."""
    if not section and name in ("chat_model", "embedding_model", "embedding_cache"):
        return "client", name
    return section, "lambda" if name == "lambda_" else name


CONFIG_FIELDS = list(dict.fromkeys(yaml_field(*field.values[:2]) for field in LOADED_FIELDS))
# sizes the run allocates or loops over, or threads it starts: these draw no huge ints
SMALL_FIELDS = {
    ("ga", "mu"), ("ga", "lambda"), ("ga", "tournament_size"), ("ga", "max_generations"), ("ga", "genome_length"),
    ("client", "max_in_flight"),
}


def drawn_values(small: bool):
    ints = st.integers(-3, 12) if small else st.one_of(st.integers(-3, 400), st.sampled_from([10**6, 2**63, 10**30]))
    strings = ["", ".", "0", "7", "-3", "2.5", "nan", "inf", "1e3", "true", "null", "term", "x.f64", "pool.jsonl"]
    return st.one_of(
        ints,
        st.sampled_from([0.0, 0.5, 2.5, -1.5, 1e-9, 1e30, float("nan"), float("inf"), float("-inf")]),
        st.booleans(),
        st.sampled_from(strings),
        st.lists(ints, max_size=3),
        st.lists(st.sampled_from(strings), max_size=2),
        st.none(),
    )


# PipelineErrors that a run may end in: conditions of the data a config asks for, not of its types
DATA_CONDITIONS = ("must be smaller than the pool size", "exceeds input dimension", "pool has no clusters")


@dataclasses.dataclass(frozen=True)
class Written:
    """Content of the file a field names (a template, the test file, an import file), for an llm run that reads it."""

    text: str
    whole: bool = False  # the whole file, with no built-in text or good examples before it


# template pieces: placeholders the run fills, ones it cannot, and stray braces
PLACEHOLDERS = [
    "{labels}", "{chunk}", "{count}", "{count:d}", "{labels!r}", "{{}}", " text ", "{format}", "{0}", "{}",
    "{count:s}", "{labels[0]}", "{labels.x}", "{count[0]}", "{", "}",
]
# the test file's last line after six good ones: good, cut short, not a record, a repeated id, blank
LAST_LINES = [
    '{"id": "t00-0006", "text": "glacier moraine", "entities": {"term": ["glacier"]}}', '{"id": "t00-0006", "te',
    "not json", "[]", '{"id": "t00-0000", "text": "firn", "entities": {}}', '{"id": "x", "text": "", "entities": {}}',
    "  ",
]
TEMPLATES = {
    ("evaluation", "instruction_template_path"): EXTRACTION_INSTRUCTION_TEMPLATE,
    ("generation", "positive_template_path"): POSITIVE_GENERATION_TEMPLATE,
    ("generation", "negative_template_path"): NEGATIVE_GENERATION_TEMPLATE,
}
WRITTEN = st.one_of(
    st.tuples(st.sampled_from(sorted(TEMPLATES)), st.lists(st.sampled_from(PLACEHOLDERS), max_size=3).map("".join)),
    st.tuples(st.just(("corpus", "test_path")), st.sampled_from(LAST_LINES)),
).map(lambda case: (case[0], Written(case[1])))


def written_llm_payload(tree: Path, field: tuple[str, str], written: Written) -> dict:
    """The tiny llm run with `written` in the file `field` names: in a template after its built-in text, so the
    replies keep their shape; in the test file as the last line after six good ones; else, or when `written.whole`,
    as the whole file."""
    payload = llm_config_payload(tree)
    section, key = field
    text = ("" if written.whole else TEMPLATES.get(field, "")) + written.text
    if field == ("corpus", "test_path") and not written.whole:
        save_examples(make_topic_examples(1, 6, seed=1), tree / "written")
        text = (tree / "written").read_text(encoding="utf-8") + written.text + "\n"
    (tree / "written").write_text(text, encoding="utf-8")
    payload.setdefault(section, {})[key] = "written"
    return payload


@settings(
    max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    case=st.one_of(
        st.sampled_from(CONFIG_FIELDS).flatmap(lambda f: st.tuples(st.just(f), drawn_values(f in SMALL_FIELDS))),
        WRITTEN,
    )
)
@example(case=(("corpus", "pool_path"), ""))  # the config directory: a raw IsADirectoryError before any stage
@example(case=(("corpus", "documents"), ["."]))
@example(case=(("", "output_dir"), "pool.jsonl"))  # a raw FileExistsError
@example(case=(("client", "embedding_cache"), ""))  # these two failed in the project stage, after the pool stage
@example(case=(("client", "embedding_cache"), "x.f64"))
def test_a_config_that_loads_runs(small_pool_path, case):
    # each drawn value ends in a ConfigError naming its section, a finished run, or a PipelineError of the data;
    # before the rule, `generation.labels: term` or `client.chat_model: 5` loaded and failed only at a request.
    # So does drawn content of a template or test file, over an llm run that reads it: before it was read at load,
    # `{format}` in a template or a cut last test line loaded and failed after paid calls
    (section, key), value = case
    transport = PureService() if isinstance(value, Written) else None
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copy(small_pool_path, Path(scratch) / "pool.jsonl")
        payload = surrogate_config_payload("pool.jsonl", "run")
        if transport is not None:
            payload = written_llm_payload(Path(scratch), (section, key), value)
        elif not section:
            payload[key] = value
        else:
            payload[section] = {**payload.get(section, {}), key: value}
        path = write_yaml_config(Path(scratch) / "config.yaml", payload)
        try:
            cfg = load_config(path)
        except ConfigError as exc:
            assert re.search(rf"\b{section or key}\b", str(exc)), exc
            return
        try:
            run_pipeline(cfg, through="report", transport=transport)
        except PipelineError as exc:
            assert any(condition in str(exc) for condition in DATA_CONDITIONS), exc


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

    def test_rerecord_removes_only_files_the_old_record_alone_lists_inside_the_run(self, tmp_path):
        root = tmp_path / "run"
        root.mkdir()
        kept, dropped, outside = root / "kept.txt", root / "dropped.txt", tmp_path / "outside.txt"
        for path in (kept, dropped, outside):
            path.write_text("payload", encoding="utf-8")
        manifest = RunManifest.load(root)
        manifest.stages["pools"] = {"key": "k1", "artifacts": {"kept.txt": "", "dropped.txt": "", "../outside.txt": ""}}
        manifest.record_stage("pools", "k2", [kept], seconds=0.5)
        assert (kept.exists(), dropped.exists(), outside.exists()) == (True, False, True)
        assert list(manifest.stages["pools"]["artifacts"]) == ["kept.txt"]

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
        partial = manifest.path.with_name("manifest.json.tmp")
        assert partial.exists()
        assert run_pipeline(cfg).skipped == list(STAGES)
        assert not partial.exists()


class TestSurrogateRuns:
    def test_run_all_writes_every_artifact(self, tmp_path, small_pool_path):
        cfg = load_config(write_config(tmp_path, small_pool_path))
        state = run_pipeline(cfg)
        root = Path(cfg.output_dir)
        for relpath in [
            "pool/candidates.jsonl",
            "pool/validation.jsonl",
            "reduce/projection.f64",
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
        for relpath in ["select/trace_k40.tsv", "select/best_genome_k120.json", "reduce/projection.f64"]:
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
        assert run_pipeline(cfg, through="baseline").executed == [*STAGES[:4], "baseline"]
        payload = read_baselines(cfg)
        assert sorted(payload["random"]) == ["120", "40"]
        for summary in payload["random"].values():
            assert len(summary["fitnesses"]) == 3
            assert summary["std"] >= 0.0
        fresh = dataclasses.replace(cfg, output_dir=str(tmp_path / "fresh"))
        run_pipeline(fresh, through="baseline")
        assert read_baselines(fresh) == payload


def read_baselines(cfg) -> dict:
    return json.loads((Path(cfg.output_dir) / "baseline" / "baselines.json").read_text(encoding="utf-8"))


def test_trace_artifact_round_trips(tmp_path):
    records = (
        TraceRecord(0, 0.1 + 0.2, 0.7, 1.0, 0.05 + 0.65 * 1.0, 10),
        TraceRecord(1, 1 / 3, 0.7000000000000001, 0.4, 5e-324, 7),
    )
    RunTrace(records).write_tsv(tmp_path / "trace.tsv")
    columns = read_trace(tmp_path / "trace.tsv")
    assert list(columns) == [field.name for field in dataclasses.fields(TraceRecord)]
    assert [tuple(row) for row in zip(*columns.values())] == [dataclasses.astuple(r) for r in records]


def test_json_artifact_is_the_dumps_text_and_a_newline(tmp_path):
    payload = {"zé": [0.1 + 0.2, -0.0, 5e-324, [1e308, [], {}]], "名前": {"b": "ü ✓", "a": [1, True, None]}, "k": 2 / 3}
    runner_module._write_json(tmp_path / "artifact.json", payload)
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert (tmp_path / "artifact.json").read_bytes() == text.encode("utf-8")


def write_vectors(path, matrix):
    """An import file for `projection.precomputed_path`: one whitespace-separated row per line, floats by repr."""
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in matrix.tolist()), encoding="utf-8")


def imported_projection_config(tmp_path, pool_path, matrix):
    write_vectors(tmp_path / "vectors.txt", matrix)
    projection = {"precomputed_path": str(tmp_path / "vectors.txt"), "target_dimension": matrix.shape[1]}
    return load_config(write_config(tmp_path, pool_path, projection=projection))


def test_projection_artifact_round_trips_bit_for_bit(tmp_path, small_pool_path):
    rng = np.random.default_rng(3)
    # one row per candidate: the small pool's 360 examples less 24 for validation
    matrix = rng.standard_normal((336, 20)) * 10.0 ** rng.integers(-9, 7, size=(336, 20))
    matrix[0, :5] = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 2 / 3]
    cfg = imported_projection_config(tmp_path, small_pool_path, matrix)
    assert run_pipeline(cfg, through="project").executed == ["pool", "project"]
    artifact = Path(cfg.output_dir) / "reduce" / "projection.f64"
    assert artifact.read_bytes() == matrix.astype("<f8").tobytes()
    resumed = run_pipeline(cfg, through="project")
    assert resumed.skipped == ["pool", "project"]
    assert resumed.projected.shape == matrix.shape
    assert resumed.projected.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("cut", [-8, 1])
def test_wrong_size_projection_artifact_is_rejected(tmp_path, small_pool_path, cut):
    cfg = load_config(write_config(tmp_path, small_pool_path))
    run_pipeline(cfg, through="project")
    root = Path(cfg.output_dir)
    artifact = root / "reduce" / "projection.f64"
    blob = artifact.read_bytes()
    artifact.write_bytes(blob[:cut] if cut < 0 else blob + b"\0" * cut)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    manifest["stages"]["project"]["artifacts"]["reduce/projection.f64"] = file_sha256(artifact)
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(PipelineError, match="reduce/projection.f64"):
        run_pipeline(cfg, through="project")


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


def test_run_frees_the_embedding_cache_it_opened(tmp_path, small_pool_path, monkeypatch):
    # only project reads the cache; its rows must not stay alive through the later stages
    opened = []
    init = EmbeddingCache.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(weakref.ref(self))

    monkeypatch.setattr(EmbeddingCache, "__init__", recording)
    state = run_pipeline(load_config(write_config(tmp_path, small_pool_path)))
    gc.collect()
    assert state.executed == list(STAGES)
    assert len(opened) == 1
    assert opened[0]() is None


def test_imported_projection_run_makes_no_embed_calls(tmp_path, small_pool_path):
    embedded = load_config(
        write_config(tmp_path, small_pool_path, name="embedded.yaml", output_dir=str(tmp_path / "embedded"))
    )
    run_pipeline(embedded, through="project")
    vectors = run_pipeline(embedded, through="project").projected  # read back from projection.f64
    cfg = imported_projection_config(tmp_path, small_pool_path, vectors)
    transport = MockTransport()
    state = run_pipeline(cfg, transport=transport)
    assert state.executed == list(STAGES)
    assert (transport.embed_calls, transport.chat_calls) == (0, 0)
    assert load_precomputed(tmp_path / "vectors.txt").tobytes() == vectors.tobytes()
    written = Path(cfg.output_dir) / "reduce" / "projection.f64"
    assert written.read_bytes() == (Path(embedded.output_dir) / "reduce" / "projection.f64").read_bytes()


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


def _moved_tree(cfg, tmp_path):
    shutil.copytree(tmp_path / "tree", tmp_path / "moved")
    return load_config(tmp_path / "moved" / "config.yaml")


def _edited_in_place(name):
    """The input file that corpus field `name` names (the first, for a list), its last line dropped in place."""

    def change(cfg, tmp_path):
        named = getattr(cfg.corpus, name)
        path = Path(named[0] if isinstance(named, tuple) else named)
        path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]), encoding="utf-8")
        return cfg

    return change


def _llm_mode(cfg, tmp_path):
    return dataclasses.replace(cfg, fitness_mode="llm", chat_model="chat", embedding_model="embed")


# one row per top-level PipelineConfig field at least: sections are keyed whole
SKIP_MATRIX = [
    pytest.param("output_dir", _copied_run, [], id="output_dir"),
    # keys hold the inputs' contents, not their locations
    pytest.param("output_dir", _moved_tree, [], id="tree-moved-config-loaded-by-absolute-path"),
    pytest.param("seed", _setting("seed", 8), list(STAGES), id="seed"),
    # llm mode needs both models; embedding_model is read by project, which writes the same bytes
    pytest.param("fitness_mode", _llm_mode, ["project", "select", "report"], id="fitness_mode"),
    pytest.param("corpus", _setting("corpus.n_validation", 30), list(STAGES), id="corpus.n_validation"),
    pytest.param("corpus", _edited_in_place("pool_path"), list(STAGES), id="pool-file-edited-in-place"),
    # pool reads a pool file, its seed and n_validation; the documents and their chunking go unread
    pytest.param("corpus", _edited_in_place("documents"), [], id="document-edited-pool-file-mode"),
    pytest.param("corpus", _setting("corpus.chunk_size", 100), [], id="corpus.chunk_size-pool-file-mode"),
    # only report reads the test file, and only in llm mode
    pytest.param("corpus", _edited_in_place("test_path"), [], id="test-file-edited-surrogate-mode"),
    # pool reads generation and chat_model only when it generates from documents
    pytest.param("generation", _setting("generation", GenerationConfig(n_total=10)), [], id="generation"),
    pytest.param("projection", _setting("projection.target_dimension", 16), list(STAGES[1:]), id="projection"),
    # the same labels come out, so nothing downstream reruns
    pytest.param("clustering", _setting("clustering.cluster_selection_epsilon", 0.181), ["cluster"], id="clustering"),
    pytest.param("pool_sizes", _setting("pool_sizes", (40, 100)), ["pools", "select", "report"], id="pool_sizes"),
    pytest.param("ga", _setting("ga.mu", 13), ["select", "report"], id="ga.mu"),
    pytest.param("transport", _setting("transport.max_in_flight", 1), [], id="client.max_in_flight"),
    pytest.param("chat_model", _setting("chat_model", "chat"), [], id="chat_model"),
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
    cfg = load_config(write_run_tree(tmp_path / "tree", small_pool_path))
    run_pipeline(cfg, transport=hashing_transport())
    state = run_pipeline(change(cfg, tmp_path), transport=hashing_transport())
    assert state.executed == expected


def test_keys_hash_only_the_files_they_hold(tmp_path, small_pool_path, monkeypatch):
    # the tree's config lists a document and a test file too; a surrogate pool-file run reads neither
    cfg = load_config(write_run_tree(tmp_path / "tree", small_pool_path))
    hashed = []

    def recording(path):
        hashed.append(Path(path).name)
        return file_sha256(path)

    monkeypatch.setattr(runner_module, "file_sha256", recording)
    run_pipeline(cfg)
    assert hashed == ["pool.jsonl"]


def test_skip_matrix_has_a_row_for_every_config_field():
    rows = {row.values[0] for row in SKIP_MATRIX}
    assert {field.name for field in dataclasses.fields(PipelineConfig)} <= rows


def test_changed_upstream_output_reruns_every_later_stage(tmp_path, small_pool_path):
    cfg = load_config(write_config(tmp_path, small_pool_path))
    run_pipeline(cfg, transport=hashing_transport())
    root = Path(cfg.output_dir)
    (root / "reduce" / "projection.f64").unlink()
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
        run_pipeline(cfg, through="baseline", transport=transport)
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
        run_pipeline(cfg, through="baseline", transport=transport)
        payload = read_baselines(cfg)
        assert payload["zeroshot"]["fitness"] == 1.0
        assert len(payload["random"]["16"]["fitnesses"]) == 3


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


def test_moved_llm_tree_reruns_nothing_and_makes_no_call(tmp_path, llm_config_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copyfile(tmp_path / "corpus.txt", tree / "corpus.txt")
    payload = yaml.safe_load(llm_config_path.read_text(encoding="utf-8"))
    payload["output_dir"], payload["corpus"]["documents"] = "run", ["corpus.txt"]
    run_pipeline(load_config(write_yaml_config(tree / "config.yaml", payload)), transport=PureService())
    shutil.copytree(tree, tmp_path / "moved")
    log = CallLog(PureService(), tmp_path / "moved")
    state = run_pipeline(load_config(tmp_path / "moved" / "config.yaml"), transport=log)
    assert (state.executed, log.calls) == ([], [])


class Queries(PureService):
    """PureService that notes the query text of every extraction request."""

    def __init__(self):
        super().__init__()
        self.texts: list[str] = []

    def complete(self, request):
        if request.user_prompt.endswith("Entities:"):
            self.texts.append(request.user_prompt.rsplit("Text: ", 1)[1].removesuffix("\nEntities:"))
        return super().complete(request)


def test_baselines_score_on_the_test_file_like_report(tmp_path, llm_config_path):
    # the random draws and zero-shot query the texts report queries, so the three numbers share one set
    test = make_topic_examples(1, 7, seed=1)
    save_examples(test, tmp_path / "test.jsonl")
    payload = yaml.safe_load(llm_config_path.read_text(encoding="utf-8"))
    payload["corpus"]["test_path"] = str(tmp_path / "test.jsonl")
    cfg = load_config(write_yaml_config(llm_config_path, payload))
    run_pipeline(cfg, through="pools", transport=PureService())
    service = Queries()
    assert run_pipeline(cfg, through="baseline", transport=service).executed == ["baseline"]
    assert len(service.texts) == cfg.baseline_draws * 7 + 7
    assert set(service.texts) == {example.text for example in test}
    assert read_baselines(cfg)["evaluated_on"] == "test"


def test_baseline_is_a_stage_that_reruns_only_on_what_it_reads(tmp_path, llm_config_path, monkeypatch, capsys):
    log = CallLog(PureService(), tmp_path / "never")
    monkeypatch.setattr(runner_module, "HttpTransport", lambda settings: log)

    def exsel(*argv) -> tuple[list[str], list]:
        """The stage lines of one CLI run, and the calls it made; `baseline` prints its summary, run or skipped."""
        del log.calls[:]
        assert cli.main([*argv, "--config", str(llm_config_path)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        if argv[0] == "baseline":
            assert lines[-2:] == [line for line in lines if line.startswith(("random baseline k=16:", "zero-shot"))]
        return [line.split(" (")[0] for line in lines if line.startswith("[")], list(log.calls)

    chain = [*STAGES[:4], "baseline"]
    assert exsel("baseline")[0] == [f"[run ] {stage}" for stage in chain]
    assert exsel("baseline") == ([f"[skip] {stage}" for stage in chain], [])
    exsel("run-all")
    payload = yaml.safe_load(llm_config_path.read_text(encoding="utf-8"))
    payload["ga"]["mu"] = 7
    write_yaml_config(llm_config_path, payload)
    assert exsel("run-all")[0] == [*(f"[skip] {s}" for s in STAGES[:4]), "[run ] select", "[run ] report"]
    assert exsel("baseline") == ([f"[skip] {stage}" for stage in chain], [])
    assert exsel("baseline", "--force")[0] == [f"[run ] {stage}" for stage in chain]


# each fault the config's inputs show that failed in a stage after paid calls (174, 174, 6, 3 and 6 of them on this
# run): the file a field names, and what it holds
INPUT_FAULTS = {
    "test-file-last-line-not-json": (("corpus", "test_path"), Written('{"id": "t00-0006", "text": "glacier mor')),
    "test-file-blank-lines-only": (("corpus", "test_path"), Written("\n  \n", whole=True)),
    "instruction-template-names-format": (("evaluation", "instruction_template_path"), Written("{format}")),
    "negative-template-names-style": (("generation", "negative_template_path"), Written("{style}")),
    "import-file-3-wide-target-8": (("projection", "precomputed_path"), Written("0.5 1.5 2.5\n" * 48)),
}


@pytest.mark.parametrize("fault", sorted(INPUT_FAULTS))
def test_an_input_fault_is_a_config_error_before_any_call(tmp_path, monkeypatch, capsys, fault):
    (section, field), written = INPUT_FAULTS[fault]
    path = write_yaml_config(tmp_path / "config.yaml", written_llm_payload(tmp_path, (section, field), written))
    named = rf"^{section}(\.|: ){field}\b"  # the field, in its section
    with pytest.raises(ConfigError, match=named):
        load_config(path)
    log = CallLog(PureService(), tmp_path / "never")
    monkeypatch.setattr(runner_module, "HttpTransport", lambda settings: log)
    assert cli.main(["run-all", "--config", str(path)]) == cli.EXIT_CONFIG
    assert re.search(named, capsys.readouterr().err.removeprefix("error: "))
    assert log.calls == []


# run directories written by earlier versions must keep matching these
PINNED_STAGE_KEYS = {
    "surrogate": {
        "pool": "2c75d14f34a3e3d42847b0bf32f419001e4cc9272e7b827777998504fb664d0f",
        "project": "38fe2401fdc26bbdfaa4539be493ee4859342d718f032dfe3d35e57e4925d7a6",
        "cluster": "9e5cecdb132ee68af2b6f3f68a7f3fbfa66930dc655c86b86a28bb5cb0e1b474",
        "pools": "725e4ea1c3ee82aa8de12c8fbf90e1f016a2c5bcfb628af610b27217ede2d3b1",
        "select": "d02c95301efafb2d4f4861b69251a88f2f1abad5c80cfc50604d0f793971b903",
        "report": "a3297434355f72fa770da4d92e0efe9c8859dce9340d967a14e5bf8bbf344edb",
    },
    "llm": {
        "pool": "6465c949feede116849dae2c3198d4a5b4a511fbb181b13e8f1f880fec7f721f",
        "project": "b6c6f6c5e902aeee4cad591d4c7ecbd9f0eff4dba60dd5fdd0a57aec1bb7d9e6",
        "cluster": "70329090b05461ca6fd91c92f8306e82b51db1a22bed15aef1ded01f9c00266e",
        "pools": "e3fa0ba7a727b468ca8d492205ea5f079ca9eeab24a37d0d0032de18c33b82b2",
        "select": "9219437f13220fd16b1b616287fc2dfedf1151405be0ffa07561ec2c4bad0f2a",
        "report": "0cd1c37a4fdefd6a8ee0a0ffc0dd218edec113a30526f64aa79e1536d6ae5f33",
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
    "llm": "65535cc7bf63ac319401f72fadeb056dd39a7c8124c7b41e1f36e95928ca9b8a",
    "surrogate": "608972e003c65d59daca4b012ab46184092e6a53340fb7c855dbb190e1716f62",
}


@pytest.mark.parametrize("mode", sorted(PINNED_BASELINES))
def test_baselines_bytes_are_pinned(tmp_path, small_pool_path, llm_config_path, mode):
    # baselines.json is written from plain dicts; a refactor of its writer must not move a byte
    if mode == "llm":
        cfg = load_config(llm_config_path)
        run_pipeline(cfg, through="baseline", transport=TestLlmModeWithMockTransport().make_transport())
    else:
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(cfg, through="baseline")
    assert file_sha256(Path(cfg.output_dir) / "baseline" / "baselines.json") == PINNED_BASELINES[mode]


class GarbledService(PureService):
    """PureService whose extraction replies are, by a digest of the request, unparseable or padded with blanks."""

    def complete(self, request):
        reply = super().complete(request)
        if not request.user_prompt.endswith("Entities:"):
            return reply
        digest = hashlib.sha256(repr(request).encode("utf-8")).digest()
        if digest[1] % 4 == 0:
            return "No entities that I can see."
        if digest[1] % 4 == 1:
            return json.dumps({"term": [f"  {json.loads(reply)['term'][0]} ", " "], "other": ["x"]})
        return reply


PINNED_METRICS = {
    "llm": {"metrics_k16.json": "ad393d3e0d967cdf4404357a3de3b3d56aa76e14fcee20702eb62321c10cbd03"},
    "surrogate": {
        "metrics_k40.json": "f0c213f5fd64b4075e97ce682609ef489bbe31130f5ad274469feb6f6c8ffa95",
        "metrics_k120.json": "8fa44879e2e5a681e6eb91867fd8f77734a4725fdd49868348e8734945ca0278",
    },
}


@pytest.mark.parametrize("mode", sorted(PINNED_METRICS))
def test_metrics_bytes_are_pinned(tmp_path, small_pool_path, llm_config_path, mode):
    # the report's metrics are written from plain dicts; in llm mode the replies hold unparseable and padded values
    if mode == "llm":
        cfg = load_config(llm_config_path)
        run_pipeline(cfg, transport=GarbledService())
    else:
        cfg = load_config(write_config(tmp_path, small_pool_path))
        run_pipeline(cfg)
    root = Path(cfg.output_dir) / "report"
    assert {name: file_sha256(root / name) for name in PINNED_METRICS[mode]} == PINNED_METRICS[mode]


PINNED_PLOTS = {
    "trace_k40.svg": "b842ce82cb5ec333030a0ef35c2c46f2caa26e95eb68f36d97fd98ab596cf208",
    "trace_k120.svg": "8977c5b685691dc0a332baab7c663ec981950539f1684a16a1717412989b0bae",
}


def test_plot_bytes_are_pinned(tmp_path, small_pool_path):
    # the SVG text is a function of the trace alone, so a second plot writes the same bytes
    cfg = load_config(write_config(tmp_path, small_pool_path))
    run_pipeline(cfg, through="select")
    root = Path(cfg.output_dir) / "plots"
    for _ in range(2):
        assert sorted(path.name for path in render_plots(cfg.output_dir)) == sorted(PINNED_PLOTS)
        assert {name: file_sha256(root / name) for name in PINNED_PLOTS} == PINNED_PLOTS


class Jittered:
    """Passes calls on to `inner` after a 0-2 ms sleep drawn from the request's digest, and logs every request."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[object] = []

    def complete(self, request):
        self.requests.append(request)
        time.sleep(hashlib.sha256(repr(request).encode("utf-8")).digest()[0] % 3 / 1000)
        return self.inner.complete(request)

    def embed(self, model, texts):
        self.requests.append((model, tuple(texts)))
        return self.inner.embed(model, texts)


def test_concurrency_moves_no_byte_and_no_request(tmp_path, llm_config_path):
    # replies come back in a different order at each width; artifacts and the requests sent must not notice
    cfg = load_config(llm_config_path)
    runs = []
    for width in (1, 2, 8):
        transport = Jittered(GarbledService())
        root = tmp_path / f"width{width}"
        run_pipeline(
            dataclasses.replace(
                cfg, output_dir=str(root), transport=dataclasses.replace(cfg.transport, max_in_flight=width)
            ),
            transport=transport,
        )
        files = _files(root)
        del files["manifest.json"]
        runs.append((files, Counter(map(repr, transport.requests))))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
