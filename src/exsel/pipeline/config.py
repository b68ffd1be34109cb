"""Pipeline configuration: one YAML file drives every stage.

Secrets never live in the file: the client reads its token from the
environment variable named by `client.api_key_env`, and any string
value may interpolate `${VAR}` from the environment. One global seed
fans out to per-stage seeds salted by stage name, so stages are
independently reproducible.
"""

from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar, get_type_hints

import yaml

from exsel.evolve import GAConfig
from exsel.fitness import EvaluationConfig
from exsel.generate import GenerationConfig
from exsel.llm.transport import TransportConfig
from exsel.reduce.density import ClusteringParams
from exsel.reduce.projection import METHOD_PRECOMPUTED, ProjectionConfig
from exsel.templates import (
    EXTRACTION_INSTRUCTION_TEMPLATE,
    NEGATIVE_GENERATION_TEMPLATE,
    POSITIVE_GENERATION_TEMPLATE,
    load_template,
)

MODE_SURROGATE = "surrogate"
MODE_LLM = "llm"

_ENV_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

T = TypeVar("T")


class ConfigError(ValueError):
    """Invalid or inconsistent pipeline configuration."""


@dataclass(frozen=True)
class CorpusConfig:
    documents: tuple[str, ...] = ()
    pool_path: str | None = None
    test_path: str | None = None
    n_validation: int = 1000
    chunk_size: int = 800
    n_chunks: int = 64

    def __post_init__(self) -> None:
        if self.n_validation < 0:
            raise ConfigError("corpus.n_validation must be >= 0")
        if self.chunk_size < 1 or self.n_chunks < 1:
            raise ConfigError("corpus.chunk_size and corpus.n_chunks must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    output_dir: str
    seed: int = 0
    fitness_mode: str = MODE_SURROGATE
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    generation: GenerationConfig | None = None
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    clustering: ClusteringParams = field(default_factory=ClusteringParams)
    pool_sizes: tuple[int, ...] = (500, 5000)
    ga: GAConfig = field(default_factory=GAConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    chat_model: str = ""
    embedding_model: str = ""
    embedding_cache: str | None = None
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    baseline_draws: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "pool_sizes", tuple(self.pool_sizes))
        if self.fitness_mode not in (MODE_SURROGATE, MODE_LLM):
            raise ConfigError(f"fitness_mode must be surrogate or llm, got {self.fitness_mode!r}")
        if not self.pool_sizes:
            raise ConfigError("pool_sizes must list at least one k")
        short = [k for k in self.pool_sizes if k < self.ga.genome_length]
        if short:
            raise ConfigError(f"pool_sizes {short} cannot fill a genome of ga.genome_length {self.ga.genome_length}")
        if len(set(self.pool_sizes)) != len(self.pool_sizes):
            raise ConfigError("pool_sizes contains duplicates")
        if self.baseline_draws < 1:
            raise ConfigError("baseline_draws must be >= 1")
        if self.corpus.pool_path is None and not self.corpus.documents:
            raise ConfigError("corpus needs either pool_path or documents")
        if self.fitness_mode == MODE_SURROGATE and self.corpus.pool_path is None:
            raise ConfigError("surrogate mode cannot generate examples; corpus.pool_path is required")
        if self.fitness_mode == MODE_LLM:
            if not self.chat_model:
                raise ConfigError("llm mode requires client.chat_model")
            if not self.embedding_model and self.projection.method != METHOD_PRECOMPUTED:
                raise ConfigError("llm mode requires client.embedding_model unless projection is precomputed-import")
            if self.corpus.n_validation < 1:
                raise ConfigError("llm mode requires corpus.n_validation >= 1")
        if self.corpus.pool_path is None and self.generation is None:
            raise ConfigError("generation section is required when generating from documents")
        optional = (self.corpus.pool_path, self.corpus.test_path, self.projection.precomputed_path)
        for path in (*self.corpus.documents, *filter(None, optional)):
            if not Path(path).exists():
                raise ConfigError(f"referenced path does not exist: {path}")


def _interpolate_env(node: object) -> object:
    if isinstance(node, str):
        def substitute(match: re.Match) -> str:
            name = match.group(1)
            if name not in os.environ:
                raise ConfigError(f"environment variable {name} is not set (referenced in config)")
            return os.environ[name]

        return _ENV_PATTERN.sub(substitute, node)
    if isinstance(node, list):
        return [_interpolate_env(item) for item in node]
    if isinstance(node, dict):
        return {key: _interpolate_env(value) for key, value in node.items()}
    return node


def _resolve(base: Path, section: str, fields: dict, key: str, optional: bool = True) -> str | None:
    """`fields[key]`, a path string or PathLike, made absolute against `base`; None or absent stays None where `optional`."""
    value = fields.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{section}.{key} must be a path string, got {value!r}")
    return str(base / value)  # an absolute value replaces base


def load_config(path: Path | str) -> PipelineConfig:
    """Parse, env-interpolate, and validate a pipeline config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(_interpolate_env(raw), path.parent)


def _fields(data: dict, name: str) -> dict:
    """A section's fields; a section left out or written as YAML null has none."""
    section = data.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be a mapping, not {type(section).__name__}")
    return dict(section)


def _number(where: str, value: object, kind: type) -> int | float:
    """An `int` field takes an int; a `float` field an int or a float, kept as it is. A bool is neither. A string
    is read by `int()`, or for a `float` field by `float()` if not (env-interpolated values are strings)."""
    kinds = (int,) if kind is int else (int, float)
    if type(value) in kinds:
        return value
    if isinstance(value, str):
        for parse in kinds:
            with contextlib.suppress(ValueError):
                return parse(value)
    raise ConfigError(f"{where} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def _section(name: str, cls: type[T], data: dict, build: Callable[..., T] | None = None) -> T:
    """Build section `name` as dataclass `cls` (through `build` if given); errors name the section, or the field."""
    hints, data = get_type_hints(cls), dict(data)
    for key, value in data.items():
        if hints.get(key) in (int, float):
            data[key] = _number(f"{name}.{key}", value, hints[key])
        elif hints.get(key) == tuple[int, ...]:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name}.{key} must be a list of integers, got {value!r}")
            data[key] = tuple(_number(f"{name}.{key}", item, int) for item in value)
    try:
        return (build or cls)(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _generation(
    positive_template_path: str | None = None, negative_template_path: str | None = None, **fields
) -> GenerationConfig:
    """The `generation` section; its prompt templates come only from the `*_template_path` files."""
    inline = sorted({"positive_prompt_template", "negative_prompt_template"} & set(fields))
    if inline:
        raise ValueError(f"{', '.join(inline)} cannot be written inline; name a file with *_template_path")
    return GenerationConfig(
        positive_prompt_template=load_template(positive_template_path, POSITIVE_GENERATION_TEMPLATE),
        negative_prompt_template=load_template(negative_template_path, NEGATIVE_GENERATION_TEMPLATE),
        **fields,
    )


def _ga(seed: int = 0, **fields) -> GAConfig:
    """The `ga` section; the GA's seed is derived from the top-level seed for each k, so none is set here."""
    if seed != 0:
        raise ValueError(f"seed {seed} would be ignored; each k's GA seed is derived from the top-level seed")
    return GAConfig(**fields)


def _evaluation(instruction_template_path: str | None = None, **fields) -> EvaluationConfig:
    """The `evaluation` section; its instruction template comes only from the `instruction_template_path` file."""
    return EvaluationConfig(load_template(instruction_template_path, EXTRACTION_INSTRUCTION_TEMPLATE), **fields)


def config_from_dict(raw: dict, base: Path) -> PipelineConfig:
    data = dict(raw)
    unknown = set(data) - {
        "seed", "output_dir", "fitness_mode", "corpus", "generation", "projection",
        "clustering", "pool_sizes", "ga", "client", "evaluation", "baseline_draws",
    }
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "output_dir" not in data:
        raise ConfigError("output_dir is required")

    corpus = _fields(data, "corpus")
    documents = corpus.get("documents", [])
    if not isinstance(documents, (list, tuple)) or not all(isinstance(doc, (str, os.PathLike)) for doc in documents):
        raise ConfigError(f"corpus.documents must be a list of path strings, got {documents!r}")
    corpus["documents"] = tuple(str(base / doc) for doc in documents)
    for key in ("pool_path", "test_path"):
        corpus[key] = _resolve(base, "corpus", corpus, key)

    generation = None
    if data.get("generation") is not None:
        section = _fields(data, "generation")
        for key in ("positive_template_path", "negative_template_path"):
            section[key] = _resolve(base, "generation", section, key)
        generation = _section("generation", GenerationConfig, section, _generation)

    projection = _fields(data, "projection")
    projection["precomputed_path"] = _resolve(base, "projection", projection, "precomputed_path")

    ga = _fields(data, "ga")
    if "lambda" in ga:
        ga["lambda_"] = ga.pop("lambda")

    client = _fields(data, "client")
    top = {key: data[key] for key in ("seed", "fitness_mode", "pool_sizes", "baseline_draws") if key in data}
    top.update((key, client.pop(key)) for key in ("chat_model", "embedding_model", "embedding_cache") if key in client)
    top["embedding_cache"] = _resolve(base, "client", top, "embedding_cache")

    evaluation = _fields(data, "evaluation")
    evaluation["instruction_template_path"] = _resolve(base, "evaluation", evaluation, "instruction_template_path")

    return _section(
        "config",
        PipelineConfig,
        dict(
            top,
            output_dir=_resolve(base, "config", data, "output_dir", optional=False),
            corpus=_section("corpus", CorpusConfig, corpus),
            generation=generation,
            projection=_section("projection", ProjectionConfig, projection),
            clustering=_section("clustering", ClusteringParams, _fields(data, "clustering")),
            ga=_section("ga", GAConfig, ga, _ga),
            transport=_section("client", TransportConfig, client),
            evaluation=_section("evaluation", EvaluationConfig, evaluation, _evaluation),
        ),
    )
