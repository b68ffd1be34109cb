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
from typing import Callable, TypeVar, get_args, get_type_hints

import yaml

from exsel.corpus import load_examples
from exsel.evolve import GAConfig
from exsel.fitness import EvaluationConfig
from exsel.generate import GenerationConfig
from exsel.llm.transport import TransportConfig
from exsel.reduce.density import ClusteringParams
from exsel.reduce.projection import ProjectionConfig, load_precomputed
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
            if not self.embedding_model and self.projection.precomputed_path is None:
                raise ConfigError("llm mode requires client.embedding_model unless projection.precomputed_path is set")
            if self.corpus.n_validation < 1:
                raise ConfigError("llm mode requires corpus.n_validation >= 1")
        if self.corpus.pool_path is None and self.generation is None:
            raise ConfigError("generation section is required when generating from documents")
        inputs = [("corpus", path) for path in (*self.corpus.documents, self.corpus.pool_path, self.corpus.test_path)]
        for section, path in [*inputs, ("projection", self.projection.precomputed_path)]:
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{section}: no such file: {path}")
        if self.projection.precomputed_path is not None:  # the row count needs the candidates: `project` checks it
            dimension = self.projection.target_dimension
            try:  # every row, so a bad one fails here and not after the paid pool stage
                width = load_precomputed(self.projection.precomputed_path).shape[1]
            except ValueError as exc:  # a ProjectionError, or bytes that are not UTF-8
                raise ConfigError(f"projection.precomputed_path: {exc}") from exc
            if width != dimension:
                raise ConfigError(f"projection.precomputed_path is {width} wide, not target_dimension {dimension}")
        if self.fitness_mode == MODE_LLM and self.corpus.test_path is not None:  # read now, not after select
            try:
                examples = load_examples(self.corpus.test_path)
            except ValueError as exc:  # a DatasetError, or bytes that are not UTF-8
                raise ConfigError(f"corpus.test_path: {exc}") from exc
            if not examples:
                raise ConfigError(f"corpus.test_path: {self.corpus.test_path} holds no example")
        if Path(self.output_dir).is_file():
            raise ConfigError(f"output_dir {self.output_dir} is a file, not a directory")
        cache = self.embedding_cache  # checked here, not where the project stage opens it after the paid pool stage
        if cache is not None and (Path(cache).is_dir() or Path(cache).suffix == ".f64"):
            raise ConfigError(f"client.embedding_cache {cache} must name a file not ending in .f64")


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


def load_config(path: Path | str) -> PipelineConfig:
    """Parse, env-interpolate, and validate a pipeline config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
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


_PATHS = {  # the path fields, named as in errors
    "config.output_dir", "corpus.documents", "corpus.pool_path", "corpus.test_path", "projection.precomputed_path",
    "generation.positive_template_path", "generation.negative_template_path", "client.embedding_cache",
    "evaluation.instruction_template_path",
}


def _typed(where: str, hint: object, value: object, base: Path) -> object:
    """Field `where`'s `value`, read by the rule for its annotation `hint` (README "Config"); under any other hint,
    a nested section, it passes through. A field in `_PATHS` holds paths, each made absolute against `base`."""
    noun = "path string" if where in _PATHS else "string"
    if hint in (tuple[int, ...], tuple[str, ...]):
        item = get_args(hint)[0]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list of {'integer' if item is int else noun}s, got {value!r}")
        return tuple(_typed(where, item, each, base) for each in value)
    if hint in (str, str | None):
        if value is None and hint != str:
            return None
        if not isinstance(value, (str, os.PathLike)):
            raise ConfigError(f"{where} must be a {noun}, got {value!r}")
        return str(base / value) if where in _PATHS else os.fspath(value)  # an absolute value replaces base
    if hint not in (int, float):
        return value
    kinds = (int,) if hint is int else (int, float)  # a bool is neither
    if type(value) in kinds:
        return value
    if isinstance(value, str):  # env-interpolated values are strings
        for parse in kinds:
            with contextlib.suppress(ValueError):
                return parse(value)
    raise ConfigError(f"{where} must be {'an integer' if hint is int else 'a number'}, got {value!r}")


def _section(name: str, cls: type[T], data: dict, base: Path, build: Callable[..., T] | None = None) -> T:
    """Build section `name` as dataclass `cls` (through `build` if given) from `data`, each field read by `_typed`
    with its annotation in `cls` or `build`; errors name the section, or the field."""
    hints = get_type_hints(cls) | (get_type_hints(build) if build else {})
    data = {key: _typed(f"{name}.{key}", hints.get(key), value, base) for key, value in data.items()}
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
    templates = {
        f"{stream}_prompt_template": load_template(f"{stream}_template_path", path, text, chunk="", count=0, labels="")
        for stream, path, text in (
            ("positive", positive_template_path, POSITIVE_GENERATION_TEMPLATE),
            ("negative", negative_template_path, NEGATIVE_GENERATION_TEMPLATE),
        )
    }
    return GenerationConfig(**templates, **fields)


def _ga(seed: int = 0, **fields) -> GAConfig:
    """The `ga` section; the GA's seed is derived from the top-level seed for each k, so none is set here."""
    if seed != 0:
        raise ValueError(f"seed {seed} would be ignored; each k's GA seed is derived from the top-level seed")
    return GAConfig(**fields)


def _evaluation(instruction_template_path: str | None = None, **fields) -> EvaluationConfig:
    """The `evaluation` section; its instruction template comes only from the `instruction_template_path` file."""
    path, default = instruction_template_path, EXTRACTION_INSTRUCTION_TEMPLATE
    return EvaluationConfig(load_template("instruction_template_path", path, default, labels=""), **fields)


def config_from_dict(raw: dict, base: Path) -> PipelineConfig:
    data = dict(raw)
    sections = ("corpus", "generation", "projection", "clustering", "ga", "client", "evaluation")
    unknown = set(data) - {*sections, "seed", "output_dir", "fitness_mode", "pool_sizes", "baseline_draws"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "output_dir" not in data:
        raise ConfigError("output_dir is required")

    generation = None
    if data.get("generation") is not None:
        generation = _section("generation", GenerationConfig, _fields(data, "generation"), base, _generation)

    ga = _fields(data, "ga")
    if "lambda" in ga:
        ga["lambda_"] = ga.pop("lambda")

    client = _fields(data, "client")
    # three PipelineConfig fields that YAML writes under client; build=dict returns them typed and resolved
    moved = {key: client.pop(key) for key in ("chat_model", "embedding_model", "embedding_cache") if key in client}
    top = {key: value for key, value in data.items() if key not in sections}
    top.update(_section("client", PipelineConfig, moved, base, dict))

    return _section(
        "config",
        PipelineConfig,
        dict(
            top,
            corpus=_section("corpus", CorpusConfig, _fields(data, "corpus"), base),
            generation=generation,
            projection=_section("projection", ProjectionConfig, _fields(data, "projection"), base),
            clustering=_section("clustering", ClusteringParams, _fields(data, "clustering"), base),
            ga=_section("ga", GAConfig, ga, base, _ga),
            transport=_section("client", TransportConfig, client, base),
            evaluation=_section("evaluation", EvaluationConfig, _fields(data, "evaluation"), base, _evaluation),
        ),
        base,
    )
