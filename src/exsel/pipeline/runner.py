"""Stage-wise pipeline runner with manifest-backed resumption.

Stages run in a fixed order: pool, project, cluster, pools, select,
report. Each stage writes byte-stable artifacts under the output
directory and records their hashes in the manifest, under a key over
what the stage reads (`_stage_reads`) and the artifact hashes of every
earlier stage. A stage whose key is unchanged and whose artifacts still
hash-match is loaded instead of re-executed.
Artifacts carry no timestamps and floats are written with repr, so a
fixed seed reproduces files byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from exsel.corpus import (
    DatasetError,
    Example,
    LabelSchema,
    load_examples,
    sample_chunks,
    save_examples,
    split_dataset,
)
from exsel.evolve import Gene, Genome, evolve
from exsel.fitness import (
    evaluate_fewshot,
    evaluate_genome_llm,
    make_surrogate_provider,
    render_fewshot_block,
    resolve_examples,
)
from exsel.generate import generate_pool
from exsel.llm.cache import EmbeddingCache
from exsel.llm.client import HttpTransport, LLMClient
from exsel.llm.mock import HashingEmbeddingTransport
from exsel.llm.transport import ClientError, Transport
from exsel.pipeline.baselines import baseline_random
from exsel.pipeline.config import MODE_LLM, MODE_SURROGATE, ConfigError, PipelineConfig
from exsel.pipeline.manifest import RunManifest, file_sha256
from exsel.reduce.density import cluster
from exsel.reduce.pooling import ClusteredPool, build_pool, filter_noise
from exsel.reduce.projection import METHOD_PRECOMPUTED, ProjectionError, load_precomputed, project
from exsel.seeding import derive_seed

STAGES = ("pool", "project", "cluster", "pools", "select", "report")

_SURROGATE_EMBED_DIM = 32
_SURROGATE_EMBED_MODEL = "char-ngram-hash-32"


class PipelineError(RuntimeError):
    """A stage failed for a reason other than bad config or a client error."""


@dataclass
class RunState:
    """Everything a later stage needs from earlier ones, plus lazy clients over the run's transport."""

    config: PipelineConfig
    root: Path
    transport: Transport
    embedding_model: str
    candidates: list[Example] = field(default_factory=list)
    validation: list[Example] = field(default_factory=list)
    projected: np.ndarray | None = None
    assignment: np.ndarray | None = None
    candidate_pools: dict[int, ClusteredPool] = field(default_factory=dict)
    best_genomes: dict[int, Genome] = field(default_factory=dict)
    best_fitness: dict[int, float] = field(default_factory=dict)
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @cached_property
    def embedding_client(self) -> LLMClient:
        # only this client loads the on-disk cache, so a chat-only resume never reads it
        cache = EmbeddingCache(self.config.embedding_cache or self.root / "cache" / "embeddings.jsonl")
        return LLMClient(self.transport, self.config.transport, embedding_cache=cache)

    @cached_property
    def chat_client(self) -> LLMClient:
        return LLMClient(self.transport, self.config.transport)

    def evaluation_settings(self) -> dict:
        """Keyword settings shared by every llm evaluation: GA fitness, report and zero-shot baseline."""
        cfg = self.config
        return {
            "model": cfg.chat_model,
            "schema": LabelSchema.from_examples(self.candidates + self.validation),
            "settings": cfg.evaluation,
        }

    def fitness_provider(self, pool: ClusteredPool) -> Callable[[Genome], float]:
        if self.config.fitness_mode == MODE_SURROGATE:
            return make_surrogate_provider(pool, derive_seed(self.config.seed, "surrogate"))
        settings = self.evaluation_settings()
        return lambda genome: evaluate_genome_llm(genome, pool, self.validation, self.chat_client, **settings).fitness


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    # one row at a time: a whole-matrix tolist() holds every float as a Python object at once
    lines = ["\t".join(map(repr, row.tolist())) for row in matrix]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- pool

def _pool_run(state: RunState) -> list[Path]:
    cfg = state.config
    out = state.root / "pool"
    out.mkdir(parents=True, exist_ok=True)
    report = None
    if cfg.corpus.pool_path is not None:
        examples = load_examples(cfg.corpus.pool_path)
    else:
        assert cfg.generation is not None  # enforced by config validation
        chunks: list[str] = []
        for index, doc_path in enumerate(cfg.corpus.documents):
            text = Path(doc_path).read_text(encoding="utf-8")
            if not text:
                raise DatasetError(f"corpus document {doc_path} is empty")
            seed = derive_seed(cfg.seed, "chunks", index)
            chunks.extend(sample_chunks(text, cfg.corpus.chunk_size, cfg.corpus.n_chunks, seed))
        examples, report = generate_pool(
            cfg.generation,
            chunks,
            state.chat_client,
            model=cfg.chat_model,
            seed=derive_seed(cfg.seed, "generate"),
        )
    split = split_dataset(examples, cfg.corpus.n_validation, derive_seed(cfg.seed, "split"))
    state.candidates = list(split.candidates)
    state.validation = list(split.validation)
    save_examples(state.candidates, out / "candidates.jsonl")
    save_examples(state.validation, out / "validation.jsonl")
    artifacts = [out / "candidates.jsonl", out / "validation.jsonl"]
    if report is not None:
        _write_json(out / "generation_report.json", report.as_dict())
        artifacts.append(out / "generation_report.json")
    return artifacts


def _pool_load(state: RunState) -> None:
    out = state.root / "pool"
    state.candidates = load_examples(out / "candidates.jsonl")
    state.validation = load_examples(out / "validation.jsonl")


# ---------------------------------------------------------------- project

def _project_run(state: RunState) -> list[Path]:
    cfg = state.config
    if not state.candidates:
        raise PipelineError("no candidate examples to project")
    out = state.root / "reduce"
    out.mkdir(parents=True, exist_ok=True)
    if cfg.projection.method == METHOD_PRECOMPUTED:
        # imported vectors replace embedding and projection; no embedding call is made
        state.projected = load_precomputed(cfg.projection.precomputed_path)
        rows, width = state.projected.shape
        if rows != len(state.candidates):
            raise ProjectionError(f"precomputed file has {rows} rows for {len(state.candidates)} candidates")
        if width != cfg.projection.target_dimension:
            raise ProjectionError(
                f"precomputed vectors have dimension {width}, expected {cfg.projection.target_dimension}"
            )
    else:
        texts = [ex.text for ex in state.candidates]
        matrix = state.embedding_client.embed_batch(state.embedding_model, texts)
        state.projected = project(matrix, cfg.projection)
    path = out / "projection.tsv"
    _write_matrix(path, state.projected)
    return [path]


def _project_load(state: RunState) -> None:
    state.projected = load_precomputed(state.root / "reduce" / "projection.tsv")
    if state.projected.shape[0] != len(state.candidates):
        raise PipelineError("projection artifact does not match the candidate pool")


# ---------------------------------------------------------------- cluster

def _cluster_run(state: RunState) -> list[Path]:
    assert state.projected is not None
    labels = cluster(state.projected, state.config.clustering)
    state.assignment = labels
    out = state.root / "reduce"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "assignment.tsv"
    lines = ["id\tcluster"]
    lines.extend(f"{ex.id}\t{int(label)}" for ex, label in zip(state.candidates, labels))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]


def _cluster_load(state: RunState) -> None:
    path = state.root / "reduce" / "assignment.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    labels = [int(line.rsplit("\t", 1)[1]) for line in lines[1:] if line]
    if len(labels) != len(state.candidates):
        raise PipelineError("assignment artifact does not match the candidate pool")
    state.assignment = np.asarray(labels, dtype=int)


# ---------------------------------------------------------------- pools

def _pools_run(state: RunState) -> list[Path]:
    assert state.assignment is not None
    cfg = state.config
    filtered = filter_noise(state.candidates, state.assignment)
    out = state.root / "pools"
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for k in cfg.pool_sizes:
        selected = build_pool(filtered, k)
        pool = filtered.restrict(selected)
        state.candidate_pools[k] = pool
        payload = {
            "k": k,
            "n_clusters": pool.n_clusters,
            "selected": [
                {
                    "index": index,
                    "id": pool.examples[index].id,
                    "cluster": int(filtered.assignment[index]),
                }
                for index in selected
            ],
        }
        path = out / f"pool_k{k}.json"
        _write_json(path, payload)
        artifacts.append(path)
    return artifacts


def _pools_load(state: RunState) -> None:
    assert state.assignment is not None
    cfg = state.config
    filtered = filter_noise(state.candidates, state.assignment)
    for k in cfg.pool_sizes:
        path = state.root / "pools" / f"pool_k{k}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        selected = tuple(entry["index"] for entry in payload["selected"])
        pool = filtered.restrict(selected)
        if len(selected) != min(k, len(pool.examples)) or any(
            pool.examples[entry["index"]].id != entry["id"] for entry in payload["selected"]
        ):
            raise PipelineError(f"pool artifact pool_k{k}.json does not match the candidate pool")
        state.candidate_pools[k] = pool


# ---------------------------------------------------------------- select

def _select_run(state: RunState) -> list[Path]:
    cfg = state.config
    out = state.root / "select"
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for k in cfg.pool_sizes:
        pool = state.candidate_pools[k]
        ga_cfg = dataclasses.replace(cfg.ga, seed=derive_seed(cfg.seed, "select", k))
        best, trace = evolve(pool, state.fitness_provider(pool), ga_cfg)
        state.best_genomes[k] = best
        state.best_fitness[k] = trace.records[-1].best_fitness

        trace_path = out / f"trace_k{k}.tsv"
        trace.write_tsv(trace_path)

        examples = resolve_examples(best, pool)
        genome_path = out / f"best_genome_k{k}.json"
        _write_json(
            genome_path,
            {
                "k": k,
                "fitness": state.best_fitness[k],
                "genes": [{"cluster": gene.cluster, "example": gene.example} for gene in best],
                "example_ids": [ex.id for ex in examples],
            },
        )
        prompt_path = out / f"prompt_k{k}.txt"
        prompt_path.write_text(render_fewshot_block(examples) + "\n", encoding="utf-8")
        artifacts.extend([trace_path, genome_path, prompt_path])
    return artifacts


def _select_load(state: RunState) -> None:
    for k in state.config.pool_sizes:
        path = state.root / "select" / f"best_genome_k{k}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        genome = tuple(Gene(entry["cluster"], entry["example"]) for entry in payload["genes"])
        state.best_genomes[k] = genome
        state.best_fitness[k] = float(payload["fitness"])


# ---------------------------------------------------------------- report

def _report_run(state: RunState) -> list[Path]:
    cfg = state.config
    out = state.root / "report"
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    test_examples = None
    if cfg.fitness_mode == MODE_LLM and cfg.corpus.test_path is not None:
        test_examples = load_examples(cfg.corpus.test_path)
    for k in cfg.pool_sizes:
        pool = state.candidate_pools[k]
        best = state.best_genomes[k]
        if cfg.fitness_mode == MODE_SURROGATE:
            payload = {
                "k": k,
                "mode": MODE_SURROGATE,
                "fitness": state.fitness_provider(pool)(best),
                "distinct_clusters": len({gene.cluster for gene in best}),
                "genome_length": len(best),
                "example_ids": [ex.id for ex in resolve_examples(best, pool)],
            }
        else:
            eval_set = test_examples if test_examples is not None else state.validation
            evaluation = evaluate_genome_llm(best, pool, eval_set, state.chat_client, **state.evaluation_settings())
            payload = {
                "k": k,
                "mode": MODE_LLM,
                "evaluated_on": "test" if test_examples is not None else "validation",
                **evaluation.as_dict(),
            }
        path = out / f"metrics_k{k}.json"
        _write_json(path, payload)
        artifacts.append(path)
    return artifacts


def _report_load(state: RunState) -> None:
    return None


_STAGE_FNS: dict[str, tuple[Callable[[RunState], list[Path]], Callable[[RunState], None]]] = {
    "pool": (_pool_run, _pool_load),
    "project": (_project_run, _project_load),
    "cluster": (_cluster_run, _cluster_load),
    "pools": (_pools_run, _pools_load),
    "select": (_select_run, _select_load),
    "report": (_report_run, _report_load),
}


def _stage_reads(cfg: PipelineConfig, embedding_model: str) -> dict[str, tuple]:
    """What each stage reads besides earlier stages' artifacts, in STAGES order.

    Sections are listed whole and input files by content digest, so an
    in-place edit of a pool, document, imported-vector or test file counts.
    """
    corpus = cfg.corpus
    llm = cfg.fitness_mode == MODE_LLM
    evaluating = (cfg.chat_model, *dataclasses.astuple(cfg.evaluation)) if llm else ()
    return {
        "pool": (cfg.seed, corpus, cfg.generation, cfg.chat_model, _digests(corpus.pool_path, *corpus.documents)),
        "project": (cfg.projection, embedding_model, _digests(cfg.projection.precomputed_path)),
        "cluster": (cfg.clustering,),
        "pools": (cfg.pool_sizes,),
        "select": (cfg.seed, cfg.fitness_mode, cfg.pool_sizes, cfg.ga, evaluating),
        "report": (cfg.seed, cfg.fitness_mode, cfg.pool_sizes, corpus, evaluating, _digests(corpus.test_path)),
    }


def _digests(*paths: str | None) -> list[str]:
    return [file_sha256(Path(path)) for path in paths if path]


def run_pipeline(
    config: PipelineConfig,
    *,
    through: str = "report",
    force: bool = False,
    transport: Transport | None = None,
    log: Callable[[str], None] | None = None,
) -> RunState:
    """Run stages up to and including `through`, resuming where possible.

    Client errors and config errors propagate unchanged; any other stage
    failure is wrapped in PipelineError naming the stage.
    """
    if through not in STAGES:
        raise ValueError(f"unknown stage {through!r}; expected one of {STAGES}")
    root = Path(config.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.load(root)
    # the built-in hasher always answers to its own name, whatever the config says
    embedding_model = config.embedding_model or _SURROGATE_EMBED_MODEL
    if transport is None and config.fitness_mode == MODE_SURROGATE:
        transport = HashingEmbeddingTransport(dimension=_SURROGATE_EMBED_DIM)
        embedding_model = _SURROGATE_EMBED_MODEL
    elif transport is None:
        transport = HttpTransport(config.transport)
    state = RunState(config=config, root=root, transport=transport, embedding_model=embedding_model)
    reads = _stage_reads(config, embedding_model)
    upstream: list[tuple[str, str]] = []
    for stage in STAGES:
        run_fn, load_fn = _STAGE_FNS[stage]
        key = hashlib.sha256(repr((reads[stage], sorted(upstream))).encode("utf-8")).hexdigest()
        if not force and manifest.can_skip(stage, key):
            load_fn(state)
            state.skipped.append(stage)
            if log:
                log(f"[skip] {stage}")
        else:
            start = time.perf_counter()
            try:
                artifacts = run_fn(state)
            except (ClientError, ConfigError, PipelineError):
                raise
            except Exception as exc:
                raise PipelineError(f"stage {stage} failed: {exc}") from exc
            seconds = time.perf_counter() - start
            manifest.record_stage(stage, key, artifacts, seconds)
            manifest.save()
            state.executed.append(stage)
            if log:
                log(f"[run ] {stage} ({seconds:.2f}s)")
        upstream.extend(manifest.stages[stage]["artifacts"].items())
        if stage == through:
            break
    manifest.save()
    return state


def run_baselines(
    config: PipelineConfig,
    *,
    force: bool = False,
    transport: Transport | None = None,
    log: Callable[[str], None] | None = None,
) -> dict:
    """Random-draw (and, in llm mode, zero-shot) reference scores per pool size.

    Reuses completed stages through pool construction (unless `force`),
    then writes baseline/baselines.json. Not a manifest stage: reruns
    overwrite.
    """
    state = run_pipeline(config, through="pools", force=force, transport=transport, log=log)
    cfg = state.config
    payload: dict = {"mode": cfg.fitness_mode, "n_draws": cfg.baseline_draws, "random": {}}
    for k in cfg.pool_sizes:
        pool = state.candidate_pools[k]
        summary = baseline_random(
            pool,
            cfg.ga.genome_length,
            cfg.baseline_draws,
            state.fitness_provider(pool),
            derive_seed(cfg.seed, "baseline", k),
        )
        payload["random"][str(k)] = summary.as_dict()
    if cfg.fitness_mode == MODE_LLM:
        evaluation = evaluate_fewshot((), state.validation, state.chat_client, **state.evaluation_settings())
        payload["zeroshot"] = evaluation.as_dict()
    out = state.root / "baseline"
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "baselines.json", payload)
    return payload
