"""Stage-wise pipeline runner with manifest-backed resumption.

`run-all` runs six stages in a fixed order: pool, project, cluster,
pools, select, report. A seventh, baseline, runs after pools and reads
no artifact of select or report. Each stage writes byte-stable
artifacts under the output directory and names every file it writes
through `RunState.artifact`; the runner records exactly those files'
hashes in the manifest, under a key over what the stage reads
(`_stage_reads`) and the artifact hashes of the stages it chains on
(`CHAINS`). A stage whose key is unchanged and whose artifacts still
hash-match is loaded instead of re-executed.
Artifacts carry no timestamps and floats are written exactly (repr, or
raw float64 bytes in projection.f64), so a fixed seed reproduces files
byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from exsel.corpus import (
    DatasetError,
    Example,
    load_examples,
    observed_labels,
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
from exsel.pipeline.config import _PATHS, MODE_LLM, MODE_SURROGATE, ConfigError, PipelineConfig
from exsel.pipeline.manifest import RunManifest, file_sha256
from exsel.reduce.density import cluster
from exsel.reduce.pooling import ClusteredPool, build_pool, filter_noise
from exsel.reduce.projection import ProjectionError, load_precomputed, project
from exsel.seeding import derive_seed

STAGES = ("pool", "project", "cluster", "pools", "select", "report")
# the stages each stage's key chains on, which run before it, in order
CHAINS = {stage: STAGES[:i] for i, stage in enumerate(STAGES)} | {"baseline": STAGES[:4]}

_SURROGATE_EMBED_DIM = 32
_SURROGATE_EMBED_MODEL = "char-ngram-hash-32"
_PROJECTION_DTYPE = np.dtype("<f8")

T = TypeVar("T")


class PipelineError(RuntimeError):
    """A stage failed for a reason other than bad config or a client error."""


@dataclass
class RunState:
    """Everything a later stage needs from earlier ones, plus a lazy chat client over the run's transport."""

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
    written: list[Path] = field(default_factory=list)  # the running stage's artifacts, in the order it named them

    def artifact(self, relpath: str) -> Path:
        """`root / relpath`, its directory made, recorded as an artifact of the running stage."""
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(path)
        return path

    @cached_property
    def chat_client(self) -> LLMClient:
        return LLMClient(self.transport, self.config.transport)

    @cached_property
    def evaluation_set(self) -> tuple[str, list[Example]]:
        """What report and baseline score on, by name: the test file in llm mode when one is given, else validation."""
        if self.config.fitness_mode == MODE_LLM and self.config.corpus.test_path is not None:
            return "test", load_examples(self.config.corpus.test_path)
        return "validation", self.validation

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The labels every extraction prompt names: those of the candidates, then validation, in first-seen order."""
        return observed_labels(self.candidates + self.validation)

    def evaluation_settings(self) -> dict:
        """Keyword settings shared by every llm evaluation: GA fitness, report and zero-shot baseline."""
        return {"model": self.config.chat_model, "labels": self.labels, "settings": self.config.evaluation}

    def fitness_provider(self, pool: ClusteredPool, queries: list[Example] | None = None) -> Callable[[Genome], float]:
        """Fitness over `pool`; in llm mode, micro-F1 on `queries`, validation when None."""
        if self.config.fitness_mode == MODE_SURROGATE:
            return make_surrogate_provider(pool, derive_seed(self.config.seed, "surrogate"))
        settings = self.evaluation_settings()
        queries = self.validation if queries is None else queries
        return lambda genome: evaluate_genome_llm(genome, pool, queries, self.chat_client, **settings).fitness


def _write_json(path: Path, payload: object) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


# ---------------------------------------------------------------- pool

def _pool_run(state: RunState) -> None:
    cfg = state.config
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
    split_seed = derive_seed(cfg.seed, "split")
    state.candidates, state.validation = split_dataset(examples, cfg.corpus.n_validation, split_seed)
    save_examples(state.candidates, state.artifact("pool/candidates.jsonl"))
    save_examples(state.validation, state.artifact("pool/validation.jsonl"))
    if report is not None:
        _write_json(state.artifact("pool/generation_report.json"), report)


def _pool_load(state: RunState) -> None:
    out = state.root / "pool"
    state.candidates = load_examples(out / "candidates.jsonl")
    state.validation = load_examples(out / "validation.jsonl")


# ---------------------------------------------------------------- project

def _project_run(state: RunState) -> None:
    cfg = state.config
    if not state.candidates:
        raise PipelineError("no candidate examples to project")
    if cfg.projection.precomputed_path is not None:
        # imported vectors replace embedding and projection; no embedding call is made
        state.projected = load_precomputed(cfg.projection.precomputed_path)
        rows = len(state.projected)
        if rows != len(state.candidates):  # its width was checked at config load
            raise ProjectionError(f"precomputed file has {rows} rows for {len(state.candidates)} candidates")
    else:
        # the cache is read only here, and its rows are freed as soon as the matrix is built
        cache = EmbeddingCache(cfg.embedding_cache or state.root / "cache" / "embeddings.jsonl")
        client = LLMClient(state.transport, cfg.transport, embedding_cache=cache)
        matrix = client.embed_batch(state.embedding_model, [ex.text for ex in state.candidates])
        del cache, client
        state.projected = project(matrix, cfg.projection)
    state.artifact("reduce/projection.f64").write_bytes(state.projected.astype(_PROJECTION_DTYPE, copy=False).tobytes())


def _project_load(state: RunState) -> None:
    n, width = len(state.candidates), state.config.projection.target_dimension
    blob = (state.root / "reduce" / "projection.f64").read_bytes()
    if len(blob) != n * width * _PROJECTION_DTYPE.itemsize:
        raise PipelineError(f"projection artifact reduce/projection.f64 holds {len(blob)} bytes, not {n} x {width} x 8")
    state.projected = np.frombuffer(blob, _PROJECTION_DTYPE).reshape(n, width)


# ---------------------------------------------------------------- cluster

def _cluster_run(state: RunState) -> None:
    assert state.projected is not None
    labels = cluster(state.projected, state.config.clustering)
    state.assignment = labels
    lines = ["id\tcluster"]
    lines.extend(f"{ex.id}\t{int(label)}" for ex, label in zip(state.candidates, labels))
    state.artifact("reduce/assignment.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cluster_load(state: RunState) -> None:
    path = state.root / "reduce" / "assignment.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    labels = [int(line.rsplit("\t", 1)[1]) for line in lines[1:] if line]
    if len(labels) != len(state.candidates):
        raise PipelineError("assignment artifact does not match the candidate pool")
    state.assignment = np.asarray(labels, dtype=int)


# ---------------------------------------------------------------- pools

def _pools_run(state: RunState) -> None:
    assert state.assignment is not None
    cfg = state.config
    filtered = filter_noise(state.candidates, state.assignment)
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
        _write_json(state.artifact(f"pools/pool_k{k}.json"), payload)


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

def _select_run(state: RunState) -> None:
    cfg = state.config
    for k in cfg.pool_sizes:
        pool = state.candidate_pools[k]
        ga_cfg = dataclasses.replace(cfg.ga, seed=derive_seed(cfg.seed, "select", k))
        best, trace = evolve(pool, state.fitness_provider(pool), ga_cfg)
        state.best_genomes[k] = best
        state.best_fitness[k] = trace.records[-1].best_fitness

        trace.write_tsv(state.artifact(f"select/trace_k{k}.tsv"))

        examples = resolve_examples(best, pool)
        _write_json(
            state.artifact(f"select/best_genome_k{k}.json"),
            {
                "k": k,
                "fitness": state.best_fitness[k],
                "genes": [{"cluster": gene.cluster, "example": gene.example} for gene in best],
                "example_ids": [ex.id for ex in examples],
            },
        )
        state.artifact(f"select/prompt_k{k}.txt").write_text(render_fewshot_block(examples) + "\n", encoding="utf-8")


def _select_load(state: RunState) -> None:
    for k in state.config.pool_sizes:
        path = state.root / "select" / f"best_genome_k{k}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        genome = tuple(Gene(entry["cluster"], entry["example"]) for entry in payload["genes"])
        state.best_genomes[k] = genome
        state.best_fitness[k] = float(payload["fitness"])


# ---------------------------------------------------------------- report

def _report_run(state: RunState) -> None:
    cfg = state.config
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
            evaluated_on, queries = state.evaluation_set
            evaluation = evaluate_genome_llm(best, pool, queries, state.chat_client, **state.evaluation_settings())
            payload = {"k": k, "mode": MODE_LLM, "evaluated_on": evaluated_on, **evaluation.as_dict()}
        _write_json(state.artifact(f"report/metrics_k{k}.json"), payload)


# ---------------------------------------------------------------- baseline

def _baseline_run(state: RunState) -> None:
    cfg = state.config
    evaluated_on, queries = state.evaluation_set
    payload: dict = {"mode": cfg.fitness_mode, "n_draws": cfg.baseline_draws, "random": {}}
    for k, pool in state.candidate_pools.items():
        fitness = state.fitness_provider(pool, queries)
        seed = derive_seed(cfg.seed, "baseline", k)
        payload["random"][str(k)] = baseline_random(pool, cfg.ga.genome_length, cfg.baseline_draws, fitness, seed)
    if cfg.fitness_mode == MODE_LLM:
        payload["evaluated_on"] = evaluated_on
        payload["zeroshot"] = evaluate_fewshot((), queries, state.chat_client, **state.evaluation_settings()).as_dict()
    _write_json(state.artifact("baseline/baselines.json"), payload)


_STAGE_FNS: dict[str, tuple[Callable[[RunState], None], Callable[[RunState], None]]] = {
    "pool": (_pool_run, _pool_load),
    "project": (_project_run, _project_load),
    "cluster": (_cluster_run, _cluster_load),
    "pools": (_pools_run, _pools_load),
    "select": (_select_run, _select_load),
    "report": (_report_run, lambda state: None),
    "baseline": (_baseline_run, lambda state: None),
}


def _stage_reads(cfg: PipelineConfig, embedding_model: str) -> dict[str, tuple]:
    """What each stage reads besides its chain's artifacts: sections whole, their path fields
    by content (`_contents`), never by location, so an edited input reruns its readers and a moved tree nothing.
    Only the files some key holds are hashed."""
    corpus, llm = cfg.corpus, cfg.fitness_mode == MODE_LLM
    evaluating = (cfg.chat_model, *dataclasses.astuple(cfg.evaluation)) if llm else ()
    # a pool file is split as it is, its documents and their chunking unread; report and baseline read the test file
    if corpus.pool_path is not None:
        pool = (cfg.seed, file_sha256(corpus.pool_path), corpus.n_validation)
    else:
        documents = _contents("corpus", dataclasses.replace(corpus, test_path=None))
        pool = (cfg.seed, documents, (cfg.generation, cfg.chat_model))
    test = file_sha256(corpus.test_path) if llm and corpus.test_path is not None else None
    report = (cfg.seed, cfg.fitness_mode, cfg.pool_sizes, evaluating, test)
    return {
        "pool": pool,
        "project": (_contents("projection", cfg.projection), embedding_model),
        "cluster": (cfg.clustering,),
        "pools": (cfg.pool_sizes,),
        "select": (cfg.seed, cfg.fitness_mode, cfg.pool_sizes, cfg.ga, evaluating),
        "report": report,
        # of `ga`, a random draw reads the genome length alone
        "baseline": (*report, cfg.baseline_draws, cfg.ga.genome_length),
    }


def _contents(name: str, section: T) -> T:
    """Section `name` with each path field (config._PATHS) as the sha256 of its file, a list as a tuple in order."""
    paths = {f.name: getattr(section, f.name) for f in dataclasses.fields(section) if f"{name}.{f.name}" in _PATHS}
    digests = {k: tuple(map(file_sha256, v)) if isinstance(v, tuple) else v and file_sha256(v) for k, v in paths.items()}
    return dataclasses.replace(section, **digests)


def run_pipeline(
    config: PipelineConfig,
    *,
    through: str = "report",
    force: bool = False,
    transport: Transport | None = None,
    log: Callable[[str], None] | None = None,
) -> RunState:
    """Run stage `through` after the stages it chains on (`CHAINS`), resuming where possible.

    Client errors and config errors propagate unchanged; any other stage
    failure is wrapped in PipelineError naming the stage.
    """
    if through not in CHAINS:
        raise ValueError(f"unknown stage {through!r}; expected one of {tuple(CHAINS)}")
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
    for stage in (*CHAINS[through], through):
        run_fn, load_fn = _STAGE_FNS[stage]
        upstream = [item for earlier in CHAINS[stage] for item in manifest.stages[earlier]["artifacts"].items()]
        key = hashlib.sha256(repr((reads[stage], sorted(upstream))).encode("utf-8")).hexdigest()
        if not force and manifest.can_skip(stage, key):
            load_fn(state)
            state.skipped.append(stage)
            if log:
                log(f"[skip] {stage}")
        else:
            state.written = []
            start = time.perf_counter()
            try:
                run_fn(state)
            except (ClientError, ConfigError, PipelineError):
                raise
            except Exception as exc:
                raise PipelineError(f"stage {stage} failed: {exc}") from exc
            seconds = time.perf_counter() - start
            manifest.record_stage(stage, key, state.written, seconds)
            manifest.save()
            state.executed.append(stage)
            if log:
                log(f"[run ] {stage} ({seconds:.2f}s)")
    manifest.save()
    return state

