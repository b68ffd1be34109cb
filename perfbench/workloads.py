"""Workload inputs, one timed pipeline run, and the output fingerprint that gates it.

A workload builds every input from its seed: the surrogate fixture is a
topic-labelled example pool, the llm fixture a topic corpus that the
benchmark's mock model generates candidates from. The program sees only
the files and the config; it is driven through `run_pipeline` and the
`Transport` protocol.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from exsel.corpus import Example, save_examples
from exsel.pipeline import load_config, run_pipeline

from model import TOPIC_VOCAB, BenchModel, InjectedCrash
from probes import Tracer

SURROGATE = "surrogate"
LLM = "llm"
RESUME_SKIPS = ["pool", "project", "cluster", "pools"]
MAX_IN_FLIGHT = 2  # client threads; the benchmark machine has 2 cores


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    n_topics: int
    pool_sizes: tuple[int, ...]
    n_validation: int
    ga: dict
    epsilon: float
    per_topic: int = 0  # surrogate: examples per topic in the fixture pool
    n_generate: int = 0  # llm: candidates the model is asked to generate
    latency_s: float = 0.0
    transient_share: float = 0.0
    malformed_share: float = 0.0
    crash_after: int | None = None  # llm-resume: chat calls before the injected crash


_SURROGATE_GA = {"mu": 80, "lambda": 180, "max_generations": 20, "genome_length": 5, "warmup": 5, "patience": 5}
# Every llm run makes all its generations (warmup above max_generations), and
# no offspring is a plain clone (p_cx + p_mut = 1): a genome already
# evaluated costs no chat call, so clones and a converged population would
# make the paid work vary from seed to seed.
_LLM_GA = {
    "mu": 48, "lambda": 48, "max_generations": 2, "p_cx": 0.3, "p_mut": 0.7,
    "genome_length": 5, "warmup": 5, "patience": 5,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="surrogate-6k",
            why="6,720-example surrogate run-all, cold cache: reduce (hashing, SVD, Prim MST) does the work, no chat call",
            mode=SURROGATE, n_topics=12, per_topic=560, n_validation=100,
            pool_sizes=(500, 5000), ga=_SURROGATE_GA, epsilon=0.4,
        ),
        Workload(
            name="llm-mock",
            why="llm mode through a 2 ms mock model: client, fitness and evolve dominate; few repeated prompts",
            mode=LLM, n_topics=8, n_generate=960, n_validation=40, pool_sizes=(200,), ga=_LLM_GA,
            epsilon=0.4, latency_s=0.002, transient_share=0.01, malformed_share=0.015,
        ),
        Workload(
            name="llm-resume",
            why="llm-mock with a crash inside select, then a rerun: runner, manifest and corpus read artifacts back",
            mode=LLM, n_topics=8, n_generate=960, n_validation=40, pool_sizes=(200,), ga=_LLM_GA,
            epsilon=0.4, latency_s=0.002, transient_share=0.01, malformed_share=0.015, crash_after=2800,
        ),
    )
}


# ------------------------------------------------------------ inputs

def make_topic_examples(n_topics: int, per_topic: int, seed: int, words_per_text: int = 12) -> list[Example]:
    """The acceptance-10 fixture: same-topic texts share vocabulary, every fourth is a negative.

    Kept here rather than imported from the tests so the benchmark's
    inputs cannot change when the tests do.
    """
    rng = random.Random(seed)
    examples = []
    uid = 0
    for topic in range(n_topics):
        vocab = TOPIC_VOCAB[topic]
        for i in range(per_topic):
            words = rng.choices(vocab, k=words_per_text)
            text = " ".join(words) + f" item {uid:05d}"
            entities = {} if i % 4 == 3 else {"term": [words[0]]}
            examples.append(Example(id=f"t{topic:02d}-{i:04d}", text=text, entities=entities))
            uid += 1
    return examples


_CHUNK = 400
_CHUNKS_PER_TOPIC = 6


def make_topic_document(n_topics: int, seed: int) -> str:
    """A corpus of fixed-width single-topic chunks, so every sampled chunk has one topic."""
    rng = random.Random(seed)
    chunks = []
    for topic in range(n_topics):
        for _ in range(_CHUNKS_PER_TOPIC):
            words = []
            while len(" ".join(words)) < _CHUNK:
                words.append(rng.choice(TOPIC_VOCAB[topic]))
            chunks.append(" ".join(words)[: _CHUNK - 1] + "\n")
    rng.shuffle(chunks)
    return "".join(chunks)


def config_payload(w: Workload, inputs: Path, out_dir: Path, seed: int) -> dict:
    payload = {
        "seed": seed,
        "output_dir": str(out_dir),
        "fitness_mode": w.mode,
        "projection": {"target_dimension": 20},
        "clustering": {"min_cluster_size": 9, "min_samples": 1, "cluster_selection_epsilon": w.epsilon},
        "pool_sizes": list(w.pool_sizes),
        "ga": dict(w.ga),
        "client": {
            "max_in_flight": MAX_IN_FLIGHT,
            "max_retries": 3,
            "backoff_base_s": 0.001,
            "backoff_cap_s": 0.004,
        },
    }
    if w.mode == SURROGATE:
        payload["corpus"] = {"pool_path": str(inputs / "pool.jsonl"), "n_validation": w.n_validation}
    else:
        payload["corpus"] = {
            "documents": [str(inputs / "corpus.txt")],
            "n_validation": w.n_validation,
            "chunk_size": _CHUNK,
            "n_chunks": 48,
        }
        payload["generation"] = {"n_total": w.n_generate, "batch_size": 20, "labels": ["term"]}
        payload["client"].update({"chat_model": "bench-mock", "embedding_model": "char-ngram-hash-32"})
    return payload


def write_inputs(w: Workload, inputs: Path, out_dir: Path, seed: int) -> Path:
    """Write the fixture and the config; returns the config path."""
    inputs.mkdir(parents=True, exist_ok=True)
    if w.mode == SURROGATE:
        save_examples(make_topic_examples(w.n_topics, w.per_topic, seed), inputs / "pool.jsonl")
    else:
        (inputs / "corpus.txt").write_text(make_topic_document(w.n_topics, seed), encoding="utf-8")
    path = inputs / "config.yaml"
    path.write_text(yaml.safe_dump(config_payload(w, inputs, out_dir, seed), sort_keys=False), encoding="utf-8")
    return path


# ------------------------------------------------------------ one run

@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    models: list[BenchModel] = field(default_factory=list)
    runs: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    missing_probes: list[str] = field(default_factory=list)


def _new_model(w: Workload, crash_after: int | None = None) -> BenchModel:
    return BenchModel(w.latency_s, w.transient_share, w.malformed_share, crash_after=crash_after)


def _caused_by(exc: BaseException, kind: type) -> bool:
    while exc is not None:
        if isinstance(exc, kind):
            return True
        exc = exc.__cause__ or exc.__context__
    return False


def run_once(w: Workload, config_path: Path, out_dir: Path, traced: bool) -> Rep:
    """One cold pipeline run (for llm-resume: the crashed run plus the rerun)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    rep = Rep(traced=traced)
    tracer = Tracer()
    with tracer.installed() if traced else nullcontext():
        start = time.perf_counter()
        try:
            config = load_config(config_path)
            if w.crash_after is not None:
                model = tracer.model = _new_model(w, w.crash_after)
                rep.models.append(model)
                rep.runs += 1
                try:
                    run_pipeline(config, transport=model)
                    rep.failures.append("the injected crash did not happen")
                except Exception as exc:  # the crash is expected; anything else is a failure
                    if not _caused_by(exc, InjectedCrash):
                        rep.failures.append(f"crashed run failed otherwise: {exc!r}")
            model = tracer.model = _new_model(w)
            rep.models.append(model)
            rep.runs += 1
            state = run_pipeline(config, transport=model)
        except Exception as exc:
            rep.wall_s = time.perf_counter() - start
            rep.failures.append(f"pipeline failed: {exc!r}")
            return rep
        rep.wall_s = time.perf_counter() - start
    rep.spans = tracer.spans
    rep.missing_probes = tracer.missing
    if w.crash_after is not None and state.skipped != RESUME_SKIPS:
        rep.failures.append(f"rerun skipped {state.skipped}, expected {RESUME_SKIPS}")
    try:
        rep.fingerprint = fingerprint(out_dir, rep.models)
        rep.failures.extend(check_outputs(w, out_dir, rep.fingerprint, state.best_fitness))
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        rep.stage_seconds = {name: rec["seconds"] for name, rec in manifest["stages"].items()}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rep.failures.append(f"unreadable outputs: {exc!r}")
    return rep


# ------------------------------------------------------------ output gate

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gated_files(out_dir: Path) -> list[Path]:
    files = [out_dir / "reduce" / "assignment.tsv"]
    for pattern in ("pools/pool_k*.json", "select/trace_k*.tsv", "select/best_genome_k*.json"):
        files.extend(sorted(out_dir.glob(pattern)))
    return files


def _trace_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line]


def fingerprint(out_dir: Path, models: list[BenchModel]) -> dict:
    """Artifact hashes, best fitness per k and the counts that must repeat exactly."""
    artifacts = {str(p.relative_to(out_dir)): _sha256(p) for p in gated_files(out_dir)}
    best = {}
    for path in sorted(out_dir.glob("select/best_genome_k*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        best[str(payload["k"])] = payload["fitness"]
    rows = [row for path in sorted(out_dir.glob("select/trace_k*.tsv")) for row in _trace_rows(path)]
    labels = [line.rsplit("\t", 1)[1] for line in
              (out_dir / "reduce" / "assignment.tsv").read_text(encoding="utf-8").splitlines()[1:] if line]
    cache_lines = sum(
        1 for path in (out_dir / "cache").glob("*.jsonl")
        for line in path.read_text(encoding="utf-8").splitlines() if line
    )
    prompts = set().union(*(m.prompts for m in models))
    return {
        "artifacts": artifacts,
        "best_fitness": best,
        "counts": {
            "paid_calls": sum(m.paid_calls for m in models),
            "client.chat_calls": sum(m.chat_calls for m in models),
            "client.distinct_prompts": len(prompts),
            "client.retries": sum(m.transient_faults for m in models),
            "evolve.generations": len(rows),
            "evolve.evaluations": sum(int(row[5]) for row in rows),
            "density.n_clusters": len({lab for lab in labels if lab != "-1"}),
            "density.noise": sum(1 for lab in labels if lab == "-1"),
            "cache.puts": cache_lines,
        },
    }


def check_outputs(w: Workload, out_dir: Path, fp: dict, best_fitness: dict) -> list[str]:
    """Checks that hold for any seed: files present, traces monotone and agreeing with the best genome."""
    problems = []
    for k in w.pool_sizes:
        for rel in (f"pools/pool_k{k}.json", f"select/trace_k{k}.tsv", f"select/best_genome_k{k}.json"):
            if rel not in fp["artifacts"]:
                problems.append(f"missing artifact {rel}")
        if f"select/trace_k{k}.tsv" not in fp["artifacts"] or str(k) not in fp["best_fitness"]:
            continue
        column = [float(row[2]) for row in _trace_rows(out_dir / "select" / f"trace_k{k}.tsv")]
        if any(b < a for a, b in zip(column, column[1:])):
            problems.append(f"k={k}: best fitness decreases in the trace")
        if not column or column[-1] != fp["best_fitness"][str(k)] or best_fitness.get(k) != column[-1]:
            problems.append(f"k={k}: best genome fitness disagrees with the trace")
    if fp["counts"]["density.n_clusters"] < 1:
        problems.append("clustering found no cluster")
    if w.mode == SURROGATE and fp["counts"]["client.chat_calls"] != 0:
        problems.append("surrogate run made chat calls")
    return problems


def compare_fingerprints(label: str, want: dict, got: dict, keys=("artifacts", "best_fitness", "counts")) -> list[str]:
    problems = []
    for key in keys:
        expected, actual = want.get(key, {}), got.get(key, {})
        for name in sorted(set(expected) | set(actual)):
            if expected.get(name) != actual.get(name):
                problems.append(f"{label}: {key} {name} is {actual.get(name)!r}, expected {expected.get(name)!r}")
    return problems
