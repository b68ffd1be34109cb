"""Spans around the calls into each exsel layer, recorded from outside the program.

`Tracer.installed()` swaps each probed function for a wrapper that
records a span (id, name, start, end, parent, attributes) and restores
the originals on exit. Spans stay in memory until the benchmark writes
them out. A probe whose target no longer exists is skipped and listed
in `Tracer.missing`, so a refactor of the program degrades the per-layer
numbers to zero instead of breaking the benchmark.

Only the main thread nests spans. A span opened on a client worker
thread takes the main thread's open span as its parent and has no
children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from exsel.llm import cache as cache_mod
from exsel.llm import client as client_mod
from exsel.llm import mock as mock_mod
from exsel.pipeline import manifest as manifest_mod
from exsel.pipeline import runner as runner_mod
from exsel.reduce import density as density_mod


def _arguments(fn: Callable) -> Callable[..., dict]:
    """A function mapping one call's arguments to fn's parameter names."""
    signature = inspect.signature(fn)
    return lambda *args, **kwargs: signature.bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.model = None  # the BenchModel the pipeline currently talks to
        self._lock = threading.Lock()
        self._main_stack: list[dict] = []
        self._next_id = 0

    def model_chat_calls(self) -> int:
        return self.model.chat_calls if self.model is not None else 0

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        main = threading.current_thread() is threading.main_thread()
        with self._lock:
            self._next_id += 1
            record = {
                "id": self._next_id,
                "name": name,
                "parent": self._main_stack[-1]["id"] if self._main_stack else None,
                "main": main,
                "attrs": attrs,
            }
        if main:
            self._main_stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            if main:
                self._main_stack.pop()
            with self._lock:
                self.spans.append(record)

    def timed(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -------------------------------------------------------- probes

    def _probes(self) -> list[tuple[object, str, Callable[[Callable], Callable]]]:
        def simple(name: str) -> Callable[[Callable], Callable]:
            return lambda fn: self.timed(name, fn)

        def embedder(fn: Callable) -> Callable:
            arguments = _arguments(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                texts = arguments(*args, **kwargs).get("texts") or ()
                with self.span("llm.mock.embed", texts=len(texts)):
                    return fn(*args, **kwargs)

            return wrapper

        def embed_batch(fn: Callable) -> Callable:
            arguments = _arguments(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                call = arguments(*args, **kwargs)
                keys = [cache_mod.cache_key(call["model"], text) for text in call.get("texts") or ()]
                hits = sum(1 for key in keys if key in call["self"].cache)
                with self.span("llm.client.embed_batch", hits=hits, misses=len(keys) - hits):
                    return fn(*args, **kwargs)

            return wrapper

        def chat(fn: Callable) -> Callable:
            arguments = _arguments(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                request = arguments(*args, **kwargs).get("request")
                with self.span("llm.client.chat", request=hash(request)) as record:
                    try:
                        return fn(*args, **kwargs)
                    except client_mod.RetryBudgetExceeded:
                        record["attrs"]["giveup"] = 1
                        raise

            return wrapper

        def generate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = self.model_chat_calls()
                with self.span("generate.generate_pool") as record:
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        record["attrs"]["model_calls"] = self.model_chat_calls() - before

            return wrapper

        def evolve(fn: Callable) -> Callable:
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.arguments["fitness"] = self.timed("fitness.provider", bound.arguments["fitness"])
                before = self.model_chat_calls()
                with self.span("evolve.evolve", k=getattr(bound.arguments["pool"], "k", None)) as record:
                    try:
                        return fn(*bound.args, **bound.kwargs)
                    finally:
                        record["attrs"]["model_calls"] = self.model_chat_calls() - before

            return wrapper

        def evaluate_llm(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span("fitness.evaluate_genome_llm") as record:
                    evaluation = fn(*args, **kwargs)
                    record["attrs"]["unparseable"] = evaluation.n_unparseable
                    return evaluation

            return wrapper

        def record_stage(fn: Callable) -> Callable:
            arguments = _arguments(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                call = arguments(*args, **kwargs)
                with self.span("pipeline.manifest.record_stage", stage=call["stage"], seconds=call["seconds"]):
                    return fn(*args, **kwargs)

            return wrapper

        return [
            (runner_mod, "load_examples", simple("corpus.load_examples")),
            (runner_mod, "generate_pool", generate),
            (mock_mod.HashingEmbeddingTransport, "embed", embedder),
            (client_mod.LLMClient, "embed_batch", embed_batch),
            (client_mod.LLMClient, "chat", chat),
            (cache_mod.EmbeddingCache, "__init__", simple("llm.cache.load")),
            (cache_mod.EmbeddingCache, "put", simple("llm.cache.put")),
            (runner_mod, "project", simple("reduce.projection.project")),
            (runner_mod, "cluster", simple("reduce.density.cluster")),
            (density_mod, "core_distances", simple("reduce.density.core_distances")),
            (density_mod, "mutual_reachability_mst", simple("reduce.density.mst")),
            (density_mod, "single_linkage", simple("reduce.density.single_linkage")),
            (density_mod, "condense_tree", simple("reduce.density.condense_tree")),
            (runner_mod, "filter_noise", simple("reduce.pooling.filter_noise")),
            (runner_mod, "build_pool", simple("reduce.pooling.build_pool")),
            (runner_mod, "evolve", evolve),
            (runner_mod, "evaluate_genome_llm", evaluate_llm),
            (manifest_mod, "file_sha256", simple("pipeline.manifest.file_sha256")),
            (manifest_mod.RunManifest, "record_stage", record_stage),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        restore: list[tuple[object, str, object]] = []
        try:
            for owner, attr, make in self._probes():
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                setattr(owner, attr, make(original))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


# ------------------------------------------------------------ derivation

def _by_name(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def _busy(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in _by_name(spans, name))


def _attr(spans: list[dict], name: str, key: str) -> int:
    return sum(s["attrs"].get(key, 0) for s in _by_name(spans, name))


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Per span name: time inside its spans not covered by any of their child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals: dict[str, float] = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            covered += max(0.0, min(end, s["end"]) - max(start, cursor))
            cursor = max(cursor, end)
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
    return totals


def runner_self_seconds(spans: list[dict]) -> float:
    """Executed-stage time not covered by a top-level layer span (artifact I/O).

    A stage's interval ends where the runner records it and is as long
    as the seconds it records; that end is a little late, so children
    count by their overlap with the interval.
    """
    total = 0.0
    top = [s for s in spans if s["main"] and s["parent"] is None and s["name"] != "pipeline.manifest.record_stage"]
    for stage in _by_name(spans, "pipeline.manifest.record_stage"):
        end = stage["start"]
        start = end - stage["attrs"]["seconds"]
        covered = sum(max(0.0, min(end, s["end"]) - max(start, s["start"])) for s in top)
        total += stage["attrs"]["seconds"] - covered
    return total


def layer_metrics(
    spans: list[dict], *, latency_s: float, max_in_flight: int, transport_chat_s: float, generations: int
) -> dict[str, float]:
    """Per-layer numbers that come from spans (times, call counts, attributes).

    `transport_chat_s` is the time the model itself spent answering chat
    calls; the client's overhead is its own chat time minus that.
    `generations` counts the trace records of the finished GA runs.
    """
    chats = _by_name(spans, "llm.client.chat")
    generate_ids = {s["id"] for s in _by_name(spans, "generate.generate_pool")}
    generate_chats = [s for s in chats if s["parent"] in generate_ids]
    fitness_ids = {s["id"] for s in _by_name(spans, "fitness.provider")}
    unparseable = sum(
        s["attrs"].get("unparseable", 0)
        for s in _by_name(spans, "fitness.evaluate_genome_llm")
        if s["parent"] in fitness_ids
    )
    evolve_s = _busy(spans, "evolve.evolve")
    fitness_s = _busy(spans, "fitness.provider")
    # GA bookkeeping: evolve time outside the fitness provider, over runs that finished
    finished = {s["id"]: s["end"] - s["start"] for s in _by_name(spans, "evolve.evolve") if "error" not in s}
    bookkeeping_s = sum(finished.values()) - sum(
        s["end"] - s["start"] for s in _by_name(spans, "fitness.provider") if s["parent"] in finished
    )
    select_calls = _attr(spans, "evolve.evolve", "model_calls")
    ideal_s = select_calls * latency_s / max_in_flight
    chat_seconds = [s["end"] - s["start"] for s in chats]
    overhead_us = (sum(chat_seconds) - transport_chat_s) / len(chats) * 1e6 if chats else 0.0
    return {
        "embedder.busy_s": _busy(spans, "llm.mock.embed"),
        "embedder.texts": _attr(spans, "llm.mock.embed", "texts"),
        "cache.put_s": _busy(spans, "llm.cache.put"),
        "cache.load_s": _busy(spans, "llm.cache.load"),
        "cache.hits": _attr(spans, "llm.client.embed_batch", "hits"),
        "cache.misses": _attr(spans, "llm.client.embed_batch", "misses"),
        "projection.svd_s": _busy(spans, "reduce.projection.project"),
        "density.core_s": _busy(spans, "reduce.density.core_distances"),
        "density.mst_s": _busy(spans, "reduce.density.mst"),
        "density.linkage_s": _busy(spans, "reduce.density.single_linkage"),
        "density.condense_s": _busy(spans, "reduce.density.condense_tree"),
        "density.cluster_s": _busy(spans, "reduce.density.cluster"),
        "pooling.filter_s": _busy(spans, "reduce.pooling.filter_noise"),
        "pooling.build_s": _busy(spans, "reduce.pooling.build_pool"),
        "evolve.s": evolve_s,
        "evolve.bookkeeping_ms_per_gen": bookkeeping_s / generations * 1000.0 if generations else 0.0,
        "fitness.calls": len(_by_name(spans, "fitness.provider")),
        "fitness.s": fitness_s,
        "fitness.unparseable": unparseable,
        "client.giveups": _attr(spans, "llm.client.chat", "giveup"),
        "client.chat_latency_p50_ms": _percentile_ms(chat_seconds, 50),
        "client.chat_latency_p99_ms": _percentile_ms(chat_seconds, 99),
        "client.overhead_us_per_call": overhead_us,
        "client.ideal_s": ideal_s,
        "client.concurrency_efficiency": ideal_s / evolve_s if evolve_s else 0.0,
        "generate.s": _busy(spans, "generate.generate_pool"),
        "generate.chat_calls": _attr(spans, "generate.generate_pool", "model_calls"),
        "generate.parse_retries": len(generate_chats) - len({s["attrs"]["request"] for s in generate_chats}),
        "runner.self_s": runner_self_seconds(spans),
        "manifest.hash_s": _busy(spans, "pipeline.manifest.file_sha256"),
        "corpus.load_s": _busy(spans, "corpus.load_examples"),
    }
