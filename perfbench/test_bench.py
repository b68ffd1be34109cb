"""Self-test of the benchmark at a reduced size.

    python3 -m pytest -q perfbench/test_bench.py

Runs the full command on shrunken copies of every workload, traced and
untraced, and checks the mock model's fault and crash rules.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from exsel.llm.transport import ChatRequest, TransientServiceError  # noqa: E402
from model import BenchModel, InjectedCrash, reply_for  # noqa: E402

SMALL = {
    "surrogate-6k": dict(
        per_topic=30, n_validation=24, pool_sizes=(40, 120), epsilon=0.18,
        ga={"mu": 12, "lambda": 24, "max_generations": 4, "genome_length": 5, "warmup": 2, "patience": 2},
    ),
    "llm-mock": dict(
        n_generate=160, n_validation=10, pool_sizes=(40,), latency_s=0.0005,
        ga={"mu": 6, "lambda": 10, "max_generations": 2, "genome_length": 5, "warmup": 5, "patience": 5},
    ),
}
SMALL["llm-resume"] = {**SMALL["llm-mock"], "crash_after": 60}


def _spec_names(kind: str) -> list[str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


@pytest.fixture
def small_bench(monkeypatch, tmp_path):
    for name, changes in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **changes))
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")
    return tmp_path


def _result(capsys, *args: str) -> tuple[int, dict, str]:
    code = run.main(["--seconds", "0", *args])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_command_reports_every_metric_and_passes_its_gate(small_bench, capsys, workload):
    code, result, _ = _result(capsys, "--workload", workload, "--seed", "5", "--trace", "0", "--write-reference")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _spec_names("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    # the traced pass compares two runs with each other and with the stored reference
    code, result, out = _result(capsys, "--workload", workload, "--seed", "5", "--trace", "1")
    assert code == 0 and result["correct"], out
    assert list(result["metrics"]) == _spec_names("per_layer")
    assert "probes missing" not in out
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["density.cluster_s"] > 0 and metrics["evolve.s"] > 0
    if workload != "surrogate-6k":
        assert metrics["client.chat_calls"] > 0 and metrics["client.inflight_max"] == 2


def test_reference_mismatch_fails_the_run(small_bench, capsys):
    _result(capsys, "--workload", "llm-mock", "--seed", "5", "--trace", "0", "--write-reference")
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    reference["llm-mock"]["5"]["counts"]["client.chat_calls"] += 1
    run.REFERENCE.write_text(json.dumps(reference), encoding="utf-8")
    code, result, _ = _result(capsys, "--workload", "llm-mock", "--seed", "5", "--trace", "0")
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def _extraction(query: str, demo: str, entities: str) -> ChatRequest:
    prompt = f"Text: {demo}\nEntities: {entities}\n\nText: {query}\nEntities:"
    return ChatRequest(model="m", system_prompt="extract", user_prompt=prompt, temperature=0.0)


def test_replies_follow_topic_and_gold_rules():
    on_topic = _extraction("glacier firn serac item 1", "moraine icefall firn item 2", '{"term": ["moraine"]}')
    off_topic = _extraction("glacier firn serac item 1", "sonata fugue item 2", '{"term": ["sonata"]}')
    negative_demo = _extraction("glacier firn serac item 1", "plain moraine firn item 2", "{}")
    assert json.loads(reply_for(on_topic, 0.0)) == {"term": ["glacier"]}
    assert json.loads(reply_for(off_topic, 0.0)) == {"term": ["none"]}
    assert json.loads(reply_for(negative_demo, 0.0)) == {"term": ["none"]}
    assert reply_for(on_topic, 1.0) == reply_for(on_topic, 1.0) != reply_for(on_topic, 0.0)


def test_transient_fault_hits_only_the_first_attempt():
    model = BenchModel(transient_share=1.0)
    request = _extraction("glacier item 1", "moraine item 2", '{"term": ["moraine"]}')
    with pytest.raises(TransientServiceError):
        model.complete(request)
    assert model.complete(request) == BenchModel().complete(request)
    assert (model.chat_calls, model.transient_faults, len(model.prompts)) == (2, 1, 1)


def test_crash_lands_on_the_first_request_of_a_new_genome():
    model = BenchModel(crash_after=2)
    first = [_extraction(f"glacier item {i}", "moraine item 9", '{"term": ["moraine"]}') for i in range(3)]
    for request in first:  # the genome that started before the threshold finishes
        model.complete(request)
    with pytest.raises(InjectedCrash):
        model.complete(_extraction("glacier item 1", "sonata item 9", '{"term": ["sonata"]}'))
    with pytest.raises(InjectedCrash):
        model.complete(first[0])
    assert (model.chat_calls, model.refused) == (3, 2)
