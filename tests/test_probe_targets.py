"""Every per-layer probe of the benchmark finds the program function it wraps, and runs.

`perfbench/probes.py` wraps functions by module attribute and only lists
the ones it cannot find, so a rename in the program would silently zero
a per-layer metric. A probe that binds a renamed parameter fails only
when it runs, so a tiny llm pipeline runs under the tracer too. These
guards read the probe list and change nothing under `perfbench/` (the
module is executed from source, no bytecode is written there).
"""

import types
from pathlib import Path

from conftest import EchoService
from exsel.llm.mock import HashingEmbeddingTransport
from exsel.pipeline import STAGES, load_config, run_pipeline
from mock_transport import MockTransport

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def load_probes() -> types.ModuleType:
    module = types.ModuleType("perfbench_probes")
    module.__file__ = str(PROBES)
    exec(compile(PROBES.read_text(encoding="utf-8"), str(PROBES), "exec"), module.__dict__)
    return module


def test_every_benchmark_probe_finds_its_target():
    tracer = load_probes().Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []


def test_probes_run_and_count_unparseable_replies(llm_config_path):
    def garbled(request):
        return request.user_prompt.endswith("Entities:") and len(request.user_prompt) % 3 == 0

    echo = EchoService()
    hasher = HashingEmbeddingTransport(dimension=32)
    transport = MockTransport(
        chat_fn=lambda request: "not json" if garbled(request) else echo(request),
        embed_fn=lambda text: hasher.embed("m", [text])[0],
    )
    tracer = load_probes().Tracer()
    with tracer.installed():
        state = run_pipeline(load_config(llm_config_path), transport=transport)
    assert state.executed == list(STAGES)
    assert [span["name"] for span in tracer.spans if "error" in span] == []
    evaluations = [span for span in tracer.spans if span["name"] == "fitness.evaluate_genome_llm"]
    unparseable = sum(span["attrs"]["unparseable"] for span in evaluations)
    assert unparseable == sum(map(garbled, transport.chat_requests)) > 0
    stages = [span["attrs"]["stage"] for span in tracer.spans if span["name"] == "pipeline.manifest.record_stage"]
    assert stages == list(STAGES)
