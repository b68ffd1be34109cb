"""Every per-layer probe of the benchmark finds the program function it wraps.

`perfbench/probes.py` wraps functions by module attribute and only lists
the ones it cannot find, so a rename in the program would silently zero
a per-layer metric. This guard reads the probe list and changes nothing
under `perfbench/` (the module is executed from source, no bytecode is
written there).
"""

import types
from pathlib import Path

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
