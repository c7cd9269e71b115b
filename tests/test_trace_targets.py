"""The per-layer trace of the benchmark (`perfbench/spans.py`) wraps stages
by module attribute.  A stage that is renamed, or that a kernelizer stops
reaching through its module globals, must fail here instead of crashing or
reading zero in a traced benchmark run."""
import importlib.util
import random
from pathlib import Path

from rainbowkernel import cli
from rainbowkernel.instances import InstanceSpec, serialize_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_is_reached(tmp_path):
    spans, inputs = load("spans"), load("inputs")
    rng = random.Random(1)
    specs = [InstanceSpec("TPT", inputs.near_transitive(60, 18, rng), 20),
             InstanceSpec("I2PHS", inputs.cliques_core(3, 15, 6, rng), 4)]
    tracer = spans.Tracer()
    tracer.install()  # KeyError on a target that no longer resolves
    try:
        for i, spec in enumerate(specs):
            path = tmp_path / f"in{i}.txt"
            path.write_text(serialize_instance(spec))
            assert cli.main(["kernelize", "--input", str(path),
                             "--output", str(tmp_path / f"kernel{i}.txt"),
                             "--report", str(tmp_path / f"report{i}.json")]) == 0
    finally:
        tracer.uninstall()
    calls = tracer.calls(0, tracer.mark())
    assert [name for _, _, name in spans.TARGETS if not calls[name]] == []
