"""Every layer target the benchmark traces still exists in the package.

perfbench/layers.py patches its targets by name and reports a missing
one as absent instead of failing, which drops that layer's metrics from
a traced run.  A rename or deletion in the package must fail here, and
so must an observer that no longer reads what the package returns.
"""

import importlib.util
import json
from pathlib import Path

import typemonoid.cli  # noqa: F401  (loads every module a layer names)
from typemonoid import suites

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves():
    layers = _load_layers()
    missing = [
        f"{layer} ({modname}.{qualname})"
        for layer, modname, qualname, _observe, _prepare in layers.LAYERS
        if layers._resolve(modname, qualname) is None
    ]
    assert missing == []


def test_traced_suites_emit_every_listed_metric():
    layers = _load_layers()
    entry = next(e for e in suites.corpus_with_fixtures(count=0) if e.name == "fixture_parity")
    tracer = layers.Tracer()
    patch = layers.install(tracer)
    try:
        for run in (suites.run_theorem1_suite, suites.run_soundness_audit,
                    suites.run_theorem2_suite):
            assert run([entry])["failures"] == []
    finally:
        patch.undo()
    assert patch.absent == []
    assert tracer.calls["suites.run"] == 3
    assert tracer.counts["types.engine.relations"] > 0
    emitted = set(layers.layer_metrics(tracer)) | {"trace.overhead_s"}
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in listed if m["name"] not in emitted] == []
