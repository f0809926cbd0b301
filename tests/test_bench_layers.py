"""Every layer target the benchmark traces still exists in the package.

perfbench/layers.py patches its targets by name and reports a missing
one as absent instead of failing, which drops that layer's metrics from
a traced run.  A rename or deletion in the package must fail here.
"""

import importlib.util
from pathlib import Path

import typemonoid.cli  # noqa: F401  (loads every module a layer names)

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
