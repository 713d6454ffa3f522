"""Every span the benchmark's tracer installs names a function of the
engine.  The tracer (perfbench/layers.py) wraps the functions in its
LAYERS table by module and name; a name that no longer resolves would stop
timing that layer, so each entry must resolve as `install` reads it."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_layer_resolves_in_the_engine():
    layers = load_layers()
    for mod_name, qualname, metric, _ in layers:
        module = importlib.import_module(f"groupoidal.{mod_name}")
        if "." in qualname:
            # install wraps a method found in the class's own namespace.
            cls_name, method = qualname.split(".")
            target = vars(getattr(module, cls_name))[method]
        else:
            target = getattr(module, qualname)
        assert callable(target), f"{mod_name}.{qualname}"
    metrics = {metric for _, _, metric, _ in layers}
    assert {"isomorphisms.phi_s", "partial_actions.self_s",
            "steinberg_algebra.mul_s"} <= metrics
