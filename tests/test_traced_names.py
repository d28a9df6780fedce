"""The benchmark's per-layer metrics name library functions; a function that
is renamed or deleted leaves `bench/run.py --trace 1` without its metric."""
import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _traced_functions():
    """(module, function) of every `<module>.<function>.<stat>` metric."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({tuple(n.split(".")[:2]) for n in names if n.count(".") >= 2})


def test_every_traced_name_is_a_public_library_function():
    traced = _traced_functions()
    assert ("channel_exponents", "gallager_e0") in traced
    for module_name, name in traced:
        module = importlib.import_module(f"siexp.{module_name}")
        obj = getattr(module, name, None)
        # the tracer wraps only public functions defined in the module itself
        assert not name.startswith("_") and inspect.isfunction(obj), f"{module_name}.{name}"
        assert obj.__module__ == module.__name__, f"{module_name}.{name}"
