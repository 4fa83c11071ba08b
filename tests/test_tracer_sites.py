"""The benchmark tracer wraps functions by the names callers look them up
through; every such binding must still exist, or a traced run crashes."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_binding_resolves():
    tracer = _load_tracer()
    assert tracer.SITES
    for name, (bindings, _read) in tracer.SITES.items():
        assert bindings, name
        for binding in bindings:
            owner, attr = tracer._resolve(binding)
            assert callable(getattr(owner, attr)), (name, binding)
