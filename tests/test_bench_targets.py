"""The traced benchmark wraps functions by name; each must still exist, or
its per-layer metrics would silently read as absent."""
import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for modname, qualname, _, _ in load_trace().TARGETS:
        owner = importlib.import_module(modname)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{qualname}")
    assert missing == []
