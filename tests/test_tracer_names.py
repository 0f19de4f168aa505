"""The benchmark's tracer wraps gramweave functions by name.

bench/tracer.py lists them in WRAPPED and resolves them only when a run
asks for tracing, so a renamed or removed function would first show as a
failing `bench/run.py --trace 1`.  This keeps the names in step with the
package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wrapped = load_tracer().WRAPPED
    assert wrapped
    for modname, attr, _span, _counter in wrapped:
        owner = importlib.import_module("gramweave." + modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)
