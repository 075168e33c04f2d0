"""The traced benchmark (``bench/spans.py``) wraps stagemask functions and
methods by name.  Installing and removing its tracer here catches a deleted
or renamed target in the fast suite, not only in ``bench/test_bench.py``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    """(owner, attribute) of every name the tracer wraps."""
    def mod(name):
        return importlib.import_module(f"stagemask.{name}")

    return [(mod(module), attr) for module, attr, _ in spans.FUNCTION_TARGETS] + [
        (getattr(mod(module), cls), method)
        for module, cls, method, _ in spans.METHOD_TARGETS
    ]


def test_every_traced_name_resolves_and_is_restored():
    spans = _spans_module()
    targets = _targets(spans)
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr
