"""The benchmark's tracer (perfbench/tracing.py) times layers by replacing
specverify functions by module and attribute name. A function renamed or
deleted in the package makes the traced benchmark miss its layer, so every
hook point must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_benchmark_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner, attribute, _, _ in tracing.HOOKS:
        module, _, cls = owner.partition(":")
        found = importlib.import_module(module)
        found = getattr(found, cls, None) if cls else found
        if not hasattr(found, attribute):
            missing.append(f"{owner}.{attribute}")
    assert len(tracing.HOOKS) > 20
    assert missing == []
