import importlib
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    """The traced benchmark patches each public function in tracing.TARGETS
    by name; renaming or deleting one must fail here, not only in a traced
    run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.function, None)), target
