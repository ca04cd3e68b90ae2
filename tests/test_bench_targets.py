"""The benchmark's traced run wraps library functions by name; they must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    # the worker's dataclasses look their module up in sys.modules
    sys.modules.setdefault(spec.name, worker)
    spec.loader.exec_module(worker)
    return [(mod, fn) for mod, fns in worker.TARGETS.items() for fn in fns]


@pytest.mark.parametrize("module, name", _targets())
def test_every_traced_target_exists(module, name):
    # a renamed target would raise AttributeError in every --trace 1 run
    mod = importlib.import_module(f"kreinspace.{module}")
    assert callable(getattr(mod, name, None)), f"kreinspace.{module}.{name} is gone"
