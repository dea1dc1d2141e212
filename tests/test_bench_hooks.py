"""The benchmark's layer tracer wraps functions of ssetforge by name.

``perfbench/layertrace.py`` lists them as (module, attribute path) pairs;
a rename under ``src/`` would otherwise only show in the long benchmark
suite.  The tracer is loaded from its file and only read, never installed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace_names", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    trace = _layertrace()
    names = list(trace.SPANS) + list(trace.COUNTERS)
    assert len(names) >= 30
    for mod, path in names:
        assert mod in trace.LAYERS
        owner = importlib.import_module(f"ssetforge.{mod}")
        for part in path.split("."):
            assert hasattr(owner, part), f"ssetforge.{mod}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"ssetforge.{mod}.{path} is not callable"
