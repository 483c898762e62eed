"""The public surface: what ``cpnorm`` exports, and what the benchmark's span
tracer wraps, exist."""

import importlib
import importlib.util
from pathlib import Path

import cpnorm
from cpnorm import CPMap

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    """``bench/spans.py``, loaded by path; it imports only numpy."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves_once():
    assert len(set(cpnorm.__all__)) == len(cpnorm.__all__)
    missing = [name for name in cpnorm.__all__ if not hasattr(cpnorm, name)]
    assert missing == []


def test_every_traced_function_exists():
    spans = _load_spans()
    missing = [
        f"{module_name}.{fname}"
        for module_name, functions in spans.LAYER_FUNCTIONS.items()
        for fname in functions
        if not callable(getattr(importlib.import_module(module_name), fname, None))
    ]
    missing += [f"CPMap.{method}" for method in spans.CPMAP_METHODS
                if not callable(vars(CPMap).get(method))]
    assert missing == []
