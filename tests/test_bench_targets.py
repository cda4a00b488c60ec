"""The benchmark's tracer wraps landalloc functions by name; each name must exist.

`perfbench/tracing.py` lists them in `TARGETS` as (module, attribute)
pairs, where "Class.method" names a method. A name that a change removes
or renames would otherwise fail only the benchmark's own tests.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module, attr", sorted(runpy.run_path(str(TRACING))["TARGETS"]))
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"landalloc.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
