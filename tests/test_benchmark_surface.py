"""The benchmark's tracer looks qzak functions up by name; a rename that
drops one must fail here rather than silently break ``--trace 1``."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
tracing = importlib.import_module("tracing")


@pytest.mark.parametrize("name", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_resolves(name):
    module, _, function = name.partition(".")
    assert callable(getattr(importlib.import_module(f"qzak.{module}"), function))


def test_field_class_exists():
    from qzak.field import Field

    assert isinstance(Field, type)
