"""The benchmark's tracer wraps program names by string; each must still name a callable."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("holder, attr", [(h, a) for h, a, _, _ in spans.HOOKS],
                         ids=lambda v: v)
def test_traced_name_resolves_to_a_callable(holder, attr):
    obj = spans._holder(holder)
    # a class attribute is taken from its __dict__, as the tracer installs it
    target = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
    assert callable(target), f"{holder}.{attr} is not a callable of the program"
