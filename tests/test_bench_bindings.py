"""Every name the benchmark tracer (perfbench/spans.py) wraps resolves in the
library, so deleting or moving a traced function fails here rather than
breaking traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, attr, name", spans.SPANNED + spans.COUNTED)
def test_traced_name_resolves(module, attr, name):
    owner = importlib.import_module(f"matalloc.{module}")
    if "." in attr:
        # methods are rebound in the defining class's own namespace
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth))
    else:
        assert callable(getattr(owner, attr))
