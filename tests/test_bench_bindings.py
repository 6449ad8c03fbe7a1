"""Every name the benchmark tracer (perfbench/spans.py) wraps resolves in the
library, so deleting or moving a traced function fails here rather than
breaking traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from matalloc import intersection
from matalloc.instances import gen_random
from matalloc.polymatroids import greedy_basis_above
from matalloc.rounding import guess_loop, round_santa, santa_guess_grid, solve_assignment_lp

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


def test_searches_reach_the_traced_module_attribute(monkeypatch):
    """The tracer spans intersection.max_common_independent by rebinding the
    module attribute, so the sum split and the rounding gadget must reach
    the search through it, or the traced common_independent counts read
    zero."""
    calls = []
    search = intersection.max_common_independent

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(intersection, "max_common_independent", counted)
    parts = [it.polymatroid for it in gen_random("santa-matroid", 2, m=5, n=3, u=1, w=3).items]
    y = tuple(map(sum, zip(*(greedy_basis_above(p, (0,) * 5) for p in parts))))
    assert len(intersection.decompose_in_sum(parts, y)) == 3
    assert calls
    calls.clear()
    inst = gen_random("restricted-santa", 1, m=3, n=5)
    best, frac = guess_loop(lambda t: solve_assignment_lp(inst, t), santa_guess_grid(inst))
    assert best is not None
    round_santa(inst, frac)
    assert calls
