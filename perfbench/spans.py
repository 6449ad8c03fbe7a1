"""Spans and counters around the library's public functions.

The tracer rebinds each wrapped function under every name a library
module binds it to (so `member`, imported by name into five modules, is
traced wherever it is called), and wraps the hottest oracle methods with
counters only. Spans are kept in memory as (name, start, end, parent,
operation) and turned into self times and per-operation metrics at the end.
Nothing here reads the library's own counters.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); a dotted attribute is a method.
# InducedMatroid._rank runs only on a rank-memo miss, so it is spanned where
# MatroidOracle.rank, called on every query, is only counted.
SPANNED = [
    ("instances", "parse_instance", "instances.parse"),
    ("reductions", "santa_guess_grid", "reductions.guess_grid"),
    ("reductions", "guess_loop", "reductions.guess_loop"),
    ("reductions", "reduce_to_core", "reductions.reduce_to_core"),
    ("localsearch", "solve_cover", "localsearch.solve_cover"),
    ("localsearch", "augment", "localsearch.augment"),
    ("localsearch", "build_addable", "localsearch.build_addable"),
    ("localsearch", "compute_blocking", "localsearch.compute_blocking"),
    ("localsearch", "verify_certificate", "localsearch.verify_certificate"),
    ("polymatroids", "capped_marginal", "polymatroids.capped_marginal"),
    ("polymatroids", "member", "polymatroids.member"),
    ("polymatroids", "sfm_min", "polymatroids.sfm_min"),
    ("polymatroids", "greedy_basis_above", "polymatroids.greedy_basis"),
    ("intersection", "decompose_in_sum", "intersection.decompose"),
    ("intersection", "decompose_merged_basis", "intersection.decompose_merged"),
    ("intersection", "max_common_independent", "intersection.common_independent"),
    ("simplex", "feasible_point", "simplex.feasible_point"),
    ("rounding", "solve_assignment_lp", "rounding.assignment_lp"),
    ("rounding", "round_santa", "rounding.round"),
    ("rounding", "round_makespan", "rounding.round"),
    ("rounding", "lst_baseline", "rounding.lst_baseline"),
    ("matroids", "InducedMatroid._rank", "matroids.induced_rank"),
    ("matching", "max_bipartite_matching", "matching.bipartite_matching"),
    ("cli", "main", "cli.main"),
]

# Too hot for spans: counted only.
COUNTED = [
    ("matroids", "MatroidOracle.rank", "matroids.rank"),
    ("matroids", "MatroidOracle.is_independent", "matroids.is_independent"),
    ("intersection", "ExpandedMatroid.is_independent", "matroids.is_independent"),
    ("polymatroids", "PolymatroidOracle.value", "polymatroids.value"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, operation id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = 0                  # operations begun; the current one is ops - 1
        self._undo: list[tuple[object, str, object, str]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self) -> None:
        self.ops += 1

    def _spanned(self, fn, name: str):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.ops - 1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}:raised:{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            self._observe(name, args, kwargs, out)
            return out

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, args, kwargs, out) -> None:
        c = self.counts
        if name == "localsearch.solve_cover":
            c["localsearch.augment_calls"] += out.augment_calls
            c["localsearch.recursion_nodes"] += out.total_recursion_nodes
            c["localsearch.restarts"] += out.restarts
            c["localsearch.certificates"] += len(out.certificates)
            c["localsearch.oracle_queries"] += out.oracle_queries
        elif name == "reductions.reduce_to_core":
            c["reductions.guess_accepted"] += 1
        elif name == "polymatroids.sfm_min":
            restrict = args[3] if len(args) > 3 else kwargs.get("restrict")
            domain = (1 << args[1]) - 1 if restrict is None else restrict
            c["polymatroids.sfm_subsets"] += 1 << bin(domain).count("1")
        elif name == "simplex.feasible_point":
            c["simplex.lp_vars"] += args[0]
            c["simplex.lp_rows"] += len(args[1])
        elif name == "rounding.assignment_lp":
            c["rounding.lp_feasible"] += out is not None

    # -- installing --------------------------------------------------------

    def install(self, lib) -> None:
        """Rebind every wrapped function in every library module that binds it."""
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod_name, attr, name in table:
                owner = getattr(lib, mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._set(cls, meth, make(cls.__dict__[meth], name), name)
                    continue
                orig = getattr(owner, attr)
                wrapped = make(orig, name)
                for mod in lib.modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, key, wrapped, name)

    def bindings(self) -> dict[str, list[str]]:
        """For each traced name, the `module.attribute` bindings now wrapped."""
        out: dict[str, list[str]] = defaultdict(list)
        for obj, key, _, name in self._undo:
            out[name].append(f"{obj.__name__.removeprefix('matalloc.')}.{key}")
        return dict(out)

    def _set(self, obj, key: str, value, name: str) -> None:
        self._undo.append((obj, key, obj.__dict__[key], name))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, orig, _ in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- summarising -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus the child spans."""
        out: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, _ in spans:
            out[name] += end - start
            if parent >= 0:
                out[spans[parent][0]] -= end - start
        return dict(out)

    def cli_overhead(self) -> float:
        """Seconds inside cli.main not spent inside the solve_cover it calls."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name == "cli.main":
                total += end - start
            elif name == "localsearch.solve_cover" and parent >= 0 \
                    and self.spans[parent][0] == "cli.main":
                total -= end - start
        return total

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(s, 7), round(e, 7), p, op] for n, s, e, p, op in self.spans]
        doc = {"names": names, "fields": ["name", "start", "end", "parent", "op"],
               "spans": rows, "counts": dict(self.counts)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
