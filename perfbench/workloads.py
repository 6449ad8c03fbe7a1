"""Workload corpora, operations and exact output checks.

Each workload turns a seed into a corpus of serialized instances (the
library sees only JSON bytes), runs one operation per instance, and checks
the operation's output exactly. Operations never share parsed objects, so
no oracle memo survives from one operation to the next.

`Lib(root)` imports the library from `<root>/src` and nothing else, so a
checkout without the sources fails instead of measuring another copy.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

ALPHA = Fraction(8)
EPS = Fraction(1, 10)

# Generator parameters per workload. op_s is the typical seconds per
# operation when the sizes were chosen; it only sizes the corpus to the run
# length. The "why" lines live in BENCHMARK.json, the sizes are explained
# in perfbench/README.md.
PARAMS = {
    "santa-pipeline": {"m": [4, 4, 5, 5, 6], "n": 4, "u": 1, "w": 3, "copies": 8, "op_s": 0.086},
    "core-induced": {"players": [12, 13], "n": 4, "u": 1, "w": 3, "b": [1, 2, 3],
                     "copies": 4, "op_s": 0.145},
    "core-certify": {"n": [12, 13], "density": 0.3, "weights": [1, 3], "copies": 8,
                     "op_s": 0.2},
    "classical-lp": {"santa": {"flavor": "restricted-santa", "m": 4, "n": 7},
                     "makespan": {"flavor": "restricted-makespan", "m": 4, "n": 7},
                     "copies": 8, "op_s": 0.22},
}

MODULES = ("instances", "reductions", "localsearch", "matroids", "polymatroids",
           "intersection", "simplex", "rounding", "matching", "oracle", "cli", "limits")


class Lib:
    """The library's modules, imported from one source tree."""

    def __init__(self, root: Path):
        src = (root / "src").resolve()
        if not (src / "matalloc" / "__init__.py").is_file():
            raise FileNotFoundError(f"no library sources under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [k for k in sys.modules if k == "matalloc" or k.startswith("matalloc.")]:
            del sys.modules[name]
        pkg = importlib.import_module("matalloc")
        if not Path(pkg.__file__).resolve().is_relative_to(src):
            raise ImportError(f"matalloc resolved outside {src}: {pkg.__file__}")
        self.modules = [pkg] + [importlib.import_module(f"matalloc.{name}") for name in MODULES]
        for mod in self.modules[1:]:
            setattr(self, mod.__name__.removeprefix("matalloc."), mod)


class CheckFailed(Exception):
    """An operation's output failed an exact check."""


# ---------------------------------------------------------------------------
# Corpus generation: seed -> list of (kind, bytes)
#
# Per-instance cost varies more than tenfold within one generator setting, so
# a fresh draw of ~150 instances moves the median by 15% or more from seed to
# seed. The instances are therefore drawn once, from generator seeds fixed
# per workload, and each enters the corpus `copies` times: --seed permutes
# the ground set (players, or core elements) and reorders the items of every
# copy, so each seed feeds the library different bytes and element orders
# over the same isomorphism classes, and the cost of a relabelling averages
# over the copies.


def make_corpus(lib: Lib, workload: str, seed: int, count: int) -> list:
    p = PARAMS[workload]
    pool = random.Random(f"{workload}:pool")
    rng = random.Random(f"{workload}:{seed}")
    gen, ser = lib.instances.gen_random, lib.instances.serialize_instance
    out = []
    for k in range(count):
        j, copy = divmod(k, p["copies"])
        if copy == 0:
            s = pool.randrange(2 ** 31)
            if workload == "santa-pipeline":
                kind, inst = "santa-matroid", gen("santa-matroid", s, m=p["m"][j % len(p["m"])],
                                                   n=p["n"], u=p["u"], w=p["w"])
            elif workload == "core-induced":
                kind, inst = "core-cover", induced_core(
                    lib, s, p["players"][j % len(p["players"])], p["b"][j % len(p["b"])], p)
            elif workload == "core-certify":
                kind, inst = "core-cover", coverage_core(lib, s, p["n"][j % len(p["n"])], p)
            else:
                kind = "santa" if j % 4 else "makespan"
                q = p[kind]
                inst = gen(q["flavor"], s, m=q["m"], n=q["n"])
            obj = json.loads(ser(inst))
            n = inst.n if kind == "core-cover" else inst.num_entities
        out.append((kind, relabel(obj, rng.sample(range(n), n), rng)))
    return out


def known_failures(lib: Lib, workload: str) -> list:
    """Instances every run carries verbatim because they fail today: the
    santa-pipeline draw at m=10, seed 3 exceeds the decomposition expansion
    cap (79 > 64) and raises SizeCapError. It stays so that the failure is
    counted in every run, not skipped."""
    if workload != "santa-pipeline":
        return []
    inst = lib.instances.gen_random("santa-matroid", 3, m=10, n=4, u=1, w=3)
    return [("santa-matroid", lib.instances.serialize_instance(inst))]


def relabel(obj: dict, perm: list[int], rng: random.Random) -> bytes:
    """Serialized copy of an instance with its ground set permuted (new
    element i is old element perm[i]) and its items shuffled."""
    if obj["type"] == "core-cover":
        obj = {**obj, "matroid": _perm_matroid(obj["matroid"], perm),
               "polymatroid": _perm_poly(obj["polymatroid"], perm)}
    else:
        items = []
        for it in obj["items"]:
            it = dict(it)
            if "values" in it:
                it["values"] = [it["values"][e] for e in perm]
            if "polymatroid" in it:
                it["polymatroid"] = _perm_poly(it["polymatroid"], perm)
            items.append(it)
        rng.shuffle(items)
        obj = {**obj, "items": items}
    return json.dumps(obj, sort_keys=True, indent=1).encode()


def _perm_poly(p: dict, perm: list[int]) -> dict:
    kind = p["kind"]
    if kind == "modular":
        return {**p, "weights": [p["weights"][e] for e in perm]}
    if kind == "coverage":
        return {**p, "sets": [p["sets"][e] for e in perm]}
    if kind == "scaled-rank":
        return {**p, "matroid": _perm_matroid(p["matroid"], perm)}
    if kind == "sum":
        return {**p, "parts": [_perm_poly(q, perm) for q in p["parts"]]}
    raise ValueError(f"no relabelling for polymatroid kind {kind!r}")


def _perm_matroid(m: dict, perm: list[int]) -> dict:
    kind = m["kind"]
    if kind == "uniform":
        return m
    if kind == "partition":
        new_of = {old: new for new, old in enumerate(perm)}
        return {**m, "blocks": [sorted(new_of[e] for e in b) for b in m["blocks"]]}
    if kind == "graphic":
        return {**m, "edges": [m["edges"][e] for e in perm]}
    if kind == "transversal":
        return {**m, "adjacency": [m["adjacency"][e] for e in perm]}
    if kind == "induced":
        return {**m, "polymatroid": _perm_poly(m["polymatroid"], perm)}
    raise ValueError(f"no relabelling for matroid kind {kind!r}")


def induced_core(lib: Lib, seed: int, players: int, b: int, p: dict):
    """The core reduce_to_core builds for a two-value santa-matroid draw:
    the matroid induced by the w-resources against the u-resources."""
    inst = lib.instances.gen_random("santa-matroid", seed, m=players, n=p["n"],
                                    u=p["u"], w=p["w"])
    poly = lib.polymatroids
    w_parts = [it.polymatroid for it in inst.resources if it.value == p["w"]]
    u_parts = [it.polymatroid for it in inst.resources if it.value == p["u"]]
    w_sum = poly.SumPoly(w_parts) if w_parts else poly.ModularPoly([0] * players)
    u_sum = poly.SumPoly(u_parts) if u_parts else poly.ModularPoly([0] * players)
    return lib.instances.CoreCoverInstance(lib.matroids.InducedMatroid(w_sum), u_sum, b)


def coverage_core(lib: Lib, seed: int, n: int, p: dict):
    """Uniform matroid of rank n//3 against a random coverage polymatroid."""
    rng = random.Random(seed)
    universe = n
    covers = [sum(1 << t for t in range(universe) if rng.random() < p["density"])
              for _ in range(n)]
    weights = [rng.randint(*p["weights"]) for _ in range(universe)]
    return lib.instances.CoreCoverInstance(lib.matroids.UniformMatroid(n, n // 3),
                                           lib.polymatroids.CoveragePoly(covers, weights), 1)


# ---------------------------------------------------------------------------
# Operations: bytes -> raw output (timed)


def op_santa_pipeline(lib: Lib, data: bytes):
    red = lib.reductions
    solve_cover = lib.localsearch.solve_cover
    inst = lib.instances.parse_instance(data)
    grid = red.santa_guess_grid(inst)
    best, sol = red.guess_loop(
        lambda t: red.reduce_to_core(inst, ALPHA, t, cover_solver=lambda c: solve_cover(c, EPS)),
        grid)
    return {"guess": best, "alloc": None if sol is None else sol.alloc,
            "case": None if sol is None else sol.case}


def op_core_induced(lib: Lib, paths: tuple[str, str]):
    code = lib.cli.main(["solve-cover", "--in", paths[0], "--out", paths[1],
                         "--eps", str(EPS)])
    return {"code": code, "result": json.loads(Path(paths[1]).read_text())}


def op_core_certify(lib: Lib, data: bytes):
    inst = lib.instances.parse_instance(data)
    levels = []
    b = 1
    while True:
        inst.b = b
        res = lib.localsearch.solve_cover(inst, EPS)
        levels.append(res)
        if not res.feasible:
            # as `matalloc solve-cover` does, report on every certificate
            reports = [lib.localsearch.verify_certificate(r.certificate, r.matroid, r.poly)
                       for r in res.certificates]
            return {"levels": levels, "reports": reports}
        b += 1


def op_classical_lp(lib: Lib, data: bytes):
    inst = lib.instances.parse_instance(data)
    if isinstance(inst, lib.instances.MakespanInstance):
        alloc, t_star = lib.rounding.lst_baseline(inst)
        return {"alloc": alloc, "T": t_star}
    grid = lib.reductions.santa_guess_grid(inst)
    best, frac = lib.reductions.guess_loop(
        lambda t: lib.rounding.solve_assignment_lp(inst, t), grid)
    if frac is None:
        return {"alloc": None, "T": None}
    return {"alloc": lib.rounding.round_santa(inst, frac), "T": best}


OPS = {"santa-pipeline": op_santa_pipeline, "core-induced": op_core_induced,
       "core-certify": op_core_certify, "classical-lp": op_classical_lp}


# ---------------------------------------------------------------------------
# Exact checks: (instance bytes, raw output) -> (objective, digest record)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _values(inst, alloc) -> list[Fraction]:
    vals = [Fraction(0)] * inst.num_entities
    for it, vec in zip(inst.items, alloc):
        for i, mult in enumerate(vec):
            if mult:
                v = it.value_for(i)
                _require(v is not None, f"item placed on ineligible entity {i}")
                vals[i] += v * mult
    return vals


def _check_cover(lib: Lib, matroid, poly, b: int, i_m: int, y) -> None:
    n = matroid.n
    _require(matroid.is_independent(i_m), "I_M is not independent")
    _require(len(y) == n and lib.polymatroids.member(poly, list(y)), "y is not in P")
    _require(all((i_m >> e) & 1 or y[e] >= b for e in range(n)),
             f"some element is covered neither by I_M nor at level {b}")


def _infeasible_ok(lib: Lib, matroid, poly, b: int, records, zeroed: int) -> bool:
    """An infeasible outcome is proven when every certificate verifies and the
    run ended either on certificates alone (restart budget) or on the
    rank-zero test: b times the rank-zero elements lies outside P."""
    verify = lib.localsearch.verify_certificate
    if not all(verify(r.certificate, r.matroid, r.poly)["ok"] for r in records):
        return False
    m = lib.matroids.ZeroedMatroid(matroid, zeroed) if zeroed else matroid
    loops = [b if m.rank(1 << e) == 0 else 0 for e in range(m.n)]
    return bool(records) or not lib.polymatroids.member(poly, loops)


def check_santa_pipeline(lib: Lib, data: bytes, out) -> tuple[Fraction, dict]:
    inst = lib.instances.parse_instance(data)
    if out["guess"] is None:
        # every guess rejected: correct only if some player can get no unit at all
        polys = [it.polymatroid for it in inst.resources]
        _require(not lib.polymatroids.member(lib.polymatroids.SumPoly(polys),
                                             [1] * inst.num_players),
                 "no guess accepted, yet every player can receive a resource")
        return Fraction(0), {"guess": None}
    alloc = out["alloc"]
    try:
        lib.instances.validate_allocation(inst, alloc, require_basis=True)
    except ValueError as exc:
        raise CheckFailed(f"allocation invalid: {exc}") from exc
    low = min(_values(inst, alloc))
    _require(low >= out["guess"] / ALPHA, f"min value {low} below guess/alpha")
    return low, {"guess": str(out["guess"]), "case": out["case"],
                 "alloc": [list(v) for v in alloc]}


def cli_certificates(lib: Lib, inst, res: dict) -> tuple[list, int]:
    """Rebuild the certificate records of a `solve-cover` JSON result: the
    k-th certificate speaks about the matroid with the elements of the
    earlier certificates zeroed out."""
    ls = lib.localsearch
    records, zeroed = [], 0
    for c in res["certificates"]:
        matroid = lib.matroids.ZeroedMatroid(inst.matroid, zeroed) if zeroed else inst.matroid
        mask = {k: sum(1 << e for e in c[k]) for k in ("Z1", "Z2", "ground", "B0")}
        cert = ls.Certificate(z1=mask["Z1"], z2=mask["Z2"], b=res["b"], eps=EPS,
                              ground=mask["ground"], b0=mask["B0"])
        records.append(ls.CertificateRecord(cert, matroid, inst.polymatroid, c["element"]))
        zeroed |= 1 << c["element"]
    return records, zeroed


def check_core_induced(lib: Lib, data: bytes, out) -> tuple[Fraction, dict]:
    inst = lib.instances.parse_instance(data)
    res = out["result"]
    if out["code"] == 0:
        _require(res["outcome"] == "cover", "exit code 0 without a cover")
        mask = sum(1 << e for e in res["I_M"])
        _check_cover(lib, inst.matroid, inst.polymatroid, res["b"], mask, res["y"])
        objective = Fraction(res["b"])
    else:
        _require(out["code"] == 2 and res["outcome"] == "infeasible",
                 f"exit code {out['code']}")
        records, zeroed = cli_certificates(lib, inst, res)
        _require(_infeasible_ok(lib, inst.matroid, inst.polymatroid, res["b"], records, zeroed),
                 "infeasibility is not proven")
        objective = Fraction(0)
    return objective, {k: v for k, v in res.items() if k != "oracle_queries"}


def check_core_certify(lib: Lib, data: bytes, out) -> tuple[Fraction, dict]:
    inst = lib.instances.parse_instance(data)
    levels = out["levels"]
    for b, res in enumerate(levels[:-1], start=1):
        _check_cover(lib, inst.matroid, inst.polymatroid, b, res.I_M, res.y)
    last = levels[-1]
    _require(all(r["ok"] for r in out["reports"]), "a certificate report is not ok")
    _require(not last.feasible and _infeasible_ok(lib, inst.matroid, inst.polymatroid, last.b,
                                                  last.certificates, last.zeroed),
             "the sweep did not end in a proven infeasibility")
    record = [{"b": r.b, "feasible": r.feasible, "I_M": r.I_M, "y": list(r.y),
               "restarts": r.restarts, "zeroed": r.zeroed, "nodes": r.total_recursion_nodes,
               "certificates": [[c.certificate.z1, c.certificate.z2, c.failed_element]
                                for c in r.certificates]} for r in levels]
    return Fraction(len(levels) - 1), {"levels": record}


def check_classical_lp(lib: Lib, data: bytes, out) -> tuple[Fraction, dict]:
    inst = lib.instances.parse_instance(data)
    alloc, t = out["alloc"], out["T"]
    if alloc is None:
        # no LP-feasible guess: correct only if no player-to-item matching
        # gives every player an item of positive value
        adj = [sum(1 << j for j, it in enumerate(inst.items) if it.values[i] > 0)
               for i in range(inst.num_entities)]
        _require(lib.matching.perfect_matching(adj, len(inst.items)) is None,
                 "no LP-feasible guess, yet every player can receive an item")
        return Fraction(0), {"T": None}
    try:
        lib.instances.validate_allocation(inst, alloc)
    except ValueError as exc:
        raise CheckFailed(f"allocation invalid: {exc}") from exc
    vals = _values(inst, alloc)
    known = [v for it in inst.items for v in it.values if v is not None]
    if isinstance(inst, lib.instances.MakespanInstance):
        _require(max(vals) <= t + max(known), "makespan above T* + p_max")
        objective = 1 / max(vals)
    else:
        _require(min(vals) >= t - max(known), "santa value below T - v_max")
        objective = min(vals)
    return objective, {"T": str(t), "alloc": [list(v) for v in alloc]}


CHECKS = {"santa-pipeline": check_santa_pipeline, "core-induced": check_core_induced,
          "core-certify": check_core_certify, "classical-lp": check_classical_lp}


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def gmean(values) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))
