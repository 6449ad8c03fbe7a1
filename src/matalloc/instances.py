"""Problem instances, JSON serialization, generators, and equal-value merging.

Flavors: max-min fair allocation ("santa") and makespan minimization, each
classical (per-entity values/sizes) or matroid (one value per item plus a
polymatroid over the entities; the item is allocated to a basis). Values
are exact rationals encoded as {"num", "den"} pairs; an infinite
processing time encodes as JSON null. An instance's items are all classical
or all matroid items. Every index a document names lies below MAX_INDEX
(2^20), and a uniform matroid's n is at most MAX_INDEX.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from .bitsets import bits, mask_of
from .limits import SchemaError
from .matching import ArcNumbering
from .matroids import (ContractedMatroid, ExplicitMatroid, GraphicMatroid, InducedMatroid,
                       MatroidOracle, PartitionMatroid, TransversalMatroid, UniformMatroid,
                       UnionMatroid, ZeroedMatroid)
from .polymatroids import (CappedPoly, CoveragePoly, DualPoly, ExplicitPoly, MarginalPoly,
                           ModularPoly, PolymatroidOracle, ScaledRankPoly, SumPoly,
                           VectorContractedPoly, is_basis, member)


@dataclass
class Item:
    """A resource (santa) or job (makespan).

    Classical flavor: values[i] per entity, None meaning infinite size
    (makespan only). Matroid flavor: a single value plus a polymatroid
    over the entities.
    """

    values: tuple | None = None
    value: Fraction | None = None
    polymatroid: PolymatroidOracle | None = None

    def value_for(self, i: int) -> Fraction | None:
        return self.values[i] if self.values is not None else self.value


@dataclass(frozen=True)
class IntegerValues:
    """An instance's values as integers over one scale, the lcm of their
    denominators. values[j] is item j's value times scale: one int for a
    matroid item, one per entity for a classical item (None for an infinite
    size). eligible[j] masks the entities classical item j may go to (it has
    a positive value, a finite size there; 0 for a matroid item), and
    restricted[j] says that item j takes one value over them, as a matroid
    item does. classes lists each distinct value with its items, by
    increasing value, when every item of a max-min instance is a matroid
    item; else it is empty."""

    scale: int
    values: tuple
    eligible: tuple[int, ...]
    restricted: tuple[bool, ...]
    classes: tuple[tuple[int, tuple[int, ...]], ...]

    @cached_property
    def numbering(self) -> ArcNumbering:
        """The transportation network's arcs, from each item to its eligible entities."""
        return ArcNumbering(self.eligible)


class _Instance:
    """What both instance classes share. The kept views (int_values, a
    max-min instance's resource sums and induced matroids) are built on
    first use and assume that the items are not changed after it."""

    def __post_init__(self):
        matroid = [it.polymatroid is not None for it in self.items]
        if len(set(matroid)) > 1:
            j = matroid.index(not matroid[0])
            kinds = ("classical", "matroid") if matroid[0] else ("matroid", "classical")
            raise ValueError(f"item {j}: a {kinds[0]} item among {kinds[1]} items; an "
                             "instance's items are all classical or all matroid items")

    @property
    def is_matroid_flavor(self) -> bool:
        return any(it.polymatroid is not None for it in self.items)

    @cached_property
    def int_values(self) -> IntegerValues:
        makespan = isinstance(self, MakespanInstance)
        matroid = [it.polymatroid is not None for it in self.items]
        scale = lcm(*(v.denominator for it, mat in zip(self.items, matroid)
                      for v in ((it.value,) if mat else it.values) if v is not None))

        def scaled(v):
            return None if v is None else v.numerator * (scale // v.denominator)

        values = [scaled(it.value) if mat else tuple(map(scaled, it.values))
                  for it, mat in zip(self.items, matroid)]
        eligible = [0 if mat else
                    mask_of(i for i, v in enumerate(row) if (v is not None if makespan else v > 0))
                    for row, mat in zip(values, matroid)]
        restricted = [mat or len({row[i] for i in bits(mask)}) <= 1
                      for row, mask, mat in zip(values, eligible, matroid)]
        classes: dict[int, list[int]] = {}
        if not makespan and all(matroid) and values:
            for j, v in enumerate(values):
                classes.setdefault(v, []).append(j)
        return IntegerValues(scale, tuple(values), tuple(eligible), tuple(restricted),
                             tuple((v, tuple(classes[v])) for v in sorted(classes)))


@dataclass
class SantaInstance(_Instance):
    num_players: int
    resources: list[Item]
    # resource-index tuple -> sum of those resources' polymatroids
    _sums: dict[tuple[int, ...], PolymatroidOracle] = field(default_factory=dict, init=False,
                                                            repr=False, compare=False)
    # resource-index tuple -> the matroid that sum induces
    _induced: dict[tuple[int, ...], InducedMatroid] = field(default_factory=dict, init=False,
                                                            repr=False, compare=False)

    @property
    def num_entities(self) -> int:
        return self.num_players

    @property
    def items(self) -> list[Item]:
        return self.resources

    def resource_sum(self, idxs: Sequence[int]) -> PolymatroidOracle:
        """The polymatroid sum of the resources idxs (the zero polymatroid for
        none), built once per index tuple and kept with the instance, so that
        its memos carry over from one guess of a guess loop to the next."""
        key = tuple(idxs)
        hit = self._sums.get(key)
        if hit is None:
            hit = self._sums[key] = (SumPoly([self.resources[j].polymatroid for j in key])
                                     if key else ModularPoly([0] * self.num_players))
        return hit

    def induced_matroid(self, idxs: Sequence[int]) -> InducedMatroid:
        """The matroid induced by resource_sum(idxs), kept per index tuple
        like the sum, so that its rank memo and the cover outcomes kept on it
        carry over between guesses."""
        key = tuple(idxs)
        hit = self._induced.get(key)
        if hit is None:
            hit = self._induced[key] = InducedMatroid(self.resource_sum(key))
        return hit


@dataclass
class MakespanInstance(_Instance):
    num_machines: int
    jobs: list[Item]

    @property
    def num_entities(self) -> int:
        return self.num_machines

    @property
    def items(self) -> list[Item]:
        return self.jobs


@dataclass
class CoreCoverInstance:
    """Cover every element by an independent set or by polymatroid multiplicity b."""

    matroid: MatroidOracle
    polymatroid: PolymatroidOracle
    b: int = 1

    @property
    def n(self) -> int:
        return self.matroid.n


Allocation = list  # list of per-item entity vectors (tuples of ints)


def unit_vector(i: int, m: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(m))


def assignment_to_alloc(choices: Sequence[int | None], m: int) -> Allocation:
    return [unit_vector(c, m) if c is not None else tuple([0] * m) for c in choices]


def scaled_totals(inst, alloc: Allocation) -> list:
    """entity_totals times the instance's scale (int_values.scale), summed
    over the integer values: ints for an allocation or for integer rows,
    Fractions for rows of Fractions. A placement on an infinite size raises
    ValueError naming the item."""
    totals = [0] * inst.num_entities
    for j, (v, vec) in enumerate(zip(inst.int_values.values, alloc)):
        if not isinstance(v, tuple):  # a matroid item: one value
            for i, k in enumerate(vec):
                if k:
                    totals[i] += v * k
            continue
        for i, k in enumerate(vec):
            if k:
                if v[i] is None:
                    raise ValueError(f"item {j}: placed on a machine with infinite size")
                totals[i] += v[i] * k
    return totals


def entity_totals(inst, alloc: Allocation) -> list[Fraction]:
    """Per-entity sum of value times multiplicity: player values for max-min,
    machine loads for makespan, of an allocation or of the rows of a
    fractional assignment (scaled_totals over the instance's scale); a
    placement on an infinite size raises ValueError naming the item."""
    scale = inst.int_values.scale
    return [Fraction(t, scale) for t in scaled_totals(inst, alloc)]


def validate_allocation(inst, alloc: Allocation, require_basis: bool | None = None) -> None:
    """Structural validity: one vector of num_entities nonnegative entries
    per item; 0/1 vectors with at most one 1 for classical items (makespan
    jobs must be placed; santa resources may stay unassigned), polymatroid
    membership (bases where required) for matroid items. Every entry must be
    an int (not a bool), so that membership is decided in integers. A
    violation raises ValueError naming the item."""
    is_makespan = isinstance(inst, MakespanInstance)
    if require_basis is None:
        require_basis = is_makespan
    if len(alloc) != len(inst.items):
        raise ValueError("one vector per item required")
    m = inst.num_entities
    for j, (it, vec) in enumerate(zip(inst.items, alloc)):
        if len(vec) != m:
            raise ValueError(f"item {j}: vector has {len(vec)} entries, expected {m}")
        bad = [v for v in vec if not _is_int(v)]
        if bad:
            raise ValueError(f"item {j}: multiplicity {bad[0]!r} is not an integer")
        if any(v < 0 for v in vec):
            raise ValueError(f"item {j}: negative multiplicity")
        if it.polymatroid is not None:
            if require_basis:
                if not is_basis(it.polymatroid, vec):
                    raise ValueError(f"item {j}: vector is not a basis of its polymatroid")
            elif not member(it.polymatroid, vec):
                raise ValueError(f"item {j}: vector outside its polymatroid")
        elif sum(vec) > 1 or not set(vec) <= {0, 1}:
            raise ValueError(f"item {j}: a classical item goes whole to at most one entity")
        elif is_makespan and 1 not in vec:
            raise ValueError(f"item {j}: job placed on no machine")


# ---------------------------------------------------------------------------
# JSON encoding


def _rat_to_json(v: Fraction | None):
    if v is None:
        return None
    f = Fraction(v)
    return {"num": f.numerator, "den": f.denominator}


def _is_int(v) -> bool:
    """A JSON integer: bools are ints to Python, not to the schema."""
    return isinstance(v, int) and not isinstance(v, bool)


# The parser's one size bound. Every index a document names lies below it,
# and a uniform matroid's n, the one ground size that nothing else in a
# document bounds, is at most it, so no mask the parser builds takes more
# than MAX_INDEX bits. A transversal matroid numbers the right vertices it
# names densely, so its num_right sizes nothing and needs no bound.
MAX_INDEX = 1 << 20


def _mask_from_json(obj, bound: int, what: str, path: str) -> int:
    """A list of indices of what (elements, items, ...) as a mask, each
    checked to be an integer (not a bool) in 0..min(bound, MAX_INDEX)−1
    before it is shifted, so that a huge index builds no huge integer."""
    bound = min(bound, MAX_INDEX)
    for i, e in enumerate(obj):
        if not _is_int(e) or not 0 <= e < bound:
            raise SchemaError(f"{path}[{i}]: must name one of the {what} 0..{bound - 1}, "
                              f"got {e!r}")
    return mask_of(obj)


def _rat_from_json(obj, path: str) -> Fraction | None:
    if obj is None:
        return None
    if isinstance(obj, bool):
        raise SchemaError(f"{path}: expected a rational, got a bool")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, dict):
        try:
            num, den = obj["num"], obj["den"]
        except KeyError as exc:
            raise SchemaError(f"{path}: rational needs num and den") from exc
        if not _is_int(num) or not _is_int(den) or den == 0:
            raise SchemaError(f"{path}: rational num/den must be integers, den nonzero")
        return Fraction(num, den)
    raise SchemaError(f"{path}: expected a rational")


def _table_from_json(obj, path: str, entries: str) -> list:
    """The 2^n integer entries of an explicit table, in subset order. An n
    with more subsets than the table has keys is refused before 1 << n is
    formed; entries names the values in the message refusing a non-integer."""
    n, table = obj["n"], obj["table"]
    if _is_int(n) and n >= len(table).bit_length():
        raise SchemaError(f"{path}.n: an explicit table over {n} elements needs 2^{n} "
                          f"entries, it has {len(table)}")
    values = [table[str(x)] for x in range(1 << n)]
    if not all(map(_is_int, values)):
        raise SchemaError(f"{path}.table: {entries} must be integers")
    return values


def matroid_to_json(m: MatroidOracle) -> dict:
    if isinstance(m, UniformMatroid):
        return {"kind": "uniform", "n": m.n, "rank": m.k}
    if isinstance(m, PartitionMatroid):
        return {"kind": "partition", "n": m.n,
                "blocks": [sorted(bits(b)) for b in m.blocks], "caps": list(m.caps)}
    if isinstance(m, GraphicMatroid):
        return {"kind": "graphic", "vertices": m.num_vertices, "edges": [list(e) for e in m.edges]}
    if isinstance(m, TransversalMatroid):
        return {"kind": "transversal", "n": m.n, "num_right": m.num_right,
                "adjacency": [sorted(bits(a)) for a in m.adjacency]}
    if isinstance(m, ExplicitMatroid):
        return {"kind": "explicit", "n": m.n, "table": {str(x): m.table[x] for x in range(1 << m.n)}}
    if isinstance(m, ContractedMatroid):
        return {"kind": "contracted", "inner": matroid_to_json(m.inner), "set": sorted(bits(m.cmask))}
    if isinstance(m, ZeroedMatroid):
        return {"kind": "zeroed", "inner": matroid_to_json(m.inner), "removed": sorted(bits(m.removed))}
    if isinstance(m, UnionMatroid):
        return {"kind": "union", "parts": [matroid_to_json(p) for p in m.parts]}
    if isinstance(m, InducedMatroid):
        return {"kind": "induced", "polymatroid": poly_to_json(m.poly)}
    raise SchemaError(f"matroid kind {type(m).__name__} has no JSON form")


def matroid_from_json(obj, path: str = "matroid") -> MatroidOracle:
    """The matroid a JSON object describes. A uniform matroid's n above
    MAX_INDEX is refused before a contraction builds a mask over it."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{path}: matroid object needs a kind")
    kind = obj["kind"]
    try:
        if kind == "uniform":
            n = obj["n"]
            if _is_int(n) and n > MAX_INDEX:
                raise SchemaError(f"{path}.n: {n} elements, more than {MAX_INDEX}")
            return UniformMatroid(n, obj["rank"])
        if kind == "partition":
            n = obj["n"]
            blocks = [_mask_from_json(b, n, "elements", f"{path}.blocks[{i}]")
                      for i, b in enumerate(obj["blocks"])]
            return PartitionMatroid(n, blocks, obj["caps"])
        if kind == "graphic":
            return GraphicMatroid(obj["vertices"], [tuple(e) for e in obj["edges"]])
        if kind == "transversal":
            if "n" in obj and not (_is_int(obj["n"]) and obj["n"] == len(obj["adjacency"])):
                raise SchemaError(f"{path}.n: must be the number of adjacency rows")
            right = obj["num_right"]
            return TransversalMatroid([_mask_from_json(a, right, "right vertices",
                                                       f"{path}.adjacency[{i}]")
                                       for i, a in enumerate(obj["adjacency"])], right)
        if kind == "explicit":
            return ExplicitMatroid(obj["n"], _table_from_json(obj, path, "matroid ranks"))
        if kind == "contracted":
            inner = matroid_from_json(obj["inner"], path + ".inner")
            return ContractedMatroid(inner, _mask_from_json(obj["set"], inner.n, "elements",
                                                            path + ".set"))
        if kind == "zeroed":
            inner = matroid_from_json(obj["inner"], path + ".inner")
            return ZeroedMatroid(inner, _mask_from_json(obj["removed"], inner.n, "elements",
                                                        path + ".removed"))
        if kind == "union":
            return UnionMatroid([matroid_from_json(p, f"{path}.parts[{i}]")
                                 for i, p in enumerate(obj["parts"])])
        if kind == "induced":
            return InducedMatroid(poly_from_json(obj["polymatroid"], path + ".polymatroid"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad {kind} matroid: {exc}") from exc
    raise SchemaError(f"{path}: unknown matroid kind {kind!r}")


def poly_to_json(p: PolymatroidOracle) -> dict:
    if isinstance(p, ModularPoly):
        return {"kind": "modular", "weights": list(p.weights)}
    if isinstance(p, CoveragePoly):
        return {"kind": "coverage", "sets": [sorted(bits(c)) for c in p.covers],
                "weights": list(p.item_weights)}
    if isinstance(p, ScaledRankPoly):
        return {"kind": "scaled-rank", "matroid": matroid_to_json(p.matroid), "scale": p.scale}
    if isinstance(p, ExplicitPoly):
        return {"kind": "explicit", "n": p.n, "table": {str(x): p.table[x] for x in range(1 << p.n)}}
    if isinstance(p, SumPoly):
        return {"kind": "sum", "parts": [poly_to_json(q) for q in p.parts]}
    if isinstance(p, CappedPoly):
        return {"kind": "capped", "inner": poly_to_json(p.inner), "caps": list(p.caps)}
    if isinstance(p, VectorContractedPoly):
        return {"kind": "contracted", "inner": poly_to_json(p.inner), "base": list(p.base)}
    if isinstance(p, MarginalPoly):
        return {"kind": "set-contracted", "inner": poly_to_json(p.inner),
                "set": sorted(bits(p.base_mask))}
    if isinstance(p, DualPoly):
        return {"kind": "dual", "inner": poly_to_json(p.inner), "z": list(p.z)}
    raise SchemaError(f"polymatroid kind {type(p).__name__} has no JSON form")


def poly_from_json(obj, path: str = "polymatroid") -> PolymatroidOracle:
    """The polymatroid a JSON object describes."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{path}: polymatroid object needs a kind")
    kind = obj["kind"]
    try:
        if kind == "modular":
            return ModularPoly(obj["weights"])
        if kind == "coverage":
            items = len(obj["weights"])
            return CoveragePoly([_mask_from_json(s, items, "items", f"{path}.sets[{i}]")
                                 for i, s in enumerate(obj["sets"])], obj["weights"])
        if kind == "scaled-rank":
            matroid = matroid_from_json(obj["matroid"], path + ".matroid")
            try:
                return ScaledRankPoly(matroid, obj["scale"])
            except ValueError as exc:
                raise SchemaError(f"{path}.scale: {exc}") from exc
        if kind == "explicit":
            return ExplicitPoly(obj["n"], _table_from_json(obj, path, "polymatroid values"))
        if kind == "sum":
            return SumPoly([poly_from_json(q, f"{path}.parts[{i}]")
                            for i, q in enumerate(obj["parts"])])
        if kind == "capped":
            return CappedPoly(poly_from_json(obj["inner"], path + ".inner"), obj["caps"])
        if kind == "contracted":
            return VectorContractedPoly(poly_from_json(obj["inner"], path + ".inner"),
                                        obj["base"])
        if kind == "set-contracted":
            inner = poly_from_json(obj["inner"], path + ".inner")
            return MarginalPoly(inner, _mask_from_json(obj["set"], inner.n, "elements",
                                                       path + ".set"))
        if kind == "dual":
            return DualPoly(poly_from_json(obj["inner"], path + ".inner"), obj["z"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad {kind} polymatroid: {exc}") from exc
    raise SchemaError(f"{path}: unknown polymatroid kind {kind!r}")


def serialize_instance(inst) -> bytes:
    if isinstance(inst, SantaInstance):
        kind = "santa-matroid" if inst.is_matroid_flavor else "santa"
        obj = {"type": kind, "players": inst.num_players,
               "items": [_item_to_json(it) for it in inst.resources]}
    elif isinstance(inst, MakespanInstance):
        kind = "makespan-matroid" if inst.is_matroid_flavor else "makespan"
        obj = {"type": kind, "machines": inst.num_machines,
               "items": [_item_to_json(it) for it in inst.jobs]}
    elif isinstance(inst, CoreCoverInstance):
        obj = {"type": "core-cover", "matroid": matroid_to_json(inst.matroid),
               "polymatroid": poly_to_json(inst.polymatroid), "b": inst.b}
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    return json.dumps(obj, sort_keys=True, indent=1).encode()


def _item_to_json(it: Item) -> dict:
    out: dict = {}
    if it.values is not None:
        out["values"] = [_rat_to_json(v) for v in it.values]
    if it.value is not None:
        out["value"] = _rat_to_json(it.value)
    if it.polymatroid is not None:
        out["polymatroid"] = poly_to_json(it.polymatroid)
    return out


def parse_instance(data: bytes | str):
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("top level: expected an object")
    kind = obj.get("type")
    if kind in ("santa", "santa-matroid"):
        m = _count(obj, "players")
        items = _parse_items(obj, m, kind == "santa-matroid", allow_none=False)
        inst = SantaInstance(m, items)
    elif kind in ("makespan", "makespan-matroid"):
        m = _count(obj, "machines")
        items = _parse_items(obj, m, kind == "makespan-matroid", allow_none=True)
        inst = MakespanInstance(m, items)
    elif kind == "core-cover":
        for fld in ("matroid", "polymatroid", "b"):
            if fld not in obj:
                raise SchemaError(f"missing field: {fld}")
        if not _is_int(obj["b"]) or obj["b"] < 1:
            raise SchemaError("b: must be a positive integer")
        inst = CoreCoverInstance(matroid_from_json(obj["matroid"]),
                                 poly_from_json(obj["polymatroid"]), obj["b"])
        if inst.matroid.n != inst.polymatroid.n:
            raise SchemaError("matroid/polymatroid: ground sets differ")
    else:
        raise SchemaError(f"type: unknown instance type {kind!r}")
    return inst


def _count(obj: dict, field: str) -> int:
    if field not in obj:
        raise SchemaError(f"missing field: {field}")
    m = obj[field]
    if not _is_int(m) or m < 0:
        raise SchemaError(f"{field}: must be a nonnegative integer")
    return m


def _parse_items(obj, m: int, matroid_flavor: bool, allow_none: bool) -> list[Item]:
    raw = obj.get("items")
    if not isinstance(raw, list):
        raise SchemaError("items: expected a list")
    items = []
    for j, it in enumerate(raw):
        path = f"items[{j}]"
        if not isinstance(it, dict):
            raise SchemaError(f"{path}: expected an object")
        if matroid_flavor:
            if "value" not in it or "polymatroid" not in it:
                raise SchemaError(f"{path}: matroid items need value and polymatroid")
            v = _rat_from_json(it["value"], path + ".value")
            if v is None or v < 0:
                raise SchemaError(f"{path}.value: must be a nonnegative rational")
            poly = poly_from_json(it["polymatroid"], path + ".polymatroid")
            if poly.n != m:
                raise SchemaError(f"{path}.polymatroid: ground set size != entity count")
            items.append(Item(value=v, polymatroid=poly))
        else:
            if "values" not in it:
                raise SchemaError(f"{path}: classical items need values")
            vals = it["values"]
            if not isinstance(vals, list) or len(vals) != m:
                raise SchemaError(f"{path}.values: expected {m} entries")
            parsed = []
            for i, v in enumerate(vals):
                r = _rat_from_json(v, f"{path}.values[{i}]")
                if r is None and not allow_none:
                    raise SchemaError(f"{path}.values[{i}]: null only encodes infinite sizes")
                if r is not None and r < 0:
                    raise SchemaError(f"{path}.values[{i}]: negative value")
                parsed.append(r)
            items.append(Item(values=tuple(parsed)))
    return items


# ---------------------------------------------------------------------------
# Generators


def gen_gap_instance(m: int, b: int = 1) -> CoreCoverInstance:
    """The integrality-gap core instance: uniform matroid of rank m-1 over m
    elements with the counting polymatroid f(X) = |X|; optimal cover value 1."""
    if m < 2:
        raise ValueError("gap instance needs m >= 2")
    return CoreCoverInstance(UniformMatroid(m, m - 1), ModularPoly([1] * m), b)


def _random_poly(rng: random.Random, n: int, max_weight: int = 3) -> PolymatroidOracle:
    kind = rng.choice(["modular", "coverage", "scaled-rank"])
    if kind == "modular":
        return ModularPoly([rng.randint(0, max_weight) for _ in range(n)])
    if kind == "coverage":
        universe = rng.randint(1, n + 2)
        covers = [mask_of(i for i in range(universe) if rng.random() < 0.5) for _ in range(n)]
        weights = [rng.randint(1, max_weight) for _ in range(universe)]
        return CoveragePoly(covers, weights)
    return ScaledRankPoly(_random_matroid(rng, n), rng.randint(1, max_weight))


def _random_matroid(rng: random.Random, n: int) -> MatroidOracle:
    kind = rng.choice(["uniform", "partition", "graphic", "transversal"])
    if kind == "uniform":
        return UniformMatroid(n, rng.randint(0, n))
    if kind == "partition":
        labels = [rng.randrange(max(1, n // 2)) for _ in range(n)]
        blocks, caps = [], []
        for lab in sorted(set(labels)):
            blocks.append(mask_of(e for e in range(n) if labels[e] == lab))
            caps.append(rng.randint(0, 2))
        return PartitionMatroid(n, blocks, caps)
    if kind == "graphic":
        verts = rng.randint(2, max(2, n))
        edges = [(rng.randrange(verts), rng.randrange(verts)) for _ in range(n)]
        return GraphicMatroid(verts, edges)
    num_right = rng.randint(1, n)
    adjacency = [mask_of(r for r in range(num_right) if rng.random() < 0.6) for _ in range(n)]
    return TransversalMatroid(adjacency, num_right)


def gen_random(flavor: str, seed: int, **params):
    """Deterministic random instance; size parameters by flavor:
    m (entities; at least 2 for gap, else at least 1), n (items, >= 0),
    u/w (the two values, >= 0), b (cover level of gap and core-cover,
    >= 1), and the library-only max_weight (core-cover and the matroid
    flavors) and den (unrelated-santa), both >= 1; m is at most MAX_INDEX,
    the parser's size bound. A value out of range raises SchemaError naming
    its `matalloc gen` flag or its parameter, before anything is built."""
    rng = random.Random(seed)
    m = params.get("m", 4)
    n = params.get("n", 6)
    u = Fraction(params.get("u", Fraction(1)))
    w = Fraction(params.get("w", Fraction(3)))
    b = params.get("b", 1)
    max_weight = params.get("max_weight", 3)
    den = params.get("den", 4)
    least_m = 2 if flavor == "gap" else 1
    for flag, bad, need in (("--m", m < least_m, f"at least {least_m} for {flavor}"),
                            ("--m", m > MAX_INDEX, f"at most {MAX_INDEX}"),
                            ("--n", n < 0, "nonnegative"),
                            ("--u", u < 0, "nonnegative"),
                            ("--w", w < 0, "nonnegative"),
                            ("--b", b < 1, "a positive integer"),
                            ("max_weight", max_weight < 1, "a positive integer"),
                            ("den", den < 1, "a positive integer")):
        if bad:
            raise SchemaError(f"{flag}: must be {need}")

    if flavor == "gap":
        return gen_gap_instance(m, b)
    if flavor == "core-cover":
        return CoreCoverInstance(_random_matroid(rng, m), _random_poly(rng, m, max_weight), b)
    if flavor == "unrelated-santa":
        items = [Item(values=tuple(Fraction(rng.randint(0, den * 2), den) for _ in range(m)))
                 for _ in range(n)]
        return SantaInstance(m, items)
    # each santa/makespan pair differs only in the class and the off-entity
    # entry (0 for a player, None for a machine), with the same draws
    cls, off = (MakespanInstance, None) if "makespan" in flavor else (SantaInstance, Fraction(0))
    if flavor in ("restricted-santa", "restricted-makespan"):
        items = []
        for _ in range(n):
            v = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            allowed = [i for i in range(m) if rng.random() < 0.6] or [rng.randrange(m)]
            items.append(Item(values=tuple(v if i in allowed else off for i in range(m))))
        return cls(m, items)
    if flavor in ("two-value-santa", "two-value-makespan"):
        items = []
        for _ in range(n):
            row = tuple(rng.choice([off, u, w]) for _ in range(m))
            if all(v == off for v in row):
                row = row[:-1] + (rng.choice([u, w]),)
            items.append(Item(values=row))
        return cls(m, items)
    if flavor in ("santa-matroid", "makespan-matroid"):
        return cls(m, [Item(value=rng.choice([u, w]), polymatroid=_random_poly(rng, m, max_weight))
                       for _ in range(n)])
    raise ValueError(f"unknown flavor {flavor!r}")


# ---------------------------------------------------------------------------
# Equal-value merging (matroid flavors)


@dataclass
class MergeRecord:
    merged: SantaInstance | MakespanInstance
    groups: list[list[int]]  # merged item index -> original item indices


def merge_equal_value(inst) -> MergeRecord:
    """One item per distinct value; each group's polymatroid is the sum of the
    originals. Solutions split back via split_merged_solution."""
    if not inst.is_matroid_flavor:
        raise ValueError("merging applies to matroid-flavor instances")
    groups: dict[Fraction, list[int]] = {}  # in order of first appearance
    for j, it in enumerate(inst.items):
        groups.setdefault(it.value, []).append(j)
    merged_items = []
    for v, idxs in groups.items():
        polys = [inst.items[j].polymatroid for j in idxs]
        poly = polys[0] if len(polys) == 1 else SumPoly(polys)
        merged_items.append(Item(value=v, polymatroid=poly))
    if isinstance(inst, SantaInstance):
        merged = SantaInstance(inst.num_players, merged_items)
    else:
        merged = MakespanInstance(inst.num_machines, merged_items)
    return MergeRecord(merged, list(groups.values()))


def split_merged_solution(inst, record: MergeRecord, merged_alloc: Allocation) -> Allocation:
    """Decompose each merged basis into bases of the original polymatroids."""
    from .intersection import decompose_merged_basis

    out: Allocation = [None] * len(inst.items)
    for g, vec in zip(record.groups, merged_alloc):
        parts = [inst.items[j].polymatroid for j in g]
        pieces = decompose_merged_basis(parts, vec)
        for j, piece in zip(g, pieces):
            out[j] = piece
    return out
