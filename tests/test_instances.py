"""Instance model, JSON round trips, generators, and equal-value merging."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matalloc.bitsets import full_mask
from matalloc.instances import (Item, MakespanInstance, SantaInstance,
                                assignment_to_alloc, entity_totals, gen_gap_instance,
                                gen_random, matroid_from_json, matroid_to_json,
                                merge_equal_value, parse_instance, poly_from_json, poly_to_json,
                                serialize_instance, split_merged_solution, validate_allocation)
from matalloc.limits import SchemaError
from matalloc.matroids import (ContractedMatroid, ExplicitMatroid, GraphicMatroid,
                               InducedMatroid, PartitionMatroid, TransversalMatroid,
                               UniformMatroid, UnionMatroid, ZeroedMatroid)
from matalloc.oracle import brute_max_cover_b, check_axioms, enumerate_bases
from matalloc.polymatroids import (CappedPoly, CoveragePoly, DualPoly, ExplicitPoly, MarginalPoly,
                                   ModularPoly, ScaledRankPoly, SumPoly, VectorContractedPoly,
                                   is_basis)


class TestJson:
    def test_minimal_restricted_santa(self):
        data = (b'{"type": "santa", "players": 2, '
                b'"items": [{"values": [{"num": 1, "den": 1}, {"num": 0, "den": 1}]}]}')
        inst = parse_instance(data)
        assert inst.num_players == 2 and inst.resources[0].values == (Fraction(1), Fraction(0))

    def test_gap_instance_roundtrip(self):
        inst = gen_gap_instance(3)
        again = parse_instance(serialize_instance(inst))
        assert serialize_instance(again) == serialize_instance(inst)
        assert again.matroid.rank(full_mask(3)) == 2

    def test_missing_players_named(self):
        with pytest.raises(SchemaError, match="players"):
            parse_instance(b'{"type": "santa", "items": []}')

    def test_non_integer_poly_rejected(self):
        bad = (b'{"type": "core-cover", "b": 1, '
               b'"matroid": {"kind": "uniform", "n": 1, "rank": 1}, '
               b'"polymatroid": {"kind": "explicit", "n": 1, "table": {"0": 0, "1": 1.5}}}')
        with pytest.raises(SchemaError, match="integer"):
            parse_instance(bad)

    def test_negative_value_rejected(self):
        bad = (b'{"type": "santa", "players": 1, '
               b'"items": [{"values": [{"num": -1, "den": 1}]}]}')
        with pytest.raises(SchemaError, match="negative"):
            parse_instance(bad)

    def test_infinite_size_encodes_as_null(self):
        inst = MakespanInstance(2, [Item(values=(Fraction(1), None))])
        again = parse_instance(serialize_instance(inst))
        assert again.jobs[0].values == (Fraction(1), None)

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_generator_outputs_roundtrip(self, seed):
        rng = random.Random(seed)
        flavor = rng.choice(["gap", "core-cover", "unrelated-santa", "restricted-santa",
                             "two-value-santa", "two-value-makespan", "restricted-makespan",
                             "santa-matroid", "makespan-matroid"])
        inst = gen_random(flavor, seed, m=rng.randint(2, 4), n=rng.randint(1, 5))
        blob = serialize_instance(inst)
        assert serialize_instance(parse_instance(blob)) == blob

    def test_every_matroid_kind_roundtrips_with_its_ranks(self):
        graphic = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
        partition = PartitionMatroid(5, [0b00011, 0b11100], [1, 2])
        transversal = TransversalMatroid([0b01, 0b11, 0b10, 0b00], 2)
        coverage = CoveragePoly([0b011, 0b110, 0b100, 0b001], [1, 2, 1])
        matroids = {
            "uniform": UniformMatroid(4, 2),
            "partition": partition,
            "graphic": graphic,
            "transversal": transversal,
            "explicit": ExplicitMatroid(3, [0, 1, 1, 2, 1, 2, 2, 2]),
            "contracted": ContractedMatroid(graphic, 0b0001),
            "zeroed": ZeroedMatroid(partition, 0b00100),
            "union": UnionMatroid([UniformMatroid(4, 1), transversal]),
            "induced": InducedMatroid(SumPoly([coverage, ScaledRankPoly(graphic, 1)])),
        }
        for kind, m in matroids.items():
            obj = json.loads(json.dumps(matroid_to_json(m)))
            assert obj["kind"] == kind
            again = matroid_from_json(obj)
            assert matroid_to_json(again) == obj
            assert [again.rank(x) for x in range(1 << m.n)] == [m.rank(x) for x in range(1 << m.n)]


    def test_every_polymatroid_kind_roundtrips_with_its_values(self):
        modular = ModularPoly([2, 1, 3])
        coverage = CoveragePoly([0b011, 0b110, 0b100], [1, 2, 1])
        capped = CappedPoly(SumPoly([modular, coverage]), [1, None, 2])
        polys = [
            ("modular", modular),
            ("coverage", coverage),
            ("scaled-rank", ScaledRankPoly(GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)]), 2)),
            ("explicit", ExplicitPoly(3, [coverage.value(x) for x in range(8)])),
            ("sum", SumPoly([modular, coverage])),
            ("capped", capped),
            ("contracted", VectorContractedPoly(coverage, [1, 1, 0])),
            ("set-contracted", MarginalPoly(coverage, 0b001)),
            ("dual", DualPoly(modular, [2, 1, 3])),
            ("set-contracted", MarginalPoly(capped, 0b010)),
        ]
        for kind, p in polys:
            obj = json.loads(json.dumps(poly_to_json(p)))
            assert obj["kind"] == kind
            again = poly_from_json(obj)
            assert poly_to_json(again) == obj
            assert [again.value(x) for x in range(8)] == [p.value(x) for x in range(8)]
        assert poly_to_json(polys[-1][1])["inner"]["kind"] == "capped"

UNIFORM2 = {"kind": "uniform", "n": 2, "rank": 1}

# (parser, the object with e as entry 1 of one element-index list, that
# list's path); every list has the index bound 2
INDEX_LISTS = {
    "coverage-sets": (poly_from_json, lambda e: {"kind": "coverage", "sets": [[0], [0, e]],
                                                 "weights": [1, 1]}, "polymatroid.sets[1]"),
    "partition-blocks": (matroid_from_json, lambda e: {"kind": "partition", "n": 2,
                                                       "blocks": [[0, e]], "caps": [1]},
                         "matroid.blocks[0]"),
    "transversal-adjacency": (matroid_from_json,
                              lambda e: {"kind": "transversal", "n": 2, "num_right": 2,
                                         "adjacency": [[0], [0, e]]}, "matroid.adjacency[1]"),
    "contracted-set": (matroid_from_json, lambda e: {"kind": "contracted", "inner": UNIFORM2,
                                                     "set": [0, e]}, "matroid.set"),
    "zeroed-removed": (matroid_from_json, lambda e: {"kind": "zeroed", "inner": UNIFORM2,
                                                     "removed": [0, e]}, "matroid.removed"),
    "set-contracted-set": (poly_from_json,
                           lambda e: {"kind": "set-contracted", "set": [0, e],
                                      "inner": {"kind": "modular", "weights": [1, 1]}},
                           "polymatroid.set"),
}


@pytest.mark.parametrize("bad", [True, False, 2, -1])
@pytest.mark.parametrize("field", INDEX_LISTS)
def test_index_lists_refuse_bools_and_out_of_range_entries(field, bad):
    parse, make, path = INDEX_LISTS[field]
    parse(make(1))
    with pytest.raises(SchemaError, match=re.escape(f"{path}[1]: must name one of the")):
        parse(make(bad))


class TestGenerators:
    def test_gap_values(self):
        for m in (2, 3):
            inst = gen_gap_instance(m)
            assert inst.n == m and inst.matroid.rank(full_mask(m)) == m - 1
            assert inst.polymatroid.value(full_mask(m)) == m

    def test_gap_optimum_is_one(self):
        inst = gen_gap_instance(2)
        assert brute_max_cover_b(inst.matroid, inst.polymatroid) == 1

    def test_determinism(self):
        a = gen_random("restricted-santa", 1, m=4, n=6)
        b = gen_random("restricted-santa", 1, m=4, n=6)
        assert serialize_instance(a) == serialize_instance(b)

    def test_two_value_flavor_constraint(self):
        inst = gen_random("two-value-makespan", 2, m=3, n=5, u=Fraction(1), w=Fraction(3))
        finite = {v for it in inst.jobs for v in it.values if v is not None}
        assert finite <= {Fraction(1), Fraction(3)}

    def test_matroid_flavor_axioms(self):
        inst = gen_random("santa-matroid", 3, m=3, n=4)
        for it in inst.resources:
            assert check_axioms(it.polymatroid, seed=3, augmentation_samples=3)["ok"]

    @pytest.mark.parametrize("flavor, param, bad", [
        ("core-cover", "max_weight", 0), ("santa-matroid", "max_weight", 0),
        ("makespan-matroid", "max_weight", 0),
        ("unrelated-santa", "den", 0), ("unrelated-santa", "den", -1)])
    def test_library_only_parameters_are_checked(self, flavor, param, bad):
        with pytest.raises(SchemaError, match=f"^{param}: must be a positive integer$"):
            gen_random(flavor, 1, m=3, n=2, **{param: bad})


class TestAllocations:
    def test_values_and_loads(self):
        inst = SantaInstance(2, [Item(values=(Fraction(2), Fraction(1))),
                                 Item(values=(Fraction(0), Fraction(3)))])
        alloc = assignment_to_alloc([0, 1], 2)
        assert entity_totals(inst, alloc) == [Fraction(2), Fraction(3)]
        mk = MakespanInstance(2, [Item(values=(Fraction(2), Fraction(1)))])
        assert entity_totals(mk, assignment_to_alloc([1], 2)) == [Fraction(0), Fraction(1)]

    def test_validate_rejects_double_assignment(self):
        inst = SantaInstance(2, [Item(values=(Fraction(1), Fraction(1)))])
        with pytest.raises(ValueError):
            validate_allocation(inst, [(1, 1)])

    def test_validate_makespan_requires_assignment(self):
        mk = MakespanInstance(2, [Item(values=(Fraction(1), None))])
        with pytest.raises(ValueError, match="^item 0: job placed on no machine$"):
            validate_allocation(mk, [(0, 0)])

    @pytest.mark.parametrize("vec", [(1, 0, 0), (1,), ()], ids=["long", "short", "empty"])
    def test_validate_checks_the_vector_length(self, vec):
        inst = SantaInstance(2, [Item(values=(Fraction(1), Fraction(1)))] * 2)
        with pytest.raises(ValueError, match=f"^item 1: vector has {len(vec)} entries, "
                                             "expected 2$"):
            validate_allocation(inst, [(0, 1), vec])

    @pytest.mark.parametrize("vec", [(2, 0), (Fraction(1, 2), Fraction(1, 2)), (1, -1)],
                             ids=["doubled", "split", "negative"])
    def test_validate_wants_whole_classical_items(self, vec):
        mk = MakespanInstance(2, [Item(values=(Fraction(1), Fraction(1)))])
        with pytest.raises(ValueError, match="^item 0: "):
            validate_allocation(mk, [vec])

    # one matroid item over U(2, 1): (1, 0) is a basis; each vector below once
    # passed, its membership decided in float or Fraction arithmetic
    MATROID = SantaInstance(2, [Item(value=Fraction(1),
                                     polymatroid=ScaledRankPoly(UniformMatroid(2, 1), 1))])
    CLASSICAL = SantaInstance(2, [Item(values=(Fraction(1), Fraction(1)))])

    @pytest.mark.parametrize("inst, vec, bad", [
        (MATROID, (Fraction(1, 2), Fraction(1, 2)), "Fraction(1, 2)"),
        (MATROID, (0.5, 0.5), "0.5"),
        (MATROID, (0.7, 0.3), "0.7"),
        (MATROID, (True, False), "True"),
        (MATROID, (1, 0.0), "0.0"),
        (CLASSICAL, (1.0, 0.0), "1.0"),
        (CLASSICAL, (True, False), "True"),
    ], ids=["matroid-fraction", "matroid-halves", "matroid-floats", "matroid-bools",
            "matroid-one-float", "classical-floats", "classical-bools"])
    @pytest.mark.parametrize("require_basis", [None, True, False])
    def test_validate_wants_int_multiplicities(self, inst, vec, bad, require_basis):
        with pytest.raises(ValueError, match=re.escape(f"item 1: multiplicity {bad} is not an "
                                                       "integer")):
            validate_allocation(SantaInstance(2, inst.resources * 2), [(1, 0), vec],
                                require_basis)

    def test_validate_holds_a_matroid_item_to_its_polymatroid(self):
        validate_allocation(self.MATROID, [(1, 0)], require_basis=True)
        validate_allocation(self.MATROID, [(0, 0)])
        with pytest.raises(ValueError, match="^item 0: vector is not a basis of its polymatroid$"):
            validate_allocation(self.MATROID, [(0, 0)], require_basis=True)
        for require_basis in (None, False):
            with pytest.raises(ValueError, match="^item 0: vector outside its polymatroid$"):
                validate_allocation(self.MATROID, [(1, 1)], require_basis)

    def test_validate_accepts_a_basis_past_the_ground_cap(self):
        """The basis check of 30 players is one flow, which the ground cap
        (24) does not bound."""
        inst = SantaInstance(30, [Item(value=Fraction(1), polymatroid=ModularPoly([1] * 30))])
        validate_allocation(inst, [(1,) * 30], require_basis=True)
        with pytest.raises(ValueError, match="^item 0: vector is not a basis of its polymatroid$"):
            validate_allocation(inst, [(1,) * 29 + (0,)], require_basis=True)


class TestMerge:
    def test_equal_sizes_sum(self):
        from matalloc.polymatroids import ScaledRankPoly
        from matalloc.matroids import UniformMatroid

        jobs = [Item(value=Fraction(1), polymatroid=ScaledRankPoly(UniformMatroid(2, 1), 1)),
                Item(value=Fraction(1), polymatroid=ScaledRankPoly(UniformMatroid(2, 1), 1))]
        inst = MakespanInstance(2, jobs)
        rec = merge_equal_value(inst)
        assert len(rec.merged.jobs) == 1
        merged_poly = rec.merged.jobs[0].polymatroid
        assert merged_poly.value(0b11) == 2  # sum of the two rank oracles

    def test_distinct_values_identity(self):
        from matalloc.polymatroids import ModularPoly

        jobs = [Item(value=Fraction(1), polymatroid=ModularPoly([1, 0])),
                Item(value=Fraction(2), polymatroid=ModularPoly([0, 1]))]
        inst = MakespanInstance(2, jobs)
        rec = merge_equal_value(inst)
        assert len(rec.merged.jobs) == 2
        assert rec.groups == [[0], [1]]

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_merge_solve_split_roundtrip(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 3)
        inst = gen_random("makespan-matroid", seed, m=m, n=rng.randint(2, 4),
                          u=Fraction(1), w=Fraction(2))
        rec = merge_equal_value(inst)
        merged_alloc = []
        for it in rec.merged.jobs:
            bases = enumerate_bases(it.polymatroid)
            if not bases:
                return
            merged_alloc.append(rng.choice(bases))
        split = split_merged_solution(inst, rec, merged_alloc)
        # per-machine load is preserved exactly and each part is a basis
        merged_loads = entity_totals(rec.merged, merged_alloc)
        split_loads = entity_totals(inst, split)
        assert merged_loads == split_loads
        for j, piece in enumerate(split):
            assert is_basis(inst.jobs[j].polymatroid, piece)
