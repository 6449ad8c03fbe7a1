"""Brute-force oracles: examples, caps, reproducibility, witness validity."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matalloc import polymatroids
from matalloc.bitsets import full_mask
from matalloc.instances import (Item, MakespanInstance, SantaInstance, assignment_to_alloc,
                                entity_totals, gen_gap_instance, gen_random,
                                validate_allocation)
from matalloc.limits import Caps, SizeCapError
from matalloc.matroids import UniformMatroid
from matalloc.oracle import (brute_max_cover_b, brute_opt_makespan, brute_opt_santa,
                             check_axioms, enumerate_bases, exists_strong_cover)
from matalloc.polymatroids import CoveragePoly, ModularPoly, is_basis

F = Fraction


class TestBruteSanta:
    def test_take_everything(self):
        inst = SantaInstance(1, [Item(values=(F(1),)), Item(values=(F(2),))])
        rep = brute_opt_santa(inst)
        assert rep.value == 3

    def test_witness_revalidates(self):
        inst = gen_random("restricted-santa", 5, m=3, n=4)
        rep = brute_opt_santa(inst)
        alloc = assignment_to_alloc(rep.witness, 3)
        validate_allocation(inst, alloc)
        assert min(entity_totals(inst, alloc)) == rep.value

    def test_matroid_flavor(self):
        inst = SantaInstance(2, [Item(value=F(2), polymatroid=ModularPoly([1, 1]))])
        rep = brute_opt_santa(inst)
        assert rep.value == 2 and rep.witness == [[1, 1]]

    def test_deterministic(self):
        inst = gen_random("unrelated-santa", 9, m=3, n=4)
        assert brute_opt_santa(inst).witness == brute_opt_santa(inst).witness


class TestBruteMakespan:
    def test_identical_machines(self):
        inst = MakespanInstance(2, [Item(values=(F(3), F(3))), Item(values=(F(3), F(3))),
                                    Item(values=(F(2), F(2)))])
        rep = brute_opt_makespan(inst)
        assert rep.value == 5

    def test_witness_revalidates(self):
        inst = gen_random("restricted-makespan", 4, m=3, n=4)
        rep = brute_opt_makespan(inst)
        alloc = assignment_to_alloc(rep.witness, 3)
        validate_allocation(inst, alloc)
        assert max(entity_totals(inst, alloc)) == rep.value

    def test_unschedulable_is_infinite(self):
        inst = MakespanInstance(1, [Item(values=(None,))])
        assert brute_opt_makespan(inst).value == math.inf

    def test_a_job_with_no_finite_machine_has_no_witness(self):
        inst = MakespanInstance(2, [Item(values=(F(1), F(2))), Item(values=(None, None))])
        rep = brute_opt_makespan(inst)
        assert rep.value == math.inf and rep.witness is None and rep.search_space == 0


FLAVORS = [("unrelated-santa", dict(m=3, n=5)), ("restricted-santa", dict(m=3, n=5)),
           ("restricted-makespan", dict(m=3, n=6)), ("two-value-makespan", dict(m=3, n=5)),
           ("santa-matroid", dict(m=3, n=3)), ("makespan-matroid", dict(m=3, n=3))]


def product_scan(inst):
    """Value and witness of the first optimum in itertools.product order."""
    m, santa = inst.num_entities, isinstance(inst, SantaInstance)
    if inst.is_matroid_flavor:
        options = [[(list(b), [it.value * c for c in b]) for b in enumerate_bases(it.polymatroid)]
                   for it in inst.items]
    else:
        options = [[(i, [v if k == i else 0 for k in range(m)])
                    for i, v in enumerate(it.values) if v is not None] for it in inst.items]
    best = None
    for combo in itertools.product(*options):
        loads = [sum(add[i] for _, add in combo) for i in range(m)]
        val = min(loads) if santa else max(loads)
        if best is None or (val > best[0] if santa else val < best[0]):
            best = (val, [entry for entry, _ in combo])
    return best


@pytest.mark.parametrize("flavor, size", FLAVORS, ids=[f for f, _ in FLAVORS])
@pytest.mark.parametrize("seed", range(4))
def test_one_enumeration_is_the_first_optimum_of_a_product_scan(flavor, size, seed):
    inst = gen_random(flavor, seed, **size)
    brute = brute_opt_santa if isinstance(inst, SantaInstance) else brute_opt_makespan
    rep = brute(inst)
    assert (rep.value, rep.witness) == product_scan(inst)


@pytest.mark.parametrize("flavor, size", FLAVORS, ids=[f for f, _ in FLAVORS])
def test_the_cap_binds_one_below_the_combination_count(flavor, size):
    inst = gen_random(flavor, 1, **size)
    brute = brute_opt_santa if isinstance(inst, SantaInstance) else brute_opt_makespan
    count = brute(inst).search_space
    field = "basis_enum" if inst.is_matroid_flavor else "assignments"
    assert brute(inst, Caps().override(**{field: count})).search_space == count
    with pytest.raises(SizeCapError, match=f"^brute force: more than {count - 1} combinations$"):
        brute(inst, Caps().override(**{field: count - 1}))


class TestCoverOracle:
    def test_polymatroid_alone(self):
        assert brute_max_cover_b(UniformMatroid(2, 0), ModularPoly([5, 5])) == 5

    def test_gap(self):
        inst = gen_gap_instance(2)
        assert brute_max_cover_b(inst.matroid, inst.polymatroid) == 1

    def test_matroid_alone_is_infinite(self):
        assert brute_max_cover_b(UniformMatroid(2, 2), ModularPoly([0, 0])) == math.inf

    def test_cap_enforced(self):
        caps = Caps(sfm_ground=3)
        with pytest.raises(SizeCapError):
            brute_max_cover_b(UniformMatroid(4, 2), ModularPoly([1] * 4), caps)


class TestStrongCover:
    def test_gap_excludes_triple_value(self):
        for m in (2, 3, 4):
            inst = gen_gap_instance(m)
            b0 = 1 << (m - 1)
            # no cover at 3b with the target element on the matroid side
            assert not exists_strong_cover(inst.matroid, inst.polymatroid, full_mask(m),
                                           b0, F(3), F(3, 10))

    def test_positive_case(self):
        assert exists_strong_cover(UniformMatroid(2, 2), ModularPoly([0, 0]), 0b11, 0b01,
                                   F(1), F(3, 10))

    @pytest.mark.parametrize("level, exists", [(F(3, 2), True), (F(2), False)])
    def test_decides_membership_by_its_own_subsets(self, level, exists, monkeypatch):
        """With no independent set but the empty one, elements 0 and 1 need
        level·1_{0,1} in P, whose subsets ask 2·level <= f({0, 1}) = 3. The
        check reaches no kernel count."""
        monkeypatch.setattr(polymatroids, "count", lambda *args: pytest.fail("count reached"))
        poly = CoveragePoly([0b01, 0b01, 0b10], [3, 1])
        assert exists_strong_cover(UniformMatroid(3, 0), poly, 0b111, 0b100,
                                   level, F(0)) == exists

    def test_obeys_ground_cap(self):
        caps = Caps().override(sfm_ground=4)
        with pytest.raises(SizeCapError, match="soundness check over 5 elements"):
            exists_strong_cover(UniformMatroid(5, 5), ModularPoly([1] * 5), full_mask(5), 0b1,
                                F(1), F(3, 10), caps)


class TestEnumerateBases:
    def test_modular_unique(self):
        assert enumerate_bases(ModularPoly([2, 1])) == [(2, 1)]

    def test_obeys_ground_cap(self):
        # one basis, but the search would still walk 2^25 prefixes, each a
        # member counted by one flow and so not bounded by member's checks
        with pytest.raises(SizeCapError, match="basis enumeration over 25 elements exceeds cap 24"):
            enumerate_bases(ModularPoly([1] * 25))
        with pytest.raises(SizeCapError, match="over 2 elements exceeds cap 1"):
            enumerate_bases(ModularPoly([2, 1]), Caps().override(sfm_ground=1))

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_all_and_only_bases(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        from conftest import random_poly

        p = random_poly(rng, n)
        got = set(enumerate_bases(p))
        target = p.value(full_mask(n))
        caps = [p.value(1 << e) for e in range(n)]
        expected = set()

        def rec(e, vec):
            if e == n:
                if sum(vec) == target and is_basis(p, vec):
                    expected.add(tuple(vec))
                return
            for v in range(caps[e] + 1):
                rec(e + 1, vec + [v])

        rec(0, [])
        assert got == expected


def test_axiom_report_includes_augmentation():
    rep = check_axioms(ModularPoly([1, 2]), augmentation_samples=10)
    assert rep["ok"]
