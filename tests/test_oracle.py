"""Brute-force oracles: examples, caps, reproducibility, witness validity."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matalloc.bitsets import full_mask
from matalloc.instances import (Item, MakespanInstance, SantaInstance, assignment_to_alloc,
                                entity_totals, gen_gap_instance, gen_random,
                                validate_allocation)
from matalloc.limits import Caps, SizeCapError
from matalloc.matroids import FreeMatroid, UniformMatroid
from matalloc.oracle import (brute_max_cover_b, brute_opt_makespan, brute_opt_santa,
                             check_axioms, enumerate_bases, exists_strong_cover)
from matalloc.polymatroids import ModularPoly, is_basis

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


class TestCoverOracle:
    def test_polymatroid_alone(self):
        assert brute_max_cover_b(UniformMatroid(2, 0), ModularPoly([5, 5])) == 5

    def test_gap(self):
        inst = gen_gap_instance(2)
        assert brute_max_cover_b(inst.matroid, inst.polymatroid) == 1

    def test_matroid_alone_is_infinite(self):
        assert brute_max_cover_b(FreeMatroid(2), ModularPoly([0, 0])) == math.inf

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
        assert exists_strong_cover(FreeMatroid(2), ModularPoly([0, 0]), 0b11, 0b01,
                                   F(1), F(3, 10))

    def test_obeys_ground_cap(self):
        caps = Caps().override(sfm_ground=4)
        with pytest.raises(SizeCapError, match="soundness check over 5 elements"):
            exists_strong_cover(FreeMatroid(5), ModularPoly([1] * 5), full_mask(5), 0b1,
                                F(1), F(3, 10), caps)


class TestEnumerateBases:
    def test_modular_unique(self):
        assert enumerate_bases(ModularPoly([2, 1])) == [(2, 1)]

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
