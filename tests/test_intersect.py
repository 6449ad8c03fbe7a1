"""Matroid and polymatroid intersection against brute-force enumeration."""

import random
from collections import deque
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from matalloc import intersection, polymatroids, reductions
from matalloc.bitsets import size, vec_support
from matalloc.instances import gen_random
from matalloc.intersection import (DirectSum, ExpandedMatroid, Membership, PartitionBound, Side,
                                   decompose_in_sum, decompose_merged_basis, max_common_independent)
from matalloc.limits import DEFAULT_CAPS, ContractViolation, SizeCapError
from matalloc.localsearch import solve_cover
from matalloc.matroids import GraphicMatroid, PartitionMatroid, TransversalMatroid, UniformMatroid
from matalloc.oracle import enumerate_bases
from matalloc.polymatroids import (CappedPoly, CoveragePoly, ModularPoly, ScaledRankPoly, SumPoly,
                                   is_basis, member)


def whole(num_slots, indep):
    """The whole-vector predicate indep as a side: a one-block DirectSum."""
    return DirectSum([0] * num_slots, [indep])


def common_set(m1, m2):
    """A maximum common independent set of two matroids on one ground set,
    as a bitmask: the 0/1 case of the exchange search."""
    n = m1.n
    return vec_support(max_common_independent(
        [1] * n, whole(n, lambda x: m1.is_independent(vec_support(x))),
        whole(n, lambda x: m2.is_independent(vec_support(x))), n))


def brute_max_common(m1, m2):
    best = 0
    for x in range(1 << m1.n):
        if size(x) > best and m1.is_independent(x) and m2.is_independent(x):
            best = size(x)
    return best


class TestMatroidIntersection:
    def test_identical(self):
        got = common_set(UniformMatroid(3, 2), UniformMatroid(3, 2))
        assert size(got) == 2

    def test_min_rank(self):
        got = common_set(UniformMatroid(3, 1), UniformMatroid(3, 3))
        assert size(got) == 1

    def test_partition_vs_transversal(self):
        m1 = PartitionMatroid(4, [0b0011, 0b1100], [1, 1])
        m2 = TransversalMatroid([0b01, 0b01, 0b10, 0b10], 2)
        got = common_set(m1, m2)
        assert size(got) == 2 == brute_max_common(m1, m2)

    @given(st.integers(0, 600))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        mats = []
        for _ in range(2):
            kind = rng.choice(["uniform", "graphic", "transversal"])
            if kind == "uniform":
                mats.append(UniformMatroid(n, rng.randint(0, n)))
            elif kind == "graphic":
                verts = rng.randint(2, 4)
                mats.append(GraphicMatroid(verts, [(rng.randrange(verts), rng.randrange(verts))
                                                   for _ in range(n)]))
            else:
                r = rng.randint(1, 3)
                mats.append(TransversalMatroid([rng.getrandbits(r) for _ in range(n)], r))
        got = common_set(mats[0], mats[1])
        assert mats[0].is_independent(got) and mats[1].is_independent(got)
        assert size(got) == brute_max_common(mats[0], mats[1])


def members(p):
    return lambda x: member(p, x)


class TestUnitExpand:
    """Unit-copy expansion: ExpandedMatroid over count-vector predicates."""

    def test_modular_free(self):
        m = ExpandedMatroid((0, 0), 1, members(ModularPoly([2])))
        assert m.rank(0b11) == 2 and m.is_independent(0b11)

    def test_matroid_is_own_expansion(self):
        m = ExpandedMatroid((0, 1), 2, members(ScaledRankPoly(UniformMatroid(2, 1), 1)))
        assert m.rank(0b11) == 1

    def test_gap_poly_caps_copies(self):
        m = ExpandedMatroid((0, 0, 1, 1), 2, members(ModularPoly([1, 1])))
        both_copies_of_first = 0b0011
        assert m.rank(both_copies_of_first) == 1

    def test_equal_counts_ask_the_predicate_once(self):
        seen = []
        m = ExpandedMatroid((0, 0, 1), 2, lambda x: seen.append(x) or x[0] <= 1)
        assert m.is_independent(0b001) and m.is_independent(0b010)
        assert seen == [(1, 0)]


def common_vector(p1, p2, caps_vec):
    """A vector x of P1 ∩ P2 with x <= caps_vec and x(E) largest, searched
    over the effective caps min(caps_vec[e], f1({e}), f2({e})), the most
    units of e that a common member can hold."""
    n = p1.n
    eff = [min(caps_vec[e], p1.value(1 << e), p2.value(1 << e)) for e in range(n)]
    return max_common_independent(eff, whole(n, members(p1)), whole(n, members(p2)), 64)


class TestPolymatroidIntersection:
    def test_identical_modular(self):
        cv = common_vector(ModularPoly([1, 1]), ModularPoly([1, 1]), [1, 1])
        assert cv == (1, 1)

    def test_componentwise_min(self):
        cv = common_vector(ModularPoly([2, 0]), ModularPoly([1, 1]), [2, 2])
        assert cv == (1, 0)

    def test_total_bound(self):
        cv = common_vector(ModularPoly([1, 1]), ModularPoly([2, 2]), [2, 2])
        assert sum(cv) == 2

    def test_expansion_over_limit_raises(self):
        free = whole(2, members(ModularPoly([3, 2])))
        assert max_common_independent([3, 2], free, free, 5) == (3, 2)
        with pytest.raises(SizeCapError,
                           match="^count-vector search over 5 units exceeds cap 4$"):
            max_common_independent([3, 2], free, free, 4)

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_matches_box_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        p1, p2 = (ModularPoly([rng.randint(0, 2) for _ in range(n)]) if rng.random() < 0.5
                  else ScaledRankPoly(UniformMatroid(n, rng.randint(1, n)), rng.randint(1, 2))
                  for _ in range(2))
        caps_vec = [rng.randint(0, 2) for _ in range(n)]
        best = max(sum(v) for v in product(*(range(c + 1) for c in caps_vec))
                   if member(p1, v) and member(p2, v))
        for got in (common_vector(p1, p2, caps_vec),
                    max_common_independent(caps_vec, whole(n, members(p1)),
                                           whole(n, members(p2)), 64)):
            assert all(g <= c for g, c in zip(got, caps_vec))
            assert member(p1, got) and member(p2, got)
            assert sum(got) == best


class TestDecompose:
    def test_unique(self):
        parts = [ModularPoly([1, 0]), ModularPoly([0, 1])]
        assert decompose_merged_basis(parts, (1, 1)) == [(1, 0), (0, 1)]

    def test_single_part(self):
        p = ModularPoly([2, 1])
        assert decompose_merged_basis([p], (2, 1)) == [(2, 1)]

    def test_two_rank_ones(self):
        parts = [ScaledRankPoly(UniformMatroid(2, 1), 1)] * 2
        assert decompose_merged_basis(parts, (2, 0)) == [(1, 0), (1, 0)]

    def test_rejects_non_basis(self):
        with pytest.raises(ContractViolation):
            decompose_merged_basis([ModularPoly([1, 1])], (1, 0))

    def test_member_split(self):
        parts = [ModularPoly([2, 2]), ScaledRankPoly(UniformMatroid(2, 2), 1)]
        pieces = decompose_in_sum(parts, (3, 1))
        assert tuple(map(sum, zip(*pieces))) == (3, 1)
        assert member(parts[0], pieces[0]) and member(parts[1], pieces[1])

    @pytest.mark.parametrize("parts, y, error, why", [
        ([ModularPoly([1, 1]), ModularPoly([1, 1, 1])], (1, 1), ValueError,
         "^parts must share the ground set$"),
        ([ModularPoly([1, 1]), ModularPoly([1, 1])], (1, 1, 1), ValueError,
         "^vector length mismatch$"),
        ([ModularPoly([1, 1])], (2, 0), ContractViolation,
         "^y is not a member of the single part$"),
        # y(1) = 2 exceeds the sum's f({1}) = 1
        ([ModularPoly([1, 0]), ScaledRankPoly(UniformMatroid(2, 1), 1)], (0, 2),
         ContractViolation, "^decomposition fell short: y does not belong to the sum"),
    ], ids=["ground-sets", "length", "single-part", "fell-short"])
    def test_member_split_refuses(self, parts, y, error, why):
        with pytest.raises(error, match=why):
            decompose_in_sum(parts, y)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_random_sum_bases(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        parts = []
        for _ in range(k):
            if rng.random() < 0.5:
                parts.append(ModularPoly([rng.randint(0, 2) for _ in range(n)]))
            else:
                parts.append(ScaledRankPoly(UniformMatroid(n, rng.randint(1, n)),
                                            rng.randint(1, 2)))
        merged = SumPoly(parts)
        bases = enumerate_bases(merged)
        if not bases:
            return
        y = rng.choice(bases)
        pieces = decompose_merged_basis(parts, y)
        assert tuple(map(sum, zip(*pieces))) == tuple(y)
        for p, piece in zip(parts, pieces):
            assert is_basis(p, piece)


# ---------------------------------------------------------------------------
# Slot-level exchange search against the copy-level reference


def random_part(rng, n):
    kind = rng.choice(["modular", "scaled", "coverage"])
    if kind == "modular":
        return ModularPoly([rng.randint(0, 3) for _ in range(n)])
    if kind == "scaled":
        edges = [(rng.randrange(3), rng.randrange(3)) for _ in range(n)]
        m = rng.choice([UniformMatroid(n, rng.randint(0, n)), GraphicMatroid(3, edges)])
        return ScaledRankPoly(m, rng.randint(1, 3))
    u = rng.randint(1, n + 2)
    return CoveragePoly([rng.getrandbits(u) for _ in range(n)],
                        [rng.randint(1, 3) for _ in range(u)])


def copy_level(slot_caps, indep1, indep2):
    """The textbook matroid intersection on unit copies of the slots, written
    out here rather than through max_common_independent, read back as a
    count vector.

    Copy c is a unit of slot owner[c] (copies in slot order). Each round
    takes the current common independent set I; sources are the copies y
    outside I with I + y independent for indep1, sinks those with I + y
    independent for indep2. A copy y outside I leads to a copy s inside I
    when I + y − s is independent for indep2, s leads to y when I − s + y
    is independent for indep1. A FIFO search from the sources in copy
    order, each node's targets in copy order, parents first come, ends at
    the first sink it takes off the queue, and that path is applied.
    """
    owner = [s for s, c in enumerate(slot_caps) for _ in range(c)]
    m1, m2 = (ExpandedMatroid(owner, len(slot_caps), indep) for indep in (indep1, indep2))
    cur = 0
    while True:
        outside = [c for c in range(len(owner)) if not (cur >> c) & 1]
        inside = [c for c in range(len(owner)) if (cur >> c) & 1]
        sinks = {y for y in outside if m2.is_independent(cur | 1 << y)}
        parent = {y: None for y in outside if m1.is_independent(cur | 1 << y)}
        queue = deque(parent)
        end = None
        while queue:
            v = queue.popleft()
            if v in sinks:
                end = v
                break
            base = cur ^ 1 << v   # I − v for an inside v, I + v for an outside one
            targets, m = (outside, m1) if (cur >> v) & 1 else (inside, m2)
            for w in targets:
                if w not in parent and m.is_independent(base ^ 1 << w):
                    parent[w] = v
                    queue.append(w)
        if end is None:
            return m1.counts(cur)
        while end is not None:
            cur ^= 1 << end
            end = parent[end]


@pytest.mark.parametrize("seed", range(60))
def test_slot_level_search_matches_copy_level(seed):
    """The split of decompose_in_sum: members of two parts on slots j*n + e
    against the degree bounds x(e) + x(n + e) <= y(e)."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    parts = [random_part(rng, n) for _ in range(2)]
    y = [rng.randint(0, 4) for _ in range(n)]
    slot_caps = [rng.randint(0, 4) for _ in range(2 * n)]

    def indep1(x):
        return all(member(p, x[j * n:(j + 1) * n]) for j, p in enumerate(parts))

    def indep2(x):
        return all(x[e] + x[n + e] <= y[e] for e in range(n))

    num_slots = len(slot_caps)
    assert max_common_independent(slot_caps, whole(num_slots, indep1), whole(num_slots, indep2),
                                  sum(slot_caps)) == copy_level(slot_caps, indep1, indep2)


def test_each_count_vector_is_asked_once(monkeypatch):
    """The sides may ask a predicate again about a count vector; member's
    memo answers the repeats, so no polymatroid is counted twice on one
    vector."""
    counted = []
    real_count = polymatroids.count

    def spy(p, x, *args):
        counted.append((id(p), tuple(x)))
        return real_count(p, x, *args)

    monkeypatch.setattr(polymatroids, "count", spy)
    p1, p2 = ModularPoly([2, 1, 2]), ScaledRankPoly(UniformMatroid(3, 2), 1)
    got = max_common_independent([2, 2, 2], whole(3, lambda x: member(p1, x)),
                                 whole(3, lambda x: member(p2, x)), 6)
    assert sum(got) == 2
    assert {key for key, _ in counted} == {id(p1), id(p2)}
    assert len(counted) == len(set(counted))


def test_unit_cap_is_checked_before_the_search():
    def never(x):
        raise AssertionError("asked a predicate past the cap")

    with pytest.raises(SizeCapError, match="^count-vector search over 5 units exceeds cap 4$"):
        max_common_independent([3, 2], whole(2, never), whole(2, never), 4)


@pytest.mark.parametrize("slot_caps", [[1, -1], [2, 1.5], [Fraction(1)], [True, 1]])
def test_slot_caps_must_be_nonnegative_integers(slot_caps):
    # [1, -1] once returned (1, 0); a negative cap would reach a count as a
    # negative entry
    def never(x):
        raise AssertionError("asked a predicate about a malformed cap")

    num_slots = len(slot_caps)
    with pytest.raises(ValueError, match="^slot caps must be"):
        max_common_independent(slot_caps, whole(num_slots, never), whole(num_slots, never), 8)


def test_a_split_needs_a_part():
    with pytest.raises(ValueError, match="^a split needs at least one part$"):
        decompose_in_sum([], ())
    for y in [(), (1,)]:
        with pytest.raises(ValueError, match="^a split needs at least one part$"):
            decompose_merged_basis([], y)


def test_a_membership_count_raises_where_its_unit_gain_would():
    """f(S) = 2|S| as a box cap over a scaled-rank part, which has no
    partition form, so each count enumerates its support's subsets and
    obeys the cap. As a modular polymatroid, the same counts are one flow
    each, which the cap does not bound."""
    caps = DEFAULT_CAPS.override(sfm_ground=3)
    boxed = CappedPoly(ScaledRankPoly(UniformMatroid(5, 5), 2), [2] * 5)
    side = DirectSum([0] * 5, [Membership(boxed, range(5), caps)])
    side.reset((1, 1, 1, 0, 0))
    assert side.fits(1, 2) == 1
    assert side.fits(3, 0) == 0   # asks nothing, as no unit step would
    for ask in (lambda: side.gain(3), lambda: side.fits(3, 1), lambda: side.fits(3, 2)):
        with pytest.raises(SizeCapError, match="^SFM ground set of size 4 exceeds cap 3$"):
            ask()
    flows = DirectSum([0] * 5, [Membership(ModularPoly([2] * 5), range(5), caps)])
    flows.reset((1, 1, 1, 0, 0))
    assert (flows.gain(3), flows.fits(3, 1), flows.fits(3, 2)) == (True, 1, 2)


def test_the_m10_santa_draw_still_exceeds_the_search_cap(monkeypatch):
    """The santa-matroid draw at m=10, seed 3, run as the benchmark runs it:
    the guess loop accepts a guess, and reading its allocation splits a
    basis of 79 units, which the search refuses against caps.expand = 64
    before either side is asked. Splitting the sum by one placement (ROADMAP
    item 1) lifts this cap; this test then becomes a regression test that
    the allocation validates with require_basis=True."""
    search = intersection.max_common_independent
    refused = []

    def spy(caps, side1, side2, limit):
        if sum(caps) > limit:
            refused.append((sum(caps), limit))
            side1 = side2 = Side()   # a bare Side raises on any question
        return search(caps, side1, side2, limit)

    monkeypatch.setattr(intersection, "max_common_independent", spy)
    inst = gen_random("santa-matroid", 3, m=10, n=4, u=1, w=3)
    _, sol = reductions.guess_loop(
        lambda t: reductions.reduce_to_core(inst, 8, t,
                                            cover_solver=lambda c: solve_cover(c, Fraction(1, 10))),
        reductions.santa_guess_grid(inst))
    with pytest.raises(SizeCapError, match="^count-vector search over 79 units exceeds cap 64$"):
        sol.alloc
    assert refused == [(79, 64)]


def test_santa_basis_split_work_is_bounded(monkeypatch):
    """A count of the work, not of time, in splitting one fixed basis of a
    santa-matroid sum: the counts the parts' Membership blocks make for the
    fill (fits), the questions asked of those blocks as predicates, the
    sfm_min calls behind both, and the exchange searches run. The three
    two-part splits of the peel take every unit in the slot-order fill, at
    most one count per slot, so each search runs once, to find no sink:
    8, 7 and 5 counts over 2n = 10 slots, no block question, 14 sfm_min and
    3 searches. A fill of one membership per unit asked 100 block questions
    and 70 sfm_min; an exchange search per unit made 418 block questions,
    146 sfm_min and 94 searches here."""
    inst = gen_random("santa-matroid", 2, m=5, n=4, u=1, w=3)
    parts = [it.polymatroid for it in inst.resources]
    y = (7, 17, 4, 9, 2)
    assert is_basis(SumPoly(parts), y)
    calls = {"block": 0, "sfm": 0, "augment": 0}
    fits_per_split = []

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    class CountedMembership(intersection.Membership):
        def __call__(self, sub):
            calls["block"] += 1
            return super().__call__(sub)

        def fits(self, sub, k, limit):
            fits_per_split[-1] += 1
            return super().fits(sub, k, limit)

    search = intersection.max_common_independent

    def split(*args):
        fits_per_split.append(0)
        return search(*args)

    monkeypatch.setattr(intersection, "Membership", CountedMembership)
    monkeypatch.setattr(intersection, "max_common_independent", split)
    monkeypatch.setattr(polymatroids, "sfm_min", counted("sfm", polymatroids.sfm_min))
    monkeypatch.setattr(intersection, "_augment", counted("augment", intersection._augment))
    pieces = decompose_merged_basis(parts, y)
    assert pieces == [(0, 2, 1, 2, 2), (3, 3, 3, 3, 0), (4, 9, 0, 0, 0), (0, 3, 0, 4, 0)]
    assert len(fits_per_split) == 3
    assert all(0 < k <= 2 * len(y) for k in fits_per_split), fits_per_split
    assert calls["block"] <= 10
    assert calls["sfm"] <= 20
    assert 0 < calls["augment"] <= 4


class AskedAfterFill(PartitionBound):
    """A PartitionBound that fails if asked anything after its second reset,
    the one the first exchange search makes after the slot-order fill."""

    resets = 0

    def reset(self, x):
        self.resets += 1
        super().reset(x)

    def gain(self, y):
        assert self.resets == 1, "side 1 was asked in the search after the fill"
        return super().gain(y)

    def swap(self, y, s):
        assert self.resets == 1, "side 1 was asked in the search after the fill"
        return super().swap(y, s)


def test_a_fill_that_takes_every_unit_asks_side_1_nothing_after_it():
    # side 2 holds 3 units in all; the fill takes them at slots 0 and 1, so
    # the search after it finds no sink among the outside slots 1 and 2
    side1 = AskedAfterFill([0, 1, 2], [2, 2, 2])
    got = max_common_independent([2, 2, 2], side1, PartitionBound([0, 0, 0], [3]), 6)
    assert got == (2, 1, 0)
    assert side1.resets == 2


# ---------------------------------------------------------------------------
# Structured sides against the predicates they stand for


def bound_side(group, cap):
    """A PartitionBound with the whole-vector predicate it stands for."""
    def within(x):
        loads = [0] * len(cap)
        for g, c in zip(group, x):
            loads[g] += c
        return all(load <= c for load, c in zip(loads, cap))

    return PartitionBound(group, cap), within


def random_sides(rng, num_slots):
    """A PartitionBound and a DirectSum on num_slots slots, each with the
    whole-vector predicate it stands for, and what the draw covers."""
    num_groups = rng.randint(1, num_slots + 2)
    group = [rng.randrange(num_groups) for _ in range(num_slots)]
    cap = [rng.randint(0, 3) for _ in range(num_groups)]
    num_blocks = rng.randint(1, num_slots + 1)
    block = [rng.randrange(num_blocks) for _ in range(num_slots)]
    slots = [[s for s in range(num_slots) if block[s] == b] for b in range(num_blocks)]
    kinds, preds = set(), []
    for mine in slots:
        if mine:
            part = random_part(rng, len(mine))
            kinds.add(type(part).__name__)
            pred = Membership(part, range(part.n))
        else:
            def pred(sub):
                raise AssertionError("asked a block with no slots")
        preds.append(pred)

    def all_blocks(x):
        return all(not mine or pred(tuple(x[s] for s in mine))
                   for mine, pred in zip(slots, preds))

    covers = {"empty group": len(set(group)) < num_groups,
              "zero-cap group": any(cap[g] == 0 for g in group)} | {k: True for k in kinds}
    return bound_side(group, cap), (DirectSum(block, preds), all_blocks), covers


def plain(ds):
    """ds with each block behind a plain predicate, so that its fits takes
    unit steps."""
    return DirectSum(ds.block, [lambda sub, pred=pred: pred(sub) for pred in ds.preds])


def test_structured_sides_match_their_predicates():
    """400 seeded draws: a PartitionBound and a DirectSum of Membership
    blocks, in either order and each against another of its kind, and the
    same DirectSum on plain predicates, return the vector their
    whole-vector predicates return."""
    seen = dict.fromkeys(["empty group", "zero-cap group", "ModularPoly", "CoveragePoly",
                          "ScaledRankPoly", "inside and outside", "cap 0", "cap 3"], 0)
    for seed in range(400):
        rng = random.Random(seed)
        num_slots = rng.randint(1, 7)
        slot_caps = [rng.randint(0, 3) for _ in range(num_slots)]
        (pb, within), (ds, blocks), covers = random_sides(rng, num_slots)
        (pb2, within2), (ds2, blocks2), covers2 = random_sides(rng, num_slots)
        for key in covers.keys() | covers2.keys():
            seen[key] += covers.get(key, False) or covers2.get(key, False)
        seen["cap 0"] += 0 in slot_caps
        seen["cap 3"] += 3 in slot_caps
        limit = sum(slot_caps)
        for (s1, p1), (s2, p2) in [((ds, blocks), (pb, within)), ((pb, within), (ds, blocks)),
                                   ((pb, within), (pb2, within2)),
                                   ((ds, blocks), (ds2, blocks2)),
                                   ((plain(ds), blocks), (pb, within))]:
            want = max_common_independent(slot_caps, whole(num_slots, p1), whole(num_slots, p2),
                                          limit)
            assert max_common_independent(slot_caps, s1, s2, limit) == want, seed
            seen["inside and outside"] += any(0 < v < c for v, c in zip(want, slot_caps))
    assert min(seen.values()) >= 20, seen


def grown(rng, side, slot_caps):
    """A random x <= slot_caps independent for side, grown by unit gains at
    random slots; side is left reset to it."""
    x = [0] * len(slot_caps)
    side.reset(x)
    for _ in range(rng.randint(0, sum(slot_caps))):
        y = rng.randrange(len(slot_caps))
        if x[y] < slot_caps[y] and side.gain(y):
            side.add(y)
            x[y] += 1
    side.reset(x)
    return x


def test_fits_matches_unit_steps():
    """200 seeded draws of n <= 6 slots: at a random independent x, for
    every slot and every limit from 0 to its cap, each side's fits equals
    the unit steps of Side.fits through its gain and add, and neither moves
    the side. The sides: a PartitionBound, a DirectSum of plain predicates,
    the sum split's two Membership blocks and the gadget's item blocks, so
    a Membership's one count is checked against member of x + e_y, x + 2e_y,
    and so on."""
    seen = dict.fromkeys(["partition", "plain", "sum split", "gadget", "0 < fits < limit",
                          "fits == limit > 0"], 0)

    def state(side):
        return repr(getattr(side, "room", None)), repr(getattr(side, "sub", None))

    def check(kind, side, slot_caps):
        x = grown(rng, side, slot_caps)
        before = state(side)
        for y, cap in enumerate(slot_caps):
            for limit in range(cap + 1):
                want = Side.fits(side, y, limit)
                assert state(side) == before
                assert side.fits(y, limit) == want, (seed, kind, x, y, limit)
                assert state(side) == before
                seen["0 < fits < limit"] += 0 < want < limit
                seen["fits == limit > 0"] += 0 < want == limit
        seen[kind] += 1

    for seed in range(200):
        rng = random.Random(seed)
        num_slots = rng.randint(1, 6)
        slot_caps = [rng.randint(0, 4) for _ in range(num_slots)]
        (pb, _), (ds, _), _ = random_sides(rng, num_slots)
        check("partition", pb, slot_caps)
        check("plain", plain(ds), slot_caps)
        n = rng.randint(1, 3)
        parts = [random_part(rng, n) for _ in range(2)]
        split = DirectSum([0] * n + [1] * n, [Membership(p, range(n)) for p in parts])
        check("sum split", split, [rng.randint(0, 4) for _ in range(2 * n)])
        num_slots, (items, _), _ = gadget_sides(rng)
        check("gadget", items, [rng.randint(0, 4) for _ in range(num_slots)])
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# The slot-order fill against the full search


def sum_side(block, parts):
    """A DirectSum of part memberships with its whole-vector predicate."""
    slots = [[s for s, b in enumerate(block) if b == j] for j in range(len(parts))]
    return DirectSum(block, [Membership(p, range(p.n)) for p in parts]), lambda x: all(
        member(p, [x[s] for s in mine]) for p, mine in zip(parts, slots))


def gadget_sides(rng):
    """The rounding gadget's shape: each item (a DirectSum block) holds
    several slots per entity, as a chain vertex and a carry slot do, and is
    a Membership of the item's entity sums; the degree side is a
    PartitionBound over chain vertices."""
    m, n, num_vertices = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
    parts = [random_part(rng, m) for _ in range(n)]
    slots = [(k, i, rng.randrange(num_vertices))
             for k in range(n) for i in range(m) for _ in range(rng.randint(0, 2))]
    entities = [[i for k2, i, _ in slots if k2 == k] for k in range(n)]

    def in_item(k, sub):
        vec = [0] * m
        for i, c in zip(entities[k], sub):
            vec[i] += c
        return member(parts[k], vec)

    def all_items(x):
        return all(in_item(k, tuple(c for (k2, _, _), c in zip(slots, x) if k2 == k))
                   for k in range(n))

    items = DirectSum([k for k, _, _ in slots], [Membership(parts[k], entities[k]) for k in range(n)])
    degrees = bound_side([v for _, _, v in slots], [rng.randint(0, 3) for _ in range(num_vertices)])
    return len(slots), (items, all_items), degrees


def crossing_sides(rng):
    """Slots as the edges of a random bipartite graph, in random order. The
    left vertices bound their edges' units, as a PartitionBound and as a
    DirectSum of scaled uniform matroids; the right vertices as a
    PartitionBound. Filling the edges in slot order is a greedy matching,
    which often leaves augmenting paths to the search."""
    nu, nv = rng.randint(2, 4), rng.randint(2, 4)
    edges = [(u, v) for u in range(nu) for v in range(nv) if rng.random() < 0.5] or [(0, 0)]
    rng.shuffle(edges)
    left = [u for u, _ in edges]
    parts = [ScaledRankPoly(UniformMatroid(k, min(k, rng.randint(1, 2))), rng.randint(1, 2))
             for k in map(left.count, range(nu))]
    return (len(edges), bound_side(left, [rng.randint(1, 2) for _ in range(nu)]),
            sum_side(left, parts),
            bound_side([v for _, v in edges], [rng.randint(1, 2) for _ in range(nv)]))


def test_structured_sides_match_copy_level(monkeypatch):
    """150 seeded draws: the search on structured sides, whose first
    augmentations the slot-order fill takes, against the copy-level search
    on their whole-vector predicates, for random_sides pairs in either
    order, the gadget's shape and crossing sides. The crossing draws make
    the search take further paths after the fill."""
    paths = []
    real = intersection._augment
    monkeypatch.setattr(intersection, "_augment",
                        lambda *args: real(*args) and not paths.append(1))
    seen = dict.fromkeys(["random", "gadget", "crossing", "path after the fill"], 0)

    def check(kind, slot_caps, side1, side2):
        (s1, p1), (s2, p2) = side1, side2
        paths.clear()
        assert (max_common_independent(slot_caps, s1, s2, sum(slot_caps))
                == copy_level(slot_caps, p1, p2))
        seen[kind] += 1
        seen["path after the fill"] += bool(paths)

    for seed in range(150):
        rng = random.Random(seed)
        num_slots = rng.randint(1, 6)
        slot_caps = [rng.randint(0, 3) for _ in range(num_slots)]
        bound, direct, _ = random_sides(rng, num_slots)
        check("random", slot_caps, direct, bound)
        check("random", slot_caps, bound, direct)
        num_slots, items, degrees = gadget_sides(rng)
        check("gadget", [rng.randint(1, 3) for _ in range(num_slots)], items, degrees)
        num_slots, left_bound, left_sum, right = crossing_sides(rng)
        slot_caps = [rng.randint(1, 2) for _ in range(num_slots)]
        for side1, side2 in [(left_bound, right), (left_sum, right), (right, left_sum)]:
            check("crossing", slot_caps, side1, side2)
    assert seen["path after the fill"] >= 40, seen


@pytest.mark.parametrize("seed", range(20))
def test_sides_that_accept_every_vector_augment_once(seed, monkeypatch):
    """When both sides accept every x <= caps, the fill reaches caps and the
    exchange search runs once, to find no augmenting path."""
    rng = random.Random(seed)
    num_slots = rng.randint(1, 8)
    slot_caps = [rng.randint(0, 4) for _ in range(num_slots)]
    num_blocks = rng.randint(1, num_slots)
    block = [rng.randrange(num_blocks) for _ in range(num_slots)]
    roomy = DirectSum(block, [members(ModularPoly([4] * block.count(b))) for b in range(num_blocks)])
    group = [rng.randrange(3) for _ in range(num_slots)]
    loose = PartitionBound(group, [sum(c for g, c in zip(group, slot_caps) if g == h)
                                   for h in range(3)])
    calls = []
    real = intersection._augment
    monkeypatch.setattr(intersection, "_augment", lambda *args: calls.append(1) or real(*args))
    for s1, s2 in [(roomy, loose), (loose, roomy)]:
        calls.clear()
        assert max_common_independent(slot_caps, s1, s2, sum(slot_caps)) == tuple(slot_caps)
        assert len(calls) == 1
