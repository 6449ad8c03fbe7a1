"""Matroid and polymatroid intersection against brute-force enumeration."""

import random
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from matalloc import intersection, polymatroids
from matalloc.bitsets import size, vec_support
from matalloc.instances import gen_random
from matalloc.intersection import (DirectSum, ExpandedMatroid, PartitionBound, decompose_in_sum,
                                   decompose_merged_basis, max_common_independent)
from matalloc.limits import ContractViolation, SizeCapError
from matalloc.matroids import (FreeMatroid, GraphicMatroid, PartitionMatroid, TransversalMatroid,
                               UniformMatroid)
from matalloc.oracle import enumerate_bases
from matalloc.polymatroids import (CoveragePoly, ModularPoly, ScaledRankPoly, SumPoly, is_basis,
                                   member)


def whole(num_slots, indep):
    """The whole-vector predicate indep as a side: a one-block DirectSum,
    asked once per distinct count vector."""
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
        got = common_set(UniformMatroid(3, 1), FreeMatroid(3))
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


def test_each_count_vector_is_asked_once():
    asked = {1: [], 2: []}
    p1, p2 = ModularPoly([2, 1, 2]), ScaledRankPoly(UniformMatroid(3, 2), 1)
    got = max_common_independent([2, 2, 2], whole(3, lambda x: asked[1].append(x) or member(p1, x)),
                                 whole(3, lambda x: asked[2].append(x) or member(p2, x)), 6)
    assert sum(got) == 2
    for seen in asked.values():
        assert seen and len(seen) == len(set(seen))


def test_unit_cap_is_checked_before_the_search():
    def never(x):
        raise AssertionError("asked a predicate past the cap")

    with pytest.raises(SizeCapError, match="^count-vector search over 5 units exceeds cap 4$"):
        max_common_independent([3, 2], whole(2, never), whole(2, never), 4)


def test_santa_basis_split_work_is_bounded(monkeypatch):
    """A count of the work, not of time, in splitting one fixed basis of a
    santa-matroid sum: the questions the direct sum of the parts asks its
    blocks (memo hits included) and the member calls behind them. The
    whole-vector predicates made 836 evaluations and 250 sfm_min calls
    here; the block questions are 418, with 295 member and 146 sfm_min
    calls."""
    inst = gen_random("santa-matroid", 2, m=5, n=4, u=1, w=3)
    parts = [it.polymatroid for it in inst.resources]
    y = (7, 17, 4, 9, 2)
    assert is_basis(SumPoly(parts), y)
    calls = {"block": 0, "member": 0, "sfm": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    class CountedSum(intersection.DirectSum):
        def __init__(self, block, preds):
            super().__init__(block, preds)
            self.preds = [counted("block", p) for p in self.preds]

    monkeypatch.setattr(intersection, "DirectSum", CountedSum)
    monkeypatch.setattr(intersection, "member", counted("member", intersection.member))
    monkeypatch.setattr(polymatroids, "sfm_min", counted("sfm", polymatroids.sfm_min))
    pieces = decompose_merged_basis(parts, y)
    assert pieces == [(0, 2, 1, 2, 2), (3, 3, 3, 3, 0), (4, 9, 0, 0, 0), (0, 3, 0, 4, 0)]
    assert 0 < calls["block"] <= 1000
    assert 0 < calls["member"] <= 300
    assert calls["sfm"] <= 300


# ---------------------------------------------------------------------------
# Structured sides against the predicates they stand for


def random_sides(rng, num_slots):
    """A PartitionBound and a DirectSum on num_slots slots, each with the
    whole-vector predicate it stands for, and what the draw covers."""
    num_groups = rng.randint(1, num_slots + 2)
    group = [rng.randrange(num_groups) for _ in range(num_slots)]
    cap = [rng.randint(0, 3) for _ in range(num_groups)]

    def within(x):
        loads = [0] * num_groups
        for g, c in zip(group, x):
            loads[g] += c
        return all(load <= c for load, c in zip(loads, cap))

    num_blocks = rng.randint(1, num_slots + 1)
    block = [rng.randrange(num_blocks) for _ in range(num_slots)]
    slots = [[s for s in range(num_slots) if block[s] == b] for b in range(num_blocks)]
    kinds, preds = set(), []
    for mine in slots:
        if mine:
            part = random_part(rng, len(mine))
            kinds.add(type(part).__name__)
            pred = members(part)
        else:
            def pred(sub):
                raise AssertionError("asked a block with no slots")
        preds.append(pred)

    def all_blocks(x):
        return all(not mine or pred(tuple(x[s] for s in mine))
                   for mine, pred in zip(slots, preds))

    covers = {"empty group": len(set(group)) < num_groups,
              "zero-cap group": any(cap[g] == 0 for g in group)} | {k: True for k in kinds}
    return (PartitionBound(group, cap), within), (DirectSum(block, preds), all_blocks), covers


def test_structured_sides_match_their_predicates():
    """400 seeded draws: a PartitionBound and a DirectSum, in either order and
    each against another of its kind, return the vector their whole-vector
    predicates return."""
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
                                   ((ds, blocks), (ds2, blocks2))]:
            want = max_common_independent(slot_caps, whole(num_slots, p1), whole(num_slots, p2),
                                          limit)
            assert max_common_independent(slot_caps, s1, s2, limit) == want, seed
            seen["inside and outside"] += any(0 < v < c for v, c in zip(want, slot_caps))
    assert min(seen.values()) >= 20, seen
