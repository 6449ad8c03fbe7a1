"""Matroid/polymatroid oracle tests: operation examples, axioms, and the
capped-marginal laws, each checked against independent brute force."""

import random
import re
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from matalloc import matching, polymatroids, stats
from matalloc.bitsets import (bits, elements, full_mask, indicator, size, submasks, vec_sum,
                              vec_support)
from matalloc.instances import CoreCoverInstance, gen_random
from matalloc.localsearch import solve_cover
from matalloc.limits import Caps, SizeCapError
from matalloc.matching import ArcNumbering, ResidualFlow
from matalloc.matroids import (ContractedMatroid, ExplicitMatroid, GraphicMatroid, InducedMatroid,
                               PartitionMatroid, TransversalMatroid, UniformMatroid,
                               UnionMatroid, ZeroedMatroid, matroid_add_greedy)
from matalloc.oracle import brute_transversal_rank, check_axioms, enumerate_bases
from matalloc.polymatroids import (CappedPoly, CoveragePoly, DualPoly, ExplicitPoly,
                                   MarginalPoly, ModularPoly, ScaledRankPoly, SumPoly,
                                   VectorContractedPoly, capped_marginal, count,
                                   greedy_basis_above, headroom, is_basis,
                                   leave_one_out_reaches, marginal_reaches, member,
                                   member_set, place, sfm_min)


def brute_capped(p, caps, mask):
    """Independent evaluation of min_{T ⊆ S} f(S \\ T) + c(T)."""
    best = None
    for t in submasks(mask):
        if any(caps[e] is None for e in bits(t)):
            continue
        v = p.value(mask ^ t) + sum(caps[e] for e in bits(t))
        if best is None or v < best:
            best = v
    return best


def random_matroid(rng, n, kinds=("uniform", "partition", "graphic", "transversal")):
    kind = rng.choice(list(kinds))
    if kind == "uniform":
        return UniformMatroid(n, rng.randint(0, n))
    if kind == "partition":
        labels = [rng.randrange(max(1, n // 2)) for _ in range(n)]
        blocks = [sum(1 << e for e in range(n) if labels[e] == lab) for lab in sorted(set(labels))]
        return PartitionMatroid(n, blocks, [rng.randint(0, 2) for _ in blocks])
    if kind == "graphic":
        verts = rng.randint(2, max(2, n))
        return GraphicMatroid(verts, [(rng.randrange(verts), rng.randrange(verts))
                                      for _ in range(n)])
    if kind == "transversal":
        num_right = rng.randint(1, n)
        return TransversalMatroid([rng.getrandbits(num_right) for _ in range(n)], num_right)
    u = rng.randint(1, n + 1)
    return InducedMatroid(CoveragePoly([rng.getrandbits(u) for _ in range(n)],
                                       [rng.randint(1, 2) for _ in range(u)]))


class TestRank:
    def test_uniform(self):
        assert UniformMatroid(3, 1).rank(0b011) == 1

    def test_gap_matroid(self):
        m = UniformMatroid(2, 1)  # rank |E|-1 over 2 elements
        assert m.rank(0b11) == 1
        assert m.rank(0b01) == 1

    def test_graphic_triangle(self):
        m = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
        # spanning forest of the triangle has 2 edges (union-find count)
        assert m.rank(0b111) == 2
        assert m.rank(0b011) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            UniformMatroid(2, 1).rank(0b100)

    def test_union_by_enumeration(self):
        mixes = [[UniformMatroid(4, 1), PartitionMatroid(4, [0b0011, 0b1100], [1, 1])]]
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(1, 7)
            mixes.append([random_matroid(rng, n, ["graphic", "transversal", "partition", "induced"])
                          for _ in range(rng.randint(1, 4))])
        for parts in mixes:
            union = UnionMatroid(parts)
            for x in range(1 << union.n):
                expect = min(size(x ^ y) + sum(p.rank(y) for p in parts) for y in submasks(x))
                assert union.rank(x) == expect

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_transversal_rank_ignores_right_vertex_labels(self, seed):
        """Relabelling the right vertices at random, up to 2^20 − 1, keeps
        every rank the brute-force matching gives; the matroid keeps the
        labels as given and matches over the vertices named only."""
        rng = random.Random(seed)
        n, r = rng.randint(1, 6), rng.randint(1, 5)
        adjacency = [rng.getrandbits(r) for _ in range(n)]
        label = rng.sample(range(1 << 20), r)
        relabelled = [sum(1 << label[v] for v in bits(a)) for a in adjacency]
        m = TransversalMatroid(relabelled, 1 << 20)
        assert m.adjacency == tuple(relabelled) and m.num_right == 1 << 20
        named = 0
        for a in adjacency:
            named |= a
        assert m._named == size(named)
        for x in range(1 << n):
            assert m.rank(x) == brute_transversal_rank(relabelled, x) \
                == brute_transversal_rank(adjacency, x)
        assert check_axioms(m)["ok"]

    def test_brute_transversal_rank(self):
        # elements 0 and 1 share their one neighbour; element 2 has its own
        assert brute_transversal_rank([0b1, 0b1, 0b110], 0b111) == 2
        assert brute_transversal_rank([0b1, 0b11, 0b10], 0b111) == 2
        assert brute_transversal_rank([0b1, 0b11, 0b110], 0b111) == 3

    def test_contracted_and_zeroed(self):
        m = PartitionMatroid(4, [0b0011, 0b1100], [1, 2])
        c = ContractedMatroid(m, 0b0001)
        for x in range(4):
            y = x << 2
            assert c.rank(y) == m.rank(y | 0b0001) - m.rank(0b0001)
        z = ZeroedMatroid(m, 0b0010)
        for x in range(16):
            assert z.rank(x) == m.rank(x & ~0b0010)


def graphic_rank_by_components(num_vertices, edges, mask):
    """|V touched| − #components of the edges in mask, the components found
    by a depth-first search: independent of GraphicMatroid's union-find."""
    adj = {}
    for e in range(len(edges)):
        if (mask >> e) & 1:
            u, v = edges[e]
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    seen, comps = set(), 0
    for start in adj:
        if start not in seen:
            comps += 1
            stack = [start]
            while stack:
                u = stack.pop()
                if u not in seen:
                    seen.add(u)
                    stack.extend(adj[u] - seen)
    return len(adj) - comps


class TestNestedDerivedMatroids:
    # a 4-cycle with a chord, a parallel edge and a self-loop
    EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 1), (3, 3)]

    @pytest.mark.parametrize("a, b", [(0b0000011, 0b0010100), (0b0010001, 0b0110001), (0, 0b1000000)])
    def test_a_contraction_of_a_contraction_is_one_contraction(self, a, b):
        m = GraphicMatroid(4, self.EDGES)
        c = ContractedMatroid(ContractedMatroid(m, a), b)
        assert c.inner is m and c.cmask == a | b
        brute = lambda x: graphic_rank_by_components(4, self.EDGES, x)
        for y in range(1 << m.n):
            assert c.rank(y) == brute(y | a | b) - brute(a | b)

    @pytest.mark.parametrize("a, b", [(0b0000011, 0b0010100), (0b0010001, 0b0110001), (0, 0b1000000)])
    def test_zeroing_a_zeroed_matroid_is_one_zeroing(self, a, b):
        m = GraphicMatroid(4, self.EDGES)
        z = ZeroedMatroid(ZeroedMatroid(m, a), b)
        assert z.inner is m and z.removed == a | b
        for y in range(1 << m.n):
            assert z.rank(y) == graphic_rank_by_components(4, self.EDGES, y & ~(a | b))


# ---------------------------------------------------------------------------
# The kernel every layer shares: bit loops and the rank/value memo


def reference_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bit_helpers_match_a_reference_generator():
    wide = [(1 << 200) | 0b1011, (1 << 64) - 1, (1 << 17) | (1 << 16), 1 << 16, (1 << 16) - 1]
    for mask in [*range(1 << 17), *wide]:
        ref = tuple(reference_bits(mask))
        assert tuple(bits(mask)) == elements(mask) == ref
        assert size(mask) == len(ref)
        for n in (5, 17):
            assert indicator(mask, n, 3) == tuple(3 if e in ref else 0 for e in range(n))


def test_bits_of_a_wide_mask_are_read_lazily():
    # a tuple of this mask's one high bit would need its 10^7-bit scan first
    assert next(iter(bits((1 << 10**7) | 1))) == 0
    assert not isinstance(bits(1 << 16), tuple)


def test_bits_within_one_byte_are_a_shared_tuple():
    assert bits(0b101) is bits(0b101) and bits(0b101 << 8) is bits(0b101 << 8)
    assert bits((1 << 16) - 1) == tuple(range(16))


ORACLES = [lambda: (GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)]), "rank", "matroid_rank"),
           lambda: (CoveragePoly([0b01, 0b11, 0b10], [2, 1]), "value", "poly_value")]


@pytest.mark.parametrize("make", ORACLES, ids=["rank", "value"])
def test_each_oracle_call_counts_one_query_hit_or_miss(make):
    oracle, name, counter = make()
    ask = getattr(oracle, name)
    for mask in (0b011, 0b011, 0, 0, 0b111, 0b011):
        before = stats.snapshot()
        ask(mask)
        assert stats.delta(before) == {"matroid_rank": 0, "poly_value": 0, counter: 1}
    # a bool is checked, counted and answered from its int's memo entry
    before = stats.snapshot()
    assert ask(True) == ask(1)
    assert stats.delta(before)[counter] == 2


@pytest.mark.parametrize("make", ORACLES, ids=["rank", "value"])
def test_a_memo_hit_raises_what_a_miss_raises(make):
    oracle, name, _ = make()
    ask = getattr(oracle, name)
    for bad in (1 << 3, 0b1001, -1):
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^subset .* out of range for ground set of size 3$"):
                ask(bad)
    # a key equal to a memoised mask but not an int is still checked
    ask(1)
    for key in (1.0, Fraction(1)):
        for _ in range(2):
            with pytest.raises(TypeError, match="unsupported operand type"):
                ask(key)
    assert set(oracle._memo) == {1}


class TestPolyEval:
    def test_modular(self):
        assert ModularPoly([2, 2, 2]).value(0b101) == 4

    def test_gap_polymatroid(self):
        assert ModularPoly([1, 1]).value(0b11) == 2

    def test_capped_brute(self):
        p = ExplicitPoly(2, [0, 3, 3, 3])
        caps = (2, None)
        cp = CappedPoly(p, caps)
        assert cp.value(0b01) == 2
        assert cp.value(0b11) == 3
        for mask in range(4):
            assert cp.value(mask) == brute_capped(p, caps, mask)

    def test_nested_caps_merge(self):
        p = ModularPoly([5, 5])
        cp = CappedPoly(CappedPoly(p, (3, None)), (4, 2))
        assert cp.caps == (3, 2)
        assert cp.value(0b11) == 5


class TestCappedMarginal:
    def test_example(self):
        p = ExplicitPoly(2, [0, 3, 3, 3])
        assert capped_marginal(p, 0b10, 2, 0b01) == 1

    def test_empty_marginal(self):
        p = ModularPoly([3, 1])
        assert capped_marginal(p, 0, 2, 0b01) == 0

    def test_no_cap(self):
        p = ExplicitPoly(2, [0, 3, 3, 3])
        assert capped_marginal(p, 0b10, 7, 0) == p.value(0b10)

    def test_overlap_extension(self):
        p = ModularPoly([2, 3])
        # f(Y | h·X) with Y ∩ X nonempty follows f(Y \ X | h·X)
        assert capped_marginal(p, 0b11, 1, 0b01) == capped_marginal(p, 0b10, 1, 0b01)

    @pytest.mark.parametrize("query", [capped_marginal, marginal_reaches])
    @pytest.mark.parametrize("base", [0, 0b10])
    def test_negative_cap_is_refused(self, query, base):
        # the cut network (coverage) and the subset recursion (scaled rank)
        for p in (CoveragePoly([0b01, 0b11], [2, 3]), ScaledRankPoly(UniformMatroid(2, 1), 2)):
            with pytest.raises(ValueError, match="caps must be nonnegative"):
                query(p, 0b01, -1, base)


    @pytest.mark.parametrize("query", [capped_marginal, marginal_reaches])
    @pytest.mark.parametrize("h", [True, 1.0, Fraction(2), None])
    def test_a_cap_that_is_not_an_int_is_refused(self, query, h):
        for p in (CoveragePoly([0b01, 0b11], [2, 3]), ScaledRankPoly(UniformMatroid(2, 1), 2)):
            with pytest.raises(ValueError, match="^caps must be integers$"):
                query(p, 0b01, h, 0b10)


class TestSfmMember:
    def test_nonnegative_case(self):
        mask, mn = sfm_min(lambda s: 2 * size(s) - vec_sum((1, 1), s), 2)
        assert (mask, mn) == (0, 0)

    def test_negative_case(self):
        mask, mn = sfm_min(lambda s: size(s) - 2 * size(s & 0b01), 2)
        assert (mask, mn) == (0b01, -1)

    def test_constant(self):
        assert sfm_min(lambda s: 0, 3) == (0, 0)

    def test_lexicographic_tie_break(self):
        # {0} and {1} both reach the minimum; sorted-tuple order prefers {0}
        mask, _ = sfm_min(lambda s: -1 if size(s) == 1 else 0, 2)
        assert mask == 0b01

    def test_member(self):
        assert member(ModularPoly([2, 2, 2]), (2, 2, 2))
        assert not member(ModularPoly([1, 1]), (2, 2))
        assert member(ExplicitPoly(2, [0, 1, 1, 1]), (0, 0))

    def test_member_matches_exhaustive(self):
        p = CoveragePoly([0b01, 0b11, 0b10], [2, 1])
        for vec in [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]:
            expect = all(p.value(s) >= vec_sum(vec, s) for s in range(8))
            assert member(p, vec) == expect


class TestGreedyBasis:
    def test_modular(self):
        assert greedy_basis_above(ModularPoly([2, 2]), (0, 0)) == (2, 2)

    def test_index_order(self):
        p = ScaledRankPoly(UniformMatroid(2, 1), 1)
        assert greedy_basis_above(p, (0, 0)) == (1, 0)

    def test_fixpoint(self):
        p = ModularPoly([1, 2])
        assert greedy_basis_above(p, (1, 2)) == (1, 2)

    def test_requires_member(self):
        with pytest.raises(ValueError):
            greedy_basis_above(ModularPoly([1, 1]), (2, 0))


class TestAddGreedy:
    def test_first_two_fit(self):
        assert matroid_add_greedy(UniformMatroid(3, 2), 0, [0, 1, 2]) == 0b011

    def test_saturated(self):
        assert matroid_add_greedy(UniformMatroid(3, 1), 0b001, [1, 2]) == 0b001

    def test_gap_rank_blocks(self):
        m = UniformMatroid(2, 1)
        assert matroid_add_greedy(m, 0b01, [1]) == 0b01

    def test_rejects_dependent_start(self):
        with pytest.raises(ValueError):
            matroid_add_greedy(UniformMatroid(3, 1), 0b011, [2])


class TestDual:
    def test_counting(self):
        d = DualPoly(ModularPoly([1, 1]), (2, 2))
        assert d.value(0b01) == 1 and d.value(0b10) == 1 and d.value(0b11) == 2

    def test_tight_z(self):
        assert DualPoly(ModularPoly([2]), (2,)).value(1) == 0

    def test_rank_one(self):
        d = DualPoly(ScaledRankPoly(UniformMatroid(2, 1), 1), (1, 1))
        assert d.value(0b01) == 1 and d.value(0b10) == 1 and d.value(0b11) == 1

    def test_basis_duality(self):
        # x in B(P) implies z - x in B(dual(P, z))
        p = CoveragePoly([0b011, 0b110, 0b101], [1, 2, 1])
        z = tuple(p.value(1 << e) for e in range(3))
        d = DualPoly(p, z)
        for b in enumerate_bases(p):
            assert is_basis(d, tuple(z[e] - b[e] for e in range(3)))


from conftest import random_poly


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_axioms_random_oracles(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 4)
    p = random_poly(rng, n)
    rep = check_axioms(p, seed=seed, augmentation_samples=4)
    assert rep["ok"], rep["violations"]


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_axioms_derived_forms(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 4)
    base = random_poly(rng, n)
    caps = [rng.choice([None, 0, 1, 2]) for _ in range(n)]
    assert check_axioms(CappedPoly(base, caps), seed=seed, augmentation_samples=2)["ok"]
    assert check_axioms(MarginalPoly(base, rng.getrandbits(n)), seed=seed,
                        augmentation_samples=2)["ok"]
    z = tuple(base.value(1 << e) for e in range(n))
    assert check_axioms(DualPoly(base, z), seed=seed, augmentation_samples=2)["ok"]
    y = [0] * n
    assert check_axioms(VectorContractedPoly(base, y), seed=seed, augmentation_samples=2)["ok"]
    assert check_axioms(InducedMatroid(base))["ok"]


def test_axiom_checker_flags_planted_violation():
    rep = check_axioms(ExplicitMatroid(2, [0, 1, 1, 3]))
    assert not rep["ok"] and rep["violations"]


def test_matroid_families_axioms():
    for m in [UniformMatroid(4, 2), UniformMatroid(3, 3),
              PartitionMatroid(4, [0b0011, 0b1100], [1, 2]),
              GraphicMatroid(3, [(0, 1), (1, 2), (2, 0), (0, 2)]),
              TransversalMatroid([0b01, 0b11, 0b10], 2)]:
        assert check_axioms(m)["ok"]


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_marginals_shrink_with_base_and_cap(seed):
    """Capped marginals decrease when the capped set grows or the cap drops."""
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 4)
    p = random_poly(rng, n)
    x = rng.getrandbits(n)
    h = rng.randint(1, 4)
    e = full_mask(n)
    for y in submasks(e & ~x):
        for i in bits(x):
            assert capped_marginal(p, y, h, x & ~(1 << i)) >= capped_marginal(p, y, h, x)
        if h > 1:
            assert capped_marginal(p, y, h - 1, x) >= capped_marginal(p, y, h, x)


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_small_marginal_set_is_self_consistent(seed):
    """Y = {i in X : f(i | h(X-i)) < h} satisfies f(i | h(Y-i)) < h iff i in Y."""
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 4)
    p = random_poly(rng, n)
    x = rng.getrandbits(n)
    h = rng.randint(1, 3)
    y = 0
    for i in bits(x):
        if capped_marginal(p, 1 << i, h, x & ~(1 << i)) < h:
            y |= 1 << i
    for i in bits(x):
        small = capped_marginal(p, 1 << i, h, y & ~(1 << i)) < h
        assert small == bool(y & (1 << i))


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_small_marginals_bound_value(seed):
    """If every i in X' has f(i | h(X-i)) < h then f(X') <= h|X|, strictly for X' nonempty."""
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 4)
    p = random_poly(rng, n)
    x = rng.getrandbits(n)
    h = rng.randint(1, 3)
    xp = 0
    for i in bits(x):
        if capped_marginal(p, 1 << i, h, x & ~(1 << i)) < h:
            xp |= 1 << i
    for sub in submasks(xp):
        if sub:
            assert p.value(sub) < h * size(x)
        else:
            assert p.value(sub) <= h * size(x)


def test_poly_eval_gap_instance():
    p = ModularPoly([1, 1])
    assert p.value(0b11) == 2


def test_induced_matroid_rank():
    p = ModularPoly([1, 1])
    ind = InducedMatroid(p)
    assert ind.rank(0b11) == 2
    capped = InducedMatroid(ExplicitPoly(2, [0, 1, 1, 1]))
    assert capped.rank(0b11) == 1


# ---------------------------------------------------------------------------
# Cut-network path: capped values and induced ranks by max-flow vs brute force


def reference_value(p, mask, memo):
    """f(mask) from the definitions: caps by brute_capped, contractions by
    differences, sums part by part, concrete parts by their own
    (subset-free) evaluation."""
    key = (id(p), mask)
    if key not in memo:
        if isinstance(p, CappedPoly):
            inner = SimpleNamespace(value=lambda s: reference_value(p.inner, s, memo))
            memo[key] = brute_capped(inner, p.caps, mask)
        elif isinstance(p, MarginalPoly):
            memo[key] = (reference_value(p.inner, mask | p.base_mask, memo)
                         - reference_value(p.inner, p.base_mask, memo))
        elif isinstance(p, SumPoly):
            memo[key] = sum(reference_value(q, mask, memo) for q in p.parts)
        else:
            memo[key] = p.value(mask)
    return memo[key]


def network_part(rng, n, depth=0):
    kind = rng.choice(["modular", "coverage", "sum"] if depth < 2 else ["modular", "coverage"])
    if kind == "modular":
        return ModularPoly([rng.randint(0, 3) for _ in range(n)])
    if kind == "coverage":
        u = rng.randint(1, n + 2)
        return CoveragePoly([rng.getrandbits(u) for _ in range(n)],
                            [rng.randint(1, 3) for _ in range(u)])
    return SumPoly([network_part(rng, n, depth + 1) for _ in range(rng.randint(2, 3))])


def network_chain(seed):
    """Caps and set contractions stacked over modular/coverage/sum parts."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    p = network_part(rng, n)
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            p = CappedPoly(p, [rng.choice([None, 0, 1, 2, 3]) for _ in range(n)])
        else:
            p = MarginalPoly(p, rng.getrandbits(n))
    return rng, p


def assert_matches_brute_force(rng, p):
    n, memo = p.n, {}
    ref = SimpleNamespace(value=lambda s: reference_value(p, s, memo))
    ind = InducedMatroid(p)
    for mask in range(1 << n):
        assert p.value(mask) == ref.value(mask)
        assert ind.rank(mask) == brute_capped(ref, [1] * n, mask)
    for base in range(1 << n):
        h = rng.randint(0, 3)
        caps = [h if (base >> e) & 1 else None for e in range(n)]
        capped_ref = lambda s: brute_capped(ref, caps, s)  # noqa: E731
        add = full_mask(n) & ~base
        for y in (add, add & -add):
            assert capped_marginal(p, y, h, base) == capped_ref(y | base) - capped_ref(base)


@pytest.mark.parametrize("seed", range(40))
def test_cut_network_matches_brute_force(seed):
    rng, p = network_chain(seed)
    assert p.network is not None
    assert_matches_brute_force(rng, p)


def non_network_polys(rng, n):
    cov = CoveragePoly([rng.getrandbits(3) for _ in range(n)],
                       [rng.randint(1, 3) for _ in range(3)])
    scaled = ScaledRankPoly(UniformMatroid(n, rng.randint(0, n)), rng.randint(1, 3))
    explicit = ExplicitPoly(n, [cov.value(x) for x in range(1 << n)])
    dual = DualPoly(cov, [cov.value(1 << e) for e in range(n)])
    contracted = VectorContractedPoly(cov, [min(1, cov.value(1 << e)) if e == 0 else 0
                                            for e in range(n)])
    mixed = SumPoly([ModularPoly([rng.randint(0, 2) for _ in range(n)]), scaled])
    # parts with caps or a contracted set do not share one network
    capped_part = SumPoly([cov, CappedPoly(cov, [rng.randint(0, 2) for _ in range(n)])])
    contracted_part = SumPoly([cov, MarginalPoly(cov, 1)])
    # a sum with matroid copies as a table, and as recurse_input leaves it
    # two levels down, where it has neither a network nor a partition form
    copies = SumPoly([cov, scaled, ScaledRankPoly(random_matroid(rng, n), rng.randint(1, 2))])
    table = ExplicitPoly(n, [sum(q.value(x) for q in copies.parts) for x in range(1 << n)])
    recursed = recursion_chain(rng, copies)
    assert recursed.partition_form is None
    return [scaled, explicit, dual, contracted, mixed, capped_part, contracted_part,
            table, recursed]


def recursion_chain(rng, p):
    """p as localsearch.recurse_input leaves it two levels down: each level
    caps b·(A ∪ B) at b and contracts A ∪ B."""
    b = rng.randint(1, 2)
    for _ in range(2):
        ab = rng.getrandbits(p.n)
        p = MarginalPoly(p.capped(uniform=b, on=ab), ab)
    return p


@pytest.mark.parametrize("seed", range(12))
def test_forms_without_a_network_keep_the_recursion(seed):
    """Forms without a network, capped and then contracted: values, induced
    ranks and capped marginals against brute force on up to 6 elements."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    for p in non_network_polys(rng, n):
        capped = CappedPoly(p, [rng.choice([None, 0, 1, 2]) for _ in range(n)])
        chained = MarginalPoly(capped, rng.getrandbits(n))
        for q in (p, capped, chained):
            assert q.network is None
            assert_matches_brute_force(rng, q)


@pytest.mark.parametrize("seed", range(24))
def test_vector_contraction_is_the_least_slack_above_the_set(seed):
    """f_y(S) = min_{U ⊇ S} f(U) − y(U) on random members y of a cut
    network, a scaled-rank part, an explicit table and a recursed sum with
    copies (up to 6 elements). A base of halves is refused: the contraction
    of an integer polymatroid is by an integer vector."""
    rng = random.Random(seed)
    forms = threshold_forms(seed)
    forms.append(non_network_polys(rng, rng.randint(2, 6))[-1])
    for p in forms:
        full = full_mask(p.n)
        for _ in range(3):
            y = [rng.randint(0, p.value(1 << e)) for e in range(p.n)]
            while not sfm_member(p, y):
                y[rng.choice([e for e in range(p.n) if y[e]])] -= 1
            vc = VectorContractedPoly(p, y)
            for mask in range(1 << p.n):
                expect = min(p.value(u) - vec_sum(y, u)
                             for u in submasks(full) if u & mask == mask)
                assert vc.value(mask) == expect
            with pytest.raises(ValueError, match="contracted base entries must be integers"):
                VectorContractedPoly(p, [Fraction(v, 2) for v in y])


# ---------------------------------------------------------------------------
# Induced matroids of sums with scaled-rank parts: a union, ranked by partition


def scaled_rank_sum(seed, min_n=1, min_scale=0):
    """ScaledRankPoly parts (scale min_scale..3) over the concrete matroid
    families on min_n..8 elements, with or without a modular and a
    coverage part."""
    rng = random.Random(seed)
    n = rng.randint(min_n, 8)
    parts = [ScaledRankPoly(random_matroid(rng, n), rng.randint(min_scale, 3))
             for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        parts.append(ModularPoly([rng.randint(0, 2) for _ in range(n)]))
    if rng.random() < 0.5:
        u = rng.randint(1, n + 2)
        parts.append(CoveragePoly([rng.getrandbits(u) for _ in range(n)],
                                  [rng.randint(1, 3) for _ in range(u)]))
    return parts[0] if len(parts) == 1 else SumPoly(parts)


@pytest.mark.parametrize("seed", range(60))
def test_scaled_rank_sums_induce_the_union(seed):
    p = scaled_rank_sum(seed)
    ind = InducedMatroid(p)
    ranks = [ind.rank(mask) for mask in range(1 << p.n)]
    # each rank is one count: matroid partition from MEMBER_SUPPORT
    # elements on, so no larger set's value is asked
    assert all(size(s) < polymatroids.MEMBER_SUPPORT for s in p._memo)
    assert ranks == [brute_capped(p, [1] * p.n, mask) for mask in range(1 << p.n)]


def test_coverage_plus_graphic_skips_the_recursion():
    rng = random.Random(7)
    n = 12
    cov = CoveragePoly([rng.getrandbits(4) for _ in range(n)], [1, 2, 1, 1])
    graphic = GraphicMatroid(6, [(rng.randrange(6), rng.randrange(6)) for _ in range(n)])
    p = SumPoly([cov, ScaledRankPoly(graphic, 1)])
    rank = InducedMatroid(p).rank(full_mask(n))
    assert not p._memo
    assert rank == brute_capped(p, [1] * n, full_mask(n))


def test_scale_zero_induces_rank_zero():
    m = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    for p in (ScaledRankPoly(m, 0),
              SumPoly([ScaledRankPoly(m, 0), ScaledRankPoly(UniformMatroid(3, 2), 0)])):
        ind = InducedMatroid(p)
        assert [ind.rank(mask) for mask in range(8)] == [0] * 8
    with pytest.raises(ValueError):
        UnionMatroid([])


# ---------------------------------------------------------------------------
# Membership and saturation slack on cut networks, and the membership memo


def sfm_member(p, x):
    return sfm_min(lambda s: p.value(s) - vec_sum(x, s), p.n)[1] >= 0


def brute_slack(p, x, e):
    return min(p.value(s) - vec_sum(x, s) for s in range(1 << p.n) if (s >> e) & 1)


def slack(p, x, e):
    """e's saturation slack: its headroom up to f({e}) − x(e)."""
    return headroom(p, x, e, p.value(1 << e) - x[e])


def partition_says(p, x):
    """Membership by p's partition form alone: the network's count reaches
    x(E) on a bare network, and every unit of x is placed on one with
    copies."""
    copies, g = p.partition_form
    return (g.count(x) if g is not None and not copies else place(copies, g, x).placed) == sum(x)


def probe_vectors(rng, p):
    """Random vectors up to one above each singleton value, random vectors
    lowered until they are members, and some of them again with one entry
    above its cap or one nonzero contracted entry."""
    net, n = p.network, p.n
    top = [p.value(1 << e) for e in range(n)]
    vecs = [tuple(rng.randint(0, t + rng.randint(0, 1)) for t in top) for _ in range(30)]
    for x in map(list, vecs[:10]):
        while not sfm_member(p, x):
            x[rng.choice([e for e in range(n) if x[e]])] -= 1
        vecs.append(tuple(x))
    for e in range(n):
        if (net.base >> e) & 1:
            bump = 1
        elif net.caps[e] is not None:
            bump = net.caps[e] + 1
        else:
            continue
        x = list(rng.choice(vecs))
        x[e] = bump
        vecs.append(tuple(x))
    return vecs


def chain_reference(p):
    """network_chain's polymatroid evaluated from the definitions, no flow."""
    memo = {}
    return SimpleNamespace(n=p.n, value=lambda s: reference_value(p, s, memo))


@pytest.mark.parametrize("seed", range(40))
def test_flow_membership_matches_sfm(seed):
    """A cut network is a partition form with no copies: membership, the
    partition count and the saturation slack are its count, here against
    the definitions on vectors with entries above caps or on contracted
    elements."""
    rng, p = network_chain(seed)
    ref = chain_reference(p)
    assert p.partition_form == ((), p.network)
    for x in probe_vectors(rng, p):
        expect = sfm_member(ref, x)
        assert partition_says(p, x) == expect
        assert member(p, x) == expect
        assert p.network.count(x) == brute_capped(ref, x, full_mask(p.n))
        if expect:
            for e in range(p.n):
                assert slack(p, x, e) == brute_slack(ref, x, e)


def spy_partition_solves(monkeypatch, record):
    """Call record(form, x) on every count the partition path solves from
    scratch, form being the (copies, network) it solves on: a placement
    (polymatroids.place) on a form with copies, the network's count
    (CutNetwork.count) on a bare cut network."""
    real_place, real_count = polymatroids.place, polymatroids.CutNetwork.count

    def placing(copies, g, x):
        record((copies, g), x)
        return real_place(copies, g, x)

    def counting(g, x):
        record(((), g), x)
        return real_count(g, x)

    monkeypatch.setattr(polymatroids, "place", placing)
    monkeypatch.setattr(polymatroids.CutNetwork, "count", counting)


class TestMemberMemo:
    def test_a_hit_still_obeys_the_cap(self):
        """The vector is counted by one flow, which the cap does not bound,
        so its hit under a smaller cap answers as its miss did; a count
        that enumerates raises on a hit as on a miss
        (test_a_count_that_enumerates_raises_on_a_miss_and_on_a_hit)."""
        p = ModularPoly([1] * 4)
        assert member(p, (1, 1, 1, 1))
        assert member(p, (1, 1, 1, 1), Caps(sfm_ground=3))

    def test_sign_and_range_are_checked_before_the_lookup(self):
        p = ModularPoly([1, 1])
        p._member_memo[(-1, 0)] = p._member_memo[(0, 0, 1)] = True
        with pytest.raises(ValueError):
            member(p, (-1, 0))
        with pytest.raises(ValueError):
            member(p, (0, 0, 1))

    def test_a_vector_of_the_wrong_length_is_refused(self):
        p = ModularPoly([1] * 4)
        for x in [(1, 1, 1), (1, 1, 1, 0, 0)]:
            with pytest.raises(ValueError, match="ground set of size 4"):
                member(p, x)
        assert not p._member_memo
        with pytest.raises(ValueError, match="ground set of size 4"):
            headroom(p, (1, 0), 0, 0)
        with pytest.raises(ValueError, match="ground set of size 4"):
            greedy_basis_above(p, (1, 0))

    def test_slack_refuses_an_element_outside_the_ground_set(self):
        for p in (ModularPoly([1, 1]), ScaledRankPoly(UniformMatroid(2, 1), 1)):
            for e in (-1, 2):
                with pytest.raises(ValueError, match=r"element -?\d outside 0\.\.1"):
                    headroom(p, (0, 0), e, 1)

    @pytest.mark.parametrize("x, e, limit, message", [
        ((0, 0, 0), -1, 1, r"^element -1 outside 0\.\.2$"),
        ((0, 0, 0), 3, 1, r"^element 3 outside 0\.\.2$"),
        ((0, 0, 0), True, 1, r"^element True outside 0\.\.2$"),
        ((0, 0, 0), 1.0, 1, r"^element 1\.0 outside 0\.\.2$"),
        ((1, 0, 0), 0, -1, "^headroom limit must be nonnegative$"),
        ((1, 0, 0), 0, True, "^headroom limit must be integers$"),
        ((1, 0, 0), 0, Fraction(1), "^headroom limit must be integers$"),
    ], ids=["e-negative", "e-past-n", "e-bool", "e-float", "limit-negative", "limit-bool",
            "limit-fraction"])
    def test_headroom_checks_its_element_and_limit(self, x, e, limit, message):
        """Refused before any count: read as an index, e = −1 would answer
        for element 2 and e = True for element 1."""
        p = ModularPoly([1, 2, 3])
        with pytest.raises(ValueError, match=message):
            headroom(p, x, e, limit)

    @pytest.mark.parametrize("entry", [Fraction(2), Fraction(3, 2), 2.0, True],
                             ids=["fraction", "half", "float", "bool"])
    def test_an_entry_that_is_not_an_int_is_refused(self, entry, monkeypatch):
        """Refused before the memo lookup and before any count: an equal
        vector of ints is memoised first, and would answer a lookup."""
        p = CoveragePoly([0b011, 0b110, 0b100], [1, 2, 1])
        assert member(p, (1, 2, 1)) == sfm_member(p, (1, 2, 1))
        monkeypatch.setattr(polymatroids, "count", lambda *args: pytest.fail("count reached"))
        message = f"^membership entry 1 is {re.escape(repr(entry))}, not a nonnegative int$"
        with pytest.raises(ValueError, match=message):
            member(p, (1, entry, 1))
        with pytest.raises(ValueError, match=message):
            headroom(p, (1, entry, 0), 2, 1)
        assert list(p._member_memo) == [(1, 2, 1)]


def test_total_sums_the_delta_it_is_given():
    """Not the process's counters, which a value query has just raised."""
    ModularPoly([1]).value(1)
    assert stats.total({}) == 0
    assert stats.total({"poly_value": 2, "matroid_rank": 3}) == 5


# ---------------------------------------------------------------------------
# Residual flows and capped marginals by one augmenting search


def cuts(adj, left, right):
    """(T, left(T) + right(N(rest))) for every left subset T: the cut whose
    sink side holds T and whose source side holds the rest and its
    neighbours."""
    everyone = full_mask(len(adj))
    for t in submasks(everyone):
        reach = 0
        for u in bits(everyone & ~t):
            reach |= adj[u]
        yield t, vec_sum(left, t) + vec_sum(right, reach)


def max_capacitated_flow(adj, left, right):
    """The value of a maximum flow through the network, solved from scratch
    on a numbering of its own: the reference for kept and derived flows."""
    return ResidualFlow(ArcNumbering(adj), left, right).total


def min_cut(adj, left, right):
    """min over left subsets T of left(T) + right(N(rest)), by enumeration."""
    return min(v for _, v in cuts(adj, left, right))


def arc_flows(res):
    """(u, v) -> the flow on arc u -> v, read off the kept arc list."""
    return {uv: res.flow[a] for uv, a in res.arcs.items()}


def assert_is_flow(res, adj, left, right):
    """Arc flows within the arcs, conservation at every vertex, holders in step."""
    out = [0] * len(adj)
    into = [0] * len(right)
    for (u, v), f in arc_flows(res).items():
        assert f >= 0 and (adj[u] >> v) & 1
        assert bool((res.holders[v] >> u) & 1) == (f > 0)
        out[u] += f
        into[v] += f
    assert all(0 <= r for r in res.left_res + res.right_res)
    assert [c - r for c, r in zip(left, res.left_res)] == out
    assert [c - r for c, r in zip(right, res.right_res)] == into
    assert res.total == sum(out)


def random_network(rng):
    nl, nr = rng.randint(1, 6), rng.randint(1, 6)
    adj = [rng.getrandbits(nr) for _ in range(nl)]
    return adj, [rng.randint(0, 4) for _ in range(nl)], [rng.randint(0, 4) for _ in range(nr)]


@pytest.mark.parametrize("seed", range(60))
def test_residual_flow_is_a_max_flow_through_raises_and_lowers(seed):
    rng = random.Random(seed)
    adj, left, right = random_network(rng)
    res = ResidualFlow(ArcNumbering(adj), left, right)
    assert res.total == max_capacitated_flow(adj, left, right) == min_cut(adj, left, right)
    assert_is_flow(res, adj, left, right)
    for _ in range(8):
        u = rng.randrange(len(adj))
        before, kept, old = res.total, res.copy(), list(left)
        if rng.random() < 0.5:
            d = rng.randint(0, 4)
            left[u] += d
            assert res.raise_supply(u, d) == res.total - before
        else:
            # a lowering is asked of a flow that carries all of its supply
            left[:] = drop_unused_supply(res)
            d = rng.randint(0, left[u])
            left[u] -= d
            assert res.lower_supply(u, d) is None and res.total == before - d
        assert res.total == min_cut(adj, left, right)
        assert_is_flow(res, adj, left, right)
        # the copy still holds the flow it was taken from
        assert kept.total == before
        assert_is_flow(kept, adj, old, right)


@pytest.mark.parametrize("seed", range(40))
def test_matching_is_a_maximum_matching(seed):
    rng = random.Random(seed)
    adj, _, right = random_network(rng)
    total, match_left = matching.max_bipartite_matching(adj, len(right))
    used = [v for v in match_left if v is not None]
    assert all(v is None or (adj[u] >> v) & 1 for u, v in enumerate(match_left))
    assert len(set(used)) == len(used) == total
    assert total == min_cut(adj, [1] * len(adj), [1] * len(right))
    assert (matching.perfect_matching(adj, len(right)) is None) == (total < len(adj))


def drop_unused_supply(res):
    """Set res's unused supply to 0, which leaves a flow that carries all of
    its supply, and return that supply."""
    res.left_res = [0] * len(res.nbrs)
    return [sum(f for (w, _), f in arc_flows(res).items() if w == u) for u in range(len(res.nbrs))]


def step_supply(rng, res, supply):
    """Raise one random left vertex's supply of res, or drop the unused
    supply and lower one vertex's by at most what it carries, in step with
    the list supply."""
    u = rng.randrange(len(supply))
    if rng.random() < 0.5:
        d = rng.randint(0, 4)
        supply[u] += d
        res.raise_supply(u, d)
    else:
        supply[:] = drop_unused_supply(res)
        d = rng.randint(0, supply[u])
        supply[u] -= d
        res.lower_supply(u, d)


def assert_exchanges_match_carried(res, adj, right):
    """Drop res's unused supply, which leaves a flow that carries all of its
    supply c; then exchanges(u) is None iff c + 1_u is carried in full, else
    exactly the z != u for which c − 1_z + 1_u is."""
    c = drop_unused_supply(res)

    def carried(supply):
        return max_capacitated_flow(adj, supply, right) == sum(supply)

    for u in range(len(adj)):
        up = [v + (w == u) for w, v in enumerate(c)]
        swaps = [z for z in range(len(adj)) if z != u and c[z]
                 and carried([v - (w == z) for w, v in enumerate(up)])]
        assert res.exchanges(u) == (None if carried(up) else sum(1 << z for z in swaps))


@pytest.mark.parametrize("seed", range(60))
def test_exchanges_name_the_units_one_more_unit_can_replace(seed):
    rng = random.Random(seed)
    adj, _, right = random_network(rng)
    res = ResidualFlow(ArcNumbering(adj), [rng.randint(0, 4) for _ in adj], right)
    assert_exchanges_match_carried(res, adj, right)


@pytest.mark.parametrize("seed", range(60))
def test_exchanges_after_raises_and_lowers(seed):
    """The same on a kept flow whose arcs six raises and lowers have moved."""
    rng = random.Random(seed)
    adj, left, right = random_network(rng)
    res = ResidualFlow(ArcNumbering(adj), left, right)
    for _ in range(6):
        step_supply(rng, res, left)
    assert_exchanges_match_carried(res, adj, right)


@pytest.mark.parametrize("seed", range(30))
def test_a_copy_shares_the_neighbour_lists_and_not_the_flow(seed):
    """copy() shares the neighbour tuples and arc numbering built once by
    the constructor; raising and lowering supplies on the copy leaves the
    original's flow as it was."""
    rng = random.Random(seed)
    adj, left, right = random_network(rng)
    res = ResidualFlow(ArcNumbering(adj), left, right)
    assert res.nbrs == tuple(tuple(bits(a)) for a in adj)
    assert sorted(res.arcs.values()) == list(range(len(res.flow)))
    kept = (arc_flows(res), res.left_res[:], res.right_res[:], res.holders[:], res.total)
    twin = res.copy()
    assert twin.nbrs is res.nbrs and twin.arcs is res.arcs
    supply = list(left)
    for _ in range(6):
        step_supply(rng, twin, supply)
        assert_is_flow(twin, adj, supply, right)
    assert (arc_flows(res), res.left_res, res.right_res, res.holders, res.total) == kept
    assert_is_flow(res, adj, left, right)


@pytest.mark.parametrize("seed", range(60))
def test_source_side_is_what_every_minimum_cut_keeps(seed):
    """The left vertices on the source side of every minimum cut, through
    raises and lowers of the kept flow."""
    rng = random.Random(seed)
    adj, left, right = random_network(rng)
    res = ResidualFlow(ArcNumbering(adj), left, right)
    for _ in range(6):
        least = min_cut(adj, left, right)
        sink_side = 0
        for t, v in cuts(adj, left, right):
            if v == least:
                sink_side |= t
        assert res.source_side() == full_mask(len(adj)) & ~sink_side
        step_supply(rng, res, left)


def marginal_queries(seed):
    """network_chain's polymatroid with h in 1..3 and random sets X."""
    rng, p = network_chain(seed)
    return rng, p, [(h, rng.getrandbits(p.n)) for h in (1, 2, 3) for _ in range(3)]


@pytest.mark.parametrize("seed", range(40))
def test_capped_marginal_matches_capped_values_and_brute_force(seed):
    rng, p, queries = marginal_queries(seed)
    memo = {}
    ref = SimpleNamespace(value=lambda s: reference_value(p, s, memo))
    for h, x in queries:
        caps = [h if (x >> e) & 1 else None for e in range(p.n)]
        cp = p.capped(uniform=h, on=x)
        for i in range(p.n):
            y = (1 << i) & ~x
            got = capped_marginal(p, 1 << i, h, x)
            assert got == cp.value(y | x) - cp.value(x)
            assert got == brute_capped(ref, caps, y | x) - brute_capped(ref, caps, x)


@pytest.mark.parametrize("seed", range(40))
def test_contracted_elements_have_no_marginal(seed):
    _, p, queries = marginal_queries(seed)
    base = p.network.base
    for h, x in queries:
        for i in bits(base):
            assert p.network.marginal(i, h, x) == 0
            assert capped_marginal(p, 1 << i, h, x) == 0


@pytest.mark.parametrize("seed", range(40))
def test_kept_residuals_answer_alike_in_any_order(seed):
    _, p, queries = marginal_queries(seed)
    fresh = network_chain(seed)[1]
    for h, x in queries:
        forward = [capped_marginal(p, 1 << i, h, x) for i in range(p.n)]
        backward = [capped_marginal(fresh, 1 << i, h, x) for i in reversed(range(p.n))]
        again = [capped_marginal(p, 1 << i, h, x) for i in range(p.n)]
        assert forward == backward[::-1] == again


def kept_store_outcomes(seed):
    """What seed's kept flows and placements answer: solve_cover on a
    generated core and on an induced core, a count walk that adds one unit
    at a time on a sum with copies and a network part, uniform counts on a
    cut network, and every rank of a union; with the stores' owners."""
    rng = random.Random(seed)
    n = 8
    covers = [rng.getrandbits(6) for _ in range(n)]
    summed = SumPoly([ScaledRankPoly(UniformMatroid(n, 2), 2), CoveragePoly(covers, [1, 2] * 3)])
    cores = [gen_random("core-cover", seed, m=10, b=rng.randint(1, 2)),
             CoreCoverInstance(InducedMatroid(summed), CoveragePoly(covers, [1] * 6), 2)]
    covered = [(res.feasible, res.I_M, res.y, res.restarts, res.zeroed,
                res.total_recursion_nodes,
                [(rec.failed_element, rec.certificate) for rec in res.certificates])
               for res in map(solve_cover, cores)]
    walked, x = [], [0] * n
    for _ in range(24):
        x[rng.randrange(n)] += 1
        walked.append(count(summed, x))
    net = CoveragePoly([rng.getrandbits(5) for _ in range(n)], [1, 3, 1, 2, 2])
    walked += [count(net, indicator(mask, n, h)) for h in (1, 2)
               for mask in (rng.getrandbits(n) | 0b111 for _ in range(12))]
    union = UnionMatroid([UniformMatroid(n, 1), PartitionMatroid(n, [0b1111, 0b11110000], [1, 2]),
                          TransversalMatroid([rng.getrandbits(3) for _ in range(n)], 3)])
    ranks = [union.rank(mask) for mask in range(1 << n)]
    return (covered, walked, ranks), (summed, net.network, union._sum)


@pytest.mark.parametrize("seed", range(16))
def test_starting_kept_stores_over_moves_no_answer(seed, monkeypatch):
    """With KEEP_ENTRIES at 1 every insert empties its store first, so each
    flow and placement is derived from nothing kept, or solved again: covers,
    certificates, counts and union ranks are those of the default budget.
    (Query counts may differ: a placement solved again asks the rank
    queries of its partition again.)"""
    default, _ = kept_store_outcomes(seed)
    monkeypatch.setattr(polymatroids, "KEEP_ENTRIES", 1)
    tight, (summed, net, union_sum) = kept_store_outcomes(seed)
    assert tight == default
    assert len(summed._placements) == len(union_sum._placements) == len(net._residuals) == 1


def per_element(p, among, h, base):
    """The leave-one-out questions one marginal_reaches at a time."""
    return sum(1 << i for i in bits(among) if marginal_reaches(p, 1 << i, h, base & ~(1 << i)))


def leave_one_out_cases(seed):
    """(among, h, base) on network_chain's polymatroid: h in 0..3, a random
    base and the whole ground set (which holds the network's own base), each
    asked about all of the base, a random part of it and nothing."""
    rng, p = network_chain(seed)
    for h in range(4):
        for base in (rng.getrandbits(p.n), full_mask(p.n)):
            for among in (base, base & rng.getrandbits(p.n), 0):
                yield p, among, h, base


def counted_answer(ask, *args):
    before = stats.snapshot()
    return ask(*args), stats.delta(before)


@pytest.mark.parametrize("seed", range(60))
def test_leave_one_out_batch_matches_the_per_element_questions(seed):
    """Same answers and the same two queries per question as one
    marginal_reaches each, on a polymatroid of its own (no shared flows)."""
    fresh = network_chain(seed)[1]
    for p, among, h, base in leave_one_out_cases(seed):
        got = counted_answer(leave_one_out_reaches, p, among, h, base)
        assert got == counted_answer(per_element, fresh, among, h, base)
        assert got[1]["poly_value"] == 2 * size(among)


def test_leave_one_out_cases_reach_every_edge():
    """Across the seeds the batch is asked at h = 0, about elements below
    h, about elements of the network's own base, and about nothing."""
    seen = set()
    for seed in range(60):
        for p, among, h, base in leave_one_out_cases(seed):
            net = p.network
            seen.add("empty" if not among else "h = 0" if h == 0 else "asked")
            if any(net._left[i] < h for i in bits(among & ~net.base)):
                seen.add("below h")
            if among & net.base and h:
                seen.add("network base")
    assert seen == {"empty", "h = 0", "asked", "below h", "network base"}


@pytest.mark.parametrize("seed", range(20))
def test_leave_one_out_without_a_network_asks_each_element(seed):
    n = random.Random(seed).randint(2, 4)
    polys = non_network_polys(random.Random(seed), n)
    fresh = non_network_polys(random.Random(seed), n)
    rng = random.Random(seed)
    for p, q in zip(polys, fresh):
        assert p.network is None
        for h in range(3):
            base = rng.getrandbits(n)
            among = base & rng.getrandbits(n)
            assert (counted_answer(leave_one_out_reaches, p, among, h, base)
                    == counted_answer(per_element, q, among, h, base))


def test_leave_one_out_asks_only_about_the_base():
    p = CoveragePoly([0b011, 0b110, 0b100], [1, 2, 1])
    with pytest.raises(ValueError, match="in the base"):
        leave_one_out_reaches(p, 0b101, 1, 0b001)
    with pytest.raises(ValueError, match="caps"):
        leave_one_out_reaches(p, 0, -1, 0b001)


@pytest.mark.parametrize("add", [0b001, 0b011])
def test_a_capped_marginal_counts_two_value_queries(add):
    def counted(query, p):
        before = stats.snapshot()
        query(p, add, 2, 0b100)
        return stats.delta(before)

    for query in (capped_marginal, marginal_reaches):
        net = CoveragePoly([0b011, 0b110, 0b100], [1, 2, 1])
        if size(add) == 1:
            # by flow: two queries, whether the residual is solved or kept
            assert counted(query, net) == {"matroid_rank": 0, "poly_value": 2}
        else:
            # by two capped values, plus the queries of their counts until
            # they are memoised
            assert counted(query, net)["poly_value"] > 2
        assert counted(query, net) == {"matroid_rank": 0, "poly_value": 2}
        # off a network: the two capped values, likewise
        rec = ScaledRankPoly(UniformMatroid(3, 2), 2)
        assert counted(query, rec)["poly_value"] > 2
        assert counted(query, rec) == {"matroid_rank": 0, "poly_value": 2}


# ---------------------------------------------------------------------------
# Membership in sums with scaled-rank parts by matroid partition


def partition_probes(rng, p):
    """Entries 0..4: random vectors, some lowered until they are members,
    some with one entry above its singleton value, and the singleton values
    themselves (capped at 4), which often exceed f(E) together."""
    n = p.n
    top = [p.value(1 << e) for e in range(n)]
    vecs = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(20)]
    for x in map(list, vecs[:8]):
        while not sfm_member(p, x):
            x[rng.choice([e for e in range(n) if x[e]])] -= 1
        vecs.append(tuple(x))
    for e in range(n):
        if top[e] < 4:
            x = list(rng.choice(vecs))
            x[e] = top[e] + 1
            vecs.append(tuple(x))
    vecs.append(tuple(min(t, 4) for t in top))
    return vecs


@pytest.mark.parametrize("seed", range(80))
def test_partition_membership_matches_sfm(seed):
    """Sums of scaled-rank parts (scale 0..3, all four matroid kinds), with
    or without a modular and a coverage part, and lone scaled-rank parts."""
    p = scaled_rank_sum(seed)
    assert p.network is None and p.partition_form is not None
    copies, g = p.partition_form
    for x in partition_probes(random.Random(seed), p):
        expect = sfm_member(p, x)
        assert partition_says(p, x) == expect
        assert member(p, x) == expect
        # the count is the largest y(E) over integer y <= x in P
        assert place(copies, g, x).placed == brute_capped(p, x, full_mask(p.n))


def sfm_count(p, x):
    return sum(x) + sfm_min(lambda s: p.value(s) - vec_sum(x, s), p.n)[1]


@pytest.mark.parametrize("seed", range(40))
def test_counts_along_unit_walks_match_sfm(seed, monkeypatch):
    """A walk of ±1-unit steps, each entry between 0 and one above its
    singleton value, counted at every step: most counts extend a kept
    placement one unit below by one exchange search."""
    p = scaled_rank_sum(seed, min_n=4, min_scale=1)
    assert p.partition_form[0]
    rng = random.Random(seed)
    solved = []
    spy_partition_solves(monkeypatch, lambda form, x: solved.append(x))
    top = [p.value(1 << e) for e in range(p.n)]
    x = [min(t, 1) for t in top]
    partition_counts = 0
    for _ in range(120):
        e = rng.randrange(p.n)
        x[e] += -1 if x[e] > top[e] or (x[e] and rng.random() < 0.4) else 1
        assert count(p, x) == sfm_count(p, x), x
        partition_counts += size(vec_support(x)) >= polymatroids.MEMBER_SUPPORT
    assert len(solved) < partition_counts


@pytest.mark.parametrize("seed", range(10))
def test_a_walk_of_unit_raises_solves_one_placement(seed, monkeypatch):
    """Raising one unit at a time, only the first count is placed from
    scratch; every later one adds its unit to the placement kept one unit
    below it."""
    p = scaled_rank_sum(seed, min_n=4, min_scale=1)
    rng = random.Random(seed)
    solved = []
    spy_partition_solves(monkeypatch, lambda form, x: solved.append(tuple(x)))
    x = [1] * polymatroids.MEMBER_SUPPORT + [0] * (p.n - polymatroids.MEMBER_SUPPORT)
    first = tuple(x)
    for _ in range(25):
        assert count(p, x) == sfm_count(p, x), x
        x[rng.randrange(p.n)] += 1
    assert solved == [first]


def test_partition_count_rejects_singletons_and_the_total():
    p = SumPoly([ScaledRankPoly(UniformMatroid(4, 1), 2), ModularPoly([1, 0, 0, 1])])
    assert [p.value(1 << e) for e in range(4)] == [3, 2, 2, 3] and p.value(0b1111) == 4
    for x, expect in [((0, 3, 0, 0), False),    # x(e) > f({e})
                      ((2, 2, 0, 0), False),    # x(E) > f(E), every singleton within
                      ((3, 0, 0, 1), True), ((1, 1, 1, 1), True)]:
        assert partition_says(p, x) == sfm_member(p, x) == expect


def test_a_lone_scaled_rank_part_exhaustively():
    p = ScaledRankPoly(GraphicMatroid(3, [(0, 1), (1, 2), (2, 0), (0, 1)]), 2)
    assert p.partition_form == ((p.matroid, p.matroid), None)
    for x in product(range(4), repeat=4):
        assert partition_says(p, x) == sfm_member(p, x)


def test_scale_zero_parts_carry_nothing():
    m = UniformMatroid(3, 2)
    p = SumPoly([ScaledRankPoly(m, 0), ScaledRankPoly(m, 1)])
    assert p.partition_form == ((m,), None)
    for x in product(range(3), repeat=3):
        assert partition_says(p, x) == sfm_member(p, x)
    assert not partition_says(ScaledRankPoly(m, 0), (1, 0, 0))


@pytest.mark.parametrize("seed", range(20))
def test_forms_with_copies_have_a_plain_network_part(seed):
    """place keeps the split of the network part's prefill flow,
    which is right only on a plain network: a sum of scaled-rank parts and
    a capped or contracted coverage part has no partition form."""
    p = scaled_rank_sum(seed)
    copies, g = p.partition_form
    assert g is None or g.plain
    cov = CoveragePoly([1 << e for e in range(p.n)], [2] * p.n)
    for part in (CappedPoly(cov, [1] * p.n), MarginalPoly(cov, 1)):
        assert not part.network.plain
        assert SumPoly([p, part]).partition_form is None


Z1, Z3, E, Z2 = range(4)


def plain_part_twice(monkeypatch):
    """The flow gives the coverage part z1 and z3 (items a and b), copy A
    takes z2, and e fits only into the coverage part, in place of z1. The
    one path for e's unit: e replaces z1 there, z1 replaces z2 in A, z2
    replaces z3 in the coverage part, and B takes z3. Returns the sum and
    the list that records each lower_supply of a residual flow."""
    lowered = []
    lower = matching.ResidualFlow.lower_supply
    monkeypatch.setattr(matching.ResidualFlow, "lower_supply",
                        lambda self, u, d: lowered.append(u) or lower(self, u, d))
    cover = CoveragePoly([0b01, 0b10, 0b01, 0b10], [1, 1])
    a = PartitionMatroid(4, [1 << Z1 | 1 << Z2, 1 << E | 1 << Z3], [1, 0])
    b = PartitionMatroid(4, [1 << Z3, 1 << E | 1 << Z1 | 1 << Z2], [1, 0])
    return SumPoly([cover, ScaledRankPoly(a, 1), ScaledRankPoly(b, 1)]), lowered


def test_exchange_paths_pass_through_the_plain_part_twice(monkeypatch):
    p, lowered = plain_part_twice(monkeypatch)
    assert partition_says(p, (1, 1, 1, 1)) and sfm_member(p, (1, 1, 1, 1))
    assert lowered == [Z3, Z1]
    assert not partition_says(p, (1, 1, 2, 1)) and not sfm_member(p, (1, 1, 2, 1))


def test_induced_rank_paths_pass_through_the_plain_part(monkeypatch):
    """The same path ranks the full ground set of the induced matroid, on
    the one kept flow of the coverage part."""
    p, lowered = plain_part_twice(monkeypatch)
    assert InducedMatroid(p).rank(0b1111) == brute_capped(p, [1] * 4, 0b1111) == 4
    assert lowered == [Z3, Z1]


def scaled_rank_and_coverage(seed):
    """One or two scaled-rank parts (scale 1..3) and a coverage part on
    4..7 elements: a partition form with copies and a plain network part."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    u = rng.randint(1, n + 2)
    parts = [ScaledRankPoly(random_matroid(rng, n), rng.randint(1, 3))
             for _ in range(rng.randint(1, 2))]
    return SumPoly(parts + [CoveragePoly([rng.getrandbits(u) for _ in range(n)],
                                         [rng.randint(1, 3) for _ in range(u)])])


def test_exchange_paths_lower_only_flows_that_carry_all_of_their_supply(monkeypatch):
    """lower_supply's precondition holds where exchange paths take units
    out of the plain part: every flow it lowers has no unused supply. Over
    membership and the induced ranks on seeded sums of scaled-rank and
    coverage parts, and on plain_part_twice, all answered right."""
    lowered = []
    lower = ResidualFlow.lower_supply

    def checked(self, u, d):
        assert not any(self.left_res)
        lowered.append(u)
        lower(self, u, d)

    monkeypatch.setattr(ResidualFlow, "lower_supply", checked)
    for seed in range(30):
        p = scaled_rank_and_coverage(seed)
        for x in partition_probes(random.Random(seed), p):
            assert member(p, x) == sfm_member(p, x), (seed, x)
        ind = InducedMatroid(p)
        for mask in range(1 << p.n):
            assert ind.rank(mask) == brute_capped(p, [1] * p.n, mask), (seed, mask)
    assert lowered
    p, twice = plain_part_twice(monkeypatch)
    assert member(p, (1, 1, 1, 1)) and InducedMatroid(p).rank(0b1111) == 4
    assert twice == [Z3, Z1]   # the rank reads the placement member kept


def partition_sum(n=8):
    """A sum with a partition form and no cut network on n elements."""
    rng = random.Random(3)
    edges = [(rng.randrange(5), rng.randrange(5)) for _ in range(n)]
    return SumPoly([ScaledRankPoly(GraphicMatroid(5, edges), 2), ModularPoly([1] * n)])


def cut_network(n=8):
    """A capped, contracted coverage polymatroid on n elements: a partition
    form with no copies."""
    rng = random.Random(5)
    cov = CoveragePoly([rng.getrandbits(4) for _ in range(n)], [1, 2, 1, 2])
    return MarginalPoly(CappedPoly(cov, [rng.choice([None, 1, 2]) for _ in range(n)]),
                        1 << n - 1)


@pytest.mark.parametrize("make", [cut_network, partition_sum])
def test_member_takes_the_partition_path_from_its_support_threshold(make, monkeypatch):
    p = make()
    called = []

    def spy(form, x):
        # only p's own counts: cut_network's capped values count its inner
        # coverage part
        if form == p.partition_form:
            called.append(x)

    spy_partition_solves(monkeypatch, spy)
    k = polymatroids.MEMBER_SUPPORT
    # entries of 2: partition_sum's unit-weight modular part carries one
    # unit of each element, so the copies are asked for the second
    small = tuple([2] * (k - 1) + [0] * (p.n - k + 1))
    large = tuple([2] * k + [0] * (p.n - k))
    assert member(p, small) == sfm_member(p, small)
    assert called == []
    expect = sfm_member(p, large)
    before = stats.snapshot()
    assert member(p, large) == expect
    queries = stats.delta(before)
    assert called == [large]
    assert queries["poly_value"] == 1
    assert (queries["matroid_rank"] > 0) == bool(p.partition_form[0])


def test_a_partition_memo_hit_still_obeys_the_cap():
    """The cap binds the path, not the memo: the vector is counted by
    matroid partition under any cap, so its hit under cap 0 answers as its
    miss did."""
    p = partition_sum()
    x = (1,) * 8
    assert member(p, x) == sfm_member(p, x)
    assert member(p, x, Caps(sfm_ground=0)) == sfm_member(p, x)


def test_a_count_that_enumerates_raises_on_a_miss_and_on_a_hit():
    """A box cap over a scaled-rank part has no partition form, so its
    count enumerates the subsets of the support, and 25 > 24 is refused
    whether or not the answer is kept."""
    p = CappedPoly(ScaledRankPoly(UniformMatroid(25, 5), 2), [1] * 25)
    assert p.partition_form is None
    message = "^SFM ground set of size 25 exceeds cap 24$"
    with pytest.raises(SizeCapError, match=message):
        member(p, [1] * 25)
    p._member_memo[(1,) * 25] = False
    with pytest.raises(SizeCapError, match=message):
        member(p, [1] * 25)


def test_a_basis_of_thirty_players_is_counted_without_the_cap():
    """Each step of the greedy extension is one flow on a support of up to
    30 elements, which the ground cap (24) does not bound."""
    p = ModularPoly([1] * 30)
    assert greedy_basis_above(p, (0,) * 30) == (1,) * 30
    assert is_basis(p, (1,) * 30)


@pytest.mark.parametrize("seed", range(20))
def test_counts_by_partition_ignore_the_ground_cap(seed):
    """Under sfm_ground = 0, member, member_set and headroom answer as
    under the default caps wherever the count takes matroid partition
    (integer vectors with MEMBER_SUPPORT or more nonzero entries), and
    raise SizeCapError wherever it would enumerate a nonempty support."""
    zero, k = Caps(sfm_ground=0), polymatroids.MEMBER_SUPPORT
    rng = random.Random(seed)
    for p in (network_chain(seed)[1], scaled_rank_sum(seed)):
        if p.n > 7:
            continue
        assert p.partition_form is not None
        for x in partition_probes(rng, p):
            want = sfm_member(p, x)
            supp = vec_support(x)
            if size(supp) >= k:
                assert member(p, x, zero) == want
            elif supp:
                with pytest.raises(SizeCapError):
                    member(p, x, zero)
            if len(set(x) - {0}) == 1 and size(supp) >= k:
                assert member_set(p, supp, max(x), zero) == want
            if not want:
                continue
            for e in range(p.n):
                limit = p.value(1 << e) - x[e]
                raised = supp | (1 << e if limit else 0)
                if size(raised) >= k:
                    assert headroom(p, x, e, limit, zero) == brute_slack(p, x, e)
                elif raised:
                    with pytest.raises(SizeCapError):
                        headroom(p, x, e, limit, zero)


def test_all_rank_zero_core_membership_work_is_bounded(monkeypatch):
    """A count of the work, not of time: the core whose matroid has rank 0
    against the u-resources (two scaled-rank transversal parts) of one fixed
    12-player santa-matroid draw. solve_cover decides that b·1 lies in P;
    subset enumeration did it by one sfm_min over all 12 elements (4,096
    subsets), the partition path asks no sfm_min over more than 6."""
    inst = gen_random("santa-matroid", 5, m=12, n=4, u=1, w=3)
    u_sum = SumPoly([it.polymatroid for it in inst.resources if it.value == 1])
    assert u_sum.network is None and u_sum.partition_form is not None
    domains = []
    real = polymatroids.sfm_min

    def counted(fn, n, caps=Caps(), restrict=None):
        domains.append(size(full_mask(n) if restrict is None else restrict))
        return real(fn, n, caps, restrict)

    monkeypatch.setattr(polymatroids, "sfm_min", counted)
    res = solve_cover(CoreCoverInstance(UniformMatroid(12, 0), u_sum, 1))
    assert res.feasible and res.y == (1,) * 12
    assert max(domains, default=0) <= 6


# ---------------------------------------------------------------------------
# The count behind membership and saturation


@pytest.mark.parametrize("seed", range(40))
def test_count_is_the_capped_value_of_the_ground_set(seed):
    """count(p, x) = max y(E) over y <= x in P = min_S f(S) + x(E \\ S), on
    cut networks and on sums with matroid copies: one vector of each
    support size (so on both sides of MEMBER_SUPPORT), each with an entry
    above its singleton value."""
    rng = random.Random(seed)
    net = network_chain(seed)[1]
    for p, ref in ((net, chain_reference(net)), (scaled_rank_sum(seed), None)):
        ref = ref or p
        top = [ref.value(1 << e) for e in range(p.n)]
        for k in range(p.n + 1):
            supp = rng.sample(range(p.n), k)
            x = [0] * p.n
            for e in supp:
                x[e] = rng.randint(1, top[e] + 2)
            if supp:
                x[supp[0]] = top[supp[0]] + 1
            assert count(p, x) == brute_capped(ref, x, full_mask(p.n))


@pytest.mark.parametrize("seed", range(40))
def test_slack_on_sums_with_scaled_rank_parts(seed):
    p = scaled_rank_sum(seed)
    for x in filter(lambda x: sfm_member(p, x), partition_probes(random.Random(seed), p)):
        for e in range(p.n):
            assert slack(p, x, e) == brute_slack(p, x, e)


def test_slack_is_zero_where_the_singleton_value_is():
    """Two loops of a graphic part and a zero modular weight: f({0}) =
    f({3}) = 0, so the raised vector drops those elements from its
    support. Every member with entries up to 2, every element."""
    loopy = GraphicMatroid(3, [(0, 0), (0, 1), (1, 2), (1, 1), (2, 0)])
    p = SumPoly([ScaledRankPoly(loopy, 2), ScaledRankPoly(UniformMatroid(5, 1), 0),
                 ModularPoly([0, 1, 0, 0, 1])])
    assert p.network is None and p.partition_form is not None
    assert [p.value(1 << e) for e in range(5)] == [0, 3, 2, 0, 3]
    members = [x for x in product(range(3), repeat=5) if sfm_member(p, x)]
    assert len(members) > 10
    for x in members:
        for e in range(5):
            assert slack(p, x, e) == brute_slack(p, x, e)


def test_greedy_basis_on_a_partition_form_is_query_bounded():
    """A count of the work, not of time: from zero on the 12-element u-part
    sum of one fixed santa-matroid draw, each saturation slack is one count
    by matroid partition, where enumerating every S ∋ e asked 32,770 value
    and 8,192 rank queries."""
    inst = gen_random("santa-matroid", 5, m=12, n=4, u=1, w=3)
    u_sum = SumPoly([it.polymatroid for it in inst.resources if it.value == 1])
    assert u_sum.network is None and u_sum.partition_form is not None
    before = stats.snapshot()
    y = greedy_basis_above(u_sum, (0,) * 12)
    queries = stats.delta(before)
    assert y == (3, 3, 3, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert queries["poly_value"] <= 1000 and queries["matroid_rank"] <= 1000
    assert is_basis(u_sum, y)


def threshold_forms(seed):
    """A cut network (network_chain) and two forms without one (scaled rank,
    explicit table), on at most 6 elements."""
    rng, net = network_chain(seed)
    n = rng.randint(1, 6)
    rank = ScaledRankPoly(random_matroid(rng, n), rng.randint(1, 3))
    table = network_chain(seed + 1000)[1]
    if table.n > 6:
        table = rank
    explicit = ExplicitPoly(table.n, [table.value(s) for s in range(1 << table.n)])
    return [p for p in (net, rank, explicit) if p.n <= 6]


@pytest.mark.parametrize("seed", range(24))
def test_marginal_reaches_is_the_capped_marginal_threshold(seed):
    for p in threshold_forms(seed):
        top = max(p.value(1 << e) for e in range(p.n)) + 1
        full = full_mask(p.n)
        # one-element Y (inside and outside X and the contracted set) and two
        # larger ones, which take the capped-value path
        ys = [1 << i for i in range(p.n)] + [full, full & 0b101]
        for x in range(1 << p.n):
            for h in range(top + 1):
                for y in ys:
                    exact = capped_marginal(p, y, h, x)
                    # with the capped values memoised, both ask alike
                    before = stats.snapshot()
                    capped_marginal(p, y, h, x)
                    asked, before = stats.delta(before), stats.snapshot()
                    assert marginal_reaches(p, y, h, x) == (exact >= h), (y, h, x)
                    assert stats.delta(before) == asked


# ---------------------------------------------------------------------------
# CutNetwork.reaches: bounds first, a search only where they do not decide


class ReachesSpy:
    """Which way each threshold question on a cut network went: "no flow"
    (answered without looking up a kept flow), "sink room" (a kept flow
    looked up, no copy of it searched), or "search" (a supply raised on a
    copy of the kept flow). Copies that derive a missing kept flow are made
    before the lookup returns, so they are not counted as the search."""

    def __init__(self, monkeypatch):
        self.kept, self.searched = None, False
        real_residual, real_copy = polymatroids.CutNetwork._residual, ResidualFlow.copy
        spy = self

        def residual(net, h, off):
            spy.kept = real_residual(net, h, off)
            return spy.kept

        def copy(flow):
            spy.searched |= flow is spy.kept
            return real_copy(flow)

        monkeypatch.setattr(polymatroids.CutNetwork, "_residual", residual)
        monkeypatch.setattr(ResidualFlow, "copy", copy)

    def ask(self, p, i, h, mask):
        self.kept, self.searched = None, False
        answer = counted_answer(marginal_reaches, p, 1 << i, h, mask)
        return answer, ("search" if self.searched else
                        "no flow" if self.kept is None else "sink room")


def test_reaches_decides_as_the_full_marginal(monkeypatch):
    """On plain, capped, set-contracted and summed cut networks
    (network_chain), h from 0 to 4: marginal_reaches answers as the full
    raise of capped_marginal does, on a polymatroid of its own, with the
    same two value queries. An element in the network's base, or at h = 0,
    and one whose reach is below h look up no flow; free sink room
    answers True with no search; every branch is taken."""
    spy = ReachesSpy(monkeypatch)
    taken = set()
    for seed in range(40):
        rng, p = network_chain(seed)
        fresh, net = network_chain(seed)[1], p.network
        for h in range(5):
            for mask in {rng.getrandbits(p.n) for _ in range(10)}:
                for i in range(p.n):
                    (answer, asked), branch = spy.ask(p, i, h, mask)
                    exact = counted_answer(capped_marginal, fresh, 1 << i, h, mask)
                    assert answer == (exact[0] >= h) and asked == exact[1], (seed, i, h, mask)
                    if (mask >> i) & 1:
                        continue   # no element above the mask: two capped values
                    assert asked["poly_value"] == 2
                    if (net.base >> i) & 1 or h == 0:
                        assert branch == "no flow" and answer == (h == 0)
                        continue
                    if net._left[i] < h:
                        assert branch == "no flow" and not answer
                        taken.add("below reach")
                    else:
                        assert branch != "no flow"
                        assert answer or branch == "search"
                        taken.add(branch)
    assert taken == {"below reach", "sink room", "search"}


def test_uniform_counts_come_off_kept_flows():
    """A vector whose nonzero entries off the network's base all equal one
    h is counted off the kept flow of its h-capped support, the flow the
    threshold questions keep; others off a flow solved for their supply.
    Both against a scratch max-flow and against sfm_min on the
    definitions, with entries on the base (loops) drawn at random."""
    seen = set()
    for seed in range(40):
        rng, p = network_chain(seed)
        net, ref = p.network, chain_reference(p)
        base, left = net.base, net._left
        f_base = max_capacitated_flow([net.covers[e] for e in bits(base)],
                                      [left[e] for e in bits(base)], net.weights)
        for h in range(5):
            for _ in range(6):
                supp = rng.getrandbits(p.n)
                x = [h if (supp >> e) & 1 else 0 for e in range(p.n)]
                uniform = rng.random() < 0.7
                for e in bits(supp):
                    if (base >> e) & 1 or not uniform:
                        x[e] = rng.randint(0, 4)
                es = elements(vec_support(x) | base)
                supply = [left[e] if (base >> e) & 1 else min(x[e], left[e]) for e in es]
                want = max_capacitated_flow([net.covers[e] for e in es], supply,
                                            net.weights) - f_base
                assert net.count(x) == want == sfm_count(ref, x), (seed, x)
                off = vec_support(x) & ~base
                if off and len({x[e] for e in bits(off)}) == 1:
                    assert (x[(off & -off).bit_length() - 1], off) in net._residuals
                    seen.add("kept, touching the base" if vec_support(x) & base else "kept")
                elif off:
                    seen.add("solved")
    assert seen == {"kept", "kept, touching the base", "solved"}


def test_a_count_on_an_empty_base_builds_one_flow(monkeypatch):
    """F(∅) = 0 needs no flow: on a network with an empty base, a count off
    the kept flow of a uniform vector and a count of a vector that is not
    uniform each build one ResidualFlow. A contracted network builds F(base)
    once, with its first count."""
    built = []
    real = ResidualFlow.__init__

    def counting(self, *args):
        built.append(args[1])
        real(self, *args)

    monkeypatch.setattr(ResidualFlow, "__init__", counting)
    p = CoveragePoly([0b0011, 0b0110, 0b1100], [1, 2, 1, 1])
    for x, want in (([2, 2, 0], 4), ([1, 2, 0], 3)):
        net = CoveragePoly(p.covers, p.item_weights).network
        assert net.base == 0
        built.clear()
        assert net.count(x) == want
        assert len(built) == 1
    contracted = p.network.contracted(0b001)
    built.clear()
    assert contracted.count([0, 2, 0]) == 1 and contracted.count([0, 1, 2]) == 2
    assert len(built) == 3 and built.count([3, 0, 0]) == 1


def flow_state(res):
    return res.left_res[:], res.right_res[:], res.flow[:], res.holders[:], res.total


@pytest.mark.parametrize("seed", range(40))
def test_counts_one_unit_away_come_off_kept_flows(seed):
    """Walks of ±1-unit steps, elements taken in a shuffled order, on the
    cut network of a plain polymatroid and of a capped and a contracted
    form of it. Every count equals a max flow solved from scratch and the
    sfm_min count on the definitions, and a vector uniform off the base
    leaves its flow kept. All kept flows of the three networks are built on
    one numbering, and none changes after it is kept (a derived flow is a
    copy)."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    plain = network_part(rng, n)
    forms = [plain, CappedPoly(plain, [rng.choice([None, 0, 1, 2]) for _ in range(n)]),
             MarginalPoly(plain, rng.getrandbits(n) & ~1)]
    numbering = plain.network._numbering
    assert all(p.network._numbering is numbering for p in forms)
    for p in forms:
        net, ref = p.network, chain_reference(p)
        base, left = net.base, net._left
        f_base = max_capacitated_flow([net.covers[e] for e in bits(base)],
                                      [left[e] for e in bits(base)], net.weights)
        order = list(range(n))
        rng.shuffle(order)
        x, kept = [0] * n, {}
        for step in range(60):
            e = order[step % n] if rng.random() < 0.8 else rng.randrange(n)
            up = x[e] <= left[e] and not (x[e] and rng.random() < 0.35)
            x[e] += 1 if up else -1
            es = elements(vec_support(x) | base)
            supply = [left[e] if (base >> e) & 1 else min(x[e], left[e]) for e in es]
            want = max_capacitated_flow([net.covers[e] for e in es], supply, net.weights) - f_base
            assert net.count(x) == want == sfm_count(ref, x), (seed, x)
            off = vec_support(x) & ~base
            if off and len({x[e] for e in bits(off)}) == 1:
                assert (x[(off & -off).bit_length() - 1], off) in net._residuals
            for key, res in net._residuals.items():
                assert res.nbrs is numbering.nbrs and res.arcs is numbering.arcs
                kept.setdefault(key, flow_state(res))
                assert flow_state(res) == kept[key]
