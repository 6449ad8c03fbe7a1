"""Local-search cover solver: gap-instance traces, certificates, invariants,
and cross-checks against exhaustive cover search."""

import dataclasses
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import nested_coverage_core, reference_certificate_report

import matalloc.localsearch as localsearch
from matalloc import stats
from matalloc.bitsets import bits, elements, full_mask, indicator, mask_of, size, submasks
from matalloc.instances import CoreCoverInstance, gen_gap_instance, gen_random, parse_instance
from matalloc.limits import DEFAULT_CAPS, InternalInvariantError, SizeCapError
from matalloc.localsearch import (Certificate, SearchState, augment,
                                  build_addable, compute_blocking, recursion_node_bound,
                                  solve_cover, verify_certificate)
from matalloc.matching import ResidualFlow
from matalloc.matroids import InducedMatroid, MatroidOracle, PartitionMatroid, UniformMatroid
from matalloc.oracle import brute_max_cover_b
from matalloc.polymatroids import (CappedPoly, CoveragePoly, ExplicitPoly, MarginalPoly,
                                   ModularPoly, PolymatroidOracle, ScaledRankPoly, SumPoly, member,
                                   member_set)

EPS = Fraction(1, 10)


class TestGapTraces:
    def test_augment_failure_trace(self):
        # ground {0,1}: rank table r = |X| except r(E) = 1; f = counting
        state = SearchState(ground=0b11, matroid=UniformMatroid(2, 1),
                            poly=ModularPoly([1, 1]), b=2, eps=EPS,
                            I_M=0b01, I_P=0, B0=0b10, order=(1,))
        addable = build_addable(state)
        assert addable.a == 0
        assert addable.c_rest == 0b01  # C = B0 ∪ {0} with B0 kept aside
        assert compute_blocking(state, addable.a, 0) == 0
        res = augment(state)
        assert not res.success
        assert res.certificate.z2 == 0 and res.certificate.z1 == 0b01
        report = verify_certificate(res.certificate, state.matroid, state.poly,
                                    exhaustive=True)
        assert report["ok"] and report["exhaustive_sound"]

    def test_trivial_case_immediate_success(self):
        state = SearchState(ground=0b1, matroid=UniformMatroid(1, 1),
                            poly=ModularPoly([1]), b=1, eps=EPS,
                            I_M=0, I_P=0, B0=0b1, order=(0,))
        res = augment(state)
        assert res.success and res.I_M == 0b1 and res.nodes == 1

    def test_solve_gap_b1_succeeds(self):
        res = solve_cover(gen_gap_instance(2, b=1), EPS)
        assert res.feasible
        assert size(res.I_M) == 1
        covered = [e for e in range(2) if res.y[e] >= 1 or (res.I_M >> e) & 1]
        assert covered == [0, 1]

    def test_solve_gap_b2_infeasible_with_certificate(self):
        res = solve_cover(gen_gap_instance(2, b=2), EPS)
        assert not res.feasible
        assert res.certificates
        rec = res.certificates[0]
        assert rec.certificate.z2 == 0
        rep = verify_certificate(rec.certificate, rec.matroid, rec.poly, exhaustive=True)
        assert rep["ok"] and rep["exhaustive_sound"]

    def test_modular_abundance(self):
        inst = CoreCoverInstance(UniformMatroid(3, 1), ModularPoly([2, 2, 2]), b=2)
        res = solve_cover(inst, EPS)
        assert res.feasible
        for e in range(3):
            assert (res.I_M >> e) & 1 or res.y[e] >= 2


class TestCertificates:
    def test_empty_certificate_fails_property_one(self):
        # with r(B0) large, Z1 = Z2 = empty cannot shield B0
        cert = Certificate(z1=0, z2=0, b=1, eps=EPS, ground=0b11, b0=0b01)
        rep = verify_certificate(cert, UniformMatroid(2, 2), ModularPoly([1, 1]))
        assert not rep["p1_rank_shields_b0"] and not rep["ok"]

    def test_gap_miniature_certificate(self):
        # Z2 = empty, Z1 = E - B0 rules out covers at 3b on the gap instance
        for m in (2, 3, 4):
            inst = gen_gap_instance(m)
            b0 = 1 << (m - 1)
            cert = Certificate(z1=full_mask(m) ^ b0, z2=0, b=1, eps=EPS,
                               ground=full_mask(m), b0=b0)
            rep = verify_certificate(cert, inst.matroid, inst.polymatroid, exhaustive=True)
            assert rep["ok"] and rep["exhaustive_sound"]
            assert brute_max_cover_b(inst.matroid, inst.polymatroid) == 1  # < 3b exactly

    def test_excluded_multiple_formula(self):
        # alpha = 2 + ceil(2(1 + 2eps)/(1 - 6eps)): at eps = 1/10 that is
        # 2 + ceil(2.4/0.4) = 2 + 6, at eps = 1/9 it is 2 + ceil(22/3) = 2 + 8
        for eps, alpha in ((Fraction(1, 8), 12), (Fraction(1, 9), 10),
                           (Fraction(1, 10), 8), (Fraction(1, 16), 6)):
            cert = Certificate(z1=0b01, z2=0, b=1, eps=eps, ground=0b11, b0=0b10)
            rep = verify_certificate(cert, UniformMatroid(2, 1), ModularPoly([1, 1]))
            assert rep["excluded_multiple"] == alpha

    @pytest.mark.parametrize("eps", [Fraction(1, 6), Fraction(1, 5), Fraction(0),
                                     Fraction(-1, 10), 0.2])
    def test_an_eps_outside_the_range_is_refused(self, eps):
        # 1/6 once divided by zero and 1/5 once excluded the multiple -12
        cert = Certificate(z1=0b01, z2=0, b=1, eps=eps, ground=0b11, b0=0b10)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1/8\]$"):
            verify_certificate(cert, UniformMatroid(2, 1), ModularPoly([1, 1]))

    @pytest.mark.parametrize("b", [0, -1, True, 1.5, Fraction(2)])
    def test_a_level_that_is_no_positive_int_is_refused(self, b):
        # b = 0 once returned a report
        cert = Certificate(z1=0b01, z2=0, b=b, eps=EPS, ground=0b11, b0=0b10)
        with pytest.raises(ValueError, match="^cover level b must be a positive integer$"):
            verify_certificate(cert, UniformMatroid(2, 1), ModularPoly([1, 1]))

    def test_a_float_eps_is_read_exactly(self):
        # 2eps·|B0| is 1 at eps = 1/10 and |B0| = 5; the float 0.1 lies just
        # above 1/10, so exactly it shields B0, and in float arithmetic it would not
        cert = Certificate(z1=0, z2=0, b=1, eps=0.1, ground=full_mask(6), b0=0b11111)
        matroid, poly = UniformMatroid(6, 1), ModularPoly([1] * 6)
        assert not 1 < 2 * 0.1 * 5
        rep = verify_certificate(cert, matroid, poly)
        assert rep["p1_rank_shields_b0"]
        assert rep == reference_certificate_report(cert, matroid, poly)
        exact = dataclasses.replace(cert, eps=Fraction(1, 10))
        assert not verify_certificate(exact, matroid, poly)["p1_rank_shields_b0"]


class TestDriver:
    def test_eps_range(self):
        with pytest.raises(ValueError):
            solve_cover(gen_gap_instance(2), Fraction(1, 4))
        with pytest.raises(ValueError):
            solve_cover(gen_gap_instance(2), 0)

    @pytest.mark.parametrize("b", [0, -1, True, 1.5, 2.0, Fraction(2), Fraction(3, 2)])
    def test_the_cover_level_is_a_positive_int(self, b):
        # a bool once passed as level 1; a float failed deep in the search
        inst = CoreCoverInstance(UniformMatroid(2, 1), ModularPoly([2, 2]), b=b)
        with pytest.raises(ValueError, match="^cover level b must be a positive integer$"):
            solve_cover(inst, EPS)

    def test_initial_infeasibility(self):
        # all elements rank zero but the polymatroid cannot carry them
        inst = CoreCoverInstance(UniformMatroid(2, 0), ModularPoly([1, 0]), b=1)
        res = solve_cover(inst, EPS)
        assert not res.feasible and "optimum is below" in res.diagnostics

    def test_restart_budget_respected(self):
        for seed in range(20):
            inst = gen_random("core-cover", seed, m=5)
            res = solve_cover(inst, EPS)
            assert res.restarts <= 5

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_cover_validity_and_certificates(self, seed):
        rng = random.Random(seed)
        inst = gen_random("core-cover", seed, m=rng.randint(2, 7))
        inst.b = rng.randint(1, 3)
        res = solve_cover(inst, EPS)
        n = inst.matroid.n
        if res.feasible:
            assert inst.matroid.is_independent(res.I_M)
            assert member(inst.polymatroid, res.y)
            for e in range(n):
                assert (res.I_M >> e) & 1 or res.y[e] >= inst.b
        for rec in res.certificates:
            rep = verify_certificate(rec.certificate, rec.matroid, rec.poly,
                                     exhaustive=n <= 8)
            assert rep["ok"], rep
            assert rep["exhaustive_sound"] is not False

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_never_fails_with_room_to_spare(self, seed):
        """If a cover exists at 8b, the solver must succeed at b (certificate
        soundness makes every failure a proof that no 8b cover exists)."""
        rng = random.Random(seed)
        inst = gen_random("core-cover", seed, m=rng.randint(2, 6))
        opt = brute_max_cover_b(inst.matroid, inst.polymatroid)
        if opt is math.inf:
            opt = 8
        if opt < 8:
            return
        inst.b = int(opt) // 8
        if inst.b < 1:
            return
        res = solve_cover(inst, EPS)
        assert res.feasible


def test_recursion_bound_monotone():
    assert recursion_node_bound(1, EPS) == 2
    assert recursion_node_bound(10, EPS) >= recursion_node_bound(5, EPS)


@pytest.mark.parametrize("eps", [Fraction(1, 8), Fraction(1, 10), Fraction(1, 20),
                                 Fraction(3, 31)], ids=["1/8", "1/10", "1/20", "3/31"])
def test_recursion_bound_matches_its_fraction_definition(eps):
    """2^ell with ell the least ell where (1/(1 - eps^2))^ell reaches n."""
    for n in range(66):
        ell, reach = 0, Fraction(1)
        while n > 1 and reach < n:
            reach /= 1 - eps * eps
            ell += 1
        assert recursion_node_bound(n, eps) == 2 ** max(ell, 1), n


@pytest.mark.parametrize("eps", [Fraction(1, 8), Fraction(1, 10), Fraction(1, 16),
                                 Fraction(3, 25)], ids=["1/8", "1/10", "1/16", "3/25"])
def test_recursion_bound_matches_the_multiplying_loop(eps):
    """The binary search agrees with the loop it replaced, which multiplied
    q^ell and n * p^ell up one ell at a time, for every n <= 2000. The
    least ell grows with n, so the loop's powers carry from one n to the
    next."""
    q = eps.denominator ** 2
    p = q - eps.numerator ** 2
    ell, q_ell, p_ell = 0, 1, 1
    for n in range(2001):
        while q_ell < n * p_ell:
            ell, q_ell, p_ell = ell + 1, q_ell * q, p_ell * p
        assert recursion_node_bound(n, eps) == 2 ** max(ell, 1), n


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 10), Fraction(1), Fraction(3, 2)])
def test_recursion_bound_refuses_eps_outside_the_open_unit_interval(eps):
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
        recursion_node_bound(13, eps)


class TestRecursionPath:
    """The nested-coverage family forces operation (4): addable elements are
    blocked by rank-zero elements sharing their covering capacity."""

    def test_blocking_forces_recursion(self):
        from conftest import nested_coverage_core

        deep = folded = 0
        for seed in range(30):
            inst = nested_coverage_core(seed)
            for b in (1, 2):
                inst.b = b
                res = solve_cover(inst, EPS)
                deep += res.max_recursion_nodes >= 2
                for rec in res.certificates:
                    folded += rec.certificate.z2 != 0
                    rep = verify_certificate(rec.certificate, rec.matroid, rec.poly,
                                             exhaustive=inst.matroid.n <= 8)
                    assert rep["ok"] and rep["exhaustive_sound"] is not False
        assert deep >= 10 and folded >= 10

    def test_hand_traced_recursion(self):
        # ground {t=0, a=1, p1=2, p2=3}; a covers two items, each p covers one
        # of them; the matroid keeps t and a in one capacity-1 block and makes
        # the p's loops. Covering t must evict a, a is blocked by the p's, and
        # the recursion on them cannot help: the fold yields Z2 = {a, p1, p2}.
        poly = CoveragePoly([0b11100, 0b00011, 0b00001, 0b00010], [1] * 5)
        matroid = PartitionMatroid(4, [0b0011, 0b1100], [1, 0])
        inst = CoreCoverInstance(matroid, poly, b=1)
        res = solve_cover(inst, EPS)
        assert res.feasible  # after zeroing t it lands in the polymatroid side
        assert res.restarts == 1
        assert res.max_recursion_nodes >= 2
        rec = res.certificates[0]
        assert rec.certificate.z2 == 0b1110  # folded: A ∪ B = {a, p1, p2}
        rep = verify_certificate(rec.certificate, rec.matroid, rec.poly, exhaustive=True)
        assert rep["ok"] and rep["exhaustive_sound"]


def test_a_small_target_set_is_loops_below_its_node(monkeypatch):
    """augment's docstring: a node with |B0| <= 1/eps contracts every element
    of I_M on B0's fundamental circuits, so each B0 element is a loop of the
    child's matroid and no child's success meets B0; over seeded draws."""
    from conftest import nested_coverage_core

    real_recurse, real_augment = localsearch.recurse_input, localsearch.augment
    children, successes = {}, [0]   # children keep their states alive: ids stay unique

    def recurse(state, addable, blocked, i_m, i_p):
        child = real_recurse(state, addable, blocked, i_m, i_p)
        if size(state.B0) * state.eps <= 1:
            assert all(child.matroid.rank(1 << e) == 0 for e in bits(state.B0))
            children[id(child)] = (child, state.B0)
        return child

    def spy(state, caps=DEFAULT_CAPS):
        result = real_augment(state, caps)
        if result.success and id(state) in children:
            assert not result.I_M & children[id(state)][1]
            successes[0] += 1
        return result

    monkeypatch.setattr(localsearch, "recurse_input", recurse)
    monkeypatch.setattr(localsearch, "augment", spy)
    insts = [parse_instance(path.read_bytes())
             for path in sorted((Path(__file__).parent / "corpus").glob("*.json"))]
    for seed in range(40):
        insts += [nested_coverage_core(seed)] + [gen_random("core-cover", seed, m=m, b=b)
                                                 for m in (12, 16) for b in (1, 2)]
    for inst in insts:
        for eps in (Fraction(1, 8), EPS):
            solve_cover(inst, eps)
    assert len(children) >= 100 and successes[0] >= 5, (len(children), successes)


# ---------------------------------------------------------------------------
# A child's success returned to its parent: draws kept in tests/corpus/, each
# written by serialize_instance(gen_random("core-cover", seed, m=m, b=b))


@pytest.mark.parametrize("name, opt, feasible", [
    ("core-cover-s8643-m7-b1", 1, True),
    ("core-cover-s8655-m12-b3", 2, False),
    ("core-cover-s8682-m11-b3", 3, True),
])
@pytest.mark.parametrize("eps", [Fraction(1, 8), Fraction(1, 10)], ids=["1/8", "1/10"])
def test_a_child_success_returns_to_its_parent(name, opt, feasible, eps, monkeypatch):
    """A recursive augment call succeeds, so its parent merges the child's
    I_M and I_P, re-checks independence and membership and recomputes the
    blocking set. The outcome agrees with the brute-force optimum."""

    inst = parse_instance((Path(__file__).parent / "corpus" / f"{name}.json").read_bytes())
    assert brute_max_cover_b(inst.matroid, inst.polymatroid) == opt
    real, depth, child_successes = localsearch.augment, [0], []

    def spy(state, caps=DEFAULT_CAPS):
        depth[0] += 1
        try:
            result = real(state, caps)
        finally:
            depth[0] -= 1
        if depth[0] and result.success:
            child_successes.append(result)
        return result

    monkeypatch.setattr(localsearch, "augment", spy)
    res = solve_cover(inst, eps)
    assert child_successes
    assert res.feasible == feasible
    n = inst.matroid.n
    if feasible:
        assert inst.b <= opt and inst.matroid.is_independent(res.I_M)
        assert member(inst.polymatroid, res.y)
        assert all((res.I_M >> e) & 1 or res.y[e] >= inst.b for e in range(n))
    else:
        assert inst.b > opt and res.certificates
    for rec in res.certificates:
        rep = verify_certificate(rec.certificate, rec.matroid, rec.poly, exhaustive=n <= 8)
        assert rep["ok"] and rep["exhaustive_sound"] is not False


def _cover_exists(matroid, poly, b):
    """Some independent I_M with b·|S| <= f(S) for every nonempty S off it,
    by exhaustive search over the sets of non-loops; a candidate is dropped
    at its first violated subset."""
    n = matroid.n
    free = mask_of(e for e in range(n) if matroid.rank(1 << e))
    return any(matroid.is_independent(im)
               and all(poly.value(s) >= b * size(s) for s in submasks(full_mask(n) & ~im) if s)
               for im in submasks(free))


def test_a_child_success_can_cover_its_parents_target(monkeypatch):
    """augment's success right after a child's: the child's I_M covers
    eps²·|B0| of its parent's B0 at once, which needs |B0| > 1/eps (below
    that, B0's elements are loops in the child). The kept instance reaches
    it from solve_cover at eps = 1/8; its elements are
    0 r1, 1 q**, 2 p2, 3 q'2, 4 p1, 5 q'1, 6 q*, 7 a, 8 t, 9-14 p3..p8 and
    15-17 r2..r4 (the last 9 loops), on a graphic matroid with t ∥ a,
    triangle {p1, q'1, q*}, p2 ∥ q'2 and r1 ∥ q**, against a coverage
    polymatroid with b = 1: a covers X (weight 2) and X2 (6), p1 and p2
    cover X, p3..p8 X2, r1, r2 and q'1 Y (2), r3, r4 and q'2 Z (2), q* W
    (2), q** V (2) and t T (9), so t is targeted last.

    Targeted last, t finds a ∈ I_M and p1, p2, r1 in I_P (earlier commits).
    The root's addable set {a} blocks all eight p's, so its child N has
    B0 = {t, p1..p8} (t a loop there); N's first layer {q'2, q'1} is kept,
    its second, {q*}, is discarded (1 < 9/8), and its four r's are blocked;
    N's child G commits q* and q** (A_I = A), which frees p1, so G's
    success covers 1 >= 9/64 of N's B0. The brute-force optimum is 1."""
    inst = parse_instance((Path(__file__).parent / "corpus" / "augment"
                           / "child-covers-parent-target.json").read_bytes())
    eps = Fraction(1, 8)
    assert _cover_exists(inst.matroid, inst.polymatroid, 1)
    assert not _cover_exists(inst.matroid, inst.polymatroid, 2)
    real, stack, taken = localsearch.augment, [[]], []

    def spy(state, caps=DEFAULT_CAPS):
        stack.append([])
        try:
            result = real(state, caps)
        finally:
            children = stack.pop()
        stack[-1].append(result)
        last = children[-1] if children else None
        # a successful child whose I_M covers eps²·|B0| = |B0|/64 of this B0
        if result.success and last and last.success:
            if 64 * size(state.B0 & last.I_M) >= size(state.B0):
                taken.append((elements(state.B0), elements(last.I_M), result.nodes,
                              elements(result.I_M)))
        return result

    monkeypatch.setattr(localsearch, "augment", spy)
    res = solve_cover(inst, eps)
    # N returns its shield {q'2, q'1} and G's I_M, with no second child
    assert taken == [((2, 4, 8, 9, 10, 11, 12, 13, 14), (0, 4), 2, (0, 3, 4, 5))]
    n = inst.matroid.n
    assert res.feasible and inst.matroid.is_independent(res.I_M)
    assert all((res.I_M >> e) & 1 or res.y[e] >= inst.b for e in range(n))
    support = mask_of(e for e in range(n) if res.y[e])
    assert all(sum(res.y[e] for e in bits(s)) <= inst.polymatroid.value(s)
               for s in submasks(support))


# ---------------------------------------------------------------------------
# The invariant checks only observe: with the state and blocking-set checks
# stubbed out, a run gives the same result, field by field


def _coverage_core(seed, n=None):
    """The core-certify benchmark's shape (uniform rank n//3 against
    coverage of density 0.3, weights 1-3), at n 8-10 unless given."""

    rng = random.Random(seed)
    n = n or rng.randint(8, 10)
    covers = [sum(1 << t for t in range(n) if rng.random() < 0.3) for _ in range(n)]
    weights = [rng.randint(1, 3) for _ in range(n)]
    return CoreCoverInstance(UniformMatroid(n, n // 3), CoveragePoly(covers, weights), 1)


def _induced_core(seed):
    rng = random.Random(seed)
    santa = gen_random("santa-matroid", seed, m=rng.randint(5, 7), n=rng.randint(4, 6),
                       u=Fraction(1), w=Fraction(3))
    w_polys = [it.polymatroid for it in santa.resources if it.value == 3]
    u_polys = [it.polymatroid for it in santa.resources if it.value == 1]
    w_polys = w_polys or [ModularPoly([0] * santa.num_players)]
    u_polys = u_polys or [ModularPoly([0] * santa.num_players)]
    return CoreCoverInstance(InducedMatroid(SumPoly(w_polys)), SumPoly(u_polys),
                             rng.choice([3, 5, 8]))


def _comparable(res):
    """Every CoverResult field but oracle_queries; certificate records by value
    (their oracles are rebuilt on every run)."""
    fields = {k: v for k, v in vars(res).items() if k not in ("oracle_queries", "certificates")}
    fields["certificates"] = [(rec.certificate, rec.failed_element) for rec in res.certificates]
    return fields


@pytest.mark.parametrize("make", [
    *(lambda m=m, b=b: gen_gap_instance(m, b) for m in range(2, 6) for b in (1, 2)),
    *(lambda s=s: _coverage_core(s) for s in range(10)),
    *(lambda s=s: _induced_core(s) for s in range(10)),
])
def test_unchecked_run_gives_the_same_result(make, monkeypatch):
    checked = solve_cover(make(), EPS)
    monkeypatch.setattr(localsearch, "_assert_state", lambda *args: None)
    monkeypatch.setattr(localsearch, "_check_blocking_invariants", lambda *args: None)
    unchecked = solve_cover(make(), EPS)
    assert _comparable(unchecked) == _comparable(checked)


# ---------------------------------------------------------------------------
# Kept cover outcomes: one run per (polymatroid, b, eps, caps) on a matroid


@pytest.mark.parametrize("make", [lambda: gen_gap_instance(4, 2), lambda: _coverage_core(5),
                                  lambda: _induced_core(3)])
def test_a_repeated_cover_asks_no_query(make):
    inst = make()
    first = solve_cover(inst, EPS)
    before = stats.snapshot()
    again = solve_cover(CoreCoverInstance(inst.matroid, inst.polymatroid, inst.b), EPS)
    assert stats.total(stats.delta(before)) == 0
    assert again is first and again.oracle_queries > 0


@pytest.mark.parametrize("b, eps, caps", [
    (2, EPS, DEFAULT_CAPS),
    (1, Fraction(1, 9), DEFAULT_CAPS),
    (1, EPS, DEFAULT_CAPS.override(sfm_ground=DEFAULT_CAPS.sfm_ground - 1))])
def test_another_level_eps_or_caps_runs_again(b, eps, caps):
    inst = _coverage_core(2)
    first = solve_cover(inst, EPS)
    inst.b = b
    before = stats.snapshot()
    other = solve_cover(inst, eps, caps)
    assert other is not first
    assert stats.total(stats.delta(before)) == other.oracle_queries > 0
    fresh = _coverage_core(2)
    fresh.b = b
    assert _comparable(other) == _comparable(solve_cover(fresh, eps, caps))
    inst.b = 1
    assert solve_cover(inst, EPS) is first


def test_a_run_that_raises_keeps_nothing():
    n = 4
    inst = CoreCoverInstance(UniformMatroid(n, 1),
                             ExplicitPoly(n, [2 * size(s) for s in range(1 << n)]), 1)
    small = DEFAULT_CAPS.override(sfm_ground=1)
    with pytest.raises(SizeCapError):
        solve_cover(inst, EPS, small)
    assert not inst.matroid._covers
    with pytest.raises(SizeCapError):
        solve_cover(inst, EPS, small)
    assert solve_cover(inst, EPS).feasible
    with pytest.raises(SizeCapError):
        solve_cover(inst, EPS, small)


# ---------------------------------------------------------------------------
# The search asks thresholds: "f(i | h·X) >= h?" raises i's supply by at most h


def test_threshold_questions_raise_a_supply_by_at_most_h(monkeypatch):
    """Every threshold question, asked one at a time or as a leave-one-out
    batch, raises a supply by at most its h."""

    asked: list[int] = []            # h of the threshold question in progress
    raises: list[tuple[int, int]] = []
    beyond = 0                       # questions where a full raise would exceed h
    reaches, batch = localsearch.marginal_reaches, localsearch.leave_one_out_reaches
    raise_supply = ResidualFlow.raise_supply

    def asking(h, answer):
        asked.append(h)
        try:
            return answer()
        finally:
            asked.pop()

    def spy_reaches(p, add, h, base):
        nonlocal beyond
        i = add.bit_length() - 1
        beyond += not (base >> i) & 1 and p.network._left[i] > h
        return asking(h, lambda: reaches(p, add, h, base))

    def spy_batch(p, among, h, base):
        # each element of among is a question above base − i, which misses i
        nonlocal beyond
        beyond += sum(p.network._left[i] > h for i in bits(among))
        return asking(h, lambda: batch(p, among, h, base))

    def spy_raise(self, u, d):
        if asked:
            raises.append((d, asked[-1]))
        return raise_supply(self, u, d)

    monkeypatch.setattr(localsearch, "marginal_reaches", spy_reaches)
    monkeypatch.setattr(localsearch, "leave_one_out_reaches", spy_batch)
    monkeypatch.setattr(ResidualFlow, "raise_supply", spy_raise)
    inst = _coverage_core(5)
    inst.b = 3
    res = solve_cover(inst, EPS)
    assert res.feasible and res.restarts == 7 and res.total_recursion_nodes == 31
    assert beyond and raises
    assert all(d <= h for d, h in raises)
    # the count of the whole-marginal search, whose queries the threshold keeps
    assert res.oracle_queries == 420


@pytest.mark.parametrize("seed, n", [*((s, None) for s in range(10)), (10, 12), (11, 13)])
def test_batched_leave_one_out_solves_as_one_question_at_a_time(seed, n, monkeypatch):
    """With the leave-one-out questions asked one marginal_reaches at a
    time, solve_cover returns the same CoverResult, oracle_queries included,
    at every b up to the first infeasible one."""

    def sweep():
        inst, out = _coverage_core(seed, n), []
        for b in range(1, inst.matroid.n + 2):
            inst.b = b
            res = solve_cover(inst, EPS)
            out.append({**_comparable(res), "oracle_queries": res.oracle_queries})
            if not res.feasible:
                return out
        raise AssertionError("no infeasible level")

    def one_at_a_time(p, among, h, base):
        return sum(1 << i for i in bits(among)
                   if localsearch.marginal_reaches(p, 1 << i, h, base & ~(1 << i)))

    batched = sweep()
    assert batched[-1]["certificates"]
    monkeypatch.setattr(localsearch, "leave_one_out_reaches", one_at_a_time)
    assert sweep() == batched


# ---------------------------------------------------------------------------
# The cover never loses an element: succeed's check is a subset test


def test_a_success_that_drops_a_covered_element_raises(monkeypatch):
    """A success that drops covered element 0 and adds element 2 raises,
    although the new cover {1, 2} (mask 6) is above the old {0, 1} (mask 3)
    as an integer."""
    real = localsearch.matroid_add_greedy
    monkeypatch.setattr(localsearch, "matroid_add_greedy",
                        lambda m, start, order: real(m, start, order) & ~(start & -start))
    state = SearchState(ground=0b111, matroid=UniformMatroid(3, 3), poly=ModularPoly([0] * 3),
                        b=1, eps=EPS, I_M=0b011, I_P=0, B0=0b100, order=(2,))
    with pytest.raises(InternalInvariantError, match="cover lost previously covered elements"):
        augment(state)


# ---------------------------------------------------------------------------
# One pass per scan: the rescanning scans, kept here as they were, agree with
# the library on every augment state of a sweep


def _rescanning_build_addable(state, caps=DEFAULT_CAPS):
    """build_addable rescanning its candidates from the lowest index after
    every addition to a layer."""
    m, p, b = state.matroid, state.poly, state.b
    num, den = state.eps.numerator, state.eps.denominator
    n_b0 = size(state.B0)
    a = 0
    while True:
        layer = 0
        while True:
            progressed = False
            pool = state.I_M & ~a & ~layer
            for i in bits(pool):
                bit = 1 << i
                rest = (state.B0 | (state.I_M & ~layer)) & ~bit
                if m.rank_marginal(bit, rest) != 0:
                    continue
                if localsearch.marginal_reaches(p, bit, 2 * b, a | layer):
                    layer |= bit
                    progressed = True
                    break
            if not progressed:
                break
        if size(layer) * den < num * n_b0:
            break
        a |= layer
    c_rest = a
    for i in bits(state.I_M & ~a):
        if not localsearch.marginal_reaches(p, 1 << i, 2 * b, a):
            c_rest |= 1 << i
    return localsearch.AddableSets(a, c_rest)


def _rescanning_grow_immediate(state, a, a_i, i_p):
    """augment's step (1) rescanning A \\ A_I after every addition."""
    while True:
        for i in bits(a & ~a_i):
            if localsearch.marginal_reaches(state.poly, 1 << i, state.b, i_p | a_i):
                a_i |= 1 << i
                break
        else:
            return a_i


def _augment_trail(make, monkeypatch):
    """Every build_addable's (a, c_rest) and every augment result, in call
    order, of solve_cover at each b up to the first infeasible one (at most
    n + 1), with the scans as the library has them at call time."""
    build, real_augment = localsearch.build_addable, localsearch.augment
    trail: list = []

    def spy_build(state, caps=DEFAULT_CAPS):
        addable = build(state, caps)
        trail.append((addable.a, addable.c_rest))
        return addable

    def spy_augment(state, caps=DEFAULT_CAPS):
        result = real_augment(state, caps)
        trail.append(result)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(localsearch, "build_addable", spy_build)
        patch.setattr(localsearch, "augment", spy_augment)
        inst = make()
        for b in range(1, inst.matroid.n + 2):
            inst.b = b
            res = solve_cover(inst, EPS)
            trail.append(_comparable(res))
            if not res.feasible:
                break
    return trail


def test_one_pass_scans_give_what_rescans_give(monkeypatch):
    """On the core-certify shape (coverage cores, n 8-13), the core-induced
    shape (induced cores) and nested coverage cores, whose blocking forces
    recursion. The trails are not vacuous: layers of two or more elements
    and recursion both occur."""
    from conftest import nested_coverage_core

    makes = [*(lambda s=s: _coverage_core(s) for s in range(10)),
             lambda: _coverage_core(10, 12), lambda: _coverage_core(11, 13),
             *(lambda s=s: _induced_core(s) for s in range(10)),
             *(lambda s=s: nested_coverage_core(s) for s in range(10))]
    one_pass = [_augment_trail(make, monkeypatch) for make in makes]
    steps = [t for trail in one_pass for t in trail]
    assert sum(isinstance(t, tuple) and size(t[0]) >= 2 for t in steps) >= 10
    assert any(isinstance(t, localsearch.AugmentResult) and t.nodes > 1 for t in steps)
    monkeypatch.setattr(localsearch, "build_addable", _rescanning_build_addable)
    monkeypatch.setattr(localsearch, "grow_immediate", _rescanning_grow_immediate)
    assert [_augment_trail(make, monkeypatch) for make in makes] == one_pass


# ---------------------------------------------------------------------------
# Asked once per solve: the base matroid's singleton ranks and the values of
# the target order


def test_loops_and_order_are_asked_once_per_solve(monkeypatch):
    """solve_cover itself asks each singleton rank and each singleton value
    once, however many rounds it restarts."""
    inst = _coverage_core(5)
    inst.b = 3
    code = localsearch.solve_cover.__code__
    asked: list = []
    rank, value = MatroidOracle.rank, PolymatroidOracle.value

    def by_solve_cover():
        # the caller of the spied method, or of the sort key that called it
        caller = sys._getframe(2)
        return caller.f_code is code or (caller.f_code.co_name == "<lambda>"
                                         and caller.f_back.f_code is code)

    def spy_rank(self, mask):
        if by_solve_cover():
            asked.append(("rank", mask))
        return rank(self, mask)

    def spy_value(self, mask):
        if by_solve_cover():
            asked.append(("value", mask))
        return value(self, mask)

    monkeypatch.setattr(MatroidOracle, "rank", spy_rank)
    monkeypatch.setattr(PolymatroidOracle, "value", spy_value)
    res = solve_cover(inst, EPS)
    n = inst.matroid.n
    assert res.restarts == 7
    assert sorted(asked) == [(kind, 1 << i) for kind in ("rank", "value") for i in range(n)]


# ---------------------------------------------------------------------------
# Membership of h·1_S keyed by the mask


def _member_set_forms(rng):
    n = 6
    covers = [rng.randrange(1 << 5) for _ in range(n)]
    cov = CoveragePoly(covers, [rng.randint(1, 3) for _ in range(5)])
    mod = ModularPoly([rng.randint(0, 3) for _ in range(n)])
    scaled = ScaledRankPoly(UniformMatroid(n, 2), 2)
    base = rng.randrange(1 << n)
    return [mod, cov, scaled, SumPoly([mod, cov, scaled]),
            MarginalPoly(cov.capped(uniform=2, on=base), base)]


@pytest.mark.parametrize("seed", range(4))
def test_member_set_agrees_with_member(seed):
    rng = random.Random(seed)
    for p in _member_set_forms(rng):
        for _ in range(40):
            mask, h = rng.randrange(1 << p.n), rng.randint(0, 4)
            want = member(p, indicator(mask, p.n, h))
            assert member_set(p, mask, h) == want
            assert member_set(p, mask, h) == want  # the memo hit


@pytest.mark.parametrize("mask, h, caps, error", [
    (1 << 6, 1, DEFAULT_CAPS, ValueError),
    (-1, 1, DEFAULT_CAPS, ValueError),
    (0b11, -1, DEFAULT_CAPS, ValueError),
    (0b11, Fraction(1), DEFAULT_CAPS, ValueError),
    (0b11, True, DEFAULT_CAPS, ValueError),
    (0b111, 1, DEFAULT_CAPS.override(sfm_ground=2), SizeCapError),
])
def test_a_member_set_hit_raises_what_a_miss_raises(mask, h, caps, error):
    """f(S) = |S| as a box cap over a scaled-rank part: no partition form,
    so a count enumerates the subsets of its support and obeys the cap."""
    def poly():
        return CappedPoly(ScaledRankPoly(UniformMatroid(6, 6), 1), [1] * 6)

    missed, kept = poly(), poly()
    with pytest.raises(error) as miss:
        member_set(missed, mask, h, caps)
    kept._member_set_memo[(mask, h)] = True
    if error is SizeCapError:
        assert member_set(kept, mask, h)
    with pytest.raises(error) as hit:
        member_set(kept, mask, h, caps)
    assert str(hit.value) == str(miss.value)


# ---------------------------------------------------------------------------
# verify_certificate decides in ints what the Fraction formulas decide


CERT_EPS = (Fraction(1, 8), Fraction(1, 9), Fraction(1, 10), Fraction(3, 32), Fraction(1, 16))


def _solver_certificates():
    """(certificate, matroid, polymatroid) of seeded solve_cover runs at
    every eps of CERT_EPS: core-certify shapes at levels 1-5, random core
    covers at levels 1-3, and the recursion family at its own level."""
    found = []
    for seed in range(10):
        eps = CERT_EPS[seed % len(CERT_EPS)]
        runs = [(_coverage_core(seed, 12), (1, 2, 3, 4, 5)),
                (gen_random("core-cover", seed, m=6), (1, 2, 3))]
        nested = nested_coverage_core(seed)
        runs.append((nested, (nested.b,)))
        for inst, levels in runs:
            for b in levels:
                inst.b = b
                res = solve_cover(inst, eps)
                found += [(rec.certificate, rec.matroid, rec.poly) for rec in res.certificates]
    return found


def _perturbed(cert, n, rng):
    """cert with a few elements of Z1, Z2 and B0 flipped and another eps."""
    flip = lambda mask: mask ^ sum(1 << i for i in rng.sample(range(n), rng.randint(0, 2)))
    return dataclasses.replace(cert, z1=flip(cert.z1), z2=flip(cert.z2), b0=flip(cert.b0),
                               eps=rng.choice(CERT_EPS))


def _sides(prop, cert, matroid, poly):
    """The two sides of a property's threshold, in Fractions."""
    eps, z1, z2, b0 = cert.eps, cert.z1, cert.z2, cert.b0
    if prop == "p1_rank_shields_b0":
        return Fraction(matroid.rank_marginal(b0, z1)), 2 * eps * size(b0)
    if prop == "p2_rank_deficiency":
        return (Fraction(matroid.rank(z1)),
                size(z1) - (Fraction(1, 2) - 2 * eps) * size(z2) + eps * size(b0))
    good = sum(1 for i in bits(z2)
               if localsearch.capped_marginal(poly, 1 << i, cert.b, z2 & ~(1 << i)) < cert.b)
    return Fraction(good), (1 - eps) * size(z2)


def _boundary_cases():
    """(property, certificate, matroid, polymatroid) whose property holds
    with equality: p1 is strict, so it fails there; p2 and p3 hold."""
    low = lambda k: (1 << k) - 1
    cases = []
    for eps, k in ((Fraction(1, 8), 4), (Fraction(1, 16), 8)):
        # r(B0 | {}) = 1 = 2eps·|B0|
        cases.append(("p1_rank_shields_b0",
                      Certificate(z1=0, z2=0, b=1, eps=eps, ground=low(k + 2), b0=low(k)),
                      UniformMatroid(k + 2, 1), ModularPoly([1] * (k + 2))))
    for eps, n_b0, n_z, rank in ((Fraction(1, 8), 8, 4, 4), (Fraction(1, 10), 10, 10, 8)):
        # r(Z1) = |Z1| - (1/2 - 2eps)·|Z2| + eps·|B0| with Z1 = Z2
        n = n_b0 + n_z
        cases.append(("p2_rank_deficiency",
                      Certificate(z1=low(n) & ~low(n_b0), z2=low(n) & ~low(n_b0), b=1,
                                  eps=eps, ground=low(n), b0=low(n_b0)),
                      UniformMatroid(n, rank), ModularPoly([1] * n)))
    for eps, n_z in ((Fraction(1, 8), 8), (Fraction(1, 16), 16)):
        # all but one element of Z2 add 1 < b = 2 above the rest: good = (1 - eps)·|Z2|
        cases.append(("p3_small_marginals_in_z2",
                      Certificate(z1=low(n_z), z2=low(n_z), b=2, eps=eps,
                                  ground=low(n_z + 1), b0=1 << n_z),
                      UniformMatroid(n_z + 1, n_z + 1), ModularPoly([1] * (n_z - 1) + [2, 1])))
    return cases


@pytest.mark.parametrize("prop, cert, matroid, poly", _boundary_cases())
def test_a_threshold_met_with_equality(prop, cert, matroid, poly):
    lhs, rhs = _sides(prop, cert, matroid, poly)
    assert lhs == rhs
    rep = verify_certificate(cert, matroid, poly)
    assert rep == reference_certificate_report(cert, matroid, poly)
    assert rep[prop] is (prop != "p1_rank_shields_b0")


def test_integer_report_matches_the_fraction_formulas():
    found = _solver_certificates()
    assert len(found) >= 100 and sum(1 for cert, _, _ in found if cert.z2) >= 20
    rng = random.Random(49)
    cases = list(found)
    for cert, matroid, poly in found:
        cases += [(_perturbed(cert, matroid.n, rng), matroid, poly) for _ in range(3)]
    cases += [case[1:] for case in _boundary_cases()]
    assert {cert.eps for cert, _, _ in cases} == set(CERT_EPS)
    outcomes = set()
    for cert, matroid, poly in cases:
        rep = verify_certificate(cert, matroid, poly)
        ref = reference_certificate_report(cert, matroid, poly)
        assert list(rep) == list(ref)
        for key in ref:
            assert rep[key] == ref[key] and type(rep[key]) is type(ref[key]), (key, cert)
        outcomes |= {(key, rep[key]) for key in ref if key.startswith("p")}
    # every property both holds and fails somewhere among the cases
    assert len(outcomes) == 8


def test_the_integer_check_builds_no_fraction(monkeypatch):
    cases = _solver_certificates() + [case[1:] for case in _boundary_cases()]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if "_from_coprime_ints" in vars(Fraction):
        # arithmetic results are built here, not by __new__, from Python 3.12
        from_ints = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(lambda cls, n, d: built.append((n, d)) or from_ints(n, d)))
    for cert, matroid, poly in cases:
        verify_certificate(cert, matroid, poly)
    assert built == []
    # the spy does see what the Fraction formulas build
    reference_certificate_report(*cases[0])
    assert built

