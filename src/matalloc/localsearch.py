"""Local-search solver for the core cover problem.

Given a matroid M, a polymatroid P over the same elements, and b >= 1,
find an independent set I_M and y in P such that every element is in I_M
or has y(i) >= b, or emit a machine-checkable certificate that no cover
exists at value (4 + O(eps)) * b covering a 3*eps fraction of the target
set with the matroid.

The augmentation routine grows a partial cover one target set B0 at a
time by swapping elements between the matroid side and the polymatroid
side: a set A of addable elements (droppable from I_M, absorbable by P at
multiplicity 2b) is built layer by layer, the blocking elements B of I_P
that obstruct the swap are identified, and the routine either commits
enough immediately-addable elements, fails with a certificate, or
recurses on B. All threshold comparisons are exact: with eps = num/den in
(0, 1/8], each eps-threshold is compared as cross-multiplied ints. The
search asks only whether a capped marginal reaches its threshold
(marginal_reaches), and asks the leave-one-out thresholds of the blocking
set and its invariant check as one batch (leave_one_out_reaches);
verify_certificate checks a certificate with exact capped marginals, one
element at a time, as an independent check, decides its thresholds in
ints too, and refuses an eps or b that solve_cover would refuse.

Each scan over candidates (a layer of A, the growth of A_I) is one pass
in index order. A candidate that fails cannot pass later in the same
scan: its rank test asks whether it lies in the span of a set that only
shrinks, and its capped marginal f(i | h·X) is nonincreasing as X grows
(diminishing returns of the polymatroid's vector rank, Fujishige,
Submodular Functions and Optimization, ch. 3; they hold on caps and
contractions too). Within one round of solve_cover covered elements never
leave the cover, so its next target is found by a pointer that only moves
forward.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import stats
from .bitsets import bits, elements, indicator, size
from .instances import CoreCoverInstance
from .limits import Caps, DEFAULT_CAPS, InternalInvariantError
from .matroids import ContractedMatroid, MatroidOracle, ZeroedMatroid, matroid_add_greedy
# member is not called here since member_set asks it; the name stays bound
# because perfbench/test_bench.py checks that its tracer rebinds it here
from .polymatroids import (MarginalPoly, PolymatroidOracle, capped_marginal,  # noqa: F401
                           leave_one_out_reaches, marginal_reaches, member, member_set)
from .oracle import exists_strong_cover


@dataclass
class SearchState:
    """One augmentation problem: disjoint I_M (matroid side), I_P (polymatroid
    side), and target set B0 with priority order over B0 (then over recursion
    additions)."""

    ground: int
    matroid: MatroidOracle
    poly: PolymatroidOracle
    b: int
    eps: Fraction
    I_M: int
    I_P: int
    B0: int
    order: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    """Infeasibility certificate (Z1, Z2) with Z2 ⊆ Z1 ⊆ ground \\ B0.

    Its four properties jointly exclude any cover at value (4+O(eps))b that
    places at least a 3*eps fraction of B0 on the matroid side.
    """

    z1: int
    z2: int
    b: int
    eps: Fraction
    ground: int
    b0: int


@dataclass(frozen=True)
class AugmentResult:
    success: bool
    I_M: int = 0
    I_P: int = 0
    certificate: Certificate | None = None
    nodes: int = 1


@dataclass
class CertificateRecord:
    """A certificate together with the oracles it speaks about."""

    certificate: Certificate
    matroid: MatroidOracle
    poly: PolymatroidOracle
    failed_element: int


@dataclass
class CoverResult:
    feasible: bool
    I_M: int = 0
    y: tuple = ()
    b: int = 0
    certificates: list = field(default_factory=list)
    restarts: int = 0
    zeroed: int = 0
    augment_calls: int = 0
    max_recursion_nodes: int = 0
    total_recursion_nodes: int = 0
    oracle_queries: int = 0
    diagnostics: str = ""


class AddableSets:
    """Addable elements A ⊆ I_M and the shield set C.

    C per its definition contains B0; c_rest = C \\ B0 is what the recursion
    removes and rank arguments contract (B0 must stay in the child ground).
    """

    def __init__(self, a: int, c_rest: int):
        self.a = a
        self.c_rest = c_rest


def _assert_state(state: SearchState, caps: Caps) -> None:
    if state.I_M & state.I_P or state.I_M & state.B0 or state.I_P & state.B0:
        raise InternalInvariantError("I_M, I_P, B0 must be disjoint")
    if (state.I_M | state.I_P | state.B0) != state.ground:
        raise InternalInvariantError("ground must equal I_M ∪ I_P ∪ B0")
    if not state.matroid.is_independent(state.I_M):
        raise InternalInvariantError("I_M must be independent")
    if not member_set(state.poly, state.I_P, state.b, caps):
        raise InternalInvariantError("b·I_P must belong to the polymatroid")


def build_addable(state: SearchState, caps: Caps = DEFAULT_CAPS) -> AddableSets:
    """Layered construction of the addable set A and the shield C.

    A layer collects elements of I_M that are rank-redundant against
    B0 ∪ I_M minus the growing layer and whose marginal above 2b·(A so far)
    is still at least 2b; construction stops when a layer stays below
    eps*|B0| (that last partial layer is discarded).

    A layer is one pass over its candidates in ascending index order. A
    candidate that fails cannot pass later in the same layer, so a rescan
    after each addition finds nothing more: its rank test asks whether it
    lies in the span of rest, which only shrinks as the layer grows, and its
    capped marginal f(i | 2b·(A ∪ layer)) is nonincreasing as the layer
    grows (diminishing returns of the polymatroid's vector rank, which also
    hold on its caps and contractions).
    """
    m, p, b = state.matroid, state.poly, state.b
    num, den = state.eps.numerator, state.eps.denominator
    n_b0 = size(state.B0)
    a = 0
    while True:
        layer = 0
        for i in bits(state.I_M & ~a):
            bit = 1 << i
            rest = (state.B0 | (state.I_M & ~layer)) & ~bit
            if m.rank_marginal(bit, rest) == 0 and marginal_reaches(p, bit, 2 * b, a | layer):
                layer |= bit
        if size(layer) * den < num * n_b0:
            break
        a |= layer
    c_rest = a
    for i in bits(state.I_M & ~a):
        if not marginal_reaches(p, 1 << i, 2 * b, a):
            c_rest |= 1 << i
    return AddableSets(a, c_rest)


def grow_immediate(state: SearchState, a: int, a_i: int, i_p: int) -> int:
    """A_I grown by the elements i of A \\ A_I whose marginal above
    b·(I_P ∪ A_I) reaches b, in one pass in ascending index order: the
    marginal is nonincreasing as A_I grows, so an element that fails cannot
    pass later in the same pass."""
    p, b = state.poly, state.b
    for i in bits(a & ~a_i):
        if marginal_reaches(p, 1 << i, b, i_p | a_i):
            a_i |= 1 << i
    return a_i


def compute_blocking(state: SearchState, a: int, i_p: int) -> int:
    """Blocking elements: i in I_P whose marginal above b·((I_P ∪ A) − i)
    drops below b, asked as one batch (leave_one_out_reaches)."""
    return i_p & ~leave_one_out_reaches(state.poly, i_p, state.b, i_p | a)


def recurse_input(state: SearchState, addable: AddableSets, blocked: int,
                  i_m: int, i_p: int) -> SearchState:
    """Child problem: remove the shield (minus B0) from the ground, contract its
    rank, cap-and-contract b·(A ∪ B) in the polymatroid, and ask for B0 ∪ B
    with the blocking elements at lower priority."""
    c_rest = addable.c_rest
    child_ab = addable.a | blocked
    child = SearchState(
        ground=state.ground & ~c_rest,
        matroid=ContractedMatroid(state.matroid, c_rest),
        poly=MarginalPoly(state.poly.capped(uniform=state.b, on=child_ab), child_ab),
        b=state.b,
        eps=state.eps,
        I_M=i_m & ~c_rest,
        I_P=i_p & ~blocked,
        B0=state.B0 | blocked,
        order=state.order + elements(blocked),
    )
    return child


def _fold_certificate(child_cert: Certificate, state: SearchState,
                      addable: AddableSets, blocked: int) -> Certificate:
    return Certificate(
        z1=child_cert.z1 | addable.c_rest | blocked,
        z2=child_cert.z2 | addable.a | blocked,
        b=state.b, eps=state.eps, ground=state.ground, b0=state.B0)


def augment(state: SearchState, caps: Caps = DEFAULT_CAPS) -> AugmentResult:
    """One augmentation: cover an eps^2 fraction of B0 with the matroid while
    keeping the rest of the cover intact, or fail with a certificate.

    A child's success covers eps^2·|B0| at once only if |B0| > 1/eps: else
    build_addable ends only on an empty layer, so c_rest holds I_M's part of
    every fundamental circuit of B0 (I_M spans B0 past the first check), and
    B0's elements are loops below this node. The root's B0 is one target and
    a child adds B to it, so this needs 1/eps blocking elements on one path;
    tests/corpus/augment/ keeps an 18-element cover whose solve_cover run at
    eps = 1/8 gathers 8 and takes this branch one level down.

    Step (1) grows A_I by one pass (grow_immediate). A success never drops a
    covered element (succeed checks that I_M ∪ I_P stays covered), so within
    one round of solve_cover covered elements never leave the cover.
    """
    _assert_state(state, caps)
    m, p, b, eps = state.matroid, state.poly, state.b, state.eps
    num, den = eps.numerator, eps.denominator
    num2, den2 = num * num, den * den
    b0 = state.B0
    n_b0 = size(b0)
    # eps = num/den; the thresholds are compared as cross-multiplied ints,
    # a count reaching eps²·|B0| exactly when count·den² >= need
    need = num2 * n_b0
    nodes = 1
    i_m, i_p = state.I_M, state.I_P

    def succeed(final_i_m: int, final_i_p: int) -> AugmentResult:
        grown = matroid_add_greedy(m, final_i_m, state.order)
        if size(grown & b0) * den2 < need:
            raise InternalInvariantError("success branch covered too little of B0")
        if (state.I_M | state.I_P) & ~(grown | final_i_p):
            raise InternalInvariantError("cover lost previously covered elements")
        return AugmentResult(True, grown, final_i_p, nodes=nodes)

    if m.rank_marginal(b0, i_m) * den2 >= need:
        return succeed(i_m, i_p)

    addable = build_addable(state, caps)
    a = addable.a
    a_i = 0
    blocked = compute_blocking(state, a, i_p)

    while True:
        # (1) grow the immediately addable set
        a_i = grow_immediate(state, a, a_i, i_p)
        # the remaining operations see a stable state: (1) is exhausted
        _check_blocking_invariants(state, addable, a_i, blocked)
        # (2) commit A_I, freeing matroid capacity for B0
        if a and size(a_i) * den >= num * size(a):
            if (m.rank_marginal(b0, i_m & ~a_i) + size(b0 & i_m)) * den2 < need:
                raise InternalInvariantError("commit freed less rank than guaranteed")
            return succeed(i_m & ~a_i, i_p | a_i)
        # (3) too few blocking elements: infeasibility certificate
        if size(blocked) * den < num * n_b0:
            cert = Certificate(z1=addable.c_rest | blocked, z2=a | blocked,
                               b=b, eps=eps, ground=state.ground, b0=b0)
            return AugmentResult(False, certificate=cert, nodes=nodes)
        # (4) recurse on the blocking elements
        child = recurse_input(state, addable, blocked, i_m, i_p)
        result = augment(child, caps)
        nodes += result.nodes
        if not result.success:
            cert = _fold_certificate(result.certificate, state, addable, blocked)
            return AugmentResult(False, certificate=cert, nodes=nodes)
        i_m = addable.c_rest | result.I_M
        i_p = (blocked & ~result.I_M) | result.I_P
        if not m.is_independent(i_m):
            raise InternalInvariantError("I_M dependent after recursion return")
        if not member_set(p, i_p | a_i, b, caps):
            raise InternalInvariantError("b·(I_P ∪ A_I) outside P after recursion return")
        if size(b0 & result.I_M) * den2 >= need:
            return succeed(i_m, i_p)
        if size(blocked & result.I_M) * den2 < num2 * size(blocked):
            raise InternalInvariantError("recursion made progress on neither B0 nor B")
        new_blocked = compute_blocking(state, a, i_p)
        if new_blocked & ~blocked:
            raise InternalInvariantError("blocking set gained elements")
        if size(new_blocked) * den2 > (den2 - num2) * size(blocked):
            raise InternalInvariantError("blocking set did not shrink enough")
        blocked = new_blocked


def _check_blocking_invariants(state: SearchState, addable: AddableSets,
                               a_i: int, blocked: int) -> None:
    p, b = state.poly, state.b
    num, den = state.eps.numerator, state.eps.denominator
    a = addable.a
    high = leave_one_out_reaches(p, (a | blocked) & ~a_i, b, a | blocked)
    if high:
        raise InternalInvariantError(
            f"element {(high & -high).bit_length() - 1} of A ∪ B (outside A_I) "
            "has marginal >= b")
    if a and size(a_i) * den < num * size(a):
        if size(blocked) * den <= (den - 2 * num) * size(a):
            raise InternalInvariantError("blocking set smaller than (1-2eps)|A|")


def recursion_node_bound(n: int, eps: Fraction) -> int:
    """2^ceil(log_{1/(1-eps^2)} n): the recursion-tree size bound, for
    0 < eps < 1, refused (ValueError) where it has more decimal digits than
    the interpreter converts to a string (sys.get_int_max_str_digits, else
    its default), as at eps = 1/100 with a few elements.

    With 1 - eps^2 = p/q, ell is the least ell >= 1 with q^ell >= n * p^ell.
    A binary search finds the largest ell below it one bit at a time, from
    the exact powers q^(2^k) and p^(2^k) squared up until 2^k reaches.
    With top the largest ell whose 2^ell fits the limit, no power passes
    q^(2^k) for the first 2^k >= top: eps is refused at once when
    (q/p)^top <= exp(top·(q − p)/p) < exp(2/3) < 2 <= n, else when 2^k
    reaches top with q^(2^k) still short, or when the ell found passes top.
    """
    if not 0 < eps.numerator < eps.denominator:
        raise ValueError("eps must lie in (0, 1)")
    if n <= 1:
        return 2
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    top = _largest_exponent_below(digits)
    refused = ValueError(f"eps {eps}: the recursion node bound over {n} elements has "
                         f"more than {digits} digits")
    q = eps.denominator ** 2
    qs, ps = [q], [q - eps.numerator ** 2]
    if 3 * top * (q - ps[0]) < 2 * ps[0]:
        raise refused
    while qs[-1] < n * ps[-1]:
        if 1 << (len(qs) - 1) >= top:
            raise refused
        qs.append(qs[-1] ** 2)
        ps.append(ps[-1] ** 2)
    short, q_short, p_short = 0, 1, 1  # q^short < n * p^short
    for k in range(len(qs) - 2, -1, -1):
        q_try, p_try = q_short * qs[k], p_short * ps[k]
        if q_try < n * p_try:
            short, q_short, p_short = short + (1 << k), q_try, p_try
    if short >= top:
        raise refused
    return 2 ** (short + 1)


@functools.cache
def _largest_exponent_below(digits: int) -> int:
    """The largest ell with 2^ell < 10^digits: 2^ell has at most digits digits."""
    return (10 ** digits).bit_length() - 1


def _checked_eps(eps: Fraction | float) -> Fraction:
    """eps as a Fraction, a float read exactly by its binary value; refused
    outside (0, 1/8], decided on its numerator and denominator."""
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    if not 0 < 8 * eps.numerator <= eps.denominator:
        raise ValueError("eps must lie in (0, 1/8]")
    return eps


def _check_level(b: int) -> None:
    if not isinstance(b, int) or isinstance(b, bool) or b < 1:
        raise ValueError("cover level b must be a positive integer")


def solve_cover(inst: CoreCoverInstance, eps: Fraction | float = Fraction(1, 10),
                caps: Caps = DEFAULT_CAPS) -> CoverResult:
    """Cover every element by the matroid or by polymatroid multiplicity b.

    Elements are targeted least f({e}) first, ties by index; when one
    cannot be covered, its certificate is recorded, its rank is zeroed out,
    and the whole procedure restarts (at most |E| times). Infeasibility of the
    initial rank-zero set is immediate infeasibility.

    What depends only on the oracles is asked once per solve, not once per
    round: the base matroid's loops (a zeroed element is a loop and no other
    singleton rank changes, r'(X) = r(X \\ removed)) and the target order.
    Within a round covered elements never leave the cover (augment's
    success checks it), so the next target is found by a pointer into the
    order that only moves forward.

    The outcome is kept with the matroid, keyed by (polymatroid, b, eps,
    caps): oracles are immutable and the search is deterministic, so a
    repeated call returns the kept result and asks no query. Only a run
    that returns is kept; one that raises is run again next time.
    """
    eps = _checked_eps(eps)
    _check_level(inst.b)
    matroid, poly, b = inst.matroid, inst.polymatroid, inst.b
    n = matroid.n
    if matroid.n != poly.n:
        raise ValueError("matroid and polymatroid must share the ground set")
    key = (poly, b, eps, caps)
    kept = matroid._covers.get(key)
    if kept is not None:
        return kept
    before = stats.snapshot()
    result = CoverResult(feasible=False, b=b)
    zeroed = 0
    loops = 0
    for i in range(n):
        if matroid.rank(1 << i) == 0:
            loops |= 1 << i
    priority: list[int] | None = None
    # Round n + 1 at the latest ends by a break: a zeroed element is a loop,
    # so it starts in I_P and stays covered, and each restart zeroes a new
    # element. By then every element is a loop, and the round ends on the
    # rank-zero membership test or with every element covered.
    for _ in range(n + 1):
        m: MatroidOracle = ZeroedMatroid(matroid, zeroed) if zeroed else matroid
        i_p = loops | zeroed
        if not member_set(poly, i_p, b, caps):
            result.diagnostics = ("the rank-zero elements alone exceed the polymatroid "
                                  "at multiplicity b; the optimum is below b")
            break
        i_m = 0
        failed = None
        if priority is None:
            # target elements the polymatroid can carry least first: they
            # must claim matroid capacity while it lasts
            priority = sorted(range(n), key=lambda i: (poly.value(1 << i), i))
        pos = 0
        while True:
            while pos < n and ((i_m | i_p) >> priority[pos]) & 1:
                pos += 1
            if pos == n:
                break
            target = 1 << priority[pos]
            state = SearchState(ground=i_m | i_p | target, matroid=m, poly=poly,
                                b=b, eps=eps, I_M=i_m, I_P=i_p, B0=target,
                                order=elements(target))
            res = augment(state, caps)
            result.augment_calls += 1
            result.total_recursion_nodes += res.nodes
            result.max_recursion_nodes = max(result.max_recursion_nodes, res.nodes)
            if res.success:
                i_m, i_p = res.I_M, res.I_P
                if not target & (i_m | i_p):
                    raise InternalInvariantError("augmentation did not cover its target")
            else:
                result.certificates.append(
                    CertificateRecord(res.certificate, m, poly, target.bit_length() - 1))
                failed = target
                break
        if failed is None:
            result.feasible = True
            result.I_M = i_m
            result.y = indicator(i_p, n, b)
            break
        zeroed |= failed
        result.restarts += 1
    result.zeroed = zeroed
    result.oracle_queries = stats.total(stats.delta(before))
    matroid._covers[key] = result
    return result


def verify_certificate(cert: Certificate, matroid: MatroidOracle,
                       poly: PolymatroidOracle, exhaustive: bool = False,
                       caps: Caps = DEFAULT_CAPS) -> dict:
    """Check the four certificate properties by oracle evaluation.

    Returns a report with one boolean per property, the overall verdict,
    and the smallest integer multiple of b the certificate provably
    excludes. The certificate's eps must lie in (0, 1/8] (a float is read
    exactly) and its b must be a positive int, as solve_cover requires;
    else ValueError. With eps = num/den each threshold is decided in ints,
    cross-multiplied by den (by 2·den for p2). With exhaustive=True (ground
    size at most caps.sfm_ground, else SizeCapError) it additionally
    confirms by enumeration, in Fractions, that no cover at (4+40*eps)*b
    exists that puts a 3*eps fraction of B0 on the matroid side.
    """
    eps = _checked_eps(cert.eps)
    _check_level(cert.b)
    z1, z2, b, b0 = cert.z1, cert.z2, cert.b, cert.b0
    num, den = eps.numerator, eps.denominator
    n_b0, n_z1, n_z2 = size(b0), size(z1), size(z2)
    report: dict = {"contained": bool(z2 & ~z1 == 0 and z1 & ~(cert.ground & ~b0) == 0)}
    # r(B0 | Z1) < 2eps·|B0|
    report["p1_rank_shields_b0"] = matroid.rank_marginal(b0, z1) * den < 2 * num * n_b0
    # r(Z1) <= |Z1| - (1/2 - 2eps)·|Z2| + eps·|B0|
    report["p2_rank_deficiency"] = (
        2 * den * matroid.rank(z1)
        <= 2 * den * n_z1 - (den - 4 * num) * n_z2 + 2 * num * n_b0)
    good = sum(1 for i in bits(z2)
               if capped_marginal(poly, 1 << i, b, z2 & ~(1 << i)) < b)
    # good >= (1 - eps)·|Z2|
    report["p3_small_marginals_in_z2"] = good * den >= (den - num) * n_z2
    report["p4_small_marginals_above_z2"] = all(
        capped_marginal(poly, 1 << i, 2 * b, z2) < 2 * b for i in bits(z1 & ~z2))
    report["ok"] = all(report[k] for k in
                       ("contained", "p1_rank_shields_b0", "p2_rank_deficiency",
                        "p3_small_marginals_in_z2", "p4_small_marginals_above_z2"))
    # smallest integer multiple of b provably excluded by the property chain:
    # alpha must satisfy (1+2eps)/(alpha-2) + eps <= 1/2 - 2eps, so
    # alpha = 2 + ceil(2(1+2eps)/(1-6eps)), whose divisor den - 6num > 0
    report["excluded_multiple"] = 2 - (-2 * (den + 2 * num) // (den - 6 * num))
    if exhaustive:
        level = (4 + 40 * eps) * b
        report["exhaustive_sound"] = not exists_strong_cover(
            matroid, poly, cert.ground, b0, level, 3 * eps * n_b0, caps)
    else:
        report["exhaustive_sound"] = None
    return report
