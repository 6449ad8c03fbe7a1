"""Integer polymatroid value oracles and their derived operations.

A polymatroid is {x in Z>=0^E : x(S) <= f(S) for all S} for a monotone
submodular integer f with f(empty) = 0. Concrete families: modular,
weighted coverage, scaled matroid rank, explicit table. Derived forms:
sums, box caps, marginals above a set or vector, and duals. On top of
the oracles: brute-force submodular minimization, the count max y(E) over
y <= x in P (count), which decides membership and how many units of one
element a member can gain up to a limit (headroom), greedy basis
extension, and the box-capped marginal f(Y | b*X).

A capped value and a vector-contracted value are each one count of a
box vector of the inner polymatroid (CappedPoly, VectorContractedPoly),
and an induced rank is the count of a 0/1 vector (matroids.InducedMatroid).
count alone chooses between matroid partition and subset enumeration
(_by_partition, which member, member_set and headroom ask before their
memos), and only the enumeration obeys caps.sfm_ground.

Coverage-shaped polymatroids (modular and coverage parts, their sums, caps
and set contractions) are cut networks (CutNetwork): the count of an
integer x is one exact max-flow, the kept one of the h-capped support when
x's nonzero entries off the network's base all equal h, and else one
solved for x's supply, less F(base), which takes no flow when the base is
empty. Every flow of a network is built from a vector by one method
(CutNetwork._flow), on one arc numbering of its covers that its capped and
contracted forms share. A one-element capped marginal f(i | h·X) there is
one augmenting search from i on a copy of the max flow of X, which the
network keeps in residual form per (h, X) (CutNetwork.marginal). The local
search only asks whether such a marginal reaches h (marginal_reaches,
CutNetwork.reaches), and bounds decide most of those questions with no
search: the marginal is at most i's own reach, and reaches h when the kept
flow of X leaves h of free sink room on what i covers; otherwise the
search raises i's supply by h. Its leave-one-out questions,
f(i | h·(X − i)) >= h for every i of a set, take one residual reachability
search on the kept flow of X (leave_one_out_reaches,
CutNetwork.leave_one_out): i's marginal reaches h exactly when i's supply
is h and some minimum cut holds i's source arc, that is, when the search
from the source does not reach i (max-flow min-cut, Ford and Fulkerson
1956). A missing kept flow is derived by raising one element's supply on
a copy of the kept flow of the set without it.

A cut network, a scaled-rank part, or a sum of scaled-rank and plain
cut-network parts has a partition form: matroid copies (none for a cut
network) plus one network part (partition_form). Edmonds' matroid
partition splits an integer vector's units into one independent set per
copy and a member of the network part; on a form with copies the split is
a Placement (copy masks, the network part's kept flow, the units placed
nowhere), solved from scratch by place. It is the package's one partition
routine: its placed units are the count of integer vectors with larger
supports, and on 0/1 vectors the ranks of matroid unions and of the
matroids such forms induce (matroids.UnionMatroid,
matroids.InducedMatroid). A polymatroid keeps the
placements it counts per vector (PolymatroidOracle.placement), and a
missing one is derived from a kept placement one unit below by one more
exchange search, since a unit enters a maximum placement exactly when it
is independent in the union.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from . import stats
from .bitsets import (bits, check_subset, elements, full_mask, indicator, size, submasks, vec_sum,
                      vec_support)
from .limits import Caps, DEFAULT_CAPS, SizeCapError
from .matching import ArcNumbering, ResidualFlow


class CutNetwork:
    """f(S) = F(S ∪ base) − F(base) with F(S) = min_{T ⊆ S} c(T) + w(N(S \\ T)).

    N(S) is the union of covers[e] over e in S, w the item weights and c the
    element caps (None for uncapped). F(S) is the minimum cut of the
    network source -> element e (capacity c(e)) -> covered items (unbounded)
    -> sink (capacity w(item)), so it is one bipartite max-flow.

    The network keeps, per (h, set), the max flow of the set capped at h
    (_residual), in residual form. The threshold questions (reaches), the
    exact marginals (marginal), the leave-one-out batches (leave_one_out)
    and the counts of vectors uniform off base (count) share those flows;
    the other counts solve theirs. Every flow is built by _flow from a
    vector, on one ArcNumbering of the covers, which capped and contracted
    copies of the network share with it, as they share the reaches.
    """

    def __init__(self, covers: Sequence[int], weights: Sequence[int],
                 caps: Sequence[int | None], base: int = 0,
                 shared: tuple[Sequence[int], ArcNumbering] | None = None):
        self.covers = tuple(covers)
        self.weights = tuple(weights)
        self.caps = tuple(caps)
        self.base = base
        # reach[e] = w(covers[e]) and the flows' arc numbering, both shared by
        # every network over the same covers (capped, contracted)
        if shared is None:
            shared = (tuple(vec_sum(self.weights, cov) for cov in self.covers),
                      ArcNumbering(self.covers))
        self._shared = shared
        reach, self._numbering = shared
        # an uncapped element is cut at the weight it covers, which never binds
        self._left = tuple(r if c is None else min(c, r) for c, r in zip(self.caps, reach))
        self._residuals: dict[tuple[int, int], ResidualFlow] = {}

    @property
    def plain(self) -> bool:
        """No caps and no contracted set: a plain weighted coverage function."""
        return self.base == 0 and all(c is None for c in self.caps)

    def capped(self, caps: Sequence[int | None]) -> "CutNetwork":
        """Caps min-merged on the elements outside base (base elements are loops)."""
        merged = tuple(c if (self.base >> e) & 1 else _min_cap(c, d)
                       for e, (c, d) in enumerate(zip(self.caps, caps)))
        return CutNetwork(self.covers, self.weights, merged, self.base, self._shared)

    def contracted(self, mask: int) -> "CutNetwork":
        return CutNetwork(self.covers, self.weights, self.caps, self.base | mask, self._shared)

    def _flow(self, x: Sequence[int]) -> ResidualFlow:
        """The max flow with supply _left on base and min(x, _left) off it:
        F(supp(x) ∪ base) with the elements off base capped at x."""
        left = self._left
        supply = [v if v < t else t for v, t in zip(x, left)]
        for e in bits(self.base):
            supply[e] = left[e]
        return ResidualFlow(self._numbering, supply, self.weights)

    @cached_property
    def _f_base(self) -> int:
        """F(base), 0 with no flow for an empty base."""
        return self.base and self._flow([0] * len(self.covers)).total

    def count(self, x: Sequence[int]) -> int:
        """max y(E) over integer y <= x in P(f), for an integer x >= 0: the
        max flow with supply min(x, _left) off base and _left on base, less
        F(base). Both are min_{S ⊇ base} x(E \\ S) + F(S) − F(base) (base
        elements are loops) once F(S) is written as its min cut over U ⊆ S.

        When x's nonzero entries off base all equal one h, that flow is the
        kept max flow of the h-capped support (_residual), as for the
        threshold questions; else it is solved.
        """
        off = vec_support(x) & ~self.base
        if not off:
            return 0
        h = x[(off & -off).bit_length() - 1]
        if all(x[e] == h for e in bits(off)):
            return self._residual(h, off).total - self._f_base
        return self._flow(x).total - self._f_base

    def marginal(self, i: int, h: int, mask: int) -> int:
        """f(i | h·mask): the capped marginal of element i above mask with the
        elements of mask capped at h, by one augmenting search.

        With those caps, F(mask ∪ base) is the max flow with supply
        min(h, _left[e]) on mask \\ base and _left[e] on base (_residual).
        i's answer is how much raising its supply from 0 to _left[i] adds,
        on a copy. 0 for i in mask ∪ base.
        """
        off = mask & ~self.base
        if ((off | self.base) >> i) & 1:
            return 0
        return self._residual(h, off).copy().raise_supply(i, self._left[i])

    def reaches(self, i: int, h: int, mask: int) -> bool:
        """marginal(i, h, mask) >= h, decided by bounds where they suffice.

        As a function of i's supply t the max flow is min(F0 + t, F∞):
        every cut either holds i's source arc or not (parametric max-flow,
        Gallo, Grigoriadis and Tarjan 1989). So the marginal is at most
        _left[i], the supply i can take, and reaches h when the kept flow
        of the h-capped mask leaves h of sink room free on covers[i], since
        h more units of i then flow there directly. Only otherwise does i's
        supply rise by h on a copy, which gains min(h, the marginal). An
        element of mask ∪ base has marginal 0, and every marginal reaches
        h = 0.
        """
        off = mask & ~self.base
        if ((off | self.base) >> i) & 1 or not h:
            return not h
        if self._left[i] < h:
            return False
        res = self._residual(h, off)
        right_res, room = res.right_res, 0
        for v in res.nbrs[i]:
            room += right_res[v]
            if room >= h:
                return True
        return res.copy().raise_supply(i, h) == h

    def leave_one_out(self, among: int, h: int, mask: int) -> int:
        """The elements i of among (within mask) with f(i | h·(mask − i)) >= h,
        by one residual search on the kept max flow of the h-capped mask.

        In that flow an element i of mask \\ base with _left[i] >= h has
        supply h. As a function of i's supply t the max flow is
        min(F0 + t, F∞), with F0 the least cut through i's source arc and F∞
        the least cut around it (marginal), so f(i | h·(mask − i)) >= h
        exactly when lowering t from h to 0 loses all of h, that is, when
        F0 + h <= F∞: when some minimum cut holds i's source arc, which is
        when i is outside the minimal source side
        (ResidualFlow.source_side). An element with _left[i] < h gains less
        than h, one in base gains 0, and at h = 0 every element reaches.
        """
        if h == 0:
            return among
        off = mask & ~self.base
        candidates = 0
        for i in bits(among & off):
            if self._left[i] >= h:
                candidates |= 1 << i
        return candidates and candidates & ~self._residual(h, off).source_side()

    def _residual(self, h: int, off: int) -> ResidualFlow:
        """The max flow of the h-capped off ∪ base, kept per (h, off). A
        missing one is derived by raising: a copy of the kept flow of
        off − j for some j, with j's supply raised to min(h, _left[j]); with
        none kept it is solved."""
        key = (h, off)
        res = self._residuals.get(key)
        if res is None:
            for j in bits(off):
                near = self._residuals.get((h, off ^ 1 << j))
                if near is not None:
                    res = near.copy()
                    res.raise_supply(j, min(h, self._left[j]))
                    break
            else:
                res = self._flow([h if (off >> e) & 1 else 0 for e in range(len(self.covers))])
            self._residuals[key] = res
        return res


class PolymatroidOracle:
    """Value oracle f: 2^E -> Z>=0, monotone submodular, f(empty) = 0."""

    def __init__(self, n: int):
        _check_weights([n], "ground set size")
        self.n = n
        self._memo: dict[int, int] = {}
        self._member_memo: dict[tuple, bool] = {}
        self._member_set_memo: dict[tuple[int, int], bool] = {}
        self._capped_cache: dict[tuple, "CappedPoly"] = {}
        self._placements: dict[tuple, "Placement"] = {}

    def value(self, mask: int) -> int:
        """f(mask), one query, with MatroidOracle.rank's memo: a hit on an
        int mask is one lookup, any other key is checked first."""
        if type(mask) is int:
            hit = self._memo.get(mask)
            if hit is not None:
                stats.counters["poly_value"] += 1
                return hit
        check_subset(mask, self.n)
        stats.counters["poly_value"] += 1
        hit = self._memo.get(mask)
        if hit is None:
            hit = self._memo[mask] = self._value(mask)
        return hit

    def _value(self, mask: int) -> int:
        raise NotImplementedError

    @cached_property
    def network(self) -> CutNetwork | None:
        """This polymatroid as a cut network, or None when it has no such form."""
        return self._build_network()

    def _build_network(self) -> CutNetwork | None:
        return None

    @cached_property
    def partition_form(self) -> tuple[tuple, CutNetwork | None] | None:
        """(matroid copies, network part) of a cut network, ((), network), of
        a scaled-rank part or of a sum of scaled-rank and plain cut-network
        parts; else None.

        Each s·r_M gives s copies of M; the plain parts together are one
        plain cut network (None when there are none). Then f = Σ r_copy +
        network: integer members of P(f) are sums of one independent set per
        copy and one member of the network part (matroid union and the
        polymatroid sum theorem, Edmonds 1968 and 1970). With copies, the
        network part is plain (base 0, no caps) or None: place keeps the
        split of its prefill flow, which on a contracted network
        need not leave F(base) on base.
        """
        if self.network is not None:
            return (), self.network
        copies: list = []
        plain: list[PolymatroidOracle] = []
        for p in self.parts if isinstance(self, SumPoly) else (self,):
            if isinstance(p, ScaledRankPoly):
                copies.extend([p.matroid] * p.scale)
            elif p.network is not None and p.network.plain:
                plain.append(p)
            else:
                return None
        if not plain:
            return tuple(copies), None
        return tuple(copies), (plain[0] if len(plain) == 1 else SumPoly(plain)).network

    def placement(self, x: tuple[int, ...]) -> "Placement":
        """The maximum placement of x's units on partition_form (one that
        is not a bare cut network), kept per vector. A missing one is
        derived from a kept placement of x − 1_j for some element j by
        adding j's unit; with none it is solved (place)."""
        kept = self._placements.get(x)
        if kept is None:
            kept = self._placements[x] = self._derive_placement(x)
        return kept

    def _derive_placement(self, x: tuple[int, ...]) -> "Placement":
        placements = self._placements
        for j in bits(vec_support(x)):
            near = placements.get(x[:j] + (x[j] - 1,) + x[j + 1:])
            if near is not None:
                derived = near.copy()
                derived.add(j)
                return derived
        return place(*self.partition_form, x)

    def capped(self, *, uniform: int, on: int) -> "CappedPoly":
        """This polymatroid with the elements of the mask on capped at
        uniform, cached per cap pattern."""
        caps = tuple(uniform if (on >> e) & 1 else None for e in range(self.n))
        cached = self._capped_cache.get(caps)
        if cached is None:
            cached = self._capped_cache[caps] = CappedPoly(self, caps)
        return cached


def _check_weights(weights: Sequence[int], what: str) -> None:
    """Every entry an int (not a bool), then every entry nonnegative."""
    for w in weights:
        if not isinstance(w, int) or isinstance(w, bool):
            raise ValueError(f"{what} must be integers")
    for w in weights:
        if w < 0:
            raise ValueError(f"{what} must be nonnegative")


class ModularPoly(PolymatroidOracle):
    def __init__(self, weights: Sequence[int]):
        super().__init__(len(weights))
        _check_weights(weights, "modular weights")
        self.weights = tuple(weights)

    def _value(self, mask: int) -> int:
        return sum(self.weights[e] for e in bits(mask))

    def _build_network(self) -> CutNetwork:
        return CutNetwork([1 << e for e in range(self.n)], self.weights, [None] * self.n)


class CoveragePoly(PolymatroidOracle):
    """f(S) = total weight of universe items covered by the sets of S.

    covers[e] is a bitmask over the item universe; item_weights indexed by item.
    """

    def __init__(self, covers: Sequence[int], item_weights: Sequence[int]):
        super().__init__(len(covers))
        _check_weights(item_weights, "item weights")
        if any(c < 0 or c >> len(item_weights) for c in covers):
            raise ValueError(f"sets may only name items 0..{len(item_weights) - 1}")
        self.covers = tuple(covers)
        self.item_weights = tuple(item_weights)

    def _value(self, mask: int) -> int:
        covered = 0
        for e in bits(mask):
            covered |= self.covers[e]
        return sum(self.item_weights[i] for i in bits(covered))

    def _build_network(self) -> CutNetwork:
        return CutNetwork(self.covers, self.item_weights, [None] * self.n)


# A scaled-rank part lists one copy of its matroid per unit of scale in its
# partition form (partition_form), and a count walks the list, so a larger
# scale is refused rather than allocated (at 10**9 the list alone needs
# gigabytes).
MAX_SCALE = 1 << 20


class ScaledRankPoly(PolymatroidOracle):
    """f(S) = scale * r(S) for a matroid rank function r, scale <= MAX_SCALE."""

    def __init__(self, matroid, scale: int):
        super().__init__(matroid.n)
        _check_weights([scale], "scale")
        if scale > MAX_SCALE:
            raise ValueError(f"scale must be at most {MAX_SCALE}")
        self.matroid = matroid
        self.scale = scale

    def _value(self, mask: int) -> int:
        return self.scale * self.matroid.rank(mask)


class ExplicitPoly(PolymatroidOracle):
    def __init__(self, n: int, table: Sequence[int]):
        super().__init__(n)
        if len(table) != 1 << n:
            raise ValueError("value table must have 2^n entries")
        self.table = tuple(table)

    def _value(self, mask: int) -> int:
        return self.table[mask]


class SumPoly(PolymatroidOracle):
    """f(S) = sum of the parts; the polymatroid sum (Minkowski sum of the parts)."""

    def __init__(self, parts: Sequence[PolymatroidOracle]):
        if not parts:
            raise ValueError("sum of no polymatroids")
        n = parts[0].n
        if any(p.n != n for p in parts):
            raise ValueError("sum parts must share the ground set")
        super().__init__(n)
        flat: list[PolymatroidOracle] = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, SumPoly) else [p])
        self.parts = tuple(flat)

    def _value(self, mask: int) -> int:
        return sum(p.value(mask) for p in self.parts)

    def _build_network(self) -> CutNetwork | None:
        """The parts' item universes side by side, when every part is plain coverage."""
        covers = [0] * self.n
        weights: list[int] = []
        for p in self.parts:
            net = p.network
            if net is None or not net.plain:
                return None
            for e, cov in enumerate(net.covers):
                covers[e] |= cov << len(weights)
            weights.extend(net.weights)
        return CutNetwork(covers, weights, [None] * self.n)


class CappedPoly(PolymatroidOracle):
    """f'(S) = min_{T ⊆ S} f(S \\ T) + c(T), the box restriction y(i) <= c(i).

    f'(S) is the count of f (count) at the vector c on S, 0 elsewhere,
    with f({e}) standing in for an unbounded cap c(e), since no y in P(f)
    exceeds it. Nested caps merge elementwise.
    """

    def __init__(self, inner: PolymatroidOracle, caps: Sequence[int | None]):
        super().__init__(inner.n)
        caps = tuple(caps)
        if len(caps) != inner.n:
            raise ValueError("one cap per element required (None for unbounded)")
        _check_weights([c for c in caps if c is not None], "caps")
        if isinstance(inner, CappedPoly):
            caps = tuple(_min_cap(a, b) for a, b in zip(caps, inner.caps))
            inner = inner.inner
        self.inner = inner
        self.caps = caps

    def _build_network(self) -> CutNetwork | None:
        net = self.inner.network
        return None if net is None else net.capped(self.caps)

    def _value(self, mask: int) -> int:
        x = [0] * self.n
        for e in bits(mask):
            c = self.caps[e]
            x[e] = self.inner.value(1 << e) if c is None else c
        return count(self.inner, x)


def _min_cap(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class MarginalPoly(PolymatroidOracle):
    """f'(S) = f(S ∪ X) − f(X): contraction of the set X (elements of X drop out)."""

    def __init__(self, inner: PolymatroidOracle, base_mask: int):
        super().__init__(inner.n)
        check_subset(base_mask, inner.n)
        if isinstance(inner, MarginalPoly):
            base_mask |= inner.base_mask
            inner = inner.inner
        self.inner = inner
        self.base_mask = base_mask
        self._fx = None

    def _value(self, mask: int) -> int:
        if self._fx is None:
            self._fx = self.inner.value(self.base_mask)
        return self.inner.value(mask | self.base_mask) - self._fx

    def _build_network(self) -> CutNetwork | None:
        net = self.inner.network
        return None if net is None else net.contracted(self.base_mask)


class VectorContractedPoly(PolymatroidOracle):
    """Marginal above a vector y in P: f'(S) = min_{U ⊇ S} f(U) − y(U).

    That is count(z) − y(E) for z = y with each z(e), e in S, raised to
    f({e}): in count(z) = min_U f(U) + z(E \\ U), a set U that misses some
    e in S does at least as well with e added, since f(U + e) <= f(U) +
    f({e}), and a set U ⊇ S gives y(E) + f(U) − y(U) (headroom up to
    f({e}) − y(e) is the one-element case).
    """

    def __init__(self, inner: PolymatroidOracle, base: Sequence[int]):
        super().__init__(inner.n)
        if len(base) != inner.n:
            raise ValueError("base vector length mismatch")
        _check_weights(base, "contracted base entries")
        if not member(inner, base):
            raise ValueError("base vector must belong to the polymatroid")
        self.inner = inner
        self.base = tuple(base)

    def _value(self, mask: int) -> int:
        z = list(self.base)
        for e in bits(mask):
            z[e] = self.inner.value(1 << e)
        return count(self.inner, z) - sum(self.base)


class DualPoly(PolymatroidOracle):
    """g(S) = z(S) + f(E \\ S) − f(E): the dual with respect to a vector z
    that dominates every member of the polymatroid (checked in the axiom
    suites, not at construction)."""

    def __init__(self, inner: PolymatroidOracle, z: Sequence[int]):
        super().__init__(inner.n)
        if len(z) != inner.n:
            raise ValueError("dominating vector length mismatch")
        _check_weights(z, "dominating vector entries")
        self.inner = inner
        self.z = tuple(z)
        self._fe = None

    def _value(self, mask: int) -> int:
        if self._fe is None:
            self._fe = self.inner.value(full_mask(self.n))
        comp = full_mask(self.n) & ~mask
        return vec_sum(self.z, mask) + self.inner.value(comp) - self._fe


def capped_marginal(p: PolymatroidOracle, add: int, h: int, base: int) -> int:
    """f(Y | h·X): marginal of Y above X in the polymatroid with entries of X capped at h.

    Extended to overlapping arguments by f(Y | h·X) = f(Y \\ X | h·X).
    A one-element Y on a polymatroid with a cut network is one augmenting
    search that raises the element's supply in full on a copy of the kept
    residual flow of X (CutNetwork.marginal); every other form is the
    difference of two values of p.capped(uniform=h, on=X). Either way it
    counts as two value queries. The cap h must be a nonnegative integer.
    Whether the marginal reaches h, the question the local search asks, is
    marginal_reaches; verify_certificate asks this exact value, so a
    certificate check does not rest on marginal_reaches' bounds.
    """
    i = _network_element(p, add, h, base)
    if i < 0:
        return _capped_difference(p, add & ~base, h, base)
    return p.network.marginal(i, h, base)  # type: ignore[union-attr]


def marginal_reaches(p: PolymatroidOracle, add: int, h: int, base: int) -> bool:
    """capped_marginal(p, add, h, base) >= h, counted as the same two queries.

    On a cut network a one-element question is decided by bounds where
    they suffice (CutNetwork.reaches): below h when the element's own
    reach is, at h when the kept flow of base leaves h of sink room on what
    the element covers, and else by one augmenting search that raises its
    supply by h. Every other form computes the whole marginal. The
    leave-one-out questions of a whole set are one batch,
    leave_one_out_reaches.
    """
    i = _network_element(p, add, h, base)
    if i < 0:
        return _capped_difference(p, add & ~base, h, base) >= h
    return p.network.reaches(i, h, base)  # type: ignore[union-attr]


def leave_one_out_reaches(p: PolymatroidOracle, among: int, h: int, base: int) -> int:
    """The elements i of among (a subset of base) whose marginal above the
    rest reaches h, f(i | h·(base − i)) >= h, as a mask: the answers of
    marginal_reaches(p, 1 << i, h, base − i), counted as those questions
    are, two value queries each.

    On a cut network one residual search on the kept max flow of h·base
    answers them all (CutNetwork.leave_one_out); every other form asks
    marginal_reaches element by element.
    """
    _check_weights([h], "caps")
    check_subset(base, p.n)
    if among & ~base:
        raise ValueError("the elements asked about must lie in the base")
    net = p.network
    if net is None:
        return sum(1 << i for i in bits(among)
                   if marginal_reaches(p, 1 << i, h, base & ~(1 << i)))
    stats.counters["poly_value"] += 2 * size(among)
    return net.leave_one_out(among, h, base)


def _network_element(p: PolymatroidOracle, add: int, h: int, base: int) -> int:
    """The one element of add \\ base when p has a cut network, after the
    checks and the two value queries a capped-marginal question counts
    there; −1 when the question takes two capped values instead."""
    if type(h) is not int or h < 0:  # every threshold question passes here
        _check_weights([h], "caps")
    add &= ~base
    if p.network is None or add <= 0 or add & (add - 1):
        return -1
    check_subset(add | base, p.n)
    stats.counters["poly_value"] += 2
    return add.bit_length() - 1


def _capped_difference(p: PolymatroidOracle, add: int, h: int, base: int) -> int:
    cp = p.capped(uniform=h, on=base)
    return cp.value(add | base) - cp.value(base)


def sfm_min(fn: Callable[[int], int], n: int, caps: Caps = DEFAULT_CAPS,
            restrict: int | None = None) -> tuple[int, int]:
    """Brute-force submodular function minimization over subsets of the ground set.

    Returns (minimizer, minimum); ties broken by the lexicographically
    smallest subset (as a sorted index tuple). restrict limits the search
    to submasks of the given set.
    """
    domain = full_mask(n) if restrict is None else restrict
    if size(domain) > caps.sfm_ground:
        raise SizeCapError(f"SFM ground set of size {size(domain)} exceeds cap {caps.sfm_ground}")
    best_mask, best_val = 0, fn(0)
    for sub in submasks(domain):
        v = fn(sub)
        if v < best_val or (v == best_val and elements(sub) < elements(best_mask)):
            best_mask, best_val = sub, v
    return best_mask, best_val


# Integer vectors with at least this many nonzero entries are counted by
# matroid partition when the polymatroid has a partition form (count).
# Smaller supports stay on the subset enumeration: at most four subsets,
# whose values the polymatroid memoises. 5 was faster on the
# santa-pipeline benchmark, but moves the oracle queries of cut-network
# cores (CHANGES.md).
MEMBER_SUPPORT = 3


def _check_length(p: PolymatroidOracle, x: Sequence) -> None:
    if len(x) != p.n:
        raise ValueError(f"vector of length {len(x)} for a ground set of size {p.n}")


def _by_partition(p: PolymatroidOracle, integral: bool, k: int, caps: Caps) -> bool:
    """Whether count takes matroid partition (no subsets enumerated) on a
    vector with k nonzero entries, all ints if integral; where it would
    instead enumerate more than caps.sfm_ground of them, the SizeCapError
    that sfm_min raises. member, member_set and headroom ask it before
    their memos, so a memo hit raises what a miss would."""
    if k >= MEMBER_SUPPORT and integral and p.partition_form is not None:
        return True
    if k > caps.sfm_ground:
        raise SizeCapError(f"SFM ground set of size {k} exceeds cap {caps.sfm_ground}")
    return False


def count(p: PolymatroidOracle, x: Sequence[int | Fraction],
          caps: Caps = DEFAULT_CAPS) -> int | Fraction:
    """max y(E) over y <= x in P(f) = min_S f(S) + x(E \\ S) (Edmonds 1970),
    for an integer or rational x >= 0 of length p.n.

    By matroid partition (one value query) where _by_partition says so: the
    network's count when the form has no copies, else the placed total of
    p's kept placement of x (PolymatroidOracle.placement). Any other x is
    counted as x(E) + min f(S) − x(S) by sfm_min over S ⊆ supp x, which is
    exact because f is monotone and x is zero off its support.
    """
    supp = vec_support(x)
    if _by_partition(p, all(isinstance(v, int) for v in x), size(supp), caps):
        stats.counters["poly_value"] += 1
        copies, g = p.partition_form
        return g.count(x) if g is not None and not copies else p.placement(tuple(x)).placed
    return sum(x) + sfm_min(lambda s: p.value(s) - vec_sum(x, s), p.n, caps, restrict=supp)[1]


def member(p: PolymatroidOracle, x: Sequence[int | Fraction], caps: Caps = DEFAULT_CAPS) -> bool:
    """x in P iff its count reaches x(E), i.e. min_S f(S) − x(S) >= 0.

    Accepts integer or rational vectors (rational for scaled box tests) of
    length p.n. Answers are memoised per polymatroid and vector (equal int
    and Fraction vectors share one); the length, sign and cap checks
    run first, so a memo hit raises what a miss would.
    """
    _check_member(p, x, caps)
    key = tuple(x)
    hit = p._member_memo.get(key)
    if hit is None:
        hit = p._member_memo[key] = count(p, x, caps) == sum(x)
    return hit


def member_set(p: PolymatroidOracle, mask: int, h: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """h·1_mask in P, memoised per polymatroid and (mask, h).

    member's checks run first, each O(1) on a mask: mask a subset of the
    ground set, h a nonnegative int, and the enumeration cap when h > 0; so
    a memo hit raises what a miss would. A miss asks member of the vector.
    """
    check_subset(mask, p.n)
    if type(h) is not int or h < 0:
        _check_weights([h], "membership multiplicity")
    if h:
        _by_partition(p, True, size(mask), caps)
    key = (mask, h)
    hit = p._member_set_memo.get(key)
    if hit is None:
        hit = p._member_set_memo[key] = member(p, indicator(mask, p.n, h), caps)
    return hit


def _check_member(p: PolymatroidOracle, x: Sequence[int | Fraction], caps: Caps) -> None:
    """member's checks on x: length, sign, then the enumeration cap."""
    _check_length(p, x)
    if any(v < 0 for v in x):
        raise ValueError("membership is defined for nonnegative vectors")
    _by_partition(p, all(isinstance(v, int) for v in x), size(vec_support(x)), caps)


def headroom(p: PolymatroidOracle, x: Sequence[int], e: int, limit: int,
             caps: Caps = DEFAULT_CAPS) -> int:
    """min(limit, max t with x + t·1_e in P) for a member x, an element e
    and an int limit >= 0, by one count: count(x + limit·1_e) − x(E); at
    limit = f({e}) − x(e), e's saturation slack min_{S ∋ e} f(S) − x(S).

    In count(z) = min_S f(S) + z(E \\ S) for z = x + limit·1_e, a set S ∌ e
    gives f(S) + x(E \\ S) + limit >= x(E) + limit since x(S) <= f(S), and a
    set S ∋ e gives x(E) + f(S) − x(S). After e and limit, member's checks
    run on z, whose support for limit >= 1 is that of x + 1_e.
    """
    _check_length(p, x)
    if type(e) is not int or not 0 <= e < p.n:
        raise ValueError(f"element {e} outside 0..{p.n - 1}")
    if type(limit) is not int or limit < 0:
        _check_weights([limit], "headroom limit")
    z = list(x)
    z[e] += limit
    _check_member(p, z, caps)
    return count(p, z, caps) - sum(x)


class Placement:
    """A maximum split of an integer vector x's units over a partition form
    with copies: masks[i] the elements copy i holds, flow the network
    part's kept ResidualFlow (None without a network part), which holds
    exactly what it carries, left[e] the units of e placed nowhere, and
    placed = x(E) − Σ left, the count of x.

    A unit that finds no exchange path proves the units placed so far plus
    it dependent in the union, and so does every later unit of its element:
    the units are clones, and placing more units only shrinks what fits.
    So a unit of e enters (add) only while no unit of e is left, and a
    placement of x + 1_e is one of x plus at most one exchange path:
    a maximum placement plus a unit that enters is maximum, and one plus a
    unit that does not enter stays maximum (matroid-partition augmentation,
    Edmonds 1968).
    """

    __slots__ = ("copies", "flow", "masks", "left", "placed")

    def __init__(self, copies: tuple, flow: ResidualFlow | None, masks: list[int],
                 left: list[int], placed: int):
        self.copies = copies
        self.flow = flow
        self.masks = masks
        self.left = left
        self.placed = placed

    def copy(self) -> "Placement":
        flow = None if self.flow is None else self.flow.copy()
        return Placement(self.copies, flow, self.masks[:], self.left[:], self.placed)

    def add(self, e: int, units: int = 1) -> None:
        """units more units of e: each enters along a shortest exchange path
        (_enter) until one finds none, or finds a unit of e already left;
        that one and the rest stay left."""
        while units and not self.left[e] and _enter(e, self.copies, self.masks, self.flow):
            self.placed += 1
            units -= 1
        self.left[e] += units


def place(copies: tuple, g: CutNetwork | None, x: Sequence[int]) -> Placement:
    """A maximum placement of x's units on copies and g (plain, or None),
    solved from scratch.

    g takes what one flow with supply min(x, g({e})) carries, then each copy
    takes units greedily in index order, and the units still pending are
    added in element order (Placement.add).

    The exchange search runs on (element, part) nodes, not on units. Two
    units of one element held in one part are clones: swapping their labels
    maps the split to itself, so they have the same exchange edges in and
    out, the search over units reaches them at the same distance, and a
    shortest path uses at most one of them. One representative per
    (element, part) thus finds a shortest path over units, and Edmonds'
    argument for shortest paths keeps every part independent after the
    exchanges. The plain part's checks ("add y", "swap y for z") are one
    residual search of its kept flow (ResidualFlow.exchanges).
    """
    supp = vec_support(x)
    pending = list(x)
    flow = None
    if g is not None:
        flow = g._flow(x)
        for e in bits(supp):
            pending[e] -= min(x[e], g._left[e]) - flow.left_res[e]
            flow.left_res[e] = 0   # g holds exactly what it carries
    masks = [0] * len(copies)
    for i, m in enumerate(copies):
        for e in bits(supp):
            if pending[e] and m.is_independent(masks[i] | 1 << e):
                masks[i] |= 1 << e
                pending[e] -= 1
    placement = Placement(copies, flow, masks, [0] * len(x), sum(x) - sum(pending))
    for e in bits(supp):
        placement.add(e, pending[e])
    return placement


def _enter(e: int, copies: tuple, masks: list[int], flow: ResidualFlow | None) -> bool:
    """Place one more unit of e along a shortest exchange path; False if none.

    A node (y, i) is a unit of y held in part i (None: the new unit, the
    plain part is index len(copies)); an edge (y, i) -> (z, j) means y can
    replace z in part j, and a path ends where a part takes y as it is.
    Applying a path lowers the plain part's supplies before raising any, so
    each step stays within the final member and its flow stays maximum.
    """
    plain = len(copies)
    pred: dict[tuple, tuple | None] = {(e, None): None}
    queue = [(e, None)]
    swaps: dict[int, int | None] = {}   # y -> flow.exchanges(y)
    for node in queue:
        y, home = node
        ybit = 1 << y
        end = None
        for i, m in enumerate(copies):
            s = masks[i]
            if s & ybit:
                continue
            if m.is_independent(s | ybit):
                end = i
                break
            for z in bits(s):
                if (z, i) not in pred and m.is_independent(s ^ (1 << z) | ybit):
                    pred[(z, i)] = node
                    queue.append((z, i))
        if end is None and flow is not None and home != plain:
            if y not in swaps:
                swaps[y] = flow.exchanges(y)
            if swaps[y] is None:
                end = plain
            else:
                for z in bits(swaps[y]):
                    if (z, plain) not in pred:
                        pred[(z, plain)] = node
                        queue.append((z, plain))
        if end is not None:
            raised: list[int] = []
            cur: tuple | None = node
            while cur is not None:
                y, home = cur
                if end == plain:
                    raised.append(y)
                else:
                    masks[end] |= 1 << y
                if home == plain:
                    flow.lower_supply(y, 1)
                elif home is not None:
                    masks[home] &= ~(1 << y)
                cur, end = pred[cur], home
            for y in raised:
                flow.raise_supply(y, 1)
            return True
    return False


def greedy_basis_above(p: PolymatroidOracle, x: Sequence[int],
                       caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """Raise x to a basis (y >= x, y in P, y(E) = f(E)), each element in
    index order by its headroom up to f({e}), until y(E) = f(E)."""
    if not member(p, x, caps):
        raise ValueError("greedy extension requires a member of the polymatroid")
    y = list(x)
    top = p.value(full_mask(p.n))
    for e in range(p.n):
        if sum(y) == top:
            break
        y[e] += headroom(p, y, e, p.value(1 << e) - y[e], caps)
    return tuple(y)


def is_basis(p: PolymatroidOracle, x: Sequence[int], caps: Caps = DEFAULT_CAPS) -> bool:
    return member(p, x, caps) and sum(x) == p.value(full_mask(p.n))
