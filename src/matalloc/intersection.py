"""Matroid intersection and integer polymatroid intersection.

Matroid intersection is the classical augmenting-path algorithm with BFS
(shortest exchange paths, ties by smallest index). Integer polymatroid
intersection goes through the standard parallel-copy expansion, which
realizes a polymatroid as a matroid on copies; membership of a copy set
is membership of its multiplicity vector. The same machinery decomposes
a basis of a sum polymatroid into bases of the parts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .bitsets import bits, full_mask, size, vec_support
from .limits import Caps, DEFAULT_CAPS, ContractViolation, SizeCapError
from .matroids import MatroidOracle
from .polymatroids import PolymatroidOracle, is_basis, member


def max_common_independent(n: int, indep1: Callable[[int], bool],
                           indep2: Callable[[int], bool]) -> int:
    """Maximum-cardinality common independent set of two matroids given as
    independence predicates on bitmasks over 0..n-1."""
    cur = 0
    while True:
        nxt = _augment(n, indep1, indep2, cur)
        if nxt is None:
            return cur
        cur = nxt


def _augment(n: int, indep1, indep2, cur: int) -> int | None:
    outside = [y for y in range(n) if not (cur >> y) & 1]
    sources = [y for y in outside if indep1(cur | (1 << y))]
    sinks = {y for y in outside if indep2(cur | (1 << y))}
    if not sources:
        return None
    # BFS over the exchange digraph: for y outside, x inside,
    # y -> x when cur - x + y is independent in M2,
    # x -> y when cur - x + y is independent in M1.
    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for y in sources:
        parent[y] = None
        queue.append(y)
    inside = list(bits(cur))
    while queue:
        v = queue.popleft()
        if not (cur >> v) & 1:
            if v in sinks:
                path = 0
                node: int | None = v
                while node is not None:
                    path |= 1 << node
                    node = parent[node]
                return cur ^ path
            swap_base = cur | (1 << v)
            for x in inside:
                if x not in parent and indep2(swap_base ^ (1 << x)):
                    parent[x] = v
                    queue.append(x)
        else:
            swap_base = cur ^ (1 << v)
            for y in outside:
                if y not in parent and indep1(swap_base | (1 << y)):
                    parent[y] = v
                    queue.append(y)
    return None


def matroid_intersection_max(m1: MatroidOracle, m2: MatroidOracle) -> int:
    """A maximum-cardinality common independent set (as a bitmask)."""
    if m1.n != m2.n:
        raise ValueError("matroid intersection requires a shared ground set")
    return max_common_independent(m1.n, m1.is_independent, m2.is_independent)


@dataclass(frozen=True)
class ExpandedGround:
    """Parallel-copy ground set: copy index -> original element."""

    original_n: int
    owner: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.owner)

    def counts(self, mask: int) -> tuple[int, ...]:
        c = [0] * self.original_n
        for idx in bits(mask):
            c[self.owner[idx]] += 1
        return tuple(c)

    def mask_for(self, vec: Sequence[int]) -> int:
        remaining = list(vec)
        mask = 0
        for idx, e in enumerate(self.owner):
            if remaining[e] > 0:
                mask |= 1 << idx
                remaining[e] -= 1
        if any(remaining):
            raise ValueError("vector exceeds copy multiplicities")
        return mask


class ExpandedMatroid(MatroidOracle):
    """The matroid on parallel copies induced by an integer polymatroid.

    A copy set is independent iff its multiplicity vector belongs to the
    polymatroid; the rank of a copy set with counts c is
    min_{T ⊆ E} f(T) + c(E \\ T).
    """

    def __init__(self, poly: PolymatroidOracle, ground: ExpandedGround):
        super().__init__(ground.n)
        self.poly = poly
        self.ground = ground
        self._count_indep: dict[tuple[int, ...], bool] = {}

    def _rank(self, mask: int) -> int:
        counts = self.ground.counts(mask)
        return self.poly.capped(counts).value(vec_support(counts))

    def is_independent(self, mask: int) -> bool:
        counts = self.ground.counts(mask)
        hit = self._count_indep.get(counts)
        if hit is None:
            hit = self._count_indep[counts] = member(self.poly, counts)
        return hit


def unit_expand(p: PolymatroidOracle, caps_vec: Sequence[int],
                caps: Caps = DEFAULT_CAPS) -> tuple[ExpandedGround, ExpandedMatroid]:
    """Expand a polymatroid into a matroid on caps_vec[e] parallel copies of each e."""
    if len(caps_vec) != p.n:
        raise ValueError("one copy count per element required")
    owner = tuple(e for e in range(p.n) for _ in range(caps_vec[e]))
    if len(owner) > caps.expand:
        raise SizeCapError(f"expansion size {len(owner)} exceeds cap {caps.expand}")
    ground = ExpandedGround(p.n, owner)
    return ground, ExpandedMatroid(p, ground)


def polymatroid_intersection_max(p1: PolymatroidOracle, p2: PolymatroidOracle,
                                 caps_vec: Sequence[int],
                                 caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """max x(E) over x in P1 ∩ P2 with x <= caps_vec, via unit expansion."""
    if p1.n != p2.n:
        raise ValueError("polymatroid intersection requires a shared ground set")
    eff = [min(caps_vec[e], p1.value(1 << e), p2.value(1 << e)) for e in range(p1.n)]
    ground, m1 = unit_expand(p1, eff, caps)
    m2 = ExpandedMatroid(p2, ground)
    best = max_common_independent(ground.n, m1.is_independent, m2.is_independent)
    return ground.counts(best)


def decompose_in_sum(parts: Sequence[PolymatroidOracle], y: Sequence[int],
                     caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Split y, a member of the sum polymatroid, into members of the parts
    summing to y exactly.

    Copies of element e are shared out among the parts by intersecting the
    disjoint-copy sum polymatroid with the per-element degree polymatroid
    whose bases put exactly y(e) units on the copies of e. With more than
    two parts, one part is peeled off at a time to keep the copy ground
    small.
    """
    from .polymatroids import SumPoly

    n = parts[0].n
    if any(p.n != n for p in parts):
        raise ValueError("parts must share the ground set")
    if len(y) != n:
        raise ValueError("vector length mismatch")
    if len(parts) == 1:
        if not member(parts[0], y, caps):
            raise ContractViolation("y is not a member of the single part")
        return [tuple(y)]
    if len(parts) > 2:
        head, rest = parts[0], SumPoly(parts[1:])
        first, remainder = decompose_in_sum([head, rest], y, caps)
        return [first] + decompose_in_sum(parts[1:], remainder, caps)

    # copy ground: one copy per unit of min(f_j({e}), y(e)) for each (part, element)
    slots: list[tuple[int, int]] = []
    for j, p in enumerate(parts):
        for e in range(n):
            for _ in range(min(p.value(1 << e), y[e])):
                slots.append((j, e))
    if len(slots) > caps.expand:
        raise SizeCapError(f"decomposition expansion size {len(slots)} exceeds cap {caps.expand}")

    def counts_by_part(mask: int) -> list[list[int]]:
        per = [[0] * n for _ in parts]
        for idx in bits(mask):
            j, e = slots[idx]
            per[j][e] += 1
        return per

    memo1: dict[int, bool] = {}
    memo2: dict[int, bool] = {}

    def indep_sum(mask: int) -> bool:
        hit = memo1.get(mask)
        if hit is None:
            per = counts_by_part(mask)
            hit = memo1[mask] = all(member(parts[j], per[j], caps) for j in range(len(parts)))
        return hit

    def indep_degree(mask: int) -> bool:
        hit = memo2.get(mask)
        if hit is None:
            deg = [0] * n
            for idx in bits(mask):
                deg[slots[idx][1]] += 1
            hit = memo2[mask] = all(deg[e] <= y[e] for e in range(n))
        return hit

    best = max_common_independent(len(slots), indep_sum, indep_degree)
    if size(best) != sum(y):
        raise ContractViolation(
            "decomposition fell short: y does not belong to the sum polymatroid")
    return [tuple(v) for v in counts_by_part(best)]


def decompose_merged_basis(parts: Sequence[PolymatroidOracle], y: Sequence[int],
                           caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Split a basis y of the sum polymatroid into bases y_j of the parts."""
    n = parts[0].n
    total = sum(p.value(full_mask(n)) for p in parts)
    if sum(y) != total:
        raise ContractViolation("y is not a basis of the sum polymatroid")
    out = decompose_in_sum(parts, y, caps)
    for j, p in enumerate(parts):
        if not is_basis(p, out[j], caps):
            raise ContractViolation(f"decomposed part {j} is not a basis")
    return out
