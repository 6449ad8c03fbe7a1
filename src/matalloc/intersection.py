"""Matroid intersection and integer polymatroid intersection.

Matroid intersection is the classical augmenting-path algorithm with BFS
(shortest exchange paths, ties by smallest index). `max_common_vector` is
the one parallel-copy intersection: it expands integer slots into unit
copies, realizes each count-vector predicate as a matroid on the copies,
and intersects them, searching one copy per slot on each side. Polymatroid
intersection, the split of a member or basis of a sum polymatroid into the
parts, and the rounding gadget all go through it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Sequence

from .bitsets import bits, full_mask, size
from .limits import Caps, DEFAULT_CAPS, ContractViolation, SizeCapError
from .matroids import MatroidOracle
from .polymatroids import PolymatroidOracle, is_basis, member


def max_common_independent(n: int, indep1: Callable[[int], bool],
                           indep2: Callable[[int], bool],
                           classes: Sequence[Hashable] | None = None) -> int:
    """Maximum-cardinality common independent set of two matroids given as
    independence predicates on bitmasks over 0..n-1.

    classes[e] names e's class. Elements of one class must be clones:
    swapping two of them keeps every independent set independent in both
    matroids, as swapping two copies of one slot does in max_common_vector.
    The BFS then visits only the lowest-index element of each class on each
    side of the current set, and returns the augmenting path of a BFS over
    all elements. Clones on one side have the same arcs and the same sink
    status, so that BFS discovers them together, from one parent, in index
    order. The lowest pops first; a later clone then reaches nothing new and
    is a sink only if the lowest was one. The shortest path it returns
    therefore never visits two clones, nor any clone but the lowest.
    """
    cur = 0
    while True:
        nxt = _augment(n, indep1, indep2, cur, classes)
        if nxt is None:
            return cur
        cur = nxt


def _augment(n: int, indep1, indep2, cur: int, classes) -> int | None:
    # the lowest-index element of each class on each side of cur
    outside: list[int] = []
    inside: list[int] = []
    seen: set = set()
    for e in range(n):
        side = (cur >> e) & 1
        key = (side, e if classes is None else classes[e])
        if key not in seen:
            seen.add(key)
            (inside if side else outside).append(e)
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


class ExpandedMatroid(MatroidOracle):
    """The matroid on parallel copies of slots: copy c is a unit of slot
    owner[c], and a copy set is independent iff its count vector (units per
    slot) satisfies indep. indep is asked once per distinct count vector.
    """

    def __init__(self, owner: Sequence[int], num_slots: int,
                 indep: Callable[[tuple[int, ...]], bool]):
        super().__init__(len(owner))
        self.slot_masks = [0] * num_slots  # slot -> mask of its copies
        for idx, slot in enumerate(owner):
            self.slot_masks[slot] |= 1 << idx
        self.indep = indep
        self._count_indep: dict[tuple[int, ...], bool] = {}

    def counts(self, mask: int) -> tuple[int, ...]:
        return tuple([(mask & sm).bit_count() for sm in self.slot_masks])

    def _rank(self, mask: int) -> int:
        # greedy: every maximal independent subset of a matroid set is a basis of it
        kept = 0
        for idx in bits(mask):
            if self.is_independent(kept | (1 << idx)):
                kept |= 1 << idx
        return size(kept)

    def is_independent(self, mask: int) -> bool:
        counts = self.counts(mask)
        hit = self._count_indep.get(counts)
        if hit is None:
            hit = self._count_indep[counts] = self.indep(counts)
        return hit


def max_common_vector(slot_caps: Sequence[int], indep1: Callable[[tuple[int, ...]], bool],
                      indep2: Callable[[tuple[int, ...]], bool], limit: int) -> tuple[int, ...]:
    """A maximum-size count vector x <= slot_caps independent for both
    count-vector predicates (each must make its copy sets a matroid).

    Slot s becomes slot_caps[s] parallel copies, in slot order, and the two
    copy-ground matroids are intersected with the copies of a slot as one
    class; more than limit copies raise SizeCapError.
    """
    owner = [s for s, c in enumerate(slot_caps) for _ in range(c)]
    if len(owner) > limit:
        raise SizeCapError(f"parallel-copy expansion of {len(owner)} copies exceeds cap {limit}")
    m1 = ExpandedMatroid(owner, len(slot_caps), indep1)
    m2 = ExpandedMatroid(owner, len(slot_caps), indep2)
    return m1.counts(max_common_independent(m1.n, m1.is_independent, m2.is_independent, owner))


def polymatroid_intersection_max(p1: PolymatroidOracle, p2: PolymatroidOracle,
                                 caps_vec: Sequence[int],
                                 caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """max x(E) over x in P1 ∩ P2 with x <= caps_vec."""
    if p1.n != p2.n:
        raise ValueError("polymatroid intersection requires a shared ground set")
    eff = [min(caps_vec[e], p1.value(1 << e), p2.value(1 << e)) for e in range(p1.n)]
    return max_common_vector(eff, lambda x: member(p1, x, caps), lambda x: member(p2, x, caps),
                             caps.expand)


def decompose_in_sum(parts: Sequence[PolymatroidOracle], y: Sequence[int],
                     caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Split y, a member of the sum polymatroid, into members of the parts
    summing to y exactly.

    Units of element e are shared out among the parts by intersecting the
    disjoint sum of the parts (slot (j, e) at index j*n + e) with the
    per-element degree bound y(e). With more than two parts, one part is
    peeled off at a time to keep the copy ground small.
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

    got = max_common_vector(
        [min(p.value(1 << e), y[e]) for p in parts for e in range(n)],
        lambda x: all(member(p, x[j * n:(j + 1) * n], caps) for j, p in enumerate(parts)),
        lambda x: all(x[e] + x[n + e] <= y[e] for e in range(n)),
        caps.expand)
    if sum(got) != sum(y):
        raise ContractViolation(
            "decomposition fell short: y does not belong to the sum polymatroid")
    return [got[:n], got[n:]]


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
