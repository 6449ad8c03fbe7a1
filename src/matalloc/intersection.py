"""Matroid intersection and integer polymatroid intersection.

`max_common_independent` is the one exchange search: the augmenting-path
algorithm with BFS (shortest exchange paths, ties by smallest slot), run
directly on count vectors x <= caps, which is Edmonds' polymatroid
intersection on integer points. Plain matroid intersection is its 0/1 case.
`max_common_vector` memoises both predicates per count vector and bounds the
total size of the box; polymatroid intersection, the split of a member or
basis of a sum polymatroid into the parts, and the rounding gadget all go
through it. `ExpandedMatroid`, the matroid on unit copies of the slots, is
the copy-level reference the tests compare the search against.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from typing import Callable, Sequence

from .bitsets import bits, full_mask, size, vec_support
from .limits import Caps, DEFAULT_CAPS, ContractViolation, SizeCapError
from .matroids import MatroidOracle
from .polymatroids import PolymatroidOracle, SumPoly, is_basis, member


def max_common_independent(caps: Sequence[int], indep1: Callable[[tuple[int, ...]], bool],
                           indep2: Callable[[tuple[int, ...]], bool]) -> tuple[int, ...]:
    """A maximum-size count vector x <= caps independent for both predicates,
    each of which must make the multisets of its units a matroid (the unit
    copies of an integer polymatroid are one).

    A node of the exchange digraph is a slot on one side of x: an outside
    slot (x[s] < caps[s]) gains a unit, an inside slot (x[s] > 0) loses one.
    The augmenting paths are those of the copy-level search over unit copies
    in slot order: the copies of a slot on one side of x are interchangeable,
    so that search only ever needs the lowest of them.
    """
    x = [0] * len(caps)
    while _augment(caps, indep1, indep2, x):
        pass
    return tuple(x)


def _augment(caps: Sequence[int], indep1, indep2, x: list[int]) -> bool:
    """Apply one shortest augmenting path to x in place; False if none."""
    n = len(caps)
    outside = [s for s in range(n) if x[s] < caps[s]]   # node s
    inside = [n + s for s in range(n) if x[s]]          # node n + s
    sources, sinks = [], set()
    for y in outside:
        x[y] += 1
        if indep1(tuple(x)):
            sources.append(y)
        if indep2(tuple(x)):
            sinks.add(y)
        x[y] -= 1
    # BFS over the exchange digraph: y -> n + s when x + e_y - e_s is
    # independent for indep2, n + s -> y when it is independent for indep1
    parent: dict[int, int | None] = dict.fromkeys(sources)
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        if v in sinks:
            node: int | None = v
            while node is not None:
                x[node % n] += 1 if node < n else -1
                node = parent[node]
            return True
        swap = list(x)
        swap[v % n] += 1 if v < n else -1
        targets, indep, step = (inside, indep2, -1) if v < n else (outside, indep1, 1)
        for w in targets:
            if w not in parent:
                swap[w % n] += step
                if indep(tuple(swap)):
                    parent[w] = v
                    queue.append(w)
                swap[w % n] -= step
    return False


def matroid_intersection_max(m1: MatroidOracle, m2: MatroidOracle) -> int:
    """A maximum-cardinality common independent set (as a bitmask)."""
    if m1.n != m2.n:
        raise ValueError("matroid intersection requires a shared ground set")
    return vec_support(max_common_independent(
        [1] * m1.n, lambda x: m1.is_independent(vec_support(x)),
        lambda x: m2.is_independent(vec_support(x))))


class ExpandedMatroid(MatroidOracle):
    """The matroid on parallel copies of slots: copy c is a unit of slot
    owner[c], and a copy set is independent iff its count vector (units per
    slot) satisfies indep. indep is asked once per distinct count vector.

    The copy-level reference for the slot-level search: the tests run a
    textbook matroid intersection of their own over these copies, and
    counts reads its result back as a count vector.
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
    """max_common_independent over slot_caps with each predicate asked once
    per distinct count vector; more than limit units in all (sum(slot_caps),
    the largest total a count vector may reach) raise SizeCapError."""
    units = sum(slot_caps)
    if units > limit:
        raise SizeCapError(f"count-vector search over {units} units exceeds cap {limit}")
    return max_common_independent(slot_caps, cache(indep1), cache(indep2))


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
    peeled off at a time to keep the search to 2n slots.
    """
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
