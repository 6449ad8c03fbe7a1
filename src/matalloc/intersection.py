"""Integer polymatroid intersection by one exchange search.

`max_common_independent` is the one exchange search: the augmenting-path
algorithm with BFS (shortest exchange paths, ties by smallest slot), run
directly on count vectors x <= caps, which is Edmonds' polymatroid
intersection on integer points. Plain matroid intersection is its 0/1 case.

Each of its two sides answers two questions about the current x: may slot y
gain a unit (x + e_y), and may y gain one while s loses one (x + e_y − e_s).
A side is one of two kinds:
- `PartitionBound`: slot s counts toward group[s], and a group holds at most
  its cap, which per-group room answers in O(1);
- `DirectSum`: x is independent iff each block's sub-vector is, so a gain
  asks only the gaining slot's block, and so does a swap across blocks,
  since the losing block stays independent (every side is a matroid on
  units, hence down-closed).
A one-block `DirectSum` (every slot in block 0) is a predicate on whole
count vectors, asked once per distinct vector; the tests use it as the
reference that the structured sides must agree with.

The split of a member or basis of a sum polymatroid into the parts and the
rounding gadget both go through it. `ExpandedMatroid`, the matroid on unit
copies of the slots, is the copy-level reference the tests compare the
search against.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from typing import Callable, Sequence

from .bitsets import bits, full_mask, size
from .limits import Caps, DEFAULT_CAPS, ContractViolation, SizeCapError
from .matroids import MatroidOracle
from .polymatroids import PolymatroidOracle, SumPoly, is_basis, member

Predicate = Callable[[tuple[int, ...]], bool]


class Side:
    """One side of the exchange search, asked about the x of its last reset;
    x is independent for it, and x + e_y − e_s is asked only for y != s."""

    def reset(self, x: Sequence[int]) -> None:
        raise NotImplementedError

    def gain(self, y: int) -> bool:
        raise NotImplementedError

    def swap(self, y: int, s: int) -> bool:
        raise NotImplementedError


class PartitionBound(Side):
    """x is independent iff every group g holds at most cap[g] units, slot s
    counting toward group[s] (a partition matroid on units)."""

    def __init__(self, group: Sequence[int], cap: Sequence[int]):
        self.group, self.cap = group, cap

    def reset(self, x: Sequence[int]) -> None:
        self.room = list(self.cap)
        for g, c in zip(self.group, x):
            self.room[g] -= c

    def gain(self, y: int) -> bool:
        return self.room[self.group[y]] > 0

    def swap(self, y: int, s: int) -> bool:
        g = self.group[y]
        return g == self.group[s] or self.room[g] > 0


class DirectSum(Side):
    """x is independent iff preds[b] accepts each block b's sub-vector (the
    entries of the slots s with block[s] == b, in slot order); each block's
    answers are memoised per sub-vector."""

    def __init__(self, block: Sequence[int], preds: Sequence[Predicate]):
        self.block, self.preds = block, [cache(p) for p in preds]
        self.slots: list[list[int]] = [[] for _ in preds]
        self.pos = []   # slot -> its index in its block's sub-vector
        for s, b in enumerate(block):
            self.pos.append(len(self.slots[b]))
            self.slots[b].append(s)

    def reset(self, x: Sequence[int]) -> None:
        self.sub = [[x[s] for s in slots] for slots in self.slots]
        self.gains: dict[int, bool] = {}

    def gain(self, y: int) -> bool:
        hit = self.gains.get(y)
        if hit is None:
            b = self.block[y]
            v = list(self.sub[b])
            v[self.pos[y]] += 1
            hit = self.gains[y] = self.preds[b](tuple(v))
        return hit

    def swap(self, y: int, s: int) -> bool:
        b = self.block[y]
        if self.block[s] != b:
            return self.gain(y)
        v = list(self.sub[b])
        v[self.pos[y]] += 1
        v[self.pos[s]] -= 1
        return self.preds[b](tuple(v))


def max_common_independent(caps: Sequence[int], side1: Side, side2: Side,
                           limit: int) -> tuple[int, ...]:
    """A maximum-size count vector x <= caps independent for both sides;
    each side must make the multisets of its units a matroid (the unit
    copies of an integer polymatroid are one). More than limit units in all
    (sum(caps), the largest total x may reach) raise SizeCapError before
    either side is asked anything.

    A node of the exchange digraph is a slot on one side of x: an outside
    slot (x[s] < caps[s]) gains a unit, an inside slot (x[s] > 0) loses one.
    The augmenting paths are those of the copy-level search over unit copies
    in slot order: the copies of a slot on one side of x are interchangeable,
    so that search only ever needs the lowest of them.
    """
    units = sum(caps)
    if units > limit:
        raise SizeCapError(f"count-vector search over {units} units exceeds cap {limit}")
    x = [0] * len(caps)
    while _augment(caps, side1, side2, x):
        pass
    return tuple(x)


def _augment(caps: Sequence[int], side1: Side, side2: Side, x: list[int]) -> bool:
    """Apply one shortest augmenting path to x in place; False if none."""
    n = len(caps)
    side1.reset(x)
    side2.reset(x)
    outside = [s for s in range(n) if x[s] < caps[s]]   # node s
    inside = [s for s in range(n) if x[s]]              # node n + s
    sources, sinks = [], set()
    for y in outside:
        if side1.gain(y):
            sources.append(y)
        if side2.gain(y):
            sinks.add(y)
    # BFS over the exchange digraph: y -> n + s when x + e_y - e_s is
    # independent for side2, n + s -> y when it is independent for side1
    # (for y == s that is x itself)
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
        if v < n:
            for s in inside:
                if n + s not in parent and (s == v or side2.swap(v, s)):
                    parent[n + s] = v
                    queue.append(n + s)
        else:
            s = v - n
            for y in outside:
                if y not in parent and (y == s or side1.swap(y, s)):
                    parent[y] = v
                    queue.append(y)
    return False


class ExpandedMatroid(MatroidOracle):
    """The matroid on parallel copies of slots: copy c is a unit of slot
    owner[c], and a copy set is independent iff its count vector (units per
    slot) satisfies indep. indep is asked once per distinct count vector.

    The copy-level reference for the slot-level search: the tests run a
    textbook matroid intersection of their own over these copies, and
    counts reads its result back as a count vector. The library itself
    never builds one; it stays while the tests use it and perfbench/spans.py
    counts is_independent under its name.
    """

    def __init__(self, owner: Sequence[int], num_slots: int, indep: Predicate):
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


def decompose_in_sum(parts: Sequence[PolymatroidOracle], y: Sequence[int],
                     caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Split y, a member of the sum polymatroid, into members of the parts
    summing to y exactly.

    Units of element e are shared out among the parts by intersecting the
    direct sum of the parts (slot (j, e) at index j*n + e) with the
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

    got = max_common_independent(
        [min(p.value(1 << e), y[e]) for p in parts for e in range(n)],
        DirectSum([j for j in range(2) for _ in range(n)],
                  [lambda x, p=p: member(p, x, caps) for p in parts]),
        PartitionBound(list(range(n)) * 2, y), caps.expand)
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
