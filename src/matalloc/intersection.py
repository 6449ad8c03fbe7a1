"""Integer polymatroid intersection by one exchange search.

`max_common_independent` is the one exchange search: the augmenting-path
algorithm with BFS (shortest exchange paths, ties by smallest slot), run
directly on count vectors x <= caps, which is Edmonds' polymatroid
intersection on integer points. Plain matroid intersection is its 0/1 case.
Its first augmentations are one-slot paths, taken at the smallest slot that
gains on both sides; a slot-order fill takes all of them before the first
search (see `max_common_independent`), and on the sum split and the rounding
gadget it takes nearly every unit.

Each of its two sides answers three questions about the current x: may slot
y gain a unit (x + e_y), may y gain one while s loses one (x + e_y − e_s),
and how many units, up to a limit, y can gain (fits), which the fill asks
once per slot. A side is one of two kinds:
- `PartitionBound`: slot s counts toward group[s], and a group holds at most
  its cap, which per-group room answers in O(1);
- `DirectSum`: x is independent iff each block's sub-vector is, so a gain
  asks only the gaining slot's block, and so does a swap across blocks,
  since the losing block stays independent (every side is a matroid on
  units, hence down-closed). A block is a predicate, whose fits takes unit
  steps, or a `Membership` in a polymatroid, whose fits is one count.
A one-block `DirectSum` (every slot in block 0) of a plain predicate is a
predicate on whole count vectors; the tests use it as the reference that
the structured sides must agree with.

The split of a member or basis of a sum polymatroid into the parts and the
rounding gadget both go through it, with `Membership` blocks. `ExpandedMatroid`,
the matroid on unit copies of the slots, is the copy-level reference the
tests compare the search against.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from .bitsets import bits, full_mask, size
from .limits import Caps, DEFAULT_CAPS, ContractViolation, SizeCapError
from .matroids import MatroidOracle
from .polymatroids import PolymatroidOracle, SumPoly, _check_weights, headroom, is_basis, member

Predicate = Callable[[tuple[int, ...]], bool]


class Side:
    """One side of the exchange search, asked about the x of its last reset
    plus the units added since; x is independent for it, and x + e_y − e_s
    is asked only for y != s."""

    def reset(self, x: Sequence[int]) -> None:
        raise NotImplementedError

    def add(self, y: int, units: int = 1) -> None:
        """Move to x + units·e_y, for units that y gains (or, negative, that
        it gained since the reset)."""
        raise NotImplementedError

    def gain(self, y: int) -> bool:
        raise NotImplementedError

    def swap(self, y: int, s: int) -> bool:
        raise NotImplementedError

    def fits(self, y: int, limit: int) -> int:
        """The most units t <= limit with x + t·e_y independent: by unit
        steps through gain and add, then back to x. The side is down-closed,
        so the first unit refused ends the steps."""
        t = 0
        while t < limit and self.gain(y):
            self.add(y)
            t += 1
        self.add(y, -t)
        return t


class PartitionBound(Side):
    """x is independent iff every group g holds at most cap[g] units, slot s
    counting toward group[s] (a partition matroid on units)."""

    def __init__(self, group: Sequence[int], cap: Sequence[int]):
        self.group, self.cap = group, cap

    def reset(self, x: Sequence[int]) -> None:
        self.room = list(self.cap)
        for g, c in zip(self.group, x):
            self.room[g] -= c

    def add(self, y: int, units: int = 1) -> None:
        self.room[self.group[y]] -= units

    def gain(self, y: int) -> bool:
        return self.room[self.group[y]] > 0

    def swap(self, y: int, s: int) -> bool:
        g = self.group[y]
        return g == self.group[s] or self.room[g] > 0

    def fits(self, y: int, limit: int) -> int:
        return max(0, min(limit, self.room[self.group[y]]))


class Membership:
    """A DirectSum block: its sub-vector is independent iff the vector on
    p's ground set that adds entry k of the sub-vector onto element at[k] is
    a member of p. fits counts how far one entry can rise by one count."""

    def __init__(self, p: PolymatroidOracle, at: Sequence[int], caps: Caps = DEFAULT_CAPS):
        self.p, self.at, self.caps = p, at, caps

    def vector(self, sub: Sequence[int]) -> list[int]:
        vec = [0] * self.p.n
        for e, c in zip(self.at, sub):
            vec[e] += c
        return vec

    def __call__(self, sub: tuple[int, ...]) -> bool:
        return member(self.p, self.vector(sub), self.caps)

    def fits(self, sub: Sequence[int], k: int, limit: int) -> int:
        """The most units t <= limit that sub's entry k can gain, for an
        independent sub and limit >= 1 (polymatroids.headroom)."""
        return headroom(self.p, self.vector(sub), self.at[k], limit, self.caps)


class DirectSum(Side):
    """x is independent iff preds[b] accepts each block b's sub-vector (the
    entries of the slots s with block[s] == b, in slot order). fits asks a
    `Membership` block one count, and any other block unit steps."""

    def __init__(self, block: Sequence[int], preds: Sequence[Predicate | Membership]):
        self.block, self.preds = block, preds
        self.slots: list[list[int]] = [[] for _ in preds]
        self.pos = []   # slot -> its index in its block's sub-vector
        for s, b in enumerate(block):
            self.pos.append(len(self.slots[b]))
            self.slots[b].append(s)

    def reset(self, x: Sequence[int]) -> None:
        self.sub = [[x[s] for s in slots] for slots in self.slots]

    def add(self, y: int, units: int = 1) -> None:
        self.sub[self.block[y]][self.pos[y]] += units

    def gain(self, y: int) -> bool:
        b = self.block[y]
        v = list(self.sub[b])
        v[self.pos[y]] += 1
        return self.preds[b](tuple(v))

    def swap(self, y: int, s: int) -> bool:
        b = self.block[y]
        if self.block[s] != b:
            return self.gain(y)
        v = list(self.sub[b])
        v[self.pos[y]] += 1
        v[self.pos[s]] -= 1
        return self.preds[b](tuple(v))

    def fits(self, y: int, limit: int) -> int:
        b = self.block[y]
        pred = self.preds[b]
        if limit and isinstance(pred, Membership):
            return pred.fits(self.sub[b], self.pos[y], limit)
        return super().fits(y, limit)


def max_common_independent(caps: Sequence[int], side1: Side, side2: Side,
                           limit: int) -> tuple[int, ...]:
    """A maximum-size count vector x <= caps independent for both sides;
    each side must make the multisets of its units a matroid (the unit
    copies of an integer polymatroid are one). The slot caps must be
    nonnegative integers (ValueError). More than limit units in all
    (sum(caps), the largest total x may reach) raise SizeCapError before
    either side is asked anything.

    A node of the exchange digraph is a slot on one side of x: an outside
    slot (x[s] < caps[s]) gains a unit, an inside slot (x[s] > 0) loses one.
    The augmenting paths are those of the copy-level search over unit copies
    in slot order: the copies of a slot on one side of x are interchangeable,
    so that search only ever needs the lowest of them.

    Before the first search, slots are filled in index order, each with as
    many units as fit on both sides, up to its cap: side 2's fits first, so
    a slot it refuses costs side 1 nothing, then side 1's within that.
    These are exactly the augmentations the search would take first, so x
    comes out the same:
    - while some slot gains on both sides, the search returns the one-slot
      path at the smallest such slot, since sources are queued in slot order
      ahead of every other node and the first one that is also a sink ends
      the search;
    - a slot that does not gain on a side at x gains there at no larger x
      (each side is down-closed), and a slot at its cap stays there, so that
      smallest slot never moves back;
    - one unit at a time, a slot stops at the first unit either side
      refuses, which is the smaller of the two sides' fits.
    """
    _check_weights(caps, "slot caps")
    units = sum(caps)
    if units > limit:
        raise SizeCapError(f"count-vector search over {units} units exceeds cap {limit}")
    x = [0] * len(caps)
    side1.reset(x)
    side2.reset(x)
    for y, cap in enumerate(caps):
        t = side1.fits(y, side2.fits(y, cap))
        if t:
            x[y] = t
            side1.add(y, t)
            side2.add(y, t)
    while _augment(caps, side1, side2, x):
        pass
    return tuple(x)


def _augment(caps: Sequence[int], side1: Side, side2: Side, x: list[int]) -> bool:
    """Apply one shortest augmenting path to x in place; False if none."""
    n = len(caps)
    side1.reset(x)
    side2.reset(x)
    outside = [s for s in range(n) if x[s] < caps[s]]   # node s
    # every path ends at a sink, so with none side 1 is asked nothing; after
    # a fill that takes every unit, this is how the last search ends
    sinks = {y for y in outside if side2.gain(y)}
    if not sinks:
        return False
    inside = [s for s in range(n) if x[s]]              # node n + s
    sources = [y for y in outside if side1.gain(y)]
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
    peeled off at a time to keep the search to 2n slots: parts[0] against
    the sum of parts[1:], then the rest of the parts.
    """
    if not parts:
        raise ValueError("a split needs at least one part")
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
        first, remainder = decompose_in_sum([parts[0], SumPoly(parts[1:])], y, caps)
        return [first] + decompose_in_sum(parts[1:], remainder, caps)

    got = max_common_independent(
        [min(p.value(1 << e), y[e]) for p in parts for e in range(n)],
        DirectSum([j for j in range(2) for _ in range(n)],
                  [Membership(p, range(n), caps) for p in parts]),
        PartitionBound(list(range(n)) * 2, y), caps.expand)
    if sum(got) != sum(y):
        raise ContractViolation(
            "decomposition fell short: y does not belong to the sum polymatroid")
    return [got[:n], got[n:]]


def decompose_merged_basis(parts: Sequence[PolymatroidOracle], y: Sequence[int],
                           caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Split a basis y of the sum polymatroid into bases y_j of the parts."""
    if not parts:
        raise ValueError("a split needs at least one part")
    n = parts[0].n
    total = sum(p.value(full_mask(n)) for p in parts)
    if sum(y) != total:
        raise ContractViolation("y is not a basis of the sum polymatroid")
    out = decompose_in_sum(parts, y, caps)
    for j, p in enumerate(parts):
        if not is_basis(p, out[j], caps):
            raise ContractViolation(f"decomposed part {j} is not a basis")
    return out
