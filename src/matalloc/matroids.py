"""Matroid rank oracles.

Concrete families (uniform, partition, graphic, transversal, explicit
table) plus derived forms (contraction, element zeroing, union, and the
matroid induced by an integer polymatroid). All oracles are immutable
after construction and memoize rank queries per instance; each also keeps
the cover outcomes solve_cover reached on it. A transversal rank is one flow
on an arc numbering built once; union and induced ranks are polymatroid counts.
"""

from __future__ import annotations

from typing import Sequence

from . import stats
from .bitsets import bits, check_subset, indicator, size
# unused max_bipartite_matching stays bound: perfbench/test_bench.py checks its tracer rebinds it
from .matching import ArcNumbering, ResidualFlow, max_bipartite_matching  # noqa: F401
from .polymatroids import ScaledRankPoly, SumPoly, _check_weights, count


class MatroidOracle:
    """Rank oracle r: 2^E -> Z>=0 with the matroid axioms."""

    def __init__(self, n: int):
        _check_weights([n], "ground set size")
        self.n = n
        self._memo: dict[int, int] = {}
        # localsearch.solve_cover's outcomes on this matroid, keyed by
        # (polymatroid, b, eps, caps)
        self._covers: dict[tuple, object] = {}

    def rank(self, mask: int) -> int:
        """r(mask), one query. A memo hit on an int mask is one lookup:
        only masks that passed check_subset are memoised, so a hit raises
        nothing a miss would. Any other key is checked first."""
        if type(mask) is int:
            hit = self._memo.get(mask)
            if hit is not None:
                stats.counters["matroid_rank"] += 1
                return hit
        check_subset(mask, self.n)
        stats.counters["matroid_rank"] += 1
        hit = self._memo.get(mask)
        if hit is None:
            hit = self._memo[mask] = self._rank(mask)
        return hit

    def _rank(self, mask: int) -> int:
        raise NotImplementedError

    def is_independent(self, mask: int) -> bool:
        return self.rank(mask) == size(mask)

    def rank_marginal(self, add: int, base: int) -> int:
        """r(Y | X) = r(Y ∪ X) − r(X), defined for any Y (overlap allowed)."""
        return self.rank(add | base) - self.rank(base)


class UniformMatroid(MatroidOracle):
    """r(X) = min(|X|, k). Rank n-1 over n elements is the gap-instance matroid."""

    def __init__(self, n: int, k: int):
        super().__init__(n)
        if not 0 <= k <= n:
            raise ValueError(f"uniform rank {k} outside 0..{n}")
        _check_weights([k], "uniform rank")
        self.k = k

    def _rank(self, mask: int) -> int:
        return min(size(mask), self.k)


class PartitionMatroid(MatroidOracle):
    """At most caps[i] elements from blocks[i]; blocks must partition E."""

    def __init__(self, n: int, blocks: Sequence[int], caps: Sequence[int]):
        super().__init__(n)
        if len(blocks) != len(caps):
            raise ValueError("one capacity per block required")
        _check_weights(caps, "partition caps")
        union = 0
        for b in blocks:
            if b & union:
                raise ValueError("partition blocks overlap")
            union |= b
        # union == full_mask(n), without forming 1 << n for an n the blocks
        # do not reach
        if union.bit_length() != n or union & (union + 1):
            raise ValueError("partition blocks must cover the ground set")
        self.blocks = tuple(blocks)
        self.caps = tuple(caps)

    def _rank(self, mask: int) -> int:
        return sum(min(size(mask & b), c) for b, c in zip(self.blocks, self.caps))


class GraphicMatroid(MatroidOracle):
    """Elements are edges of a multigraph; rank = |V touched| − #components.
    The rank runs union-find over the endpoints the edges name, relabelled
    0..k−1 in order of first appearance, so its size does not follow
    num_vertices."""

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        _check_weights([num_vertices], "graphic vertices")
        for u, v in edges:
            _check_weights([u, v], "graphic edge endpoints")
            if not (u < num_vertices and v < num_vertices):
                raise ValueError(f"edge ({u},{v}) out of vertex range")
        self.num_vertices = num_vertices
        self.edges = tuple(tuple(e) for e in edges)
        label: dict[int, int] = {}
        self._ends = [(label.setdefault(u, len(label)), label.setdefault(v, len(label)))
                      for u, v in self.edges]
        self._num_ends = len(label)

    def _rank(self, mask: int) -> int:
        parent = list(range(self._num_ends))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        r = 0
        for e in bits(mask):
            u, v = self._ends[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r


class TransversalMatroid(MatroidOracle):
    """adjacency[e] is a bitmask of right-side vertices e may be matched to.
    A rank is one unit-capacity flow on one arc numbering over the right
    vertices named, numbered densely in ascending order, so its size follows
    neither num_right nor the labels, which adjacency and num_right keep."""

    def __init__(self, adjacency: Sequence[int], num_right: int):
        super().__init__(len(adjacency))
        _check_weights([num_right], "transversal num_right")
        if any(a < 0 or a >> num_right for a in adjacency):
            raise ValueError(f"adjacency may only name right vertices 0..{num_right - 1}")
        self.adjacency = tuple(adjacency)
        self.num_right = num_right
        named = 0
        for a in self.adjacency:
            named |= a
        dense = {v: k for k, v in enumerate(bits(named))}
        self._named = len(dense)
        self._numbering = ArcNumbering([sum(1 << dense[v] for v in bits(a))
                                        for a in self.adjacency])

    def _rank(self, mask: int) -> int:
        return ResidualFlow(self._numbering, indicator(mask, self.n), [1] * self._named).total


class ExplicitMatroid(MatroidOracle):
    """Rank read off a full table indexed by subset bitmask."""

    def __init__(self, n: int, table: Sequence[int]):
        super().__init__(n)
        if len(table) != 1 << n:
            raise ValueError("rank table must have 2^n entries")
        self.table = tuple(table)

    def _rank(self, mask: int) -> int:
        return self.table[mask]


class ContractedMatroid(MatroidOracle):
    """M / C with r'(Y) = r(Y ∪ C) − r(C); ground indices unchanged."""

    def __init__(self, inner: MatroidOracle, cmask: int):
        super().__init__(inner.n)
        check_subset(cmask, inner.n)
        if isinstance(inner, ContractedMatroid):
            cmask |= inner.cmask
            inner = inner.inner
        self.inner = inner
        self.cmask = cmask
        self._rc = None

    def _rank(self, mask: int) -> int:
        if self._rc is None:
            self._rc = self.inner.rank(self.cmask)
        return self.inner.rank(mask | self.cmask) - self._rc


class ZeroedMatroid(MatroidOracle):
    """r'(X) = r(X \\ removed): removed elements become loops (rank 0)."""

    def __init__(self, inner: MatroidOracle, removed: int):
        super().__init__(inner.n)
        check_subset(removed, inner.n)
        if isinstance(inner, ZeroedMatroid):
            removed |= inner.removed
            inner = inner.inner
        self.inner = inner
        self.removed = removed

    def _rank(self, mask: int) -> int:
        return self.inner.rank(mask & ~self.removed)


class UnionMatroid(MatroidOracle):
    """Matroid union: X is independent iff it splits into independent sets of the parts.

    It is the matroid the sum of the parts' ranks induces, so r(X) is the
    units placed by that sum's kept placement of 1_X (InducedMatroid).
    """

    def __init__(self, parts: Sequence[MatroidOracle]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("union of no matroids")
        n = parts[0].n
        if any(p.n != n for p in parts):
            raise ValueError("union parts must share the ground set")
        super().__init__(n)
        self.parts = parts
        self._sum = SumPoly([ScaledRankPoly(p, 1) for p in parts])

    def _rank(self, mask: int) -> int:
        return self._sum.placement(indicator(mask, self.n)).placed


class InducedMatroid(MatroidOracle):
    """Matroid induced by an integer polymatroid f.

    X is independent iff min_{S ⊆ X} f(S) − |S| >= 0; equivalently the rank
    is the unit-capped evaluation r(X) = min_{T ⊆ X} f(X \\ T) + |T|, the
    largest y(E) over integer y <= 1_X in P(f): the count of 1_X
    (polymatroids.count). s·r_M induces the union of s copies of M, and
    f₁ + f₂ the union of the matroids f₁ and f₂ induce, so on a partition
    form that count is the matroid partition of 1_X, the units placed by its
    kept placement (PolymatroidOracle.placement), derived from that of the
    set one element smaller when that one is kept.
    """

    def __init__(self, poly):
        super().__init__(poly.n)
        self.poly = poly

    def _rank(self, mask: int) -> int:
        return count(self.poly, indicator(mask, self.n))


def matroid_add_greedy(m: MatroidOracle, start: int, candidates: Sequence[int]) -> int:
    """Scan candidates in the given order, adding each that keeps the set independent.

    start must be independent; returns the final independent set mask.
    """
    if not m.is_independent(start):
        raise ValueError("greedy extension requires an independent starting set")
    cur = start
    r = m.rank(cur)
    for c in candidates:
        bit = 1 << c
        if cur & bit:
            continue
        if m.rank(cur | bit) == r + 1:
            cur |= bit
            r += 1
    return cur
