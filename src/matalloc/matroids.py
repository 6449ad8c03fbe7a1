"""Matroid rank oracles.

Concrete families (uniform, partition, graphic, transversal, explicit
table) plus derived forms (contraction, element zeroing, union, and the
matroid induced by an integer polymatroid). All oracles are immutable
after construction and memoize rank queries per instance.
"""

from __future__ import annotations

from typing import Sequence

from . import stats
from .bitsets import bits, check_subset, full_mask, indicator, size
from .matching import max_bipartite_matching
from .polymatroids import _check_weights, count, matroid_partition


class MatroidOracle:
    """Rank oracle r: 2^E -> Z>=0 with the matroid axioms."""

    def __init__(self, n: int):
        _check_weights([n], "ground set size")
        self.n = n
        self._memo: dict[int, int] = {}

    def rank(self, mask: int) -> int:
        check_subset(mask, self.n)
        stats.bump("matroid_rank")
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


class FreeMatroid(UniformMatroid):
    def __init__(self, n: int):
        super().__init__(n, n)


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
        if union != full_mask(n):
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
    Matchings run over the right vertices up to the highest one named, so
    their size does not follow num_right."""

    def __init__(self, adjacency: Sequence[int], num_right: int):
        super().__init__(len(adjacency))
        _check_weights([num_right], "transversal num_right")
        if any(a < 0 or a >> num_right for a in adjacency):
            raise ValueError(f"adjacency may only name right vertices 0..{num_right - 1}")
        self.adjacency = tuple(adjacency)
        self.num_right = num_right
        self._named = max(self.adjacency, default=0).bit_length()

    def _rank(self, mask: int) -> int:
        adj = [self.adjacency[e] for e in bits(mask)]
        matched, _ = max_bipartite_matching(adj, self._named)
        return matched


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

    The rank r(X) = min_{Y ⊆ X} |X \\ Y| + Σ_i r_i(Y) is Edmonds' matroid
    partition of X (polymatroids.matroid_partition): the elements of X enter
    along shortest exchange paths over (element, part) pairs, asking only
    the parts' is_independent.
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

    def _rank(self, mask: int) -> int:
        return matroid_partition(self.parts, None, indicator(mask, self.n))


class InducedMatroid(MatroidOracle):
    """Matroid induced by an integer polymatroid f.

    X is independent iff min_{S ⊆ X} f(S) − |S| >= 0; equivalently the rank
    is the unit-capped evaluation r(X) = min_{T ⊆ X} f(X \\ T) + |T|, the
    largest y(E) over integer y <= 1_X in P(f): the count of 1_X
    (polymatroids.count). s·r_M induces the union of s copies of M, and
    f₁ + f₂ the union of the matroids f₁ and f₂ induce, so on a partition
    form that count is the matroid partition of 1_X.
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
