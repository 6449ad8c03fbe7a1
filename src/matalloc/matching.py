"""Maximum bipartite matching and capacitated bipartite max-flow.

Left vertices are list indices, right vertices are bit positions of the
adjacency masks. The flow uses breadth-first augmenting paths in exact
integers and is kept in residual form (ResidualFlow), so changing one left
vertex's supply costs searches from that vertex instead of a new flow; a
matching is the flow with unit capacities. Deterministic: left vertices
processed in index order, right candidates in ascending bit order. One
residual search serves both exchanges (what one more unit of a left
vertex could take over) and source_side (the minimal minimum cut).
"""

from __future__ import annotations

from typing import Sequence

from .bitsets import bits, full_mask


def max_bipartite_matching(adj: Sequence[int], num_right: int) -> tuple[int, list[int | None]]:
    """Return (matching size, match_left) with match_left[i] the matched right vertex or None:
    a unit-capacity ResidualFlow, read off its holders."""
    net = ResidualFlow(adj, [1] * len(adj), [1] * num_right)
    match_left: list[int | None] = [None] * len(adj)
    for v, hold in enumerate(net.holders):
        if hold:
            match_left[hold.bit_length() - 1] = v
    return net.total, match_left


def perfect_matching(adj: Sequence[int], num_right: int) -> list[int] | None:
    """A left-perfect matching, or None if one does not exist."""
    total, match_left = max_bipartite_matching(adj, num_right)
    if total < len(adj):
        return None
    return [v for v in match_left]  # type: ignore[misc]


class ResidualFlow:
    """A maximum flow through a capacitated bipartite network, kept in residual form.

    The source feeds left vertex u up to its supply, u passes any amount to
    each right vertex in adj[u], and right vertex v drains into the sink up to
    right_caps[v]. By max-flow/min-cut the value is
    min over left subsets T of supply(T) + right_caps(N(rest)).
    The constructor saturates greedy direct paths first, then shortest
    augmenting paths by BFS. raise_supply and lower_supply change one left
    vertex's supply and restore a maximum flow by searching from that vertex
    only; copy() keeps the original for the next question.
    """

    __slots__ = ("adj", "left_res", "right_res", "flow", "holders", "total")

    def __init__(self, adj: Sequence[int], left_caps: Sequence[int], right_caps: Sequence[int]):
        self.adj = adj
        self.left_res = list(left_caps)
        self.right_res = list(right_caps)
        self.flow: dict[tuple[int, int], int] = {}   # positive flow on arc u -> v
        self.holders = [0] * len(right_caps)         # holders[v]: left vertices sending into v
        self.total = 0
        self._augment(full_mask(len(adj)))

    def copy(self) -> "ResidualFlow":
        twin = ResidualFlow.__new__(ResidualFlow)
        twin.adj = self.adj
        twin.left_res = self.left_res[:]
        twin.right_res = self.right_res[:]
        twin.flow = self.flow.copy()
        twin.holders = self.holders[:]
        twin.total = self.total
        return twin

    def raise_supply(self, u: int, d: int) -> int:
        """Add d to u's supply and restore a maximum flow; returns the gain.

        Only u needs to be searched from. The vertices the other roots reach
        cannot reach the sink, since the flow was maximum, so a path from u
        through them would have been theirs; augmenting along a path that
        avoids them leaves that set closed, so this holds after each path.
        """
        self.left_res[u] += d
        before = self.total
        self._augment(1 << u)
        return self.total - before

    def lower_supply(self, u: int, d: int) -> int:
        """Take d (at most u's supply) off u's supply and restore a maximum
        flow; returns the loss.

        Unused supply goes first. Flow u can no longer cover is moved onto
        other roots along residual paths that end by cancelling one of u's
        arcs; what no root can take over is cancelled on u's arcs, straight
        back from the sink. Once no root reaches u, none reaches the right
        vertices u sends into, so freeing their sink capacity opens no path.
        """
        left_res, flow, holders = self.left_res, self.flow, self.holders
        spare = min(d, left_res[u])
        left_res[u] -= spare
        excess = d - spare
        while excess:
            found = self._search(self._roots(full_mask(len(left_res))), u)
            if found is None:
                break
            path, root, step = found
            step = min(step, excess)
            self._apply(path, step)
            left_res[root] -= step
            excess -= step
        before = self.total
        for v, hold in enumerate(holders):
            if not excess:
                break
            if not (hold >> u) & 1:
                continue
            step = min(excess, flow[(u, v)])
            self._push(u, v, -step)
            self.right_res[v] += step
            self.total -= step
            excess -= step
        return before - self.total

    def exchanges(self, u: int) -> int | None:
        """For a flow that uses all of its supply: None when one more unit of
        supply at u reaches the sink, else the mask of the other left
        vertices whose flow that unit can take over.

        Those are the left vertices L the residual search from u reaches,
        against one of their arcs: moving one unit along the path from u to
        such a w frees one unit of w's supply. The right vertices the search
        reaches are full and fed only from L, which sends nowhere else, so
        they carry exactly L's supply; lowering the supply of a vertex
        outside L instead leaves the cut at L one unit short. One search;
        the flow is not changed.
        """
        reached = self._reach(1 << u)
        return None if reached is None else reached & ~(1 << u)

    def source_side(self) -> int:
        """The left vertices on the source side of the minimal minimum cut
        of a maximum flow: those the residual search from the source reaches,
        entering at the left vertices with supply left.

        That set lies on the source side of every minimum cut, and is the
        same for every maximum flow (Ford and Fulkerson 1956), so a left
        vertex's source arc lies in some minimum cut exactly when the vertex
        is outside it. One search; the flow is not changed, and being
        maximum, it leaves no spare sink capacity for the search to reach.
        """
        return self._reach(self._roots(full_mask(len(self.adj))))  # type: ignore[return-value]

    def _reach(self, start: int) -> int | None:
        """The left vertices the residual search from the left vertices of
        start reaches (start included), along any arc to a right vertex and
        back against flow to its holders; None as soon as it reaches a right
        vertex with sink capacity left."""
        adj, right_res, holders = self.adj, self.right_res, self.holders
        seen_left, seen_right, frontier = start, 0, start
        while frontier:
            nxt = 0
            for w in bits(frontier):
                new = adj[w] & ~seen_right
                seen_right |= new
                for v in bits(new):
                    if right_res[v]:
                        return None
                    nxt |= holders[v]
            nxt &= ~seen_left
            seen_left |= nxt
            frontier = nxt
        return seen_left

    def _push(self, u: int, v: int, d: int) -> None:
        f = self.flow.get((u, v), 0) + d
        self.flow[(u, v)] = f
        if f:
            self.holders[v] |= 1 << u
        else:
            self.holders[v] &= ~(1 << u)

    def _apply(self, path: list[tuple[int, int, int]], d: int) -> None:
        for u, v, sign in path:
            self._push(u, v, sign * d)

    def _roots(self, candidates: int) -> int:
        left_res, roots = self.left_res, 0
        for u in bits(candidates):
            if left_res[u]:
                roots |= 1 << u
        return roots

    def _augment(self, candidates: int) -> None:
        """Saturate the direct source -> u -> v -> sink paths of the
        candidates, then augment along shortest paths from those with supply
        left until none reaches the sink."""
        left_res, right_res = self.left_res, self.right_res
        for u in bits(candidates):
            for v in bits(self.adj[u]):
                if not left_res[u]:
                    break
                d = min(left_res[u], right_res[v])
                if d:
                    self._push(u, v, d)
                    left_res[u] -= d
                    right_res[v] -= d
                    self.total += d
        while True:
            found = self._search(self._roots(candidates), -1)
            if found is None:
                return
            path, root, d = found
            self._apply(path, d)
            left_res[root] -= d
            right_res[path[0][1]] -= d
            self.total += d

    def _search(self, roots: int, target: int
                ) -> tuple[list[tuple[int, int, int]], int, int] | None:
        """Shortest residual path from a root to the sink (target < 0) or to
        the left vertex target, entered against one of its arcs.

        Returns (arcs, root, bottleneck) with arcs (u, v, +1 forward / -1
        cancelled) listed from the far end back to the root, or None.
        """
        adj, right_res, holders, flow = self.adj, self.right_res, self.holders, self.flow
        # BFS in the residual graph: u -> v on any arc, v -> u' against flow u' -> v
        reached_from: dict[int, int] = {}   # right v -> left u that reached it
        cancels: dict[int, int] = {}        # non-root left u -> right v whose flow it cancels
        seen_left, seen_right, frontier, end = roots, 0, roots, -1
        while frontier and end < 0:
            nxt = 0
            for u in bits(frontier):
                new = adj[u] & ~seen_right
                seen_right |= new
                for v in bits(new):
                    reached_from[v] = u
                    if target < 0 and right_res[v]:
                        end = v
                        break
                    back = holders[v] & ~seen_left
                    seen_left |= back
                    nxt |= back
                    for w in bits(back):
                        cancels[w] = v
                    if target >= 0 and (back >> target) & 1:
                        end = v
                        break
                if end >= 0:
                    break
            frontier = nxt
        if end < 0:
            return None
        # walk back from the far end to a root, keeping the bottleneck
        if target < 0:
            path, d = [], right_res[end]
        else:
            path, d = [(target, end, -1)], flow[(target, end)]
        v = end
        while True:
            u = reached_from[v]
            path.append((u, v, 1))
            prev = cancels.get(u)
            if prev is None:
                return path, u, min(d, self.left_res[u])
            path.append((u, prev, -1))
            d = min(d, flow[(u, prev)])
            v = prev


def max_capacitated_flow(adj: Sequence[int], left_caps: Sequence[int],
                         right_caps: Sequence[int]) -> int:
    """Value of a maximum flow through a capacitated bipartite network (ResidualFlow)."""
    return ResidualFlow(adj, left_caps, right_caps).total
