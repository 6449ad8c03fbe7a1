"""Maximum bipartite matching and capacitated bipartite max-flow.

Left vertices are list indices, right vertices are bit positions of the
adjacency masks. The flow uses breadth-first augmenting paths in exact
integers and is kept in residual form (ResidualFlow), so raising one left
vertex's supply costs a few searches instead of a new flow, and lowering
the supply of a flow that uses all of it costs none; a matching is the
flow with unit capacities. The searches run over per-left-vertex
neighbour tuples and an arc numbering (ArcNumbering), built once per
adjacency and shared by every flow over it and by their copies, and the
arc flows are one flat list, so a copy is a few list copies.
Deterministic: left vertices processed in index order, right candidates in
ascending order. One residual search serves every job: it returns a
shortest augmenting path, or else the left vertices it reached, which are
what one more unit of a left vertex could take over (exchanges) and the
source side of the minimal minimum cut (source_side).
"""

from __future__ import annotations

from typing import Sequence

from .bitsets import bits


def max_bipartite_matching(adj: Sequence[int], num_right: int) -> tuple[int, list[int | None]]:
    """Return (matching size, match_left) with match_left[i] the matched right vertex or None:
    a unit-capacity ResidualFlow, read off its holders."""
    net = ResidualFlow(ArcNumbering(adj), [1] * len(adj), [1] * num_right)
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


class ArcNumbering:
    """The arcs of a bipartite adjacency (left u -> right v for each bit v
    of adj[u]), numbered once: nbrs[u] lists adj[u]'s right vertices in
    ascending order, and arcs[u, v] numbers the arcs in that order. A
    network whose adjacency never changes builds one and passes it to
    every flow over it (polymatroids.CutNetwork, rounding._flow_feasible)."""

    __slots__ = ("nbrs", "arcs")

    def __init__(self, adj: Sequence[int]):
        self.nbrs = tuple(tuple(bits(a)) for a in adj)
        self.arcs: dict[tuple[int, int], int] = {}
        for u, row in enumerate(self.nbrs):
            for v in row:
                self.arcs[u, v] = len(self.arcs)


class ResidualFlow:
    """A maximum flow through a capacitated bipartite network, kept in residual form.

    The source feeds left vertex u up to its supply, u passes any amount to
    each right vertex it has an arc to, and right vertex v drains into the
    sink up to right_caps[v]. By max-flow/min-cut the value is
    min over left subsets T of supply(T) + right_caps(N(rest)).
    The constructor saturates greedy direct paths first, then shortest
    augmenting paths by BFS. raise_supply adds to one left vertex's supply
    and restores a maximum flow by augmenting paths from that vertex only;
    lower_supply takes units a flow that uses all of its supply carries off
    one vertex, which leaves it maximum; copy() keeps the original for the
    next question.

    nbrs and arcs are the numbering's (ArcNumbering), which the flow
    shares with its copies and with every other flow built on it;
    flow[arcs[u, v]] is the flow on arc u -> v. A copy copies only the
    flat lists of residuals, arc flows and holders.
    """

    __slots__ = ("nbrs", "arcs", "left_res", "right_res", "flow", "holders", "total")

    def __init__(self, numbering: ArcNumbering, left_caps: Sequence[int],
                 right_caps: Sequence[int]):
        self.nbrs = numbering.nbrs
        self.arcs = numbering.arcs
        self.left_res = list(left_caps)
        self.right_res = list(right_caps)
        self.flow = [0] * len(self.arcs)             # flow[arcs[u, v]] on arc u -> v
        self.holders = [0] * len(right_caps)         # holders[v]: left vertices sending into v
        self.total = 0
        self._augment(range(len(self.nbrs)))

    def copy(self) -> "ResidualFlow":
        twin = ResidualFlow.__new__(ResidualFlow)
        twin.nbrs = self.nbrs
        twin.arcs = self.arcs
        twin.left_res = self.left_res[:]
        twin.right_res = self.right_res[:]
        twin.flow = self.flow[:]
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
        self._augment((u,))
        return self.total - before

    def lower_supply(self, u: int, d: int) -> None:
        """For a flow that uses all of its supply: take d (at most u's
        supply) off u's supply by cancelling d units on u's arcs, straight
        back from the sink. The flow still uses all of its supply, so it
        stays maximum."""
        self.total -= d
        for v in self.nbrs[u]:
            if not d:
                return
            step = min(d, self.flow[self.arcs[u, v]])
            self._apply([(u, v, -1)], step)
            self.right_res[v] += step
            d -= step

    def exchanges(self, u: int) -> int | None:
        """For a flow that uses all of its supply: None when one more unit of
        supply at u reaches the sink, else the mask of the other left
        vertices whose flow that unit can take over.

        Those are the left vertices L the residual search from u reaches
        when it finds no path, against one of their arcs: moving one unit
        along the path from u to such a w frees one unit of w's supply. The
        right vertices the search reaches are full and fed only from L,
        which sends nowhere else, so they carry exactly L's supply; lowering
        the supply of a vertex outside L instead leaves the cut at L one
        unit short. One search; the flow is not changed.
        """
        found = self._search(1 << u)
        return None if isinstance(found, tuple) else found & ~(1 << u)

    def source_side(self) -> int:
        """The left vertices on the source side of the minimal minimum cut
        of a maximum flow: those the residual search from the source reaches,
        entering at the left vertices with supply left.

        That set lies on the source side of every minimum cut, and is the
        same for every maximum flow (Ford and Fulkerson 1956), so a left
        vertex's source arc lies in some minimum cut exactly when the vertex
        is outside it. One search, which finds no path since the flow is
        maximum; the flow is not changed.
        """
        return self._search(self._roots(range(len(self.nbrs))))  # type: ignore[return-value]

    def _apply(self, path: list[tuple[int, int, int]], d: int) -> None:
        """Push d along each arc (u, v, +1) of path and cancel d on each
        arc (u, v, -1), keeping holders in step."""
        flow, holders, arcs = self.flow, self.holders, self.arcs
        for u, v, sign in path:
            a = arcs[u, v]
            f = flow[a] = flow[a] + sign * d
            if f:
                holders[v] |= 1 << u
            else:
                holders[v] &= ~(1 << u)

    def _roots(self, candidates: Sequence[int]) -> int:
        left_res, roots = self.left_res, 0
        for u in candidates:
            if left_res[u]:
                roots |= 1 << u
        return roots

    def _augment(self, candidates: Sequence[int]) -> None:
        """Saturate the direct source -> u -> v -> sink paths of the
        candidates (ascending left vertices), then augment along shortest
        paths from those with supply left until none reaches the sink."""
        left_res, right_res, nbrs = self.left_res, self.right_res, self.nbrs
        flow, holders, arcs = self.flow, self.holders, self.arcs
        for u in candidates:
            r = left_res[u]
            if not r:
                continue
            for v in nbrs[u]:
                d = right_res[v]
                if d:
                    if d > r:
                        d = r
                    flow[arcs[u, v]] += d
                    holders[v] |= 1 << u
                    right_res[v] -= d
                    self.total += d
                    r -= d
                    if not r:
                        break
            left_res[u] = r
        while True:
            found = self._search(self._roots(candidates))
            if not isinstance(found, tuple):
                return
            path, root, d = found
            self._apply(path, d)
            left_res[root] -= d
            right_res[path[0][1]] -= d
            self.total += d

    def _search(self, roots: int) -> tuple[list[tuple[int, int, int]], int, int] | int:
        """Shortest residual path from a root to the sink, or else the mask
        of the left vertices reached (roots included).

        Left vertices are searched layer by layer in ascending order, and
        each one's right vertices in ascending order. A path is returned as
        (arcs, root, bottleneck) with arcs (u, v, +1 forward / -1 cancelled)
        listed from the sink end back to the root.
        """
        nbrs, right_res, holders = self.nbrs, self.right_res, self.holders
        # BFS in the residual graph: u -> v on any arc, v -> u' against flow u' -> v
        reached_from: dict[int, int] = {}   # right v -> left u that reached it
        cancels: dict[int, int] = {}        # non-root left u -> right v whose flow it cancels
        seen_left, seen_right, frontier, end = roots, 0, roots, -1
        while frontier and end < 0:
            nxt = 0
            while frontier and end < 0:
                low = frontier & -frontier
                frontier ^= low
                u = low.bit_length() - 1
                for v in nbrs[u]:
                    if (seen_right >> v) & 1:
                        continue
                    seen_right |= 1 << v
                    reached_from[v] = u
                    if right_res[v]:
                        end = v
                        break
                    back = holders[v] & ~seen_left
                    if not back:
                        continue
                    seen_left |= back
                    nxt |= back
                    while back:
                        low = back & -back
                        back ^= low
                        cancels[low.bit_length() - 1] = v
            frontier = nxt
        if end < 0:
            return seen_left
        # walk back from the sink end to a root, keeping the bottleneck
        flow, arcs = self.flow, self.arcs
        path, d, v = [], right_res[end], end
        while True:
            u = reached_from[v]
            path.append((u, v, 1))
            prev = cancels.get(u)
            if prev is None:
                return path, u, min(d, self.left_res[u])
            path.append((u, prev, -1))
            d = min(d, flow[arcs[u, prev]])
            v = prev
