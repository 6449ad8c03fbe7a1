"""Maximum bipartite matching and capacitated bipartite max-flow.

Left vertices are list indices, right vertices are bit positions of the
adjacency masks. Matching uses Kuhn's augmenting paths; the flow uses
breadth-first augmenting paths in exact integers. Deterministic: left
vertices processed in index order, right candidates in ascending bit order.
"""

from __future__ import annotations

from typing import Sequence

from .bitsets import bits


def max_bipartite_matching(adj: Sequence[int], num_right: int) -> tuple[int, list[int | None]]:
    """Return (matching size, match_left) with match_left[i] the matched right vertex or None."""
    match_right: list[int | None] = [None] * num_right
    match_left: list[int | None] = [None] * len(adj)

    def try_augment(u: int, seen: set[int]) -> bool:
        for v in bits(adj[u]):
            if v in seen:
                continue
            seen.add(v)
            if match_right[v] is None or try_augment(match_right[v], seen):
                match_right[v] = u
                match_left[u] = v
                return True
        return False

    total = 0
    for u in range(len(adj)):
        if try_augment(u, set()):
            total += 1
    return total, match_left


def perfect_matching(adj: Sequence[int], num_right: int) -> list[int] | None:
    """A left-perfect matching, or None if one does not exist."""
    total, match_left = max_bipartite_matching(adj, num_right)
    if total < len(adj):
        return None
    return [v for v in match_left]  # type: ignore[misc]


def max_capacitated_flow(adj: Sequence[int], left_caps: Sequence[int],
                         right_caps: Sequence[int]) -> int:
    """Value of a maximum flow through a capacitated bipartite network.

    The source feeds left vertex u up to left_caps[u], u passes any amount to
    each right vertex in adj[u], and right vertex v drains into the sink up to
    right_caps[v]. By max-flow/min-cut the value is
    min over left subsets T of left_caps(T) + right_caps(N(rest)).
    Greedy direct paths first, then shortest augmenting paths by BFS.
    """
    left_res = list(left_caps)
    right_res = list(right_caps)
    flow: dict[tuple[int, int], int] = {}   # positive flow on arc u -> v
    holders = [0] * len(right_res)          # holders[v]: left vertices sending into v
    total = 0

    def push(u: int, v: int, d: int) -> None:
        f = flow.get((u, v), 0) + d
        flow[(u, v)] = f
        if f:
            holders[v] |= 1 << u
        else:
            holders[v] &= ~(1 << u)

    # direct source -> u -> v -> sink paths first; BFS finishes the rest
    for u, nbrs in enumerate(adj):
        for v in bits(nbrs):
            d = min(left_res[u], right_res[v])
            if d:
                push(u, v, d)
                left_res[u] -= d
                right_res[v] -= d
                total += d
            if not left_res[u]:
                break

    while True:
        roots = 0
        for u, r in enumerate(left_res):
            if r:
                roots |= 1 << u
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
                    if right_res[v]:
                        end = v
                        break
                    back = holders[v] & ~seen_left
                    seen_left |= back
                    nxt |= back
                    for w in bits(back):
                        cancels[w] = v
                if end >= 0:
                    break
            frontier = nxt
        if end < 0:
            return total
        # walk back from the sink to a root, then augment by the bottleneck
        path: list[tuple[int, int, int]] = []   # (u, v, +1 forward / -1 cancelled)
        d = right_res[end]
        v = end
        while True:
            u = reached_from[v]
            path.append((u, v, 1))
            prev = cancels.get(u)
            if prev is None:
                root = u
                d = min(d, left_res[root])
                break
            path.append((u, prev, -1))
            d = min(d, flow[(u, prev)])
            v = prev
        for u, v, sign in path:
            push(u, v, sign * d)
        left_res[root] -= d
        right_res[end] -= d
        total += d
