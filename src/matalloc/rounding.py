"""Assignment-LP solving and additive rounding.

round_santa turns a fractional assignment of value T into an integral one
losing at most the largest resource value; round_makespan turns one of
load T into an integral schedule gaining at most the largest job size.
Both build a bipartite gadget (left vertex per item, right vertex per
entity/item pair, consecutive-item carry edges) whose degree constraints
come from a floor/ceiling remainder recursion, and extract the integral
solution as a maximum common vector of two polymatroids on the edges
(intersection.max_common_independent): the chain degrees by counting
(intersection.PartitionBound), the items by counting too when every item
is classical (one unit each), else as the direct sum of their memberships
(intersection.DirectSum). Each fractional row is checked before rounding.

The LP itself is solved exactly (integer-preserving simplex), so every
additive guarantee is checked with exact comparisons. The objective-guessing
primitives live here too: column_sums builds the guess grids
(santa_guess_grid, makespan_guess_grid) and guess_loop is the one
bisection over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import ceil, floor, prod
from typing import Callable, Iterable, Sequence

from .bitsets import bits, full_mask
from .instances import MakespanInstance, SantaInstance, assignment_to_alloc, entity_totals
from . import intersection  # the search by module attribute, which tracers rebind
from .intersection import DirectSum, PartitionBound
from .limits import Caps, DEFAULT_CAPS, ContractViolation, GuessRejected, SizeCapError
from .matching import perfect_matching
from .polymatroids import CoveragePoly, PolymatroidOracle, greedy_basis_above, member
from .simplex import feasible_point


@dataclass
class FractionalAssignment:
    """x[j][i]: fraction of item j on entity i, feasible for the assignment LP
    with threshold T."""

    T: Fraction
    x: list[tuple[Fraction, ...]]


def item_value_poly(inst, j: int) -> tuple[Fraction, PolymatroidOracle]:
    """The (value, polymatroid) view of item j.

    Matroid items carry their polymatroid; classical restricted items embed
    as a rank-one coverage polymatroid over the eligible entities.
    """
    it = inst.items[j]
    m = inst.num_entities
    if it.polymatroid is not None:
        return it.value, it.polymatroid
    is_makespan = isinstance(inst, MakespanInstance)
    eligible = [i for i in range(m)
                if (it.values[i] is not None if is_makespan else it.values[i] > 0)]
    vals = {it.values[i] for i in eligible}
    if len(vals) > 1:
        raise ContractViolation(f"item {j} is not restricted: distinct values {sorted(vals)}")
    v = vals.pop() if vals else Fraction(0)
    covers = [1 if i in eligible else 0 for i in range(m)]
    return v, CoveragePoly(covers, [1])


def solve_assignment_lp(inst, T: Fraction, caps: Caps = DEFAULT_CAPS
                        ) -> FractionalAssignment | None:
    """Feasible rational point of the assignment LP at threshold T, or None.

    Santa: per-player value >= T. Makespan: loads <= T. A classical item
    has a variable on each eligible entity (a player valuing it positively,
    a machine where its size is at most T) and one row assigning it exactly
    once. A polymatroid item has a variable on each element of its support
    and one row x_j(S) <= f(S) per nonempty submask S, with equality on the
    whole support (2^|supp| - 1 rows). Every coefficient is value_for(i).
    """
    T = Fraction(T)
    m = inst.num_entities
    is_makespan = isinstance(inst, MakespanInstance)

    # first the columns and the caps, then the rows
    columns: list[list[int]] = []
    for j, it in enumerate(inst.items):
        p = it.polymatroid
        if p is not None:
            if is_makespan and it.value > T and p.value(full_mask(m)) > 0:
                return None
            supp = [i for i in range(m) if p.value(1 << i) > 0]
            if len(supp) > caps.sfm_ground:
                raise SizeCapError(f"assignment LP: item {j} has support {len(supp)}, "
                                   f"cap {caps.sfm_ground}")
            columns.append(supp)
        elif is_makespan:
            eligible = [i for i in range(m) if it.values[i] is not None and it.values[i] <= T]
            if not eligible:
                return None
            columns.append(eligible)
        else:
            columns.append([i for i in range(m) if it.values[i] > 0])
    num_vars = sum(map(len, columns))
    if num_vars > caps.lp_vars:
        raise SizeCapError(f"assignment LP has {num_vars} variables, cap {caps.lp_vars}")

    var_of: dict[tuple[int, int], int] = {}
    coef: list[dict[int, Fraction]] = [{} for _ in range(m)]  # per entity
    constraints: list[tuple[dict[int, int | Fraction], str, int | Fraction]] = []
    for j, (it, cols) in enumerate(zip(inst.items, columns)):
        for i in cols:
            var_of[(j, i)] = len(var_of)
            coef[i][var_of[(j, i)]] = it.value_for(i)
        p = it.polymatroid
        if p is not None:
            smask = sum(1 << i for i in cols)
            sub = smask
            while sub:
                row = dict.fromkeys([var_of[(j, i)] for i in bits(sub)], 1)
                if sub == smask:
                    constraints.append((row, "==", p.value(full_mask(m))))
                else:
                    constraints.append((row, "<=", p.value(sub)))
                sub = (sub - 1) & smask
        elif cols:
            constraints.append((dict.fromkeys([var_of[(j, i)] for i in cols], 1), "==", 1))

    sense = "<=" if is_makespan else ">="
    constraints.extend((coef[i], sense, T) for i in range(m))

    point = feasible_point(len(var_of), constraints)
    if point is None:
        return None
    x = [tuple(point[var_of[(j, i)]] if (j, i) in var_of else Fraction(0) for i in range(m))
         for j in range(len(inst.items))]
    return FractionalAssignment(T, x)


# ---------------------------------------------------------------------------
# Gadget rounding


def _degree_chain(xs: list[Fraction], mode: str) -> tuple[list[int], list[Fraction]]:
    """Per-entity degree recursion along the positive columns.

    mode "floor": d_k = floor(R + x_k), remainder carried to the next vertex.
    mode "ceil":  d_k = ceil(x_k - R), surplus carried from the previous one.
    """
    degrees: list[int] = []
    remainders: list[Fraction] = []
    r = Fraction(0)
    for k, xv in enumerate(xs):
        if mode == "floor":
            d = floor(r + xv)
            r = r + xv - d
        else:
            d = ceil(xv - r) if k else ceil(xv)
            r = d - (xv - r) if k else d - xv
        degrees.append(d)
        remainders.append(r)
        if not (0 <= r < 1):
            raise ContractViolation("remainder left [0, 1): fractional input is malformed")
    return degrees, remainders


def _gadget_round(vp: Sequence[tuple[Fraction, PolymatroidOracle]],
                  frac_x: Sequence[Sequence[Fraction]], m: int, mode: str, classical: bool,
                  caps: Caps) -> list[tuple[int, ...]]:
    """Round the fractional assignment frac_x of the items with (value,
    polymatroid) views vp to m entities, in decreasing value order: floor
    mode saturates the degree chains, ceil mode the items' bases. When every
    item is classical, each takes at most one unit in all."""
    n = len(vp)
    order = sorted(range(n), key=lambda j: (-vp[j][0], j))

    # per entity: positive columns of the sorted sequence and their degrees
    slots: list[tuple[int, int, int]] = []  # (sorted position, entity, chain index)
    slot_caps: list[int] = []
    degree: dict[tuple[int, int], int] = {}
    for i in range(m):
        pos = [k for k, j in enumerate(order) if frac_x[j][i] > 0]
        xs = [frac_x[order[k]][i] for k in pos]
        degs, _ = _degree_chain(xs, mode)
        for t in range(len(pos)):
            degree[(i, t)] = degs[t]
        for t, k in enumerate(pos):
            j = order[k]
            fii = vp[j][1].value(1 << i)
            diag_cap = min(degs[t], fii)
            if diag_cap > 0:
                slots.append((k, i, t))
                slot_caps.append(diag_cap)
            # carry edge: leftovers flow to the next chain vertex (floor mode)
            # or surplus is borrowed from the previous one (ceil mode)
            adj = t + 1 if mode == "floor" else t - 1
            if 0 <= adj < len(pos):
                carry_cap = min(degs[adj], fii)
                if carry_cap > 0:
                    slots.append((k, i, adj))
                    slot_caps.append(carry_cap)

    def per_item(x: tuple[int, ...]) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for (k, i, _), c in zip(slots, x):
            if c:
                out.setdefault(k, [0] * m)[i] += c
        return out

    item_of = [k for k, _, _ in slots]
    if classical:
        items = PartitionBound(item_of, [1] * n)
    else:
        entities: list[list[int]] = [[] for _ in range(n)]
        for k, i, _ in slots:
            entities[k].append(i)

        def in_item(k: int, sub: tuple[int, ...]) -> bool:
            vec = [0] * m
            for i, c in zip(entities[k], sub):
                vec[i] += c
            return member(vp[order[k]][1], vec, caps)
        items = DirectSum(item_of, [partial(in_item, k) for k in range(n)])
    vertex = {v: idx for idx, v in enumerate(degree)}
    degrees = PartitionBound([vertex[(i, t)] for _, i, t in slots], list(degree.values()))
    best = intersection.max_common_independent(slot_caps, items, degrees, 4 * caps.expand)
    if mode == "floor":
        target = sum(degree.values())
        what = "degree constraints"
    else:
        target = sum(vp[j][1].value(full_mask(m)) for j in range(n))
        what = "left bases"
    if sum(best) != target:
        raise ContractViolation(
            f"gadget rounding fell short of saturating its {what} "
            f"({sum(best)} of {target}); the fractional input is not LP-feasible")

    alloc = [tuple([0] * m) for _ in range(n)]
    for k, vec in per_item(best).items():
        alloc[order[k]] = tuple(vec)
    return alloc


def _check_rows(inst, x: Sequence[Sequence[Fraction]], vp) -> None:
    """Each fractional row is nonnegative. A classical row puts no mass on an
    ineligible entity and sums to exactly 1 (0 for a resource that no player
    values). A polymatroid row sums to f(E) in makespan, and to at most f(E)
    in max-min, where each rounded vector is raised to a basis afterwards."""
    is_makespan = isinstance(inst, MakespanInstance)
    for j, (it, row, (_, p)) in enumerate(zip(inst.items, x, vp)):
        mass = {i: v for i, v in enumerate(row) if v}
        if any(v < 0 for v in mass.values()):
            raise ContractViolation(f"fractional assignment: item {j} has a negative entry")
        total = sum(mass.values())
        up_to = False
        if it.polymatroid is None:
            off = [i for i in mass if not p.value(1 << i)]
            if off:
                raise ContractViolation(
                    f"fractional assignment: item {j} puts mass on ineligible entity {off[0]}")
            full = 1 if is_makespan or total else p.value(full_mask(len(row)))
        else:
            full, up_to = p.value(full_mask(len(row))), not is_makespan
        if total > full or (total < full and not up_to):
            raise ContractViolation(f"fractional assignment: item {j} sums to {total}, "
                                    f"expected {'at most ' if up_to else ''}{full}")


def _check_and_round(inst, frac: FractionalAssignment, mode: str, caps: Caps
                     ) -> tuple[list[tuple[int, ...]], list, list[Fraction], list, Fraction]:
    """Check frac's rows, then gadget-round frac. Returns the allocation,
    the items' (value, polymatroid) views, the integral and the fractional
    per-entity totals, and the largest item value."""
    m, n = inst.num_entities, len(inst.items)
    try:
        ftotals = entity_totals(inst, frac.x)
    except ValueError as exc:
        raise ContractViolation(f"fractional assignment: {exc}") from exc
    vp = [item_value_poly(inst, j) for j in range(n)]
    _check_rows(inst, frac.x, vp)
    classical = all(it.polymatroid is None for it in inst.items)
    alloc = _gadget_round(vp, frac.x, m, mode, classical, caps)
    vmax = max((v for v, _ in vp), default=Fraction(0))
    return alloc, vp, entity_totals(inst, alloc), ftotals, vmax


def round_santa(inst: SantaInstance, frac: FractionalAssignment,
                caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Integral allocation with every player value at least T - max_j v_j.

    The fractional input must satisfy the assignment LP at frac.T. Values
    are processed in decreasing order; each resource ends on a basis of
    its polymatroid.
    """
    alloc, vp, vals, fvals, vmax = _check_and_round(inst, frac, "floor", caps)
    # per-player guarantee: lose at most v_max against one's own fractional
    # value (at least T - v_max when the input satisfies the LP at T)
    shortfall = [i for i in range(inst.num_players)
                 if vals[i] < min(frac.T, fvals[i]) - vmax]
    if shortfall:
        raise ContractViolation(f"rounding guarantee violated for players {shortfall}")
    return [tuple(greedy_basis_above(p, vec, caps)) for (_, p), vec in zip(vp, alloc)]


def round_makespan(inst: MakespanInstance, frac: FractionalAssignment,
                   caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Integral schedule (a basis per job) with every load at most T + max_j p_j."""
    alloc, _, loads, floads, pmax = _check_and_round(inst, frac, "ceil", caps)
    over = [i for i in range(inst.num_machines)
            if loads[i] > max(frac.T, floads[i]) + pmax]
    if over:
        raise ContractViolation(f"rounding guarantee violated for machines {over}")
    return alloc


# ---------------------------------------------------------------------------
# Classical additive roundings on top of the LP


def additive_round_santa(inst: SantaInstance, frac: FractionalAssignment,
                         caps: Caps = DEFAULT_CAPS) -> list[int | None]:
    """Unrelated classical max-min rounding: every player loses at most one
    fractionally assigned resource, so the value stays above T - v_max.

    The placements of the fractional resources are enumerated; more than
    caps.assignments of them raise SizeCapError before any is evaluated."""
    m, n = inst.num_players, len(inst.resources)
    owner: list[int | None] = [None] * n
    frac_res: list[int] = []
    supports: list[list[int]] = []
    for j in range(n):
        support = [i for i in range(m) if frac.x[j][i] > 0]
        whole = [i for i in support if frac.x[j][i] == 1]
        if whole:
            owner[j] = whole[0]
        elif support:
            frac_res.append(j)
            supports.append(support)
    space = prod(map(len, supports))
    if space > caps.assignments:
        raise SizeCapError(f"placement space {space} exceeds cap {caps.assignments}")
    vmax = max((v for it in inst.resources for v in it.values), default=Fraction(0))

    base = entity_totals(inst, assignment_to_alloc(owner, m))

    def worst(pick: tuple[int, ...]) -> Fraction:
        vals = list(base)
        for j, i in zip(frac_res, pick):
            vals[i] += inst.resources[j].values[i]
        return min(vals)

    # max keeps the first best placement in index order
    best = max(product(*supports), key=worst)
    if worst(best) < frac.T - vmax:
        raise ContractViolation("additive rounding guarantee violated")
    for j, i in zip(frac_res, best):
        owner[j] = i
    return owner


def lst_round_unrelated(inst: MakespanInstance, frac: FractionalAssignment
                        ) -> list[int]:
    """Classical unrelated-machines rounding: integral part assigned directly,
    fractional jobs matched to distinct machines along the fractional support."""
    m, n = inst.num_machines, len(inst.jobs)
    owner: list[int | None] = [None] * n
    fractional: list[int] = []
    for j in range(n):
        whole = [i for i in range(m) if frac.x[j][i] == 1]
        if whole:
            owner[j] = whole[0]
        else:
            fractional.append(j)
    adj = [sum(1 << i for i in range(m) if frac.x[j][i] > 0) for j in fractional]
    matching = perfect_matching(adj, m)
    if matching is None:
        raise ContractViolation(
            "fractional support admits no perfect matching; not a basic LP point")
    for j, i in zip(fractional, matching):
        owner[j] = i
    return owner  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Objective guessing


def column_sums(columns: Iterable[Iterable[Fraction | None]], caps: Caps = DEFAULT_CAPS
                ) -> set[Fraction]:
    """Union over the columns of all subset sums of each column's entries
    (None and zero entries contribute nothing)."""
    sums: set[Fraction] = set()
    for column in columns:
        mine = {Fraction(0)}
        for v in column:
            if v:
                mine |= {s + v for s in mine}
                if len(mine) > caps.guess_grid:
                    raise SizeCapError("guess grid exceeds cap")
        sums |= mine
    return sums


def guess_loop(solver: Callable[[Fraction], object], grid: Sequence[Fraction]
               ) -> tuple[Fraction | None, object | None]:
    """Binary search for the last grid entry the solver accepts.

    solver(T) returns a solution or None/raises GuessRejected; the solver
    contract is monotone (success at grid[k] implies success at grid[k'] for
    k' < k). Returns (best guess, its solution), or (None, None) if
    everything fails.
    """
    lo, hi = 0, len(grid) - 1
    best: tuple[Fraction | None, object | None] = (None, None)
    while lo <= hi:
        mid = (lo + hi) // 2
        try:
            sol = solver(grid[mid])
        except GuessRejected:
            sol = None
        if sol is None:
            hi = mid - 1
        else:
            best = (grid[mid], sol)
            lo = mid + 1
    return best


def santa_guess_grid(inst: SantaInstance, caps: Caps = DEFAULT_CAPS) -> list[Fraction]:
    """Achievable per-player values: subset sums of any player's value column."""
    columns = ((it.value * it.polymatroid.value(1 << i) if it.polymatroid is not None
                else it.values[i] for it in inst.resources) for i in range(inst.num_players))
    return sorted(s for s in column_sums(columns, caps) if s > 0)


def makespan_guess_grid(inst: MakespanInstance, caps: Caps = DEFAULT_CAPS) -> list[Fraction]:
    """Achievable-load grid: per machine, all subset sums of its finite sizes."""
    columns = ((it.value if it.polymatroid is not None else it.values[i] for it in inst.jobs)
               for i in range(inst.num_machines))
    return sorted(column_sums(columns, caps))


def lst_baseline(inst: MakespanInstance, caps: Caps = DEFAULT_CAPS
                 ) -> tuple[list[tuple[int, ...]], Fraction]:
    """Assignment-LP guessing plus additive rounding: makespan <= T* + p_max
    where T* is the smallest LP-feasible guess on the achievable-load grid."""
    grid = makespan_guess_grid(inst, caps)[::-1]
    t_star, frac = guess_loop(lambda T: solve_assignment_lp(inst, T, caps), grid)
    if t_star is None:
        raise ContractViolation("no feasible guess: some job fits on no machine")
    restricted = inst.is_matroid_flavor or all(
        len({v for v in it.values if v is not None}) <= 1 for it in inst.jobs)
    if restricted:
        alloc = round_makespan(inst, frac, caps)
    else:
        alloc = assignment_to_alloc(lst_round_unrelated(inst, frac), inst.num_machines)
        pmax = max((v for it in inst.jobs for v in it.values if v is not None),
                   default=Fraction(0))
        if max(entity_totals(inst, alloc)) > t_star + pmax:
            raise ContractViolation("unrelated rounding guarantee violated")
    return alloc, t_star
