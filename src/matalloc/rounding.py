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
(intersection.DirectSum of intersection.Membership blocks: an item's units
sum onto its entities, and the fill asks one count per slot for how many
more fit). Each fractional row is checked before rounding.

Eligibility, restrictedness, the LP's columns, the flow decision, the
santa grid and the load levels read the instance's one integer view
(instances.IntegerValues: its values over one scale). A fractional point
is integers over one positive denominator den (FractionalAssignment.point),
as the exact simplex returns its vertex, so the row checks, the degree
chains, the per-entity totals and every additive guarantee run in integers
over scale·den; Fractions stay at the boundary (T, the x view, given rows).
When every item is classical and restricted (one value on all its
eligible entities), the LP is a transportation problem: one exact max flow
(matching.ResidualFlow) decides each guess (Lenstra, Shmoys and Tardos
1990), and the simplex runs only when the point of a feasible guess is
read (FractionalAssignment.point), so a guess loop over such an instance
solves one LP. The objective-guessing primitives live here too:
guess_loop is the one bisection, over santa_guess_grid (column_sums) or
over integer load levels (lst_baseline).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from math import lcm, prod
from typing import Callable, Iterable, Sequence, TypeVar

from .bitsets import bits, full_mask
from .instances import (MakespanInstance, SantaInstance, assignment_to_alloc, entity_totals,
                        scaled_totals)
from . import intersection  # the search by module attribute, which tracers rebind
from .intersection import DirectSum, Membership, PartitionBound
from .limits import (Caps, DEFAULT_CAPS, ContractViolation, GuessRejected,
                     InternalInvariantError, SizeCapError)
from .matching import ResidualFlow, perfect_matching
from .polymatroids import CoveragePoly, PolymatroidOracle, greedy_basis_above
from .simplex import feasible_point


Point = tuple[list[tuple[int, ...]], int]  # (rows, den): x[j][i] = rows[j][i]/den, den > 0
G = TypeVar("G", Fraction, int)  # a guess: a grid entry or an integer level


class FractionalAssignment:
    """x[j][i]: fraction of item j on entity i, feasible for the assignment LP
    with threshold T.

    The one representation is point = (rows, den), integers over one
    positive denominator; x is its Fraction view, built on first read.
    FractionalAssignment(T, x) converts the given rows over the lcm of their
    denominators on the first read of either (an entry that is not an int
    or a Fraction is a ContractViolation naming its item), and
    FractionalAssignment(T, point=point) holds an integer point as it is.
    solve_assignment_lp passes build instead when a max flow has decided
    the guess: the simplex then runs on the first read, whose point is
    kept, so a guess loop solves an LP only for the guess whose point it
    reads."""

    def __init__(self, T: Fraction, x: Sequence[Sequence[Fraction]] | None = None, *,
                 point: Point | None = None, build: Callable[[], Point] | None = None):
        self.T = T
        if point is not None:
            self.point = point
        else:
            self._build = partial(_over_one_denominator, x) if build is None else build

    @cached_property
    def point(self) -> Point:
        return self._build()

    @cached_property
    def x(self) -> list[tuple[Fraction, ...]]:
        rows, den = self.point
        return [tuple(Fraction(v, den) for v in row) for row in rows]


def _over_one_denominator(x: Sequence[Sequence[Fraction]]) -> Point:
    """Rows of ints and Fractions as integer rows over the lcm of their
    denominators."""
    x = [tuple(row) for row in x]
    for j, row in enumerate(x):
        bad = [v for v in row if not isinstance(v, (int, Fraction))]
        if bad:
            raise ContractViolation(
                f"fractional assignment: item {j} has entry {bad[0]!r}, not an int or a Fraction")
    den = lcm(*(v.denominator for row in x for v in row))
    return [tuple(v.numerator * (den // v.denominator) for v in row) for row in x], den


def item_value_poly(inst, j: int) -> tuple[Fraction, PolymatroidOracle]:
    """The (value, polymatroid) view of item j.

    Matroid items carry their polymatroid; classical restricted items embed
    as a rank-one coverage polymatroid over the eligible entities.
    """
    it = inst.items[j]
    if it.polymatroid is not None:
        return it.value, it.polymatroid
    view = inst.int_values
    mask = view.eligible[j]
    if not view.restricted[j]:
        vals = sorted({it.values[i] for i in bits(mask)})
        raise ContractViolation(f"item {j} is not restricted: distinct values {vals}")
    v = it.values[(mask & -mask).bit_length() - 1] if mask else Fraction(0)
    return v, CoveragePoly([(mask >> i) & 1 for i in range(inst.num_entities)], [1])


def assignment_lp_columns(inst, T: Fraction, caps: Caps = DEFAULT_CAPS
                          ) -> list[list[int]] | None:
    """Per item, the entities that carry its variables in the assignment LP
    at threshold T: a classical item's eligible entities (a player valuing it
    positively, a machine where its size is at most T), a polymatroid item's
    support. None when some makespan item fits on no machine at T. The
    support and variable caps raise SizeCapError here, before any row."""
    m = inst.num_entities
    is_makespan = isinstance(inst, MakespanInstance)
    view = inst.int_values
    level = T.numerator * view.scale  # v/scale <= T iff v·den(T) <= level
    columns: list[list[int]] = []
    for j, (it, v, mask) in enumerate(zip(inst.items, view.values, view.eligible)):
        p = it.polymatroid
        if p is not None:
            if is_makespan and v * T.denominator > level and p.value(full_mask(m)) > 0:
                return None
            supp = [i for i in range(m) if p.value(1 << i) > 0]
            if len(supp) > caps.sfm_ground:
                raise SizeCapError(f"assignment LP: item {j} has support {len(supp)}, "
                                   f"cap {caps.sfm_ground}")
            columns.append(supp)
        elif is_makespan:
            eligible = [i for i in bits(mask) if v[i] * T.denominator <= level]
            if not eligible:
                return None
            columns.append(eligible)
        else:
            columns.append(list(bits(mask)))
    num_vars = sum(map(len, columns))
    if num_vars > caps.lp_vars:
        raise SizeCapError(f"assignment LP has {num_vars} variables, cap {caps.lp_vars}")
    return columns


def assignment_lp_rows(inst, T: Fraction, columns: Sequence[Sequence[int]]
                       ) -> tuple[dict[tuple[int, int], int], list]:
    """The assignment LP over assignment_lp_columns' columns: var_of numbers
    the variable of each (item, entity) pair, and the constraints are the
    rows feasible_point takes. Santa: per-player value >= T. Makespan:
    loads <= T. A classical item has one row assigning it exactly once. A
    polymatroid item has one row x_j(S) <= f(S) per nonempty submask S of
    its support, with equality on the whole support (2^|supp| - 1 rows).
    Every coefficient is value_for(i)."""
    m = inst.num_entities
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

    sense = "<=" if isinstance(inst, MakespanInstance) else ">="
    constraints.extend((coef[i], sense, T) for i in range(m))
    return var_of, constraints


def _lp_point(inst, T: Fraction, columns: Sequence[Sequence[int]]) -> Point | None:
    """The simplex's vertex of the assignment LP as per-item integer rows
    over its denominator, or None."""
    var_of, constraints = assignment_lp_rows(inst, T, columns)
    found = feasible_point(len(var_of), constraints)
    if found is None:
        return None
    point, den = found
    m = inst.num_entities
    return [tuple(point[var_of[(j, i)]] if (j, i) in var_of else 0 for i in range(m))
            for j in range(len(inst.items))], den


def _decided_point(inst, T: Fraction, columns: Sequence[Sequence[int]]) -> Point:
    """_lp_point of a guess the max flow found feasible, which must have one."""
    point = _lp_point(inst, T, columns)
    if point is None:
        raise InternalInvariantError(
            f"assignment LP at T = {T}: feasible by max flow, infeasible by the simplex")
    return point


def _flow_feasible(inst, T: Fraction) -> bool:
    """Whether the assignment LP of a restricted classical instance is
    feasible at T >= 0, by one exact max flow (a transportation problem):
    with v_j item j's one value and L the instance's scale, the amounts
    v_j·x_ji times L·den(T) are a flow from the items to their eligible
    entities (int_values.numbering). Item j supplies v_j·L·den(T) and each
    entity drains num(T)·L. Santa: every player's drain fills (a surplus
    can always go to an eligible player). Makespan: every job's supply goes
    out (each job fits on its machines, or assignment_lp_columns has
    returned None)."""
    view = inst.int_values
    supply = [row[(mask & -mask).bit_length() - 1] * T.denominator if mask else 0
              for row, mask in zip(view.values, view.eligible)]
    drain = [T.numerator * view.scale] * inst.num_entities
    total = ResidualFlow(view.numbering, supply, drain).total
    return total == sum(supply if isinstance(inst, MakespanInstance) else drain)


def solve_assignment_lp(inst, T: Fraction, caps: Caps = DEFAULT_CAPS
                        ) -> FractionalAssignment | None:
    """Feasible rational point of the assignment LP at threshold T, or None.

    The LP's columns and caps come first (assignment_lp_columns), so a
    SizeCapError, or None for a makespan item that fits nowhere, comes from
    this call. When every item is classical and restricted (int_values.restricted)
    and T >= 0, one max flow decides feasibility (_flow_feasible): an
    infeasible guess builds no LP, and a feasible one returns an assignment
    whose point, the simplex's vertex of the rows of assignment_lp_rows, is
    solved on its first read (point or x). Otherwise the simplex decides and the
    point is solved here. Either way the point is the same vertex.
    """
    T = Fraction(T)
    columns = assignment_lp_columns(inst, T, caps)
    if columns is None:
        return None
    if T >= 0 and not inst.is_matroid_flavor and all(inst.int_values.restricted):
        if not _flow_feasible(inst, T):
            return None
        return FractionalAssignment(T, build=partial(_decided_point, inst, T, columns))
    point = _lp_point(inst, T, columns)
    return None if point is None else FractionalAssignment(T, point=point)


# ---------------------------------------------------------------------------
# Gadget rounding


def _degree_chain(xs: list[int], den: int, mode: str) -> tuple[list[int], list[int]]:
    """Per-entity degree recursion along the positive columns x_k = xs[k]/den,
    in integers over den: the remainders R_k are returned times den.

    mode "floor": d_k = floor(R + x_k), remainder carried to the next vertex.
    mode "ceil":  d_k = ceil(x_k - R), surplus carried from the previous one.
    """
    degrees: list[int] = []
    remainders: list[int] = []
    r = 0
    for xv in xs:
        if mode == "floor":
            d, r = divmod(r + xv, den)
        else:
            d = -((r - xv) // den)
            r = d * den - (xv - r)
        degrees.append(d)
        remainders.append(r)
        if not (0 <= r < den):
            raise ContractViolation("remainder left [0, 1): fractional input is malformed")
    return degrees, remainders


def _gadget_round(vp: Sequence[tuple[Fraction, PolymatroidOracle]],
                  rows: Sequence[Sequence[int]], den: int, m: int, mode: str, classical: bool,
                  caps: Caps) -> list[tuple[int, ...]]:
    """Round the fractional assignment rows/den of the items with (value,
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
        pos = [k for k, j in enumerate(order) if rows[j][i] > 0]
        degs, _ = _degree_chain([rows[order[k]][i] for k in pos], den, mode)
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
        items = DirectSum(item_of, [Membership(vp[order[k]][1], entities[k], caps)
                                    for k in range(n)])
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


def _check_shape(rows: Sequence[Sequence[int]], n: int, m: int) -> None:
    """One row per item, one entry per entity."""
    if len(rows) < n:
        raise ContractViolation(f"fractional assignment: item {len(rows)} has no row "
                                f"({len(rows)} rows for {n} items)")
    if len(rows) > n:
        raise ContractViolation(f"fractional assignment: row {n} has no item "
                                f"({len(rows)} rows for {n} items)")
    for j, row in enumerate(rows):
        if len(row) != m:
            raise ContractViolation(
                f"fractional assignment: item {j} has {len(row)} entries, expected {m}")


def _check_rows(inst, rows: Sequence[Sequence[int]], den: int, vp) -> None:
    """Each fractional row rows[j]/den is nonnegative. A classical row puts no
    mass on an ineligible entity and sums to exactly 1 (0 for a resource that
    no player values). A polymatroid row sums to f(E) in makespan, and to at
    most f(E) in max-min, where each rounded vector is raised to a basis
    afterwards."""
    is_makespan = isinstance(inst, MakespanInstance)
    for j, (it, row, (_, p), mask) in enumerate(zip(inst.items, rows, vp,
                                                    inst.int_values.eligible)):
        if any(v < 0 for v in row):
            raise ContractViolation(f"fractional assignment: item {j} has a negative entry")
        total = sum(row)
        up_to = False
        if it.polymatroid is None:
            off = [i for i, v in enumerate(row) if v and not mask >> i & 1]
            if off:
                raise ContractViolation(
                    f"fractional assignment: item {j} puts mass on ineligible entity {off[0]}")
            full = 1 if is_makespan or total or mask else 0
        else:
            full, up_to = p.value(full_mask(len(row))), not is_makespan
        if total > full * den or (total < full * den and not up_to):
            raise ContractViolation(f"fractional assignment: item {j} sums to "
                                    f"{Fraction(total, den)}, "
                                    f"expected {'at most ' if up_to else ''}{full}")


def _check_and_round(inst, frac: FractionalAssignment, mode: str, caps: Caps
                     ) -> tuple[list[tuple[int, ...]], list, list[int], list[int], int, int]:
    """Check frac's shape and rows, then gadget-round frac. Returns the
    allocation, the items' (value, polymatroid) views and, as integers over
    one unit (the instance's scale times the point's den times T's
    denominator), the integral and the fractional per-entity totals, the
    largest item value and T."""
    m, n = inst.num_entities, len(inst.items)
    T = frac.T
    if not isinstance(T, (int, Fraction)):
        raise ContractViolation(f"fractional assignment: T = {T!r} is not an int or a Fraction")
    rows, den = frac.point
    _check_shape(rows, n, m)
    try:
        ftotals = scaled_totals(inst, rows)
    except ValueError as exc:
        raise ContractViolation(f"fractional assignment: {exc}") from exc
    vp = [item_value_poly(inst, j) for j in range(n)]
    _check_rows(inst, rows, den, vp)
    classical = not inst.is_matroid_flavor
    alloc = _gadget_round(vp, rows, den, m, mode, classical, caps)
    scale, t_den = inst.int_values.scale, T.denominator
    vmax = max((v for v, _ in vp), default=Fraction(0))
    unit = den * t_den  # integral totals and values are over scale alone
    return (alloc, vp, [t * unit for t in scaled_totals(inst, alloc)],
            [t * t_den for t in ftotals], vmax.numerator * (scale // vmax.denominator) * unit,
            T.numerator * scale * den)


def round_santa(inst: SantaInstance, frac: FractionalAssignment,
                caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Integral allocation with every player value at least T - max_j v_j.

    The fractional input must satisfy the assignment LP at frac.T. Values
    are processed in decreasing order; each resource ends on a basis of
    its polymatroid, a classical one by _classical_basis and a matroid one
    by greedy_basis_above. Every check and the guarantee run in integers.
    """
    alloc, vp, vals, fvals, vmax, t = _check_and_round(inst, frac, "floor", caps)
    # per-player guarantee: lose at most v_max against one's own fractional
    # value (at least T - v_max when the input satisfies the LP at T)
    shortfall = [i for i in range(inst.num_players) if vals[i] < min(t, fvals[i]) - vmax]
    if shortfall:
        raise ContractViolation(f"rounding guarantee violated for players {shortfall}")
    eligible = inst.int_values.eligible
    return [greedy_basis_above(p, vec, caps) if it.polymatroid is not None
            else _classical_basis(vec, eligible[j])
            for j, (it, (_, p), vec) in enumerate(zip(inst.items, vp, alloc))]


def _classical_basis(row: Sequence[int], eligible: int) -> tuple[int, ...]:
    """The basis above a classical resource's rounded row, with no
    enumeration. Its view is the rank-one coverage polymatroid over its
    eligible players (item_value_poly), whose members hold at most one
    unit, on an eligible player: a row holding its unit is a basis, an
    empty row gets its unit on the lowest eligible player (as
    greedy_basis_above would give) and a worthless resource keeps its zero
    row. A row that is no member is refused as greedy_basis_above refuses
    it."""
    if sum(row) > 1 or any(v < 0 or (v and not eligible >> i & 1) for i, v in enumerate(row)):
        raise ValueError("greedy extension requires a member of the polymatroid")
    if sum(row) or not eligible:
        return tuple(row)
    low = (eligible & -eligible).bit_length() - 1
    return tuple(int(i == low) for i in range(len(row)))


def round_makespan(inst: MakespanInstance, frac: FractionalAssignment,
                   caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Integral schedule (a basis per job) with every load at most T + max_j p_j."""
    alloc, _, loads, floads, pmax, t = _check_and_round(inst, frac, "ceil", caps)
    over = [i for i in range(inst.num_machines) if loads[i] > max(t, floads[i]) + pmax]
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
    rows, den = frac.point
    owner: list[int | None] = [None] * n
    frac_res: list[int] = []
    supports: list[list[int]] = []
    for j in range(n):
        support = [i for i in range(m) if rows[j][i] > 0]
        whole = [i for i in support if rows[j][i] == den]
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
    rows, den = frac.point
    owner: list[int | None] = [None] * n
    fractional: list[int] = []
    for j in range(n):
        whole = [i for i in range(m) if rows[j][i] == den]
        if whole:
            owner[j] = whole[0]
        else:
            fractional.append(j)
    adj = [sum(1 << i for i in range(m) if rows[j][i] > 0) for j in fractional]
    matching = perfect_matching(adj, m)
    if matching is None:
        raise ContractViolation(
            "fractional support admits no perfect matching; not a basic LP point")
    for j, i in zip(fractional, matching):
        owner[j] = i
    return owner  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Objective guessing


def column_sums(columns: Iterable[Iterable[int | None]], caps: Caps = DEFAULT_CAPS
                ) -> set[int]:
    """Union over the columns of all subset sums of each column's integer
    entries (None and zero entries contribute nothing); more than
    caps.guess_grid sums of one column raise SizeCapError."""
    sums: set[int] = set()
    for column in columns:
        mine = {0}
        for k in column:
            if k:
                mine |= {s + k for s in mine}
                if len(mine) > caps.guess_grid:
                    raise SizeCapError("guess grid exceeds cap")
        sums |= mine
    return sums


def guess_loop(solver: Callable[[G], object], grid: Sequence[G]
               ) -> tuple[G | None, object | None]:
    """Binary search over a sequence of guesses (a grid, or a range of
    integer levels) for one the solver accepts.

    solver(T) returns a solution or None/raises GuessRejected. Returns the
    last accepted probe with its solution, or (None, None) if every probe
    fails. That is always an accepted guess; it is the accepted one of largest
    index when the solver is monotone (success at grid[k] implies success at
    grid[k'] for k' < k), which reduce_to_core is not known to be.
    """
    lo, hi = 0, len(grid) - 1
    best: tuple[G | None, object | None] = (None, None)
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
    """Achievable per-player values: subset sums of any player's value column
    (a matroid resource's value times its rank on the player), in integers
    over the instance's scale."""
    view = inst.int_values
    columns = ((v * it.polymatroid.value(1 << i) if it.polymatroid is not None else v[i]
                for it, v in zip(inst.resources, view.values)) for i in range(inst.num_players))
    return [Fraction(s, view.scale) for s in sorted(column_sums(columns, caps)) if s]


def lst_baseline(inst: MakespanInstance, caps: Caps = DEFAULT_CAPS
                 ) -> tuple[list[tuple[int, ...]], Fraction]:
    """Assignment-LP guessing plus additive rounding: makespan <= T* + p_max
    where T* = k/L is the smallest LP-feasible load level (L the instance's
    scale). Loads are integers over L and LP feasibility is monotone in T, so
    T* <= OPT. Level top is feasible: a classical job fits whole where it is
    smallest, and any basis of a matroid job puts at most v·f({i}) on i."""
    view, m = inst.int_values, inst.num_machines
    top = sum(v * max((it.polymatroid.value(1 << i) for i in range(m)), default=0)
              if it.polymatroid is not None else min(filter(None, v), default=0)
              for it, v in zip(inst.jobs, view.values))
    k, frac = guess_loop(lambda k: solve_assignment_lp(inst, Fraction(k, view.scale), caps),
                         range(top, -1, -1))
    if k is None:
        raise ContractViolation("no feasible guess: some job fits on no machine")
    t_star = Fraction(k, view.scale)
    if inst.is_matroid_flavor or all(view.restricted):
        alloc = round_makespan(inst, frac, caps)
    else:
        alloc = assignment_to_alloc(lst_round_unrelated(inst, frac), inst.num_machines)
        pmax = max((v for it in inst.jobs for v in it.values if v is not None),
                   default=Fraction(0))
        if max(entity_totals(inst, alloc)) > t_star + pmax:
            raise ContractViolation("unrelated rounding guarantee violated")
    return alloc, t_star
