"""Assignment-LP solving and additive rounding.

round_santa turns a fractional assignment of value T into an integral one
losing at most the largest resource value; round_makespan turns one of
load T into an integral schedule gaining at most the largest job size.
Both run the slot construction of Shmoys and Tardos (1993) over the items'
polymatroids, for restricted, unrelated and matroid items alike: each
entity's fractional mass, in decreasing order of the items' values on that
entity, fills unit slots, an item has an edge to each slot its mass
overlaps, and the integral solution is a maximum common vector of two
polymatroids on the edges (intersection.max_common_independent): the slots
by counting (intersection.PartitionBound), the items by counting too when
every item is classical (one unit each), else as the direct sum of their
memberships (intersection.DirectSum of intersection.Membership blocks: an
item's units sum onto its entities, and the fill asks one count per edge
for how many more fit). Each fractional row is checked before rounding,
and every point that passes the checks with rows in the items'
polymatroids rounds, LP vertex or not.

Eligibility, restrictedness, the slot order, the LP's columns, the flow
decision, the santa grid and the load levels read the instance's one
integer view (instances.IntegerValues: its values over one scale). A
fractional point is integers over one positive denominator den
(FractionalAssignment.point), as the exact simplex returns its vertex, so
the row checks, the slots, the per-entity totals and every additive
guarantee run in integers over scale·den; Fractions stay at the boundary
(T, the x view, given rows). When every item is classical and restricted
(one value on all its eligible entities), the LP is a transportation
problem: one exact max flow (matching.ResidualFlow) decides each guess
(Lenstra, Shmoys and Tardos 1990), and the simplex runs only when the
point of a feasible guess is read (FractionalAssignment.point), so a guess
loop over such an instance solves one LP. The objective-guessing
primitives live here too: guess_loop is the one bisection, over
santa_guess_grid (column_sums) or over integer load levels (lst_baseline).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, Iterable, Sequence, TypeVar

from .bitsets import bits, full_mask
from .instances import MakespanInstance, SantaInstance, scaled_totals
from . import intersection  # the search by module attribute, which tracers rebind
from .intersection import DirectSum, Membership, PartitionBound
from .limits import (Caps, DEFAULT_CAPS, ContractViolation, GuessRejected,
                     InternalInvariantError, SizeCapError)
from .matching import ResidualFlow
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


def item_polymatroid(inst, j: int) -> PolymatroidOracle:
    """Item j's polymatroid: a matroid item carries its own, and a classical
    item is the rank-one coverage polymatroid over its eligible entities
    (one unit, on any one of them)."""
    it = inst.items[j]
    if it.polymatroid is not None:
        return it.polymatroid
    mask = inst.int_values.eligible[j]
    return CoveragePoly([(mask >> i) & 1 for i in range(inst.num_entities)], [1])


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


def _gadget_round(inst, rows: Sequence[Sequence[int]], den: int, mode: str, caps: Caps
                  ) -> list[tuple[int, ...]]:
    """Round the fractional assignment rows/den of inst's items, over their
    polymatroids (item_polymatroid), on the slot graph (Shmoys and Tardos
    1993, for unrelated machines; Bezakova and Dani 2005 for max-min). Each
    entity lays the items' mass in decreasing order of their scaled value on
    that entity (int_values.values; a matroid item has one value, ties go by
    index) on [0, total), and slot s is [s, s + 1): floor mode keeps the full
    slots, ceil mode every slot the mass touches. An item has an edge of cap 1
    to each kept slot its mass overlaps (none where f({i}) = 0), and each slot
    holds one unit. Floor mode saturates the slots, ceil mode the items'
    bases.

    The fractional point, spread over the slots, lies in both polymatroids
    and reaches that target, and integer polymatroid intersection is
    integral, so every point whose rows lie in the items' polymatroids
    saturates. Floor mode: the unit of slot s is worth at least every value
    in slot s + 1 on that entity, so each entity gets at least its
    fractional value minus the largest value on it. Ceil mode: slot s >= 1
    holds a size no larger than the mass of the full slot s - 1, so each
    load is at most its fractional load plus the largest size on it."""
    m, values = inst.num_entities, inst.int_values.values
    polys = [item_polymatroid(inst, j) for j in range(len(rows))]
    edges: list[tuple[int, int]] = []  # (item, entity) per edge
    slot_of: list[int] = []
    slots = 0
    for i in range(m):
        total = sum(row[i] for row in rows)
        kept = total // den if mode == "floor" else -(-total // den)
        # only positive mass is placed, and an infinite size holds none
        held = [j for j, row in enumerate(rows) if row[i] > 0]
        start = 0
        for j in sorted(held, key=lambda j: (-_value_on(values[j], i), j)):
            x = rows[j][i]
            if polys[j].value(1 << i) > 0:
                for s in range(start // den, min((start + x - 1) // den + 1, kept)):
                    edges.append((j, i))
                    slot_of.append(slots + s)
            start += x
        slots += kept

    item_of = [j for j, _ in edges]
    if not inst.is_matroid_flavor:
        items = PartitionBound(item_of, [1] * len(polys))
    else:
        items = DirectSum(item_of, [Membership(p, [i for k, i in edges if k == j], caps)
                                    for j, p in enumerate(polys)])
    best = intersection.max_common_independent([1] * len(edges), items,
                                                PartitionBound(slot_of, [1] * slots),
                                                4 * caps.expand)
    if mode == "floor":
        target, what = slots, "slots"
    else:
        target, what = sum(p.value(full_mask(m)) for p in polys), "items' bases"
    if sum(best) != target:
        raise ContractViolation(
            f"gadget rounding fell short of saturating its {what} "
            f"({sum(best)} of {target}); the fractional input is not LP-feasible")
    alloc = [[0] * m for _ in polys]
    for (j, i), c in zip(edges, best):
        alloc[j][i] += c
    return [tuple(vec) for vec in alloc]


def _value_on(v: int | tuple, i: int) -> int | None:
    """An item's scaled value on entity i, from its int_values entry: a
    matroid item's one value, a classical item's own entry (None for an
    infinite size)."""
    return v[i] if isinstance(v, tuple) else v


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


def _check_rows(inst, rows: Sequence[Sequence[int]], den: int) -> None:
    """Each fractional row rows[j]/den is nonnegative. A classical row puts no
    mass on an ineligible entity and sums to exactly 1 (0 for a resource that
    no player values). A polymatroid row sums to f(E) in makespan, and to at
    most f(E) in max-min, where each rounded vector is raised to a basis
    afterwards."""
    is_makespan = isinstance(inst, MakespanInstance)
    for j, (it, row, mask) in enumerate(zip(inst.items, rows, inst.int_values.eligible)):
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
            full, up_to = it.polymatroid.value(full_mask(len(row))), not is_makespan
        if total > full * den or (total < full * den and not up_to):
            raise ContractViolation(f"fractional assignment: item {j} sums to "
                                    f"{Fraction(total, den)}, "
                                    f"expected {'at most ' if up_to else ''}{full}")


def _check_and_round(inst, frac: FractionalAssignment, mode: str, caps: Caps
                     ) -> tuple[list[tuple[int, ...]], list[int], list[int], int, int]:
    """Check frac's shape and rows, then gadget-round frac. Returns the
    allocation and, as integers over one unit (the instance's scale times
    the point's den times T's denominator), the integral and the fractional
    per-entity totals, the largest finite value of any item on any entity
    (v_max, or p_max in makespan) and T."""
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
    _check_rows(inst, rows, den)
    alloc = _gadget_round(inst, rows, den, mode, caps)
    view, t_den = inst.int_values, T.denominator
    vmax = max((v for row in view.values for i in range(m)
                if (v := _value_on(row, i)) is not None), default=0)
    unit = den * t_den  # integral totals and values are over scale alone
    return (alloc, [t * unit for t in scaled_totals(inst, alloc)],
            [t * t_den for t in ftotals], vmax * unit, T.numerator * view.scale * den)


def round_santa(inst: SantaInstance, frac: FractionalAssignment,
                caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Integral allocation with every player value at least T - v_max, v_max
    the largest value of any resource to any player.

    The fractional input must satisfy the assignment LP at frac.T. Each
    resource ends on a basis of its polymatroid, a classical one by
    _classical_basis and a matroid one by greedy_basis_above. Every check
    and the guarantee run in integers.
    """
    alloc, vals, fvals, vmax, t = _check_and_round(inst, frac, "floor", caps)
    # per-player guarantee: lose at most v_max against one's own fractional
    # value (at least T - v_max when the input satisfies the LP at T)
    shortfall = [i for i in range(inst.num_players) if vals[i] < min(t, fvals[i]) - vmax]
    if shortfall:
        raise ContractViolation(f"rounding guarantee violated for players {shortfall}")
    eligible = inst.int_values.eligible
    return [greedy_basis_above(it.polymatroid, vec, caps) if it.polymatroid is not None
            else _classical_basis(vec, eligible[j])
            for j, (it, vec) in enumerate(zip(inst.items, alloc))]


def _classical_basis(row: Sequence[int], eligible: int) -> tuple[int, ...]:
    """The basis above a classical resource's rounded row, with no
    enumeration. Its view is the rank-one coverage polymatroid over its
    eligible players (item_polymatroid), whose members hold at most one
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
    """Integral schedule (a basis per job) with every load at most T + p_max,
    p_max the largest finite size of any job on any machine."""
    alloc, loads, floads, pmax, t = _check_and_round(inst, frac, "ceil", caps)
    over = [i for i in range(inst.num_machines) if loads[i] > max(t, floads[i]) + pmax]
    if over:
        raise ContractViolation(f"rounding guarantee violated for machines {over}")
    return alloc


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
    """Assignment-LP guessing plus round_makespan, for restricted, unrelated
    and matroid jobs alike: makespan <= T* + p_max (p_max the largest finite
    size on any machine), where T* = k/L is the smallest LP-feasible load
    level (L the instance's scale). Loads are integers over L and LP
    feasibility is monotone in T, so T* <= OPT. Level top is feasible: a
    classical job fits whole where it is smallest, and any basis of a
    matroid job puts at most v·f({i}) on i."""
    view, m = inst.int_values, inst.num_machines
    top = sum(v * max((it.polymatroid.value(1 << i) for i in range(m)), default=0)
              if it.polymatroid is not None else min(filter(None, v), default=0)
              for it, v in zip(inst.jobs, view.values))
    k, frac = guess_loop(lambda k: solve_assignment_lp(inst, Fraction(k, view.scale), caps),
                         range(top, -1, -1))
    if k is None:
        raise ContractViolation("no feasible guess: some job fits on no machine")
    return round_makespan(inst, frac, caps), Fraction(k, view.scale)
