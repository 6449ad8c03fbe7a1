"""Constructive reductions between max-min allocation and makespan minimization.

Each reduction is a builder returning a bundle (the constructed instance
plus the gadget wiring) and a back-translation that converts a solution of
the constructed instance into one of the source instance, re-verifying the
advertised bound with exact rationals (violations are hard errors). The
classical back-translations first check the solver's answer with
instances.validate_allocation and sum it with instances.entity_totals; a
malformed answer is a ContractViolation that names it.

Covered here: configuration rounding for unrelated max-min instances, the
configuration gadget to makespan, the two-value equivalences in both
directions, the duality-based reductions between the two-job matroid
makespan problem and the two-resource matroid max-min problem, the
reduction of a restricted matroid max-min instance to core cover
problems. The guessing primitives all of them plug into (the max-min
guess grid and the guessing loop) live in rounding and are re-exported
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .bitsets import full_mask
from .instances import (Allocation, CoreCoverInstance, Item, MakespanInstance, SantaInstance,
                        assignment_to_alloc, entity_totals, validate_allocation)
from .intersection import decompose_in_sum, decompose_merged_basis
from .limits import (BaselineRegime, Caps, DEFAULT_CAPS, ContractViolation, GuessRejected,
                     SizeCapError)
from .matching import perfect_matching
from .polymatroids import (DualPoly, PolymatroidOracle, SumPoly, greedy_basis_above, is_basis,
                           member)
from .rounding import (FractionalAssignment, guess_loop, lst_baseline, round_santa,
                       santa_guess_grid, solve_assignment_lp)

Configuration = dict  # value type -> count; nonzero counts only


def config_total(c: Configuration) -> Fraction:
    return sum((v * k for v, k in c.items()), Fraction(0))


# ---------------------------------------------------------------------------
# Configuration rounding (unrelated max-min)


def _round_value(v: Fraction, eps: Fraction, n: int) -> Fraction:
    if v >= 1:
        return Fraction(1)
    if v < Fraction(1, 1) / ((1 + eps) * n):
        return Fraction(0)
    power = Fraction(1) / (1 + eps)
    while power > v:
        power /= 1 + eps
    return power


def _allowed_counts(eps: Fraction, n: int) -> list[int]:
    allowed = {0}
    power = Fraction(1)
    while power <= n:
        allowed.add(math.floor(power))
        allowed.add(math.ceil(power))
        power *= 1 + eps
    return sorted(c for c in allowed if 0 <= c <= n)


def config_round(inst: SantaInstance, eps: Fraction | float,
                 caps: Caps = DEFAULT_CAPS) -> tuple[SantaInstance, list[list[Configuration]]]:
    """Round values down to powers of 1/(1+eps) (clamping at 1, zeroing below
    1/((1+eps)n)) and enumerate a polynomial per-player configuration family.

    Counts are restricted to floors/ceilings of powers of 1+eps; within each
    of ceil(1/eps^3) value classes, the nonzero counts of a configuration
    must strictly increase as the value decreases.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if inst.is_matroid_flavor:
        raise ValueError("configuration rounding applies to classical instances")
    n = len(inst.resources)
    m = inst.num_players
    rounded = SantaInstance(m, [
        Item(values=tuple(_round_value(it.values[i], eps, n) for i in range(m)))
        for it in inst.resources])

    types = sorted({v for it in rounded.resources for v in it.values if v > 0}, reverse=True)
    kappa = math.ceil(1 / eps ** 3)
    klass = {v: idx % kappa for idx, v in enumerate(types)}
    allowed = _allowed_counts(eps, n)

    collection: list[list[Configuration]] = []
    for i in range(m):
        have = {v: sum(1 for it in rounded.resources if it.values[i] == v) for v in types}
        relevant = [v for v in types if have[v] > 0]  # descending
        configs: list[Configuration] = []

        def extend(idx: int, current: Configuration, last_in_class: dict[int, int]) -> None:
            if len(configs) > caps.configs_per_player:
                raise SizeCapError("per-player configuration count exceeds cap")
            if idx == len(relevant):
                configs.append(current)
                return
            v = relevant[idx]
            cls = klass[v]
            for count in allowed:
                if count > have[v]:
                    break
                if not count:
                    extend(idx + 1, current, last_in_class)
                elif last_in_class.get(cls, 0) < count:
                    # within a class, nonzero counts must strictly increase
                    extend(idx + 1, {**current, v: count}, {**last_in_class, cls: count})

        extend(0, {}, {})
        collection.append(configs)
    return rounded, collection


# ---------------------------------------------------------------------------
# Max-min with configurations -> makespan gadget


@dataclass
class SantaToMakespanBundle:
    source: SantaInstance
    configs: list[list[Configuration]]
    makespan: MakespanInstance
    machines: list[tuple]  # ("config", player, cfg index) | ("resource", resource)
    jobs: list[tuple]      # ("player", i) | ("configjob", i, cfg index, value, copy)


def santa_to_makespan(inst: SantaInstance, configs: Sequence[Sequence[Configuration]]
                      ) -> SantaToMakespanBundle:
    """The configuration gadget: one machine per (player, configuration) and per
    resource; a unit player-job selecting the configuration, and c(v) jobs per
    value type of size v/|c| on the configuration machine and 1 on matching
    resource machines. Configurations of total value below 1 are dropped first.
    """
    if inst.is_matroid_flavor:
        raise ValueError("the configuration gadget applies to classical instances")
    m = inst.num_players
    pruned: list[list[Configuration]] = []
    for i in range(m):
        keep = [c for c in configs[i] if config_total(c) >= 1]
        if not keep:
            raise ContractViolation(f"player {i} has no configuration of value >= 1")
        pruned.append(keep)

    machines: list[tuple] = []
    for i in range(m):
        machines.extend(("config", i, ci) for ci in range(len(pruned[i])))
    machines.extend(("resource", j) for j in range(len(inst.resources)))
    mach_index = {desc: k for k, desc in enumerate(machines)}

    jobs: list[tuple] = []
    rows: list[tuple] = []
    for i in range(m):
        jobs.append(("player", i))
        row = [None] * len(machines)
        for ci in range(len(pruned[i])):
            row[mach_index[("config", i, ci)]] = Fraction(1)
        rows.append(tuple(row))
    for i in range(m):
        for ci, c in enumerate(pruned[i]):
            total = config_total(c)
            for v, count in sorted(c.items(), reverse=True):
                for copy in range(count):
                    jobs.append(("configjob", i, ci, v, copy))
                    row = [None] * len(machines)
                    row[mach_index[("config", i, ci)]] = v / total
                    for j, it in enumerate(inst.resources):
                        if it.values[i] == v:
                            row[mach_index[("resource", j)]] = Fraction(1)
                    rows.append(tuple(row))
    gadget = MakespanInstance(len(machines), [Item(values=r) for r in rows])
    return SantaToMakespanBundle(inst, pruned, gadget, machines, jobs)


def _checked_totals(inst, alloc: Allocation, what: str) -> list[Fraction]:
    """entity_totals of an allocation that validate_allocation accepts; a
    ValueError of either becomes a ContractViolation naming what."""
    try:
        validate_allocation(inst, alloc)
        return entity_totals(inst, alloc)
    except ValueError as exc:
        raise ContractViolation(f"{what}: {exc}") from exc


def santa_solution_from_schedule(bundle: SantaToMakespanBundle, schedule: Allocation
                                 ) -> tuple[Allocation, Fraction]:
    """Translate a gadget schedule of makespan mu < 2 back to an allocation in
    which every player receives value at least 2 - mu (= 1/alpha for a
    (2 - 1/alpha)-approximate schedule)."""
    inst = bundle.source
    m = inst.num_players
    mu = max(_checked_totals(bundle.makespan, schedule, "gadget schedule"))
    if mu >= 2:
        raise ContractViolation(f"gadget makespan {mu} >= 2 carries no guarantee")
    machine_of = [vec.index(1) for vec in schedule]

    selected = {}
    for jk, desc in enumerate(bundle.jobs):
        if desc[0] == "player":
            mdesc = bundle.machines[machine_of[jk]]
            if mdesc[0] != "config" or mdesc[1] != desc[1]:
                raise ContractViolation("player-job placed off its configuration machines")
            selected[desc[1]] = mdesc[2]

    # every job has size 1 on a resource machine, so mu < 2 leaves at most
    # one job on each: no resource gets two owners
    owner: list[int | None] = [None] * len(inst.resources)
    for jk, desc in enumerate(bundle.jobs):
        mdesc = bundle.machines[machine_of[jk]]
        # a configuration job that stayed home contributes nothing
        if desc[0] == "configjob" and selected[desc[1]] == desc[2] and mdesc[0] == "resource":
            owner[mdesc[1]] = desc[1]
    alloc = assignment_to_alloc(owner, m)
    values = entity_totals(inst, alloc)
    bound = 2 - mu
    shortfall = [i for i in range(m) if values[i] < bound]
    if shortfall:
        raise ContractViolation(f"translated value below 2 - makespan for players {shortfall}")
    return alloc, min(values)


# ---------------------------------------------------------------------------
# Two-value makespan <-> two-value max-min


@dataclass
class TwoValueBundle:
    source: MakespanInstance
    santa: SantaInstance
    u: Fraction
    w: Fraction
    k: int
    t: Fraction
    resource_desc: list[tuple]  # ("big", machine) | ("small", machine, slot)
    player_desc: list[tuple]    # ("machine", i) | ("job", j)


def twovalue_makespan_to_santa(inst: MakespanInstance) -> TwoValueBundle:
    """Gadget for two-value makespan with optimum at most 1: per machine one
    machine-player with a big resource (value w) and k = min(floor(1/u), n)
    small resources (value u); per job a job-player valuing, at w, exactly
    the resources of machines that could host it. Guarantees OPT >= t for
    t = w + k*u - 1.

    Sizes above 1 are treated as infinite (unusable under the normalization).
    """
    if inst.is_matroid_flavor:
        raise ValueError("this direction applies to classical two-value instances")
    n = len(inst.jobs)
    msize = inst.num_machines
    cleaned = []
    for it in inst.jobs:
        cleaned.append(tuple(v if v is not None and v <= 1 else None for v in it.values))
        if all(v is None for v in cleaned[-1]):
            raise GuessRejected("a job fits on no machine at makespan 1")
    sizes = sorted({v for row in cleaned for v in row if v is not None})
    if len(sizes) > 2:
        raise ValueError("not a two-value instance")
    if not sizes:
        raise ValueError("instance has no usable sizes")
    u = sizes[0]
    w = sizes[-1]
    if w <= Fraction(1, 2):
        # two big jobs could share a machine, breaking the one-big-resource
        # encoding; this regime belongs to the additive baseline
        raise BaselineRegime("w <= 1/2: route to the additive baseline instead")
    k = n if u == 0 else min(math.floor(1 / u), n)

    player_desc = [("machine", i) for i in range(msize)] + [("job", j) for j in range(n)]
    resource_desc: list[tuple] = []
    for i in range(msize):
        resource_desc.append(("big", i))
        resource_desc.extend(("small", i, s) for s in range(k))

    def value_for(pdesc, rdesc) -> Fraction:
        if pdesc[0] == "machine":
            i = pdesc[1]
            if rdesc[1] != i:
                return Fraction(0)
            return w if rdesc[0] == "big" else u
        j = pdesc[1]
        i = rdesc[1]
        s = cleaned[j][i]
        if rdesc[0] == "big":
            return w if s == w else Fraction(0)
        return w if s == u else Fraction(0)

    items = [Item(values=tuple(value_for(p, r) for p in player_desc)) for r in resource_desc]
    santa = SantaInstance(len(player_desc), items)
    t = w + k * u - 1
    return TwoValueBundle(MakespanInstance(msize, [Item(values=c) for c in cleaned]),
                          santa, u, w, k, t, resource_desc, player_desc)


def schedule_from_santa_solution(bundle: TwoValueBundle, alloc: Allocation
                                 ) -> tuple[Allocation, Fraction]:
    """Translate a gadget allocation with min player value V > 0 into a schedule
    of makespan at most 1 + t - V (<= 2 - 1/alpha when V >= t/alpha)."""
    inst = bundle.source
    vmin = min(_checked_totals(bundle.santa, alloc, "gadget allocation"))
    if vmin <= 0:
        raise ContractViolation("some gadget player received nothing; value would be 0")

    # normalize: each job-player keeps exactly one resource (highest value,
    # ties by index); the rest go back to their machine-player. V > 0 gives
    # every job-player a resource of positive value, which names a machine
    # that can host its job.
    keep: dict[int, int] = {}
    for j, vec in enumerate(alloc):
        pidx = vec.index(1) if 1 in vec else None
        if pidx is None or bundle.player_desc[pidx][0] != "job":
            continue
        jj = bundle.player_desc[pidx][1]
        cur = keep.get(jj)
        if cur is None or (bundle.santa.resources[j].values[pidx]
                           > bundle.santa.resources[cur].values[pidx]):
            keep[jj] = j

    sched = assignment_to_alloc([bundle.resource_desc[keep[j]][1]
                                 for j in range(len(inst.jobs))], inst.num_machines)
    loads = _checked_totals(inst, sched, "translated schedule")
    bound = 1 + bundle.t - min(vmin, bundle.t)
    over = [i for i, load in enumerate(loads) if load > bound]
    if over:
        raise ContractViolation(f"translated makespan exceeds 1 + t - V on machines {over}")
    return sched, max(loads) if loads else Fraction(0)


def twovalue_santa_to_makespan(inst: SantaInstance, alpha: Fraction,
                               makespan_solver: Callable[[MakespanInstance], Allocation],
                               caps: Caps = DEFAULT_CAPS) -> tuple[Allocation, str]:
    """Solve a two-value max-min instance with OPT >= 1 to value >= 1/alpha,
    given a (2 - 1/alpha)-approximate two-value makespan solver.

    Three exhaustive cases: small w solves additively through the assignment
    LP; otherwise a perfect matching of players into w-resources suffices;
    otherwise the two-configuration collection {one w} / {ceil(1/u) u's} is
    pushed through the configuration gadget and the supplied solver.
    """
    alpha = Fraction(alpha)
    if alpha < 2:
        raise ValueError("alpha must be at least 2")
    if inst.is_matroid_flavor:
        raise ValueError("the two-value reduction applies to classical instances")
    view = inst.int_values
    vals = sorted({v for row in view.values for v in row if v}) or [0]
    if len(vals) > 2:
        raise ValueError("not a two-value instance")
    u, w = Fraction(vals[0], view.scale), Fraction(vals[-1], view.scale)
    m = inst.num_players

    if w < 1 / alpha:
        frac = solve_assignment_lp(inst, Fraction(1), caps)
        if frac is None:
            raise GuessRejected("assignment LP infeasible at the guessed optimum")
        alloc = round_santa(inst, frac, caps)  # every player at least 1 - w > 1/alpha
        _require_min_value(inst, alloc, 1 / alpha)
        return alloc, "additive"

    adj = [sum(1 << j for j, it in enumerate(inst.resources) if it.values[i] == w)
           for i in range(m)]
    matching = perfect_matching(adj, len(inst.resources))
    if matching is not None:
        owner: list[int | None] = [None] * len(inst.resources)
        for i, j in enumerate(matching):
            owner[j] = i
        alloc = assignment_to_alloc(owner, m)
        _require_min_value(inst, alloc, 1 / alpha)
        return alloc, "matching"

    if u == 0:
        raise GuessRejected("no matching of w-resources and u = 0: optimum below the guess")
    bscale = math.ceil(1 / u)
    scaled = SantaInstance(m, [
        Item(values=tuple(Fraction(1) if v == w else (Fraction(1, bscale) if v == u else Fraction(0))
                          for v in it.values)) for it in inst.resources])
    configs: list[list[Configuration]] = []
    for i in range(m):
        have_w = sum(1 for it in scaled.resources if it.values[i] == 1)
        have_u = sum(1 for it in scaled.resources if it.values[i] == Fraction(1, bscale))
        mine = []
        if have_w >= 1:
            mine.append({Fraction(1): 1})
        if have_u >= bscale:
            mine.append({Fraction(1, bscale): bscale})
        if not mine:
            raise GuessRejected(f"player {i} can reach neither configuration: optimum below 1")
        configs.append(mine)
    bundle = santa_to_makespan(scaled, configs)
    schedule = makespan_solver(bundle.makespan)
    scaled_alloc, _ = santa_solution_from_schedule(bundle, schedule)
    _require_min_value(scaled, scaled_alloc, 1 / alpha)
    _require_min_value(inst, scaled_alloc, 1 / alpha)
    return scaled_alloc, "configuration"


def _require_min_value(inst: SantaInstance, alloc: Allocation, bound: Fraction) -> None:
    low = min(entity_totals(inst, alloc))
    if low < bound:
        raise ContractViolation(f"translated value {low} below the bound {bound}")


def solve_twovalue_makespan_via_santa(inst: MakespanInstance, alpha: Fraction,
                                      santa_solver: Callable[[SantaInstance], Allocation],
                                      caps: Caps = DEFAULT_CAPS
                                      ) -> tuple[Allocation, Fraction, str]:
    """Schedule a two-value makespan instance with OPT <= 1 at makespan
    <= 2 - 1/alpha, given an alpha-approximate two-value max-min solver.

    When the large size is at most 1/2, the additive LP baseline already
    reaches 3/2 <= 2 - 1/alpha; otherwise the gadget converts the
    alpha-approximate allocation back into a schedule.
    """
    alpha = Fraction(alpha)
    if alpha < 2:
        raise ValueError("alpha must be at least 2")
    try:
        bundle = twovalue_makespan_to_santa(inst)
    except BaselineRegime:
        alloc, t_star = lst_baseline(inst, caps)
        return alloc, t_star, "baseline"
    santa_alloc = santa_solver(bundle.santa)
    sched, mu = schedule_from_santa_solution(bundle, santa_alloc)
    if mu > 2 - 1 / alpha:
        raise ContractViolation("translated makespan exceeds 2 - 1/alpha")
    return sched, mu, "gadget"


# ---------------------------------------------------------------------------
# Matroid flavors: duality reductions (two jobs / two resources)


@dataclass
class MatroidDualBundle:
    source: SantaInstance | MakespanInstance
    built: SantaInstance | MakespanInstance
    caps_per_item: tuple[int, int]
    capped: tuple[PolymatroidOracle, PolymatroidOracle]
    t: Fraction


def _dual_bundle(inst: SantaInstance | MakespanInstance, built_type: type,
                 caps_per: tuple[int, int], t: Fraction) -> MatroidDualBundle:
    """Cap item j at k_j = caps_per[j] on every entity and dualize it with
    respect to k_j·E; the built instance keeps the items' values."""
    n = inst.num_entities
    capped = tuple(it.polymatroid.capped(uniform=k, on=full_mask(n))
                   for it, k in zip(inst.items, caps_per))
    built = built_type(n, [Item(value=it.value, polymatroid=DualPoly(cp, (k,) * n))
                           for it, cp, k in zip(inst.items, capped, caps_per)])
    return MatroidDualBundle(inst, built, caps_per, capped, t)


def _undualize(bundle: MatroidDualBundle, vecs: Allocation,
               targets: Sequence[PolymatroidOracle]) -> list[tuple[int, ...]]:
    """y_j = k_j - vec_j for bases vec_j of the duals, each required to be a
    basis of targets[j]."""
    n = bundle.source.num_entities
    if len(vecs) != len(bundle.built.items):
        raise ContractViolation(f"expected {len(bundle.built.items)} vectors, got {len(vecs)}")
    out = []
    for jidx, (vec, it, k) in enumerate(zip(vecs, bundle.built.items, bundle.caps_per_item)):
        if not is_basis(it.polymatroid, vec):
            raise ContractViolation(f"input vector {jidx} is not a basis of the dual")
        y = tuple(k - vec[e] for e in range(n))
        if not is_basis(targets[jidx], y):
            raise ContractViolation(f"undualized vector {jidx} is not a basis of its target")
        out.append(y)
    # y_j(e) + vec_j(e) = k_j entrywise, so sum_j v_j (y_j + vec_j) = sum_j v_j k_j
    # at every entity holds by construction and needs no check
    return out


def matroid_makespan_to_santa(inst: MakespanInstance) -> MatroidDualBundle:
    """Two-job matroid makespan with OPT <= 1 becomes a two-resource matroid
    max-min instance via box caps at k_j = floor(1/p_j) and duals w.r.t. k_j·E.
    Guarantees OPT' >= t = k1*p1 + k2*p2 - 1."""
    if not inst.is_matroid_flavor or len(inst.jobs) != 2:
        raise ValueError("expected a matroid instance with exactly two jobs")
    everything = full_mask(inst.num_machines)
    ks = []
    for it in inst.jobs:
        p = it.value
        if p <= 0:
            raise ContractViolation("job sizes must be positive")
        if p > 1:
            if it.polymatroid.value(everything) > 0:
                raise GuessRejected("a job larger than the makespan bound must be scheduled")
            k = 0
        else:
            k = math.floor(1 / p)
        if it.polymatroid.capped(uniform=k, on=everything).value(everything) \
                != it.polymatroid.value(everything):
            raise GuessRejected("no basis fits the per-machine box: optimum exceeds 1")
        ks.append(k)
    t = ks[0] * inst.jobs[0].value + ks[1] * inst.jobs[1].value - 1
    return _dual_bundle(inst, SantaInstance, (ks[0], ks[1]), t)


def schedule_from_matroid_santa(bundle: MatroidDualBundle, alloc: Allocation
                                ) -> tuple[Allocation, list[Fraction]]:
    """Undualize y_j(e) = k_j - y̅_j(e); checks the exact per-machine identity
    p1·y1 + p2·y2 + p1·y̅1 + p2·y̅2 = 1 + t and returns the schedule with loads."""
    inst: MakespanInstance = bundle.source
    out = _undualize(bundle, alloc, [it.polymatroid for it in inst.jobs])
    return out, entity_totals(inst, out)


def matroid_santa_to_makespan(inst: SantaInstance) -> MatroidDualBundle:
    """Two-resource matroid max-min with values 1 and 1/b (OPT >= 1) becomes a
    two-job matroid makespan instance via caps (1, b) and duals."""
    if not inst.is_matroid_flavor or len(inst.resources) != 2:
        raise ValueError("expected a matroid instance with exactly two resources")
    v1, v2 = inst.resources[0].value, inst.resources[1].value
    if v1 < v2:
        raise ValueError("resources must be ordered with the unit value first")
    if v1 != 1 or v2 <= 0 or (1 / v2).denominator != 1:
        raise ValueError("expected normalized values v1 = 1 and v2 = 1/b for integer b")
    return _dual_bundle(inst, MakespanInstance, (1, int(1 / v2)), Fraction(1))


def matroid_santa_from_schedule(bundle: MatroidDualBundle, schedule: Allocation,
                                caps: Caps = DEFAULT_CAPS
                                ) -> tuple[Allocation, list[Fraction]]:
    """Undualize and dominate-extend to bases of the original polymatroids;
    returns the allocation and the per-player values."""
    inst: SantaInstance = bundle.source
    pre = _undualize(bundle, schedule, bundle.capped)
    out = [tuple(greedy_basis_above(it.polymatroid, y, caps))
           for it, y in zip(inst.resources, pre)]
    return out, entity_totals(inst, out)


# ---------------------------------------------------------------------------
# Restricted matroid max-min -> core cover calls


@dataclass
class CoreReduction:
    """Outcome of reduce_to_core for an accepted guess: which path accepted
    it, the value it guarantees, and the allocation (per-resource vectors in
    the source instance inst). Every check that rejects a guess ran in
    reduce_to_core; the allocation is build(), run once, on the first read
    of alloc, with the round case's level search and the check that each
    player of inst reaches achieved. So a guess loop that keeps only its
    last accepted guess back-translates only that one; a ContractViolation
    or SizeCapError of the build surfaces on that read."""

    inst: SantaInstance
    build: Callable[[], Allocation]
    case: str
    achieved: Fraction

    @cached_property
    def alloc(self) -> Allocation:
        alloc = self.build()
        _require_min_value(self.inst, alloc, self.achieved)
        return alloc


def _light(inst: SantaInstance, idxs: Sequence[int], guess: Fraction
           ) -> tuple[SantaInstance, list[PolymatroidOracle]]:
    """The light instance of the resources idxs, their values over the guess,
    and its unit split: resource k becomes int_values.values[k] copies of
    its polymatroid, in order."""
    light = SantaInstance(inst.num_players, [
        Item(value=inst.resources[j].value / guess, polymatroid=inst.resources[j].polymatroid)
        for j in idxs])
    return light, [it.polymatroid for it, k in zip(light.resources, light.int_values.values)
                   for _ in range(k)]


def _round_light(light: SantaInstance, copies: Sequence[PolymatroidOracle], level: int,
                 y: Sequence[int], caps: Caps) -> list[tuple[int, ...]]:
    """Round the light instance at level over its scale from y, a member of
    the sum of its unit copies: split y over the copies and sum the pieces of
    each resource, with k copies, into an integer row over den, the lcm of
    the nonzero k; a worthless resource gets a zero row."""
    view = light.int_values
    pieces = iter(decompose_in_sum(copies, y, caps.override(expand=4 * caps.expand)))
    den = math.lcm(*(k for k in view.values if k))
    rows = []
    for k in view.values:
        mine = [next(pieces) for _ in range(k)]
        rows.append(tuple(sum(p[e] for p in mine) * (den // max(k, 1)) for e in range(len(y))))
    return round_santa(light, FractionalAssignment(Fraction(level, view.scale),
                                                   point=(rows, den)), caps)


def _merged(inst: SantaInstance, idxs: Sequence[int]) -> PolymatroidOracle:
    """The merged polymatroid of the resources idxs: the resource itself, or
    the instance's resource_sum, whose memos carry over between guesses."""
    return inst.resources[idxs[0]].polymatroid if len(idxs) == 1 else inst.resource_sum(idxs)


def _alloc_from_cover(inst: SantaInstance, idxs: Sequence[int], need: Sequence[int],
                      caps: Caps) -> list[tuple[int, ...]]:
    """Distribute the resources idxs so that player e receives at least need[e]
    units in total; each resource ends on a basis of its polymatroid. A need
    outside the resources' merged polymatroid is a ContractViolation."""
    merged = _merged(inst, idxs)
    if not member(merged, need, caps):
        raise ContractViolation("cover demand exceeds the merged polymatroid")
    y = greedy_basis_above(merged, tuple(need), caps)
    return decompose_merged_basis([inst.resources[j].polymatroid for j in idxs], y, caps)


def _cover_core(inst: SantaInstance, heavy: Sequence[int], light_sum: PolymatroidOracle, b: int,
                cover_solver: Callable[[CoreCoverInstance], object], caps: Caps
                ) -> tuple[Callable[[], list], tuple[int, ...]]:
    """Cover the players by the matroid induced by the heavy resources' sum
    (the instance's induced_matroid, kept between guesses with its rank memo
    and the cover outcomes solve_cover keeps on it) against light_sum at
    level b; no cover raises GuessRejected. Returns the cover's light vector
    y and a build of the allocation that places the heavy resources over the
    cover's I_M (every other resource empty)."""
    m = inst.num_players
    res = cover_solver(CoreCoverInstance(inst.induced_matroid(heavy), light_sum, b))
    if res is None or not getattr(res, "feasible", False):
        raise GuessRejected("core cover solver found no cover at the guessed level")

    def build() -> list:
        alloc: list = [tuple([0] * m) for _ in inst.resources]
        if res.I_M:
            need = [(res.I_M >> e) & 1 for e in range(m)]
            for j, piece in zip(heavy, _alloc_from_cover(inst, heavy, need, caps)):
                alloc[j] = piece
        return alloc

    return build, res.y


def reduce_to_core(inst: SantaInstance, alpha: Fraction, guess: Fraction,
                   cover_solver: Callable[[CoreCoverInstance], object],
                   caps: Caps = DEFAULT_CAPS) -> CoreReduction:
    """Solve a restricted matroid max-min instance to value >= guess/alpha
    (two-value flavor) or guess/(2*alpha) (general flavor), through core
    cover calls. cover_solver(CoreCoverInstance) returns an object with
    .feasible, .I_M and .y, or None.

    The guess is accepted or rejected here, and a rejection raises
    GuessRejected so an enclosing guessing loop can lower its guess. The
    checks that can reject it all run before this returns: the one-each
    membership of the all-ones vector, the cover call of the core-cover and
    heavy-light cases (no cover, or no heavy resource), and, in the round
    case, a unit split with no copies, a level scale above split(E)/m, or
    one membership of scale·1. The allocation of an accepted guess is built
    on the first read of the result's alloc, with the round case's search
    for its highest level and the check of the bound (see CoreReduction).

    alpha must be at least 1. The dispatch compares the values in integers
    over the instance's scale (int_values), cross-multiplied with guess and
    alpha. Two-value dispatch at thresholds guess/alpha: below u, one
    resource per player suffices; between u and w, cover by the matroid of w-coverable
    player sets against the u-value polymatroid; above w, every unit counts
    and the box-saturating vector is rounded through the additive gadget.
    """
    alpha = Fraction(alpha)
    guess = Fraction(guess)
    if alpha < 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    view = inst.int_values
    if not view.classes:
        raise ValueError("reduce_to_core expects a matroid-flavor instance")
    if guess <= 0:
        raise ValueError("guess must be positive")
    m = inst.num_players
    # a resource of value v (over view.scale) is worth v·num/den times guess/alpha
    num = alpha.numerator * guess.denominator
    den = view.scale * guess.numerator * alpha.denominator
    if len(view.classes) > 2:
        return _reduce_general(inst, alpha, guess, num, den, cover_solver, caps)
    (u, u_idx), (w, w_idx) = view.classes[0], view.classes[-1]

    if u * num >= den:
        # one resource each suffices, unless some player can receive none
        every = range(len(inst.resources))
        if not member(_merged(inst, every), [1] * m, caps):
            raise GuessRejected("cover demand exceeds the merged polymatroid")
        return CoreReduction(inst, lambda: _alloc_from_cover(inst, every, [1] * m, caps),
                             "one-each", Fraction(u, view.scale))

    if w * num >= den:
        # matroid of w-coverable player sets vs the u polymatroid; worthless
        # resources cannot help a player reach the bound, and a zero u forces
        # every player onto the matroid side (the instance's kept zero sum)
        u_sum = inst.resource_sum(u_idx if u > 0 else ())
        b = 1 if u == 0 else -(-den // (u * num))
        placed, y = _cover_core(inst, w_idx, u_sum, b, cover_solver, caps)

        def build() -> list:
            alloc = placed()
            if u_idx:
                for j, piece in zip(u_idx, _alloc_from_cover(inst, u_idx, list(y), caps)):
                    alloc[j] = piece
            return alloc

        return CoreReduction(inst, build, "core-cover", guess / alpha)

    # every value is small: saturate the unit-split polymatroid and round
    light, copies = _light(inst, range(len(inst.resources)), guess)
    scale = light.int_values.scale
    if not copies:
        raise GuessRejected("every resource is worthless: no player can reach the guessed level")
    split = SumPoly(copies)
    # every player at the level is the vector scale·1, which lies in P(split)
    # only if scale·m <= split(E); the highest such level is found on build
    hi = split.value(full_mask(m)) // max(m, 1)
    if hi < scale or not member(split, [scale] * m, caps):
        raise GuessRejected("the unit-split polymatroid cannot reach the guessed level")

    def build() -> Allocation:
        lo, _ = guess_loop(lambda k: member(split, [k] * m, caps) or None, range(scale, hi + 1))
        return _round_light(light, copies, lo, (lo,) * m, caps)

    return CoreReduction(inst, build, "round", guess / alpha)


def _reduce_general(inst: SantaInstance, alpha: Fraction, guess: Fraction, num: int, den: int,
                    cover_solver, caps: Caps) -> CoreReduction:
    """Heavy/light split at 1/(2*alpha): heavy resources (value v with
    2·v·num >= den, num/den as in reduce_to_core) cover through the induced
    matroid, light ones through the value-weighted polymatroid sum, rounded
    additively; the combined value is >= guess/(2*alpha)."""
    classes = inst.int_values.classes
    heavy = sorted(j for v, idxs in classes if 2 * v * num >= den for j in idxs)
    light_idx = sorted(j for v, idxs in classes if 2 * v * num < den for j in idxs)
    if not heavy:
        raise GuessRejected("no heavy resources at the guessed level")
    light, copies = _light(inst, light_idx, guess)
    light_sum = SumPoly(copies) if copies else inst.resource_sum(())
    b = -(-light.int_values.scale * alpha.denominator // alpha.numerator)
    placed, y = _cover_core(inst, heavy, light_sum, b, cover_solver, caps)

    def build() -> list:
        alloc = placed()
        # the light side serves only the players whose entry of y reaches b
        if copies and any(v >= b for v in y):
            for j, piece in zip(light_idx, _round_light(light, copies, b, y, caps)):
                alloc[j] = piece
        return alloc

    return CoreReduction(inst, build, "heavy-light", guess / (2 * alpha))
