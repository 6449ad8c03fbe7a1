"""Shared helpers: structure-aware exact solvers for reduction gadgets,
seeded draws, the dense Fraction tableau the simplex is checked against,
and the Fraction formulas the certificate check is checked against.

The two-value gadget's max-min optimum is reached by canonical solutions in
which every job-player holds exactly one resource (worth w to it) and every
other resource stays with its machine-player, so exact search only needs
each job-player's (machine, big-or-small) choice.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import ceil

from matalloc.bitsets import bits, size
from matalloc.instances import CoreCoverInstance, Item, SantaInstance, unit_vector
from matalloc.matroids import PartitionMatroid, UniformMatroid
from matalloc.polymatroids import (CappedPoly, CoveragePoly, DualPoly, ModularPoly,
                                   ScaledRankPoly, SumPoly, capped_marginal)


def gadget_santa_opt(bundle):
    """Exact optimum (value, allocation) of a two-value reduction gadget."""
    inst = bundle.santa
    src = bundle.source
    m = src.num_machines
    n = len(src.jobs)
    w, u, k = bundle.w, bundle.u, bundle.k

    options = []
    for j in range(n):
        mine = []
        for i in range(m):
            s = src.jobs[j].values[i]
            if s == w:
                mine.append((i, "big"))
            if s == u and k > 0:
                mine.append((i, "small"))
        if not mine:
            return Fraction(0), None
        options.append(mine)

    best_val = None
    best_choice = None
    choice = [None] * n

    def rec(j, big_used, small_used):
        nonlocal best_val, best_choice
        if j == n:
            machine_vals = [w + k * u - (w if (big_used >> i) & 1 else Fraction(0))
                            - u * small_used[i] for i in range(m)]
            val = min([w] + machine_vals)
            if best_val is None or val > best_val:
                best_val = val
                best_choice = list(choice)
            return
        for i, kind in options[j]:
            if kind == "big":
                if (big_used >> i) & 1:
                    continue
                choice[j] = (i, kind)
                rec(j + 1, big_used | (1 << i), small_used)
            else:
                if small_used[i] >= k:
                    continue
                choice[j] = (i, kind)
                small_used[i] += 1
                rec(j + 1, big_used, small_used)
                small_used[i] -= 1
        choice[j] = None

    rec(0, 0, [0] * m)
    if best_val is None:
        return Fraction(0), None

    nplayers = inst.num_players
    owner = []
    small_next = [0] * m
    taken = {}
    for j, (i, kind) in enumerate(best_choice):
        if kind == "big":
            taken[("big", i)] = m + j
        else:
            taken[("small", i, small_next[i])] = m + j
            small_next[i] += 1
    alloc = []
    for ridx, desc in enumerate(bundle.resource_desc):
        machine = desc[1]
        player = taken.get(desc if desc[0] == "big" else ("small", desc[1], desc[2]))
        if player is None:
            player = machine  # machine-player keeps its own resource
        alloc.append(unit_vector(player, nplayers))
    return best_val, alloc


def random_poly(rng, n):
    """A random polymatroid across the concrete and derived families."""
    kind = rng.choice(["modular", "coverage", "scaled", "capped", "dual", "sum"])
    if kind == "modular":
        return ModularPoly([rng.randint(0, 3) for _ in range(n)])
    if kind == "coverage":
        u = rng.randint(1, n + 1)
        return CoveragePoly([rng.getrandbits(u) for _ in range(n)],
                            [rng.randint(1, 3) for _ in range(u)])
    if kind == "scaled":
        return ScaledRankPoly(UniformMatroid(n, rng.randint(0, n)), rng.randint(1, 3))
    if kind == "capped":
        inner = ModularPoly([rng.randint(0, 4) for _ in range(n)])
        return CappedPoly(inner, [rng.choice([None, 1, 2]) for _ in range(n)])
    if kind == "dual":
        inner = CoveragePoly([rng.getrandbits(2) for _ in range(n)], [2, 1])
        z = tuple(inner.value(1 << e) for e in range(n))
        return DualPoly(inner, z)
    return SumPoly([ModularPoly([rng.randint(0, 2) for _ in range(n)]),
                    ScaledRankPoly(UniformMatroid(n, 1), rng.randint(1, 2))])


def brute_opt_config_matched(inst, configs):
    """Exact optimum over assignments matching the configuration collection.

    DFS over players with a used-resource bitmask; each player receives a
    subset of the remaining resources whose per-type counts equal one of its
    configurations (resources worthless to the player are never taken, which
    loses nothing). Returns the best min-player total, or None when no
    player-by-player matching exists at all.
    """
    m = inst.num_players
    n = len(inst.resources)

    sig_value = []  # per player: count-signature -> best config total
    for i in range(m):
        table = {}
        for c in configs[i]:
            sig = tuple(sorted(c.items()))
            total = sum((v * k for v, k in c.items()), Fraction(0))
            if sig not in table or table[sig] < total:
                table[sig] = total
        sig_value.append(table)

    positive = [[j for j in range(n) if inst.resources[j].values[i] > 0] for i in range(m)]

    @lru_cache(maxsize=None)
    def best_from(i, used):
        if i == m:
            return Fraction(10 ** 9)
        best = None
        pool = [j for j in positive[i] if not (used >> j) & 1]
        for pick in range(1 << len(pool)):
            counts = {}
            chosen = 0
            for t, j in enumerate(pool):
                if (pick >> t) & 1:
                    v = inst.resources[j].values[i]
                    counts[v] = counts.get(v, 0) + 1
                    chosen |= 1 << j
            sig = tuple(sorted(counts.items()))
            total = sig_value[i].get(sig)
            if total is None:
                continue
            rest = best_from(i + 1, used | chosen)
            if rest is None:
                continue
            val = min(total, rest)
            if best is None or val > best:
                best = val
        return best

    return best_from(0, 0)


def schedule_within(inst, theta):
    """A schedule of a classical makespan instance with makespan <= theta, or
    None; bounded DFS over jobs ordered by fewest eligible machines."""
    m = inst.num_machines
    jobs = list(range(len(inst.jobs)))
    options = []
    for j in jobs:
        opts = [(i, inst.jobs[j].values[i]) for i in range(m)
                if inst.jobs[j].values[i] is not None and inst.jobs[j].values[i] <= theta]
        if not opts:
            return None
        options.append(opts)
    order = sorted(jobs, key=lambda j: len(options[j]))
    loads = [Fraction(0)] * m
    chosen = [None] * len(jobs)

    def rec(k):
        if k == len(order):
            return True
        j = order[k]
        for i, s in options[j]:
            if loads[i] + s <= theta:
                loads[i] += s
                chosen[j] = i
                if rec(k + 1):
                    return True
                loads[i] -= s
        return False

    if not rec(0):
        return None
    return [unit_vector(c, m) for c in chosen]


def nested_coverage_core(seed):
    """A core-cover family that forces the recursion path of the search.

    One matroid block holds the targets and the addable elements A (capacity
    |A|), so targets only enter by evicting A; each A element covers 2b
    dedicated items (so 2b·A fits the polymatroid), while rank-zero elements
    cover items inside A's blocks, making them blocking elements once A is
    capped at b. The child problem then fails or frees them, exercising
    certificate folding and the post-recursion bookkeeping.
    """
    rng = random.Random(seed)
    b = rng.randint(1, 2)
    na = rng.randint(1, 2)          # addable elements
    nt = rng.randint(1, 2)          # targets
    np_ = rng.randint(2, min(4, 2 * na * b))  # rank-zero cover-sharers
    n = na + nt + np_
    a_ids = list(range(na))
    t_ids = list(range(na, na + nt))
    p_ids = list(range(na + nt, n))

    items_per_a = 2 * b
    universe = na * items_per_a + nt * 3 * b
    covers = [0] * n
    for idx, a in enumerate(a_ids):
        for k in range(items_per_a):
            covers[a] |= 1 << (idx * items_per_a + k)
    pool = list(range(na * items_per_a))
    rng.shuffle(pool)
    pos = 0
    for p in p_ids:
        for _ in range(b):
            covers[p] |= 1 << pool[pos % len(pool)]
            pos += 1
    base = na * items_per_a
    for idx, t in enumerate(t_ids):
        for k in range(3 * b):
            covers[t] |= 1 << (base + idx * 3 * b + k)
    poly = CoveragePoly(covers, [1] * universe)

    blocks = [sum(1 << e for e in a_ids + t_ids), sum(1 << e for e in p_ids)]
    matroid = PartitionMatroid(n, blocks, [na, 0])
    return CoreCoverInstance(matroid, poly, b)


def three_value_draw(seed):
    """A three-valued restricted matroid max-min draw (the heavy-light case
    of reduce_to_core)."""
    rng = random.Random(seed)
    return SantaInstance(3, [Item(value=rng.choice([Fraction(1), Fraction(2), Fraction(6)]),
                                  polymatroid=ModularPoly([rng.randint(0, 2) for _ in range(3)]))
                             for _ in range(6)])


def reference_point(num_vars, constraints, events=None):
    """The textbook reference for matalloc.simplex: a dense phase-one tableau
    over Fraction with Bland's rule, every entry divided through on each
    pivot, then the drive-out of zero-level artificials (deleting the rows
    where none can leave) before the read-out. events, if given, counts
    ratio-test ties, deleted rows and drive-out pivots on negative entries."""
    events = Counter() if events is None else events
    rows = []
    for coeffs, sense, rhs in constraints:
        rhs = Fraction(rhs)
        coeffs = {j: Fraction(c) for j, c in coeffs.items() if c}
        if rhs < 0:
            coeffs = {j: -c for j, c in coeffs.items()}
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        rows.append((coeffs, sense, rhs))

    num_slack = sum(1 for _, sense, _ in rows if sense != "==")
    num_art = sum(1 for _, sense, _ in rows if sense != "<=")
    width = num_vars + num_slack + num_art + 1
    tableau, basis, art_cols = [], [], []
    slack_at = num_vars
    art_at = num_vars + num_slack
    for coeffs, sense, rhs in rows:
        row = [Fraction(0)] * width
        for j, c in coeffs.items():
            row[j] = c
        if sense == "<=":
            row[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        else:
            if sense == ">=":
                row[slack_at] = Fraction(-1)
                slack_at += 1
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        row[-1] = rhs
        tableau.append(row)

    art_set = set(art_cols)
    obj = [Fraction(0)] * width
    for i, b in enumerate(basis):
        if b in art_set:
            for j in range(width):
                obj[j] -= tableau[i][j]
    for j in art_cols:
        obj[j] = Fraction(0)

    def pivot(row_i, col_j):
        piv = tableau[row_i][col_j]
        tableau[row_i] = [v / piv for v in tableau[row_i]]
        for r in range(len(tableau)):
            if r != row_i and tableau[r][col_j]:
                f = tableau[r][col_j]
                tableau[r] = [a - f * b for a, b in zip(tableau[r], tableau[row_i])]
        if obj[col_j]:
            f = obj[col_j]
            for j in range(width):
                obj[j] -= f * tableau[row_i][j]
        basis[row_i] = col_j

    while True:
        enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if ratio == best:
                    events["tie"] += 1
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return None
        pivot(leave, enter)

    if -obj[-1] > 0:
        return None

    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] in art_set:
            col = next((j for j in range(num_vars + num_slack) if tableau[i][j]), None)
            if col is None:
                events["deleted_row"] += 1
                del tableau[i]
                del basis[i]
            else:
                if tableau[i][col] < 0:
                    events["negative_drive_out"] += 1
                pivot(i, col)

    point = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = tableau[i][-1]
    return point


def reference_certificate_report(cert, matroid, poly):
    """The reference for matalloc.localsearch.verify_certificate's
    non-exhaustive report: the four certificate properties and the excluded
    multiple, each threshold evaluated in Fraction arithmetic."""
    z1, z2, b, eps, b0 = cert.z1, cert.z2, cert.b, Fraction(cert.eps), cert.b0
    n_b0 = size(b0)
    report = {"contained": bool(z2 & ~z1 == 0 and z1 & ~(cert.ground & ~b0) == 0)}
    report["p1_rank_shields_b0"] = Fraction(matroid.rank_marginal(b0, z1)) < 2 * eps * n_b0
    report["p2_rank_deficiency"] = (
        Fraction(matroid.rank(z1))
        <= size(z1) - (Fraction(1, 2) - 2 * eps) * size(z2) + eps * n_b0)
    good = sum(1 for i in bits(z2)
               if capped_marginal(poly, 1 << i, b, z2 & ~(1 << i)) < b)
    report["p3_small_marginals_in_z2"] = Fraction(good) >= (1 - eps) * size(z2)
    report["p4_small_marginals_above_z2"] = all(
        capped_marginal(poly, 1 << i, 2 * b, z2) < 2 * b for i in bits(z1 & ~z2))
    report["ok"] = all(report[k] for k in
                       ("contained", "p1_rank_shields_b0", "p2_rank_deficiency",
                        "p3_small_marginals_in_z2", "p4_small_marginals_above_z2"))
    report["excluded_multiple"] = ceil(2 + 2 * (1 + 2 * eps) / (1 - 6 * eps))
    report["exhaustive_sound"] = None
    return report
