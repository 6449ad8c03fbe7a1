"""Differential test of the integer-preserving simplex against a dense
rational tableau: the same Bland pivots must reach the same vertex."""

import math
import random
from collections import Counter
from fractions import Fraction

from matalloc import rounding
from matalloc.instances import gen_random
from matalloc.simplex import feasible_point, final_tableau

F = Fraction
ZERO = F(0)
ONE = F(1)


def vertex(num_vars, constraints):
    """feasible_point's vertex as Fractions after checking its form: ints
    over one positive denominator. None when infeasible."""
    found = feasible_point(num_vars, constraints)
    if found is None:
        return None
    nums, den = found
    assert type(den) is int and den > 0 and all(type(v) is int for v in nums)
    return [F(v, den) for v in nums]


def reference_point(num_vars, constraints, events=None):
    """Dense two-phase tableau over Fraction with Bland's rule: every entry
    divided through on each pivot. events, if given, counts ratio-test ties,
    deleted rows and drive-out pivots on negative entries."""
    events = Counter() if events is None else events
    rows = []
    for coeffs, sense, rhs in constraints:
        rhs = F(rhs)
        coeffs = {j: F(c) for j, c in coeffs.items() if c}
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
        row = [ZERO] * width
        for j, c in coeffs.items():
            row[j] = c
        if sense == "<=":
            row[slack_at] = ONE
            basis.append(slack_at)
            slack_at += 1
        else:
            if sense == ">=":
                row[slack_at] = -ONE
                slack_at += 1
            row[art_at] = ONE
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        row[-1] = rhs
        tableau.append(row)

    art_set = set(art_cols)
    obj = [ZERO] * width
    for i, b in enumerate(basis):
        if b in art_set:
            for j in range(width):
                obj[j] -= tableau[i][j]
    for j in art_cols:
        obj[j] = ZERO

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

    point = [ZERO] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = tableau[i][-1]
    return point


def random_system(rng):
    """A small system mixing fractional rows with their own denominators,
    every sense with either rhs sign, and duplicated or dependent equality
    rows."""
    nv = rng.randint(1, 5)
    cons = []
    for _ in range(rng.randint(1, 6)):
        den = rng.choice([1, 1, 2, 3, 4, 6])
        coeffs = {j: F(rng.randint(-4, 4), den) for j in range(nv) if rng.random() < 0.7}
        sense = rng.choice(["<=", ">=", "=="])
        cons.append((coeffs, sense, F(rng.randint(-5, 5), rng.choice([1, den]))))
    eqs = [c for c in cons if c[1] == "=="]
    if eqs and rng.random() < 0.5:
        cons.insert(rng.randrange(len(cons) + 1), rng.choice(eqs))
    if len(eqs) >= 2 and rng.random() < 0.5:
        (c1, _, r1), (c2, _, r2) = rng.sample(eqs, 2)
        a, b = F(rng.randint(-3, 3), 2), F(rng.randint(1, 3), 3)
        comb = {j: a * c1.get(j, ZERO) + b * c2.get(j, ZERO) for j in range(nv)}
        cons.append((comb, "==", a * r1 + b * r2))
    return nv, cons


def test_matches_dense_rational_tableau():
    rng = random.Random(20231)
    events = Counter()
    outcomes = Counter()
    for _ in range(2500):
        nv, cons = random_system(rng)
        want = reference_point(nv, cons, events)
        got = vertex(nv, cons)
        assert got == want, (nv, cons)
        outcomes["none" if want is None else "point"] += 1
        outcomes.update(f"negative {sense}" for _, sense, rhs in cons if rhs < 0)
    assert outcomes["none"] >= 200 and outcomes["point"] >= 200
    assert all(outcomes[f"negative {sense}"] >= 200 for sense in ("<=", ">=", "=="))
    assert events["tie"] >= 50
    assert events["deleted_row"] >= 50
    assert events["negative_drive_out"] >= 20


def test_drive_out_on_negative_entry():
    # phase 1 ends with the artificial of the >= row basic at level zero and
    # -1 as its first nonzero entry, so det turns negative before read-out
    cons = [({0: F(-1), 1: F(1)}, "==", F(0)), ({0: F(-1), 1: F(2)}, "==", F(1)),
            ({0: F(-1), 1: F(1)}, ">=", F(0))]
    events = Counter()
    assert vertex(2, cons) == reference_point(2, cons, events) == [F(1), F(1)]
    assert events["negative_drive_out"] >= 1


def fraction_read_out(num_vars, constraints):
    """The final tableau read one Fraction(M[i][-1], d_i) per basic variable,
    as the simplex did before its integer point."""
    tableau, basis, dens = final_tableau(num_vars, constraints)
    point = [ZERO] * num_vars
    for row, b, d in zip(tableau, basis, dens):
        if b < num_vars:
            point[b] = F(row[-1], d)
    return point


def test_read_out_over_a_negative_determinant():
    cons = [({0: F(-1), 1: F(1)}, "==", F(0)), ({0: F(-1), 1: F(2)}, "==", F(1)),
            ({0: F(-1), 1: F(1)}, ">=", F(0))]
    _, _, dens = final_tableau(2, cons)
    assert min(dens) < 0
    nums, den = feasible_point(2, cons)
    assert den == math.lcm(*dens) > 0
    assert [F(v, den) for v in nums] == fraction_read_out(2, cons) == [F(1), F(1)]


def test_read_out_after_a_redundant_row_is_dropped():
    # the second row repeats the first: its artificial stays basic at zero
    # with no other nonzero entry, so the drive-out deletes the row
    cons = [({0: F(2), 1: F(3)}, "==", F(5, 2)), ({0: F(2), 1: F(3)}, "==", F(5, 2)),
            ({0: F(1)}, ">=", F(1, 3))]
    tableau, _, dens = final_tableau(2, cons)
    assert len(tableau) == 2 == len(dens)
    nums, den = feasible_point(2, cons)
    assert den == math.lcm(*dens) > 0
    assert [F(v, den) for v in nums] == fraction_read_out(2, cons) == reference_point(2, cons)


def test_read_out_matches_the_fraction_read_out():
    rng = random.Random(4242)
    seen = Counter()
    for _ in range(1500):
        nv, cons = random_system(rng)
        final = final_tableau(nv, cons)
        if final is None:
            assert feasible_point(nv, cons) is None
            continue
        tableau, _, dens = final
        seen["negative d"] += min(dens, default=1) < 0
        seen["dropped row"] += len(tableau) < len(cons)
        assert vertex(nv, cons) == fraction_read_out(nv, cons), (nv, cons)
    assert seen["negative d"] >= 20 and seen["dropped row"] >= 100


def test_assignment_lps_match():
    # exactly-once rows with >= and <= entity rows, and submask rows; the
    # rows are the ones solve_assignment_lp solves, including those of the
    # restricted guesses its max flow finds infeasible
    calls = []
    for flavor in ("restricted-santa", "unrelated-santa", "restricted-makespan",
                   "santa-matroid"):
        for seed in range(4):
            inst = gen_random(flavor, seed, m=3, n=5)
            for t in (F(1), F(2), F(5, 2), F(4)):
                columns = rounding.assignment_lp_columns(inst, t)
                if columns is None:
                    continue
                var_of, constraints = rounding.assignment_lp_rows(inst, t, columns)
                got = vertex(len(var_of), constraints)
                calls.append(got == reference_point(len(var_of), constraints))
    assert len(calls) == 58 and all(calls)
