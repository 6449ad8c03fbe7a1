"""Differential test of the integer-preserving simplex against a dense
rational tableau: the same Bland pivots must reach the same vertex."""

import random
from collections import Counter
from fractions import Fraction

from conftest import reference_point
from matalloc import rounding
from matalloc.instances import gen_random
from matalloc.simplex import feasible_point

F = Fraction
ZERO = F(0)


def vertex(num_vars, constraints):
    """feasible_point's vertex as Fractions after checking its form: ints
    over one positive denominator. None when infeasible."""
    found = feasible_point(num_vars, constraints)
    if found is None:
        return None
    nums, den = found
    assert type(den) is int and den > 0 and all(type(v) is int for v in nums)
    return [F(v, den) for v in nums]


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
    # the simplex stops at a zero artificial sum and keeps no artificial
    # columns: the reference pivots on past both, and reaches the same point
    assert events["zero_sum_pivot"] >= 50
    assert events["artificial_enters"] >= 15
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


def test_read_out_over_a_negative_determinant():
    # the reference's drive-out pivots on a negative entry here; the simplex
    # stops at phase one and reads the same point
    cons = [({0: F(-1), 1: F(1)}, "==", F(0)), ({0: F(-1), 1: F(2)}, "==", F(1)),
            ({0: F(-1), 1: F(1)}, ">=", F(0))]
    assert vertex(2, cons) == reference_point(2, cons) == [F(1), F(1)]


def test_read_out_after_a_redundant_row_is_dropped():
    # the second row repeats the first: its artificial stays basic at zero
    # with no other nonzero entry, so the reference's drive-out deletes the
    # row, and the simplex reads the same point with the row kept
    cons = [({0: F(2), 1: F(3)}, "==", F(5, 2)), ({0: F(2), 1: F(3)}, "==", F(5, 2)),
            ({0: F(1)}, ">=", F(1, 3))]
    events = Counter()
    assert vertex(2, cons) == reference_point(2, cons, events)
    assert events["deleted_row"] == 1


def test_assignment_lps_match():
    # exactly-once rows with >= and <= entity rows, and submask rows, from
    # every LP flavor; the rows are the ones solve_assignment_lp solves,
    # including those of the restricted guesses its max flow finds infeasible
    calls = []
    for flavor in ("restricted-santa", "unrelated-santa", "two-value-santa",
                   "restricted-makespan", "two-value-makespan", "santa-matroid",
                   "makespan-matroid"):
        for seed in range(4):
            inst = gen_random(flavor, seed, m=3, n=5)
            for t in (F(1), F(2), F(5, 2), F(4)):
                columns = rounding.assignment_lp_columns(inst, t)
                if columns is None:
                    continue
                var_of, constraints = rounding.assignment_lp_rows(inst, t, columns)
                got = vertex(len(var_of), constraints)
                calls.append(got == reference_point(len(var_of), constraints))
    assert len(calls) == 85 and all(calls)
