"""Exact feasibility via an integer-preserving phase-1 simplex.

Only phase one is needed: callers want a vertex of a feasibility system,
not an optimum. The tableau is fraction-free (Edmonds 1967; Bareiss 1968):
every entry is a Python int, and row i holds d_i times its true entries,
where d_i is the basis determinant at the row's last update. A row is a
dict of its nonzero entries (column -> int, the rhs at key RHS); the
objective row is a dense list, its rhs last.

- *Row scaling.* Each row is normalised to a nonnegative rhs (flipping its
  sense), then multiplied by the positive lcm s_i of its denominators.
  Slack and artificial variables keep unit columns, so this only rescales
  row i's slack and artificial by s_i; the x-part of every basic solution
  is unchanged.
- *No artificial columns.* The artificials start basic and are kept only
  as basis labels (the indices from num_vars + num_slack on) and as the
  phase-1 weights; the entering candidates are the x and slack columns.
  Bland's rule would reach an artificial column only once every x and
  slack column has a nonnegative reduced cost. With y the phase-1 duals,
  that is y·A_j <= 0 on those columns, so for any feasible x >= 0 the
  artificial sum is y·b = y·A·x <= 0: it is already 0, and the run has
  stopped (below). With no candidate left and a positive sum, the system
  is infeasible.
- *Phase-1 weights.* The artificial of row i costs L/s_i, with L the lcm
  of the artificial rows' s_i. That is the artificial sum of the unscaled
  system times L, so every reduced cost is a positive multiple of the
  unscaled one and every tableau column a positive multiple, row by row,
  of the unscaled column. Bland's rule (smallest entering index, smallest
  ratio with ties to the smallest basic index) therefore makes the same
  pivots as a dense rational tableau of the unscaled system, up to where
  the run stops. Ratios are compared by cross-multiplication.
- *Stop at a zero sum.* Phase one ends as soon as the artificial sum is 0.
  The sum cannot go below 0, so every later pivot of the dense tableau is
  degenerate: the basic values stay where they are, and so does the
  point read out.
- *Pivot.* The pivot row is brought to the current determinant det, and
  p = M[r][c] becomes the new one. A row with M[i][c] = 0 keeps its true
  entries, so it is left alone with its old d_i; every other row becomes
  (p·M[i][j] − M[i][c]·M[r][j]) // d_i over the union of its and the
  pivot row's nonzeros (only the pivot row's when d_i = p), and entries
  that reach 0 are dropped. The division is exact: the result is p times
  the new true entry, a minor of the scaled constraint matrix. The
  objective row is kept the same way, over det.
- *Sign of det.* det is the determinant of the current basis. Every pivot
  is on a positive true entry, so det and every d_i stay positive and the
  sign tests read the stored entries directly.
- *Read-out.* An artificial still basic when the run stops sits at level
  0, and the nonzero variables are basic, so their columns are
  independent: the x-part is a vertex of the system. It is returned as
  integers over one denominator: den is the lcm of the rows' d_i, and a
  basic variable of row i reads M[i][RHS]·(den // d_i), which is
  M[i][RHS]/d_i exactly. The point is the dense tableau's; den can differ
  from the one a run taking the skipped degenerate pivots would give.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

FLIP = {"<=": ">=", ">=": "<=", "==": "=="}
RHS = -1  # a row's rhs key, and the objective row's last entry


Constraints = Sequence[tuple[dict[int, Fraction], str, Fraction]]


def feasible_point(num_vars: int, constraints: Constraints) -> tuple[list[int], int] | None:
    """A basic feasible solution of {x >= 0 : constraints} as (nums, den),
    x_j = nums[j]/den with den > 0, or None.

    Each constraint is (coeffs, sense, rhs) with coeffs a sparse dict
    var -> coefficient and sense one of "<=", ">=", "==". Coefficients and
    rhs are Fractions or ints.
    """
    rows = []
    for coeffs, sense, rhs in constraints:
        coeffs = {j: c for j, c in coeffs.items() if c}
        s = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
        sign = -1 if rhs < 0 else 1
        if sign < 0:
            sense = FLIP[sense]
        rows.append(({j: sign * c.numerator * (s // c.denominator) for j, c in coeffs.items()},
                     sense, sign * rhs.numerator * (s // rhs.denominator), s))

    width = num_vars + sum(1 for _, sense, _, _ in rows if sense != "==")  # x and slacks
    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    art_scale: dict[int, int] = {}  # row -> s_i of the rows with an artificial
    slack_at, art_at = num_vars, width
    for row, sense, rhs, s in rows:
        if sense == "<=":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        else:
            if sense == ">=":
                row[slack_at] = -1
                slack_at += 1
            art_scale[len(tableau)] = s
            basis.append(art_at)
            art_at += 1
        if rhs:
            row[RHS] = rhs
        tableau.append(row)

    # phase-1 objective row: minimize sum (L/s_i)·art_i; reduced costs start
    # as -(weighted sum of artificial-basic rows)
    big_l = lcm(*art_scale.values())
    obj = [0] * (width + 1)
    for i, s in art_scale.items():
        w = big_l // s
        for j, v in tableau[i].items():
            obj[j] -= w * v
    dens = [1] * len(tableau)
    det = 1

    while obj[RHS]:  # minus the weighted artificial sum, times det
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            return None  # artificial sum cannot reach zero: infeasible
        leave = None
        for i, row in enumerate(tableau):
            a = row.get(enter, 0)
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a < rhs_leave / a_leave, both denominators positive
                lhs, rhs = row.get(RHS, 0) * tableau[leave][enter], tableau[leave].get(RHS, 0) * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None  # unbounded phase-1 objective cannot happen; defensive
        prow = tableau[leave]
        if dens[leave] != det:
            prow = {j: v * det // dens[leave] for j, v in prow.items()}
        p = prow[enter]
        for r, row in enumerate(tableau):
            f = row.get(enter)
            if r == leave or f is None:
                continue
            d = dens[r]
            if p == d:
                # (p·a − f·b) // p is a − f·b // p, so only the pivot row's nonzeros move
                for j, b in prow.items():
                    v = row.get(j, 0) - f * b // d
                    if v:
                        row[j] = v
                    else:
                        del row[j]
            else:
                new = {j: p * a for j, a in row.items()}
                for j, b in prow.items():
                    new[j] = new.get(j, 0) - f * b
                tableau[r] = {j: v // d for j, v in new.items() if v}
            dens[r] = p
        f = obj[enter]  # < 0
        if p == det:
            for j, b in prow.items():
                obj[j] -= f * b // det
        else:
            new = [p * a for a in obj]
            for j, b in prow.items():
                new[j] -= f * b
            obj = [v // det for v in new]
        tableau[leave], dens[leave], basis[leave] = prow, p, enter
        det = p

    den = lcm(*dens)  # 1 for no rows
    point = [0] * num_vars
    for row, b, d in zip(tableau, basis, dens):
        if b < num_vars:
            point[b] = row.get(RHS, 0) * (den // d)
    return point, den
