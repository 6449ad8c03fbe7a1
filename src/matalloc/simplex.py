"""Exact feasibility via an integer-preserving phase-1 simplex.

Only phase one is needed: callers want a vertex of a feasibility system,
not an optimum. The tableau is fraction-free (Edmonds 1967; Bareiss 1968):
every entry is a Python int, and row i holds d_i times its true entries,
where d_i is the basis determinant at the row's last update.

- *Row scaling.* Each row is normalised to a nonnegative rhs (flipping its
  sense), then multiplied by the positive lcm s_i of its denominators.
  Slack and artificial columns stay unit columns, so this only rescales
  row i's slack and artificial variables by s_i; the x-part of every basic
  solution is unchanged.
- *Phase-1 weights.* The artificial of row i costs L/s_i, with L the lcm
  of the artificial rows' s_i. That is the artificial sum of the unscaled
  system times L, so every reduced cost is a positive multiple of the
  unscaled one and every tableau column a positive multiple, row by row,
  of the unscaled column. Bland's rule (smallest entering index, smallest
  ratio with ties to the smallest basic index) therefore makes the same
  pivots as a dense rational tableau of the unscaled system, and the run
  ends at the same vertex. Ratios are compared by cross-multiplication.
- *Pivot.* The pivot row is brought to the current determinant det, and
  p = M[r][c] becomes the new one. A row with M[i][c] = 0 keeps its true
  entries, so it is left alone with its old d_i; every other row becomes
  (p·M[i][j] − M[i][c]·M[r][j]) // d_i. The division is exact: the result
  is p times the new true entry, a minor of the scaled constraint matrix.
  The objective row is kept the same way.
- *Sign of det.* det is the determinant of the current basis. Every pivot
  is on a positive true entry, so det and every d_i stay positive and the
  sign tests read the stored entries directly.
- *Read-out.* The run stops when phase one does. An artificial still basic
  then sits at level 0, and the nonzero variables are basic, so their
  columns are independent: the x-part is a vertex of the system. It is
  returned as integers over one denominator: den is the lcm of the rows'
  d_i, and a basic variable of row i reads M[i][-1]·(den // d_i), which is
  M[i][-1]/d_i exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

FLIP = {"<=": ">=", ">=": "<=", "==": "=="}


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

    num_slack = sum(1 for _, sense, _, _ in rows if sense != "==")
    num_art = sum(1 for _, sense, _, _ in rows if sense != "<=")
    width = num_vars + num_slack + num_art + 1
    tableau: list[list[int]] = []
    basis: list[int] = []
    art_scale: dict[int, int] = {}  # row -> s_i of the rows with an artificial
    slack_at = num_vars
    art_at = art_start = num_vars + num_slack
    for coeffs, sense, rhs, s in rows:
        row = [0] * width
        for j, c in coeffs.items():
            row[j] = c
        if sense == "<=":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        else:
            if sense == ">=":
                row[slack_at] = -1
                slack_at += 1
            row[art_at] = 1
            art_scale[len(tableau)] = s
            basis.append(art_at)
            art_at += 1
        row[-1] = rhs
        tableau.append(row)

    # phase-1 objective row: minimize sum (L/s_i)·art_i; reduced costs start
    # as -(weighted sum of artificial-basic rows) on non-artificial columns
    big_l = lcm(*art_scale.values())
    obj = [0] * width
    for i, s in art_scale.items():
        w = big_l // s
        obj = [o - w * v for o, v in zip(obj, tableau[i])]
    obj[art_start:-1] = [0] * num_art
    obj_den = 1
    dens = [1] * len(tableau)
    det = 1

    def update(row: list[int], den: int, prow: list[int], p: int,
               nz: list[tuple[int, int]], col: int) -> list[int]:
        f = row[col]
        if p == den:
            # (p·a − f·b) // p is a − f·b // p, so only the pivot row's nonzeros move
            row = row[:]
            for j, b in nz:
                row[j] -= f * b // den
            return row
        return [(p * a - f * b) // den for a, b in zip(row, prow)]

    while True:
        enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a < rhs_leave / a_leave, both denominators positive
                lhs, rhs = row[-1] * tableau[leave][enter], tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None  # unbounded phase-1 objective cannot happen; defensive
        prow = tableau[leave]
        if dens[leave] != det:
            prow = [v * det // dens[leave] for v in prow]
        p = prow[enter]
        nz = [(j, b) for j, b in enumerate(prow) if b]
        for r, row in enumerate(tableau):
            if r != leave and row[enter]:
                tableau[r] = update(row, dens[r], prow, p, nz, enter)
                dens[r] = p
        obj = update(obj, obj_den, prow, p, nz, enter)  # obj[enter] < 0
        tableau[leave], dens[leave], basis[leave] = prow, p, enter
        obj_den = det = p

    if obj[-1] < 0:
        return None  # artificial sum cannot reach zero: infeasible
    den = lcm(*dens)  # 1 for no rows
    point = [0] * num_vars
    for row, b, d in zip(tableau, basis, dens):
        if b < num_vars:
            point[b] = row[-1] * (den // d)
    return point, den
