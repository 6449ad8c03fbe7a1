#!/usr/bin/env python3
"""Exact-rational assignment LP and the additive rounding gadgets.

The LP is solved with an exact simplex, so the additive guarantees are
checked with exact comparisons: the max-min rounding loses at most the
largest value against each player's own fractional total, and the makespan
rounding gains at most the largest size. Bisect for the smallest feasible
load level (an integer over the instance's scale) and the classical
two-approximation for restricted instances falls out.
"""

import random
from fractions import Fraction

from matalloc import Item, SantaInstance
from matalloc.instances import entity_totals, gen_random
from matalloc.oracle import brute_opt_makespan, enumerate_bases
from matalloc.rounding import (FractionalAssignment, lst_baseline, round_santa,
                               solve_assignment_lp)

F = Fraction

print("=== max-min: LP point, then the floor/remainder gadget ===")
inst = SantaInstance(2, [Item(values=(F(1), F(1))) for _ in range(3)])
frac = solve_assignment_lp(inst, F(3, 2))
print("fractional point at T = 3/2:", [[str(v) for v in row] for row in frac.x])
alloc = round_santa(inst, frac)
vals = [sum(alloc[j][i] for j in range(3)) for i in range(2)]
print("integral allocation:", alloc, "-> player values", vals, "(>= T - 1 = 1/2 each)")

print("\n=== max-min with polymatroids: basis mixtures round exactly ===")
rng = random.Random(5)
minst = gen_random("santa-matroid", 5, m=3, n=3, u=F(1), w=F(2))
xs = []
for j in range(3):
    bases = enumerate_bases(minst.resources[j].polymatroid)
    a, b = bases[0], bases[-1]
    xs.append(tuple((F(ai) + F(bi)) / 2 for ai, bi in zip(a, b)))
totals = [sum(minst.resources[j].value * xs[j][i] for j in range(3)) for i in range(3)]
frac = FractionalAssignment(min(totals), xs)
alloc = round_santa(minst, frac)
got = [sum(minst.resources[j].value * alloc[j][i] for j in range(3)) for i in range(3)]
vmax = max(it.value for it in minst.resources)
print("fractional per-player totals:", [str(v) for v in totals])
print("rounded per-player totals:  ", [str(v) for v in got],
      f"(each >= T - {vmax} = {frac.T - vmax})")

print("\n=== makespan: guessing loop + rounding = additive schedule ===")
mk = gen_random("restricted-makespan", 11, m=3, n=5)
opt = brute_opt_makespan(mk)
alloc, t_star = lst_baseline(mk)
loads = entity_totals(mk, alloc)
pmax = max(v for it in mk.jobs for v in it.values if v is not None)
print(f"exhaustive optimum {opt.value}; smallest feasible guess {t_star}")
print(f"rounded loads {[str(v) for v in loads]}: max <= {t_star} + {pmax}"
      f" and <= 2 * optimum = {2 * opt.value}")
