"""Assignment LP and additive rounding: operation examples plus randomized
exact-guarantee checks with independently constructed fractional inputs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matalloc import rounding
from matalloc.bitsets import bits, submasks
from matalloc.instances import Item, MakespanInstance, SantaInstance, entity_totals, gen_random
from matalloc.intersection import DirectSum, max_common_independent
from matalloc.limits import Caps, ContractViolation, SizeCapError
from matalloc.oracle import brute_opt_makespan, enumerate_bases
from matalloc.polymatroids import is_basis, member
from matalloc.rounding import (FractionalAssignment, additive_round_santa, item_value_poly,
                               lst_baseline, makespan_guess_grid, round_makespan, round_santa,
                               santa_guess_grid, solve_assignment_lp)
from matalloc.simplex import feasible_point

F = Fraction


def player_values(inst, alloc):
    vals = [F(0)] * inst.num_players
    for j, vec in enumerate(alloc):
        v = item_value_poly(inst, j)[0]
        for i in range(inst.num_players):
            vals[i] += v * vec[i]
    return vals


def loads(inst, alloc):
    out = [F(0)] * inst.num_machines
    for j, vec in enumerate(alloc):
        v = item_value_poly(inst, j)[0]
        for i in range(inst.num_machines):
            out[i] += v * vec[i]
    return out


def mixture(rng, inst):
    """A fractional assignment as a random convex combination of bases."""
    xs = []
    for j in range(len(inst.items)):
        bases = enumerate_bases(item_value_poly(inst, j)[1])
        if not bases:
            return None
        picks = rng.sample(bases, min(len(bases), 2))
        if len(picks) == 1:
            xs.append(tuple(F(b) for b in picks[0]))
        else:
            lam = F(rng.randint(1, 3), 4)
            xs.append(tuple(lam * a + (1 - lam) * b for a, b in zip(*picks)))
    return xs


class TestSimplex:
    def test_feasible_system(self):
        pt = feasible_point(2, [({0: F(1), 1: F(1)}, "==", F(1)),
                                ({0: F(1)}, ">=", F(1, 3))])
        assert pt is not None and pt[0] + pt[1] == 1 and pt[0] >= F(1, 3)

    def test_infeasible_system(self):
        assert feasible_point(1, [({0: F(1)}, ">=", F(2)), ({0: F(1)}, "<=", F(1))]) is None

    def test_negative_rhs_normalization(self):
        pt = feasible_point(1, [({0: F(-1)}, "<=", F(-2))])
        assert pt is not None and pt[0] >= 2

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_point_satisfies_constraints(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {j: F(rng.randint(-3, 3)) for j in range(nv)}
            sense = rng.choice(["<=", ">=", "=="])
            cons.append((coeffs, sense, F(rng.randint(-4, 4))))
        pt = feasible_point(nv, cons)
        if pt is None:
            return
        assert all(v >= 0 for v in pt)
        for coeffs, sense, rhs in cons:
            lhs = sum(coeffs.get(j, F(0)) * pt[j] for j in range(nv))
            assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]


class TestAssignmentLp:
    def test_forced_assignment(self):
        inst = SantaInstance(1, [Item(values=(F(1),))])
        frac = solve_assignment_lp(inst, F(1))
        assert frac is not None and frac.x[0][0] == 1

    def test_pigeonhole_infeasible(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1)))])
        assert solve_assignment_lp(inst, F(1)) is None

    def test_half_integral_split(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1))), Item(values=(F(1), F(1)))])
        frac = solve_assignment_lp(inst, F(1))
        assert frac is not None
        for i in range(2):
            assert sum(frac.x[j][i] for j in range(2)) >= 1

    def test_makespan_size_filter(self):
        mk = MakespanInstance(2, [Item(values=(F(3), F(1)))])
        frac = solve_assignment_lp(mk, F(2))
        assert frac is not None and frac.x[0] == (F(0), F(1))

    @pytest.mark.parametrize("caps", [Caps(lp_vars=5), Caps(sfm_ground=16)])
    def test_caps_checked_before_the_row_enumeration(self, caps):
        # one item has support 18: 2^18 - 1 submask rows if it got that far
        inst = gen_random("santa-matroid", 0, m=18, n=2)
        multi = []
        for it in inst.items:
            value = it.polymatroid.value

            def counting(mask, value=value):
                if mask & (mask - 1):
                    multi.append(mask)
                return value(mask)

            it.polymatroid.value = counting
        with pytest.raises(SizeCapError):
            solve_assignment_lp(inst, F(1), caps)
        assert multi == []

    def test_restricted_rows_match_the_coverage_twin(self):
        # the twin carries each item as its rank-one coverage view, so its LP
        # keeps all 2^|supp| - 1 submask rows; the single exactly-once row
        # must cut out the same feasible guesses and points satisfying them
        outcomes = {True: 0, False: 0}
        for seed in range(8):
            inst = gen_random("restricted-santa", seed, m=3, n=5)
            twin = SantaInstance(3, [Item(value=v, polymatroid=poly) for v, poly in
                                     (item_value_poly(inst, j) for j in range(5))])
            for t in santa_guess_grid(inst):
                frac = solve_assignment_lp(inst, t)
                assert (frac is None) == (solve_assignment_lp(twin, t) is None)
                outcomes[frac is not None] += 1
                if frac is None:
                    continue
                for row, it in zip(frac.x, twin.items):
                    supp = sum(1 << i for i in range(3) if it.polymatroid.value(1 << i))
                    assert all(row[i] == 0 for i in range(3) if not (supp >> i) & 1)
                    for sub in submasks(supp):
                        total = sum(row[i] for i in bits(sub))
                        bound = it.polymatroid.value(sub)
                        assert total == bound if sub == supp else total <= bound
        assert outcomes[True] >= 20 and outcomes[False] >= 20, outcomes

    @pytest.mark.parametrize("flavor", ["restricted-santa", "unrelated-santa",
                                        "restricted-makespan"])
    def test_one_row_per_classical_item(self, monkeypatch, flavor):
        systems = []

        def recording(num_vars, constraints):
            systems.append((num_vars, constraints))
            return feasible_point(num_vars, constraints)

        monkeypatch.setattr(rounding, "feasible_point", recording)
        for seed in range(4):
            inst = gen_random(flavor, seed, m=3, n=5)
            makespan = isinstance(inst, MakespanInstance)
            for t in (F(1), F(2), F(7, 2)):
                systems.clear()
                rounding.solve_assignment_lp(inst, t)
                eligible = [[i for i, v in enumerate(it.values)
                             if (v is not None and v <= t if makespan else v > 0)]
                            for it in inst.items]
                if makespan and not all(eligible):
                    assert systems == []
                    continue
                (num_vars, constraints), = systems
                assert num_vars == sum(map(len, eligible))
                assert len(constraints) == sum(1 for cols in eligible if cols) + 3

    def test_zero_value_gets_no_variable(self, monkeypatch):
        seen = []

        def recording(num_vars, constraints):
            seen.append(num_vars)
            return feasible_point(num_vars, constraints)

        monkeypatch.setattr(rounding, "feasible_point", recording)
        inst = SantaInstance(3, [Item(values=(F(0), F(2), F(1))),
                                 Item(values=(F(1), F(3), F(0))),
                                 Item(values=(F(0), F(0), F(0)))])
        frac = solve_assignment_lp(inst, F(1, 2))
        assert seen == [4]
        assert all(x == 0 for it, row in zip(inst.items, frac.x)
                   for v, x in zip(it.values, row) if v == 0)
        assert [sum(row) for row in frac.x] == [1, 1, 0]


class TestRoundSanta:
    def test_integral_fixpoint(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1))), Item(values=(F(1), F(1)))])
        frac = FractionalAssignment(F(1), [(F(1), F(0)), (F(0), F(1))])
        assert round_santa(inst, frac) == [(1, 0), (0, 1)]

    def test_half_split_two_unit_resources(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1))), Item(values=(F(1), F(1)))])
        frac = FractionalAssignment(F(1), [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))])
        alloc = round_santa(inst, frac)
        assert min(player_values(inst, alloc)) >= F(0)  # T - v_max = 0

    @given(st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_additive_guarantee_on_mixtures(self, seed):
        rng = random.Random(seed)
        inst = gen_random("santa-matroid", seed, m=rng.randint(2, 3), n=rng.randint(2, 4),
                          u=F(1), w=F(2))
        xs = mixture(rng, inst)
        if xs is None:
            return
        vals = [sum(inst.resources[j].value * xs[j][i] for j in range(len(xs)))
                for i in range(inst.num_players)]
        frac = FractionalAssignment(min(vals), xs)
        alloc = round_santa(inst, frac)
        vmax = max(it.value for it in inst.resources)
        got = player_values(inst, alloc)
        assert all(got[i] >= frac.T - vmax for i in range(inst.num_players))
        for j, vec in enumerate(alloc):
            assert is_basis(inst.resources[j].polymatroid, vec)


class TestRoundMakespan:
    def test_integral_fixpoint(self):
        mk = MakespanInstance(2, [Item(values=(F(1), F(1))), Item(values=(F(2), F(2)))])
        frac = FractionalAssignment(F(2), [(F(1), F(0)), (F(0), F(1))])
        assert round_makespan(mk, frac) == [(1, 0), (0, 1)]

    def test_mass_on_an_infinite_machine_is_rejected(self):
        mk = MakespanInstance(2, [Item(values=(F(1), None))])
        frac = FractionalAssignment(F(1), [(F(1, 2), F(1, 2))])
        with pytest.raises(ContractViolation, match="^fractional assignment: item 0: "):
            round_makespan(mk, frac)

    @given(st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_additive_guarantee_on_mixtures(self, seed):
        rng = random.Random(seed)
        inst = gen_random("makespan-matroid", seed, m=rng.randint(2, 3), n=rng.randint(2, 4),
                          u=F(1), w=F(2))
        xs = mixture(rng, inst)
        if xs is None:
            return
        flds = [sum(inst.jobs[j].value * xs[j][i] for j in range(len(xs)))
                for i in range(inst.num_machines)]
        frac = FractionalAssignment(max(flds), xs)
        alloc = round_makespan(inst, frac)
        pmax = max(it.value for it in inst.jobs)
        got = loads(inst, alloc)
        assert all(got[i] <= frac.T + pmax for i in range(inst.num_machines))
        for j, vec in enumerate(alloc):
            assert is_basis(inst.jobs[j].polymatroid, vec)


class TestLstBaseline:
    def test_single_machine_exact(self):
        mk = MakespanInstance(1, [Item(values=(F(3),)), Item(values=(F(2),))])
        alloc, t_star = lst_baseline(mk)
        assert loads(mk, alloc) == [F(5)] and t_star == F(5)

    def test_unit_jobs_balanced(self):
        mk = MakespanInstance(2, [Item(values=(F(1), F(1))) for _ in range(5)])
        alloc, t_star = lst_baseline(mk)
        assert max(loads(mk, alloc)) <= t_star + 1

    def test_two_value_additive(self):
        for seed in range(12):
            inst = gen_random("two-value-makespan", seed, m=2, n=4, u=F(1), w=F(3))
            try:
                opt = brute_opt_makespan(inst)
            except Exception:
                continue
            if opt.value is None:
                continue
            alloc, t_star = lst_baseline(inst)
            pmax = max(v for it in inst.jobs for v in it.values if v is not None)
            assert t_star <= opt.value
            assert max(sum(inst.jobs[j].values[i] * vec[i] for j, vec in enumerate(alloc)
                           if vec[i]) for i in range(2)) <= t_star + pmax

    def test_t_star_is_smallest_feasible_grid_point(self):
        for flavor in ("restricted-makespan", "two-value-makespan"):
            for seed in range(3):
                inst = gen_random(flavor, seed, m=2, n=4)
                first = next(T for T in makespan_guess_grid(inst)
                             if solve_assignment_lp(inst, T) is not None)
                assert lst_baseline(inst)[1] == first

    def test_grid_contains_opt(self):
        mk = MakespanInstance(2, [Item(values=(F(1), F(2))), Item(values=(F(3), None))])
        grid = makespan_guess_grid(mk)
        assert F(3) in grid and F(4) in grid


class TestAdditiveSanta:
    def test_owner_assignment_guarantee(self):
        for seed in range(12):
            inst = gen_random("unrelated-santa", seed, m=3, n=4, den=2)
            from matalloc.reductions import santa_guess_grid
            from matalloc.reductions import guess_loop

            grid = santa_guess_grid(inst)
            if not grid:
                continue
            best, frac = guess_loop(lambda T: solve_assignment_lp(inst, T), grid)
            if best is None:
                continue
            owner = additive_round_santa(inst, frac)
            vals = [F(0)] * 3
            for j, o in enumerate(owner):
                if o is not None:
                    vals[o] += inst.resources[j].values[o]
            vmax = max(v for it in inst.resources for v in it.values)
            assert min(vals) >= best - vmax

    def test_placements_obey_the_assignment_cap(self, monkeypatch):
        # three resources split over two players each: 8 placements
        inst = SantaInstance(2, [Item(values=(F(1), F(1))) for _ in range(3)])
        frac = FractionalAssignment(F(1), [(F(1, 2), F(1, 2))] * 3)
        evaluated = []
        enumerate_placements = rounding.product

        def spy(*supports):
            for pick in enumerate_placements(*supports):
                evaluated.append(pick)
                yield pick

        monkeypatch.setattr(rounding, "product", spy)
        with pytest.raises(SizeCapError, match="placement space 8 exceeds cap 7"):
            additive_round_santa(inst, frac, Caps(assignments=7))
        assert evaluated == []
        assert additive_round_santa(inst, frac, Caps(assignments=8)) == [0, 0, 1]
        assert len(evaluated) == 8


class TestFractionalInputChecks:
    def test_half_assigned_jobs_are_refused(self):
        inst = MakespanInstance(2, [Item(values=(F(1), F(1)))] * 2)
        frac = FractionalAssignment(F(1), [(F(1, 4), F(1, 4))] * 2)
        with pytest.raises(ContractViolation,
                           match=r"^fractional assignment: item 0 sums to 1/2, expected 1$"):
            round_makespan(inst, frac)

    def test_mass_on_a_player_who_values_the_item_zero_is_refused(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(0)))])
        frac = FractionalAssignment(F(1, 2), [(F(1, 2), F(1, 2))])
        with pytest.raises(ContractViolation, match="^fractional assignment: item 0 puts mass "
                                                    "on ineligible entity 1$"):
            round_santa(inst, frac)

    def test_negative_entries_are_refused(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1)))])
        frac = FractionalAssignment(F(1), [(F(3, 2), F(-1, 2))])
        with pytest.raises(ContractViolation, match="item 0 has a negative entry"):
            round_santa(inst, frac)

    def test_polymatroid_rows_sum_to_the_whole_value(self):
        inst = gen_random("makespan-matroid", 3, m=3, n=2, u=F(1), w=F(2))
        top = [it.polymatroid.value(0b111) for it in inst.jobs]
        rows = [tuple(F(t, 3) for _ in range(3)) for t in top]
        short = [rows[0], tuple(v / 2 for v in rows[1])]
        with pytest.raises(ContractViolation, match=f"item 1 sums to {F(top[1], 2)}, "
                                                    f"expected {top[1]}$"):
            round_makespan(inst, FractionalAssignment(F(10), short))
        santa = SantaInstance(3, inst.jobs)
        over = [rows[0], tuple(2 * v for v in rows[1])]
        with pytest.raises(ContractViolation, match=f"expected at most {top[1]}$"):
            round_santa(santa, FractionalAssignment(F(0), over))

    def test_a_resource_nobody_values_keeps_a_zero_row(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1))), Item(values=(F(0), F(0)))])
        frac = FractionalAssignment(F(1, 2), [(F(1, 2), F(1, 2)), (F(0), F(0))])
        assert round_santa(inst, frac)[1] == (0, 0)


def reference_gadget_round(vp, frac_x, m, mode, classical, caps):
    """The gadget rounding with whole-vector predicates: every item's vector
    a member of its view, and every chain vertex within its degree."""
    n = len(vp)
    order = sorted(range(n), key=lambda j: (-vp[j][0], j))
    slots, slot_caps, degree = [], [], {}
    for i in range(m):
        pos = [k for k, j in enumerate(order) if frac_x[j][i] > 0]
        degs, _ = rounding._degree_chain([frac_x[order[k]][i] for k in pos], mode)
        for t in range(len(pos)):
            degree[(i, t)] = degs[t]
        for t, k in enumerate(pos):
            fii = vp[order[k]][1].value(1 << i)
            adj = t + 1 if mode == "floor" else t - 1
            for v in (t, adj) if 0 <= adj < len(pos) else (t,):
                if min(degs[v], fii) > 0:
                    slots.append((k, i, v))
                    slot_caps.append(min(degs[v], fii))

    def per_item(x):
        out = {}
        for (k, i, _), c in zip(slots, x):
            if c:
                out.setdefault(k, [0] * m)[i] += c
        return out

    def within_degrees(x):
        per_vertex = {}
        for (_, i, t), c in zip(slots, x):
            per_vertex[(i, t)] = per_vertex.get((i, t), 0) + c
        return all(c <= degree[v] for v, c in per_vertex.items())

    def items_members(x):
        return all(member(vp[order[k]][1], vec, caps) for k, vec in per_item(x).items())

    one_block = [0] * len(slots)
    best = max_common_independent(slot_caps, DirectSum(one_block, [items_members]),
                                  DirectSum(one_block, [within_degrees]), 4 * caps.expand)
    if mode == "floor":
        target, what = sum(degree.values()), "degree constraints"
    else:
        target, what = sum(vp[j][1].value((1 << m) - 1) for j in range(n)), "left bases"
    if sum(best) != target:
        raise ContractViolation(
            f"gadget rounding fell short of saturating its {what} "
            f"({sum(best)} of {target}); the fractional input is not LP-feasible")
    alloc = [tuple([0] * m) for _ in range(n)]
    for k, vec in per_item(best).items():
        alloc[order[k]] = tuple(vec)
    return alloc


def random_rows(rng, inst):
    """Rows of random positive fractions over one to three eligible entities,
    summing to 1 (a zero row for a resource nobody values)."""
    rows = []
    for it in inst.items:
        eligible = [i for i, v in enumerate(it.values)
                    if (v is not None if isinstance(inst, MakespanInstance) else v > 0)]
        row = [F(0)] * inst.num_entities
        if eligible:
            support = rng.sample(eligible, rng.randint(1, min(3, len(eligible))))
            weights = [rng.randint(1, 4) for _ in support]
            for i, w in zip(support, weights):
                row[i] = F(w, sum(weights))
        rows.append(tuple(row))
    return rows


def outcome(fn):
    try:
        return fn()
    except ContractViolation as exc:
        return ContractViolation, str(exc)


def rounded_both_ways(monkeypatch, rounder, inst, frac):
    got = outcome(lambda: rounder(inst, frac))
    with monkeypatch.context() as patched:
        patched.setattr(rounding, "_gadget_round", reference_gadget_round)
        want = outcome(lambda: rounder(inst, frac))
    return got, want


def test_classical_rounding_matches_the_whole_vector_reference(monkeypatch):
    """600 classical draws (m 2-8, n 5-12), each rounded with the counting
    sides and with the whole-vector predicates; the few draws the gadget
    cannot saturate must fail alike."""
    rounded = 0
    for seed in range(600):
        rng = random.Random(seed)
        m, n = rng.randint(2, 8), rng.randint(5, 12)
        makespan = seed % 2
        inst = gen_random("restricted-makespan" if makespan else "restricted-santa",
                          seed, m=m, n=n)
        rows = random_rows(rng, inst)
        totals = entity_totals(inst, rows)
        frac = FractionalAssignment(max(totals) if makespan else min(totals), rows)
        got, want = rounded_both_ways(monkeypatch, round_makespan if makespan else round_santa,
                                      inst, frac)
        assert got == want, seed
        rounded += isinstance(got, list)
    assert rounded >= 500


@pytest.mark.parametrize("flavor, rounder", [("santa-matroid", round_santa),
                                             ("makespan-matroid", round_makespan)])
def test_polymatroid_rounding_matches_the_whole_vector_reference(monkeypatch, flavor, rounder):
    """Basis mixtures, rounded through the direct sum of the items' views and
    through the whole-vector predicates."""
    rounded = 0
    for seed in range(40):
        rng = random.Random(seed)
        inst = gen_random(flavor, seed, m=rng.randint(2, 3), n=rng.randint(2, 4),
                          u=F(1), w=F(2))
        xs = mixture(rng, inst)
        if xs is None:
            continue
        totals = entity_totals(inst, xs)
        frac = FractionalAssignment(max(totals) if rounder is round_makespan else min(totals),
                                    xs)
        got, want = rounded_both_ways(monkeypatch, rounder, inst, frac)
        assert got == want, seed
        rounded += isinstance(got, list)
    assert rounded >= 30
