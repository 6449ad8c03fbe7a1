"""Assignment LP and additive rounding: operation examples plus randomized
exact-guarantee checks with independently constructed fractional inputs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matalloc import rounding
from matalloc.bitsets import bits, submasks
from matalloc.instances import Item, MakespanInstance, SantaInstance, gen_random
from matalloc.limits import Caps, ContractViolation, SizeCapError
from matalloc.oracle import brute_opt_makespan, enumerate_bases
from matalloc.polymatroids import is_basis
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
