"""Assignment LP and additive rounding: operation examples plus randomized
exact-guarantee checks with independently constructed fractional inputs."""

import math
import random
from fractions import Fraction
from itertools import count, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_point
from matalloc import rounding
from matalloc.bitsets import bits, submasks
from matalloc.instances import (Item, MakespanInstance, SantaInstance, entity_totals, gen_random,
                                validate_allocation)
from matalloc.intersection import DirectSum, max_common_independent
from matalloc.limits import (Caps, DEFAULT_CAPS, ContractViolation, InternalInvariantError,
                             SizeCapError)
from matalloc.matching import ResidualFlow
from matalloc.oracle import brute_opt_makespan, brute_opt_santa, enumerate_bases
from matalloc.polymatroids import (CoveragePoly, CutNetwork, ModularPoly, ScaledRankPoly,
                                   greedy_basis_above, is_basis, member)
from matalloc.matroids import UniformMatroid
from matalloc.rounding import (FractionalAssignment, assignment_lp_columns, assignment_lp_rows,
                               column_sums, guess_loop, item_polymatroid, lst_baseline,
                               round_makespan, round_santa, santa_guess_grid,
                               solve_assignment_lp)
from matalloc.simplex import feasible_point

F = Fraction


def vertex(num_vars, constraints):
    """feasible_point's vertex as Fractions, or None."""
    found = feasible_point(num_vars, constraints)
    if found is None:
        return None
    nums, den = found
    return [F(v, den) for v in nums]


def mixture(rng, inst):
    """A fractional assignment as a random convex combination of bases."""
    xs = []
    for j in range(len(inst.items)):
        bases = enumerate_bases(item_polymatroid(inst, j))
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
        pt = vertex(2, [({0: F(1), 1: F(1)}, "==", F(1)),
                        ({0: F(1)}, ">=", F(1, 3))])
        assert pt is not None and pt[0] + pt[1] == 1 and pt[0] >= F(1, 3)

    def test_infeasible_system(self):
        assert vertex(1, [({0: F(1)}, ">=", F(2)), ({0: F(1)}, "<=", F(1))]) is None

    def test_negative_rhs_normalization(self):
        pt = vertex(1, [({0: F(-1)}, "<=", F(-2))])
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
        pt = vertex(nv, cons)
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
            twin = SantaInstance(3, [Item(value=max(it.values),
                                          polymatroid=item_polymatroid(inst, j))
                                     for j, it in enumerate(inst.items)])
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
    def test_one_row_per_classical_item(self, flavor):
        for seed in range(4):
            inst = gen_random(flavor, seed, m=3, n=5)
            makespan = isinstance(inst, MakespanInstance)
            for t in (F(1), F(2), F(7, 2)):
                columns = assignment_lp_columns(inst, t)
                eligible = [[i for i, v in enumerate(it.values)
                             if (v is not None and v <= t if makespan else v > 0)]
                            for it in inst.items]
                if makespan and not all(eligible):
                    assert columns is None and solve_assignment_lp(inst, t) is None
                    continue
                var_of, constraints = assignment_lp_rows(inst, t, columns)
                num_vars = len(var_of)
                assert num_vars == sum(map(len, eligible))
                assert len(constraints) == sum(1 for cols in eligible if cols) + 3
                point = feasible_point(num_vars, constraints)
                assert (point is None) == (solve_assignment_lp(inst, t) is None)

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
        assert min(entity_totals(inst, alloc)) >= F(0)  # T - v_max = 0

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
        got = entity_totals(inst, alloc)
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
        got = entity_totals(inst, alloc)
        assert all(got[i] <= frac.T + pmax for i in range(inst.num_machines))
        for j, vec in enumerate(alloc):
            assert is_basis(inst.jobs[j].polymatroid, vec)


class TestLstBaseline:
    def test_single_machine_exact(self):
        mk = MakespanInstance(1, [Item(values=(F(3),)), Item(values=(F(2),))])
        alloc, t_star = lst_baseline(mk)
        assert entity_totals(mk, alloc) == [F(5)] and t_star == F(5)

    def test_unit_jobs_balanced(self):
        mk = MakespanInstance(2, [Item(values=(F(1), F(1))) for _ in range(5)])
        alloc, t_star = lst_baseline(mk)
        assert max(entity_totals(mk, alloc)) <= t_star + 1

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

    def test_t_star_is_the_smallest_feasible_level(self):
        """A scan k = 0, 1, ... for the first LP-feasible level k/L (L the
        instance's scale) finds lst_baseline's T*."""
        for flavor in ("restricted-makespan", "two-value-makespan", "makespan-matroid"):
            for seed in range(6):
                inst = gen_random(flavor, seed, m=3, n=3 if "matroid" in flavor else 5,
                                  u=F(1, 3), w=F(5, 2))
                scale = inst.int_values.scale
                k = next(k for k in count() if solve_assignment_lp(inst, F(k, scale)) is not None)
                assert lst_baseline(inst)[1] == F(k, scale), (flavor, seed)

    def test_a_support_without_a_matching_rounds(self):
        """Three jobs of sizes 1 and 3 split evenly over two machines: no
        LP vertex, since three fractional jobs cannot match to two distinct
        machines, and still every load is at most max(T, its fractional
        load) + p_max."""
        inst = MakespanInstance(2, [Item(values=(F(1), F(3))), Item(values=(F(3), F(1))),
                                    Item(values=(F(1), F(3)))])
        frac = FractionalAssignment(F(7, 2), [(F(1, 2), F(1, 2))] * 3)
        assert_rounding_guarantee(inst, frac, round_makespan(inst, frac))

    def test_no_job_needs_no_level(self):
        for m in (0, 2):
            assert lst_baseline(MakespanInstance(m, [])) == ([], F(0))

    @pytest.mark.parametrize("inst", [MakespanInstance(2, [Item(values=(None, None))]),
                                      MakespanInstance(0, [Item(values=())])])
    def test_a_job_that_fits_nowhere_is_refused(self, inst):
        with pytest.raises(ContractViolation, match="no feasible guess"):
            lst_baseline(inst)

    def test_many_sizes_need_no_grid(self):
        """Two machines and jobs of sizes 1/1 .. 1/20, whose subset sums
        overflow the default grid cap: T* is the first level at or above the
        LP optimum H_20/2, and the schedule keeps its additive bound."""
        inst = MakespanInstance(2, [Item(values=(F(1, j), F(1, j))) for j in range(1, 21)])
        scale = inst.int_values.scale
        alloc, t_star = lst_baseline(inst)
        assert t_star == F(math.ceil(scale * sum(F(1, j) for j in range(1, 21)) / 2), scale)
        assert max(entity_totals(inst, alloc)) <= t_star + 1


def eager_point(inst, t):
    """The simplex's point of the assignment LP at t, solved on the spot, as
    per-item rows; None when infeasible or when no LP is built."""
    columns = assignment_lp_columns(inst, t)
    if columns is None:
        return None
    var_of, constraints = assignment_lp_rows(inst, t, columns)
    point = vertex(len(var_of), constraints)
    if point is None:
        return None
    return [tuple(point[var_of[j, i]] if (j, i) in var_of else F(0)
                  for i in range(inst.num_entities)) for j in range(len(inst.items))]


def counting_simplex(monkeypatch, answer=None):
    """Patch rounding's feasible_point to count its calls; answer, if given,
    replaces the simplex's result."""
    calls = []

    def counting(num_vars, constraints):
        calls.append(num_vars)
        return feasible_point(num_vars, constraints) if answer is None else answer(num_vars)

    monkeypatch.setattr(rounding, "feasible_point", counting)
    return calls


def load_levels(inst, most=None):
    """The load levels k/L that lst_baseline bisects on a classical
    instance, k = 0 .. top, where L is the instance's scale and top/L the
    load of every job put whole where it is smallest; with most, at most
    about that many of them, evenly spaced."""
    scale = inst.int_values.scale
    top = int(scale * sum(min((v for v in it.values if v), default=F(0)) for it in inst.jobs))
    step = 1 if most is None else max(1, top // most)
    return [F(k, scale) for k in range(0, top + 1, step)]


def restricted_draws():
    """Restricted santa and makespan draws at m = 2..5, each also with a
    resource no player values, or with a job of size 0 on some machines."""
    for m in range(2, 6):
        for seed in range(3):
            santa = gen_random("restricted-santa", seed, m=m, n=5)
            yield santa
            yield SantaInstance(m, santa.resources + [Item(values=(F(0),) * m)])
            mk = gen_random("restricted-makespan", seed, m=m, n=5)
            yield mk
            zero = tuple(F(0) if i % 2 else None for i in range(m))
            yield MakespanInstance(m, mk.jobs[:2] + [Item(values=zero)] + mk.jobs[2:])


class TestFlowDecision:
    def test_flow_decides_as_the_simplex_on_the_same_rows(self, monkeypatch):
        calls = counting_simplex(monkeypatch)
        outcomes = {True: 0, False: 0}
        for inst in restricted_draws():
            makespan = isinstance(inst, MakespanInstance)
            assert all(inst.int_values.restricted)
            grid = load_levels(inst) if makespan else santa_guess_grid(inst)
            for t in grid + [F(0), F(1, 3), F(7, 2)]:
                frac = solve_assignment_lp(inst, t)
                assert calls == []
                want = eager_point(inst, t)
                assert (frac is None) == (want is None), (inst, t)
                outcomes[frac is not None] += 1
        assert outcomes[True] >= 250 and outcomes[False] >= 250, outcomes

    def test_flow_decides_as_the_simplex_over_several_denominators(self, monkeypatch):
        """Restricted draws whose values have denominators 1, 2, 3, 5 and 7,
        with worthless resources and zero-size jobs, at every santa grid point,
        at most 40 evenly spaced load levels, and thresholds between them."""
        calls = counting_simplex(monkeypatch)
        rng = random.Random(23)
        outcomes = {True: 0, False: 0}
        for _ in range(60):
            m, makespan = rng.randint(1, 4), rng.random() < 0.5
            items = []
            for _ in range(rng.randint(1, 5)):
                v = F(rng.randint(0 if rng.random() < 0.2 else 1, 9), rng.choice([1, 2, 3, 5, 7]))
                allowed = [i for i in range(m) if rng.random() < 0.6] or [rng.randrange(m)]
                off = None if makespan else F(0)
                items.append(Item(values=tuple(v if i in allowed else off for i in range(m))))
            inst = (MakespanInstance if makespan else SantaInstance)(m, items)
            grid = load_levels(inst, 40) if makespan else santa_guess_grid(inst)
            for t in grid + [(a + b) / 2 for a, b in zip(grid, grid[1:])] + [F(0), F(1, 7)]:
                frac = solve_assignment_lp(inst, t)
                assert calls == []
                want = eager_point(inst, t)
                assert (frac is None) == (want is None), (inst, t)
                outcomes[frac is not None] += 1
        assert outcomes[True] >= 200 and outcomes[False] >= 200, outcomes

    def test_each_guess_is_one_bare_flow(self, monkeypatch):
        """A restricted guess builds one ResidualFlow, on the arc numbering
        kept with the instance, and no CutNetwork."""
        built = {"flows": 0, "networks": 0}
        real_flow, real_network = ResidualFlow.__init__, CutNetwork.__init__

        def flow(self, *args):
            built["flows"] += 1
            real_flow(self, *args)

        def network(self, *args, **kwargs):
            built["networks"] += 1
            real_network(self, *args, **kwargs)

        monkeypatch.setattr(ResidualFlow, "__init__", flow)
        monkeypatch.setattr(CutNetwork, "__init__", network)
        guesses = 0
        for inst in restricted_draws():
            makespan = isinstance(inst, MakespanInstance)
            for t in load_levels(inst) if makespan else santa_guess_grid(inst):
                if assignment_lp_columns(inst, t) is None:
                    continue
                before = built["flows"]
                solve_assignment_lp(inst, t)
                assert built["flows"] == before + 1, (inst, t)
                guesses += 1
        assert built["networks"] == 0 and guesses >= 250

    @pytest.mark.parametrize("flavor", ["unrelated-santa", "two-value-makespan",
                                        "santa-matroid"])
    def test_other_instances_call_the_simplex_when_solved(self, monkeypatch, flavor):
        calls = counting_simplex(monkeypatch)
        solved = 0
        for seed in range(8):
            inst = gen_random(flavor, seed, m=3, n=4)
            if not inst.is_matroid_flavor and all(inst.int_values.restricted):
                continue
            for t in (F(0), F(1), F(2), F(7, 2), F(6)):
                calls.clear()
                built = assignment_lp_columns(inst, t) is not None
                solve_assignment_lp(inst, t)
                assert len(calls) == built
                solved += built
        assert solved >= 15


class TestDeferredPoint:
    def test_infeasible_guess_runs_no_simplex(self, monkeypatch):
        calls = counting_simplex(monkeypatch)
        inst = SantaInstance(2, [Item(values=(F(1), F(1)))])
        assert solve_assignment_lp(inst, F(1)) is None
        mk = MakespanInstance(2, [Item(values=(F(2), F(2)))] * 3)
        assert solve_assignment_lp(mk, F(2)) is None
        assert calls == []

    def test_point_is_solved_once_on_the_first_read(self, monkeypatch):
        for inst in restricted_draws():
            makespan = isinstance(inst, MakespanInstance)
            grid = load_levels(inst) if makespan else santa_guess_grid(inst)
            t = grid[len(grid) // 3]
            want = eager_point(inst, t)
            if want is None:
                continue
            calls = counting_simplex(monkeypatch)
            frac = solve_assignment_lp(inst, t)
            assert calls == [] and frac.T == t
            assert frac.x == want
            assert len(calls) == 1
            assert frac.x == want
            assert len(calls) == 1

    def test_a_simplex_that_disagrees_raises_on_read_and_keeps_nothing(self, monkeypatch):
        inst = SantaInstance(2, [Item(values=(F(1), F(1)))] * 2)
        counting_simplex(monkeypatch, answer=lambda num_vars: None)
        frac = solve_assignment_lp(inst, F(1))
        with pytest.raises(InternalInvariantError):
            frac.x
        assert "x" not in vars(frac)
        monkeypatch.setattr(rounding, "feasible_point", feasible_point)
        assert frac.x == eager_point(inst, F(1))

    def test_given_point_is_kept_as_given(self, monkeypatch):
        calls = counting_simplex(monkeypatch)
        rows = [(F(1, 2), F(1, 2)), (F(0), F(1))]
        frac = FractionalAssignment(F(3, 2), rows)
        assert frac.T == F(3, 2) and frac.point == ([(1, 1), (0, 2)], 2) and frac.x == rows
        assert calls == []


class TestColumnSums:
    def test_subset_sums_of_each_column(self):
        rng = random.Random(5)
        for _ in range(200):
            columns = [[rng.choice([None, 0, rng.randint(1, 24)])
                        for _ in range(rng.randint(0, 5))] for _ in range(rng.randint(0, 3))]
            want = set()
            for column in columns:
                mine = {0}
                for v in column:
                    if v:
                        mine |= {s + v for s in mine}
                want |= mine
            got = column_sums(iter(columns))
            assert got == want
            assert all(type(v) is int for v in got)

    def test_guess_grid_cap(self):
        caps = Caps(guess_grid=8)
        at_cap = [1, 2, 4]     # 8 subset sums
        assert column_sums([at_cap, [9]], caps) == set(range(8)) | {9}
        with pytest.raises(SizeCapError):
            column_sums([[9], at_cap + [8]], caps)
        with pytest.raises(SizeCapError):
            santa_guess_grid(SantaInstance(1, [Item(values=(F(2) ** k,)) for k in range(4)]),
                             caps)


def brute_columns(inst):
    """Each player's column of the santa grid in Fractions: a classical
    resource's value there, a matroid resource's value times its rank on
    the player."""
    columns = []
    for i in range(inst.num_players):
        column = []
        for it in inst.resources:
            if it.polymatroid is None:
                column.append(it.values[i])
            else:
                column.append(it.value * it.polymatroid.value(1 << i))
        columns.append([v for v in column if v])
    return columns


def brute_sums(column):
    """All subset sums of a column, subset by subset."""
    return {sum((column[k] for k in bits(s)), F(0)) for s in range(1 << len(column))}


def grid_draws():
    """Every santa generator flavor, plus hand-made instances, each all
    classical or all matroid, with values over denominators 1, 2, 3, 5 and 7
    and zeros. The hand-made stream still draws makespan instances and drops
    them, so its santa draws stay the same."""
    for seed in range(6):
        for flavor in ("unrelated-santa", "restricted-santa", "two-value-santa",
                       "santa-matroid"):
            yield gen_random(flavor, seed, m=3, n=3 if "matroid" in flavor else 5,
                             u=F(1, 3), w=F(5, 2))
    rng = random.Random(11)
    for _ in range(160):
        m, makespan = rng.randint(1, 3), rng.random() < 0.5

        def value():
            return F(rng.randint(0, 9), rng.choice([1, 2, 3, 5, 7]))

        items, matroid = [], rng.random() < 0.4
        for _ in range(rng.randint(0, 5)):
            if matroid:
                poly = rng.choice([ModularPoly([rng.randint(0, 2) for _ in range(m)]),
                                   ScaledRankPoly(UniformMatroid(m, 1), rng.randint(1, 2))])
                items.append(Item(value=value(), polymatroid=poly))
            else:
                items.append(Item(values=tuple(None if makespan and rng.random() < 0.3
                                                else value() for _ in range(m))))
        if not makespan:
            yield SantaInstance(m, items)


class TestGridsFromTheView:
    def test_grids_match_brute_force_subset_sums(self, monkeypatch):
        """The santa grid is the union of the positive brute-force subset
        sums of its columns, and a cap raises SizeCapError at the first
        column with more sums than it allows."""
        real = rounding.column_sums
        raised_at = []

        def spy(columns, caps):
            seen = []

            def tracked():
                for column in columns:
                    seen.append(column)
                    yield column

            try:
                return real(tracked(), caps)
            except SizeCapError:
                raised_at.append(len(seen) - 1)
                raise

        monkeypatch.setattr(rounding, "column_sums", spy)
        checked = raised = 0
        for inst in grid_draws():
            columns = brute_columns(inst)
            if max(map(len, columns), default=0) > 8:
                continue
            sums = [brute_sums(column) for column in columns]
            for cap in (4, 9, Caps().guess_grid):
                over = next((c for c, mine in enumerate(sums) if len(mine) > cap), None)
                if over is None:
                    want = set().union(*sums) - {0}
                    assert santa_guess_grid(inst, Caps(guess_grid=cap)) == sorted(want), inst
                    checked += 1
                else:
                    raised_at.clear()
                    with pytest.raises(SizeCapError):
                        santa_guess_grid(inst, Caps(guess_grid=cap))
                    assert raised_at == [over], inst
                    raised += 1
        assert checked >= 150 and raised >= 50, (checked, raised)

    def test_grid_entries_are_fractions_in_lowest_terms(self):
        inst = SantaInstance(2, [Item(values=(F(1, 2), F(2, 3))), Item(values=(F(3, 5), F(0)))])
        grid = santa_guess_grid(inst)
        assert grid == [F(1, 2), F(3, 5), F(2, 3), F(11, 10)]
        assert all(type(v) is Fraction for v in grid)


class TestMatroidJobMultiples:
    def test_lst_baseline_reaches_the_optimum_on_matroid_jobs(self):
        """A matroid job can put p·t on machine i for every t <= f({i}), and
        lst_baseline finds a level T* <= OPT on each draw, within its
        additive bound."""
        for seed in range(60):
            inst = gen_random("makespan-matroid", seed, m=3, n=3)
            opt = brute_opt_makespan(inst).value
            alloc, t_star = lst_baseline(inst)
            assert t_star <= opt, seed
            for it, vec in zip(inst.jobs, alloc):
                assert is_basis(it.polymatroid, vec)
            pmax = max(it.value for it in inst.jobs)
            assert max(entity_totals(inst, alloc)) <= t_star + pmax, seed

    def test_the_grid_cap_does_not_bind_a_large_rank(self):
        """200 multiples of 1/3 on one machine: more loads than the grid cap
        allows, and lst_baseline bisects the levels without a grid."""
        job = Item(value=F(1, 3), polymatroid=ScaledRankPoly(UniformMatroid(1, 1), 200))
        assert lst_baseline(MakespanInstance(1, [job]), Caps(guess_grid=100)) == (
            [(200,)], F(200, 3))


@pytest.mark.xfail(strict=True, reason="a matroid resource's santa column holds only "
                                       "value·f({i}), not a player's share of fewer units")
def test_santa_grid_holds_a_players_share_of_a_matroid_resource():
    # OPT is 4 and the grid is [1, 6, 7, 9, 10]: the largest grid point at
    # most OPT is 1, so the proven bound falls to 1/8 of OPT at alpha 8
    inst = gen_random("santa-matroid", 1, m=3, n=3, u=1, w=3)
    assert brute_opt_santa(inst).value in santa_guess_grid(inst)


class TestAdditiveSanta:
    def test_owner_assignment_guarantee(self):
        for seed in range(12):
            inst = gen_random("unrelated-santa", seed, m=3, n=4, den=2)
            best, frac = guess_loop(lambda T: solve_assignment_lp(inst, T),
                                    santa_guess_grid(inst))
            if best is None:
                continue
            alloc = round_santa(inst, frac)
            vmax = max(v for it in inst.resources for v in it.values)
            assert min(entity_totals(inst, alloc)) >= best - vmax, seed

    def test_thirty_fractional_resources_round(self):
        """30 unrelated resources, each split over two or three players: a
        point that is no LP vertex, with more placements of its fractional
        resources than any enumeration could try, rounds within its
        guarantee."""
        rng = random.Random(3)
        inst = gen_random("unrelated-santa", 3, m=4, n=30)
        rows = []
        for it in inst.resources:
            eligible = [i for i, v in enumerate(it.values) if v > 0]
            support = rng.sample(eligible, min(len(eligible), rng.randint(2, 3)))
            weights = [rng.randint(1, 4) for _ in support]
            rows.append(tuple(F(weights[support.index(i)], sum(weights)) if i in support
                              else F(0) for i in range(4)))
        assert math.prod(sum(1 for v in row if v) for row in rows) > 10 ** 10
        frac = FractionalAssignment(min(entity_totals(inst, rows)), rows)
        assert_rounding_guarantee(inst, frac, round_santa(inst, frac))


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

    def test_an_unrestricted_classical_item_rounds(self):
        """A classical item is rounded as a rank-one polymatroid over its
        eligible players, whatever its values there: an unrelated-santa draw
        with an item of two values rounds a point that puts each item whole
        on an eligible player."""
        inst = gen_random("unrelated-santa", 0, m=3, n=4)
        assert not all(inst.int_values.restricted)
        rows = [tuple(F(int(i == (mask & -mask).bit_length() - 1)) for i in range(3))
                for mask in inst.int_values.eligible]
        frac = FractionalAssignment(F(0), rows)
        alloc = round_santa(inst, frac)
        assert_rounding_guarantee(inst, frac, alloc)
        assert alloc == [tuple(map(int, row)) for row in rows]

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

    @pytest.mark.parametrize("bend, message", [
        (lambda x: x[:-1], r"item 4 has no row \(4 rows for 5 items\)$"),
        (lambda x: x + [x[0]], r"row 5 has no item \(6 rows for 5 items\)$"),
        (lambda x: [row + (F(0),) for row in x], r"item 0 has 4 entries, expected 3$"),
        (lambda x: x[:2] + [x[2][:-1]] + x[3:], r"item 2 has 2 entries, expected 3$"),
        (lambda x: x[:3] + [tuple(map(float, x[3]))] + x[4:],
         r"item 3 has entry 1\.0, not an int or a Fraction$"),
    ])
    def test_a_malformed_point_names_its_item(self, bend, message):
        inst = gen_random("restricted-santa", 4, m=3, n=5)
        frac = solve_assignment_lp(inst, F(1))
        assert round_santa(inst, frac) == [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0)]
        with pytest.raises(ContractViolation, match="^fractional assignment: " + message):
            round_santa(inst, FractionalAssignment(F(1), bend(frac.x)))

    def test_a_float_never_reaches_a_makespan_decision(self):
        inst = MakespanInstance(2, [Item(values=(F(1), F(1)))] * 2)
        rows = [(F(1), F(0)), (F(0), F(1))]
        assert round_makespan(inst, FractionalAssignment(F(1), rows)) == [(1, 0), (0, 1)]
        with pytest.raises(ContractViolation, match="item 1 has entry 0.5, not an int"):
            round_makespan(inst, FractionalAssignment(F(1), [rows[0], (0.5, 0.5)]))
        with pytest.raises(ContractViolation, match=r"T = 1\.0 is not an int or a Fraction"):
            round_makespan(inst, FractionalAssignment(1.0, rows))

    def test_a_resource_nobody_values_keeps_a_zero_row(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1))), Item(values=(F(0), F(0)))])
        frac = FractionalAssignment(F(1, 2), [(F(1, 2), F(1, 2)), (F(0), F(0))])
        assert round_santa(inst, frac)[1] == (0, 0)


class TestClassicalBasis:
    """round_santa builds a classical resource's basis directly from its
    rounded row: one unit on an eligible player."""

    @pytest.mark.parametrize("eligible", range(8))
    def test_the_basis_is_what_the_greedy_gives(self, eligible):
        """On every row with entries -1..2 over three players, the direct
        basis equals greedy_basis_above on the rank-one view, and a row that
        is no member is refused by both with ValueError."""
        poly = CoveragePoly([(eligible >> i) & 1 for i in range(3)], [1])

        def basis(build, row):
            try:
                return build(row)
            except ValueError:
                return ValueError

        for row in product(range(-1, 3), repeat=3):
            assert (basis(lambda r: rounding._classical_basis(r, eligible), row)
                    == basis(lambda r: greedy_basis_above(poly, r), row))

    def test_a_zero_ground_cap_does_not_bind_an_empty_row(self):
        """No enumeration builds a classical basis, so the ground cap does not
        bind it: item 3's rounded row is empty, and under sfm_ground = 0 it
        still gets its unit on the lowest eligible player."""
        inst = gen_random("restricted-santa", 1, m=3, n=5)
        _, frac = guess_loop(lambda t: solve_assignment_lp(inst, t), santa_guess_grid(inst))
        assert not any(rounding._check_and_round(inst, frac, "floor", DEFAULT_CAPS)[0][3])
        want = [(1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)]
        assert round_santa(inst, frac) == want
        assert round_santa(inst, frac, DEFAULT_CAPS.override(sfm_ground=0)) == want


def reference_gadget_round(inst, rows, den, mode, caps):
    """The gadget rounding with whole-vector predicates: every item's vector
    a member of its polymatroid, and every slot within one unit; the slots
    run in Fractions over the point rows/den, each entity ordering the items
    by their own Fraction values there (ties by index), and each item
    overlaps the slots from the floor of its cumulative start to the
    ceiling of its end."""
    n, m = len(rows), inst.num_entities
    polys = [item_polymatroid(inst, j) for j in range(n)]
    frac_x = [[F(v, den) for v in row] for row in rows]
    edges, slots = [], 0
    for i in range(m):
        total = sum(row[i] for row in frac_x)
        kept = math.floor(total) if mode == "floor" else math.ceil(total)
        held = [j for j in range(n) if frac_x[j][i] > 0]
        start = F(0)
        for j in sorted(held, key=lambda j: (-inst.items[j].value_for(i), j)):
            end = start + frac_x[j][i]
            if polys[j].value(1 << i) > 0:
                edges.extend((j, i, slots + s)
                             for s in range(math.floor(start), min(math.ceil(end), kept)))
            start = end
        slots += kept

    def per_item(x):
        out = {}
        for (j, i, _), c in zip(edges, x):
            if c:
                out.setdefault(j, [0] * m)[i] += c
        return out

    def within_slots(x):
        per_slot = [0] * slots
        for (_, _, s), c in zip(edges, x):
            per_slot[s] += c
        return max(per_slot, default=0) <= 1

    def items_members(x):
        return all(member(polys[j], vec, caps) for j, vec in per_item(x).items())

    one_block = [0] * len(edges)
    best = max_common_independent([1] * len(edges), DirectSum(one_block, [items_members]),
                                  DirectSum(one_block, [within_slots]), 4 * caps.expand)
    if mode == "floor":
        target, what = slots, "slots"
    else:
        target, what = sum(p.value((1 << m) - 1) for p in polys), "items' bases"
    if sum(best) != target:
        raise ContractViolation(
            f"gadget rounding fell short of saturating its {what} "
            f"({sum(best)} of {target}); the fractional input is not LP-feasible")
    alloc = [tuple([0] * m) for _ in range(n)]
    for j, vec in per_item(best).items():
        alloc[j] = tuple(vec)
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


RESTRICTED = ("restricted-santa", "restricted-makespan")
UNRELATED = ("unrelated-santa", "two-value-makespan")


def classical_draw(seed, flavors=RESTRICTED):
    """Seed's draw of flavors (the santa one on even seeds, the makespan
    one on odd ones, m 2-8, n 5-12) with random_rows at T the least player
    value or the largest load."""
    rng = random.Random(seed)
    m, n = rng.randint(2, 8), rng.randint(5, 12)
    makespan = seed % 2
    inst = gen_random(flavors[makespan], seed, m=m, n=n)
    rows = random_rows(rng, inst)
    totals = entity_totals(inst, rows)
    return inst, FractionalAssignment(max(totals) if makespan else min(totals), rows)


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
    """600 restricted and 300 unrelated classical draws (m 2-8, n 5-12),
    each rounded with the counting sides and with the whole-vector
    predicates: every one rounds, alike."""
    draws = [(RESTRICTED, seed) for seed in range(600)] + [(UNRELATED, seed) for seed in range(300)]
    for flavors, seed in draws:
        inst, frac = classical_draw(seed, flavors)
        rounder = round_makespan if isinstance(inst, MakespanInstance) else round_santa
        got, want = rounded_both_ways(monkeypatch, rounder, inst, frac)
        assert got == want, (flavors, seed)
        assert isinstance(got, list), (flavors, seed, got)


def test_classical_rounding_builds_no_polymatroid(monkeypatch):
    """Rounding the LP points of restricted draws reads each item's
    eligibility from the instance: no item_polymatroid call and no
    CoveragePoly, where item_polymatroid would build one per item."""
    built = []
    real_coverage = CoveragePoly.__init__

    def coverage(self, *args, **kwargs):
        built.append("CoveragePoly")
        real_coverage(self, *args, **kwargs)

    def counted_item_polymatroid(inst, j):
        built.append("item_polymatroid")
        return item_polymatroid(inst, j)

    for seed in range(8):
        flavor = ("restricted-santa", "restricted-makespan")[seed % 2]
        inst = gen_random(flavor, seed, m=3, n=6)
        if isinstance(inst, MakespanInstance):
            # every job on a machine where it is smallest fits under the sum
            top = sum(min(v for v in it.values if v is not None) for it in inst.items)
            frac, rounder = solve_assignment_lp(inst, top), round_makespan
        else:
            _, frac = guess_loop(lambda t: solve_assignment_lp(inst, t), santa_guess_grid(inst))
            rounder = round_santa
        frac.point  # solved before the spies go in
        with monkeypatch.context() as patched:
            patched.setattr(CoveragePoly, "__init__", coverage)
            patched.setattr(rounding, "item_polymatroid", counted_item_polymatroid)
            validate_allocation(inst, rounder(inst, frac))
    assert built == []


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


def fraction_totals(inst, rows):
    """Per-entity value or load of an allocation or of fractional rows, in
    Fractions from the items' own values."""
    return [sum((it.value_for(i) * row[i] for it, row in zip(inst.items, rows) if row[i]), F(0))
            for i in range(inst.num_entities)]


def assert_rounding_guarantee(inst, frac, alloc):
    """alloc is valid, each item on a basis, and every player's value is at
    least min(T, its fractional value) - v_max, or every load at most
    max(T, its fractional load) + p_max."""
    validate_allocation(inst, alloc, require_basis=True)
    m = inst.num_entities
    largest = max((v for it in inst.items for i in range(m)
                   if (v := it.value_for(i)) is not None), default=F(0))
    got, fractional = fraction_totals(inst, alloc), fraction_totals(inst, frac.x)
    if isinstance(inst, MakespanInstance):
        assert all(g <= max(frac.T, f) + largest for g, f in zip(got, fractional))
    else:
        assert all(g >= min(frac.T, f) - largest for g, f in zip(got, fractional))


def test_every_random_lp_feasible_classical_point_rounds():
    """3,000 restricted and 1,000 unrelated classical draws of random rows,
    none of them an LP vertex in general: each rounds, with its guarantee
    recomputed in Fractions."""
    draws = [(RESTRICTED, seed) for seed in range(3000)] + [(UNRELATED, seed)
                                                            for seed in range(1000)]
    for flavors, seed in draws:
        inst, frac = classical_draw(seed, flavors)
        rounder = round_makespan if isinstance(inst, MakespanInstance) else round_santa
        assert_rounding_guarantee(inst, frac, rounder(inst, frac))


@pytest.mark.parametrize("seed, flavor, m, n", [(454, SantaInstance, 4, 10),
                                                (79, MakespanInstance, 3, 12)],
                         ids=["restricted-santa-s454", "restricted-makespan-s79"])
def test_the_draws_the_degree_chains_left_short_round(seed, flavor, m, n):
    """Draws that the earlier gadget (one vertex per positive column, with
    degrees from a remainder recursion and carry edges to the next vertex)
    could not saturate: seed 454 ended 7 of 8 degree units short in floor
    mode, and seed 79 one unit short of the items' bases in ceil mode."""
    inst, frac = classical_draw(seed)
    assert (type(inst), inst.num_entities, len(inst.items)) == (flavor, m, n)
    rounder = round_makespan if flavor is MakespanInstance else round_santa
    assert_rounding_guarantee(inst, frac, rounder(inst, frac))


@pytest.mark.parametrize("flavor, rounder", [("santa-matroid", round_santa),
                                             ("makespan-matroid", round_makespan)])
def test_basis_mixtures_round_with_their_guarantee(flavor, rounder):
    """Convex combinations of two bases per item, which are not LP vertices
    in general, on more players and items than the mixtures above: each
    rounds, with its guarantee recomputed in Fractions."""
    rounded = 0
    for seed in range(200):
        rng = random.Random(seed)
        inst = gen_random(flavor, seed, m=rng.randint(2, 4), n=rng.randint(3, 6),
                          u=F(1), w=F(2))
        xs = mixture(rng, inst)
        if xs is None:
            continue
        totals = fraction_totals(inst, xs)
        frac = FractionalAssignment(max(totals) if rounder is round_makespan else min(totals),
                                    xs)
        assert_rounding_guarantee(inst, frac, rounder(inst, frac))
        rounded += 1
    assert rounded >= 150


def fraction_point(inst, t):
    """The assignment LP's vertex at t as per-item rows, from the dense
    Fraction tableau the simplex is checked against."""
    columns = assignment_lp_columns(inst, t)
    var_of, constraints = assignment_lp_rows(inst, t, columns)
    point = reference_point(len(var_of), constraints)
    return [tuple(point[var_of[j, i]] if (j, i) in var_of else F(0)
                  for i in range(inst.num_entities)) for j in range(len(inst.items))]


def test_the_integer_point_and_its_rounding_match_the_fraction_path(monkeypatch):
    """The classical-lp shapes (restricted santa and makespan, m <= 4,
    n <= 7), 200 seeds each, at the guess loop's answer: the integer point,
    x and the rounded allocation equal the Fraction path (the Fraction
    read-out, rounded from given Fraction rows and by the reference gadget,
    whose slots run in Fractions)."""
    compared = 0
    for seed in range(200):
        rng = random.Random(seed)
        m, n = rng.randint(2, 4), rng.randint(3, 7)
        for makespan in (False, True):
            inst = gen_random("restricted-makespan" if makespan else "restricted-santa",
                              seed, m=m, n=n)
            grid = load_levels(inst)[::-1] if makespan else santa_guess_grid(inst)
            t, frac = guess_loop(lambda T: solve_assignment_lp(inst, T), grid)
            if t is None:
                continue
            want = fraction_point(inst, t)
            rows, den = frac.point
            assert den > 0 and all(type(v) is int for row in rows for v in row)
            assert [tuple(F(v, den) for v in row) for row in rows] == want == frac.x, seed
            rounder = round_makespan if makespan else round_santa
            got = outcome(lambda: rounder(inst, frac))
            assert got == outcome(lambda: rounder(inst, FractionalAssignment(t, want))), seed
            with monkeypatch.context() as patched:
                patched.setattr(rounding, "_gadget_round", reference_gadget_round)
                assert got == outcome(lambda: rounder(inst, FractionalAssignment(t, want))), seed
            compared += isinstance(got, list)
    assert compared >= 350
