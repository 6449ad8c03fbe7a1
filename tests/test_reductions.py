"""Constructive reductions: operation examples and randomized round trips
solved exactly by brute force, with every advertised bound re-verified."""

import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest
from conftest import three_value_draw
from hypothesis import given, settings, strategies as st

from matalloc import instances, polymatroids, reductions
from matalloc.bitsets import full_mask, size, submasks
from matalloc.instances import (CoreCoverInstance, Item, MakespanInstance, SantaInstance,
                                assignment_to_alloc, entity_totals, gen_random, parse_instance,
                                serialize_instance, validate_allocation)
from matalloc.limits import DEFAULT_CAPS, BaselineRegime, ContractViolation, GuessRejected
from matalloc.localsearch import solve_cover
from matalloc.matroids import InducedMatroid, UniformMatroid
from matalloc.oracle import brute_opt_makespan, brute_opt_santa
from matalloc.polymatroids import ModularPoly, ScaledRankPoly, SumPoly, member
from matalloc.reductions import (config_round, config_total, guess_loop,
                                 matroid_makespan_to_santa, matroid_santa_from_schedule,
                                 matroid_santa_to_makespan, reduce_to_core, santa_guess_grid,
                                 santa_solution_from_schedule, santa_to_makespan,
                                 schedule_from_matroid_santa, schedule_from_santa_solution,
                                 solve_twovalue_makespan_via_santa, twovalue_makespan_to_santa,
                                 twovalue_santa_to_makespan)

F = Fraction


def exact_cover_solver(core):
    """Independent exhaustive core-cover solver used as the plug-in callable."""
    n = core.matroid.n
    for im in range(1 << n):
        if not core.matroid.is_independent(im):
            continue
        rest = full_mask(n) ^ im
        if all(core.polymatroid.value(s) >= core.b * size(s) for s in submasks(rest) if s):
            class Res:
                feasible = True
                I_M = im
                y = tuple(core.b if (rest >> e) & 1 else 0 for e in range(n))
            return Res
    return None


def brute_santa_solver(santa):
    rep = brute_opt_santa(santa)
    return assignment_to_alloc(rep.witness, santa.num_players)


def brute_makespan_solver(gadget):
    rep = brute_opt_makespan(gadget)
    if rep.witness is None:
        raise GuessRejected("gadget unschedulable")
    return assignment_to_alloc(rep.witness, gadget.num_machines)


class TestConfigRound:
    def test_power_rounding(self):
        vals = (F(3, 10), F(17, 10), F(1, 22), F(1, 2))
        inst = SantaInstance(1, [Item(values=(v,)) for v in vals])
        rounded, _ = config_round(inst, F(1, 10))
        expect = F(1)
        for _ in range(13):
            expect /= F(11, 10)
        assert rounded.resources[0].values[0] == expect  # (1/1.1)^13
        assert rounded.resources[1].values[0] == 1       # clamped above 1
        assert rounded.resources[2].values[0] == 0       # below 1/((1+eps)n)

    def test_rejects_nonpositive_eps(self):
        inst = SantaInstance(1, [Item(values=(F(1),))])
        with pytest.raises(ValueError):
            config_round(inst, 0)

    def test_config_counts_cover_matchable_bundles(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1))) for _ in range(3)])
        _, configs = config_round(inst, F(1, 4))
        counts = {tuple(sorted(c.items())) for c in configs[0]}
        assert (((F(1), 1),),) != counts  # more than one option
        assert any(c.get(F(1)) == 2 for c in configs[0])


class TestSantaToMakespanGadget:
    def test_smallest_gadget(self):
        inst = SantaInstance(1, [Item(values=(F(1),))])
        bundle = santa_to_makespan(inst, [[{F(1): 1}]])
        assert len(bundle.machines) == 2  # one config machine + one resource machine
        assert len(bundle.jobs) == 2      # player job + one configuration job

    def test_config_job_size(self):
        inst = SantaInstance(1, [Item(values=(F(1),)) for _ in range(2)])
        bundle = santa_to_makespan(inst, [[{F(1): 2}]])
        job = next(k for k, d in enumerate(bundle.jobs) if d[0] == "configjob")
        config_machine = next(k for k, d in enumerate(bundle.machines) if d[0] == "config")
        assert bundle.makespan.jobs[job].values[config_machine] == F(1, 2)  # v / |c|

    def test_machine_and_job_counts(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(1))) for _ in range(3)])
        configs = [[{F(1): 1}, {F(1): 2}], [{F(1): 1}]]
        bundle = santa_to_makespan(inst, configs)
        assert len(bundle.machines) == 3 + 3
        assert len(bundle.jobs) == 2 + (1 + 2 + 1)

    def test_low_value_configs_dropped(self):
        inst = SantaInstance(1, [Item(values=(F(1, 2),)) for _ in range(2)])
        bundle = santa_to_makespan(inst, [[{F(1, 2): 1}, {F(1, 2): 2}]])
        assert bundle.configs == [[{F(1, 2): 2}]]
        with pytest.raises(ContractViolation):
            santa_to_makespan(inst, [[{F(1, 2): 1}]])

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_against_brute_force(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        inst = gen_random("two-value-santa", seed, m=m, n=n, u=F(1, 2), w=F(1))
        opt = brute_opt_santa(inst)
        if opt.value < 1:
            return
        rounded, configs = config_round(inst, F(1, 4))
        copt = brute_opt_santa_matched(rounded, configs)
        if copt < 1:
            return
        from conftest import schedule_within

        bundle = santa_to_makespan(rounded, configs)
        sched = schedule_within(bundle.makespan, F(1))
        assert sched is not None  # the gadget optimum is at most 1
        alloc, worst = santa_solution_from_schedule(bundle, sched)
        assert worst >= 1


def brute_opt_santa_matched(inst, configs):
    """Exhaustive optimum over assignments matching the configuration family."""
    m, items = inst.num_players, inst.resources
    best = F(0)

    def matches(i, counts):
        for c in configs[i]:
            if counts == c:
                return True
        return False

    assign = [None] * len(items)

    def rec(j):
        nonlocal best
        if j == len(items):
            value = None
            for i in range(m):
                counts = {}
                for k, owner in enumerate(assign):
                    if owner == i and items[k].values[i] > 0:
                        counts[items[k].values[i]] = counts.get(items[k].values[i], 0) + 1
                if not matches(i, counts):
                    return
                total = config_total(counts)
                value = total if value is None else min(value, total)
            best = max(best, value if value is not None else F(0))
            return
        for choice in [None] + list(range(m)):
            assign[j] = choice
            rec(j + 1)
        assign[j] = None

    rec(0)
    return best


class TestTwoValueDirections:
    def test_k_and_t_formulas(self):
        mk = MakespanInstance(2, [Item(values=(F(2, 5), F(2, 5))),
                                  Item(values=(F(7, 10), F(7, 10)))])
        bundle = twovalue_makespan_to_santa(mk)
        assert bundle.k == 2 and bundle.t == F(1, 2)

    def test_unit_sizes_collapse(self):
        mk = MakespanInstance(1, [Item(values=(F(1),))])
        bundle = twovalue_makespan_to_santa(mk)
        assert bundle.k == 1 and bundle.t == 1

    def test_job_count_binds_k(self):
        mk = MakespanInstance(2, [Item(values=(F(4, 5), None))] +
                              [Item(values=(F(1, 5), None)) for _ in range(2)])
        bundle = twovalue_makespan_to_santa(mk)
        assert bundle.k == 3  # min(floor(1/u) = 5, n = 3)

    def test_small_w_routes_to_baseline(self):
        mk = MakespanInstance(2, [Item(values=(F(1, 4), F(1, 2))), Item(values=(F(1, 2), None))])
        with pytest.raises(BaselineRegime):
            twovalue_makespan_to_santa(mk)

    def test_t_at_most_one_and_w_at_least_t(self):
        for seed in range(30):
            inst = gen_random("two-value-makespan", seed, m=2, n=3, u=F(1, 3), w=F(4, 5))
            opt = brute_opt_makespan(inst)
            if opt.value in (None, 0):
                continue
            norm = MakespanInstance(2, [Item(values=tuple(
                v / opt.value if v is not None else None for v in it.values))
                for it in inst.jobs])
            try:
                bundle = twovalue_makespan_to_santa(norm)
            except (ValueError, GuessRejected):
                continue
            assert bundle.t <= 1 and bundle.w >= bundle.t

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_makespan_to_santa_round_trip(self, seed):
        from conftest import gadget_santa_opt

        inst = gen_random("two-value-makespan", seed, m=2, n=3, u=F(1, 4), w=F(2, 3))
        opt = brute_opt_makespan(inst)
        if opt.value in (None, 0):
            return
        norm = MakespanInstance(2, [Item(values=tuple(
            v / opt.value if v is not None else None for v in it.values)) for it in inst.jobs])
        try:
            bundle = twovalue_makespan_to_santa(norm)
        except (ValueError, GuessRejected):
            return
        sval, salloc = gadget_santa_opt(bundle)
        assert sval >= bundle.t  # the gadget optimum dominates t
        sched, mu = schedule_from_santa_solution(bundle, salloc)
        assert mu <= 1 + bundle.t - min(sval, bundle.t)

    def test_canonical_gadget_solver_matches_generic_brute_force(self):
        from conftest import gadget_santa_opt

        for seed in range(6):
            inst = gen_random("two-value-makespan", seed, m=2, n=2, u=F(1, 4), w=F(2, 3))
            opt = brute_opt_makespan(inst)
            if opt.value in (None, 0):
                continue
            norm = MakespanInstance(2, [Item(values=tuple(
                v / opt.value if v is not None else None for v in it.values))
                for it in inst.jobs])
            try:
                bundle = twovalue_makespan_to_santa(norm)
            except (ValueError, GuessRejected):
                continue
            sval, _ = gadget_santa_opt(bundle)
            assert sval == brute_opt_santa(bundle.santa).value

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_santa_to_makespan_pipeline(self, seed):
        inst = gen_random("two-value-santa", seed, m=3, n=4, u=F(1), w=F(3))
        opt = brute_opt_santa(inst)
        if opt.value <= 0:
            return
        norm = SantaInstance(3, [Item(values=tuple(v / opt.value for v in it.values))
                                 for it in inst.resources])
        alloc, case = twovalue_santa_to_makespan(norm, F(2), brute_makespan_solver)
        assert min(entity_totals(norm, alloc)) >= F(1, 2)

    def test_matching_case_zero_one_values(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(0))), Item(values=(F(0), F(1)))])
        alloc, case = twovalue_santa_to_makespan(inst, F(2), brute_makespan_solver)
        assert case == "matching"

    def test_additive_case_when_w_is_small(self):
        # two players, one value-3 resource and a pile of unit resources: the
        # optimum exceeds 2*w, so after normalization w < 1/alpha and the
        # assignment-LP additive route must fire
        items = [Item(values=(F(3), F(0)))] + [Item(values=(F(1), F(1))) for _ in range(12)]
        inst = SantaInstance(2, items)
        opt = brute_opt_santa(inst)
        assert opt.value > 6
        norm = SantaInstance(2, [Item(values=tuple(v / opt.value for v in it.values))
                                 for it in inst.resources])
        alloc, case = twovalue_santa_to_makespan(norm, F(2), brute_makespan_solver)
        assert case == "additive"
        assert min(entity_totals(norm, alloc)) >= F(1, 2)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_dispatch_wrapper_bound(self, seed):
        inst = gen_random("two-value-makespan", seed, m=2, n=3, u=F(1, 4), w=F(2, 3))
        opt = brute_opt_makespan(inst)
        if opt.value in (None, 0):
            return
        norm = MakespanInstance(2, [Item(values=tuple(
            v / opt.value if v is not None else None for v in it.values)) for it in inst.jobs])
        try:
            bundle = twovalue_makespan_to_santa(norm)
        except ValueError:  # w <= 1/2: the wrapper must take the baseline route
            sched, mu, route = solve_twovalue_makespan_via_santa(
                norm, F(2), brute_santa_solver)
            assert route == "baseline"
            assert max(entity_totals(norm, sched)) <= F(3, 2)
            return
        from conftest import gadget_santa_opt

        sval, salloc = gadget_santa_opt(bundle)
        sched, mu = schedule_from_santa_solution(bundle, salloc)
        assert max(entity_totals(norm, sched)) <= F(3, 2)

    @pytest.mark.parametrize("alpha", [F(2), F(4)])
    def test_dispatch_wrapper_gadget_route(self, alpha):
        # OPT normalised to 1 with w > 1/2: the wrapper hands the gadget to the
        # max-min solver (here exact, so V >= t >= t/alpha) and translates back
        from conftest import gadget_santa_opt

        routed = 0
        for seed in range(40):
            inst = gen_random("two-value-makespan", seed, m=2, n=3, u=F(1, 4), w=F(2, 3))
            opt = brute_opt_makespan(inst).value
            if opt in (None, 0):
                continue
            norm = MakespanInstance(2, [Item(values=tuple(
                v / opt if v is not None else None for v in it.values)) for it in inst.jobs])
            # sizes above 1 fit nowhere at makespan 1; the largest other is w
            sizes = [v for it in norm.jobs for v in it.values if v is not None and v <= 1]
            if max(sizes) <= F(1, 2):
                continue
            sched, mu, route = solve_twovalue_makespan_via_santa(
                norm, alpha, lambda santa: gadget_santa_opt(twovalue_makespan_to_santa(norm))[1])
            assert route == "gadget"
            validate_allocation(norm, sched)
            assert mu == max(entity_totals(norm, sched)) <= 2 - 1 / alpha
            routed += 1
        assert routed >= 10


class TestBackTranslationInputs:
    """Both classical back-translations validate what the solver hands back
    and name the input that failed."""

    # one player with configurations {1} (over the one resource) and {1/2, 1/2};
    # machines: config 0, config 1, resource 0; jobs: the player-job, the {1}
    # job and the two 1/2 jobs
    SANTA = SantaInstance(1, [Item(values=(F(1),))])
    CONFIGS = [[{F(1): 1}, {F(1, 2): 2}]]
    SCHEDULE = [(1, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 0)]
    # one machine, one unit job: players machine 0 and job 0, resources big
    # and small of machine 0; the job-player holds the big one
    JOB = MakespanInstance(1, [Item(values=(F(1),))])
    ALLOC = [(0, 1), (1, 0)]

    def test_valid_inputs(self):
        bundle = santa_to_makespan(self.SANTA, self.CONFIGS)
        assert santa_solution_from_schedule(bundle, self.SCHEDULE) == ([(1,)], 1)
        bundle = twovalue_makespan_to_santa(self.JOB)
        assert schedule_from_santa_solution(bundle, self.ALLOC) == ([(1,)], 1)

    def test_a_job_player_holding_two_resources_keeps_the_lower_index(self):
        # job 0 holds the big resource of machine 0 (index 0) and a small one
        # of machine 1 (index 4), both worth w to it: it keeps index 0
        bundle = twovalue_makespan_to_santa(
            MakespanInstance(2, [Item(values=(F(1), F(1, 2))), Item(values=(F(1, 2), F(1, 2)))]))
        alloc = assignment_to_alloc([2, 0, 0, 1, 2, 3], bundle.santa.num_players)
        resources = bundle.santa.resources
        assert resources[0].values[2] == resources[4].values[2] == bundle.w
        assert schedule_from_santa_solution(bundle, alloc) == ([(1, 0), (0, 1)], 1)

    @pytest.mark.parametrize("schedule", [
        [tuple(2 * k for k in vec) for vec in SCHEDULE],
        [(1, 0, 0), (0, 0, -1), (0, 1, 0), (0, 1, 0)],
        SCHEDULE[:-1],
        [vec + (0,) for vec in SCHEDULE],
        [(0, 0, 1)] + SCHEDULE[1:],
    ], ids=["doubled", "negative", "missing", "over-long", "infinite"])
    def test_malformed_gadget_schedule(self, schedule):
        bundle = santa_to_makespan(self.SANTA, self.CONFIGS)
        with pytest.raises(ContractViolation, match="^gadget schedule: "):
            santa_solution_from_schedule(bundle, schedule)

    @pytest.mark.parametrize("alloc, sizes, what", [
        ([(0, 2), (2, 0)], (F(1),), "gadget allocation"),
        ([(0, 1), (-1, 0)], (F(1),), "gadget allocation"),
        ([(0, 1)], (F(1),), "gadget allocation"),
        ([(0, 1, 0), (1, 0, 0)], (F(1),), "gadget allocation"),
        # a source that cannot run its job where the gadget places it
        (ALLOC, (None,), "translated schedule"),
    ], ids=["doubled", "negative", "missing", "over-long", "infinite"])
    def test_malformed_gadget_allocation(self, alloc, sizes, what):
        bundle = dataclasses.replace(twovalue_makespan_to_santa(self.JOB),
                                     source=MakespanInstance(1, [Item(values=sizes)]))
        with pytest.raises(ContractViolation, match=f"^{what}: "):
            schedule_from_santa_solution(bundle, alloc)


class TestMatroidDuals:
    def test_k_formulas(self):
        mk = MakespanInstance(2, [Item(value=F(3, 5), polymatroid=ModularPoly([1, 1])),
                                  Item(value=F(1, 4),
                                       polymatroid=ScaledRankPoly(UniformMatroid(2, 1), 2))])
        bundle = matroid_makespan_to_santa(mk)
        assert bundle.caps_per_item == (1, 4) and bundle.t == F(3, 5)

    def test_a_job_above_the_bound(self):
        """A job larger than the makespan bound 1 fits only if it has nothing
        to place: with f(E) > 0 the guess is rejected, and with f(E) = 0 its
        box cap is k = 0 and the build goes on."""
        def two_jobs(poly):
            return MakespanInstance(2, [Item(value=F(3, 2), polymatroid=poly),
                                        Item(value=F(1, 2), polymatroid=ModularPoly([1, 1]))])

        with pytest.raises(GuessRejected, match="larger than the makespan bound"):
            matroid_makespan_to_santa(two_jobs(ModularPoly([1, 0])))
        bundle = matroid_makespan_to_santa(two_jobs(ModularPoly([0, 0])))
        assert bundle.caps_per_item == (0, 2) and bundle.t == 0

    def test_unit_sizes(self):
        mk = MakespanInstance(2, [Item(value=F(1), polymatroid=ModularPoly([1, 1])),
                                  Item(value=F(1), polymatroid=ModularPoly([1, 0]))])
        bundle = matroid_makespan_to_santa(mk)
        assert bundle.caps_per_item == (1, 1) and bundle.t == 1

    @pytest.mark.parametrize("build, back", [
        (lambda: matroid_makespan_to_santa(MakespanInstance(2, [
            Item(value=F(3, 5), polymatroid=ModularPoly([1, 1])),
            Item(value=F(1, 4), polymatroid=ScaledRankPoly(UniformMatroid(2, 1), 2))])),
         schedule_from_matroid_santa),
        (lambda: matroid_santa_to_makespan(SantaInstance(2, [
            Item(value=F(1), polymatroid=ModularPoly([1, 1])),
            Item(value=F(1, 2), polymatroid=ModularPoly([2, 1]))])),
         matroid_santa_from_schedule),
    ], ids=["makespan-to-santa", "santa-to-makespan"])
    def test_back_translation_rejects_non_basis_of_dual(self, build, back):
        # the first item's dual has rank 0, so (0, 0) is its basis; (9, 9)
        # leaves the second dual's box
        bundle = build()
        with pytest.raises(ContractViolation, match="input vector 1 is not a basis of the dual"):
            back(bundle, [(0, 0), (9, 9)])

    def test_dual_of_dual_round_trip(self):
        from matalloc.polymatroids import DualPoly

        p = ModularPoly([2, 1, 3])
        capped = p.capped(uniform=2, on=full_mask(3))
        z = (2, 2, 2)
        dd = DualPoly(DualPoly(capped, z), z)
        for s in range(8):
            assert dd.value(s) == capped.value(s)

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_makespan_to_santa_identity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        jobs = [Item(value=F(rng.randint(1, 4), 4),
                     polymatroid=ModularPoly([rng.randint(0, 2) for _ in range(n)])),
                Item(value=F(rng.randint(1, 4), 4),
                     polymatroid=ScaledRankPoly(UniformMatroid(n, rng.randint(1, n)),
                                                rng.randint(1, 2)))]
        inst = MakespanInstance(n, jobs)
        opt = brute_opt_makespan(inst)
        if opt.value is None or opt.value > 1:
            return
        try:
            bundle = matroid_makespan_to_santa(inst)
        except GuessRejected:
            return
        sopt = brute_opt_santa(bundle.built)
        assert sopt.value >= bundle.t
        sched, loads_ = schedule_from_matroid_santa(
            bundle, [tuple(v) for v in sopt.witness])
        # the per-machine identity is asserted inside; check the load bound too
        assert max(loads_) <= 1 + bundle.t - min(sopt.value, bundle.t)

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_santa_to_makespan_identity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        b = rng.randint(1, 3)
        inst = SantaInstance(n, [
            Item(value=F(1), polymatroid=ScaledRankPoly(UniformMatroid(n, rng.randint(1, n)),
                                                        rng.randint(1, 2))),
            Item(value=F(1, b), polymatroid=ModularPoly([rng.randint(0, 3) for _ in range(n)]))])
        opt = brute_opt_santa(inst)
        if opt.value < 1:
            return
        bundle = matroid_santa_to_makespan(inst)
        mopt = brute_opt_makespan(bundle.built)
        assert mopt.value <= 1
        alloc, values = matroid_santa_from_schedule(bundle, [tuple(v) for v in mopt.witness])
        assert min(values) >= 2 - max(mopt.value, 1)


class TestReduceToCore:
    def test_case_dispatch_thresholds(self):
        # u = 1, w = 3, guess 8, alpha 4: scaled u = 1/8 < 1/4 <= w = 3/8
        inst = SantaInstance(2, [Item(value=F(3), polymatroid=ModularPoly([1, 1])),
                                 Item(value=F(1), polymatroid=ModularPoly([4, 4]))])
        red = reduce_to_core(inst, F(4), F(8), exact_cover_solver)
        assert red.case == "core-cover"

    def test_single_value_degenerate(self):
        inst = SantaInstance(2, [Item(value=F(1), polymatroid=ModularPoly([1, 1]))])
        red = reduce_to_core(inst, F(4), F(1), exact_cover_solver)
        assert red.case == "one-each"

    def test_one_each_allocation_is_held_to_its_bound(self, monkeypatch):
        # the one-each build is checked on read like every other case
        inst = SantaInstance(2, [Item(value=F(1), polymatroid=ModularPoly([1, 1]))])
        red = reduce_to_core(inst, F(4), F(1), exact_cover_solver)
        assert (red.case, red.achieved) == ("one-each", F(1))
        monkeypatch.setattr(reductions, "_alloc_from_cover", lambda *args: [(0, 0)])
        with pytest.raises(ContractViolation, match="translated value 0 below the bound"):
            red.alloc

    def test_one_each_decides_all_ones_on_one_polymatroid(self, monkeypatch):
        # acceptance and distribution decide the all-ones vector on one sum
        asked = []

        def recording(p, x, caps=None):
            if list(x) == [1] * p.n:
                asked.append(p)
            return member(p, x) if caps is None else member(p, x, caps)

        monkeypatch.setattr(reductions, "member", recording)
        monkeypatch.setattr(polymatroids, "member", recording)
        inst = gen_random("santa-matroid", 0, m=4, n=4, u=F(1), w=F(3))
        red = reduce_to_core(inst, F(8), F(2), exact_cover_solver)
        assert red.case == "one-each"
        validate_allocation(inst, red.alloc, require_basis=True)
        assert asked and len({id(p) for p in asked}) == 1

    def test_guesses_share_the_resource_sums(self):
        # the heavy and the u-part sums of two guesses are the same objects,
        # so their membership and value memos carry over
        inst = gen_random("santa-matroid", 0, m=4, n=4, u=F(1), w=F(3))
        cores = []

        def spy(core):
            cores.append(core)
            return exact_cover_solver(core)

        for guess in (F(12), F(16)):   # both in the core-cover band 8 < guess <= 24
            try:
                reduce_to_core(inst, F(8), guess, spy)
            except GuessRejected:
                pass
        assert len(cores) == 2
        assert cores[0].matroid is cores[1].matroid
        assert cores[0].matroid.poly is cores[1].matroid.poly
        assert cores[0].polymatroid is cores[1].polymatroid
        assert set(inst._sums.values()) >= {cores[0].matroid.poly, cores[0].polymatroid}

    def test_round_case(self, monkeypatch):
        # guess 5, alpha 2: both scaled values (1/5, 2/5) fall below 1/alpha;
        # the unit split has scale 5, and the build rounds the highest level
        # every player reaches in it, lo = 7
        levels = []
        round_light = reductions._round_light

        def spy(light, copies, level, y, caps):
            levels.append(y)
            return round_light(light, copies, level, y, caps)

        monkeypatch.setattr(reductions, "_round_light", spy)
        inst = gen_random("santa-matroid", 3, m=3, n=3, u=1, w=2)
        red = reduce_to_core(inst, F(2), F(5), exact_cover_solver)
        assert red.case == "round"
        assert not levels
        validate_allocation(inst, red.alloc, require_basis=True)
        assert levels == [(7, 7, 7)]
        assert min(entity_totals(inst, red.alloc)) >= F(5, 2)

    def test_round_case_with_a_worthless_resource(self):
        # guess 16, alpha 8: scaled values 0 and 1/16; the worthless resource
        # has no unit copies and gets a zero fractional row
        inst = SantaInstance(2, [Item(value=F(v), polymatroid=ModularPoly(c))
                                 for v, c in ((0, [1, 1]), (1, [20, 20]), (1, [20, 20]))])
        red = reduce_to_core(inst, F(8), F(16), solve_cover)
        assert red.case == "round"
        validate_allocation(inst, red.alloc, require_basis=True)
        assert min(entity_totals(inst, red.alloc)) >= F(2)

    def test_round_case_with_no_players_is_rejected(self):
        # m = 0: split(E)/m reads 0, below every level
        inst = SantaInstance(0, [Item(value=F(1), polymatroid=ModularPoly([]))])
        with pytest.raises(GuessRejected):
            reduce_to_core(inst, F(8), F(16), solve_cover)

    def test_round_case_level_above_the_total_is_rejected_by_value(self, monkeypatch):
        # scale 16 > split(E)/m = 1: the value query rejects the guess, with
        # no membership asked, also past the enumeration cap (m = 3 > 2)
        asked = []
        monkeypatch.setattr(reductions, "member", lambda *args: asked.append(args))
        inst = SantaInstance(3, [Item(value=F(1), polymatroid=ModularPoly([1, 1, 1]))])
        with pytest.raises(GuessRejected):
            reduce_to_core(inst, F(8), F(16), solve_cover, DEFAULT_CAPS.override(sfm_ground=2))
        assert not asked

    @pytest.mark.parametrize("alpha, cases", [
        (F(8), {None, "one-each", "core-cover"}),
        (F(2), {None, "one-each", "core-cover", "round"})])
    def test_a_shared_instance_decides_as_a_fresh_one(self, alpha, cases):
        # the sums, induced matroids and cover outcomes that earlier guesses
        # keep on the instance change no decision: every grid guess on one
        # shared instance against the same guess on a freshly parsed copy
        def outcome(target, guess):
            try:
                red = reduce_to_core(target, alpha, guess, lambda c: solve_cover(c, F(1, 10)))
            except GuessRejected:
                return None
            return red.case, red.achieved

        seen = set()
        for seed in range(12):
            rng = random.Random(seed)
            inst = gen_random("santa-matroid", seed, m=rng.randint(3, 6), n=rng.randint(4, 6),
                              u=rng.choice([0, 1, 1]), w=3)
            data = serialize_instance(inst)
            for guess in santa_guess_grid(inst):
                got = outcome(inst, guess)
                assert got == outcome(parse_instance(data), guess), (seed, guess)
                seen.add(got and got[0])
        assert seen == cases

    def test_round_case_with_only_worthless_resources_is_rejected(self):
        inst = SantaInstance(2, [Item(value=F(0), polymatroid=ModularPoly(c))
                                 for c in ([1, 1], [20, 20], [20, 20])])
        with pytest.raises(GuessRejected):
            reduce_to_core(inst, F(8), F(16), solve_cover)

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_two_value_guarantee(self, seed):
        inst = gen_random("santa-matroid", seed, m=3, n=4, u=F(1), w=F(3))
        opt = brute_opt_santa(inst)
        if opt.value <= 0:
            return
        red = reduce_to_core(inst, F(4), opt.value, exact_cover_solver)
        vals = [sum(inst.resources[j].value * vec[e] for j, vec in enumerate(red.alloc))
                for e in range(3)]
        assert min(vals) >= opt.value / 4

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_general_flavor_guarantee(self, seed):
        rng = random.Random(seed)
        items = [Item(value=rng.choice([F(1), F(2), F(6)]),
                      polymatroid=ModularPoly([rng.randint(0, 2) for _ in range(3)]))
                 for _ in range(5)]
        inst = SantaInstance(3, items)
        if len({it.value for it in items}) < 3:
            return
        opt = brute_opt_santa(inst)
        if opt.value <= 0:
            return
        try:
            red = reduce_to_core(inst, F(4), opt.value, exact_cover_solver)
        except GuessRejected:
            return
        vals = [sum(inst.resources[j].value * vec[e] for j, vec in enumerate(red.alloc))
                for e in range(3)]
        assert min(vals) >= opt.value / 8  # guess/(2*alpha)

    def test_solver_plug_in_is_respected(self):
        inst = gen_random("santa-matroid", 7, m=3, n=4, u=F(1), w=F(3))
        opt = brute_opt_santa(inst)
        calls = []

        def spy(core):
            calls.append(core)
            return solve_cover(core)

        try:
            reduce_to_core(inst, F(8), opt.value, spy)
        except GuessRejected:
            pass
        # the middle case consults the plug-in; other cases may bypass it
        for core in calls:
            assert core.matroid.n == 3


def _santa_loop(inst, alpha):
    return guess_loop(lambda t: reduce_to_core(inst, alpha, t, lambda c: solve_cover(c, F(1, 10))),
                      santa_guess_grid(inst))


class TestLazyAllocation:
    """reduce_to_core accepts or rejects a guess; the allocation of an
    accepted guess is built once, on the first read of .alloc."""

    def test_a_guess_loop_splits_bases_for_the_returned_guess_only(self, monkeypatch):
        real = reductions.decompose_merged_basis
        split = []
        monkeypatch.setattr(reductions, "decompose_merged_basis",
                            lambda *a, **k: split.append(a[1]) or real(*a, **k))
        for seed in range(6):
            inst = gen_random("santa-matroid", seed, m=4, n=4, u=F(1), w=F(3))
            split.clear()
            best, sol = _santa_loop(inst, F(8))
            assert sol.case in ("one-each", "core-cover") and split == []
            validate_allocation(inst, sol.alloc, require_basis=True)
            assert split

    def test_reading_alloc_twice_builds_once(self, monkeypatch):
        real = reductions._alloc_from_cover
        calls = []
        monkeypatch.setattr(reductions, "_alloc_from_cover",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        inst = gen_random("santa-matroid", 7, m=6, n=4, u=F(1), w=F(3))
        red = reduce_to_core(inst, F(8), F(10), lambda c: solve_cover(c, F(1, 10)))
        assert red.case == "core-cover" and calls == []
        first = red.alloc
        built = len(calls)
        assert built and red.alloc is first and len(calls) == built

    @pytest.mark.parametrize("inst, alpha, guess, case", [
        (SantaInstance(2, [Item(value=F(1), polymatroid=ModularPoly([1, 1]))]), F(4), F(1),
         "one-each"),
        (SantaInstance(2, [Item(value=F(3), polymatroid=ModularPoly([1, 1])),
                           Item(value=F(1), polymatroid=ModularPoly([4, 4]))]), F(4), F(8),
         "core-cover"),
        (SantaInstance(3, [Item(value=F(v), polymatroid=ModularPoly(c))
                           for v, c in ((6, [1, 1, 1]), (2, [1, 1, 1]), (1, [2, 2, 2]))]),
         F(2), F(6), "heavy-light"),
    ], ids=["one-each", "core-cover", "heavy-light"])
    def test_a_contract_violation_of_the_build_surfaces_on_read(self, monkeypatch, inst,
                                                                 alpha, guess, case):
        def broken(*args, **kwargs):
            raise ContractViolation("cover demand exceeds the merged polymatroid")

        monkeypatch.setattr(reductions, "_alloc_from_cover", broken)
        red = reduce_to_core(inst, alpha, guess, exact_cover_solver)
        assert red.case == case
        for _ in range(2):   # a failed build is not cached
            with pytest.raises(ContractViolation, match="^cover demand exceeds"):
                red.alloc

    def test_the_bound_check_runs_on_read(self, monkeypatch):
        monkeypatch.setattr(reductions, "round_santa",
                            lambda inst, frac, caps: [tuple([0] * inst.num_players)]
                            * len(inst.resources))
        inst = gen_random("santa-matroid", 3, m=3, n=3, u=1, w=2)
        red = reduce_to_core(inst, F(2), F(5), exact_cover_solver)
        assert red.case == "round"
        with pytest.raises(ContractViolation, match="^translated value 0 below the bound 5/2$"):
            red.alloc

    @pytest.mark.parametrize("inst, alpha, guess, solver, why", [
        (SantaInstance(2, [Item(value=F(1), polymatroid=ModularPoly([1, 0]))]), F(4), F(1),
         exact_cover_solver, "^cover demand exceeds the merged polymatroid$"),
        (SantaInstance(2, [Item(value=F(3), polymatroid=ModularPoly([1, 1])),
                           Item(value=F(1), polymatroid=ModularPoly([4, 4]))]), F(4), F(8),
         lambda c: None, "^core cover solver found no cover"),
        (SantaInstance(2, [Item(value=F(0), polymatroid=ModularPoly([1, 1]))] * 2), F(8), F(16),
         exact_cover_solver, "^every resource is worthless"),
        (SantaInstance(2, [Item(value=F(v), polymatroid=ModularPoly([1, 1])) for v in (1, 2)]),
         F(2), F(100), exact_cover_solver, "^the unit-split polymatroid cannot reach"),
        (SantaInstance(2, [Item(value=F(v), polymatroid=ModularPoly([1, 1])) for v in (1, 2, 3)]),
         F(2), F(1000), exact_cover_solver, "^no heavy resources"),
        (SantaInstance(2, [Item(value=F(v), polymatroid=ModularPoly([1, 1])) for v in (1, 2, 6)]),
         F(4), F(6), lambda c: None, "^core cover solver found no cover"),
    ], ids=["one-each-membership", "core-cover-no-cover", "round-worthless", "round-level",
            "heavy-light-no-heavy", "heavy-light-no-cover"])
    def test_every_rejection_is_raised_by_reduce_to_core(self, monkeypatch, inst, alpha, guess,
                                                         solver, why):
        def never(*args, **kwargs):
            raise AssertionError("a rejected guess built an allocation")

        for name in ("_alloc_from_cover", "_round_light", "round_santa"):
            monkeypatch.setattr(reductions, name, never)
        with pytest.raises(GuessRejected, match=why):
            reduce_to_core(inst, alpha, guess, solver)

    def test_the_loops_allocation_is_the_one_a_fresh_instance_builds(self):
        draws = ([(gen_random("santa-matroid", s, m=4, n=4, u=F(1), w=F(3)), F(a))
                  for a, seeds in ((8, range(12)), (2, range(4))) for s in seeds]
                 + [(three_value_draw(s), F(4)) for s in range(4)])
        cases = set()
        for inst, alpha in draws:
            best, sol = _santa_loop(inst, alpha)
            fresh = instances.parse_instance(instances.serialize_instance(inst))
            again = reduce_to_core(fresh, alpha, best, lambda c: solve_cover(c, F(1, 10)))
            assert (again.case, again.achieved) == (sol.case, sol.achieved)
            assert sol.alloc == again.alloc
            cases.add(sol.case)
        assert cases == {"one-each", "core-cover", "round", "heavy-light"}


def fraction_decision(inst, alpha, guess, cover_solver):
    """reduce_to_core's decision on a guess as it was made in Fractions,
    from the values scaled by the guess: (case, cover level b or None,
    achieved) for an accepted guess, None for a rejected one."""
    m = inst.num_players
    scaled = [it.value / guess for it in inst.resources]
    polys = [it.polymatroid for it in inst.resources]
    values = sorted(set(scaled))

    def unit_split(idxs):
        scale = math.lcm(*(scaled[j].denominator for j in idxs))
        ints = [int(scaled[j] * scale) for j in idxs]
        return scale, [polys[j] for j, k in zip(idxs, ints) for _ in range(k)]

    def covered(heavy, light_sum, b):
        core = CoreCoverInstance(InducedMatroid(SumPoly([polys[j] for j in heavy])), light_sum, b)
        res = cover_solver(core)
        return res is not None and res.feasible

    zero = ModularPoly([0] * m)
    if len(values) > 2:
        heavy = [j for j, v in enumerate(scaled) if v >= 1 / (2 * alpha)]
        light = [j for j, v in enumerate(scaled) if v < 1 / (2 * alpha)]
        if not heavy:
            return None
        scale, copies = unit_split(light)
        b = math.ceil(scale / alpha)
        ok = covered(heavy, SumPoly(copies) if copies else zero, b)
        return ("heavy-light", b, guess / (2 * alpha)) if ok else None
    u, w = values[0], values[-1]
    if u >= 1 / alpha:
        ok = member(SumPoly(polys), [1] * m)
        return ("one-each", None, guess * u) if ok else None
    if w >= 1 / alpha:
        u_idx = [j for j, v in enumerate(scaled) if v == u and u > 0]
        b = 1 if u == 0 else math.ceil(1 / (alpha * u))
        ok = covered([j for j, v in enumerate(scaled) if v == w],
                     SumPoly([polys[j] for j in u_idx]) if u_idx else zero, b)
        return ("core-cover", b, guess / alpha) if ok else None
    scale, copies = unit_split(range(len(scaled)))
    if not copies:
        return None
    split = SumPoly(copies)
    ok = split.value(full_mask(m)) // max(m, 1) >= scale and member(split, [scale] * m)
    return ("round", None, guess / alpha) if ok else None


def dispatch_draws():
    """Two-value draws with fractional values, three-value (heavy-light)
    draws, and draws with worthless resources."""
    for seed in range(10):
        yield gen_random("santa-matroid", seed, m=3, n=4, u=F(1, 2), w=F(5, 3))
        yield gen_random("santa-matroid", seed, m=3, n=4, u=F(0), w=F(7, 5))
        rng = random.Random(seed)
        for values in ([F(0), F(1, 3), F(2), F(7, 2)], [F(1), F(2), F(6)]):
            yield SantaInstance(3, [Item(value=rng.choice(values),
                                         polymatroid=ModularPoly([rng.randint(0, 2)
                                                                  for _ in range(3)]))
                                    for _ in range(5)])


class TestIntegerDispatch:
    def test_dispatch_matches_the_fraction_decision(self):
        """Accept or reject, case, cover level and achieved bound agree with
        the Fraction decision at every grid guess and between them."""
        seen = set()
        for inst in dispatch_draws():
            grid = santa_guess_grid(inst)
            guesses = grid + [(a + b) / 2 for a, b in zip(grid, grid[1:])] + [F(1, 7)]
            for alpha in (F(1), F(2), F(17, 2)):
                for guess in guesses:
                    levels = []

                    def spy(core):
                        levels.append(core.b)
                        return exact_cover_solver(core)

                    want = fraction_decision(inst, alpha, guess, exact_cover_solver)
                    try:
                        red = reduce_to_core(inst, alpha, guess, spy)
                        got = (red.case, levels[0] if levels else None, red.achieved)
                    except GuessRejected:
                        got = None
                    assert got == want, (inst, alpha, guess)
                    seen.add(None if got is None else got[0])
        assert seen == {None, "one-each", "core-cover", "round", "heavy-light"}

    @pytest.mark.parametrize("alpha", [F(0), F(-1), F(1, 2)], ids=["zero", "negative", "half"])
    def test_alpha_below_one_is_refused(self, alpha):
        inst = gen_random("santa-matroid", 1, m=3, n=3, u=1, w=3)
        with pytest.raises(ValueError, match=re.escape(f"alpha must be at least 1, got {alpha}")):
            reduce_to_core(inst, alpha, F(2), exact_cover_solver)

    def test_classical_resources_are_refused(self):
        """An instance that mixes classical and matroid items is refused at
        construction, naming the first item of the other flavor; reduce_to_core
        dispatches by the value classes of matroid resources, and the two-value
        reduction by classical values."""
        with pytest.raises(ValueError, match="^item 1: a classical item among matroid items"):
            SantaInstance(2, [Item(value=F(1), polymatroid=ModularPoly([1, 1])),
                              Item(values=(F(1), F(1)))])
        with pytest.raises(ValueError, match="^item 2: a matroid item among classical items"):
            MakespanInstance(2, [Item(values=(F(1), None)), Item(values=(F(2), F(1))),
                                 Item(value=F(1), polymatroid=ModularPoly([1, 1]))])
        classical = gen_random("two-value-santa", 1, m=3, n=4, u=1, w=3)
        with pytest.raises(ValueError, match="expects a matroid-flavor instance"):
            reduce_to_core(classical, F(2), F(1), exact_cover_solver)
        matroid = gen_random("santa-matroid", 1, m=3, n=3, u=1, w=3)
        with pytest.raises(ValueError, match="applies to classical instances"):
            twovalue_santa_to_makespan(matroid, F(2), brute_makespan_solver)

    def test_alpha_one_still_solves(self):
        solved = 0
        for seed in range(6):
            inst = gen_random("santa-matroid", seed, m=3, n=3, u=1, w=3)
            best, sol = guess_loop(lambda t: reduce_to_core(inst, F(1), t, exact_cover_solver),
                                   santa_guess_grid(inst))
            if sol is None:
                continue
            validate_allocation(inst, sol.alloc, require_basis=True)
            assert min(entity_totals(inst, sol.alloc)) >= sol.achieved >= best / 2
            solved += 1
        assert solved >= 4


class TestGuessLoop:
    def test_threshold_contract(self):
        grid = [F(i) for i in range(1, 11)]
        best, sol = guess_loop(lambda t: "ok" if t <= 5 else None, grid)
        assert best == 5 and sol == "ok"

    def test_all_fail(self):
        assert guess_loop(lambda t: None, [F(1)]) == (None, None)

    def test_empty_grid(self):
        assert guess_loop(lambda t: "ok", []) == (None, None)

    def test_guess_rejected_treated_as_failure(self):
        def solver(t):
            if t > 2:
                raise GuessRejected("too high")
            return t

        best, sol = guess_loop(solver, [F(1), F(2), F(3)])
        assert best == 2

    def test_santa_grid(self):
        inst = SantaInstance(2, [Item(values=(F(1), F(2))), Item(values=(F(3), F(0)))])
        grid = santa_guess_grid(inst)
        assert F(4) in grid and F(2) in grid and F(0) not in grid
