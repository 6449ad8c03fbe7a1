"""matalloc benchmark: four seeded workloads, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload santa-pipeline --seed 1 --seconds 20 --trace 0

One client, one operation in flight, no threads. Set-up (import, corpus
generation from the seed, serialization, one warm-up operation) runs five
times and reports its median. The corpus holds about --seconds worth of
operations, each run once, in order; every output is checked exactly
outside the timed region and its digest is written out for diffing.
Times are wall seconds scaled to a reference speed (see Clock). --trace 1
instead traces a prefix of the corpus, times the same prefix untraced, and
prints the per-layer metrics. The last line of stdout is one JSON object;
the lines before it are for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads as wl

SETUP_REPEATS = 5
MIN_INSTANCES = 2
STOP_FACTOR = 4
# Median reference_kernel() time on the machine the benchmark was sized on
# (2 vCPU Intel Xeon, KVM guest, Python 3.11); times are reported at that speed.
REFERENCE_S = 0.003
OUT_DIR = ".perfbench_out"

# Per-layer metrics each workload must produce; a zero here is a broken
# benchmark or a broken layer, not a measurement.
EXPECTED = {
    "santa-pipeline": ["reductions.guess_steps", "reductions.reduce_to_core_self_s",
                       "localsearch.solve_cover_calls", "polymatroids.member_calls",
                       "polymatroids.sfm_min_calls", "polymatroids.sfm_min_s",
                       "polymatroids.greedy_basis_s", "intersection.decompose_calls",
                       "intersection.common_independent_calls"],
    "core-induced": ["matroids.rank_calls", "matroids.induced_rank_s",
                     "localsearch.solve_cover_calls", "localsearch.augment_calls",
                     "cli.solve_cover_s"],
    "core-certify": ["polymatroids.value_calls", "polymatroids.capped_marginal_calls",
                     "polymatroids.capped_marginal_s", "localsearch.recursion_nodes",
                     "localsearch.certificates", "localsearch.verify_certificate_s"],
    "classical-lp": ["simplex.feasible_point_calls", "simplex.feasible_point_s",
                     "simplex.lp_vars", "simplex.lp_rows", "rounding.assignment_lp_s",
                     "rounding.round_s", "rounding.lst_baseline_s"],
}
EXPECTED_EVERYWHERE = ["instances.parse_s", "trace.overhead_ratio"]


def reference_kernel() -> float:
    """Seconds for a fixed stdlib-only workload of the kind the library does
    (dict updates, bit counts, Fraction sums); independent of the library."""
    start = time.perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(2500):
        mask = (i * 2654435761) & 0xFFFF
        key = mask & 511
        table[key] = table.get(key, 0) + bin(mask).count("1")
        if i % 16 == 0:
            acc += Fraction(mask, 7 + key)
    return time.perf_counter() - start


class Clock:
    """Wall seconds scaled to the reference speed.

    The host's speed drifts by 15-25% over seconds (shared cores), and the
    drift is common to every Python workload: the reference kernel, run
    beside each timed region, tracks it. A timed region of `dt` wall seconds
    reports dt * REFERENCE_S / (mean kernel time just before and after it).
    """

    def __init__(self):
        self.last = reference_kernel()

    def scaled(self, dt: float) -> float:
        before, self.last = self.last, reference_kernel()
        return dt * REFERENCE_S / ((before + self.last) / 2)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root, self.workload, self.seed = root, workload, seed
        self.count = max(MIN_INSTANCES, round(seconds / wl.PARAMS[workload]["op_s"]))
        self.work = root / OUT_DIR / f"work-{os.getpid()}"

    def setup(self) -> float:
        """Import the library, build the corpus, run one warm-up operation."""
        start = time.perf_counter()
        self.lib = wl.Lib(self.root)
        self.corpus = (wl.make_corpus(self.lib, self.workload, self.seed, self.count)
                       + wl.known_failures(self.lib, self.workload))
        self.inputs = [self._input(k, data) for k, (_, data) in enumerate(self.corpus)]
        try:
            self.op(0)
        except Exception:
            pass  # the timed loop counts this instance's failure
        return time.perf_counter() - start

    def _input(self, k: int, data: bytes):
        if self.workload != "core-induced":
            return data
        self.work.mkdir(parents=True, exist_ok=True)
        path = self.work / f"{k}.json"
        path.write_bytes(data)
        return str(path), str(self.work / f"{k}.out.json")

    def op(self, k: int):
        return wl.OPS[self.workload](self.lib, self.inputs[k])

    def check(self, k: int, out) -> tuple[Fraction, str]:
        objective, record = wl.CHECKS[self.workload](self.lib, self.corpus[k][1], out)
        return objective, wl.digest(record)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Tally:
    """Outcomes of the operations of one loop."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.times: list[float] = []   # scaled seconds of each verified operation
        self.timed = 0.0               # wall seconds of every attempted operation
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.wrong = 0
        self.digests: dict[int, str] = {}
        self.objectives: list[Fraction] = []

    def record(self, bench: Bench, i: int, run) -> None:
        gc.collect()
        start = time.perf_counter()
        try:
            out = run()
        except Exception as exc:
            self.timed += time.perf_counter() - start
            self._fail(f"{type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - start
        self.timed += dt
        scaled = self.clock.scaled(dt)
        try:
            objective, self.digests[i] = bench.check(i, out)
        except wl.CheckFailed as exc:
            self.wrong += 1
            self._fail(f"wrong output on instance {i}: {exc}")
            return
        self.objectives.append(objective)
        self.times.append(scaled)

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1

    @property
    def attempted(self) -> int:
        return self.failed + len(self.times)


def timed_loop(bench: Bench, clock: Clock, seconds: float) -> Tally:
    """Each corpus entry once, in order; a run slower than STOP_FACTOR times
    its length stops early so that it still ends in time."""
    tally = Tally(clock)
    for k in range(len(bench.corpus)):
        if tally.timed > STOP_FACTOR * seconds:
            print(f"stopped after {k} of {len(bench.corpus)} operations", file=sys.stderr)
            break
        tally.record(bench, k, lambda: bench.op(k))
    return tally


def traced_loop(bench: Bench, seconds: float, clock: Clock
                ) -> tuple[spans.Tracer, Tally, Tally]:
    """Trace a prefix of the corpus worth about half the run, then time the
    same prefix untraced; their ratio is the tracing overhead."""
    tracer = spans.Tracer()
    traced = Tally(clock)
    k = 0
    while k < len(bench.corpus) and (k < MIN_INSTANCES or traced.timed < seconds / 2):
        def run():
            tracer.begin_op()
            tracer.install(bench.lib)
            try:
                return bench.op(k)
            finally:
                tracer.uninstall()
        traced.record(bench, k, run)
        k += 1
    plain = Tally(clock)
    for j in range(k):
        plain.record(bench, j, lambda: bench.op(j))
    return tracer, traced, plain


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, list[str]]:
    lat = sorted(tally.times)
    n = len(lat)
    beyond = min(10, n // 2)
    note = (f"solve_s_tail is p{100 * (n - beyond) / n:.1f} of {n} verified operations "
            f"({beyond} beyond it)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s_p50": (statistics.median(lat), "s"),
        "solve_s_tail": (lat[n - 1 - beyond], "s"),
        "solves_per_s": (n / sum(lat), "1/s"),
        "verified_share": (n / tally.attempted, "ratio"),
        "objective_gmean": (wl.gmean(v for v in tally.objectives if v > 0), "objective"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, [note]


def per_layer(tracer: spans.Tracer, traced: Tally, plain: Tally) -> dict:
    ops = tracer.ops
    self_s = tracer.self_times()
    calls: dict[str, int] = {}
    for span in tracer.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    c = tracer.counts

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def sec(name):
        return per_op(self_s.get(name, 0.0)), "s/op"

    def cnt(value):
        return per_op(value), "calls/op"

    def num(value):
        return per_op(value), "count/op"

    lp_calls = calls.get("simplex.feasible_point", 0)
    return {
        "instances.parse_s": sec("instances.parse"),
        "reductions.guess_steps": cnt(calls.get("reductions.reduce_to_core", 0)),
        "reductions.guess_accept_ratio": (ratio(c["reductions.guess_accepted"],
                                                calls.get("reductions.reduce_to_core", 0)),
                                          "ratio"),
        "reductions.reduce_to_core_self_s": sec("reductions.reduce_to_core"),
        "localsearch.solve_cover_s": sec("localsearch.solve_cover"),
        "localsearch.solve_cover_calls": cnt(calls.get("localsearch.solve_cover", 0)),
        "localsearch.augment_calls": cnt(c["localsearch.augment_calls"]),
        "localsearch.augment_s": sec("localsearch.augment"),
        "localsearch.recursion_nodes": num(c["localsearch.recursion_nodes"]),
        "localsearch.restarts": num(c["localsearch.restarts"]),
        "localsearch.certificates": num(c["localsearch.certificates"]),
        "localsearch.oracle_queries": num(c["localsearch.oracle_queries"]),
        "localsearch.build_addable_s": sec("localsearch.build_addable"),
        "localsearch.compute_blocking_s": sec("localsearch.compute_blocking"),
        "localsearch.verify_certificate_s": sec("localsearch.verify_certificate"),
        "matroids.rank_calls": cnt(c["matroids.rank"]),
        "matroids.is_independent_calls": cnt(c["matroids.is_independent"]),
        "matroids.induced_rank_calls": cnt(calls.get("matroids.induced_rank", 0)),
        "matroids.induced_rank_s": sec("matroids.induced_rank"),
        "polymatroids.value_calls": cnt(c["polymatroids.value"]),
        "polymatroids.capped_marginal_calls": cnt(calls.get("polymatroids.capped_marginal", 0)),
        "polymatroids.capped_marginal_s": sec("polymatroids.capped_marginal"),
        "polymatroids.member_calls": cnt(calls.get("polymatroids.member", 0)),
        "polymatroids.member_s": sec("polymatroids.member"),
        "polymatroids.sfm_min_calls": cnt(calls.get("polymatroids.sfm_min", 0)),
        "polymatroids.sfm_min_s": sec("polymatroids.sfm_min"),
        "polymatroids.sfm_subsets": (per_op(c["polymatroids.sfm_subsets"]), "subsets/op"),
        "polymatroids.greedy_basis_s": sec("polymatroids.greedy_basis"),
        "intersection.decompose_calls": cnt(calls.get("intersection.decompose", 0)),
        "intersection.decompose_s": (per_op(self_s.get("intersection.decompose", 0.0)
                                            + self_s.get("intersection.decompose_merged", 0.0)),
                                     "s/op"),
        "intersection.common_independent_calls":
            cnt(calls.get("intersection.common_independent", 0)),
        "intersection.common_independent_s": sec("intersection.common_independent"),
        "simplex.feasible_point_calls": cnt(lp_calls),
        "simplex.feasible_point_s": sec("simplex.feasible_point"),
        "simplex.lp_vars": (ratio(c["simplex.lp_vars"], lp_calls), "vars/lp"),
        "simplex.lp_rows": (ratio(c["simplex.lp_rows"], lp_calls), "rows/lp"),
        "rounding.assignment_lp_s": sec("rounding.assignment_lp"),
        "rounding.lp_feasible_ratio": (ratio(c["rounding.lp_feasible"],
                                             calls.get("rounding.assignment_lp", 0)), "ratio"),
        "rounding.round_s": sec("rounding.round"),
        "rounding.lst_baseline_s": sec("rounding.lst_baseline"),
        "matching.bipartite_matching_calls": cnt(calls.get("matching.bipartite_matching", 0)),
        "matching.bipartite_matching_s": sec("matching.bipartite_matching"),
        "cli.solve_cover_s": (per_op(tracer.cli_overhead()), "s/op"),
        "trace.op_s": (sum(traced.times) / len(traced.times), "s/op"),
        "trace.overhead_ratio": (sum(traced.times) / sum(plain.times), "ratio"),
    }


def self_time_table(tracer: spans.Tracer, traced: Tally) -> list[str]:
    self_s = tracer.self_times()
    wall = traced.timed
    rows = sorted(self_s.items(), key=lambda kv: -kv[1])
    lines = [f"self time over {tracer.ops} traced operations ({wall:.3f} s traced wall):"]
    lines += [f"  {name:36s} {secs:10.4f} s  {100 * secs / wall:5.1f}%" for name, secs in rows]
    glue = wall - sum(self_s.values())
    lines.append(f"  {'(outside traced functions)':36s} {glue:10.4f} s  {100 * glue / wall:5.1f}%")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    bench = Bench(root, args.workload, args.seed, args.seconds)
    clock = Clock()
    try:
        setups = [clock.scaled(bench.setup()) for _ in range(SETUP_REPEATS)]
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            tracer, main_tally, plain = traced_loop(bench, args.seconds, clock)
            metrics = per_layer(tracer, main_tally, plain)
            lines = self_time_table(tracer, main_tally)
            missing = [name for name in EXPECTED[args.workload] + EXPECTED_EVERYWHERE
                       if not metrics[name][0]]
            tracer.write(root / OUT_DIR / f"trace-{args.workload}-s{args.seed}.json.gz")
            if missing:
                print(f"error: expected layer metrics read zero: {missing}", file=sys.stderr)
                return 3
        else:
            main_tally = timed_loop(bench, clock, args.seconds)
            if not main_tally.times:
                print("error: no operation was verified", file=sys.stderr)
                return 3
            metrics, lines = end_to_end(main_tally, statistics.median(setups))
    finally:
        bench.cleanup()
    digest_path = root / OUT_DIR / f"digests-{args.workload}-s{args.seed}-t{args.trace}.json"
    digest_path.parent.mkdir(exist_ok=True)
    digest_path.write_text(json.dumps({str(k): v for k, v in sorted(main_tally.digests.items())},
                                      indent=0) + "\n")
    lines.append(f"setup runs: {' '.join(f'{s:.4f}' for s in setups)} s")
    lines.append(f"output digest of {len(main_tally.digests)} instances: "
                 f"{wl.digest(main_tally.digests)} ({digest_path.relative_to(root)})")
    lines += [f"failed x{n}: {what}" for what, n in sorted(main_tally.failures.items())]
    for line in lines:
        print(line)
    result = {"correct": main_tally.wrong == 0, "attempted": main_tally.attempted,
              "failed": main_tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
