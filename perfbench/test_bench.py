"""Desk-size tests of the benchmark: every workload against brute force.

Run from the repository root with `python3 -m pytest perfbench`. Sizes
here stay where brute force finishes (santa m <= 4, cores n <= 8); the
timed runs rely on the exact self-checks in workloads.py instead.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import spans
import workloads as wl


ROOT = Path(__file__).resolve().parent.parent
LIB = wl.Lib(ROOT)
SMALL = {
    "santa-pipeline": {"m": [3, 4]},
    "core-induced": {"players": [6, 7, 8]},
    "core-certify": {"n": [7, 8]},
    "classical-lp": {"santa": {"flavor": "restricted-santa", "m": 3, "n": 5},
                     "makespan": {"flavor": "restricted-makespan", "m": 3, "n": 5}},
}


@pytest.fixture
def lib():
    return LIB


@pytest.fixture
def small(monkeypatch):
    for name, override in SMALL.items():
        monkeypatch.setitem(wl.PARAMS, name, {**wl.PARAMS[name], **override})


def outputs(lib, workload, tmp_path, seed=7, count=24):
    """(instance, raw output, objective) for each corpus entry."""
    rows = []
    for k, (_, data) in enumerate(wl.make_corpus(lib, workload, seed, count)):
        arg = data
        if workload == "core-induced":
            src = tmp_path / f"{k}.json"
            src.write_bytes(data)
            arg = (str(src), str(tmp_path / f"{k}.out.json"))
        out = wl.OPS[workload](lib, arg)
        objective, _ = wl.CHECKS[workload](lib, data, out)
        rows.append((lib.instances.parse_instance(data), out, objective))
    return rows


def test_corpus_is_a_function_of_the_seed(lib):
    for name in wl.PARAMS:
        a = wl.make_corpus(lib, name, 3, count=4)
        assert a == wl.make_corpus(lib, name, 3, count=4)
        assert a != wl.make_corpus(lib, name, 4, count=4)


def test_santa_pipeline_against_brute_force(lib, small, tmp_path):
    for inst, out, value in outputs(lib, "santa-pipeline", tmp_path):
        opt = lib.oracle.brute_opt_santa(inst).value
        assert value <= opt
        assert (out["guess"] is None) == (opt == 0)
        assert value >= opt / wl.ALPHA


def test_core_induced_against_brute_force(lib, small, tmp_path):
    seen = set()
    for inst, out, _ in outputs(lib, "core-induced", tmp_path):
        res = out["result"]
        opt = lib.oracle.brute_max_cover_b(inst.matroid, inst.polymatroid)
        seen.add(res["outcome"])
        if res["outcome"] == "cover":
            assert res["b"] <= opt
        else:
            records, _ = wl.cli_certificates(lib, inst, res)
            for r in records:
                assert lib.localsearch.verify_certificate(
                    r.certificate, r.matroid, r.poly, exhaustive=True)["exhaustive_sound"]
    assert "cover" in seen


def test_core_certify_against_brute_force(lib, small, tmp_path):
    certified = 0
    for inst, out, reached in outputs(lib, "core-certify", tmp_path):
        opt = lib.oracle.brute_max_cover_b(inst.matroid, inst.polymatroid)
        assert reached <= opt <= (4 + 40 * wl.EPS) * max(reached, 1)
        for r in out["levels"][-1].certificates:
            assert lib.localsearch.verify_certificate(
                r.certificate, r.matroid, r.poly, exhaustive=True)["exhaustive_sound"]
            certified += 1
    assert certified


def test_classical_lp_against_brute_force(lib, small, tmp_path):
    for inst, out, objective in outputs(lib, "classical-lp", tmp_path):
        largest = max(v for it in inst.items for v in it.values if v is not None)
        if isinstance(inst, lib.instances.MakespanInstance):
            opt = lib.oracle.brute_opt_makespan(inst).value
            assert opt <= 1 / objective <= opt + largest
        else:
            opt = lib.oracle.brute_opt_santa(inst).value
            assert opt - largest <= objective <= opt


@pytest.mark.xfail(raises=LIB.limits.SizeCapError, strict=True,
                   reason="decomposition expansion 79 exceeds its cap of 64")
def test_known_failure_still_fails(lib):
    # when this passes, the defect is fixed: drop it from known_failures
    [(_, data)] = wl.known_failures(lib, "santa-pipeline")
    wl.op_santa_pipeline(lib, data)


def test_wrong_outputs_are_caught(lib, small, tmp_path):
    _, data = wl.make_corpus(lib, "santa-pipeline", 7, 1)[0]
    out = wl.op_santa_pipeline(lib, data)
    out["guess"] = out["guess"] * 100
    with pytest.raises(wl.CheckFailed):
        wl.check_santa_pipeline(lib, data, out)
    _, data = wl.make_corpus(lib, "core-certify", 7, 1)[0]
    out = wl.op_core_certify(lib, data)
    out["levels"][0].y = tuple(0 for _ in out["levels"][0].y)
    with pytest.raises(wl.CheckFailed):
        wl.check_core_certify(lib, data, out)


def test_tracer_rebinds_every_by_name_import(lib):
    tracer = spans.Tracer()
    originals = {name: getattr(lib.polymatroids, name) for name in ("member", "sfm_min")}
    tracer.install(lib)
    try:
        bound = tracer.bindings()
        expected = {
            "polymatroids.member": ["localsearch.member", "intersection.member",
                                    "oracle.member", "instances.member"],
            "polymatroids.greedy_basis": ["reductions.greedy_basis_above",
                                          "rounding.greedy_basis_above"],
            # instances imports it inside a function, from the rebound module
            "intersection.decompose_merged": ["reductions.decompose_merged_basis",
                                              "intersection.decompose_merged_basis"],
            "matching.bipartite_matching": ["matroids.max_bipartite_matching"],
            "simplex.feasible_point": ["rounding.feasible_point"],
            "localsearch.solve_cover": ["cli.solve_cover"],
            "localsearch.verify_certificate": ["cli.verify_certificate"],
        }
        for name, where in expected.items():
            assert set(where) <= set(bound[name]), name
        assert lib.localsearch.member is lib.intersection.member is not originals["member"]
    finally:
        tracer.uninstall()
    assert lib.localsearch.member is originals["member"]
    assert lib.polymatroids.sfm_min is originals["sfm_min"]


def declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}, [w["name"] for w in doc["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(small, monkeypatch, capsys, trace):
    metrics, names = declared("per_layer" if trace else "end_to_end")
    assert sorted(names) == sorted(wl.PARAMS)
    monkeypatch.chdir(ROOT)
    for name in names:
        assert run.main(["--workload", name, "--seed", "5", "--seconds", "0.05",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "core-certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_objective_gmean_is_exact_on_known_values():
    assert wl.gmean([Fraction(2), Fraction(8)]) == pytest.approx(4.0)
