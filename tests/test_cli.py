"""CLI: exit codes, determinism, and the documented subcommand surfaces."""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import matalloc
import matalloc.cli as cli
from matalloc import instances, matroids
from matalloc.cli import main
from matalloc.instances import (MAX_INDEX, gen_random, matroid_from_json, parse_instance,
                                poly_from_json, serialize_instance)
from matalloc.limits import InternalInvariantError, SchemaError
from matalloc.matroids import PartitionMatroid
from matalloc.oracle import brute_opt_makespan
from matalloc.polymatroids import MAX_SCALE, member


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_solve_cover_success(tmp_path, capsys):
    gap = tmp_path / "gap2.json"
    assert main(["gen", "--flavor", "gap", "--m", "2", "--out", str(gap)]) == 0
    code, out = run(capsys, "solve-cover", "--in", str(gap), "--b", "1", "--eps", "1/10")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "cover" and len(doc["I_M"]) == 1


def test_solve_cover_infeasible_exit_two(tmp_path, capsys):
    gap = tmp_path / "gap2.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(gap)])
    code, out = run(capsys, "solve-cover", "--in", str(gap), "--b", "2", "--eps", "1/10")
    assert code == 2
    doc = json.loads(out)
    assert doc["outcome"] == "infeasible"
    assert doc["certificates"][0]["report"]["ok"]


def test_gen_verify_roundtrip(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "--flavor", "gap", "--m", "3", "--out", str(g)])
    code, out = run(capsys, "verify", "--in", str(g))
    assert code == 0 and json.loads(out)["ok"]


def test_byte_identical_outputs(tmp_path, capsys):
    inst = tmp_path / "i.json"
    main(["gen", "--flavor", "core-cover", "--m", "4", "--seed", "7", "--out", str(inst)])
    _, out1 = run(capsys, "solve-cover", "--in", str(inst), "--b", "1")
    _, out2 = run(capsys, "solve-cover", "--in", str(inst), "--b", "1")
    assert out1 == out2
    again = tmp_path / "i2.json"
    main(["gen", "--flavor", "core-cover", "--m", "4", "--seed", "7", "--out", str(again)])
    assert inst.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("m, seed", [(40, 3), (64, 1)])
def test_solve_cover_past_the_ground_cap(tmp_path, capsys, m, seed):
    """These covers' polymatroids have partition forms, so a count of a
    large support enumerates no subsets and the ground cap (24) does not
    bind, however many elements the support holds."""
    inst = tmp_path / "big.json"
    assert main(["gen", "--flavor", "core-cover", "--m", str(m), "--seed", str(seed),
                 "--out", str(inst)]) == 0
    code, out = run(capsys, "solve-cover", "--in", str(inst), "--b", "1")
    assert code == 0
    doc, core = json.loads(out), parse_instance(inst.read_bytes())
    assert doc["outcome"] == "cover"
    im = sum(1 << e for e in doc["I_M"])
    assert core.matroid.is_independent(im)
    assert member(core.polymatroid, doc["y"])
    assert all((im >> e) & 1 or doc["y"][e] >= 1 for e in range(m))


def test_reduce_subcommand(tmp_path, capsys):
    inst = tmp_path / "tv.json"
    main(["gen", "--flavor", "two-value-makespan", "--m", "2", "--n", "3",
          "--u", "1/4", "--w", "2/3", "--seed", "3", "--out", str(inst)])
    code, out = run(capsys, "reduce", "--in", str(inst), "--kind",
                    "twovalue-makespan-to-santa")
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["type"] == "santa" and "t" in doc


_REDUCE_EXPECTS = {"config-round": "santa", "santa-to-makespan": "santa",
                   "twovalue-makespan-to-santa": "makespan",
                   "matroid-makespan-to-santa": "makespan", "matroid-santa-to-makespan": "santa"}
_FLAVOR_OF = {"santa": "two-value-santa", "makespan": "two-value-makespan",
              "core-cover": "core-cover"}


@pytest.mark.parametrize("kind, given", [
    (kind, given) for kind, want in _REDUCE_EXPECTS.items()
    for given in ("santa", "makespan", "core-cover") if given != want])
def test_reduce_wrong_instance_type_exit_one(tmp_path, capsys, kind, given):
    inst = tmp_path / "inst.json"
    main(["gen", "--flavor", _FLAVOR_OF[given], "--m", "2", "--n", "3", "--out", str(inst)])
    code = main(["reduce", "--in", str(inst), "--kind", kind])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: reduce --kind {kind} expects a {_REDUCE_EXPECTS[kind]} instance\n")


def test_round_subcommand(tmp_path, capsys):
    inst = tmp_path / "santa.json"
    body = {"type": "santa", "players": 2,
            "items": [{"values": [{"num": 1, "den": 1}, {"num": 1, "den": 1}]},
                      {"values": [{"num": 1, "den": 1}, {"num": 1, "den": 1}]}]}
    inst.write_text(json.dumps(body))
    frac = tmp_path / "frac.json"
    frac.write_text(json.dumps({
        "T": {"num": 1, "den": 1},
        "x": [[{"num": 1, "den": 2}, {"num": 1, "den": 2}],
              [{"num": 1, "den": 2}, {"num": 1, "den": 2}]]}))
    code, out = run(capsys, "round", "--in", str(inst), "--frac", str(frac))
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(sum, doc["assign"])) == [1, 1]


def test_round_a_point_that_is_no_lp_vertex(capsys):
    """tests/corpus/round/ keeps a restricted santa draw (seed 454, m = 4,
    n = 10) and an unrelated one (seed 16, m = 4, n = 12), each with random
    rows summing to 1 over positive-value players, at T the least player
    value: every LP-feasible point rounds, vertex or not. The unrelated
    point has 21 positive entries, more than its 16 LP rows, so it is no
    vertex."""
    corpus = Path(__file__).parent / "corpus" / "round"
    for name in ("restricted-santa-s454", "unrelated-santa-s16"):
        code, out = run(capsys, "round", "--in", str(corpus / f"{name}.json"),
                        "--frac", str(corpus / f"{name}-frac.json"))
        assert code == 0, name
        inst = parse_instance((corpus / f"{name}.json").read_bytes())
        instances.validate_allocation(inst, [tuple(v) for v in json.loads(out)["assign"]])


def _round_with_frac(tmp_path, frac_doc) -> int:
    inst = tmp_path / "santa.json"
    main(["gen", "--flavor", "unrelated-santa", "--m", "2", "--n", "2", "--out", str(inst)])
    frac = tmp_path / "frac.json"
    frac.write_text(json.dumps(frac_doc))
    return main(["round", "--in", str(inst), "--frac", str(frac)])


def test_round_mass_on_an_infinite_machine_exit_one(tmp_path, capsys):
    inst = tmp_path / "makespan.json"
    inst.write_text(json.dumps({"type": "makespan", "machines": 2,
                                "items": [{"values": [1, None]}]}))
    frac = tmp_path / "frac.json"
    half = {"num": 1, "den": 2}
    frac.write_text(json.dumps({"T": 1, "x": [[half, half]]}))
    assert main(["round", "--in", str(inst), "--frac", str(frac)]) == 1
    assert capsys.readouterr().err == (
        "error: fractional assignment: item 0: placed on a machine with infinite size\n")


def test_round_frac_without_threshold_exit_one(tmp_path, capsys):
    assert _round_with_frac(tmp_path, {"x": [[1, 0], [0, 1]]}) == 1
    assert "frac.T" in capsys.readouterr().err


def test_round_frac_that_is_not_json_exit_one(tmp_path, capsys):
    inst = tmp_path / "santa.json"
    main(["gen", "--flavor", "unrelated-santa", "--m", "2", "--n", "2", "--out", str(inst)])
    frac = tmp_path / "frac.json"
    frac.write_text("T = 1\n")
    assert main(["round", "--in", str(inst), "--frac", str(frac)]) == 1
    assert capsys.readouterr().err == (
        "error: --frac: not valid JSON: Expecting value: line 1 column 1 (char 0)\n")


def test_round_rational_without_den_exit_one(tmp_path, capsys):
    doc = {"T": 1, "x": [[{"num": 1}, 0], [0, 1]]}
    assert _round_with_frac(tmp_path, doc) == 1
    assert "frac.x[0][0]" in capsys.readouterr().err


_SANTA_FRAC = {"T": 1, "x": [[1, 0], [0, 1]]}
_REFUSALS = [
    ("solve-cover", "unrelated-santa", None, "solve-cover expects a core-cover instance"),
    ("round", "core-cover", _SANTA_FRAC, "round expects a santa or makespan instance"),
    ("round", "unrelated-santa", [1], "frac: expected an object"),
    ("round", "unrelated-santa", 5, "frac: expected an object"),
    ("round", "unrelated-santa", {"T": 1, "x": [[1, 0]]}, "frac.x: expected one row per item"),
    ("round", "unrelated-santa", {"T": 1, "x": [[1, 0], [0]]},
     "frac.x[1]: expected one entry per entity"),
    ("round", "unrelated-santa", {"T": 1, "x": [[1, None], [0, 1]]},
     "frac.x[0][1]: expected a rational"),
    ("round", "unrelated-santa", {"T": None, "x": [[1, 0], [0, 1]]},
     "frac.T: expected a rational"),
]


@pytest.mark.parametrize("command, flavor, frac_doc, message", _REFUSALS,
                         ids=[message for *_, message in _REFUSALS])
def test_refusals_name_the_field_and_exit_one(tmp_path, capsys, command, flavor, frac_doc,
                                              message):
    inst = tmp_path / "inst.json"
    main(["gen", "--flavor", flavor, "--m", "2", "--n", "2", "--out", str(inst)])
    argv = [command, "--in", str(inst)]
    if frac_doc is not None:
        frac = tmp_path / "frac.json"
        frac.write_text(json.dumps(frac_doc))
        argv += ["--frac", str(frac)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("raw", ['{"sfm_ground": "x"}', "5"])
def test_malformed_caps_env_exit_one(tmp_path, capsys, monkeypatch, raw):
    g = tmp_path / "g.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(g)])
    monkeypatch.setenv("MATROID_ALLOC_CAPS", raw)
    assert main(["verify", "--in", str(g)]) == 1
    assert "MATROID_ALLOC_CAPS" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env, named", [
    (["--cap-ground", "-1"], None, "--cap-ground"),
    (["--cap-enum", "-1"], None, "--cap-enum"),
    ([], '{"sfm_ground": -1}', "MATROID_ALLOC_CAPS.sfm_ground"),
    ([], '{"basis_enum": -1}', "MATROID_ALLOC_CAPS.basis_enum")],
    ids=["flag-ground", "flag-enum", "env-ground", "env-enum"])
def test_negative_caps_exit_one(tmp_path, capsys, monkeypatch, argv, env, named):
    g = tmp_path / "g.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(g)])
    if env is not None:
        monkeypatch.setenv("MATROID_ALLOC_CAPS", env)
    assert main(["verify", "--in", str(g), *argv]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag, env", [("--cap-ground", '{"sfm_ground": 0}'),
                                       ("--cap-enum", '{"basis_enum": 0, "assignments": 0}')],
                         ids=["ground", "enum"])
def test_zero_cap_flags_bind_like_the_environment(tmp_path, capsys, monkeypatch, flag, env):
    main(["gen", "--flavor", "gap", "--m", "3", "--out", str(tmp_path / "g.json")])
    main(["gen", "--flavor", "santa-matroid", "--m", "3", "--n", "3", "--seed", "1",
          "--out", str(tmp_path / "sm.json")])
    code, by_flag = run(capsys, "bench", "--dir", str(tmp_path), flag, "0")
    assert code == 0 and any("skipped" in row for row in json.loads(by_flag))
    monkeypatch.setenv("MATROID_ALLOC_CAPS", env)
    assert run(capsys, "bench", "--dir", str(tmp_path)) == (code, by_flag)


def test_bench_cap_enum_reaches_matroid_brute_force(tmp_path, capsys):
    main(["gen", "--flavor", "santa-matroid", "--m", "3", "--n", "3", "--seed", "1",
          "--out", str(tmp_path / "sm.json")])
    code, out = run(capsys, "bench", "--dir", str(tmp_path), "--cap-enum", "1")
    assert code == 0
    assert "skipped" in json.loads(out)[0]


def test_bench_directory(tmp_path, capsys):
    for m in (2, 3):
        main(["gen", "--flavor", "gap", "--m", str(m),
              "--out", str(tmp_path / f"gap{m}.json")])
    code, out = run(capsys, "bench", "--dir", str(tmp_path))
    assert code == 0
    rows = json.loads(out)
    data_rows = [r for r in rows if r["file"] != "WORST"]
    assert len(data_rows) == 2
    assert all(r["node_bound_ok"] for r in data_rows)
    assert all(r["brute_b"] == 1 and r["algo_b"] == 1 for r in data_rows)


def test_bench_reports_a_makespan_optimum(tmp_path, capsys):
    path = tmp_path / "mk.json"
    main(["gen", "--flavor", "restricted-makespan", "--m", "2", "--n", "3", "--seed", "1",
          "--out", str(path)])
    opt = brute_opt_makespan(parse_instance(path.read_bytes())).value
    code, out = run(capsys, "bench", "--dir", str(tmp_path))
    assert code == 0 and json.loads(out) == [{"file": "mk.json", "brute_opt": str(opt)}]


def test_bench_empty_directory(tmp_path, capsys):
    code, out = run(capsys, "bench", "--dir", str(tmp_path))
    assert code == 0 and json.loads(out) == []


@pytest.mark.parametrize("where", ["missing", "file"])
def test_bench_refuses_a_dir_that_is_not_a_directory(tmp_path, capsys, where):
    path = tmp_path / "corpus"
    if where == "file":
        path.write_text("{}")
    code = main(["bench", "--dir", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: --dir: {path} is not a directory\n"


def test_bench_names_the_malformed_file(tmp_path, capsys):
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(tmp_path / "a.json")])
    (tmp_path / "b.json").write_text('{"type": "nope"}')
    code = main(["bench", "--dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: b.json: type: unknown instance type 'nope'\n"


def test_bench_skips_oversized(tmp_path, capsys, monkeypatch):
    main(["gen", "--flavor", "gap", "--m", "3", "--out", str(tmp_path / "g.json")])
    monkeypatch.setenv("MATROID_ALLOC_CAPS", '{"sfm_ground": 2}')
    code, out = run(capsys, "bench", "--dir", str(tmp_path))
    assert code == 0
    rows = json.loads(out)
    assert "skipped" in rows[0]


def test_bench_skips_a_basis_enumeration_over_the_ground_cap(tmp_path, capsys):
    doc = {"type": "santa-matroid", "players": 25,
           "items": [{"polymatroid": {"kind": "modular", "weights": [1] * 25},
                      "value": {"num": 1, "den": 1}}]}
    (tmp_path / "wide.json").write_text(json.dumps(doc))
    code, out = run(capsys, "bench", "--dir", str(tmp_path))
    assert code == 0
    assert json.loads(out) == [{"file": "wide.json",
                                "skipped": "cap: basis enumeration over 25 elements exceeds cap 24"}]


def test_usage_error_exit_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["solve-cover", "--in", str(missing), "--b", "1"])
    assert code == 1


def test_schema_error_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "santa", "items": []}')
    assert main(["verify", "--in", str(bad)]) == 1


def _core_cover(tmp_path, matroid, polymatroid):
    path = tmp_path / "core.json"
    path.write_text(json.dumps({"type": "core-cover", "b": 1,
                                "matroid": matroid, "polymatroid": polymatroid}))
    return path


@pytest.mark.parametrize("matroid, polymatroid, field", [
    ({"kind": "uniform", "n": 3, "rank": 1},
     {"kind": "coverage", "sets": [[0], [1], [5]], "weights": [1, 1]}, "items 0..1"),
    ({"kind": "uniform", "n": 3, "rank": 1},
     {"kind": "modular", "weights": [1.5, 1, 2]}, "integers"),
    ({"kind": "uniform", "n": 3, "rank": -1},
     {"kind": "modular", "weights": [1, 1, 2]}, "uniform rank -1"),
    ({"kind": "uniform", "n": 3, "rank": 1},
     {"kind": "scaled-rank", "matroid": {"kind": "uniform", "n": 3, "rank": 2}, "scale": 1.5},
     "scale must be integers"),
    ({"kind": "partition", "n": 3, "blocks": [[0], [1, 2]], "caps": [0.5, 1]},
     {"kind": "modular", "weights": [1, 1, 2]}, "partition caps must be integers"),
    ({"kind": "partition", "n": 3, "blocks": [[0], [1, 2]], "caps": [1, -1]},
     {"kind": "modular", "weights": [1, 1, 2]}, "partition caps must be nonnegative"),
    ({"kind": "partition", "n": 3, "blocks": [[0], [1, 2]], "caps": [True, 1]},
     {"kind": "modular", "weights": [1, 1, 2]}, "partition caps must be integers"),
    ({"kind": "uniform", "n": 3, "rank": 1},
     {"kind": "capped", "inner": {"kind": "modular", "weights": [1, 1, 2]},
      "caps": [None, 1.5, 1]}, "caps must be integers"),
    ({"kind": "uniform", "n": 3, "rank": 1},
     {"kind": "dual", "inner": {"kind": "modular", "weights": [1, 1, 2]}, "z": [1, 2.5, 2]},
     "dominating vector entries must be integers"),
    ({"kind": "graphic", "vertices": 3, "edges": [[0.5, 1], [1, 2], [0, 2]]},
     {"kind": "modular", "weights": [1, 1, 2]}, "graphic edge endpoints must be integers"),
    ({"kind": "graphic", "vertices": 2.5, "edges": [[0, 1], [1, 2], [0, 2]]},
     {"kind": "modular", "weights": [1, 1, 2]}, "graphic vertices must be integers"),
    ({"kind": "transversal", "num_right": 2, "adjacency": [[0], [1], [0, 2]]},
     {"kind": "modular", "weights": [1, 1, 2]}, "right vertices 0..1"),
    ({"kind": "transversal", "num_right": -1, "adjacency": [[], [], []]},
     {"kind": "modular", "weights": [1, 1, 2]}, "num_right must be nonnegative"),
    ({"kind": "transversal", "num_right": 1.5, "adjacency": [[0], [0], [0]]},
     {"kind": "modular", "weights": [1, 1, 2]}, "num_right must be integers"),
    ({"kind": "uniform", "n": 3.0, "rank": 1},
     {"kind": "modular", "weights": [1, 1, 2]}, "ground set size must be integers"),
    ({"kind": "uniform", "n": 3, "rank": 1.5},
     {"kind": "modular", "weights": [1, 1, 2]}, "uniform rank must be integers"),
    ({"kind": "uniform", "n": 3, "rank": 1},
     {"kind": "scaled-rank", "scale": 1, "matroid": {"kind": "partition", "n": 10**30,
                                                     "blocks": [[0], [1, 2]], "caps": [1, 1]}},
     "error: polymatroid.matroid: bad partition matroid"),
    ({"kind": "uniform", "n": 3, "rank": 1},
     {"kind": "contracted", "inner": {"kind": "modular", "weights": [2, 2, 2]},
      "base": [0.5, 1, 0]}, "contracted base entries must be integers"),
    ({"kind": "uniform", "n": 3, "rank": 1},
     {"kind": "contracted", "inner": {"kind": "modular", "weights": [2, 2, 2]},
      "base": [True, 1, 0]}, "contracted base entries must be integers"),
    ({"kind": "transversal", "n": 3.5, "num_right": 2, "adjacency": [[0], [1], [0, 1]]},
     {"kind": "modular", "weights": [1, 1, 2]}, "matroid.n: must be the number of adjacency rows"),
], ids=["coverage-item-out-of-range", "modular-float-weight", "uniform-negative-rank",
        "scaled-rank-float-scale", "partition-float-cap", "partition-negative-cap",
        "partition-bool-cap", "capped-float-cap", "dual-float-z", "graphic-float-endpoint",
        "graphic-float-vertices", "transversal-right-out-of-range",
        "transversal-negative-num-right", "transversal-float-num-right", "uniform-float-n",
        "uniform-float-rank", "nested-partition-huge-n", "contracted-float-base",
        "contracted-bool-base", "transversal-float-n"])
def test_malformed_oracle_data_exit_one(tmp_path, capsys, matroid, polymatroid, field):
    path = _core_cover(tmp_path, matroid, polymatroid)
    assert main(["solve-cover", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


_MODULAR_3 = {"kind": "modular", "weights": [1, 1, 2]}


@pytest.mark.parametrize("matroid", [
    lambda v: {"kind": "graphic", "vertices": v, "edges": [[0, 1], [1, 2], [0, 2]]},
    lambda v: {"kind": "transversal", "num_right": v, "adjacency": [[0], [1], [0, 2]]},
], ids=["graphic-vertices", "transversal-num-right"])
def test_a_huge_size_field_solves_as_a_small_one(tmp_path, capsys, matroid):
    """Ranks size their work by the vertices the edges and adjacency name,
    not by the declared count, which may be far larger than any list."""
    outs = []
    for v in (3, 10**30):
        path = _core_cover(tmp_path, matroid(v), _MODULAR_3)
        assert main(["solve-cover", "--in", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def _scaled_rank(scale):
    return {"kind": "scaled-rank", "scale": scale, "matroid": {"kind": "uniform", "n": 6, "rank": 3}}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_capped(*argv, stdin=None):
    """Run python with argv in a child process with 1 GiB of address space."""
    env = dict(os.environ, PYTHONPATH=str(Path(matalloc.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, text=True,
                          env=env, timeout=120, preexec_fn=_cap_address_space)


@pytest.mark.parametrize("scale", [10**9, 10**30])
def test_a_huge_scale_is_a_schema_error(tmp_path, scale):
    """A scaled-rank part lists one matroid copy per unit of scale, so a
    scale beyond MAX_SCALE is refused by its field path. The run is a child
    process with 1 GiB of address space: should the refusal go, it fails
    with a MemoryError or an OverflowError rather than taking gigabytes.
    (This instance's solve counts a vector by matroid partition.)"""
    path = _core_cover(tmp_path, {"kind": "uniform", "n": 6, "rank": 2}, _scaled_rank(scale))
    proc = _run_capped("-m", "matalloc.cli", "solve-cover", "--in", str(path))
    assert proc.returncode == 1 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert f"error: polymatroid.scale: scale must be at most {MAX_SCALE}" in proc.stderr


_HUGE_TABLE = {"kind": "explicit", "n": 1 << 33, "table": {"0": 0}}


@pytest.mark.parametrize("matroid, polymatroid, field", [
    ({"kind": "uniform", "n": 2, "rank": 1}, _HUGE_TABLE, "polymatroid.n"),
    (_HUGE_TABLE, {"kind": "modular", "weights": [1, 1]}, "matroid.n"),
], ids=["explicit-poly", "explicit-matroid"])
def test_a_huge_table_size_is_a_schema_error(tmp_path, matroid, polymatroid, field):
    """An explicit table lists one entry per subset, so an n whose 2^n
    subsets outnumber the table's keys is refused by its field path before
    2^n is formed; the child process has 1 GiB of address space, as above."""
    path = _core_cover(tmp_path, matroid, polymatroid)
    proc = _run_capped("-m", "matalloc.cli", "solve-cover", "--in", str(path))
    assert proc.returncode == 1 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert f"error: {field}: an explicit table over {1 << 33} elements" in proc.stderr


@pytest.mark.parametrize("n, keys", [(0, 1), (2, 4), (2, 7)])
def test_a_table_with_enough_keys_parses(n, keys):
    """2^n up to the key count parses; one element more is refused."""
    table = {str(x): x.bit_count() for x in range(keys)}
    assert matroid_from_json({"kind": "explicit", "n": n, "table": table}).n == n
    with pytest.raises(SchemaError, match=r"^matroid\.n: "):
        matroid_from_json({"kind": "explicit", "n": n + 1, "table": table})


def test_the_largest_scale_parses():
    assert poly_from_json(_scaled_rank(MAX_SCALE)).scale == MAX_SCALE
    with pytest.raises(SchemaError, match=r"^polymatroid\.scale: "):
        poly_from_json(_scaled_rank(MAX_SCALE + 1))


_HUGE_PARTITION = {"kind": "partition", "n": 1 << 33, "blocks": [[1, 3], [2, 4, 5], [0]],
                   "caps": [1, 2, 1]}


@pytest.mark.parametrize("command", ["solve-cover", "verify"])
def test_a_huge_partition_size_is_a_schema_error(tmp_path, command):
    """A partition matroid whose n its blocks cannot cover is refused by
    its field path without forming 1 << n (which takes 1 GiB at n = 2^33);
    the child process has 1 GiB of address space, as above."""
    path = _core_cover(tmp_path, _HUGE_PARTITION,
                       {"kind": "modular", "weights": [0, 3, 0, 3, 3, 0]})
    proc = _run_capped("-m", "matalloc.cli", command, "--in", str(path))
    assert proc.returncode == 1 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert ("error: matroid: bad partition matroid: partition blocks must cover the "
            "ground set") in proc.stderr


def test_a_partition_whose_blocks_name_n_elements_parses():
    m = matroid_from_json({"kind": "partition", "n": 3, "blocks": [[0, 2], [1]], "caps": [1, 1]})
    assert m.rank(0b111) == 2
    with pytest.raises(SchemaError, match=r"^matroid: bad partition matroid: partition blocks "
                       "must cover the ground set"):
        matroid_from_json({"kind": "partition", "n": 4, "blocks": [[0, 2], [1]], "caps": [1, 1]})
    # the cover check itself, which forms no 1 << n either
    for n, blocks in [(3, [0b011]), (2, [0b111]), (1 << 33, [0b111])]:
        with pytest.raises(ValueError, match="must cover the ground set"):
            PartitionMatroid(n, blocks, [1] * len(blocks))


_BIG = 1 << 33


def _huge_nested(kind):
    """A matroid on 3 elements with a nested size of 2^33: a transversal
    matroid naming right vertex 2^33 − 1 of 2^33, or a contraction of a
    uniform matroid on 2^33 elements by its last one."""
    if kind == "transversal":
        return {"kind": "transversal", "num_right": _BIG, "adjacency": [[0], [_BIG - 1], [1]]}
    return {"kind": "contracted", "inner": {"kind": "uniform", "n": _BIG, "rank": 1},
            "set": [_BIG - 1]}


@pytest.mark.parametrize("doc, field", [
    ({"type": "core-cover", "b": 1, "matroid": _huge_nested("transversal"),
      "polymatroid": _MODULAR_3},
     f"matroid.adjacency[1][0]: must name one of the right vertices 0..{MAX_INDEX - 1}"),
    ({"type": "core-cover", "b": 1, "matroid": _huge_nested("contracted"),
      "polymatroid": _MODULAR_3},
     f"matroid.inner.n: {_BIG} elements, more than {MAX_INDEX}"),
    ({"type": "core-cover", "b": 1, "matroid": {"kind": "uniform", "n": 3, "rank": 1},
      "polymatroid": {"kind": "scaled-rank", "scale": 1, "matroid": _huge_nested("contracted")}},
     f"polymatroid.matroid.inner.n: {_BIG} elements, more than {MAX_INDEX}"),
    ({"type": "santa-matroid", "players": 3,
      "items": [{"value": 1, "polymatroid": {"kind": "scaled-rank", "scale": 1,
                                             "matroid": _huge_nested("contracted")}}]},
     f"items[0].polymatroid.matroid.inner.n: {_BIG} elements, more than {MAX_INDEX}"),
    ({"type": "core-cover", "b": 1, "matroid": {"kind": "uniform", "n": _BIG, "rank": 1},
      "polymatroid": {"kind": "scaled-rank", "scale": 1,
                      "matroid": {"kind": "uniform", "n": _BIG, "rank": 1}}},
     f"matroid.n: {_BIG} elements, more than {MAX_INDEX}"),
], ids=["transversal", "contracted", "contracted-in-polymatroid", "contracted-in-item",
        "two-sided"])
def test_a_huge_nested_size_is_a_schema_error(tmp_path, doc, field):
    """A uniform matroid's n above MAX_INDEX, and a transversal's right
    vertex at or above it, are refused by their field paths before any mask
    over them is built (a mask over 2^33 elements takes 1 GiB), also when
    both sides of a core-cover are that large; the child process has 1 GiB
    of address space, as above."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    command = "solve-cover" if doc["type"] == "core-cover" else "verify"
    proc = _run_capped("-m", "matalloc.cli", command, "--in", str(path))
    assert proc.returncode == 1 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert f"error: {field}" in proc.stderr


def test_right_vertices_up_to_the_cap_parse():
    m = matroid_from_json({"kind": "transversal", "num_right": _BIG,
                           "adjacency": [[MAX_INDEX - 1], [0]]})
    assert m.num_right == _BIG and m.rank(0b11) == 2
    with pytest.raises(SchemaError, match=r"^matroid\.adjacency\[0\]\[0\]: "):
        matroid_from_json({"kind": "transversal", "num_right": _BIG,
                           "adjacency": [[MAX_INDEX], [0]]})


def test_right_vertex_labels_do_not_size_the_matchings(tmp_path, monkeypatch):
    """A transversal matroid naming right vertices 0, 1 and MAX_INDEX − 1
    solves like one naming 0, 1 and 2, and each of its matchings runs over
    the 3 vertices named, not over every label up to the highest."""
    asked = []
    real = matroids.max_bipartite_matching

    def recording(adj, num_right):
        asked.append(num_right)
        return real(adj, num_right)

    monkeypatch.setattr(matroids, "max_bipartite_matching", recording)
    results = []
    for last in (2, MAX_INDEX - 1):
        doc = {"type": "core-cover", "b": 1, "polymatroid": _MODULAR_3,
               "matroid": {"kind": "transversal", "num_right": MAX_INDEX,
                           "adjacency": [[0], [last], [1]]}}
        path, out = tmp_path / f"{last}.json", tmp_path / f"{last}.out.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-cover", "--in", str(path), "--out", str(out)]) == 0
        results.append(out.read_text())
    assert results[0] == results[1]
    assert asked and set(asked) == {3}


# Mutation fuzz: seed documents of every instance type, each under the
# commands that read its type (reduce by every kind).
_FUZZ_COMMANDS = {
    "core-cover": [["solve-cover"], ["verify"]],
    "gap": [["solve-cover"], ["verify"]],
    "restricted-santa": [["verify"], ["reduce", "--kind", "config-round"],
                         ["reduce", "--kind", "santa-to-makespan"]],
    "unrelated-santa": [["verify"], ["reduce", "--kind", "config-round"],
                        ["reduce", "--kind", "santa-to-makespan"]],
    "two-value-makespan": [["verify"], ["reduce", "--kind", "twovalue-makespan-to-santa"]],
    "santa-matroid": [["verify"], ["reduce", "--kind", "matroid-santa-to-makespan"]],
    "makespan-matroid": [["verify"], ["reduce", "--kind", "matroid-makespan-to-santa"]],
}
_FUZZ_VALUES = [0, -1, 1, 2, 3, 1 << 33, 10**30, -10**30, 1.5, True, False, None, "x", [], {},
                [0], [[0]], {"num": 1, "den": 0}]


def _json_spots(obj, path=()):
    """(path, value) of every entry below the root of a JSON document."""
    if path:
        yield path, obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_spots(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _json_spots(v, path + (i,))


def _mutate(doc, rng):
    """doc with one or two entries deleted, duplicated (in a list),
    shifted (an integer, by ±1, by 2^33 or to its negative minus one),
    replaced, if a matroid, by one of _huge_nested's shapes, or replaced by
    a value from _FUZZ_VALUES."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 2)):
        path, old = rng.choice(list(_json_spots(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, r = path[-1], rng.random()
        if r < 0.2:
            del parent[key]
        elif r < 0.3 and isinstance(parent, list):
            parent.append(old)
        elif r < 0.5 and isinstance(old, int) and not isinstance(old, bool):
            parent[key] = old + rng.choice([-1, 1, 1 << 33, -2 * old - 1])
        elif r < 0.6 and key == "matroid":
            parent[key] = _huge_nested(rng.choice(["transversal", "contracted"]))
        else:
            parent[key] = rng.choice(_FUZZ_VALUES)
    return doc


# Runs [argv, document] pairs from stdin through cli.main in-process and
# prints the exit codes met and the runs that did not end in 0, 1 or 2
# without a traceback.
_FUZZ_CHILD = """
import io, json, sys, traceback
from contextlib import redirect_stderr, redirect_stdout
from matalloc.cli import main
path, codes, escaped = sys.argv[1], {}, []
for argv, text in json.load(sys.stdin):
    with open(path, "w") as fh:
        fh.write(text)
    err = io.StringIO()
    try:
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(argv + ["--in", path])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    if code not in (0, 1, 2) or "Traceback" in err.getvalue():
        escaped.append([argv, text, code, err.getvalue()[-1000:]])
    codes[str(code)] = codes.get(str(code), 0) + 1
json.dump({"codes": codes, "escaped": escaped}, sys.stdout)
"""


def test_mutated_documents_exit_without_a_traceback(tmp_path):
    """2,000 seeded mutations of small instances of every type, through
    solve-cover, verify and every reduce --kind, in one child process with
    1 GiB of address space: each run exits 0, 1 or 2 with no traceback."""
    rng = random.Random(20251018)
    seeds = [(json.loads(serialize_instance(gen_random(flavor, s, m=3, n=4))), commands)
             for flavor, commands in _FUZZ_COMMANDS.items() for s in range(3)]
    runs = []
    for _ in range(2000):
        doc, commands = rng.choice(seeds)
        text = json.dumps(_mutate(doc, rng))
        runs += [[argv, text] for argv in commands]
    proc = _run_capped("-c", _FUZZ_CHILD, str(tmp_path / "doc.json"), stdin=json.dumps(runs))
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["escaped"] == []
    assert sorted(out["codes"]) == ["0", "1", "2"]
    assert sum(out["codes"].values()) == len(runs)


# Every integer leaf of a seeded document of each gen --flavor, and of a core
# cover whose polymatroid is a vector contraction, made a half or a bool.
_GEN_FLAVORS = ["gap", "core-cover", "unrelated-santa", "restricted-santa", "two-value-santa",
                "two-value-makespan", "restricted-makespan", "santa-matroid", "makespan-matroid"]
_REDUCE_KIND = {"core-cover": "config-round", "santa": "config-round",
                "makespan": "twovalue-makespan-to-santa",
                "santa-matroid": "matroid-santa-to-makespan",
                "makespan-matroid": "matroid-makespan-to-santa"}
_CONTRACTED_CORE = {"type": "core-cover", "b": 1, "matroid": {"kind": "uniform", "n": 3, "rank": 1},
                    "polymatroid": {"kind": "contracted", "base": [1, 1, 0],
                                    "inner": {"kind": "modular", "weights": [2, 2, 2]}}}


def test_a_non_integer_leaf_exits_one(tmp_path, capsys):
    """Each integer leaf replaced by v + 0.5, True or False: the parser
    refuses the document, and solve-cover, verify and reduce each exit 1
    with an error line."""
    docs = [json.loads(serialize_instance(gen_random(flavor, seed, m=3, n=3)))
            for flavor in _GEN_FLAVORS for seed in range(2)] + [_CONTRACTED_CORE]
    path, mutants = tmp_path / "doc.json", 0
    for doc in docs:
        commands = [["solve-cover"], ["verify"], ["reduce", "--kind", _REDUCE_KIND[doc["type"]]]]
        for spot, v in _json_spots(doc):
            if not isinstance(v, int) or isinstance(v, bool):
                continue
            for new in (v + 0.5, True, False):
                mutant = json.loads(json.dumps(doc))
                parent = mutant
                for key in spot[:-1]:
                    parent = parent[key]
                parent[spot[-1]] = new
                text = json.dumps(mutant)
                with pytest.raises(SchemaError):
                    parse_instance(text.encode())
                path.write_text(text)
                for argv in commands:
                    assert main([*argv, "--in", str(path)]) == 1, (argv, spot, new)
                    assert capsys.readouterr().err.startswith("error: "), (argv, spot, new)
                mutants += 1
    assert mutants >= 900


_UNIFORM_1 = {"kind": "uniform", "n": 1, "rank": 1}
_MODULAR_1 = {"kind": "modular", "weights": [1]}


@pytest.mark.parametrize("command, doc, field", [
    (["solve-cover"],
     {"type": "core-cover", "b": True, "matroid": _UNIFORM_1, "polymatroid": _MODULAR_1},
     "b: must be a positive integer"),
    (["reduce", "--kind", "config-round"],
     {"type": "santa", "players": True, "items": [{"values": [1]}]},
     "players: must be a nonnegative integer"),
    (["reduce", "--kind", "config-round"],
     {"type": "santa", "players": 1, "items": [{"values": [{"num": True, "den": 1}]}]},
     "items[0].values[0]: rational num/den must be integers"),
    (["solve-cover"],
     {"type": "core-cover", "b": 1, "polymatroid": _MODULAR_1,
      "matroid": {"kind": "explicit", "n": 1, "table": {"0": 0, "1": "x"}}},
     "matroid.table: matroid ranks must be integers"),
    (["solve-cover"],
     {"type": "core-cover", "b": 1, "matroid": _UNIFORM_1,
      "polymatroid": {"kind": "explicit", "n": 1, "table": {"0": 0, "1": True}}},
     "polymatroid.table: polymatroid values must be integers"),
], ids=["core-cover-bool-b", "bool-players", "bool-rational-num", "explicit-matroid-str-rank",
        "explicit-poly-bool-value"])
def test_non_integer_schema_field_exit_one(tmp_path, capsys, command, doc, field):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"error: {field}" in captured.err


@pytest.mark.parametrize("b", ["0", "-1"])
def test_solve_cover_nonpositive_b_exit_one(tmp_path, capsys, b):
    gap = tmp_path / "gap2.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(gap)])
    capsys.readouterr()
    assert main(["solve-cover", "--in", str(gap), "--b", b]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cover level b must be a positive integer\n"


def test_internal_invariant_error_exit_three(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalInvariantError("I_M must be independent")

    gap = tmp_path / "gap2.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(gap)])
    monkeypatch.setattr(cli, "solve_cover", broken)
    assert main(["solve-cover", "--in", str(gap), "--b", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: I_M must be independent\n"
    assert captured.out == ""


def test_out_of_memory_exit_one(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    gap = tmp_path / "gap2.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(gap)])
    monkeypatch.setattr(cli, "solve_cover", exhausted)
    assert main(["solve-cover", "--in", str(gap), "--b", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


def test_union_matroid_core_solves(tmp_path, capsys):
    """A 14-element core whose matroid is a JSON union of three parts of rank 13."""

    n = 14
    matroid = {"kind": "union", "parts": [
        {"kind": "graphic", "vertices": 8, "edges": [[e % 8, (3 * e + 1) % 8] for e in range(n)]},
        {"kind": "transversal", "num_right": 4,
         "adjacency": [[e % 4, (e + 1) % 4] for e in range(n)]},
        {"kind": "partition", "n": n, "blocks": [list(range(7)), list(range(7, n))],
         "caps": [1, 2]}]}
    polymatroid = {"kind": "coverage", "sets": [[0]] * n, "weights": [1]}
    path = _core_cover(tmp_path, matroid, polymatroid)
    code, out = run(capsys, "solve-cover", "--in", str(path))
    assert code == 0
    res = json.loads(out)
    assert len(res["I_M"]) == 13
    inst = parse_instance(path.read_bytes())
    assert inst.matroid.is_independent(sum(1 << e for e in res["I_M"]))
    assert member(inst.polymatroid, res["y"])
    assert all(e in res["I_M"] or res["y"][e] >= 1 for e in range(n))


def test_repeated_main_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    """main reuses one parser per process: a run of calls with different
    subcommands, errors included, prints and exits as fresh processes do."""
    monkeypatch.setenv("COLUMNS", "80")
    gap = tmp_path / "gap.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(gap)])
    capsys.readouterr()
    calls = [
        ["gen", "--flavor", "core-cover", "--m", "4", "--seed", "3"],
        ["solve-cover", "--in", str(gap), "--b", "1"],
        ["solve-cover", "--in", str(gap), "--b", "2", "--format", "tsv"],
        ["verify", "--in", str(gap)],
        ["solve-cover", "--in", str(tmp_path / "missing.json")],
        ["gen", "--flavor", "no-such-flavor"],
        ["solve-cover", "--in", str(gap), "--eps", "1/20", "--b", "1"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))

    src = str(Path(matalloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "matalloc.cli", *argv],
                              capture_output=True, text=True, env=env)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [c for c, _, _ in in_process] == [0, 0, 2, 0, 1, 2, 0]
    assert in_process == fresh


ZERO_DENOMINATOR = [("solve-cover", "--eps"), ("reduce", "--eps"), ("bench", "--eps"),
                    ("gen", "--u"), ("gen", "--w")]


@pytest.mark.parametrize("command, flag", ZERO_DENOMINATOR,
                         ids=[f"{c}{f}" for c, f in ZERO_DENOMINATOR])
def test_a_zero_denominator_is_a_usage_error(tmp_path, capsys, command, flag):
    g = tmp_path / "g.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(g)])
    capsys.readouterr()
    rest = {"solve-cover": ["--in", str(g)], "reduce": ["--in", str(g), "--kind", "config-round"],
            "bench": ["--dir", str(tmp_path)], "gen": ["--flavor", "two-value-santa"]}[command]
    argv = [command, *rest, flag, "1/0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and flag in err and "zero denominator" in err
    env = dict(os.environ, PYTHONPATH=str(Path(matalloc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "matalloc.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and flag in proc.stderr and "Traceback" not in proc.stderr


OUT_OF_RANGE = [
    (["--flavor", "two-value-santa", "--u", "-1", "--m", "2", "--n", "2"], "--u"),
    (["--flavor", "two-value-makespan", "--w=-1/2"], "--w"),
    (["--flavor", "core-cover", "--m", "0"], "--m"),
    (["--flavor", "gap", "--m", "1"], "--m"),
    (["--flavor", "restricted-santa", "--m", "0", "--n", "1"], "--m"),
    (["--flavor", "santa-matroid", "--n", "-1"], "--n"),
    (["--flavor", "core-cover", "--b", "0"], "--b"),
]


@pytest.mark.parametrize("argv, flag", OUT_OF_RANGE, ids=[" ".join(a) for a, _ in OUT_OF_RANGE])
def test_gen_refuses_out_of_range_flags(tmp_path, capsys, argv, flag):
    out = tmp_path / "inst.json"
    assert main(["gen", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: must be") and "randrange" not in err
    assert not out.exists()


@pytest.mark.parametrize("m", [MAX_INDEX + 1, 10 ** 9])
def test_gen_refuses_more_entities_than_the_parser_reads(tmp_path, capsys, m):
    """Refused before anything is built: the document would be one the
    parser refuses, or would not fit in memory."""
    out = tmp_path / "huge.json"
    assert main(["gen", "--flavor", "gap", "--m", str(m), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --m: must be at most {MAX_INDEX}\n"
    assert not out.exists()


def test_gen_takes_as_many_entities_as_the_parser_reads(monkeypatch):
    monkeypatch.setattr(instances, "gen_gap_instance", lambda m, b: m)
    assert gen_random("gap", 0, m=MAX_INDEX) == MAX_INDEX


@pytest.mark.parametrize("flavor", ["gap", "core-cover", "unrelated-santa", "restricted-santa",
                                    "two-value-santa", "two-value-makespan",
                                    "restricted-makespan", "santa-matroid", "makespan-matroid"])
def test_gen_at_the_smallest_sizes_writes_what_the_parser_reads(tmp_path, capsys, flavor):
    least_m = "2" if flavor == "gap" else "1"
    for seed in range(8):
        out = tmp_path / f"{seed}.json"
        assert main(["gen", "--flavor", flavor, "--m", least_m, "--n", str(seed % 2),
                     "--u", "0", "--seed", str(seed), "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out)]) in (0, 2)
    assert "error" not in capsys.readouterr().err
