"""CLI: exit codes, determinism, and the documented subcommand surfaces."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matalloc
from matalloc.cli import main


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


def test_round_rational_without_den_exit_one(tmp_path, capsys):
    doc = {"T": 1, "x": [[{"num": 1}, 0], [0, 1]]}
    assert _round_with_frac(tmp_path, doc) == 1
    assert "frac.x[0][0]" in capsys.readouterr().err


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


def test_bench_empty_directory(tmp_path, capsys):
    code, out = run(capsys, "bench", "--dir", str(tmp_path))
    assert code == 0 and json.loads(out) == []


def test_bench_skips_oversized(tmp_path, capsys, monkeypatch):
    main(["gen", "--flavor", "gap", "--m", "3", "--out", str(tmp_path / "g.json")])
    monkeypatch.setenv("MATROID_ALLOC_CAPS", '{"sfm_ground": 2}')
    code, out = run(capsys, "bench", "--dir", str(tmp_path))
    assert code == 0
    rows = json.loads(out)
    assert "skipped" in rows[0]


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
], ids=["coverage-item-out-of-range", "modular-float-weight", "uniform-negative-rank",
        "scaled-rank-float-scale", "partition-float-cap", "partition-negative-cap",
        "partition-bool-cap", "capped-float-cap", "dual-float-z", "graphic-float-endpoint",
        "graphic-float-vertices", "transversal-right-out-of-range",
        "transversal-negative-num-right", "transversal-float-num-right", "uniform-float-n",
        "uniform-float-rank", "nested-partition-huge-n"])
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
    import matalloc.cli as cli
    from matalloc.limits import InternalInvariantError

    def broken(*args, **kwargs):
        raise InternalInvariantError("I_M must be independent")

    gap = tmp_path / "gap2.json"
    main(["gen", "--flavor", "gap", "--m", "2", "--out", str(gap)])
    monkeypatch.setattr(cli, "solve_cover", broken)
    assert main(["solve-cover", "--in", str(gap), "--b", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: I_M must be independent\n"
    assert captured.out == ""


def test_union_matroid_core_solves(tmp_path, capsys):
    """A 14-element core whose matroid is a JSON union of three parts of rank 13."""
    from matalloc.instances import parse_instance
    from matalloc.polymatroids import member

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
