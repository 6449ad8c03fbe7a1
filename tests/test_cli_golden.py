"""CLI byte-identity: the sha256 of stdout, the sha256 of the result and
the exit code of a fixed set of commands on generated instances, replayed
against the digests kept in tests/corpus/cli_digests.tsv.

The result is stdout with every "oracle_queries" field removed from a JSON
document, re-emitted as the CLI emits JSON; stdout that is not JSON is its
own result. A change that only asks fewer or more queries moves the stdout
column and no result column.

A change that means to alter some output rewrites the file with
`PYTHONPATH=src python tests/test_cli_golden.py` and says which lines moved.
"""

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from matalloc.cli import main
from matalloc.instances import (CoreCoverInstance, MakespanInstance, _rat_to_json, entity_totals,
                                gen_random, serialize_instance)
from matalloc.matroids import GraphicMatroid, PartitionMatroid, UniformMatroid, UnionMatroid
from matalloc.polymatroids import CoveragePoly
from matalloc.rounding import guess_loop, lst_baseline, santa_guess_grid, solve_assignment_lp

HERE = Path(__file__).parent
CORPUS = HERE / "corpus"
DIGESTS = CORPUS / "cli_digests.tsv"
UNION = CORPUS / "union" / "union-cover-m64-s1.json"


def _write(path: Path, inst) -> str:
    path.write_bytes(serialize_instance(inst) + b"\n")
    return str(path)


def _frac_json(T, rows) -> str:
    return json.dumps({"T": _rat_to_json(T), "x": [[_rat_to_json(v) for v in row] for row in rows]})


def _lp_frac(inst) -> str:
    """The assignment LP's point at the best feasible guess: the largest of
    inst's grid for santa, lst_baseline's smallest level for makespan."""
    if isinstance(inst, MakespanInstance):
        best = lst_baseline(inst)[1]
        frac = solve_assignment_lp(inst, best)
    else:
        best, frac = guess_loop(lambda t: solve_assignment_lp(inst, t), santa_guess_grid(inst))
    return _frac_json(best, frac.x)


def _mixed_frac(inst) -> str:
    """A point whose rows have different denominators: item j's unit spread
    over its eligible players in proportion j+1, j+2, ..., at T the least
    player value."""
    rows = []
    for j, it in enumerate(inst.items):
        weights = [j + 1 + k for k in range(inst.num_entities)]
        eligible = [i for i, v in enumerate(it.values) if v > 0]
        total = sum(weights[i] for i in eligible)
        rows.append([Fraction(weights[i], total) if i in eligible else Fraction(0)
                     for i in range(inst.num_entities)])
    return _frac_json(min(entity_totals(inst, rows)), rows)


# each case: name -> argv built in a directory from the generated files
def _solve_cover(m: int, seed: int, b: int):
    def argv(tmp: Path) -> list[str]:
        path = _write(tmp / "core.json", gen_random("core-cover", seed, m=m))
        return ["solve-cover", "--in", path, "--b", str(b), "--eps", "1/10"]
    return argv


def _reduce(kind: str, flavor: str, seed: int, **params):
    def argv(tmp: Path) -> list[str]:
        path = _write(tmp / "inst.json", gen_random(flavor, seed, **params))
        return ["reduce", "--in", path, "--kind", kind]
    return argv


def _round(flavor: str, seed: int, point=_lp_frac, **params):
    def argv(tmp: Path) -> list[str]:
        inst = gen_random(flavor, seed, **params)
        frac = tmp / "frac.json"
        frac.write_text(point(inst))
        return ["round", "--in", _write(tmp / "inst.json", inst), "--frac", str(frac)]
    return argv


def _verify(flavor: str, seed: int, **params):
    def argv(tmp: Path) -> list[str]:
        return ["verify", "--in", _write(tmp / "inst.json", gen_random(flavor, seed, **params))]
    return argv


def union_cover(seed: int, m: int = 64) -> CoreCoverInstance:
    """A union of UniformMatroid(m, 16), a graphic matroid on 21 vertices
    and a two-block partition matroid (caps 8, 8) against a coverage
    polymatroid over 24 items (each in a set with probability 1/5, weights
    1-3), at b = 1. UNION keeps the draw of seed 1."""
    rng = random.Random(seed)
    graphic = GraphicMatroid(21, [(rng.randrange(21), rng.randrange(21)) for _ in range(m)])
    low = (1 << m // 2) - 1
    halves = PartitionMatroid(m, [low, ((1 << m) - 1) ^ low], [8, 8])
    covers = [sum(1 << i for i in range(24) if rng.random() < 0.2) for _ in range(m)]
    weights = [rng.randint(1, 3) for _ in range(24)]
    return CoreCoverInstance(UnionMatroid([UniformMatroid(m, 16), graphic, halves]),
                             CoveragePoly(covers, weights), 1)


FLAVORS = ("gap", "core-cover", "unrelated-santa", "restricted-santa", "two-value-santa",
           "two-value-makespan", "restricted-makespan", "santa-matroid", "makespan-matroid")


def _gen(flavor: str, seed: int):
    return lambda tmp: ["gen", "--flavor", flavor, "--seed", str(seed), "--m", "3", "--n", "4",
                        "--b", "2", "--u", "1/2", "--w", "5/3"]


CASES = {
    **{f"gen-{flavor}": _gen(flavor, 1) for flavor in FLAVORS},
    **{f"solve-cover-m{m}-s{seed}-b{b}": _solve_cover(m, seed, b)
       for m in (8, 10, 12, 13) for seed in range(1, 7) for b in (1, 2, 3)},
    "reduce-config-round": _reduce("config-round", "two-value-santa", 1, m=2, n=3,
                                   u=Fraction(1, 2), w=Fraction(1)),
    "reduce-santa-to-makespan": _reduce("santa-to-makespan", "two-value-santa", 0, m=2, n=3,
                                        u=Fraction(1, 2), w=Fraction(1)),
    "reduce-twovalue-makespan-to-santa": _reduce("twovalue-makespan-to-santa",
                                                 "two-value-makespan", 3, m=2, n=3,
                                                 u=Fraction(1, 4), w=Fraction(2, 3)),
    "reduce-matroid-makespan-to-santa": _reduce("matroid-makespan-to-santa",
                                                "makespan-matroid", 1, m=3, n=2,
                                                u=Fraction(1, 3), w=Fraction(1, 2)),
    "reduce-matroid-santa-to-makespan": _reduce("matroid-santa-to-makespan",
                                                "santa-matroid", 0, m=3, n=2,
                                                u=Fraction(1, 2), w=Fraction(1)),
    "round-restricted-santa": _round("restricted-santa", 4, m=3, n=5),
    "round-restricted-makespan": _round("restricted-makespan", 1, m=3, n=6),
    "round-mixed-denominators": _round("restricted-santa", 5, _mixed_frac, m=3, n=6),
    "round-unrelated-santa": _round("unrelated-santa", 2, m=3, n=5),
    "round-two-value-makespan": _round("two-value-makespan", 5, m=3, n=6),
    "verify-gap": _verify("gap", 0, m=3),
    "verify-santa-matroid": _verify("santa-matroid", 2, m=3, n=3),
    "bench-corpus": lambda tmp: ["bench", "--dir", str(CORPUS)],
    "solve-cover-union-m64-s1": lambda tmp: ["solve-cover", "--in", str(UNION), "--b", "1"],
}


def _without_queries(obj):
    if isinstance(obj, dict):
        return {k: _without_queries(v) for k, v in obj.items() if k != "oracle_queries"}
    if isinstance(obj, list):
        return [_without_queries(v) for v in obj]
    return obj


def _result(stdout: str) -> str:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    return json.dumps(_without_queries(doc), sort_keys=True, indent=1) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(name: str, tmp: Path) -> tuple[str, str, int]:
    """(stdout digest, result digest, exit code)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(CASES[name](tmp))
    return _sha(out.getvalue()), _sha(_result(out.getvalue())), code


def _recorded() -> dict[str, tuple[str, str, int]]:
    rows = (line.split("\t") for line in DIGESTS.read_text().splitlines())
    return {name: (digest, result, int(code)) for name, digest, result, code in rows}


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(CASES)


def test_the_union_cover_is_its_seeded_draw():
    assert UNION.read_bytes() == serialize_instance(union_cover(1)) + b"\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, tmp_path):
    assert run_case(name, tmp_path) == _recorded()[name]


if __name__ == "__main__":
    lines = []
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digest, result, code = run_case(name, Path(tmp))
        lines.append(f"{name}\t{digest}\t{result}\t{code}\n")
    DIGESTS.write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {DIGESTS}")
