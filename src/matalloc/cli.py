"""Command-line front end.

Subcommands: gen (instance generators), solve-cover (local-search cover
solver), reduce (constructive reductions), round (assignment-LP rounding),
verify (axiom checks), bench (corpus table against brute force).

Exit codes: 0 success, 2 for mathematically meaningful negative outcomes
(infeasibility with a certificate, axiom violations), 1 for usage or
contract errors, 3 for a broken internal invariant (a bug); malformed
flags get argparse's usage message and exit 2. Identical inputs and seed
give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .bitsets import bits
from .instances import (CoreCoverInstance, MakespanInstance, SantaInstance, _rat_from_json,
                        _rat_to_json, gen_random, parse_instance, serialize_instance)
from .limits import (Caps, ContractViolation, GuessRejected, InternalInvariantError,
                     SchemaError, SizeCapError, caps_from_env, read_json)
from .localsearch import recursion_node_bound, solve_cover, verify_certificate
from .oracle import brute_max_cover_b, brute_opt_makespan, brute_opt_santa, check_axioms
from .reductions import (config_round, matroid_makespan_to_santa, matroid_santa_to_makespan,
                         santa_to_makespan, twovalue_makespan_to_santa)
from .rounding import FractionalAssignment, round_makespan, round_santa


def _rat(value: str) -> Fraction:
    # argparse turns only ValueError/TypeError into a usage error by itself
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {value!r}") from None


def _emit(obj, path: str | None, fmt: str = "json") -> None:
    if fmt == "json":
        text = json.dumps(obj, sort_keys=True, indent=1)
    else:
        rows = obj if isinstance(obj, list) else [obj]
        keys = sorted({k for r in rows for k in r})
        lines = ["\t".join(keys)]
        lines += ["\t".join(str(r.get(k, "")) for k in keys) for r in rows]
        text = "\n".join(lines)
    if path:
        Path(path).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _caps(args) -> Caps:
    caps = caps_from_env()
    ground, enum = getattr(args, "cap_ground", None), getattr(args, "cap_enum", None)
    for flag, cap in (("--cap-ground", ground), ("--cap-enum", enum)):
        if cap is not None and cap < 0:
            raise SchemaError(f"{flag}: must be nonnegative")
    if ground is not None:
        caps = caps.override(sfm_ground=ground)
    if enum is not None:
        caps = caps.override(basis_enum=enum, assignments=enum)
    return caps


def cmd_gen(args) -> int:
    inst = gen_random(args.flavor, args.seed, m=args.m, n=args.n,
                      u=args.u, w=args.w, b=args.b)
    data = serialize_instance(inst).decode()
    if args.out:
        Path(args.out).write_text(data + "\n")
    else:
        sys.stdout.write(data + "\n")
    return 0


def cmd_solve_cover(args) -> int:
    inst = parse_instance(Path(args.infile).read_bytes())
    if not isinstance(inst, CoreCoverInstance):
        raise SchemaError("solve-cover expects a core-cover instance")
    if args.b is not None:
        inst.b = args.b
    # asked first: an eps whose bound cannot be printed is refused unsolved
    bound = recursion_node_bound(inst.matroid.n, Fraction(args.eps))
    res = solve_cover(inst, args.eps, _caps(args))
    out = {
        "outcome": "cover" if res.feasible else "infeasible",
        "b": inst.b,
        "eps": _rat_to_json(Fraction(args.eps)),
        "I_M": sorted(bits(res.I_M)),
        "y": list(res.y),
        "restarts": res.restarts,
        "zeroed": sorted(bits(res.zeroed)),
        "recursion_nodes": res.total_recursion_nodes,
        "recursion_node_bound": bound,
        "oracle_queries": res.oracle_queries,
    }
    if not res.feasible:
        out["diagnostics"] = res.diagnostics
        out["certificates"] = [
            {"element": rec.failed_element,
             "Z1": sorted(bits(rec.certificate.z1)),
             "Z2": sorted(bits(rec.certificate.z2)),
             "ground": sorted(bits(rec.certificate.ground)),
             "B0": sorted(bits(rec.certificate.b0)),
             "report": {k: v for k, v in verify_certificate(
                 rec.certificate, rec.matroid, rec.poly).items()}}
            for rec in res.certificates]
    _emit(out, args.out, args.format)
    return 0 if res.feasible else 2


# the instance type each reduction kind builds from
_REDUCE_INPUT = {"config-round": SantaInstance, "santa-to-makespan": SantaInstance,
                 "twovalue-makespan-to-santa": MakespanInstance,
                 "matroid-makespan-to-santa": MakespanInstance,
                 "matroid-santa-to-makespan": SantaInstance}


def cmd_reduce(args) -> int:
    inst = parse_instance(Path(args.infile).read_bytes())
    expected = _REDUCE_INPUT[args.kind]
    if not isinstance(inst, expected):
        noun = "santa" if expected is SantaInstance else "makespan"
        raise SchemaError(f"reduce --kind {args.kind} expects a {noun} instance")
    if args.kind == "config-round":
        rounded, configs = config_round(inst, args.eps, _caps(args))
        out = {"instance": json.loads(serialize_instance(rounded)),
               "configs": [[{str(v): c for v, c in cfg.items()} for cfg in player]
                           for player in configs]}
    elif args.kind == "santa-to-makespan":
        rounded, configs = config_round(inst, args.eps, _caps(args))
        bundle = santa_to_makespan(rounded, configs)
        out = {"instance": json.loads(serialize_instance(bundle.makespan)),
               "machines": [list(map(str, d)) for d in bundle.machines],
               "jobs": [list(map(str, d)) for d in bundle.jobs]}
    elif args.kind == "twovalue-makespan-to-santa":
        bundle = twovalue_makespan_to_santa(inst)
        out = {"instance": json.loads(serialize_instance(bundle.santa)),
               "k": bundle.k, "t": _rat_to_json(bundle.t),
               "resources": [list(map(str, d)) for d in bundle.resource_desc],
               "players": [list(map(str, d)) for d in bundle.player_desc]}
    elif args.kind == "matroid-makespan-to-santa":
        bundle = matroid_makespan_to_santa(inst)
        out = {"instance": json.loads(serialize_instance(bundle.built)),
               "caps": list(bundle.caps_per_item), "t": _rat_to_json(bundle.t)}
    else:
        bundle = matroid_santa_to_makespan(inst)
        out = {"instance": json.loads(serialize_instance(bundle.built)),
               "caps": list(bundle.caps_per_item)}
    _emit(out, args.out, "json")
    return 0


def cmd_round(args) -> int:
    inst = parse_instance(Path(args.infile).read_bytes())
    if not isinstance(inst, (SantaInstance, MakespanInstance)):
        raise SchemaError("round expects a santa or makespan instance")
    raw = read_json(Path(args.frac).read_text(), "--frac: not valid JSON")
    frac = _frac_from_json(raw, inst)
    rounder = round_santa if isinstance(inst, SantaInstance) else round_makespan
    _emit({"assign": [list(v) for v in rounder(inst, frac, _caps(args))]}, args.out, "json")
    return 0


def _frac_from_json(raw, inst) -> FractionalAssignment:
    """A fractional assignment {"T": rational, "x": [[rational per entity] per item]}."""

    def rat(obj, path: str) -> Fraction:
        v = _rat_from_json(obj, path)
        if v is None:
            raise SchemaError(f"{path}: expected a rational")
        return v

    if not isinstance(raw, dict):
        raise SchemaError("frac: expected an object")
    if "T" not in raw:
        raise SchemaError("frac.T: missing")
    rows = raw.get("x")
    if not isinstance(rows, list) or len(rows) != len(inst.items):
        raise SchemaError("frac.x: expected one row per item")
    x = []
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != inst.num_entities:
            raise SchemaError(f"frac.x[{j}]: expected one entry per entity")
        x.append(tuple(rat(c, f"frac.x[{j}][{i}]") for i, c in enumerate(row)))
    return FractionalAssignment(rat(raw["T"], "frac.T"), x)


def cmd_verify(args) -> int:
    inst = parse_instance(Path(args.infile).read_bytes())
    caps = _caps(args)
    reports = []
    if isinstance(inst, CoreCoverInstance):
        reports.append(("matroid", check_axioms(inst.matroid, caps, args.seed)))
        reports.append(("polymatroid", check_axioms(inst.polymatroid, caps, args.seed)))
    else:
        for j, it in enumerate(inst.items):
            if it.polymatroid is not None:
                reports.append((f"items[{j}].polymatroid",
                                check_axioms(it.polymatroid, caps, args.seed)))
    ok = all(rep["ok"] for _, rep in reports)
    _emit({"ok": ok, "reports": {name: rep for name, rep in reports}}, args.out, "json")
    return 0 if ok else 2


def cmd_bench(args) -> int:
    caps = _caps(args)
    rows = []
    worst: Fraction | None = None
    if not Path(args.dir).is_dir():
        raise SchemaError(f"--dir: {args.dir} is not a directory")
    for path in sorted(Path(args.dir).glob("*.json")):
        row: dict = {"file": path.name}
        try:
            inst = parse_instance(path.read_bytes())
            if isinstance(inst, CoreCoverInstance):
                bound = recursion_node_bound(inst.matroid.n, Fraction(args.eps))
                opt = brute_max_cover_b(inst.matroid, inst.polymatroid, caps)
                bstar, nodes, queries = 0, 0, 0
                b = 1
                limit = 1 if opt is math.inf else int(opt)
                while b <= max(limit, 1):
                    inst.b = b
                    res = solve_cover(inst, args.eps, caps)
                    nodes = max(nodes, res.max_recursion_nodes)
                    queries += res.oracle_queries
                    if not res.feasible:
                        break
                    bstar = b
                    b += 1
                ratio = (Fraction(1) if opt is math.inf or opt == 0
                         else Fraction(int(opt), max(bstar, 1)))
                row.update({"brute_b": "inf" if opt is math.inf else int(opt),
                            "algo_b": bstar, "ratio": str(ratio),
                            "ratio_ok": ratio <= 4 + 40 * Fraction(args.eps),
                            "nodes": nodes, "node_bound_ok": nodes <= bound,
                            "oracle_queries": queries})
                worst = ratio if worst is None else max(worst, ratio)
            elif isinstance(inst, SantaInstance):
                row.update({"brute_opt": str(brute_opt_santa(inst, caps).value)})
            else:
                row.update({"brute_opt": str(brute_opt_makespan(inst, caps).value)})
        except SizeCapError as exc:
            row.update({"skipped": f"cap: {exc}"})
        except SchemaError as exc:
            raise SchemaError(f"{path.name}: {exc}") from None
        rows.append(row)
    if worst is not None:
        rows.append({"file": "WORST", "ratio": str(worst)})
    _emit(rows, args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="matalloc",
        description="Matroid and polymatroid allocation toolkit: generators, "
                    "the local-search cover solver with infeasibility certificates, "
                    "reductions, LP rounding, and brute-force verification.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, infile=True, fmt=False):
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="instance JSON path")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--cap-ground", type=int, help="override the subset-enumeration support cap")
        p.add_argument("--cap-enum", type=int, help="override enumeration count caps")
        if fmt:
            p.add_argument("--format", choices=["json", "tsv"], default="json")

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--flavor", required=True,
                   choices=["gap", "core-cover", "unrelated-santa", "restricted-santa",
                            "two-value-santa", "two-value-makespan", "restricted-makespan",
                            "santa-matroid", "makespan-matroid"])
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--u", type=_rat, default=Fraction(1))
    p.add_argument("--w", type=_rat, default=Fraction(3))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve-cover", help="local-search cover solver")
    common(p, fmt=True)
    p.add_argument("--b", type=int, help="cover level (defaults to the instance's)")
    p.add_argument("--eps", type=_rat, default=Fraction(1, 10))
    p.set_defaults(func=cmd_solve_cover)

    p = sub.add_parser("reduce", help="build a reduction instance plus its gadget maps")
    common(p)
    p.add_argument("--kind", required=True, choices=list(_REDUCE_INPUT))
    p.add_argument("--eps", type=_rat, default=Fraction(1, 4))
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("round", help="round a fractional assignment")
    common(p)
    p.add_argument("--frac", required=True, help="fractional assignment JSON path")
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("verify", help="axiom-check the oracles of an instance")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled augmentation checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="brute-force comparison table over a corpus directory")
    common(p, infile=False, fmt=True)
    p.add_argument("--dir", required=True, help="directory of instance JSON files")
    p.add_argument("--eps", type=_rat, default=Fraction(1, 10))
    p.set_defaults(func=cmd_bench)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing never mutates the parser, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ContractViolation, GuessRejected, SizeCapError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
