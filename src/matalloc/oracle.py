"""Brute-force ground-truth solvers and axiom validators.

Everything here is exhaustive enumeration under explicit caps: exceeding a
cap is an error, never silent sampling. These are the independent oracles
the algorithmic modules are measured against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bitsets import bits, elements, full_mask, size, submasks
from .limits import Caps, DEFAULT_CAPS, SizeCapError
from .matroids import MatroidOracle
from .polymatroids import PolymatroidOracle, headroom, member


@dataclass
class OptReport:
    value: Fraction | float
    witness: object
    search_space: int
    elapsed: float


def enumerate_bases(p: PolymatroidOracle, caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """All bases of an integer polymatroid (vectors x in P with x(E) = f(E)),
    by a depth-first search over every element, so n is capped."""
    n = p.n
    if n > caps.sfm_ground:
        raise SizeCapError(f"basis enumeration over {n} elements exceeds cap {caps.sfm_ground}")
    target = p.value(full_mask(n))
    out: list[tuple[int, ...]] = []
    vec = [0] * n

    def rec(e: int, total: int) -> None:
        if e == n:
            if total == target:
                out.append(tuple(vec))
            return
        cap = min(p.value(1 << e), target - total)
        for v in range(cap, -1, -1):
            vec[e] = v
            if member(p, vec[: e + 1] + [0] * (n - e - 1), caps):
                rec(e + 1, total + v)
            if len(out) > caps.basis_enum:
                raise SizeCapError("basis enumeration exceeded cap")
        vec[e] = 0

    rec(0, 0)
    return out


def brute_opt_santa(instance, caps: Caps = DEFAULT_CAPS) -> OptReport:
    """Exact max-min value by exhaustive enumeration (classical or matroid flavor)."""
    start = time.monotonic()
    value, witness, space = _brute(instance, caps, maximize_min=True)
    return OptReport(value, witness, space, time.monotonic() - start)


def brute_opt_makespan(instance, caps: Caps = DEFAULT_CAPS) -> OptReport:
    """Exact min-max load by exhaustive enumeration (classical or matroid flavor)."""
    start = time.monotonic()
    value, witness, space = _brute(instance, caps, maximize_min=False)
    return OptReport(value, witness, space, time.monotonic() - start)


def _brute(instance, caps: Caps, maximize_min: bool):
    """Best combination of one option per item, as (value, witness, count).

    A classical item's options are its entities of finite value (witness
    entry: the entity); a matroid item's are the bases of its polymatroid
    (witness entry: the basis as a list). The combination count is checked
    against caps.assignments (classical) or caps.basis_enum (matroid)
    before any combination is evaluated. One depth-first pass in index
    order keeps the first strictly better combination, so the witness is
    the lexicographically first optimum. On makespan a branch is cut once
    its partial maximum reaches the best, which is safe because loads only
    grow. An item with no option gives 0 (santa) or inf (makespan), no
    witness and count 0.
    """
    m = instance.num_entities
    matroid = instance.is_matroid_flavor
    cap = caps.basis_enum if matroid else caps.assignments
    per_item, space = [], 1
    for it in instance.items:
        if matroid:
            opts = [(list(b), [(i, it.value * b[i]) for i in range(m) if b[i]])
                    for b in enumerate_bases(it.polymatroid, caps)]
        else:
            opts = [(i, [(i, v)]) for i, v in enumerate(it.values) if v is not None]
        if not opts:
            return (Fraction(0) if maximize_min else math.inf), None, 0
        space *= len(opts)
        if space > cap:
            raise SizeCapError(f"brute force: more than {cap} combinations")
        per_item.append(opts)
    n = len(per_item)
    loads = [Fraction(0)] * m
    chosen: list = [None] * n
    best: list = [None, None]

    def rec(j: int) -> None:
        if j == n:
            val = min(loads) if maximize_min else max(loads)
            if best[0] is None or (val > best[0] if maximize_min else val < best[0]):
                best[0] = val
                best[1] = list(chosen)
            return
        for entry, adds in per_item[j]:
            for i, v in adds:
                loads[i] += v
            chosen[j] = entry
            if maximize_min or best[0] is None or all(loads[i] < best[0] for i, _ in adds):
                rec(j + 1)
            for i, v in adds:
                loads[i] -= v

    rec(0)
    return best[0], best[1], space


def brute_transversal_rank(adjacency: Sequence[int], mask: int) -> int:
    """The most elements of mask matched to distinct right vertices, over
    every assignment of each element to nothing or to a free neighbour in
    adjacency[e] (right vertices by their labels, as given)."""
    order = elements(mask)

    def best(k: int, used: int) -> int:
        if k == len(order):
            return 0
        out = best(k + 1, used)
        for v in bits(adjacency[order[k]] & ~used):
            out = max(out, 1 + best(k + 1, used | 1 << v))
        return out

    return best(0, 0)


def brute_max_cover_b(matroid: MatroidOracle, poly: PolymatroidOracle,
                      caps: Caps = DEFAULT_CAPS) -> int | float:
    """Largest b for which some independent I_M and y in P cover every element
    (i in I_M or y(i) >= b); math.inf when the matroid alone can cover E."""
    n = matroid.n
    if n > caps.sfm_ground:
        raise SizeCapError(f"ground set {n} exceeds cap {caps.sfm_ground}")
    best: int | float = 0
    for im in range(1 << n):
        if not matroid.is_independent(im):
            continue
        rest = full_mask(n) ^ im
        if rest == 0:
            return math.inf
        b = None
        for s in submasks(rest):
            if s == 0:
                continue
            q = poly.value(s) // size(s)
            if b is None or q < b:
                b = q
        if b > best:
            best = b
    return best


def exists_strong_cover(matroid: MatroidOracle, poly: PolymatroidOracle, ground: int,
                        b0: int, level: Fraction, min_b0_hits: Fraction,
                        caps: Caps = DEFAULT_CAPS) -> bool:
    """Exhaustive check used against certificates: is there I*_M ∪ I*_P ⊇ E \\ B0
    with I*_M independent, level·1_{I*_P} in P, and |B0 ∩ I*_M| >= min_b0_hits?"""
    if size(ground) > caps.sfm_ground:
        raise SizeCapError(f"exhaustive soundness check over {size(ground)} elements "
                           f"exceeds cap {caps.sfm_ground}")
    others = ground & ~b0
    for ip in submasks(ground):
        vec = [level if (ip >> e) & 1 else Fraction(0) for e in range(poly.n)]
        if not member(poly, vec, caps):
            continue
        base = others & ~ip
        if not matroid.is_independent(base):
            continue
        hits = matroid.rank(base | b0) - size(base)
        if hits >= min_b0_hits:
            return True
    return False


def check_axioms(oracle, caps: Caps = DEFAULT_CAPS, seed: int = 0,
                 augmentation_samples: int = 20) -> dict:
    """Exhaustive matroid/polymatroid axiom verification for n <= 12.

    Polymatroids additionally get the augmentation property spot-checked on
    sampled member pairs. Returns {"ok": bool, "violations": [...]}.
    """
    import random

    n = oracle.n
    if n > 12:
        raise SizeCapError("axiom check capped at n = 12")
    violations: list[str] = []
    if isinstance(oracle, MatroidOracle):
        f = oracle.rank
        if f(0) != 0:
            violations.append("r(empty) != 0")
        for x in range(1 << n):
            for i in range(n):
                if (x >> i) & 1:
                    continue
                step = f(x | (1 << i)) - f(x)
                if step < 0 or step > 1:
                    violations.append(f"unit increase fails at X={x:#x}, i={i}")
    elif isinstance(oracle, PolymatroidOracle):
        f = oracle.value
        if f(0) != 0:
            violations.append("f(empty) != 0")
        for x in range(1 << n):
            v = f(x)
            if not isinstance(v, int):
                violations.append(f"non-integer value at X={x:#x}")
            for i in range(n):
                if (x >> i) & 1:
                    continue
                if f(x | (1 << i)) < v:
                    violations.append(f"monotonicity fails at X={x:#x}, i={i}")
    else:
        raise TypeError("expected a matroid or polymatroid oracle")

    for x in range(1 << n):
        for i in range(n):
            if (x >> i) & 1:
                continue
            for j in range(i + 1, n):
                if (x >> j) & 1:
                    continue
                lhs = f(x | (1 << i)) + f(x | (1 << j))
                rhs = f(x | (1 << i) | (1 << j)) + f(x)
                if lhs < rhs:
                    violations.append(f"submodularity fails at X={x:#x}, i={i}, j={j}")

    if isinstance(oracle, PolymatroidOracle) and not violations:
        rng = random.Random(seed)
        for _ in range(augmentation_samples):
            x = _random_member(oracle, rng, caps)
            y = _random_member(oracle, rng, caps)
            if sum(x) > sum(y):
                x, y = y, x
            if sum(x) == sum(y):
                continue
            ok = any(headroom(oracle, x, e, 1, caps) for e in range(n))
            if not ok:
                violations.append(f"augmentation fails between {x} and {y}")
    return {"ok": not violations, "violations": violations}


def _random_member(p: PolymatroidOracle, rng, caps: Caps) -> list[int]:
    x = [0] * p.n
    for e in rng.sample(range(p.n), p.n):
        slack = headroom(p, x, e, p.value(1 << e) - x[e], caps)
        if slack > 0:
            x[e] += rng.randint(0, slack)
    return x
