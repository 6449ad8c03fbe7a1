"""reduce_to_core byte-identity: for every guess of the santa guess grid of
a fixed set of seeded draws, the outcome (case, achieved and allocation of
an accepted guess, or the type and message of the error that rejected the
guess or that its build raised), hashed per draw and replayed against the
digests kept in tests/corpus/core_digests.tsv. No CLI command prints these
outcomes, so test_cli_golden does not pin them.

A change that means to alter some outcome rewrites the file with
`PYTHONPATH=src python tests/test_core_digests.py` and says which lines moved.
"""

import hashlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import three_value_draw

from matalloc.instances import gen_random
from matalloc.localsearch import solve_cover
from matalloc.reductions import reduce_to_core, santa_guess_grid

DIGESTS = Path(__file__).parent / "corpus" / "core_digests.tsv"


def _matroid(seed: int, m: int, u: Fraction, w: Fraction):
    return lambda: gen_random("santa-matroid", seed, m=m, n=4, u=u, w=w)


# each draw: name -> (instance builder, alpha)
DRAWS = {
    **{f"santa-matroid-m3-s{s}-a2": (_matroid(s, 3, Fraction(1), Fraction(3)), Fraction(2))
       for s in range(10)},
    **{f"santa-matroid-m4-s{s}-a8": (_matroid(s, 4, Fraction(1), Fraction(3)), Fraction(8))
       for s in range(4)},
    **{f"santa-matroid-u2/3-w5/2-s{s}-a2": (_matroid(s, 4, Fraction(2, 3), Fraction(5, 2)),
                                            Fraction(2)) for s in (0, 1, 2, 3, 4, 19)},
    **{f"three-value-s{s}-a{a}": ((lambda s=s: three_value_draw(s)), Fraction(a))
       for s in range(5) for a in (2, 4)},
}


def _outcome(inst, alpha: Fraction, guess: Fraction) -> tuple[str, str]:
    """(case, text): the case "rejected" for a guess reduce_to_core refuses."""
    try:
        red = reduce_to_core(inst, alpha, guess, lambda c: solve_cover(c, Fraction(1, 10)))
    except Exception as exc:  # every refusal is pinned, whatever its type
        return "rejected", f"{type(exc).__name__}: {exc}"
    try:
        alloc = red.alloc
    except Exception as exc:
        return f"{red.case} build error", f"{red.achieved} {type(exc).__name__}: {exc}"
    return red.case, f"{red.achieved} {alloc}"


def run_draw(name: str) -> tuple[str, str]:
    """The sha256 of the draw's outcomes over its grid, in grid order, and
    the number of guesses in each case."""
    make, alpha = DRAWS[name]
    inst = make()
    lines, cases = [], Counter()
    for guess in santa_guess_grid(inst):
        case, text = _outcome(inst, alpha, guess)
        cases[case] += 1
        lines.append(f"{guess}\t{case}\t{text}\n")
    counts = ",".join(f"{case}={k}" for case, k in sorted(cases.items()))
    return hashlib.sha256("".join(lines).encode()).hexdigest(), counts


def _recorded() -> dict[str, tuple[str, str]]:
    rows = (line.split("\t") for line in DIGESTS.read_text().splitlines())
    return {name: (digest, counts) for name, digest, counts in rows}


def test_every_draw_is_recorded():
    assert sorted(_recorded()) == sorted(DRAWS)


def test_the_corpus_accepts_guesses_in_every_case():
    accepted = Counter()
    for _, counts in _recorded().values():
        for part in counts.split(","):
            case, k = part.split("=")
            accepted[case] += int(k)
    assert all(accepted[case] >= 10
               for case in ("one-each", "core-cover", "round", "heavy-light"))


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_outcomes_are_byte_identical(name):
    assert run_draw(name) == _recorded()[name]


if __name__ == "__main__":
    lines = [f"{name}\t{digest}\t{counts}\n"
             for name in sorted(DRAWS) for digest, counts in [run_draw(name)]]
    DIGESTS.write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {DIGESTS}")
