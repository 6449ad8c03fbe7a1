"""Global oracle-query counters.

Counts logical top-level queries (each value/rank call, memo hits
included), so a value or rank memo does not change a figure. Work inside
one max-flow of a cut network is not a query. A membership, a headroom,
an induced rank, a capped value and a vector-contracted value are
each one count (polymatroids.count) and count what it asks. The last
three also count the rank or value query that asks for them, and a
capped value (on its uncapped elements), a vector-contracted value and
a greedy basis step ask the singleton values f({e}) that they raise
entries to. A count by matroid partition asks one value query plus the
rank queries the partition asks of the matroid copies (its plain part is
one kept flow and asks none), and no separate checks of singletons or of
the support. Those rank queries do depend on what is kept: the count
asks them when its placement is derived and none when the placement is
kept, so a count on a sum whose placement an earlier step already made
reports fewer queries. Every other count asks the value of each subset
of the vector's support. A capped marginal
f(Y | h·X) counts two queries, the two capped values it is the
difference of (plus what their counts ask until they are memoised),
however it is answered: by those two values or, on a cut network, by
one augmenting search on a kept residual flow; so does its threshold
form "f(Y | h·X) >= h?" (marginal_reaches), also when bounds decide it
with no search. The leave-one-out questions
f(i | h·(X − i)) >= h for every i of a set (leave_one_out_reaches) count
two queries each, the same as asked one by one, also when one residual
search on the kept flow of X answers them all. Membership is memoised per
polymatroid and vector, so a membership already decided for the same
vector asks no query again. A solve_cover run asks the singleton values
of its target order and the base matroid's singleton ranks once, not once
per restart round, and each of its layer scans asks a candidate once.
Likewise a cover outcome that solve_cover kept on the matroid (the same
polymatroid, b, eps and caps) asks no query, and the result it returns
carries the kept run's oracle_queries. Counters are
process-global; snapshot/delta around a solver run to attribute queries to
it. A query adds to its counter in place (counters["poly_value"] += 1,
no call, so a memo hit costs one lookup and one add), and counters is
never rebound: code may hold the dict.
"""

from __future__ import annotations

counters: dict[str, int] = {"matroid_rank": 0, "poly_value": 0}


def snapshot() -> dict[str, int]:
    return dict(counters)


def delta(before: dict[str, int]) -> dict[str, int]:
    return {k: counters.get(k, 0) - before.get(k, 0) for k in counters}


def total(d: dict[str, int]) -> int:
    return sum(d.values())
