"""Brute-force semantic falsifier for entailment claims.

Enumerates annotated databases over a finite search space: rows drawn from a
given active domain, at most ``max_tuples`` rows per relation, and weights
from an explicit pool.  Returns the first database (in enumeration order)
that satisfies the assumptions and violates the query, or None when the
bounded space holds no counterexample.  A None answer refutes nothing
outside the searched space; the oracle is a falsifier, not a decider.

Enumeration order is deterministic: per-relation supports ordered by size
then lexicographically, weight assignments lexicographically over the sorted
nonzero pool, so a found counterexample is the least one in this order and
stable across runs.

The search visits the candidates in that order without building each one.
For every relation and support it lists the weight assignments once, with
their marginals on the positions the dependencies read (and their totals,
when balanced).  It then gives the relations weights one at a time, in name
order, and checks each dependency as soon as both of its relations have
weights: a failed assumption, a query that already holds (it reads only its
own two relations) or, when balanced, an unequal total skips every candidate
below.  The first survivor is re-verified through ``satisfies``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional

from .entail import Countermodel
from .errors import CountermodelError, ParseError, SearchSpaceTooLarge
from .ind import IND, format_ind, infer_schema, satisfies, validate_ind
from .kdb import Schema, make_database
from .monoid import Element, MonoidSpec

CONSTRUCTION_ENUMERATION = "enumeration"


def _support_choices(candidates: list[tuple], max_tuples: int) -> list[tuple]:
    out = []
    for size in range(min(max_tuples, len(candidates)) + 1):
        out.extend(itertools.combinations(candidates, size))
    return out


def _space_size(row_counts: list[int], pool_size: int, max_tuples: int, cap: int) -> int:
    """The number of candidate databases, or a partial count once it passes ``cap``."""
    total = 1
    for count in row_counts:
        per_rel = term = 1  # term: comb(count, k) * pool_size ** k, from k = 0
        for k in range(1, min(max_tuples, count) + 1):
            term = term * (count - k + 1) * pool_size // k
            per_rel += term
            if term == 0 or per_rel > cap:
                break
        total *= per_rel
        if total > cap:
            break
    return total


def _weightings(pool: Iterable, rows: tuple, positions: Iterable[tuple], plus,
                balanced: bool) -> list[tuple]:
    """Each weight assignment of ``rows`` over ``pool`` in lexicographic order,
    as ``(weights, marginals, total)``: ``marginals`` maps each of
    ``positions`` to the summed weight of each point, and ``total`` is the
    sum of all weights when ``balanced``, else None.  ``plus`` adds."""
    groups = {}
    for pos in positions:
        points: dict = {}
        for i, row in enumerate(rows):
            points.setdefault(tuple(row[p] for p in pos), []).append(i)
        groups[pos] = points.items()
    return [(weights,
             {pos: {point: functools.reduce(plus, [weights[i] for i in idx])
                    for point, idx in points}
              for pos, points in groups.items()},
             functools.reduce(plus, weights, 0) if balanced else None)
            for weights in itertools.product(pool, repeat=len(rows))]


def brute_force_entails(sigma: Iterable[IND], tau: IND, m: MonoidSpec, *,
                        adom: Iterable[str], weight_pool: Iterable[Element],
                        max_tuples: int, schema: Optional[Schema] = None,
                        max_candidates: int = 2_000_000) -> Optional[Countermodel]:
    """Search the bounded space for a database satisfying ``sigma`` and
    violating ``tau``."""
    return _search(sigma, tau, m, adom=adom, weight_pool=weight_pool,
                   max_tuples=max_tuples, schema=schema,
                   max_candidates=max_candidates, balanced=False)


def brute_force_balanced_entails(sigma: Iterable[IND], tau: IND, m: MonoidSpec, *,
                                 adom: Iterable[str], weight_pool: Iterable[Element],
                                 max_tuples: int, schema: Optional[Schema] = None,
                                 max_candidates: int = 2_000_000) -> Optional[Countermodel]:
    """As :func:`brute_force_entails`, restricted to balanced databases."""
    return _search(sigma, tau, m, adom=adom, weight_pool=weight_pool,
                   max_tuples=max_tuples, schema=schema,
                   max_candidates=max_candidates, balanced=True)


def _search(sigma, tau, m, *, adom, weight_pool, max_tuples, schema,
            max_candidates, balanced) -> Optional[Countermodel]:
    if not isinstance(adom, str):
        adom = list(adom)
    if isinstance(adom, str) or not all(isinstance(c, str) for c in adom):
        raise ParseError(f"adom must be a collection of constant names (strings), got {adom!r}")
    sigma = sorted(set(sigma), key=format_ind)
    if schema is None:
        schema = infer_schema(sigma + [tau])
    for s in sigma + [tau]:
        validate_ind(s, schema)

    constants = sorted(set(adom))
    pool = sorted({m.check(w) for w in weight_pool if m.check(w) != m.zero},
                  key=m.format_element)
    rels = sorted(schema.relations)
    if _space_size([len(constants) ** len(schema.relations[r]) for r in rels], len(pool),
                   max_tuples, max_candidates) > max_candidates:
        raise SearchSpaceTooLarge(
            f"the search space holds more than the cap of {max_candidates} candidate databases")
    if not pool:
        return None

    # Each dependency is checked at the depth (index in ``rels``) where both
    # of its relations have weights, once per weighting when it reads one
    # relation.  An assumption must hold and the query must fail.
    checks = [(rels.index(d.lhs_rel), schema.positions(d.lhs_rel, d.lhs_attrs),
               rels.index(d.rhs_rel), schema.positions(d.rhs_rel, d.rhs_attrs), want)
              for d, want in [(member, True) for member in sigma] + [(tau, False)]]
    depths = range(len(rels))
    used = [{c[1] for c in checks if c[0] == i} | {c[3] for c in checks if c[2] == i}
            for i in depths]
    own = [[c for c in checks if c[0] == c[2] == i] for i in depths]
    cross = [[c for c in checks if c[0] != c[2] and max(c[0], c[2]) == i] for i in depths]

    # Elements are small integers: zero is 0 and the pool is 1, 2, ...  The
    # monoid computes each sum and each comparison of two elements once.
    values = [m.zero] + pool
    ids = {value: i for i, value in enumerate(values)}
    sums: dict = {}
    known: dict = {}

    def plus(a: int, b: int) -> int:
        if (a, b) not in sums:
            value = m.add(values[a], values[b])
            if value not in ids:
                ids[value] = len(values)
                values.append(value)
            sums[a, b] = ids[value]
        return sums[a, b]

    def holds(lhs_marg: dict, rhs_marg: dict) -> bool:
        for point, a in lhs_marg.items():
            pair = (a, rhs_marg.get(point, 0))
            if pair not in known:
                known[pair] = m.leq(values[a], values[pair[1]])
            if not known[pair]:
                return False
        return True

    support_lists = [_support_choices(sorted(itertools.product(
        constants, repeat=len(schema.relations[rel]))), max_tuples) for rel in rels]
    cache: dict = {}

    def weightings(i: int, j: int) -> list:
        """The weightings of support ``j`` of relation ``i`` that pass the
        relation's own checks, built on first use."""
        if (i, j) not in cache:
            cache[i, j] = [
                entry for entry in _weightings(range(1, len(pool) + 1), support_lists[i][j],
                                               used[i], plus, balanced)
                if all(holds(entry[1][lpos], entry[1][rpos]) == want
                       for _, lpos, _, rpos, want in own[i])]
        return cache[i, j]

    def descend(supports: tuple, chosen: list) -> bool:
        """Give the relations weightings in order, depth first, skipping the
        subtree under every failed check; true, with ``chosen`` filled, at the
        first counterexample over these supports.  (Iterative: a recursive
        closure would keep itself and the cache alive in a reference cycle.)"""
        stack = [iter(weightings(0, supports[0]))]
        while stack:
            i = len(stack) - 1
            for entry in stack[i]:
                chosen[i] = entry
                if (not balanced or entry[2] == chosen[0][2]) and all(
                        holds(chosen[lhs][1][lpos], chosen[rhs][1][rpos]) == want
                        for lhs, lpos, rhs, rpos, want in cross[i]):
                    break
            else:
                stack.pop()
                continue
            if i + 1 == len(rels):
                return True
            stack.append(iter(weightings(i + 1, supports[i + 1])))
        return False

    chosen: list = [None] * len(rels)
    for supports in itertools.product(*(range(len(choices)) for choices in support_lists)):
        if not descend(supports, chosen):
            continue
        db = make_database(schema, m, {
            rel: dict(zip(support_lists[i][j], (values[w] for w in entry[0])))
            for i, (rel, j, entry) in enumerate(zip(rels, supports, chosen))
        })
        # re-verify through the marginalization path before returning
        if (any(not satisfies(db, member) for member in sigma)
                or satisfies(db, tau)):
            raise CountermodelError(
                "incremental check and marginal semantics disagree")
        return Countermodel(db, CONSTRUCTION_ENUMERATION, {})
    return None
