"""Brute-force semantic falsifier for entailment claims.

``brute_force_entails`` enumerates annotated databases over a finite search
space: rows drawn from a given active domain, at most ``max_tuples`` rows
per relation, and weights from an explicit pool; with ``balanced=True``,
only databases whose relations have equal totals.  It returns the first
database (in enumeration order) that satisfies the assumptions and violates
the query, or None when the bounded space holds no counterexample.  A None
answer refutes nothing outside the searched space; the oracle is a
falsifier, not a decider.  ``max_tuples`` and ``max_candidates`` must be
non-negative integers, and a space of more than ``max_candidates``
databases is refused before it is built.

Enumeration order is deterministic: per-relation supports ordered by size
then lexicographically, weight assignments lexicographically over the sorted
nonzero pool, so a found counterexample is the least one in this order and
stable across runs.

The search visits classes of candidates.  Each distinct marginal on the
positions the dependencies read gets a small id; a support's weight
assignments that agree on all of them (and on the total, when balanced) form
a class, which passes and fails every check alike, so its least member
stands for it.  A support's classes extend those of its parent, the support
one row shorter.  Its profile, its classes that pass its relation's own
checks, decides all it can take part in, so only the first support of each
profile is visited.  The relations take profiles in name order, keeping
every choice of classes that passes the dependencies on the relations so
far; reflexive ones hold everywhere and are not checked.  The first
survivor is certified by ``entail.verified``, its balance included.

A dependency reads marginals alone, so renaming the constants maps
counterexamples to counterexamples.  The first relation's support is
compared before anything else, so a support of it that a swap of two
constants makes smaller cannot hold the least counterexample: it is neither
built nor visited, and the answer is unchanged.  The same swap makes every
extension of such a support smaller, so only a support whose parent was
kept is tried.  A support that leaves out one of the first constants is
made smaller by a swap with it; any other is tried under the swaps of two
constants it uses, at most quadratically many.

The weights form a positive monoid: a sum of nonzero weights is nonzero,
and a nonzero weight lies below no zero.  So a marginal is nonzero exactly
at its support's points, and an assumption holds only if each point of its
left side is a point of its right side.  A support's mask holds its points
on each position list an assumption reads.  A support whose mask fails an
assumption on its own relation has no surviving class: it is not weighted,
and its classes are built only for a longer support that needs them, from
its longest prefix whose classes are kept.  When a relation is visited, the
supports chosen before it give the points its support must hold and those
it must not; a support whose mask misses one of the first or holds one of
the second is skipped, neither weighted nor paired, and weighted only when
a visit first fits it.  Supports with one profile have the same points, so
the same mask, and the first of each profile is still the one visited.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .entail import Countermodel, verified
from .errors import (
    ElementError,
    ParseError,
    SearchSpaceTooLarge,
    StarConstantError,
)
from .ind import IND, ind_sort_key, infer_schema, validate_ind
from .kdb import STAR, KDatabase, KRelation, Schema
from .monoid import Element, MonoidSpec

CONSTRUCTION_ENUMERATION = "enumeration"

MAX_CANDIDATES = 2_000_000


def _support_choices(candidates: list[tuple], max_tuples: int) -> list[tuple]:
    out = []
    for size in range(min(max_tuples, len(candidates)) + 1):
        out.extend(itertools.combinations(candidates, size))
    return out


def _renamed_smaller(rows: tuple, constants: list[str]) -> bool:
    """Whether a swap of two of the sorted ``constants`` makes the support
    ``rows`` smaller.  Swapping a used constant with an unused one replaces
    it in every row it is in, so makes the support smaller exactly when the
    unused one is smaller: only a support that uses the first constants is
    left to try the swaps of two used constants on."""
    used = {c for row in rows for c in row}
    first = constants[:len(used)]
    return used != set(first) or any(
        tuple(sorted(tuple(b if c == a else a if c == b else c for c in row)
                     for row in rows)) < rows
        for a, b in itertools.combinations(first, 2))


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


def _support_classes(rows: tuple, parent: dict, points: tuple, pool_size: int,
                     advance, plus, balanced: bool) -> dict:
    """Each class of weight assignments of the nonempty ``rows`` (weight ids
    1 to ``pool_size``), keyed by its marginal ids and, when ``balanced``,
    total, with its least member, in that order.  ``parent`` holds the
    classes of ``rows[:-1]`` and ``points`` each row's points."""
    out: dict = {}
    # A later member of a parent class gives only later assignments, in the
    # same child classes, so its least member stands for it.
    for key, least in parent.items():
        for w in range(1, pool_size + 1):
            child = tuple([advance(mid, point, w) for mid, point in zip(key, points[-1])])
            if balanced:
                child += (plus(key[-1], w),)
            if child not in out:
                out[child] = least + (w,)
    return out


def brute_force_entails(sigma: Iterable[IND], tau: IND, m: MonoidSpec, *,
                        adom: Iterable[str], weight_pool: Iterable[Element],
                        max_tuples: int, schema: Optional[Schema] = None,
                        max_candidates: int = MAX_CANDIDATES,
                        balanced: bool = False) -> Optional[Countermodel]:
    """Search the bounded space for a database satisfying ``sigma`` and
    violating ``tau``, among balanced databases only when ``balanced``."""
    for name, bound in (("max_tuples", max_tuples), ("max_candidates", max_candidates)):
        if type(bound) is not int or bound < 0:
            raise ParseError(f"{name} must be a non-negative integer, got {bound!r}")
    if not isinstance(adom, str):
        adom = list(adom)
    if isinstance(adom, str) or not all(isinstance(c, str) for c in adom):
        raise ParseError(f"adom must be a collection of constant names (strings), got {adom!r}")
    if STAR in adom:
        raise StarConstantError(f"adom must not hold the reserved constant {STAR!r}")
    sigma = sorted(set(sigma), key=ind_sort_key)
    if schema is None:
        schema = infer_schema(sigma + [tau])
    for s in sigma + [tau]:
        validate_ind(s, schema)

    constants = sorted(set(adom))
    try:
        pool = {m.check(w) for w in weight_pool}
    except ElementError as exc:
        raise ElementError(f"weight_pool: {exc}") from None
    pool = sorted(pool - {m.zero}, key=m.format_element)
    rels = sorted(schema.relations)
    if _space_size([len(constants) ** len(schema.relations[r]) for r in rels], len(pool),
                   max_tuples, max_candidates) > max_candidates:
        raise SearchSpaceTooLarge(
            f"the search space holds more than the cap of {max_candidates} candidate databases")
    if not pool or tau.is_reflexive:
        return None

    # A reflexive dependency holds in every database.  Each other one is
    # checked at the depth (index in ``rels``) where both of its relations
    # have weights; an assumption must hold and the query must fail.  A check
    # reads one slot of each side's class key: the slot of its positions.
    checks = [(rels.index(d.lhs_rel), schema.positions(d.lhs_rel, d.lhs_attrs),
               rels.index(d.rhs_rel), schema.positions(d.rhs_rel, d.rhs_attrs), want)
              for d, want in [(member, True) for member in sigma] + [(tau, False)]
              if not d.is_reflexive]
    depths = range(len(rels))
    used = [sorted({c[1] for c in checks if c[0] == i} | {c[3] for c in checks if c[2] == i})
            for i in depths]
    checks = [(lhs, used[lhs].index(lpos), rhs, used[rhs].index(rpos), want)
              for lhs, lpos, rhs, rpos, want in checks]
    own = [[c for c in checks if c[0] == c[2] == i] for i in depths]
    cross = [[c for c in checks if c[0] != c[2] and max(c[0], c[2]) == i] for i in depths]

    # Elements are small integers: zero is 0 and the pool is 1, 2, ...  So
    # are marginals, with 0 the empty one.  The monoid computes each sum
    # once, and each check is decided once per pair of marginals.
    values = [m.zero] + pool
    ids = {value: i for i, value in enumerate(values)}
    margs: list = [{}]
    marg_ids = {frozenset(): 0}
    sums, steps, known, verdicts = {}, {}, {}, {}

    def plus(a: int, b: int) -> int:
        if (a, b) not in sums:
            value = m.add(values[a], values[b])
            if value not in ids:
                ids[value] = len(values)
                values.append(value)
            sums[a, b] = ids[value]
        return sums[a, b]

    def advance(mid: int, point: tuple, w: int) -> int:
        step = (mid, point, w)
        if step not in steps:
            marg = margs[mid].copy()
            marg[point] = plus(marg.get(point, 0), w)
            steps[step] = marg_ids.setdefault(frozenset(marg.items()), len(margs))
            if steps[step] == len(margs):
                margs.append(marg)
        return steps[step]

    def leq(a: int, b: int) -> bool:
        if (a, b) not in known:
            known[a, b] = m.leq(values[a], values[b])
        return known[a, b]

    def holds(lhs: int, rhs: int) -> bool:
        if (lhs, rhs) not in verdicts:
            rhs_marg = margs[rhs]
            verdicts[lhs, rhs] = all(leq(a, rhs_marg.get(point, 0))
                                     for point, a in margs[lhs].items())
        return verdicts[lhs, rhs]

    rows_of = [sorted(itertools.product(constants, repeat=len(schema.relations[rel])))
               for rel in rels]
    support_lists = [_support_choices(rows, max_tuples) for rows in rows_of]
    points = [{row: tuple(tuple(row[p] for p in pos) for pos in used[i]) for row in rows_of[i]}
              for i in depths]
    # A support's mask holds its points on each slot an assumption reads:
    # slot k's from bit k * width, one bit per point.  By positivity an
    # assumption holds only if its left slot's points are among its right's.
    asserted = [{c[1] for c in checks if c[4] and c[0] == i}
                | {c[3] for c in checks if c[4] and c[2] == i} for i in depths]
    longest = max((len(used[i][k]) for i in depths for k in asserted[i]), default=0)
    width = max(len(constants), 1) ** longest
    full = (1 << width) - 1
    place = {point: n for size in range(longest + 1)
             for n, point in enumerate(itertools.product(constants, repeat=size))}
    bits = [{row: sum(1 << k * width + place[pts[k]] for k in asserted[i])
             for row, pts in points[i].items()} for i in depths]
    # A support's classes depend only on its rows' points, so they are kept
    # by those (for supports that can still be parents) and built once.
    tables = [{(): {(0,) * (len(used[i]) + balanced): ()}} for i in depths]
    masks: list = [{} for _ in rels]  # by points, for each support listed or ruled out
    entries: list = [[] for _ in rels]  # [mask, rows, points, survivors once weighted]
    seen: list = [set() for _ in rels]
    built = [0] * len(rels)
    chosen = [0] * len(rels)  # the mask of the support visited at each depth
    kept = {()}  # the supports of relation 0 that no swap makes smaller

    def weigh(i: int, rows: tuple, seq: tuple) -> dict:
        """The classes of the support ``rows`` of relation ``i``, whose
        points are ``seq``, built on those of its longest prefix kept."""
        n = len(seq)
        while seq[:n] not in tables[i]:
            n -= 1
        classes = tables[i][seq[:n]]
        for n in range(n + 1, len(seq) + 1):
            classes = _support_classes(rows[:n], classes, seq[:n], len(pool), advance, plus,
                                       balanced)
            if n < max_tuples:
                tables[i][seq[:n]] = classes
        return classes

    def profiles(i: int):
        """The surviving classes of the first support of each nonempty
        profile of relation ``i``, in support order, as (key, rows, least
        member), skipping each support whose points cannot fit those of the
        supports chosen before it.  Relation ``i``'s supports are listed
        once, each with its mask unless its points fail its own assumptions,
        and weighted when first fitted; the list is shared by every visit."""
        need = forbid = 0
        for lhs, lpos, rhs, rpos, want in cross[i]:
            if want and lhs < i:
                need |= ((chosen[lhs] >> lpos * width) & full) << rpos * width
            elif want:
                forbid |= (full & ~(chosen[rhs] >> rpos * width)) << lpos * width
        for k in itertools.count():
            while k == len(entries[i]) and built[i] < len(support_lists[i]):
                rows = support_lists[i][built[i]]
                built[i] += 1
                if i == 0:
                    # a swap that makes a support smaller makes its extensions smaller
                    if rows[:-1] not in kept or _renamed_smaller(rows, constants):
                        continue
                    kept.add(rows)
                seq = tuple(points[i][row] for row in rows)
                if seq in masks[i]:
                    continue
                mask = masks[i][seq] = (masks[i][seq[:-1]] | bits[i][rows[-1]]) if rows else 0
                if not any((mask >> lhs * width) & ~(mask >> rhs * width) & full
                           for _, lhs, _, rhs, want in own[i] if want):
                    entries[i].append([mask, rows, seq, None])
            if k == len(entries[i]):
                return
            entry = entries[i][k]
            if entry is None or entry[0] & need != need or entry[0] & forbid:
                continue
            if entry[3] is None:
                _, rows, seq, _ = entry
                survivors = [(key, rows, least) for key, least in weigh(i, rows, seq).items()
                             if all(holds(key[lhs], key[rhs]) == want
                                    for _, lhs, _, rhs, want in own[i])]
                profile = tuple(key for key, _, _ in survivors)
                if not survivors or profile in seen[i]:
                    entries[i][k] = None
                    continue
                seen[i].add(profile)
                entry[3] = survivors
            chosen[i] = entry[0]
            yield entry[3]

    def extend(frontier: list, classes: list, i: int):
        """Each choice in ``frontier`` (a class per relation before ``i``)
        extended by each of ``classes`` that passes the checks of depth ``i``."""
        for picks in frontier:
            for pick in classes:
                picks_i = picks + (pick,)
                if balanced and pick[0][-1] != picks_i[0][0][-1]:
                    continue
                for lhs, lpos, rhs, rpos, want in cross[i]:
                    if holds(picks_i[lhs][0][lpos], picks_i[rhs][0][rpos]) != want:
                        break
                else:
                    yield picks_i

    # Depth first over profiles; the first surviving choice for the last
    # relation is the least counterexample.
    frontiers: list = [[()]] + [None] * len(rels)
    stack, picks = [profiles(0)], None
    while stack and picks is None:
        i = len(stack) - 1
        classes = next(stack[i], None)
        if classes is None:
            stack.pop()
        elif i + 1 < len(rels):
            frontiers[i + 1] = list(extend(frontiers[i], classes, i))
            if frontiers[i + 1]:
                stack.append(profiles(i + 1))
        else:
            picks = next(extend(frontiers[i], classes, i), None)
    if picks is None:
        return None
    # pool elements are checked and nonzero, and rows are drawn from adom
    db = KDatabase(schema, m, {
        rel: KRelation(schema.relations[rel], dict(zip(rows, (values[w] for w in least))))
        for rel, (_, rows, least) in zip(rels, picks)})
    return verified(db, CONSTRUCTION_ENUMERATION, {}, sigma, tau, balanced)


def brute_force_balanced_entails(sigma: Iterable[IND], tau: IND, m: MonoidSpec,
                                 **kwargs) -> Optional[Countermodel]:
    """:func:`brute_force_entails` with ``balanced=True``."""
    return brute_force_entails(sigma, tau, m, balanced=True, **kwargs)
