"""Shared generators and grid definitions for the property and acceptance suites."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st
from kindb.chase import (
    KIND_PLUS_RULE,
    KIND_RULE_STAR,
    OUTCOME_STEP_LIMIT,
    OUTCOME_TERMINATED,
    ChaseStep,
    ChaseTrace,
    star_padded,
)
from kindb.ind import IND, format_ind, ind_sort_key, infer_schema, inverse, parse_ind, validate_ind
from kindb.infer import (
    RULE_AXIOM,
    RULE_BALANCE,
    RULE_PROJECT_PERMUTE,
    RULE_REFLEXIVITY,
    RULE_TRANSITIVITY,
    RULE_WEAK_SYMMETRY,
    DerivationProof,
    RuleSystem,
    project_permute,
    transitivity,
)
from kindb.errors import ElementError, ParseError, StarConstantError
from kindb.kdb import STAR, KDatabase, KRelation, Schema, make_database, parse_json, schema_of
from kindb.monoid import (
    BOOLEAN,
    MAX_NATURALS,
    NATURALS,
    NONNEG_RATIONALS,
    UNBOUNDED,
    MonogenicMonoid,
    MonoidSpec,
    parse_monoid,
)

MONO23 = MonogenicMonoid(2, 3)

BUILTIN_MONOIDS = [BOOLEAN, NATURALS, NONNEG_RATIONALS, MAX_NATURALS, MONO23]

WEIGHT_POOLS = {
    "boolean": [1],
    "naturals": [1, 2, 3, 5],
    "nonneg_rationals": [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)],
    "max_naturals": [1, 2, 3],
    "monogenic:2,3": [1, 2, 3, 4],
}


def random_database(rng: random.Random, schema: Schema, m: MonoidSpec,
                    consts=("a", "b", "c"), max_rows: int = 4, pool=None) -> KDatabase:
    """Up to ``max_rows`` rows per relation, weights drawn from ``pool``
    (default: the carrier's pool in ``WEIGHT_POOLS``)."""
    pool = pool or WEIGHT_POOLS[m.name]
    weights = {}
    for rel, attrs in schema.relations.items():
        rows = {}
        for _ in range(rng.randint(0, max_rows)):
            row = tuple(rng.choice(consts) for _ in attrs)
            rows[row] = rng.choice(pool)
        weights[rel] = rows
    return make_database(schema, m, weights)


def make_balanced(rng: random.Random, db: KDatabase) -> KDatabase:
    """Pad each relation with a fresh row so all totals agree.

    The target total is any element at least as large as every relation
    total; the padding weight is a witness for the corresponding gap.
    """
    m = db.monoid
    totals = {rel: kr.total(m) for rel, kr in db.relations.items()}
    if m.is_finite:
        target = None
        for cand in m.elements():
            if all(m.leq(t, cand) for t in totals.values()):
                target = cand
                break
        if target is None:
            raise AssertionError(f"no dominating total in {m.name}")
    else:
        target = max(totals.values())  # total numeric order for the builtins
    weights = {}
    for rel, kr in db.relations.items():
        rows = dict(kr.weights)
        if totals[rel] != target:
            if m.is_finite:
                gap = next(c for c in m.elements() if m.add(totals[rel], c) == target)
            elif m.name == "max_naturals":
                gap = target
            else:
                gap = m.monus(target, totals[rel])
            if gap != m.zero:
                pad = tuple(f"pad{rng.randint(0, 10 ** 6)}" for _ in kr.attributes)
                rows[pad] = m.add(rows.get(pad, m.zero), gap)
        weights[rel] = rows
    out = make_database(db.schema, m, weights)
    return out


def ind_universe(schema: Schema, max_arity: int) -> list[IND]:
    """Every dependency over the schema with distinct attribute sequences of
    arity up to the bound."""
    seqs = {}
    for rel, attrs in schema.relations.items():
        seqs[rel] = [seq for length in range(max_arity + 1)
                     for seq in itertools.permutations(attrs, length)]
    out = []
    for lhs_rel in sorted(schema.relations):
        for rhs_rel in sorted(schema.relations):
            for lhs in seqs[lhs_rel]:
                for rhs in seqs[rhs_rel]:
                    if len(lhs) == len(rhs):
                        out.append(IND(lhs_rel, lhs, rhs_rel, rhs))
    return out


@st.composite
def schemas(draw, relations=4, arity=3):
    """A hypothesis strategy: one to ``relations`` relations, named R, S, T
    and U in turn, each of arity zero to ``arity``."""
    rels = ["R", "S", "T", "U"][:draw(st.integers(1, relations))]
    return schema_of({rel: tuple(f"{rel}{i}" for i in range(draw(st.integers(0, arity))))
                      for rel in rels})


@st.composite
def dependencies(draw, schema):
    """A hypothesis strategy: any dependency over ``schema``, both sides
    possibly the same relation."""
    rels = sorted(schema.relations)
    lhs, rhs = draw(st.sampled_from(rels)), draw(st.sampled_from(rels))
    k = draw(st.integers(0, min(len(schema.relations[lhs]), len(schema.relations[rhs]))))
    return IND(lhs, tuple(draw(st.permutations(schema.relations[lhs]))[:k]),
               rhs, tuple(draw(st.permutations(schema.relations[rhs]))[:k]))


# -- the entailment-equivalence grid -----------------------------------------

GRID_SCHEMA = schema_of({"R": ("A", "B"), "S": ("C", "D", "E")})

GRID_SIGMA_POOL = [parse_ind(t) for t in (
    "R[A] <= S[C]",
    "S[C] <= R[A]",
    "R[A,B] <= S[C,D]",
    "S[C,D] <= R[A,B]",
    "R[A] <= R[B]",
    "S[C,D] <= S[D,E]",
    "R[] <= S[]",
    "S[] <= R[]",
    "S[D] <= R[A]",
    "R[A,B] <= R[B,A]",
)]

GRID_TAUS = ind_universe(GRID_SCHEMA, max_arity=2)


def grid_sigmas(max_size: int = 3) -> list[frozenset]:
    out = []
    for size in range(max_size + 1):
        for combo in itertools.combinations(GRID_SIGMA_POOL, size):
            out.append(frozenset(combo))
    return out


# -- reference falsifier -----------------------------------------------------

def reference_search(sigma, tau, m: MonoidSpec, *, adom, weight_pool, max_tuples: int,
                     schema=None, balanced: bool = False):
    """The bounded falsifier as a flat loop: every candidate database in the
    enumeration order of :mod:`kindb.oracle`, each checked whole, no pruning
    and no cap.  Returns the least counterexample's database, or None."""
    sigma = sorted(set(sigma), key=format_ind)
    if schema is None:
        schema = infer_schema(sigma + [tau])
    constants = sorted(str(c) for c in set(adom))
    pool = sorted({m.check(w) for w in weight_pool if m.check(w) != m.zero},
                  key=m.format_element)
    if not pool:
        return None
    rels = sorted(schema.relations)
    support_lists = []
    for rel in rels:
        rows = sorted(itertools.product(constants, repeat=len(schema.relations[rel])))
        support_lists.append([support for size in range(min(max_tuples, len(rows)) + 1)
                              for support in itertools.combinations(rows, size)])
    zero = m.zero

    def holds(s, by_rel, weights) -> bool:
        lpos = schema.positions(s.lhs_rel, s.lhs_attrs)
        rpos = schema.positions(s.rhs_rel, s.rhs_attrs)
        lhs, rhs = {}, {}
        for rel, pos, out in ((s.lhs_rel, lpos, lhs), (s.rhs_rel, rpos, rhs)):
            for row, w in zip(by_rel[rel], weights[rel]):
                point = tuple(row[p] for p in pos)
                out[point] = m.add(out.get(point, zero), w)
        return all(m.leq(v, rhs.get(point, zero)) for point, v in lhs.items())

    for supports in itertools.product(*support_lists):
        by_rel = dict(zip(rels, supports))
        axes = [itertools.product(pool, repeat=len(rows)) for rows in supports]
        for assignment in itertools.product(*axes):
            weights = dict(zip(rels, assignment))
            if balanced and len({m.add_all(ws) for ws in assignment}) > 1:
                continue
            if all(holds(s, by_rel, weights) for s in sigma) \
                    and not holds(tau, by_rel, weights):
                return make_database(schema, m, {
                    rel: dict(zip(by_rel[rel], weights[rel])) for rel in rels})
    return None


# -- reference additive chase --------------------------------------------------

def witness_pool(db: KDatabase) -> list[str]:
    """The values of ``db`` plus the star, sorted: every value a chase of
    ``db`` can write."""
    return sorted({v for kr in db.relations.values() for row in kr.weights for v in row} | {STAR})


def reference_marginal_at(weights, positions, point, m: MonoidSpec):
    """The summed weight of the rows that agree with ``point`` on ``positions``."""
    total = m.zero
    for row, w in weights.items():
        if all(row[i] == v for i, v in zip(positions, point)):
            total = m.add(total, w)
    return total


def reference_plus_chase(db: KDatabase, sigma, step_limit: int = 10_000) -> ChaseTrace:
    """The additive chase as a round-robin over every (dependency, witness)
    pair, witnesses drawn from the start's active domain plus the star, each
    visit re-summing both marginals; stops after a full cycle of idle pairs.
    Same visiting order as :func:`kindb.chase.plus_chase`."""
    m = db.monoid
    inds = sorted(set(sigma), key=ind_sort_key)
    pool = witness_pool(db)
    pairs = []
    for s in inds:
        lhs_pos = db.schema.positions(s.lhs_rel, s.lhs_attrs)
        rhs_pos = db.schema.positions(s.rhs_rel, s.rhs_attrs)
        layout = db.schema.attributes(s.rhs_rel)
        for witness in itertools.product(pool, repeat=s.arity):
            pairs.append((s, witness, lhs_pos, rhs_pos, layout))

    work = {rel: dict(kr.weights) for rel, kr in db.relations.items()}
    steps = []
    outcome = OUTCOME_TERMINATED
    index = idle = 0
    while idle < len(pairs):
        s, witness, lhs_pos, rhs_pos, layout = pairs[index]
        index = (index + 1) % len(pairs)
        lhs = reference_marginal_at(work[s.lhs_rel], lhs_pos, witness, m)
        rhs = reference_marginal_at(work[s.rhs_rel], rhs_pos, witness, m)
        if m.leq(lhs, rhs):
            idle += 1
            continue
        if len(steps) >= step_limit:
            outcome = OUTCOME_STEP_LIMIT
            break
        delta = m.monus(lhs, rhs)
        target = star_padded(layout, s.rhs_attrs, witness)
        work[s.rhs_rel][target] = m.add(work[s.rhs_rel].get(target, m.zero), delta)
        steps.append(ChaseStep(KIND_PLUS_RULE, s, witness, target, delta))
        idle = 0
    return ChaseTrace(db.copy(), steps, outcome, make_database(db.schema, m, work))


# -- reference loader -----------------------------------------------------------

def reference_load_database(obj, allow_star: bool = False) -> KDatabase:
    """The database loader as a plain loop: each cell read and checked by
    name, each weight parsed and summed into its row, and zero sums dropped
    once every row is read.  Same errors as :func:`kindb.kdb.load_database`."""
    if isinstance(obj, str):
        obj = parse_json(obj)
    if not isinstance(obj, dict):
        raise ParseError("database document must be a JSON object")
    try:
        monoid = parse_monoid(obj["monoid"])
        raw_schema = obj["schema"]
    except KeyError as exc:
        raise ParseError(f"database document is missing {exc}") from None
    if not isinstance(raw_schema, dict) or not all(
            isinstance(attrs, list) and all(isinstance(a, str) for a in attrs)
            for attrs in raw_schema.values()):
        raise ParseError('"schema" must map each relation to a list of attribute names')
    schema = schema_of(raw_schema)
    relations = obj.get("relations", {})
    if not isinstance(relations, dict) or not all(
            isinstance(rows, list) for rows in relations.values()):
        raise ParseError('"relations" must map each relation to a list of rows')
    weights = {}
    for rel, rows in relations.items():
        attrs = schema.attributes(rel)
        rel_weights = weights[rel] = {}
        for entry in rows:
            if not isinstance(entry, dict):
                fault = "not an object"
            elif "tuple" not in entry:
                fault = 'no "tuple" key'
            elif not isinstance(entry["tuple"], dict):
                fault = '"tuple" must be an object'
            elif "weight" not in entry:
                fault = 'no "weight" key'
            else:
                fault = None
            if fault:
                raise ParseError(f"malformed row entry in relation {rel} ({fault}): {entry!r}")
            mapping = entry["tuple"]
            if mapping.keys() != set(attrs):
                raise ParseError(
                    f"row for {rel} must assign exactly the attributes {list(attrs)} "
                    f'("tuple" assigns {list(mapping)})')
            row = []
            for a in attrs:
                v = mapping[a]
                if type(v) is not str:
                    if type(v) not in (int, float):
                        raise ParseError(
                            f"{rel}.{a} must be a string or a number, got {v!r}")
                    v = str(v)
                row.append(v)
            row = tuple(row)
            if not allow_star and STAR in row:
                raise StarConstantError(
                    f"the constant {STAR!r} is reserved and cannot appear in input data")
            try:
                w = monoid.parse_element(str(entry["weight"]))
            except ElementError as exc:
                raise ElementError(f"{rel}.weight: {exc}") from None
            rel_weights[row] = monoid.add(rel_weights.get(row, monoid.zero), w)
    return KDatabase(schema, monoid, {
        rel: KRelation(attrs, {row: w for row, w in weights.get(rel, {}).items()
                               if w != monoid.zero})
        for rel, attrs in schema.relations.items()})


# -- reference classical chase ------------------------------------------------

def reference_classical_chase(db: KDatabase, sigma) -> ChaseTrace:
    """The classical chase as passes over the dependencies in canonical
    order, each re-reading every row of its left relation (sorted), until a
    pass adds nothing."""
    inds = sorted(set(sigma), key=ind_sort_key)
    work = {rel: set(kr.weights) for rel, kr in db.relations.items()}
    steps = []
    changed = True
    while changed:
        changed = False
        for s in inds:
            lhs_pos = db.schema.positions(s.lhs_rel, s.lhs_attrs)
            layout = db.schema.attributes(s.rhs_rel)
            for row in sorted(work[s.lhs_rel]):
                witness = tuple(row[i] for i in lhs_pos)
                target = star_padded(layout, s.rhs_attrs, witness)
                if target not in work[s.rhs_rel]:
                    work[s.rhs_rel].add(target)
                    steps.append(ChaseStep(KIND_RULE_STAR, s, witness, target))
                    changed = True
    result = make_database(db.schema, db.monoid,
                           {rel: dict.fromkeys(rows, 1) for rel, rows in work.items()})
    return ChaseTrace(db.copy(), steps, OUTCOME_TERMINATED, result)


# -- reference saturation --------------------------------------------------------

def balance_instances(sigma, tau) -> set[IND]:
    """All arity-0 dependencies between the relations the input mentions:
    the balance axioms as assumptions, against which the balance flag of a
    rule system is checked."""
    mentioned = {r for s in [*sigma, tau] for r in (s.lhs_rel, s.rhs_rel)}
    return {IND(a, (), b, ()) for a in mentioned for b in mentioned if a != b}


def reference_closure(sigma, system: RuleSystem, schema: Schema) -> dict:
    """Derivability as a fixpoint: every index selection of the assumptions,
    the arity-0 reflexivity seeds and, where they apply, the balance
    instances, closed under transitivity and weak symmetry by rescanning
    every pair until nothing changes.  Positive-arity reflexive facts are
    left out.  Returns each fact with its derivation, in canonical order."""
    proofs = {}

    def admit(ind, proof) -> bool:
        if ind.is_reflexive and ind.arity > 0:
            return False
        if ind in proofs:
            return False
        proofs[ind] = proof
        return True

    for member in sorted(set(sigma), key=ind_sort_key):
        validate_ind(member, schema)
        axiom = DerivationProof(RULE_AXIOM, member)
        for length in range(member.arity + 1):
            for selection in itertools.permutations(range(member.arity), length):
                image = project_permute(member, selection)
                if selection == tuple(range(member.arity)):
                    admit(image, axiom)
                else:
                    admit(image, DerivationProof(
                        RULE_PROJECT_PERMUTE, image, (axiom,), tuple(selection)))

    for rel in sorted(schema.relations):
        seed = IND(rel, (), rel, ())
        admit(seed, DerivationProof(RULE_REFLEXIVITY, seed))

    if system.has_balance:
        for lhs in sorted(schema.relations):
            for rhs in sorted(schema.relations):
                if lhs != rhs:
                    axiom = IND(lhs, (), rhs, ())
                    admit(axiom, DerivationProof(RULE_BALANCE, axiom))

    changed = True
    while changed:
        changed = False
        members = sorted(proofs, key=ind_sort_key)
        for s1 in members:
            for s2 in members:
                if s1.rhs_rel == s2.lhs_rel and s1.rhs_attrs == s2.lhs_attrs:
                    conclusion = transitivity(s1, s2)
                    if admit(conclusion, DerivationProof(
                            RULE_TRANSITIVITY, conclusion, (proofs[s1], proofs[s2]))):
                        changed = True
        if system.has_weak_symmetry:
            for s1 in members:
                premise = IND(s1.rhs_rel, (), s1.lhs_rel, ())
                if premise in proofs:
                    conclusion = inverse(s1)
                    if admit(conclusion, DerivationProof(
                            RULE_WEAK_SYMMETRY, conclusion,
                            (proofs[s1], proofs[premise]))):
                        changed = True
    return {ind: proofs[ind] for ind in sorted(proofs, key=ind_sort_key)}


# -- reference classifier --------------------------------------------------------

def reference_classify(m: MonoidSpec, k_bound: int = 8) -> dict:
    """Classify a finite monoid from the definitions, in the form of
    ``PropertyReport.as_dict``: a positivity scan over every pair, the
    absorbing pairs, an absorption-chain frontier probed up to ``k_bound``
    steps, and the natural order by witness search."""
    carrier = list(m.elements())
    zero = m.zero
    nonzero = [x for x in carrier if x != zero]

    positive = all(
        m.add(a, b) != zero
        for a in carrier for b in carrier
        if a != zero or b != zero
    )
    absorptions = {(a, b) for a in nonzero for b in nonzero if m.add(a, b) == b}
    wa = bool(absorptions)
    sa = any(a == b for a, b in absorptions)
    # A finite carrier bounds every absorption chain, so an infinite chain
    # exists exactly when the absorption graph has a cycle; commutativity
    # collapses every cycle to a nonzero idempotent.
    ca = sa
    if sa:
        k_max = UNBOUNDED
    else:
        k_max = 0
        frontier = set(nonzero)
        for k in range(1, k_bound + 1):
            frontier = {b for a, b in absorptions if a in frontier}
            if not frontier:
                break
            k_max = k

    leq = {(a, b) for a in carrier for b in carrier
           if any(m.add(a, c) == b for c in carrier)}
    total = all((a, b) in leq or (b, a) in leq for a in carrier for b in carrier)
    antisym = all(not ((a, b) in leq and (b, a) in leq) or a == b
                  for a in carrier for b in carrier)

    return {
        "positive": positive,
        "weakly_cancellative": not wa,
        "weakly_absorptive": wa,
        "self_absorptive": sa,
        "k_absorptive_max": k_max,
        "countably_absorptive": ca,
        "natural_order_total": total,
        "natural_order_antisymmetric": antisym,
        "provenance": "computed",
    }
