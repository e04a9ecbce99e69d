"""Chase procedures for inclusion dependencies.

Two variants:

* the classical chase, which repairs a violated dependency by inserting the
  star-padded witness tuple into the right-hand relation (always terminates,
  unique result);
* the additive chase, which adds exactly the missing weight to the single
  star-padded tuple.  It requires a weakly cancellative monoid with a total
  natural order (so the missing weight is a well-defined difference), may
  not terminate in general, but terminates whenever the dependency set is
  closed under the standard rules plus weak symmetry.

Both record replayable traces.  The additive chase runs a deterministic
round-robin schedule over all pairs (dependency, witness point) with
witnesses drawn from the start database's active domain plus the star
constant; chase steps introduce no other values, so this pool is closed, and
cycling through it is a fair schedule (every violated pair is eventually
repaired because each applied step equalizes its marginal).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidConfig, MonoidMismatch, UnsupportedMonoid
from .ind import IND, format_ind, ind_sort_key, validate_ind
from .kdb import STAR, KDatabase, Row, Schema, adom, make_database
from .monoid import BOOLEAN, Element, MonoidSpec

KIND_RULE_STAR = "rule_star"
KIND_PLUS_RULE = "plus_rule"

OUTCOME_TERMINATED = "terminated"
OUTCOME_STEP_LIMIT = "step_limit_exceeded"


@dataclass(frozen=True)
class ChaseConfig:
    step_limit: int = 10_000

    def __post_init__(self) -> None:
        if self.step_limit < 1:
            raise InvalidConfig(f"step limit must be at least 1, got {self.step_limit}")


@dataclass(frozen=True)
class ChaseStep:
    kind: str
    sigma: IND
    witness: Row
    incremented: Row
    delta: Optional[Element] = None  # nonzero, additive steps only


@dataclass
class ChaseTrace:
    start: KDatabase
    steps: list[ChaseStep]
    outcome: str
    result: KDatabase

    @property
    def terminated(self) -> bool:
        return self.outcome == OUTCOME_TERMINATED


def star_padded(layout: tuple[str, ...], attrs: tuple[str, ...], witness: Row) -> Row:
    """The tuple sending ``attrs`` to ``witness`` and every other attribute
    to the star constant."""
    values = dict(zip(attrs, witness))
    return tuple(values.get(a, STAR) for a in layout)


def canonical_start(tau: IND, schema: Schema, monoid: MonoidSpec) -> KDatabase:
    """Single-tuple start for ``tau``: the i-th left-hand attribute holds the
    constant str(i+1), everything else holds the star.  The tuple weighs 1,
    which must be an element of ``monoid`` (boolean for the classical chase,
    the naturals for the additive one)."""
    witness = tuple(str(i + 1) for i in range(tau.arity))
    row = star_padded(schema.attributes(tau.lhs_rel), tau.lhs_attrs, witness)
    return make_database(schema, monoid, {tau.lhs_rel: {row: 1}})


def _positions(schema: Schema, sigma: IND) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (schema.positions(sigma.lhs_rel, sigma.lhs_attrs),
            schema.positions(sigma.rhs_rel, sigma.rhs_attrs))


def _marginal_at(weights: dict[Row, Element], positions: tuple[int, ...],
                 point: Row, m: MonoidSpec) -> Element:
    total = m.zero
    for row, w in weights.items():
        ok = True
        for i, v in zip(positions, point):
            if row[i] != v:
                ok = False
                break
        if ok:
            total = m.add(total, w)
    return total


def applicable(db: KDatabase, sigma: IND, witness: Row) -> bool:
    """True iff the left marginal at the witness is not below the right one."""
    if not db.monoid.has_total_wc_order:
        raise UnsupportedMonoid(
            f"the additive chase needs a total weakly cancellative order; {db.monoid.name} lacks one")
    validate_ind(sigma, db.schema)
    lhs_pos, rhs_pos = _positions(db.schema, sigma)
    m = db.monoid
    lhs = _marginal_at(db.relation(sigma.lhs_rel).weights, lhs_pos, witness, m)
    rhs = _marginal_at(db.relation(sigma.rhs_rel).weights, rhs_pos, witness, m)
    return not m.leq(lhs, rhs)


def plus_chase(db: KDatabase, sigma: Iterable[IND],
               config: Optional[ChaseConfig] = None) -> ChaseTrace:
    """Run the additive chase to completion or to the step limit."""
    cfg = config or ChaseConfig()
    m = db.monoid
    if not m.has_total_wc_order:
        raise UnsupportedMonoid(
            f"the additive chase needs a total weakly cancellative order; {m.name} lacks one")
    inds = sorted(set(sigma), key=ind_sort_key)
    for s in inds:
        validate_ind(s, db.schema)

    pool = sorted(adom(db) | {STAR})
    pairs: list[tuple[IND, Row, tuple[int, ...], tuple[int, ...], tuple[str, ...]]] = []
    for s in inds:
        lhs_pos, rhs_pos = _positions(db.schema, s)
        layout = db.schema.attributes(s.rhs_rel)
        for witness in itertools.product(pool, repeat=s.arity):
            pairs.append((s, witness, lhs_pos, rhs_pos, layout))

    work = {rel: dict(kr.weights) for rel, kr in db.relations.items()}
    steps: list[ChaseStep] = []
    outcome = OUTCOME_TERMINATED
    if pairs:
        index = 0
        idle = 0
        while idle < len(pairs):
            s, witness, lhs_pos, rhs_pos, layout = pairs[index]
            index = (index + 1) % len(pairs)
            lhs = _marginal_at(work[s.lhs_rel], lhs_pos, witness, m)
            rhs = _marginal_at(work[s.rhs_rel], rhs_pos, witness, m)
            if m.leq(lhs, rhs):
                idle += 1
                continue
            if len(steps) >= cfg.step_limit:
                outcome = OUTCOME_STEP_LIMIT
                break
            delta = m.monus(lhs, rhs)
            target = star_padded(layout, s.rhs_attrs, witness)
            prior = work[s.rhs_rel].get(target, m.zero)
            work[s.rhs_rel][target] = m.add(prior, delta)
            steps.append(ChaseStep(KIND_PLUS_RULE, s, witness, target, delta))
            idle = 0

    result = make_database(db.schema, m, work)
    return ChaseTrace(db.copy(), steps, outcome, result)


def classical_chase(db: KDatabase, sigma: Iterable[IND]) -> tuple[KDatabase, ChaseTrace]:
    """Close a boolean-weighted database under the star-padding repair rule.

    The closure is finite (tuples range over the start's active domain plus
    the star) and independent of application order; the deterministic order
    used here makes traces reproducible.
    """
    if db.monoid != BOOLEAN:
        raise MonoidMismatch("the classical chase operates on boolean-weighted databases")
    inds = sorted(set(sigma), key=ind_sort_key)
    prepared = []
    for s in inds:
        validate_ind(s, db.schema)
        lhs_pos, _ = _positions(db.schema, s)
        prepared.append((s, lhs_pos, db.schema.attributes(s.rhs_rel)))

    work: dict[str, set[Row]] = {rel: set(kr.weights) for rel, kr in db.relations.items()}
    steps: list[ChaseStep] = []
    changed = True
    while changed:
        changed = False
        for s, lhs_pos, layout in prepared:
            for row in sorted(work[s.lhs_rel]):
                witness = tuple(row[i] for i in lhs_pos)
                target = star_padded(layout, s.rhs_attrs, witness)
                if target not in work[s.rhs_rel]:
                    work[s.rhs_rel].add(target)
                    steps.append(ChaseStep(KIND_RULE_STAR, s, witness, target))
                    changed = True

    result = make_database(db.schema, BOOLEAN,
                           {rel: {row: 1 for row in rows} for rel, rows in work.items()})
    return result, ChaseTrace(db.copy(), steps, OUTCOME_TERMINATED, result)


def replay(trace: ChaseTrace) -> KDatabase:
    """Re-apply the recorded steps to the start database.

    The rebuilt database must equal the recorded result bit for bit; this is
    the integrity check for serialized traces.
    """
    db = trace.start
    m = db.monoid
    work = {rel: dict(kr.weights) for rel, kr in db.relations.items()}
    for step in trace.steps:
        if step.kind == KIND_RULE_STAR:
            work[step.sigma.rhs_rel][step.incremented] = 1
        else:
            prior = work[step.sigma.rhs_rel].get(step.incremented, m.zero)
            work[step.sigma.rhs_rel][step.incremented] = m.add(prior, step.delta)
    return make_database(db.schema, m, work)


def trace_to_json(trace: ChaseTrace) -> dict:
    from .kdb import dump_database

    m = trace.start.monoid
    return {
        "outcome": trace.outcome,
        "start": dump_database(trace.start),
        "steps": [
            {
                "kind": step.kind,
                "sigma": format_ind(step.sigma),
                "witness": list(step.witness),
                "tuple": list(step.incremented),
                **({"delta": m.format_element(step.delta)} if step.delta is not None else {}),
            }
            for step in trace.steps
        ],
        "result": dump_database(trace.result),
    }
