"""Chase procedures for inclusion dependencies.

Two variants:

* the classical chase, which repairs a violated dependency by inserting the
  star-padded witness tuple into the right-hand relation (always terminates,
  unique result);
* the additive chase, which adds exactly the missing weight to the single
  star-padded tuple.  It requires a weakly cancellative monoid with a total
  natural order (so the missing weight is a well-defined difference), may
  not terminate in general, but terminates whenever the dependency set is
  closed under the standard rules plus weak symmetry.  Entailment chases by
  the assumptions and their weak-symmetry reversals only (the members of
  ``infer.DerivationGraph``), which have the closure's models.  For that list
  no termination proof is written down: the step limit guards it, and a
  differential test on random inputs checks that it terminates and agrees
  with derivability.

Both record replayable traces.  The additive chase makes passes over the
dependencies in canonical order; for each it visits the points of the left
marginal in sorted order.  Elsewhere the left side weighs zero, so no step
applies there.  A step equalizes the marginals at its witness; a point it
adds to a dependency's own left marginal is still visited in the same pass
when it sorts after the witness.  The chase stops after a pass with no step.
The result of a terminating chase depends on this order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidConfig, MonoidMismatch, UnsupportedMonoid
from .ind import IND, format_ind, ind_sort_key, validate_ind
from .kdb import STAR, KDatabase, KRelation, Row, Schema, make_database, marginalize
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


def _require_wc_order(m: MonoidSpec) -> None:
    if not m.has_total_wc_order:
        raise UnsupportedMonoid(
            f"the additive chase needs a total weakly cancellative order; {m.name} lacks one")


def applicable(db: KDatabase, sigma: IND, witness: Row) -> bool:
    """True iff the left marginal at the witness is not below the right one."""
    m = db.monoid
    _require_wc_order(m)
    validate_ind(sigma, db.schema)
    lhs = marginalize(db.relation(sigma.lhs_rel), sigma.lhs_attrs, m).weights
    rhs = marginalize(db.relation(sigma.rhs_rel), sigma.rhs_attrs, m).weights
    return not m.leq(lhs.get(witness, m.zero), rhs.get(witness, m.zero))


def plus_chase(db: KDatabase, sigma: Iterable[IND],
               config: Optional[ChaseConfig] = None) -> ChaseTrace:
    """Run the additive chase to completion or to the step limit."""
    cfg = config or ChaseConfig()
    m = db.monoid
    _require_wc_order(m)
    inds = sorted(set(sigma), key=ind_sort_key)
    for s in inds:
        validate_ind(s, db.schema)
    work = db.copy().relations
    steps: list[ChaseStep] = []
    outcome = _plus_passes(work, inds, m, cfg.step_limit, steps)
    result = make_database(db.schema, m, {rel: kr.weights for rel, kr in work.items()})
    return ChaseTrace(db.copy(), steps, outcome, result)


def _plus_passes(work: dict[str, KRelation], inds: list[IND], m: MonoidSpec,
                 step_limit: int, steps: list[ChaseStep]) -> str:
    """Apply additive steps to ``work`` in place, appending them to ``steps``;
    return the outcome."""
    while True:
        before = len(steps)
        for s in inds:
            lhs = marginalize(work[s.lhs_rel], s.lhs_attrs, m).weights
            rhs = marginalize(work[s.rhs_rel], s.rhs_attrs, m).weights
            target_rel = work[s.rhs_rel]
            lhs_pos = [work[s.lhs_rel].attributes.index(a) for a in s.lhs_attrs]
            points = sorted(lhs)
            for witness in points:  # insort below only adds points after this one
                have = rhs.get(witness, m.zero)
                if m.leq(lhs[witness], have):
                    continue
                if len(steps) >= step_limit:
                    return OUTCOME_STEP_LIMIT
                delta = m.monus(lhs[witness], have)
                target = star_padded(target_rel.attributes, s.rhs_attrs, witness)
                target_rel.weights[target] = m.add(target_rel.weights.get(target, m.zero), delta)
                rhs[witness] = m.add(have, delta)
                steps.append(ChaseStep(KIND_PLUS_RULE, s, witness, target, delta))
                if s.lhs_rel == s.rhs_rel:
                    point = tuple(target[p] for p in lhs_pos)
                    if point not in lhs and point > witness:
                        bisect.insort(points, point)
                    lhs[point] = m.add(lhs.get(point, m.zero), delta)
        if len(steps) == before:
            return OUTCOME_TERMINATED


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
        lhs_pos = db.schema.positions(s.lhs_rel, s.lhs_attrs)
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
