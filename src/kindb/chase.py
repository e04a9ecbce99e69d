"""Chase procedures for inclusion dependencies.

Two variants:

* the classical chase, which repairs a violated dependency by inserting the
  star-padded witness tuple into the right-hand relation (always terminates,
  unique result);
* the additive chase, which adds exactly the missing weight to the single
  star-padded tuple.  It requires a weakly cancellative monoid with a total
  natural order (so the missing weight is a well-defined difference), may
  not terminate in general, but terminates whenever the dependency set is
  closed under the standard rules plus weak symmetry.  Entailment chases a
  refuted query by its assumptions and their weak-symmetry reversals (the
  members of ``infer.DerivationGraph``), which have the closure's models.
  For that list no termination proof is written down: the step limit guards
  it, and a differential test on random inputs checks that it terminates and
  agrees with derivability.

Both grow a copy of the start and return it, and both record replayable
traces.  The classical chase reads a queue of rows, seeded with the start's
rows (relations and rows sorted) and extended by each row it adds; each row
is read once per dependency on its relation, and the result keeps its rows
in queue order.  The additive chase makes passes over the
dependencies in canonical order; for each it visits the points of the left
marginal in sorted order.  Elsewhere the left side weighs zero, so no step
applies there.  A step equalizes the marginals at its witness; a point it
adds to a dependency's own left marginal is still visited in the same pass
when it sorts after the witness.  The chase stops after a pass with no step.
The result of a terminating chase depends on this order.  One
``kdb.marginals`` plan per chase makes each side the dependencies read and
gives the own layout of each relation a step grows, which is the relation's
weights; a step adds its delta to every marginal of the relation it grows,
that one included, so no pass recomputes a marginal.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidConfig, MonoidMismatch, UnsupportedMonoid
from .ind import IND, format_ind, ind_sort_key, validate_ind
from .kdb import STAR, KDatabase, Row, Schema, dump_database, make_database, marginals
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


def plus_chase(db: KDatabase, sigma: Iterable[IND],
               config: Optional[ChaseConfig] = None) -> ChaseTrace:
    """Run the additive chase to completion or to the step limit."""
    cfg = config or ChaseConfig()
    m = db.monoid
    report = m.classify()
    if not (report.weakly_cancellative and report.natural_order_total):
        raise UnsupportedMonoid(
            f"the additive chase needs a total weakly cancellative order; {m.name} lacks one")
    inds = sorted(set(sigma), key=ind_sort_key)
    for s in inds:
        validate_ind(s, db.schema)
    result = db.copy()
    steps: list[ChaseStep] = []
    outcome = _plus_passes(result, inds, cfg.step_limit, steps)
    return ChaseTrace(db.copy(), steps, outcome, result)


def _plus_passes(work: KDatabase, inds: list[IND], step_limit: int,
                 steps: list[ChaseStep]) -> str:
    """Apply additive steps to ``work`` in place, appending them to ``steps``;
    return the outcome."""
    m, schema, zero = work.monoid, work.schema, work.monoid.zero
    # every side the dependencies read and the own layout (the weights) of
    # each relation a step grows; a step adds its delta to each marginal in
    # kept[rel], the grown relation's marginals with their row positions
    grown = {s.rhs_rel: schema.attributes(s.rhs_rel) for s in inds}
    planned = marginals(work, [side for s in inds for side in (
        (s.lhs_rel, s.lhs_attrs), (s.rhs_rel, s.rhs_attrs))] + list(grown.items()))
    positions = {(rel, attrs): tuple(map(grown[rel].index, attrs))
                 for rel, attrs in planned if rel in grown}
    kept: dict[str, list] = {rel: [] for rel in grown}
    for side, pos in positions.items():
        kept[side[0]].append((pos, planned[side]))
    while True:
        before = len(steps)
        for s in inds:
            lhs, rhs = planned[s.lhs_rel, s.lhs_attrs], planned[s.rhs_rel, s.rhs_attrs]
            points = sorted(lhs)
            for witness in points:  # insort below only adds points after this one
                have = rhs.get(witness, zero)
                if m.leq(lhs[witness], have):
                    continue
                if len(steps) >= step_limit:
                    return OUTCOME_STEP_LIMIT
                delta = m.monus(lhs[witness], have)
                target = star_padded(grown[s.rhs_rel], s.rhs_attrs, witness)
                steps.append(ChaseStep(KIND_PLUS_RULE, s, witness, target, delta))
                if s.lhs_rel == s.rhs_rel:
                    point = tuple([target[p] for p in positions[s.lhs_rel, s.lhs_attrs]])
                    if point > witness and point not in lhs:
                        bisect.insort(points, point)
                for pos, marginal in kept[s.rhs_rel]:
                    point = tuple([target[p] for p in pos])
                    marginal[point] = m.add(marginal.get(point, zero), delta)
        if len(steps) == before:
            return OUTCOME_TERMINATED


def classical_chase(db: KDatabase, sigma: Iterable[IND]) -> tuple[KDatabase, ChaseTrace]:
    """Close a boolean-weighted database under the star-padding repair rule.

    The closure is finite (tuples range over the start's active domain plus
    the star) and independent of application order; reading rows in queue
    order makes traces reproducible whatever the hash seed.
    """
    if db.monoid != BOOLEAN:
        raise MonoidMismatch("the classical chase operates on boolean-weighted databases")
    by_lhs: dict[str, list] = {rel: [] for rel in db.relations}
    for s in sorted(set(sigma), key=ind_sort_key):
        validate_ind(s, db.schema)
        lhs_pos = db.schema.positions(s.lhs_rel, s.lhs_attrs)
        by_lhs[s.lhs_rel].append((s, lhs_pos, db.schema.attributes(s.rhs_rel)))

    result = db.copy()
    work = {rel: kr.weights for rel, kr in result.relations.items()}
    queue = [(rel, row) for rel in sorted(work) for row in sorted(work[rel])]
    steps: list[ChaseStep] = []
    for rel, row in queue:  # grows while it is read
        for s, lhs_pos, layout in by_lhs[rel]:
            witness = tuple(row[i] for i in lhs_pos)
            target = star_padded(layout, s.rhs_attrs, witness)
            if target not in work[s.rhs_rel]:
                work[s.rhs_rel][target] = 1
                steps.append(ChaseStep(KIND_RULE_STAR, s, witness, target))
                queue.append((s.rhs_rel, target))
    return result, ChaseTrace(db.copy(), steps, OUTCOME_TERMINATED, result)


def replay(trace: ChaseTrace) -> KDatabase:
    """Re-apply the recorded steps to the start database.

    The rebuilt database must equal the recorded result bit for bit; this is
    the integrity check for serialized traces.
    """
    db = trace.start.copy()
    m = db.monoid
    for step in trace.steps:
        weights = db.relations[step.sigma.rhs_rel].weights
        if step.kind == KIND_RULE_STAR:
            weights[step.incremented] = 1
        else:
            weights[step.incremented] = m.add(weights.get(step.incremented, m.zero), step.delta)
    return db


def trace_to_json(trace: ChaseTrace) -> dict:
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
