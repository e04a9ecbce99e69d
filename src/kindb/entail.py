"""Entailment of inclusion dependencies, decided by monoid class.

For a weakly cancellative monoid, the standard rules plus weak symmetry are
sound and complete, and entailment coincides with satisfaction of the query
dependency in the additive chase of its canonical start by the assumptions
and the reversals weak symmetry allows, which have the closure's models.  For
a weakly absorptive monoid, the standard rules alone are sound and complete,
and the classical chase of the canonical start by the assumptions decides.
Over balanced databases the balance axioms join either system, so the
members of its ``DerivationGraph`` include the balance instances between
the relations the input mentions; countermodels then come out balanced.
Each verdict has one certificate, checked once: an entailed answer its
derivation, which ``derives`` passes through ``check_proof``, and a refuted
one its countermodel, which ``verified`` re-checks; the canonical start is
chased only to build that countermodel.  The constructions are:

* ``plus_chase_embedding``: the additive chase result, each count n
  re-weighted to n*b for a nonzero b (weakly cancellative monoids);
* ``sa_embedding``: the classical chase result with every tuple weighted by
  a nonzero idempotent (weakly absorptive monoids; every one this package
  can represent has such an element);
* ``ca_stratified``: the classical chase result weighted a_{n - degree}
  along a caller-supplied absorption chain a_0..a_n that is not constant
  (``build_countermodel_ca``; a constant chain gives ``sa_embedding``).

``decide_entailment`` returns the first two and ``build_countermodel_ca`` the
last two, both over ``ind.query_schema`` (the relations the query mentions,
so a constant chain gives ``decide_entailment``'s countermodel).  ``verified``
certifies each, and the falsifier's ``enumeration`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    ChaseBudgetExceeded,
    CountermodelError,
    InvalidChain,
    NoCountermodel,
    UnsupportedMonoid,
)
from .chase import ChaseConfig, canonical_start, classical_chase, plus_chase
from .ind import IND, format_ind, query_schema, satisfies, satisfies_all
from .infer import DerivationGraph, DerivationProof, RuleSystem, proof_to_json
from .kdb import KDatabase, KRelation, Schema, degree, dump_database, is_balanced
from .monoid import BOOLEAN, NATURALS, Element, MonoidSpec

METHOD_PLUS_CHASE = "plus_chase"
METHOD_CLASSICAL_CHASE = "classical_chase"
METHOD_BALANCED = "balanced_augmentation"

CONSTRUCTION_WC_EMBED = "plus_chase_embedding"
CONSTRUCTION_SA = "sa_embedding"
CONSTRUCTION_CA = "ca_stratified"


@dataclass
class Countermodel:
    database: KDatabase
    construction: str
    params: dict

    def to_json(self) -> dict:
        m = self.database.monoid
        params = {key: [m.format_element(v) for v in value]
                  if isinstance(value, (list, tuple)) else m.format_element(value)
                  for key, value in self.params.items()}
        return {
            "construction": self.construction,
            "params": params,
            "database": dump_database(self.database),
        }


@dataclass
class EntailmentVerdict:
    entailed: bool
    system: RuleSystem  # the rules a proof may use
    proof: Optional[DerivationProof] = None
    countermodel: Optional[Countermodel] = None

    @property
    def method(self) -> str:
        """The decision procedure, read off the rule system."""
        if self.system.has_balance:
            return METHOD_BALANCED
        return METHOD_PLUS_CHASE if self.system.has_weak_symmetry else METHOD_CLASSICAL_CHASE

    def to_json(self) -> dict:
        out: dict = {"entailed": self.entailed, "method": self.method,
                     "system": self.system.value}
        if self.proof is not None:
            out["proof"] = proof_to_json(self.proof)
        if self.countermodel is not None:
            out["countermodel"] = self.countermodel.to_json()
        return out


def verified(db: KDatabase, construction: str, params: dict, sigma: Iterable[IND],
             tau: IND, balanced: bool) -> Countermodel:
    """The countermodel, once ``sigma`` holds in ``db``, ``tau`` fails there
    and, when ``balanced``, ``db`` is balanced.  Certifies every construction."""
    *held, tau_held = satisfies_all(db, [*sigma, tau])
    if not (all(held) and not tau_held and (not balanced or is_balanced(db))):
        raise CountermodelError(
            f"{construction} countermodel failed verification for {format_ind(tau)}")
    return Countermodel(db, construction, params)


def _stratified(chased: KDatabase, m: MonoidSpec, chain: list[Element],
                sigma: Iterable[IND], tau: IND, balanced: bool) -> Countermodel:
    """Weight each tuple of a classical chase result a_{n - degree}, n the
    arity of ``tau``, and verify."""
    db = KDatabase(chased.schema, m, {
        rel: KRelation(kr.attributes, {row: chain[tau.arity - degree(row)]
                                       for row in kr.weights})
        for rel, kr in chased.relations.items()})
    construction = CONSTRUCTION_SA if len(set(chain)) == 1 else CONSTRUCTION_CA
    return verified(db, construction, {"chain": chain}, sigma, tau, balanced)


def decide_entailment(sigma: Iterable[IND], tau: IND, m: MonoidSpec,
                      balanced: bool = False,
                      config: Optional[ChaseConfig] = None,
                      schema: Optional[Schema] = None) -> EntailmentVerdict:
    """Decide whether the assumptions entail ``tau`` over databases
    annotated in ``m`` (optionally restricted to balanced databases).

    Dispatch follows the monoid's property report.  One search for
    ``tau`` in one ``DerivationGraph`` gives the verdict and any proof.
    Only a refuted query is chased, by the graph's members (additive when
    weakly cancellative, classical when weakly absorptive); re-weighting
    keeps ``tau``'s truth, so a missed derivation fails ``verified``.
    """
    sigma = set(sigma)
    schema = query_schema(sigma, tau, schema)
    wc = m.classify().weakly_cancellative
    idem = m.nonzero_idempotent()
    # a finite positive monoid is nontrivial iff it has a nonzero idempotent
    if m.is_finite and idem is None:
        raise UnsupportedMonoid("entailment requires a non-trivial monoid")

    system = RuleSystem.of(wc, balanced)

    graph = DerivationGraph(sigma, system, schema)
    derivable, proof = graph.derives(tau)
    if derivable:
        return EntailmentVerdict(True, system, proof=proof)

    if wc:
        trace = plus_chase(canonical_start(tau, schema, NATURALS), graph.members, config)
        if not trace.terminated:
            raise ChaseBudgetExceeded(
                "additive chase exceeded its budget on the assumptions and their reversals")
        b = m.check(m.some_nonzero())
        db = KDatabase(trace.result.schema, m, {
            rel: KRelation(kr.attributes, {row: m.times(b, n) for row, n in kr.weights.items()})
            for rel, kr in trace.result.relations.items()})
        cm = verified(db, CONSTRUCTION_WC_EMBED, {"generator": b}, sigma, tau, balanced)
    elif idem is None:
        raise UnsupportedMonoid(
            f"no countermodel construction applies to {m.name}: it has no nonzero idempotent")
    else:
        chased = classical_chase(canonical_start(tau, schema, BOOLEAN), graph.members)[0]
        cm = _stratified(chased, m, [idem] * (tau.arity + 1), sigma, tau, balanced)
    return EntailmentVerdict(False, system, countermodel=cm)


def build_countermodel_ca(sigma: Iterable[IND], tau: IND, m: MonoidSpec,
                          chain: Iterable[Element],
                          schema: Optional[Schema] = None) -> Countermodel:
    """Countermodel from an absorption chain a_0..a_n: chase the canonical
    start classically, then weight each tuple a_{n - degree}."""
    sigma = set(sigma)
    schema = query_schema(sigma, tau, schema)
    chain = [m.check(c) for c in chain]
    n = tau.arity
    if len(chain) < n + 1:
        raise InvalidChain(f"need {n + 1} chain values for an arity-{n} dependency")
    if m.zero in chain:
        raise InvalidChain("chain values must be nonzero")
    for lo, hi in zip(chain, chain[1:]):
        if m.add(lo, hi) != hi:
            raise InvalidChain(
                f"{m.format_element(lo)} + {m.format_element(hi)} "
                f"!= {m.format_element(hi)}")
    chased = classical_chase(canonical_start(tau, schema, BOOLEAN), sigma)[0]
    if satisfies(chased, tau):
        raise NoCountermodel(f"{format_ind(tau)} holds in the chased canonical start")
    return _stratified(chased, m, chain, sigma, tau, balanced=False)
