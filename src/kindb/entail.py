"""Entailment of inclusion dependencies, decided by monoid class.

For a weakly cancellative monoid, the standard rules plus weak symmetry are
sound and complete, and entailment coincides with satisfaction of the query
dependency in the additive chase of its canonical start by the weak-symmetry
closure of the assumptions.  For a weakly absorptive monoid, the standard
rules alone are sound and complete, and the classical chase of the
canonical start by the assumptions themselves decides.  Each
positive answer carries a checked derivation.  Each negative answer carries
a countermodel, re-verified before it is returned.  The constructions are:

* ``plus_chase_embedding``: the additive chase result, each count n
  re-weighted to n*b for a nonzero b (weakly cancellative monoids);
* ``sa_embedding``: the classical chase result with every tuple weighted by
  a nonzero idempotent (weakly absorptive monoids; every one this package
  can represent has such an element);
* ``ca_stratified``: the classical chase result weighted a_{n - degree}
  along a caller-supplied absorption chain a_0..a_n that is not constant
  (``build_countermodel_ca``; a constant chain gives ``sa_embedding``).

``decide_entailment`` returns the first two.  ``build_countermodel_wc`` and
``build_countermodel_ca`` build all three from a caller-supplied generator
or chain.

Entailment over balanced databases reduces to the unrestricted problem by
augmenting the assumptions with every arity-0 dependency between relations
mentioned in the input; countermodels then come out balanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .errors import (
    ChaseBudgetExceeded,
    CountermodelError,
    ElementError,
    InvalidChain,
    NoCountermodel,
    UnclassifiedMonoid,
    UnsupportedMonoid,
)
from .chase import ChaseConfig, canonical_start, classical_chase, plus_chase
from .ind import IND, format_ind, infer_schema, satisfies, validate_ind
from .infer import (
    RULE_AXIOM,
    RULE_BALANCE,
    DerivationProof,
    RuleSystem,
    derives,
    proof_to_json,
    saturate,
)
from .kdb import KDatabase, Schema, degree, dump_database, is_balanced, make_database
from .monoid import (
    BOOLEAN,
    Element,
    MonoidSpec,
    NATURALS,
    PropertyReport,
    embed_naturals,
)

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
    params: dict = field(default_factory=dict)

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
    method: str
    proof: Optional[DerivationProof] = None
    countermodel: Optional[Countermodel] = None

    def to_json(self) -> dict:
        out: dict = {"entailed": self.entailed, "method": self.method}
        if self.proof is not None:
            out["proof"] = proof_to_json(self.proof)
        if self.countermodel is not None:
            out["countermodel"] = self.countermodel.to_json()
        return out


def balance_instances(sigma: Iterable[IND], tau: IND) -> set[IND]:
    """All arity-0 dependencies between relations mentioned by the input."""
    mentioned = {r for s in [*sigma, tau] for r in (s.lhs_rel, s.rhs_rel)}
    return {IND(a, (), b, ()) for a in mentioned for b in mentioned if a != b}


def _relabel_balance(proof: DerivationProof, balance: set[IND]) -> DerivationProof:
    if proof.rule == RULE_AXIOM and proof.conclusion in balance:
        return DerivationProof(RULE_BALANCE, proof.conclusion)
    return replace(proof, premises=tuple(_relabel_balance(p, balance)
                                         for p in proof.premises))


def _verified(db: KDatabase, construction: str, params: dict, sigma: Iterable[IND],
              tau: IND, balanced: bool) -> Countermodel:
    """The countermodel, once ``sigma`` holds in ``db``, ``tau`` fails there
    and, when ``balanced``, ``db`` is balanced."""
    if not (all(satisfies(db, s) for s in sigma)
            and not satisfies(db, tau)
            and (not balanced or is_balanced(db))):
        raise CountermodelError(
            f"{construction} countermodel failed verification for {format_ind(tau)}")
    return Countermodel(db, construction, params)


def _plus_chased(tau: IND, schema: Schema, closed: Iterable[IND],
                 config: Optional[ChaseConfig]) -> KDatabase:
    """The additive chase of the canonical start by a weak-symmetry-closed
    set, which terminates."""
    trace = plus_chase(canonical_start(tau, schema, NATURALS), closed, config)
    if not trace.terminated:
        raise ChaseBudgetExceeded(
            "additive chase exceeded its budget on a weak-symmetry-closed set")
    return trace.result


def _embedded(counts: KDatabase, m: MonoidSpec, b: Element, sigma: Iterable[IND],
              tau: IND, balanced: bool) -> Countermodel:
    """Re-weight each count n of an additive chase result to n*b, and verify."""
    db = make_database(counts.schema, m, {
        rel: {row: embed_naturals(m, b, n) for row, n in kr.weights.items()}
        for rel, kr in counts.relations.items()})
    return _verified(db, CONSTRUCTION_WC_EMBED, {"generator": b}, sigma, tau, balanced)


def _classical_chased(tau: IND, schema: Schema, sigma: Iterable[IND]) -> KDatabase:
    """The classical chase of the canonical start by ``sigma``."""
    return classical_chase(canonical_start(tau, schema, BOOLEAN), sigma)[0]


def _stratified(chased: KDatabase, m: MonoidSpec, chain: list[Element],
                sigma: Iterable[IND], tau: IND, balanced: bool) -> Countermodel:
    """Weight each tuple of a classical chase result a_{n - degree}, n the
    arity of ``tau``, and verify."""
    db = make_database(chased.schema, m, {
        rel: {row: chain[tau.arity - degree(row)] for row in kr.weights}
        for rel, kr in chased.relations.items()})
    construction = CONSTRUCTION_SA if len(set(chain)) == 1 else CONSTRUCTION_CA
    return _verified(db, construction, {"chain": chain}, sigma, tau, balanced)


def decide_entailment(sigma: Iterable[IND], tau: IND, m: MonoidSpec,
                      balanced: bool = False,
                      config: Optional[ChaseConfig] = None,
                      schema: Optional[Schema] = None,
                      report: Optional[PropertyReport] = None) -> EntailmentVerdict:
    """Decide whether the assumptions entail ``tau`` over databases
    annotated in ``m`` (optionally restricted to balanced databases).

    Dispatch follows the monoid's property report; pass ``report`` to
    override the declared classification of a builtin.  One search for
    ``tau`` gives the verdict and the proof, and one chase of the canonical
    start the countermodel: additive by the weak-symmetry closure when weakly
    cancellative, classical by the assumptions when weakly absorptive (with
    the balance instances, if any).  The search and the chase must agree.
    """
    sigma = set(sigma)
    if schema is None:
        schema = infer_schema(sorted(sigma | {tau}, key=format_ind))
    for s in sigma | {tau}:
        validate_ind(s, schema)
    # work over the mentioned relations only, so countermodels (and the
    # balance check) ignore unrelated parts of a wider schema
    mentioned = {r for s in sigma | {tau} for r in (s.lhs_rel, s.rhs_rel)}
    schema = Schema({r: schema.attributes(r) for r in sorted(mentioned)})
    if report is None:
        try:
            report = m.classify()
        except UnsupportedMonoid as exc:
            raise UnclassifiedMonoid(f"cannot classify {m.name}: {exc}") from exc
    # a finite positive monoid is nontrivial iff it has a nonzero idempotent
    if m.is_finite and m.nonzero_idempotent() is None:
        raise UnsupportedMonoid("entailment requires a non-trivial monoid")

    balance_added = balance_instances(sigma, tau) - sigma if balanced else set()
    sigma_star = sigma | balance_added
    wc = report.weakly_cancellative
    method = METHOD_BALANCED if balanced else (
        METHOD_PLUS_CHASE if wc else METHOD_CLASSICAL_CHASE)

    system = RuleSystem.STANDARD_WS if wc else RuleSystem.STANDARD
    derivable, proof = derives(sigma_star, tau, system, schema)
    if wc:
        chased = _plus_chased(tau, schema, saturate(sigma_star, system, schema), config)
    else:
        chased = _classical_chased(tau, schema, sigma_star)
    if satisfies(chased, tau) != derivable:
        raise CountermodelError(f"chase and derivability disagree on {format_ind(tau)}")

    if derivable:
        proof = _relabel_balance(proof, balance_added) if balance_added else proof
        return EntailmentVerdict(True, method, proof=proof)

    if wc:
        cm = _embedded(chased, m, m.some_nonzero(), sigma, tau, balanced)
    else:
        idem = m.nonzero_idempotent()
        if idem is None:
            raise UnsupportedMonoid(
                f"no countermodel construction applies to {m.name}: "
                "it has no nonzero idempotent")
        cm = _stratified(chased, m, [idem] * (tau.arity + 1), sigma, tau, balanced)
    return EntailmentVerdict(False, method, countermodel=cm)


def build_countermodel_wc(sigma: Iterable[IND], tau: IND, m: MonoidSpec,
                          b: Element,
                          config: Optional[ChaseConfig] = None,
                          schema: Optional[Schema] = None) -> Countermodel:
    """Countermodel for a weakly cancellative target: the additive chase of
    the canonical start, with each count n re-weighted to the n-fold sum of
    the nonzero generator ``b``."""
    sigma = set(sigma)
    if schema is None:
        schema = infer_schema(sorted(sigma | {tau}, key=format_ind))
    b = m.check(b)
    if b == m.zero:
        raise ElementError("the embedding generator must be nonzero")
    chased = _plus_chased(tau, schema, saturate(sigma, RuleSystem.STANDARD_WS, schema),
                          config)
    if satisfies(chased, tau):
        raise NoCountermodel(f"{format_ind(tau)} holds in the chased canonical start")
    return _embedded(chased, m, b, sigma, tau, balanced=False)


def build_countermodel_ca(sigma: Iterable[IND], tau: IND, m: MonoidSpec,
                          chain: Iterable[Element],
                          schema: Optional[Schema] = None) -> Countermodel:
    """Countermodel from an absorption chain a_0..a_n: chase the canonical
    start classically, then weight each tuple a_{n - degree}."""
    sigma = set(sigma)
    if schema is None:
        schema = infer_schema(sorted(sigma | {tau}, key=format_ind))
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
    chased = _classical_chased(tau, schema, sigma)
    if satisfies(chased, tau):
        raise NoCountermodel(f"{format_ind(tau)} holds in the chased canonical start")
    return _stratified(chased, m, chain, sigma, tau, balanced=False)
