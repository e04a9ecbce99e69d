"""Entailment of inclusion dependencies, decided by monoid class.

For a weakly cancellative monoid, the standard rules plus weak symmetry are
sound and complete, and entailment coincides with satisfaction of the query
dependency in the additive chase of its canonical start by the weak-symmetry
closure of the assumptions.  For a weakly absorptive monoid, the standard
rules alone are sound and complete, and the classical chase decides.  Each
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

from dataclasses import dataclass, field
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
    RULE_REFLEXIVITY,
    DerivationProof,
    RuleSystem,
    check_proof,
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
    verified: bool = True

    def to_json(self) -> dict:
        m = self.database.monoid
        params = {}
        for key, value in self.params.items():
            if isinstance(value, (list, tuple)):
                params[key] = [m.format_element(v) for v in value]
            else:
                params[key] = m.format_element(value)
        return {
            "construction": self.construction,
            "params": params,
            "verified": self.verified,
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
    mentioned: set[str] = set()
    for s in list(sigma) + [tau]:
        mentioned.add(s.lhs_rel)
        mentioned.add(s.rhs_rel)
    return {IND(a, (), b, ()) for a in mentioned for b in mentioned if a != b}


def _relabel_balance(proof: DerivationProof, balance: set[IND]) -> DerivationProof:
    if proof.rule == RULE_AXIOM and proof.conclusion in balance:
        return DerivationProof(RULE_BALANCE, proof.conclusion)
    if not proof.premises:
        return proof
    return DerivationProof(
        proof.rule, proof.conclusion,
        tuple(_relabel_balance(p, balance) for p in proof.premises),
        proof.indices)


def _verify(db: KDatabase, sigma: Iterable[IND], tau: IND, balanced: bool) -> bool:
    return (all(satisfies(db, s) for s in sigma)
            and not satisfies(db, tau)
            and (not balanced or is_balanced(db)))


def _plus_chased(tau: IND, schema: Schema, closed: Iterable[IND],
                 cfg: ChaseConfig) -> KDatabase:
    """The additive chase of the canonical start by a weak-symmetry-closed
    set, which terminates."""
    trace = plus_chase(canonical_start(tau, schema, NATURALS), closed, cfg)
    if not trace.terminated:
        raise ChaseBudgetExceeded(
            "additive chase exceeded its budget on a weak-symmetry-closed set")
    return trace.result


def _embed(counts: KDatabase, m: MonoidSpec, b: Element) -> KDatabase:
    """Re-weight each count n of a naturals-annotated database to n*b."""
    return make_database(counts.schema, m, {
        rel: {row: embed_naturals(m, b, n) for row, n in kr.weights.items()}
        for rel, kr in counts.relations.items()})


def _stratify(chased: KDatabase, m: MonoidSpec, chain: list[Element],
              n: int) -> KDatabase:
    """Weight each tuple of a classical chase result a_{n - degree}."""
    return make_database(chased.schema, m, {
        rel: {row: chain[n - degree(row)] for row in kr.weights}
        for rel, kr in chased.relations.items()})


def decide_entailment(sigma: Iterable[IND], tau: IND, m: MonoidSpec,
                      balanced: bool = False,
                      config: Optional[ChaseConfig] = None,
                      schema: Optional[Schema] = None,
                      report: Optional[PropertyReport] = None) -> EntailmentVerdict:
    """Decide whether the assumptions entail ``tau`` over databases
    annotated in ``m`` (optionally restricted to balanced databases).

    Dispatch follows the monoid's property report; pass ``report`` to
    override the declared classification of a builtin.  One saturation and
    one chase of the canonical start serve the verdict, the proof and the
    countermodel; the two must agree on ``tau``.
    """
    sigma = set(sigma)
    cfg = config or ChaseConfig()
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

    proofs = saturate(sigma_star, RuleSystem.STANDARD_WS if wc else RuleSystem.STANDARD,
                      schema)
    if wc:
        chased = _plus_chased(tau, schema, proofs, cfg)
    else:
        chased, _ = classical_chase(canonical_start(tau, schema, BOOLEAN), proofs)
    derivable = tau.is_reflexive or tau in proofs
    if satisfies(chased, tau) != derivable:
        raise CountermodelError(
            f"chase and saturation disagree on {format_ind(tau)}")

    if derivable:
        proof = proofs.get(tau) or DerivationProof(RULE_REFLEXIVITY, tau)
        check_proof(proof, sigma_star)
        if balance_added:
            proof = _relabel_balance(proof, balance_added)
        return EntailmentVerdict(True, method, proof=proof)

    if wc:
        b = m.some_nonzero()
        cm = Countermodel(_embed(chased, m, b), CONSTRUCTION_WC_EMBED, {"generator": b})
    else:
        idem = m.nonzero_idempotent()
        if idem is None:
            raise UnsupportedMonoid(
                f"no countermodel construction applies to {m.name}: "
                "it has no nonzero idempotent")
        chain = [idem] * (tau.arity + 1)
        cm = Countermodel(_stratify(chased, m, chain, tau.arity),
                          CONSTRUCTION_SA, {"chain": chain})
    if not _verify(cm.database, sigma, tau, balanced):
        raise CountermodelError(
            f"countermodel failed verification for {format_ind(tau)}")
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
                          config or ChaseConfig())
    if satisfies(chased, tau):
        raise NoCountermodel(f"{format_ind(tau)} holds in the chased canonical start")
    db = _embed(chased, m, b)
    if not _verify(db, sigma, tau, balanced=False):
        raise CountermodelError("embedded chase result failed verification")
    return Countermodel(db, CONSTRUCTION_WC_EMBED, {"generator": b})


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
    for c in chain:
        if c == m.zero:
            raise InvalidChain("chain values must be nonzero")
    for lo, hi in zip(chain, chain[1:]):
        if m.add(lo, hi) != hi:
            raise InvalidChain(
                f"{m.format_element(lo)} + {m.format_element(hi)} "
                f"!= {m.format_element(hi)}")
    result, _ = classical_chase(canonical_start(tau, schema, BOOLEAN),
                                sorted(sigma, key=format_ind))
    if satisfies(result, tau):
        raise NoCountermodel(f"{format_ind(tau)} holds in the chased canonical start")
    db = _stratify(result, m, chain, n)
    if not _verify(db, sigma, tau, balanced=False):
        raise CountermodelError("stratified chase weighting failed verification")
    construction = CONSTRUCTION_SA if len(set(chain)) == 1 else CONSTRUCTION_CA
    return Countermodel(db, construction, {"chain": chain})
