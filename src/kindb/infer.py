"""Proof-producing derivability for inclusion dependencies.

Three rule systems are supported:

* ``STANDARD``: reflexivity, transitivity, projection/permutation;
* ``STANDARD_WS``: the standard rules plus weak symmetry (from
  ``R[A..] <= S[B..]`` and ``S[] <= R[]`` conclude ``S[B..] <= R[A..]``);
* ``STANDARD_BALANCE``: the standard rules plus weak symmetry, plain
  symmetry, and the balance axioms ``S[] <= R[]`` for all relation pairs.

Derivability is decided by saturating a finite universe: projection and
permutation commute with every other rule, so any derivation can be
normalized to apply them to axioms only.  The universe therefore consists of
all index selections of the assumption set, the arity-0 reflexivity
instances (needed as weak-symmetry premises on a single relation), and the
balance instances where applicable, closed under transitivity and weak
symmetry.  Plain symmetry adds nothing to that closure: with the balance
axioms every arity-0 premise holds, so weak symmetry already yields every
inverse.  Attribute sequences are never invented, so the closure is finite
and polynomial in the assumption set for fixed arity.

Reflexivity instances of positive arity are tautologies and act as
identities under transitivity; they are omitted from closures and handled
directly when a queried conclusion is itself reflexive.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    DuplicateIndex,
    IndexOutOfRange,
    MiddleMismatch,
    PremiseMismatch,
    ProofError,
)
from .ind import IND, format_ind, ind_sort_key, inverse, validate_ind
from .kdb import Schema


class RuleSystem(enum.Enum):
    STANDARD = "standard"
    STANDARD_WS = "ws"
    STANDARD_BALANCE = "balance"

    @property
    def has_weak_symmetry(self) -> bool:
        return self is not RuleSystem.STANDARD

    @property
    def has_balance(self) -> bool:
        return self is RuleSystem.STANDARD_BALANCE


RULE_AXIOM = "axiom"
RULE_REFLEXIVITY = "reflexivity"
RULE_BALANCE = "balance"
RULE_PROJECT_PERMUTE = "project_permute"
RULE_TRANSITIVITY = "transitivity"
RULE_WEAK_SYMMETRY = "weak_symmetry"
RULE_SYMMETRY = "symmetry"


@dataclass(frozen=True)
class DerivationProof:
    """A checked derivation tree; leaves are axioms, reflexivity instances,
    or balance instances."""

    rule: str
    conclusion: IND
    premises: tuple["DerivationProof", ...] = ()
    indices: Optional[tuple[int, ...]] = None


# -- single rule applications ---------------------------------------------------

def project_permute(sigma: IND, indices: Iterable[int]) -> IND:
    """Select and reorder both attribute sequences by 0-based positions."""
    indices = tuple(indices)
    if len(indices) != len(set(indices)):
        raise DuplicateIndex(f"repeated position in {indices}")
    for i in indices:
        if not 0 <= i < sigma.arity:
            raise IndexOutOfRange(f"position {i} outside arity {sigma.arity}")
    return IND(
        sigma.lhs_rel, tuple(sigma.lhs_attrs[i] for i in indices),
        sigma.rhs_rel, tuple(sigma.rhs_attrs[i] for i in indices),
    )


def transitivity(s1: IND, s2: IND) -> IND:
    if s1.rhs_rel != s2.lhs_rel or s1.rhs_attrs != s2.lhs_attrs:
        raise MiddleMismatch(
            f"cannot compose {format_ind(s1)} with {format_ind(s2)}")
    return IND(s1.lhs_rel, s1.lhs_attrs, s2.rhs_rel, s2.rhs_attrs)


def weak_symmetry(sigma: IND, empty_ind: IND) -> IND:
    if empty_ind.arity != 0:
        raise PremiseMismatch(f"{format_ind(empty_ind)} is not an arity-0 premise")
    if empty_ind.lhs_rel != sigma.rhs_rel or empty_ind.rhs_rel != sigma.lhs_rel:
        raise PremiseMismatch(
            f"{format_ind(empty_ind)} does not oppose {format_ind(sigma)}")
    return inverse(sigma)


# -- saturation -------------------------------------------------------------------

def _index_selections(arity: int):
    for length in range(arity + 1):
        yield from itertools.permutations(range(arity), length)


def _closure(sigma: Iterable[IND], system: RuleSystem,
             schema: Schema) -> dict[IND, DerivationProof]:
    proofs: dict[IND, DerivationProof] = {}

    def admit(ind: IND, proof: DerivationProof) -> bool:
        if ind.is_reflexive and ind.arity > 0:
            return False
        if ind in proofs:
            return False
        proofs[ind] = proof
        return True

    for member in sorted(set(sigma), key=ind_sort_key):
        validate_ind(member, schema)
        axiom = DerivationProof(RULE_AXIOM, member)
        for selection in _index_selections(member.arity):
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
    return proofs


def saturate(sigma: Iterable[IND], system: RuleSystem,
             schema: Schema) -> dict[IND, DerivationProof]:
    """All derivable non-reflexive dependencies in the finite universe, plus
    the arity-0 reflexivity seeds, in canonical order, each mapped to its
    derivation."""
    proofs = _closure(sigma, system, schema)
    return {ind: proofs[ind] for ind in sorted(proofs, key=ind_sort_key)}


def derives(sigma: Iterable[IND], tau: IND, system: RuleSystem,
            schema: Schema) -> tuple[bool, Optional[DerivationProof]]:
    """Decide derivability and return a checked proof on success."""
    validate_ind(tau, schema)
    sigma = set(sigma)
    if tau.is_reflexive:
        proof = DerivationProof(RULE_REFLEXIVITY, tau)
        check_proof(proof, sigma)
        return True, proof
    proofs = _closure(sigma, system, schema)
    if tau in proofs:
        proof = proofs[tau]
        check_proof(proof, sigma)
        return True, proof
    return False, None


# -- proof validation and serialization ---------------------------------------------

def check_proof(proof: DerivationProof, sigma: Iterable[IND]) -> None:
    """Re-validate every node of a derivation tree; raises ProofError."""
    sigma = set(sigma)

    def walk(node: DerivationProof) -> None:
        try:
            _check_node(node, sigma)
        except (MiddleMismatch, PremiseMismatch, DuplicateIndex, IndexOutOfRange) as exc:
            raise ProofError(f"malformed step concluding {format_ind(node.conclusion)}: {exc}") from exc
        for premise in node.premises:
            walk(premise)

    def _check_node(node: DerivationProof, sigma: set) -> None:
        rule, conclusion = node.rule, node.conclusion
        if rule == RULE_AXIOM:
            if conclusion not in sigma:
                raise ProofError(f"axiom leaf {format_ind(conclusion)} is not an assumption")
        elif rule == RULE_REFLEXIVITY:
            if not conclusion.is_reflexive:
                raise ProofError(f"{format_ind(conclusion)} is not a reflexivity instance")
        elif rule == RULE_BALANCE:
            if conclusion.arity != 0:
                raise ProofError(f"balance instance {format_ind(conclusion)} has positive arity")
        elif rule == RULE_PROJECT_PERMUTE:
            (premise,) = node.premises
            if node.indices is None or project_permute(premise.conclusion, node.indices) != conclusion:
                raise ProofError(f"projection step does not yield {format_ind(conclusion)}")
        elif rule == RULE_TRANSITIVITY:
            p1, p2 = node.premises
            if transitivity(p1.conclusion, p2.conclusion) != conclusion:
                raise ProofError(f"transitivity step does not yield {format_ind(conclusion)}")
        elif rule == RULE_WEAK_SYMMETRY:
            p1, p2 = node.premises
            if weak_symmetry(p1.conclusion, p2.conclusion) != conclusion:
                raise ProofError(f"weak symmetry step does not yield {format_ind(conclusion)}")
        elif rule == RULE_SYMMETRY:
            (premise,) = node.premises
            if inverse(premise.conclusion) != conclusion:
                raise ProofError(f"symmetry step does not yield {format_ind(conclusion)}")
        else:
            raise ProofError(f"unknown rule {rule!r}")

    walk(proof)


def proof_to_json(proof: DerivationProof) -> dict:
    out: dict = {"rule": proof.rule, "conclusion": format_ind(proof.conclusion)}
    if proof.indices is not None:
        out["indices"] = list(proof.indices)
    if proof.premises:
        out["premises"] = [proof_to_json(p) for p in proof.premises]
    return out


def proof_to_text(proof: DerivationProof, indent: int = 0) -> str:
    pad = "  " * indent
    head = f"{pad}{format_ind(proof.conclusion)}   [{proof.rule}"
    if proof.indices is not None:
        head += f" {list(proof.indices)}"
    head += "]"
    lines = [head]
    for premise in proof.premises:
        lines.append(proof_to_text(premise, indent + 1))
    return "\n".join(lines)
