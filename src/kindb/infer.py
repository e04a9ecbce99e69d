"""Proof-producing derivability for inclusion dependencies.

Three rule systems are supported:

* ``STANDARD``: reflexivity, transitivity, projection/permutation;
* ``STANDARD_WS``: the standard rules plus weak symmetry (from
  ``R[A..] <= S[B..]`` and ``S[] <= R[]`` conclude ``S[B..] <= R[A..]``);
* ``STANDARD_BALANCE``: the standard rules, weak symmetry and the balance
  axioms ``S[] <= R[]`` for all relation pairs.

Derivability is reachability.  Projection and permutation commute with the
other rules, so a derivation applies them to assumptions only and is then a
path of transitivity steps over dependency sides R[X], from the query's left
side to its right one (the derivation sequences of Casanova, Fagin and
Papadimitriou, JCSS 28(1), 1984).  The edges are the index selections of the
assumptions, reflexive ones left out, and under the balance axioms their
instances at arity 0.  Weak symmetry reverses an edge R[X] -> S[Y] when S[]
reaches R[] (when R = S, the premise is the reflexivity instance R[] <= R[]).
Reversing edges of the assumptions is enough: weak symmetry on a derived
X <= Y needs Y.rel[] <= X.rel[], so every relation on the path lies in one
strongly connected component of the arity-0 graph, each edge on the path can
be reversed, and the reversed path derives Y <= X.  Reversed edges have
positive arity, so arity-0 reachability is read before any is added.

An edge records only how it is derived: an assumption and an index
selection, a balance instance, or a reversal.  Proofs are built only along
the path ``derives`` returns: each edge becomes an axiom or its projection, a
balance leaf, or weak symmetry over the forward edge's proof and the arity-0
path proof of its premise, and the edges are composed pairwise, so a proof's
depth is logarithmic in the path's length.  ``saturate`` returns facts only.
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

# The number of premises each rule takes.
_RULE_PREMISES = {RULE_AXIOM: 0, RULE_REFLEXIVITY: 0, RULE_BALANCE: 0,
                 RULE_PROJECT_PERMUTE: 1, RULE_TRANSITIVITY: 2, RULE_WEAK_SYMMETRY: 2}


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
    return IND(sigma.lhs_rel, tuple(sigma.lhs_attrs[i] for i in indices),
               sigma.rhs_rel, tuple(sigma.rhs_attrs[i] for i in indices))


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


# -- derivability by search --------------------------------------------------------

Node = tuple[str, tuple[str, ...]]  # a dependency side R[X]
# How an edge is derived: (assumption, selection), RULE_BALANCE or RULE_WEAK_SYMMETRY
EdgeTag = tuple[IND, tuple[int, ...]] | str
Graph = dict[Node, dict[Node, EdgeTag]]  # the edges out of each side


def _search(graph: Graph, source: Node) -> dict[Node, Optional[Node]]:
    """Breadth-first search: each node reachable from ``source``, the source
    included, mapped to its parent on a shortest path (the source to None)."""
    parents: dict[Node, Optional[Node]] = {source: None}
    queue = [source]
    for node in queue:  # the queue grows as it is read
        for succ in graph.get(node, ()):
            if succ not in parents:
                parents[succ] = node
                queue.append(succ)
    return parents


def _edge_proof(graph: Graph, lhs: Node, rhs: Node) -> DerivationProof:
    """The proof of the edge ``lhs`` -> ``rhs``, read off how it was derived."""
    tag, conclusion = graph[lhs][rhs], IND(*lhs, *rhs)
    if tag == RULE_BALANCE:
        return DerivationProof(RULE_BALANCE, conclusion)
    if tag == RULE_WEAK_SYMMETRY:  # the premise lhs.rel[] <= rhs.rel[]
        premise = _path_proof(graph, _search(graph, (lhs[0], ())), (rhs[0], ()))
        return DerivationProof(RULE_WEAK_SYMMETRY, conclusion,
                               (_edge_proof(graph, rhs, lhs), premise))
    member, selection = tag
    axiom = DerivationProof(RULE_AXIOM, member)
    if selection == tuple(range(member.arity)):
        return axiom
    return DerivationProof(RULE_PROJECT_PERMUTE, conclusion, (axiom,), selection)


def _path_proof(graph: Graph, parents: dict[Node, Optional[Node]],
                target: Node) -> DerivationProof:
    """The proof of source <= ``target`` along a search's parent links (the
    reflexivity leaf when ``target`` is the source), its edges composed
    pairwise so that its depth is logarithmic in its length."""
    steps = []
    while parents[target] is not None:
        steps.append(_edge_proof(graph, parents[target], target))
        target = parents[target]
    steps = steps[::-1] or [DerivationProof(RULE_REFLEXIVITY, IND(*target, *target))]
    while len(steps) > 1:
        paired = [DerivationProof(RULE_TRANSITIVITY,
                                  transitivity(p1.conclusion, p2.conclusion), (p1, p2))
                  for p1, p2 in zip(steps[::2], steps[1::2])]
        steps = paired + steps[2 * len(paired):]
    return steps[0]


def _graph(sigma: Iterable[IND], system: RuleSystem, schema: Schema) -> Graph:
    """The edges of ``system`` over the assumptions."""
    graph: Graph = {}

    def add(lhs: Node, rhs: Node, tag: EdgeTag) -> None:
        graph.setdefault(lhs, {}).setdefault(rhs, tag)

    for member in sorted(set(sigma), key=ind_sort_key):
        validate_ind(member, schema)
        for length in range(member.arity + 1):
            for selection in itertools.permutations(range(member.arity), length):
                lhs = (member.lhs_rel, tuple(member.lhs_attrs[i] for i in selection))
                rhs = (member.rhs_rel, tuple(member.rhs_attrs[i] for i in selection))
                if lhs != rhs:
                    add(lhs, rhs, (member, selection))

    if system.has_balance:
        for lhs, rhs in itertools.permutations(sorted(schema.relations), 2):
            add((lhs, ()), (rhs, ()), RULE_BALANCE)

    if system.has_weak_symmetry:
        edges = [(lhs, rhs) for lhs, out in graph.items() for rhs in out if lhs[1]]
        reach = {rel: _search(graph, (rel, ())) for rel in {rhs[0] for _, rhs in edges}}
        for lhs, rhs in edges:  # a search reaches its source: R[] <= R[] when R = S
            if (lhs[0], ()) in reach[rhs[0]]:
                add(rhs, lhs, RULE_WEAK_SYMMETRY)
    return graph


def saturate(sigma: Iterable[IND], system: RuleSystem, schema: Schema) -> list[IND]:
    """All derivable non-reflexive dependencies in the finite universe, plus
    the arity-0 reflexivity seeds, in canonical order."""
    graph = _graph(sigma, system, schema)
    closed = [IND(rel, (), rel, ()) for rel in schema.relations]
    closed += [IND(*source, *target) for source in graph
               for target in _search(graph, source) if target != source]
    return sorted(closed, key=ind_sort_key)


def derives(sigma: Iterable[IND], tau: IND, system: RuleSystem,
            schema: Schema) -> tuple[bool, Optional[DerivationProof]]:
    """Decide derivability by one search from ``tau``'s left side and return
    a checked proof on success."""
    validate_ind(tau, schema)
    sigma = set(sigma)
    if tau.is_reflexive:
        for member in sorted(sigma, key=ind_sort_key):  # else _graph checks them
            validate_ind(member, schema)
        proof = DerivationProof(RULE_REFLEXIVITY, tau)
    else:
        graph = _graph(sigma, system, schema)
        parents = _search(graph, (tau.lhs_rel, tau.lhs_attrs))
        target = (tau.rhs_rel, tau.rhs_attrs)
        if target not in parents:
            return False, None
        proof = _path_proof(graph, parents, target)
    check_proof(proof, sigma)
    return True, proof


# -- proof validation and serialization ---------------------------------------------

def _yields(node: DerivationProof, sigma: set) -> bool:
    """Whether the rule of ``node`` yields its conclusion from its premises."""
    rule, conclusion = node.rule, node.conclusion
    premises = [p.conclusion for p in node.premises]
    if rule not in _RULE_PREMISES:
        raise ProofError(f"unknown rule {rule!r}")
    if len(premises) != _RULE_PREMISES[rule]:
        raise ProofError(f"malformed {rule} step concluding {format_ind(conclusion)}: "
                         f"{len(premises)} premises, the rule takes {_RULE_PREMISES[rule]}")
    if rule == RULE_AXIOM:
        return conclusion in sigma
    if rule == RULE_REFLEXIVITY:
        return conclusion.is_reflexive
    if rule == RULE_BALANCE:
        return conclusion.arity == 0
    if rule == RULE_PROJECT_PERMUTE:
        return node.indices is not None and project_permute(*premises, node.indices) == conclusion
    if rule == RULE_TRANSITIVITY:
        return transitivity(*premises) == conclusion
    return weak_symmetry(*premises) == conclusion


def check_proof(proof: DerivationProof, sigma: Iterable[IND]) -> None:
    """Re-validate every node of a derivation tree; raises ProofError."""
    sigma = set(sigma)
    stack = [proof]
    while stack:
        node = stack.pop()
        try:
            valid = _yields(node, sigma)
        except (MiddleMismatch, PremiseMismatch, DuplicateIndex, IndexOutOfRange) as exc:
            raise ProofError(f"malformed {node.rule} step concluding "
                             f"{format_ind(node.conclusion)}: {exc}") from exc
        if not valid:
            raise ProofError(f"{node.rule} step does not yield {format_ind(node.conclusion)}")
        stack.extend(node.premises)


def proof_to_json(proof: DerivationProof) -> dict:
    out: dict = {"rule": proof.rule, "conclusion": format_ind(proof.conclusion)}
    if proof.indices is not None:
        out["indices"] = list(proof.indices)
    if proof.premises:
        out["premises"] = [proof_to_json(p) for p in proof.premises]
    return out


def proof_to_text(proof: DerivationProof, indent: int = 0) -> str:
    indices = "" if proof.indices is None else f" {list(proof.indices)}"
    head = f"{'  ' * indent}{format_ind(proof.conclusion)}   [{proof.rule}{indices}]"
    return "\n".join([head] + [proof_to_text(p, indent + 1) for p in proof.premises])
