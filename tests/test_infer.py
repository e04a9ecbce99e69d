import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dependencies, reference_closure, schemas
from kindb.entail import CONSTRUCTION_SA, CONSTRUCTION_WC_EMBED, decide_entailment
from kindb.errors import (
    DuplicateIndex,
    IndexOutOfRange,
    MiddleMismatch,
    PremiseMismatch,
    ProofError,
    UnknownRelation,
)
from kindb.ind import IND, format_ind, infer_schema, parse_ind
from kindb.infer import (
    RULE_AXIOM,
    RULE_BALANCE,
    RULE_REFLEXIVITY,
    RULE_TRANSITIVITY,
    RULE_WEAK_SYMMETRY,
    DerivationGraph,
    DerivationProof,
    RuleSystem,
    check_proof,
    derives,
    project_permute,
    proof_to_json,
    proof_to_text,
    saturate,
    transitivity,
    weak_symmetry,
)
from kindb.kdb import schema_of
from kindb.monoid import BOOLEAN, NATURALS

C1 = parse_ind("Expense[proj,year] <= Budget[proj,year]")
C2 = parse_ind("Budget[proj] <= Grant[proj]")
C3 = parse_ind("Grant[proj] <= Budget[proj]")
C4 = parse_ind("Grant[] <= Budget[]")

BUDGET_SCHEMA = schema_of({
    "Expense": ("proj", "type", "year"),
    "Budget": ("proj", "year"),
    "Grant": ("proj",),
})


def test_project_permute():
    assert project_permute(C1, (0,)) == parse_ind("Expense[proj] <= Budget[proj]")
    assert project_permute(C1, (0, 1)) == C1
    assert project_permute(C1, (1, 0)) == parse_ind("Expense[year,proj] <= Budget[year,proj]")
    assert project_permute(C1, ()) == parse_ind("Expense[] <= Budget[]")
    with pytest.raises(IndexOutOfRange):
        project_permute(C1, (2,))
    with pytest.raises(DuplicateIndex):
        project_permute(C1, (0, 0))


def test_transitivity():
    projected = project_permute(C1, (0,))
    assert transitivity(projected, C2) == parse_ind("Expense[proj] <= Grant[proj]")
    refl = IND("Grant", ("proj",), "Grant", ("proj",))
    assert transitivity(C2, refl) == C2
    with pytest.raises(MiddleMismatch):
        transitivity(C1, C2)


def test_weak_symmetry():
    assert weak_symmetry(C2, C4) == C3
    uni = parse_ind("R[A] <= R[B]")
    assert weak_symmetry(uni, parse_ind("R[] <= R[]")) == parse_ind("R[B] <= R[A]")
    with pytest.raises(PremiseMismatch):
        weak_symmetry(C2, parse_ind("Budget[] <= Grant[]"))
    with pytest.raises(PremiseMismatch):
        weak_symmetry(C2, C2)


def test_saturate_standard_contains_projection_composition():
    closed = saturate({C1, C2}, RuleSystem.STANDARD, BUDGET_SCHEMA)
    assert parse_ind("Expense[proj] <= Grant[proj]") in closed
    assert C3 not in closed


def test_saturate_empty_sigma_only_seeds():
    closed = saturate(set(), RuleSystem.STANDARD, BUDGET_SCHEMA)
    assert set(closed) == {
        IND(rel, (), rel, ()) for rel in BUDGET_SCHEMA.relations
    }


def test_saturate_balance_gives_symmetry():
    schema = schema_of({"R": ("A",), "S": ("B",)})
    sigma = {parse_ind("R[A] <= S[B]")}
    closed = saturate(sigma, RuleSystem.STANDARD_WS_BALANCE, schema)
    assert parse_ind("S[B] <= R[A]") in closed
    assert parse_ind("R[] <= S[]") in closed and parse_ind("S[] <= R[]") in closed
    ws_only = saturate(sigma, RuleSystem.STANDARD_WS, schema)
    assert parse_ind("S[B] <= R[A]") not in ws_only
    balance_only = saturate(sigma, RuleSystem.STANDARD_BALANCE, schema)
    assert parse_ind("S[] <= R[]") in balance_only
    assert parse_ind("S[B] <= R[A]") not in balance_only


def test_rule_system_flags():
    assert [(s.value, s.has_weak_symmetry, s.has_balance) for s in RuleSystem] == [
        ("standard", False, False), ("ws", True, False),
        ("standard+balance", False, True), ("balance", True, True)]
    for system in RuleSystem:
        assert RuleSystem.of(system.has_weak_symmetry, system.has_balance) is system
        assert RuleSystem(system.value) is system


def test_derives_weak_symmetry_proof():
    ok, proof = derives({C2, C4}, C3, RuleSystem.STANDARD_WS, BUDGET_SCHEMA)
    assert ok
    assert proof.rule == RULE_WEAK_SYMMETRY
    assert proof.conclusion == C3
    check_proof(proof, {C2, C4})
    text = proof_to_text(proof)
    assert "weak_symmetry" in text and format_ind(C3) in text


def test_derives_standard_cannot_reach_c3():
    ok, proof = derives({C1, C2}, C3, RuleSystem.STANDARD, BUDGET_SCHEMA)
    assert not ok and proof is None


def test_derives_member_and_reflexive():
    ok, proof = derives({C1}, C1, RuleSystem.STANDARD, BUDGET_SCHEMA)
    assert ok and proof.rule == "axiom"
    refl = parse_ind("Budget[year,proj] <= Budget[year,proj]")
    ok, proof = derives(set(), refl, RuleSystem.STANDARD, BUDGET_SCHEMA)
    assert ok and proof.rule == "reflexivity"


def test_derives_validates_sigma_for_a_reflexive_query():
    sigma = {parse_ind("Q[Z] <= R[A]")}
    schema = schema_of({"R": ("A", "B")})
    for tau in ("R[A] <= R[A]", "R[A] <= R[B]"):
        with pytest.raises(UnknownRelation):
            derives(sigma, parse_ind(tau), RuleSystem.STANDARD, schema)


def test_saturate_monotone_and_idempotent():
    schema = schema_of({"R": ("A", "B"), "S": ("C", "D")})
    small = {parse_ind("R[A] <= S[C]")}
    big = small | {parse_ind("S[C,D] <= R[A,B]")}
    for system in RuleSystem:
        closed_small = saturate(small, system, schema)
        closed_big = saturate(big, system, schema)
        assert set(closed_small) <= set(closed_big)
        assert list(saturate(closed_big, system, schema)) == list(closed_big)


def test_saturate_deterministic():
    schema = schema_of({"R": ("A", "B"), "S": ("C", "D")})
    sigma = [parse_ind("R[A,B] <= S[C,D]"), parse_ind("S[] <= R[]")]
    runs = [saturate(sigma, RuleSystem.STANDARD_WS, schema) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_proof_reconstruction_chain():
    # Expense[proj] <= Grant[proj] comes from projecting C1 and composing with C2
    ok, proof = derives({C1, C2}, parse_ind("Expense[proj] <= Grant[proj]"),
                        RuleSystem.STANDARD, BUDGET_SCHEMA)
    assert ok
    rules = set()

    def collect(node):
        rules.add(node.rule)
        for p in node.premises:
            collect(p)

    collect(proof)
    assert "transitivity" in rules and "project_permute" in rules
    check_proof(proof, {C1, C2})


def test_check_proof_rejects_bogus():
    bogus = DerivationProof("axiom", C3)
    with pytest.raises(ProofError):
        check_proof(bogus, {C1, C2})
    wrong_trans = DerivationProof(
        "transitivity", C3,
        (DerivationProof("axiom", C1), DerivationProof("axiom", C2)))
    with pytest.raises(ProofError):
        check_proof(wrong_trans, {C1, C2})


FORGED_SIGMA = {parse_ind("R[A] <= S[B]")}
FORGED = DerivationProof(RULE_WEAK_SYMMETRY, parse_ind("S[B] <= R[A]"), (
    DerivationProof(RULE_AXIOM, parse_ind("R[A] <= S[B]")),
    DerivationProof(RULE_BALANCE, parse_ind("S[] <= R[]"))))


@pytest.mark.parametrize("system", [RuleSystem.STANDARD, RuleSystem.STANDARD_WS,
                                    RuleSystem.STANDARD_BALANCE])
def test_check_proof_rejects_rules_outside_its_system(system):
    # weak symmetry over a balance leaf needs both; without a system, any rule goes
    with pytest.raises(ProofError, match=re.escape(f"outside the {system.value} system")):
        check_proof(FORGED, FORGED_SIGMA, system)
    check_proof(FORGED, FORGED_SIGMA)
    check_proof(FORGED, FORGED_SIGMA, RuleSystem.STANDARD_WS_BALANCE)


def test_balanced_weakly_absorptive_proof_uses_balance_without_weak_symmetry():
    sigma = {parse_ind("R[A] <= S[B]")}
    tau = parse_ind("S[] <= R[]")
    verdict = decide_entailment(sigma, tau, BOOLEAN, balanced=True)
    assert verdict.entailed and verdict.proof.rule == RULE_BALANCE
    check_proof(verdict.proof, sigma, RuleSystem.STANDARD_BALANCE)
    # the inverse needs weak symmetry as well
    inverse_tau = parse_ind("S[B] <= R[A]")
    schema = infer_schema([*sigma, tau])
    assert derives(sigma, inverse_tau, RuleSystem.STANDARD_BALANCE, schema) == (False, None)
    ok, proof = derives(sigma, inverse_tau, RuleSystem.STANDARD_WS_BALANCE, schema)
    assert ok and proof.rule == RULE_WEAK_SYMMETRY
    with pytest.raises(ProofError, match=re.escape("outside the standard+balance system")):
        check_proof(proof, sigma, RuleSystem.STANDARD_BALANCE)


def test_check_proof_rejects_plain_symmetry_as_unknown_rule():
    node = DerivationProof("symmetry", C3, (DerivationProof("axiom", C2),))
    with pytest.raises(ProofError, match="unknown rule 'symmetry'"):
        check_proof(node, {C2})


@pytest.mark.parametrize("rule, premises", [
    ("axiom", (DerivationProof("axiom", C2),)),
    ("reflexivity", (DerivationProof("axiom", C2),)),
    ("balance", (DerivationProof("axiom", C2),)),
    ("project_permute", ()),
    ("transitivity", (DerivationProof("axiom", C2),)),
    ("weak_symmetry", (DerivationProof("axiom", C2),) * 3),
])
def test_check_proof_rejects_a_wrong_premise_count(rule, premises):
    node = DerivationProof(rule, C2, premises, (0,) if rule == "project_permute" else None)
    with pytest.raises(ProofError, match=f"malformed {rule} step"):
        check_proof(node, {C2})


def test_proof_json_shape():
    ok, proof = derives({C2, C4}, C3, RuleSystem.STANDARD_WS, BUDGET_SCHEMA)
    doc = proof_to_json(proof)
    assert doc["rule"] == "weak_symmetry"
    assert doc["conclusion"] == format_ind(C3)
    assert {p["conclusion"] for p in doc["premises"]} == {format_ind(C2), format_ind(C4)}


def test_ws_needs_reflexivity_seed_for_single_relation():
    schema = schema_of({"R": ("A", "B")})
    sigma = {parse_ind("R[A] <= R[B]")}
    closed = saturate(sigma, RuleSystem.STANDARD_WS, schema)
    # R[] <= R[] seeds the weak-symmetry premise
    assert parse_ind("R[B] <= R[A]") in closed


def test_infer_schema_matches_manual():
    assert infer_schema([C1, C2, C4]).relations["Expense"] == ("proj", "year")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_search_matches_reference_closure(data):
    schema = data.draw(schemas())
    sigma = set(data.draw(st.lists(dependencies(schema), max_size=5)))
    tau = data.draw(dependencies(schema))
    rels = schema.relations
    for system in RuleSystem:
        closed = saturate(sigma, system, schema)
        assert list(closed) == list(reference_closure(sigma, system, schema))
        axioms = sigma | ({IND(a, (), b, ()) for a in rels for b in rels if a != b}
                          if system.has_balance else set())
        for ind in closed:
            ok, proof = derives(sigma, ind, system, schema)
            assert ok and proof.conclusion == ind
            check_proof(proof, axioms)
            check_proof(proof, sigma, system)
        ok, proof = derives(sigma, tau, system, schema)
        assert ok == (tau.is_reflexive or tau in closed)
        assert proof is None if not ok else proof.conclusion == tau


def test_first_member_in_canonical_order_gives_the_edge():
    # both assumptions give the edge R[A] -> S[C]; the projection of the
    # first in canonical order is kept, not the second assumption itself
    sigma = {parse_ind("R[A] <= S[C]"), parse_ind("R[A,B] <= S[C,D]")}
    tau = parse_ind("R[A] <= S[C]")
    ok, proof = derives(sigma, tau, RuleSystem.STANDARD, infer_schema(sorted(sigma, key=str)))
    assert ok
    assert proof_to_json(proof) == {
        "rule": "project_permute", "conclusion": "R[A] <= S[C]", "indices": [0],
        "premises": [{"rule": "axiom", "conclusion": "R[A,B] <= S[C,D]"}]}


def path_length(proof):
    """The number of edges a path proof composes."""
    if proof.rule == RULE_TRANSITIVITY:
        return sum(path_length(p) for p in proof.premises)
    return 0 if proof.rule == RULE_REFLEXIVITY else 1


def distances(sigma, source):
    """Each side the standard rules reach from ``source``, by its number of
    edges on a shortest path: breadth-first over every index selection of
    every assumption."""
    dist, frontier = {source: 0}, [source]
    while frontier:
        reached = []
        for rel, attrs in frontier:
            for s in sigma:
                if s.lhs_rel == rel and set(attrs) <= set(s.lhs_attrs):
                    succ = (s.rhs_rel, tuple(s.rhs_attrs[s.lhs_attrs.index(a)] for a in attrs))
                    if succ not in dist:
                        dist[succ] = dist[rel, attrs] + 1
                        reached.append(succ)
        frontier = reached
    return dist


def assert_paths_shortest(sigma, schema):
    for fact in saturate(sigma, RuleSystem.STANDARD, schema):
        ok, proof = derives(sigma, fact, RuleSystem.STANDARD, schema)
        assert ok
        dist = distances(sigma, (fact.lhs_rel, fact.lhs_attrs))
        assert path_length(proof) == dist[fact.rhs_rel, fact.rhs_attrs]


def test_search_finds_a_shortest_path():
    # R[A] reaches V[A] in two edges through S; a search that expands T[A]
    # before S[A] reaches it in three
    sigma = {parse_ind(t) for t in ("R[A] <= S[A]", "R[A] <= T[A]", "T[A] <= U[A]",
                                    "U[A] <= V[A]", "S[A] <= V[A]")}
    assert_paths_shortest(sigma, infer_schema(sorted(sigma, key=str)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_search_finds_a_shortest_path_on_random_input(data):
    schema = data.draw(schemas())
    assert_paths_shortest(set(data.draw(st.lists(dependencies(schema), max_size=6))), schema)


def test_one_graph_searched_again_gives_the_same_proofs():
    sigma = {parse_ind("R[A,B] <= S[C,D]"), parse_ind("S[C] <= T[E]"), parse_ind("S[] <= R[]")}
    schema = infer_schema(sorted(sigma, key=str))
    taus = [parse_ind(t) for t in ("S[D,C] <= R[B,A]", "R[A] <= T[E]", "S[C] <= R[A]")]
    graph = DerivationGraph(sigma, RuleSystem.STANDARD_WS, schema)
    for tau in taus + taus[::-1]:
        fresh = DerivationGraph(sigma, RuleSystem.STANDARD_WS, schema).derives(tau)
        assert graph.derives(tau) == fresh and fresh[0]
    assert graph.derives(taus[0])[1].rule == RULE_WEAK_SYMMETRY


def chain(k, n):
    """k relations of arity n, a full-arity dependency from each to the next
    and an arity-0 one back; the query is the inverse of the whole chain."""
    attrs = tuple(f"A{j}" for j in range(n))
    rels = [f"R{i}" for i in range(k)]
    sigma = set()
    for lhs, rhs in zip(rels, rels[1:]):
        sigma |= {IND(lhs, attrs, rhs, attrs), IND(rhs, (), lhs, ())}
    return sigma, IND(rels[-1], attrs, rels[0], attrs), schema_of({r: attrs for r in rels})


def test_chain_saturates_in_one_component():
    sigma, tau, schema = chain(20, 3)
    # 20 relations of 15 positive-arity sides each reach the matching side of
    # the 19 others, plus 20 * 19 arity-0 pairs and 20 seeds
    assert len(saturate(sigma, RuleSystem.STANDARD_WS, schema)) == 6_100
    assert decide_entailment(sigma, tau, NATURALS).entailed
    assert not decide_entailment(sigma, tau, BOOLEAN).entailed


def test_long_chain_proof_stays_shallow():
    sigma, _, schema = chain(1_200, 1)
    tau = IND("R0", ("A0",), "R1199", ("A0",))
    ok, proof = derives(sigma, tau, RuleSystem.STANDARD, schema)
    assert ok and proof.conclusion == tau
    check_proof(proof, sigma)
    assert proof_to_json(proof)["conclusion"] == format_ind(tau)
    assert proof_to_text(proof).count("[axiom]") == 1_199


def test_wide_arity_inverse_is_found_without_enumerating_selections():
    # 16-ary assumptions have about 5.7e13 index selections; the search
    # visits only the sides it reaches
    lhs, rhs = tuple(f"A{i}" for i in range(16)), tuple(f"B{i}" for i in range(16))
    sigma = {IND("R", lhs, "S", rhs), IND("S", (), "R", ())}
    inverse_tau = IND("S", rhs, "R", lhs)
    schema = infer_schema([*sigma, inverse_tau])
    ok, proof = derives(sigma, inverse_tau, RuleSystem.STANDARD_WS, schema)
    assert ok and proof.conclusion == inverse_tau
    check_proof(proof, sigma)
    assert derives(sigma, inverse_tau, RuleSystem.STANDARD, schema) == (False, None)

    verdict = decide_entailment(sigma, inverse_tau, NATURALS)
    assert verdict.entailed and verdict.proof.rule == RULE_WEAK_SYMMETRY
    verdict = decide_entailment(sigma, inverse_tau, BOOLEAN)
    assert not verdict.entailed and verdict.countermodel.construction == CONSTRUCTION_SA
    reversed_tau = IND("R", lhs[::-1], "S", rhs)
    verdict = decide_entailment(sigma, reversed_tau, NATURALS)
    assert not verdict.entailed
    assert verdict.countermodel.construction == CONSTRUCTION_WC_EMBED


def test_proof_json_gives_a_projections_indices():
    sigma, tau = {parse_ind("R[A,B] <= S[C,D]")}, parse_ind("R[B] <= S[D]")
    ok, proof = derives(sigma, tau, RuleSystem.STANDARD, infer_schema([*sigma, tau]))
    assert ok
    check_proof(proof, sigma)
    assert proof_to_json(proof) == {
        "rule": "project_permute", "conclusion": "R[B] <= S[D]", "indices": [1],
        "premises": [{"rule": "axiom", "conclusion": "R[A,B] <= S[C,D]"}]}


@pytest.mark.parametrize("system,searches", [
    (RuleSystem.STANDARD_WS, [("R", ())]),
    (RuleSystem.STANDARD_WS_BALANCE, []),
], ids=["ws", "balance"])
def test_weak_symmetry_admission_searches_each_right_relation_once(monkeypatch, system,
                                                                   searches):
    """Two assumptions into R are admitted for reversal by one arity-0
    search from R[], and under balance by none."""
    sigma = [parse_ind(t) for t in ("S[B] <= R[A]", "T[C] <= R[A]", "R[] <= S[]")]
    schema = infer_schema(sigma)
    sources = []
    search = DerivationGraph.search

    def counted(self, source):
        sources.append(source)
        return search(self, source)

    monkeypatch.setattr(DerivationGraph, "search", counted)
    graph = DerivationGraph(sigma, system, schema)
    assert sources == searches
    monkeypatch.undo()
    if system is RuleSystem.STANDARD_WS:  # R[] reaches S[], not T[]
        assert graph.members[len(sigma):] == [parse_ind("R[A] <= S[B]")]
    ok, proof = graph.derives(parse_ind("R[A] <= S[B]"))
    assert ok and proof.rule == RULE_WEAK_SYMMETRY
    assert [(p.rule, p.conclusion) for p in proof.premises] == [
        (RULE_AXIOM, sigma[0]), (RULE_AXIOM, sigma[2])]
