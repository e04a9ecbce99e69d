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
    RULE_WEAK_SYMMETRY,
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
    closed = saturate(sigma, RuleSystem.STANDARD_BALANCE, schema)
    assert parse_ind("S[B] <= R[A]") in closed
    assert parse_ind("R[] <= S[]") in closed and parse_ind("S[] <= R[]") in closed
    ws_only = saturate(sigma, RuleSystem.STANDARD_WS, schema)
    assert parse_ind("S[B] <= R[A]") not in ws_only


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
        ok, proof = derives(sigma, tau, system, schema)
        assert ok == (tau.is_reflexive or tau in closed)
        assert proof is None if not ok else proof.conclusion == tau


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
