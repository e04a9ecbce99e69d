import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kindb.entail
import kindb.infer
from helpers import BUILTIN_MONOIDS, WEIGHT_POOLS, balance_instances, dependencies, schemas
from kindb.cli import main
from kindb.errors import (
    CountermodelError,
    InvalidChain,
    NoCountermodel,
    ProofError,
    UnsupportedMonoid,
)
from kindb.entail import (
    CONSTRUCTION_CA,
    CONSTRUCTION_SA,
    CONSTRUCTION_WC_EMBED,
    build_countermodel_ca,
    decide_entailment,
)
from kindb.ind import infer_schema, parse_ind, satisfies
from kindb.infer import DerivationProof, RuleSystem
from kindb.kdb import is_balanced, load_database, schema_of
from kindb.monoid import (
    BOOLEAN,
    MAX_NATURALS,
    NATURALS,
    NONNEG_RATIONALS,
    MonogenicMonoid,
    NaturalsMonoid,
)
from kindb.oracle import (
    CONSTRUCTION_ENUMERATION,
    brute_force_balanced_entails,
    brute_force_entails,
)
from test_acceptance import _fixture_tables

MONO23 = MonogenicMonoid(2, 3)

C1 = parse_ind("Expense[proj,year] <= Budget[proj,year]")
C2 = parse_ind("Budget[proj] <= Grant[proj]")
C3 = parse_ind("Grant[proj] <= Budget[proj]")
C4 = parse_ind("Grant[] <= Budget[]")

DICH_SIGMA = {parse_ind("R[A] <= S[B]"), parse_ind("S[] <= R[]")}
DICH_TAU = parse_ind("S[B] <= R[A]")


def test_weak_symmetry_entailment_over_naturals():
    verdict = decide_entailment({C2, C4}, C3, NATURALS)
    assert verdict.entailed
    assert verdict.proof is not None and verdict.proof.rule == "weak_symmetry"
    assert verdict.method == "plus_chase"


def test_reflexive_always_entailed():
    tau = parse_ind("R[A] <= R[A]")
    for m in (NATURALS, BOOLEAN, MAX_NATURALS, MONO23, NONNEG_RATIONALS):
        assert decide_entailment(set(), tau, m).entailed


def test_dichotomy_witness():
    entailed_monoids = [NATURALS, NONNEG_RATIONALS]
    refuted_monoids = [BOOLEAN, MAX_NATURALS, MONO23]
    for m in entailed_monoids:
        assert decide_entailment(DICH_SIGMA, DICH_TAU, m).entailed
    for m in refuted_monoids:
        verdict = decide_entailment(DICH_SIGMA, DICH_TAU, m)
        assert not verdict.entailed
        cm = verdict.countermodel
        assert cm is not None
        assert all(satisfies(cm.database, s) for s in DICH_SIGMA)
        assert not satisfies(cm.database, DICH_TAU)


def test_boolean_countermodel_shape():
    # same asymmetry as the warehouse/orders table: one point lives only on
    # the larger side
    verdict = decide_entailment(DICH_SIGMA, DICH_TAU, BOOLEAN)
    db = verdict.countermodel.database
    lhs = db.relation("S").support()
    rhs = db.relation("R").support()
    assert ("1",) in {r for r in lhs} and ("1",) not in rhs


def test_entailment_is_schema_insensitive_to_extra_attributes():
    from kindb.kdb import schema_of

    wide = schema_of({"R": ("A", "Z"), "S": ("B", "W")})
    assert decide_entailment(DICH_SIGMA, DICH_TAU, NATURALS, schema=wide).entailed
    verdict = decide_entailment(DICH_SIGMA, DICH_TAU, BOOLEAN, schema=wide)
    assert not verdict.entailed
    db = verdict.countermodel.database
    assert all(satisfies(db, s) for s in DICH_SIGMA) and not satisfies(db, DICH_TAU)


def test_unmentioned_relations_do_not_break_balanced_countermodels():
    from kindb.kdb import schema_of

    wide = schema_of({"R": ("A",), "S": ("B",), "T": ("C", "D")})
    sigma = {parse_ind("R[A] <= S[B]")}
    tau = parse_ind("S[B] <= R[A]")
    verdict = decide_entailment(sigma, tau, BOOLEAN, balanced=True, schema=wide)
    assert not verdict.entailed
    db = verdict.countermodel.database
    assert set(db.schema.relations) == {"R", "S"}
    assert is_balanced(db)


def test_balanced_entailment_symmetry():
    sigma = {parse_ind("R[A] <= S[B]")}
    tau = parse_ind("S[B] <= R[A]")
    # unbalanced: not entailed even over the naturals
    assert not decide_entailment(sigma, tau, NATURALS).entailed
    # balanced: weak symmetry kicks in through the balance axioms
    verdict = decide_entailment(sigma, tau, NATURALS, balanced=True)
    assert verdict.entailed and verdict.method == "balanced_augmentation"
    rules = set()

    def collect(node):
        rules.add(node.rule)
        for p in node.premises:
            collect(p)

    collect(verdict.proof)
    assert "balance" in rules and "weak_symmetry" in rules


def test_balanced_entailment_wa_countermodel_is_balanced():
    sigma = {parse_ind("R[A] <= S[B]")}
    tau = parse_ind("S[B] <= R[A]")
    verdict = decide_entailment(sigma, tau, BOOLEAN, balanced=True)
    assert not verdict.entailed
    assert is_balanced(verdict.countermodel.database)


def test_balanced_reduction_equivalence():
    sigma = {parse_ind("R[A] <= S[B]")}
    tau = parse_ind("S[B] <= R[A]")
    for m in (NATURALS, BOOLEAN, MONO23):
        direct = decide_entailment(sigma, tau, m, balanced=True)
        star = sigma | balance_instances(sigma, tau)
        reduced = decide_entailment(star, tau, m, balanced=False)
        assert direct.entailed == reduced.entailed


def test_balance_axiom_only_valid_when_balanced():
    tau = parse_ind("R[] <= S[]")
    assert decide_entailment(set(), tau, NATURALS, balanced=True).entailed
    verdict = decide_entailment(set(), tau, NATURALS, balanced=False)
    assert not verdict.entailed and not satisfies(verdict.countermodel.database, tau)


def test_wc_countermodel_embedding():
    # the same additive chase result, each count n weighted n*b
    sigma = {parse_ind("R[A] <= S[B]")}
    tau = parse_ind("S[B] <= R[A]")
    counts = decide_entailment(sigma, tau, NATURALS).countermodel
    assert counts.construction == CONSTRUCTION_WC_EMBED and counts.params == {"generator": 1}
    scaled = decide_entailment(sigma, tau, NONNEG_RATIONALS).countermodel
    b = scaled.params["generator"]
    assert scaled.construction == CONSTRUCTION_WC_EMBED and b != 0
    for rel, kr in counts.database.relations.items():
        for row, n in kr.weights.items():
            assert scaled.database.relation(rel).weights[row] == n * Fraction(b)
    assert all(satisfies(scaled.database, s) for s in sigma)
    assert not satisfies(scaled.database, tau)


@pytest.mark.parametrize("length", [1, 6])
def test_wc_countermodel_checks_its_generator_once(monkeypatch, length):
    # R0[A] <= R1[A] <= ... <= Rk[A] refutes R0[A] <= U[A]: the countermodel has
    # one row per Ri; the canonical start checks its weight, and b is checked once
    sigma = {parse_ind(f"R{i}[A] <= R{i + 1}[A]") for i in range(length)}
    tau = parse_ind("R0[A] <= U[A]")
    checked = []
    real_check = NATURALS.check

    def counting_check(value):
        checked.append(value)
        return real_check(value)
    monkeypatch.setattr(NATURALS, "check", counting_check)
    verdict = decide_entailment(sigma, tau, NATURALS)
    rows = sum(len(kr.weights) for kr in verdict.countermodel.database.relations.values())
    assert not verdict.entailed and rows == length + 1
    assert verdict.countermodel.construction == CONSTRUCTION_WC_EMBED
    assert len(checked) == 2


def test_ca_countermodel_on_boolean():
    sigma = {parse_ind("R[A] <= S[B]")}
    tau = parse_ind("S[B] <= R[A]")
    cm = build_countermodel_ca(sigma, tau, BOOLEAN, [1, 1])
    assert cm.construction == CONSTRUCTION_SA
    assert all(satisfies(cm.database, s) for s in sigma)
    assert not satisfies(cm.database, tau)


def test_ca_countermodel_stratified_chain_on_monogenic():
    # 1 + 2 = 3 != 2, so [1, 2] is not a chain; 2 is absorbed by nothing;
    # use the valid consecutive chain 1 -> absorbing idempotent 3? 1+3 = 4 != 3.
    # the only absorptions into an element are (3,2), (3,3), (3,4): chain [3, 3]
    cm = build_countermodel_ca(DICH_SIGMA, DICH_TAU, MONO23, [3, 3])
    assert cm.construction == CONSTRUCTION_SA
    assert all(satisfies(cm.database, s) for s in DICH_SIGMA)
    assert not satisfies(cm.database, DICH_TAU)
    with pytest.raises(InvalidChain):
        build_countermodel_ca(DICH_SIGMA, DICH_TAU, MONO23, [1, 2])
    with pytest.raises(InvalidChain):
        build_countermodel_ca(DICH_SIGMA, DICH_TAU, MONO23, [3])
    with pytest.raises(InvalidChain):
        build_countermodel_ca(DICH_SIGMA, DICH_TAU, MONO23, [0, 3])


def test_ca_countermodel_mixed_chain():
    # 3 + 2 = 2 in the monogenic quotient, so [3, 2] is a genuine two-step chain
    cm = build_countermodel_ca(DICH_SIGMA, DICH_TAU, MONO23, [3, 2])
    assert cm.construction == CONSTRUCTION_CA
    assert all(satisfies(cm.database, s) for s in DICH_SIGMA)
    assert not satisfies(cm.database, DICH_TAU)


def test_ca_rejects_derivable_tau():
    with pytest.raises(NoCountermodel):
        build_countermodel_ca({parse_ind("R[A] <= S[B]")},
                              parse_ind("R[A] <= S[B]"), BOOLEAN, [1, 1])


class AbsorptiveNaturals(NaturalsMonoid):
    """The naturals, misclassified as weakly absorptive: a caller's own
    ``MonoidSpec`` whose report has no nonzero idempotent behind it."""

    def classify(self):
        return BOOLEAN.classify()


def test_classification_override():
    m = AbsorptiveNaturals()
    # the classification drives dispatch: under the absorptive reading the
    # weak-symmetry conclusion is no longer derivable, and the countermodel
    # constructions rightly refuse a monoid without absorption witnesses
    with pytest.raises(UnsupportedMonoid):
        decide_entailment(DICH_SIGMA, DICH_TAU, m)
    # derivable queries stay entailed whatever the dispatch
    member = parse_ind("R[A] <= S[B]")
    verdict = decide_entailment({member}, member, m)
    assert verdict.entailed and verdict.method == "classical_chase"


def test_additive_chase_over_budget_exits_3(capsys, tmp_path):
    (tmp_path / "sigma.txt").write_text("R[A] <= R[B]\n")
    argv = ["entail", str(tmp_path / "sigma.txt"), "R[A,B] <= R[B,A]", "--step-limit", "1"]
    assert main(argv) == 3
    assert "exceeded its budget" in capsys.readouterr().err


def test_trivial_monoid_rejected():
    from kindb.monoid import TableMonoid

    trivial = TableMonoid(["0"], {("0", "0"): "0"}, "0")
    with pytest.raises(UnsupportedMonoid):
        decide_entailment(DICH_SIGMA, DICH_TAU, trivial)


def test_verdict_json():
    verdict = decide_entailment({C2, C4}, C3, NATURALS)
    doc = verdict.to_json()
    assert doc["entailed"] is True and "proof" in doc
    verdict2 = decide_entailment(DICH_SIGMA, DICH_TAU, BOOLEAN)
    doc2 = verdict2.to_json()
    assert doc2["entailed"] is False
    db = load_database(doc2["countermodel"]["database"], allow_star=True)
    assert all(satisfies(db, s) for s in DICH_SIGMA) and not satisfies(db, DICH_TAU)
    assert doc2["countermodel"]["construction"] == CONSTRUCTION_SA


ONE_PASS_CASES = [
    ({C2, C4}, C3, NATURALS, False, True),
    ({parse_ind("R[A] <= S[B]")}, DICH_TAU, NATURALS, False, False),
    ({C1, C2}, parse_ind("Expense[proj] <= Grant[proj]"), BOOLEAN, False, True),
    (DICH_SIGMA, DICH_TAU, BOOLEAN, False, False),
    ({parse_ind("R[A] <= S[B]")}, DICH_TAU, NATURALS, True, True),
]


@pytest.mark.parametrize("sigma,tau,m,balanced,entailed", ONE_PASS_CASES)
def test_one_saturation_and_one_chase_per_query(monkeypatch, sigma, tau, m, balanced,
                                                entailed):
    # one graph, searched once, decides; a refuted query is chased once by
    # its members to build the countermodel, an entailed one not at all; no
    # closure is built
    calls = {"graph": 0, "derives": 0, "saturate": 0, "chase": 0}

    def spy(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(kindb.infer.DerivationGraph, "__init__", "graph")
    spy(kindb.infer.DerivationGraph, "derives", "derives")
    spy(kindb.infer, "saturate", "saturate")
    # a binding of saturate in kindb.entail would be counted as well
    monkeypatch.setattr(kindb.entail, "saturate", kindb.infer.saturate, raising=False)
    spy(kindb.entail, "plus_chase", "chase")
    spy(kindb.entail, "classical_chase", "chase")
    verdict = decide_entailment(sigma, tau, m, balanced=balanced)
    assert verdict.entailed == entailed
    assert calls == {"graph": 1, "derives": 1, "saturate": 0, "chase": 0 if entailed else 1}


def test_every_verdict_is_certified(monkeypatch):
    real_derives = kindb.infer.derives
    # the search misses a dependency that the chase derives by composition:
    # the chased countermodel satisfies it and fails verification
    sigma = {parse_ind("R[A] <= S[B]"), parse_ind("S[B] <= T[C]")}
    tau = parse_ind("R[A] <= T[C]")
    assert real_derives(sigma, tau, RuleSystem.STANDARD, infer_schema([*sigma, tau]))[0]
    with monkeypatch.context() as patch:
        patch.setattr(kindb.infer.DerivationGraph, "derives", lambda *args: (False, None))
        for m in (NATURALS, BOOLEAN):
            with pytest.raises(CountermodelError, match="failed verification"):
                decide_entailment(sigma, tau, m)

    # the search reaches the query but builds a bogus proof of it, an axiom
    # that is not an assumption: the proof check inside derives rejects it
    sigma = {parse_ind("S[B] <= T[C]"), parse_ind("T[C] <= R[A]")}
    assert real_derives(sigma, DICH_TAU, RuleSystem.STANDARD,
                        infer_schema([*sigma, DICH_TAU]))[0]
    monkeypatch.setattr(kindb.infer.DerivationGraph, "path_proof",
                        lambda *args: DerivationProof("axiom", DICH_TAU))
    for m in (NATURALS, BOOLEAN):
        with pytest.raises(ProofError):
            decide_entailment(sigma, DICH_TAU, m)


def test_invalid_assumptions_are_reported_in_canonical_order():
    # two unknown relations: the one named first in canonical order is
    # reported, whatever the hash seed
    call = ("from kindb.entail import decide_entailment\n"
            "from kindb.ind import parse_ind\n"
            "from kindb.kdb import schema_of\n"
            "from kindb.monoid import NATURALS\n"
            "sigma = {parse_ind('Q[Z] <= R[A]'), parse_ind('P[Y] <= R[A]')}\n"
            "try:\n"
            "    decide_entailment(sigma, parse_ind('R[A] <= R[B]'), NATURALS,\n"
            "                      schema=schema_of({'R': ('A', 'B')}))\n"
            "except Exception as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(kindb.entail.__file__))
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", call], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "unknown relation 'P'"


# the saturating and max (join) tables; monogenic ones are drawn below
FIXED_MONOIDS = BUILTIN_MONOIDS + [t for name, t in _fixture_tables()
                                   if not name.startswith("monogenic")]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dichotomy_reduces_to_naturals_or_boolean(data):
    """The paper's theorem: entailment over a weakly cancellative monoid is
    entailment over the naturals, over a weakly absorptive one over boolean."""
    schema = data.draw(schemas(relations=3, arity=2))
    sigma = set(data.draw(st.lists(dependencies(schema), max_size=3)))
    tau = data.draw(dependencies(schema))
    m = data.draw(st.one_of(st.sampled_from(FIXED_MONOIDS),
                            st.builds(MonogenicMonoid, st.integers(1, 6), st.integers(1, 6))))
    nonzero = ([v for v in m.elements() if v != m.zero] if m.is_finite
               else WEIGHT_POOLS[m.name])
    pool = data.draw(st.lists(st.sampled_from(nonzero), min_size=1, max_size=2, unique=True))
    wc = m.classify().weakly_cancellative
    for balanced in (False, True):
        verdict = decide_entailment(sigma, tau, m, balanced=balanced, schema=schema)
        base = decide_entailment(sigma, tau, NATURALS if wc else BOOLEAN, balanced=balanced,
                                 schema=schema)
        assert verdict.entailed == base.entailed
        if verdict.entailed:
            search = brute_force_balanced_entails if balanced else brute_force_entails
            assert search(sigma, tau, m, adom=["x", "y"], weight_pool=pool, max_tuples=2,
                          schema=schema) is None
        else:
            cm = verdict.countermodel
            assert cm.construction == (CONSTRUCTION_WC_EMBED if wc else CONSTRUCTION_SA)
            db = cm.database
            assert db.monoid is m
            assert all(satisfies(db, s) for s in sigma) and not satisfies(db, tau)
            assert is_balanced(db) or not balanced


WA_MONOIDS = [m for m in FIXED_MONOIDS if not m.classify().weakly_cancellative]


def test_ca_countermodel_keeps_only_the_mentioned_relations():
    sigma, tau = {parse_ind("R[A] <= S[B]")}, parse_ind("S[B] <= R[A]")
    wide = schema_of({"R": ("A", "C"), "S": ("B",), "U": ("D",)})
    cm = build_countermodel_ca(sigma, tau, BOOLEAN, [1, 1], schema=wide)
    assert sorted(cm.database.relations) == ["R", "S"]
    assert cm.database.schema.relations == {"R": ("A", "C"), "S": ("B",)}
    assert cm.database == decide_entailment(sigma, tau, BOOLEAN, schema=wide).countermodel.database


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_constant_chain_gives_decide_entailments_countermodel_over_any_schema(data):
    schema = data.draw(schemas(relations=3, arity=2))
    wide = schema_of({**schema.relations, "W": ("W0",)})
    sigma = set(data.draw(st.lists(dependencies(schema), max_size=3)))
    tau = data.draw(dependencies(schema))
    m = data.draw(st.one_of(st.sampled_from(WA_MONOIDS),
                            st.builds(MonogenicMonoid, st.integers(1, 6), st.integers(1, 6))))
    verdict = decide_entailment(sigma, tau, m, schema=wide)
    assume(not verdict.entailed)
    chain = [m.nonzero_idempotent()] * (tau.arity + 1)
    cm = build_countermodel_ca(sigma, tau, m, chain, schema=wide)
    assert cm.database == verdict.countermodel.database
    assert cm.construction == verdict.countermodel.construction == CONSTRUCTION_SA


REFUTED = parse_ind("R[A] <= S[B]")
# each construction, built with or without the balance stipulation
CONSTRUCTIONS = {
    CONSTRUCTION_WC_EMBED: lambda balanced: decide_entailment(
        set(), REFUTED, NATURALS, balanced=balanced).countermodel,
    CONSTRUCTION_SA: lambda balanced: decide_entailment(
        set(), REFUTED, BOOLEAN, balanced=balanced).countermodel,
    CONSTRUCTION_CA: lambda balanced: build_countermodel_ca(set(), REFUTED, MONO23, [3, 2]),
    CONSTRUCTION_ENUMERATION: lambda balanced: (
        brute_force_balanced_entails if balanced else brute_force_entails)(
            set(), REFUTED, BOOLEAN, adom=["x", "y"], weight_pool=[1], max_tuples=1),
}
LIES = {"satisfies_all": lambda db, sigmas: [True for _ in sigmas],
        "is_balanced": lambda db: False}
LYING_CASES = ([("satisfies_all", c, False) for c in CONSTRUCTIONS]
               + [(lie, c, True) for lie in LIES for c in CONSTRUCTIONS if c != CONSTRUCTION_CA])


@pytest.mark.parametrize("lie,construction,balanced", LYING_CASES,
                         ids=[f"{lie}-{c}-{'balanced' if b else 'any'}"
                              for lie, c, b in LYING_CASES])
def test_every_countermodel_is_certified_by_one_verifier(monkeypatch, lie, construction,
                                                         balanced):
    build = CONSTRUCTIONS[construction]
    cm = build(balanced)
    assert cm.construction == construction and (is_balanced(cm.database) or not balanced)
    monkeypatch.setattr(kindb.entail, lie, LIES[lie])
    with pytest.raises(CountermodelError,
                       match=rf"^{construction} countermodel failed verification "
                             r"for R\[A\] <= S\[B\]$"):
        build(balanced)
