import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kindb.entail
import kindb.infer
from helpers import BUILTIN_MONOIDS, WEIGHT_POOLS, dependencies, schemas
from kindb.errors import (
    CountermodelError,
    InvalidChain,
    NoCountermodel,
    UnsupportedMonoid,
)
from kindb.entail import (
    CONSTRUCTION_CA,
    CONSTRUCTION_SA,
    CONSTRUCTION_WC_EMBED,
    balance_instances,
    build_countermodel_ca,
    build_countermodel_wc,
    decide_entailment,
)
from kindb.ind import infer_schema, parse_ind, satisfies
from kindb.infer import DerivationProof, RuleSystem
from kindb.kdb import is_balanced, load_database
from kindb.monoid import (
    BOOLEAN,
    MAX_NATURALS,
    NATURALS,
    NONNEG_RATIONALS,
    monogenic,
)
from kindb.oracle import brute_force_balanced_entails, brute_force_entails
from test_acceptance import _fixture_tables

MONO23 = monogenic(2, 3)

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
    sigma = {parse_ind("R[A] <= S[B]")}
    tau = parse_ind("S[B] <= R[A]")
    identity = build_countermodel_wc(sigma, tau, NATURALS, 1)
    assert identity.construction == CONSTRUCTION_WC_EMBED
    halved = build_countermodel_wc(sigma, tau, NONNEG_RATIONALS, Fraction(1, 2))
    for rel, kr in identity.database.relations.items():
        for row, n in kr.weights.items():
            assert halved.database.relation(rel).weights[row] == Fraction(n, 2)
    assert all(satisfies(halved.database, s) for s in sigma)
    assert not satisfies(halved.database, tau)


def test_wc_countermodel_requires_refutable_tau():
    with pytest.raises(NoCountermodel):
        build_countermodel_wc({C2, C4}, C3, NATURALS, 1)


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


def test_classification_override():
    wa_report = BOOLEAN.classify()
    # the override drives dispatch: under the absorptive reading the
    # weak-symmetry conclusion is no longer derivable, and the countermodel
    # constructions rightly refuse a monoid without absorption witnesses
    with pytest.raises(UnsupportedMonoid):
        decide_entailment(DICH_SIGMA, DICH_TAU, NATURALS, report=wa_report)
    # derivable queries stay entailed whatever the dispatch
    member = parse_ind("R[A] <= S[B]")
    verdict = decide_entailment({member}, member, NATURALS, report=wa_report)
    assert verdict.entailed and verdict.method == "classical_chase"


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
    # one search decides and one chase builds the countermodel; no closure is built
    calls = {"derives": 0, "saturate": 0, "chase": 0}

    def spy(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    spy(kindb.entail, "derives", "derives")
    spy(kindb.infer, "saturate", "saturate")
    # a binding of saturate in kindb.entail would be counted as well
    monkeypatch.setattr(kindb.entail, "saturate", kindb.infer.saturate, raising=False)
    spy(kindb.entail, "plus_chase", "chase")
    spy(kindb.entail, "classical_chase", "chase")
    verdict = decide_entailment(sigma, tau, m, balanced=balanced)
    assert verdict.entailed == entailed
    assert calls == {"derives": 1, "saturate": 0, "chase": 1}


def test_closure_and_chase_must_agree(monkeypatch):
    real_derives = kindb.entail.derives
    # the search misses a dependency that the chase derives by composition
    sigma = {parse_ind("R[A] <= S[B]"), parse_ind("S[B] <= T[C]")}
    tau = parse_ind("R[A] <= T[C]")
    assert real_derives(sigma, tau, RuleSystem.STANDARD, infer_schema([*sigma, tau]))[0]
    monkeypatch.setattr(kindb.entail, "derives", lambda *args: (False, None))
    for m in (NATURALS, BOOLEAN):
        with pytest.raises(CountermodelError, match="disagree"):
            decide_entailment(sigma, tau, m)

    # the search claims a dependency that the chase never derives
    sigma = {parse_ind("R[A] <= S[B]")}
    assert not real_derives(sigma, DICH_TAU, RuleSystem.STANDARD_WS,
                            infer_schema([*sigma, DICH_TAU]))[0]
    monkeypatch.setattr(kindb.entail, "derives",
                        lambda *args: (True, DerivationProof("axiom", DICH_TAU)))
    for m in (NATURALS, BOOLEAN):
        with pytest.raises(CountermodelError, match="disagree"):
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
                            st.builds(monogenic, st.integers(1, 6), st.integers(1, 6))))
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
