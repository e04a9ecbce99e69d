import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    WEIGHT_POOLS,
    dependencies,
    reference_marginal_at,
    reference_plus_chase,
    schemas,
    witness_pool,
)
from kindb.entail import balance_instances
from kindb.errors import MonoidMismatch, UnsupportedMonoid
from kindb.chase import (
    ChaseConfig,
    OUTCOME_STEP_LIMIT,
    OUTCOME_TERMINATED,
    applicable,
    canonical_start,
    classical_chase,
    plus_chase,
    replay,
    star_padded,
    trace_to_json,
)
from kindb.ind import IND, parse_ind, satisfies, satisfies_all
from kindb.infer import DerivationGraph, RuleSystem, derives, saturate
from kindb.kdb import (
    STAR,
    load_database,
    make_database,
    marginalize,
    schema_of,
    support,
)
from kindb.monoid import BOOLEAN, NATURALS, NONNEG_RATIONALS

R3 = schema_of({"R": ("A", "B", "C")})
LOOP = parse_ind("R[B,C] <= R[A,B]")
LOOP_BACK = parse_ind("R[A,B] <= R[B,C]")


def test_canonical_start_classical():
    schema = schema_of({"R": ("A", "B", "E"), "S": ("C", "D")})
    tau = parse_ind("R[A,B] <= S[C,D]")
    db = canonical_start(tau, schema, BOOLEAN)
    assert db.relation("R").support() == {("1", "2", STAR)}
    assert db.relation("S").support() == set()

    zero = parse_ind("R[] <= S[]")
    assert canonical_start(zero, schema, BOOLEAN).relation("R").support() == {(STAR,) * 3}

    tau2 = parse_ind("R[B,C] <= R[A,B]")
    db2 = canonical_start(tau2, R3, BOOLEAN)
    assert db2.relation("R").support() == {(STAR, "1", "2")}


def test_canonical_start_plus():
    db = canonical_start(LOOP, R3, NATURALS)
    assert db.monoid is NATURALS
    assert db.relation("R").weights == {(STAR, "1", "2"): 1}


def test_classical_chase_loop_example():
    db = canonical_start(LOOP, R3, BOOLEAN)
    result, trace = classical_chase(db, [LOOP])
    assert result.relation("R").support() == {
        (STAR, "1", "2"), ("1", "2", STAR), ("2", STAR, STAR), (STAR, STAR, STAR)}
    assert trace.outcome == OUTCOME_TERMINATED
    assert satisfies(result, LOOP)
    # fixpoint: chasing the result again adds nothing
    again, trace2 = classical_chase(result, [LOOP])
    assert again == result and not trace2.steps


def test_classical_chase_empty_sigma():
    db = canonical_start(LOOP, R3, BOOLEAN)
    result, trace = classical_chase(db, [])
    assert result == db and not trace.steps
    # full-width reflexivity instances repair to the tuple itself
    refl = IND("R", ("A", "B", "C"), "R", ("A", "B", "C"))
    result2, trace2 = classical_chase(db, [refl])
    assert result2 == db and not trace2.steps


def test_classical_chase_partial_reflexivity_pads():
    # a narrowed reflexivity instance inserts the star-padded projection;
    # the countermodel constructions rely on these companions
    db = canonical_start(LOOP, R3, BOOLEAN)
    refl = IND("R", ("B",), "R", ("B",))
    result, _ = classical_chase(db, [refl])
    assert result.relation("R").support() == {(STAR, "1", "2"), (STAR, "1", STAR)}


def test_classical_chase_requires_boolean():
    with pytest.raises(MonoidMismatch):
        classical_chase(canonical_start(LOOP, R3, NATURALS), [LOOP])


def test_applicable():
    db = canonical_start(LOOP, R3, NATURALS)
    assert applicable(db, LOOP, ("1", "2"))
    assert not applicable(db, LOOP, ("2", "1"))
    closed = plus_chase(db, [LOOP, LOOP_BACK]).result
    for witness in [("1", "2"), ("2", STAR), (STAR, STAR)]:
        assert not applicable(closed, LOOP, witness)
    with pytest.raises(UnsupportedMonoid):
        applicable(support(db), LOOP, ("1", "2"))


def test_plus_chase_nonterminating_example_hits_step_limit():
    db = canonical_start(LOOP, R3, NATURALS)
    trace = plus_chase(db, [LOOP], ChaseConfig(step_limit=500))
    assert trace.outcome == OUTCOME_STEP_LIMIT
    assert len(trace.steps) == 500
    assert replay(trace) == trace.result


def test_plus_chase_symmetric_closure_terminates():
    db = canonical_start(LOOP, R3, NATURALS)
    trace = plus_chase(db, [LOOP, LOOP_BACK])
    assert trace.outcome == OUTCOME_TERMINATED
    assert satisfies_all(trace.result, [LOOP, LOOP_BACK])
    assert replay(trace) == trace.result
    # golden: the deterministic round-robin run settles in three steps
    assert trace.result.relation("R").weights == {
        (STAR, STAR, "1"): 1,
        (STAR, "1", "2"): 1,
        ("1", "2", STAR): 1,
        ("2", STAR, STAR): 1,
    }


def test_plus_chase_zero_steps_when_satisfied():
    schema = schema_of({"R": ("A",), "S": ("B",)})
    sigma = parse_ind("R[A] <= S[B]")
    db = make_database(schema, NATURALS, {"R": {("x",): 1}, "S": {("x",): 2}})
    trace = plus_chase(db, [sigma])
    assert trace.outcome == OUTCOME_TERMINATED and not trace.steps
    assert trace.result == db


def test_plus_chase_rejects_non_wc_monoids():
    schema = schema_of({"R": ("A",), "S": ("B",)})
    db = make_database(schema, BOOLEAN, {"R": {("x",): 1}})
    with pytest.raises(UnsupportedMonoid):
        plus_chase(db, [parse_ind("R[A] <= S[B]")])


def test_plus_chase_post_step_marginal_equality():
    # replay the trace, checking after each step that the repaired marginal
    # now equals the pre-step left-hand marginal
    db = canonical_start(LOOP, R3, NATURALS)
    trace = plus_chase(db, [LOOP, LOOP_BACK])
    assert trace.steps
    m = db.monoid
    work = make_database(db.schema, m, {r: dict(k.weights) for r, k in db.relations.items()})
    for step in trace.steps:
        lhs_before = marginalize(work.relation(step.sigma.lhs_rel),
                                 step.sigma.lhs_attrs, m).weights.get(step.witness, 0)
        weights = {r: dict(k.weights) for r, k in work.relations.items()}
        rel = step.sigma.rhs_rel
        weights[rel][step.incremented] = m.add(
            weights[rel].get(step.incremented, m.zero), step.delta)
        work = make_database(db.schema, m, weights)
        rhs_after = marginalize(work.relation(step.sigma.rhs_rel),
                                step.sigma.rhs_attrs, m).weights.get(step.witness, 0)
        assert rhs_after == lhs_before
    assert work == trace.result


def test_plus_chase_monotone_weights():
    db = canonical_start(LOOP, R3, NATURALS)
    trace = plus_chase(db, [LOOP], ChaseConfig(step_limit=50))
    for step in trace.steps:
        assert step.delta != 0
    # every start weight survives in the result
    for rel, kr in db.relations.items():
        for row, w in kr.weights.items():
            assert NATURALS.leq(w, trace.result.relation(rel).weights.get(row, 0))


def test_plus_chase_terminates_on_ws_closed_sets():
    rng = random.Random(5)
    schema = schema_of({"R": ("A", "B"), "S": ("C", "D")})
    pool = [parse_ind(t) for t in (
        "R[A] <= S[C]", "S[C] <= R[A]", "R[A,B] <= S[C,D]",
        "S[] <= R[]", "R[] <= S[]", "R[A] <= R[B]", "S[D,C] <= R[A,B]")]
    taus = [parse_ind(t) for t in ("R[A] <= S[D]", "S[C,D] <= R[A,B]", "R[B] <= R[A]")]
    for _ in range(25):
        sigma = set(rng.sample(pool, rng.randint(0, 3)))
        closed = saturate(sigma, RuleSystem.STANDARD_WS, schema)
        members = DerivationGraph(sigma, RuleSystem.STANDARD_WS, schema).members
        tau = rng.choice(taus)
        derivable = derives(sigma, tau, RuleSystem.STANDARD_WS, schema)[0]
        for deps in (closed, members):
            trace = plus_chase(canonical_start(tau, schema, NATURALS), deps)
            assert trace.outcome == OUTCOME_TERMINATED
            assert satisfies_all(trace.result, closed)
            assert satisfies(trace.result, tau) == derivable


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plus_chase_by_members_decides_ws_derivability(data):
    """The additive chase by the assumptions and their weak-symmetry
    reversals terminates, yields a model of the closure, and holds the query
    exactly when it is derivable."""
    schema = data.draw(schemas(arity=4))
    sigma = set(data.draw(st.lists(dependencies(schema), max_size=8)))
    tau = data.draw(dependencies(schema))
    if data.draw(st.booleans()):
        sigma |= balance_instances(sigma, tau)
    members = DerivationGraph(sigma, RuleSystem.STANDARD_WS, schema).members
    trace = plus_chase(canonical_start(tau, schema, NATURALS), members)
    assert trace.outcome == OUTCOME_TERMINATED
    assert satisfies_all(trace.result, saturate(sigma, RuleSystem.STANDARD_WS, schema))
    assert satisfies(trace.result, tau) == derives(sigma, tau, RuleSystem.STANDARD_WS, schema)[0]


def test_plus_chase_over_rationals():
    from fractions import Fraction

    doc = {
        "monoid": "nonneg_rationals",
        "schema": {"R": ["A"], "S": ["B", "C"]},
        "relations": {"R": [{"tuple": {"A": "x"}, "weight": "3/2"}],
                      "S": [{"tuple": {"B": "x", "C": "y"}, "weight": "1/2"}]},
    }
    db = load_database(doc)
    sigma = parse_ind("R[A] <= S[B]")
    trace = plus_chase(db, [sigma])
    assert trace.terminated
    assert satisfies(trace.result, sigma)
    # the missing 1 lands on the star-padded tuple; the seen row is untouched
    assert trace.result.relation("S").weights == {
        ("x", "y"): Fraction(1, 2), ("x", STAR): Fraction(1)}


def test_replay_is_deterministic_and_bit_exact():
    db = canonical_start(LOOP, R3, NATURALS)
    t1 = plus_chase(db, [LOOP, LOOP_BACK])
    t2 = plus_chase(db, [LOOP, LOOP_BACK])
    assert [s for s in t1.steps] == [s for s in t2.steps]
    assert t1.result == t2.result == replay(t1)


def test_star_padded():
    assert star_padded(("A", "B", "C"), ("B",), ("x",)) == (STAR, "x", STAR)
    assert star_padded(("A",), (), ()) == (STAR,)


def test_trace_json_shape():
    db = canonical_start(LOOP, R3, NATURALS)
    trace = plus_chase(db, [LOOP, LOOP_BACK])
    doc = trace_to_json(trace)
    assert doc["outcome"] == OUTCOME_TERMINATED
    assert len(doc["steps"]) == len(trace.steps)
    assert all("delta" in s for s in doc["steps"])
    classical = classical_chase(canonical_start(LOOP, R3, BOOLEAN), [LOOP])[1]
    doc2 = trace_to_json(classical)
    assert all("delta" not in s for s in doc2["steps"])


CHASE_ATTRS = {"R": ("A", "B", "C"), "S": ("D", "E", "F")}


@st.composite
def chase_inputs(draw):
    rels = ["R", "S"][:draw(st.integers(1, 2))]
    schema = schema_of({rel: CHASE_ATTRS[rel][:draw(st.integers(0, 3))] for rel in rels})
    sigma = draw(st.lists(dependencies(schema), min_size=1, max_size=4))
    if draw(st.booleans()):
        sigma = list(saturate(sigma, RuleSystem.STANDARD_WS, schema))
    m = draw(st.sampled_from([NATURALS, NONNEG_RATIONALS]))
    if draw(st.booleans()):
        db = canonical_start(draw(dependencies(schema)), schema, m)
    else:
        db = make_database(schema, m, {
            rel: draw(st.dictionaries(st.tuples(*[st.sampled_from(["a", "b", STAR])] * len(attrs)),
                                      st.sampled_from(WEIGHT_POOLS[m.name]), min_size=1, max_size=3))
            for rel, attrs in schema.relations.items()})
    return db, sigma, draw(st.integers(1, 200))


@settings(max_examples=200, deadline=None)
@given(chase_inputs())
# the first step adds the point ("2", STAR) to LOOP's left marginal, after its witness
@example((canonical_start(LOOP, R3, NATURALS), [LOOP, LOOP_BACK], 200))
# the first step, at (a, b), adds 2 to R[B,C] at (b, *), which comes later
@example((make_database(R3, NATURALS, {"R": {(STAR, "a", "b"): 2, (STAR, "b", STAR): 1}}),
          [LOOP], 2))
def test_plus_chase_matches_reference_round_robin(inputs):
    db, sigma, step_limit = inputs
    trace = plus_chase(db, sigma, ChaseConfig(step_limit=step_limit))
    expected = reference_plus_chase(db, sigma, step_limit)
    assert trace.steps == expected.steps
    assert trace.outcome == expected.outcome
    assert trace.result == expected.result
    m = db.monoid
    pool = witness_pool(trace.result)
    for state in (db, trace.result):
        for s in sigma:
            lhs_pos = db.schema.positions(s.lhs_rel, s.lhs_attrs)
            rhs_pos = db.schema.positions(s.rhs_rel, s.rhs_attrs)
            for witness in itertools.product(pool, repeat=s.arity):
                lhs = reference_marginal_at(state.relation(s.lhs_rel).weights, lhs_pos, witness, m)
                rhs = reference_marginal_at(state.relation(s.rhs_rel).weights, rhs_pos, witness, m)
                assert applicable(state, s, witness) == (not m.leq(lhs, rhs))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classical_chase_by_sigma_decides_standard_derivability(data):
    schema = data.draw(schemas())
    sigma = set(data.draw(st.lists(dependencies(schema), max_size=5)))
    tau = data.draw(dependencies(schema))
    for deps in (sigma, sigma | balance_instances(sigma, tau)):
        chased, _ = classical_chase(canonical_start(tau, schema, BOOLEAN), deps)
        assert satisfies(chased, tau) == derives(deps, tau, RuleSystem.STANDARD, schema)[0]
