"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

The two equivalence grids run a smoke subset by default (assumption sets of
size at most 1) and the full grid (size at most 3) when the environment
variable ``KINDB_ACCEPT_FULL=1`` is set.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import os
import random
import time
from fractions import Fraction

from helpers import (
    BUILTIN_MONOIDS,
    GRID_SCHEMA,
    GRID_TAUS,
    MONO23,
    grid_sigmas,
    ind_universe,
    make_balanced,
    random_database,
)
from kindb.chase import (
    ChaseConfig,
    canonical_start,
    classical_chase,
    plus_chase,
    replay,
)
from kindb.entail import build_countermodel_ca, decide_entailment
from kindb.ind import format_ind, inverse, parse_ind, satisfies
from kindb.infer import RuleSystem, derives, saturate
from kindb.kdb import (
    is_balanced,
    make_database,
    marginalize,
    schema_of,
    support,
)
from kindb.monoid import (
    BOOLEAN,
    MAX_NATURALS,
    NATURALS,
    NONNEG_RATIONALS,
    MonogenicMonoid,
    TableMonoid,
    UNBOUNDED,
    embed_naturals,
)
from kindb.oracle import brute_force_entails

FULL = os.environ.get("KINDB_ACCEPT_FULL") == "1"


class criterion:
    """Times a criterion body, enforces its budget, prints one line."""

    def __init__(self, name: str, budget_seconds: float):
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"ACCEPTANCE {self.name}: FAIL after {elapsed:.2f}s")
            return False
        if elapsed >= self.budget:
            print(f"ACCEPTANCE {self.name}: FAIL (took {elapsed:.2f}s, budget {self.budget}s)")
            raise AssertionError(f"{self.name} exceeded its {self.budget}s budget")
        print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        return False


C1 = parse_ind("Expense[proj,year] <= Budget[proj,year]")
C2 = parse_ind("Budget[proj] <= Grant[proj]")
C3 = parse_ind("Grant[proj] <= Budget[proj]")
C4 = parse_ind("Grant[] <= Budget[]")

DICH_SIGMA = frozenset({parse_ind("R[A] <= S[B]"), parse_ind("S[] <= R[]")})
DICH_TAU = parse_ind("S[B] <= R[A]")


def test_criterion_1_running_example(budgets_db):
    with criterion("C1 running example", 1.0):
        m = budgets_db.monoid
        expense = marginalize(budgets_db.relation("Expense"), ("proj", "year"), m)
        assert expense.weights[("P1", "2024")] == 2000
        assert expense.weights[("P1", "2025")] == 600
        assert expense.weights[("P2", "2024")] == 1500
        for sigma in (C1, C2, C3):
            assert satisfies(budgets_db, sigma)

        derived = parse_ind("Expense[proj] <= Grant[proj]")
        ok, proof = derives({C1, C2, C3}, derived, RuleSystem.STANDARD, budgets_db.schema)
        assert ok and proof is not None
        assert satisfies(budgets_db, derived)

        assert not is_balanced(budgets_db)
        restricted = make_database(
            schema_of({"Budget": ("proj", "year"), "Grant": ("proj",)}), m,
            {"Budget": budgets_db.relation("Budget").weights,
             "Grant": budgets_db.relation("Grant").weights})
        assert restricted.relation("Budget").total(m) == 6000
        assert restricted.relation("Grant").total(m) == 6000
        assert is_balanced(restricted)


def test_criterion_2_weak_symmetry_derivation(budgets_db):
    with criterion("C2 weak-symmetry derivation", 1.0):
        schema = budgets_db.schema
        ok, proof = derives({C2, C4}, C3, RuleSystem.STANDARD_WS, schema)
        assert ok and proof.rule == "weak_symmetry"

        ok_std, _ = derives({C1, C2}, C3, RuleSystem.STANDARD, schema)
        assert not ok_std
        found = brute_force_entails({C1, C2}, C3, BOOLEAN,
                                    adom=["x", "y"], weight_pool=[0, 1],
                                    max_tuples=2, schema=schema)
        assert found is not None
        assert not satisfies(found.database, C3)


def test_criterion_3_plus_chase_behavior():
    with criterion("C3 additive chase behavior", 5.0):
        schema = schema_of({"R": ("A", "B", "C")})
        loop = parse_ind("R[B,C] <= R[A,B]")
        back = parse_ind("R[A,B] <= R[B,C]")

        start = canonical_start(loop, schema, NATURALS)
        diverging = plus_chase(start, [loop], ChaseConfig(step_limit=10_000))
        assert diverging.outcome == "step_limit_exceeded"
        assert len(diverging.steps) == 10_000

        closing = plus_chase(start, [loop, back])
        assert closing.terminated
        assert satisfies(closing.result, loop) and satisfies(closing.result, back)
        assert replay(closing) == closing.result
        assert replay(diverging) == diverging.result


def _grid(full: bool):
    return grid_sigmas(3 if full else 1)


def test_criterion_4_three_way_equivalence_wc():
    budget = 600.0 if FULL else 30.0
    label = "C4 three-way equivalence (WC%s)" % (", full grid" if FULL else ", smoke")
    with criterion(label, budget):
        cfg = ChaseConfig(step_limit=10_000)
        entailed_pairs = []
        count = 0
        for sig in _grid(FULL):
            closed = saturate(sig, RuleSystem.STANDARD_WS, GRID_SCHEMA)
            closed_set = frozenset(closed)
            for tau in GRID_TAUS:
                derivable = tau.is_reflexive or tau in closed_set
                trace = plus_chase(canonical_start(tau, GRID_SCHEMA, NATURALS), closed, cfg)
                assert trace.terminated, "chase must terminate on a ws-closed set"
                assert derivable == satisfies(trace.result, tau), (
                    f"equivalence broke for {format_ind(tau)} under "
                    f"{[format_ind(s) for s in sorted(sig, key=format_ind)]}")
                if derivable:
                    entailed_pairs.append((sig, tau))
                count += 1
                if count % 500 == 0:
                    got, _ = derives(sig, tau, RuleSystem.STANDARD_WS, GRID_SCHEMA)
                    assert got == derivable

        # bounded falsifier on a deterministic sample of entailed pairs
        # (full scans cost seconds each; soundness guarantees emptiness)
        sample_size = 8 if FULL else 2
        step = max(1, len(entailed_pairs) // sample_size)
        for sig, tau in entailed_pairs[::step][:sample_size]:
            assert brute_force_entails(
                sig, tau, NATURALS, adom=["x", "y"], weight_pool=[0, 1, 2, 3],
                max_tuples=4, schema=GRID_SCHEMA, max_candidates=10 ** 9) is None


def test_criterion_5_two_way_equivalence_boolean():
    budget = 600.0 if FULL else 30.0
    label = "C5 two-way equivalence (Boolean%s)" % (", full grid" if FULL else ", smoke")
    with criterion(label, budget):
        count = 0
        for sig in _grid(FULL):
            closed = saturate(sig, RuleSystem.STANDARD, GRID_SCHEMA)
            closed_set = frozenset(closed)
            for tau in GRID_TAUS:
                derivable = tau.is_reflexive or tau in closed_set
                result, _ = classical_chase(
                    canonical_start(tau, GRID_SCHEMA, BOOLEAN), closed)
                assert derivable == satisfies(result, tau)
                found = brute_force_entails(
                    sig, tau, BOOLEAN, adom=["x", "y"], weight_pool=[0, 1],
                    max_tuples=4, schema=GRID_SCHEMA, max_candidates=10 ** 9)
                assert derivable == (found is None), (
                    f"bounded boolean search disagrees on {format_ind(tau)}")
                count += 1
                if count % 500 == 0:
                    got, _ = derives(sig, tau, RuleSystem.STANDARD, GRID_SCHEMA)
                    assert got == derivable


def test_criterion_6_dichotomy_witness():
    with criterion("C6 dichotomy witness", 1.0):
        for m in (NATURALS, NONNEG_RATIONALS):
            verdict = decide_entailment(DICH_SIGMA, DICH_TAU, m)
            assert verdict.entailed and verdict.proof is not None

        for m in (BOOLEAN, MAX_NATURALS, MONO23):
            verdict = decide_entailment(DICH_SIGMA, DICH_TAU, m)
            assert not verdict.entailed
            cm = verdict.countermodel
            assert cm is not None
            db = cm.database
            assert all(satisfies(db, s) for s in DICH_SIGMA)
            assert not satisfies(db, DICH_TAU)
            # warehouse/orders shape: some point weighs nonzero on the larger
            # side and zero on the smaller one
            lhs = marginalize(db.relation("S"), ("B",), m)
            rhs = marginalize(db.relation("R"), ("A",), m)
            assert any(point not in rhs.weights for point in lhs.weights)


SOUND_SCHEMA = schema_of({"R": ("A", "B"), "S": ("C", "D")})
SOUND_POOL = ind_universe(SOUND_SCHEMA, max_arity=2)


def _satisfied_subset(db, pool, cap=6):
    out = []
    for sigma in pool:
        if not sigma.is_reflexive and satisfies(db, sigma):
            out.append(sigma)
            if len(out) == cap:
                break
    return out


def test_criterion_7_soundness_suites(warehouse_db):
    with criterion("C7 soundness suites", 60.0):
        # (a) standard rules sound over every builtin monoid
        for m in BUILTIN_MONOIDS:
            rng = random.Random(f"std-{m.name}")
            for _ in range(100):
                db = random_database(rng, SOUND_SCHEMA, m)
                sig = _satisfied_subset(db, SOUND_POOL)
                for conclusion in saturate(sig, RuleSystem.STANDARD, SOUND_SCHEMA):
                    assert satisfies(db, conclusion), (
                        f"{format_ind(conclusion)} fails over {m.name}")

        # (b) weak symmetry additionally sound over the cancellative monoids
        for m in (NATURALS, NONNEG_RATIONALS):
            rng = random.Random(f"ws-{m.name}")
            for _ in range(100):
                db = random_database(rng, SOUND_SCHEMA, m)
                sig = _satisfied_subset(db, SOUND_POOL)
                for conclusion in saturate(sig, RuleSystem.STANDARD_WS, SOUND_SCHEMA):
                    assert satisfies(db, conclusion)

        # (c) over balanced databases the balance axioms are sound for every
        # monoid, and the full symmetry-bearing closure is additionally sound
        # for the weakly cancellative ones; over absorptive monoids that
        # closure is unsound even on balanced databases (see (d)), so only
        # the standard rules with the balance axioms are asserted there
        for m in BUILTIN_MONOIDS:
            system = RuleSystem.of(m.classify().weakly_cancellative, balance=True)
            rng = random.Random(f"bal-{m.name}")
            for _ in range(100):
                db = make_balanced(rng, random_database(rng, SOUND_SCHEMA, m))
                assert is_balanced(db)
                sig = set(_satisfied_subset(db, SOUND_POOL))
                for conclusion in saturate(sig, system, SOUND_SCHEMA):
                    assert satisfies(db, conclusion)

        # (d) symmetry is unsound over absorptive monoids, even balanced:
        # some generated database must break it (the warehouse fixture is
        # itself balanced and exhibits the absorption pattern)
        broken = 0
        for db in [warehouse_db] + [
                make_balanced(random.Random(f"sym-{i}"),
                              random_database(random.Random(f"sym-{i}"), SOUND_SCHEMA, BOOLEAN))
                for i in range(99)]:
            pool = (SOUND_POOL if db.schema is SOUND_SCHEMA
                    else ind_universe(db.schema, max_arity=1))
            for sigma in pool:
                if sigma.is_reflexive:
                    continue
                if satisfies(db, sigma) and not satisfies(db, inverse(sigma)):
                    assert is_balanced(db)
                    broken += 1
                    break
        assert broken >= 1


def _fixture_tables():
    tables = [("boolean-as-table",
               TableMonoid(["0", "1"],
                           {("0", "0"): "0", ("0", "1"): "1", ("1", "1"): "1"}, "0"))]
    for index in (1, 2, 3):
        for period in (1, 2, 3):
            tables.append((f"monogenic-{index}-{period}", MonogenicMonoid(index, period)))
    for top in (1, 2, 3, 4):
        els = [str(i) for i in range(top + 1)]
        op = {(a, b): str(min(int(a) + int(b), top)) for a in els for b in els}
        tables.append((f"saturating-{top}", TableMonoid(els, op, "0")))
    join = {("0", "0"): "0", ("0", "x"): "x", ("0", "y"): "y", ("0", "t"): "t",
            ("x", "x"): "x", ("x", "y"): "t", ("x", "t"): "t",
            ("y", "y"): "y", ("y", "t"): "t", ("t", "t"): "t"}
    tables.append(("diamond-join", TableMonoid(["0", "x", "y", "t"], join, "0")))
    return tables


def test_criterion_8_structural_lemmas():
    with criterion("C8 structural lemmas", 60.0):
        # (a) the n -> n*b embedding is additive, injective, order reflecting
        for m, b in ((NATURALS, 3), (NONNEG_RATIONALS, Fraction(2, 3))):
            values = [embed_naturals(m, b, n) for n in range(101)]
            assert len(set(values)) == 101
            for n in range(101):
                for k in range(101 - n):
                    assert values[n + k] == m.add(values[n], values[k])
            for n in range(101):
                for k in range(n, 101):
                    assert m.leq(values[n], values[k])
                    if k > n:
                        assert not m.leq(values[k], values[n])

        # (b) every nontrivial finite positive table in the fixture set is
        # self absorptive; the antisymmetry check for finite cancellative
        # tables is therefore vacuous, and runs only if one ever appears
        for name, table in _fixture_tables():
            report = table.classify()
            assert report.positive, name
            assert report.self_absorptive, name
            if report.weakly_cancellative:
                els = list(table.elements())
                for a in els:
                    for b in els:
                        if table.leq(a, b) and table.leq(b, a):
                            assert a == b

        # (c) the additive chase preserves support when the assumption set is
        # weak-symmetry closed and the support is classically closed
        rng = random.Random("supp")
        pool = [s for s in SOUND_POOL if not s.is_reflexive and s.arity <= 1]
        done = 0
        while done < 50:
            sig = set(rng.sample(pool, rng.randint(1, 3)))
            closed = saturate(sig, RuleSystem.STANDARD_WS, SOUND_SCHEMA)
            base = random_database(rng, SOUND_SCHEMA, BOOLEAN)
            closed_support, _ = classical_chase(support(base), closed)
            candidate = None
            for _ in range(8):
                weights = {rel: {row: rng.choice([1, 2, 3]) for row in kr.weights}
                           for rel, kr in closed_support.relations.items()}
                candidate = make_database(SOUND_SCHEMA, NATURALS, weights)
                if not all(satisfies(candidate, s) for s in closed):
                    break
            trace = plus_chase(candidate, closed)
            assert trace.terminated
            assert support(trace.result) == support(candidate)
            done += 1

        # (d) classification implication chain on every fixture
        reports = [m.classify() for m in BUILTIN_MONOIDS]
        reports += [t.classify() for _, t in _fixture_tables()]
        for r in reports:
            assert r.weakly_absorptive == (not r.weakly_cancellative)
            if r.self_absorptive:
                assert r.countably_absorptive
            if r.countably_absorptive:
                assert r.k_absorptive_max == UNBOUNDED and r.weakly_absorptive


def test_criterion_9_ca_construction_validity():
    with criterion("C9 absorption-chain countermodels", 60.0):
        instances = []
        for sig in grid_sigmas(2):
            closed = frozenset(saturate(sig, RuleSystem.STANDARD, GRID_SCHEMA))
            for tau in GRID_TAUS:
                if not tau.is_reflexive and tau not in closed:
                    instances.append((sig, tau))
            if len(instances) >= 50:
                break
        instances = instances[:50]
        assert len(instances) == 50
        for m, idem in ((BOOLEAN, 1), (MONO23, 3)):
            for sig, tau in instances:
                cm = build_countermodel_ca(sig, tau, m, [idem] * (tau.arity + 1),
                                           schema=GRID_SCHEMA)
                assert all(satisfies(cm.database, s) for s in sig)
                assert not satisfies(cm.database, tau)
