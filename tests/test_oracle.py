import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import kindb.kdb
from helpers import BUILTIN_MONOIDS, MONO23, WEIGHT_POOLS, dependencies, reference_search
from kindb import oracle
from kindb.errors import ParseError, SearchSpaceTooLarge
from kindb.ind import IND, parse_ind, satisfies
from kindb.kdb import is_balanced, schema_of
from kindb.monoid import BOOLEAN, NATURALS, NONNEG_RATIONALS, table_from_dict
from kindb.oracle import brute_force_balanced_entails, brute_force_entails

SIGMA = {parse_ind("R[A] <= S[B]"), parse_ind("S[] <= R[]")}
TAU = parse_ind("S[B] <= R[A]")


def test_oracle_finds_weak_symmetry_counterexample_over_boolean(monkeypatch):
    # the counterexample holds checked pool elements, so it is not built by
    # the checking entry point; satisfies re-verifies it
    def no_make_database(*args, **kwargs):
        raise AssertionError("make_database called")
    monkeypatch.setattr(kindb.kdb, "make_database", no_make_database)
    monkeypatch.setattr(oracle, "make_database", no_make_database, raising=False)
    cm = brute_force_entails(SIGMA, TAU, BOOLEAN,
                             adom=["x", "y"], weight_pool=[0, 1], max_tuples=4)
    assert cm is not None
    db = cm.database
    assert all(satisfies(db, s) for s in SIGMA)
    assert not satisfies(db, TAU)


def test_oracle_finds_nothing_over_naturals():
    # weak symmetry is sound here, so the bounded search must come up empty
    cm = brute_force_entails(SIGMA, TAU, NATURALS,
                             adom=["x", "y"], weight_pool=[0, 1, 2, 3], max_tuples=4)
    assert cm is None


def test_oracle_trivial_member():
    sigma = {parse_ind("R[A] <= S[B]")}
    assert brute_force_entails(sigma, parse_ind("R[A] <= S[B]"), BOOLEAN,
                               adom=["x"], weight_pool=[0, 1], max_tuples=2) is None


def test_oracle_deterministic_minimal_result():
    runs = [brute_force_entails(SIGMA, TAU, BOOLEAN,
                                adom=["x", "y"], weight_pool=[0, 1], max_tuples=4)
            for _ in range(2)]
    assert runs[0].database == runs[1].database
    total_rows = sum(len(kr.weights) for kr in runs[0].database.relations.values())
    assert total_rows <= 3  # small first in enumeration order


def test_balanced_oracle_balance_axiom():
    tau = parse_ind("R[] <= S[]")
    # valid over balanced databases
    assert brute_force_balanced_entails(set(), tau, NATURALS,
                                        adom=["x"], weight_pool=[0, 1, 2],
                                        max_tuples=2) is None
    # refuted without the balance restriction
    cm = brute_force_entails(set(), tau, NATURALS,
                             adom=["x"], weight_pool=[0, 1, 2], max_tuples=2)
    assert cm is not None and not is_balanced(cm.database)


def test_balanced_oracle_symmetry_sound_over_wc():
    sigma = {parse_ind("R[A] <= S[B]")}
    cm = brute_force_balanced_entails(sigma, TAU, NONNEG_RATIONALS,
                                      adom=["x", "y"],
                                      weight_pool=[0, 1, 2], max_tuples=3)
    assert cm is None
    # over booleans the balanced restriction does not rescue symmetry
    cm2 = brute_force_balanced_entails(sigma, TAU, BOOLEAN,
                                       adom=["x", "y"],
                                       weight_pool=[0, 1], max_tuples=4)
    assert cm2 is not None and is_balanced(cm2.database)


def test_oracle_counterexamples_verify():
    sigma = {parse_ind("R[A,B] <= S[C,D]")}
    tau = parse_ind("S[C] <= R[A]")
    cm = brute_force_entails(sigma, tau, BOOLEAN,
                             adom=["x", "y"], weight_pool=[0, 1], max_tuples=3)
    assert cm is not None
    assert all(satisfies(cm.database, s) for s in sigma)
    assert not satisfies(cm.database, tau)


def test_oracle_search_space_cap():
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_entails(SIGMA, TAU, NATURALS,
                            adom=["a", "b", "c"], weight_pool=list(range(10)),
                            max_tuples=6, max_candidates=1000)


@pytest.mark.parametrize("adom", ["xy", [1, 2], ["x", 2]], ids=["string", "numbers", "mixed"])
def test_adom_must_be_constant_names(adom):
    for search in (brute_force_entails, brute_force_balanced_entails):
        with pytest.raises(ParseError, match="adom"):
            search(SIGMA, TAU, NATURALS, adom=adom, weight_pool=[1], max_tuples=1)


@pytest.mark.parametrize("bound,value", [
    ("max_tuples", -1), ("max_tuples", 1.5), ("max_tuples", True), ("max_tuples", "2"),
    ("max_candidates", -1), ("max_candidates", False), ("max_candidates", "5"),
])
def test_search_bounds_must_be_counts(bound, value):
    # a negative bound would search an empty space and find nothing
    for search in (brute_force_entails, brute_force_balanced_entails):
        with pytest.raises(ParseError, match=bound):
            search(SIGMA, TAU, BOOLEAN, adom=["x", "y"], weight_pool=[1],
                   **{"max_tuples": 4, bound: value})


def test_cap_is_checked_before_any_weighting_is_built(monkeypatch):
    adds = []
    monkeypatch.setattr(NATURALS, "add", lambda a, b: adds.append((a, b)))
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_entails(SIGMA, TAU, NATURALS,
                            adom=["a", "b", "c"], weight_pool=list(range(10)),
                            max_tuples=6, max_candidates=1000)
    assert adds == []


def test_relation_pruned_by_its_own_checks_never_reaches_later_weightings(monkeypatch):
    # Over {x, y} with one row, R[A] <= R[B] fails on (x,y) and (y,x), and the
    # query R[A,B] <= R[B,A] holds on the empty R, (x,x) and (y,y): no
    # weighting of R survives, so no support of S is ever built.
    built = []
    real = oracle._support_classes

    def spy(rows, *rest):
        built.append(rows)
        return real(rows, *rest)

    monkeypatch.setattr(oracle, "_support_classes", spy)
    schema = schema_of({"R": ("A", "B"), "S": ("C",)})
    args = (parse_ind("R[A] <= R[B]"),), parse_ind("R[A,B] <= R[B,A]"), NATURALS
    kwargs = dict(adom=["x", "y"], weight_pool=[1, 2], max_tuples=1, schema=schema)
    assert brute_force_entails(*args, **kwargs) is None
    assert reference_search(*args, **kwargs) is None
    # No renaming makes the empty support, (x,x) or (x,y) smaller.  The empty
    # support's one class needs no weighting, and (x,y) fails R[A] <= R[B] on
    # its points alone (A holds x, B does not), so only (x,x) is weighted.
    assert built == [(("x", "x"),)]
    assert all(len(row) == 2 for rows in built for row in rows)


def test_support_failing_its_own_points_is_weighted_only_as_a_parent(monkeypatch):
    # R[A] <= R[B] fails on the points of (x,y) and of (x,x),(y,x), so
    # neither is weighted for itself; (x,y),(y,x) passes, and its classes are
    # built on those of (x,y), made then from the empty support's.
    built = []
    real = oracle._support_classes

    def spy(rows, *rest):
        built.append(rows)
        return real(rows, *rest)

    monkeypatch.setattr(oracle, "_support_classes", spy)
    args = (parse_ind("R[A] <= R[B]"),), parse_ind("R[A,B] <= R[B,A]"), NATURALS
    kwargs = dict(adom=["x", "y"], weight_pool=[1, 2], max_tuples=2)
    assert brute_force_entails(*args, **kwargs) is None
    assert reference_search(*args, **kwargs) is None
    xx, xy, yx, yy = ("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")
    assert built == [(xx,), (xx, xy), (xx, yy), (xy,), (xy, yx)]


def test_later_support_missing_needed_points_is_never_weighted(monkeypatch):
    # S[] <= R[] forbids S any point while R is empty, and R[A] <= S[C] needs
    # S to hold every point of R: S's (y) misses the x of R's (x) and of R's
    # (x,y), the only other supports a renaming leaves, so it is never
    # weighted.  The query is entailed, so every choice of R is visited.
    built = []
    real = oracle._support_classes

    def spy(rows, *rest):
        built.append(rows)
        return real(rows, *rest)

    monkeypatch.setattr(oracle, "_support_classes", spy)
    args = ((parse_ind("R[A] <= S[C]"), parse_ind("S[] <= R[]")), parse_ind("R[] <= S[]"),
            NATURALS)
    kwargs = dict(adom=["x", "y"], weight_pool=[1, 2], max_tuples=2)
    assert brute_force_entails(*args, **kwargs) is None
    assert reference_search(*args, **kwargs) is None
    assert (("y",),) not in built
    # R's (x), then S's (x) and (x,y) under it, then R's (x,y)
    assert built == [(("x",),), (("x",),), (("x",), ("y",)), (("x",), ("y",))]


def test_first_relation_skips_supports_that_a_swap_makes_smaller(monkeypatch):
    # Swapping x and y maps (y,x) to (x,y) and (y,y) to (x,x), which come
    # first, and makes every support of two rows that starts with either
    # smaller too.  The query is entailed, so the search visits every kept
    # support of R.
    built = []
    real = oracle._support_classes

    def spy(rows, *rest):
        built.append(rows)
        return real(rows, *rest)

    monkeypatch.setattr(oracle, "_support_classes", spy)
    args = (parse_ind("R[A,B] <= S[C,D]"),), parse_ind("R[B] <= S[D]"), NATURALS
    kwargs = dict(adom=["x", "y"], weight_pool=[1, 2], max_tuples=2,
                  schema=schema_of({"R": ("A", "B"), "S": ("C", "D", "E")}))
    assert brute_force_entails(*args, **kwargs) is None
    assert reference_search(*args, **kwargs) is None
    one_row_of_r = {rows[0] for rows in built if len(rows) == 1 and len(rows[0]) == 2}
    assert one_row_of_r == {("x", "x"), ("x", "y")}


def test_renamed_smaller_tries_every_swap():
    # The shortcut over unused constants decides what trying every swap of
    # two constants decides, on every support of up to three rows; and a
    # kept support's parent is kept, so its classes are there to extend.
    for constants in (["x"], ["x", "y"], ["w", "x", "y", "z"]):
        for arity in range(3):
            rows = sorted(itertools.product(constants, repeat=arity))
            for support in oracle._support_choices(rows, 3):
                smaller = any(
                    tuple(sorted(tuple({a: b, b: a}.get(c, c) for c in row) for row in support))
                    < support for a, b in itertools.combinations(constants, 2))
                assert oracle._renamed_smaller(support, constants) == smaller, support
                assert smaller or not oracle._renamed_smaller(support[:-1], constants), support


@st.composite
def renamable_cases(draw):
    """A hypothesis strategy: one bounded search whose first relation R has
    arity 2 over three constants or arity 1 over four, so that many of its
    supports are renamings of earlier ones, beside an S of arity 0 to 2;
    any monoid, a pool of one to three nonzero weights (and maybe zero), and
    a balanced or unbalanced search."""
    arity, adom = draw(st.sampled_from([(2, ["x", "y", "z"]), (1, ["w", "x", "y", "z"])]))
    schema = schema_of({"R": ("A", "B")[:arity], "S": ("C", "D")[:draw(st.integers(0, 2))]})
    m = draw(st.sampled_from(BUILTIN_MONOIDS))
    pool = draw(st.lists(st.sampled_from(WEIGHT_POOLS[m.name]), min_size=1, max_size=3,
                         unique=True))
    return (draw(st.lists(dependencies(schema), max_size=3)), draw(dependencies(schema)), m,
            dict(adom=adom, weight_pool=pool + draw(st.sampled_from([[], [m.zero]])),
                 max_tuples=draw(st.integers(1, 3)), schema=schema),
            draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(renamable_cases())
def test_renaming_pruned_search_matches_reference_enumerator(case):
    sigma, tau, m, kwargs, balanced = case
    search = brute_force_balanced_entails if balanced else brute_force_entails
    try:
        found = search(sigma, tau, m, max_candidates=3000, **kwargs)
    except SearchSpaceTooLarge:
        reject()
    expected = reference_search(sigma, tau, m, balanced=balanced, **kwargs)
    assert (found.database if found else None) == expected


ATTRS = {"R": ("A", "B"), "S": ("C", "D"), "T": ("E", "F")}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pruned_search_matches_reference_enumerator(data):
    rels = ["R", "S", "T"][:data.draw(st.integers(2, 3))]
    schema = schema_of({rel: ATTRS[rel][:data.draw(st.integers(0, 2))] for rel in rels})
    sigma = data.draw(st.lists(dependencies(schema), max_size=3))
    tau = data.draw(dependencies(schema))
    m = data.draw(st.sampled_from(BUILTIN_MONOIDS))
    pool = data.draw(st.lists(st.sampled_from([m.zero] + WEIGHT_POOLS[m.name]),
                              min_size=1, max_size=2, unique=True))
    adom = data.draw(st.lists(st.sampled_from(["x", "y"]), max_size=2, unique=True))
    max_tuples = data.draw(st.integers(0, 2))
    balanced = data.draw(st.booleans())
    search = brute_force_balanced_entails if balanced else brute_force_entails
    try:
        found = search(sigma, tau, m, adom=adom, weight_pool=pool, max_tuples=max_tuples,
                       schema=schema, max_candidates=5000)
    except SearchSpaceTooLarge:
        reject()
    expected = reference_search(sigma, tau, m, adom=adom, weight_pool=pool,
                                max_tuples=max_tuples, schema=schema, balanced=balanced)
    assert (found.database if found else None) == expected


# the join semilattice 0 < p, q < t: its natural order is not total, as that
# of no monoid in BUILTIN_MONOIDS is
JOIN = table_from_dict({"elements": ["0", "p", "q", "t"], "zero": "0",
                        "op": {"0,0": "0", "0,p": "p", "0,q": "q", "0,t": "t", "p,p": "p",
                               "q,q": "q", "t,t": "t", "p,q": "t", "p,t": "t", "q,t": "t"}})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_search_over_a_partial_order_matches_reference_enumerator(data):
    rels = ["R", "S", "T"][:data.draw(st.integers(2, 3))]
    schema = schema_of({rel: ATTRS[rel][:data.draw(st.integers(0, 2))] for rel in rels})
    sigma = data.draw(st.lists(dependencies(schema), max_size=3))
    tau = data.draw(dependencies(schema))
    pool = data.draw(st.lists(st.sampled_from(["0", "p", "q", "t"]), min_size=1, max_size=3,
                              unique=True))
    kwargs = dict(adom=data.draw(st.lists(st.sampled_from(["x", "y"]), max_size=2, unique=True)),
                  weight_pool=pool, max_tuples=data.draw(st.integers(0, 2)), schema=schema,
                  balanced=data.draw(st.booleans()))
    try:
        found = brute_force_entails(sigma, tau, JOIN, max_candidates=5000, **kwargs)
    except SearchSpaceTooLarge:
        reject()
    expected = reference_search(sigma, tau, JOIN, **kwargs)
    assert (found.database if found else None) == expected


@st.composite
def reflexive_dependencies(draw, schema):
    rel = draw(st.sampled_from(sorted(schema.relations)))
    attrs = tuple(draw(st.permutations(schema.relations[rel])))
    attrs = attrs[:draw(st.integers(0, len(attrs)))]
    return IND(rel, attrs, rel, attrs)


@st.composite
def search_cases(draw):
    """A hypothesis strategy: the arguments of one bounded search over one to
    three relations, up to three constants, rows and pool weights, with
    reflexive assumptions drawn on purpose (the search never checks them);
    whether it is balanced; and a cap that keeps the reference loop short.
    The query is never reflexive: the search answers a reflexive query at
    once (``test_reflexive_query_is_held_to_the_cap``), so a schema with no
    other dependency is rejected.
    Half the draws are balanced searches over monogenic:2,3, two constants
    and two or three nonzero weights (at most 2,800 candidates), in which a
    relation of arity 1 is read by no dependency.  Only its total counts;
    sums wrap, so a total that needs two rows is reached in several ways,
    and the least counterexample shows which member stands for the class."""
    if draw(st.booleans()):
        unread, rel = draw(st.permutations(["R", "S", "T"]))[:2]
        read = schema_of({rel: ATTRS[rel]})
        return (draw(st.lists(dependencies(read), max_size=3)),
                draw(dependencies(read).filter(lambda d: not d.is_reflexive)), MONO23,
                dict(adom=["x", "y"],
                     weight_pool=draw(st.lists(st.sampled_from(WEIGHT_POOLS[MONO23.name]),
                                               min_size=2, max_size=3, unique=True)),
                     max_tuples=draw(st.integers(2, 3)),
                     schema=schema_of({unread: ATTRS[unread][:1], rel: ATTRS[rel]})),
                True, 3000)
    rels = ["R", "S", "T"][:draw(st.integers(1, 3))]
    schema = schema_of({rel: ATTRS[rel][:draw(st.integers(0, 2))] for rel in rels})
    some_dependency = st.one_of(dependencies(schema), reflexive_dependencies(schema))
    m = draw(st.sampled_from(BUILTIN_MONOIDS))
    return (draw(st.lists(some_dependency, max_size=3)),
            draw(dependencies(schema).filter(lambda d: not d.is_reflexive)), m,
            dict(adom=draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=3, unique=True)),
                 weight_pool=draw(st.lists(st.sampled_from([m.zero] + WEIGHT_POOLS[m.name]),
                                           min_size=1, max_size=3, unique=True)),
                 max_tuples=draw(st.integers(0, 3)), schema=schema),
            draw(st.booleans()), 3000)


# The query needs a three-row cycle in S, so the balanced R, which no
# dependency reads, must total 3 from the weights 1 and 2.  R's classes differ
# only in their totals, and the least counterexample takes R's class of total
# 3 on two rows, whose least member (1, 2) precedes (2, 1).
THREE_CYCLE = ([parse_ind("S[C] <= S[D]")], parse_ind("S[C,D] <= S[D,C]"), NATURALS,
               dict(adom=["x", "y", "z"], weight_pool=[1, 2], max_tuples=3,
                    schema=schema_of({"R": ("A",), "S": ("C", "D")})), True, 25_000)


@example(THREE_CYCLE)
@settings(max_examples=1000, deadline=None)
@given(search_cases())
def test_class_search_matches_reference_enumerator(case):
    sigma, tau, m, kwargs, balanced, cap = case
    search = brute_force_balanced_entails if balanced else brute_force_entails
    try:
        found = search(sigma, tau, m, max_candidates=cap, **kwargs)
    except SearchSpaceTooLarge:
        reject()
    expected = reference_search(sigma, tau, m, balanced=balanced, **kwargs)
    assert (found.database if found else None) == expected


def test_searches_leave_no_reference_cycles():
    # Tables caught in a reference cycle would outlive each search until the
    # cyclic collector runs, and raise the peak memory of many searches.
    cases = [(SIGMA, TAU, BOOLEAN, [1], 4), (SIGMA, TAU, NATURALS, [1, 2], 3)]
    gc.collect()
    gc.disable()
    try:
        for search in (brute_force_entails, brute_force_balanced_entails):
            for sigma, tau, m, pool, max_tuples in cases:
                search(sigma, tau, m, adom=["x", "y"], weight_pool=pool, max_tuples=max_tuples)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reflexive_query_is_held_to_the_cap():
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_entails(SIGMA, parse_ind("R[A] <= R[A]"), NATURALS,
                            adom=["a", "b", "c"], weight_pool=list(range(10)),
                            max_tuples=6, max_candidates=1000)


def test_oracle_fraction_pool():
    cm = brute_force_entails(SIGMA, TAU, NONNEG_RATIONALS,
                             adom=["x"], weight_pool=[0, Fraction(1, 2), 1],
                             max_tuples=2)
    assert cm is None
