import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BUILTIN_MONOIDS, random_database, reference_marginal_at, schemas
from kindb.errors import (
    ArityMismatch,
    DuplicateAttribute,
    ParseError,
    UnknownAttribute,
    UnknownRelation,
)
from kindb.ind import (
    IND,
    format_ind,
    infer_schema,
    inverse,
    parse_ind,
    parse_ind_list,
    query_schema,
    satisfies,
    satisfies_all,
)
from kindb.kdb import make_database, schema_of, support
from kindb.monoid import BOOLEAN, MAX_NATURALS, NATURALS, MonogenicMonoid, table_from_dict

C1 = "Expense[proj,year] <= Budget[proj,year]"
C2 = "Budget[proj] <= Grant[proj]"
C3 = "Grant[proj] <= Budget[proj]"
C4 = "Grant[] <= Budget[]"


def test_parse_basic(budgets_db):
    sigma = parse_ind(C1, budgets_db.schema)
    assert sigma == IND("Expense", ("proj", "year"), "Budget", ("proj", "year"))
    assert parse_ind(C4).arity == 0
    assert parse_ind("  R [ A , B ]<=S[C,D] ") == IND("R", ("A", "B"), "S", ("C", "D"))


def test_parse_errors(budgets_db):
    with pytest.raises(ParseError):
        parse_ind("R[A] < S[B]")
    with pytest.raises(DuplicateAttribute):
        parse_ind("R[A,A] <= S[B,C]")
    with pytest.raises(ArityMismatch):
        parse_ind("R[A] <= S[B,C]")
    with pytest.raises(UnknownRelation):
        parse_ind("Missing[proj] <= Budget[proj]", budgets_db.schema)
    with pytest.raises(UnknownAttribute):
        parse_ind("Budget[price] <= Grant[proj]", budgets_db.schema)


def test_parse_print_identity():
    for text in (C1, C2, C4, "R[] <= S[]", "R[A,B] <= S[D,C]"):
        assert format_ind(parse_ind(text)) == parse_ind(text).__str__()
        assert parse_ind(format_ind(parse_ind(text))) == parse_ind(text)


def test_running_example_constraints_hold(budgets_db):
    for text in (C1, C2, C3):
        assert satisfies(budgets_db, parse_ind(text, budgets_db.schema))
    assert satisfies(budgets_db, parse_ind("Expense[proj] <= Grant[proj]", budgets_db.schema))
    assert satisfies(budgets_db, parse_ind(C4, budgets_db.schema))


def test_running_example_violation(budgets_db):
    # total spend 4100 exceeds no budget pointwise, but Budget[] <= Expense[] fails
    assert not satisfies(budgets_db, parse_ind("Budget[] <= Expense[]", budgets_db.schema))


def test_warehouse_asymmetry(warehouse_db):
    schema = warehouse_db.schema
    assert satisfies(warehouse_db, parse_ind("Warehouse[product] <= Orders[product]", schema))
    assert satisfies(warehouse_db, parse_ind("Orders[] <= Warehouse[]", schema))
    assert not satisfies(warehouse_db, parse_ind("Orders[product] <= Warehouse[product]", schema))


def test_reflexive_always_satisfied(budgets_db):
    for rel, attrs in budgets_db.schema.relations.items():
        sigma = IND(rel, attrs, rel, attrs)
        assert satisfies(budgets_db, sigma)


def test_arity_zero_compares_totals():
    schema = schema_of({"R": ["A"], "S": ["B"]})
    db = make_database(schema, NATURALS, {"R": {("x",): 2}, "S": {("y",): 3}})
    assert satisfies(db, IND("R", (), "S", ()))
    assert not satisfies(db, IND("S", (), "R", ()))


def test_positional_attribute_semantics():
    # lhs and rhs sequences are compared by position even across different layouts
    schema = schema_of({"R": ["A", "B"], "S": ["C"]})
    db = make_database(schema, NATURALS, {"R": {("x", "u"): 1}, "S": {("x",): 1}})
    assert satisfies(db, IND("R", ("A",), "S", ("C",)))
    assert not satisfies(db, IND("R", ("B",), "S", ("C",)))


def test_inverse():
    sigma = parse_ind("R[A] <= S[B]")
    assert inverse(sigma) == parse_ind("S[B] <= R[A]")
    assert inverse(inverse(sigma)) == sigma
    assert inverse(parse_ind("R[] <= S[]")) == parse_ind("S[] <= R[]")


def test_satisfaction_preserved_under_support():
    rng = random.Random(3)
    schema = schema_of({"R": ["A", "B"], "S": ["B", "C"]})
    sigmas = [IND("R", ("B",), "S", ("B",)), IND("R", (), "S", ()),
              IND("R", ("A", "B"), "S", ("B", "C"))]
    consts = ["a", "b"]
    for m, pool in ((NATURALS, [1, 2, 3]), (BOOLEAN, [1]),
                    (MAX_NATURALS, [1, 2]), (MonogenicMonoid(2, 3), [1, 2, 3, 4])):
        for _ in range(30):
            db = make_database(schema, m, {
                rel: {tuple(rng.choice(consts) for _ in attrs): rng.choice(pool)
                      for _ in range(rng.randint(0, 3))}
                for rel, attrs in schema.relations.items()
            })
            for sigma in sigmas:
                if satisfies(db, sigma):
                    assert satisfies(support(db), sigma)


def test_parse_ind_list():
    text = """
    # constraints for the running example
    Expense[proj,year] <= Budget[proj,year]

    Budget[proj] <= Grant[proj]  # annual budgets within grant
    """
    sigmas = parse_ind_list(text)
    assert [format_ind(s) for s in sigmas] == [C1, C2]


def test_infer_schema():
    sigmas = [parse_ind(C1), parse_ind(C2), parse_ind(C4)]
    schema = infer_schema(sigmas)
    assert schema.relations == {
        "Expense": ("proj", "year"),
        "Budget": ("proj", "year"),
        "Grant": ("proj",),
    }


# the join semilattice 0 < a, b < t: a carrier whose natural order is partial
TABLE_JOIN = table_from_dict({"elements": ["0", "a", "b", "t"], "zero": "0",
                              "op": {"0,0": "0", "0,a": "a", "0,b": "b", "0,t": "t",
                                     "a,a": "a", "a,b": "t", "a,t": "t",
                                     "b,b": "b", "b,t": "t", "t,t": "t"}})


def reference_satisfies(db, sigma) -> bool:
    """Each point of the left side's support, its two marginals re-summed row by row."""
    m = db.monoid
    lhs = db.relation(sigma.lhs_rel).weights
    rhs = db.relation(sigma.rhs_rel).weights
    lpos = db.schema.positions(sigma.lhs_rel, sigma.lhs_attrs)
    rpos = db.schema.positions(sigma.rhs_rel, sigma.rhs_attrs)
    points = {tuple(row[i] for i in lpos) for row in lhs}
    return all(m.leq(reference_marginal_at(lhs, lpos, p, m), reference_marginal_at(rhs, rpos, p, m))
               for p in points)


@st.composite
def _side(draw, schema, k):
    """A side of arity ``k``: a relation's own layout, a permutation of it, or
    any ``k`` of its attributes in any order."""
    rel = draw(st.sampled_from(sorted(r for r, attrs in schema.relations.items()
                                      if len(attrs) >= k)))
    layout = schema.relations[rel]
    if len(layout) == k and draw(st.booleans()):
        return rel, layout
    return rel, tuple(draw(st.permutations(layout))[:k])


@st.composite
def _dependency_lists(draw, schema):
    """Dependencies whose sides are often own layouts, full permutations or
    arity 0, with repeats and projections of earlier members, so that one
    relation's sides nest."""
    top = max(len(attrs) for attrs in schema.relations.values())
    out = []
    for _ in range(draw(st.integers(1, 6))):
        roll = draw(st.integers(0, 3))
        if out and roll == 0:
            out.append(draw(st.sampled_from(out)))
        elif out and roll == 1:
            s = draw(st.sampled_from(out))
            mask = draw(st.lists(st.booleans(), min_size=s.arity, max_size=s.arity))
            keep = [i for i, kept in enumerate(mask) if kept]
            out.append(IND(s.lhs_rel, tuple(s.lhs_attrs[i] for i in keep),
                           s.rhs_rel, tuple(s.rhs_attrs[i] for i in keep)))
        else:
            k = draw(st.integers(0, top))
            (lrel, lattrs), (rrel, rattrs) = draw(_side(schema, k)), draw(_side(schema, k))
            out.append(IND(lrel, lattrs, rrel, rattrs))
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_satisfies_all_matches_reference(data):
    m = data.draw(st.sampled_from(BUILTIN_MONOIDS + [TABLE_JOIN]))
    schema = data.draw(schemas())
    pool = ["a", "b", "t"] if m is TABLE_JOIN else None
    db = random_database(random.Random(data.draw(st.integers(0, 2**32))), schema, m,
                         consts=("x", "y"), max_rows=6, pool=pool)
    sigmas = data.draw(_dependency_lists(schema))
    before = db.copy()
    assert satisfies_all(db, sigmas) == [reference_satisfies(db, s) for s in sigmas]
    assert db == before
    # a bad dependency anywhere in the list fails as it does alone
    rel = sorted(schema.relations)[0]
    bad = data.draw(st.sampled_from([IND("Z", (), rel, ()), IND(rel, ("nope",), rel, ("nope",)),
                                     IND(rel, (), "Z", ())]))
    sigmas.insert(data.draw(st.integers(0, len(sigmas))), bad)
    with pytest.raises(Exception) as alone:
        satisfies(db, bad)
    with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
        satisfies_all(db, sigmas)


QUERY_SIGMA = [parse_ind("S[C,B] <= R[A,B]"), parse_ind("S[B] <= T[D]")]
QUERY_TAU = parse_ind("T[D] <= R[A]")


def test_query_schema_is_one_schema_for_sigma_in_any_order():
    orders = list(itertools.permutations(QUERY_SIGMA)) + [set(QUERY_SIGMA)]
    # inferred from the dependencies as given, S's layout depends on their order
    assert len({infer_schema([*order, QUERY_TAU]).relations["S"] for order in orders}) == 2
    layouts = {tuple(query_schema(order, QUERY_TAU).relations.items()) for order in orders}
    assert layouts == {(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("D",)))}


def test_query_schema_keeps_the_mentioned_relations_of_a_given_schema():
    wide = schema_of({"U": ("F",), "T": ("D",), "S": ("C", "B"), "R": ("A", "B", "E")})
    schema = query_schema(QUERY_SIGMA, QUERY_TAU, wide)
    assert list(schema.relations.items()) == [("R", ("A", "B", "E")), ("S", ("C", "B")),
                                              ("T", ("D",))]
    with pytest.raises(UnknownRelation, match="unknown relation 'X'"):
        query_schema(QUERY_SIGMA, parse_ind("X[A] <= R[A]"), wide)
