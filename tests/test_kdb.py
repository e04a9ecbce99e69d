import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BUILTIN_MONOIDS, reference_load_database, reference_marginal_at
from kindb.cli import main
from kindb.errors import (
    KindbError,
    ParseError,
    SchemaMismatch,
    StarConstantError,
    UnknownAttribute,
    UnknownRelation,
)
from kindb.kdb import (
    STAR,
    KDatabase,
    degree,
    dump_database,
    is_balanced,
    load_database,
    make_database,
    marginalize,
    schema_of,
    support,
)
from kindb.monoid import BOOLEAN, NATURALS, table_from_dict


def test_load_budgets_fixture(budgets_db):
    assert budgets_db.monoid is NATURALS
    assert budgets_db.relation("Expense").weights[("P1", "hotel", "2024")] == 800
    assert len(budgets_db.relation("Budget").weights) == 3


def test_marginalize_expense(budgets_db):
    m = budgets_db.monoid
    by_proj_year = marginalize(budgets_db.relation("Expense"), ("proj", "year"), m)
    # the two P1/2024 rows aggregate: 1200 + 800
    assert by_proj_year.weights[("P1", "2024")] == 2000
    assert by_proj_year.weights[("P2", "2024")] == 1500
    empty = marginalize(budgets_db.relation("Budget"), (), m)
    assert empty.weights[()] == 2500 + 1500 + 2000 == 6000


def test_marginalize_identity_and_order(budgets_db):
    m = budgets_db.monoid
    rel = budgets_db.relation("Budget")
    assert marginalize(rel, rel.attributes, m).weights == rel.weights
    flipped = marginalize(rel, ("year", "proj"), m)
    assert flipped.weights[("2024", "P1")] == 2500


def test_marginalize_unknown_attribute(budgets_db):
    with pytest.raises(UnknownAttribute):
        marginalize(budgets_db.relation("Grant"), ("year",), budgets_db.monoid)


def test_marginalize_composes(budgets_db):
    m = budgets_db.monoid
    rel = budgets_db.relation("Expense")
    step = marginalize(marginalize(rel, ("proj", "year"), m), ("proj",), m)
    direct = marginalize(rel, ("proj",), m)
    assert step.weights == direct.weights


def test_support_drops_zero_weight_rows(warehouse_db):
    # the fixture lists a zero-weight yam row; the support keeps only potato
    supp = support(warehouse_db)
    assert supp.relation("Warehouse").support() == {("potato",)}
    assert supp.relation("Orders").support() == {("potato",), ("yam",)}
    assert supp.monoid is BOOLEAN


def test_support_of_empty_database():
    db = make_database(schema_of({"R": ["A"]}), NATURALS)
    assert support(db).relation("R").weights == {}


def test_is_balanced(budgets_db):
    assert not is_balanced(budgets_db)  # 4100 vs 6000 vs 6000
    schema = schema_of({"Budget": ["proj", "year"], "Grant": ["proj"]})
    restricted = make_database(schema, NATURALS, {
        "Budget": budgets_db.relation("Budget").weights,
        "Grant": budgets_db.relation("Grant").weights,
    })
    assert is_balanced(restricted)
    single = make_database(schema_of({"R": ["A"]}), NATURALS, {"R": {("x",): 7}})
    assert is_balanced(single)


def test_balanced_warehouse(warehouse_db):
    assert is_balanced(warehouse_db)


def test_degree():
    assert degree(("a", "b", "c")) == 3
    assert degree((STAR, STAR, STAR)) == 0
    assert degree(("b", "c", STAR)) == 2


def test_marginal_monotonicity():
    rng = random.Random(11)
    schema = schema_of({"R": ["A", "B"]})
    for _ in range(25):
        rows = {("x", "y"), ("x", "z"), ("w", "y")}
        base = {r: rng.randint(0, 3) for r in rows}
        bumped = {r: w + rng.randint(0, 2) for r, w in base.items()}
        d1 = make_database(schema, NATURALS, {"R": base})
        d2 = make_database(schema, NATURALS, {"R": bumped})
        m1 = marginalize(d1.relation("R"), ("A",), NATURALS)
        m2 = marginalize(d2.relation("R"), ("A",), NATURALS)
        for point, w in m1.weights.items():
            assert NATURALS.leq(w, m2.weights.get(point, 0))


def test_zero_weights_normalized_away():
    db = make_database(schema_of({"R": ["A"]}), NATURALS, {"R": {("x",): 0, ("y",): 1}})
    assert db.relation("R").support() == {("y",)}


def test_load_sums_repeated_rows_and_drops_zero_sums():
    doc = {
        "monoid": "naturals",
        "schema": {"R": ["A"], "S": ["B"]},
        "relations": {"R": [{"tuple": {"A": "x"}, "weight": "2"},
                            {"tuple": {"A": "x"}, "weight": "3"},
                            {"tuple": {"A": "y"}, "weight": "0"}]},
    }
    db = load_database(doc)
    assert db.relation("R").weights == {("x",): 5}
    assert db.relation("S").weights == {}
    assert db == make_database(db.schema, NATURALS, {"R": {("x",): 5}})


def test_make_database_rejects_a_row_of_the_wrong_width():
    schema = schema_of({"R": ["A", "B"]})
    with pytest.raises(SchemaMismatch, match="does not fit relation R"):
        make_database(schema, NATURALS, {"R": {("a",): 1}})


DEEP = "[" * 100_000 + "]" * 100_000
LONG_INT = ('{"monoid": "naturals", "schema": {"R": ["A"]}, '
            '"relations": {"R": [{"tuple": {"A": %s}, "weight": "1"}]}}' % ("1" * 5000))


@pytest.mark.parametrize("command,text", [
    ("check", DEEP),
    ("chase", DEEP),
    ("classify", DEEP),
    ("oracle", DEEP),
    ("entail", DEEP),
    ("check", LONG_INT),
    ("check", b"\xff\xfe{"),
], ids=["check-deep", "chase-deep", "classify-deep", "oracle-deep", "entail-monoid-deep",
        "check-long-integer", "check-not-utf8"])
def test_json_inputs_that_break_the_decoder_are_input_errors(capsys, tmp_path, command, text):
    """JSON nested too deep to decode, an integer literal too long to
    convert and bytes that are not UTF-8 exit 2 like any malformed input."""
    doc = tmp_path / "doc.json"
    if isinstance(text, bytes):
        doc.write_bytes(text)
    else:
        doc.write_text(text)
    inds = tmp_path / "inds.txt"
    inds.write_text("R[A] <= R[A]\n")
    argv = {"check": ["check", str(doc), str(inds)],
            "chase": ["chase", str(doc), str(inds)],
            "classify": ["classify", str(doc)],
            "oracle": ["oracle", str(doc)],
            "entail": ["entail", str(inds), "R[A] <= R[A]", "--monoid", str(doc)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_load_rejects_star():
    doc = {
        "monoid": "naturals",
        "schema": {"R": ["A"]},
        "relations": {"R": [{"tuple": {"A": "*"}, "weight": "1"}]},
    }
    with pytest.raises(StarConstantError):
        load_database(doc)
    assert load_database(doc, allow_star=True).relation("R").support() == {("*",)}


def test_load_rejects_malformed():
    with pytest.raises(ParseError):
        load_database({"schema": {"R": ["A"]}})
    with pytest.raises(ParseError):
        load_database({
            "monoid": "naturals",
            "schema": {"R": ["A"]},
            "relations": {"R": [{"tuple": {"B": "x"}, "weight": "1"}]},
        })


def test_dump_round_trip(budgets_db, warehouse_db):
    for db in (budgets_db, warehouse_db):
        again = load_database(dump_database(db))
        assert again == db


def test_fraction_weights_round_trip():
    doc = {
        "monoid": "nonneg_rationals",
        "schema": {"R": ["A"]},
        "relations": {"R": [{"tuple": {"A": "x"}, "weight": "7/3"}]},
    }
    db = load_database(doc)
    assert dump_database(db)["relations"]["R"][0]["weight"] == "7/3"


# 0 < a < b = b + b: a finite carrier that is neither numbers nor builtin
TABLE_0AB = table_from_dict({"elements": ["0", "a", "b"], "zero": "0",
                             "op": {"0,0": "0", "0,a": "a", "0,b": "b",
                                    "a,a": "b", "a,b": "b", "b,b": "b"}})


def _weights(m):
    if m is TABLE_0AB:
        return st.sampled_from(["0", "a", "b"])
    if m.name == "nonneg_rationals":
        return st.one_of(st.integers(0, 9),
                         st.fractions(min_value=0, max_value=9, max_denominator=12))
    return st.integers(0, 8 if m.size is None else m.size - 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_marginalize_matches_reference_marginal(data):
    m = data.draw(st.sampled_from(BUILTIN_MONOIDS + [TABLE_0AB]))
    attrs = ("A", "B", "C", "D")[:data.draw(st.integers(1, 4))]
    # two constants per column: rows share their points often
    rows = st.tuples(*[st.sampled_from(["x", "y"]) for _ in attrs])
    weights = data.draw(st.dictionaries(rows, _weights(m), max_size=12))
    rel = make_database(schema_of({"R": attrs}), m, {"R": weights}).relation("R")
    seq = tuple(data.draw(st.permutations(attrs))[:data.draw(st.integers(0, len(attrs)))])
    marg = marginalize(rel, seq, m)
    positions = [attrs.index(a) for a in seq]
    points = {tuple(row[p] for p in positions) for row in rel.weights}
    reference = {point: reference_marginal_at(rel.weights, positions, point, m)
                 for point in points}
    assert marg.attributes == seq
    assert marg.weights == {point: w for point, w in reference.items() if w != m.zero}
    assert all(m.check(w) == w and type(w) is type(m.zero) for w in marg.weights.values())



LOADER_SCHEMA = {"P": [], "Q": ["A"], "R": ["A", "B", "C"]}


def _q_rows(monoid, *entries):
    """A document whose relation Q holds ``entries`` between two good rows."""
    return {"monoid": monoid, "schema": LOADER_SCHEMA,
            "relations": {"Q": [{"tuple": {"A": "x"}, "weight": "1"}, *entries,
                                {"tuple": {"A": "y"}, "weight": "1"}]}}


# the documents of tests/test_cli.py::test_check_malformed_document_shape,
# then further malformed entries
MALFORMED_DOCUMENTS = [
    {"monoid": "naturals", "schema": ["R"], "relations": {}},
    {"monoid": "naturals", "schema": {"R": "AB"}, "relations": {}},
    {"monoid": "naturals", "schema": {"R": ["A"]},
     "relations": [{"tuple": {"A": "a"}, "weight": "1"}]},
    {"monoid": {"elements": ["0", "1"], "zero": "0", "op": [["0,0", "0"]]},
     "schema": {"R": ["A"]}, "relations": {}},
    {"monoid": 5, "schema": {"R": ["A"]}, "relations": {}},
    _q_rows("naturals", {"tuple": ["A"], "weight": "1"}),
    _q_rows("naturals", {"tuple": {"A": ["a"]}, "weight": "1"}),
    _q_rows("naturals", {"tuple": {"A": "a"}, "weight": "-1"}),
    _q_rows("boolean", {"tuple": {"A": "a"}, "weight": "2"}),
    _q_rows("naturals", {"tuple": {"A": "a"}, "weight": "many"}),
    _q_rows("nonneg_rationals", {"tuple": {"A": "a"}, "weight": "1/0"}),
    _q_rows("nonneg_rationals", {"tuple": {"A": "a"}, "weight": "-1/2"}),
    _q_rows("naturals", "row"),
    _q_rows("naturals", {"tuple": {"A": "a"}}),
    _q_rows("naturals", {"tuple": {"B": "a"}, "weight": "1"}),
    _q_rows("naturals", {"tuple": {"A": True}, "weight": "1"}),
    _q_rows("naturals", {"tuple": {"A": None}, "weight": "1"}),
    _q_rows("naturals", {"tuple": {"A": {}}, "weight": "1"}),
    _q_rows("naturals", {"tuple": {"A": STAR}, "weight": "1"}),
    _q_rows(TABLE_0AB.as_dict(), {"tuple": {"A": "a"}, "weight": "c"}),
    {"monoid": "naturals", "schema": LOADER_SCHEMA, "relations": {"S": []}},
    *({"monoid": "naturals", "schema": LOADER_SCHEMA,
       "relations": {rel: [{"tuple": mapping, "weight": "1"}]}} for rel, mapping in [
        ("P", {"A": "x"}),
        ("R", {"A": "x", "B": "y"}),
        ("R", {"A": "x", "B": "y", "D": "z"}),
        ("R", {"A": "x", "B": "y", "C": "z", "D": "w"}),
        ("R", {"A": "x", "B": 1, "C": [2]})]),
]


def _outcome(load, doc, allow_star=False):
    """The database loaded, or the type and message of the error raised."""
    try:
        return load(doc, allow_star=allow_star)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("doc", MALFORMED_DOCUMENTS)
def test_load_database_fails_like_the_reference_loader(doc):
    outcome = _outcome(load_database, doc)
    assert isinstance(outcome, tuple) and issubclass(outcome[0], KindbError)
    assert outcome == _outcome(reference_load_database, doc)


def _weight_texts(m):
    """Spellings of m's elements, zero among them, as a document holds them."""
    if m is TABLE_0AB:
        return st.sampled_from(["0", "a", "b"])
    if m.name == "nonneg_rationals":
        return st.sampled_from(["0", "0/5", "3/4", "6/8", "2", 1, "0.5"])
    return st.one_of(st.sampled_from(["0", "00"]),
                     st.integers(0, 8 if m.size is None else m.size - 1).map(str),
                     st.integers(0, 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_database_matches_reference_loader(data):
    """Relations of arity 0, 1 and 3 over every builtin carrier and a table
    monoid, with JSON-number cells, zero weights and repeated rows."""
    m = data.draw(st.sampled_from(BUILTIN_MONOIDS + [TABLE_0AB]))
    cells = st.one_of(st.sampled_from(["x", "y", STAR]), st.integers(0, 2),
                      st.sampled_from([1.5, 2.0]))
    relations = {}
    for rel, attrs in LOADER_SCHEMA.items():
        if data.draw(st.booleans()):
            rows = st.fixed_dictionaries({"tuple": st.fixed_dictionaries(
                {a: cells for a in attrs}), "weight": _weight_texts(m)})
            relations[rel] = data.draw(st.lists(rows, max_size=8))
    doc = {"monoid": m.as_dict(), "schema": LOADER_SCHEMA, "relations": relations}
    allow_star = data.draw(st.booleans())
    outcome = _outcome(load_database, doc, allow_star)
    assert outcome == _outcome(reference_load_database, doc, allow_star)
    if isinstance(outcome, KDatabase):
        assert all(w != m.zero for kr in outcome.relations.values() for w in kr.weights.values())


SIZE = 2_000
CARRIERS = BUILTIN_MONOIDS + [TABLE_0AB]


def _rows_at_size(m, attrs):
    """SIZE distinct rows over ``attrs``, each weighing a nonzero element."""
    weight = m.format_element(m.some_nonzero())
    return [{"tuple": {a: f"{a}{i}" for a in attrs}, "weight": weight} for i in range(SIZE)]


@pytest.mark.parametrize("m", CARRIERS, ids=lambda m: m.name)
def test_load_database_at_size_sums_repeats_and_drops_zeros_like_the_reference(m):
    """A 2,000-row relation with a repeated row at the end, then with a zero
    weight in the middle."""
    rows = _rows_at_size(m, LOADER_SCHEMA["R"])
    repeated = rows + [rows[0]]
    zeroed = [*rows[:SIZE // 2], {**rows[SIZE // 2], "weight": "0"}, *rows[SIZE // 2 + 1:]]
    for entries in (repeated, zeroed):
        doc = {"monoid": m.as_dict(), "schema": LOADER_SCHEMA, "relations": {"R": entries}}
        outcome = _outcome(load_database, doc)
        assert isinstance(outcome, KDatabase)
        assert outcome == _outcome(reference_load_database, doc)
    assert len(outcome.relation("R").weights) == SIZE - 1


# each malformed entry of MALFORMED_DOCUMENTS, with the relation it is in
MALFORMED_ENTRIES = [(rel, rows[len(rows) // 2]) for doc in MALFORMED_DOCUMENTS
                     if isinstance(doc["relations"], dict)
                     for rel, rows in doc["relations"].items() if rows]


@pytest.mark.parametrize("m", CARRIERS, ids=lambda m: m.name)
def test_load_database_at_size_fails_like_the_reference_loader(m):
    """One bad entry at row 1,500 of a 2,000-row relation, of each kind."""
    assert len(MALFORMED_ENTRIES) == 20
    loaded = 0
    for rel, entry in MALFORMED_ENTRIES:
        rows = _rows_at_size(m, LOADER_SCHEMA[rel])
        rows.insert(1_500, entry)
        doc = {"monoid": m.as_dict(), "schema": LOADER_SCHEMA, "relations": {rel: rows}}
        outcome = _outcome(load_database, doc)
        assert outcome == _outcome(reference_load_database, doc), entry
        loaded += isinstance(outcome, KDatabase)
    assert loaded == (m.name not in ("boolean", "table"))  # the weight "2" is an element


def test_relation_of_an_unknown_name():
    db = load_database({"monoid": "naturals", "schema": {"R": ["A"]}, "relations": {}})
    assert db.relation("R").weights == {}
    with pytest.raises(UnknownRelation, match="unknown relation 'S'"):
        db.relation("S")


def test_rows_that_are_dict_subclasses_load_like_dicts():
    rows = [{"tuple": {"A": "a"}, "weight": "2"}, {"tuple": {"A": "b"}, "weight": "3"}]
    doc = {"monoid": "naturals", "schema": {"R": ["A"]}, "relations": {"R": rows}}
    ordered = {**doc, "relations": {"R": [OrderedDict(tuple=OrderedDict(row["tuple"]),
                                                      weight=row["weight"]) for row in rows]}}
    assert load_database(ordered) == load_database(doc)
    assert load_database(ordered).relation("R").weights == {("a",): 2, ("b",): 3}
