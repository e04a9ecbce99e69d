import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_classify
from kindb.cli import main
from kindb.entail import build_countermodel_ca, decide_entailment
from kindb.errors import (
    ElementError,
    InvalidMonoidTable,
    KindbError,
    NotSubtractable,
    ParseError,
    UnsupportedMonoid,
)
from kindb.ind import parse_ind
from kindb.kdb import load_database, make_database, schema_of
from kindb.monoid import (
    BOOLEAN,
    MAX_NATURALS,
    NATURALS,
    NONNEG_RATIONALS,
    UNBOUNDED,
    MonogenicMonoid,
    TableMonoid,
    embed_naturals,
    parse_monoid,
    table_from_dict,
)
from kindb.oracle import brute_force_entails

from test_acceptance import _fixture_tables

MONO23 = MonogenicMonoid(2, 3)

ALL_BUILTINS = [BOOLEAN, NATURALS, NONNEG_RATIONALS, MAX_NATURALS, MONO23]


def mono_reduce(n, index, period):
    # independent reduction: walk the congruence by subtracting whole periods
    while n >= index + period:
        n -= period
    return n


def test_add_basics():
    assert NATURALS.add(2, 3) == 5
    assert BOOLEAN.add(1, 1) == 1
    assert MAX_NATURALS.add(4, 2) == 4
    assert NONNEG_RATIONALS.add(Fraction(1, 2), 1) == Fraction(3, 2)


def test_monogenic_add_reduces_by_congruence():
    assert MONO23.add(4, 3) == mono_reduce(7, 2, 3) == 4
    assert MONO23.add(3, 2) == mono_reduce(5, 2, 3) == 2
    for a in MONO23.elements():
        for b in MONO23.elements():
            assert MONO23.add(a, b) == mono_reduce(a + b, 2, 3)


def test_add_commutative_associative_identity():
    for m in (BOOLEAN, MONO23):
        els = list(m.elements())
        for a in els:
            assert m.add(a, m.zero) == a
            for b in els:
                assert m.add(a, b) == m.add(b, a)
                for c in els:
                    assert m.add(m.add(a, b), c) == m.add(a, m.add(b, c))


def test_add_all_folds_add_from_zero():
    rng = random.Random(23)
    # mixed denominators with int addends, and single elements of either kind
    rationals = [[Fraction(rng.randint(0, 60), rng.choice([1, 2, 3, 4, 6, 7, 10, 12]))
                  if rng.random() < 0.8 else rng.randint(0, 5)
                  for _ in range(rng.randint(1, 30))] for _ in range(200)]
    rationals += [[Fraction(5, 6)], [7], [True]]
    for m, values in [(NATURALS, [3, 0, True, 4]), (NONNEG_RATIONALS, [Fraction(1, 2), 1, 0]),
                      (BOOLEAN, [0, 1, 1]), (MAX_NATURALS, [2, 7, 3]), (MONO23, [3, 4, 2])] + [
                          (NONNEG_RATIONALS, values) for values in rationals]:
        folded = m.zero
        for v in values:
            folded = m.add(folded, v)
        assert m.add_all(values) == folded and type(m.add_all(values)) is type(folded)
        assert m.add_all(v for v in values) == folded
        assert m.add_all([]) == m.zero


def _assert_parses_as_checked_fraction(text):
    try:
        expected = NONNEG_RATIONALS.check(Fraction(text))
    except (ValueError, ZeroDivisionError, ElementError):
        expected = ElementError
    try:
        parsed = NONNEG_RATIONALS.parse_element(text)
    except ElementError:
        parsed = ElementError
    assert parsed == expected and type(parsed) is type(expected)


def test_rational_parse_element_matches_checked_fraction():
    # digits-only texts skip the regex; every other spelling reads as before
    for text in ["0", "0/7", "1/0", "6/8", " 3/4", "3 / 4", "+1", "-0", "-1/2", "1.5",
                 "1e3", "1_000", "\u00b2", "\u0663/\u0664", "1" * 5000 + "/3", "/4", "4/"]:
        _assert_parses_as_checked_fraction(text)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789/+-. _eE\u00b2\u0663\u0664", max_size=8),
                 st.from_regex(r"\A[0-9]{1,6}(/[0-9]{1,4})?\Z")))
def test_rational_parse_element_matches_checked_fraction_on_random_texts(text):
    _assert_parses_as_checked_fraction(text)


def test_sums_of_nonzero_elements_are_nonzero():
    # positivity: a pointwise sum of weights keeps the union of the supports
    for m in ALL_BUILTINS:
        values = [m.check(w) for w in ([0, 1, 2, 3] if m is not BOOLEAN else [0, 1])]
        for a, b in itertools.product(values, repeat=2):
            assert (m.add(a, b) != m.zero) == (a != m.zero or b != m.zero)


TABLE_0A = table_from_dict({"elements": ["0", "a"], "zero": "0",
                            "op": {"0,0": "0", "0,a": "a", "a,a": "a"}})


# elements of some carrier, zeros, and spellings int() and Fraction() read
# differently from the digit paths
COLUMN_TEXTS = ["0", "00", "0/5", " 3", "1_0", "-1", "+1", "2", "1/0", "6/8", "0.5", "x",
                "٣", "²", "1", "3/4", "a", "1" * 5000]


def _parsed_or_error(parse):
    try:
        return [(type(w), w) for w in parse()]
    except KindbError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL_BUILTINS + [TABLE_0A]), st.data())
def test_parse_elements_is_parse_element_over_a_column(m, data):
    """The same elements of the same types, or the error of the first text
    that is not an element."""
    pool = data.draw(st.lists(st.sampled_from(COLUMN_TEXTS), min_size=1, unique=True))
    texts = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    assert (_parsed_or_error(lambda: m.parse_elements(texts))
            == _parsed_or_error(lambda: [m.parse_element(t) for t in texts]))


@pytest.mark.parametrize("m,value,text", [
    (NATURALS, -1, "-1"),
    (BOOLEAN, 2, "2"),
    (MONO23, 5, "5"),
    (NONNEG_RATIONALS, Fraction(-1, 2), "-1/2"),
    (TABLE_0A, "z", "z"),
], ids=["naturals", "boolean", "monogenic", "rationals", "table"])
def test_foreign_elements_are_rejected_at_the_boundary(m, value, text, tmp_path, capsys):
    """Every entry point validates the elements it takes in; the arithmetic
    behind them trusts its operands."""
    schema = schema_of({"R": ["A"]})
    tau = parse_ind("R[A] <= S[B]")
    entries = [
        lambda: m.check(value),
        lambda: m.parse_element(text),
        lambda: make_database(schema, m, {"R": {("x",): value}}),
        lambda: brute_force_entails(set(), tau, m, adom=["x"], weight_pool=[value],
                                    max_tuples=1),
        lambda: build_countermodel_ca(set(), tau, m, [value, value]),
        lambda: embed_naturals(m, value, 2),
    ]
    for entry in entries:
        with pytest.raises(ElementError):
            entry()
    doc = {"monoid": m.as_dict(), "schema": {"R": ["A"]},
           "relations": {"R": [{"tuple": {"A": "x"}, "weight": text}]}}
    with pytest.raises(ElementError, match=r"R\.weight"):
        load_database(doc)
    with pytest.raises(ElementError, match="weight_pool"):
        brute_force_entails(set(), tau, m, adom=["x"], weight_pool=[value], max_tuples=1)

    (tmp_path / "db.json").write_text(json.dumps(doc))
    (tmp_path / "inds.txt").write_text("R[A] <= R[A]\n")
    (tmp_path / "oracle.json").write_text(json.dumps({
        "monoid": m.as_dict(), "sigma": [], "tau": "R[A] <= S[B]", "adom": ["x"],
        "weight_pool": [text], "max_tuples": 1}))
    for argv, field in ((["check", str(tmp_path / "db.json"), str(tmp_path / "inds.txt")],
                         "R.weight"),
                        (["oracle", str(tmp_path / "oracle.json")], "weight_pool")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err


def test_weights_too_large_to_print_are_kindb_errors():
    for m, value in ((NATURALS, 10 ** 4400), (NONNEG_RATIONALS, Fraction(10 ** 4400, 3))):
        with pytest.raises(KindbError, match="too large to print"):
            m.format_element(value)


def test_natural_leq():
    assert NATURALS.leq(2, 5)
    assert not NATURALS.leq(5, 2)
    assert BOOLEAN.leq(0, 1) and not BOOLEAN.leq(1, 0)
    # no c with max(3, c) = 2: exhaustive over c <= 3
    assert not any(max(3, c) == 2 for c in range(4))
    assert not MAX_NATURALS.leq(3, 2)
    for m in ALL_BUILTINS:
        a = m.some_nonzero()
        assert m.leq(a, a)
        assert m.leq(m.zero, a)


def test_monogenic_leq_by_witness_search():
    # 2 <= 4 <= 2 in the cycle, an order that is total but not antisymmetric
    assert MONO23.leq(2, 4) and MONO23.leq(4, 2)
    for a in MONO23.elements():
        for b in MONO23.elements():
            expected = any(MONO23.add(a, c) == b for c in MONO23.elements())
            assert MONO23.leq(a, b) == expected


def test_monus():
    assert NATURALS.monus(5, 2) == 3
    assert NONNEG_RATIONALS.monus(Fraction(3, 2), Fraction(1, 2)) == 1
    with pytest.raises(NotSubtractable):
        NATURALS.monus(2, 5)
    with pytest.raises(UnsupportedMonoid):
        BOOLEAN.monus(1, 1)
    with pytest.raises(UnsupportedMonoid):
        MONO23.monus(4, 2)


def test_monus_round_trip():
    cases = [(NATURALS, 7, 3), (NATURALS, 4, 4),
             (NONNEG_RATIONALS, Fraction(9, 4), Fraction(1, 3))]
    for m, a, b in cases:
        assert m.add(b, m.monus(a, b)) == m.check(a)


def test_classify_builtins():
    b = BOOLEAN.classify()
    assert b.weakly_absorptive and b.self_absorptive and not b.weakly_cancellative
    assert b.provenance == "declared"
    n = NATURALS.classify()
    assert n.weakly_cancellative and not n.weakly_absorptive
    q = NONNEG_RATIONALS.classify()
    assert q.weakly_cancellative and q.natural_order_total
    x = MAX_NATURALS.classify()
    assert x.self_absorptive and x.k_absorptive_max == UNBOUNDED


def test_classify_monogenic_computed():
    r = MONO23.classify()
    assert r.provenance == "computed"
    assert r.positive
    assert r.weakly_absorptive and not r.weakly_cancellative
    # 3 is idempotent: 3 + 3 = 6 which reduces to 3
    assert MONO23.add(3, 3) == 3
    assert r.self_absorptive and r.countably_absorptive
    assert r.k_absorptive_max == UNBOUNDED
    assert r.natural_order_total
    assert not r.natural_order_antisymmetric


# the finite tables of the entail-mix benchmark workload
ENTAIL_MIX_TABLES = [
    {"elements": ["0", "a", "b"], "zero": "0",
     "op": {"0,0": "0", "0,a": "a", "0,b": "b", "a,a": "a", "a,b": "b", "b,b": "b"}},
    {"elements": ["0", "1", "2", "3"], "zero": "0",
     "op": {f"{x},{y}": str(min(x + y, 3)) for x in range(4) for y in range(x, 4)}},
    {"elements": ["0", "p", "q", "t"], "zero": "0",
     "op": {"0,0": "0", "0,p": "p", "0,q": "q", "0,t": "t", "p,p": "p", "q,q": "q",
            "t,t": "t", "p,q": "t", "p,t": "t", "q,t": "t"}},
]


def test_classify_matches_reference():
    cases = [(f"monogenic-{i}-{p}", MonogenicMonoid(i, p))
             for i in range(1, 13) for p in range(1, 13)]
    cases += _fixture_tables()
    cases += [(f"entail-mix-{n}", table_from_dict(t)) for n, t in enumerate(ENTAIL_MIX_TABLES)]
    cases.append(("trivial", TableMonoid(["0"], {("0", "0"): "0"}, "0")))
    for name, m in cases:
        assert m.classify().as_dict() == reference_classify(m), name
        els = list(m.elements())
        for a in els:
            reach = {m.add(a, c) for c in els}
            for b in els:
                assert m.leq(a, b) == (b in reach), (name, a, b)
        idem = next((b for b in els if b != m.zero and m.add(b, b) == b), None)
        assert m.nonzero_idempotent() == idem, name


def test_large_monogenic_carrier_is_never_walked(monkeypatch):
    def walk(self):
        raise AssertionError("the carrier was walked")

    monkeypatch.setattr(MonogenicMonoid, "elements", walk)
    m = MonogenicMonoid(100000, 100000)
    r = m.classify()
    assert r.self_absorptive and r.k_absorptive_max == UNBOUNDED
    assert r.natural_order_total and not r.natural_order_antisymmetric
    assert m.leq(3, 99999) and m.leq(199999, 100000) and not m.leq(99999, 3)
    assert m.nonzero_idempotent() == 100000
    sigma = {parse_ind("R[A] <= S[B]"), parse_ind("S[] <= R[]")}
    for tau, entailed in ((parse_ind("R[A] <= S[B]"), True),
                          (parse_ind("S[B] <= R[A]"), False)):
        verdict = decide_entailment(sigma, tau, m)
        expected = decide_entailment(sigma, tau, BOOLEAN)
        assert verdict.entailed == expected.entailed == entailed
        assert verdict.method == expected.method
        if not entailed:
            assert verdict.countermodel.construction == expected.countermodel.construction


def test_embed_naturals():
    assert embed_naturals(NATURALS, 1, 7) == 7
    assert embed_naturals(NATURALS, 3, 4) == 12
    assert embed_naturals(BOOLEAN, 1, 5) == 1
    assert embed_naturals(BOOLEAN, 1, 0) == 0
    assert embed_naturals(NONNEG_RATIONALS, Fraction(1, 2), 3) == Fraction(3, 2)
    assert embed_naturals(MONO23, 1, 9) == mono_reduce(9, 2, 3)


def test_embedding_is_an_order_embedding():
    for m, b in ((NATURALS, 2), (NONNEG_RATIONALS, Fraction(2, 3))):
        values = [embed_naturals(m, b, n) for n in range(101)]
        assert len(set(values)) == 101
        for n in range(0, 101, 7):
            for k in range(0, 101 - n, 11):
                assert embed_naturals(m, b, n + k) == m.add(values[n], values[k])
                assert m.leq(values[n], values[n + k])
                if k:
                    assert not m.leq(values[n + k], values[n])


def test_table_monoid_valid():
    spec = {
        "elements": ["0", "a"],
        "zero": "0",
        "op": {"0,0": "0", "0,a": "a", "a,a": "a"},
    }
    m = table_from_dict(spec)
    assert m.add("a", "a") == "a"
    r = m.classify()
    assert r.positive and r.self_absorptive
    assert m.nonzero_idempotent() == "a"


def test_table_monoid_rejects_broken_axioms():
    with pytest.raises(InvalidMonoidTable, match="identity"):
        TableMonoid(["0", "a"], {("0", "0"): "0", ("0", "a"): "0", ("a", "a"): "a"}, "0")
    with pytest.raises(InvalidMonoidTable, match="positivity"):
        TableMonoid(["0", "a"], {("0", "0"): "0", ("0", "a"): "a", ("a", "a"): "0"}, "0")
    with pytest.raises(InvalidMonoidTable, match="missing"):
        TableMonoid(["0", "a"], {("0", "0"): "0", ("a", "a"): "a"}, "0")
    # a,b and b,a disagree
    with pytest.raises(InvalidMonoidTable, match="commutativity"):
        TableMonoid(
            ["0", "a", "b"],
            {("0", "0"): "0", ("0", "a"): "a", ("0", "b"): "b",
             ("a", "b"): "a", ("b", "a"): "b", ("a", "a"): "a", ("b", "b"): "b"},
            "0")


def test_table_monoid_associativity_check():
    # (a+a)+b = b+b = a while a+(a+b) = a+b = b
    with pytest.raises(InvalidMonoidTable, match="associativity"):
        TableMonoid(
            ["0", "a", "b"],
            {("0", "0"): "0", ("0", "a"): "a", ("0", "b"): "b",
             ("a", "a"): "b", ("a", "b"): "b", ("b", "b"): "a"},
            "0")


def max_table(size):
    els = [str(i) for i in range(size)]
    return els, {(a, b): max(a, b, key=int) for a in els for b in els}


def test_table_size_cap():
    TableMonoid(*max_table(5), "0")  # max semantics, fine
    with pytest.raises(InvalidMonoidTable, match="cap"):
        TableMonoid(*max_table(65), "0")


def test_parse_monoid_names():
    assert parse_monoid("boolean") is BOOLEAN
    assert parse_monoid("naturals") is NATURALS
    assert parse_monoid("monogenic:2,3") == MONO23
    assert parse_monoid({"elements": ["0"], "zero": "0", "op": {"0,0": "0"}}).is_finite
    with pytest.raises(ParseError):
        parse_monoid("tropical")
    with pytest.raises(ParseError):
        parse_monoid("monogenic:x")


def test_element_codecs_round_trip():
    cases = [
        (NATURALS, "17"),
        (NONNEG_RATIONALS, "3/2"),
        (NONNEG_RATIONALS, "4"),
        (BOOLEAN, "1"),
        (MAX_NATURALS, "9"),
        (MONO23, "4"),
    ]
    for m, text in cases:
        assert m.format_element(m.parse_element(text)) == text
    for m, text in [(NATURALS, "-1"), (BOOLEAN, "2"), (MONO23, "5"), (NATURALS, "x"),
                    (MAX_NATURALS, "x"), (NONNEG_RATIONALS, "1/0")]:
        with pytest.raises(ElementError):
            m.parse_element(text)
    for m in ALL_BUILTINS:
        assert m.check(True) == 1
    for m in (NATURALS, NONNEG_RATIONALS, MAX_NATURALS):
        with pytest.raises(UnsupportedMonoid):
            m.elements()


def test_fig1_style_implication_chain():
    for m in ALL_BUILTINS:
        r = m.classify()
        assert r.weakly_absorptive == (not r.weakly_cancellative)
        if r.self_absorptive:
            assert r.countably_absorptive
        if r.countably_absorptive:
            assert r.weakly_absorptive
            assert r.k_absorptive_max == UNBOUNDED


@pytest.mark.parametrize("spec", [[1], "naturals", None, 3])
def test_a_monoid_table_is_an_object(spec):
    with pytest.raises(ParseError, match="^a monoid table is a JSON object, not "):
        table_from_dict(spec)


def test_parse_monoid_passes_a_monoid_through():
    table = TableMonoid(["0", "1"], {("0", "0"): "0", ("0", "1"): "1", ("1", "1"): "1"}, "0")
    for m in (NATURALS, MonogenicMonoid(2, 3), table):
        assert parse_monoid(m) is m


def test_carrier_and_arithmetic_errors():
    for value in ("1", 1.0, -1):
        with pytest.raises(ElementError, match="is not an element of naturals"):
            NATURALS.check(value)
    for m in (NATURALS, NONNEG_RATIONALS):
        with pytest.raises(NotSubtractable, match="2 is not below 1"):
            m.monus(1, 2)
    for index, period in ((0, 1), (1, 0)):
        with pytest.raises(InvalidMonoidTable, match="index >= 1 and period >= 1"):
            MonogenicMonoid(index, period)
    with pytest.raises(ElementError, match="multiplicity"):
        embed_naturals(NATURALS, 1, -1)
    trivial = TableMonoid(["0"], {("0", "0"): "0"}, "0")
    with pytest.raises(UnsupportedMonoid, match="trivial"):
        trivial.some_nonzero()
