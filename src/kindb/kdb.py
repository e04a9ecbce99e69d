"""Annotated relations and databases.

A K-relation maps rows to nonzero monoid weights (finite support; a missing
row weighs zero).  Rows are plain tuples of constant strings in the
relation's attribute order.  The constant ``*`` is reserved for the chase
and rejected in user input.

Weights are validated where they enter: ``make_database`` checks each one,
and ``load_database`` parses each one, naming the relation of a bad weight.
Both drop zero weights there.  The monoid is positive (a + b = 0 forces
a = b = 0), so no sum of the nonzero weights kept is zero: neither the
loader's sums of repeated rows nor a marginal's group sums are tested again.
A ``KDatabase`` built any other way must hold elements in normal form, since
the monoid arithmetic (``marginalize``, ``is_balanced``, the chases) does not
check them again.  Chase results, ``replay``, ``support`` and countermodels
are built that way, from elements the arithmetic made.

``load_database`` reads a relation a column at a time.  The entries' shape,
the attribute set, the cell types, the star constant and the weights are each
checked over a whole column, in that order, and the carrier's
``parse_elements`` parses the weight column.  A relation whose weights hold
no zero and whose rows do not repeat is stored by one ``dict(zip(...))``.
So a relation with bad entries of several kinds reports the first kind in
that order, not the entry in the earliest row, and of several bad cells the
first in the first column that holds one.

A marginal groups the rows by their values on the queried attributes and
sums each group with one ``add_all`` of its carrier; over the rationals that
sum is taken over the group's least common denominator and normalized once.
``marginals`` plans the marginals a list of sides needs: a side in its
relation's own layout is the relation's weights, which the additive chase
writes through to grow the relation and every other caller only reads; the
others are made widest first, each from the smallest marginal of its
relation made so far that covers it.  By commutativity and associativity the marginal over
Z of a marginal over X ⊇ Z is the marginal over Z (a data cube's roll-up).

Every file kindb reads, databases, dependency lists, monoid tables and
oracle configs, is read by ``read_file``, so each input error names it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping, TypeVar, Union

from .errors import (
    DuplicateAttribute,
    ElementError,
    KindbError,
    ParseError,
    SchemaMismatch,
    StarConstantError,
    UnknownAttribute,
    UnknownRelation,
)
from .monoid import BOOLEAN, Element, MonoidSpec, parse_monoid

Row = tuple[str, ...]
T = TypeVar("T")

STAR = "*"

_STR = frozenset({str})  # the cell types that need no conversion
_DICT = frozenset({dict})  # the entry and mapping types a JSON decoder makes
_TUPLE, _WEIGHT = itemgetter("tuple"), itemgetter("weight")


@dataclass(frozen=True)
class Schema:
    """Relation names mapped to their ordered attribute tuples."""

    relations: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        for rel, attrs in self.relations.items():
            if len(attrs) != len(set(attrs)):
                raise DuplicateAttribute(f"relation {rel} repeats an attribute")

    def attributes(self, rel: str) -> tuple[str, ...]:
        try:
            return self.relations[rel]
        except KeyError:
            raise UnknownRelation(f"unknown relation {rel!r}") from None

    def positions(self, rel: str, attrs: Iterable[str]) -> tuple[int, ...]:
        """Index of each requested attribute within the relation's row layout."""
        layout = self.attributes(rel)
        out = []
        for a in attrs:
            try:
                out.append(layout.index(a))
            except ValueError:
                raise UnknownAttribute(f"relation {rel} has no attribute {a!r}") from None
        return tuple(out)


def schema_of(relations: Mapping[str, Iterable[str]]) -> Schema:
    return Schema({rel: tuple(attrs) for rel, attrs in relations.items()})


@dataclass
class KRelation:
    """Finite-support weight assignment over rows of a fixed width."""

    attributes: tuple[str, ...]
    weights: dict[Row, Element] = field(default_factory=dict)

    def support(self) -> set[Row]:
        return set(self.weights)

    def total(self, m: MonoidSpec) -> Element:
        return m.add_all(self.weights.values())


@dataclass
class KDatabase:
    schema: Schema
    monoid: MonoidSpec
    relations: dict[str, KRelation]

    def relation(self, name: str) -> KRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelation(f"unknown relation {name!r}") from None

    def copy(self) -> "KDatabase":
        return KDatabase(
            self.schema,
            self.monoid,
            {r: KRelation(kr.attributes, dict(kr.weights)) for r, kr in self.relations.items()},
        )


def make_database(schema: Schema, monoid: MonoidSpec,
                  weights: Mapping[str, Mapping[Row, Element]] | None = None) -> KDatabase:
    """Build a database, normalizing away zero weights."""
    weights = weights or {}
    for rel in weights:
        schema.attributes(rel)
    zero = monoid.zero
    relations = {}
    for rel, attrs in schema.relations.items():
        cleaned: dict[Row, Element] = {}
        for row, w in (weights.get(rel) or {}).items():
            if len(row) != len(attrs):
                raise SchemaMismatch(f"row {row} does not fit relation {rel}{attrs}")
            w = monoid.check(w)
            if w != zero:
                cleaned[tuple(row)] = w
        relations[rel] = KRelation(attrs, cleaned)
    return KDatabase(schema, monoid, relations)


def degree(row: Row) -> int:
    """Number of positions holding a value other than the star constant."""
    return sum(1 for v in row if v != STAR)


def marginalize(rel: KRelation, attrs: Iterable[str], m: MonoidSpec) -> KRelation:
    """Aggregate weights over all rows agreeing on ``attrs``.

    Each group of rows is summed by one ``m.add_all`` (for the rationals, one
    normalization per group).  The weights are nonzero, so by positivity no
    group sum is zero and none is tested.  The result is keyed
    in the order of the query sequence, not the storage order, so positional
    comparison between different relations works.
    """
    attrs = tuple(attrs)
    positions = []
    for a in attrs:
        try:
            positions.append(rel.attributes.index(a))
        except ValueError:
            raise UnknownAttribute(f"no attribute {a!r} in {rel.attributes}") from None
    # one getter per call, always giving a tuple: a slice keeps a single
    # position a 1-tuple and gives () for none
    first = positions[0] if positions else 0
    key = (itemgetter(*positions) if len(positions) > 1
           else itemgetter(slice(first, first + len(positions))))
    groups: dict[Row, list[Element]] = {}
    for row, w in rel.weights.items():
        k = key(row)
        group = groups.get(k)
        if group is None:
            groups[k] = [w]
        else:
            group.append(w)
    return KRelation(attrs, {k: m.add_all(ws) for k, ws in groups.items()})


def marginals(db: KDatabase, sides: Iterable[tuple[str, tuple[str, ...]]]
              ) -> dict[tuple[str, tuple[str, ...]], dict[Row, Element]]:
    """The weights of each distinct side's marginal, each made once.

    A side in its relation's own layout is the relation's ``weights`` dict
    itself, neither copied nor grouped: the additive chase writes through it
    to grow the relation, and every other caller only reads the result.
    The other sides are made widest first, each by one ``marginalize`` of the
    smallest marginal of its relation made so far whose attributes cover it,
    or of the relation when none does.
    """
    wanted: dict[str, dict[tuple[str, ...], None]] = {}
    for rel, attrs in sides:
        wanted.setdefault(rel, {})[attrs] = None
    out: dict[tuple[str, tuple[str, ...]], dict[Row, Element]] = {}
    for rel, seqs in wanted.items():
        kr = db.relation(rel)
        made: list[KRelation] = []
        for attrs in sorted(seqs, key=len, reverse=True):
            if attrs == kr.attributes:
                out[rel, attrs] = kr.weights
                continue
            source = kr
            for mr in made:
                if len(mr.weights) <= len(source.weights) and set(attrs).issubset(mr.attributes):
                    source = mr
            made.append(marginalize(source, attrs, db.monoid))
            out[rel, attrs] = made[-1].weights
    return out


def support(db: KDatabase) -> KDatabase:
    """The boolean-weighted database of nonzero rows."""
    return KDatabase(db.schema, BOOLEAN, {
        rel: KRelation(kr.attributes, dict.fromkeys(kr.weights, 1))
        for rel, kr in db.relations.items()})


def is_balanced(db: KDatabase) -> bool:
    """True iff every relation carries the same total weight."""
    totals = [kr.total(db.monoid) for kr in db.relations.values()]
    return all(t == totals[0] for t in totals[1:])


# -- JSON interchange ----------------------------------------------------------

def _number_constant(rel: str, attr: str, value) -> str:
    if type(value) not in (int, float):  # a JSON boolean, array, object or null
        raise ParseError(f"{rel}.{attr} must be a string or a number, got {value!r}")
    return str(value)


def parse_json(text: str):
    """Decode a JSON document.  Malformed JSON, nesting too deep to decode
    and integer literals too long to convert all raise ``ParseError``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from None


def read_file(path: str, parse: Callable[[str], T]) -> T:
    """``parse`` of a UTF-8 text file.  Every input error names the file:
    text that is not UTF-8 as a ``ParseError``, and each ``KindbError`` that
    ``parse`` raises with its own type."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except KindbError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_database(obj: Union[dict, str], allow_star: bool = False) -> KDatabase:
    """Parse the database interchange format.

    ``{"monoid": name-or-table, "schema": {"R": ["A"]},
       "relations": {"R": [{"tuple": {"A": "a"}, "weight": "5"}]}}``

    Weights are strings parsed per monoid.  The star constant is rejected
    unless ``allow_star`` is set (set when reloading chase output).
    """
    if isinstance(obj, str):
        obj = parse_json(obj)
    if not isinstance(obj, dict):
        raise ParseError("database document must be a JSON object")
    try:
        monoid = parse_monoid(obj["monoid"])
        raw_schema = obj["schema"]
    except KeyError as exc:
        raise ParseError(f"database document is missing {exc}") from None
    if not isinstance(raw_schema, dict) or not all(
            isinstance(attrs, list) and all(isinstance(a, str) for a in attrs)
            for attrs in raw_schema.values()):
        raise ParseError('"schema" must map each relation to a list of attribute names')
    schema = schema_of(raw_schema)
    relations = obj.get("relations", {})
    if not isinstance(relations, dict) or not all(
            isinstance(rows, list) for rows in relations.values()):
        raise ParseError('"relations" must map each relation to a list of rows')
    weights = {rel: _load_relation(rel, schema.attributes(rel), rows, monoid, allow_star)
               for rel, rows in relations.items()}
    return KDatabase(schema, monoid, {rel: KRelation(attrs, weights.get(rel, {}))
                                      for rel, attrs in schema.relations.items()})


def _load_relation(rel: str, attrs: tuple[str, ...], rows: list, monoid: MonoidSpec,
                   allow_star: bool) -> dict[Row, Element]:
    """One relation's rows, each check made once over a whole column."""
    try:
        mappings = list(map(_TUPLE, rows))
        texts = list(map(str, map(_WEIGHT, rows)))
        shaped = _DICT.issuperset(map(type, rows)) and _DICT.issuperset(map(type, mappings))
    except (KeyError, TypeError):  # an entry that is not a mapping, or lacks a key
        shaped = False
    if not shaped:  # name the first malformed entry; dict subclasses pass
        for entry in rows:
            fault = ("not an object" if not isinstance(entry, dict) else
                     'no "tuple" key' if "tuple" not in entry else
                     '"tuple" must be an object' if not isinstance(entry["tuple"], dict) else
                     'no "weight" key' if "weight" not in entry else None)
            if fault:
                raise ParseError(f"malformed row entry in relation {rel} ({fault}): {entry!r}")
        mappings = [entry["tuple"] for entry in rows]
        texts = [str(entry["weight"]) for entry in rows]
    # exactly the attributes: as many keys, and each one read
    try:
        columns = [list(map(itemgetter(a), mappings)) for a in attrs]
        exact = {len(attrs)}.issuperset(map(len, mappings))
    except KeyError:
        exact = False
    if not exact:
        keys = next(list(t) for t in mappings if t.keys() != set(attrs))
        raise ParseError(f"row for {rel} must assign exactly the attributes {list(attrs)} "
                         f'("tuple" assigns {keys})')
    if not all(_STR.issuperset(map(type, column)) for column in columns):
        columns = [[v if type(v) is str else _number_constant(rel, a, v) for v in column]
                   for a, column in zip(attrs, columns)]
    if not allow_star and any(STAR in column for column in columns):
        raise StarConstantError(
            f"the constant {STAR!r} is reserved and cannot appear in input data")
    try:
        ws = monoid.parse_elements(texts)
    except ElementError as exc:
        raise ElementError(f"{rel}.weight: {exc}") from None
    keys = list(zip(*columns)) if columns else [()] * len(ws)
    out = dict(zip(keys, ws))
    zero = monoid.zero
    # an element is an int, a Fraction or a str, and each type has one falsy
    # value: a falsy zero is found by a truth test, a named one by comparison
    if len(out) < len(keys) or (zero in ws if zero else not all(ws)):
        out = {}
        for row, w in zip(keys, ws):
            if w != zero:  # positivity: a sum of nonzero weights is never zero
                prior = out.get(row)
                out[row] = w if prior is None else monoid.add(prior, w)
    return out


def load_database_file(path: str) -> KDatabase:
    """Load a database file."""
    return read_file(path, load_database)


def dump_database(db: KDatabase) -> dict:
    return {
        "monoid": db.monoid.as_dict(),
        "schema": {rel: list(attrs) for rel, attrs in sorted(db.schema.relations.items())},
        "relations": {
            rel: [
                {"tuple": dict(zip(kr.attributes, row)),
                 "weight": db.monoid.format_element(w)}
                for row, w in sorted(kr.weights.items())
            ]
            for rel, kr in sorted(db.relations.items())
        },
    }
