"""Inclusion dependencies: syntax, parsing, and satisfaction.

An inclusion dependency ``R[A1,..,An] <= S[B1,..,Bn]`` holds in an annotated
database when, for every point, the marginal weight of R over A1..An is below
the marginal weight of S over B1..Bn in the monoid's natural order.  Arity 0
(``R[] <= S[]``) compares total weights.

``satisfies_all`` checks a list of dependencies on one database from one
``kdb.marginals`` plan: each distinct side is made once, widest first, a
narrower side of a relation is rolled up from a wider marginal that covers
it (the monoid is commutative and associative), and a side in its relation's
own layout is read in place.  ``satisfies`` is that test for one dependency.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    ArityMismatch,
    DuplicateAttribute,
    ParseError,
)
from .kdb import KDatabase, Schema, marginals, read_file, schema_of

_IND_RE = re.compile(
    r"^\s*(\w+)\s*\[\s*([^\[\]]*?)\s*\]\s*<=\s*(\w+)\s*\[\s*([^\[\]]*?)\s*\]\s*$")
_ATTRS_RE = re.compile(r"\w+(?:\s*,\s*\w+)*")  # a list that ``_IND_RE`` has stripped


@dataclass(frozen=True)
class IND:
    lhs_rel: str
    lhs_attrs: tuple[str, ...]
    rhs_rel: str
    rhs_attrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.lhs_attrs) != len(self.rhs_attrs):
            raise ArityMismatch(
                f"attribute sequences differ in length: {self.lhs_attrs} vs {self.rhs_attrs}")
        for rel, attrs in ((self.lhs_rel, self.lhs_attrs), (self.rhs_rel, self.rhs_attrs)):
            if len(attrs) != len(set(attrs)):
                raise DuplicateAttribute(f"{rel}{list(attrs)} repeats an attribute")

    @property
    def arity(self) -> int:
        return len(self.lhs_attrs)

    @property
    def is_reflexive(self) -> bool:
        return self.lhs_rel == self.rhs_rel and self.lhs_attrs == self.rhs_attrs

    def __str__(self) -> str:
        return format_ind(self)


def format_ind(sigma: IND) -> str:
    return (f"{sigma.lhs_rel}[{','.join(sigma.lhs_attrs)}] <= "
            f"{sigma.rhs_rel}[{','.join(sigma.rhs_attrs)}]")


ind_sort_key = format_ind  # the canonical order of dependencies


def _split_attrs(text: str, rel: str) -> tuple[str, ...]:
    if not text.strip():
        return ()
    if not _ATTRS_RE.fullmatch(text):
        raise ParseError(f"malformed attribute list {text!r} for relation {rel}")
    return tuple(p.strip() for p in text.split(","))


def parse_ind(text: str, schema: Optional[Schema] = None) -> IND:
    """Parse ``R[A1,..,An] <= S[B1,..,Bn]``; ``R[] <= S[]`` is the arity-0 form.

    When a schema is supplied, relations and attributes are validated
    against it.
    """
    m = _IND_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse inclusion dependency {text!r}")
    lhs_rel, lhs_raw, rhs_rel, rhs_raw = m.groups()
    sigma = IND(lhs_rel, _split_attrs(lhs_raw, lhs_rel),
                rhs_rel, _split_attrs(rhs_raw, rhs_rel))
    if schema is not None:
        validate_ind(sigma, schema)
    return sigma


def validate_ind(sigma: IND, schema: Schema) -> None:
    schema.positions(sigma.lhs_rel, sigma.lhs_attrs)
    schema.positions(sigma.rhs_rel, sigma.rhs_attrs)


def inverse(sigma: IND) -> IND:
    return IND(sigma.rhs_rel, sigma.rhs_attrs, sigma.lhs_rel, sigma.lhs_attrs)


def satisfies(db: KDatabase, sigma: IND) -> bool:
    """Whether ``sigma`` holds in ``db``: ``satisfies_all`` of one dependency."""
    return satisfies_all(db, [sigma])[0]


def satisfies_all(db: KDatabase, sigmas: Iterable[IND]) -> list[bool]:
    """Whether each dependency holds in ``db``, in input order.

    Every dependency is validated before any marginal is made.  Each test
    compares the two marginals pointwise under the natural order, over the
    left marginal's support; elsewhere the left side weighs zero, which is
    below every element.
    """
    sigmas = list(sigmas)
    for sigma in sigmas:
        validate_ind(sigma, db.schema)
    weights = marginals(db, [side for s in sigmas for side in ((s.lhs_rel, s.lhs_attrs),
                                                               (s.rhs_rel, s.rhs_attrs))])
    m = db.monoid
    leq, zero = m.leq, m.zero
    out = []
    for s in sigmas:
        get = weights[s.rhs_rel, s.rhs_attrs].get
        out.append(all(leq(w, get(point, zero))
                        for point, w in weights[s.lhs_rel, s.lhs_attrs].items()))
    return out


def infer_schema(sigmas: Iterable[IND]) -> Schema:
    """Minimal schema mentioning exactly the relations and attributes of the
    given dependencies, in first-seen order."""
    relations: dict[str, list[str]] = {}
    for s in sigmas:
        for rel, attrs in ((s.lhs_rel, s.lhs_attrs), (s.rhs_rel, s.rhs_attrs)):
            seen = relations.setdefault(rel, [])
            for a in attrs:
                if a not in seen:
                    seen.append(a)
    return schema_of(relations)


def query_schema(sigma: Iterable[IND], tau: IND, schema: Optional[Schema] = None) -> Schema:
    """The schema a query runs over: the relations that ``sigma`` and ``tau``
    mention, in name order, with their attributes in ``schema`` or, without
    one, as inferred from the dependencies in canonical order."""
    given = sorted(set(sigma) | {tau}, key=ind_sort_key)
    if schema is None:
        schema = infer_schema(given)
    mentioned = {r for s in given for r in (s.lhs_rel, s.rhs_rel)}
    return Schema({r: schema.attributes(r) for r in sorted(mentioned)})


def parse_ind_list(text: str, schema: Optional[Schema] = None) -> list[IND]:
    """Parse a newline-separated dependency list; ``#`` starts a comment."""
    out = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            out.append(parse_ind(stripped, schema))
    return out


def load_ind_file(path: str, schema: Optional[Schema] = None) -> list[IND]:
    """Read a dependency list file."""
    return read_file(path, lambda text: parse_ind_list(text, schema))
