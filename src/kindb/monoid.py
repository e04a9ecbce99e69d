"""Positive commutative monoids and their structural classification.

A weight domain is a positive commutative monoid (K, +, 0): addition is
associative and commutative, 0 is the identity, and a + b = 0 forces
a = b = 0.  Every monoid carries its natural preorder

    a <= b  iff  a + c = b for some c.

Satisfaction of inclusion dependencies is defined against this order, so the
whole package is parametric in a ``MonoidSpec``.

Builtin carriers: booleans under disjunction, naturals and nonnegative
rationals under addition, naturals under max, and the monogenic quotients
``monogenic:m0,l`` ({0..m0+l-1} generated by 1 with the congruence
m0 = m0+l).  Arbitrary finite monoids load from an explicit operation table
and are validated exhaustively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    ElementError,
    InvalidMonoidTable,
    NotSubtractable,
    ParseError,
    UnsupportedMonoid,
)

Element = Union[int, Fraction, str]

UNBOUNDED = "unbounded"

DEFAULT_K_BOUND = 8
DEFAULT_MAX_TABLE_SIZE = 64


@dataclass(frozen=True)
class PropertyReport:
    """Structural classification of a monoid.

    ``weakly_cancellative``: a + b = b forces a = 0.
    ``weakly_absorptive``: some nonzero a, b satisfy a + b = b (exactly the
    negation of weak cancellativity).
    ``self_absorptive``: some nonzero b satisfies b + b = b.
    ``k_absorptive_max``: the largest k (up to the probe bound) admitting a
    chain a_0..a_k of nonzero elements with a_i + a_{i+1} = a_{i+1}; the
    string ``"unbounded"`` when a nonzero idempotent certifies chains of
    every length.
    ``countably_absorptive``: an infinite such chain exists.
    """

    positive: bool
    weakly_cancellative: bool
    weakly_absorptive: bool
    self_absorptive: bool
    k_absorptive_max: Union[int, str]
    countably_absorptive: bool
    natural_order_total: bool
    natural_order_antisymmetric: bool
    provenance: str  # "declared" | "computed"

    def __post_init__(self) -> None:
        if self.weakly_absorptive == self.weakly_cancellative:
            raise ValueError("weak absorptivity must be the negation of weak cancellativity")
        if self.self_absorptive and not self.countably_absorptive:
            raise ValueError("self absorptive implies countably absorptive")
        if self.countably_absorptive and not self.weakly_absorptive:
            raise ValueError("countably absorptive implies weakly absorptive")

    def as_dict(self) -> dict:
        return {
            "positive": self.positive,
            "weakly_cancellative": self.weakly_cancellative,
            "weakly_absorptive": self.weakly_absorptive,
            "self_absorptive": self.self_absorptive,
            "k_absorptive_max": self.k_absorptive_max,
            "countably_absorptive": self.countably_absorptive,
            "natural_order_total": self.natural_order_total,
            "natural_order_antisymmetric": self.natural_order_antisymmetric,
            "provenance": self.provenance,
        }


# Declared classifications of the builtins: every element of boolean and
# max-naturals is idempotent; the naturals and rationals are cancellative.
_IDEMPOTENT_REPORT = PropertyReport(
    positive=True,
    weakly_cancellative=False,
    weakly_absorptive=True,
    self_absorptive=True,
    k_absorptive_max=UNBOUNDED,
    countably_absorptive=True,
    natural_order_total=True,
    natural_order_antisymmetric=True,
    provenance="declared",
)
_CANCELLATIVE_REPORT = PropertyReport(
    positive=True,
    weakly_cancellative=True,
    weakly_absorptive=False,
    self_absorptive=False,
    k_absorptive_max=0,
    countably_absorptive=False,
    natural_order_total=True,
    natural_order_antisymmetric=True,
    provenance="declared",
)


class MonoidSpec:
    """A positive commutative monoid together with element codecs.

    Instances are immutable and hashable; elements are plain Python values
    (ints, Fractions, or element-name strings for table monoids).
    """

    name: str = "abstract"

    # -- carrier -------------------------------------------------------------

    def check(self, value: Element) -> Element:
        """Validate ``value`` and return its normal form."""
        raise NotImplementedError

    @property
    def zero(self) -> Element:
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> Iterator[Element]:
        """Iterate the carrier in canonical order (finite monoids only)."""
        raise UnsupportedMonoid(f"{self.name} has an infinite carrier")

    def some_nonzero(self) -> Element:
        """A canonical nonzero element, used as a default embedding generator."""
        raise NotImplementedError

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def add_all(self, values: Iterable[Element]) -> Element:
        result = self.zero
        for v in values:
            result = self.add(result, v)
        return result

    def leq(self, a: Element, b: Element) -> bool:
        """Natural order: true iff some c satisfies a + c = b."""
        raise NotImplementedError

    def monus(self, a: Element, b: Element) -> Element:
        """The unique c with b + c = a, defined for weakly cancellative
        monoids with a total natural order."""
        raise UnsupportedMonoid(f"{self.name} does not support subtraction")

    # -- classification --------------------------------------------------------

    def classify(self, k_bound: int = DEFAULT_K_BOUND) -> PropertyReport:
        raise NotImplementedError

    @property
    def has_total_wc_order(self) -> bool:
        report = self.classify()
        return report.weakly_cancellative and report.natural_order_total

    def nonzero_idempotent(self) -> Optional[Element]:
        """Smallest nonzero b with b + b = b, or None."""
        if not self.is_finite:
            return None
        for b in self.elements():
            if b != self.zero and self.add(b, b) == b:
                return b
        return None

    # -- codecs ----------------------------------------------------------------

    def parse_element(self, text: str) -> Element:
        raise NotImplementedError

    def format_element(self, value: Element) -> str:
        raise NotImplementedError

    # -- identity ----------------------------------------------------------------

    def key(self) -> tuple:
        return (self.name,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonoidSpec) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"MonoidSpec({self.name})"


def _check_natural(name: str, value: Element) -> int:
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int) and value >= 0:
        return value
    raise ElementError(f"{value!r} is not a valid {name} element")


class BooleanMonoid(MonoidSpec):
    """({0,1}, or, 0)."""

    name = "boolean"

    def check(self, value):
        v = _check_natural(self.name, value)
        if v not in (0, 1):
            raise ElementError(f"{value!r} is not a boolean weight")
        return v

    @property
    def zero(self):
        return 0

    @property
    def is_finite(self):
        return True

    def elements(self):
        yield 0
        yield 1

    def some_nonzero(self):
        return 1

    def add(self, a, b):
        return self.check(a) | self.check(b)

    def leq(self, a, b):
        return self.check(a) <= self.check(b)

    def classify(self, k_bound: int = DEFAULT_K_BOUND) -> PropertyReport:
        return _IDEMPOTENT_REPORT

    def parse_element(self, text):
        try:
            return self.check(int(text))
        except ValueError:
            raise ElementError(f"cannot parse boolean weight {text!r}") from None

    def format_element(self, value):
        return str(self.check(value))


class NaturalsMonoid(MonoidSpec):
    """(N, +, 0) with arbitrary precision."""

    name = "naturals"

    def check(self, value):
        return _check_natural(self.name, value)

    @property
    def zero(self):
        return 0

    def some_nonzero(self):
        return 1

    def add(self, a, b):
        return self.check(a) + self.check(b)

    def add_all(self, values):
        return sum(map(self.check, values))

    def leq(self, a, b):
        return self.check(a) <= self.check(b)

    def monus(self, a, b):
        a, b = self.check(a), self.check(b)
        if b > a:
            raise NotSubtractable(f"{b} is not below {a}")
        return a - b

    def classify(self, k_bound: int = DEFAULT_K_BOUND) -> PropertyReport:
        return _CANCELLATIVE_REPORT

    def parse_element(self, text):
        try:
            return self.check(int(text))
        except ValueError:
            raise ElementError(f"cannot parse natural weight {text!r}") from None

    def format_element(self, value):
        return str(self.check(value))


class NonnegRationalsMonoid(MonoidSpec):
    """(Q>=0, +, 0) with exact fractions."""

    name = "nonneg_rationals"

    def check(self, value):
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, int):
            value = Fraction(value)
        if isinstance(value, Fraction) and value >= 0:
            return value
        raise ElementError(f"{value!r} is not a nonnegative rational")

    @property
    def zero(self):
        return Fraction(0)

    def some_nonzero(self):
        return Fraction(1)

    def add(self, a, b):
        return self.check(a) + self.check(b)

    def add_all(self, values):
        return sum(map(self.check, values), Fraction(0))

    def leq(self, a, b):
        return self.check(a) <= self.check(b)

    def monus(self, a, b):
        a, b = self.check(a), self.check(b)
        if b > a:
            raise NotSubtractable(f"{b} is not below {a}")
        return a - b

    def classify(self, k_bound: int = DEFAULT_K_BOUND) -> PropertyReport:
        return _CANCELLATIVE_REPORT

    def parse_element(self, text):
        try:
            return self.check(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ElementError(f"cannot parse rational weight {text!r}") from None

    def format_element(self, value):
        v = self.check(value)
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class MaxNaturalsMonoid(MonoidSpec):
    """(N, max, 0); the natural order coincides with numeric order."""

    name = "max_naturals"

    def check(self, value):
        return _check_natural(self.name, value)

    @property
    def zero(self):
        return 0

    def some_nonzero(self):
        return 1

    def add(self, a, b):
        return max(self.check(a), self.check(b))

    def leq(self, a, b):
        return self.check(a) <= self.check(b)

    def classify(self, k_bound: int = DEFAULT_K_BOUND) -> PropertyReport:
        return _IDEMPOTENT_REPORT

    def nonzero_idempotent(self):
        return 1

    def parse_element(self, text):
        try:
            return self.check(int(text))
        except ValueError:
            raise ElementError(f"cannot parse max-naturals weight {text!r}") from None

    def format_element(self, value):
        return str(self.check(value))


class MonogenicMonoid(MonoidSpec):
    """The quotient of N generated by 1 under the congruence m0 = m0 + l.

    Carrier {0, .., m0+l-1}; sums at or beyond m0+l wrap into the cycle
    {m0, .., m0+l-1}.
    """

    def __init__(self, index: int, period: int):
        if index < 1 or period < 1:
            raise InvalidMonoidTable("monogenic monoid needs index >= 1 and period >= 1")
        self.index = index
        self.period = period
        self.name = f"monogenic:{index},{period}"

    def check(self, value):
        v = _check_natural(self.name, value)
        if v >= self.index + self.period:
            raise ElementError(f"{value!r} is outside the carrier of {self.name}")
        return v

    @property
    def zero(self):
        return 0

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter(range(self.index + self.period))

    def some_nonzero(self):
        return 1

    def add(self, a, b):
        s = self.check(a) + self.check(b)
        if s < self.index + self.period:
            return s
        return (s - self.index) % self.period + self.index

    def leq(self, a, b):
        a, b = self.check(a), self.check(b)
        return any(self.add(a, c) == b for c in self.elements())

    def classify(self, k_bound: int = DEFAULT_K_BOUND) -> PropertyReport:
        return _classify_finite(self, k_bound)

    def parse_element(self, text):
        try:
            return self.check(int(text))
        except ValueError:
            raise ElementError(f"cannot parse {self.name} weight {text!r}") from None

    def format_element(self, value):
        return str(self.check(value))

    def key(self):
        return ("monogenic", self.index, self.period)


class TableMonoid(MonoidSpec):
    """A finite monoid given by an explicit operation table.

    The table is validated exhaustively at construction: closure, identity,
    commutativity, associativity, and positivity.  The associativity check is
    cubic in the carrier size, so tables are capped (64 elements by default).
    """

    def __init__(self, elements: list[str], op: dict[tuple[str, str], str],
                 zero: str, name: str = "table",
                 max_elements: int = DEFAULT_MAX_TABLE_SIZE):
        if len(elements) != len(set(elements)):
            raise InvalidMonoidTable("duplicate element names")
        if len(elements) > max_elements:
            raise InvalidMonoidTable(
                f"table has {len(elements)} elements, exceeding the cap of {max_elements}")
        if zero not in elements:
            raise InvalidMonoidTable(f"zero element {zero!r} is not in the carrier")
        self._elements = tuple(elements)
        self._zero = zero
        self.name = name
        table: dict[tuple[str, str], str] = {}
        for (a, b), c in op.items():
            for x in (a, b, c):
                if x not in self._elements:
                    raise InvalidMonoidTable(f"op entry {a},{b} -> {c} mentions unknown element {x!r}")
            if table.get((b, a), c) != c:
                raise InvalidMonoidTable(
                    f"commutativity fails: {a}+{b} = {c} but {b}+{a} = {table[(b, a)]}")
            table[(a, b)] = c
            table[(b, a)] = c
        for a in elements:
            for b in elements:
                if (a, b) not in table:
                    raise InvalidMonoidTable(f"missing op entry for {a},{b}")
        self._op = table
        self._validate()

    def _validate(self) -> None:
        els = self._elements
        op = self._op
        for a in els:
            if op[(a, self._zero)] != a:
                raise InvalidMonoidTable(f"identity fails: {a}+{self._zero} = {op[(a, self._zero)]}")
        for a in els:
            for b in els:
                if op[(a, b)] == self._zero and (a != self._zero or b != self._zero):
                    raise InvalidMonoidTable(f"positivity fails: {a}+{b} = {self._zero}")
        for a in els:
            for b in els:
                ab = op[(a, b)]
                for c in els:
                    if op[(ab, c)] != op[(a, op[(b, c)])]:
                        raise InvalidMonoidTable(
                            f"associativity fails at ({a},{b},{c}): "
                            f"({a}+{b})+{c} = {op[(ab, c)]} but {a}+({b}+{c}) = {op[(a, op[(b, c)])]}")

    def check(self, value):
        if value in self._elements:
            return value
        raise ElementError(f"{value!r} is not an element of {self.name}")

    @property
    def zero(self):
        return self._zero

    @property
    def is_finite(self):
        return True

    def elements(self):
        return iter(self._elements)

    def some_nonzero(self):
        for e in self._elements:
            if e != self._zero:
                return e
        raise UnsupportedMonoid(f"{self.name} is trivial")

    def add(self, a, b):
        return self._op[(self.check(a), self.check(b))]

    def leq(self, a, b):
        a, b = self.check(a), self.check(b)
        return any(self.add(a, c) == b for c in self._elements)

    def monus(self, a, b):
        if not self.has_total_wc_order:
            raise UnsupportedMonoid(f"{self.name} lacks a total weakly cancellative order")
        a, b = self.check(a), self.check(b)
        for c in self._elements:
            if self.add(b, c) == a:
                return c
        raise NotSubtractable(f"{b} is not below {a}")

    def classify(self, k_bound: int = DEFAULT_K_BOUND) -> PropertyReport:
        return _classify_finite(self, k_bound)

    def parse_element(self, text):
        return self.check(text)

    def format_element(self, value):
        return self.check(value)

    def key(self):
        return ("table", self._elements, self._zero,
                tuple(sorted(self._op.items())))

    def as_dict(self) -> dict:
        op = {}
        for (a, b), c in sorted(self._op.items()):
            if self._elements.index(a) <= self._elements.index(b):
                op[f"{a},{b}"] = c
        return {"elements": list(self._elements), "zero": self._zero, "op": op}


@functools.lru_cache(maxsize=256)
def _classify_finite(m: MonoidSpec, k_bound: int) -> PropertyReport:
    carrier = list(m.elements())
    zero = m.zero
    nonzero = [x for x in carrier if x != zero]

    positive = all(
        m.add(a, b) != zero
        for a in carrier for b in carrier
        if a != zero or b != zero
    )
    absorptions = {(a, b) for a in nonzero for b in nonzero if m.add(a, b) == b}
    wa = bool(absorptions)
    sa = any(a == b for a, b in absorptions)
    # A finite carrier bounds every absorption chain, so an infinite chain
    # exists exactly when the absorption graph has a cycle; commutativity
    # collapses every cycle to a nonzero idempotent.
    ca = sa
    if sa:
        k_max: Union[int, str] = UNBOUNDED
    else:
        k_max = 0
        frontier = set(nonzero)
        for k in range(1, k_bound + 1):
            frontier = {b for a, b in absorptions if a in frontier}
            if not frontier:
                break
            k_max = k

    leq = {(a, b) for a in carrier for b in carrier
           if any(m.add(a, c) == b for c in carrier)}
    total = all((a, b) in leq or (b, a) in leq for a in carrier for b in carrier)
    antisym = all(not ((a, b) in leq and (b, a) in leq) or a == b
                  for a in carrier for b in carrier)

    return PropertyReport(
        positive=positive,
        weakly_cancellative=not wa,
        weakly_absorptive=wa,
        self_absorptive=sa,
        k_absorptive_max=k_max,
        countably_absorptive=ca,
        natural_order_total=total,
        natural_order_antisymmetric=antisym,
        provenance="computed",
    )


# -- module-level operation surface -------------------------------------------

def classify(m: MonoidSpec, k_bound: int = DEFAULT_K_BOUND) -> PropertyReport:
    return m.classify(k_bound)


def embed_naturals(m: MonoidSpec, b: Element, n: int) -> Element:
    """The n-fold sum n*b, with 0*b = 0.

    For weakly cancellative monoids this map is an order embedding of the
    naturals: injective, additive, and order reflecting.
    """
    b = m.check(b)
    n = int(n)
    if n < 0:
        raise ElementError("multiplicity must be a natural number")
    result = m.zero
    addend = b
    while n:
        if n & 1:
            result = m.add(result, addend)
        n >>= 1
        if n:
            addend = m.add(addend, addend)
    return result


# -- registry ------------------------------------------------------------------

BOOLEAN = BooleanMonoid()
NATURALS = NaturalsMonoid()
NONNEG_RATIONALS = NonnegRationalsMonoid()
MAX_NATURALS = MaxNaturalsMonoid()

_BUILTINS = {
    "boolean": BOOLEAN,
    "naturals": NATURALS,
    "nonneg_rationals": NONNEG_RATIONALS,
    "max_naturals": MAX_NATURALS,
}


def monogenic(index: int, period: int) -> MonogenicMonoid:
    return MonogenicMonoid(index, period)


def table_from_dict(spec: dict, name: str = "table",
                    max_elements: int = DEFAULT_MAX_TABLE_SIZE) -> TableMonoid:
    """Load a finite monoid from its JSON form.

    Expected shape: ``{"elements": [...], "zero": "0", "op": {"a,b": "c", ...}}``
    with every unordered pair present (commutative closure is applied).
    """
    try:
        elements = spec["elements"]
        zero = spec["zero"]
        raw_op = spec["op"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed monoid table: missing {exc}") from None
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError('malformed monoid table: "elements" must be a list of names')
    if not isinstance(raw_op, dict):
        raise ParseError('malformed monoid table: "op" must map "a,b" to an element')
    op = {}
    for key, value in raw_op.items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2:
            raise ParseError(f"malformed op key {key!r}; expected 'a,b'")
        op[(parts[0], parts[1])] = value
    return TableMonoid(elements, op, zero, name=name, max_elements=max_elements)


def parse_monoid(spec: Union[str, dict, MonoidSpec]) -> MonoidSpec:
    """Resolve a monoid from a builtin name, ``monogenic:m0,l``, or a table dict."""
    if isinstance(spec, MonoidSpec):
        return spec
    if isinstance(spec, dict):
        return table_from_dict(spec)
    if not isinstance(spec, str):
        raise ParseError(f"a monoid is a name or an operation table, not {spec!r}")
    name = spec.strip()
    if name in _BUILTINS:
        return _BUILTINS[name]
    if name.startswith("monogenic:"):
        try:
            index, period = (int(p) for p in name[len("monogenic:"):].split(","))
        except ValueError:
            raise ParseError(f"malformed monogenic spec {name!r}; expected monogenic:m0,l") from None
        return MonogenicMonoid(index, period)
    raise ParseError(f"unknown monoid {name!r}")
