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

Elements are validated once, where they enter: ``check`` and
``parse_element`` return an element's normal form or raise ``ElementError``,
and the arithmetic (``add``, ``add_all``, ``times``, ``leq``, ``monus``) and
``format_element`` trust their operands to be such normal forms.

Finite monoids need no search to classify: the multiples of a nonzero a
eventually cycle, the cycle holds an idempotent, and positivity keeps it
nonzero, so every nontrivial finite monoid is self absorptive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    ElementError,
    InvalidMonoidTable,
    KindbError,
    NotSubtractable,
    ParseError,
    UnsupportedMonoid,
)

Element = Union[int, Fraction, str]

UNBOUNDED = "unbounded"

MAX_TABLE_SIZE = 64


@dataclass(frozen=True)
class PropertyReport:
    """Structural classification of a positive monoid.

    Four facts are stored: the dichotomy flag ``weakly_cancellative``
    (a + b = b forces a = 0), whether the natural order is total and
    antisymmetric, and the ``provenance``.

    The rest is read off the flag.  Every monoid here is positive, and a
    weakly absorptive one has a nonzero idempotent b (finite ones by the
    module docstring, boolean and max-naturals outright), so b, b, ... is a
    chain of every length; in a weakly cancellative one no chain goes past
    a_0.
    ``weakly_absorptive``: some nonzero a, b satisfy a + b = b.
    ``self_absorptive``: some nonzero b satisfies b + b = b.
    ``countably_absorptive``: an infinite chain of nonzero a_i with
    a_i + a_{i+1} = a_{i+1} exists.
    ``k_absorptive_max``: the largest k admitting such a chain a_0..a_k, or
    ``"unbounded"``.
    """

    weakly_cancellative: bool
    natural_order_total: bool
    natural_order_antisymmetric: bool
    provenance: str  # "declared" | "computed"

    @property
    def positive(self) -> bool:
        return True

    @property
    def weakly_absorptive(self) -> bool:
        return not self.weakly_cancellative

    self_absorptive = countably_absorptive = weakly_absorptive

    @property
    def k_absorptive_max(self) -> Union[int, str]:
        return 0 if self.weakly_cancellative else UNBOUNDED

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in (
            "positive", "weakly_cancellative", "weakly_absorptive", "self_absorptive",
            "k_absorptive_max", "countably_absorptive", "natural_order_total",
            "natural_order_antisymmetric", "provenance")}


_IDEMPOTENT_REPORT = PropertyReport(False, True, True, "declared")
_CANCELLATIVE_REPORT = PropertyReport(True, True, True, "declared")


class MonoidSpec:
    """A positive commutative monoid together with element codecs.

    Instances are immutable and hashable; elements are plain Python values
    (ints, Fractions, or element-name strings for table monoids).  Only
    ``check`` and ``parse_element`` validate; the arithmetic and
    ``format_element`` take elements that they returned, or that the
    arithmetic made from such elements, and do not check them again.
    """

    name: str = "abstract"

    # -- carrier -------------------------------------------------------------

    def check(self, value: Element) -> Element:
        """Validate ``value`` and return its normal form; raise
        ``ElementError`` when it is not an element."""
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

    def times(self, a: Element, n: int) -> Element:
        """The n-fold sum n*a of a natural number n, with 0*a = 0, by
        doubling."""
        result = self.zero
        while n:
            if n & 1:
                result = self.add(result, a)
            n >>= 1
            if n:
                a = self.add(a, a)
        return result

    def leq(self, a: Element, b: Element) -> bool:
        """Natural order: true iff some c satisfies a + c = b."""
        raise NotImplementedError

    def monus(self, a: Element, b: Element) -> Element:
        """The unique c with b + c = a, defined for weakly cancellative
        monoids with a total natural order."""
        raise UnsupportedMonoid(f"{self.name} does not support subtraction")

    # -- classification --------------------------------------------------------

    def classify(self) -> PropertyReport:
        raise NotImplementedError

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

    def parse_elements(self, texts: list[str]) -> list[Element]:
        """``parse_element`` over a column of texts: the same elements, or
        the error of the first text that is not one."""
        return list(map(self.parse_element, texts))

    def format_element(self, value: Element) -> str:
        raise NotImplementedError

    def as_dict(self) -> Union[str, dict]:
        """The JSON form that ``parse_monoid`` reads back: the monoid's name,
        or a table monoid's operation table."""
        return self.name

    # -- identity ----------------------------------------------------------------

    def key(self) -> tuple:
        return (self.name,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonoidSpec) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"MonoidSpec({self.name})"


class _Naturals(MonoidSpec):
    """A carrier of naturals below ``size`` (all of them when ``size`` is
    None), ordered numerically unless a subclass says otherwise."""

    size: Optional[int] = None
    zero = 0

    def check(self, value):
        if type(value) is not int:
            if not isinstance(value, int):
                raise ElementError(f"{value!r} is not an element of {self.name}")
            value = int(value)  # a bool
        if 0 <= value and (self.size is None or value < self.size):
            return value
        raise ElementError(f"{value!r} is not an element of {self.name}")

    @property
    def is_finite(self):
        return self.size is not None

    def elements(self):
        if self.size is None:
            return super().elements()
        return iter(range(self.size))

    def some_nonzero(self):
        return 1

    def leq(self, a, b):
        return a <= b

    def parse_element(self, text):
        try:
            return self.check(int(text))
        except ValueError:
            raise ElementError(f"cannot parse {self.name} weight {text!r}") from None

    def parse_elements(self, texts):
        try:
            values = list(map(int, texts))
        except ValueError:
            values = None
        if values and min(values) >= 0 and (self.size is None or max(values) < self.size):
            return values
        return super().parse_elements(texts)  # empty, or the first bad text's error

    def format_element(self, value):
        try:
            return str(value)
        except ValueError:  # past the interpreter's limit on printed digits
            raise KindbError(f"a {self.name} weight is too large to print") from None


class NaturalsMonoid(_Naturals):
    """(N, +, 0) with arbitrary precision."""

    name = "naturals"

    def add(self, a, b):
        return a + b

    def add_all(self, values):
        return sum(values)

    def monus(self, a, b):
        if b > a:
            raise NotSubtractable(f"{b} is not below {a}")
        return a - b

    def classify(self) -> PropertyReport:
        return _CANCELLATIVE_REPORT


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
        return a + b

    def add_all(self, values):
        # exact: numerators over the least common denominator, so the sum is
        # normalized once instead of once per addend
        num, den = 0, 1
        for v in values:
            n, d = v.as_integer_ratio()
            if den % d:
                lcm = den // gcd(den, d) * d
                num, den = num * (lcm // den), lcm
            num += n * (den // d)
        return Fraction(num, den)

    def leq(self, a, b):
        return a <= b

    def monus(self, a, b):
        if b > a:
            raise NotSubtractable(f"{b} is not below {a}")
        return a - b

    def classify(self) -> PropertyReport:
        return _CANCELLATIVE_REPORT

    def parse_element(self, text):
        return self.parse_elements([text])[0]

    def parse_elements(self, texts):
        out = []
        for text in texts:
            num, slash, den = text.partition("/")
            try:
                # plain digits make a nonnegative fraction; any other spelling
                # (sign, space, decimal point, exponent, underscore) is checked
                if num.isdecimal() and (den.isdecimal() or not slash):
                    out.append(Fraction(int(num), int(den)) if slash else Fraction(int(num)))
                else:
                    out.append(self.check(Fraction(text)))
            except (ValueError, ZeroDivisionError):
                raise ElementError(f"cannot parse rational weight {text!r}") from None
        return out

    def format_element(self, value):
        n, d = value.numerator, value.denominator
        try:
            return str(n) if d == 1 else f"{n}/{d}"
        except ValueError:  # past the interpreter's limit on printed digits
            raise KindbError("a rational weight is too large to print") from None


class MaxNaturalsMonoid(_Naturals):
    """(N, max, 0); the natural order coincides with numeric order."""

    name = "max_naturals"

    def add(self, a, b):
        return max(a, b)

    def classify(self) -> PropertyReport:
        return _IDEMPOTENT_REPORT

    def nonzero_idempotent(self):
        return 1


class BooleanMonoid(MaxNaturalsMonoid):
    """({0,1}, or, 0): max on {0,1}."""

    name = "boolean"
    size = 2


class MonogenicMonoid(_Naturals):
    """The quotient of N generated by 1 under the congruence m0 = m0 + l.

    Carrier {0, .., m0+l-1}; sums at or beyond m0+l wrap into the cycle
    {m0, .., m0+l-1}.
    """

    def __init__(self, index: int, period: int):
        if index < 1 or period < 1:
            raise InvalidMonoidTable("monogenic monoid needs index >= 1 and period >= 1")
        self.index = index
        self.period = period
        self.size = index + period
        self.name = f"monogenic:{index},{period}"

    def add(self, a, b):
        s = a + b
        if s < self.size:
            return s
        return (s - self.index) % self.period + self.index

    def leq(self, a, b):
        # every cycle element is reached from any a; below the cycle a sum
        # never wraps, so a + c = b is plain integer addition
        return b >= self.index or a <= b

    def classify(self) -> PropertyReport:
        # the order is total; it is antisymmetric only if the cycle is a point
        return PropertyReport(False, True, self.period == 1, "computed")

    def nonzero_idempotent(self):
        # the cycle element that is a multiple of the period
        return -(-self.index // self.period) * self.period

    def key(self):
        return ("monogenic", self.index, self.period)


class TableMonoid(MonoidSpec):
    """A finite monoid given by an explicit operation table.

    The table is validated exhaustively at construction: closure, identity,
    commutativity, associativity, and positivity.  The associativity check is
    cubic in the carrier size, so tables are capped at 64 elements.
    """

    name = "table"

    def __init__(self, elements: list[str], op: dict[tuple[str, str], str], zero: str):
        if len(elements) != len(set(elements)):
            raise InvalidMonoidTable("duplicate element names")
        if len(elements) > MAX_TABLE_SIZE:
            raise InvalidMonoidTable(
                f"table has {len(elements)} elements, exceeding the cap of {MAX_TABLE_SIZE}")
        if zero not in elements:
            raise InvalidMonoidTable(f"zero element {zero!r} is not in the carrier")
        self._elements = tuple(elements)
        self._zero = zero
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
        self._key = ("table", self._elements, zero, tuple(sorted(table.items())))
        # the natural order: b is above a iff b is in a's reach set
        self._reach = {a: frozenset(table[(a, c)] for c in self._elements)
                       for a in self._elements}

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
        return self._op[(a, b)]

    def leq(self, a, b):
        return b in self._reach[a]

    def classify(self) -> PropertyReport:
        reach, els = self._reach, self._elements
        total = all(b in reach[a] or a in reach[b] for a in els for b in els)
        antisymmetric = all(a == b or not (b in reach[a] and a in reach[b])
                            for a in els for b in els)
        return PropertyReport(self.nonzero_idempotent() is None, total, antisymmetric,
                              "computed")

    def parse_element(self, text):
        return self.check(text)

    def format_element(self, value):
        return value

    def key(self):
        return self._key

    def as_dict(self) -> dict:
        op = {}
        for (a, b), c in sorted(self._op.items()):
            if self._elements.index(a) <= self._elements.index(b):
                op[f"{a},{b}"] = c
        return {"elements": list(self._elements), "zero": self._zero, "op": op}


# -- module-level operation surface -------------------------------------------

def embed_naturals(m: MonoidSpec, b: Element, n: int) -> Element:
    """The n-fold sum n*b, with 0*b = 0.

    For weakly cancellative monoids this map is an order embedding of the
    naturals: injective, additive, and order reflecting.
    """
    b = m.check(b)
    n = int(n)
    if n < 0:
        raise ElementError("multiplicity must be a natural number")
    return m.times(b, n)


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


def table_from_dict(spec: dict) -> TableMonoid:
    """Load a finite monoid from its JSON form.

    Expected shape: ``{"elements": [...], "zero": "0", "op": {"a,b": "c", ...}}``
    with every unordered pair present (commutative closure is applied).
    """
    if not isinstance(spec, dict):
        raise ParseError(f"a monoid table is a JSON object, not {spec!r}")
    try:
        elements = spec["elements"]
        zero = spec["zero"]
        raw_op = spec["op"]
    except KeyError as exc:
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
    return TableMonoid(elements, op, zero)


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
