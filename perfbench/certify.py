"""Independent answer checking for the benchmark.

Everything here works on the JSON interchange forms that kindb prints
(databases, chase traces, oracle configurations) and recomputes marginals
with its own arithmetic, so a defect in ``kindb.kdb`` or ``kindb.ind`` cannot
hide itself.  Only ``kindb.infer.check_proof`` is borrowed, to re-check
derivation trees.  Nothing here runs inside a timed region.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

_IND_RE = re.compile(r"^\s*(\w+)\s*\[([^\]]*)\]\s*<=\s*(\w+)\s*\[([^\]]*)\]\s*$")


def parse_ind_text(text: str) -> tuple[str, tuple[str, ...], str, tuple[str, ...]]:
    m = _IND_RE.match(text)
    if not m:
        raise ValueError(f"not a dependency: {text!r}")
    split = lambda s: tuple(a.strip() for a in s.split(",") if a.strip())
    return m.group(1), split(m.group(2)), m.group(3), split(m.group(4))


def ind_text(lhs: str, lhs_attrs, rhs: str, rhs_attrs) -> str:
    """The canonical text kindb's ``format_ind`` produces."""
    return f"{lhs}[{','.join(lhs_attrs)}] <= {rhs}[{','.join(rhs_attrs)}]"


# -- arithmetic ---------------------------------------------------------------

class Arith:
    """A monoid's addition and natural order, written out independently."""

    def __init__(self, spec):
        self.finite = None  # carrier list for finite monoids
        if isinstance(spec, dict):
            els = [str(e) for e in spec["elements"]]
            op = {}
            for key, c in spec["op"].items():
                a, b = (p.strip() for p in key.split(","))
                op[(a, b)] = op[(b, a)] = str(c)
            self.zero, self.finite = str(spec["zero"]), els
            self._add = lambda a, b: op[(a, b)]
            self.parse = str
            return
        name = spec.strip()
        self.zero = 0
        self.parse = int
        if name == "boolean":
            self._add = lambda a, b: a | b
        elif name == "naturals":
            self._add = lambda a, b: a + b
        elif name == "max_naturals":
            self._add = max
        elif name == "nonneg_rationals":
            self.zero, self.parse = Fraction(0), Fraction
            self._add = lambda a, b: a + b
        elif name.startswith("monogenic:"):
            m0, per = (int(p) for p in name.split(":", 1)[1].split(","))
            size = m0 + per
            self.finite = list(range(size))
            self._add = lambda a, b: a + b if a + b < size else (a + b - m0) % per + m0
        else:
            raise ValueError(f"unknown monoid {spec!r}")

    def add(self, a, b):
        return self._add(a, b)

    def leq(self, a, b) -> bool:
        # the infinite builtins and the booleans are ordered numerically
        if self.finite is None:
            return a <= b
        return any(self._add(a, c) == b for c in self.finite)

    def fmt(self, v) -> str:
        if isinstance(v, Fraction):
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return str(v)


# -- marginals and satisfaction -------------------------------------------------

def _rows(db: dict, rel: str, arith: Arith):
    attrs = db["schema"][rel]
    for entry in db["relations"].get(rel, []):
        yield tuple(str(entry["tuple"][a]) for a in attrs), arith.parse(str(entry["weight"]))


def marginal(db: dict, rel: str, attrs, arith: Arith) -> dict:
    layout = db["schema"][rel]
    pos = [layout.index(a) for a in attrs]
    out: dict = {}
    for row, w in _rows(db, rel, arith):
        key = tuple(row[i] for i in pos)
        out[key] = arith.add(out[key], w) if key in out else w
    return out


def holds(db: dict, text: str, arith: Arith) -> bool:
    lrel, lattrs, rrel, rattrs = parse_ind_text(text)
    lhs = marginal(db, lrel, lattrs, arith)
    rhs = marginal(db, rrel, rattrs, arith)
    zero = arith.zero
    return all(arith.leq(lhs.get(p, zero), rhs.get(p, zero)) for p in set(lhs) | set(rhs))


def is_balanced(db: dict, arith: Arith) -> bool:
    totals = []
    for rel in db["schema"]:
        t = arith.zero
        for _, w in _rows(db, rel, arith):
            t = arith.add(t, w)
        totals.append(t)
    return all(t == totals[0] for t in totals[1:])


def countermodel_problems(db: dict, sigma, tau: str, arith: Arith, balanced: bool) -> list[str]:
    problems = [f"assumption {s} fails in the countermodel" for s in sigma if not holds(db, s, arith)]
    if holds(db, tau, arith):
        problems.append(f"query {tau} holds in the countermodel")
    if balanced and not is_balanced(db, arith):
        problems.append("countermodel is not balanced")
    return problems


# -- proofs -----------------------------------------------------------------------

def proof_problems(proof, sigma, tau: str, balanced: bool, weakly_absorptive: bool,
                   check_proof, IND) -> list[str]:
    """``check_proof`` and ``IND`` are passed in as kindb's originals."""
    if proof is None:
        return ["positive answer without a proof"]
    axioms = {IND(*parse_ind_text(s)) for s in sigma}
    if balanced:
        rels = {r for s in list(sigma) + [tau] for r in parse_ind_text(s)[0::2]}
        axioms |= {IND(a, (), b, ()) for a in rels for b in rels if a != b}
    problems = []
    try:
        check_proof(proof, axioms)
    except Exception as exc:  # any failure is a rejected certificate
        problems.append(f"proof rejected: {exc}")
    if proof.conclusion != IND(*parse_ind_text(tau)):
        problems.append("proof concludes something other than the query")
    if weakly_absorptive:
        stack = [proof]
        while stack:
            node = stack.pop()
            if node.rule in ("weak_symmetry", "symmetry"):
                problems.append(f"{node.rule} step over a weakly absorptive monoid")
                break
            stack.extend(node.premises)
    return problems


# -- chase traces -------------------------------------------------------------------

def trace_problems(trace: dict, sigma, arith: Arith) -> list[str]:
    """The repaired database satisfies every dependency, and replaying the
    recorded steps on the start database yields it exactly."""
    start, result = trace["start"], trace["result"]
    problems = [f"repair violates {s}" for s in sigma if not holds(result, s, arith)]
    work = {rel: dict(_rows(start, rel, arith)) for rel in start["schema"]}
    for step in trace["steps"]:
        rel = parse_ind_text(step["sigma"])[2]
        row = tuple(step["tuple"])
        delta = arith.parse(step["delta"]) if "delta" in step else arith.parse("1")
        work[rel][row] = arith.add(work[rel][row], delta) if row in work[rel] else delta
    for rel in result["schema"]:
        want = dict(_rows(result, rel, arith))
        got = {r: w for r, w in work.get(rel, {}).items() if w != arith.zero}
        if got != want:
            problems.append(f"replaying the trace does not rebuild relation {rel}")
    return problems


# -- oracle enumeration ---------------------------------------------------------------

def oracle_space(config: dict) -> dict:
    """The enumeration the bounded falsifier walks, as documented in
    ``kindb.oracle``: relations in name order, supports by size then
    lexicographically, weights lexicographically over the sorted pool."""
    arith = Arith(config["monoid"])
    texts = sorted(set(config["sigma"])) + [config["tau"]]
    layout: dict[str, list[str]] = {}
    for t in texts:
        lrel, la, rrel, ra = parse_ind_text(t)
        for rel, attrs in ((lrel, la), (rrel, ra)):
            seen = layout.setdefault(rel, [])
            seen.extend(a for a in attrs if a not in seen)
    consts = sorted({str(c) for c in config["adom"]})
    pool = sorted({arith.fmt(arith.parse(str(w))) for w in config["weight_pool"]}
                  - {arith.fmt(arith.zero)})
    rels = sorted(layout)
    cands = {r: sorted(itertools.product(consts, repeat=len(layout[r]))) for r in rels}
    return {"rels": rels, "cands": cands, "pool": pool, "max_tuples": int(config["max_tuples"])}


def oracle_candidates(config: dict, found: dict | None) -> int:
    """Databases the falsifier enumerates before it stops: the whole space
    when nothing is found, else the rank of the counterexample it returned."""
    sp = oracle_space(config)
    P, T = len(sp["pool"]), sp["max_tuples"]

    def per_size(n):
        return [math.comb(n, k) * P ** k for k in range(min(T, n) + 1)]

    totals = [sum(per_size(len(sp["cands"][r]))) for r in sp["rels"]]
    if found is None:
        return math.prod(totals)
    # Relations vary from the first (slowest) to the last; within one
    # combination of supports, the weights vary as base-P digits.
    earlier, sizes, digits = 0, [], []
    for j, rel in enumerate(sp["rels"]):
        cands = sp["cands"][rel]
        n = len(cands)
        attrs = found["schema"][rel]
        entries = sorted((tuple(str(e["tuple"][a]) for a in attrs), str(e["weight"]))
                         for e in found["relations"].get(rel, []))
        idx = [cands.index(row) for row, _ in entries]
        k = len(idx)
        lex, prev = 0, -1  # rank of the support among the k-subsets
        for i, c in enumerate(idx):
            lex += sum(math.comb(n - x - 1, k - i - 1) for x in range(prev + 1, c))
            prev = c
        before = sum(per_size(n)[:k]) + lex * P ** k  # weighted supports before it
        earlier += before * math.prod(P ** s for s in sizes) * math.prod(totals[j + 1:])
        sizes.append(k)
        digits += [sp["pool"].index(w) for _, w in entries]
    rank = 0
    for d in digits:
        rank = rank * P + d
    return earlier + rank + 1
