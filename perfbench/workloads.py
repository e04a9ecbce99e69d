"""The benchmark workloads.

Each workload owns a fixed pool of inputs.  Input ``i`` is a pure function of
``(workload, i)``, so the expected answers in ``expected/<workload>.json``
hold for every run.  Every round of a run visits the whole pool, in an order
the run seed sets; kindb only ever sees the generated inputs.

For one input, ``item(i)`` builds it, ``prepare`` writes any files it
needs, ``run`` is the timed operation, and ``check`` (never timed) turns the
raw result into the answer recorded in the expected file, its polarity (a
yes or a no), the problems the certificate checker found, and per-op counts
for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import certify

import kindb.cli
import kindb.entail
import kindb.ind
import kindb.infer
import kindb.monoid

# Three finite tables, all weakly absorptive like every finite positive monoid.
TABLES = [
    {"elements": ["0", "a", "b"], "zero": "0",
     "op": {"0,0": "0", "0,a": "a", "0,b": "b", "a,a": "a", "a,b": "b", "b,b": "b"}},
    {"elements": ["0", "1", "2", "3"], "zero": "0",
     "op": {f"{x},{y}": str(min(x + y, 3)) for x in range(4) for y in range(x, 4)}},
    {"elements": ["0", "p", "q", "t"], "zero": "0",
     "op": {"0,0": "0", "0,p": "p", "0,q": "q", "0,t": "t", "p,p": "p", "q,q": "q",
            "t,t": "t", "p,q": "t", "p,t": "t", "q,t": "t"}},
]
WC_BUILTINS = {"naturals", "nonneg_rationals"}


def _capture(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kindb.cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    traced_ops = 0   # ops in each pass of the traced run
    round_s = 1.0    # seconds one round took at the commit that added the benchmark

    def pool_size(self) -> int:
        raise NotImplementedError

    def run_set(self, rng: random.Random) -> list[int]:
        """The order in which the first round visits the pool."""
        order = list(range(self.pool_size()))
        rng.shuffle(order)
        return order

    def item(self, i: int) -> dict:
        raise NotImplementedError

    def prepare(self, items: dict, workdir: Path) -> None:
        """Write the input files the items refer to."""

    def run(self, item: dict):
        raise NotImplementedError

    def check(self, item: dict, raw) -> tuple:
        """(answer, polarity, problems, counts) for one raw result."""
        raise NotImplementedError


# -- entail-mix -------------------------------------------------------------------

class EntailMix(Workload):
    """Many small and medium queries, as an interactive user sends them."""

    name = "entail-mix"
    traced_ops = 1000
    round_s = 2.0
    POOL = 1000
    RELS = "RSTUV"
    ATTRS = ["ABC", "DEF", "GHI", "JKL", "MNO"]

    def pool_size(self):
        return self.POOL

    def _ind(self, rng, arity, lhs=None, rhs=None, k=None):
        lhs = lhs or rng.choice(list(arity))
        rhs = rhs or rng.choice(list(arity))
        top = min(arity[lhs], arity[rhs])
        k = rng.choice([0] + [1, 1, 2, 2, 3][:2 * top]) if k is None else min(k, top)
        la = rng.sample(self.ATTRS[self.RELS.index(lhs)][:arity[lhs]], k)
        ra = rng.sample(self.ATTRS[self.RELS.index(rhs)][:arity[rhs]], k)
        return certify.ind_text(lhs, la, rhs, ra)

    def item(self, i):
        rng = random.Random(f"{self.name}:{i}")
        rels = self.RELS[:rng.randint(2, 5)]
        arity = {r: rng.randint(1, 3) for r in rels}
        sigma = sorted({self._ind(rng, arity) for _ in range(rng.randint(1, 6))})
        tau = self._tau(rng, arity, sigma)
        kind = "derive" if rng.random() < 0.15 else "entail"
        out = {"kind": kind, "sigma": sigma, "tau": tau}
        if kind == "derive":
            out["system"] = rng.choice(["standard", "ws", "balance"])
            out["balanced"] = out["system"] == "balance"
            out["wa"] = out["system"] == "standard"
            return out
        roll = rng.random()
        if roll < 0.05:
            monoid = f"monogenic:{rng.randint(1, 14)},{rng.randint(1, 10)}"
        elif roll < 0.15:
            monoid = rng.choice(TABLES)
        else:
            monoid = rng.choice(["boolean", "naturals", "nonneg_rationals", "max_naturals"])
        out["monoid"] = monoid
        out["balanced"] = rng.random() < 0.25
        out["wa"] = not (isinstance(monoid, str) and monoid in WC_BUILTINS)
        return out

    def _tau(self, rng, arity, sigma):
        """A query that is derivable about half the time."""
        roll = rng.random()
        s = certify.parse_ind_text(rng.choice(sigma))
        if roll < 0.3 or not s[1]:
            return self._ind(rng, arity, k=rng.choice([1, 1, 2, 3]))
        lrel, la, rrel, ra = s
        if roll < 0.55:  # a projection and permutation of an assumption
            pos = rng.sample(range(len(la)), rng.randint(1, len(la)))
            return certify.ind_text(lrel, [la[p] for p in pos], rrel, [ra[p] for p in pos])
        if roll < 0.75:  # a composition with a second assumption
            for t in rng.sample(sigma, len(sigma)):
                l2, la2, r2, ra2 = certify.parse_ind_text(t)
                if l2 == rrel:
                    step = dict(zip(la2, ra2))
                    pairs = [(a, step[b]) for a, b in zip(la, ra) if b in step]
                    if pairs:
                        return certify.ind_text(lrel, [a for a, _ in pairs], r2,
                                                [b for _, b in pairs])
            return certify.ind_text(lrel, la, rrel, ra)
        if roll < 0.9:  # the inverse of an assumption
            return certify.ind_text(rrel, ra, lrel, la)
        return certify.ind_text(rrel, [], lrel, [])

    def run(self, item):
        sigma = {kindb.ind.parse_ind(t) for t in item["sigma"]}
        tau = kindb.ind.parse_ind(item["tau"])
        if item["kind"] == "entail":
            m = kindb.monoid.parse_monoid(item["monoid"])
            return kindb.entail.decide_entailment(sigma, tau, m, balanced=item["balanced"])
        schema = kindb.ind.infer_schema(sorted(sigma | {tau}, key=kindb.ind.format_ind))
        return kindb.infer.derives(sigma, tau, kindb.infer.RuleSystem(item["system"]), schema)

    def check(self, item, raw):
        if item["kind"] == "entail":
            positive, proof = raw.entailed, raw.proof
            answer = ["entailed" if positive else "refuted", raw.method]
        else:
            positive, proof = raw
            answer = ["derivable" if positive else "underivable", item["system"]]
        if positive:
            answer.append("proof")
            problems = certify.proof_problems(proof, item["sigma"], item["tau"],
                                              item["balanced"], item["wa"],
                                              kindb.infer.check_proof, kindb.ind.IND)
        elif item["kind"] == "entail":
            cm = raw.to_json()["countermodel"]
            answer.append(cm["construction"])
            problems = certify.countermodel_problems(
                cm["database"], item["sigma"], item["tau"],
                certify.Arith(cm["database"]["monoid"]), item["balanced"])
        else:
            problems = []
        return answer, positive, problems, {}


# -- oracle-scan -------------------------------------------------------------------

class OracleScan(Workload):
    """Bounded falsifier scans through ``kindb oracle``.  Most pairs are
    entailed, so the scan walks its whole space; the refuted ones have their
    least counterexample late in the enumeration order."""

    name = "oracle-scan"
    round_s = 0.95
    # Each scan is (monoid, assumptions, query, balanced, layout).  A layout
    # fixes the relations, the number of constants and the most rows per
    # relation for each monoid.  The "wide" layout R[A,B], S[C,D,E] over
    # {x,y} has 4,257 candidate databases over naturals (two weights, two
    # rows) and 1,395 over rationals and boolean (one weight, three rows);
    # the "cycle" layout R[A,B], S[C] over {x,y,z} has 22,545 over naturals
    # and 1,040 over rationals, and its refuted query needs a three-row cycle
    # in R, which puts the least counterexample 61 % of the way through.
    # Scans are kept short so that every one is timed many times in a run.
    LAYOUTS = {"wide": (["S[C,D,E] <= S[C,D,E]"], 2,
                        {"naturals": 2, "nonneg_rationals": 3, "boolean": 3}),
               "cycle": (["S[C] <= S[C]"], 3,
                         {"naturals": 3, "nonneg_rationals": 3, "boolean": 3})}
    POOLS = {"naturals": ["0", "1", "2"], "nonneg_rationals": ["1/2"], "boolean": ["1"]}
    SCANS = [
        ("naturals", ["R[B,A] <= S[C,D]", "S[D,E] <= R[A,B]"], "R[] <= S[]", False, "wide"),
        ("naturals", ["R[A,B] <= S[C,D]", "S[E] <= R[A]"], "S[C] <= R[A]", True, "wide"),
        ("naturals", ["R[A] <= R[B]"], "R[A,B] <= R[B,A]", False, "wide"),
        ("nonneg_rationals", ["R[B,A] <= S[C,D]"], "R[B] <= S[C]", False, "wide"),
        ("nonneg_rationals", ["R[A,B] <= S[C,D]", "S[D,E] <= R[A,B]"], "R[] <= S[]", False,
         "wide"),
        ("nonneg_rationals", ["R[B,A] <= S[C,D]", "R[B] <= S[E]"], "R[B] <= S[C]", True, "wide"),
        ("boolean", ["R[A,B] <= S[C,D]", "R[] <= S[]"], "R[] <= S[]", False, "wide"),
        ("boolean", ["R[A] <= R[B]"], "R[A] <= R[B]", True, "wide"),
        # refuted
        ("naturals", ["R[A] <= R[B]"], "R[A,B] <= R[B,A]", False, "cycle"),
        ("naturals", ["R[B] <= R[A]"], "R[A,B] <= R[B,A]", False, "cycle"),
        ("nonneg_rationals", ["R[A] <= R[B]"], "R[A,B] <= R[B,A]", False, "cycle"),
        ("naturals", ["R[A] <= R[B]"], "R[A,B] <= R[B,A]", True, "cycle"),
        ("boolean", ["R[A] <= R[B]", "R[B] <= R[A]"], "R[A,B] <= R[B,A]", False, "wide"),
    ]

    # Each scan runs over two namings of its constants; both keep the
    # constants' order, so the enumeration and its counts are the same.
    NAMINGS = [["x", "y", "z"], ["p", "q", "r"]]
    traced_ops = 13

    def pool_size(self):
        return len(self.SCANS) * len(self.NAMINGS)

    def item(self, i):
        monoid, sigma, tau, balanced, layout = self.SCANS[i % len(self.SCANS)]
        fixed, constants, max_tuples = self.LAYOUTS[layout]
        return {"config": {"monoid": monoid, "sigma": sorted(set(sigma + fixed)),
                           "tau": tau, "adom": self.NAMINGS[i // len(self.SCANS)][:constants],
                           "weight_pool": self.POOLS[monoid],
                           "max_tuples": max_tuples[monoid],
                           "balanced": balanced, "max_candidates": 10 ** 7}}

    def prepare(self, items, workdir):
        for i, item in items.items():
            path = workdir / f"scan{i}.json"
            path.write_text(json.dumps(item["config"]))
            item["path"] = str(path)

    def run(self, item):
        return _capture(["oracle", item["path"]])

    def check(self, item, raw):
        code, out = raw
        cfg = item["config"]
        found = json.loads(out)["counterexample"]
        db = found["database"] if found else None
        candidates = certify.oracle_candidates(cfg, db)
        problems = [] if code == (1 if found else 0) else [f"exit code {code}"]
        if db is not None:
            problems += certify.countermodel_problems(
                db, cfg["sigma"], cfg["tau"], certify.Arith(cfg["monoid"]), cfg["balanced"])
        answer = ["found" if found else "none", candidates]
        return answer, not found, problems, {"oracle.candidates": candidates,
                                             "oracle.found": int(bool(found)),
                                             "cli.output_bytes": len(out.encode())}


# -- check-repair ------------------------------------------------------------------

class CheckRepair(Workload):
    """``kindb check`` over large budget-shaped databases interleaved with
    ``kindb chase --plus --json`` repairs of small ones that violate their
    dependencies."""

    name = "check-repair"
    round_s = 1.3
    SCHEMA = {"Expense": ["proj", "type", "year"], "Budget": ["proj", "year"],
              "Grant": ["proj"]}
    CHECK_SIGMA = ["Expense[proj,year] <= Budget[proj,year]", "Budget[proj] <= Grant[proj]",
                   "Expense[proj] <= Grant[proj]"]
    REPAIR_SIGMA = CHECK_SIGMA[:2]
    # (kind, monoid, violating) per class; each class has VARIANTS inputs
    CLASSES = [("check", "naturals", False), ("check", "naturals", True),
               ("check", "naturals", False), ("check", "naturals", True),
               ("check", "nonneg_rationals", False), ("check", "nonneg_rationals", True),
               ("chase", "naturals", True), ("chase", "nonneg_rationals", True)]
    VARIANTS = 3
    CHECK_SIZE = (80, 8, 5)    # projects, types, years: 3,200 expense rows
    REPAIR_SIZE = (10, 4, 3)

    traced_ops = 8

    def pool_size(self):
        return len(self.CLASSES) * self.VARIANTS

    def item(self, i):
        kind, monoid, violating = self.CLASSES[i // self.VARIANTS]
        return {"kind": kind, "monoid": monoid, "violating": violating,
                "sigma": self.CHECK_SIGMA if kind == "check" else self.REPAIR_SIGMA,
                "seed": f"{self.name}:{i}"}

    def _database(self, item) -> dict:
        rng = random.Random(item["seed"])
        projects, types, years = self.CHECK_SIZE if item["kind"] == "check" else self.REPAIR_SIZE
        rational = item["monoid"] == "nonneg_rationals"
        weight = ((lambda: Fraction(rng.randint(1, 4000), rng.choice([1, 2, 4, 5, 10])))
                  if rational else (lambda: rng.randint(1, 4000)))
        fmt = certify.Arith(item["monoid"]).fmt
        rel = {"Expense": [], "Budget": [], "Grant": []}
        # a violating check database breaks a few points, a repair input many
        breaks = 0.002 if item["kind"] == "check" else 0.4
        for p in range(projects):
            proj = f"P{p:04d}"
            grant = 0
            for y in range(years):
                year = str(2020 + y)
                spent = 0
                for t in range(types):
                    w = weight()
                    spent += w
                    rel["Expense"].append({"tuple": {"proj": proj, "type": f"T{t}", "year": year},
                                           "weight": fmt(w)})
                budget = spent + weight()
                if item["violating"] and (rng.random() < breaks or p == y == 0):
                    budget = spent / 2 if rational else spent // 2
                if budget:
                    rel["Budget"].append({"tuple": {"proj": proj, "year": year},
                                          "weight": fmt(budget)})
                grant += budget
            if item["violating"] and rng.random() < breaks:
                grant = grant / 2 if rational else grant // 2
            else:
                grant += weight()
            rel["Grant"].append({"tuple": {"proj": proj}, "weight": fmt(grant)})
        return {"monoid": item["monoid"], "schema": self.SCHEMA, "relations": rel}

    def prepare(self, items, workdir):
        for name, sigma in (("check", self.CHECK_SIGMA), ("repair", self.REPAIR_SIGMA)):
            (workdir / f"{name}.inds").write_text("\n".join(sigma) + "\n")
        for i, item in items.items():
            path = workdir / f"db{i}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self._database(item), fh)
            item["path"] = str(path)
            item["inds"] = str(workdir / ("check.inds" if item["kind"] == "check"
                                          else "repair.inds"))

    def run(self, item):
        if item["kind"] == "check":
            return _capture(["check", item["path"], item["inds"], "--json"])
        return _capture(["chase", item["path"], item["inds"], "--plus", "--json"])

    def check(self, item, raw):
        code, out = raw
        doc = json.loads(out)
        counts = {"cli.output_bytes": len(out.encode())}
        if item["kind"] == "check":
            results = doc["results"]
            ok = all(results.values())
            problems = [] if code == (0 if ok else 1) else [f"exit code {code}"]
            return [results], ok, problems, counts
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += certify.trace_problems(doc, item["sigma"], certify.Arith(item["monoid"]))
        return [doc["outcome"], len(doc["steps"])], None, problems, counts


WORKLOADS = {w.name: w for w in (EntailMix(), OracleScan(), CheckRepair())}
