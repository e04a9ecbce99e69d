"""Traced-run harness: spans and counters recorded from outside kindb.

``Tracer.install`` replaces each traced public function with a wrapper in
every kindb module that binds it (``entail`` binds ``saturate``,
``plus_chase`` and ``satisfies`` by name, ``cli`` and ``oracle`` bind theirs
the same way), so every call into a layer is seen whichever module makes it.
Spans are kept in memory as ``(name, start, end, parent, op)`` and written
out at the end.  The monoid methods ``add``, ``leq`` and ``check`` get plain
call counters instead of spans: they run millions of times per scan.

Per-element helpers (``format_ind``, ``project_permute``, ``transitivity``
and the like) are deliberately not traced: a span per call would cost more
than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from statistics import mean

import kindb
import kindb.monoid

# The layer entry points, by module.
TRACED = {
    "monoid": ["parse_monoid", "table_from_dict"],
    "kdb": ["load_database", "load_database_file", "make_database", "marginalize",
            "dump_database", "db_add", "is_balanced", "support"],
    "ind": ["parse_ind", "parse_ind_list", "load_ind_file", "infer_schema", "satisfies"],
    "infer": ["saturate", "derives", "check_proof", "proof_to_json"],
    "chase": ["plus_chase", "classical_chase", "canonical_start_classical",
              "canonical_start_plus", "replay", "trace_to_json"],
    "entail": ["decide_entailment", "balance_instances", "build_countermodel_wc",
               "build_countermodel_ca", "build_countermodel_wa_case1",
               "build_countermodel_wa_case2"],
    "oracle": ["brute_force_entails", "brute_force_balanced_entails"],
    "cli": ["main"],
}
COUNTED_METHODS = ("add", "leq", "check")
OP = "op"


def kindb_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kindb" or name.startswith("kindb."))]


def clear_caches() -> None:
    """Empty every functools cache in kindb, so each pass starts as a fresh
    interpreter would."""
    for mod in kindb_modules():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _monoid_classes() -> list[type]:
    base = kindb.monoid.MonoidSpec
    return [c for c in vars(kindb.monoid).values()
            if isinstance(c, type) and issubclass(c, base)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.counts: Counter = Counter()
        self.calls = [0] * len(COUNTED_METHODS)
        self.closure_sizes: list[int] = []
        self.plus_inputs: list[tuple] = []
        self.ops_with: dict[str, set] = {}
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = kindb_modules()
        for short, names in TRACED.items():
            home = sys.modules.get(f"kindb.{short}")
            for fname in names:
                f = getattr(home, fname, None)
                if f is None:
                    continue
                wrapper = self._span(f"{short}.{fname}", f, getattr(self, f"_after_{fname}", None))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is f:
                            self._patch(mod, attr, wrapper)
        for cls in _monoid_classes():
            for slot, meth in enumerate(COUNTED_METHODS):
                if meth in vars(cls):
                    self._patch(cls, meth, self._counter(slot, vars(cls)[meth]))
            if "classify" in vars(cls):
                self._patch(cls, "classify", self._span("monoid.classify", vars(cls)["classify"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr) if isinstance(owner, type)
                              else vars(owner)[attr]))
        setattr(owner, attr, value)

    def _span(self, name, f, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if not self.active:
                return f(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, slot, f):
        calls = self.calls

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[slot] += 1
            return f(*args, **kwargs)
        return wrapper

    # -- per-op brackets ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.spans.append([OP, 0.0, 0.0, -1, op])
        self.stack.append(len(self.spans) - 1)
        self.active = True
        self.spans[-1][1] = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        self.active = False
        self.spans[self.stack.pop()][2] = end

    def _mark(self, key: str) -> None:
        self.ops_with.setdefault(key, set()).add(self.op)

    # -- result hooks: counts taken where the work happens -----------------------------

    def _after_saturate(self, args, kwargs, result):
        self.closure_sizes.append(len(result))
        self._mark("closure")

    def _after_derives(self, args, kwargs, result):
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        if not (tau.lhs_rel == tau.rhs_rel and tau.lhs_attrs == tau.rhs_attrs):
            self.counts["derives_nonreflexive"] += 1
            self._mark("closure")

    def _after_plus_chase(self, args, kwargs, result):
        self.counts["chase.plus_steps"] += len(result.steps)
        self.plus_inputs.append((args[0], args[1] if len(args) > 1 else kwargs["sigma"]))
        self._mark("plus")

    def _after_classical_chase(self, args, kwargs, result):
        self.counts["chase.classical_steps"] += len(result[1].steps)

    def _after_decide_entailment(self, args, kwargs, result):
        self.counts[f"entail.method.{result.method}"] += 1
        self.counts["entail.entailed" if result.entailed else "entail.refuted"] += 1

    def _after_load_database(self, args, kwargs, result):
        obj = args[0] if args else kwargs["obj"]
        if isinstance(obj, dict):
            self.counts["kdb.rows_loaded"] += sum(len(rows) for rows in
                                                  (obj.get("relations") or {}).values())

    def _after_marginalize(self, args, kwargs, result):
        self.counts["kdb.marginalize_rows"] += len(args[0].weights)

    # -- derived metrics ------------------------------------------------------------------

    def metrics(self, op_counts: Counter) -> dict:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        calls, total, self_time = Counter(), Counter(), Counter()
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] += 1
            self_time[name] += dur[i] - child[i]
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of this name
                total[name] += dur[i]
        countermodel_s = sum(t for n, t in total.items()
                             if n.startswith("entail.build_countermodel"))
        scan_s = total["oracle.brute_force_entails"] + total["oracle.brute_force_balanced_entails"]
        add, leq, check = self.calls
        closure_ops = len(self.ops_with.get("closure", ()))
        plus_ops = len(self.ops_with.get("plus", ()))
        c = self.counts
        out = {
            "monoid.add_calls": add, "monoid.leq_calls": leq, "monoid.check_calls": check,
            "monoid.checks_per_op": check / (add + leq) if add + leq else 0.0,
            "monoid.classify_calls": calls["monoid.classify"],
            "monoid.classify_s": total["monoid.classify"],
            "kdb.load_s": total["kdb.load_database"],
            "kdb.rows_loaded": c["kdb.rows_loaded"],
            "kdb.marginalize_s": total["kdb.marginalize"],
            "kdb.marginalize_rows": c["kdb.marginalize_rows"],
            "kdb.make_database_calls": calls["kdb.make_database"],
            "kdb.make_database_s": total["kdb.make_database"],
            "ind.satisfies_calls": calls["ind.satisfies"],
            "ind.satisfies_s": total["ind.satisfies"],
            "infer.saturate_calls": calls["infer.saturate"],
            "infer.saturate_s": total["infer.saturate"],
            "infer.derives_calls": calls["infer.derives"],
            "infer.derives_s": total["infer.derives"],
            "infer.check_proof_s": total["infer.check_proof"],
            "infer.closure_size.mean": mean(self.closure_sizes) if self.closure_sizes else 0.0,
            "infer.closure_size.max": max(self.closure_sizes, default=0),
            "infer.closures_per_query": ((calls["infer.saturate"] + c["derives_nonreflexive"])
                                         / closure_ops if closure_ops else 0.0),
            "chase.plus_calls": calls["chase.plus_chase"],
            "chase.plus_s": total["chase.plus_chase"],
            "chase.plus_steps": c["chase.plus_steps"],
            "chase.plus_pairs": sum(_plus_pairs(db, sigma) for db, sigma in self.plus_inputs),
            "chase.plus_calls_per_query": (calls["chase.plus_chase"] / plus_ops
                                           if plus_ops else 0.0),
            "chase.classical_calls": calls["chase.classical_chase"],
            "chase.classical_s": total["chase.classical_chase"],
            "chase.classical_steps": c["chase.classical_steps"],
            "entail.decide_calls": calls["entail.decide_entailment"],
            "entail.decide_s": total["entail.decide_entailment"],
            "entail.self_s": self_time["entail.decide_entailment"],
            "entail.countermodel_s": countermodel_s,
            "entail.method.plus_chase": c["entail.method.plus_chase"],
            "entail.method.classical_chase": c["entail.method.classical_chase"],
            "entail.method.balanced_augmentation": c["entail.method.balanced_augmentation"],
            "entail.entailed": c["entail.entailed"],
            "entail.refuted": c["entail.refuted"],
            "oracle.scan_s": scan_s,
            "oracle.candidates": op_counts["oracle.candidates"],
            "oracle.candidates_per_s": op_counts["oracle.candidates"] / scan_s if scan_s else 0.0,
            "oracle.found": op_counts["oracle.found"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_time["cli.main"],
            "cli.output_bytes": op_counts["cli.output_bytes"],
            "trace.unattributed_s": self_time[OP],
        }
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": names, "spans": rows}, fh)


def _plus_pairs(db, sigma) -> int:
    """(dependency, witness) pairs the additive chase sweeps: the sum over
    the distinct chased dependencies of (|adom| + 1) ** arity."""
    consts = set()
    for rows in kindb.kdb.dump_database(db)["relations"].values():
        for entry in rows:
            consts.update(entry["tuple"].values())
    consts.discard("*")
    return sum((len(consts) + 1) ** len(s.lhs_attrs) for s in set(sigma))
