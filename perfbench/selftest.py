"""Self-test of the benchmark, at reduced size.

    python3 perfbench/selftest.py

Checks that a short run of every workload emits each metric named in
BENCHMARK.json with its unit and no failures, that traced counts repeat
exactly for a seed, and that the answer checks bite: a tampered expected
answer and, separately, a tampered countermodel weight must each make the
error rate nonzero.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import math
import random
import sys

import run

SEED = 7
LIMITS = {"entail-mix": 40, "oracle-scan": 12, "check-repair": 8}
TRACED_LIMIT = 4
EXACT = {"oracle.candidates", "oracle.found", "chase.plus_pairs", "infer.closures_per_query",
         "entail.entailed", "entail.refuted", "kdb.rows_loaded", "kdb.marginalize_rows"}


def is_count(name: str) -> bool:
    return (name in EXACT or name.endswith(("_calls", "_steps"))
            or name.startswith("entail.method."))


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def metrics_match(result: dict, declared: list[dict], what: str) -> None:
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in declared}, f"{what}: every metric present")
    for m in declared:
        value = got[m["name"]]
        expect(value["unit"] == m["unit"] and isinstance(value["value"], (int, float))
               and math.isfinite(value["value"]), f"{what}: {m['name']} [{m['unit']}]")


def main() -> None:
    spec = run.load_benchmark_spec()
    sys.path.insert(0, str(run.ROOT / "src"))
    run.import_kindb()
    from workloads import WORKLOADS

    for name, limit in LIMITS.items():
        result, _ = run.run_workload(name, SEED, 0.1, False, limit=limit)
        expect(result["correct"] and result["failed"] == 0, f"{name}: answers check")
        metrics_match(result, spec["end_to_end"], name)
        first, _ = run.run_workload(name, SEED, 0.1, True, limit=TRACED_LIMIT)
        again, _ = run.run_workload(name, SEED, 0.1, True, limit=TRACED_LIMIT)
        metrics_match(first, spec["per_layer"], f"{name} traced")
        counts = [k for k in first["metrics"] if is_count(k)]
        expect(all(first["metrics"][k] == again["metrics"][k] for k in counts),
               f"{name} traced: {len(counts)} counts repeat exactly")

    # a tampered expected answer for the first operation of the run
    original = run.load_expected
    first_op = WORKLOADS["entail-mix"].run_set(random.Random(SEED))[0]

    def tampered_expected(name):
        answers = original(name)
        answers[first_op] = ["tampered"]
        return answers

    run.load_expected = tampered_expected
    try:
        result, _ = run.run_workload("entail-mix", SEED, 0.1, False, limit=LIMITS["entail-mix"])
    finally:
        run.load_expected = original
    expect(result["failed"] == 1 and not result["correct"],
           "a tampered expected answer fails its operation")

    # a tampered countermodel: the query's left relation loses its weight
    import kindb.kdb

    def zero_lhs(item, raw):
        if item["kind"] != "entail" or raw.entailed:
            return raw
        doc = kindb.kdb.dump_database(raw.countermodel.database)
        for row in doc["relations"][item["tau"].split("[", 1)[0]]:
            row["weight"] = "0"
        raw.countermodel.database = kindb.kdb.load_database(doc, allow_star=True)
        return raw

    ops = WORKLOADS["entail-mix"].run_set(random.Random(SEED))[:LIMITS["entail-mix"]]
    refuted = sum(original("entail-mix")[i][0] == "refuted" for i in ops)
    result, _ = run.run_workload("entail-mix", SEED, 0.1, False,
                                 limit=LIMITS["entail-mix"], tamper=zero_lhs)
    expect(refuted > 0 and result["failed"] == refuted and not result["correct"],
           f"tampered countermodel weights fail all {refuted} refuted operations")


if __name__ == "__main__":
    main()
