"""Regenerate ``expected/<workload>.json`` from the kindb in ``src``.

    python3 perfbench/gen_expected.py [workload ...]

Every pool input is answered once and its certificate checked.  Two further
cross-checks run here only: small ``entail-mix`` queries go to the bounded
oracle (an entailed verdict must have no counterexample in the searched
space), and every ``check-repair`` check result is recomputed with the
benchmark's own marginal code.  Any disagreement aborts the generation.
Expected files are made once and committed; a later run that disagrees with
them counts the operation as failed.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import certify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import kindb.errors  # noqa: E402
import kindb.ind  # noqa: E402
import kindb.monoid  # noqa: E402
import kindb.oracle  # noqa: E402

ORACLE_POOLS = {"boolean": ["1"], "naturals": ["1", "2"], "max_naturals": ["1", "2"],
                "nonneg_rationals": ["1/2", "1"]}
ORACLE_CAP = 20_000


def oracle_scan(item: dict):
    """None when the query is too large to scan; else the counterexample the
    bounded oracle finds, or False when it finds none."""
    m = kindb.monoid.parse_monoid(item["monoid"])
    pool = ORACLE_POOLS.get(item["monoid"]) if isinstance(item["monoid"], str) else None
    if pool is None:
        pool = [e for e in m.elements() if e != m.zero][:2]
    search = (kindb.oracle.brute_force_balanced_entails if item["balanced"]
              else kindb.oracle.brute_force_entails)
    try:
        found = search({kindb.ind.parse_ind(t) for t in item["sigma"]},
                       kindb.ind.parse_ind(item["tau"]), m, adom=["x", "y"],
                       weight_pool=[m.parse_element(str(w)) for w in pool],
                       max_tuples=2, max_candidates=ORACLE_CAP)
    except kindb.errors.SearchSpaceTooLarge:
        return None
    return found or False


def generate(name: str) -> dict:
    w = WORKLOADS[name]
    items = {i: w.item(i) for i in range(w.pool_size())}
    answers, notes = [], {"oracle_scanned": 0, "oracle_counterexamples": 0,
                          "own_marginal_checks": 0}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        w.prepare(items, Path(tmp))
        for i in range(w.pool_size()):
            item = items[i]
            answer, _, problems, _ = w.check(item, w.run(item))
            if problems:
                raise SystemExit(f"{name} input {i}: {'; '.join(problems)}")
            if name == "entail-mix" and item["kind"] == "entail":
                found = oracle_scan(item)
                if found and answer[0] == "entailed":
                    raise SystemExit(f"{name} input {i}: oracle finds a counterexample "
                                     f"to an entailed verdict")
                if found is not None:
                    notes["oracle_scanned"] += 1
                    notes["oracle_counterexamples"] += bool(found)
            if name == "check-repair" and item["kind"] == "check":
                with open(item["path"], encoding="utf-8") as fh:
                    db = json.load(fh)
                arith = certify.Arith(db["monoid"])
                own = {s: certify.holds(db, s, arith) for s in item["sigma"]}
                if own != answer[0]:
                    raise SystemExit(f"{name} input {i}: own marginals give {own}")
                notes["own_marginal_checks"] += 1
            answers.append(json.loads(json.dumps(answer)))
    tally: dict[str, int] = {}
    for a in answers:
        key = str(a[0]) if not isinstance(a[0], dict) else str(all(a[0].values()))
        tally[key] = tally.get(key, 0) + 1
    return {"workload": name, "pool": w.pool_size(), "tally": tally,
            "cross_checks": notes, "answers": answers}


def main() -> None:
    for name in sys.argv[1:] or list(WORKLOADS):
        start = time.perf_counter()
        doc = generate(name)
        with open(HERE / "expected" / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {doc['pool']} inputs, {doc['tally']}, {doc['cross_checks']}, "
              f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
