"""Time kindb on a fixed list of wide queries, each in its own process.

    python3 scripts/wide_queries.py

R has arity n and two full-arity assumptions that together generate every
permutation of its attributes: the cyclic shift R[A0..An-1] <= R[A1..An-1,A0]
and the swap of A0 and A1.  The refuted query R[A0..An-1] <= T[A0..An-1]
makes a search visit all n! orders of R's attributes before it fails; the
entailed query R[A0..An-1] <= R[An-1..A0] is found among them.  The inputs:

* ``derives`` at n = 7, 8 and 9: the refuted query under the standard rules
  and the entailed one with weak symmetry;
* ``decide_entailment`` at n = 7 and 8: both queries over boolean and over
  the naturals.

Each input runs in a fresh child process, one after another, so that each
peak memory figure is that input's alone.  One JSON line is printed per
input: the call, its answer (``ChaseBudgetExceeded`` when the additive chase
hit its step limit), the call's wall time in seconds and the child's peak
resident set (``ru_maxrss``) in MB.  On a two-core x86-64 VM under Python
3.11 the whole list takes about 15 s, and its widest input peaks at about
200 MB.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kindb.entail import decide_entailment  # noqa: E402
from kindb.errors import ChaseBudgetExceeded  # noqa: E402
from kindb.ind import IND, query_schema  # noqa: E402
from kindb.infer import RuleSystem, derives  # noqa: E402
from kindb.monoid import parse_monoid  # noqa: E402

# (call, rule system or monoid, query, n)
INPUTS = ([("derives", "standard", "refuted", n) for n in (7, 8, 9)]
          + [("derives", "ws", "entailed", n) for n in (7, 8, 9)]
          + [("decide_entailment", monoid, query, n) for n in (7, 8)
             for monoid in ("boolean", "naturals") for query in ("refuted", "entailed")])


def permutation_query(query: str, n: int) -> tuple[set[IND], IND]:
    """The cyclic shift and the swap of A0 and A1 on R, and the query."""
    attrs = tuple(f"A{i}" for i in range(n))
    sigma = {IND("R", attrs, "R", attrs[1:] + attrs[:1]),
             IND("R", attrs, "R", (attrs[1], attrs[0]) + attrs[2:])}
    tau = IND("R", attrs, "T", attrs) if query == "refuted" else IND("R", attrs, "R", attrs[::-1])
    return sigma, tau


def answer(call: str, setting: str, query: str, n: int) -> str:
    sigma, tau = permutation_query(query, n)
    if call == "derives":
        ok, _ = derives(sigma, tau, RuleSystem(setting), query_schema(sigma, tau))
        return "derivable" if ok else "underivable"
    try:
        verdict = decide_entailment(sigma, tau, parse_monoid(setting))
    except ChaseBudgetExceeded:
        return "ChaseBudgetExceeded"
    return "entailed" if verdict.entailed else "refuted"


def measure(spec: tuple, conn) -> None:
    """Run one input in this child process and send back what it measured."""
    start = time.perf_counter()
    result = answer(*spec)
    seconds = time.perf_counter() - start
    conn.send({"answer": result, "seconds": round(seconds, 3),
               "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)})


def main() -> int:
    spawn = multiprocessing.get_context("spawn")
    for spec in INPUTS:
        receive, send = spawn.Pipe(duplex=False)
        child = spawn.Process(target=measure, args=(spec, send))
        child.start()
        send.close()
        row = dict(zip(("call", "setting", "query", "n"), spec))
        try:
            row.update(receive.recv())
        except EOFError:  # the child died before it answered
            row["answer"] = "no answer"
        child.join()
        if child.exitcode:
            row["exitcode"] = child.exitcode
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
