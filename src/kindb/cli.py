"""Command-line front end.

Subcommands: ``check`` (dependency satisfaction against a database file),
``entail`` (dichotomy-based entailment with proof or countermodel),
``chase`` (classical or additive chase with optional trace output),
``classify`` (monoid property report), and ``oracle`` (bounded brute-force
search from a JSON configuration).

Exit codes: 0 yes / success, 1 no (violation found, not entailed, or a
counterexample exists), 2 input error, 3 step budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .chase import (
    ChaseConfig,
    OUTCOME_TERMINATED,
    canonical_start,
    classical_chase,
    plus_chase,
    trace_to_json,
)
from .entail import decide_entailment
from .errors import ChaseBudgetExceeded, ElementError, KindbError, ParseError
from .ind import format_ind, load_ind_file, parse_ind, query_schema, satisfies_all
from .infer import RuleSystem, derives, proof_to_json, proof_to_text
from .kdb import KDatabase, load_database_file, parse_json, read_file
from .monoid import BOOLEAN, NATURALS, parse_monoid
from .oracle import MAX_CANDIDATES, brute_force_entails

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

STEP_ROWS = 40  # chase steps listed in plain-text output


def _json_text(payload: dict) -> str:
    """Every JSON document kindb prints or writes: one line, keys sorted.
    Without indentation ``json.dumps`` runs on the C encoder."""
    return json.dumps(payload, sort_keys=True)


def _load_monoid_arg(spec: str):
    if spec.endswith(".json"):
        return read_file(spec, lambda text: parse_monoid(parse_json(text)))
    return parse_monoid(spec)


def format_database(db: KDatabase) -> str:
    """Plain-text rendering, one aligned table per relation."""
    blocks = []
    for rel in sorted(db.relations):
        kr = db.relations[rel]
        header = list(kr.attributes) + ["#"]
        rows = [list(row) + [db.monoid.format_element(w)]
                for row, w in sorted(kr.weights.items())]
        widths = [max(len(str(cell)) for cell in col)
                  for col in zip(*([header] + rows))] if rows else [len(h) for h in header]
        lines = [rel]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def format_steps(trace) -> str:
    """One row per chase step, in the order applied, up to ``STEP_ROWS``."""
    m = trace.start.monoid
    rows = []
    for step in trace.steps[:STEP_ROWS]:
        delta = "" if step.delta is None else f" +{m.format_element(step.delta)}"
        rows.append(f"  {step.sigma.rhs_rel}({', '.join(step.incremented)}){delta}"
                    f"   by {format_ind(step.sigma)} at ({', '.join(step.witness)})")
    if len(trace.steps) > STEP_ROWS:
        rows.append(f"  ... {len(trace.steps) - STEP_ROWS} further steps")
    return "\n".join(rows)


def cmd_check(args) -> int:
    db = load_database_file(args.database)
    sigmas = load_ind_file(args.inds, db.schema)
    results = dict(zip(map(format_ind, sigmas), satisfies_all(db, sigmas)))
    if args.json:
        print(_json_text({"results": results}))
    else:
        for text, ok in results.items():
            print(f"{'OK      ' if ok else 'VIOLATED'} {text}")
    return EXIT_YES if all(results.values()) else EXIT_NO


def cmd_entail(args) -> int:
    sigma = set(load_ind_file(args.sigma))
    tau = parse_ind(args.tau)
    if args.system is not None:
        # syntactic mode: decide derivability in the requested rule system
        schema = query_schema(sigma, tau)
        ok, proof = derives(sigma, tau, RuleSystem(args.system), schema)
        payload = {"derivable": ok, "system": args.system}
        if proof is not None:
            payload["proof"] = proof_to_json(proof)
        print(_json_text(payload))
        return EXIT_YES if ok else EXIT_NO
    m = _load_monoid_arg(args.monoid)
    verdict = decide_entailment(sigma, tau, m, balanced=args.balanced,
                                config=ChaseConfig(step_limit=args.step_limit))
    print(_json_text(verdict.to_json()))
    if not args.json and verdict.proof is not None:
        print(proof_to_text(verdict.proof), file=sys.stderr)
    return EXIT_YES if verdict.entailed else EXIT_NO


def cmd_chase(args) -> int:
    sigma = load_ind_file(args.sigma)
    if args.start.startswith("canonical:"):
        tau = parse_ind(args.start[len("canonical:"):])
        schema = query_schema(sigma, tau)
        start = canonical_start(tau, schema, NATURALS if args.plus else BOOLEAN)
    else:
        start = load_database_file(args.start)
    if args.plus:
        trace = plus_chase(start, sigma, ChaseConfig(step_limit=args.step_limit))
    else:
        _, trace = classical_chase(start, sigma)
    # everything is formatted before anything is written, so a weight too
    # large to print leaves neither a partial trace file nor partial output
    doc = _json_text(trace_to_json(trace)) if args.json or args.trace_out else None
    if args.json:
        out = doc
    else:
        lines = [f"outcome: {trace.outcome} after {len(trace.steps)} steps"]
        if trace.steps:
            lines += [format_steps(trace), ""]
        out = "\n".join(lines + [format_database(trace.result)])
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    print(out)
    return EXIT_YES if trace.outcome == OUTCOME_TERMINATED else EXIT_BUDGET


def cmd_classify(args) -> int:
    m = _load_monoid_arg(args.monoid)
    report = m.classify()
    print(_json_text({"monoid": m.name, **report.as_dict()}))
    return EXIT_YES


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# the shape of each oracle config field: a check and what it expects
ORACLE_FIELDS = {
    "monoid": (lambda v: isinstance(v, (str, dict)), "a monoid name or an operation table"),
    "sigma": (_is_strings, "a list of dependency strings"),
    "tau": (lambda v: isinstance(v, str), "a dependency string"),
    "adom": (_is_strings, "a list of constant names"),
    "weight_pool": (lambda v: isinstance(v, list), "a list of weights"),
    "balanced": (lambda v: isinstance(v, bool), "true or false"),
}


def _oracle_search(text: str):
    """The counterexample found by the search an oracle config asks for, or None."""
    config = parse_json(text)
    if not isinstance(config, dict):
        raise ParseError("oracle config must be a JSON object")
    for name in ("monoid", "sigma", "tau", "adom", "weight_pool", "max_tuples"):
        if name not in config:
            raise ParseError(f"oracle config is missing {name!r}")
    for name, (valid, expected) in ORACLE_FIELDS.items():
        if name in config and not valid(config[name]):
            raise ParseError(f'oracle config field "{name}" must be {expected}')
    m = parse_monoid(config["monoid"])
    sigma = {parse_ind(t) for t in config["sigma"]}
    tau = parse_ind(config["tau"])
    try:
        pool = [m.parse_element(str(w)) for w in config["weight_pool"]]
    except ElementError as exc:
        raise ElementError(f"weight_pool: {exc}") from None
    return brute_force_entails(sigma, tau, m, adom=config["adom"], weight_pool=pool,
                               max_tuples=config["max_tuples"],
                               max_candidates=config.get("max_candidates", MAX_CANDIDATES),
                               balanced=config.get("balanced", False))


def cmd_oracle(args) -> int:
    found = read_file(args.config, _oracle_search)
    if found is None:
        print(_json_text({"counterexample": None}))
        return EXIT_YES
    print(_json_text({"counterexample": found.to_json()}))
    return EXIT_NO


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="kindb",
        description="Inclusion-dependency reasoning over monoid-annotated databases.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a dependency list against a database")
    p_check.add_argument("database", help="database JSON file")
    p_check.add_argument("inds", help="dependency list file")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_entail = sub.add_parser("entail", help="decide entailment")
    p_entail.add_argument("sigma", help="assumption list file")
    p_entail.add_argument("tau", help="query dependency text")
    p_entail.add_argument("--monoid", default="naturals")
    p_entail.add_argument("--balanced", action="store_true")
    p_entail.add_argument("--step-limit", type=int, default=ChaseConfig.step_limit)
    p_entail.add_argument("--system", choices=[system.value for system in RuleSystem],
                          help="decide pure derivability in this rule system instead")
    p_entail.add_argument("--json", action="store_true")
    p_entail.set_defaults(func=cmd_entail)

    p_chase = sub.add_parser("chase", help="run a chase")
    p_chase.add_argument("start", help="database JSON file or canonical:<dependency>")
    p_chase.add_argument("sigma", help="dependency list file")
    p_chase.add_argument("--plus", action="store_true", help="run the additive chase")
    p_chase.add_argument("--step-limit", type=int, default=ChaseConfig.step_limit)
    p_chase.add_argument("--trace-out", help="write the JSON trace here")
    p_chase.add_argument("--json", action="store_true")
    p_chase.set_defaults(func=cmd_chase)

    p_classify = sub.add_parser("classify", help="report monoid properties")
    p_classify.add_argument("monoid", help="builtin name, monogenic:m0,l, or table JSON file")
    p_classify.set_defaults(func=cmd_classify)

    p_oracle = sub.add_parser("oracle", help="bounded counterexample search")
    p_oracle.add_argument("config", help="search-space JSON configuration")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChaseBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (KindbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
