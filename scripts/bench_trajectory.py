"""Record the benchmark's end-to-end metrics for one commit as BENCH_<n>.json.

    python3 scripts/bench_trajectory.py --out BENCH_23.json --seeds 1 2 3
    python3 scripts/bench_trajectory.py --out BENCH_23.json --seeds 1 2 3 \\
        --baseline ../parent-checkout
    python3 scripts/bench_trajectory.py --out BENCH_23.json --seeds 4 5 6 \\
        --baseline ../parent-checkout --workloads check-repair

Each workload named by ``--workloads`` (default: every workload in
BENCHMARK.json) runs once per seed through ``perfbench/run.py --seconds 30``
(untraced), one run at a time, from the root of this checkout.  The file
holds the commit measured (empty when the tracked files differ from HEAD, so
that no commit names these numbers), the commit the checkout stands on
(``on``) and, per workload, its seeds and, per metric, the median, the
quartiles and every run's value in seed order.  When the file already holds
runs of the same commits, interpreter and run length, the workloads not run
this time are kept, so one file can hold more seeds for some workloads than
for others.

With ``--baseline DIR`` every (workload, seed) also runs in the checkout at
DIR, the two sides alternating which goes first, and the file holds that
side too, with the number of seeds on which this checkout read better.
A run that is not ``correct`` or that failed operations stops the script.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30


def commit(checkout: Path) -> tuple[str, str]:
    """The commit measured and the commit it stands on.

    A clean checkout is measured at HEAD: both are HEAD.  A checkout whose
    tracked files differ from HEAD is measured at no commit: the first is
    empty and the second is HEAD.  Outside git both are empty.
    """
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if head.returncode != 0:
        return "", ""
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=checkout, capture_output=True, text=True).stdout.strip()
    return ("" if dirty else head.stdout.strip()), head.stdout.strip()


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The metric values of one untraced run, by name."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"{result['failed']} of {result['attempted']} operations")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(runs: list[dict]) -> dict:
    """Median, quartiles and the values in seed order, per metric."""
    out = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"median": median, "q1": q1, "q3": q3, "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the file to write, BENCH_<n>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--baseline", type=Path,
                        help="a checkout to run alternately, seed by seed")
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="the workloads to run (default: every one in BENCHMARK.json)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workloads or ()) - set(names))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json has {names}")
    measured, base = commit(ROOT)
    doc = {"commit": measured, "on": base, "python": platform.python_version(),
           "seconds": SECONDS, "workloads": {}}
    if args.baseline:
        doc["baseline_commit"] = commit(args.baseline)[0]
    out = Path(args.out)
    if out.exists():
        prior = json.loads(out.read_text(encoding="utf-8"))
        if all(prior.get(key) == value for key, value in doc.items() if key != "workloads"):
            doc["workloads"] = prior.get("workloads", {})
    for workload in args.workloads or names:
        runs, base_runs = [], []
        for k, seed in enumerate(args.seeds):
            sides = [(ROOT, runs)] + ([(args.baseline, base_runs)] if args.baseline else [])
            for checkout, into in sides[::-1] if k % 2 else sides:
                into.append(run_once(checkout, workload, seed))
                print(f"# {workload} seed={seed} {checkout}: "
                      f"ops_per_s={into[-1]['ops_per_s']:.1f}", file=sys.stderr)
        entry = {"seeds": args.seeds, "metrics": summary(runs)}
        if args.baseline:
            entry["baseline"] = summary(base_runs)
            entry["won"] = {name: sum((a < b) if better[name] == "lower" else (a > b)
                                      for a, b in zip(entry["metrics"][name]["values"],
                                                      entry["baseline"][name]["values"]))
                            for name in entry["metrics"]}
        doc["workloads"][workload] = entry
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
