"""kindb benchmark: one closed-loop client running one seeded workload.

    python3 perfbench/run.py --workload entail-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; kindb is imported from its ``src``.  With
``--trace 0`` the run measures end-to-end metrics: operations run back to
back, each starting when the previous one returns, for the number of whole
rounds that took ``--seconds`` at the commit that added the benchmark, so
every run at a given length does the same work (see ``timed_run``).  With
``--trace 1`` the first ``traced_ops`` operations of the first round run
twice, untraced and then traced, and the run reports per-layer metrics;
their counts repeat exactly for a given seed.

Every answer is checked outside the timed region, against the committed
expected answer and by the benchmark's own certificate checker.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_REPEATS = 5
OP_TIMEOUT_S = 60     # an operation running longer counts as failed
SLOW_CAP = 1.25       # stop early once operations take this share of --seconds


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


_import_s: float | None = None


def import_kindb() -> float:
    """Import kindb from scratch ``SETUP_REPEATS`` times and return the
    median time; later calls return the same figure.  The first call must
    come before anything else imports kindb, so that the benchmark and its
    tracer use the modules of the last import."""
    global _import_s
    if _import_s is None:
        if "workloads" in sys.modules:
            raise RuntimeError("import_kindb must run before the workloads are imported")
        times = []
        for _ in range(SETUP_REPEATS):
            for name in [m for m in sys.modules if m == "kindb" or m.startswith("kindb.")]:
                del sys.modules[name]
            start = time.perf_counter()
            importlib.import_module("kindb")
            importlib.import_module("kindb.cli")
            times.append(time.perf_counter() - start)
        _import_s = statistics.median(times)
    return _import_s


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_expected(name: str) -> list:
    with open(HERE / "expected" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["answers"]


class Runner:
    """Runs operations, checks each answer, and tallies failures."""

    def __init__(self, workload, items: dict, expected: list, tamper=None):
        self.w, self.items, self.expected, self.tamper = workload, items, expected, tamper
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.op_counts: Counter = Counter()

    def one(self, i: int, tracer=None) -> tuple[float, object]:
        """Run pool input ``i``; return its latency and polarity."""
        item = self.items[i]
        self.attempted += 1
        signal.alarm(OP_TIMEOUT_S)
        if tracer is not None:
            tracer.begin_op(self.attempted - 1)
        start = time.perf_counter()
        try:
            raw = self.w.run(item)
        except Exception as exc:  # any exception fails the op, not the run
            raw = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        signal.alarm(0)
        if isinstance(raw, Exception):
            return elapsed, self._fail(i, f"{type(raw).__name__}: {raw}")
        if self.tamper is not None:
            raw = self.tamper(item, raw)
        try:
            answer, positive, problems, counts = self.w.check(item, raw)
        except Exception as exc:  # an unreadable answer is a rejected one
            return elapsed, self._fail(i, f"checker: {type(exc).__name__}: {exc}")
        self.op_counts.update(counts)
        if answer is not None and json.loads(json.dumps(answer)) != self.expected[i]:
            problems = problems + [f"answer {answer} differs from expected {self.expected[i]}"]
        if problems:
            return elapsed, self._fail(i, "; ".join(problems))
        return elapsed, positive

    def _fail(self, i: int, why: str):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"input {i}: {why}")
        return None


def setup(workload, seed: int, workdir: Path) -> tuple[dict, list[int], random.Random, float]:
    """Generate the run's inputs and write their files, several times; the
    median repetition is the set-up time reported with the import time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rng = random.Random(seed)
        order = workload.run_set(rng)
        items = {i: workload.item(i) for i in order}
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload.prepare(items, workdir)
        times.append(time.perf_counter() - start)
    return items, order, rng, statistics.median(times)


def timed_run(runner: Runner, order: list[int], rng: random.Random, rounds: int,
              cap_s: float) -> dict:
    """Run ``rounds`` rounds over ``order``, each after the first reshuffled
    and each started from empty kindb caches, so every round repeats the
    same cold work.  An operation's latency is the least of its timings in
    the run (the timeit convention): a shared host's speed switches between
    a fast and a slow state many times a second, and the least of many
    timings of a short operation is one made in the fast state.
    ``ops_per_s`` is distinct operations over the sum of their latencies.
    A run on a machine so slow that its operations pass ``cap_s`` stops at
    the end of the current round."""
    import tracing

    best: dict[int, float] = {}
    polarity: dict[int, object] = {}
    busy = 0.0
    for r in range(rounds):
        if r:
            order = order[:]
            rng.shuffle(order)
        tracing.clear_caches()
        for i in order:
            dt, pos = runner.one(i)
            busy += dt
            best[i] = min(dt, best.get(i, dt))
            polarity[i] = pos if polarity.get(i, pos) == pos else None
        if busy > cap_s:
            break
    lat = [best[i] * 1000.0 for i in best]
    yes = [best[i] * 1000.0 for i in best if polarity[i] is True]
    no = [best[i] * 1000.0 for i in best if polarity[i] is False]
    if not (yes and no) and runner.failed == 0:
        raise SystemExit("error: a round must hold both positive and negative answers")
    n = len(lat)
    return {
        "ops": n, "rounds": r + 1, "busy_s": busy,
        "ops_per_s": n / (sum(lat) / 1000.0),
        "op_p50_ms": statistics.median(lat),
        # the highest percentile with at least ten samples beyond it
        "op_tail_ms": sorted(lat)[max(0, n - 11)],
        "tail_pct": 100.0 * max(0, n - 10) / n,
        # failed operations have no polarity; a run with failures is rejected
        "entailed_p50_ms": statistics.median(yes) if yes else 0.0,
        "refuted_p50_ms": statistics.median(no) if no else 0.0,
        "yes": len(yes), "no": len(no),
    }


def traced_run(runner: Runner, ops: list[int], spans_path: Path) -> dict:
    """Run ``ops`` untraced and then traced, each from empty caches."""
    import tracing

    tracing.clear_caches()
    untraced = sum(runner.one(i)[0] for i in ops)
    runner.op_counts.clear()
    tracing.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = sum(runner.one(i, tracer)[0] for i in ops)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(runner.op_counts)
    metrics["trace.overhead_ratio"] = traced / untraced
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 limit: int | None = None, tamper=None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the summary lines.
    ``limit`` cuts the operation sequence short and ``tamper`` rewrites raw
    results before they are checked (both for the self-test)."""
    import_s = import_kindb()
    from workloads import WORKLOADS

    spec = load_benchmark_spec()
    workload = WORKLOADS[name]
    workdir = WORK / f"{name}.{os.getpid()}"
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        items, order, rng, gen_s = setup(workload, seed, workdir)
        runner = Runner(workload, items, load_expected(name), tamper)
        if trace:
            ops = order[:limit or workload.traced_ops]
            values = traced_run(runner, ops, WORK / f"spans-{name}-seed{seed}.json")
            wanted = spec["per_layer"]
            lines = [f"# {name} seed={seed} traced ops={len(ops)}"]
        else:
            rounds = max(1, round(seconds / workload.round_s))
            values = timed_run(runner, order[:limit], rng, rounds, SLOW_CAP * seconds)
            values["error_rate"] = runner.failed / runner.attempted
            values["setup_s"] = import_s + gen_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
            lines = [f"# {name} seed={seed} {values['ops']} operations x {values['rounds']} rounds, "
                     f"busy={values['busy_s']:.2f}s; op_p50 over {values['ops']} samples, "
                     f"op_tail=p{values['tail_pct']:.2f} over {values['ops']} samples; "
                     f"yes={values['yes']} no={values['no']}; "
                     f"error_rate={values['error_rate']:.4f}"]
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
    lines += [f"# FAILED {problem}" for problem in runner.problems]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kindb" / "__init__.py").is_file():
        print(f"error: no kindb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import_kindb()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
