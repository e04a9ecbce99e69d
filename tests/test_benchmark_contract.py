"""The benchmark's inputs, run in process against their expected answers
and the benchmark's own certificate checker, so that a change to the entry
points they call (``RuleSystem`` by value, ``decide_entailment``, the module
``derives``, ``check_proof`` with two arguments, ``kindb check`` and
``kindb chase --plus --json``) fails here first.  The traced run's counters
are checked too, since its hooks read what the chases return."""

import json
import pathlib
from collections import Counter

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_entail_mix_pool_gives_its_expected_answers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    mix = workloads.EntailMix()
    expected = json.loads((PERFBENCH / "expected" / "entail-mix.json").read_text())["answers"]
    assert len(expected) == mix.pool_size() == 1000
    for i, want in enumerate(expected):
        item = mix.item(i)
        answer, _, problems, _ = mix.check(item, mix.run(item))
        assert (answer, problems) == (want, []), f"input {i}: {item}"


def test_check_repair_pool_gives_its_expected_answers(monkeypatch, tmp_path):
    """The check-repair inputs (``kindb check`` of large databases, ``kindb
    chase --plus --json`` repairs) through load, marginalize, the natural
    order and the chase JSON, against their expected answers."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    repair = workloads.CheckRepair()
    expected = json.loads((PERFBENCH / "expected" / "check-repair.json").read_text())["answers"]
    assert len(expected) == repair.pool_size() == 24
    items = {i: repair.item(i) for i in range(repair.pool_size())}
    repair.prepare(items, tmp_path)
    for i, want in enumerate(expected):
        answer, _, problems, _ = repair.check(items[i], repair.run(items[i]))
        assert (json.loads(json.dumps(answer)), problems) == (want, []), f"input {i}"


def test_traced_entail_mix_counts_the_chases(monkeypatch):
    """The benchmark's tracer, installed in process over the first 40
    entail-mix inputs, sees both chases and every entailment query."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    mix = workloads.EntailMix()
    items = [mix.item(i) for i in range(40)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, item in enumerate(items):
            tracer.begin_op(op)
            try:
                mix.run(item)
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(Counter())
    assert metrics["chase.classical_calls"] > 0
    assert metrics["chase.classical_steps"] > 0
    assert metrics["chase.plus_calls"] > 0
    assert metrics["entail.decide_calls"] == sum(item["kind"] == "entail" for item in items)
