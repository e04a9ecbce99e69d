"""The entail-mix benchmark's inputs, run in process against its expected
answers and its own certificate checker, so that a change to the entry
points it calls (``RuleSystem`` by value, ``decide_entailment``, the module
``derives``, ``check_proof`` with two arguments) fails here first."""

import json
import pathlib

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
