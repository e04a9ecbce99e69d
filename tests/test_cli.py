import json
import pathlib

import pytest

import kindb.cli
import kindb.kdb
from kindb.chase import ChaseConfig, plus_chase, trace_to_json
from kindb.cli import main
from kindb.entail import decide_entailment
from kindb.ind import format_ind, infer_schema, load_ind_file, parse_ind, satisfies
from kindb.infer import DerivationProof, RuleSystem, check_proof, derives, proof_to_json
from kindb.kdb import load_database, load_database_file, marginalize
from kindb.monoid import BOOLEAN, parse_monoid
from kindb.oracle import brute_force_entails

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "running.txt").write_text(
        "# running example constraints\n"
        "Expense[proj,year] <= Budget[proj,year]\n"
        "Budget[proj] <= Grant[proj]\n"
        "Grant[proj] <= Budget[proj]\n")
    (tmp_path / "violated.txt").write_text("Orders[product] <= Warehouse[product]\n")
    (tmp_path / "ws.txt").write_text(
        "Budget[proj] <= Grant[proj]\nGrant[] <= Budget[]\n")
    (tmp_path / "loop.txt").write_text("R[B,C] <= R[A,B]\n")
    (tmp_path / "loop_pair.txt").write_text("R[B,C] <= R[A,B]\nR[A,B] <= R[B,C]\n")
    return tmp_path


def test_check_running_example(capsys, workspace):
    code, out, _ = run(capsys, "check", str(DATA / "budgets.json"),
                       str(workspace / "running.txt"))
    assert code == 0
    assert out.count("OK") == 3


def test_check_violation(capsys, workspace):
    code, out, _ = run(capsys, "check", str(DATA / "warehouse.json"),
                       str(workspace / "violated.txt"))
    assert code == 1
    assert "VIOLATED" in out


def test_check_malformed_json(capsys, tmp_path, workspace):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad), str(workspace / "running.txt"))
    assert code == 2 and "error" in err


TABLE = {"elements": ["0", "1"], "zero": "0"}


@pytest.mark.parametrize("doc,field", [
    ({"monoid": "naturals", "schema": ["R"], "relations": {}}, "schema"),
    ({"monoid": "naturals", "schema": {"R": "AB"}, "relations": {}}, "schema"),
    ({"monoid": "naturals", "schema": {"R": ["A"]},
      "relations": [{"tuple": {"A": "a"}, "weight": "1"}]}, "relations"),
    ({"monoid": {**TABLE, "op": [["0,0", "0"]]}, "schema": {"R": ["A"]},
      "relations": {}}, "op"),
    ({"monoid": 5, "schema": {"R": ["A"]}, "relations": {}}, "monoid"),
    ({"monoid": "naturals", "schema": {"R": ["A"]},
      "relations": {"R": [{"tuple": ["A"], "weight": "1"}]}}, "tuple"),
    ({"monoid": "naturals", "schema": {"R": ["A"]},
      "relations": {"R": [{"tuple": {"A": ["a"]}, "weight": "1"}]}}, "R.A"),
    ({"monoid": "naturals", "schema": {"R": ["A"]},
      "relations": {"R": [{"tuple": {"A": "a"}, "weight": "-1"}]}}, "R.weight"),
    ({"monoid": "boolean", "schema": {"R": ["A"]},
      "relations": {"R": [{"tuple": {"A": "a"}, "weight": "2"}]}}, "R.weight"),
    ({"monoid": "naturals", "schema": {"R": ["A"]},
      "relations": {"R": [{"tuple": {"A": "a"}, "weight": "many"}]}}, "R.weight"),
    ({"monoid": "nonneg_rationals", "schema": {"R": ["A"]},
      "relations": {"R": [{"tuple": {"A": "a"}, "weight": "1/0"}]}}, "R.weight"),
    ({"monoid": "nonneg_rationals", "schema": {"R": ["A"]},
      "relations": {"R": [{"tuple": {"A": "a"}, "weight": "-1/2"}]}}, "R.weight"),
])
def test_check_malformed_document_shape(capsys, tmp_path, doc, field):
    db = tmp_path / "db.json"
    db.write_text(json.dumps(doc))
    inds = tmp_path / "inds.txt"
    inds.write_text("R[A] <= R[A]\n")
    code, _, err = run(capsys, "check", str(db), str(inds))
    assert code == 2
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("entry,message", [
    ({"tuple": {"A": "a"}, "weight": "x"}, "R.weight: cannot parse naturals weight 'x'"),
    ({"tuple": {"A": "*"}, "weight": "1"}, "the constant '*' is reserved"),
    ({"tuple": {"B": "a"}, "weight": "1"}, "row for R must assign exactly the attributes"),
    ({"tuple": {"A": "a"}}, "malformed row entry in relation R"),
    ({"tuple": {"A": "a", "B": "b"}, "weight": "1"},
     """row for R must assign exactly the attributes ['A'] ("tuple" assigns ['A', 'B'])"""),
], ids=["weight", "star", "attributes", "entry", "assigned keys"])
def test_check_names_the_database_file_in_loader_errors(capsys, tmp_path, entry, message):
    db = tmp_path / "db.json"
    db.write_text(json.dumps({"monoid": "naturals", "schema": {"R": ["A"]},
                              "relations": {"R": [entry]}}))
    inds = tmp_path / "inds.txt"
    inds.write_text("R[A] <= R[A]\n")
    code, out, err = run(capsys, "check", str(db), str(inds))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {db}: {message}") and "Traceback" not in err


def _rational_db(three_quarters, one) -> dict:
    """R = {a: 3/4, b: 1}, S = {a: 3/4, b: 1/2}, T = {a: 1 + 3/4} (a repeated row)."""
    rows = {"R": [("a", three_quarters), ("b", one)], "S": [("a", three_quarters), ("b", "1/2")],
            "T": [("a", one), ("a", three_quarters)]}
    return {"monoid": "nonneg_rationals", "schema": {rel: ["A"] for rel in rows},
            "relations": {rel: [{"tuple": {"A": c}, "weight": w} for c, w in entries]
                          for rel, entries in rows.items()}}


@pytest.mark.parametrize("three_quarters,one", [
    ("0.75", "1e0"), ("6/8", "2/2"), (" 3/4", "1.0"), ("3/4 ", "01"), (0.75, 1)])
def test_check_reads_every_spelling_of_a_rational_weight_alike(capsys, tmp_path,
                                                               three_quarters, one):
    inds = tmp_path / "inds.txt"
    inds.write_text("R[A] <= S[A]\nS[A] <= R[A]\nR[] <= T[]\nT[] <= R[]\nT[] <= S[]\n")
    outputs = []
    for doc in (_rational_db("3/4", "1"), _rational_db(three_quarters, one)):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(db), str(inds), "--json")
        outputs.append((code, json.loads(out)["results"]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1
    assert sorted(outputs[0][1].values()) == [False, False, True, True, True]


def _budget_document(projects: int, types: int, years: int) -> dict:
    """Expense[proj,type,year] rows of weight 2, each Budget[proj,year] one more
    than its expenses and each Grant[proj] the sum of its budgets."""
    rel = {"Expense": [], "Budget": [], "Grant": []}
    for p in range(projects):
        proj = f"P{p}"
        for y in range(years):
            year = str(2020 + y)
            rel["Expense"] += [{"tuple": {"proj": proj, "type": f"T{t}", "year": year},
                                "weight": "2"} for t in range(types)]
            rel["Budget"].append({"tuple": {"proj": proj, "year": year},
                                  "weight": str(2 * types + 1)})
        rel["Grant"].append({"tuple": {"proj": proj}, "weight": str((2 * types + 1) * years)})
    return {"monoid": "naturals", "relations": rel,
            "schema": {"Expense": ["proj", "type", "year"], "Budget": ["proj", "year"],
                       "Grant": ["proj"]}}


BUDGET_SIGMA = ("Expense[proj,year] <= Budget[proj,year]\nBudget[proj] <= Grant[proj]\n"
                "Expense[proj] <= Grant[proj]\n")


def test_check_makes_each_marginal_once_from_the_narrowest_source(capsys, tmp_path,
                                                                 monkeypatch):
    """On an 80 x 8 x 5 database, Expense's 3,200 rows are grouped once, for
    Expense[proj,year]; Expense[proj] is rolled up from that 400-point
    marginal; Budget[proj,year] and Grant[proj], sides in their relation's own
    layout, are read in place: 4,000 rows grouped in all."""
    db_path, inds = tmp_path / "db.json", tmp_path / "inds.txt"
    db_path.write_text(json.dumps(_budget_document(80, 8, 5)))
    inds.write_text(BUDGET_SIGMA)
    loaded, made, calls = [], [], []

    def load(path):
        loaded.append(load_database_file(path))
        return loaded[-1]

    def counted(source, attrs, m):
        result = marginalize(source, attrs, m)
        names = [(kr, rel) for rel, kr in loaded[0].relations.items()] + made
        name = next(name for kr, name in names if kr is source)
        calls.append((name, tuple(attrs), len(source.weights)))
        made.append((result, f"{name.split('[')[0]}[{','.join(attrs)}]"))
        return result

    monkeypatch.setattr(kindb.cli, "load_database_file", load)
    monkeypatch.setattr(kindb.kdb, "marginalize", counted)
    code, out, _ = run(capsys, "check", str(db_path), str(inds), "--json")
    assert code == 0 and all(json.loads(out)["results"].values())
    assert sorted(calls) == [("Budget", ("proj",), 400),
                             ("Expense", ("proj", "year"), 3_200),
                             ("Expense[proj,year]", ("proj",), 400)]
    assert sum(rows for _, _, rows in calls) == 4_000


def test_check_output_on_a_violating_database(capsys, tmp_path):
    """Shared, rolled-up, arity-0 and repeated dependencies answer as before,
    each reported once, in the order first listed."""
    doc = _budget_document(3, 2, 2)
    doc["relations"]["Budget"][0]["weight"] = "3"  # below P0's 2020 expenses of 4
    db_path, inds = tmp_path / "db.json", tmp_path / "inds.txt"
    db_path.write_text(json.dumps(doc))
    inds.write_text(BUDGET_SIGMA + "Grant[] <= Budget[]\nBudget[] <= Grant[]\n"
                    "Expense[proj,year] <= Budget[proj,year]\n")
    assert run(capsys, "check", str(db_path), str(inds), "--json") == (1, (
        '{"results": {"Budget[] <= Grant[]": true, "Budget[proj] <= Grant[proj]": true, '
        '"Expense[proj,year] <= Budget[proj,year]": false, '
        '"Expense[proj] <= Grant[proj]": true, "Grant[] <= Budget[]": false}}\n'), "")
    assert run(capsys, "check", str(db_path), str(inds)) == (1, (
        "VIOLATED Expense[proj,year] <= Budget[proj,year]\n"
        "OK       Budget[proj] <= Grant[proj]\n"
        "OK       Expense[proj] <= Grant[proj]\n"
        "VIOLATED Grant[] <= Budget[]\n"
        "OK       Budget[] <= Grant[]\n"), "")


def test_entail_weak_symmetry_proof(capsys, workspace):
    code, out, _ = run(capsys, "entail", str(workspace / "ws.txt"),
                       "Grant[proj] <= Budget[proj]", "--monoid", "naturals", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entailed"] is True
    assert doc["proof"]["rule"] == "weak_symmetry"
    # the verdict names the rule system its proof is checked against
    assert doc["system"] == "ws"


def test_entail_boolean_countermodel(capsys, workspace):
    code, out, _ = run(capsys, "entail", str(workspace / "ws.txt"),
                       "Grant[proj] <= Budget[proj]", "--monoid", "boolean", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["entailed"] is False
    db = load_database(doc["countermodel"]["database"], allow_star=True)
    assert all(satisfies(db, parse_ind(s)) for s in ("Budget[proj] <= Grant[proj]",
                                                      "Grant[] <= Budget[]"))
    assert not satisfies(db, parse_ind("Grant[proj] <= Budget[proj]"))
    assert doc["system"] == "standard"
    code, out, _ = run(capsys, "entail", str(workspace / "ws.txt"),
                       "Grant[proj] <= Budget[proj]", "--monoid", "boolean", "--balanced")
    assert json.loads(out)["system"] == "standard+balance"


def test_entail_unknown_monoid(capsys, workspace):
    code, _, err = run(capsys, "entail", str(workspace / "ws.txt"),
                       "Grant[proj] <= Budget[proj]", "--monoid", "tropical")
    assert code == 2 and "error" in err


def test_entail_syntactic_mode(capsys, workspace):
    code, out, _ = run(capsys, "entail", str(workspace / "ws.txt"),
                       "Grant[proj] <= Budget[proj]", "--system", "ws")
    assert code == 0 and json.loads(out)["derivable"] is True
    code, out, _ = run(capsys, "entail", str(workspace / "ws.txt"),
                       "Grant[proj] <= Budget[proj]", "--system", "standard")
    assert code == 1
    # the CLI offers the four rule systems by their values, and nothing else
    with pytest.raises(SystemExit):
        main(["entail", str(workspace / "ws.txt"), "Grant[proj] <= Budget[proj]",
              "--system", "ws+balance"])
    assert "invalid choice" in capsys.readouterr().err


def test_entail_offers_the_standard_rules_with_the_balance_axioms(capsys, tmp_path):
    sigma = tmp_path / "empty.txt"
    sigma.write_text("")
    code, out, _ = run(capsys, "entail", str(sigma), "R[] <= S[]", "--system", "standard+balance")
    assert code == 0
    assert json.loads(out) == {"derivable": True, "system": "standard+balance",
                               "proof": {"conclusion": "R[] <= S[]", "rule": "balance"}}
    code, out, _ = run(capsys, "entail", str(sigma), "R[] <= S[]", "--system", "standard")
    assert code == 1
    assert json.loads(out) == {"derivable": False, "system": "standard"}


def test_chase_plus_step_limit(capsys, workspace):
    code, out, _ = run(capsys, "chase", "canonical:R[B,C] <= R[A,B]",
                       str(workspace / "loop.txt"), "--plus", "--step-limit", "200")
    assert code == 3
    assert "step_limit_exceeded" in out


@pytest.mark.parametrize("argv", [
    ("chase", "canonical:R[B,C] <= R[A,B]", "loop.txt", "--plus"),
    ("entail", "ws.txt", "Grant[proj] <= Budget[proj]"),
])
def test_step_limit_zero_is_an_input_error(capsys, workspace, argv):
    argv = [str(workspace / a) if a.endswith(".txt") else a for a in argv]
    code, _, err = run(capsys, *argv, "--step-limit", "0")
    assert code == 2
    assert "step limit" in err


def test_chase_plus_terminates_with_trace(capsys, workspace, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "chase", "canonical:R[B,C] <= R[A,B]",
                       str(workspace / "loop_pair.txt"), "--plus",
                       "--trace-out", str(trace_path))
    assert code == 0
    assert "terminated" in out
    doc = json.loads(trace_path.read_text())
    assert doc["outcome"] == "terminated" and doc["steps"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_chase_trace_out_writes_nothing_when_a_weight_cannot_print(capsys, tmp_path,
                                                                   json_flag):
    """Two rows of 4,300 nines sum to a weight past the interpreter's limit
    on printed digits: the run exits 2 before it writes anything."""
    nines = "9" * 4300
    doc = {"monoid": "naturals", "schema": {"E": ["p", "q"], "B": ["p"]},
           "relations": {"E": [{"tuple": {"p": "a", "q": q}, "weight": nines}
                               for q in ("x", "y")], "B": []}}
    (tmp_path / "db.json").write_text(json.dumps(doc))
    (tmp_path / "inds.txt").write_text("E[p] <= B[p]\n")
    trace_path = tmp_path / "t.json"
    code, out, err = run(capsys, "chase", str(tmp_path / "db.json"),
                         str(tmp_path / "inds.txt"), "--plus",
                         "--trace-out", str(trace_path), *json_flag)
    assert code == 2
    assert "too large to print" in err
    assert out == ""
    assert not trace_path.exists()


def test_entail_names_a_malformed_monoid_file(capsys, workspace, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "entail", str(workspace / "ws.txt"),
                       "Grant[proj] <= Budget[proj]", "--monoid", str(bad))
    assert code == 2
    assert err.startswith(f"error: {bad}: malformed JSON") and "Traceback" not in err


@pytest.mark.parametrize("monoid", ["naturals", "table"])
def test_entail_names_a_sigma_file_that_is_not_utf8(capsys, tmp_path, monoid):
    sigma = tmp_path / "sigma.txt"
    sigma.write_bytes(b"R[A] <= S[B]\n\xff\n")
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"elements": ["0", "1"], "zero": "0",
                                 "op": {"0,0": "0", "0,1": "1", "1,1": "1"}}))
    code, _, err = run(capsys, "entail", str(sigma), "R[A] <= S[B]",
                       "--monoid", str(table) if monoid == "table" else monoid)
    assert code == 2
    assert err.startswith(f"error: {sigma}: 'utf-8' codec") and "Traceback" not in err


def test_chase_classical(capsys, workspace):
    code, out, _ = run(capsys, "chase", "canonical:R[B,C] <= R[A,B]",
                       str(workspace / "loop.txt"))
    assert code == 0
    assert "terminated" in out


def test_classify_builtin(capsys, workspace):
    code, out, _ = run(capsys, "classify", "boolean")
    assert code == 0
    doc = json.loads(out)
    assert doc["self_absorptive"] is True and doc["weakly_cancellative"] is False
    code, out, _ = run(capsys, "classify", "monogenic:2,3")
    assert code == 0 and json.loads(out)["weakly_absorptive"] is True


def test_classify_large_monogenic(capsys):
    code, out, _ = run(capsys, "classify", "monogenic:100000,100000")
    assert code == 0 and json.loads(out)["k_absorptive_max"] == "unbounded"


def test_classify_invalid_table(capsys, tmp_path):
    bad = tmp_path / "table.json"
    bad.write_text(json.dumps({
        "elements": ["0", "a"], "zero": "0",
        "op": {"0,0": "0", "0,a": "a", "a,a": "0"}}))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "positivity" in err


def test_oracle_command(capsys, tmp_path):
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({
        "monoid": "boolean",
        "sigma": ["R[A] <= S[B]", "S[] <= R[]"],
        "tau": "S[B] <= R[A]",
        "adom": ["x", "y"],
        "weight_pool": ["0", "1"],
        "max_tuples": 4,
    }))
    code, out, _ = run(capsys, "oracle", str(config))
    assert code == 1
    db = load_database(json.loads(out)["counterexample"]["database"])
    assert all(satisfies(db, parse_ind(s)) for s in ("R[A] <= S[B]", "S[] <= R[]"))
    assert not satisfies(db, parse_ind("S[B] <= R[A]"))
    config.write_text(json.dumps({
        "monoid": "naturals",
        "sigma": ["R[A] <= S[B]", "S[] <= R[]"],
        "tau": "S[B] <= R[A]",
        "adom": ["x"],
        "weight_pool": ["0", "1", "2"],
        "max_tuples": 2,
    }))
    code, out, _ = run(capsys, "oracle", str(config))
    assert code == 0
    assert json.loads(out)["counterexample"] is None


ORACLE = {"monoid": "boolean", "sigma": ["R[A] <= S[B]"], "tau": "S[B] <= R[A]",
          "adom": ["x", "y"], "weight_pool": ["1"], "max_tuples": 2}


@pytest.mark.parametrize("doc,field", [
    ({**ORACLE, "max_tuples": "x"}, "max_tuples"),
    ([ORACLE], "object"),
    ({**ORACLE, "sigma": "R[A] <= S[B]"}, "sigma"),
    ({**ORACLE, "adom": "xy"}, "adom"),
    ({**ORACLE, "max_candidates": -1}, "max_candidates"),
    ({**ORACLE, "weight_pool": "1"}, "weight_pool"),
    ({**ORACLE, "balanced": "false"}, "balanced"),
    ({k: v for k, v in ORACLE.items() if k != "tau"}, "tau"),
    ({**ORACLE, "adom": ["x", "*"]}, "adom"),
    ({**ORACLE, "monoid": "naturals", "weight_pool": ["1", "-1"]}, "weight_pool"),
    ({**ORACLE, "weight_pool": ["2"]}, "weight_pool"),
    ({**ORACLE, "weight_pool": ["many"]}, "weight_pool"),
])
def test_oracle_malformed_config(capsys, tmp_path, doc, field):
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps(doc))
    code, _, err = run(capsys, "oracle", str(config))
    assert code == 2
    assert field in err and "Traceback" not in err


# Each field of ORACLE replaced by a value of each JSON type, each required key
# dropped, and the document wrapped in a list.  Only these replacements keep
# the shape valid; every other variant must exit 2 and name its field.
VALUE_KINDS = {"null": None, "number": 3, "string": "x", "list": [0], "object": {"a": 1},
               "boolean": True}
VALID_SHAPES = {("monoid", "string"), ("monoid", "object"), ("tau", "string"),
                ("weight_pool", "list"), ("max_tuples", "number"),
                ("max_candidates", "number"), ("balanced", "boolean")}
ORACLE_FIELD_NAMES = [*ORACLE, "max_candidates", "balanced"]
ORACLE_VARIANTS = (
    [(f"{field}={kind}", {**ORACLE, field: value}, field, (field, kind) in VALID_SHAPES)
     for field in ORACLE_FIELD_NAMES for kind, value in VALUE_KINDS.items()]
    + [(f"no {field}", {k: v for k, v in ORACLE.items() if k != field}, field, False)
       for field in ORACLE]
    + [("wrapped", [ORACLE], "object", False)])


@pytest.mark.parametrize("doc,field,valid", [variant[1:] for variant in ORACLE_VARIANTS],
                         ids=[variant[0] for variant in ORACLE_VARIANTS])
def test_oracle_config_corpus(capsys, tmp_path, doc, field, valid):
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps(doc))
    code, _, err = run(capsys, "oracle", str(config))
    assert "Traceback" not in err
    if valid:
        assert code in (0, 1, 2)
    else:
        assert code == 2 and field in err


def test_oracle_refuses_an_oversized_space_before_building_it(capsys, tmp_path):
    # 20 ** 3 candidate rows per relation, up to all of them in one database
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({**ORACLE, "sigma": ["R[A,B,C] <= S[D,E,F]"],
                                  "tau": "S[D,E,F] <= R[A,B,C]",
                                  "adom": [f"c{i}" for i in range(20)], "max_tuples": 8000}))
    code, _, err = run(capsys, "oracle", str(config))
    assert code == 2
    assert "cap of 2000000" in err and "Traceback" not in err


def test_outputs_are_deterministic(capsys, workspace):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "entail", str(workspace / "ws.txt"),
                        "Grant[proj] <= Budget[proj]", "--monoid", "boolean", "--json")
        outs.append(out)
    assert outs[0] == outs[1]


def _sorted_keys(pairs):
    assert [k for k, _ in pairs] == sorted(k for k, _ in pairs)
    return dict(pairs)


ORACLE_FOUND = {"monoid": "boolean", "sigma": ["R[A] <= S[B]", "S[] <= R[]"],
                "tau": "S[B] <= R[A]", "adom": ["x", "y"], "weight_pool": ["0", "1"],
                "max_tuples": 4}


def _api_document(command, workspace):
    """The document each JSON-printing command builds, made through the API."""
    ws = workspace / "ws.txt"
    tau = parse_ind("Grant[proj] <= Budget[proj]")
    if command == "check":
        db = load_database_file(str(DATA / "budgets.json"))
        sigma = load_ind_file(str(workspace / "running.txt"), db.schema)
        return {"results": {format_ind(s): satisfies(db, s) for s in sigma}}
    if command == "entail":
        return decide_entailment(set(load_ind_file(str(ws))), tau, BOOLEAN).to_json()
    if command == "entail-system":
        sigma = set(load_ind_file(str(ws)))
        schema = infer_schema(sorted(sigma | {tau}, key=format_ind))
        ok, proof = derives(sigma, tau, RuleSystem("ws"), schema)
        return {"derivable": ok, "system": "ws", "proof": proof_to_json(proof)}
    if command == "chase":
        db = load_database_file(str(workspace / "repair.json"))
        sigma = load_ind_file(str(workspace / "repair.txt"), db.schema)
        return trace_to_json(plus_chase(db, sigma, ChaseConfig()))
    if command == "classify":
        return {"monoid": "monogenic:2,3", **parse_monoid("monogenic:2,3").classify().as_dict()}
    found = brute_force_entails({parse_ind(s) for s in ORACLE_FOUND["sigma"]},
                                parse_ind(ORACLE_FOUND["tau"]), BOOLEAN, adom=["x", "y"],
                                weight_pool=[0, 1], max_tuples=4)
    return {"counterexample": found.to_json()}


@pytest.mark.parametrize("command,argv", [
    ("check", ["check", "@budgets.json", "running.txt", "--json"]),
    ("entail", ["entail", "ws.txt", "Grant[proj] <= Budget[proj]", "--monoid", "boolean",
                "--json"]),
    ("entail-system", ["entail", "ws.txt", "Grant[proj] <= Budget[proj]", "--system", "ws"]),
    ("chase", ["chase", "repair.json", "repair.txt", "--plus", "--json"]),
    ("classify", ["classify", "monogenic:2,3"]),
    ("oracle", ["oracle", "oracle.json"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_json_output_is_one_line_with_sorted_keys(capsys, workspace, command, argv):
    """Each JSON document printed is one line, sorted by key, and the one
    the API builds; a chase's --trace-out file holds that same line."""
    (workspace / "oracle.json").write_text(json.dumps(ORACLE_FOUND))
    (workspace / "repair.json").write_text(json.dumps(
        {"monoid": "nonneg_rationals", "schema": {"E": ["p", "q"], "B": ["p"]},
         "relations": {"E": [{"tuple": {"p": p, "q": q}, "weight": "3/2"}
                             for p in "ab" for q in "xy"],
                       "B": [{"tuple": {"p": "a"}, "weight": "1"}]}}))
    (workspace / "repair.txt").write_text("E[p] <= B[p]\n")
    argv = [str(DATA / a[1:]) if a.startswith("@") else
            str(workspace / a) if a.endswith((".txt", ".json")) else a for a in argv]
    _, out, _ = run(capsys, *argv)
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out, object_pairs_hook=_sorted_keys) == _api_document(command, workspace)
    if command == "chase":
        trace = workspace / "trace.json"
        _, again, _ = run(capsys, *argv, "--trace-out", str(trace))
        assert again == out and trace.read_text() == out.rstrip("\n")


# -- every input file names itself, and a fuzz corpus of malformed files -----

DROP = object()


def _replaced(doc, path, value):
    """A deep copy of ``doc`` with the item at ``path`` replaced by ``value``,
    or dropped when ``value`` is ``DROP``."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    holder = doc
    for key in outer:
        holder = holder[key]
    if value is DROP:
        del holder[last]
    else:
        holder[last] = value
    return doc


DB_DOC = {"monoid": "naturals", "schema": {"R": ["A"]},
          "relations": {"R": [{"tuple": {"A": "a"}, "weight": "1"}]}}
ROW = ("relations", "R", 0)
# each field of DB_DOC, where it is and what an error about it names
DB_FIELDS = {
    "monoid": (("monoid",), "monoid"),
    "schema": (("schema",), '"schema"'),
    "attribute list": (("schema", "R"), '"schema"'),
    "relations": (("relations",), '"relations"'),
    "row entry": (ROW, "malformed row entry in relation R (not an object)"),
    "tuple": ((*ROW, "tuple"), 'malformed row entry in relation R ("tuple" must be an object)'),
    "cell": ((*ROW, "tuple", "A"), "R.A"),
    "weight": ((*ROW, "weight"), "R.weight"),
}
# an object where the tuple should be keeps the entry's shape, and its keys
# are then not the relation's attributes
DB_NAMED = {("tuple", "object"): "exactly the attributes ['A']",
            ("row entry", "object"): 'malformed row entry in relation R (no "tuple" key)'}
DB_VALID = {("cell", "number"), ("cell", "string"), ("weight", "number"), ("no", "relations")}
DB_DROPS = {"monoid": (("monoid",), "missing 'monoid'"),
            "schema": (("schema",), "missing 'schema'"),
            "relations": (("relations",), ""),
            "attribute list": (("schema", "R"), "unknown relation 'R'"),
            "tuple": ((*ROW, "tuple"), 'malformed row entry in relation R (no "tuple" key)'),
            "weight": ((*ROW, "weight"), 'malformed row entry in relation R (no "weight" key)'),
            "cell": ((*ROW, "tuple", "A"), "exactly the attributes ['A']")}
DB_VARIANTS = (
    [(f"{field}={kind}", _replaced(DB_DOC, path, value),
      DB_NAMED.get((field, kind), named), (field, kind) in DB_VALID)
     for field, (path, named) in DB_FIELDS.items() for kind, value in VALUE_KINDS.items()]
    + [(f"no {field}", _replaced(DB_DOC, path, DROP), named, ("no", field) in DB_VALID)
       for field, (path, named) in DB_DROPS.items()]
    + [("repeated attribute", _replaced(DB_DOC, ("schema", "R"), ["A", "A"]),
        "repeats an attribute", False),
       ("wrapped", [DB_DOC], "must be a JSON object", False),
       ("wrapped twice", [[DB_DOC]], "must be a JSON object", False),
       ("nested", {"database": DB_DOC}, "missing 'monoid'", False)])


@pytest.mark.parametrize("doc,named,valid", [variant[1:] for variant in DB_VARIANTS],
                         ids=[variant[0] for variant in DB_VARIANTS])
def test_database_document_corpus(capsys, tmp_path, doc, named, valid):
    db = tmp_path / "db.json"
    db.write_text(json.dumps(doc))
    inds = tmp_path / "inds.txt"
    inds.write_text("R[A] <= R[A]\n")
    code, out, err = run(capsys, "check", str(db), str(inds))
    assert "Traceback" not in err
    if valid:
        assert code == 0 and out.startswith("OK")
    else:
        prefix = f"error: {db}: "
        assert code == 2 and out == ""
        assert err.startswith(prefix) and named in err[len(prefix):]


TABLE_DOC = {"elements": ["0", "1"], "zero": "0", "op": {"0,0": "0", "0,1": "1", "1,1": "1"}}
TABLE_FIELDS = {"elements": (("elements",), '"elements"'), "zero": (("zero",), "zero element"),
                "op": (("op",), "op"), "op value": (("op", "0,1"), "op entry 0,1")}
TABLE_VARIANTS = (
    [(f"{field}={kind}", _replaced(TABLE_DOC, path, value), named)
     for field, (path, named) in TABLE_FIELDS.items() for kind, value in VALUE_KINDS.items()]
    # a JSON object's keys are strings: an op key is replaced by the text of each kind
    + [(f"op key={kind}", {**TABLE_DOC, "op": {"0,0": "0", json.dumps(value): "1", "1,1": "1"}},
        "malformed op key")
       for kind, value in VALUE_KINDS.items()]
    + [(f"no {field}", _replaced(TABLE_DOC, path, DROP), f"missing '{field}'")
       for field, (path, _) in list(TABLE_FIELDS.items())[:3]]
    + [("repeated element", {**TABLE_DOC, "elements": ["0", "1", "1"]}, "duplicate element"),
       ("wrapped", [TABLE_DOC], "a monoid is a name or an operation table"),
       ("nested", {"table": TABLE_DOC}, "missing 'elements'")])


@pytest.mark.parametrize("doc,named", [variant[1:] for variant in TABLE_VARIANTS],
                         ids=[variant[0] for variant in TABLE_VARIANTS])
def test_monoid_table_corpus(capsys, tmp_path, doc, named):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(table))
    prefix = f"error: {table}: "
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(prefix) and named in err[len(prefix):]


# each malformed dependency file, what its error names, and whether the
# error needs a schema (a database to check against) to show
IND_FILES = {
    "syntax": (b"R[A] <= R[A]\nR[A <= R[A]\n", "cannot parse inclusion dependency 'R[A <= R[A]'",
               False),
    "attribute list": (b"R[A B] <= R[A]\n", "malformed attribute list 'A B' for relation R",
                       False),
    "relation": (b"R[A] <= X[A]\n", "unknown relation 'X'", True),
    "attribute": (b"R[A] <= R[B]\n", "relation R has no attribute 'B'", True),
    "repeated attribute": (b"R[A,A] <= R[A,A]\n", "R['A', 'A'] repeats an attribute", False),
    "arity": (b"R[A] <= R[]\n", "attribute sequences differ in length", False),
    "not utf-8": (b"R[A] <= R[A]\n\xff\n", "'utf-8' codec can't decode", False),
}


@pytest.mark.parametrize("case", IND_FILES)
@pytest.mark.parametrize("command", ["check", "entail", "chase"])
def test_dependency_file_corpus(capsys, tmp_path, case, command):
    text, named, needs_schema = IND_FILES[case]
    sigma = tmp_path / "sigma.txt"
    sigma.write_bytes(text)
    db = tmp_path / "db.json"
    db.write_text(json.dumps(DB_DOC))
    argv = {"check": ["check", str(db), str(sigma)],
            "entail": ["entail", str(sigma), "R[A] <= S[B]"],
            "chase": ["chase", "canonical:R[A] <= S[B]", str(sigma)]}[command]
    code, out, err = run(capsys, *argv)
    assert "Traceback" not in err
    if needs_schema and command != "check":
        assert code in (0, 1)
    else:
        assert code == 2 and out == "" and err.startswith(f"error: {sigma}: {named}")


@pytest.mark.parametrize("content,expected", [
    ([1], "a monoid is a name or an operation table, not [1]"),
    ("tropical", "unknown monoid 'tropical'"),
    ({"elements": ["0"], "zero": "0", "op": {"0,0": "0"}, "extra": 1}, None),
])
def test_monoid_file_is_read_as_a_database_monoid_field(capsys, tmp_path, content, expected):
    table = tmp_path / "monoid.json"
    table.write_text(json.dumps(content))
    code, out, err = run(capsys, "classify", str(table))
    if expected is None:
        assert code == 0 and json.loads(out)["monoid"] == "table"
    else:
        assert code == 2 and err == f"error: {table}: {expected}\n"


@pytest.mark.parametrize("name", ["naturals", "boolean", "monogenic:2,3"])
def test_a_monoid_file_may_name_a_builtin(capsys, tmp_path, name):
    table = tmp_path / "monoid.json"
    table.write_text(json.dumps(name))
    code, out, _ = run(capsys, "classify", str(table))
    assert code == 0 and out == run(capsys, "classify", name)[1]
    assert json.loads(out)["monoid"] == name


def test_oracle_config_errors_name_the_file(capsys, tmp_path):
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({**ORACLE, "tau": "S[B] <= R[A,A]"}))
    code, _, err = run(capsys, "oracle", str(config))
    assert code == 2 and err.startswith(f"error: {config}: attribute sequences differ")


@pytest.mark.parametrize("field,value,message", [
    ("adom", ["x", "*"], "adom must not hold the reserved constant '*'"),
    ("max_candidates", 1, "the search space holds more than the cap of 1 candidate"),
])
def test_oracle_search_errors_name_the_file(capsys, tmp_path, field, value, message):
    # errors the search raises from config fields name the file like the rest
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({**ORACLE, field: value}))
    code, out, err = run(capsys, "oracle", str(config))
    assert code == 2 and out == "" and err.startswith(f"error: {config}: {message}")


def _proof_from_json(doc: dict) -> DerivationProof:
    indices = doc.get("indices")
    return DerivationProof(doc["rule"], parse_ind(doc["conclusion"]),
                           tuple(_proof_from_json(p) for p in doc.get("premises", ())),
                           None if indices is None else tuple(indices))


def test_wide_entailed_query_needs_no_chase(capsys, tmp_path):
    # a cyclic shift and a swap generate every permutation of R's 8 attributes;
    # the reversal is entailed, and answered by its checked proof alone, so
    # the additive chase that outruns its step budget here is never run
    attrs = [f"A{i}" for i in range(8)]
    lhs = f"R[{','.join(attrs)}]"
    sigma = [parse_ind(f"{lhs} <= R[{','.join(attrs[1:] + attrs[:1])}]"),
             parse_ind(f"{lhs} <= R[{','.join([attrs[1], attrs[0], *attrs[2:]])}]")]
    (tmp_path / "sigma.txt").write_text("".join(f"{format_ind(s)}\n" for s in sigma))
    tau = f"{lhs} <= R[{','.join(reversed(attrs))}]"
    code, out, _ = run(capsys, "entail", str(tmp_path / "sigma.txt"), tau, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entailed"] and doc["method"] == "plus_chase"
    proof = _proof_from_json(doc["proof"])
    assert proof.conclusion == parse_ind(tau)
    check_proof(proof, sigma, RuleSystem("ws"))


def test_entail_prints_its_proof_on_stderr_without_json(capsys, workspace):
    code, out, err = run(capsys, "entail", str(workspace / "ws.txt"),
                         "Grant[proj] <= Budget[proj]", "--monoid", "naturals")
    assert code == 0 and json.loads(out)["entailed"]
    assert err.startswith("Grant[proj] <= Budget[proj]   [weak_symmetry]\n")
