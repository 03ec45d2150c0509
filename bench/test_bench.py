"""Tests of the benchmark itself: corpora, oracles, tracer and contract.

    python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fiber_worker  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def corpus_bytes(workload, seed):
    return json.dumps(workloads.build(workload, seed), sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_corpus(workload):
    assert corpus_bytes(workload, 7) == corpus_bytes(workload, 7)
    assert corpus_bytes(workload, 7) != corpus_bytes(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_composition_is_fixed(workload):
    def shape(seed):
        corpus = workloads.build(workload, seed)
        items = corpus.get("ops") or corpus["first"] + corpus["round"]
        return sorted(r["tag"].split(":")[0] for r in items), len(items)

    assert shape(1) == shape(2) == shape(3)


def test_forests_stay_within_the_depth_limit():
    for seed in range(5):
        corpus = workloads.build("lattice-heavy", seed)
        for req in corpus["round"]:
            if req["kind"] != "klt":
                continue
            doc = corpus["docs"][req["tag"]]
            stack = [(n, 1) for n in doc["arrangement"]["clusters"]]
            while stack:
                node, depth = stack.pop()
                assert depth <= workloads.MAX_FOREST_DEPTH
                stack.extend((c, depth + 1) for c in node.get("children", []))


# -- oracles against the hand-checked values of tests/test_acceptance.py ------

def test_tango_oracle_hand_values():
    h33 = oracles.tango_expectation("hyperelliptic", 3, 3)
    assert (h33["v_inf"], h33["genus"], h33["n"], h33["bound"]) == (6, 4, 2, 2)
    assert h33["equality"] is True and h33["star"] is None
    as25 = oracles.tango_expectation("artinschreier", 2, 5)
    assert (as25["v_inf"], as25["genus"], as25["n"]) == (6, 4, 3)
    assert as25["equality"] is True and as25["star"] is True
    h53 = oracles.tango_expectation("hyperelliptic", 5, 3)
    assert (h53["v_inf"], h53["n"]) == (12, 2)
    plane = oracles.tango_expectation("tangoplane", 5, None)
    assert (plane["genus"], plane["n"], plane["v_inf"]) == (10, 3, None)


def test_construct_refusals_follow_the_star_gate():
    blocked = {"kind": "artinschreier", "p": 2, "h": 4}
    assert oracles.tango_expectation("artinschreier", 2, 4)["n"] == 2
    assert oracles.construct_refusal("semipos", blocked, False)
    assert oracles.construct_refusal("kollar", blocked, False)
    assert oracles.construct_refusal("kv", blocked, False) is None
    for h in (5, 8):
        fam = {"kind": "artinschreier", "p": 2, "h": h}
        for kind in ("kv", "kollar", "semipos"):
            assert oracles.construct_refusal(kind, fam, False) is None
    plane = {"kind": "tangoplane", "p": 3}
    assert oracles.construct_refusal("kv", plane, False)
    assert oracles.construct_refusal("kv", plane, True) is None


def test_klt_oracle_hand_values():
    triple = oracles.klt_walk({
        "branches": [{"id": "b1", "coefficient": "2/5"},
                     {"id": "b2", "coefficient": "4/5"},
                     {"id": "b3", "coefficient": "3/4"}],
        "clusters": [{"branches": ["b1", "b2", "b3"]}],
    })
    assert triple["verdict"] == "klt"
    assert Fraction(triple["max_exceptional"]) == Fraction(19, 20)
    tangent = oracles.klt_walk({
        "branches": [{"id": "b2", "coefficient": "4/5"},
                     {"id": "b3", "coefficient": "3/4"}],
        "clusters": [{"branches": ["b2", "b3"],
                      "children": [{"branches": ["b2", "b3"]}]}],
    })
    assert tangent["verdict"] == "not-klt"
    # the worst discrepancy is minus the largest coefficient
    assert -Fraction(tangent["max_exceptional"]) == Fraction(-11, 10)
    assert tangent["blowups"] == 2


def test_report_parsers_agree():
    machine = (
        "report command=tango format=svlab/1\n"
        'check name=family status=PASS kind=hyperelliptic curve="y^2 = x"\n'
        "exit code=0\n"
    )
    text = (
        "svlab tango\n"
        "family: PASS\n"
        "    kind: hyperelliptic\n"
        "    curve: y^2 = x\n"
        "exit 0\n"
    )
    a = oracles.parse_report(machine, "machine")
    b = oracles.parse_report(text, "text")
    assert oracles.normalized_checks(a) == oracles.normalized_checks(b)
    assert (a.command, a.exit_code) == (b.command, b.exit_code) == ("tango", 0)


def _run_cli(argv, tmp_path):
    from svlab.cli.main import main

    out = tmp_path / "report.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", ["cli-small", "lattice-heavy"])
def test_classify_and_klt_documents_reach_their_verdicts(workload, tmp_path):
    for seed in range(3):
        corpus = workloads.build(workload, seed)
        for req in corpus["round"]:
            if req["kind"] not in ("classify", "klt"):
                continue
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(corpus["docs"][req["tag"]]))
            argv = [str(path) if a.startswith("{doc:") else a
                    for a in req["argv"]]
            code, out = _run_cli(argv, tmp_path)
            oracles.check_request(req, code, out, "", {})


def test_fiber_oracle_accepts_the_library_and_rejects_tampering():
    import svlab.fibered as fibered
    import svlab.nonvanish as nonvanish

    corpus = workloads.build("fiber-trees", 3)
    for op in corpus["ops"][:6]:
        outcome = fiber_worker.run_op(
            op, fibered, nonvanish, lambda name: contextlib.nullcontext())
        oracles.check_fiber_op(op, outcome)
        outcome["contractions"] += 1
        with pytest.raises(oracles.OracleMismatch):
            oracles.check_fiber_op(op, outcome)


# -- tracer -------------------------------------------------------------------

def test_self_times_add_up_to_durations():
    spans = [
        ["root", 0, 100, -1, None],
        ["a", 10, 40, 0, None],
        ["b", 15, 25, 1, None],
        ["c", 50, 90, 0, None],
    ]
    selfs = tracer.self_times(spans)
    assert selfs == [30, 20, 10, 40]
    assert sum(selfs) == 100


def test_traced_request_self_times_cover_the_root(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans_path), "7", "--",
         "construct", "--family", "hyperelliptic", "--p", "3", "--h", "3",
         "--kind", "kv", "--format", "machine"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    dump = json.loads(spans_path.read_text())
    assert dump["request"] == "7" and dump["missing"] == []
    spans = dump["spans"]
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    for name, start, end, parent, _ in spans[1:]:
        assert spans[parent][1] <= start <= end <= spans[parent][2]
    selfs = tracer.self_times(spans)
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == spans[0][2] - spans[0][1]
    names = {s[0] for s in spans}
    assert {"tango.certify", "series.root", "construct.build",
            "construct.verify", "lattice.dot", "report.render"} <= names
    assert dump["counts"]["construct.checks"] > 0
    agg = tracer.Aggregate()
    agg.add(dump, "construct:Hyperelliptic-3-3:kv")
    metrics = agg.metrics(workloads.tango_labels())
    assert metrics["tango.certify_ms.Hyperelliptic-3-3"] > 0
    assert metrics["construct.kv_build_verify_ms"] > 0


def test_import_time_attribution():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |       _heapq",
        "import time:       100 |        150 |     heapq",
        "import time:       200 |        350 |   svlab.lattice",
        "import time:        30 |         30 |     concurrent.futures",
        "import time:        20 |         50 |   svlab.cli.sweep",
        "import time:        10 |        410 | svlab",
    ])
    self_us = tracer.import_self_us(sample)
    assert self_us == {"svlab.lattice": 350, "svlab.cli": 50, "svlab": 10}


# -- the command-line contract ---------------------------------------------------

def test_tail_has_ten_samples_above():
    values = list(range(30))
    value, pct = run.tail(values)
    assert sum(1 for v in values if v > value) == run.TAIL_ABOVE
    assert pct == pytest.approx(100 * 20 / 30)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
        assert 0 < m["bound"] <= 0.25
    units = run.per_layer_units()
    assert [m["name"] for m in spec["per_layer"]] == list(units)
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCHMARK.json", "bench"]
