"""End-to-end coverage for the command line: documents in, reports out.

Everything runs through main(argv) in-process except one subprocess
smoke test for the module entry point.  Machine-format lines are parsed
back into dicts so assertions hit fields, not byte offsets; the
round-trip and determinism tests compare raw bytes on purpose.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svlab.charpcurve.families import certify_tango, genus
from svlab.chiproduct import ChiProduct
from svlab.cli import rational, schema
from svlab.cli.arrangement import (
    _BRANCH,
    _BRANCH_KIND,
    _CLUSTER,
    _CLUSTER_CHILDREN,
)
from svlab.cli.family import (
    _CONSTRUCT,
    _CONSTRUCT_OPTIONAL,
    _FAMILY,
    _FAMILY_OPTIONAL,
)
from svlab.cli.main import build_parser, main
from svlab.cli.package import _PACKAGE_KEYS
from svlab.cli.report import PASS, Report, check, render_machine
from svlab.cli.scenario import _MODEL_OPTIONAL, _SCENARIO, _SCENARIO_OPTIONAL
from svlab.cli.sweep import _BOX, _SWEEP, SweepRequest, run_sweep
from svlab.construct import KINDS, PackageError, build_package
from svlab.kltcalc import ClusterArrangement, ClusterNode, WeightedBranch
from svlab.lattice import (
    CERTIFIED,
    InconsistentScenario,
    PreconditionError,
    RuledModel,
    certify_positivity,
    riemann_roch_nums,
)
from svlab.nonvanish import certify_chi_product

cli_main = importlib.import_module("svlab.cli.main")

_TOKEN = re.compile(r'([\w-]+)=("(?:[^"\\]|\\.)*"|\S+)')


def parse_line(line):
    head = line.split(" ", 1)[0]
    fields = {}
    for key, raw in _TOKEN.findall(line):
        fields[key] = json.loads(raw) if raw.startswith('"') else raw
    return head, fields


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def checks(out, name):
    found = []
    for line in out.splitlines():
        head, fields = parse_line(line)
        if head == "check" and fields.get("name") == name:
            found.append(fields)
    return found


KV_SCENARIO = {
    "format": "svlab/1",
    "request": "classify",
    "scenario": {
        "model": {"p": 3, "genus": 4, "e": -2},
        "kodaira": "-inf",
        "chi_o": -3,
        "q": 4,
        "relatively_minimal": True,
        "divisor": ["0", "6"],
        "boundary": [{"class": ["3", "-6"], "coefficient": "1/2"}],
    },
}

TRIPLE_DOC = {
    "format": "svlab/1",
    "request": "klt",
    "arrangement": {
        "branches": [
            {"id": "b1", "coefficient": "2/5"},
            {"id": "b2", "coefficient": "4/5"},
            {"id": "b3", "coefficient": "3/4"},
        ],
        "clusters": [{"branches": ["b1", "b2", "b3"]}],
    },
}

TANGENT_DOC = {
    "format": "svlab/1",
    "request": "klt",
    "arrangement": {
        "branches": [
            {"id": "b2", "coefficient": "4/5"},
            {"id": "b3", "coefficient": "3/4"},
        ],
        "clusters": [{
            "branches": ["b2", "b3"],
            "children": [{"branches": ["b2", "b3"]}],
        }],
    },
}

SWEEP_DOC = {
    "format": "svlab/1",
    "request": "sweep",
    "model": {"p": 3, "genus": 4, "e": -2},
    "box": {"a": [0, 5], "b": [-10, 20]},
    "boundary_coefficient": "1/2",
}


class TestSchemaRejection:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        doc = dict(KV_SCENARIO, surprise=1)
        code, out, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2
        assert "unknown keys" in err
        assert out == ""

    def test_unknown_nested_key(self, tmp_path, capsys):
        doc = json.loads(json.dumps(KV_SCENARIO))
        doc["scenario"]["model"]["q"] = 4
        code, _, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2
        assert "unknown keys" in err

    def test_decimal_rational_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(KV_SCENARIO))
        doc["scenario"]["boundary"][0]["coefficient"] = "0.5"
        code, _, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2
        assert "exact rational" in err

    def test_numeric_coefficient_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(KV_SCENARIO))
        doc["scenario"]["divisor"] = [0, 6]
        code, _, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2

    def test_wrong_format_tag(self, tmp_path, capsys):
        doc = dict(SWEEP_DOC, format="svlab/2")
        code, _, err = run(
            capsys, "sweep", "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2
        assert "svlab/1" in err

    def test_wrong_request_for_command(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "sweep",
            "--in", write_doc(tmp_path, "d.json", KV_SCENARIO),
        )
        assert code == 2
        assert "classify" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "classify", "--in", str(path))
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "classify", "--in", str(tmp_path / "absent.json"),
        )
        assert code == 2

    def test_missing_in_flag(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 2
        assert "--in" in err

    def test_declared_curves_is_an_unknown_key(self, tmp_path, capsys):
        # the scenario key no route read is gone from the schema
        doc = json.loads(json.dumps(KV_SCENARIO))
        doc["scenario"]["declared_curves"] = [["1", "0"]]
        code, out, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: scenario: unknown keys ['declared_curves'];"
            " this schema is strict\n"
        )

    @pytest.mark.parametrize("coefficients, field", [
        (["\u0660/3", "1/3\n"], "branches[0]"),
        (["0/3", "1/3\n"], "branches[1]"),
    ])
    def test_rational_is_ascii_with_nothing_around_it(
        self, tmp_path, capsys, coefficients, field
    ):
        # an Arabic-Indic zero and a trailing newline are not rationals
        doc = {
            "format": "svlab/1",
            "request": "klt",
            "arrangement": {
                "branches": [
                    {"id": "a", "coefficient": coefficients[0]},
                    {"id": "b", "coefficient": coefficients[1]},
                ],
                "clusters": [{"branches": ["a", "b"]}],
            },
        }
        code, out, err = run(
            capsys, "klt", "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            f"error: arrangement.{field}.coefficient: expected an exact"
            " rational"
        )


class TestClassify:
    def test_boundary_scenario(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "classify", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", KV_SCENARIO),
        )
        assert code == 0
        (cls,) = checks(out, "classification")
        assert cls["case"] == "C_M"
        assert cls["kodaira"] == "-inf"
        (dec,) = checks(out, "decision")
        assert dec["result"] == "m=1"
        assert dec["rule"] == "nonvanish.chi-product"
        assert dec["chi"] == "3"

    def test_structure_sheaf_scenario(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "classify",
            "scenario": {
                "model": {"p": 3, "genus": 0, "e": 1},
                "kodaira": "-inf",
                "chi_o": 1,
                "q": 0,
                "relatively_minimal": True,
                "divisor": ["0", "0"],
            },
        }
        code, out, _ = run(
            capsys, "classify", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0
        (cls,) = checks(out, "classification")
        assert cls["case"] == "A"
        (dec,) = checks(out, "decision")
        assert dec["result"] == "m=1"
        assert dec["rule"] == "nonvanish.structure-sheaf-euler"
        assert dec["chi"] == "1"

    def test_unknown_verdict_still_exits_zero(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "classify",
            "scenario": {
                "model": {"p": 3, "genus": 4, "e": -2},
                "kodaira": 1,
                "chi_o": -3,
                "q": 3,
                "relatively_minimal": True,
                "divisor": ["0", "1"],
            },
        }
        code, out, _ = run(
            capsys, "classify", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0
        (cls,) = checks(out, "classification")
        assert cls["case"] == "D_I"
        (dec,) = checks(out, "decision")
        assert dec["result"] == "unknown"
        assert "reason" in dec

    def test_inconsistent_scenario_is_an_input_error(
        self, tmp_path, capsys,
    ):
        doc = json.loads(json.dumps(KV_SCENARIO))
        doc["scenario"]["q"] = 7
        code, _, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2
        assert "irregularity" in err

    def test_ruled_chi_o_is_one_minus_the_genus(self, tmp_path, capsys):
        # a ruled surface over a rational curve has chi(O) = 1, and the
        # model has no key that could move it; chi(F) is 2, not 6
        doc = {
            "format": "svlab/1",
            "request": "classify",
            "scenario": {
                "model": {"p": 3, "genus": 0, "e": 1, "chi": 5},
                "kodaira": "-inf",
                "chi_o": 5,
                "q": 0,
                "relatively_minimal": True,
                "divisor": ["0", "1"],
            },
        }
        code, out, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: scenario.model: unknown keys ['chi'];"
            " this schema is strict\n"
        )
        del doc["scenario"]["model"]["chi"]
        code, out, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert (code, out) == (2, "")
        assert err == "error: declared chi(O) contradicts the lattice model\n"

    def test_divisor_that_is_not_nef_is_refused(self, tmp_path, capsys):
        # D = -100F: D.E = -100 < 0, so the fiber threshold must not fire
        doc = json.loads(json.dumps(KV_SCENARIO))
        doc["scenario"]["divisor"] = ["0", "-100"]
        del doc["scenario"]["boundary"]
        code, out, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2
        assert out == ""
        assert "the divisor is not nef" in err

    def test_boundary_class_that_meets_e_negatively_is_refused(
        self, tmp_path, capsys,
    ):
        # E.(2E - 3F) = -3 - 2e = -1 < 0, and E is nef on e < 0, so no
        # irreducible curve has this class
        doc = {"format": "svlab/1", "request": "classify", "scenario": {
            "model": {"p": 2, "genus": 3, "e": -1},
            "kodaira": "-inf", "chi_o": -2, "q": 3,
            "relatively_minimal": True, "divisor": ["0", "4"],
            "boundary": [{"class": ["2", "-3"], "coefficient": "1/2"}],
        }}
        code, out, err = run(
            capsys, "classify", "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert (code, out, err) == (
            2, "", "error: 2E + -3F cannot be a curve on this model\n"
        )

    @pytest.mark.parametrize("scenario, message", (
        # D = -3F is not nef, but nef(D) is undecided on a blown-up model,
        # so the euler-characteristic route runs and finds chi(D) = -2
        ({"model": {"p": 0, "genus": 0, "e": -1, "exceptionals": [[]]},
          "kodaira": "-inf", "chi_o": 1, "q": 0,
          "relatively_minimal": False, "divisor": ["0", "-3", "0"]},
         "chi = -2 cannot be nonpositive with these invariants"),
        ({"model": {"p": 0, "genus": 1, "e": -2, "exceptionals": [[]]},
          "kodaira": "-inf", "chi_o": 0, "q": 1,
          "relatively_minimal": False, "divisor": ["0", "1", "0"],
          "boundary": [
              {"class": ["1", "1", "0"], "coefficient": "3/4"},
              {"class": ["0", "1", "0"], "coefficient": "1/3"},
          ]},
         "(K-D).H = 17/12 must be negative when H is ample"),
    ))
    def test_euler_characteristic_refusals(self, tmp_path, capsys,
                                           scenario, message):
        doc = {"format": "svlab/1", "request": "classify",
               "scenario": scenario}
        code, out, err = run(
            capsys, "classify", "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


# values that no reader accepts for any key
_JUNK = (None, True, 1.5, -1, "x", "1.5", [], {}, [1])


def _drawn(rng, required, optional, values):
    """An object with every key of a reader's tables, each value drawn
    from the first pool of ``values``."""
    return {
        key: rng.choice(values[key][0])(rng)
        for key in (*required, *optional)
    }


def _fixed(*options):
    return tuple((lambda rng, value=value: value) for value in options)


def _coefficients(rank, *options):
    return (lambda rng: [rng.choice(options) for _ in range(rank)],)


def classify_document(rng):
    """A classify document drawn from the scenario reader's key tables:
    each key has a pool of consistent values and a pool of odd ones.
    Half the documents are consistent, so they reach decide; the others
    get one fault in one object: a key left out, a junk or odd value,
    or a key that no table lists."""
    g, k = rng.randint(0, 4), rng.randint(0, 2)
    rank = 2 + k
    values = {
        "p": (_fixed(2, 3, 5, 0), _fixed(4, 2 ** 16, -1)),
        "genus": (_fixed(g), _fixed(-1, g + 1)),
        "e": ((lambda rng: rng.randint(-g - 1, 2),), _fixed("2")),
        "exceptionals": (
            _fixed([[]] * k, [[], [0]][:k]), _fixed([[1]], [[], [0, 0]]),
        ),
        "kodaira": (_fixed("-inf", "-inf", "-inf", 0, 1, 2),
                    _fixed(3, -1, "inf")),
        "chi_o": (_fixed(1 - g), _fixed(-g, 2)),
        "q": (_fixed(g), _fixed(g + 1, -1)),
        "relatively_minimal": (_fixed(k == 0), _fixed(k != 0)),
        "divisor": (
            _coefficients(rank, "0", "1", "2", "3", "6", "-1", "-3"),
            _coefficients(rank + 1, "0") + _coefficients(rank, "1/2", "1.5"),
        ),
        "class": (
            _coefficients(rank, "0", "1", "2", "3", "-1", "-6"),
            _coefficients(rank, "0") + _coefficients(1, "1"),
        ),
        "coefficient": (_fixed("1/2", "3/4", "1/3"),
                        _fixed("1", "0", "-1/2", "3/2")),
        "kappa_minus_k_nonneg": (_fixed(None, True, False), _fixed(1)),
        "model": ((lambda rng: _drawn(
            rng, schema._PURE_MODEL, _MODEL_OPTIONAL, values,
        ),), _fixed([])),
        "boundary": ((lambda rng: [
            _drawn(rng, rational._BOUNDARY_ENTRY, {}, values)
            for _ in range(rng.randint(0, 2))
        ],), _fixed({})),
    }
    scenario = _drawn(rng, _SCENARIO, _SCENARIO_OPTIONAL, values)
    objects = [(scenario, _SCENARIO, _SCENARIO_OPTIONAL)]
    if isinstance(scenario["model"], dict):
        objects.append(
            (scenario["model"], schema._PURE_MODEL, _MODEL_OPTIONAL)
        )
    objects += [(entry, rational._BOUNDARY_ENTRY, {})
                for entry in scenario.get("boundary", ())]
    _one_fault_or_none(rng, objects, values)
    return {"format": "svlab/1", "request": "classify",
            "scenario": scenario}


def _one_fault_or_none(rng, objects, values):
    """Half the time, one fault in one of ``objects`` (see ``_one_fault``)."""
    if rng.random() < 0.5:
        _one_fault(rng, objects, values)


def _one_fault(rng, objects, values):
    """One fault in one of ``objects``, each an (object, required keys,
    optional keys) triple: a key left out, a junk or odd value, or a key
    that no table lists."""
    obj, required, optional = rng.choice(objects)
    key = rng.choice((*required, *optional))
    fault = rng.randrange(4)
    if fault == 0:
        obj.pop(key, None)
    elif fault == 1:
        obj[key] = rng.choice(_JUNK)
    elif fault == 2:
        obj[key] = rng.choice(values[key][1])(rng)
    else:
        obj["surprise"] = 1


def _cluster_node(rng, ids, depth):
    """A cluster node through ``ids`` (two or more); its children take
    disjoint pairs of those ids, so the forest is consistent."""
    node = {"branches": ids}
    if depth and rng.random() < 0.6:
        rest = rng.sample(ids, len(ids))
        children = []
        while len(rest) >= 2 and rng.random() < 0.7:
            pair, rest = rest[:2], rest[2:]
            children.append(_cluster_node(rng, pair, depth - 1))
        node["children"] = children
    return node


def klt_document(rng):
    """A klt document drawn from the arrangement reader's key tables, as
    ``classify_document`` draws a classify document: up to five branches
    and a forest of up to three roots, each node through ids of its
    parent and disjoint from its siblings.  Half the documents are
    consistent; the others get one fault, a duplicated branch id among
    them."""
    values = {
        "id": (_fixed("b"), _fixed("")),
        "coefficient": (_fixed("0", "1/2", "1/3", "2/5", "3/4", "5/6"),
                        _fixed("1", "-1/2", "3/2", "0.5", "2/4")),
        "kind": (_fixed("original", "original", "exceptional"),
                 _fixed("other", "")),
        "branches": (None, _fixed(["b0"], ["b0", "b0"], ["b0", "zz"], [])),
        "children": (None, _fixed([{}], [{"branches": ["b0"]}], "x")),
    }
    branches = [_drawn(rng, _BRANCH, _BRANCH_KIND, values)
                for _ in range(rng.randint(1, 5))]
    for i, branch in enumerate(branches):
        branch["id"] = f"b{i}"
    ids = [branch["id"] for branch in branches]
    clusters = [
        _cluster_node(rng, rng.sample(ids, rng.randint(2, len(ids))), 2)
        for _ in range(rng.randint(0, 3) if len(ids) >= 2 else 0)
    ]
    if rng.random() < 0.5:
        if len(ids) >= 2 and rng.random() < 0.25:
            i, j = rng.sample(range(len(ids)), 2)
            branches[j]["id"] = ids[i]
        else:
            objects = [(branch, _BRANCH, _BRANCH_KIND) for branch in branches]
            stack = list(clusters)
            while stack:
                node = stack.pop()
                objects.append((node, _CLUSTER, _CLUSTER_CHILDREN))
                stack.extend(node.get("children", ()))
            _one_fault(rng, objects, values)
    return {"format": "svlab/1", "request": "klt",
            "arrangement": {"branches": branches, "clusters": clusters}}


def _span(lowest, highest, longest):
    """A pool of [low, high] ranges of at most ``longest`` integers,
    empty ones included, with low drawn from [lowest, highest]."""
    def draw(rng):
        low = rng.randint(lowest, highest)
        return [low, low + rng.randint(-1, longest - 1)]
    return (draw,)


def sweep_document(rng):
    """A sweep document drawn from the sweep reader's key tables, as
    ``classify_document`` draws a classify document.  A consistent
    document's box has at most 4 x 9 entries."""
    values = {
        "p": (_fixed(2, 3, 5), _fixed(0, 4, 2 ** 16, -1)),
        "genus": (_fixed(rng.randint(0, 5)), _fixed(-1)),
        "e": (_fixed(-1, -1, -2), _fixed(0, 1, "-1")),
        "a": (_span(-1, 4, 4),
              _fixed([0], [0, 1, 2], ["0", "1"], [0, 10 ** 6])),
        "b": (_span(-2, 14, 9), _fixed([True, 2], [0, 1.5], [-(10 ** 6), 0])),
        "boundary_coefficient": (_fixed("1/2", "1/3", "3/4", "2/5"),
                                 _fixed("1", "0", "-1/2", "3/2", "0.5")),
        "model": ((lambda rng: _drawn(rng, schema._PURE_MODEL, {}, values),),
                  _fixed([], "x")),
        "box": ((lambda rng: _drawn(rng, _BOX, {}, values),),
                _fixed([[0, 1], [0, 1]])),
    }
    doc = {"format": "svlab/1", "request": "sweep",
           **_drawn(rng, _SWEEP, {}, values)}
    objects = [(doc, _SWEEP, {})]
    objects += [(doc[key], table, {}) for key, table in (
        ("model", schema._PURE_MODEL), ("box", _BOX),
    ) if isinstance(doc[key], dict)]
    _one_fault_or_none(rng, objects, values)
    return doc


def _exit_code_contract(argv):
    """Exit 0 or 1 with a report, or exit 2 with one error line and
    nothing on stdout; no exception escapes main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue())
    else:
        assert err.getvalue() == ""


class TestClassifyFuzz:
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(st.randoms(use_true_random=True))
    def test_exit_code_contract(self, tmp_path_factory, rng):
        path = write_doc(tmp_path_factory.getbasetemp(), "fuzz.json",
                         classify_document(rng))
        _exit_code_contract(["classify", "--in", path])


class TestKltFuzz:
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=timedelta(seconds=2))
    @given(st.randoms(use_true_random=True))
    def test_exit_code_contract(self, tmp_path_factory, rng):
        path = write_doc(tmp_path_factory.getbasetemp(), "klt-fuzz.json",
                         klt_document(rng))
        _exit_code_contract(["klt", "--in", path])


def _reference_arrangement(data):
    """A recursive klt reader built here from the schema's generic
    pieces: the reference for the reader's iterative cluster walk and
    the paths it gives each child."""
    def branch(value):
        fields = schema._object(
            value, {"id": str, "coefficient": rational.parse_ratio},
            {"kind": (str, None)},
        )
        kind = "original" if fields["kind"] is None else fields["kind"]
        if kind not in ("original", "exceptional"):
            raise schema.SchemaError(
                "expected 'original' or 'exceptional'", [".kind"],
            )
        return WeightedBranch(fields["id"], *fields["coefficient"], kind)

    def cluster(value):
        fields = schema._object(value, {"branches": schema._list_of(str)},
                                {"children": (schema._list_of(cluster), ())})
        return ClusterNode(tuple(fields["branches"]),
                           tuple(fields["children"]))

    top = schema._top(data, "klt", {"arrangement": schema._value})
    fields = schema._at("arrangement", schema._object, top["arrangement"], {
        "branches": schema._list_of(branch),
    }, {
        "clusters": (schema._list_of(cluster), []),
    })
    return ClusterArrangement(tuple(fields["branches"]),
                              tuple(fields["clusters"]))


_MISSING = object()
# (key, value) edits of one item; _MISSING drops the key
_BRANCH_EDITS = (
    ("id", _MISSING), ("id", 3), ("id", None), ("id", ["b0"]), ("id", ""),
    ("id", "b0"), ("coefficient", _MISSING), ("coefficient", "1/0"),
    ("coefficient", "0.5"), ("coefficient", ".5"), ("coefficient", 0.5),
    ("coefficient", 1), ("coefficient", "1"), ("coefficient", "2/4"),
    ("coefficient", "-3/2"), ("coefficient", "1/2 "), ("coefficient", "+1"),
    ("kind", None), ("kind", "other"), ("kind", 3), ("kind", "exceptional"),
    ("kind", "original"), ("extra", 1),
)
_CLUSTER_EDITS = (
    ("branches", _MISSING), ("branches", "b0"), ("branches", None),
    ("branches", ["b0", 3]), ("branches", [None]), ("branches", []),
    ("branches", ["b0"]), ("children", None), ("children", "x"),
    ("children", {}), ("children", []), ("children", [3]), ("extra", 1),
)
_NOT_AN_OBJECT = (3, "x", None, True, [], [{}])


def _chain_node(ids, depth):
    node = {"branches": list(ids)}
    for _ in range(depth - 1):
        node = {"branches": list(ids), "children": [node]}
    return node


def mutated_klt_document(rng):
    """A seeded klt document, wide roots and chains up to 40 deep, with
    up to two faults: a missing, junk or extra key in a branch or a
    cluster node, an item that is not an object, or a bad top-level
    array.  The deepest node of the document draws a quarter of the
    faults."""
    count = rng.randint(2, 6)
    branches = []
    for i in range(count):
        branch = {"id": f"b{i}", "coefficient": rng.choice(
            ("0", "1/2", "1/3", "2/5", "3/4", "5/6", "7/12"))}
        if rng.random() < 0.3:
            branch["kind"] = rng.choice(("original", "exceptional"))
        branches.append(branch)
    ids = [branch["id"] for branch in branches]
    clusters = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            clusters.append(
                {"branches": rng.sample(ids, rng.randint(2, min(3, count)))})
        else:
            clusters.append(_chain_node(rng.sample(ids, 2),
                                        rng.randint(1, 40)))
    arrangement = {"branches": branches, "clusters": clusters}
    # every item as (container, index, edits), the deepest node last
    slots = [(branches, i, _BRANCH_EDITS) for i in range(len(branches))]
    stack = [(clusters, i) for i in range(len(clusters))]
    while stack:
        container, i = stack.pop()
        slots.append((container, i, _CLUSTER_EDITS))
        stack.extend((container[i].get("children", []), j)
                     for j in range(len(container[i].get("children", []))))
    for _ in range(rng.choice((0, 1, 1, 2))):
        fault = rng.random()
        if fault < 0.05:
            arrangement[rng.choice(("branches", "clusters"))] = rng.choice(
                _NOT_AN_OBJECT[:4] + ({},))
            continue
        container, i, edits = (slots[-1] if fault < 0.3
                               else rng.choice(slots))
        if fault > 0.85 or not isinstance(container[i], dict):
            container[i] = rng.choice(_NOT_AN_OBJECT)
            continue
        key, value = rng.choice(edits)
        if value is _MISSING:
            container[i].pop(key, None)
        else:
            container[i][key] = value
    return {"format": "svlab/1", "request": "klt",
            "arrangement": arrangement}


def _read_outcome(reader, data):
    """What ``reader`` makes of ``data``: an arrangement, or the type and
    message of its refusal."""
    try:
        return reader(data)
    except ValueError as ex:
        return type(ex), str(ex)


class TestKltReaderDifferential:
    """The klt reader walks the cluster forest with its own stack and
    formats each child's path as it goes; on every document it must
    return what the recursive reference returns, or refuse with the
    same error."""

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(st.randoms(use_true_random=True))
    def test_matches_the_generic_reader(self, rng):
        doc = mutated_klt_document(rng)
        expected = _read_outcome(_reference_arrangement,
                                 json.loads(json.dumps(doc)))
        assert _read_outcome(schema.arrangement_from_document, doc) == (
            expected
        )


class TestSweepFuzz:
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(st.randoms(use_true_random=True))
    def test_exit_code_contract(self, tmp_path_factory, rng):
        path = write_doc(tmp_path_factory.getbasetemp(), "sweep-fuzz.json",
                         sweep_document(rng))
        _exit_code_contract(["sweep", "--in", path])


_NOT_A_RATIONAL = "expected an exact rational like \"3\" or \"-9/2\""


class TestCoefficientBoundaries:
    """The klt and sweep layers take a coefficient as an int numerator
    over a positive int denominator.  A document cannot give them a
    zero or negative denominator, which the reader refuses at the
    value's path, and a coefficient out of range is refused as it was
    when the layers took Fractions; each exits 2."""

    @pytest.mark.parametrize("text, error", (
        ("1/0", f"arrangement.branches[1].coefficient: {_NOT_A_RATIONAL},"
                " got '1/0'"),
        ("1/-2", f"arrangement.branches[1].coefficient: {_NOT_A_RATIONAL},"
                 " got '1/-2'"),
        ("5/5", "original branch 'b2' needs coefficient in [0, 1)"),
        ("6/4", "original branch 'b2' needs coefficient in [0, 1)"),
        ("-1/3", "original branch 'b2' needs coefficient in [0, 1)"),
    ))
    def test_klt(self, text, error, tmp_path, capsys):
        doc = json.loads(json.dumps(TRIPLE_DOC))
        doc["arrangement"]["branches"][1]["coefficient"] = text
        assert run(
            capsys, "klt", "--in", write_doc(tmp_path, "d.json", doc),
        ) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("text, error", (
        ("1/0", f"document.boundary_coefficient: {_NOT_A_RATIONAL},"
                " got '1/0'"),
        ("1/-2", f"document.boundary_coefficient: {_NOT_A_RATIONAL},"
                 " got '1/-2'"),
        *((text, "boundary_coefficient: expected a value strictly between"
                 " 0 and 1") for text in ("0", "0/3", "2/2", "6/4", "-1/2")),
    ))
    def test_sweep(self, text, error, tmp_path, capsys):
        doc = dict(SWEEP_DOC, boundary_coefficient=text)
        assert run(
            capsys, "sweep", "--in", write_doc(tmp_path, "d.json", doc),
        ) == (2, "", f"error: {error}\n")


# small values a family accepts, and odd ones around the caps: the
# largest prime below 2**16, the cap itself and one above it, and each h
# that puts a family's genus over MAX_GENUS; no accepted draw comes near
# the genus cap, whose certificate takes about 2 s
_FLAG_P = ((3, 5, 7, 11, 13),
           (2, -1, 0, 1, 4, 9, 65521, 2 ** 16, 2 ** 16 + 1, 10 ** 24 + 7))
_FLAG_H = ((3, 5, 7, 9), (-3, 0, 1, 2, 4, 20_002, 40_001, 10 ** 12))


def family_flags(rng):
    """A tango or construct command line of family flags, each value
    one argparse accepts."""
    command = rng.choice(("tango", "construct"))
    argv = [command]
    family = rng.choice((None, *schema.FAMILY_KINDS * 3))
    if family is not None:
        argv += ["--family", family]
    if rng.random() < 0.9:
        argv += ["--p", str(rng.choice(_FLAG_P[rng.random() < 0.3]))]
    if rng.random() < (0.2 if family == "tangoplane" else 0.9):
        argv += ["--h", str(rng.choice(_FLAG_H[rng.random() < 0.3]))]
    if command == "construct":
        if rng.random() < 0.9:
            argv += ["--kind", rng.choice(KINDS)]
        if rng.random() < 0.5:
            argv.append("--allow-asserted")
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(("text", "machine"))]
    return argv


class TestFamilyFlagFuzz:
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=timedelta(seconds=2))
    @given(st.randoms(use_true_random=True))
    def test_exit_code_contract(self, rng):
        _exit_code_contract(family_flags(rng))


def _classes(*extra):
    """A pool of rank-2 classes, and ``extra`` shapes."""
    return (*_coefficients(2, "0", "1", "3", "-6", "1/2"), *_fixed(*extra))


def family_document_request(rng):
    """A tango, construct or verify command and its document, drawn from
    the family, construct and package readers' key tables as
    ``classify_document`` draws a classify document.  A tango or
    construct family draws p and h from the flag fuzz's pools, so no
    accepted draw comes near the genus cap; a verify document is a built
    package of a ladder family.  Half the documents get one fault."""
    values = {
        "kind": ((lambda rng: rng.choice(KINDS),),
                 _fixed("", "other", *schema.FAMILY_KINDS)),
        "p": (_fixed(*_FLAG_P[0]), _fixed(*_FLAG_P[1])),
        "h": (_fixed(*_FLAG_H[0]), _fixed(*_FLAG_H[1])),
        "allow_asserted": (_fixed(True, False), _fixed(1, "true")),
        "family": (None, _fixed(
            {"kind": "hyperelliptic", "p": 5, "h": 3},
            {"kind": "artinschreier", "p": 2, "h": 5},
            {"kind": "tangoplane", "p": 5}, {"kind": "tangoplane"},
        )),
        "section_curve": (None, _classes(["3"], None)),
        "boundary": (None, _fixed(
            [], [{"class": ["1", "0"], "coefficient": "1/2"}] * 2,
        )),
        "divisor": (None, _classes(["0", "6", "0"], None)),
        "h_class": (None, _classes(["1/2"], None)),
        "base_twist_degree": (None, _fixed(None, "0", "1", "-1/2")),
        "member_class": (None, _classes(None)),
        "member_coefficient": (None, _fixed(None, "0", "1/3", "1")),
        "shifted_divisor": (None, _classes(None)),
        "class": (None, _classes(["1"])),
        "coefficient": (None, _fixed("0", "1", "1/3", "3/2")),
    }
    command = rng.choice(("tango", "construct", "verify"))
    if command == "verify":
        name, p, h = rng.choice(LADDER + (("tangoplane", 3, None),))
        cert = certify_tango(schema.family_from_fields(name, p, h))
        try:
            pkg = build_package(rng.choice(KINDS), cert, allow_asserted=True)
        except PackageError:  # p = 2 with 3 not dividing n
            pkg = build_package("kv", cert, allow_asserted=True)
        doc = schema.package_to_document(pkg)
        package, family = doc["package"], doc["package"]["family"]
        objects = [(package, ("kind", "family", *_PACKAGE_KEYS), {})]
        objects += [(entry, rational._BOUNDARY_ENTRY, {})
                    for entry in package["boundary"]]
    else:
        family = _drawn(rng, _FAMILY, _FAMILY_OPTIONAL, {
            **values, "kind": (_fixed(*schema.FAMILY_KINDS),),
        })
        if family["kind"] == "tangoplane" and rng.random() < 0.8:
            del family["h"]
        doc = {"format": "svlab/1", "request": command, "family": family}
        tables = (("family",), {})
        if command == "construct":
            tables = (_CONSTRUCT, _CONSTRUCT_OPTIONAL)
            doc.update(_drawn(rng, ("kind",), tables[1], values))
        objects = [(doc, *tables)]
    objects.append((family, _FAMILY, _FAMILY_OPTIONAL))
    _one_fault_or_none(rng, objects, values)
    return [command, "--in"], doc


class TestFamilyDocumentFuzz:
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=timedelta(seconds=2))
    @given(st.randoms(use_true_random=True))
    def test_exit_code_contract(self, tmp_path_factory, rng):
        argv, doc = family_document_request(rng)
        path = write_doc(tmp_path_factory.getbasetemp(),
                         "family-fuzz.json", doc)
        _exit_code_contract(argv + [path])


class TestExceptionalPoints:
    @staticmethod
    def doc(exceptionals):
        return {
            "format": "svlab/1",
            "request": "classify",
            "scenario": {
                "model": {"p": 3, "genus": 4, "e": -2,
                          "exceptionals": exceptionals},
                "kodaira": "-inf",
                "chi_o": -3,
                "q": 4,
                "relatively_minimal": False,
                "divisor": ["0"] * (2 + len(exceptionals)),
            },
        }

    def test_model_is_built_once(self, monkeypatch):
        # one construction checks every point once; a construction per
        # point would check them all again each time, O(k^2) in total
        built = []
        post_init = RuledModel.__post_init__

        def counted(model):
            built.append(model)
            post_init(model)

        monkeypatch.setattr(RuledModel, "__post_init__", counted)
        # free points, then points on one or two earlier exceptionals
        points = [[]] * 20 + [[i] for i in range(15)] + [
            [i, i + 1] for i in range(20, 35)
        ]
        scenario = schema.scenario_from_document(self.doc(points))
        assert len(built) == 1
        assert scenario.model.rank == 52

    @pytest.mark.parametrize("exceptionals, message", (
        ([[], [1]], "proximity must point at an earlier exceptional"),
        ([[], [0, 0]], "duplicate proximity target"),
    ))
    def test_proximity_refusals(self, tmp_path, capsys, exceptionals,
                                message):
        code, out, err = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", self.doc(exceptionals)),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestCharacteristicCap:
    """Primality is checked by trial division, so every p the schema
    accepts is capped; 10**24 + 7 would otherwise hang the run."""

    HUGE = 10 ** 24 + 7

    def refused(self, capsys, where, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {where}: expected a characteristic")

    def test_scenario_model(self, tmp_path, capsys):
        doc = json.loads(json.dumps(KV_SCENARIO))
        doc["scenario"]["model"]["p"] = self.HUGE
        self.refused(capsys, "scenario.model.p", "classify",
                     "--in", write_doc(tmp_path, "d.json", doc))

    def test_sweep_model(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["model"]["p"] = self.HUGE
        self.refused(capsys, "document.model.p", "sweep",
                     "--in", write_doc(tmp_path, "d.json", doc))

    def test_family_document(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "tango",
            "family": {"kind": "hyperelliptic", "p": self.HUGE, "h": 3},
        }
        self.refused(capsys, "document.family.p", "tango",
                     "--in", write_doc(tmp_path, "d.json", doc))

    def test_family_flag(self, capsys):
        self.refused(capsys, "--p", "tango", "--family", "hyperelliptic",
                     "--p", str(self.HUGE), "--h", "3")

    def test_package_model(self, tmp_path, capsys):
        emitted = tmp_path / "kv.json"
        code, _, _ = run(
            capsys, "construct", "--kind", "kv", "--family",
            "hyperelliptic", "--p", "3", "--h", "3", "--emit", str(emitted),
        )
        assert code == 0
        doc = json.loads(emitted.read_text(encoding="utf-8"))
        # the package's model is the surface over its family
        doc["package"]["family"]["p"] = self.HUGE
        self.refused(capsys, "package.family.p", "verify",
                     "--in", write_doc(tmp_path, "d.json", doc))

    def test_largest_prime_below_the_cap_is_accepted(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "classify",
            "scenario": {
                "model": {"p": 65521, "genus": 0, "e": 1},
                "kodaira": "-inf",
                "chi_o": 1,
                "q": 0,
                "relatively_minimal": True,
                "divisor": ["0", "0"],
            },
        }
        code, _, _ = run(
            capsys, "classify",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0


class TestGenusCap:
    """Certifying a curve expands series to a precision of about 4g, so
    the genus of every family a request names is capped; h = 99999999999
    would otherwise exhaust memory."""

    def refused(self, capsys, family, g, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {family} has genus {g}; expected a genus of at"
            f" most {schema.MAX_GENUS}\n"
        )

    def test_artin_schreier_at_the_cap_is_accepted(self):
        # with p = 2 the genus is h - 1
        family = schema.family_from_fields("artinschreier", 2, 20001)
        assert genus(family) == schema.MAX_GENUS

    def test_one_above_the_cap_is_refused(self, capsys):
        self.refused(capsys, "ArtinSchreier(p=2, h=20002)", 20001,
                     "tango", "--family", "artinschreier", "--p", "2",
                     "--h", "20002")

    def test_huge_h_is_refused(self, capsys):
        self.refused(capsys, "Hyperelliptic(p=3, h=99999999999)",
                     149999999998, "tango", "--family", "hyperelliptic",
                     "--p", "3", "--h", "99999999999")

    def test_family_without_h(self, capsys):
        self.refused(capsys, "TangoPlane(p=211)", 22155,
                     "tango", "--family", "tangoplane", "--p", "211")

    def test_family_document(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "construct",
            "kind": "kv",
            "family": {"kind": "artinschreier", "p": 65521, "h": 3},
        }
        self.refused(capsys, "ArtinSchreier(p=65521, h=3)", 6439338360,
                     "construct", "--in", write_doc(tmp_path, "d.json", doc))

    def test_package_certificate(self, tmp_path, capsys):
        emitted = tmp_path / "kv.json"
        code, _, _ = run(
            capsys, "construct", "--kind", "kv", "--family",
            "hyperelliptic", "--p", "3", "--h", "3", "--emit", str(emitted),
        )
        assert code == 0
        doc = json.loads(emitted.read_text(encoding="utf-8"))
        # the package's certificate is recomputed from its family
        doc["package"]["family"]["h"] = 99999999999
        self.refused(capsys, "Hyperelliptic(p=3, h=99999999999)",
                     149999999998,
                     "verify", "--in", write_doc(tmp_path, "d.json", doc))


class TestKlt:
    def test_triple_point(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "klt", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", TRIPLE_DOC),
        )
        assert code == 0
        (verdict,) = checks(out, "klt-verdict")
        assert verdict["verdict"] == "klt"
        assert verdict["max_exceptional"] == "19/20"
        (rec,) = checks(out, "blowup")
        assert rec["node"] == "n0"
        assert rec["coefficient"] == "19/20"

    def test_tangent_pair_not_klt_exits_zero(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "klt", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", TANGENT_DOC),
        )
        assert code == 0
        records = checks(out, "blowup")
        assert [r["node"] for r in records] == ["n0", "n0.0"]
        assert records[1]["coefficient"] == "11/10"
        (verdict,) = checks(out, "klt-verdict")
        assert verdict["verdict"] == "not-klt"
        assert verdict["min_discrepancy"] == "-11/10"

    def test_empty_arrangement(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "klt",
            "arrangement": {"branches": []},
        }
        code, out, _ = run(
            capsys, "klt", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0
        (verdict,) = checks(out, "klt-verdict")
        assert verdict["verdict"] == "klt"
        assert "max_exceptional" not in verdict

    def test_chain_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        depth = 400
        node = {"branches": ["b2", "b3"]}
        for _ in range(depth - 1):
            node = {"branches": ["b2", "b3"], "children": [node]}
        doc = {
            "format": "svlab/1",
            "request": "klt",
            "arrangement": {
                "branches": [
                    {"id": "b2", "coefficient": "1/4"},
                    {"id": "b3", "coefficient": "1/4"},
                ],
                "clusters": [node],
            },
        }
        code, out, _ = run(
            capsys, "klt", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0
        records = checks(out, "blowup")
        assert len(records) == depth
        # each blow-up adds 1/4 + 1/4 - 1 to the parent's coefficient
        assert records[-1]["coefficient"] == str(-depth // 2)
        (verdict,) = checks(out, "klt-verdict")
        assert verdict["verdict"] == "klt"
        assert verdict["max_exceptional"] == "-1/2"

    def test_nesting_beyond_the_decoder_is_an_input_error(
        self, tmp_path, capsys,
    ):
        depth = 100_000
        path = tmp_path / "d.json"
        path.write_text(
            '{"format": "svlab/1", "request": "klt", "arrangement":'
            ' {"branches": [], "clusters": ' + "[" * depth + "]" * depth
            + "}}",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "klt", "--in", str(path))
        assert code == 2
        assert out == ""
        assert "nested deeper" in err

    def test_unknown_branch_in_cluster(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TRIPLE_DOC))
        doc["arrangement"]["clusters"][0]["branches"] = ["b1", "ghost"]
        code, _, err = run(
            capsys, "klt",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2


class TestTango:
    def test_hyperelliptic_via_flags(self, capsys):
        code, out, _ = run(
            capsys, "tango", "--format", "machine",
            "--family", "hyperelliptic", "--p", "3", "--h", "3",
        )
        assert code == 0
        (inv,) = checks(out, "invariant")
        assert inv["n"] == "2"
        assert inv["v_inf"] == "6"
        (bound,) = checks(out, "genus-bound")
        assert bound == {
            "name": "genus-bound", "status": "PASS",
            "genus": "4", "bound": "2", "equality": "true",
        }
        assert checks(out, "star-condition") == []

    def test_artin_schreier_star(self, capsys):
        code, out, _ = run(
            capsys, "tango", "--format", "machine",
            "--family", "artinschreier", "--p", "2", "--h", "5",
        )
        assert code == 0
        (star,) = checks(out, "star-condition")
        assert star["value"] == "true"
        (wit,) = checks(out, "witness")
        assert wit["value"] == "y"
        assert wit["provenance"] == "computed"

    def test_tangoplane_catalogue(self, capsys):
        code, out, _ = run(
            capsys, "tango", "--format", "machine",
            "--family", "tangoplane", "--p", "5",
        )
        assert code == 0
        (inv,) = checks(out, "invariant")
        assert inv["n"] == "3"
        assert "v_inf" not in inv
        (wit,) = checks(out, "witness")
        assert wit["provenance"] == "asserted"

    def test_even_h_rejected(self, capsys):
        code, _, err = run(
            capsys, "tango",
            "--family", "hyperelliptic", "--p", "3", "--h", "4",
        )
        assert code == 2

    def test_tangoplane_refuses_h(self, capsys):
        code, _, err = run(
            capsys, "tango",
            "--family", "tangoplane", "--p", "5", "--h", "3",
        )
        assert code == 2

    def test_flags_and_document_conflict(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "tango",
            "family": {"kind": "hyperelliptic", "p": 3, "h": 3},
        }
        code, _, err = run(
            capsys, "tango",
            "--in", write_doc(tmp_path, "d.json", doc),
            "--family", "hyperelliptic", "--p", "3", "--h", "3",
        )
        assert code == 2
        assert "not both" in err

    def test_document_form(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "tango",
            "family": {"kind": "artinschreier", "p": 3, "h": 3},
        }
        code, out, _ = run(
            capsys, "tango", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0
        (inv,) = checks(out, "invariant")
        assert inv["n"] == "4"

    def test_no_source_at_all(self, capsys):
        code, _, err = run(capsys, "tango")
        assert code == 2


GRID = (
    ("kv", "hyperelliptic", "3", "3"),
    ("kv", "hyperelliptic", "5", "3"),
    ("kv", "artinschreier", "2", "5"),
    ("kv", "artinschreier", "3", "3"),
    ("kollar", "hyperelliptic", "3", "3"),
    ("kollar", "artinschreier", "2", "5"),
    ("semipos", "hyperelliptic", "5", "3"),
    ("semipos", "hyperelliptic", "3", "3"),
    ("semipos", "artinschreier", "2", "5"),
)


class TestConstruct:
    @pytest.mark.parametrize("kind,family,p,h", GRID)
    def test_grid_builds_valid(self, capsys, kind, family, p, h):
        code, out, _ = run(
            capsys, "construct", "--format", "machine",
            "--kind", kind, "--family", family, "--p", p, "--h", h,
        )
        assert code == 0
        (valid,) = checks(out, "package-valid")
        assert valid["status"] == "PASS"
        assert checks(out, "class-identity")[0]["status"] == "PASS"

    def test_kollar_star_gate(self, capsys):
        code, _, err = run(
            capsys, "construct", "--kind", "kollar",
            "--family", "artinschreier", "--p", "2", "--h", "4",
        )
        assert code == 2
        assert "3 | n" in err

    def test_semipos_star_gate(self, capsys):
        code, _, err = run(
            capsys, "construct", "--kind", "semipos",
            "--family", "artinschreier", "--p", "2", "--h", "4",
        )
        assert code == 2

    def test_kv_survives_the_star_gate(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--format", "machine", "--kind", "kv",
            "--family", "artinschreier", "--p", "2", "--h", "4",
        )
        assert code == 0
        (valid,) = checks(out, "package-valid")
        assert valid["status"] == "PASS"

    def test_asserted_certificate_needs_the_flag(self, capsys):
        code, _, err = run(
            capsys, "construct", "--kind", "kv",
            "--family", "tangoplane", "--p", "5",
        )
        assert code == 2
        assert "allow_asserted" in err

    def test_asserted_certificate_with_the_flag(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--format", "machine",
            "--kind", "kv", "--family", "tangoplane", "--p", "5",
            "--allow-asserted",
        )
        assert code == 0
        (head,) = checks(out, "package")
        assert head["family"] == "tangoplane"
        assert head["n"] == "3"

    def test_kind_is_required_with_flags(self, capsys):
        code, _, err = run(
            capsys, "construct",
            "--family", "hyperelliptic", "--p", "3", "--h", "3",
        )
        assert code == 2
        assert "--kind" in err

    def test_document_form(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "construct",
            "kind": "kollar",
            "family": {"kind": "artinschreier", "p": 3, "h": 3},
        }
        code, out, _ = run(
            capsys, "construct", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0
        (head,) = checks(out, "package")
        assert head["kind"] == "kollar"
        (twist,) = checks(out, "base-twist-matches")
        assert twist["status"] == "PASS"

    def test_document_kind_conflict(self, tmp_path, capsys):
        doc = {
            "format": "svlab/1",
            "request": "construct",
            "kind": "kollar",
            "family": {"kind": "hyperelliptic", "p": 3, "h": 3},
        }
        code, _, err = run(
            capsys, "construct", "--kind", "kv",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2
        assert "contradicts" in err


# the curve families of the benchmark's curve-ladder workload
LADDER = (
    ("hyperelliptic", 3, 3), ("artinschreier", 2, 5),
    ("artinschreier", 2, 8), ("artinschreier", 3, 3),
    ("hyperelliptic", 5, 3), ("artinschreier", 3, 4),
    ("hyperelliptic", 3, 7), ("hyperelliptic", 7, 3),
    ("hyperelliptic", 5, 5), ("artinschreier", 3, 5),
    ("artinschreier", 3, 8), ("artinschreier", 5, 3),
    ("artinschreier", 5, 4),
)


class TestRoundTrip:
    @pytest.mark.parametrize("family,p,h", LADDER)
    @pytest.mark.parametrize("kind", KINDS)
    def test_document_gives_back_the_built_package(self, kind, family, p, h):
        cert = certify_tango(schema.family_from_fields(family, p, h))
        pkg = build_package(kind, cert)
        doc = schema.package_to_document(pkg)
        assert schema.package_from_document(doc) == pkg

    def emit(self, tmp_path, capsys, kind, family, p, h):
        emitted = tmp_path / f"{kind}-{family}-{p}-{h or 0}.json"
        argv = [
            "construct", "--format", "machine",
            "--kind", kind, "--family", family, "--p", p,
            "--emit", str(emitted),
        ]
        if h is not None:
            argv += ["--h", h]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return emitted, out

    @pytest.mark.parametrize("kind,family,p,h", GRID)
    def test_verify_reproduces_construct(
        self, tmp_path, capsys, kind, family, p, h,
    ):
        emitted, construct_out = self.emit(
            tmp_path, capsys, kind, family, p, h,
        )
        code, verify_out, _ = run(
            capsys, "verify", "--format", "machine", "--in", str(emitted),
        )
        assert code == 0
        tail = lambda s: s.split("\n", 1)[1]
        assert tail(verify_out) == tail(construct_out)
        assert verify_out.startswith("report command=verify")

    def test_emitted_document_is_canonical(self, tmp_path, capsys):
        emitted, _ = self.emit(
            tmp_path, capsys, "kv", "hyperelliptic", "3", "3",
        )
        raw = emitted.read_text(encoding="utf-8")
        doc = json.loads(raw)
        assert doc["request"] == "verify-package"
        assert raw == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_tampered_divisor_fails_verification(self, tmp_path, capsys):
        emitted, _ = self.emit(
            tmp_path, capsys, "kv", "hyperelliptic", "3", "3",
        )
        doc = json.loads(emitted.read_text(encoding="utf-8"))
        doc["package"]["divisor"] = ["1", "-5"]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(
            capsys, "verify", "--format", "machine", "--in", str(bad),
        )
        assert code == 1
        (identity,) = checks(out, "class-identity")
        assert identity["status"] == "FAIL"
        (valid,) = checks(out, "package-valid")
        assert valid["status"] == "FAIL"

    def test_edited_family_fails_verification(self, tmp_path, capsys):
        # h = 5 puts the stored classes on the surface over a genus-7
        # curve, where K and so D - K - B move
        emitted, _ = self.emit(
            tmp_path, capsys, "kv", "hyperelliptic", "3", "3",
        )
        doc = json.loads(emitted.read_text(encoding="utf-8"))
        doc["package"]["family"]["h"] = 5
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(
            capsys, "verify", "--format", "machine", "--in", str(bad),
        )
        assert code == 1
        (identity,) = checks(out, "class-identity")
        assert identity["status"] == "FAIL"
        (valid,) = checks(out, "package-valid")
        assert valid["status"] == "FAIL"

    def test_meeting_kollar_branches_fail_boundary_klt(
        self, tmp_path, capsys,
    ):
        # the second branch becomes E itself, which meets the first
        # branch E with E^2 = n = 2
        doc = self.package_doc("kollar", "hyperelliptic", 3, 3)
        doc["package"]["boundary"][1]["class"] = ["1", "0"]
        path = write_doc(tmp_path, "meeting.json", doc)
        code, out, _ = run(
            capsys, "verify", "--format", "machine", "--in", path,
        )
        assert code == 1
        assert ("check name=boundary-klt status=FAIL"
                " witness=\"branches are not disjoint: E.C' = 2\"\n") in out

    @pytest.mark.parametrize("entry", (0, 1))
    def test_tampered_member_class_fails_verification(
        self, tmp_path, capsys, entry,
    ):
        emitted, _ = self.emit(
            tmp_path, capsys, "semipos", "hyperelliptic", "5", "3",
        )
        doc = json.loads(emitted.read_text(encoding="utf-8"))
        member = doc["package"]["member_class"]
        member[entry] = str(Fraction(member[entry]) + 1)
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(
            capsys, "verify", "--format", "machine", "--in", str(bad),
        )
        assert code == 1
        (line,) = checks(out, "boundary-member")
        assert line["status"] == "FAIL"
        (valid,) = checks(out, "package-valid")
        assert valid["status"] == "FAIL"

    @pytest.mark.parametrize("coefficient,code", (
        ("0", 1), ("1/3", 1), ("9/10", 1), ("1/2", 0),
    ))
    def test_member_coefficient_is_recomputed(
        self, tmp_path, capsys, coefficient, code,
    ):
        doc = self.package_doc("semipos", "hyperelliptic", 5, 3)
        doc["package"]["member_coefficient"] = coefficient
        path = write_doc(tmp_path, "member.json", doc)
        got, out, _ = run(
            capsys, "verify", "--format", "machine", "--in", path,
        )
        assert got == code
        (line,) = checks(out, "boundary-member")
        assert line["status"] == ("PASS" if code == 0 else "FAIL")

    @pytest.mark.parametrize("kind,p,key,value", (
        ("kv", 3, "boundary", "3/2"),
        ("kv", 3, "boundary", "-1/2"),
        ("kollar", 3, "boundary", "1"),
        ("semipos", 5, "member_coefficient", "3/2"),
        ("semipos", 5, "member_coefficient", "1"),
    ))
    def test_coefficient_outside_the_unit_interval_fails_klt(
        self, tmp_path, capsys, kind, p, key, value,
    ):
        # a branch coefficient that no klt boundary carries fails its
        # check line, and the run exits 1 like any failed check
        doc = self.package_doc(kind, "hyperelliptic", p, 3)
        if key == "boundary":
            doc["package"]["boundary"][0]["coefficient"] = value
        else:
            doc["package"][key] = value
        path = write_doc(tmp_path, "coefficient.json", doc)
        code, out, err = run(
            capsys, "verify", "--format", "machine", "--in", path,
        )
        assert (code, err) == (1, "")
        (line,) = checks(out, "boundary-klt")
        assert line["status"] == "FAIL"
        assert line["witness"] == f"coefficient {value} is outside [0, 1)"

    @staticmethod
    def package_doc(kind, family, p, h):
        cert = certify_tango(schema.family_from_fields(family, p, h))
        return schema.package_to_document(build_package(kind, cert))

    def test_no_package_field_edit_crashes_verify(self, tmp_path, capsys):
        # every kind on a p >= 5 family and on a p = 3 one, where kollar
        # builds; each package key in turn takes each odd value it does
        # not already hold
        for kind in KINDS:
            for p in (5, 3):
                doc = self.package_doc(kind, "hyperelliptic", p, 3)
                for key, held in doc["package"].items():
                    for i, value in enumerate((None, [], 7, "x")):
                        if value == held:
                            continue
                        edited = json.loads(json.dumps(doc))
                        edited["package"][key] = value
                        # a fresh file each time: rewriting one in place
                        # can wait on a flush to disk
                        path = write_doc(
                            tmp_path, f"{kind}-{p}-{key}-{i}.json", edited
                        )
                        code, _, _ = run(capsys, "verify", "--in", path)
                        assert code in (1, 2), (kind, p, key, value)

    @pytest.mark.parametrize("kind,p,key,value", (
        ("kollar", 3, "base_twist_degree", None),
        ("kollar", 3, "boundary", []),
        ("kollar", 3, "boundary", "first"),  # its first entry alone
        ("semipos", 3, "shifted_divisor", None),
        ("semipos", 5, "member_coefficient", None),
        ("kv", 3, "base_twist_degree", "1"),
        ("kv", 3, "shifted_divisor", ["0", "0"]),
        ("semipos", 5, "member_class", None),
    ))
    def test_misshapen_package_is_refused(
        self, tmp_path, capsys, kind, p, key, value,
    ):
        doc = self.package_doc(kind, "hyperelliptic", p, 3)
        package = doc["package"]
        package[key] = package[key][:1] if value == "first" else value
        path = write_doc(tmp_path, "misshapen.json", doc)
        code, out, err = run(capsys, "verify", "--in", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key}: ")

    def test_key_tables_follow_the_record_fields(self):
        # a document carries the kind, the family in place of the
        # certificate and the model it fixes, then every other field
        from svlab.construct import CounterexamplePackage

        kind, certificate, model, *rest = CounterexamplePackage.__annotations__
        assert (kind, certificate, model) == ("kind", "certificate", "model")
        assert list(_PACKAGE_KEYS) == rest
        doc = self.package_doc("kv", "hyperelliptic", 3, 3)
        assert list(doc["package"]) == ["kind", "family", *rest]

    def test_asserted_package_round_trips(self, tmp_path, capsys):
        emitted = tmp_path / "tp.json"
        code, _, _ = run(
            capsys, "construct", "--kind", "kv",
            "--family", "tangoplane", "--p", "5",
            "--allow-asserted", "--emit", str(emitted),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", "--format", "machine", "--in", str(emitted),
        )
        assert code == 0
        (valid,) = checks(out, "package-valid")
        assert valid["status"] == "PASS"


class TestSweep:
    def test_frozen_box(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "sweep", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", SWEEP_DOC),
        )
        assert code == 0
        (summary,) = checks(out, "summary")
        assert summary["entries"] == "186"
        assert summary["certified"] == "90"
        assert summary["skipped"] == "96"
        assert summary["disagreements"] == "0"
        assert summary["min_chi"] == "3"
        statuses = [f["status"] for f in checks(out, "entry")]
        assert statuses.count("PASS") == 90
        assert statuses.count("SKIP") == 96
        assert "FAIL" not in statuses

    def test_certified_iff_b_above_five(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "sweep", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", SWEEP_DOC),
        )
        assert code == 0
        for entry in checks(out, "entry"):
            certified = entry["status"] == "PASS"
            assert certified == (int(entry["b"]) > 5)

    def test_riemann_roch_disagreement_fails_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def off_by_one(model, nums, den):
            num, over = riemann_roch_nums(model, nums, den)
            return num + over, over

        monkeypatch.setattr("svlab.chiproduct.riemann_roch_nums", off_by_one)
        code, out, _ = run(
            capsys, "sweep", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", SWEEP_DOC),
        )
        assert code == 1
        (summary,) = checks(out, "summary")
        assert summary["status"] == "FAIL"
        assert summary["disagreements"] == "90"
        failed = [f for f in checks(out, "entry") if f["status"] == "FAIL"]
        assert len(failed) == 90
        assert failed[0]["reason"].startswith("product gives ")
        assert all("riemann-roch gives" in f["reason"] for f in failed)

    def test_entries_match_fresh_per_entry_certificates(self):
        # seeded boxes that reach every skip reason the sweep can give:
        # the polarization, the nef check, the curve check and the genus
        # precondition.  The ampleness and slack-chain refusals of the
        # product never fire here: ampleness of D - K - cC' and the curve
        # check on C' imply both.
        rng = random.Random(20261024)
        reasons = set()
        for _ in range(12):
            p = rng.choice((2, 3, 5))
            request = SweepRequest(
                characteristic=p,
                genus=rng.randrange(1, 6),
                invariant_e=-rng.randrange(1, 5),
                a_range=(-2, 4),
                b_range=(rng.randrange(-15, 0), 12),
                coefficient=(rng.randrange(1, 8), 8),
            )
            entries = run_sweep(request)
            expected = tuple(
                _fresh_entry(request, a, b)
                for a in range(-2, 5)
                for b in range(request.b_range[0], 13)
            )
            assert [
                (e.a, e.b, e.status, e.chi, e.reason) for e in entries
            ] == list(expected)
            reasons.update(_reason_kind(e.reason) for e in entries)
        assert reasons == {
            "certified", "polarization", "nef", "curve", "genus",
        }

    def test_empty_box(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["box"]["a"] = [1, 0]
        code, out, _ = run(
            capsys, "sweep", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0
        assert checks(out, "entry") == []
        (summary,) = checks(out, "summary")
        assert summary["entries"] == "0"
        assert "min_chi" not in summary

    @pytest.mark.parametrize("jobs", (0, 2, 64))
    def test_jobs_other_than_one_refused_before_the_request_is_read(
        self, jobs, tmp_path, capsys,
    ):
        # one serial path is left, so --jobs takes only 1; the request
        # file does not exist, so reading it first would fail otherwise
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as refused:
            main(["sweep", "--in", missing, "--jobs", str(jobs)])
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs: invalid choice" in err
        assert "missing.json" not in err

    @pytest.mark.parametrize("a_range, b_range, entries", [
        ([0, 99], [0, 999], 100_000),
        ([0, 0], [0, 100_000], 100_001),
        # two empty ranges hold no entry, however long they are
        ([0, -1000], [0, -1000], 0),
    ])
    def test_box_cap_is_checked_by_the_reader(self, a_range, b_range,
                                              entries):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["box"] = {"a": a_range, "b": b_range}
        data = schema.load_document(json.dumps(doc))
        if entries <= schema.MAX_SWEEP_ENTRIES:
            request = schema.sweep_from_document(data)
            assert (request.a_range, request.b_range) == (
                tuple(a_range), tuple(b_range),
            )
        else:
            with pytest.raises(schema.SchemaError) as refused:
                schema.sweep_from_document(data)
            assert str(refused.value) == (
                "box: expected at most 100000 entries, got 100001"
            )

    def test_box_over_the_cap_exits_two_before_the_sweep(
        self, tmp_path, capsys, monkeypatch,
    ):
        def unreachable(request):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("svlab.cli.sweep.run_sweep", unreachable)
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["box"] = {"a": [0, 1000], "b": [0, 1000]}
        code, out, err = run(
            capsys, "sweep", "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: box: expected at most 100000 entries, got 1002001\n"
        )

    def test_nonnegative_e_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["model"]["e"] = 0
        code, _, err = run(
            capsys, "sweep",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2

    def test_coefficient_must_be_fractional(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["boundary_coefficient"] = "1"
        code, _, err = run(
            capsys, "sweep",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 2

    @pytest.mark.parametrize("e, a_range, b_range, refusal", [
        (-2, [0, 1], [0, 20], "model.p: the sweep runs in positive"
                              " characteristic"),
        (-2, [0, 0], [-5, -4], "model.p: the sweep runs in positive"
                               " characteristic"),
        (0, [0, 1], [0, 20], "model.e: the sweep runs on e < 0 models"),
    ], ids=("certifying-box", "skipping-box", "e-first"))
    def test_characteristic_zero_refused_whatever_the_box(
        self, e, a_range, b_range, refusal, tmp_path, capsys,
    ):
        # the boundary C' = pE - pnF needs p > 0; the e check comes first
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["model"] = {"p": 0, "genus": 4, "e": e}
        doc["box"] = {"a": a_range, "b": b_range}
        code, out, err = run(
            capsys, "sweep", "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert (code, out, err) == (2, "", f"error: {refusal}\n")


class TestPerItemWork:
    """Every check runs on every item: the bindings that the layer tracer
    of the benchmark wraps are counted through ``main``."""

    @staticmethod
    def _counted(monkeypatch, target):
        module_name, _, name = target.rpartition(".")
        module = importlib.import_module(module_name)
        real = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_sweep_checks_every_entry(self, tmp_path, capsys, monkeypatch):
        entries, positivity, oracle = (
            self._counted(monkeypatch, target) for target in (
                "svlab.cli.sweep.sweep_entry",
                "svlab.cli.sweep.certify_positivity_nums",
                "svlab.chiproduct.riemann_roch_nums",
            )
        )
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["box"] = {"a": [-1, 5], "b": [-10, 20]}
        code, out, _ = run(
            capsys, "sweep", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", doc),
        )
        assert code == 0
        lines = checks(out, "entry")
        box = [(a, b) for a in range(-1, 6) for b in range(-10, 21)]
        assert [(int(f["a"]), int(f["b"])) for f in lines] == box
        assert [args[3:] for args, _ in entries] == box
        assert len(positivity) == len(box)
        assert all(kw == {"strict": True} for _, kw in positivity)
        certified = [(int(f["a"]), int(f["b"])) for f in lines
                     if f["status"] == "PASS"]
        assert 0 < len(certified) < len(box)
        assert [(nums, den) for (_, nums, den), _ in oracle] == [
            (entry, 1) for entry in certified
        ]

    def test_klt_blows_up_every_node(self, tmp_path, capsys, monkeypatch):
        blowups = self._counted(monkeypatch, "svlab.kltcalc.blowup_step")
        forest = {
            "branches": [{"id": f"b{i}", "coefficient": f"1/{i + 3}"}
                         for i in range(6)],
            "clusters": [
                {"branches": ["b0", "b1", "b2"], "children": [
                    {"branches": ["b0", "b1"],
                     "children": [{"branches": ["b1", "b0"]}]},
                ]},
                {"branches": ["b3", "b4", "b5"], "children": [
                    {"branches": ["b3", "b4"]},
                ]},
                {"branches": ["b2", "b5"]},
            ],
        }
        code, out, _ = run(
            capsys, "klt", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", {
                "format": "svlab/1", "request": "klt",
                "arrangement": forest,
            }),
        )
        assert code == 0
        nodes = ["n0", "n0.0", "n0.0.0", "n1", "n1.0", "n2"]
        assert [f["node"] for f in checks(out, "blowup")] == nodes
        assert [args[2] for args, _ in blowups] == nodes

    def test_klt_builds_a_fraction_per_declared_branch_at_most(
        self, tmp_path, capsys, monkeypatch,
    ):
        # 300 roots on two or three branches each, every coefficient text
        # distinct; three branches of the first root sum above 2, so the
        # verdict line carries min_discrepancy too.  The reader keeps
        # each coefficient as integers, and the blow-up records and the
        # lines printed from them build no Fraction.
        branches, clusters = [], []
        for r in range(300):
            ids = [f"r{r}x{i}" for i in range(2 + r % 2)]
            branches += [
                {"id": bid, "coefficient": f"{8 + i}/{len(branches) + i + 10}"}
                for i, bid in enumerate(ids)
            ]
            clusters.append({"branches": ids})
        clusters[0]["branches"].append(branches[2]["id"])
        built = []
        new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted_new)
        if hasattr(Fraction, "_from_coprime_ints"):
            coprime = Fraction._from_coprime_ints.__func__

            def counted_coprime(cls, *args):
                built.append(args)
                return coprime(cls, *args)

            monkeypatch.setattr(Fraction, "_from_coprime_ints",
                                classmethod(counted_coprime))
        code, out, _ = run(
            capsys, "klt", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", {
                "format": "svlab/1", "request": "klt",
                "arrangement": {"branches": branches, "clusters": clusters},
            }),
        )
        during = list(built)
        Fraction(1, 3)  # the counter sees one built outside the request
        monkeypatch.undo()
        assert code == 0
        assert len(checks(out, "blowup")) == 300
        (verdict,) = checks(out, "klt-verdict")
        assert verdict["verdict"] == "not-klt"
        assert during == [] and len(built) == 1


def _reason_kind(reason):
    for kind, mark in (
        ("polarization", "polarization "), ("nef", "not nef"),
        ("curve", "cannot be a curve"), ("genus", "base genus"),
    ):
        if mark in reason:
            return kind
    return reason or "certified"


def _fresh_entry(request, a, b):
    """One sweep entry computed from scratch: the model, K and the
    polarization rebuilt, then a freshly built ``ChiProduct``."""
    p, g, e = request.characteristic, request.genus, request.invariant_e
    model = RuledModel(p, g, e)
    c = Fraction(*request.coefficient)
    h = (model.divisor(a, b) - model.canonical_class()
         - model.divisor(p, p * e).scaled(c))
    ample = certify_positivity(model, h, strict=True)
    if ample.status != CERTIFIED:
        reason = f"polarization {ample.status} under {ample.rule_used}"
        return (a, b, "skipped", None, reason)
    try:
        verdict = certify_chi_product(
            ChiProduct(model, c.numerator, c.denominator, p, p * e), a, b)
    except PreconditionError as ex:
        return (a, b, "skipped", None, str(ex))
    except InconsistentScenario as ex:
        return (a, b, "disagreement", None, str(ex))
    return (a, b, "certified", verdict.certificate["chi"], "")


class TestRendering:
    def test_machine_header_and_footer(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "klt", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", TRIPLE_DOC),
        )
        lines = out.splitlines()
        assert lines[0] == "report command=klt format=svlab/1"
        assert lines[-1] == "exit code=0"
        assert code == 0

    def test_text_format(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "klt",
            "--in", write_doc(tmp_path, "d.json", TRIPLE_DOC),
        )
        lines = out.splitlines()
        assert lines[0] == "svlab klt"
        assert "klt-verdict: PASS" in lines
        assert "    verdict: klt" in lines
        assert lines[-1] == "exit 0"

    def test_out_flag_writes_the_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "klt", "--format", "machine",
            "--in", write_doc(tmp_path, "d.json", TRIPLE_DOC),
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        content = target.read_text(encoding="utf-8")
        assert content.splitlines()[0] == "report command=klt format=svlab/1"

    def test_quoting_of_spaced_values(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--format", "machine",
            "--kind", "kv", "--family", "hyperelliptic",
            "--p", "3", "--h", "3",
        )
        assert code == 0
        (identity,) = checks(out, "class-identity")
        assert identity["witness"] == "D - K - B = (1/2)E + F, H = (1/2)E + F"
        for line in out.splitlines():
            head, fields = parse_line(line)
            rebuilt = " ".join(
                f"{k}={v}" if " " not in str(v) else k
                for k, v in fields.items()
            )
            assert head in ("report", "check", "exit")

    @pytest.mark.parametrize("value, shown", [
        ("", '""'), ("plain", "plain"), ("a b", '"a b"'),
        ('a"b', '"a\\"b"'), ("a\\b", '"a\\\\b"'), ("1/2", "1/2"),
    ])
    def test_machine_values_are_quoted_when_needed(self, value, shown):
        line = check("line", PASS, ("k", value))
        out = render_machine(Report("x", (line,)))
        assert out.splitlines()[1] == f"check name=line status=PASS k={shown}"

    def test_determinism(self, tmp_path, capsys):
        path = write_doc(tmp_path, "d.json", KV_SCENARIO)
        _, first, _ = run(capsys, "classify", "--format", "machine",
                          "--in", path)
        _, second, _ = run(capsys, "classify", "--format", "machine",
                           "--in", path)
        assert first == second


class TestParserLiterals:
    """The parser spells the package and family kinds out so that it
    loads no layer; these literals must stay equal to the layers'."""

    def test_kind_choices_are_the_package_kinds(self):
        (sub,) = (a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
        (kind,) = (a for a in sub.choices["construct"]._actions
                   if a.dest == "kind")
        assert tuple(kind.choices) == KINDS

    @pytest.mark.parametrize("kind", schema.FAMILY_KINDS)
    def test_family_kind_round_trips(self, kind):
        try:
            family = schema.family_from_fields(kind, 3, 3)
        except schema.SchemaError:  # a kind without h
            family = schema.family_from_fields(kind, 3, None)
        doc = schema.family_document(family)
        assert doc["kind"] == kind
        again = schema.family_from_fields(kind, doc["p"], doc.get("h"))
        assert again == family


_USAGE = "usage: svlab [-h] {classify,klt,tango,construct,verify,sweep} ...\n"


class TestDeclinedCommandLine:
    """What ``main`` prints for a command line the flag reader declines
    is what the parser with all six subcommands prints."""

    @pytest.mark.parametrize("argv,stderr", [
        (["nosuch"], _USAGE + (
            "svlab: error: argument command: invalid choice: 'nosuch'"
            " (choose from 'classify', 'klt', 'tango', 'construct',"
            " 'verify', 'sweep')\n"
        )),
        (["classify", "--bogus"],
         _USAGE + "svlab: error: unrecognized arguments: --bogus\n"),
    ])
    def test_refusals_print_the_full_parsers_text(
        self, capsys, monkeypatch, argv, stderr,
    ):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == 2
        assert capsys.readouterr() == ("", stderr)

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-1", "classify"], ["--format", "machine", "klt"],
        *([name, "--help"] for name in (
            "classify", "klt", "tango", "construct", "verify", "sweep",
        )),
        ["tango", "--p"], ["sweep", "--jobs", "2"],
        ["tango", "--family", "hyperelliptic", "--p", "x", "--h", "3"],
    ])
    def test_output_matches_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as declined:
            main(argv)
        assert (declined.value.code, capsys.readouterr()) == (
            full.value.code, expected,
        )


# values of every shape the reader must judge as argparse does: a
# negative number, a lone dash, an empty string, a leading space, a
# non-ASCII digit and an underscore, which int() accepts
_ODD_VALUES = ("-3", "-", "", " 3", "\u0663", "3_0", "x", "--")
# the values of each dest, then of each kind; no option writes in.json
_GOOD_VALUES = {"in_path": ("in.json", "3"), "out_path": ("out.txt", "3"),
                "emit": ("out.txt",), int: ("3", "5", "2", "-1"),
                bool: ("3",)}
_FAMILY_LINE = ["--family", "hyperelliptic", "--p", "3", "--h", "3"]


def flag_line(rng):
    """A command line drawn from the flag table: valid lines and
    repeated flags, abbreviations, --opt=value, odd and missing values,
    unknown tokens, help, and options before the command."""
    command = rng.choice(tuple(cli_main._COMMANDS))
    rows = cli_main._COMMANDS[command][2]
    if rng.random() < 0.1:  # another command's option
        rows = cli_main._CONSTRUCT + cli_main._SWEEP
    argv = [command]
    if rng.random() < 0.5:  # a line that runs, when nothing spoils it
        argv += {"tango": _FAMILY_LINE,
                 "construct": _FAMILY_LINE + ["--kind", "kv"]}.get(
                     command, ["--in", "in.json"])
    for _ in range(rng.randint(0, 4)):
        option, dest, kind, *_ = rng.choice(rows)
        value = None if kind is bool and rng.random() < 0.9 else rng.choice(
            _ODD_VALUES if rng.random() < 0.2
            else _GOOD_VALUES.get(dest) or _GOOD_VALUES.get(kind)
            or tuple(map(str, kind)))
        shape = rng.random()
        if shape < 0.1 and len(option) > 4:
            option = option[:rng.randint(3, len(option) - 1)]
        if shape > 0.9 and value is not None:
            argv.append(f"{option}={value}")
        else:
            argv += [option] if value is None else [option, value]
    if rng.random() < 0.1:
        argv.pop()  # a missing value, or the command itself
    if rng.random() < 0.1:
        argv.insert(rng.randint(0, len(argv)),
                    rng.choice(("-h", "--help", "--bogus", "extra", "-x")))
    if len(argv) > 1 and rng.random() < 0.1:
        argv.insert(0, argv.pop())
    return argv


def _outcome(argv):
    """Exit code, stdout and stderr of ``main(argv)``, argparse's exit
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


class TestFlagReader:
    """``main`` reads a well-formed command line from the flag table and
    hands every other one to argparse; argparse must read the same."""

    def test_reader_agrees_with_argparse(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)  # where --out and --emit write
        write_doc(tmp_path, "in.json", {
            "format": "svlab/1", "request": "tango",
            "family": {"kind": "hyperelliptic", "p": 3, "h": 3},
        })
        rng = random.Random(26)
        read = 0
        for _ in range(300):
            argv = flag_line(rng)
            args = cli_main._read_flags(argv)
            if args is not None:
                read += 1
                with contextlib.redirect_stderr(io.StringIO()):
                    expected = build_parser().parse_args(argv)
                assert vars(args) == vars(expected), argv
            ours = _outcome(argv)
            with monkeypatch.context() as patched:
                patched.setattr(cli_main, "_read_flags", lambda argv: None)
                assert ours == _outcome(argv), argv
        # both paths are taken
        assert 100 < read < 250


def _readme_examples():
    """Each JSON request block of README.md, and each flag-only
    ``svlab ...`` line of its plain code blocks."""
    text = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    examples = []
    for lang, body in re.findall(r"^```(\w*)\n(.*?)^```$", text,
                                 re.MULTILINE | re.DOTALL):
        if lang == "json":
            examples.append(json.loads(body))
            continue
        for line in body.splitlines():
            if line.startswith("svlab ") and "--in" not in line:
                examples.append(shlex.split(line)[1:])
    return examples


class TestReadme:
    @pytest.mark.parametrize("example", _readme_examples())
    def test_example_exits_zero(self, tmp_path, capsys, example):
        if isinstance(example, dict):
            path = write_doc(tmp_path, "example.json", example)
            example = [example["request"], "--in", path]
        code, _, err = run(capsys, *example)
        assert code == 0, err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "svlab", "tango",
             "--family", "tangoplane", "--p", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "n: 1" in proc.stdout
        assert "provenance: asserted" in proc.stdout

    @pytest.mark.parametrize("command", ["tango", "sweep"])
    def test_closed_stdout_is_an_output_error(self, tmp_path, command):
        # the pipe has no reader left when the report is written: exit 2
        # with one error line, as for an unwritable --out, and no
        # traceback, now or at the interpreter's exit.  The sweep report
        # (about 13 kB) is larger than stdout's buffer.
        argv = {
            "tango": ["tango", "--family", "tangoplane", "--p", "3"],
            "sweep": ["sweep", "--in",
                      write_doc(tmp_path, "d.json", SWEEP_DOC)],
        }[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "svlab", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (
            2, "error: [Errno 32] Broken pipe\n",
        )

    def test_module_invocation_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "svlab", "tango",
             "--family", "hyperelliptic", "--p", "2", "--h", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    @staticmethod
    def argv_of_exit(code, tmp_path, capsys):
        """A command line that exits ``code``: a report with no failed
        check, a tampered package that fails verification, a family
        that cannot be built; "help" and "usage" leave through argparse's
        ``SystemExit`` with the help text and a usage error."""
        if code == "help":
            return ["--help"]
        if code == "usage":
            return ["tango", "--p", "x"]
        if code == 0:
            return ["tango", "--family", "tangoplane", "--p", "3"]
        if code == 2:
            return ["tango", "--family", "hyperelliptic",
                    "--p", "2", "--h", "3"]
        emitted = tmp_path / "kv.json"
        run(capsys, "construct", "--kind", "kv", "--family", "hyperelliptic",
            "--p", "3", "--h", "3", "--emit", str(emitted))
        doc = json.loads(emitted.read_text(encoding="utf-8"))
        doc["package"]["divisor"] = ["1", "-5"]
        return ["verify", "--in", write_doc(tmp_path, "tampered.json", doc)]

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_main_in_process_never_freezes(self, tmp_path, capsys, code):
        argv = self.argv_of_exit(code, tmp_path, capsys)
        before = gc.get_freeze_count(), gc.isenabled()
        assert run(capsys, *argv)[0] == code
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.parametrize("entry", [
        "from svlab.__main__ import run\nraise SystemExit(run())",
        "import runpy\nrunpy.run_module('svlab', run_name='__main__')",
    ], ids=["run", "module"])
    @pytest.mark.parametrize("code", [0, 1, 2, "help", "usage"])
    def test_process_freezes_after_the_report(
        self, tmp_path, capsys, monkeypatch, entry, code,
    ):
        # an atexit handler, which still runs, reads the freeze count and
        # whether the cyclic collector is on once the entry point has
        # returned; the child prints exactly what main() prints in
        # process, with argparse's help and usage text wrapped at one
        # width on both sides
        monkeypatch.setenv("COLUMNS", "80")
        argv = self.argv_of_exit(code, tmp_path, capsys)
        state = tmp_path / "gc-state"
        wrapper = (
            "import atexit, gc, pathlib\n"
            f"atexit.register(lambda: pathlib.Path({str(state)!r})"
            ".write_text(f'{gc.get_freeze_count()} {gc.isenabled()}'))\n"
            + entry
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True,
        )
        try:
            expected = run(capsys, *argv)
        except SystemExit as ex:
            captured = capsys.readouterr()
            expected = ex.code, captured.out, captured.err
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
        count, enabled = state.read_text(encoding="utf-8").split()
        assert int(count) > 0
        assert enabled == "False"
