"""End-to-end coverage for the command line: documents in, reports out.

Everything runs through main(argv) in-process except one subprocess
smoke test for the module entry point.  Machine-format lines are parsed
back into dicts so assertions hit fields, not byte offsets; the
round-trip and determinism tests compare raw bytes on purpose.
"""

import argparse
import importlib
import json
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from svlab.charpcurve.families import certify_tango, genus
from svlab.cli import schema
from svlab.cli.main import build_parser, main
from svlab.cli.report import PASS, Report, check, render_machine
from svlab.cli.sweep import SweepRequest, run_sweep
from svlab.construct import KINDS, build_package
from svlab.lattice import (
    CERTIFIED,
    RuledModel,
    certify_positivity,
    riemann_roch_chi,
)
from svlab.nonvanish import (
    ChiProduct,
    InconsistentScenario,
    PreconditionError,
)

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
                "model": {"p": 3, "genus": 4, "e": -2, "chi": -1},
                "kodaira": 1,
                "chi_o": -1,
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
        # the model's "chi" key and chi_o agree on 5, but a ruled surface
        # over a rational curve has chi(O) = 1; chi(F) is 2, not 6
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
        assert err == "error: chi(O) of a ruled surface is 1 - base genus\n"

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
        doc["package"]["model"]["p"] = self.HUGE
        self.refused(capsys, "package.model.p", "verify",
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
        doc["package"]["certificate"]["family"]["h"] = 99999999999
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

    def test_tampered_certificate_is_an_input_error(
        self, tmp_path, capsys,
    ):
        emitted, _ = self.emit(
            tmp_path, capsys, "kv", "hyperelliptic", "3", "3",
        )
        doc = json.loads(emitted.read_text(encoding="utf-8"))
        doc["package"]["certificate"]["genus"] = 5
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "verify", "--in", str(bad))
        assert code == 2

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
        from svlab.charpcurve.families import TangoCertificate
        from svlab.construct import CounterexamplePackage

        assert list(schema._PACKAGE_KEYS) == list(
            CounterexamplePackage.__annotations__
        )
        assert list(schema._CERTIFICATE_KEYS) == list(
            TangoCertificate.__annotations__
        )

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
        monkeypatch.setattr(
            "svlab.nonvanish.riemann_roch_chi",
            lambda model, d: riemann_roch_chi(model, d) + 1,
        )
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
                coefficient=Fraction(rng.randrange(1, 8), 8),
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
                "svlab.cli.sweep.certify_positivity",
                "svlab.nonvanish.riemann_roch_chi",
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
        assert [(d.a, d.b) for (_, d), _ in oracle] == certified

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
    c = request.coefficient
    h = (model.divisor(a, b) - model.canonical_class()
         - model.divisor(p, p * e).scaled(c))
    ample = certify_positivity(model, h, strict=True)
    if ample.status != CERTIFIED:
        reason = f"polarization {ample.status} under {ample.rule_used}"
        return (a, b, "skipped", None, reason)
    try:
        verdict = ChiProduct(model, c, p, p * e).certify(a, b)
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

    def test_module_invocation_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "svlab", "tango",
             "--family", "hyperelliptic", "--p", "2", "--h", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
