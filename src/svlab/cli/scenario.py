"""The classify command and its document's reader: a scenario on a
ruled model.

Only classify requests load this module, so it imports the decision
engine and the lattice at its top.  A scenario's boundary coefficients
are the pairs that ``cli/rational`` reads.
``svlab.cli.schema`` binds ``scenario_from_document`` lazily, and the
handler calls it there, and ``decide`` and ``check`` through
``svlab.cli.main``, so a rebinding of any of them sees every call.
"""

from __future__ import annotations

from ..lattice import RuledModel
from ..nonvanish import RULED, Scenario
from . import main, schema
from .rational import _BOUNDARY_ENTRY, _boundary_on, _class_on, _coeffs
from .report import PASS, Report
from .schema import _PURE_MODEL, SchemaError, _list_of, _nullable, _top


def _kodaira(value):
    if value == "-inf":
        return RULED
    if type(value) is not int:
        raise SchemaError('expected "-inf" or an integer', [])
    return value


def _build_model(fields) -> RuledModel:
    return RuledModel(
        fields["p"], fields["genus"], fields["e"],
        tuple(map(tuple, fields["exceptionals"])),
    )


def scenario_from_document(data: dict) -> Scenario:
    """The scenario of a classify document, which ``_top`` reads whole;
    the divisor and the boundary are then put on the model it builds."""
    fields = _top(data, "classify", {"scenario": _SCENARIO})["scenario"]
    model = fields["model"] = _build_model(fields["model"])
    fields["divisor"] = _class_on(model, fields["divisor"],
                                  "scenario.divisor")
    fields["boundary"] = _boundary_on(model, fields["boundary"],
                                      "scenario.boundary")
    return Scenario(**fields)


def cmd_classify(args) -> Report:
    scenario = schema.scenario_from_document(
        schema.read_document(args.in_path))
    verdict = main.decide(scenario)
    detail = [("result", verdict.result)]
    if verdict.reason:
        detail.append(("reason", verdict.reason))
    cert = dict(verdict.certificate)
    rule = cert.pop("rule", None)
    if rule is not None:
        detail.append(("rule", rule))
    detail.extend(sorted(cert.items()))
    return Report("classify", (
        main.check(
            "classification", PASS,
            ("case", verdict.case_label),
            ("kodaira", scenario.kodaira),
            ("chi_o", scenario.chi_o),
            ("q", scenario.q),
        ),
        main.check("decision", PASS, *detail),
    ))


# the scenario reader's key tables
_MODEL = {**_PURE_MODEL, "exceptionals": (_list_of(_list_of(int)), [])}
_SCENARIO = {
    "model": _MODEL,
    "kodaira": _kodaira,
    "chi_o": int,
    "q": int,
    "relatively_minimal": bool,
    "divisor": _coeffs,
    "boundary": (_list_of(_BOUNDARY_ENTRY), []),
    "kappa_minus_k_nonneg": (_nullable(bool), None),
}
