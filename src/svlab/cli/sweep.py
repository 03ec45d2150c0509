"""Integral-box sweep: both euler-characteristic formulas on every entry.

For each integral D = aE + bF in the requested box, the polarization
H = D - K - cC' is put through the strict positivity certifier; certified
entries then run the product's checks, the last of which compares the
product with the generic Riemann-Roch oracle.  Any disagreement, or a
non-positive value, is a counterexample to the formulas' equivalence and
fails the run.

Built once per request: the model, K + cC' and the product certifier,
which settles what does not depend on D.  Per entry, H is tested on its
integer numerators, those of D and K + cC' over the denominator of
K + cC', and the oracle compares the product with the integer numerator
and denominator of chi(D).  A certified entry gets a shared verdict and
builds only its entry record: no class or certificate.  A skipped
entry's reason is one of a few shared texts, and its verdict's note is
never written.  Entries run one after another in box order, in the
calling process.

The boundary coefficient c is read as its reduced integer numerator
and denominator, K + cC' is built from numerators and the product
check takes c as those two ints.

The sweep command and its document's reader, ``sweep_from_document``,
are here too; ``svlab.cli.schema`` binds the reader lazily, and the
handler calls it there, and ``check`` through ``svlab.cli.main``.  The
sweep imports the product check, ``svlab.chiproduct``, and not the
decision engine.
"""

from sys import intern

from ..chiproduct import ChiProduct
from ..lattice import (
    CERTIFIED,
    DivisorClass,
    InconsistentScenario,
    PreconditionError,
    RuledModel,
    certify_positivity_nums,
    disjoint_multisection,
)
from ..record import record
from . import main, schema
from .rational import parse_ratio
from .report import FAIL, PASS, SKIP, Report
from .schema import _PURE_MODEL, MAX_SWEEP_ENTRIES, SchemaError, _list_of, _top

CERTIFIED_ENTRY = "certified"
SKIPPED_ENTRY = "skipped"
DISAGREEMENT = "disagreement"


@record
class SweepRequest:
    characteristic: int
    genus: int
    invariant_e: int
    a_range: tuple[int, int]
    b_range: tuple[int, int]
    coefficient: tuple[int, int]  # c as (numerator, positive denominator)


@record
class SweepEntry:
    a: int
    b: int
    status: str
    chi: int | None  # chi of an integral D, an integer (the oracle checks)
    reason: str


def _range(value):
    pair = _list_of(int)(value)
    if len(pair) != 2:
        raise SchemaError("expected [low, high]", [])
    return (pair[0], pair[1])


# the sweep reader's key tables
_BOX = {"a": _range, "b": _range}
_SWEEP = {
    "model": _PURE_MODEL,
    "box": _BOX,
    "boundary_coefficient": parse_ratio,
}


def sweep_from_document(data: dict) -> SweepRequest:
    top = _top(data, "sweep", _SWEEP)
    model = top["model"]
    if model["e"] >= 0:
        raise SchemaError("model.e: the sweep runs on e < 0 models")
    coeff = top["boundary_coefficient"]
    if not 0 < coeff[0] < coeff[1]:
        raise SchemaError(
            "boundary_coefficient: expected a value strictly between 0 and 1"
        )
    (a0, a1), (b0, b1) = box = top["box"]["a"], top["box"]["b"]
    entries = max(0, a1 - a0 + 1) * max(0, b1 - b0 + 1)
    if entries > MAX_SWEEP_ENTRIES:
        raise SchemaError(
            f"box: expected at most {MAX_SWEEP_ENTRIES} entries, got {entries}"
        )
    if model["p"] == 0:
        # C' = pE - pnF, the boundary the sweep checks with, needs p > 0
        raise SchemaError("model.p: the sweep runs in positive characteristic")
    return SweepRequest(model["p"], model["genus"], model["e"], *box, coeff)


def sweep_entry(
    model: RuledModel, shift: DivisorClass, product: ChiProduct,
    a: int, b: int,
) -> SweepEntry:
    """One box entry; ``shift`` is K + cC' on ``model``, so H = D - shift,
    and ``product`` checks with the boundary cC'."""
    (s_a, s_b), den = shift.nums, shift.den
    ample = certify_positivity_nums(
        model, a * den - s_a, b * den - s_b, den, strict=True
    )
    if ample.status != CERTIFIED:
        return SweepEntry(a, b, SKIPPED_ENTRY, None, intern(
            f"polarization {ample.status} under {ample.rule_used}"
        ))
    try:
        chi = product.check(a, b)[0]
    except PreconditionError as ex:
        return SweepEntry(a, b, SKIPPED_ENTRY, None, str(ex))
    except InconsistentScenario as ex:
        return SweepEntry(a, b, DISAGREEMENT, None, str(ex))
    return SweepEntry(a, b, CERTIFIED_ENTRY, chi, "")


def run_sweep(request: SweepRequest) -> tuple[SweepEntry, ...]:
    model = RuledModel(
        request.characteristic, request.genus, request.invariant_e
    )
    cn, cd = request.coefficient
    c_prime = disjoint_multisection(model)  # integral: its den is 1
    shift = model.canonical_class() + DivisorClass(
        model, tuple(cn * x for x in c_prime.nums), cd
    )
    product = ChiProduct(model, cn, cd, *c_prime.nums)
    (a_low, a_high), (b_low, b_high) = request.a_range, request.b_range
    return tuple(
        sweep_entry(model, shift, product, a, b)
        for a in range(a_low, a_high + 1)
        for b in range(b_low, b_high + 1)
    )


def summarize(entries: tuple[SweepEntry, ...]) -> dict:
    """The summary counts, in the order the report prints them."""
    certified = [e for e in entries if e.status == CERTIFIED_ENTRY]
    summary = {
        "entries": len(entries),
        "certified": len(certified),
        "skipped": sum(1 for e in entries if e.status == SKIPPED_ENTRY),
        "disagreements": sum(
            1 for e in entries if e.status == DISAGREEMENT
        ),
    }
    if certified:
        summary["min_chi"] = min(e.chi for e in certified)
    return summary


def cmd_sweep(args) -> Report:
    request = schema.sweep_from_document(schema.read_document(args.in_path))
    entries = run_sweep(request)
    status = {CERTIFIED_ENTRY: PASS, SKIPPED_ENTRY: SKIP, DISAGREEMENT: FAIL}
    lines = [
        main.check(
            "entry", status[entry.status], ("a", entry.a), ("b", entry.b),
            ("chi", entry.chi) if entry.status == CERTIFIED_ENTRY
            else ("reason", entry.reason),
        )
        for entry in entries
    ]
    stats = summarize(entries)
    lines.append(main.check(
        "summary",
        PASS if stats["disagreements"] == 0 else FAIL,
        *stats.items(),
    ))
    return Report("sweep", tuple(lines))
