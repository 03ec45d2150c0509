"""Integral-box sweep: both euler-characteristic formulas on every entry.

For each integral D = aE + bF in the requested box, the polarization
H = D - K - cC' is put through the strict positivity certifier; certified
entries then run the product's checks, the last of which compares the
product with the generic Riemann-Roch oracle.  Any disagreement, or a
non-positive value, is a counterexample to the formulas' equivalence and
fails the run.

Built once per request: the model, K + cC' and the product certifier,
which settles what does not depend on D.  Built per entry: H, as one
class from the integer numerators of D and K + cC', and for a certified
H the class of D for the oracle, but no certificate.  Entries run one
after another in box order, in the calling process.
"""

from fractions import Fraction

from ..lattice import (
    CERTIFIED,
    DivisorClass,
    RuledModel,
    certify_positivity,
    disjoint_multisection,
)
from ..nonvanish import ChiProduct, InconsistentScenario, PreconditionError
from ..record import record

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
    coefficient: Fraction


@record
class SweepEntry:
    a: int
    b: int
    status: str
    chi: int | None  # chi of an integral D, an integer (the oracle checks)
    reason: str


def sweep_entry(
    model: RuledModel, shift: DivisorClass, product: ChiProduct,
    a: int, b: int,
) -> SweepEntry:
    """One box entry; ``shift`` is K + cC' on ``model``, so H = D - shift,
    and ``product`` checks with the boundary cC'."""
    (s_a, s_b), den = shift.nums, shift.den
    h = DivisorClass(model, (a * den - s_a, b * den - s_b), den)
    ample = certify_positivity(model, h, strict=True)
    if ample.status != CERTIFIED:
        return SweepEntry(
            a, b, SKIPPED_ENTRY, None,
            f"polarization {ample.status} under {ample.rule_used}",
        )
    try:
        chi = product.check(a, b)[0]
    except PreconditionError as ex:
        return SweepEntry(a, b, SKIPPED_ENTRY, None, str(ex))
    except InconsistentScenario as ex:
        return SweepEntry(a, b, DISAGREEMENT, None, str(ex))
    return SweepEntry(a, b, CERTIFIED_ENTRY, chi.numerator, "")


def run_sweep(request: SweepRequest) -> tuple[SweepEntry, ...]:
    model = RuledModel(
        request.characteristic, request.genus, request.invariant_e
    )
    c_prime = disjoint_multisection(model)
    shift = model.canonical_class() + c_prime * request.coefficient
    product = ChiProduct(model, request.coefficient, c_prime.a, c_prime.b)
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
