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
H the class of D for the oracle, but no certificate.  Entries are
independent, so the box may fan out over processes; the report is
assembled in box order no matter what finished first.
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


def _entry_star(args) -> SweepEntry:
    return sweep_entry(*args)


def run_sweep(request: SweepRequest, jobs: int = 1) -> tuple[SweepEntry, ...]:
    pairs = [
        (a, b)
        for a in range(request.a_range[0], request.a_range[1] + 1)
        for b in range(request.b_range[0], request.b_range[1] + 1)
    ]
    model = RuledModel(
        request.characteristic, request.genus, request.invariant_e
    )
    c_prime = disjoint_multisection(model)
    shift = model.canonical_class() + c_prime * request.coefficient
    product = ChiProduct(
        model.genus, model.invariant_e, request.coefficient, c_prime.a,
        c_prime.b, model.characteristic,
    )
    if jobs <= 1 or len(pairs) < 2:
        return tuple(
            sweep_entry(model, shift, product, a, b) for a, b in pairs
        )
    # the pool pulls in multiprocessing, so only a parallel run loads it
    from concurrent.futures import ProcessPoolExecutor

    work = [(model, shift, product, a, b) for a, b in pairs]
    chunk = max(1, len(work) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # map preserves input order, so assembly stays box-ordered
        return tuple(pool.map(_entry_star, work, chunksize=chunk))


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
