"""The chi product check, apart from the decision engine.

On a relatively minimal ruled model of negative invariant whose
boundary is a single multiple cG of the negative curve G,
chi(D) = (a+1)(b - ae/2 + 1 - g) for D = aE + bF.  ``ChiProduct``
checks that product against the generic Riemann-Roch oracle.  Two
callers run it, and each imports this module only when it does: the
sweep on every entry of its box, without ``svlab.nonvanish``, and the
decision engine on case C_M, where ``nonvanish.certify_chi_product``
builds the certificate from what the check compared.  The exceptions
the check raises are ``svlab.lattice``'s.

The check runs on integers: c arrives as an int numerator over a
positive int denominator, G's coefficients are ints, and a refusal
prints its ratios through ``svlab.ratio.ratio_text``.
"""

from __future__ import annotations

from .lattice import (
    InconsistentScenario,
    LatticeError,
    PreconditionError,
    RuledModel,
    candidate_curve_constraints,
    riemann_roch_nums,
)
from .ratio import ratio_text
from .record import record


@record
class ChiProduct:
    """chi(D) = (a+1)(b - ae/2 + 1 - g) > 0 for D = aE + bF on a
    relatively minimal model of negative invariant whose boundary is a
    single multiple cG of the negative curve G = xE + yF.

    ``model`` is the caller's pure model; g and e are read from it.  c
    is ``c_num / c_den``, an int over a positive int, and x and y are
    ints; anything else raises LatticeError at construction.  What does
    not depend on D is settled once, at construction: the preconditions
    on e, g and c (``refusal``), whether G can be a curve
    (``curve_refusal``; a refusal is an exception type with its
    arguments, or None), and the constants of the inequalities, cleared
    to integers over ``c_den``.  ``check(a, b)`` takes the integers a, b
    of an integral D, runs the checks that depend on D, raising the
    refusals at their place in the order of checks, and returns chi(D)
    as an int, which is all a sweep entry reads, then what the
    certificate of case C_M reports.  Nothing mutates the record, so one
    instance serves a whole sweep.
    """

    model: RuledModel
    c_num: int
    c_den: int
    x: int
    y: int

    def __post_init__(self) -> None:
        model = self.model
        g, e = model.genus, model.invariant_e
        cn, cd, x, y = self.c_num, self.c_den, self.x, self.y
        # a bool or a float compares equal to an int and would pass the
        # range test by value
        if type(cn) is not int or type(cd) is not int or cd <= 0:
            raise LatticeError(
                "the boundary coefficient takes an int numerator over a"
                " positive int denominator"
            )
        if type(x) is not int or type(y) is not int:
            raise LatticeError("the negative curve takes int coefficients")
        refusal = curve_refusal = None
        if e >= 0:
            refusal = (PreconditionError,
                       ("the product certificate needs e < 0",))
        elif g < 2:
            refusal = (PreconditionError, ("needs base genus at least 2",))
        elif not 0 < cn < cd:
            refusal = (PreconditionError,
                       ("boundary coefficient must sit in (0,1)",))
        else:
            try:
                fits = candidate_curve_constraints(
                    model, model.divisor(x, y)
                )
            except LatticeError as ex:
                curve_refusal = (type(ex), ex.args)
            else:
                if not fits:
                    curve_refusal = (PreconditionError, (
                        f"{x}E + {y}F cannot be a curve on this model",
                    ))
        # D - K - cG = (a + 2 - cx)E + (b + kf)F with kf = 2 - 2g + e - cy;
        # cx and kf are kept times ``c_den``
        for name, value in (
            ("refusal", refusal), ("curve_refusal", curve_refusal),
            ("cx", cn * x), ("kf", (2 - 2 * g + e) * cd - cn * y),
        ):
            object.__setattr__(self, name, value)

    def check(self, a: int, b: int) -> tuple:
        """The checks that depend on D = aE + bF, in order: nef, the two
        ampleness inequalities of H = D - K - cG, and agreement with the
        generic Riemann-Roch oracle.  Returns chi(D), the int on which
        the product and the oracle agree, then, for the certificate, the
        two ampleness values times ``c_den`` and s = 2b - ae.  The slack
        chain and chi > 0 follow: 2H_b > H_a e is s > 4(g-1) + c(2y - xe),
        a curve G meets a branch 2y - xe >= c' of ``model.curve_cone``,
        each c' >= 2(1-g) for g >= 1, so s > 2(2-c)(g-1) > 2(g-1) for
        0 < c < 1 and g >= 2, and chi = (a+1)(s + 2 - 2g)/2 > 0 for
        a >= 0.

        The oracle's numerator and denominator are compared with the
        product as integers, and a disagreement prints both from them.
        Twice the product is even (a + 1 and s = 2b - ae are not both
        odd), so agreement makes chi(D) an int."""
        if self.refusal is not None:
            kind, args = self.refusal
            raise kind(*args)
        model, cd = self.model, self.c_den
        g, e = model.genus, model.invariant_e
        if a < 0 or 2 * b < a * e:
            raise PreconditionError("the divisor is not nef")
        if self.curve_refusal is not None:
            kind, args = self.curve_refusal
            raise kind(*args)
        # both sides scaled by ``c_den``
        ample_e = (a + 2) * cd - self.cx
        ample_f = b * cd + self.kf
        if not (ample_e > 0 and 2 * ample_f > ample_e * e):
            raise PreconditionError(
                "the polarization fails its ampleness inequalities"
            )
        slope = 2 * b - a * e  # twice b - ae/2
        chi = (a + 1) * (slope + 2 - 2 * g)  # twice the product
        num, den = riemann_roch_nums(model, (a, b), 1)
        if chi * den != 2 * num:
            raise InconsistentScenario(
                f"product gives {ratio_text(chi, 2)}, riemann-roch gives"
                f" {ratio_text(num, den)}"
            )
        return chi // 2, ample_e, ample_f, slope
