"""Refusals of the package's entry points, one table row each.

A row is (build, exception type, message pattern): build() must raise
that exception with a message the pattern matches.  The refusals of a
truncation where an exact value is needed are in tests/test_windows.py,
and the fixture and command-line refusals, the ring spec's among them, in
tests/test_fixtures_cli.py.
"""

import pytest

import torsionlab.zeta as zeta_module
from torsionlab.complexes import BasedChainComplex, ShortExactSequence
from torsionlab.cut import CutSystem, approx_equal, check_K_vs_novikov
from torsionlab.errors import PreconditionError
from torsionlab.linalg import _int_div, mat_apply
from torsionlab.novikov import NovikovComplex, invariant_I
from torsionlab.rings import RationalFunction, TPolynomial
from torsionlab.threedim import PathMatrix, i3_coefficients
from torsionlab.zeta import ClosedOrbit, orbit_counts, zeta_exp, zeta_product, zeta_trace

from conftest import R0, R1

T = TPolynomial.t(R0)
ONE = TPolynomial.one(R0)
ZERO = TPolynomial.zero(R0)
POINT = BasedChainComplex(R0, 0, [1], [])
CIRCLE = BasedChainComplex(R0, 0, [1, 1], [[[1 - T]]])
EMPTY_PAIR = BasedChainComplex(R0, 0, [0, 0], [[]])
# one generator in each of degrees 0, 1, 2, with zero boundaries
STACK = BasedChainComplex(R0, 0, [1, 1, 1], [[[ZERO]], [[ZERO]]])
# the circle as a cut system: a point with the identity as return map
CIRCLE_CUT = CutSystem(POINT, [[[1]]], [0, 0], [[]], [[[]]], [[]])
# two circles, the total complex of the extensions below
TOTAL = BasedChainComplex(R0, 0, [2, 2], [[[1 - T, ZERO], [ZERO, 1 - T]]])


def circle(boundary, ring=R0, min_degree=0):
    return BasedChainComplex(ring, min_degree, [1, 1], [[[boundary]]])


def extension(sub, quotient):
    return ShortExactSequence(sub, TOTAL, quotient)


REFUSALS = {
    # complexes
    "negative module dimension": (
        lambda: BasedChainComplex(R0, 0, [-1], []),
        PreconditionError, "negative module dimension",
    ),
    "extension, rings": (
        lambda: extension(circle(1 - T), circle(TPolynomial.t(R1), R1)),
        PreconditionError, "mismatched ring specs",
    ),
    "extension, bottom degrees": (
        lambda: extension(circle(1 - T, min_degree=1), circle(1 - T)),
        PreconditionError, "mismatched bottom degrees",
    ),
    "extension, degree ranges": (
        lambda: extension(POINT, circle(1 - T)),
        PreconditionError, "mismatched degree ranges",
    ),
    "extension, sub block": (
        lambda: extension(circle(1 + T), circle(1 - T)),
        PreconditionError, "sub block disagrees at degree 1",
    ),
    "extension, quotient block": (
        lambda: extension(circle(1 - T), circle(1 + T)),
        PreconditionError, "quotient block disagrees at degree 1",
    ),
    "extension, dims": (
        lambda: extension(EMPTY_PAIR, circle(1 - T)),
        PreconditionError, "dims do not add up",
    ),
    # degree 1 agrees; the boundary of the sub's generator of degree 2
    # reaches the quotient's generator of degree 1
    "extension, lower block above the first degree": (
        lambda: ShortExactSequence(
            STACK,
            BasedChainComplex(
                R0, 0, [2, 2, 2], [[[ZERO, ZERO], [ZERO, ZERO]], [[ZERO, ZERO], [ONE, ZERO]]]
            ),
            STACK,
        ),
        PreconditionError, "extension is not upper triangular at degree 2",
    ),
    # cut systems
    "cut surface, empty": (
        lambda: CutSystem(BasedChainComplex(R0, 0, [], []), [], [0], [], [], []),
        PreconditionError, "cut surface must be nonempty",
    ),
    "cut system, return maps": (
        lambda: CutSystem(POINT, [], [0, 0], [[]], [[[]]], [[]]),
        PreconditionError, "expected 1 return maps",
    ),
    "cut system, blocks": (
        lambda: CutSystem(POINT, [[[1]]], [0, 0], [], [[[]]], [[]]),
        PreconditionError, "expected 1 N-blocks",
    ),
    "cut surface, boundary involving t": (
        lambda: CutSystem(CIRCLE, [[[1]], [[1]]], [0, 0, 0], [[], []], [[[]], [[]]], [[], []]),
        PreconditionError, "sigma boundary 1 entries must not involve t",
    ),
    "approx_equal, not a ring value": (
        lambda: approx_equal("1", ONE, 3),
        PreconditionError, "cannot window a str",
    ),
    # every critical degree agrees, but the complex has a generator in
    # degree 4, beyond the cut system's degrees
    "check-k, degree outside": (
        lambda: check_K_vs_novikov(CIRCLE_CUT, NovikovComplex(R0, 4, [1], []), 3),
        PreconditionError, "dimension mismatch",
    ),
    # linalg
    "mat_apply shapes": (
        lambda: mat_apply([[1, 2]], [1], 0),
        PreconditionError, "matrix-vector shape mismatch",
    ),
    "interior division remainder": (
        lambda: _int_div(3, 2),
        ArithmeticError, "inexact interior division",
    ),
    # novikov, threedim
    "invariant_I, exact polynomial": (
        lambda: invariant_I(ONE, RationalFunction(ONE)),
        PreconditionError, "counting function must be a RationalFunction or a truncation",
    ),
    "i3 counting factor": (
        lambda: i3_coefficients(ONE, PathMatrix(R0, [[ONE]]), 3),
        PreconditionError, "counting factor must be a truncation or a fraction",
    ),
    # rings
    "exponent vector arity": (
        lambda: TPolynomial(R0, {(0, (1,)): 1}),
        PreconditionError, "exponent vector \\(1,\\) has length 1, ring has 0 variables",
    ),
    "term outside the declared window": (
        lambda: TPolynomial(R0, {(5, ()): 1}, 3),
        PreconditionError, "term at t-degree 5 outside declared window \\[0, 3\\]",
    ),
    "coefficient type": (
        lambda: TPolynomial(R0, {(0, ()): 1.5}),
        TypeError, "coefficient must be int or Fraction, got float",
    ),
    "negative polynomial power": (
        lambda: T**-1,
        PreconditionError, "polynomial powers must be nonnegative integers",
    ),
    "content division": (
        lambda: (1 + 2 * T).divide_content(2),
        ArithmeticError, "content 2 does not divide coefficient 1",
    ),
    "rational inverse of zero": (
        lambda: RationalFunction.zero(R0).inverse(),
        PreconditionError, "inverse of zero",
    ),
    "rational power, not an integer": (
        lambda: RationalFunction(ONE, 1 - T) ** 0.5,
        TypeError, "rational function powers must be integers",
    ),
    # zeta
    "orbit sign": (
        lambda: ClosedOrbit(T, eps=2),
        PreconditionError, "orbit sign must be -1, 0 or \\+1",
    ),
    "orbit sign, unknown without a map": (
        lambda: zeta_exp(R0, [ClosedOrbit(T)], 2),
        PreconditionError, "orbit sign is not pinned down",
    ),
    "orbit counts without a map": (
        lambda: orbit_counts(ClosedOrbit(T)),
        PreconditionError, "orbit index counts need a return map",
    ),
    "zeta_exp order": (
        lambda: zeta_exp(R0, [], -1),
        PreconditionError, "truncation order must be nonnegative",
    ),
    "zeta_exp ring": (
        lambda: zeta_exp(R0, [ClosedOrbit(TPolynomial.t(R1), eps=1)], 2),
        PreconditionError, "mismatched ring specs",
    ),
    "zeta_product ring": (
        lambda: zeta_product(R0, [ClosedOrbit(TPolynomial.t(R1), eps=1)]),
        PreconditionError, "mismatched ring specs",
    ),
    "zeta_trace order": (
        lambda: zeta_trace(R0, [], -1),
        PreconditionError, "truncation order must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    build, exc, message = REFUSALS[case]
    with pytest.raises(exc, match=message):
        build()


def test_trace_exponential_keeps_to_the_integral_lattice(monkeypatch):
    # Lefschetz numbers 1, 0, 0, ... belong to no integer map: their
    # exponential is exp(t), whose t^2 coefficient is 1/2
    monkeypatch.setattr(zeta_module, "_power_traces", lambda A, order: [1] + [0] * (order - 1))
    with pytest.raises(ArithmeticError, match="trace exponential left the integral lattice"):
        zeta_trace(R0, [[[1]]], 3)
