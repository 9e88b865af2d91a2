"""Windows of the one Laurent value type, and where it must be exact.

A TPolynomial with order None is exact; with an integer order it is a
truncation, known through t^order, with declared least degree min_t.  The
reference below spells out the window rules of the arithmetic on plain
{(t_exp, v_exps): coeff} dicts, and every result's (order, min_t, terms)
must match it:

* a sum is known through the smaller order; a truncation keeps its
  declared least degree, an exact operand counts from its lowest degree
  (0 for zero) read through that order, a nonzero int counts from 0, and
  adding the int 0 returns the other operand;
* a product of windows (la, oa) and (lb, ob) is known through
  min(oa + lb, ob + la) and starts at la + lb, an exact factor's order
  being infinite; scaling by an int keeps the window;
* truncate(k) cuts the terms above k and the least degree to at most k,
  and returns a truncation known through k already as it is;
* two values are equal when they agree through the smaller order.

Entry points that need an exact polynomial refuse a truncation with the
message they give any other non-polynomial; series_invert, which took
one silently, refuses it with its own.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsionlab.complexes import BasedChainComplex, rebase_basis
from torsionlab.cut import CutSystem
from torsionlab.errors import PreconditionError
from torsionlab.novikov import EulerLift, NovikovComplex
from torsionlab.rings import RationalFunction, TPolynomial, series_invert
from torsionlab.threedim import (
    PathMatrix,
    rebase_col,
    rebase_row,
    t_invariant,
)
from torsionlab.zeta import ClosedOrbit, zeta_lefschetz, zeta_trace

from conftest import R0, R1, RINGS, tpolynomials

# ---- the reference: values are ints or (order, min_t, terms), order None exact ----


def lowest(terms):
    return min((t for t, _ in terms), default=0)


def cut(terms, k):
    return {key: c for key, c in terms.items() if key[0] <= k}


def add(a, b, scale):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


def times(a, b):
    out = {}
    for (ta, va), ca in a.items():
        for (tb, vb), cb in b.items():
            key = (ta + tb, tuple(x + y for x, y in zip(va, vb)))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def ref_truncate(x, k):
    order, low, terms = x
    if order is None:
        return (k, min(lowest(terms), k), cut(terms, k))
    if k >= order:
        return x
    return (k, min(low, k), cut(terms, k))


def ref_constant(c, ring, order):
    """The nonzero int c beside a value known through order (None: exact)."""
    terms = {(0, ring.zero_v()): c} if order is None or order >= 0 else {}
    return (order, 0 if order is not None else None, terms)


def ref_plus(x, y, scale, ring):
    """x + scale * y for a reference value x and a value or int y."""
    if isinstance(y, int):
        if not y:
            return x
        y = ref_constant(y, ring, x[0])
    (ox, lx, tx), (oy, ly, ty) = x, y
    if ox is None and oy is None:
        return (None, None, add(tx, ty, scale))
    if ox is None:
        ox, lx, tx = ref_truncate(x, oy)
    elif oy is None:
        oy, ly, ty = ref_truncate(y, ox)
    order = min(ox, oy)
    return (order, min(lx, ly), add(cut(tx, order), cut(ty, order), scale))


def ref_mul(x, y):
    """x * y for a reference value x and a value or int y."""
    ox, lx, tx = x
    if isinstance(y, int):
        return (ox, lx, add({}, tx, y) if y else {})
    oy, ly, ty = y
    if ox is None and oy is None:
        return (None, None, times(tx, ty))
    lx = lowest(tx) if ox is None else lx
    ly = lowest(ty) if oy is None else ly
    order = min(o + low for o, low in ((ox, ly), (oy, lx)) if o is not None)
    return (order, lx + ly, cut(times(tx, ty), order))


def ref_equal(x, y, ring):
    if isinstance(y, int):
        y = ref_constant(y, ring, None) if y else (None, None, {})
    orders = [o for o in (x[0], y[0]) if o is not None]
    if not orders:
        return x[2] == y[2]
    k = min(orders)
    return cut(x[2], k) == cut(y[2], k)


def ref(v):
    if isinstance(v, int):
        return v
    return (v.order, v.min_t if v.order is not None else None, v.terms)


def apply_ref(op, a, b, ring):
    """The reference result of a <op> b, with Python's operand dispatch."""
    if isinstance(a, int):
        # int <op> value runs the value's reflected method
        if op == "-":
            o, low, terms = ref(b)
            return ref_plus((o, low, add({}, terms, -1)), a, 1, ring)
        a, b = b, a
    x = ref(a)
    if op in "+-":
        return ref_plus(x, ref(b), 1 if op == "+" else -1, ring)
    if op == "*":
        return ref_mul(x, ref(b))
    return ref_equal(x, ref(b), ring)


# ---- operands ----


@st.composite
def truncations(draw, ring, order=None, min_t=None):
    if order is None:
        order = draw(st.integers(-2, 5))
    if min_t is None:
        min_t = draw(st.integers(-2, 6))
    terms = {}
    if min_t <= order:
        for _ in range(draw(st.integers(0, 3))):
            t = draw(st.integers(min_t, order))
            v = tuple(draw(st.integers(-1, 1)) for _ in range(ring.num_group_vars))
            terms[(t, v)] = draw(st.integers(-3, 3))
    return TPolynomial(ring, terms, order, min_t)


def operands(ring):
    return st.one_of(
        tpolynomials(ring=ring, max_terms=3, v_span=1, coeff_span=3),
        truncations(ring),
        truncations(ring, min_t=2),
        st.integers(-3, 3),
        st.just(0),
        st.just(TPolynomial.zero(ring)),
        st.builds(TPolynomial.zero, st.just(ring), st.integers(-2, 5), st.integers(-2, 6)),
        st.builds(TPolynomial.one, st.just(ring), st.integers(-2, 5)),
    )


def window(v):
    """(order, min_t, terms) of a result, min_t None for an exact value."""
    if isinstance(v, bool):
        return v
    assert isinstance(v, TPolynomial)
    return ref(v)


OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "==": lambda a, b: a == b,
}


@settings(max_examples=400)
@given(data=st.data())
def test_operations_keep_the_reference_windows(data):
    ring = data.draw(st.sampled_from(RINGS))
    a = data.draw(operands(ring))
    b = data.draw(operands(ring))
    if isinstance(a, int) and isinstance(b, int):
        b = TPolynomial.zero(ring)
    op = data.draw(st.sampled_from(sorted(OPS)))
    assert window(OPS[op](a, b)) == apply_ref(op, a, b, ring)


@settings(max_examples=200)
@given(data=st.data())
def test_truncate_keeps_the_reference_window(data):
    ring = data.draw(st.sampled_from(RINGS))
    x = data.draw(st.one_of(
        tpolynomials(ring=ring, max_terms=3, v_span=1), truncations(ring), truncations(ring, min_t=2)
    ))
    k = data.draw(st.integers(-3, 6))
    assert window(x.truncate(k)) == ref_truncate(ref(x), k)


@given(x=truncations(R1, min_t=2))
@example(x=TPolynomial(R0, {(3, ()): 1}, 5, 3))
def test_adding_zero_keeps_the_value(x):
    for y in (x + 0, 0 + x, x - 0):
        assert y is x
    assert (0 - x).min_t == x.min_t


@given(a=tpolynomials(), data=st.data())
def test_exact_times_exact_is_exact_and_integral(a, data):
    b = data.draw(tpolynomials(ring=a.ring))
    for p in (a * b, a + b, a - b, -a, 3 * a):
        assert p.order is None
        assert all(type(c) is int for c in p.terms.values())


def test_exact_refuses_fractions():
    p = 1 + TPolynomial.t(R0)
    for scalar in (Fraction(1, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            p * scalar
        with pytest.raises(TypeError):
            scalar * p
        with pytest.raises(TypeError):
            p + scalar
    with pytest.raises(TypeError):
        TPolynomial(R0, {(0, ()): Fraction(1, 2)})
    assert p != Fraction(1, 2)


def test_truncation_takes_fractions():
    x = (1 + TPolynomial.t(R0)).truncate(3)
    half = x * Fraction(1, 2)
    assert half.order == 3 and half.coefficient(1) == Fraction(1, 2)
    whole = half * 2
    assert whole == x and all(type(c) is int for c in whole.terms.values())


def test_exact_compares_with_a_truncation_through_its_order():
    # the declared change: an exact value is known at every degree, so it
    # equals a truncation that agrees with it through the truncation's order
    t = TPolynomial.t(R0)
    geometric = series_invert(1 - t, 3)
    assert 1 + t + t**2 + t**3 + t**7 == geometric
    assert geometric == 1 + t + t**2 + t**3
    assert 1 + t != geometric
    assert TPolynomial.one(R0, 0) == 1


# ---- entry points that need an exact polynomial (or unit) of the right ring ----

T = TPolynomial.t(R0)
ONE = TPolynomial.one(R0)
# 1 + t + t^2 + t^3 known through t^3, and the unit 1 known through t^3
TRUNC = series_invert(1 - T, 3)
UNIT = series_invert(ONE, 3)
POINT = BasedChainComplex(R0, 0, [1], [])
CIRCLE = BasedChainComplex(R0, 0, [1, 1], [[[1 - T]]])
# t known through t^3, and the unit t over a ring with one group variable
TRUNC_T = T.truncate(3)
FOREIGN_T = TPolynomial.t(R1)

EXACT_ONLY = {
    "complex boundary": (
        lambda: BasedChainComplex(R0, 0, [1, 1], [[[TRUNC]]]),
        PreconditionError, "boundary entries must be polynomial",
    ),
    "novikov boundary": (
        lambda: NovikovComplex(R0, 0, [1, 1], [[[TRUNC]]]),
        PreconditionError, "boundary entries must be polynomial",
    ),
    "cut block": (
        lambda: CutSystem(POINT, [[[UNIT]]], [0, 0], [[]], [[[]]], [[]]),
        PreconditionError, "block phi_0 entries must be integers or t-free polynomials",
    ),
    "path matrix": (
        lambda: PathMatrix(R0, [[TRUNC]]),
        PreconditionError, "path matrix entries must be ring elements",
    ),
    # a bool is no integer entry here, though isinstance(True, int) holds
    "cut block, bool": (
        lambda: CutSystem(POINT, [[[True]]], [0, 0], [[]], [[[]]], [[]]),
        PreconditionError, "block phi_0 entries must be integers or t-free polynomials",
    ),
    "path matrix, bool": (
        lambda: PathMatrix(R0, [[True]]),
        PreconditionError, "path matrix entries must be ring elements",
    ),
    "return map, lefschetz": (
        lambda: zeta_lefschetz(R0, [[[UNIT]]]),
        PreconditionError, "return map entries must be integers or t-free polynomials",
    ),
    "return map, trace": (
        lambda: zeta_trace(R0, [[[UNIT]]], 3),
        PreconditionError, "return map entries must be integers or t-free polynomials",
    ),
    "rebase_basis unit": (
        lambda: rebase_basis(CIRCLE, 0, 0, UNIT),
        PreconditionError, "rebasing factor must be a monomial unit",
    ),
    "rebase_row unit": (
        lambda: rebase_row(PathMatrix(R0, [[ONE]]), 0, UNIT),
        PreconditionError, "rebasing factor must be a monomial unit",
    ),
    "rebase_col unit": (
        lambda: rebase_col(PathMatrix(R0, [[ONE]]), 0, UNIT),
        PreconditionError, "rebasing factor must be a monomial unit",
    ),
    "path matrix offset": (
        lambda: PathMatrix(R0, [[ONE]], offset=UNIT),
        PreconditionError, "offset must be a \\+1 monomial of the ring",
    ),
    "path matrix offset, foreign ring": (
        lambda: PathMatrix(R0, [[ONE]], offset=FOREIGN_T),
        PreconditionError, "offset must be a \\+1 monomial of the ring",
    ),
    "t_invariant offset": (
        lambda: t_invariant(UNIT, TRUNC_T, T),
        PreconditionError, "offset must be a \\+1 monomial of the ring",
    ),
    "lift offset": (
        lambda: EulerLift(R0, [[TRUNC_T]]),
        PreconditionError, "lift offsets must be \\+1 monomials of the ring",
    ),
    "lift offset, foreign ring": (
        lambda: EulerLift(R0, [[FOREIGN_T]]),
        PreconditionError, "lift offsets must be \\+1 monomials of the ring",
    ),
    "novikov lift, wrong shape": (
        lambda: NovikovComplex(R0, 0, [1, 1], [[[1 - T]]], lift=EulerLift(R0, [[T]])),
        PreconditionError, "lift offsets do not match the generators",
    ),
    "t_invariant class": (
        lambda: t_invariant(UNIT, ONE, TRUNC_T),
        PreconditionError, "class must be a \\+1 monomial of the ring",
    ),
    "orbit class": (
        lambda: ClosedOrbit(TRUNC_T),
        PreconditionError, "orbit class must be a \\+1 monomial",
    ),
    "series_invert": (
        lambda: series_invert(TRUNC, 5),
        PreconditionError, "series_invert needs an exact polynomial",
    ),
    "rational numerator": (
        lambda: RationalFunction(TRUNC),
        PreconditionError, "quotient of exact polynomials",
    ),
    "rational denominator": (
        lambda: RationalFunction(ONE, TRUNC),
        PreconditionError, "quotient of exact polynomials",
    ),
    "rational times truncation": (
        lambda: RationalFunction(ONE) * TRUNC,
        TypeError, "unsupported operand",
    ),
    "truncation times rational": (
        lambda: TRUNC * RationalFunction(ONE),
        TypeError, "unsupported operand",
    ),
    "rational plus truncation": (
        lambda: RationalFunction(ONE) + TRUNC,
        TypeError, "unsupported operand",
    ),
    "rational minus truncation": (
        lambda: RationalFunction(ONE) - TRUNC,
        TypeError, "unsupported operand",
    ),
    "rational over truncation": (
        lambda: RationalFunction(ONE) / TRUNC,
        TypeError, "unsupported operand",
    ),
}


@pytest.mark.parametrize("entry", sorted(EXACT_ONLY))
def test_entry_points_refuse_a_truncation(entry):
    build, exc, message = EXACT_ONLY[entry]
    with pytest.raises(exc, match=message):
        build()


def test_an_exact_polynomial_declares_no_least_degree():
    with pytest.raises(PreconditionError, match="declares no least degree"):
        TPolynomial(R0, {(5, ()): 1}, None, min_t=5)


def test_rational_never_equals_a_truncation():
    assert RationalFunction(ONE) != UNIT
    assert UNIT != RationalFunction(ONE)
