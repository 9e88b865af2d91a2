import pytest
from fractions import Fraction
from math import factorial
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import torsionlab.rings as rings
from torsionlab.errors import PreconditionError
from torsionlab.rings import (
    SLOT_BITS,
    RationalFunction,
    RingSpec,
    TPolynomial,
    canonical_mod_units,
    exact_div,
    expand_series,
    format_rational,
    format_tpolynomial,
    format_truncation,
    frac_equal,
    series_invert,
    unit_equivalent,
)

from conftest import R0, R1, R2, RINGS, mono, tpoly, tpolynomials, unit_monomials
from oracles import random_poly, series_exp

# half the slot width: every group exponent e of a packed key has |e| < HALF
HALF = 2 ** (SLOT_BITS - 1)


def geom(ring, k):
    """1 + t + ... + t^k as a truncation."""
    p = TPolynomial(ring, {(j, ring.zero_v()): 1 for j in range(k + 1)})
    return p.truncate(k)


def group_elem(ring, terms):
    """An element of Z[V] (or Q[V]): a truncation through t-degree 0."""
    return TPolynomial(ring, {(0, v): c for v, c in terms.items()}, 0)


class TestGroupRing:
    def test_inverse_monomials_cancel(self):
        v = group_elem(R1, {(1,): 1})
        vinv = group_elem(R1, {(-1,): 1})
        assert v * vinv == TPolynomial.one(R1, 0)

    def test_difference_of_squares(self):
        one = TPolynomial.one(R1, 0)
        v = group_elem(R1, {(1,): 1})
        assert (one + v) * (one - v) == one - v * v

    def test_integral_fraction_collapses(self):
        g = group_elem(R0, {(): Fraction(4, 2)})
        assert g.terms[(0, ())] == 2
        assert isinstance(g.terms[(0, ())], int)
        assert g.is_integral()

    def test_rational_coefficients_flagged(self):
        g = group_elem(R0, {(): Fraction(1, 2)})
        assert not g.is_integral()
        assert (g + g).is_integral()
        assert isinstance((g + g).terms[(0, ())], int)

    def test_mismatched_rings_rejected(self):
        with pytest.raises(PreconditionError):
            TPolynomial.one(R0, 0) + TPolynomial.one(R1, 0)


class TestTPolynomialArithmetic:
    def test_difference_of_squares(self):
        one = TPolynomial.one(R1)
        v = TPolynomial.var(R1, "v1")
        assert (one + v) * (one - v) == one - v * v

    def test_laurent_cancellation(self):
        v = TPolynomial.var(R1, "v1")
        vinv = TPolynomial.monomial(R1, v=(-1,))
        assert v * vinv == 1

    def test_additive_inverse(self):
        t = TPolynomial.t(R0)
        assert (1 - t) + (t - 1) == TPolynomial.zero(R0)

    def test_int_coercion(self):
        t = TPolynomial.t(R0)
        assert 2 * t - t == t
        assert (t + 1) - 1 == t

    def test_rejects_fractional_coefficients(self):
        with pytest.raises(TypeError):
            TPolynomial(R0, {(0, ()): Fraction(1, 2)})

    def test_mismatched_rings_rejected(self):
        with pytest.raises(PreconditionError):
            TPolynomial.one(R0) + TPolynomial.one(R1)

    @given(a=tpolynomials(), b=st.data())
    def test_ring_axioms(self, a, b):
        ring = a.ring
        p = b.draw(tpolynomials(ring=ring))
        q = b.draw(tpolynomials(ring=ring))
        assert (a + p) + q == a + (p + q)
        assert a * p == p * a
        assert a * (p + q) == a * p + a * q
        assert (a * p) * q == a * (p * q)
        assert a + TPolynomial.zero(ring) == a
        assert a * TPolynomial.one(ring) == a

    @given(a=tpolynomials())
    def test_neg_is_additive_inverse(self, a):
        assert a + (-a) == TPolynomial.zero(a.ring)

    def test_pow_matches_repeated_mul(self):
        p = tpoly(R1, {(0, (0,)): 1, (1, (1,)): -2})
        assert p**3 == p * p * p
        assert p**0 == 1

    def test_slices_roundtrip(self):
        p = tpoly(R1, {(0, (0,)): 1, (2, (1,)): 3, (2, (0,)): -1})
        x = p.truncate(2)
        assert format_truncation(x) == ["t^0: 1", "t^2: -1 + 3*v1"]
        assert x.coefficient(2, (1,)) == 3 and x.coefficient(1) == 0
        assert TPolynomial(R1, x.terms) == p


class TestExactDiv:
    def test_geometric_quotient(self):
        t = TPolynomial.t(R0)
        num = 1 - t**5
        den = 1 - t
        assert exact_div(num, den) == 1 + t + t**2 + t**3 + t**4

    def test_multivariate_quotient(self):
        v = TPolynomial.var(R1, "v1")
        assert exact_div(1 - v * v, 1 + v) == 1 - v

    def test_inexact_raises(self):
        t = TPolynomial.t(R0)
        with pytest.raises(ArithmeticError):
            exact_div(TPolynomial.one(R0), 1 - t)
        with pytest.raises(ArithmeticError):
            exact_div(1 + t**2, 1 + t)

    def test_division_by_zero(self):
        with pytest.raises(PreconditionError):
            exact_div(TPolynomial.one(R0), TPolynomial.zero(R0))

    def test_inexact_multivariate_raises(self):
        v = TPolynomial.var(R1, "v1")
        with pytest.raises(ArithmeticError, match="below the quotient"):
            exact_div(TPolynomial.one(R1), 1 - v)
        with pytest.raises(ArithmeticError, match="below the quotient"):
            exact_div(1 + v, 1 - v)
        with pytest.raises(ArithmeticError, match="leading coefficient"):
            exact_div(1 + v, 1 + 2 * v)

    def test_caps_stop_long_inexact_quotients(self):
        # both caps come into play once the quotient has len(a) * len(b) terms
        v = TPolynomial.var(R1, "v1")
        t = TPolynomial.t(R1)
        inv = TPolynomial.var(R1, "v1", power=-1)
        with pytest.raises(ArithmeticError, match="span mismatch"):
            exact_div(t + t**2, v - 1)
        with pytest.raises(ArithmeticError, match="no termination"):
            exact_div(t * v**3 - v**2, inv + 2 * inv**2)

    def test_exact_division_skips_the_cap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rings, "_spans", lambda p: calls.append(p) or [])
        v = TPolynomial.var(R2, "v1")
        w = TPolynomial.var(R2, "v2")
        t = TPolynomial.t(R2)
        b = 1 - t * v + 2 * w
        a = (3 + v * w - t**2) * b
        assert exact_div(a, b) == 3 + v * w - t**2
        assert calls == []

    @given(data=st.data())
    def test_product_then_divide(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        a = data.draw(tpolynomials(ring=ring, max_terms=3))
        b = data.draw(tpolynomials(ring=ring, max_terms=3, nonzero=True))
        assert exact_div(a * b, b) == a


class TestPackedKeys:
    EDGE = HALF - 1

    @pytest.mark.parametrize("ring", [R1, R2])
    def test_slot_edge_round_trips_and_orders(self, ring):
        b = ring.num_group_vars
        monomials = sorted(
            {
                (t, tuple(e if i == j else 0 for i in range(b)))
                for t in (-1, 0, 1)
                for j in range(b)
                for e in (-self.EDGE, -1, 0, 1, self.EDGE)
            }
            | {(0, (self.EDGE,) * b), (0, (-self.EDGE,) * b)}
        )
        keys = [ring.pack(t, v) for t, v in monomials]
        assert [ring.unpack(k) for k in keys] == monomials
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        p = TPolynomial(ring, {m: 1 for m in monomials})
        assert p.terms == {m: 1 for m in monomials}
        assert min(p.terms) == monomials[0] and max(p.terms) == monomials[-1]

    def test_t_exponent_is_unbounded(self):
        p = TPolynomial.monomial(R1, t_exp=-(2**70), v=(self.EDGE,))
        assert p.terms == {(-(2**70), (self.EDGE,)): 1}
        assert (p * TPolynomial.t(R1, 2**70)).terms == {(0, (self.EDGE,)): 1}

    @pytest.mark.parametrize("e", [HALF, -HALF, 2**40])
    def test_out_of_slot_exponent_raises(self, e):
        with pytest.raises(PreconditionError, match="packed range"):
            R2.pack(0, (0, e))
        with pytest.raises(PreconditionError, match="packed range"):
            TPolynomial(R1, {(0, (e,)): 1})
        with pytest.raises(PreconditionError, match="packed range"):
            TPolynomial(R1, {(1, (e,)): 1}, 2)
        with pytest.raises(PreconditionError, match="packed range"):
            TPolynomial.monomial(R2, v=(e, 0))
        with pytest.raises(PreconditionError, match="packed range"):
            TPolynomial.var(R1, "v1", power=e)
        with pytest.raises(PreconditionError, match="packed range"):
            TPolynomial.one(R1) * TPolynomial.monomial(R1, 0, (e,))
        with pytest.raises(PreconditionError, match="packed range"):
            TPolynomial.one(R1).coefficient(0, (e,))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_products_that_cross_the_slot_raise(self, sign):
        edge = TPolynomial.var(R2, "v2", power=sign * self.EDGE)
        step = TPolynomial.var(R2, "v2", power=sign)
        assert (edge * step ** 0).terms == {(0, (0, sign * self.EDGE)): 1}
        with pytest.raises(PreconditionError, match="packed range"):
            edge * step
        with pytest.raises(PreconditionError, match="packed range"):
            edge * TPolynomial.monomial(R2, 0, (0, sign))
        with pytest.raises(PreconditionError, match="packed range"):
            TPolynomial.var(R2, "v2", power=sign * HALF // 2) ** 2
        with pytest.raises(PreconditionError, match="packed range"):
            edge.truncate(3) * step
        # a product whose extreme terms stay in range is fine even near the edge
        near = TPolynomial.var(R2, "v2", power=sign * (self.EDGE - 1))
        assert (near * step).terms == {(0, (0, sign * self.EDGE)): 1}

    def test_quotient_outside_the_slot_raises(self):
        v = TPolynomial.var(R1, "v1")
        low = TPolynomial.var(R1, "v1", power=1 - HALF)
        assert exact_div(low, TPolynomial.var(R1, "v1", power=-1)) == low * v
        with pytest.raises(PreconditionError, match="packed range"):
            exact_div(low, v)

    def test_quotient_that_only_divides_the_keys_is_inexact(self):
        # 1 + v^2 divides the keys of a exactly as integers once v^(HALF + 1)
        # carries into t, but not the monomials themselves
        t_v = {(0, (0,)): 1, (0, (2,)): 1, (0, (self.EDGE,)): 1, (1, (-self.EDGE,)): 1}
        b = TPolynomial(R1, {(0, (0,)): 1, (0, (self.EDGE,)): 1})
        with pytest.raises(ArithmeticError, match="exponent range"):
            exact_div(TPolynomial(R1, t_v), b)

    def test_inexact_division_with_a_huge_span_stops_at_once(self):
        # the span cap alone would allow 2^32 steps here
        t_v = {(0, (0,)): 1, (0, (2,)): 1, (0, (self.EDGE,)): 1, (1, (1 - self.EDGE,)): 1}
        b = TPolynomial(R1, {(0, (0,)): 1, (0, (self.EDGE,)): 1})
        with pytest.raises(ArithmeticError, match="below the quotient"):
            exact_div(TPolynomial(R1, t_v), b)

    def test_series_that_cross_the_slot_raise(self):
        t = TPolynomial.t(R1)
        edge = TPolynomial.var(R1, "v1", power=self.EDGE)
        assert series_invert(1 - t * edge, 1).coefficient(1, (self.EDGE,)) == 1
        with pytest.raises(PreconditionError, match="packed range"):
            series_invert(1 - t * edge, 2)
        with pytest.raises(PreconditionError, match="packed range"):
            series_exp((t * edge).truncate(2))

    @given(data=st.data())
    def test_packed_order_is_tuple_order(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        exps = st.integers(-(HALF - 1), HALF - 1)
        monomial = st.tuples(
            st.integers(-(2**40), 2**40),
            st.tuples(*[exps] * ring.num_group_vars),
        )
        x, y = data.draw(monomial), data.draw(monomial)
        kx, ky = ring.pack(*x), ring.pack(*y)
        assert ring.unpack(kx) == x and ring.unpack(ky) == y
        assert (kx < ky) == (x < y) and (kx == ky) == (x == y)

    @example(ring=R1, t_exp=-3, v=[HALF - 1, 0], sign=-1)
    @example(ring=R2, t_exp=2**40, v=[1 - HALF, HALF - 1], sign=1)
    @given(
        ring=st.sampled_from(RINGS),
        t_exp=st.integers(-(2**40), 2**40),
        v=st.lists(st.integers(1 - HALF, HALF - 1), min_size=2, max_size=2),
        sign=st.sampled_from([1, -1]),
    )
    def test_unit_inverse_cancels(self, ring, t_exp, v, sign):
        v = tuple(v[: ring.num_group_vars])
        u = TPolynomial.monomial(ring, t_exp=t_exp, v=v, coeff=sign)
        inverse = rings._unit_inverse(u)
        assert inverse.terms == {(-t_exp, tuple(-e for e in v)): sign}
        assert u * inverse == 1


# ---- one-term operands against a tuple-keyed reference ----

RANGE_MSG = f"a group exponent of the product leaves the packed range |e| < 2^{SLOT_BITS - 1}"
SLOT_EXPONENTS = st.one_of(
    st.integers(-2, 2), st.sampled_from([HALF - 1, 1 - HALF, HALF - 2, 2 - HALF])
)


def in_slot(v):
    return all(-HALF < e < HALF for e in v)


def ref_times_monomial(terms, m, cap=None):
    """terms * m on {(t_exp, v_exps): coeff} dicts, m with one term, keeping
    t-degrees up to cap.  Any product exponent outside its slot raises, as
    the kernel checks the whole operands before the cap applies."""
    ((mt, mv), mc), = m.items()
    out = {}
    for (t, v), c in terms.items():
        w = tuple(x + y for x, y in zip(v, mv))
        if not in_slot(w):
            raise PreconditionError(RANGE_MSG)
        if cap is None or t + mt <= cap:
            out[(t + mt, w)] = c * mc
    return out


def ref_div_monomial(ring, terms, m):
    """terms / m on {(t_exp, v_exps): coeff} dicts, m with one term.

    A quotient exponent outside its slot is reported the way exact_div's
    contract states: the packed keys are divided as integers, and the
    quotient they spell is rejected as inexact when its product with m
    leaves the slots, and otherwise (one of its exponents then sits on the
    slot's edge) as out of range."""
    ((mt, mv), mc), = m.items()
    if any(c % mc for c in terms.values()):
        raise ArithmeticError("inexact polynomial division (leading coefficient)")
    quo = {(t - mt, tuple(x - y for x, y in zip(v, mv))): c // mc for (t, v), c in terms.items()}
    if all(in_slot(v) for _, v in quo):
        return quo
    keyed = [ring.unpack(ring.pack(t, v) - ring.pack(mt, mv))[1] for t, v in terms]
    for i, e in enumerate(mv):
        lo, hi = min(v[i] for v in keyed), max(v[i] for v in keyed)
        if lo + e <= -HALF or hi + e >= HALF:
            raise ArithmeticError("inexact polynomial division (exponent range)")
    raise PreconditionError(RANGE_MSG)


def outcome(f):
    """f()'s value, or the type and message of the error it raises."""
    try:
        return f()
    except (ArithmeticError, PreconditionError) as exc:
        return type(exc), str(exc)


@st.composite
def monomial_cases(draw):
    """(a, m, t-degree of m): a random a and m = c * t^e V^v, with group
    exponents of both drawn near the slot edges as well as near 0."""
    ring = draw(st.sampled_from(RINGS))
    b = ring.num_group_vars
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        v = tuple(draw(SLOT_EXPONENTS) for _ in range(b))
        terms[(draw(st.integers(-2, 3)), v)] = draw(st.integers(-6, 6))
    a = TPolynomial(ring, terms)
    e = draw(st.integers(-3, 3))
    v = tuple(draw(SLOT_EXPONENTS) for _ in range(b))
    m = TPolynomial.monomial(ring, t_exp=e, v=v, coeff=draw(st.sampled_from([1, -1, 2, -2, 3])))
    return a, m, e


class TestMonomialOperands:
    """Products with and quotients by one-term values must agree with the
    tuple-keyed reference, errors included."""

    @seed(20261018)
    @settings(max_examples=300)
    @given(case=monomial_cases(), k=st.integers(-1, 4), extra=st.integers(0, 3))
    def test_against_tuple_reference(self, case, k, extra):
        a, m, e = case
        ring = a.ring
        A, M = a.terms, m.terms
        product = outcome(lambda: ref_times_monomial(A, M))
        assert outcome(lambda: (a * m).terms) == product
        assert outcome(lambda: (m * a).terms) == product
        if isinstance(product, dict):
            assert exact_div(a * m, m) == a
        assert outcome(lambda: exact_div(a, m).terms) == outcome(
            lambda: ref_div_monomial(ring, A, M)
        )

        # a truncation of a through t^k times m known through t^(e + extra)
        x = a.truncate(k)
        xm = m.truncate(e + extra)
        cap = min(k + e, e + extra + x.min_t)
        low = {key: c for key, c in A.items() if key[0] <= k}
        truncated = outcome(lambda: (ref_times_monomial(low, M, cap), cap))
        assert outcome(lambda: ((x * xm).terms, (x * xm).order)) == truncated
        assert outcome(lambda: ((xm * x).terms, (xm * x).order)) == truncated

    def test_divisor_one_skips_the_heap(self, monkeypatch):
        def no_heap(*args):
            raise AssertionError("the heap was used")

        monkeypatch.setattr(rings, "heapify", no_heap)
        monkeypatch.setattr(rings, "heappop", no_heap)
        t = TPolynomial.t(R1)
        v = TPolynomial.var(R1, "v1")
        a = 2 - 4 * t * v + 6 * t**2 * TPolynomial.var(R1, "v1", power=-3)
        assert exact_div(a, TPolynomial.one(R1)) is a
        with pytest.raises(AssertionError, match="the heap was used"):
            exact_div(a * (1 + t), 1 + t)


class TestSeriesInvert:
    def test_geometric(self):
        t = TPolynomial.t(R0)
        assert series_invert(1 - t, 3) == geom(R0, 3)

    def test_identity(self):
        s = series_invert(TPolynomial.one(R0), 5)
        assert s == TPolynomial.one(R0, 5)

    def test_symmetric_walk(self):
        # frozen expected slices for (1 - t(v + v^-1))^-1
        t = TPolynomial.t(R1)
        v = TPolynomial.var(R1, "v1")
        vinv = TPolynomial.monomial(R1, v=(-1,))
        p = 1 - t * (v + vinv)
        s = series_invert(p, 2)
        assert s.terms == {
            (0, (0,)): 1,
            (1, (1,)): 1,
            (1, (-1,)): 1,
            (2, (2,)): 1,
            (2, (0,)): 2,
            (2, (-2,)): 1,
        }
        assert s * p == TPolynomial.one(R1, 2)

    def test_shifted_lead(self):
        t = TPolynomial.t(R0)
        p = t * (1 - t)
        s = series_invert(p, 3)
        assert s.min_t == -1
        assert s.order == 2
        assert s.coefficient(-1) == 1
        prod = s * p
        assert prod == TPolynomial.one(R0, 3)

    def test_unit_with_group_part(self):
        t = TPolynomial.t(R1)
        v = TPolynomial.var(R1, "v1")
        p = -v * t + t**2
        s = series_invert(p, 4)
        assert (s * p) == TPolynomial.one(R1, 4)

    def test_nonunit_lead_rejected(self):
        t = TPolynomial.t(R1)
        v = TPolynomial.var(R1, "v1")
        with pytest.raises(PreconditionError):
            series_invert(1 + v - t, 3)
        with pytest.raises(PreconditionError):
            series_invert(TPolynomial.monomial(R0, coeff=2), 3)
        with pytest.raises(PreconditionError):
            series_invert(TPolynomial.zero(R0), 3)

    @given(data=st.data())
    def test_multiply_back(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        tail = data.draw(tpolynomials(ring=ring, max_terms=3, t_lo=1, t_hi=3))
        u = data.draw(unit_monomials(ring, t_lo=-1, t_hi=1, v_span=1))
        p = u * (1 + tail)
        k = data.draw(st.integers(0, 6))
        s = series_invert(p, k)
        prod = s * p
        assert prod == TPolynomial.one(ring, max(prod.order, 0))


class TestExpandSeries:
    def test_geometric(self):
        t = TPolynomial.t(R0)
        r = RationalFunction(TPolynomial.one(R0), 1 - t)
        assert expand_series(r, 3) == geom(R0, 3)

    def test_cat_map_expansion(self):
        t = TPolynomial.t(R0)
        r = RationalFunction(1 - 3 * t + t**2, (1 - t) ** 2)
        e = expand_series(r, 2)
        assert e.coefficient(0) == 1
        assert e.coefficient(1) == -1
        assert e.coefficient(2) == -2

    def test_negative_degree(self):
        tinv = TPolynomial.monomial(R0, t_exp=-1)
        r = RationalFunction(tinv)
        e = expand_series(r, 0)
        assert e.coefficient(-1) == 1
        assert e.coefficient(0) == 0

    @given(data=st.data())
    def test_multiply_back(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        num = data.draw(tpolynomials(ring=ring, max_terms=3, t_lo=0))
        tail = data.draw(tpolynomials(ring=ring, max_terms=2, t_lo=1, t_hi=2))
        den = 1 + tail
        r = RationalFunction(num, den)
        e = expand_series(r, 5)
        back = e * den
        assert back == num.truncate(back.order)

    def test_agrees_with_series_invert_on_reciprocals(self):
        t = TPolynomial.t(R1)
        v = TPolynomial.var(R1, "v1")
        p = 1 - t * v + t**2
        assert expand_series(RationalFunction(TPolynomial.one(R1), p), 6) == series_invert(p, 6)

    def test_order_below_least_degree(self):
        # t^5 / (1 - t) has nothing at or below t^2: the zero truncation
        t = TPolynomial.t(R0)
        e = expand_series(RationalFunction(t**5, 1 - t), 2)
        assert e.order == 2
        assert e.terms == {}
        assert e == TPolynomial.zero(R0, 2)
        assert series_invert(1 - t, -3).terms == {}


class TestRationalFunction:
    def test_frac_equal_cancellation(self):
        t = TPolynomial.t(R0)
        a = RationalFunction(1 - t**2, 1 - t)
        b = RationalFunction(1 + t)
        assert frac_equal(a, b)
        assert a == b

    def test_frac_unequal(self):
        t = TPolynomial.t(R0)
        assert not frac_equal(RationalFunction(1 - t), RationalFunction(1 + t))

    def test_monomial_units_cross(self):
        t = TPolynomial.t(R0)
        tinv = TPolynomial.monomial(R0, t_exp=-1)
        assert frac_equal(RationalFunction(t), RationalFunction(TPolynomial.one(R0), tinv))

    def test_zero_denominator_rejected(self):
        with pytest.raises(PreconditionError):
            RationalFunction(TPolynomial.one(R0), TPolynomial.zero(R0))

    def test_field_axioms_smoke(self):
        t = TPolynomial.t(R0)
        a = RationalFunction(1 - t, 1 + t)
        b = RationalFunction(t, 1 - t)
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * a.inverse() == RationalFunction.one(R0)
        assert a**-2 == (a.inverse()) ** 2

    def test_constructor_normalisation(self):
        t = TPolynomial.t(R0)
        r = RationalFunction(2 * t**3, 2 - 2 * t)
        # content 2 divided out, denominator anchored at the origin, sign fixed
        assert r.den == 1 - t
        assert r.num == t**3

    @given(data=st.data())
    def test_frac_equal_is_equivalence(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        num = data.draw(tpolynomials(ring=ring, max_terms=3))
        den = data.draw(tpolynomials(ring=ring, max_terms=3, nonzero=True))
        p = data.draw(tpolynomials(ring=ring, max_terms=2, nonzero=True))
        q = data.draw(tpolynomials(ring=ring, max_terms=2, nonzero=True))
        a = RationalFunction(num, den)
        b = RationalFunction(num * p, den * p)
        c = RationalFunction(num * q, den * q)
        assert frac_equal(a, a)
        assert frac_equal(a, b) and frac_equal(b, a)
        assert frac_equal(a, b) and frac_equal(b, c) and frac_equal(a, c)


class TestCanonicalModUnits:
    def test_unit_stripping_and_sign(self):
        t = TPolynomial.t(R0)
        r = RationalFunction(-(t**3) * (1 - t))
        c = canonical_mod_units(r)
        assert c.num == 1 - t
        assert c.den == 1

    def test_group_variable_units(self):
        t = TPolynomial.t(R1)
        v = TPolynomial.var(R1, "v1")
        r = RationalFunction(v * t - v * t**2, v * v)
        c = canonical_mod_units(r)
        assert c.num == 1 - t
        assert c.den == 1

    def test_sign_ambiguity_collapsed(self):
        t = TPolynomial.t(R0)
        a = canonical_mod_units(RationalFunction(t - 1))
        b = canonical_mod_units(RationalFunction(1 - t))
        assert a.num == b.num == 1 - t
        assert a.den == b.den == 1

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            canonical_mod_units(RationalFunction.zero(R0))

    @given(data=st.data())
    def test_invariant_under_units_and_idempotent(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        num = data.draw(tpolynomials(ring=ring, max_terms=3, nonzero=True))
        den = data.draw(tpolynomials(ring=ring, max_terms=3, nonzero=True))
        u = data.draw(unit_monomials(ring))
        r = RationalFunction(num, den)
        c1 = canonical_mod_units(r)
        c2 = canonical_mod_units(RationalFunction(u) * r)
        assert c1.num == c2.num and c1.den == c2.den
        c3 = canonical_mod_units(c1)
        assert c3.num == c1.num and c3.den == c1.den

    @given(data=st.data())
    def test_unit_equivalent_matches_unit_scaling(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        num = data.draw(tpolynomials(ring=ring, max_terms=3, nonzero=True))
        den = data.draw(tpolynomials(ring=ring, max_terms=3, nonzero=True))
        u = data.draw(unit_monomials(ring))
        r = RationalFunction(num, den)
        assert unit_equivalent(r, RationalFunction(u) * r)

    def test_unit_equivalent_rejects_nonunits(self):
        t = TPolynomial.t(R0)
        r = RationalFunction(1 - t)
        assert not unit_equivalent(r, RationalFunction(2 * (1 - t)))
        assert not unit_equivalent(r, RationalFunction((1 + t) * (1 - t)))
        assert unit_equivalent(r, RationalFunction(t**2 * (t - 1)))

    def test_zero_cases(self):
        z = RationalFunction.zero(R0)
        assert unit_equivalent(z, z)
        assert not unit_equivalent(z, RationalFunction.one(R0))


class TestNovikovTruncation:
    def test_equality_up_to_common_order(self):
        t = TPolynomial.t(R0)
        x = (1 + t + t**3).truncate(5)
        y = (1 + t).truncate(2)
        assert x == y
        z = (1 + t + t**2).truncate(2)
        assert x != z

    def test_slice_window(self):
        t = TPolynomial.t(R0)
        x = (1 + t).truncate(4)
        assert x.coefficient(3) == 0
        with pytest.raises(PreconditionError):
            x.coefficient(5)

    def test_known_zero_below_min(self):
        s = series_invert(TPolynomial.t(R0) - TPolynomial.t(R0, 2), 3)
        assert s.min_t == -1
        assert s.coefficient(-3) == 0

    def test_mul_order_rule(self):
        x = TPolynomial(R0, {(1, ()): 1}, 3, min_t=1)
        y = TPolynomial(R0, {(2, ()): 1}, 4, min_t=2)
        z = x * y
        assert z.order == min(3 + 2, 4 + 1)
        assert z.min_t == 3
        assert z.coefficient(3) == 1

    def test_polynomial_factor_keeps_order(self):
        t = TPolynomial.t(R0)
        x = (1 + t).truncate(3)
        z = x * (t**2)
        assert z.order == 5
        assert z.coefficient(3) == 1

    def test_series_exp_basic(self):
        x = TPolynomial.t(R0).truncate(2)
        e = series_exp(x)
        assert e.coefficient(0) == 1
        assert e.coefficient(1) == 1
        assert e.coefficient(2) == Fraction(1, 2)

    def test_series_exp_needs_positive_support(self):
        x = TPolynomial.one(R0).truncate(2)
        with pytest.raises(PreconditionError):
            series_exp(x)


class TestFormatting:
    def test_polynomial_text(self):
        t = TPolynomial.t(R0)
        assert format_tpolynomial(1 - t) == "1 - t"
        assert format_tpolynomial(-1 + 2 * t**2) == "-1 + 2*t^2"
        assert format_tpolynomial(TPolynomial.zero(R0)) == "0"

    def test_laurent_and_vars(self):
        p = tpoly(R2, {(-1, (2, 0)): 1, (0, (0, -1)): -3})
        assert format_tpolynomial(p) == "t^-1*v1^2 - 3*v2^-1"

    def test_rational_forms(self):
        t = TPolynomial.t(R0)
        assert format_rational(RationalFunction(TPolynomial.one(R0), 1 - t)) == "(1 - t)^-1"
        assert format_rational(RationalFunction(1 + t)) == "1 + t"
        assert (
            format_rational(RationalFunction(1 - 3 * t + t**2, (1 - t) ** 2))
            == "(1 - 3*t + t^2) / (1 - 2*t + t^2)"
        )


def assert_well_formed(x):
    """The invariants a trusted-path result must keep without re-validation."""
    ring = x.ring
    b = ring.num_group_vars
    view = x.terms
    for key, c in view.items():
        assert c != 0
        assert not (isinstance(c, Fraction) and c.denominator == 1)
        t_exp, v = key
        assert type(t_exp) is int
        assert type(v) is tuple and len(v) == b
        assert ring.unpack(ring.pack(t_exp, v)) == key
    # the view is a fresh dict: changing it leaves the value alone
    view.clear()
    assert x.terms or not x
    if x.order is None:
        assert TPolynomial(ring, x.terms) == x
        assert TPolynomial(ring, x.terms).terms == x.terms
    else:
        assert all(x.min_t <= t_exp <= x.order for t_exp, _ in x.terms)
        rebuilt = TPolynomial(ring, x.terms, x.order, x.min_t)
        assert rebuilt == x and rebuilt.terms == x.terms


class TestTrustedPath:
    @given(data=st.data())
    def test_results_are_well_formed(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        a = data.draw(tpolynomials(ring=ring, max_terms=3))
        p = data.draw(tpolynomials(ring=ring, max_terms=3))
        c = data.draw(st.integers(-3, 3))
        n = data.draw(st.integers(0, 3))
        shift_t = data.draw(st.integers(-2, 2))
        shift_v = tuple(data.draw(st.integers(-2, 2)) for _ in range(ring.num_group_vars))
        u = data.draw(unit_monomials(ring, t_lo=-1, t_hi=1, v_span=1))
        tail = data.draw(tpolynomials(ring=ring, max_terms=2, t_lo=1, t_hi=2))
        k = data.draw(st.integers(-2, 5))
        den = u * (1 + tail)
        s = series_invert(den, k)
        x = tail.truncate(max(k, 0))
        half = x * Fraction(1, 2)
        results = [
            a + p,
            a - p,
            a * p,
            -a,
            c * a,
            a + c,
            a**n,
            a * TPolynomial.monomial(ring, shift_t, shift_v, c),
            exact_div(a * den, den),
            s,
            expand_series(RationalFunction(a, den), k),
            s * s,
            s * p,
            s + s,
            s - s,
            half + half,
            half * half,
            series_exp(x),
            series_exp(half),
        ]
        for result in results:
            assert_well_formed(result)


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def random_t_poly(rng, lo, hi, constant=None):
    """A b = 0 polynomial with integer coefficients in degrees lo..hi."""
    terms = {(d, ()): rng.randint(-3, 3) for d in range(lo, hi + 1)}
    if constant is not None:
        terms[(0, ())] = constant
    return TPolynomial(R0, terms)


def sympy_coefficients(sympy, expr, t, k):
    """Coefficients of t^0 .. t^k in the series expansion of expr at 0."""
    series = sympy.expand(sympy.series(expr, t, 0, k + 1).removeO())
    return [series.coeff(t, d) for d in range(k + 1)]


def as_sympy(sympy, p, t):
    return sum(c * t**te for (te, _), c in p.terms.items())


@pytest.mark.parametrize("seed", range(6))
def test_sympy_series_invert_and_expand(sympy, seed):
    import random

    rng = random.Random(900 + seed)
    t = sympy.Symbol("t")
    k = rng.randint(0, 7)
    den = random_t_poly(rng, 1, 3, constant=rng.choice([1, -1]))
    num = random_t_poly(rng, 0, 3)
    inv = series_invert(den, k)
    want = sympy_coefficients(sympy, 1 / as_sympy(sympy, den, t), t, k)
    assert [inv.coefficient(d) for d in range(k + 1)] == want
    e = expand_series(RationalFunction(num, den), k)
    want = sympy_coefficients(sympy, as_sympy(sympy, num, t) / as_sympy(sympy, den, t), t, k)
    assert [e.coefficient(d) for d in range(k + 1)] == want


@pytest.mark.parametrize("seed", range(6))
def test_sympy_series_exp(sympy, seed):
    import random

    rng = random.Random(950 + seed)
    t = sympy.Symbol("t")
    k = rng.randint(1, 7)
    logs = {(d, ()): Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for d in range(1, k + 1)}
    e = series_exp(TPolynomial(R0, logs, k))
    log_expr = sum(sympy.Rational(c.numerator, c.denominator) * t**d for (d, _), c in logs.items())
    want = sympy_coefficients(sympy, sympy.exp(log_expr), t, k)
    got = [e.coefficient(d) for d in range(k + 1)]
    assert [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, got)] == want


def as_sympy_laurent(sympy, terms, syms, t):
    """A term dict {(t_exp, v_exps): coeff} as a sympy expression."""
    out = sympy.Integer(0)
    for (te, v), c in terms.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator) * t**te
        for sym, e in zip(syms, v):
            term *= sym**e
        out += term
    return out


def as_sympy_slice(sympy, x, syms, d):
    """The Z[V] (or Q[V]) coefficient of t^d in x, as a sympy expression."""
    return as_sympy_laurent(sympy, {k: c for k, c in x.terms.items() if k[0] == d}, syms, 1)


def random_laurent_terms(rng, ring, t_lo, t_hi, count, coeff):
    """count terms at t-degrees t_lo..t_hi with V-exponents in [-2, 2]."""
    terms = {}
    for _ in range(count):
        key = (rng.randint(t_lo, t_hi), tuple(rng.randint(-2, 2) for _ in ring.var_names))
        terms[key] = coeff(rng)
    return terms


def sympy_series_slices(sympy, expr, t, lo, hi):
    """Coefficients of t^lo .. t^hi in the Laurent expansion of expr at 0."""
    series = sympy.expand(sympy.series(expr, t, 0, hi + 1).removeO())
    return [series.coeff(t, d) for d in range(lo, hi + 1)]


@pytest.mark.parametrize("seed", range(4))
def test_sympy_series_exp_with_group_variables(sympy, seed):
    import random

    rng = random.Random(1100 + seed)
    ring = (R1, R2)[seed % 2]
    syms = sympy.symbols(ring.var_names)
    t = sympy.Symbol("t")
    k = rng.randint(4, 8)
    logs = random_laurent_terms(
        rng, ring, 1, k, rng.randint(2, 4),
        lambda r: Fraction(r.choice([-3, -1, 1, 2]), r.randint(1, 3)),
    )
    e = series_exp(TPolynomial(ring, logs, k))
    log_expr = as_sympy_laurent(sympy, logs, syms, t)
    want = sympy_series_slices(sympy, sympy.exp(log_expr), t, 0, k)
    for d, expected in enumerate(want):
        assert sympy.expand(as_sympy_slice(sympy, e, syms, d) - expected) == 0


@pytest.mark.parametrize("seed", range(4))
def test_sympy_series_invert_with_group_variables(sympy, seed):
    import random

    rng = random.Random(1200 + seed)
    ring = (R1, R2)[seed % 2]
    syms = sympy.symbols(ring.var_names)
    t = sympy.Symbol("t")
    k = rng.randint(4, 8)
    shift = rng.randint(0, 1)
    unit_v = tuple(rng.randint(-2, 1) for _ in ring.var_names)
    tail = random_laurent_terms(rng, ring, 1, 3, rng.randint(2, 4), lambda r: r.randint(-3, 3))
    unit = TPolynomial.monomial(ring, t_exp=shift, v=unit_v, coeff=rng.choice([1, -1]))
    den = unit * (1 + TPolynomial(ring, tail))
    inv = series_invert(den, k)
    den_expr = as_sympy_laurent(sympy, den.terms, syms, t)
    want = sympy_series_slices(sympy, 1 / den_expr, t, -shift, k - shift)
    for d, expected in zip(range(-shift, k - shift + 1), want):
        assert sympy.expand(as_sympy_slice(sympy, inv, syms, d) - expected) == 0


@pytest.mark.parametrize("seed", range(6))
def test_sympy_product_and_exact_div_with_negative_exponents(sympy, seed):
    import random

    rng = random.Random(1300 + seed)
    syms = sympy.symbols(R2.var_names)
    t = sympy.Symbol("t")

    def laurent():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)))
            terms[key] = rng.choice([-3, -2, -1, 1, 2, 3])
        return TPolynomial(R2, terms)

    a, b = laurent(), laurent()
    prod = a * b
    a_expr = as_sympy_laurent(sympy, a.terms, syms, t)
    b_expr = as_sympy_laurent(sympy, b.terms, syms, t)
    assert sympy.expand(as_sympy_laurent(sympy, prod.terms, syms, t) - a_expr * b_expr) == 0
    q = exact_div(prod, b)
    assert q == a
    quotient = sympy.cancel(a_expr * b_expr / b_expr)
    assert sympy.simplify(as_sympy_laurent(sympy, q.terms, syms, t) - quotient) == 0


# ---- the b = 0 recurrence on plain numbers against the slice path ----


def embedded_terms(p):
    """The terms of a V-free value of R1 with the V-exponents dropped."""
    return {(n, ()): c for (n, v), c in p.terms.items()}


@pytest.mark.parametrize(
    "sums",
    [
        {1: {0: 1}},  # p_1 = 1: exp(t), whose steps are Fractions 1/n!
        {1: {0: 2}, 3: {0: -5}, 4: {0: 7}},
        {1: {0: 0}, 2: {}, 3: {0: 3}},  # zero sums and an empty slice
        {2: {0: 0}},
        {},
    ],
)
def test_exp_power_sums_b0_agrees_with_the_slice_path(sums):
    # the V-part key of V^0 is 0 in every ring, so the same sums describe
    # a V-free series of R1, which runs the slice path
    order = 9
    plain = rings._exp_power_sums(R0, order, sums)
    sliced = rings._exp_power_sums(R1, order, sums)
    assert plain.terms == embedded_terms(sliced)
    assert (plain.order, sliced.order) == (order, order)


def test_exp_power_sums_b0_steps_through_fractions():
    e = rings._exp_power_sums(R0, 6, {1: {0: 1}})
    assert [e.coefficient(n) for n in range(7)] == [Fraction(1, factorial(n)) for n in range(7)]


@pytest.mark.parametrize("k", [-1, 0, 1, 7])
def test_series_invert_b0_agrees_with_the_slice_path(k):
    for make in (lambda t: 1 - t, lambda t: 1 - 3 * t + t**3, lambda t: t - 2 * t**2):
        plain = series_invert(make(TPolynomial.t(R0)), k)
        sliced = series_invert(make(TPolynomial.t(R1)), k)
        assert plain.terms == embedded_terms(sliced)
        assert plain.order == sliced.order


class ScriptedRandom:
    """An rng whose randint returns the scripted values in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def randint(self, lo, hi):
        value = next(self.values)
        assert lo <= value <= hi
        return value


@pytest.mark.parametrize("ring", [R0, R1], ids=["b0", "b1"])
@pytest.mark.parametrize("t_lo, t_hi, e", [(3, 5, 3), (-5, -3, -3), (-1, 2, 0)])
def test_random_poly_cancelled_draws_stay_in_the_window(ring, t_lo, t_hi, e):
    # two draws of one term, coefficients 2 and -2, cancel to zero
    v = [0] * ring.num_group_vars
    rng = ScriptedRandom([2] + ([t_hi] + v + [2]) + ([t_hi] + v + [-2]))
    assert random_poly(rng, ring, t_lo=t_lo, t_hi=t_hi, nonzero=True) == TPolynomial.t(ring, e)


def test_random_poly_refuses_an_empty_window():
    with pytest.raises(ValueError):
        random_poly(ScriptedRandom([]), R0, t_lo=5, t_hi=3)
