from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsionlab.errors import PreconditionError
from torsionlab.novikov import EulerLift, NovikovComplex
from torsionlab.rings import (
    RationalFunction,
    TPolynomial,
    expand_series,
)
from torsionlab.threedim import (
    PathMatrix,
    i3_coefficients,
    path_matrix_det,
    rebase_col,
    rebase_row,
    sw_consistency_check,
    t_invariant,
)

from conftest import R0, R1, tpoly


ONE = TPolynomial.one(R0)
ZERO = TPolynomial.zero(R0)
T = TPolynomial.t(R0)
TREFOIL = ONE - T + T**2


def rp(*pairs):
    return tpoly(R0, {(d, ()): c for d, c in pairs})


def trunc_one(order):
    return ONE.truncate(order)


def t_to(e, ring=R0, v=None):
    """The +1 monomial t^e V^v: a class, or a torsor offset."""
    return TPolynomial.monomial(ring, t_exp=e, v=v)


def two_degree(matrix, min_degree=1):
    """Complex concentrated in two consecutive degrees with the given boundary."""
    m = len(matrix[0]) if matrix else 0
    return NovikovComplex(R0, min_degree, [len(matrix), m], [matrix])


CATMAP_ZETA = RationalFunction(rp((0, 1), (1, -3), (2, 1)), rp((0, 1), (1, -2), (2, 1)))


class TestPathMatrix:
    def test_requires_square(self):
        with pytest.raises(PreconditionError):
            PathMatrix(R0, [[ONE, T]])

    def test_rejects_negative_t_degree(self):
        with pytest.raises(PreconditionError):
            PathMatrix(R0, [[tpoly(R0, {(-1, ()): 1})]])

    def test_label_count_checked(self):
        with pytest.raises(PreconditionError):
            PathMatrix(R0, [[ONE]], row_labels=["a", "b"])

    def test_int_entries_coerce(self):
        P = PathMatrix(R0, [[2, 0], [0, 1]])
        assert P.matrix[0][0] == rp((0, 2))
        assert not P.matrix[0][1]

    def test_offset_forms(self):
        # the one form of an offset is a +1 monomial; the default is 1
        default = PathMatrix(R0, [[ONE]]).offset
        assert default == ONE and default.order is None
        assert PathMatrix(R0, [[ONE]], offset=t_to(-3)).offset == t_to(-3)
        assert PathMatrix(R0, [[ONE]], offset=T**2).offset == T**2
        v1 = t_to(1, R1, (4,))
        assert PathMatrix(R1, [[TPolynomial.one(R1)]], offset=v1).offset == v1
        # an exponent is not an offset
        with pytest.raises(PreconditionError, match="offset must be a \\+1 monomial"):
            PathMatrix(R0, [[ONE]], offset=3)
        with pytest.raises(PreconditionError, match="offset must be a \\+1 monomial"):
            PathMatrix(R0, [[ONE]], offset=(2, ()))

    def test_offset_rejects_nonunit(self):
        with pytest.raises(PreconditionError):
            PathMatrix(R0, [[ONE]], offset=-T)
        with pytest.raises(PreconditionError):
            PathMatrix(R0, [[ONE]], offset=ONE + T)

    def test_offset_arity_checked(self):
        # a unit of a ring with another number of group variables is refused
        # at construction, not when i3 later reads its exponent vector
        with pytest.raises(PreconditionError, match="of the ring"):
            PathMatrix(R1, [[TPolynomial.one(R1)]], offset=T**2)
        with pytest.raises(PreconditionError, match="of the ring"):
            PathMatrix(R0, [[ONE]], offset=t_to(0, R1, (1,)))


class TestDeterminant:
    def test_single_entry(self):
        P = PathMatrix(R0, [[ONE - T]])
        d = path_matrix_det(P)
        assert d == rp((0, 1), (1, -1))
        assert P.offset == ONE

    def test_identity(self):
        P = PathMatrix(R0, [[ONE, ZERO], [ZERO, ONE]])
        assert path_matrix_det(P) == ONE

    def test_two_by_two(self):
        P = PathMatrix(R0, [[ONE - T, T], [T, ONE - T]])
        assert path_matrix_det(P) == rp((0, 1), (1, -2))

    def test_empty_matrix(self):
        assert path_matrix_det(PathMatrix(R0, [])) == ONE

    def test_offset_carried(self):
        P = PathMatrix(R0, [[T]], offset=T**5)
        assert P.offset == T**5

    @given(
        st.lists(
            st.lists(st.integers(0, 2), min_size=2, max_size=2),
            min_size=2,
            max_size=2,
        )
    )
    def test_support_stays_nonnegative(self, degrees):
        # entries in t-degrees >= 0 force the determinant there as well
        matrix = [[T**d for d in row] for row in degrees]
        d = path_matrix_det(PathMatrix(R0, matrix))
        assert d.is_zero or d.min_t_degree() >= 0


class TestRebasing:
    def test_row_scales_and_shifts(self):
        P = PathMatrix(R0, [[ONE, T], [ZERO, ONE]], row_labels=["a", "b"])
        Q = rebase_row(P, 0, T)
        assert Q.matrix[0][0] == T and Q.matrix[0][1] == T**2
        assert Q.matrix[1] == P.matrix[1]
        assert Q.offset == t_to(-1)
        assert Q.row_labels == ["a", "b"]
        # the offset carries no sign: a -1 unit moves it as its +1 twin does
        assert rebase_row(P, 0, -T).offset == t_to(-1)

    def test_col_scales_and_shifts(self):
        P = PathMatrix(R1, [[TPolynomial.one(R1)]], offset=t_to(2, R1, (1,)))
        u = t_to(1, R1, (-3,))
        Q = rebase_col(P, 0, u)
        assert Q.matrix[0][0] == u
        assert Q.offset == t_to(1, R1, (4,))

    def test_determinant_tracks_unit(self):
        P = PathMatrix(R0, [[ONE - T, T], [T, ONE - T]])
        Q = rebase_col(rebase_row(P, 1, T), 0, T**2)
        dP, dQ = path_matrix_det(P), path_matrix_det(Q)
        assert dQ == dP * T**3
        assert Q.offset == t_to(-3)

    def test_index_bounds(self):
        P = PathMatrix(R0, [[ONE]])
        with pytest.raises(PreconditionError):
            rebase_row(P, 1, T)
        with pytest.raises(PreconditionError):
            rebase_col(P, -1, T)

    def test_factor_must_be_unit(self):
        with pytest.raises(PreconditionError):
            rebase_row(PathMatrix(R0, [[ONE]]), 0, ONE + T)


class TestI3Coefficients:
    def test_unit_counting_factor(self):
        cf = i3_coefficients(trunc_one(6), PathMatrix(R0, [[ONE - T]]), 6)
        assert cf.terms == {(0, ()): 1, (1, ()): -1}
        assert (cf.order, cf.min_t) == (6, 0)
        assert t_invariant(cf, ONE, ONE) == 1
        assert t_invariant(cf, ONE, T) == -1
        assert t_invariant(cf, ONE, T**4) == 0

    def test_geometric_factor_cancels(self):
        zeta = RationalFunction(ONE, ONE - T)
        cf = i3_coefficients(zeta, PathMatrix(R0, [[ONE - T]]), 6)
        assert cf.terms == {(0, ()): 1}

    def test_no_critical_points(self):
        cf = i3_coefficients(CATMAP_ZETA, PathMatrix(R0, []), 2)
        assert cf.terms == {(0, ()): 1, (1, ()): -1, (2, ()): -2}

    def test_expanded_factor_agrees_with_fraction(self):
        P = PathMatrix(R0, [[TREFOIL]])
        a = i3_coefficients(CATMAP_ZETA, P, 5)
        b = i3_coefficients(expand_series(CATMAP_ZETA, 5), P, 5)
        assert a.terms == b.terms and a.order == b.order

    def test_order_capped_by_factor(self):
        cf = i3_coefficients(trunc_one(2), PathMatrix(R0, [[ONE]]), 9)
        assert cf.order == 2

    def test_ring_mismatch(self):
        P = PathMatrix(R1, [[TPolynomial.one(R1)]])
        with pytest.raises(PreconditionError):
            i3_coefficients(trunc_one(3), P, 3)

    def test_fractional_coefficients_rejected(self):
        halves = TPolynomial(R0, {(1, ()): Fraction(1, 2), (2, ()): Fraction(3, 2)}, 2)
        with pytest.raises(ArithmeticError, match="i3 coefficients must be integers"):
            i3_coefficients(halves, PathMatrix(R0, [[ONE]]), 2)
        whole = TPolynomial(R0, {(1, ()): Fraction(4, 2)}, 2)
        cf = i3_coefficients(whole, PathMatrix(R0, [[ONE]]), 2)
        assert cf.terms == {(1, ()): 2} and type(cf.terms[(1, ())]) is int


class TestTInvariant:
    def test_window_error(self):
        cf = i3_coefficients(CATMAP_ZETA, PathMatrix(R0, []), 2)
        with pytest.raises(PreconditionError):
            t_invariant(cf, ONE, T**3)

    def test_offset_shifts_queries(self):
        P = PathMatrix(R0, [[ONE - T]], offset=T)
        cf = i3_coefficients(trunc_one(4), P, 4)
        assert t_invariant(cf, P.offset, T) == 1
        assert t_invariant(cf, P.offset, T**2) == -1
        assert t_invariant(cf, P.offset, ONE) == 0

    def test_group_direction_resolves(self):
        u = TPolynomial.monomial(R1, t_exp=0, v=(1,))
        P = PathMatrix(R1, [[TPolynomial.one(R1) - u * TPolynomial.t(R1)]])
        cf = i3_coefficients(
            TPolynomial.one(R1).truncate(3),
            P,
            3,
        )
        assert t_invariant(cf, P.offset, t_to(1, R1, (1,))) == -1
        assert t_invariant(cf, P.offset, t_to(1, R1, (0,))) == 0

    def test_rebasing_leaves_function_alone(self):
        P = PathMatrix(R0, [[TREFOIL, T], [ZERO, ONE]])
        cf = i3_coefficients(CATMAP_ZETA, P, 6)
        moved = rebase_col(rebase_row(P, 0, T), 1, T)
        cf2 = i3_coefficients(CATMAP_ZETA, moved, 6)
        for e in range(5):
            assert t_invariant(cf2, moved.offset, T**e) == t_invariant(cf, P.offset, T**e)

    @given(st.integers(0, 2), st.integers(0, 1), st.integers(1, 3))
    def test_rebasing_equivariance(self, row_power, which, index_seed):
        P = PathMatrix(R0, [[TREFOIL, T], [T**2, ONE - T]])
        u = T**row_power
        moved = (rebase_row if which else rebase_col)(P, index_seed % 2, u)
        cf = i3_coefficients(CATMAP_ZETA, P, 8)
        cf2 = i3_coefficients(CATMAP_ZETA, moved, 8)
        for e in range(6):
            assert t_invariant(cf2, moved.offset, T**e) == t_invariant(cf, P.offset, T**e)


class TestConsistencyCheck:
    def test_trefoil_presentation(self):
        cn = two_degree([[TREFOIL]])
        assert sw_consistency_check(PathMatrix(R0, [[TREFOIL]]), cn)

    def test_sign_lives_in_the_matrix(self):
        # a one-sided flip already fails entrywise; a joint flip survives,
        # with the determinant slack absorbing the overall sign
        cn = two_degree([[TREFOIL]])
        assert sw_consistency_check(PathMatrix(R0, [[-TREFOIL]]), cn) is False
        assert (
            sw_consistency_check(PathMatrix(R0, [[TREFOIL]]), two_degree([[-TREFOIL]]))
            is False
        )
        assert sw_consistency_check(PathMatrix(R0, [[-TREFOIL]]), two_degree([[-TREFOIL]]))

    def test_transpose_orientation(self):
        b2 = [[ONE - T, T], [ZERO, ONE]]
        cn = two_degree(b2)
        assert sw_consistency_check(PathMatrix(R0, [[ONE - T, ZERO], [T, ONE]]), cn)
        assert sw_consistency_check(PathMatrix(R0, b2), cn) is False

    def test_empty_counts(self):
        cn = NovikovComplex(R0, 1, [0, 0], [[]])
        assert sw_consistency_check(PathMatrix(R0, []), cn)

    def test_singular_boundary(self):
        cn = two_degree([[ZERO]])
        assert sw_consistency_check(PathMatrix(R0, [[ZERO]]), cn)
        assert sw_consistency_check(PathMatrix(R0, [[ONE]]), cn) is False

    def test_singular_boundary_with_nonzero_entries(self):
        # rank 1 of 2: the elimination stops short, the torsion is the zero
        # value, and it meets the zero determinant
        b2 = [[TREFOIL, TREFOIL], [ONE - T, ONE - T]]
        cn = two_degree(b2)
        P = PathMatrix(R0, [[TREFOIL, ONE - T], [TREFOIL, ONE - T]])
        assert path_matrix_det(P).is_zero
        assert sw_consistency_check(P, cn)

    def test_degree_support_required(self):
        flat = NovikovComplex(R0, 0, [1, 1], [[[ONE - T]]])
        with pytest.raises(PreconditionError):
            sw_consistency_check(PathMatrix(R0, [[ONE - T]]), flat)

    def test_size_mismatch(self):
        cn = two_degree([[TREFOIL]])
        with pytest.raises(PreconditionError):
            sw_consistency_check(PathMatrix(R0, []), cn)

    def test_lift_moves_the_matrix(self):
        cn = NovikovComplex(R0, 1, [1, 1], [[[TREFOIL]]], lift=EulerLift(R0, [[ONE], [T]]))
        scaled = PathMatrix(R0, [[T * TREFOIL]])
        assert sw_consistency_check(scaled, cn)
        assert sw_consistency_check(PathMatrix(R0, [[TREFOIL]]), cn) is False

    def test_lift_shape_checked(self):
        # the lift is checked against the generators where it joins the complex
        with pytest.raises(PreconditionError, match="lift offsets do not match"):
            NovikovComplex(R0, 1, [1, 1], [[[TREFOIL]]], lift=EulerLift(R0, [[ONE]]))

    def test_two_by_two_agreement(self):
        b2 = [[TREFOIL, ONE], [ZERO, ONE - T]]
        cn = two_degree(b2)
        P = PathMatrix(R0, [[TREFOIL, ZERO], [ONE, ONE - T]])
        assert sw_consistency_check(P, cn, k=12)

    @given(st.integers(0, 3), st.integers(-2, 2), st.integers(-2, 2))
    def test_random_presentations_close(self, a, b, c):
        b2 = [[rp((0, 1), (1, a - 2)), rp((1, b))], [rp((2, c)), rp((0, 1), (1, 1))]]
        cn = two_degree(b2)
        P = PathMatrix(R0, [[b2[0][0], b2[1][0]], [b2[0][1], b2[1][1]]])
        assert sw_consistency_check(P, cn, k=10)
