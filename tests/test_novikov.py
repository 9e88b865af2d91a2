import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsionlab.complexes import BasedChainComplex, rebase_basis, torsion_tau
from torsionlab.errors import PreconditionError
from torsionlab.novikov import (
    EulerLift,
    NovikovComplex,
    apply_lift,
    invariant_I,
    tau_novikov,
)
from torsionlab.rings import (
    RationalFunction,
    TPolynomial,
    canonical_mod_units,
    expand_series,
    frac_equal,
)

import oracles
from conftest import R0, R1, tpolynomials


def circle_cn():
    t = TPolynomial.t(R0)
    return NovikovComplex(R0, 0, [1, 1], [[[1 - t]]])


def trefoil_cn():
    t = TPolynomial.t(R0)
    return NovikovComplex(R0, 1, [1, 1], [[[1 - t + t**2]]])


def lifted(cn, xi):
    """cn carrying the lift xi."""
    return NovikovComplex(
        cn.ring, cn.min_degree, cn.dims, cn.boundaries, cn.labels, cn.order, xi
    )


class TestNovikovComplex:
    def test_rejects_negative_t_degree(self):
        tinv = TPolynomial.monomial(R0, t_exp=-1)
        with pytest.raises(PreconditionError):
            NovikovComplex(R0, 0, [1, 1], [[[tinv]]])

    def test_order_recorded(self):
        cn = NovikovComplex(R0, 0, [1, 1], [[[TPolynomial.one(R0)]]], order=8)
        assert cn.order == 8
        assert circle_cn().order is None
        with pytest.raises(PreconditionError):
            NovikovComplex(R0, 0, [1, 1], [[[TPolynomial.one(R0)]]], order=-1)


class TestEulerLift:
    def test_offsets_validated(self):
        t = TPolynomial.t(R0)
        EulerLift(R0, [[t], [TPolynomial.one(R0)]])
        with pytest.raises(PreconditionError):
            EulerLift(R0, [[-t]])
        with pytest.raises(PreconditionError):
            EulerLift(R0, [[1 + t]])

    def test_trivial(self):
        xi = EulerLift.trivial(R0, [2, 1])
        assert [len(g) for g in xi.offsets] == [2, 1]


class TestTauNovikov:
    def test_empty_complex_gives_one(self):
        cn = NovikovComplex(R0, 0, [], [])
        value = tau_novikov(cn)
        assert not value.is_zero
        assert frac_equal(value, RationalFunction.one(R0))

    def test_circle_pair(self):
        value = tau_novikov(circle_cn())
        t = TPolynomial.t(R0)
        assert frac_equal(value, RationalFunction(TPolynomial.one(R0), 1 - t))

    def test_offset_equivariance(self):
        t = TPolynomial.t(R0)
        cn = circle_cn()
        base = tau_novikov(cn)
        xi = EulerLift(R0, [[TPolynomial.one(R0)], [t]])
        shifted = tau_novikov(lifted(cn, xi))
        # degree-1 offset t scales the raw torsion by t^-1
        tinv = RationalFunction(TPolynomial.one(R0), t)
        assert frac_equal(shifted, base * tinv)
        assert canonical_mod_units(shifted).num == canonical_mod_units(base).num
        assert canonical_mod_units(shifted).den == canonical_mod_units(base).den

    @pytest.mark.parametrize("seed", range(8))
    def test_equivariance_random(self, seed):
        rng = oracles.seeded(700 + seed)
        _, C = oracles.random_acyclic_complex(rng, R0)
        # clamp entries to nonnegative t-degree, then apply one random offset
        cn = NovikovComplex(
            R0,
            C.min_degree,
            C.dims,
            [
                [[_shift_nonneg(e) for e in row] for row in mat]
                for mat in C.boundaries
            ],
        )
        base = tau_novikov(cn)
        if base.is_zero:
            return
        j = rng.randrange(len(cn.dims))
        if cn.dims[j] == 0:
            return
        k = rng.randrange(cn.dims[j])
        exp = rng.randint(1, 3)
        u = TPolynomial.t(R0) ** exp
        offsets = [[TPolynomial.one(R0)] * d for d in cn.dims]
        offsets[j][k] = u
        moved = tau_novikov(lifted(cn, EulerLift(R0, offsets)))
        degree = cn.min_degree + j
        u_rf = RationalFunction(u)
        scale = u_rf if degree % 2 == 0 else u_rf.inverse()
        assert frac_equal(moved, base * scale)

    def test_offset_shape_checked(self):
        # the complex checks its lift once, at construction
        cn = circle_cn()
        with pytest.raises(PreconditionError, match="lift offsets do not match"):
            lifted(cn, EulerLift(R0, [[TPolynomial.one(R0)]]))
        with pytest.raises(PreconditionError, match="mismatched ring specs"):
            lifted(cn, EulerLift.trivial(R1, [1, 1]))
        assert lifted(cn, EulerLift.trivial(R0, [1, 1])).lift.offsets == [[1], [1]]


class TestApplyLift:
    @staticmethod
    def complex_of(dims, entry):
        boundaries = [
            [[entry() for _ in range(dims[j + 1])] for _ in range(dims[j])]
            for j in range(len(dims) - 1)
        ]
        return BasedChainComplex(R1, -1, dims, boundaries)

    @given(data=st.data())
    def test_matches_one_rebase_per_generator(self, data):
        dims = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
        C = self.complex_of(dims, lambda: data.draw(tpolynomials(ring=R1, max_terms=2)))

        def offset():
            t_exp = data.draw(st.integers(-2, 2))
            v = data.draw(st.integers(-2, 2))
            return TPolynomial.monomial(R1, t_exp=t_exp, v=(v,))

        xi = EulerLift(R1, [[offset() for _ in range(d)] for d in dims])
        expected = C
        for j, group in enumerate(xi.offsets):
            for index, u in enumerate(group):
                expected = rebase_basis(expected, C.min_degree + j, index, u)
        lifted = apply_lift(C, xi, C.min_degree)
        assert lifted.boundaries == expected.boundaries
        assert lifted.dims == C.dims and lifted.min_degree == C.min_degree

    @pytest.mark.parametrize("seed", range(8))
    def test_one_offset_is_one_rebase(self, seed):
        rng = oracles.seeded(950 + seed)
        ring = R1 if seed % 2 else R0
        C = oracles.random_valid_complex(rng, ring, min_degree=rng.randint(-1, 1), length=3)
        j = rng.choice([k for k, d in enumerate(C.dims) if d])
        index = rng.randrange(C.dims[j])
        u = oracles.random_unit(rng, ring, t_span=2, v_span=2)
        u = u * u.unit_parts()[0]  # lift offsets carry the sign +1
        offsets = [[TPolynomial.one(ring)] * d for d in C.dims]
        offsets[j][index] = u
        lifted = apply_lift(C, EulerLift(ring, offsets), C.min_degree)
        expected = rebase_basis(C, C.min_degree + j, index, u)
        assert [[[e.terms for e in row] for row in mat] for mat in lifted.boundaries] == [
            [[e.terms for e in row] for row in mat] for mat in expected.boundaries
        ]

    def test_no_lift_keeps_the_complex(self):
        C = circle_cn()
        assert apply_lift(C, None, 0) is C

    def test_groups_scale_leading_generators_from_min_degree(self):
        # a lift made for degrees 1..2 applied to a wider complex from degree 0
        t = TPolynomial.t(R1)
        one = TPolynomial.one(R1)
        C = self.complex_of([1, 2, 2], lambda: one)
        xi = EulerLift(R1, [[t], [one]])
        lifted = apply_lift(C, xi, 1)
        expected = rebase_basis(C, 1, 0, t)
        assert lifted.boundaries == expected.boundaries

    def test_offsets_outside_the_complex(self):
        t = TPolynomial.t(R0)
        one = TPolynomial.one(R0)
        C = circle_cn()
        # trivial offsets never touch the complex, wherever they sit
        trivial = EulerLift(R0, [[one], [one, one]])
        assert apply_lift(C, trivial, 0).boundaries == C.boundaries
        with pytest.raises(PreconditionError):
            apply_lift(C, EulerLift(R0, [[one], [one, t]]), 0)
        with pytest.raises(PreconditionError):
            apply_lift(C, EulerLift(R0, [[one], [one], [t]]), 0)


def _shift_nonneg(p):
    """Push any negative t-degrees up so the entry is a flow-line count."""
    if not p:
        return p
    m = p.min_t_degree()
    if m >= 0:
        return p
    return p * TPolynomial.t(p.ring, -m)


class TestInvariantI:
    def test_exact_product(self):
        t = TPolynomial.t(R0)
        zeta = RationalFunction(TPolynomial.one(R0), 1 - t)
        one = RationalFunction.one(R0)
        inv = invariant_I(zeta, one)
        assert not inv.is_zero
        assert frac_equal(inv, zeta)

    def test_circle_two_presentations_agree(self):
        t = TPolynomial.t(R0)
        # no critical points: zeta carries everything
        no_crit = invariant_I(
            RationalFunction(TPolynomial.one(R0), 1 - t),
            RationalFunction.one(R0),
        )
        # one critical pair: torsion carries everything
        tau = tau_novikov(circle_cn())
        with_crit = invariant_I(RationalFunction.one(R0), tau)
        a = canonical_mod_units(no_crit)
        b = canonical_mod_units(with_crit)
        assert a.num == b.num and a.den == b.den

    def test_zero_torsion(self):
        zeta = RationalFunction.one(R0)
        assert invariant_I(zeta, RationalFunction.zero(R0)).is_zero

    def test_series_route(self):
        t = TPolynomial.t(R0)
        zeta = TPolynomial.one(R0).truncate(5)
        tau = tau_novikov(circle_cn())
        inv = invariant_I(zeta, tau)
        assert inv.order is not None
        assert inv == expand_series(tau, 5)


class TestRankCheck:
    def test_circle_pair(self):
        t = TPolynomial.t(R0)
        cw = BasedChainComplex(R0, 0, [1, 1], [[[t - 1]]])
        assert oracles.novikov_rank_check(circle_cn(), cw)

    def test_empty_vs_torus_like(self):
        z = TPolynomial.zero(R0)
        cw = BasedChainComplex(R0, 0, [1, 2, 1], [[[z, z]], [[z], [z]]])
        cn = NovikovComplex(R0, 0, [], [])
        assert not oracles.novikov_rank_check(cn, cw)

    def test_trefoil_pair(self):
        t = TPolynomial.t(R0)
        b1 = [[t - 1, t - 1, t - 1]]
        b2 = [
            [1 - t, -TPolynomial.one(R0), -1 - t**2],
            [t, 1 - t, TPolynomial.one(R0)],
            [-TPolynomial.one(R0), t, t**2],
        ]
        b3 = [[t - t**2], [1 - t**2], [t - 1]]
        cw = BasedChainComplex(R0, 0, [1, 3, 3, 1], [b1, b2, b3])
        assert oracles.novikov_rank_check(trefoil_cn(), cw)

    def test_offset_degree_ranges(self):
        # same ranks in overlapping degrees, zero elsewhere
        t = TPolynomial.t(R0)
        cn = trefoil_cn()
        cw = BasedChainComplex(R0, 0, [1, 1], [[[1 - t]]])
        assert oracles.novikov_rank_check(cn, cw)


def test_generic_entry_points_see_the_baseline_basis():
    # torsion_tau ignores a Novikov complex's lift and rebase_basis returns
    # a plain complex without lift or order; only tau_novikov and
    # apply_lift apply a lift
    t = TPolynomial.t(R0)
    one = TPolynomial.one(R0)
    cn = NovikovComplex(R0, 0, [1, 1], [[[1 - t]]], order=4, lift=EulerLift(R0, [[t**2], [one]]))
    assert frac_equal(torsion_tau(cn), RationalFunction(one, 1 - t))
    assert frac_equal(tau_novikov(cn), RationalFunction(t**2, 1 - t))
    rebased = rebase_basis(cn, 1, 0, t)
    assert type(rebased) is BasedChainComplex
    assert not hasattr(rebased, "lift") and not hasattr(rebased, "order")
