import pytest

from torsionlab.errors import PreconditionError
from torsionlab.complexes import (
    BasedChainComplex,
    HomologyBasis,
    ShortExactSequence,
    default_homology_basis,
    homology_ranks,
    product_formula_check,
    rebase_basis,
    torsion_tau,
    torsion_tau_hat,
    validate_complex,
)
from torsionlab.linalg import mat_is_zero
from torsionlab.rings import (
    RationalFunction,
    TPolynomial,
    canonical_mod_units,
    frac_equal,
    unit_equivalent,
)

import oracles
from conftest import R0, R1, RINGS, tpoly


def count_eliminations(monkeypatch):
    """Patch complexes._eliminate_poly to record each matrix it is handed,
    as it was before the elimination; returns the list of records."""
    import torsionlab.complexes as complexes

    calls = []
    original = complexes._eliminate_poly

    def counted(W, one, **kwargs):
        calls.append([list(row) for row in W])
        return original(W, one, **kwargs)

    monkeypatch.setattr(complexes, "_eliminate_poly", counted)
    return calls


def circle_complex(ring):
    t = TPolynomial.t(ring)
    return BasedChainComplex(ring, 0, [1, 1], [[[1 - t]]])


def trefoil_surgery_complex():
    t = TPolynomial.t(R0)
    b1 = [[t - 1, t - 1, t - 1]]
    b2 = [
        [1 - t, -TPolynomial.one(R0), -1 - t**2],
        [t, 1 - t, TPolynomial.one(R0)],
        [-TPolynomial.one(R0), t, t**2],
    ]
    b3 = [[t - t**2], [1 - t**2], [t - 1]]
    return BasedChainComplex(R0, 0, [1, 3, 3, 1], [b1, b2, b3])


class TestConstruction:
    def test_shape_checks(self):
        t = TPolynomial.t(R0)
        with pytest.raises(PreconditionError):
            BasedChainComplex(R0, 0, [1, 2], [[[1 - t]]])
        with pytest.raises(PreconditionError):
            BasedChainComplex(R0, 0, [1, 1], [])
        with pytest.raises(PreconditionError):
            BasedChainComplex(R0, 0, [1], [[[1 - t]]])

    def test_entry_ring_check(self):
        with pytest.raises(PreconditionError):
            BasedChainComplex(R0, 0, [1, 1], [[[TPolynomial.t(R1)]]])

    def test_labels_checked(self):
        t = TPolynomial.t(R0)
        with pytest.raises(PreconditionError):
            BasedChainComplex(R0, 0, [1, 1], [[[1 - t]]], labels=[["a"], []])
        C = BasedChainComplex(R0, 0, [1, 1], [[[1 - t]]], labels=[["p"], ["q"]])
        assert C.labels == [["p"], ["q"]]

    def test_degree_index(self):
        C = circle_complex(R0)
        assert C.degree_index(0) == 0
        assert C.degree_index(1) == 1
        with pytest.raises(PreconditionError):
            C.degree_index(2)


class TestValidation:
    def test_good_complex(self):
        assert validate_complex(trefoil_surgery_complex()) == []

    def test_broken_square(self):
        t = TPolynomial.t(R0)
        C = BasedChainComplex(R0, 0, [1, 1, 1], [[[1 - t]], [[TPolynomial.one(R0)]]])
        assert validate_complex(C) == ["d^2 != 0 at degree 2"]

    def test_torsion_refuses_broken(self):
        t = TPolynomial.t(R0)
        C = BasedChainComplex(R0, 0, [1, 1, 1], [[[1 - t]], [[TPolynomial.one(R0)]]])
        with pytest.raises(PreconditionError):
            torsion_tau(C)

    def test_homology_refuses_broken(self):
        # with d^2 != 0 the pivots count no homology: ranks read [0, -1, 0]
        one = TPolynomial.one(R0)
        C = BasedChainComplex(R0, 0, [1, 1, 1], [[[one]], [[one]]])
        for run in (homology_ranks, default_homology_basis, torsion_tau_hat):
            with pytest.raises(PreconditionError, match=r"^d\^2 != 0 at degree 2$"):
                run(C)
        C = BasedChainComplex(R0, 0, [1, 1, 1, 1], [[[one]], [[one]], [[one]]])
        with pytest.raises(PreconditionError, match=r"^d\^2 != 0 at degree 2; d\^2 != 0 at degree 3$"):
            homology_ranks(C)

    @pytest.mark.parametrize("seed", range(3))
    def test_tau_hat_validates_once(self, seed, monkeypatch):
        import torsionlab.complexes as complexes

        calls = []
        real = complexes.validate_complex

        def counted(C):
            calls.append(C)
            return real(C)

        monkeypatch.setattr(complexes, "validate_complex", counted)
        C = oracles.random_valid_complex(oracles.seeded(60 + seed), R1, length=3)
        torsion_tau_hat(C)
        torsion_tau_hat(C, default_homology_basis(C))
        assert calls == [C]


class TestHomologyRanks:
    def test_acyclic(self):
        assert homology_ranks(circle_complex(R0)) == [0, 0]
        assert homology_ranks(trefoil_surgery_complex()) == [0, 0, 0, 0]

    def test_zero_boundaries(self):
        z = TPolynomial.zero(R0)
        C = BasedChainComplex(R0, 0, [1, 2, 1], [[[z, z]], [[z], [z]]])
        assert homology_ranks(C) == [1, 2, 1]

    def test_single_module(self):
        C = BasedChainComplex(R0, 0, [2], [])
        assert homology_ranks(C) == [2]


class TestTorsionEngine:
    def test_circle_value(self):
        value = torsion_tau(circle_complex(R0))
        assert not value.is_zero
        t = TPolynomial.t(R0)
        assert frac_equal(value, RationalFunction(TPolynomial.one(R0), 1 - t))
        assert canonical_mod_units(value).num == 1
        assert canonical_mod_units(value).den == 1 - t

    def test_shifted_circle(self):
        t = TPolynomial.t(R0)
        C = BasedChainComplex(R0, 1, [1, 1], [[[1 - t]]])
        value = torsion_tau(C)
        assert frac_equal(value, RationalFunction(1 - t))

    def test_empty_complexes(self):
        for dims, bnds in [([], []), ([0], []), ([0, 0], [[]])]:
            C = BasedChainComplex(R0, 0, dims, bnds)
            value = torsion_tau(C)
            assert not value.is_zero
            assert frac_equal(value, RationalFunction.one(R0))

    def test_not_acyclic_is_none(self):
        z = TPolynomial.zero(R0)
        C = BasedChainComplex(R0, 0, [1, 2, 1], [[[z, z]], [[z], [z]]])
        assert torsion_tau(C).is_zero
        D = BasedChainComplex(R0, 0, [1], [])
        assert torsion_tau(D).is_zero

    def test_trefoil_surgery_value(self):
        value = torsion_tau(trefoil_surgery_complex())
        assert not value.is_zero
        t = TPolynomial.t(R0)
        expected = RationalFunction(1 - t + t**2, (1 - t) ** 2)
        assert unit_equivalent(value, expected)

    def test_deterministic(self):
        C = trefoil_surgery_complex()
        a = torsion_tau(C)
        b = torsion_tau(C)
        assert a.num == b.num and a.den == b.den

    def test_fraction_rows_divide_only_kept_factors(self):
        from torsionlab.complexes import _torsion_engine

        # d1 = [p, q] puts column 0 in the chain, so d2 = [-q/r, p/r]^T
        # keeps only its row 1; the transition matrix in degree 1 is
        # [[-q/r, 1], [p/r, 0]], of determinant -p/r, so the torsion is
        # (-p/r) / p = -1/r
        t = TPolynomial.t(R0)
        p, q, r = 1 + t, 2 + t**2, 1 - t
        d1 = [[RationalFunction(p), RationalFunction(q)]]
        d2 = [[RationalFunction(-q, r)], [RationalFunction(p, r)]]
        value = _torsion_engine(R0, 0, [1, 2, 1], [d1, d2])
        assert frac_equal(value, RationalFunction(-TPolynomial.one(R0), r))

    @pytest.mark.parametrize("seed", range(6))
    def test_fraction_matrices_go_in_directly(self, seed, monkeypatch):
        import torsionlab.rings as rings
        from torsionlab.complexes import _torsion_engine

        rng = oracles.seeded(6100 + seed)
        ring = R1 if seed % 2 else R0
        _, C = oracles.random_acyclic_complex(rng, ring)
        expected = torsion_tau(C)
        mats = [[[RationalFunction(e) for e in row] for row in mat] for mat in C.boundaries]
        products = []
        real = rings._mul_terms

        def counted(x, y, cap=None):
            products.append(1)
            return real(x, y, cap)

        # fractions with denominator 1 cost no clearing product, and give
        # the polynomial engine's value pair for pair
        monkeypatch.setattr(rings, "_mul_terms", counted)
        _torsion_engine(ring, C.min_degree, C.dims, C.boundaries)
        polynomial_products = len(products)
        value = _torsion_engine(ring, C.min_degree, C.dims, mats)
        assert len(products) == 2 * polynomial_products
        monkeypatch.undo()
        assert (value.num, value.den) == (expected.num, expected.den)
        # a generator divided by a fraction f scales its column by f and
        # its row by 1/f, and the torsion by f^(+-1) as a unit would
        j = rng.choice([k for k, d in enumerate(C.dims) if d])
        index = rng.randrange(C.dims[j])
        f = RationalFunction(
            oracles.random_poly(rng, ring, nonzero=True), oracles.random_poly(rng, ring, nonzero=True)
        )
        if j >= 1:
            for row in mats[j - 1]:
                row[index] = row[index] * f
        if j < len(mats):
            mats[j][index] = [e / f for e in mats[j][index]]
        value = _torsion_engine(ring, C.min_degree, C.dims, mats)
        scale = f if (C.min_degree + j) % 2 == 0 else f.inverse()
        assert frac_equal(value, expected * scale)

    def test_one_elimination_per_boundary(self, monkeypatch):
        import torsionlab.complexes as complexes
        import torsionlab.linalg as linalg

        plain, sheared = oracles.random_acyclic_complex(oracles.seeded(6009), R1)
        expected = torsion_tau(plain)
        calls = []
        real = complexes._eliminate_poly

        def counted(W, one, **kwargs):
            calls.append(len(W))
            return real(W, one, **kwargs)

        def refused(ring, M):
            raise AssertionError("torsion_tau took a separate determinant")

        monkeypatch.setattr(complexes, "_eliminate_poly", counted)
        monkeypatch.setattr(linalg, "bareiss_det", refused)
        for C in (trefoil_surgery_complex(), sheared):
            calls.clear()
            value = torsion_tau(C)
            assert not value.is_zero
            assert len(calls) == len(C.boundaries)
        assert frac_equal(value, expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_invariant_under_shearing(self, seed):
        rng = oracles.seeded(seed)
        ring = R1 if seed % 2 else R0
        plain, sheared = oracles.random_acyclic_complex(rng, ring)
        expected = torsion_tau(plain)
        got = torsion_tau(sheared)
        assert not expected.is_zero and not got.is_zero
        assert frac_equal(expected, got)

    @pytest.mark.parametrize("ring", RINGS, ids=["b0", "b1", "b2"])
    def test_sign_independent_of_the_chain(self, ring):
        # twelve nonzero shears move the pivot chains; the sign, not only
        # the value up to units, must stay, and must be Turaev's
        for seed in range(100):
            rng = oracles.seeded(7000 + 100 * ring.num_group_vars + seed)
            plain, sheared = oracles.random_acyclic_complex(rng, ring, max_len=5, shear_ops=12)
            expected = torsion_tau(plain)
            got = torsion_tau(sheared)
            assert not expected.is_zero
            assert frac_equal(got, expected), seed
            none = HomologyBasis(ring, [[] for _ in sheared.dims])
            assert frac_equal(got, oracles.transition_torsion(sheared, none)), seed


class TestTauHat:
    def test_single_module_scaled_generator(self):
        t = TPolynomial.t(R0)
        C = BasedChainComplex(R0, 0, [1], [])
        h = HomologyBasis(R0, [[[t]]])
        value = torsion_tau_hat(C, h)
        tinv = RationalFunction(TPolynomial.one(R0), t)
        assert frac_equal(value, tinv)

    def test_fraction_vector_scales_its_piece(self):
        # a representative times r scales the degree-1 piece by r, which
        # enters tau-hat as r in an odd degree
        t = TPolynomial.t(R0)
        z = TPolynomial.zero(R0)
        C = BasedChainComplex(R0, 0, [1, 2], [[[1 - t, z]]])
        base = torsion_tau_hat(C)
        r = RationalFunction(2 + t, 1 + t**2)
        h = default_homology_basis(C)
        scaled = HomologyBasis(R0, [h.vectors[0], [[e * r for e in h.vectors[1][0]]]])
        assert frac_equal(torsion_tau_hat(C, scaled), base * r)

    def test_two_term_values(self):
        t = TPolynomial.t(R0)
        low = BasedChainComplex(R0, 0, [1, 1], [[[1 - t]]])
        assert frac_equal(
            torsion_tau_hat(low), RationalFunction(TPolynomial.one(R0), 1 - t)
        )
        high = BasedChainComplex(R0, 1, [1, 1], [[[1 - t]]])
        assert frac_equal(torsion_tau_hat(high), RationalFunction(1 - t))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_tau_when_acyclic(self, seed):
        rng = oracles.seeded(100 + seed)
        ring = R0 if seed % 2 else R1
        _, C = oracles.random_acyclic_complex(rng, ring)
        tau = torsion_tau(C)
        hat = torsion_tau_hat(C)
        assert not tau.is_zero
        assert unit_equivalent(tau, hat)

    @pytest.mark.parametrize("seed", range(6))
    def test_acyclic_runs_no_kernel(self, seed, monkeypatch):
        import torsionlab.complexes as complexes
        import torsionlab.linalg as linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("kernel or completion in an acyclic degree")

        for module in (complexes, linalg):
            monkeypatch.setattr(module, "_back_substitute", forbidden)
        monkeypatch.setattr(complexes, "poly_rank_pivots", forbidden)
        rng = oracles.seeded(150 + seed)
        _, C = oracles.random_acyclic_complex(rng, R1 if seed % 2 else R0)
        tau = torsion_tau(C)
        hat = torsion_tau_hat(C)
        assert not tau.is_zero
        assert unit_equivalent(tau, hat)

    @pytest.mark.parametrize("seed", range(6))
    def test_homology_path_adds_and_inverts_no_fractions(self, seed, monkeypatch):
        rng = oracles.seeded(170 + seed)
        C = oracles.random_valid_complex(rng, R1 if seed % 2 else R0, max_len=4)
        assert any(homology_ranks(C))
        # the full transition determinants multiplied in the fraction
        # field, odd degrees up
        expected = oracles.transition_torsion(C, default_homology_basis(C))

        def refused(*args):
            raise AssertionError("fraction-field arithmetic on the homology path")

        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "inverse"):
            monkeypatch.setattr(RationalFunction, name, refused)
        value = torsion_tau_hat(C)
        monkeypatch.undo()
        assert frac_equal(value, expected)

    @pytest.mark.parametrize("with_basis", [False, True], ids=["default", "given"])
    def test_each_boundary_eliminated_once(self, with_basis, monkeypatch):
        # each boundary once for the pivots (the default basis already
        # took them), then the engine once per boundary of the cone
        rng = oracles.seeded(196)
        C = oracles.random_valid_complex(rng, R1, length=3)
        h = default_homology_basis(C) if with_basis else None
        calls = count_eliminations(monkeypatch)
        torsion_tau_hat(C, h)
        basis = default_homology_basis(C)
        cone = oracles.cone(C, basis)
        # the count compares something: C has boundaries and homology
        assert any(not mat_is_zero(mat) for mat in C.boundaries)
        assert any(basis.counts())
        assert len(calls) == (0 if with_basis else len(C.boundaries)) + len(cone.boundaries)

    def test_huge_exponent_finishes(self):
        from time import perf_counter

        # back-substitution multiplies by pivots and never trial-divides,
        # so a degree-2^20 entry costs a handful of two-term products
        t = TPolynomial.t(R0)
        C = BasedChainComplex(R0, 0, [1, 2], [[[t + 2, t ** (2**20) + 2]]])
        start = perf_counter()
        value = torsion_tau_hat(C)
        assert perf_counter() - start < 1.0
        # H_1 is spanned by (-(t^N + 2), t + 2), which with e_0 has
        # determinant -(t + 2), and degree 0 gives t + 2
        assert unit_equivalent(value, RationalFunction.one(R0))

    def test_count_mismatch_rejected(self):
        C = BasedChainComplex(R0, 0, [1], [])
        with pytest.raises(PreconditionError):
            torsion_tau_hat(C, HomologyBasis(R0, [[]]))

    @pytest.mark.parametrize(
        "vectors, message",
        [
            ([[], [], []], "^homology basis has the wrong number of degrees$"),
            ([[], [[TPolynomial.one(R0)]]], "^homology vector length mismatch at degree 4$"),
        ],
        ids=["degrees", "length"],
    )
    def test_malformed_shapes_rejected(self, vectors, message):
        z = TPolynomial.zero(R0)
        C = BasedChainComplex(R0, 3, [1, 2], [[[1 - TPolynomial.t(R0), z]]])
        with pytest.raises(PreconditionError, match=message):
            torsion_tau_hat(C, HomologyBasis(R0, vectors))

    def test_non_cycle_rejected(self):
        t = TPolynomial.t(R0)
        z = TPolynomial.zero(R0)
        # degree 1 has a free generator next to a pair hitting degree 0
        C = BasedChainComplex(R0, 0, [1, 2], [[[1 - t, z]]])
        bad = HomologyBasis(R0, [[], [[TPolynomial.one(R0), TPolynomial.one(R0)]]])
        with pytest.raises(PreconditionError):
            torsion_tau_hat(C, bad)

    @pytest.mark.parametrize(
        "name",
        ["ints", "bools", "strs", "int_1x1", "int_beside_poly", "fraction_module",
         "truncation", "other_ring_poly", "other_ring_fraction"],
    )
    def test_malformed_entries_rejected(self, name):
        from fractions import Fraction

        one, z = TPolynomial.one(R0), TPolynomial.zero(R0)
        one_1, z_1 = TPolynomial.one(R1), TPolynomial.zero(R1)
        window = TPolynomial(R0, {(0, ()): 1}, order=3)
        vectors = {
            "ints": [[1, 0], [0, 1]],
            "bools": [[True, False], [False, True]],
            "strs": [["1", "0"], ["0", "1"]],
            "int_1x1": [[1]],
            "int_beside_poly": [[one, 0], [z, one]],
            "fraction_module": [[Fraction(1, 2), z], [z, one]],
            "truncation": [[window, z], [z, one]],
            "other_ring_poly": [[one_1, z_1], [z_1, one_1]],
            "other_ring_fraction": [[RationalFunction(one_1), z], [z, one]],
        }[name]
        C = BasedChainComplex(R0, 3, [len(vectors)], [])
        with pytest.raises(PreconditionError, match="at degree 3$"):
            torsion_tau_hat(C, HomologyBasis(R0, [vectors]))

    def test_basis_over_another_ring_rejected(self):
        one, z = TPolynomial.one(R0), TPolynomial.zero(R0)
        C = BasedChainComplex(R0, 0, [2], [])
        with pytest.raises(PreconditionError, match="another ring"):
            torsion_tau_hat(C, HomologyBasis(R1, [[[one, z], [z, one]]]))
        # the same vectors over the right ring are a basis
        value = torsion_tau_hat(C, HomologyBasis(R0, [[[one, z], [z, one]]]))
        assert frac_equal(value, RationalFunction.one(R0))

    def test_non_spanning_rejected(self):
        z = TPolynomial.zero(R0)
        C = BasedChainComplex(R0, 0, [2], [])
        squashed = HomologyBasis(
            R0,
            [[[TPolynomial.one(R0), z], [TPolynomial.one(R0), z]]],
        )
        with pytest.raises(PreconditionError):
            torsion_tau_hat(C, squashed)

    @pytest.mark.parametrize("min_degree", [0, 3])
    @pytest.mark.parametrize("where", ["bottom", "top"])
    def test_non_spanning_names_its_degree(self, where, min_degree):
        t = TPolynomial.t(R0)
        one, z = TPolynomial.one(R0), TPolynomial.zero(R0)
        if where == "bottom":
            # h_0 is the image of 1 - t, so the cycles of degree index 0 are
            # not spanned; degree index 1 has no homology
            C = BasedChainComplex(R0, min_degree, [2, 1], [[[1 - t], [z]]])
            h, index = HomologyBasis(R0, [[[1 - t, z]], []]), 0
        else:
            # degree index 0 is the image of 1 - t; in degree index 1 the
            # second vector is t times the first
            C = BasedChainComplex(R0, min_degree, [1, 3], [[[1 - t, z, z]]])
            h, index = HomologyBasis(R0, [[], [[z, one, t], [z, t, t * t]]]), 1
        message = "^homology basis does not span at degree %d$" % (min_degree + index)
        with pytest.raises(PreconditionError, match=message):
            torsion_tau_hat(C, h)

    @pytest.mark.parametrize("seed", range(10))
    def test_default_basis_counts(self, seed):
        rng = oracles.seeded(200 + seed)
        ring = R0 if seed % 3 else R1
        C = oracles.random_valid_complex(rng, ring)
        h = default_homology_basis(C)
        assert h.counts() == homology_ranks(C)
        # and the representatives pass the full validation inside tau_hat
        torsion_tau_hat(C, h)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_elimination_per_boundary(self, seed, monkeypatch):
        import torsionlab.complexes as complexes

        # the completion eliminates inside linalg; complexes eliminates
        # the boundary matrices, then the cone's boundaries on the free rows
        seen = []
        real = complexes._eliminate_poly

        def recorded(W, one, **kwargs):
            seen.append([list(row) for row in W])
            return real(W, one, **kwargs)

        monkeypatch.setattr(complexes, "_eliminate_poly", recorded)
        rng = oracles.seeded(250 + seed)
        C = oracles.random_valid_complex(rng, R0 if seed % 2 else R1, length=3)
        for C in (C, trefoil_surgery_complex()):
            seen.clear()
            torsion_tau_hat(C)
            # from the top down: each rank bounds which rows the next is read for
            cone_rows = oracles.cone_free_rows(C, default_homology_basis(C))
            assert seen == C.boundaries[::-1] + cone_rows


class TestRebase:
    @pytest.mark.parametrize("seed", range(10))
    def test_raw_scales_canonical_fixed(self, seed):
        rng = oracles.seeded(300 + seed)
        ring = R1 if seed % 2 else R0
        _, C = oracles.random_acyclic_complex(rng, ring)
        degree_idx = rng.randrange(len(C.dims))
        if C.dims[degree_idx] == 0:
            return
        index = rng.randrange(C.dims[degree_idx])
        u = oracles.random_unit(rng, ring)
        degree = C.min_degree + degree_idx
        moved = rebase_basis(C, degree, index, u)
        before = torsion_tau(C)
        after = torsion_tau(moved)
        assert not before.is_zero and not after.is_zero
        u_rf = RationalFunction(u)
        scale = u_rf if degree % 2 == 0 else u_rf.inverse()
        assert frac_equal(after, before * scale)
        assert canonical_mod_units(after).num == canonical_mod_units(before).num
        assert canonical_mod_units(after).den == canonical_mod_units(before).den

    def test_rejects_non_unit(self):
        C = circle_complex(R0)
        t = TPolynomial.t(R0)
        with pytest.raises(PreconditionError):
            rebase_basis(C, 0, 0, 1 - t)
        with pytest.raises(PreconditionError):
            rebase_basis(C, 0, 0, 2 * t)

    def test_rejects_bad_position(self):
        C = circle_complex(R0)
        t = TPolynomial.t(R0)
        with pytest.raises(PreconditionError):
            rebase_basis(C, 5, 0, t)
        with pytest.raises(PreconditionError):
            rebase_basis(C, 0, 3, t)


class TestExtensions:
    def test_block_validation(self):
        t = TPolynomial.t(R0)
        sub = circle_complex(R0)
        quot = BasedChainComplex(R0, 0, [1, 1], [[[1 + t]]])
        rng = oracles.seeded(7)
        ses = oracles.assemble_extension(rng, sub, quot)
        assert ses.total.dims == [2, 2]
        assert validate_complex(ses.total) == []

    def test_mismatched_blocks_rejected(self):
        t = TPolynomial.t(R0)
        sub = circle_complex(R0)
        quot = BasedChainComplex(R0, 0, [1, 1], [[[1 + t]]])
        z = TPolynomial.zero(R0)
        wrong = BasedChainComplex(
            R0, 0, [2, 2], [[[1 - t, z], [TPolynomial.one(R0), 1 + t]]]
        )
        with pytest.raises(PreconditionError):
            ShortExactSequence(sub, wrong, quot)

    def test_dims_must_add(self):
        sub = circle_complex(R0)
        quot = circle_complex(R0)
        with pytest.raises(PreconditionError):
            ShortExactSequence(sub, circle_complex(R0), quot)

    @pytest.mark.parametrize("seed", range(15))
    def test_torsion_multiplies(self, seed):
        rng = oracles.seeded(400 + seed)
        ring = R0 if seed % 2 else R1
        ses = oracles.random_extension(rng, ring)
        assert product_formula_check(ses)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_boundary_eliminated_once(self, seed, monkeypatch):
        # the default bases and the three torsions share one elimination
        # of each boundary, and each torsion eliminates its cone on the
        # free rows; the class coordinates eliminate wider matrices
        rng = oracles.seeded(420 + seed)
        ses = oracles.random_extension(rng, R0 if seed % 2 else R1)
        calls = count_eliminations(monkeypatch)
        assert product_formula_check(ses)
        parts = (ses.sub, ses.total, ses.quotient)
        expected = [mat for C in parts for mat in C.boundaries[::-1]]
        expected += [
            rows for C in parts for rows in oracles.cone_free_rows(C, default_homology_basis(C))
        ]
        assert calls[: len(expected)] == expected
        boundaries = [mat for C in parts for mat in C.boundaries if mat and mat[0]]
        assert boundaries
        assert not any(mat in calls[len(expected) :] for mat in boundaries)

    @pytest.mark.parametrize("by_fraction", [False, True], ids=["t", "1/(1+t)"])
    def test_multiplies_with_scaled_bases(self, by_fraction):
        rng = oracles.seeded(55)
        ses = oracles.random_extension(rng, R0)
        t = TPolynomial.t(R0)
        scale = RationalFunction(TPolynomial.one(R0), 1 + t) if by_fraction else RationalFunction(t)
        h_total = default_homology_basis(ses.total)
        scaled = [
            [[entry * scale for entry in vec] for vec in group]
            for group in h_total.vectors
        ]
        assert product_formula_check(ses, h_total=HomologyBasis(R0, scaled))

    @pytest.mark.parametrize("seed", range(4))
    def test_class_coords_recover_the_combination(self, seed):
        from torsionlab.complexes import _class_coords

        rng = oracles.seeded(480 + seed)
        ring = R1 if seed % 2 else R0
        C = oracles.random_valid_complex(rng, ring, length=3)
        zero = RationalFunction.zero(ring)
        h = default_homology_basis(C)
        for j, group in enumerate(h.vectors):
            # fraction-scaled representatives, a fraction combination of
            # them, plus a boundary that the coordinates must ignore
            scales = [RationalFunction(oracles.random_poly(rng, ring, nonzero=True),
                                       oracles.random_poly(rng, ring, nonzero=True))
                      for _ in group]
            vectors = [[e * r for e in vec] for vec, r in zip(group, scales)]
            coeffs = [RationalFunction(oracles.random_poly(rng, ring),
                                       oracles.random_poly(rng, ring, nonzero=True))
                      for _ in group]
            target = [zero] * C.dims[j]
            for a, vec in zip(coeffs, vectors):
                target = [x + a * e for x, e in zip(target, vec)]
            bnd = C.boundary_into(j)
            if bnd:
                y = [oracles.random_poly(rng, ring) for _ in bnd[0]]
                target = [x + sum((b * e for b, e in zip(row, y)), zero) for x, row in zip(target, bnd)]
            got = _class_coords(ring, vectors, bnd, target)
            assert len(got) == len(coeffs)
            assert all(frac_equal(g, a) for g, a in zip(got, coeffs))

    def test_class_coords_reject_a_target_outside_the_span(self):
        from torsionlab.complexes import _class_coords

        # 1 - t kills no cycle in degree 1, and e_0 is no cycle there
        C = circle_complex(R0)
        with pytest.raises(ArithmeticError):
            _class_coords(R0, [], C.boundary_into(1), [RationalFunction.one(R0)])
