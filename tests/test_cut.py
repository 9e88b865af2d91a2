import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import torsionlab.linalg as linalg
from torsionlab.complexes import BasedChainComplex, torsion_tau
from torsionlab.cut import (
    CutSystem,
    approx_equal,
    assemble_boundary,
    check_K_vs_novikov,
    compute_K,
    tau_via_products,
    validate_cut_system,
    verify_main_theorem,
)
from torsionlab.errors import PreconditionError
from torsionlab.novikov import EulerLift, NovikovComplex
from torsionlab.rings import (
    RationalFunction,
    TPolynomial,
    canonical_mod_units,
    frac_equal,
    unit_equivalent,
)
from torsionlab.zeta import zeta_lefschetz

import oracles
from conftest import R0, R1, RINGS, tpoly


ONE = TPolynomial.one(R0)
ZERO = TPolynomial.zero(R0)
T = TPolynomial.t(R0)

CAT_MAP = [[2, 1], [1, 1]]


def rp(*pairs):
    """Shorthand: ((deg, coeff), ...) to a TPolynomial over the plain ring."""
    return tpoly(R0, {(d, ()): c for d, c in pairs})


def point_sigma(points=1):
    return BasedChainComplex(R0, 0, [points], [])


def torus_sigma():
    zero_12 = [[ZERO, ZERO]]
    zero_21 = [[ZERO], [ZERO]]
    return BasedChainComplex(R0, 0, [1, 2, 1], [zero_12, zero_21])


def circle_nocrit():
    # no critical points; the glued complex is the mapping torus of the point
    return CutSystem(
        point_sigma(),
        phi=[[[1]]],
        crit_dims=[0, 0],
        N=[[]],
        M=[[[]]],
        W=[[]],
    )


def circle_onecrit():
    # same circle presented with one cancelling pair of critical points
    return CutSystem(
        point_sigma(),
        phi=[[[0]]],
        crit_dims=[1, 1],
        N=[[[1]]],
        M=[[[1]]],
        W=[[[-1]]],
    )


def catmap_cut():
    return CutSystem(
        torus_sigma(),
        phi=[[[1]], CAT_MAP, [[1]]],
        crit_dims=[0, 0, 0, 0],
        N=[[], [], []],
        M=[[[]], [[], []], [[]]],
        W=[[], [], []],
    )


def stabilized_cut():
    """Cat-map torus with one cancelling handle pair in degrees 1 and 2."""
    return CutSystem(
        torus_sigma(),
        phi=[[[1]], CAT_MAP, [[1]]],
        crit_dims=[0, 1, 1, 0],
        N=[[], [[1]], [[]]],
        M=[[[0]], [[1], [0]], [[]]],
        W=[[], [[0, 1]], [[0]]],
    )


STABILIZED_SERIES = rp(
    (0, 1), (2, 1), (3, 3), (4, 8), (5, 21), (6, 55), (7, 144), (8, 377)
)


def stabilized_cn(entry=None, order=8):
    entry = STABILIZED_SERIES if entry is None else entry
    return NovikovComplex(R0, 1, [1, 1], [[[entry]]], order=order)


def two_degree_sigma(c):
    return BasedChainComplex(R0, 0, [1, 1], [[[rp((0, c))]]])


class TestCutSystemValidation:
    def test_shape_errors(self):
        with pytest.raises(PreconditionError):
            CutSystem(point_sigma(), [[[1]]], [1, 1], [[[1]]], [[[1], [1]]], [[[0]]])
        with pytest.raises(PreconditionError):
            CutSystem(point_sigma(), [[[1], [0]]], [0, 0], [[]], [[[]]], [[]])
        with pytest.raises(PreconditionError):
            CutSystem(point_sigma(), [[[1]]], [0, 0, 0], [[]], [[[]]], [[]])
        with pytest.raises(PreconditionError):
            CutSystem(point_sigma(), [[[1]]], [0], [[]], [[[]]], [[]])

    def test_t_free_enforced(self):
        with pytest.raises(PreconditionError, match="must not involve t"):
            CutSystem(point_sigma(), [[[T]]], [0, 0], [[]], [[[]]], [[]])
        with pytest.raises(PreconditionError, match="must not involve t"):
            CutSystem(
                point_sigma(),
                [[[1]]],
                [1, 1],
                [[[1 - T]]],
                [[[1]]],
                [[[0]]],
            )
        # a t-free block over another ring is refused at construction too,
        # not first in compute_K
        v = TPolynomial.var(R1, R1.var_names[0])
        with pytest.raises(PreconditionError, match="mismatched ring specs"):
            CutSystem(point_sigma(), [[[v]]], [0, 0], [[]], [[[]]], [[]])

    def test_sigma_degree_zero_start(self):
        shifted = BasedChainComplex(R0, 1, [1], [])
        with pytest.raises(PreconditionError):
            CutSystem(shifted, [[[1]]], [0, 0], [[]], [[[]]], [[]])

    def test_negative_crit_dim(self):
        with pytest.raises(PreconditionError):
            CutSystem(point_sigma(), [[[1]]], [0, -1], [[]], [[[]]], [[]])

    def test_clean_fixtures_have_empty_reports(self):
        for cs in (circle_nocrit(), circle_onecrit(), catmap_cut(), stabilized_cut()):
            assert validate_cut_system(cs) == []

    def test_sigma_dsq_defect_is_prefixed(self):
        bad = BasedChainComplex(R0, 0, [1, 1, 1], [[[ONE]], [[ONE]]])
        cs = CutSystem(
            bad,
            phi=[[[1]], [[1]], [[1]]],
            crit_dims=[0, 0, 0, 0],
            N=[[], [], []],
            M=[[[]], [[]], [[]]],
            W=[[], [], []],
        )
        assert validate_cut_system(cs) == ["sigma: d^2 != 0 at degree 2"]

    def test_critical_dsq_defect(self):
        cs = CutSystem(
            two_degree_sigma(0),
            phi=[[[0]], [[0]]],
            crit_dims=[1, 1, 1],
            N=[[[1]], [[1]]],
            M=[[[0]], [[0]]],
            W=[[[0]], [[0]]],
        )
        assert validate_cut_system(cs) == ["critical block d^2 != 0 at degree 2"]

    def test_mn_defect(self):
        cs = CutSystem(
            two_degree_sigma(0),
            phi=[[[0]], [[0]]],
            crit_dims=[1, 1, 1],
            N=[[[0]], [[1]]],
            M=[[[1]], [[0]]],
            W=[[[0]], [[0]]],
        )
        assert validate_cut_system(cs) == ["M/N compatibility fails at degree 2"]

    def test_wn_defect(self):
        cs = CutSystem(
            two_degree_sigma(0),
            phi=[[[0]], [[0]]],
            crit_dims=[1, 1, 1],
            N=[[[1]], [[0]]],
            M=[[[0]], [[0]]],
            W=[[[1]], [[1]]],
        )
        assert validate_cut_system(cs) == ["W/N compatibility fails at degree 2"]

    def test_commutator_defect(self):
        cs = CutSystem(
            two_degree_sigma(0),
            phi=[[[0]], [[0]]],
            crit_dims=[1, 1, 1],
            N=[[[0]], [[0]]],
            M=[[[1]], [[0]]],
            W=[[[0]], [[1]]],
        )
        assert validate_cut_system(cs) == [
            "return map fails the W/M commutator at degree 2"
        ]

    def test_commuting_return_map_passes(self):
        # identity return maps commute with any surface boundary
        cs = CutSystem(
            two_degree_sigma(3),
            phi=[[[1]], [[1]]],
            crit_dims=[0, 0, 0],
            N=[[], []],
            M=[[[]], [[]]],
            W=[[], []],
        )
        assert validate_cut_system(cs) == []

    def test_assemble_refuses_defective_data(self):
        cs = CutSystem(
            two_degree_sigma(0),
            phi=[[[0]], [[0]]],
            crit_dims=[1, 1, 1],
            N=[[[1]], [[1]]],
            M=[[[0]], [[0]]],
            W=[[[0]], [[0]]],
        )
        with pytest.raises(PreconditionError, match="critical block"):
            assemble_boundary(cs)


COUPLING_DEFECTS = {
    "sigma: d^2 != 0",
    "critical block d^2 != 0",
    "M/N compatibility fails",
    "W/N compatibility fails",
    "return map fails the W/M commutator",
}


def perturbed(rng, cs, name):
    """cs with one entry of one block of the named family moved by a
    nonzero t-free polynomial, or None when the family has no entries."""
    blocks = cs.sigma.boundaries if name == "sigma" else getattr(cs, name)
    spots = [
        (b, r, c)
        for b, mat in enumerate(blocks)
        for r, row in enumerate(mat)
        for c in range(len(row))
    ]
    if not spots:
        return None
    b, r, c = rng.choice(spots)
    blocks = [[list(row) for row in mat] for mat in blocks]
    blocks[b][r][c] = blocks[b][r][c] + oracles.random_poly(rng, cs.ring, t_hi=0, nonzero=True)
    parts = dict(sigma=cs.sigma, phi=cs.phi, crit_dims=cs.crit_dims, N=cs.N, M=cs.M, W=cs.W)
    if name == "sigma":
        parts["sigma"] = BasedChainComplex(cs.ring, 0, cs.sigma.dims, blocks)
    else:
        parts[name] = blocks
    return CutSystem(**parts)


def test_single_block_perturbations_match_the_identities():
    # the report read off the glued complex's d^2 against the identities
    # taken block by block
    seen = set()
    for seed in range(100):
        rng = oracles.seeded(7200 + seed)
        cs = oracles.coupled_cut_system(rng, RINGS[seed % 3], 2 + seed % 2)
        assert validate_cut_system(cs) == oracles.cut_system_report(cs) == []
        bad = perturbed(rng, cs, ("phi", "N", "M", "W", "sigma")[seed % 5])
        if bad is None:
            continue
        report = validate_cut_system(bad)
        assert report == oracles.cut_system_report(bad)
        seen.update(line.split(" at degree")[0] for line in report)
    assert seen == COUPLING_DEFECTS


class TestAssembly:
    def test_circle_nocrit(self):
        glued = assemble_boundary(circle_nocrit())
        assert glued.dims == [1, 1]
        assert glued.boundaries[0] == [[1 - T]]
        assert glued.labels == [["E0_0"], ["F1_0"]]

    def test_circle_onecrit(self):
        glued = assemble_boundary(circle_onecrit())
        assert glued.dims == [2, 2]
        assert glued.boundaries[0] == [[ONE, -ONE], [-T, ONE]]
        assert glued.labels[0] == ["D0_0", "E0_0"]
        assert glued.labels[1] == ["D1_0", "F1_0"]

    def test_catmap_dims_and_blocks(self):
        glued = assemble_boundary(catmap_cut())
        assert glued.dims == [1, 3, 3, 1]
        # degree-2 boundary carries 1 - t*phi_1 in the (E, F) corner
        d2 = glued.boundaries[1]
        assert d2[0][1] == 1 - 2 * T
        assert d2[0][2] == -T
        assert d2[1][1] == -T
        assert d2[1][2] == 1 - T
        assert d2[2][1] == ZERO
        d3 = glued.boundaries[2]
        assert d3[0][0] == 1 - T
        assert d3[1][0] == ZERO

    def test_stabilized_dims_and_couplings(self):
        glued = assemble_boundary(stabilized_cut())
        assert glued.dims == [1, 4, 4, 1]
        d2 = glued.boundaries[1]
        assert d2[0][0] == ONE
        assert d2[0][3] == ONE
        assert d2[1][0] == -T
        assert d2[2][0] == ZERO
        assert glued.labels[1] == ["D1_0", "E1_0", "E1_1", "F1_0"]
        assert glued.labels[2] == ["D2_0", "E2_0", "F2_0", "F2_1"]

    def test_random_mapping_tori_close(self):
        for seed in range(8):
            rng = oracles.seeded(900 + seed)
            cs = random_mapping_torus(rng)
            glued = assemble_boundary(cs)
            assert glued.dims[0] == cs.sigma.dims[0]


def random_mapping_torus(rng, max_degrees=3, max_dim=3):
    n = rng.randint(1, max_degrees)
    dims = [rng.randint(1, max_dim) for _ in range(n)]
    boundaries = [
        [[ZERO for _ in range(dims[j + 1])] for _ in range(dims[j])]
        for j in range(n - 1)
    ]
    sigma = BasedChainComplex(R0, 0, dims, boundaries)
    phi = [
        [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)] for d in dims
    ]
    crit = [0] * (n + 1)
    N = [[] for _ in range(n)]
    M = [[[] for _ in range(dims[i - 1])] for i in range(1, n + 1)]
    W = [[] for _ in range(n)]
    return CutSystem(sigma, phi, crit, N, M, W)


def random_stabilized_torus(rng, spot=None):
    """Zero-boundary surface, one handle pair, free M and W at the pair."""
    n = 3
    dims = [rng.randint(1, 3) for _ in range(n)]
    boundaries = [
        [[ZERO for _ in range(dims[j + 1])] for _ in range(dims[j])]
        for j in range(n - 1)
    ]
    sigma = BasedChainComplex(R0, 0, dims, boundaries)
    phi = [
        [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)] for d in dims
    ]
    j = rng.randint(1, n) if spot is None else spot
    crit = [0] * (n + 1)
    crit[j - 1] = 1
    crit[j] = 1
    N, M, W = [], [], []
    for i in range(1, n + 1):
        N.append(
            [[1 if (i == j) else 0 for _ in range(crit[i])] for _ in range(crit[i - 1])]
        )
        if i == j:
            M.append([[rng.randint(-2, 2)] for _ in range(dims[i - 1])])
            W.append([[rng.randint(-2, 2) for _ in range(dims[i - 1])]])
        else:
            M.append([[0] * crit[i] for _ in range(dims[i - 1])])
            W.append([[0] * dims[i - 1] for _ in range(crit[i - 1])])
    return CutSystem(sigma, phi, crit, N, M, W)


class TestComputeK:
    def test_zero_w_kills_correction(self):
        cs = CutSystem(
            point_sigma(),
            phi=[[[1]]],
            crit_dims=[1, 1],
            N=[[[2]]],
            M=[[[1]]],
            W=[[[0]]],
        )
        (K1,) = compute_K(cs)
        assert frac_equal(K1[0][0], RationalFunction.from_int(R0, 2))

    def test_scalar_substitution(self):
        cs = CutSystem(
            point_sigma(),
            phi=[[[1]]],
            crit_dims=[1, 1],
            N=[[[3]]],
            M=[[[1]]],
            W=[[[2]]],
        )
        (K1,) = compute_K(cs)
        assert frac_equal(K1[0][0], RationalFunction(rp((0, 3), (1, -1)), 1 - T))

    def test_swap_map_denominator(self):
        cs = CutSystem(
            point_sigma(points=2),
            phi=[[[0, 1], [1, 0]]],
            crit_dims=[1, 1],
            N=[[[1]]],
            M=[[[0], [1]]],
            W=[[[1, 0]]],
        )
        (K1,) = compute_K(cs)
        assert K1[0][0].num == ONE
        assert K1[0][0].den == rp((0, 1), (2, -1))

    def test_circle_onecrit_value(self):
        (K1,) = compute_K(circle_onecrit())
        assert frac_equal(K1[0][0], RationalFunction(1 - T))

    def test_stabilized_frozen_value(self):
        K = compute_K(stabilized_cut())
        assert K[0] == []
        k2 = K[1][0][0]
        assert k2.num == rp((0, 1), (1, -3), (2, 2))
        assert k2.den == rp((0, 1), (1, -3), (2, 1))
        assert K[2] == [[]]

    def test_shapes_follow_crit_dims(self):
        K = compute_K(catmap_cut())
        assert K == [[], [], []]

    def test_kept_on_the_cut_system(self):
        cs = stabilized_cut()
        assert compute_K(cs) is compute_K(cs)


def random_one_level_system(rng, ring, m, handles=None):
    """A one-degree surface of m points with mixed int and Z[V] blocks;
    with a single surface degree every block choice is consistent.
    handles fixes both critical ranks, which the product route's square
    splitting needs."""
    a, b = (rng.randint(0, 2), rng.randint(0, 2)) if handles is None else (handles, handles)

    def block(rows, cols):
        square = oracles.random_return_map(rng, ring, max(rows, cols))
        return [row[:cols] for row in square[:rows]]

    sigma = BasedChainComplex(ring, 0, [m], [])
    phi = oracles.random_return_map(rng, ring, m)
    return CutSystem(sigma, [phi], [a, b], [block(a, b)], [block(m, b)], [block(a, m)])


@pytest.mark.parametrize("ring", RINGS, ids=["b0", "b1", "b2"])
def test_compute_K_matches_scaled_solve(ring):
    # the adjugate recurrence against an elimination of [1 - t*phi | M]
    rng = oracles.seeded(1400 + ring.num_group_vars)
    t = TPolynomial.t(ring)
    for m in range(8):
        cs = random_one_level_system(rng, ring, m)
        (K,) = compute_K(cs)
        d, Y = oracles.scaled_solve(ring, oracles.twist_block(ring, cs.phi[0]), cs.M[0])
        assert len(K) == cs.crit_dims[0]
        for r, row in enumerate(K):
            assert len(row) == cs.crit_dims[1]
            for j, entry in enumerate(row):
                correction = sum((w * y[j] for w, y in zip(cs.W[0][r], Y)), 0)
                assert (entry.num, entry.den) == (d * cs.N[0][r][j] + t * correction, d)


@pytest.mark.parametrize("ring", RINGS, ids=["b0", "b1", "b2"])
def test_compute_K_matches_sympy_adjugate(ring):
    sympy = pytest.importorskip("sympy")
    view = oracles.SympyView(sympy, ring)
    t = view.syms[0]
    rng = oracles.seeded(1500 + ring.num_group_vars)
    # sympy's Bareiss adjugate of a symbolic 5 x 5 already takes seconds;
    # the scaled_solve oracle above covers the sizes up to 7
    for m in range(5):
        cs = random_one_level_system(rng, ring, m)
        (K,) = compute_K(cs)
        T = view.matrix(oracles.twist_block(ring, cs.phi[0]), cols=m)
        d = T.det(method="bareiss")
        N = view.matrix(cs.N[0], cols=cs.crit_dims[1])
        W = view.matrix(cs.W[0], cols=m)
        M = view.matrix(cs.M[0], cols=cs.crit_dims[1])
        num = d * N + t * W * T.adjugate(method="bareiss") * M
        for r, row in enumerate(K):
            for j, entry in enumerate(row):
                assert sympy.expand(view.expr(entry.den) - d) == 0
                assert sympy.expand(view.expr(entry.num) - num[r, j]) == 0


def test_compute_K_and_zeta_run_no_elimination(monkeypatch):
    # the return flow comes from the characteristic polynomial alone
    def refuse(*args):
        raise AssertionError("elimination or division on the return-flow path")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    monkeypatch.setattr(linalg, "exact_div", refuse)
    rng = oracles.seeded(1600)
    for ring in RINGS:
        cs = random_one_level_system(rng, ring, 5)
        compute_K(cs)
        zeta_lefschetz(ring, cs.phi)
    compute_K(stabilized_cut())


def omega_block(cs, i):
    """[[N_i, W_i], [-tM_i, 1 - t*phi_{i-1}]] lifted to rational entries."""
    ring = cs.ring
    t = TPolynomial.t(ring)
    one = TPolynomial.one(ring)
    zero = TPolynomial.zero(ring)
    m = cs.sigma.dims[i - 1]
    rows = []
    for r in range(cs.crit_dims[i - 1]):
        rows.append(list(cs.N[i - 1][r]) + list(cs.W[i - 1][r]))
    for r in range(m):
        twist = [(one if r == c else zero) - t * cs.phi[i - 1][r][c] for c in range(m)]
        rows.append([-t * e for e in cs.M[i - 1][r]] + twist)
    # N and W hold plain ints where an entry is constant
    return [[RationalFunction(one * e) for e in row] for row in rows]


class TestOmegaFactorization:
    """det of the coupled block equals det(1 - t*phi) times det(K)."""

    def check(self, cs, i):
        omega = oracles.rf_det(R0, omega_block(cs, i))
        twist = [
            [
                (ONE if r == c else ZERO) - T * cs.phi[i - 1][r][c]
                for c in range(cs.sigma.dims[i - 1])
            ]
            for r in range(cs.sigma.dims[i - 1])
        ]
        lhs = oracles.rf_det(R0, [[RationalFunction(e) for e in row] for row in twist])
        K = compute_K(cs)[i - 1]
        assert frac_equal(omega, lhs * oracles.rf_det(R0, K))

    def test_circle_onecrit(self):
        self.check(circle_onecrit(), 1)

    def test_swap_fixture(self):
        cs = CutSystem(
            point_sigma(points=2),
            phi=[[[0, 1], [1, 0]]],
            crit_dims=[1, 1],
            N=[[[1]]],
            M=[[[0], [1]]],
            W=[[[1, 0]]],
        )
        self.check(cs, 1)

    def test_stabilized_middle_degree(self):
        self.check(stabilized_cut(), 2)

    def test_random_one_level_systems(self):
        # with a single surface degree every block choice is consistent
        for seed in range(15):
            rng = oracles.seeded(7100 + seed)
            m = rng.randint(1, 3)
            a = rng.randint(0, 2)
            sigma = point_sigma(points=m)
            phi = [[[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]]
            N = [[[rng.randint(-2, 2) for _ in range(a)] for _ in range(a)]]
            M = [[[rng.randint(-2, 2) for _ in range(a)] for _ in range(m)]]
            W = [[[rng.randint(-2, 2) for _ in range(m)] for _ in range(a)]]
            cs = CutSystem(sigma, phi, [a, a], N, M, W)
            self.check(cs, 1)


class TestTauViaProducts:
    def test_circle_nocrit(self):
        value = tau_via_products(circle_nocrit())
        assert frac_equal(value, RationalFunction(ONE, 1 - T))
        assert canonical_mod_units(value).den == 1 - T

    def test_circle_onecrit(self):
        value = tau_via_products(circle_onecrit())
        assert frac_equal(value, RationalFunction(ONE, 1 - T))

    def test_catmap(self):
        value = tau_via_products(catmap_cut())
        expected = RationalFunction(rp((0, 1), (1, -3), (2, 1)), (1 - T) * (1 - T))
        assert frac_equal(value, expected)
        assert canonical_mod_units(value).num == rp((0, 1), (1, -3), (2, 1))

    def test_stabilized(self):
        # Turaev's images-first sign: -(1 - 2t) / (1 - t), not its negative
        value = tau_via_products(stabilized_cut())
        assert frac_equal(value, RationalFunction(rp((0, -1), (1, 2)), 1 - T))

    def test_matches_direct_on_fixtures(self):
        for cs in (circle_nocrit(), circle_onecrit(), catmap_cut(), stabilized_cut()):
            direct = torsion_tau(assemble_boundary(cs))
            assert not direct.is_zero
            assert frac_equal(tau_via_products(cs), direct)

    def test_matches_direct_on_coupled_systems(self):
        # every coupling in play, so K carries real denominators; critical
        # ranks with no square splitting are refused
        nonzero = fractions = refused = 0
        for seed in range(9100, 9300):
            cs = oracles.coupled_cut_system(oracles.seeded(seed), RINGS[seed % 3], 2 + seed % 2)
            try:
                value = tau_via_products(cs)
            except PreconditionError as exc:
                assert "critical ranks admit no square splitting" in str(exc)
                refused += 1
                continue
            direct = torsion_tau(assemble_boundary(cs))
            assert frac_equal(value, direct), seed
            if not direct.is_zero:
                nonzero += 1
                fractions += any(e.den != 1 for K in compute_K(cs) for row in K for e in row)
        assert nonzero >= 15 and fractions >= 10 and refused >= 100

    def test_singular_k_gives_zero(self):
        cs = CutSystem(
            point_sigma(),
            phi=[[[0]]],
            crit_dims=[1, 1],
            N=[[[0]]],
            M=[[[0]]],
            W=[[[0]]],
        )
        value = tau_via_products(cs)
        assert value.is_zero
        assert torsion_tau(assemble_boundary(cs)).is_zero

    def test_unpairable_ranks_raise(self):
        cs = CutSystem(
            point_sigma(),
            phi=[[[1]]],
            crit_dims=[1, 0],
            N=[[[]]],
            M=[[[]]],
            W=[[[0]]],
        )
        with pytest.raises(PreconditionError, match="square splitting"):
            tau_via_products(cs)

    def test_random_mapping_tori(self):
        for seed in range(12):
            rng = oracles.seeded(3300 + seed)
            cs = random_mapping_torus(rng)
            direct = torsion_tau(assemble_boundary(cs))
            assert not direct.is_zero
            assert unit_equivalent(tau_via_products(cs), direct)

    def test_random_stabilizations(self):
        for seed in range(12):
            rng = oracles.seeded(4400 + seed)
            cs = random_stabilized_torus(rng)
            direct = torsion_tau(assemble_boundary(cs))
            assert not direct.is_zero
            assert unit_equivalent(tau_via_products(cs), direct)

    @pytest.mark.parametrize("ring", RINGS[:2], ids=["b0", "b1"])
    def test_k_rows_cleared_by_one_determinant(self, ring):
        # every entry of K shares d = det(1 - t*phi), so a row with several
        # fractions is cleared by d, not by a power of it, and the product
        # route still meets direct torsion
        from torsionlab.complexes import _clear_row_denominators

        rng = oracles.seeded(5200 + ring.num_group_vars)
        shared = 0
        for _ in range(4):
            cs = random_one_level_system(rng, ring, 4, handles=3)
            (K,) = compute_K(cs)
            _, factors = _clear_row_denominators(ring, K)
            for row, factor in zip(K, factors):
                dens = [e.den for e in row if not e.is_zero]
                if len(dens) >= 2 and dens[0] != 1:
                    shared += 1
                    assert factor == dens[0]
            direct = torsion_tau(assemble_boundary(cs))
            value = tau_via_products(cs)
            if direct.is_zero:
                assert value.is_zero
            else:
                assert unit_equivalent(value, direct)
        assert shared

    def test_commuting_identity_torus(self):
        for c in (0, 1, 2, -3):
            cs = CutSystem(
                two_degree_sigma(c),
                phi=[[[1]], [[1]]],
                crit_dims=[0, 0, 0],
                N=[[], []],
                M=[[[]], [[]]],
                W=[[], []],
            )
            direct = torsion_tau(assemble_boundary(cs))
            assert unit_equivalent(tau_via_products(cs), direct)


class TestApproxEqual:
    def test_geometric_window(self):
        geo = RationalFunction(ONE, 1 - T)
        partial = rp((0, 1), (1, 1), (2, 1))
        assert approx_equal(geo, partial, 3)
        assert not approx_equal(geo, partial, 4)

    def test_reflexive(self):
        values = [
            RationalFunction(rp((0, 1), (1, -3), (2, 1)), (1 - T) * (1 - T)),
            rp((2, 5), (7, -1)),
            rp((0, 1), (3, 2)).truncate(5),
        ]
        for x in values:
            for k in (1, 2, 8):
                assert approx_equal(x, x, k)

    def test_truncation_order_limits_the_window(self):
        short = rp((0, 1), (1, 1)).truncate(2)
        geo = RationalFunction(ONE, 1 - T)
        assert approx_equal(short, geo, 2)
        assert not approx_equal(short, geo, 3)
        padded = rp((0, 1), (1, 1), (2, 1)).truncate(2)
        assert approx_equal(padded, geo, 10)

    def test_window_starts_at_common_minimum(self):
        low = rp((-1, 1))
        assert approx_equal(low, low + T, 2)
        assert not approx_equal(low, low + T, 3)

    def test_zero_and_integers(self):
        assert approx_equal(ZERO, RationalFunction.zero(R0), 6)
        assert not approx_equal(ZERO, ONE, 1)
        assert approx_equal(1, RationalFunction.one(R0), 3)
        assert approx_equal(0, RationalFunction.zero(R0), 3)
        assert not approx_equal(2, RationalFunction.one(R0), 1)

    def test_fraction_vs_fraction(self):
        a = RationalFunction(ONE, 1 - T)
        b = RationalFunction(ONE, rp((0, 1), (1, -1), (5, 1)))
        assert approx_equal(a, b, 5)
        assert not approx_equal(a, b, 6)


    def test_fraction_expanded_only_through_window(self, monkeypatch):
        import torsionlab.cut as cut

        seen = []
        real = cut.expand_series

        def recorded(r, k):
            seen.append(k)
            return real(r, k)

        monkeypatch.setattr(cut, "expand_series", recorded)
        assert approx_equal(RationalFunction(ONE, 1 - T), rp((0, 1), (1, 1), (2, 1)), 3)
        assert seen == [2]


# ---- approx_equal against a window oracle over sympy series (b = 0) ----

LOW, HIGH = -4, 14

_coeff_dicts = st.dictionaries(st.integers(-2, 4), st.integers(-2, 2), max_size=3)
_bases = st.one_of(
    st.tuples(st.just("int"), st.integers(-2, 2)),
    st.tuples(st.just("poly"), _coeff_dicts),
    st.tuples(
        st.just("frac"),
        _coeff_dicts,
        st.sampled_from([1, -1]),
        st.dictionaries(st.integers(1, 2), st.integers(-2, 2), max_size=2),
        st.integers(0, 1),
    ),
)


@st.composite
def _operand_pairs(draw):
    """Two operand specs (base, perturbation, truncation order or None).

    The second base repeats the first half the time, so that windows
    agree on a prefix and differ, if at all, at a perturbed degree.
    """
    base_x = draw(_bases)
    base_y = draw(st.one_of(st.just(base_x), _bases))
    specs = []
    for base in (base_x, base_y):
        perturb = draw(st.dictionaries(st.integers(-2, 6), st.integers(-1, 1), max_size=1))
        order = draw(st.one_of(st.none(), st.integers(-2, 12)))
        specs.append((base, perturb, order))
    return specs


def _spec_value(sympy, t, spec):
    """(torsionlab operand, coefficients of t^LOW..t^HIGH, known order)."""
    (kind, *data), perturb, order = spec
    if kind == "int":
        value, expr = data[0], sympy.Integer(data[0])
    elif kind == "poly":
        value = rp(*data[0].items())
        expr = sum((c * t**d for d, c in data[0].items()), sympy.Integer(0))
    else:
        num, unit, tail, shift = data
        den_terms = {0: unit, **tail}
        value = RationalFunction(rp(*num.items()), rp(*den_terms.items()) * T**shift)
        expr = sum((c * t**d for d, c in num.items()), sympy.Integer(0)) / (
            sum(c * t**d for d, c in den_terms.items()) * t**shift
        )
    for d, c in perturb.items():
        value = value + TPolynomial.monomial(R0, t_exp=d, coeff=c)
        expr = expr + c * t**d
    if kind == "frac":
        expr = sympy.series(expr, t, 0, HIGH + 1).removeO()
    series = sympy.expand(expr)
    coeffs = [int(series.coeff(t, d)) for d in range(LOW, HIGH + 1)]
    if order is None:
        return value, coeffs, None
    known = {
        (d, ()): c for d, c in zip(range(LOW, order + 1), coeffs) if c
    }
    return TPolynomial(R0, known, order, LOW), coeffs[: order - LOW + 1], order


def _window_oracle(ops, k):
    """Coefficient lists agree from the least nonzero degree for k places,
    never past an operand's known order."""
    lows = [LOW + next(i for i, c in enumerate(co) if c) for co, _ in ops if any(co)]
    if not lows:
        return True
    top = min([min(lows) + k - 1] + [order for _, order in ops if order is not None])
    assert top <= HIGH
    (cx, _), (cy, _) = ops
    return all(cx[d - LOW] == cy[d - LOW] for d in range(LOW, top + 1))


@seed(20260518)
@settings(max_examples=60)
@given(_operand_pairs(), st.integers(0, 8))
def test_approx_equal_matches_sympy_window_oracle(specs, k):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    built = [_spec_value(sympy, t, spec) for spec in specs]
    (x, *ox), (y, *oy) = built
    assert approx_equal(x, y, k) == _window_oracle([ox, oy], k)


class TestCheckKAgainstNovikov:
    def test_exact_match_at_any_order(self):
        cs = circle_onecrit()
        cn = NovikovComplex(R0, 0, [1, 1], [[[1 - T]]])
        for k in (1, 4, 20):
            assert check_K_vs_novikov(cs, cn, k)

    def test_stabilized_series_through_its_order(self):
        assert check_K_vs_novikov(stabilized_cut(), stabilized_cn(), 8)

    def test_perturbed_entry_truncation_semantics(self):
        bumped = stabilized_cn(entry=STABILIZED_SERIES + rp((3, 1)))
        assert check_K_vs_novikov(stabilized_cut(), bumped, 2)
        assert not check_K_vs_novikov(stabilized_cut(), bumped, 3)
        assert not check_K_vs_novikov(stabilized_cut(), bumped, 4)

    def test_dimension_mismatch(self):
        cn = NovikovComplex(R0, 1, [1], [])
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            check_K_vs_novikov(stabilized_cut(), cn, 4)
        extra = NovikovComplex(R0, 1, [1, 1, 1], [[[ONE]], [[ZERO]]], order=4)
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            check_K_vs_novikov(stabilized_cut(), extra, 4)

    def test_no_critical_points_is_vacuous(self):
        cn = NovikovComplex(R0, 0, [], [])
        assert check_K_vs_novikov(catmap_cut(), cn, 12)

    def test_declared_order_caps_comparison(self):
        # entries differ at degree 3 but the complex only claims order 2
        bumped = stabilized_cn(entry=STABILIZED_SERIES + rp((3, 1)), order=2)
        assert check_K_vs_novikov(stabilized_cut(), bumped, 10)


class TestVerifyMainTheorem:
    def test_circle_nocrit_scenario(self):
        cs = circle_nocrit()
        cn = NovikovComplex(R0, 0, [], [])
        report = verify_main_theorem(cs, cn)
        assert frac_equal(report.zeta, RationalFunction(ONE, 1 - T))
        assert frac_equal(report.tau_cn, RationalFunction.one(R0))
        assert canonical_mod_units(report.invariant).den == 1 - T
        assert report.series_consistent
        assert report.main_identity
        assert report.product_identity

    def test_circle_onecrit_scenario(self):
        cs = circle_onecrit()
        cn = NovikovComplex(R0, 0, [1, 1], [[[1 - T]]])
        report = verify_main_theorem(cs, cn)
        assert frac_equal(report.zeta, RationalFunction.one(R0))
        assert frac_equal(report.tau_cn, RationalFunction(ONE, 1 - T))
        assert report.main_identity
        assert report.product_identity
        assert report.series_consistent

    def test_two_presentations_agree(self):
        first = verify_main_theorem(circle_nocrit(), NovikovComplex(R0, 0, [], []))
        second = verify_main_theorem(
            circle_onecrit(), NovikovComplex(R0, 0, [1, 1], [[[1 - T]]])
        )
        a = canonical_mod_units(first.invariant)
        b = canonical_mod_units(second.invariant)
        assert a.num == b.num and a.den == b.den

    def test_catmap_scenario(self):
        cs = catmap_cut()
        cn = NovikovComplex(R0, 0, [], [])
        report = verify_main_theorem(cs, cn)
        assert frac_equal(
            report.zeta,
            RationalFunction(rp((0, 1), (1, -3), (2, 1)), (1 - T) * (1 - T)),
        )
        assert frac_equal(report.tau_cn, RationalFunction.one(R0))
        assert report.main_identity
        assert report.product_identity

    def test_lift_offset_cancels(self):
        cs = circle_onecrit()
        xi = EulerLift(R0, [[T**2], [ONE]])
        cn = NovikovComplex(R0, 0, [1, 1], [[[1 - T]]], lift=xi)
        report = verify_main_theorem(cs, cn)
        assert report.main_identity
        assert report.product_identity

    def test_wrong_counting_data_is_flagged(self):
        cs = circle_onecrit()
        cn = NovikovComplex(R0, 0, [1, 1], [[[rp((0, 1), (1, -1), (3, 1))]]])
        report = verify_main_theorem(cs, cn)
        assert not report.series_consistent
        assert not report.main_identity
        assert report.product_identity

    def test_vanishing_sides(self):
        # a complex that is not acyclic has torsion 0 (Turaev's convention):
        # both sides vanishing is agreement, one side vanishing is not
        singular = CutSystem(
            point_sigma(), phi=[[[0]]], crit_dims=[1, 1], N=[[[0]]], M=[[[0]]], W=[[[0]]]
        )
        flat_cn = NovikovComplex(R0, 0, [1, 1], [[[ZERO]]])
        both = verify_main_theorem(singular, flat_cn)
        assert both.invariant.is_zero and both.direct.is_zero
        assert both.main_identity
        assert both.product_identity
        cn_only = verify_main_theorem(circle_onecrit(), flat_cn)
        assert cn_only.invariant.is_zero and not cn_only.direct.is_zero
        assert not cn_only.main_identity
        assert cn_only.product_identity
        direct_only = verify_main_theorem(singular, NovikovComplex(R0, 0, [1, 1], [[[ONE]]]))
        assert not direct_only.invariant.is_zero and direct_only.direct.is_zero
        assert not direct_only.main_identity
        assert direct_only.product_identity

    def test_stabilized_pair_series_route(self):
        # the truncated flow complex certifies the series identity only;
        # its polynomial torsion is not the exact value, so the literal
        # equality is expected to fail while both torsion routes agree
        report = verify_main_theorem(stabilized_cut(), stabilized_cn())
        assert report.series_consistent
        assert report.product_identity
        assert not report.main_identity
        assert frac_equal(
            report.product_route, RationalFunction(rp((0, -1), (1, 2)), 1 - T)
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: (circle_onecrit(), NovikovComplex(R0, 0, [1, 1], [[[1 - T]]])),
            lambda: (catmap_cut(), NovikovComplex(R0, 0, [], [])),
            lambda: (stabilized_cut(), stabilized_cn()),
        ],
    )
    def test_transfer_and_counting_computed_once(self, build, monkeypatch):
        # the series check and the product route are the public functions,
        # and they share one K and one zeta kept on the cut system, both
        # from one characteristic polynomial per return map
        import torsionlab.cut as cut

        calls = {
            "check_K_vs_novikov": 0,
            "tau_via_products": 0,
            "_lefschetz_product": 0,
            "charpoly": 0,
        }
        for name in calls:
            original = getattr(cut, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cut, name, counted)
        cs, cn = build()
        report = verify_main_theorem(cs, cn)
        assert calls == {
            "check_K_vs_novikov": 1,
            "tau_via_products": 1,
            "_lefschetz_product": 1,
            "charpoly": len(cs.phi),
        }
        assert report.product_identity
        assert frac_equal(report.product_route, tau_via_products(cs))
