from fractions import Fraction

import pytest

from torsionlab.errors import PreconditionError
from torsionlab.linalg import bareiss_det, mat_mul
from torsionlab.rings import (
    RationalFunction,
    TPolynomial,
    expand_series,
    frac_equal,
)
from torsionlab.zeta import (
    ClosedOrbit,
    _orbit_signs,
    _power_traces,
    orbit_counts,
    zeta_exp,
    zeta_lefschetz,
    zeta_product,
    zeta_trace,
)

import oracles
from conftest import R0, R1, R2, RINGS
from oracles import orbit_sign


CAT_MAP = [[2, 1], [1, 1]]


def torus_orbit_pair():
    t = TPolynomial.t(R0)
    expanding = ClosedOrbit(t, period=1, return_map=[[2, 0], [0, 2]])
    flipped = ClosedOrbit(t**2, period=1, return_map=[[-2, 0], [0, 3]])
    return [expanding, flipped]


class TestOrbitData:
    def test_class_validation(self):
        t = TPolynomial.t(R0)
        with pytest.raises(PreconditionError):
            ClosedOrbit(TPolynomial.one(R0))
        with pytest.raises(PreconditionError):
            ClosedOrbit(2 * t)
        with pytest.raises(PreconditionError):
            ClosedOrbit(1 + t)
        with pytest.raises(PreconditionError):
            ClosedOrbit(t, period=0)
        with pytest.raises(PreconditionError):
            ClosedOrbit(t, return_map=[[1, 0]])
        with pytest.raises(PreconditionError, match="square integer matrix"):
            ClosedOrbit(t, return_map=[[True, False], [False, 3]])

    def test_signs_from_map(self):
        t = TPolynomial.t(R0)
        orbit = ClosedOrbit(t, return_map=[[-2, 0], [0, 3]])
        assert orbit_sign(orbit, 1) == -1
        assert orbit_sign(orbit, 2) == 1
        assert orbit_sign(orbit, 3) == -1

    def test_sign_without_map(self):
        t = TPolynomial.t(R0)
        orbit = ClosedOrbit(t, eps=-1)
        assert orbit_sign(orbit, 1) == -1
        with pytest.raises(PreconditionError):
            orbit_sign(orbit, 2)

    def test_sign_sequence_from_counts(self):
        t = TPolynomial.t(R0)
        orbit = ClosedOrbit(t, eps=-1, i_minus=1, i_zero=0)
        witness = ClosedOrbit(t, return_map=[[-2, 0], [0, 3]])
        for j in range(1, 7):
            assert orbit_sign(orbit, j) == orbit_sign(witness, j)
        # zeta_exp's signs agree with the one-power definition
        for o in (orbit, witness):
            assert _orbit_signs(o, 6) == [orbit_sign(o, j) for j in range(1, 7)]

    def test_degenerate_sign(self):
        t = TPolynomial.t(R0)
        orbit = ClosedOrbit(t, return_map=[[1, 0], [0, 2]])
        with pytest.raises(PreconditionError):
            orbit_sign(orbit, 1)

    def test_counts(self):
        t = TPolynomial.t(R0)
        assert orbit_counts(ClosedOrbit(t, return_map=[[-2, 0], [0, 3]])) == (1, 0)
        assert orbit_counts(ClosedOrbit(t, return_map=[[0, 5], [0, -4]])) == (1, 1)
        assert orbit_counts(ClosedOrbit(t, i_minus=2, i_zero=1)) == (2, 1)
        with pytest.raises(PreconditionError):
            orbit_counts(ClosedOrbit(t, return_map=[[1, 0], [0, 2]]))
        with pytest.raises(PreconditionError):
            orbit_counts(ClosedOrbit(t, return_map=[[2, 1], [1, 1]]))


class TestOrbitForms:
    def test_torus_product_value(self):
        t = TPolynomial.t(R0)
        z = zeta_product(R0, torus_orbit_pair())
        expected = RationalFunction(TPolynomial.one(R0), (1 - t) * (1 + t**2))
        assert frac_equal(z, expected)

    def test_exp_matches_product(self):
        orbits = torus_orbit_pair()
        series = zeta_exp(R0, orbits, 12)
        assert series == expand_series(zeta_product(R0, orbits), 12)

    def test_exp_empty(self):
        assert zeta_exp(R0, [], 6) == TPolynomial.one(R0, 6)
        assert frac_equal(zeta_product(R0, []), RationalFunction.one(R0))

    def test_exp_needs_map_only_when_powers_land(self):
        t = TPolynomial.t(R0)
        lone = ClosedOrbit(t**4, eps=1)
        series = zeta_exp(R0, [lone], 6)
        assert series.coefficient(4) == 1
        with pytest.raises(PreconditionError):
            zeta_exp(R0, [lone], 8)

    def test_twisted_class(self):
        t = TPolynomial.t(R1)
        v = TPolynomial.var(R1, "v1")
        orbit = ClosedOrbit(t * v, return_map=[[2, 0], [0, 2]])
        series = zeta_exp(R1, [orbit], 3)
        product = zeta_product(R1, [orbit])
        assert frac_equal(product, RationalFunction(TPolynomial.one(R1), 1 - t * v))
        assert series == expand_series(product, 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_twisted_even_orbits_to_order_60(self, seed):
        # b = 1 classes, V-exponents of both signs, even transversal dimension
        rng = oracles.seeded(700 + seed)
        t = TPolynomial.t(R1)
        orbits = []
        for _ in range(rng.randint(2, 3)):
            size = rng.choice([0, 2, 4])
            diag = [rng.choice([-3, -2, 0, 2, 3]) for _ in range(size)]
            A = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]
            v = TPolynomial.var(R1, "v1", rng.choice([-2, -1, 1, 2]))
            cls = t ** rng.randint(1, 3) * v
            if size == 0:
                orbits.append(ClosedOrbit(cls, i_minus=0, i_zero=0, eps=1))
            else:
                orbits.append(ClosedOrbit(cls, return_map=A))
        order = 60
        series = zeta_exp(R1, orbits, order)
        assert series == expand_series(zeta_product(R1, orbits), order)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_even_diagonal_agreement(self, seed):
        rng = oracles.seeded(500 + seed)
        t = TPolynomial.t(R0)
        orbits = []
        for _ in range(rng.randint(1, 3)):
            size = rng.choice([0, 2, 4])
            diag = [rng.choice([-3, -2, 0, 2, 3]) for _ in range(size)]
            A = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]
            degree = rng.randint(1, 3)
            if size == 0:
                orbits.append(ClosedOrbit(t**degree, i_minus=0, i_zero=0, eps=1))
            else:
                orbits.append(ClosedOrbit(t**degree, return_map=A))
        order = 10
        exp_side = zeta_exp(R0, orbits, order)
        product_side = expand_series(zeta_product(R0, orbits), order)
        assert exp_side == product_side


class TestMapForms:
    def test_lefschetz_cat_map(self):
        t = TPolynomial.t(R0)
        z = zeta_lefschetz(R0, [[[1]], CAT_MAP, [[1]]])
        expected = RationalFunction(1 - 3 * t + t**2, (1 - t) ** 2)
        assert frac_equal(z, expected)

    def test_trace_cat_map_series(self):
        series = zeta_trace(R0, [[[1]], CAT_MAP, [[1]]], 2)
        assert series.coefficient(0) == 1
        assert series.coefficient(1) == -1
        assert series.coefficient(2) == -2

    def test_trace_matches_lefschetz(self):
        maps = [[[1]], CAT_MAP, [[1]]]
        assert zeta_trace(R0, maps, 10) == expand_series(zeta_lefschetz(R0, maps), 10)

    def test_empty_maps(self):
        assert frac_equal(zeta_lefschetz(R0, []), RationalFunction.one(R0))
        assert zeta_trace(R0, [], 4) == TPolynomial.one(R0, 4)

    def test_non_square_rejected(self):
        with pytest.raises(PreconditionError):
            zeta_lefschetz(R0, [[[1, 2]]])
        with pytest.raises(PreconditionError):
            zeta_trace(R0, [[[1, 2]]], 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_trace_matches_lefschetz_to_order_100(self, seed):
        # a seeded hyperbolic cat map: a word in the two elementary shears
        rng = oracles.seeded(800 + seed)
        A = [[1, 0], [0, 1]]
        while abs(A[0][0] + A[1][1]) <= 2:
            A = mat_mul(A, rng.choice([[[1, 1], [0, 1]], [[1, 0], [1, 1]]]), 0)
        maps = [[[1]], A, [[1]]]
        order = 100
        series = zeta_trace(R0, maps, order)
        assert series == expand_series(zeta_lefschetz(R0, maps), order)
        assert series.order == order

    @pytest.mark.parametrize("seed", range(12))
    def test_random_agreement(self, seed):
        rng = oracles.seeded(600 + seed)
        maps = []
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(0, 3)
            maps.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        order = 12
        assert zeta_trace(R0, maps, order) == expand_series(zeta_lefschetz(R0, maps), order)


def test_trace_over_the_group_ring_on_the_lifted_cat_map():
    # the cat map scenario lifted to one group variable; at v = 1 it is
    # the untwisted cat map
    t, v, vinv = TPolynomial.t(R1), TPolynomial.var(R1, "v1"), TPolynomial.var(R1, "v1", -1)
    maps = [[[v]], [[2 * v, 1], [1, vinv]], [[1]]]
    z = zeta_lefschetz(R1, maps)
    expected = RationalFunction(1 - t * vinv - 2 * t * v + t**2, 1 - t - t * v + t**2 * v)
    assert frac_equal(z, expected)
    assert zeta_trace(R1, maps, 10) == expand_series(z, 10)


def test_trace_matches_lefschetz_over_two_group_variables():
    # seeded graded maps mixing ints, constants and Z[V] entries
    for seed in range(60):
        rng = oracles.seeded(1400 + seed)
        maps = [
            oracles.random_return_map(rng, R2, rng.randint(0, 3))
            for _ in range(rng.randint(1, 3))
        ]
        expected = expand_series(zeta_lefschetz(R2, maps), 8)
        assert zeta_trace(R2, maps, 8) == expected, seed


@pytest.mark.parametrize("ring", RINGS, ids=["b0", "b1", "b2"])
def test_twisted_lefschetz_matches_elimination(ring):
    # the characteristic-polynomial route against a Bareiss determinant of
    # the 1 - t*phi matrix, on maps mixing ints and Z[V] entries
    rng = oracles.seeded(1300 + ring.num_group_vars)
    maps = [oracles.random_return_map(rng, ring, n) for n in range(8)]
    dets = [bareiss_det(ring, oracles.twist_block(ring, A)) for A in maps]
    for A, d in zip(maps, dets):
        z = zeta_lefschetz(ring, [[], A])
        assert (z.num, z.den) == (d, TPolynomial.one(ring))
    num = den = TPolynomial.one(ring)
    for i, d in enumerate(dets):
        if i % 2:
            num = num * d
        else:
            den = den * d
    assert frac_equal(zeta_lefschetz(ring, maps), RationalFunction(num, den))


def test_twisted_map_entries_checked():
    v = TPolynomial.var(R1, "v1")
    t = TPolynomial.t(R1)
    with pytest.raises(PreconditionError, match="must not involve t"):
        zeta_lefschetz(R1, [[[v + t]]])
    with pytest.raises(PreconditionError, match="mismatched ring"):
        zeta_lefschetz(R0, [[[v]]])
    with pytest.raises(PreconditionError, match="integers or t-free"):
        zeta_lefschetz(R1, [[[0.5]]])
    with pytest.raises(PreconditionError, match="integers or t-free"):
        zeta_trace(R0, [[[True]]], 3)


# ---- traces of powers by baby-step giant-step, and the Newton signs ----


def naive_traces(A, order):
    """tr(A^m) for m = 1..order, every power by one more mat_mul."""
    traces, P = [], A
    for m in range(1, order + 1):
        if m > 1:
            P = mat_mul(P, A, 0)
        traces.append(sum(P[r][r] for r in range(len(A))))
    return traces


def same_values(xs, ys):
    # ints and constant polynomials compare by their difference
    return len(xs) == len(ys) and all(not (x - y) for x, y in zip(xs, ys))


def test_power_traces_match_naive_powers_over_the_integers():
    # every order 0..70 meets every baby/giant split, including exact
    # multiples of k; the maps are not symmetric, so a Frobenius product
    # that pairs rows with rows gives other numbers
    rng = oracles.seeded(1500)
    for n in range(9):
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n >= 2:
            A[0][1] = A[1][0] + 1
        expected = naive_traces(A, 70)
        for order in range(71):
            assert _power_traces(A, order) == expected[:order], (n, order)


@pytest.mark.parametrize("ring", [R1, R2], ids=["b1", "b2"])
def test_power_traces_match_naive_powers_over_the_group_ring(ring):
    rng = oracles.seeded(1510 + ring.num_group_vars)
    for n in range(9):
        A = oracles.random_return_map(rng, ring, n)
        # entries grow with the power, so the long orders run on small maps
        if n <= 2:
            orders = list(range(21)) + [36, 49, 50]
        else:
            orders = list(range(13 if n <= 5 else 9))
        expected = naive_traces(A, max(orders))
        for order in orders:
            assert same_values(_power_traces(A, order), expected[:order]), (n, order)


def test_power_traces_known_values():
    # every power of a shear has trace 2; a Frobenius product that paired
    # rows with rows would read 10 at m = 3
    assert _power_traces([[1, 2], [0, 1]], 5) == [2] * 5
    # the Fibonacci map gives the Lucas numbers
    assert _power_traces([[0, 1], [1, 1]], 9) == [1, 3, 4, 7, 11, 18, 29, 47, 76]


def disguised(rng, B, shears=6):
    """U B U^-1 for U a product of elementary shears: the same eigenvalues
    in a dense, non-triangular integer matrix."""
    n = len(B)
    A = [list(row) for row in B]
    for _ in range(shears if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        lam = rng.choice([-1, 1])
        for c in range(n):
            A[i][c] += lam * A[j][c]
        for r in range(n):
            A[r][j] -= lam * A[r][i]
    return A


def hyperbolic_map(rng, n):
    """An n x n integer map with no eigenvalue on the unit circle: 2 x 2
    words in the shears with |trace| > 2, and -2 or 3 for an odd size."""
    blocks = []
    while 2 * len(blocks) + 1 < n:
        W = [[1, 0], [0, 1]]
        while abs(W[0][0] + W[1][1]) <= 2:
            W = mat_mul(W, rng.choice([[[1, 1], [0, 1]], [[1, 0], [1, 1]]]), 0)
        if rng.random() < 0.5:
            W = [[-a for a in row] for row in W]
        blocks.append(W)
    B = [[0] * n for _ in range(n)]
    for b, W in enumerate(blocks):
        for r in range(2):
            for c in range(2):
                B[2 * b + r][2 * b + c] = W[r][c]
    if n % 2:
        B[n - 1][n - 1] = rng.choice([-2, 3])
    return disguised(rng, B)


@pytest.mark.parametrize("n", range(2, 7))
def test_newton_signs_match_bareiss_signs(n):
    t = TPolynomial.t(R0)
    rng = oracles.seeded(1520 + n)
    for _ in range(2):
        orbit = ClosedOrbit(t, return_map=hyperbolic_map(rng, n))
        assert _orbit_signs(orbit, 40) == [orbit_sign(orbit, p) for p in range(1, 41)]


def test_degenerate_power_raises_at_the_same_power():
    # a hyperbolic block beside a rotation of order 6: det(1 - A^p) != 0
    # for p < 6 and det(1 - A^6) = 0, disguised by shears
    t = TPolynomial.t(R0)
    rng = oracles.seeded(1530)
    B = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 0]]
    orbit = ClosedOrbit(t, return_map=disguised(rng, B))
    message = r"degenerate orbit: det\(1 - A\^6\) = 0"
    assert _orbit_signs(orbit, 5) == [orbit_sign(orbit, p) for p in range(1, 6)]
    with pytest.raises(PreconditionError, match=message):
        _orbit_signs(orbit, 40)
    with pytest.raises(PreconditionError, match=message):
        orbit_sign(orbit, 6)
    zeta_exp(R0, [orbit], 5)
    with pytest.raises(PreconditionError, match=message):
        zeta_exp(R0, [orbit], 6)


def test_newton_signs_never_round():
    # a map the orbit data would refuse: e_1 = 1/2 is no integer, and the
    # division by k = 1 that should give it raises instead of rounding
    class HalfMap:
        def map_rows(self):
            return [[Fraction(1, 2)]]

    with pytest.raises(ArithmeticError):
        _orbit_signs(HalfMap(), 1)
