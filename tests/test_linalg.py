import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import torsionlab.linalg as linalg
from torsionlab.errors import PreconditionError
from torsionlab.linalg import (
    _back_substitute,
    _eliminate,
    _eliminate_poly,
    bareiss_det,
    charpoly,
    mat_apply,
    mat_mul,
    mat_transpose,
    poly_rank_pivots,
)
from torsionlab.rings import RationalFunction, TPolynomial, exact_div

from conftest import R0, R1, R2, RINGS, mono, tpoly, tpolynomials
from oracles import (
    SympyView,
    _int_div,
    int_det,
    kronecker_eligible,
    random_return_map,
    rf_det,
    scaled_solve,
    seeded,
    sylvester_hadamard,
)


def ints_to_poly(ring, M):
    return [[TPolynomial.monomial(ring, coeff=c) if c else TPolynomial.zero(ring) for c in row] for row in M]


class TestDeterminants:
    def test_two_by_two(self):
        t = TPolynomial.t(R0)
        M = [[1 - t, t * 0 + 1], [t, 1 - t]]
        # (1-t)^2 - t
        assert bareiss_det(R0, M) == 1 - 3 * t + t**2

    def test_empty_and_singleton(self):
        assert bareiss_det(R0, []) == 1
        t = TPolynomial.t(R0)
        assert bareiss_det(R0, [[1 - t]]) == 1 - t

    def test_singular(self):
        t = TPolynomial.t(R0)
        M = [[1 - t, 1 - t], [t, t]]
        assert bareiss_det(R0, M) == 0

    def test_row_swap_sign(self):
        z = TPolynomial.zero(R0)
        o = TPolynomial.one(R0)
        M = [[z, o], [o, z]]
        assert bareiss_det(R0, M) == -1

    def test_laurent_entries(self):
        v = TPolynomial.var(R1, "v1")
        vinv = TPolynomial.monomial(R1, v=(-1,))
        M = [[v, 1 + v], [vinv, TPolynomial.one(R1)]]
        assert bareiss_det(R1, M) == v - vinv * (1 + v)

    @given(data=st.data())
    def test_matches_cofactor_expansion(self, data):
        n = data.draw(st.integers(1, 3))
        M = [
            [data.draw(tpolynomials(ring=R0, max_terms=2, t_lo=0, t_hi=2)) for _ in range(n)]
            for _ in range(n)
        ]

        def cofactor(rows, cols):
            if not rows:
                return TPolynomial.one(R0)
            total = TPolynomial.zero(R0)
            r = rows[0]
            for idx, c in enumerate(cols):
                sub = cofactor(rows[1:], cols[:idx] + cols[idx + 1 :])
                term = M[r][c] * sub
                total = total + (term if idx % 2 == 0 else -term)
            return total

        expected = cofactor(list(range(n)), list(range(n)))
        assert bareiss_det(R0, M) == expected

    def test_int_det(self):
        # the test-only integer determinant runs the package's _det on ints
        assert int_det([[2, 1], [1, 1]]) == 1
        assert int_det([[1, 2], [3, 4]]) == -2
        assert int_det([]) == 1
        assert int_det([[0, 1], [1, 0]]) == -1

    def test_int_mat_mul(self):
        A = [[2, 1], [1, 1]]
        assert mat_mul(A, A, 0) == [[5, 3], [3, 2]]


class TestRankPivots:
    def test_full_rank(self):
        t = TPolynomial.t(R0)
        M = [[1 - t, t], [t, 1 + t]]
        rank, pivots = poly_rank_pivots(R0, M)
        assert rank == 2
        assert pivots == [0, 1]

    def test_rank_deficient(self):
        t = TPolynomial.t(R0)
        M = [[1 - t, 2 - 2 * t], [t, 2 * t]]
        rank, pivots = poly_rank_pivots(R0, M)
        assert rank == 1
        assert pivots == [0]

    def test_zero_column_skipped(self):
        z = TPolynomial.zero(R0)
        t = TPolynomial.t(R0)
        M = [[z, 1 - t]]
        rank, pivots = poly_rank_pivots(R0, M)
        assert rank == 1
        assert pivots == [1]

    def test_empty_shapes(self):
        assert poly_rank_pivots(R0, []) == (0, [])
        assert poly_rank_pivots(R0, [[], []]) == (0, [])


def identity(ring, n):
    return [
        [TPolynomial.one(ring) if i == j else TPolynomial.zero(ring) for j in range(n)]
        for i in range(n)
    ]


class TestScaledSolve:
    def test_identity_relation(self):
        # with B = 1 the scaled solution is the adjugate: M Y = det(M) 1
        t = TPolynomial.t(R0)
        M = [[1 - t, t], [2 * t, 1 + t]]
        d, Y = scaled_solve(R0, M, identity(R0, 2))
        assert d == bareiss_det(R0, M)
        prod = mat_mul(M, Y, TPolynomial.zero(R0))
        for i in range(2):
            for j in range(2):
                assert prod[i][j] == (d if i == j else 0)

    def test_swap_map(self):
        # 1 - t*phi for phi = [[0,1],[1,0]]; solving against 1 gives its adjugate
        t = TPolynomial.t(R0)
        o = TPolynomial.one(R0)
        M = [[o, -t], [-t, o]]
        d, Y = scaled_solve(R0, M, identity(R0, 2))
        assert d == 1 - t**2
        assert Y == [[o, t], [t, o]]

    def test_row_swap_keeps_det_sign(self):
        z = TPolynomial.zero(R0)
        o = TPolynomial.one(R0)
        t = TPolynomial.t(R0)
        d, Y = scaled_solve(R0, [[z, o], [o, z]], [[t], [o]])
        assert d == -1
        assert Y == [[-o], [-t]]

    def test_singular(self):
        t = TPolynomial.t(R0)
        o = TPolynomial.one(R0)
        d, Y = scaled_solve(R0, [[1 - t, 1 - t], [t, t]], [[o], [t]])
        assert d == 0
        assert Y == [[0], [0]]

    def test_shape_checks(self):
        o = TPolynomial.one(R0)
        with pytest.raises(PreconditionError):
            scaled_solve(R0, [[o, o]], [[o]])
        with pytest.raises(PreconditionError):
            scaled_solve(R0, [[o]], [[o], [o]])
        with pytest.raises(PreconditionError):
            scaled_solve(R0, [[o, o], [o, -o]], [[o], [o, o]])

    @given(data=st.data())
    def test_scaled_solution(self, data):
        ring = data.draw(st.sampled_from([R0, R1]))
        n = data.draw(st.integers(0, 3))
        k = data.draw(st.integers(0, 2))

        def entry():
            return data.draw(
                tpolynomials(ring=ring, max_terms=2, t_lo=-1, t_hi=1, v_span=1)
            )

        A = [[entry() for _ in range(n)] for _ in range(n)]
        B = [[entry() for _ in range(k)] for _ in range(n)]
        d, Y = scaled_solve(ring, A, B)
        assert d == bareiss_det(ring, A)
        zero = TPolynomial.zero(ring)
        assert len(Y) == n and all(len(row) == k for row in Y)
        assert mat_mul(A, Y, zero, cols=k) == [[d * b for b in row] for row in B]


def kernel(ring, M, cols):
    """(pivots, one back-substituted kernel vector per free column) of M,
    from one elimination."""
    W = [list(row) for row in M]
    pivots, _ = _eliminate(W, exact_div, TPolynomial.one(ring))
    free = [f for f in range(cols) if f not in pivots]
    return pivots, [_back_substitute(ring, W, pivots, cols, f) for f in free]


def solve(ring, A, b):
    """(x, s) with A x = s b and s nonzero, from one elimination of
    [A | b] and a back-substitution from the b column; None when the b
    column is a pivot, which makes the system inconsistent."""
    n = len(A[0])
    W = [list(row) + [e] for row, e in zip(A, b)]
    pivots, _ = _eliminate(W, exact_div, TPolynomial.one(ring))
    if n in pivots:
        return None
    v = _back_substitute(ring, W, pivots, n + 1, n)
    return v[:n], -v[n]


class TestBackSubstitution:
    def test_solve_square(self):
        t = TPolynomial.t(R0)
        one = TPolynomial.one(R0)
        A = [[1 - t, t], [t, one]]
        b = [1 - t + t**2, t]
        x, s = solve(R0, A, b)
        assert s
        assert mat_apply(A, x, TPolynomial.zero(R0)) == [s * e for e in b]

    def test_solve_inconsistent(self):
        one = TPolynomial.one(R0)
        assert solve(R0, [[one], [one]], [one, one + one]) is None

    def test_solve_underdetermined(self):
        one = TPolynomial.one(R0)
        (x0, x1), s = solve(R0, [[one, one]], [one])
        # the free column stays zero
        assert x0 == s and not x1

    def test_kernel(self):
        t = TPolynomial.t(R0)
        A = [[1 - t, 1 - t]]
        pivots, basis = kernel(R0, A, 2)
        assert pivots == [0] and len(basis) == 1
        v = basis[0]
        assert v[1] and not any(mat_apply(A, v, TPolynomial.zero(R0)))

    def test_kernel_trivial(self):
        t = TPolynomial.t(R0)
        assert kernel(R0, [[1 - t]], 1) == ([0], [])

    def test_zero_column_is_a_unit_vector(self):
        t = TPolynomial.t(R0)
        zero, one = TPolynomial.zero(R0), TPolynomial.one(R0)
        _, basis = kernel(R0, [[1 - t, zero, 2 + t], [t, zero, one]], 3)
        assert basis == [[zero, one, zero]]

    def test_content_divided_out(self):
        t = TPolynomial.t(R0)
        _, (v,) = kernel(R0, [[2 + 2 * t, 4 * t]], 2)
        assert v == [-2 * t, 1 + t]

    def test_rf_det_oracle_clears_denominators(self):
        t = TPolynomial.t(R0)
        half = RationalFunction(TPolynomial.one(R0), 1 - t)
        one = RationalFunction.one(R0)
        assert rf_det(R0, [[half, one], [one, half]]) == half * half - one


class TestShapes:
    def test_transpose(self):
        o = TPolynomial.one(R0)
        z = TPolynomial.zero(R0)
        assert mat_transpose([[o, z]]) == [[o], [z]]
        assert mat_transpose([], cols=2) == [[], []]
        assert mat_transpose([[], []]) == []

    def test_mul_empty(self):
        z = TPolynomial.zero(R0)
        # a 0-column times 0-row product collapses to the empty shape
        assert mat_mul([[], []], [], z) == [[], []]
        assert mat_mul([], [[z], [z]], z) == []
        # unless cols says how wide the zero result is
        assert mat_mul([[], []], [], z, cols=3) == [[z, z, z], [z, z, z]]

    def test_shape_mismatch(self):
        o = TPolynomial.one(R0)
        with pytest.raises(PreconditionError):
            mat_mul([[o]], [[o], [o]], TPolynomial.zero(R0))
        with pytest.raises(PreconditionError):
            bareiss_det(R0, [[o, o]])

    def test_ragged_rejected(self):
        o = TPolynomial.one(R0)
        with pytest.raises(PreconditionError):
            bareiss_det(R0, [[o, o], [o]])
        with pytest.raises(PreconditionError):
            int_det([[1, 2], [3]])


def random_poly(rng, ring, t_lo):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        v = tuple(rng.randint(-1, 1) for _ in range(ring.num_group_vars))
        terms[(rng.randint(t_lo, 2), v)] = rng.randint(-4, 4)
    return TPolynomial(ring, terms)


def random_matrix(rng, ring, rows, cols, t_lo=0):
    return [[random_poly(rng, ring, t_lo) for _ in range(cols)] for _ in range(rows)]


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


BOTH_RINGS = pytest.mark.parametrize("ring", [R0, R1], ids=["b0", "b1"])


@BOTH_RINGS
def test_sympy_bareiss_det(sympy, ring):
    view = SympyView(sympy, ring)
    rng = random.Random(11)
    shift = TPolynomial.monomial(ring, t_exp=1, v=(1,) * ring.num_group_vars)
    for _ in range(12):
        n = rng.randint(1, 4)
        M = random_matrix(rng, ring, n, n, t_lo=-1)
        # one monomial shift of every entry clears the negative exponents
        # for sympy and scales the determinant by its n-th power
        shifted = [[e * shift for e in row] for row in M]
        expected = view.matrix(shifted).det(method="berkowitz")
        got = view.expr(bareiss_det(ring, M) * shift**n)
        assert sympy.expand(got - expected) == 0


def test_sympy_int_det(sympy):
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(0, 5)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert int_det(M) == sympy.Matrix(n, n, sum(M, [])).det()


@BOTH_RINGS
def test_sympy_rank(sympy, ring):
    from sympy.polys.matrices import DomainMatrix

    view = SympyView(sympy, ring)
    rng = random.Random(13)
    zero = TPolynomial.zero(ring)
    for _ in range(12):
        rows, cols, inner = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
        # a product through an inner dimension caps the rank
        L = random_matrix(rng, ring, rows, inner)
        R = random_matrix(rng, ring, inner, cols)
        M = mat_mul(L, R, zero, cols=cols)
        rank, pivots = poly_rank_pivots(ring, M)
        exact = DomainMatrix.from_Matrix(view.matrix(M)).to_field()
        assert rank == len(pivots) == exact.rank()


@BOTH_RINGS
def test_sympy_scaled_solve(sympy, ring):
    view = SympyView(sympy, ring)
    rng = random.Random(14)
    for _ in range(10):
        n, k = rng.randint(1, 3), rng.randint(1, 2)
        A = random_matrix(rng, ring, n, n)
        B = random_matrix(rng, ring, n, k)
        d, Y = scaled_solve(ring, A, B)
        sA = view.matrix(A)
        assert sympy.expand(view.expr(d) - sA.det(method="berkowitz")) == 0
        if d.is_zero:
            # singular A: the solve promises only A Y = d B, with Y = 0
            assert all(not y for row in Y for y in row)
            continue
        expected = sA.adjugate(method="berkowitz") * view.matrix(B)
        assert view.matrix(Y).applyfunc(sympy.expand) == expected.applyfunc(sympy.expand)


def shifted_field_matrix(view, M, ring):
    """M over sympy's fraction field, each row times one monomial so that
    no exponent is negative; row scaling keeps the kernel and the rank."""
    from sympy.polys.matrices import DomainMatrix

    shift = TPolynomial.monomial(ring, t_exp=1, v=(1,) * ring.num_group_vars)
    return DomainMatrix.from_Matrix(view.matrix([[e * shift for e in row] for row in M])).to_field()


def seeded_system(rng, ring, rows, cols):
    """A product through a smaller inner dimension, so rank often drops,
    sometimes with a zero column."""
    zero = TPolynomial.zero(ring)
    inner = rng.randint(0, min(rows, cols))
    M = mat_mul(random_matrix(rng, ring, rows, inner), random_matrix(rng, ring, inner, cols), zero, cols=cols)
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in M:
            row[j] = zero
    return M


@BOTH_RINGS
def test_sympy_kernel(sympy, ring):
    view = SympyView(sympy, ring)
    rng = random.Random(15)
    zero, one = TPolynomial.zero(ring), TPolynomial.one(ring)
    for _ in range(14):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        M = seeded_system(rng, ring, rows, cols)
        pivots, basis = kernel(ring, M, cols)
        exact = shifted_field_matrix(view, M, ring)
        assert len(basis) == cols - exact.rank()
        # sympy's nullspace rows come in free-column order, each zero at
        # the other free columns, so each vector is a multiple of one row
        expected = exact.nullspace().to_list()
        free = [f for f in range(cols) if f not in pivots]
        assert len(expected) == len(basis)
        field = exact.domain
        for f, v, n in zip(free, basis, expected):
            assert not any(mat_apply(M, v, zero))
            assert v[f]
            w = [field.from_sympy(view.expr(vi)) for vi in v]
            assert all(wi * n[f] == w[f] * ni for wi, ni in zip(w, n))
            if all(not row[f] for row in M):
                assert v == [one if k == f else zero for k in range(cols)]


@BOTH_RINGS
def test_sympy_solve(sympy, ring):
    view = SympyView(sympy, ring)
    rng = random.Random(16)
    zero = TPolynomial.zero(ring)
    consistent = 0
    for trial in range(14):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = seeded_system(rng, ring, rows, cols)
        if trial % 2:
            y = [random_poly(rng, ring, 0) for _ in range(cols)]
            b = mat_apply(A, y, zero)
        else:
            b = [random_poly(rng, ring, 0) for _ in range(rows)]
        got = solve(ring, A, b)
        augmented = [list(row) + [e] for row, e in zip(A, b)]
        exact = shifted_field_matrix(view, augmented, ring)
        R, exact_pivots = exact.rref()
        if cols in exact_pivots:
            assert got is None
            continue
        consistent += 1
        x, s = got
        assert s
        assert mat_apply(A, x, zero) == [s * e for e in b]
        # the solution with every free column zero, as sympy's rref reads it
        field = exact.domain
        R = R.to_list()
        particular = [field.zero] * cols
        for i, c in enumerate(exact_pivots):
            particular[c] = R[i][cols]
        s = field.from_sympy(view.expr(s))
        for xi, pi in zip(x, particular):
            assert field.from_sympy(view.expr(xi)) == s * pi
    assert consistent >= 7


# ---- lazy row scaling: the kernel against plain Bareiss ----


def eager_bareiss(W, div, one):
    """Textbook Bareiss in place: every row below the pivot is updated at
    every step, divided by the previous pivot."""
    rows = len(W)
    cols = len(W[0]) if rows else 0
    prev = one
    sign = 1
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if W[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            W[r], W[pivot_row] = W[pivot_row], W[r]
            sign = -sign
        p = W[r][c]
        for i in range(r + 1, rows):
            f = W[i][c]
            for j in range(c + 1, cols):
                W[i][j] = div(p * W[i][j] - f * W[r][j], prev)
        prev = p
        pivots.append(c)
    return pivots, sign


class CountingDiv:
    def __init__(self, div):
        self.div = div
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return self.div(a, b)


def nonzero_entry(rng, ring):
    """A small nonzero int (ring None) or Laurent polynomial."""
    if ring is None:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    terms = {}
    for _ in range(rng.randint(1, 2)):
        v = tuple(rng.randint(-1, 1) for _ in range(ring.num_group_vars))
        terms[(rng.randint(0, 1), v)] = rng.choice([-2, -1, 1, 2])
    return TPolynomial(ring, terms)


SPARSE_SHAPES = ("scattered", "banded", "blocks")


def sparse_matrix(rng, ring, rows, cols, shape):
    """A seeded sparse matrix, sometimes with a zero row, a zero column or a
    row that is the sum of two others."""
    zero = 0 if ring is None else TPolynomial.zero(ring)
    density, width, size = rng.uniform(0.2, 0.4), rng.randint(0, 1), rng.randint(2, 3)

    def keep(i, j):
        if shape == "scattered":
            return rng.random() < density
        if shape == "banded":
            return abs(i - j) <= width
        return i // size == j // size and rng.random() < 0.8

    M = [
        [nonzero_entry(rng, ring) if keep(i, j) else zero for j in range(cols)]
        for i in range(rows)
    ]
    if rows > 2 and rng.random() < 0.4:
        a, b, d = rng.sample(range(rows), 3)
        M[d] = [x + y for x, y in zip(M[a], M[b])]
    if rng.random() < 0.3:
        M[rng.randrange(rows)] = [zero] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in M:
            row[j] = zero
    return M


@pytest.mark.parametrize("ring", [None, R0, R1, R2], ids=["int", "b0", "b1", "b2"])
def test_lazy_kernel_matches_eager_bareiss(ring):
    one = 1 if ring is None else TPolynomial.one(ring)
    div = _int_div if ring is None else exact_div
    lazy_div, eager_div = CountingDiv(div), CountingDiv(div)
    rng = random.Random(21)
    for trial in range(36):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        M = sparse_matrix(rng, ring, rows, cols, SPARSE_SHAPES[trial % 3])
        lazy = [list(row) for row in M]
        eager = [list(row) for row in M]
        pivots, sign = _eliminate(lazy, lazy_div, one)
        assert (pivots, sign) == eager_bareiss(eager, eager_div, one)
        # pivot rows agree from their pivot column on; the rest is scratch
        for k, c in enumerate(pivots):
            assert lazy[k][c:] == eager[k][c:]
    assert lazy_div.calls < eager_div.calls


def test_sparse_diagonal_skips_every_update(monkeypatch):
    t = TPolynomial.t(R0)
    zero = TPolynomial.zero(R0)
    diagonal = [1 + (k + 2) * t for k in range(8)]
    M = [[diagonal[i] if i == j else zero for j in range(8)] for i in range(8)]
    eager = CountingDiv(exact_div)
    eager_bareiss([list(row) for row in M], eager, TPolynomial.one(R0))
    assert eager.calls == 140
    # at b = 0 the kernel divides packed ints: count those divisions, and
    # refuse the term-dict ones the route must not take
    lazy = CountingDiv(linalg._int_div)
    monkeypatch.setattr(linalg, "_int_div", lazy)
    monkeypatch.setattr(linalg, "exact_div", refuse_dict_division)
    expected = TPolynomial.one(R0)
    for d in diagonal:
        expected = expected * d
    assert bareiss_det(R0, M) == expected
    # only the pivot entries catch up, one division each
    assert 0 < lazy.calls <= 8


def test_dense_matrix_divides_as_eager(monkeypatch):
    rng = random.Random(23)
    M = [[nonzero_entry(rng, R1) for _ in range(5)] for _ in range(5)]
    eager = CountingDiv(exact_div)
    eager_bareiss([list(row) for row in M], eager, TPolynomial.one(R1))
    lazy = CountingDiv(exact_div)
    monkeypatch.setattr(linalg, "exact_div", lazy)
    bareiss_det(R1, M)
    assert lazy.calls == eager.calls == sum(k * k for k in range(5))


def staircase(rng, ring, rows, cols):
    """A seeded upper-staircase matrix with dense tails: row i is zero left
    of its pivot column, the pivot columns increase, and every entry from
    the pivot rightwards is nonzero, so no row below reads a pivot row."""
    zero = 0 if ring is None else TPolynomial.zero(ring)
    starts = sorted(rng.sample(range(cols), rows))
    return [[nonzero_entry(rng, ring) if j >= s else zero for j in range(cols)] for s in starts]


def echelon_matrix(rng, ring, rows, cols):
    """A staircase in which a row is sometimes zero or the sum of two rows
    below it, so the rank drops and a row below reads a pivot row."""
    M = staircase(rng, ring, rows, cols)
    if rows > 2 and rng.random() < 0.4:
        d = rng.randrange(rows - 2)
        a, b = rng.sample(range(d + 1, rows), 2)
        M[d] = [x + y for x, y in zip(M[a], M[b])]
    if rng.random() < 0.3:
        M[rng.randrange(rows)] = [x * 0 for x in M[0]]
    return M


@pytest.mark.parametrize("ring", [None, R0, R1, R2], ids=["int", "b0", "b1", "b2"])
def test_echelon_rows_only_when_asked(ring):
    # whole pivot rows when the rank is below echelon_below (or it is None),
    # otherwise the pivots alone
    one = 1 if ring is None else TPolynomial.one(ring)
    div = _int_div if ring is None else exact_div
    rng = random.Random(25)
    for trial in range(24):
        rows = rng.randint(1, 6)
        M = echelon_matrix(rng, ring, rows, rng.randint(rows, 2 * rows + 1))
        eager = [list(row) for row in M]
        pivots, sign = eager_bareiss(eager, div, one)
        rank = len(pivots)
        for below in (None, rank + 1, rank, 0):
            lazy = [list(row) for row in M]
            assert _eliminate(lazy, div, one, below) == (pivots, sign)
            for k, c in enumerate(pivots):
                if below is None or rank < below:
                    assert lazy[k][c:] == eager[k][c:]
                else:
                    assert lazy[k][c] == eager[k][c]


def test_echelon_route_matches_dict_kernel(monkeypatch):
    # the b = 0 route catches stale rows up before it reads them back
    rng = random.Random(27)
    for trial in range(24):
        rows = rng.randint(1, 6)
        M = echelon_matrix(rng, R0, rows, rng.randint(rows, 2 * rows + 1))
        assert assert_route_matches_dict_kernel(M, monkeypatch)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("ring, div", [(R1, "exact_div"), (R0, "_int_div")], ids=["b1 dict", "b0 ints"])
def test_unread_pivot_rows_divide_their_pivot_alone(n, ring, div, monkeypatch):
    # no row of a staircase reads a pivot row, so a rank or determinant
    # run divides each pivot entry at most once and no tail entry: the
    # rank of an n x 2n one and the determinant of an upper triangle
    rng = random.Random(26 + n)
    M, T = staircase(rng, ring, n, 2 * n), staircase(rng, ring, n, n)
    diagonal = TPolynomial.one(ring)
    for i in range(n):
        diagonal = diagonal * T[i][i]
    for run, expected in ((lambda: poly_rank_pivots(ring, M)[0], n), (lambda: bareiss_det(ring, T), diagonal)):
        counted = CountingDiv(getattr(linalg, div))
        with monkeypatch.context() as patch:
            patch.setattr(linalg, div, counted)
            if ring is R0:
                patch.setattr(linalg, "exact_div", refuse_dict_division)
            assert run() == expected
        assert 0 < counted.calls <= n
    # asked for echelon rows, the same n x 2n matrix catches every tail up
    echelon = CountingDiv(exact_div)
    _eliminate([list(row) for row in M], echelon, TPolynomial.one(ring))
    assert echelon.calls > n


@BOTH_RINGS
def test_sympy_sparse(sympy, ring):
    from sympy.polys.matrices import DomainMatrix

    view = SympyView(sympy, ring)
    rng = random.Random(24)
    for trial in range(12):
        shape = SPARSE_SHAPES[trial % 3]
        n = rng.randint(2, 6)
        A = sparse_matrix(rng, ring, n, n, shape)
        sA = view.matrix(A)
        d = bareiss_det(ring, A)
        assert sympy.expand(view.expr(d) - sA.det(method="berkowitz")) == 0
        M = sparse_matrix(rng, ring, rng.randint(1, 6), rng.randint(1, 6), shape)
        rank, pivots = poly_rank_pivots(ring, M)
        _, exact_pivots = DomainMatrix.from_Matrix(view.matrix(M)).to_field().rref()
        assert (rank, tuple(pivots)) == (len(exact_pivots), tuple(exact_pivots))
        B = sparse_matrix(rng, ring, n, rng.randint(1, 2), "scattered")
        d, Y = scaled_solve(ring, A, B)
        residual = sA * view.matrix(Y) - view.expr(d) * view.matrix(B)
        assert residual.applyfunc(sympy.expand).is_zero_matrix


# ---- b = 0 on plain ints: the Kronecker route against the term-dict kernel ----


def refuse_dict_division(a, b):
    raise AssertionError("a b = 0 matrix took the term-dict kernel")


def laurent_matrix(rng, rows, cols, kind):
    """A seeded R0 matrix of one kind, every row shifted by a monomial
    t^k, k in [-3, 3], so that rows carry negative exponents."""
    zero = TPolynomial.zero(R0)
    if kind in SPARSE_SHAPES:
        M = sparse_matrix(rng, R0, rows, cols, kind)
    elif kind == "product":
        # a product through a narrower inner dimension is rank deficient
        inner = rng.randint(0, min(rows, cols) - 1)
        M = mat_mul(random_matrix(rng, R0, rows, inner), random_matrix(rng, R0, inner, cols), zero, cols=cols)
    else:
        M = random_matrix(rng, R0, rows, cols, t_lo=-2)
        if kind == "dependent" and rows > 1:
            a, b = rng.sample(range(rows), 2)
            M[b] = [x * (1 - TPolynomial.t(R0)) for x in M[a]]
        elif kind == "zero row":
            M[rng.randrange(rows)] = [zero] * cols
    return [[e * TPolynomial.t(R0, rng.randint(-3, 3)) for e in row] for row in M]


def assert_route_matches_dict_kernel(M, monkeypatch):
    """_eliminate_poly on M against the term-dict kernel: pivots, sign and
    every pivot-row entry from its pivot rightwards when the rank is below
    echelon_below (or it is None), else the last pivot alone.  An eligible
    matrix must not touch exact_div.  Returns whether M was eligible."""
    one = TPolynomial.one(R0)
    oracle = [list(row) for row in M]
    pivots, sign = _eliminate(oracle, exact_div, one)
    rank = len(pivots)
    eligible = kronecker_eligible(M)
    for below in (None, rank + 1, rank, 0):
        route = [list(row) for row in M]
        with monkeypatch.context() as patch:
            if eligible:
                patch.setattr(linalg, "exact_div", refuse_dict_division)
            assert _eliminate_poly(route, one, echelon_below=below) == (pivots, sign)
        if below is None or rank < below:
            for k, c in enumerate(pivots):
                assert route[k][c:] == oracle[k][c:]
        elif pivots:
            assert route[rank - 1][pivots[-1]] == oracle[rank - 1][pivots[-1]]
    return eligible


KRONECKER_KINDS = ("laurent", "product", "dependent", "zero row") + SPARSE_SHAPES


def test_kronecker_route_matches_dict_kernel(monkeypatch):
    rng = seeded(31)
    eligible = 0
    for trial in range(140):
        kind = KRONECKER_KINDS[trial % len(KRONECKER_KINDS)]
        n = rng.randint(1, 7)
        # squares (singular ones included) and both orientations of rectangles
        rows, cols = (n, n) if trial % 3 == 0 else (rng.randint(1, 7), rng.randint(1, 7))
        eligible += assert_route_matches_dict_kernel(laurent_matrix(rng, rows, cols, kind), monkeypatch)
    # the route is what the comparison reaches: most seeded matrices are eligible
    assert eligible > 100


def test_kronecker_route_degenerate_shapes(monkeypatch):
    zero, t = TPolynomial.zero(R0), TPolynomial.t(R0)
    swap = [[zero, TPolynomial.t(R0, -2)], [TPolynomial.t(R0, -1), zero]]
    for M in ([], [[], []], [[zero, zero]], [[zero], [zero], [1 - t]], swap):
        assert assert_route_matches_dict_kernel(M, monkeypatch)
    assert bareiss_det(R0, swap) == -TPolynomial.t(R0, -3)


def test_sympy_kronecker_det(sympy, monkeypatch):
    from sympy.polys.matrices import DomainMatrix

    view = SympyView(sympy, R0)
    rng = seeded(32)
    # laurent_matrix's exponents are at least -5: t^5 on every entry clears
    # them for sympy and scales the determinant by t^(5n)
    shift = TPolynomial.t(R0, 5)
    monkeypatch.setattr(linalg, "exact_div", refuse_dict_division)
    checked = 0
    for trial in range(12):
        n = rng.randint(2, 7)
        M = laurent_matrix(rng, n, n, ("laurent", "dependent", "banded")[trial % 3])
        if not kronecker_eligible(M):
            continue
        shifted = view.matrix([[e * shift for e in row] for row in M])
        expected = DomainMatrix.from_Matrix(shifted).det().as_expr()
        assert sympy.expand(view.expr(bareiss_det(R0, M) * shift**n) - expected) == 0
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("m", range(1, 5))
def test_hadamard_bound_met_with_equality(m, monkeypatch):
    # H (1 + t)^k with H Sylvester-Hadamard, n = 2^m: at t = 1 each row has
    # norm 2^k sqrt(n) and |det| is the product of the row norms.  With k = 0
    # and n a power of 4 (m = 2, 4) the ceilings of the bound are exact, so
    # the coefficient n^(n/2) is 2^(B-2) and a width one bit short fails.
    # Row r is shifted by t^-r, so the unpacking must shift the minors back.
    H = sylvester_hadamard(m)
    n = len(H)
    t = TPolynomial.t(R0)
    for k in range(3):
        f = (1 + t) ** k
        M = [[f * (x * TPolynomial.t(R0, -r)) for x in row] for r, row in enumerate(H)]
        assert assert_route_matches_dict_kernel(M, monkeypatch)
        monkeypatch.setattr(linalg, "exact_div", refuse_dict_division)
        assert bareiss_det(R0, M) == int_det(H) * f**n * TPolynomial.t(R0, -n * (n - 1) // 2)
        monkeypatch.undo()


# ---- characteristic polynomial: Berkowitz against sympy ----


class TestCharpoly:
    def test_small_cases(self):
        assert charpoly([]) == [1]
        assert charpoly([[5]]) == [1, -5]
        # trace 3, determinant 1
        assert charpoly([[2, 1], [1, 1]]) == [1, -3, 1]

    def test_integer_entries_stay_integers(self):
        A = random_return_map(seeded(1200), R0, 6)
        A = [[e if isinstance(e, int) else e.coefficient(0) for e in row] for row in A]
        assert all(type(c) is int for c in charpoly(A))

    def test_non_square_rejected(self):
        with pytest.raises(PreconditionError):
            charpoly([[1, 2]])


@pytest.mark.parametrize("ring", RINGS, ids=["b0", "b1", "b2"])
def test_sympy_charpoly(sympy, ring):
    # mixed int, constant and Z[V] entries, every size from 0 to 7
    view = SympyView(sympy, ring)
    x = sympy.Symbol("x")
    rng = seeded(1210 + ring.num_group_vars)
    for n in range(8):
        A = random_return_map(rng, ring, n)
        c = charpoly(A)
        expected = view.matrix(A, cols=n).charpoly(x).all_coeffs()
        assert len(c) == n + 1 == len(expected)
        for ck, ek in zip(c, expected):
            assert sympy.expand(view.expr(ck) - ek) == 0
