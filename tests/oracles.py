"""Generators used as independent references in the test-suite.

Complexes come from direct sums of two-term pieces with known torsion,
optionally padded with zero-boundary generators, then disguised by
determinant-one basis changes.  The disguised complex must report the
same torsion as the plain sum, which pins down the elimination engine
without trusting it twice.
"""

import random

from torsionlab.complexes import (
    BasedChainComplex,
    ShortExactSequence,
    _boundary_pivots,
    _clear_row_denominators,
    homology_ranks,
)
from torsionlab.cut import CutSystem
from torsionlab.errors import PreconditionError
from torsionlab.linalg import (
    _back_substitute,
    _det,
    _eliminate,
    _int_div,
    bareiss_det,
    mat_mul,
    poly_rank_pivots,
)
from torsionlab.rings import RationalFunction, TPolynomial, _coeff_normal, _exp_power_sums, exact_div
from torsionlab.zeta import _mapless_sign


def random_poly(rng, ring, max_terms=2, t_lo=0, t_hi=2, coeff_span=2, v_span=1, nonzero=False):
    """Up to max_terms seeded terms of t-degree in [t_lo, t_hi].  With
    nonzero, draws that cancel give t^e instead, e the degree of the
    window nearest 0."""
    if t_lo > t_hi:
        raise ValueError("empty t-degree window [%d, %d]" % (t_lo, t_hi))
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        t_exp = rng.randint(t_lo, t_hi)
        v = tuple(rng.randint(-v_span, v_span) for _ in range(ring.num_group_vars))
        c = rng.randint(-coeff_span, coeff_span)
        if c:
            terms[(t_exp, v)] = terms.get((t_exp, v), 0) + c
    p = TPolynomial(ring, {k: v for k, v in terms.items() if v})
    if nonzero and not p:
        return TPolynomial.t(ring, min(max(t_lo, 0), t_hi))
    return p


def random_unit(rng, ring, t_span=1, v_span=1):
    coeff = rng.choice([1, -1])
    t_exp = rng.randint(-t_span, t_span)
    v = tuple(rng.randint(-v_span, v_span) for _ in range(ring.num_group_vars))
    return TPolynomial.monomial(ring, t_exp=t_exp, v=v, coeff=coeff)


def elementary_sum(ring, min_degree, pair_polys, extra_dims):
    """Direct sum of two-term complexes plus zero-boundary generators.

    pair_polys[j] lists the nonzero polynomials p with one generator in
    degree index j+1 sent to p times a generator in degree index j.
    extra_dims[j] generators in degree index j carry no boundary at all.
    Basis order per degree: extras, then pair targets, then pair sources.
    """
    n = len(extra_dims)
    dims = []
    for j in range(n):
        below = len(pair_polys[j - 1]) if j >= 1 else 0
        here = len(pair_polys[j]) if j < n - 1 else 0
        dims.append(extra_dims[j] + here + below)
    boundaries = []
    for j in range(n - 1):
        rows = dims[j]
        cols = dims[j + 1]
        mat = [[TPolynomial.zero(ring) for _ in range(cols)] for _ in range(rows)]
        row_base = extra_dims[j]
        col_base = extra_dims[j + 1] + (len(pair_polys[j + 1]) if j + 1 < n - 1 else 0)
        for k, p in enumerate(pair_polys[j]):
            mat[row_base + k][col_base + k] = p
        boundaries.append(mat)
    return BasedChainComplex(ring, min_degree, dims, boundaries)


def shear_basis(rng, C, ops=6, poly_kwargs=None):
    """Apply determinant-one basis changes; torsion must not move.

    Every multiplier is nonzero, so every shear between two generators
    of one degree is applied."""
    kwargs = dict(max_terms=1, t_lo=0, t_hi=1, coeff_span=1, nonzero=True)
    if poly_kwargs:
        kwargs.update(poly_kwargs)
    boundaries = [[list(row) for row in mat] for mat in C.boundaries]
    n = len(C.dims)
    for _ in range(ops):
        j = rng.randrange(n)
        if C.dims[j] < 2:
            continue
        r1, r2 = rng.sample(range(C.dims[j]), 2)
        lam = random_poly(rng, C.ring, **kwargs)
        if j < n - 1:
            mat = boundaries[j]
            for c in range(C.dims[j + 1]):
                mat[r1][c] = mat[r1][c] + lam * mat[r2][c]
        if j >= 1:
            mat = boundaries[j - 1]
            for r in range(C.dims[j - 1]):
                mat[r][r2] = mat[r][r2] - lam * mat[r][r1]
    return BasedChainComplex(C.ring, C.min_degree, C.dims, boundaries)


def random_acyclic_complex(rng, ring, min_degree=0, max_len=4, shear_ops=8):
    n = rng.randint(2, max_len)
    pair_polys = [
        [random_poly(rng, ring, nonzero=True) for _ in range(rng.randint(0, 2))]
        for _ in range(n - 1)
    ] + [[]]
    if all(not polys for polys in pair_polys):
        pair_polys[0] = [random_poly(rng, ring, nonzero=True)]
    plain = elementary_sum(ring, min_degree, pair_polys, [0] * n)
    return plain, shear_basis(rng, plain, ops=shear_ops)


def random_shear_complex(rng, ring, counts=(2, 2), extras=(1, 3, 1), shears=8):
    """Pieces of at most two terms, counts[j] of them between degree
    indices j+1 and j, plus extras with no boundary, then shears by +-1
    monomials between any two rows, extras included: dims [3, 7, 3] by
    default.  Every requested shear is applied, so the homology
    generators mix with the pieces and the outgoing pivots move off the
    trailing rows."""
    pair_polys = [[random_poly(rng, ring, nonzero=True) for _ in range(k)] for k in counts]
    plain = elementary_sum(ring, 0, pair_polys + [[]], list(extras))
    return shear_basis(rng, plain, ops=shears)


def random_valid_complex(rng, ring, min_degree=0, length=None, max_len=3, allow_homology=True, shear_ops=6):
    n = length if length is not None else rng.randint(1, max_len)
    pair_polys = [
        [random_poly(rng, ring, nonzero=True) for _ in range(rng.randint(0, 2))]
        for _ in range(max(n - 1, 0))
    ] + [[]]
    extras = [rng.randint(0, 2) if allow_homology else 0 for _ in range(n)]
    plain = elementary_sum(ring, min_degree, pair_polys[:n], extras)
    return shear_basis(rng, plain, ops=shear_ops)


def random_extension(rng, ring, min_degree=0, max_len=3):
    """Short exact sequence with a randomly twisted extension block."""
    n = rng.randint(2, max_len)
    sub = random_valid_complex(rng, ring, min_degree, length=n)
    quot = random_valid_complex(rng, ring, min_degree, length=n)
    return assemble_extension(rng, sub, quot)


def assemble_extension(rng, sub, quot, H=None):
    """Total complex [[sub, X], [0, quot]] with X forced to square to zero."""
    ring = sub.ring
    n = len(sub.dims)
    if H is None:
        H = [
            [
                [random_poly(rng, ring, max_terms=1, t_hi=1, coeff_span=1) for _ in range(quot.dims[j])]
                for _ in range(sub.dims[j])
            ]
            for j in range(n)
        ]
    zero = TPolynomial.zero(ring)
    dims = [sub.dims[j] + quot.dims[j] for j in range(n)]
    boundaries = []
    for j in range(n - 1):
        bs = sub.boundaries[j]
        bq = quot.boundaries[j]
        X = []
        for r in range(sub.dims[j]):
            row = []
            for c in range(quot.dims[j + 1]):
                acc = zero
                for k in range(sub.dims[j + 1]):
                    acc = acc + bs[r][k] * H[j + 1][k][c]
                for k in range(quot.dims[j]):
                    acc = acc - H[j][r][k] * bq[k][c]
                row.append(acc)
            X.append(row)
        rows = []
        for r in range(sub.dims[j]):
            rows.append(list(bs[r]) + list(X[r]))
        for r in range(quot.dims[j]):
            rows.append([zero] * sub.dims[j + 1] + list(bq[r]))
        boundaries.append(rows)
    total = BasedChainComplex(ring, sub.min_degree, dims, boundaries)
    return ShortExactSequence(sub, total, quot)


def seeded(seed):
    return random.Random(seed)


def random_return_map(rng, ring, n):
    """An n x n t-free map mixing plain ints, constant polynomials and
    Z[V] elements with negative exponents."""

    def entry():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-3, 3)
        if kind == 1:
            return TPolynomial.monomial(ring, coeff=rng.randint(-3, 3))
        return random_poly(rng, ring, max_terms=3, t_lo=0, t_hi=0, coeff_span=3)

    return [[entry() for _ in range(n)] for _ in range(n)]


class SympyView:
    """Polynomials (or ints) and matrices of one ring, carried over to sympy."""

    def __init__(self, sympy, ring):
        self.sympy = sympy
        self.syms = sympy.symbols(["t"] + list(ring.var_names))

    def expr(self, p):
        if isinstance(p, int):
            return self.sympy.Integer(p)
        terms = []
        for (t_exp, v), c in p.terms.items():
            term = c * self.syms[0] ** t_exp
            for s, e in zip(self.syms[1:], v):
                term *= s**e
            terms.append(term)
        # one Add of all terms; summing one by one re-sorts every partial sum
        return self.sympy.Add(*terms)

    def matrix(self, M, cols=None):
        cols = len(M[0]) if M else (cols or 0)
        return self.sympy.Matrix(len(M), cols, [self.expr(e) for row in M for e in row])


# ---- the return flow by elimination: references for the charpoly route ----


def twist_block(ring, A):
    """1 - t*A as a matrix of polynomials, for a square map of ints or
    t-free polynomials."""
    t = TPolynomial.t(ring)
    return [
        [(1 if r == c else 0) - t * entry for c, entry in enumerate(row)]
        for r, row in enumerate(A)
    ]


def rf_det(ring, M):
    """Determinant of a square matrix of rational functions: each row is
    cleared of denominators, and the polynomial determinant is divided by
    the product of the row factors."""
    cleared, factors = _clear_row_denominators(ring, M)
    den = TPolynomial.one(ring)
    for f in factors:
        den = den * f
    return RationalFunction(bareiss_det(ring, cleared), den)


def scaled_solve(ring, A, B):
    """(d, Y) with A Y = d B and d = det A, for square A.

    Eliminates [A | B] fraction-free, then back-substitutes.  Each
    back-substitution division is exact because Y = adj(A) B.  A
    singular A gives d = 0 and Y = 0.
    """
    n = len(A)
    if any(len(row) != n for row in A) or len(B) != n:
        raise PreconditionError("system shape mismatch")
    k = len(B[0]) if n else 0
    if any(len(row) != k for row in B):
        raise PreconditionError("system shape mismatch")
    one = TPolynomial.one(ring)
    zero = TPolynomial.zero(ring)
    W = [list(a) + list(b) for a, b in zip(A, B)]
    pivots, sign = _eliminate(W, exact_div, one)
    Y = [[zero] * k for _ in range(n)]
    if pivots != list(range(n)):
        return zero, Y
    d = W[n - 1][n - 1] if n else one
    if sign < 0:
        d = -d
    for i in reversed(range(n)):
        wi = W[i]
        for j in range(k):
            acc = d * wi[n + j]
            for m in range(i + 1, n):
                acc = acc - wi[m] * Y[m][j]
            Y[i][j] = exact_div(acc, wi[i])
    return d, Y


# ---- thin wrappers over the code the package runs ----


def series_exp(x):
    """exp of a truncation supported in strictly positive t-degrees.

    With x = sum_n x_n t^n the power sums are p_n = n * x_n, which
    rings._exp_power_sums, the recurrence of the zeta routes, takes through
    x.order.
    """
    ring = x.ring
    if x.min_t < 0 or (x and min(x._terms) <= ring._top_key(0)):
        raise PreconditionError("series exponential needs strictly positive t-degrees")
    sums = {}
    for k, c in x._terms.items():
        n, v = ring._split(k)
        sums.setdefault(n, {})[v] = _coeff_normal(n * c)
    return _exp_power_sums(ring, x.order, sums)


def novikov_rank_check(cn, cw):
    """Whether both complexes have the same Betti numbers, degree by degree."""
    if cn.ring != cw.ring:
        raise PreconditionError("mismatched ring specs")
    ranks = {}
    for j, r in enumerate(homology_ranks(cn)):
        ranks[cn.min_degree + j] = ranks.get(cn.min_degree + j, 0) + r
    for j, r in enumerate(homology_ranks(cw)):
        ranks[cw.min_degree + j] = ranks.get(cw.min_degree + j, 0) - r
    return all(v == 0 for v in ranks.values())


# ---- the Kronecker route of b = 0 eliminations and its references ----


def kronecker_eligible(M):
    """Whether _eliminate_poly takes a b = 0 matrix to plain ints: its row
    t-spans sum to at most its term count."""
    spans = terms = 0
    for row in M:
        keys = [k for e in row for k in e._terms]
        if keys:
            spans += max(keys) - min(keys)
            terms += len(keys)
    return spans <= terms


def sylvester_hadamard(m):
    """The 2^m x 2^m Sylvester-Hadamard matrix of +-1: H_(m+1) = [[H, H],
    [H, -H]].  Its rows are orthogonal of length 2^(m/2), so |det| meets
    Hadamard's bound."""
    H = [[1]]
    for _ in range(m):
        H = [row + row for row in H] + [row + [-x for x in row] for row in H]
    return H


# ---- integer determinants: the Bareiss reference for the orbit signs ----


def int_det(M):
    """Integer determinant by the package's fraction-free elimination."""
    return _det(M, lambda W, one: _eliminate(W, _int_div, one), 1, 0)


def orbit_sign(orbit, power=1):
    """Sign of det(1 - A^power) for the linearized return map A, by a
    Bareiss determinant of 1 - A^power with the power taken afresh: a
    reference for zeta._orbit_signs, whose Newton route reads traces
    instead.  An orbit without a map goes to zeta._mapless_sign."""
    A = orbit.map_rows()
    if not A:
        return _mapless_sign(orbit, power)
    P = A
    for _ in range(power - 1):
        P = mat_mul(P, A, 0)
    n = len(P)
    d = int_det([[(1 if i == j else 0) - P[i][j] for j in range(n)] for i in range(n)])
    if d == 0:
        raise PreconditionError("degenerate orbit: det(1 - A^%d) = 0" % power)
    return 1 if d > 0 else -1


# ---- the homology path on all rows: references for the free coordinates ----


def complete_image_to_kernel(ring, dim, image_cols, kernel_cols):
    """Kernel vectors extending the image columns to a basis of the cycles,
    picked by one elimination of the full dim-row stack [image | kernel]."""
    if not kernel_cols:
        return []
    stacked = []
    for r in range(dim):
        row = [col[r] for col in image_cols] + [col[r] for col in kernel_cols]
        stacked.append(row)
    _, pivots = poly_rank_pivots(ring, stacked)
    cut = len(image_cols)
    return [kernel_cols[p - cut] for p in pivots if p >= cut]


def full_stack_homology_vectors(C):
    """The default homology vectors as the full stack picks them: a kernel
    vector back-substituted for every free column of the boundary out of
    each degree, and the image completed on all rows."""
    ring = C.ring
    ranks = homology_ranks(C)
    pivots, echelons = _boundary_pivots(C)
    vectors = []
    for j, d in enumerate(C.dims):
        if not ranks[j]:
            vectors.append([])
            continue
        out_pivots, out_rows = (pivots[j - 1], echelons[j - 1]) if j else ([], [])
        kernel = [
            _back_substitute(ring, out_rows, out_pivots, d, f)
            for f in range(d)
            if f not in out_pivots
        ]
        mat_in = C.boundary_into(j)
        image = [[mat_in[r][c] for r in range(d)] for c in pivots[j]] if mat_in else []
        vectors.append(complete_image_to_kernel(ring, d, image, kernel))
    return vectors


def transition_matrix(C, h, j):
    """The d x d transition matrix [image | cleared h | e_k] at degree index
    j, with a unit column e_k for each pivot k of the boundary out of it,
    and the product of the factors that cleared h's vectors."""
    ring = C.ring
    d = C.dims[j]
    pivots = _boundary_pivots(C)[0]
    mat_in = C.boundary_into(j)
    cols = [[mat_in[r][c] for r in range(d)] for c in pivots[j]] if mat_in else []
    cleared, factors = _clear_row_denominators(ring, h.vectors[j])
    cols += cleared
    for k in pivots[j - 1] if j else []:
        cols.append([TPolynomial.one(ring) if r == k else TPolynomial.zero(ring) for r in range(d)])
    factor = TPolynomial.one(ring)
    for f in factors:
        factor = factor * f
    return [[col[r] for col in cols] for r in range(d)], factor


def transition_torsion(C, h):
    """Turaev's torsion of C with the homology basis h, from the full
    transition matrices: det T_j / factor_j enters in odd degrees and its
    inverse in even ones.  For an acyclic C, h has no vectors."""
    value = RationalFunction.one(C.ring)
    for j in range(len(C.dims)):
        T, factor = transition_matrix(C, h, j)
        piece = RationalFunction(bareiss_det(C.ring, T), factor)
        value = value * (piece if (C.min_degree + j) % 2 else piece.inverse())
    return value


def cone(C, h):
    """The cone on a polynomial homology basis h: each vector of h in
    degree index j is the boundary of a new generator in degree index
    j + 1, after the old ones, and the last degree's vectors open a new
    top degree."""
    zero = TPolynomial.zero(C.ring)
    n = len(C.dims)
    counts = h.counts()
    dims = [d + (counts[j - 1] if j else 0) for j, d in enumerate(C.dims)]
    if n and counts[-1]:
        dims.append(counts[-1])
    boundaries = []
    for j in range(len(dims) - 1):
        old = C.boundaries[j] if j < n - 1 else [[] for _ in range(C.dims[j])]
        rows = [list(row) + [vec[r] for vec in h.vectors[j]] for r, row in enumerate(old)]
        rows += [[zero] * dims[j + 1] for _ in range(dims[j] - C.dims[j])]
        boundaries.append(rows)
    return BasedChainComplex(C.ring, C.min_degree, dims, boundaries)


def cone_free_rows(C, h):
    """Per boundary of cone(C, h), its rows on the free coordinates of C:
    the rows that are no pivot of C's boundary out of that degree.  The
    new generators' rows are pivots of the cone's boundary out of them."""
    pivots = _boundary_pivots(C)[0]
    return [
        [row for r, row in enumerate(mat[: C.dims[j]]) if not j or r not in pivots[j - 1]]
        for j, mat in enumerate(cone(C, h).boundaries)
    ]


# ---- cut systems: the coupling identities block by block ----


def _mat_sum(*signed):
    """sum of sign * matrix over (sign, matrix) pairs of one shape."""
    signs = [sign for sign, _ in signed]
    return [
        [sum(sign * e for sign, e in zip(signs, entries)) for entries in zip(*rows)]
        for rows in zip(*(mat for _, mat in signed))
    ]


def cut_system_report(cs):
    """The defect report of a cut system by direct block products: sigma's
    d^2, then in each degree i = 2..n the identities N N = 0,
    M N + d M = 0, N W - W d = 0 and M W - phi d + d phi = 0, with d
    sigma's boundary out of degree i - 1."""
    ring = cs.ring
    zero = TPolynomial.zero(ring)
    crit, sd = cs.crit_dims, cs.sigma.dims

    def prod(A, B, cols):
        return mat_mul(A, B, zero, cols=cols)

    def nonzero(*signed):
        return any(e for row in _mat_sum(*signed) for e in row)

    bounds = cs.sigma.boundaries
    report = [
        "sigma: d^2 != 0 at degree %d" % (j + 2)
        for j in range(len(bounds) - 1)
        if nonzero((1, prod(bounds[j], bounds[j + 1], sd[j + 2])))
    ]
    for i in range(2, cs.n + 1):
        d = bounds[i - 2]
        N0, N1 = cs.N[i - 2], cs.N[i - 1]
        M0, M1 = cs.M[i - 2], cs.M[i - 1]
        W0, W1 = cs.W[i - 2], cs.W[i - 1]
        if nonzero((1, prod(N0, N1, crit[i]))):
            report.append("critical block d^2 != 0 at degree %d" % i)
        if nonzero((1, prod(M0, N1, crit[i])), (1, prod(d, M1, crit[i]))):
            report.append("M/N compatibility fails at degree %d" % i)
        if nonzero((1, prod(N0, W1, sd[i - 1])), (-1, prod(W0, d, sd[i - 1]))):
            report.append("W/N compatibility fails at degree %d" % i)
        if nonzero(
            (1, prod(M0, W1, sd[i - 1])),
            (-1, prod(cs.phi[i - 2], d, sd[i - 1])),
            (1, prod(d, cs.phi[i - 1], sd[i - 1])),
        ):
            report.append("return map fails the W/M commutator at degree %d" % i)
    return report


def _t_free_complex(rng, ring, dims_pairs, extras):
    """A split complex of t-free pieces, disguised by t-free shears."""
    pairs = [[random_poly(rng, ring, t_hi=0, nonzero=True) for _ in range(k)] for k in dims_pairs]
    plain = elementary_sum(ring, 0, pairs + [[]], extras)
    return shear_basis(rng, plain, ops=6, poly_kwargs=dict(t_hi=0))


def coupled_cut_system(rng, ring, n):
    """A valid cut system of n >= 2 surface degrees with every coupling in play.

    sigma (boundaries dS) and the critical complex (boundaries N) are
    disguised split complexes, and phi0 = k + dS h + h dS is a chain map.
    For random t-free A_i: D_i -> sigma_i and B_i: sigma_(i-1) -> D_i,
    the blocks M_i = dS_i A_i - A_(i-1) N_i, W_i = N_i B_i + B_(i-1)
    dS_(i-1) and phi_j = phi0_j - A_j (N_(j+1) B_(j+1) + B_j dS_j) meet
    all four identities, whatever A, B, h and k are.
    """
    zero = TPolynomial.zero(ring)
    sigma = _t_free_complex(
        rng, ring, [rng.randint(0, 1) for _ in range(n - 1)], [rng.randint(1, 2) for _ in range(n)]
    )
    crit = _t_free_complex(
        rng, ring, [rng.randint(0, 1) for _ in range(n)], [rng.randint(0, 1) for _ in range(n + 1)]
    )
    sd, c = sigma.dims, crit.dims

    def s(j):
        return sd[j] if 0 <= j < n else 0

    def dS(j):
        if 1 <= j <= n - 1:
            return sigma.boundaries[j - 1]
        return [[zero] * s(j) for _ in range(s(j - 1))]

    def rand(rows, cols):
        return [[random_poly(rng, ring, t_hi=0) for _ in range(cols)] for _ in range(rows)]

    def prod(X, Y, cols):
        return mat_mul(X, Y, zero, cols=cols)

    N = crit.boundaries
    A = {j: rand(s(j), c[j]) for j in range(n + 1)}
    B = {i: rand(c[i], s(i - 1)) for i in range(n + 1)}
    h = {j: rand(s(j + 1), s(j)) for j in range(-1, n)}
    k = rng.randint(-2, 2)
    M = [
        _mat_sum((1, prod(dS(i), A[i], c[i])), (-1, prod(A[i - 1], N[i - 1], c[i])))
        for i in range(1, n + 1)
    ]
    W = [
        _mat_sum((1, prod(N[i - 1], B[i], s(i - 1))), (1, prod(B[i - 1], dS(i - 1), s(i - 1))))
        for i in range(1, n + 1)
    ]
    phi = []
    for j in range(n):
        phi0 = _mat_sum(
            (1, [[k * (r == q) for q in range(sd[j])] for r in range(sd[j])]),
            (1, prod(dS(j + 1), h[j], sd[j])),
            (1, prod(h[j - 1], dS(j), sd[j])),
        )
        X = _mat_sum((1, prod(N[j], B[j + 1], sd[j])), (1, prod(B[j], dS(j), sd[j])))
        phi.append(_mat_sum((1, phi0), (-1, prod(A[j], X, sd[j]))))
    return CutSystem(sigma, phi, c, N, M, W)
