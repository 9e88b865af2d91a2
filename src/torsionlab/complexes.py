"""Based chain complexes over the Laurent ring and their torsion invariants.

A complex stores its modules bottom degree first.  boundaries[j] is the
matrix of the differential from degree min_degree+j+1 into min_degree+j,
with rows indexed by the codomain basis, so each has shape
dims[j] x dims[j+1].
"""

from .errors import PreconditionError
from .linalg import (
    _back_substitute,
    _eliminate_poly,
    mat_apply,
    mat_is_zero,
    mat_mul,
    mat_transpose,
    poly_rank_pivots,
)
from .rings import (
    RationalFunction,
    TPolynomial,
    _exact,
    _monomial_unit,
    _unit_inverse,
    exact_div,
    unit_equivalent,
)


class BasedChainComplex:
    """Finitely generated free complex with a distinguished basis per degree."""

    # _pivots is kept by _boundary_pivots.  Nothing writes the boundaries after
    # construction: __init__ copies the rows, and _rescaled builds a new complex.
    __slots__ = ("ring", "min_degree", "dims", "boundaries", "labels", "_pivots")

    def __init__(self, ring, min_degree, dims, boundaries, labels=None):
        dims = list(dims)
        if any(d < 0 for d in dims):
            raise PreconditionError("negative module dimension")
        expected = max(len(dims) - 1, 0)
        if len(boundaries) != expected:
            raise PreconditionError(
                "expected %d boundary matrices, got %d" % (expected, len(boundaries))
            )
        checked = []
        for j, mat in enumerate(boundaries):
            rows = dims[j]
            cols = dims[j + 1]
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise PreconditionError(
                    "boundary into degree %d has the wrong shape" % (min_degree + j)
                )
            for row in mat:
                for entry in row:
                    if not _exact(entry):
                        raise PreconditionError("boundary entries must be polynomial")
                    if entry.ring != ring:
                        raise PreconditionError("mismatched ring specs")
            checked.append([list(row) for row in mat])
        if labels is not None:
            labels = [list(group) for group in labels]
            if len(labels) != len(dims) or any(
                len(group) != d for group, d in zip(labels, dims)
            ):
                raise PreconditionError("label groups do not match dims")
        self.ring = ring
        self.min_degree = min_degree
        self.dims = dims
        self.boundaries = checked
        self.labels = labels
        self._pivots = None

    def degree_index(self, degree):
        j = degree - self.min_degree
        if not 0 <= j < len(self.dims):
            raise PreconditionError("degree %d outside the complex" % degree)
        return j

    def boundary_into(self, j):
        """Matrix of the differential landing in degree index j, or None."""
        if 0 <= j < len(self.boundaries):
            return self.boundaries[j]
        return None

    def boundary_out_of(self, j):
        """Matrix of the differential leaving degree index j, or None."""
        if 1 <= j < len(self.dims):
            return self.boundaries[j - 1]
        return None

    def __repr__(self):
        return "BasedChainComplex(min_degree=%d, dims=%r)" % (self.min_degree, self.dims)


def validate_complex(C):
    """Return a list of defects; empty means the differential squares to zero."""
    report = []
    zero = TPolynomial.zero(C.ring)
    for j in range(len(C.boundaries) - 1):
        composite = mat_mul(C.boundaries[j], C.boundaries[j + 1], zero)
        if not mat_is_zero(composite):
            report.append("d^2 != 0 at degree %d" % (C.min_degree + j + 2))
    return report


def _boundary_pivots(C):
    """Each boundary matrix eliminated once, on first use: its pivot columns
    over the fraction field, and the echelon rows _eliminate left, once
    validate_complex passes: the homology path reads cycles off them.

    The rows of the boundary out of a degree are read only where that
    degree has homology, that is where its rank falls below the degree's
    dimension less the rank of the boundary into it; the boundaries are
    eliminated from the top down, so that bound is known."""
    if C._pivots is not None:
        return C._pivots
    report = validate_complex(C)
    if report:
        raise PreconditionError("; ".join(report))
    one = TPolynomial.one(C.ring)
    n = len(C.boundaries)
    pivots, echelons = [None] * n, [None] * n
    rank_in = 0
    for j in reversed(range(n)):
        W = [list(row) for row in C.boundaries[j]]
        pivots[j] = _eliminate_poly(W, one, echelon_below=C.dims[j + 1] - rank_in)[0]
        echelons[j] = W
        rank_in = len(pivots[j])
    C._pivots = (pivots, echelons)
    return C._pivots


def homology_ranks(C):
    """Betti numbers over the fraction field, bottom degree first."""
    # rank of the boundary out of degree index j, then of the one into it
    ranks = [0] + [len(p) for p in _boundary_pivots(C)[0]] + [0]
    return [d - ranks[j] - ranks[j + 1] for j, d in enumerate(C.dims)]


def _product(one, factors):
    """The product of polynomials; a factor equal to 1 costs no ring product."""
    out = None
    for f in factors:
        if f != 1:
            out = f if out is None else out * f
    return one if out is None else out


def _clear_row_denominators(ring, M):
    """Rows of polynomials and fractions as polynomial rows; returns the
    cleared rows and the polynomial each row was multiplied by.

    A polynomial entry has denominator 1.  A row's factor is the product
    of its entries' distinct denominators (a row of K has one), and a row
    without fractions is kept as it is, with the factor 1, at no ring product.
    """
    one = TPolynomial.one(ring)
    cleared, factors = [], []
    for row in M:
        dens = []
        for e in row:
            if isinstance(e, RationalFunction) and e.den not in dens:
                dens.append(e.den)
        factor = _product(one, dens)
        if factor == 1:
            row = [e.num if isinstance(e, RationalFunction) else e for e in row]
        else:
            row = [
                e.num * exact_div(factor, e.den) if isinstance(e, RationalFunction) else e * factor
                for e in row
            ]
        cleared.append(row)
        factors.append(factor)
    return cleared, factors


def _torsion_engine(ring, min_degree, dims, matrices):
    """Torsion of a based complex from its boundary matrices.

    matrices[j] has polynomial or fraction entries and shape dims[j] x
    dims[j+1].  Returns the RationalFunction as computed, units and all,
    and the zero value when the complex fails to be acyclic.

    Each boundary runs one fraction-free elimination on its rows outside
    the previous chain, cleared of denominators, and its pivot columns
    are the next chain.  Restricted to those columns the elimination is
    Bareiss on that square: an update of a pivot column reads only pivot
    columns, and every row swap is decided in a pivot column.  The
    kernel's pivots are Bareiss's even where it scales rows lazily, so
    the last pivot, times the row-swap sign, is the square's
    determinant.  Divided by the factors that cleared the kept rows, it
    is the minor the tau-chain formula takes, up to Turaev's sign: by
    Laplace along the previous chain's unit columns, which follow the
    images at positions len(chain)..d-1, it is negated when those
    positions and rows have an odd sum, whatever chain was picked.
    """
    one = TPolynomial.one(ring)
    num = den = one
    chain = []
    for j in range(1, len(dims)):
        in_chain = set(chain)
        kept = [row for r, row in enumerate(matrices[j - 1]) if r not in in_chain]
        W, factors = _clear_row_denominators(ring, kept)
        chain, sign = _eliminate_poly(W, one, echelon_below=0)
        if len(chain) < len(W):
            return RationalFunction.zero(ring)
        minor = W[-1][chain[-1]] if W else one
        if sign * (-1) ** (sum(in_chain) + sum(range(len(chain), dims[j - 1]))) < 0:
            minor = -minor
        # the minor sits in degree min_degree + j - 1 and enters inverted in even degrees
        factor = _product(one, factors)
        if (min_degree + j) % 2:
            num, den = num * factor, den * minor
        else:
            num, den = num * minor, den * factor
    if dims and dims[-1] != len(chain):
        return RationalFunction.zero(ring)
    return RationalFunction(num, den)


def torsion_tau(C):
    """Torsion as a RationalFunction, zero when the complex is not acyclic.

    The value keeps its units; they are stripped where it is printed.  It
    is taken in the baseline basis: only tau_novikov and apply_lift apply
    a lift."""
    report = validate_complex(C)
    if report:
        raise PreconditionError("; ".join(report))
    return _torsion_engine(C.ring, C.min_degree, C.dims, C.boundaries)


class HomologyBasis:
    """Chosen homology representatives, one vector list per degree index."""

    __slots__ = ("ring", "vectors")

    def __init__(self, ring, vectors):
        # entries stay as given: polynomials, fractions, or a mix
        self.ring = ring
        self.vectors = [[list(vec) for vec in group] for group in vectors]

    def counts(self):
        return [len(group) for group in self.vectors]


def default_homology_basis(C):
    """Deterministic homology representatives with polynomial entries.

    A cycle is fixed by its free coordinates, the indices that are no
    pivot of the boundary out of its degree, where the kernel vector of a
    free column f is a nonzero multiple of e_f.  So [image | identity] on
    the free rows picks the columns that [image | kernel] would."""
    ring = C.ring
    ranks = homology_ranks(C)
    pivots, echelons = _boundary_pivots(C)
    zero, one = TPolynomial.zero(ring), TPolynomial.one(ring)
    vectors = []
    for j, d in enumerate(C.dims):
        if not ranks[j]:
            # an acyclic degree chooses no vectors, so it skips the kernel
            vectors.append([])
            continue
        # nothing leaves degree 0: no echelon rows, so every column is free
        out_pivots, out_rows = (pivots[j - 1], echelons[j - 1]) if j else ([], [])
        free = [f for f in range(d) if f not in out_pivots]
        image = pivots[j] if j < len(pivots) else []
        stacked = [
            [C.boundaries[j][r][c] for c in image] + [one if f == r else zero for f in free]
            for r in free
        ]
        # the image columns are independent, so they are the first pivots
        n = len(image)
        chosen = [free[p - n] for p in poly_rank_pivots(ring, stacked)[1][n:]]
        vectors.append([_back_substitute(ring, out_rows, out_pivots, d, f) for f in chosen])
    return HomologyBasis(ring, vectors)


def torsion_tau_hat(C, h=None):
    """Torsion weighted by a homology basis, as a RationalFunction with its
    units; defined for any valid complex.

    It is the torsion of the cone on h (Milnor's acyclic extension): each
    vector of h in degree j is the boundary of a new generator in degree
    j + 1, placed after the old ones with a zero row, and the top degree's
    vectors open a new top degree.  A new generator is its own lift, so
    each transition matrix of the cone is [image | h | lifts] of C beside
    an identity block, and the engine's torsion of the cone is tau-hat.
    """
    if h is None:
        h = default_homology_basis(C)
    ring = C.ring
    ranks = homology_ranks(C)
    if h.ring != ring:
        raise PreconditionError("homology basis is over another ring than the complex")
    counts = h.counts()
    if len(counts) != len(C.dims):
        raise PreconditionError("homology basis has the wrong number of degrees")
    for j, (have, want) in enumerate(zip(counts, ranks)):
        if have != want:
            raise PreconditionError(
                "homology basis count mismatch at degree %d" % (C.min_degree + j)
            )
    zero = TPolynomial.zero(ring)
    for j, d in enumerate(C.dims):
        for vec in h.vectors[j]:
            if len(vec) != d:
                raise PreconditionError(
                    "homology vector length mismatch at degree %d" % (C.min_degree + j)
                )
            if any(
                not (_exact(e) or isinstance(e, RationalFunction)) or e.ring != ring for e in vec
            ):
                raise PreconditionError(
                    "homology vector entry is no polynomial or fraction of the complex's"
                    " ring at degree %d" % (C.min_degree + j)
                )
            (cleared,), _ = _clear_row_denominators(ring, [vec])
            if j and any(mat_apply(C.boundary_out_of(j), cleared, zero)):
                raise PreconditionError(
                    "homology vector is not a cycle at degree %d" % (C.min_degree + j)
                )
    dims = [d + (counts[j - 1] if j else 0) for j, d in enumerate(C.dims)]
    mats = C.boundaries
    if counts and counts[-1]:
        dims.append(counts[-1])
        mats = mats + [[[] for _ in range(C.dims[-1])]]
    cone = [
        [list(row) + [vec[r] for vec in h.vectors[j]] for r, row in enumerate(mat)]
        + [[zero] * dims[j + 1] for _ in range(dims[j] - C.dims[j])]
        for j, mat in enumerate(mats)
    ]
    value = _torsion_engine(ring, C.min_degree, dims, cone)
    if not value:
        # the first degree whose free rows, no pivot of the boundary out
        # of it, fall short of full rank in the cone
        pivots = [[]] + _boundary_pivots(C)[0]
        for j, mat in enumerate(cone):
            free = [row for r, row in enumerate(mat[: C.dims[j]]) if r not in pivots[j]]
            if poly_rank_pivots(ring, _clear_row_denominators(ring, free)[0])[0] < len(free):
                raise PreconditionError(
                    "homology basis does not span at degree %d" % (C.min_degree + j)
                )
    return value


def _rescaled(C, units):
    """C with generators rescaled by monomial units.

    units maps (degree index, generator) to a +-1 monomial u: the
    generator's column in the boundary into its degree is multiplied by
    u, and its row in the boundary out of it by u^-1.
    """
    boundaries = [[list(row) for row in mat] for mat in C.boundaries]
    for (j, index), u in units.items():
        if j >= 1:
            for row in boundaries[j - 1]:
                row[index] = row[index] * u
        if j < len(boundaries):
            u_inv = _unit_inverse(u)
            boundaries[j][index] = [entry * u_inv for entry in boundaries[j][index]]
    return BasedChainComplex(C.ring, C.min_degree, C.dims, boundaries, C.labels)


def _rebasing_sign(u, ring):
    """The sign of a rebasing factor, which must be a +-1 monomial of ring."""
    return _monomial_unit(u, "rebasing factor must be a monomial unit", ring, (1, -1))[0]


def rebase_basis(C, degree, index, u):
    """Replace one basis element by a monomial unit multiple of itself.

    The result is a plain BasedChainComplex: a lift or order of C is
    dropped (only tau_novikov and apply_lift apply a lift)."""
    j = C.degree_index(degree)
    if not 0 <= index < C.dims[j]:
        raise PreconditionError("basis index out of range")
    _rebasing_sign(u, C.ring)
    return _rescaled(C, {(j, index): u})


class ShortExactSequence:
    """Degreewise split extension with the sub sitting as a prefix block."""

    __slots__ = ("sub", "total", "quotient")

    def __init__(self, sub, total, quotient):
        if not (sub.ring == total.ring == quotient.ring):
            raise PreconditionError("mismatched ring specs")
        if not (sub.min_degree == total.min_degree == quotient.min_degree):
            raise PreconditionError("mismatched bottom degrees")
        if len(sub.dims) != len(total.dims) or len(quotient.dims) != len(total.dims):
            raise PreconditionError("mismatched degree ranges")
        for a, b, c in zip(sub.dims, quotient.dims, total.dims):
            if a + b != c:
                raise PreconditionError("dims do not add up")
        for j in range(len(total.boundaries)):
            m = sub.dims[j]
            mat = total.boundaries[j]
            for r in range(total.dims[j]):
                for c in range(total.dims[j + 1]):
                    entry = mat[r][c]
                    if r < m and c < sub.dims[j + 1]:
                        if entry != sub.boundaries[j][r][c]:
                            raise PreconditionError(
                                "sub block disagrees at degree %d" % (total.min_degree + j + 1)
                            )
                    elif r >= m and c < sub.dims[j + 1]:
                        if entry:
                            raise PreconditionError(
                                "extension is not upper triangular at degree %d"
                                % (total.min_degree + j + 1)
                            )
                    elif r >= m and c >= sub.dims[j + 1]:
                        if entry != quotient.boundaries[j][r - m][c - sub.dims[j + 1]]:
                            raise PreconditionError(
                                "quotient block disagrees at degree %d"
                                % (total.min_degree + j + 1)
                            )
        self.sub = sub
        self.total = total
        self.quotient = quotient


def _class_coords(ring, h_vectors, bnd_into, target):
    """Coordinates of a cycle's class in the given homology basis.

    One elimination of [h | d_in | target], with h and target cleared of
    denominators: the target lies in the span when its column is no
    pivot, and back-substitution from that column gives the coordinates.
    """
    dim = len(target)
    n_in = len(bnd_into[0]) if bnd_into else 0
    cleared, factors = _clear_row_denominators(ring, list(h_vectors) + [target])
    h_cols, b = cleared[:-1], cleared[-1]
    W = [
        [col[r] for col in h_cols] + (bnd_into[r] if n_in else []) + [b[r]]
        for r in range(dim)
    ]
    n = len(h_cols) + n_in
    pivots, _ = _eliminate_poly(W, TPolynomial.one(ring))
    if n in pivots:
        raise ArithmeticError("cycle does not lie in the displayed span")
    v = _back_substitute(ring, W, pivots, n + 1, n)
    # target * factors[-1] * v[n] = -sum_c v[c] * factors[c] * h_c + boundaries
    scale = -(v[n] * factors[-1])
    return [RationalFunction(v[c] * f, scale) for c, f in enumerate(factors[:-1])]


def _connecting_sequence(ses, h_sub, h_total, h_quot):
    """Homology long exact sequence of the extension, as a based complex."""
    ring = ses.total.ring
    n = len(ses.total.dims)
    zero_rf = RationalFunction.zero(ring)
    dims = []
    for i in range(n):
        dims.append(len(h_quot.vectors[i]))
        dims.append(len(h_total.vectors[i]))
        dims.append(len(h_sub.vectors[i]))
    matrices = []
    for i in range(n):
        # map induced on passing to the quotient, landing at slot 3i
        cols = []
        for w in h_total.vectors[i]:
            proj = w[ses.sub.dims[i] :]
            cols.append(
                _class_coords(
                    ring, h_quot.vectors[i], ses.quotient.boundary_into(i), proj
                )
            )
        matrices.append(mat_transpose(cols, dims[3 * i]))
        # map induced by inclusion, landing at slot 3i+1
        cols = []
        for v in h_sub.vectors[i]:
            embedded = list(v) + [zero_rf] * ses.quotient.dims[i]
            cols.append(
                _class_coords(
                    ring, h_total.vectors[i], ses.total.boundary_into(i), embedded
                )
            )
        matrices.append(mat_transpose(cols, dims[3 * i + 1]))
        # connecting map from slot 3(i+1) down to 3i+2
        if i + 1 < n:
            cols = []
            bnd = ses.total.boundary_into(i)
            for z in h_quot.vectors[i + 1]:
                lift = [zero_rf] * ses.sub.dims[i + 1] + list(z)
                if bnd is None:
                    moved = [zero_rf] * ses.total.dims[i]
                else:
                    moved = mat_apply(bnd, lift, zero_rf)
                tail = moved[ses.sub.dims[i] :]
                if any(not entry.is_zero for entry in tail):
                    raise ArithmeticError("connecting image left the subcomplex")
                head = moved[: ses.sub.dims[i]]
                cols.append(
                    _class_coords(
                        ring, h_sub.vectors[i], ses.sub.boundary_into(i), head
                    )
                )
            matrices.append(mat_transpose(cols, dims[3 * i + 2]))
    return dims, matrices


def product_formula_check(ses, h_sub=None, h_total=None, h_quot=None):
    """Whether torsion is multiplicative across the extension, mod units."""
    if h_sub is None:
        h_sub = default_homology_basis(ses.sub)
    if h_total is None:
        h_total = default_homology_basis(ses.total)
    if h_quot is None:
        h_quot = default_homology_basis(ses.quotient)
    tau_sub = torsion_tau_hat(ses.sub, h_sub)
    tau_total = torsion_tau_hat(ses.total, h_total)
    tau_quot = torsion_tau_hat(ses.quotient, h_quot)
    ring = ses.total.ring
    dims, matrices = _connecting_sequence(ses, h_sub, h_total, h_quot)
    tau_les = _torsion_engine(ring, 0, dims, matrices)
    return unit_equivalent(tau_total, tau_sub * tau_quot * tau_les)
