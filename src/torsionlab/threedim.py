"""Determinant counting for the balanced two-index gradient picture.

An index-2 to index-1 flow line carries a relative homology class; a
matrix of such counts determines an integer-valued function on classes
once a reference class is fixed.  The offset bookkeeping here stands in
for that reference: a stored polynomial together with a +1 monomial
offset, where scaling by a monomial unit and moving the offset by its
inverse presents the same underlying function.
"""

from .complexes import _rebasing_sign, torsion_tau
from .cut import approx_equal
from .errors import PreconditionError
from .linalg import bareiss_det, mat_transpose
from .novikov import apply_lift
from .rings import (
    DEFAULT_ORDER,
    RationalFunction,
    TPolynomial,
    _exact,
    _monomial_unit,
    _unit_inverse,
    expand_series,
)


def _offset(ring, offset):
    """A torsor offset: 1 when None, else a +1 monomial of ring."""
    if offset is None:
        return TPolynomial.one(ring)
    _monomial_unit(offset, "offset must be a +1 monomial of the ring", ring)
    return offset


class PathMatrix:
    """Square flow-count matrix with a reference-class offset.

    Rows are indexed by the upper critical points, columns by the lower
    ones; every entry lives in nonnegative t-degrees.
    """

    # _det is kept by path_matrix_det; __init__ copies the entries, nothing
    # writes them afterwards, and a rebasing builds a new path matrix
    __slots__ = ("ring", "matrix", "offset", "row_labels", "col_labels", "_det")

    def __init__(self, ring, matrix, offset=None, row_labels=None, col_labels=None):
        n = len(matrix)
        coerced = []
        for row in matrix:
            if len(row) != n:
                raise PreconditionError("path matrix must be square")
            out = []
            for entry in row:
                if isinstance(entry, int) and not isinstance(entry, bool):
                    entry = TPolynomial.monomial(ring, coeff=entry)
                if not _exact(entry) or entry.ring != ring:
                    raise PreconditionError("path matrix entries must be ring elements")
                if entry and entry.min_t_degree() < 0:
                    raise PreconditionError(
                        "path matrix entries must have nonnegative t-degree"
                    )
                out.append(entry)
            coerced.append(out)
        for labels in (row_labels, col_labels):
            if labels is not None and len(labels) != n:
                raise PreconditionError("label count does not match the matrix size")
        self.ring = ring
        self.matrix = coerced
        self.offset = _offset(ring, offset)
        self.row_labels = list(row_labels) if row_labels is not None else None
        self.col_labels = list(col_labels) if col_labels is not None else None
        self._det = None

    @property
    def size(self):
        return len(self.matrix)


def _rebase_line(P, index, u, axis):
    """Scale row (axis 0) or column (axis 1) index by a monomial unit."""
    if not 0 <= index < P.size:
        raise PreconditionError("%s index out of range" % ("row", "column")[axis])
    sign = _rebasing_sign(u, P.ring)
    matrix = [
        [entry * u if (r, c)[axis] == index else entry for c, entry in enumerate(row)]
        for r, row in enumerate(P.matrix)
    ]
    # the offset moves by u^-1; it carries no sign, so u's is dropped
    return PathMatrix(
        P.ring,
        matrix,
        offset=P.offset * _unit_inverse(u * sign),
        row_labels=P.row_labels,
        col_labels=P.col_labels,
    )


def rebase_row(P, index, u):
    """Scale one row by a monomial unit, shifting the offset to compensate."""
    return _rebase_line(P, index, u, 0)


def rebase_col(P, index, u):
    """Scale one column by a monomial unit, shifting the offset to compensate."""
    return _rebase_line(P, index, u, 1)


def path_matrix_det(P):
    """det(P), a polynomial computed on first use and kept on P.

    It is referenced to P.offset, which callers read off P itself."""
    if P._det is None:
        P._det = bareiss_det(P.ring, P.matrix)
    return P._det


class CoefficientFunction(TPolynomial):
    """Integer coefficients on homology classes: a truncation plus the
    torsor offset of the determinant it came from.

    Evaluation divides by the offset first: the stored keys are relative
    classes, the offset converts an absolute query into a stored key.
    """

    __slots__ = ("offset",)

    def __init__(self, ring, terms, order, offset=None, min_t=0):
        self._adopt(TPolynomial(ring, terms, order, min_t), offset)

    def _adopt(self, series, offset):
        """Take over a truncation's state as is and attach the offset."""
        if series.order is None:
            raise PreconditionError("a coefficient function is a truncation")
        if not series.is_integral():
            raise ArithmeticError("coefficient function needs integer coefficients")
        for name in TPolynomial.__slots__:
            setattr(self, name, getattr(series, name))
        self.offset = _offset(series.ring, offset)
        return self


def i3_coefficients(zeta, P, k):
    """Coefficient function of the counting series times det(P), with
    P.offset as its torsor offset."""
    ring = P.ring
    if isinstance(zeta, RationalFunction):
        zeta = expand_series(zeta, k)
    if not isinstance(zeta, TPolynomial) or zeta.order is None:
        raise PreconditionError("counting factor must be a truncation or a fraction")
    if zeta.ring != ring:
        raise PreconditionError("mismatched ring specs")
    product = (zeta * path_matrix_det(P)).truncate(min(k, zeta.order))
    return object.__new__(CoefficientFunction)._adopt(product, P.offset)


def t_invariant(cf, cls):
    """The coefficient of the class cls, a +1 monomial of cf's ring.

    The stored key of an absolute class is the class over cf's offset.
    """
    _monomial_unit(cls, "class must be a +1 monomial of the ring", cf.ring)
    _, t_exp, v = (cls * _unit_inverse(cf.offset)).unit_parts()
    return cf.coefficient(t_exp, v)


def sw_consistency_check(P, cn, k=DEFAULT_ORDER):
    """Determinant count against the torsion of the two-degree complex.

    The complex must be concentrated in degrees 1 and 2; its boundary,
    transposed and carried through the rebasing of its own lift, must
    reproduce the path matrix entry by entry, and the two determinant
    routes must agree through t-degree k up to one global sign.
    """
    dims_by_degree = {}
    for j, d in enumerate(cn.dims):
        if d:
            dims_by_degree[cn.min_degree + j] = d
    if any(degree not in (1, 2) for degree in dims_by_degree):
        raise PreconditionError("generators outside degrees 1 and 2")
    m1 = dims_by_degree.get(1, 0)
    m2 = dims_by_degree.get(2, 0)
    if m1 != m2 or m1 != P.size:
        raise PreconditionError("critical point counts do not match the path matrix")
    moved = apply_lift(cn, cn.lift, cn.min_degree)
    d2 = moved.boundaries[1 - moved.min_degree] if P.size else []
    if P.matrix != mat_transpose(d2, cols=m2):
        return False
    det = path_matrix_det(P)
    tau = torsion_tau(moved)
    return approx_equal(det, tau, k + 1) or approx_equal(-det, tau, k + 1)
