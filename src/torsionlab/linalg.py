"""Exact matrix routines over the Laurent polynomial ring.

Matrices are plain lists of rows.  An r x 0 matrix is a list of r empty
lists, a 0 x c matrix is the empty list; every function that needs to mint
an element for a degenerate shape takes the ring spec explicitly.

Determinants and ranks over the polynomial ring all run one
fraction-free elimination, _eliminate, which the torsion engine in
complexes also runs once per boundary.  It scales rows lazily: a row
with a zero in the pivot column skips the step, so sparse boundary
matrices do a fraction of Bareiss's divisions.
Kernel vectors and solutions over the fraction field come from
_back_substitute on the rows _eliminate leaves, as polynomial vectors,
so no rational function is formed.
"""

from math import gcd

from .errors import PreconditionError
from .rings import TPolynomial, exact_div


def mat_shape(M):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    return rows, cols


def mat_transpose(M, cols=None):
    # cols disambiguates the 0 x c case, where the row list is empty
    if not M:
        return [[] for _ in range(cols)] if cols else []
    return [list(col) for col in zip(*M)]


def mat_mul(A, B, zero, cols=None):
    # cols gives the result width when B has no rows to read it from
    ra, ca = mat_shape(A)
    rb, cb = mat_shape(B)
    if ra == 0:
        # an empty row list carries no column count to check against
        return []
    if ca != rb:
        raise PreconditionError("matrix product shape mismatch")
    if rb == 0:
        cb = cols or 0
    out = []
    for a_row in A:
        # zero operands add nothing, so each sum runs over the nonzero pairs
        nonzero = [(a, B[k]) for k, a in enumerate(a_row) if a]
        row = []
        for j in range(cb):
            acc = zero
            for a, b_row in nonzero:
                b = b_row[j]
                if b:
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def mat_apply(A, v, zero):
    rows, cols = mat_shape(A)
    if rows == 0:
        return []
    if cols != len(v):
        raise PreconditionError("matrix-vector shape mismatch")
    out = []
    for i in range(rows):
        acc = zero
        for k in range(cols):
            acc = acc + A[i][k] * v[k]
        out.append(acc)
    return out


def mat_is_zero(M):
    return all(not entry for row in M for entry in row)


def _eliminate(W, div, one):
    """Fraction-free forward elimination of W in place (Bareiss 1968),
    with lazy row scaling (Lee and Saunders, J. Symb. Comput. 19, 1995).

    Returns the pivot columns and the sign of the row swaps.  Each pivot
    row, from its pivot column rightwards, is exactly what Bareiss leaves
    there, so the last pivot of a square of full rank is its determinant;
    rows past the rank and entries left of a row's pivot are scratch.

    Invariant: row i holds its Bareiss entries as of base[i], the pivot
    it was last divided by (one at the start; swapped with its row).
    Bareiss updates every row below pivot p by w <- (p*w - f*q) / prev.
    For a row whose pivot-column entry f is zero that is only a scaling
    by p/prev, and consecutive scalings telescope, so the row is skipped
    and keeps its base.  A row with f != 0 takes (p*w - f*q) / base[i],
    which equals the eager entry, and its base becomes p; entries with
    w = q = 0 stay zero without a division.  Scaling keeps zeros zero, so
    pivot choice and swaps are Bareiss's own.  The pivot row catches up,
    q <- prev*q / base, before it is used.  Every division is of a minor
    by a minor and div must be exact on them.  On a dense matrix no row
    is skipped and the divisions are exactly Bareiss's.
    """
    rows = len(W)
    cols = len(W[0]) if rows else 0
    prev = one
    base = [one] * rows
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
            base[r], base[pivot_row] = base[pivot_row], base[r]
            sign = -sign
        pr = W[r]
        s = base[r]
        if s is not prev:
            for j in range(c, cols):
                if pr[j]:
                    pr[j] = div(prev * pr[j], s)
        p = pr[c]
        for i in range(r + 1, rows):
            wi = W[i]
            f = wi[c]
            if not f:
                continue
            s = base[i]
            for j in range(c + 1, cols):
                w, q = wi[j], pr[j]
                if w or q:
                    wi[j] = div(p * w - f * q, s)
            base[i] = p
        prev = p
        pivots.append(c)
    return pivots, sign


def _back_substitute(ring, W, pivots, cols, free):
    """A vector v of length cols with W v = 0, for W and pivots as
    _eliminate left them and free a column that is not a pivot.

    v is zero on the other non-pivot columns and is built from the bottom
    pivot row up; entries left of a row's pivot are scratch and read as
    zero.  A row whose residual, the sum of w_j v_j right of its pivot, is
    nonzero multiplies v by the row's pivot and sets minus the residual at
    the pivot column; a row whose residual is zero leaves v alone.  The
    integer content is divided out last, so a zero column free gives
    exactly its unit vector.  Over the fraction field v is v[free] times
    the kernel vector that is 1 at free and 0 at the other free columns.
    """
    zero = TPolynomial.zero(ring)
    v = [zero] * cols
    v[free] = TPolynomial.one(ring)
    support = [free]
    for i in reversed(range(len(pivots))):
        p = pivots[i]
        row = W[i]
        residual = zero
        for j in support:
            if j > p and row[j]:
                residual = residual + row[j] * v[j]
        if residual:
            a = row[p]
            for j in support:
                v[j] = v[j] * a
            v[p] = -residual
            support.append(p)
    content = 0
    for j in support:
        content = gcd(content, v[j].content())
    for j in support:
        v[j] = v[j].divide_content(content)
    return v


def _square_size(M, what):
    n = len(M)
    if any(len(row) != n for row in M):
        raise PreconditionError("%s of a non-square matrix" % what)
    return n


def _det(M, div, one, zero):
    n = _square_size(M, "determinant")
    W = [list(row) for row in M]
    pivots, sign = _eliminate(W, div, one)
    if len(pivots) < n:
        return zero
    d = W[n - 1][n - 1] if n else one
    return -d if sign < 0 else d


def bareiss_det(ring, M):
    """Fraction-free determinant of a square matrix over the Laurent ring."""
    return _det(M, exact_div, TPolynomial.one(ring), TPolynomial.zero(ring))


def poly_rank_pivots(ring, M):
    """Rank and pivot column indices of a Laurent polynomial matrix.

    Rank is taken over the fraction field; fraction-free elimination keeps
    every intermediate entry polynomial.
    """
    pivots, _ = _eliminate([list(row) for row in M], exact_div, TPolynomial.one(ring))
    return len(pivots), pivots


def charpoly(A):
    """Coefficients [c_0, ..., c_n] of det(x - A) = sum_k c_k x^(n-k).

    Berkowitz's division-free recurrence (IPL 18, 1984) grows the leading
    principal block A_r one row and column at a time.  Writing A_(r+1) =
    [[A_r, C], [R, a]], the coefficients of det(x - A_(r+1)) are those of
    det(x - A_r) times the lower-triangular Toeplitz matrix with first
    column (1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C).  Only +, - and *
    run, so integer entries give integers and ring elements ring elements.
    """
    n = _square_size(A, "characteristic polynomial")
    p = [1]
    for r in range(n):
        row, v = A[r][:r], [A[i][r] for i in range(r)]
        col = [1, -A[r][r]]
        for k in range(r):
            if k:
                v = [sum(a * b for a, b in zip(A[i], v) if a and b) for i in range(r)]
            col.append(-sum(a * b for a, b in zip(row, v) if a and b))
        p = [
            sum(col[k - j] * p[j] for j in range(max(0, k - r - 1), min(k, r) + 1))
            for k in range(r + 2)
        ]
    return p
