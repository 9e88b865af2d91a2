"""Exact matrix routines over the Laurent polynomial ring.

Matrices are plain lists of rows.  An r x 0 matrix is a list of r empty
lists, a 0 x c matrix is the empty list; every function that needs to mint
an element for a degenerate shape takes the ring spec explicitly.

Determinants and ranks over the polynomial ring all run one
fraction-free elimination, _eliminate, which the torsion engine in
complexes also runs once per boundary.  It scales rows lazily: a row
with a zero in the pivot column skips the step, so sparse boundary
matrices do a fraction of Bareiss's divisions, and a pivot row that no
row below reads catches up its pivot alone.  The rest of such a row
catches up only for a caller that asks for echelon rows (echelon_below):
back-substitution does, while determinants, ranks and the torsion engine
read pivots only and skip those tails.
Every polynomial matrix enters it through _eliminate_poly.  With b = 0
that packs the matrix into plain ints by Kronecker substitution t = 2^B
(Fateman 2005; Harvey 2009) and runs the same kernel on them: each row is
shifted by its least t-degree, and B = 2 + sum over rows of
ceil(log2 sqrt(sum_j ||a_ij||_1^2)) keeps every coefficient of every
minor at most 2^(B-2) in size (Hadamard's bound on |t| = 1).  So the
substitution is one to one on every entry the kernel keeps, its balanced
base-2^B digits are the coefficients, and the pivots, swaps and minors
are the polynomial kernel's.  A matrix whose row t-spans sum to more than its
term count, sparse with huge exponents, would pack to huge ints and stays
on the term-dict kernel (exact_div), as every b >= 1 matrix does; that
kernel is also the int route's test oracle.  Only the entries a caller
reads are read back: the last pivot for a determinant or a torsion minor,
the pivot rows where back-substitution needs them.
Kernel vectors and solutions over the fraction field come from
_back_substitute on the rows _eliminate leaves, as polynomial vectors,
so no rational function is formed.
"""

from functools import partial
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


def _eliminate(W, div, one, echelon_below=None):
    """Fraction-free forward elimination of W in place (Bareiss 1968),
    with lazy row scaling (Lee and Saunders, J. Symb. Comput. 19, 1995).

    Returns the pivot columns and the sign of the row swaps.  The last
    pivot is always what Bareiss leaves there, so the last pivot of a
    square of full rank is its determinant.  When the rank is below
    echelon_below (always when it is None), each pivot row, from its
    pivot column rightwards, is exactly what Bareiss leaves there;
    otherwise only the pivots are.  Rows past the rank and entries left
    of a row's pivot are scratch.

    Invariant: row i holds its Bareiss entries as of base[i], the pivot
    it was last divided by (one at the start; swapped with its row).
    Bareiss updates every row below pivot p by w <- (p*w - f*q) / prev.
    For a row whose pivot-column entry f is zero that is only a scaling
    by p/prev, and consecutive scalings telescope, so the row is skipped
    and keeps its base.  A row with f != 0 takes (p*w - f*q) / base[i],
    which equals the eager entry, and its base becomes p; entries with
    w = q = 0 stay zero without a division.  Scaling keeps zeros zero, so
    pivot choice and swaps are Bareiss's own.  A pivot row some row below
    reads catches up, q <- prev*q / base, before it is used.  A pivot row
    nobody reads catches up its pivot entry alone; the rest of the row
    keeps its base, the invariant covers it too, and it catches up after
    the loop only if the caller wants echelon rows.  Every division is of
    a minor by a minor and div must be exact on them.  On a dense matrix
    no row is skipped and the divisions are exactly Bareiss's.
    """
    rows = len(W)
    cols = len(W[0]) if rows else 0
    prev = one
    base = [one] * rows
    sign = 1
    pivots = []
    stale = []
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
        behind = s is not prev
        if behind:
            pr[c] = div(prev * pr[c], s)
        p = pr[c]
        for i in range(r + 1, rows):
            wi = W[i]
            f = wi[c]
            if not f:
                continue
            if behind:
                # the first row that reads the pivot row's tail catches it up
                for j in range(c + 1, cols):
                    if pr[j]:
                        pr[j] = div(prev * pr[j], s)
                behind = False
            b = base[i]
            for j in range(c + 1, cols):
                w, q = wi[j], pr[j]
                if w or q:
                    wi[j] = div(p * w - f * q, b)
            base[i] = p
        if behind:
            stale.append((pr, c, prev, s))
        prev = p
        pivots.append(c)
    if echelon_below is None or len(pivots) < echelon_below:
        for pr, c, prev, s in stale:
            for j in range(c + 1, cols):
                if pr[j]:
                    pr[j] = div(prev * pr[j], s)
    return pivots, sign


def _int_div(a, b):
    """a // b for ints that b divides; ArithmeticError on a remainder."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact interior division")
    return q


def _eliminate_poly(W, one, echelon_below=None):
    """_eliminate(W, exact_div, one, echelon_below) for a matrix of exact
    polynomials of one's ring: the same pivots and sign, and the same
    pivot rows from their pivot columns rightwards when the rank is below
    echelon_below (always when it is None).  Otherwise only the last
    pivot, the determinant of the pivot square up to the swap sign, is
    certain to be in place.  Other entries are scratch.

    With b = 0 and row t-spans summing to at most the matrix's term
    count, row r is multiplied by t^-m_r, m_r its least t-degree, and
    each entry is packed as its value at t = 2^B, B as in the module
    docstring.  Every entry _eliminate keeps is a minor, with
    coefficients of size at most 2^(B-2), so it is zero exactly when its
    image is; the kernel makes the polynomial kernel's choices on the
    images, and each division of images is exact.  Pivot row i holds
    minors on the rows in places 0..i, so its entries are read back as
    balanced base-2^B digits times t^(sum of those rows' m_r).
    """
    ring = one.ring
    if ring._shifts:
        return _eliminate(W, exact_div, one, echelon_below)
    shifts, spans, terms, bits = [], 0, 0, 2
    for row in W:
        nonzero = [t for e in row if (t := e._terms)]
        low = 0
        if nonzero:
            keys = [k for t in nonzero for k in t]
            low = min(keys)
            spans += max(keys) - low
            terms += len(keys)
            norm = sum([sum(map(abs, t.values())) ** 2 for t in nonzero])
            # ceil(log2 sqrt(norm)) = ceil(ceil(log2 norm) / 2)
            bits += ((norm - 1).bit_length() + 1) // 2
        shifts.append(low)
    if spans > terms:
        return _eliminate(W, exact_div, one, echelon_below)
    packed = [
        [sum([c << bits * (k - m) for k, c in t.items()]) if (t := e._terms) else 0 for e in row]
        for row, m in zip(W, shifts)
    ]
    place = {id(row): r for r, row in enumerate(packed)}
    pivots, sign = _eliminate(packed, _int_div, 1, echelon_below)
    order = [place[id(row)] for row in packed]
    W[:] = [W[r] for r in order]
    echelon = echelon_below is None or len(pivots) < echelon_below
    zero = TPolynomial.zero(ring)
    shift = 0
    for i, c in enumerate(pivots):
        shift += shifts[order[i]]
        if echelon or i == len(pivots) - 1:
            row = W[i]
            for j in range(c, len(row) if echelon else c + 1):
                x = packed[i][j]
                row[j] = _from_kronecker(ring, x, bits, shift) if x else zero
    return pivots, sign


def _from_kronecker(ring, x, bits, shift):
    """The polynomial sum_k d_k t^(shift + k) whose balanced base-2^bits
    digits d_k, each of size below 2^(bits-1), make up x."""
    terms = {}
    width = 1 << bits
    half, mask = width >> 1, width - 1
    k = shift
    while x:
        d = x & mask
        if d >= half:
            d -= width
        if d:
            terms[k] = d
        x = (x - d) >> bits
        k += 1
    return TPolynomial._trusted(ring, terms)


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


def _det(M, eliminate, one, zero):
    """det M from eliminate(W, one) on a copy of M: an elimination that
    leaves the last pivot of a square of full rank in place."""
    n = _square_size(M, "determinant")
    W = [list(row) for row in M]
    pivots, sign = eliminate(W, one)
    if len(pivots) < n:
        return zero
    d = W[n - 1][n - 1] if n else one
    return -d if sign < 0 else d


def bareiss_det(ring, M):
    """Fraction-free determinant of a square matrix over the Laurent ring."""
    last_pivot = partial(_eliminate_poly, echelon_below=0)
    return _det(M, last_pivot, TPolynomial.one(ring), TPolynomial.zero(ring))


def poly_rank_pivots(ring, M):
    """Rank and pivot column indices of a Laurent polynomial matrix.

    Rank is taken over the fraction field; fraction-free elimination keeps
    every intermediate entry polynomial.
    """
    pivots, _ = _eliminate_poly([list(row) for row in M], TPolynomial.one(ring), echelon_below=0)
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
