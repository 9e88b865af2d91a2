"""Counting functions of the return flow, in four interchangeable shapes.

Two shapes consume closed-orbit data (an exponential sum and an Euler
product over irreducible orbits), two consume homology return maps (a
trace exponential and an exact alternating determinant product).  The
pairs must agree wherever their inputs describe the same flow; the
suite leans on that agreement instead of trusting any single shape.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .linalg import charpoly, mat_mul
from .rings import (
    RationalFunction,
    TPolynomial,
    _exact,
    _exp_power_sums,
    _from_t_coefficients,
    _monomial_unit,
)


@dataclass(frozen=True)
class ClosedOrbit:
    """One irreducible closed orbit of the return flow.

    homology_class is a single +1 monomial with positive t-degree.  The
    linearized return map fixes the signs of all powers of the orbit;
    eps alone covers only the orbit itself.
    """

    homology_class: TPolynomial
    period: int = 1
    eps: int = 0
    return_map: tuple = ()
    i_minus: int = -1
    i_zero: int = -1

    def __post_init__(self):
        parts = _monomial_unit(self.homology_class, "orbit class must be a +1 monomial")
        if parts[1] <= 0:
            raise PreconditionError("orbit class must have positive t-degree")
        if self.period < 1:
            raise PreconditionError("orbit period must be positive")
        if self.eps not in (-1, 0, 1):
            raise PreconditionError("orbit sign must be -1, 0 or +1")
        rows = tuple(tuple(row) for row in self.return_map)
        n = len(rows)
        for row in rows:
            if len(row) != n or any(isinstance(e, bool) or not isinstance(e, int) for e in row):
                raise PreconditionError("return map must be a square integer matrix")
        object.__setattr__(self, "return_map", rows)

    @property
    def t_degree(self):
        return self.homology_class.unit_parts()[1]

    def map_rows(self):
        return [list(row) for row in self.return_map]


def _diagonal_eigenvalues(A):
    """Diagonal entries when the matrix is triangular, else None."""
    n = len(A)
    lower = all(A[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    upper = all(A[i][j] == 0 for i in range(n) for j in range(i))
    if not (lower or upper):
        return None
    return [A[i][i] for i in range(n)]


def _power_traces(A, order):
    """[tr(A^m) for m = 1..order] by baby-step giant-step (Paterson and
    Stockmeyer, SIAM J. Comput. 2, 1973): with k about sqrt(order), the
    baby steps A^1 .. A^k, the giant steps A^k, A^2k, ..., and for m = jk + i
    one Frobenius product tr(A^jk A^i) = sum_rc (A^jk)_rc (A^i)_cr.  That is
    about 2*sqrt(order) products instead of order; entries may be ints or
    t-free ring elements."""
    if not A or order < 1:
        return [0] * order
    n, k = len(A), 1 + int((order - 1) ** 0.5)
    baby = [A]
    for _ in range(k - 1):
        baby.append(mat_mul(baby[-1], A, 0))
    # baby steps flattened by columns, to pair with giant steps flattened by rows
    cols = [[B[c][r] for r in range(n) for c in range(n)] for B in baby]
    traces = [sum(B[r][r] for r in range(n)) for B in baby]
    giant = baby[-1]
    while len(traces) < order:
        flat = [a for row in giant for a in row]
        for C in cols[: order - len(traces)]:
            traces.append(sum(a * b for a, b in zip(flat, C) if a and b))
        if len(traces) < order:
            giant = mat_mul(giant, baby[-1], 0)
    return traces


def _orbit_signs(orbit, count):
    """The signs of det(1 - A^p) for p = 1..count.

    det(1 - x A^p) = sum_k c_k x^k has c_0 = 1 and, by Newton's identities,
    k c_k = -sum_{i=1..k} c_{k-i} tr(A^(p*i)); the traces come from one
    _power_traces run, each division by k must be exact, and det(1 - A^p)
    is the sum of the c_k.  The orbit counts are not read, so zeta_product
    checks zeta_exp.
    """
    A = orbit.map_rows()
    if not A:
        return [_mapless_sign(orbit, p) for p in range(1, count + 1)]
    n = len(A)
    traces = _power_traces(A, n * count)
    signs = []
    for p in range(1, count + 1):
        c = [1]
        for k in range(1, n + 1):
            q, r = divmod(-sum(c[k - i] * traces[p * i - 1] for i in range(1, k + 1)), k)
            if r:
                raise ArithmeticError("inexact division in Newton's identities")
            c.append(q)
        d = sum(c)
        if d == 0:
            raise PreconditionError("degenerate orbit: det(1 - A^%d) = 0" % p)
        signs.append(1 if d > 0 else -1)
    return signs


def _mapless_sign(orbit, power):
    """Sign of det(1 - A^power) for an orbit that carries no return map.

    eps covers the first power, and for a hyperbolic orbit eps together
    with i_minus fixes every power: the sign repeats on odd powers and
    flips by the parity of i_minus on even ones (real eigenvalues below -1
    each cross sign there and complex pairs never contribute).
    """
    if orbit.eps not in (-1, 1):
        raise PreconditionError("orbit sign is not pinned down")
    if power == 1:
        return orbit.eps
    if orbit.i_minus >= 0:
        if power % 2:
            return orbit.eps
        return -orbit.eps if orbit.i_minus % 2 else orbit.eps
    raise PreconditionError("orbit powers need a return map or index counts")


def orbit_counts(orbit):
    """(i_minus, i_zero): eigenvalue counts below -1 and inside the unit disc."""
    if orbit.i_minus >= 0 and orbit.i_zero >= 0:
        return orbit.i_minus, orbit.i_zero
    A = orbit.map_rows()
    if not A:
        raise PreconditionError("orbit index counts need a return map")
    eigs = _diagonal_eigenvalues(A)
    if eigs is None:
        raise PreconditionError("index counts are only derived for triangular maps")
    if any(abs(e) == 1 for e in eigs):
        raise PreconditionError("non-hyperbolic return map")
    return sum(1 for e in eigs if e < -1), sum(1 for e in eigs if -1 < e < 1)


def zeta_exp(ring, orbits, order):
    """Orbit-sum exponential, truncated at the given t-degree.

    The j-th power of an orbit of t-degree d and class g adds
    sign_j * g^j / j to the logarithm, so it adds d * sign_j * g^j to
    the integer power sum at t-degree j*d; those sums feed the
    exponential's recurrence directly.  sign_j is the sign of
    det(1 - A^j), from Newton's identities on traces of powers of the
    return map A (_orbit_signs); zeta_product reads the orbit index counts
    instead, so the two share no step.
    """
    if order < 0:
        raise PreconditionError("truncation order must be nonnegative")
    sums = {}
    for orbit in orbits:
        if orbit.homology_class.ring != ring:
            raise PreconditionError("mismatched ring specs")
        d = orbit.t_degree
        v_class = orbit.homology_class.unit_parts()[2]
        for power, sign in enumerate(_orbit_signs(orbit, order // d), 1):
            slice_ = sums.setdefault(power * d, {})
            key = ring.pack(0, [power * e for e in v_class])
            slice_[key] = slice_.get(key, 0) + d * sign
    return _exp_power_sums(ring, order, sums)


def zeta_product(ring, orbits):
    """Euler product over irreducible orbits, as an exact fraction.

    Each factor is (1 - (-1)^{i_minus} m)^{-(-1)^{i_zero}} for the orbit
    class m.  The closed form matches the exponential sum when every
    transversal piece has even dimension; the suite checks the pair on
    that footing.
    """
    num = TPolynomial.one(ring)
    den = TPolynomial.one(ring)
    for orbit in orbits:
        if orbit.homology_class.ring != ring:
            raise PreconditionError("mismatched ring specs")
        i_minus, i_zero = orbit_counts(orbit)
        sign = -1 if i_minus % 2 else 1
        base = 1 - sign * orbit.homology_class
        if i_zero % 2:
            num = num * base
        else:
            den = den * base
    return RationalFunction(num, den)


def _map_entry(ring, entry, name):
    """A t-free entry in plain form: an int when constant, else a t-free
    ring element; anything else is refused in the words of name."""
    if _exact(entry):
        if entry.ring != ring:
            raise PreconditionError("mismatched ring specs")
        if not entry.is_t_free():
            raise PreconditionError("%s entries must not involve t" % name)
        # a constant has no term but (possibly) the one at the origin
        c = entry.coefficient(0)
        return c if len(entry) == (1 if c else 0) else entry
    if isinstance(entry, int) and not isinstance(entry, bool):
        return entry
    raise PreconditionError("%s entries must be integers or t-free polynomials" % name)


def _plain_matrix(ring, A, name):
    """A copy of A through _map_entry, so products of constant entries are
    int products: the one coercion of t-free matrix data."""
    return [[_map_entry(ring, entry, name) for entry in row] for row in A]


def _plain_maps(ring, maps):
    """Graded return maps, each checked square, through _plain_matrix."""
    for i, A in enumerate(maps):
        if any(len(row) != len(A) for row in A):
            raise PreconditionError("return map in degree %d is not square" % i)
    return [_plain_matrix(ring, A, "return map") for A in maps]


def zeta_trace(ring, maps, order):
    """Trace exponential of graded return maps, truncated at the order.

    zeta = exp(sum_m L(phi^m) t^m / m) with the Lefschetz numbers
    L(phi^m) = sum_i (-1)^i tr(phi_i^m) (Milnor, Infinite cyclic
    coverings, 1968; Fried, Homological identities for closed orbits,
    1983).  The L(phi^m) are the power sums of the exponential's
    recurrence n*z_n = sum_{m=1..n} L(phi^m) z_{n-m}, whose divisions by
    n are exact whenever the result is integral.  Over Z[V] the maps
    are twisted, L(phi^m) is a t-free ring element, and its terms are
    the V-slice of the power sum at t-degree m.  The traces are of true
    matrix powers, taken by baby-step giant-step in _power_traces, never
    power sums of a characteristic polynomial: zeta_lefschetz works from
    charpoly, so the two routes share no step and each checks the other.
    """
    if order < 0:
        raise PreconditionError("truncation order must be nonnegative")
    lefschetz = [0] * order
    for i, A in enumerate(_plain_maps(ring, maps)):
        sign = -1 if i % 2 else 1
        lefschetz = [s + sign * tr for s, tr in zip(lefschetz, _power_traces(A, order))]
    origin = ring.pack(0)
    sums = {m: s._terms if _exact(s) else {origin: s} for m, s in enumerate(lefschetz, 1)}
    result = _exp_power_sums(ring, order, sums)
    if not result.is_integral():
        raise ArithmeticError("trace exponential left the integral lattice")
    return result


def zeta_lefschetz(ring, maps):
    """Exact alternating product of the characteristic determinants.

    With det(x - phi_i) = sum_k c_k x^(n-k) from the division-free
    linalg.charpoly, det(1 - t*phi_i) = sum_k c_k t^k; no 1 - t*phi
    matrix is built.  Accepts integer matrices or matrices of t-free ring
    elements.  It shares no step with zeta_trace, whose Newton recurrence
    runs on traces of powers, so each checks the other.
    """
    return _lefschetz_product(ring, [charpoly(A) for A in _plain_maps(ring, maps)])


def _lefschetz_product(ring, charpolys):
    """zeta_lefschetz from each map's coefficients as linalg.charpoly
    gives them."""
    num = TPolynomial.one(ring)
    den = TPolynomial.one(ring)
    for i, c in enumerate(charpolys):
        d = _from_t_coefficients(ring, c)
        if i % 2 == 0:
            den = den * d
        else:
            num = num * d
    return RationalFunction(num, den)
