"""Gluing a cut surface, its return maps, and critical handles into one complex.

The assembled boundary in each degree is the block matrix

    rows (D, E, F) x cols (D, E, F) = [[N,   0,    W        ],
                                       [-tM, dS,   1 - t*phi],
                                       [0,   0,    -dS      ]]

with the F summand in degree i identified with the E summand in degree
i-1.  All stored block data is t-free and plain, as zeta._plain_matrix
leaves it: an int where an entry is constant, a t-free ring element
otherwise.  The twisting variable enters only through the explicit
placements above.  A cut system is valid when this complex is one:
validate_cut_system reads each coupling identity off a block of d^2.
"""

from dataclasses import dataclass

from .complexes import BasedChainComplex, _torsion_engine, validate_complex
from .errors import PreconditionError
from .linalg import charpoly, mat_mul
from .novikov import apply_lift, invariant_I, tau_novikov
from .rings import (
    DEFAULT_ORDER,
    RationalFunction,
    RingSpec,
    TPolynomial,
    _from_t_coefficients,
    expand_series,
    unit_equivalent,
)
from .zeta import _lefschetz_product, _plain_matrix


def _check_block(mat, rows, cols, name):
    if len(mat) != rows or any(len(row) != cols for row in mat):
        raise PreconditionError("block %s has the wrong shape" % name)


class CutSystem:
    """Cut-surface complex, return maps, and critical-handle coupling data.

    phi, N, M and W are stored plain (zeta._plain_matrix): an entry is an
    int where it is constant and a t-free ring element otherwise.
    """

    # _flow is the return flow (K, zeta), kept by _return_flow on first use,
    # and _glued the glued complex, kept by _glue; __init__ copies the
    # blocks and nothing writes them afterwards
    __slots__ = ("sigma", "phi", "crit_dims", "N", "M", "W", "_flow", "_glued")

    def __init__(self, sigma, phi, crit_dims, N, M, W):
        if sigma.min_degree != 0:
            raise PreconditionError("cut surface must start in degree 0")
        n = len(sigma.dims)
        if n == 0:
            raise PreconditionError("cut surface must be nonempty")
        crit_dims = list(crit_dims)
        if len(crit_dims) != n + 1:
            raise PreconditionError("critical dims must cover degrees 0..%d" % n)
        if any(d < 0 for d in crit_dims):
            raise PreconditionError("negative critical dimension")
        if len(phi) != n:
            raise PreconditionError("expected %d return maps" % n)
        for i, mat in enumerate(phi):
            _check_block(mat, sigma.dims[i], sigma.dims[i], "phi_%d" % i)
        for seq, label in ((N, "N"), (M, "M"), (W, "W")):
            if len(seq) != n:
                raise PreconditionError("expected %d %s-blocks" % (n, label))
        for i in range(1, n + 1):
            _check_block(N[i - 1], crit_dims[i - 1], crit_dims[i], "N_%d" % i)
            _check_block(M[i - 1], sigma.dims[i - 1], crit_dims[i], "M_%d" % i)
            _check_block(W[i - 1], crit_dims[i - 1], sigma.dims[i - 1], "W_%d" % i)
        ring = sigma.ring
        for j, mat in enumerate(sigma.boundaries):
            _plain_matrix(ring, mat, "sigma boundary %d" % (j + 1))
        self.sigma = sigma
        self.phi = [_plain_matrix(ring, mat, "block phi_%d" % i) for i, mat in enumerate(phi)]
        self.crit_dims = crit_dims
        self.N = [_plain_matrix(ring, mat, "block N_%d" % i) for i, mat in enumerate(N, 1)]
        self.M = [_plain_matrix(ring, mat, "block M_%d" % i) for i, mat in enumerate(M, 1)]
        self.W = [_plain_matrix(ring, mat, "block W_%d" % i) for i, mat in enumerate(W, 1)]
        self._flow = None
        self._glued = None

    @property
    def ring(self):
        return self.sigma.ring

    @property
    def n(self):
        return len(self.sigma.dims)


def _spans(cs, i):
    """Index ranges of the D, E and F generators of the glued complex in
    degree i: E carries sigma's degree i (below n), F its degree i - 1."""
    sd = cs.sigma.dims
    d = cs.crit_dims[i]
    e = d + (sd[i] if i < cs.n else 0)
    return range(d), range(d, e), range(e, e + (sd[i - 1] if i else 0))


def validate_cut_system(cs):
    """Defect report covering the surface complex and all coupling identities,
    read off d^2 of the glued complex."""
    report = ["sigma: " + line for line in validate_complex(cs.sigma)]
    glued = _glue(cs)
    zero = TPolynomial.zero(cs.ring)
    for i in range(2, cs.n + 1):
        dd = mat_mul(
            glued.boundaries[i - 2], glued.boundaries[i - 1], zero, cols=glued.dims[i]
        )
        (rd, re, _), (cd, _, cf) = _spans(cs, i - 2), _spans(cs, i)
        # with d = dS these blocks are N N, -t (M N + d M), N W - W d and
        # -t (M W - phi d + d phi); (E, E) and (F, F) are sigma's d^2, and
        # every other block is zero whatever the data
        for rows, cols, message in (
            (rd, cd, "critical block d^2 != 0 at degree %d"),
            (re, cd, "M/N compatibility fails at degree %d"),
            (rd, cf, "W/N compatibility fails at degree %d"),
            (re, cf, "return map fails the W/M commutator at degree %d"),
        ):
            if any(dd[r][c] for r in rows for c in cols):
                report.append(message % i)
    return report


def assemble_boundary(cs):
    """Glued complex in degrees 0..n with D, E, F labelled generators."""
    report = validate_cut_system(cs)
    if report:
        raise PreconditionError("; ".join(report))
    return _glue(cs)


def _glue(cs):
    """The glued complex of the module docstring, whether or not the cut
    system is valid; built on first use and kept on cs."""
    if cs._glued is not None:
        return cs._glued
    ring = cs.ring
    zero = TPolynomial.zero(ring)
    # dS_j, the surface boundary out of degree j, for j = 1..n - 1
    d_sigma = [[]] + cs.sigma.boundaries + [[]]
    spans = [_spans(cs, i) for i in range(cs.n + 1)]
    dims = [f.stop for _, _, f in spans]
    labels = [
        [
            "%s%d_%d" % (kind, i, k)
            for kind, span in zip("DEF", group)
            for k in range(len(span))
        ]
        for i, group in enumerate(spans)
    ]
    boundaries = []
    for i in range(1, cs.n + 1):
        mat = [[zero] * dims[i] for _ in range(dims[i - 1])]
        (rd, re, rf), (cd, ce, cf) = spans[i - 1], spans[i]
        # each plain entry lifted where it is placed: e, -t*e or delta - t*e
        twist = [
            [_from_t_coefficients(ring, [int(r == c), -e]) for c, e in enumerate(row)]
            for r, row in enumerate(cs.phi[i - 1])
        ]
        for rows, cols, block in (
            (rd, cd, [[_from_t_coefficients(ring, [e]) for e in row] for row in cs.N[i - 1]]),
            (rd, cf, [[_from_t_coefficients(ring, [e]) for e in row] for row in cs.W[i - 1]]),
            (re, cd, [[_from_t_coefficients(ring, [0, -e]) for e in row] for row in cs.M[i - 1]]),
            (re, ce, d_sigma[i]),
            (re, cf, twist),
            (rf, cf, [[-e for e in row] for row in d_sigma[i - 1]]),
        ):
            for r, entries in zip(rows, block):
                mat[r][cols.start : cols.stop] = entries
        boundaries.append(mat)
    cs._glued = BasedChainComplex(ring, 0, dims, boundaries, labels)
    return cs._glued


def compute_K(cs):
    """Handle-to-handle transfer matrices with the return-flow correction.

    K_i = N_i + t W_i (1 - t phi)^{-1} M_i for phi = phi_{i-1}; see
    _return_flow.  The matrices are kept on the cut system, so every
    call returns the same list.
    """
    return _return_flow(cs)[0]


def _return_flow(cs):
    """The transfer matrices K and the counting function zeta, from one
    linalg.charpoly per return map, computed on first use and kept on cs.

    With det(x - phi) = sum_k c_k x^(n-k), d = det(1 - t phi) = sum_k c_k
    t^k and adj(1 - t phi) M_i = sum_{k<n} t^k Y_k, where Y_0 = M_i and
    Y_k = phi Y_{k-1} + c_k M_i.  So K_i = (d N_i + sum_k t^(k+1) W_i
    Y_k) / d entry by entry, from products of t-free matrices alone.  The
    denominator d has constant term 1, hence never vanishes.  zeta is the
    alternating product of the d, as zeta_lefschetz forms it.
    """
    if cs._flow is not None:
        return cs._flow
    ring = cs.ring
    K, charpolys = [], []
    for phi, N, M, W, cols in zip(cs.phi, cs.N, cs.M, cs.W, cs.crit_dims[1:]):
        c = charpoly(phi)
        num = [[[x] for x in row] for row in N]  # the numerators' t-coefficients
        Y = M
        for k in range(1, len(c)):
            if k > 1:
                PY = mat_mul(phi, Y, 0, cols=cols)
                Y = [[y + c[k - 1] * m for y, m in zip(*rows)] for rows in zip(PY, M)]
            for num_row, n_row, wy_row in zip(num, N, mat_mul(W, Y, 0, cols=cols)):
                for coeffs, x, wy in zip(num_row, n_row, wy_row):
                    coeffs.append(c[k] * x + wy)
        d = _from_t_coefficients(ring, c)
        K.append(
            [[RationalFunction(_from_t_coefficients(ring, e), d) for e in row] for row in num]
        )
        charpolys.append(c)
    cs._flow = (K, _lefschetz_product(ring, charpolys))
    return cs._flow


def tau_via_products(cs):
    """Torsion of the glued complex through the degreewise factorization.

    The critical complex with boundaries K goes through the same torsion
    engine as direct torsion, which clears the fraction rows it keeps,
    and is then weighted by the alternating product of
    det(1 - t phi_i), which is the counting function zeta_lefschetz
    returns.  It equals direct torsion, sign included: in degree j the
    glued transition matrix is the critical one's beside 1 - t phi_j
    once the sigma.dims[j] images of 1 - t phi_j move past the rank K_j
    lifts in D.  A split that exists dimensionally but meets only singular
    blocks yields the zero value, as direct torsion does.
    """
    ring = cs.ring
    crit = cs.crit_dims
    ranks, carried = [], 0
    for j in range(1, len(crit)):
        carried = crit[j - 1] - carried  # the rank of K_j
        if carried < 0 or carried > crit[j]:
            raise PreconditionError("critical ranks admit no square splitting")
        ranks.append(carried)
    if carried != crit[-1]:
        raise PreconditionError("critical ranks admit no square splitting")
    K, zeta = _return_flow(cs)
    value = _torsion_engine(ring, 0, crit, K) * zeta
    return -value if sum(s * r for s, r in zip(cs.sigma.dims[1:], ranks)) % 2 else value


def _least_degree(value):
    """Lowest t-degree carrying a nonzero coefficient of a nonzero value."""
    if isinstance(value, RationalFunction):
        return value.num.min_t_degree() - value.den.min_t_degree()
    return value.min_t_degree()


def _known_through(value, top):
    """value as a truncation known through t-degree top (or its own order)."""
    if isinstance(value, TPolynomial):
        return value.truncate(top)
    return expand_series(value, top)


def approx_equal(x, y, k):
    """Agreement of the leading width-k coefficient windows of two values.

    The window starts at the smaller of the two minimum t-degrees;
    degrees beyond a truncated operand's declared order are treated as
    unknown rather than as disagreements.  Plain integers stand for
    constants of the other operand's ring.
    """
    ring = getattr(x, "ring", None) or getattr(y, "ring", None) or RingSpec()
    x, y = (
        TPolynomial.monomial(ring, coeff=v) if isinstance(v, int) else v for v in (x, y)
    )
    for v in (x, y):
        if not isinstance(v, (TPolynomial, RationalFunction)):
            raise PreconditionError("cannot window a %s" % type(v).__name__)
    lows = [_least_degree(v) for v in (x, y) if v]
    if not lows:
        return True
    top = min(lows) + k - 1
    return _known_through(x, top) == _known_through(y, top)


def check_K_vs_novikov(cs, cn, k):
    """Whether the transfer matrices reproduce the flow-count boundaries.

    Alignment is by true degree: critical ranks must match cn's
    generator counts degree by degree (missing degrees count as zero),
    and every entry must agree through t-degree k, capped by cn's
    declared order when it has one.
    """
    K = compute_K(cs)
    by_degree = {}
    for j, d in enumerate(cn.dims):
        by_degree[cn.min_degree + j] = d
    for degree in range(len(cs.crit_dims)):
        if cs.crit_dims[degree] != by_degree.pop(degree, 0):
            raise PreconditionError("dimension mismatch")
    if any(by_degree.values()):
        raise PreconditionError("dimension mismatch")
    cap = k if cn.order is None else min(k, cn.order)
    for i in range(1, cs.n + 1):
        rows = cs.crit_dims[i - 1]
        cols = cs.crit_dims[i]
        if rows == 0 or cols == 0:
            continue
        cn_mat = cn.boundaries[i - 1 - cn.min_degree]
        for r in range(rows):
            for c in range(cols):
                expanded = expand_series(K[i - 1][r][c], cap)
                if expanded != cn_mat[r][c].truncate(cap):
                    return False
    return True


@dataclass(frozen=True)
class VerificationReport:
    """Everything the end-to-end identity check produced along the way."""

    zeta: RationalFunction
    tau_cn: RationalFunction
    invariant: RationalFunction
    direct: RationalFunction
    product_route: RationalFunction
    series_consistent: bool
    main_identity: bool
    product_identity: bool


def verify_main_theorem(cs, cn, order=DEFAULT_ORDER):
    """Compare the counting invariant against the glued-complex torsion.

    The invariant side multiplies the counting function of the return
    maps by the torsion of the critical-point complex in the basis its
    lift picks; the topological side takes the torsion of the assembled
    complex with the same lift applied to its D generators.  The
    transfer matrices and the counting function are computed once, from
    one characteristic polynomial per return map, and kept on the cut
    system for the series check and the product route to share.
    """
    k = cn.order if cn.order is not None else order
    series_ok = check_K_vs_novikov(cs, cn, k)
    zeta = _return_flow(cs)[1]
    tau_cn = tau_novikov(cn)
    inv = invariant_I(zeta, tau_cn)
    assembled = apply_lift(assemble_boundary(cs), cn.lift, cn.min_degree)
    # assemble_boundary has read all of d^2 off the glued complex, and the
    # lift is a diagonal unit change, so the engine runs without a second check
    direct = _torsion_engine(cs.ring, assembled.min_degree, assembled.dims, assembled.boundaries)
    product_route = tau_via_products(cs)
    return VerificationReport(
        zeta=zeta,
        tau_cn=tau_cn,
        invariant=inv,
        direct=direct,
        product_route=product_route,
        series_consistent=series_ok,
        main_identity=unit_equivalent(inv, direct),
        product_identity=unit_equivalent(product_route, direct),
    )
