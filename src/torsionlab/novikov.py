"""Downward gradient complexes with lifted generators.

Generators sit one per critical point, graded by Morse index.  Boundary
entries count flow lines and therefore never carry negative t-degree;
the degree-0 part is nilpotent for free since the differential lowers
the index.  A complex may carry a lift: one +1 monomial offset per
generator, relative to the fixture baseline, which its torsion applies.
"""

from .complexes import BasedChainComplex, _rescaled, torsion_tau
from .errors import PreconditionError
from .rings import RationalFunction, TPolynomial, _monomial_unit, expand_series


class NovikovComplex(BasedChainComplex):
    """Based complex of critical points; order declares series truncation.

    order None means the entries are exact polynomials; an integer k
    means every entry is trusted only through t-degree k.  lift, when
    given, is an EulerLift with one offset per generator; the torsion
    of the complex is taken in the basis it picks.
    """

    __slots__ = ("order", "lift")

    def __init__(
        self, ring, min_degree, dims, boundaries, labels=None, order=None, lift=None
    ):
        super().__init__(ring, min_degree, dims, boundaries, labels)
        for mat in self.boundaries:
            for row in mat:
                for entry in row:
                    if entry and entry.min_t_degree() < 0:
                        raise PreconditionError(
                            "flow-line counts cannot have negative t-degree"
                        )
        if order is not None and order < 0:
            raise PreconditionError("truncation order must be nonnegative")
        if lift is not None:
            if lift.ring != ring:
                raise PreconditionError("mismatched ring specs")
            if [len(group) for group in lift.offsets] != self.dims:
                raise PreconditionError("lift offsets do not match the generators")
        self.order = order
        self.lift = lift


class EulerLift:
    """One +1 monomial offset per generator, grouped by degree index."""

    __slots__ = ("ring", "offsets")

    def __init__(self, ring, offsets):
        offsets = [list(group) for group in offsets]
        for group in offsets:
            for u in group:
                _monomial_unit(u, "lift offsets must be +1 monomials of the ring", ring)
        self.ring = ring
        self.offsets = offsets

    @classmethod
    def trivial(cls, ring, dims):
        return cls(ring, [[TPolynomial.one(ring)] * d for d in dims])


def apply_lift(C, xi, min_degree):
    """C rebased by the lift xi in one pass; a None lift leaves C as it is.

    Group j of xi scales the leading generators of degree min_degree + j,
    each by its offset u: columns into that degree pick up u, rows out of
    it pick up u^-1.  Offsets equal to 1 leave their generator alone.
    """
    if xi is None:
        return C
    units = {}
    for j, group in enumerate(xi.offsets):
        for index, u in enumerate(group):
            if u == 1:
                continue
            k = C.degree_index(min_degree + j)
            if index >= C.dims[k]:
                raise PreconditionError("basis index out of range")
            units[k, index] = u
    return _rescaled(C, units)


def tau_novikov(cn):
    """Torsion of the critical-point complex in the basis its lift picks."""
    return torsion_tau(apply_lift(cn, cn.lift, cn.min_degree))


def invariant_I(zeta, tau_cn):
    """Product of the counting function and the Morse torsion.

    tau_cn is a RationalFunction, zero when the critical-point complex is
    not acyclic, and so is I for an exact zeta; a truncated zeta gives
    zeta times tau_cn's expansion through zeta's order.  Units stay in;
    they are stripped where the value is printed.
    """
    if isinstance(zeta, RationalFunction):
        return zeta * tau_cn
    if isinstance(zeta, TPolynomial) and zeta.order is not None:
        return zeta * expand_series(tau_cn, zeta.order)
    raise PreconditionError("counting function must be exact or a truncation")
