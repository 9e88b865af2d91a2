"""Downward gradient complexes with lifted generators.

Generators sit one per critical point, graded by Morse index.  Boundary
entries count flow lines and therefore never carry negative t-degree;
the degree-0 part is nilpotent for free since the differential lowers
the index.  Lifts are recorded relative to the fixture baseline as
one monomial offset per generator.
"""

from dataclasses import dataclass

from .complexes import (
    BasedChainComplex,
    TorsionValue,
    _rescaled,
    torsion_tau,
)
from .errors import PreconditionError
from .rings import (
    RationalFunction,
    TPolynomial,
    canonical_mod_units,
    expand_series,
)


class NovikovComplex(BasedChainComplex):
    """Based complex of critical points; order declares series truncation.

    order None means the entries are exact polynomials; an integer k
    means every entry is trusted only through t-degree k.
    """

    __slots__ = ("order",)

    def __init__(self, ring, min_degree, dims, boundaries, labels=None, order=None):
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
        self.order = order


class EulerLift:
    """One monomial offset per generator, grouped by degree index."""

    __slots__ = ("ring", "offsets")

    def __init__(self, ring, offsets):
        checked = []
        for group in offsets:
            row = []
            for u in group:
                parts = u.unit_parts()
                if parts is None or parts[0] != 1:
                    raise PreconditionError("lift offsets must be +1 monomials")
                row.append(u)
            checked.append(row)
        self.ring = ring
        self.offsets = checked

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


def _lifted(cn, xi):
    """cn rebased by xi, which must carry one offset per generator."""
    if xi is not None and (
        len(xi.offsets) != len(cn.dims)
        or any(len(group) != d for group, d in zip(xi.offsets, cn.dims))
    ):
        raise PreconditionError("lift offsets do not match the generators")
    return apply_lift(cn, xi, cn.min_degree)


def tau_novikov(cn, xi=None):
    """Torsion of the critical-point complex in the basis picked by the lift."""
    return torsion_tau(_lifted(cn, xi))


@dataclass(frozen=True)
class MorseInvariant:
    """The counting invariant, exactly and/or as a truncated series.

    A zero value (torsion of a non-acyclic complex) leaves both parts
    None.  When the counting function arrives as a series, only the
    series part is populated.
    """

    value: object = None
    series: object = None

    @property
    def is_zero(self):
        return self.value is None and self.series is None


def invariant_I(zeta, tau_cn):
    """Product of the counting function and the Morse torsion."""
    if tau_cn is None:
        return MorseInvariant()
    if isinstance(zeta, RationalFunction):
        raw = zeta * tau_cn.raw
        if raw.is_zero:
            return MorseInvariant()
        return MorseInvariant(value=TorsionValue(raw, canonical_mod_units(raw)))
    if isinstance(zeta, TPolynomial) and zeta.order is not None:
        tau_series = expand_series(tau_cn.raw, zeta.order)
        return MorseInvariant(series=zeta * tau_series)
    raise PreconditionError("counting function must be exact or a truncation")

