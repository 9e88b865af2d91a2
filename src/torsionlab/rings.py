"""Exact arithmetic in Z[V][t, t^-1], truncated Laurent series, and their
fraction field.

The base coefficient ring is the group ring Z[V] of a free abelian group with
b named generators, realised as multivariate integer Laurent polynomials.
Every element of Z[V][t, t^-1] and of its Novikov completion is stored the
same way: a term dict {(t_exp, v_exps): coeff} holding only nonzero
coefficients.  One addition kernel and one multiplication kernel do all the
arithmetic on term dicts.  On top of them sit:

* TPolynomial, a Laurent polynomial in the distinguished variable t with
  Z[V] coefficients; its coefficients are integers.  All determinant and
  torsion work happens here or in the fraction field.
* NovikovTruncation, a formal Laurent series in t known exactly up to a
  declared t-degree: a term dict plus its window [min_t, order].  This is
  the computational face of the completed ring Z[V]((t)); coefficients may
  pass through Q while the exponential of a formal sum is taken.
* RationalFunction, an exact quotient of two TPolynomials compared by
  cross-multiplication, never by representative.

Public constructors check what they are given (exponent arity, coefficient
type, the truncation window).  Arithmetic results skip those checks: the
kernels only ever produce well-formed keys, and a private constructor keeps
the remaining invariants (no zero coefficient, integral Fractions stored as
int).

Monomial order everywhere: lexicographic with the t-exponent most
significant, then the V-exponents in declaration order.  A full monomial key
is the tuple (t_exp, v_exps), so plain tuple comparison implements the
order.

All values are treated as immutable after construction; every operation
returns a fresh object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import add

from .errors import PreconditionError

# Highest truncation order accepted from a command line or a fixture.  The
# series recurrences hold one slice per t-degree and sum over all earlier
# ones, so their memory grows with the order and their time with its square.
MAX_ORDER = 1024


@dataclass(frozen=True)
class RingSpec:
    """Names the generators of the ambient ring Z[V][t, t^-1].

    var_names lists the b commuting unit generators of V; t_name is the
    distinguished series variable.  Two specs are interchangeable exactly
    when they compare equal.
    """

    var_names: tuple = ()
    t_name: str = "t"

    def __post_init__(self):
        names = tuple(self.var_names)
        object.__setattr__(self, "var_names", names)
        if len(set(names)) != len(names):
            raise PreconditionError("duplicate group variable names")
        if self.t_name in names:
            raise PreconditionError("t variable clashes with a group variable")

    @property
    def num_group_vars(self) -> int:
        return len(self.var_names)

    def zero_v(self) -> tuple:
        return (0,) * len(self.var_names)


def _coeff_normal(c):
    """Collapse integral Fractions to int; reject anything non-rational."""
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise PreconditionError("mismatched ring specs")


def _checked_terms(ring, terms):
    """A caller's term dict with keys normalised, arity and coefficient
    types checked, and zero coefficients dropped."""
    b = ring.num_group_vars
    clean = {}
    for (t_exp, v), c in (terms or {}).items():
        v = tuple(v)
        if len(v) != b:
            raise PreconditionError(
                f"exponent vector {v} has length {len(v)}, ring has {b} variables"
            )
        c = _coeff_normal(c)
        if c:
            clean[(t_exp, v)] = c
    return clean


def _add_terms(a, b, scale=1):
    """Term dict of a + scale * b (scale nonzero)."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + scale * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _mul_terms(a, b, cap=None):
    """Term dict of a * b, leaving out every t-degree above cap."""
    out = {}
    for (ta, va), ca in a.items():
        for (tb, vb), cb in b.items():
            te = ta + tb
            if cap is not None and te > cap:
                continue
            k = (te, tuple(map(add, va, vb)))
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


class TPolynomial:
    """Laurent polynomial in t over Z[V], the dense working ring.

    Keys are (t_exponent, v_exponent_vector); coefficients are nonzero
    integers.  Rational coefficients are deliberately rejected here: every
    determinant and torsion computation stays in the integral ring, with
    quotients handled by RationalFunction.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms=None):
        clean = _checked_terms(ring, terms)
        if any(isinstance(c, Fraction) for c in clean.values()):
            raise TypeError("TPolynomial coefficients must be integers")
        self.ring = ring
        self.terms = clean

    @classmethod
    def _trusted(cls, ring, terms):
        """Wrap a kernel result: integer, zero-free, keys already normal."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    @classmethod
    def zero(cls, ring):
        return cls._trusted(ring, {})

    @classmethod
    def one(cls, ring):
        return cls._trusted(ring, {(0, ring.zero_v()): 1})

    @classmethod
    def monomial(cls, ring, t_exp=0, v=None, coeff=1):
        v = ring.zero_v() if v is None else tuple(v)
        return cls(ring, {(t_exp, v): coeff})

    @classmethod
    def t(cls, ring, power=1):
        return cls.monomial(ring, t_exp=power)

    @classmethod
    def var(cls, ring, name, power=1):
        i = ring.var_names.index(name)
        v = [0] * ring.num_group_vars
        v[i] = power
        return cls.monomial(ring, v=v)

    # ---- structure queries ----

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def min_t_degree(self) -> int:
        """Lowest t-exponent present; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return min(k[0] for k in self.terms)

    def lex_min_key(self):
        if not self.terms:
            raise PreconditionError("zero polynomial has no lexicographically least term")
        return min(self.terms)

    def lex_max_key(self):
        if not self.terms:
            raise PreconditionError("zero polynomial has no lexicographically greatest term")
        return max(self.terms)

    def is_t_free(self) -> bool:
        return all(k[0] == 0 for k in self.terms)

    def unit_parts(self):
        """Return (coeff, t_exp, v_exps) when self is a single +-1 monomial, else None."""
        if len(self.terms) != 1:
            return None
        (k, c), = self.terms.items()
        if c == 1 or c == -1:
            return c, k[0], k[1]
        return None

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g

    def coefficient(self, t_exp, v=None):
        v = self.ring.zero_v() if v is None else tuple(v)
        return self.terms.get((t_exp, v), 0)

    # ---- arithmetic ----

    def _coerce(self, other):
        if isinstance(other, int):
            return TPolynomial._trusted(
                self.ring, {(0, self.ring.zero_v()): other} if other else {}
            )
        if isinstance(other, TPolynomial):
            _check_same_ring(self, other)
            return other
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __neg__(self):
        return self * -1

    def _plus(self, other, scale):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TPolynomial._trusted(self.ring, _add_terms(self.terms, other.terms, scale))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            terms = _add_terms({}, self.terms, other) if other else {}
        elif isinstance(other, TPolynomial):
            _check_same_ring(self, other)
            terms = _mul_terms(self.terms, other.terms)
        else:
            return NotImplemented
        return TPolynomial._trusted(self.ring, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("polynomial powers must be nonnegative integers")
        out = TPolynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def times_monomial(self, t_exp, v=None, coeff=1):
        """Fast multiply by coeff * t^t_exp * V^v."""
        v = self.ring.zero_v() if v is None else tuple(v)
        if len(v) != self.ring.num_group_vars:
            raise PreconditionError("monomial exponent vector has the wrong arity")
        if not coeff:
            return TPolynomial.zero(self.ring)
        return TPolynomial._trusted(self.ring, _mul_terms(self.terms, {(t_exp, v): coeff}))

    def divide_content(self, g: int):
        if g in (0, 1):
            return self
        out = {}
        for k, c in self.terms.items():
            if c % g:
                raise ArithmeticError(f"content {g} does not divide coefficient {c}")
            out[k] = c // g
        return TPolynomial._trusted(self.ring, out)

    def __repr__(self):
        return f"TPolynomial({format_tpolynomial(self)})"

    def __str__(self):
        return format_tpolynomial(self)


def exact_div(a: TPolynomial, b: TPolynomial) -> TPolynomial:
    """Divide a by b in Z[V][t, t^-1], where the division is known exact.

    Lead-term division in the lexicographic order.  When b | a exactly the
    loop runs once per quotient term; the quotient's exponent spans are
    bounded by span(a) - span(b) in every variable, which gives a hard
    iteration cap.  Exceeding the cap, or hitting a coefficient that the
    lead coefficient of b fails to divide, raises ArithmeticError: the
    division was not exact.
    """
    _check_same_ring(a, b)
    if not b:
        raise PreconditionError("division by the zero polynomial")
    if not a:
        return TPolynomial.zero(a.ring)

    nvars = a.ring.num_group_vars + 1

    def spans(p):
        keys = [(k[0], *k[1]) for k in p.terms]
        return [
            max(k[i] for k in keys) - min(k[i] for k in keys) for i in range(nvars)
        ]

    cap = 1
    for sa, sb in zip(spans(a), spans(b)):
        if sa < sb:
            raise ArithmeticError("inexact polynomial division (span mismatch)")
        cap *= sa - sb + 1

    lead_b = b.lex_max_key()
    cb = b.terms[lead_b]
    rem = dict(a.terms)
    quo = {}
    steps = 0
    while rem:
        steps += 1
        if steps > cap:
            raise ArithmeticError("inexact polynomial division (no termination)")
        lead_r = max(rem)
        cr = rem[lead_r]
        if cr % cb:
            raise ArithmeticError("inexact polynomial division (leading coefficient)")
        qc = cr // cb
        qk = (lead_r[0] - lead_b[0], tuple(x - y for x, y in zip(lead_r[1], lead_b[1])))
        quo[qk] = qc
        for (tb, vb), cc in b.terms.items():
            k = (qk[0] + tb, tuple(x + y for x, y in zip(qk[1], vb)))
            s = rem.get(k, 0) - qc * cc
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return TPolynomial._trusted(a.ring, quo)


class NovikovTruncation:
    """A t-series over Z[V] (or Q[V]) known exactly for t-degrees <= order.

    The terms form one dict keyed like a TPolynomial's.  min_t declares that
    no term below it exists at all; degrees in (order, infinity) are unknown
    rather than zero.  Two truncations compare equal when they agree on every
    degree up to the smaller order.  Coefficient queries above the order
    raise, queries below min_t return zero.
    """

    __slots__ = ("ring", "order", "terms", "min_t")

    def __init__(self, ring: RingSpec, order: int, terms=None, min_t: int = 0):
        clean = _checked_terms(ring, terms)
        for t_exp, _ in clean:
            if t_exp > order or t_exp < min_t:
                raise PreconditionError(
                    f"term at t-degree {t_exp} outside declared window [{min_t}, {order}]"
                )
        self.ring = ring
        self.order = order
        self.terms = clean
        self.min_t = min_t

    @classmethod
    def _trusted(cls, ring, order, terms, min_t):
        """Wrap a fresh kernel result whose terms all lie in the window.

        Zero coefficients are already gone; integral Fractions left by
        rational scaling are stored as int here, in place.
        """
        for k, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[k] = c.numerator
        x = object.__new__(cls)
        x.ring = ring
        x.order = order
        x.terms = terms
        x.min_t = min_t
        return x

    @classmethod
    def from_tpolynomial(cls, p: TPolynomial, order: int):
        terms = {k: c for k, c in p.terms.items() if k[0] <= order}
        min_t = p.min_t_degree() if p else 0
        return cls._trusted(p.ring, order, terms, min(min_t, order))

    @classmethod
    def one(cls, ring, order):
        # a negative order knows no degree at all, the constant included
        return cls._trusted(ring, order, {(0, ring.zero_v()): 1} if order >= 0 else {}, 0)

    @classmethod
    def zero(cls, ring, order, min_t=0):
        return cls._trusted(ring, order, {}, min_t)

    def coefficient(self, t_exp, v=None):
        if t_exp > self.order:
            raise PreconditionError(
                f"coefficient at t^{t_exp} is beyond the truncation order {self.order}"
            )
        v = self.ring.zero_v() if v is None else tuple(v)
        return self.terms.get((t_exp, v), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NovikovTruncation):
            return NotImplemented
        _check_same_ring(self, other)
        k = min(self.order, other.order)
        return self.truncate(k).terms == other.truncate(k).terms

    __hash__ = None

    def __neg__(self):
        return self.scale(-1)

    def _coerce(self, other):
        if isinstance(other, NovikovTruncation):
            _check_same_ring(self, other)
            return other
        if isinstance(other, TPolynomial):
            # exact polynomial: known at every degree, so only our order limits
            _check_same_ring(self, other)
            return NovikovTruncation.from_tpolynomial(other, self.order)
        if isinstance(other, (int, Fraction)):
            if not other:
                return NovikovTruncation.zero(self.ring, self.order, self.min_t)
            # an exact scalar is known to every order; clamp to ours
            terms = {(0, self.ring.zero_v()): other} if self.order >= 0 else {}
            return NovikovTruncation._trusted(
                self.ring, self.order, terms, min(0, self.min_t)
            )
        return None

    def _plus(self, other, scale):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        terms = _add_terms(self.truncate(order).terms, other.truncate(order).terms, scale)
        return NovikovTruncation._trusted(
            self.ring, order, terms, min(self.min_t, other.min_t)
        )

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, TPolynomial):
            # exact factor: reliability limited only through our own error term
            _check_same_ring(self, other)
            p_min = other.min_t_degree()
            order = self.order + p_min
            min_t = self.min_t + p_min
        elif isinstance(other, NovikovTruncation):
            _check_same_ring(self, other)
            order = min(self.order + other.min_t, other.order + self.min_t)
            min_t = self.min_t + other.min_t
        else:
            return NotImplemented
        terms = _mul_terms(self.terms, other.terms, order)
        return NovikovTruncation._trusted(self.ring, order, terms, min_t)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, TPolynomial)):
            return self * other
        return NotImplemented

    def scale(self, c):
        c = _coeff_normal(c)
        if not c:
            return NovikovTruncation.zero(self.ring, self.order, self.min_t)
        return NovikovTruncation._trusted(
            self.ring, self.order, _add_terms({}, self.terms, c), self.min_t
        )

    def truncate(self, order):
        if order >= self.order:
            return self
        return NovikovTruncation._trusted(
            self.ring,
            order,
            {k: c for k, c in self.terms.items() if k[0] <= order},
            min(self.min_t, order),
        )

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def __repr__(self):
        body = "; ".join(format_truncation(self))
        return f"NovikovTruncation[{self.min_t}..{self.order}]({body})"


def _slice_recurrence(zero_v, order, a, step):
    """Z[V] (or Q[V]) slices z_0 .. z_order of a series, one per t-degree.

    z_0 = 1 and z_n = step(n, sum_{k=1..n} a_k * z_{n-k}), where a maps a
    positive t-degree k to the slice a_k = {v_exps: coeff} (missing
    slices and zero coefficients are zero) and step maps each nonzero
    coefficient of the summed slice.
    Each slice is built once from the earlier ones, so nothing is raised
    to a power and no degree above order is ever formed.
    """
    support = sorted(k for k, s in a.items() if s)
    z = [None] * (order + 1)
    if order >= 0:
        z[0] = {zero_v: 1}
    for n in range(1, order + 1):
        acc = {}
        for k in support:
            if k > n:
                break
            for va, ca in a[k].items():
                for vz, cz in z[n - k].items():
                    v = tuple(map(add, va, vz))
                    acc[v] = acc.get(v, 0) + ca * cz
        z[n] = {v: step(n, c) for v, c in acc.items() if c}
    return z


def _over(n, c):
    """c / n, kept an int when an int divides exactly."""
    if type(c) is int and not c % n:
        return c // n
    return Fraction(c, n)


def _exp_power_sums(ring, order, sums):
    """exp(sum_n p_n t^n / n) through t^order, from its power sums p_n.

    sums maps a t-degree n >= 1 to the slice p_n = {v_exps: coeff}.  The
    coefficients obey Newton's identity n*z_n = sum_{k=1..n} p_k z_{n-k};
    each quotient by n stays an int when it divides exactly and becomes a
    Fraction only where it does not.
    """
    z = _slice_recurrence(ring.zero_v(), order, sums, _over)
    terms = {(n, v): c for n, zn in enumerate(z) for v, c in zn.items()}
    return NovikovTruncation._trusted(ring, order, terms, 0)


def series_exp(x: NovikovTruncation) -> NovikovTruncation:
    """exp of a truncation supported in strictly positive t-degrees.

    With x = sum_n x_n t^n the power sums are p_n = n * x_n, and the
    result z obeys n*z_n = sum_{k=1..n} p_k z_{n-k}, one pass per
    t-degree through x.order.
    """
    if x.min_t < 0 or any(k[0] < 1 for k in x.terms):
        raise PreconditionError("series exponential needs strictly positive t-degrees")
    sums = {}
    for (n, v), c in x.terms.items():
        sums.setdefault(n, {})[v] = _coeff_normal(n * c)
    return _exp_power_sums(x.ring, x.order, sums)


def series_invert(p: TPolynomial, k: int) -> NovikovTruncation:
    """Invert p in Z[V]((t)) to absolute t-order k - min_t(p).

    The lowest t-slice of p must be a single monomial with coefficient +-1;
    that is exactly invertibility in the series ring, since the units of
    Z[V] are the signed monomials.  Writing p = u * (1 + r) with u the unit
    and r = sum_j r_j t^j of positive t-degree, the inverse of 1 + r has
    slices s_0 = 1 and s_n = -sum_{j=1..n} r_j s_{n-j}, and the result is
    u^-1 times that.  It satisfies p * s = 1 + O(t^(k+1)).
    """
    if not p:
        raise PreconditionError("zero is not invertible")
    m = p.min_t_degree()
    low = [(v, c) for (te, v), c in p.terms.items() if te == m]
    if len(low) != 1 or low[0][1] not in (1, -1):
        raise PreconditionError(
            "lowest t-coefficient is not a unit monomial; element not invertible"
        )
    (v_exps, sign), = low
    # the slices of r = u^-1 * p - 1, through t-degree k
    v_inv = tuple(-x for x in v_exps)
    r = {}
    for (te, v), c in p.terms.items():
        if 0 < te - m <= k:
            r.setdefault(te - m, {})[tuple(map(add, v, v_inv))] = sign * c
    s = _slice_recurrence(p.ring.zero_v(), k, r, lambda n, c: -c)
    terms = {
        (n - m, tuple(map(add, v, v_inv))): sign * c
        for n, sn in enumerate(s)
        for v, c in sn.items()
    }
    return NovikovTruncation._trusted(p.ring, k - m, terms, -m)


class RationalFunction:
    """Exact quotient of TPolynomials, the working field for torsion.

    The stored pair is normalised in a value-preserving way only: the
    common integer content is divided out, both parts are scaled so the
    denominator's lexicographically least monomial sits at the origin, and
    the sign is arranged so that the denominator's least coefficient is
    positive.  No multivariate gcd reduction is attempted; equality is by
    cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: TPolynomial, den=None):
        if den is None:
            den = TPolynomial.one(num.ring)
        _check_same_ring(num, den)
        if not den:
            raise PreconditionError("zero denominator")
        if not num:
            num = TPolynomial.zero(num.ring)
            den = TPolynomial.one(num.ring)
        else:
            g = gcd(num.content(), den.content())
            if g > 1:
                num = num.divide_content(g)
                den = den.divide_content(g)
            lt, lv = den.lex_min_key()
            if lt or any(lv):
                inv = tuple(-x for x in lv)
                num = num.times_monomial(-lt, inv)
                den = den.times_monomial(-lt, inv)
            if den.terms[den.lex_min_key()] < 0:
                num = -num
                den = -den
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    @classmethod
    def from_int(cls, ring, n):
        return cls(TPolynomial.monomial(ring, coeff=n))

    @classmethod
    def zero(cls, ring):
        return cls(TPolynomial.zero(ring))

    @classmethod
    def one(cls, ring):
        return cls(TPolynomial.one(ring))

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, int):
            return RationalFunction.from_int(self.ring, other)
        if isinstance(other, TPolynomial):
            _check_same_ring(self, other)
            return RationalFunction(other)
        if isinstance(other, RationalFunction):
            _check_same_ring(self, other)
            return other
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return frac_equal(self, other)

    __hash__ = None

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self):
        if not self.num:
            raise PreconditionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("rational function powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        out = RationalFunction.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __repr__(self):
        return f"RationalFunction({format_rational(self)})"

    def __str__(self):
        return format_rational(self)


def frac_equal(r1: RationalFunction, r2: RationalFunction) -> bool:
    """Exact equality of values: num1*den2 == num2*den1."""
    _check_same_ring(r1, r2)
    return r1.num * r2.den == r2.num * r1.den


def _strip_unit(p: TPolynomial) -> TPolynomial:
    """Divide by the lex-least monomial and fix the sign of its coefficient."""
    lt, lv = p.lex_min_key()
    out = p.times_monomial(-lt, tuple(-x for x in lv))
    if out.terms[(0, p.ring.zero_v())] < 0:
        out = -out
    return out


def canonical_mod_units(r: RationalFunction) -> RationalFunction:
    """Canonical representative of r modulo units +-t^a V^alpha.

    Numerator and denominator are each divided by their own lex-least
    monomial, then signs are fixed so both least coefficients are positive.
    Idempotent, and constant on unit orbits: canonical(u * r) == canonical(r)
    for every monomial unit u.
    """
    if not r.num:
        raise PreconditionError("canonical form of zero requested")
    return RationalFunction(_strip_unit(r.num), _strip_unit(r.den))


def unit_equivalent(r1: RationalFunction, r2: RationalFunction) -> bool:
    """True when r1 and r2 differ by a unit +-t^a V^alpha (or both vanish)."""
    _check_same_ring(r1, r2)
    p = r1.num * r2.den
    q = r2.num * r1.den
    if not p or not q:
        return (not p) and (not q)
    return _strip_unit(p) == _strip_unit(q)


def expand_series(r: RationalFunction, k: int) -> NovikovTruncation:
    """Truncated Laurent expansion of r, exact through t-degree k."""
    if not r.num:
        return NovikovTruncation.zero(r.ring, k)
    m_num = r.num.min_t_degree()
    m_den = r.den.min_t_degree()
    inv = series_invert(r.den, k + m_den - m_num)
    return (inv * r.num).truncate(k)


# ---- deterministic ASCII formatting ----


def _format_exponent(name, e):
    return name if e == 1 else f"{name}^{e}"


def _format_body(ring: RingSpec, t_exp, v_exps):
    parts = []
    if t_exp:
        parts.append(_format_exponent(ring.t_name, t_exp))
    for name, e in zip(ring.var_names, v_exps):
        if e:
            parts.append(_format_exponent(name, e))
    return "*".join(parts)


def _format_terms(ring, items):
    """items: sorted (t_exp, v_exps, coeff) triples."""
    if not items:
        return "0"
    pieces = []
    for i, (te, ve, c) in enumerate(items):
        body = _format_body(ring, te, ve)
        mag = abs(c)
        if not body:
            txt = str(mag)
        elif mag == 1:
            txt = body
        else:
            txt = f"{mag}*{body}"
        if i == 0:
            pieces.append(f"-{txt}" if c < 0 else txt)
        else:
            pieces.append(f"- {txt}" if c < 0 else f"+ {txt}")
    return " ".join(pieces)


def format_tpolynomial(p: TPolynomial) -> str:
    items = [(te, ve, c) for (te, ve), c in sorted(p.terms.items())]
    return _format_terms(p.ring, items)


def format_rational(r: RationalFunction) -> str:
    num, den = r.num, r.den
    one = TPolynomial.one(r.ring)
    if den == one:
        return format_tpolynomial(num)
    if num == one:
        return f"({format_tpolynomial(den)})^-1"
    return f"({format_tpolynomial(num)}) / ({format_tpolynomial(den)})"


def format_by_degree(ring: RingSpec, terms) -> list:
    """One line 't^d: <Z[V] coefficient>' per t-degree present in a term
    dict, in increasing order; ["0"] when there are no terms."""
    lines = [
        f"t^{d}: {_format_terms(ring, [(0, v, c) for (_, v), c in group])}"
        for d, group in groupby(sorted(terms.items()), key=lambda item: item[0][0])
    ]
    return lines or ["0"]


def format_truncation(x: NovikovTruncation) -> list:
    """One line per nonzero known t-degree, in increasing order."""
    return format_by_degree(x.ring, x.terms)
