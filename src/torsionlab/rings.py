"""Exact arithmetic in Z[V][t, t^-1], its Novikov completion, and its
fraction field.

The base coefficient ring is the group ring Z[V] of a free abelian group with
b named generators, realised as multivariate integer Laurent polynomials.
Every element of Z[V][t, t^-1] and of its Novikov completion is stored the
same way: a term dict {key: coeff} from packed monomial keys to nonzero
coefficients.  One addition kernel and one multiplication kernel do all the
arithmetic on term dicts.  On top of them sit two types:

* TPolynomial, a Laurent series in the distinguished variable t with Z[V]
  coefficients, known through t-degree order.  order None means exact: a
  Laurent polynomial known at every degree, with integer coefficients, where
  all determinant and torsion work happens.  An integer order makes it a
  truncation, the computational face of the completed ring Z[V]((t)): its
  window [min_t, order] declares that no term lies below min_t and that
  degrees above order are unknown, and its coefficients may pass through Q
  while the exponential of a formal sum is taken.
* RationalFunction, an exact quotient of two exact TPolynomials compared by
  cross-multiplication, never by representative.

Public constructors check what they are given (exponent arity and range,
coefficient type, the truncation window).  Arithmetic results skip those
checks: the kernels only ever produce well-formed keys, and a private
constructor keeps the remaining invariants (no zero coefficient, a
truncation's integral Fractions stored as int).

Monomial keys and order: a monomial t^a V^v is stored as one int, its
packed key (RingSpec.pack), with the t-exponent as the most significant
digit and each V-exponent a balanced digit below it.  Plain int order of
keys is the monomial order everywhere, lexicographic with the t-exponent
most significant and then the V-exponents in declaration order, and the
key of a product of monomials is the sum of their keys.  Keys are unpacked
to (t_exp, v_exps) only at the public surface: the terms view, coefficient
queries, unit_parts and formatting.

All values are treated as immutable after construction; every operation
returns a fresh object or one of its operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import PreconditionError

# Highest truncation order accepted from a command line or a fixture.  The
# series recurrences hold one slice per t-degree and sum over all earlier
# ones, so their memory grows with the order and their time with its square.
MAX_ORDER = 1024

# Series order used when neither the command line nor a fixture gives one.
DEFAULT_ORDER = 16

# Width of one V-exponent digit of a packed key: every group exponent e
# satisfies |e| < 2**(SLOT_BITS - 1).
SLOT_BITS = 32
_HALF = 1 << (SLOT_BITS - 1)
_MASK = (1 << SLOT_BITS) - 1


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
        b = len(names)
        # key layout: the shift of the t digit, the shift of each V digit,
        # and the bias that makes every V digit of key + bias nonnegative
        object.__setattr__(self, "_t_shift", SLOT_BITS * b)
        object.__setattr__(self, "_shifts", tuple(SLOT_BITS * i for i in reversed(range(b))))
        object.__setattr__(self, "_bias", sum(_HALF << s for s in self._shifts))

    @property
    def num_group_vars(self) -> int:
        return len(self.var_names)

    def zero_v(self) -> tuple:
        return (0,) * len(self.var_names)

    def pack(self, t_exp=0, v_exps=None) -> int:
        """The key of the monomial t^t_exp * V^v_exps (v_exps None: V^0).

        With W = 2**SLOT_BITS the key is t_exp * W^b + sum_i v_i * W^(b-i),
        each v_i a balanced digit, |v_i| < W/2, so int order of keys is the
        lexicographic monomial order and multiplying monomials adds keys.
        The t-exponent is the top digit and is unbounded; a V-exponent that
        cannot fit its slot raises PreconditionError instead of carrying
        into its neighbour.

        Kernel outputs stay in range without packing again: sums and scalar
        multiples keep their keys; _mul_terms (and the series recurrences)
        check before adding keys that, in every V digit, the least and the
        greatest exponents of the two factors sum to inside the slot, and
        exact_div checks the same of quotient and divisor, so a product key
        is formed only when no digit can carry.  Each value caches its
        exponent ranges, so the check costs a few comparisons per product.
        """
        if v_exps is None:
            return t_exp << self._t_shift
        v_exps = tuple(v_exps)
        if len(v_exps) != len(self.var_names):
            raise PreconditionError(
                f"exponent vector {v_exps} has length {len(v_exps)}, "
                f"ring has {len(self.var_names)} variables"
            )
        key = t_exp
        for e in v_exps:
            if not -_HALF < e < _HALF:
                raise PreconditionError(
                    f"group exponent {e} is outside the packed range |e| < 2^{SLOT_BITS - 1}"
                )
            key = (key << SLOT_BITS) + e
        return key

    def unpack(self, key: int):
        """(t_exp, v_exps) of a packed key; the inverse of pack."""
        u = key + self._bias
        return u >> self._t_shift, tuple(((u >> s) & _MASK) - _HALF for s in self._shifts)

    def _split(self, key):
        """(t_exp, packed V-part) of a key: key == pack(t_exp) + V-part."""
        t_exp = (key + self._bias) >> self._t_shift
        return t_exp, key - (t_exp << self._t_shift)

    def _top_key(self, t_exp):
        """The greatest key of t-degree at most t_exp."""
        return ((t_exp + 1) << self._t_shift) - self._bias - 1


def _coeff_normal(c):
    """Collapse integral Fractions to int; reject anything non-rational."""
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _check_same_ring(a, b):
    if a.ring is not b.ring and a.ring != b.ring:
        raise PreconditionError("mismatched ring specs")


def _checked_terms(ring, terms):
    """A caller's {(t_exp, v_exps): coeff} dict as packed keys, with arity,
    exponent range and coefficient types checked and zeros dropped."""
    clean = {}
    for (t_exp, v), c in (terms or {}).items():
        key = ring.pack(t_exp, v)
        c = _coeff_normal(c)
        if c:
            clean[key] = c
    return clean


def _v_ranges(ring, keys):
    """(least, greatest) exponent of each group variable over nonempty keys."""
    bias = ring._bias
    out = []
    for s in ring._shifts:
        digits = [((k + bias) >> s) & _MASK for k in keys]
        out.append((min(digits) - _HALF, max(digits) - _HALF))
    return out


def _ranges(x):
    """_v_ranges of a nonzero value's terms, computed once per value."""
    r = x._ranges
    if r is None:
        r = x._ranges = _v_ranges(x.ring, x._terms)
    return r


def _fits(ra, rb):
    """Whether the products of two term sets with these exponent ranges
    keep every group exponent inside its slot."""
    return all(-_HALF < la + lb and ha + hb < _HALF for (la, ha), (lb, hb) in zip(ra, rb))


def _range_error():
    return PreconditionError(
        f"a group exponent of the product leaves the packed range |e| < 2^{SLOT_BITS - 1}"
    )


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


def _mul_terms(x, y, cap=None):
    """Term dict of x * y, two values of one ring, leaving out every t-degree
    above cap.  A group exponent that would leave its slot raises before any
    key is added."""
    a, b = x._terms, y._terms
    if not a or not b:
        return {}
    ring = x.ring
    if ring._shifts and not _fits(_ranges(x), _ranges(y)):
        raise _range_error()
    top = max(a) + max(b) if cap is None else ring._top_key(cap)
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            if k > top:
                continue
            s = get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


class TPolynomial:
    """Laurent series in t over Z[V], known through t-degree order.

    The stored term dict maps packed monomial keys to nonzero coefficients;
    terms is its {(t_exp, v_exps): coeff} view.  order None makes the value
    exact, a Laurent polynomial with integer coefficients: rational ones are
    deliberately rejected, so every determinant and torsion computation
    stays in the integral ring, with quotients handled by RationalFunction.
    An integer order makes it a truncation: min_t declares that no term
    below it exists at all, degrees above order are unknown rather than
    zero, and coefficients may be Fractions.  Two values compare equal when
    they agree on every degree up to the smaller order; coefficient queries
    above the order raise.
    """

    # _ranges caches the exponent ranges the multiplication kernel checks;
    # min_t is read only when order is not None
    __slots__ = ("ring", "_terms", "_ranges", "order", "min_t")

    def __init__(self, ring: RingSpec, terms=None, order=None, min_t=0):
        clean = _checked_terms(ring, terms)
        if order is None:
            if any(isinstance(c, Fraction) for c in clean.values()):
                raise TypeError("TPolynomial coefficients must be integers")
            if min_t:
                raise PreconditionError("an exact polynomial declares no least degree")
        else:
            for k in clean:
                t_exp = ring._split(k)[0]
                if t_exp > order or t_exp < min_t:
                    raise PreconditionError(
                        f"term at t-degree {t_exp} outside declared window [{min_t}, {order}]"
                    )
        self.ring = ring
        self._terms = clean
        self._ranges = None
        self.order = order
        self.min_t = min_t

    @classmethod
    def _trusted(cls, ring, terms, order=None, min_t=0):
        """Wrap a fresh kernel result: zero-free, keys already packed, every
        term inside the window.  An exact value's coefficients are ints
        already; a truncation's integral Fractions, left by rational
        scaling, are stored as int here, in place."""
        if order is not None:
            for k, c in terms.items():
                if type(c) is Fraction and c.denominator == 1:
                    terms[k] = c.numerator
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        p._ranges = None
        p.order = order
        p.min_t = min_t
        return p

    @classmethod
    def zero(cls, ring, order=None, min_t=0):
        return cls._trusted(ring, {}, order, min_t)

    @classmethod
    def one(cls, ring, order=None):
        # a negative order knows no degree at all, the constant included
        return cls._trusted(ring, {0: 1} if order is None or order >= 0 else {}, order)

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

    @property
    def terms(self):
        """The terms as a fresh {(t_exp, v_exps): coeff} dict."""
        unpack = self.ring.unpack
        return {unpack(k): c for k, c in self._terms.items()}

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def min_t_degree(self) -> int:
        """Lowest t-exponent present; 0 when there are no terms."""
        if not self._terms:
            return 0
        return self.ring._split(min(self._terms))[0]

    def _window(self):
        """(least t-degree, order) of what is known: a truncation's declared
        window, or an exact value's lowest t-degree (0 for zero) and order
        None, which stands for infinity."""
        if self.order is None:
            return self.min_t_degree(), None
        return self.min_t, self.order

    def is_t_free(self) -> bool:
        top = self.ring._top_key(0)
        return all(-top <= k <= top for k in self._terms)

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self._terms.values())

    def unit_parts(self):
        """Return (coeff, t_exp, v_exps) when self is a single +-1 monomial, else None."""
        if len(self._terms) != 1:
            return None
        (k, c), = self._terms.items()
        if c == 1 or c == -1:
            return (c, *self.ring.unpack(k))
        return None

    def content(self) -> int:
        g = 0
        for c in self._terms.values():
            g = gcd(g, abs(c))
        return g

    def coefficient(self, t_exp, v=None):
        if self.order is not None and t_exp > self.order:
            raise PreconditionError(
                f"coefficient at t^{t_exp} is beyond the truncation order {self.order}"
            )
        return self._terms.get(self.ring.pack(t_exp, v), 0)

    # ---- arithmetic ----

    def _scalar(self, c):
        """Whether c multiplies self termwise: an int, or beside a truncation
        also a Fraction (an exact value keeps integer coefficients)."""
        return isinstance(c, int) or self.order is not None and isinstance(c, Fraction)

    def _coerce(self, other):
        """other as a value of self's ring, a scalar as a constant known
        through self's order, as one(ring, order) * other is; None when it is
        neither."""
        if isinstance(other, TPolynomial):
            _check_same_ring(self, other)
            return other
        if self._scalar(other):
            order = self.order
            known = other and (order is None or order >= 0)
            return TPolynomial._trusted(self.ring, {0: other} if known else {}, order)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order is None and other.order is None:
            return self._terms == other._terms
        order = min(o for o in (self.order, other.order) if o is not None)
        return self.truncate(order)._terms == other.truncate(order)._terms

    __hash__ = None

    def __neg__(self):
        return self * -1

    def _plus(self, other, scale):
        # x + 0 is x, its window included
        if self._scalar(other) and not other:
            return self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order is None and other.order is None:
            return TPolynomial._trusted(self.ring, _add_terms(self._terms, other._terms, scale))
        order = min(o for o in (self.order, other.order) if o is not None)
        # an exact operand is read through the order; a truncation keeps its
        # declared least degree
        a, b = (x.truncate(order) if x.order is None else x for x in (self, other))
        terms = _add_terms(a.truncate(order)._terms, b.truncate(order)._terms, scale)
        return TPolynomial._trusted(self.ring, terms, order, min(a.min_t, b.min_t))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._scalar(other):
            terms = _add_terms({}, self._terms, other) if other else {}
            return TPolynomial._trusted(self.ring, terms, self.order, self.min_t)
        if not isinstance(other, TPolynomial):
            return NotImplemented
        _check_same_ring(self, other)
        if self.order is None and other.order is None:
            return TPolynomial._trusted(self.ring, _mul_terms(self, other))
        # each factor's error term starts at its order, times the other's
        # least degree
        (la, oa), (lb, ob) = self._window(), other._window()
        order = min(o + low for o, low in ((oa, lb), (ob, la)) if o is not None)
        return TPolynomial._trusted(self.ring, _mul_terms(self, other, order), order, la + lb)

    __rmul__ = __mul__

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

    def truncate(self, order):
        """self known through t-degree order (no further than it already is)."""
        low, known = self._window()
        if known is not None and order >= known:
            return self
        top = self.ring._top_key(order)
        terms = {k: c for k, c in self._terms.items() if k <= top}
        return TPolynomial._trusted(self.ring, terms, order, min(low, order))

    def divide_content(self, g: int):
        if g in (0, 1):
            return self
        out = {}
        for k, c in self._terms.items():
            if c % g:
                raise ArithmeticError(f"content {g} does not divide coefficient {c}")
            out[k] = c // g
        return TPolynomial._trusted(self.ring, out)

    def __repr__(self):
        if self.order is None:
            return f"TPolynomial({format_tpolynomial(self)})"
        body = "; ".join(format_truncation(self))
        return f"TPolynomial[{self.min_t}..{self.order}]({body})"

    def __str__(self):
        return format_tpolynomial(self) if self.order is None else repr(self)


def _exact(x):
    """Whether x is an exact polynomial: a TPolynomial with no order."""
    return isinstance(x, TPolynomial) and x.order is None


def _monomial_unit(u, message, ring=None, signs=(1,)):
    """(coeff, t_exp, v_exps) of u when it is an exact monomial of ring (by
    default u's own) with a coefficient in signs, else PreconditionError: a
    +1 monomial by default, as lift and torsor offsets and classes are."""
    parts = None
    if _exact(u) and (ring is None or u.ring is ring or u.ring == ring):
        parts = u.unit_parts()
    if parts is None or parts[0] not in signs:
        raise PreconditionError(message)
    return parts


def _from_t_coefficients(ring, coeffs):
    """sum_k coeffs[k] t^k for int or t-free polynomial coefficients: the
    key of t^k shifts each one onto its own t-degree, so none collide."""
    terms = {}
    step = ring.pack(1)
    for k, c in enumerate(coeffs):
        if isinstance(c, TPolynomial):
            shift = k * step
            for key, a in c._terms.items():
                terms[key + shift] = a
        elif c:
            terms[k * step] = c
    return TPolynomial._trusted(ring, terms)


def _unit_inverse(u):
    """u^-1 for a +-1 monomial u: the same sign on the negated key.  Packing
    is linear with balanced digits, so the negated key stays in range."""
    (key, sign), = u._terms.items()
    return TPolynomial._trusted(u.ring, {-key: sign})


def _times_key(p, key, coeff=1):
    """p times the monomial coeff * t^a V^v packed as key."""
    return TPolynomial._trusted(p.ring, _mul_terms(p, TPolynomial._trusted(p.ring, {key: coeff})))


def _spans(p):
    """Exponent span of a nonzero polynomial in t, then in each group variable."""
    split = p.ring._split
    t_span = split(max(p._terms))[0] - split(min(p._terms))[0]
    return [t_span] + [hi - lo for lo, hi in _ranges(p)]


def exact_div(a: TPolynomial, b: TPolynomial) -> TPolynomial:
    """Divide a by b in Z[V][t, t^-1], where the division is known exact.

    Lead-term division in the monomial order, with the remainder's keys in
    a max-heap (Johnson 1974; Monagan-Pearce 2011): each step pops the
    greatest remainder key, divides its coefficient by b's lead coefficient
    and subtracts that quotient term times b, whose non-lead keys were
    shifted by -lead(b) once so that every update key is the popped key
    plus a fixed offset.  Keys whose coefficient cancels stay in the heap
    and are skipped when popped.  When b | a exactly the loop runs once per
    quotient term, and the quotient's exponent spans are bounded by
    span(a) - span(b) in every variable, which gives a hard iteration cap;
    it is computed only once the quotient has len(a) * len(b) terms.
    Exceeding the cap, a quotient key below min(a) - min(b) (the least key
    of an exact quotient), hitting a coefficient that the lead coefficient
    of b fails to divide, or a quotient whose product with b would leave
    the packed exponent range, raises ArithmeticError: the division was
    not exact.

    The divisor 1 returns a itself; every other divisor runs the heap.
    """
    _check_same_ring(a, b)
    if not b:
        raise PreconditionError("division by the zero polynomial")
    if not a:
        return TPolynomial.zero(a.ring)
    ring = a.ring
    A, B = a._terms, b._terms

    if len(B) == 1 and B.get(0) == 1:
        return a

    lead = max(B)
    cb = B[lead]
    tail = [(k - lead, c) for k, c in B.items() if k != lead]
    # an exact quotient's least key is min(A) - min(B), so no remainder key
    # below floor can lead a step
    floor = min(A) - min(B) + lead
    rem = dict(A)
    get = rem.get
    heap = [-k for k in rem]
    heapify(heap)
    quo = {}
    limit = len(A) * len(B)  # the cap takes a pass over a and b: wait for it
    while heap:
        k = -heappop(heap)
        cr = rem.pop(k, 0)
        if not cr:
            continue
        if len(quo) >= limit:
            cap = 1
            for sa, sb in zip(_spans(a), _spans(b)):
                if sa < sb:
                    raise ArithmeticError("inexact polynomial division (span mismatch)")
                cap *= sa - sb + 1
            limit = max(limit, cap)
            if len(quo) >= limit:
                raise ArithmeticError("inexact polynomial division (no termination)")
        if k < floor:
            raise ArithmeticError("inexact polynomial division (remainder below the quotient)")
        qc, r = divmod(cr, cb)
        if r:
            raise ArithmeticError("inexact polynomial division (leading coefficient)")
        quo[k - lead] = qc
        for d, c in tail:
            kd = k + d
            m = qc * c
            s = get(kd)
            if s is None:
                rem[kd] = -m
                heappush(heap, -kd)
            elif s == m:
                del rem[kd]
            else:
                rem[kd] = s - m
    q = TPolynomial._trusted(ring, quo)
    if ring._shifts:
        # the heap divided the keys as integers; that is the division of
        # monomials only when q * b keeps every exponent in its slot
        if not _fits(_ranges(q), _ranges(b)):
            raise ArithmeticError("inexact polynomial division (exponent range)")
        if any(lo == -_HALF for lo, _ in _ranges(q)):
            raise _range_error()
    return q


def _slice_recurrence(ring, order, a, step):
    """Z[V] (or Q[V]) slices z_0 .. z_order of a series, one per t-degree.

    z_0 = 1 and z_n = step(n, sum_{k=1..n} a_k * z_{n-k}), where a maps a
    positive t-degree k to the slice a_k = {packed V-part: coeff} (missing
    slices and zero coefficients are zero) and step maps each nonzero
    coefficient of the summed slice.
    Each slice is built once from the earlier ones, so nothing is raised
    to a power and no degree above order is ever formed.  With b = 0 every
    slice is the single key 0, and the same step runs on plain numbers.
    """
    if not ring._shifts:
        coeffs = sorted((k, s[0]) for k, s in a.items() if s.get(0))
        z = [0] * (order + 1)
        if order >= 0:
            z[0] = 1
        for n in range(1, order + 1):
            acc = 0
            for k, c in coeffs:
                if k > n:
                    break
                acc += c * z[n - k]
            z[n] = step(n, acc) if acc else 0
        return [{0: c} if c else {} for c in z]
    support = sorted(k for k, s in a.items() if s)
    z = [None] * (order + 1)
    if order >= 0:
        z[0] = {0: 1}
    for n in range(1, order + 1):
        acc = {}
        for k in support:
            if k > n:
                break
            ak, zk = a[k], z[n - k]
            if zk and not _fits(_v_ranges(ring, ak), _v_ranges(ring, zk)):
                raise _range_error()
            for va, ca in ak.items():
                for vz, cz in zk.items():
                    v = va + vz
                    acc[v] = acc.get(v, 0) + ca * cz
        z[n] = {v: step(n, c) for v, c in acc.items() if c}
    return z


def _join_slices(ring, z):
    """The term dict whose t-degree n slice is z[n]."""
    terms = {}
    for n, zn in enumerate(z):
        base = ring.pack(n)
        for v, c in zn.items():
            terms[base + v] = c
    return terms


def _over(n, c):
    """c / n, kept an int when an int divides exactly."""
    if type(c) is int and not c % n:
        return c // n
    return Fraction(c, n)


def _exp_power_sums(ring, order, sums):
    """exp(sum_n p_n t^n / n) through t^order, from its power sums p_n.

    sums maps a t-degree n >= 1 to the slice p_n = {packed V-part: coeff}
    (the key of V^v is ring.pack(0, v)).  The coefficients obey Newton's
    identity n*z_n = sum_{k=1..n} p_k z_{n-k}; each quotient by n stays an
    int when it divides exactly and becomes a Fraction only where it does
    not.
    """
    z = _slice_recurrence(ring, order, sums, _over)
    return TPolynomial._trusted(ring, _join_slices(ring, z), order, 0)


def series_invert(p: TPolynomial, k: int) -> TPolynomial:
    """Invert the exact polynomial p in Z[V]((t)) to absolute t-order
    k - min_t(p).

    The lowest t-slice of p must be a single monomial with coefficient +-1;
    that is exactly invertibility in the series ring, since the units of
    Z[V] are the signed monomials.  Writing p = u * (1 + r) with u the unit
    and r = sum_j r_j t^j of positive t-degree, the inverse of 1 + r has
    slices s_0 = 1 and s_n = -sum_{j=1..n} r_j s_{n-j}, and the result is
    u^-1 times that.  It satisfies p * s = 1 + O(t^(k+1)).
    """
    if not _exact(p):
        raise PreconditionError("series_invert needs an exact polynomial")
    if not p:
        raise PreconditionError("zero is not invertible")
    ring = p.ring
    low = min(p._terms)
    sign = p._terms[low]
    m = ring._split(low)[0]
    top = ring._top_key(m)
    if sign not in (1, -1) or any(low < key <= top for key in p._terms):
        raise PreconditionError(
            "lowest t-coefficient is not a unit monomial; element not invertible"
        )
    # u^-1 = sign * t^-m V^-v for the lowest monomial u = sign * t^m V^v
    u_inv = TPolynomial._trusted(ring, {-low: sign})
    # the slices of r = u^-1 * p - 1, through t-degree k
    r = {}
    for key, c in _mul_terms(p, u_inv, k).items():
        n, v = ring._split(key)
        if n:
            r.setdefault(n, {})[v] = c
    s = _slice_recurrence(ring, k, r, lambda n, c: -c)
    return TPolynomial._trusted(ring, _join_slices(ring, s), k, 0) * u_inv


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
        if not _exact(num) or den is not None and not _exact(den):
            raise PreconditionError("a rational function is a quotient of exact polynomials")
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
            low = min(den._terms)
            if low:
                num = _times_key(num, -low)
                den = _times_key(den, -low)
            if den._terms[0] < 0:
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
        if _exact(other):
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
    low = min(p._terms)
    return _times_key(p, -low, 1 if p._terms[low] > 0 else -1)


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


def expand_series(r: RationalFunction, k: int) -> TPolynomial:
    """Truncated Laurent expansion of r, exact through t-degree k."""
    if not r.num:
        return TPolynomial.zero(r.ring, k)
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
    unpack = p.ring.unpack
    items = [(*unpack(k), c) for k, c in sorted(p._terms.items())]
    return _format_terms(p.ring, items)


def format_rational(r: RationalFunction) -> str:
    num, den = r.num, r.den
    one = TPolynomial.one(r.ring)
    if den == one:
        return format_tpolynomial(num)
    if num == one:
        return f"({format_tpolynomial(den)})^-1"
    return f"({format_tpolynomial(num)}) / ({format_tpolynomial(den)})"


def format_truncation(x: TPolynomial) -> list:
    """One line 't^d: <Z[V] coefficient>' per nonzero known t-degree, in
    increasing order; ["0"] when there are no terms."""
    ring = x.ring
    slices = {}
    for k, c in sorted(x._terms.items()):
        d, v = ring.unpack(k)
        slices.setdefault(d, []).append((0, v, c))
    return [f"t^{d}: {_format_terms(ring, items)}" for d, items in slices.items()] or ["0"]
