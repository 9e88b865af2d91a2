"""Reference arithmetic and output parsers that never import torsionlab.

A polynomial here is a dict {(t_exp, v_1, ..., v_b): coeff} with no zero
coefficients.  Matrices are lists of rows.  The parsers read the CLI's
ASCII output back into values, so every check compares values, not text:
a change of representative (say, a reduced form) does not fail a check,
a wrong value does.
"""

import re
from fractions import Fraction


# ---- polynomials over Z[V][t, t^-1] (or Q[V]) ----


def padd(a, b, scale=1):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + scale * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pmul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def pconst(c, nvars):
    return {(0,) * (nvars + 1): c} if c else {}


def strip_unit(p):
    """p divided by its lex-least monomial, sign fixed: a key mod +-t^a V^alpha."""
    low = min(p)
    shifted = {tuple(x - y for x, y in zip(k, low)): c for k, c in p.items()}
    sign = 1 if p[low] > 0 else -1
    return {k: sign * c for k, c in shifted.items()}


def unit_equal(num1, den1, num2, den2):
    """num1/den1 == +-t^a V^alpha * num2/den2."""
    p, q = pmul(num1, den2), pmul(num2, den1)
    if not p or not q:
        return not p and not q
    return strip_unit(p) == strip_unit(q)


# ---- integer matrices ----


def int_mat_mul(A, B):
    cols = len(B[0]) if B else 0
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(cols)] for row in A]


def int_det(A):
    """Exact determinant by Gaussian elimination over the rationals."""
    n = len(A)
    W = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if W[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            W[k], W[pivot] = W[pivot], W[k]
            det = -det
        det *= W[k][k]
        for i in range(k + 1, n):
            f = W[i][k] / W[k][k]
            if f:
                W[i] = [x - f * y for x, y in zip(W[i], W[k])]
    return int(det)


def lefschetz_numbers(maps, order):
    """L_m = sum_i (-1)^i trace(phi_i^m) for m = 1..order."""
    out = [0] * (order + 1)
    powers = [[list(row) for row in A] for A in maps]
    for m in range(1, order + 1):
        out[m] = sum(
            (-1) ** i * sum(P[k][k] for k in range(len(P))) for i, P in enumerate(powers)
        )
        powers = [int_mat_mul(P, A) if A else [] for P, A in zip(powers, maps)]
    return out


def newton_exp(power_sums, order, nvars):
    """Coefficients z_n of exp(sum_m p_m t^m / m) by n z_n = sum_k p_k z_{n-k}.

    power_sums[m] is a polynomial in the group variables (keys (0, *v)).
    Returns {n: slice} through t^order.
    """
    z = [pconst(1, nvars)]
    for n in range(1, order + 1):
        acc = {}
        for k in range(1, n + 1):
            if power_sums[k] and z[n - k]:
                acc = padd(acc, pmul(power_sums[k], z[n - k]))
        z.append({key: Fraction(c, n) for key, c in acc.items()})
    return {n: {k: _plain(c) for k, c in s.items()} for n, s in enumerate(z) if s}


def _plain(c):
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def orbit_power_sums(orbits, order, nvars):
    """p_m for the orbit exponential: sum over orbits and powers q with q*d = m."""
    sums = [{} for _ in range(order + 1)]
    for orbit in orbits:
        d, v, A = orbit["t"], orbit["v"], orbit["map"]
        P = A
        for q in range(1, order // d + 1):
            n = len(A)
            # the sign of det(1 - A^q), as torsionlab's orbit_sign defines it
            det = int_det([[int(i == j) - P[i][j] for j in range(n)] for i in range(n)])
            sign = 1 if det > 0 else -1
            key = (0,) + tuple(q * e for e in v)
            sums[q * d] = padd(sums[q * d], {key: sign * d})
            P = int_mat_mul(P, A)
    return sums


# ---- reading the CLI's ASCII back into values ----

_NUMBER = re.compile(r"^\d+(/\d+)?$")


def parse_poly(text, t_name, var_names):
    names = [t_name] + list(var_names)
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signs = ["+"] + pieces[1::2]
    out = {}
    for sign, body in zip(signs, pieces[0::2]):
        coeff = 1
        if body.startswith("-"):
            coeff, body = -1, body[1:]
        if sign == "-":
            coeff = -coeff
        exps = [0] * len(names)
        for i, factor in enumerate(body.split("*")):
            if i == 0 and _NUMBER.match(factor):
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exps[names.index(name)] += int(power) if power else 1
        key = tuple(exps)
        out[key] = _plain(out.get(key, 0) + coeff)
        if not out[key]:
            del out[key]
    return out


def parse_rational(text, t_name, var_names):
    """(num, den) from 'p', '(p)^-1' or '(p) / (q)'."""
    one = pconst(1, len(var_names))
    text = text.strip()
    if text.startswith("(") and text.endswith(")^-1"):
        return one, parse_poly(text[1:-4], t_name, var_names)
    if text.startswith("(") and ") / (" in text and text.endswith(")"):
        num, den = text[1:-1].split(") / (")
        return parse_poly(num, t_name, var_names), parse_poly(den, t_name, var_names)
    return parse_poly(text, t_name, var_names), one


def parse_slices(lines, var_names):
    """'t^d: <group ring element>' lines into {d: slice keyed (0, *v)}."""
    out = {}
    for line in lines:
        if line == "0":
            continue
        head, _, body = line.partition(": ")
        if not head.startswith("t^"):
            raise ValueError("not a series line: %r" % line)
        out[int(head[2:])] = parse_poly(body, "t", var_names)
    return out


def series_times(slices_a, p, order):
    """Truncated product of a series {d: slice} with a polynomial p."""
    out = {}
    for d, g in slices_a.items():
        for key, c in p.items():
            e = d + key[0]
            if e > order:
                continue
            out[e] = padd(out.get(e, {}), pmul(g, {(0,) + key[1:]: c}))
    return {d: g for d, g in out.items() if g}


def as_slices(p, order):
    """A polynomial as a series {t_exp: slice keyed (0, *v)} through t^order."""
    out = {}
    for k, c in p.items():
        if k[0] <= order:
            out.setdefault(k[0], {})[(0,) + k[1:]] = c
    return out
