"""JSON fixture files for every object the toolkit computes on.

One file is one tagged object: {"kind": ..., "ring": ..., ...payload}.
Terms are {"c": int, "t": int, "v": [int]}, polynomials are term lists,
matrices are row-major lists of polynomial rows.  Nested complex objects
may repeat the ring spec; when they do, it has to agree with the file's.
Parsing reports a JSON-path location with every failure.
"""

import json
import os
from dataclasses import dataclass
from itertools import accumulate

from .complexes import BasedChainComplex
from .cut import CutSystem
from .errors import FixtureError, PreconditionError
from .novikov import EulerLift, NovikovComplex
from .rings import MAX_ORDER, RationalFunction, RingSpec, TPolynomial, _from_t_coefficients
from .threedim import PathMatrix
from .zeta import ClosedOrbit

FIXTURE_DIR_VAR = "TORSIONLAB_FIXTURE_DIR"


def _fail(message, where):
    raise FixtureError(message, where)


def _get(obj, key, where, required=True, default=None):
    if not isinstance(obj, dict):
        _fail("expected an object", where)
    if key not in obj:
        if required:
            _fail('missing "%s"' % key, where)
        return default
    return obj[key]


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail("expected an integer", where)
    return value


def _str(value, where):
    if not isinstance(value, str):
        _fail("expected a string", where)
    return value


def _list(value, where):
    if not isinstance(value, list):
        _fail("expected a list", where)
    return value


def parse_ring(obj, where="ring"):
    names = _list(_get(obj, "group_vars", where), where + ".group_vars")
    names = tuple(_str(n, where + ".group_vars") for n in names)
    t_name = _str(_get(obj, "t", where), where + ".t")
    try:
        return RingSpec(names, t_name)
    except (PreconditionError, ValueError) as exc:
        _fail(str(exc), where)


def _path(at):
    """The JSON path of a location string followed by list indices."""
    return at[0] + "".join("[%d]" % i for i in at[1:])


def _term(ring, obj, *at):
    """(c, packed key) of one fixture term; packing checks the exponent range.

    The term's location is a string and then list indices (see _path); the
    checks are plain type tests, and the path is formatted only when one
    fails."""
    if type(obj) is not dict:
        _fail("expected an object", _path(at))
    c = obj.get("c")
    if type(c) is not int:
        _bad_field(obj, "c", "expected an integer", at)
    t = obj.get("t")
    if type(t) is not int:
        _bad_field(obj, "t", "expected an integer", at)
    v = obj.get("v")
    if type(v) is not list:
        _bad_field(obj, "v", "expected a list", at)
    if len(v) != ring.num_group_vars:
        _fail("exponent vector needs %d entries" % ring.num_group_vars, _path(at) + ".v")
    for e in v:
        if type(e) is not int:
            _fail("expected an integer", _path(at) + ".v")
    try:
        return c, ring.pack(t, v)
    except PreconditionError as exc:
        _fail(str(exc), _path(at) + ".v")


def _bad_field(obj, key, message, at):
    """Fail on the term field key: missing, or not what message expects."""
    if key not in obj:
        _fail('missing "%s"' % key, _path(at))
    _fail(message, "%s.%s" % (_path(at), key))


def _poly(ring, data, *at):
    """The polynomial of a term list at the location at (see _term)."""
    if type(data) is not list:
        _fail("expected a list", _path(at))
    terms = {}
    for i, item in enumerate(data):
        c, key = _term(ring, item, *at, i)
        s = terms.pop(key, 0) + c
        if s:
            terms[key] = s
    return TPolynomial._trusted(ring, terms)


def _matrix(ring, data, where):
    rows = []
    for i, row in enumerate(_list(data, where)):
        if type(row) is not list:
            _fail("expected a list", "%s[%d]" % (where, i))
        rows.append([_poly(ring, entry, where, i, j) for j, entry in enumerate(row)])
    return rows


def _matrices(ring, data, where):
    return [
        _matrix(ring, m, "%s[%d]" % (where, i)) for i, m in enumerate(_list(data, where))
    ]


def _unit_term(ring, obj, where):
    c, key = _term(ring, obj, where)
    if c != 1:
        _fail("offset term must have c = 1", where)
    return TPolynomial._trusted(ring, {key: 1})


def _build(cls, where, *args, **kwargs):
    """cls(*args, **kwargs), a refused precondition reported at where."""
    try:
        return cls(*args, **kwargs)
    except PreconditionError as exc:
        _fail(str(exc), where)


def _complex_parts(ring, obj, where):
    """(min_degree, dims, boundaries, labels) of a complex object."""
    sub = _get(obj, "ring", where, required=False)
    if sub is not None and parse_ring(sub, where + ".ring") != ring:
        _fail("ring spec disagrees with the file", where + ".ring")
    min_degree = _int(_get(obj, "min_degree", where), where + ".min_degree")
    dims = [
        _int(d, where + ".dims") for d in _list(_get(obj, "dims", where), where + ".dims")
    ]
    labels = _get(obj, "labels", where, required=False)
    if labels is not None:
        labels = [
            [_str(name, where + ".labels") for name in _list(group, where + ".labels")]
            for group in _list(labels, where + ".labels")
        ]
    boundaries = _matrices(ring, _get(obj, "boundaries", where), where + ".boundaries")
    return min_degree, dims, boundaries, labels


def _complex(ring, obj, where):
    return _build(BasedChainComplex, where, ring, *_complex_parts(ring, obj, where))


def _grading(cn):
    out = []
    for j, d in enumerate(cn.dims):
        out.extend([cn.min_degree + j] * d)
    return out


def _order(obj, where):
    """The optional truncation order of an object, within [0, MAX_ORDER]."""
    order = _get(obj, "order", where, required=False)
    if order is not None:
        order = _int(order, where + ".order")
        if order < 0:
            _fail("order must be nonnegative", where + ".order")
        if order > MAX_ORDER:
            _fail("order must be at most %d" % MAX_ORDER, where + ".order")
    return order


def _lift(ring, obj, where, dims):
    """The EulerLift of the optional offsets, one per generator, or None."""
    offsets = _get(obj, "offsets", where, required=False)
    if offsets is None:
        return None
    flat = [
        _unit_term(ring, item, "%s.offsets[%d]" % (where, i))
        for i, item in enumerate(_list(offsets, where + ".offsets"))
    ]
    if len(flat) != sum(dims):
        _fail("need one offset per generator", where + ".offsets")
    ends = accumulate(dims)
    return EulerLift(ring, [flat[end - d : end] for d, end in zip(dims, ends)])


def _novikov(ring, obj, where):
    order = _order(obj, where)
    min_degree, dims, boundaries, labels = _complex_parts(ring, obj, where)
    lift = _lift(ring, obj, where, dims)
    cn = _build(
        NovikovComplex, where, ring, min_degree, dims, boundaries, labels, order, lift
    )
    indices = [
        _int(i, where + ".indices")
        for i in _list(_get(obj, "indices", where), where + ".indices")
    ]
    if indices != _grading(cn):
        _fail("indices disagree with the degrees of the generators", where + ".indices")
    return cn


def _orbit(ring, obj, where):
    cls = _get(obj, "class", where)
    t = _int(_get(cls, "t", where + ".class"), where + ".class.t")
    v = _list(_get(cls, "v", where + ".class"), where + ".class.v")
    if len(v) != ring.num_group_vars:
        _fail(
            "exponent vector needs %d entries" % ring.num_group_vars, where + ".class.v"
        )
    v = tuple(_int(e, where + ".class.v") for e in v)

    def field(key, default):
        return _int(_get(obj, key, where, required=False, default=default), where + "." + key)

    period = field("period", 1)
    # sign 0 defers to the return map; the schema's +-1 is the known case
    sign = field("sign", 0)
    i_minus = field("i_minus", -1)
    i_zero = field("i_zero", -1)
    rmap = _get(obj, "return_map", where, required=False, default=[])
    rmap = [
        [_int(e, where + ".return_map") for e in _list(row, where + ".return_map")]
        for row in _list(rmap, where + ".return_map")
    ]
    try:
        return ClosedOrbit(
            TPolynomial.monomial(ring, t_exp=t, v=v),
            period=period,
            eps=sign,
            return_map=tuple(tuple(row) for row in rmap),
            i_minus=i_minus,
            i_zero=i_zero,
        )
    except PreconditionError as exc:
        _fail(str(exc), where)


def _orbits(ring, obj, where):
    data = _list(_get(obj, "orbits", where), where + ".orbits")
    return [_orbit(ring, item, "%s.orbits[%d]" % (where, i)) for i, item in enumerate(data)]


def _returnmaps(ring, obj, where):
    return _matrices(ring, _get(obj, "phi", where), where + ".phi")


def _cutsystem(ring, obj, where):
    sigma = _complex(ring, _get(obj, "sigma", where), where + ".sigma")
    phi = _matrices(ring, _get(obj, "phi", where), where + ".phi")
    crit = [
        _int(d, where + ".crit_dims")
        for d in _list(_get(obj, "crit_dims", where), where + ".crit_dims")
    ]
    blocks = {
        name: _matrices(ring, _get(obj, name, where), where + "." + name)
        for name in ("N", "M", "W")
    }
    return _build(CutSystem, where, sigma, phi, crit, blocks["N"], blocks["M"], blocks["W"])


def _pathmatrix(ring, obj, where):
    P = _matrix(ring, _get(obj, "P", where), where + ".P")
    offset = _get(obj, "offset", where, required=False)
    if offset is not None:
        offset = _unit_term(ring, offset, where + ".offset")
    labels = {}
    for key in ("row_labels", "col_labels"):
        raw = _get(obj, key, where, required=False)
        if raw is not None:
            raw = [_str(s, where + "." + key) for s in _list(raw, where + "." + key)]
        labels[key] = raw
    return _build(PathMatrix, where, ring, P, offset=offset, **labels)


def _rational(ring, obj, where):
    num = _poly(ring, _get(obj, "num", where), where + ".num")
    den = _get(obj, "den", where, required=False)
    if den is not None:
        den = _poly(ring, den, where + ".den")
    return _build(RationalFunction, where, num, den)


@dataclass(eq=False)
class Scenario:
    """Optional bundle of everything one verification run may consume."""

    cutsystem: CutSystem | None = None
    novikov: NovikovComplex | None = None
    orbits: list | None = None
    returnmaps: list | None = None
    pathmatrix: PathMatrix | None = None
    order: int | None = None


# the sections of a scenario, each with the payload of the kind it is named after
_SECTIONS = ("cutsystem", "novikov", "orbits", "returnmaps", "pathmatrix")


def _scenario(ring, obj, where):
    parts = {}
    for key in _SECTIONS:
        sub = _get(obj, key, where, required=False)
        if sub is not None:
            parts[key] = _KINDS[key][0](ring, sub, where + "." + key)
    parts["order"] = _order(obj, where)
    return Scenario(**parts)


class Fixture:
    """Parsed fixture: a kind tag, the shared ring, and the built payload.

    Equality goes through serialization, which is faithful; the payload
    classes themselves compare by identity.
    """

    __slots__ = ("kind", "ring", "payload")

    def __init__(self, kind, ring, payload):
        if kind not in _KINDS:
            raise FixtureError('unknown fixture kind "%s"' % kind)
        self.kind = kind
        self.ring = ring
        self.payload = payload

    def __eq__(self, other):
        if not isinstance(other, Fixture):
            return NotImplemented
        return serialize_fixture(self) == serialize_fixture(other)

    __hash__ = None

    def __repr__(self):
        return "Fixture(kind=%r)" % self.kind


def parse_fixture_data(data, where="fixture"):
    kind = _str(_get(data, "kind", where), where + ".kind")
    if kind not in _KINDS:
        _fail('unknown fixture kind "%s"' % kind, where + ".kind")
    ring = parse_ring(_get(data, "ring", where), where + ".ring")
    payload = _KINDS[kind][0](ring, data, where)
    return Fixture(kind, ring, payload)


def resolve_fixture_path(path):
    path = os.fspath(path)
    if os.path.exists(path):
        return path
    base = os.environ.get(FIXTURE_DIR_VAR)
    if base and not os.path.isabs(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    raise FixtureError("no such fixture file", path)


def parse_fixture(path):
    resolved = resolve_fixture_path(path)
    try:
        with open(resolved, "r", encoding="ascii") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureError("unreadable fixture: %s" % exc, resolved)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError("malformed JSON: %s" % exc, resolved)
    return parse_fixture_data(data, where=os.path.basename(resolved))


# ---- writing ----


def serialize_ring(ring):
    return {"group_vars": list(ring.var_names), "t": ring.t_name}


def serialize_poly(p):
    return [
        {"c": c, "t": te, "v": list(ve)} for (te, ve), c in sorted(p.terms.items())
    ]


def serialize_matrix(ring, M):
    """Term lists of a matrix of ring elements, a plain int as a constant."""
    return [[serialize_poly(_from_t_coefficients(ring, [e])) for e in row] for row in M]


def _serialize_unit(u):
    _, t, v = u.unit_parts()
    return {"c": 1, "t": t, "v": list(v)}


def _serialize_complex(ring, C):
    out = {
        "ring": serialize_ring(C.ring),
        "min_degree": C.min_degree,
        "dims": list(C.dims),
        "boundaries": [serialize_matrix(ring, mat) for mat in C.boundaries],
    }
    if C.labels is not None:
        out["labels"] = [list(group) for group in C.labels]
    return out


def _serialize_novikov(ring, cn):
    out = _serialize_complex(ring, cn)
    out["indices"] = _grading(cn)
    if cn.order is not None:
        out["order"] = cn.order
    if cn.lift is not None:
        out["offsets"] = [_serialize_unit(u) for group in cn.lift.offsets for u in group]
    return out


def _serialize_orbits(ring, orbits):
    items = []
    for orbit in orbits:
        _, t, v = orbit.homology_class.unit_parts()
        entry = {
            "class": {"t": t, "v": list(v)},
            "period": orbit.period,
            "sign": orbit.eps,
        }
        if orbit.i_minus >= 0:
            entry["i_minus"] = orbit.i_minus
        if orbit.i_zero >= 0:
            entry["i_zero"] = orbit.i_zero
        if orbit.return_map:
            entry["return_map"] = orbit.map_rows()
        items.append(entry)
    return {"orbits": items}


def _serialize_returnmaps(ring, maps):
    return {"phi": [serialize_matrix(ring, m) for m in maps]}


def _serialize_cutsystem(ring, cs):
    return {
        "sigma": _serialize_complex(ring, cs.sigma),
        "phi": [serialize_matrix(ring, m) for m in cs.phi],
        "crit_dims": list(cs.crit_dims),
        "N": [serialize_matrix(ring, m) for m in cs.N],
        "M": [serialize_matrix(ring, m) for m in cs.M],
        "W": [serialize_matrix(ring, m) for m in cs.W],
    }


def _serialize_pathmatrix(ring, P):
    out = {"P": serialize_matrix(ring, P.matrix), "offset": _serialize_unit(P.offset)}
    if P.row_labels is not None:
        out["row_labels"] = list(P.row_labels)
    if P.col_labels is not None:
        out["col_labels"] = list(P.col_labels)
    return out


def _serialize_rational(ring, r):
    return {"num": serialize_poly(r.num), "den": serialize_poly(r.den)}


def _serialize_scenario(ring, sc):
    out = {}
    for key in _SECTIONS:
        part = getattr(sc, key)
        if part is not None:
            out[key] = _KINDS[key][1](ring, part)
    if sc.order is not None:
        out["order"] = sc.order
    return out


def serialize_fixture(fx):
    out = {"kind": fx.kind, "ring": serialize_ring(fx.ring)}
    out.update(_KINDS[fx.kind][1](fx.ring, fx.payload))
    return out


def save_fixture(fx, path):
    text = json.dumps(serialize_fixture(fx), indent=1, sort_keys=True)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text + "\n")


# every fixture kind with its (parser, serializer); a parser takes the
# ring, the JSON object and its location, a serializer takes the ring and the
# payload and returns the payload keys of the object
_KINDS = {
    "complex": (_complex, _serialize_complex),
    "novikov": (_novikov, _serialize_novikov),
    "orbits": (_orbits, _serialize_orbits),
    "returnmaps": (_returnmaps, _serialize_returnmaps),
    "cutsystem": (_cutsystem, _serialize_cutsystem),
    "pathmatrix": (_pathmatrix, _serialize_pathmatrix),
    "scenario": (_scenario, _serialize_scenario),
    "rational": (_rational, _serialize_rational),
}
