"""Seeded inputs for the benchmark workloads, written as fixture files.

Everything here is plain Python over integers; torsionlab is never
imported.  build(workload, seed, out_dir, size) writes the workload's
fixtures into out_dir and returns its job list.  A job is a dict:

    argv   the torsionlab command line, fixture paths absolute
    check  which reference check applies (see check.py)
    ref    the expected value, computed here without torsionlab
    props  input properties (orders, matrix sizes, b, term counts)

The same seed always gives the same files and the same job list.
"""

import json
import os
import random

from ref import (
    int_det,
    int_mat_mul,
    lefschetz_numbers,
    newton_exp,
    orbit_power_sums,
    padd,
    pmul,
    series_times,
)

VAR_NAMES = ("x", "y")

# the 20 command lines of scripts/verify_corpus.py, with the exit code each
# must give; fixture names resolve against the committed fixtures/ directory
CORPUS = [
    (["tau", "--fixture", "circle_cw.json"], 0),
    (["tau", "--fixture", "circle_cw.json", "--order", "4"], 0),
    (["tau-hat", "--fixture", "circle_cw.json"], 0),
    (["validate", "--fixture", "circle_cw.json"], 0),
    (["validate", "--fixture", "broken_dsq.json"], 2),
    (["canon", "--fixture", "rational_sample.json", "--order", "5"], 0),
    (["zeta", "--method", "lefschetz", "--fixture", "catmap_returnmaps.json"], 0),
    (["zeta", "--method", "trace", "--fixture", "catmap_returnmaps.json", "--order", "6"], 0),
    (["zeta", "--method", "product", "--fixture", "torus_orbits.json"], 0),
    (["zeta", "--method", "exp", "--fixture", "torus_orbits.json", "--order", "6"], 0),
    (["assemble", "--fixture", "circle_scenario.json"], 0),
    (["assemble", "--fixture", "catmap_scenario.json"], 0),
    (["verify-main", "--fixture", "circle_scenario.json"], 0),
    (["verify-main", "--fixture", "circle_crit_scenario.json"], 0),
    (["verify-main", "--fixture", "catmap_scenario.json"], 0),
    (["verify-main", "--fixture", "stabilized_pair.json"], 2),
    (["check-k", "--fixture", "stabilized_pair.json"], 0),
    (["i3", "--fixture", "catmap_scenario.json"], 0),
    (["tau", "--fixture", "trefoil_surgery_cw.json"], 0),
    (["validate", "--fixture", "trefoil_novikov.json"], 0),
]


# ---- fixture encoding ----


def _ring(b):
    return {"group_vars": list(VAR_NAMES[:b]), "t": "t"}


def _terms(p):
    return [{"c": c, "t": k[0], "v": list(k[1:])} for k, c in sorted(p.items())]


def _const(c, b):
    return [{"c": c, "t": 0, "v": [0] * b}] if c else []


def _int_matrix(A, b=0):
    return [[_const(c, b) for c in row] for row in A]


def _poly_matrix(P):
    return [[_terms(p) for p in row] for row in P]


def _write(out_dir, name, data):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(data, handle, sort_keys=True)
    return path


# ---- random integer matrices ----


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def shear_matrix(rng, n, ops, span=1):
    """A dense integer matrix of determinant 1, a product of elementary shears."""
    A = _identity(n)
    if n < 2:
        return A
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        lam = rng.choice([k for k in range(-span, span + 1) if k])
        A[i] = [x + lam * y for x, y in zip(A[i], A[j])]
    return A


def cat_map(rng, n, large):
    """Member of the cat-map family: dense, det 1, |trace| > n.

    The trace condition rejects near-unipotent draws, whose Lefschetz
    numbers vanish and whose zeta jobs would cost next to nothing.
    """
    if n == 1:
        return [[rng.choice([2, 3, -2, -3] if not large else [7, -9, 11])]]
    while True:
        A = shear_matrix(rng, n, ops=3 * n if large else n + 1, span=2 if large else 1)
        if abs(sum(A[i][i] for i in range(n))) > n:
            return A


def sign_matrix(rng, rows, cols):
    """Entries +-1: dense, so the cost of a job depends little on the seed."""
    return [[rng.choice((-1, 1)) for _ in range(cols)] for _ in range(rows)]


def two_term_poly(rng, b):
    """c0 + c1 t^a V^e with c0, c1 in +-1, +-2, a in 1, 2 and e in +-1: always
    two terms, so pieces built from it cost alike from seed to seed."""
    key = (rng.choice((1, 2)),) + tuple(rng.choice((-1, 1)) for _ in range(b))
    return {(0,) * (b + 1): rng.choice((-2, -1, 1, 2)), key: rng.choice((-2, -1, 1, 2))}


def unit_monomial(rng, b):
    """+-t^a V^e with a in 0, 1 and e in +-1 (a is 1 when b = 0)."""
    key = (rng.choice((0, 1)) if b else 1,) + tuple(rng.choice((-1, 1)) for _ in range(b))
    return {key: rng.choice((-1, 1))}


def hyperbolic_2x2(rng, positive):
    """det 1 and |trace| > 2, so no power of it has eigenvalue 1.

    The sign of the trace fixes the signs of det(1 - A^p) for every p (all
    -1 for a positive trace, alternating for a negative one), and with them
    the cost of the orbit exponential, so the caller picks it.
    """
    while True:
        A = shear_matrix(rng, 2, 3)
        trace = A[0][0] + A[1][1]
        if abs(trace) > 2:
            return A if (trace > 0) == positive else [[-x for x in row] for row in A]


def _scalar_sums(values, b=0):
    return [{(0,) * (b + 1): v} if v else {} for v in values]


# Each generated workload is COPIES seeded variants of a few job classes of
# distinct cost (plus, for some, a few heavier extras).  With 20 copies a
# class spans 20 ranks, so the median job and the tail percentile (10 jobs
# beyond it) fall inside a class, not on the gap between two, and they move
# little from seed to seed.
COPIES = 20


# ---- corpus: the committed fixtures, as scripts/verify_corpus.py runs them ----


def build_corpus(rng, out_dir, size):
    copies = 10 if size == "full" else 1
    jobs = [
        {"argv": argv, "check": "exit", "ref": {"exit": code}, "props": dict(cmd=argv[0])}
        for argv, code in CORPUS
        for _ in range(copies)
    ]
    rng.shuffle(jobs)
    return jobs


# ---- series: zeta by trace, exp and lefschetz at high orders ----

# (size, layout, large entries), cycled over the copies; layout picks the
# graded shape of the return maps
SERIES_SHAPES = [(2, "torus", False), (3, "single", True), (4, "pair", False),
                 (5, "torus", True), (6, "single", False), (8, "pair", True)]
# per copy: lefschetz and trace on one map system, exp on one orbit list
SERIES_ORDERS = {"lefschetz": 24, "trace": 28, "exp": 36}
# heavier single jobs on top: (method, shape or (b, orbit count), order)
SERIES_EXTRAS = [("trace", (8, "single", True), 64), ("exp", (0, 3), 56), ("exp", (1, 2), 24)]


def _graded_maps(rng, n, layout, large):
    A = cat_map(rng, n, large)
    if layout == "torus":
        return [[[1]], A, [[1]]]
    if layout == "pair":
        return [A, cat_map(rng, max(n - 2, 1), large)]
    return [A]


def _maps_job(rng, out_dir, name, shape, method, order):
    maps = _graded_maps(rng, *shape)
    path = _write(out_dir, name, {"kind": "returnmaps", "ring": _ring(0),
                                  "phi": [_int_matrix(A) for A in maps]})
    zeta = newton_exp(_scalar_sums(lefschetz_numbers(maps, order)), order, 0)
    return {
        "argv": ["zeta", "--method", method, "--fixture", path, "--order", str(order)],
        "check": "series" if method == "trace" else "lefschetz",
        "ref": {"series": zeta, "order": order, "vars": []},
        "props": dict(cmd="zeta-" + method, sizes=[len(A) for A in maps], order=order, b=0,
                      max_entry=max(abs(x) for A in maps for row in A for x in row)),
    }


def _orbits_job(rng, out_dir, name, b, count, order):
    orbits = [{"t": 1 + k % 3, "v": [rng.choice((-1, 1)) for _ in range(b)],
               "map": hyperbolic_2x2(rng, k % 2 == 0)} for k in range(count)]
    path = _write(out_dir, name, {
        "kind": "orbits", "ring": _ring(b),
        "orbits": [{"class": {"t": o["t"], "v": o["v"]}, "period": 1, "sign": 0,
                    "return_map": o["map"]} for o in orbits]})
    return {
        "argv": ["zeta", "--method", "exp", "--fixture", path, "--order", str(order)],
        "check": "series",
        "ref": {"series": newton_exp(orbit_power_sums(orbits, order, b), order, b),
                "order": order, "vars": list(VAR_NAMES[:b])},
        "props": dict(cmd="zeta-exp", order=order, b=b, orbits=count),
    }


def build_series(rng, out_dir, size):
    copies, orders, extras = COPIES, SERIES_ORDERS, SERIES_EXTRAS
    if size == "tiny":
        copies, orders, extras = 1, {"lefschetz": 6, "trace": 6, "exp": 8}, []
    jobs = []
    for i in range(copies):
        shape = SERIES_SHAPES[i % len(SERIES_SHAPES)]
        maps_seed = rng.random()  # both methods run on the same maps
        for method in ("lefschetz", "trace"):
            jobs.append(_maps_job(random.Random(maps_seed), out_dir, "series_maps_%d.json" % i,
                                  shape, method, orders[method]))
        jobs.append(_orbits_job(rng, out_dir, "series_orbits_%d.json" % i, 0, 3, orders["exp"]))
    for i, (method, spec, order) in enumerate(extras):
        name = "series_extra_%d.json" % i
        if method == "exp":
            jobs.append(_orbits_job(rng, out_dir, name, spec[0], spec[1], order))
        else:
            jobs.append(_maps_job(rng, out_dir, name, spec, method, order))
    return jobs


# ---- glue: verify-main, check-k and assemble on seeded cut systems ----

# ("torus", cut-surface dims): zero-boundary surface, dense return maps, no
# critical points; ("points", (m, c)): m points, c critical handles in each of
# degrees 0 and 1, a dense nilpotent m x m return map.  Cycled over the copies.
GLUE_MEDIUM = [("torus", [6]), ("torus", [3, 6, 3]), ("points", (6, 1)), ("points", (6, 2))]
GLUE_HEAVY = [("torus", [7]), ("points", (7, 1)), ("points", (7, 2))]
GLUE_TINY = ([("torus", [2]), ("points", (2, 1))], [("torus", [2, 3, 2]), ("points", (3, 2))])
ZETA_CHECK_ORDER = 6


def _zero_matrix(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _assembled(sd, phi, crit, N, M, W):
    """The glued boundaries by the block formula, from integer blocks.

    Zero cut-surface boundaries, as both glue families have.  Rows and
    columns run D (critical), E (surface in this degree), F (surface one
    degree down); the F-to-E block is 1 - t*phi.
    """
    n = len(sd)
    e = [sd[i] if i <= n - 1 else 0 for i in range(n + 1)]
    f = [sd[i - 1] if i >= 1 else 0 for i in range(n + 1)]
    dims = [crit[i] + e[i] + f[i] for i in range(n + 1)]
    out = []
    for i in range(1, n + 1):
        mat = [[{} for _ in range(dims[i])] for _ in range(dims[i - 1])]
        rd, re_, cd, ce = crit[i - 1], e[i - 1], crit[i], e[i]
        for r in range(rd):
            for c in range(cd):
                mat[r][c] = {(0,): N[i - 1][r][c]} if N[i - 1][r][c] else {}
            for c in range(f[i]):
                mat[r][cd + ce + c] = {(0,): W[i - 1][r][c]} if W[i - 1][r][c] else {}
        for r in range(re_):
            for c in range(cd):
                mat[rd + r][c] = {(1,): -M[i - 1][r][c]} if M[i - 1][r][c] else {}
            for c in range(f[i]):
                mat[rd + r][cd + ce + c] = padd({(0,): int(r == c)} if r == c else {},
                                                {(1,): -phi[i - 1][r][c]} if phi[i - 1][r][c] else {})
        out.append(mat)
    return dims, out


def _cut_fixture(sd, phi, crit, N, M, W, cn):
    n = len(sd)
    sigma = {"min_degree": 0, "dims": sd, "ring": _ring(0),
             "boundaries": [_int_matrix(_zero_matrix(sd[j], sd[j + 1])) for j in range(n - 1)]}
    cs = {"sigma": sigma, "phi": [_int_matrix(A) for A in phi], "crit_dims": crit,
          "N": [_int_matrix(A) for A in N], "M": [_int_matrix(A) for A in M],
          "W": [_int_matrix(A) for A in W]}
    return {"kind": "scenario", "ring": _ring(0), "cutsystem": cs, "novikov": cn}


def _critical_boundary(phi, N, M, W):
    """CN boundary N + sum_j t^(j+1) W phi^j M, exact since phi is nilpotent."""
    c0, c1 = len(N), len(N[0]) if N else 0
    K = [[{(0,): N[r][c]} if N[r][c] else {} for c in range(c1)] for r in range(c0)]
    P = _identity(len(phi))
    for j in range(len(phi)):
        WPM = int_mat_mul(int_mat_mul(W, P), M)
        for r in range(c0):
            for c in range(c1):
                if WPM[r][c]:
                    K[r][c] = padd(K[r][c], {(j + 1,): WPM[r][c]})
        P = int_mat_mul(P, phi)
    if any(P[r][c] for r in range(len(P)) for c in range(len(P))):
        raise ValueError("phi is not nilpotent")
    return K


def nilpotent_matrix(rng, m):
    """Q L U L^-1 Q^-1: U strictly upper triangular with a full superdiagonal,
    L unit lower bidiagonal and Q a permutation, so phi is dense, has
    nilpotency index m, and entry sizes stay alike from seed to seed."""
    U = [[rng.choice((-1, 1)) if j > i else 0 for j in range(m)] for i in range(m)]
    s = [rng.choice([-1, 1]) for _ in range(m)]
    L = [[1 if i == j else (s[i] if j == i - 1 else 0) for j in range(m)] for i in range(m)]
    L_inv = _identity(m)
    for i in range(1, m):
        L_inv[i] = [x - s[i] * y for x, y in zip(L_inv[i], L_inv[i - 1])]
    perm = list(range(m))
    rng.shuffle(perm)
    Q = [[int(perm[i] == j) for j in range(m)] for i in range(m)]
    Q_inv = [list(col) for col in zip(*Q)]
    return int_mat_mul(int_mat_mul(int_mat_mul(Q, L), U), int_mat_mul(L_inv, Q_inv))


def _invertible_sign_matrix(rng, c):
    while True:
        N = sign_matrix(rng, c, c)
        if int_det(N):
            return N


def _cut_system(rng, family, shape):
    if family == "torus":
        n = len(shape)
        return dict(sd=shape, phi=[sign_matrix(rng, d, d) for d in shape], crit=[0] * (n + 1),
                    N=[_zero_matrix(0, 0)] * n, M=[_zero_matrix(d, 0) for d in shape],
                    W=[_zero_matrix(0, d) for d in shape], cn=None)
    m, c = shape
    phi = nilpotent_matrix(rng, m)
    N = _invertible_sign_matrix(rng, c)
    M, W = sign_matrix(rng, m, c), sign_matrix(rng, c, m)
    return dict(sd=[m], phi=[phi], crit=[c, c], N=[N], M=[M], W=[W],
                cn=_critical_boundary(phi, N, M, W))


def _glue_jobs(rng, out_dir, name, family, shape, commands, order):
    s = _cut_system(rng, family, shape)
    if s["cn"] is None:
        cn = {"min_degree": 0, "dims": [], "boundaries": [], "indices": []}
    else:
        c = s["crit"][0]
        cn = {"min_degree": 0, "dims": [c, c], "boundaries": [_poly_matrix(s["cn"])],
              "indices": [0] * c + [1] * c}
    path = _write(out_dir, name,
                  _cut_fixture(s["sd"], s["phi"], s["crit"], s["N"], s["M"], s["W"], cn))
    props = dict(family=family, sizes=s["sd"], crit=s["crit"][0], order=order, b=0)
    refs = {}
    if "verify-main" in commands:
        refs["verify-main"] = ("verify", {"series": newton_exp(
            _scalar_sums(lefschetz_numbers(s["phi"], ZETA_CHECK_ORDER)), ZETA_CHECK_ORDER, 0),
            "order": ZETA_CHECK_ORDER, "vars": []})
    if "check-k" in commands:
        refs["check-k"] = ("checkk", {"order": order})
    if "assemble" in commands:
        dims, boundaries = _assembled(s["sd"], s["phi"], s["crit"], s["N"], s["M"], s["W"])
        refs["assemble"] = ("assemble", {"dims": dims, "boundaries": boundaries})
    return [{"argv": [cmd, "--fixture", path, "--order", str(order)], "check": refs[cmd][0],
             "ref": refs[cmd][1], "props": dict(props, cmd=cmd)} for cmd in commands]


def build_glue(rng, out_dir, size):
    copies, (medium, heavy) = COPIES, (GLUE_MEDIUM, GLUE_HEAVY)
    if size == "tiny":
        copies, (medium, heavy) = 1, GLUE_TINY
    jobs = []
    for i in range(copies):
        order = 4 + i % 5
        family, shape = medium[i % len(medium)]
        jobs += _glue_jobs(rng, out_dir, "glue_medium_%d.json" % i, family, shape,
                           ("assemble", "check-k"), order)
        family, shape = heavy[i % len(heavy)]
        jobs += _glue_jobs(rng, out_dir, "glue_heavy_%d.json" % i, family, shape,
                           ("verify-main",), order)
    return jobs


# ---- torsion: tau and tau-hat on disguised complexes, i3 on path matrices ----

# (command, b, min_degree, pieces per degree, extra cycles per degree), cycled
# over the copies; the extras carry homology, so tau-hat is the torsion of the
# pieces alone.  An i3 job is given as (b, path matrix size, order).  Per copy
# one job of each class: small (about 10 ms), medium (about 35 ms) and large
# (about 100 ms); large tau-hat keeps b = 0, see README for b > 0.
TORSION_SMALL = [(0, 3, 12), ("tau-hat", 1, 0, [2, 2], [1, 1, 0]), (1, 3, 10),
                 ("tau-hat", 2, 0, [2, 2], [0, 1, 1])]
TORSION_MEDIUM = [("tau", 0, 0, [8, 8], [0, 0, 0]), ("tau", 2, 1, [6, 6], [0, 0, 0]),
                  ("tau", 1, 0, [6, 6], [0, 0, 0]), ("tau-hat", 1, 0, [3, 3], [0, 1, 0])]
TORSION_LARGE = [("tau", 1, 1, [8, 8], [0, 0, 0]), ("tau-hat", 0, 0, [5, 5], [0, 0, 0])]
# torsion jobs are cheap, so twice the copies: its per-job costs vary most
TORSION_COPIES = 2 * COPIES
TORSION_TINY = ([("tau-hat", 1, 0, [2, 2], [1, 1, 0]), (1, 2, 4)],
                [("tau", 1, 0, [2, 2], [0, 0, 0])], [("tau-hat", 0, 0, [2, 2], [0, 0, 0])])


def disguised_complex(rng, b, pieces, extras):
    """Direct sum of two-term pieces plus zero-boundary extras, then sheared.

    pieces[j] polynomials sit between degree indices j+1 and j.  Basis order
    per degree: extras, piece targets, piece sources.  The determinant-one
    shears run along a fixed chain (each non-extra generator absorbs +-t^a x
    times the next) with seeded signs, which disguises the sum while keeping
    a job's cost nearly the same from seed to seed; random shear sequences
    make the fraction-field elimination swell by orders of magnitude on some
    seeds.  Extras are never mixed, so they stay the homology basis and the
    torsion stays the alternating product of the pieces.
    """
    n = len(extras)
    count = [len(pieces[j]) if j < n - 1 else 0 for j in range(n)]
    dims = [extras[j] + count[j] + (count[j - 1] if j else 0) for j in range(n)]
    bnd = [[[{} for _ in range(dims[j + 1])] for _ in range(dims[j])] for j in range(n - 1)]
    for j in range(n - 1):
        col0 = extras[j + 1] + count[j + 1]
        for k, p in enumerate(pieces[j]):
            bnd[j][extras[j] + k][col0 + k] = p
    for j in range(n):
        for r1 in range(extras[j], dims[j] - 1):
            r2 = r1 + 1
            lam = {((r1 + j) % 2,) + (1,) * min(b, 1) + (0,) * (b - 1): rng.choice((-1, 1))}
            if j < n - 1:
                bnd[j][r1] = [padd(x, pmul(lam, y)) for x, y in zip(bnd[j][r1], bnd[j][r2])]
            if j >= 1:
                for row in bnd[j - 1]:
                    row[r2] = padd(row[r2], pmul(lam, row[r1]), -1)
    return dims, bnd


def _pieces_torsion(pieces, min_degree, b):
    """prod p^((-1)^(d+1)) over pieces with lower degree d, as (num, den)."""
    num, den = {(0,) * (b + 1): 1}, {(0,) * (b + 1): 1}
    for j, group in enumerate(pieces):
        for p in group:
            if (min_degree + j) % 2:
                num = pmul(num, p)
            else:
                den = pmul(den, p)
    return num, den


def _path_matrix(rng, b, m):
    """Sheared diagonal matrix of nonnegative t-degree; det is the diagonal product."""
    diag = [two_term_poly(rng, b) for _ in range(m)]
    D = [[diag[i] if i == j else {} for j in range(m)] for i in range(m)]
    for _ in range(2 * m):
        r1, r2 = rng.sample(range(m), 2)
        lam = unit_monomial(rng, b)
        if rng.random() < 0.5:
            D[r1] = [padd(x, pmul(lam, y)) for x, y in zip(D[r1], D[r2])]
        else:
            for row in D:
                row[r2] = padd(row[r2], pmul(lam, row[r1]))
    det = {(0,) * (b + 1): 1}
    for p in diag:
        det = pmul(det, p)
    return D, det


def _complex_job(rng, out_dir, name, cmd, b, min_degree, counts, extras):
    pieces = [[two_term_poly(rng, b) for _ in range(k)] for k in counts]
    dims, bnd = disguised_complex(rng, b, pieces, extras)
    path = _write(out_dir, name, {
        "kind": "complex", "ring": _ring(b), "min_degree": min_degree, "dims": dims,
        "boundaries": [_poly_matrix(mat) for mat in bnd]})
    num, den = _pieces_torsion(pieces, min_degree, b)
    return {
        "argv": [cmd, "--fixture", path], "check": "torsion",
        "ref": {"label": cmd, "num": num, "den": den, "vars": list(VAR_NAMES[:b])},
        "props": dict(cmd=cmd, b=b, dims=dims, homology=sum(extras),
                      terms=sum(len(p) for mat in bnd for row in mat for p in row))}


def _i3_job(rng, out_dir, name, b, m, order):
    D, det = _path_matrix(rng, b, m)
    maps = _graded_maps(rng, 2, "torus", False)
    d2 = [list(col) for col in zip(*D)]
    path = _write(out_dir, name, {
        "kind": "scenario", "ring": _ring(b),
        "returnmaps": {"phi": [_int_matrix(A, b) for A in maps]},
        "pathmatrix": {"P": _poly_matrix(D), "offset": {"c": 1, "t": 0, "v": [0] * b}},
        "novikov": {"min_degree": 1, "dims": [m, m], "boundaries": [_poly_matrix(d2)],
                    "indices": [1] * m + [2] * m}})
    zeta = newton_exp(_scalar_sums(lefschetz_numbers(maps, order), b), order, b)
    return {
        "argv": ["i3", "--fixture", path, "--order", str(order)], "check": "i3",
        "ref": {"series": series_times(zeta, det, order), "vars": list(VAR_NAMES[:b])},
        "props": dict(cmd="i3", b=b, dims=[m, m], order=order,
                      terms=sum(len(p) for row in D for p in row))}


def build_torsion(rng, out_dir, size):
    copies, groups = TORSION_COPIES, (TORSION_SMALL, TORSION_MEDIUM, TORSION_LARGE)
    if size == "tiny":
        copies, groups = 1, TORSION_TINY
    jobs = []
    for i in range(copies):
        for g, specs in enumerate(groups):
            spec = specs[i % len(specs)]
            name = "torsion_%d_%d.json" % (g, i)
            if len(spec) == 3:
                jobs.append(_i3_job(rng, out_dir, name, *spec))
            else:
                jobs.append(_complex_job(rng, out_dir, name, *spec))
    return jobs


WORKLOADS = {
    "corpus": build_corpus,
    "series": build_series,
    "glue": build_glue,
    "torsion": build_torsion,
}


def build(workload, seed, out_dir, size="full"):
    """Write the workload's fixtures for this seed into out_dir; return its jobs."""
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)), out_dir, size)
