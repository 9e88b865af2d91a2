"""The homology path on free coordinates.

The free coordinates of a degree are the indices that are no pivot of
the boundary out of it; a cycle is fixed by its entries there.
default_homology_basis completes the image on the free rows only, and
torsion_tau_hat runs the torsion engine on the cone of the basis, whose
eliminations keep only the free rows of each degree and whose sign is
the Laplace sign of the unit columns.  tests/oracles.py keeps the
full-row versions as references: the completion of the full stack
[image | kernel], and the d x d transition matrix [image | h | e_k]
with its unit columns, whose determinants make up Turaev's torsion.
"""

import pytest

import torsionlab.complexes as complexes
from torsionlab.complexes import (
    BasedChainComplex,
    HomologyBasis,
    _boundary_pivots,
    _clear_row_denominators,
    default_homology_basis,
    homology_ranks,
    torsion_tau,
    torsion_tau_hat,
)
from torsionlab.linalg import bareiss_det
from torsionlab.rings import RationalFunction, TPolynomial, frac_equal

import oracles
from conftest import R0, R1, R2, RINGS

# shears per random-shear [3, 7, 3] complex, few enough that the
# full-stack oracle takes well under a second on every seed used here
SHEARS = {R0: 40, R1: 30, R2: 24}
KINDS = ["valid", "shear"]


def seeded_complex(kind, ring, seed):
    rng = oracles.seeded(700 + seed)
    if kind == "shear":
        return oracles.random_shear_complex(rng, ring, shears=SHEARS[ring])
    return oracles.random_valid_complex(rng, ring, max_len=4)


def split_pivots(ring, sheared=False):
    """dims [2, 4, 1]: the boundary out of degree 1 has pivots {0, 2} of
    4, which are not its trailing rows; with sheared, the same complex
    after determinant-one basis changes that keep those pivots."""
    t, z = TPolynomial.t(ring), TPolynomial.zero(ring)
    v = TPolynomial.monomial(ring, v=(1,) * ring.num_group_vars)
    d1 = [[1 - t, z, z, z], [z, z, 2 + t, z]]
    d2 = [[z], [1 + v], [z], [t - 3]]
    C = BasedChainComplex(ring, 0, [2, 4, 1], [d1, d2])
    if sheared:
        # e_3 absorbs t times e_1 (column 1 of d1 is zero, so d1 keeps
        # its pivots), and degree 0's rows mix
        d2 = [[z], [(1 + v) + t * (t - 3)], [z], [t - 3]]
        d1 = [[1 - t, z, (2 + t) * t, z], [z, z, 2 + t, z]]
        C = BasedChainComplex(ring, 0, [2, 4, 1], [d1, d2])
    return C


def fraction_basis(C, rng):
    """The default basis with each vector scaled by a fraction and moved
    by a fraction multiple of a boundary, which keeps it a cycle and its
    class up to the scale."""
    ring = C.ring
    h = default_homology_basis(C)
    pivots = _boundary_pivots(C)[0]
    vectors = []
    for j, group in enumerate(h.vectors):
        image = [[row[c] for row in C.boundaries[j]] for c in pivots[j]] if j < len(pivots) else []
        moved = []
        for vec in group:
            r = RationalFunction(
                oracles.random_poly(rng, ring, nonzero=True), oracles.random_poly(rng, ring, nonzero=True)
            )
            entries = [e * r for e in vec]
            if image:
                s = RationalFunction(oracles.random_poly(rng, ring, nonzero=True), 2 + TPolynomial.t(ring))
                entries = [e + s * b for e, b in zip(entries, rng.choice(image))]
            moved.append(entries)
        vectors.append(moved)
    return HomologyBasis(ring, vectors)


def free_counts(C):
    pivots = _boundary_pivots(C)[0]
    return [d - len(pivots[j - 1]) if j else d for j, d in enumerate(C.dims)]


def sympy_rank(sympy, view, M, cols):
    from sympy.polys.matrices import DomainMatrix

    if not M or not cols:
        return 0
    return DomainMatrix.from_Matrix(view.matrix(M, cols)).to_field().rank()


@pytest.mark.parametrize("ring", RINGS, ids=["b0", "b1", "b2"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(5))
def test_free_rows_pick_the_full_stack_vectors(kind, ring, seed):
    C = seeded_complex(kind, ring, seed)
    got = default_homology_basis(C).vectors
    assert got == oracles.full_stack_homology_vectors(C)
    assert [len(group) for group in got] == homology_ranks(C)


@pytest.mark.parametrize("ring", RINGS, ids=["b0", "b1", "b2"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_chosen_vectors_complete_the_image_to_the_cycles(kind, ring, seed):
    sympy = pytest.importorskip("sympy")
    view = oracles.SympyView(sympy, ring)
    C = seeded_complex(kind, ring, seed)
    h = default_homology_basis(C)
    pivots = _boundary_pivots(C)[0]
    for j, d in enumerate(C.dims):
        out = C.boundary_out_of(j)
        cycles = d - (sympy_rank(sympy, view, out, d) if out else 0)
        image = [[row[c] for row in C.boundaries[j]] for c in pivots[j]] if j < len(pivots) else []
        cols = image + h.vectors[j]
        M = [[col[r] for col in cols] for r in range(d)]
        if out and cols:
            product = (view.matrix(out, d) * view.matrix(M, len(cols))).expand()
            assert product.is_zero_matrix
        assert len(cols) == cycles
        assert sympy_rank(sympy, view, M, len(cols)) == cycles


def sign_cases():
    cases = [("split", ring, sheared) for ring in (R0, R1) for sheared in (False, True)]
    cases += [(kind, ring, seed) for kind in KINDS for ring in RINGS for seed in range(4)]
    return cases


def sign_case(case):
    kind, ring, arg = case
    return split_pivots(ring, arg) if kind == "split" else seeded_complex(kind, ring, arg)


def case_id(case):
    return "%s-b%d-%s" % (case[0], case[1].num_group_vars, case[2])


def laplace_parities(C):
    """Per degree, the parity of the outgoing pivot rows plus the positions
    of the unit columns that the full transition matrix would have."""
    pivots = _boundary_pivots(C)[0]
    out = [pivots[j - 1] if j else [] for j in range(len(C.dims))]
    return [(sum(k) + sum(range(d - len(k), d))) % 2 for d, k in zip(C.dims, out)]


def test_sign_cases_take_both_laplace_signs():
    # outgoing pivots on the trailing rows would give an even parity in
    # every degree; the cases must also negate, in each ring and for
    # the random shears alone
    cases = sign_cases()
    for ring in RINGS:
        for kinds in (("shear",), ("split", "valid", "shear")):
            parities = {
                p
                for case in cases
                if case[1] is ring and case[0] in kinds
                for p in laplace_parities(sign_case(case))
            }
            assert parities == {0, 1}


@pytest.mark.parametrize("given", [False, True], ids=["default", "fractions"])
@pytest.mark.parametrize("case", sign_cases(), ids=case_id)
def test_pieces_equal_the_full_transition_determinant(case, given):
    # tau-hat is the alternating product of the full transition
    # determinants, sign included, and none of them vanishes; the cone on
    # the basis cleared of fractions is acyclic, and torsion_tau of it is
    # that product for the cleared basis
    C = sign_case(case)
    h = fraction_basis(C, oracles.seeded(900)) if given else default_homology_basis(C)
    for j in range(len(C.dims)):
        T, _ = oracles.transition_matrix(C, h, j)
        assert bareiss_det(C.ring, T)
    assert frac_equal(torsion_tau_hat(C, h), oracles.transition_torsion(C, h))
    cleared = HomologyBasis(C.ring, [_clear_row_denominators(C.ring, g)[0] for g in h.vectors])
    assert frac_equal(torsion_tau(oracles.cone(C, cleared)), oracles.transition_torsion(C, cleared))


def test_split_pivots_take_the_laplace_sign():
    # degree 1: [image | h] has 2 columns, the unit columns sit at 2 and 3
    # on rows 0 and 2, and 0 + 2 + 2 + 3 is odd, so the minor is negated
    C = split_pivots(R0)
    assert _boundary_pivots(C)[0] == [[0, 2], [0]]
    h = default_homology_basis(C)
    T, _ = oracles.transition_matrix(C, h, 1)
    det = bareiss_det(R0, T)
    minor = bareiss_det(R0, [[C.boundaries[1][r][0], h.vectors[1][0][r]] for r in (1, 3)])
    assert det == -minor
    # and tau-hat takes it with that sign
    assert frac_equal(torsion_tau_hat(C, h), oracles.transition_torsion(C, h))


@pytest.mark.parametrize("given", [False, True], ids=["default", "fractions"])
@pytest.mark.parametrize("case", sign_cases(), ids=case_id)
def test_eliminations_run_on_the_free_rows(case, given, monkeypatch):
    C = sign_case(case)
    h = fraction_basis(C, oracles.seeded(901)) if given else None
    free = free_counts(C)
    ranks = homology_ranks(C)
    pivots = _boundary_pivots(C)[0]
    completions, eliminations = [], []
    real_rank = complexes.poly_rank_pivots
    real_eliminate = complexes._eliminate_poly

    def rank_recorded(ring, M):
        completions.append((len(M), [len(row) for row in M]))
        return real_rank(ring, M)

    def eliminate_recorded(W, one, **kwargs):
        eliminations.append((len(W), [len(row) for row in W]))
        return real_eliminate(W, one, **kwargs)

    monkeypatch.setattr(complexes, "poly_rank_pivots", rank_recorded)
    monkeypatch.setattr(complexes, "_eliminate_poly", eliminate_recorded)
    torsion_tau_hat(C, h)
    # the completion runs once per degree with homology (none for a given
    # basis), on the free rows
    completed = [j for j, r in enumerate(ranks) if r and not given]
    assert [rows for rows, _ in completions] == [free[j] for j in completed]
    for (_, widths), j in zip(completions, completed):
        image = len(pivots[j]) if j < len(pivots) else 0
        assert widths == [image + free[j]] * free[j]
    # the boundaries were eliminated before; the engine then runs once per
    # boundary of the cone, on the free rows of the degree it lands in and
    # with every column of the cone: the degree above and its new vectors
    landing = [j for j in range(len(C.dims)) if j < len(C.dims) - 1 or ranks[-1]]
    above = C.dims[1:] + [0]
    assert [rows for rows, _ in eliminations] == [free[j] for j in landing]
    assert free[len(landing) :] == [0] * (len(free) - len(landing))
    for (rows, widths), j in zip(eliminations, landing):
        assert widths == [above[j] + ranks[j]] * rows
