"""Write the desk-scale fixture corpus into fixtures/.

Every object is built with the package's own types and serialized by the
fixtures module, so the files double as round-trip material for the
suite.  Run from the repository root:

    python3 scripts/build_fixture_corpus.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from torsionlab.complexes import BasedChainComplex
from torsionlab.cut import CutSystem
from torsionlab.fixtures import Fixture, Scenario, save_fixture
from torsionlab.novikov import EulerLift, NovikovComplex
from torsionlab.rings import RationalFunction, RingSpec, TPolynomial
from torsionlab.threedim import PathMatrix
from torsionlab.zeta import ClosedOrbit

R0 = RingSpec(())
ONE = TPolynomial.one(R0)
ZERO = TPolynomial.zero(R0)
T = TPolynomial.t(R0)
TREFOIL = ONE - T + T**2


def point_sigma(points=1):
    return BasedChainComplex(R0, 0, [points], [])


def torus_sigma():
    return BasedChainComplex(
        R0, 0, [1, 2, 1], [[[ZERO, ZERO]], [[ZERO], [ZERO]]]
    )


def circle_nocrit():
    return CutSystem(
        point_sigma(), phi=[[[1]]], crit_dims=[0, 0], N=[[]], M=[[[]]], W=[[]]
    )


def circle_onecrit():
    return CutSystem(
        point_sigma(),
        phi=[[[0]]],
        crit_dims=[1, 1],
        N=[[[1]]],
        M=[[[1]]],
        W=[[[-1]]],
    )


def catmap_cut():
    return CutSystem(
        torus_sigma(),
        phi=[[[1]], [[2, 1], [1, 1]], [[1]]],
        crit_dims=[0, 0, 0, 0],
        N=[[], [], []],
        M=[[[]], [[], []], [[]]],
        W=[[], [], []],
    )


def stabilized_cut():
    return CutSystem(
        torus_sigma(),
        phi=[[[1]], [[2, 1], [1, 1]], [[1]]],
        crit_dims=[0, 1, 1, 0],
        N=[[], [[1]], [[]]],
        M=[[[0]], [[1], [0]], [[]]],
        W=[[], [[0, 1]], [[0]]],
    )


def series_poly(pairs):
    out = TPolynomial.zero(R0)
    for d, c in pairs:
        out = out + TPolynomial.monomial(R0, t_exp=d, coeff=c)
    return out


STABILIZED_SERIES = series_poly(
    [(0, 1), (2, 1), (3, 3), (4, 8), (5, 21), (6, 55), (7, 144), (8, 377)]
)


def empty_cn():
    return NovikovComplex(R0, 0, [], [])


def main():
    out_dir = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    os.makedirs(out_dir, exist_ok=True)
    fixtures = {}

    fixtures["circle_cw.json"] = Fixture(
        "complex",
        R0,
        BasedChainComplex(R0, 0, [1, 1], [[[ONE - T]]], labels=[["p"], ["e"]]),
    )

    fixtures["circle_scenario.json"] = Fixture(
        "scenario",
        R0,
        Scenario(cutsystem=circle_nocrit(), novikov=empty_cn()),
    )

    fixtures["circle_crit_scenario.json"] = Fixture(
        "scenario",
        R0,
        Scenario(
            cutsystem=circle_onecrit(),
            novikov=NovikovComplex(R0, 0, [1, 1], [[[ONE - T]]]),
        ),
    )

    fixtures["catmap_returnmaps.json"] = Fixture(
        "returnmaps", R0, catmap_cut().phi
    )

    fixtures["catmap_scenario.json"] = Fixture(
        "scenario",
        R0,
        Scenario(
            cutsystem=catmap_cut(),
            novikov=empty_cn(),
            returnmaps=catmap_cut().phi,
            pathmatrix=PathMatrix(R0, []),
            order=2,
        ),
    )

    fixtures["torus_orbits.json"] = Fixture(
        "orbits",
        R0,
        [
            ClosedOrbit(T, period=1, return_map=[[2, 0], [0, 2]]),
            ClosedOrbit(T**2, period=1, return_map=[[-2, 0], [0, 3]]),
        ],
    )

    fixtures["stabilized_cut.json"] = Fixture("cutsystem", R0, stabilized_cut())

    fixtures["stabilized_pair.json"] = Fixture(
        "scenario",
        R0,
        Scenario(
            cutsystem=stabilized_cut(),
            novikov=NovikovComplex(R0, 1, [1, 1], [[[STABILIZED_SERIES]]], order=8),
            order=8,
        ),
    )

    fixtures["trefoil_novikov.json"] = Fixture(
        "novikov",
        R0,
        NovikovComplex(
            R0,
            1,
            [1, 1],
            [[[TREFOIL]]],
            labels=[["a1"], ["b1"]],
            lift=EulerLift.trivial(R0, [1, 1]),
        ),
    )

    fixtures["trefoil_pathmatrix.json"] = Fixture(
        "pathmatrix",
        R0,
        PathMatrix(R0, [[TREFOIL]], row_labels=["b1"], col_labels=["a1"]),
    )

    fixtures["broken_dsq.json"] = Fixture(
        "complex",
        R0,
        BasedChainComplex(R0, 0, [1, 1, 1], [[[ONE - T]], [[ONE]]]),
    )

    fixtures["rational_sample.json"] = Fixture(
        "rational",
        R0,
        RationalFunction(T * TREFOIL, ONE - T),
    )

    for name, fixture in sorted(fixtures.items()):
        save_fixture(fixture, os.path.join(out_dir, name))
        print("wrote", os.path.join("fixtures", name))


if __name__ == "__main__":
    main()
