"""Fixture serialization round-trips and command-line contract tests.

The corpus under fixtures/ is the shared input set: every file must
reload to an equal object and re-save byte-identically, and the
command-line surface is pinned against exact output text and exit
codes.
"""

import glob
import json
import os
import random

import pytest

import torsionlab.fixtures as fixtures_module
from torsionlab.cli import run_command
from torsionlab.complexes import BasedChainComplex
from torsionlab.cut import CutSystem, compute_K
from torsionlab.errors import FixtureError
from torsionlab.fixtures import (
    Fixture,
    Scenario,
    parse_fixture,
    parse_fixture_data,
    save_fixture,
    serialize_fixture,
)
from torsionlab.novikov import NovikovComplex
from torsionlab.rings import TPolynomial

import oracles
from conftest import R0, R1, R2

FIXTURE_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "fixtures")
)

EXPECTED_CORPUS = [
    "broken_dsq.json",
    "catmap_returnmaps.json",
    "catmap_scenario.json",
    "circle_crit_scenario.json",
    "circle_cw.json",
    "circle_scenario.json",
    "rational_sample.json",
    "stabilized_cut.json",
    "stabilized_pair.json",
    "torus_orbits.json",
    "trefoil_novikov.json",
    "trefoil_pathmatrix.json",
    "trefoil_surgery_cw.json",
]


def fix(name):
    return os.path.join(FIXTURE_DIR, name)


def load_data(name):
    with open(fix(name), "r", encoding="ascii") as handle:
        return json.load(handle)


class TestCorpus:
    def test_expected_files_present(self):
        found = sorted(
            os.path.basename(p) for p in glob.glob(os.path.join(FIXTURE_DIR, "*.json"))
        )
        assert found == EXPECTED_CORPUS

    @pytest.mark.parametrize("name", EXPECTED_CORPUS)
    def test_round_trip(self, name, tmp_path):
        fixture = parse_fixture(fix(name))
        reparsed = parse_fixture_data(serialize_fixture(fixture))
        assert reparsed == fixture
        out = tmp_path / name
        save_fixture(fixture, os.fspath(out))
        with open(fix(name), "rb") as handle:
            original = handle.read()
        assert out.read_bytes() == original

    def test_every_kind_round_trips(self):
        # one corpus file per kind, and a scenario carrying every section
        by_kind = {}
        for name in EXPECTED_CORPUS:
            fixture = parse_fixture(fix(name))
            by_kind.setdefault(fixture.kind, fixture)
        assert sorted(by_kind) == sorted(fixtures_module._KINDS)
        parts = {
            key: getattr(by_kind["scenario"].payload, key) for key in fixtures_module._SECTIONS
        }
        parts["orbits"] = by_kind["orbits"].payload
        full = Fixture("scenario", R0, Scenario(order=5, **parts))
        for fixture in list(by_kind.values()) + [full]:
            data = serialize_fixture(fixture)
            reparsed = parse_fixture_data(json.loads(json.dumps(data)))
            assert reparsed.kind == fixture.kind
            assert serialize_fixture(reparsed) == data
        assert sorted(serialize_fixture(full)) == sorted(
            ("kind", "ring", "order") + fixtures_module._SECTIONS
        )

    def test_mixed_plain_blocks_round_trip(self):
        # the committed cut systems are all b = 0; over Z[V] the stored
        # blocks hold plain ints beside t-free ring elements
        seen = set()
        for seed, ring in enumerate((R1, R2, R1, R2)):
            cs = oracles.coupled_cut_system(oracles.seeded(7300 + seed), ring, 2 + seed % 2)
            blocks = [cs.phi, cs.N, cs.M, cs.W]
            seen.update(type(e) for group in blocks for X in group for row in X for e in row)
            data = serialize_fixture(Fixture("cutsystem", ring, cs))
            reparsed = parse_fixture_data(json.loads(json.dumps(data)))
            assert serialize_fixture(reparsed) == data
            back = reparsed.payload
            assert [back.phi, back.N, back.M, back.W] == blocks
            assert compute_K(back) == compute_K(cs)
        assert seen == {int, TPolynomial}

    def test_fixture_equality_sees_payload(self):
        a = parse_fixture(fix("circle_cw.json"))
        b = parse_fixture(fix("broken_dsq.json"))
        assert a == parse_fixture(fix("circle_cw.json"))
        assert a != b


class TestSchemaErrors:
    def test_missing_coefficient_is_located(self):
        data = load_data("circle_cw.json")
        del data["boundaries"][0][0][0][0]["c"]
        with pytest.raises(FixtureError, match=r'boundaries\[0\]\[0\]\[0\]\[0\]: missing "c"'):
            parse_fixture_data(data)

    def test_nested_ring_must_match(self):
        data = load_data("stabilized_cut.json")
        data["sigma"]["ring"] = {"group_vars": ["u"], "t": "t"}
        with pytest.raises(FixtureError, match="ring spec disagrees with the file"):
            parse_fixture_data(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FixtureError, match='unknown fixture kind "spline"'):
            parse_fixture_data({"kind": "spline", "ring": {"group_vars": [], "t": "t"}})
        with pytest.raises(FixtureError, match="unknown fixture kind"):
            Fixture("spline", R0, None)

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="ascii")
        with pytest.raises(FixtureError, match="malformed JSON"):
            parse_fixture(os.fspath(bad))

    def test_non_ascii_is_unreadable(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes('{"kind": "café"}'.encode("utf-8"))
        with pytest.raises(FixtureError, match="unreadable fixture"):
            parse_fixture(os.fspath(bad))

    def test_missing_file(self):
        with pytest.raises(FixtureError, match="no such fixture file") as info:
            parse_fixture("definitely_not_here.json")
        assert info.value.location == "definitely_not_here.json"

    def test_orbit_class_needs_positive_degree(self):
        data = {
            "kind": "orbits",
            "ring": {"group_vars": [], "t": "t"},
            "orbits": [{"class": {"t": 0, "v": []}}],
        }
        with pytest.raises(FixtureError, match=r"orbits\[0\]"):
            parse_fixture_data(data)

    def test_indices_must_match_grading(self):
        data = load_data("trefoil_novikov.json")
        data["indices"] = [1, 1]
        with pytest.raises(FixtureError, match="indices disagree"):
            parse_fixture_data(data)

    def test_boundary_entry_arity_checked(self):
        data = load_data("circle_cw.json")
        data["boundaries"][0][0][0][0]["v"] = [3]
        with pytest.raises(FixtureError, match="exponent vector"):
            parse_fixture_data(data)


def invoke(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommandContract:
    """Exact output text and exit codes for every subcommand."""

    def test_tau_circle(self, capsys):
        code, out, err = invoke(capsys, "tau", "--fixture", fix("circle_cw.json"))
        assert code == 0
        assert out == "tau: (1 - t)^-1 [canonical]\n"
        assert err == ""

    def test_tau_expansion_on_request(self, capsys):
        code, out, _ = invoke(
            capsys, "tau", "--fixture", fix("circle_cw.json"), "--order", "4"
        )
        assert code == 0
        assert out.splitlines() == [
            "tau: (1 - t)^-1 [canonical]",
            "t^0: 1",
            "t^1: 1",
            "t^2: 1",
            "t^3: 1",
            "t^4: 1",
        ]

    def test_tau_hat_circle(self, capsys):
        code, out, _ = invoke(capsys, "tau-hat", "--fixture", fix("circle_cw.json"))
        assert code == 0
        assert out == "tau-hat: (1 - t)^-1 [canonical]\n"

    def test_tau_trefoil_chain(self, capsys):
        code, out, _ = invoke(
            capsys, "tau", "--fixture", fix("trefoil_surgery_cw.json")
        )
        assert code == 0
        assert out == "tau: (1 - t + t^2) / (1 - 2*t + t^2) [canonical]\n"

    def test_tau_on_novikov_fixture(self, capsys):
        code, out, _ = invoke(
            capsys, "tau", "--fixture", fix("trefoil_novikov.json")
        )
        assert code == 0
        assert out == "tau: 1 - t + t^2 [canonical]\n"

    def test_verify_main_circle(self, capsys):
        code, out, _ = invoke(
            capsys, "verify-main", "--fixture", fix("circle_scenario.json")
        )
        assert code == 0
        assert out.splitlines() == [
            "zeta: (1 - t)^-1",
            "tau(CN): 1",
            "tau(X'): (1 - t)^-1",
            "series agreement (K vs CN): OK",
            "product formula: OK",
            "I == tau(X'): OK",
        ]

    def test_verify_main_circle_with_critical_pair(self, capsys):
        code, out, _ = invoke(
            capsys, "verify-main", "--fixture", fix("circle_crit_scenario.json")
        )
        assert code == 0
        assert out.splitlines()[:3] == [
            "zeta: 1",
            "tau(CN): (1 - t)^-1",
            "tau(X'): (1 - t)^-1",
        ]
        assert out.splitlines()[-1] == "I == tau(X'): OK"

    def test_verify_main_catmap(self, capsys):
        code, out, _ = invoke(
            capsys, "verify-main", "--fixture", fix("catmap_scenario.json")
        )
        assert code == 0
        assert "zeta: (1 - 3*t + t^2) / (1 - 2*t + t^2)" in out.splitlines()
        assert out.splitlines()[-1] == "I == tau(X'): OK"

    def test_verify_main_honest_about_truncations(self, capsys):
        # the stabilized pair only pins the boundary through t^8, so the
        # exact identity cannot be certified; series and product checks
        # still pass
        code, out, _ = invoke(
            capsys, "verify-main", "--fixture", fix("stabilized_pair.json")
        )
        assert code == 2
        lines = out.splitlines()
        assert "series agreement (K vs CN): OK" in lines
        assert "product formula: OK" in lines
        assert lines[-1] == "I == tau(X'): FAIL"

    def test_tau_of_a_complex_that_is_not_acyclic(self, capsys, tmp_path):
        # a zero boundary on dims [1, 1]: the torsion vanishes, which tau
        # prints as undefined, while tau-hat weighs the homology in
        data = load_data("circle_cw.json")
        data["boundaries"] = [[[[]]]]
        path = tmp_path / "circle_flat.json"
        path.write_text(json.dumps(data), encoding="ascii")
        code, out, _ = invoke(capsys, "tau", "--fixture", str(path))
        assert code == 2
        assert out == "tau: undefined (complex is not acyclic)\n"
        code, out, _ = invoke(capsys, "tau-hat", "--fixture", str(path))
        assert code == 0
        assert out == "tau-hat: 1 [canonical]\n"

    def test_verify_main_when_the_critical_complex_is_not_acyclic(self, capsys, tmp_path):
        data = load_data("circle_crit_scenario.json")
        data["novikov"]["boundaries"] = [[[[]]]]
        path = tmp_path / "circle_crit_flat.json"
        path.write_text(json.dumps(data), encoding="ascii")
        code, out, _ = invoke(capsys, "verify-main", "--fixture", str(path))
        assert code == 2
        assert out.splitlines() == [
            "zeta: 1",
            "tau(CN): undefined",
            "tau(X'): (1 - t)^-1",
            "series agreement (K vs CN): FAIL",
            "product formula: OK",
            "I == tau(X'): FAIL",
        ]

    def test_validate_reports_broken_differential(self, capsys):
        code, out, _ = invoke(
            capsys, "validate", "--fixture", fix("broken_dsq.json")
        )
        assert code == 2
        assert out == "d^2 != 0 at degree 2\n"

    def test_validate_ok(self, capsys):
        code, out, _ = invoke(capsys, "validate", "--fixture", fix("circle_cw.json"))
        assert code == 0
        assert out == "OK\n"

    def test_canon(self, capsys):
        code, out, _ = invoke(
            capsys, "canon", "--fixture", fix("rational_sample.json")
        )
        assert code == 0
        assert out == "canonical: (1 - t + t^2) / (1 - t)\n"

    def test_canon_expansion(self, capsys):
        code, out, _ = invoke(
            capsys, "canon", "--fixture", fix("rational_sample.json"), "--order", "3"
        )
        assert code == 0
        assert out.splitlines() == [
            "canonical: (1 - t + t^2) / (1 - t)",
            "t^0: 1",
            "t^2: 1",
            "t^3: 1",
        ]

    def test_zeta_lefschetz(self, capsys):
        code, out, _ = invoke(
            capsys,
            "zeta", "--method", "lefschetz",
            "--fixture", fix("catmap_returnmaps.json"),
        )
        assert code == 0
        assert out == "zeta: (1 - 3*t + t^2) / (1 - 2*t + t^2)\n"

    def test_zeta_lefschetz_expansion(self, capsys):
        code, out, _ = invoke(
            capsys,
            "zeta", "--method", "lefschetz",
            "--fixture", fix("catmap_returnmaps.json"),
            "--order", "3",
        )
        assert code == 0
        assert out.splitlines() == [
            "zeta: (1 - 3*t + t^2) / (1 - 2*t + t^2)",
            "t^0: 1",
            "t^1: -1",
            "t^2: -2",
            "t^3: -3",
        ]

    def test_zeta_trace_matches_lefschetz_expansion(self, capsys):
        code, trace_out, _ = invoke(
            capsys,
            "zeta", "--method", "trace",
            "--fixture", fix("catmap_returnmaps.json"),
            "--order", "3",
        )
        assert code == 0
        _, lef_out, _ = invoke(
            capsys,
            "zeta", "--method", "lefschetz",
            "--fixture", fix("catmap_returnmaps.json"),
            "--order", "3",
        )
        assert trace_out.splitlines() == lef_out.splitlines()[1:]

    def test_zeta_trace_over_the_group_ring(self, capsys, tmp_path):
        # the cat map lifted to one group variable, phi_0 = [[v]] and
        # phi_1 = [[2v, 1], [1, v^-1]]: the trace form takes Z[V] maps
        # (it refused them with exit 4 before) and meets the determinant form
        def entry(c, e):
            return [{"c": c, "t": 0, "v": [e]}]

        data = load_data("catmap_returnmaps.json")
        data["ring"]["group_vars"] = ["v"]
        data["phi"] = [
            [[entry(1, 1)]],
            [[entry(2, 1), entry(1, 0)], [entry(1, 0), entry(1, -1)]],
            [[entry(1, 0)]],
        ]
        path = tmp_path / "catmap_lifted_returnmaps.json"
        path.write_text(json.dumps(data), encoding="ascii")
        code, trace_out, err = invoke(
            capsys, "zeta", "--method", "trace", "--fixture", str(path), "--order", "4"
        )
        assert (code, err) == (0, "")
        _, lef_out, _ = invoke(
            capsys, "zeta", "--method", "lefschetz", "--fixture", str(path), "--order", "4"
        )
        assert lef_out.splitlines()[0] == (
            "zeta: (1 - t*v^-1 - 2*t*v + t^2) / (1 - t - t*v + t^2*v)"
        )
        assert trace_out.splitlines() == lef_out.splitlines()[1:]

    def test_zeta_product_orbits(self, capsys):
        code, out, _ = invoke(
            capsys,
            "zeta", "--method", "product",
            "--fixture", fix("torus_orbits.json"),
        )
        assert code == 0
        assert out == "zeta: (1 - t + t^2 - t^3)^-1\n"

    def test_zeta_exp_orbits(self, capsys):
        code, out, _ = invoke(
            capsys,
            "zeta", "--method", "exp",
            "--fixture", fix("torus_orbits.json"),
            "--order", "4",
        )
        assert code == 0
        assert out.splitlines() == ["t^0: 1", "t^1: 1", "t^4: 1"]

    def test_check_k(self, capsys):
        code, out, _ = invoke(
            capsys, "check-k", "--fixture", fix("stabilized_pair.json")
        )
        assert code == 0
        assert out == "K == CN boundary through t^8: OK\n"

    def test_check_k_order_override(self, capsys):
        code, out, _ = invoke(
            capsys,
            "check-k", "--fixture", fix("stabilized_pair.json"), "--order", "4",
        )
        assert code == 0
        assert out == "K == CN boundary through t^4: OK\n"

    def test_check_k_names_the_capped_order(self, capsys):
        # the counting boundary is known through t^8 only, so an order of
        # 12 compares, and reports, through t^8
        code, out, _ = invoke(
            capsys,
            "check-k", "--fixture", fix("stabilized_pair.json"), "--order", "12",
        )
        assert code == 0
        assert out == "K == CN boundary through t^8: OK\n"

    def test_order_below_transfer_degree(self, capsys, tmp_path):
        # N = 0 and CN boundary -t: the transfer entry K = -t starts at t^1,
        # so through t^0 both sides are the zero truncation
        data = load_data("circle_crit_scenario.json")
        data["cutsystem"]["N"] = [[[[]]]]
        data["novikov"]["boundaries"] = [[[[{"c": -1, "t": 1, "v": []}]]]]
        path = tmp_path / "circle_crit_shifted.json"
        path.write_text(json.dumps(data), encoding="ascii")
        code, out, _ = invoke(capsys, "check-k", "--fixture", str(path), "--order", "0")
        assert code == 0
        assert out == "K == CN boundary through t^0: OK\n"
        code, out, _ = invoke(capsys, "verify-main", "--fixture", str(path), "--order", "0")
        assert code == 0
        assert out.splitlines()[-3:] == [
            "series agreement (K vs CN): OK",
            "product formula: OK",
            "I == tau(X'): OK",
        ]

    def test_i3_catmap(self, capsys):
        code, out, _ = invoke(
            capsys, "i3", "--fixture", fix("catmap_scenario.json")
        )
        assert code == 0
        assert out.splitlines() == [
            "offset: 1",
            "t^0: 1",
            "t^1: -1",
            "t^2: -2",
            "det(P) consistent with tau(CN): OK",
        ]

    def test_i3_takes_one_determinant(self, capsys, monkeypatch):
        # the coefficient function and the consistency check share det(P),
        # which the path matrix keeps
        import torsionlab.threedim as threedim

        calls = []
        original = threedim.bareiss_det

        def counted(ring, matrix):
            calls.append(matrix)
            return original(ring, matrix)

        monkeypatch.setattr(threedim, "bareiss_det", counted)
        code, out, _ = invoke(capsys, "i3", "--fixture", fix("catmap_scenario.json"))
        assert code == 0
        assert "det(P) consistent with tau(CN): OK" in out
        assert len(calls) == 1

    def test_assemble_circle(self, capsys):
        code, out, _ = invoke(
            capsys, "assemble", "--fixture", fix("circle_scenario.json")
        )
        assert code == 0
        assert out.splitlines() == [
            "assembled: degrees 0..1, dims [1, 1]",
            "labels 0: E0_0",
            "labels 1: F1_0",
            "boundary 1 -> 0:",
            "[1 - t]",
        ]

    def test_assemble_validates_once(self, capsys, monkeypatch):
        import torsionlab.cli as cli
        import torsionlab.cut as cut

        calls = []
        real = cut.validate_cut_system

        def counted(cs):
            calls.append(cs)
            return real(cs)

        monkeypatch.setattr(cli, "validate_cut_system", counted)
        monkeypatch.setattr(cut, "validate_cut_system", counted)
        code, _, _ = invoke(capsys, "assemble", "--fixture", fix("catmap_scenario.json"))
        assert code == 0
        assert len(calls) == 1

    def test_assemble_catmap(self, capsys):
        code, out, _ = invoke(
            capsys, "assemble", "--fixture", fix("catmap_scenario.json")
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "assembled: degrees 0..3, dims [1, 3, 3, 1]"
        assert "boundary 2 -> 1:" in lines
        i = lines.index("boundary 2 -> 1:")
        assert lines[i + 1 : i + 4] == [
            "[0, 1 - 2*t, -t]",
            "[0, -t, 1 - t]",
            "[0, 0, 0]",
        ]


def term_list(*pairs):
    """(t-degree, coefficient) pairs as a fixture term list over R0."""
    return [{"c": c, "t": t, "v": []} for t, c in pairs]


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="ascii")
    return str(path)


def defective_cut(N, M, W):
    """Two surface degrees with a zero boundary, one handle per degree and
    zero return maps: the blocks alone decide the coupling identities."""
    sigma = BasedChainComplex(R0, 0, [1, 1], [[[TPolynomial.zero(R0)]]])
    return CutSystem(sigma, [[[0]], [[0]]], [1, 1, 1], N, M, W)


# (N, M, W) of defective_cut, and the one line each reports
DEFECTIVE_BLOCKS = [
    (([[1]], [[1]]), ([[0]], [[0]]), ([[0]], [[0]]), "critical block d^2 != 0 at degree 2"),
    (([[0]], [[1]]), ([[1]], [[0]]), ([[0]], [[0]]), "M/N compatibility fails at degree 2"),
    (([[1]], [[0]]), ([[0]], [[0]]), ([[1]], [[1]]), "W/N compatibility fails at degree 2"),
    (
        ([[0]], [[0]]),
        ([[1]], [[0]]),
        ([[0]], [[1]]),
        "return map fails the W/M commutator at degree 2",
    ),
]


class TestCutSystemReports:
    """validate on cutsystem and scenario fixtures, and assemble's report."""

    def test_clean_cutsystem_and_scenario(self, capsys):
        for name in ("stabilized_cut.json", "catmap_scenario.json"):
            code, out, _ = invoke(capsys, "validate", "--fixture", fix(name))
            assert (code, out) == (0, "OK\n")

    @pytest.mark.parametrize("N, M, W, line", DEFECTIVE_BLOCKS)
    def test_each_coupling_defect(self, capsys, tmp_path, N, M, W, line):
        cs = defective_cut(list(N), list(M), list(W))
        alone = tmp_path / "defect_cut.json"
        save_fixture(Fixture("cutsystem", R0, cs), str(alone))
        bundled = tmp_path / "defect_scenario.json"
        save_fixture(Fixture("scenario", R0, Scenario(cutsystem=cs)), str(bundled))
        for argv in (
            ("validate", "--fixture", str(alone)),
            ("validate", "--fixture", str(bundled)),
            ("assemble", "--fixture", str(bundled)),
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out, err) == (2, line + "\n", "")

    def test_scenario_with_a_broken_novikov_section(self, capsys, tmp_path):
        data = load_data("circle_scenario.json")
        one = [term_list((0, 1))]
        data["novikov"] = {
            "min_degree": 0,
            "dims": [1, 1, 1],
            "boundaries": [[one], [one]],
            "indices": [0, 1, 2],
        }
        path = write_json(tmp_path, "circle_broken_novikov.json", data)
        code, out, _ = invoke(capsys, "validate", "--fixture", path)
        assert (code, out) == (2, "novikov: d^2 != 0 at degree 2\n")

    @pytest.mark.parametrize("command", ["assemble", "verify-main", "validate"])
    def test_glued_complex_is_built_once(self, capsys, monkeypatch, command):
        import torsionlab.cut as cut

        built = []
        real = cut.BasedChainComplex

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cut, "BasedChainComplex", counted)
        code, _, _ = invoke(capsys, command, "--fixture", fix("catmap_scenario.json"))
        assert code == 0
        assert len(built) == 1

    def test_verify_main_squares_each_differential_once(self, capsys, monkeypatch):
        # validate reads every block of d^2 off the glued complex, and the
        # lift is a diagonal unit change, so only sigma's d^2 is taken by
        # validate_complex (the Novikov section here has no generators)
        import torsionlab.complexes as complexes
        import torsionlab.cut as cut

        seen = []
        real = complexes.validate_complex

        def counted(C):
            seen.append(C.dims)
            return real(C)

        monkeypatch.setattr(complexes, "validate_complex", counted)
        monkeypatch.setattr(cut, "validate_complex", counted)
        code, _, _ = invoke(capsys, "verify-main", "--fixture", fix("catmap_scenario.json"))
        assert code == 0
        assert [dims for dims in seen if dims] == [[1, 2, 1]]

    @pytest.mark.parametrize("N, M, W, line", DEFECTIVE_BLOCKS)
    def test_verify_main_refuses_each_coupling_defect(self, capsys, tmp_path, N, M, W, line):
        cs = defective_cut(list(N), list(M), list(W))
        zero = [[TPolynomial.zero(R0)]]
        cn = NovikovComplex(R0, 0, [1, 1, 1], [zero, zero])
        path = tmp_path / "defect_scenario.json"
        save_fixture(Fixture("scenario", R0, Scenario(cutsystem=cs, novikov=cn)), str(path))
        code, out, err = invoke(capsys, "verify-main", "--fixture", str(path))
        assert (code, out) == (4, "")
        assert line in err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 64
        assert "usage" in err

    def test_no_arguments(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 64
        assert "usage" in err

    def test_zeta_requires_method(self, capsys):
        code, _, err = invoke(
            capsys, "zeta", "--fixture", fix("torus_orbits.json")
        )
        assert code == 64
        assert "usage" in err

    def test_missing_file_is_code_3(self, capsys):
        code, _, err = invoke(capsys, "tau", "--fixture", "no_such_file.json")
        assert code == 3
        assert err.startswith("fixture error:")

    def test_malformed_file_is_code_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2", encoding="ascii")
        code, _, err = invoke(capsys, "tau", "--fixture", os.fspath(bad))
        assert code == 3
        assert "malformed JSON" in err

    def test_wrong_kind_is_code_4(self, capsys):
        code, _, err = invoke(capsys, "tau", "--fixture", fix("torus_orbits.json"))
        assert code == 4
        assert err.startswith("precondition failed:")

    def test_i3_without_path_matrix_is_code_4(self, capsys):
        code, _, err = invoke(capsys, "i3", "--fixture", fix("circle_scenario.json"))
        assert code == 4
        assert "pathmatrix" in err

    def test_negative_order_is_code_4(self, capsys):
        code, _, err = invoke(
            capsys, "tau", "--fixture", fix("circle_cw.json"), "--order", "-1"
        )
        assert code == 4
        # the sign is checked before any value is printed
        for argv in (
            ("tau", "--fixture", fix("circle_cw.json")),
            ("tau-hat", "--fixture", fix("circle_cw.json")),
            ("canon", "--fixture", fix("rational_sample.json")),
        ):
            code, out, err = invoke(capsys, *argv, "--order", "-1")
            assert code == 4
            assert out == ""
            assert err == "precondition failed: order must be nonnegative\n"

    def test_negative_scenario_order_is_code_3(self, capsys, tmp_path):
        data = load_data("catmap_scenario.json")
        data["order"] = -3
        path = tmp_path / "catmap_negative_order.json"
        path.write_text(json.dumps(data), encoding="ascii")
        for command in ("check-k", "i3"):
            code, out, err = invoke(capsys, command, "--fixture", str(path))
            assert code == 3
            assert out == ""
            assert err.startswith("fixture error: ")
            assert err.endswith(".order: order must be nonnegative\n")

    def test_failed_expansion_prints_no_value(self, capsys, tmp_path):
        # 2 - t has no unit lowest coefficient, so no expansion exists: the
        # command fails before it prints the value line
        ring = {"group_vars": [], "t": "t"}
        two_minus_t = term_list((0, 2), (1, -1))
        rational = write_json(
            tmp_path,
            "rational_two.json",
            {"kind": "rational", "ring": ring, "num": term_list((0, 1)), "den": two_minus_t},
        )
        complex_ = write_json(
            tmp_path,
            "complex_two.json",
            {
                "kind": "complex",
                "ring": ring,
                "min_degree": 0,
                "dims": [1, 1],
                "boundaries": [[[two_minus_t]]],
            },
        )
        for argv in (
            ("canon", "--fixture", rational),
            ("tau", "--fixture", complex_),
            ("tau-hat", "--fixture", complex_),
        ):
            code, out, _ = invoke(capsys, *argv)
            assert code == 0
            assert "(2 - t)^-1" in out
            code, out, err = invoke(capsys, *argv, "--order", "3")
            assert (code, out) == (4, "")
            assert err.startswith("precondition failed: lowest t-coefficient is not a unit")

    def test_order_above_ceiling_is_code_4(self, capsys):
        code, out, err = invoke(
            capsys, "zeta", "--method", "trace",
            "--fixture", fix("catmap_returnmaps.json"), "--order", "1025",
        )
        assert code == 4
        assert out == ""
        assert err == "precondition failed: order must be at most 1024\n"

    def test_scenario_order_above_ceiling_is_code_3(self, capsys, tmp_path):
        data = load_data("catmap_scenario.json")
        data["order"] = 1025
        path = tmp_path / "catmap_huge_order.json"
        path.write_text(json.dumps(data), encoding="ascii")
        code, out, err = invoke(capsys, "i3", "--fixture", str(path))
        assert code == 3
        assert out == ""
        assert err == (
            "fixture error: catmap_huge_order.json.order: order must be at most 1024\n"
        )

    @pytest.mark.parametrize(
        "order, message",
        [(-2, "order must be nonnegative"), (1025, "order must be at most 1024")],
    )
    def test_novikov_order_is_checked_at_its_key(self, capsys, tmp_path, order, message):
        data = load_data("trefoil_novikov.json")
        data["order"] = order
        path = tmp_path / "trefoil_bad_order.json"
        path.write_text(json.dumps(data), encoding="ascii")
        code, out, err = invoke(capsys, "validate", "--fixture", str(path))
        assert code == 3
        assert out == ""
        assert err == "fixture error: trefoil_bad_order.json.order: %s\n" % message
        with pytest.raises(FixtureError) as info:
            parse_fixture_data(data)
        assert info.value.location == "fixture.order"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("period", "x"),
            ("i_minus", "x"),
            ("i_zero", 1.5),
            ("sign", True),
            ("class.t", None),
        ],
    )
    def test_orbit_field_is_checked_at_its_key(self, capsys, tmp_path, field, value):
        data = load_data("torus_orbits.json")
        holder = data["orbits"][1]
        *outer, key = field.split(".")
        for part in outer:
            holder = holder[part]
        holder[key] = value
        path = tmp_path / "torus_bad_orbit.json"
        path.write_text(json.dumps(data), encoding="ascii")
        code, out, err = invoke(capsys, "zeta", "--method", "product", "--fixture", str(path))
        assert (code, out) == (3, "")
        assert err == (
            "fixture error: torus_bad_orbit.json.orbits[1].%s: expected an integer\n" % field
        )

    def test_exponent_outside_its_slot_is_code_3(self, capsys, tmp_path):
        data = load_data("rational_sample.json")
        data["ring"]["group_vars"] = ["v"]
        for term in data["num"] + data["den"]:
            term["v"] = [0]
        data["num"][1]["v"] = [2**40]
        path = tmp_path / "rational_huge_exponent.json"
        path.write_text(json.dumps(data), encoding="ascii")
        code, out, err = invoke(capsys, "canon", "--fixture", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(
            "fixture error: rational_huge_exponent.json.num[1].v: "
            "group exponent 1099511627776 is outside the packed range"
        )
        with pytest.raises(FixtureError) as info:
            parse_fixture_data(data)
        assert info.value.location == "fixture.num[1].v"

    def test_each_term_is_packed_once(self, monkeypatch):
        from torsionlab.rings import RingSpec, TPolynomial

        data = load_data("rational_sample.json")
        # a repeated term cancels the first one when the terms are summed
        data["num"].append(dict(data["num"][0], c=-data["num"][0]["c"]))
        real = RingSpec.pack
        calls = []

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(RingSpec, "pack", counted)
        value = parse_fixture_data(data).payload
        assert len(calls) == len(data["num"]) + len(data["den"])
        monkeypatch.undo()
        assert value.num == TPolynomial(R0, {(2, ()): -1, (3, ()): 1})
        assert len(value.num) == 2

    def test_zero_sums_leave_no_term(self):
        from torsionlab.rings import TPolynomial

        data = load_data("rational_sample.json")
        first = data["num"][0]
        # cancel, then bring the term back; a zero term alone adds nothing
        data["num"] += [dict(first, c=-first["c"]), first, dict(first, t=7, c=0)]
        data["den"] += [dict(term, c=-term["c"]) for term in data["den"][1:]]
        value = parse_fixture_data(data).payload
        assert value.num == TPolynomial(R0, {(1, ()): 1, (2, ()): -1, (3, ()): 1})
        assert value.den == TPolynomial.one(R0)
        assert len(value.num) == 3 and len(value.den) == 1

    def test_back_to_back_calls_share_no_flags(self, capsys):
        maps = fix("catmap_returnmaps.json")
        code, out, _ = invoke(
            capsys, "zeta", "--method", "trace", "--fixture", maps, "--order", "3"
        )
        assert code == 0
        assert len(out.splitlines()) == 4
        code, out, _ = invoke(capsys, "zeta", "--method", "lefschetz", "--fixture", maps)
        assert code == 0
        assert len(out.splitlines()) == 1
        assert out.startswith("zeta: ")

    def test_broken_complex_through_tau_is_code_4(self, capsys):
        # tau refuses outright; only validate maps the defect to code 2
        code, _, err = invoke(capsys, "tau", "--fixture", fix("broken_dsq.json"))
        assert code == 4
        assert "d^2 != 0 at degree 2" in err


class TestFixtureResolution:
    def test_env_dir_resolves_bare_names(self, capsys, monkeypatch):
        monkeypatch.setenv("TORSIONLAB_FIXTURE_DIR", FIXTURE_DIR)
        code, out, _ = invoke(capsys, "tau", "--fixture", "circle_cw.json")
        assert code == 0
        assert out == "tau: (1 - t)^-1 [canonical]\n"

    def test_bare_name_without_env_fails(self, capsys, monkeypatch):
        monkeypatch.delenv("TORSIONLAB_FIXTURE_DIR", raising=False)
        monkeypatch.chdir(os.path.dirname(FIXTURE_DIR))
        code, _, err = invoke(capsys, "tau", "--fixture", "circle_cw.json")
        assert code == 3

    def test_literal_path_wins_over_env(self, capsys, monkeypatch, tmp_path):
        # a file that exists as given is never redirected through the env dir
        decoy = tmp_path / "circle_cw.json"
        save_fixture(parse_fixture(fix("broken_dsq.json")), os.fspath(decoy))
        monkeypatch.setenv("TORSIONLAB_FIXTURE_DIR", FIXTURE_DIR)
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(capsys, "validate", "--fixture", "circle_cw.json")
        assert code == 2
        assert out == "d^2 != 0 at degree 2\n"

    def test_output_is_deterministic(self, capsys):
        results = set()
        for _ in range(3):
            results.add(invoke(capsys, "tau", "--fixture", fix("circle_cw.json")))
        assert len(results) == 1


# ---- parser fuzz: one corrupted node, located by its JSON path ----

# fixture -> (command that loads it, where its polynomials sit: a dotted key
# and whether it holds a list of matrices or one term list)
FUZZ_FIXTURES = {
    "trefoil_surgery_cw.json": (["tau"], {"boundaries": "matrices"}),
    "stabilized_cut.json": (
        ["assemble"],
        {key: "matrices" for key in ("sigma.boundaries", "phi", "N", "M", "W")},
    ),
    "rational_sample.json": (["canon", "--order", "5"], {"num": "poly", "den": "poly"}),
}
FUZZ_CASES = [
    (name, corruption)
    for name, (_, fields) in sorted(FUZZ_FIXTURES.items())
    for corruption in ("drop", "bad_int", "v_length", "huge", "row", "term")
    if corruption != "row" or "matrices" in fields.values()
]


def fuzz_nodes(name, data):
    """(kind, JSON path, container, index) of every term and matrix row,
    with the path spelled as the parser reports it."""
    nodes = []

    def poly(terms, path):
        for k in range(len(terms)):
            nodes.append(("term", "%s[%d]" % (path, k), terms, k))

    for dotted, shape in FUZZ_FIXTURES[name][1].items():
        value = data
        for part in dotted.split("."):
            value = value[part]
        where = "%s.%s" % (name, dotted)
        if shape == "poly":
            poly(value, where)
            continue
        for i, matrix in enumerate(value):
            for r, row in enumerate(matrix):
                nodes.append(("row", "%s[%d][%d]" % (where, i, r), matrix, r))
                for c, entry in enumerate(row):
                    poly(entry, "%s[%d][%d][%d]" % (where, i, r, c))
    return nodes


def lift(name, data):
    """The same fixture over a ring with one group variable u: every
    exponent vector gets a trailing 0."""
    for holder in (data, data.get("sigma", {})):
        if "ring" in holder:
            holder["ring"]["group_vars"] = ["u"]
    for kind, _, container, index in fuzz_nodes(name, data):
        if kind == "term":
            container[index]["v"].append(0)


def corrupt(rng, name, data, corruption):
    """Corrupt one seeded node of data in place; return the location and
    the message the parser must report."""
    b = len(data["ring"]["group_vars"])
    want = "row" if corruption == "row" else "term"
    _, path, container, index = rng.choice(
        [node for node in fuzz_nodes(name, data) if node[0] == want]
    )
    if corruption == "row":
        container[index] = rng.choice([{"c": 1}, 7, "row", None])
        return path, "expected a list"
    if corruption == "term":
        container[index] = rng.choice([[1, 0, []], 3, "term", None])
        return path, "expected an object"
    term = container[index]
    if corruption == "drop":
        key = rng.choice("ctv")
        del term[key]
        return path, 'missing "%s"' % key
    if corruption == "bad_int":
        value = rng.choice([True, False, 1.5, "1"])
        slot = rng.choice(["c", "t", "v"] if b else ["c", "t"])
        if slot == "v":
            term["v"][rng.randrange(b)] = value
        else:
            term[slot] = value
        return "%s.%s" % (path, slot), "expected an integer"
    if corruption == "v_length":
        term["v"] = term["v"][:-1] if b and rng.random() < 0.5 else term["v"] + [0]
        return path + ".v", "exponent vector needs %d entries" % b
    value = rng.choice([2**40, -(2**40)])
    term["v"][rng.randrange(b)] = value
    return path + ".v", "group exponent %d is outside the packed range |e| < 2^31" % value


class TestParserFuzz:
    """A seeded copy of a corpus fixture with one node corrupted exits 3,
    without a traceback, naming that node's JSON path."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name,corruption", FUZZ_CASES)
    def test_corrupted_node_is_located(self, capsys, tmp_path, name, corruption, seed):
        rng = random.Random("%s:%s:%d" % (name, corruption, seed))
        data = load_data(name)
        # a 2**40 exponent needs a group variable to sit in
        if corruption == "huge" or rng.random() < 0.5:
            lift(name, data)
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="ascii")
        parse_fixture(os.fspath(path))

        location, message = corrupt(rng, name, data, corruption)
        path.write_text(json.dumps(data), encoding="ascii")
        command = FUZZ_FIXTURES[name][0]
        code, out, err = invoke(capsys, command[0], "--fixture", os.fspath(path), *command[1:])
        assert (code, out) == (3, "")
        assert err == "fixture error: %s: %s\n" % (location, message)
