"""Command line driver: load a fixture, run one operation, print ASCII.

Exit codes: 0 success, 2 an invariant or identity failed, 3 the fixture
did not parse, 4 an operation's precondition failed, 64 usage.
"""

import argparse
import sys

from .complexes import torsion_tau, torsion_tau_hat, validate_complex
from .cut import (
    _glue,
    check_K_vs_novikov,
    validate_cut_system,
    verify_main_theorem,
)
from .errors import FixtureError, PreconditionError
from .fixtures import parse_fixture
from .novikov import apply_lift
from .rings import (
    DEFAULT_ORDER,
    MAX_ORDER,
    canonical_mod_units,
    expand_series,
    format_rational,
    format_tpolynomial,
    format_truncation,
)
from .threedim import i3_coefficients, sw_consistency_check
from .zeta import zeta_exp, zeta_lefschetz, zeta_product, zeta_trace

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_FIXTURE = 3
EXIT_PRECONDITION = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for identity
    # violations, so route every usage problem to 64 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    parser = _Parser(prog="torsionlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for name, text, handler in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--fixture", required=True, help="fixture file path")
        p.add_argument("--order", type=int, default=None, help="series order")
        if name == "zeta":
            p.add_argument(
                "--method",
                required=True,
                choices=("exp", "product", "trace", "lefschetz"),
            )
    return parser


def _want(fixture, *kinds):
    if fixture.kind not in kinds:
        raise PreconditionError(
            "this command needs a %s fixture, got %s" % (" or ".join(kinds), fixture.kind)
        )


def _lifted_complex(fixture):
    """The complex a torsion command should run on, lift already applied."""
    if fixture.kind == "complex":
        return fixture.payload
    if fixture.kind == "novikov":
        cn = fixture.payload
    elif fixture.kind == "scenario" and fixture.payload.novikov is not None:
        cn = fixture.payload.novikov
    else:
        raise PreconditionError("fixture carries no complex to take torsion of")
    return apply_lift(cn, cn.lift, cn.min_degree)


def _order_for(args, fixture):
    if args.order is not None:
        return args.order
    if fixture.kind == "scenario" and fixture.payload.order is not None:
        return fixture.payload.order
    return DEFAULT_ORDER


def _print_value(head, value, order):
    """Print head, then value's expansion through order unless order is None.

    The expansion is taken first, so one that fails (a lowest coefficient
    that is no unit) prints nothing at all.
    """
    lines = [] if order is None else format_truncation(expand_series(value, order))
    print(head)
    for line in lines:
        print(line)
    return EXIT_OK


def _cmd_tau(args, fixture):
    _want(fixture, "complex", "novikov", "scenario")
    value = torsion_tau(_lifted_complex(fixture))
    if value.is_zero:
        print("tau: undefined (complex is not acyclic)")
        return EXIT_VIOLATION
    value = canonical_mod_units(value)
    return _print_value("tau: %s [canonical]" % format_rational(value), value, args.order)


def _cmd_tau_hat(args, fixture):
    _want(fixture, "complex", "novikov", "scenario")
    value = canonical_mod_units(torsion_tau_hat(_lifted_complex(fixture)))
    return _print_value("tau-hat: %s [canonical]" % format_rational(value), value, args.order)


def _scenario_part(fixture, name):
    if fixture.kind == "scenario":
        part = getattr(fixture.payload, name)
        if part is None:
            raise PreconditionError("scenario lacks a %s section" % name)
        return part
    return fixture.payload


def _cmd_zeta(args, fixture):
    order = _order_for(args, fixture)
    if args.method in ("exp", "product"):
        _want(fixture, "orbits", "scenario")
        orbits = _scenario_part(fixture, "orbits")
        if args.method == "exp":
            for line in format_truncation(zeta_exp(fixture.ring, orbits, order)):
                print(line)
            return EXIT_OK
        value = zeta_product(fixture.ring, orbits)
    else:
        _want(fixture, "returnmaps", "scenario")
        maps = _scenario_part(fixture, "returnmaps")
        if args.method == "trace":
            for line in format_truncation(zeta_trace(fixture.ring, maps, order)):
                print(line)
            return EXIT_OK
        value = zeta_lefschetz(fixture.ring, maps)
    return _print_value("zeta: %s" % format_rational(value), value, args.order)


def _print_complex(C):
    print(
        "assembled: degrees %d..%d, dims %r"
        % (C.min_degree, C.min_degree + len(C.dims) - 1, list(C.dims))
    )
    if C.labels is not None:
        for j, group in enumerate(C.labels):
            print("labels %d: %s" % (C.min_degree + j, " ".join(group) or "-"))
    for j, mat in enumerate(C.boundaries):
        print("boundary %d -> %d:" % (C.min_degree + j + 1, C.min_degree + j))
        for row in mat:
            print("[%s]" % ", ".join(format_tpolynomial(entry) for entry in row))
    return EXIT_OK


def _cmd_assemble(args, fixture):
    _want(fixture, "cutsystem", "scenario")
    cs = _scenario_part(fixture, "cutsystem")
    report = validate_cut_system(cs)
    if report:
        for line in report:
            print(line)
        return EXIT_VIOLATION
    return _print_complex(_glue(cs))


def _tau_text(value):
    if value.is_zero:
        return "undefined"
    return format_rational(canonical_mod_units(value))


def _flag(ok):
    return "OK" if ok else "FAIL"


def _cmd_verify_main(args, fixture):
    _want(fixture, "scenario")
    sc = fixture.payload
    if sc.cutsystem is None or sc.novikov is None:
        raise PreconditionError("verify-main needs cutsystem and novikov sections")
    report = verify_main_theorem(sc.cutsystem, sc.novikov, order=_order_for(args, fixture))
    print("zeta: %s" % format_rational(report.zeta))
    print("tau(CN): %s" % _tau_text(report.tau_cn))
    print("tau(X'): %s" % _tau_text(report.direct))
    print("series agreement (K vs CN): %s" % _flag(report.series_consistent))
    print("product formula: %s" % _flag(report.product_identity))
    print("I == tau(X'): %s" % _flag(report.main_identity))
    ok = report.series_consistent and report.product_identity and report.main_identity
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_check_k(args, fixture):
    _want(fixture, "scenario")
    sc = fixture.payload
    if sc.cutsystem is None or sc.novikov is None:
        raise PreconditionError("check-k needs cutsystem and novikov sections")
    cn = sc.novikov
    # the comparison stops at the counting boundary's own order, so that
    # is the degree the verdict names
    order = _order_for(args, fixture)
    if cn.order is not None:
        order = min(order, cn.order)
    ok = check_K_vs_novikov(sc.cutsystem, cn, order)
    print("K == CN boundary through t^%d: %s" % (order, _flag(ok)))
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_i3(args, fixture):
    _want(fixture, "scenario")
    order = _order_for(args, fixture)
    sc = fixture.payload
    if sc.pathmatrix is None:
        raise PreconditionError("scenario lacks a pathmatrix section")
    if sc.returnmaps is not None:
        zeta = zeta_lefschetz(fixture.ring, sc.returnmaps)
    elif sc.orbits is not None:
        zeta = zeta_product(fixture.ring, sc.orbits)
    else:
        raise PreconditionError("scenario lacks a returnmaps or orbits section")
    cf = i3_coefficients(zeta, sc.pathmatrix, order)
    consistent = None
    if sc.novikov is not None:
        consistent = sw_consistency_check(sc.pathmatrix, sc.novikov, k=order)
    print("offset: %s" % format_tpolynomial(cf.offset))
    for line in format_truncation(cf):
        print(line)
    if consistent is None:
        return EXIT_OK
    print("det(P) consistent with tau(CN): %s" % _flag(consistent))
    return EXIT_OK if consistent else EXIT_VIOLATION


def _cmd_canon(args, fixture):
    _want(fixture, "rational")
    value = canonical_mod_units(fixture.payload)
    return _print_value("canonical: %s" % format_rational(value), value, args.order)


def _cmd_validate(args, fixture):
    report = []
    if fixture.kind in ("complex", "novikov"):
        report = validate_complex(fixture.payload)
    elif fixture.kind == "cutsystem":
        report = validate_cut_system(fixture.payload)
    elif fixture.kind == "scenario":
        sc = fixture.payload
        if sc.cutsystem is not None:
            report.extend(validate_cut_system(sc.cutsystem))
        if sc.novikov is not None:
            report.extend("novikov: " + line for line in validate_complex(sc.novikov))
    if report:
        for line in report:
            print(line)
        return EXIT_VIOLATION
    print("OK")
    return EXIT_OK


_COMMANDS = (
    ("tau", "torsion of a based complex", _cmd_tau),
    ("tau-hat", "homology-weighted torsion of a based complex", _cmd_tau_hat),
    ("zeta", "closed-orbit counting function", _cmd_zeta),
    ("assemble", "glue a cut system into one complex", _cmd_assemble),
    ("verify-main", "check zeta * tau(CN) against the glued torsion", _cmd_verify_main),
    ("check-k", "compare the K-matrices with the counting boundary", _cmd_check_k),
    ("i3", "coefficients of zeta times the path-matrix determinant", _cmd_i3),
    ("canon", "canonical form of a rational function", _cmd_canon),
    ("validate", "structural checks for any fixture", _cmd_validate),
)


# parse_args returns a fresh namespace per call, so one parser serves all
_PARSER = _build_parser()


def run_command(argv):
    """Dispatch one invocation; returns the exit code, output on stdout."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command is None:
        _PARSER.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.order is not None:
            if args.order < 0:
                raise PreconditionError("order must be nonnegative")
            if args.order > MAX_ORDER:
                raise PreconditionError("order must be at most %d" % MAX_ORDER)
        return args.handler(args, parse_fixture(args.fixture))
    except FixtureError as exc:
        print("fixture error: %s" % exc, file=sys.stderr)
        return EXIT_FIXTURE
    except PreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
