"""Value-level checks of one job's output against its reference.

check(job, code, out) returns None when the job passed, else a one-line
reason.  Printed values are parsed back (ref.parse_*) and compared as
values, so a different but equal representative still passes.
"""

import copy

from ref import as_slices, padd, parse_poly, parse_rational, parse_slices, pmul, series_times, unit_equal

OK_LINES = ("series agreement (K vs CN): OK", "product formula: OK", "I == tau(X'): OK")


def _expect_exit(code, want):
    if code != want:
        return "exit code %r, expected %d" % (code, want)
    return None


def _series_lines(lines, ref):
    got, want = parse_slices(lines, ref["vars"]), ref["series"]
    if got != want:
        return "series differs first at t^%d" % min(
            d for d in set(got) | set(want) if got.get(d) != want.get(d))
    return None


def _rational_matches_series(text, ref):
    """num/den agrees with the reference series through its order."""
    num, den = parse_rational(text, "t", ref["vars"])
    if series_times(ref["series"], den, ref["order"]) != as_slices(num, ref["order"]):
        return "rational value disagrees with the reference series"
    return None


def _check_exit(job, code, lines):
    return _expect_exit(code, job["ref"]["exit"])


def _check_series(job, code, lines):
    return _expect_exit(code, 0) or _series_lines(lines, job["ref"])


def _check_lefschetz(job, code, lines):
    if not lines or not lines[0].startswith("zeta: "):
        return "missing zeta line"
    return (_expect_exit(code, 0) or _rational_matches_series(lines[0][6:], job["ref"])
            or _series_lines(lines[1:], job["ref"]))


def _check_verify(job, code, lines):
    if len(lines) != 6 or not lines[0].startswith("zeta: "):
        return "unexpected verify-main output shape"
    if tuple(lines[3:]) != OK_LINES:
        return "verification lines: %s" % "; ".join(lines[3:])
    return _expect_exit(code, 0) or _rational_matches_series(lines[0][6:], job["ref"])


def _check_checkk(job, code, lines):
    want = "K == CN boundary through t^%d: OK" % job["ref"]["order"]
    return _expect_exit(code, 0) or (None if lines == [want] else "check-k said %r" % lines)


def _check_assemble(job, code, lines):
    bad = _expect_exit(code, 0)
    if bad:
        return bad
    dims = [int(x) for x in lines[0].split("dims [")[1].rstrip("]").split(",") if x.strip()]
    if dims != job["ref"]["dims"]:
        return "assembled dims %r" % dims
    matrices = []
    for line in lines[1:]:
        if line.startswith("boundary "):
            matrices.append([])
        elif line.startswith("["):
            body = line[1:-1]
            matrices[-1].append([parse_poly(e, "t", ()) for e in body.split(", ")] if body else [])
    if matrices != job["ref"]["boundaries"]:
        return "assembled boundary differs"
    return None


def _check_torsion(job, code, lines):
    ref = job["ref"]
    head = ref["label"] + ": "
    if len(lines) != 1 or not lines[0].startswith(head) or not lines[0].endswith(" [canonical]"):
        return "unexpected %s output %r" % (ref["label"], lines[:2])
    num, den = parse_rational(lines[0][len(head):-len(" [canonical]")], "t", ref["vars"])
    if not unit_equal(num, den, ref["num"], ref["den"]):
        return "torsion differs from the pieces' product beyond a unit"
    return _expect_exit(code, 0)


def _check_i3(job, code, lines):
    ref = job["ref"]
    if len(lines) < 3 or lines[-1] != "det(P) consistent with tau(CN): OK":
        return "i3 consistency line missing or FAIL"
    if parse_poly(lines[0][len("offset: "):], "t", ref["vars"]) != {(0,) * (len(ref["vars"]) + 1): 1}:
        return "unexpected offset %r" % lines[0]
    return _expect_exit(code, 0) or _series_lines(lines[1:-1], ref)


CHECKS = {
    "exit": _check_exit,
    "series": _check_series,
    "lefschetz": _check_lefschetz,
    "verify": _check_verify,
    "checkk": _check_checkk,
    "assemble": _check_assemble,
    "torsion": _check_torsion,
    "i3": _check_i3,
}


def check(job, code, out):
    """None if the output matches the reference, else the first reason it does not."""
    try:
        return CHECKS[job["check"]](job, code, out.splitlines())
    except (ValueError, IndexError, KeyError) as exc:
        return "unparsable output (%s: %s)" % (type(exc).__name__, exc)


def corrupt(job):
    """A copy of job whose reference is wrong in exactly one value."""
    bad = copy.deepcopy(job)
    ref = bad["ref"]
    if "exit" in ref:
        ref["exit"] += 1
    elif "series" in ref:
        d = min(ref["series"])
        key = min(ref["series"][d])
        ref["series"][d] = padd(ref["series"][d], {key: 1})
    elif "num" in ref:
        one = (0,) * (len(ref["vars"]) + 1)
        ref["num"] = pmul(ref["num"], {one: 1, (1,) + one[1:]: 1})
    elif "dims" in ref:
        ref["dims"] = [d + 1 for d in ref["dims"]]
    else:
        ref["order"] += 1
    return bad
