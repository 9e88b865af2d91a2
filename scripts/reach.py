"""List the statement lines of src/torsionlab that a pytest run never reaches.

Runs pytest in-process under a standard-library sys.settrace tracer that
records line events in the package's own files only, then prints, per
module, the lines that carry bytecode but never ran.  It needs nothing
beyond pytest (no coverage.py), and the tracer makes the run about three
to four times as slow as a plain one.  It is an audit aid, not a
gate: the exit code is pytest's.

    python3 scripts/reach.py                        # the tier-1 suite
    python3 scripts/reach.py tests/test_cut.py -x   # any pytest arguments
"""

import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "torsionlab")
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def statement_lines(path):
    """The lines of a source file that carry bytecode, nested code included."""
    with open(path, "r", encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        # a module's first instruction sits on line 0 or on no line at all
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def runs(lines):
    """Sorted line numbers as comma-separated runs "a" or "a-b"."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def traced_pytest(args):
    """pytest.main(args) under the tracer: (exit code, {file: reached lines})."""
    import pytest

    reached, tracers = {}, {}

    def local_for(filename):
        add = reached.setdefault(filename, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def dispatch(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE + os.sep):
            return None
        if filename not in tracers:
            tracers[filename] = local_for(filename)
        return tracers[filename]

    # the package must be imported from this checkout, under the tracer
    sys.path.insert(0, SRC)
    sys.settrace(dispatch)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), reached


def main(argv):
    os.chdir(ROOT)
    code, reached = traced_pytest(argv or TIER1_ARGS)
    total = missed = 0
    print()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = statement_lines(path)
        unreached = lines - reached.get(path, set())
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print("%s: %d of %d unreached: %s" % (name, len(unreached), len(lines), runs(unreached)))
        else:
            print("%s: all %d reached" % (name, len(lines)))
    print("total: %d of %d statement lines unreached" % (missed, total))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
