"""The command-line examples in README.md must print what they show.

Each indented block that starts with `$ torsionlab ...` is run in-process
from the repository root, and its standard output must equal the block's
remaining lines.  The exit code must be 0, unless the block goes on with
`$ echo $?` and the code on the line after it.  The standard library is
enough, so a bare interpreter can run the check too:

    PYTHONPATH=src python tests/test_readme_examples.py
"""

import contextlib
import io
import os
import shlex
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def readme_examples():
    """(argv, expected stdout, expected exit code) per README example."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("    $ torsionlab "):
            i += 1
            continue
        argv = shlex.split(lines[i][len("    $ torsionlab ") :])
        out, code = [], 0
        i += 1
        while i < len(lines) and lines[i].startswith("    ") and not lines[i].startswith("    $ "):
            out.append(lines[i][4:])
            i += 1
        if i + 1 < len(lines) and lines[i] == "    $ echo $?":
            code = int(lines[i + 1])
            i += 2
        examples.append((argv, "".join(line + "\n" for line in out), code))
    return examples


def run_example(argv):
    """(exit code, stdout) of one command, run from the repository root."""
    from torsionlab.cli import run_command

    here = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(ROOT)
        with contextlib.redirect_stdout(out):
            code = run_command(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue()


def mismatches():
    found = []
    for argv, expected_out, expected_code in readme_examples():
        code, out = run_example(argv)
        if (code, out) != (expected_code, expected_out):
            found.append(
                "$ torsionlab %s\nexpected exit %d:\n%sgot exit %d:\n%s"
                % (" ".join(argv), expected_code, expected_out, code, out)
            )
    return found


def test_readme_examples_print_what_they_show():
    assert len(readme_examples()) >= 4
    assert mismatches() == []


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    failed = mismatches()
    for text in failed:
        print(text)
    print("%d README example(s), %d mismatch(es)" % (len(readme_examples()), len(failed)))
    sys.exit(1 if failed else 0)
