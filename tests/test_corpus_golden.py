"""The fixture-corpus sweep must print exactly what it printed before.

tests/corpus_expected.txt holds the stdout of scripts/verify_corpus.py:
every command line, its output and its exit code.  A change that alters
any byte of it has to regenerate the file on purpose:

    python3 scripts/verify_corpus.py > tests/corpus_expected.txt
"""

import contextlib
import importlib.util
import io
import os

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def load_sweep():
    path = os.path.join(ROOT, "scripts", "verify_corpus.py")
    spec = importlib.util.spec_from_file_location("verify_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_output_is_byte_identical(monkeypatch):
    sweep = load_sweep()
    # the sweep points the fixture directory at the corpus; restore it after
    monkeypatch.setenv("TORSIONLAB_FIXTURE_DIR", "")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sweep.main()
    golden = os.path.join(ROOT, "tests", "corpus_expected.txt")
    with open(golden, encoding="ascii", newline="") as handle:
        expected = handle.read()
    assert code == 0
    assert out.getvalue() == expected
