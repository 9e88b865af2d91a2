"""Time verify-main on cut systems past the benchmark's sizes.

Builds seeded cut systems with benchmark/gen.py, the generator of the
glue workload: mapping tori of a dense sign matrix on a surface of one
degree ([16], [32], [48] generators) and m = 32 points with c = 4
critical handles in degrees 0 and 1.  A twisted torus [8] over one group
variable x is built here from gen.py's encoders: no critical handles, and
phi 70% dense with entries +-x^e, e in -1, 0, 1, so its glued complex
has b = 1 and is eliminated on the term-dict kernel.  Each is run
through the CLI's verify-main in-process, as benchmark/run.py runs a
job, and one line per system gives its best wall time over --repeats
runs, its exit code and the number of OK lines it printed (3 when every
check holds):

    python3 scripts/walls.py                    # all five systems
    python3 scripts/walls.py --systems torus16  # the smallest only

The exit code is 1 when a run exits nonzero or prints fewer than 3 OK
lines.  There is no timing bound.  Nothing under benchmark/ is changed;
the fixtures go to a temporary directory that is removed afterwards.
"""

import argparse
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import gen  # noqa: E402
import run  # noqa: E402

SYSTEMS = {
    "torus16": ("torus", [16]),
    "torus32": ("torus", [32]),
    "torus48": ("torus", [48]),
    "points32x4": ("points", (32, 4)),
    "twisted8": ("twisted", [8]),
}
ORDER = 8
OK_LINES = 3


def twisted_job(rng, out_dir, name, shape):
    """verify-main on the mapping torus of phi over one group variable: a
    surface with shape[j] generators in degree j and no critical handles,
    as gen.py's torus family, with phi 70% dense in entries +-x^e."""
    n = len(shape)

    def entry():
        return {(0, rng.randint(-1, 1)): rng.choice((-1, 1))} if rng.random() < 0.7 else {}

    phi = [[[entry() for _ in range(d)] for _ in range(d)] for d in shape]
    sigma = {"min_degree": 0, "dims": shape, "ring": gen._ring(1),
             "boundaries": [gen._int_matrix(gen._zero_matrix(shape[j], shape[j + 1]), 1)
                            for j in range(n - 1)]}
    cs = {"sigma": sigma, "phi": [gen._poly_matrix(A) for A in phi], "crit_dims": [0] * (n + 1),
          "N": [[] for _ in shape], "M": [[[] for _ in range(d)] for d in shape],
          "W": [[] for _ in shape]}
    cn = {"min_degree": 0, "dims": [], "boundaries": [], "indices": []}
    path = gen._write(out_dir, name, {"kind": "scenario", "ring": gen._ring(1), "cutsystem": cs,
                                      "novikov": cn})
    return {"argv": ["verify-main", "--fixture", path, "--order", str(ORDER)]}


def wall(cli, name, seed, repeats, work):
    """(best seconds, exit code, OK-line count) of verify-main on one system."""
    family, shape = SYSTEMS[name]
    rng = random.Random("walls:%s:%d" % (name, seed))
    if family == "twisted":
        job = twisted_job(rng, work, name + ".json", shape)
    else:
        (job,) = gen._glue_jobs(rng, work, name + ".json", family, shape, ("verify-main",), ORDER)
    best = None
    for _ in range(repeats):
        seconds, code, out = run.run_job(cli, job)
        best = seconds if best is None else min(best, seconds)
    oks = sum(line.endswith(": OK") for line in out.splitlines())
    return best, code, oks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", nargs="+", choices=list(SYSTEMS), default=list(SYSTEMS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)
    cli = run.load_cli()
    failed = False
    with tempfile.TemporaryDirectory() as work:
        for name in args.systems:
            seconds, code, oks = wall(cli, name, args.seed, args.repeats, work)
            print("%-11s %8.3f s  exit %s  OK lines %d" % (name, seconds, code, oks))
            failed = failed or code != 0 or oks != OK_LINES
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
