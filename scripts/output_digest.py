"""One digest over the printed output of every benchmark job.

Builds each workload's jobs with benchmark/gen.py for the given seeds,
runs every job once in-process through the benchmark's own run_job, and
checks it with benchmark/check.py.  It prints the job count, the number
of jobs that fail their check, and the sha256 over every job's
(argv, exit code, stdout), with the work directory written as W in argv
and stdout, so two checkouts of the package can be compared by one line:

    python3 scripts/output_digest.py                       # seeds 1-3, all workloads
    python3 scripts/output_digest.py --seeds 1 --workloads glue torsion

Nothing under benchmark/ is changed; the fixtures go to a temporary
directory that is removed afterwards.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def digest(workloads, seeds):
    """(jobs, check failures, sha256 hex) over every job of the workloads
    and seeds, in that order."""
    cli = run.load_cli()
    # the corpus names committed fixtures by file name, as run.py does
    os.environ["TORSIONLAB_FIXTURE_DIR"] = os.path.join(ROOT, "fixtures")
    sha = hashlib.sha256()
    jobs = failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            for seed in seeds:
                work = os.path.join(tmp, "%s-%d" % (workload, seed))
                for job in gen.build(workload, seed, work):
                    _, code, out = run.run_job(cli, job)
                    jobs += 1
                    if check.check(job, code, out):
                        failures += 1
                    argv = [a.replace(work, "W") for a in job["argv"]]
                    record = [argv, code, out.replace(work, "W")]
                    sha.update(json.dumps(record).encode() + b"\n")
    return jobs, failures, sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=sorted(gen.WORKLOADS),
                        default=["corpus", "series", "glue", "torsion"])
    args = parser.parse_args(argv)
    jobs, failures, hexdigest = digest(args.workloads, args.seeds)
    print("jobs: %d" % jobs)
    print("check failures: %d" % failures)
    print("sha256: %s" % hexdigest)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
