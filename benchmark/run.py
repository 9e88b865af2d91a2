"""The torsionlab benchmark: seeded CLI workloads, checked against references.

    python3 benchmark/run.py --workload glue --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each job is one `torsionlab` command line
run in-process through torsionlab.cli.run_command (argument parsing,
fixture parsing, computation, formatting).  The loop is closed, with one
client, one process and no threads: the next job starts when the last
has returned.  A run repeats passes over the workload's fixed job list
until --seconds have gone by (always at least one full pass), and checks
every job's output against a reference computed without torsionlab.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (see tracer.py).  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it are JSON too: input properties, the tail percentile
and sample count, failure reasons, and the corpus output digest.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import check
import gen
import tracer as tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile


def load_cli():
    """torsionlab.cli from this checkout's src/, or exit nonzero without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "torsionlab", "cli.py")):
        sys.exit("benchmark: no torsionlab sources under %s" % src)
    sys.path.insert(0, src)
    import torsionlab.cli

    if not os.path.abspath(torsionlab.cli.__file__).startswith(src + os.sep):
        sys.exit("benchmark: imported torsionlab from outside %s" % src)
    return torsionlab.cli


def time_setup(workload, seed, size, out_dir):
    """Median wall time of a fresh interpreter importing torsionlab and
    writing the workload's fixtures from the seed."""
    probe = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
             workload, str(seed), size, out_dir]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(probe, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_ms():
    """Median time of a fixed pure-Python loop: a yardstick for the machine's
    speed during the run, reported beside the metrics, never folded into them."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def run_job(cli, job):
    """(seconds, exit code or traceback text, stdout) of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(list(job["argv"]))
    except Exception as exc:  # a traceback is a failed job, not a failed run
        code = "traceback: %s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - start, code, out.getvalue()


class Run:
    """Latencies, failures and last outputs of one measurement loop."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.samples = [[] for _ in jobs]
        self.outputs = [None] * len(jobs)
        self.attempted = 0
        self.failures = []

    def one_pass(self, cli, deadline=None):
        """Run the job list once, or until the deadline; True if the pass was whole."""
        for i, job in enumerate(self.jobs):
            seconds, code, out = run_job(cli, job)
            self.samples[i].append(seconds)
            self.outputs[i] = (code, out)
            self.attempted += 1
            reason = check.check(job, code, out)
            if reason:
                self.failures.append("%s: %s" % (" ".join(job["argv"]), reason))
            if deadline is not None and time.perf_counter() >= deadline:
                return i == len(self.jobs) - 1
        return True


def tail_percentile(n):
    """The highest whole percentile with at least TAIL_BEYOND of n jobs beyond it."""
    return max(50, (100 * (n - TAIL_BEYOND)) // n)


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def end_to_end(cli, jobs, seconds):
    """Passes until the deadline.  Throughput counts whole passes only: a cut
    pass would weigh the jobs that happen to come first in the list."""
    run = Run(jobs)
    start = time.perf_counter()
    whole, whole_s = 0, 0.0
    while not whole or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        if run.one_pass(cli, deadline=start + seconds if whole else None):
            whole += 1
            whole_s += time.perf_counter() - t0
    per_job = sorted(statistics.median(s) for s in run.samples)
    pct = tail_percentile(len(jobs))
    metrics = {
        "job_p50_ms": statistics.median(per_job) * 1e3,
        "job_tail_ms": nearest_rank(per_job, pct) * 1e3,
        "jobs_per_s": whole * len(jobs) / whole_s,
        "ok_frac": (run.attempted - len(run.failures)) / run.attempted,
    }
    info = {"tail_percentile": pct, "tail_n": len(jobs), "whole_passes": whole,
            "wall_s": time.perf_counter() - start}
    return run, metrics, info


def traced(cli, jobs, seconds, spans_path):
    """Pairs of one untraced and one traced pass, as many as fit in the time
    (at least one); per-layer medians over the traced passes."""
    tr = tracing.Tracer()
    run = Run(jobs)
    plain, wrapped, layers = [], [], []
    start = time.perf_counter()
    # go on while the time so far, scaled to one more pair, still fits
    while not plain or (time.perf_counter() - start) * (len(plain) + 1) / len(plain) <= seconds:
        t0 = time.perf_counter()
        run.one_pass(cli)
        plain.append(time.perf_counter() - t0)
        tr.reset()
        tr.install()
        try:
            t0 = time.perf_counter()
            run.one_pass(cli)
            wrapped.append(time.perf_counter() - t0)
        finally:
            tr.uninstall()
        layers.append(tr.layer_metrics())
    tr.dump(spans_path)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(wrapped) / statistics.median(plain) - 1
    info = {"traced_passes": len(wrapped), "spans_last_pass": len(tr.spans),
            "spans_file": os.path.relpath(spans_path, ROOT)}
    return run, metrics, info


def corrupted_reference_caught(run):
    """For one job of each check kind, a corrupted reference must fail its check."""
    seen = {}
    for job, output in zip(run.jobs, run.outputs):
        if output is not None and job["check"] not in seen:
            code, out = output
            seen[job["check"]] = check.check(check.corrupt(job), code, out) is not None
    return seen


def input_properties(jobs):
    """For each input property, the number of jobs with each value, out of "jobs"."""
    out = {}
    for job in jobs:
        for key, value in job["props"].items():
            bucket = out.setdefault(key, {})
            label = json.dumps(value)
            bucket[label] = bucket.get(label, 0) + 1
    return {"jobs": len(jobs), "properties": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    cli = load_cli()
    # the corpus names committed fixtures by file name, as scripts/verify_corpus.py does
    os.environ["TORSIONLAB_FIXTURE_DIR"] = os.path.join(ROOT, "fixtures")
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%s" % (args.workload, args.seed, args.size))
    setup_s = time_setup(args.workload, args.seed, args.size, work)
    jobs = gen.build(args.workload, args.seed, work, args.size)

    yardstick = [machine_ms()]
    if args.trace:
        run, metrics, info = traced(cli, jobs, args.seconds, os.path.join(work, "spans.jsonl"))
    else:
        run, metrics, info = end_to_end(cli, jobs, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    yardstick.append(machine_ms())
    caught = corrupted_reference_caught(run)
    info.update({
        "machine_ms_before_after": yardstick,
        "workload": args.workload, "seed": args.seed, "setup_s": setup_s,
        "attempted": run.attempted, "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures[:5], "corrupted_reference_caught": caught,
        "inputs": input_properties(jobs),
    })
    if args.workload == "corpus":
        # information only, the checks use exit codes; one output per distinct
        # command line in sorted order, so the digest does not depend on the seed
        outs = {" ".join(job["argv"]): out for job, (_, out) in zip(jobs, run.outputs)}
        info["stdout_sha256"] = hashlib.sha256(
            "".join(outs[k] for k in sorted(outs)).encode()).hexdigest()
    print(json.dumps(info, sort_keys=True))

    units = dict(tracing.UNITS, job_p50_ms="ms", job_tail_ms="ms", jobs_per_s="1/s",
                 ok_frac="fraction", setup_s="s", peak_rss_mb="MB")
    print(json.dumps({
        "correct": not run.failures and all(caught.values()),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
