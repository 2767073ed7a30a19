"""pdesctl benchmark: seeded batches of CLI jobs, timed end to end.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 25 --trace 0

Set-up writes one batch of model files for the workload and seed (three
times, to time set-up).  Each job then calls ``pdesctl.cli.main(argv)``
in this process on those files: one client, a closed loop, no threads.
The batch is run in passes; another pass starts only while it is
expected to end within ``--seconds``, and an untraced run makes at least
MIN_PASSES.
Every timed piece of work is scaled to a reference speed of the machine
(see `Clock`).  After the passes, every job's outputs are checked outside
the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it gives the details (passes, job-tail percentile, error rate).  See
README.md in this directory for workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")
SPANS = os.path.join(HERE, "_out")

WORKLOADS = ("synth", "infimal", "simulate")
SETUP_REPEATS = 3
MIN_PASSES = 2
CALIBRATION_STEPS = 400
# time of calibrate() on a 2-core x86-64 host under CPython 3.11 in its
# fast phase; scaled times are seconds at that speed
REFERENCE_S = 1.2e-3
PROFILE_EVERY = 3  # the profiled pass runs every third job: cProfile triples job times
PERCENTILES = (99.9, 99, 95, 90, 75, 50)  # candidates for job_tail_s
TAIL_JOBS = 10  # job_tail_s has at least this many jobs beyond it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "result_states": "count",
    "result_transitions": "count",
}


def calibrate() -> float:
    """Time a fixed piece of work of the program's kind: small fractions
    summed into a dict."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 13 + 2)
    return time.perf_counter() - t0


class Clock:
    """Times pieces of work and scales each to the reference speed.

    On a shared host the speed of a core changes all the time.  On the
    2-core host this benchmark was built on, the calibration takes from 1.2
    to 2.4 ms, in phases that last from tens of milliseconds to minutes, so
    the same batch of jobs can take half as long again in one run as in
    the next.  ``tick()`` ends a piece and runs the
    calibration; a piece's scaled time is its time multiplied by
    REFERENCE_S over the mean of the calibrations just before and just
    after it.  Calibrations are not part of any piece."""

    def __init__(self):
        self.raw: List[float] = []
        self.calibrations = [calibrate()]
        self.start = time.perf_counter()

    def tick(self):
        self.raw.append(time.perf_counter() - self.start)
        self.calibrations.append(calibrate())
        self.start = time.perf_counter()

    def scaled(self) -> List[float]:
        c = self.calibrations
        return [t * 2 * REFERENCE_S / (c[i] + c[i + 1]) for i, t in enumerate(self.raw)]


@dataclass
class Pass:
    index: List[int]  # the jobs run, in order
    wall: float  # elapsed, calibrations included
    raw: List[float]  # each job's time as measured
    times: List[float]  # each job's time scaled to the reference speed
    codes: List[int]
    stdouts: List[str]
    stderrs: List[str]
    digests: List[str]  # of each job's output files and standard output


def load_program():
    """Import pdesctl from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "pdesctl", "__init__.py")):
        sys.exit(f"error: no pdesctl sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import pdesctl
    import pdesctl.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(pdesctl.__file__))) != SRC:
        sys.exit(f"error: pdesctl was imported from {pdesctl.__file__}, not from {SRC}")
    return pdesctl


def _call(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        return e.code if isinstance(e.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def run_pass(jobs, main, tracer=None, index=None) -> Pass:
    """Run the jobs (those in ``index``, or all) once each, in order."""
    index = list(range(len(jobs))) if index is None else index
    codes, stdouts, stderrs = [], [], []
    gc.collect()  # leave no garbage of earlier work for the timed jobs to collect
    start = time.perf_counter()
    clock = Clock()
    for i in index:
        out, err = io.StringIO(), io.StringIO()
        clock.start = time.perf_counter()  # the piece is the call alone
        with tracer.job(i) if tracer else nullcontext(), redirect_stdout(out), redirect_stderr(err):
            code = _call(main, jobs[i].argv)
        clock.tick()
        codes.append(code)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
    wall = time.perf_counter() - start
    digests = []
    for i, text in zip(index, stdouts):
        h = hashlib.sha256(text.encode())
        for path in jobs[i].outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        digests.append(h.hexdigest())
    return Pass(index, wall, clock.raw, clock.scaled(), codes, stdouts, stderrs, digests)


def setup(args, gen):
    """Build the batch SETUP_REPEATS times into one directory; the later
    builds overwrite the files of the earlier ones.  Returns the jobs and
    each build's raw and scaled time."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        clock = Clock()
        jobs = gen.build(args.workload, args.seed, args.work, args.size, tick=clock.tick)
        clock.tick()
        raw.append(sum(clock.raw))
        scaled.append(sum(clock.scaled()))
    return jobs, raw, scaled


def measure(jobs, main, seconds, tracer_factory=None):
    """Run passes while the next one is expected to end within ``seconds``,
    and at least MIN_PASSES plain passes without a tracer factory.

    Without a tracer factory every pass is plain.  With one, plain and
    traced passes alternate, and the traced passes are returned apart."""
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(jobs, main))
        if tracer_factory:
            tracer = tracer_factory()
            with tracer.installed():
                traced.append(run_pass(jobs, main, tracer))
            tracers.append(tracer)
        round_s = plain[-1].wall + (traced[-1].wall if traced else 0.0)
        enough = len(plain) >= (1 if tracer_factory else MIN_PASSES)
        if enough and time.perf_counter() - start + round_s > seconds:
            return plain, traced, tracers


def tail(values):
    """The highest of PERCENTILES (nearest rank) with at least TAIL_JOBS
    values beyond it, that percentile, and the count beyond it.  A batch
    too small for any gives its maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_JOBS:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def check_outputs(jobs, passes, checks):
    """Compare every pass's outputs with the last one's, which must cover
    every job, and check those.  Returns (attempted, failed, result states
    and result transitions summed over jobs, problems)."""
    last = passes[-1]
    failed_runs = [0] * len(jobs)
    for p in passes[:-1]:
        for i, code, digest in zip(p.index, p.codes, p.digests):
            if code or digest != last.digests[i]:
                failed_runs[i] += 1
    runs = [0] * len(jobs)
    for p in passes:
        for i in p.index:
            runs[i] += 1
    states = transitions = 0
    problems = []
    cache = {}
    for i, job in enumerate(jobs):
        try:
            found, s, t = checks.check_job(job, last.codes[i], last.stdouts[i], cache)
        except Exception as e:
            found, s, t = [f"check raised {type(e).__name__}: {e}"], 0, 0
        if found:
            failed_runs[i] = runs[i]
            problems += [f"{job.name}: {msg}" for msg in found[:3]]
            if last.stderrs[i]:
                problems.append(f"{job.name}: stderr: {last.stderrs[i].strip()[-400:]}")
        states += s
        transitions += t
    return sum(runs), sum(failed_runs), states, transitions, problems


def batch_time(passes, key="times"):
    """Median over full passes of the batch's summed job times."""
    return statistics.median(sum(getattr(p, key)) for p in passes)


def end_to_end(passes, setup_raw, setup_scaled, rss_mb, states, transitions):
    per_job = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    tail_s, tail_pct, beyond = tail(per_job)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": batch_time(passes),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_s,
        "peak_rss_mb": rss_mb,
        "result_states": states,
        "result_transitions": transitions,
    }
    details = {"job_tail_percentile": tail_pct, "job_tail_jobs_beyond": beyond,
               "unscaled_setup_s": statistics.median(setup_raw),
               "unscaled_wall_s": batch_time(passes, "raw")}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, details


def per_layer(pdesctl, tracing, jobs, main, plain, traced, tracers):
    profile = cProfile.Profile()
    profile.enable()
    profiled = run_pass(jobs, main, index=list(range(0, len(jobs), PROFILE_EVERY)))
    profile.disable()
    self_s, calls = tracing.self_times(profile, os.path.dirname(os.path.abspath(pdesctl.__file__)))
    by_pass = [t.layer_metrics() for t in tracers]
    values = {}
    for name in tracing.PER_LAYER:
        if name.endswith(".self_s") and name != "cli.self_s":
            values[name] = self_s.get(name.split(".")[0], 0.0)
        elif name == "values.calls":
            values[name] = calls.get("values", 0)
        elif name == "trace_overhead":
            values[name] = batch_time(traced) / batch_time(plain)
        else:
            values[name] = statistics.median(m.get(name, 0) for m in by_pass)
    metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in values.items()}
    return metrics, profiled


def write_spans(args, tracers):
    os.makedirs(SPANS, exist_ok=True)
    path = os.path.join(SPANS, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        for n, tracer in enumerate(tracers):
            for name, start, end, parent, job in tracer.spans:
                fh.write(json.dumps({"pass": n, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="batch size; tiny is for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order, and with it the per-layer counts, depends on
        # string hashing; fix it so a seed repeats exactly
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])
    pdesctl = load_program()
    import checks
    import gen
    import tracing

    os.makedirs(WORK, exist_ok=True)
    args.work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        jobs, setup_raw, setup_scaled = setup(args, gen)
        cli_main = pdesctl.cli.main
        if args.trace:
            plain, traced, tracers = measure(jobs, cli_main, args.seconds, tracing.Tracer)
            metrics, profiled = per_layer(pdesctl, tracing, jobs, cli_main, plain, traced, tracers)
            passes = [profiled] + plain + traced
            details = {"spans": os.path.relpath(write_spans(args, tracers))}
        else:
            passes, _, _ = measure(jobs, cli_main, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, states, transitions, problems = check_outputs(jobs, passes, checks)
        if not args.trace:
            metrics, details = end_to_end(passes, setup_raw, setup_scaled, rss_mb, states,
                                          transitions)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, jobs=len(jobs), passes=len(passes),
                   error_rate=failed / attempted)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
