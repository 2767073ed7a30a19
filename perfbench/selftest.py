"""Self-test of the benchmark itself (not of pdesctl).

    python3 perfbench/selftest.py

Checks that one seed gives byte-identical model files (also under other
``PYTHONHASHSEED`` values), that every synth spec passes both
achievability checks, that a tiny run of each workload prints every
metric named in BENCHMARK.json with its unit, and that a corrupted
output counts as an error.  Exits 0 when all pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

pdesctl = run.load_program()

import checks  # noqa: E402  (needs pdesctl on the path)
import gen  # noqa: E402

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

DIGEST_SCRIPT = """
import hashlib, os, sys, tempfile
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gen, run
for workload in run.WORKLOADS:
    d = tempfile.mkdtemp(dir=sys.argv[3])
    gen.build(workload, 7, d, "tiny")
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            print(workload, name, hashlib.sha256(fh.read()).hexdigest())
"""


def read(path):
    with open(path) as fh:
        return fh.read()


def file_digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).digest()
    return out


def test_generator_is_deterministic(tmp):
    for workload in run.WORKLOADS:
        a, b = tempfile.mkdtemp(dir=tmp), tempfile.mkdtemp(dir=tmp)
        gen.build(workload, 7, a, "tiny")
        gen.build(workload, 7, b, "tiny")
        assert file_digests(a) == file_digests(b), workload
        c = tempfile.mkdtemp(dir=tmp)
        gen.build(workload, 8, c, "tiny")
        assert file_digests(a) != file_digests(c), f"{workload}: seeds 7 and 8 give the same files"
    listings = []
    for hashseed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        listings.append(subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT, run.SRC, run.HERE, tmp],
            env=env, check=True, capture_output=True, text=True).stdout)
    assert listings[0] and listings.count(listings[0]) == 3, "files depend on PYTHONHASHSEED"


def test_achievable_specs_pass_both_checks(tmp):
    from pdesctl import check_controllable, check_observable, loads_automaton

    for size in ("tiny", "full"):
        for job in gen.build("synth", 1, tempfile.mkdtemp(dir=tmp), size):
            plant = loads_automaton(read(job.plant))
            spec = loads_automaton(read(job.spec))
            assert check_controllable(plant, spec), f"{job.name} not controllable"
            assert check_observable(plant, spec), f"{job.name} not observable"


def test_tiny_runs_print_every_metric(tmp):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, check=True, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, got)


def test_corrupted_scaling_factor_is_an_error(tmp):
    jobs = gen.build("synth", 5, tempfile.mkdtemp(dir=tmp), "tiny")
    passes = [run.run_pass(jobs, pdesctl.cli.main)]
    assert run.check_outputs(jobs, passes, checks)[1] == 0
    path = jobs[0].scaling_out
    lines = read(path).splitlines()
    i = next(n for n, line in enumerate(lines) if line.startswith("class "))
    fields = lines[i].split()
    fields[2] = "1/2" if fields[2] != "1/2" else "1"
    lines[i] = " ".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    attempted, failed, _, _, problems = run.check_outputs(jobs, passes, checks)
    assert failed == 1 and attempted == len(jobs), (failed, problems)


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    failures = 0
    try:
        for name, test in list(globals().items()):
            if name.startswith("test_"):
                try:
                    test(tmp)
                    print(f"PASS {name}")
                except AssertionError as e:
                    failures += 1
                    print(f"FAIL {name}: {e}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
