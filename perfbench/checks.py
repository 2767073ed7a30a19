"""Correctness checks on job outputs, run after the timed passes.

Each check reads what a job wrote (files, and the standard output of its
CLI call) and returns a list of problems plus the size of the result:
observation classes and class transitions of a written scaling map, states
and transitions of an ``inf-pco`` output, or nodes and edges of the string
trie a ``simulate`` report lists.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from pdesctl import (
    check_controllable,
    check_observable,
    controlled_automaton,
    is_sublanguage,
    language_equivalent,
    loads_automaton,
    loads_scaling_map,
    loads_supervisor_map,
    scaling_from_supervisor,
)

# check_observable on an inf-pco output costs about as much as the job at
# k = 6, twice as much at k = 10 and about 40 s at k = 30, so it runs only
# on the smaller plants.
OBSERVABILITY_CHECK_MAX_K = 10

REPORT_HEADER = "string\tcount\tempirical\ttarget\tstderr"

Result = Tuple[List[str], int, int]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load(path: str):
    return loads_automaton(_read(path))


def check_job(job, code: int, stdout: str, cache: Dict) -> Result:
    """Check one job's exit code and outputs.  ``cache`` keeps what jobs
    share across calls."""
    if code != 0:
        return [f"{job.argv[0]} exited with {code}"], 0, 0
    plant = _load(job.plant)
    if job.infimal_out:
        return check_infimal(job, plant)
    if job.scaling_out:
        return check_synthesis(job, plant)
    if job.supervisor not in cache:
        # the supervisor's marginals fix the exact simulation targets
        marginals = scaling_from_supervisor(loads_supervisor_map(_read(job.supervisor)))
        cache[job.supervisor] = controlled_automaton(plant, marginals)
    return check_report(stdout, cache[job.supervisor], job.trials)


def check_synthesis(job, plant) -> Result:
    """The scaling map realizes the spec exactly, and equals the
    marginals of the roulette supervisor written with it."""
    spec = _load(job.spec)
    scaling = loads_scaling_map(_read(job.scaling_out))
    marginals = scaling_from_supervisor(loads_supervisor_map(_read(job.supervisor)))
    problems = []
    if not language_equivalent(controlled_automaton(plant, scaling), spec):
        problems.append("controlled language differs from the spec")
    if marginals.vectors != scaling.vectors or marginals.default != scaling.default:
        problems.append("supervisor marginals differ from the scaling map")
    return problems, scaling.classes.count, len(scaling.classes.trans)


def check_report(tsv: str, controlled, trials: int) -> Result:
    """Root count equals the trials, and each row's target equals the
    controlled language value at the report's precision."""
    lines = tsv.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        return ["simulate report has no header"], 0, 0
    rows = [line.split("\t") for line in lines[1:]]
    if not rows or rows[0][0] != "eps" or int(rows[0][1]) != trials:
        return [f"simulate report root count is not {trials}"], 0, 0
    problems = []
    for name, _count, _empirical, target, _stderr in rows:
        word = () if name == "eps" else tuple(name.split("."))
        exact = controlled.eval_language(word)
        if f"{float(exact.magnitude):.6g}" != target:
            problems.append(f"target of {name} is {target}, exact value {exact}")
    return problems, len(rows), len(rows) - 1


def check_infimal(job, plant) -> Result:
    """The output contains the spec, lies within the plant, and is
    probabilistic controllable (and observable, on small plants)."""
    spec = _load(job.spec)
    out = _load(job.infimal_out)
    problems = []
    if not is_sublanguage(spec, out):
        problems.append("spec is not a sublanguage of the inf-pco output")
    if not is_sublanguage(out, plant):
        problems.append("inf-pco output is not a sublanguage of the plant")
    if not check_controllable(plant, out):
        problems.append("inf-pco output is not probabilistic controllable")
    if job.k <= OBSERVABILITY_CHECK_MAX_K and not check_observable(plant, out):
        problems.append("inf-pco output is not probabilistic observable")
    return problems, len(out.states), sum(1 for _ in out.transitions())
