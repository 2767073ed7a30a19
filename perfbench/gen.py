"""Seeded instance generator for the benchmark's three workload families.

Uses only the public ``pdesctl`` API.  ``build(workload, seed, directory)``
writes the model files of one batch into ``directory`` and returns the
batch as a list of `Job` values.  Every random choice comes from
``random.Random`` seeded with a string, so one seed gives byte-identical
files under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import random
import warnings
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from pdesctl import (
    Alphabet,
    EpsProb,
    Pdes,
    ScalingMap,
    dumps_automaton,
    dumps_supervisor_map,
    observation_classes,
    supervisor_from_scaling,
)

# Batch sizes per workload.  "tiny" is the self-test scale.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "synth": dict(jobs=176, k=(6, 13), spec_states=(2, 6)),
        "infimal": dict(jobs=700, k=(4, 4)),
        "simulate": dict(jobs=144, plants=72, k=(38, 42), trials=300, depth=8),
    },
    "tiny": {
        "synth": dict(jobs=3, k=(5, 6), spec_states=(2, 6)),
        "infimal": dict(jobs=3, k=(4, 5)),
        "simulate": dict(jobs=3, plants=2, k=(6, 8), trials=20, depth=8),
    },
}


@dataclass
class Job:
    """One benchmark job: a CLI call, plus what the correctness checks need
    to know about it."""

    name: str
    argv: List[str]
    plant: str
    k: int
    spec: Optional[str] = None
    scaling_out: Optional[str] = None
    supervisor: Optional[str] = None  # written by synthesize or read by simulate
    infimal_out: Optional[str] = None
    trials: Optional[int] = None
    outputs: List[str] = field(default_factory=list)


# e0..e5: e0-e2 controllable, e3-e5 uncontrollable, e2 and e5 unobservable
ALPHABET = Alphabet.make(["e0", "e1", "e2"], ["e3", "e4", "e5"], ["e0", "e1", "e3", "e4"])


def random_plant(rng: random.Random, k: int) -> Pdes:
    """Accessible deterministic plant over ALPHABET: each event is present
    at a state with probability 0.5, plus a forward chain edge to the next
    state; probabilities are integer weights over (their sum + 0..3)."""
    states = [f"x{i}" for i in range(k)]
    trans = {}
    for i, s in enumerate(states):
        events = [e for e in ALPHABET.events if rng.random() < 0.5]
        forward = None
        if i + 1 < k:
            forward = rng.choice(ALPHABET.events)
            if forward not in events:
                events.append(forward)
        if not events:
            continue
        weights = [rng.randint(1, 6) for _ in events]
        denom = sum(weights) + rng.randint(0, 3)
        for e, w in zip(events, weights):
            dst = states[i + 1] if e == forward else rng.choice(states)
            trans[(s, e)] = (dst, EpsProb(Fraction(w, denom)))
    return Pdes(ALPHABET, states[0], trans, states=states)


def random_factor(rng: random.Random) -> Fraction:
    num = rng.randint(1, 7)
    return rng.choice([Fraction(0), Fraction(1), Fraction(num, rng.randint(num, 9))])


def random_scaling_map(rng: random.Random, plant: Pdes) -> ScalingMap:
    """One random factor per (observation class, controllable event)."""
    classes = observation_classes(plant)
    m, n = plant.alphabet.m, plant.alphabet.n
    vectors = {
        cls: tuple(random_factor(rng) for _ in range(m)) + (Fraction(1),) * (n - m)
        for cls in range(classes.count)
    }
    return ScalingMap(classes, vectors)


def observation_scaled_spec(rng: random.Random, plant: Pdes) -> Pdes:
    """Scale every controllable plant probability by one random factor per
    (observation class, event); uncontrollable ones are kept.  The result
    is probabilistic controllable and observable, hence achievable."""
    classes = observation_classes(plant)
    m = plant.alphabet.m
    factors = {
        (cls, e): random_factor(rng) if i < m else Fraction(1)
        for cls in range(classes.count)
        for i, e in enumerate(plant.alphabet.events)
    }
    initial = (plant.initial, classes.initial)
    trans = {}
    queue = deque([initial])
    seen = {initial}
    while queue:
        x, cls = queue.popleft()
        for e in plant.alphabet.events:
            edge = plant.step(x, e)
            if edge is None or factors[(cls, e)] == 0:
                continue
            dst = (edge[0], classes.step(cls, e))
            trans[((x, cls), e)] = (dst, edge[1] * EpsProb(factors[(cls, e)]))
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return Pdes(plant.alphabet, initial, trans).canonical_names("q")


def achievable_pair(rng: random.Random, k: int, spec_states) -> Tuple[Pdes, Pdes]:
    """A plant with k states and an observation-scaled spec with between
    ``spec_states[0] * k`` and ``spec_states[1] * k`` states; other draws
    are discarded.  The spec's size sets the work of synthesis and is
    heavy-tailed: at k = 13 its median is 83 and its maximum over 200 draws
    352.  Bounding it keeps a batch's work, and its median and tail job,
    nearly the same from seed to seed."""
    lo, hi = spec_states
    while True:
        plant = random_plant(rng, k)
        spec = observation_scaled_spec(rng, plant)
        if lo * k <= len(spec.states) <= hi * k:
            return plant, spec


def random_subspec(rng: random.Random, plant: Pdes) -> Pdes:
    """Delete about a quarter of the plant's transitions and lower the
    probability of another quarter, controllable or not; the result is a
    sublanguage of the plant and as a rule unachievable."""
    trans = {}
    for src, e, dst, p in plant.transitions():
        roll = rng.random()
        if roll < 0.25:
            continue
        if roll < 0.5:
            num = rng.randint(1, 4)
            p = p * EpsProb(Fraction(num, rng.randint(num, 8)))
        trans[(src, e)] = (dst, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = Pdes(plant.alphabet, plant.initial, trans, on_unreachable="trim")
    return spec.canonical_names("q")


def cycle(bounds, i: int) -> int:
    """The i-th value of lo, lo+1, ..., hi, lo, ...: every batch has the
    same mix of sizes, which keeps batch totals steady across seeds."""
    lo, hi = bounds
    return lo + i % (hi - lo + 1)


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def build(workload: str, seed: int, directory: str, size: str = "full",
          tick: Callable[[], None] = lambda: None) -> List[Job]:
    """Write one batch of ``workload`` for ``seed`` into ``directory``.
    ``tick`` is called after each plant or job is written."""
    cfg = SIZES[size][workload]

    def path(name: str) -> str:
        return os.path.join(directory, name)

    def rng_for(i) -> random.Random:
        return random.Random(f"{workload}:{seed}:{i}")

    if workload == "simulate":
        plants = []
        for p in range(cfg["plants"]):
            rng = rng_for(f"plant{p}")
            plant = random_plant(rng, rng.randint(*cfg["k"]))
            sup = supervisor_from_scaling(random_scaling_map(rng, plant))
            plant_path = _write(path(f"plant{p}.pda"), dumps_automaton(plant))
            sup_path = _write(path(f"sup{p}.map"), dumps_supervisor_map(sup))
            plants.append((plant_path, sup_path, len(plant.states)))
            tick()
        jobs = []
        for i in range(cfg["jobs"]):
            plant_path, sup_path, k = plants[i % len(plants)]
            argv = ["simulate", "--plant", plant_path, "--supervisor", sup_path,
                    "--trials", str(cfg["trials"]), "--depth", str(cfg["depth"]), "--seed", str(i)]
            jobs.append(Job(f"sim{i}", argv, plant_path, k, supervisor=sup_path,
                            trials=cfg["trials"]))
        return jobs

    jobs = []
    for i in range(cfg["jobs"]):
        rng = rng_for(i)
        plant_path, spec_path = path(f"plant{i}.pda"), path(f"spec{i}.pda")
        if workload == "infimal":
            plant = random_plant(rng, cycle(cfg["k"], i))
            spec = random_subspec(rng, plant)
        else:
            plant, spec = achievable_pair(rng, cycle(cfg["k"], i), cfg["spec_states"])
        k = len(plant.states)
        _write(plant_path, dumps_automaton(plant))
        _write(spec_path, dumps_automaton(spec))
        if workload == "infimal":
            out = path(f"inf{i}.pda")
            argv = ["inf-pco", plant_path, spec_path, "--out", out]
            jobs.append(Job(f"inf{i}", argv, plant_path, k, spec=spec_path, infimal_out=out,
                            outputs=[out]))
            tick()
            continue
        scaling_out, sup_out = path(f"scaling{i}.map"), path(f"sup{i}.map")
        argv = ["synthesize", plant_path, spec_path,
                "--scaling-out", scaling_out, "--supervisor-out", sup_out]
        jobs.append(Job(f"synth{i}", argv, plant_path, k, spec=spec_path,
                        scaling_out=scaling_out, supervisor=sup_out,
                        outputs=[scaling_out, sup_out]))
        tick()
    return jobs
