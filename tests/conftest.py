"""Shared fixtures: the worked examples and random model generators."""

import importlib.util
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from pdesctl import EPS, Alphabet, EpsProb, Pdes, explore, product

F = Fraction

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def load_gen():
    """perfbench/gen.py as a module, loaded from its source."""
    if "perfbench_gen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
        module = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up
    return sys.modules["perfbench_gen"]


def drop_transitions(pdes, keys):
    """Copy without the given (state, event) transitions, trimming whatever
    becomes unreachable."""
    trans = pdes.transition_map()
    for key in keys:
        del trans[key]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Pdes(pdes.alphabet, pdes.initial, trans, on_unreachable="trim")


def E(n, d=1):
    return EpsProb(Fraction(n, d))


def build(alphabet, initial, triples):
    """triples: (src, event, dst, prob) with prob an EpsProb."""
    trans = {(s, e): (d, p) for s, e, d, p in triples}
    return Pdes(alphabet, initial, trans)


def project(alphabet, word):
    """The observation of a string: its observable events, in order."""
    for e in word:
        alphabet.index(e)  # rejects an unknown event
    return tuple(e for e in word if e in alphabet.observable)


def is_partition(cells, states):
    """Whether the cells are disjoint and cover exactly the states."""
    todo = set(states)
    for cell in cells:
        if not cell <= todo:
            return False
        todo -= cell
    return not todo


# -- patrol robot model: five events, two controllable turns ------------


def robot_alphabet(observable=("s1", "s2", "s3")):
    return Alphabet.make(["s1", "s2"], ["s3", "s4", "s5"], observable)


def robot_plant(observable=("s1", "s2", "s3")):
    a = robot_alphabet(observable)
    return build(a, "x0", [
        ("x0", "s3", "x1", E(1, 4)),
        ("x0", "s4", "x2", E(3, 8)),
        ("x0", "s5", "x3", E(3, 8)),
        ("x1", "s1", "x0", E(1, 2)),
        ("x1", "s2", "x0", E(1, 2)),
        ("x2", "s2", "x0", E(1)),
        ("x3", "s1", "x0", E(1)),
    ])


def robot_spec(observable=("s1", "s2", "s3")):
    a = robot_alphabet(observable)
    return build(a, "q0", [
        ("q0", "s3", "q1", E(1, 4)),
        ("q0", "s4", "q2", E(3, 8)),
        ("q0", "s5", "q3", E(3, 8)),
        ("q1", "s1", "q0", E(2, 5)),
        ("q1", "s2", "q0", E(1, 2)),
        ("q2", "s2", "q0", E(1)),
        ("q3", "s1", "q0", E(1)),
    ])


@pytest.fixture
def robot():
    return robot_plant(), robot_spec()


@pytest.fixture
def robot_partial():
    """Same models, but with the first uncontrollable event unobservable."""
    obs = ("s1", "s2")
    return robot_plant(obs), robot_spec(obs)


# -- two-loop model: uncontrollable probability drifts -------------------


def loop_alphabet():
    return Alphabet.make(["s1", "s2"], ["s3"], ["s2", "s3"])


def loop_plant():
    a = loop_alphabet()
    return build(a, "x0", [
        ("x0", "s1", "x1", E(1, 5)),
        ("x0", "s2", "x2", E(1, 5)),
        ("x0", "s3", "x2", E(2, 5)),
        ("x2", "s2", "x0", E(1)),
        ("x1", "s2", "x3", E(1, 2)),
        ("x1", "s3", "x3", E(1, 2)),
        ("x3", "s2", "x1", E(1)),
    ])


def loop_spec():
    a = loop_alphabet()
    return build(a, "q0", [
        ("q0", "s1", "q1", E(1, 5)),
        ("q1", "s2", "q2", E(1, 4)),
        ("q1", "s3", "q2", E(1, 4)),
        ("q2", "s2", "q3", E(1, 2)),
        ("q3", "s3", "q4", E(1, 4)),
        ("q4", "s2", "q1", E(3, 4)),
    ])


@pytest.fixture
def loops():
    return loop_plant(), loop_spec()


# -- two-branch model for the infimal pipeline ---------------------------


def branch_alphabet():
    return Alphabet.make(["s1", "s2"], ["s3"], ["s2", "s3"])


def branch_plant():
    a = branch_alphabet()
    return build(a, "g0", [
        ("g0", "s1", "g1", E(1, 5)),
        ("g0", "s2", "g5", E(1, 5)),
        ("g0", "s3", "g5", E(2, 5)),
        ("g1", "s2", "g2", E(1, 2)),
        ("g1", "s3", "g2", E(1, 2)),
        ("g2", "s2", "g3", E(1)),
        ("g3", "s2", "g4", E(1, 2)),
        ("g3", "s3", "g4", E(1, 2)),
        ("g4", "s2", "g1", E(1)),
        ("g5", "s2", "g6", E(1)),
        ("g6", "s2", "g7", E(1, 2)),
        ("g6", "s3", "g7", E(1, 2)),
        ("g7", "s2", "g0", E(4, 5)),
    ])


def branch_spec():
    a = branch_alphabet()
    return build(a, "h0", [
        ("h0", "s1", "h1", E(1, 5)),
        ("h1", "s2", "h2", E(1, 4)),
        ("h1", "s3", "h2", E(1, 4)),
        ("h2", "s2", "h3", E(1, 2)),
        ("h3", "s3", "h4", E(1, 4)),
        ("h4", "s2", "h1", E(3, 4)),
    ])


@pytest.fixture
def branches():
    return branch_plant(), branch_spec()


# -- random model generators ---------------------------------------------


def random_alphabet(rng, max_events=4):
    n = rng.randint(2, max_events)
    events = [f"e{i}" for i in range(n)]
    m = rng.randint(0, n - 1)
    observable = [e for e in events if rng.random() < 0.6]
    if not observable:
        observable = [events[-1]]
    return Alphabet.make(events[:m], events[m:], observable)


def random_plant(rng, alphabet, max_states=5):
    """Random accessible deterministic automaton with exact per-state
    liveness at most one (often exactly one)."""
    k = rng.randint(1, max_states)
    states = [f"n{i}" for i in range(k)]
    trans = {}
    for i, s in enumerate(states):
        events = [e for e in alphabet.events if rng.random() < 0.7]
        forward = None
        if i + 1 < len(states):
            # guarantee a chain forward so every state is reachable
            forward = rng.choice(alphabet.events)
            if forward not in events:
                events.append(forward)
        if not events:
            continue
        weights = [rng.randint(1, 6) for _ in events]
        denom = sum(weights) + rng.choice([0, 0, rng.randint(1, 5)])
        for j, e in enumerate(events):
            dst = states[i + 1] if e == forward else rng.choice(states)
            trans[(s, e)] = (dst, EpsProb(Fraction(weights[j], denom)))
    return Pdes(alphabet, states[0], trans, states=states)


def random_subspec(rng, plant, touch_uncontrollable=True):
    """Random probabilistic sublanguage generator: delete some transitions,
    lower some probabilities."""
    trans = {}
    for src, e, dst, p in plant.transitions():
        uncontrollable = e not in plant.alphabet.controllable
        if uncontrollable and not touch_uncontrollable:
            trans[(src, e)] = (dst, p)
            continue
        roll = rng.random()
        if roll < 0.25:
            continue  # delete
        if roll < 0.5:
            num = rng.randint(1, 4)
            den = rng.randint(num, 8)
            trans[(src, e)] = (dst, p * EpsProb(Fraction(num, den)))
        else:
            trans[(src, e)] = (dst, p)
    keep = set(explore([plant.initial], lambda s: [d for (x, _), (d, _) in trans.items() if x == s]))
    trans = {k: v for k, v in trans.items() if k[0] in keep}
    return Pdes(plant.alphabet, plant.initial, trans)


def random_fraction(rng, allow_zero=True, allow_one=True):
    choices = []
    if allow_zero:
        choices.append(Fraction(0))
    if allow_one:
        choices.append(Fraction(1))
    num = rng.randint(1, 7)
    den = rng.randint(num, 9)
    choices.append(Fraction(num, den))
    return rng.choice(choices)


def random_scaling_map(rng, plant):
    from pdesctl import ScalingMap, observation_classes

    classes = observation_classes(plant)
    m, n = plant.alphabet.m, plant.alphabet.n
    vectors = {}
    for cls in range(classes.count):
        vec = [random_fraction(rng) for _ in range(m)] + [Fraction(1)] * (n - m)
        vectors[cls] = tuple(vec)
    return ScalingMap(classes, vectors)


def observation_scaled_spec(rng, plant, scale_uncontrollable=False):
    """Spec built by scaling plant probabilities uniformly per observation
    class and event.  Always probabilistic observable; probabilistic
    controllable unless uncontrollable events are scaled."""
    from pdesctl import observation_classes

    classes = observation_classes(plant)
    factors = {}
    for cls in range(classes.count):
        for i, e in enumerate(plant.alphabet.events):
            if i < plant.alphabet.m:
                factors[(cls, e)] = random_fraction(rng)
            elif scale_uncontrollable:
                factors[(cls, e)] = random_fraction(rng, allow_zero=False)
            else:
                factors[(cls, e)] = Fraction(1)
    initial = (plant.initial, classes.initial)
    trans = {}
    queue = [initial]
    seen = {initial}
    while queue:
        x, cls = queue.pop(0)
        for e in plant.alphabet.events:
            rp = plant.rho(x, e)
            if rp.is_zero:
                continue
            p = rp * EpsProb(factors[(cls, e)])
            if p.is_zero:
                continue
            dst = (plant.target(x, e), classes.step(cls, e))
            trans[((x, cls), e)] = (dst, p)
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return Pdes(plant.alphabet, initial, trans)


def with_eps(rng, pdes, share):
    """A copy with some controllable probabilities made infinitesimal."""
    trans = {}
    for src, e, dst, p in pdes.transitions():
        if e in pdes.alphabet.controllable and rng.random() < share:
            p = p * EpsProb(F(1, rng.randint(1, 3)), 1)
        trans[(src, e)] = (dst, p)
    return Pdes(pdes.alphabet, pdes.initial, trans)


def eps_scaled(rng, spec):
    """The spec with about a third of its transitions scaled by EPS."""
    trans = {
        (src, e): (dst, p * EPS if rng.random() < 0.35 else p)
        for src, e, dst, p in spec.transitions()
    }
    return Pdes(spec.alphabet, spec.initial, trans, states=spec.states)


def synthesis_pair(rng, i):
    """A plant and spec of one of ten kinds, cycling with i: achievable,
    scaled uncontrollable probabilities, sub-specs keeping or touching the
    uncontrollable edges, swapped, with infinitesimal spec or plant
    probabilities, unfolded by a product with the plant, achievable but
    for some uncontrollable edges dropped, and scaled uncontrollable
    probabilities plus infinitesimal edges."""
    plant = random_plant(rng, random_alphabet(rng, max_events=4), max_states=2 + i % 4)
    kind = i % 10
    if kind == 0:
        return plant, observation_scaled_spec(rng, plant)
    if kind == 1:
        return plant, observation_scaled_spec(rng, plant, scale_uncontrollable=True)
    if kind in (2, 3):
        return plant, random_subspec(rng, plant, touch_uncontrollable=kind == 3)
    if kind == 4:
        return observation_scaled_spec(rng, plant), plant
    if kind == 5:
        return plant, with_eps(rng, observation_scaled_spec(rng, plant), 0.5)
    if kind == 6:
        eps_plant = with_eps(rng, plant, 0.3)
        return eps_plant, random_subspec(rng, eps_plant, touch_uncontrollable=False)
    if kind == 7:
        return plant, product(observation_scaled_spec(rng, plant), plant)
    if kind == 8:
        spec = observation_scaled_spec(rng, plant)
        uncontrollable = [(src, e) for src, e, _, _ in spec.transitions() if e not in plant.alphabet.controllable]
        return plant, drop_transitions(spec, [key for key in uncontrollable if rng.random() < 0.3])
    # infinitesimal edges, some where the plant has none, on top of scaled
    # uncontrollable probabilities: a sublanguage failure after a mismatch
    spec = observation_scaled_spec(rng, plant, scale_uncontrollable=True)
    trans = spec.transition_map()
    for s in spec.states:
        for e in plant.alphabet.events:
            if (s, e) not in trans and rng.random() < 0.2:
                trans[(s, e)] = (rng.choice(spec.states), EpsProb(F(1, 4), 1))
    return plant, Pdes(plant.alphabet, spec.initial, trans)


def walk_pairs(seed, count):
    """Seeded (a, b) pairs of four kinds, cycling: a sub-spec under its
    plant, the plant over its sub-spec (mostly failing), a sub-spec
    against a relabelled copy of itself, and two unrelated automata.
    Every third pair's sub-spec has infinitesimal probabilities."""
    rng = random.Random(seed)
    for i in range(count):
        alphabet = random_alphabet(rng, max_events=3)
        plant = random_plant(rng, alphabet, max_states=2 + i % 5)
        spec = random_subspec(rng, plant, touch_uncontrollable=i % 2 == 0)
        if i % 3 == 0:
            spec = eps_scaled(rng, spec)
        kind = i % 4
        if kind == 0:
            yield spec, plant
        elif kind == 1:
            yield plant, spec
        elif kind == 2:
            yield spec, spec.rename({s: ("r", s) for s in spec.states})
        else:
            yield spec, random_plant(rng, alphabet, max_states=2 + i % 5)


def eps_plant_pairs(seed, count):
    """Seeded pairs on plants with some infinitesimal controllable
    probabilities, every third spec with infinitesimal values too."""
    rng = random.Random(seed)
    for i in range(count):
        alphabet = random_alphabet(rng, max_events=3)
        plant = with_eps(rng, random_plant(rng, alphabet, max_states=2 + i % 4), 0.4)
        spec = random_subspec(rng, plant, touch_uncontrollable=i % 2 == 0)
        if i % 3 == 0:
            spec = eps_scaled(rng, spec)
        yield plant, spec


def seeded_pairs(seed=251, count=600):
    """The robot and branches pairs, then seeded pairs on plants with
    ordinary probabilities, a third of them with infinitesimal spec
    values."""
    rng = random.Random(seed)
    pairs = [(robot_plant(), robot_spec()), (branch_plant(), branch_spec())]
    for i in range(count):
        alphabet = random_alphabet(rng, max_events=3)
        plant = random_plant(rng, alphabet, max_states=2 + i % 5)
        spec = random_subspec(rng, plant, touch_uncontrollable=i % 2 == 0)
        if i % 3 == 0:
            spec = eps_scaled(rng, spec)
        pairs.append((plant, spec))
    return pairs


def wild_pair(rng):
    """A random plant with some infinitesimal probabilities, and a spec
    that deletes, lowers (also by infinitesimal factors) and sometimes
    adds transitions the plant lacks, optionally unfolded."""
    alphabet = random_alphabet(rng, max_events=5)
    plant = random_plant(rng, alphabet, max_states=5)
    trans = {}
    for src, e, dst, p in plant.transitions():
        if rng.random() < 0.2:
            p = EpsProb(F(rng.randint(1, 3), 4), rng.randint(1, 2))
        trans[(src, e)] = (dst, p)
    plant = Pdes(alphabet, plant.initial, trans, states=plant.states)
    spec = {}
    for src, e, dst, p in plant.transitions():
        roll = rng.random()
        if roll < 0.25:
            continue
        if roll < 0.45:
            p = p * E(rng.randint(1, 4), rng.randint(4, 8))
        elif roll < 0.55:
            p = p * EpsProb(F(1, rng.randint(1, 3)), rng.randint(1, 2))
        spec[(src, e)] = (dst, p)
    if rng.random() < 0.4:
        for s in plant.states:
            for e in alphabet.events:
                if (s, e) not in spec and plant.step(s, e) is None and rng.random() < 0.15:
                    p = EpsProb(F(1, rng.randint(2, 6)), rng.choice([0, 0, 1]))
                    spec[(s, e)] = (rng.choice(plant.states), p)
    keep = set(explore([plant.initial], lambda s: [d for (x, _), (d, _) in spec.items() if x == s]))
    spec = {k: v for k, v in spec.items() if k[0] in keep}
    spec = Pdes(alphabet, plant.initial, spec, check_liveness=False)
    if rng.random() < 0.15:
        spec = product(spec, plant)
    return plant, spec
