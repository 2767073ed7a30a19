"""Acceptance suite: one test (and one printed PASS/FAIL line) per
criterion.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines on a passing run."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from pdesctl import (
    EpsProb,
    PatternDistribution,
    TrialConfig,
    build_tc,
    build_to,
    check_controllable,
    check_observable,
    controlled_automaton,
    controlled_xi,
    distribution_from_marginals,
    infimal_pipeline,
    language_equivalent,
    marginals_of,
    observation_classes,
    product,
    run_trials,
    scaling_from_spec,
    supervisor_from_scaling,
)
from conftest import (
    E,
    branch_plant,
    branch_spec,
    loop_plant,
    loop_spec,
    observation_scaled_spec,
    random_alphabet,
    random_plant,
    random_scaling_map,
    random_subspec,
    robot_plant,
    robot_spec,
)
from oracles import brute_controllable, brute_observable

F = Fraction


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_robot_example_suite():
    with criterion(1, "worked five-event example: checks, scaling, supervisor"):
        start = time.perf_counter()
        plant, spec = robot_plant(), robot_spec()
        assert check_controllable(plant, spec).holds

        partial_plant = robot_plant(("s1", "s2"))
        partial_spec = robot_spec(("s1", "s2"))
        verdict = check_observable(partial_plant, partial_spec)
        assert not verdict.holds
        w = verdict.witness
        assert set(w.strings) == {("s3",), ("s5",)}
        assert w.event == "s1"
        assert {w.lhs, w.rhs} == {E(2, 5), E(1, 2)}

        assert check_observable(plant, spec).holds

        scaling = scaling_from_spec(plant, spec)
        hot = scaling.classes.locate(("s3",))
        assert scaling.vectors[hot] == (F(4, 5), F(1), F(1), F(1), F(1))
        for cls, vec in scaling.vectors.items():
            if cls != hot:
                assert vec == (F(1),) * 5
        assert scaling.default == (F(1),) * 5
        assert scaling.classes.locate(("s2", "s1", "s3")) == hot
        assert scaling.classes.locate(("s3", "s2")) != hot

        sup = supervisor_from_scaling(scaling)
        assert marginals_of(sup.dists[hot], 2, 5) == scaling.vectors[hot]
        assert sup.dists[hot].support() == [(2, F(1, 5)), (3, F(4, 5))]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_uncontrollable_drift_shortest_witness():
    with criterion(2, "uncontrollable probability drift found with shortest witness"):
        verdict = check_controllable(loop_plant(), loop_spec())
        assert not verdict.holds
        w = verdict.witness
        assert w.strings == (("s1",),)
        assert w.event == "s3"
        assert {w.lhs, w.rhs} == {E(1, 2), E(1, 4)}


def test_criterion_3_observation_conflict_witness():
    with criterion(3, "observation-equivalent strings with conflicting products"):
        verdict = check_observable(loop_plant(), loop_spec())
        assert not verdict.holds
        w = verdict.witness
        assert set(w.strings) == {("s1",), ()}
        assert w.event == "s2"
        assert {w.lhs, w.rhs} == {E(0), E(1, 20)}


BRANCH_GOLDEN = [
    ((), "s2", F(1, 10)),
    ((), "s3", F(2, 5)),
    (("s1",), "s2", F(1, 4)),
    (("s1",), "s3", F(1, 2)),
    (("s1", "s2"), "s2", F(1, 2)),
    (("s1", "s2", "s2"), "s3", F(1, 2)),
    (("s1", "s2", "s2", "s3"), "s2", F(3, 4)),
    (("s3",), "s2", F(1, 2)),
    (("s3", "s2"), "s3", F(1, 2)),
    (("s3", "s2", "s3"), "s2", F(3, 5)),
]


def test_criterion_4_infimal_pipeline_golden_output():
    with criterion(4, "infimal superlanguage pipeline reproduces the expected automaton"):
        plant, spec = branch_plant(), branch_spec()
        res = infimal_pipeline(plant, spec)
        tilde = res.result
        for word, event, expect in BRANCH_GOLDEN:
            lw = tilde.eval_language(word)
            le = tilde.eval_language(word + (event,))
            assert not lw.is_zero, word
            ratio = le / lw
            assert ratio.is_ordinary, (word, event)
            assert ratio == EpsProb(expect), (word, event, str(ratio))
        # ordinary transitions beyond the listed table stay consistent on
        # the second lap of each loop
        second_lap = tilde.eval_language(("s3", "s2", "s3", "s2", "s3"))
        first_lap = tilde.eval_language(("s3", "s2", "s3", "s2"))
        assert second_lap / first_lap == E(2, 5)
        assert check_controllable(plant, tilde).holds
        assert check_observable(plant, tilde).holds


def test_criterion_5_pattern_distribution_properties():
    with criterion(5, "scaling-vector round trips and one-step control values"):
        rng = random.Random(501)
        for _ in range(200):
            m = rng.randint(0, 6)
            n = m + rng.randint(1, 3)
            vec = tuple(F(rng.randint(0, 12), 12) for _ in range(m)) + (F(1),) * (n - m)
            dist = distribution_from_marginals(vec, m, n)
            assert marginals_of(dist, m, n) == vec

        checked = 0
        while checked < 200:
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            classes = observation_classes(plant)
            m, n = alphabet.m, alphabet.n
            dists = {}
            for cls in range(classes.count):
                weights = [rng.randint(0, 5) for _ in range(2**m)]
                if sum(weights) == 0:
                    weights[-1] = 1
                total = sum(weights)
                dists[cls] = PatternDistribution(m, {j: F(w, total) for j, w in enumerate(weights)})
            from pdesctl import SupervisorMap

            sup = SupervisorMap(classes, dists)
            margins = {cls: marginals_of(d, m, n) for cls, d in dists.items()}
            frontier = [((), plant.initial)]
            for _ in range(4):
                nxt = []
                for word, state in frontier:
                    cls = sup.classes.locate(word)
                    for i, e in enumerate(alphabet.events):
                        expect = plant.rho(state, e) * EpsProb(margins[cls][i])
                        assert controlled_xi(plant, sup, word, e) == expect
                        if not plant.rho(state, e).is_zero:
                            nxt.append((word + (e,), plant.target(state, e)))
                frontier = nxt
            checked += 1


def test_criterion_6_synthesis_round_trip():
    with criterion(6, "synthesis round trip on achievable specifications"):
        rng = random.Random(601)
        for _ in range(100):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            scaling = random_scaling_map(rng, plant)
            spec = controlled_automaton(plant, scaling)
            rebuilt = controlled_automaton(plant, scaling_from_spec(plant, spec))
            assert language_equivalent(rebuilt, spec)


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(701)
    suite = []
    for _ in range(500):
        alphabet = random_alphabet(rng, max_events=4)
        plant = random_plant(rng, alphabet, max_states=5)
        spec = random_subspec(rng, plant)
        suite.append((plant, spec))
    return suite


def test_criterion_7_differential_verification(random_suite):
    with criterion(7, "decision procedures agree with definitional brute force"):
        disagreements = 0
        for plant, spec in random_suite:
            depth = len(plant.states) * len(spec.states)
            if check_controllable(plant, spec).holds != brute_controllable(plant, spec, depth).holds:
                disagreements += 1
            if check_observable(plant, spec).holds != brute_observable(plant, spec, depth).holds:
                disagreements += 1
        assert disagreements == 0


def test_criterion_8_closure_under_product():
    with criterion(8, "controllability/observability closed under product"):
        rng = random.Random(801)
        violations = 0
        for _ in range(200):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            c1 = observation_scaled_spec(rng, plant)
            c2 = observation_scaled_spec(rng, plant)
            if not check_controllable(plant, product(c1, c2)).holds:
                violations += 1
            o1 = observation_scaled_spec(rng, plant, scale_uncontrollable=True)
            o2 = observation_scaled_spec(rng, plant, scale_uncontrollable=True)
            if not check_observable(plant, product(o1, o2)).holds:
                violations += 1
        assert violations == 0


def test_criterion_9_monte_carlo():
    with criterion(9, "Monte-Carlo estimate matches the synthesized target"):
        start = time.perf_counter()
        plant, spec = robot_plant(), robot_spec()
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        trials = 100_000
        report = run_trials(plant, sup, TrialConfig(trials=trials, max_depth=2, seed=2024))
        row = report.rows[("s3", "s1")]
        target = 0.1
        assert row.target == F(1, 10)
        stderr = (target * (1 - target) / trials) ** 0.5
        assert abs(row.empirical - target) <= 3 * stderr
        assert time.perf_counter() - start < 10.0


def test_criterion_10_testing_automaton_size_bounds(random_suite):
    with criterion(10, "testing automata stay within the stated size bounds"):
        for plant, spec in random_suite:
            nx, nq = len(plant.states), len(spec.states)
            assert build_tc(plant, spec).state_count <= nx * nq + 1
            assert build_to(plant, spec).state_count <= nx**2 * nq**2 + 1
