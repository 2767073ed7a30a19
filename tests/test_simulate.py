import random
from fractions import Fraction
from pathlib import Path

import pytest

from pdesctl import (
    Alphabet,
    InvariantError,
    ScalingMap,
    TrialConfig,
    controlled_automaton,
    controlled_language_value,
    observation_classes,
    run_trials,
    scaling_from_spec,
    scaling_from_supervisor,
    supervisor_from_scaling,
)
from conftest import loop_plant, loop_spec, random_fraction, random_plant, random_subspec

F = Fraction
DATA = Path(__file__).parent / "data"


def full_supervisor(plant):
    classes = observation_classes(plant)
    return supervisor_from_scaling(ScalingMap(classes, {}))


class TestConfig:
    def test_rejects_bad_config(self):
        with pytest.raises(InvariantError):
            TrialConfig(trials=0, max_depth=2, seed=1)
        with pytest.raises(InvariantError):
            TrialConfig(trials=10, max_depth=0, seed=1)


class TestDeterminism:
    def test_same_seed_same_report(self, robot):
        plant, _ = robot
        sup = full_supervisor(plant)
        cfg = TrialConfig(trials=500, max_depth=3, seed=42)
        a = run_trials(plant, sup, cfg)
        b = run_trials(plant, sup, cfg)
        assert a == b

    def test_different_seeds_differ(self, robot):
        plant, _ = robot
        sup = full_supervisor(plant)
        a = run_trials(plant, sup, TrialConfig(trials=500, max_depth=3, seed=1))
        b = run_trials(plant, sup, TrialConfig(trials=500, max_depth=3, seed=2))
        assert a != b


class TestCounts:
    def test_prefix_counts_monotone(self, robot):
        plant, _ = robot
        sup = full_supervisor(plant)
        report = run_trials(plant, sup, TrialConfig(trials=2000, max_depth=4, seed=7))
        for word, row in report.rows.items():
            extension_total = sum(
                r.count for w, r in report.rows.items() if len(w) == len(word) + 1 and w[: len(word)] == word
            )
            assert extension_total <= row.count

    def test_root_counts_all_trials(self, robot):
        plant, _ = robot
        sup = full_supervisor(plant)
        report = run_trials(plant, sup, TrialConfig(trials=100, max_depth=2, seed=3))
        assert report.rows[()].count == 100
        assert report.rows[()].target == 1


class TestConvergence:
    def test_full_supervisor_matches_plant_language(self, robot):
        plant, _ = robot
        sup = full_supervisor(plant)
        trials = 20000
        report = run_trials(plant, sup, TrialConfig(trials=trials, max_depth=2, seed=11))
        for word, row in report.rows.items():
            target = plant.eval_language(word).magnitude
            assert row.target == target
            stderr = (float(target) * (1 - float(target)) / trials) ** 0.5
            assert abs(row.empirical - float(target)) <= 3 * stderr + 1e-12

    def test_synthesized_supervisor_hits_spec(self, robot):
        plant, spec = robot
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        trials = 20000
        report = run_trials(plant, sup, TrialConfig(trials=trials, max_depth=2, seed=13))
        word = ("s3", "s1")
        target = spec.eval_language(word).magnitude
        assert target == F(1, 10)
        assert report.rows[word].target == target
        stderr = (float(target) * (1 - float(target)) / trials) ** 0.5
        assert abs(report.rows[word].empirical - float(target)) <= 3 * stderr

    def test_targets_are_controlled_language_values(self, robot):
        plant, spec = robot
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        report = run_trials(plant, sup, TrialConfig(trials=300, max_depth=3, seed=17))
        for word, row in report.rows.items():
            assert row.target == controlled_language_value(plant, sup, word).magnitude


class TestRejections:
    def test_rejects_infinitesimal_probabilities(self, branches):
        plant, spec = branches
        from reference_infimal import reference_infimal_pipeline

        h_n = reference_infimal_pipeline(plant, spec).spec_normal
        sup = full_supervisor(h_n)
        with pytest.raises(InvariantError):
            run_trials(h_n, sup, TrialConfig(trials=10, max_depth=2, seed=1))

    def test_rejects_alphabet_mismatch(self, robot, branches):
        sup = full_supervisor(branches[0])
        with pytest.raises(InvariantError):
            run_trials(robot[0], sup, TrialConfig(trials=10, max_depth=2, seed=1))


class TestReportFormat:
    def test_tsv_shape(self, robot):
        plant, _ = robot
        sup = full_supervisor(plant)
        text = run_trials(plant, sup, TrialConfig(trials=50, max_depth=2, seed=5)).to_tsv()
        lines = text.strip().splitlines()
        assert lines[0] == "string\tcount\tempirical\ttarget\tstderr"
        assert lines[1].startswith("eps\t50\t")
        assert all(len(line.split("\t")) == 5 for line in lines[1:])


class TestExactTargets:
    """Every reported target is the controlled language value, checked
    against the controlled automaton of the supervisor's marginals."""

    def test_random_plants_and_maps(self):
        rng = random.Random(2718)
        outside = zero_factor = 0
        for case in range(40):
            m = rng.randint(1, 4)
            events = [f"e{i}" for i in range(m + rng.randint(1, 2))]
            observable = [e for e in events if rng.random() < 0.6] or [events[0]]
            alphabet = Alphabet.make(events[:m], events[m:], observable)
            plant = random_plant(rng, alphabet, max_states=6)
            # classes of a random sub-spec: plant strings can leave them
            classes = observation_classes(plant, random_subspec(rng, plant))

            def vector():
                return tuple(random_fraction(rng) for _ in range(m)) + (F(1),) * (len(events) - m)

            vectors = {cls: vector() for cls in range(classes.count) if rng.random() < 0.8}
            default = vector()
            sup = supervisor_from_scaling(ScalingMap(classes, vectors, default))
            report = run_trials(plant, sup, TrialConfig(trials=150, max_depth=6, seed=case))
            controlled = controlled_automaton(plant, scaling_from_supervisor(sup))
            for word, row in report.rows.items():
                assert row.target == controlled.eval_language(word).magnitude, (case, word)
                outside += classes.locate(word) is None
            zero_factor += any(0 in v[:m] for v in [default, *vectors.values()])
        assert outside and zero_factor


class TestGolden:
    def test_report_bytes(self):
        """A seeded report with partial observation, unmapped classes and
        observations outside the mapped classes, pinned byte for byte."""
        plant = loop_plant()
        classes = observation_classes(plant, loop_spec())
        vectors = {0: (F(3, 4), F(1, 3), F(1)), 1: (F(0), F(1, 2), F(1))}
        sup = supervisor_from_scaling(ScalingMap(classes, vectors, (F(1, 2), F(2, 3), F(1))))
        report = run_trials(plant, sup, TrialConfig(trials=400, max_depth=5, seed=2024))
        assert report.to_tsv() == (DATA / "simulate_loop_seed2024.tsv").read_text()
