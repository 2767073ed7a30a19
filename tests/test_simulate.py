import random
from fractions import Fraction
from pathlib import Path

import pytest

from pdesctl import (
    Alphabet,
    InvariantError,
    PatternDistribution,
    ScalingMap,
    SupervisorMap,
    TrialConfig,
    controlled_automaton,
    controlled_language_value,
    observation_classes,
    run_trials,
    scaling_from_spec,
    scaling_from_supervisor,
    supervisor_from_scaling,
)
from pdesctl import simulate
from conftest import E, build, loop_alphabet, loop_plant, loop_spec, random_fraction, random_plant, random_subspec
from reference_simulate import BitPool, reference_trials

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


class TestTrialKeying:
    """Each trial is drawn from its own key (seed, trial index), so a run
    of N trials is the first N trials of any longer run."""

    def test_fewer_trials_count_no_more(self, robot):
        plant, spec = robot
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        reports = {n: run_trials(plant, sup, TrialConfig(trials=n, max_depth=4, seed=31)) for n in (50, 120, 400)}
        for n, m in [(50, 120), (50, 400), (120, 400)]:
            short, long = reports[n].rows, reports[m].rows
            assert set(short) <= set(long)
            for word, row in short.items():
                assert row.count <= long[word].count, (n, m, word)

    def test_one_more_trial_adds_one_path(self):
        plant = loop_plant()
        classes = observation_classes(plant, loop_spec())
        sup = supervisor_from_scaling(ScalingMap(classes, {0: (F(3, 4), F(1, 3), F(1))}, (F(1, 2), F(2, 3), F(1))))
        before = run_trials(plant, sup, TrialConfig(trials=30, max_depth=6, seed=8)).rows
        for n in range(30, 60):
            after = run_trials(plant, sup, TrialConfig(trials=n + 1, max_depth=6, seed=8)).rows
            risen = []
            for word, row in after.items():
                old = before[word].count if word in before else 0
                assert row.count - old in (0, 1), (n, word)
                if row.count > old:
                    risen.append(word)
            assert set(before) <= set(after)
            path = max(risen, key=len)
            assert sorted(risen, key=len) == [path[:i] for i in range(len(path) + 1)], n
            before = after


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
        with pytest.raises(InvariantError, match="scaling map alphabet does not match the plant"):
            controlled_automaton(robot[0], ScalingMap(observation_classes(branches[0]), {}))
        wrong_m = PatternDistribution(sup.alphabet.m + 1, {0: F(1)})
        with pytest.raises(InvariantError, match="pattern distribution does not match the alphabet"):
            SupervisorMap(sup.classes, {sup.classes.initial: wrong_m})


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

    def test_strings_thirty_events_deep(self):
        """At depth 30 and beyond the unreduced integer products are at
        their largest; each target is still the exact controlled value."""
        alphabet = loop_alphabet()
        plant = build(alphabet, "x0", [
            ("x0", "s1", "x1", E(1, 3)),
            ("x0", "s3", "x0", E(2, 3)),
            ("x1", "s2", "x0", E(3, 7)),
            ("x1", "s3", "x1", E(4, 7)),
        ])
        classes = observation_classes(plant, loop_spec())
        vectors = {0: (F(5, 6), F(7, 8), F(1)), 2: (F(9, 10), F(1), F(1))}
        sup = supervisor_from_scaling(ScalingMap(classes, vectors, (F(11, 12), F(12, 13), F(1))))
        report = run_trials(plant, sup, TrialConfig(trials=40, max_depth=36, seed=30))
        deep = [word for word in report.rows if len(word) >= 30]
        assert len(deep) >= 10
        assert any(classes.locate(word) is None for word in deep)
        for word, row in report.rows.items():
            assert row.target.__class__ is F
            assert row.target == controlled_language_value(plant, sup, word).magnitude, word


def big_roulette(rng, m, big):
    """A roulette over random patterns whose weights share the denominator
    ``big``: drawing below it takes more bits than one hash block holds."""
    patterns = rng.sample(range(2**m), rng.randint(1, 2**m))
    cuts = sorted(rng.randrange(1, big) for _ in patterns[1:])
    weights = [b - a for a, b in zip([0] + cuts, cuts + [big])]
    return PatternDistribution(m, {j: F(w, big) for j, w in zip(patterns, weights)})


def big_rows(plant, big):
    """The plant with each probability rounded down to a multiple of
    1/big, so each row's denominator is big."""
    return build(plant.alphabet, plant.initial, [
        (x, e, dst, E(p.magnitude.numerator * big // p.magnitude.denominator, big))
        for x, e, dst, p in plant.transitions()
    ])


def spy_blocks(monkeypatch):
    """Record, for each BLAKE2b block `run_trials` hashes, whether it is
    salted, i.e. a block past the first of its key."""
    salted = []
    real = simulate.blake2b

    def blake2b(key, **kwargs):
        salted.append("salt" in kwargs)
        return real(key, **kwargs)

    monkeypatch.setattr(simulate, "blake2b", blake2b)
    return salted


class TestReferenceSampler:
    """`run_trials` takes its draws inline and its targets as the trials
    reach each string; its reports equal those of the reference sampler,
    which calls `BitPool.below` per draw and computes the targets in a
    second walk."""

    def test_random_plants_and_maps(self, monkeypatch):
        salted = spy_blocks(monkeypatch)
        rng = random.Random(1618)
        outside = big_plants = big_maps = 0
        for case in range(120):
            m = rng.randint(1, 3)
            events = [f"e{i}" for i in range(m + rng.randint(1, 2))]
            observable = [e for e in events if rng.random() < 0.6] or [events[0]]
            alphabet = Alphabet.make(events[:m], events[m:], observable)
            plant = random_plant(rng, alphabet, max_states=6)
            classes = observation_classes(plant, random_subspec(rng, plant))
            big = 2**600 + rng.randint(1, 99)
            if rng.random() < 0.3:
                plant = big_rows(plant, big)
                big_plants += 1
            if rng.random() < 0.3:
                dists = {cls: big_roulette(rng, m, big) for cls in range(classes.count) if rng.random() < 0.8}
                sup = SupervisorMap(classes, dists, big_roulette(rng, m, big))
                big_maps += 1
            else:
                def vector():
                    return tuple(random_fraction(rng) for _ in range(m)) + (F(1),) * (len(events) - m)

                vectors = {cls: vector() for cls in range(classes.count) if rng.random() < 0.8}
                sup = supervisor_from_scaling(ScalingMap(classes, vectors, vector()))
            cfg = TrialConfig(trials=rng.randint(1, 80), max_depth=rng.randint(1, 8), seed=case)
            report = run_trials(plant, sup, cfg)
            assert report == reference_trials(plant, sup, cfg), case
            outside += any(classes.locate(word) is None for word in report.rows)
        assert outside >= 20 and big_plants >= 20 and big_maps >= 20, (outside, big_plants, big_maps)
        assert salted.count(True) >= 1000


class TestExactDraws:
    """Every draw is a uniform integer below a common denominator, taken
    from the hash blocks of the trial's key, as the reference pool takes
    it."""

    def test_draws_lie_below_n_and_repeat_for_one_key(self):
        ns = [1, 2, 3, 5, 8, 1000, 2**64 + 1, 1, 3**400, 6, 7**300]
        pool = BitPool(b"5:12")
        draws = [pool.below(n) for n in ns]
        assert all(0 <= d < n for d, n in zip(draws, ns))
        assert pool.blocks > 1  # 3**400 and 7**300 need more than one block
        again = BitPool(b"5:12")
        assert [again.below(n) for n in ns] == draws
        other = BitPool(b"5:13")
        assert [other.below(n) for n in ns] != draws

    def test_one_choice_takes_no_bits(self):
        pool = BitPool(b"0:0")
        pool.below(6)
        before = (pool.bits, pool.left, pool.blocks)
        assert pool.below(1) == 0
        assert (pool.bits, pool.left, pool.blocks) == before

    def test_draws_are_uniform(self):
        """Three values from two bits each: taking the value mod 3 instead
        of rejecting 3 would give 0 half the time."""
        keys = 3000
        counts = [0, 0, 0]
        for key in range(keys):
            counts[BitPool(b"7:%d" % key).below(3)] += 1
        stderr = (keys * (1 / 3) * (2 / 3)) ** 0.5
        assert all(abs(c - keys / 3) <= 4 * stderr for c in counts), counts

    def test_denominators_longer_than_one_block(self, monkeypatch):
        big = 2**600 + 1  # every draw below a multiple of it takes over 600 bits
        plant = build(loop_alphabet(), "x0", [
            ("x0", "s1", "x1", E(2**599, big)),
            ("x0", "s3", "x0", E(1, 3)),
            ("x1", "s2", "x0", E(big - 1, big)),
            ("x1", "s3", "x1", E(1, big)),
        ])
        classes = observation_classes(plant)
        roulette = PatternDistribution(2, {0: F(1, big), 1: F(2**599, big), 3: F(2**599, big)})
        sup = SupervisorMap(classes, {}, roulette)
        salted = spy_blocks(monkeypatch)
        trials = 2000
        report = run_trials(plant, sup, TrialConfig(trials=trials, max_depth=4, seed=3))
        assert salted.count(False) == trials and salted.count(True) > trials
        controlled = controlled_automaton(plant, scaling_from_supervisor(sup))
        assert len(report.rows) > 10
        for word, row in report.rows.items():
            target = controlled.eval_language(word).magnitude
            assert row.target == target, word
            stderr = (trials * float(target) * (1 - float(target))) ** 0.5
            assert abs(row.count - trials * float(target)) <= 4 * stderr, word


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
