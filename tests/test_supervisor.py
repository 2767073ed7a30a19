import random
from fractions import Fraction

import pytest

from pdesctl import (
    EpsProb,
    FormatError,
    NotControllableError,
    NotObservableError,
    NotSublanguageError,
    ScalingMap,
    controlled_automaton,
    controlled_language_value,
    controlled_xi,
    dumps_scaling_map,
    dumps_supervisor_map,
    is_sublanguage,
    language_equivalent,
    loads_scaling_map,
    loads_supervisor_map,
    marginals_of,
    observation_classes,
    scaling_from_spec,
    scaling_from_supervisor,
    supervisor_from_scaling,
)
from conftest import (
    E,
    drop_transitions,
    random_alphabet,
    random_plant,
    random_scaling_map,
)

F = Fraction

ALL_ONES5 = (F(1),) * 5


class TestObservationClasses:
    def test_robot_classes(self, robot):
        plant, spec = robot
        classes = observation_classes(plant, spec)
        assert classes.count == 2
        assert classes.locate(()) == classes.initial
        after_s3 = classes.locate(("s3",))
        assert after_s3 is not None and after_s3 != classes.initial
        # observations without the third event come back to the initial class
        assert classes.locate(("s3", "s1")) == classes.initial
        assert classes.locate(("s4", "s2", "s3")) == after_s3

    def test_unobservable_events_keep_class(self, robot):
        plant, spec = robot
        classes = observation_classes(plant, spec)
        assert classes.step(classes.initial, "s4") == classes.initial


class TestScalingFromSpec:
    def test_robot_vectors(self, robot):
        plant, spec = robot
        scaling = scaling_from_spec(plant, spec)
        classes = scaling.classes
        hot = classes.locate(("s3",))
        assert scaling.vectors[hot] == (F(4, 5), F(1), F(1), F(1), F(1))
        for cls, vec in scaling.vectors.items():
            if cls != hot:
                assert vec == ALL_ONES5
        assert scaling.default == ALL_ONES5

    def test_spec_equal_plant_all_ones(self, robot):
        plant, _ = robot
        scaling = scaling_from_spec(plant, plant)
        assert all(vec == ALL_ONES5 for vec in scaling.vectors.values())

    def test_partial_observation_conflict(self, robot_partial):
        plant, spec = robot_partial
        with pytest.raises(NotObservableError):
            scaling_from_spec(plant, spec)

    def test_uncontrollable_mismatch(self, loops):
        plant, spec = loops
        with pytest.raises(NotControllableError):
            scaling_from_spec(plant, spec)

    def test_not_sublanguage(self, robot):
        plant, spec = robot
        with pytest.raises(NotSublanguageError):
            scaling_from_spec(spec, plant)

    def test_missing_uncontrollable_transition_rejected(self, robot):
        plant, spec = robot
        pruned = drop_transitions(spec, [("q0", "s4"), ("q2", "s2")])
        with pytest.raises(NotControllableError):
            scaling_from_spec(plant, pruned)


class TestSupervisorFromScaling:
    def test_robot_distribution(self, robot):
        plant, spec = robot
        scaling = scaling_from_spec(plant, spec)
        sup = supervisor_from_scaling(scaling)
        hot = scaling.classes.locate(("s3",))
        assert sup.dists[hot].probs == (F(0), F(0), F(1, 5), F(4, 5))
        cold = scaling.classes.initial
        assert sup.dists[cold].probs == (F(0), F(0), F(0), F(1))
        for cls, dist in sup.dists.items():
            assert marginals_of(dist, 2, 5) == scaling.vectors[cls]

    def test_roundtrip_through_marginals(self, robot):
        plant, spec = robot
        scaling = scaling_from_spec(plant, spec)
        back = scaling_from_supervisor(supervisor_from_scaling(scaling))
        assert back.vectors == scaling.vectors


class TestControlledAutomaton:
    def test_all_ones_is_identity(self, robot):
        plant, _ = robot
        classes = observation_classes(plant)
        scaling = ScalingMap(classes, {})
        assert language_equivalent(controlled_automaton(plant, scaling), plant)

    def test_realizes_robot_spec(self, robot):
        plant, spec = robot
        scaling = scaling_from_spec(plant, spec)
        controlled = controlled_automaton(plant, scaling)
        assert language_equivalent(controlled, spec)

    def test_zero_factor_erases_event(self, robot):
        plant, _ = robot
        classes = observation_classes(plant)
        vec = (F(1), F(0), F(1), F(1), F(1))  # disable s2 everywhere
        scaling = ScalingMap(classes, {c: vec for c in range(classes.count)}, vec)
        controlled = controlled_automaton(plant, scaling)
        assert all(e != "s2" for _, e, _, _ in controlled.transitions())

    def test_controlled_liveness_dominated(self, robot):
        plant, _ = robot
        rng = random.Random(2)
        for _ in range(10):
            scaling = random_scaling_map(rng, plant)
            controlled = controlled_automaton(plant, scaling)
            for state in controlled.states:
                assert controlled.liveness(state) <= plant.liveness(state[0])


class TestControlledXi:
    def test_uncontrollable_untouched(self, robot):
        plant, spec = robot
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        for word, e in [((), "s3"), ((), "s4"), (("s3", "s1"), "s5")]:
            x = plant.delta(plant.initial, word)
            assert controlled_xi(plant, sup, word, e) == plant.rho(x, e)

    def test_robot_hot_class_value(self, robot):
        plant, spec = robot
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        assert controlled_xi(plant, sup, ("s3",), "s1") == E(2, 5)

    def test_empty_pattern_blocks(self, robot):
        plant, _ = robot
        classes = observation_classes(plant)
        vec = (F(0), F(0), F(1), F(1), F(1))
        sup = supervisor_from_scaling(ScalingMap(classes, {c: vec for c in range(classes.count)}, vec))
        assert controlled_xi(plant, sup, ("s3",), "s1").is_zero

    def test_outside_support_rejected(self, robot):
        plant, spec = robot
        from pdesctl import InvariantError

        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        with pytest.raises(InvariantError):
            controlled_xi(plant, sup, ("s1",), "s1")


def words_in_support(plant, depth):
    words = [()]
    frontier = [((), plant.initial)]
    for _ in range(depth):
        nxt = []
        for word, state in frontier:
            for e in plant.alphabet.events:
                if plant.rho(state, e).is_zero:
                    continue
                nxt.append((word + (e,), plant.target(state, e)))
        frontier = nxt
        words += [w for w, _ in frontier]
    return words


class TestEquivalenceOfForms:
    """The roulette form and the compact scaling form generate the same
    controlled language, and one-step values agree with plant-probability
    times enable-marginal."""

    def test_random_plants(self):
        rng = random.Random(41)
        for _ in range(25):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            scaling = random_scaling_map(rng, plant)
            sup = supervisor_from_scaling(scaling)
            controlled = controlled_automaton(plant, scaling)
            for word in words_in_support(plant, 5):
                assert controlled.eval_language(word) == controlled_language_value(plant, sup, word)

    def test_xi_equals_rho_times_marginal(self):
        rng = random.Random(43)
        for _ in range(25):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            scaling = random_scaling_map(rng, plant)
            sup = supervisor_from_scaling(scaling)
            margins = {cls: marginals_of(d, alphabet.m, alphabet.n) for cls, d in sup.dists.items()}
            for word in words_in_support(plant, 4):
                x = plant.delta(plant.initial, word)
                cls = sup.classes.locate(word)
                for i, e in enumerate(alphabet.events):
                    expect = plant.rho(x, e) * EpsProb(margins[cls][i])
                    assert controlled_xi(plant, sup, word, e) == expect


class TestSynthesisRoundTrip:
    """Specs generated by arbitrary valid scaling maps are achievable, and
    re-synthesis reproduces them exactly."""

    def test_random_round_trips(self):
        rng = random.Random(47)
        done = 0
        while done < 30:
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            scaling = random_scaling_map(rng, plant)
            spec = controlled_automaton(plant, scaling)
            assert is_sublanguage(spec, plant).holds
            recovered = scaling_from_spec(plant, spec)
            rebuilt = controlled_automaton(plant, recovered)
            assert language_equivalent(rebuilt, spec)
            done += 1


class TestSerialization:
    def test_scaling_roundtrip(self, robot):
        plant, spec = robot
        scaling = scaling_from_spec(plant, spec)
        text = dumps_scaling_map(scaling)
        again = loads_scaling_map(text)
        assert again.vectors == scaling.vectors
        assert again.default == scaling.default
        assert again.classes.trans == scaling.classes.trans
        assert dumps_scaling_map(again) == text

    def test_scaling_file_mentions_exact_factor(self, robot):
        plant, spec = robot
        text = dumps_scaling_map(scaling_from_spec(plant, spec))
        assert "0.8" in text

    def test_supervisor_roundtrip(self, robot):
        plant, spec = robot
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        text = dumps_supervisor_map(sup)
        again = loads_supervisor_map(text)
        assert {c: d.probs for c, d in again.dists.items()} == {
            c: d.probs for c, d in sup.dists.items()
        }
        assert again.default.probs == sup.default.probs
        assert dumps_supervisor_map(again) == text

    def test_supervisor_file_lists_patterns(self, robot):
        plant, spec = robot
        text = dumps_supervisor_map(supervisor_from_scaling(scaling_from_spec(plant, spec)))
        assert "pattern 11 4/5" in text
        assert "pattern 10 1/5" in text

    @pytest.mark.parametrize("body, line", [
        ("class", 7),
        ("class t1 1 1 1 1 1", 7),
        ("class t0 1 x 1 1 1", 7),
        ("obs-trans: t0 s1 t1", 7),
        ("obs-trans: t0 zz t0", 7),
        ("obs-trans: t0 s4 t0", 7),
        ("class t0 1 1 1 1 1\nclass t0 1 1 1 1 1", 8),
        ("default 1 1 1 1 1\ndefault 1 1 1 1 1", 8),
        ("obs-trans: t0 s1 t0\nobs-trans: t0 s1 t0", 8),
    ])
    def test_scaling_rejects_with_line(self, body, line):
        text = (
            "controllable: s1 s2\nuncontrollable: s3 s4 s5\nobservable: s1 s2 s3\n"
            "unobservable: s4 s5\nobs-classes: 1\nobs-initial: t0\n" + body + "\n"
        )
        with pytest.raises(FormatError) as exc:
            loads_scaling_map(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("event, message", [
        ("zz", "unknown event 'zz'"),
        ("s4", "unobservable event 's4'"),
    ])
    def test_obs_trans_event_must_be_observable(self, robot, event, message):
        plant, spec = robot
        text = dumps_supervisor_map(supervisor_from_scaling(scaling_from_spec(plant, spec)))
        lines = text.splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("obs-initial"))
        lines.insert(at + 1, f"obs-trans: t0 {event} t0")
        with pytest.raises(FormatError, match=message) as exc:
            loads_supervisor_map("\n".join(lines))
        assert exc.value.line == at + 2

    def test_pattern_outside_section_rejected(self, robot):
        plant, spec = robot
        text = dumps_supervisor_map(supervisor_from_scaling(scaling_from_spec(plant, spec)))
        lines = text.splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("class"))
        lines.insert(first, "pattern 11 1")
        with pytest.raises(FormatError) as exc:
            loads_supervisor_map("\n".join(lines))
        assert exc.value.line == first + 1
