import collections
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pdesctl import (
    Alphabet,
    EpsProb,
    FormatError,
    InvariantError,
    NotControllableError,
    NotObservableError,
    NotSublanguageError,
    ObservationClasses,
    Pdes,
    ScalingMap,
    SynthesisError,
    TrialConfig,
    ZERO,
    check_controllable,
    check_observable,
    controlled_automaton,
    controlled_language_value,
    controlled_xi,
    dumps_automaton,
    dumps_scaling_map,
    dumps_supervisor_map,
    infimal_pipeline,
    is_sublanguage,
    language_equivalent,
    loads_automaton,
    loads_scaling_map,
    loads_supervisor_map,
    marginals_of,
    observation_classes,
    observer,
    run_trials,
    scaling_from_spec,
    scaling_from_supervisor,
    supervisor_from_scaling,
)
from pdesctl.automata import JointSupport
from conftest import (
    E,
    build,
    drop_transitions,
    load_gen,
    observation_scaled_spec,
    random_alphabet,
    random_fraction,
    random_plant,
    random_scaling_map,
    random_subspec,
    synthesis_pair,
    walk_pairs,
    with_eps,
)
from oracles import brute_observable, equivalent_classes, reference_controlled_automaton

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

    def test_plant_alone_is_the_plant_paired_with_itself(self):
        """Without a spec the classes are the plant's own observer: the
        classes of the plant paired with itself, cell for cell through the
        pairs (x, x)."""
        gen = load_gen()
        rng = random.Random(337)
        for i in range(300):
            plant = gen.random_plant(rng, 2 + i % 12)
            classes = observation_classes(plant)
            joint = JointSupport(plant, plant)
            paired = observer(joint)
            assert (classes.initial, classes.count, classes.trans) == (paired.initial, paired.count, paired.trans)
            assert list(classes.cells) == [frozenset(joint.pairs[j][0] for j in cell) for cell in paired.cells]


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

    def test_sublanguage_failure_wins_over_earlier_mismatch(self, robot):
        plant, spec = robot
        pruned = drop_transitions(spec, [("q0", "s4")])  # a mismatch after ()
        trans = pruned.transition_map()
        trans[("q3", "s2")] = ("q0", EpsProb(F(1, 4), 1))  # the plant has no s2 at x3
        with pytest.raises(NotSublanguageError) as exc:
            scaling_from_spec(plant, Pdes(spec.alphabet, spec.initial, trans))
        assert str(exc.value) == "specification is not a sublanguage of the plant at ('s5',) on 's2'"
        assert exc.value.witness.strings == (("s5",),)

    def test_non_sublanguage_witness_is_that_of_is_sublanguage(self):
        failing = 0
        for spec, plant in walk_pairs(263, 600):
            verdict = is_sublanguage(spec, plant)
            if verdict:
                continue
            failing += 1
            w = verdict.witness
            with pytest.raises(NotSublanguageError) as err:
                scaling_from_spec(plant, spec)
            assert err.value.witness == w
            assert str(err.value) == (
                f"specification is not a sublanguage of the plant at {w.strings[0]!r} on {w.event!r}"
            )
        assert failing >= 150, failing

    def test_conflict_reported_in_order_of_shortest_strings(self):
        """The class {x0, x1, x2, x3} is listed by access string: ('a', 'u')
        for x3 comes before ('u',) for x1, although breadth-first
        discovery reaches x1 first."""
        alphabet = Alphabet.make(["a", "c"], ["u"], ["c"])

        def model(c1, c3):
            return build(alphabet, "x0", [
                ("x0", "a", "x2", E(1, 2)),
                ("x0", "u", "x1", E(1, 2)),
                ("x1", "c", "x0", c1),
                ("x2", "u", "x3", E(1)),
                ("x3", "c", "x0", c3),
            ])

        with pytest.raises(NotObservableError) as exc:
            scaling_from_spec(model(E(1), E(1)), model(E(1, 2), E(1, 4)))
        assert str(exc.value) == "event 'c' demands factor 1/4 after ('a', 'u') but 1/2 after ('u',)"
        assert exc.value.witness.strings == (("a", "u"), ("u",))

class TestSupervisorFromScaling:
    def test_robot_distribution(self, robot):
        plant, spec = robot
        scaling = scaling_from_spec(plant, spec)
        sup = supervisor_from_scaling(scaling)
        hot = scaling.classes.locate(("s3",))
        assert sup.dists[hot].support() == [(2, F(1, 5)), (3, F(4, 5))]
        cold = scaling.classes.initial
        assert sup.dists[cold].support() == [(3, F(1))]
        for cls, dist in sup.dists.items():
            assert marginals_of(dist, 2, 5) == scaling.vectors[cls]

    def test_roundtrip_through_marginals(self, robot):
        plant, spec = robot
        scaling = scaling_from_spec(plant, spec)
        back = scaling_from_supervisor(supervisor_from_scaling(scaling))
        assert back.vectors == scaling.vectors


class TestScalingMap:
    def test_leaves_argument_unchanged(self, robot):
        plant, spec = robot
        classes = observation_classes(plant, spec)
        vectors = {cls: [F(1, 2), 1, 1, 1, 1] for cls in range(classes.count)}
        scaling = ScalingMap(classes, vectors)
        assert scaling.vectors is not vectors
        assert all(vec == [F(1, 2), 1, 1, 1, 1] for vec in vectors.values())
        assert all(vec == (F(1, 2),) + ALL_ONES5[1:] for vec in scaling.vectors.values())

    def test_stores_validated_default(self, robot):
        plant, spec = robot
        scaling = ScalingMap(observation_classes(plant, spec), {}, [F(1, 2), 1, 1, 1, 1])
        assert scaling.default == (F(1, 2),) + ALL_ONES5[1:]


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
                assert controlled.liveness(state) <= plant.liveness(controlled.labels[state][0])

    def test_matches_tuple_state_reference(self):
        # the walk renamed by its labels is the pair-state reference, on
        # maps with zero factors, a random default, unmapped classes and
        # classes of a subspec that the plant leaves (the None class)
        rng = random.Random(19)
        seen = collections.Counter()
        for i in range(300):
            plant = random_plant(rng, random_alphabet(rng), max_states=6)
            if i % 4 == 0:
                plant = with_eps(rng, plant, 0.3)
            classes = observation_classes(plant, random_subspec(rng, plant))
            m, n = plant.alphabet.m, plant.alphabet.n

            def vector():
                return tuple(random_fraction(rng) for _ in range(m)) + (F(1),) * (n - m)

            vectors = {c: vector() for c in range(classes.count) if rng.random() < 0.7}
            scaling = ScalingMap(classes, vectors, vector())
            controlled = controlled_automaton(plant, scaling)
            expect = reference_controlled_automaton(plant, scaling)
            renamed = controlled.rename(dict(enumerate(controlled.labels)))
            assert renamed.initial == expect.initial
            assert renamed.transition_map() == expect.transition_map()
            reached = {c for _, c in controlled.labels}
            by_default = {c for c in reached if c is None or c not in vectors}
            seen["none"] += None in reached
            seen["unmapped"] += bool(by_default - {None})
            seen["default"] += bool(by_default) and scaling.default != (F(1),) * n
            seen["zero"] += any(
                e in plant._out[x] and not scaling.vector(c)[k]
                for x, c in controlled.labels
                for k, e in enumerate(plant.alphabet.controllable_events())
            )
        assert min(seen.values()) >= 50, seen


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
        left = 0
        for _ in range(25):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            scaling = random_scaling_map(rng, plant)
            sup = supervisor_from_scaling(scaling)
            controlled = controlled_automaton(plant, scaling)
            for word in words_in_support(plant, 5):
                assert controlled.eval_language(word) == controlled_language_value(plant, sup, word)
            # a word that leaves the plant's support, then goes on
            for word in words_in_support(plant, 3):
                x = plant.delta(plant.initial, word)
                for e in alphabet.events:
                    if plant.step(x, e) is None:
                        off = word + (e,) + alphabet.events[:1]
                        assert controlled_language_value(plant, sup, off) == controlled.eval_language(off) == ZERO
                        left += 1
        assert left >= 100, left

    def test_marginals_once_per_class_per_call(self, robot, monkeypatch):
        import pdesctl.supervisor as supervisor

        plant, spec = robot
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        word = ("s3", "s1") * 200
        expect = controlled_automaton(plant, scaling_from_spec(plant, spec)).eval_language(word)
        visited, cls = {sup.classes.initial}, sup.classes.initial
        for e in word[:-1]:
            cls = sup.classes.step(cls, e)
            visited.add(cls)
        calls = []
        real = supervisor.marginals_of
        monkeypatch.setattr(supervisor, "marginals_of", lambda *args: calls.append(args) or real(*args))
        assert controlled_language_value(plant, sup, word) == expect
        first = len(calls)
        assert 0 < first <= len(visited)
        # no table outlives its call
        controlled_language_value(plant, sup, word)
        assert len(calls) == 2 * first

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


# names that the line readers would not read back as one name: split at
# whitespace, or cut at the comment sign
UNREADABLE_NAMES = ["a b", "a\tb", "a\nb", "a#b", "#", ""]


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

    def test_synthesized_maps_round_trip(self):
        rng = random.Random(331)
        done = 0
        for i in range(300):
            plant, spec = synthesis_pair(rng, i)
            try:
                scaling = scaling_from_spec(plant, spec)
            except (SynthesisError, InvariantError):
                continue
            assert loads_scaling_map(dumps_scaling_map(scaling)) == scaling
            done += 1
        assert done >= 150, done

    def test_text_and_roulette_forms_give_back_the_map(self, robot):
        scaling = scaling_from_spec(*robot)
        assert loads_scaling_map(dumps_scaling_map(scaling)) == scaling
        assert scaling_from_supervisor(supervisor_from_scaling(scaling)) == scaling

    @pytest.mark.parametrize("kind", ["automaton", "scaling", "supervisor"])
    def test_tab_separated_text_loads_equal(self, robot, kind):
        plant, spec = robot
        scaling = scaling_from_spec(plant, spec)
        dumps, loads, value = {
            "automaton": (dumps_automaton, loads_automaton, plant),
            "scaling": (dumps_scaling_map, loads_scaling_map, scaling),
            "supervisor": (dumps_supervisor_map, loads_supervisor_map, supervisor_from_scaling(scaling)),
        }[kind]
        text = dumps(value)
        tabbed = text.replace(" ", "\t")
        # every directive keyword is followed by a tab, the map sections' too
        assert "class\tt" in tabbed or kind == "automaton"
        again = loads(tabbed)
        assert dumps(again) == text
        if kind == "automaton":
            assert again.transition_map() == loads(text).transition_map()
        else:
            assert again == loads(text) == value

    @pytest.mark.parametrize("name", UNREADABLE_NAMES)
    def test_automaton_dump_rejects_a_state_its_reader_splits_or_cuts(self, name):
        alphabet = Alphabet.make(["c"], ["u"], ["c", "u"])
        a = Pdes(alphabet, "x", {("x", "c"): (name, E(1, 2))})
        with pytest.raises(InvariantError, match=re.escape(f"state {name!r} is not one token")):
            dumps_automaton(a)

    @pytest.mark.parametrize("name", UNREADABLE_NAMES)
    @pytest.mark.parametrize("kind", ["automaton", "scaling", "supervisor"])
    def test_dumps_reject_an_event_their_readers_split_or_cut(self, kind, name):
        alphabet = Alphabet.make([name], ["u"], [name, "u"])
        scaling = ScalingMap(ObservationClasses(alphabet, 0, 1, {}), {})
        dumps, value = {
            "automaton": (dumps_automaton, Pdes(alphabet, "x", {("x", name): ("x", E(1, 2))})),
            "scaling": (dumps_scaling_map, scaling),
            "supervisor": (dumps_supervisor_map, supervisor_from_scaling(scaling)),
        }[kind]
        with pytest.raises(InvariantError, match=re.escape(f"event {name!r} is not one token")):
            dumps(value)

    def test_scaling_file_mentions_exact_factor(self, robot):
        plant, spec = robot
        text = dumps_scaling_map(scaling_from_spec(plant, spec))
        assert "0.8" in text

    def test_supervisor_roundtrip(self, robot):
        plant, spec = robot
        sup = supervisor_from_scaling(scaling_from_spec(plant, spec))
        text = dumps_supervisor_map(sup)
        again = loads_supervisor_map(text)
        assert {c: d.support() for c, d in again.dists.items()} == {
            c: d.support() for c, d in sup.dists.items()
        }
        assert again.default.support() == sup.default.support()
        assert dumps_supervisor_map(again) == text

    def test_parses_each_distinct_pattern_probability_once_per_call(self, robot, monkeypatch):
        import pdesctl.supervisor as supervisor

        text = dumps_supervisor_map(supervisor_from_scaling(ScalingMap(
            ObservationClasses(robot[0].alphabet, 0, 2, {(0, "s3"): 1}),
            {0: (F(1, 2),) * 2 + (F(1),) * 3, 1: (F(1, 2), F(0)) + (F(1),) * 3},
        )))
        assert text.count(" 1/2\n") == 4
        seen = []
        parse = supervisor.parse_rat
        monkeypatch.setattr(supervisor, "parse_rat", lambda text: seen.append(text) or parse(text))
        first = loads_supervisor_map(text)
        assert sorted(seen) == ["1", "1/2"]
        # a second load parses again: no table outlives its call
        assert dumps_supervisor_map(loads_supervisor_map(text)) == dumps_supervisor_map(first)
        assert len(seen) == 4

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
        ("class t0 1 1 1 1", 7),
        ("class t0 2 1 1 1 1", 7),
        ("class t0 1 1 1/2 1 1", 7),
        ("class t0 1 1 1 1 1\ndefault 1 1", 8),
        ("default 1 2 1 1 1", 7),
        ("default 1 1 1 1 1/2", 7),
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

    def test_zero_probability_pattern_dropped(self):
        text = (
            "controllable: s1 s2\nuncontrollable: s3 s4 s5\nobservable: s1 s2 s3\n"
            "unobservable: s4 s5\nobs-classes: 1\nobs-initial: t0\n"
            "class t0\npattern 00 0\npattern 11 1\ndefault\npattern 11 1\n"
        )
        sup = loads_supervisor_map(text)
        assert sup.dists[0].support() == [(3, F(1))]
        assert "pattern 00" not in dumps_supervisor_map(sup)

    def test_pattern_outside_section_rejected(self, robot):
        plant, spec = robot
        text = dumps_supervisor_map(supervisor_from_scaling(scaling_from_spec(plant, spec)))
        lines = text.splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("class"))
        lines.insert(first, "pattern 11 1")
        with pytest.raises(FormatError) as exc:
            loads_supervisor_map("\n".join(lines))
        assert exc.value.line == first + 1


GOLDEN_MAP = Path(__file__).parent / "data" / "supervisor_golden.map"


def golden_supervisors():
    """Seeded roulette supervisors for m = 0..6 over synthetic class DFAs.

    Class vectors cycle through random factors (zeros and ties included),
    all-ones vectors and one factor tied across events with zeros; some
    classes are left to the default, which is sometimes not all-ones.
    """
    rng = random.Random(2024)
    pool = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(1, 10)]
    for m in range(7):
        u = rng.randint(1, 2)
        ctrl = [f"c{i}" for i in range(m)]
        unctrl = [f"u{i}" for i in range(u)]
        observable = [e for e in ctrl + unctrl if rng.random() < 0.7] or unctrl[:1]
        alphabet = Alphabet.make(ctrl, unctrl, observable)
        count = rng.randint(1, 5)
        trans = {
            (c, e): rng.randrange(count)
            for c in range(count)
            for e in observable
            if rng.random() < 0.6
        }
        classes = ObservationClasses(alphabet, 0, count, trans)
        vectors = {}
        for cls in range(count):
            if rng.random() < 0.2:
                continue  # left to the default
            kind = cls % 3
            if kind == 0:
                factors = [rng.choice(pool) for _ in range(m)]
            elif kind == 1:
                factors = [F(1)] * m
            else:
                tied = rng.choice(pool)
                factors = [tied if rng.random() < 0.7 else F(0) for _ in range(m)]
            vectors[cls] = tuple(factors) + (F(1),) * u
        default = None
        if rng.random() < 0.5:
            default = tuple(rng.choice(pool) for _ in range(m)) + (F(1),) * u
        yield m, supervisor_from_scaling(ScalingMap(classes, vectors, default))


def golden_text():
    return "".join(f"# m={m}\n" + dumps_supervisor_map(sup) for m, sup in golden_supervisors())


class TestGoldenSupervisorMap:
    def test_dump_matches_golden(self):
        assert golden_text() == GOLDEN_MAP.read_text()

    def test_load_dump_round_trip(self):
        chunks = re.split(r"(?m)^# m=\d+\n", GOLDEN_MAP.read_text())[1:]
        assert len(chunks) == 7
        for text in chunks:
            assert dumps_supervisor_map(loads_supervisor_map(text)) == text


class TestAchievability:
    """Synthesis succeeds only on specs that pass both checks, and on
    sublanguages with ordinary probabilities and the plant's uncontrollable
    probabilities its class check decides observability."""

    def test_synthesis_implies_both_checks(self):
        rng = random.Random(311)
        synthesized = 0
        for i in range(450):
            plant, spec = synthesis_pair(rng, i)
            try:
                scaling_from_spec(plant, spec)
            except (SynthesisError, InvariantError):
                continue
            assert check_controllable(plant, spec).holds
            assert check_observable(plant, spec).holds
            synthesized += 1
        assert synthesized >= 200

    def test_synthesis_implies_the_spec_is_its_own_infimum(self):
        """A spec that `scaling_from_spec` achieves is its own infimal
        controllable and observable superlanguage, so `inf-pco` is an
        oracle for `synthesize` on it."""
        checked = 0
        for plant, spec in achievable_pairs():
            assert language_equivalent(infimal_pipeline(plant, spec), spec), checked
            checked += 1
        assert checked >= 380, checked

    def test_the_spec_is_its_own_infimum_exactly_when_synthesis_succeeds(self):
        """The converse on sublanguages.  With ordinary probabilities in
        both automata, synthesis succeeds exactly when the spec is its own
        infimum, and every failure has a larger infimum.  Where both checks
        hold and synthesis fails, it is one of two gaps: the strict
        reading of controllability, with a larger infimum, or
        infinitesimal probabilities, with the spec its own infimum."""
        rng = random.Random(331)
        seen = collections.Counter()
        for i in range(450):
            plant, spec = synthesis_pair(rng, i)
            if not is_sublanguage(spec, plant):
                continue
            own_infimum = language_equivalent(infimal_pipeline(plant, spec), spec)
            try:
                scaling_from_spec(plant, spec)
                failure = None
            except (SynthesisError, InvariantError) as e:
                failure = e
            if not (plant.has_eps_probabilities() or spec.has_eps_probabilities()):
                assert own_infimum == (failure is None), i
                seen["synthesized" if failure is None else "larger"] += 1
            if failure is not None and check_controllable(plant, spec).holds and check_observable(plant, spec).holds:
                if isinstance(failure, NotControllableError):
                    assert not own_infimum, i
                    seen["strict gap"] += 1
                else:
                    assert str(failure) == "synthesis requires ordinary probabilities", i
                    assert own_infimum, i
                    seen["eps gap"] += 1
        assert seen["synthesized"] >= 250 and seen["larger"] >= 50, seen
        assert seen["strict gap"] >= 20 and seen["eps gap"] >= 8, seen

    def test_class_check_is_observability(self):
        rng = random.Random(313)
        seen = {True: 0, False: 0}
        for i in range(300):
            plant = random_plant(rng, random_alphabet(rng, max_events=4), max_states=2 + i % 3)
            if i % 3 == 0:
                spec = observation_scaled_spec(rng, plant)
            else:
                spec = random_subspec(rng, plant, touch_uncontrollable=False)
            try:
                scaling_from_spec(plant, spec)
                cells_agree = True
            except NotObservableError:
                cells_agree = False
            depth = len(plant.states) * len(spec.states)
            assert check_observable(plant, spec).holds == cells_agree
            assert brute_observable(plant, spec, depth).holds == cells_agree
            seen[cells_agree] += 1
        assert min(seen.values()) >= 40, seen


def cell_map(plant, spec):
    """The map with one class per cell of ``observer(JointSupport(plant,
    spec))``: per controllable event, the one spec/plant ratio of the
    cell's pairs where the plant has the event, or 0 where none has it."""
    joint = JointSupport(plant, spec)
    obs = observer(joint)
    alphabet = plant.alphabet
    vectors = {}
    for c, cell in enumerate(obs.cells):
        factors = []
        for e in alphabet.controllable_events():
            ratios = {
                spec.rho(q, e).magnitude / plant.rho(x, e).magnitude
                for x, q in (joint.pairs[i] for i in cell)
                if plant.step(x, e) is not None
            }
            assert len(ratios) <= 1, (c, e, ratios)
            factors.append(ratios.pop() if ratios else F(0))
        vectors[c] = tuple(factors) + (F(1),) * (alphabet.n - alphabet.m)
    return ScalingMap(ObservationClasses(alphabet, obs.initial, obs.count, obs.trans), vectors)


def achievable_pairs():
    """Seeded pairs that `scaling_from_spec` synthesizes: `synthesis_pair`s,
    then benchmark-sized `gen.achievable_pair`s at k = 6..13."""
    rng = random.Random(331)
    for i in range(600):
        plant, spec = synthesis_pair(rng, i)
        try:
            scaling_from_spec(plant, spec)
        except (SynthesisError, InvariantError):
            continue
        yield plant, spec
    gen = load_gen()
    for k in range(6, 14):
        rng = random.Random(k)
        for _ in range(3):
            yield gen.achievable_pair(rng, k, (2, 6))


class TestMinimalMaps:
    """`scaling_from_spec` writes one class per block of equivalent cells of
    the joint support's observer: the closed loop and every simulation
    are those of the map with one class per cell, and no two of its
    classes are equivalent."""

    def test_quotient_is_minimal_and_controls_as_the_cells_do(self):
        seen = collections.Counter()
        for plant, spec in achievable_pairs():
            written, cells = scaling_from_spec(plant, spec), cell_map(plant, spec)
            assert written.default == cells.default
            controlled = controlled_automaton(plant, written)
            assert language_equivalent(controlled, controlled_automaton(plant, cells))
            assert language_equivalent(controlled, spec)
            vectors = [written.vector(c) for c in range(written.classes.count)]
            assert equivalent_classes(written.classes, vectors) == set()
            assert written.classes.count <= cells.classes.count
            seen["merged" if written.classes.count < cells.classes.count else "kept"] += 1
            seen["classes"] += written.classes.count
            seen["cells"] += cells.classes.count
        assert seen["merged"] >= 50 and seen["kept"] >= 100, seen
        assert seen["classes"] < 0.9 * seen["cells"], seen

    def test_simulation_reports_equal_those_of_the_cell_map(self):
        cfg = TrialConfig(trials=200, max_depth=8, seed=3)
        merged = 0
        for plant, spec in achievable_pairs():
            if plant.has_eps_probabilities():
                continue  # simulation needs ordinary probabilities
            written, cells = scaling_from_spec(plant, spec), cell_map(plant, spec)
            report = run_trials(plant, supervisor_from_scaling(written), cfg).to_tsv()
            assert report == run_trials(plant, supervisor_from_scaling(cells), cfg).to_tsv()
            merged += written.classes.count < cells.classes.count
        assert merged >= 50, merged
