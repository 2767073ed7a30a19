import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pdesctl import (
    Alphabet,
    EpsProb,
    InvariantError,
    Pdes,
    TrialConfig,
    Verdict,
    Witness,
    ZERO,
    ONE,
    controlled_automaton,
    dumps_automaton,
    dumps_scaling_map,
    explore,
    infimal_pipeline,
    is_subautomaton,
    is_sublanguage,
    language_equivalent,
    loads_automaton,
    minimize,
    minimize_logic,
    observer,
    observer_automaton,
    product,
    run_trials,
    scaling_from_spec,
    supervisor_from_scaling,
)
from pdesctl.automata import JointSupport, require_same_alphabet
from conftest import (
    E,
    build,
    eps_scaled,
    is_partition,
    load_gen,
    project,
    random_alphabet,
    random_plant,
    random_subspec,
    robot_plant,
    robot_spec,
    walk_pairs,
)
from oracles import brute_minimal_count
from reference_infimal import reference_infimal_pipeline

F = Fraction


class TestAlphabet:
    def test_ordering_enforced(self):
        with pytest.raises(InvariantError):
            Alphabet(("u", "c"), frozenset(["c"]), frozenset(["u"]))
        with pytest.raises(InvariantError, match="duplicate event names"):
            Alphabet(("c", "u", "c"), frozenset(["c"]), frozenset(["u"]))
        with pytest.raises(InvariantError, match="controllable events not a subset"):
            Alphabet(("u",), frozenset(["c"]), frozenset(["u"]))
        with pytest.raises(InvariantError, match="observable events not a subset"):
            Alphabet(("c", "u"), frozenset(["c"]), frozenset(["z"]))
        a = Alphabet.make(["c"], ["u"], ["u"])
        assert a.events == ("c", "u")
        assert a.m == 1 and a.n == 2

    def test_projection(self):
        a = Alphabet.make(["s1"], ["s2", "s3"], ["s2", "s3"])
        assert project(a, ()) == ()
        assert project(a, ("s1",)) == ()
        assert project(a, ("s1", "s2", "s1", "s3")) == ("s2", "s3")
        with pytest.raises(InvariantError):
            project(a, ("nope",))

    def test_index(self):
        a = Alphabet.make(["c1", "c2"], ["u1"], ["c1", "u1"])
        assert [a.index(e) for e in a.events] == [0, 1, 2]
        with pytest.raises(InvariantError):
            a.index("nope")

    def test_index_table_is_not_part_of_the_value(self):
        a = Alphabet.make(["c"], ["u"], ["u"])
        b = Alphabet(("c", "u"), frozenset(["c"]), frozenset(["u"]))
        assert a == b and hash(a) == hash(b)
        assert a != Alphabet.make(["c"], ["u"], ["c"])
        assert "_position" not in repr(a)


class TestConstruction:
    def test_rejects_zero_probability(self):
        a = Alphabet.make(["c"], ["u"], ["c", "u"])
        with pytest.raises(InvariantError):
            Pdes(a, "x", {("x", "c"): ("x", ZERO)})

    def test_rejects_overfull_liveness(self):
        a = Alphabet.make(["c"], ["u"], ["c", "u"])
        with pytest.raises(InvariantError):
            Pdes(a, "x", {
                ("x", "c"): ("x", E(3, 4)),
                ("x", "u"): ("x", E(1, 2)),
            })

    def test_rejects_unreachable(self):
        a = Alphabet.make(["c"], ["u"], ["c", "u"])
        with pytest.raises(InvariantError):
            Pdes(a, "x", {("y", "c"): ("y", E(1, 2))}, states=["x", "y"])

    def test_liveness_with_eps_edges(self):
        a = Alphabet.make(["c"], ["u"], ["c", "u"])
        p = Pdes(a, "x", {
            ("x", "c"): ("y", E(1)),
            ("x", "u"): ("x", EpsProb(F(1), 1)),
            ("y", "u"): ("x", E(1, 2)),
        })
        assert p.liveness("x") == ONE
        assert repr(p) == "<Pdes 2 states, 3 transitions>"


class TestConstructionChecks:
    """The checks `Pdes(...)` makes that TestConstruction does not cover,
    and the state order it keeps."""

    A = Alphabet.make(["c"], ["u"], ["c", "u"])

    def test_unknown_event(self):
        with pytest.raises(InvariantError, match="unknown event 'z'"):
            Pdes(self.A, "x", {("x", "c"): ("x", E(1, 2)), ("x", "z"): ("x", E(1, 2))})

    def test_probability_must_be_epsprob(self):
        with pytest.raises(InvariantError, match="EpsProb"):
            Pdes(self.A, "x", {("x", "c"): ("x", F(1, 2))})

    def test_unreachable_error_lists_the_states(self):
        with pytest.raises(InvariantError, match=r"unreachable states: \['z', 'y'\]"):
            Pdes(self.A, "x", {("y", "c"): ("z", E(1, 2))}, states=["x", "z"])

    def test_trim_keeps_the_state_order(self):
        trans = {
            ("x", "c"): ("b", E(1, 2)),
            ("dead", "c"): ("a", E(1)),
            ("b", "u"): ("a", E(1, 2)),
            ("a", "u"): ("x", E(1)),
        }
        with pytest.warns(UserWarning, match="dropping 1"):
            p = Pdes(self.A, "x", trans, states=["a", "x"], on_unreachable="trim")
        assert p.states == ("x", "a", "b")
        assert ("dead", "c") not in p.transition_map()
        # the map reads the rows: state order, then each row in event order
        assert list(p.transition_map()) == [("x", "c"), ("a", "u"), ("b", "u")]

    def test_state_order_is_first_mention(self):
        trans = {("y", "c"): ("z", E(1, 2)), ("x", "u"): ("y", E(1, 2)), ("z", "u"): ("x", E(1))}
        assert Pdes(self.A, "x", trans).states == ("x", "y", "z")
        assert Pdes(self.A, "x", trans, states=["z"]).states == ("x", "z", "y")

    def test_rows_follow_the_transitions(self):
        p = Pdes(self.A, "x", {("x", "u"): ("y", E(1, 4)), ("x", "c"): ("x", E(1, 2))})
        assert p.step("x", "u") == ("y", E(1, 4)) and p.step("x", "c") == ("x", E(1, 2))
        assert p.enabled("y") == ()
        assert p.enabled("x") == ("c", "u")
        assert [t[:3] for t in p.transitions()] == [("x", "c", "x"), ("x", "u", "y")]

    def test_liveness_bound(self):
        with pytest.raises(InvariantError, match="liveness exceeds 1 at state 'y'"):
            Pdes(self.A, "x", {("x", "c"): ("y", E(1)), ("y", "c"): ("y", E(2, 3)),
                               ("y", "u"): ("x", E(2, 5))})
        with pytest.raises(InvariantError, match="liveness"):
            Pdes(self.A, "x", {("x", "c"): ("x", E(3, 2))})
        exact = Pdes(self.A, "x", {("x", "c"): ("x", E(1, 3)), ("x", "u"): ("x", E(2, 3))})
        assert exact.liveness("x") == ONE
        # infinitesimal terms never push the sum above one
        Pdes(self.A, "x", {("x", "c"): ("x", E(1)), ("x", "u"): ("x", EpsProb(F(7), 1))})
        Pdes(self.A, "x", {("x", "c"): ("x", EpsProb(F(5), 2)), ("x", "u"): ("x", EpsProb(F(7), 1))})

    def test_liveness_check_can_be_skipped(self):
        p = Pdes(self.A, "x", {("x", "c"): ("x", E(1)), ("x", "u"): ("x", E(1))}, check_liveness=False)
        assert p.liveness("x") == E(2)

    def test_liveness_is_the_dominant_term_sum(self):
        rng = random.Random(5)
        for _ in range(50):
            trans = {("x", e): ("x", EpsProb(F(rng.randint(1, 9), rng.randint(1, 9)), rng.choice([0, 1, 2])))
                     for e in self.A.events if rng.random() < 0.8}
            p = Pdes(self.A, "x", trans, check_liveness=False)
            total = ZERO
            for _, prob in trans.values():
                total = total + prob
            assert p.liveness("x") == total


# malformed automata as rows {state: {event: (target, probability)}}, the
# first state initial, with the message that rejects them
MALFORMED_ROWS = {
    "unknown event": ({"x": {"c": ("x", E(1, 2)), "z": ("x", E(1, 2))}}, "transition uses unknown event 'z'"),
    "not an EpsProb": ({"x": {"c": ("x", F(1, 2))}}, "transition probabilities must be EpsProb values"),
    "zero magnitude": ({"x": {"c": ("y", E(1, 2))}, "y": {"u": ("x", ZERO)}},
                       "stored transition ('y','u') must have positive probability"),
    "unreachable": ({"x": {"c": ("x", E(1, 2))}, "y": {"c": ("z", E(1, 2))}, "z": {}},
                    "unreachable states: ['y', 'z']"),
    # the edge checks cover unreachable rows, and come first
    "unreachable zero magnitude": ({"x": {}, "y": {"c": ("y", ZERO)}},
                                   "stored transition ('y','c') must have positive probability"),
    # a row given out of event order is walked in its given order, so the
    # first failing row does not depend on the sorting
    "out-of-order zero magnitudes": ({"x": {"u": ("y", E(1, 2)), "c": ("z", E(1, 2))},
                                      "y": {"c": ("y", ZERO)}, "z": {"c": ("z", ZERO)}},
                                     "stored transition ('z','c') must have positive probability"),
    "liveness": ({"x": {"c": ("y", E(1))}, "y": {"c": ("y", E(2, 3)), "u": ("x", E(2, 5))}},
                 "liveness exceeds 1 at state 'y'"),
    # reachability is checked before liveness
    "unreachable and liveness": ({"x": {"c": ("x", E(3, 2))}, "y": {}}, "unreachable states: ['y']"),
}


class TestCheckedConstructor:
    """`Pdes(...)` turns its transitions into rows and checks them on the
    one path that `Pdes._from_rows` takes: each rejection comes from that
    path, with the same message either way."""

    A = Alphabet.make(["c"], ["u"], ["c", "u"])

    @staticmethod
    def as_transitions(rows):
        return {(s, e): edge for s, row in rows.items() for e, edge in row.items()}

    def constructions(self, rows, **flags):
        """Each way to build the automaton of ``rows``: from transitions,
        from the rows, and from the rows renumbered 0..n-1 as a list."""
        initial = next(iter(rows))
        number = {s: i for i, s in enumerate(rows)}
        numbered = [{e: (number[dst], p) for e, (dst, p) in row.items()} for row in rows.values()]
        return {
            "transitions": lambda: Pdes(self.A, initial, self.as_transitions(rows), states=list(rows), **flags),
            "rows": lambda: Pdes._from_rows(self.A, initial, rows, **flags),
            "list": lambda: Pdes._from_rows(self.A, 0, numbered, **flags),
        }

    @pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
    def test_rejections_come_from_the_checked_path(self, case, monkeypatch):
        rows, message = MALFORMED_ROWS[case]
        take = Pdes._take_rows
        raised = []

        def spy(self, *args):
            try:
                take(self, *args)
            except InvariantError as err:
                raised.append(err)
                raise

        monkeypatch.setattr(Pdes, "_take_rows", spy)
        messages = {}
        for how, construct in self.constructions(rows).items():
            with pytest.raises(InvariantError) as err:
                construct()
            assert raised[-1] is err.value
            messages[how] = str(err.value)
        assert messages["transitions"] == messages["rows"] == message
        # the list form names states by number
        number = {s: str(i) for i, s in enumerate(rows)}
        assert messages["list"] == re.sub(r"'(\w+)'", lambda m: number.get(m.group(1), m.group(0)), message)

    def test_trim_drops_with_one_warning(self):
        # the unreachable y would fail the liveness check, but is dropped first
        rows = {"x": {"c": ("w", E(1, 2))}, "y": {"c": ("x", E(1)), "u": ("x", E(1))}, "w": {}}
        built = []
        for how, construct in self.constructions(rows, on_unreachable="trim").items():
            with pytest.warns(UserWarning, match=r"dropping 1 unreachable state\(s\)"):
                built.append(construct())
        assert built[0].states == built[1].states == ("x", "w") and built[2].states == (0, 2)
        assert built[0].transition_map() == built[1].transition_map() == {("x", "c"): ("w", E(1, 2))}

    def test_liveness_check_can_be_skipped(self):
        rows, _ = MALFORMED_ROWS["liveness"]
        for construct in self.constructions(rows, check_liveness=False).values():
            assert construct().liveness(construct().states[1]) == E(16, 15)

    def test_rows_and_labels_are_kept(self):
        rows = [{"c": (1, E(1, 2))}, {"u": (0, E(1))}]
        a = Pdes._from_rows(self.A, 0, rows, ["p", "q"])
        assert a.states == (0, 1) and a.labels == ["p", "q"]
        assert a.transition_map() == {(0, "c"): (1, E(1, 2)), (1, "u"): (0, E(1))}
        assert Pdes(self.A, 0, a.transition_map()).labels is None


def reversed_rows(a):
    """``a`` rebuilt by `Pdes(...)` with every row given in reverse event order."""
    return Pdes(a.alphabet, a.initial, dict(reversed(a.transition_map().items())), states=a.states)


def reversed_text(a):
    """``a``'s file with its trans lines in reverse order, so every row is
    given in reverse event order."""
    lines = dumps_automaton(a).splitlines()
    trans = [line for line in lines if line.startswith("trans:")]
    return "\n".join([line for line in lines if not line.startswith("trans:")] + trans[::-1]) + "\n"


def edge_lists(a):
    return [list(row.items()) for row in a._out.values()]


class TestEventOrder:
    """`Pdes._take_rows` puts every row in event order, whatever order its
    edges are given in, so results do not depend on that order."""

    @staticmethod
    def pairs():
        """(plant, spec) pairs in event order: the robot, a generated
        plant and sub-spec, and a generated achievable pair."""
        gen = load_gen()
        rng = random.Random(10)
        g = gen.random_plant(rng, 10)
        return [(robot_plant(), robot_spec()), (g, gen.random_subspec(rng, g)),
                gen.achievable_pair(random.Random(13), 13, (2, 6))]

    @pytest.mark.parametrize("read", ["Pdes", "loads_automaton"])
    def test_rows_come_back_in_event_order(self, read):
        for plant, spec in self.pairs():
            for a in (plant, spec):
                order = a.alphabet.index
                assert all(list(row) == sorted(row, key=order) for row in a._out.values())
                given = reversed_rows(a) if read == "Pdes" else loads_automaton(reversed_text(a))
                assert given.states == a.states
                assert edge_lists(given) == edge_lists(a)
                assert list(given.transition_map().items()) == list(a.transition_map().items())
                assert list(given.transitions()) == list(a.transitions())
                assert [given.enabled(s) for s in given.states] == [a.enabled(s) for s in a.states]
        # the rows really were given out of order
        assert list(reversed(robot_plant().transition_map()))[-3:] == [("x0", "s5"), ("x0", "s4"), ("x0", "s3")]
        text = reversed_text(robot_plant())
        assert text.index("trans: x0 s5") < text.index("trans: x0 s4") < text.index("trans: x0 s3")

    def test_an_ordered_row_is_kept_and_a_reversed_one_sorted(self):
        A = Alphabet.make(["c"], ["u"], ["c", "u"])
        rows = [{"c": (1, E(1, 2)), "u": (0, E(1, 4))}, {"u": (0, E(1, 4)), "c": (1, E(1, 2))}]
        a = Pdes._from_rows(A, 0, rows)
        assert a._out[0] is rows[0]
        assert a._out[1] is not rows[1] and list(a._out[1].items()) == [("c", (1, E(1, 2))), ("u", (0, E(1, 4)))]

    def test_results_do_not_depend_on_the_given_order(self):
        for plant, spec in self.pairs():
            g, h = reversed_rows(plant), loads_automaton(reversed_text(spec))
            assert list(product(g, h).transitions()) == list(product(plant, spec).transitions())
            assert dumps_automaton(minimize(g, "x")) == dumps_automaton(minimize(plant, "x"))
            got, want = infimal_pipeline(g, h), infimal_pipeline(plant, spec)
            assert got.labels == want.labels and list(got.transitions()) == list(want.transitions())
        # the last pair is achievable: synthesis, its closed loop and simulation
        scaling = scaling_from_spec(g, h)
        assert dumps_scaling_map(scaling) == dumps_scaling_map(scaling_from_spec(plant, spec))
        assert list(controlled_automaton(g, scaling).transitions()) == list(
            controlled_automaton(plant, scaling).transitions())
        sup, cfg = supervisor_from_scaling(scaling), TrialConfig(trials=200, max_depth=6, seed=3)
        assert run_trials(g, sup, cfg).to_tsv() == run_trials(plant, sup, cfg).to_tsv()


class TestExplore:
    def test_breadth_first_discovery_order(self):
        graph = {0: [2, 1], 1: [3, 0], 2: [3, 4], 3: [5], 4: [], 5: [0]}
        calls = []

        def successors(s):
            calls.append(s)
            return graph[s]

        assert explore([0], successors) == [0, 2, 1, 3, 4, 5]
        assert calls == [0, 2, 1, 3, 4, 5]

    def test_several_initial_states(self):
        graph = {0: [1], 1: [], 2: [1, 3], 3: []}
        assert explore([2, 0, 2], graph.__getitem__) == [2, 0, 1, 3]

    def test_generator_successors(self):
        def successors(n):
            if n < 5:
                yield n + 1
                yield n + 2

        assert explore([0], successors) == [0, 1, 2, 3, 4, 5, 6]


class TestAccessible:
    def test_trims_and_is_idempotent(self, robot):
        plant, _ = robot
        trans = plant.transition_map()
        trans[("dead", "s1")] = ("x0", E(1, 2))
        with pytest.warns(UserWarning):
            bigger = Pdes(plant.alphabet, plant.initial, trans, on_unreachable="trim")
        assert set(bigger.states) == set(plant.states)


class TestLanguage:
    def test_robot_values(self, robot):
        plant, _ = robot
        assert plant.eval_language(()) == ONE
        assert plant.eval_language(("s3", "s1")) == E(1, 8)
        assert plant.eval_language(("s1",)) == ZERO

    def test_unknown_event(self, robot):
        plant, _ = robot
        with pytest.raises(InvariantError):
            plant.eval_language(("bogus",))
        with pytest.raises(InvariantError, match="unknown event 'bogus'"):
            plant.delta(plant.initial, ("bogus",))


def enumerate_words(alphabet, depth):
    words = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [w + (e,) for w in frontier for e in alphabet.events]
        words += frontier
    return words


def intersection_value(a, b, word):
    """String-level intersection semantics, computed recursively."""
    value = ONE
    for i, e in enumerate(word):
        prefix = word[:i]
        la, lae = a.eval_language(prefix), a.eval_language(word[: i + 1])
        lb, lbe = b.eval_language(prefix), b.eval_language(word[: i + 1])
        if value.is_zero or la.is_zero or lb.is_zero:
            return ZERO
        ra = lae / la
        rb = lbe / lb
        value = value * (ra if ra <= rb else rb)
    return value


class TestProduct:
    def test_idempotent_up_to_language(self, robot):
        plant, _ = robot
        assert language_equivalent(product(plant, plant), plant)

    def test_unit_element(self, robot):
        plant, _ = robot
        a = plant.alphabet
        unit = Pdes(a, "u", {("u", e): ("u", E(1)) for e in a.events}, check_liveness=False)
        assert language_equivalent(product(plant, unit), plant)

    def test_loop_initial_probability(self, loops):
        plant, spec = loops
        prod = product(plant, spec)
        assert prod.rho(prod.initial, "s1") == E(1, 5)

    def test_alphabet_mismatch(self, robot, loops):
        from pdesctl import AlphabetMismatchError

        with pytest.raises(AlphabetMismatchError):
            product(robot[0], loops[0])

    def test_matches_string_intersection_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            alphabet = random_alphabet(rng, max_events=3)
            a = random_plant(rng, alphabet, max_states=3)
            b = random_plant(rng, alphabet, max_states=3)
            prod = product(a, b)
            for word in enumerate_words(alphabet, 5):
                assert prod.eval_language(word) == intersection_value(a, b, word)

    def test_commutative_associative_up_to_language(self):
        rng = random.Random(11)
        for _ in range(20):
            alphabet = random_alphabet(rng, max_events=3)
            a = random_plant(rng, alphabet, max_states=3)
            b = random_plant(rng, alphabet, max_states=3)
            c = random_plant(rng, alphabet, max_states=3)
            ab = product(a, b)
            ba = product(b, a)
            assert all(
                ab.eval_language(w) == ba.eval_language(w)
                for w in enumerate_words(alphabet, 4)
            )
            assert language_equivalent(product(ab, c), product(a, product(b, c)))

    def test_logic_commutes_with_product(self, loops):
        plant, spec = loops
        assert language_equivalent(
            product(plant, spec).logic(), product(plant.logic(), spec.logic())
        )


class TestSublanguage:
    def test_robot_spec_under_plant(self, robot):
        plant, spec = robot
        assert is_sublanguage(spec, plant).holds

    def test_reflexive(self, robot):
        plant, _ = robot
        assert is_sublanguage(plant, plant).holds

    def test_reverse_fails_with_witness(self, robot):
        plant, spec = robot
        verdict = is_sublanguage(plant, spec)
        assert not verdict.holds
        w = verdict.witness
        assert w.strings == (("s3",),)
        assert w.event == "s1"
        assert (w.lhs, w.rhs) == (E(1, 2), E(2, 5))
        for holds, witness in ((True, w), (False, None)):
            with pytest.raises(InvariantError, match="witness must be present exactly"):
                Verdict(holds, witness)

    def test_pointwise_domination(self):
        rng = random.Random(23)
        for _ in range(25):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            assert is_sublanguage(spec, plant).holds
            for word in enumerate_words(alphabet, 5):
                assert spec.eval_language(word) <= plant.eval_language(word)

    def test_agrees_with_string_ratio_oracle(self):
        # the per-transition comparison is equivalent to the defining
        # one-step ratio comparison because both automata are deterministic
        def oracle(a, b, depth):
            for word in enumerate_words(a.alphabet, depth):
                la = a.eval_language(word)
                if la.is_zero:
                    continue
                lb = b.eval_language(word)
                for e in a.alphabet.events:
                    lae = a.eval_language(word + (e,))
                    lbe = b.eval_language(word + (e,))
                    if lae * lb > lbe * la:
                        return False
            return True

        rng = random.Random(29)
        agreeing = disagreeing = 0
        for _ in range(40):
            alphabet = random_alphabet(rng, max_events=3)
            a = random_plant(rng, alphabet, max_states=3)
            b = random_plant(rng, alphabet, max_states=3)
            verdict = is_sublanguage(a, b).holds
            slow = oracle(a, b, 5)
            if verdict:
                agreeing += 1
                assert slow
            else:
                disagreeing += 1
                # need a deep enough horizon to certify the direction
                assert not oracle(a, b, len(a.states) * len(b.states))
        assert agreeing and disagreeing


class TestSubautomaton:
    def test_reflexive(self, robot):
        plant, _ = robot
        assert is_subautomaton(plant, plant)

    def test_subautomaton_implies_sublanguage(self):
        rng = random.Random(31)
        for _ in range(40):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            # generated spec keeps state names, so it is a structural sub.
            assert is_subautomaton(spec, plant)
            assert is_sublanguage(spec, plant).holds

    def test_rerouted_target_fails(self):
        a = Alphabet.make(["c"], ["u"], ["c", "u"])
        big = build(a, "x", [("x", "c", "y", E(1, 2)), ("y", "u", "x", E(1))])
        rerouted = build(a, "x", [("x", "c", "x", E(1, 2))])
        assert not is_subautomaton(rerouted, big)

    A = Alphabet.make(["c"], ["u"], ["c", "u"])
    BIG = [("x", "c", "y", E(1, 4)), ("y", "u", "x", E(1))]

    @pytest.mark.parametrize("initial, triples", [
        ("x", [("x", "u", "x", E(1, 2))]),  # b lacks the event
        ("x", [("x", "c", "y", E(1, 2)), ("y", "u", "x", E(1))]),  # a has a higher probability
        # b lacks z, whose row comes before the row of y, the edge into z
        ("x", [("z", "c", "x", E(1)), ("x", "c", "y", E(1, 4)), ("y", "u", "z", E(1))]),
        ("y", BIG),  # the initial states differ
    ])
    def test_not_contained(self, initial, triples):
        big = build(self.A, "x", self.BIG)
        assert is_subautomaton(big, big)
        assert not is_subautomaton(build(self.A, initial, triples), big)


class TestLanguageEquivalence:
    def test_rename_invariance(self, robot):
        plant, _ = robot
        renamed = plant.rename({s: s + "_r" for s in plant.states})
        assert language_equivalent(plant, renamed)

    def test_distinguishes_robot_pair(self, robot):
        plant, spec = robot
        assert not language_equivalent(plant, spec)


# -- the earlier pair walks, each its own breadth-first search, kept as
# references for the passes over the joint support ------------------------


def reference_product(a, b):
    require_same_alphabet(a, b)
    events = a.alphabet.events
    trans = {}

    def successors(state):
        ra, rb = a._out[state[0]], b._out[state[1]]
        for e in events:
            ea = ra.get(e)
            if ea is None:
                continue
            eb = rb.get(e)
            if eb is None:
                continue
            pa, pb = ea[1], eb[1]
            dst = (ea[0], eb[0])
            trans[(state, e)] = (dst, pa if pa <= pb else pb)
            yield dst

    initial = (a.initial, b.initial)
    explore([initial], successors)
    return Pdes(a.alphabet, initial, trans, check_liveness=False)


def reference_is_sublanguage(a, b):
    require_same_alphabet(a, b)
    events = a.alphabet.events
    initial = (a.initial, b.initial)
    words = {initial: ()}  # shortest access string of each pair
    witness = None

    def successors(state):
        nonlocal witness
        if witness is not None:
            return
        ra, rb = a._out[state[0]], b._out[state[1]]
        word = words[state]
        for e in events:
            ea = ra.get(e)
            if ea is None:
                continue
            eb = rb.get(e)
            rb_e = eb[1] if eb else ZERO
            if ea[1] > rb_e:
                witness = Witness((word,), e, ea[1], rb_e)
                return
            dst = (ea[0], eb[0])
            if dst not in words:
                words[dst] = word + (e,)
            yield dst

    explore([initial], successors)
    return Verdict(witness is None, witness)


def reference_language_equivalent(a, b):
    require_same_alphabet(a, b)
    differ = False

    def successors(state):
        nonlocal differ
        ra, rb = a._out[state[0]], b._out[state[1]]
        if differ or len(ra) != len(rb):
            differ = True
            return
        for e, (ta, pa) in ra.items():
            eb = rb.get(e)
            if eb is None or eb[1] != pa:
                differ = True
                return
            yield (ta, eb[0])

    explore([(a.initial, b.initial)], successors)
    return not differ


class TestWalkReference:
    """The passes over the joint support against the earlier walks."""

    def test_is_sublanguage_matches_reference(self):
        failing = 0
        for a, b in walk_pairs(263, 600):
            verdict = is_sublanguage(a, b)
            assert verdict == reference_is_sublanguage(a, b)
            failing += not verdict
        assert 150 <= failing <= 350, failing

    def test_language_equivalent_matches_reference(self):
        equal = 0
        for a, b in walk_pairs(269, 600):
            same = language_equivalent(a, b)
            assert same == reference_language_equivalent(a, b)
            equal += same
        assert 150 <= equal <= 450, equal

    def test_product_matches_reference(self):
        eps = 0
        for a, b in walk_pairs(271, 600):
            prod, ref = product(a, b), reference_product(a, b)
            labels = prod.labels
            assert tuple(labels) == ref.states
            labelled = [((labels[s], e), (labels[d], p)) for (s, e), (d, p) in prod.transition_map().items()]
            assert labelled == list(ref.transition_map().items())
            assert dumps_automaton(prod.canonical_names()) == dumps_automaton(ref.canonical_names())
            eps += a.has_eps_probabilities() or b.has_eps_probabilities()
        assert eps >= 100, eps


class TestObserver:
    def test_all_observable_mirrors_structure(self, loops):
        plant, _ = loops
        a = plant.alphabet
        full = Alphabet.make(["s1", "s2"], ["s3"], ["s1", "s2", "s3"])
        relabel = Pdes(full, plant.initial, plant.transition_map(), states=plant.states)
        obs = observer(relabel)
        assert len(obs.cells) == len(relabel.states)
        assert all(len(c) == 1 for c in obs.cells)

    def test_robot_partial_initial_cell(self, robot):
        plant, spec = robot
        partial = Alphabet.make(["s1", "s2"], ["s3", "s4", "s5"], ["s1", "s2"])
        spec2 = Pdes(partial, spec.initial, spec.transition_map(), states=spec.states)
        obs = observer(spec2)
        assert obs.cells[obs.initial] == frozenset(["q0", "q1", "q2", "q3"])

    def test_branch_spec_initial_cell(self, branches):
        _, spec = branches
        obs = observer(spec)
        assert obs.cells[obs.initial] == frozenset(["h0", "h1"])

    def test_walk(self, robot):
        plant, _ = robot
        obs = observer(plant)
        assert obs.locate(("s3",)) is not None
        assert obs.locate(("s3", "s3")) is None

    def test_visit_in_index_order_and_stop(self):
        rng = random.Random(41)
        for _ in range(50):
            plant = random_plant(rng, random_alphabet(rng), max_states=6)
            seen = []
            obs = observer(plant, seen.append)
            assert seen == list(obs.cells)
            stop = rng.randrange(len(obs.cells))
            calls = []

            def visit(cell):
                calls.append(cell)
                if len(calls) > stop:
                    raise LookupError

            with pytest.raises(LookupError):
                observer(plant, visit)
            assert calls == list(obs.cells[: stop + 1])

    def test_visit_stops_before_successors(self):
        # stopping at the first cell reads no row outside it
        rng = random.Random(43)
        multi = 0
        for _ in range(50):
            plant = random_plant(rng, random_alphabet(rng), max_states=6)
            reads = []

            class Rows(dict):
                def __getitem__(self, s):
                    reads.append(s)
                    return dict.__getitem__(self, s)

            probe = SimpleNamespace(alphabet=plant.alphabet, initial=plant.initial, _out=Rows(plant._out))

            def visit(cell):
                raise LookupError

            with pytest.raises(LookupError):
                observer(probe, visit)
            cells = observer(plant).cells
            assert set(reads) <= cells[0]
            multi += len(cells) > 1
        assert multi >= 25

    def test_automaton_is_the_observer_on_its_classes(self):
        # state i is class i, labelled with its cell
        rng = random.Random(43)
        for _ in range(100):
            plant = random_plant(rng, random_alphabet(rng), max_states=6)
            obs, a = observer(plant), observer_automaton(plant)
            assert a.alphabet == plant.alphabet.restrict_to_observable()
            assert (a.initial, a.states, a.labels) == (obs.initial, tuple(range(obs.count)), obs.cells)
            assert a.transition_map() == {(i, e): (j, ONE) for (i, e), j in obs.trans.items()}


def reference_observer(a):
    """A plain subset construction: every cell's unobservable reach is a
    fresh walk, cells are numbered as a breadth-first walk finds them and
    successors are taken in event order.  Returns (cells, transitions)."""
    out, observable = a._out, a.alphabet.observable

    def close(states):
        cell, stack = set(states), list(states)
        while stack:
            for e, (dst, _) in out[stack.pop()].items():
                if e not in observable and dst not in cell:
                    cell.add(dst)
                    stack.append(dst)
        return frozenset(cell)

    cells = [close([a.initial])]
    index = {cells[0]: 0}
    trans = {}
    for i, cell in enumerate(cells):  # grows as cells are found
        for e in a.alphabet.events:
            targets = {out[s][e][0] for s in cell if e in out[s]}
            if e in observable and targets:
                nxt = close(targets)
                if nxt not in index:
                    index[nxt] = len(cells)
                    cells.append(nxt)
                trans[(i, e)] = index[nxt]
    return cells, trans


def unobservable_shapes_plant(rng):
    """A plant over unobservable a, b and observable c, d: a runs a chain
    through all states and then back (a cycle, or a self-loop at the last
    state), b adds self-loops and back edges, c and d jump anywhere."""
    alphabet = Alphabet.make(["a", "c"], ["b", "d"], ["c", "d"])
    k = rng.randint(1, 12)
    trans = {}
    for i in range(k):
        targets = {"a": i + 1 if i + 1 < k else rng.randrange(k)}
        if rng.random() < 0.6:
            targets["b"] = rng.choice([i, rng.randrange(i + 1)])
        for e in "cd":
            if rng.random() < 0.5:
                targets[e] = rng.randrange(k)
        weights = [rng.randint(1, 4) for _ in targets]
        denom = sum(weights) + rng.randint(0, 2)
        for (e, j), w in zip(targets.items(), weights):
            trans[(f"n{i}", e)] = (f"n{j}", E(w, denom))
    return Pdes(alphabet, "n0", trans)


class TestObserverReference:
    def inputs(self):
        rng = random.Random(47)
        for i in range(300):
            if i % 2:
                plant = random_plant(rng, random_alphabet(rng), max_states=7)
            else:
                plant = unobservable_shapes_plant(rng)
            yield plant
            yield JointSupport(plant, random_subspec(rng, plant))

    def test_matches_plain_subset_construction(self):
        # a reach table keyed by anything less than the whole target set
        # would hand some cell a closure of other targets
        seen = {"multi_target": 0, "joint": 0}
        for a in self.inputs():
            cells, trans = reference_observer(a)
            obs = observer(a)
            assert (obs.initial, obs.count) == (0, len(cells))
            assert obs.cells == tuple(cells)
            assert obs.trans == trans
            seen["joint"] += isinstance(a, JointSupport)
            seen["multi_target"] += any(
                len({a._out[s][e][0] for s in cells[i] if e in a._out[s]}) > 1 for i, e in trans
            )
        assert seen["joint"] == 300 and seen["multi_target"] >= 100, seen


class TestLogic:
    def test_idempotent(self, robot):
        plant, _ = robot
        assert language_equivalent(plant.logic().logic(), plant.logic())

    def test_robot_transition_count(self, robot):
        plant, _ = robot
        assert len(list(plant.logic().transitions())) == 7


class TestMinimize:
    def test_merges_equivalent_states(self):
        a = Alphabet.make(["c"], [], ["c"])
        p = build(a, "x0", [
            ("x0", "c", "x1", E(1)),
            ("x1", "c", "x0", E(1)),
        ])
        unrolled = build(a, "y0", [
            ("y0", "c", "y1", E(1)),
            ("y1", "c", "y2", E(1)),
            ("y2", "c", "y1", E(1)),
        ])
        assert len(minimize_logic(unrolled).states) == 1
        assert language_equivalent(minimize_logic(unrolled), p)

    def test_rejects_probabilities(self, robot):
        plant, _ = robot
        with pytest.raises(InvariantError, match="expects a logic automaton"):
            minimize_logic(plant)

    def test_keeps_apart_equal_structures_with_other_probabilities(self):
        a = Alphabet.make(["c"], [], ["c"])
        p = build(a, "y0", [
            ("y0", "c", "y1", E(1, 2)),
            ("y1", "c", "y0", E(1, 3)),
        ])
        assert len(minimize(p).states) == 2
        assert len(minimize(p.logic()).states) == 1

    @staticmethod
    def inputs(seed=11, count=200):
        """Seeded automata with states to merge: a sub-spec unfolded by a
        product with the logic of another plant on its alphabet, and the
        normal spec automaton that the reference infimal pipeline builds for
        the sub-spec.
        Every other sub-spec has infinitesimal probabilities."""
        rng = random.Random(seed)
        for i in range(count):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet)
            spec = random_subspec(rng, plant)
            if i % 2:
                spec = eps_scaled(rng, spec)
            yield product(spec, random_plant(rng, alphabet).logic())
            yield reference_infimal_pipeline(plant, spec).spec_normal

    def test_inputs_merge_states_and_carry_eps(self):
        inputs = list(self.inputs())
        assert sum(len(minimize(a).states) < len(a.states) for a in inputs) >= 100
        assert sum(a.has_eps_probabilities() for a in inputs) >= 100

    def test_keeps_the_language(self):
        for a in self.inputs():
            assert language_equivalent(minimize(a), a)

    def test_idempotent_on_state_count(self):
        for a in self.inputs():
            m = minimize(a)
            assert len(minimize(m).states) == len(m.states)

    def test_count_is_the_brute_force_count(self):
        for a in self.inputs():
            assert len(minimize(a).states) == brute_minimal_count(a)


FORMAT_SAMPLE = """\
# patrol robot plant
states: x0 x1 x2 x3
initial: x0
controllable: s1 s2
uncontrollable: s3 s4 s5
observable: s1 s2 s3
unobservable: s4 s5
trans: x0 s3 x1 0.25
trans: x0 s4 x2 0.375
trans: x0 s5 x3 0.375
trans: x1 s1 x0 0.5
trans: x1 s2 x0 0.5
trans: x2 s2 x0 1
trans: x3 s1 x0 1
"""


class TestTextFormat:
    def test_parses_robot(self, robot):
        plant, _ = robot
        parsed = loads_automaton(FORMAT_SAMPLE)
        assert parsed.alphabet == plant.alphabet
        assert language_equivalent(parsed, plant)

    def test_roundtrip_identity(self):
        parsed = loads_automaton(FORMAT_SAMPLE)
        again = loads_automaton(dumps_automaton(parsed))
        assert again.states == parsed.states
        assert again.transition_map() == parsed.transition_map()
        assert dumps_automaton(again) == dumps_automaton(parsed)

    def test_eps_probability(self):
        text = FORMAT_SAMPLE + "trans: x3 s3 x0 0+\n"
        parsed = loads_automaton(text)
        assert parsed.rho("x3", "s3") == EpsProb(F(1), 1)

    def test_rejects_liveness_violation(self):
        from pdesctl import FormatError

        text = FORMAT_SAMPLE.replace("trans: x1 s2 x0 0.5", "trans: x1 s2 x0 0.7")
        with pytest.raises(FormatError):
            loads_automaton(text)

    def test_rejects_duplicate_transition(self):
        from pdesctl import FormatError

        text = FORMAT_SAMPLE + "trans: x1 s1 x2 0.1\n"
        with pytest.raises(FormatError) as err:
            loads_automaton(text)
        assert "duplicate" in str(err.value)

    def test_dump_rejects_non_string_states(self, robot):
        prod = product(*robot)
        with pytest.raises(InvariantError, match="string state names"):
            dumps_automaton(prod)

    def test_unreachable_states_trimmed_with_warning(self):
        text = FORMAT_SAMPLE.replace("states: x0 x1 x2 x3", "states: x0 x1 x2 x3 zz")
        with pytest.warns(UserWarning):
            parsed = loads_automaton(text)
        assert "zz" not in parsed.states

    def test_empty_states_line_declares_no_states(self):
        from pdesctl import FormatError

        header = "controllable: c\nuncontrollable:\nobservable: c\n"
        with pytest.raises(FormatError, match="^line 2: initial state 'a' not declared$"):
            loads_automaton("states:\ninitial: a\n" + header)
        # a transition's undeclared state is reported first, as with any
        # states line
        for states in ("states:", "states: a"):
            with pytest.raises(FormatError) as err:
                loads_automaton(f"{states}\ninitial: a\n{header}trans: a c b 1/2\n")
            assert str(err.value) == "line 6: transition references undeclared state"
        # without a states line, the states are the ones the file names
        assert loads_automaton("initial: a\n" + header + "trans: a c b 1/2\n").states == ("a", "b")
        # a transition may name its source first: states come in order of
        # first mention, a source before its target
        loop = loads_automaton("initial: a\n" + header + "trans: b c a 1/2\ntrans: a c b 1/2\n")
        assert loop.states == ("a", "b")
        assert loads_automaton(dumps_automaton(loop)).transition_map() == loop.transition_map()

    def test_parses_each_distinct_probability_once_per_call(self, monkeypatch):
        import pdesctl.automata as automata

        seen = []
        parse = automata.parse_prob
        monkeypatch.setattr(automata, "parse_prob", lambda text: seen.append(text) or parse(text))
        first = loads_automaton(FORMAT_SAMPLE)
        assert sorted(seen) == ["0.25", "0.375", "0.5", "1"]
        # a second load parses again: no table outlives its call
        assert loads_automaton(FORMAT_SAMPLE).transition_map() == first.transition_map()
        assert len(seen) == 8

    def test_syntax_error_reports_line(self):
        from pdesctl import FormatError

        with pytest.raises(FormatError) as err:
            loads_automaton("states: a\ninitial: a\ncontrollable: c\nobservable: c\ntrans: a c\n")
        assert err.value.line == 5

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(20):
            alphabet = random_alphabet(rng)
            plant = random_plant(rng, alphabet)
            text = dumps_automaton(plant)
            again = loads_automaton(text)
            assert dumps_automaton(again) == text
            assert language_equivalent(again, plant)


class TestObserverPartition:
    def test_normal_automaton_cells_partition(self, branches):
        plant, spec = branches
        for a in (infimal_pipeline(plant, spec), reference_infimal_pipeline(plant, spec).spec_normal):
            assert is_partition(observer(a).cells, a.states)
