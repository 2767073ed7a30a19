import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pdesctl import (
    Alphabet,
    EpsProb,
    InvariantError,
    Pdes,
    ZERO,
    ONE,
    dumps_automaton,
    explore,
    is_subautomaton,
    is_sublanguage,
    language_equivalent,
    loads_automaton,
    minimize_logic,
    observer,
    product,
)
from conftest import E, build, random_alphabet, random_plant, random_subspec

F = Fraction


class TestAlphabet:
    def test_ordering_enforced(self):
        with pytest.raises(InvariantError):
            Alphabet(("u", "c"), frozenset(["c"]), frozenset(["u"]))
        a = Alphabet.make(["c"], ["u"], ["u"])
        assert a.events == ("c", "u")
        assert a.m == 1 and a.n == 2

    def test_projection(self):
        a = Alphabet.make(["s1"], ["s2", "s3"], ["s2", "s3"])
        assert a.project(()) == ()
        assert a.project(("s1",)) == ()
        assert a.project(("s1", "s2", "s1", "s3")) == ("s2", "s3")
        with pytest.raises(InvariantError):
            a.project(("nope",))

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
        assert list(p.transition_map()) == [("x", "c"), ("b", "u"), ("a", "u")]

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
        assert plant.accessible().states == plant.states
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


class TestLanguageEquivalence:
    def test_rename_invariance(self, robot):
        plant, _ = robot
        renamed = plant.rename({s: s + "_r" for s in plant.states})
        assert language_equivalent(plant, renamed)

    def test_distinguishes_robot_pair(self, robot):
        plant, spec = robot
        assert not language_equivalent(plant, spec)


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
        assert obs.walk(("s3",)) is not None
        assert obs.walk(("s3", "s3")) is None

    def test_visit_in_index_order_and_stop(self):
        rng = random.Random(41)
        for _ in range(50):
            plant = random_plant(rng, random_alphabet(rng), max_states=6)
            seen = []
            obs = observer(plant, lambda i, cell: seen.append((i, cell)))
            assert seen == list(enumerate(obs.cells))
            stop = rng.randrange(len(obs.cells))
            calls = []

            def visit(i, cell):
                calls.append(i)
                if i == stop:
                    raise LookupError

            with pytest.raises(LookupError):
                observer(plant, visit)
            assert calls == list(range(stop + 1))

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

            def visit(i, cell):
                raise LookupError

            with pytest.raises(LookupError):
                observer(probe, visit)
            cells = observer(plant).cells
            assert set(reads) <= cells[0]
            multi += len(cells) > 1
        assert multi >= 25


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

    def test_unreachable_states_trimmed_with_warning(self):
        text = FORMAT_SAMPLE.replace("states: x0 x1 x2 x3", "states: x0 x1 x2 x3 zz")
        with pytest.warns(UserWarning):
            parsed = loads_automaton(text)
        assert "zz" not in parsed.states

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
        from pdesctl import infimal_pipeline

        res = infimal_pipeline(plant, spec)
        a = res.spec_normal
        assert observer(a).is_partition(a.states)
