import itertools
import random
from fractions import Fraction

from pdesctl import (
    ZERO,
    EpsProb,
    Pdes,
    Witness,
    build_tc,
    build_to,
    check_controllable,
    check_observable,
    explore,
    is_sublanguage,
    language_equivalent,
    product,
)
from pdesctl.verification import _ANY, _ratio_class
from conftest import (
    E,
    drop_transitions,
    random_alphabet,
    random_plant,
    random_subspec,
    robot_spec,
)
from oracles import brute_controllable, brute_observable

F = Fraction


class TestControllability:
    def test_loop_pair_fails_with_shortest_witness(self, loops):
        plant, spec = loops
        verdict = check_controllable(plant, spec)
        assert not verdict.holds
        w = verdict.witness
        assert w.strings == (("s1",),)
        assert w.event == "s3"
        assert w.lhs == E(1, 2)
        assert w.rhs == E(1, 4)

    def test_robot_pair_holds(self, robot):
        plant, spec = robot
        assert check_controllable(plant, spec).holds

    def test_spec_equal_plant_holds(self, robot):
        plant, _ = robot
        assert check_controllable(plant, plant).holds

    def test_plant_transition_missing_in_spec_is_tolerated(self, robot):
        # dropping an uncontrollable transition leaves the remaining
        # spec-defined probabilities matching the plant's
        plant, spec = robot
        pruned = drop_transitions(spec, [("q0", "s4")])
        assert check_controllable(plant, pruned).holds

    def test_spec_only_transition_dumps(self, robot):
        plant, spec = robot
        pruned_plant = drop_transitions(plant, [("x0", "s4")])
        verdict = check_controllable(pruned_plant, robot_spec())
        assert not verdict.holds
        assert verdict.witness.event == "s4"


class TestObservability:
    def test_loop_pair_fails(self, loops):
        plant, spec = loops
        verdict = check_observable(plant, spec)
        assert not verdict.holds
        w = verdict.witness
        assert set(w.strings) == {("s1",), ()}
        assert w.event == "s2"
        assert {w.lhs, w.rhs} == {E(0), E(1, 20)}

    def test_robot_partial_fails(self, robot_partial):
        plant, spec = robot_partial
        verdict = check_observable(plant, spec)
        assert not verdict.holds
        w = verdict.witness
        assert set(w.strings) == {("s3",), ("s5",)}
        assert w.event == "s1"
        assert {w.lhs, w.rhs} == {E(2, 5), E(1, 2)}

    def test_robot_full_holds(self, robot):
        plant, spec = robot
        assert check_observable(plant, spec).holds


class TestBruteForces:
    def test_loop_controllability_at_depth_one(self, loops):
        plant, spec = loops
        verdict = brute_controllable(plant, spec, 1)
        assert not verdict.holds
        assert verdict.witness.strings == (("s1",),)

    def test_depth_zero_checks_only_root(self, loops):
        plant, spec = loops
        assert brute_controllable(plant, spec, 0).holds

    def test_loop_observability_at_depth_one(self, loops):
        plant, spec = loops
        verdict = brute_observable(plant, spec, 1)
        assert not verdict.holds

    def test_identity_observable(self, robot):
        plant, _ = robot
        assert brute_observable(plant, plant, 6).holds


def saturating_depth(plant, spec):
    return len(plant.states) * len(spec.states)


class TestDifferential:
    def test_controllability_matches_brute(self):
        rng = random.Random(101)
        for _ in range(120):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=5)
            spec = random_subspec(rng, plant)
            fast = check_controllable(plant, spec)
            slow = brute_controllable(plant, spec, saturating_depth(plant, spec))
            assert fast.holds == slow.holds

    def test_observability_matches_brute(self):
        rng = random.Random(103)
        for _ in range(120):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            fast = check_observable(plant, spec)
            slow = brute_observable(plant, spec, saturating_depth(plant, spec))
            assert fast.holds == slow.holds


class TestWitnessValidity:
    def test_controllability_witnesses_reproduce(self):
        rng = random.Random(107)
        found = 0
        for _ in range(200):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            verdict = check_controllable(plant, spec)
            if verdict.holds:
                continue
            found += 1
            w = verdict.witness
            (word,) = w.strings
            assert not spec.eval_language(word + (w.event,)).is_zero or not plant.eval_language(
                word + (w.event,)
            ).is_zero
            # the definitional ratio comparison confirms the violation
            lg, lh = plant.eval_language(word), spec.eval_language(word)
            lge = plant.eval_language(word + (w.event,))
            lhe = spec.eval_language(word + (w.event,))
            assert lhe * lg != lge * lh
        assert found > 20

    def test_observability_witnesses_reproduce(self):
        rng = random.Random(109)
        found = 0
        for _ in range(200):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            verdict = check_observable(plant, spec)
            if verdict.holds:
                continue
            found += 1
            s1, s2 = verdict.witness.strings
            e = verdict.witness.event
            assert plant.alphabet.project(s1) == plant.alphabet.project(s2)
            assert not spec.eval_language(s1).is_zero
            assert not spec.eval_language(s2).is_zero
            g1, h1 = plant.eval_language(s1), spec.eval_language(s1)
            g2, h2 = plant.eval_language(s2), spec.eval_language(s2)
            g1e, h1e = plant.eval_language(s1 + (e,)), spec.eval_language(s1 + (e,))
            g2e, h2e = plant.eval_language(s2 + (e,)), spec.eval_language(s2 + (e,))
            assert g1e * h2e * g2 * h1 != g2e * h1e * g1 * h2
        assert found > 20


class TestEquivalentGenerators:
    """Language-equivalent spec generators receive identical verdicts."""

    def test_unfolded_spec_same_verdicts(self):
        rng = random.Random(113)
        for _ in range(40):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            unfolded = product(spec, plant)  # same language, different states
            assert language_equivalent(spec, unfolded)
            assert check_controllable(plant, spec).holds == check_controllable(plant, unfolded).holds
            assert check_observable(plant, spec).holds == check_observable(plant, unfolded).holds


class TestSizeBounds:
    def test_testing_automata_within_bounds(self):
        rng = random.Random(127)
        for _ in range(60):
            alphabet = random_alphabet(rng, max_events=4)
            plant = random_plant(rng, alphabet, max_states=5)
            spec = random_subspec(rng, plant)
            tc = build_tc(plant, spec)
            to = build_to(plant, spec)
            nx, nq = len(plant.states), len(spec.states)
            assert tc.state_count <= nx * nq + 1
            assert to.state_count <= nx**2 * nq**2 + 1


# -- reference kernel ----------------------------------------------------
#
# The testing-automaton loops as they were before ratio classes and
# parent pointers: per-quadruple EpsProb cross-products and eagerly
# stored access strings.  The kernel must reproduce their state order,
# dump edges and witnesses exactly.

_ABSENT = (None, ZERO)


def reference_build_tc(plant, spec):
    alphabet = plant.alphabet
    initial = (plant.initial, spec.initial)
    access = {initial: ()}
    dump_edges = []

    def successors(pair):
        rx, rq = plant._out[pair[0]], spec._out[pair[1]]
        for e in alphabet.uncontrollable_events():
            eq = rq.get(e)
            if eq is None:
                continue
            rp = rx.get(e, _ABSENT)[1]
            if rp != eq[1]:
                dump_edges.append((pair, e, rp, eq[1]))
        word = access[pair]
        for e in alphabet.events:
            ex, eq = rx.get(e), rq.get(e)
            if ex is None or eq is None:
                continue
            if e not in alphabet.controllable and ex[1] != eq[1]:
                continue
            dst = (ex[0], eq[0])
            if dst not in access:
                access[dst] = word + (e,)
            yield dst

    pairs = explore([initial], successors)
    return pairs, dump_edges, access


def reference_build_to(plant, spec):
    alphabet = plant.alphabet
    initial = (plant.initial, spec.initial, plant.initial, spec.initial)
    access = {initial: ((), ())}
    dump_edges = []

    def successors(quad):
        x1, q1, x2, q2 = quad
        g1, h1, g2, h2 = plant._out[x1], spec._out[q1], plant._out[x2], spec._out[q2]
        s1, s2 = access[quad]
        dumped = set()
        for e in alphabet.controllable_events():
            lhs = g1.get(e, _ABSENT)[1] * h2.get(e, _ABSENT)[1]
            rhs = g2.get(e, _ABSENT)[1] * h1.get(e, _ABSENT)[1]
            if lhs != rhs:
                dump_edges.append((quad, e, lhs, rhs))
                dumped.add(e)
        moves = []
        for e in alphabet.events:
            if e in g1 and e in h1 and e in g2 and e in h2 and e not in dumped:
                moves.append(((e, e), (g1[e][0], h1[e][0], g2[e][0], h2[e][0])))
        for e in alphabet.events:
            if e in alphabet.observable:
                continue
            if e in g1 and e in h1:
                moves.append(((e, None), (g1[e][0], h1[e][0], x2, q2)))
            if e in g2 and e in h2:
                moves.append(((None, e), (x1, q1, g2[e][0], h2[e][0])))
        for (l1, l2), dst in moves:
            if dst not in access:
                access[dst] = (s1 + ((l1,) if l1 else ()), s2 + ((l2,) if l2 else ()))
            yield dst

    quads = explore([initial], successors)
    return quads, dump_edges, access


# plant or spec values for one event: absent, ordinary, infinitesimal degrees 1-2
RATIO_VALUES = [
    None, E(1, 2), E(1, 4), E(1), EpsProb(F(1, 2), 1), EpsProb(F(1), 1),
    EpsProb(F(1, 4), 2), EpsProb(F(1, 2), 2),
]


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


class TestKernelReference:
    def test_ratio_classes_match_cross_products(self):
        ratios = {}
        for g1, h1, g2, h2 in itertools.product(RATIO_VALUES, repeat=4):
            c1 = _ratio_class(g1 and (None, g1), h1 and (None, h1), ratios)
            c2 = _ratio_class(g2 and (None, g2), h2 and (None, h2), ratios)
            agree = c1 == c2 or _ANY in (c1, c2)
            lhs = (g1 or ZERO) * (h2 or ZERO)
            rhs = (g2 or ZERO) * (h1 or ZERO)
            assert agree == (lhs == rhs), (g1, h1, g2, h2)

    def test_matches_reference_loops(self):
        rng = random.Random(131)
        seen = {"eps_dump": 0, "spec_only": 0, "ctrl_fails": 0, "obs_fails": 0}
        for _ in range(300):
            plant, spec = wild_pair(rng)
            pairs, tc_dumps, tc_access = reference_build_tc(plant, spec)
            tc = build_tc(plant, spec)
            assert tc.pairs == pairs
            assert tc.dump_edges == tc_dumps
            assert tc.state_count == len(pairs) + bool(tc_dumps)
            verdict = check_controllable(plant, spec)
            if tc_dumps:
                pair, e, rp, rs = tc_dumps[0]
                assert verdict.witness == Witness((tc_access[pair],), e, rp, rs)
                seen["ctrl_fails"] += 1
            else:
                assert verdict.holds

            quads, to_dumps, to_access = reference_build_to(plant, spec)
            to = build_to(plant, spec)
            assert to.quads == quads
            assert to.dump_edges == to_dumps
            assert to.state_count == len(quads) + bool(to_dumps)
            assert all(to.access(quad) == to_access[quad] for quad in quads)
            verdict = check_observable(plant, spec)
            if to_dumps:
                quad, e, lhs, rhs = to_dumps[0]
                assert verdict.witness == Witness(to_access[quad], e, lhs, rhs)
                seen["obs_fails"] += 1
            else:
                assert verdict.holds
            seen["eps_dump"] += any(not p.is_ordinary for d in to_dumps for p in d[2:])
            seen["spec_only"] += not is_sublanguage(spec, plant).holds
        assert min(seen.values()) >= 20, seen
