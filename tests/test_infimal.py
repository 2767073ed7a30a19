import random
from fractions import Fraction

import pytest

from pdesctl import (
    Alphabet,
    EPS,
    EpsProb,
    InvariantError,
    NormalPair,
    NotSublanguageError,
    ONE,
    Pdes,
    ZERO,
    check_controllable,
    check_observable,
    dumps_automaton,
    explore,
    infimal_co_support,
    infimal_pipeline,
    infimal_superlanguage,
    is_sublanguage,
    language_equivalent,
    observer,
    observer_automaton,
    product,
    refine_to_normal,
    reweight_infimal,
    strip_eps_edges,
)
from pdesctl.automata import require_same_alphabet
from pdesctl.infimal import SINK, _check_spec_values, _complete_to_sink
from conftest import (
    E,
    branch_plant,
    branch_spec,
    observation_scaled_spec,
    random_alphabet,
    random_plant,
    random_subspec,
    robot_plant,
    robot_spec,
)

F = Fraction


def ratio(a, word, e):
    lw = a.eval_language(word)
    le = a.eval_language(word + (e,))
    if lw.is_zero:
        return None
    return le / lw if not le.is_zero else ZERO


# -- support-level (non-probabilistic) oracles ---------------------------


def support_controllable_brute(k, m, depth):
    """Classic controllability of supp(k) w.r.t. supp(m): every plant
    uncontrollable extension of a supported string stays supported."""
    queue = [((), k.initial, m.initial)]
    seen = {(k.initial, m.initial)}
    while queue:
        word, sk, sm = queue.pop(0)
        for e in k.alphabet.uncontrollable_events():
            if m.target(sm, e) is not None and k.target(sk, e) is None:
                return False
        if len(word) >= depth:
            continue
        for e in k.alphabet.events:
            tk, tm = k.target(sk, e), m.target(sm, e)
            if tk is None:
                continue
            assert tm is not None
            if (tk, tm) not in seen:
                seen.add((tk, tm))
                queue.append((word + (e,), tk, tm))
    return True


def support_observable_brute(k, m, depth):
    """Classic observability of supp(k) w.r.t. supp(m): observation-equal
    supported strings enable the same controllable continuations whenever
    the plant allows them."""
    init = (k.initial, m.initial, k.initial, m.initial)
    queue = [((), (), *init)]
    seen = {init}
    unobservable = k.alphabet.unobservable
    while queue:
        s1, s2, k1, m1, k2, m2 = queue.pop(0)
        for e in k.alphabet.controllable_events():
            if k.target(k1, e) is not None and m.target(m2, e) is not None:
                if k.target(k2, e) is None:
                    return False
        if max(len(s1), len(s2)) >= depth:
            continue
        moves = []
        for e in k.alphabet.events:
            t1, u1 = k.target(k1, e), m.target(m1, e)
            t2, u2 = k.target(k2, e), m.target(m2, e)
            if t1 is not None and t2 is not None:
                moves.append((s1 + (e,), s2 + (e,), t1, u1, t2, u2))
            if e in unobservable:
                if t1 is not None:
                    moves.append((s1 + (e,), s2, t1, u1, k2, m2))
                if t2 is not None:
                    moves.append((s1, s2 + (e,), k1, m1, t2, u2))
        for item in moves:
            cfg = item[2:]
            if cfg not in seen:
                seen.add(cfg)
                queue.append(item)
    return True


def random_superspec_logic(rng, plant, spec):
    """Logic automaton whose support contains the spec's, built by keeping
    every spec transition and a random sprinkling of plant-only ones."""
    initial = (plant.initial, spec.initial)
    from pdesctl import ONE

    trans = {}
    queue = [initial]
    seen = {initial}
    while queue:
        x, q = queue.pop(0)
        for e in plant.alphabet.events:
            xt = plant.target(x, e)
            if xt is None:
                continue
            qt = spec.target(q, e) if q is not None else None
            if qt is None and (q is None or spec.rho(q, e).is_zero):
                if rng.random() < 0.7:
                    continue
                qt = None
            dst = (xt, qt)
            trans[((x, q), e)] = (dst, ONE)
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return Pdes(plant.alphabet, initial, trans, check_liveness=False)


BRANCH_ADDED = [
    ("s2",),
    ("s3",),
    ("s2", "s2"),
    ("s3", "s2"),
    ("s2", "s2", "s3"),
    ("s3", "s2", "s3"),
    ("s3", "s2", "s3", "s2"),
    ("s3", "s2", "s3", "s2", "s2"),
    ("s3", "s2", "s3", "s2", "s3"),
]

BRANCH_EXCLUDED = [
    ("s2", "s2", "s2"),
    ("s1", "s2", "s2", "s2"),
    ("s3", "s2", "s2"),
    ("s3", "s2", "s3", "s2", "s1"),
]


class TestCoSupport:
    def test_achievable_spec_is_fixpoint(self, robot):
        plant, spec = robot
        support = infimal_co_support(plant.logic(), spec.logic())
        assert language_equivalent(support, spec.logic())

    def test_branch_saturation(self, branches):
        plant, spec = branches
        support = infimal_co_support(plant.logic(), spec.logic())
        for word in BRANCH_ADDED:
            assert support.supports(word), word
        for word in BRANCH_EXCLUDED:
            assert not support.supports(word), word
        # the original support is preserved
        for word in [(), ("s1",), ("s1", "s2", "s2", "s3", "s2")]:
            assert support.supports(word)

    def test_fully_controllable_observable_alphabet_is_noop(self):
        rng = random.Random(211)
        from pdesctl import Alphabet

        for _ in range(20):
            events = ["e0", "e1", "e2"]
            alphabet = Alphabet.make(events, [], events)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            support = infimal_co_support(plant.logic(), spec.logic())
            assert language_equivalent(support, spec.logic())

    def test_rejects_support_escaping_plant(self, loops):
        plant, spec = loops
        with pytest.raises(NotSublanguageError):
            infimal_co_support(spec.logic(), plant.logic())

    def test_result_is_controllable_and_observable(self):
        rng = random.Random(223)
        for _ in range(40):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            support = infimal_co_support(plant.logic(), spec.logic())
            depth = len(support.states) * len(plant.states) + 2
            assert support_controllable_brute(support, plant.logic(), depth)
            assert support_observable_brute(support, plant.logic(), min(depth, 12))

    def test_contained_in_sampled_superlanguages(self):
        rng = random.Random(227)
        for _ in range(25):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            inf_support = infimal_co_support(plant.logic(), spec.logic())
            for _ in range(3):
                seed = random_superspec_logic(rng, plant, spec)
                member = infimal_co_support(plant.logic(), seed)
                assert is_sublanguage(inf_support, member).holds


class TestRefineToNormal:
    def test_branch_shapes(self, branches):
        plant, spec = branches
        support = infimal_co_support(plant.logic(), spec.logic())
        pair = refine_to_normal(plant, spec, support)
        assert pair.g_n is plant
        assert language_equivalent(pair.h_n.logic(), support)
        assert observer(pair.h_n).is_partition(pair.h_n.states)
        # every edge follows the plant edge of the tracked plant state,
        # which is what the reweighting reads
        for x, e, y, _ in pair.h_n.transitions():
            assert plant.target(x[0][0], e) == y[0][0], (x, e)
        # original spec values survive; added strings are infinitesimal
        assert pair.h_n.eval_language(("s1",)) == E(1, 5)
        assert pair.h_n.eval_language(("s1", "s2")) == E(1, 20)
        assert pair.h_n.eval_language(("s3",)) == EpsProb(F(1), 1)
        assert pair.h_n.eval_language(("s3", "s2")) == EpsProb(F(1), 2)

    def test_trivial_when_spec_equals_plant(self, robot):
        plant, _ = robot
        support = infimal_co_support(plant.logic(), plant.logic())
        pair = refine_to_normal(plant, plant, support)
        assert language_equivalent(pair.g_n, plant)
        assert language_equivalent(pair.h_n, plant)
        assert not pair.h_n.has_eps_probabilities()


BRANCH_RESULT_RATIOS = [
    ((), "s1", F(1, 5)),
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
    (("s3", "s2", "s3", "s2"), "s2", F(1, 10)),
    (("s3", "s2", "s3", "s2"), "s3", F(2, 5)),
]


class TestReweight:
    def test_branch_golden_ratios(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        for word, e, expect in BRANCH_RESULT_RATIOS:
            assert ratio(res.result, word, e) == EpsProb(expect), (word, e)

    def test_identity_when_spec_normal_equals_plant_normal(self, robot):
        plant, _ = robot
        res = infimal_pipeline(plant, plant)
        assert language_equivalent(res.result, plant)

    def test_cell_maximum_hand_check(self, branches):
        # the first observation cell mixes the infinitesimal branch entry
        # with an ordinary ratio of 1/2, so the scaled entry probability
        # is 1/2 of the plant's 1/5
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        assert res.result.eval_language(("s2",)) == E(1, 10)

    def test_structure_identical_to_spec_normal(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        assert set(res.result.states) == set(res.spec_normal.states)
        tilde = {k: v[0] for k, v in res.result.transition_map().items()}
        normal = {k: v[0] for k, v in res.spec_normal.transition_map().items()}
        assert tilde == normal

    def test_sandwich(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        assert is_sublanguage(res.spec_normal, res.result).holds
        assert is_sublanguage(res.result, plant).holds

    def test_result_achievable_wrt_normal_plant(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        assert check_controllable(plant, res.result).holds
        assert check_observable(plant, res.result).holds

    def test_rejects_non_normal_spec(self):
        # the unobservable u puts b in the initial cell and in the cell after o
        alphabet = Alphabet.make(["c"], ["o", "u"], ["c", "o"])
        a = Pdes(alphabet, "a", {("a", "u"): ("b", E(1, 2)), ("a", "o"): ("b", E(1, 2)),
                                 ("b", "c"): ("b", E(1, 2))})
        assert not observer(a).is_partition(a.states)
        with pytest.raises(InvariantError, match="not normal"):
            reweight_infimal(NormalPair(a, a))

    def test_plant_edge_missing_from_spec_is_typed_error(self):
        # h_n is normal (one state, one cell) but lacks the plant's
        # uncontrollable u at its plant state p
        alphabet = Alphabet.make(["c"], ["u"], ["c", "u"])
        plant = Pdes(alphabet, "p", {("p", "c"): ("p", E(1, 2)), ("p", "u"): ("p", E(1, 2))})
        x = (("p", "k", "q"), "o")
        h_n = Pdes(alphabet, x, {(x, "c"): (x, E(1, 4))})
        assert observer(h_n).is_partition(h_n.states)
        with pytest.raises(InvariantError, match="forces 'u'"):
            reweight_infimal(NormalPair(plant, h_n))

    def test_argmax_witness_exists(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        h_n, tilde = res.spec_normal, res.result
        cells = observer(h_n).cells
        cell_of = {s: cell for cell in cells for s in cell}
        for (x, e), (dst, p) in tilde.transition_map().items():
            if e not in tilde.alphabet.controllable or not p.is_ordinary:
                continue
            k = p / plant.rho(x[0][0], e)
            achieved = any(
                not h_n.rho(y, e).is_zero and h_n.rho(y, e) / plant.rho(y[0][0], e) == k
                for y in cell_of[x]
            )
            assert achieved, (x, e)


class TestPipeline:
    def test_spec_equals_plant(self, robot):
        plant, _ = robot
        assert language_equivalent(infimal_superlanguage(plant, plant), plant)

    def test_achievable_spec_returned_unchanged(self, robot):
        plant, spec = robot
        assert language_equivalent(infimal_superlanguage(plant, spec), spec)

    def test_rejects_non_sublanguage(self, robot):
        plant, spec = robot
        with pytest.raises(NotSublanguageError):
            infimal_superlanguage(spec, plant)

    def test_random_pipelines_validate(self):
        rng = random.Random(229)
        done = 0
        while done < 30:
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            res = infimal_pipeline(plant, spec)
            assert is_sublanguage(res.spec_normal, res.result).holds
            assert is_sublanguage(res.result, plant).holds
            assert check_controllable(plant, res.result).holds
            assert check_observable(plant, res.result).holds
            # the reweighting never alters the logical structure
            assert set(res.result.states) == set(res.spec_normal.states)
            assert {k: v[0] for k, v in res.result.transition_map().items()} == {
                k: v[0] for k, v in res.spec_normal.transition_map().items()
            }
            done += 1


# -- the parent chain of whole automata, kept as a reference ------------


def _triple_product(a, b, c):
    require_same_alphabet(a, b)
    require_same_alphabet(a, c)
    events = a.alphabet.events
    trans = {}

    def successors(state):
        ra, rb, rc = a._out[state[0]], b._out[state[1]], c._out[state[2]]
        for e in events:
            if e in ra and e in rb and e in rc:
                dst = (ra[e][0], rb[e][0], rc[e][0])
                trans[(state, e)] = (dst, ONE)
                yield dst

    initial = (a.initial, b.initial, c.initial)
    explore([initial], successors)
    return Pdes(a.alphabet, initial, trans, check_liveness=False)


def _assign_probs(base, prob_fn):
    trans = {}
    for src, e, dst, _ in base.transitions():
        p = prob_fn(src, e)
        if p.is_zero:
            raise InvariantError(f"assigned probability must be positive at {src!r} on {e!r}")
        trans[(src, e)] = (dst, p)
    return Pdes(base.alphabet, base.initial, trans, states=base.states)


def _pair_with_observer(base, obs_dfa):
    """Normalization: pair each state with its observation class; observable
    events advance the class, unobservable ones keep it."""
    events = base.alphabet.events
    observable = base.alphabet.observable
    trans = {}

    def successors(state):
        o = state[1]
        rx, ro = base._out[state[0]], obs_dfa._out[o]
        for e in events:
            edge = rx.get(e)
            if edge is None:
                continue
            if e in observable:
                oe = ro.get(e)
                if oe is None:
                    raise InvariantError("observer lacks a transition during normalization")
                dst = (edge[0], oe[0])
            else:
                dst = (edge[0], o)
            trans[(state, e)] = (dst, edge[1])
            yield dst

    initial = (base.initial, obs_dfa.initial)
    explore([initial], successors)
    return Pdes(base.alphabet, initial, trans)


def reference_spec_extended(plant, spec, support):
    """Plant x support x sink-completed spec, with the spec's probabilities
    on its support and EPS off it."""
    def spec_prob(state, event):
        if state[2] is SINK:
            return EPS
        p = spec.rho(state[2], event)
        return p if not p.is_zero else EPS

    triples = _triple_product(plant.logic(), support.logic(), _complete_to_sink(spec.logic()))
    return _assign_probs(triples, spec_prob)


def reference_normal(plant, spec, support):
    """The normal spec automaton built as a chain of whole automata: the
    extended spec paired with its own observer automaton."""
    spec_extended = reference_spec_extended(plant, spec, support)
    return _pair_with_observer(spec_extended, observer_automaton(spec_extended))


def reference_self_loops(a):
    """Self-loop completion of a logic automaton over its whole alphabet."""
    trans = a.transition_map()
    for s in a.states:
        for e in a.alphabet.events:
            trans.setdefault((s, e), (s, ONE))
    return Pdes(a.alphabet, a.initial, trans, states=a.states, check_liveness=False)


def reference_infimal(plant, spec):
    """The two-automaton construction: plant-side and spec-side refinements
    are both paired with the product of their observers (the spec observer
    self-loop completed on the plant side), and the reweighting reads
    probabilities and targets from the plant side, adopting any edge the
    spec side lacks.  Returns the result and the number of adopted edges."""
    support = infimal_co_support(plant.logic(), spec.logic())
    logic_g, logic_h_total = plant.logic(), _complete_to_sink(spec.logic())
    spec_extended = reference_spec_extended(plant, spec, support)
    plant_refined = _assign_probs(
        _triple_product(logic_g, _complete_to_sink(support), logic_h_total),
        lambda s, e: plant.rho(s[0], e),
    )
    obs_plant = observer_automaton(plant_refined)
    obs_spec = observer_automaton(spec_extended)
    g_n = _pair_with_observer(plant_refined, product(obs_plant, reference_self_loops(obs_spec)))
    h_n = _pair_with_observer(spec_extended, product(obs_plant, obs_spec))

    alphabet = plant.alphabet
    trans = h_n.transition_map()
    known = set(h_n.states)
    extra = []
    adopted = 0

    def adopt(x, e, edge):
        nonlocal adopted
        adopted += (x, e) not in trans
        trans[(x, e)] = edge
        if edge[0] not in known:
            known.add(edge[0])
            extra.append(edge[0])

    for x in h_n.states:
        for e in alphabet.uncontrollable_events():
            edge = g_n._out[x].get(e)
            if edge is not None:
                adopt(x, e, edge)
    for cell in observer(h_n).cells:
        for e in alphabet.controllable_events():
            best = ZERO
            for x in cell:
                hp = h_n.rho(x, e)
                if not hp.is_zero:
                    best = max(best, hp / g_n.rho(x, e))
            if best.is_zero:
                continue
            for x in cell:
                edge = g_n._out[x].get(e)
                if edge is not None:
                    adopt(x, e, (edge[0], best * edge[1]))
    result = Pdes(alphabet, h_n.initial, trans, states=list(h_n.states) + extra)
    return result, adopted


class TestNormalReference:
    def test_matches_two_automaton_reference(self):
        rng = random.Random(241)
        pairs = [(robot_plant(), robot_spec()), (branch_plant(), branch_spec())]
        for i in range(600):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=2 + i % 5)
            pairs.append((plant, random_subspec(rng, plant, touch_uncontrollable=i % 2 == 0)))
        seen = {"smaller": 0, "unachievable": 0}
        for plant, spec in pairs:
            ref, adopted = reference_infimal(plant, spec)
            assert adopted == 0
            res = infimal_pipeline(plant, spec).result
            assert language_equivalent(res, ref)
            assert len(res.states) <= len(ref.states)
            assert check_controllable(plant, res).holds
            assert check_observable(plant, res).holds
            seen["smaller"] += len(res.states) < len(ref.states)
            seen["unachievable"] += not language_equivalent(res, spec)
        assert seen["smaller"] >= 10 and seen["unachievable"] >= 200, seen


    def test_matches_one_automaton_chain(self):
        # the one-walk construction against the chain of whole automata:
        # same triples in the same order, cells in one-to-one
        # correspondence, byte-identical dumps
        rng = random.Random(251)
        pairs = [(robot_plant(), robot_spec()), (branch_plant(), branch_spec())]
        for i in range(600):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=2 + i % 5)
            spec = random_subspec(rng, plant, touch_uncontrollable=i % 2 == 0)
            if i % 3 == 0:
                spec = eps_scaled(rng, spec)
            pairs.append((plant, spec))
        seen = {"eps": 0, "unobservable": 0, "sink": 0}
        for plant, spec in pairs:
            support = infimal_co_support(plant, spec)
            h_n = refine_to_normal(plant, spec, support).h_n
            ref = reference_normal(plant, spec, support)
            assert [x[0] for x in h_n.states] == [x[0] for x in ref.states]
            cells = set(zip((x[1] for x in h_n.states), (x[1] for x in ref.states)))
            assert len(cells) == len({c for c, _ in cells}) == len({c for _, c in cells})
            assert dumps_automaton(h_n.canonical_names()) == dumps_automaton(ref.canonical_names())
            seen["eps"] += spec.has_eps_probabilities()
            seen["unobservable"] += bool(plant.alphabet.unobservable)
            seen["sink"] += any(x[0][2] is SINK for x in h_n.states)
        assert min(seen.values()) >= 100, seen


def eps_scaled(rng, spec):
    """The spec with about a third of its transitions scaled by EPS."""
    trans = {
        (src, e): (dst, p * EPS if rng.random() < 0.35 else p)
        for src, e, dst, p in spec.transitions()
    }
    return Pdes(spec.alphabet, spec.initial, trans, states=spec.states)


class TestCheckSpecValues:
    """`_check_spec_values` holds h_n to the spec on the spec's support and
    to EPS off it."""

    alphabet = Alphabet.make(["c"], ["u"], ["c", "u"])

    def spec(self):
        return Pdes(self.alphabet, "q", {("q", "c"): ("q", E(1, 2))})

    def h_n(self, off_prob, c_prob=E(1, 2)):
        x, y = (("p", "k", "q"), 0), (("p", "k", SINK), 0)
        return Pdes(self.alphabet, x, {
            (x, "c"): (x, c_prob),
            (x, "u"): (y, off_prob),
            (y, "c"): (y, EPS),
        })

    def test_eps_off_the_spec_passes(self):
        _check_spec_values(self.spec(), self.h_n(EPS))

    def test_ordinary_probability_off_the_spec_raises(self):
        with pytest.raises(InvariantError, match="altered the probability of 'u'"):
            _check_spec_values(self.spec(), self.h_n(E(1, 4)))

    def test_other_infinitesimal_off_the_spec_raises(self):
        with pytest.raises(InvariantError, match="altered the probability of 'u'"):
            _check_spec_values(self.spec(), self.h_n(EPS * EPS))

    def test_altered_spec_probability_raises(self):
        with pytest.raises(InvariantError, match="altered the probability of 'c'"):
            _check_spec_values(self.spec(), self.h_n(EPS, c_prob=E(1, 4)))

    def test_dropped_spec_transition_raises(self):
        x = (("p", "k", "q"), 0)
        h_n = Pdes(self.alphabet, x, {(x, "u"): (x, EPS)})
        with pytest.raises(InvariantError, match="dropped a spec transition"):
            _check_spec_values(self.spec(), h_n)


class TestClosureUnderIntersection:
    def test_controllable_closed_under_product(self):
        rng = random.Random(233)
        done = 0
        while done < 40:
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec1 = observation_scaled_spec(rng, plant)
            spec2 = observation_scaled_spec(rng, plant)
            assert check_controllable(plant, spec1).holds
            assert check_controllable(plant, spec2).holds
            both = product(spec1, spec2)
            assert check_controllable(plant, both).holds
            done += 1

    def test_observable_closed_under_product(self):
        rng = random.Random(239)
        done = 0
        while done < 40:
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec1 = observation_scaled_spec(rng, plant, scale_uncontrollable=True)
            spec2 = observation_scaled_spec(rng, plant, scale_uncontrollable=True)
            assert check_observable(plant, spec1).holds
            assert check_observable(plant, spec2).holds
            both = product(spec1, spec2)
            assert check_observable(plant, both).holds
            done += 1


class TestStripEps:
    def test_strips_only_infinitesimal_edges(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        pair_h = res.spec_normal
        stripped = strip_eps_edges(pair_h)
        assert not stripped.has_eps_probabilities()
        assert language_equivalent(stripped, spec)
        # the tightened result has no infinitesimal edges here, so the
        # stripper leaves it alone
        assert language_equivalent(strip_eps_edges(res.result), res.result)
