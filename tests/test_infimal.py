import copy
import pickle
import random
from fractions import Fraction

import pytest

from pdesctl import (
    Alphabet,
    EPS,
    EpsProb,
    InvariantError,
    NotSublanguageError,
    ObservationClasses,
    ONE,
    Pdes,
    ScalingMap,
    ZERO,
    check_controllable,
    check_observable,
    controlled_automaton,
    dumps_automaton,
    explore,
    infimal_co_support,
    infimal_pipeline,
    is_sublanguage,
    language_equivalent,
    minimize,
    observer,
    observer_automaton,
    product,
    refine_to_normal,
    reweight_infimal,
    scaling_from_spec,
    strip_eps_edges,
)
import pdesctl.automata as automata
import pdesctl.cli as cli
import pdesctl.infimal as infimal
import reference_infimal as reference
from pdesctl.automata import JointSupport, _first_members, require_same_alphabet
from pdesctl.supervisor import _closed_loop, quotient_classes
from oracles import equivalent_classes, infimal_values
from reference_infimal import SINK, NormalPair, reference_infimal_pipeline
from conftest import (
    E,
    branch_plant,
    branch_spec,
    eps_plant_pairs,
    is_partition,
    load_gen,
    observation_scaled_spec,
    random_alphabet,
    random_plant,
    random_subspec,
    robot_plant,
    robot_spec,
    seeded_pairs,
    walk_pairs,
)

F = Fraction

def ratio(a, word, e):
    lw = a.eval_language(word)
    le = a.eval_language(word + (e,))
    if lw.is_zero:
        return None
    return le / lw if not le.is_zero else ZERO


def label_cells(a):
    """The states of `a` grouped by the cell of their label, as a set of
    sets."""
    cells = {}
    for x in a.states:
        cells.setdefault(a.labels[x][1], set()).add(x)
    return {frozenset(cell) for cell in cells.values()}


def relabel(a, labels):
    """`a` with the label table ``labels``."""
    return Pdes._from_rows(a.alphabet, a.initial, a._out, labels)


def is_breadth_first(a):
    """Whether `a`'s states are 0..n-1 in the order a breadth-first walk
    in event order finds them."""
    return explore([a.initial], a._targets) == list(range(len(a.states))) == list(a.states)


def inf_pco_text(result, strip=False):
    """What `inf-pco` writes for a pipeline result."""
    if strip:
        result = strip_eps_edges(result)
    return dumps_automaton(minimize(result).canonical_names())


def count_builds(monkeypatch):
    """From here on, record each `Pdes` built, from transitions or from
    rows (both go through its one checking path), and the argument of each
    `observer` call, from either module."""
    built, observed = [], []
    take, real = Pdes._take_rows, automata.observer

    def counting_take(self, *args, **kwargs):
        built.append(None)
        take(self, *args, **kwargs)

    def counting_observer(a, *args, **kwargs):
        observed.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(Pdes, "_take_rows", counting_take)
    for module in (automata, infimal):
        monkeypatch.setattr(module, "observer", counting_observer)
    return built, observed


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
        support = reference.closure_automaton(plant.logic(), spec.logic())
        assert language_equivalent(support, spec.logic())

    def test_branch_saturation(self, branches):
        plant, spec = branches
        support = reference.closure_automaton(plant.logic(), spec.logic())
        for word in BRANCH_ADDED:
            assert support.supports(word), word
        for word in BRANCH_EXCLUDED:
            assert not support.supports(word), word
        # the original support is preserved
        for word in [(), ("s1",), ("s1", "s2", "s2", "s3", "s2")]:
            assert support.supports(word)

    def test_fully_controllable_observable_alphabet_is_noop(self):
        rng = random.Random(211)
        for _ in range(20):
            events = ["e0", "e1", "e2"]
            alphabet = Alphabet.make(events, [], events)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            support = reference.closure_automaton(plant.logic(), spec.logic())
            assert language_equivalent(support, spec.logic())

    def test_rejects_support_escaping_plant(self, loops):
        plant, spec = loops
        for build in (infimal_co_support, reference.closure_automaton):
            with pytest.raises(InvariantError, match="leaves the plant's support"):
                build(spec.logic(), plant.logic())

    def test_states_track_plant_spec_and_spec_cell(self, branches):
        # each state is numbered in breadth-first order and labelled
        # (x, q, o): where the plant, the spec and the spec's observer are
        # after any string reaching it, None once off the spec
        plant, spec = branches
        support = reference.closure_automaton(plant, spec)
        assert is_breadth_first(support)
        obs = observer(spec)
        words = {support.initial: ()}
        for s in explore([support.initial], support._targets):
            for e, (t, _) in support._out[s].items():
                words.setdefault(t, words[s] + (e,))
        assert len(words) == len(support.labels) == len(set(support.labels))
        for s, word in words.items():
            x, q, o = support.labels[s]
            assert x == plant.delta(plant.initial, word)
            assert q == spec.delta(spec.initial, word)
            assert o == obs.locate(word)
        assert any(q is None for _, q, _ in support.labels)

    def test_builds_no_automaton_and_observes_only_the_spec(self, branches, monkeypatch):
        plant, spec = branches
        built, observed = count_builds(monkeypatch)
        infimal_co_support(plant, spec)
        assert not built and observed == [spec]

    def test_result_is_controllable_and_observable(self):
        rng = random.Random(223)
        for _ in range(40):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            support = reference.closure_automaton(plant.logic(), spec.logic())
            depth = len(support.states) * len(plant.states) + 2
            assert support_controllable_brute(support, plant.logic(), depth)
            assert support_observable_brute(support, plant.logic(), min(depth, 12))

    def test_contained_in_sampled_superlanguages(self):
        rng = random.Random(227)
        for _ in range(25):
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            inf_support = reference.closure_automaton(plant.logic(), spec.logic())
            for _ in range(3):
                seed = random_superspec_logic(rng, plant, spec)
                member = reference.closure_automaton(plant.logic(), seed)
                assert is_sublanguage(inf_support, member).holds

    def test_one_round_is_a_fixpoint(self):
        # the closure is the saturation rounds' fixpoint: one more round
        # adds nothing, and it generates what the rounds end in
        grown = 0
        for plant, spec in seeded_pairs():
            support = reference.closure_automaton(plant, spec)
            assert reference.saturate_once(support, plant) is None
            assert language_equivalent(support, reference.infimal_co_support(plant, spec))
            grown += not language_equivalent(support, spec.logic())
        assert grown >= 200, grown

    def test_spec_cells_hold_their_states_and_closure_cells_one_spec_cell(self):
        # a label (x, q, o) on the spec has q in the spec observer's cell o,
        # so that cell enables each controllable spec edge at q; and the
        # states of one cell of the closure's observer share their o and
        # have distinct (x, q), so the cell is one o and a set of pairs
        on_spec = multi = 0
        for plant, spec in seeded_pairs():
            support = reference.closure_automaton(plant, spec)
            spec_cells = observer(spec).cells
            for _, q, o in support.labels:
                if q is not None:
                    assert q in spec_cells[o]
                    on_spec += 1
            for cell in observer(support).cells:
                assert len({support.labels[s][2] for s in cell}) == 1, cell
                assert len({support.labels[s][:2] for s in cell}) == len(cell), cell
                multi += len(cell) > 1
        assert on_spec >= 1500 and multi >= 500, (on_spec, multi)

    def test_cells_are_the_closure_observer_cells(self):
        # the walk's cells, moves and numbering are those of the observer
        # of the closure built as an automaton, read through its labels
        seen = {"eps": 0, "off_spec": 0, "left_spec_observation": 0}
        for plant, spec in seeded_pairs():
            cells = infimal_co_support(plant, spec)
            closure = reference.closure_automaton(plant, spec)
            obs = observer(closure)
            assert cells.classes == obs
            assert len(cells.classes.cells) == len(obs.cells)
            for (o, members), cell in zip(cells.classes.cells, obs.cells):
                assert len(members) == len(cell)
                assert {cells.states[i] + (o,) for i in members} == {closure.labels[s] for s in cell}
            # S_K keeps every uncontrollable edge, and a controllable one
            # where some spec state of the cell enables it
            uncontrollable = set(plant.alphabet.uncontrollable_events())
            kept = [uncontrollable | {e for q in cell for e in spec.enabled(q)} for cell in observer(spec).cells]
            assert cells.kept == {None: uncontrollable, **dict(enumerate(kept))}
            assert len(set(cells.states)) == len(cells.states) == len({label[:2] for label in closure.labels})
            seen["eps"] += spec.has_eps_probabilities()
            seen["off_spec"] += any(q is None for _, q in cells.states)
            seen["left_spec_observation"] += any(o is None for o, _ in cells.classes.cells)
        assert min(seen.values()) >= 80, seen


def block_rows(plant, h_n):
    """The factor row of each block of h_n's labels (plant state, block),
    read off its edges: a controllable plant edge at y carries the plant's
    probability times the block's factor at a state labelled (y, b), and
    a missing one the factor zero.  Asserts that every state lies in an
    observer cell of h_n, that each cell lies in one block (so a block's
    states are a union of cells), and that a block's states agree on its
    row."""
    controllable = plant.alphabet.controllable
    cells = observer(h_n).cells
    assert set().union(*cells) == set(h_n.states)
    for cell in cells:
        assert len({h_n.labels[x][1] for x in cell}) == 1, cell
    rows = {}
    for x in h_n.states:
        y, b = h_n.labels[x]
        row = rows.setdefault(b, {})
        for e, (_, p) in plant._out[y].items():
            if e in controllable:
                edge = h_n._out[x].get(e)
                factor = edge[1] / p if edge else ZERO
                assert row.setdefault(e, factor) == factor, (x, e)
    return rows


def unquotiented_loop(plant, spec):
    """The plant under one factor row per cell of the closure's observer,
    with no cells merged: the closed loop over the cells themselves,
    labelled (plant state, cell)."""
    support = infimal_co_support(plant, spec)
    return _closed_loop(plant, support.classes, reweight_infimal(plant, spec, support))


class TestRefineToNormal:
    def test_branch_shapes(self, branches):
        plant, spec = branches
        support = infimal_co_support(plant, spec)
        pair = refine_to_normal(plant, spec, support)
        assert pair.g_n is plant
        assert language_equivalent(pair.h_n.logic(), reference.closure_automaton(plant, spec))
        rows = block_rows(plant, pair.h_n)
        assert is_breadth_first(pair.h_n)
        labels = pair.h_n.labels
        assert len(set(labels)) == len(labels) == len(pair.h_n.states)
        # each block's row is the row of the closure cells merged into it
        factors = reweight_infimal(plant, spec, support)
        for row in rows.values():
            assert any(all(f.get(e, ZERO) == factor for e, factor in row.items()) for f in factors)
        # every edge follows the plant edge of the tracked plant state
        for x, e, y, p in pair.h_n.transitions():
            assert plant.target(labels[x][0], e) == labels[y][0], (x, e)
            if e not in plant.alphabet.controllable:
                assert p == plant.rho(labels[x][0], e), (x, e)
        assert language_equivalent(pair.h_n, reference_infimal_pipeline(plant, spec).result)

    def test_trivial_when_spec_equals_plant(self, robot):
        plant, _ = robot
        support = infimal_co_support(plant.logic(), plant.logic())
        pair = refine_to_normal(plant, plant, support)
        assert language_equivalent(pair.g_n, plant)
        assert language_equivalent(pair.h_n, plant)
        assert not pair.h_n.has_eps_probabilities()

    def test_builds_only_the_result(self, branches, monkeypatch):
        plant, spec = branches
        support = infimal_co_support(plant, spec)
        built, observed = count_builds(monkeypatch)
        refine_to_normal(plant, spec, support)
        # the factors are a table, and the cells are the walk's
        assert len(built) == 1 and not observed

    def test_labels_are_the_observer_cells(self):
        # the quotiented loop: each block is a union of its observer cells,
        # all with one factor row.  The unquotiented loop against the label
        # check and the subset construction: the check accepts it, whose
        # labels are its observer cells, and a relabelled mutant is
        # rejected exactly when its labels are not its observer cells.
        # Moving one state's label to another cell leaves the rows alone,
        # so the mutant's observer still partitions its states; renaming
        # the cells keeps them the cells.
        rng = random.Random(257)
        seen = {"moved": 0, "renamed": 0}
        for plant, spec in seeded_pairs():
            block_rows(plant, refine_to_normal(plant, spec, infimal_co_support(plant, spec)).h_n)
            h_n = unquotiented_loop(plant, spec)
            NormalPair(plant, h_n)
            assert label_cells(h_n) == set(observer(h_n).cells)
            assert is_partition(observer(h_n).cells, h_n.states)
            cells = sorted({o for _, o in h_n.labels})
            if len(cells) < 2:
                continue
            x = rng.choice(h_n.states)
            y, o = h_n.labels[x]
            moved = list(h_n.labels)
            moved[x] = (y, rng.choice([c for c in cells if c != o]))
            shift = {c: cells[(k + 1) % len(cells)] for k, c in enumerate(cells)}
            mutants = {
                "renamed": relabel(h_n, [(y, shift[c]) for y, c in h_n.labels]),
                "moved": relabel(h_n, moved),
            }
            for kind, mutant in mutants.items():
                obs = observer(mutant)
                assert is_partition(obs.cells, mutant.states)
                are_cells = label_cells(mutant) == set(obs.cells)
                assert are_cells == (kind == "renamed")
                if are_cells:
                    NormalPair(plant, mutant)
                else:
                    with pytest.raises(InvariantError, match="not normal"):
                        NormalPair(plant, mutant)
                seen[kind] += 1
        assert min(seen.values()) >= 200, seen


class TestQuotient:
    """`quotient_classes` on the closure's observer cells and their factor
    rows, against the closed loop over the cells themselves."""

    def test_inf_pco_text_matches_the_unquotiented_loop(self):
        pairs = [*seeded_pairs(seed=7, count=1500), *eps_plant_pairs(11, 300)]
        merged = 0
        for plant, spec in pairs:
            result = infimal_pipeline(plant, spec)
            full = unquotiented_loop(plant, spec)
            assert language_equivalent(result, full)
            assert inf_pco_text(result) == inf_pco_text(full)
            assert len(result.states) <= len(full.states)
            merged += len(result.states) < len(full.states)
        assert merged >= 450, merged

    def test_merges_exactly_the_equivalent_cells(self):
        seen = {"merged": 0, "kept_apart": 0}
        for plant, spec in seeded_pairs(count=300):
            support = infimal_co_support(plant, spec)
            obs = support.classes
            factors = reweight_infimal(plant, spec, support)
            classes, first = quotient_classes(obs, [frozenset(row.items()) for row in factors])
            rows = [factors[c] for c in first]
            # the block of each cell, found by walking the two DFAs side by
            # side; every cell move is a block move
            order, blocks = [obs.initial], {obs.initial: classes.initial}
            for c in order:  # grows as the walk finds cells
                for e in plant.alphabet.events:
                    t = obs.trans.get((c, e))
                    if t is not None and t not in blocks:
                        blocks[t] = classes.trans[(blocks[c], e)]
                        order.append(t)
            assert all(classes.trans.get((blocks[c], e)) == blocks[t] for (c, e), t in obs.trans.items())
            assert len(blocks) == obs.count and len(rows) == classes.count == len(set(blocks.values()))
            equivalent = equivalent_classes(obs, factors)
            for c in range(obs.count):
                assert factors[c] == rows[blocks[c]]
                for d in range(c + 1, obs.count):
                    same = blocks[c] == blocks[d]
                    assert same == ((c, d) in equivalent), (c, d)
                    seen["merged" if same else "kept_apart"] += 1
        assert min(seen.values()) >= 100, seen

    def test_unstable_partitions_raise(self):
        # merging two cells with different rows, or two cells with equal
        # rows that are not equivalent, breaks the stability check; cells
        # with keys of their own keep their own blocks
        seen = {"rows": 0, "moves": 0}
        for plant, spec in seeded_pairs():
            support = infimal_co_support(plant, spec)
            obs = support.classes
            factors = reweight_infimal(plant, spec, support)
            classes, first = quotient_classes(obs, list(range(obs.count)))
            assert first == list(range(obs.count)) and (classes.initial, classes.trans) == (obs.initial, obs.trans)
            observable = [e for e in plant.alphabet.events if e in plant.alphabet.observable]
            moves = [[obs.trans.get((c, e), -1) for e in observable] for c in range(obs.count)]
            equivalent = equivalent_classes(obs, factors)
            for c in range(obs.count):
                # the first cell of each kind that c is not equivalent to
                apart = {}
                for d in range(c + 1, obs.count):
                    if (c, d) not in equivalent:
                        apart.setdefault("rows" if factors[c] != factors[d] else "moves", d)
                for kind, d in apart.items():
                    block = list(range(obs.count))
                    block[d] = c
                    dense = {}
                    with pytest.raises(InvariantError, match="not a stable partition"):
                        _first_members(factors, moves, [dense.setdefault(b, len(dense)) for b in block])
                    seen[kind] += 1
        assert min(seen.values()) >= 200, seen


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


def factor_table(plant, spec):
    """The closure built as an automaton, its observer, and the factors of
    the walk's cells, which are that observer's cells in its numbering
    (`TestCoSupport.test_cells_are_the_closure_observer_cells`)."""
    support = reference.closure_automaton(plant, spec)
    rows = reweight_infimal(plant, spec, infimal_co_support(plant, spec))
    return support, observer(support), {(i, e): factor for i, row in enumerate(rows) for e, factor in row.items()}


class TestReweight:
    def test_branch_golden_ratios(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        for word, e, expect in BRANCH_RESULT_RATIOS:
            assert ratio(res, word, e) == EpsProb(expect), (word, e)

    def test_identity_when_spec_equals_plant(self, robot):
        plant, _ = robot
        res = infimal_pipeline(plant, plant)
        assert language_equivalent(res, plant)

    def test_cell_maximum_hand_check(self, branches):
        # the first observation cell mixes the infinitesimal branch entry
        # with an ordinary ratio of 1/2, so the scaled entry probability
        # is 1/2 of the plant's 1/5
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        assert res.eval_language(("s2",)) == E(1, 10)

    def test_structure_is_the_closure(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        assert language_equivalent(res.logic(), reference.closure_automaton(plant, spec))

    def test_sandwich(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        assert is_sublanguage(spec, res).holds
        assert is_sublanguage(reference_infimal_pipeline(plant, spec).spec_normal, res).holds
        assert is_sublanguage(res, plant).holds

    def test_result_achievable_wrt_normal_plant(self, branches):
        plant, spec = branches
        res = infimal_pipeline(plant, spec)
        assert check_controllable(plant, res).holds
        assert check_observable(plant, res).holds

    def test_factors_are_attained_and_enabled(self):
        # each (cell, controllable event) some state of the cell enables has
        # a factor, attained at one of them; an ordinary factor is attained
        # on the spec, and no factor exceeds one
        seen = {"eps": 0, "ordinary": 0}
        for plant, spec in seeded_pairs():
            support, obs, factors = factor_table(plant, spec)
            controllable = plant.alphabet.controllable
            enabled = {
                (i, e) for i, cell in enumerate(obs.cells) for s in cell for e in support._out[s]
                if e in controllable
            }
            assert set(factors) == enabled
            for (i, e), factor in factors.items():
                assert ZERO < factor <= ONE
                attained = set()
                for state in obs.cells[i]:
                    if e not in support._out[state]:
                        continue
                    x, q, _ = support.labels[state]
                    p = plant.rho(x, e)
                    on_spec = q is not None and not spec.rho(q, e).is_zero
                    if (spec.rho(q, e) / p if on_spec else EPS / p) == factor:
                        attained.add(on_spec)
                assert attained, (i, e)
                if factor.is_ordinary:
                    assert True in attained, (i, e)
                seen["ordinary" if factor.is_ordinary else "eps"] += 1
        assert min(seen.values()) >= 40, seen

    def test_table_is_the_brute_force_maximum(self):
        # one ratio per cell membership, with no memo; a memo keyed without
        # the spec state would hand one spec state's ratio to another
        seen = {"shared_state": 0, "eps_plant_off_spec": 0}
        for plant, spec in [*seeded_pairs(), *eps_plant_pairs(263, 300)]:
            support, obs, factors = factor_table(plant, spec)
            best = {}
            for i, cell in enumerate(obs.cells):
                for state in cell:
                    x, q, _ = support.labels[state]
                    for e in support._out[state]:
                        if e not in plant.alphabet.controllable:
                            continue
                        p = plant._out[x][e][1]
                        eq = spec._out[q].get(e) if q is not None else None
                        ratio = eq[1] / p if eq is not None else EpsProb(1 / p.magnitude, 1)
                        if ratio > best.get((i, e), ZERO):
                            best[(i, e)] = ratio
                        seen["eps_plant_off_spec"] += eq is None and not p.is_ordinary
            assert factors == best
            memberships = [state for cell in obs.cells for state in cell]
            seen["shared_state"] += len(memberships) > len(set(memberships))
        assert seen["shared_state"] >= 50 and seen["eps_plant_off_spec"] >= 40, seen

    def test_off_spec_ratio_over_infinitesimal_plant_probability(self):
        # c is unobservable, so every string is in one cell.  The spec
        # takes c once, at EPS/4 where the plant has 1/2; the closure adds
        # c after that, off the spec, where the plant has EPS/2 and then
        # 1/2.  Off the spec the ratio is 2 EPS both times (EPS / p would
        # make it 2 at the plant's EPS/2), and it beats the spec's EPS/2.
        alphabet = Alphabet.make(["c"], [], [])
        half_eps = EpsProb(F(1, 2), 1)
        plant = Pdes(alphabet, "p0", {("p0", "c"): ("p1", E(1, 2)), ("p1", "c"): ("p0", half_eps)})
        spec = Pdes(alphabet, "q0", {("q0", "c"): ("q1", EpsProb(F(1, 4), 1))})
        support, obs, factors = factor_table(plant, spec)
        assert obs.count == 1 and len(support.states) == 4
        assert factors == {(0, "c"): EpsProb(F(2), 1)}
        result = infimal_pipeline(plant, spec)
        assert result.eval_language(("c", "c", "c")) == EPS * EPS * EPS * EPS
        assert check_controllable(plant, result).holds and check_observable(plant, result).holds

    def test_builds_nothing(self, branches, monkeypatch):
        plant, spec = branches
        support = infimal_co_support(plant, spec)
        built, observed = count_builds(monkeypatch)
        reweight_infimal(plant, spec, support)
        assert not built and not observed


class TestPipeline:
    def test_spec_equals_plant(self, robot):
        plant, _ = robot
        assert language_equivalent(infimal_pipeline(plant, plant), plant)

    def test_achievable_spec_returned_unchanged(self, robot):
        plant, spec = robot
        assert language_equivalent(infimal_pipeline(plant, spec), spec)

    def test_rejects_non_sublanguage(self, robot):
        plant, spec = robot
        with pytest.raises(NotSublanguageError):
            infimal_pipeline(spec, plant)

    def test_non_sublanguage_witness_is_that_of_is_sublanguage(self):
        failing = 0
        for spec, plant in walk_pairs(263, 600):
            verdict = is_sublanguage(spec, plant)
            if verdict:
                continue
            failing += 1
            w = verdict.witness
            with pytest.raises(NotSublanguageError) as err:
                infimal_pipeline(plant, spec)
            assert err.value.witness == w
            assert str(err.value) == (
                f"specification is not a sublanguage of the plant at {w.strings[0]!r} on {w.event!r}"
            )
        assert failing >= 150, failing

    def test_one_joint_support_and_one_observer(self, branches, monkeypatch):
        built = []
        init = JointSupport.__init__

        def counting(self, a, b):
            built.append((a, b))
            init(self, a, b)

        monkeypatch.setattr(JointSupport, "__init__", counting)
        _, observed = count_builds(monkeypatch)
        infimal_pipeline(*branches)
        # (plant, spec) once, for the verdict; the spec's observer for the
        # cells, which give the factors too
        assert built == [branches]
        assert observed == [branches[1]]

    def test_random_pipelines_validate(self):
        rng = random.Random(229)
        done = 0
        while done < 30:
            alphabet = random_alphabet(rng, max_events=3)
            plant = random_plant(rng, alphabet, max_states=4)
            spec = random_subspec(rng, plant)
            res = infimal_pipeline(plant, spec)
            assert is_sublanguage(spec, res).holds
            assert is_sublanguage(res, plant).holds
            assert check_controllable(plant, res).holds
            assert check_observable(plant, res).holds
            # the factors never alter the closure's logical structure
            assert language_equivalent(res.logic(), reference.closure_automaton(plant, spec))
            done += 1

    def test_no_lowered_factor_keeps_the_spec(self):
        # local minimality: lowering any one nonzero controllable factor of
        # the supervisor that realizes the result loses some of the spec.
        # The result merges equivalent observer cells, and so does the map
        # synthesized from it, so it has few vectors per pair: 550 pairs
        # keep the count above the floor
        rng = random.Random(5)
        lowered = 0
        for _ in range(550):
            alphabet = random_alphabet(rng)
            plant = random_plant(rng, alphabet)
            spec = random_subspec(rng, plant)
            result = infimal_pipeline(plant, spec)
            if result.has_eps_probabilities():
                continue
            scaling = scaling_from_spec(plant, result)
            for cls, vector in scaling.vectors.items():
                for i in range(alphabet.m):
                    if not vector[i]:
                        continue
                    for scale in (F(1, 2), F(9, 10), F(0)):
                        factors = vector[:i] + (vector[i] * scale,) + vector[i + 1:]
                        vectors = {**scaling.vectors, cls: factors}
                        controlled = controlled_automaton(plant, ScalingMap(scaling.classes, vectors))
                        assert not is_sublanguage(spec, controlled).holds
                        lowered += 1
        assert lowered >= 2000, lowered

    def test_infinitesimal_plants_give_valid_results_below_the_reference(self):
        # on plants with infinitesimal probabilities the reference's
        # off-spec ratio EPS / p can be ordinary or undefined: it fails on
        # some pairs and is not least on others
        seen = {"reference_fails": 0, "strictly_below": 0}
        for plant, spec in eps_plant_pairs(263, 300):
            result = infimal_pipeline(plant, spec)
            assert is_sublanguage(spec, result).holds
            assert is_sublanguage(result, plant).holds
            assert check_controllable(plant, result).holds
            assert check_observable(plant, result).holds
            try:
                ref = reference_infimal_pipeline(plant, spec).result
            except (InvariantError, ValueError):
                seen["reference_fails"] += 1
                continue
            assert is_sublanguage(result, ref).holds
            seen["strictly_below"] += not language_equivalent(result, ref)
        assert seen["reference_fails"] >= 5 and seen["strictly_below"] >= 3, seen


class TestInfimality:
    """The result against the P-supervisor's definition, string by string
    (`oracles.infimal_values`), and the order it is least in."""

    def test_values_are_those_of_the_least_factors(self):
        seen = {"eps_spec": 0, "eps_plant": 0, "unachievable": 0, "cut": 0}
        for plant, spec in [*seeded_pairs(), *eps_plant_pairs(263, 300)]:
            result = infimal_pipeline(plant, spec)
            values = infimal_values(plant, spec, 4)
            for word, value in values.items():
                assert result.eval_language(word) == value, word
            seen["eps_spec"] += spec.has_eps_probabilities()
            seen["eps_plant"] += plant.has_eps_probabilities()
            seen["unachievable"] += not language_equivalent(result, spec)
            # a plant edge the result drops: S_K disables it
            seen["cut"] += any(value.is_zero and plant.supports(word) for word, value in values.items())
        assert min(seen.values()) >= 80, seen

    def test_least_in_the_sublanguage_order_not_pointwise(self):
        # a and b are unobservable, so c after a and c after b share one
        # factor: the spec asks 1 after a and 1/4 after b, and the infimum
        # takes 1.  A supervisor that enables a fully and c at 1/2 keeps
        # every string at or above the spec's value, yet gives bc less than
        # the infimum does.  It is no superlanguage of the spec in the
        # `is_sublanguage` order, in which the infimum is least.
        alphabet = Alphabet.make(["a", "b", "c"], [], ["c"])
        plant = Pdes(alphabet, "x0", {("x0", "a"): ("x1", E(1, 2)), ("x0", "b"): ("x2", E(1, 2)),
                                      ("x1", "c"): ("x3", E(1, 2)), ("x2", "c"): ("x4", E(1, 2))})
        spec = Pdes(alphabet, "q0", {("q0", "a"): ("q1", E(1, 4)), ("q0", "b"): ("q2", E(1, 4)),
                                     ("q1", "c"): ("q3", E(1, 2)), ("q2", "c"): ("q4", E(1, 8))})
        result = infimal_pipeline(plant, spec)
        one_class = ObservationClasses(alphabet, 0, 1, {})
        pointwise = controlled_automaton(plant, ScalingMap(one_class, {0: (F(1), F(1, 2), F(1, 2))}))
        words = [(), ("a",), ("b",), ("a", "c"), ("b", "c")]
        assert all(pointwise.eval_language(w) >= spec.eval_language(w) for w in words)
        assert check_controllable(plant, pointwise).holds and check_observable(plant, pointwise).holds
        assert [result.eval_language(w) for w in words] == [ONE, E(1, 4), E(1, 4), E(1, 8), E(1, 8)]
        assert pointwise.eval_language(("b", "c")) == E(1, 16)
        assert is_sublanguage(spec, result).holds
        assert not is_sublanguage(spec, pointwise).holds
        assert not is_sublanguage(result, pointwise).holds


class TestAgainstReference:
    """The one-walk pipeline against the earlier three-stage pipeline
    (`reference_infimal`), which it replaces, on plants with ordinary
    probabilities."""

    def test_inf_pco_text_matches_on_seeded_pairs(self):
        seen = {"eps": 0, "unachievable": 0, "fewer_states": 0}
        for plant, spec in seeded_pairs():
            res = infimal_pipeline(plant, spec)
            ref = reference_infimal_pipeline(plant, spec)
            for strip in (False, True):
                assert inf_pco_text(res, strip) == inf_pco_text(ref.result, strip)
            seen["eps"] += spec.has_eps_probabilities()
            seen["unachievable"] += not language_equivalent(res, spec)
            seen["fewer_states"] += len(res.states) < len(ref.result.states)
        assert min(seen.values()) >= 100, seen

    def test_cli_text_is_the_named_reference_quotient(self, tmp_path, capsys):
        # what inf-pco writes, plain and stripped, is the reference result
        # minimized and named in breadth-first order
        for i, (plant, spec) in enumerate(seeded_pairs(seed=269, count=150)):
            g, h = tmp_path / f"g{i}.pda", tmp_path / f"h{i}.pda"
            g.write_text(dumps_automaton(plant))
            h.write_text(dumps_automaton(spec))
            ref = reference_infimal_pipeline(plant, spec).result
            for flags, strip in (([], False), (["--strip-eps"], True)):
                assert cli.main(["inf-pco", str(g), str(h), *flags]) == 0
                assert capsys.readouterr().out == inf_pco_text(ref, strip)

    def test_quotient_of_a_breadth_first_result_is_breadth_first(self):
        # the walks number the result breadth first, and so does the
        # stripper; the blocks of the quotient then come in breadth-first
        # order, so naming them by number is the canonical naming
        seen = {"merged": 0, "stripped": 0}
        for plant, spec in [*seeded_pairs(), *eps_plant_pairs(271, 300)]:
            result = infimal_pipeline(plant, spec)
            stripped = strip_eps_edges(result)
            for a in (result, stripped):
                assert is_breadth_first(a)
                quotient = minimize(a)
                assert is_breadth_first(quotient)
                assert dumps_automaton(minimize(a, prefix="x")) == dumps_automaton(quotient.canonical_names())
                seen["merged"] += len(quotient.states) < len(a.states)
            seen["stripped"] += len(stripped.states) < len(result.states)
        assert min(seen.values()) >= 40, seen

    @pytest.mark.parametrize("k", [4, 10, 20, 40])
    def test_inf_pco_text_matches_on_benchmark_plants(self, k):
        gen = load_gen()
        rng = random.Random(k)
        plant = gen.random_plant(rng, k)
        spec = gen.random_subspec(rng, plant)
        res = infimal_pipeline(plant, spec)
        ref = reference_infimal_pipeline(plant, spec)
        assert not language_equivalent(res, spec)
        for strip in (False, True):
            assert inf_pco_text(res, strip) == inf_pco_text(ref.result, strip)


# -- the chain of whole automata, kept as a reference --------------------


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


def _complete_to_sink(a):
    """Total completion: undefined events lead to an absorbing sink, on
    edges of probability one.  Unlike self-loop completion this keeps 'the
    run has left the original automaton' decidable from the state, which
    the reference chain relies on to give off-spec edges `EPS`."""
    trans = a.transition_map()
    missing = [(s, e) for s in a.states for e in a.alphabet.events if e not in a._out[s]]
    if not missing:
        return a
    for key in missing:
        trans[key] = (SINK, ONE)
    for e in a.alphabet.events:
        trans[(SINK, e)] = (SINK, ONE)
    return Pdes(a.alphabet, a.initial, trans, states=list(a.states) + [SINK], check_liveness=False)


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


def pair_product(a, b):
    """`product(a, b)` on its labels, the pairs, so that two products name
    a pair they share alike."""
    prod = product(a, b)
    return prod.rename(dict(enumerate(prod.labels)))


def reference_infimal(plant, spec):
    """The two-automaton construction: plant-side and spec-side refinements
    are both paired with the product of their observers (the spec observer
    self-loop completed on the plant side), and the reweighting reads
    probabilities and targets from the plant side, adopting any edge the
    spec side lacks.  Returns the result and the number of adopted edges."""
    support = reference.closure_automaton(plant.logic(), spec.logic())
    logic_g, logic_h_total = plant.logic(), _complete_to_sink(spec.logic())
    spec_extended = reference_spec_extended(plant, spec, support)
    plant_refined = _assign_probs(
        _triple_product(logic_g, _complete_to_sink(support), logic_h_total),
        lambda s, e: plant.rho(s[0], e),
    )
    obs_plant = observer_automaton(plant_refined)
    obs_spec = observer_automaton(spec_extended)
    g_n = _pair_with_observer(plant_refined, pair_product(obs_plant, reference_self_loops(obs_spec)))
    h_n = _pair_with_observer(spec_extended, pair_product(obs_plant, obs_spec))

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
            res = infimal_pipeline(plant, spec)
            assert language_equivalent(res, ref)
            assert len(res.states) <= len(ref.states)
            assert check_controllable(plant, res).holds
            assert check_observable(plant, res).holds
            seen["smaller"] += len(res.states) < len(ref.states)
            seen["unachievable"] += not language_equivalent(res, spec)
        assert seen["smaller"] >= 10 and seen["unachievable"] >= 200, seen

    def test_reference_walk_matches_the_chain(self):
        # the reference's one-walk normal spec automaton against the chain
        # of whole automata: same triples in the same order, cells in
        # one-to-one correspondence, byte-identical dumps
        seen = {"eps": 0, "unobservable": 0, "sink": 0}
        for plant, spec in seeded_pairs():
            support = reference.infimal_co_support(plant, spec)
            h_n = reference.refine_to_normal(plant, spec, support).h_n
            ref = reference_normal(plant, spec, support)
            assert [x[0] for x in h_n.states] == [x[0] for x in ref.states]
            cells = set(zip((x[1] for x in h_n.states), (x[1] for x in ref.states)))
            assert len(cells) == len({c for c, _ in cells}) == len({c for _, c in cells})
            assert dumps_automaton(h_n.canonical_names()) == dumps_automaton(ref.canonical_names())
            seen["eps"] += spec.has_eps_probabilities()
            seen["unobservable"] += bool(plant.alphabet.unobservable)
            seen["sink"] += any(x[0][2] is SINK for x in h_n.states)
        assert min(seen.values()) >= 100, seen


class TestNormalPair:
    """The test-side normality check on labels (plant state, cell)."""

    @pytest.mark.parametrize("label_b", [0, 1])
    def test_rejects_non_normal_automaton(self, label_b):
        # the unobservable u puts b in the initial cell and in the cell
        # after o, so no labelling of b makes the labels the cells
        alphabet = Alphabet.make(["c"], ["o", "u"], ["c", "o"])
        h = Pdes._from_rows(alphabet, 0, [{"u": (1, E(1, 2)), "o": (1, E(1, 2))}, {"c": (1, E(1, 2))}],
                            [("a", 0), ("b", label_b)])
        assert not is_partition(observer(h).cells, h.states)
        with pytest.raises(InvariantError, match="not normal"):
            NormalPair(h, h)

    def test_rejects_automaton_without_labels(self, branches):
        plant, spec = branches
        h_n = unquotiented_loop(plant, spec)
        NormalPair(plant, h_n)
        with pytest.raises(InvariantError, match="no label table"):
            NormalPair(plant, relabel(h_n, None))


class TestReferenceChecks:
    """The reference pipeline's own checks: its refinement must contain the
    spec inside the plant, keep the spec's values and `EPS` off them, and
    agree with the plant wherever it reweights."""

    # hand-built models over c (controllable) and u (uncontrollable), both
    # observable; supports are logic automata
    alphabet = Alphabet.make(["c"], ["u"], ["c", "u"])

    def logic(self, initial, triples):
        return Pdes(self.alphabet, initial, {(s, e): (d, ONE) for s, e, d in triples},
                    check_liveness=False)

    def test_support_leaving_the_plant_raises(self):
        plant = Pdes(self.alphabet, "p", {("p", "c"): ("p", E(1, 2))})
        spec = Pdes(self.alphabet, "q", {("q", "c"): ("q", E(1, 4))})
        support = self.logic("k0", [("k0", "c", "k1"), ("k1", "c", "k1"), ("k1", "u", "k1")])
        with pytest.raises(InvariantError, match="not contained in the plant's support"):
            reference.refine_to_normal(plant, spec, support)

    def test_spec_leaving_the_support_raises(self):
        plant = Pdes(self.alphabet, "p", {("p", "c"): ("p", E(1, 2)), ("p", "u"): ("p", E(1, 2))})
        spec = Pdes(self.alphabet, "q0", {("q0", "c"): ("q1", E(1, 4)), ("q1", "u"): ("q1", E(1, 2))})
        # the support adds u at the start, off the spec, and lacks the
        # spec's u after c
        support = self.logic("k0", [("k0", "c", "k1"), ("k0", "u", "k2"), ("k1", "c", "k1"),
                                    ("k2", "c", "k2")])
        with pytest.raises(InvariantError, match="does not contain the spec's support"):
            reference.refine_to_normal(plant, spec, support)

    def test_sink_is_one_object_through_copies_and_pickles(self, branches):
        h_n = reference_infimal_pipeline(*branches).spec_normal
        assert any(x[0][2] is SINK for x in h_n.states)
        for clone in (copy.copy(SINK), copy.deepcopy(SINK), pickle.loads(pickle.dumps(SINK))):
            assert clone is SINK
        assert [x[0][2] is SINK for x in pickle.loads(pickle.dumps(h_n)).states] == [
            x[0][2] is SINK for x in h_n.states
        ]

    def test_plant_edge_missing_from_spec_is_typed_error(self):
        # h_n is normal (one state, one cell) but lacks the plant's
        # uncontrollable u at its plant state p
        plant = Pdes(self.alphabet, "p", {("p", "c"): ("p", E(1, 2)), ("p", "u"): ("p", E(1, 2))})
        x = (("p", "k", "q"), "o")
        h_n = Pdes(self.alphabet, x, {(x, "c"): (x, E(1, 4))})
        with pytest.raises(InvariantError, match="forces 'u'"):
            reference.reweight_infimal(reference.ReferencePair(plant, h_n))

    def test_spec_edge_missing_from_plant_is_typed_error(self):
        # h_n is normal, but has u where the plant has none
        plant = Pdes(self.alphabet, "p", {("p", "c"): ("p", E(1, 2))})
        x = (("p", "k", "q"), "o")
        h_n = Pdes(self.alphabet, x, {(x, "c"): (x, E(1, 4)), (x, "u"): (x, E(1, 4))})
        with pytest.raises(InvariantError, match="leaves the plant"):
            reference.reweight_infimal(reference.ReferencePair(plant, h_n))

    # `check_refinement` holds h_n to the spec on the spec's support and
    # to EPS off it, and to the closed support's structure

    def spec(self):
        return Pdes(self.alphabet, "q", {("q", "c"): ("q", E(1, 2))})

    def h_n(self, off_prob, c_prob=E(1, 2)):
        x, y = (("p", "k", "q"), 0), (("p", "k", SINK), 0)
        return Pdes(self.alphabet, x, {
            (x, "c"): (x, c_prob),
            (x, "u"): (y, off_prob),
            (y, "c"): (y, EPS),
        })

    def check(self, h_n, support=None):
        reference.check_refinement(h_n, h_n.logic() if support is None else support, self.spec())

    def test_eps_off_the_spec_passes(self):
        self.check(self.h_n(EPS))

    def test_ordinary_probability_off_the_spec_raises(self):
        with pytest.raises(InvariantError, match="altered the probability of 'u'"):
            self.check(self.h_n(E(1, 4)))

    def test_other_infinitesimal_off_the_spec_raises(self):
        with pytest.raises(InvariantError, match="altered the probability of 'u'"):
            self.check(self.h_n(EPS * EPS))

    def test_altered_spec_probability_raises(self):
        with pytest.raises(InvariantError, match="altered the probability of 'c'"):
            self.check(self.h_n(EPS, c_prob=E(1, 4)))

    def test_dropped_spec_transition_raises(self):
        x = (("p", "k", "q"), 0)
        h_n = Pdes(self.alphabet, x, {(x, "u"): (x, EPS)})
        with pytest.raises(InvariantError, match="dropped a spec transition"):
            self.check(h_n)

    def test_changed_support_raises(self):
        h_n = self.h_n(EPS)
        y = (("p", "k", SINK), 0)
        grown = {**h_n.logic().transition_map(), (y, "u"): (y, ONE)}
        with pytest.raises(InvariantError, match="changed the saturated support"):
            self.check(h_n, Pdes(self.alphabet, h_n.initial, grown, check_liveness=False))


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
        spec_normal = reference_infimal_pipeline(plant, spec).spec_normal
        stripped = strip_eps_edges(spec_normal)
        assert not stripped.has_eps_probabilities()
        assert language_equivalent(stripped, spec)
        # the tightened result has no infinitesimal edges here, so the
        # stripper leaves it alone
        result = infimal_pipeline(plant, spec)
        assert language_equivalent(strip_eps_edges(result), result)
