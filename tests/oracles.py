"""Definitional brute-force oracles.

`brute_controllable` and `brute_observable` re-decide controllability
and observability directly from the property definitions, using
language values rather than stored transition probabilities, and so
serve as independent oracles for the testing automata of
`pdesctl.verification`.  `brute_minimal_count` counts the states of a
minimal automaton by comparing the languages of every state, for
`pdesctl.automata.minimize`.  `reference_controlled_automaton` builds the
controlled plant over (plant state, class) pairs as states, for
`pdesctl.supervisor.controlled_automaton`.  `equivalent_classes` finds
the classes a supervisor cannot tell apart by walking class pairs, and
`reference_quotient` merges them, for `pdesctl.supervisor.quotient_classes`.
`infimal_values` gives the infimum's value on every short string from the
P-supervisor's definition, for `pdesctl.infimal`.
"""

from typing import Callable, Dict, FrozenSet, List, Tuple

from pdesctl.automata import (
    InvariantError,
    ObservationClasses,
    Pdes,
    State,
    Verdict,
    Witness,
    Word,
    ONE,
    ZERO,
    EpsProb,
    explore,
    language_equivalent,
    require_same_alphabet,
)
from pdesctl.supervisor import ScalingMap

Pair = Tuple[State, State]
Quad = Tuple[State, State, State, State]


def brute_controllable(plant: Pdes, spec: Pdes, depth: int) -> Verdict:
    """Check the controllability definition directly, string by string.

    Enumerates support strings up to the given length in breadth-first
    order and compares one-step language ratios via cross-products of
    `eval_language` values.  Revisited state configurations are pruned:
    the checked condition depends on a string only through the pair of
    states it reaches, so the verdict saturates once every reachable
    configuration has been seen.
    """
    require_same_alphabet(plant, spec)
    alphabet = plant.alphabet
    initial = (plant.initial, spec.initial)
    words: Dict[Pair, Word] = {initial: ()}
    witness = None

    def successors(cfg):
        nonlocal witness
        if witness is not None:
            return
        x, q = cfg
        word = words[cfg]
        lg = plant.eval_language(word)
        lh = spec.eval_language(word)
        for e in alphabet.uncontrollable_events():
            lh_ext = spec.eval_language(word + (e,))
            if lh_ext.is_zero:
                continue
            lg_ext = plant.eval_language(word + (e,))
            if lh_ext * lg != lg_ext * lh:
                witness = Witness((word,), e, plant.rho(x, e), spec.rho(q, e))
                return
        if len(word) >= depth:
            return
        for e in alphabet.events:
            if spec.rho(q, e).is_zero or plant.rho(x, e).is_zero:
                continue
            dst = (plant.target(x, e), spec.target(q, e))
            if dst not in words:
                words[dst] = word + (e,)
            yield dst

    explore([initial], successors)
    return Verdict(witness is None, witness)


def brute_observable(plant: Pdes, spec: Pdes, depth: int) -> Verdict:
    """Check the observability definition directly on string pairs.

    Enumerates pairs of support strings with equal observations (growing
    either both sides by one event or one side by an unobservable event)
    and compares the defining cross-products of language ratios, cleared
    of denominators.  Configuration pruning as in `brute_controllable`.
    """
    require_same_alphabet(plant, spec)
    alphabet = plant.alphabet
    initial = (plant.initial, spec.initial, plant.initial, spec.initial)
    words: Dict[Quad, Tuple[Word, Word]] = {initial: ((), ())}
    witness = None

    def ok(x, q, e):
        return not plant.rho(x, e).is_zero and not spec.rho(q, e).is_zero

    def extend(s1, s2, cfg):
        """Record the first string pair reaching the configuration."""
        words.setdefault(cfg, (s1, s2))
        return cfg

    def successors(cfg):
        nonlocal witness
        if witness is not None:
            return
        x1, q1, x2, q2 = cfg
        s1, s2 = words[cfg]
        g1, h1 = plant.eval_language(s1), spec.eval_language(s1)
        g2, h2 = plant.eval_language(s2), spec.eval_language(s2)
        for e in alphabet.controllable_events():
            g1e = plant.eval_language(s1 + (e,))
            g2e = plant.eval_language(s2 + (e,))
            h1e = spec.eval_language(s1 + (e,))
            h2e = spec.eval_language(s2 + (e,))
            if g1e * h2e * g2 * h1 != g2e * h1e * g1 * h2:
                witness = Witness(
                    (s1, s2),
                    e,
                    plant.rho(x1, e) * spec.rho(q2, e),
                    plant.rho(x2, e) * spec.rho(q1, e),
                )
                return
        if max(len(s1), len(s2)) >= depth:
            return
        for e in alphabet.events:
            if ok(x1, q1, e) and ok(x2, q2, e):
                yield extend(
                    s1 + (e,),
                    s2 + (e,),
                    (plant.target(x1, e), spec.target(q1, e), plant.target(x2, e), spec.target(q2, e)),
                )
            if e not in alphabet.observable:
                if ok(x1, q1, e):
                    yield extend(s1 + (e,), s2, (plant.target(x1, e), spec.target(q1, e), x2, q2))
                if ok(x2, q2, e):
                    yield extend(s1, s2 + (e,), (x1, q1, plant.target(x2, e), spec.target(q2, e)))

    explore([initial], successors)
    return Verdict(witness is None, witness)


def rooted(a: Pdes, state: State) -> Pdes:
    """The part of ``a`` reachable from ``state``, started there."""
    keep = set(explore([state], lambda s: [a.target(s, e) for e in a.enabled(s)]))
    trans = {key: edge for key, edge in a.transition_map().items() if key[0] in keep}
    return Pdes(a.alphabet, state, trans, check_liveness=False)


def brute_minimal_count(a: Pdes) -> int:
    """The number of classes of a's states under `language_equivalent`
    of the sub-automata rooted at them, found by comparing each state's
    sub-automaton with one of every class found so far."""
    classes: List[Pdes] = []
    for s in a.states:
        sub = rooted(a, s)
        if not any(language_equivalent(sub, other) for other in classes):
            classes.append(sub)
    return len(classes)


def reference_controlled_automaton(plant: Pdes, scaling: ScalingMap) -> Pdes:
    """The controlled plant with the (plant state, class) pairs themselves
    as states: each transition probability is the plant's scaled by the
    class factor, and zero-probability transitions are dropped."""
    if scaling.alphabet != plant.alphabet:
        raise InvariantError("scaling map alphabet does not match the plant")
    events = plant.alphabet.events
    classes = scaling.classes
    trans = {}

    def successors(state):
        x, cls = state
        rx, vector = plant._out[x], scaling.vector(cls)
        for i, e in enumerate(events):
            edge = rx.get(e)
            if edge is None:
                continue
            p = edge[1] * vector[i]
            if p.is_zero:
                continue
            dst = (edge[0], classes.step(cls, e))
            trans[(state, e)] = (dst, p)
            yield dst

    initial = (plant.initial, classes.initial)
    explore([initial], successors)
    return Pdes(plant.alphabet, initial, trans)


def equivalent_classes(classes, rows):
    """Pairs of classes with equal rows and the same moves after every
    observation, by a walk over the pairs each pair reaches (brute force,
    independent of the refinement rounds)."""
    observable = [e for e in classes.alphabet.events if e in classes.alphabet.observable]

    def agree(c, d):
        pairs, seen = [(c, d)], {(c, d)}
        for a, b in pairs:  # grows as the walk finds pairs
            if rows[a] != rows[b]:
                return False
            for e in observable:
                ta, tb = classes.trans.get((a, e)), classes.trans.get((b, e))
                if (ta is None) != (tb is None):
                    return False
                if ta is not None and (ta, tb) not in seen:
                    seen.add((ta, tb))
                    pairs.append((ta, tb))
        return True

    return {(c, d) for c in range(classes.count) for d in range(c + 1, classes.count) if agree(c, d)}


def reference_quotient(scaling: ScalingMap) -> ScalingMap:
    """The map with its `equivalent_classes` merged: a block per class of
    equivalent classes, numbered in the order of their first members, with
    those members' vectors and moves and the map's default."""
    classes = scaling.classes
    vectors = [scaling.vector(c) for c in range(classes.count)]
    equivalent = equivalent_classes(classes, vectors)
    number: Dict[int, int] = {}
    block = []
    for c in range(classes.count):
        first = next(a for a in range(c + 1) if a == c or (a, c) in equivalent)
        block.append(number.setdefault(first, len(number)))
    merged = ObservationClasses(
        classes.alphabet,
        block[classes.initial],
        len(number),
        {(block[c], e): block[t] for (c, e), t in classes.trans.items()},
    )
    return ScalingMap(merged, {block[c]: vectors[c] for c in number}, scaling.default)


def _unobservable_closure(alphabet, configs, step: Callable) -> FrozenSet:
    """The configurations that ``configs`` reach by unobservable moves,
    ``step(c, e)`` being c's move on e or None."""
    unobservable = [e for e in alphabet.events if e not in alphabet.observable]
    return frozenset(explore(configs, lambda c: [d for d in (step(c, e) for e in unobservable) if d is not None]))


def infimal_values(plant: Pdes, spec: Pdes, depth: int) -> Dict[Word, EpsProb]:
    """The value of the infimal probabilistic controllable and observable
    superlanguage on every plant string of at most ``depth`` events whose
    prefixes it keeps, and on each one-event extension, straight from the
    definitions: no automaton is built and no construction is shared.

    A P-supervisor sees the observation t of a string and scales each
    controllable event e by a factor f(t, e): the controlled plant's value
    of se is its value of s times the plant's probability p of e, times
    f(t, e) when e is controllable.  S_K enables e after t when some spec
    string with observation t continues with e.  Each string s with
    observation t in S_K's loop whose plant state has e demands a least
    factor: where se is in the spec's support, the spec's probability of
    e over p, which bounds the spec's ratio by the loop's (the
    `is_sublanguage` order); off the spec, where the edge needs only a
    positive factor, the infinitesimal ``EpsProb(1 / |p|, 1)``.  The
    least supervisor takes the largest demand.

    The strings with one observation are tracked as the set of (plant
    state, spec state or None) they reach, closed under unobservable moves
    until no new pair appears, so strings of any length count; the spec
    states alone give what S_K enables."""
    alphabet = plant.alphabet
    controllable = alphabet.controllable

    def loop_step(enabled):
        """A pair's move on e in S_K's loop, where S_K enables ``enabled``."""
        def step(pair, e):
            x, q = pair
            y = plant.target(x, e)
            if y is None or (e in controllable and e not in enabled):
                return None
            return y, spec.target(q, e) if q is not None else None
        return step

    def demand(x, q, e):
        p = plant.rho(x, e)
        if q is not None and spec.target(q, e) is not None:
            return spec.rho(q, e) / p
        return EpsProb(1 / p.magnitude, 1)

    observations = {}

    def observe(t: Word):
        """The spec states and the loop pairs that the strings with
        observation t reach, what S_K enables after t, and f(t, .)."""
        if t not in observations:
            if t:
                states, pairs, enabled, _ = observe(t[:-1])
                e = t[-1]
                states = {spec.target(q, e) for q in states} - {None}
                pairs = {loop_step(enabled)(pair, e) for pair in pairs} - {None}
            else:
                states, pairs = {spec.initial}, {(plant.initial, spec.initial)}
            states = _unobservable_closure(alphabet, states, spec.target)
            enabled = {e for e in controllable if any(spec.target(q, e) is not None for q in states)}
            pairs = _unobservable_closure(alphabet, pairs, loop_step(enabled))
            factors: Dict[str, EpsProb] = {}
            for x, q in pairs:
                for e in enabled:
                    if plant.target(x, e) is not None:
                        factors[e] = max(factors.get(e, ZERO), demand(x, q, e))
            observations[t] = states, pairs, enabled, factors
        return observations[t]

    values: Dict[Word, EpsProb] = {(): ONE}
    todo: List[Tuple[Word, Word, State]] = [((), (), plant.initial)]  # string, observation, plant state
    while todo:
        s, t, x = todo.pop()
        factors = observe(t)[3]
        for e in alphabet.events:
            p = plant.rho(x, e)
            if e in controllable:
                p = p * factors.get(e, ZERO)
            values[s + (e,)] = values[s] * p
            if not p.is_zero and len(s) < depth:
                todo.append((s + (e,), t + (e,) if e in alphabet.observable else t, plant.target(x, e)))
    return values
