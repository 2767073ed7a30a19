"""Decision procedures for probabilistic controllability and observability.

Each check builds a testing automaton whose dump state is reachable
exactly when the property fails; breadth-first construction makes the
extracted witness shortest (ties broken by event order).  The brute
variants re-decide the same questions directly from the property
definitions, using language values rather than stored transition
probabilities, and serve as independent oracles.

Both procedures compare probabilities at spec-defined transitions: a
transition the specification never asks for does not, by itself, make
the specification uncontrollable.  (Synthesis is stricter; see
`scaling_from_spec`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .automata import (
    Pdes,
    State,
    Verdict,
    Witness,
    Word,
    explore,
    require_same_alphabet,
)
from .values import ZERO, EpsProb

Pair = Tuple[State, State]
Quad = Tuple[State, State, State, State]
Label = Tuple[Optional[str], Optional[str]]


def _path(parent: Dict, node) -> list:
    """Labels along the first-discovery path from the root to the node;
    ``parent`` maps each node to (previous node, label), the root to None."""
    labels = []
    step = parent[node]
    while step is not None:
        node, label = step
        labels.append(label)
        step = parent[node]
    labels.reverse()
    return labels


@dataclass
class TestingAutomatonTC:
    """Pair-graph testing automaton for probabilistic controllability."""

    pairs: List[Pair]
    initial: Pair
    dump_edges: List[Tuple[Pair, str, EpsProb, EpsProb]]
    parent: Dict[Pair, Optional[Tuple[Pair, str]]]

    @property
    def state_count(self) -> int:
        return len(self.pairs) + (1 if self.dump_edges else 0)

    def access(self, pair: Pair) -> Word:
        """The shortest string reaching the pair (ties broken by event order)."""
        return tuple(_path(self.parent, pair))


@dataclass
class TestingAutomatonTO:
    """Quadruple testing automaton for probabilistic observability.

    Moves carry label pairs over the alphabet extended with the empty
    label (None); a one-sided move is only available for unobservable
    events, so reachable quadruples correspond exactly to string pairs
    with equal observations.  A quadruple (x1, q1, x2, q2) is keyed by
    ``i * n + j``, where i and j index (x1, q1) and (x2, q2) in the
    breadth-first order of the n pairs of the joint support.
    """

    quads: List[Quad]
    initial: Quad
    dump_edges: List[Tuple[Quad, str, EpsProb, EpsProb]]
    parent: Dict[int, Optional[Tuple[int, Label]]]
    pair_index: Dict[Pair, int]

    @property
    def state_count(self) -> int:
        return len(self.quads) + (1 if self.dump_edges else 0)

    def access(self, quad: Quad) -> Tuple[Word, Word]:
        """The first-discovered string pair reaching the quadruple."""
        index = self.pair_index
        key = index[quad[:2]] * len(index) + index[quad[2:]]
        labels = _path(self.parent, key)
        return (
            tuple(l1 for l1, _ in labels if l1 is not None),
            tuple(l2 for _, l2 in labels if l2 is not None),
        )


# the edge read for an event a row lacks: row.get(e, _ABSENT)[1] is its probability
_ABSENT = (None, ZERO)


def build_tc(plant: Pdes, spec: Pdes) -> TestingAutomatonTC:
    require_same_alphabet(plant, spec)
    alphabet = plant.alphabet
    initial = (plant.initial, spec.initial)
    parent: Dict[Pair, Optional[Tuple[Pair, str]]] = {initial: None}
    dump_edges: List[Tuple[Pair, str, EpsProb, EpsProb]] = []

    def successors(pair):
        rx, rq = plant._out[pair[0]], spec._out[pair[1]]
        for e in alphabet.uncontrollable_events():
            eq = rq.get(e)
            if eq is None:
                continue
            rp = rx.get(e, _ABSENT)[1]
            if rp != eq[1]:
                dump_edges.append((pair, e, rp, eq[1]))
        for e in alphabet.events:
            ex, eq = rx.get(e), rq.get(e)
            if ex is None or eq is None:
                continue
            if e not in alphabet.controllable and ex[1] != eq[1]:
                continue  # this move dumps instead of advancing
            dst = (ex[0], eq[0])
            if dst not in parent:
                parent[dst] = (pair, e)
            yield dst

    pairs = explore([initial], successors)
    return TestingAutomatonTC(pairs, initial, dump_edges, parent)


def check_controllable(plant: Pdes, spec: Pdes) -> Verdict:
    """Probabilistic controllability: along the spec's support, every
    spec-defined uncontrollable transition carries exactly the plant's
    probability."""
    tc = build_tc(plant, spec)
    if not tc.dump_edges:
        return Verdict(True)
    pair, e, rp, rs = tc.dump_edges[0]
    return Verdict(False, Witness((tc.access(pair),), e, rp, rs))


# ratio classes of a plant edge and a spec edge at a controllable event;
# the classes of both-sided ratios are numbered from _RATIO up
_ANY = 0  # neither side has the event: both cross-products are zero
_SPEC_ONLY = 1
_PLANT_ONLY = 2  # the ratio is zero
_RATIO = 3


def _ratio_class(g, h, ratios: Dict[Tuple[Fraction, int], int]) -> int:
    """Class of a plant edge g and a spec edge h, each (target,
    probability) or None.  For two such pairs the cross-products
    rho_g1·rho_h2 and rho_g2·rho_h1 agree exactly when the classes are
    equal or either is _ANY.  A both-sided class stands for the spec/plant
    ratio as (magnitude quotient, degree difference), numbered in
    ``ratios``."""
    if g is None:
        return _ANY if h is None else _SPEC_ONLY
    if h is None:
        return _PLANT_ONLY
    gp, hp = g[1], h[1]
    key = (hp.magnitude / gp.magnitude, hp.eps_degree - gp.eps_degree)
    return ratios.setdefault(key, _RATIO + len(ratios))


def _joint_support(plant: Pdes, spec: Pdes):
    """The pairs (x, q) of the joint support in breadth-first order and
    their positions; per pair, its row {event: position of the target
    pair} in event order and its ratio classes over the controllable
    events (equal class tuples are one object)."""
    events, controllable = plant.alphabet.events, plant.alphabet.controllable_events()
    targets: List[Dict[str, Pair]] = []
    classes: List[Tuple[int, ...]] = []
    ratios: Dict[Tuple[Fraction, int], int] = {}
    interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def successors(pair):
        rx, rq = plant._out[pair[0]], spec._out[pair[1]]
        row = {e: (rx[e][0], rq[e][0]) for e in events if e in rx and e in rq}
        targets.append(row)
        cls = tuple(_ratio_class(rx.get(e), rq.get(e), ratios) for e in controllable)
        classes.append(interned.setdefault(cls, cls))
        return row.values()

    pairs = explore([(plant.initial, spec.initial)], successors)
    index = {pair: i for i, pair in enumerate(pairs)}
    rows = [{e: index[dst] for e, dst in row.items()} for row in targets]
    return pairs, index, rows, classes


def build_to(plant: Pdes, spec: Pdes) -> TestingAutomatonTO:
    require_same_alphabet(plant, spec)
    alphabet = plant.alphabet
    pairs, index, rows, classes = _joint_support(plant, spec)
    controllable = alphabet.controllable_events()
    unobservable = [e for e in alphabet.events if e not in alphabet.observable]
    n = len(pairs)
    parent: Dict[int, Optional[Tuple[int, Label]]] = {0: None}
    dumps: List[Tuple[int, str]] = []

    def successors(key):
        i, j = divmod(key, n)
        ri, rj = rows[i], rows[j]
        ci, cj = classes[i], classes[j]
        dumped = ()
        if ci is not cj:
            dumped = [e for e, a, b in zip(controllable, ci, cj) if a != b and a and b]
            for e in dumped:
                dumps.append((key, e))
        moves = []
        for e, ti in ri.items():
            tj = rj.get(e)
            if tj is not None and e not in dumped:
                moves.append((ti * n + tj, (e, e)))
        for e in unobservable:
            ti = ri.get(e)
            if ti is not None:
                moves.append((ti * n + j, (e, None)))
            tj = rj.get(e)
            if tj is not None:
                moves.append((i * n + tj, (None, e)))
        for dst, label in moves:
            if dst not in parent:
                parent[dst] = (key, label)
        return [dst for dst, _ in moves]

    keys = explore([0], successors)
    quads = [pairs[k // n] + pairs[k % n] for k in keys]
    dump_edges = []
    for key, e in dumps:
        x1, q1, x2, q2 = quad = pairs[key // n] + pairs[key % n]
        lhs, rhs = plant.rho(x1, e) * spec.rho(q2, e), plant.rho(x2, e) * spec.rho(q1, e)
        dump_edges.append((quad, e, lhs, rhs))
    return TestingAutomatonTO(quads, quads[0], dump_edges, parent, index)


def check_observable(plant: Pdes, spec: Pdes) -> Verdict:
    """Probabilistic observability: any two support strings with the same
    observation induce proportionally consistent controllable transition
    probabilities (equal cross-products)."""
    to = build_to(plant, spec)
    if not to.dump_edges:
        return Verdict(True)
    quad, e, lhs, rhs = to.dump_edges[0]
    return Verdict(False, Witness(to.access(quad), e, lhs, rhs))


# -- definitional brute forces ----------------------------------------


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
