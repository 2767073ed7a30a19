"""Decision procedures for probabilistic controllability and observability.

Each check builds a testing automaton whose dump state is reachable
exactly when the property fails; breadth-first construction makes the
extracted witness shortest (ties broken by event order).

Both procedures compare probabilities at spec-defined transitions: a
transition the specification never asks for does not, by itself, make
the specification uncontrollable.  Synthesis is stricter: it also
requires a sublanguage, the plant's probability on every uncontrollable
event and ordinary controllable probabilities.  So `scaling_from_spec`
succeeding implies both checks hold, and `synthesize` runs them only to
explain a failed synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .automata import (
    _ABSENT,
    JointSupport,
    Pdes,
    State,
    Verdict,
    Witness,
    Word,
    explore,
    require_same_alphabet,
)
from .values import EpsProb

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


def _ratio_classes(plant: Pdes, spec: Pdes, joint: JointSupport) -> List[Tuple[int, ...]]:
    """Per pair of the joint support, its ratio classes over the
    controllable events (equal class tuples are one object)."""
    controllable = plant.alphabet.controllable_events()
    ratios: Dict[Tuple[Fraction, int], int] = {}
    interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    classes = []
    for x, q in joint.pairs:
        rx, rq = plant._out[x], spec._out[q]
        cls = tuple(_ratio_class(rx.get(e), rq.get(e), ratios) for e in controllable)
        classes.append(interned.setdefault(cls, cls))
    return classes


def build_to(plant: Pdes, spec: Pdes) -> TestingAutomatonTO:
    joint = JointSupport(plant, spec)
    alphabet = plant.alphabet
    pairs, rows, classes = joint.pairs, joint._out, _ratio_classes(plant, spec, joint)
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
        for e, (ti, _) in ri.items():
            ej = rj.get(e)
            if ej is not None and e not in dumped:
                moves.append((ti * n + ej[0], (e, e)))
        for e in unobservable:
            ei = ri.get(e)
            if ei is not None:
                moves.append((ei[0] * n + j, (e, None)))
            ej = rj.get(e)
            if ej is not None:
                moves.append((i * n + ej[0], (None, e)))
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
    return TestingAutomatonTO(quads, quads[0], dump_edges, parent, joint.index)


def check_observable(plant: Pdes, spec: Pdes) -> Verdict:
    """Probabilistic observability: any two support strings with the same
    observation induce proportionally consistent controllable transition
    probabilities (equal cross-products)."""
    to = build_to(plant, spec)
    if not to.dump_edges:
        return Verdict(True)
    quad, e, lhs, rhs = to.dump_edges[0]
    return Verdict(False, Witness(to.access(quad), e, lhs, rhs))
