"""Decision procedures for probabilistic controllability and observability.

Each check builds a testing automaton whose dump state is reachable
exactly when the property fails; breadth-first construction makes the
extracted witness shortest (ties broken by event order).

Controllability is written once, `_uncontrollable_mismatches`: one pass
over the joint support of plant and spec yielding every uncontrollable
event whose two probabilities differ.  Its two readings are one filter
at the call site.  `build_tc` keeps the mismatches the spec defines: a
transition the specification never asks for does not, by itself, make
it uncontrollable.  `scaling_from_spec` is stricter and rejects any
mismatch; it also requires a sublanguage and ordinary controllable
probabilities.  So `scaling_from_spec` succeeding implies both checks
hold, and `synthesize` runs them only to explain a failed synthesis.

Observability's ratio is written once too, `_ratio_classes`: equal
classes mean equal cross-products.  `build_to` dumps where two classes
differ, and `scaling_from_spec` reads the same classes as its factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from .automata import (
    _ABSENT,
    JointSupport,
    Pdes,
    State,
    Verdict,
    Witness,
    Word,
    explore,
)
from .values import EpsProb

Pair = Tuple[State, State]
Quad = Tuple[State, State, State, State]
Label = Tuple[Optional[str], Optional[str]]
Mismatch = Tuple[int, str, EpsProb, EpsProb]


def _uncontrollable_mismatches(joint: JointSupport) -> Iterator[Mismatch]:
    """Per pair of ``joint = JointSupport(plant, spec)`` in pair order, then
    per uncontrollable event in event order, each (pair index, event,
    plant probability, spec probability) where the two differ; an edge a
    row lacks reads zero."""
    plant, spec = joint.a, joint.b
    uncontrollable = plant.alphabet.uncontrollable_events()
    for i, (x, q) in enumerate(joint.pairs):
        rx, rq = plant._out[x], spec._out[q]
        for e in uncontrollable:
            rp, rs = rx.get(e, _ABSENT)[1], rq.get(e, _ABSENT)[1]
            if rp != rs:
                yield i, e, rp, rs


@dataclass
class TestingAutomatonTC:
    """Testing automaton for probabilistic controllability: the pairs of
    the joint support, and a dump state entered by every spec-defined
    uncontrollable mismatch."""

    joint: JointSupport
    dump_edges: List[Tuple[Pair, str, EpsProb, EpsProb]]

    @property
    def pairs(self) -> List[Pair]:
        return self.joint.pairs

    @property
    def state_count(self) -> int:
        return len(self.pairs) + (1 if self.dump_edges else 0)

    def access(self, pair: Pair) -> Word:
        """The shortest string reaching the pair (ties broken by event order)."""
        return self.joint.access()[self.joint.pairs.index(pair)]


@dataclass
class TestingAutomatonTO:
    """Quadruple testing automaton for probabilistic observability.

    Moves carry label pairs over the alphabet extended with the empty
    label (None); a one-sided move is only available for unobservable
    events, so reachable quadruples correspond exactly to string pairs
    with equal observations.  A quadruple (x1, q1, x2, q2) is keyed by
    ``i * n + j``, where i and j index (x1, q1) and (x2, q2) in the
    breadth-first order of the n pairs of ``joint``; like
    `TestingAutomatonTC.access`, `access` looks its pairs up there.
    """

    joint: JointSupport
    quads: List[Quad]
    dump_edges: List[Tuple[Quad, str, EpsProb, EpsProb]]
    parent: Dict[int, Optional[Tuple[int, Label]]]

    @property
    def state_count(self) -> int:
        return len(self.quads) + (1 if self.dump_edges else 0)

    def access(self, quad: Quad) -> Tuple[Word, Word]:
        """The first-discovered string pair reaching the quadruple."""
        pairs = self.joint.pairs
        key = pairs.index(quad[:2]) * len(pairs) + pairs.index(quad[2:])
        labels = []
        while self.parent[key] is not None:
            key, label = self.parent[key]
            labels.append(label)
        return (
            tuple(l1 for l1, _ in reversed(labels) if l1 is not None),
            tuple(l2 for _, l2 in reversed(labels) if l2 is not None),
        )


def build_tc(plant: Pdes, spec: Pdes) -> TestingAutomatonTC:
    joint = JointSupport(plant, spec)
    # the paper's reading: only a transition the spec defines dumps, and a
    # defined transition has a positive probability
    mismatches = _uncontrollable_mismatches(joint)
    dump_edges = [(joint.pairs[i], e, rp, rs) for i, e, rp, rs in mismatches if rs]
    return TestingAutomatonTC(joint, dump_edges)


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


def _ratio_classes(joint: JointSupport) -> Tuple[List[Tuple[int, ...]], List[Tuple[Fraction, int]]]:
    """Per pair of ``joint = JointSupport(plant, spec)``, its ratio classes
    over the controllable events, and the (magnitude quotient, degree
    difference) of each both-sided class in number order, class _RATIO
    first."""
    plant, spec = joint.a, joint.b
    controllable = plant.alphabet.controllable_events()
    ratios: Dict[Tuple[Fraction, int], int] = {}
    classes = []
    for x, q in joint.pairs:
        rx, rq = plant._out[x], spec._out[q]
        classes.append(tuple(_ratio_class(rx.get(e), rq.get(e), ratios) for e in controllable))
    return classes, list(ratios)


def _cross_products(joint: JointSupport, pair1: Pair, pair2: Pair, e: str) -> Tuple[EpsProb, EpsProb]:
    """rho_G(s1,e)·rho_K(s2,e) and rho_G(s2,e)·rho_K(s1,e) for strings s1
    and s2 reaching the pairs (plant state, spec state) ``pair1`` and
    ``pair2`` of ``joint = JointSupport(plant, spec)``: the two sides of
    observability's condition."""
    plant, spec = joint.a, joint.b
    (x1, q1), (x2, q2) = pair1, pair2
    return plant.rho(x1, e) * spec.rho(q2, e), plant.rho(x2, e) * spec.rho(q1, e)


def build_to(plant: Pdes, spec: Pdes) -> TestingAutomatonTO:
    joint = JointSupport(plant, spec)
    alphabet = plant.alphabet
    pairs, rows, classes = joint.pairs, joint._out, _ratio_classes(joint)[0]
    controllable = alphabet.controllable_events()
    unobservable = [e for e in alphabet.events if e not in alphabet.observable]
    n = len(pairs)
    parent: Dict[int, Optional[Tuple[int, Label]]] = {0: None}
    record = parent.setdefault  # the first move found into a quadruple is its parent
    dumps: List[Tuple[int, str]] = []

    def successors(key):
        i, j = divmod(key, n)
        ri, rj = rows[i], rows[j]
        ci, cj = classes[i], classes[j]
        dumped = ()
        if ci != cj:
            dumped = [e for e, a, b in zip(controllable, ci, cj) if a != b and a and b]
            for e in dumped:
                dumps.append((key, e))
        for e, (ti, _) in ri.items():
            ej = rj.get(e)
            if ej is not None and e not in dumped:
                dst = ti * n + ej[0]
                record(dst, (key, (e, e)))
                yield dst
        for e in unobservable:
            ei = ri.get(e)
            if ei is not None:
                dst = ei[0] * n + j
                record(dst, (key, (e, None)))
                yield dst
            ej = rj.get(e)
            if ej is not None:
                dst = i * n + ej[0]
                record(dst, (key, (None, e)))
                yield dst

    keys = explore([0], successors)
    quads = [pairs[k // n] + pairs[k % n] for k in keys]
    dump_edges = []
    for key, e in dumps:
        pair1, pair2 = pairs[key // n], pairs[key % n]
        dump_edges.append((pair1 + pair2, e, *_cross_products(joint, pair1, pair2, e)))
    return TestingAutomatonTO(joint, quads, dump_edges, parent)


def check_observable(plant: Pdes, spec: Pdes) -> Verdict:
    """Probabilistic observability: any two support strings with the same
    observation induce proportionally consistent controllable transition
    probabilities (equal cross-products)."""
    to = build_to(plant, spec)
    if not to.dump_edges:
        return Verdict(True)
    quad, e, lhs, rhs = to.dump_edges[0]
    return Verdict(False, Witness(to.access(quad), e, lhs, rhs))
