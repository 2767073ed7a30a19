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


@dataclass
class TestingAutomatonTC:
    """Pair-graph testing automaton for probabilistic controllability."""

    pairs: List[Pair]
    initial: Pair
    trans: Dict[Tuple[Pair, str], Pair]
    dump_edges: List[Tuple[Pair, str, EpsProb, EpsProb]]
    access: Dict[Pair, Word]

    @property
    def state_count(self) -> int:
        return len(self.pairs) + (1 if self.dump_edges else 0)


@dataclass
class TestingAutomatonTO:
    """Quadruple testing automaton for probabilistic observability.

    Moves carry label pairs over the alphabet extended with the empty
    label (None); a one-sided move is only available for unobservable
    events, so reachable quadruples correspond exactly to string pairs
    with equal observations.
    """

    quads: List[Quad]
    initial: Quad
    trans: Dict[Tuple[Quad, Tuple[Optional[str], Optional[str]]], Quad]
    dump_edges: List[Tuple[Quad, str, EpsProb, EpsProb]]
    access: Dict[Quad, Tuple[Word, Word]]

    @property
    def state_count(self) -> int:
        return len(self.quads) + (1 if self.dump_edges else 0)


# the edge read for an event a row lacks: row.get(e, _ABSENT)[1] is its probability
_ABSENT = (None, ZERO)


def build_tc(plant: Pdes, spec: Pdes) -> TestingAutomatonTC:
    require_same_alphabet(plant, spec)
    alphabet = plant.alphabet
    initial = (plant.initial, spec.initial)
    access: Dict[Pair, Word] = {initial: ()}
    trans: Dict[Tuple[Pair, str], Pair] = {}
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
        word = access[pair]
        for e in alphabet.events:
            ex, eq = rx.get(e), rq.get(e)
            if ex is None or eq is None:
                continue
            if e not in alphabet.controllable and ex[1] != eq[1]:
                continue  # this move dumps instead of advancing
            dst = (ex[0], eq[0])
            trans[(pair, e)] = dst
            if dst not in access:
                access[dst] = word + (e,)
            yield dst

    pairs = explore([initial], successors)
    return TestingAutomatonTC(pairs, initial, trans, dump_edges, access)


def check_controllable(plant: Pdes, spec: Pdes) -> Verdict:
    """Probabilistic controllability: along the spec's support, every
    spec-defined uncontrollable transition carries exactly the plant's
    probability."""
    tc = build_tc(plant, spec)
    if not tc.dump_edges:
        return Verdict(True)
    pair, e, rp, rs = tc.dump_edges[0]
    return Verdict(False, Witness((tc.access[pair],), e, rp, rs))


def build_to(plant: Pdes, spec: Pdes) -> TestingAutomatonTO:
    require_same_alphabet(plant, spec)
    alphabet = plant.alphabet
    initial = (plant.initial, spec.initial, plant.initial, spec.initial)
    access: Dict[Quad, Tuple[Word, Word]] = {initial: ((), ())}
    trans: Dict[Tuple[Quad, Tuple[Optional[str], Optional[str]]], Quad] = {}
    dump_edges: List[Tuple[Quad, str, EpsProb, EpsProb]] = []

    def successors(quad):
        x1, q1, x2, q2 = quad
        g1, h1, g2, h2 = plant._out[x1], spec._out[q1], plant._out[x2], spec._out[q2]
        s1, s2 = access[quad]
        dumped = set()
        if g1 is not g2 or h1 is not h2:  # on the diagonal both cross-products are one product
            for e in alphabet.controllable_events():
                lhs = g1.get(e, _ABSENT)[1] * h2.get(e, _ABSENT)[1]
                rhs = g2.get(e, _ABSENT)[1] * h1.get(e, _ABSENT)[1]
                if lhs != rhs:
                    dump_edges.append((quad, e, lhs, rhs))
                    dumped.add(e)
        moves: List[Tuple[Tuple[Optional[str], Optional[str]], Quad]] = []
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
        for label, dst in moves:
            trans[(quad, label)] = dst
            if dst not in access:
                l1, l2 = label
                access[dst] = (
                    s1 + ((l1,) if l1 else ()),
                    s2 + ((l2,) if l2 else ()),
                )
            yield dst

    quads = explore([initial], successors)
    return TestingAutomatonTO(quads, initial, trans, dump_edges, access)


def check_observable(plant: Pdes, spec: Pdes) -> Verdict:
    """Probabilistic observability: any two support strings with the same
    observation induce proportionally consistent controllable transition
    probabilities (equal cross-products)."""
    to = build_to(plant, spec)
    if not to.dump_edges:
        return Verdict(True)
    quad, e, lhs, rhs = to.dump_edges[0]
    s1, s2 = to.access[quad]
    return Verdict(False, Witness((s1, s2), e, lhs, rhs))


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
