"""Definitional brute-force oracles for the verification tests.

They re-decide controllability and observability directly from the
property definitions, using language values rather than stored
transition probabilities, and so serve as independent oracles for the
testing automata of `pdesctl.verification`.
"""

from typing import Dict, Tuple

from pdesctl.automata import Pdes, State, Verdict, Witness, Word, explore, require_same_alphabet

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
