"""The `Fraction`-level synthesis decisions that the integer ones replaced,
kept as the references they must equal: `EpsProb`'s order through
`Fraction` comparisons, ratio classes keyed by `Fraction` quotients, and
`scaling_from_spec` sorting every cell's members by their shortest
strings before reading their ratio classes."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from pdesctl import InvariantError, NotControllableError, NotObservableError, Pdes, ScalingMap, Witness
from pdesctl.automata import _ABSENT, JointSupport, observer
from pdesctl.supervisor import _require_sublanguage, quotient_classes
from pdesctl.values import EpsProb
from pdesctl.verification import (
    _ANY,
    _PLANT_ONLY,
    _RATIO,
    _SPEC_ONLY,
    _cross_products,
    _uncontrollable_mismatches,
)


def reference_cmp(p: EpsProb, r: EpsProb) -> int:
    """-1, 0 or 1 under the total order: zero is least, then lower degree
    wins, then larger magnitude, the magnitudes compared as `Fraction`s."""
    a, b = p.magnitude, r.magnitude
    if not a:
        return -1 if b else 0
    if not b:
        return 1
    da, db = p.eps_degree, r.eps_degree
    if da != db:
        return -1 if da > db else 1
    if a is b or a == b:
        return 0
    return -1 if a < b else 1


def reference_ratio_class(g, h, ratios: Dict[Tuple[Fraction, int], int]) -> int:
    """The class of a plant edge g and a spec edge h, a both-sided one
    keyed by (magnitude quotient, degree difference)."""
    if g is None:
        return _ANY if h is None else _SPEC_ONLY
    if h is None:
        return _PLANT_ONLY
    gp, hp = g[1], h[1]
    key = (hp.magnitude / gp.magnitude, hp.eps_degree - gp.eps_degree)
    return ratios.setdefault(key, _RATIO + len(ratios))


def reference_ratio_classes(joint: JointSupport) -> Tuple[List[Tuple[int, ...]], List[Fraction]]:
    """`verification._ratio_classes` with `Fraction`-keyed classes."""
    plant, spec = joint.a, joint.b
    controllable = plant.alphabet.controllable_events()
    ratios: Dict[Tuple[Fraction, int], int] = {}
    classes = []
    for x, q in joint.pairs:
        rx, rq = plant._out[x], spec._out[q]
        classes.append(tuple(reference_ratio_class(rx.get(e), rq.get(e), ratios) for e in controllable))
    return classes, [Fraction(0)] * _RATIO + [quotient for quotient, _ in ratios]


def reference_scaling_from_spec(plant: Pdes, spec: Pdes) -> ScalingMap:
    """`scaling_from_spec`, every cell's members read in order of their
    shortest strings, event by event, with each member's edges checked for
    infinitesimal probabilities as it is read."""
    joint = JointSupport(plant, spec)
    _require_sublanguage(joint)
    access = joint.access()
    for i, e, rp, rs in _uncontrollable_mismatches(joint):
        raise NotControllableError(
            f"uncontrollable event {e!r} after {access[i]!r}: plant probability {rp} != spec probability {rs}",
            Witness((access[i],), e, rp, rs),
        )
    alphabet = plant.alphabet
    controllable = alphabet.controllable_events()
    ratios, factor = reference_ratio_classes(joint)
    keys: List[Tuple[int, ...]] = []
    uncontrollable_factors = (Fraction(1),) * (alphabet.n - alphabet.m)

    def class_key(cell) -> None:
        members = sorted(cell, key=access.__getitem__)
        key = []
        for k, e in enumerate(controllable):
            c = first = None
            for i in members:
                ci = ratios[i][k]
                if ci == _ANY:
                    continue
                x, q = joint.pairs[i]
                if plant._out[x][e][1].eps_degree or spec._out[q].get(e, _ABSENT)[1].eps_degree:
                    raise InvariantError("synthesis requires ordinary probabilities")
                if c is None:
                    c, first = ci, i
                elif ci != c:
                    products = _cross_products(joint, joint.pairs[first], joint.pairs[i], e)
                    raise NotObservableError(
                        f"event {e!r} demands factor {factor[c]} after {access[first]!r} "
                        f"but {factor[ci]} after {access[i]!r}",
                        Witness((access[first], access[i]), e, *products),
                    )
            key.append(_PLANT_ONLY if c is None else c)
        keys.append(tuple(key))

    classes, first = quotient_classes(observer(joint, class_key), keys)
    vectors = {b: tuple([factor[r] for r in keys[c]]) + uncontrollable_factors for b, c in enumerate(first)}
    return ScalingMap(classes, vectors)
