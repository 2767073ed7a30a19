"""Infimal probabilistic controllable and observable superlanguage.

When a specification is unachievable, the best achievable approximation
from above is computed in three stages:

1. `infimal_co_support` saturates the spec's support into the least
   prefix-closed language, inside the plant's support, that is closed
   under uncontrollable extension and under observational saturation
   (if one of two observation-equivalent strings may continue with a
   controllable event, the other must be allowed to as well).
2. `refine_to_normal` rebuilds the saturated spec as one normal
   automaton (observer cells partition the state set) whose states
   carry the plant state they track, with the strings added by
   saturation carrying infinitesimal probabilities so they are present
   logically but weightless.  It is one breadth-first walk over
   (state triple, observer cell): the triples (plant, support, spec or
   `SINK`) are a `JointSupport`, the cells come from that joint
   support's observer, and each edge takes its probability as it is
   emitted.
3. `reweight_infimal` raises probabilities the minimal amount needed on
   that automaton's own edges: uncontrollable transitions take the
   plant's probabilities, and each controllable event is scaled,
   uniformly on every observation cell, to the largest spec/plant ratio
   occurring in the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Set, Tuple

from .automata import (
    InvariantError,
    JointSupport,
    Observer,
    Pdes,
    PdesError,
    State,
    explore,
    is_sublanguage,
    language_equivalent,
    minimize_logic,
    observer,
    require_same_alphabet,
)
from .supervisor import NotSublanguageError
from .values import EPS, ONE, ZERO, EpsProb


class ClosureDivergenceError(PdesError):
    """The support saturation failed to stabilize within the round budget."""


@dataclass(frozen=True)
class NormalPair:
    """The plant `g_n` as given, and a normal spec automaton `h_n` whose
    states `x` track the plant state `x[0][0]` they are reached with."""

    g_n: Pdes
    h_n: Pdes

    @cached_property
    def spec_observer(self) -> Observer:
        """The observer of h_n, built once for `validate` and `reweight_infimal`."""
        return observer(self.h_n)

    def validate(self):
        if not self.spec_observer.is_partition(self.h_n.states):
            raise InvariantError("refined spec is not normal")


def _pair_support(plant: Pdes, spec: Pdes) -> Pdes:
    """Logic automaton for the spec's support, on the integer states of
    the plant/spec `JointSupport`.  Rejects specs whose support leaves the
    plant's, at the first pair (breadth-first) and event (event order)."""
    joint = JointSupport(plant, spec)
    events = plant.alphabet.events
    for (_, q), row in zip(joint.pairs, joint._out):
        rq = spec._out[q]
        for e in events:
            if e in rq and e not in row:
                raise NotSublanguageError(
                    f"specification support leaves the plant support on {e!r}"
                )
    trans = {(i, e): edge for i, row in enumerate(joint._out) for e, edge in row.items()}
    return Pdes(plant.alphabet, joint.initial, trans, check_liveness=False)


def _saturate_once(support: Pdes, plant: Pdes) -> Tuple[Pdes, bool]:
    """One closure round.  Strings are tracked as (support state or None,
    plant state, observation cell of the current support or None); a
    frontier transition is added when the plant allows an uncontrollable
    extension, or a controllable one that some observation-equivalent
    support string already performs."""
    alphabet = plant.alphabet
    controllable, observable = alphabet.controllable, alphabet.observable
    obs = observer(support)
    enabled: List[Set[str]] = [
        {e for s in cell for e in support._out[s] if e in controllable} for cell in obs.cells
    ]

    trans: Dict[Tuple[State, str], Tuple[State, EpsProb]] = {}
    added = False

    def successors(state):
        nonlocal added
        k, x, o = state
        rk = support._out[k] if k is not None else {}
        rx = plant._out[x]
        for e in alphabet.events:
            ek, ex = rk.get(e), rx.get(e)
            kt = ek[0] if ek is not None else None
            xt = ex[0] if ex is not None else None
            if kt is not None:
                if xt is None:
                    raise InvariantError("support left the plant during saturation")
                o2 = o if e not in observable else obs.step(o, e)
            elif xt is not None and (
                e not in controllable
                or (o is not None and e in enabled[o])
            ):
                added = True
                if e not in observable:
                    o2 = o
                else:
                    o2 = obs.step(o, e) if o is not None else None
            else:
                continue
            dst = (kt, xt, o2)
            trans[(state, e)] = (dst, ONE)
            yield dst

    initial = (support.initial, plant.initial, obs.initial)
    explore([initial], successors)
    return Pdes(alphabet, initial, trans, check_liveness=False), added


def infimal_co_support(plant: Pdes, spec: Pdes, max_rounds: int = 64) -> Pdes:
    """Generator of the infimal prefix-closed controllable and observable
    superlanguage of the spec's support, within the plant's support.
    Only the supports of the two automata are read.

    Iterates saturation rounds until a fixpoint; on return, no
    uncontrollable extension and no observational saturation obligation
    remains open (the final round is itself the check).
    """
    support = _pair_support(plant, spec)
    for _ in range(max_rounds):
        support = minimize_logic(support)
        grown, added = _saturate_once(support, plant)
        if not added:
            return support
        support = grown
    raise ClosureDivergenceError(
        f"support saturation still growing after {max_rounds} rounds"
    )


class _Sink:
    """Absorbing completion state: reached as soon as a run leaves the
    automaton it completes, and never left again."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<off>"


SINK = _Sink()

# the edge read for an event the tracked spec state lacks: into SINK, at EPS
_OFF_SPEC = (SINK, EPS)


def _complete_to_sink(a: Pdes) -> Pdes:
    """Total completion of a logic automaton: undefined events lead to an
    absorbing sink.  Unlike self-loop completion this keeps 'the run has
    left the original automaton' decidable from the state, which
    `refine_to_normal` relies on to give off-spec edges `EPS`."""
    trans = a.transition_map()
    missing = [(s, e) for s in a.states for e in a.alphabet.events if e not in a._out[s]]
    if not missing:
        return a
    for key in missing:
        trans[key] = (SINK, ONE)
    for e in a.alphabet.events:
        trans[(SINK, e)] = (SINK, ONE)
    return Pdes(a.alphabet, a.initial, trans, states=list(a.states) + [SINK], check_liveness=False)


def refine_to_normal(plant: Pdes, spec: Pdes, support: Pdes) -> NormalPair:
    """Rebuild the (saturated) spec as a normal automaton.

    The spec side generates the given support language, keeping the
    original spec probabilities on the spec's own support and
    infinitesimal probabilities on the strings the saturation added.
    The (plant, support, spec-or-`SINK`) state triples are the joint
    support of the plant, the support and the sink-completed spec, and
    each state `(triple, cell)` pairs a triple with the index of its
    cell in that joint support's observer, so the observer of the result
    partitions its states.  One breadth-first walk over (triple, cell)
    emits each edge with its probability.  The plant is returned as
    given beside it.
    """
    require_same_alphabet(plant, spec)
    require_same_alphabet(plant, support)
    logic_h = spec.logic()
    support = support.logic()
    if not is_sublanguage(logic_h, support):
        raise InvariantError("the support automaton does not contain the spec's support")
    if not is_sublanguage(support, plant.logic()):
        raise InvariantError("the support automaton is not contained in the plant's support")

    inner = JointSupport(plant, support)
    joint = JointSupport(inner, _complete_to_sink(logic_h))
    triples = [inner.pairs[i] + (h,) for i, h in joint.pairs]
    obs = observer(joint)
    observable = plant.alphabet.observable
    trans: Dict[Tuple[State, str], Tuple[State, EpsProb]] = {}

    def successors(state):
        t, o = state
        src = (triples[t], o)
        h = triples[t][2]
        rh = spec._out[h] if h is not SINK else {}
        for e, (u, _) in joint._out[t].items():
            dst = (u, obs.trans[(o, e)] if e in observable else o)
            trans[(src, e)] = ((triples[u], dst[1]), rh.get(e, _OFF_SPEC)[1])
            yield dst

    explore([(joint.initial, obs.initial)], successors)
    h_n = Pdes(plant.alphabet, (triples[joint.initial], obs.initial), trans)

    pair = NormalPair(plant, h_n)
    pair.validate()
    if not language_equivalent(h_n.logic(), support):
        raise InvariantError("spec refinement changed the saturated support")
    _check_spec_values(spec, h_n)
    return pair


def _check_spec_values(spec: Pdes, h_n: Pdes):
    """The refined automaton must carry exactly the spec's probabilities
    on the spec's support, and exactly `EPS` on every edge off it.  Walks
    h_n beside the spec, tracking `SINK` once the run has left the spec."""
    def successors(state):
        q, y = state
        rq = spec._out[q] if q is not SINK else {}
        ry = h_n._out[y]
        if not rq.keys() <= ry.keys():
            raise InvariantError("spec refinement dropped a spec transition")
        for e, (ty, p) in ry.items():
            tq, pq = rq.get(e, _OFF_SPEC)
            if p != pq:
                raise InvariantError(f"spec refinement altered the probability of {e!r}")
            yield (tq, ty)

    explore([(spec.initial, h_n.initial)], successors)


def reweight_infimal(pair: NormalPair) -> Pdes:
    """Minimal probability lift of the refined spec, on its own edges.

    Uncontrollable transitions take the plant's probabilities verbatim.
    For each observation cell and controllable event, every member state
    is scaled to the same fraction of its plant probability: the largest
    spec/plant ratio achieved inside the cell (infinitesimal ratios rank
    below every ordinary one).  A state `x` reads the plant at `x[0][0]`.
    A transition the plant forces where the refined spec has none raises
    `InvariantError`; the saturated support is controllable and
    observable, so on a valid normal pair that never happens.
    """
    pair.validate()
    plant, h_n, obs = pair.g_n, pair.h_n, pair.spec_observer
    alphabet = plant.alphabet
    trans = h_n.transition_map()

    def lift(x, e, scale=None):
        edge = plant._out[x[0][0]].get(e)
        if edge is None:
            return
        own = trans.get((x, e))
        if own is None:
            raise InvariantError(f"the plant forces {e!r} at {x!r} but the refined spec lacks it")
        trans[(x, e)] = (own[0], edge[1] if scale is None else scale * edge[1])

    for x in h_n.states:
        for e in alphabet.uncontrollable_events():
            lift(x, e)

    for cell in obs.cells:
        for e in alphabet.controllable_events():
            best = ZERO
            for x in cell:
                hp = h_n.rho(x, e)
                if hp.is_zero:
                    continue
                best = max(best, hp / plant.rho(x[0][0], e))
            if best.is_zero:
                continue
            for x in cell:
                lift(x, e, best)

    return Pdes(alphabet, h_n.initial, trans, states=h_n.states)


@dataclass(frozen=True)
class InfimalResult:
    support: Pdes
    spec_normal: Pdes
    result: Pdes


def infimal_pipeline(plant: Pdes, spec: Pdes) -> InfimalResult:
    """Full pipeline; the result generates the infimal probabilistic
    controllable and observable superlanguage of the spec w.r.t. the plant."""
    verdict = is_sublanguage(spec, plant)
    if not verdict:
        w = verdict.witness
        raise NotSublanguageError(
            f"specification is not a sublanguage of the plant at {w.strings[0]!r} on {w.event!r}",
            w,
        )
    support = infimal_co_support(plant, spec)
    pair = refine_to_normal(plant, spec, support)
    result = reweight_infimal(pair)
    return InfimalResult(support, pair.h_n, result)


def infimal_superlanguage(plant: Pdes, spec: Pdes) -> Pdes:
    return infimal_pipeline(plant, spec).result


def strip_eps_edges(a: Pdes) -> Pdes:
    """Drop infinitesimal-probability transitions (display helper)."""
    def successors(s):
        return [dst for dst, p in a._out[s].values() if p.is_ordinary]

    keep = set(explore([a.initial], successors))
    trans = {
        key: edge
        for key, edge in a.transition_map().items()
        if edge[1].is_ordinary and key[0] in keep
    }
    return Pdes(a.alphabet, a.initial, trans, check_liveness=False)
