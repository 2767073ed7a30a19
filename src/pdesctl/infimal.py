"""Infimal probabilistic controllable and observable superlanguage.

When a specification is unachievable, the best achievable approximation
from above is computed in three stages.  "Least" is in the order that
`is_sublanguage` decides, where every one-step extension ratio of the
smaller language is bounded by the larger one's, not in the pointwise
order on string values.

1. `infimal_co_support` saturates the spec's support into the least
   prefix-closed language, inside the plant's support, that is closed
   under uncontrollable extension and under observational saturation
   (if one of two observation-equivalent strings may continue with a
   controllable event, the other must be allowed to as well).
2. `refine_to_normal` rebuilds the saturated spec as one normal
   automaton (observer cells partition the state set) whose states
   carry the plant state they track and are labelled with their
   observer cell, with the strings added by saturation carrying
   infinitesimal probabilities so they are present logically but
   weightless.  It is one breadth-first walk over (state triple, cell):
   the triples (plant, support, spec or `SINK`) are a `JointSupport`,
   the cells come from that joint support's observer, and each edge
   takes its probability as it is emitted.
3. `reweight_infimal` raises probabilities the minimal amount needed on
   that automaton's own edges: uncontrollable transitions take the
   plant's probabilities, and each controllable event is scaled,
   uniformly on every observation cell (the states sharing a label),
   to the largest spec/plant ratio occurring in the cell.

Each saturation round starts from the Moore-minimal quotient of the
support so far (`minimize_logic`).  The result keeps the labelled
structure of stage 2, so `InfimalResult.result` has one state per
(state triple, cell); `automata.minimize` quotients it to the fewest
states that generate the same language, which is what `inf-pco` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

from .automata import (
    InvariantError,
    JointSupport,
    Pdes,
    PdesError,
    State,
    _unobservable_reach,
    explore,
    minimize_logic,
    observer,
    require_same_alphabet,
)
from .supervisor import NotSublanguageError, _require_sublanguage
from .values import EPS, ONE, ZERO, EpsProb


class ClosureDivergenceError(PdesError):
    """The support saturation failed to stabilize within the round budget."""


# the budget of saturation rounds, the last of which finds nothing to add
_MAX_ROUNDS = 64


@dataclass(frozen=True)
class NormalPair:
    """The plant `g_n` as given, and a normal spec automaton `h_n` whose
    states `x` track the plant state `x[0][0]` they are reached with and
    are labelled `x[1]` with their observer cell: the states sharing a
    label are one cell of `observer(h_n)`.  Building a pair checks this
    (`validate`), so the cells are read from the labels."""

    g_n: Pdes
    h_n: Pdes

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise unless the labels are the observer cells of h_n: the
        unobservable reach of the initial state, and of the targets of each
        label's states on each observable event, is exactly the states
        labelled like one of them (so all of them share that label).  By
        induction on the observation each observer cell is one label's
        states, and every state is reachable, so the cells partition the
        states."""
        h_n = self.h_n
        observable = h_n.alphabet.observable
        cells: Dict[State, Set[State]] = {}
        steps: Dict[Tuple[State, str], Set[State]] = {}  # (label, observable event) -> targets
        for x in h_n.states:
            cells.setdefault(x[1], set()).add(x)
            for e, (y, _) in h_n._out[x].items():
                if e in observable:
                    steps.setdefault((x[1], e), set()).add(y)
        reach = _unobservable_reach(h_n)
        for targets in [{h_n.initial}, *steps.values()]:
            if reach(targets) != cells[next(iter(targets))[1]]:
                raise InvariantError("refined spec is not normal")


def _pair_support(joint: JointSupport, spec: Pdes) -> Pdes:
    """Logic automaton for the spec's support, on the integer states of
    ``joint = JointSupport(plant, spec)``.  Rejects specs whose support leaves
    the plant's, at the first pair (breadth-first) and event (event order)."""
    escape = joint._first_escape(spec._out)
    if escape is not None:
        raise NotSublanguageError(f"specification support leaves the plant support on {escape[1]!r}")
    trans = {(i, e): edge for i, row in enumerate(joint._out) for e, edge in row.items()}
    return Pdes(joint.alphabet, joint.initial, trans, check_liveness=False)


def _saturate_once(support: Pdes, plant: Pdes) -> Optional[Pdes]:
    """One closure round, or None if it adds nothing.  Strings are tracked
    as (support state or None, plant state, observation cell of the
    current support or None); a frontier transition is added when the
    plant allows an uncontrollable extension, or a controllable one that
    some observation-equivalent support string already performs."""
    alphabet = plant.alphabet
    controllable = alphabet.controllable
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
            elif xt is not None and (
                e not in controllable
                or (o is not None and e in enabled[o])
            ):
                added = True
            else:
                continue
            dst = (kt, xt, obs.step(o, e))
            trans[(state, e)] = (dst, ONE)
            yield dst

    initial = (support.initial, plant.initial, obs.initial)
    explore([initial], successors)
    return Pdes(alphabet, initial, trans, check_liveness=False) if added else None


def infimal_co_support(plant: Pdes, spec: Pdes) -> Pdes:
    """Generator of the infimal prefix-closed controllable and observable
    superlanguage of the spec's support, within the plant's support.
    Only the supports of the two automata are read.

    Iterates saturation rounds until a fixpoint; on return, no
    uncontrollable extension and no observational saturation obligation
    remains open (the final round is itself the check).
    """
    return _saturate(_pair_support(JointSupport(plant, spec), spec), plant)


def _saturate(support: Pdes, plant: Pdes) -> Pdes:
    for _ in range(_MAX_ROUNDS):
        support = minimize_logic(support)
        grown = _saturate_once(support, plant)
        if grown is None:
            return support
        support = grown
    raise ClosureDivergenceError(
        f"support saturation still growing after {_MAX_ROUNDS} rounds"
    )


class _Sink:
    """Absorbing completion state: reached as soon as a run leaves the
    automaton it completes, and never left again."""

    def __reduce__(self):
        return "SINK"  # copies and pickles are the one module-level SINK

    def __repr__(self):
        return "<off>"


SINK = _Sink()

# the edge read for an event the tracked spec state lacks: into SINK, at EPS
_OFF_SPEC = (SINK, EPS)


def refine_to_normal(plant: Pdes, spec: Pdes, support: Pdes) -> NormalPair:
    """Rebuild the (saturated) spec as a normal automaton.

    The spec side generates the given support language, keeping the
    original spec probabilities on the spec's own support and
    infinitesimal probabilities on the strings the saturation added.
    The (plant, support, spec-or-`SINK`) state triples are the joint
    support of the plant, the support and the sink-completed spec, and
    each state `(triple, cell)` is labelled with the index of its cell
    in that joint support's observer; these labels are the observer
    cells of the result, which `NormalPair` checks.  One breadth-first
    walk over (triple, cell) emits each edge with its probability.  The
    plant is returned as given beside it.
    """
    require_same_alphabet(plant, spec)
    inner = JointSupport(plant, support)
    if inner._first_escape(support._out) is not None:
        raise InvariantError("the support automaton is not contained in the plant's support")
    # the spec completed to SINK, as rows: an event a spec row lacks leads
    # to SINK at EPS, and SINK leads to itself on every event
    off = dict.fromkeys(plant.alphabet.events, _OFF_SPEC)
    spec_rows = {q: {**off, **row} for q, row in spec._out.items()}
    spec_rows[SINK] = off
    completion = SimpleNamespace(alphabet=spec.alphabet, initial=spec.initial, _out=spec_rows)
    joint = JointSupport(inner, completion)
    # with the support inside the plant, a spec event the joint row lacks
    # is one the support lacks
    if joint._first_escape({**spec._out, SINK: {}}) is not None:
        raise InvariantError("the support automaton does not contain the spec's support")
    triples = [inner.pairs[i] + (h,) for i, h in joint.pairs]
    obs = observer(joint)
    trans: Dict[Tuple[State, str], Tuple[State, EpsProb]] = {}

    def successors(state):
        t, o = state
        src = (triples[t], o)
        rh = spec_rows[triples[t][2]]
        for e, (u, _) in joint._out[t].items():
            dst = (u, obs.step(o, e))
            trans[(src, e)] = ((triples[u], dst[1]), rh[e][1])
            yield dst

    explore([(joint.initial, obs.initial)], successors)
    h_n = Pdes(plant.alphabet, (triples[joint.initial], obs.initial), trans)

    pair = NormalPair(plant, h_n)
    _check_refinement(h_n, support, spec)
    return pair


def _check_refinement(h_n: Pdes, support: Pdes, spec: Pdes):
    """The refined automaton must have the saturated support's structure,
    carry exactly the spec's probabilities on the spec's support, and
    exactly `EPS` on every edge off it.  Walks h_n beside the support and
    the spec, tracking `SINK` once the run has left the spec."""
    def successors(state):
        y, k, q = state
        ry, rk = h_n._out[y], support._out[k]
        rq = spec._out[q] if q is not SINK else {}
        if ry.keys() != rk.keys():
            raise InvariantError("spec refinement changed the saturated support")
        if not rq.keys() <= ry.keys():
            raise InvariantError("spec refinement dropped a spec transition")
        for e, (ty, p) in ry.items():
            tq, pq = rq.get(e, _OFF_SPEC)
            if p != pq:
                raise InvariantError(f"spec refinement altered the probability of {e!r}")
            yield (ty, rk[e][0], tq)

    explore([(h_n.initial, support.initial, spec.initial)], successors)


def reweight_infimal(pair: NormalPair) -> Pdes:
    """Minimal probability lift of the refined spec, on its own edges.

    Uncontrollable transitions take the plant's probabilities verbatim.
    For each observation cell (the states sharing a label `x[1]`) and
    controllable event, every member state is scaled to the same
    fraction of its plant probability: the largest spec/plant ratio
    achieved inside the cell (infinitesimal ratios rank below every
    ordinary one).  A state `x` reads the plant at `x[0][0]`.  An edge
    the plant lacks there, or a transition the plant forces where the
    refined spec has none, raises `InvariantError`; `refine_to_normal`
    follows the plant, and the saturated support is controllable and
    observable, so on a pair it builds that never happens.
    """
    plant, h_n = pair.g_n, pair.h_n
    controllable = plant.alphabet.controllable
    rows = [(x, h_n._out[x], plant._out[x[0][0]]) for x in h_n.states]
    best: Dict[Tuple[State, str], EpsProb] = {}  # (label, controllable event) -> largest ratio
    for x, row, prow in rows:
        if not row.keys() <= prow.keys():
            raise InvariantError(f"the refined spec leaves the plant at {x!r}")
        for e, (_, p) in row.items():
            if e in controllable:
                ratio, key = p / prow[e][1], (x[1], e)
                if ratio > best.get(key, ZERO):
                    best[key] = ratio

    trans: Dict[Tuple[State, str], Tuple[State, EpsProb]] = {}
    for x, row, prow in rows:
        for e in prow:
            if e not in row and (e not in controllable or (x[1], e) in best):
                raise InvariantError(f"the plant forces {e!r} at {x!r} but the refined spec lacks it")
        for e, (dst, _) in row.items():
            q = prow[e][1]
            trans[(x, e)] = (dst, best[(x[1], e)] * q if e in controllable else q)
    return Pdes(plant.alphabet, h_n.initial, trans, states=h_n.states)


@dataclass(frozen=True)
class InfimalResult:
    support: Pdes
    spec_normal: Pdes
    result: Pdes


def infimal_pipeline(plant: Pdes, spec: Pdes) -> InfimalResult:
    """Full pipeline; the result generates the infimal probabilistic
    controllable and observable superlanguage of the spec w.r.t. the plant."""
    joint = JointSupport(plant, spec)
    _require_sublanguage(joint, plant, spec)
    support = _saturate(_pair_support(joint, spec), plant)
    pair = refine_to_normal(plant, spec, support)
    result = reweight_infimal(pair)
    return InfimalResult(support, pair.h_n, result)


def infimal_superlanguage(plant: Pdes, spec: Pdes) -> Pdes:
    return infimal_pipeline(plant, spec).result


def strip_eps_edges(a: Pdes) -> Pdes:
    """Drop infinitesimal-probability transitions, and the states only
    they reach (display helper)."""
    trans: Dict[Tuple[State, str], Tuple[State, EpsProb]] = {}

    def successors(s):
        for e, edge in a._out[s].items():
            if edge[1].is_ordinary:
                trans[(s, e)] = edge
                yield edge[0]

    explore([a.initial], successors)
    return Pdes(a.alphabet, a.initial, trans, check_liveness=False)
