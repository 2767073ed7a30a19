"""The earlier infimal pipeline, kept as a reference for `pdesctl.infimal`.

It computes the same language in three stages:

1. `saturate` closes the spec's support in rounds (`saturate_once`), each
   starting from the Moore-minimal quotient of the support so far, until
   a round adds nothing.
2. `refine_to_normal` rebuilds the closed support as one normal
   automaton over (plant, support, spec-or-`SINK`) triples and their
   observer cells, with the spec's probabilities on the spec's support and
   `EPS` off it; `check_refinement` walks it beside the support and the
   spec.
3. `reweight_infimal` lifts that automaton's probabilities: uncontrollable
   edges take the plant's, and each controllable event is scaled on each
   cell to the largest spec/plant ratio in the cell.

An off-spec edge's ratio is ``EPS / p`` for plant probability p, which is
ordinary or undefined when p is infinitesimal; compare with the package
only on plants with ordinary probabilities.

`closure_automaton` builds L(S_K/G), whose observer cells
`pdesctl.infimal.infimal_co_support` walks without it, as an automaton
over (plant state, spec state, cell of the spec's observer).

`NormalPair` checks that an automaton labelled (plant state, cell) is
normal: its label cells are its observer cells.  The reference's
automaton is, and so is the package's closed loop over the closure's
observer cells before `quotient_classes` merges them; the merged loop
is not, since a block's states are a union of observer cells.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

from pdesctl import EPS, ONE, ZERO, EpsProb, InvariantError, NotSublanguageError, Pdes
from pdesctl.automata import (
    JointSupport,
    State,
    _unobservable_reach,
    explore,
    minimize_logic,
    numbered_walk,
    observer,
    require_same_alphabet,
)
from pdesctl.supervisor import _require_sublanguage

# the budget of saturation rounds, the last of which finds nothing to add
MAX_ROUNDS = 64


def first_escape(joint: JointSupport, rows: Dict[State, dict]) -> Optional[Tuple[int, str]]:
    """The first state i of ``joint``, and its first event in event order,
    that the row table ``rows`` of the second states defines where the
    joint row lacks it; None if there is none."""
    events = joint.alphabet.events
    for i, ((_, q), row) in enumerate(zip(joint.pairs, joint._out)):
        rq = rows[q]
        for e in events:
            if e in rq and e not in row:
                return i, e
    return None


def pair_support(joint: JointSupport, spec: Pdes) -> Pdes:
    """Logic automaton for the spec's support, on the integer states of
    ``joint = JointSupport(plant, spec)``."""
    escape = first_escape(joint, spec._out)
    if escape is not None:
        raise NotSublanguageError(f"specification support leaves the plant support on {escape[1]!r}")
    trans = {(i, e): edge for i, row in enumerate(joint._out) for e, edge in row.items()}
    return Pdes(joint.alphabet, joint.initial, trans, check_liveness=False)


def saturate_once(support: Pdes, plant: Pdes) -> Optional[Pdes]:
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


def saturate(support: Pdes, plant: Pdes) -> Pdes:
    for _ in range(MAX_ROUNDS):
        support = minimize_logic(support)
        grown = saturate_once(support, plant)
        if grown is None:
            return support
        support = grown
    raise AssertionError(f"support saturation still growing after {MAX_ROUNDS} rounds")


def infimal_co_support(plant: Pdes, spec: Pdes) -> Pdes:
    """The closed support, over the Moore-minimal states of the last round."""
    return saturate(pair_support(JointSupport(plant, spec), spec), plant)


def closure_automaton(plant: Pdes, spec: Pdes) -> Pdes:
    """Generator of L(S_K/G), the infimal prefix-closed controllable and
    observable superlanguage of the spec's support within the plant's.
    Only the supports of the two automata are read.

    States are numbered in breadth-first order; state i is labelled
    (plant state, spec state or None once the string has left the spec,
    cell of `observer(spec)` or None once the observation has left the
    spec's).  A plant edge is kept as S_K keeps it: when it is
    uncontrollable, or when some spec state of the cell enables it.  A
    spec edge the plant lacks raises `InvariantError`."""
    require_same_alphabet(plant, spec)
    alphabet = plant.alphabet
    controllable = alphabet.controllable
    obs = observer(spec)
    enabled = [{e for q in cell for e in spec._out[q] if e in controllable} for cell in obs.cells]

    def successors(label):
        x, q, o = label
        rx = plant._out[x]
        rq = spec._out[q] if q is not None else {}
        for e in rq:
            if e not in rx:
                raise InvariantError(f"the spec leaves the plant's support on {e!r}")
        for e, (dst, _) in rx.items():
            if e in controllable and (o is None or e not in enabled[o]):
                continue
            eq = rq.get(e)
            yield e, (dst, eq[0] if eq is not None else None, obs.step(o, e)), ONE

    labels, rows = numbered_walk((plant.initial, spec.initial, obs.initial), successors)
    return Pdes._from_rows(alphabet, 0, rows, labels, check_liveness=False)


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


def labelled(a: Pdes) -> Pdes:
    """``a`` on the states 0..n-1 of its state order, state i labelled
    with a's i-th state."""
    index = {s: i for i, s in enumerate(a.states)}
    rows = [{e: (index[dst], p) for e, (dst, p) in a._out[s].items()} for s in a.states]
    return Pdes._from_rows(a.alphabet, 0, rows, list(a.states))


@dataclass(frozen=True)
class NormalPair:
    """The plant `g_n` as given, and a normal automaton `h_n` whose label
    table gives state i the label ``(x, o)``: the plant state x it is
    reached with, and its observer cell o.  The states sharing a cell are
    one cell of `observer(h_n)`.  Building a pair checks this
    (`validate`), so the cells are read from the labels."""

    g_n: Pdes
    h_n: Pdes

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise unless the cells of the labels are the observer cells of
        h_n: the unobservable reach of the initial state, and of the
        targets of each cell's states on each observable event, is exactly
        the states of one cell (so all of them share it).  By induction on
        the observation each observer cell is one label cell, and every
        state is reachable, so the observer cells partition the states."""
        h_n = self.h_n
        labels = h_n.labels
        if labels is None:
            raise InvariantError("the normal automaton has no label table")
        observable = h_n.alphabet.observable
        cells: Dict[State, Set[int]] = {}
        steps: Dict[Tuple[State, str], Set[int]] = {}  # (cell, observable event) -> targets
        for x, row in h_n._out.items():
            o = labels[x][1]
            cells.setdefault(o, set()).add(x)
            for e, (y, _) in row.items():
                if e in observable:
                    steps.setdefault((o, e), set()).add(y)
        reach = _unobservable_reach(h_n)
        for targets in [{h_n.initial}, *steps.values()]:
            if reach(targets) != cells[labels[next(iter(targets))][1]]:
                raise InvariantError("refined spec is not normal")


@dataclass(frozen=True)
class ReferencePair:
    """The plant and a normal automaton whose states are their own
    labels, ((plant, support, spec-or-`SINK`), cell); building one runs
    `NormalPair`'s check on the labelled copy."""

    g_n: Pdes
    h_n: Pdes

    def __post_init__(self):
        NormalPair(self.g_n, labelled(self.h_n))


def refine_to_normal(plant: Pdes, spec: Pdes, support: Pdes) -> ReferencePair:
    """The closed support as a normal automaton with the spec's
    probabilities on the spec's support and `EPS` off it; its states are
    ((plant, support, spec-or-`SINK`), cell), the cells being those of the
    triples' joint support."""
    require_same_alphabet(plant, spec)
    inner = JointSupport(plant, support)
    if first_escape(inner, support._out) is not None:
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
    if first_escape(joint, {**spec._out, SINK: {}}) is not None:
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

    pair = ReferencePair(plant, h_n)
    check_refinement(h_n, support, spec)
    return pair


def check_refinement(h_n: Pdes, support: Pdes, spec: Pdes):
    """The refined automaton must have the closed support's structure,
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


def reweight_infimal(pair: ReferencePair) -> Pdes:
    """Minimal probability lift of the refined spec, on its own edges: a
    state `x` reads the plant at `x[0][0]`, uncontrollable transitions take
    the plant's probabilities, and each controllable event is scaled on
    each cell (the states sharing a label `x[1]`) to the largest
    spec/plant ratio in the cell.  An edge the plant lacks, or a
    transition the plant forces where the refined spec has none, raises
    `InvariantError`."""
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
class ReferenceResult:
    support: Pdes
    spec_normal: Pdes
    result: Pdes


def reference_infimal_pipeline(plant: Pdes, spec: Pdes) -> ReferenceResult:
    """The closed support, the normal spec automaton and the reweighted
    result, as the earlier pipeline built them."""
    joint = JointSupport(plant, spec)
    _require_sublanguage(joint)
    support = saturate(pair_support(joint, spec), plant)
    pair = refine_to_normal(plant, spec, support)
    return ReferenceResult(support, pair.h_n, reweight_infimal(pair))
