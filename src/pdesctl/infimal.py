"""Infimal probabilistic controllable and observable superlanguage.

When a specification is unachievable, the best achievable approximation
from above is the closed loop of one supervisor.  "Least" is in the
order that `is_sublanguage` decides, where every one-step extension
ratio of the smaller language is bounded by the larger one's, not in the
pointwise order on string values.

Let K be the spec's support and G the plant's.  The supervisor S_K
enables every uncontrollable event, and a controllable event e after a
string s exactly when some t in K with the same observation as s has te
in K.  Its closed loop L(S_K/G)

- contains K, because every step of a string of K is enabled;
- is controllable and observable, because S_K never disables an
  uncontrollable event and decides on the observation alone;
- lies inside every prefix-closed controllable and observable M that
  contains K: by induction on s, an uncontrollable e is in M by
  controllability, and a controllable e by observability of M at t and
  s.

So L(S_K/G) is the infimal prefix-closed controllable and observable
superlanguage of K (the logical result of Rudie and Wonham, 1990), and
one walk builds it:

1. `infimal_co_support` walks the cells of L(S_K/G)'s observer without
   building L(S_K/G).  A string of L(S_K/G) reaches a pair (plant state,
   spec state) and has its observation in a cell o of the spec's
   observer, which says what S_K enables; a cell is one o and the set of
   pairs that the strings of one observation reach.
2. `reweight_infimal` gives each (cell, controllable event) the least
   factor that keeps the spec: the largest spec/plant ratio over the
   cell's pairs.  A pair can lie in several cells, so each ratio is
   computed once per (pair, event) and read per cell.  An edge that
   S_K adds off the spec carries an infinitesimal ratio, below every
   ordinary one, so added strings are present logically but weightless.
3. `refine_to_normal` merges the cells that have equal factor rows now
   and after every observation (`quotient_classes`, a Moore refinement
   of the cells), and puts the plant under those factors, one row per
   block, through the closed loop that
   `controlled_automaton` builds for a scaling map: uncontrollable edges
   keep the plant's probability, and a controllable edge exists where its
   block's row has a factor, with the plant's probability times that
   factor.  Merged cells paired with one plant state generate the same
   language, so the blocks give the closed loop that the cells give, on
   fewer states; each state is labelled (plant state, block).  A block's
   states are a union of observer cells of the result, all with one
   factor row.

`infimal_pipeline`'s result has one state per (plant state, block) it
reaches; `automata.minimize` quotients it to the fewest states that
generate the same language, which is what `inf-pco` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .automata import (
    _ABSENT,
    InvariantError,
    JointSupport,
    ObservationClasses,
    Pdes,
    State,
    explore,
    numbered_walk,
    observer,
    require_same_alphabet,
)
from .supervisor import _closed_loop, _require_sublanguage, quotient_classes
from .values import ONE, ZERO, EpsProb, _Table


@dataclass(frozen=True)
class ClosureCells:
    """The cells of L(S_K/G)'s observer: pair i is ``states[i]``, (plant
    state, spec state or None), and cell c is ``classes.cells[c] = (o,
    members)``, a cell o of `observer(spec)` or None and the numbers of the
    pairs its strings reach.  S_K keeps the plant's edges on ``kept[o]``."""

    states: List[Tuple[State, Optional[State]]]
    classes: ObservationClasses
    kept: Dict[Optional[int], FrozenSet[str]]


def infimal_co_support(plant: Pdes, spec: Pdes) -> ClosureCells:
    """The cells of the observer of L(S_K/G), the infimal prefix-closed
    controllable and observable superlanguage of the spec's support within
    the plant's.  Only the supports of the two automata are read.

    S_K keeps a plant edge when it is uncontrollable or some spec state of
    o enables it.  A cell's successor on an observable e follows its
    members' kept e-edges into ``obs.step(o, e)`` and closes the targets
    under the kept unobservable edges.  Each observer cell of L(S_K/G)
    over (plant state, spec state, o) is one o and distinct pairs, so the
    walk numbers the cells and their moves as `observer` would.  A spec
    edge the plant lacks raises `InvariantError`."""
    require_same_alphabet(plant, spec)
    alphabet = plant.alphabet
    obs = observer(spec)
    kept = {None: frozenset(alphabet.uncontrollable_events())}
    for o, cell in enumerate(obs.cells):
        kept[o] = kept[None].union(*(spec._out[q] for q in cell))
    rows: List[Dict[str, Tuple[State, Optional[State]]]] = []  # pair i's plant edges, {event: target pair}

    def new_number(pair) -> int:
        x, q = pair
        rx, rq = plant._out[x], spec._out[q] if q is not None else {}
        for e in rq:
            if e not in rx:
                raise InvariantError(f"the spec leaves the plant's support on {e!r}")
        rows.append({e: (dst, rq.get(e, _ABSENT)[0]) for e, (dst, _) in rx.items()})
        return len(rows) - 1

    number = _Table(new_number)  # each pair's number, in the order the cells meet them

    def close(key):  # the cell of (o, target pairs): closed under the kept unobservable edges
        o, targets = key
        unobservable = [e for e in alphabet.events if e not in alphabet.observable and e in kept[o]]
        return o, frozenset(explore(targets, lambda i: [number[rows[i][e]] for e in unobservable if e in rows[i]]))

    cells = _Table(close)  # each distinct (o, target pairs) closed once

    def successors(cell):
        o, members = cell
        member_rows = [rows[i] for i in members]
        for e in alphabet.events:
            if e in alphabet.observable and e in kept[o]:
                targets = {row[e] for row in member_rows if e in row}
                if targets:
                    yield e, cells[(obs.step(o, e), frozenset([number[t] for t in targets]))], ONE

    initial = cells[(obs.initial, frozenset([number[(plant.initial, spec.initial)]]))]
    found, cell_rows = numbered_walk(initial, successors)
    trans = {(c, e): d for c, row in enumerate(cell_rows) for e, (d, _) in row.items()}
    return ClosureCells(list(number), ObservationClasses(alphabet, 0, len(found), trans, tuple(found)), kept)


def reweight_infimal(plant: Pdes, spec: Pdes, support: ClosureCells) -> List[Dict[str, EpsProb]]:
    """One factor row per cell (o, members) of ``support =
    infimal_co_support(plant, spec)``: each controllable event that S_K
    keeps at o and the plant state x of some member (x, q) enables maps to
    the largest spec/plant ratio over those members, read from the plant
    at x and the spec at q.  An edge off the spec, with plant probability p,
    has the ratio ``EpsProb(1 / p.magnitude, 1)``: infinitesimal whatever
    p is, so it ranks below every ordinary ratio, and ``EPS / p`` when p
    is ordinary."""
    pairs, controllable = support.states, plant.alphabet.controllable

    def ratio(key):
        i, e = key
        x, q = pairs[i]
        p = plant._out[x][e][1]
        eq = spec._out[q].get(e) if q is not None else None
        return eq[1] / p if eq is not None else EpsProb(1 / p.magnitude, 1)

    ratios = _Table(ratio)  # per (pair, event): a pair can lie in several cells
    rows: List[Dict[str, EpsProb]] = [{} for _ in support.classes.cells]
    for best, (o, members) in zip(rows, support.classes.cells):
        events = support.kept[o] & controllable
        for i in members:
            for e in plant._out[pairs[i][0]]:
                if e in events:
                    r = ratios[(i, e)]
                    if r > best.get(e, ZERO):
                        best[e] = r
    return rows


@dataclass(frozen=True)
class RefinedLoop:
    """The plant `g_n` as given, and `h_n`, the plant under the quotiented
    supervisor: state i is labelled (plant state, block of cells)."""

    g_n: Pdes
    h_n: Pdes


def refine_to_normal(plant: Pdes, spec: Pdes, support: ClosureCells) -> RefinedLoop:
    """The plant under the `reweight_infimal` factors of the cells of
    ``support = infimal_co_support(plant, spec)``, with the cells merged
    by `quotient_classes`, built by the closed loop that
    `controlled_automaton` builds.  Returns the plant beside it."""
    rows = reweight_infimal(plant, spec, support)
    classes, first = quotient_classes(support.classes, [tuple(sorted(row.items())) for row in rows])
    return RefinedLoop(plant, _closed_loop(plant, classes, [rows[c] for c in first]))


def infimal_pipeline(plant: Pdes, spec: Pdes) -> Pdes:
    """The labelled controlled plant that generates the infimal
    probabilistic controllable and observable superlanguage of the spec
    w.r.t. the plant.  A spec that is not a sublanguage of the plant
    raises `NotSublanguageError` with the witness of `is_sublanguage`."""
    _require_sublanguage(JointSupport(plant, spec))
    return refine_to_normal(plant, spec, infimal_co_support(plant, spec)).h_n


def strip_eps_edges(a: Pdes) -> Pdes:
    """Drop infinitesimal-probability transitions, and the states only
    they reach (display helper), on the states 0..n-1 in breadth-first
    order."""

    def successors(s):
        for e, (dst, p) in a._out[s].items():
            if p.is_ordinary:
                yield e, dst, p

    _, rows = numbered_walk(a.initial, successors)
    return Pdes._from_rows(a.alphabet, 0, rows, check_liveness=False)
