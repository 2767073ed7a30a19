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

1. `infimal_co_support` builds L(S_K/G) over (plant state, spec state,
   cell of the spec's observer); the cell says what S_K enables.  Its
   states, like the result's, are 0..n-1 with a table of these labels.
2. `reweight_infimal` gives each (cell of the closure's observer,
   controllable event) the least factor that keeps the spec: the
   largest spec/plant ratio over the closure states in the cell.  A
   closure state can lie in several cells, so each ratio is computed
   once per (plant state, spec state, event) and read per cell.  An
   edge the closure added off the spec carries an infinitesimal ratio,
   below every ordinary one, so added strings are present logically but
   weightless.
3. `refine_to_normal` merges the closure cells that have equal factor
   rows now and after every observation (`quotient_classes`, a Moore
   refinement of the observer's cells), and puts the plant under those
   factors, one row per block, through the closed loop that
   `controlled_automaton` builds for a scaling map: uncontrollable edges
   keep the plant's probability, and a controllable edge exists where its
   block's row has a factor, with the plant's probability times that
   factor.  Merged cells paired with one plant state generate the same
   language, so the blocks give the closed loop that the cells give, on
   fewer states; each state is labelled (plant state, block).  A block's
   states are a union of observer cells of the result, all with one
   factor row.

`InfimalResult.result` has one state per (plant state, block) it reaches;
`automata.minimize` quotients it to the fewest states that generate the
same language, which is what `inf-pco` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .automata import (
    InvariantError,
    JointSupport,
    ObservationClasses,
    Pdes,
    numbered_walk,
    observer,
    require_same_alphabet,
)
from .supervisor import _closed_loop, _require_sublanguage, quotient_classes
from .values import ONE, ZERO, EpsProb, _Table


def infimal_co_support(plant: Pdes, spec: Pdes) -> Pdes:
    """Generator of L(S_K/G), the infimal prefix-closed controllable and
    observable superlanguage of the spec's support within the plant's.
    Only the supports of the two automata are read.

    States are numbered in breadth-first order; state i is labelled
    (plant state, spec state or None once the string has left the spec,
    cell of `observer(spec)` or None once the observation has left the
    spec's).  A plant edge is kept when the spec has it too, when it is
    uncontrollable, or when some spec state of the cell enables it; a
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
            eq = rq.get(e)
            if eq is None and e in controllable and (o is None or e not in enabled[o]):
                continue
            yield e, (dst, eq[0] if eq is not None else None, obs.step(o, e)), ONE

    labels, rows = numbered_walk((plant.initial, spec.initial, obs.initial), successors)
    return Pdes._from_rows(alphabet, 0, rows, labels, check_liveness=False)


def reweight_infimal(plant: Pdes, spec: Pdes, support: Pdes, obs: ObservationClasses) -> List[Dict[str, EpsProb]]:
    """One factor row per cell of ``obs = observer(support)``, for the
    closure ``support = infimal_co_support(plant, spec)``: each controllable
    event that some state of the cell enables maps to the largest
    spec/plant ratio over the cell's states.  A state labelled (x, q, o)
    reads the plant at x and the spec at q.  An edge off the spec, with
    plant probability p, has the ratio ``EpsProb(1 / p.magnitude, 1)``:
    infinitesimal whatever p is, so it ranks below every ordinary ratio,
    and ``EPS / p`` when p is ordinary."""
    controllable = plant.alphabet.controllable
    labels = support.labels

    def ratio(key):
        x, q, e = key
        p = plant._out[x][e][1]
        eq = spec._out[q].get(e) if q is not None else None
        return eq[1] / p if eq is not None else EpsProb(1 / p.magnitude, 1)

    ratios = _Table(ratio)  # per (x, q, e): a state can lie in several cells
    rows: List[Dict[str, EpsProb]] = [{} for _ in obs.cells]
    for best, cell in zip(rows, obs.cells):
        for state in cell:
            x, q, _ = labels[state]
            for e in support._out[state]:
                if e in controllable:
                    r = ratios[(x, q, e)]
                    if r > best.get(e, ZERO):
                        best[e] = r
    return rows


@dataclass(frozen=True)
class RefinedLoop:
    """The plant `g_n` as given, and `h_n`, the plant under the quotiented
    supervisor: state i is labelled (plant state, block of closure
    cells)."""

    g_n: Pdes
    h_n: Pdes


def refine_to_normal(plant: Pdes, spec: Pdes, support: Pdes) -> RefinedLoop:
    """The plant under the `reweight_infimal` factors of the cells of
    ``observer(support)``, for the closure ``support =
    infimal_co_support(plant, spec)``, with the cells merged by
    `quotient_classes`, built by the closed loop that
    `controlled_automaton` builds.  Returns the plant beside it."""
    obs = observer(support)
    rows = reweight_infimal(plant, spec, support, obs)
    classes, first = quotient_classes(obs, [tuple(sorted(row.items())) for row in rows])
    return RefinedLoop(plant, _closed_loop(plant, classes, [rows[c] for c in first]))


@dataclass(frozen=True)
class InfimalResult:
    """The closure L(S_K/G) as a logic automaton, and the labelled
    controlled plant that generates the infimum."""

    support: Pdes
    result: Pdes


def infimal_pipeline(plant: Pdes, spec: Pdes) -> InfimalResult:
    """Full pipeline; the result generates the infimal probabilistic
    controllable and observable superlanguage of the spec w.r.t. the
    plant.  A spec that is not a sublanguage of the plant raises
    `NotSublanguageError` with the witness of `is_sublanguage`."""
    _require_sublanguage(JointSupport(plant, spec))
    support = infimal_co_support(plant, spec)
    return InfimalResult(support, refine_to_normal(plant, spec, support).h_n)


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
