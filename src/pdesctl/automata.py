"""Deterministic probabilistic automata and their structural operations.

States are arbitrary hashable objects (the text format uses strings;
constructed automata use tuples).  Transition probabilities are exact
`EpsProb` values and are strictly positive wherever a transition is
stored; per-state liveness (the dominant-term sum of outgoing
probabilities) never exceeds one for probabilistic automata.  Logic
automata (all probabilities one) skip the liveness bound.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .values import ONE, ZERO, EpsProb, format_prob, parse_prob

State = Hashable
Event = str
Word = Tuple[str, ...]


class PdesError(Exception):
    """Base error for this package."""


class AlphabetMismatchError(PdesError):
    pass


class InvariantError(PdesError):
    pass


class FormatError(PdesError):
    """Raised on malformed text input; carries a line number when known."""

    def __init__(self, message, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnreachableStateWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Event set with controllable/uncontrollable and observable/unobservable splits.

    Events are ordered with all controllable events first; that order
    fixes the event indexing used by control patterns and scaling
    vectors.
    """

    events: Tuple[str, ...]
    controllable: FrozenSet[str]
    observable: FrozenSet[str]
    _position: Dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        position = {e: i for i, e in enumerate(self.events)}
        if len(position) != len(self.events):
            raise InvariantError("duplicate event names")
        object.__setattr__(self, "_position", position)
        if not self.controllable <= set(self.events):
            raise InvariantError("controllable events not a subset of the alphabet")
        if not self.observable <= set(self.events):
            raise InvariantError("observable events not a subset of the alphabet")
        m = len(self.controllable)
        if frozenset(self.events[:m]) != self.controllable:
            raise InvariantError("events must be ordered with controllable events first")

    @classmethod
    def make(
        cls,
        controllable: Sequence[str],
        uncontrollable: Sequence[str],
        observable: Iterable[str],
    ) -> "Alphabet":
        events = tuple(controllable) + tuple(uncontrollable)
        return cls(events, frozenset(controllable), frozenset(observable))

    @property
    def unobservable(self) -> FrozenSet[str]:
        return frozenset(self.events) - self.observable

    @property
    def n(self) -> int:
        return len(self.events)

    @property
    def m(self) -> int:
        return len(self.controllable)

    def index(self, event: str) -> int:
        """0-based position of the event; controllable events come first."""
        try:
            return self._position[event]
        except KeyError:
            raise InvariantError(f"unknown event {event!r}") from None

    def controllable_events(self) -> Tuple[str, ...]:
        return self.events[: self.m]

    def uncontrollable_events(self) -> Tuple[str, ...]:
        return self.events[self.m :]

    def project(self, word: Iterable[str]) -> Word:
        """Erase unobservable events, preserving order."""
        out = []
        for e in word:
            if e not in self._position:
                raise InvariantError(f"unknown event {e!r}")
            if e in self.observable:
                out.append(e)
        return tuple(out)

    def restrict_to_observable(self) -> "Alphabet":
        ctrl = [e for e in self.events if e in self.observable and e in self.controllable]
        unctrl = [e for e in self.events if e in self.observable and e not in self.controllable]
        return Alphabet.make(ctrl, unctrl, ctrl + unctrl)


@dataclass(frozen=True)
class Witness:
    """Concrete violation evidence: one or two strings, the offending
    event, and the two probabilities (or probability products) compared."""

    strings: Tuple[Word, ...]
    event: str
    lhs: EpsProb
    rhs: EpsProb


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise InvariantError("witness must be present exactly when the verdict fails")

    def __bool__(self) -> bool:
        return self.holds


def _dominant_sum(row) -> Tuple[int, int, int]:
    """The dominant-term sum of a row's probabilities as (numerator,
    denominator, degree): the magnitudes of the lowest-degree terms summed
    as one unreduced integer ratio.  Stored probabilities are positive;
    an empty row sums to 0/1."""
    num, den, degree = 0, 1, 0
    for _, p in row.values():
        d = p.eps_degree
        if num and d != degree:
            if d > degree:
                continue
            num, den = 0, 1  # a lower degree dominates
        degree = d
        m = p.magnitude
        num = num * m.denominator + m.numerator * den
        den *= m.denominator
    return num, den, degree


class Pdes:
    """A deterministic probabilistic automaton (a PDES)."""

    __slots__ = ("alphabet", "initial", "_states", "_trans", "_out")

    def __init__(
        self,
        alphabet: Alphabet,
        initial: State,
        transitions: Dict[Tuple[State, str], Tuple[State, EpsProb]],
        states: Optional[Iterable[State]] = None,
        check_liveness: bool = True,
        on_unreachable: str = "error",
    ):
        self.alphabet = alphabet
        self.initial = initial
        trans = dict(transitions)
        # one row {event: (target, probability)} per state, in the order the
        # states are first named: initial, then `states`, then transitions
        out: Dict[State, Dict[str, Tuple[State, EpsProb]]] = {initial: {}}
        for s in states or ():
            out.setdefault(s, {})
        events = alphabet._position
        for key, edge in trans.items():
            src, event = key
            dst, prob = edge
            if event not in events:
                raise InvariantError(f"transition uses unknown event {event!r}")
            if not isinstance(prob, EpsProb):
                raise InvariantError("transition probabilities must be EpsProb values")
            if not prob.magnitude:
                raise InvariantError(f"stored transition ({src!r},{event!r}) must have positive probability")
            row = out.get(src)
            if row is None:
                row = out[src] = {}
            row[event] = edge
            if dst not in out:
                out[dst] = {}

        reachable = explore([initial], lambda s: [edge[0] for edge in out[s].values()])
        if len(reachable) != len(out):
            keep = set(reachable)
            unreachable = [s for s in out if s not in keep]
            if on_unreachable != "trim":
                raise InvariantError(f"unreachable states: {unreachable!r}")
            warnings.warn(f"dropping {len(unreachable)} unreachable state(s)", UnreachableStateWarning)
            trans = {k: v for k, v in trans.items() if k[0] in keep}
            out = {s: row for s, row in out.items() if s in keep}

        self._states = tuple(out)
        self._trans = trans
        self._out = out
        if check_liveness:
            for s, row in out.items():
                num, den, degree = _dominant_sum(row)
                if not degree and num > den:
                    raise InvariantError(f"liveness exceeds 1 at state {s!r}")

    def _targets(self, state: State) -> List[State]:
        """Targets of the state's transitions, in event order."""
        row = self._out[state]
        return [row[e][0] for e in self.alphabet.events if e in row]

    # -- basic structure ------------------------------------------------

    @property
    def states(self) -> Tuple[State, ...]:
        return self._states

    def step(self, state: State, event: str) -> Optional[Tuple[State, EpsProb]]:
        return self._out[state].get(event)

    def target(self, state: State, event: str) -> Optional[State]:
        edge = self._out[state].get(event)
        return edge[0] if edge else None

    def rho(self, state: State, event: str) -> EpsProb:
        """Transition probability; zero when the transition is undefined."""
        edge = self._out[state].get(event)
        return edge[1] if edge else ZERO

    def enabled(self, state: State) -> Tuple[str, ...]:
        row = self._out[state]
        return tuple(e for e in self.alphabet.events if e in row)

    def transitions(self) -> Iterator[Tuple[State, str, State, EpsProb]]:
        for src in self._states:
            row = self._out[src]
            for e in self.alphabet.events:
                if e in row:
                    dst, p = row[e]
                    yield src, e, dst, p

    def transition_map(self) -> Dict[Tuple[State, str], Tuple[State, EpsProb]]:
        return dict(self._trans)

    def liveness(self, state: State) -> EpsProb:
        """Dominant-term sum of the outgoing probabilities."""
        num, den, degree = _dominant_sum(self._out[state])
        return EpsProb(Fraction(num, den), degree)

    def has_eps_probabilities(self) -> bool:
        return any(not p.is_ordinary for _, p in self._trans.values())

    # -- language -------------------------------------------------------

    def delta(self, state: State, word: Iterable[str]) -> Optional[State]:
        for e in word:
            if e not in self.alphabet._position:
                raise InvariantError(f"unknown event {e!r}")
            edge = self._out[state].get(e)
            if edge is None:
                return None
            state = edge[0]
        return state

    def supports(self, word: Iterable[str]) -> bool:
        return self.delta(self.initial, word) is not None

    def eval_language(self, word: Iterable[str]) -> EpsProb:
        """Generated-language value of a string: the product of transition
        probabilities along its unique run, zero if the run dies."""
        value = ONE
        state = self.initial
        for e in word:
            if e not in self.alphabet._position:
                raise InvariantError(f"unknown event {e!r}")
            edge = self._out[state].get(e)
            if edge is None:
                return ZERO
            state, p = edge[0], edge[1]
            value = value * p
        return value

    # -- derived automata ------------------------------------------------

    def logic(self) -> "Pdes":
        """The same transition structure with every probability set to one."""
        trans = {key: (dst, ONE) for key, (dst, _) in self._trans.items()}
        return Pdes(self.alphabet, self.initial, trans, states=self._states, check_liveness=False)

    def accessible(self) -> "Pdes":
        reachable = set(explore([self.initial], self._targets))
        trans = {k: v for k, v in self._trans.items() if k[0] in reachable}
        states = [s for s in self._states if s in reachable]
        return Pdes(self.alphabet, self.initial, trans, states=states, check_liveness=False)

    def rename(self, mapping: Dict[State, State]) -> "Pdes":
        trans = {
            (mapping[src], e): (mapping[dst], p) for (src, e), (dst, p) in self._trans.items()
        }
        states = [mapping[s] for s in self._states]
        return Pdes(self.alphabet, mapping[self.initial], trans, states=states, check_liveness=False)

    def canonical_names(self, prefix: str = "x") -> "Pdes":
        """Rename states ``x0, x1, ...`` in breadth-first discovery order."""
        order = explore([self.initial], self._targets)
        mapping = {s: f"{prefix}{k}" for k, s in enumerate(order)}
        return self.rename(mapping)

    def __repr__(self):
        return f"<Pdes {len(self._states)} states, {len(self._trans)} transitions>"


def require_same_alphabet(a: Pdes, b: Pdes):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("operands must share one alphabet")


def explore(initial: Iterable[State], successors: Callable[[State], Iterable[State]]) -> List[State]:
    """Breadth-first search: every state reachable from the initial ones,
    once each, in discovery order.  ``successors(s)`` is called once per
    state in that order, so it may record transitions as it goes."""
    seen = dict.fromkeys(initial)
    queue = deque(seen)
    pop, push = queue.popleft, queue.append
    while queue:
        for nxt in successors(pop()):
            if nxt not in seen:
                seen[nxt] = None
                push(nxt)
    return list(seen)


def product(a: Pdes, b: Pdes) -> Pdes:
    """Synchronous product; each transition carries the minimum of the two
    component probabilities and exists only where that minimum is positive."""
    require_same_alphabet(a, b)
    events = a.alphabet.events
    trans: Dict[Tuple[State, str], Tuple[State, EpsProb]] = {}

    def successors(state):
        ra, rb = a._out[state[0]], b._out[state[1]]
        for e in events:
            ea = ra.get(e)
            if ea is None:
                continue
            eb = rb.get(e)
            if eb is None:
                continue
            pa, pb = ea[1], eb[1]
            dst = (ea[0], eb[0])
            trans[(state, e)] = (dst, pa if pa <= pb else pb)
            yield dst

    initial = (a.initial, b.initial)
    explore([initial], successors)
    return Pdes(a.alphabet, initial, trans, check_liveness=False)


# the edge read for an event a row lacks: row.get(e, _ABSENT)[1] is its probability
_ABSENT = (None, ZERO)


class JointSupport:
    """The logic of ``product(a, b)`` on integer states: state i is the
    pair ``pairs[i]``, numbered in breadth-first order (ties broken by
    event order), and ``_out[i]`` is its row {event: (target, ONE)} in
    event order.  The rows have the shape of `Pdes` rows, so `observer`
    reads a joint support as it reads an automaton."""

    __slots__ = ("alphabet", "initial", "pairs", "index", "_out")

    def __init__(self, a: Pdes, b: Pdes):
        require_same_alphabet(a, b)
        events = a.alphabet.events
        targets: List[Dict[str, Tuple[State, State]]] = []

        def successors(pair):
            ra, rb = a._out[pair[0]], b._out[pair[1]]
            row = {e: (ra[e][0], rb[e][0]) for e in events if e in ra and e in rb}
            targets.append(row)
            return row.values()

        self.alphabet = a.alphabet
        self.initial = 0
        self.pairs = explore([(a.initial, b.initial)], successors)
        index = self.index = {pair: i for i, pair in enumerate(self.pairs)}
        self._out = [{e: (index[dst], ONE) for e, dst in row.items()} for row in targets]

    def access(self) -> List[Word]:
        """Per state, the shortest string reaching it (ties broken by event
        order): the path along which the walk first discovered it."""
        words: List[Optional[Word]] = [()] + [None] * (len(self.pairs) - 1)
        for word, row in zip(words, self._out):
            for e, (j, _) in row.items():
                if words[j] is None:
                    words[j] = word + (e,)
        return words


def is_sublanguage(a: Pdes, b: Pdes) -> Verdict:
    """Whether a's language is a probabilistic sublanguage of b's: on a's
    support every one-step extension ratio of a is bounded by b's."""
    require_same_alphabet(a, b)
    events = a.alphabet.events
    initial = (a.initial, b.initial)
    words = {initial: ()}  # shortest access string of each pair
    witness = None

    def successors(state):
        nonlocal witness
        if witness is not None:
            return
        ra, rb = a._out[state[0]], b._out[state[1]]
        word = words[state]
        for e in events:
            ea = ra.get(e)
            if ea is None:
                continue
            eb = rb.get(e)
            rb_e = eb[1] if eb else ZERO
            if ea[1] > rb_e:
                witness = Witness((word,), e, ea[1], rb_e)
                return
            dst = (ea[0], eb[0])
            if dst not in words:
                words[dst] = word + (e,)
            yield dst

    explore([initial], successors)
    return Verdict(witness is None, witness)


def is_subautomaton(a: Pdes, b: Pdes) -> bool:
    """Structural containment: a's diagram is a subgraph of b's (same
    initial state, same targets) with pointwise smaller probabilities."""
    if a.alphabet != b.alphabet:
        return False
    if a.initial != b.initial:
        return False
    bstates = set(b.states)
    if not set(a.states) <= bstates:
        return False
    for (src, e), (dst, p) in a.transition_map().items():
        if b.target(src, e) != dst:
            return False
        if p > b.rho(src, e):
            return False
    return True


def language_equivalent(a: Pdes, b: Pdes) -> bool:
    """Exact equality of generated languages, by synchronized traversal."""
    require_same_alphabet(a, b)
    differ = False

    def successors(state):
        nonlocal differ
        ra, rb = a._out[state[0]], b._out[state[1]]
        if differ or len(ra) != len(rb):
            differ = True
            return
        for e, (ta, pa) in ra.items():
            eb = rb.get(e)
            if eb is None or eb[1] != pa:
                differ = True
                return
            yield (ta, eb[0])

    explore([(a.initial, b.initial)], successors)
    return not differ


@dataclass(frozen=True)
class Observer:
    """Subset-construction observer of a PDES under its observable events.

    Cells are frozensets of source states, closed under unobservable
    reach; transitions are indexed over observable events only.
    """

    alphabet: Alphabet
    cells: Tuple[FrozenSet[State], ...]
    initial: int
    trans: Dict[Tuple[int, str], int]

    def step(self, cell: int, event: str) -> Optional[int]:
        return self.trans.get((cell, event))

    def walk(self, observation: Iterable[str]) -> Optional[int]:
        cell = self.initial
        for e in observation:
            nxt = self.trans.get((cell, e))
            if nxt is None:
                return None
            cell = nxt
        return cell

    def is_partition(self, states: Iterable[State]) -> bool:
        todo = set(states)
        for cell in self.cells:
            if not cell <= todo:
                return False
            todo -= cell
        return not todo


def _unobservable_reach(a: Pdes) -> Callable[[Iterable[State]], FrozenSet[State]]:
    """The closure of a set of states under unobservable events, as a function."""
    out = a._out
    unobs = [e for e in a.alphabet.events if e not in a.alphabet.observable]

    def successors(s):
        row = out[s]
        return [row[e][0] for e in unobs if e in row]

    return lambda states: frozenset(explore(states, successors))


def observer(a: Pdes, visit: Optional[Callable[[int, FrozenSet[State]], None]] = None) -> Observer:
    """Standard subset construction on the logic part of the automaton
    (or of a `JointSupport`, which has the same rows).  If given,
    ``visit(i, cell)`` is called on each cell in index order before its
    successors are built; an exception it raises stops the construction."""
    out = a._out
    observable = [e for e in a.alphabet.events if e in a.alphabet.observable]
    reach = _unobservable_reach(a)
    initial = reach([a.initial])
    index = {initial: 0}  # numbered as `explore` discovers them
    trans: Dict[Tuple[int, str], int] = {}

    def successors(cell):
        i = index[cell]
        if visit is not None:
            visit(i, cell)
        rows = [out[s] for s in cell]
        for e in observable:
            targets = {row[e][0] for row in rows if e in row}
            if targets:
                nxt = reach(targets)
                trans[(i, e)] = index.setdefault(nxt, len(index))
                yield nxt

    cells = explore([initial], successors)
    return Observer(a.alphabet, tuple(cells), 0, trans)


def observer_automaton(a: Pdes) -> Pdes:
    """The observer as a logic automaton over the observable sub-alphabet,
    with the subset cells themselves as states."""
    obs = observer(a)
    alph = a.alphabet.restrict_to_observable()
    trans = {
        (obs.cells[i], e): (obs.cells[j], ONE) for (i, e), j in obs.trans.items()
    }
    return Pdes(alph, obs.cells[obs.initial], trans, states=obs.cells, check_liveness=False)


def minimize_logic(a: Pdes) -> Pdes:
    """Quotient a logic automaton by right-language equality (Moore
    refinement with every state accepting)."""
    if any(p != ONE for _, _, _, p in a.transitions()):
        raise InvariantError("minimize_logic expects a logic automaton")
    states = list(a.states)
    block = {s: 0 for s in states}
    nblocks = 1
    while True:
        sigs = {}
        for s in states:
            sig = (block[s],) + tuple(
                block[a.target(s, e)] if a.target(s, e) is not None else -1
                for e in a.alphabet.events
            )
            sigs.setdefault(sig, []).append(s)
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
        for i, group in enumerate(sigs.values()):
            for s in group:
                block[s] = i
    reps: Dict[int, State] = {}
    for s in states:
        reps.setdefault(block[s], s)
    trans = {}
    for b, rep in reps.items():
        for e in a.alphabet.events:
            t = a.target(rep, e)
            if t is not None:
                trans[(f"m{b}", e)] = (f"m{block[t]}", ONE)
    return Pdes(a.alphabet, f"m{block[a.initial]}", trans, check_liveness=False)


# -- text format -------------------------------------------------------


def loads_automaton(text: str) -> Pdes:
    """Parse the line-oriented automaton format (see `dumps_automaton`)."""
    states: list = []
    initial = None
    controllable: Optional[list] = None
    uncontrollable: Optional[list] = None
    observable: Optional[list] = None
    unobservable: Optional[list] = None
    raw_trans: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"expected '<directive>: ...', got {line!r}", lineno)
        key, _, rest = line.partition(":")
        key = key.strip()
        fields = rest.split()
        if key == "states":
            states.extend(fields)
        elif key == "initial":
            if initial is not None:
                raise FormatError("duplicate initial line", lineno)
            if len(fields) != 1:
                raise FormatError("initial takes exactly one state", lineno)
            initial = fields[0]
        elif key == "controllable":
            controllable = (controllable or []) + fields
        elif key == "uncontrollable":
            uncontrollable = (uncontrollable or []) + fields
        elif key == "observable":
            observable = (observable or []) + fields
        elif key == "unobservable":
            unobservable = (unobservable or []) + fields
        elif key == "trans":
            if len(fields) != 4:
                raise FormatError("trans takes: <src> <event> <dst> <prob>", lineno)
            raw_trans.append((lineno, fields))
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)

    if initial is None:
        raise FormatError("missing 'initial:' line")
    if controllable is None and uncontrollable is None:
        raise FormatError("missing controllable/uncontrollable lines")
    controllable = controllable or []
    uncontrollable = uncontrollable or []
    events = controllable + uncontrollable
    if observable is None and unobservable is None:
        raise FormatError("missing observable/unobservable lines")
    if observable is None:
        observable = [e for e in events if e not in set(unobservable or [])]
    if unobservable is not None:
        declared = set(observable) | set(unobservable)
        if declared != set(events) or set(observable) & set(unobservable):
            raise FormatError("observable/unobservable lines must partition the events")
    try:
        alphabet = Alphabet.make(controllable, uncontrollable, observable)
    except InvariantError as e:
        raise FormatError(str(e)) from None

    known = set(states) if states else None
    trans = {}
    for lineno, (src, event, dst, prob_text) in raw_trans:
        if known is not None and (src not in known or dst not in known):
            raise FormatError(f"transition references undeclared state", lineno)
        if (src, event) in trans:
            raise FormatError(f"duplicate transition from {src!r} on {event!r}", lineno)
        if event not in alphabet.events:
            raise FormatError(f"unknown event {event!r}", lineno)
        try:
            prob = parse_prob(prob_text)
        except ValueError as e:
            raise FormatError(str(e), lineno) from None
        if prob.is_zero:
            raise FormatError("transitions must have positive probability", lineno)
        trans[(src, event)] = (dst, prob)

    if known is not None and initial not in known:
        raise FormatError(f"initial state {initial!r} not declared")
    try:
        return Pdes(alphabet, initial, trans, states=states or None, on_unreachable="trim")
    except InvariantError as e:
        raise FormatError(str(e)) from None


def dumps_automaton(a: Pdes) -> str:
    """Serialize to the text format; states must be strings (use
    `canonical_names` first for constructed automata)."""
    for s in a.states:
        if not isinstance(s, str):
            raise InvariantError("serialization needs string state names; call canonical_names()")
    lines = [
        "states: " + " ".join(a.states),
        f"initial: {a.initial}",
        "controllable: " + " ".join(a.alphabet.controllable_events()),
        "uncontrollable: " + " ".join(a.alphabet.uncontrollable_events()),
        "observable: " + " ".join(e for e in a.alphabet.events if e in a.alphabet.observable),
        "unobservable: " + " ".join(e for e in a.alphabet.events if e not in a.alphabet.observable),
    ]
    for src, e, dst, p in a.transitions():
        lines.append(f"trans: {src} {e} {dst} {format_prob(p)}")
    return "\n".join(lines) + "\n"
