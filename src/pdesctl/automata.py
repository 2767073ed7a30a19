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
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Optional, Sequence, Tuple

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

    def __post_init__(self):
        if len(set(self.events)) != len(self.events):
            raise InvariantError("duplicate event names")
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
    def uncontrollable(self) -> FrozenSet[str]:
        return frozenset(self.events) - self.controllable

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
            return self.events.index(event)
        except ValueError:
            raise InvariantError(f"unknown event {event!r}") from None

    def controllable_events(self) -> Tuple[str, ...]:
        return self.events[: self.m]

    def uncontrollable_events(self) -> Tuple[str, ...]:
        return self.events[self.m :]

    def project(self, word: Iterable[str]) -> Word:
        """Erase unobservable events, preserving order."""
        out = []
        for e in word:
            if e not in self.events:
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
        known: list = [initial]
        seen = {initial}
        if states is not None:
            for s in states:
                if s not in seen:
                    seen.add(s)
                    known.append(s)
        for (src, event), (dst, prob) in trans.items():
            if event not in alphabet.events:
                raise InvariantError(f"transition uses unknown event {event!r}")
            if not isinstance(prob, EpsProb):
                raise InvariantError("transition probabilities must be EpsProb values")
            if prob.is_zero:
                raise InvariantError(f"stored transition ({src!r},{event!r}) must have positive probability")
            for s in (src, dst):
                if s not in seen:
                    seen.add(s)
                    known.append(s)

        reachable = self._reach(trans, initial)
        if len(reachable) != len(known):
            unreachable = [s for s in known if s not in reachable]
            if on_unreachable == "trim":
                warnings.warn(
                    f"dropping {len(unreachable)} unreachable state(s)", UnreachableStateWarning
                )
                trans = {k: v for k, v in trans.items() if k[0] in reachable}
                known = [s for s in known if s in reachable]
            else:
                raise InvariantError(f"unreachable states: {unreachable!r}")

        self._states = tuple(known)
        self._trans = trans
        out: Dict[State, Dict[str, Tuple[State, EpsProb]]] = {s: {} for s in self._states}
        for (src, event), edge in trans.items():
            out[src][event] = edge
        self._out = out

        if check_liveness:
            for s in self._states:
                total = ZERO
                for _, prob in out[s].values():
                    total = total + prob
                if total > ONE:
                    raise InvariantError(f"liveness exceeds 1 at state {s!r}")

    @staticmethod
    def _reach(trans, initial):
        reachable = {initial}
        frontier = [initial]
        succ: Dict[State, list] = {}
        for (src, _), (dst, _) in trans.items():
            succ.setdefault(src, []).append(dst)
        while frontier:
            s = frontier.pop()
            for dst in succ.get(s, ()):
                if dst not in reachable:
                    reachable.add(dst)
                    frontier.append(dst)
        return reachable

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
        total = ZERO
        for _, p in self._out[state].values():
            total = total + p
        return total

    def has_eps_probabilities(self) -> bool:
        return any(not p.is_ordinary for _, p in self._trans.values())

    # -- language -------------------------------------------------------

    def delta(self, state: State, word: Iterable[str]) -> Optional[State]:
        for e in word:
            if e not in self.alphabet.events:
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
            if e not in self.alphabet.events:
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
        reachable = self._reach(self._trans, self.initial)
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
        order = [self.initial]
        seen = {self.initial}
        i = 0
        while i < len(order):
            s = order[i]
            i += 1
            for e in self.alphabet.events:
                edge = self._out[s].get(e)
                if edge and edge[0] not in seen:
                    seen.add(edge[0])
                    order.append(edge[0])
        mapping = {s: f"{prefix}{k}" for k, s in enumerate(order)}
        return self.rename(mapping)

    def __repr__(self):
        return f"<Pdes {len(self._states)} states, {len(self._trans)} transitions>"


def require_same_alphabet(a: Pdes, b: Pdes):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("operands must share one alphabet")


def product(a: Pdes, b: Pdes) -> Pdes:
    """Synchronous product; each transition carries the minimum of the two
    component probabilities and exists only where that minimum is positive."""
    require_same_alphabet(a, b)
    initial = (a.initial, b.initial)
    trans: Dict[Tuple[State, str], Tuple[State, EpsProb]] = {}
    queue = [initial]
    seen = {initial}
    while queue:
        sa, sb = queue.pop(0)
        for e in a.alphabet.events:
            pa = a.rho(sa, e)
            pb = b.rho(sb, e)
            if pa.is_zero or pb.is_zero:
                continue
            p = pa if pa <= pb else pb
            dst = (a.target(sa, e), b.target(sb, e))
            trans[((sa, sb), e)] = (dst, p)
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return Pdes(a.alphabet, initial, trans, check_liveness=False)


def is_sublanguage(a: Pdes, b: Pdes) -> Verdict:
    """Whether a's language is a probabilistic sublanguage of b's: on a's
    support every one-step extension ratio of a is bounded by b's."""
    require_same_alphabet(a, b)
    initial = (a.initial, b.initial)
    queue: list = [(initial, ())]
    seen = {initial}
    while queue:
        (sa, sb), word = queue.pop(0)
        for e in a.alphabet.events:
            ra = a.rho(sa, e)
            if ra.is_zero:
                continue
            rb = b.rho(sb, e)
            if ra > rb:
                return Verdict(False, Witness((word,), e, ra, rb))
            dst = (a.target(sa, e), b.target(sb, e))
            if dst not in seen:
                seen.add(dst)
                queue.append((dst, word + (e,)))
    return Verdict(True)


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
    initial = (a.initial, b.initial)
    queue = [initial]
    seen = {initial}
    while queue:
        sa, sb = queue.pop(0)
        for e in a.alphabet.events:
            pa = a.rho(sa, e)
            pb = b.rho(sb, e)
            if pa != pb:
                return False
            if pa.is_zero:
                continue
            dst = (a.target(sa, e), b.target(sb, e))
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return True


def add_self_loops(a: Pdes, events: Iterable[str]) -> Pdes:
    """Complete the given events with self-loops wherever undefined.

    The loop probability is structural (one); the result is only meant
    for logic-level constructions, never as a probabilistic model.
    """
    trans = a.transition_map()
    for s in a.states:
        for e in events:
            if e not in a.alphabet.events:
                raise InvariantError(f"unknown event {e!r}")
            if (s, e) not in trans:
                trans[(s, e)] = (s, ONE)
    return Pdes(a.alphabet, a.initial, trans, states=a.states, check_liveness=False)


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


def _unobservable_reach(a: Pdes, states: Iterable[State]) -> FrozenSet[State]:
    unobs = a.alphabet.unobservable
    reach = set(states)
    frontier = list(states)
    while frontier:
        s = frontier.pop()
        for e in unobs:
            t = a.target(s, e)
            if t is not None and t not in reach:
                reach.add(t)
                frontier.append(t)
    return frozenset(reach)


def observer(a: Pdes) -> Observer:
    """Standard subset construction on the logic part of the automaton."""
    initial = _unobservable_reach(a, [a.initial])
    cells = [initial]
    index = {initial: 0}
    trans: Dict[Tuple[int, str], int] = {}
    queue = [initial]
    observable = [e for e in a.alphabet.events if e in a.alphabet.observable]
    while queue:
        cell = queue.pop(0)
        i = index[cell]
        for e in observable:
            targets = {a.target(s, e) for s in cell} - {None}
            if not targets:
                continue
            nxt = _unobservable_reach(a, targets)
            if nxt not in index:
                index[nxt] = len(cells)
                cells.append(nxt)
                queue.append(nxt)
            trans[(i, e)] = index[nxt]
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
