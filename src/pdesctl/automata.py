"""Deterministic probabilistic automata and their structural operations.

States are arbitrary hashable objects: strings in the text format, and
the numbers 0..n-1, most with a label table, in the constructions.
Transition probabilities are exact `EpsProb` values and are strictly
positive wherever a transition is stored; per-state liveness (the
dominant-term sum of outgoing probabilities) never exceeds one for
probabilistic automata.  Logic automata (all probabilities one) skip the
liveness bound.  Every automaton is checked on one path, `Pdes._take_rows`,
which also keeps each state's row in event order, so walks read a row's
edges in that order without scanning the alphabet.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .values import ONE, ZERO, EpsProb, _Table, format_prob, parse_prob

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
    """A deterministic probabilistic automaton (a PDES); ``labels``, if not
    None, is a table saying what each of the states 0..n-1 stands for."""

    __slots__ = ("alphabet", "initial", "_states", "_out", "labels")

    def __init__(
        self,
        alphabet: Alphabet,
        initial: State,
        transitions: Dict[Tuple[State, str], Tuple[State, EpsProb]],
        states: Optional[Iterable[State]] = None,
        check_liveness: bool = True,
        on_unreachable: str = "error",
    ):
        # one row {event: (target, probability)} per state, in the order the
        # states are first named: initial, then `states`, then transitions
        rows: Dict[State, Dict[str, Tuple[State, EpsProb]]] = {s: {} for s in (initial, *(states or ()))}
        for (src, event), edge in transitions.items():
            rows.setdefault(src, {})[event] = edge
            rows.setdefault(edge[0], {})
        self._take_rows(alphabet, initial, rows, None, check_liveness, on_unreachable)

    @classmethod
    def _from_rows(cls, alphabet: Alphabet, initial: State, rows, labels: Optional[Sequence] = None,
                   check_liveness: bool = True, on_unreachable: str = "error") -> "Pdes":
        """The automaton of ``rows``: {state: {event: (target, probability)}}
        in state order, or the list of the rows of states 0..n-1, with a row
        for every target."""
        a = cls.__new__(cls)
        a._take_rows(alphabet, initial, rows, labels, check_liveness, on_unreachable)
        return a

    def _take_rows(self, alphabet, initial, rows, labels, check_liveness, on_unreachable):
        """The one checking path of every automaton: each edge's event and
        probability, reachability (or trimming, with a warning), liveness.
        It is also the one place rows are put in event order: a row given
        out of order is replaced by a sorted copy, an ordered one is kept."""
        rows = dict(enumerate(rows)) if isinstance(rows, list) else rows
        events = alphabet._position

        def check(src):
            row = rows[src]
            last = -1
            for event, (_, prob) in row.items():
                i = events.get(event)
                if i is None:
                    raise InvariantError(f"transition uses unknown event {event!r}")
                if not isinstance(prob, EpsProb):
                    raise InvariantError("transition probabilities must be EpsProb values")
                if not prob.magnitude:
                    raise InvariantError(f"stored transition ({src!r},{event!r}) must have positive probability")
                last = i if last < i else len(events)  # len(events) marks a row out of order
            if last == len(events):
                rows[src] = dict(sorted(row.items(), key=lambda edge: events[edge[0]]))
            return row

        # depth first, checking each row it reaches; the walk follows each
        # row as given, so sorting it does not change which check fails first
        reached, stack = {initial}, [initial]
        while stack:
            src = stack.pop()
            for dst, _ in check(src).values():
                if dst not in reached:
                    reached.add(dst)
                    stack.append(dst)
        if len(reached) != len(rows):
            unreachable = [s for s in rows if s not in reached]
            for s in unreachable:
                check(s)
            if on_unreachable != "trim":
                raise InvariantError(f"unreachable states: {unreachable!r}")
            warnings.warn(f"dropping {len(unreachable)} unreachable state(s)", UnreachableStateWarning)
            rows = {s: row for s, row in rows.items() if s in reached}
        if check_liveness:
            for s, row in rows.items():
                num, den, degree = _dominant_sum(row)
                if not degree and num > den:
                    raise InvariantError(f"liveness exceeds 1 at state {s!r}")

        self.alphabet = alphabet
        self.initial = initial
        self._states = tuple(rows)
        self._out = rows
        self.labels = labels

    def _targets(self, state: State) -> List[State]:
        """Targets of the state's transitions, in event order."""
        return [dst for dst, _ in self._out[state].values()]

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
        return tuple(self._out[state])

    def transitions(self) -> Iterator[Tuple[State, str, State, EpsProb]]:
        for src, row in self._out.items():
            for e, (dst, p) in row.items():
                yield src, e, dst, p

    def transition_map(self) -> Dict[Tuple[State, str], Tuple[State, EpsProb]]:
        """{(source, event): (target, probability)}, row by row in state
        order, each row in event order."""
        return {(s, e): edge for s, row in self._out.items() for e, edge in row.items()}

    def liveness(self, state: State) -> EpsProb:
        """Dominant-term sum of the outgoing probabilities."""
        num, den, degree = _dominant_sum(self._out[state])
        return EpsProb(Fraction(num, den), degree)

    def has_eps_probabilities(self) -> bool:
        return any(p.eps_degree for row in self._out.values() for _, p in row.values())

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
        rows = {s: {e: (dst, ONE) for e, (dst, _) in row.items()} for s, row in self._out.items()}
        return Pdes._from_rows(self.alphabet, self.initial, rows, self.labels, check_liveness=False)

    def rename(self, mapping: Dict[State, State]) -> "Pdes":
        """State s named ``mapping[s]``, for a one-to-one mapping."""
        rows = {mapping[s]: {e: (mapping[d], p) for e, (d, p) in row.items()} for s, row in self._out.items()}
        return Pdes._from_rows(self.alphabet, mapping[self.initial], rows, check_liveness=False)

    def canonical_names(self, prefix: str = "x") -> "Pdes":
        """Rename states ``x0, x1, ...`` in breadth-first discovery order."""
        order = explore([self.initial], self._targets)
        mapping = {s: f"{prefix}{k}" for k, s in enumerate(order)}
        return self.rename(mapping)

    def __repr__(self):
        return f"<Pdes {len(self._states)} states, {sum(map(len, self._out.values()))} transitions>"


def require_same_alphabet(a: Pdes, b: Pdes):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("operands must share one alphabet")


def explore(initial: Iterable[State], successors: Callable[[State], Iterable[State]]) -> List[State]:
    """Breadth-first search: every state reachable from the initial ones,
    once each, in discovery order.  ``successors(s)`` is called once per
    state in that order, so it may record transitions as it goes."""
    order = list(dict.fromkeys(initial))
    seen = set(order)
    for state in order:  # grows as the walk finds states
        for nxt in successors(state):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


def numbered_walk(initial: State, successors: Callable[[State], Iterable[Tuple[str, State, EpsProb]]]):
    """Breadth-first walk numbering states 0..n-1 as found; ``successors(label)``
    yields a state's (event, target label, probability) in row order.
    Returns the labels (state i's is ``labels[i]``) and the rows on numbers."""
    index, labels, rows = {initial: 0}, [initial], []
    for label in labels:  # grows as the walk finds states
        row = {}
        for e, target, p in successors(label):
            j = index.get(target)
            if j is None:
                j = index[target] = len(labels)
                labels.append(target)
            row[e] = (j, p)
        rows.append(row)
    return labels, rows


# the edge read for an event a row lacks: row.get(e, _ABSENT)[1] is its probability
_ABSENT = (None, ZERO)


class JointSupport:
    """The logic of ``product(a, b)`` on integer states: state i is the
    pair ``pairs[i]``, numbered in breadth-first order (ties broken by
    event order), and ``_out[i]`` is its row {event: (target, ONE)} in
    event order.  The rows have the shape of `Pdes` rows, so `observer`
    reads a joint support as it reads an automaton.  The walk reads only
    the targets of ``a`` and ``b``; both are kept, so that a pass over the
    pairs reads their probabilities from the joint alone.  No table maps
    a pair to its number: only the witnesses of the checks look one up."""

    __slots__ = ("a", "b", "alphabet", "initial", "pairs", "_out")

    def __init__(self, a: Pdes, b: Pdes):
        require_same_alphabet(a, b)
        self.a, self.b = a, b

        def successors(pair):
            ra, rb = a._out[pair[0]], b._out[pair[1]]
            return [(e, (x, rb[e][0]), ONE) for e, (x, _) in ra.items() if e in rb]

        self.alphabet = a.alphabet
        self.initial = 0
        self.pairs, self._out = numbered_walk((a.initial, b.initial), successors)

    def access(self) -> List[Word]:
        """Per state, the shortest string reaching it (ties broken by event
        order): the path along which the walk first discovered it."""
        words: List[Optional[Word]] = [()] + [None] * (len(self.pairs) - 1)
        for word, row in zip(words, self._out):
            for e, (j, _) in row.items():
                if words[j] is None:
                    words[j] = word + (e,)
        return words


def product(a: Pdes, b: Pdes) -> Pdes:
    """Synchronous product; each transition carries the minimum of the two
    component probabilities and exists only where that minimum is positive.
    Its states are those of `JointSupport(a, b)`, labelled with its pairs."""
    joint = JointSupport(a, b)
    rows = []
    for (x, y), row in zip(joint.pairs, joint._out):
        ra, rb = a._out[x], b._out[y]
        rows.append({e: (j, min(ra[e][1], rb[e][1])) for e, (j, _) in row.items()})
    return Pdes._from_rows(a.alphabet, 0, rows, joint.pairs, check_liveness=False)


def is_sublanguage(a: Pdes, b: Pdes) -> Verdict:
    """Whether a's language is a probabilistic sublanguage of b's: on a's
    support every one-step extension ratio of a is bounded by b's.  The
    first violation leaves a joint-support pair; the witness is the first
    in pair order, then event order."""
    return _sublanguage(JointSupport(b, a))


def _sublanguage(joint: JointSupport) -> Verdict:
    """`is_sublanguage(joint.b, joint.a)`, read off ``joint``: the pairs of
    ``JointSupport(b, a)`` are those of ``JointSupport(a, b)`` swapped, in
    the same order, so either joint gives the same verdict and witness."""
    outer, inner = joint.a._out, joint.b._out
    for i, (y, x) in enumerate(joint.pairs):
        row = outer[y]
        for e, (_, p) in inner[x].items():
            bound = row.get(e, _ABSENT)[1]
            if p > bound:
                return Verdict(False, Witness((joint.access()[i],), e, p, bound))
    return Verdict(True)


def is_subautomaton(a: Pdes, b: Pdes) -> bool:
    """Structural containment: a's diagram is a subgraph of b's (same
    initial state, same targets) with pointwise smaller probabilities."""
    if a.alphabet != b.alphabet or a.initial != b.initial:
        return False
    rows = b._out
    for s, ra in a._out.items():
        rb = rows.get(s)
        if rb is None:
            return False
        for e, (dst, p) in ra.items():
            edge = rb.get(e)
            if edge is None or edge[0] != dst or p > edge[1]:
                return False
    return True


def language_equivalent(a: Pdes, b: Pdes) -> bool:
    """Exact equality of generated languages: each is a sublanguage of the
    other, since two rows bound each other's ratios exactly when they
    define the same events with the same probabilities."""
    return is_sublanguage(a, b).holds and is_sublanguage(b, a).holds


@dataclass(frozen=True)
class ObservationClasses:
    """A DFA over observable events whose states index observation classes:
    the class of a string is where its observation leads from ``initial``.
    From `observer`, ``cells[i]`` is class i's cell of source states, closed
    under unobservable reach; the cells do not count in equality."""

    alphabet: Alphabet
    initial: int
    count: int
    trans: Dict[Tuple[int, str], int]
    cells: Tuple[FrozenSet[State], ...] = field(default=(), compare=False, repr=False)

    def step(self, cls: Optional[int], event: str) -> Optional[int]:
        """Advance one event: unobservable events keep the class, observable
        ones follow the class DFA (None once outside the mapped classes)."""
        if cls is None or event not in self.alphabet.observable:
            return cls
        return self.trans.get((cls, event))

    def locate(self, word: Iterable[str]) -> Optional[int]:
        """Class of the observation of a full event string."""
        cls: Optional[int] = self.initial
        for e in word:
            cls = self.step(cls, e)
            if cls is None:
                return None
        return cls


def _unobservable_reach(a: Pdes) -> Callable[[Iterable[State]], FrozenSet[State]]:
    """The closure of a set of states under unobservable events, as a
    function that closes each distinct set once: its table lives as long
    as the function."""
    out = a._out
    unobs = [e for e in a.alphabet.events if e not in a.alphabet.observable]

    def successors(s):
        row = out[s]
        return [row[e][0] for e in unobs if e in row]

    closures = _Table(lambda targets: frozenset(explore(targets, successors)))
    return lambda states: closures[frozenset(states)]


def observer(a: Pdes, visit: Optional[Callable[[FrozenSet[State]], None]] = None) -> ObservationClasses:
    """Standard subset construction on the logic part of the automaton
    (or of a `JointSupport`, which has the same rows).  If given,
    ``visit(cell)`` is called on each cell before its successors are
    built, in index order, as `numbered_walk` takes them; an exception it
    raises stops the construction."""
    out = a._out
    observable = [e for e in a.alphabet.events if e in a.alphabet.observable]
    reach = _unobservable_reach(a)

    def successors(cell):
        if visit is not None:
            visit(cell)
        rows = [out[s] for s in cell]
        for e in observable:
            targets = {row[e][0] for row in rows if e in row}
            if targets:
                yield e, reach(targets), ONE

    cells, cell_rows = numbered_walk(reach([a.initial]), successors)
    trans = {(i, e): j for i, row in enumerate(cell_rows) for e, (j, _) in row.items()}
    return ObservationClasses(a.alphabet, 0, len(cells), trans, tuple(cells))


def observer_automaton(a: Pdes) -> Pdes:
    """The observer as a logic automaton over the observable sub-alphabet:
    state i is class i of `observer(a)`, labelled with its cell."""
    obs = observer(a)
    rows: List[Dict[str, Tuple[int, EpsProb]]] = [{} for _ in obs.cells]
    for (i, e), j in obs.trans.items():
        rows[i][e] = (j, ONE)
    return Pdes._from_rows(a.alphabet.restrict_to_observable(), obs.initial, rows, obs.cells, check_liveness=False)


def _refine(keys: Sequence[Hashable], rows: Sequence[Sequence[int]]) -> Tuple[List[int], List[int]]:
    """Moore refinement of states 0..n-1 with one key ``keys[s]`` and
    equally long target rows ``rows[s]``, -1 for a missing move: the first
    partition groups equal keys, and each round splits the blocks by their
    members' target blocks until the count stops changing.  Returns each
    state's block, numbered by first members, and each block's first
    member from `_first_members`, which raises `InvariantError` unless the
    partition is stable."""
    sigs: Dict[Hashable, int] = {}
    block = [sigs.setdefault(key, len(sigs)) for key in keys]
    count = len(sigs)
    columns = list(zip(*rows))  # one per move; a round zips them, with no iterator per state
    while True:
        sigs = {}
        of = (block + [-1]).__getitem__  # a missing move, -1, reads the -1 appended
        block = [sigs.setdefault(sig, len(sigs)) for sig in zip(block, *[map(of, col) for col in columns])]
        if len(sigs) == count:
            return block, _first_members(keys, rows, block)
        count = len(sigs)


def _first_members(keys: Sequence, rows: Sequence[Sequence[int]], block: List[int]) -> List[int]:
    """The first member of each block 0..k-1 of the partition ``block`` of
    the states that `_refine` reads.  Raises `InvariantError` unless the
    partition is stable: every state has its block's key and, move by move,
    its block's target blocks (-1 for a missing move), so a quotient that
    gives each block its first member's row loses nothing."""
    first: Dict[int, int] = {}
    for s, b in enumerate(block):
        first.setdefault(b, s)
    members = [first[b] for b in range(len(first))]
    heads = [members[b] for b in block]  # each state's block's first member
    of = (block + [-1]).__getitem__
    sigs = list(zip(keys, *[map(of, col) for col in zip(*rows)]))  # each state's key and target blocks
    if list(map(sigs.__getitem__, heads)) != sigs:
        raise InvariantError("the merged states are not a stable partition")
    return members


def minimize(a: Pdes, prefix: Optional[str] = None) -> Pdes:
    """Quotient by equal futures: two states merge when they define the
    same events with the same probabilities into states that merge.  The
    result generates the same language with the fewest states.

    Moore refinement on integer rows: each row is kept as its targets'
    numbers in event order (the states themselves when they are 0..n-1,
    -1 for a missing event), and each state's key numbers its (event,
    probability) signature, read as the integers (numerator, denominator,
    degree).  `_refine` splits the keys' partition and checks it, as for
    `quotient_classes`.  Blocks are numbered in the order
    of their first members, whose rows they take, and named
    ``f"{prefix}{b}"`` when a prefix is given.  On an automaton numbered
    breadth first in event order (as `numbered_walk` numbers a walk in
    event order) the walk of the quotient meets each block first at its
    first member, so the blocks are in breadth-first order too and
    ``minimize(a, prefix)`` is ``minimize(a).canonical_names(prefix)``."""
    states, out = a._states, a._out
    n = len(states)
    index = range(n) if states == tuple(range(n)) else {s: i for i, s in enumerate(states)}
    position, n_events = a.alphabet._position, a.alphabet.n
    signatures: Dict[tuple, int] = {}
    keys: List[int] = []
    rows: List[List[int]] = []
    for s in states:
        sig = []
        targets = [-1] * n_events
        for e, (dst, p) in out[s].items():
            m = p.magnitude
            sig.append((e, m.numerator, m.denominator, p.eps_degree))
            targets[position[e]] = index[dst]
        keys.append(signatures.setdefault(tuple(sig), len(signatures)))
        rows.append(targets)
    block, first = _refine(keys, rows)
    names = range(len(first)) if prefix is None else [f"{prefix}{b}" for b in range(len(first))]
    quotient = {
        names[b]: {e: (names[block[index[dst]]], p) for e, (dst, p) in out[states[s]].items()}
        for b, s in enumerate(first)
    }
    return Pdes._from_rows(a.alphabet, names[0], quotient, check_liveness=False)


def minimize_logic(a: Pdes) -> Pdes:
    """`minimize` for a logic automaton (every probability one)."""
    if any(p != ONE for row in a._out.values() for _, p in row.values()):
        raise InvariantError("minimize_logic expects a logic automaton")
    return minimize(a)


# -- text format -------------------------------------------------------

_ALPHABET_DIRECTIVES = ("controllable", "uncontrollable", "observable", "unobservable")


def _header_alphabet(lines: List[Tuple[int, str, List[str]]]) -> Alphabet:
    """The alphabet that a file's controllable, uncontrollable, observable
    and unobservable lines, given as (line, directive, events), declare.
    Without an observable line the observable events are the complement of
    the unobservable ones; with both lines they must partition the events.
    Errors name the line that repeats an event or names an undeclared one."""
    kinds: Dict[str, Tuple[bool, int]] = {}  # event -> (controllable, line)
    sight: Dict[str, Tuple[bool, int]] = {}  # event -> (observable, line)
    for lineno, key, fields in lines:
        table = kinds if key.endswith("controllable") else sight
        for e in fields:
            if e in table:
                raise FormatError(f"duplicate event {e!r}", lineno)
            table[e] = (not key.startswith("un"), lineno)
    given = {key for _, key, _ in lines}
    if not given & {"controllable", "uncontrollable"}:
        raise FormatError("missing controllable/uncontrollable lines")
    if not given & {"observable", "unobservable"}:
        raise FormatError("missing observable/unobservable lines")
    for e, (_, lineno) in sight.items():
        if e not in kinds:
            raise FormatError(f"unknown event {e!r}", lineno)
    if given >= {"observable", "unobservable"} and len(sight) != len(kinds):
        raise FormatError("observable/unobservable lines must partition the events")
    unnamed = ("observable" not in given, 0)  # how an event no observability line names is read
    return Alphabet.make(
        [e for e, (c, _) in kinds.items() if c],
        [e for e, (c, _) in kinds.items() if not c],
        [e for e in kinds if sight.get(e, unnamed)[0]],
    )


def _require_tokens(kind: str, names: Iterable[str]) -> None:
    """Raise `InvariantError` on the first name that a reader would not
    read back as itself: one whitespace-free token without ``#``."""
    for name in names:
        if name.split() != [name] or "#" in name:
            raise InvariantError(f"{kind} {name!r} is not one token without whitespace or '#'")


def _alphabet_lines(alphabet: Alphabet) -> List[str]:
    """The controllable, uncontrollable, observable and unobservable lines
    that declare the alphabet, events in alphabet order."""
    _require_tokens("event", alphabet.events)
    return [
        "controllable: " + " ".join(alphabet.controllable_events()),
        "uncontrollable: " + " ".join(alphabet.uncontrollable_events()),
        "observable: " + " ".join(e for e in alphabet.events if e in alphabet.observable),
        "unobservable: " + " ".join(e for e in alphabet.events if e not in alphabet.observable),
    ]


def loads_automaton(text: str) -> Pdes:
    """Parse the line-oriented automaton format (see `dumps_automaton`)."""
    states: Optional[dict] = None  # the declared states, in order, once a states line is read
    initial = initial_line = None
    header: list = []  # (line, directive, events) of the alphabet lines
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
            states = {} if states is None else states
            for s in fields:
                if s in states:
                    raise FormatError(f"duplicate state {s!r}", lineno)
                states[s] = None
        elif key == "initial":
            if initial is not None:
                raise FormatError("duplicate initial line", lineno)
            if len(fields) != 1:
                raise FormatError("initial takes exactly one state", lineno)
            initial, initial_line = fields[0], lineno
        elif key in _ALPHABET_DIRECTIVES:
            header.append((lineno, key, fields))
        elif key == "trans":
            if len(fields) != 4:
                raise FormatError("trans takes: <src> <event> <dst> <prob>", lineno)
            raw_trans.append((lineno, fields))
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)

    if initial is None:
        raise FormatError("missing 'initial:' line")
    alphabet = _header_alphabet(header)

    probs = _Table(parse_prob)
    # one row per state, in the order the states are first named: initial,
    # then the declared states, then the transitions' sources and targets
    rows: Dict[State, Dict[str, Tuple[State, EpsProb]]] = {s: {} for s in (initial, *(states or ()))}
    for lineno, (src, event, dst, prob_text) in raw_trans:
        if states is not None and (src not in states or dst not in states):
            raise FormatError(f"transition references undeclared state", lineno)
        row = rows.get(src)
        if row is None:
            row = rows[src] = {}
        elif event in row:
            raise FormatError(f"duplicate transition from {src!r} on {event!r}", lineno)
        if event not in alphabet._position:
            raise FormatError(f"unknown event {event!r}", lineno)
        try:
            prob = probs[prob_text]
        except ValueError as e:
            raise FormatError(str(e), lineno) from None
        if prob.is_zero:
            raise FormatError("transitions must have positive probability", lineno)
        row[event] = (dst, prob)
        if dst not in rows:
            rows[dst] = {}

    if states is not None and initial not in states:
        raise FormatError(f"initial state {initial!r} not declared", initial_line)
    try:
        return Pdes._from_rows(alphabet, initial, rows, on_unreachable="trim")
    except InvariantError as e:
        raise FormatError(str(e)) from None


def dumps_automaton(a: Pdes) -> str:
    """Serialize to the text format; states must be strings (use
    `canonical_names` first for constructed automata), and states and
    events single tokens without ``#``, as the reader splits them."""
    if not all(isinstance(s, str) for s in a.states):
        raise InvariantError("serialization needs string state names; call canonical_names()")
    _require_tokens("state", a.states)
    lines = ["states: " + " ".join(a.states), f"initial: {a.initial}"] + _alphabet_lines(a.alphabet)
    for src, e, dst, p in a.transitions():
        lines.append(f"trans: {src} {e} {dst} {format_prob(p)}")
    return "\n".join(lines) + "\n"
