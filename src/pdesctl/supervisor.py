"""Partial-observation probabilistic supervisors.

A supervisor reacts only to the projection of the executed string.  Its
compact form is a scaling-factor map: for each observation class, a
vector of per-event multipliers in [0,1] that is identically 1 on
uncontrollable events.  The equivalent roulette form attaches to each
observation class a probability distribution over control patterns
whose per-event marginals reproduce the scaling vector.

Observation classes are represented finitely by the observer of the
synchronized plant/specification pair graph; observations that fall
outside the mapped classes use a configurable default vector (all-ones
unless stated otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .automata import (
    _ABSENT,
    Alphabet,
    FormatError,
    InvariantError,
    JointSupport,
    Observer,
    Pdes,
    PdesError,
    Witness,
    Word,
    explore,
    observer,
)
from .patterns import (
    PatternDistribution,
    distribution_from_marginals,
    marginals_of,
    validate_scaling_vector,
)
from .values import EpsProb, ONE, ZERO, format_rat, parse_rat


class SynthesisError(PdesError):
    """A specification is not achievable by any supervisor."""

    def __init__(self, message, witness: Optional[Witness] = None):
        self.witness = witness
        super().__init__(message)


class NotSublanguageError(SynthesisError):
    pass


class NotControllableError(SynthesisError):
    pass


class NotObservableError(SynthesisError):
    pass


@dataclass(frozen=True)
class ObservationClasses:
    """Observer of the plant/spec pair graph, indexing observation classes."""

    alphabet: Alphabet
    initial: int
    count: int
    trans: Dict[Tuple[int, str], int]

    def step(self, cls: Optional[int], event: str) -> Optional[int]:
        """Advance one event: unobservable events keep the class, observable
        ones follow the class DFA (None once outside the mapped classes)."""
        if cls is None:
            return None
        if event not in self.alphabet.observable:
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


def _classes(obs: Observer) -> ObservationClasses:
    return ObservationClasses(obs.alphabet, obs.initial, len(obs.cells), obs.trans)


def observation_classes(plant: Pdes, spec: Optional[Pdes] = None) -> ObservationClasses:
    """Observation classes: the observer of the synchronized pair graph,
    which is the joint support of plant and spec (the plant is paired
    with itself when no specification is given)."""
    return _classes(observer(JointSupport(plant, spec if spec is not None else plant)))


def _all_ones(alphabet: Alphabet) -> Tuple[Fraction, ...]:
    return tuple(Fraction(1) for _ in alphabet.events)


@dataclass(frozen=True)
class ScalingMap:
    """Per-observation-class scaling vectors plus a default vector."""

    classes: ObservationClasses
    vectors: Dict[int, Tuple[Fraction, ...]]
    default: Tuple[Fraction, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        m, n = self.classes.alphabet.m, self.classes.alphabet.n
        default = _all_ones(self.classes.alphabet) if self.default is None else self.default
        object.__setattr__(self, "default", validate_scaling_vector(default, m, n))
        vectors = {cls: validate_scaling_vector(vec, m, n) for cls, vec in self.vectors.items()}
        object.__setattr__(self, "vectors", vectors)

    @property
    def alphabet(self) -> Alphabet:
        return self.classes.alphabet

    def vector(self, cls: Optional[int]) -> Tuple[Fraction, ...]:
        if cls is None:
            return self.default
        return self.vectors.get(cls, self.default)

    def factor(self, cls: Optional[int], event: str) -> Fraction:
        return self.vector(cls)[self.alphabet.index(event)]


@dataclass(frozen=True)
class SupervisorMap:
    """Per-observation-class pattern distributions (the roulette form)."""

    classes: ObservationClasses
    dists: Dict[int, PatternDistribution]
    default: PatternDistribution = None  # type: ignore[assignment]

    def __post_init__(self):
        alphabet = self.classes.alphabet
        if self.default is None:
            object.__setattr__(
                self, "default", distribution_from_marginals(_all_ones(alphabet), alphabet.m, alphabet.n)
            )
        for dist in list(self.dists.values()) + [self.default]:
            if dist.m != alphabet.m:
                raise InvariantError("pattern distribution does not match the alphabet")

    @property
    def alphabet(self) -> Alphabet:
        return self.classes.alphabet

    def distribution(self, cls: Optional[int]) -> PatternDistribution:
        if cls is None:
            return self.default
        return self.dists.get(cls, self.default)


# a controllable ratio that synthesis cannot write as a factor
_EPS = object()


def _not_sublanguage(word: Word, e: str, rs: EpsProb, rp: EpsProb) -> NotSublanguageError:
    return NotSublanguageError(
        f"specification is not a sublanguage of the plant at {word!r} on {e!r}",
        Witness((word,), e, rs, rp),
    )


def scaling_from_spec(plant: Pdes, spec: Pdes) -> ScalingMap:
    """Synthesize the scaling-factor map realizing the specification.

    Requires the spec to be a probabilistic sublanguage of the plant.
    Per observation class and controllable event, the factor is the
    spec/plant probability ratio at any representative pair with the
    plant transition defined (zero when no representative defines it);
    conflicting ratios mean the spec is not probabilistic observable,
    and any uncontrollable-probability mismatch means it is not
    probabilistic controllable.  A sublanguage failure is reported
    before a mismatch, a mismatch before a conflict, each at the first
    pair in breadth-first order (members of a class in order of their
    shortest strings).
    """
    joint = JointSupport(plant, spec)
    access = joint.access()
    alphabet = plant.alphabet
    mismatch = None
    ratios: List[list] = []  # per pair and controllable event: None, _EPS or the ratio
    for (x, q), word in zip(joint.pairs, access):
        rx, rq = plant._out[x], spec._out[q]
        row = []
        for e in alphabet.controllable_events():
            rp, rs = rx.get(e, _ABSENT)[1], rq.get(e, _ABSENT)[1]
            if rs > rp:
                raise _not_sublanguage(word, e, rs, rp)
            if rp is ZERO:
                row.append(None)
            elif rp.is_ordinary and rs.is_ordinary:
                row.append(rs.magnitude / rp.magnitude)
            else:
                row.append(_EPS)
        ratios.append(row)
        for e in alphabet.uncontrollable_events():
            rp, rs = rx.get(e, _ABSENT)[1], rq.get(e, _ABSENT)[1]
            if rp != rs:
                if rs > rp:
                    raise _not_sublanguage(word, e, rs, rp)
                if mismatch is None:
                    mismatch = NotControllableError(
                        f"uncontrollable event {e!r} after {word!r}: "
                        f"plant probability {rp} != spec probability {rs}",
                        Witness((word,), e, rp, rs),
                    )
    if mismatch is not None:
        raise mismatch
    vectors: Dict[int, Tuple[Fraction, ...]] = {}
    uncontrollable_factors = (Fraction(1),) * (alphabet.n - alphabet.m)

    def class_vector(cls: int, cell) -> None:
        members = sorted(cell, key=access.__getitem__)
        factors: List[Fraction] = []
        for k, e in enumerate(alphabet.controllable_events()):
            ratio: Optional[Fraction] = None
            first = 0
            for i in members:
                r = ratios[i][k]
                if r is None:
                    continue
                if r is _EPS:
                    raise InvariantError("synthesis requires ordinary probabilities")
                if ratio is None:
                    ratio, first = r, i
                elif r != ratio:
                    (x1, q1), (x2, q2) = joint.pairs[first], joint.pairs[i]
                    raise NotObservableError(
                        f"event {e!r} demands factor {ratio} after {access[first]!r} "
                        f"but {r} after {access[i]!r}",
                        Witness(
                            (access[first], access[i]),
                            e,
                            plant.rho(x1, e) * spec.rho(q2, e),
                            plant.rho(x2, e) * spec.rho(q1, e),
                        ),
                    )
            factors.append(ratio if ratio is not None else Fraction(0))
        vectors[cls] = tuple(factors) + uncontrollable_factors

    # each class is checked as the subset construction reaches it, so a
    # conflict stops the construction there
    obs = observer(joint, class_vector)
    return ScalingMap(_classes(obs), vectors)


def supervisor_from_scaling(scaling: ScalingMap) -> SupervisorMap:
    """Roulette form of a scaling map: one pattern distribution per class,
    constructed so its marginals equal the class vector exactly."""
    alphabet = scaling.alphabet
    dists = {
        cls: distribution_from_marginals(vec, alphabet.m, alphabet.n)
        for cls, vec in scaling.vectors.items()
    }
    default = distribution_from_marginals(scaling.default, alphabet.m, alphabet.n)
    return SupervisorMap(scaling.classes, dists, default)


def scaling_from_supervisor(sup: SupervisorMap) -> ScalingMap:
    """Compact form of a supervisor map, via per-class marginals."""
    alphabet = sup.alphabet
    vectors = {
        cls: marginals_of(dist, alphabet.m, alphabet.n) for cls, dist in sup.dists.items()
    }
    default = marginals_of(sup.default, alphabet.m, alphabet.n)
    return ScalingMap(sup.classes, vectors, default)


def controlled_automaton(plant: Pdes, scaling: ScalingMap) -> Pdes:
    """The controlled plant as an automaton over (plant state, class)
    pairs: each transition probability is the plant's scaled by the class
    factor, and zero-probability transitions are dropped."""
    if scaling.alphabet != plant.alphabet:
        raise InvariantError("scaling map alphabet does not match the plant")
    events = plant.alphabet.events
    classes = scaling.classes
    trans = {}

    def successors(state):
        x, cls = state
        rx, vector = plant._out[x], scaling.vector(cls)
        for i, e in enumerate(events):
            edge = rx.get(e)
            if edge is None:
                continue
            p = edge[1] * vector[i]
            if p.is_zero:
                continue
            dst = (edge[0], classes.step(cls, e))
            trans[(state, e)] = (dst, p)
            yield dst

    initial = (plant.initial, classes.initial)
    explore([initial], successors)
    return Pdes(plant.alphabet, initial, trans)


def _enable_vector(sup: SupervisorMap, cls: Optional[int]) -> Tuple[Fraction, ...]:
    """Per-event enable probabilities under the roulette of a class (None
    outside the mapped classes): the marginals of its pattern distribution.
    The one-step controlled probability of event i at plant state x is
    ``rho(x, event i) * _enable_vector(sup, cls)[i]``."""
    alphabet = sup.alphabet
    return marginals_of(sup.distribution(cls), alphabet.m, alphabet.n)


def controlled_xi(plant: Pdes, sup: SupervisorMap, word: Iterable[str], event: str) -> EpsProb:
    """One-step controlled transition probability after an executed string:
    the plant probability times the total enable probability of the event
    under the class roulette."""
    word = tuple(word)
    x = plant.delta(plant.initial, word)
    if x is None:
        raise InvariantError(f"string {word!r} is not in the plant's support")
    i = plant.alphabet.index(event)
    enable = _enable_vector(sup, sup.classes.locate(word))[i]
    return plant.rho(x, event) * EpsProb(enable)


def controlled_language_value(plant: Pdes, sup: SupervisorMap, word: Iterable[str]) -> EpsProb:
    """Value of the controlled language on a string (recursive product of
    one-step controlled probabilities; zero once the plant support is left)."""
    value = ONE
    x, cls = plant.initial, sup.classes.initial
    for e in word:
        i = plant.alphabet.index(e)
        edge = plant.step(x, e)
        if edge is None:
            return ZERO
        value = value * edge[1] * EpsProb(_enable_vector(sup, cls)[i])
        if value.is_zero:
            return ZERO
        x, cls = edge[0], sup.classes.step(cls, e)
    return value


# -- serialization -----------------------------------------------------


def _dump_header(alphabet: Alphabet, classes: ObservationClasses) -> List[str]:
    lines = [
        "controllable: " + " ".join(alphabet.controllable_events()),
        "uncontrollable: " + " ".join(alphabet.uncontrollable_events()),
        "observable: " + " ".join(e for e in alphabet.events if e in alphabet.observable),
        "unobservable: " + " ".join(e for e in alphabet.events if e not in alphabet.observable),
        f"obs-classes: {classes.count}",
        f"obs-initial: t{classes.initial}",
    ]
    for (i, e), j in sorted(classes.trans.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        lines.append(f"obs-trans: t{i} {e} t{j}")
    return lines


def _index(field: str, lineno: int) -> int:
    """A nonnegative integer, such as a class written ``t<i>``."""
    try:
        value = int(field.lstrip("t"))
    except ValueError:
        value = -1
    if value < 0:
        raise FormatError(f"expected a nonnegative integer, got {field!r}", lineno)
    return value


def _single_field(key: str, fields: List[str], lineno: int) -> str:
    if len(fields) != 1:
        raise FormatError(f"{key} takes exactly one value", lineno)
    return fields[0]


def _parse_header(text: str):
    controllable: List[str] = []
    uncontrollable: List[str] = []
    observable: List[str] = []
    count = None
    initial = None
    trans: Dict[Tuple[int, str], int] = {}
    refs: List[Tuple[int, int]] = []  # (line, class index) to check against the count
    moves: List[Tuple[int, str]] = []  # (line, obs-trans event) to check against the alphabet
    body: List[Tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if ":" in head:
            key, _, rest = line.partition(":")
        else:
            key, _, rest = line.partition(" ")
        key = key.strip()
        fields = rest.split()
        if key == "controllable":
            controllable += fields
        elif key == "uncontrollable":
            uncontrollable += fields
        elif key == "observable":
            observable += fields
        elif key == "unobservable":
            pass
        elif key == "obs-classes":
            if count is not None:
                raise FormatError("duplicate obs-classes line", lineno)
            count = _index(_single_field(key, fields, lineno), lineno)
        elif key == "obs-initial":
            if initial is not None:
                raise FormatError("duplicate obs-initial line", lineno)
            initial = _index(_single_field(key, fields, lineno), lineno)
            refs.append((lineno, initial))
        elif key == "obs-trans":
            if len(fields) != 3:
                raise FormatError("obs-trans takes: <src> <event> <dst>", lineno)
            src, dst = _index(fields[0], lineno), _index(fields[2], lineno)
            if (src, fields[1]) in trans:
                raise FormatError(f"duplicate obs-trans from t{src} on {fields[1]!r}", lineno)
            trans[(src, fields[1])] = dst
            refs += [(lineno, src), (lineno, dst)]
            moves.append((lineno, fields[1]))
        else:
            body.append((lineno, key, rest.strip()))
    if count is None or initial is None:
        raise FormatError("missing obs-classes/obs-initial lines")
    for lineno, cls in refs:
        _check_class(cls, count, lineno)
    try:
        alphabet = Alphabet.make(controllable, uncontrollable, observable)
    except InvariantError as e:
        raise FormatError(str(e)) from None
    for lineno, event in moves:
        if event not in alphabet.events:
            raise FormatError(f"obs-trans uses unknown event {event!r}", lineno)
        if event not in alphabet.observable:
            raise FormatError(f"obs-trans uses unobservable event {event!r}", lineno)
    classes = ObservationClasses(alphabet, initial, count, trans)
    return alphabet, classes, body


def _check_class(cls: int, count: int, lineno: int) -> int:
    if cls >= count:
        raise FormatError(f"observation class t{cls} out of range (obs-classes: {count})", lineno)
    return cls


def _class_line(fields: List[str], count: int, lineno: int) -> int:
    """Class index of a ``class t<i> ...`` line."""
    if not fields:
        raise FormatError("class takes an observation class", lineno)
    return _check_class(_index(fields[0], lineno), count, lineno)


def _rationals(fields: List[str], lineno: int) -> Tuple[Fraction, ...]:
    try:
        return tuple(parse_rat(f) for f in fields)
    except ValueError as e:
        raise FormatError(str(e), lineno) from None


def dumps_scaling_map(scaling: ScalingMap) -> str:
    lines = _dump_header(scaling.alphabet, scaling.classes)
    for cls in sorted(scaling.vectors):
        vec = " ".join(format_rat(f) for f in scaling.vectors[cls])
        lines.append(f"class t{cls} {vec}")
    lines.append("default " + " ".join(format_rat(f) for f in scaling.default))
    return "\n".join(lines) + "\n"


def loads_scaling_map(text: str) -> ScalingMap:
    alphabet, classes, body = _parse_header(text)
    vectors: Dict[int, Tuple[Fraction, ...]] = {}
    default = None
    for lineno, key, rest in body:
        fields = rest.split()
        if key == "class":
            cls = _class_line(fields, classes.count, lineno)
            if cls in vectors:
                raise FormatError(f"duplicate class t{cls}", lineno)
            vectors[cls] = _rationals(fields[1:], lineno)
        elif key == "default":
            if default is not None:
                raise FormatError("duplicate default", lineno)
            default = _rationals(fields, lineno)
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    try:
        return ScalingMap(classes, vectors, default)
    except InvariantError as e:
        raise FormatError(str(e)) from None


def dumps_supervisor_map(sup: SupervisorMap) -> str:
    lines = _dump_header(sup.alphabet, sup.classes)
    m = sup.alphabet.m

    def pattern_lines(dist: PatternDistribution) -> List[str]:
        out = []
        for j, p in dist.support():
            bits = format(j, f"0{m}b") if m else "-"
            out.append(f"pattern {bits} {format_rat(p, 'fraction')}")
        return out

    for cls in sorted(sup.dists):
        lines.append(f"class t{cls}")
        lines += pattern_lines(sup.dists[cls])
    lines.append("default")
    lines += pattern_lines(sup.default)
    return "\n".join(lines) + "\n"


def loads_supervisor_map(text: str) -> SupervisorMap:
    alphabet, classes, body = _parse_header(text)
    m = alphabet.m
    dists: Dict[int, PatternDistribution] = {}
    current: Optional[int] = None
    in_default = False
    section_line = 0
    pending: Dict[int, Fraction] = {}
    default = None

    def flush():
        nonlocal pending, default
        if current is None and not in_default:
            return
        try:
            dist = PatternDistribution(m, pending)
        except InvariantError as e:
            raise FormatError(str(e), section_line) from None
        if in_default:
            default = dist
        else:
            dists[current] = dist
        pending = {}

    for lineno, key, rest in body:
        fields = rest.split()
        if key == "class":
            flush()
            in_default = False
            current = _class_line(fields, classes.count, lineno)
            if current in dists:
                raise FormatError(f"duplicate class t{current}", lineno)
            section_line = lineno
        elif key == "default":
            flush()
            if default is not None:
                raise FormatError("duplicate default", lineno)
            current = None
            in_default = True
            section_line = lineno
        elif key == "pattern":
            if len(fields) != 2:
                raise FormatError("pattern takes: <bitstring> <prob>", lineno)
            if current is None and not in_default:
                raise FormatError("pattern outside a class or default section", lineno)
            bits, prob = fields
            valid = bits == "-" if m == 0 else len(bits) == m and not bits.strip("01")
            if not valid:
                raise FormatError(f"pattern {bits!r} is not a bitstring over {m} events", lineno)
            j = int(bits, 2) if m else 0
            if j in pending:
                raise FormatError(f"duplicate pattern {bits!r}", lineno)
            pending[j] = _rationals([prob], lineno)[0]
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    flush()
    try:
        return SupervisorMap(classes, dists, default)
    except InvariantError as e:
        raise FormatError(str(e)) from None
