"""Partial-observation probabilistic supervisors.

A supervisor reacts only to the projection of the executed string.  Its
compact form is a scaling-factor map: for each observation class, a
vector of per-event multipliers in [0,1] that is identically 1 on
uncontrollable events.  The equivalent roulette form attaches to each
observation class a probability distribution over control patterns
whose per-event marginals reproduce the scaling vector.

Observation classes are represented finitely by the observer of the
synchronized plant/specification pair graph; a synthesized map merges
the observer's cells that no observation tells apart, so its classes are
blocks of cells.  Observations that fall outside the mapped classes use a
configurable default vector (all-ones unless stated otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .automata import (
    _ABSENT,
    _ALPHABET_DIRECTIVES,
    _alphabet_lines,
    _header_alphabet,
    _refine,
    _sublanguage,
    Alphabet,
    FormatError,
    InvariantError,
    JointSupport,
    ObservationClasses,
    Pdes,
    PdesError,
    State,
    Witness,
    numbered_walk,
    observer,
)
from .patterns import (
    PatternDistribution,
    _nested,
    distribution_from_marginals,
    marginals_of,
    validate_scaling_vector,
)
from .values import EpsProb, ONE, ZERO, _Table, format_rat, parse_rat
from .verification import _ANY, _PLANT_ONLY, _cross_products, _ratio_classes, _uncontrollable_mismatches


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


def observation_classes(plant: Pdes, spec: Optional[Pdes] = None) -> ObservationClasses:
    """Observation classes: the observer of the synchronized pair graph,
    which is the joint support of plant and spec, or of the plant itself
    when no specification is given."""
    return observer(JointSupport(plant, spec) if spec is not None else plant)


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


def _require_sublanguage(joint: JointSupport) -> None:
    """Raise `NotSublanguageError`, with the witness of
    `is_sublanguage(spec, plant)`, unless it holds; ``joint`` is
    `JointSupport(plant, spec)`, the joint its caller goes on to read."""
    verdict = _sublanguage(joint)
    if not verdict:
        w = verdict.witness
        raise NotSublanguageError(
            f"specification is not a sublanguage of the plant at {w.strings[0]!r} on {w.event!r}",
            w,
        )


def scaling_from_spec(plant: Pdes, spec: Pdes) -> ScalingMap:
    """Synthesize the scaling-factor map realizing the specification.

    Requires the spec to be a probabilistic sublanguage of the plant.
    Per cell of the joint support's observer and controllable event, the
    factor is the spec/plant ratio of the members' one ratio class, the
    class `verification._ratio_classes` gives each pair for `build_to`
    too (zero when no member has the plant transition).  The map's
    classes are the cells merged by `quotient_classes` on their ratio
    classes, one per block of cells with equal vectors now and after every
    observation, numbered in the order of their first cells.  Two ratio
    classes in a cell mean the spec is not probabilistic observable, and
    any uncontrollable-probability mismatch means it is not probabilistic
    controllable.  A sublanguage failure is reported before a mismatch, a
    mismatch before a conflict, each at the first pair in breadth-first
    order (members of a cell in order of their shortest strings).  The
    exception of a failure keeps the joint support in ``_joint``, so that
    the checks explaining it read the same one.
    """
    joint = JointSupport(plant, spec)
    try:
        return _scaling_from_joint(joint)
    except (SynthesisError, InvariantError) as e:
        e._joint = joint
        raise


def _scaling_from_joint(joint: JointSupport) -> ScalingMap:
    """`scaling_from_spec` of ``joint = JointSupport(plant, spec)``."""
    plant, spec = joint.a, joint.b
    _require_sublanguage(joint)
    # the strict reading: a supervisor cannot disable an uncontrollable
    # event, so a mismatch the spec omits fails too; the shortest strings
    # are found only to report a failure
    for i, e, rp, rs in _uncontrollable_mismatches(joint):
        access = joint.access()
        raise NotControllableError(
            f"uncontrollable event {e!r} after {access[i]!r}: plant probability {rp} != spec probability {rs}",
            Witness((access[i],), e, rp, rs),
        )
    alphabet = plant.alphabet
    controllable = alphabet.controllable_events()
    # a sublanguage has no _SPEC_ONLY pair; a plant-only event's factor is 0
    ratios, factor = _ratio_classes(joint)
    # a ratio class keeps only the degree difference, so the pairs with an
    # infinitesimal controllable edge are listed apart: a cell holding one
    # fails, as synthesis requires ordinary probabilities
    eps_plant, eps_spec = (_eps_states(a, controllable) for a in (plant, spec))
    eps = {i for i, (x, q) in enumerate(joint.pairs) if x in eps_plant or q in eps_spec}
    keys: List[Tuple[int, ...]] = []  # per class: its factors' ratio classes
    uncontrollable_factors = (Fraction(1),) * (alphabet.n - alphabet.m)

    def class_key(cell) -> None:
        # per controllable event, the ratio classes of the members that
        # have it; a cell passes with at most one each and no ε member
        columns = [set(column) - {_ANY} for column in zip(*{ratios[i] for i in cell})]
        if eps.isdisjoint(cell) and all(len(column) < 2 for column in columns):
            keys.append(tuple([column.pop() if column else _PLANT_ONLY for column in columns]))
            return
        # the failure reported is the first met in order of the members'
        # shortest strings, event by event
        access = joint.access()
        members = sorted(cell, key=access.__getitem__)
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

    # each class is checked as the subset construction reaches it, so a
    # conflict stops the construction there; classes with equal vectors
    # now and after every observation then share a block
    classes, first = quotient_classes(observer(joint, class_key), keys)
    vectors = {b: tuple([factor[r] for r in keys[c]]) + uncontrollable_factors for b, c in enumerate(first)}
    return ScalingMap(classes, vectors)


def _eps_states(a: Pdes, events) -> FrozenSet[State]:
    """The states of ``a`` with an infinitesimal edge on one of ``events``."""
    return frozenset(s for s, row in a._out.items() if any(row[e][1].eps_degree for e in events if e in row))


def supervisor_from_scaling(scaling: ScalingMap) -> SupervisorMap:
    """Roulette form of a scaling map: one pattern distribution per distinct
    vector, shared by the classes that have it, constructed so its
    marginals equal the vector exactly."""
    m = scaling.alphabet.m
    # the vectors were validated when the scaling map was built, so their
    # uncontrollable entries are all 1 and the first m entries tell them apart
    roulette = _Table(lambda head: _nested(head, m))
    dists = {cls: roulette[vec[:m]] for cls, vec in scaling.vectors.items()}
    return SupervisorMap(scaling.classes, dists, roulette[scaling.default[:m]])


def scaling_from_supervisor(sup: SupervisorMap) -> ScalingMap:
    """Compact form of a supervisor map, via per-class marginals."""
    alphabet = sup.alphabet
    vectors = {
        cls: marginals_of(dist, alphabet.m, alphabet.n) for cls, dist in sup.dists.items()
    }
    default = marginals_of(sup.default, alphabet.m, alphabet.n)
    return ScalingMap(sup.classes, vectors, default)


def _closed_loop(plant: Pdes, classes: ObservationClasses, factors) -> Pdes:
    """The plant under per-class factors: ``factors[c]`` is class c's row
    {controllable event: positive `EpsProb` factor}.  An uncontrollable
    edge keeps the plant's probability; a controllable edge exists where
    the row of its class has its event, with the plant's probability times
    that factor.  The class advances by `ObservationClasses.step`.  States
    are numbered as a breadth-first walk finds them, successors in event
    order, and state i is labelled (plant state, class)."""
    controllable, step = plant.alphabet.controllable, classes.step

    def successors(label):
        x, c = label
        row = factors[c]
        for e, (dst, p) in plant._out[x].items():
            if e in controllable:
                factor = row.get(e)
                if factor is None:
                    continue
                p = factor * p
            yield e, (dst, step(c, e)), p

    labels, rows = numbered_walk((plant.initial, classes.initial), successors)
    return Pdes._from_rows(plant.alphabet, 0, rows, labels)


def quotient_classes(classes: ObservationClasses, keys) -> Tuple[ObservationClasses, List[int]]:
    """Merge the classes that a supervisor cannot tell apart, where
    ``keys[c]`` is a hashable key of class c's row (its scaling vector or
    its factors' ratio classes), equal exactly where the rows are equal:
    `_refine` from one block per key, over the observable events, a
    missing move being its own target.  Two merged classes have equal
    rows now and after every observation, so paired with one plant state
    they generate the same language, and `_closed_loop` over the quotient
    generates the language it generates over the classes.  A missing move
    never merges with a class, so no class merges into a map's default.
    This is exact supervisor reduction (Vaz and Wonham, 1986; Su and
    Wonham, 2004): only equivalent classes merge.  Returns the block DFA,
    each block taking the moves of its first member, and the first member
    of each block, as `_refine` checks them."""
    alphabet, trans = classes.alphabet, classes.trans
    observable = [e for e in alphabet.events if e in alphabet.observable]
    rows = [[trans.get((c, e), -1) for e in observable] for c in range(classes.count)]
    block, first = _refine(keys, rows)
    merged = {(b, e): block[t] for b, c in enumerate(first) for e, t in zip(observable, rows[c]) if t >= 0}
    return ObservationClasses(alphabet, block[classes.initial], len(first), merged), first


def controlled_automaton(plant: Pdes, scaling: ScalingMap) -> Pdes:
    """The controlled plant: each transition probability is the plant's
    scaled by the factor of its observation class, and zero-probability
    transitions are dropped.  States are 0..n-1 in breadth-first order;
    state i is labelled (plant state, class), the class None once the
    observation leaves the map's classes."""
    if scaling.alphabet != plant.alphabet:
        raise InvariantError("scaling map alphabet does not match the plant")
    controllable = plant.alphabet.controllable_events()
    # one row per class the walk reaches, however many classes the map has
    rows = _Table(lambda c: {e: EpsProb(f) for e, f in zip(controllable, scaling.vector(c)) if f})
    return _closed_loop(plant, scaling.classes, rows)


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
    enables = _Table(lambda cls: _enable_vector(sup, cls))  # once per class visited
    for e in word:
        i = plant.alphabet.index(e)
        edge = plant.step(x, e)
        if edge is None:
            return ZERO
        value = value * edge[1] * EpsProb(enables[cls][i])
        if value.is_zero:
            return ZERO
        x, cls = edge[0], sup.classes.step(cls, e)
    return value


# -- serialization -----------------------------------------------------


def _dump_header(alphabet: Alphabet, classes: ObservationClasses) -> List[str]:
    lines = _alphabet_lines(alphabet) + [
        f"obs-classes: {classes.count}",
        f"obs-initial: t{classes.initial}",
    ]
    for (i, e), j in sorted(classes.trans.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        lines.append(f"obs-trans: t{i} {e} t{j}")
    return lines


def _index(field: str, prefix: str = "t") -> int:
    """The nonnegative integer in a field written ``<prefix><digits>``, as
    the dumper writes it: a class ``t<i>``, or a count with no prefix.
    The digits must be canonical ASCII decimal (no sign, no leading zero)."""
    digits = field[len(prefix):]
    canonical = digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0")
    if not (field.startswith(prefix) and canonical):
        raise ValueError(f"expected {prefix}<nonnegative integer>, got {field!r}")
    return int(digits)


def _index_at(field: str, lineno: int, prefix: str = "t") -> int:
    """`_index` of a field; a ValueError is a FormatError on the line."""
    try:
        return _index(field, prefix)
    except ValueError as e:
        raise FormatError(str(e), lineno) from None


def _single_field(key: str, fields: List[str], lineno: int) -> str:
    if len(fields) != 1:
        raise FormatError(f"{key} takes exactly one value", lineno)
    return fields[0]


def _parse_header(text: str):
    """A map file's alphabet, classes and other lines as (line, directive,
    fields); the directive ends at the first word's colon or whitespace."""
    header: List[Tuple[int, str, List[str]]] = []  # the alphabet lines
    count = None
    initial = None
    trans: Dict[Tuple[int, str], int] = {}
    refs: List[Tuple[int, int, int, str]] = []  # (line, src, dst, event) of each obs-trans line
    body: List[Tuple[int, str, List[str]]] = []
    index = _Table(_index)  # obs-trans lines repeat their classes
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        key, _, first = fields[0].partition(":")
        if first:
            fields[0] = first
        else:
            del fields[0]
        if key == "obs-trans":
            if len(fields) != 3:
                raise FormatError("obs-trans takes: <src> <event> <dst>", lineno)
            src, event, dst = fields
            try:
                src, dst = index[src], index[dst]
            except ValueError as e:
                raise FormatError(str(e), lineno) from None
            if (src, event) in trans:
                raise FormatError(f"duplicate obs-trans from t{src} on {event!r}", lineno)
            trans[(src, event)] = dst
            refs.append((lineno, src, dst, event))
        elif key in _ALPHABET_DIRECTIVES:
            header.append((lineno, key, fields))
        elif key == "obs-classes":
            if count is not None:
                raise FormatError("duplicate obs-classes line", lineno)
            count = _index_at(_single_field(key, fields, lineno), lineno, "")
        elif key == "obs-initial":
            if initial is not None:
                raise FormatError("duplicate obs-initial line", lineno)
            initial = _index_at(_single_field(key, fields, lineno), lineno)
            initial_line = lineno
        else:
            body.append((lineno, key, fields))
    if count is None or initial is None:
        raise FormatError("missing obs-classes/obs-initial lines")
    if initial >= count or max(index.values(), default=0) >= count:
        # report the first reference out of range, in line order
        uses = [(initial_line, initial)] + [(lineno, c) for lineno, src, dst, _ in refs for c in (src, dst)]
        for lineno, cls in sorted(uses, key=lambda use: use[0]):
            _check_class(cls, count, lineno)
    alphabet = _header_alphabet(header)
    observable = alphabet.observable
    for lineno, _, _, event in refs:
        if event not in observable:
            if event not in alphabet.events:
                raise FormatError(f"obs-trans uses unknown event {event!r}", lineno)
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
    return _check_class(_index_at(fields[0], lineno), count, lineno)


def dumps_scaling_map(scaling: ScalingMap) -> str:
    lines = _dump_header(scaling.alphabet, scaling.classes)
    for cls in sorted(scaling.vectors):
        vec = " ".join(format_rat(f) for f in scaling.vectors[cls])
        lines.append(f"class t{cls} {vec}")
    lines.append("default " + " ".join(format_rat(f) for f in scaling.default))
    return "\n".join(lines) + "\n"


def loads_scaling_map(text: str) -> ScalingMap:
    alphabet, classes, body = _parse_header(text)
    rat = _Table(parse_rat)
    vectors: Dict[Optional[int], Tuple[Fraction, ...]] = {}  # None: the default vector
    for lineno, key, fields in body:
        if key == "class":
            cls = _class_line(fields, classes.count, lineno)
            fields = fields[1:]
        elif key == "default":
            cls = None
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
        if cls in vectors:
            raise FormatError("duplicate default" if cls is None else f"duplicate class t{cls}", lineno)
        try:
            vectors[cls] = validate_scaling_vector([rat[f] for f in fields], alphabet.m, alphabet.n)
        except (ValueError, InvariantError) as e:
            raise FormatError(str(e), lineno) from None
    default = vectors.pop(None, None)
    return ScalingMap(classes, vectors, default)


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
    rat = _Table(parse_rat)
    m = alphabet.m
    dists: Dict[Optional[int], PatternDistribution] = {}  # None: the default section
    section = None  # the open section: (line, class index or None, {pattern: probability})

    def close():
        """Build the roulette of the section that just ended."""
        if section is not None:
            lineno, cls, pending = section
            try:
                dists[cls] = PatternDistribution(m, pending)
            except InvariantError as e:
                raise FormatError(str(e), lineno) from None

    for lineno, key, fields in body:
        if key == "pattern":
            if len(fields) != 2:
                raise FormatError("pattern takes: <bitstring> <prob>", lineno)
            if section is None:
                raise FormatError("pattern outside a class or default section", lineno)
            bits, prob = fields
            valid = bits == "-" if m == 0 else len(bits) == m and not bits.strip("01")
            if not valid:
                raise FormatError(f"pattern {bits!r} is not a bitstring over {m} events", lineno)
            j = int(bits, 2) if m else 0
            pending = section[2]
            if j in pending:
                raise FormatError(f"duplicate pattern {bits!r}", lineno)
            try:
                pending[j] = rat[prob]
            except ValueError as e:
                raise FormatError(str(e), lineno) from None
        elif key in ("class", "default"):
            close()
            if key == "default":
                if fields:
                    raise FormatError("default takes no values", lineno)
                cls = None
            else:
                cls = _class_line(fields, classes.count, lineno)
                if len(fields) > 1:
                    raise FormatError("class takes only an observation class", lineno)
            if cls in dists:
                raise FormatError("duplicate default" if cls is None else f"duplicate class t{cls}", lineno)
            section = (lineno, cls, {})
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    close()
    default = dists.pop(None, None)
    return SupervisorMap(classes, dists, default)
