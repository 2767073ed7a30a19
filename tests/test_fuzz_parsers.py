"""Fuzzing the text loaders: a mutated model or map file either loads or
raises FormatError, never any other exception."""

import collections
import random
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesctl import (
    FormatError,
    dumps_automaton,
    dumps_scaling_map,
    dumps_supervisor_map,
    loads_automaton,
    loads_scaling_map,
    loads_supervisor_map,
    scaling_from_spec,
    supervisor_from_scaling,
)
from pdesctl.automata import InvariantError
from pdesctl.patterns import PatternDistribution, validate_scaling_vector
from pdesctl.supervisor import ScalingMap, SupervisorMap, _class_line, _parse_header
from pdesctl.values import _Table, parse_rat
from conftest import robot_plant, robot_spec

_SCALING = scaling_from_spec(robot_plant(), robot_spec())
VALID = {
    "automaton": (loads_automaton, dumps_automaton(robot_spec())),
    "scaling": (loads_scaling_map, dumps_scaling_map(_SCALING)),
    "supervisor": (loads_supervisor_map, dumps_supervisor_map(supervisor_from_scaling(_SCALING))),
}

# every token of the valid texts, plus malformed and boundary values
TOKENS = sorted({tok for _, text in VALID.values() for tok in text.split()}) + [
    "x", "-", "#", ":", "states:", "trans:", "pattern", "class", "default", "t", "t-1", "t99",
    "-1", "0", "2", "1/0", "-1/2", "3/2", "0.5", "1.", "0+", "0+^2", "0+^2*1/3", "00", "111",
    "0+^0", "0+^0·1/2", "0+^01",
]

EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "duplicate"]),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.sampled_from(TOKENS),
)


def mutate(text, edits):
    """Apply token edits to the lines of a text; indices wrap around."""
    lines = [line.split() for line in text.splitlines()]
    for kind, at, pos, token in edits:
        line = lines[at % len(lines)]
        if kind == "replace" and line:
            line[pos % len(line)] = token
        elif kind == "insert":
            line.insert(pos % (len(line) + 1), token)
        elif kind == "delete" and line:
            del line[pos % len(line)]
        elif kind == "duplicate":
            lines.insert(pos % (len(lines) + 1), list(line))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(max_examples=250, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
def test_mutated_text_loads_or_raises_format_error(kind, edits):
    loads, text = VALID[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            loads(mutate(text, edits))
        except FormatError:
            pass


@pytest.mark.parametrize("kind", sorted(VALID))
def test_unmutated_text_loads(kind):
    loads, text = VALID[kind]
    assert loads(mutate(text, [])) is not None


# -- the map loaders before sections were kept in one None-keyed dict -------


def reference_loads_scaling_map(text):
    alphabet, classes, body = _parse_header(text)
    rat = _Table(parse_rat)
    vectors = {}
    default = None

    def vector(fields, lineno):
        try:
            return validate_scaling_vector([rat[f] for f in fields], alphabet.m, alphabet.n)
        except (ValueError, InvariantError) as e:
            raise FormatError(str(e), lineno) from None

    for lineno, key, fields in body:
        if key == "class":
            cls = _class_line(fields, classes.count, lineno)
            if cls in vectors:
                raise FormatError(f"duplicate class t{cls}", lineno)
            vectors[cls] = vector(fields[1:], lineno)
        elif key == "default":
            if default is not None:
                raise FormatError("duplicate default", lineno)
            default = vector(fields, lineno)
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    return ScalingMap(classes, vectors, default)


def reference_loads_supervisor_map(text):
    alphabet, classes, body = _parse_header(text)
    rat = _Table(parse_rat)
    m = alphabet.m
    dists = {}
    current = None
    in_default = False
    section_line = 0
    pending = {}
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

    for lineno, key, fields in body:
        if key == "pattern":
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
            try:
                pending[j] = rat[prob]
            except ValueError as e:
                raise FormatError(str(e), lineno) from None
        elif key == "class":
            flush()
            in_default = False
            current = _class_line(fields, classes.count, lineno)
            if len(fields) > 1:
                raise FormatError("class takes only an observation class", lineno)
            if current in dists:
                raise FormatError(f"duplicate class t{current}", lineno)
            section_line = lineno
        elif key == "default":
            flush()
            if fields:
                raise FormatError("default takes no values", lineno)
            if default is not None:
                raise FormatError("duplicate default", lineno)
            current = None
            in_default = True
            section_line = lineno
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    flush()
    try:
        return SupervisorMap(classes, dists, default)
    except InvariantError as e:
        raise FormatError(str(e)) from None


GOLDEN_MAPS = re.split(r"(?m)^# m=\d+\n", (Path(__file__).parent / "data" / "supervisor_golden.map").read_text())[1:]
REFERENCE = {
    "scaling": (loads_scaling_map, reference_loads_scaling_map, [VALID["scaling"][1]]),
    "supervisor": (loads_supervisor_map, reference_loads_supervisor_map, [VALID["supervisor"][1]] + GOLDEN_MAPS),
}
# section-level tokens drawn more often, so that sections are opened,
# repeated and left unbalanced
SECTION_TOKENS = TOKENS + ["class", "default", "pattern", "t0", "t1", "1/3"] * 8

ROBOT_HEADER = (
    "controllable: s1 s2\nuncontrollable: s3 s4 s5\nobservable: s1 s2 s3\n"
    "unobservable: s4 s5\nobs-classes: 1\nobs-initial: t0\n"
)


def loaded(loads, text):
    """The loaded map and the order of its classes, or the error's type
    and message."""
    try:
        value = loads(text)
    except Exception as e:
        return type(e), str(e)
    return value, list(value.vectors if isinstance(value, ScalingMap) else value.dists)


def shuffled_sections(rng, text):
    """The map with its sections in random order, about one in five dropped."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(("class", "default")))
    sections = []
    for line in lines[start:]:
        if line.startswith(("class", "default")):
            sections.append([])
        sections[-1].append(line)
    rng.shuffle(sections)
    kept = [line for section in sections if rng.random() < 0.8 for line in section]
    return "\n".join(lines[:start] + kept) + "\n"


class TestMapLoaderReference:
    """The map loaders against the earlier ones, on seeded mutated maps:
    the same map, or the same error and message."""

    @pytest.mark.parametrize("kind", sorted(REFERENCE))
    def test_mutated_maps_match_reference(self, kind):
        loads, reference, texts = REFERENCE[kind]
        rng = random.Random(457)
        outcomes = collections.Counter()
        for _ in range(3000):
            edits = [
                (rng.choice(["replace", "insert", "delete", "duplicate"]), rng.randrange(1000),
                 rng.randrange(1000), rng.choice(SECTION_TOKENS))
                for _ in range(rng.randint(0, 4))
            ]
            text = mutate(shuffled_sections(rng, rng.choice(texts)), edits)
            result = loaded(loads, text)
            assert result == loaded(reference, text), text
            outcomes["loads" if result[0] is not FormatError else re.sub(r"line \d+: ", "", result[1])] += 1
        assert outcomes["loads"] >= 400, outcomes
        assert len(outcomes) >= 150, outcomes

    @pytest.mark.parametrize("kind, body, message", [
        # the open section is closed before the next header is read
        ("supervisor", "class t0\npattern 11 1/2\nclass t9\n", "line 7: pattern probabilities must sum to exactly 1"),
        ("supervisor", "default\npattern 11 1\ndefault\npattern 11 1\n", "line 9: duplicate default"),
        ("supervisor", "class t0\npattern 11 1\nclass t0\npattern 11 1\n", "line 9: duplicate class t0"),
        ("supervisor", "pattern 11 1\nclass t0\npattern 11 1\n", "line 7: pattern outside a class or default section"),
        ("scaling", "class t0 1 1 1 1 1\npattern 11 1\n", "line 8: unknown directive 'pattern'"),
    ])
    def test_first_error(self, kind, body, message):
        for load in REFERENCE[kind][:2]:
            with pytest.raises(FormatError) as exc:
                load(ROBOT_HEADER + body)
            assert str(exc.value) == message
